//! Integration test: concurrent sessions against a live daemon.
//!
//! Starts `iwb-server` on an ephemeral port, drives several concurrent
//! client sessions loading *different* schemata and matching them, and
//! asserts (1) session isolation — no schema from one session is
//! visible in another's `show coverage`/`export` — and (2) clean
//! graceful shutdown.

use iwb_server::client::Client;
use iwb_server::server::{serve, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

const SESSIONS: usize = 4;

fn schema_body(tag: &str, side: &str) -> String {
    format!(
        "entity {tag}_{side}_entity \"Entity of {tag}.\" {{ {tag}_{side}_field : text \"Field of {tag}.\" }}"
    )
}

#[test]
fn concurrent_sessions_are_isolated_and_shutdown_is_clean() {
    let handle = serve(ServerConfig {
        workers: SESSIONS + 2,
        max_sessions: SESSIONS + 2,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr();

    let workers: Vec<_> = (0..SESSIONS)
        .map(|i| {
            thread::spawn(move || -> (String, String) {
                let tag = format!("t{i}");
                let mut c = Client::connect(addr).expect("connect");
                let sid = c.session_new(Some(&tag)).expect("session new");
                assert_eq!(sid, tag);

                // Load a source and a target schema unique to this session.
                let left = format!("{tag}_left");
                let right = format!("{tag}_right");
                c.request_with_heredoc(&format!("load er {left}"), &schema_body(&tag, "l"))
                    .unwrap()
                    .expect_ok()
                    .unwrap();
                c.request_with_heredoc(&format!("load er {right}"), &schema_body(&tag, "r"))
                    .unwrap()
                    .expect_ok()
                    .unwrap();

                // Match them; the matcher must see exactly this pair.
                let matched = c
                    .request(&format!("match {left} {right}"))
                    .unwrap()
                    .expect_ok()
                    .unwrap();
                assert!(matched.contains("cells updated"), "{matched}");

                // A few reads to interleave with the other sessions.
                for _ in 0..5 {
                    c.request("show coverage").unwrap().expect_ok().unwrap();
                    c.request(&format!("show matrix {left} {right}"))
                        .unwrap()
                        .expect_ok()
                        .unwrap();
                }
                let coverage = c.request("show coverage").unwrap().expect_ok().unwrap();
                let export = c.request("export").unwrap().expect_ok().unwrap();
                (coverage, export)
            })
        })
        .collect();

    let outputs: Vec<(String, String)> = workers
        .into_iter()
        .map(|w| w.join().expect("session thread"))
        .collect();

    // Isolation: session i's export mentions its own schemata and no
    // other session's.
    for (i, (_coverage, export)) in outputs.iter().enumerate() {
        assert!(
            export.contains(&format!("t{i}_left")),
            "session {i} lost its own schema:\n{export}"
        );
        for j in 0..SESSIONS {
            if i == j {
                continue;
            }
            assert!(
                !export.contains(&format!("t{j}_left")),
                "session {i} sees session {j}'s schema:\n{export}"
            );
            assert!(
                !export.contains(&format!("t{j}_right")),
                "session {i} leaks session {j}'s schema"
            );
        }
    }

    // The server saw all sessions and commands.
    let mut admin = Client::connect(addr).expect("admin connect");
    let stats = admin.stats().expect("stats");
    assert!(
        stats.contains(&format!("created={SESSIONS}")),
        "stats should count {SESSIONS} sessions:\n{stats}"
    );
    assert!(stats.contains("cmd.load count=8"), "{stats}");
    assert!(stats.contains("cmd.match count=4"), "{stats}");

    // Graceful shutdown: the daemon drains and every thread joins.
    assert!(admin.shutdown().expect("shutdown request").ok);
    handle.join();
}

#[test]
fn detached_sessions_survive_and_reattach() {
    let handle = serve(ServerConfig::default()).expect("bind");
    let addr = handle.addr();

    let mut a = Client::connect(addr).unwrap();
    a.session_new(Some("durable")).unwrap();
    a.request_with_heredoc("load er keep", "entity K { f : text }")
        .unwrap()
        .expect_ok()
        .unwrap();
    drop(a); // connection gone, session stays

    let mut b = Client::connect(addr).unwrap();
    let attached = b.request("session attach durable").unwrap();
    assert!(attached.ok, "{}", attached.body);
    let schema = b.request("show schema keep").unwrap().expect_ok().unwrap();
    assert!(schema.contains("[contains-entity] K"), "{schema}");

    b.shutdown().unwrap();
    handle.join();
}

#[test]
fn idle_sessions_are_evicted_by_the_housekeeper() {
    let handle = serve(ServerConfig {
        session_idle_timeout: Duration::from_millis(50),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();

    let mut c = Client::connect(addr).unwrap();
    c.session_new(Some("ephemeral")).unwrap();
    assert_eq!(handle.registry().len(), 1);

    // Wait out the idle timeout plus a housekeeper sweep.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !handle.registry().is_empty() && std::time::Instant::now() < deadline {
        thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(handle.registry().len(), 0, "idle session not evicted");

    let stats = c.stats().unwrap();
    assert!(stats.contains("evicted=1"), "{stats}");

    c.shutdown().unwrap();
    handle.join();
}

/// Read one `ok <n>`/`err <n>` framed reply from a raw socket.
fn read_reply(reader: &mut BufReader<TcpStream>) -> Option<(bool, String)> {
    let mut header = String::new();
    if reader.read_line(&mut header).ok()? == 0 {
        return None;
    }
    let (status, count) = header.trim_end().split_once(' ')?;
    let n: usize = count.parse().ok()?;
    let mut lines = Vec::with_capacity(n);
    for _ in 0..n {
        let mut line = String::new();
        reader.read_line(&mut line).ok()?;
        lines.push(line.trim_end().to_owned());
    }
    Some((status == "ok", lines.join("\n")))
}

#[test]
fn heredoc_missing_terminator_at_eof_never_executes() {
    let handle = serve(ServerConfig::default()).expect("bind");
    let addr = handle.addr();

    // A raw connection that opens a heredoc and closes before the
    // terminator: the half-received command must not run.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        raw.write_all(b"session new frag\n").unwrap();
        assert!(read_reply(&mut reader).unwrap().0);
        raw.write_all(b"load er half <<EOF\nentity Broken {\n")
            .unwrap();
        raw.flush().unwrap();
        // Drop: EOF before the heredoc terminator.
    }

    let mut c = Client::connect(addr).unwrap();
    c.session_attach("frag").unwrap();
    let export = c.request("export").unwrap().expect_ok().unwrap();
    assert!(
        !export.contains("half"),
        "partial heredoc executed: {export}"
    );
    c.shutdown().unwrap();
    handle.join();
}

#[test]
fn heredoc_terminator_with_trailing_whitespace_terminates() {
    let handle = serve(ServerConfig::default()).expect("bind");
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    raw.write_all(b"session new ws\n").unwrap();
    assert!(read_reply(&mut reader).unwrap().0);
    raw.write_all(b"load er padded <<EOF\nentity P { f : text }\nEOF   \n")
        .unwrap();
    raw.flush().unwrap();
    let (ok, body) = read_reply(&mut reader).unwrap();
    assert!(ok, "{body}");
    assert!(body.contains("loaded padded"), "{body}");
    raw.write_all(b"shutdown\n").unwrap();
    assert!(read_reply(&mut reader).unwrap().0);
    handle.join();
}

#[test]
fn heredoc_with_empty_body_loads() {
    let handle = serve(ServerConfig::default()).expect("bind");
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    raw.write_all(b"session new empty\n").unwrap();
    assert!(read_reply(&mut reader).unwrap().0);
    raw.write_all(b"load er nothing <<EOF\nEOF\n").unwrap();
    raw.flush().unwrap();
    let (ok, body) = read_reply(&mut reader).unwrap();
    assert!(ok, "{body}");
    assert!(body.contains("loaded nothing"), "{body}");
    raw.write_all(b"shutdown\n").unwrap();
    assert!(read_reply(&mut reader).unwrap().0);
    handle.join();
}

#[test]
fn oversized_lines_and_heredocs_get_a_clean_protocol_error() {
    let handle = serve(ServerConfig {
        max_line_bytes: 128,
        max_heredoc_bytes: 256,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();

    // An oversized command line: one error reply, then the connection
    // closes (it cannot be resynchronized).
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let long = format!("load er big {}\n", "x".repeat(4096));
        raw.write_all(long.as_bytes()).unwrap();
        raw.flush().unwrap();
        let (ok, body) = read_reply(&mut reader).unwrap();
        assert!(!ok);
        assert!(body.contains("line exceeds 128 bytes"), "{body}");
        assert!(read_reply(&mut reader).is_none(), "connection should close");
    }

    // An oversized heredoc body: same contract.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        raw.write_all(b"session new fat\n").unwrap();
        assert!(read_reply(&mut reader).unwrap().0);
        raw.write_all(b"load er blob <<EOF\n").unwrap();
        // Write exactly enough body to trip the 256-byte cap (6 x 50-byte
        // lines = 300) and nothing after it: the server replies and closes
        // as soon as the cap is exceeded, and any bytes still unread (or
        // still being written) at that point would turn the close into an
        // RST that races with — and can discard — the error reply.
        for _ in 0..6 {
            raw.write_all(b"entity Filler { ffffffffffffffffffffffff : text }\n")
                .unwrap();
        }
        raw.flush().unwrap();
        let (ok, body) = read_reply(&mut reader).unwrap();
        assert!(!ok);
        assert!(body.contains("heredoc exceeds 256 bytes"), "{body}");
        assert!(read_reply(&mut reader).is_none(), "connection should close");
    }

    let mut c = Client::connect(addr).unwrap();
    c.shutdown().unwrap();
    handle.join();
}

#[test]
fn session_cap_rejects_with_a_protocol_error() {
    let handle = serve(ServerConfig {
        max_sessions: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();

    let mut c = Client::connect(addr).unwrap();
    c.session_new(Some("one")).unwrap();
    c.session_new(Some("two")).unwrap();
    let third = c.request("session new three").unwrap();
    assert!(!third.ok);
    assert!(third.body.contains("cap"), "{}", third.body);

    c.shutdown().unwrap();
    handle.join();
}
