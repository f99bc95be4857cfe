//! The line protocol `workbenchd` and `workbench-router` share: a
//! router frames every request exactly as a backend does, at the same
//! bounds, and both answer `stats` in one parseable format. Both
//! binaries run one blocking accept loop: a fresh connection is served
//! at once, and every way of stopping either binary wakes it.

use iwb_router::router::{serve as serve_router, RouterConfig, RouterCounter};
use iwb_server::client::Client;
use iwb_server::server::{serve, ServerConfig, MAX_HEREDOC_BYTES, MAX_LINE_BYTES};
use iwb_server::stats::{Counter, ServerCounter};
use iwb_store::fault::{FaultSpec, EXEC_PANIC};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const SCHEMA: &str = "entity A { x : text }";

/// Framed replies, in order: `(ok, body)`.
type Replies = Vec<(bool, String)>;

/// Read one framed reply; `None` once the peer has closed.
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

/// Send `input` on a fresh connection and collect every reply until
/// the peer closes the connection.
fn exchange(addr: SocketAddr, input: &[u8]) -> Replies {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(input).unwrap();
    let mut reader = BufReader::new(stream);
    std::iter::from_fn(|| read_reply(&mut reader)).collect()
}

/// A heredoc `load` whose body is exactly `MAX_HEREDOC_BYTES` long.
fn heredoc_at_the_bound() -> String {
    let line = format!("{}\n", "a".repeat(63));
    format!(
        "load er blob <<EOF\n{}",
        line.repeat(MAX_HEREDOC_BYTES / line.len())
    )
}

#[test]
fn a_router_frames_requests_like_a_backend_at_the_same_bounds() {
    let backend = serve(ServerConfig::default()).unwrap();
    let router = serve_router(RouterConfig {
        backends: vec![backend.addr().to_string()],
        ..RouterConfig::default()
    })
    .unwrap();
    let err = |body: &str| vec![(false, body.to_owned())];
    // Every case writes nothing past the byte that trips a bound, so
    // the close that follows the error is clean, never a reset.
    let cases: Vec<(Vec<u8>, Replies)> = vec![
        (
            b"\n  \r\n# a comment\nping\nquit\n".to_vec(),
            vec![
                (true, String::new()),
                (true, String::new()),
                (true, String::new()),
                (true, "pong".to_owned()),
                (true, "bye".to_owned()),
            ],
        ),
        (
            "x".repeat(MAX_LINE_BYTES + 1).into_bytes(),
            err(&format!(
                "protocol error: line exceeds {MAX_LINE_BYTES} bytes; closing connection"
            )),
        ),
        (
            format!("{}EOF\nquit\n", heredoc_at_the_bound()).into_bytes(),
            vec![
                (false, "no session attached (use: session new)".to_owned()),
                (true, "bye".to_owned()),
            ],
        ),
        (
            format!("{}x\n", heredoc_at_the_bound()).into_bytes(),
            err(&format!(
                "protocol error: heredoc exceeds {MAX_HEREDOC_BYTES} bytes; closing connection"
            )),
        ),
    ];
    for (input, expected) in &cases {
        let head = String::from_utf8_lossy(&input[..input.len().min(24)]);
        assert_eq!(
            &exchange(backend.addr(), input),
            expected,
            "backend: {head:?}"
        );
        assert_eq!(
            &exchange(router.addr(), input),
            expected,
            "router: {head:?}"
        );
    }
    router.shutdown();
    router.join();
    backend.shutdown();
    backend.join();
}

/// Parse a `stats` body into `<scope>.<key> → value`, asserting the
/// format: every line is one scope word followed only by `key=value`
/// tokens, and no field appears twice.
fn parse_stats(body: &str) -> HashMap<String, String> {
    let mut fields = HashMap::new();
    for line in body.lines() {
        let mut tokens = line.split_whitespace();
        let scope = tokens.next().unwrap_or_default();
        assert!(
            !scope.is_empty() && !scope.contains('='),
            "{line:?} does not start with a scope word"
        );
        let mut keys = 0;
        for token in tokens {
            let (key, value) = token
                .split_once('=')
                .unwrap_or_else(|| panic!("bare token {token:?} in {line:?}"));
            assert!(!key.is_empty() && !value.is_empty(), "{line:?}");
            let name = format!("{scope}.{key}");
            assert!(
                fields.insert(name, value.to_owned()).is_none(),
                "{scope}.{key} appears twice"
            );
            keys += 1;
        }
        assert!(keys > 0, "{line:?} has no fields");
    }
    fields
}

#[test]
fn both_binaries_answer_stats_in_one_format() {
    iwb_server::quiet_injected_panics();
    // A backend whose first shell command panics and that sheds every
    // connection past the one being served.
    let backend = serve(ServerConfig {
        faults: FaultSpec::seeded(1).at(EXEC_PANIC, &[0]).build(),
        max_pending: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(backend.addr()).unwrap();
    c.session_new(Some("s")).unwrap();
    assert!(!c.request("show coverage").unwrap().ok, "the panic fired");
    c.request_with_heredoc("load er a", SCHEMA)
        .unwrap()
        .expect_ok()
        .unwrap();
    let shed = Client::connect(backend.addr())
        .unwrap()
        .request("ping")
        .unwrap();
    assert!(shed.body.starts_with("RETRY-AFTER "), "{}", shed.body);
    let fields = parse_stats(&c.stats().unwrap());
    for (counter, scope, key) in ServerCounter::TABLE {
        let value = backend.stats().counters.get(counter);
        assert_eq!(
            fields[&format!("{scope}.{key}")],
            value.to_string(),
            "{scope}.{key}"
        );
    }
    assert_eq!(fields["faults.panics_caught"], "1");
    assert_eq!(fields["budget.shed"], "1");
    assert_eq!(fields["cmd.load.count"], "1");
    assert_eq!(fields["cmd.show.errors"], "1");
    assert!(fields.contains_key("server.uptime_s"));
    assert!(fields.contains_key("store.snapshots_committed"));
    drop(c);
    backend.shutdown();
    backend.join();

    // A router whose only backend dies under an attached session: the
    // session fails over, with nowhere to go.
    let owner = serve(ServerConfig::default()).unwrap();
    let router = serve_router(RouterConfig {
        backends: vec![owner.addr().to_string()],
        ..RouterConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(router.addr()).unwrap();
    c.session_new(Some("f")).unwrap();
    c.request_with_heredoc("load er a", SCHEMA)
        .unwrap()
        .expect_ok()
        .unwrap();
    owner.kill();
    assert!(
        !c.request("show coverage").unwrap().ok,
        "no backend is left"
    );
    // The prober keeps counting while `stats` renders, so each value
    // must fall between the typed getters read before and after.
    let read = || RouterCounter::TABLE.map(|(counter, ..)| router.stats().counters.get(counter));
    let before = read();
    let fields = parse_stats(&c.stats().unwrap());
    let after = read();
    for (i, (_, scope, key)) in RouterCounter::TABLE.into_iter().enumerate() {
        let value: u64 = fields[&format!("{scope}.{key}")].parse().unwrap();
        assert!(
            (before[i]..=after[i]).contains(&value),
            "{scope}.{key}={value}, getters read {} then {}",
            before[i],
            after[i]
        );
    }
    assert_eq!(fields["routes.failovers"], "1");
    assert_eq!(
        fields["routes.failovers"],
        router.stats().failovers_count().to_string()
    );
    assert_eq!(
        fields["routes.promotions"],
        router.stats().promotions_count().to_string()
    );
    assert_eq!(fields["backend.0.healthy"], "false");
    router.shutdown();
    router.join();
}

/// Open `n` fresh connections to `addr` one after another, each sending
/// `ping`; the time until the last reply.
fn ping_on_fresh_connections(addr: SocketAddr, n: usize) -> Duration {
    let started = Instant::now();
    for _ in 0..n {
        let mut c = Client::connect(addr).unwrap();
        assert_eq!(c.request("ping").unwrap().body, "pong");
    }
    started.elapsed()
}

#[test]
fn opening_a_connection_costs_no_accept_tick() {
    let backend = serve(ServerConfig::default()).unwrap();
    let router = serve_router(RouterConfig {
        backends: vec![backend.addr().to_string()],
        ..RouterConfig::default()
    })
    .unwrap();
    for (binary, addr) in [("backend", backend.addr()), ("router", router.addr())] {
        let took = ping_on_fresh_connections(addr, 20);
        assert!(
            took < Duration::from_millis(100),
            "{binary}: 20 fresh connections took {took:?}; an accept poll would add a tick to each"
        );
    }
    router.shutdown();
    router.join();
    backend.shutdown();
    backend.join();
}

/// Run `stop` and assert it returned within a second.
fn within_a_second(what: &str, stop: impl FnOnce()) {
    let started = Instant::now();
    stop();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "{what} took {took:?}");
}

#[test]
fn every_way_of_stopping_wakes_the_blocked_accept() {
    let backend = serve(ServerConfig::default()).unwrap();
    within_a_second("ServerHandle::shutdown then join", || {
        backend.shutdown();
        backend.join();
    });

    // A restart binds the killed backend's address at once.
    let backend = serve(ServerConfig::default()).unwrap();
    let addr = backend.addr();
    let mut restarted = None;
    within_a_second("kill then serve on the same address", || {
        backend.kill();
        assert!(
            TcpStream::connect(addr).is_err(),
            "a killed backend refuses dials"
        );
        restarted = Some(
            serve(ServerConfig {
                addr: addr.to_string(),
                ..ServerConfig::default()
            })
            .expect("the killed backend's listener is closed"),
        );
    });
    let backend = restarted.unwrap();

    let router = serve_router(RouterConfig {
        backends: vec![backend.addr().to_string()],
        ..RouterConfig::default()
    })
    .unwrap();
    within_a_second("the router's `shutdown` command then join", || {
        let reply = Client::connect(router.addr()).unwrap().shutdown().unwrap();
        assert!(reply.ok, "{}", reply.body);
        router.join();
    });
    within_a_second("the backend's `shutdown` command then join", || {
        let reply = Client::connect(backend.addr()).unwrap().shutdown().unwrap();
        assert!(reply.ok, "{}", reply.body);
        backend.join();
    });

    let backend = serve(ServerConfig::default()).unwrap();
    let router = serve_router(RouterConfig {
        backends: vec![backend.addr().to_string()],
        ..RouterConfig::default()
    })
    .unwrap();
    within_a_second("RouterHandle::shutdown then join", || {
        router.shutdown();
        router.join();
    });
    backend.shutdown();
    backend.join();

    // An unspecified bind address is woken through loopback.
    let any = serve(ServerConfig {
        addr: "0.0.0.0:0".to_owned(),
        ..ServerConfig::default()
    })
    .unwrap();
    within_a_second("shutdown then join of a backend bound to 0.0.0.0:0", || {
        any.shutdown();
        any.join();
    });
}
