//! Host-speed probes that use no workbench code: a fixed integer loop
//! (CPU speed) and a loopback TCP ping-pong between two threads (the
//! syscall and wake-up cost every fleet hop pays).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Host speed at one point in time.
#[derive(Debug, Clone, Copy)]
pub struct HostSpeed {
    /// Median time of one fixed spin, µs.
    pub spin_us: f64,
    /// Median loopback round trip, µs.
    pub pingpong_us: f64,
}

const SPIN_ITERATIONS: u64 = 400_000;

fn spin() -> u64 {
    let mut x = 1u64;
    for i in 0..std::hint::black_box(SPIN_ITERATIONS) {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    x
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Probe for about `budget`, half spinning, half ping-ponging.
pub fn measure(budget: Duration) -> std::io::Result<HostSpeed> {
    let half = budget / 2;
    let started = Instant::now();
    let mut spins = Vec::new();
    while started.elapsed() < half || spins.len() < 5 {
        let t = Instant::now();
        std::hint::black_box(spin());
        spins.push(t.elapsed().as_secs_f64() * 1e6);
    }

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut b = [0u8; 1];
        while s.read(&mut b)? == 1 {
            s.write_all(&b)?;
        }
        Ok(())
    });
    let mut c = TcpStream::connect(addr)?;
    c.set_nodelay(true)?;
    let mut rtts = Vec::new();
    let mut b = [7u8; 1];
    let started = Instant::now();
    while started.elapsed() < half || rtts.len() < 100 {
        let t = Instant::now();
        c.write_all(&b)?;
        c.read_exact(&mut b)?;
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(c);
    echo.join()
        .map_err(|_| std::io::Error::other("echo thread panicked"))??;
    Ok(HostSpeed {
        spin_us: median(spins),
        pingpong_us: median(rtts),
    })
}
