//! The c10k gate: one in-process [`Server`] holds 10,000 keep-alive
//! connections open while predict load sweeps across every one of
//! them, so each connection both exists (fd and slab pressure on the
//! reactor) and carries requests. Every connection must connect, stay
//! open and answer 200 or 503 (shed) on every request; a transport
//! failure or any other status fails the gate, and so does a sweep
//! with no 200 at all.
//!
//! Ignored by default because it needs release optimisation and 20k
//! file descriptors:
//!
//! ```text
//! cargo test --release -p comet-serve --test c10k -- --ignored --nocapture
//! ```

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

use comet_serve::{ModelKind, ServeConfig, Server};

mod common;
use common::read_response;

const CONNECTIONS: usize = 10_000;
/// Connector threads, then sweep threads. Connecting 10k sockets from
/// one thread on a busy small host can take long enough for the first
/// connections to sit idle past any reasonable reaper.
const THREADS: usize = 8;
const SWEEP: Duration = Duration::from_secs(3);

/// Small, medium and port-pressure shapes, so the prediction cache sees
/// repetition but not a single key.
const BLOCKS: [&str; 4] = [
    "add rcx, rax\nmov rdx, rcx\npop rbx",
    "mov ecx, edx\nxor edx, edx\nlea rax, [rcx + rax - 1]\ndiv rcx\nmov rdx, rcx\nimul rax, rcx",
    "div rcx",
    "imul rax, rcx\nadd rcx, rax\nnop",
];

fn keepalive_predict(block: &str) -> Vec<u8> {
    let body = serde_json::json!({"v": 1, "block": block}).to_string();
    format!("POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}", body.len())
        .into_bytes()
}

#[test]
#[ignore = "release-only load gate; run with --ignored"]
fn ten_thousand_keepalive_connections_are_held_and_served() {
    // Both ends of every loopback connection live in this process, so
    // each costs two fds; clamp to the budget rather than die on EMFILE.
    let limit = comet_serve::sys::raise_nofile_limit(2 * CONNECTIONS as u64 + 2_048);
    let target = CONNECTIONS.min(((limit.saturating_sub(1_024) / 2) as usize).max(64));
    if target < CONNECTIONS {
        println!(
            "c10k: fd limit {limit} caps the gate at {target} connections \
             (asked for {CONNECTIONS})"
        );
    }
    // The gate is about holding and serving connections, not the idle
    // reaper: give it a budget well past the connect storm.
    let server = Server::start(
        ModelKind::CrudeHaswell,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            idle_timeout_ms: 60_000,
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();

    // A connect that takes 0.9 s or more lost its SYN to a full listen
    // backlog and waited for the retransmit.
    let slow_connects = AtomicUsize::new(0);
    let connect_start = Instant::now();
    let conns: Vec<TcpStream> = std::thread::scope(|scope| {
        let connectors: Vec<_> = (0..THREADS)
            .map(|part| {
                let quota = target / THREADS + usize::from(part < target % THREADS);
                let slow_connects = &slow_connects;
                scope.spawn(move || {
                    (0..quota)
                        .map(|_| {
                            let start = Instant::now();
                            let stream = TcpStream::connect(addr).expect("connect");
                            if start.elapsed() >= Duration::from_millis(900) {
                                slow_connects.fetch_add(1, Relaxed);
                            }
                            stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                            stream.set_nodelay(true).unwrap();
                            stream
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        connectors.into_iter().flat_map(|c| c.join().unwrap()).collect()
    });
    let connect_secs = connect_start.elapsed().as_secs_f64();
    assert_eq!(conns.len(), target, "every connection must connect");

    let requests: Vec<Vec<u8>> = BLOCKS.iter().map(|block| keepalive_predict(block)).collect();
    let stop = AtomicBool::new(false);
    let chunk = conns.len().div_ceil(THREADS);
    let (ok, shed) = std::thread::scope(|scope| {
        let sweepers: Vec<_> = conns
            .chunks(chunk)
            .enumerate()
            .map(|(part, mine)| {
                let (stop, requests) = (&stop, &requests);
                scope.spawn(move || {
                    let (mut ok, mut shed) = (0u64, 0u64);
                    'sweep: for round in 0usize.. {
                        for (i, mut conn) in mine.iter().enumerate() {
                            if stop.load(Relaxed) {
                                break 'sweep;
                            }
                            let request = &requests[(part * chunk + i + round) % requests.len()];
                            conn.write_all(request).expect("write predict");
                            match read_response(conn).0 {
                                200 => ok += 1,
                                503 => shed += 1,
                                status => panic!("predict answered {status}"),
                            }
                        }
                    }
                    (ok, shed)
                })
            })
            .collect();
        std::thread::sleep(SWEEP);
        stop.store(true, Relaxed);
        sweepers.into_iter().map(|s| s.join().unwrap()).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    });
    println!(
        "c10k: {target} connections held (connected in {connect_secs:.1}s, {} of them \
         after 0.9 s or more); {SWEEP:?} sweep: {ok} ok, {shed} shed",
        slow_connects.into_inner()
    );
    assert!(ok > 0, "no predict succeeded across {target} connections");

    drop(conns);
    server.shutdown();
}
