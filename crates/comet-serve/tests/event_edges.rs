//! Partial-I/O edges of the epoll event loop, driven through a real
//! [`Server`] listener: requests arriving in adversarial fragments
//! (headers cut mid-token, bodies dribbled a byte at a time), slow
//! writers stalling mid-body, size-cap rejections fed in chunks, a
//! client that refuses to read while hundreds of pipelined responses
//! back up the socket, and a graceful drain with a request in flight
//! on a keep-alive connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use comet_serve::{ModelKind, ServeConfig, Server};

mod common;
use common::read_response;

const PREDICT_REQUEST: &str = "POST /v1/predict HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
     Content-Length: 25\r\n\r\n{\"v\":1,\"block\":\"div rcx\"}";
const PREDICT_GOLDEN: &str = r#"{"v":1,"model":"C_HSW","model_version":1,"prediction":25.0}"#;

fn start(config_tweak: impl FnOnce(&mut ServeConfig)) -> Server {
    let mut config = ServeConfig { addr: "127.0.0.1:0".into(), workers: 2, ..Default::default() };
    config_tweak(&mut config);
    Server::start(ModelKind::CrudeHaswell, config).expect("bind loopback")
}

/// Deterministic split-point generator (splitmix64 core).
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn fuzzed_split_reads_always_reassemble() {
    let server = start(|_| {});
    let addr = server.addr();
    let bytes = PREDICT_REQUEST.as_bytes();
    // 32 seeds × random fragmentation, including splits inside the
    // request line, inside header names, and inside the body. Every
    // fragmentation must produce the identical golden response.
    for seed in 0..32u64 {
        let mut state = seed;
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut sent = 0usize;
        while sent < bytes.len() {
            let chunk = 1 + (next_rand(&mut state) as usize) % 7;
            let end = (sent + chunk).min(bytes.len());
            stream.write_all(&bytes[sent..end]).expect("write fragment");
            sent = end;
            // A flush boundary between fragments forces distinct
            // readiness events instead of one coalesced read.
            if next_rand(&mut state).is_multiple_of(3) {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        let (status, body) = read_response(&stream);
        assert_eq!(status, 200, "seed {seed}");
        assert_eq!(body, PREDICT_GOLDEN, "seed {seed}");
    }
    server.shutdown();
}

#[test]
fn body_dribbled_a_byte_at_a_time_is_reassembled() {
    let server = start(|_| {});
    let addr = server.addr();
    let (head, body) = PREDICT_REQUEST.split_once("\r\n\r\n").unwrap();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(b"\r\n\r\n").unwrap();
    for &byte in body.as_bytes() {
        stream.write_all(&[byte]).unwrap();
        std::thread::sleep(Duration::from_micros(100));
    }
    let (status, answer) = read_response(&stream);
    assert_eq!(status, 200);
    assert_eq!(answer, PREDICT_GOLDEN);
    server.shutdown();
}

#[test]
fn stalled_body_is_timed_out_with_408() {
    let server = start(|config| config.idle_timeout_ms = 100);
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // Complete headers, then stall with half the declared body sent —
    // a slow loris that got further than the header stage.
    let (head, body) = PREDICT_REQUEST.split_once("\r\n\r\n").unwrap();
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(b"\r\n\r\n").unwrap();
    stream.write_all(&body.as_bytes()[..body.len() / 2]).unwrap();
    let (status, answer) = read_response(&stream);
    assert_eq!(status, 408);
    assert!(answer.contains("timed out"), "{answer}");
    server.shutdown();
}

#[test]
fn size_caps_reject_chunked_oversends_cleanly() {
    let server = start(|_| {});
    let addr = server.addr();

    // 413: the declared body exceeds MAX_BODY. Sent split mid-header
    // so the cap check itself runs on reassembled fragments.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.set_nodelay(true).unwrap();
    let oversized = format!(
        "POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        2 * 1024 * 1024
    );
    let (a, b) = oversized.split_at(oversized.len() / 2);
    stream.write_all(a.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(5));
    stream.write_all(b.as_bytes()).unwrap();
    let (status, _) = read_response(&stream);
    assert_eq!(status, 413);

    // 431: a single header line past MAX_LINE, dribbled in 1 KiB
    // chunks — the rejection must land mid-stream, while the client
    // is still sending.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(b"GET /healthz HTTP/1.1\r\nX-Flood: ").unwrap();
    let chunk = [b'a'; 1024];
    for _ in 0..16 {
        if stream.write_all(&chunk).is_err() {
            break; // server already rejected and closed — fine
        }
    }
    let (status, _) = read_response(&stream);
    assert_eq!(status, 431);

    server.shutdown();
}

#[test]
fn pipelined_responses_survive_a_client_that_reads_late() {
    let server = start(|_| {});
    let addr = server.addr();
    // Several hundred pipelined requests whose responses the client
    // refuses to read until the end: the response bytes back up the
    // socket until the kernel buffer fills, forcing the reactor
    // through its partial-write (EPOLLOUT continuation) path.
    const N: usize = 800;
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let one = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    let mut all = String::new();
    for _ in 0..N {
        all.push_str(one);
    }
    stream.write_all(all.as_bytes()).unwrap();
    // Let responses accumulate server-side before the first read.
    std::thread::sleep(Duration::from_millis(300));
    let mut reader = BufReader::new(&stream);
    for i in 0..N {
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap_or_else(|e| panic!("response {i}: {e}"));
        let status: u16 = status_line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert_eq!(status, 200, "response {i}");
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("header");
            if line.trim_end().is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("body");
        assert!(body.starts_with(b"{\"v\":1,\"ok\":true"), "response {i}");
    }
    server.shutdown();
}

#[test]
fn drain_answers_in_flight_keepalive_request_with_draining_readyz() {
    // Default idle timeout (request deadline bounds the drain); one
    // keep-alive connection with a request half-sent at cancel time.
    let server = start(|_| {});
    let addr = server.addr();
    let cancel = server.ctx().cancel_token().clone();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.set_nodelay(true).unwrap();

    // A completed request keeps the connection in keep-alive.
    stream
        .write_all(
            b"POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Length: 25\r\n\r\n\
              {\"v\":1,\"block\":\"div rcx\"}",
        )
        .unwrap();
    let (status, body) = read_response(&stream);
    assert_eq!(status, 200);
    assert_eq!(body, PREDICT_GOLDEN);

    // Start the next request but stop mid-headers, then begin a drain.
    stream.write_all(b"GET /readyz HTTP/1.1\r\nHost: t\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(50));
    cancel.cancel();
    let joiner = std::thread::spawn(move || server.join());

    // Give the reactor time to notice the drain (it must NOT reap this
    // connection: the request has started), then finish the request.
    std::thread::sleep(Duration::from_millis(200));
    stream.write_all(b"\r\n").unwrap();

    // The in-flight request is answered — 503 with the draining
    // reason, not a dropped connection or an overload shed.
    let (status, body) = read_response(&stream);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("draining"), "{body}");

    // After that answer the connection closes (drain) ...
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "connection must close after the drain response");

    // ... and the whole server drains promptly.
    let start = Instant::now();
    joiner.join().expect("join");
    assert!(start.elapsed() < Duration::from_secs(10), "drain hung");

    // New connections are refused or dead — the listener is gone.
    if let Ok(mut late) = TcpStream::connect(addr) {
        late.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let _ = late.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        let mut sink = Vec::new();
        assert_eq!(late.read_to_end(&mut sink).unwrap_or(0), 0);
    }
}
