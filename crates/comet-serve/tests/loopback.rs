//! Full-service integration tests over real loopback sockets: every
//! endpoint, single-flight coalescing, queue-full shedding, and
//! graceful drain, all against an in-process [`Server`] on port 0.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use comet_isa::{BasicBlock, Microarch};
use comet_models::{CostModel, CrudeModel, ModelError};
use comet_serve::server::BoxedModel;
use comet_serve::{ModelKind, ServeConfig, Server};
use serde_json::Value;

mod common;
use common::{get, one_shot, post, read_response, wait_for};

/// A model whose queries block until the test releases a gate. Lets a
/// test pin a worker inside an explain search at a known point, which
/// makes coalescing and shedding assertions deterministic instead of
/// sleep-based.
#[derive(Clone)]
struct GatedModel {
    inner: CrudeModel,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl GatedModel {
    fn new() -> (GatedModel, Arc<(Mutex<bool>, Condvar)>) {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        (GatedModel { inner: CrudeModel::new(Microarch::Haswell), gate: Arc::clone(&gate) }, gate)
    }

    fn release(gate: &(Mutex<bool>, Condvar)) {
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
    }
}

impl CostModel for GatedModel {
    fn name(&self) -> &str {
        "gated-crude"
    }

    fn predict(&self, block: &BasicBlock) -> f64 {
        let mut open = self.gate.0.lock().unwrap();
        while !*open {
            open = self.gate.1.wait(open).unwrap();
        }
        drop(open);
        self.inner.predict(block)
    }

    fn try_predict(&self, block: &BasicBlock) -> Result<f64, ModelError> {
        let mut open = self.gate.0.lock().unwrap();
        while !*open {
            open = self.gate.1.wait(open).unwrap();
        }
        drop(open);
        self.inner.try_predict(block)
    }
}

fn start_crude(workers: usize, queue_depth: usize) -> Server {
    Server::start(
        ModelKind::CrudeHaswell,
        ServeConfig { addr: "127.0.0.1:0".into(), workers, queue_depth, ..ServeConfig::default() },
    )
    .expect("bind loopback")
}

#[test]
fn healthz_and_metrics_respond() {
    let server = start_crude(2, 8);
    let addr = server.addr();

    let (status, body) = one_shot(addr, &get("/healthz"));
    assert_eq!(status, 200);
    let health: Value = serde_json::from_str(&body).expect("healthz is json");
    assert_eq!(health["v"].as_u64(), Some(1));
    assert_eq!(health["ok"].as_bool(), Some(true));

    let (status, body) = one_shot(addr, &get("/metrics"));
    assert_eq!(status, 200);
    assert!(body.contains("comet_requests_total"), "{body}");
    assert!(body.contains("comet_queue_depth"), "{body}");
    assert!(body.contains("comet_cache_hit_rate"), "{body}");

    server.shutdown();
}

#[test]
fn predict_returns_a_prediction_and_rejects_bad_requests() {
    let server = start_crude(2, 8);
    let addr = server.addr();

    let (status, body) =
        one_shot(addr, &post("/v1/predict", r#"{"v":1,"block":"add rcx, rax\nnop"}"#));
    assert_eq!(status, 200, "{body}");
    let resp: Value = serde_json::from_str(&body).unwrap();
    assert!(resp["prediction"].as_f64().unwrap() > 0.0);

    // Unknown field → 400, not silently ignored.
    let (status, body) =
        one_shot(addr, &post("/v1/predict", r#"{"v":1,"block":"nop","blocc":"typo"}"#));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("blocc"), "{body}");

    // Wrong wire version → 400.
    let (status, body) = one_shot(addr, &post("/v1/predict", r#"{"v":9,"block":"nop"}"#));
    assert_eq!(status, 400, "{body}");

    // Unparseable block → 400.
    let (status, _) = one_shot(addr, &post("/v1/predict", r#"{"v":1,"block":"frobnicate qx"}"#));
    assert_eq!(status, 400);

    // Unknown path → 404; wrong method → 400.
    let (status, _) = one_shot(addr, &get("/v2/predict"));
    assert_eq!(status, 404);
    let (status, _) = one_shot(addr, &get("/v1/predict"));
    assert_eq!(status, 400);

    server.shutdown();
}

#[test]
fn explain_returns_an_explanation() {
    let server = start_crude(2, 8);
    let addr = server.addr();

    let (status, body) = one_shot(
        addr,
        &post("/v1/explain", r#"{"v":1,"block":"add rcx, rax\nmov rdx, rcx","seed":7}"#),
    );
    assert_eq!(status, 200, "{body}");
    let resp: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(resp["v"].as_u64(), Some(1));
    assert_eq!(resp["seed"].as_u64(), Some(7));
    assert_eq!(resp["coalesced"].as_bool(), Some(false));
    assert!(resp["explanation"]["queries"].as_u64().unwrap() > 0);
    assert!(resp["explanation"]["precision"].as_f64().is_some());

    server.shutdown();
}

#[test]
fn explain_runs_on_the_batch_path_and_reports_it() {
    let server = start_crude(2, 8);
    let addr = server.addr();

    let (status, _) = one_shot(
        addr,
        &post("/v1/explain", r#"{"v":1,"block":"add rcx, rax\nmov rdx, rcx","seed":3}"#),
    );
    assert_eq!(status, 200);

    // The search must actually have gone through predict_batch — the
    // registry only counts queries routed via BatchExec.
    let metrics = server.ctx().metrics();
    let batched = metrics.queries_batched_total();
    assert!(batched > 0, "explain search reported no batched queries");
    // The search's queries bypass the prediction cache.
    let cache = server.ctx().cache_stats();
    assert_eq!(cache.total, 0, "{batched} batched queries, cache saw {cache:?}");
    let occupancy = metrics.batch_occupancy(comet_serve::Endpoint::Explain);
    assert!(
        occupancy > 0.0 && occupancy <= 1.0,
        "explain batch occupancy out of range: {occupancy}"
    );

    // And the same numbers surface on the Prometheus endpoint.
    let (status, body) = one_shot(addr, &get("/metrics"));
    assert_eq!(status, 200);
    assert!(
        body.contains(&format!("comet_queries_batched_total{{endpoint=\"explain\"}} {batched}")),
        "{body}"
    );
    assert!(body.contains("comet_batch_occupancy{endpoint=\"explain\"}"), "{body}");

    server.shutdown();
}

#[test]
fn identical_concurrent_explains_coalesce_onto_one_search() {
    let (model, gate) = GatedModel::new();
    let server = Server::start_with_model(
        Box::new(model) as BoxedModel,
        "gated".into(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 8,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    let ctx = Arc::clone(server.ctx());

    const N: usize = 3;
    let request = post("/v1/explain", r#"{"v":1,"block":"add rcx, rax","seed":42}"#);
    let clients: Vec<_> = (0..N)
        .map(|_| {
            let request = request.clone();
            std::thread::spawn(move || one_shot(addr, &request))
        })
        .collect();

    // The leader is parked inside the search (on the gate); the other
    // two must register as coalesced followers before we let it finish.
    wait_for("leader to start its search", || ctx.metrics().search_count() == 1);
    wait_for("followers to coalesce", || ctx.metrics().coalesced_count() == (N - 1) as u64);
    GatedModel::release(&gate);

    let mut coalesced_flags = Vec::new();
    for client in clients {
        let (status, body) = client.join().expect("client thread");
        assert_eq!(status, 200, "{body}");
        let resp: Value = serde_json::from_str(&body).unwrap();
        coalesced_flags.push(resp["coalesced"].as_bool().unwrap());
    }
    assert_eq!(ctx.metrics().search_count(), 1, "exactly one underlying search");
    assert_eq!(ctx.metrics().coalesced_count(), (N - 1) as u64);
    assert_eq!(coalesced_flags.iter().filter(|&&c| !c).count(), 1, "one leader");
    assert_eq!(coalesced_flags.iter().filter(|&&c| c).count(), N - 1, "rest coalesced");

    // A later identical request runs its own (new) search.
    let (status, body) = one_shot(addr, &request);
    assert_eq!(status, 200, "{body}");
    assert_eq!(ctx.metrics().search_count(), 2);

    server.shutdown();
}

#[test]
fn queue_overflow_is_shed_with_503() {
    let (model, gate) = GatedModel::new();
    let server = Server::start_with_model(
        Box::new(model) as BoxedModel,
        "gated".into(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_depth: 1,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    let ctx = Arc::clone(server.ctx());

    // Occupy the only worker: an explain parked on the gate.
    let blocker = {
        let request = post("/v1/explain", r#"{"v":1,"block":"div rcx","seed":1}"#);
        std::thread::spawn(move || one_shot(addr, &request))
    };
    wait_for("worker to enter the search", || ctx.metrics().search_count() == 1);

    // Fill the queue's single slot with a second connection.
    let mut queued = TcpStream::connect(addr).expect("connect queued");
    queued.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    queued.write_all(get("/healthz").as_bytes()).unwrap();
    wait_for("connection to queue", || {
        ctx.metrics().render_prometheus(&ctx.cache_stats(), &[]).contains("\ncomet_queue_depth 1")
    });

    // The next connection must be shed immediately — worker busy,
    // queue full.
    let (status, body) = one_shot(addr, &get("/healthz"));
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("overloaded"), "{body}");
    assert!(ctx.metrics().shed_count() >= 1);

    // Release the gate: the blocked explain and the queued request both
    // complete — shedding rejected new work, it never dropped accepted
    // work.
    GatedModel::release(&gate);
    let (status, _) = blocker.join().expect("blocker thread");
    assert_eq!(status, 200);
    let (status, body) = read_response(&queued);
    assert_eq!(status, 200, "{body}");

    server.shutdown();
}

/// Write raw bytes (optionally half-closing the write side, which is
/// how a client truncates a request mid-body) and return everything the
/// server sends back, verbatim.
fn one_shot_bytes(addr: SocketAddr, raw: &[u8], truncate: bool) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(raw).expect("write request");
    if truncate {
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    String::from_utf8_lossy(&buf).into_owned()
}

#[test]
fn metrics_expose_cache_counters() {
    let server = start_crude(2, 8);
    let addr = server.addr();

    // Two identical predicts: the second must be answered by the
    // shared query cache.
    for _ in 0..2 {
        let (status, body) =
            one_shot(addr, &post("/v1/predict", r#"{"v":1,"block":"add rcx, rax"}"#));
        assert_eq!(status, 200, "{body}");
    }
    let stats = server.ctx().cache_stats();
    assert!(stats.hits >= 1, "repeat predict did not hit the cache: {stats:?}");
    assert!(stats.total >= 2, "cache saw too few queries: {stats:?}");

    // And the counters surface on /metrics with exactly those values.
    let (status, text) = one_shot(addr, &get("/metrics"));
    assert_eq!(status, 200);
    assert!(text.contains(&format!("comet_cache_queries_total {}", stats.total)), "{text}");
    assert!(text.contains(&format!("comet_cache_hits_total {}", stats.hits)), "{text}");

    server.shutdown();
}

#[test]
fn malformed_and_oversized_requests_get_clean_errors() {
    let server = start_crude(2, 8);
    let addr = server.addr();
    let lower = |resp: &str| resp.to_ascii_lowercase();

    // Garbage request line → 400 and an explicit close.
    let resp = one_shot_bytes(addr, b"SPLINES /v1/predict\r\n\r\n", false);
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    assert!(lower(&resp).contains("connection: close"), "{resp}");

    // Declared body beyond the wire cap → 413 without reading it.
    let huge = format!(
        "POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        64 * 1024 * 1024
    );
    let resp = one_shot_bytes(addr, huge.as_bytes(), false);
    assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
    assert!(lower(&resp).contains("connection: close"), "{resp}");

    // A header line beyond the line cap → 431.
    let long = format!("GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(32 * 1024));
    let resp = one_shot_bytes(addr, long.as_bytes(), false);
    assert!(resp.starts_with("HTTP/1.1 431"), "{resp}");
    assert!(lower(&resp).contains("connection: close"), "{resp}");

    // A body cut off mid-flight → 400, not a hung worker.
    let resp = one_shot_bytes(
        addr,
        b"POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n{\"v\":1",
        true,
    );
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    assert!(lower(&resp).contains("truncated"), "{resp}");

    // A deterministic storm of fuzzed junk: every reply is either a
    // clean 4xx or a plain close — never a 5xx, never a hang.
    let mut state = 0x5eed_cafe_u64;
    for _ in 0..32 {
        let len = 1 + (state % 200) as usize;
        let mut junk: Vec<u8> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        junk.extend_from_slice(b"\r\n\r\n");
        let resp = one_shot_bytes(addr, &junk, true);
        assert!(
            resp.is_empty() || resp.starts_with("HTTP/1.1 4"),
            "fuzz input produced a non-4xx answer: {resp:?}"
        );
    }

    // The service itself is unharmed.
    let (status, _) = one_shot(addr, &get("/healthz"));
    assert_eq!(status, 200);
    assert_eq!(server.ctx().metrics().requests_with_status(comet_serve::StatusClass::Internal), 0);

    server.shutdown();
}

#[test]
fn slow_loris_is_timed_out_with_408() {
    let server = Server::start(
        ModelKind::CrudeHaswell,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 8,
            idle_timeout_ms: 100,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    // Start a request and then stall: the read budget must cut the
    // connection off with 408, well before the client's own timeout.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(b"POST /v1/predict HTTP/1.1\r\nHost: t\r\n").unwrap();
    let start = Instant::now();
    let (status, body) = read_response(&stream);
    assert_eq!(status, 408, "{body}");
    assert!(body.contains("timed out"), "{body}");
    assert!(start.elapsed() < Duration::from_secs(5), "loris lingered {:?}", start.elapsed());

    server.shutdown();
}

#[test]
fn readyz_reflects_model_health() {
    // A healthy stack is ready.
    let server = start_crude(1, 4);
    let (status, body) = one_shot(server.addr(), &get("/readyz"));
    assert_eq!(status, 200, "{body}");
    let resp: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(resp["ready"].as_bool(), Some(true));
    server.shutdown();

    // A model that cannot answer the probe is not.
    struct BrokenModel;
    impl CostModel for BrokenModel {
        fn name(&self) -> &str {
            "broken"
        }
        fn predict(&self, _block: &BasicBlock) -> f64 {
            f64::NAN
        }
        fn try_predict(&self, _block: &BasicBlock) -> Result<f64, ModelError> {
            Err(ModelError::NonFinite { value: f64::NAN })
        }
    }
    let server = Server::start_with_model(
        Box::new(BrokenModel) as BoxedModel,
        "broken".into(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_depth: 4,
            ..Default::default()
        },
    )
    .expect("bind");
    let (status, body) = one_shot(server.addr(), &get("/readyz"));
    assert_eq!(status, 503, "{body}");
    let resp: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(resp["ready"].as_bool(), Some(false));
    let reasons = resp["reasons"].as_array().expect("reasons list");
    assert!(
        reasons.iter().any(|r| r.as_str() == Some("model probe failed")),
        "unexpected reasons: {reasons:?}"
    );
    server.shutdown();
}

#[test]
fn tight_deadlines_degrade_to_a_lower_tier() {
    /// A crude model with an artificial per-query cost, so explain
    /// latency is large and measurable next to a tiny deadline.
    struct SlowModel(CrudeModel);
    impl CostModel for SlowModel {
        fn name(&self) -> &str {
            "slow-crude"
        }
        fn predict(&self, block: &BasicBlock) -> f64 {
            std::thread::sleep(Duration::from_micros(500));
            self.0.predict(block)
        }
        fn try_predict(&self, block: &BasicBlock) -> Result<f64, ModelError> {
            std::thread::sleep(Duration::from_micros(500));
            self.0.try_predict(block)
        }
    }
    let server = Server::start_with_model(
        Box::new(SlowModel(CrudeModel::new(Microarch::Haswell))) as BoxedModel,
        "slow".into(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 8,
            deadline_ms: 0,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    // Warm up: full-tier explains that populate the latency histogram
    // (and the stale-explanation store) for this block.
    for seed in 0..10u64 {
        let (status, body) = one_shot(
            addr,
            &post("/v1/explain", &format!(r#"{{"v":1,"block":"add rcx, rax","seed":{seed}}}"#)),
        );
        assert_eq!(status, 200, "{body}");
    }

    // Now an impossible deadline: the ladder must answer from a lower
    // tier instead of failing or blowing the budget.
    let (status, body) = one_shot(
        addr,
        &post("/v1/explain", r#"{"v":1,"block":"add rcx, rax","seed":99,"deadline_ms":2}"#),
    );
    assert_eq!(status, 200, "{body}");
    let resp: Value = serde_json::from_str(&body).unwrap();
    let tier = resp["explanation"]["tier"].as_str().expect("tier in dto");
    assert_ne!(tier, "full", "a 2ms deadline must not run a full search: {body}");

    let metrics = server.ctx().metrics();
    let degraded = metrics.tier_count(comet_serve::Tier::ReducedBudget)
        + metrics.tier_count(comet_serve::Tier::Cached)
        + metrics.tier_count(comet_serve::Tier::Baseline);
    assert!(degraded >= 1, "no degraded tier recorded");
    assert!(
        metrics.tier_count(comet_serve::Tier::Full) >= 10,
        "warmup explains were not full-tier"
    );

    // The tier also shows up on the Prometheus endpoint.
    let (status, text) = one_shot(addr, &get("/metrics"));
    assert_eq!(status, 200);
    assert!(text.contains("comet_explain_tier_total{tier=\"full\"}"), "{text}");

    server.shutdown();
}

#[test]
fn drain_under_load_never_truncates_responses() {
    let server = start_crude(2, 16);
    let addr = server.addr();

    // Hammer the server from several clients while it drains. Every
    // exchange must end in exactly one of two clean ways: a complete
    // response, or nothing at all (refused/reset before the server
    // committed to answering). A partial response — status line without
    // the promised body — is the failure mode this test exists to catch.
    let clients: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let request = post("/v1/predict", r#"{"v":1,"block":"add rcx, rax\nnop"}"#);
                let (mut complete, mut clean, mut dirty) = (0u64, 0u64, 0u64);
                for _ in 0..10_000 {
                    let Ok(mut stream) = TcpStream::connect(addr) else { break };
                    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                    if stream.write_all(request.as_bytes()).is_err() {
                        clean += 1;
                        continue;
                    }
                    let mut buf = Vec::new();
                    let _ = BufReader::new(&stream).read_to_end(&mut buf);
                    if buf.is_empty() {
                        clean += 1;
                        continue;
                    }
                    let text = String::from_utf8_lossy(&buf);
                    let whole = text.split_once("\r\n\r\n").is_some_and(|(head, body)| {
                        head.starts_with("HTTP/1.1 ")
                            && head
                                .to_ascii_lowercase()
                                .lines()
                                .find_map(|l| l.strip_prefix("content-length:").map(str::trim))
                                .and_then(|v| v.parse::<usize>().ok())
                                .is_some_and(|len| body.len() >= len)
                    });
                    if whole {
                        complete += 1;
                    } else {
                        dirty += 1;
                    }
                }
                (complete, clean, dirty)
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(50));
    server.ctx().cancel_token().cancel();
    let server_join = std::thread::spawn(move || server.join());
    let start = Instant::now();
    while !server_join.is_finished() {
        assert!(start.elapsed() < Duration::from_secs(10), "server failed to drain under load");
        std::thread::sleep(Duration::from_millis(5));
    }
    server_join.join().unwrap();

    let (mut complete, mut dirty) = (0u64, 0u64);
    for client in clients {
        let (c, _clean, d) = client.join().expect("client thread");
        complete += c;
        dirty += d;
    }
    assert!(complete > 0, "no request completed before the drain");
    assert_eq!(dirty, 0, "drain truncated {dirty} responses mid-flight");
}

#[test]
fn cancel_token_drains_and_joins() {
    let server = start_crude(2, 4);
    let addr = server.addr();
    let (status, _) = one_shot(addr, &get("/healthz"));
    assert_eq!(status, 200);

    server.ctx().cancel_token().cancel();
    // join() must return promptly once cancelled — run it on a thread so
    // a regression hangs this test's watchdog rather than forever.
    let joined = std::thread::spawn(move || server.join());
    let start = Instant::now();
    while !joined.is_finished() {
        assert!(start.elapsed() < Duration::from_secs(5), "server failed to drain");
        std::thread::sleep(Duration::from_millis(5));
    }
    joined.join().unwrap();

    // New connections are refused or reset after drain.
    let outcome = TcpStream::connect(addr)
        .and_then(|mut s| {
            s.set_read_timeout(Some(Duration::from_secs(2)))?;
            s.write_all(get("/healthz").as_bytes())?;
            let mut buf = Vec::new();
            s.read_to_end(&mut buf)?;
            Ok(buf)
        })
        .unwrap_or_default();
    assert!(outcome.is_empty(), "drained server must not answer new requests");
}
