//! Integration tests for the crash-safe model registry and hot-swap
//! lifecycle over real loopback sockets: admin swaps change what every
//! response reports *and computes*, bad candidates are rejected or
//! rolled back, registry state survives a restart, and a hammer run
//! proves responses are never torn across concurrent swaps.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;

use comet_isa::Microarch;
use comet_models::{CostModel, CrudeModel};
use comet_serve::{ModelKind, ServeConfig, Server};
use serde_json::Value;

mod common;
use common::{get, one_shot, post, wait_for};

fn json(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad json ({e}): {body}"))
}

/// A scratch registry directory; best-effort removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("comet-swaptest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self) -> String {
        self.0.to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn start(registry_dir: Option<String>, probation_requests: u64) -> Server {
    Server::start(
        ModelKind::CrudeHaswell,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 32,
            registry_dir,
            probation_requests,
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback")
}

// A block whose cost actually differs between the two crude
// microarchitectures (FP divide throughput differs on HSW vs SKL).
const BLOCK: &str = "vdivss xmm0, xmm0, xmm6\nadd rcx, rax";

/// The bitwise-exact prediction the serving stack must produce for
/// `BLOCK` under each crude microarchitecture (the cache and the
/// resilience wrapper forward values unchanged, and the JSON encoder
/// round-trips f64 exactly).
fn expected(uarch: Microarch) -> f64 {
    CrudeModel::new(uarch).predict(&comet_isa::parse_block(BLOCK).unwrap())
}

fn predict(addr: SocketAddr) -> (u16, Value) {
    let body = format!(r#"{{"v":1,"block":"{}"}}"#, BLOCK.replace('\n', "\\n"));
    let (status, body) = one_shot(addr, &post("/v1/predict", &body));
    (status, json(&body))
}

#[test]
fn swap_changes_version_and_predictions_bitwise() {
    let scratch = Scratch::new("swap");
    let server = start(Some(scratch.path()), 0);
    let addr = server.addr();

    // Boot adopted the CLI model as registry v1.
    let (status, body) = one_shot(addr, &get("/admin/model"));
    assert_eq!(status, 200, "{body}");
    let resp = json(&body);
    assert_eq!(resp["action"].as_str(), Some("status"));
    assert_eq!(resp["active_version"].as_u64(), Some(1));
    assert_eq!(resp["active_kind"].as_str(), Some("crude-haswell"));
    assert_eq!(resp["last_good_version"].as_u64(), Some(1));

    // Every predict names its epoch and computes with exactly it.
    let (status, resp) = predict(addr);
    assert_eq!(status, 200);
    assert_eq!(resp["model_version"].as_u64(), Some(1));
    assert_eq!(resp["prediction"].as_f64(), Some(expected(Microarch::Haswell)), "{resp}");

    // Readiness reports the serving version too.
    let (status, body) = one_shot(addr, &get("/readyz"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(json(&body)["model_version"].as_u64(), Some(1));

    // Hot-swap to Skylake: stage → validate → publish (probation off).
    let (status, body) = one_shot(
        addr,
        &post("/admin/model", r#"{"v":1,"kind":"crude-skylake","note":"uarch bump"}"#),
    );
    assert_eq!(status, 200, "{body}");
    let resp = json(&body);
    assert_eq!(resp["action"].as_str(), Some("promoted"));
    assert_eq!(resp["active_version"].as_u64(), Some(2));
    assert_eq!(resp["staged_version"].as_u64(), Some(2));
    assert_eq!(resp["shadow"]["passed"].as_bool(), Some(true), "{resp}");
    assert_eq!(resp["last_good_version"].as_u64(), Some(2), "probation off settles at once");

    // The same block now computes with the new model — proof the
    // prediction cache cannot leak values across versions.
    let (status, resp) = predict(addr);
    assert_eq!(status, 200);
    assert_eq!(resp["model_version"].as_u64(), Some(2));
    assert_eq!(resp["prediction"].as_f64(), Some(expected(Microarch::Skylake)), "{resp}");
    assert_ne!(expected(Microarch::Haswell), expected(Microarch::Skylake));

    // Explains carry the version as well.
    let (status, body) =
        one_shot(addr, &post("/v1/explain", r#"{"v":1,"block":"add rcx, rax","seed":7}"#));
    assert_eq!(status, 200, "{body}");
    assert_eq!(json(&body)["model_version"].as_u64(), Some(2));

    // And the swap shows up on /metrics.
    let (status, text) = one_shot(addr, &get("/metrics"));
    assert_eq!(status, 200);
    assert!(text.contains("comet_model_version 2"), "{text}");
    assert!(text.contains("comet_model_swaps_total 1"), "{text}");
    assert!(text.contains("comet_model_rollbacks_total 0"), "{text}");

    server.shutdown();
}

#[test]
fn bad_candidate_is_rejected_with_409_and_dry_run_only_stages() {
    let server = start(None, 0);
    let addr = server.addr();

    // A candidate predicting 50× off fails the shadow MAPE gate.
    let (status, body) = one_shot(
        addr,
        &post("/admin/model", r#"{"v":1,"kind":"crude-haswell","chaos_scale":50.0}"#),
    );
    assert_eq!(status, 409, "{body}");
    let resp = json(&body);
    assert_eq!(resp["action"].as_str(), Some("rejected"));
    assert_eq!(resp["active_version"].as_u64(), Some(1), "a rejected candidate must not serve");
    assert_eq!(resp["shadow"]["passed"].as_bool(), Some(false));
    assert!(
        resp["shadow"]["failures"].as_array().is_some_and(|f| !f.is_empty()),
        "rejection must say why: {resp}"
    );

    // Dry run: validate a good candidate without swapping.
    let (status, body) =
        one_shot(addr, &post("/admin/model", r#"{"v":1,"kind":"crude-skylake","dry_run":true}"#));
    assert_eq!(status, 200, "{body}");
    let resp = json(&body);
    assert_eq!(resp["action"].as_str(), Some("dry-run"));
    assert_eq!(resp["active_version"].as_u64(), Some(1));
    assert_eq!(resp["shadow"]["passed"].as_bool(), Some(true));

    // Traffic never saw either candidate.
    let (status, resp) = predict(addr);
    assert_eq!(status, 200);
    assert_eq!(resp["model_version"].as_u64(), Some(1));
    assert_eq!(resp["prediction"].as_f64(), Some(expected(Microarch::Haswell)));

    // rollback + kind is a caller error.
    let (status, body) =
        one_shot(addr, &post("/admin/model", r#"{"v":1,"kind":"crude-skylake","rollback":true}"#));
    assert_eq!(status, 400, "{body}");

    server.shutdown();
}

#[test]
fn forced_failing_model_rolls_back_automatically() {
    let scratch = Scratch::new("rollback");
    let server = start(Some(scratch.path()), 32);
    let addr = server.addr();

    // Force a model whose every prediction errors past the (failing)
    // shadow gates and onto probation.
    let (status, body) = one_shot(
        addr,
        &post("/admin/model", r#"{"v":1,"kind":"crude-haswell","chaos_fail":true,"force":true}"#),
    );
    assert_eq!(status, 200, "{body}");
    let resp = json(&body);
    assert_eq!(resp["action"].as_str(), Some("promoted"));
    assert_eq!(resp["active_version"].as_u64(), Some(2));
    assert_eq!(resp["shadow"]["passed"].as_bool(), Some(false), "forced past a failing report");
    assert_eq!(resp["last_good_version"].as_u64(), Some(1), "not yet durably promoted");
    assert!(resp["probation_remaining"].as_u64().unwrap() > 0);

    // Real traffic fails; the probation failure-rate trip fires once
    // enough samples accrue and the server swaps itself back to v1.
    let mut failures = 0;
    for _ in 0..32 {
        let (status, resp) = predict(addr);
        if status == 200 && resp["model_version"].as_u64() == Some(1) {
            break; // rolled back mid-loop
        }
        assert_eq!(status, 500, "probation traffic against the failing model: {resp}");
        failures += 1;
    }
    assert!(failures >= 8, "the trip needs a minimum sample count, got {failures}");

    wait_for("automatic rollback", || {
        let (_, body) = one_shot(addr, &get("/admin/model"));
        json(&body)["rollbacks"].as_u64() == Some(1)
    });
    let (status, body) = one_shot(addr, &get("/admin/model"));
    assert_eq!(status, 200);
    let resp = json(&body);
    assert_eq!(resp["active_version"].as_u64(), Some(1), "serving last-known-good again");
    assert_eq!(resp["last_good_version"].as_u64(), Some(1));
    assert_eq!(resp["probation_remaining"].as_u64(), Some(0));
    let reason = resp["last_rollback"].as_str().expect("rollback reason recorded");
    assert!(reason.contains("failure rate"), "{reason}");

    // Service is healthy on the rolled-back epoch, warm cache and all.
    let (status, resp) = predict(addr);
    assert_eq!(status, 200);
    assert_eq!(resp["model_version"].as_u64(), Some(1));
    assert_eq!(resp["prediction"].as_f64(), Some(expected(Microarch::Haswell)));

    // The manifest never moved: a crash during the bad epoch would have
    // recovered to v1 as well. The failed candidate stays on disk.
    let (_, body) = one_shot(addr, &get("/metrics"));
    assert!(body.contains("comet_model_rollbacks_total 1"), "{body}");

    server.shutdown();
}

#[test]
fn registry_state_survives_restart() {
    let scratch = Scratch::new("restart");

    // First life: swap to Skylake and settle it as last-known-good.
    {
        let server = start(Some(scratch.path()), 0);
        let (status, body) = one_shot(
            server.addr(),
            &post("/admin/model", r#"{"v":1,"kind":"crude-skylake","note":"durable"}"#),
        );
        assert_eq!(status, 200, "{body}");
        assert_eq!(json(&body)["last_good_version"].as_u64(), Some(2));
        server.shutdown();
    }

    // Second life boots with a *Haswell* CLI default, but the registry's
    // last-known-good (Skylake, v2) overrides it.
    let server = start(Some(scratch.path()), 0);
    let addr = server.addr();
    let (status, body) = one_shot(addr, &get("/admin/model"));
    assert_eq!(status, 200, "{body}");
    let resp = json(&body);
    assert_eq!(resp["active_version"].as_u64(), Some(2));
    assert_eq!(resp["active_kind"].as_str(), Some("crude-skylake"));
    assert_eq!(
        resp["registry_versions"].as_array().map(|v| v.len()),
        Some(2),
        "both snapshots intact on disk: {resp}"
    );

    let (status, resp) = predict(addr);
    assert_eq!(status, 200);
    assert_eq!(resp["model_version"].as_u64(), Some(2));
    assert_eq!(resp["prediction"].as_f64(), Some(expected(Microarch::Skylake)));

    server.shutdown();
}

/// The acceptance hammer: traffic threads assert every single response
/// is internally consistent — the prediction is bitwise-equal to what
/// the model named by the response's own `model_version` computes —
/// while an admin thread swaps models continuously. A torn read
/// (version from one epoch, prediction from another, or a stale cache
/// hit across versions) fails immediately.
#[test]
fn hammer_predictions_match_reported_version_during_continuous_swaps() {
    const SWAPS: u64 = 24;
    const CLIENTS: usize = 4;

    let server = start(None, 0);
    let addr = server.addr();

    // Version parity encodes the kind: boot v1 is Haswell, and the
    // admin thread alternates starting with Skylake (v2), so even
    // versions are Skylake and odd versions are Haswell.
    let want_haswell = expected(Microarch::Haswell);
    let want_skylake = expected(Microarch::Skylake);
    assert_ne!(want_haswell, want_skylake);

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut checked = 0u64;
                while !stop.load(Relaxed) {
                    let (status, resp) = predict(addr);
                    assert_eq!(status, 200, "{resp}");
                    let version = resp["model_version"].as_u64().expect("version on wire");
                    let prediction = resp["prediction"].as_f64().expect("prediction on wire");
                    let want = if version % 2 == 0 { want_skylake } else { want_haswell };
                    assert_eq!(
                        prediction.to_bits(),
                        want.to_bits(),
                        "torn response: v{version} reported {prediction}, epoch computes {want}"
                    );
                    checked += 1;
                }
                checked
            })
        })
        .collect();

    for i in 0..SWAPS {
        let kind = if i % 2 == 0 { "crude-skylake" } else { "crude-haswell" };
        let (status, body) = one_shot(
            addr,
            &post("/admin/model", &format!(r#"{{"v":1,"kind":"{kind}","force":true}}"#)),
        );
        assert_eq!(status, 200, "swap {i}: {body}");
        assert_eq!(json(&body)["action"].as_str(), Some("promoted"), "swap {i}: {body}");
    }
    stop.store(true, Relaxed);

    let checked: u64 = clients.into_iter().map(|c| c.join().expect("client thread")).sum();
    assert!(checked > 0, "hammer made no requests");

    let (_, body) = one_shot(addr, &get("/admin/model"));
    let resp = json(&body);
    assert_eq!(resp["active_version"].as_u64(), Some(1 + SWAPS));
    assert_eq!(resp["swaps"].as_u64(), Some(SWAPS));
    assert_eq!(resp["rollbacks"].as_u64(), Some(0));

    server.shutdown();
}
