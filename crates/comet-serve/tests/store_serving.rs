//! Serving from a precomputed explanation store, over real loopback
//! sockets: store hits are bitwise replicas of what the builder
//! stored, misses and parameter mismatches fall through to the live
//! ladder, `/readyz` reports store health (and 503s on an unreadable
//! store), `/analytics/*` serve the build-time rollups, and a model
//! hot-swap structurally disables store hits.

use std::path::{Path, PathBuf};

use comet_serve::{ModelKind, ServeConfig, Server};
use comet_store::{build_store, BuildConfig, ExplanationStore};
use serde_json::Value;

mod common;
use common::{get, one_shot, post};

const BLOCKS: usize = 6;
const CORPUS_SEED: u64 = 0xB10C5;

/// Build a small crude-haswell store under `dir` and return its path.
fn build_test_store(dir: &Path) -> PathBuf {
    std::fs::create_dir_all(dir).unwrap();
    let out = dir.join("store.comets");
    let cfg = BuildConfig {
        model: ModelKind::CrudeHaswell,
        blocks: BLOCKS,
        corpus_seed: CORPUS_SEED,
        ..BuildConfig::default()
    };
    let report = build_store(&out, &cfg).expect("test store builds");
    assert_eq!(report.records, BLOCKS);
    out
}

fn start_with_store(store: &Path) -> Server {
    Server::start(
        ModelKind::CrudeHaswell,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 8,
            store_path: Some(store.display().to_string()),
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback")
}

fn explain_body(block: &str, seed: u64) -> String {
    serde_json::to_string(&serde_json::json!({"v": 1, "block": block, "seed": seed})).unwrap()
}

#[test]
fn store_hits_are_bitwise_and_misses_fall_through_live() {
    let dir = std::env::temp_dir().join(format!("comet-serve-store-{}", std::process::id()));
    let store_path = build_test_store(&dir);
    let store = ExplanationStore::open(&store_path).unwrap();
    let text = store.iter_texts().next().expect("store has records").to_string();
    let stored = store.lookup(&text).expect("stored explanation");

    let server = start_with_store(&store_path);
    let addr = server.addr();

    // A stored block with the store's (default ε, seed 0) → store hit.
    let (status, body) = one_shot(addr, &post("/v1/explain", &explain_body(&text, 0)));
    assert_eq!(status, 200, "{body}");
    let resp: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(resp["explanation"]["source"].as_str(), Some("store"), "{body}");
    assert_eq!(resp["explanation"]["tier"].as_str(), Some("store"), "{body}");
    assert_eq!(resp["coalesced"].as_bool(), Some(false));
    // JSON floats render shortest-round-trip, so equality here is
    // equality of the underlying f64 — the stored bits survived the
    // wire.
    assert_eq!(resp["explanation"]["precision"].as_f64(), Some(stored.precision));
    assert_eq!(resp["explanation"]["coverage"].as_f64(), Some(stored.coverage));
    assert_eq!(resp["explanation"]["prediction"].as_f64(), Some(stored.prediction));
    assert_eq!(resp["explanation"]["queries"].as_u64(), Some(stored.queries));
    assert_eq!(resp["explanation"]["anchored"].as_bool(), Some(stored.anchored));

    // A block that is not in the corpus → consulted miss, live answer.
    let (status, body) =
        one_shot(addr, &post("/v1/explain", &explain_body("add rcx, rax\nmov rdx, rcx", 0)));
    assert_eq!(status, 200, "{body}");
    let resp: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(resp["explanation"]["source"].as_str(), Some("live"), "{body}");

    // A stored block under a different seed → the store is bypassed
    // (not consulted, not a miss): the stored bits only replicate the
    // build seed's search.
    let misses_before = server.ctx().metrics().store_miss_count();
    let (status, body) = one_shot(addr, &post("/v1/explain", &explain_body(&text, 7)));
    assert_eq!(status, 200, "{body}");
    let resp: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(resp["explanation"]["source"].as_str(), Some("live"), "{body}");
    assert_eq!(server.ctx().metrics().store_miss_count(), misses_before);

    let metrics = server.ctx().metrics();
    assert_eq!(metrics.store_hit_count(), 1);
    assert_eq!(metrics.store_miss_count(), 1);
    assert_eq!(metrics.tier_count(comet_serve::Tier::Store), 1);

    // The same counters surface on /metrics, next to the per-version
    // cache gauge.
    let (status, body) = one_shot(addr, &get("/metrics"));
    assert_eq!(status, 200);
    assert!(body.contains("comet_store_hits_total 1"), "{body}");
    assert!(body.contains("comet_store_misses_total 1"), "{body}");
    assert!(body.contains("comet_explain_tier_total{tier=\"store\"} 1"), "{body}");
    assert!(body.contains("comet_store_hit_latency_seconds_count 1"), "{body}");
    assert!(body.contains("comet_cache_version 1"), "{body}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analytics_endpoints_serve_store_rollups() {
    let dir = std::env::temp_dir().join(format!("comet-serve-analytics-{}", std::process::id()));
    let store_path = build_test_store(&dir);
    let store = ExplanationStore::open(&store_path).unwrap();

    let server = start_with_store(&store_path);
    let addr = server.addr();

    let (status, body) = one_shot(addr, &get("/analytics/categories"));
    assert_eq!(status, 200, "{body}");
    let resp: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(resp["source"].as_str(), Some("store"));
    assert_eq!(resp["records"].as_u64(), Some(BLOCKS as u64));
    let categories = resp["categories"].as_array().expect("categories list");
    assert_eq!(categories.len(), store.analytics().categories.len());
    // The wire rollups are the stored rollups, field for field.
    for (wire, built) in categories.iter().zip(&store.analytics().categories) {
        assert_eq!(wire["category"].as_str(), Some(built.category.as_str()));
        assert_eq!(wire["blocks"].as_u64(), Some(built.blocks));
        assert_eq!(wire["pct_eta"].as_f64(), Some(built.pct_eta));
    }

    let (status, body) = one_shot(addr, &get("/analytics/opcodes"));
    assert_eq!(status, 200, "{body}");
    let resp: Value = serde_json::from_str(&body).unwrap();
    let opcodes = resp["opcodes"].as_array().expect("opcodes list");
    assert_eq!(opcodes.len(), store.analytics().opcodes.len());

    // Wrong method → 400, like every other known endpoint.
    let (status, _) = one_shot(addr, &post("/analytics/categories", "{}"));
    assert_eq!(status, 400);

    server.shutdown();

    // Without a store the endpoints are a clean 503.
    let server = Server::start(
        ModelKind::CrudeHaswell,
        ServeConfig { addr: "127.0.0.1:0".into(), workers: 1, ..ServeConfig::default() },
    )
    .unwrap();
    let (status, body) = one_shot(server.addr(), &get("/analytics/categories"));
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("no explanation store configured"), "{body}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn readyz_reports_store_health_and_unreadable_store_blocks_readiness() {
    let dir = std::env::temp_dir().join(format!("comet-serve-readyz-{}", std::process::id()));
    let store_path = build_test_store(&dir);

    // Healthy store: ready, with the store section describing it.
    let server = start_with_store(&store_path);
    let (status, body) = one_shot(server.addr(), &get("/readyz"));
    assert_eq!(status, 200, "{body}");
    let resp: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(resp["ready"].as_bool(), Some(true));
    assert_eq!(resp["store"]["open"].as_bool(), Some(true), "{body}");
    assert_eq!(resp["store"]["version_match"].as_bool(), Some(true), "{body}");
    assert_eq!(resp["store"]["records"].as_u64(), Some(BLOCKS as u64), "{body}");
    server.shutdown();

    // Corrupt the file: the server still starts and serves live, but
    // /readyz turns 503 with the store named in the reasons.
    let mut bytes = std::fs::read(&store_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&store_path, &bytes).unwrap();
    let server = start_with_store(&store_path);
    let addr = server.addr();
    let (status, body) = one_shot(addr, &get("/readyz"));
    assert_eq!(status, 503, "{body}");
    let resp: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(resp["ready"].as_bool(), Some(false));
    assert_eq!(resp["store"]["open"].as_bool(), Some(false), "{body}");
    let reasons = resp["reasons"].as_array().expect("reasons list");
    assert!(
        reasons.iter().any(|r| r.as_str().is_some_and(|s| s.contains("store unreadable"))),
        "unexpected reasons: {reasons:?}"
    );
    // Live serving is unaffected; analytics answer 503 with the error.
    let (status, body) = one_shot(addr, &post("/v1/explain", &explain_body("div rcx", 0)));
    assert_eq!(status, 200, "{body}");
    let resp: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(resp["explanation"]["source"].as_str(), Some("live"));
    let (status, body) = one_shot(addr, &get("/analytics/categories"));
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("store unreadable"), "{body}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hot_swap_structurally_disables_store_hits() {
    let dir = std::env::temp_dir().join(format!("comet-serve-swap-{}", std::process::id()));
    let store_path = build_test_store(&dir);
    let store = ExplanationStore::open(&store_path).unwrap();
    let text = store.iter_texts().next().unwrap().to_string();

    let server = start_with_store(&store_path);
    let addr = server.addr();

    // Before the swap: store hit.
    let (status, body) = one_shot(addr, &post("/v1/explain", &explain_body(&text, 0)));
    assert_eq!(status, 200, "{body}");
    let resp: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(resp["explanation"]["source"].as_str(), Some("store"));

    // Hot-swap to an identical model kind: shadow validation passes,
    // the version bumps — and that alone must end store hits, because
    // the stored bits replicate a search against the *old* version.
    let (status, body) = one_shot(addr, &post("/admin/model", r#"{"v":1,"kind":"crude-haswell"}"#));
    assert_eq!(status, 200, "{body}");
    let resp: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(resp["action"].as_str(), Some("promoted"), "{body}");
    let new_version = resp["active_version"].as_u64().unwrap();
    assert!(new_version > 1);

    let (status, body) = one_shot(addr, &post("/v1/explain", &explain_body(&text, 0)));
    assert_eq!(status, 200, "{body}");
    let resp: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(resp["explanation"]["source"].as_str(), Some("live"), "{body}");
    assert_eq!(resp["model_version"].as_u64(), Some(new_version));
    assert_eq!(server.ctx().metrics().store_hit_count(), 1, "no hits after the swap");

    // /readyz stays ready but reports the version mismatch.
    let (status, body) = one_shot(addr, &get("/readyz"));
    assert_eq!(status, 200, "{body}");
    let resp: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(resp["store"]["open"].as_bool(), Some(true));
    assert_eq!(resp["store"]["version_match"].as_bool(), Some(false), "{body}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
