//! Fleet integration: a real `Router` in front of two real sharded
//! `Server`s, all over loopback TCP. Exercises key-stable routing
//! (router and shard agree on ownership), the shard-side 409 fence
//! against misrouted keys, aggregated `/metrics` and `/readyz`, and
//! partial degradation when one shard dies (its slice 503s, the
//! survivor keeps answering).

use comet_serve::route::ShardSpec;
use comet_serve::{ModelKind, Router, RouterConfig, ServeConfig, Server};

mod common;
use common::{get, one_shot, post};

fn predict_body(block: &str) -> String {
    format!(r#"{{"v":1,"block":"{block}"}}"#)
}

struct Fleet {
    shards: Vec<Server>,
    router: Router,
}

fn start_fleet(count: u32) -> Fleet {
    let shards: Vec<Server> = (0..count)
        .map(|index| {
            Server::start(
                ModelKind::CrudeHaswell,
                ServeConfig {
                    addr: "127.0.0.1:0".into(),
                    workers: 2,
                    shard: Some(ShardSpec { index, count }),
                    ..ServeConfig::default()
                },
            )
            .expect("bind shard")
        })
        .collect();
    let router = Router::start(RouterConfig {
        shards: shards.iter().map(|s| s.addr().to_string()).collect(),
        workers: 2,
        ..RouterConfig::default()
    })
    .expect("bind router");
    Fleet { shards, router }
}

/// One parseable block per shard slot, found by asking the router's
/// own ring (unparseable blocks 400 before the shard fence, so the
/// probes must be real instructions).
fn blocks_per_shard(router: &Router, count: u32) -> Vec<String> {
    let candidates = [
        "add rcx, rax",
        "mov rdx, rcx",
        "pop rbx",
        "div rcx",
        "imul rax, rcx",
        "nop",
        "add rax, rbx",
        "mov rax, rdx",
        "push rbp",
        "sub rax, rcx",
        "xor rax, rax",
        "inc rcx",
    ];
    (0..count)
        .map(|shard| {
            candidates
                .iter()
                .find(|b| router.owner_of_block(b) == shard)
                .unwrap_or_else(|| panic!("no candidate block hashes to shard {shard}"))
                .to_string()
        })
        .collect()
}

#[test]
fn routing_is_key_stable_and_shards_fence_misroutes() {
    let fleet = start_fleet(2);
    let blocks = blocks_per_shard(&fleet.router, 2);

    for (shard, block) in blocks.iter().enumerate() {
        let request = post("/v1/predict", &predict_body(block));

        // Through the router: always 200.
        let (status, via_router) = one_shot(fleet.router.addr(), &request);
        assert_eq!(status, 200, "shard {shard} via router: {via_router}");

        // Straight at the owning shard: identical answer.
        let (status, direct) = one_shot(fleet.shards[shard].addr(), &request);
        assert_eq!(status, 200);
        assert_eq!(direct, via_router, "router must forward the shard's bytes verbatim");

        // Straight at the wrong shard: fenced with a 409 naming the owner.
        let other = 1 - shard;
        let (status, body) = one_shot(fleet.shards[other].addr(), &request);
        assert_eq!(status, 409, "misroute must be refused: {body}");
        assert!(body.contains("owned by shard"), "{body}");
        assert!(body.contains(&format!("owned by shard {shard}")), "{body}");
    }

    for server in fleet.shards {
        server.shutdown();
    }
    fleet.router.shutdown();
}

#[test]
fn router_aggregates_metrics_and_readyz_across_shards() {
    let fleet = start_fleet(2);
    let blocks = blocks_per_shard(&fleet.router, 2);

    // Traffic to both slices so per-shard counters are nonzero.
    for block in &blocks {
        let (status, _) = one_shot(fleet.router.addr(), &post("/v1/predict", &predict_body(block)));
        assert_eq!(status, 200);
    }

    // /readyz: aggregated verdict with one entry per shard.
    let (status, body) = one_shot(fleet.router.addr(), &get("/readyz"));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""ready":true"#), "{body}");
    assert!(body.contains(r#""router":true"#), "{body}");
    assert!(body.contains(r#""index":0"#) && body.contains(r#""index":1"#), "{body}");

    // /metrics: per-shard up gauges, router counters, and shard
    // counters summed into a single exposition.
    let (status, text) = one_shot(fleet.router.addr(), &get("/metrics"));
    assert_eq!(status, 200);
    assert!(text.contains("comet_shard_up{shard=\"0\"} 1"), "{text}");
    assert!(text.contains("comet_shard_up{shard=\"1\"} 1"), "{text}");
    assert!(text.contains("comet_router_requests_total"), "{text}");
    let predict_total: f64 = text
        .lines()
        .filter(|l| l.starts_with("comet_requests_total{") && l.contains("endpoint=\"predict\""))
        .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<f64>().ok()))
        .sum();
    assert!(predict_total >= 2.0, "summed predict counter across shards: {predict_total}\n{text}");

    // /healthz is answered by the router itself, without fan-out.
    let (status, body) = one_shot(fleet.router.addr(), &get("/healthz"));
    assert_eq!(status, 200);
    assert!(body.contains(r#""router":true"#), "{body}");
    assert!(body.contains(r#""shards":2"#), "{body}");

    for server in fleet.shards {
        server.shutdown();
    }
    fleet.router.shutdown();
}

#[test]
fn dead_shard_degrades_only_its_slice() {
    let fleet = start_fleet(2);
    let blocks = blocks_per_shard(&fleet.router, 2);

    // Warm both slices, then kill shard 1.
    for block in &blocks {
        let (status, _) = one_shot(fleet.router.addr(), &post("/v1/predict", &predict_body(block)));
        assert_eq!(status, 200);
    }
    let mut shards = fleet.shards;
    shards.remove(1).shutdown();

    // Shard 1's slice: 503 naming the dead shard, not a hang or a
    // misrouted answer.
    let (status, body) =
        one_shot(fleet.router.addr(), &post("/v1/predict", &predict_body(&blocks[1])));
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("shard 1 unavailable"), "{body}");

    // Shard 0's slice keeps answering.
    let (status, body) =
        one_shot(fleet.router.addr(), &post("/v1/predict", &predict_body(&blocks[0])));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("prediction"), "{body}");

    // Aggregated readyz turns 503 and pins the blame on shard 1.
    let (status, body) = one_shot(fleet.router.addr(), &get("/readyz"));
    assert_eq!(status, 503, "{body}");
    assert!(body.contains(r#""ready":false"#), "{body}");

    // The up gauge for shard 1 drops to 0; shard 0 stays 1.
    let (status, text) = one_shot(fleet.router.addr(), &get("/metrics"));
    assert_eq!(status, 200);
    assert!(text.contains("comet_shard_up{shard=\"0\"} 1"), "{text}");
    assert!(text.contains("comet_shard_up{shard=\"1\"} 0"), "{text}");

    for server in shards {
        server.shutdown();
    }
    fleet.router.shutdown();
}
