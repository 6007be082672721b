//! Golden-byte parity: the epoll front end must answer with
//! bitwise-identical bodies to the threaded accept loop it replaced.
//! These strings were captured verbatim from the pre-rewrite server
//! (same model, same seeds) — a diff here means the transplant changed
//! observable behavior, not just plumbing.

use comet_serve::{ModelKind, ServeConfig, Server};

mod common;
use common::{get, one_shot, post};

fn start() -> Server {
    Server::start(
        ModelKind::CrudeHaswell,
        ServeConfig { addr: "127.0.0.1:0".into(), workers: 2, ..ServeConfig::default() },
    )
    .expect("bind loopback")
}

#[test]
fn predict_bodies_match_the_threaded_front_end_bitwise() {
    let server = start();
    let addr = server.addr();

    let (status, body) = one_shot(
        addr,
        &post("/v1/predict", r#"{"v":1,"block":"add rcx, rax\nmov rdx, rcx\npop rbx"}"#),
    );
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"v":1,"model":"C_HSW","model_version":1,"prediction":0.75}"#);

    let (status, body) = one_shot(addr, &post("/v1/predict", r#"{"v":1,"block":"div rcx"}"#));
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"v":1,"model":"C_HSW","model_version":1,"prediction":25.0}"#);

    server.shutdown();
}

#[test]
fn explain_bodies_match_the_threaded_front_end_bitwise() {
    let server = start();
    let addr = server.addr();

    let (status, body) = one_shot(
        addr,
        &post("/v1/explain", r#"{"v":1,"block":"add rcx, rax\nmov rdx, rcx\npop rbx","seed":0}"#),
    );
    assert_eq!(status, 200);
    assert_eq!(
        body,
        concat!(
            r#"{"v":1,"model":"C_HSW","model_version":1,"epsilon":0.25,"seed":0,"#,
            r#""coalesced":false,"explanation":{"features":[{"Instruction":1},"#,
            r#"{"Instruction":2}],"display":"{inst_2, inst_3}","precision":0.8,"#,
            r#""coverage":0.242,"prediction":0.75,"anchored":true,"queries":345,"#,
            r#""faults":0,"degraded":false,"tier":"full","source":"live"}}"#,
        )
    );

    let (status, body) = one_shot(
        addr,
        &post(
            "/v1/explain",
            r#"{"v":1,"block":"imul rax, rcx\nadd rcx, rax\nnop","seed":7,"epsilon":0.5}"#,
        ),
    );
    assert_eq!(status, 200);
    assert_eq!(
        body,
        concat!(
            r#"{"v":1,"model":"C_HSW","model_version":1,"epsilon":0.5,"seed":7,"#,
            r#""coalesced":false,"explanation":{"features":[{"Instruction":0}],"#,
            r#""display":"{inst_1}","precision":1.0,"coverage":0.5085,"#,
            r#""prediction":1.25,"anchored":true,"queries":97,"faults":0,"#,
            r#""degraded":false,"tier":"full","source":"live"}}"#,
        )
    );

    server.shutdown();
}

#[test]
fn healthz_body_matches_the_threaded_front_end_bitwise() {
    let server = start();
    let (status, body) = one_shot(server.addr(), &get("/healthz"));
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"v":1,"ok":true,"model":"C_HSW","model_version":1}"#);
    server.shutdown();
}
