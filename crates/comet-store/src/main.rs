//! `comet-store`: build and inspect precomputed explanation stores.
//!
//! ```text
//! comet-store build --out PATH [--model crude-haswell|crude-skylake|uica]
//!                   [--blocks N] [--corpus-seed S] [--seed S]
//!                   [--epsilon E] [--journal DIR] [--batch N]
//!                   [--search-pool N] [--model-version V] [--force-scalar]
//! comet-store info PATH [--sample]
//! ```
//!
//! `build` is resumable: re-run with the same `--journal DIR` after an
//! interruption and completed blocks are skipped. `info` prints the
//! provenance header and analytics summary as JSON; `--sample` appends
//! the first stored block's canonical text (handy for crafting a
//! guaranteed-hit request against a serving instance).

use std::path::PathBuf;
use std::process::ExitCode;

use comet_models::ModelKind;
use comet_store::{build_store, BuildConfig, ExplanationStore};

fn usage() -> &'static str {
    "usage:\n  comet-store build --out PATH [--model crude-haswell|crude-skylake|uica]\n                    [--blocks N] [--corpus-seed S] [--seed S] [--epsilon E]\n                    [--journal DIR] [--batch N] [--search-pool N]\n                    [--model-version V] [--force-scalar]\n  comet-store info PATH [--sample]"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("build") => run_build(&args[1..]),
        Some("info") => run_info(&args[1..]),
        _ => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}

fn run_build(args: &[String]) -> ExitCode {
    let mut cfg = BuildConfig::default();
    let mut out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| -> Option<String> {
            i += 1;
            let v = args.get(i).cloned();
            if v.is_none() {
                eprintln!("missing value for {name}");
            }
            v
        };
        match flag {
            "--out" => match value("--out") {
                Some(v) => out = Some(PathBuf::from(v)),
                None => return ExitCode::from(2),
            },
            "--model" => match value("--model").as_deref().and_then(ModelKind::parse) {
                Some(m) => cfg.model = m,
                None => {
                    eprintln!("unknown model (expected crude-haswell, crude-skylake, or uica)");
                    return ExitCode::from(2);
                }
            },
            "--blocks" => match value("--blocks").and_then(|v| v.parse().ok()) {
                Some(n) => cfg.blocks = n,
                None => return ExitCode::from(2),
            },
            "--corpus-seed" => match value("--corpus-seed").and_then(|v| v.parse().ok()) {
                Some(s) => cfg.corpus_seed = s,
                None => return ExitCode::from(2),
            },
            "--seed" => match value("--seed").and_then(|v| v.parse().ok()) {
                Some(s) => cfg.seed = s,
                None => return ExitCode::from(2),
            },
            "--epsilon" => match value("--epsilon").and_then(|v| v.parse().ok()) {
                Some(e) => cfg.epsilon = Some(e),
                None => return ExitCode::from(2),
            },
            "--journal" => match value("--journal") {
                Some(v) => cfg.journal_dir = Some(PathBuf::from(v)),
                None => return ExitCode::from(2),
            },
            "--batch" => match value("--batch").and_then(|v| v.parse().ok()) {
                Some(n) => cfg.batch = n,
                None => return ExitCode::from(2),
            },
            "--search-pool" => match value("--search-pool").and_then(|v| v.parse().ok()) {
                Some(n) => cfg.search_pool = n,
                None => return ExitCode::from(2),
            },
            "--model-version" => match value("--model-version").and_then(|v| v.parse().ok()) {
                Some(v) => cfg.model_version = v,
                None => return ExitCode::from(2),
            },
            "--force-scalar" => {
                let _ = comet_nn::kernel::force_scalar();
            }
            _ => {
                eprintln!("unknown flag {flag}\n{}", usage());
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    let Some(out) = out else {
        eprintln!("--out is required\n{}", usage());
        return ExitCode::from(2);
    };
    match build_store(&out, &cfg) {
        Ok(report) => {
            println!(
                "{}",
                serde_json::json!({
                    "v": 1,
                    "out": report.out.display().to_string(),
                    "records": report.records,
                    "resumed": report.resumed,
                    "explained": report.explained,
                    "fingerprint": report.fingerprint,
                })
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("comet-store build failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_info(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let sample = args.iter().any(|a| a == "--sample");
    match ExplanationStore::open(path) {
        Ok(store) => {
            let p = store.provenance();
            let top_opcodes: Vec<&str> =
                store.analytics().opcodes.iter().take(5).map(|o| o.opcode.as_str()).collect();
            println!(
                "{}",
                serde_json::json!({
                    "v": 1,
                    "records": store.len(),
                    "model_kind": p.model_kind.clone(),
                    "model_version": p.model_version,
                    "epsilon": p.epsilon(),
                    "seed": p.seed,
                    "kernel": p.kernel.clone(),
                    "search": p.search.clone(),
                    "config_fingerprint": p.config_fingerprint.clone(),
                    "categories": store.analytics().categories.len(),
                    "top_opcodes": top_opcodes,
                })
            );
            if sample {
                if let Some(text) = store.iter_texts().next() {
                    println!("{text}");
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("comet-store info failed: {e}");
            ExitCode::FAILURE
        }
    }
}
