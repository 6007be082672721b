//! `comet-benchmark`: the repository's end-to-end and per-layer
//! benchmark. See `README.md` beside this crate for the workloads, the
//! metrics and how to read the output.
//!
//! ```text
//! comet-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--workload`, one workload runs in this process and the last
//! line of stdout is its result as one JSON object. Without it, every
//! workload runs in a child process of its own, one after the other.

mod client;
mod layers;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use workloads::{Outcome, Plan, Sizes, Workload};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Where runs write their store file and `trace.jsonl`, relative to
/// the directory the benchmark runs in.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args { workload: None, seed: 1, seconds: 18.0, trace: false };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload =
                    Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("not an integer"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("{}:{{\"value\":{},\"unit\":{}}}", json_str(m.name), m.value, json_str(m.unit))
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.wrong == 0 && outcome.checked > 0,
        outcome.attempted,
        outcome.failed,
        fields.join(",")
    )
}

/// The commit of a git checkout in the working directory, if it is one.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(format!(".git/{name}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// The run header: the machine, the kernel variant, the commit, the
/// seed, and what the workload noted about itself.
fn header_line(plan: &Plan, outcome: &Outcome) -> String {
    let kernel = comet_nn::kernel::active();
    let mut fields = vec![
        ("workload".to_string(), json_str(plan.workload.name())),
        ("seed".to_string(), plan.seed.to_string()),
        ("seconds".to_string(), plan.seconds.to_string()),
        ("trace".to_string(), plan.trace.to_string()),
        ("nproc".to_string(), sys::nproc().to_string()),
        ("cpu".to_string(), json_str(&sys::cpu_model())),
        ("kernel".to_string(), json_str(kernel.name)),
        ("cpu_features".to_string(), json_str(&comet_nn::kernel::cpu_features())),
        ("git_commit".to_string(), json_str(&git_commit())),
    ];
    fields.extend(outcome.notes.iter().map(|(k, v)| (k.clone(), json_str(v))));
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
    format!("{{\"header\":{{{}}}}}", body.join(","))
}

fn print_table(plan: &Plan, outcome: &Outcome, metrics: &[Metric]) {
    eprintln!(
        "== {} seed {} ({}) ==",
        plan.workload.name(),
        plan.seed,
        if plan.trace { "traced" } else { "untraced" }
    );
    for m in metrics {
        eprintln!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  attempted {} failed {} checked {} wrong {}",
        outcome.attempted, outcome.failed, outcome.checked, outcome.wrong
    );
    for (k, v) in &outcome.notes {
        eprintln!("  {k}: {v}");
    }
}

fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let plan = Plan {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizes: Sizes::full(),
        out_dir: PathBuf::from(OUT_DIR),
    };
    let mut outcome = match workloads::run(&plan) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("comet-benchmark: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some(m) = outcome.e2e.iter().find(|m| !m.value.is_finite()) {
        eprintln!("comet-benchmark: {}: {} was not measured", workload.name(), m.name);
        return ExitCode::FAILURE;
    }
    // The traced run's own end-to-end numbers go to stderr and the
    // header, so the tracing overhead is visible next to the untraced
    // run's.
    if plan.trace {
        print_table(&plan, &outcome, &outcome.e2e);
        for m in outcome.e2e.clone() {
            outcome.notes.push((format!("traced.{}", m.name), m.value.to_string()));
        }
    }
    let metrics = if plan.trace { outcome.layers.clone() } else { outcome.e2e.clone() };
    print_table(&plan, &outcome, &metrics);
    println!("{}", header_line(&plan, &outcome));
    println!("{}", result_line(&outcome, &metrics));
    ExitCode::SUCCESS
}

/// Run every workload in a child process of its own, so memory peaks
/// and caches stay separate, and print their results together.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("comet-benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut results = Vec::new();
    let mut ok = true;
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        match output {
            Ok(out) if out.status.success() => {
                let stdout = String::from_utf8_lossy(&out.stdout);
                let last = stdout.lines().last().unwrap_or("null").to_string();
                results.push(format!("{}:{last}", json_str(workload.name())));
            }
            _ => {
                eprintln!("comet-benchmark: {} failed", workload.name());
                ok = false;
            }
        }
    }
    println!("{{\"workloads\":{{{}}}}}", results.join(","));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("comet-benchmark: {e}");
            eprintln!(
                "usage: comet-benchmark [--workload explain_live|explain_hot|explain_mixed|eval_neural] \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(&args, workload),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod smoke {
    use super::*;

    /// Metric names `BENCHMARK.json` lists under `key`, sorted.
    fn listed(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate");
        let spec: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let mut names: Vec<String> = spec[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| m["name"].as_str().expect("metric name").to_string())
            .collect();
        names.sort();
        names
    }

    /// Run `workload` at tiny size, untraced and traced, and check that
    /// nothing failed and every listed metric came out as a number.
    fn smoke(workload: Workload) {
        for trace in [false, true] {
            let plan = Plan {
                workload,
                seed: 3,
                seconds: 1.0,
                trace,
                sizes: Sizes::tiny(),
                out_dir: PathBuf::from(OUT_DIR).join("smoke"),
            };
            let outcome = workloads::run(&plan).expect("workload runs");
            assert_eq!(outcome.failed, 0, "{} trace={trace}: {outcome:?}", workload.name());
            assert!(outcome.checked > 0, "{}: nothing was checked", workload.name());
            assert!(outcome.attempted > 0);
            let metrics = if trace { &outcome.layers } else { &outcome.e2e };
            assert!(metrics.iter().all(|m| m.value.is_finite()), "{metrics:?}");
            let mut names: Vec<String> = metrics.iter().map(|m| m.name.to_string()).collect();
            names.sort();
            assert_eq!(names, listed(if trace { "per_layer" } else { "end_to_end" }));
            let line = result_line(&outcome, metrics);
            let parsed: serde_json::Value = serde_json::from_str(&line).expect("result is JSON");
            assert_eq!(parsed["failed"], 0u64);
        }
    }

    #[test]
    fn explain_live_smoke() {
        smoke(Workload::Live);
    }

    #[test]
    fn explain_hot_smoke() {
        smoke(Workload::Hot);
    }

    #[test]
    fn explain_mixed_smoke() {
        smoke(Workload::Mixed);
    }

    #[test]
    fn eval_neural_smoke() {
        smoke(Workload::Neural);
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let args = parse("--workload explain_hot --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(args.workload, Some(Workload::Hot));
        assert_eq!((args.seed, args.seconds, args.trace), (9, 2.5, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
    }
}
