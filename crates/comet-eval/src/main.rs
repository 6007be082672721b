//! `comet-eval` — regenerate the paper's tables and figures.
//!
//! ```text
//! comet-eval [--scale quick|standard|paper] [--exp all|table2|table3|
//!             fig2|fig3|fig4|fig5|fig6|fig7|fig8|appf|cases|mape]
//!            [--out FILE] [--journal DIR] [--batch N] [--search-pool N]
//!            [--force-scalar]
//! ```
//!
//! `--force-scalar` pins the inference kernel to the portable scalar
//! variant (`scalar-v1`) regardless of CPU features — the knob for
//! reproducing results bit-for-bit against a machine without AVX2.
//!
//! `--batch` sets the model-query batch size of the anchors search and
//! `--search-pool` its intra-explanation worker count; results are
//! invariant to both (they only trade throughput), and the defaults
//! (16, 1) suit the block-parallel experiment runners.
//!
//! With `--journal DIR`, completed block explanations are written ahead
//! to checksummed journals under `DIR`; an interrupted run (Ctrl-C, or
//! a crash) re-run with the same command resumes where it stopped and
//! produces identical output. The first Ctrl-C cancels cooperatively
//! (in-flight blocks drain and are journaled); a second aborts at once.

use std::fmt::Write as _;
use std::time::Instant;

use comet_core::cancel::{install_sigint, CancelToken};
use comet_eval::{ablations, experiments, extras, figures, Durability, EvalContext, Scale};

/// Process exit status for an interrupted (SIGINT) run, shell-style.
const SIGINT_EXIT: i32 = 130;

fn main() {
    let mut scale_name = "standard".to_string();
    let mut exp = "all".to_string();
    let mut out: Option<String> = None;
    let mut journal_dir: Option<String> = None;
    let defaults = Durability::default();
    let mut batch = defaults.batch;
    let mut search_pool = defaults.search_pool;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => scale_name = args.next().unwrap_or_else(|| usage("missing scale")),
            "--exp" => exp = args.next().unwrap_or_else(|| usage("missing experiment")),
            "--out" => out = Some(args.next().unwrap_or_else(|| usage("missing output path"))),
            "--journal" => {
                journal_dir = Some(args.next().unwrap_or_else(|| usage("missing journal dir")))
            }
            "--batch" => batch = parse_knob(args.next(), "--batch"),
            "--search-pool" => search_pool = parse_knob(args.next(), "--search-pool"),
            "--force-scalar" => {
                let _ = comet_nn::kernel::force_scalar();
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let scale = match scale_name.as_str() {
        "quick" => Scale::quick(),
        "standard" => Scale::standard(),
        "paper" => Scale::paper(),
        other => usage(&format!("unknown scale `{other}`")),
    };

    let cancel = CancelToken::new();
    install_sigint(cancel.clone());
    let durability = Durability {
        journal_dir: journal_dir.map(Into::into),
        cancel: cancel.clone(),
        batch,
        search_pool,
    };

    let mut report = String::new();
    let _ = writeln!(report, "# COMET reproduction — experiment results\n");
    let _ = writeln!(
        report,
        "Scale: `{scale_name}` (test {} / sources {}x2 / categories {}x6 / seeds {} / coverage {}).\n",
        scale.test_blocks, scale.source_blocks, scale.category_blocks, scale.seeds,
        scale.coverage_samples
    );

    // Appendix F needs no context; run it first so `--exp appf` is instant.
    let wants = |name: &str| exp == "all" || exp == name;
    if wants("appf") {
        section(&mut report, extras::run_appendix_f().to_string());
    }
    if exp == "appf" {
        finish(&report, out.as_deref());
        return;
    }

    eprintln!("[comet-eval] building corpora and training surrogates ({scale_name} scale)...");
    let t0 = Instant::now();
    let mut ctx = EvalContext::build(scale);
    ctx.durability = durability;
    eprintln!("[comet-eval] context ready in {:.1}s", t0.elapsed().as_secs_f64());

    type Experiment = Box<dyn Fn(&EvalContext) -> comet_eval::report::Table>;
    let experiments_list: [(&str, Experiment); 10] = [
        ("mape", Box::new(figures::run_mape_table)),
        ("table2", Box::new(experiments::run_table2)),
        ("table3", Box::new(experiments::run_table3)),
        ("fig2", Box::new(figures::run_figure2)),
        ("fig3", Box::new(figures::run_figure3)),
        ("fig4", Box::new(figures::run_figure4)),
        ("fig5", Box::new(ablations::run_figure5)),
        ("fig6", Box::new(ablations::run_figure6)),
        ("fig7", Box::new(ablations::run_figure7)),
        ("fig8", Box::new(ablations::run_figure8)),
    ];
    for (name, run) in experiments_list {
        if !wants(name) {
            continue;
        }
        eprintln!("[comet-eval] running {name}...");
        let t = Instant::now();
        let table = run(&ctx);
        if cancel.is_cancelled() {
            interrupted(&report, out.as_deref(), name);
        }
        eprintln!("[comet-eval] {name} done in {:.1}s", t.elapsed().as_secs_f64());
        section(&mut report, table.to_string());
    }
    if wants("cases") {
        eprintln!("[comet-eval] running case studies...");
        section(&mut report, extras::case_study_hardware().to_string());
        let cases = extras::run_case_studies(&ctx).to_string();
        if cancel.is_cancelled() {
            interrupted(&report, out.as_deref(), "cases");
        }
        section(&mut report, cases);
    }

    finish(&report, out.as_deref());
}

/// An experiment was cancelled mid-run: its partial table would be
/// misleading, so write only the sections finished before it, explain
/// how to resume, and exit with the conventional SIGINT status.
fn interrupted(report: &str, out: Option<&str>, name: &str) -> ! {
    eprintln!(
        "[comet-eval] interrupted during {name}; completed blocks are journaled — \
         re-run the same command to resume"
    );
    finish(report, out);
    std::process::exit(SIGINT_EXIT);
}

fn section(report: &mut String, text: String) {
    let _ = writeln!(report, "{text}");
    println!("{text}");
}

fn finish(report: &str, out: Option<&str>) {
    if let Some(path) = out {
        std::fs::write(path, report).unwrap_or_else(|e| {
            eprintln!("[comet-eval] failed to write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("[comet-eval] wrote {path}");
    }
}

fn parse_knob(value: Option<String>, name: &str) -> usize {
    let text = value.unwrap_or_else(|| usage(&format!("missing value for {name}")));
    match text.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => usage(&format!("{name} needs a positive integer, got `{text}`")),
    }
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!(
        "usage: comet-eval [--scale quick|standard|paper] [--exp all|table2|table3|fig2..fig8|appf|cases|mape] [--out FILE] [--journal DIR] [--batch N] [--search-pool N] [--force-scalar]"
    );
    std::process::exit(if problem.is_empty() { 0 } else { 2 });
}
