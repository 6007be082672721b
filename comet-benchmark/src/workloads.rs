//! The four workloads: set-up, the timed phases, and the check of the
//! answers each phase got back.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use comet_bhive::{Corpus, GenConfig};
use comet_core::{BatchExec, ExplainConfig, Explainer, Explanation};
use comet_eval::context::Durability;
use comet_eval::experiments::try_explain_blocks_durable;
use comet_isa::{BasicBlock, Microarch};
use comet_models::{CostModel, CrudeModel, IthemalConfig, IthemalSurrogate};
use comet_serve::wire::{
    ExplainRequest, ExplainResponse, ExplanationDto, PredictRequest, PredictResponse, WIRE_V,
};
use comet_serve::{ModelKind, ServeConfig, Server};
use comet_store::{build_store, BuildConfig, ExplanationStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::{self, Conn, LoadSpec, PhaseLog};
use crate::layers::{self, ReplayInput};
use crate::stats;
use crate::sys;
use crate::trace::Tracer;
use crate::Metric;

/// The benchmark's workloads, in the order the default command runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop live anchors searches over novel blocks.
    Live,
    /// Open-loop store hits and cached predicts.
    Hot,
    /// Live searches sharing the server with the hot mix.
    Mixed,
    /// In-process batch explanation against the neural model.
    Neural,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] =
        [Workload::Live, Workload::Hot, Workload::Mixed, Workload::Neural];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Live => "explain_live",
            Workload::Hot => "explain_hot",
            Workload::Mixed => "explain_mixed",
            Workload::Neural => "eval_neural",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and rates. [`Sizes::full`] is the benchmark;
/// [`Sizes::tiny`] runs every code path in a couple of seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Blocks in the precomputed store.
    pub store_blocks: usize,
    /// Novel blocks `explain_live` explains.
    pub live_blocks: usize,
    /// Novel blocks `explain_mixed`'s live stream explains.
    pub mixed_blocks: usize,
    /// Novel blocks `eval_neural` explains.
    pub neural_blocks: usize,
    /// Training blocks for the neural surrogate.
    pub train_blocks: usize,
    /// Training epochs for the neural surrogate.
    pub train_epochs: usize,
    /// Times set-up runs; `setup_s` is the median.
    pub setup_repeats: usize,
    /// Untimed open-loop warm-up before `explain_hot`'s timed phase.
    /// The server arms a timer entry per request and lazily drops stale
    /// ones after its 5 s idle timeout; latency climbs until that
    /// backlog reaches steady state.
    pub hot_warmup: Duration,
    /// Untimed warm-up of `explain_mixed`'s cheap stream.
    pub mixed_warmup: Duration,
    /// `explain_hot` reference rate, requests per second.
    pub hot_rate: f64,
    /// `explain_mixed` cheap-stream rate, requests per second.
    pub mixed_rate: f64,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Sizes {
        Sizes {
            store_blocks: 64,
            live_blocks: 700,
            mixed_blocks: 400,
            neural_blocks: 128,
            train_blocks: 600,
            train_epochs: 8,
            setup_repeats: 3,
            hot_warmup: Duration::from_secs(5),
            mixed_warmup: Duration::from_secs(1),
            hot_rate: 5_000.0,
            mixed_rate: 2_000.0,
        }
    }

    /// Sizes for the smoke test.
    #[cfg(test)]
    pub fn tiny() -> Sizes {
        Sizes {
            store_blocks: 8,
            live_blocks: 12,
            mixed_blocks: 6,
            neural_blocks: 4,
            train_blocks: 16,
            train_epochs: 1,
            setup_repeats: 1,
            hot_warmup: Duration::from_millis(100),
            mixed_warmup: Duration::from_millis(100),
            hot_rate: 500.0,
            mixed_rate: 200.0,
        }
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Seeds block generation, arrival times and the request mix.
    pub seed: u64,
    /// Length of the timed part of the run.
    pub seconds: f64,
    /// Rerun with spans and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Where the store file and `trace.jsonl` go.
    pub out_dir: PathBuf,
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (or blocks) attempted in timed phases.
    pub attempted: u64,
    /// Non-200s, transport errors and wrong answers among them.
    pub failed: u64,
    /// Answers compared against a reference.
    pub checked: u64,
    /// Answers that differed from the reference.
    pub wrong: u64,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Facts about the run for the header and the stderr table.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

/// `explain_hot`'s latency limit: its throughput is the rate of
/// requests answered within it.
const HOT_LIMIT_MS: f64 = 1.0;
/// Timed phases are cut into this many windows; latency percentiles
/// and rates are the median over the windows.
const WINDOWS: usize = 6;
/// Keep one in this many responses for checking.
const CHECK_EVERY: u64 = 16;
/// Open-loop generator lateness above which a phase is marked invalid.
const VALID_LATE_P99_MS: f64 = 1.0;
/// The store corpus seed (`BuildConfig::default`); the neural training
/// corpus is comet-eval's `CORPUS_SEED + 3`, and the novel-block
/// populations take further offsets.
const CORPUS_SEED: u64 = 0xB10C5;
/// Corpus seeds of the novel-block populations.
const LIVE_CORPUS: u64 = CORPUS_SEED + 100;
const MIXED_CORPUS: u64 = CORPUS_SEED + 200;
const NEURAL_CORPUS: u64 = CORPUS_SEED + 300;

/// SplitMix64: derives independent streams from the run seed.
fn mix(seed: u64, tag: u64) -> u64 {
    let mut x = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A population of novel blocks: the corpus generated from
/// `corpus_seed`, less every block of `exclude` (the corpus has no
/// duplicates), in an order shuffled by `order_seed`. The population is
/// the same for every run seed; only the order varies, so the block mix
/// a run explains does not move its numbers.
fn novel_blocks(
    n: usize,
    corpus_seed: u64,
    exclude: &HashSet<String>,
    order_seed: u64,
) -> Vec<String> {
    let mut texts: Vec<String> = Corpus::generate(n, GenConfig::default(), corpus_seed)
        .iter()
        .map(|b| b.block.to_string())
        .filter(|text| !exclude.contains(text))
        .collect();
    let mut rng = StdRng::seed_from_u64(order_seed);
    for i in (1..texts.len()).rev() {
        texts.swap(i, rng.gen_range(0..=i));
    }
    texts
}

/// Run `setup` `repeats` times, dropping all but the last result, and
/// return it with the median set-up time.
fn timed_setup<T>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        secs.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), stats::median(&secs)))
}

/// A running server with its store; shuts down and removes the store
/// file when dropped.
pub struct Served {
    server: Option<Server>,
    /// The store the server answers from, opened again for checking.
    pub store: StoreFile,
    /// The name the server reports for its model.
    pub model_name: String,
    /// The effective server configuration.
    pub config: ServeConfig,
    /// Novel blocks for the live stream.
    pub novel: Vec<String>,
}

impl Served {
    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.server().addr()
    }

    /// The running server.
    pub fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until drop")
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Build the store, generate the live stream's novel blocks, and start
/// the server.
fn serve(plan: &Plan, population: Option<(usize, u64)>) -> Result<Served, String> {
    let store = StoreFile::build(plan)?;
    let store_texts: HashSet<String> = store.iter_texts().map(str::to_string).collect();
    let novel = match population {
        Some((n, corpus)) => novel_blocks(n, corpus, &store_texts, mix(plan.seed, corpus)),
        None => Vec::new(),
    };
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: sys::nproc(),
        store_path: Some(store.path.display().to_string()),
        ..ServeConfig::default()
    };
    let server = Server::start(ModelKind::CrudeHaswell, config.clone())
        .map_err(|e| format!("server start failed: {e}"))?;
    let model_name = ModelKind::CrudeHaswell.build().0.name().to_string();
    Ok(Served { server: Some(server), store, model_name, config, novel })
}

/// Request body of a live explain: the server's default ε and seed 0.
fn live_explain_body(text: &str) -> String {
    let request =
        ExplainRequest { v: WIRE_V, block: text.into(), epsilon: None, seed: 0, deadline_ms: None };
    serde_json::to_string(&request).expect("request serializes")
}

/// The exact response body a live explain of `text` must get: the
/// batched search at batch 1 on the bare crude model, seed 0.
fn expected_live(text: &str, model_name: &str) -> Result<Vec<u8>, String> {
    let block = comet_isa::parse_block(text).map_err(|e| format!("unparseable block: {e}"))?;
    let config = ExplainConfig { epsilon: 0.25, ..ExplainConfig::default() };
    let explainer = Explainer::new(CrudeModel::new(Microarch::Haswell), config);
    let explanation = explainer
        .explain_batched(&block, 0, &BatchExec::new(1, 1))
        .map_err(|e| format!("reference explain failed: {e}"))?;
    let response = ExplainResponse {
        v: WIRE_V,
        model: model_name.into(),
        model_version: 1,
        epsilon: 0.25,
        seed: 0,
        coalesced: false,
        explanation: ExplanationDto::from(&explanation),
    };
    Ok(serde_json::to_string(&response).expect("response serializes").into_bytes())
}

/// The `explain_hot` request mix: template `i < n` is a store-hit
/// explain of store block `i`, template `n + i` a predict of it.
pub struct HotMix {
    /// Serialized requests.
    pub templates: Vec<Vec<u8>>,
    /// The exact response body each template must get.
    pub expected: Vec<Vec<u8>>,
    /// Span name per template.
    pub names: Vec<&'static str>,
    /// Store blocks.
    pub n: usize,
}

impl HotMix {
    fn new(served: &Served) -> Result<HotMix, String> {
        let store = &served.store;
        let provenance = store.provenance();
        let epsilon = f64::from_bits(provenance.epsilon_bits);
        let crude = CrudeModel::new(Microarch::Haswell);
        let n = store.len();
        let (mut templates, mut expected) = (Vec::new(), Vec::new());
        for i in 0..n {
            let request = ExplainRequest {
                v: WIRE_V,
                block: store.text_at(i).into(),
                epsilon: Some(epsilon),
                seed: provenance.seed,
                deadline_ms: None,
            };
            let body = serde_json::to_string(&request).expect("request serializes");
            templates.push(client::http_post("/v1/explain", &body));
            let explanation = store.explanation_at(i).map_err(|e| format!("store record: {e}"))?;
            let mut dto = ExplanationDto::from(&explanation);
            dto.tier = "store".into();
            dto.source = "store".into();
            let response = ExplainResponse {
                v: WIRE_V,
                model: served.model_name.clone(),
                model_version: 1,
                epsilon,
                seed: provenance.seed,
                coalesced: false,
                explanation: dto,
            };
            expected.push(serde_json::to_string(&response).expect("serializes").into_bytes());
        }
        for i in 0..n {
            let request =
                PredictRequest { v: WIRE_V, block: store.text_at(i).into(), deadline_ms: None };
            let body = serde_json::to_string(&request).expect("request serializes");
            templates.push(client::http_post("/v1/predict", &body));
            let block = comet_isa::parse_block(store.text_at(i)).map_err(|e| e.to_string())?;
            let response = PredictResponse {
                v: WIRE_V,
                model: served.model_name.clone(),
                model_version: 1,
                prediction: crude.predict(&block),
            };
            expected.push(serde_json::to_string(&response).expect("serializes").into_bytes());
        }
        let names = (0..2 * n)
            .map(|k| if k < n { "client.explain_store" } else { "client.predict" })
            .collect();
        Ok(HotMix { templates, expected, names, n })
    }

    /// 70% store-hit explains, 30% predicts, uniform over store blocks.
    fn pick(&self) -> impl Fn(&mut StdRng) -> usize + Sync + '_ {
        move |rng: &mut StdRng| {
            let block = rng.gen_range(0..self.n);
            if rng.gen_bool(0.7) {
                block
            } else {
                self.n + block
            }
        }
    }

    /// Count sampled responses that differ from the expected bytes.
    fn check(&self, samples: &[(usize, Vec<u8>)]) -> u64 {
        let wrong = samples.iter().filter(|(kind, body)| *body != self.expected[*kind]).count();
        if let Some((kind, body)) = samples.iter().find(|(k, b)| *b != self.expected[*k]) {
            eprintln!(
                "[check] template {kind}: got {} expected {}",
                String::from_utf8_lossy(body),
                String::from_utf8_lossy(&self.expected[*kind])
            );
        }
        wrong as u64
    }
}

/// Drive `conns` pipelined connections from one load thread for one
/// phase of the hot mix.
fn phase(
    addr: SocketAddr,
    hot: &HotMix,
    rate: f64,
    duration: Duration,
    seed: u64,
    conns: usize,
    tracer: Option<&Tracer>,
) -> PhaseLog {
    let pick = hot.pick();
    let spec = LoadSpec {
        rate,
        conns,
        duration,
        seed,
        templates: &hot.templates,
        pick: &pick,
        sample_every: CHECK_EVERY,
        span_names: &hot.names,
    };
    client::drive(addr, &spec, tracer)
}

/// Windowed p50 and p90 of a phase's latencies, ms, with the
/// per-window values noted.
fn windowed_p50_p90(
    out: &mut Outcome,
    phase: &str,
    log: &PhaseLog,
    duration: Duration,
) -> (f64, f64) {
    let phase_s = duration.as_secs_f64();
    let mut at = |label: &str, q| {
        let windows = stats::window_percentiles(&log.latency_ms, &log.due_s, phase_s, WINDOWS, q);
        let shown: Vec<String> = windows.iter().map(|ms| format!("{ms:.4}")).collect();
        out.note(&format!("{phase}.window_{label}_ms"), shown.join(" "));
        stats::median(&windows)
    };
    (at("p50", 0.5), at("p90", 0.9))
}

/// What the closed-loop clients saw.
#[derive(Debug, Default)]
struct ClosedLog {
    latency_ms: Vec<f64>,
    /// Client turnaround: previous response to next send, ms.
    late_ms: Vec<f64>,
    attempted: u64,
    errors: u64,
    /// `(block index, body)` of every `CHECK_EVERY`-th block.
    samples: Vec<(usize, Vec<u8>)>,
    /// Start to last response, seconds.
    elapsed_s: f64,
}

/// `clients` closed-loop clients, one keep-alive connection each, pull
/// the next novel block from a shared counter and explain it, until
/// `duration` has passed or the blocks run out.
fn closed_loop(
    addr: SocketAddr,
    texts: &[String],
    clients: usize,
    duration: Duration,
    tracer: Option<&Tracer>,
) -> ClosedLog {
    let next = AtomicUsize::new(0);
    let merged = Mutex::new(ClosedLog::default());
    let start = Instant::now();
    let deadline = start + duration;
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut log = ClosedLog::default();
                let mut conn = Conn::connect(addr).ok();
                let mut last_done: Option<Instant> = None;
                let mut finished = start;
                while Instant::now() < deadline {
                    let i = next.fetch_add(1, Relaxed);
                    let Some(text) = texts.get(i) else { break };
                    let request = client::http_post("/v1/explain", &live_explain_body(text));
                    log.attempted += 1;
                    let Some(c) = conn.as_mut() else {
                        log.errors += 1;
                        conn = Conn::connect(addr).ok();
                        continue;
                    };
                    let sent = Instant::now();
                    if let Some(done) = last_done {
                        log.late_ms.push(sent.duration_since(done).as_secs_f64() * 1e3);
                    }
                    let result = c.call(&request);
                    let done = Instant::now();
                    last_done = Some(done);
                    finished = done;
                    if let Some(tracer) = tracer {
                        tracer.record("client.explain_live", i as u64, 0, sent, done);
                    }
                    match result {
                        Ok(response) if response.status == 200 => {
                            log.latency_ms.push(done.duration_since(sent).as_secs_f64() * 1e3);
                            if (i as u64).is_multiple_of(CHECK_EVERY) {
                                log.samples.push((i, response.body));
                            }
                        }
                        Ok(_) => log.errors += 1,
                        Err(_) => {
                            log.errors += 1;
                            conn = Conn::connect(addr).ok();
                        }
                    }
                }
                let mut all = merged.lock().expect("client log poisoned");
                all.latency_ms.extend(log.latency_ms);
                all.late_ms.extend(log.late_ms);
                all.attempted += log.attempted;
                all.errors += log.errors;
                all.samples.extend(log.samples);
                all.elapsed_s = all.elapsed_s.max(finished.duration_since(start).as_secs_f64());
            });
        }
    });
    merged.into_inner().expect("client log poisoned")
}

/// Check sampled live answers against the reference search.
fn check_live(samples: &[(usize, Vec<u8>)], texts: &[String], model_name: &str) -> u64 {
    let mut wrong = 0;
    for (i, body) in samples {
        match expected_live(&texts[*i], model_name) {
            Ok(expected) if expected == *body => {}
            Ok(expected) => {
                if wrong == 0 {
                    eprintln!(
                        "[check] live block {i}: got {} expected {}",
                        String::from_utf8_lossy(body),
                        String::from_utf8_lossy(&expected)
                    );
                }
                wrong += 1;
            }
            Err(e) => {
                eprintln!("[check] live block {i}: {e}");
                wrong += 1;
            }
        }
    }
    wrong
}

fn ms_p(sorted: &[f64], q: f64) -> f64 {
    stats::percentile(sorted, q)
}

/// Record p50/p90/p99 and their sample support as notes.
fn note_latency(out: &mut Outcome, prefix: &str, sorted: &[f64]) {
    out.note(&format!("{prefix}.samples"), sorted.len());
    for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        let supported = if stats::supports(sorted.len(), q) { "" } else { " (unsupported)" };
        out.note(&format!("{prefix}.{label}_ms"), format!("{:.4}{supported}", ms_p(sorted, q)));
    }
}

/// Mark an open-loop phase valid when its generator kept to schedule.
fn note_lateness(out: &mut Outcome, phase: &str, late_ms: &[f64]) {
    let late = stats::sorted(late_ms.to_vec());
    let p99 = ms_p(&late, 0.99);
    out.note(&format!("{phase}.late_p99_ms"), format!("{p99:.4}"));
    out.note(&format!("{phase}.valid"), p99.is_nan() || p99 <= VALID_LATE_P99_MS);
}

/// Note why a phase's first request failed, if one did.
fn note_error(out: &mut Outcome, phase: &str, log: &PhaseLog) {
    if let Some(error) = &log.first_error {
        out.note(&format!("{phase}.first_error"), error);
    }
}

/// The common end-to-end metrics, in `BENCHMARK.json` order.
fn e2e(setup_s: f64, p50_ms: f64, p90_ms: f64, throughput: f64) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("latency_p50_ms", p50_ms, "ms"),
        Metric::new("latency_p90_ms", p90_ms, "ms"),
        Metric::new("throughput_per_s", throughput, "1/s"),
        Metric::new("peak_rss_mb", sys::peak_rss_mb(), "MB"),
    ]
}

/// Run one workload per `plan`.
pub fn run(plan: &Plan) -> Result<Outcome, String> {
    let tracer = plan.trace.then(Tracer::default);
    let mut out = match plan.workload {
        Workload::Live => run_live(plan, tracer.as_ref())?,
        Workload::Hot => run_hot(plan, tracer.as_ref())?,
        Workload::Mixed => run_mixed(plan, tracer.as_ref())?,
        Workload::Neural => run_neural(plan, tracer.as_ref())?,
    };
    out.failed += out.wrong;
    if let Some(tracer) = &tracer {
        let path = plan.out_dir.join(plan.workload.name()).join("trace.jsonl");
        let dropped = tracer
            .write_jsonl(&path, layers::TRACE_CAP)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        out.note("trace.file", path.display());
        out.note("trace.dropped_spans", dropped);
    }
    Ok(out)
}

/// What a server workload's traced run hands the layer replay.
struct ServerView<'a> {
    served: &'a Served,
    /// The blocks the workload sent, replayed one in eight.
    texts: Vec<String>,
    /// Client-side latencies of explain requests, sorted, ms.
    client_explain_ms: Vec<f64>,
    /// Store-block explains the clients sent.
    store_explains_sent: u64,
    late_ms: Vec<f64>,
    /// Whether the request path includes a live search.
    searches: bool,
}

/// Per-layer metrics from the server's counters, plus notes breaking
/// the client p50 down into front-end overhead, handler stages and
/// what the replayed stages leave unattributed. The breakdown and the
/// generator lateness are notes, not metrics: `eval_neural` has no
/// server and no generator, so they would read a constant 0 there.
fn server_layers(
    out: &mut Outcome,
    view: &ServerView<'_>,
    replay: &layers::Replayed,
) -> Vec<Metric> {
    let ctx = view.served.server().ctx();
    let metrics = ctx.metrics();
    let handler_us = metrics.explain_latency().quantile_us(0.5);
    let client_us = ms_p(&view.client_explain_ms, 0.5) * 1e3;
    let mut stages_us = replay.request_path_us();
    if view.searches {
        stages_us += replay.explain_ms_p50 * 1e3;
    }
    let late = stats::sorted(view.late_ms.clone());
    out.note("layer.client_explain_us_p50", format!("{client_us:.1}"));
    out.note("layer.event.overhead_us_p50", format!("{:.1}", client_us - handler_us));
    out.note("layer.server.handler_us_p50", format!("{handler_us:.1}"));
    out.note("layer.replayed_stages_us", format!("{stages_us:.1}"));
    out.note("layer.server.unattributed_us_p50", format!("{:.1}", handler_us - stages_us));
    out.note("layer.bench.late_ms_p99", format!("{:.4}", ms_p(&late, 0.99)));
    out.note("layer.bench.late_ms_max", format!("{:.4}", late.last().copied().unwrap_or(0.0)));
    let cache = ctx.cache_stats();
    vec![
        Metric::new(
            "store.hit_ratio",
            metrics.store_hit_count() as f64 / view.store_explains_sent.max(1) as f64,
            "ratio",
        ),
        Metric::new("admission.shed_total", metrics.shed_count() as f64, "count"),
        Metric::new("models.cache_hit_ratio", cache.hit_rate(), "ratio"),
        Metric::new("models.cache_entries", cache.entries as f64, "count"),
        Metric::new("eval.worker_busy_ratio", 0.0, "ratio"),
    ]
}

/// Replay the serving layers on a 1-in-8 sample of the workload's
/// blocks, explained at seed 0 under the serving configuration, and
/// set the per-layer metrics: the server's counters, then the replays.
fn trace_server(out: &mut Outcome, view: ServerView<'_>, tracer: &Tracer) -> Result<(), String> {
    let input = ReplayInput {
        texts: layers::sample(&view.texts),
        seeds: None,
        config: ExplainConfig { epsilon: 0.25, ..ExplainConfig::default() },
        store: &view.served.store,
    };
    let replay = layers::replay(&input, tracer)?;
    out.layers = server_layers(out, &view, &replay);
    out.layers.extend(replay.metrics());
    Ok(())
}

fn run_live(plan: &Plan, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let population = Some((plan.sizes.live_blocks, LIVE_CORPUS));
    let (served, setup_s) = timed_setup(plan.sizes.setup_repeats, || serve(plan, population))?;
    let duration = Duration::from_secs_f64(plan.seconds);
    let log = closed_loop(served.addr(), &served.novel, 2, duration, tracer);
    let mut out = Outcome { attempted: log.attempted, failed: log.errors, ..Outcome::default() };
    out.checked = log.samples.len() as u64;
    out.wrong = check_live(&log.samples, &served.novel, &served.model_name);
    let sorted = stats::sorted(log.latency_ms.clone());
    let throughput = sorted.len() as f64 / log.elapsed_s.max(1e-9);
    note_latency(&mut out, "live", &sorted);
    out.note("live.blocks_available", served.novel.len());
    out.note("serve_config", format!("{:?}", served.config));
    out.e2e = e2e(setup_s, ms_p(&sorted, 0.5), ms_p(&sorted, 0.9), throughput);
    if let Some(tracer) = tracer {
        let view = ServerView {
            served: &served,
            texts: served.novel.iter().take(log.attempted as usize).cloned().collect(),
            client_explain_ms: sorted,
            store_explains_sent: 0,
            late_ms: log.late_ms,
            searches: true,
        };
        trace_server(&mut out, view, tracer)?;
    }
    Ok(out)
}

fn run_hot(plan: &Plan, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let (served, setup_s) = timed_setup(plan.sizes.setup_repeats, || serve(plan, None))?;
    let hot = HotMix::new(&served)?;
    let addr = served.addr();
    let rate = plan.sizes.hot_rate;
    let warm = phase(addr, &hot, rate, plan.sizes.hot_warmup, mix(plan.seed, 10), 2, None);
    let duration = Duration::from_secs_f64(plan.seconds);
    let reference = phase(addr, &hot, rate, duration, mix(plan.seed, 11), 2, tracer);
    let mut out = Outcome {
        attempted: reference.attempted,
        failed: reference.errors,
        checked: reference.samples.len() as u64,
        wrong: hot.check(&reference.samples),
        ..Outcome::default()
    };
    note_error(&mut out, "reference", &reference);
    note_latency(&mut out, "reference", &stats::sorted(reference.latency_ms.clone()));
    note_lateness(&mut out, "reference", &reference.late_ms);
    out.note("serve_config", format!("{:?}", served.config));
    let (p50, p90) = windowed_p50_p90(&mut out, "reference", &reference, duration);
    // Goodput at the offered rate: answers within the limit per second.
    let within: Vec<f64> = reference
        .latency_ms
        .iter()
        .zip(&reference.due_s)
        .filter(|(ms, _)| **ms <= HOT_LIMIT_MS)
        .map(|(_, at)| *at)
        .collect();
    let goodput = stats::median(&stats::window_rates(&within, plan.seconds, WINDOWS));
    out.e2e = e2e(setup_s, p50, p90, goodput);
    if let Some(tracer) = tracer {
        let view = ServerView {
            served: &served,
            texts: served.store.iter_texts().map(str::to_string).collect(),
            client_explain_ms: explain_latencies(&reference, hot.n),
            store_explains_sent: store_explains(&[&warm, &reference], hot.n),
            late_ms: reference.late_ms.clone(),
            searches: false,
        };
        trace_server(&mut out, view, tracer)?;
    }
    Ok(out)
}

/// Sorted client latencies of the store-hit explains in `log`.
fn explain_latencies(log: &PhaseLog, n: usize) -> Vec<f64> {
    let explains = log.latency_ms.iter().zip(&log.kinds).filter(|(_, k)| **k < n);
    stats::sorted(explains.map(|(ms, _)| *ms).collect())
}

/// Store-hit explains sent across `logs`.
fn store_explains(logs: &[&PhaseLog], n: usize) -> u64 {
    logs.iter().map(|log| log.sent_kinds[..n].iter().sum::<u64>()).sum()
}

fn run_mixed(plan: &Plan, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let population = Some((plan.sizes.mixed_blocks, MIXED_CORPUS));
    let (served, setup_s) = timed_setup(plan.sizes.setup_repeats, || serve(plan, population))?;
    let hot = HotMix::new(&served)?;
    let addr = served.addr();
    let rate = plan.sizes.mixed_rate;
    let warm = phase(addr, &hot, rate, plan.sizes.mixed_warmup, mix(plan.seed, 30), 1, None);
    let duration = Duration::from_secs_f64(plan.seconds);
    let (live, cheap) = std::thread::scope(|scope| {
        let live = scope.spawn(|| closed_loop(addr, &served.novel, 1, duration, tracer));
        let cheap = phase(addr, &hot, rate, duration, mix(plan.seed, 31), 1, tracer);
        (live.join().expect("live client panicked"), cheap)
    });
    let mut out = Outcome {
        attempted: live.attempted + cheap.attempted,
        failed: live.errors + cheap.errors,
        ..Outcome::default()
    };
    out.checked = (live.samples.len() + cheap.samples.len()) as u64;
    out.wrong =
        check_live(&live.samples, &served.novel, &served.model_name) + hot.check(&cheap.samples);
    note_latency(&mut out, "cheap", &stats::sorted(cheap.latency_ms.clone()));
    note_latency(&mut out, "live", &stats::sorted(live.latency_ms.clone()));
    note_lateness(&mut out, "cheap", &cheap.late_ms);
    note_error(&mut out, "cheap", &cheap);
    let throughput = live.latency_ms.len() as f64 / live.elapsed_s.max(1e-9);
    out.note("serve_config", format!("{:?}", served.config));
    let (p50, p90) = windowed_p50_p90(&mut out, "cheap", &cheap, duration);
    out.e2e = e2e(setup_s, p50, p90, throughput);
    if let Some(tracer) = tracer {
        let mut texts: Vec<String> = served.store.iter_texts().map(str::to_string).collect();
        texts.extend(served.novel.iter().take(live.attempted as usize).cloned());
        let view = ServerView {
            served: &served,
            texts,
            client_explain_ms: explain_latencies(&cheap, hot.n),
            store_explains_sent: store_explains(&[&warm, &cheap], hot.n),
            late_ms: cheap.late_ms,
            searches: false,
        };
        trace_server(&mut out, view, tracer)?;
    }
    Ok(out)
}

/// `eval_neural`'s explanation settings: comet-eval's quick-scale
/// `model_config` (coverage 600, 400 samples per candidate, 12,000
/// queries, ε 0.5).
pub fn neural_config() -> ExplainConfig {
    ExplainConfig {
        coverage_samples: 600,
        max_samples: 400,
        max_total_queries: 12_000,
        ..ExplainConfig::for_throughput_model()
    }
}

/// The per-block seed `try_explain_blocks` gives block `i`.
fn block_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64)
}

/// Train the surrogate `eval_neural` explains.
pub fn train_surrogate(blocks: usize, epochs: usize) -> IthemalSurrogate {
    let corpus = Corpus::generate(blocks, GenConfig::default(), CORPUS_SEED + 3);
    IthemalSurrogate::train(
        Microarch::Haswell,
        &corpus.training_pairs(Microarch::Haswell),
        IthemalConfig { epochs, ..IthemalConfig::default() },
    )
}

fn run_neural(plan: &Plan, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let sizes = plan.sizes;
    let ((model, blocks), setup_s) = timed_setup(sizes.setup_repeats, || {
        let model = train_surrogate(sizes.train_blocks, sizes.train_epochs);
        let store_corpus = Corpus::generate(sizes.store_blocks, GenConfig::default(), CORPUS_SEED);
        let exclude: HashSet<String> = store_corpus.iter().map(|b| b.block.to_string()).collect();
        let order = mix(plan.seed, NEURAL_CORPUS);
        let texts = novel_blocks(sizes.neural_blocks, NEURAL_CORPUS, &exclude, order);
        let blocks: Vec<BasicBlock> = texts
            .iter()
            .map(|t| comet_isa::parse_block(t).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        Ok((model, blocks))
    })?;
    let refs: Vec<&BasicBlock> = blocks.iter().collect();
    let durability = Durability::default();
    let config = neural_config();
    let start = Instant::now();
    let (stop, stopped) = mpsc::channel::<()>();
    let slots = std::thread::scope(|scope| {
        let cancel = durability.cancel.clone();
        let seconds = plan.seconds;
        scope.spawn(move || {
            // Cancel at the deadline unless the run ends first.
            if stopped.recv_timeout(Duration::from_secs_f64(seconds)).is_err() {
                cancel.cancel();
            }
        });
        let slots = try_explain_blocks_durable(&model, &refs, config, plan.seed, &durability, "");
        let _ = stop.send(());
        slots
    })
    .map_err(|e| format!("explain run failed: {e}"))?;
    let end = Instant::now();
    let wall = end.duration_since(start).as_secs_f64();
    if let Some(tracer) = tracer {
        tracer.record("eval.try_explain_blocks", 0, 0, start, end);
    }

    let mut out = Outcome::default();
    let mut done: Vec<(usize, Explanation)> = Vec::new();
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Ok(explanation)) => done.push((i, explanation)),
            Some(Err(e)) => {
                eprintln!("[eval] block {i} failed: {e}");
                out.failed += 1;
            }
            None => continue,
        }
        out.attempted += 1;
    }
    // Check a deterministic sample against a reference search.
    let explainer = Explainer::new(&model, config);
    let exec = BatchExec::new(16, 1);
    for (i, explanation) in done.iter().filter(|(i, _)| (*i as u64).is_multiple_of(CHECK_EVERY)) {
        out.checked += 1;
        let reference = explainer.explain_batched(&blocks[*i], block_seed(plan.seed, *i), &exec);
        let same = reference.as_ref().is_ok_and(|r| {
            serde_json::to_string(r).ok() == serde_json::to_string(explanation).ok()
        });
        if !same {
            eprintln!("[check] neural block {i}: {explanation:?} != {reference:?}");
            out.wrong += 1;
        }
    }
    let durations: Vec<f64> = done.iter().map(|(_, e)| e.duration_secs * 1e3).collect();
    let busy_s: f64 = durations.iter().sum::<f64>() / 1e3;
    let sorted = stats::sorted(durations);
    note_latency(&mut out, "explain", &sorted);
    out.note("blocks_available", blocks.len());
    let (p50, p90) = (ms_p(&sorted, 0.5), ms_p(&sorted, 0.9));
    out.e2e = e2e(setup_s, p50, p90, done.len() as f64 / wall);
    if let Some(tracer) = tracer {
        // The neural path has no store; build one so the lookup replay
        // runs on this workload's blocks too.
        let store = StoreFile::build(plan)?;
        let texts: Vec<String> = done.iter().map(|(i, _)| blocks[*i].to_string()).collect();
        let indices: Vec<usize> = done.iter().map(|(i, _)| *i).collect();
        let input = ReplayInput {
            texts: layers::sample(&texts),
            seeds: Some(
                layers::sample(&indices).into_iter().map(|i| block_seed(plan.seed, i)).collect(),
            ),
            config,
            store: &store,
        };
        let replay = layers::replay_with_model(&input, &model, tracer)?;
        let workers = sys::nproc().min(blocks.len().max(1)) as f64;
        out.layers = vec![
            Metric::new("store.hit_ratio", 0.0, "ratio"),
            Metric::new("admission.shed_total", 0.0, "count"),
            Metric::new("models.cache_hit_ratio", 0.0, "ratio"),
            Metric::new("models.cache_entries", 0.0, "count"),
            Metric::new("eval.worker_busy_ratio", busy_s / (wall * workers), "ratio"),
        ];
        out.layers.extend(replay.metrics());
    }
    Ok(out)
}

/// The set-up's store: built with `BuildConfig::default()` at the
/// plan's size, opened, and removed when dropped.
pub struct StoreFile {
    store: ExplanationStore,
    path: PathBuf,
}

impl std::ops::Deref for StoreFile {
    type Target = ExplanationStore;
    fn deref(&self) -> &ExplanationStore {
        &self.store
    }
}

impl StoreFile {
    fn build(plan: &Plan) -> Result<StoreFile, String> {
        std::fs::create_dir_all(&plan.out_dir)
            .map_err(|e| format!("cannot create out dir: {e}"))?;
        // Unique per build, so concurrent runs never share a file.
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        let n = BUILDS.fetch_add(1, Relaxed);
        let path = plan.out_dir.join(format!("store-{}-{n}.comets", std::process::id()));
        let build = BuildConfig { blocks: plan.sizes.store_blocks, ..BuildConfig::default() };
        build_store(&path, &build).map_err(|e| format!("store build failed: {e}"))?;
        let store = ExplanationStore::open(&path).map_err(|e| format!("store open: {e}"))?;
        Ok(StoreFile { store, path })
    }
}

impl Drop for StoreFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}
