//! Per-layer replay: after the timed phase, a deterministic 1-in-8
//! sample of the workload's own inputs is pushed through each layer's
//! public function, with spans around every call.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

use comet_core::{BatchExec, ExplainConfig, Explainer, Explanation, FeatureSet, Perturber};
use comet_isa::{BasicBlock, Microarch};
use comet_models::{CachedModel, CostModel, CrudeModel, IthemalSurrogate, ModelError, Vocab};
use comet_serve::http::{self, RequestParser};
use comet_serve::wire::{self, ExplainRequest, ExplainResponse, ExplanationDto, WIRE_V};
use comet_store::ExplanationStore;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats;
use crate::trace::{self, Tracer};
use crate::Metric;

/// Most spans written to `trace.jsonl`.
pub const TRACE_CAP: usize = 200_000;
/// Replay one input in this many.
const SAMPLE_EVERY: usize = 8;
/// Most inputs replayed through the request-path stages.
const PATH_CAP: usize = 256;
/// Most inputs replayed through the anchors search.
const EXPLAIN_CAP: usize = 32;
/// Calls per timed loop of a microsecond-scale stage.
const REPS: u32 = 32;
/// Model batches kept for the tokenizer and network replays.
const BATCHES_KEPT: usize = 64;

/// Every `SAMPLE_EVERY`-th item, starting with the first.
pub fn sample<T: Clone>(items: &[T]) -> Vec<T> {
    items.iter().step_by(SAMPLE_EVERY).cloned().collect()
}

/// What the replay runs on.
pub struct ReplayInput<'a> {
    /// Canonical block texts, already sampled.
    pub texts: Vec<String>,
    /// Search seed per text; seed 0 (the serving default) when `None`.
    pub seeds: Option<Vec<u64>>,
    /// The search configuration the workload used.
    pub config: ExplainConfig,
    /// The store lookups go to.
    pub store: &'a ExplanationStore,
}

/// Replayed per-layer costs.
#[derive(Debug, Default)]
pub struct Replayed {
    isa_parse_us: f64,
    http_parse_us: f64,
    http_write_us: f64,
    wire_decode_us: f64,
    wire_encode_us: f64,
    store_lookup_us: f64,
    /// Median replayed search, ms.
    pub explain_ms_p50: f64,
    explain_ms_p90: f64,
    search_self_ms_p50: f64,
    queries_per_explanation: f64,
    batch_occupancy: f64,
    perturb_ns: f64,
    predict_ns_per_query: f64,
    cache_overhead_ns_per_query: f64,
    tokenize_ns_per_block: f64,
    lanes_per_call: f64,
    nn_predict_ns_per_block: f64,
}

impl Replayed {
    /// Sum of the request-path stages a served explain passes through
    /// besides the search, µs.
    pub fn request_path_us(&self) -> f64 {
        self.http_parse_us
            + self.wire_decode_us
            + self.isa_parse_us
            + self.store_lookup_us
            + self.wire_encode_us
            + self.http_write_us
    }

    /// The replayed metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("http.parse_us", self.http_parse_us, "us"),
            Metric::new("http.write_us", self.http_write_us, "us"),
            Metric::new("wire.decode_us", self.wire_decode_us, "us"),
            Metric::new("wire.encode_us", self.wire_encode_us, "us"),
            Metric::new("isa.parse_us", self.isa_parse_us, "us"),
            Metric::new("store.lookup_us", self.store_lookup_us, "us"),
            Metric::new("core.explain_ms_p50", self.explain_ms_p50, "ms"),
            Metric::new("core.explain_ms_p90", self.explain_ms_p90, "ms"),
            Metric::new("core.search_self_ms_p50", self.search_self_ms_p50, "ms"),
            Metric::new("core.queries_per_explanation", self.queries_per_explanation, "count"),
            Metric::new("core.batch_occupancy", self.batch_occupancy, "ratio"),
            Metric::new("core.perturb_ns", self.perturb_ns, "ns"),
            Metric::new("models.predict_ns_per_query", self.predict_ns_per_query, "ns"),
            Metric::new(
                "models.cache_overhead_ns_per_query",
                self.cache_overhead_ns_per_query,
                "ns",
            ),
            Metric::new("models.tokenize_ns_per_block", self.tokenize_ns_per_block, "ns"),
            Metric::new("nn.lanes_per_call", self.lanes_per_call, "count"),
            Metric::new("nn.predict_ns_per_block", self.nn_predict_ns_per_block, "ns"),
        ]
    }
}

/// A `CostModel` that times every call into the model it wraps,
/// records each as a `models.predict` span under the current search,
/// and keeps the first batches it saw.
struct TimingModel<'a> {
    inner: &'a (dyn CostModel + Sync),
    tracer: &'a Tracer,
    /// Span id of the search in progress.
    parent: AtomicU64,
    calls: AtomicU64,
    items: AtomicU64,
    ns: AtomicU64,
    seen: Mutex<Vec<Vec<BasicBlock>>>,
}

impl TimingModel<'_> {
    fn timed<T>(&self, items: &[BasicBlock], call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        self.tracer.record("models.predict", 0, self.parent.load(Relaxed), start, end);
        self.calls.fetch_add(1, Relaxed);
        self.items.fetch_add(items.len() as u64, Relaxed);
        self.ns.fetch_add(end.duration_since(start).as_nanos() as u64, Relaxed);
        let mut seen = self.seen.lock().expect("batch list poisoned");
        if seen.len() < BATCHES_KEPT {
            seen.push(items.to_vec());
        }
        out
    }
}

impl CostModel for TimingModel<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn predict(&self, block: &BasicBlock) -> f64 {
        self.timed(std::slice::from_ref(block), || self.inner.predict(block))
    }

    fn try_predict(&self, block: &BasicBlock) -> Result<f64, ModelError> {
        self.timed(std::slice::from_ref(block), || self.inner.try_predict(block))
    }

    fn predict_batch(&self, blocks: &[BasicBlock]) -> Vec<Result<f64, ModelError>> {
        self.timed(blocks, || self.inner.predict_batch(blocks))
    }
}

/// Time `REPS` calls of `f` as one span and return µs per call.
fn per_call_us(tracer: &Tracer, name: &'static str, req: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..REPS {
        f();
    }
    let end = Instant::now();
    tracer.record(name, req, 0, start, end);
    end.duration_since(start).as_secs_f64() * 1e6 / f64::from(REPS)
}

fn parse(text: &str) -> Result<BasicBlock, String> {
    comet_isa::parse_block(text).map_err(|e| format!("replay block does not parse: {e}"))
}

/// Replay the serving layers: the crude model is the base, and a
/// one-epoch surrogate stands in for the network (its cost per block
/// does not depend on its weights).
pub fn replay(input: &ReplayInput<'_>, tracer: &Tracer) -> Result<Replayed, String> {
    let surrogate = crate::workloads::train_surrogate(64, 1);
    replay_layers(input, &CrudeModel::new(Microarch::Haswell), &surrogate, tracer)
}

/// Replay with `model` as both the base and the network.
pub fn replay_with_model(
    input: &ReplayInput<'_>,
    model: &IthemalSurrogate,
    tracer: &Tracer,
) -> Result<Replayed, String> {
    replay_layers(input, model, model, tracer)
}

fn replay_layers(
    input: &ReplayInput<'_>,
    base: &(dyn CostModel + Sync),
    network: &IthemalSurrogate,
    tracer: &Tracer,
) -> Result<Replayed, String> {
    if input.texts.is_empty() {
        return Err("nothing to replay: the workload completed no requests".into());
    }
    let mut out = Replayed::default();
    let config = input.config;
    let seed_of = |j: usize| input.seeds.as_ref().map_or(0, |s| s[j]);
    let blocks: Vec<BasicBlock> =
        input.texts.iter().take(EXPLAIN_CAP).map(|t| parse(t)).collect::<Result<_, _>>()?;

    // The anchors search on the bare model, with model calls timed.
    let timing = TimingModel {
        inner: base,
        tracer,
        parent: AtomicU64::new(0),
        calls: AtomicU64::new(0),
        items: AtomicU64::new(0),
        ns: AtomicU64::new(0),
        seen: Mutex::new(Vec::new()),
    };
    let exec = BatchExec::new(16, 1);
    let explainer = Explainer::new(&timing, config);
    let mut explanations: Vec<Explanation> = Vec::new();
    let mut explain_ids = Vec::new();
    for (j, block) in blocks.iter().enumerate() {
        let id = tracer.reserve();
        timing.parent.store(id, Relaxed);
        let start = Instant::now();
        let explanation = explainer
            .explain_batched(block, seed_of(j), &exec)
            .map_err(|e| format!("replayed search failed: {e}"))?;
        tracer.record_as(id, "core.explain", j as u64, 0, start, Instant::now());
        explain_ids.push(id);
        explanations.push(explanation);
    }
    let spans = tracer.spans();
    let mut children: HashMap<u64, Vec<trace::Span>> = HashMap::new();
    for span in &spans {
        children.entry(span.parent).or_default().push(*span);
    }
    let by_id: HashMap<u64, &trace::Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut explain_ms = Vec::new();
    let mut self_ms = Vec::new();
    for id in &explain_ids {
        let span = by_id[id];
        explain_ms.push(span.ns() as f64 / 1e6);
        let kids = children.get(id).map_or(&[][..], Vec::as_slice);
        self_ms.push(trace::self_time_ns(span, kids) as f64 / 1e6);
    }
    let explain_sorted = stats::sorted(explain_ms);
    out.explain_ms_p50 = stats::percentile(&explain_sorted, 0.5);
    out.explain_ms_p90 = stats::percentile(&explain_sorted, 0.9);
    out.search_self_ms_p50 = stats::median(&self_ms);
    let queries: u64 = explanations.iter().map(|e| e.queries).sum();
    out.queries_per_explanation = queries as f64 / explanations.len() as f64;
    out.batch_occupancy = exec.occupancy();
    let items = timing.items.load(Relaxed).max(1);
    out.predict_ns_per_query = timing.ns.load(Relaxed) as f64 / items as f64;
    out.lanes_per_call = items as f64 / timing.calls.load(Relaxed).max(1) as f64;

    // The same searches untraced, bare and behind a fresh prediction
    // cache: the difference is what the cache costs per query.
    let run_all = |model: &(dyn CostModel + Sync)| -> f64 {
        let explainer = Explainer::new(model, config);
        let exec = BatchExec::new(16, 1);
        let start = Instant::now();
        for (j, block) in blocks.iter().enumerate() {
            let _ = black_box(explainer.explain_batched(block, seed_of(j), &exec));
        }
        start.elapsed().as_nanos() as f64
    };
    let bare_ns = run_all(base);
    let cached = CachedModel::bounded(base, 1 << 20);
    let cached_ns = run_all(&cached);
    out.cache_overhead_ns_per_query = (cached_ns - bare_ns) / queries.max(1) as f64;

    // Γ sampling: one perturbation of the whole block, no features kept.
    let mut perturb_ns = Vec::new();
    for (j, block) in blocks.iter().enumerate() {
        let perturber = Perturber::new(block, config.perturb);
        let mut rng = StdRng::seed_from_u64(j as u64);
        let empty = FeatureSet::new();
        let us = per_call_us(tracer, "core.perturb", j as u64, || {
            black_box(perturber.perturb(&empty, &mut rng));
        });
        perturb_ns.push(us * 1e3);
    }
    out.perturb_ns = stats::median(&perturb_ns);

    // Tokenizer and network, on the batches the search sent the model.
    let seen = timing.seen.into_inner().expect("batch list poisoned");
    let vocab = Vocab::standard();
    let mut tokenize_ns = Vec::new();
    for (j, block) in seen.iter().flatten().take(PATH_CAP).enumerate() {
        let us = per_call_us(tracer, "models.tokenize", j as u64, || {
            black_box(vocab.tokenize_block(block));
        });
        tokenize_ns.push(us * 1e3);
    }
    out.tokenize_ns_per_block = stats::median(&tokenize_ns);
    let mut network_ns = Vec::new();
    for (j, batch) in seen.iter().enumerate() {
        let start = Instant::now();
        black_box(network.predict_batch(batch));
        let end = Instant::now();
        tracer.record("nn.predict_batch", j as u64, 0, start, end);
        network_ns.push(end.duration_since(start).as_nanos() as f64 / batch.len() as f64);
    }
    out.nn_predict_ns_per_block = stats::median(&network_ns) - out.tokenize_ns_per_block;

    // The request path a served explain takes around the search.
    let mut stages: [Vec<f64>; 6] = Default::default();
    for (j, text) in input.texts.iter().take(PATH_CAP).enumerate() {
        let req = j as u64;
        let body = serde_json::to_string(&ExplainRequest {
            v: WIRE_V,
            block: text.clone(),
            epsilon: Some(config.epsilon),
            seed: seed_of(j),
            deadline_ms: None,
        })
        .expect("request serializes");
        let request = crate::client::http_post("/v1/explain", &body);
        stages[0].push(per_call_us(tracer, "http.parse", req, || {
            let mut parser = RequestParser::new();
            parser.push(&request);
            black_box(parser.poll().ok());
        }));
        stages[1].push(per_call_us(tracer, "wire.decode", req, || {
            black_box(wire::decode_request::<ExplainRequest>(body.as_bytes()).ok());
        }));
        stages[2].push(per_call_us(tracer, "isa.parse", req, || {
            black_box(comet_isa::parse_block(text).map(|b| b.to_string()).ok());
        }));
        let canonical = parse(text)?.to_string();
        stages[3].push(per_call_us(tracer, "store.lookup", req, || {
            black_box(input.store.lookup(&canonical));
        }));
        let explanation = input
            .store
            .lookup(&canonical)
            .unwrap_or_else(|| explanations[j % explanations.len()].clone());
        let mut response = String::new();
        stages[4].push(per_call_us(tracer, "wire.encode", req, || {
            let body = ExplainResponse {
                v: WIRE_V,
                model: base.name().into(),
                model_version: 1,
                epsilon: config.epsilon,
                seed: 0,
                coalesced: false,
                explanation: ExplanationDto::from(&explanation),
            };
            response = serde_json::to_string(&body).expect("response serializes");
        }));
        stages[5].push(per_call_us(tracer, "http.write", req, || {
            let mut out = Vec::new();
            let _ =
                http::write_response(&mut out, 200, "application/json", response.as_bytes(), false);
            black_box(out);
        }));
    }
    let [parse_us, decode_us, isa_us, lookup_us, encode_us, write_us] =
        stages.map(|v| stats::median(&v));
    out.http_parse_us = parse_us;
    out.wire_decode_us = decode_us;
    out.isa_parse_us = isa_us;
    out.store_lookup_us = lookup_us;
    out.wire_encode_us = encode_us;
    out.http_write_us = write_us;
    Ok(out)
}
