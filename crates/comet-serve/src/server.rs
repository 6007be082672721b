//! The service itself: epoll reactors → bounded queue → worker pool →
//! shared model stack.
//!
//! # Architecture
//!
//! `--event-threads N` reactor threads ([`crate::event`]) own every
//! connection through nonblocking sockets and a readiness loop; the
//! `workers` CPU threads only ever see complete, parsed requests and
//! hand finished response bytes back over a wakeup pipe. This module
//! supplies the [`Service`] implementation: the dispatch table,
//! admission policy, metrics, and the chaos schedule.
//!
//! Admission is two-layered and per *request*. The adaptive
//! [`AdmissionController`] (CoDel-style queue-delay detection driving
//! an AIMD concurrency limit) sheds requests that would push queued +
//! in-flight work past a limit tuned to *measured* queue sojourn time;
//! the bounded queue ([`crate::queue`]) behind it is the hard
//! backstop. Either
//! way a shed is an immediate, honest `503` with a typed reason, so
//! overload degrades into fast rejections instead of unbounded memory
//! growth or silent kernel-side drops.
//!
//! With `--shard i/M` the process additionally *enforces* its
//! consistent-hash slice of the block-key space ([`crate::route`]):
//! a predict/explain for a block another shard owns is answered `409
//! Conflict` naming the true owner, so a misrouted fleet fails loudly
//! instead of silently splitting cache and store state.
//!
//! Workers share one process-wide model stack,
//! `CachedModel(ResilientModel(base))` behind an `Arc`. The sharded
//! prediction cache answers `/v1/predict` (its hit rate is re-exported
//! at `/metrics`); an explain search queries the resilient layer under
//! it directly, through the deadline gate described below. The
//! resilient layer retries transient faults — rate-limited by
//! a global retry token bucket so a correlated outage cannot turn into
//! a retry storm — and trips its circuit breaker on a persistently
//! failing backend. Per-request deadlines compose on top per query
//! path: a cooperative deadline gate around each explain search, and
//! the [`DeadlineModel`] watchdog around each single predict.
//!
//! Explains ride a **degradation ladder** (full search →
//! reduced-budget search → stale cached explanation → minimal baseline
//! probe). The tier is chosen proactively from pressure signals (open
//! circuit, standing queue, a deadline the latency histogram says the
//! full search cannot meet) and descends reactively when a search
//! fails; every response carries its tier on the wire and in
//! `/metrics`, so "degraded but alive" is observable, never silent.
//!
//! Identical in-flight explains — same canonical block text, same ε,
//! same seed — are **coalesced single-flight**: the first request runs
//! the anchors search, later twins park on a condvar and share the
//! result, so a thundering herd on one hot block costs one search.
//!
//! Graceful drain: cancelling the server's [`CancelToken`] (the binary
//! wires it to SIGINT/SIGTERM, and to stdin-EOF under a supervisor)
//! stops the accept loop, shuts the queue down, lets workers finish
//! every accepted connection's in-flight request, and then joins them.
//! `GET /healthz` is a liveness probe; `GET /readyz` additionally
//! checks the model probe, circuit breaker, queue delay, and drain
//! state, so an orchestrator stops routing to a degraded instance
//! before it starts failing requests.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::admission::{AdmissionConfig, AdmissionController, ShedReason};
use crate::event::{FrontEnd, FrontEndConfig, Service, WorkerHandler};
use crate::http::{self, HttpError, Request};
use crate::lifecycle::{self, LifecycleState, ModelEpoch, ShadowGates};
use crate::metrics::{Endpoint, Registry, StatusClass, Tier};
use crate::route::{Ring, ShardSpec};
use crate::wire::{
    self, decode_request, AdminModelRequest, ErrorResponse, ExplainRequest, ExplainResponse,
    ExplanationDto, PredictRequest, PredictResponse, WIRE_V,
};
use comet_core::cancel::CancelToken;
use comet_core::{
    splitmix64, BatchExec, ExplainConfig, ExplainError, Explainer, Explanation, SwapCell,
};
use comet_isa::BasicBlock;
use comet_models::{
    fnv1a64, predict_one, CachedModel, CostModel, DeadlineModel, ModelError, ModelKind,
    ModelRegistry, QueryStats, RegistryRecovery, ResilientModel,
};

/// A boxed, shareable cost model — the bottom of the serving stack.
pub type BoxedModel = Box<dyn CostModel + Send + Sync>;

/// The per-epoch shared model stack (see module docs). Each published
/// [`ModelEpoch`] owns its own stack, so swapping models invalidates
/// the prediction cache by construction.
pub(crate) type Stack = CachedModel<ResilientModel<BoxedModel>>;

/// Seeded fault injection inside the server itself (distinct from
/// model-level [`comet_models::FaultyModel`] faults): with probability
/// `worker_panic_rate`, a worker panics while handling a connection,
/// exercising the catch-unwind containment and the chaos harness's
/// "no silent worker death" invariant. The draw is a pure function of
/// `(seed, connection index)`, so a chaos run is reproducible.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Probability a worker panics on a given connection.
    pub worker_panic_rate: f64,
    /// Seed for the deterministic panic schedule.
    pub seed: u64,
}

/// Server configuration (the binary's flags, as a struct).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads (each owns one connection at a time).
    pub workers: usize,
    /// Bounded request-queue depth; overflow is shed with a 503.
    pub queue_depth: usize,
    /// Default ε for explains (requests may override per call).
    pub epsilon: f64,
    /// Default per-request deadline in milliseconds; 0 disables
    /// deadline enforcement entirely.
    pub deadline_ms: u64,
    /// Shared prediction-cache capacity (entries). The cache holds
    /// `/v1/predict` answers; explain searches bypass it.
    pub cache_capacity: usize,
    /// Model-batch size for the explain search: perturbed candidate
    /// blocks are evaluated through `predict_batch` in chunks of up to
    /// this many.
    pub batch: usize,
    /// Intra-explanation worker-pool size per serve worker. The serve
    /// workers already parallelize across requests, so this defaults to
    /// 1 (batching without extra threads); raise it on machines with
    /// spare cores when single-request latency matters more than
    /// aggregate throughput.
    pub search_pool: usize,
    /// How long an idle keep-alive connection may sit between requests
    /// before its worker reclaims itself — and the per-request read
    /// budget that bounds slow-loris senders. Milliseconds; 0 disables
    /// both (tests only).
    pub idle_timeout_ms: u64,
    /// Adaptive admission-control law parameters.
    pub admission: AdmissionConfig,
    /// Seeded in-server fault injection; `None` (the default) disables
    /// chaos entirely.
    pub chaos: Option<ChaosConfig>,
    /// On-disk model registry directory. `None` serves without
    /// persistence (swaps still work, versions are in-memory only);
    /// `Some(dir)` makes the last-known-good model crash-durable and
    /// recovers it at boot.
    pub registry_dir: Option<String>,
    /// Requests a freshly swapped model must survive before it is
    /// durably promoted as last-known-good; 0 disables probation
    /// (shadow validation alone gates swaps).
    pub probation_requests: u64,
    /// Shadow-validation gates for `POST /admin/model` candidates.
    pub shadow: ShadowGates,
    /// Precomputed explanation store (a `.comets` file built by
    /// `comet-store build`, or a directory containing `store.comets`).
    /// `None` serves every explain live. A configured-but-unreadable
    /// store does not stop the server — it serves live, reports the
    /// failure on `/readyz`, and answers `/analytics/*` with 503.
    pub store_path: Option<String>,
    /// Reactor (event-loop) threads owning the nonblocking sockets.
    pub event_threads: usize,
    /// `--shard i/M`: enforce ownership of this process's
    /// consistent-hash slice of the block-key space. `None` serves the
    /// whole key space.
    pub shard: Option<ShardSpec>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:8080".into(),
            workers: 4,
            queue_depth: 64,
            epsilon: 0.25,
            deadline_ms: 0,
            cache_capacity: 1 << 20,
            batch: 16,
            search_pool: 1,
            idle_timeout_ms: 5_000,
            admission: AdmissionConfig::default(),
            chaos: None,
            registry_dir: None,
            probation_requests: 64,
            shadow: ShadowGates::default(),
            store_path: None,
            event_threads: 1,
            shard: None,
        }
    }
}

/// Most stale explanations retained for the ladder's cached tier.
const STALE_CAP: usize = 1024;

/// What opening the configured explanation store produced.
pub(crate) enum StoreState {
    /// The store opened and validated; lookups are live.
    Open(Box<comet_store::ExplanationStore>),
    /// The store could not be opened (corrupt, missing, or built for a
    /// different model). Kept for `/readyz` reporting; never consulted.
    Error(String),
}

/// A configured explanation store, bound to the model version that was
/// serving when it was opened. A hot-swap changes the live version and
/// thereby structurally disables store hits — a new model's
/// explanations are never served from an old model's store.
pub(crate) struct StoreSlot {
    /// The path the operator configured (as given).
    pub(crate) path: String,
    pub(crate) state: StoreState,
    /// The epoch version the store was validated against at boot.
    pub(crate) bound_version: u64,
}

/// Open and validate the configured store: the file must parse and
/// checksum clean, and its provenance must name the model kind this
/// server is serving (a store built for `uica` must not answer for
/// `crude-haswell`). A directory path means `<dir>/store.comets`.
fn open_store(path: &str, kind: &str) -> StoreState {
    let mut file = std::path::PathBuf::from(path);
    if file.is_dir() {
        file.push("store.comets");
    }
    match comet_store::ExplanationStore::open(&file) {
        Ok(store) => {
            let built_for = &store.provenance().model_kind;
            if built_for != kind {
                StoreState::Error(format!(
                    "store was built for model kind {built_for:?}, serving {kind:?}"
                ))
            } else {
                StoreState::Open(Box::new(store))
            }
        }
        Err(e) => StoreState::Error(format!("cannot open store at {}: {e}", file.display())),
    }
}

/// One in-flight explain search that twins can park on.
struct Flight {
    state: Mutex<Option<FlightResult>>,
    done: Condvar,
}

/// What a finished flight hands every parked twin: the explanation and
/// the degradation-ladder tier that produced it.
type FlightResult = Result<(Explanation, Tier), (StatusClass, String)>;

/// Cooperative per-request deadline for the explain path.
///
/// An anchors search issues thousands of microsecond-scale model
/// queries; running each under the [`DeadlineModel`] watchdog (a
/// thread spawn per query) would cost more than the queries
/// themselves. The gate instead checks the request's wall-clock budget
/// before delegating each query and, once expired, fails every further
/// query with [`ModelError::Timeout`] — the explainer's budget-capped
/// fault-skipping sampler then winds down in microseconds and returns
/// its best candidate so far, flagged `degraded`. The gate also
/// watches the server's [`CancelToken`], so a drain winds active
/// searches down the same way instead of letting them run to
/// completion. The true watchdog (stalled-backend abandonment) still
/// guards the single-query predict path, where its per-call cost is
/// irrelevant.
struct DeadlineGate<'a> {
    /// The epoch stack's resilient layer, under its prediction cache.
    inner: &'a ResilientModel<BoxedModel>,
    start: Instant,
    budget: Option<Duration>,
    cancel: Option<&'a CancelToken>,
}

impl DeadlineGate<'_> {
    fn expired(&self) -> Option<ModelError> {
        if let Some(cancel) = self.cancel {
            if cancel.is_cancelled() {
                return Some(ModelError::Timeout {
                    elapsed: self.start.elapsed(),
                    deadline: self.budget.unwrap_or(Duration::ZERO),
                });
            }
        }
        if let Some(budget) = self.budget {
            let elapsed = self.start.elapsed();
            if elapsed >= budget {
                return Some(ModelError::Timeout { elapsed, deadline: budget });
            }
        }
        None
    }
}

impl CostModel for DeadlineGate<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn predict(&self, block: &BasicBlock) -> f64 {
        self.try_predict(block).unwrap_or(f64::NAN)
    }

    fn try_predict(&self, block: &BasicBlock) -> Result<f64, ModelError> {
        predict_one(self, block)
    }

    fn resilience(&self) -> Option<comet_models::ResilienceReport> {
        self.inner.resilience()
    }

    /// Check the wall-clock budget once per call, then forward the
    /// whole slice to the stack's `ResilientModel`, past its prediction
    /// cache. Expiry granularity is one chunk — a batch admitted just
    /// under the deadline runs to completion, which is bounded by
    /// `batch × per-query cost` (microseconds) and far cheaper than
    /// checking the clock per item.
    ///
    /// Why past the cache: in the benchmark's `explain_live` run, whose
    /// 700 novel blocks are each explained once, no search reused
    /// another's draws and a crude-model search repeated under 0.5% of
    /// its own, so caching the draws filled the 2²⁰-entry cache and
    /// cost about as much per query as the model (DESIGN.md §8). A
    /// search that repeats earlier draws — a retried request, or a
    /// lower ladder rung under the same seed after a failed full
    /// search — recomputes them.
    ///
    /// A non-finite `Ok` becomes [`ModelError::NonFinite`] here:
    /// nothing under the cache checks the values a batch override
    /// returns, and the search must count such a draw as a model
    /// fault, not as a changed prediction.
    fn predict_batch(&self, blocks: &[BasicBlock]) -> Vec<Result<f64, ModelError>> {
        if let Some(err) = self.expired() {
            return blocks.iter().map(|_| Err(err.clone())).collect();
        }
        self.inner
            .predict_batch(blocks)
            .into_iter()
            .map(|r| match r {
                Ok(v) if !v.is_finite() => Err(ModelError::NonFinite { value: v }),
                r => r,
            })
            .collect()
    }
}

/// Shared state visible to the accept loop, every worker, and (read
/// only) to code that embeds a server, such as benchmarks and tests.
pub struct ServerCtx {
    /// The published model epoch. Readers load it lock-free (RCU);
    /// every request captures exactly one `(version, model)` pair for
    /// its lifetime, so responses are never torn across a swap.
    pub(crate) epoch: SwapCell<ModelEpoch>,
    metrics: Registry,
    admission: AdmissionController,
    flights: Mutex<HashMap<u64, Arc<Flight>>>,
    /// Stale explanations for the ladder's cached tier, keyed by
    /// `(model version, seed-independent explain_key(block, ε, 0))` —
    /// an old model's explanation is never served as another version's.
    stale: Mutex<HashMap<(u64, u64), Explanation>>,
    explain_base: ExplainConfig,
    default_epsilon: f64,
    default_deadline_ms: u64,
    explain_batch: usize,
    search_pool: usize,
    cancel: CancelToken,
    /// Sticky readiness: set by the first successful model probe.
    ready: AtomicBool,
    /// Monotonic origin for the admission controller's timestamps.
    started: Instant,
    chaos: Option<ChaosConfig>,
    /// `--shard i/M` enforcement state: the fleet ring plus this
    /// process's slot.
    shard: Option<(Ring, ShardSpec)>,
    /// The on-disk registry, when serving with `--registry`.
    pub(crate) registry: Option<ModelRegistry>,
    /// What opening the registry had to repair (quarantines etc.).
    pub(crate) recovery: RegistryRecovery,
    /// Swap/probation/rollback state; its mutex serializes admin swaps.
    pub(crate) lifecycle: Mutex<LifecycleState>,
    /// Probation window length for freshly swapped models.
    pub(crate) probation_requests: u64,
    /// Shadow-validation gates.
    pub(crate) shadow: ShadowGates,
    /// Cache capacity for stacks built around swapped-in candidates.
    pub(crate) cache_capacity: usize,
    /// The precomputed explanation store, when `--store` is configured.
    pub(crate) store: Option<StoreSlot>,
}

impl ServerCtx {
    /// The service metrics registry.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The adaptive admission controller (limit, in-flight gauge,
    /// overload flag).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// A snapshot of the live epoch's prediction-cache counters,
    /// stamped with the model version the entries belong to — after a
    /// hot-swap this is how an operator sees what the swap invalidated.
    pub fn cache_stats(&self) -> QueryStats {
        let epoch = self.epoch.load();
        let mut stats = epoch.stack.stats();
        stats.version = epoch.version;
        stats
    }

    /// Stale-explanation entries grouped by the model version that
    /// produced them, ascending — the `/metrics` per-version gauge.
    pub fn stale_by_version(&self) -> Vec<(u64, u64)> {
        let stale = self.stale.lock().unwrap_or_else(|p| p.into_inner());
        let mut counts = std::collections::BTreeMap::new();
        for (version, _) in stale.keys() {
            *counts.entry(*version).or_insert(0u64) += 1;
        }
        counts.into_iter().collect()
    }

    /// The configured explanation store slot, if any.
    pub(crate) fn store(&self) -> Option<&StoreSlot> {
        self.store.as_ref()
    }

    /// The registry version of the model currently serving traffic.
    pub fn model_version(&self) -> u64 {
        self.epoch.load().version
    }

    /// The cancellation token driving graceful drain.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }
}

/// A running server: reactor threads + worker pool, shut down via its
/// [`CancelToken`].
pub struct Server {
    ctx: Arc<ServerCtx>,
    addr: SocketAddr,
    front: Option<FrontEnd>,
}

impl Server {
    /// Bind and start serving `kind`'s model with `config`. With a
    /// registry configured, an intact active snapshot on disk wins
    /// over `kind` — restart recovery serves what the manifest says
    /// was last known good.
    pub fn start(kind: ModelKind, mut config: ServeConfig) -> std::io::Result<Server> {
        let (base, default_eps) = kind.build();
        if config.epsilon <= 0.0 {
            config.epsilon = default_eps;
        }
        let name = base.name().to_string();
        Server::start_inner(base, name, kind.label().to_string(), config)
    }

    /// Start with an explicit base model — the injection point for
    /// tests and benchmarks (e.g. a model with artificial latency, or
    /// a query counter). The model's rebuild recipe is recorded as
    /// `"custom"`, which restart recovery cannot rebuild — it falls
    /// back to the model the caller provides.
    pub fn start_with_model(
        base: BoxedModel,
        model_name: String,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        Server::start_inner(base, model_name, "custom".to_string(), config)
    }

    fn start_inner(
        mut base: BoxedModel,
        mut model_name: String,
        mut kind_str: String,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        let listener = crate::sys::bind_listener(&config.addr)?;
        let addr = listener.local_addr()?;

        // Registry boot: verify snapshots (quarantining damage), then
        // let the durable last-known-good model override the CLI choice
        // when its kind can be rebuilt. An empty registry adopts the
        // boot model as v1.
        let (registry, recovery) = match &config.registry_dir {
            Some(dir) => {
                let (registry, recovery) = ModelRegistry::open(std::path::Path::new(dir))?;
                if !recovery.quarantined.is_empty() || recovery.manifest_recovered {
                    eprintln!(
                        "[comet-serve] registry recovery: quarantined {:?}, manifest recovered: {}",
                        recovery.quarantined, recovery.manifest_recovered
                    );
                }
                (Some(registry), recovery)
            }
            None => (None, RegistryRecovery::default()),
        };
        let mut version = 1u64;
        if let Some(registry) = &registry {
            match registry.load_active() {
                Ok(Some(snapshot)) => {
                    version = snapshot.version;
                    if let Some(kind) = ModelKind::parse(&snapshot.kind) {
                        let payload = serde_json::from_str(&snapshot.payload).unwrap_or_default();
                        base = lifecycle::build_base(kind, &payload);
                        model_name = base.name().to_string();
                        kind_str = snapshot.kind.clone();
                        eprintln!(
                            "[comet-serve] registry: serving last-known-good v{version} ({})",
                            snapshot.kind
                        );
                    }
                    // An unrebuildable kind (e.g. "custom") keeps the
                    // caller's base model under the recorded version.
                }
                Ok(None) | Err(_) => {
                    // Empty registry, or the active snapshot rotted
                    // since open and was just quarantined: adopt the
                    // boot model as the first last-known-good.
                    let snapshot = registry.stage(&kind_str, "boot", "{}")?;
                    registry.promote(snapshot.version)?;
                    version = snapshot.version;
                }
            }
        }

        let store = config.store_path.as_ref().map(|path| {
            let state = open_store(path, &kind_str);
            if let StoreState::Error(e) = &state {
                eprintln!("[comet-serve] explanation store unavailable: {e}");
            }
            StoreSlot { path: path.clone(), state, bound_version: version }
        });

        let stack = lifecycle::build_stack(base, config.cache_capacity);
        let epoch = Arc::new(ModelEpoch { version, name: model_name, kind: kind_str, stack });
        let metrics = Registry::new();
        metrics.set_batch_size(config.batch.max(1));
        metrics.set_model_version(version);
        if let Some(spec) = config.shard {
            metrics.set_shard(spec.index, spec.count);
        }
        let ctx = Arc::new(ServerCtx {
            epoch: SwapCell::new(Arc::clone(&epoch)),
            metrics,
            admission: AdmissionController::new(config.admission),
            flights: Mutex::new(HashMap::new()),
            stale: Mutex::new(HashMap::new()),
            explain_base: ExplainConfig { epsilon: config.epsilon, ..ExplainConfig::default() },
            default_epsilon: config.epsilon,
            default_deadline_ms: config.deadline_ms,
            explain_batch: config.batch.max(1),
            search_pool: config.search_pool.max(1),
            cancel: CancelToken::new(),
            ready: AtomicBool::new(false),
            started: Instant::now(),
            chaos: config.chaos,
            shard: config.shard.map(|spec| (Ring::new(spec.count), spec)),
            registry,
            recovery,
            lifecycle: Mutex::new(LifecycleState {
                good: epoch,
                probation: None,
                last_rollback: None,
                next_version: version,
            }),
            probation_requests: config.probation_requests,
            shadow: config.shadow,
            cache_capacity: config.cache_capacity,
            store,
        });

        let service = Arc::new(CometService { ctx: Arc::clone(&ctx) });
        let front = FrontEnd::start(
            listener,
            service,
            FrontEndConfig {
                event_threads: config.event_threads,
                workers: config.workers,
                queue_depth: config.queue_depth,
                idle_timeout: Duration::from_millis(config.idle_timeout_ms),
            },
        )?;
        Ok(Server { ctx, addr, front: Some(front) })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared server state (metrics, cache stats, cancel token).
    pub fn ctx(&self) -> &Arc<ServerCtx> {
        &self.ctx
    }

    /// Block until the server drains and every thread exits. Returns
    /// immediately unless something cancelled the token (Ctrl-C, a
    /// test or a benchmark finishing).
    pub fn join(mut self) {
        if let Some(front) = self.front.take() {
            front.join();
        }
    }

    /// Cancel and drain: stop accepting, finish in-flight requests,
    /// join all threads.
    pub fn shutdown(self) {
        self.ctx.cancel.cancel();
        self.join();
    }
}

/// Whether chaos panics on connection `n` of a run seeded with `seed`.
/// Pure, so the schedule is reproducible from the seed alone.
pub fn chaos_panics_connection(seed: u64, n: u64, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    let unit = (splitmix64(seed ^ n.wrapping_mul(0x2545_f491_4f6c_dd1d)) >> 11) as f64
        / (1u64 << 53) as f64;
    unit < rate
}

/// The COMET dispatch table as an [`event::Service`]: the front end
/// owns sockets and readiness; this glues its hooks to the admission
/// controller, the metrics registry, the chaos schedule, and
/// [`dispatch`].
pub(crate) struct CometService {
    pub(crate) ctx: Arc<ServerCtx>,
}

impl CometService {
    /// A prebuilt 503 naming the shed reason, with metrics recorded —
    /// shared by the adaptive-admission and queue-overflow paths.
    fn shed_bytes(&self, reason: ShedReason) -> Vec<u8> {
        self.ctx.metrics.record_shed(reason);
        self.ctx.metrics.record(Endpoint::Other, StatusClass::Shed);
        let mut out = Vec::new();
        respond_error(&mut out, StatusClass::Shed, reason.message(), true);
        out
    }
}

impl Service for CometService {
    fn make_worker(&self) -> Box<dyn WorkerHandler> {
        // One batch executor per worker, alive for the worker's
        // lifetime: its intra-explanation pool threads are spawned
        // once, not per request, and its occupancy counters are folded
        // into the shared registry after each search.
        let exec = BatchExec::new(self.ctx.explain_batch, self.ctx.search_pool);
        Box::new(CometWorker { ctx: Arc::clone(&self.ctx), exec })
    }

    fn admit(&self, queued: usize) -> Result<(), Vec<u8>> {
        let in_system = queued as u64 + self.ctx.admission.inflight();
        self.ctx.admission.try_admit(in_system).map_err(|reason| self.shed_bytes(reason))
    }

    fn shed_overflow(&self) -> Vec<u8> {
        self.shed_bytes(ShedReason::QueueFull)
    }

    fn enqueued(&self, depth: usize) {
        self.ctx.metrics.set_queue_depth(depth);
    }

    fn dequeued(&self, sojourn_us: u64, depth: usize) {
        self.ctx.metrics.set_queue_depth(depth);
        // Feed the admission controller the sojourn this request spent
        // queued, on a monotonic µs clock anchored at server start.
        let now_us = self.ctx.started.elapsed().as_micros() as u64;
        self.ctx.admission.on_dequeue(sojourn_us, now_us);
        self.ctx.admission.begin();
    }

    fn finished(&self, panicked: bool) {
        self.ctx.admission.end();
        if panicked {
            self.ctx.metrics.record(Endpoint::Other, StatusClass::Internal);
        }
    }

    fn http_error(&self, err: &HttpError) -> Option<Vec<u8>> {
        let (class, reason) = match err {
            // Clean close or transport error: nothing to say.
            HttpError::Closed | HttpError::Io(_) => return None,
            HttpError::Malformed(reason) => (StatusClass::BadRequest, *reason),
            // A started-but-stalled request (slow loris): answer 408
            // and reclaim the connection.
            HttpError::Timeout => (StatusClass::Timeout, "request read timed out"),
            HttpError::TooLarge { status, reason } => {
                let class = if *status == 413 {
                    StatusClass::PayloadTooLarge
                } else {
                    StatusClass::HeadersTooLarge
                };
                (class, *reason)
            }
        };
        self.ctx.metrics.record(Endpoint::Other, class);
        let mut out = Vec::new();
        respond_error(&mut out, class, reason, true);
        Some(out)
    }

    fn chaos_panics(&self, conn_index: u64) -> bool {
        self.ctx
            .chaos
            .is_some_and(|c| chaos_panics_connection(c.seed, conn_index, c.worker_panic_rate))
    }

    fn on_chaos_panic(&self) {
        self.ctx.metrics.record_chaos_panic();
    }

    fn cancel(&self) -> &CancelToken {
        &self.ctx.cancel
    }

    fn set_connections(&self, open: u64) {
        self.ctx.metrics.set_connections(open);
    }
}

/// One worker's handler: the dispatch table plus its worker-local
/// [`BatchExec`].
struct CometWorker {
    ctx: Arc<ServerCtx>,
    exec: BatchExec,
}

impl WorkerHandler for CometWorker {
    fn handle(&mut self, request: &Request, close: bool) -> Vec<u8> {
        dispatch(&self.ctx, request, close, &self.exec)
    }
}

/// Serialize `body` and write it with `status`.
fn respond_json<T: serde::Serialize>(out: &mut Vec<u8>, status: u16, body: &T, close: bool) {
    let text = serde_json::to_string(body).unwrap_or_else(|_| "{}".into());
    let _ = http::write_response(out, status, "application/json", text.as_bytes(), close);
}

/// Write an [`ErrorResponse`] with `status`.
fn respond_error(out: &mut Vec<u8>, status: StatusClass, error: &str, close: bool) {
    respond_json(out, status.code(), &ErrorResponse::new(error), close);
}

/// Route one parsed request, returning the full response bytes.
pub(crate) fn dispatch(
    ctx: &ServerCtx,
    request: &Request,
    close: bool,
    exec: &BatchExec,
) -> Vec<u8> {
    let mut out = Vec::new();
    dispatch_into(ctx, &mut out, request, close, exec);
    out
}

/// The dispatch table proper, writing into `out`.
fn dispatch_into(
    ctx: &ServerCtx,
    out: &mut Vec<u8>,
    request: &Request,
    close: bool,
    exec: &BatchExec,
) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/predict") => {
            let start = Instant::now();
            let status = handle_predict(ctx, out, request, close);
            ctx.metrics.record(Endpoint::Predict, status);
            if status == StatusClass::Ok {
                ctx.metrics.observe_latency(Endpoint::Predict, start.elapsed().as_micros() as u64);
            }
        }
        ("POST", "/v1/explain") => {
            let start = Instant::now();
            let status = handle_explain(ctx, out, request, close, exec);
            ctx.metrics.record(Endpoint::Explain, status);
            if status == StatusClass::Ok {
                ctx.metrics.observe_latency(Endpoint::Explain, start.elapsed().as_micros() as u64);
            }
        }
        ("POST", "/admin/model") => {
            let status = handle_admin_post(ctx, out, request, close);
            ctx.metrics.record(Endpoint::Admin, status);
        }
        ("GET", "/admin/model") => {
            ctx.metrics.record(Endpoint::Admin, StatusClass::Ok);
            respond_json(out, 200, &lifecycle::admin_status(ctx), close);
        }
        ("GET", "/healthz") => {
            // Liveness only: the process is up and serving its event
            // loop. Routability is /readyz's job.
            ctx.metrics.record(Endpoint::Healthz, StatusClass::Ok);
            let epoch = ctx.epoch.load();
            let body = format!(
                "{{\"v\":{WIRE_V},\"ok\":true,\"model\":{},\"model_version\":{}}}",
                serde_json::to_string(&epoch.name).unwrap_or_else(|_| "\"?\"".into()),
                epoch.version
            );
            let _ = http::write_response(out, 200, "application/json", body.as_bytes(), close);
        }
        ("GET", "/readyz") => handle_readyz(ctx, out, close),
        ("GET", "/analytics/categories") => {
            let status = handle_analytics(ctx, out, close, "categories");
            ctx.metrics.record(Endpoint::Analytics, status);
        }
        ("GET", "/analytics/opcodes") => {
            let status = handle_analytics(ctx, out, close, "opcodes");
            ctx.metrics.record(Endpoint::Analytics, status);
        }
        ("GET", "/metrics") => {
            ctx.metrics.record(Endpoint::Metrics, StatusClass::Ok);
            // Refresh the admission gauges at scrape time.
            ctx.metrics.set_admission(ctx.admission.limit(), ctx.admission.last_delay_us());
            let text = ctx.metrics.render_prometheus(&ctx.cache_stats(), &ctx.stale_by_version());
            let _ =
                http::write_response(out, 200, "text/plain; version=0.0.4", text.as_bytes(), close);
        }
        (
            _,
            "/v1/predict"
            | "/v1/explain"
            | "/healthz"
            | "/readyz"
            | "/metrics"
            | "/admin/model"
            | "/analytics/categories"
            | "/analytics/opcodes",
        ) => {
            ctx.metrics.record(Endpoint::Other, StatusClass::BadRequest);
            respond_error(out, StatusClass::BadRequest, "method not allowed", close);
        }
        _ => {
            ctx.metrics.record(Endpoint::Other, StatusClass::NotFound);
            respond_error(out, StatusClass::NotFound, "no such endpoint", close);
        }
    }
}

/// `GET /analytics/categories` and `/analytics/opcodes`: the store's
/// build-time feature-importance rollups (the paper's Figure 3/4
/// breakdowns), served straight from the open store. Without a
/// readable store there is nothing to aggregate — 503 with the reason.
fn handle_analytics(ctx: &ServerCtx, out: &mut Vec<u8>, close: bool, view: &str) -> StatusClass {
    let Some(slot) = ctx.store() else {
        respond_error(out, StatusClass::Shed, "no explanation store configured", close);
        return StatusClass::Shed;
    };
    let store = match &slot.state {
        StoreState::Open(store) => store,
        StoreState::Error(e) => {
            respond_error(out, StatusClass::Shed, &format!("store unreadable: {e}"), close);
            return StatusClass::Shed;
        }
    };
    let rollups = match view {
        "categories" => serde_json::to_string(&store.analytics().categories),
        _ => serde_json::to_string(&store.analytics().opcodes),
    };
    let Ok(rollups) = rollups else {
        respond_error(out, StatusClass::Internal, "rollup serialization failed", close);
        return StatusClass::Internal;
    };
    let provenance = store.provenance();
    let body = format!(
        "{{\"v\":{WIRE_V},\"source\":\"store\",\"model_kind\":{},\"model_version\":{},\"records\":{},\"{view}\":{rollups}}}",
        serde_json::to_string(&provenance.model_kind).unwrap_or_else(|_| "\"?\"".into()),
        provenance.model_version,
        store.len(),
    );
    let _ = http::write_response(out, 200, "application/json", body.as_bytes(), close);
    StatusClass::Ok
}

/// The `"store"` object in the `/readyz` body, when a store is
/// configured: whether it opened, whether its bound version still
/// matches the live epoch (hits are disabled after a hot-swap), and
/// the record count. Unreadable stores report the error instead.
fn readyz_store_json(slot: &StoreSlot, live_version: u64) -> String {
    match &slot.state {
        StoreState::Open(store) => format!(
            "{{\"open\":true,\"version_match\":{},\"records\":{}}}",
            live_version == slot.bound_version,
            store.len()
        ),
        StoreState::Error(e) => format!(
            "{{\"open\":false,\"error\":{}}}",
            serde_json::to_string(e).unwrap_or_else(|_| "\"unreadable\"".into())
        ),
    }
}

/// `GET /readyz`: readiness = the model answers a probe, the circuit
/// breaker is closed, queue delay is under its target, and the server
/// is not draining. 503 with the failing reasons otherwise, so an
/// orchestrator can both act on and explain a routing decision.
fn handle_readyz(ctx: &ServerCtx, out: &mut Vec<u8>, close: bool) {
    let epoch = ctx.epoch.load();
    // Lazy, sticky model probe: cheap once warm, and a model that
    // cannot answer `nop` was never going to serve anything.
    if !ctx.ready.load(Relaxed) {
        let probed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            comet_isa::parse_block("nop")
                .ok()
                .and_then(|block| epoch.stack.try_predict(&block).ok())
                .is_some_and(|cost| cost.is_finite())
        }))
        .unwrap_or(false);
        if probed {
            ctx.ready.store(true, Relaxed);
        }
    }
    let mut reasons: Vec<String> = Vec::new();
    if !ctx.ready.load(Relaxed) {
        reasons.push("model probe failed".into());
    }
    if epoch.stack.resilience().is_some_and(|r| r.degraded) {
        reasons.push("circuit breaker open".into());
    }
    if ctx.admission.overloaded() {
        reasons.push("queue delay above target".into());
    }
    if ctx.cancel.is_cancelled() {
        reasons.push("draining".into());
    }
    // A configured store is part of the contract the operator asked
    // for: unreadable means not ready (orchestrators route elsewhere
    // until it's rebuilt or the flag is dropped). A version-mismatched
    // store is healthy-but-bypassed, reported but not a failure.
    let store_section = ctx.store().map(|slot| {
        if let StoreState::Error(_) = &slot.state {
            reasons.push(format!("store unreadable ({})", slot.path));
        }
        format!(",\"store\":{}", readyz_store_json(slot, epoch.version))
    });
    let store_section = store_section.unwrap_or_default();
    if reasons.is_empty() {
        ctx.metrics.record(Endpoint::Readyz, StatusClass::Ok);
        let body = format!(
            "{{\"v\":{WIRE_V},\"ready\":true,\"model_version\":{}{store_section}}}",
            epoch.version
        );
        let _ = http::write_response(out, 200, "application/json", body.as_bytes(), close);
    } else {
        ctx.metrics.record(Endpoint::Readyz, StatusClass::Shed);
        let list = serde_json::to_string(&reasons).unwrap_or_else(|_| "[]".into());
        let body = format!(
            "{{\"v\":{WIRE_V},\"ready\":false,\"model_version\":{},\"reasons\":{list}{store_section}}}",
            epoch.version
        );
        let _ = http::write_response(out, 503, "application/json", body.as_bytes(), close);
    }
}

/// The effective deadline for a request: body field beats header beats
/// server default; 0 anywhere means "no deadline".
fn effective_deadline(
    ctx: &ServerCtx,
    body_ms: Option<u64>,
    header_ms: Option<u64>,
) -> Option<Duration> {
    let ms = body_ms.or(header_ms).unwrap_or(ctx.default_deadline_ms);
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// `POST /v1/predict`: one model query, guarded by the [`DeadlineModel`]
/// watchdog when a deadline applies (the header or body budget becomes
/// the watchdog's abandonment deadline, so even a genuinely stalled
/// backend cannot hold the worker past it).
fn handle_predict(
    ctx: &ServerCtx,
    out: &mut Vec<u8>,
    request: &Request,
    close: bool,
) -> StatusClass {
    let req: PredictRequest = match decode_request(&request.body) {
        Ok(req) => req,
        Err(e) => {
            respond_error(out, StatusClass::BadRequest, &e, close);
            return StatusClass::BadRequest;
        }
    };
    let block = match comet_isa::parse_block(&req.block) {
        Ok(block) => block,
        Err(e) => {
            respond_error(out, StatusClass::BadRequest, &format!("unparseable block: {e}"), close);
            return StatusClass::BadRequest;
        }
    };
    if let Some(status) = enforce_shard(ctx, out, &block, close) {
        return status;
    }
    // One epoch for the whole request: the prediction and the
    // version/name reported alongside it always agree, even if a swap
    // lands while this request is in flight.
    let epoch = ctx.epoch.load();
    let result = match effective_deadline(ctx, req.deadline_ms, request.deadline_ms) {
        Some(deadline) => {
            DeadlineModel::from_arc(Arc::clone(&epoch.stack), deadline).try_predict(&block)
        }
        None => epoch.stack.try_predict(&block),
    };
    match result {
        Ok(prediction) => {
            let body = PredictResponse {
                v: WIRE_V,
                model: epoch.name.clone(),
                model_version: epoch.version,
                prediction,
            };
            respond_json(out, 200, &body, close);
            lifecycle::note_outcome(ctx, epoch.version, lifecycle::Outcome::Ok);
            StatusClass::Ok
        }
        Err(ModelError::Timeout { .. }) => {
            respond_error(out, StatusClass::Timeout, "prediction deadline exceeded", close);
            StatusClass::Timeout
        }
        Err(e) => {
            respond_error(out, StatusClass::Internal, &format!("model failure: {e}"), close);
            lifecycle::note_outcome(ctx, epoch.version, lifecycle::Outcome::Failure);
            StatusClass::Internal
        }
    }
}

/// `--shard i/M` ownership check for a parsed block. `None` means this
/// process owns the key (or sharding is off); `Some(Conflict)` means
/// the 409 naming the true owner was already written.
fn enforce_shard(
    ctx: &ServerCtx,
    out: &mut Vec<u8>,
    block: &BasicBlock,
    close: bool,
) -> Option<StatusClass> {
    let (ring, spec) = ctx.shard.as_ref()?;
    let owner = ring.owner(fnv1a64(block.to_string().as_bytes()));
    if owner == spec.index {
        return None;
    }
    respond_error(
        out,
        StatusClass::Conflict,
        &format!("block owned by shard {owner}/{} (this is shard {spec})", spec.count),
        close,
    );
    Some(StatusClass::Conflict)
}

/// `POST /admin/model`: the model-lifecycle entry point (stage, shadow
/// validate, hot-swap, rollback). See [`lifecycle`].
fn handle_admin_post(
    ctx: &ServerCtx,
    out: &mut Vec<u8>,
    request: &Request,
    close: bool,
) -> StatusClass {
    let req: AdminModelRequest = match decode_request(&request.body) {
        Ok(req) => req,
        Err(e) => {
            respond_error(out, StatusClass::BadRequest, &e, close);
            return StatusClass::BadRequest;
        }
    };
    match lifecycle::admin_model(ctx, &req) {
        Ok((status, body)) => {
            respond_json(out, status.code(), &body, close);
            status
        }
        Err((status, error)) => {
            respond_error(out, status, &error, close);
            status
        }
    }
}

/// `POST /v1/explain` with single-flight coalescing.
fn handle_explain(
    ctx: &ServerCtx,
    out: &mut Vec<u8>,
    request: &Request,
    close: bool,
    exec: &BatchExec,
) -> StatusClass {
    let req: ExplainRequest = match decode_request(&request.body) {
        Ok(req) => req,
        Err(e) => {
            respond_error(out, StatusClass::BadRequest, &e, close);
            return StatusClass::BadRequest;
        }
    };
    let block = match comet_isa::parse_block(&req.block) {
        Ok(block) => block,
        Err(e) => {
            respond_error(out, StatusClass::BadRequest, &format!("unparseable block: {e}"), close);
            return StatusClass::BadRequest;
        }
    };
    if let Some(status) = enforce_shard(ctx, out, &block, close) {
        return status;
    }
    let epsilon = req.epsilon.filter(|e| e.is_finite() && *e > 0.0).unwrap_or(ctx.default_epsilon);
    let deadline = effective_deadline(ctx, req.deadline_ms, request.deadline_ms);

    // One epoch for the whole request (see handle_predict).
    let epoch = ctx.epoch.load();
    let canonical = block.to_string();

    // Top of the ladder: the precomputed store. A hit needs the exact
    // provenance triple — the epoch version the store was bound to at
    // boot (hot-swaps structurally invalidate it), the store's ε bit
    // pattern, and the store's build seed — because stored
    // explanations are bitwise replicas of the live search only under
    // those parameters. Anything else falls through to the live path.
    if let Some(slot) = ctx.store() {
        if let StoreState::Open(store) = &slot.state {
            let provenance = store.provenance();
            if epoch.version == slot.bound_version
                && epsilon.to_bits() == provenance.epsilon_bits
                && req.seed == provenance.seed
            {
                let lookup_start = Instant::now();
                match store.lookup(&canonical) {
                    Some(explanation) => {
                        ctx.metrics.record_store_hit(lookup_start.elapsed().as_micros() as u64);
                        ctx.metrics.record_tier(Tier::Store);
                        let mut dto = ExplanationDto::from(&explanation);
                        dto.tier = Tier::Store.label().into();
                        dto.source = "store".into();
                        let body = ExplainResponse {
                            v: WIRE_V,
                            model: epoch.name.clone(),
                            model_version: epoch.version,
                            epsilon,
                            seed: req.seed,
                            coalesced: false,
                            explanation: dto,
                        };
                        respond_json(out, 200, &body, close);
                        lifecycle::note_outcome(
                            ctx,
                            epoch.version,
                            lifecycle::Outcome::ExplainTier(Tier::Store),
                        );
                        return StatusClass::Ok;
                    }
                    None => ctx.metrics.record_store_miss(),
                }
            }
        }
    }

    // Coalescing key: canonical text (parse → Display normalizes
    // whitespace/case) + ε + seed — folded with the epoch version so a
    // follower can never piggyback on a search run against a different
    // model than the one it will report.
    let key = wire::explain_key(&canonical, epsilon, req.seed) ^ splitmix64(epoch.version);
    let (flight, leader) = {
        let mut flights = ctx.flights.lock().unwrap_or_else(|p| p.into_inner());
        match flights.get(&key) {
            Some(flight) => (Arc::clone(flight), false),
            None => {
                let flight = Arc::new(Flight { state: Mutex::new(None), done: Condvar::new() });
                flights.insert(key, Arc::clone(&flight));
                (flight, true)
            }
        }
    };

    let result: FlightResult = if leader {
        ctx.metrics.record_search();
        // The search must always complete the flight — a panic that
        // left twins parked forever would wedge their workers.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_search(ctx, &epoch, &block, epsilon, req.seed, deadline, exec)
        }))
        .unwrap_or_else(|_| Err((StatusClass::Internal, "explanation search panicked".into())));
        if let Ok((_, tier)) = &outcome {
            ctx.metrics.record_tier(*tier);
        }
        {
            let mut state = flight.state.lock().unwrap_or_else(|p| p.into_inner());
            *state = Some(outcome.clone());
        }
        flight.done.notify_all();
        ctx.flights.lock().unwrap_or_else(|p| p.into_inner()).remove(&key);
        outcome
    } else {
        ctx.metrics.record_coalesced();
        let mut state = flight.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(result) = state.as_ref() {
                break result.clone();
            }
            state = flight.done.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    };

    match result {
        Ok((explanation, tier)) => {
            let mut dto = ExplanationDto::from(&explanation);
            dto.tier = tier.label().into();
            let body = ExplainResponse {
                v: WIRE_V,
                model: epoch.name.clone(),
                model_version: epoch.version,
                epsilon,
                seed: req.seed,
                coalesced: !leader,
                explanation: dto,
            };
            respond_json(out, 200, &body, close);
            lifecycle::note_outcome(ctx, epoch.version, lifecycle::Outcome::ExplainTier(tier));
            StatusClass::Ok
        }
        Err((status, error)) => {
            respond_error(out, status, &error, close);
            if status == StatusClass::Internal {
                lifecycle::note_outcome(ctx, epoch.version, lifecycle::Outcome::Failure);
            }
            status
        }
    }
}

/// Pick the degradation-ladder tier to *start* at, from pressure
/// signals available before spending any model queries: an open
/// circuit breaker or a standing queue means reduced budget; a
/// deadline the explain-latency histogram says the full search cannot
/// meet steps down once (can't meet p90) or straight to the cached
/// tier (deadline under p90/8 — not even a reduced search fits).
/// The histogram must have seen at least 8 explains before it is
/// trusted; before that only the breaker/queue signals apply.
fn choose_tier(ctx: &ServerCtx, stack: &Stack, deadline: Option<Duration>) -> Tier {
    let mut tier = Tier::Full;
    let breaker_open = stack.resilience().is_some_and(|r| r.degraded);
    if breaker_open || ctx.admission.overloaded() {
        tier = Tier::ReducedBudget;
    }
    if let Some(deadline) = deadline {
        let hist = ctx.metrics.explain_latency();
        if hist.count() >= 8 {
            let p90_us = hist.quantile_us(0.9);
            let deadline_us = deadline.as_micros() as f64;
            if deadline_us < p90_us / 8.0 {
                tier = Tier::Cached;
            } else if deadline_us < p90_us {
                tier = Tier::ReducedBudget;
            }
        }
    }
    tier
}

/// Remember a good explanation for the ladder's cached tier (bounded,
/// arbitrary eviction — staleness is the point, recency is not).
fn store_stale(ctx: &ServerCtx, key: (u64, u64), explanation: &Explanation) {
    let mut stale = ctx.stale.lock().unwrap_or_else(|p| p.into_inner());
    if stale.len() >= STALE_CAP && !stale.contains_key(&key) {
        if let Some(&evict) = stale.keys().next() {
            stale.remove(&evict);
        }
    }
    stale.insert(key, explanation.clone());
}

/// Run one explain through the degradation ladder. Starts at the tier
/// [`choose_tier`] picks proactively, descends a rung whenever a
/// search tier fails (timeout or model failure), and only reports an
/// error once the baseline rung itself fails. The worker's `BatchExec`
/// counters are cumulative, so each search's delta is folded into the
/// metrics registry here.
fn run_search(
    ctx: &ServerCtx,
    epoch: &ModelEpoch,
    block: &BasicBlock,
    epsilon: f64,
    seed: u64,
    deadline: Option<Duration>,
    exec: &BatchExec,
) -> FlightResult {
    let start = Instant::now();
    // Seed-independent, version-scoped key: any seed's completed search
    // can serve as a stale stand-in for this (model version, block, ε)
    // — never for another model's.
    let stale_key = (epoch.version, wire::explain_key(&block.to_string(), epsilon, 0));
    let base = ExplainConfig { epsilon, ..ctx.explain_base };
    let mut tier = choose_tier(ctx, &epoch.stack, deadline);
    let mut last_error: Option<(StatusClass, String)> = None;
    loop {
        match tier {
            // The store tier is handled before the flight is created
            // (handle_explain); a search that reaches this ladder
            // already missed or bypassed it.
            Tier::Store => tier = Tier::Full,
            Tier::Full | Tier::ReducedBudget => {
                let remaining = deadline.map(|d| d.saturating_sub(start.elapsed()));
                if remaining == Some(Duration::ZERO) {
                    // Budget already gone; don't bother starting.
                    last_error.get_or_insert((
                        StatusClass::Timeout,
                        "explanation deadline exceeded".into(),
                    ));
                    tier = Tier::Cached;
                    continue;
                }
                let config = if tier == Tier::Full { base } else { base.reduced_budget() };
                let gate = DeadlineGate {
                    inner: epoch.stack.inner(),
                    start: Instant::now(),
                    budget: remaining,
                    cancel: Some(&ctx.cancel),
                };
                match attempt_search(ctx, &gate, config, block, seed, exec) {
                    Ok(mut explanation) => {
                        if tier != Tier::Full {
                            explanation.degraded = true;
                        }
                        store_stale(ctx, stale_key, &explanation);
                        return Ok((explanation, tier));
                    }
                    // A malformed/unexplainable block will not get
                    // better further down the ladder.
                    Err((StatusClass::BadRequest, e)) => return Err((StatusClass::BadRequest, e)),
                    Err(e) => {
                        last_error = Some(e);
                        tier = if tier == Tier::Full { Tier::ReducedBudget } else { Tier::Cached };
                    }
                }
            }
            Tier::Cached => {
                let cached = {
                    let stale = ctx.stale.lock().unwrap_or_else(|p| p.into_inner());
                    stale.get(&stale_key).cloned()
                };
                match cached {
                    Some(mut explanation) => {
                        explanation.degraded = true;
                        return Ok((explanation, Tier::Cached));
                    }
                    None => tier = Tier::Baseline,
                }
            }
            Tier::Baseline => {
                // Last rung: a minimal probe, without the request
                // deadline (it costs a few hundred queries at most and
                // an answer beats a clean timeout here). Cancellation
                // still applies so drain is never blocked on it.
                let gate = DeadlineGate {
                    inner: epoch.stack.inner(),
                    start: Instant::now(),
                    budget: None,
                    cancel: Some(&ctx.cancel),
                };
                match attempt_search(ctx, &gate, base.baseline_probe(), block, seed, exec) {
                    Ok(mut explanation) => {
                        explanation.degraded = true;
                        return Ok((explanation, Tier::Baseline));
                    }
                    Err(e) => {
                        // Report the first (most informative) failure.
                        return Err(last_error.unwrap_or(e));
                    }
                }
            }
        }
    }
}

/// One search attempt at one rung, with batching metrics folded in and
/// errors mapped to wire status classes.
fn attempt_search(
    ctx: &ServerCtx,
    gate: &DeadlineGate<'_>,
    config: ExplainConfig,
    block: &BasicBlock,
    seed: u64,
    exec: &BatchExec,
) -> Result<Explanation, (StatusClass, String)> {
    let explainer = Explainer::new(gate, config);
    let (queries_before, chunks_before) = (exec.queries_batched(), exec.chunks());
    let result = explainer.explain_batched(block, seed, exec);
    ctx.metrics.record_batched(
        Endpoint::Explain,
        exec.queries_batched() - queries_before,
        exec.chunks() - chunks_before,
    );
    match result {
        Ok(explanation) => Ok(explanation),
        Err(ExplainError::Model(ModelError::Timeout { .. })) => {
            Err((StatusClass::Timeout, "explanation deadline exceeded".into()))
        }
        Err(ExplainError::Model(e)) => Err((StatusClass::Internal, format!("model failure: {e}"))),
        Err(e) => Err((StatusClass::BadRequest, e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_models::ResilientConfig;

    #[test]
    fn deadline_gate_fails_queries_after_expiry() {
        let (base, _) = ModelKind::CrudeHaswell.build();
        let stack: Stack =
            CachedModel::bounded(ResilientModel::new(base, ResilientConfig::default()), 1024);
        let block = comet_isa::parse_block("add rcx, rax").unwrap();
        let healthy = DeadlineGate {
            inner: stack.inner(),
            start: Instant::now(),
            budget: Some(Duration::from_secs(60)),
            cancel: None,
        };
        // A search's queries skip the epoch's prediction cache.
        assert!(healthy.predict_batch(std::slice::from_ref(&block))[0].is_ok());
        assert!(healthy.try_predict(&block).is_ok());
        assert_eq!(stack.stats().total, 0, "a search query went through the cache");
        let expired = DeadlineGate {
            inner: stack.inner(),
            start: Instant::now() - Duration::from_secs(1),
            budget: Some(Duration::from_millis(1)),
            cancel: None,
        };
        assert!(matches!(expired.try_predict(&block), Err(ModelError::Timeout { .. })));
        let unbounded = DeadlineGate {
            inner: stack.inner(),
            start: Instant::now(),
            budget: None,
            cancel: None,
        };
        assert!(unbounded.try_predict(&block).is_ok());
    }

    #[test]
    fn deadline_gate_turns_non_finite_draws_into_errors() {
        // A batch override that skips the finiteness check the default
        // `try_predict` applies; `ResilientModel` passes its `Ok`s on.
        struct LeakyBatch;
        impl CostModel for LeakyBatch {
            fn name(&self) -> &str {
                "leaky-batch"
            }
            fn predict(&self, _: &BasicBlock) -> f64 {
                1.0
            }
            fn predict_batch(&self, blocks: &[BasicBlock]) -> Vec<Result<f64, ModelError>> {
                let leaked = [f64::NAN, f64::INFINITY, 2.0];
                (0..blocks.len()).map(|i| Ok(leaked[i % leaked.len()])).collect()
            }
        }
        let resilient =
            ResilientModel::new(Box::new(LeakyBatch) as BoxedModel, ResilientConfig::default());
        let gate =
            DeadlineGate { inner: &resilient, start: Instant::now(), budget: None, cancel: None };
        let block = comet_isa::parse_block("add rcx, rax").unwrap();
        let draws = gate.predict_batch(&vec![block.clone(); 3]);
        assert!(matches!(draws[0], Err(ModelError::NonFinite { value }) if value.is_nan()));
        assert_eq!(draws[1], Err(ModelError::NonFinite { value: f64::INFINITY }));
        assert_eq!(draws[2], Ok(2.0));
        assert!(matches!(gate.try_predict(&block), Err(ModelError::NonFinite { .. })));
    }

    #[test]
    fn deadline_gate_fails_queries_once_cancelled() {
        let (base, _) = ModelKind::CrudeHaswell.build();
        let stack: Stack =
            CachedModel::bounded(ResilientModel::new(base, ResilientConfig::default()), 1024);
        let block = comet_isa::parse_block("add rcx, rax").unwrap();
        let token = CancelToken::new();
        let gate = DeadlineGate {
            inner: stack.inner(),
            start: Instant::now(),
            budget: None,
            cancel: Some(&token),
        };
        assert!(gate.try_predict(&block).is_ok());
        token.cancel();
        assert!(matches!(gate.try_predict(&block), Err(ModelError::Timeout { .. })));
        assert!(gate
            .predict_batch(std::slice::from_ref(&block))
            .iter()
            .all(|r| matches!(r, Err(ModelError::Timeout { .. }))));
    }

    #[test]
    fn effective_deadline_prefers_body_then_header_then_default() {
        let (base, _) = ModelKind::CrudeHaswell.build();
        let server = Server::start_with_model(
            base,
            "test".into(),
            ServeConfig { addr: "127.0.0.1:0".into(), deadline_ms: 100, ..Default::default() },
        )
        .unwrap();
        let ctx = server.ctx();
        assert_eq!(effective_deadline(ctx, Some(7), Some(9)), Some(Duration::from_millis(7)));
        assert_eq!(effective_deadline(ctx, None, Some(9)), Some(Duration::from_millis(9)));
        assert_eq!(effective_deadline(ctx, None, None), Some(Duration::from_millis(100)));
        assert_eq!(effective_deadline(ctx, Some(0), None), None, "explicit 0 disables");
        server.shutdown();
    }

    #[test]
    fn chaos_schedule_is_deterministic_and_rate_shaped() {
        // Same (seed, n, rate) → same verdict, always.
        for n in 0..256 {
            assert_eq!(chaos_panics_connection(42, n, 0.1), chaos_panics_connection(42, n, 0.1));
        }
        // rate 0 never fires; rate 1 always fires.
        assert!((0..256).all(|n| !chaos_panics_connection(7, n, 0.0)));
        assert!((0..256).all(|n| chaos_panics_connection(7, n, 1.0)));
        // A 10% rate lands in a loose band over 4096 draws.
        let hits = (0..4096).filter(|&n| chaos_panics_connection(42, n, 0.1)).count();
        assert!((200..=650).contains(&hits), "10% of 4096 ≈ 410, got {hits}");
        // Different seeds give different schedules.
        let a: Vec<bool> = (0..256).map(|n| chaos_panics_connection(1, n, 0.2)).collect();
        let b: Vec<bool> = (0..256).map(|n| chaos_panics_connection(2, n, 0.2)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn choose_tier_reacts_to_pressure_and_deadlines() {
        let (base, _) = ModelKind::CrudeHaswell.build();
        let server = Server::start_with_model(
            base,
            "test".into(),
            ServeConfig { addr: "127.0.0.1:0".into(), ..Default::default() },
        )
        .unwrap();
        let ctx = server.ctx();
        let stack = Arc::clone(&ctx.epoch.load().stack);
        // No pressure, no history: full search regardless of deadline.
        assert_eq!(choose_tier(ctx, &stack, None), Tier::Full);
        assert_eq!(choose_tier(ctx, &stack, Some(Duration::from_millis(1))), Tier::Full);
        // Teach the histogram that explains take ~100ms.
        for _ in 0..10 {
            ctx.metrics().observe_latency(Endpoint::Explain, 100_000);
        }
        assert_eq!(choose_tier(ctx, &stack, None), Tier::Full);
        assert_eq!(choose_tier(ctx, &stack, Some(Duration::from_secs(1))), Tier::Full);
        // A deadline under p90 steps down one rung…
        assert_eq!(choose_tier(ctx, &stack, Some(Duration::from_millis(50))), Tier::ReducedBudget);
        // …and one under p90/8 goes straight to the cached tier.
        assert_eq!(choose_tier(ctx, &stack, Some(Duration::from_millis(2))), Tier::Cached);
        server.shutdown();
    }

    #[test]
    fn stale_store_is_bounded() {
        let (base, _) = ModelKind::CrudeHaswell.build();
        let server = Server::start_with_model(
            base,
            "test".into(),
            ServeConfig { addr: "127.0.0.1:0".into(), ..Default::default() },
        )
        .unwrap();
        let ctx = server.ctx();
        let explanation = Explanation {
            features: comet_core::FeatureSet::new(),
            precision: 1.0,
            coverage: 1.0,
            prediction: 1.0,
            anchored: true,
            queries: 1,
            faults: 0,
            retries: 0,
            degraded: false,
            duration_secs: 0.0,
        };
        for key in 0..(STALE_CAP as u64 + 100) {
            store_stale(ctx, (1, key), &explanation);
        }
        let len = ctx.stale.lock().unwrap().len();
        assert!(len <= STALE_CAP, "stale store grew to {len}");
        server.shutdown();
    }
}
