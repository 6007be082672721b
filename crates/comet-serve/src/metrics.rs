//! Service metrics: atomic counters and fixed-bucket latency
//! histograms, rendered in Prometheus text exposition format at
//! `GET /metrics`.
//!
//! Everything is lock-free (`AtomicU64` only) so the request hot path
//! pays a handful of relaxed atomic increments per request, and a
//! scrape never blocks a worker. Quantiles are estimated from the
//! histogram buckets at scrape time (linear interpolation inside the
//! containing bucket), which is exactly the estimate a Prometheus
//! `histogram_quantile` query would produce from the same buckets.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::admission::ShedReason;

/// The endpoints the service distinguishes in its metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/predict`
    Predict,
    /// `POST /v1/explain`
    Explain,
    /// `GET /healthz`
    Healthz,
    /// `GET /readyz`
    Readyz,
    /// `GET /metrics`
    Metrics,
    /// `POST`/`GET /admin/model` (model lifecycle).
    Admin,
    /// `GET /analytics/categories` and `/analytics/opcodes`
    /// (store-backed aggregation rollups).
    Analytics,
    /// Anything else (404s, bad request lines, …).
    Other,
}

impl Endpoint {
    const ALL: [Endpoint; 8] = [
        Endpoint::Predict,
        Endpoint::Explain,
        Endpoint::Healthz,
        Endpoint::Readyz,
        Endpoint::Metrics,
        Endpoint::Admin,
        Endpoint::Analytics,
        Endpoint::Other,
    ];

    fn index(self) -> usize {
        match self {
            Endpoint::Predict => 0,
            Endpoint::Explain => 1,
            Endpoint::Healthz => 2,
            Endpoint::Readyz => 3,
            Endpoint::Metrics => 4,
            Endpoint::Admin => 5,
            Endpoint::Analytics => 6,
            Endpoint::Other => 7,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Endpoint::Predict => "predict",
            Endpoint::Explain => "explain",
            Endpoint::Healthz => "healthz",
            Endpoint::Readyz => "readyz",
            Endpoint::Metrics => "metrics",
            Endpoint::Admin => "admin",
            Endpoint::Analytics => "analytics",
            Endpoint::Other => "other",
        }
    }
}

/// Status classes tracked per endpoint (the service only ever emits
/// these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusClass {
    /// 200.
    Ok,
    /// 400 (malformed request / unknown fields / bad version).
    BadRequest,
    /// 404.
    NotFound,
    /// 408 (request deadline exhausted before completion, or a
    /// slow-loris peer that never finished sending its request).
    Timeout,
    /// 413 (request body over the hard cap).
    PayloadTooLarge,
    /// 409 (a staged model candidate failed shadow validation).
    Conflict,
    /// 431 (request line or header block over the hard cap).
    HeadersTooLarge,
    /// 500 (handler failure).
    Internal,
    /// 503 (load shed, or not ready on `/readyz`).
    Shed,
}

impl StatusClass {
    const ALL: [StatusClass; 9] = [
        StatusClass::Ok,
        StatusClass::BadRequest,
        StatusClass::NotFound,
        StatusClass::Timeout,
        StatusClass::Conflict,
        StatusClass::PayloadTooLarge,
        StatusClass::HeadersTooLarge,
        StatusClass::Internal,
        StatusClass::Shed,
    ];

    fn index(self) -> usize {
        match self {
            StatusClass::Ok => 0,
            StatusClass::BadRequest => 1,
            StatusClass::NotFound => 2,
            StatusClass::Timeout => 3,
            StatusClass::Conflict => 4,
            StatusClass::PayloadTooLarge => 5,
            StatusClass::HeadersTooLarge => 6,
            StatusClass::Internal => 7,
            StatusClass::Shed => 8,
        }
    }

    /// The HTTP status code this class renders as.
    pub fn code(self) -> u16 {
        match self {
            StatusClass::Ok => 200,
            StatusClass::BadRequest => 400,
            StatusClass::NotFound => 404,
            StatusClass::Timeout => 408,
            StatusClass::Conflict => 409,
            StatusClass::PayloadTooLarge => 413,
            StatusClass::HeadersTooLarge => 431,
            StatusClass::Internal => 500,
            StatusClass::Shed => 503,
        }
    }
}

/// The degradation-ladder tier an explain response was served from
/// (see `server::run_search`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// A precomputed explanation served straight from the on-disk
    /// store (comet-store) — the top of the ladder, no search at all.
    Store,
    /// The full anchors search at the configured budgets.
    Full,
    /// A reduced-budget search: fewer KL-LUCB draws, smaller coverage
    /// pool, narrower beam.
    ReducedBudget,
    /// A stale previously-computed explanation served from the
    /// in-memory per-version stale map.
    Cached,
    /// A minimal single-feature baseline probe.
    Baseline,
}

impl Tier {
    /// All tiers, for metrics iteration, best first.
    pub const ALL: [Tier; 5] =
        [Tier::Store, Tier::Full, Tier::ReducedBudget, Tier::Cached, Tier::Baseline];

    fn index(self) -> usize {
        match self {
            Tier::Store => 0,
            Tier::Full => 1,
            Tier::ReducedBudget => 2,
            Tier::Cached => 3,
            Tier::Baseline => 4,
        }
    }

    /// The wire label carried in `ExplanationDto::tier` and the `tier`
    /// label in `/metrics`.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Store => "store",
            Tier::Full => "full",
            Tier::ReducedBudget => "reduced-budget",
            Tier::Cached => "cached",
            Tier::Baseline => "baseline",
        }
    }
}

/// Upper bounds (microseconds) of the standard latency buckets, plus
/// an implicit +Inf bucket. Spans 100µs → 10s: cache-hit predicts land
/// in the first buckets, cold explains in the hundreds-of-ms range.
const BUCKET_BOUNDS_US: [u64; 14] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 10_000_000,
];

/// Fine-grained bounds for store-hit latency (1µs → 10ms). Store hits
/// complete in microseconds — two orders of magnitude below the first
/// standard bucket — so demonstrating the ≥100× speedup over live
/// explains needs its own resolution.
const STORE_BUCKET_BOUNDS_US: [u64; 13] =
    [1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000];

/// A fixed-bucket latency histogram (cumulative counts would race
/// across buckets, so buckets store per-bucket counts and cumulate at
/// render time). Bucket bounds are chosen at construction:
/// [`Histogram::default`] uses the standard request-latency bounds,
/// [`Histogram::with_bounds`] any custom static set.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    buckets: Box<[AtomicU64]>,
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::with_bounds(&BUCKET_BOUNDS_US)
    }
}

impl Histogram {
    /// A histogram over `bounds` (ascending, in µs) plus an implicit
    /// +Inf bucket.
    pub fn with_bounds(bounds: &'static [u64]) -> Histogram {
        Histogram {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe_us(&self, us: u64) {
        let slot = self.bounds.iter().position(|&b| us <= b).unwrap_or(self.bounds.len());
        self.buckets[slot].fetch_add(1, Relaxed);
        self.sum_us.fetch_add(us, Relaxed);
        self.count.fetch_add(1, Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Estimate the `q`-quantile (0 < q < 1) in microseconds by linear
    /// interpolation within the containing bucket. Returns 0 when
    /// empty; observations in the +Inf bucket report the last finite
    /// bound (the estimate is saturated, not extrapolated).
    pub fn quantile_us(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = q * total as f64;
        let mut cumulative = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            let next = cumulative + c;
            if (next as f64) >= rank && c > 0 {
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
                let upper = self.bounds.get(i).copied().unwrap_or(*self.bounds.last().unwrap());
                if upper <= lower {
                    return upper as f64;
                }
                let within = (rank - cumulative as f64) / c as f64;
                return lower as f64 + within.clamp(0.0, 1.0) * (upper - lower) as f64;
            }
            cumulative = next;
        }
        *self.bounds.last().unwrap() as f64
    }

    /// Render as a Prometheus histogram (`_bucket`/`_sum`/`_count`)
    /// with the given name and label set.
    fn render(&self, out: &mut String, name: &str, labels: &str) {
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Relaxed);
            let le = self
                .bounds
                .get(i)
                .map(|&b| format!("{}", b as f64 / 1e6))
                .unwrap_or_else(|| "+Inf".to_string());
            let sep = if labels.is_empty() { "" } else { "," };
            let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}");
        }
        let braced = if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
        let _ = writeln!(out, "{name}_sum{braced} {}", self.sum_us.load(Relaxed) as f64 / 1e6);
        let _ = writeln!(out, "{name}_count{braced} {}", self.count.load(Relaxed));
    }
}

/// A [`Histogram`] whose `Default` uses the fine store-hit bounds, so
/// [`Registry`] can keep deriving `Default`.
#[derive(Debug)]
struct StoreHitHistogram(Histogram);

impl Default for StoreHitHistogram {
    fn default() -> StoreHitHistogram {
        StoreHitHistogram(Histogram::with_bounds(&STORE_BUCKET_BOUNDS_US))
    }
}

/// The process-wide metrics registry shared by the accept loop, the
/// workers, and the `/metrics` handler.
#[derive(Debug, Default)]
pub struct Registry {
    /// Requests by endpoint × status class.
    requests: [[AtomicU64; StatusClass::ALL.len()]; Endpoint::ALL.len()],
    /// Connections rejected at admission (all reasons).
    shed: AtomicU64,
    /// Shed connections by reason.
    shed_reasons: [AtomicU64; ShedReason::ALL.len()],
    /// Explain searches served, by degradation-ladder tier.
    tiers: [AtomicU64; Tier::ALL.len()],
    /// Current adaptive admission (concurrency) limit; refreshed at
    /// scrape time by the `/metrics` handler.
    admission_limit: AtomicU64,
    /// Last observed queue sojourn, µs; refreshed at scrape time.
    queue_delay_us: AtomicU64,
    /// Worker panics injected by the seeded chaos mode.
    chaos_panics: AtomicU64,
    /// Explain requests answered by piggybacking on an identical
    /// in-flight search (single-flight coalescing).
    coalesced: AtomicU64,
    /// Underlying anchors searches actually executed.
    searches: AtomicU64,
    /// Current depth of the bounded request queue (set by the accept
    /// loop after each push/shed; workers decrement on pop).
    queue_depth: AtomicU64,
    /// Model queries issued through the batched search path, per
    /// endpoint.
    batched_queries: [AtomicU64; Endpoint::ALL.len()],
    /// `predict_batch` calls issued, per endpoint (occupancy
    /// denominator together with the configured batch size).
    batch_chunks: [AtomicU64; Endpoint::ALL.len()],
    /// The configured model-batch size, for occupancy rendering (set
    /// once at server start; 0 until then).
    batch_size: AtomicU64,
    /// Latency histograms for the two real endpoints.
    predict_latency: Histogram,
    explain_latency: Histogram,
    /// Explains answered from the precomputed on-disk store.
    store_hits: AtomicU64,
    /// Explains that consulted a configured store and missed (fell
    /// through to the live ladder). Absent-store requests count
    /// neither.
    store_misses: AtomicU64,
    /// Store-hit latency on its own fine-grained buckets (store hits
    /// are ~µs; the standard buckets start at 100µs).
    store_hit_latency: StoreHitHistogram,
    /// Active model version (registry version of the epoch serving
    /// traffic); 0 until the first epoch is published.
    model_version: AtomicU64,
    /// Model hot-swaps that reached the serving path (promotions,
    /// including forced ones; rollbacks count separately).
    model_swaps: AtomicU64,
    /// Automatic or manual rollbacks to the last-known-good model.
    model_rollbacks: AtomicU64,
    /// Open connections across all reactor threads (gauge).
    connections: AtomicU64,
    /// Shard identity, packed `(count << 32) | index`; 0 = unsharded.
    shard: AtomicU64,
}

impl Registry {
    /// Fresh registry with all counters at zero.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Count one finished request.
    pub fn record(&self, endpoint: Endpoint, status: StatusClass) {
        self.requests[endpoint.index()][status.index()].fetch_add(1, Relaxed);
    }

    /// Record a served request's latency (predict/explain only; the
    /// introspection endpoints are not interesting to time).
    pub fn observe_latency(&self, endpoint: Endpoint, us: u64) {
        match endpoint {
            Endpoint::Predict => self.predict_latency.observe_us(us),
            Endpoint::Explain => self.explain_latency.observe_us(us),
            _ => {}
        }
    }

    /// Count one load-shed connection (the 503 itself is also recorded
    /// via [`record`](Registry::record) by the caller).
    pub fn record_shed(&self, reason: ShedReason) {
        self.shed.fetch_add(1, Relaxed);
        self.shed_reasons[reason.index()].fetch_add(1, Relaxed);
    }

    /// Connections shed so far (all reasons).
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Relaxed)
    }

    /// Count one explain search served from a degradation-ladder tier.
    pub fn record_tier(&self, tier: Tier) {
        self.tiers[tier.index()].fetch_add(1, Relaxed);
    }

    /// Explain searches served from `tier` so far.
    pub fn tier_count(&self, tier: Tier) -> u64 {
        self.tiers[tier.index()].load(Relaxed)
    }

    /// Refresh the admission gauges (called by the `/metrics` handler
    /// at scrape time).
    pub fn set_admission(&self, limit: u64, queue_delay_us: u64) {
        self.admission_limit.store(limit, Relaxed);
        self.queue_delay_us.store(queue_delay_us, Relaxed);
    }

    /// Count one chaos-injected worker panic.
    pub fn record_chaos_panic(&self) {
        self.chaos_panics.fetch_add(1, Relaxed);
    }

    /// Chaos-injected worker panics so far.
    pub fn chaos_panic_count(&self) -> u64 {
        self.chaos_panics.load(Relaxed)
    }

    /// Requests recorded with `status` across all endpoints.
    pub fn requests_with_status(&self, status: StatusClass) -> u64 {
        Endpoint::ALL.iter().map(|e| self.requests[e.index()][status.index()].load(Relaxed)).sum()
    }

    /// Count one coalesced explain (answered by an in-flight twin).
    pub fn record_coalesced(&self) {
        self.coalesced.fetch_add(1, Relaxed);
    }

    /// Count one underlying anchors search.
    pub fn record_search(&self) {
        self.searches.fetch_add(1, Relaxed);
    }

    /// Underlying anchors searches executed so far.
    pub fn search_count(&self) -> u64 {
        self.searches.load(Relaxed)
    }

    /// Explains coalesced onto an in-flight twin so far.
    pub fn coalesced_count(&self) -> u64 {
        self.coalesced.load(Relaxed)
    }

    /// Update the queue-depth gauge.
    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth as u64, Relaxed);
    }

    /// Record the model-batch size the server was configured with
    /// (once, at startup; needed to turn chunk counts into occupancy).
    pub fn set_batch_size(&self, batch: usize) {
        self.batch_size.store(batch as u64, Relaxed);
    }

    /// Record one finished search's batching activity: `queries` model
    /// queries dispatched through `chunks` `predict_batch` calls.
    pub fn record_batched(&self, endpoint: Endpoint, queries: u64, chunks: u64) {
        self.batched_queries[endpoint.index()].fetch_add(queries, Relaxed);
        self.batch_chunks[endpoint.index()].fetch_add(chunks, Relaxed);
    }

    /// Model queries issued through the batch path so far, across all
    /// endpoints.
    pub fn queries_batched_total(&self) -> u64 {
        self.batched_queries.iter().map(|c| c.load(Relaxed)).sum()
    }

    /// Mean batch occupancy for `endpoint` in `(0, 1]`: batched queries
    /// per chunk over the configured batch size. Zero before any chunk
    /// ran (or if the batch size was never set).
    pub fn batch_occupancy(&self, endpoint: Endpoint) -> f64 {
        let chunks = self.batch_chunks[endpoint.index()].load(Relaxed);
        let batch = self.batch_size.load(Relaxed);
        if chunks == 0 || batch == 0 {
            return 0.0;
        }
        self.batched_queries[endpoint.index()].load(Relaxed) as f64 / (chunks * batch) as f64
    }

    /// Publish the active model version (gauge).
    pub fn set_model_version(&self, version: u64) {
        self.model_version.store(version, Relaxed);
    }

    /// The active model version last published.
    pub fn model_version(&self) -> u64 {
        self.model_version.load(Relaxed)
    }

    /// Count one model hot-swap (a promotion reaching the serving
    /// path).
    pub fn record_model_swap(&self) {
        self.model_swaps.fetch_add(1, Relaxed);
    }

    /// Model hot-swaps so far.
    pub fn model_swap_count(&self) -> u64 {
        self.model_swaps.load(Relaxed)
    }

    /// Count one rollback to the last-known-good model.
    pub fn record_model_rollback(&self) {
        self.model_rollbacks.fetch_add(1, Relaxed);
    }

    /// Rollbacks so far.
    pub fn model_rollback_count(&self) -> u64 {
        self.model_rollbacks.load(Relaxed)
    }

    /// Update the open-connections gauge (set by the reactors).
    pub fn set_connections(&self, open: u64) {
        self.connections.store(open, Relaxed);
    }

    /// Publish this process's shard identity (`--shard index/count`).
    pub fn set_shard(&self, index: u32, count: u32) {
        self.shard.store(((count as u64) << 32) | index as u64, Relaxed);
    }

    /// The explain latency histogram (`comet_request_latency_seconds`):
    /// the ladder's tier choice reads its p90, and code that embeds a
    /// server can read its quantiles.
    pub fn explain_latency(&self) -> &Histogram {
        &self.explain_latency
    }

    /// The predict latency histogram (`comet_request_latency_seconds`),
    /// for code that embeds a server.
    pub fn predict_latency(&self) -> &Histogram {
        &self.predict_latency
    }

    /// Count one explain served from the precomputed store, with its
    /// end-to-end handler latency.
    pub fn record_store_hit(&self, us: u64) {
        self.store_hits.fetch_add(1, Relaxed);
        self.store_hit_latency.0.observe_us(us);
    }

    /// Count one explain that consulted the store and missed.
    pub fn record_store_miss(&self) {
        self.store_misses.fetch_add(1, Relaxed);
    }

    /// Explains served from the store so far.
    pub fn store_hit_count(&self) -> u64 {
        self.store_hits.load(Relaxed)
    }

    /// Store lookups that missed so far.
    pub fn store_miss_count(&self) -> u64 {
        self.store_misses.load(Relaxed)
    }

    /// The store-hit latency histogram (fine-grained buckets).
    pub fn store_hit_latency(&self) -> &Histogram {
        &self.store_hit_latency.0
    }

    /// Render the whole registry in Prometheus text exposition format.
    /// `cache` carries the shared model cache's counters, re-exported
    /// as `comet_cache_*` so scrapers see hit rate without a second
    /// endpoint; `stale_versions` carries `(model_version, entries)`
    /// pairs from the stale-explanation map, so operators can see
    /// exactly how many entries each hot-swap stranded.
    pub fn render_prometheus(
        &self,
        cache: &comet_models::QueryStats,
        stale_versions: &[(u64, u64)],
    ) -> String {
        let mut out = String::with_capacity(4096);
        let _ = writeln!(out, "# HELP comet_requests_total Requests by endpoint and status.");
        let _ = writeln!(out, "# TYPE comet_requests_total counter");
        for endpoint in Endpoint::ALL {
            for status in StatusClass::ALL {
                let count = self.requests[endpoint.index()][status.index()].load(Relaxed);
                if count > 0 {
                    let _ = writeln!(
                        out,
                        "comet_requests_total{{endpoint=\"{}\",status=\"{}\"}} {count}",
                        endpoint.label(),
                        status.code()
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "# HELP comet_kernel Active inference kernel variant (info gauge, always 1)."
        );
        let _ = writeln!(out, "# TYPE comet_kernel gauge");
        let _ = writeln!(out, "comet_kernel{{name=\"{}\"}} 1", comet_nn::kernel::active().name);
        let _ = writeln!(out, "# HELP comet_shed_total Connections rejected by backpressure.");
        let _ = writeln!(out, "# TYPE comet_shed_total counter");
        let _ = writeln!(out, "comet_shed_total {}", self.shed.load(Relaxed));
        let _ = writeln!(out, "# HELP comet_shed_reason_total Shed connections by reason.");
        let _ = writeln!(out, "# TYPE comet_shed_reason_total counter");
        for reason in ShedReason::ALL {
            let _ = writeln!(
                out,
                "comet_shed_reason_total{{reason=\"{}\"}} {}",
                reason.label(),
                self.shed_reasons[reason.index()].load(Relaxed)
            );
        }
        let _ = writeln!(
            out,
            "# HELP comet_admission_limit Current adaptive concurrency limit (AIMD)."
        );
        let _ = writeln!(out, "# TYPE comet_admission_limit gauge");
        let _ = writeln!(out, "comet_admission_limit {}", self.admission_limit.load(Relaxed));
        let _ = writeln!(out, "# HELP comet_queue_delay_seconds Last observed queue sojourn time.");
        let _ = writeln!(out, "# TYPE comet_queue_delay_seconds gauge");
        let _ = writeln!(
            out,
            "comet_queue_delay_seconds {}",
            self.queue_delay_us.load(Relaxed) as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "# HELP comet_explain_tier_total Explain searches by degradation-ladder tier."
        );
        let _ = writeln!(out, "# TYPE comet_explain_tier_total counter");
        for tier in Tier::ALL {
            let _ = writeln!(
                out,
                "comet_explain_tier_total{{tier=\"{}\"}} {}",
                tier.label(),
                self.tiers[tier.index()].load(Relaxed)
            );
        }
        let chaos_panics = self.chaos_panics.load(Relaxed);
        if chaos_panics > 0 {
            let _ = writeln!(
                out,
                "# HELP comet_chaos_panics_total Worker panics injected by chaos mode."
            );
            let _ = writeln!(out, "# TYPE comet_chaos_panics_total counter");
            let _ = writeln!(out, "comet_chaos_panics_total {chaos_panics}");
        }
        let _ = writeln!(out, "# HELP comet_explain_searches_total Underlying anchors searches.");
        let _ = writeln!(out, "# TYPE comet_explain_searches_total counter");
        let _ = writeln!(out, "comet_explain_searches_total {}", self.searches.load(Relaxed));
        let _ = writeln!(
            out,
            "# HELP comet_explain_coalesced_total Explains answered by an in-flight twin."
        );
        let _ = writeln!(out, "# TYPE comet_explain_coalesced_total counter");
        let _ = writeln!(out, "comet_explain_coalesced_total {}", self.coalesced.load(Relaxed));
        let _ = writeln!(out, "# HELP comet_queue_depth Requests waiting in the bounded queue.");
        let _ = writeln!(out, "# TYPE comet_queue_depth gauge");
        let _ = writeln!(out, "comet_queue_depth {}", self.queue_depth.load(Relaxed));
        let _ = writeln!(out, "# HELP comet_connections Open connections across all reactors.");
        let _ = writeln!(out, "# TYPE comet_connections gauge");
        let _ = writeln!(out, "comet_connections {}", self.connections.load(Relaxed));
        let shard = self.shard.load(Relaxed);
        if shard != 0 {
            let _ = writeln!(
                out,
                "# HELP comet_shard Shard identity of this process (info gauge, always 1)."
            );
            let _ = writeln!(out, "# TYPE comet_shard gauge");
            let _ = writeln!(
                out,
                "comet_shard{{index=\"{}\",count=\"{}\"}} 1",
                shard & 0xffff_ffff,
                shard >> 32
            );
        }
        let _ = writeln!(
            out,
            "# HELP comet_queries_batched_total Model queries issued via predict_batch."
        );
        let _ = writeln!(out, "# TYPE comet_queries_batched_total counter");
        for endpoint in Endpoint::ALL {
            let queries = self.batched_queries[endpoint.index()].load(Relaxed);
            if queries > 0 {
                let _ = writeln!(
                    out,
                    "comet_queries_batched_total{{endpoint=\"{}\"}} {queries}",
                    endpoint.label()
                );
            }
        }
        let _ = writeln!(
            out,
            "# HELP comet_batch_occupancy Mean model-batch occupancy (queries per chunk / batch size)."
        );
        let _ = writeln!(out, "# TYPE comet_batch_occupancy gauge");
        for endpoint in Endpoint::ALL {
            if self.batch_chunks[endpoint.index()].load(Relaxed) > 0 {
                let _ = writeln!(
                    out,
                    "comet_batch_occupancy{{endpoint=\"{}\"}} {}",
                    endpoint.label(),
                    self.batch_occupancy(endpoint)
                );
            }
        }

        let _ = writeln!(
            out,
            "# HELP comet_cache_queries_total Model queries through the shared prediction cache \
             (predicts; explain searches bypass it)."
        );
        let _ = writeln!(out, "# TYPE comet_cache_queries_total counter");
        let _ = writeln!(out, "comet_cache_queries_total {}", cache.total);
        let _ =
            writeln!(out, "# HELP comet_cache_hits_total Queries answered from the shared cache.");
        let _ = writeln!(out, "# TYPE comet_cache_hits_total counter");
        let _ = writeln!(out, "comet_cache_hits_total {}", cache.hits);
        let _ =
            writeln!(out, "# HELP comet_cache_hit_rate Fraction of queries answered from cache.");
        let _ = writeln!(out, "# TYPE comet_cache_hit_rate gauge");
        let _ = writeln!(out, "comet_cache_hit_rate {}", cache.hit_rate());
        let _ = writeln!(out, "# HELP comet_cache_entries Live entries in the shared cache.");
        let _ = writeln!(out, "# TYPE comet_cache_entries gauge");
        let _ = writeln!(out, "comet_cache_entries {}", cache.entries);
        let _ = writeln!(
            out,
            "# HELP comet_cache_evictions_total Entries displaced by bounded-capacity inserts."
        );
        let _ = writeln!(out, "# TYPE comet_cache_evictions_total counter");
        let _ = writeln!(out, "comet_cache_evictions_total {}", cache.evictions);
        let _ = writeln!(
            out,
            "# HELP comet_cache_version Model version the live prediction cache belongs to."
        );
        let _ = writeln!(out, "# TYPE comet_cache_version gauge");
        let _ = writeln!(out, "comet_cache_version {}", cache.version);
        let _ = writeln!(
            out,
            "# HELP comet_stale_entries Stale-explanation entries by the model version that produced them."
        );
        let _ = writeln!(out, "# TYPE comet_stale_entries gauge");
        for (version, entries) in stale_versions {
            let _ = writeln!(out, "comet_stale_entries{{version=\"{version}\"}} {entries}");
        }

        let _ = writeln!(
            out,
            "# HELP comet_store_hits_total Explains served from the precomputed store."
        );
        let _ = writeln!(out, "# TYPE comet_store_hits_total counter");
        let _ = writeln!(out, "comet_store_hits_total {}", self.store_hits.load(Relaxed));
        let _ = writeln!(
            out,
            "# HELP comet_store_misses_total Explains that consulted the store and missed."
        );
        let _ = writeln!(out, "# TYPE comet_store_misses_total counter");
        let _ = writeln!(out, "comet_store_misses_total {}", self.store_misses.load(Relaxed));
        let _ = writeln!(
            out,
            "# HELP comet_store_hit_latency_seconds Store-hit handler latency (fine buckets)."
        );
        let _ = writeln!(out, "# TYPE comet_store_hit_latency_seconds histogram");
        self.store_hit_latency.0.render(&mut out, "comet_store_hit_latency_seconds", "");

        let _ = writeln!(
            out,
            "# HELP comet_model_version Registry version of the model serving traffic."
        );
        let _ = writeln!(out, "# TYPE comet_model_version gauge");
        let _ = writeln!(out, "comet_model_version {}", self.model_version.load(Relaxed));
        let _ = writeln!(out, "# HELP comet_model_swaps_total Model hot-swaps served so far.");
        let _ = writeln!(out, "# TYPE comet_model_swaps_total counter");
        let _ = writeln!(out, "comet_model_swaps_total {}", self.model_swaps.load(Relaxed));
        let _ = writeln!(
            out,
            "# HELP comet_model_rollbacks_total Rollbacks to the last-known-good model."
        );
        let _ = writeln!(out, "# TYPE comet_model_rollbacks_total counter");
        let _ = writeln!(out, "comet_model_rollbacks_total {}", self.model_rollbacks.load(Relaxed));

        let _ = writeln!(out, "# HELP comet_request_latency_seconds Request latency.");
        let _ = writeln!(out, "# TYPE comet_request_latency_seconds histogram");
        self.predict_latency.render(
            &mut out,
            "comet_request_latency_seconds",
            "endpoint=\"predict\"",
        );
        self.explain_latency.render(
            &mut out,
            "comet_request_latency_seconds",
            "endpoint=\"explain\"",
        );

        let _ = writeln!(
            out,
            "# HELP comet_request_latency_quantile_seconds Estimated latency quantiles."
        );
        let _ = writeln!(out, "# TYPE comet_request_latency_quantile_seconds gauge");
        for (label, hist) in
            [("predict", &self.predict_latency), ("explain", &self.explain_latency)]
        {
            for (q, qs) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                let _ = writeln!(
                    out,
                    "comet_request_latency_quantile_seconds{{endpoint=\"{label}\",quantile=\"{qs}\"}} {}",
                    hist.quantile_us(q) / 1e6
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        let h = Histogram::default();
        // 100 observations spread uniformly through the 100–250µs bucket.
        for _ in 0..100 {
            h.observe_us(200);
        }
        let p50 = h.quantile_us(0.5);
        assert!((100.0..=250.0).contains(&p50), "p50 {p50} outside its bucket");
        assert_eq!(h.count(), 100);
        // All mass in one bucket ⇒ p99 stays inside it too.
        assert!(h.quantile_us(0.99) <= 250.0);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.5), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn overflow_bucket_saturates_at_last_bound() {
        let h = Histogram::default();
        h.observe_us(60_000_000); // a minute: beyond the last bound
        assert_eq!(h.quantile_us(0.5), 10_000_000.0);
    }

    #[test]
    fn prometheus_rendering_contains_the_advertised_families() {
        let reg = Registry::new();
        reg.record(Endpoint::Predict, StatusClass::Ok);
        reg.record(Endpoint::Explain, StatusClass::Shed);
        reg.record_shed(ShedReason::QueueFull);
        reg.record_search();
        reg.record_coalesced();
        reg.observe_latency(Endpoint::Explain, 12_000);
        reg.set_queue_depth(3);
        reg.set_batch_size(16);
        reg.record_batched(Endpoint::Explain, 24, 2);
        reg.record_tier(Tier::ReducedBudget);
        reg.record_tier(Tier::Store);
        reg.record_store_hit(12);
        reg.record_store_miss();
        reg.set_admission(48, 1_500);
        let cache =
            comet_models::QueryStats { total: 10, hits: 4, version: 3, ..Default::default() };
        let text = reg.render_prometheus(&cache, &[(1, 5), (2, 7)]);
        for needle in [
            "comet_requests_total{endpoint=\"predict\",status=\"200\"} 1",
            "comet_requests_total{endpoint=\"explain\",status=\"503\"} 1",
            "comet_shed_total 1",
            "comet_shed_reason_total{reason=\"queue-full\"} 1",
            "comet_shed_reason_total{reason=\"admission-limit\"} 0",
            "comet_admission_limit 48",
            "comet_queue_delay_seconds 0.0015",
            "comet_explain_tier_total{tier=\"reduced-budget\"} 1",
            "comet_explain_tier_total{tier=\"full\"} 0",
            "comet_explain_searches_total 1",
            "comet_explain_coalesced_total 1",
            "comet_queue_depth 3",
            "comet_queries_batched_total{endpoint=\"explain\"} 24",
            "comet_batch_occupancy{endpoint=\"explain\"} 0.75",
            "comet_cache_hit_rate 0.4",
            "comet_cache_version 3",
            "comet_stale_entries{version=\"1\"} 5",
            "comet_stale_entries{version=\"2\"} 7",
            "comet_explain_tier_total{tier=\"store\"} 1",
            "comet_store_hits_total 1",
            "comet_store_misses_total 1",
            "comet_store_hit_latency_seconds_count 1",
            "comet_request_latency_seconds_bucket{endpoint=\"explain\",le=\"+Inf\"} 1",
            "comet_request_latency_quantile_seconds{endpoint=\"explain\",quantile=\"0.99\"}",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn batch_occupancy_is_zero_without_chunks_or_batch_size() {
        let reg = Registry::new();
        assert_eq!(reg.batch_occupancy(Endpoint::Explain), 0.0);
        assert_eq!(reg.queries_batched_total(), 0);
        // Chunks without a configured batch size still report zero
        // (never a division by zero or a bogus occupancy).
        reg.record_batched(Endpoint::Explain, 8, 1);
        assert_eq!(reg.batch_occupancy(Endpoint::Explain), 0.0);
        assert_eq!(reg.queries_batched_total(), 8);
        reg.set_batch_size(8);
        assert_eq!(reg.batch_occupancy(Endpoint::Explain), 1.0);
    }

    #[test]
    fn status_codes_and_cross_endpoint_sums() {
        assert_eq!(StatusClass::PayloadTooLarge.code(), 413);
        assert_eq!(StatusClass::HeadersTooLarge.code(), 431);
        assert_eq!(Tier::ReducedBudget.label(), "reduced-budget");
        let reg = Registry::new();
        reg.record(Endpoint::Predict, StatusClass::Internal);
        reg.record(Endpoint::Explain, StatusClass::Internal);
        reg.record(Endpoint::Other, StatusClass::HeadersTooLarge);
        assert_eq!(reg.requests_with_status(StatusClass::Internal), 2);
        assert_eq!(reg.requests_with_status(StatusClass::HeadersTooLarge), 1);
        assert_eq!(reg.requests_with_status(StatusClass::Ok), 0);
        reg.record_chaos_panic();
        assert_eq!(reg.chaos_panic_count(), 1);
        assert!(reg
            .render_prometheus(&Default::default(), &[])
            .contains("comet_chaos_panics_total 1"));
    }

    #[test]
    fn cumulative_buckets_are_monotone() {
        let h = Histogram::default();
        for us in [50, 300, 700, 3_000, 80_000, 2_000_000, 60_000_000] {
            h.observe_us(us);
        }
        let mut out = String::new();
        h.render(&mut out, "t", "");
        let counts: Vec<u64> = out
            .lines()
            .filter(|l| l.starts_with("t_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(counts.len(), BUCKET_BOUNDS_US.len() + 1);
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*counts.last().unwrap(), 7);
    }
}
