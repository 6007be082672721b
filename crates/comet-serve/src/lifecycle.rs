//! Model lifecycle: versioned epochs, shadow validation, probation,
//! and automatic rollback.
//!
//! The serving path never sees a half-swapped model. Every request
//! loads one `ModelEpoch` — an immutable `(version, model stack)`
//! pair — from the server's RCU cell ([`comet_core::SwapCell`]) and
//! uses only that epoch for the request's lifetime, so a response's
//! `model_version` field always names the model that actually produced
//! its numbers, even while an admin swap lands mid-request.
//!
//! A swap (`POST /admin/model`) runs this state machine:
//!
//! ```text
//! stage (registry snapshot, durable, manifest untouched)
//!   → shadow-validate (seeded probe set vs the active model)
//!       → fail  → 409, candidate stays on disk for forensics
//!       → pass  → publish epoch (RCU swap) → probation window
//!             → trips (failure rate / explain-tier regression)
//!                   → rollback to last-known-good (sticky)
//!             → survives → registry promote (manifest moves)
//! ```
//!
//! The registry `MANIFEST` moves only after probation passes, so a
//! crash — `kill -9` included — at any instant recovers to a version
//! that demonstrably served traffic. Rollback reuses the retained
//! last-good epoch `Arc`, warm cache and all, and needs no disk write
//! because the manifest never left the last-good version.

use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::metrics::{StatusClass, Tier};
use crate::server::{BoxedModel, ServerCtx, Stack};
use crate::wire::{AdminModelRequest, AdminModelResponse, ShadowReport, WIRE_V};
use comet_models::{
    CachedModel, CostModel, ModelError, ModelKind, ResilientConfig, ResilientModel,
};

/// One published, immutable `(version, model)` pair. Requests capture
/// an epoch once and never mix state across versions: the prediction
/// cache lives *inside* the epoch's stack, so a swap invalidates it by
/// construction, and the stale-explanation store is keyed by version.
pub(crate) struct ModelEpoch {
    /// Registry version (monotonic; in-memory counter without a
    /// registry).
    pub version: u64,
    /// Model display name, e.g. `crude(haswell)`.
    pub name: String,
    /// Rebuild recipe, e.g. `crude-skylake`.
    pub kind: String,
    /// The full serving stack: `CachedModel(ResilientModel(base))`.
    pub stack: Arc<Stack>,
}

/// Gates a candidate must pass during shadow validation.
#[derive(Debug, Clone, Copy)]
pub struct ShadowGates {
    /// Maximum mean absolute percentage error of the candidate vs the
    /// active model over the probe set. Generous by default: swapping
    /// between microarchitectures is legitimate; a model predicting
    /// garbage (10× off, NaN) is not.
    pub mape: f64,
    /// Maximum mean per-probe candidate latency, microseconds.
    pub mean_latency_us: f64,
}

impl Default for ShadowGates {
    fn default() -> ShadowGates {
        ShadowGates { mape: 1.0, mean_latency_us: 250_000.0 }
    }
}

/// What a snapshot's opaque payload holds for the analytical models:
/// the chaos knobs, so a restart rebuilds exactly what was serving
/// (a chaos-scaled candidate that somehow got promoted must come back
/// scaled, not silently healed).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct SnapshotPayload {
    /// Multiply every prediction by this factor (fault injection).
    #[serde(default)]
    pub chaos_scale: Option<f64>,
    /// Fail every prediction (fault injection).
    #[serde(default)]
    pub chaos_fail: bool,
}

/// Swap/rollback bookkeeping, guarded by one mutex that also
/// serializes admin swaps.
pub(crate) struct LifecycleState {
    /// Last-known-good epoch — the rollback target. Holding the `Arc`
    /// keeps its warm stack alive across any number of failed
    /// candidates.
    pub good: Arc<ModelEpoch>,
    /// Probation bookkeeping for a freshly published epoch, `None`
    /// once settled.
    pub probation: Option<Probation>,
    /// Why the most recent rollback happened (sticky until the next
    /// successful swap).
    pub last_rollback: Option<String>,
    /// Version allocator when serving without a registry.
    pub next_version: u64,
}

/// A freshly promoted epoch earns trust over a request window; real
/// traffic is the final validator shadow probes cannot replace.
pub(crate) struct Probation {
    /// The version on probation.
    pub version: u64,
    /// Requests the epoch must survive.
    pub window: u64,
    /// Requests observed so far.
    pub requests: u64,
    /// Requests that failed with a model-side 500.
    pub failures: u64,
    /// Explains observed so far.
    pub explains: u64,
    /// Explains that landed below the full tier.
    pub degraded_explains: u64,
    /// Pre-swap degraded-explain rate; the regression trip compares
    /// against this so a service that was already degraded does not
    /// pin the blame on the new model.
    pub baseline_degraded_rate: f64,
}

/// Requests on probation must accrue this many observations before a
/// rate can trip rollback (one unlucky first request is not a signal).
const PROBATION_MIN_SAMPLES: u64 = 8;
/// Model-failure rate above which probation trips.
const FAILURE_TRIP_RATE: f64 = 0.5;
/// Degraded-explain rate above baseline at which probation trips.
const DEGRADED_TRIP_MARGIN: f64 = 0.5;

/// Blocks the shadow validator probes — the serving mix in miniature:
/// dependency chains, div port pressure, loads, and a trivial block.
const PROBE_BLOCKS: [&str; 6] = [
    "add rcx, rax\nmov rdx, rcx\npop rbx",
    "mov ecx, edx\nxor edx, edx\nlea rax, [rcx + rax - 1]\ndiv rcx\nmov rdx, rcx\nimul rax, rcx",
    "div rcx",
    "imul rax, rcx\nadd rcx, rax\nnop",
    "mov rax, [rsp + 8]\nadd rax, rcx\nmov [rsp + 8], rax",
    "nop",
];

/// Build the standard serving stack around a base model (same retry
/// budget and bounded cache the boot path uses, so a hot-swapped model
/// gets identical resilience).
pub(crate) fn build_stack(base: BoxedModel, cache_capacity: usize) -> Arc<Stack> {
    let resilient_config =
        ResilientConfig { retry_budget: 64.0, retry_refill: 0.1, ..ResilientConfig::default() };
    Arc::new(CachedModel::bounded(ResilientModel::new(base, resilient_config), cache_capacity))
}

/// Build a base model from its rebuild recipe, applying any recorded
/// chaos knobs.
pub(crate) fn build_base(kind: ModelKind, payload: &SnapshotPayload) -> BoxedModel {
    let (mut base, _) = kind.build();
    if let Some(scale) = payload.chaos_scale {
        base = Box::new(ChaosScaled::new(base, scale));
    }
    if payload.chaos_fail {
        base = Box::new(ChaosFailing::new(base));
    }
    base
}

/// Fault injection: a model whose every prediction is scaled. A large
/// scale fails the shadow MAPE gate — the supported way to exercise
/// the 409 path, and (with `force`) a promoted-then-regretted swap.
struct ChaosScaled {
    inner: BoxedModel,
    scale: f64,
    name: String,
}

impl ChaosScaled {
    fn new(inner: BoxedModel, scale: f64) -> ChaosScaled {
        let name = format!("{}~x{scale}", inner.name());
        ChaosScaled { inner, scale, name }
    }
}

impl CostModel for ChaosScaled {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict(&self, block: &comet_isa::BasicBlock) -> f64 {
        self.inner.predict(block) * self.scale
    }

    fn try_predict(&self, block: &comet_isa::BasicBlock) -> Result<f64, ModelError> {
        self.inner.try_predict(block).map(|v| v * self.scale)
    }
}

/// Fault injection: a model whose every prediction errors. Fails
/// shadow validation outright; force-promoting it exercises the
/// probation failure-rate trip and automatic rollback. The wrapped
/// model contributes only its name — no query ever reaches it.
struct ChaosFailing {
    name: String,
}

impl ChaosFailing {
    fn new(inner: BoxedModel) -> ChaosFailing {
        ChaosFailing { name: format!("{}~failing", inner.name()) }
    }
}

impl CostModel for ChaosFailing {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict(&self, _block: &comet_isa::BasicBlock) -> f64 {
        f64::NAN
    }

    fn try_predict(&self, _block: &comet_isa::BasicBlock) -> Result<f64, ModelError> {
        // Non-retryable on purpose: every serving request fails fast,
        // which is what drives the probation failure-rate trip.
        Err(ModelError::Panic { message: "chaos: injected model failure".into() })
    }
}

/// Shadow-validate a candidate stack against the active one over the
/// seeded probe set. The candidate sees exactly the traffic shape the
/// probes encode; the active model supplies the reference predictions.
pub(crate) fn shadow_validate(
    active: &Stack,
    candidate: &Stack,
    gates: ShadowGates,
) -> ShadowReport {
    let mut probes = 0u64;
    let mut non_finite = 0u64;
    let mut ape_sum = 0.0f64;
    let mut ape_count = 0u64;
    let mut latency_us_sum = 0.0f64;
    for text in PROBE_BLOCKS {
        let Ok(block) = comet_isa::parse_block(text) else { continue };
        probes += 1;
        let reference = active.try_predict(&block).ok().filter(|v| v.is_finite());
        let start = Instant::now();
        let prediction = candidate.try_predict(&block);
        latency_us_sum += start.elapsed().as_micros() as f64;
        match prediction {
            Ok(v) if v.is_finite() => {
                if let Some(reference) = reference {
                    ape_sum += (v - reference).abs() / reference.abs().max(1e-9);
                    ape_count += 1;
                }
            }
            Ok(_) | Err(_) => non_finite += 1,
        }
    }
    let mape = if ape_count > 0 { ape_sum / ape_count as f64 } else { 0.0 };
    let mean_latency_us = if probes > 0 { latency_us_sum / probes as f64 } else { 0.0 };
    let mut failures = Vec::new();
    if non_finite > 0 {
        failures.push(format!("{non_finite}/{probes} probe predictions failed or were non-finite"));
    }
    if mape > gates.mape {
        failures.push(format!("probe MAPE {mape:.3} exceeds gate {:.3}", gates.mape));
    }
    if mean_latency_us > gates.mean_latency_us {
        failures.push(format!(
            "mean probe latency {mean_latency_us:.0}µs exceeds gate {:.0}µs",
            gates.mean_latency_us
        ));
    }
    ShadowReport {
        probes,
        non_finite,
        mape,
        mean_latency_us,
        passed: failures.is_empty(),
        failures,
    }
}

/// How a request against a probation epoch went, for
/// [`note_outcome`].
pub(crate) enum Outcome {
    /// A successful predict (or any non-model-fault status).
    Ok,
    /// A successful explain, with the ladder tier it landed on.
    ExplainTier(Tier),
    /// The serving model itself failed (wire 500).
    Failure,
}

enum Verdict {
    Continue,
    Rollback(String),
    Settle(u64),
}

/// Feed one request outcome into the probation window; trips rollback
/// or settles the epoch as last-known-good when the window closes.
/// Cheap no-op when nothing is on probation or the outcome belongs to
/// an older epoch still finishing in another worker.
pub(crate) fn note_outcome(ctx: &ServerCtx, version: u64, outcome: Outcome) {
    let mut lc = ctx.lifecycle.lock().unwrap_or_else(|p| p.into_inner());
    let verdict = {
        let Some(p) = lc.probation.as_mut() else { return };
        if p.version != version {
            return;
        }
        p.requests += 1;
        match outcome {
            Outcome::Failure => p.failures += 1,
            Outcome::ExplainTier(tier) => {
                p.explains += 1;
                if tier != Tier::Full {
                    p.degraded_explains += 1;
                }
            }
            Outcome::Ok => {}
        }
        let mut verdict = Verdict::Continue;
        if p.requests >= PROBATION_MIN_SAMPLES {
            let failure_rate = p.failures as f64 / p.requests as f64;
            if failure_rate > FAILURE_TRIP_RATE {
                verdict = Verdict::Rollback(format!(
                    "v{version} failure rate {failure_rate:.2} over {} probation requests",
                    p.requests
                ));
            } else if p.explains >= PROBATION_MIN_SAMPLES {
                let degraded_rate = p.degraded_explains as f64 / p.explains as f64;
                if degraded_rate > p.baseline_degraded_rate + DEGRADED_TRIP_MARGIN {
                    verdict = Verdict::Rollback(format!(
                        "v{version} degraded-explain rate {degraded_rate:.2} \
                         (baseline {:.2}) over {} probation explains",
                        p.baseline_degraded_rate, p.explains
                    ));
                }
            }
        }
        if matches!(verdict, Verdict::Continue) && p.requests >= p.window {
            verdict = Verdict::Settle(version);
        }
        verdict
    };
    match verdict {
        Verdict::Continue => {}
        Verdict::Rollback(reason) => rollback_locked(ctx, &mut lc, reason),
        Verdict::Settle(version) => settle_locked(ctx, &mut lc, version),
    }
}

/// Probation survived: the epoch becomes last-known-good and the
/// registry manifest durably moves to it.
fn settle_locked(ctx: &ServerCtx, lc: &mut LifecycleState, version: u64) {
    lc.probation = None;
    let epoch = ctx.epoch.load();
    if epoch.version != version {
        return; // a newer swap superseded this probation mid-flight
    }
    if let Some(registry) = &ctx.registry {
        if let Err(e) = registry.promote(version) {
            // Serving continues on the promoted epoch either way; the
            // manifest just still names the previous good version.
            eprintln!("[comet-serve] registry promote v{version} failed: {e}");
            return;
        }
    }
    eprintln!("[comet-serve] model v{version} ({}) settled as last-known-good", epoch.name);
    lc.good = epoch;
}

/// Swap back to the retained last-known-good epoch. No registry write:
/// the manifest never moved off the good version.
fn rollback_locked(ctx: &ServerCtx, lc: &mut LifecycleState, reason: String) {
    lc.probation = None;
    let good = Arc::clone(&lc.good);
    eprintln!("[comet-serve] model rollback to v{}: {reason}", good.version);
    ctx.metrics().set_model_version(good.version);
    ctx.metrics().record_model_rollback();
    lc.last_rollback = Some(reason);
    ctx.epoch.store(good);
}

/// Current degraded-explain rate from the global tier counters — the
/// probation baseline.
fn degraded_rate(ctx: &ServerCtx) -> f64 {
    let full = ctx.metrics().tier_count(Tier::Full);
    let total: u64 = [Tier::Full, Tier::ReducedBudget, Tier::Cached, Tier::Baseline]
        .iter()
        .map(|&t| ctx.metrics().tier_count(t))
        .sum();
    if total == 0 {
        0.0
    } else {
        (total - full) as f64 / total as f64
    }
}

/// Build the common status body under the lifecycle lock.
fn status_locked(ctx: &ServerCtx, lc: &LifecycleState, action: &str) -> AdminModelResponse {
    let epoch = ctx.epoch.load();
    AdminModelResponse {
        v: WIRE_V,
        active_version: epoch.version,
        active_model: epoch.name.clone(),
        active_kind: epoch.kind.clone(),
        last_good_version: lc.good.version,
        staged_version: 0,
        action: action.to_string(),
        shadow: None,
        registry_versions: ctx
            .registry
            .as_ref()
            .map(|r| r.versions().iter().map(|s| s.version).collect())
            .unwrap_or_default(),
        quarantined: ctx.recovery.quarantined.clone(),
        swaps: ctx.metrics().model_swap_count(),
        rollbacks: ctx.metrics().model_rollback_count(),
        probation_remaining: lc
            .probation
            .as_ref()
            .map(|p| p.window.saturating_sub(p.requests))
            .unwrap_or(0),
        last_rollback: lc.last_rollback.clone(),
    }
}

/// `GET /admin/model`: lifecycle status.
pub(crate) fn admin_status(ctx: &ServerCtx) -> AdminModelResponse {
    let lc = ctx.lifecycle.lock().unwrap_or_else(|p| p.into_inner());
    status_locked(ctx, &lc, "status")
}

/// `POST /admin/model`: stage → validate → publish → probation, or a
/// manual rollback. The lifecycle lock serializes concurrent admin
/// requests end to end; readers are never blocked (RCU).
pub(crate) fn admin_model(
    ctx: &ServerCtx,
    req: &AdminModelRequest,
) -> Result<(StatusClass, AdminModelResponse), (StatusClass, String)> {
    if req.rollback {
        if req.kind.is_some() {
            return Err((
                StatusClass::BadRequest,
                "`rollback` and `kind` are mutually exclusive".into(),
            ));
        }
        let mut lc = ctx.lifecycle.lock().unwrap_or_else(|p| p.into_inner());
        rollback_locked(ctx, &mut lc, "manual rollback requested via /admin/model".into());
        return Ok((StatusClass::Ok, status_locked(ctx, &lc, "rolled-back")));
    }

    let Some(kind_str) = req.kind.as_deref() else {
        return Err((StatusClass::BadRequest, "missing `kind` (or set `rollback`)".into()));
    };
    let Some(kind) = ModelKind::parse(kind_str) else {
        return Err((StatusClass::BadRequest, format!("unknown model kind `{kind_str}`")));
    };
    let payload = SnapshotPayload { chaos_scale: req.chaos_scale, chaos_fail: req.chaos_fail };
    let base = build_base(kind, &payload);
    let name = base.name().to_string();
    let candidate = build_stack(base, ctx.cache_capacity);

    let mut lc = ctx.lifecycle.lock().unwrap_or_else(|p| p.into_inner());
    let version = match &ctx.registry {
        Some(registry) => {
            let payload_json = serde_json::to_string(&payload)
                .map_err(|e| (StatusClass::Internal, format!("payload encode: {e}")))?;
            let note = req.note.as_deref().unwrap_or("");
            registry
                .stage(kind_str, note, &payload_json)
                .map_err(|e| (StatusClass::Internal, format!("registry stage: {e}")))?
                .version
        }
        None => {
            lc.next_version += 1;
            lc.next_version
        }
    };

    let active = ctx.epoch.load();
    let shadow = shadow_validate(&active.stack, &candidate, ctx.shadow);
    let passed = shadow.passed;

    if req.dry_run {
        let mut resp = status_locked(ctx, &lc, "dry-run");
        resp.staged_version = version;
        resp.shadow = Some(shadow);
        return Ok((StatusClass::Ok, resp));
    }
    if !passed && !req.force {
        // The staged snapshot stays on disk (never promoted) so the
        // rejected candidate can be inspected.
        let mut resp = status_locked(ctx, &lc, "rejected");
        resp.staged_version = version;
        resp.shadow = Some(shadow);
        return Ok((StatusClass::Conflict, resp));
    }

    let epoch =
        Arc::new(ModelEpoch { version, name, kind: kind_str.to_string(), stack: candidate });
    let baseline = degraded_rate(ctx);
    ctx.epoch.store(Arc::clone(&epoch));
    ctx.metrics().set_model_version(version);
    ctx.metrics().record_model_swap();
    eprintln!(
        "[comet-serve] model swap: v{version} ({}) now serving{}",
        epoch.name,
        if passed { "" } else { " (forced past shadow validation)" }
    );
    if ctx.probation_requests == 0 {
        // Probation disabled: trust the shadow gates alone.
        settle_locked(ctx, &mut lc, version);
    } else {
        lc.probation = Some(Probation {
            version,
            window: ctx.probation_requests,
            requests: 0,
            failures: 0,
            explains: 0,
            degraded_explains: 0,
            baseline_degraded_rate: baseline,
        });
    }

    let mut resp = status_locked(ctx, &lc, "promoted");
    resp.staged_version = version;
    resp.shadow = Some(shadow);
    Ok((StatusClass::Ok, resp))
}
