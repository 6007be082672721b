//! comet-serve: a multi-threaded explanation service over the COMET
//! stack — `std::net` only, no async runtime.
//!
//! The crate turns the library pipeline (`comet-models` stack +
//! `comet-core` explainer) into a long-running HTTP service with the
//! operational properties a shared deployment needs:
//!
//! * **Backpressure, not collapse** — adaptive admission control
//!   ([`admission`]: CoDel-style queue-delay detection driving an AIMD
//!   concurrency limit) in front of a bounded queue ([`queue`]); every
//!   shed is an immediate 503 with a typed reason.
//! * **Degradation over failure** — explains ride a ladder
//!   (precomputed store → full search → reduced budget → stale cache →
//!   baseline probe) under deadline pressure or an open circuit; the
//!   tier is visible on the wire and in `/metrics` ([`server`]).
//! * **Precomputed explanations** — `--store` serves bitwise replicas
//!   of live search results from a `comet-store` file as the ladder's
//!   top tier, keyed by model version so hot-swaps structurally
//!   invalidate stale stores, and exposes the store's build-time
//!   importance rollups at `GET /analytics/categories` and
//!   `/analytics/opcodes`.
//! * **Work deduplication** — identical in-flight explains coalesce
//!   onto one search ([`server`]); the sharded prediction cache
//!   deduplicates repeated queries underneath.
//! * **Deadlines** — per-request budgets propagate from a header or
//!   body field into the model stack (watchdog for single predicts,
//!   cooperative gate for explain searches).
//! * **Observability** — atomic counters and latency histograms
//!   rendered as Prometheus text at `GET /metrics` ([`metrics`]);
//!   `GET /healthz` (liveness) and `GET /readyz` (readiness with
//!   reasons).
//! * **Graceful drain** — SIGINT/SIGTERM (or stdin EOF under the
//!   supervisor) stops the accept loop, in-flight requests finish,
//!   workers join ([`comet_core::cancel`]).
//! * **Crash containment** — the `comet-supervisor` binary
//!   ([`supervise`]) keeps N serve processes alive with jittered
//!   exponential-backoff restarts and a restart-rate circuit breaker.
//! * **Crash-safe model lifecycle** — a versioned on-disk registry
//!   ([`comet_models::ModelRegistry`]) plus RCU-published model epochs
//!   ([`lifecycle`]): `POST /admin/model` stages a candidate, shadow
//!   validates it against the live model, hot-swaps atomically, and
//!   rolls back automatically if probation traffic regresses; every
//!   response names the `model_version` that computed it.
//!
//! Endpoints: `POST /v1/predict`, `POST /v1/explain`,
//! `POST`/`GET /admin/model`, `GET /healthz`, `GET /readyz`,
//! `GET /metrics`, `GET /analytics/categories`,
//! `GET /analytics/opcodes`. Wire DTOs live in [`wire`]; the
//! HTTP/1.1 subset in [`http`]. Seeded fault injection for the chaos
//! harness lives in [`server::ChaosConfig`] (worker panics) and the
//! `comet-models` fault decorators (model-level faults).

pub mod admission;
pub mod event;
pub mod http;
pub mod lifecycle;
pub mod metrics;
pub mod queue;
pub mod route;
pub mod router;
pub mod server;
pub mod supervise;
pub mod sys;
pub mod timer;
pub mod wire;

pub use admission::{AdmissionConfig, AdmissionController, ShedReason};
pub use comet_models::ModelKind;
pub use lifecycle::ShadowGates;
pub use metrics::{Endpoint, StatusClass, Tier};
pub use queue::BoundedQueue;
pub use route::{Ring, ShardSpec};
pub use router::{Router, RouterConfig};
pub use server::{ChaosConfig, ServeConfig, Server};
pub use supervise::{ChildSpec, Supervisor, SupervisorConfig};
