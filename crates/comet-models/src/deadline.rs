//! Wall-clock deadline enforcement for cost-model queries.
//!
//! A stalled backend (deadlocked native library, hung RPC, pathological
//! input) would otherwise wedge an eval worker forever: the
//! [`ModelError::Timeout`] variant existed, but nothing in the model
//! stack ever *produced* it outside fault injection. [`DeadlineModel`]
//! is the missing watchdog: it runs every `try_predict` on a worker
//! thread and, when the configured deadline elapses first, abandons the
//! call and surfaces `ModelError::Timeout { elapsed, deadline }` to the
//! caller.
//!
//! Abandonment is cooperative-free by design — the stalled thread is
//! detached, not killed, so a genuinely wedged backend leaks one
//! parked thread per abandoned query (and keeps its `Arc<M>` alive).
//! That is the price of memory safety without `pthread_cancel`; the
//! counter in [`DeadlineModel::timeouts`] makes the leak observable,
//! and the circuit breaker in
//! [`ResilientModel`](crate::ResilientModel) stops sending traffic to a
//! backend that keeps timing out.
//!
//! Compose with [`ResilientModel`](crate::ResilientModel) via
//! [`ResilientModel::with_deadline`](crate::ResilientModel::with_deadline):
//! timeouts are retryable, count into
//! [`ResilienceReport::timeouts`](crate::ResilienceReport::timeouts),
//! and eventually trip the breaker like any other failure.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use comet_isa::BasicBlock;

use crate::error::{panic_payload_message, ModelError};
use crate::resilient::ResilienceReport;
use crate::traits::{predict_one, CostModel};

/// A decorator that bounds the wall-clock time of every prediction. A
/// query past its deadline is abandoned, not killed: its worker thread
/// is detached and may stay parked in a stalled backend, which
/// [`DeadlineModel::timeouts`] makes observable.
#[derive(Debug)]
pub struct DeadlineModel<M> {
    inner: Arc<M>,
    deadline: Duration,
    timeouts: AtomicU64,
}

impl<M: CostModel + Send + Sync + 'static> DeadlineModel<M> {
    /// Wrap `inner`, abandoning any prediction that runs past
    /// `deadline`.
    pub fn new(inner: M, deadline: Duration) -> DeadlineModel<M> {
        DeadlineModel::from_arc(Arc::new(inner), deadline)
    }

    /// Like [`new`](DeadlineModel::new) for a model that is already
    /// shared.
    pub fn from_arc(inner: Arc<M>, deadline: Duration) -> DeadlineModel<M> {
        DeadlineModel { inner, deadline, timeouts: AtomicU64::new(0) }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The configured per-query deadline.
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// Queries abandoned so far (each one may have leaked a detached
    /// worker thread that is still stalled inside the backend).
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }
}

impl<M: CostModel + Send + Sync + 'static> CostModel for DeadlineModel<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    /// Infallible view: a timed-out (or otherwise failed) query
    /// surfaces as NaN.
    fn predict(&self, block: &BasicBlock) -> f64 {
        self.try_predict(block).unwrap_or(f64::NAN)
    }

    /// A batch of one: one `deadline` of wall clock, one timeout
    /// counted on expiry, and panics mapped as on the batch path.
    fn try_predict(&self, block: &BasicBlock) -> Result<f64, ModelError> {
        predict_one(self, block)
    }

    /// Batch path: the whole batch runs as *one* guarded inner
    /// `predict_batch` call (so batching survives down to the backend)
    /// under the summed per-item budget — a batch of `n` gets
    /// `n × deadline` of wall clock, the same total a sequential caller
    /// would have granted. On expiry the worker is abandoned and every
    /// item reports [`ModelError::Timeout`], with the timeout counter
    /// advanced once per abandoned item (per-item accounting).
    fn predict_batch(&self, blocks: &[BasicBlock]) -> Vec<Result<f64, ModelError>> {
        if blocks.is_empty() {
            return Vec::new();
        }
        let budget = self.deadline.saturating_mul(blocks.len() as u32);
        let (tx, rx) = mpsc::sync_channel(1);
        let model = Arc::clone(&self.inner);
        let owned: Vec<BasicBlock> = blocks.to_vec();
        let start = Instant::now();
        let spawned =
            std::thread::Builder::new().name("comet-deadline-watchdog".into()).spawn(move || {
                // An overriding `predict_batch` may panic; convert
                // instead of unwinding through the channel send.
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    model.predict_batch(&owned)
                }));
                let result = match caught {
                    Ok(inner) => inner,
                    Err(payload) => {
                        let message = panic_payload_message(&*payload);
                        owned
                            .iter()
                            .map(|_| Err(ModelError::Panic { message: message.clone() }))
                            .collect()
                    }
                };
                let _ = tx.send(result);
            });
        let handle = match spawned {
            Ok(handle) => handle,
            // Thread spawn failed: degrade to an unguarded batch call.
            Err(_) => return self.inner.predict_batch(blocks),
        };
        match rx.recv_timeout(budget) {
            Ok(results) => {
                // The worker has already sent; reap it so healthy
                // queries never leak threads.
                let _ = handle.join();
                results
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.timeouts.fetch_add(blocks.len() as u64, Ordering::Relaxed);
                drop(handle);
                let elapsed = start.elapsed();
                blocks
                    .iter()
                    .map(|_| Err(ModelError::Timeout { elapsed, deadline: budget }))
                    .collect()
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let _ = handle.join();
                blocks
                    .iter()
                    .map(|_| {
                        Err(ModelError::Panic {
                            message: "deadline worker died without a result".into(),
                        })
                    })
                    .collect()
            }
        }
    }

    fn resilience(&self) -> Option<ResilienceReport> {
        self.inner.resilience()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> BasicBlock {
        comet_isa::parse_block("add rcx, rax\nmov rdx, rcx").unwrap()
    }

    /// Sleeps for `stall`, then answers 3.0.
    struct StallModel {
        stall: Duration,
    }

    impl CostModel for StallModel {
        fn name(&self) -> &str {
            "stall"
        }

        fn predict(&self, _: &BasicBlock) -> f64 {
            std::thread::sleep(self.stall);
            3.0
        }
    }

    #[test]
    fn fast_queries_pass_through() {
        let model =
            DeadlineModel::new(StallModel { stall: Duration::ZERO }, Duration::from_secs(5));
        assert_eq!(model.try_predict(&block()), Ok(3.0));
        assert_eq!(model.predict(&block()), 3.0);
        assert_eq!(model.timeouts(), 0);
        assert_eq!(model.name(), "stall");
    }

    #[test]
    fn stalled_queries_time_out_with_budget_in_the_error() {
        let model = DeadlineModel::new(
            StallModel { stall: Duration::from_millis(500) },
            Duration::from_millis(20),
        );
        let start = Instant::now();
        match model.try_predict(&block()) {
            Err(ModelError::Timeout { elapsed, deadline }) => {
                assert_eq!(deadline, Duration::from_millis(20));
                assert!(elapsed >= deadline, "{elapsed:?} < {deadline:?}");
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        // The caller got its answer at ~deadline, not ~stall.
        assert!(start.elapsed() < Duration::from_millis(400));
        assert_eq!(model.timeouts(), 1);
        assert!(model.predict(&block()).is_nan());
        assert_eq!(model.timeouts(), 2);
    }

    #[test]
    fn batch_passes_through_and_times_out_whole() {
        let model =
            DeadlineModel::new(StallModel { stall: Duration::ZERO }, Duration::from_secs(5));
        let blocks = vec![block(), block()];
        assert_eq!(model.predict_batch(&blocks), vec![Ok(3.0), Ok(3.0)]);
        assert_eq!(model.timeouts(), 0);

        let model = DeadlineModel::new(
            StallModel { stall: Duration::from_millis(500) },
            Duration::from_millis(10),
        );
        let results = model.predict_batch(&blocks);
        assert_eq!(results.len(), 2);
        for result in &results {
            assert!(matches!(result, Err(ModelError::Timeout { .. })), "{result:?}");
        }
        assert_eq!(model.timeouts(), 2, "one timeout accounted per abandoned item");
    }

    #[test]
    fn inner_errors_survive_the_watchdog() {
        struct NanModel;
        impl CostModel for NanModel {
            fn name(&self) -> &str {
                "nan"
            }
            fn predict(&self, _: &BasicBlock) -> f64 {
                f64::NAN
            }
        }
        let model = DeadlineModel::new(NanModel, Duration::from_secs(5));
        // The typed error crosses the worker-thread channel intact.
        match model.try_predict(&block()) {
            Err(ModelError::NonFinite { value }) => assert!(value.is_nan()),
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn inner_panics_are_reported_not_propagated() {
        struct PanicModel;
        impl CostModel for PanicModel {
            fn name(&self) -> &str {
                "panic"
            }
            fn predict(&self, _: &BasicBlock) -> f64 {
                panic!("backend exploded")
            }
        }
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let model = DeadlineModel::new(PanicModel, Duration::from_secs(5));
        let result = model.try_predict(&block());
        std::panic::set_hook(prev);
        match result {
            Err(ModelError::Panic { message }) => assert!(message.contains("exploded")),
            other => panic!("expected Panic, got {other:?}"),
        }
    }
}
