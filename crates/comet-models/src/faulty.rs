//! Seeded fault injection for robustness testing.
//!
//! [`FaultyModel`] wraps any cost model and injects the failure classes
//! of the [`ModelError`] taxonomy at configurable rates, from a seeded
//! RNG so every test run is reproducible: NaN/Inf predictions, internal
//! panics, transient errors, and latency spikes (optionally escalated
//! to [`ModelError::Timeout`] by a deadline). It powers the
//! fault-injection test suite and lets eval harnesses rehearse
//! degraded-model scenarios before they happen in production.

use std::sync::Mutex;
use std::time::Duration;

use comet_isa::BasicBlock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::ModelError;
use crate::traits::CostModel;

/// Fault rates and parameters for [`FaultyModel`]. All rates are
/// probabilities in `[0, 1]` and are drawn *per query*, in the order
/// NaN → Inf → panic → transient → latency (stacked intervals, so the
/// sum of rates should stay ≤ 1; the remainder is a healthy query).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability of returning NaN.
    pub nan_rate: f64,
    /// Probability of returning +Inf.
    pub inf_rate: f64,
    /// Probability of an internal panic.
    pub panic_rate: f64,
    /// Probability of a transient failure.
    pub transient_rate: f64,
    /// Probability of a latency spike.
    pub latency_rate: f64,
    /// Duration of an injected latency spike.
    pub latency: Duration,
    /// Optional query deadline: a latency spike at or beyond it is
    /// reported as [`ModelError::Timeout`] (the sleep is capped at the
    /// deadline, emulating a watchdog that abandons the query).
    pub deadline: Option<Duration>,
    /// RNG seed for reproducible fault schedules.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            nan_rate: 0.0,
            inf_rate: 0.0,
            panic_rate: 0.0,
            transient_rate: 0.0,
            latency_rate: 0.0,
            latency: Duration::from_millis(1),
            deadline: None,
            seed: 0,
        }
    }
}

impl FaultConfig {
    /// A uniform profile: every fault class at `rate` (latency spikes
    /// escalate to timeouts via a zero deadline, keeping tests fast).
    pub fn uniform(rate: f64, seed: u64) -> FaultConfig {
        FaultConfig {
            nan_rate: rate,
            inf_rate: rate,
            panic_rate: rate,
            transient_rate: rate,
            latency_rate: rate,
            latency: Duration::from_millis(1),
            deadline: Some(Duration::ZERO),
            seed,
        }
    }
}

/// Counters of injected faults, per class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total queries seen.
    pub queries: u64,
    /// NaN predictions injected.
    pub nan: u64,
    /// Inf predictions injected.
    pub inf: u64,
    /// Panics injected.
    pub panics: u64,
    /// Transient errors injected.
    pub transient: u64,
    /// Latency spikes injected.
    pub latency: u64,
}

impl FaultStats {
    /// Total injected faults across all classes (latency spikes under
    /// the deadline are delays, not failures, but are still counted).
    pub fn total_faults(&self) -> u64 {
        self.nan + self.inf + self.panics + self.transient + self.latency
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    Nan,
    Inf,
    Panic,
    Transient,
    Latency,
}

#[derive(Debug)]
struct FaultState {
    rng: StdRng,
    stats: FaultStats,
}

/// A fault-injection decorator around any cost model: the failure
/// classes of the [`ModelError`] taxonomy at the seeded per-query
/// rates of a [`FaultConfig`], so every run is reproducible.
#[derive(Debug)]
pub struct FaultyModel<M> {
    inner: M,
    config: FaultConfig,
    state: Mutex<FaultState>,
}

impl<M: CostModel> FaultyModel<M> {
    /// Wrap `inner`, injecting faults per `config`.
    pub fn new(inner: M, config: FaultConfig) -> FaultyModel<M> {
        FaultyModel {
            inner,
            config,
            state: Mutex::new(FaultState {
                rng: StdRng::seed_from_u64(config.seed),
                stats: FaultStats::default(),
            }),
        }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Snapshot of the injected-fault counters.
    pub fn stats(&self) -> FaultStats {
        self.state().stats
    }

    /// The critical sections below never run user code, so poisoning
    /// can only come from an injected panic unwinding *past* the lock
    /// (it does not — draws complete before any panic); recover anyway.
    fn state(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Draw the fault (if any) for one query, from the seeded schedule.
    fn draw(&self) -> Fault {
        let mut st = self.state();
        st.stats.queries += 1;
        let roll: f64 = st.rng.gen();
        let classes = [
            (self.config.nan_rate, Fault::Nan),
            (self.config.inf_rate, Fault::Inf),
            (self.config.panic_rate, Fault::Panic),
            (self.config.transient_rate, Fault::Transient),
            (self.config.latency_rate, Fault::Latency),
        ];
        let mut acc = 0.0;
        for (rate, fault) in classes {
            acc += rate;
            if roll < acc {
                match fault {
                    Fault::Nan => st.stats.nan += 1,
                    Fault::Inf => st.stats.inf += 1,
                    Fault::Panic => st.stats.panics += 1,
                    Fault::Transient => st.stats.transient += 1,
                    Fault::Latency => st.stats.latency += 1,
                    Fault::None => {}
                }
                return fault;
            }
        }
        Fault::None
    }

    /// Apply an injected latency spike; reports whether the (optional)
    /// deadline was blown.
    fn spike(&self) -> Result<(), ModelError> {
        match self.config.deadline {
            Some(deadline) if self.config.latency >= deadline => {
                // Watchdog semantics: sleep only until the deadline,
                // then abandon the query.
                if !deadline.is_zero() {
                    std::thread::sleep(deadline);
                }
                Err(ModelError::Timeout { elapsed: self.config.latency, deadline })
            }
            _ => {
                if !self.config.latency.is_zero() {
                    std::thread::sleep(self.config.latency);
                }
                Ok(())
            }
        }
    }
}

impl<M: CostModel> CostModel for FaultyModel<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    /// The *infallible* view injects faults physically: NaN/Inf leak
    /// out as values and panic faults genuinely panic (transient faults
    /// panic too — an infallible API has no other channel). This is the
    /// path that exercises [`catch_prediction`](crate::catch_prediction)
    /// and panic-safe callers like `par_map`.
    fn predict(&self, block: &BasicBlock) -> f64 {
        match self.draw() {
            Fault::Nan => f64::NAN,
            Fault::Inf => f64::INFINITY,
            Fault::Panic => panic!("injected fault: model panic"),
            Fault::Transient => panic!("injected fault: transient failure"),
            Fault::Latency => {
                let _ = self.spike();
                self.inner.predict(block)
            }
            Fault::None => self.inner.predict(block),
        }
    }

    /// The fallible view reports the same fault schedule as typed
    /// errors. Panic faults are reported without unwinding so that
    /// high-rate fault sweeps do not spam the global panic hook; the
    /// physical-unwind path is covered by [`predict`](Self::predict)
    /// plus the default `try_predict` of any plain wrapper.
    fn try_predict(&self, block: &BasicBlock) -> Result<f64, ModelError> {
        match self.draw() {
            Fault::Nan => Err(ModelError::NonFinite { value: f64::NAN }),
            Fault::Inf => Err(ModelError::NonFinite { value: f64::INFINITY }),
            Fault::Panic => {
                Err(ModelError::Panic { message: "injected fault: model panic".into() })
            }
            Fault::Transient => {
                Err(ModelError::Transient { message: "injected fault: transient failure".into() })
            }
            Fault::Latency => {
                self.spike()?;
                self.inner.try_predict(block)
            }
            Fault::None => self.inner.try_predict(block),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrudeModel;
    use comet_isa::Microarch;

    fn block() -> BasicBlock {
        comet_isa::parse_block("add rcx, rax\nmov rdx, rcx").unwrap()
    }

    #[test]
    fn zero_rates_are_transparent() {
        let model = FaultyModel::new(CrudeModel::new(Microarch::Haswell), FaultConfig::default());
        let b = block();
        let expected = CrudeModel::new(Microarch::Haswell).predict(&b);
        for _ in 0..50 {
            assert_eq!(model.try_predict(&b), Ok(expected));
        }
        assert_eq!(model.stats().total_faults(), 0);
        assert_eq!(model.stats().queries, 50);
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let mk = || {
            FaultyModel::new(
                CrudeModel::new(Microarch::Haswell),
                FaultConfig { nan_rate: 0.3, transient_rate: 0.3, seed: 9, ..Default::default() },
            )
        };
        let (a, b) = (mk(), mk());
        let blk = block();
        for _ in 0..100 {
            assert_eq!(a.try_predict(&blk), b.try_predict(&blk));
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().total_faults() > 0);
    }

    #[test]
    fn injected_errors_match_the_taxonomy() {
        let model =
            FaultyModel::new(CrudeModel::new(Microarch::Haswell), FaultConfig::uniform(0.15, 3));
        let b = block();
        let mut seen_nan = false;
        let mut seen_transient = false;
        let mut seen_panic = false;
        let mut seen_timeout = false;
        for _ in 0..300 {
            match model.try_predict(&b) {
                Ok(v) => assert!(v.is_finite()),
                Err(ModelError::NonFinite { .. }) => seen_nan = true,
                Err(ModelError::Transient { .. }) => seen_transient = true,
                Err(ModelError::Panic { .. }) => seen_panic = true,
                Err(ModelError::Timeout { .. }) => seen_timeout = true,
                Err(other) => panic!("unexpected error class: {other:?}"),
            }
        }
        assert!(seen_nan && seen_transient && seen_panic && seen_timeout);
    }

    #[test]
    fn physical_panics_are_caught_by_the_default_try_predict() {
        /// A wrapper that only forwards `predict`, so the trait's
        /// default `try_predict` (catch_unwind + finiteness check) runs
        /// against FaultyModel's *physical* fault injection.
        struct Raw<M>(M);
        impl<M: CostModel> CostModel for Raw<M> {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn predict(&self, block: &BasicBlock) -> f64 {
                self.0.predict(block)
            }
        }

        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let model = Raw(FaultyModel::new(
            CrudeModel::new(Microarch::Haswell),
            FaultConfig { nan_rate: 0.2, panic_rate: 0.2, seed: 5, ..Default::default() },
        ));
        let b = block();
        let mut seen_panic = false;
        let mut seen_nan = false;
        for _ in 0..200 {
            match model.try_predict(&b) {
                Ok(v) => assert!(v.is_finite()),
                Err(ModelError::Panic { message }) => {
                    assert!(message.contains("injected fault"));
                    seen_panic = true;
                }
                Err(ModelError::NonFinite { .. }) => seen_nan = true,
                Err(other) => panic!("unexpected error class: {other:?}"),
            }
        }
        std::panic::set_hook(prev);
        assert!(seen_panic && seen_nan);
    }

    #[test]
    fn latency_spikes_delay_but_do_not_fail_without_deadline() {
        let model = FaultyModel::new(
            CrudeModel::new(Microarch::Haswell),
            FaultConfig {
                latency_rate: 1.0,
                latency: Duration::from_micros(100),
                ..Default::default()
            },
        );
        assert!(model.try_predict(&block()).is_ok());
        assert_eq!(model.stats().latency, 1);
    }
}
