//! KL-divergence-based confidence bounds for Bernoulli precision
//! estimation (Kaufmann & Kalyanakrishnan, 2013), as used by the
//! Anchors/COMET candidate-selection loop.

/// Bernoulli KL divergence `kl(p, q)`.
///
/// Conventions: `0 log 0 = 0`; divergence is `+inf` when `q` touches a
/// boundary `p` does not.
pub fn kl_bernoulli(p: f64, q: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&p) && (0.0..=1.0).contains(&q));
    let q = q.clamp(1e-12, 1.0 - 1e-12);
    let mut kl = 0.0;
    if p > 0.0 {
        kl += p * (p / q).ln();
    }
    if p < 1.0 {
        kl += (1.0 - p) * ((1.0 - p) / (1.0 - q)).ln();
    }
    kl
}

/// Upper confidence bound: the largest `q >= p_hat` with
/// `n * kl(p_hat, q) <= beta`.
///
/// Solved by guarded Newton iteration (see `newton_kl`): the KL
/// search runs thousands of bound inversions per explanation, and
/// Newton converges in ~5 iterations where bisection needs 60 — this
/// inversion is the single hottest non-sampling operation in the
/// anchors search.
pub fn kl_ucb(p_hat: f64, n: u64, beta: f64) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let level = beta / n as f64;
    if kl_bernoulli(p_hat, 1.0) <= level {
        return 1.0;
    }
    // Pinsker: kl(p, q) >= 2 (q - p)^2, so the root lies at or below
    // p_hat + sqrt(level / 2) — a start point right of the root, from
    // which Newton on the convex KL descends monotonically.
    let start = (p_hat + (level * 0.5).sqrt()).min(1.0 - 1e-12);
    newton_kl(p_hat, level, start, p_hat, 1.0)
}

/// Lower confidence bound: the smallest `q <= p_hat` with
/// `n * kl(p_hat, q) <= beta`.
pub fn kl_lcb(p_hat: f64, n: u64, beta: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let level = beta / n as f64;
    if kl_bernoulli(p_hat, 0.0) <= level {
        return 0.0;
    }
    // Mirror of the UCB start point: left of the root, from which
    // Newton ascends monotonically.
    let start = (p_hat - (level * 0.5).sqrt()).max(1e-12);
    newton_kl(p_hat, level, start, 0.0, p_hat)
}

/// Newton iteration for the root of `kl(p, q) = level` in `q`, within
/// `[lo, hi]` (one side of `p`). `kl(p, ·)` is convex with derivative
/// `(q - p) / (q (1 - q))`, so from a start point on the far side of
/// the root the iterates approach it monotonically; the clamp to
/// `[lo, hi]` guards the first step when the Pinsker start point
/// overshoots the interval.
fn newton_kl(p: f64, level: f64, start: f64, lo: f64, hi: f64) -> f64 {
    let mut q = start.clamp(lo, hi);
    for _ in 0..25 {
        let qc = q.clamp(1e-12, 1.0 - 1e-12);
        let deriv = (qc - p) / (qc * (1.0 - qc));
        if deriv == 0.0 {
            break;
        }
        let next = (q - (kl_bernoulli(p, q) - level) / deriv).clamp(lo, hi);
        if (next - q).abs() <= 1e-12 {
            return next;
        }
        q = next;
    }
    q
}

/// The exploration rate `beta(n, t)` from the Anchors implementation:
/// grows logarithmically with the round `t` and the number of
/// candidates `k`, at failure probability `delta_conf`.
pub fn exploration_beta(t: u64, k: usize, delta_conf: f64) -> f64 {
    let t = t.max(1) as f64;
    let k = k.max(1) as f64;
    // alpha = 1.1, standard LUCB1 schedule.
    let temp = (1.1 * t.powf(1.1) * k / delta_conf).ln();
    temp.max(0.0)
}

/// A running Bernoulli estimate with KL confidence bounds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BernoulliEstimate {
    /// Positive outcomes observed.
    pub successes: u64,
    /// Total outcomes observed.
    pub samples: u64,
}

impl BernoulliEstimate {
    /// Record one outcome.
    pub fn update(&mut self, success: bool) {
        self.samples += 1;
        if success {
            self.successes += 1;
        }
    }

    /// Point estimate (0.0 with no samples).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.successes as f64 / self.samples as f64
        }
    }

    /// KL upper confidence bound at exploration rate `beta`.
    pub fn ucb(&self, beta: f64) -> f64 {
        kl_ucb(self.mean(), self.samples, beta)
    }

    /// KL lower confidence bound at exploration rate `beta`.
    pub fn lcb(&self, beta: f64) -> f64 {
        kl_lcb(self.mean(), self.samples, beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kl_is_zero_on_diagonal_and_positive_off() {
        for p in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert!(kl_bernoulli(p, p) < 1e-9);
        }
        assert!(kl_bernoulli(0.5, 0.9) > 0.0);
        assert!(kl_bernoulli(0.9, 0.5) > 0.0);
    }

    #[test]
    fn bounds_bracket_the_mean() {
        let mut est = BernoulliEstimate::default();
        for i in 0..100 {
            est.update(i % 4 != 0); // p̂ = 0.75
        }
        let beta = exploration_beta(1, 10, 0.05);
        assert!(est.lcb(beta) <= est.mean());
        assert!(est.ucb(beta) >= est.mean());
        assert!(est.lcb(beta) > 0.5, "lcb {}", est.lcb(beta));
        assert!(est.ucb(beta) < 0.95, "ucb {}", est.ucb(beta));
    }

    #[test]
    fn bounds_tighten_with_samples() {
        let beta = 2.0;
        let few = kl_ucb(0.7, 10, beta) - kl_lcb(0.7, 10, beta);
        let many = kl_ucb(0.7, 1000, beta) - kl_lcb(0.7, 1000, beta);
        assert!(many < few);
        assert!(many < 0.1);
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(kl_ucb(0.5, 0, 1.0), 1.0);
        assert_eq!(kl_lcb(0.5, 0, 1.0), 0.0);
        // p̂ = 1 with few samples: UCB stays 1, LCB well below.
        assert!((kl_ucb(1.0, 5, 1.0) - 1.0).abs() < 1e-6);
        assert!(kl_lcb(1.0, 5, 1.0) < 1.0);
        // Extreme certainty.
        assert!(kl_lcb(1.0, 100_000, 1.0) > 0.999);
    }

    #[test]
    fn exploration_beta_grows_with_round() {
        let b1 = exploration_beta(1, 10, 0.05);
        let b100 = exploration_beta(100, 10, 0.05);
        assert!(b100 > b1);
    }
}
