//! Runtime-dispatched inference kernels.
//!
//! Every prediction runs through one of a small set of *kernel
//! variants*, resolved once per process and cached in a vtable:
//!
//! * `scalar-v1` — the portable kernels in [`crate::ops`], bit-exact
//!   with the training forward pass. Always available.
//! * `avx2-v1` — `std::arch` AVX2+FMA kernels (x86-64 only), selected
//!   when the CPU reports both features at runtime.
//!
//! # Determinism policy
//!
//! Each variant is *internally deterministic and batch-size-invariant*:
//! for a fixed variant, predicting a block returns bitwise-identical
//! results whatever the batch width or worker pool — the invariant the
//! golden tests of `comet-core/tests/batch_golden.rs` lean on. Across
//! variants, predictions differ by reassociated floating-point sums and
//! polynomial (rather than libm) transcendentals; the agreement is
//! bounded and tested (`crates/comet-nn/tests/kernels.rs`), not
//! bitwise. Artifacts that must not silently mix variants — golden
//! tests, evaluation journal fingerprints — are keyed by
//! [`Kernel::name`].
//!
//! # Resolution
//!
//! [`active`] resolves the variant on first use and never changes it
//! afterwards (predictions made by one process must agree with each
//! other). [`force_scalar`] and the `COMET_FORCE_SCALAR` environment
//! variable pin `scalar-v1` if called/read before the first
//! resolution; binaries expose this as `--force-scalar`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Signature of the [`Kernel::matvec`] entry.
pub type MatvecFn = fn(&[f64], usize, usize, &[f64], &mut [f64]);

/// Signature of the [`Kernel::matvec_lanes`] entry.
pub type MatvecLanesFn = fn(&[f64], usize, usize, &[f64], &mut [f64], &[usize]);

/// Which implementation family a [`Kernel`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Portable scalar kernels ([`crate::ops`]).
    Scalar,
    /// AVX2+FMA `std::arch` kernels.
    Avx2,
}

/// A resolved kernel variant: an identity tag plus the function table
/// shared primitives dispatch through. The interesting dispatch — the
/// packed LSTM forward — happens at the prediction level (see
/// [`crate::HierarchicalRegressor::predict_with_kernel`]); the function
/// pointers here cover the primitives that tests and the linear head
/// exercise directly.
#[derive(Debug)]
pub struct Kernel {
    /// Stable variant tag (`"scalar-v1"`, `"avx2-v1"`): the key golden
    /// tests and journal fingerprints use.
    pub name: &'static str,
    /// Implementation family.
    pub kind: KernelKind,
    /// `y = W x` (row-major `rows x cols`). Bitwise identical across
    /// variants: the AVX2 implementation reproduces the scalar
    /// accumulation order exactly.
    pub matvec: MatvecFn,
    /// Lane-major batched `y_b = W x_b` over the named lanes; also
    /// bitwise identical across variants.
    pub matvec_lanes: MatvecLanesFn,
    /// In-place logistic sigmoid over a slice. Variant-specific
    /// rounding (libm vs polynomial); agreement is ULP-bounded.
    pub sigmoid_slice: fn(&mut [f64]),
    /// In-place tanh over a slice. Variant-specific rounding.
    pub tanh_slice: fn(&mut [f64]),
}

fn scalar_matvec(w: &[f64], rows: usize, cols: usize, x: &[f64], y: &mut [f64]) {
    crate::ops::matvec(w, rows, cols, x, y);
}

fn scalar_matvec_lanes(
    w: &[f64],
    rows: usize,
    cols: usize,
    xs: &[f64],
    ys: &mut [f64],
    lanes: &[usize],
) {
    crate::ops::matvec_lanes(w, rows, cols, xs, ys, lanes);
}

fn scalar_sigmoid_slice(xs: &mut [f64]) {
    for x in xs {
        *x = crate::ops::sigmoid(*x);
    }
}

fn scalar_tanh_slice(xs: &mut [f64]) {
    for x in xs {
        *x = x.tanh();
    }
}

static SCALAR: Kernel = Kernel {
    name: "scalar-v1",
    kind: KernelKind::Scalar,
    matvec: scalar_matvec,
    matvec_lanes: scalar_matvec_lanes,
    sigmoid_slice: scalar_sigmoid_slice,
    tanh_slice: scalar_tanh_slice,
};

#[cfg(target_arch = "x86_64")]
mod avx2_entries {
    use super::Kernel;
    use crate::simd;

    // Safety of every wrapper: the AVX2 kernel is only handed out by
    // `avx2()` / `resolve()` after `is_x86_feature_detected!` confirmed
    // AVX2+FMA on this CPU, so the target-feature functions are safe to
    // enter.
    fn matvec(w: &[f64], rows: usize, cols: usize, x: &[f64], y: &mut [f64]) {
        unsafe { simd::matvec(w, rows, cols, x, y) }
    }

    fn matvec_lanes(
        w: &[f64],
        rows: usize,
        cols: usize,
        xs: &[f64],
        ys: &mut [f64],
        lanes: &[usize],
    ) {
        unsafe { simd::matvec_lanes(w, rows, cols, xs, ys, lanes) }
    }

    fn sigmoid_slice(xs: &mut [f64]) {
        unsafe { simd::sigmoid_slice(xs) }
    }

    fn tanh_slice(xs: &mut [f64]) {
        unsafe { simd::tanh_slice(xs) }
    }

    pub(super) static AVX2: Kernel = Kernel {
        name: "avx2-v1",
        kind: super::KernelKind::Avx2,
        matvec,
        matvec_lanes,
        sigmoid_slice,
        tanh_slice,
    };
}

static ACTIVE: OnceLock<&'static Kernel> = OnceLock::new();
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

fn env_forces_scalar() -> bool {
    match std::env::var("COMET_FORCE_SCALAR") {
        Ok(value) => !matches!(value.as_str(), "" | "0" | "false" | "no"),
        Err(_) => false,
    }
}

fn resolve() -> &'static Kernel {
    if FORCE_SCALAR.load(Ordering::SeqCst) || env_forces_scalar() {
        return &SCALAR;
    }
    if let Some(kernel) = avx2() {
        return kernel;
    }
    &SCALAR
}

/// The kernel this process predicts with, resolved on first call and
/// fixed for the process lifetime.
pub fn active() -> &'static Kernel {
    ACTIVE.get_or_init(resolve)
}

/// Pin the scalar variant, overriding hardware detection.
///
/// Returns `true` if the pin is (or already was) effective. Returns
/// `false` when a non-scalar kernel has already been resolved — the
/// active kernel never changes mid-process, so call this during
/// startup, before the first prediction.
pub fn force_scalar() -> bool {
    FORCE_SCALAR.store(true, Ordering::SeqCst);
    ACTIVE.get_or_init(resolve).kind == KernelKind::Scalar
}

/// The scalar kernel, unconditionally available. Use with
/// [`crate::HierarchicalRegressor::predict_with_kernel`] to pin a
/// variant without touching process-global state.
pub fn scalar() -> &'static Kernel {
    &SCALAR
}

/// The AVX2 kernel, if this CPU supports AVX2 and FMA; `None`
/// otherwise (including on non-x86-64 targets).
pub fn avx2() -> Option<&'static Kernel> {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return Some(&avx2_entries::AVX2);
        }
    }
    None
}

/// Comma-separated list of the SIMD features this process detected —
/// reporting only (the comet-benchmark run header, /metrics); kernel
/// choice uses exactly AVX2+FMA.
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut features = Vec::new();
        for (name, present) in [
            ("sse2", is_x86_feature_detected!("sse2")),
            ("sse4.1", is_x86_feature_detected!("sse4.1")),
            ("avx", is_x86_feature_detected!("avx")),
            ("avx2", is_x86_feature_detected!("avx2")),
            ("fma", is_x86_feature_detected!("fma")),
            ("avx512f", is_x86_feature_detected!("avx512f")),
        ] {
            if present {
                features.push(name);
            }
        }
        features.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        String::from("none")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_kernel_is_always_available() {
        let kernel = scalar();
        assert_eq!(kernel.name, "scalar-v1");
        assert_eq!(kernel.kind, KernelKind::Scalar);
        let w = [1.0, 2.0, 3.0, 4.0];
        let x = [1.0, -1.0];
        let mut y = [0.0; 2];
        (kernel.matvec)(&w, 2, 2, &x, &mut y);
        assert_eq!(y, [-1.0, -1.0]);
    }

    #[test]
    fn active_kernel_is_stable() {
        assert!(std::ptr::eq(active(), active()));
    }

    #[test]
    fn avx2_accessor_matches_detection() {
        #[cfg(target_arch = "x86_64")]
        {
            let expect = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
            assert_eq!(avx2().is_some(), expect);
            if let Some(kernel) = avx2() {
                assert_eq!(kernel.name, "avx2-v1");
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert!(avx2().is_none());
    }
}
