//! Log-normal shadowing.
//!
//! Eq. (9) of the paper adds to the deterministic path loss a random
//! variable `x`, "medium scale channel fading modelled as Gaussian zero
//! mean with variance σ²" in dB — i.e. log-normal shadowing — with
//! Table I fixing σ = 10 dB.
//!
//! Physically, shadowing is caused by obstacles between two devices, so
//! it is (a) **symmetric** (the A→B and B→A links see the same
//! obstruction) and (b) **constant over a trial** (devices are static in
//! the paper's evaluation). [`ShadowingField`] therefore derives one
//! Gaussian draw per *unordered* device pair from the trial seed — a
//! counter-based ("hash the key, not the history") construction, so
//! querying links in any order yields identical values.

use serde::{Deserialize, Serialize};

use crate::units::Db;
use ffd2d_sim::deployment::DeviceId;
use ffd2d_sim::rng::SplitMix64;

/// Deterministic per-link log-normal shadowing field.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShadowingField {
    seed: u64,
    sigma_db: f64,
}

impl ShadowingField {
    /// A field with standard deviation `sigma_db` (Table I: 10 dB),
    /// keyed by `seed`.
    pub fn new(seed: u64, sigma_db: f64) -> Self {
        assert!(sigma_db >= 0.0, "sigma must be non-negative");
        ShadowingField { seed, sigma_db }
    }

    /// A disabled field (σ = 0): every link shadows by exactly 0 dB.
    pub fn disabled() -> Self {
        ShadowingField {
            seed: 0,
            sigma_db: 0.0,
        }
    }

    /// Standard deviation in dB.
    #[inline]
    pub fn sigma_db(&self) -> f64 {
        self.sigma_db
    }

    /// Provable upper bound on `|sample(a, b)|` in dB: σ times the
    /// largest magnitude `standard_normal` can emit. Used to derive
    /// worst-case audibility radii for spatial pruning — a pair farther
    /// apart than the radius implied by this bound can *never* close a
    /// link, for any seed.
    pub fn max_abs_db(&self) -> f64 {
        self.sigma_db * max_abs_standard_normal()
    }

    /// The shadowing term `x` (eq. (9)) for the link `{a, b}`, in dB.
    ///
    /// Symmetric: `sample(a, b) == sample(b, a)`.
    pub fn sample(&self, a: DeviceId, b: DeviceId) -> Db {
        if self.sigma_db == 0.0 {
            return Db::ZERO;
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let key = ((lo as u64) << 32) | hi as u64;
        // ffd2d-lint: allow(rng-discipline) — stateless keyed field sampler: one fixed draw per link for the whole trial, pure in (seed, link); the tag domain-separates shadowing from fading draws
        Db(self.sigma_db * standard_normal(self.seed ^ 0x5AD0_11E5, key))
    }
}

/// Provable upper bound on `|standard_normal(..)|` over *all* inputs.
///
/// `to_unit_open` never returns below `2⁻⁵³`, so the Box–Muller radius
/// `sqrt(−2·ln a)` is at most `sqrt(2·53·ln 2) ≈ 8.5716`, and
/// `|cos| ≤ 1`. The tiny additive slack absorbs the (sub-ulp) rounding
/// of the square root. Unlike a statistical truncation margin, distances
/// pruned with this bound are *exactly* inaudible — spatial pruning
/// built on it is bit-identical to the dense reference, not merely
/// approximately so.
pub fn max_abs_standard_normal() -> f64 {
    (2.0 * 53.0 * core::f64::consts::LN_2).sqrt() + 1e-9
}

/// A deterministic standard-normal draw keyed by `(seed, key)`.
///
/// Uses two SplitMix64-mixed uniforms through the Box–Muller transform.
/// Exposed for reuse by the fading model.
pub(crate) fn standard_normal(seed: u64, key: u64) -> f64 {
    // ffd2d-lint: allow(rng-discipline) — the workspace's one Box–Muller kernel: stateless avalanche mixing of (seed, key), no stream constructed or advanced; `max_abs_standard_normal` proves its bound
    let u0 = SplitMix64::mix(seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let u1 = SplitMix64::mix(u0 ^ 0xD134_2543_DE82_EF95); // ffd2d-lint: allow(rng-discipline) — second uniform of the same Box–Muller pair
    let (a, b) = (to_unit_open(u0), to_unit_open(u1));
    (-2.0 * a.ln()).sqrt() * (2.0 * core::f64::consts::PI * b).cos()
}

/// Map a u64 to the open interval (0, 1) — never exactly 0 (which would
/// blow up `ln`) or 1.
#[inline]
pub(crate) fn to_unit_open(x: u64) -> f64 {
    ((x >> 12) as f64 + 0.5) / (1u64 << 52) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_per_link() {
        let f = ShadowingField::new(42, 10.0);
        for a in 0..20u32 {
            for b in 0..20u32 {
                if a != b {
                    assert_eq!(f.sample(a, b), f.sample(b, a));
                }
            }
        }
    }

    #[test]
    fn constant_across_queries() {
        let f = ShadowingField::new(42, 10.0);
        let first = f.sample(3, 9);
        for _ in 0..10 {
            assert_eq!(f.sample(3, 9), first);
        }
    }

    #[test]
    fn different_links_decorrelated() {
        let f = ShadowingField::new(42, 10.0);
        let a = f.sample(0, 1).0;
        let b = f.sample(0, 2).0;
        let c = f.sample(1, 2).0;
        assert!(a != b && b != c && a != c);
    }

    #[test]
    fn different_seeds_differ() {
        let f1 = ShadowingField::new(1, 10.0);
        let f2 = ShadowingField::new(2, 10.0);
        assert_ne!(f1.sample(0, 1), f2.sample(0, 1));
    }

    #[test]
    fn disabled_field_is_zero() {
        let f = ShadowingField::disabled();
        assert_eq!(f.sample(5, 6), Db::ZERO);
        assert_eq!(f.sigma_db(), 0.0);
    }

    #[test]
    fn moments_match_sigma() {
        // Empirical mean ≈ 0, std ≈ σ over many links.
        let sigma = 10.0;
        let f = ShadowingField::new(7, sigma);
        let n = 20_000u64;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for i in 0..n {
            let v = f.sample((i % 1000) as u32, (1000 + i / 1000) as u32).0;
            sum += v;
            sumsq += v * v;
        }
        let mean = sum / n as f64;
        let std = (sumsq / n as f64 - mean * mean).sqrt();
        assert!(mean.abs() < 0.3, "mean {mean}");
        assert!((std - sigma).abs() < 0.3, "std {std}");
    }

    #[test]
    fn unit_open_mapping_bounds() {
        assert!(to_unit_open(0) > 0.0);
        assert!(to_unit_open(u64::MAX) < 1.0);
        // The minimum of the open-interval mapping is exactly 2⁻⁵³ —
        // the premise of the max_abs_standard_normal bound.
        assert_eq!(to_unit_open(0), 2f64.powi(-53));
    }

    #[test]
    fn normal_bound_holds_empirically_and_is_tightish() {
        let bound = max_abs_standard_normal();
        assert!(bound < 8.58, "bound {bound} should be ~8.5716");
        for key in 0..200_000u64 {
            let v = standard_normal(0xABCD, key);
            assert!(v.abs() <= bound, "draw {v} exceeds bound {bound}");
        }
        // Worst-case input: u0 = 0 maximises the Box–Muller radius.
        let extreme = (-2.0 * to_unit_open(0).ln()).sqrt();
        assert!(extreme <= bound && extreme > bound - 1e-6);
    }

    #[test]
    fn max_abs_db_scales_with_sigma() {
        let f = ShadowingField::new(3, 10.0);
        assert!((f.max_abs_db() - 10.0 * max_abs_standard_normal()).abs() < 1e-12);
        assert_eq!(ShadowingField::disabled().max_abs_db(), 0.0);
        for a in 0..40u32 {
            for b in (a + 1)..40u32 {
                assert!(f.sample(a, b).0.abs() <= f.max_abs_db());
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sigma_rejected() {
        let _ = ShadowingField::new(0, -1.0);
    }
}
