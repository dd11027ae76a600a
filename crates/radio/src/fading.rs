//! Fast fading.
//!
//! Table I specifies "Fast fading: UMi (NLOS)". In a non-line-of-sight
//! urban-micro scenario the per-path envelope is Rayleigh distributed,
//! so the instantaneous *power* gain is exponentially distributed with
//! unit mean. We model it as **block fading**: the gain is constant over
//! a coherence block of `coherence_slots` slots and redrawn
//! independently per block — the standard abstraction for slotted
//! systems whose slot length (1 ms) is below the channel coherence time
//! (tens of ms for pedestrian mobility).
//!
//! As with shadowing, every draw is a pure function of
//! `(seed, link, block)` so trials replay identically.

use std::fmt;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::shadowing::to_unit_open;
use crate::units::Db;
use ffd2d_sim::deployment::DeviceId;
use ffd2d_sim::rng::SplitMix64;
use ffd2d_sim::time::Slot;

/// Fast-fading model applied on top of path loss and shadowing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FadingModel {
    /// No fast fading (gain fixed at 0 dB).
    None,
    /// Rayleigh block fading — the Table-I UMi-NLOS case.
    Rayleigh {
        /// Slots per coherence block.
        coherence_slots: u64,
    },
}

impl FadingModel {
    /// The Table-I configuration: Rayleigh with a 20 ms coherence block
    /// (pedestrian UMi).
    pub fn umi_nlos() -> FadingModel {
        FadingModel::Rayleigh {
            coherence_slots: 20,
        }
    }

    /// The coherence block index containing `slot`.
    fn block(&self, slot: Slot) -> u64 {
        match *self {
            FadingModel::None => 0,
            FadingModel::Rayleigh { coherence_slots } => slot.0 / coherence_slots.max(1),
        }
    }

    /// The per-slot draw state for `seed` at `slot`: everything in a
    /// fade key that does not depend on the link (the coherence block
    /// and its key term) is computed here once, so a caller that draws
    /// many links in one slot pays the block divide once, not per pair.
    #[inline]
    pub fn at(&self, seed: u64, slot: Slot) -> SlotFade {
        SlotFade {
            model: *self,
            seed,
            block_term: self.block(slot).wrapping_mul(0x2545_F491_4F6C_DD1D),
            kernel: FadeKernel::get(),
        }
    }

    /// Instantaneous fading gain for link `{a, b}` at `slot`, in dB.
    ///
    /// Unit mean in the *linear* domain (so fading does not change the
    /// average link budget, only its fluctuation), symmetric in the link
    /// endpoints. Delegates to [`SlotFade::gain_db`], the one draw
    /// implementation.
    pub fn gain(&self, seed: u64, a: DeviceId, b: DeviceId, slot: Slot) -> Db {
        Db(self.at(seed, slot).gain_db(a, b))
    }

    /// Provable upper bound on [`FadingModel::gain`] in dB, over all
    /// seeds, links and slots.
    ///
    /// * `None` never deviates from 0 dB.
    /// * `Rayleigh` draws `−ln u` with `u ≥ 2⁻⁵³` (see
    ///   `shadowing::to_unit_open`), so the power gain is at
    ///   most `53·ln 2` linear ⇒ `10·log10(53·ln 2) ≈ 15.65` dB.
    ///
    /// Unlike a statistical fade margin, candidate pruning with this
    /// bound is *exact*: a link whose mean power sits below
    /// `threshold − max_gain_db()` can never be detected, for any seed.
    pub fn max_gain_db(&self) -> f64 {
        match *self {
            FadingModel::None => 0.0,
            FadingModel::Rayleigh { .. } => 10.0 * (53.0 * core::f64::consts::LN_2).log10() + 1e-9,
        }
    }
}

/// [`FadingModel`] fixed to one seed and one slot (see
/// [`FadingModel::at`]). A pure value: drawing from it consumes no
/// stream, so it may be copied into any number of loops or workers.
#[derive(Debug, Clone, Copy)]
pub struct SlotFade {
    model: FadingModel,
    seed: u64,
    /// `block × 0x2545_F491_4F6C_DD1D`, the link-independent key term.
    block_term: u64,
    /// Kernels of the bounded-error draw [`SlotFade::approx_db`].
    kernel: &'static FadeKernel,
}

impl SlotFade {
    /// The bound δ, in dB, on `|approx_db − gain_db|` for every link,
    /// seed and slot (see [`SlotFade::approx_db`]): the kernel error is
    /// below 2e-4 dB on every input, shown row by row by the fading
    /// unit tests, and δ leaves five times that.
    pub const APPROX_ERROR_DB: f64 = 1e-3;

    /// Fading gain of link `{a, b}` in this slot, in dB — bit-identical
    /// to [`FadingModel::gain`] at the same seed and slot.
    #[inline]
    pub fn gain_db(&self, a: DeviceId, b: DeviceId) -> f64 {
        match self.model {
            FadingModel::None => 0.0,
            FadingModel::Rayleigh { .. } => rayleigh_db(self.uniform(a, b)),
        }
    }

    /// [`SlotFade::gain_db`] to within [`SlotFade::APPROX_ERROR_DB`],
    /// without a libm call: the same uniform `u`, folded to
    /// `y = min(u, 1 − u)` (`1 − u` is exact for `u ≥ ½`, so the
    /// deep-fade side keeps full relative precision), split into
    /// exponent and mantissa, and one degree-5 polynomial in the
    /// mantissa per `(side, binade)`; the error proof is on the private
    /// `FadeKernel`. Decisions a power more than δ away from a
    /// threshold or margin would not flip read this; a result that
    /// reports the power reads `gain_db`.
    #[inline]
    pub fn approx_db(&self, a: DeviceId, b: DeviceId) -> f64 {
        match self.model {
            FadingModel::None => 0.0,
            FadingModel::Rayleigh { .. } => self.kernel.eval(self.uniform(a, b)),
        }
    }

    /// The Rayleigh draw's uniform in `(0, 1)` for link `{a, b}`: the one
    /// key derivation both [`SlotFade::gain_db`] and
    /// [`SlotFade::approx_db`] read.
    #[inline]
    fn uniform(&self, a: DeviceId, b: DeviceId) -> f64 {
        let key = link_block_key(a, b, self.block_term);
        // ffd2d-lint: allow(rng-discipline) — stateless keyed field sampler (pure in (seed, link, block)); the constant domain-separates fading draws from the shadowing field
        to_unit_open(SplitMix64::mix(self.seed ^ 0xFAD1_4EED ^ key))
    }
}

/// The exact Rayleigh fade of uniform `u`, in dB.
#[inline]
fn rayleigh_db(u: f64) -> f64 {
    // Inverse-CDF of Exp(1); clamp to avoid -inf dB in the tail.
    let p = (-u.ln()).max(1e-12);
    10.0 * p.log10()
}

/// Coefficients per kernel: a degree-5 polynomial.
const KERNEL_TERMS: usize = 6;
/// Binades of the fold `y = min(u, 1 − u)`: `u = (2m + 1)·2⁻⁵³` puts
/// `y` in `[2⁻⁵³, ½)`, exponents −53 ..= −2.
const BINADES: usize = 52;
/// Biased f64 exponent of the binade `[2⁻⁵³, 2⁻⁵²)`.
const FIRST_BIASED_EXP: usize = 1023 - 53;
const MANTISSA_BITS: u64 = (1 << 52) - 1;
const ONE_BITS: u64 = 0x3FF0_0000_0000_0000;

/// The certified fade draw's kernels: for each side of the fold
/// (`u < ½` reads `y = u`, `u > ½` reads `y = 1 − u`) and each binade of
/// `y = 2^e·f`, `f ∈ [1, 2)`, the Chebyshev interpolant of degree 5 of
/// `G(f) = 10·log10(−ln u)` in `t = f − 1.5`, at the six Chebyshev
/// nodes, evaluated by Horner.
///
/// **Error bound.** The uniform is `u = (2m + 1)·2⁻⁵³`, so a binade of
/// `y` below `2⁻³⁷` holds at most 2¹⁴ inputs: the 16 lowest rows of
/// each side are checked at every input they can receive. On the 72
/// other rows `e(f) = p(f − 1.5) − G(f)` is bounded on all of
/// `[1, 2]` by its values on a grid of step `h = 2⁻¹⁶` plus `L·h/2`,
/// where `L` bounds `|e′|`:
/// - `|p′(t)| ≤ Σ j·|c_j|·2^(1−j)` on `|t| ≤ ½`, read off the row;
/// - `|G′(f)| ≤ 20/ln 10` dB: on the shallow side
///   `G′ = −(10/ln 10)/(f·(−ln y))` with `f ≥ 1` and `−ln y > ln 2`;
///   on the deep side `G′ = (10/ln 10)·(y/f)/((1 − y)·(−ln(1 − y)))`
///   with `−ln(1 − y) ≥ y` and `1 − y > ½`.
///
/// Grid values and both draws are f64 evaluations: Horner adds a few
/// ulps of `|G| ≤ 160` dB and `gain_db` sits within ulps of the true
/// value, under 1e-12 dB together, and the clamp at
/// `10·log10(1e-12)` dB is 1-Lipschitz. The worst row measures 5.0e-5
/// dB at its samples and below 2e-4 dB with the Lipschitz slack, five
/// times inside [`SlotFade::APPROX_ERROR_DB`];
/// `every_kernel_row_is_within_the_bound` walks all 104 rows this way.
/// The fading unit tests also check every binade edge, the `u = ½`
/// seam and a strided sweep of the 52-bit uniform domain.
struct FadeKernel {
    rows: [[f64; KERNEL_TERMS]; 2 * BINADES],
    /// `10·log10(1e-12)`, `gain_db`'s clamp, evaluated the same way.
    floor_db: f64,
}

impl FadeKernel {
    /// The process-wide kernel table, built on first use (a few
    /// hundred libm calls).
    fn get() -> &'static FadeKernel {
        static KERNEL: OnceLock<FadeKernel> = OnceLock::new();
        KERNEL.get_or_init(FadeKernel::build)
    }

    fn build() -> FadeKernel {
        let mut rows = [[0.0; KERNEL_TERMS]; 2 * BINADES];
        for (i, row) in rows.iter_mut().enumerate() {
            let deep = i >= BINADES;
            let scale = 2f64.powi((i % BINADES) as i32 - 53);
            *row = chebyshev_fit(|f| {
                let y = scale * f;
                let p = if deep { -(-y).ln_1p() } else { -y.ln() };
                10.0 * p.log10()
            });
        }
        FadeKernel {
            rows,
            floor_db: 10.0 * 1e-12f64.log10(),
        }
    }

    #[inline]
    fn eval(&self, u: f64) -> f64 {
        let bits = u.min(1.0 - u).to_bits();
        let side = usize::from(u > 0.5) * BINADES;
        let c = &self.rows[side + (bits >> 52) as usize - FIRST_BIASED_EXP];
        let t = f64::from_bits((bits & MANTISSA_BITS) | ONE_BITS) - 1.5;
        horner(c, t).max(self.floor_db)
    }
}

/// One kernel row's polynomial at `t = f − 1.5`.
#[inline]
fn horner(c: &[f64; KERNEL_TERMS], t: f64) -> f64 {
    c[0] + t * (c[1] + t * (c[2] + t * (c[3] + t * (c[4] + t * c[5]))))
}

impl fmt::Debug for FadeKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("FadeKernel")
    }
}

/// Monomial coefficients, in `t = f − 1.5`, of the degree-5 Chebyshev
/// interpolant of `g` on `f ∈ [1, 2]`.
fn chebyshev_fit(g: impl Fn(f64) -> f64) -> [f64; KERNEL_TERMS] {
    const N: usize = KERNEL_TERMS;
    // Nodes x_k = cos θ_k of x = 2t ∈ [−1, 1], where T_j(x_k) = cos(j·θ_k).
    let theta: [f64; N] =
        std::array::from_fn(|k| core::f64::consts::PI * (k as f64 + 0.5) / N as f64);
    let values = theta.map(|th| g(1.5 + 0.5 * th.cos()));
    // T_j in monomials of x: T_0 = 1, T_1 = x, T_{j+1} = 2x·T_j − T_{j−1}.
    let mut cheb = [[0.0; N]; N];
    cheb[0][0] = 1.0;
    cheb[1][1] = 1.0;
    for j in 2..N {
        for i in 0..N {
            let shifted = if i > 0 { 2.0 * cheb[j - 1][i - 1] } else { 0.0 };
            cheb[j][i] = shifted - cheb[j - 2][i];
        }
    }
    let mut coeffs = [0.0; N];
    for (j, tj) in cheb.iter().enumerate() {
        let weight = if j == 0 { 1.0 } else { 2.0 } / N as f64;
        let aj: f64 = theta
            .iter()
            .zip(&values)
            .map(|(&th, &v)| v * (j as f64 * th).cos())
            .sum::<f64>()
            * weight;
        for (c, &t) in coeffs.iter_mut().zip(tj) {
            *c += aj * t;
        }
    }
    // Substitute x = 2t.
    let mut scale = 1.0;
    for c in &mut coeffs {
        *c *= scale;
        scale *= 2.0;
    }
    coeffs
}

#[inline]
fn ordered(a: DeviceId, b: DeviceId) -> (DeviceId, DeviceId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The fade key of link `{a, b}` in the block whose key term is
/// `block_term` (see [`SlotFade`]); symmetric in the endpoints.
#[inline]
fn link_block_key(a: DeviceId, b: DeviceId, block_term: u64) -> u64 {
    let (lo, hi) = ordered(a, b);
    let link = ((lo as u64) << 32) | hi as u64;
    // ffd2d-lint: allow(rng-discipline) — key derivation for the stateless field samplers above, not a stream seed; symmetric in the link by the (lo, hi) ordering
    SplitMix64::mix(link).wrapping_add(block_term)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_zero_db() {
        assert_eq!(FadingModel::None.gain(1, 0, 1, Slot(5)), Db::ZERO);
    }

    #[test]
    fn rayleigh_constant_within_block() {
        let f = FadingModel::Rayleigh {
            coherence_slots: 10,
        };
        let g0 = f.gain(7, 0, 1, Slot(0));
        for s in 1..10 {
            assert_eq!(f.gain(7, 0, 1, Slot(s)), g0);
        }
        assert_ne!(f.gain(7, 0, 1, Slot(10)), g0);
    }

    #[test]
    fn rayleigh_symmetric() {
        let f = FadingModel::umi_nlos();
        assert_eq!(f.gain(3, 2, 9, Slot(33)), f.gain(3, 9, 2, Slot(33)));
    }

    #[test]
    fn rayleigh_unit_mean_linear() {
        let f = FadingModel::Rayleigh { coherence_slots: 1 };
        let n = 50_000u64;
        let mut sum = 0.0;
        for s in 0..n {
            sum += f.gain(11, 0, 1, Slot(s)).as_linear();
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn rayleigh_deep_fades_happen() {
        // P(power < 0.1) = 1 − e^{−0.1} ≈ 9.5%; check within ±2%.
        let f = FadingModel::Rayleigh { coherence_slots: 1 };
        let n = 50_000u64;
        let deep = (0..n)
            .filter(|&s| f.gain(13, 0, 1, Slot(s)).as_linear() < 0.1)
            .count() as f64
            / n as f64;
        assert!((deep - 0.095).abs() < 0.02, "deep-fade rate {deep}");
    }

    #[test]
    fn different_links_decorrelated() {
        let f = FadingModel::umi_nlos();
        assert_ne!(f.gain(1, 0, 1, Slot(0)), f.gain(1, 0, 2, Slot(0)));
    }

    /// The draw as written before the per-slot state was hoisted: block
    /// divide, ordering and key derivation all redone per call.
    fn unhoisted_gain_db(f: FadingModel, seed: u64, a: DeviceId, b: DeviceId, slot: Slot) -> f64 {
        let (lo, hi) = ordered(a, b);
        let link = ((lo as u64) << 32) | hi as u64;
        let key =
            SplitMix64::mix(link).wrapping_add(f.block(slot).wrapping_mul(0x2545_F491_4F6C_DD1D));
        match f {
            FadingModel::None => 0.0,
            FadingModel::Rayleigh { .. } => {
                let u = to_unit_open(SplitMix64::mix(seed ^ 0xFAD1_4EED ^ key));
                10.0 * (-u.ln()).max(1e-12).log10()
            }
        }
    }

    #[test]
    fn slot_fade_is_bit_identical_to_gain() {
        let models = [
            FadingModel::None,
            FadingModel::Rayleigh { coherence_slots: 1 },
            FadingModel::Rayleigh {
                coherence_slots: 20,
            },
        ];
        // Slots on both sides of block edges, plus the far end of time.
        let slots = [0, 1, 19, 20, 21, 39, 40, 999, 1000, u64::MAX - 1, u64::MAX];
        let links = [
            (0, 1),
            (1, 0),
            (7, 1999),
            (1999, 7),
            (0, u32::MAX),
            (u32::MAX, 0),
        ];
        for f in models {
            for seed in [0, 0xFAD0 ^ 5, u64::MAX] {
                for s in slots {
                    let fade = f.at(seed, Slot(s));
                    for (a, b) in links {
                        let hoisted = fade.gain_db(a, b);
                        assert_eq!(
                            hoisted.to_bits(),
                            f.gain(seed, a, b, Slot(s)).get().to_bits(),
                            "{f:?} seed {seed} slot {s} link {a}->{b}"
                        );
                        assert_eq!(
                            hoisted.to_bits(),
                            unhoisted_gain_db(f, seed, a, b, Slot(s)).to_bits(),
                            "{f:?} seed {seed} slot {s} link {a}->{b}: drifted from the per-call draw"
                        );
                        assert_eq!(hoisted.to_bits(), fade.gain_db(b, a).to_bits(), "symmetry");
                    }
                }
            }
        }
    }

    /// `|approx − exact|` over uniforms `u = (2m + 1)·2⁻⁵³` given by
    /// their odd numerators `2m + 1`.
    fn worst_error(numerators: impl Iterator<Item = u64>) -> (f64, u64) {
        let kernel = FadeKernel::get();
        let mut worst = (0.0, 0);
        for odd in numerators {
            let u = to_unit_open((odd >> 1) << 12);
            assert_eq!(u, odd as f64 / (1u64 << 53) as f64, "u of numerator {odd}");
            let err = (kernel.eval(u) - rayleigh_db(u)).abs();
            if err > worst.0 {
                worst = (err, odd);
            }
        }
        worst
    }

    #[test]
    fn approx_is_within_bound_at_every_binade_edge_and_the_seam() {
        const TOP: u64 = 1 << 53;
        let mut edges = vec![1, 3, TOP - 3, TOP - 1, TOP / 2 - 1, TOP / 2 + 1];
        // Each binade [2^e, 2^(e+1)) of y = min(u, 1 − u), e = −52 ..= −2,
        // at its first and last odd numerator, interior points and both
        // sides of the fold.
        for k in 0..=51u32 {
            let (lo, hi) = ((1u64 << k) | 1, (2u64 << k) - 1);
            let interior = (1..64u64).map(|i| (lo + ((hi - lo) / 64) * i) | 1);
            for y in [lo, hi].into_iter().chain(interior) {
                edges.push(y);
                edges.push(TOP - y);
            }
        }
        // Around the 1e-12 clamp (1 − u ≈ 1e-12, numerator ≈ 9007).
        edges.extend((8_000..10_000u64).step_by(2).map(|y| TOP - (y | 1)));
        let (err, at) = worst_error(edges.into_iter());
        assert!(
            err < SlotFade::APPROX_ERROR_DB / 10.0,
            "error {err} dB at numerator {at}"
        );
    }

    #[test]
    fn approx_is_within_bound_over_a_strided_sweep() {
        // 2^20 + 1 odd numerators spread over (0, 2^53) by an odd stride.
        const STRIDE: u64 = (1 << 33) - 1;
        let (err, at) = worst_error((0..=1u64 << 20).map(|i| (i * STRIDE) | 1));
        assert!(
            err < SlotFade::APPROX_ERROR_DB / 10.0,
            "error {err} dB at numerator {at}"
        );
    }

    /// The error bound on `FadeKernel`, row by row: every input of the
    /// 16 lowest binades of each side, and a grid of step `2⁻¹⁶` plus
    /// the Lipschitz slack `L·h/2` on the 72 others.
    #[test]
    fn every_kernel_row_is_within_the_bound() {
        const TOP: u64 = 1 << 53;
        const EXHAUSTIVE_ROWS: usize = 16;
        const GRID_BITS: i32 = 16;
        /// f64 rounding in both draws, at a sample and at an input.
        const ROUNDING_DB: f64 = 1e-12;
        let kernel = FadeKernel::get();
        let g_slope = 20.0 / core::f64::consts::LN_10;
        let h = 2f64.powi(-GRID_BITS);
        let mut worst_row = (0.0, 0);
        for (i, row) in kernel.rows.iter().enumerate() {
            let (deep, b) = (i >= BINADES, i % BINADES);
            let bound = if b < EXHAUSTIVE_ROWS {
                // Odd numerators y of y·2⁻⁵³ in [2^b, 2^(b+1)).
                ((1u64 << b) | 1..2u64 << b)
                    .step_by(2)
                    .map(|y| {
                        let u = if deep { TOP - y } else { y } as f64 / TOP as f64;
                        (kernel.eval(u) - rayleigh_db(u)).abs()
                    })
                    .fold(0.0, f64::max)
            } else {
                let scale = 2f64.powi(b as i32 - 53);
                let sampled = (0..=1u64 << GRID_BITS)
                    .map(|k| {
                        let f = 1.0 + k as f64 * h;
                        // Exact: y is a multiple of 2⁻⁵³ no larger than ½.
                        let u = if deep { 1.0 - scale * f } else { scale * f };
                        (horner(row, f - 1.5) - rayleigh_db(u)).abs()
                    })
                    .fold(0.0, f64::max);
                let p_slope: f64 = (1..KERNEL_TERMS)
                    .map(|j| j as f64 * row[j].abs() * 2f64.powi(1 - j as i32))
                    .sum();
                sampled + (p_slope + g_slope) * h / 2.0 + ROUNDING_DB
            };
            if bound > worst_row.0 {
                worst_row = (bound, i);
            }
        }
        assert!(
            worst_row.0 < SlotFade::APPROX_ERROR_DB / 5.0,
            "row {} bounded only by {} dB",
            worst_row.1,
            worst_row.0
        );
    }

    #[test]
    fn approx_tracks_gain_db_per_link() {
        let f = FadingModel::umi_nlos();
        for slot in [0u64, 19, 20, 1000] {
            let fade = f.at(7, Slot(slot));
            for a in 0..40u32 {
                for b in 0..40u32 {
                    let err = (fade.approx_db(a, b) - fade.gain_db(a, b)).abs();
                    assert!(
                        err <= SlotFade::APPROX_ERROR_DB,
                        "{a}->{b} slot {slot}: {err}"
                    );
                }
            }
        }
        assert_eq!(FadingModel::None.at(7, Slot(0)).approx_db(1, 2), 0.0);
    }

    #[test]
    fn max_gain_bounds_every_draw() {
        let models = [
            FadingModel::None,
            FadingModel::Rayleigh { coherence_slots: 1 },
        ];
        for f in models {
            let bound = f.max_gain_db();
            for s in 0..30_000u64 {
                let g = f.gain(99, 0, 1, Slot(s)).0;
                assert!(g <= bound, "{f:?}: gain {g} exceeds bound {bound}");
            }
        }
        // The Rayleigh bound is exactly the worst-case draw, to slack.
        let rayleigh = FadingModel::Rayleigh { coherence_slots: 1 };
        let analytic = 10.0 * (53.0 * core::f64::consts::LN_2).log10();
        assert!((rayleigh.max_gain_db() - analytic).abs() < 1e-6);
        assert_eq!(FadingModel::None.max_gain_db(), 0.0);
    }
}
