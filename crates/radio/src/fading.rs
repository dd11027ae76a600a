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
//! A Rician variant covers the LOS ablation: with K-factor `k` the power
//! gain is the squared magnitude of a unit-mean complex Gaussian with a
//! deterministic component.
//!
//! As with shadowing, every draw is a pure function of
//! `(seed, link, block)` so trials replay identically.

use serde::{Deserialize, Serialize};

use crate::shadowing::{max_abs_standard_normal, standard_normal, to_unit_open};
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
    /// Rician block fading with linear K-factor `k` (LOS ablation).
    Rician {
        /// Ratio of deterministic to scattered power (linear).
        k: f64,
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
            FadingModel::Rayleigh { coherence_slots }
            | FadingModel::Rician {
                coherence_slots, ..
            } => slot.0 / coherence_slots.max(1),
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
    /// * `Rician` is bounded by setting both Gaussian components to the
    ///   extreme of [`max_abs_standard_normal`].
    ///
    /// Unlike a statistical fade margin, candidate pruning with this
    /// bound is *exact*: a link whose mean power sits below
    /// `threshold − max_gain_db()` can never be detected, for any seed.
    pub fn max_gain_db(&self) -> f64 {
        match *self {
            FadingModel::None => 0.0,
            FadingModel::Rayleigh { .. } => 10.0 * (53.0 * core::f64::consts::LN_2).log10() + 1e-9,
            FadingModel::Rician { k, .. } => {
                let nmax = max_abs_standard_normal();
                let scatter = 1.0 / (k + 1.0);
                let los = (k / (k + 1.0)).sqrt();
                let amp = (scatter / 2.0).sqrt() * nmax;
                let p = (los + amp) * (los + amp) + amp * amp;
                10.0 * p.log10() + 1e-9
            }
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
}

impl SlotFade {
    /// Fading gain of link `{a, b}` in this slot, in dB — bit-identical
    /// to [`FadingModel::gain`] at the same seed and slot.
    #[inline]
    pub fn gain_db(&self, a: DeviceId, b: DeviceId) -> f64 {
        match self.model {
            FadingModel::None => 0.0,
            FadingModel::Rayleigh { .. } => {
                let key = link_block_key(a, b, self.block_term);
                // ffd2d-lint: allow(rng-discipline) — stateless keyed field sampler (pure in (seed, link, block)); the constant domain-separates Rayleigh draws from the Rician quadratures
                let u = to_unit_open(SplitMix64::mix(self.seed ^ 0xFAD1_4EED ^ key));
                // Inverse-CDF of Exp(1); clamp to avoid -inf dB in the tail.
                let p = (-u.ln()).max(1e-12);
                10.0 * p.log10()
            }
            FadingModel::Rician { k, .. } => {
                // h = sqrt(k/(k+1)) + CN(0, 1/(k+1)); power = |h|^2.
                let key = link_block_key(a, b, self.block_term);
                // ffd2d-lint: allow(rng-discipline) — stateless keyed field sampler: a pure function of (seed, link, block) that consumes no stream, so evaluation order cannot matter; the tags separate the two quadrature components
                let re = standard_normal(self.seed ^ 0x51C1_A0B4, key);
                let im = standard_normal(self.seed ^ 0x1C1A_77EE, key ^ 0xABCD); // ffd2d-lint: allow(rng-discipline) — second quadrature tag of the draw above
                let scatter = 1.0 / (k + 1.0);
                let los = (k / (k + 1.0)).sqrt();
                let h_re = los + re * (scatter / 2.0).sqrt();
                let h_im = im * (scatter / 2.0).sqrt();
                let p = (h_re * h_re + h_im * h_im).max(1e-12);
                10.0 * p.log10()
            }
        }
    }
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
    fn rician_high_k_is_nearly_deterministic() {
        let f = FadingModel::Rician {
            k: 1000.0,
            coherence_slots: 1,
        };
        for s in 0..100 {
            let g = f.gain(5, 0, 1, Slot(s)).0;
            assert!(g.abs() < 1.0, "gain {g} dB too far from 0 at high K");
        }
    }

    #[test]
    fn rician_unit_mean_linear() {
        let f = FadingModel::Rician {
            k: 3.0,
            coherence_slots: 1,
        };
        let n = 50_000u64;
        let mut sum = 0.0;
        for s in 0..n {
            sum += f.gain(17, 0, 1, Slot(s)).as_linear();
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
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
            FadingModel::Rician { k, .. } => {
                let re = standard_normal(seed ^ 0x51C1_A0B4, key);
                let im = standard_normal(seed ^ 0x1C1A_77EE, key ^ 0xABCD);
                let scatter = 1.0 / (k + 1.0);
                let los = (k / (k + 1.0)).sqrt();
                let h_re = los + re * (scatter / 2.0).sqrt();
                let h_im = im * (scatter / 2.0).sqrt();
                10.0 * (h_re * h_re + h_im * h_im).max(1e-12).log10()
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
            FadingModel::Rician {
                k: 3.0,
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

    #[test]
    fn max_gain_bounds_every_draw() {
        let models = [
            FadingModel::None,
            FadingModel::Rayleigh { coherence_slots: 1 },
            FadingModel::Rician {
                k: 3.0,
                coherence_slots: 1,
            },
            FadingModel::Rician {
                k: 0.1,
                coherence_slots: 1,
            },
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
