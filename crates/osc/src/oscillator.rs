//! A single slotted integrate-and-fire oscillator.
//!
//! The protocol engines advance device oscillators once per 1 ms slot:
//! the phase climbs by `1/T` per slot (eq. (3)); reaching the threshold
//! fires the device (it broadcasts a proximity signal and resets,
//! eq. (4)); hearing a neighbour's proximity signal advances the phase
//! through the PRC (eq. (5)).
//!
//! A short **refractory window** after firing is included: a transceiver
//! cannot receive while it transmits, and the refractory period is also
//! what prevents infinite same-slot echo cascades in the slotted
//! setting. This matches the RFA-style practical firefly
//! implementations the paper cites (\[13\], \[14\]).

use serde::{Deserialize, Serialize};

use crate::prc::Prc;

/// A slotted firefly oscillator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseOscillator {
    /// Current phase in `[0, 1]`.
    phase: f64,
    /// Natural period in slots (`T` of eq. (3)).
    period_slots: u32,
    /// Remaining refractory slots (cannot hear pulses while > 0).
    refractory_left: u32,
    /// Configured refractory length after each firing.
    refractory_slots: u32,
}

impl PhaseOscillator {
    /// A new oscillator with initial `phase ∈ [0, 1)`, period `T` slots
    /// and a post-fire refractory window.
    pub fn new(phase: f64, period_slots: u32, refractory_slots: u32) -> Self {
        assert!(
            (0.0..1.0).contains(&phase),
            "initial phase must be in [0,1)"
        );
        assert!(period_slots > 0, "period must be positive");
        assert!(
            refractory_slots < period_slots,
            "refractory must be shorter than the period"
        );
        PhaseOscillator {
            phase,
            period_slots,
            refractory_left: 0,
            refractory_slots,
        }
    }

    /// Current phase.
    #[inline]
    pub fn phase(&self) -> f64 {
        self.phase
    }

    /// Natural period in slots.
    #[inline]
    pub fn period_slots(&self) -> u32 {
        self.period_slots
    }

    /// True while the oscillator is deaf after firing.
    #[inline]
    pub fn in_refractory(&self) -> bool {
        self.refractory_left > 0
    }

    /// Advance one slot. Returns `true` if the oscillator fires in this
    /// slot (phase reached the threshold); the phase is then reset.
    pub fn tick(&mut self) -> bool {
        if self.refractory_left > 0 {
            self.refractory_left -= 1;
        }
        self.phase += 1.0 / self.period_slots as f64;
        if self.phase >= 1.0 - 1e-12 {
            self.reset_after_fire();
            true
        } else {
            false
        }
    }

    /// Process a heard pulse through `prc`. Returns `true` if the pulse
    /// absorbs the oscillator (it fires immediately); the phase is then
    /// reset. Pulses during refractory are ignored and return `false`.
    pub fn on_pulse(&mut self, prc: &Prc) -> bool {
        if self.refractory_left > 0 {
            return false;
        }
        self.phase = prc.apply(self.phase);
        if self.phase >= 1.0 {
            self.reset_after_fire();
            true
        } else {
            false
        }
    }

    /// Process a pulse that was *emitted* `age_slots` ago (the sender
    /// staggered its transmission to dodge collisions and stamped the
    /// offset into the frame, as MEMFIS-style sync words do). The PRC is
    /// applied to the phase this oscillator had at the emission instant
    /// and the elapsed time is re-added — so staggered transmissions
    /// couple exactly like ideal instantaneous pulses.
    pub fn on_pulse_delayed(&mut self, prc: &Prc, age_slots: u32) -> bool {
        if self.refractory_left > 0 {
            return false;
        }
        let age_phase = age_slots as f64 / self.period_slots as f64;
        let then = (self.phase - age_phase).max(0.0);
        let advanced = prc.apply(then) + age_phase;
        if advanced >= 1.0 - 1e-12 {
            // Absorbed: this oscillator (virtually) fired at the same
            // instant as the sender, `age_slots` ago — its phase now is
            // the elapsed time since that common firing instant, which
            // is what keeps absorbed oscillators *exactly* aligned with
            // their absorber.
            self.phase = age_phase;
            self.refractory_left = self.refractory_slots;
            true
        } else {
            self.phase = advanced;
            false
        }
    }

    /// Adopt the timing of a reference oscillator that fired
    /// `age_slots` ago: the phase becomes exactly the time elapsed since
    /// that firing instant. This is master–slave alignment (a child
    /// locking to its tree parent), not pulse coupling — it bypasses the
    /// PRC and the refractory gate and never causes a fire
    /// (`age_slots` is always far below the period).
    pub fn align_to_fire(&mut self, age_slots: u32) {
        let age_phase = age_slots as f64 / self.period_slots as f64;
        debug_assert!(age_phase < 1.0, "alignment age exceeds the period");
        self.phase = age_phase;
    }

    /// Force an immediate fire + reset (used when a device fires as part
    /// of a same-slot cascade).
    pub fn force_fire(&mut self) {
        self.reset_after_fire();
    }

    /// Number of [`tick`](Self::tick) calls until the next fire (always
    /// ≥ 1). Computed by exact simulation of a copy, so the answer is
    /// bit-identical to counting repeated `tick()`s — including the
    /// `1e-12` threshold epsilon. Repeated floating-point accumulation
    /// of `1/T` has no closed form that reproduces it, so prediction
    /// *is* simulation (bounded by one period).
    pub fn ticks_to_next_fire(&self) -> u32 {
        let mut probe = *self;
        let mut k = 1u32;
        while !probe.tick() {
            k += 1;
        }
        k
    }

    /// Absolute slot of the next fire, given that this oscillator's
    /// state already reflects every tick up to and including
    /// `current_slot`.
    pub fn next_fire_slot(&self, current_slot: u64) -> u64 {
        current_slot + self.ticks_to_next_fire() as u64
    }

    /// Fast-forward by `slots` ticks, returning how many of them fired.
    /// This is literally `slots` repeated [`tick`](Self::tick) calls —
    /// the only implementation that reproduces the stepped phase
    /// accumulation bit-for-bit (refractory countdown and threshold
    /// epsilon included).
    pub fn advance_by(&mut self, slots: u64) -> u32 {
        let mut fires = 0u32;
        for _ in 0..slots {
            if self.tick() {
                fires += 1;
            }
        }
        fires
    }

    /// Adopt a precomputed non-firing fast-forward: `phase` must be the
    /// exact value that `ticks` repeated `tick()` calls (none of them
    /// firing) would produce from the current state. The caller owns
    /// that contract — in practice the event engines'
    /// [`TrajectoryCache`](crate::predict::TrajectoryCache), whose
    /// trajectories are built by the same tick arithmetic. The
    /// refractory countdown is folded in closed form
    /// (ticks only ever decrement it toward zero, independent of the
    /// phase).
    pub fn warp(&mut self, phase: f64, ticks: u64) {
        debug_assert!(
            phase < 1.0 - 1e-12,
            "warp target phase {phase} would have fired"
        );
        let dec = ticks.min(u64::from(u32::MAX)) as u32;
        self.refractory_left = self.refractory_left.saturating_sub(dec);
        self.phase = phase;
    }

    fn reset_after_fire(&mut self) {
        self.phase = 0.0;
        self.refractory_left = self.refractory_slots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncoupled_period_is_exact() {
        // Eq. (3): an uncoupled oscillator fires every T slots.
        let mut osc = PhaseOscillator::new(0.0, 100, 2);
        let mut fires = Vec::new();
        for t in 0..1000u32 {
            if osc.tick() {
                fires.push(t);
            }
        }
        assert_eq!(fires.len(), 10);
        for pair in fires.windows(2) {
            assert_eq!(pair[1] - pair[0], 100);
        }
    }

    #[test]
    fn initial_phase_shifts_first_fire() {
        let mut osc = PhaseOscillator::new(0.5, 100, 0);
        let mut first = None;
        for t in 0..200u32 {
            if osc.tick() {
                first = Some(t);
                break;
            }
        }
        assert_eq!(first, Some(49)); // 50 remaining ticks, zero-indexed
    }

    #[test]
    fn pulse_advances_phase() {
        let prc = Prc::standard();
        let mut osc = PhaseOscillator::new(0.4, 100, 0);
        let before = osc.phase();
        assert!(!osc.on_pulse(&prc));
        assert!(osc.phase() > before);
    }

    #[test]
    fn pulse_near_threshold_absorbs() {
        let prc = Prc::from_dissipation(3.0, 0.5); // strong coupling
        let mut osc = PhaseOscillator::new(0.95, 100, 3);
        assert!(osc.on_pulse(&prc));
        assert_eq!(osc.phase(), 0.0);
        assert!(osc.in_refractory());
    }

    #[test]
    fn refractory_blocks_pulses_then_expires() {
        let prc = Prc::from_dissipation(3.0, 0.5);
        let mut osc = PhaseOscillator::new(0.99, 100, 3);
        assert!(osc.on_pulse(&prc)); // fires, enters refractory
        let phase_after = osc.phase();
        assert!(!osc.on_pulse(&prc), "deaf during refractory");
        assert_eq!(osc.phase(), phase_after);
        for _ in 0..3 {
            osc.tick();
        }
        assert!(!osc.in_refractory());
        let before = osc.phase();
        osc.on_pulse(&prc);
        assert!(osc.phase() != before, "hears again after refractory");
    }

    #[test]
    fn force_fire_resets() {
        let mut osc = PhaseOscillator::new(0.7, 100, 5);
        osc.force_fire();
        assert_eq!(osc.phase(), 0.0);
        assert!(osc.in_refractory());
    }

    #[test]
    fn coupled_pair_synchronizes() {
        // Two oscillators with the standard PRC: firing instants must
        // coalesce within a few tens of periods (Mirollo–Strogatz N=2).
        let prc = Prc::standard();
        let mut a = PhaseOscillator::new(0.0, 100, 2);
        let mut b = PhaseOscillator::new(0.37, 100, 2);
        let mut synced_at = None;
        for t in 0..100_000u32 {
            let fa = a.tick();
            let fb = b.tick();
            if fa && !fb && b.on_pulse(&prc) {
                // b absorbed: fires in the same slot as a.
                synced_at = Some(t);
                break;
            }
            if fb && !fa && a.on_pulse(&prc) {
                synced_at = Some(t);
                break;
            }
            if fa && fb {
                synced_at = Some(t);
                break;
            }
        }
        assert!(synced_at.is_some(), "pair never synchronized");
    }

    #[test]
    fn delayed_pulse_equals_instant_pulse_at_zero_age() {
        let prc = Prc::standard();
        let mut a = PhaseOscillator::new(0.4, 100, 0);
        let mut b = PhaseOscillator::new(0.4, 100, 0);
        assert_eq!(a.on_pulse(&prc), b.on_pulse_delayed(&prc, 0));
        assert_eq!(a.phase(), b.phase());
    }

    #[test]
    fn delayed_pulse_compensates_age() {
        // A pulse emitted 3 slots ago must advance the phase the
        // oscillator had 3 slots ago, then re-add the elapsed 3 slots.
        let prc = Prc::standard();
        let mut now = PhaseOscillator::new(0.43, 100, 0);
        now.on_pulse_delayed(&prc, 3);
        let mut then = PhaseOscillator::new(0.40, 100, 0);
        then.on_pulse(&prc);
        assert!((now.phase() - (then.phase() + 0.03)).abs() < 1e-12);
    }

    #[test]
    fn delayed_pulse_fires_when_compensated_phase_crosses() {
        let prc = Prc::from_dissipation(3.0, 0.5);
        let mut osc = PhaseOscillator::new(0.97, 100, 3);
        assert!(osc.on_pulse_delayed(&prc, 2));
        // Aligned with the sender's firing instant 2 slots ago.
        assert!((osc.phase() - 0.02).abs() < 1e-12);
        assert!(osc.in_refractory());
    }

    #[test]
    fn absorbed_pair_stays_exactly_aligned() {
        // a fires; its pulse reaches b 3 slots later and absorbs it.
        // From then on both must fire in the same slot forever.
        let prc = Prc::from_dissipation(3.0, 0.5);
        let mut b = PhaseOscillator::new(0.9, 100, 5);
        // advance b to the absorption point
        for _ in 0..3 {
            b.tick();
        }
        assert!(b.on_pulse_delayed(&prc, 3));
        // b's phase is now 0.03 = a's phase 3 slots after a fired... so
        // simulate a from its firing instant:
        let mut a_fires = Vec::new();
        let mut b_fires = Vec::new();
        let mut a = PhaseOscillator::new(0.03, 100, 5); // a, 3 slots after firing
        for t in 0..1000u32 {
            if a.tick() {
                a_fires.push(t);
            }
            if b.tick() {
                b_fires.push(t);
            }
        }
        assert_eq!(a_fires, b_fires);
    }

    #[test]
    fn align_to_fire_copies_reference_timing() {
        let mut osc = PhaseOscillator::new(0.77, 100, 5);
        osc.align_to_fire(4);
        assert!((osc.phase() - 0.04).abs() < 1e-12);
        // Alignment works even during refractory and does not clear it.
        let mut osc = PhaseOscillator::new(0.99, 100, 5);
        let prc = Prc::from_dissipation(3.0, 0.5);
        assert!(osc.on_pulse(&prc));
        assert!(osc.in_refractory());
        osc.align_to_fire(2);
        assert!((osc.phase() - 0.02).abs() < 1e-12);
        assert!(osc.in_refractory());
    }

    #[test]
    fn next_fire_prediction_matches_ticking() {
        for phase in [0.0, 0.25, 0.5, 0.999, 0.37] {
            let osc = PhaseOscillator::new(phase, 100, 12);
            let k = osc.ticks_to_next_fire();
            assert!(k >= 1);
            let mut probe = osc;
            for _ in 0..k - 1 {
                assert!(!probe.tick(), "fired early (phase {phase})");
            }
            assert!(probe.tick(), "missed the predicted fire (phase {phase})");
            assert_eq!(osc.next_fire_slot(41), 41 + k as u64);
        }
    }

    #[test]
    fn advance_by_equals_repeated_ticks() {
        let mut fast = PhaseOscillator::new(0.42, 100, 12);
        let mut slow = fast;
        let mut slow_fires = 0;
        for _ in 0..777 {
            if slow.tick() {
                slow_fires += 1;
            }
        }
        assert_eq!(fast.advance_by(777), slow_fires);
        assert_eq!(fast, slow);
    }

    #[test]
    fn warp_matches_non_firing_ticks() {
        let prc = Prc::from_dissipation(3.0, 0.5);
        let mut osc = PhaseOscillator::new(0.97, 100, 12);
        assert!(osc.on_pulse(&prc)); // fires, enters refractory
        let mut warped = osc;
        let k = osc.ticks_to_next_fire() as u64 - 1;
        assert_eq!(osc.advance_by(k), 0);
        warped.warp(osc.phase(), k);
        assert_eq!(warped, osc);
        assert!(!warped.in_refractory(), "refractory folded away");
    }

    #[test]
    #[should_panic(expected = "phase must be in")]
    fn out_of_range_phase_rejected() {
        let _ = PhaseOscillator::new(1.0, 100, 0);
    }

    #[test]
    #[should_panic(expected = "refractory")]
    fn refractory_longer_than_period_rejected() {
        let _ = PhaseOscillator::new(0.0, 10, 10);
    }
}
