//! Wake-up scheduling for the event-driven engines.
//!
//! The event-driven protocol engines schedule *bare slot numbers* (no
//! payloads — a wake just materializes a slot), where a plain heap is
//! wasteful: in dense cells thousands of deadlines land on the same
//! handful of slots, and every duplicate costs a push, a pop and a
//! stale check. [`SlotWheel`] is the two-tier scheduler: a
//! near-horizon bitmap ring that *coalesces* all wake-ups targeting the
//! same slot into one bit, backed by a far-horizon overflow set, so a
//! slot pops exactly once no matter how many deadlines target it.
//! [`DensityWindow`] is the companion cutover policy for the adaptive
//! engine mode: a sliding-window materialized-slot density estimate
//! with hysteresis, a pure function of already-counted scheduler state.

use std::collections::BTreeSet;

/// A two-tier wake-up scheduler for bare slot numbers.
///
/// Tier one is a power-of-two ring of slot bits covering the *near
/// horizon* `[next, next + capacity)`: scheduling a slot sets its bit,
/// so any number of wake-ups targeting the same slot **coalesce** into
/// a single entry and the slot pops exactly once. Tier two is an
/// ordered set holding the *far horizon* (slots at or beyond
/// `next + capacity`); entries migrate into the ring as the clock
/// advances, deduplicated on insert. Pops deliver strictly increasing
/// distinct slots — exactly the order a deduplicating min-heap would —
/// so swapping a calendar heap for a wheel cannot change which slots an
/// engine materializes (`tests/slot_wheel.rs` locks the equivalence by
/// property).
///
/// Scheduling a slot behind the clock (`s < next`) is *stale on
/// arrival*: the entry is dropped and tallied, mirroring the stale-pop
/// accounting of the heap it replaces. [`SlotWheel::take_stats`] hands
/// the coalesced/stale tallies to the caller (engines flush them into
/// telemetry counters).
///
/// ```
/// use ffd2d_sim::SlotWheel;
/// let mut w = SlotWheel::new();
/// w.push(7);
/// w.push(3);
/// w.push(7); // coalesces: slot 7 will pop once
/// w.push(100_000); // far horizon → overflow tier
/// let popped: Vec<u64> = std::iter::from_fn(|| w.pop()).collect();
/// assert_eq!(popped, vec![3, 7, 100_000]);
/// assert_eq!(w.take_stats(), (1, 0)); // one coalesced, none stale
/// ```
#[derive(Debug, Clone)]
pub struct SlotWheel {
    /// Ring bitmap; bit `s & (capacity - 1)` covers slot `s` while
    /// `next <= s < next + capacity`.
    words: Vec<u64>,
    /// Clock: every slot `< next` has been popped (or was never
    /// scheduled); pushes below it are stale.
    next: u64,
    /// Number of set bits in the ring.
    in_wheel: usize,
    /// Far-horizon tier: slots `>= next + capacity`, min-ordered and
    /// deduplicated on insert (duplicate far pushes coalesce exactly
    /// like duplicate ring pushes).
    overflow: BTreeSet<u64>,
    /// Pushes (or migrations) that landed on an already-set bit.
    coalesced: u64,
    /// Pushes that arrived behind the clock and were dropped.
    stale: u64,
}

impl SlotWheel {
    /// Default near-horizon span, in slots. Covers several oscillator
    /// periods of the Table-I configuration, so in practice only
    /// merge-round deadlines and far churn slots overflow.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// An empty wheel with the default near-horizon span.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty wheel whose ring spans `capacity` slots (rounded up to
    /// a power of two, floored at 64).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(64).next_power_of_two();
        SlotWheel {
            words: vec![0u64; cap / 64],
            next: 0,
            in_wheel: 0,
            overflow: BTreeSet::new(),
            coalesced: 0,
            stale: 0,
        }
    }

    /// Ring span in slots.
    #[inline]
    fn capacity(&self) -> u64 {
        (self.words.len() * 64) as u64
    }

    /// The wheel's clock: the earliest slot a future pop can deliver.
    #[inline]
    pub fn next_slot(&self) -> u64 {
        self.next
    }

    /// Distinct slots currently materialized in the near-horizon ring
    /// (the `engine.wheel_occupancy` gauge).
    #[inline]
    pub fn in_window(&self) -> usize {
        self.in_wheel
    }

    /// Distinct pending slots across both tiers.
    #[inline]
    pub fn pending(&self) -> usize {
        self.in_wheel + self.overflow.len()
    }

    /// True when nothing is scheduled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.in_wheel == 0 && self.overflow.is_empty()
    }

    /// Take (and reset) the `(coalesced, stale)` tallies accumulated
    /// since the last call.
    #[inline]
    pub fn take_stats(&mut self) -> (u64, u64) {
        (
            core::mem::take(&mut self.coalesced),
            core::mem::take(&mut self.stale),
        )
    }

    /// Set the ring bit for in-window slot `s`, tallying a coalesce if
    /// it was already set.
    #[inline]
    fn set_bit(&mut self, s: u64) {
        let bit = (s & (self.capacity() - 1)) as usize;
        let (w, b) = (bit / 64, bit % 64);
        let mask = 1u64 << b;
        if self.words[w] & mask != 0 {
            self.coalesced += 1;
        } else {
            self.words[w] |= mask;
            self.in_wheel += 1;
        }
    }

    /// Schedule slot `s`. Coalesces with any existing wake on the same
    /// slot; drops (and tallies) slots behind the clock.
    #[inline]
    pub fn push(&mut self, s: u64) {
        if s < self.next {
            self.stale += 1;
        } else if s < self.next + self.capacity() {
            self.set_bit(s);
        } else if !self.overflow.insert(s) {
            self.coalesced += 1;
        }
    }

    /// Migrate every overflow entry that now fits the ring window.
    fn drain_overflow(&mut self) {
        let horizon = self.next + self.capacity();
        while let Some(&s) = self.overflow.first() {
            if s >= horizon {
                break;
            }
            self.overflow.pop_first();
            debug_assert!(s >= self.next, "overflow entry behind the clock");
            self.set_bit(s);
        }
    }

    /// Pop the earliest scheduled slot, advancing the clock past it.
    /// Distinct slots come out in strictly increasing order.
    pub fn pop(&mut self) -> Option<u64> {
        if self.in_wheel == 0 {
            // Ring empty: jump the clock to the far tier's minimum and
            // migrate everything the new window reaches.
            let &min = self.overflow.first()?;
            self.next = min;
            self.drain_overflow();
            debug_assert!(self.in_wheel > 0);
        }
        let cap = self.capacity();
        let mask = cap - 1;
        let nwords = self.words.len();
        let start_bit = (self.next & mask) as usize;
        let start_word = start_bit / 64;
        let start_off = (start_bit % 64) as u32;
        // Ring scan from the clock position; `in_wheel > 0` guarantees
        // a set bit within one full rotation (`k == nwords` revisits
        // the first word's low bits after the wrap).
        for k in 0..=nwords {
            let wi = (start_word + k) % nwords;
            let mut w = self.words[wi];
            if k == 0 {
                w &= !0u64 << start_off;
            } else if k == nwords {
                w &= !(!0u64 << start_off);
            }
            if w != 0 {
                let b = w.trailing_zeros();
                let bitpos = (wi * 64) as u64 + u64::from(b);
                let delta = bitpos.wrapping_sub(start_bit as u64) & mask;
                let s = self.next + delta;
                self.words[wi] &= !(1u64 << b);
                self.in_wheel -= 1;
                self.next = s + 1;
                self.drain_overflow();
                return Some(s);
            }
        }
        unreachable!("in_wheel > 0 but no bit set");
    }

    /// Consume the wake (if any) at exactly slot `s` — which must be
    /// the wheel's clock position — and advance the clock by one.
    /// Returns whether a wake was pending there.
    ///
    /// This is the stepped-execution entry point: an adaptive engine
    /// materializing every slot still keeps the wheel in lockstep, so
    /// the pending set stays exact across cutovers and the claim result
    /// doubles as the "would the event engine have woken here?" density
    /// signal.
    pub fn claim(&mut self, s: u64) -> bool {
        debug_assert_eq!(s, self.next, "claim must consume slots in order");
        let bit = (s & (self.capacity() - 1)) as usize;
        let (w, b) = (bit / 64, bit % 64);
        let mask = 1u64 << b;
        let had = self.words[w] & mask != 0;
        if had {
            self.words[w] &= !mask;
            self.in_wheel -= 1;
        }
        self.next = s + 1;
        self.drain_overflow();
        had
    }
}

impl Default for SlotWheel {
    fn default() -> Self {
        Self::new()
    }
}

/// Sliding-window slot-density tracker with hysteresis — the cutover
/// policy of the adaptive engine mode.
///
/// Each simulated slot that an engine processes reports whether it was
/// *busy* (a scheduled wake landed on it, or an oscillator fired in
/// it). The tracker buckets reports into fixed windows of `window`
/// slots aligned to absolute slot numbers and, at each window
/// boundary, re-decides the execution strategy:
///
/// * event-driven, and the ended window was ≥ 1/2 busy → switch to
///   stepped execution (the calendar queue is pure bookkeeping);
/// * stepped, and the ended window was ≤ 1/8 busy → switch back to
///   event-driven (skip-ahead pays again).
///
/// The wide gap between the two thresholds is the hysteresis: any
/// constant density lands in at most one of the trigger regions, so a
/// steady workload can cause at most one transition ever (unit-locked
/// below). Decisions are a pure function of the busy tallies — never
/// of wall clock or RNG — so adaptive runs stay bit-reproducible.
#[derive(Debug, Clone)]
pub struct DensityWindow {
    window: u64,
    start: u64,
    busy: u64,
    stepped: bool,
    transitions: u64,
}

impl DensityWindow {
    /// Default window span, in slots.
    pub const DEFAULT_WINDOW: u64 = 256;

    /// A tracker starting in event-driven mode at slot 0.
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "density window must be positive");
        DensityWindow {
            window,
            start: 0,
            busy: 0,
            stepped: false,
            transitions: 0,
        }
    }

    /// Current strategy: `true` ⇒ stepped execution.
    #[inline]
    pub fn exec_stepped(&self) -> bool {
        self.stepped
    }

    /// Number of strategy switches so far.
    #[inline]
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Report one processed slot (slots must be non-decreasing; the
    /// event engine skips ahead, the stepped engine reports each slot
    /// once). Returns the strategy to use *from the next slot on*.
    pub fn observe(&mut self, slot: u64, busy: bool) -> bool {
        if slot >= self.start + self.window {
            // The ended window is complete; slots the event engine
            // skipped over were idle, so the tally is exact for both
            // strategies. (A jump across several windows can only
            // happen in event mode — stepped visits every slot — and
            // the skipped windows were empty, which keeps event mode.)
            let was = self.stepped;
            if self.stepped {
                if self.busy * 8 <= self.window {
                    self.stepped = false;
                }
            } else if self.busy * 2 >= self.window {
                self.stepped = true;
            }
            if was != self.stepped {
                self.transitions += 1;
            }
            self.start = slot - slot % self.window;
            self.busy = 0;
        }
        self.busy += u64::from(busy);
        self.stepped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_coalesces_same_slot_wakes() {
        let mut w = SlotWheel::new();
        for _ in 0..1000 {
            w.push(42);
        }
        assert_eq!(w.in_window(), 1);
        assert_eq!(w.pop(), Some(42));
        assert_eq!(w.pop(), None);
        assert_eq!(w.take_stats(), (999, 0));
    }

    #[test]
    fn wheel_pops_distinct_slots_in_order() {
        let mut w = SlotWheel::with_capacity(64);
        // Mix of in-window, duplicate, far-overflow and interleaved
        // pushes; expect the sorted distinct sequence.
        for &s in &[5u64, 900, 5, 63, 0, 64, 900, 10_000, 65] {
            w.push(s);
        }
        assert_eq!(w.pop(), Some(0));
        assert_eq!(w.pop(), Some(5));
        w.push(7); // push between pops, still in window
        assert_eq!(w.pop(), Some(7));
        assert_eq!(w.pop(), Some(63));
        assert_eq!(w.pop(), Some(64));
        assert_eq!(w.pop(), Some(65));
        assert_eq!(w.pop(), Some(900));
        assert_eq!(w.pop(), Some(10_000));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn wheel_counts_stale_pushes() {
        let mut w = SlotWheel::new();
        w.push(10);
        assert_eq!(w.pop(), Some(10));
        w.push(3); // behind the clock: dropped, tallied
        assert_eq!(w.pop(), None);
        assert_eq!(w.take_stats(), (0, 1));
    }

    #[test]
    fn wheel_claim_walks_every_slot() {
        let mut w = SlotWheel::with_capacity(64);
        w.push(2);
        w.push(2);
        w.push(70); // overflow for this tiny ring
        let claims: Vec<bool> = (0..80).map(|s| w.claim(s)).collect();
        let hits: Vec<usize> = claims
            .iter()
            .enumerate()
            .filter(|(_, &c)| c)
            .map(|(s, _)| s)
            .collect();
        assert_eq!(hits, vec![2, 70]);
        assert_eq!(w.take_stats(), (1, 0));
        assert_eq!(w.next_slot(), 80);
    }

    #[test]
    fn wheel_mixes_claim_and_pop_across_cutovers() {
        let mut w = SlotWheel::with_capacity(64);
        for &s in &[1u64, 4, 4, 200] {
            w.push(s);
        }
        assert_eq!(w.pop(), Some(1)); // event-style
        assert!(!w.claim(2)); // stepped-style from the clock position
        assert!(!w.claim(3));
        assert!(w.claim(4));
        assert_eq!(w.pop(), Some(200)); // back to event-style: jumps
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_occupancy_tracks_both_tiers() {
        let mut w = SlotWheel::with_capacity(64);
        w.push(1);
        w.push(2);
        w.push(1000);
        assert_eq!(w.in_window(), 2);
        assert_eq!(w.pending(), 3);
        w.pop();
        assert_eq!(w.pending(), 2);
    }

    #[test]
    fn density_hysteresis_never_oscillates_on_constant_density() {
        // Any constant per-window busy count causes at most one
        // transition over an arbitrarily long run — the hysteresis gap
        // means no single density sits in both trigger regions.
        let window = DensityWindow::DEFAULT_WINDOW;
        for busy_per_window in 0..=window {
            let mut d = DensityWindow::new(window);
            for s in 0..window * 50 {
                let busy = s % window < busy_per_window;
                d.observe(s, busy);
            }
            assert!(
                d.transitions() <= 1,
                "busy={busy_per_window}/{window} oscillated: {} transitions",
                d.transitions()
            );
        }
    }

    #[test]
    fn density_cuts_over_to_stepped_and_back() {
        let mut d = DensityWindow::new(64);
        assert!(!d.exec_stepped());
        // A fully busy window flips to stepped at the boundary.
        for s in 0..64 {
            assert!(!d.observe(s, true), "flip before the window closed");
        }
        assert!(d.observe(64, true), "dense window did not flip");
        // Idle windows flip back to event-driven.
        for s in 65..128 {
            d.observe(s, false);
        }
        assert!(!d.observe(128, false), "idle window did not flip back");
        assert_eq!(d.transitions(), 2);
    }

    #[test]
    fn density_event_mode_survives_window_jumps() {
        let mut d = DensityWindow::new(64);
        // Sparse event-driven run: isolated wakes hundreds of windows
        // apart must never trigger stepped execution.
        let mut s = 0;
        for _ in 0..100 {
            assert!(!d.observe(s, true));
            s += 10_000;
        }
        assert_eq!(d.transitions(), 0);
    }
}
