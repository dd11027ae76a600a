//! Wake-up scheduling for the event-driven engine.
//!
//! The event-driven slot engine schedules *bare slot numbers* (no
//! payloads — a wake just materializes a slot), where a plain heap is
//! wasteful: in dense cells thousands of deadlines land on the same
//! handful of slots, and every duplicate costs a push, a pop and a
//! stale check. [`SlotWheel`] is the two-tier scheduler: a
//! near-horizon bitmap ring that *coalesces* all wake-ups targeting the
//! same slot into one bit, backed by a far-horizon overflow set, so a
//! slot pops exactly once no matter how many deadlines target it.

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
}

impl Default for SlotWheel {
    fn default() -> Self {
        Self::new()
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
}
