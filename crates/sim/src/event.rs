//! Wake-up scheduling for the event-driven engine.
//!
//! The event-driven slot engine schedules *bare slot numbers* (no
//! payloads — a wake just materializes a slot). In dense cells
//! thousands of deadlines land on the same handful of slots, so the
//! store keeps each pending slot once: [`WakeSet`] is an ordered set of
//! distinct pending slots plus a clock, and a slot pops exactly once
//! no matter how many deadlines target it.

/// An ordered set of pending wake-up slots.
///
/// Pops deliver the distinct pending slots in strictly increasing
/// order, and each pop advances the clock past the slot it returns.
/// Pushing a slot that is already pending **coalesces**: the set is
/// unchanged and the push is tallied. Pushing a slot behind the clock
/// (`s < next`) is *stale on arrival*: it is dropped and tallied.
/// [`WakeSet::take_stats`] hands both tallies to the caller (engines
/// flush them into telemetry counters). `tests/wake_set.rs` locks this
/// contract by property against a `BTreeSet` reference.
///
/// ```
/// use ffd2d_sim::WakeSet;
/// let mut w = WakeSet::new();
/// w.push(7);
/// w.push(3);
/// w.push(7); // coalesces: slot 7 will pop once
/// w.push(100_000);
/// let popped: Vec<u64> = std::iter::from_fn(|| w.pop()).collect();
/// assert_eq!(popped, vec![3, 7, 100_000]);
/// w.push(5); // behind the clock: dropped
/// assert_eq!(w.take_stats(), (1, 1)); // one coalesced, one stale
/// ```
#[derive(Debug, Clone, Default)]
pub struct WakeSet {
    /// Distinct pending slots, sorted in *descending* order so the
    /// earliest slot is the last element and a pop is `Vec::pop`. Most
    /// pushes target the near future (the next fire, a staggered
    /// transmission), which sorts at or near the tail, so an insert
    /// shifts only a few elements.
    slots: Vec<u64>,
    /// Clock: every slot `< next` has been popped (or was never
    /// scheduled); pushes below it are stale.
    next: u64,
    /// Pushes of an already-pending slot.
    coalesced: u64,
    /// Pushes that arrived behind the clock and were dropped.
    stale: u64,
}

impl WakeSet {
    /// An empty set with the clock at slot 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct pending slots.
    #[inline]
    pub fn pending(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is scheduled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
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

    /// Schedule slot `s`. Coalesces with any existing wake on the same
    /// slot; drops (and tallies) slots behind the clock.
    #[inline]
    pub fn push(&mut self, s: u64) {
        if s < self.next {
            self.stale += 1;
            return;
        }
        match self.slots.binary_search_by(|p| s.cmp(p)) {
            Ok(_) => self.coalesced += 1,
            Err(at) => self.slots.insert(at, s),
        }
    }

    /// Pop the earliest scheduled slot, advancing the clock past it.
    /// Distinct slots come out in strictly increasing order.
    #[inline]
    pub fn pop(&mut self) -> Option<u64> {
        let s = self.slots.pop()?;
        self.next = s + 1;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_set_coalesces_same_slot_wakes() {
        let mut w = WakeSet::new();
        for _ in 0..1000 {
            w.push(42);
        }
        assert_eq!(w.pending(), 1);
        assert_eq!(w.pop(), Some(42));
        assert_eq!(w.pop(), None);
        assert_eq!(w.take_stats(), (999, 0));
    }

    #[test]
    fn wake_set_counts_stale_pushes() {
        let mut w = WakeSet::new();
        w.push(10);
        assert_eq!(w.pop(), Some(10));
        w.push(3); // behind the clock: dropped, tallied
        assert_eq!(w.pop(), None);
        assert_eq!(w.take_stats(), (0, 1));
    }
}
