//! Property lock: [`WakeSet`] ≡ an ordered set of pending slots.
//!
//! The event-driven engine asks one thing of its wake-up store: give
//! back the next pending slot, each slot once, in increasing order.
//! This property checks the store against the obvious reference — a
//! `BTreeSet` of pending slots plus a clock — under any interleaving of
//! pushes (near the clock, far ahead of it, repeats of pending slots,
//! and stale pushes behind the clock) and min-pops. It also pins the
//! two tallies the engine reports: a push of an already-pending slot is
//! one `engine.coalesced_wakeups`, a push behind the clock is one
//! `engine.wakeups_stale`. A slot surfacing early, late, twice, or
//! never would break the stepped ≡ event bit-identity locked by
//! `tests/engine_equivalence.rs`.

use ffd2d::sim::WakeSet;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One scripted operation against both implementations.
#[derive(Debug, Clone)]
enum Op {
    /// Push the absolute slot `clock + offset`.
    Push(u64),
    /// Push a slot `1 + offset % clock` behind the clock (stale).
    PushStale(u64),
    /// Pop the minimum pending slot.
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Wide offsets spread pending slots far ahead of the clock; narrow
    // ones keep re-pushing a handful of near slots, so coalescing is
    // common. The tag skews toward pushes so the set actually builds up.
    (0u8..8, 0u64..10_000).prop_map(|(tag, offset)| match tag {
        0..=2 => Op::Push(offset),
        3 => Op::Push(offset % 16),
        4 => Op::PushStale(offset),
        _ => Op::Pop,
    })
}

proptest! {
    #[test]
    fn wake_set_matches_ordered_set_semantics(
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        let mut wakes = WakeSet::new();
        let mut reference: BTreeSet<u64> = BTreeSet::new();
        // The reference clock mirrors the store's: pops advance it,
        // stale pushes sit behind it.
        let mut clock = 0u64;
        // The reference `(coalesced, stale)` tallies since the last
        // `take_stats`.
        let mut tally = (0u64, 0u64);

        for op in &ops {
            match *op {
                Op::Push(offset) => {
                    let s = clock + offset;
                    wakes.push(s);
                    if !reference.insert(s) {
                        tally.0 += 1;
                    }
                }
                Op::PushStale(offset) => {
                    if clock > 0 {
                        wakes.push(clock - 1 - offset % clock);
                        // Dropped: the reference never re-admits a
                        // slot behind the clock.
                        tally.1 += 1;
                    }
                }
                Op::Pop => {
                    let expect = reference.pop_first();
                    if let Some(s) = expect {
                        clock = s + 1;
                    }
                    prop_assert_eq!(wakes.pop(), expect, "pop order diverged");
                }
            }
            prop_assert_eq!(
                wakes.pending(),
                reference.len(),
                "pending count diverged"
            );
            prop_assert_eq!(wakes.is_empty(), reference.is_empty());
            prop_assert_eq!(
                wakes.take_stats(),
                std::mem::take(&mut tally),
                "(coalesced, stale) tallies diverged"
            );
        }

        // Drain whatever is left: the tail must come out in exactly
        // ascending set order.
        let drained: Vec<u64> = std::iter::from_fn(|| wakes.pop()).collect();
        let expect: Vec<u64> = reference.into_iter().collect();
        prop_assert_eq!(drained, expect, "drain order diverged");
    }
}
