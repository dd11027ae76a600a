//! Property lock: [`SlotWheel`] ≡ a coalescing priority queue.
//!
//! The two-tier wheel (bitmap ring + far-horizon overflow heap) must be
//! observationally identical to the obvious reference — an ordered set
//! of pending slots popped in ascending order — under any interleaving
//! of pushes (near, far beyond the ring capacity, and stale behind the
//! clock) and min-pops. The event-driven engine relies on exactly this
//! contract: the wheel is its only wake-up store, and a slot surfacing
//! early, late, twice, or never would break the stepped ≡ event
//! bit-identity locked by `tests/engine_equivalence.rs`.

use ffd2d::sim::SlotWheel;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One scripted operation against both implementations.
#[derive(Debug, Clone)]
enum Op {
    /// Push an absolute slot `next + offset` (offsets beyond the ring
    /// capacity land in the overflow tier).
    Push(u64),
    /// Push a slot strictly behind the clock (stale: both drop it).
    PushStale,
    /// Pop the minimum pending slot.
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Offsets straddle the 4096-slot ring: most in-window, a tail deep
    // into the overflow heap. The tag skews toward pushes so queues
    // actually build up across both tiers.
    (0u8..7, 0u64..10_000).prop_map(|(tag, offset)| match tag {
        0..=3 => Op::Push(offset),
        4 => Op::PushStale,
        _ => Op::Pop,
    })
}

proptest! {
    #[test]
    fn wheel_matches_ordered_set_semantics(
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        let mut wheel = SlotWheel::new();
        let mut reference: BTreeSet<u64> = BTreeSet::new();
        // The reference clock mirrors the wheel's: pops advance it,
        // stale pushes sit behind it.
        let mut clock = 0u64;

        for op in &ops {
            match op {
                Op::Push(offset) => {
                    let s = clock + offset;
                    wheel.push(s);
                    reference.insert(s);
                }
                Op::PushStale => {
                    if clock > 0 {
                        let s = clock - 1;
                        wheel.push(s);
                        // Dropped: the reference never re-admits a
                        // slot behind the clock.
                    }
                }
                Op::Pop => {
                    let expect = reference.iter().next().copied();
                    if let Some(s) = expect {
                        reference.remove(&s);
                        clock = s + 1;
                    }
                    prop_assert_eq!(wheel.pop(), expect, "pop order diverged");
                }
            }
            prop_assert_eq!(
                wheel.pending(),
                reference.len(),
                "pending count diverged"
            );
            prop_assert_eq!(wheel.is_empty(), reference.is_empty());
        }

        // Drain whatever is left: the tail must come out in exactly
        // ascending set order, overflow tier included.
        let mut drained = Vec::new();
        while let Some(s) = wheel.pop() {
            drained.push(s);
        }
        let expect: Vec<u64> = reference.iter().copied().collect();
        prop_assert_eq!(drained, expect, "drain order diverged");
    }
}
