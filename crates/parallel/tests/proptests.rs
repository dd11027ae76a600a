//! Property-based tests for merging [`Counters`] tallies: far from
//! saturation, the merge does not depend on its order.

use proptest::prelude::*;

use ffd2d_sim::counters::Counters;

proptest! {
    /// Merging is order-insensitive far from saturation.
    #[test]
    fn merge_commutes_below_saturation(
        a in proptest::collection::vec(0u64..1 << 30, 8),
        b in proptest::collection::vec(0u64..1 << 30, 8),
    ) {
        let mk = |v: &[u64]| Counters {
            rach1_tx: v[0],
            rach2_tx: v[1],
            unicast_tx: v[2],
            rx_ok: v[3],
            rx_collision: v[4],
            rx_below_threshold: v[5],
            fault_dropped_frames: v[6],
            fault_dup_frames: v[7],
        };
        let (x, y) = (mk(&a), mk(&b));
        let mut xy = x;
        xy.merge(&y);
        let mut yx = y;
        yx.merge(&x);
        prop_assert_eq!(xy, yx);
    }
}
