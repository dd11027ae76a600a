//! Property-based tests for the core protocol layer.

use proptest::prelude::*;

use ffd2d_core::discovery::NeighborTable;
use ffd2d_core::ranking::BrightnessRanking;
use ffd2d_core::reference::build_spanning_tree;
use ffd2d_graph::mst::kruskal_max_st;
use ffd2d_graph::spatial::SpatialGrid;
use ffd2d_graph::weight::W;
use ffd2d_graph::WeightedGraph;
use ffd2d_phy::codec::ServiceClass;
use ffd2d_radio::units::Dbm;
use ffd2d_sim::time::Slot;

proptest! {
    /// The sequential Algorithm 1 equals Kruskal on arbitrary graphs
    /// with distinct weights.
    #[test]
    fn algorithm1_equals_kruskal(n in 3usize..20, mask in proptest::collection::vec(any::<bool>(), 0..200)) {
        let mut g = WeightedGraph::new(n);
        let mut w = -120.0;
        let mut k = 0;
        'outer: for a in 0..n as u32 {
            for b in (a + 1)..n as u32 {
                if k >= mask.len() {
                    break 'outer;
                }
                if mask[k] {
                    w += 0.5;
                    g.add_edge(a, b, W::new(w));
                }
                k += 1;
            }
        }
        let st = build_spanning_tree(&g);
        let kr = kruskal_max_st(&g);
        prop_assert_eq!(st.forest.edges, kr.edges);
    }

    /// EWMA weights stay within the convex hull of observations, the
    /// entry always reflects the latest fragment, and service matches
    /// follow the per-device service table.
    #[test]
    fn neighbor_table_ewma_bounds(
        obs in proptest::collection::vec((-110.0f64..-30.0, 0u32..8), 1..40),
        svcs in proptest::collection::vec(0u8..4, 4),
    ) {
        let services: Vec<ServiceClass> = svcs.iter().map(|&s| ServiceClass::new(s)).collect();
        let mut t = NeighborTable::new(4);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (i, &(dbm, frag)) in obs.iter().enumerate() {
            lo = lo.min(dbm);
            hi = hi.max(dbm);
            t.observe_fire(1, Dbm(dbm), frag, Slot(i as u64));
        }
        let info = t.get(1).unwrap();
        prop_assert!(info.weight_dbm >= lo - 1e-9 && info.weight_dbm <= hi + 1e-9);
        let last = obs.last().unwrap();
        prop_assert_eq!(info.fragment, last.1);
        prop_assert_eq!(info.samples as usize, obs.len());
        prop_assert_eq!(t.discovered(), 1);
        // Only neighbour 1 is known, so it is the only possible match.
        for &mine in &services {
            let matches: Vec<u32> = t.service_matches(mine, &services).collect();
            let expected = if services[1].matches(mine) { vec![1] } else { vec![] };
            prop_assert_eq!(matches, expected);
        }
    }

    /// best_outgoing never returns a same-fragment neighbour and always
    /// returns the maximum eligible weight.
    #[test]
    fn best_outgoing_is_correct(entries in proptest::collection::vec((-110.0f64..-30.0, 0u32..3), 1..10)) {
        let n = entries.len() + 1;
        let mut t = NeighborTable::new(n);
        for (i, &(dbm, frag)) in entries.iter().enumerate() {
            t.observe_fire((i + 1) as u32, Dbm(dbm), frag, Slot(0));
        }
        let my_fragment = 0u32;
        match t.best_outgoing(my_fragment) {
            Some((id, w)) => {
                let info = t.get(id).unwrap();
                prop_assert_ne!(info.fragment, my_fragment);
                for (other, oinfo) in t.iter() {
                    if oinfo.fragment != my_fragment {
                        prop_assert!(w >= oinfo.weight_dbm - 1e-12, "missed {other}");
                    }
                }
            }
            None => {
                for (_, info) in t.iter() {
                    prop_assert_eq!(info.fragment, my_fragment);
                }
            }
        }
    }

    /// The brightness ranking is a permutation consistent with the
    /// values, and next_brighter chains cover the whole population.
    #[test]
    fn ranking_is_consistent(vals in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let r = BrightnessRanking::build(&vals);
        // Walk the chain from the dimmest: must visit everyone once in
        // non-decreasing brightness order.
        let mut order: Vec<u32> = r.ascending().collect();
        prop_assert_eq!(order.len(), vals.len());
        for w in order.windows(2) {
            prop_assert!(vals[w[0] as usize] <= vals[w[1] as usize]);
        }
        order.sort_unstable();
        order.dedup();
        prop_assert_eq!(order.len(), vals.len(), "not a permutation");
        // next_brighter from every element agrees with rank + 1.
        for id in 0..vals.len() as u32 {
            let rank = r.rank(id);
            match r.next_brighter(id) {
                Some(j) => prop_assert_eq!(r.rank(j), rank + 1),
                None => prop_assert_eq!(rank, vals.len() - 1),
            }
        }
    }

    /// The spatial grid's disc query returns exactly the brute-force
    /// audible set (inclusive boundary), for arbitrary positions, query
    /// centres and radii.
    #[test]
    fn spatial_grid_matches_brute_force(
        points in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..80),
        cell in 3.0f64..60.0,
        qx in 0.0f64..100.0,
        qy in 0.0f64..100.0,
        r in 0.0f64..150.0,
    ) {
        let grid = SpatialGrid::new(100.0, 100.0, cell, &points);
        let got = grid.within_vec(qx, qy, r);
        let expected: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, &(x, y))| {
                let (dx, dy) = (x - qx, y - qy);
                dx * dx + dy * dy <= r * r
            })
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// Quantized placements: every point sits exactly on a cell corner
    /// (the boundary-ownership edge case) and duplicates are common
    /// (co-located devices). Queries centred on lattice points with
    /// radii that are exact multiples of the cell size hit the boundary
    /// `d == r` with equality, which must be *inclusive*.
    #[test]
    fn spatial_grid_handles_boundaries_and_colocated(
        lattice in proptest::collection::vec((0u32..11, 0u32..11), 1..60),
        qcell in (0u32..11, 0u32..11),
        rcells in 0u32..12,
        cell in 1.0f64..25.0,
    ) {
        let points: Vec<(f64, f64)> = lattice
            .iter()
            .map(|&(cx, cy)| (cx as f64 * cell, cy as f64 * cell))
            .collect();
        let (w, h) = (10.0 * cell, 10.0 * cell);
        let grid = SpatialGrid::new(w, h, cell, &points);
        let (qx, qy) = (qcell.0 as f64 * cell, qcell.1 as f64 * cell);
        let r = rcells as f64 * cell;
        let got = grid.within_vec(qx, qy, r);
        let expected: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, &(x, y))| {
                let (dx, dy) = (x - qx, y - qy);
                dx * dx + dy * dy <= r * r
            })
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(&got, &expected);
        // Co-located points must all be reported together: any reported
        // point drags every duplicate of it along.
        for &id in &got {
            let p = points[id as usize];
            for (j, &q) in points.iter().enumerate() {
                if q == p {
                    prop_assert!(got.contains(&(j as u32)), "duplicate {j} missing");
                }
            }
        }
    }
}
