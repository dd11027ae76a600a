//! Property-based tests for the graph substrate.

use proptest::prelude::*;

use ffd2d_graph::adjacency::{Edge, WeightedGraph};
use ffd2d_graph::connectivity::{components, is_connected};
use ffd2d_graph::fragments::FragmentForest;
use ffd2d_graph::mst::{boruvka_max_st, kruskal_max_st, prim_max_st};
use ffd2d_graph::tree::{is_spanning_tree, RootedTree};
use ffd2d_graph::unionfind::UnionFind;
use ffd2d_graph::weight::W;

/// Random simple graph as an edge list with distinct weights.
fn graphs(max_n: usize) -> impl Strategy<Value = WeightedGraph> {
    (3..max_n).prop_flat_map(|n| {
        let all_pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|a| ((a + 1)..n as u32).map(move |b| (a, b)))
            .collect();
        let m = all_pairs.len();
        proptest::collection::vec(any::<bool>(), m).prop_map(move |mask| {
            let mut g = WeightedGraph::new(n);
            let mut w = -120.0;
            for (&(a, b), &keep) in all_pairs.iter().zip(&mask) {
                if keep {
                    // Strictly increasing weights → all distinct.
                    w += 0.25;
                    g.add_edge(a, b, W::new(w));
                }
            }
            g
        })
    })
}

proptest! {
    /// Kruskal, Prim and Borůvka agree on arbitrary graphs with
    /// distinct weights (the maximum spanning forest is unique).
    #[test]
    fn mst_algorithms_agree(g in graphs(24)) {
        let k = kruskal_max_st(&g);
        let p = prim_max_st(&g);
        let (b, rounds) = boruvka_max_st(&g);
        prop_assert_eq!(&k.edges, &p.edges);
        prop_assert_eq!(&k.edges, &b.edges);
        prop_assert!(!rounds.is_empty());
        // Forest size matches component structure.
        let (_, comps) = components(&g);
        prop_assert_eq!(k.tree_count, comps);
        prop_assert_eq!(k.edges.len(), g.n() - comps);
    }

    /// The max spanning forest dominates every other spanning forest
    /// built greedily from a shuffled edge order (exchange property).
    #[test]
    fn max_forest_dominates_greedy_random(g in graphs(20), shuffle_seed in any::<u64>()) {
        let best = kruskal_max_st(&g).total_weight().get();
        let mut edges = g.edges();
        // Cheap deterministic shuffle.
        let mut s = shuffle_seed | 1;
        for i in (1..edges.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (s >> 33) as usize % (i + 1);
            edges.swap(i, j);
        }
        let mut uf = UnionFind::new(g.n());
        let total: f64 = edges
            .into_iter()
            .filter(|e| uf.union(e.u, e.v))
            .map(|e| e.w.get())
            .sum();
        prop_assert!(best >= total - 1e-9);
    }

    /// Union–find maintains the partition invariant under arbitrary
    /// union sequences.
    #[test]
    fn union_find_partition(n in 2usize..64, ops in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..200)) {
        let mut uf = UnionFind::new(n);
        let mut merges = 0;
        for (a, b) in ops {
            let (a, b) = (a % n as u32, b % n as u32);
            if uf.union(a, b) {
                merges += 1;
            }
            prop_assert!(uf.connected(a, b));
        }
        prop_assert_eq!(uf.set_count(), n - merges);
        // find is idempotent and canonical.
        for v in 0..n as u32 {
            let r = uf.find(v);
            prop_assert_eq!(uf.find(r), r);
        }
    }

    /// A tree built from any connected graph's MST is a valid rooted
    /// tree from every root, with consistent depths and parent links.
    #[test]
    fn rooted_tree_invariants(g in graphs(16)) {
        prop_assume!(is_connected(&g) && g.n() >= 2);
        let f = kruskal_max_st(&g);
        prop_assert!(is_spanning_tree(g.n(), &f.edges));
        for root in 0..g.n() as u32 {
            let t = RootedTree::from_edges(g.n(), root, &f.edges).unwrap();
            for v in 0..g.n() as u32 {
                // The parent chain has `depth` links and ends at the root.
                let (mut top, mut links) = (v, 0);
                while let Some(p) = t.parent(top) {
                    top = p;
                    links += 1;
                }
                prop_assert_eq!(links, t.depth(v));
                prop_assert_eq!(top, root);
                // Parent/child relations are mutually consistent.
                if let Some(p) = t.parent(v) {
                    prop_assert!(t.children(p).contains(&v));
                    prop_assert_eq!(t.depth(v), t.depth(p) + 1);
                }
            }
        }
    }

    /// FragmentForest merge sequences grow one tree edge per merge and
    /// never cycle; the head is always a member of its fragment.
    #[test]
    fn fragment_forest_invariants(n in 2usize..32, picks in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..80)) {
        let mut f = FragmentForest::new(n);
        for (i, (a, b)) in picks.into_iter().enumerate() {
            let (a, b) = (a % n as u32, b % n as u32);
            if a == b { continue; }
            let merged = f.merge(Edge::new(a, b, W::new(i as f64)));
            let same_after = f.fragment_of(a) == f.fragment_of(b);
            prop_assert!(same_after, "endpoints must share a fragment after merge");
            let _ = merged;
        }
        prop_assert_eq!(f.tree_edges().len(), n - f.fragment_count());
        for v in 0..n as u32 {
            let head = f.head_of(v);
            prop_assert!(f.members_of(v).contains(&head));
        }
    }
}
