//! Sequential reference of Algorithms 1 and 2.
//!
//! This module executes the paper's pseudo-code directly on the
//! ground-truth proximity graph — no radio, no slots — as the oracle
//! the distributed engine is validated against:
//!
//! * **Algorithm 1 (`Spanning_Tree`)**: every vertex starts as its own
//!   sub-tree `S_v`; while more than one tree remains, heads attempt
//!   `H_Connect` over their heaviest outgoing edge and merged trees
//!   take the head "from highest number of node's tree".
//! * **Algorithm 2 (`H_Connect`)**: a vertex either has no adjacent
//!   vertex outside its tree (returns false → `Change_head`) or
//!   handshakes over the heaviest such edge (always succeeds in the
//!   sequential setting).
//!
//! With distinct weights the result is exactly the maximum spanning
//! forest, so the tests cross-check against Kruskal/Borůvka from
//! `ffd2d-graph` — and §V's claim "the resultant weight of our spanning
//! tree will always be greater than weight of any spanning tree
//! generated by same number of nodes" becomes a checkable property.

use serde::{Deserialize, Serialize};

use ffd2d_graph::adjacency::{Edge, WeightedGraph};
use ffd2d_graph::fragments::FragmentForest;
use ffd2d_graph::mst::SpanningForest;
use ffd2d_graph::VertexId;

/// Per-round statistics of the sequential Algorithm 1 run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Sub-trees alive at the start of the round (`|ST|`).
    pub fragments_before: usize,
    /// Sub-trees alive after the merges.
    pub fragments_after: usize,
    /// `H_Connect` calls that returned true (merges performed).
    pub merges: usize,
    /// `H_Connect` calls that returned false (head had no outgoing
    /// vertex → `Change_head` path of Algorithm 1).
    pub h_connect_failures: usize,
}

/// Result of the sequential Algorithm 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StBuild {
    /// The spanning forest produced.
    pub forest: SpanningForest,
    /// Final head of every vertex's tree.
    pub heads: Vec<VertexId>,
    /// Round-by-round progress.
    pub rounds: Vec<RoundStats>,
}

/// Algorithm 2, sequentially: the heaviest edge from fragment
/// `fragment_of(v)` to any vertex outside it, seen from the whole
/// fragment (the distributed version convergecasts per-member bests;
/// the sequential oracle can scan directly).
pub fn h_connect(
    graph: &WeightedGraph,
    fragments: &mut FragmentForest,
    v: VertexId,
) -> Option<Edge> {
    let my_frag = fragments.fragment_of(v);
    let mut best: Option<Edge> = None;
    // Scan every member's incident edges (what the convergecast
    // aggregates in the distributed protocol).
    let members: Vec<VertexId> = fragments.members_of(v).to_vec();
    for m in members {
        if let Some(e) = graph.best_incident(m, |u| fragments.fragment_of_const(u) != my_frag) {
            best = Some(match best {
                None => e,
                Some(cur) => {
                    if e.heavy_key() > cur.heavy_key() {
                        e
                    } else {
                        cur
                    }
                }
            });
        }
    }
    best
}

/// Algorithm 1, sequentially: Borůvka-style rounds of `H_Connect` +
/// `Merge_Sub_Tree` until `|ST|` stops shrinking.
pub fn build_spanning_tree(graph: &WeightedGraph) -> StBuild {
    let n = graph.n();
    let mut fragments = FragmentForest::new(n);
    let mut rounds = Vec::new();

    loop {
        let before = fragments.fragment_count();
        let live: Vec<VertexId> = fragments.fragments();
        let mut merges = 0;
        let mut failures = 0;
        // Each head performs H_Connect over its fragment's best edge.
        let mut chosen: Vec<Edge> = Vec::with_capacity(live.len());
        for frag in live {
            match h_connect(graph, &mut fragments, frag) {
                Some(e) => chosen.push(e),
                None => failures += 1,
            }
        }
        // Deterministic commit order.
        chosen.sort_by_key(|e| std::cmp::Reverse(e.heavy_key()));
        for e in chosen {
            if fragments.merge(e) {
                merges += 1;
            }
        }
        rounds.push(RoundStats {
            fragments_before: before,
            fragments_after: fragments.fragment_count(),
            merges,
            h_connect_failures: failures,
        });
        if merges == 0 {
            break;
        }
    }

    let mut edges = fragments.tree_edges().to_vec();
    edges.sort();
    let tree_count = n - edges.len();
    let heads = (0..n as VertexId).map(|v| fragments.head_of(v)).collect();
    StBuild {
        forest: SpanningForest { edges, tree_count },
        heads,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffd2d_graph::mst::{boruvka_max_st, kruskal_max_st};
    use ffd2d_graph::weight::W;
    use rand::{Rng, SeedableRng};

    fn random_graph(n: usize, p: f64, seed: u64) -> WeightedGraph {
        let mut rng = ffd2d_sim::rng::Xoshiro256StarStar::seed_from_u64(seed);
        let mut g = WeightedGraph::new(n);
        for a in 0..n as VertexId {
            for b in (a + 1)..n as VertexId {
                if rng.gen_bool(p) {
                    g.add_edge(a, b, W::new(rng.gen_range(-120.0..0.0)));
                }
            }
        }
        g
    }

    #[test]
    fn matches_kruskal_on_random_graphs() {
        for seed in 0..8 {
            let g = random_graph(50, 0.4, seed);
            let st = build_spanning_tree(&g);
            let k = kruskal_max_st(&g);
            assert_eq!(st.forest.edges, k.edges, "seed {seed}");
            assert_eq!(st.forest.tree_count, k.tree_count);
        }
    }

    #[test]
    fn matches_boruvka_round_structure() {
        let g = random_graph(64, 1.0, 3);
        let st = build_spanning_tree(&g);
        let (b, rounds) = boruvka_max_st(&g);
        assert_eq!(st.forest.edges, b.edges);
        // Same number of *merging* rounds (ours stops when merges == 0,
        // Borůvka's last recorded round is the empty one).
        assert_eq!(st.rounds.len(), rounds.len());
    }

    #[test]
    fn rounds_are_logarithmic_on_connected_graphs() {
        let g = random_graph(128, 1.0, 4);
        let st = build_spanning_tree(&g);
        assert!(st.forest.is_single_tree());
        assert!(
            st.rounds.len() <= 8,
            "expected ≤ log2(128)+1 rounds, got {}",
            st.rounds.len()
        );
    }

    #[test]
    fn one_head_per_component_and_heads_are_members() {
        let g = random_graph(40, 0.15, 9); // likely disconnected
        let st = build_spanning_tree(&g);
        let (labels, k) = ffd2d_graph::connectivity::components(&g);
        // Heads agree within a component.
        for v in 0..40u32 {
            for u in 0..40u32 {
                if labels[v as usize] == labels[u as usize] {
                    assert_eq!(st.heads[v as usize], st.heads[u as usize]);
                }
            }
            // The head is in the same component as its members.
            assert_eq!(
                labels[st.heads[v as usize] as usize], labels[v as usize],
                "head outside component"
            );
        }
        assert_eq!(st.forest.tree_count, k);
    }

    #[test]
    fn single_vertex_and_empty_graphs() {
        let st = build_spanning_tree(&WeightedGraph::new(1));
        assert_eq!(st.forest.edges.len(), 0);
        assert_eq!(st.forest.tree_count, 1);
        let st = build_spanning_tree(&WeightedGraph::new(0));
        assert_eq!(st.forest.tree_count, 0);
    }

    #[test]
    fn heavier_than_star_tree() {
        // §V: "resultant weight ... always greater than weight of any
        // spanning tree" — compare against the star rooted at 0 on a
        // complete graph.
        let g = random_graph(25, 1.0, 11);
        let st = build_spanning_tree(&g);
        // The graph is complete (p = 1.0), so every star edge exists.
        let star: f64 = (1..25)
            .map(|v| {
                g.weight(0, v)
                    .expect("complete graph has every star edge")
                    .get()
            })
            .sum();
        assert!(st.forest.total_weight().get() >= star);
    }

    #[test]
    fn h_connect_returns_false_case() {
        // Isolated vertex: no adjacent vertex outside its tree.
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, W::new(1.0));
        let mut f = FragmentForest::new(3);
        assert!(h_connect(&g, &mut f, 2).is_none());
        assert_eq!(h_connect(&g, &mut f, 0), Some(Edge::new(0, 1, W::new(1.0))));
    }

    #[test]
    fn h_connect_scans_whole_fragment() {
        // Fragment {0,1}: 0's best external is 2 (w=1), but member 1
        // has a heavier external edge to 3 (w=9) — H_Connect must find
        // the fragment-wide best.
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, W::new(5.0));
        g.add_edge(0, 2, W::new(1.0));
        g.add_edge(1, 3, W::new(9.0));
        let mut f = FragmentForest::new(4);
        f.merge(Edge::new(0, 1, W::new(5.0)));
        let Some(best) = h_connect(&g, &mut f, 0) else {
            panic!("fragment {{0,1}} has external edges; H_Connect must find one")
        };
        assert_eq!((best.u, best.v), (1, 3));
    }
}
