//! GHS-style fragment bookkeeping.
//!
//! Algorithm 1 of the paper starts every device as its own single-node
//! spanning tree `S_v` and repeatedly merges sub-trees over their
//! heaviest outgoing edges until one tree remains (`|ST| = 1`), choosing
//! each merged tree's head "from highest number of node's tree". A
//! [`FragmentForest`] is the bookkeeping for exactly that process:
//! fragment membership, per-fragment head, member lists (small-to-large
//! merged) and the accepted tree edges.
//!
//! The distributed protocol in `ffd2d-core` holds one of these as its
//! ground truth while the *devices* discover the same structure through
//! messages; the sequential tests here pin down the merge semantics.

use serde::{Deserialize, Serialize};

use crate::adjacency::Edge;
use crate::unionfind::UnionFind;
use crate::VertexId;

/// Disjoint fragments of a growing spanning forest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FragmentForest {
    #[serde(skip, default = "empty_uf")]
    uf: UnionFind,
    /// Per-representative fragment metadata (only valid at root indexes).
    head: Vec<VertexId>,
    members: Vec<Vec<VertexId>>,
    tree_edges: Vec<Edge>,
    n: usize,
}

// Referenced only by the `#[serde(default = "empty_uf")]` attribute,
// which the vendored inert derive does not expand.
#[allow(dead_code)]
fn empty_uf() -> UnionFind {
    UnionFind::new(0)
}

impl FragmentForest {
    /// `n` singleton fragments; every vertex heads its own fragment.
    pub fn new(n: usize) -> Self {
        FragmentForest {
            uf: UnionFind::new(n),
            head: (0..n as VertexId).collect(),
            members: (0..n as VertexId).map(|v| vec![v]).collect(),
            tree_edges: Vec::with_capacity(n.saturating_sub(1)),
            n,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if there are no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of live fragments (`|ST|` in Algorithm 1).
    #[inline]
    pub fn fragment_count(&self) -> usize {
        self.uf.set_count()
    }

    /// True once a single spanning tree remains.
    #[inline]
    pub fn is_single_tree(&self) -> bool {
        self.fragment_count() == 1
    }

    /// Canonical fragment id (union–find representative) of `v`.
    #[inline]
    pub fn fragment_of(&mut self, v: VertexId) -> VertexId {
        self.uf.find(v)
    }

    /// Fragment id without path compression (usable with `&self`).
    #[inline]
    pub fn fragment_of_const(&self, v: VertexId) -> VertexId {
        self.uf.find_const(v)
    }

    /// The head (coordinator) of `v`'s fragment.
    pub fn head_of(&mut self, v: VertexId) -> VertexId {
        let r = self.uf.find(v);
        self.head[r as usize]
    }

    /// Members of `v`'s fragment.
    pub fn members_of(&mut self, v: VertexId) -> &[VertexId] {
        let r = self.uf.find(v);
        &self.members[r as usize]
    }

    /// Size of `v`'s fragment.
    pub fn size_of(&mut self, v: VertexId) -> usize {
        let r = self.uf.find(v);
        self.members[r as usize].len()
    }

    /// Merge the fragments joined by `edge` (Algorithm 1's
    /// `Merge_Sub_Tree`). The surviving head is the head of the *larger*
    /// fragment ("choose S_v.head from highest number of node's tree");
    /// ties go to the head with the smaller vertex id, deterministically.
    ///
    /// Returns `true` if a merge happened (`false` if both endpoints
    /// were already in one fragment — the edge is then *not* recorded).
    pub fn merge(&mut self, edge: Edge) -> bool {
        let (ru, rv) = (self.uf.find(edge.u), self.uf.find(edge.v));
        if ru == rv {
            return false;
        }
        // Decide surviving head before the union reshuffles roots.
        let (su, sv) = (
            self.members[ru as usize].len(),
            self.members[rv as usize].len(),
        );
        let (hu, hv) = (self.head[ru as usize], self.head[rv as usize]);
        let surviving_head = match su.cmp(&sv) {
            core::cmp::Ordering::Greater => hu,
            core::cmp::Ordering::Less => hv,
            core::cmp::Ordering::Equal => hu.min(hv),
        };
        let merged = self.uf.union(ru, rv);
        debug_assert!(merged);
        let root = self.uf.find(ru);
        // Small-to-large member merge into whichever vec is larger.
        let (big, small) = if su >= sv { (ru, rv) } else { (rv, ru) };
        let mut moved = core::mem::take(&mut self.members[small as usize]);
        let mut keep = core::mem::take(&mut self.members[big as usize]);
        keep.append(&mut moved);
        self.members[root as usize] = keep;
        self.head[root as usize] = surviving_head;
        self.tree_edges.push(edge);
        true
    }

    /// The accepted spanning-forest edges so far.
    #[inline]
    pub fn tree_edges(&self) -> &[Edge] {
        &self.tree_edges
    }

    /// Canonical ids of all live fragments.
    pub fn fragments(&self) -> Vec<VertexId> {
        (0..self.n as VertexId)
            .filter(|&v| self.uf.find_const(v) == v)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weight::W;

    fn e(u: VertexId, v: VertexId, w: f64) -> Edge {
        Edge::new(u, v, W::new(w))
    }

    #[test]
    fn starts_as_singletons() {
        let mut f = FragmentForest::new(4);
        assert_eq!(f.fragment_count(), 4);
        for v in 0..4 {
            assert_eq!(f.head_of(v), v);
            assert_eq!(f.members_of(v), &[v]);
            assert_eq!(f.size_of(v), 1);
        }
        assert!(!f.is_single_tree());
    }

    #[test]
    fn merge_records_edges_and_members() {
        let mut f = FragmentForest::new(4);
        assert!(f.merge(e(0, 1, 5.0)));
        assert!(f.merge(e(2, 3, 4.0)));
        assert_eq!(f.fragment_count(), 2);
        assert_eq!(f.size_of(0), 2);
        assert!(f.merge(e(1, 2, 3.0)));
        assert!(f.is_single_tree());
        assert_eq!(f.tree_edges().len(), 3);
        let mut all = f.members_of(0).to_vec();
        all.sort();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn redundant_merge_is_rejected_and_not_recorded() {
        let mut f = FragmentForest::new(3);
        assert!(f.merge(e(0, 1, 1.0)));
        assert!(f.merge(e(1, 2, 1.0)));
        assert!(!f.merge(e(0, 2, 9.0)));
        assert_eq!(f.tree_edges().len(), 2);
    }

    #[test]
    fn larger_fragment_keeps_its_head() {
        let mut f = FragmentForest::new(5);
        f.merge(e(0, 1, 1.0)); // {0,1} head 0 (tie → min id)
        f.merge(e(0, 2, 1.0)); // {0,1,2} bigger, head stays 0
        assert_eq!(f.head_of(2), 0);
        // Merge size-3 with size-2: head of the size-3 side survives.
        f.merge(e(3, 4, 1.0)); // {3,4} head 3
        f.merge(e(2, 3, 1.0));
        assert_eq!(f.head_of(4), 0);
    }

    #[test]
    fn equal_size_tie_goes_to_smaller_head_id() {
        let mut f = FragmentForest::new(4);
        f.merge(e(2, 3, 1.0)); // head 2
        f.merge(e(0, 1, 1.0)); // head 0
        f.merge(e(1, 2, 1.0)); // sizes 2 vs 2 → head min(0, 2) = 0
        assert_eq!(f.head_of(3), 0);
    }

    #[test]
    fn fragments_lists_live_roots() {
        let mut f = FragmentForest::new(5);
        f.merge(e(0, 1, 1.0));
        f.merge(e(2, 3, 1.0));
        let frags = f.fragments();
        assert_eq!(frags.len(), 3);
        // Each vertex's fragment id must be in the list.
        for v in 0..5 {
            assert!(frags.contains(&f.fragment_of(v)));
        }
    }
}
