//! Rooted-tree utilities.
//!
//! Once a spanning tree is agreed, every device needs to know its tree
//! neighbours, its parent toward the fragment head, and the head needs
//! BFS order to schedule convergecast reports. [`RootedTree`] derives
//! all of that from an edge list plus a root.

use serde::{Deserialize, Serialize};

use crate::adjacency::Edge;
use crate::VertexId;

/// A rooted spanning tree over dense vertices `0..n`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RootedTree {
    root: VertexId,
    parent: Vec<Option<VertexId>>,
    children: Vec<Vec<VertexId>>,
    depth: Vec<u32>,
    bfs_order: Vec<VertexId>,
}

impl RootedTree {
    /// Build a rooted tree from `n`, a root, and exactly the tree edges.
    ///
    /// Returns `None` if the edges do not form a spanning tree of the
    /// `n` vertices (wrong count, disconnected, or cyclic).
    pub fn from_edges(n: usize, root: VertexId, edges: &[Edge]) -> Option<RootedTree> {
        if n == 0 || root as usize >= n || edges.len() != n - 1 {
            return None;
        }
        let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for e in edges {
            if e.u as usize >= n || e.v as usize >= n {
                return None;
            }
            adj[e.u as usize].push(e.v);
            adj[e.v as usize].push(e.u);
        }
        let mut parent = vec![None; n];
        let mut depth = vec![0u32; n];
        let mut children: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        let mut bfs_order = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        visited[root as usize] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            bfs_order.push(v);
            for &u in &adj[v as usize] {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    parent[u as usize] = Some(v);
                    depth[u as usize] = depth[v as usize] + 1;
                    children[v as usize].push(u);
                    queue.push_back(u);
                }
            }
        }
        if bfs_order.len() != n {
            return None; // disconnected (and therefore also cyclic somewhere)
        }
        Some(RootedTree {
            root,
            parent,
            children,
            depth,
            bfs_order,
        })
    }

    /// The root vertex.
    #[inline]
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if the tree is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Parent of `v` (`None` for the root).
    #[inline]
    pub fn parent(&self, v: VertexId) -> Option<VertexId> {
        self.parent[v as usize]
    }

    /// Children of `v`.
    #[inline]
    pub fn children(&self, v: VertexId) -> &[VertexId] {
        &self.children[v as usize]
    }

    /// Depth of `v` below the root.
    #[inline]
    pub fn depth(&self, v: VertexId) -> u32 {
        self.depth[v as usize]
    }

    /// Height of the tree (max depth).
    pub fn height(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Vertices in BFS order from the root.
    #[inline]
    pub fn bfs_order(&self) -> &[VertexId] {
        &self.bfs_order
    }
}

/// Validate that `edges` form a spanning tree over `n` vertices.
pub fn is_spanning_tree(n: usize, edges: &[Edge]) -> bool {
    RootedTree::from_edges(n, 0, edges).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weight::W;

    fn e(u: VertexId, v: VertexId) -> Edge {
        Edge::new(u, v, W::new(1.0))
    }

    /// Path 0-1-2-3 plus branch 1-4.
    fn sample() -> RootedTree {
        RootedTree::from_edges(5, 0, &[e(0, 1), e(1, 2), e(2, 3), e(1, 4)]).unwrap()
    }

    #[test]
    fn parents_and_children() {
        let t = sample();
        assert_eq!(t.root(), 0);
        assert_eq!(t.parent(0), None);
        assert_eq!(t.parent(2), Some(1));
        assert_eq!(t.parent(4), Some(1));
        let mut kids = t.children(1).to_vec();
        kids.sort();
        assert_eq!(kids, vec![2, 4]);
    }

    #[test]
    fn depths_and_height() {
        let t = sample();
        assert_eq!(t.depth(0), 0);
        assert_eq!(t.depth(1), 1);
        assert_eq!(t.depth(3), 3);
        assert_eq!(t.height(), 3);
    }

    #[test]
    fn bfs_order_starts_at_root_and_is_level_monotone() {
        let t = sample();
        let order = t.bfs_order();
        assert_eq!(order[0], 0);
        assert_eq!(order.len(), 5);
        for w in order.windows(2) {
            assert!(t.depth(w[0]) <= t.depth(w[1]));
        }
    }

    #[test]
    fn rejects_wrong_edge_count() {
        assert!(RootedTree::from_edges(4, 0, &[e(0, 1), e(1, 2)]).is_none());
    }

    #[test]
    fn rejects_disconnected() {
        // 4 vertices, 3 edges, but with a cycle + isolated vertex.
        assert!(RootedTree::from_edges(4, 0, &[e(0, 1), e(1, 2), e(0, 2)]).is_none());
    }

    #[test]
    fn rejects_bad_root_or_vertices() {
        assert!(RootedTree::from_edges(3, 7, &[e(0, 1), e(1, 2)]).is_none());
        assert!(RootedTree::from_edges(2, 0, &[e(0, 5)]).is_none());
        assert!(RootedTree::from_edges(0, 0, &[]).is_none());
    }

    #[test]
    fn is_spanning_tree_helper() {
        assert!(is_spanning_tree(3, &[e(0, 1), e(1, 2)]));
        assert!(!is_spanning_tree(3, &[e(0, 1)]));
    }

    #[test]
    fn rerooting_preserves_vertex_set() {
        let edges = [e(0, 1), e(1, 2), e(2, 3), e(1, 4)];
        for root in 0..5 {
            let t = RootedTree::from_edges(5, root, &edges).unwrap();
            assert_eq!(t.root(), root);
            assert_eq!(t.bfs_order().len(), 5);
        }
    }
}
