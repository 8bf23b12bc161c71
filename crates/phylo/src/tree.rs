//! Arena-allocated rooted binary trees with branch lengths.

/// Index of a node within a [`Tree`] arena.
pub type NodeId = usize;

/// One node of a rooted binary tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Parent node, `None` for the root.
    pub parent: Option<NodeId>,
    /// Children, `None` for leaves. Trees are strictly binary.
    pub children: Option<(NodeId, NodeId)>,
    /// For leaves: the index of the item (e.g. sequence) this leaf stands
    /// for.
    pub leaf: Option<usize>,
    /// Length of the edge connecting this node to its parent (0 for the
    /// root).
    pub branch_len: f64,
    /// Ultrametric height (UPGMA) or cumulative depth proxy; 0 for leaves.
    pub height: f64,
}

/// A rooted, strictly binary phylogenetic tree over `n` leaves.
///
/// Invariants: exactly `n` leaves carrying leaf indices `0..n` (each exactly
/// once) and `n − 1` internal nodes; every internal node has exactly two
/// children.
#[derive(Debug, Clone, PartialEq)]
pub struct Tree {
    nodes: Vec<Node>,
    root: NodeId,
    n_leaves: usize,
}

impl Tree {
    /// A single-leaf tree (leaf index 0).
    pub fn singleton() -> Tree {
        Tree {
            nodes: vec![Node {
                parent: None,
                children: None,
                leaf: Some(0),
                branch_len: 0.0,
                height: 0.0,
            }],
            root: 0,
            n_leaves: 1,
        }
    }

    /// Build a tree from a merge script over `n` leaves.
    ///
    /// `merges` lists, in order, pairs of node ids to join; leaf `i` has id
    /// `i`, and the `m`-th merge creates node id `n + m`. Heights give the
    /// height of each created internal node; branch lengths are derived as
    /// `parent.height − child.height`.
    ///
    /// # Panics
    /// Panics on malformed scripts (wrong counts, reused nodes).
    pub fn from_merges(n: usize, merges: &[(NodeId, NodeId, f64)]) -> Tree {
        assert!(n >= 1, "need at least one leaf");
        assert_eq!(merges.len(), n - 1, "binary tree needs n-1 merges");
        let mut nodes: Vec<Node> = (0..n)
            .map(|i| Node {
                parent: None,
                children: None,
                leaf: Some(i),
                branch_len: 0.0,
                height: 0.0,
            })
            .collect();
        for (m, &(a, b, height)) in merges.iter().enumerate() {
            let id = n + m;
            assert!(a < id && b < id && a != b, "merge {m} references bad nodes");
            assert!(nodes[a].parent.is_none(), "node {a} already merged");
            assert!(nodes[b].parent.is_none(), "node {b} already merged");
            nodes.push(Node {
                parent: None,
                children: Some((a, b)),
                leaf: None,
                branch_len: 0.0,
                height,
            });
            nodes[a].parent = Some(id);
            nodes[b].parent = Some(id);
            let (ha, hb) = (nodes[a].height, nodes[b].height);
            nodes[a].branch_len = (height - ha).max(0.0);
            nodes[b].branch_len = (height - hb).max(0.0);
        }
        let root = nodes.len() - 1;
        assert!(nodes[root].parent.is_none());
        Tree { nodes, root, n_leaves: n }
    }

    /// Direct arena access.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Mutable access to branch length (used by generators that rescale).
    pub fn set_branch_len(&mut self, id: NodeId, len: f64) {
        self.nodes[id].branch_len = len;
    }

    /// Root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// Total number of nodes (`2n − 1`).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Ids of all nodes in post order (children before parents).
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![(self.root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded || self.nodes[id].children.is_none() {
                order.push(id);
            } else {
                stack.push((id, true));
                let (a, b) = self.nodes[id].children.expect("checked");
                stack.push((b, false));
                stack.push((a, false));
            }
        }
        order
    }

    /// Leaf item indices under `id`, in traversal order.
    pub fn leaves_under(&self, id: NodeId) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            match self.nodes[cur].children {
                Some((a, b)) => {
                    stack.push(b);
                    stack.push(a);
                }
                None => out.push(self.nodes[cur].leaf.expect("leaf has index")),
            }
        }
        out
    }

    /// All leaf item indices in traversal order (a permutation of `0..n`).
    pub fn leaf_order(&self) -> Vec<usize> {
        self.leaves_under(self.root)
    }

    /// The bipartitions induced by removing each internal edge: for every
    /// non-root node `v` with at least 2 leaves on the smaller side, yields
    /// `(leaves under v, the complement)`.
    pub fn bipartitions(&self) -> Vec<(Vec<usize>, Vec<usize>)> {
        let all: Vec<usize> = self.leaf_order();
        let mut out = Vec::new();
        for id in 0..self.nodes.len() {
            if id == self.root {
                continue;
            }
            let inside = self.leaves_under(id);
            if inside.is_empty() || inside.len() == all.len() {
                continue;
            }
            let inside_set: std::collections::HashSet<usize> = inside.iter().copied().collect();
            let outside: Vec<usize> =
                all.iter().copied().filter(|l| !inside_set.contains(l)).collect();
            out.push((inside, outside));
        }
        out
    }

    /// Sum of branch lengths on the path between two *node* ids.
    pub fn path_length(&self, a: NodeId, b: NodeId) -> f64 {
        // Walk both up to the root recording cumulative distances, then
        // find the deepest common ancestor.
        let up = |mut id: NodeId| {
            let mut path = vec![(id, 0.0)];
            let mut acc = 0.0;
            while let Some(p) = self.nodes[id].parent {
                acc += self.nodes[id].branch_len;
                path.push((p, acc));
                id = p;
            }
            path
        };
        let pa = up(a);
        let pb = up(b);
        let set: std::collections::HashMap<NodeId, f64> = pa.iter().copied().collect();
        for &(id, db) in &pb {
            if let Some(&da) = set.get(&id) {
                return da + db;
            }
        }
        unreachable!("two nodes of one tree always share the root");
    }

    /// Leaf node id (arena id) for a given leaf item index.
    pub fn leaf_node(&self, leaf: usize) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.leaf == Some(leaf))
    }

    /// Validate the structural invariants, returning a description of the
    /// first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut leaf_seen = vec![false; self.n_leaves];
        let mut child_count = vec![0usize; self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            match (node.children, node.leaf) {
                (Some((a, b)), None) => {
                    for c in [a, b] {
                        if self.nodes[c].parent != Some(id) {
                            return Err(format!("child {c} of {id} has wrong parent"));
                        }
                        child_count[c] += 1;
                    }
                }
                (None, Some(leaf)) => {
                    if leaf >= self.n_leaves {
                        return Err(format!("leaf index {leaf} out of range"));
                    }
                    if leaf_seen[leaf] {
                        return Err(format!("duplicate leaf index {leaf}"));
                    }
                    leaf_seen[leaf] = true;
                }
                _ => return Err(format!("node {id} is neither leaf nor internal")),
            }
            if node.branch_len < 0.0 {
                return Err(format!("node {id} has negative branch length"));
            }
        }
        if !leaf_seen.iter().all(|&s| s) {
            return Err("missing leaf indices".into());
        }
        if child_count.iter().enumerate().any(|(id, &c)| c > 1 && id != self.root) {
            return Err("node with multiple parents".into());
        }
        if self.nodes[self.root].parent.is_some() {
            return Err("root has a parent".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Balanced 4-leaf tree: ((0,1),(2,3)).
    fn sample_tree() -> Tree {
        Tree::from_merges(4, &[(0, 1, 1.0), (2, 3, 2.0), (4, 5, 3.0)])
    }

    #[test]
    fn construction_and_validation() {
        let t = sample_tree();
        assert_eq!(t.n_leaves(), 4);
        assert_eq!(t.n_nodes(), 7);
        t.validate().unwrap();
    }

    #[test]
    fn postorder_visits_children_first() {
        let t = sample_tree();
        let order = t.postorder();
        assert_eq!(order.len(), 7);
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        for (id, node) in (0..t.n_nodes()).map(|i| (i, t.node(i))) {
            if let Some((a, b)) = node.children {
                assert!(pos(a) < pos(id));
                assert!(pos(b) < pos(id));
            }
        }
        assert_eq!(*order.last().unwrap(), t.root());
    }

    #[test]
    fn leaves_under_internal_nodes() {
        let t = sample_tree();
        assert_eq!(t.leaves_under(4), vec![0, 1]);
        assert_eq!(t.leaves_under(5), vec![2, 3]);
        assert_eq!(t.leaf_order(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn branch_lengths_from_heights() {
        let t = sample_tree();
        // leaf 0 under node 4 (height 1.0): branch 1.0
        assert_eq!(t.node(0).branch_len, 1.0);
        // node 4 under root (height 3.0): 3.0 - 1.0 = 2.0
        assert_eq!(t.node(4).branch_len, 2.0);
        // node 5: 3.0 - 2.0 = 1.0
        assert_eq!(t.node(5).branch_len, 1.0);
    }

    #[test]
    fn path_length_is_ultrametric_for_upgma_style_trees() {
        let t = sample_tree();
        // Dist between leaf 0 and leaf 1 = 1 + 1 = 2 (two branches of 1.0).
        assert!((t.path_length(0, 1) - 2.0).abs() < 1e-12);
        // Leaf 0 to leaf 2: 1 + 2 + 1 + 2 = 6.
        assert!((t.path_length(0, 2) - 6.0).abs() < 1e-12);
        // Symmetry.
        assert_eq!(t.path_length(0, 3), t.path_length(3, 0));
    }

    #[test]
    fn bipartitions_cover_internal_edges() {
        let t = sample_tree();
        let bps = t.bipartitions();
        // 4 leaf edges + 2 internal edges (root excluded) = 6 bipartitions
        // but single-leaf sides are included (refinement uses them too).
        assert_eq!(bps.len(), 6);
        for (inside, outside) in &bps {
            assert_eq!(inside.len() + outside.len(), 4);
        }
        assert!(bps.iter().any(|(i, _)| *i == vec![0, 1]));
    }

    #[test]
    fn singleton_is_valid() {
        let t = Tree::singleton();
        t.validate().unwrap();
        assert_eq!(t.leaf_order(), vec![0]);
        assert_eq!(t.postorder(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "already merged")]
    fn reusing_node_panics() {
        Tree::from_merges(3, &[(0, 1, 1.0), (0, 2, 2.0)]);
    }

    #[test]
    fn leaf_node_lookup() {
        let t = sample_tree();
        assert_eq!(t.leaf_node(2), Some(2));
        assert_eq!(t.leaf_node(99), None);
    }
}
