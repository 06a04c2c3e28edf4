//! The arena-based token tree.
//!
//! Nodes live in one flat `Vec`; child lists are intrusive
//! (`first_child`/`next_sibling` indices) rather than per-node `Vec`s, so
//! building a tree performs exactly one growable allocation regardless of
//! its shape — and a pooled tree ([`TokenTree::reset`]) performs none at
//! steady state. Sibling order is insertion order, which verification
//! relies on (rejection sampling tries siblings in draft order).

use simllm::TokenId;
use std::fmt;

/// Index of a node within one [`TokenTree`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// The root node's id (always 0).
pub const ROOT: NodeId = NodeId(0);

/// Sentinel for "no node" in the intrusive sibling links.
const NONE: u32 = u32::MAX;

/// Reusable buffers for [`TokenTree::induced_subtree_into`]: the sorted
/// copy of the kept ids and the dense id remap.
#[derive(Debug, Default)]
pub struct SubtreeScratch {
    sorted: Vec<NodeId>,
    remap: Vec<Option<NodeId>>,
}

impl SubtreeScratch {
    /// Sum of buffer capacities (allocation-discipline probe).
    pub fn capacity_sum(&self) -> usize {
        self.sorted.capacity() + self.remap.capacity()
    }
}

/// Errors raised by tree mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// Referenced parent does not exist.
    MissingParent(NodeId),
    /// Child path probability must be strictly below the parent's.
    ProbNotDecreasing,
    /// The same token already labels an edge from this parent.
    DuplicateEdge(TokenId),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::MissingParent(id) => write!(f, "parent node {id:?} does not exist"),
            TreeError::ProbNotDecreasing => {
                write!(
                    f,
                    "child path probability must be strictly below its parent's"
                )
            }
            TreeError::DuplicateEdge(t) => {
                write!(f, "token {t} already labels an edge from this parent")
            }
        }
    }
}

impl std::error::Error for TreeError {}

#[derive(Debug, Clone)]
struct Node {
    token: TokenId,
    parent: Option<NodeId>,
    /// First child in insertion order (`NONE` when leaf).
    first_child: u32,
    /// Next sibling in the parent's insertion order (`NONE` at the tail).
    next_sibling: u32,
    path_prob: f64,
    depth: u32,
}

impl Node {
    fn new(token: TokenId, parent: Option<NodeId>, path_prob: f64, depth: u32) -> Self {
        Self {
            token,
            parent,
            first_child: NONE,
            next_sibling: NONE,
            path_prob,
            depth,
        }
    }
}

/// A rooted token tree with per-node path probabilities.
///
/// The root holds the request's last generated token and path probability 1.
/// Each non-root node represents one speculated token; its `path_prob` is the
/// (approximated) probability that the target model accepts the entire
/// root-to-node token sequence (paper Theorem 3.1 / eq. 7).
///
/// # Invariants
///
/// * node 0 is the root, with `path_prob == 1.0` and no parent;
/// * every other node has a parent that was inserted before it;
/// * `path_prob(child) < path_prob(parent)` strictly;
/// * sibling edges carry distinct tokens.
#[derive(Debug, Clone)]
pub struct TokenTree {
    nodes: Vec<Node>,
}

impl AsRef<TokenTree> for TokenTree {
    fn as_ref(&self) -> &TokenTree {
        self
    }
}

impl TokenTree {
    /// Creates a tree holding only the root token.
    pub fn new(root_token: TokenId) -> Self {
        Self {
            nodes: vec![Node::new(root_token, None, 1.0, 0)],
        }
    }

    /// Clears the tree back to a lone root, **reusing the arena's
    /// allocation** — the pooling primitive the allocation-free engine
    /// loop builds on.
    pub fn reset(&mut self, root_token: TokenId) {
        self.nodes.clear();
        self.nodes.push(Node::new(root_token, None, 1.0, 0));
    }

    /// Reserves arena room for at least `additional` more nodes, so a
    /// pooled tree can grow once to its largest shape.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        ROOT
    }

    /// Number of nodes including the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree holds only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Number of *speculated* tokens (excludes the root, which is already
    /// decoded). This is the `|T_i|` the paper's budget constraint counts.
    pub fn num_speculated(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Adds a speculated token under `parent`.
    ///
    /// `path_prob` is the approximated probability of the full root-to-node
    /// path; it must be strictly below the parent's.
    pub fn add_child(
        &mut self,
        parent: NodeId,
        token: TokenId,
        path_prob: f64,
    ) -> Result<NodeId, TreeError> {
        let pidx = parent.0 as usize;
        if pidx >= self.nodes.len() {
            return Err(TreeError::MissingParent(parent));
        }
        if path_prob >= self.nodes[pidx].path_prob || path_prob < 0.0 || !path_prob.is_finite() {
            return Err(TreeError::ProbNotDecreasing);
        }
        // Walk the (short) sibling list: detect duplicates and find the
        // tail so insertion order is preserved.
        let mut tail = NONE;
        let mut cur = self.nodes[pidx].first_child;
        while cur != NONE {
            if self.nodes[cur as usize].token == token {
                return Err(TreeError::DuplicateEdge(token));
            }
            tail = cur;
            cur = self.nodes[cur as usize].next_sibling;
        }
        let id = NodeId(self.nodes.len() as u32);
        let depth = self.nodes[pidx].depth + 1;
        self.nodes
            .push(Node::new(token, Some(parent), path_prob, depth));
        if tail == NONE {
            self.nodes[pidx].first_child = id.0;
        } else {
            self.nodes[tail as usize].next_sibling = id.0;
        }
        Ok(id)
    }

    /// Token at `node`.
    pub fn token(&self, node: NodeId) -> TokenId {
        self.nodes[node.0 as usize].token
    }

    /// Parent of `node` (`None` for the root).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node.0 as usize].parent
    }

    /// Children of `node`, in insertion order.
    pub fn children(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut cur = self.nodes[node.0 as usize].first_child;
        std::iter::from_fn(move || {
            if cur == NONE {
                return None;
            }
            let id = NodeId(cur);
            cur = self.nodes[cur as usize].next_sibling;
            Some(id)
        })
    }

    /// Number of children of `node`.
    pub fn num_children(&self, node: NodeId) -> usize {
        self.children(node).count()
    }

    /// Approximated path probability of `node`.
    pub fn path_prob(&self, node: NodeId) -> f64 {
        self.nodes[node.0 as usize].path_prob
    }

    /// Depth of `node` (root = 0).
    pub fn depth(&self, node: NodeId) -> u32 {
        self.nodes[node.0 as usize].depth
    }

    /// Maximum node depth (0 for a root-only tree).
    pub fn max_depth(&self) -> u32 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// All node ids in insertion order (root first).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Non-root node ids sorted by descending path probability.
    ///
    /// Ties break by insertion order, keeping selection deterministic.
    pub fn speculated_by_prob_desc(&self) -> Vec<NodeId> {
        let mut ids = Vec::new();
        self.speculated_by_prob_desc_into(&mut ids);
        ids
    }

    /// Scratch-buffer variant of [`TokenTree::speculated_by_prob_desc`]:
    /// fills `out` (cleared first) instead of allocating. The sort is
    /// unstable but the comparator is a total order over distinct
    /// `(prob, id)` keys, so the result is identical to the stable sort.
    pub fn speculated_by_prob_desc_into(&self, out: &mut Vec<NodeId>) {
        out.clear();
        // Room for as many nodes as this arena holds, so a pooled buffer
        // fed pooled trees of varying size grows once rather than with
        // each larger tree.
        out.reserve(self.nodes.capacity().saturating_sub(1));
        out.extend((1..self.nodes.len() as u32).map(NodeId));
        out.sort_unstable_by(|a, b| {
            let pa = self.nodes[a.0 as usize].path_prob;
            let pb = self.nodes[b.0 as usize].path_prob;
            pb.partial_cmp(&pa)
                .expect("finite probs")
                .then_with(|| a.0.cmp(&b.0))
        });
    }

    /// The token sequence along the path from (excluding) the root to `node`.
    pub fn path_tokens(&self, node: NodeId) -> Vec<TokenId> {
        let mut out = Vec::new();
        self.path_tokens_into(node, &mut out);
        out
    }

    /// Scratch-buffer variant of [`TokenTree::path_tokens`]: fills `out`
    /// (cleared first) instead of allocating — the speculation and
    /// verification loops call this once per evaluated node.
    pub fn path_tokens_into(&self, node: NodeId, out: &mut Vec<TokenId>) {
        out.clear();
        let mut cur = node;
        while let Some(p) = self.nodes[cur.0 as usize].parent {
            out.push(self.nodes[cur.0 as usize].token);
            cur = p;
        }
        out.reverse();
    }

    /// Expected number of accepted tokens if this tree were verified:
    /// `Σ_{v ∈ T, v ≠ root} f(v)` (paper Theorem 3.1).
    pub fn expected_accepted(&self) -> f64 {
        self.nodes.iter().skip(1).map(|n| n.path_prob).sum()
    }

    /// Arena capacity in nodes (allocation-discipline probe for pooled
    /// trees: flat after warm-up means [`TokenTree::reset`] reuse works).
    pub fn arena_capacity(&self) -> usize {
        self.nodes.capacity()
    }

    /// Builds the subtree induced by `keep` (which must include connected
    /// nodes only; the root is always added).
    ///
    /// Node ids are remapped; the relative order of kept nodes is preserved.
    /// Returns an error if `keep` references a node whose parent is neither
    /// the root nor also kept.
    pub fn induced_subtree(&self, keep: &[NodeId]) -> Result<TokenTree, TreeError> {
        let mut out = TokenTree::new(self.nodes[0].token);
        self.induced_subtree_into(keep, &mut out, &mut SubtreeScratch::default())?;
        Ok(out)
    }

    /// Pooled variant of [`TokenTree::induced_subtree`]: rebuilds `out`
    /// in place (resetting it to this tree's root first), with all
    /// transient buffers drawn from `scratch` — no allocations once warm.
    ///
    /// Node ids are dense `u32`s, so the remap is a flat
    /// `Vec<Option<NodeId>>` indexed by source id — no hashing. On error
    /// (`keep` disconnected from the kept set) `out` holds the partial
    /// subtree built so far and must not be used.
    pub fn induced_subtree_into(
        &self,
        keep: &[NodeId],
        out: &mut TokenTree,
        scratch: &mut SubtreeScratch,
    ) -> Result<(), TreeError> {
        scratch.sorted.clear();
        scratch.sorted.extend_from_slice(keep);
        scratch.sorted.sort_unstable();
        scratch.sorted.dedup();
        out.reset(self.nodes[0].token);
        // Dense remap: source id -> destination id (root maps to root),
        // with room for as many nodes as this arena holds (see
        // `speculated_by_prob_desc_into`).
        scratch.remap.clear();
        scratch.remap.reserve(self.nodes.capacity());
        scratch.remap.resize(self.nodes.len(), None);
        scratch.remap[ROOT.0 as usize] = Some(ROOT);
        for &id in &scratch.sorted {
            if id == ROOT {
                continue;
            }
            let node = &self.nodes[id.0 as usize];
            let parent = node.parent.expect("non-root has parent");
            let new_parent =
                scratch.remap[parent.0 as usize].ok_or(TreeError::MissingParent(parent))?;
            let new_id = out.add_child(new_parent, node.token, node.path_prob)?;
            scratch.remap[id.0 as usize] = Some(new_id);
        }
        Ok(())
    }

    /// Checks every structural invariant; returns a description on failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("tree has no root".into());
        }
        if self.nodes[0].parent.is_some() || self.nodes[0].path_prob != 1.0 {
            return Err("malformed root".into());
        }
        for (i, n) in self.nodes.iter().enumerate().skip(1) {
            let p = match n.parent {
                Some(p) if (p.0 as usize) < i => p,
                Some(_) => return Err(format!("node {i} references a later parent")),
                None => return Err(format!("non-root node {i} has no parent")),
            };
            let pn = &self.nodes[p.0 as usize];
            if n.path_prob >= pn.path_prob {
                return Err(format!(
                    "node {i} prob {} !< parent {}",
                    n.path_prob, pn.path_prob
                ));
            }
            if n.depth != pn.depth + 1 {
                return Err(format!("node {i} depth mismatch"));
            }
            if !self.children(p).any(|c| c == NodeId(i as u32)) {
                return Err(format!("node {i} missing from parent's child list"));
            }
        }
        // Sibling tokens distinct.
        for id in self.node_ids() {
            let mut seen = std::collections::HashSet::new();
            for c in self.children(id) {
                if !seen.insert(self.nodes[c.0 as usize].token) {
                    return Err(format!("node {} has duplicate child tokens", id.0));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u32) -> TokenId {
        TokenId(id)
    }

    fn children_vec(tree: &TokenTree, node: NodeId) -> Vec<NodeId> {
        tree.children(node).collect()
    }

    #[test]
    fn new_tree_is_root_only() {
        let tree = TokenTree::new(t(5));
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.num_speculated(), 0);
        assert_eq!(tree.token(ROOT), t(5));
        assert_eq!(tree.path_prob(ROOT), 1.0);
        assert!(tree.validate().is_ok());
    }

    #[test]
    fn add_child_links_and_orders() {
        let mut tree = TokenTree::new(t(0));
        let a = tree.add_child(ROOT, t(1), 0.7).unwrap();
        let b = tree.add_child(ROOT, t(2), 0.2).unwrap();
        let c = tree.add_child(a, t(3), 0.42).unwrap();
        assert_eq!(children_vec(&tree, ROOT), vec![a, b]);
        assert_eq!(tree.parent(c), Some(a));
        assert_eq!(tree.depth(c), 2);
        assert_eq!(tree.max_depth(), 2);
        assert_eq!(tree.num_children(ROOT), 2);
        assert!(tree.validate().is_ok());
    }

    #[test]
    fn sibling_order_is_insertion_order() {
        // Verification tries siblings in draft order: the intrusive links
        // must preserve insertion order exactly.
        let mut tree = TokenTree::new(t(0));
        let ids: Vec<NodeId> = (1..=4)
            .map(|k| {
                tree.add_child(ROOT, t(k), 0.9 - 0.1 * f64::from(k))
                    .unwrap()
            })
            .collect();
        assert_eq!(children_vec(&tree, ROOT), ids);
    }

    #[test]
    fn reset_reuses_the_arena() {
        let mut tree = TokenTree::new(t(0));
        let a = tree.add_child(ROOT, t(1), 0.7).unwrap();
        tree.add_child(a, t(2), 0.3).unwrap();
        let cap = {
            tree.reset(t(9));
            tree.nodes.capacity()
        };
        assert!(cap >= 3, "capacity survives reset");
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.token(ROOT), t(9));
        assert!(tree.validate().is_ok());
        // The reset tree behaves like a fresh one.
        let a2 = tree.add_child(ROOT, t(4), 0.5).unwrap();
        assert_eq!(children_vec(&tree, ROOT), vec![a2]);
    }

    #[test]
    fn prob_must_strictly_decrease() {
        let mut tree = TokenTree::new(t(0));
        let a = tree.add_child(ROOT, t(1), 0.7).unwrap();
        assert_eq!(
            tree.add_child(a, t(2), 0.7),
            Err(TreeError::ProbNotDecreasing)
        );
        assert_eq!(
            tree.add_child(a, t(2), 0.9),
            Err(TreeError::ProbNotDecreasing)
        );
        assert!(tree.add_child(a, t(2), 0.69).is_ok());
    }

    #[test]
    fn duplicate_sibling_tokens_rejected() {
        let mut tree = TokenTree::new(t(0));
        tree.add_child(ROOT, t(1), 0.7).unwrap();
        assert_eq!(
            tree.add_child(ROOT, t(1), 0.2),
            Err(TreeError::DuplicateEdge(t(1)))
        );
    }

    #[test]
    fn missing_parent_rejected() {
        let mut tree = TokenTree::new(t(0));
        assert_eq!(
            tree.add_child(NodeId(9), t(1), 0.5),
            Err(TreeError::MissingParent(NodeId(9)))
        );
    }

    #[test]
    fn path_tokens_walk_from_root() {
        let mut tree = TokenTree::new(t(0));
        let a = tree.add_child(ROOT, t(1), 0.7).unwrap();
        let c = tree.add_child(a, t(3), 0.42).unwrap();
        assert_eq!(tree.path_tokens(c), vec![t(1), t(3)]);
        assert_eq!(tree.path_tokens(ROOT), Vec::<TokenId>::new());
        // The scratch variant clears stale contents.
        let mut buf = vec![t(99); 8];
        tree.path_tokens_into(c, &mut buf);
        assert_eq!(buf, vec![t(1), t(3)]);
    }

    #[test]
    fn expected_accepted_sums_speculated_probs() {
        let mut tree = TokenTree::new(t(0));
        let a = tree.add_child(ROOT, t(1), 0.7).unwrap();
        tree.add_child(ROOT, t(2), 0.2).unwrap();
        tree.add_child(a, t(3), 0.42).unwrap();
        assert!((tree.expected_accepted() - 1.32).abs() < 1e-12);
    }

    #[test]
    fn sorted_order_is_descending_with_stable_ties() {
        let mut tree = TokenTree::new(t(0));
        let a = tree.add_child(ROOT, t(1), 0.5).unwrap();
        let b = tree.add_child(ROOT, t(2), 0.5).unwrap();
        let c = tree.add_child(a, t(3), 0.4).unwrap();
        assert_eq!(tree.speculated_by_prob_desc(), vec![a, b, c]);
    }

    #[test]
    fn induced_subtree_remaps_and_validates() {
        let mut tree = TokenTree::new(t(0));
        let a = tree.add_child(ROOT, t(1), 0.7).unwrap();
        let b = tree.add_child(ROOT, t(2), 0.2).unwrap();
        let c = tree.add_child(a, t(3), 0.42).unwrap();
        let sub = tree.induced_subtree(&[a, c]).unwrap();
        assert_eq!(sub.len(), 3);
        assert!(sub.validate().is_ok());
        assert_eq!(sub.max_depth(), 2);
        let _ = b;
    }

    #[test]
    fn induced_subtree_rejects_disconnected_selection() {
        let mut tree = TokenTree::new(t(0));
        let a = tree.add_child(ROOT, t(1), 0.7).unwrap();
        let c = tree.add_child(a, t(3), 0.42).unwrap();
        assert_eq!(
            tree.induced_subtree(&[c]).unwrap_err(),
            TreeError::MissingParent(a),
            "dense remap keeps the MissingParent error"
        );
    }

    #[test]
    fn induced_subtree_into_reuses_the_output_tree() {
        let mut tree = TokenTree::new(t(0));
        let a = tree.add_child(ROOT, t(1), 0.7).unwrap();
        let c = tree.add_child(a, t(3), 0.42).unwrap();
        let mut out = TokenTree::new(t(77));
        out.add_child(ROOT, t(78), 0.9).unwrap(); // stale contents
        let mut scratch = SubtreeScratch::default();
        tree.induced_subtree_into(&[a, c], &mut out, &mut scratch)
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.token(ROOT), t(0));
        assert!(out.validate().is_ok());
        assert_eq!(out.path_tokens(NodeId(2)), vec![t(1), t(3)]);
    }

    #[test]
    fn descending_prob_selection_is_always_connected() {
        // The Appendix B property: any prefix of the descending-prob order
        // induces a valid subtree.
        let mut tree = TokenTree::new(t(0));
        let a = tree.add_child(ROOT, t(1), 0.7).unwrap();
        let b = tree.add_child(ROOT, t(2), 0.25).unwrap();
        let c = tree.add_child(a, t(3), 0.4).unwrap();
        tree.add_child(b, t(4), 0.1).unwrap();
        tree.add_child(c, t(5), 0.3).unwrap();
        let order = tree.speculated_by_prob_desc();
        for k in 0..=order.len() {
            assert!(
                tree.induced_subtree(&order[..k]).is_ok(),
                "prefix {k} disconnected"
            );
        }
    }
}
