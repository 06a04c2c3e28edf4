//! Beam-search construction of candidate token trees (paper §4.3, step 1).
//!
//! The speculation phase runs the draft model for `d` parallel decoding steps
//! with beam width `w`, producing a candidate tree per request. Theorem 4.1
//! guarantees that a beam of width `B` (the token budget) and depth `D_opt`
//! covers the optimal draft tree; in practice AdaServe tunes `(d, w)` to much
//! smaller values via adaptive control, trading coverage for speculation
//! cost.
//!
//! Candidate-tree layout mirrors the paper: the first layer holds the top-`w`
//! children of the root, and every subsequent layer holds the global top-`w`
//! among all expansions of the previous layer's beam (classic beam search on
//! approximated path probabilities, ties broken by parent then token). Nodes
//! are numbered layer by layer, each layer in that rank order, so layers are
//! stored as dense id *ranges* rather than per-layer `Vec`s.
//!
//! # Best-first construction
//!
//! The tree is not built layer by layer but best-first: one max-heap holds
//! every open candidate, keyed by (path prob, layer, parent's rank in its
//! layer, token), and a per-layer count records the nodes placed so far.
//! Popping in key order and placing a candidate only while its layer holds
//! fewer than `w` nodes yields exactly the layer-by-layer beam, because a
//! child's path prob never exceeds its parent's: every candidate that ranks
//! above a layer's `w`-th node has a parent that was popped, placed and
//! expanded before it. Expansion is lazy as well — placing a node pushes
//! one marker keyed by the node's own prob (an upper bound on its
//! children's), and only popping that marker calls the draft model. A
//! marker whose children's layer is already full is dropped without a
//! lookup, since none of those children could enter the beam.
//!
//! Nodes leave the heap in descending path-prob order (ties in node-id
//! order), the same order Algorithm 2 reads a candidate tree in. A
//! [`BeamStop`] rule `{keep, floor}` uses that: once `keep` nodes are placed
//! and the best open candidate lies below `floor`, every unbuilt node of the
//! full beam lies below `floor` too and comes after all placed ones, so the
//! search ends. The placed nodes are then exactly the full beam's first
//! nodes in selection order — the *selectable prefix* — renumbered in
//! (layer, rank) order, which preserves the full tree's relative node
//! order, sibling order and bit-identical path probabilities.
//! [`BeamStop::NEVER`] builds the whole beam.
//!
//! The stop rule is a host-side saving only: the simulated draft cost is
//! priced from `(n, d, w)`, i.e. the modelled GPU still runs the whole beam;
//! the simulator just skips computing nodes that selection never reads.
//!
//! The construction is allocation-free at steady state: all transient
//! buffers live in a caller-owned [`SpeculateScratch`] (an engine keeps one
//! inside a [`CandidatePool`] with its pooled trees), and draft
//! distributions arrive through [`simllm::Lm::top_w_extended`].

use crate::tree::{NodeId, TokenTree};
use simllm::{Lm, LmContext, TokenId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Speculation parameters: tree depth and beam width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecParams {
    /// Number of draft decoding steps (candidate-tree depth).
    pub depth: u32,
    /// Beam width per step.
    pub width: u32,
}

impl SpecParams {
    /// Creates parameters, validating both are at least 1.
    pub fn new(depth: u32, width: u32) -> Self {
        assert!(depth >= 1 && width >= 1, "depth and width must be >= 1");
        Self { depth, width }
    }

    /// Upper bound on candidate-tree size (excluding the root).
    pub fn max_nodes(&self) -> u32 {
        self.depth * self.width
    }
}

/// When best-first construction may end before the full beam is built
/// (see the [module docs](crate::candidate)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeamStop {
    /// Nodes always placed (if the full beam has that many).
    pub keep: usize,
    /// Past `keep` placed nodes, the search ends at the first candidate
    /// whose path prob is below this.
    pub floor: f64,
}

impl BeamStop {
    /// Never stops early: builds the full beam.
    pub const NEVER: Self = Self {
        keep: usize::MAX,
        floor: 0.0,
    };
}

/// Sentinel parent index for children of the root.
const ROOT_PARENT: u32 = u32::MAX;

/// One open heap entry: a candidate node (`token` set) or the pending
/// expansion of a placed node (`token` = `None`), whose key bounds every
/// child's from above.
#[derive(Debug, Clone, Copy)]
struct Open {
    /// Candidate path prob (unclamped); for an expansion, the node's prob.
    prob: f64,
    /// Layer the candidate (or the expanded node's children) would join.
    layer: u32,
    /// Rank of the parent (the expanded node) within its own layer.
    parent_rank: u32,
    /// Index of the parent (the expanded node) in `placed`.
    parent: u32,
    /// Candidate token; `None` orders an expansion before its children.
    token: Option<TokenId>,
}

impl Ord for Open {
    /// Max-heap order: higher prob, then shallower layer, then lower
    /// parent rank, then expansion before candidates, then lower token.
    /// `parent` is determined by `(layer, parent_rank)`, so it is left out.
    fn cmp(&self, other: &Self) -> Ordering {
        self.prob
            .total_cmp(&other.prob)
            .then_with(|| other.layer.cmp(&self.layer))
            .then_with(|| other.parent_rank.cmp(&self.parent_rank))
            .then_with(|| other.token.cmp(&self.token))
    }
}

impl PartialOrd for Open {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Open {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Open {}

/// A node placed by the search, in pop order.
#[derive(Debug, Clone, Copy)]
struct Placed {
    layer: u32,
    /// Rank within its layer (pop order = rank order).
    rank: u32,
    /// Index of the parent in `placed` ([`ROOT_PARENT`] for the root)
    /// during the search; the parent's node id once nodes are numbered.
    parent: u32,
    token: TokenId,
    /// Stored (clamped) path prob.
    prob: f64,
}

/// Reusable buffers for [`CandidateTree::speculate_with`].
///
/// One scratch per engine turns beam search's per-call allocations (open
/// heap, placed nodes, path buffer, extended-context buffer) into buffer
/// reuse; [`SpeculateScratch::grow_events`] counts how often any buffer
/// actually had to grow, which drops to zero once the engine warms up.
#[derive(Debug, Default)]
pub struct SpeculateScratch {
    /// Open candidates and pending expansions.
    open: BinaryHeap<Open>,
    /// Nodes placed so far, in pop order.
    placed: Vec<Placed>,
    /// Placed nodes per layer.
    layer_len: Vec<u32>,
    /// Path-token buffer of the node being expanded.
    path: Vec<TokenId>,
    /// Extended-context buffer for `top_w_extended`.
    ext: Vec<TokenId>,
    /// Top-`w` head entries of one draft distribution.
    topw: Vec<(TokenId, f64)>,
    /// Cumulative buffer-growth events (see [`SpeculateScratch::grow_events`]).
    grow_events: u64,
}

impl SpeculateScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// How often any internal buffer had to grow its allocation. A warmed
    /// engine should see this stay flat across iterations — the signal
    /// the hot loop is allocation-free at steady state.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    fn note_capacity(&mut self, before: usize) {
        if self.capacity_sum() > before {
            self.grow_events += 1;
        }
    }

    fn capacity_sum(&self) -> usize {
        self.open.capacity()
            + self.placed.capacity()
            + self.layer_len.capacity()
            + self.path.capacity()
            + self.ext.capacity()
            + self.topw.capacity()
    }

    /// Fills `path` with the tokens from the root to placed node `node`.
    fn path_to(&mut self, mut node: u32) {
        self.path.clear();
        while node != ROOT_PARENT {
            let p = &self.placed[node as usize];
            self.path.push(p.token);
            node = p.parent;
        }
        self.path.reverse();
    }
}

/// A candidate token tree produced by the speculation phase.
#[derive(Debug, Clone)]
pub struct CandidateTree {
    tree: TokenTree,
    /// Beam layers as node-id ranges (layer nodes are numbered
    /// consecutively); layer 0 = children of the root.
    layers: Vec<Range<u32>>,
}

impl AsRef<TokenTree> for CandidateTree {
    fn as_ref(&self) -> &TokenTree {
        &self.tree
    }
}

impl CandidateTree {
    /// An empty (root-only) candidate tree, for pooling with
    /// [`CandidateTree::speculate_with`].
    pub fn empty() -> Self {
        Self {
            tree: TokenTree::new(TokenId(0)),
            layers: Vec::new(),
        }
    }

    /// Runs `params.depth` beam-search steps of the draft model `lm` and
    /// returns the full beam.
    ///
    /// `ctx` must end at the request's last generated token, which becomes
    /// the candidate tree's root.
    pub fn speculate(lm: &dyn Lm, ctx: &LmContext<'_>, params: SpecParams) -> Self {
        let mut out = Self::empty();
        let mut scratch = SpeculateScratch::new();
        out.speculate_with(lm, ctx, params, BeamStop::NEVER, &mut scratch);
        out
    }

    /// Pooled, stoppable variant of [`CandidateTree::speculate`]: rebuilds
    /// `self` in place as the prefix of the beam that `stop` leaves (the
    /// full beam for [`BeamStop::NEVER`]), reusing the tree arena, the
    /// layer list and the caller's [`SpeculateScratch`] — zero allocations
    /// once all buffers are warm.
    pub fn speculate_with(
        &mut self,
        lm: &dyn Lm,
        ctx: &LmContext<'_>,
        params: SpecParams,
        stop: BeamStop,
        scratch: &mut SpeculateScratch,
    ) {
        let root_token = *ctx.tokens.last().expect("context must not be empty");
        let cap_before = scratch.capacity_sum();
        let w = params.width;
        // Size every buffer for the full beam up front, so each grows at
        // most once per larger `(d, w)` however much of the beam is built:
        // at most `d·w` nodes, each expansion opens `w` candidates and
        // each placed node one expansion; paths are shorter than `d`.
        let (depth, max_nodes) = (params.depth as usize, params.max_nodes() as usize);
        scratch.open.clear();
        scratch.open.reserve((max_nodes + 1) * (w as usize + 1));
        scratch.placed.clear();
        scratch.placed.reserve(max_nodes);
        scratch.path.clear();
        scratch.path.reserve(depth);
        scratch.ext.clear();
        scratch.ext.reserve(LmContext::MARKOV_ORDER + depth);
        scratch.topw.clear();
        scratch.topw.reserve(w as usize);
        scratch.layer_len.clear();
        scratch.layer_len.resize(depth, 0);

        // Best-first search; the root's expansion opens layer 0.
        scratch.open.push(Open {
            prob: 1.0,
            layer: 0,
            parent_rank: 0,
            parent: ROOT_PARENT,
            token: None,
        });
        while let Some(top) = scratch.open.pop() {
            let layer = top.layer as usize;
            if scratch.layer_len[layer] == w {
                continue; // Outside the beam, and so is everything below it.
            }
            if scratch.placed.len() >= stop.keep && top.prob < stop.floor {
                break; // Nothing left that selection would read.
            }
            let Some(token) = top.token else {
                // Expand a placed node (or the root): open its top-w children.
                scratch.path_to(top.parent);
                lm.top_w_extended(
                    ctx,
                    &scratch.path,
                    w as usize,
                    &mut scratch.ext,
                    &mut scratch.topw,
                );
                for &(token, p) in &scratch.topw {
                    scratch.open.push(Open {
                        prob: top.prob * p,
                        token: Some(token),
                        ..top
                    });
                }
                continue;
            };
            // Path probs strictly decrease because edge probs are < 1;
            // guard against degenerate prob-1 edges with a tiny epsilon.
            let parent_prob = match top.parent {
                ROOT_PARENT => 1.0,
                parent => scratch.placed[parent as usize].prob,
            };
            let prob = top.prob.min(parent_prob * (1.0 - 1e-12));
            let rank = scratch.layer_len[layer];
            scratch.layer_len[layer] += 1;
            scratch.placed.push(Placed {
                layer: top.layer,
                rank,
                parent: top.parent,
                token,
                prob,
            });
            if layer + 1 < scratch.layer_len.len() {
                scratch.open.push(Open {
                    prob,
                    layer: top.layer + 1,
                    parent_rank: rank,
                    parent: scratch.placed.len() as u32 - 1,
                    token: None,
                });
            }
        }

        // Number the placed nodes layer by layer, each layer in rank order,
        // and insert them in id order.
        self.layers.clear();
        self.layers.reserve(depth);
        let mut next = 1;
        for &len in scratch.layer_len.iter().take_while(|&&len| len > 0) {
            self.layers.push(next..next + len);
            next += len;
        }
        for i in 0..scratch.placed.len() {
            // Rewrites `parent` from an index in `placed` to a node id; the
            // lookup reads only the parent's `layer` and `rank`.
            let parent = scratch.placed[i].parent;
            scratch.placed[i].parent = match parent {
                ROOT_PARENT => 0,
                parent => {
                    let q = scratch.placed[parent as usize];
                    self.layers[q.layer as usize].start + q.rank
                }
            };
        }
        scratch.placed.sort_unstable_by_key(|p| (p.layer, p.rank));
        self.tree.reset(root_token);
        self.tree.reserve(max_nodes);
        for p in &scratch.placed {
            self.tree
                .add_child(NodeId(p.parent), p.token, p.prob)
                .expect("beam expansion preserves tree invariants");
        }
        scratch.note_capacity(cap_before);
    }

    /// The underlying token tree (root + all candidate nodes).
    pub fn tree(&self) -> &TokenTree {
        &self.tree
    }

    /// Consumes self, returning the token tree.
    pub fn into_tree(self) -> TokenTree {
        self.tree
    }

    /// Beam node-id ranges per layer (layer nodes are dense).
    pub fn layers(&self) -> &[Range<u32>] {
        &self.layers
    }

    /// The node ids of layer `k` (0 = children of the root).
    pub fn layer_nodes(&self, k: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.layers[k].clone().map(NodeId)
    }

    /// Achieved depth (may be below the requested depth if beams emptied).
    pub fn depth(&self) -> u32 {
        self.layers.len() as u32
    }
}

/// Pooled candidate trees plus one [`SpeculateScratch`]: an engine keeps
/// one pool and rebuilds its per-request trees in place every iteration,
/// allocating nothing once warm.
#[derive(Debug, Default)]
pub struct CandidatePool {
    trees: Vec<CandidateTree>,
    /// Trees built by the last [`CandidatePool::speculate`] call.
    len: usize,
    scratch: SpeculateScratch,
}

impl CandidatePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds one tree per context with [`CandidateTree::speculate_with`];
    /// returns them in context order.
    pub fn speculate<'a>(
        &mut self,
        lm: &dyn Lm,
        contexts: impl IntoIterator<Item = LmContext<'a>>,
        params: SpecParams,
        stop: BeamStop,
    ) -> &[CandidateTree] {
        self.len = 0;
        for ctx in contexts {
            if self.len == self.trees.len() {
                self.trees.push(CandidateTree::empty());
            }
            self.trees[self.len].speculate_with(lm, &ctx, params, stop, &mut self.scratch);
            self.len += 1;
        }
        self.trees()
    }

    /// The trees of the last [`CandidatePool::speculate`] call.
    pub fn trees(&self) -> &[CandidateTree] {
        &self.trees[..self.len]
    }

    /// Allocated capacity of the pooled trees (allocation-discipline
    /// probe; the scratch reports its own growth through
    /// [`CandidatePool::scratch_grow_events`]).
    pub fn trees_capacity_sum(&self) -> usize {
        self.trees.capacity()
            + self
                .trees
                .iter()
                .map(|t| t.tree.arena_capacity() + t.layers.capacity())
                .sum::<usize>()
    }

    /// [`SpeculateScratch::grow_events`] of the pool's scratch.
    pub fn scratch_grow_events(&self) -> u64 {
        self.scratch.grow_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simllm::{ContentClass, ModelPair};

    fn ctx_tokens() -> Vec<TokenId> {
        vec![TokenId(11), TokenId(22), TokenId(33)]
    }

    fn speculate(depth: u32, width: u32) -> CandidateTree {
        let pair = ModelPair::calibrated(5);
        let tokens = ctx_tokens();
        let ctx = LmContext::new(9, ContentClass::Chat, &tokens);
        CandidateTree::speculate(pair.draft(), &ctx, SpecParams::new(depth, width))
    }

    #[test]
    fn tree_shape_matches_beam_parameters() {
        let cand = speculate(3, 2);
        assert_eq!(cand.depth(), 3);
        assert_eq!(cand.tree().num_speculated(), 6);
        for layer in cand.layers() {
            assert_eq!(layer.len(), 2);
        }
        cand.tree().validate().expect("valid candidate tree");
    }

    #[test]
    fn first_layer_children_of_root() {
        let cand = speculate(2, 3);
        for id in cand.layer_nodes(0) {
            assert_eq!(cand.tree().parent(id), Some(cand.tree().root()));
        }
    }

    #[test]
    fn layer_probs_are_monotone_decreasing_across_depth() {
        let cand = speculate(4, 2);
        let best_per_layer: Vec<f64> = (0..cand.layers().len())
            .map(|k| {
                cand.layer_nodes(k)
                    .map(|id| cand.tree().path_prob(id))
                    .fold(f64::MIN, f64::max)
            })
            .collect();
        for w in best_per_layer.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "layer probs increased: {w:?}");
        }
    }

    /// (token path, path-prob bits) of every speculated node, in the
    /// descending-prob order selection reads a tree in.
    fn selection_order(tree: &TokenTree) -> Vec<(Vec<TokenId>, u64)> {
        tree.speculated_by_prob_desc()
            .into_iter()
            .map(|id| (tree.path_tokens(id), tree.path_prob(id).to_bits()))
            .collect()
    }

    #[test]
    fn stopped_build_is_a_prefix_of_the_full_beam_in_selection_order() {
        let pair = ModelPair::calibrated(5);
        let tokens = ctx_tokens();
        let ctx = LmContext::new(9, ContentClass::Chat, &tokens);
        let params = SpecParams::new(6, 4);
        let full = selection_order(CandidateTree::speculate(pair.draft(), &ctx, params).tree());
        let mut scratch = SpeculateScratch::new();
        let mut cand = CandidateTree::empty();
        for keep in [0, 1, 3, 8, 30] {
            for floor in [0.0, 0.05, 0.3, 1.1] {
                let stop = BeamStop { keep, floor };
                cand.speculate_with(pair.draft(), &ctx, params, stop, &mut scratch);
                cand.tree().validate().expect("valid prefix tree");
                let prefix = selection_order(cand.tree());
                assert_eq!(
                    prefix[..],
                    full[..prefix.len()],
                    "keep {keep}, floor {floor}"
                );
                // At least `keep` nodes, then every node at or above the floor.
                let want = (keep..full.len())
                    .find(|&i| f64::from_bits(full[i].1) < floor)
                    .unwrap_or(full.len());
                assert_eq!(prefix.len(), want, "keep {keep}, floor {floor}");
            }
        }
    }

    #[test]
    fn wider_beams_cover_no_less_probability_mass() {
        let narrow = speculate(3, 1);
        let wide = speculate(3, 4);
        assert!(wide.tree().expected_accepted() >= narrow.tree().expected_accepted());
    }

    #[test]
    fn determinism() {
        let a = speculate(3, 2);
        let b = speculate(3, 2);
        let ids_a: Vec<_> = a.tree().node_ids().map(|i| a.tree().token(i)).collect();
        let ids_b: Vec<_> = b.tree().node_ids().map(|i| b.tree().token(i)).collect();
        assert_eq!(ids_a, ids_b);
    }

    #[test]
    fn pooled_speculation_matches_fresh_and_reuses_buffers() {
        let pair = ModelPair::calibrated(5);
        let tokens = ctx_tokens();
        let ctx = LmContext::new(9, ContentClass::Chat, &tokens);
        let params = SpecParams::new(4, 3);
        let fresh = CandidateTree::speculate(pair.draft(), &ctx, params);

        let mut pooled = CandidateTree::empty();
        let mut scratch = SpeculateScratch::new();
        // Warm the pool on a different context first, then rebuild.
        let warm_tokens = vec![TokenId(1), TokenId(2)];
        let warm_ctx = LmContext::new(3, ContentClass::News, &warm_tokens);
        pooled.speculate_with(
            pair.draft(),
            &warm_ctx,
            params,
            BeamStop::NEVER,
            &mut scratch,
        );
        let grown = scratch.grow_events();
        pooled.speculate_with(pair.draft(), &ctx, params, BeamStop::NEVER, &mut scratch);

        let fresh_nodes: Vec<_> = fresh
            .tree()
            .node_ids()
            .map(|i| (fresh.tree().token(i), fresh.tree().path_prob(i)))
            .collect();
        let pooled_nodes: Vec<_> = pooled
            .tree()
            .node_ids()
            .map(|i| (pooled.tree().token(i), pooled.tree().path_prob(i)))
            .collect();
        assert_eq!(fresh_nodes, pooled_nodes, "pooled rebuild is identical");
        assert_eq!(fresh.layers(), pooled.layers());
        assert_eq!(
            scratch.grow_events(),
            grown,
            "no buffer growth once the scratch is warm"
        );
    }
}
