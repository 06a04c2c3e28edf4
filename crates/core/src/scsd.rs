//! Algorithm 2: SLO-customized + throughput-optimized token selection
//! (paper §4.3, steps 2–3).
//!
//! Given each request's beam-search candidate tree (step 1) and its capped
//! requirement `A_cap(r)`, selection proceeds in two phases:
//!
//! * **SLO-customized** — requests are processed in *descending* requirement
//!   order (slower requests first); each greedily takes its highest-
//!   probability candidate nodes until the cumulative approximated
//!   acceptance (starting at 1.0 for the root/bonus token) reaches
//!   `A_cap(r)`, a per-request cap `n_max` is hit, or the budget runs out.
//! * **Throughput-optimized** — remaining budget goes to the globally
//!   highest-probability unselected candidates across all requests.
//!
//! Selections are per-tree prefixes of the descending-probability order, so
//! they are always connected (Appendix B) — enforced here by construction
//! and checked in tests. Because selection never reads past a known prefix
//! of that order, speculation only needs to build that prefix
//! ([`selectable_prefix`]).

use spectree::{BeamStop, NodeId, TokenTree};
use std::collections::BinaryHeap;

/// Input to one selection round.
///
/// `T` is anything that views as a [`TokenTree`]: plain `&TokenTree`s, or
/// the engine's pooled [`spectree::CandidateTree`]s without an
/// intermediate vector of references.
#[derive(Debug)]
pub struct ScsdInput<'a, T = &'a TokenTree> {
    /// Per-request candidate trees (roots excluded from budget accounting).
    pub candidates: &'a [T],
    /// Per-request capped requirements `A_cap(r_i)`.
    pub requirements: &'a [f64],
    /// Total speculated-token budget across requests (excluding roots).
    pub budget: u64,
    /// Per-request cap on tokens taken during the SLO-customized phase,
    /// preventing low-probability nodes from monopolizing the budget.
    pub n_max: usize,
    /// Marginal-utility cutoff for the throughput-optimized phase: nodes
    /// whose approximated path probability falls below this are not worth
    /// their verification latency and are left unselected even when budget
    /// remains. The SLO-customized phase ignores the cutoff (SLO pressure
    /// justifies low-probability tokens). Set to 0.0 to fill the budget
    /// unconditionally (the literal Algorithm 2).
    pub min_phase2_prob: f64,
}

/// Output of one selection round.
#[derive(Debug, Clone, PartialEq)]
pub struct ScsdOutput {
    /// Selected candidate-tree node ids per request (connected by
    /// construction; pass to [`TokenTree::induced_subtree`]).
    pub selections: Vec<Vec<NodeId>>,
    /// Per-request cumulative acceptance estimate (1.0 + Σ selected probs).
    pub estimated_accept: Vec<f64>,
    /// Whether each request's `A_cap` was reached during the SLO phase.
    pub slo_satisfied: Vec<bool>,
    /// Budget left after both phases.
    pub budget_left: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct GlobalEntry {
    prob: f64,
    req: usize,
    rank: usize,
}

impl Eq for GlobalEntry {}

impl Ord for GlobalEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.prob
            .total_cmp(&other.prob)
            .then_with(|| other.req.cmp(&self.req))
            .then_with(|| other.rank.cmp(&self.rank))
    }
}

impl PartialOrd for GlobalEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable buffers for [`select_tokens_with`].
///
/// One scratch per engine turns the per-iteration selection allocations
/// (candidate orders, per-request counters, the phase-2 heap) into buffer
/// reuse. After a call, the scratch exposes the per-request selections as
/// prefixes of [`ScsdScratch::ordered`] of length [`ScsdScratch::taken`]
/// — callers that only need to *apply* a selection (e.g. via
/// `TokenTree::induced_subtree_into`) can read them without materializing
/// the `ScsdOutput` vectors.
#[derive(Debug, Default)]
pub struct ScsdScratch {
    /// Per-request descending-probability candidate order; the selection
    /// for request `i` is `ordered[i][..taken[i]]` (always a connected
    /// prefix).
    pub ordered: Vec<Vec<NodeId>>,
    /// Selected prefix length per request.
    pub taken: Vec<usize>,
    /// Cumulative acceptance estimate per request (root counts 1.0).
    pub estimated: Vec<f64>,
    /// Whether each request's `A_cap` was reached during the SLO phase.
    pub slo_satisfied: Vec<bool>,
    /// Budget left after both phases.
    pub budget_left: u64,
    order: Vec<usize>,
    heap: BinaryHeap<GlobalEntry>,
}

impl ScsdScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sum of internal buffer capacities (allocation-discipline probe).
    pub fn capacity_sum(&self) -> usize {
        self.ordered.iter().map(Vec::capacity).sum::<usize>()
            + self.ordered.capacity()
            + self.taken.capacity()
            + self.estimated.capacity()
            + self.slo_satisfied.capacity()
            + self.order.capacity()
            + self.heap.capacity()
    }
}

/// The beam-search stop rule that builds exactly the part of each
/// candidate tree selection can read: the first `n_max` nodes in
/// descending path-prob order, then every later node whose prob is at
/// least `min_phase2_prob`.
///
/// Selection never takes a node beyond that prefix. Phase 1 takes at most
/// `n_max` nodes per request. Phase 2 pops the globally most probable open
/// node across requests and ends at the first one below
/// `min_phase2_prob`; every node cut from a tree lies below that cutoff,
/// and so does anything popped after it, so a cut node ends phase 2 at the
/// same point whether or not it was built. Feeding
/// [`spectree::CandidateTree::speculate_with`] this rule therefore leaves
/// every selection, estimate and the leftover budget unchanged, while
/// `min_phase2_prob = 0.0` still builds the whole beam.
pub fn selectable_prefix(n_max: usize, min_phase2_prob: f64) -> BeamStop {
    BeamStop {
        keep: n_max,
        floor: min_phase2_prob,
    }
}

/// Runs both selection phases.
///
/// # Panics
///
/// Panics if input slices disagree in length.
pub fn select_tokens<T: AsRef<TokenTree>>(input: &ScsdInput<'_, T>) -> ScsdOutput {
    let mut scratch = ScsdScratch::default();
    select_tokens_with(input, &mut scratch);
    let n = input.candidates.len();
    ScsdOutput {
        selections: (0..n)
            .map(|i| scratch.ordered[i][..scratch.taken[i]].to_vec())
            .collect(),
        estimated_accept: scratch.estimated,
        slo_satisfied: scratch.slo_satisfied,
        budget_left: scratch.budget_left,
    }
}

/// Scratch-buffer variant of [`select_tokens`]: identical selection
/// logic, but all working state lives in (and the results are read from)
/// the caller's [`ScsdScratch`] — no per-call allocations once warm.
pub fn select_tokens_with<T: AsRef<TokenTree>>(input: &ScsdInput<'_, T>, s: &mut ScsdScratch) {
    let n = input.candidates.len();
    assert_eq!(n, input.requirements.len(), "one requirement per request");
    let mut budget = input.budget;

    // Per-request descending-probability candidate order (prefix = connected).
    if s.ordered.len() < n {
        s.ordered.resize_with(n, Vec::new);
    }
    for (t, buf) in input.candidates.iter().zip(s.ordered.iter_mut()) {
        t.as_ref().speculated_by_prob_desc_into(buf);
    }
    s.taken.clear();
    s.taken.resize(n, 0); // prefix length taken per request
    s.estimated.clear();
    s.estimated.resize(n, 1.0); // root/bonus counts 1.0
    s.slo_satisfied.clear();
    s.slo_satisfied.resize(n, false);

    // Phase 1: SLO-customized selection, slower requests first (larger A).
    s.order.clear();
    s.order.extend(0..n);
    s.order.sort_unstable_by(|&a, &b| {
        input.requirements[b]
            .total_cmp(&input.requirements[a])
            .then_with(|| a.cmp(&b))
    });
    for &i in &s.order {
        while s.estimated[i] < input.requirements[i]
            && s.taken[i] < input.n_max
            && s.taken[i] < s.ordered[i].len()
            && budget > 0
        {
            let node = s.ordered[i][s.taken[i]];
            s.estimated[i] += input.candidates[i].as_ref().path_prob(node);
            s.taken[i] += 1;
            budget -= 1;
        }
        s.slo_satisfied[i] = s.estimated[i] >= input.requirements[i];
    }

    // Phase 2: throughput-optimized global selection.
    s.heap.clear();
    for i in 0..n {
        if s.taken[i] < s.ordered[i].len() {
            s.heap.push(GlobalEntry {
                prob: input.candidates[i]
                    .as_ref()
                    .path_prob(s.ordered[i][s.taken[i]]),
                req: i,
                rank: s.taken[i],
            });
        }
    }
    while budget > 0 {
        let Some(top) = s.heap.pop() else { break };
        if top.prob < input.min_phase2_prob {
            break; // All remaining candidates are below the utility cutoff.
        }
        let i = top.req;
        s.estimated[i] += top.prob;
        s.taken[i] += 1;
        budget -= 1;
        if s.taken[i] < s.ordered[i].len() {
            s.heap.push(GlobalEntry {
                prob: input.candidates[i]
                    .as_ref()
                    .path_prob(s.ordered[i][s.taken[i]]),
                req: i,
                rank: s.taken[i],
            });
        }
    }
    s.budget_left = budget;
}

#[cfg(test)]
mod tests {
    use super::*;
    use simllm::TokenId;

    fn t(x: u32) -> TokenId {
        TokenId(x)
    }

    /// Builds the paper's Fig. 5 running example for request r0:
    /// root → t1 (0.7) → t3 (0.42) → t5 (0.294)
    ///      → t2 (0.2) ; t3 → t6 (0.21 under t2? see figure) …
    ///
    /// We reproduce the probabilities used in the figure.
    fn fig5_r0() -> TokenTree {
        let mut tree = TokenTree::new(t(0));
        let t1 = tree.add_child(tree.root(), t(1), 0.7).unwrap();
        tree.add_child(tree.root(), t(2), 0.2).unwrap();
        let t3 = tree.add_child(t1, t(3), 0.42).unwrap();
        tree.add_child(t1, t(4), 0.21).unwrap();
        tree.add_child(t3, t(5), 0.294).unwrap();
        tree.add_child(t3, t(6), 0.126).unwrap();
        tree
    }

    fn fig5_r1() -> TokenTree {
        let mut tree = TokenTree::new(t(0));
        let t1 = tree.add_child(tree.root(), t(1), 0.5).unwrap();
        let t2 = tree.add_child(tree.root(), t(2), 0.4).unwrap();
        tree.add_child(t1, t(3), 0.35).unwrap();
        tree.add_child(t1, t(4), 0.24).unwrap();
        tree.add_child(t2, t(5), 0.14).unwrap();
        tree.add_child(t2, t(6), 0.139).unwrap();
        tree
    }

    #[test]
    fn reproduces_fig5_selection() {
        // Fig. 5: budget 8 (2 roots + 6 speculated), A_cap(r0) = 0.6 → but
        // the figure counts acceptance *without* the root's 1.0 (its A_cap
        // values are fractions of a token). We therefore pass requirements
        // as 1 + A_cap to account for our root-inclusive convention.
        let r0 = fig5_r0();
        let r1 = fig5_r1();
        let input = ScsdInput {
            candidates: &[&r0, &r1],
            requirements: &[1.6, 1.8],
            budget: 6,
            n_max: 16,
            min_phase2_prob: 0.0,
        };
        let out = select_tokens(&input);
        // SLO phase: r1 (larger A) takes t1 (0.5) + t2 (0.4); r0 takes t1 (0.7).
        // Throughput phase: remaining 3 go to 0.42 (r0), 0.35 (r1), 0.294 (r0).
        assert_eq!(out.selections[0].len(), 3);
        assert_eq!(out.selections[1].len(), 3);
        assert!(out.slo_satisfied.iter().all(|&s| s));
        assert_eq!(out.budget_left, 0);
        let probs0: Vec<f64> = out.selections[0].iter().map(|&n| r0.path_prob(n)).collect();
        assert_eq!(probs0, vec![0.7, 0.42, 0.294]);
        let probs1: Vec<f64> = out.selections[1].iter().map(|&n| r1.path_prob(n)).collect();
        assert_eq!(probs1, vec![0.5, 0.4, 0.35]);
    }

    #[test]
    fn selections_are_connected() {
        let r0 = fig5_r0();
        let r1 = fig5_r1();
        for budget in 0..=12u64 {
            let input = ScsdInput {
                candidates: &[&r0, &r1],
                requirements: &[1.9, 1.7],
                budget,
                n_max: 4,
                min_phase2_prob: 0.0,
            };
            let out = select_tokens(&input);
            for (tree, sel) in [(&r0, &out.selections[0]), (&r1, &out.selections[1])] {
                tree.induced_subtree(sel).expect("connected selection");
            }
        }
    }

    #[test]
    fn n_max_caps_slo_phase_but_not_throughput_phase() {
        let r0 = fig5_r0();
        // Huge requirement, tiny n_max: the SLO phase stops at 1 token.
        let input = ScsdInput {
            candidates: &[&r0],
            requirements: &[5.0],
            budget: 2,
            n_max: 1,
            min_phase2_prob: 0.0,
        };
        let out = select_tokens(&input);
        assert!(!out.slo_satisfied[0]);
        // Throughput phase still spends the leftover token.
        assert_eq!(out.selections[0].len(), 2);
    }

    #[test]
    fn budget_is_never_exceeded() {
        let r0 = fig5_r0();
        let r1 = fig5_r1();
        for budget in 0..=12u64 {
            let input = ScsdInput {
                candidates: &[&r0, &r1],
                requirements: &[2.0, 2.0],
                budget,
                n_max: 16,
                min_phase2_prob: 0.0,
            };
            let out = select_tokens(&input);
            let total: usize = out.selections.iter().map(Vec::len).sum();
            assert!(total as u64 <= budget);
            assert_eq!(out.budget_left, budget - total as u64);
        }
    }

    #[test]
    fn slower_requests_are_served_first_under_scarcity() {
        let r0 = fig5_r0(); // high-probability nodes
        let r1 = fig5_r1(); // slower request (larger A)
        let input = ScsdInput {
            candidates: &[&r0, &r1],
            requirements: &[1.3, 1.9],
            budget: 2,
            n_max: 16,
            min_phase2_prob: 0.0,
        };
        let out = select_tokens(&input);
        // r1's requirement (1.9) is processed first, consuming both tokens.
        assert_eq!(out.selections[1].len(), 2);
        assert_eq!(out.selections[0].len(), 0);
        assert!(out.slo_satisfied[1]);
        assert!(!out.slo_satisfied[0]);
    }

    #[test]
    fn zero_requirements_fall_through_to_throughput_phase() {
        let r0 = fig5_r0();
        let input = ScsdInput {
            candidates: &[&r0],
            requirements: &[0.0],
            budget: 3,
            n_max: 16,
            min_phase2_prob: 0.0,
        };
        let out = select_tokens(&input);
        assert_eq!(out.selections[0].len(), 3);
        let probs: Vec<f64> = out.selections[0].iter().map(|&n| r0.path_prob(n)).collect();
        assert_eq!(probs, vec![0.7, 0.42, 0.294], "highest-prob first");
    }

    #[test]
    fn estimated_accept_matches_selected_mass() {
        let r0 = fig5_r0();
        let input = ScsdInput {
            candidates: &[&r0],
            requirements: &[1.5],
            budget: 4,
            n_max: 16,
            min_phase2_prob: 0.0,
        };
        let out = select_tokens(&input);
        let expect: f64 = 1.0
            + out.selections[0]
                .iter()
                .map(|&n| r0.path_prob(n))
                .sum::<f64>();
        assert!((out.estimated_accept[0] - expect).abs() < 1e-12);
    }
}
