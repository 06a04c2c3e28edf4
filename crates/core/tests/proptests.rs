//! Property tests for Algorithms 1 and 2.

use adaserve_core::{
    optimal_trees, select_tokens, selectable_prefix, ExplicitProbTree, ScsdInput, ScsdOutput,
};
use proptest::prelude::*;
use simllm::{ContentClass, LmContext, ModelPair, TokenId};
use spectree::{CandidateTree, NodeId, SpecParams, SpeculateScratch, TokenTree};

/// Random candidate token tree with valid strictly-decreasing path probs.
fn arb_candidate_tree() -> impl Strategy<Value = TokenTree> {
    prop::collection::vec((0usize..12, 2u32..300, 0.05f64..0.95), 1..16).prop_map(|ops| {
        let mut tree = TokenTree::new(TokenId(1));
        for (pidx, token, frac) in ops {
            let parent = spectree::NodeId((pidx % tree.len()) as u32);
            let prob = tree.path_prob(parent) * frac;
            let _ = tree.add_child(parent, TokenId(token), prob);
        }
        tree
    })
}

/// Random explicit probability tree for Algorithm 1.
fn arb_prob_tree() -> impl Strategy<Value = ExplicitProbTree> {
    prop::collection::vec((0usize..10, 0.1f64..0.9), 0..10).prop_map(|ops| {
        let mut tree = ExplicitProbTree::new(TokenId(0));
        for (k, (pidx, edge)) in ops.into_iter().enumerate() {
            let parent = pidx % tree.len();
            tree.add(parent, TokenId(100 + k as u32), edge);
        }
        tree
    })
}

/// One speculation round: a calibrated draft model seed, `(d, w)` and the
/// (stream seed, last token, content class) of 1–5 requests.
type Round = (u64, SpecParams, Vec<(u64, u32, usize)>);

fn arb_round() -> impl Strategy<Value = Round> {
    (
        0u64..4,
        1u32..=6,
        1u32..=4,
        prop::collection::vec((any::<u64>(), 0u32..1_500, 0usize..3), 1..6),
    )
        .prop_map(|(model_seed, depth, width, requests)| {
            (model_seed, SpecParams::new(depth, width), requests)
        })
}

/// The selectable prefix cut from a full tree: its nodes in descending
/// path-prob order, up to the first node past position `keep` whose prob is
/// below `floor`, as an induced subtree.
fn truncated(tree: &TokenTree, keep: usize, floor: f64) -> TokenTree {
    let order = tree.speculated_by_prob_desc();
    let len = (keep..order.len())
        .find(|&i| tree.path_prob(order[i]) < floor)
        .unwrap_or(order.len());
    tree.induced_subtree(&order[..len])
        .expect("prefixes are connected")
}

/// Every node as (parent, token, path-prob bits), in id order.
type Nodes = Vec<(Option<NodeId>, TokenId, u64)>;

fn nodes(tree: &TokenTree) -> Nodes {
    tree.node_ids()
        .map(|id| {
            (
                tree.parent(id),
                tree.token(id),
                tree.path_prob(id).to_bits(),
            )
        })
        .collect()
}

/// The selection as the verifier sees it: the selected draft trees plus
/// every estimate, independent of the candidate trees' node numbering.
fn applied<T: AsRef<TokenTree>>(
    trees: &[T],
    out: &ScsdOutput,
) -> (Vec<Nodes>, Vec<u64>, Vec<bool>, u64) {
    let drafts = trees
        .iter()
        .zip(&out.selections)
        .map(|(t, sel)| nodes(&t.as_ref().induced_subtree(sel).expect("connected")))
        .collect();
    let estimates = out.estimated_accept.iter().map(|e| e.to_bits()).collect();
    (
        drafts,
        estimates,
        out.slo_satisfied.clone(),
        out.budget_left,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scsd_on_the_selectable_prefix_equals_scsd_on_the_full_tree(
        round in arb_round(),
        reqs in prop::collection::vec(0.0f64..4.0, 6),
        budget in 0u64..48,
        n_max in 1usize..12,
        floor in prop_oneof![1 => proptest::strategy::Just(0.0), 3 => 0.0f64..0.4],
    ) {
        let (model_seed, params, requests) = round;
        let pair = ModelPair::calibrated(model_seed);
        let stop = selectable_prefix(n_max, floor);
        let mut scratch = SpeculateScratch::new();
        let mut full = Vec::new();
        let mut prefix = Vec::new();
        for &(stream, last, class) in &requests {
            let tokens = [TokenId(7), TokenId(last)];
            let ctx = LmContext::new(stream, ContentClass::ALL[class], &tokens);
            let tree = CandidateTree::speculate(pair.draft(), &ctx, params).into_tree();
            let mut cand = CandidateTree::empty();
            cand.speculate_with(pair.draft(), &ctx, params, stop, &mut scratch);
            // The stopped build is exactly the full beam's selectable prefix.
            prop_assert_eq!(nodes(cand.tree()), nodes(&truncated(&tree, n_max, floor)));
            full.push(tree);
            prefix.push(cand);
        }
        let reqs = &reqs[..full.len()];
        let on_prefix = select_tokens(&ScsdInput {
            candidates: &prefix,
            requirements: reqs,
            budget,
            n_max,
            min_phase2_prob: floor,
        });
        let on_full = select_tokens(&ScsdInput {
            candidates: &full,
            requirements: reqs,
            budget,
            n_max,
            min_phase2_prob: floor,
        });
        prop_assert_eq!(applied(&prefix, &on_prefix), applied(&full, &on_full));
    }

    #[test]
    fn scsd_respects_budget_and_connectivity(
        trees in prop::collection::vec(arb_candidate_tree(), 1..6),
        reqs in prop::collection::vec(0.0f64..4.0, 1..6),
        budget in 0u64..40,
        n_max in 1usize..12,
        cutoff in 0.0f64..0.3,
    ) {
        let n = trees.len().min(reqs.len());
        let trees = &trees[..n];
        let reqs = &reqs[..n];
        let refs: Vec<&TokenTree> = trees.iter().collect();
        let out = select_tokens(&ScsdInput {
            candidates: &refs,
            requirements: reqs,
            budget,
            n_max,
            min_phase2_prob: cutoff,
        });
        let total: usize = out.selections.iter().map(Vec::len).sum();
        prop_assert!(total as u64 <= budget);
        for (tree, sel) in refs.iter().zip(&out.selections) {
            prop_assert!(tree.induced_subtree(sel).is_ok(), "disconnected selection");
        }
        // Estimated acceptance equals 1 + selected mass.
        for (tree, (sel, est)) in
            refs.iter().zip(out.selections.iter().zip(&out.estimated_accept))
        {
            let mass: f64 = sel.iter().map(|&id| tree.path_prob(id)).sum();
            prop_assert!((est - (1.0 + mass)).abs() < 1e-9);
        }
    }

    #[test]
    fn scsd_budget_monotonicity(
        tree in arb_candidate_tree(),
        req in 0.0f64..4.0,
    ) {
        // More budget never reduces the estimated acceptance.
        let refs = [&tree];
        let mut prev = 0.0f64;
        for budget in 0..12u64 {
            let out = select_tokens(&ScsdInput {
                candidates: &refs,
                requirements: &[req],
                budget,
                n_max: 64,
                min_phase2_prob: 0.0,
            });
            prop_assert!(out.estimated_accept[0] >= prev - 1e-12);
            prev = out.estimated_accept[0];
        }
    }

    #[test]
    fn algorithm1_output_is_valid_and_within_budget(
        trees in prop::collection::vec(arb_prob_tree(), 1..4),
        budget in 0u64..24,
    ) {
        let refs: Vec<&ExplicitProbTree> = trees.iter().collect();
        let reqs = vec![1.0; refs.len()];
        match optimal_trees(&refs, &reqs, budget) {
            Ok(out) => {
                let total: usize = out.iter().map(|t| t.len()).sum();
                prop_assert!(total as u64 <= budget.max(refs.len() as u64));
                for t in &out {
                    prop_assert!(t.validate().is_ok());
                }
            }
            Err(_) => {
                // INVALID only when roots alone exceed the budget (req = 1.0
                // is satisfied by the root).
                prop_assert!((budget as usize) < refs.len());
            }
        }
    }

    #[test]
    fn algorithm1_monotone_in_budget(
        trees in prop::collection::vec(arb_prob_tree(), 1..3),
        extra in 0u64..8,
    ) {
        // Objective value never decreases with more budget.
        let refs: Vec<&ExplicitProbTree> = trees.iter().collect();
        let reqs = vec![1.0; refs.len()];
        let b0 = refs.len() as u64;
        let total = |out: &[TokenTree]| -> f64 {
            out.iter().map(|t| t.expected_accepted()).sum()
        };
        let small = optimal_trees(&refs, &reqs, b0).map(|o| total(&o)).unwrap_or(0.0);
        let large =
            optimal_trees(&refs, &reqs, b0 + extra).map(|o| total(&o)).unwrap_or(0.0);
        prop_assert!(large >= small - 1e-12);
    }
}
