//! The beam builder against a layer-by-layer reference.
//!
//! [`reference_beam`] is the classic beam search, one layer at a time:
//! expand every node of the previous layer, keep the global top-`w`
//! expansions (path prob descending, ties by parent id then token), append
//! them as the next layer. [`CandidateTree::speculate`] must build exactly
//! that tree — same node order, tokens, parents and bit-identical path
//! probabilities — for real draft models and for tiny-vocabulary toy models
//! in which a node has fewer than `w` children and probabilities tie.

use proptest::prelude::*;
use simllm::{mix64, ContentClass, Lm, LmContext, ModelPair, SparseDist, TokenId};
use spectree::{CandidateTree, NodeId, SpecParams, TokenTree};
use std::ops::Range;

/// Layer-by-layer beam search, kept here as the specification.
fn reference_beam(
    lm: &dyn Lm,
    ctx: &LmContext<'_>,
    params: SpecParams,
) -> (TokenTree, Vec<Range<u32>>) {
    let mut tree = TokenTree::new(*ctx.tokens.last().expect("non-empty context"));
    let mut layers = Vec::new();
    let (mut path, mut ext, mut topw) = (Vec::new(), Vec::new(), Vec::new());
    let w = params.width as usize;
    let mut beam: Range<u32> = 0..1;
    for _ in 0..params.depth {
        let mut expansions: Vec<(NodeId, TokenId, f64)> = Vec::new();
        for node in beam.clone().map(NodeId) {
            tree.path_tokens_into(node, &mut path);
            lm.top_w_extended(ctx, &path, w, &mut ext, &mut topw);
            let parent_prob = tree.path_prob(node);
            for &(token, p) in &topw {
                expansions.push((node, token, parent_prob * p));
            }
        }
        expansions.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .expect("finite probs")
                .then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
        });
        expansions.truncate(w);
        if expansions.is_empty() {
            break;
        }
        let start = tree.len() as u32;
        for (parent, token, prob) in expansions {
            let prob = prob.min(tree.path_prob(parent) * (1.0 - 1e-12));
            tree.add_child(parent, token, prob)
                .expect("valid beam node");
        }
        beam = start..tree.len() as u32;
        layers.push(beam.clone());
    }
    (tree, layers)
}

/// A toy model over a tiny vocabulary: each context hashes to a support of
/// 1..=`vocab` tokens with small integer weights, so nodes often have fewer
/// than `w` children and sibling or cousin probabilities often tie.
#[derive(Debug)]
struct TinyLm {
    vocab: u32,
    seed: u64,
}

impl Lm for TinyLm {
    fn vocab_size(&self) -> u32 {
        self.vocab
    }

    fn next_dist(&self, ctx: &LmContext<'_>) -> SparseDist {
        let h = mix64(ctx.hash() ^ self.seed);
        let support = 1 + (h % u64::from(self.vocab)) as u32;
        let weights = (0..support)
            .map(|k| {
                let token = TokenId((k + (h >> 8) as u32) % self.vocab);
                let weight = 1 + (mix64(h ^ u64::from(k)) % 3);
                (token, weight as f64)
            })
            .collect();
        SparseDist::from_weights(weights, 0.0, self.vocab)
    }
}

/// Every node as (parent, token, path-prob bits), in id order.
fn nodes(tree: &TokenTree) -> Vec<(Option<NodeId>, TokenId, u64)> {
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

fn class(k: u8) -> ContentClass {
    ContentClass::ALL[usize::from(k) % 3]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn full_beam_matches_layer_by_layer_reference_on_draft_models(
        model_seed in 0u64..6,
        stream in any::<u64>(),
        cls in 0u8..3,
        context in prop::collection::vec(0u32..2_000, 1..10),
        depth in 1u32..=8,
        width in 1u32..=6,
    ) {
        let pair = ModelPair::calibrated(model_seed);
        let tokens: Vec<TokenId> = context.into_iter().map(TokenId).collect();
        let ctx = LmContext::new(stream, class(cls), &tokens);
        let params = SpecParams::new(depth, width);
        let (tree, layers) = reference_beam(pair.draft(), &ctx, params);
        let cand = CandidateTree::speculate(pair.draft(), &ctx, params);
        prop_assert_eq!(nodes(cand.tree()), nodes(&tree));
        prop_assert_eq!(cand.layers(), &layers[..]);
    }

    #[test]
    fn full_beam_matches_layer_by_layer_reference_on_tiny_vocabularies(
        vocab in 1u32..=5,
        seed in any::<u64>(),
        stream in any::<u64>(),
        context in prop::collection::vec(0u32..5, 1..8),
        depth in 1u32..=8,
        width in 1u32..=6,
    ) {
        let lm = TinyLm { vocab, seed };
        let tokens: Vec<TokenId> = context.into_iter().map(|t| TokenId(t % vocab)).collect();
        let ctx = LmContext::new(stream, ContentClass::Chat, &tokens);
        let params = SpecParams::new(depth, width);
        let (tree, layers) = reference_beam(&lm, &ctx, params);
        let cand = CandidateTree::speculate(&lm, &ctx, params);
        prop_assert_eq!(nodes(cand.tree()), nodes(&tree));
        prop_assert_eq!(cand.layers(), &layers[..]);
    }
}
