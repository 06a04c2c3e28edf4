//! Empirical acceptance-rate estimation.
//!
//! Calibration ties the synthetic model pair to published speculative-
//! decoding behaviour: for sequence speculation of length `n`, the expected
//! number of accepted tokens per verification should land in the 2.5–3.5
//! range reported for same-family Llama/Qwen draft pairs (paper Fig. 12 and
//! the vLLM-Spec baselines). This module measures those statistics directly
//! on a [`ModelPair`] so tests can check them (the model pair is described
//! in `docs/ARCHITECTURE.md`).

use crate::lm::{ContentClass, Lm, LmContext};
use crate::sampler::sample_seeded;
use crate::vocab::TokenId;
use crate::ModelPair;

/// Result of an acceptance measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptanceEstimate {
    /// Content class measured.
    pub class: ContentClass,
    /// Speculation length used (draft chain length).
    pub spec_len: usize,
    /// Mean accepted tokens per verification, *excluding* the bonus token.
    pub mean_accepted: f64,
    /// Per-position acceptance rate of the first speculated token.
    pub first_token_rate: f64,
}

/// Measures chain-speculation acceptance for a model pair.
///
/// Simulates `trials` independent verification steps: the draft model greedily
/// proposes `spec_len` tokens, the target model samples its own token at each
/// position, and the chain is accepted up to the first mismatch (SpecInfer-
/// style multi-step verification, which is also what the serving engines use).
pub fn estimate_acceptance(
    pair: &ModelPair,
    class: ContentClass,
    spec_len: usize,
    trials: u64,
) -> AcceptanceEstimate {
    let mut total_accepted = 0u64;
    let mut first_accepts = 0u64;
    for trial in 0..trials {
        let stream_seed = crate::hash::combine(0xCA11_B8A7E, trial);
        // Independent random starting context per trial.
        let ctx_tokens: Vec<TokenId> = (0..4)
            .map(|i| TokenId((crate::hash::seed_stream(stream_seed, i) % 50_000) as u32 + 2))
            .collect();
        let accepted_prefix: Vec<TokenId> = ctx_tokens.clone();
        let mut scratch = Vec::new();
        // Draft proposes a greedy chain.
        let mut chain = Vec::with_capacity(spec_len);
        for _ in 0..spec_len {
            let ctx = LmContext::new(stream_seed, class, &accepted_prefix);
            let q = pair.draft().next_dist_extended(&ctx, &chain, &mut scratch);
            let t = q.top1();
            chain.push(t);
        }
        // Target verifies position by position.
        for (i, &proposed) in chain.iter().enumerate() {
            let ctx = LmContext::new(stream_seed, class, &accepted_prefix);
            let p = pair
                .target()
                .next_dist_extended(&ctx, &chain[..i], &mut scratch);
            let target_token = sample_seeded(&p, stream_seed, (ctx_tokens.len() + i) as u64);
            if target_token == proposed {
                total_accepted += 1;
                if i == 0 {
                    first_accepts += 1;
                }
            } else {
                break;
            }
        }
    }
    AcceptanceEstimate {
        class,
        spec_len,
        mean_accepted: total_accepted as f64 / trials as f64,
        first_token_rate: first_accepts as f64 / trials as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_pair_matches_published_regime() {
        let pair = ModelPair::calibrated(2024);
        let est = estimate_acceptance(&pair, ContentClass::Chat, 4, 400);
        assert!(
            est.mean_accepted > 1.5 && est.mean_accepted < 3.2,
            "chat mean accepted = {}",
            est.mean_accepted
        );
    }

    #[test]
    fn code_accepts_more_than_news() {
        let pair = ModelPair::calibrated(2024);
        let code = estimate_acceptance(&pair, ContentClass::Code, 4, 400);
        let news = estimate_acceptance(&pair, ContentClass::News, 4, 400);
        assert!(
            code.mean_accepted > news.mean_accepted,
            "code {} !> news {}",
            code.mean_accepted,
            news.mean_accepted
        );
    }

    #[test]
    fn longer_chains_accept_more_in_total_but_saturate() {
        let pair = ModelPair::calibrated(2024);
        let short = estimate_acceptance(&pair, ContentClass::Chat, 2, 300);
        let long = estimate_acceptance(&pair, ContentClass::Chat, 8, 300);
        assert!(long.mean_accepted >= short.mean_accepted);
        // Acceptance saturates: doubling spec length does not double yield.
        assert!(long.mean_accepted < short.mean_accepted * 4.0);
    }

    #[test]
    fn first_token_rate_is_a_probability() {
        let pair = ModelPair::calibrated(2024);
        let est = estimate_acceptance(&pair, ContentClass::Code, 4, 200);
        assert!((0.0..=1.0).contains(&est.first_token_rate));
        assert!(
            est.first_token_rate > 0.3,
            "rate = {}",
            est.first_token_rate
        );
    }
}
