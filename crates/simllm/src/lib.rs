//! Synthetic language-model substrate for the AdaServe reproduction.
//!
//! The AdaServe paper evaluates SLO-customized speculative decoding with real
//! Llama/Qwen model pairs on A100 GPUs. This crate substitutes the *model*
//! half of that stack: a deterministic, hash-seeded pair of target and draft
//! language models whose joint statistics (top-token concentration, draft/
//! target divergence, acceptance-rate decay with speculation depth) are
//! controllable and calibrated to match published speculative-decoding
//! measurements.
//!
//! The key property preserved from the real system is that *all* decisions
//! made by a serving engine — which tokens to speculate, which to select for
//! verification, which get accepted — depend only on the target distribution
//! `p(· | context)` and the draft distribution `q(· | context)`. Both are
//! implemented here as pure functions of the request's content stream, so
//! every engine (AdaServe and each baseline) observes exactly the same
//! stochastic process, making comparisons fair and runs reproducible.
//!
//! # Architecture
//!
//! * [`vocab`] — token identifiers and vocabulary metadata.
//! * [`hash`] — the deterministic mixing primitives everything is seeded by.
//! * [`dist`] — sparse next-token distributions (top-K entries + uniform tail).
//! * [`lm`] — the [`lm::Lm`] trait, decoding contexts and content classes.
//! * [`target`] — the hash-seeded target model.
//! * [`draft`] — the divergence-controlled draft model.
//! * [`memo`] — the distribution caches and their per-engine counters.
//! * `kernel` (internal) — the allocation-free draft-expansion kernel both
//!   models compute through, and its bit-identity argument.
//! * [`sampler`] — seeded sampling strategies (greedy, temperature, top-k).
//! * [`calib`] — empirical acceptance-rate estimation used for calibration.
//!
//! # Example
//!
//! ```
//! use simllm::{ContentClass, Lm, LmContext, ModelPair, TokenId};
//!
//! let pair = ModelPair::calibrated(42);
//! let ctx_tokens = vec![TokenId(5), TokenId(9), TokenId(11)];
//! let ctx = LmContext::new(7, ContentClass::Code, &ctx_tokens);
//! let p = pair.target().next_dist(&ctx);
//! let q = pair.draft().next_dist(&ctx);
//! // Draft and target agree on most of the mass for code-like content.
//! let overlap: f64 = p
//!     .entries()
//!     .iter()
//!     .map(|&(t, pp)| pp.min(q.prob(t)))
//!     .sum();
//! assert!(overlap > 0.5);
//! ```

pub mod calib;
pub mod dist;
pub mod draft;
pub mod hash;
mod kernel;
pub mod lm;
pub mod memo;
pub mod sampler;
pub mod target;
pub mod vocab;

pub use calib::AcceptanceEstimate;
pub use dist::SparseDist;
pub use draft::DraftLm;
pub use hash::{mix64, seed_stream};
pub use lm::{ContentClass, Lm, LmContext};
pub use memo::{DistMemo, MemoStats};
pub use sampler::{sample_seeded, Sampler, SamplingMode};
pub use target::{TargetLm, TargetLmConfig};
pub use vocab::{TokenId, Vocab, BOS_TOKEN, EOS_TOKEN};

use std::sync::{Arc, Mutex, Weak};

/// A matched (target, draft) model pair sharing one vocabulary.
///
/// Mirrors the paper's deployment setting: the draft model is the smallest
/// model of the same family (Llama-3.2-1B for Llama-3.1-70B, Qwen2.5-0.5B for
/// Qwen2.5-32B), i.e. trained on the same data with closely aligned logits
/// (paper §4.2, eq. 7). [`ModelPair::calibrated`] produces a pair whose
/// acceptance statistics match the published speculative-decoding regime.
#[derive(Debug, Clone)]
pub struct ModelPair {
    target: TargetLm,
    draft: DraftLm,
    /// The target memo of the live engines built from this pair and its
    /// clones ([`ModelPair::for_engine`]); dead once the last one drops.
    engine_memo: Arc<Mutex<Weak<DistMemo>>>,
}

impl ModelPair {
    /// Creates a pair from an explicit target configuration and draft divergence.
    pub fn new(config: TargetLmConfig, divergence: f64) -> Self {
        let target = TargetLm::new(config);
        let draft = DraftLm::from_target(&target, divergence);
        Self {
            target,
            draft,
            engine_memo: Arc::default(),
        }
    }

    /// Creates the default calibrated pair used across experiments.
    ///
    /// Divergence is set so that a length-4 sequence speculation accepts
    /// roughly 2.5–3.5 tokens per verification on mixed content, matching the
    /// ranges reported for Llama/Qwen draft pairs (paper Fig. 12).
    pub fn calibrated(seed: u64) -> Self {
        Self::new(TargetLmConfig::default_with_seed(seed), 0.18)
    }

    /// The target (verified) model.
    pub fn target(&self) -> &TargetLm {
        &self.target
    }

    /// The draft (speculating) model.
    pub fn draft(&self) -> &DraftLm {
        &self.draft
    }

    /// Shared vocabulary size.
    pub fn vocab_size(&self) -> u32 {
        self.target.vocab_size()
    }

    /// The pair a serving engine computes through (`EngineCore::new`
    /// calls this).
    ///
    /// Cloning a pair shares its memos *and* its counters, and configs
    /// are routinely cloned into several engines. An engine's pair
    /// instead counts only its own lookups, so per-engine reports never
    /// include a sibling's work, and its draft-blend memo is its own.
    /// The target memo is shared by the engines built from this
    /// pair and its clones *while any of them is alive* — the replicas of
    /// one deployment keep one table between them, as much memory as a
    /// single engine's — and an engine built after they are all gone
    /// starts from a fresh, cold memo.
    pub fn for_engine(&self) -> Self {
        let memo = {
            let mut live = self.engine_memo.lock().expect("engine memo lock");
            live.upgrade().unwrap_or_else(|| {
                let memo = DistMemo::shared();
                *live = Arc::downgrade(&memo);
                memo
            })
        };
        let target = TargetLm::with_memo(*self.target.config(), memo);
        let draft = DraftLm::from_target(&target, self.draft.divergence());
        Self {
            target,
            draft,
            engine_memo: Arc::clone(&self.engine_memo),
        }
    }

    /// Aggregated hit/miss counters of the pair's distribution memos: the
    /// (shared) target cache and the blended-draft cache. Engines surface
    /// the resulting hit rate in their per-replica stats.
    pub fn dist_cache_stats(&self) -> MemoStats {
        // The draft's inner target shares the target's memo (one Arc), so
        // counting `self.target` once covers both consumers.
        let mut stats = self.target.cache_stats();
        stats.merge(self.draft.cache_stats());
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_pair_shares_vocab() {
        let pair = ModelPair::calibrated(1);
        assert_eq!(pair.vocab_size(), pair.target().vocab_size());
        assert_eq!(pair.vocab_size(), pair.draft().vocab_size());
    }

    #[test]
    fn pair_is_deterministic_across_instances() {
        let a = ModelPair::calibrated(9);
        let b = ModelPair::calibrated(9);
        let tokens = vec![TokenId(3), TokenId(100), TokenId(7)];
        let ctx = LmContext::new(11, ContentClass::Chat, &tokens);
        assert_eq!(a.target().next_dist(&ctx), b.target().next_dist(&ctx));
        assert_eq!(a.draft().next_dist(&ctx), b.draft().next_dist(&ctx));
    }

    #[test]
    fn engine_pairs_share_a_live_memo_but_count_their_own_lookups() {
        let pair = ModelPair::calibrated(9);
        let tokens = vec![TokenId(3), TokenId(100), TokenId(7)];
        let ctx = LmContext::new(11, ContentClass::Chat, &tokens);
        let (a, b) = (pair.for_engine(), pair.clone().for_engine());
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        a.draft()
            .top_w_extended(&ctx, &[], 4, &mut scratch, &mut out);
        // The draft's expansion counts as its own engine's target lookup ...
        assert_eq!(a.dist_cache_stats(), MemoStats { hits: 0, misses: 1 });
        // ... and filled the memo the live sibling shares.
        assert_eq!(b.target().next_dist(&ctx), pair.target().next_dist(&ctx));
        assert_eq!(b.dist_cache_stats(), MemoStats { hits: 1, misses: 0 });
        assert_eq!(a.dist_cache_stats(), MemoStats { hits: 0, misses: 1 });
        // Once both engines are gone, the next one starts cold.
        drop((a, b));
        let c = pair.for_engine();
        c.target().next_dist(&ctx);
        assert_eq!(c.dist_cache_stats(), MemoStats { hits: 0, misses: 1 });
        assert!(!c.draft().cache().has_table());
    }

    #[test]
    fn different_seeds_give_different_processes() {
        let a = ModelPair::calibrated(1);
        let b = ModelPair::calibrated(2);
        let tokens = vec![TokenId(3), TokenId(100), TokenId(7)];
        let ctx = LmContext::new(11, ContentClass::Chat, &tokens);
        assert_ne!(a.target().next_dist(&ctx), b.target().next_dist(&ctx));
    }
}
