//! The hash-seeded target (verified) language model.

use crate::dist::SparseDist;
use crate::hash::mix64;
use crate::kernel;
use crate::lm::{Lm, LmContext};
use crate::memo::{DistMemo, LookupCounts, MemoStats};
use crate::vocab::Vocab;
use std::sync::Arc;

/// Configuration of a [`TargetLm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetLmConfig {
    /// Global model seed; two models with different seeds are independent.
    pub seed: u64,
    /// Vocabulary.
    pub vocab: Vocab,
    /// Number of explicit head tokens per distribution.
    pub head_width: usize,
    /// Mass held by the explicit head (rest spreads over the tail).
    pub head_mass: f64,
    /// Jitter applied to head weights so distributions are not perfectly
    /// geometric; `0` disables.
    pub weight_jitter: f64,
}

impl TargetLmConfig {
    /// The default configuration with an explicit seed.
    ///
    /// 24 head tokens covering 97% of the mass approximates the measured
    /// concentration of instruction-tuned LLM output distributions (the top
    /// 20–30 tokens of such models typically carry >95% of the mass under
    /// normal decoding temperatures).
    pub fn default_with_seed(seed: u64) -> Self {
        Self {
            seed,
            vocab: Vocab::default(),
            head_width: 24,
            head_mass: 0.97,
            weight_jitter: 0.35,
        }
    }

    /// The key of the distribution for a context with hash `ctx_hash`:
    /// the context hash mixed with the model seed.
    pub(crate) fn dist_key(&self, ctx_hash: u64) -> u64 {
        mix64(ctx_hash ^ self.seed)
    }
}

/// The target model: a pure function from contexts to sparse distributions.
///
/// For a context hash `h`, the model derives `head_width` distinct candidate
/// tokens and geometric-with-jitter weights whose decay is set by the
/// context's [`crate::ContentClass`]. Because the construction is pure, the
/// model needs no GPU, no weights and no state — yet it exposes exactly the
/// statistics speculative decoding interacts with.
#[derive(Debug, Clone)]
pub struct TargetLm {
    config: TargetLmConfig,
    /// Distribution memo, **shared across clones** (an `Arc`): the draft
    /// model derived via [`crate::DraftLm::from_target`] clones this
    /// model, so the verification pass hits distributions the draft pass
    /// already computed. Memoization is exact (pure function of the
    /// context hash), so cached and recomputed runs are bit-identical.
    memo: Arc<DistMemo>,
    /// This model's (and its clones') own lookups in `memo`, which other
    /// engines' models may share.
    counts: Arc<LookupCounts>,
}

impl TargetLm {
    /// Creates a target model.
    pub fn new(config: TargetLmConfig) -> Self {
        Self::with_memo(config, DistMemo::shared())
    }

    /// Creates a target model caching in `memo` (which other models of
    /// the same configuration may share), with its own lookup counters.
    pub(crate) fn with_memo(config: TargetLmConfig, memo: Arc<DistMemo>) -> Self {
        assert!(config.head_width >= 2, "head must hold at least two tokens");
        assert!(
            (0.0..=1.0).contains(&config.head_mass),
            "head mass must be a probability"
        );
        Self {
            config,
            memo,
            counts: Arc::default(),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &TargetLmConfig {
        &self.config
    }

    /// Hit/miss counters of this model's (and its clones') memo lookups.
    pub fn cache_stats(&self) -> MemoStats {
        self.counts.stats()
    }

    /// The distribution memo (shared across clones).
    pub fn cache(&self) -> &DistMemo {
        &self.memo
    }

    /// The distribution for memo key `h`, computed in place by `fill` on
    /// a miss (the fused draft kernel supplies its own miss path, which
    /// shares one token-order sort with the noise head).
    pub(crate) fn lookup(&self, h: u64, fill: impl FnOnce(&mut SparseDist)) -> Arc<SparseDist> {
        let (dist, hit) = self.memo.get_or_fill(h, fill);
        self.counts.record(hit);
        dist
    }
}

impl Lm for TargetLm {
    fn vocab_size(&self) -> u32 {
        self.config.vocab.size()
    }

    fn next_dist(&self, ctx: &LmContext<'_>) -> SparseDist {
        (*self.next_dist_arc(ctx)).clone()
    }

    fn next_dist_arc(&self, ctx: &LmContext<'_>) -> Arc<SparseDist> {
        // The context hash folds in the stream seed, content class and
        // token window — everything `compute_dist` conditions on — so it
        // is a sound memo key once mixed with the model seed.
        let h = self.config.dist_key(ctx.hash());
        self.lookup(h, |dist| {
            kernel::fill_target(&self.config, h, ctx.class, dist)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lm::ContentClass;
    use crate::TokenId;

    fn ctx_tokens() -> Vec<TokenId> {
        vec![TokenId(10), TokenId(20), TokenId(30)]
    }

    #[test]
    fn distributions_are_valid() {
        let lm = TargetLm::new(TargetLmConfig::default_with_seed(3));
        let tokens = ctx_tokens();
        for class in ContentClass::ALL {
            let ctx = LmContext::new(5, class, &tokens);
            let d = lm.next_dist(&ctx);
            d.validate().expect("valid dist");
            assert_eq!(d.entries().len(), 24);
            assert!((d.tail_mass() - 0.03).abs() < 1e-9);
        }
    }

    #[test]
    fn code_is_peakier_than_news() {
        let lm = TargetLm::new(TargetLmConfig::default_with_seed(3));
        let tokens = ctx_tokens();
        let mut top1 = std::collections::HashMap::new();
        // Average over several contexts to wash out jitter.
        for s in 0..50u64 {
            for class in ContentClass::ALL {
                let ctx = LmContext::new(s, class, &tokens);
                let d = lm.next_dist(&ctx);
                *top1.entry(class).or_insert(0.0) += d.entries()[0].1 / 50.0;
            }
        }
        assert!(top1[&ContentClass::Code] > top1[&ContentClass::Chat]);
        assert!(top1[&ContentClass::Chat] > top1[&ContentClass::News]);
    }

    #[test]
    fn context_changes_distribution() {
        let lm = TargetLm::new(TargetLmConfig::default_with_seed(3));
        let a = ctx_tokens();
        let mut b = ctx_tokens();
        b.push(TokenId(999));
        let da = lm.next_dist(&LmContext::new(5, ContentClass::Chat, &a));
        let db = lm.next_dist(&LmContext::new(5, ContentClass::Chat, &b));
        assert_ne!(da, db);
    }

    #[test]
    fn head_tokens_are_distinct_and_non_special() {
        let config = TargetLmConfig::default_with_seed(3);
        let mut head = vec![(crate::TokenId(7), 1.0)];
        kernel::raw_head(&config, 12345, ContentClass::Chat, &mut head, true);
        assert_eq!(head.remove(0), (crate::TokenId(7), 1.0), "appends");
        let set: std::collections::HashSet<_> = head.iter().map(|e| e.0).collect();
        assert_eq!(set.len(), config.head_width);
        assert!(head
            .iter()
            .all(|e| e.0 .0 >= crate::vocab::NUM_SPECIAL_TOKENS));
    }

    #[test]
    fn extended_context_matches_explicit_concatenation() {
        let lm = TargetLm::new(TargetLmConfig::default_with_seed(3));
        let base = ctx_tokens();
        let extra = vec![TokenId(7), TokenId(8)];
        let mut full = base.clone();
        full.extend_from_slice(&extra);
        let ctx = LmContext::new(5, ContentClass::Chat, &base);
        let mut scratch = Vec::new();
        let via_ext = lm.next_dist_extended(&ctx, &extra, &mut scratch);
        let direct = lm.next_dist(&LmContext::new(5, ContentClass::Chat, &full));
        assert_eq!(via_ext, direct);
    }
}
