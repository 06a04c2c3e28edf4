//! The divergence-controlled draft (speculating) language model.

use crate::dist::SparseDist;
use crate::kernel;
use crate::lm::{Lm, LmContext};
use crate::memo::{DistMemo, LookupCounts, MemoStats};
use crate::target::{TargetLm, TargetLmConfig};
use std::sync::{Arc, Mutex};

/// The draft model: a perturbed view of the target model.
///
/// Real draft models are smaller members of the same family, distilled or
/// co-trained so their logits track the target's (paper §4.2: "the logits of
/// the draft model are accurate surrogates for estimating f(v)"). We model
/// this as a pointwise mixture
///
/// ```text
/// q(· | ctx) = (1 - δ_c) · p(· | ctx) + δ_c · noise(· | ctx)
/// ```
///
/// where `p` is the target distribution, `noise` is an independent hash model
/// over the same vocabulary, and the effective divergence `δ_c` scales with
/// the content class `c` (code drafts align best, long-form prose worst).
/// δ directly controls the expected acceptance rate, making calibration to
/// published speculative-decoding numbers a one-parameter fit.
#[derive(Debug)]
pub struct DraftLm {
    target: TargetLm,
    /// The noise model: a hash model of its own seed with a flatter head,
    /// never consulted on its own, so it needs no memo.
    noise: TargetLmConfig,
    /// Base divergence δ before per-class scaling.
    divergence: f64,
    /// Memo of the *blended* draft distribution (shared across clones),
    /// read by [`Lm::next_dist_arc`]. Beam search never reads it: its
    /// fused top-`w` path consults only the inner `target`'s memo, which
    /// is shared with the model pair's target, so verification reuses
    /// draft-pass work.
    memo: Arc<DistMemo>,
    /// This model's (and its clones') own lookups in `memo`.
    counts: Arc<LookupCounts>,
    /// Reusable buffers of the fused kernel (never cloned; a clone starts
    /// with cold buffers).
    scratch: Mutex<kernel::Scratch>,
}

impl Clone for DraftLm {
    fn clone(&self) -> Self {
        Self {
            target: self.target.clone(),
            noise: self.noise,
            divergence: self.divergence,
            memo: Arc::clone(&self.memo),
            counts: Arc::clone(&self.counts),
            scratch: Mutex::default(),
        }
    }
}

impl DraftLm {
    /// Derives a draft model from a target model with base divergence `δ`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ δ ≤ 1`.
    pub fn from_target(target: &TargetLm, divergence: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&divergence),
            "divergence must be in [0, 1]"
        );
        let mut noise_config: TargetLmConfig = *target.config();
        // The noise model is an independent process: different seed, flatter head.
        noise_config.seed = crate::hash::mix64(target.config().seed ^ 0xD12A_F7ED);
        noise_config.weight_jitter = 0.8;
        Self {
            // Cloning shares the target's distribution memo: contexts the
            // draft pass evaluates are cache hits for verification.
            target: target.clone(),
            noise: noise_config,
            divergence,
            memo: DistMemo::shared(),
            counts: Arc::default(),
            scratch: Mutex::default(),
        }
    }

    /// Base (class-unscaled) divergence δ.
    pub fn divergence(&self) -> f64 {
        self.divergence
    }

    /// Hit/miss counters of this model's blended-draft memo lookups.
    /// (The inner target model's lookups count with the pair's target.)
    pub fn cache_stats(&self) -> MemoStats {
        self.counts.stats()
    }

    /// The blended-draft distribution memo.
    pub fn cache(&self) -> &DistMemo {
        &self.memo
    }

    /// Effective divergence for a content class, clamped to [0, 1].
    pub fn effective_divergence(&self, class: crate::ContentClass) -> f64 {
        (self.divergence * class.divergence_scale()).clamp(0.0, 1.0)
    }
}

impl Lm for DraftLm {
    fn vocab_size(&self) -> u32 {
        self.target.vocab_size()
    }

    fn next_dist(&self, ctx: &LmContext<'_>) -> SparseDist {
        (*self.next_dist_arc(ctx)).clone()
    }

    fn next_dist_arc(&self, ctx: &LmContext<'_>) -> Arc<SparseDist> {
        let delta = self.effective_divergence(ctx.class);
        if delta == 0.0 {
            return self.target.next_dist_arc(ctx);
        }
        // ctx.hash() already folds in class and stream; the salt keeps the
        // key space disjoint from the raw context hash.
        let key = crate::hash::mix64(ctx.hash() ^ 0xD4AF_7B1E_57D1_57D1);
        let (dist, hit) = self.memo.get_or_fill(key, |dist| {
            let mut s = self.scratch.lock().expect("draft scratch lock");
            s.blend_into(&self.target, &self.noise, ctx, delta, dist);
        });
        self.counts.record(hit);
        dist
    }

    /// Fused top-`w` of the blended draft head through the allocation-free
    /// kernel (module `kernel`): beam search needs only the `w` (≤ beam
    /// width, a handful) most likely tokens, so the blended head is never
    /// sorted or materialized as a distribution. Values and order are
    /// bit-identical to `next_dist_extended(..).top_k(w)`.
    fn top_w_extended(
        &self,
        ctx: &LmContext<'_>,
        extra: &[crate::TokenId],
        w: usize,
        scratch: &mut Vec<crate::TokenId>,
        out: &mut Vec<(crate::TokenId, f64)>,
    ) {
        let delta = self.effective_divergence(ctx.class);
        if w == 0 || delta == 0.0 || delta >= 1.0 {
            // No mixture (δ = 0 is the target itself) or a degenerate one:
            // the full distribution, through the memos.
            let dist = self.next_dist_extended_arc(ctx, extra, scratch);
            out.clear();
            out.extend_from_slice(dist.top_k(w));
            return;
        }
        scratch.clear();
        scratch.extend_from_slice(ctx.window());
        scratch.extend_from_slice(extra);
        let ext = LmContext::new(ctx.stream_seed, ctx.class, scratch);
        let mut s = self.scratch.lock().expect("draft scratch lock");
        s.top_w(&self.target, &self.noise, &ext, delta, w, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lm::ContentClass;
    use crate::TokenId;

    fn make_pair(delta: f64) -> (TargetLm, DraftLm) {
        let t = TargetLm::new(TargetLmConfig::default_with_seed(77));
        let d = DraftLm::from_target(&t, delta);
        (t, d)
    }

    fn total_variation(p: &SparseDist, q: &SparseDist) -> f64 {
        let mut tokens: Vec<TokenId> = p.entries().iter().map(|&(t, _)| t).collect();
        tokens.extend(q.entries().iter().map(|&(t, _)| t));
        tokens.sort();
        tokens.dedup();
        0.5 * tokens
            .iter()
            .map(|&t| (p.prob(t) - q.prob(t)).abs())
            .sum::<f64>()
    }

    #[test]
    fn zero_divergence_matches_target() {
        let (t, d) = make_pair(0.0);
        let tokens = vec![TokenId(4), TokenId(5)];
        let ctx = LmContext::new(3, ContentClass::Chat, &tokens);
        assert_eq!(t.next_dist(&ctx), d.next_dist(&ctx));
    }

    #[test]
    fn divergence_increases_distance() {
        let tokens = vec![TokenId(4), TokenId(5)];
        let ctx = LmContext::new(3, ContentClass::Chat, &tokens);
        let (t, d_small) = make_pair(0.05);
        let (_, d_large) = make_pair(0.5);
        let p = t.next_dist(&ctx);
        let tv_small = total_variation(&p, &d_small.next_dist(&ctx));
        let tv_large = total_variation(&p, &d_large.next_dist(&ctx));
        assert!(tv_small < tv_large, "{tv_small} !< {tv_large}");
        assert!(tv_small > 0.0);
    }

    #[test]
    fn code_drafts_align_better_than_news() {
        let (t, d) = make_pair(0.25);
        let tokens = vec![TokenId(4), TokenId(5)];
        let mut tv = std::collections::HashMap::new();
        for s in 0..40u64 {
            for class in [ContentClass::Code, ContentClass::News] {
                let ctx = LmContext::new(s, class, &tokens);
                *tv.entry(class).or_insert(0.0) +=
                    total_variation(&t.next_dist(&ctx), &d.next_dist(&ctx)) / 40.0;
            }
        }
        assert!(tv[&ContentClass::Code] < tv[&ContentClass::News]);
    }

    #[test]
    fn fused_top_w_matches_full_distribution_top_k() {
        // The beam-search fast path must return bit-identical entries to
        // slicing the fully constructed blended distribution.
        let (_, d) = make_pair(0.25);
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        for s in 0..200u64 {
            let tokens = vec![
                TokenId((s % 97) as u32 + 2),
                TokenId(5),
                TokenId((s % 13) as u32 + 1),
            ];
            for class in ContentClass::ALL {
                let ctx = LmContext::new(s, class, &tokens);
                for w in [1usize, 2, 4, 7, 64] {
                    d.top_w_extended(&ctx, &[], w, &mut scratch, &mut out);
                    let full = d.next_dist(&ctx);
                    assert_eq!(
                        out.as_slice(),
                        full.top_k(w),
                        "fused top-{w} diverged (seed {s}, {class:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_top_w_matches_with_extension() {
        let (_, d) = make_pair(0.18);
        let base = vec![TokenId(4), TokenId(5)];
        let extra = vec![TokenId(9), TokenId(11)];
        let ctx = LmContext::new(3, ContentClass::Code, &base);
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        d.top_w_extended(&ctx, &extra, 4, &mut scratch, &mut out);
        let full = d.next_dist_extended(&ctx, &extra, &mut scratch);
        assert_eq!(out.as_slice(), full.top_k(4));
    }

    #[test]
    fn wide_heads_take_the_exact_general_blend_path() {
        // Heads wider than 64 entries (the limit of an earlier fused
        // path) must stay exact: valid, and consistent between the full
        // distribution and the fused top-w.
        let mut config = crate::TargetLmConfig::default_with_seed(3);
        config.head_width = 80;
        let t = TargetLm::new(config);
        let d = DraftLm::from_target(&t, 0.25);
        let tokens = vec![TokenId(4), TokenId(5)];
        let ctx = LmContext::new(3, ContentClass::Chat, &tokens);
        let dist = d.next_dist(&ctx);
        dist.validate().expect("valid wide-head draft dist");
        assert!(dist.entries().len() > 64, "head really is wide");
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        d.top_w_extended(&ctx, &[], 4, &mut scratch, &mut out);
        assert_eq!(out.as_slice(), dist.top_k(4));
    }

    #[test]
    fn draft_dists_are_valid() {
        let (_, d) = make_pair(0.3);
        let tokens = vec![TokenId(9)];
        for class in ContentClass::ALL {
            let ctx = LmContext::new(11, class, &tokens);
            d.next_dist(&ctx).validate().expect("valid draft dist");
        }
    }

    #[test]
    #[should_panic(expected = "divergence")]
    fn divergence_out_of_range_rejected() {
        let t = TargetLm::new(TargetLmConfig::default_with_seed(1));
        let _ = DraftLm::from_target(&t, 1.5);
    }
}
