//! Sparse next-token distributions.
//!
//! Real LLM logits span a vocabulary of ~128k entries, but speculative
//! decoding only ever inspects the high-probability head: beam-search
//! speculation expands the top-w tokens and verification accepts tokens whose
//! mass is non-negligible. [`SparseDist`] therefore stores an explicit sorted
//! head of top-K tokens plus a uniform tail over the rest of the vocabulary,
//! giving O(K) distribution operations regardless of vocabulary size.

use crate::hash::mix64;
use crate::vocab::TokenId;

/// Relative tolerance used for normalization checks.
pub const NORM_EPS: f64 = 1e-9;

/// A sparse probability distribution over the vocabulary.
///
/// Invariants (enforced by constructors, validated by [`SparseDist::validate`]):
///
/// * `entries` are sorted by descending probability (ties broken by token id),
/// * token ids are unique and within the vocabulary,
/// * all probabilities are positive,
/// * head + tail mass sums to 1 within [`NORM_EPS`].
#[derive(Debug, Clone, PartialEq)]
pub struct SparseDist {
    entries: Vec<(TokenId, f64)>,
    tail_mass: f64,
    vocab_size: u32,
}

impl SparseDist {
    /// Builds a distribution from raw (token, weight) pairs plus a tail weight.
    ///
    /// Weights are normalized; duplicate tokens are merged. `tail_weight`
    /// spreads uniformly over all tokens not present in `weights`.
    ///
    /// # Panics
    ///
    /// Panics if every weight is zero or any weight is negative/non-finite.
    pub fn from_weights(
        mut weights: Vec<(TokenId, f64)>,
        tail_weight: f64,
        vocab_size: u32,
    ) -> Self {
        assert!(tail_weight >= 0.0 && tail_weight.is_finite());
        for &(t, w) in &weights {
            assert!(w >= 0.0 && w.is_finite(), "bad weight {w} for {t}");
            assert!(t.0 < vocab_size, "token {t} out of vocab");
        }
        // Merge duplicates.
        weights.sort_by_key(|&(t, _)| t);
        weights.dedup_by(|a, b| {
            if a.0 == b.0 {
                b.1 += a.1;
                true
            } else {
                false
            }
        });
        weights.retain(|&(_, w)| w > 0.0);
        let head: f64 = weights.iter().map(|&(_, w)| w).sum();
        let total = head + tail_weight;
        assert!(total > 0.0, "distribution has zero total mass");
        let mut entries: Vec<(TokenId, f64)> =
            weights.into_iter().map(|(t, w)| (t, w / total)).collect();
        Self::sort_entries(&mut entries);
        Self {
            entries,
            tail_mass: tail_weight / total,
            vocab_size,
        }
    }

    /// Builds a distribution that puts all mass on a single token.
    pub fn delta(token: TokenId, vocab_size: u32) -> Self {
        Self::from_weights(vec![(token, 1.0)], 0.0, vocab_size)
    }

    /// Fast path of [`SparseDist::from_weights`] for weights with
    /// **distinct tokens and strictly positive weights** (the hot-loop
    /// constructors: model heads, blends, residuals all produce such
    /// weights by construction).
    ///
    /// Bit-identical to `from_weights` on such input: the head mass is
    /// summed in token-sorted order exactly as `from_weights` does after
    /// its dedup pass, and both sort keys are total orders with no equal
    /// elements (tokens are distinct), so the unstable sorts used here
    /// reproduce the stable sorts' output without their merge-buffer
    /// allocations. Skips the dedup and retain passes entirely.
    pub(crate) fn from_distinct_weights(
        mut weights: Vec<(TokenId, f64)>,
        tail_weight: f64,
        vocab_size: u32,
    ) -> Self {
        debug_assert!(tail_weight >= 0.0 && tail_weight.is_finite());
        weights.sort_unstable_by_key(|&(t, _)| t);
        debug_assert!(
            weights.windows(2).all(|w| w[0].0 != w[1].0),
            "from_distinct_weights requires distinct tokens"
        );
        debug_assert!(
            weights
                .iter()
                .all(|&(t, w)| w > 0.0 && w.is_finite() && t.0 < vocab_size),
            "from_distinct_weights requires positive weights within vocab"
        );
        let head: f64 = weights.iter().map(|&(_, w)| w).sum();
        let total = head + tail_weight;
        assert!(total > 0.0, "distribution has zero total mass");
        for w in &mut weights {
            w.1 /= total;
        }
        weights.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite probs")
                .then_with(|| a.0.cmp(&b.0))
        });
        Self {
            entries: weights,
            tail_mass: tail_weight / total,
            vocab_size,
        }
    }

    /// A placeholder with no head, for a memo slot about to be filled
    /// by [`SparseDist::refill`]. Not a valid distribution on its own.
    pub(crate) fn unfilled() -> Self {
        Self {
            entries: Vec::new(),
            tail_mass: 0.0,
            vocab_size: 0,
        }
    }

    /// Rebuilds `self` in place, keeping the head's allocation: `fill`
    /// pushes normalized head entries, already in head order, into the
    /// cleared head and returns the tail mass (the kernel's miss paths).
    /// Invariants are debug-checked via `validate`.
    pub(crate) fn refill(
        &mut self,
        vocab_size: u32,
        fill: impl FnOnce(&mut Vec<(TokenId, f64)>) -> f64,
    ) {
        self.entries.clear();
        self.tail_mass = fill(&mut self.entries);
        self.vocab_size = vocab_size;
        debug_assert_eq!(self.validate(), Ok(()));
    }

    fn sort_entries(entries: &mut [(TokenId, f64)]) {
        entries.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite probs")
                .then_with(|| a.0.cmp(&b.0))
        });
    }

    /// The explicit head entries, sorted by descending probability.
    pub fn entries(&self) -> &[(TokenId, f64)] {
        &self.entries
    }

    /// Mass spread uniformly over tokens absent from the head.
    pub fn tail_mass(&self) -> f64 {
        self.tail_mass
    }

    /// Vocabulary size this distribution is defined over.
    pub fn vocab_size(&self) -> u32 {
        self.vocab_size
    }

    /// Probability of `token`.
    pub fn prob(&self, token: TokenId) -> f64 {
        for &(t, p) in &self.entries {
            if t == token {
                return p;
            }
        }
        let tail_count = self.vocab_size as usize - self.entries.len();
        if tail_count == 0 {
            0.0
        } else {
            self.tail_mass / tail_count as f64
        }
    }

    /// The most likely token.
    pub fn top1(&self) -> TokenId {
        self.entries.first().map(|&(t, _)| t).unwrap_or(TokenId(0))
    }

    /// The `k` most likely tokens with their probabilities.
    pub fn top_k(&self, k: usize) -> &[(TokenId, f64)] {
        &self.entries[..k.min(self.entries.len())]
    }

    /// Shannon entropy in nats (tail counted as a uniform block).
    pub fn entropy(&self) -> f64 {
        let mut h = 0.0;
        for &(_, p) in &self.entries {
            if p > 0.0 {
                h -= p * p.ln();
            }
        }
        let tail_count = self.vocab_size as usize - self.entries.len();
        if self.tail_mass > 0.0 && tail_count > 0 {
            let per = self.tail_mass / tail_count as f64;
            h -= self.tail_mass * per.ln();
        }
        h
    }

    /// Samples a token from the inverse CDF at `u ∈ [0, 1)`.
    ///
    /// Tail samples pick a deterministic pseudo-uniform token outside the
    /// head (linear probing resolves the rare collision with a head token).
    pub fn sample(&self, u: f64) -> TokenId {
        debug_assert!((0.0..1.0).contains(&u));
        let mut acc = 0.0;
        for &(t, p) in &self.entries {
            acc += p;
            if u < acc {
                return t;
            }
        }
        // Tail: derive a pseudo-token from the residual position.
        let residual = if self.tail_mass > 0.0 {
            (u - acc).max(0.0) / self.tail_mass
        } else {
            0.0
        };
        let mut candidate = mix64((residual * (1u64 << 52) as f64) as u64 ^ 0x7A11_5EED_0BAD_F00D)
            % u64::from(self.vocab_size);
        // Probe against the head in place: the head is tiny, and this runs
        // on every tail sample — no temporary token Vec.
        while self
            .entries
            .iter()
            .any(|&(t, _)| u64::from(t.0) == candidate)
        {
            candidate = (candidate + 1) % u64::from(self.vocab_size);
        }
        TokenId(candidate as u32)
    }

    /// Blends two distributions: `(1 - alpha) * self + alpha * other`.
    ///
    /// Used to derive draft distributions from target distributions with a
    /// controlled divergence. The result's head is the union of both heads.
    pub fn blend(&self, other: &SparseDist, alpha: f64) -> SparseDist {
        assert!((0.0..=1.0).contains(&alpha));
        assert_eq!(self.vocab_size, other.vocab_size);
        let mut weights: Vec<(TokenId, f64)> =
            Vec::with_capacity(self.entries.len() + other.entries.len());
        for &(t, p) in &self.entries {
            weights.push((t, (1.0 - alpha) * p + alpha * other.head_prob(t)));
        }
        for &(t, q) in &other.entries {
            if self.head_prob(t) == 0.0 {
                weights.push((t, alpha * q));
            }
        }
        let tail = (1.0 - alpha) * self.tail_mass + alpha * other.tail_mass;
        if alpha == 0.0 || alpha == 1.0 {
            // Degenerate mixtures produce zero weights that must be
            // dropped; only the general constructor handles that.
            return SparseDist::from_weights(weights, tail, self.vocab_size);
        }
        // With 0 < alpha < 1 the union head has distinct tokens (self's
        // head, plus other-only tokens) and strictly positive weights:
        // take the sort-light constructor.
        SparseDist::from_distinct_weights(weights, tail, self.vocab_size)
    }

    /// Probability of `token` counting only the explicit head (0 if in tail).
    fn head_prob(&self, token: TokenId) -> f64 {
        self.entries
            .iter()
            .find(|&&(t, _)| t == token)
            .map(|&(_, p)| p)
            .unwrap_or(0.0)
    }

    /// Truncates to the top-`k` head and renormalizes head + tail.
    pub fn truncate_top_k(&self, k: usize) -> SparseDist {
        let kept: Vec<(TokenId, f64)> = self.top_k(k).to_vec();
        let dropped: f64 = self.entries[k.min(self.entries.len())..]
            .iter()
            .map(|&(_, p)| p)
            .sum();
        SparseDist::from_weights(kept, self.tail_mass + dropped, self.vocab_size)
    }

    /// Applies a temperature `tau` to the head and renormalizes.
    ///
    /// `tau < 1` sharpens, `tau > 1` flattens. The tail mass is scaled to
    /// keep head/tail balance consistent with the sharpened head.
    pub fn with_temperature(&self, tau: f64) -> SparseDist {
        assert!(tau > 0.0);
        let weights: Vec<(TokenId, f64)> = self
            .entries
            .iter()
            .map(|&(t, p)| (t, p.powf(1.0 / tau)))
            .collect();
        let tail = self.tail_mass.powf(1.0 / tau).min(1.0);
        SparseDist::from_weights(weights, tail, self.vocab_size)
    }

    /// Residual distribution `norm(max(self − other, 0))` used by
    /// rejection-sampling speculative decoding.
    ///
    /// After a draft proposal from `other` is rejected, the target resamples
    /// from this residual (Leviathan et al. \[23\]; SpecInfer's multi-branch
    /// variant applies it per sibling). Head entries subtract pointwise; the
    /// tails subtract as uniform blocks (exact when both tails spread over
    /// nearly the same complement set, which holds here since heads are
    /// tiny relative to the vocabulary).
    ///
    /// Returns `None` if the residual has (numerically) no mass, i.e.
    /// `other` dominates `self` everywhere.
    pub fn residual(&self, other: &SparseDist) -> Option<SparseDist> {
        assert_eq!(self.vocab_size, other.vocab_size);
        let mut weights: Vec<(TokenId, f64)> = Vec::with_capacity(self.entries.len());
        let tail_count = (self.vocab_size as usize)
            .saturating_sub(self.entries.len())
            .max(1) as f64;
        let other_tail_per = other.tail_mass
            / ((other.vocab_size as usize)
                .saturating_sub(other.entries.len())
                .max(1) as f64);
        for &(t, p) in &self.entries {
            let q = if other.head_prob(t) > 0.0 {
                other.head_prob(t)
            } else {
                other_tail_per
            };
            let r = p - q;
            if r > 0.0 {
                weights.push((t, r));
            }
        }
        // Tokens only in `other`'s head contribute nothing (self's mass there
        // is tail-level, almost surely below other's head mass).
        let self_tail_per = self.tail_mass / tail_count;
        let tail = (self_tail_per - other_tail_per).max(0.0) * tail_count;
        let total: f64 = weights.iter().map(|&(_, w)| w).sum::<f64>() + tail;
        if total <= 1e-12 {
            return None;
        }
        // Residual weights are distinct (drawn from self's head) and kept
        // only when strictly positive.
        Some(SparseDist::from_distinct_weights(
            weights,
            tail,
            self.vocab_size,
        ))
    }

    /// Total-variation overlap `Σ min(self, other)` over the union head
    /// (the expected single-draft acceptance rate of rejection sampling).
    pub fn overlap(&self, other: &SparseDist) -> f64 {
        let mut tokens: Vec<TokenId> = self.entries.iter().map(|&(t, _)| t).collect();
        tokens.extend(other.entries.iter().map(|&(t, _)| t));
        tokens.sort();
        tokens.dedup();
        let head: f64 = tokens
            .iter()
            .map(|&t| self.prob(t).min(other.prob(t)))
            .sum();
        head + self.tail_mass.min(other.tail_mass)
    }

    /// Checks all structural invariants, returning a description on failure.
    pub fn validate(&self) -> Result<(), String> {
        let mut total = self.tail_mass;
        let mut prev = f64::INFINITY;
        let mut seen = std::collections::HashSet::new();
        for &(t, p) in &self.entries {
            if p <= 0.0 || !p.is_finite() {
                return Err(format!("non-positive prob {p} for {t}"));
            }
            if p > prev + NORM_EPS {
                return Err("entries not sorted by descending prob".into());
            }
            if !seen.insert(t) {
                return Err(format!("duplicate token {t}"));
            }
            if t.0 >= self.vocab_size {
                return Err(format!("token {t} outside vocab"));
            }
            prev = p;
            total += p;
        }
        if (total - 1.0).abs() > 1e-6 {
            return Err(format!("mass sums to {total}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(entries: Vec<(u32, f64)>, tail: f64) -> SparseDist {
        SparseDist::from_weights(
            entries.into_iter().map(|(t, w)| (TokenId(t), w)).collect(),
            tail,
            1000,
        )
    }

    #[test]
    fn from_weights_normalizes_and_sorts() {
        let dist = d(vec![(5, 1.0), (3, 3.0)], 1.0);
        assert!(dist.validate().is_ok());
        assert_eq!(dist.top1(), TokenId(3));
        assert!((dist.prob(TokenId(3)) - 0.6).abs() < 1e-12);
        assert!((dist.prob(TokenId(5)) - 0.2).abs() < 1e-12);
        assert!((dist.tail_mass() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn duplicates_are_merged() {
        let dist = d(vec![(5, 1.0), (5, 1.0)], 0.0);
        assert_eq!(dist.entries().len(), 1);
        assert!((dist.prob(TokenId(5)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sample_walks_the_cdf() {
        let dist = d(vec![(3, 0.6), (5, 0.3)], 0.1);
        assert_eq!(dist.sample(0.0), TokenId(3));
        assert_eq!(dist.sample(0.59), TokenId(3));
        assert_eq!(dist.sample(0.61), TokenId(5));
        let tail_token = dist.sample(0.95);
        assert_ne!(tail_token, TokenId(3));
        assert_ne!(tail_token, TokenId(5));
    }

    #[test]
    fn blend_interpolates() {
        let p = d(vec![(1, 1.0)], 0.0);
        let q = d(vec![(2, 1.0)], 0.0);
        let half = p.blend(&q, 0.5);
        assert!((half.prob(TokenId(1)) - 0.5).abs() < 1e-12);
        assert!((half.prob(TokenId(2)) - 0.5).abs() < 1e-12);
        assert!(half.validate().is_ok());
    }

    #[test]
    fn blend_alpha_zero_is_identity_on_head() {
        let p = d(vec![(1, 0.7), (2, 0.2)], 0.1);
        let q = d(vec![(9, 1.0)], 0.0);
        let b = p.blend(&q, 0.0);
        assert!((b.prob(TokenId(1)) - 0.7).abs() < 1e-12);
        assert!((b.prob(TokenId(9)) - 0.0001).abs() < 1e-3);
    }

    #[test]
    fn truncate_moves_mass_to_tail() {
        let dist = d(vec![(1, 0.5), (2, 0.3), (3, 0.2)], 0.0);
        let t = dist.truncate_top_k(1);
        assert_eq!(t.entries().len(), 1);
        assert!((t.tail_mass() - 0.5).abs() < 1e-12);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn entropy_of_delta_is_zero() {
        let dist = SparseDist::delta(TokenId(7), 100);
        assert!(dist.entropy().abs() < 1e-12);
    }

    #[test]
    fn temperature_sharpens_and_flattens() {
        let dist = d(vec![(1, 0.6), (2, 0.4)], 0.0);
        let sharp = dist.with_temperature(0.5);
        let flat = dist.with_temperature(2.0);
        assert!(sharp.prob(TokenId(1)) > dist.prob(TokenId(1)));
        assert!(flat.prob(TokenId(1)) < dist.prob(TokenId(1)));
    }

    #[test]
    fn residual_removes_dominated_mass() {
        let p = d(vec![(1, 0.6), (2, 0.4)], 0.0);
        let q = d(vec![(1, 1.0)], 0.0);
        let r = p.residual(&q).expect("residual exists");
        // Token 1 is dominated by q; all residual mass concentrates on 2.
        assert!(r.prob(TokenId(2)) > 0.99);
        assert!(r.validate().is_ok());
    }

    #[test]
    fn residual_of_self_is_none() {
        let p = d(vec![(1, 0.6), (2, 0.4)], 0.0);
        assert!(p.residual(&p).is_none());
    }

    #[test]
    fn overlap_is_symmetric_and_bounded() {
        let p = d(vec![(1, 0.6), (2, 0.4)], 0.0);
        let q = d(vec![(1, 0.3), (3, 0.7)], 0.0);
        let o1 = p.overlap(&q);
        let o2 = q.overlap(&p);
        assert!((o1 - o2).abs() < 1e-12);
        assert!((o1 - 0.3).abs() < 1e-12);
        assert!((p.overlap(&p) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn validate_catches_bad_mass() {
        let mut dist = d(vec![(1, 0.6), (2, 0.4)], 0.0);
        dist.tail_mass = 0.5;
        assert!(dist.validate().is_err());
    }
}
