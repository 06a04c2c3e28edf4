//! The fused draft-expansion kernel.
//!
//! Beam-search speculation expands every candidate-tree node through
//! [`crate::Lm::top_w_extended`] of the draft model, and on a serving
//! run that expansion is nearly all of the simulator's CPU time. The
//! unfused chain it replaces reads:
//!
//! 1. the target distribution `p` — a [`crate::DistMemo`] hit, or on a
//!    miss the raw hash-model head normalized by
//!    [`SparseDist::from_weights`];
//! 2. the noise distribution `n`, built the same way from the noise
//!    model's seed;
//! 3. the mixture `p.blend(&n, δ)`;
//! 4. its `top_k(w)`.
//!
//! This module computes the same values in one pass over buffers that
//! are reused across calls, so an expansion allocates nothing once warm:
//! the memo is probed first; both raw heads are generated straight into
//! one buffer (a target miss then rebuilds the evicted memo entry in
//! place); one counting sort of packed `(token, index)` keys gives the
//! token order of both heads at once; and top-`w` is selected by
//! insertion, dividing only the candidates that can still qualify.
//!
//! # Bit identity
//!
//! Every probability equals the unfused chain's to the last bit (pinned
//! by `tests/bit_identity.rs`) because every floating-point operation is
//! the same operation on the same operands in the same order:
//!
//! * **Raw weights.** Head tokens come from the same `seed_stream`
//!   draws. Skipping repeated draws keeps the first `head_width` draws
//!   unchanged when they are distinct, so the kernel takes those and
//!   lets the token sort detect a repeat, which sends both heads back
//!   through the skipping generator (rare: ~0.2% of 24-token heads over
//!   the default vocabulary). A weight is
//!   `decay^i · (1 + j·(u − ½))`, where `decay^i` is read from a table
//!   filled once per process by the same `f64::powi` call the unfused
//!   code makes per entry (its inputs pass through `black_box`, so the
//!   compiler cannot constant-fold `powi` with a different rounding).
//!   The raw tail weight uses the head sum in generation order, as
//!   before.
//! * **Normalization sums.** `from_weights` sums a head in ascending
//!   token order. The sorted keys order each head's tokens ascending
//!   (tokens within one head are distinct, and the index says which head
//!   a key belongs to); each head's sum walks all keys and adds `+0.0`
//!   for the other head's, which leaves a sum of positive terms exact.
//!   The mixture's sum walks the same keys; a token present in both heads
//!   yields two adjacent keys, merged into one entry exactly as `blend`
//!   merges it.
//! * **Mixture weights.** `(1 − δ)·p + δ·q` for shared tokens, `δ·q` for
//!   noise-only ones, and `(1 − δ)·p` for target-only ones, which equals
//!   `blend`'s `(1 − δ)·p + δ·0` since adding `+0.0` to a non-negative
//!   value is exact. Zero weights (δ = 1) are dropped, as `from_weights`
//!   drops them.
//! * **Order.** Probabilities are `weight / total`, each its own
//!   division. Top-`w` ranks by those final probabilities — two weights
//!   may round to one probability, so weights alone cannot rank — in the
//!   head order of [`SparseDist`] (probability descending, token
//!   ascending), a total order on distinct tokens, so the order in which
//!   candidates are offered cannot change the result. A candidate is
//!   skipped undivided only when its weight lies far enough below
//!   `total` times the current w-th probability (a relative 2⁻⁵⁰) that
//!   its own probability is provably smaller.

use crate::dist::SparseDist;
use crate::hash::{seed_stream, unit_f64};
use crate::lm::ContentClass;
use crate::target::{TargetLm, TargetLmConfig};
use crate::vocab::{TokenId, NUM_SPECIAL_TOKENS};
use std::sync::OnceLock;

/// Head positions whose decay powers are tabulated; longer heads (none
/// of the shipped configurations) fall back to `powi` per entry.
const DECAY_TABLE_LEN: usize = 128;

/// `class.head_decay().powi(i)` for `i < DECAY_TABLE_LEN`, per class,
/// built once per process.
fn decay_powers(class: ContentClass) -> &'static [f64; DECAY_TABLE_LEN] {
    static TABLE: OnceLock<[[f64; DECAY_TABLE_LEN]; 3]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [[0.0; DECAY_TABLE_LEN]; 3];
        for class in ContentClass::ALL {
            let decay = std::hint::black_box(class.head_decay());
            for (i, p) in table[class.id() as usize].iter_mut().enumerate() {
                *p = decay.powi(std::hint::black_box(i as i32));
            }
        }
        table
    });
    &table[class.id() as usize]
}

/// Appends a hash model's head for context hash `h` to `out`, in
/// generation order, and returns its raw tail weight (the weight that
/// makes the head hold `head_mass`).
///
/// The head is `head_width` distinct pseudo-uniform non-special tokens,
/// drawn from `seed_stream(h, 0), seed_stream(h, 1), …` with repeats
/// skipped, carrying geometric-with-jitter weights by position. With
/// `exact` unset only the first `head_width` draws are taken, repeats
/// and all: that *is* the head whenever those draws are distinct (all
/// but ~0.2% of 24-token heads over the default vocabulary), which the
/// callers check once they have sorted the tokens, retrying exactly.
///
/// Generation order is strictly descending for every supported decay
/// and jitter, so the normalized head usually needs no reordering.
pub(crate) fn raw_head(
    config: &TargetLmConfig,
    h: u64,
    class: ContentClass,
    out: &mut Vec<(TokenId, f64)>,
    exact: bool,
) -> f64 {
    let n = config.head_width;
    let space = u64::from(config.vocab.size() - NUM_SPECIAL_TOKENS);
    let token = |draw: u64| TokenId(NUM_SPECIAL_TOKENS + (seed_stream(h, draw) % space) as u32);
    let start = out.len();
    out.reserve(n);
    if exact {
        let mut draw = 0;
        while out.len() - start < n {
            let t = token(draw);
            draw += 1;
            if !out[start..].iter().any(|e| e.0 == t) {
                out.push((t, 0.0));
            }
        }
    } else {
        out.extend((0..n as u64).map(|draw| (token(draw), 0.0)));
    }
    let powers = decay_powers(class);
    let jitter_seed = h ^ 0x0117_7E12;
    let mut head_sum = 0.0;
    for (i, e) in out[start..].iter_mut().enumerate() {
        let base = match powers.get(i) {
            Some(&p) => p,
            None => class.head_decay().powi(i as i32),
        };
        e.1 = if config.weight_jitter > 0.0 {
            // Multiplicative jitter in [1 - j/2, 1 + j/2].
            let u = unit_f64(seed_stream(jitter_seed, i as u64));
            base * (1.0 + config.weight_jitter * (u - 0.5))
        } else {
            base
        };
        head_sum += e.1;
    }
    head_sum * (1.0 - config.head_mass) / config.head_mass
}

/// Packs `(token, index)` so that sorting orders by token; the index
/// (below 2³²) says which head and entry the key stands for.
fn key(t: TokenId, index: usize) -> u64 {
    (u64::from(t.0) << 32) | index as u64
}

fn index(key: u64) -> usize {
    (key & 0xFFFF_FFFF) as usize
}

/// Fills `keys` (as long as `entries`) with the packed keys of
/// `entries`, sorted: their ascending token order.
///
/// Tokens are pseudo-uniform over the vocabulary, so a counting sort on
/// each token's top 7 bits spreads the keys over 128 buckets, and an
/// insertion pass finishes the few buckets holding more than one key.
/// (A comparison sort of ~50 random keys spends most of its time on
/// mispredicted branches.)
fn token_order(keys: &mut [u64], entries: &[(TokenId, f64)], vocab_size: u32) {
    const BUCKETS: usize = 128;
    let shift = (32 - vocab_size.leading_zeros()).saturating_sub(BUCKETS.trailing_zeros());
    let bucket = |t: TokenId| (t.0 >> shift) as usize;
    let mut starts = [0u32; BUCKETS];
    for e in entries {
        starts[bucket(e.0)] += 1;
    }
    // Exclusive prefix sums, carried in a register (not through memory).
    let mut sum = 0;
    for start in &mut starts {
        let count = *start;
        *start = sum;
        sum += count;
    }
    for (i, e) in entries.iter().enumerate() {
        let slot = &mut starts[bucket(e.0)];
        keys[*slot as usize] = key(e.0, i);
        *slot += 1;
    }
    for i in 1..keys.len() {
        let k = keys[i];
        let mut j = i;
        while j > 0 && keys[j - 1] > k {
            keys[j] = keys[j - 1];
            j -= 1;
        }
        keys[j] = k;
    }
}

/// The head order of [`SparseDist`]: probability descending, token
/// ascending.
fn head_order(a: &(TokenId, f64), b: &(TokenId, f64)) -> std::cmp::Ordering {
    b.1.partial_cmp(&a.1)
        .expect("finite probs")
        .then_with(|| a.0.cmp(&b.0))
}

/// Sorts a normalized target head into head order: a no-op unless
/// jitter broke the strict descent of generation order.
fn into_head_order(entries: &mut [(TokenId, f64)]) {
    if !entries.windows(2).all(|p| p[0].1 > p[1].1) {
        entries.sort_unstable_by(head_order);
    }
}

/// The miss path of [`TargetLm`]'s memo: computes the distribution for
/// context hash `h` into `dist`, reusing its head allocation.
pub(crate) fn fill_target(
    config: &TargetLmConfig,
    h: u64,
    class: ContentClass,
    dist: &mut SparseDist,
) {
    dist.refill(config.vocab.size(), |entries| {
        // The token order lives on the stack for every shipped width.
        let mut stack = [0u64; DECAY_TABLE_LEN];
        let mut heap = Vec::new();
        let keys: &mut [u64] = if config.head_width <= stack.len() {
            &mut stack[..config.head_width]
        } else {
            heap.resize(config.head_width, 0);
            &mut heap
        };
        let (tail_weight, head) = [false, true]
            .into_iter()
            .find_map(|exact| {
                entries.clear();
                let tail_weight = raw_head(config, h, class, entries, exact);
                token_order(keys, entries, config.vocab.size());
                let (_, head) = head_sums(keys, entries, 0, &mut Vec::new())?;
                Some((tail_weight, head))
            })
            .expect("an exact head has distinct tokens");
        let total = head + tail_weight;
        scale(entries, total);
        into_head_order(entries);
        tail_weight / total
    });
}

/// Reused buffers of the draft kernel (one set per draft model).
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Both heads in generation order — the noise head's entries first,
    /// then the target head's (head order on a memo hit) — as raw
    /// weights, then probabilities.
    heads: Vec<(TokenId, f64)>,
    /// Packed keys of `heads`, sorted: the union's token order.
    keys: Vec<u64>,
    /// Mixture weight per `heads` entry. A token in both heads keeps its
    /// weight on the target's entry and 0 on the noise's; zero weights
    /// (δ = 1 zeroes the target-only tokens) are not in the mixture.
    mixed: Vec<f64>,
    /// `(noise, target)` index pairs of the tokens in both heads.
    shared: Vec<(usize, usize)>,
}

/// Both heads' normalization sums, in token order, in one pass over the
/// sorted keys: `(noise, target)`, where the first `n` entries of
/// `heads` are the noise head's. Adding `+0.0` for the other head's
/// entries leaves each sum exact and the loop free of branches. Tokens
/// in both heads are recorded in `shared` as `(noise, target)` index
/// pairs (their keys are adjacent, the noise entry's first). Returns
/// `None` if a token repeats within one head (see [`raw_head`]).
fn head_sums(
    keys: &[u64],
    heads: &[(TokenId, f64)],
    n: usize,
    shared: &mut Vec<(usize, usize)>,
) -> Option<(f64, f64)> {
    shared.clear();
    let (mut noise, mut target) = (0.0, 0.0);
    for (k, &key) in keys.iter().enumerate() {
        let i = index(key);
        let w = heads[i].1;
        noise += masked(w, i < n);
        target += masked(w, i >= n);
        if let Some(&next) = keys.get(k + 1) {
            if next >> 32 == key >> 32 {
                let j = index(next);
                if (i < n) == (j < n) {
                    return None;
                }
                shared.push((i, j));
            }
        }
    }
    Some((noise, target))
}

/// `w` if `keep`, else `+0.0`, as a bit mask: a data-dependent choice
/// the compiler cannot turn into an unpredictable branch.
fn masked(w: f64, keep: bool) -> f64 {
    f64::from_bits(w.to_bits() & u64::from(keep).wrapping_neg())
}

/// Divides a head's entries by `total`.
fn scale(entries: &mut [(TokenId, f64)], total: f64) {
    for e in entries {
        e.1 /= total;
    }
}

/// The target head [`Scratch::fill_heads`] places after the noise head.
enum TargetHead<'a> {
    /// Generated from the target's configuration and memo key (a miss).
    Raw(&'a TargetLmConfig, u64),
    /// Copied from the cached distribution (a hit).
    Cached(&'a [(TokenId, f64)]),
}

/// What [`Scratch::fill_heads`] learns about the two heads.
#[derive(Debug, Clone, Copy)]
struct HeadSums {
    /// Entries of the noise head, which leads `Scratch::heads`.
    n: usize,
    noise_tail_weight: f64,
    /// Raw tail weight of a generated target head (0 for a cached one).
    target_tail_weight: f64,
    /// Head sums in token order (the target's meaningful only when raw).
    noise: f64,
    target: f64,
}

impl Scratch {
    /// Fills `heads` with the noise head, then the target head, and
    /// sorts `keys` into their token order. Heads are first taken from
    /// their first `head_width` draws, and generated exactly only if a
    /// token repeats within one of them (see [`raw_head`]).
    fn fill_heads(
        &mut self,
        noise: &TargetLmConfig,
        noise_key: u64,
        class: ContentClass,
        target: TargetHead<'_>,
    ) -> HeadSums {
        for exact in [false, true] {
            self.heads.clear();
            let noise_tail_weight = raw_head(noise, noise_key, class, &mut self.heads, exact);
            let n = self.heads.len();
            let target_tail_weight = match target {
                TargetHead::Raw(config, h) => raw_head(config, h, class, &mut self.heads, exact),
                TargetHead::Cached(entries) => {
                    self.heads.extend_from_slice(entries);
                    0.0
                }
            };
            self.keys.resize(self.heads.len(), 0);
            token_order(&mut self.keys, &self.heads, noise.vocab.size());
            if let Some((noise, target)) = head_sums(&self.keys, &self.heads, n, &mut self.shared) {
                return HeadSums {
                    n,
                    noise_tail_weight,
                    target_tail_weight,
                    noise,
                    target,
                };
            }
        }
        unreachable!("exactly generated heads have distinct tokens")
    }

    /// Steps 1–3 of the chain for `ctx`: looks up (or computes) the
    /// target distribution, generates the noise head from `noise`, and
    /// leaves the mixture's weights in `self.mixed`. Returns the number
    /// of noise entries leading `self.heads`, the mixture's total mass
    /// (head weights plus tail weight) and its tail weight.
    ///
    /// `delta` must lie in `(0, 1]`.
    fn blend(
        &mut self,
        target: &TargetLm,
        noise: &TargetLmConfig,
        ctx: &crate::LmContext<'_>,
        delta: f64,
    ) -> (usize, f64, f64) {
        // The memo is probed first; on a miss both heads are generated
        // inside, where one token-order sort serves both heads' sums.
        let ctx_hash = ctx.hash();
        let (h, noise_key) = (target.config().dist_key(ctx_hash), noise.dist_key(ctx_hash));
        let mut miss = None;
        let p = target.lookup(h, |dist| {
            let config = target.config();
            let sums = self.fill_heads(noise, noise_key, ctx.class, TargetHead::Raw(config, h));
            let total = sums.target + sums.target_tail_weight;
            scale(&mut self.heads[sums.n..], total);
            dist.refill(config.vocab.size(), |entries| {
                entries.extend_from_slice(&self.heads[sums.n..]);
                into_head_order(entries);
                sums.target_tail_weight / total
            });
            miss = Some(sums);
        });
        let sums = miss.unwrap_or_else(|| {
            self.fill_heads(noise, noise_key, ctx.class, TargetHead::Cached(p.entries()))
        });
        let Self {
            heads,
            keys,
            mixed,
            shared,
        } = self;
        let n = sums.n;
        let noise_total = sums.noise + sums.noise_tail_weight;
        scale(&mut heads[..n], noise_total);
        let noise_tail = sums.noise_tail_weight / noise_total;

        // The mixture's weights, then its head sum in token order.
        mixed.clear();
        mixed.extend(heads[..n].iter().map(|e| delta * e.1));
        mixed.extend(heads[n..].iter().map(|e| (1.0 - delta) * e.1));
        for &(i, j) in shared.iter() {
            mixed[j] = (1.0 - delta) * heads[j].1 + delta * heads[i].1;
            mixed[i] = 0.0;
        }
        let mut head = 0.0;
        for &k in keys.iter() {
            head += mixed[index(k)];
        }
        let tail = (1.0 - delta) * p.tail_mass() + delta * noise_tail;
        (n, head + tail, tail)
    }

    /// The full mixture distribution `p.blend(&noise, δ)` for `ctx`,
    /// computed into `dist` (the draft memo's miss path). `delta` must
    /// lie in `(0, 1]`.
    pub(crate) fn blend_into(
        &mut self,
        target: &TargetLm,
        noise: &TargetLmConfig,
        ctx: &crate::LmContext<'_>,
        delta: f64,
        dist: &mut SparseDist,
    ) {
        let (_, total, tail) = self.blend(target, noise, ctx, delta);
        dist.refill(target.config().vocab.size(), |entries| {
            for (e, &weight) in self.heads.iter().zip(&self.mixed) {
                if weight > 0.0 {
                    entries.push((e.0, weight / total));
                }
            }
            entries.sort_unstable_by(head_order);
            tail / total
        });
    }

    /// The top-`w` entries of the mixture for `ctx`, in head order, into
    /// `out`: equal to `p.blend(&noise, δ).top_k(w)`. `delta` must lie in
    /// `(0, 1]` and `w` must be positive.
    pub(crate) fn top_w(
        &mut self,
        target: &TargetLm,
        noise: &TargetLmConfig,
        ctx: &crate::LmContext<'_>,
        delta: f64,
        w: usize,
        out: &mut Vec<(TokenId, f64)>,
    ) {
        let (n, total, _) = self.blend(target, noise, ctx, delta);
        out.clear();
        // Weights at or below `cut` belong to strictly less likely
        // entries than the current w-th, so they are skipped without a
        // division. With `p` the w-th probability, a weight
        // `x ≤ p·total·(1 − 8ε)` (ε = 2⁻⁵³, each product rounded) gives
        // `x/total < p·(1 − 5ε)`, and rounding the division moves that
        // by at most ε relative: still below `p`. (The margin argument
        // needs `p` normal; below that, nothing is skipped.)
        let mut cut = 0.0;
        // Candidates in generation order — the target head, then the
        // noise head, each nearly descending — so the first few fill the
        // top w and nearly all later ones fall below the cut.
        for i in (n..self.heads.len()).chain(0..n) {
            let weight = self.mixed[i];
            if weight <= cut {
                continue;
            }
            let e = (self.heads[i].0, weight / total);
            if out.len() == w {
                if head_order(&e, &out[w - 1]).is_ge() {
                    continue;
                }
                out.pop();
            }
            let mut at = out.len();
            while at > 0 && head_order(&e, &out[at - 1]).is_lt() {
                at -= 1;
            }
            out.insert(at, e);
            if out.len() == w && out[w - 1].1 > 4.0 * f64::MIN_POSITIVE {
                cut = out[w - 1].1 * total * (1.0 - 4.0 * f64::EPSILON);
            }
        }
    }
}
