//! Bit-identity pins of the draft-expansion kernel.
//!
//! Every simulated result in the workspace is a pure function of the
//! probabilities `TargetLm::next_dist` and `DraftLm::top_w_extended`
//! return, so any optimization of that chain must reproduce them to the
//! last bit. Two guards live here:
//!
//! * **golden pins** — digests of the f64 bit patterns over a fixed
//!   grid (3 content classes × head width × jitter × divergence × beam
//!   width), recorded from the unoptimized implementation;
//! * **a reference proptest** — the unfused construction written from
//!   the model's definition (`SparseDist::from_weights` for both heads,
//!   `SparseDist::blend`, `top_k`) must equal the kernel on random
//!   contexts and configurations.

use proptest::prelude::*;
use proptest::strategy::Just;
use simllm::hash::{seed_stream, unit_f64};
use simllm::vocab::NUM_SPECIAL_TOKENS;
use simllm::{
    mix64, ContentClass, DraftLm, Lm, LmContext, SparseDist, TargetLm, TargetLmConfig, TokenId,
    Vocab,
};

/// Folds `(token, f64 bits)` pairs into one order-sensitive digest.
fn fold(mut h: u64, entries: &[(TokenId, f64)]) -> u64 {
    h = mix64(h ^ entries.len() as u64);
    for &(t, p) in entries {
        h = mix64(h ^ u64::from(t.0));
        h = mix64(h ^ p.to_bits());
    }
    h
}

/// The grid's decoding contexts: `(stream seed, window, extension)`.
fn contexts() -> Vec<(u64, Vec<TokenId>, Vec<TokenId>)> {
    let toks = |v: &[u32]| v.iter().map(|&t| TokenId(t)).collect::<Vec<_>>();
    vec![
        (0, toks(&[5]), toks(&[])),
        (7, toks(&[3, 100, 7]), toks(&[9])),
        (401, toks(&[11, 22, 33, 44, 55, 66, 77]), toks(&[88, 99])),
        (0xDEAD_BEEF, toks(&[2, 2, 2]), toks(&[64_000, 17, 3])),
    ]
}

fn config(head_width: usize, jitter: bool) -> TargetLmConfig {
    let mut c = TargetLmConfig::default_with_seed(0x5EED_0401);
    c.head_width = head_width;
    if !jitter {
        c.weight_jitter = 0.0;
    }
    c
}

const HEAD_WIDTHS: [usize; 3] = [2, 24, 80];
const DELTAS: [f64; 3] = [0.0, 0.18, 1.0];
const BEAM_WIDTHS: [usize; 4] = [1, 2, 4, 64];

/// Digest of `TargetLm::next_dist` over every class and context, for one
/// (head width, jitter) configuration. Each context is evaluated twice —
/// a memo miss, then a hit — and both must agree.
fn target_digest(head_width: usize, jitter: bool) -> u64 {
    let lm = TargetLm::new(config(head_width, jitter));
    let mut h = 0;
    for class in ContentClass::ALL {
        for (seed, window, extra) in contexts() {
            let mut full = window.clone();
            full.extend_from_slice(&extra);
            let ctx = LmContext::new(seed, class, &full);
            let cold = lm.next_dist(&ctx);
            assert_eq!(cold, lm.next_dist(&ctx), "memo hit diverged");
            h = fold(h, cold.entries());
            h = mix64(h ^ cold.tail_mass().to_bits());
        }
    }
    h
}

/// Digest of `DraftLm::top_w_extended` over every class and context, for
/// one grid point. Each expansion runs cold and warm (target memo miss,
/// then hit); both must agree.
fn draft_digest(head_width: usize, jitter: bool, delta: f64, w: usize) -> u64 {
    let target = TargetLm::new(config(head_width, jitter));
    let draft = DraftLm::from_target(&target, delta);
    let (mut scratch, mut out, mut again) = (Vec::new(), Vec::new(), Vec::new());
    let mut h = 0;
    for class in ContentClass::ALL {
        for (seed, window, extra) in contexts() {
            let ctx = LmContext::new(seed, class, &window);
            draft.top_w_extended(&ctx, &extra, w, &mut scratch, &mut out);
            draft.top_w_extended(&ctx, &extra, w, &mut scratch, &mut again);
            assert_eq!(out, again, "warm expansion diverged");
            h = fold(h, &out);
        }
    }
    h
}

#[test]
fn target_distributions_are_pinned() {
    // (head width, jitter on, digest), recorded before the fused kernel.
    let pins: [(usize, bool, u64); 6] = [
        (2, false, 0xc192f67b88d76d72),
        (2, true, 0x78434438bf4b2440),
        (24, false, 0x5a94817b383cd392),
        (24, true, 0x17610fd1a76c80de),
        (80, false, 0xb1ab186d1c2a920c),
        (80, true, 0xf72cd78a43cc3513),
    ];
    for (hw, jitter, expected) in pins {
        let got = target_digest(hw, jitter);
        assert_eq!(
            got, expected,
            "next_dist bits shifted (head_width {hw}, jitter {jitter}): {got:#018x}"
        );
    }
}

#[test]
fn draft_expansions_are_pinned() {
    let mut got = Vec::new();
    for hw in HEAD_WIDTHS {
        for jitter in [false, true] {
            for delta in DELTAS {
                for w in BEAM_WIDTHS {
                    got.push((hw, jitter, delta, w, draft_digest(hw, jitter, delta, w)));
                }
            }
        }
    }
    assert_eq!(got.len(), DRAFT_PINS.len());
    for (&(hw, jitter, delta, w, digest), &expected) in got.iter().zip(DRAFT_PINS.iter()) {
        assert_eq!(
            digest, expected,
            "top_w_extended bits shifted (head_width {hw}, jitter {jitter}, δ {delta}, w {w}): \
             {digest:#018x}"
        );
    }
}

/// Digests in grid order: head width, then jitter (off, on), then δ, then w.
const DRAFT_PINS: [u64; 72] = [
    // head_width 2, jitter off, δ 0: w = 1, 2, 4, 64
    0x590c3cd62e98dd5f,
    0xde4c930d147986e6,
    0xde4c930d147986e6,
    0xde4c930d147986e6,
    // head_width 2, jitter off, δ 0.18: w = 1, 2, 4, 64
    0xee727b7f7943b898,
    0x39796e94cb49d5ba,
    0x433442007fe83c2a,
    0x433442007fe83c2a,
    // head_width 2, jitter off, δ 1: w = 1, 2, 4, 64
    0x061b5a7556fa7532,
    0x7fd989b88c572048,
    0xa9e07dceb458ff83,
    0xa9e07dceb458ff83,
    // head_width 2, jitter on, δ 0: w = 1, 2, 4, 64
    0xd91ca5cfe48f62d0,
    0xb5deaba78b850d70,
    0xb5deaba78b850d70,
    0xb5deaba78b850d70,
    // head_width 2, jitter on, δ 0.18: w = 1, 2, 4, 64
    0x14cfd084576a8f1d,
    0xf0aa7bc9341a9d3c,
    0xb9ee1a526e29116a,
    0xb9ee1a526e29116a,
    // head_width 2, jitter on, δ 1: w = 1, 2, 4, 64
    0x29af48b63ce24f8c,
    0xfb2338b22ce4a433,
    0xdf2bbfbb2e5c2fe8,
    0xdf2bbfbb2e5c2fe8,
    // head_width 24, jitter off, δ 0: w = 1, 2, 4, 64
    0xb22dd0090b629b82,
    0x830be9d072c58644,
    0x932ec8d84796b079,
    0xabffc6c2152e59f1,
    // head_width 24, jitter off, δ 0.18: w = 1, 2, 4, 64
    0x6c6557e35c65378a,
    0xc42affb98eb9a151,
    0xa1d7d92b59b2a6e2,
    0xe664dc41cdb95d21,
    // head_width 24, jitter off, δ 1: w = 1, 2, 4, 64
    0x2b992968c977a6d0,
    0x8163ceb7dc2a95dd,
    0x62fe3a5b2601ddcd,
    0x945e58da5f2fc90e,
    // head_width 24, jitter on, δ 0: w = 1, 2, 4, 64
    0x13ea4e1c54a76695,
    0x20dd218246d63917,
    0xb5f0de5fa8bf3243,
    0xa5ed9809a041859b,
    // head_width 24, jitter on, δ 0.18: w = 1, 2, 4, 64
    0x6cef3d5a5abcd8ee,
    0x39d094ae63a3334e,
    0x31475e7a7f81f1de,
    0x983e9084b91cd519,
    // head_width 24, jitter on, δ 1: w = 1, 2, 4, 64
    0x52ffd8176376caba,
    0x31edd7b06d746cfc,
    0xf9fa74cdb49d015b,
    0x52efa25b1cbce606,
    // head_width 80, jitter off, δ 0: w = 1, 2, 4, 64
    0x75d8184fc7ba115e,
    0x7a4189cd2f851a02,
    0x19b3803395423159,
    0x6223835ca5a0ae3e,
    // head_width 80, jitter off, δ 0.18: w = 1, 2, 4, 64
    0x22feb22afd0cd01a,
    0x751b655d3abdb02c,
    0xde35d5fecab34bc3,
    0x5b0bb26ed4119c1c,
    // head_width 80, jitter off, δ 1: w = 1, 2, 4, 64
    0x961ff32f056d2971,
    0xfd54027895e39337,
    0xf392a3854a12fc14,
    0xd878e71a57d18ca1,
    // head_width 80, jitter on, δ 0: w = 1, 2, 4, 64
    0x0770fcc8102c9479,
    0xf6920d92ebde6bc2,
    0x756756a432c9e26b,
    0x8ac922d3504bdfe0,
    // head_width 80, jitter on, δ 0.18: w = 1, 2, 4, 64
    0x6cface7f8d5344bd,
    0x7fc5a3bb6cf3d42f,
    0x3ec8bed1c7b04a57,
    0x2b8b51407ca06d5c,
    // head_width 80, jitter on, δ 1: w = 1, 2, 4, 64
    0x96287fa957bff379,
    0xc02920c49ca9fe99,
    0xe634d4b33c945fb7,
    0xaf9eb9e2a2b06155,
];

#[test]
fn calibrated_top4_bits_are_pinned() {
    // One expansion spelled out bit for bit: the default calibrated pair
    // (δ = 0.18, 24-token heads, jitter 0.35) on a chat context.
    let target = TargetLm::new(TargetLmConfig::default_with_seed(42));
    let draft = DraftLm::from_target(&target, 0.18);
    let window = [TokenId(5), TokenId(9), TokenId(11)];
    let ctx = LmContext::new(7, ContentClass::Chat, &window);
    let mut out = Vec::new();
    draft.top_w_extended(&ctx, &[TokenId(13)], 4, &mut Vec::new(), &mut out);
    let bits: Vec<(u32, u64)> = out.iter().map(|&(t, p)| (t.0, p.to_bits())).collect();
    assert_eq!(
        bits,
        vec![
            (119122, 0x3fe44f5fa5a4a8ed),
            (27877, 0x3fc2afd7e6289cb4),
            (50322, 0x3fc13e8be45c8190),
            (4333, 0x3f95b6a8d3eb1d8d),
        ]
    );
}

// ---------------------------------------------------------------------
// Unfused reference, written from the model definition.
// ---------------------------------------------------------------------

/// Raw head weights and tail weight of a hash model, in generation order
/// — the definition `TargetLm` documents: distinct pseudo-uniform
/// non-special tokens, geometric decay per class, multiplicative jitter,
/// and a tail weight that makes the head hold `head_mass`.
fn reference_weights(
    c: &TargetLmConfig,
    h: u64,
    class: ContentClass,
) -> (Vec<(TokenId, f64)>, f64) {
    let space = c.vocab.size() - NUM_SPECIAL_TOKENS;
    let mut tokens: Vec<u32> = Vec::new();
    let mut i = 0u64;
    while tokens.len() < c.head_width {
        let cand = NUM_SPECIAL_TOKENS + (seed_stream(h, i) % u64::from(space)) as u32;
        if !tokens.contains(&cand) {
            tokens.push(cand);
        }
        i += 1;
    }
    let decay = class.head_decay();
    let weights: Vec<(TokenId, f64)> = tokens
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let jitter = if c.weight_jitter > 0.0 {
                let u = unit_f64(seed_stream(h ^ 0x0117_7E12, i as u64));
                1.0 + c.weight_jitter * (u - 0.5)
            } else {
                1.0
            };
            (TokenId(t), decay.powi(i as i32) * jitter)
        })
        .collect();
    let head_sum: f64 = weights.iter().map(|&(_, w)| w).sum();
    let tail = head_sum * (1.0 - c.head_mass) / c.head_mass;
    (weights, tail)
}

/// `TargetLm::next_dist` from the definition, through the general
/// constructor.
fn reference_dist(c: &TargetLmConfig, ctx: &LmContext<'_>) -> SparseDist {
    let (weights, tail) = reference_weights(c, mix64(ctx.hash() ^ c.seed), ctx.class);
    SparseDist::from_weights(weights, tail, c.vocab.size())
}

/// `DraftLm` from the definition: the noise model is an independent
/// seed with a flatter head (jitter 0.8), mixed in by `blend`.
fn reference_draft(c: &TargetLmConfig, delta: f64, ctx: &LmContext<'_>) -> SparseDist {
    let mut noise = *c;
    noise.seed = mix64(c.seed ^ 0xD12A_F7ED);
    noise.weight_jitter = 0.8;
    let delta = (delta * ctx.class.divergence_scale()).clamp(0.0, 1.0);
    let p = reference_dist(c, ctx);
    if delta == 0.0 {
        return p;
    }
    p.blend(&reference_dist(&noise, ctx), delta)
}

fn class_of(i: u8) -> ContentClass {
    ContentClass::ALL[usize::from(i) % 3]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_matches_unfused_reference(
        seed in any::<u64>(),
        stream in any::<u64>(),
        class in 0u8..3,
        window in prop::collection::vec(2u32..128_256, 1..9),
        extra in prop::collection::vec(2u32..128_256, 0..4),
        // Past 128 the kernel's decay table gives way to `powi`.
        head_width in 2usize..161,
        // Up to 1.9 so strong jitter can break the generated order.
        jitter in 0.0f64..1.9,
        delta in prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0],
        w in 1usize..65,
        // Small vocabularies make heads repeat draws, so the kernel's
        // exact retry runs (rare at the default size).
        vocab in prop_oneof![Just(128_256u32), 26u32..400],
    ) {
        let mut c = TargetLmConfig::default_with_seed(seed);
        c.vocab = Vocab::new(vocab);
        c.head_width = head_width.min(vocab as usize - 2);
        c.weight_jitter = jitter;
        let target = TargetLm::new(c);
        let draft = DraftLm::from_target(&target, delta);
        let window: Vec<TokenId> = window.into_iter().map(TokenId).collect();
        let extra: Vec<TokenId> = extra.into_iter().map(TokenId).collect();
        let class = class_of(class);
        let ctx = LmContext::new(stream, class, &window);
        let mut full = window.clone();
        full.extend_from_slice(&extra);
        let full_ctx = LmContext::new(stream, class, &full);

        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        // Cold: the target memo misses inside the expansion.
        draft.top_w_extended(&ctx, &extra, w, &mut scratch, &mut out);
        let reference = reference_draft(&c, delta, &full_ctx);
        prop_assert_eq!(out.as_slice(), reference.top_k(w));
        // Warm: the target memo now hits.
        draft.top_w_extended(&ctx, &extra, w, &mut scratch, &mut out);
        prop_assert_eq!(out.as_slice(), reference.top_k(w));
        prop_assert_eq!(target.next_dist(&full_ctx), reference_dist(&c, &full_ctx));
        prop_assert_eq!(draft.next_dist(&full_ctx), reference);
    }
}
