//! Criterion micro-benchmarks of the AdaServe pipeline components.
//!
//! These quantify the *real CPU cost* of the reimplemented algorithms —
//! candidate-tree speculation, the two selection phases (Algorithm 2), tree
//! verification, Algorithm 1, the paged-KV allocator and a full engine
//! iteration — backing the paper's claim that scheduling overhead is
//! negligible next to GPU time (Fig. 15).

use adaserve_core::{optimal_trees, select_tokens, AdaServeEngine, ExplicitProbTree, ScsdInput};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use serving::{Colocated, ServeSession, SystemConfig};
use simllm::{ContentClass, Lm, LmContext, ModelPair, TokenId};
use spectree::{verify_tree, CandidateTree, SpecParams, SpeculateScratch, TokenTree, VerifyMode};
use std::hint::black_box;
use workload::WorkloadBuilder;

fn bench_speculation(c: &mut Criterion) {
    let pair = ModelPair::calibrated(7);
    let tokens: Vec<TokenId> = (0..32).map(|i| TokenId(100 + i)).collect();
    let mut group = c.benchmark_group("speculation");
    for (d, w) in [(4u32, 2u32), (8, 4)] {
        group.bench_function(format!("beam_d{d}_w{w}"), |b| {
            b.iter(|| {
                let ctx = LmContext::new(5, ContentClass::Chat, &tokens);
                black_box(CandidateTree::speculate(
                    pair.draft(),
                    &ctx,
                    SpecParams::new(d, w),
                ))
            })
        });
    }
    // The beams above reuse one context, so after the first iteration
    // every expansion is a memo hit. Serving traffic mostly misses (~85%
    // of lookups on `paper-mix`); a fresh stream seed per iteration makes
    // every expansion compute its distributions, as in real traffic.
    group.bench_function("beam_d8_w4_fresh", |b| {
        let mut stream = 0u64;
        b.iter(|| {
            stream += 1;
            let ctx = LmContext::new(stream, ContentClass::Chat, &tokens);
            black_box(CandidateTree::speculate(
                pair.draft(),
                &ctx,
                SpecParams::new(8, 4),
            ))
        })
    });
    group.finish();
}

fn candidate_trees(n: usize, d: u32, w: u32) -> Vec<TokenTree> {
    let pair = ModelPair::calibrated(7);
    (0..n)
        .map(|i| {
            let tokens: Vec<TokenId> = (0..16).map(|k| TokenId(50 + k + i as u32)).collect();
            let ctx = LmContext::new(i as u64, ContentClass::Chat, &tokens);
            CandidateTree::speculate(pair.draft(), &ctx, SpecParams::new(d, w)).into_tree()
        })
        .collect()
}

fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection");
    for n in [8usize, 32, 128] {
        let trees = candidate_trees(n, 6, 4);
        let refs: Vec<&TokenTree> = trees.iter().collect();
        let requirements: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64 * 0.4).collect();
        group.bench_function(format!("scsd_n{n}"), |b| {
            b.iter(|| {
                black_box(select_tokens(&ScsdInput {
                    candidates: &refs,
                    requirements: &requirements,
                    budget: 160,
                    n_max: 8,
                    min_phase2_prob: 0.08,
                }))
            })
        });
    }
    group.finish();
}

fn bench_dist_cache(c: &mut Criterion) {
    // The LM-distribution memo: a cold lookup computes the blended head,
    // a warm lookup is a table probe plus an Arc bump. The ratio is what
    // verification (which re-reads draft-pass contexts) gains.
    let tokens: Vec<TokenId> = (0..16).map(|i| TokenId(40 + i)).collect();
    let mut group = c.benchmark_group("dist_cache");
    group.bench_function("target_cold", |b| {
        let mut stream = 0u64;
        let pair = ModelPair::calibrated(7);
        // Slot tables are allocated on first insert: do that untimed.
        let _ = pair
            .target()
            .next_dist_arc(&LmContext::new(0, ContentClass::Chat, &tokens));
        b.iter(|| {
            stream += 1; // fresh stream seed => guaranteed memo miss
            let ctx = LmContext::new(stream, ContentClass::Chat, &tokens);
            black_box(pair.target().next_dist_arc(&ctx))
        })
    });
    group.bench_function("target_warm", |b| {
        let pair = ModelPair::calibrated(7);
        let ctx = LmContext::new(5, ContentClass::Chat, &tokens);
        let _ = pair.target().next_dist_arc(&ctx); // prime
        b.iter(|| black_box(pair.target().next_dist_arc(&ctx)))
    });
    group.bench_function("draft_top4_fused", |b| {
        let pair = ModelPair::calibrated(7);
        let _ = pair
            .target()
            .next_dist_arc(&LmContext::new(0, ContentClass::Chat, &tokens));
        let mut stream = 0u64;
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        b.iter(|| {
            stream += 1;
            let ctx = LmContext::new(stream, ContentClass::Chat, &tokens);
            pair.draft()
                .top_w_extended(&ctx, &[], 4, &mut scratch, &mut out);
            black_box(out.len())
        })
    });
    group.finish();
}

fn bench_tree_ops(c: &mut Criterion) {
    // The flat (intrusive-children) tree layout: pooled rebuilds and the
    // dense induced-subtree remap both run per request per iteration.
    let pair = ModelPair::calibrated(7);
    let tokens: Vec<TokenId> = (0..24).map(|i| TokenId(60 + i)).collect();
    let ctx = LmContext::new(11, ContentClass::Chat, &tokens);
    let params = SpecParams::new(6, 4);
    let cand = CandidateTree::speculate(pair.draft(), &ctx, params);
    let order = cand.tree().speculated_by_prob_desc();

    let mut group = c.benchmark_group("tree_ops");
    group.bench_function("speculate_pooled_d6_w4", |b| {
        let mut pooled = CandidateTree::empty();
        let mut scratch = SpeculateScratch::new();
        b.iter(|| {
            pooled.speculate_with(pair.draft(), &ctx, params, &mut scratch);
            black_box(pooled.tree().len())
        })
    });
    group.bench_function("induced_subtree_dense_remap", |b| {
        let keep = &order[..order.len() / 2];
        let mut out = TokenTree::new(TokenId(0));
        let mut scratch = spectree::SubtreeScratch::default();
        b.iter(|| {
            cand.tree()
                .induced_subtree_into(keep, &mut out, &mut scratch)
                .expect("connected prefix");
            black_box(out.len())
        })
    });
    group.bench_function("prob_desc_order_into", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            cand.tree().speculated_by_prob_desc_into(&mut buf);
            black_box(buf.len())
        })
    });
    group.finish();
}

fn bench_verification(c: &mut Criterion) {
    let pair = ModelPair::calibrated(7);
    let tokens: Vec<TokenId> = (0..24).map(|i| TokenId(70 + i)).collect();
    let ctx = LmContext::new(3, ContentClass::Chat, &tokens);
    let cand = CandidateTree::speculate(pair.draft(), &ctx, SpecParams::new(6, 4));
    c.bench_function("verify_tree_24node", |b| {
        b.iter(|| {
            black_box(verify_tree(
                pair.target(),
                &ctx,
                cand.tree(),
                0,
                VerifyMode::Stochastic,
            ))
        })
    });
}

fn bench_algorithm1(c: &mut Criterion) {
    // A moderately wide explicit tree per request.
    let build = |seed: u64| {
        let mut t = ExplicitProbTree::new(TokenId(0));
        let mut frontier = vec![0usize];
        let mut next_token = 1u32;
        for depth in 0..4 {
            let mut new_frontier = Vec::new();
            for &p in &frontier {
                for k in 0..3u32 {
                    let edge = 0.15 + 0.2 * ((seed + u64::from(k) + depth) % 4) as f64 / 4.0;
                    let id = t.add(p, TokenId(next_token), edge.min(0.9));
                    next_token += 1;
                    new_frontier.push(id);
                }
            }
            frontier = new_frontier;
        }
        t
    };
    let trees: Vec<ExplicitProbTree> = (0..16).map(build).collect();
    let refs: Vec<&ExplicitProbTree> = trees.iter().collect();
    let requirements = vec![1.2f64; 16];
    c.bench_function("algorithm1_16req", |b| {
        b.iter(|| black_box(optimal_trees(&refs, &requirements, 128)))
    });
}

fn bench_block_manager(c: &mut Criterion) {
    c.bench_function("block_manager_churn", |b| {
        b.iter_batched(
            || serving::BlockManager::new(4096, 16),
            |mut m| {
                for id in 0..256u64 {
                    m.reserve(id, 64 + id % 512);
                }
                for id in 0..256u64 {
                    m.release(id);
                }
                black_box(m.free_blocks())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_engine_iteration(c: &mut Criterion) {
    // Measures real scheduler CPU per simulated second of serving.
    c.bench_function("adaserve_serve_10s_sim", |b| {
        b.iter_batched(
            || {
                let config = SystemConfig::llama70b(1);
                let wl = WorkloadBuilder::new(3, config.baseline_ms)
                    .target_rps(2.0)
                    .duration_ms(10_000.0)
                    .build();
                (AdaServeEngine::new(config), wl)
            },
            |(engine, wl)| {
                let result = ServeSession::new(Colocated::new(Box::new(engine)))
                    .serve(&wl)
                    .unwrap();
                black_box(result.records.len())
            },
            BatchSize::SmallInput,
        )
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(4))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_speculation, bench_selection, bench_dist_cache,
              bench_tree_ops, bench_verification, bench_algorithm1,
              bench_block_manager, bench_engine_iteration
}
criterion_main!(benches);
