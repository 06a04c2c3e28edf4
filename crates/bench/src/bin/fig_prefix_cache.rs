//! `fig_prefix_cache` — cross-request prefix cache: TTFT and attainment
//! with KV reuse on vs off across a prefix-share × RPS sweep.
//!
//! The tracked artifact behind [`serving::PrefixCache`]: each sweep point
//! builds one shared-system-prompt workload (a `SHARED_PROMPT_LEN`-token
//! prefix common to a `share` fraction of requests) and serves it twice on
//! a fresh colocated AdaServe engine — once cache-off, once cache-on —
//! emitting paired rows. A multi-turn session workload (every turn's
//! prompt literally extends the previous turn's) rides along as the
//! second traffic shape. The cache is a pure reuse optimization, so the
//! gate in `check_bench_json` demands a real hit rate on shared traffic
//! and a no-worse p50 TTFT on every on/off pair.
//!
//! ```sh
//! fig_prefix_cache                    # full sweep
//! ADASERVE_SMOKE=1 fig_prefix_cache --json-out BENCH_prefix.json
//! ```

use adaserve_bench::json::Json;
use adaserve_bench::summary::{num, row, text, PREFIX};
use adaserve_bench::Artifact;
use adaserve_core::AdaServeEngine;
use serving::{RunResult, ServingEngine, SystemConfig};
use workload::{Workload, WorkloadBuilder};

/// Tokens in the shared system prompt (a realistic instruction preamble;
/// well past the KV block size, so hits reuse many whole blocks).
const SHARED_PROMPT_LEN: u32 = 512;

/// Prefix-cache budget in tokens when the cache is on.
const CACHE_BUDGET_TOKENS: u64 = 262_144;

/// Context cap for the multi-turn workload's growing conversations.
const MULTI_TURN_MAX_CONTEXT: u32 = 3_072;

fn engine(seed: u64, cache_on: bool) -> Box<dyn ServingEngine> {
    let mut config = SystemConfig::llama70b(seed);
    if cache_on {
        config = config.with_prefix_cache(CACHE_BUDGET_TOKENS);
    }
    Box::new(AdaServeEngine::new(config))
}

fn prefix_row(label: &str, share_pct: f64, rps: f64, cache_on: bool, result: &RunResult) -> Json {
    let report = result.report();
    row([
        ("label", Json::Str(label.into())),
        (
            "cache",
            Json::Str(if cache_on { "on" } else { "off" }.into()),
        ),
        ("prefix_share_pct", Json::Num(share_pct)),
        ("rps", Json::Num(rps)),
        ("requests", Json::Num(result.records.len() as f64)),
        ("prefix_hit_rate_pct", Json::Num(report.prefix_hit_rate_pct)),
        (
            "prefill_tokens_saved",
            Json::Num(report.prefill_tokens_saved as f64),
        ),
        ("mean_ttft_ms", Json::Num(report.mean_ttft_ms)),
        ("p50_ttft_ms", Json::Num(report.p50_ttft_ms)),
        ("p99_ttft_ms", Json::Num(report.p99_ttft_ms)),
        ("slo_attainment_pct", Json::Num(report.attainment_pct)),
        ("ttft_attainment_pct", Json::Num(report.ttft_attainment_pct)),
    ])
}

/// Serves `wl` cache-off then cache-on and returns the paired rows.
fn paired(label: &str, share_pct: f64, rps: f64, seed: u64, wl: &Workload) -> [Json; 2] {
    [false, true].map(|cache_on| {
        let result = adaserve_bench::serve_one(engine(seed, cache_on), wl);
        prefix_row(label, share_pct, rps, cache_on, &result)
    })
}

fn main() {
    adaserve_bench::check_sweep_args("fig_prefix_cache");
    let seed = adaserve_bench::seed();
    let smoke = adaserve_bench::is_smoke();
    let json_out = adaserve_bench::parse_json_out();
    let duration_ms = adaserve_bench::sweep_duration_ms(15_000.0, 60_000.0);
    let baseline_ms = SystemConfig::llama70b(seed).baseline_ms;

    let shares: &[f64] = if smoke { &[0.5, 0.9] } else { &[0.3, 0.6, 0.9] };
    let rates: &[f64] = if smoke { &[3.0] } else { &[2.0, 3.0, 4.0] };

    println!(
        "prefix cache sweep: share {shares:?} x rps {rates:?}, {SHARED_PROMPT_LEN}-token \
         shared prompt, {}s simulated per point, cache off vs on ({CACHE_BUDGET_TOKENS} \
         token budget), seed {seed}\n",
        duration_ms / 1e3,
    );

    let mut summary = Artifact::new(&PREFIX, "fig_prefix_cache", seed, Some(duration_ms));
    println!(
        "{:<22} {:<5} {:>7} {:>5} {:>6} {:>7} {:>10} {:>9} {:>9} {:>9} {:>7} {:>7}",
        "label",
        "cache",
        "share%",
        "rps",
        "reqs",
        "hit%",
        "saved_tok",
        "mean_ttft",
        "p50_ttft",
        "p99_ttft",
        "slo%",
        "ttft%"
    );
    let mut emit = |rows: [Json; 2]| {
        for r in rows {
            println!(
                "{:<22} {:<5} {:>7.0} {:>5.1} {:>6} {:>7.1} {:>10} {:>9.1} {:>9.1} {:>9.1} \
                 {:>7.1} {:>7.1}",
                text(&r, "label"),
                text(&r, "cache"),
                num(&r, "prefix_share_pct"),
                num(&r, "rps"),
                num(&r, "requests"),
                num(&r, "prefix_hit_rate_pct"),
                num(&r, "prefill_tokens_saved"),
                num(&r, "mean_ttft_ms"),
                num(&r, "p50_ttft_ms"),
                num(&r, "p99_ttft_ms"),
                num(&r, "slo_attainment_pct"),
                num(&r, "ttft_attainment_pct"),
            );
            summary.rows.push(r);
        }
    };

    for &share in shares {
        for &rps in rates {
            let wl = WorkloadBuilder::new(seed ^ 0x9AF1, baseline_ms)
                .target_rps(rps)
                .duration_ms(duration_ms)
                .shared_system_prompt(SHARED_PROMPT_LEN, share)
                .build();
            let label = format!("share={:.0}% rps={rps:.1}", share * 100.0);
            emit(paired(&label, share * 100.0, rps, seed, &wl));
        }
    }

    // Multi-turn sessions: every turn's prompt extends the previous one,
    // so each session re-hits its own growing prefix (share = 100%).
    for &rps in rates {
        let wl = WorkloadBuilder::new(seed ^ 0x9AF2, baseline_ms)
            .target_rps(rps)
            .duration_ms(duration_ms)
            .multi_turn(8, MULTI_TURN_MAX_CONTEXT)
            .build();
        let label = format!("multiturn rps={rps:.1}");
        emit(paired(&label, 100.0, rps, seed, &wl));
    }

    if let Some(path) = json_out {
        summary.write(&path).expect("write prefix artifact");
    }
}
