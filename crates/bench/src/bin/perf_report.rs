//! `perf_report` — wall-clock performance of the serving hot loop.
//!
//! Every other bench binary reports what the *modelled system* does (SLO
//! attainment, goodput); this one reports what the *implementation*
//! costs: how many simulated output tokens and engine iterations one CPU
//! second drives, the peak decoding batch, the measured scheduling share
//! (the paper's Fig. 15 claim) and the LM-distribution cache hit rate.
//! It is the repo's wall-clock perf trajectory: CI emits and
//! schema-checks `BENCH_perf.json` on every push, so a PR that slows the
//! hot loop changes a tracked artifact instead of slipping by.
//!
//! Rows: a colocated AdaServe engine (plus an explicit `tracer=off` twin
//! the CI tracer gate compares against it, and an informational
//! `tracer=on` row pricing live event recording), and a 4-replica
//! cluster stepped under the resolved [`serving::ExecMode`]
//! (`ADASERVE_EXEC`-overridable, sharded by default) and sequentially —
//! the cluster pair is the executor's tracked win and stays
//! record-for-record identical (see `tests/output_equivalence.rs`).
//!
//! Methodology: every configuration gets one unmeasured warmup run, then
//! the cluster pair is timed in interleaved rounds keeping each side's
//! best of [`TRIALS`] — first-measured-run cold-start bias (allocator and
//! i-cache warmup) otherwise dwarfs the executor difference on small
//! smoke runs.
//!
//! ```sh
//! cargo run --release -p adaserve-bench --bin perf_report -- \
//!     [--quick] [--duration-s F] [--json-out BENCH_perf.json]
//! ```

use adaserve_bench::json::Json;
use adaserve_bench::summary::{num, row, text, PERF};
use adaserve_bench::Artifact;
use adaserve_core::AdaServeEngine;
use cluster::{Cluster, RouterKind};
use metrics::telemetry::Tracer;
use metrics::HotLoopStats;
use serving::{
    Colocated, Deployment, ExecMode, RunReport, ServeSession, ServingEngine, SystemConfig,
};
use std::time::Instant;
use workload::{Workload, WorkloadBuilder};

/// Measured trials per configuration (best-of; one extra warmup run).
const TRIALS: usize = 3;

fn engines(n: usize, seed: u64) -> Vec<Box<dyn ServingEngine>> {
    (0..n)
        .map(|_| {
            Box::new(AdaServeEngine::new(SystemConfig::llama70b(seed))) as Box<dyn ServingEngine>
        })
        .collect()
}

/// Serves `wl` through a pre-built session, returning the report and the
/// wall time.
fn timed_session<D: Deployment>(mut session: ServeSession<D>, wl: &Workload) -> (RunReport, f64) {
    let start = Instant::now();
    let report = session.serve(wl).expect("perf run completes");
    (report, start.elapsed().as_secs_f64() * 1e3)
}

/// Serves `wl` on `deployment`, returning the report and the wall time.
fn timed<D: Deployment>(deployment: D, wl: &Workload) -> (RunReport, f64) {
    timed_session(ServeSession::new(deployment), wl)
}

/// One warmup run then best-of-[`TRIALS`] for a single configuration;
/// `session` wraps each freshly-built deployment (e.g. to install a
/// tracer).
fn timed_best<D, F, S>(build: F, wl: &Workload, session: S) -> (RunReport, f64)
where
    D: Deployment,
    F: Fn() -> D,
    S: Fn(D) -> ServeSession<D>,
{
    let _ = timed_session(session(build()), wl);
    let mut best = f64::INFINITY;
    let mut kept = None;
    for _ in 0..TRIALS {
        let (report, wall) = timed_session(session(build()), wl);
        best = best.min(wall);
        kept = Some(report);
    }
    (kept.expect("at least one trial"), best)
}

fn perf_row(label: &str, report: &RunReport, wall_ms: f64) -> Json {
    let sim_tokens: u64 = report
        .records
        .iter()
        .map(|r| u64::from(r.output_tokens))
        .sum();
    let mut hotloop = HotLoopStats::default();
    let mut breakdown = metrics::LatencyBreakdown::new();
    for u in report.serving_units() {
        hotloop.merge(&u.result.hotloop);
        breakdown.merge(&u.result.breakdown);
    }
    let (scheduling_share_pct, _, _, _, _) = breakdown.shares_pct();
    let wall_s = (wall_ms / 1e3).max(1e-9);
    row([
        ("label", Json::Str(label.into())),
        ("wall_ms", Json::Num(wall_ms)),
        ("sim_ms", Json::Num(report.end_ms)),
        ("sim_tokens", Json::Num(sim_tokens as f64)),
        ("sim_tokens_per_sec", Json::Num(sim_tokens as f64 / wall_s)),
        ("iterations", Json::Num(report.iterations as f64)),
        (
            "iterations_per_sec",
            Json::Num(report.iterations as f64 / wall_s),
        ),
        (
            "peak_decode_batch",
            Json::Num(hotloop.peak_decode_batch as f64),
        ),
        ("scheduling_share_pct", Json::Num(scheduling_share_pct)),
        (
            "dist_cache_hit_rate_pct",
            Json::Num(hotloop.dist_cache_hit_rate_pct()),
        ),
        ("trace_dropped", Json::Num(report.trace_dropped as f64)),
    ])
}

fn main() {
    adaserve_bench::check_sweep_args("perf_report");
    let seed = adaserve_bench::seed();
    let duration_ms = adaserve_bench::sweep_duration_ms(10_000.0, 60_000.0);
    let mode = if adaserve_bench::is_smoke() {
        "smoke"
    } else {
        "full"
    };
    let exec = adaserve_bench::exec_mode();
    let config = SystemConfig::llama70b(seed);
    let baseline_ms = config.baseline_ms;
    let rps = if mode == "smoke" { 2.0 } else { 4.0 };
    let wl = WorkloadBuilder::new(seed, baseline_ms)
        .target_rps(rps)
        .duration_ms(duration_ms)
        .build();

    println!(
        "perf_report: seed={seed} duration={duration_ms}ms rps={rps} mode={mode} exec={}",
        exec.label()
    );
    let mut summary = Artifact::new(&PERF, "perf_report", seed, Some(duration_ms));

    // The base colocated row and its explicit tracer=off twin are timed
    // in interleaved rounds (like the cluster pair below): the
    // check_bench_json tracer gate compares the two wall-clocks, so
    // drift and cold-start bias must hit both sides equally. A disabled
    // tracer is one branch per iteration, so the twin must land within
    // timer noise of the base row.
    let colocated = || Colocated::new(Box::new(AdaServeEngine::new(config.clone())));
    let _ = timed(colocated(), &wl);
    let _ = timed_session(
        ServeSession::new(colocated()).with_tracer(Tracer::off()),
        &wl,
    );
    let (mut base_best, mut off_best) = (f64::INFINITY, f64::INFINITY);
    let (mut base_report, mut off_report) = (None, None);
    for _ in 0..TRIALS {
        let (report, wall) = timed(colocated(), &wl);
        base_best = base_best.min(wall);
        base_report = Some(report);
        let (report, wall) = timed_session(
            ServeSession::new(colocated()).with_tracer(Tracer::off()),
            &wl,
        );
        off_best = off_best.min(wall);
        off_report = Some(report);
    }
    let (base_report, off_report) = (
        base_report.expect("trials ran"),
        off_report.expect("trials ran"),
    );
    summary.rows.push(perf_row(
        &format!("colocated rps={rps}"),
        &base_report,
        base_best,
    ));
    summary.rows.push(perf_row(
        &format!("colocated tracer=off rps={rps}"),
        &off_report,
        off_best,
    ));
    assert_eq!(
        base_report.records, off_report.records,
        "a disabled tracer must not change the served records"
    );

    // Informational: the same run with the ring tracer live (ungated —
    // recording genuinely costs something; the artifact tracks how much).
    let (on_report, on_best) = timed_best(colocated, &wl, |d| {
        ServeSession::new(d).with_tracer(Tracer::on())
    });
    summary.rows.push(perf_row(
        &format!("colocated tracer=on rps={rps}"),
        &on_report,
        on_best,
    ));
    assert_eq!(
        base_report.records, on_report.records,
        "a live tracer must not change the served records"
    );

    // Heavier aggregate traffic for the fleet rows so every replica works.
    let fleet_wl = WorkloadBuilder::new(seed ^ 0xF1EE7, baseline_ms)
        .target_rps(rps * 4.0)
        .duration_ms(duration_ms)
        .build();
    let fleet = |mode: ExecMode| {
        ServeSession::new(Cluster::new(engines(4, seed), RouterKind::SloAware.build()))
            .with_exec_mode(mode)
    };
    // Interleaved rounds: warmup pair first, then alternate the two
    // executors within each measured round so drift and cold-start bias
    // hit both sides equally.
    let _ = timed_session(fleet(exec), &fleet_wl);
    let _ = timed_session(fleet(ExecMode::Sequential), &fleet_wl);
    let (mut exec_best, mut seq_best) = (f64::INFINITY, f64::INFINITY);
    let (mut exec_report, mut seq_report) = (None, None);
    for _ in 0..TRIALS {
        let (report, wall) = timed_session(fleet(exec), &fleet_wl);
        exec_best = exec_best.min(wall);
        exec_report = Some(report);
        let (report, wall) = timed_session(fleet(ExecMode::Sequential), &fleet_wl);
        seq_best = seq_best.min(wall);
        seq_report = Some(report);
    }
    let (exec_report, seq_report) = (
        exec_report.expect("trials ran"),
        seq_report.expect("trials ran"),
    );
    summary.rows.push(perf_row(
        &format!("cluster-4x {} rps={}", exec.label(), rps * 4.0),
        &exec_report,
        exec_best,
    ));
    summary.rows.push(perf_row(
        &format!("cluster-4x sequential rps={}", rps * 4.0),
        &seq_report,
        seq_best,
    ));
    assert_eq!(
        exec_report.records, seq_report.records,
        "sharded and sequential stepping must stay record-identical"
    );

    println!(
        "{:<32} {:>10} {:>12} {:>10} {:>8} {:>8} {:>8}",
        "row", "wall_ms", "sim_tok/s", "iters/s", "peak_b", "sched%", "cache%"
    );
    for r in &summary.rows {
        println!(
            "{:<32} {:>10.1} {:>12.0} {:>10.0} {:>8} {:>8.3} {:>8.1}",
            text(r, "label"),
            num(r, "wall_ms"),
            num(r, "sim_tokens_per_sec"),
            num(r, "iterations_per_sec"),
            num(r, "peak_decode_batch"),
            num(r, "scheduling_share_pct"),
            num(r, "dist_cache_hit_rate_pct"),
        );
    }

    if let Some(path) = adaserve_bench::parse_json_out() {
        summary.write(&path).expect("write perf artifact");
    }
}
