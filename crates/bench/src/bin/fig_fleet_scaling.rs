//! `fig_fleet_scaling` — executor scaling: sequential vs sharded stepping
//! as the fleet grows.
//!
//! The tracked artifact behind the [`serving::exec`] subsystem: a
//! homogeneous AdaServe fleet is stepped to completion at 4, 16, 64 and
//! 256 replicas, once under [`serving::ExecMode::Sequential`] and once
//! under the resolved mode (`ADASERVE_EXEC`-overridable, sharded by
//! default), at equal per-replica pressure. Each pair is asserted
//! record-identical — the speedup column is a pure implementation win,
//! not a behavior change.
//!
//! Aggregate RPS scales with the fleet (2 × N) while the simulated
//! duration shrinks as 1/N, so every row serves a comparable request
//! count and the sweep's wall-clock stays bounded. Timing methodology
//! matches `perf_report`: one unmeasured warmup per executor, then
//! interleaved best-of-[`TRIALS`] rounds.
//!
//! ```sh
//! fig_fleet_scaling                    # full sweep
//! ADASERVE_SMOKE=1 fig_fleet_scaling --json-out BENCH_fleet_scaling.json
//! ```

use adaserve_bench::{FleetRow, FleetSummary};
use adaserve_core::AdaServeEngine;
use cluster::{Cluster, RouterKind};
use serving::{ExecMode, RunReport, ServeSession, ServingEngine, SystemConfig};
use std::time::Instant;
use workload::{Workload, WorkloadBuilder};

/// Measured trials per (replica count, executor); best-of, after one
/// unmeasured warmup pair per replica count.
const TRIALS: usize = 5;

/// Fleet sizes swept (the 4-replica point doubles as `perf_report`'s
/// tracked pair; the tail shows how the win grows with the fleet).
const REPLICA_COUNTS: [usize; 4] = [4, 16, 64, 256];

/// Per-replica request rate (aggregate RPS = 2 × N).
const RPS_PER_REPLICA: f64 = 2.0;

fn fleet(n: usize, seed: u64) -> Vec<Box<dyn ServingEngine>> {
    (0..n)
        .map(|_| {
            Box::new(AdaServeEngine::new(SystemConfig::llama70b(seed))) as Box<dyn ServingEngine>
        })
        .collect()
}

/// Serves `wl` on a fresh `n`-replica fleet under `mode`, returning the
/// report and the wall time.
fn timed(n: usize, seed: u64, mode: ExecMode, wl: &Workload) -> (RunReport, f64) {
    let cluster = Cluster::new(fleet(n, seed), RouterKind::SloAware.build());
    let start = Instant::now();
    let report = ServeSession::new(cluster)
        .with_exec_mode(mode)
        .serve(wl)
        .unwrap_or_else(|e| panic!("{} on {n} replicas failed: {e}", mode.label()));
    (report, start.elapsed().as_secs_f64() * 1e3)
}

fn row(n: usize, mode: ExecMode, report: &RunReport, wall_ms: f64, seq_wall_ms: f64) -> FleetRow {
    FleetRow {
        replicas: n,
        mode: mode.label(),
        workers: mode.effective_workers(),
        wall_ms,
        sim_ms: report.end_ms,
        requests: report.records.len(),
        iterations: report.iterations,
        iterations_per_sec: report.iterations as f64 / (wall_ms / 1e3).max(1e-9),
        speedup: seq_wall_ms / wall_ms.max(1e-9),
    }
}

fn main() {
    adaserve_bench::check_sweep_args("fig_fleet_scaling");
    let seed = adaserve_bench::seed();
    let smoke = adaserve_bench::is_smoke();
    let json_out = adaserve_bench::parse_json_out();
    let exec = adaserve_bench::exec_mode();
    // Per-row simulated duration is base/N: constant aggregate work per
    // row (~2 × base/1000 requests) however large the fleet.
    let base_ms = adaserve_bench::sweep_duration_ms(80_000.0, 160_000.0);
    let baseline_ms = SystemConfig::llama70b(seed).baseline_ms;

    println!(
        "fleet scaling sweep: replicas {REPLICA_COUNTS:?} x {{sequential, {}}}, \
         {RPS_PER_REPLICA} rps/replica, base {}s simulated, best of {TRIALS}, seed {seed}\n",
        exec.label(),
        base_ms / 1e3,
    );

    let mut summary = FleetSummary::new(
        "fig_fleet_scaling",
        if smoke { "smoke" } else { "full" },
        seed,
    );
    println!(
        "{:>8} {:<12} {:>7} {:>10} {:>10} {:>8} {:>10} {:>8}",
        "replicas", "exec", "workers", "wall_ms", "sim_ms", "reqs", "iters/s", "speedup"
    );
    for &n in &REPLICA_COUNTS {
        let wl = WorkloadBuilder::new(seed ^ 0xF1EE7, baseline_ms)
            .target_rps(RPS_PER_REPLICA * n as f64)
            .duration_ms(base_ms / n as f64)
            .build();
        // Warmup pair, then interleaved best-of rounds; the within-round
        // order flips each round so clock drift cannot systematically
        // favor either executor.
        let _ = timed(n, seed, exec, &wl);
        let _ = timed(n, seed, ExecMode::Sequential, &wl);
        let (mut exec_best, mut seq_best) = (f64::INFINITY, f64::INFINITY);
        let (mut exec_report, mut seq_report) = (None, None);
        for round in 0..TRIALS {
            // (is_sequential_slot, mode); the tag keeps the two slots
            // distinct even when `exec` itself resolves to sequential.
            let order = if round % 2 == 0 {
                [(false, exec), (true, ExecMode::Sequential)]
            } else {
                [(true, ExecMode::Sequential), (false, exec)]
            };
            for (is_seq, mode) in order {
                let (report, wall) = timed(n, seed, mode, &wl);
                if is_seq {
                    seq_best = seq_best.min(wall);
                    seq_report = Some(report);
                } else {
                    exec_best = exec_best.min(wall);
                    exec_report = Some(report);
                }
            }
        }
        let (exec_report, seq_report) = (
            exec_report.expect("trials ran"),
            seq_report.expect("trials ran"),
        );
        assert_eq!(
            exec_report.records,
            seq_report.records,
            "{} and sequential stepping must stay record-identical at {n} replicas",
            exec.label(),
        );
        let rows = [
            row(n, ExecMode::Sequential, &seq_report, seq_best, seq_best),
            row(n, exec, &exec_report, exec_best, seq_best),
        ];
        for r in rows {
            println!(
                "{:>8} {:<12} {:>7} {:>10.1} {:>10.0} {:>8} {:>10.0} {:>8.2}",
                r.replicas,
                r.mode,
                r.workers,
                r.wall_ms,
                r.sim_ms,
                r.requests,
                r.iterations_per_sec,
                r.speedup,
            );
            summary.rows.push(r);
        }
    }

    if let Some(path) = json_out {
        summary.write(&path).expect("write fleet artifact");
    }
}
