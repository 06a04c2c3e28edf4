//! `fig_cluster_scaling` — multi-replica scaling: replicas × RPS × router.
//!
//! The paper evaluates one engine; this extension figure evaluates
//! *fleets* of AdaServe engines behind the four routing policies of the
//! `cluster` crate, on heterogeneous hardware (every fourth replica is the
//! H100 what-if profile, the rest the paper's A100 profile). Aggregate
//! request rate scales with the fleet (`per-replica RPS × N`), so each
//! fleet size is compared at equal per-replica pressure.
//!
//! The headline row checks the cluster analogue of the paper's claim: the
//! SLO-aware router (tight tier → least-loaded replica, throughput tier →
//! packed) attains at least round-robin's SLO attainment at equal
//! aggregate RPS on the 4-replica mixed fleet.
//!
//! ```sh
//! fig_cluster_scaling                  # full sweep
//! fig_cluster_scaling --quick          # shorter trace
//! ADASERVE_SMOKE=1 fig_cluster_scaling --json-out BENCH_smoke.json
//! ```

use adaserve_bench::{
    check_sweep_args, expect_no_rejections, is_smoke, par_map, parse_json_out, seed,
    sweep_duration_ms, BenchSummary,
};
use adaserve_core::AdaServeEngine;
use cluster::{Cluster, RouterKind};
use metrics::Table;
use serving::{RunReport, ServeSession, ServingEngine, SystemConfig};
use workload::{TraceKind, WorkloadBuilder};

/// Builds the N-replica fleet: every fourth replica runs the H100 what-if
/// profile, the rest the paper's 4×A100 profile (so the 4-replica fleet is
/// a 3 + 1 mix).
fn fleet(n: usize, seed: u64) -> Vec<Box<dyn ServingEngine>> {
    (0..n)
        .map(|i| {
            let config = if i % 4 == 3 {
                SystemConfig::new(roofline::Testbed::llama70b_h100(), seed)
            } else {
                SystemConfig::llama70b(seed)
            };
            Box::new(AdaServeEngine::new(config)) as Box<dyn ServingEngine>
        })
        .collect()
}

fn main() {
    check_sweep_args("fig_cluster_scaling");
    let seed = seed();
    let smoke = is_smoke();
    // --json-out is validated up front so a malformed flag fails before
    // any simulation runs.
    let json_out = parse_json_out();
    // Full-mode per-replica rates straddle the single-engine saturation
    // point (the fig08 extended sweep shows AdaServe itself starts missing
    // SLOs past ~5.4 rps), so the sweep exercises both the comfortable and
    // the overloaded regime where router quality separates.
    let duration_ms = sweep_duration_ms(6_000.0, 90_000.0);
    let (replica_counts, rps_points) = if smoke {
        (vec![2usize, 4], vec![2.0])
    } else {
        (vec![2usize, 4, 8], vec![4.0, 6.0, 8.0])
    };
    // Baseline-relative SLOs resolve against the slowest profile in any
    // fleet, keeping them attainable on every replica. The largest fleet
    // contains every profile the smaller ones use.
    let baseline_ms =
        cluster::max_baseline_ms(&fleet(*replica_counts.last().expect("non-empty"), seed));

    println!(
        "cluster scaling sweep: replicas {replica_counts:?} x per-replica rps {rps_points:?} \
         x {} routers, {}s simulated, seed {seed}\n",
        RouterKind::ALL.len(),
        duration_ms / 1e3,
    );

    // One job per (replica count, rps, router); each builds its own fleet.
    let jobs: Vec<(usize, f64, RouterKind)> = replica_counts
        .iter()
        .flat_map(|&n| {
            rps_points
                .iter()
                .flat_map(move |&rps| RouterKind::ALL.iter().map(move |&router| (n, rps, router)))
        })
        .collect();
    let results: Vec<RunReport> = par_map(jobs.clone(), |&(n, rps, router)| {
        let workload = WorkloadBuilder::new(seed, baseline_ms)
            .trace(TraceKind::RealWorld)
            .target_rps(rps * n as f64)
            .duration_ms(duration_ms)
            .build();
        let cluster = Cluster::new(fleet(n, seed), router.build());
        let report = ServeSession::new(cluster)
            .with_exec_mode(adaserve_bench::exec_mode())
            .serve(&workload)
            .unwrap_or_else(|e| panic!("{} on {n} replicas failed: {e}", router.name()));
        expect_no_rejections(router.name(), &report);
        report
    });

    let mut summary = BenchSummary::new(
        "fig_cluster_scaling",
        if smoke { "smoke" } else { "full" },
        seed,
        duration_ms,
    );
    let mut header: Vec<String> = vec!["replicas".into(), "rps/replica".into()];
    header.extend(RouterKind::ALL.iter().map(|r| r.name().to_string()));
    let mut attain = Table::new(header.clone());
    let mut goodput = Table::new(header.clone());
    let mut p99 = Table::new(header);

    let reports: Vec<metrics::SloReport> = results.iter().map(RunReport::report).collect();
    for (ji, &(n, rps, router)) in jobs.iter().enumerate() {
        summary.push_report(
            format!("replicas={n} rps={rps:.1} router={}", router.name()),
            &reports[ji],
        );
        // Router is the innermost sweep variable: each (n, rps) pair owns
        // one table row spanning all routers.
        if router == RouterKind::ALL[0] {
            let row_of = |f: &dyn Fn(&metrics::SloReport) -> String| {
                let mut row = vec![n.to_string(), format!("{rps:.1}")];
                row.extend((0..RouterKind::ALL.len()).map(|ri| f(&reports[ji + ri])));
                row
            };
            attain.row(row_of(&|r| format!("{:.1}", r.attainment_pct)));
            goodput.row(row_of(&|r| format!("{:.0}", r.goodput_tps)));
            p99.row(row_of(&|r| format!("{:.1}", r.p99_tpot_ms)));
        }
    }

    println!("-- SLO attainment (%) --\n{}", attain.render());
    println!("-- goodput (tokens/s) --\n{}", goodput.render());
    println!("-- p99 TPOT (ms) --\n{}", p99.render());
    println!("CSV attainment:\n{}", attain.to_csv());

    // Headline: SLO-aware vs round-robin on the 4-replica mixed fleet at
    // the highest shared aggregate RPS.
    let four = |router: RouterKind| {
        let rps = *rps_points.last().expect("non-empty sweep");
        jobs.iter()
            .position(|&(n, r, k)| n == 4 && r == rps && k == router)
            .map(|i| &reports[i])
    };
    if let (Some(slo_aware), Some(rr)) = (four(RouterKind::SloAware), four(RouterKind::RoundRobin))
    {
        println!(
            "Headline (4-replica mix, {:.1} rps/replica): slo-aware attainment {:.1}% vs \
             round-robin {:.1}% ({}); goodput {:.0} vs {:.0} tok/s",
            rps_points.last().unwrap(),
            slo_aware.attainment_pct,
            rr.attainment_pct,
            if slo_aware.attainment_pct >= rr.attainment_pct {
                "slo-aware >= round-robin: OK"
            } else {
                "slo-aware BELOW round-robin"
            },
            slo_aware.goodput_tps,
            rr.goodput_tps,
        );
    }

    if let Some(path) = json_out {
        summary.write(&path).expect("write BENCH json");
    }
}
