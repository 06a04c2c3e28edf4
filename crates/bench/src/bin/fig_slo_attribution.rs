//! `fig_slo_attribution` — *why* requests miss their SLOs, across load.
//!
//! The tracked artifact behind the tracing layer
//! (`metrics::telemetry`): each sweep point serves one workload on a
//! 2-replica SLO-aware cluster with the ring tracer live, replays the
//! trace through [`SloAttribution`] and emits one row per SLO tier (plus
//! a pooled `all` row) decomposing the violating requests' latency into
//! queueing / prefill / transfer / decode / preemption shares. As RPS
//! rises the dominant cause shifts from compute-bound (prefill/decode)
//! to queueing-bound — the shape the paper's SLO-attainment cliffs
//! (Figs. 8–9) imply but never show directly. The `check_bench_json`
//! gate holds every row's shares to a ~100% sum.
//!
//! `--trace-out PATH` additionally dumps the *last* (highest-RPS) sweep
//! point as Chrome-trace / Perfetto JSON, loadable in `ui.perfetto.dev`.
//!
//! ```sh
//! fig_slo_attribution                 # full sweep
//! ADASERVE_SMOKE=1 fig_slo_attribution --json-out BENCH_attribution.json \
//!     --trace-out trace.json
//! ```

use adaserve_bench::summary::{attribution_row, ATTRIBUTION};
use adaserve_bench::Artifact;
use adaserve_core::AdaServeEngine;
use cluster::{Cluster, RouterKind};
use metrics::telemetry::{perfetto, SloAttribution, TraceEvent, Tracer};
use serving::{ServeSession, ServingEngine, SystemConfig};
use workload::WorkloadBuilder;

/// Replicas in the traced cluster: two is enough to exercise routing
/// decisions while keeping the smoke run CI-sized.
const REPLICAS: usize = 2;

fn main() {
    adaserve_bench::check_sweep_args("fig_slo_attribution");
    let seed = adaserve_bench::seed();
    let smoke = adaserve_bench::is_smoke();
    let json_out = adaserve_bench::parse_json_out();
    let trace_out = adaserve_bench::parse_trace_out();
    let duration_ms = adaserve_bench::sweep_duration_ms(10_000.0, 45_000.0);
    let baseline_ms = SystemConfig::llama70b(seed).baseline_ms;

    // Low → high offered load on a fixed 2-replica fleet: the low points
    // sit inside capacity (violations rare, fallback rows show where
    // latency lives), the high points overload it (queueing dominates).
    let rates: &[f64] = if smoke {
        &[4.0, 12.0]
    } else {
        &[4.0, 8.0, 12.0, 16.0]
    };

    println!(
        "SLO attribution sweep: rps {rates:?} on {REPLICAS}x llama70b (slo-aware router), \
         {}s simulated per point, ring tracer live, seed {seed}\n",
        duration_ms / 1e3,
    );

    let mut summary = Artifact::new(&ATTRIBUTION, "fig_slo_attribution", seed, Some(duration_ms));
    println!(
        "{:<10} {:<10} {:>6} {:>6} {:>7} {:>8} {:>6} {:>7} {:>8}  {:<10} {:>8}",
        "label",
        "tier",
        "reqs",
        "viol",
        "queue%",
        "prefill%",
        "xfer%",
        "decode%",
        "preempt%",
        "dominant",
        "fallback"
    );

    let mut last_trace: Vec<TraceEvent> = Vec::new();
    for &rps in rates {
        let wl = WorkloadBuilder::new(seed ^ 0xA77B, baseline_ms)
            .target_rps(rps)
            .duration_ms(duration_ms)
            .build();
        let engines: Vec<Box<dyn ServingEngine>> = (0..REPLICAS)
            .map(|_| {
                Box::new(AdaServeEngine::new(SystemConfig::llama70b(seed)))
                    as Box<dyn ServingEngine>
            })
            .collect();
        let cluster = Cluster::new(engines, RouterKind::SloAware.build());
        let tracer = Tracer::on();
        let report = ServeSession::new(cluster)
            .with_tracer(tracer.clone())
            .serve(&wl)
            .expect("attribution sweep point completes");
        adaserve_bench::expect_no_rejections("fig_slo_attribution", &report);
        if tracer.dropped() > 0 {
            eprintln!(
                "warning: rps={rps:.1}: ring dropped {} events; attribution covers a suffix",
                tracer.dropped()
            );
        }
        let events = tracer.snapshot();
        let attr = SloAttribution::from_events(&events);

        let label = format!("rps={rps:.1}");
        let overall = attr.overall();
        for tier in attr.per_tier.iter().chain(std::iter::once(&overall)) {
            println!(
                "{:<10} {:<10} {:>6} {:>6} {:>7.1} {:>8.1} {:>6.1} {:>7.1} {:>8.1}  {:<10} {:>8}",
                label,
                tier.tier,
                tier.requests,
                tier.violations,
                tier.queueing_pct,
                tier.prefill_pct,
                tier.transfer_pct,
                tier.decode_pct,
                tier.preemption_pct,
                tier.dominant,
                if tier.fallback_all_requests {
                    "all"
                } else {
                    "viol"
                },
            );
            summary.rows.push(attribution_row(&label, rps, tier));
        }
        last_trace = events;
    }

    if let Some(path) = trace_out {
        perfetto::export_to_file(&path, &last_trace).expect("write perfetto trace");
        eprintln!(
            "wrote {} ({} events, highest-RPS sweep point)",
            path.display(),
            last_trace.len()
        );
    }
    if let Some(path) = json_out {
        summary.write(&path).expect("write attribution artifact");
    }
}
