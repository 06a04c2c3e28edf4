//! `fig_disagg_sweep` — disaggregated vs colocated serving at equal
//! aggregate hardware: pool split × request rate × KV-link bandwidth.
//!
//! Every configuration deploys the *same* four Llama-70B/4×A100 engine
//! groups. The colocated baseline runs them as a 4-replica
//! [`cluster::Cluster`] behind the SLO-aware router (PR 2's deployment
//! mode); each disaggregated configuration splits them into a prefill
//! pool and a decode pool joined by a KV-migration link
//! (`disagg::DisaggCluster`). The quantity under study is TTFT attainment:
//! colocated engines co-batch chunked prefill with verification, so long
//! prompts steal decode iterations *and* queue behind them — dedicated
//! prefill replicas remove that interference at the price of a migration
//! delay, which the bandwidth axis prices from NVLink-class down to
//! PCIe-class links.
//!
//! The headline row checks the disaggregation claim: at equal aggregate
//! hardware, at least one pool split beats the colocated baseline's TTFT
//! attainment at the highest swept load.
//!
//! ```sh
//! fig_disagg_sweep                  # full sweep
//! fig_disagg_sweep --quick          # shorter trace
//! ADASERVE_SMOKE=1 fig_disagg_sweep --json-out BENCH_disagg_smoke.json
//! ```

use adaserve_bench::summary::{slo_row, SLO};
use adaserve_bench::{
    check_sweep_args, expect_no_rejections, is_smoke, par_map, parse_json_out, seed,
    sweep_duration_ms, Artifact,
};
use adaserve_core::AdaServeEngine;
use cluster::{Cluster, RouterKind};
use disagg::{DisaggCluster, Dispatcher, KvLink, PrefillPool};
use metrics::{SloReport, Table};
use serving::{ServeSession, ServingEngine, SystemConfig};
use workload::{TraceKind, Workload, WorkloadBuilder};

/// Total engine groups deployed in every configuration.
const TOTAL_REPLICAS: usize = 4;

/// One sweep configuration: how the four engine groups are deployed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Deployment {
    /// All four groups colocated behind the SLO-aware cluster router.
    Colocated,
    /// `n_prefill` prefill-only groups + the rest decoding, joined by a
    /// link of the given bandwidth (GB/s).
    Disagg { n_prefill: usize, link_gbps: f64 },
}

impl Deployment {
    fn label(&self) -> String {
        match *self {
            Deployment::Colocated => "colocated".into(),
            Deployment::Disagg {
                n_prefill,
                link_gbps,
            } => format!(
                "{}p{}d bw={}",
                n_prefill,
                TOTAL_REPLICAS - n_prefill,
                link_gbps
            ),
        }
    }
}

fn engines(n: usize, seed: u64) -> Vec<Box<dyn ServingEngine>> {
    (0..n)
        .map(|_| {
            Box::new(AdaServeEngine::new(SystemConfig::llama70b(seed))) as Box<dyn ServingEngine>
        })
        .collect()
}

fn run_one(deployment: Deployment, workload: &Workload, seed: u64) -> SloReport {
    match deployment {
        Deployment::Colocated => {
            let cluster = Cluster::new(engines(TOTAL_REPLICAS, seed), RouterKind::SloAware.build());
            let report = ServeSession::new(cluster)
                .with_exec_mode(adaserve_bench::exec_mode())
                .serve(workload)
                .unwrap_or_else(|e| panic!("colocated run failed: {e}"));
            expect_no_rejections("colocated", &report);
            report.report()
        }
        Deployment::Disagg {
            n_prefill,
            link_gbps,
        } => {
            let prefill = PrefillPool::new(vec![SystemConfig::llama70b(seed); n_prefill]);
            let decode = engines(TOTAL_REPLICAS - n_prefill, seed);
            let disagg = DisaggCluster::new(
                prefill,
                decode,
                Dispatcher::new(RouterKind::SloAware.build()),
                KvLink::new(link_gbps, 0.05),
            );
            let report = ServeSession::new(disagg)
                .with_exec_mode(adaserve_bench::exec_mode())
                .serve(workload)
                .unwrap_or_else(|e| panic!("disagg {deployment:?} failed: {e}"));
            expect_no_rejections(&deployment.label(), &report);
            report.report()
        }
    }
}

fn main() {
    check_sweep_args("fig_disagg_sweep");
    let seed = seed();
    let smoke = is_smoke();
    let json_out = parse_json_out();
    let duration_ms = sweep_duration_ms(6_000.0, 60_000.0);
    // Aggregate request rates over the whole 4-group deployment. The upper
    // points push the colocated fleet into the prefill-interference regime
    // where TTFT attainment separates the deployment modes.
    let (rps_points, bandwidths) = if smoke {
        (vec![8.0], vec![300.0])
    } else {
        (vec![8.0, 12.0, 16.0], vec![300.0, 64.0, 16.0])
    };
    let splits: Vec<usize> = vec![1, 2];
    let baseline_ms = SystemConfig::llama70b(seed).baseline_ms;

    println!(
        "disagg sweep: {TOTAL_REPLICAS} engine groups, splits {splits:?} prefill x \
         bandwidths {bandwidths:?} GB/s x aggregate rps {rps_points:?}, {}s simulated, seed {seed}\n",
        duration_ms / 1e3,
    );

    // One job per (rps, deployment); colocated once per rps, disagg per
    // (split, bandwidth).
    let mut jobs: Vec<(f64, Deployment)> = Vec::new();
    for &rps in &rps_points {
        jobs.push((rps, Deployment::Colocated));
        for &n_prefill in &splits {
            for &link_gbps in &bandwidths {
                jobs.push((
                    rps,
                    Deployment::Disagg {
                        n_prefill,
                        link_gbps,
                    },
                ));
            }
        }
    }
    let reports: Vec<SloReport> = par_map(jobs.clone(), |&(rps, deployment)| {
        let workload = WorkloadBuilder::new(seed, baseline_ms)
            .trace(TraceKind::RealWorld)
            .target_rps(rps)
            .duration_ms(duration_ms)
            .build();
        run_one(deployment, &workload, seed)
    });

    let mut summary = Artifact::new(&SLO, "fig_disagg_sweep", seed, Some(duration_ms));
    let mut table = Table::new(vec![
        "rps".into(),
        "deployment".into(),
        "TTFT att %".to_string(),
        "p99 TTFT ms".to_string(),
        "TPOT att %".to_string(),
        "goodput tok/s".to_string(),
    ]);
    for (ji, &(rps, deployment)) in jobs.iter().enumerate() {
        let r = &reports[ji];
        summary
            .rows
            .push(slo_row(format!("rps={rps:.1} {}", deployment.label()), r));
        table.row(vec![
            format!("{rps:.1}"),
            deployment.label(),
            format!("{:.1}", r.ttft_attainment_pct),
            format!("{:.0}", r.p99_ttft_ms),
            format!("{:.1}", r.attainment_pct),
            format!("{:.0}", r.goodput_tps),
        ]);
    }
    println!("{}", table.render());
    println!("CSV:\n{}", table.to_csv());

    // Headline: best disagg split vs colocated at the highest swept load.
    let top_rps = *rps_points.last().expect("non-empty sweep");
    let colocated = jobs
        .iter()
        .position(|&(rps, d)| rps == top_rps && d == Deployment::Colocated)
        .map(|i| &reports[i])
        .expect("colocated point exists");
    let best_disagg = jobs
        .iter()
        .enumerate()
        .filter(|(_, &(rps, d))| rps == top_rps && matches!(d, Deployment::Disagg { .. }))
        .max_by(|(a, _), (b, _)| {
            reports[*a]
                .ttft_attainment_pct
                .total_cmp(&reports[*b].ttft_attainment_pct)
        })
        .expect("disagg points exist");
    let (bi, &(_, best_deployment)) = best_disagg;
    println!(
        "Headline ({top_rps:.1} aggregate rps, equal {TOTAL_REPLICAS}-group hardware): \
         best disagg split {} TTFT attainment {:.1}% vs colocated {:.1}% ({}); \
         p99 TTFT {:.0} ms vs {:.0} ms",
        best_deployment.label(),
        reports[bi].ttft_attainment_pct,
        colocated.ttft_attainment_pct,
        if reports[bi].ttft_attainment_pct > colocated.ttft_attainment_pct {
            "disagg ABOVE colocated: OK"
        } else {
            "disagg NOT above colocated"
        },
        reports[bi].p99_ttft_ms,
        colocated.p99_ttft_ms,
    );

    if let Some(path) = json_out {
        summary.write(&path).expect("write BENCH json");
    }
}
