//! Property tests for the cluster driver's core invariants.
//!
//! * **Request conservation** — every request in the workload finishes
//!   exactly once, on exactly one replica, regardless of router policy,
//!   replica count, engine mix or drain/join events; the merge loses and
//!   duplicates nothing.
//! * **Determinism** — a cluster run is a pure function of (workload,
//!   fleet, router, scaling plan): repeating it reproduces identical merged
//!   records.

use adaserve_core::AdaServeEngine;
use baselines::{SarathiEngine, VllmEngine};
use cluster::{Cluster, RouterKind, ScalingAction};
use proptest::prelude::*;
use serving::{
    ExecMode, ReplicaAddr, RunOptions, RunReport, ScalePlan, ServeSession, ServingEngine,
    SystemConfig,
};
use workload::{Category, RequestSpec, Workload};

/// A deterministic mixed fleet: engine type and GPU profile vary by index.
fn fleet(n: usize, seed: u64) -> Vec<Box<dyn ServingEngine>> {
    (0..n)
        .map(|i| {
            let config = if i % 3 == 2 {
                SystemConfig::new(roofline::Testbed::llama70b_h100(), seed)
            } else {
                SystemConfig::llama70b(seed)
            };
            match i % 3 {
                0 => Box::new(AdaServeEngine::new(config)) as Box<dyn ServingEngine>,
                1 => Box::new(VllmEngine::new(config)),
                _ => Box::new(SarathiEngine::new(config)),
            }
        })
        .collect()
}

/// Drain replica `index` at `at_ms` and join it back at twice that.
fn drain_then_join(index: usize, at_ms: f64) -> Vec<ScalePlan> {
    let replica = ReplicaAddr::serving(index);
    vec![
        ScalePlan {
            at_ms,
            replica,
            action: ScalingAction::Drain,
        },
        ScalePlan {
            at_ms: at_ms * 2.0,
            replica,
            action: ScalingAction::Join,
        },
    ]
}

/// Small synthetic workload derived from a seed (kept tiny: each proptest
/// case is a full multi-engine simulation).
fn workload(seed: u64, n_requests: u64) -> Workload {
    let requests = (0..n_requests)
        .map(|id| {
            let h = simllm::hash::seed_stream(seed, id);
            let category = Category::ALL[(h % 3) as usize];
            RequestSpec {
                id,
                category,
                arrival_ms: id as f64 * (5.0 + (h % 40) as f64),
                prompt_len: 8 + (h % 48) as u32,
                output_len: 4 + (h % 12) as u32,
                tpot_slo_ms: match category {
                    Category::CodingCopilot => 28.0,
                    Category::Chatbot => 50.0,
                    Category::Summarization => 150.0,
                },
                ttft_slo_ms: category.ttft_slo().resolve(25.0),
                stream_seed: h,
                prefix: None,
            }
        })
        .collect();
    Workload {
        requests,
        description: format!("proptest seed {seed}"),
    }
}

fn run_cluster(
    seed: u64,
    n_requests: u64,
    n_replicas: usize,
    router: RouterKind,
    plans: Vec<ScalePlan>,
) -> RunReport {
    run_cluster_stepping(
        seed,
        n_requests,
        n_replicas,
        router,
        plans,
        ExecMode::default(),
    )
}

fn run_cluster_stepping(
    seed: u64,
    n_requests: u64,
    n_replicas: usize,
    router: RouterKind,
    plans: Vec<ScalePlan>,
    mode: ExecMode,
) -> RunReport {
    let mut session = ServeSession::with_options(
        Cluster::new(fleet(n_replicas, seed), router.build()),
        RunOptions::default(),
    )
    .with_exec_mode(mode);
    for p in plans {
        session.scale_at(p.at_ms, p.replica, p.action);
    }
    session
        .serve(&workload(seed, n_requests))
        .expect("cluster run completes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_request_finishes_exactly_once(
        seed in 0u64..1_000,
        n_requests in 1u64..24,
        n_replicas in 1usize..5,
        router_index in 0usize..4,
    ) {
        let router = RouterKind::ALL[router_index];
        let result = run_cluster(seed, n_requests, n_replicas, router, Vec::new());

        // Conservation: merged records cover the workload exactly.
        prop_assert_eq!(result.records.len() as u64, n_requests);
        let mut ids: Vec<u64> = result.records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        let expected: Vec<u64> = (0..n_requests).collect();
        prop_assert_eq!(ids, expected, "each id exactly once");

        // Per-replica streams partition the merged stream.
        let routed: u64 = result.units.iter().map(|u| u.routed).sum();
        prop_assert_eq!(routed, n_requests);
        let per_replica_total: usize = result
            .units
            .iter()
            .map(|u| u.result.records.len())
            .sum();
        prop_assert_eq!(per_replica_total, result.records.len());
        for u in &result.units {
            prop_assert_eq!(u.result.records.len() as u64, u.routed,
                "a replica finishes exactly what was routed to it");
        }
    }

    #[test]
    fn drain_join_events_lose_no_requests(
        seed in 0u64..1_000,
        n_requests in 2u64..20,
        drain_at in 1.0f64..400.0,
    ) {
        let plans = drain_then_join(0, drain_at);
        let result = run_cluster(seed, n_requests, 3, RouterKind::SloAware, plans);
        prop_assert_eq!(result.records.len() as u64, n_requests);
        let mut ids: Vec<u64> = result.records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len() as u64, n_requests);
    }

    #[test]
    fn runs_are_deterministic_under_fixed_seed(
        seed in 0u64..1_000,
        n_requests in 1u64..16,
        n_replicas in 1usize..4,
        router_index in 0usize..4,
    ) {
        let router = RouterKind::ALL[router_index];
        let a = run_cluster(seed, n_requests, n_replicas, router, Vec::new());
        let b = run_cluster(seed, n_requests, n_replicas, router, Vec::new());
        prop_assert_eq!(a.records, b.records, "merged records reproduce");
        prop_assert_eq!(a.end_ms, b.end_ms);
        prop_assert_eq!(a.iterations, b.iterations);
        let shares_a: Vec<u64> = a.units.iter().map(|u| u.routed).collect();
        let shares_b: Vec<u64> = b.units.iter().map(|u| u.routed).collect();
        prop_assert_eq!(shares_a, shares_b, "routing decisions reproduce");
    }

    /// Sharded stepping (any worker count, including auto, inline and
    /// more workers than replicas) is output-identical to sequential
    /// stepping at awkward fleet shapes — 1, 3 and 7 replicas — and
    /// across mid-run drain/join scaling events.
    #[test]
    fn sharded_stepping_matches_sequential(
        seed in 0u64..1_000,
        n_requests in 1u64..20,
        shape_index in 0usize..3,
        workers_index in 0usize..4,
        router_index in 0usize..4,
        with_scaling in any::<bool>(),
        drain_at in 1.0f64..400.0,
    ) {
        let n_replicas = [1usize, 3, 7][shape_index];
        // Some(16) exceeds every fleet shape: empty shards must steal.
        let workers = [None, Some(1), Some(2), Some(16)][workers_index];
        let router = RouterKind::ALL[router_index];
        let plans = if with_scaling {
            drain_then_join(n_replicas - 1, drain_at)
        } else {
            Vec::new()
        };
        let par = run_cluster_stepping(
            seed, n_requests, n_replicas, router, plans.clone(),
            ExecMode::Sharded { workers },
        );
        let seq = run_cluster_stepping(
            seed, n_requests, n_replicas, router, plans, ExecMode::Sequential,
        );
        prop_assert_eq!(par.records, seq.records, "records byte-identical");
        prop_assert_eq!(par.end_ms, seq.end_ms);
        prop_assert_eq!(par.iterations, seq.iterations);
        let shares_p: Vec<u64> = par.units.iter().map(|u| u.routed).collect();
        let shares_s: Vec<u64> = seq.units.iter().map(|u| u.routed).collect();
        prop_assert_eq!(shares_p, shares_s, "same routing under sharded stepping");
    }
}
