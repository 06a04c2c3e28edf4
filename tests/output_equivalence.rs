//! Integration: speculative decoding is lossless, and serving output does
//! not depend on how the front door executes a deployment.
//!
//! The defining guarantee of speculative decoding (paper §1: "a single
//! verification step ... to ensure lossless generation") is that the output
//! token stream is *identical* to plain auto-regressive decoding. In this
//! reproduction the target model's token at output position `k` of a request
//! is a pure function of `(stream, k)`, so the invariant is exactly testable:
//! the stream AdaServe commits must equal the reference chain sampled
//! directly from the target model.

use adaserve::core::AdaServeEngine;
use adaserve::serving::{ServingEngine, SystemConfig};
use adaserve::simllm::{sample_seeded, Lm, LmContext, TokenId};
use adaserve::workload::{Category, RequestSpec};

/// Reference: plain auto-regressive sampling of `n` output tokens.
fn reference_stream(config: &SystemConfig, spec: &RequestSpec, n: u32) -> Vec<TokenId> {
    let mut tokens = spec.prompt_tokens();
    let mut out = Vec::new();
    for k in 0..n {
        let ctx = LmContext::new(spec.stream_seed, spec.category.content_class(), &tokens);
        let dist = config.pair.target().next_dist(&ctx);
        let t = sample_seeded(&dist, spec.stream_seed, u64::from(k));
        tokens.push(t);
        out.push(t);
    }
    out
}

#[test]
fn adaserve_output_equals_autoregressive_reference() {
    let config = SystemConfig::llama70b(3);
    let specs: Vec<RequestSpec> = (0..4u64)
        .map(|id| RequestSpec {
            id,
            category: match id % 3 {
                0 => Category::CodingCopilot,
                1 => Category::Chatbot,
                _ => Category::Summarization,
            },
            arrival_ms: id as f64 * 3.0,
            prompt_len: 20,
            output_len: 24,
            tpot_slo_ms: 50.0,
            ttft_slo_ms: 1_000.0,
            stream_seed: 0xBEEF ^ id,
            prefix: None,
        })
        .collect();
    let references: Vec<Vec<TokenId>> = specs
        .iter()
        .map(|s| reference_stream(&config, s, s.output_len))
        .collect();

    // Serve with AdaServe, stepping manually so we can inspect the token
    // streams before requests finish and are drained.
    let mut engine = AdaServeEngine::new(config);
    for spec in &specs {
        engine.core_mut().on_arrival(spec.clone());
    }
    let mut now = 0.0;
    let mut max_observed = vec![0usize; specs.len()];
    for _ in 0..10_000 {
        // Compare generated prefixes of still-running requests.
        for r in &engine.core().running {
            let id = r.spec.id as usize;
            let generated = r.generated() as usize;
            if generated > 0 {
                let got: Vec<TokenId> = r.tokens()[r.tokens().len() - generated..].to_vec();
                assert_eq!(
                    got,
                    references[id][..generated].to_vec(),
                    "request {id} diverged from the auto-regressive reference"
                );
                max_observed[id] = max_observed[id].max(generated);
            }
        }
        if !engine.core().has_work() {
            break;
        }
        let step = engine.step(now);
        now += step.latency_ms.max(1e-6);
    }
    assert!(!engine.core().has_work(), "engine did not finish");
    // A request's last observable prefix is at most one iteration (≤ d + 1
    // tokens) short of its full stream; everything up to there matched.
    for (id, &seen) in max_observed.iter().enumerate() {
        assert!(
            seen + 9 >= specs[id].output_len as usize,
            "request {id} observed only to {seen} of {}",
            specs[id].output_len
        );
    }
}

/// Sharded replica stepping must be a pure wall-clock optimization:
/// replicas only interact at the session's submit/scale points, so
/// batch-stepping them — inline or on the persistent sharded executor,
/// with any worker count — must reproduce sequential stepping's output
/// byte for byte: records, per-replica routing shares, iteration counts,
/// end clocks. Every [`ExecMode`] is swept here, including worker counts
/// above the replica count and a mid-run drain/join scaling timeline.
mod parallel_stepping_equivalence {
    use adaserve::cluster::{Cluster, RouterKind, ScalingAction};
    use adaserve::core::AdaServeEngine;
    use adaserve::disagg::{DisaggCluster, Dispatcher, KvLink, PrefillPool};
    use adaserve::serving::{
        ExecMode, ReplicaAddr, RunOptions, RunReport, ServeSession, ServingEngine, SystemConfig,
    };
    use adaserve::workload::WorkloadBuilder;

    /// Every mode shape worth pinning: strictly sequential, auto-sharded
    /// (the default), inline single-worker, a real multi-worker pool, and
    /// more workers than replicas (empty shards must steal, not break).
    const MODES: [ExecMode; 5] = [
        ExecMode::Sequential,
        ExecMode::Sharded { workers: None },
        ExecMode::Sharded { workers: Some(1) },
        ExecMode::Sharded { workers: Some(2) },
        ExecMode::Sharded { workers: Some(16) },
    ];

    fn engines(n: usize, seed: u64) -> Vec<Box<dyn ServingEngine>> {
        (0..n)
            .map(|_| {
                Box::new(AdaServeEngine::new(SystemConfig::llama70b(seed)))
                    as Box<dyn ServingEngine>
            })
            .collect()
    }

    fn assert_identical(got: RunReport, reference: &RunReport, mode: ExecMode) {
        let label = mode.label();
        assert_eq!(
            got.records, reference.records,
            "{label}: merged records must be byte-identical"
        );
        assert_eq!(got.end_ms, reference.end_ms, "{label}: end clock");
        assert_eq!(got.iterations, reference.iterations, "{label}: iterations");
        let got_shares: Vec<u64> = got.units.iter().map(|u| u.routed).collect();
        let ref_shares: Vec<u64> = reference.units.iter().map(|u| u.routed).collect();
        assert_eq!(got_shares, ref_shares, "{label}: same routing decisions");
        for (g, r) in got.units.iter().zip(reference.units.iter()) {
            assert_eq!(
                g.result.records, r.result.records,
                "{label}: unit {} record stream",
                g.replica
            );
        }
    }

    #[test]
    fn cluster_stepping_matches_sequential_for_every_exec_mode() {
        let baseline_ms = SystemConfig::llama70b(7).baseline_ms;
        // ADASERVE_SEED-style seeding: the builder seed pins the workload.
        let wl = WorkloadBuilder::new(adaserve::workload::env_seed(41), baseline_ms)
            .target_rps(4.0)
            .duration_ms(10_000.0)
            .build();
        let run = |mode: ExecMode| {
            ServeSession::new(Cluster::new(engines(3, 7), RouterKind::SloAware.build()))
                .with_exec_mode(mode)
                .serve(&wl)
                .unwrap_or_else(|e| panic!("{} run: {e}", mode.label()))
        };
        let reference = run(ExecMode::Sequential);
        for mode in MODES {
            assert_identical(run(mode), &reference, mode);
        }
    }

    /// Mid-run drain/join events are synchronization points the executor
    /// must respect: the batch horizon stops at each scaling timestamp,
    /// so routing (and therefore output) stays identical across modes
    /// even while the fleet shrinks and regrows.
    #[test]
    fn cluster_stepping_matches_sequential_across_mid_run_scaling() {
        let baseline_ms = SystemConfig::llama70b(7).baseline_ms;
        let wl = WorkloadBuilder::new(adaserve::workload::env_seed(47), baseline_ms)
            .target_rps(4.0)
            .duration_ms(10_000.0)
            .build();
        let run = |mode: ExecMode| {
            let mut session =
                ServeSession::new(Cluster::new(engines(3, 7), RouterKind::SloAware.build()))
                    .with_exec_mode(mode);
            session.scale_at(2_500.0, ReplicaAddr::serving(1), ScalingAction::Drain);
            session.scale_at(6_000.0, ReplicaAddr::serving(1), ScalingAction::Join);
            session.scale_at(7_500.0, ReplicaAddr::serving(2), ScalingAction::Drain);
            session
                .serve(&wl)
                .unwrap_or_else(|e| panic!("{} scaled run: {e}", mode.label()))
        };
        let reference = run(ExecMode::Sequential);
        for mode in MODES {
            assert_identical(run(mode), &reference, mode);
        }
    }

    #[test]
    fn disagg_stepping_matches_sequential_for_every_exec_mode() {
        let baseline_ms = SystemConfig::llama70b(7).baseline_ms;
        let wl = WorkloadBuilder::new(adaserve::workload::env_seed(43), baseline_ms)
            .target_rps(4.0)
            .duration_ms(10_000.0)
            .build();
        let run = |mode: ExecMode| {
            let disagg = DisaggCluster::new(
                PrefillPool::new(vec![SystemConfig::llama70b(7)]),
                engines(2, 7),
                Dispatcher::new(RouterKind::SloAware.build()),
                KvLink::new(300.0, 0.05),
            );
            ServeSession::new(disagg)
                .with_exec_mode(mode)
                .serve(&wl)
                .unwrap_or_else(|e| panic!("{} run: {e}", mode.label()))
        };
        let reference = run(ExecMode::Sequential);
        for mode in MODES {
            assert_identical(run(mode), &reference, mode);
        }
    }

    /// `ServeSession::with_exec_mode` is the same knob as
    /// `RunOptions::exec`: either way of picking a mode serves the same
    /// run.
    #[test]
    fn session_exec_mode_matches_run_options() {
        let baseline_ms = SystemConfig::llama70b(7).baseline_ms;
        let wl = WorkloadBuilder::new(adaserve::workload::env_seed(53), baseline_ms)
            .target_rps(4.0)
            .duration_ms(6_000.0)
            .build();
        let cluster = || Cluster::new(engines(3, 7), RouterKind::SloAware.build());
        let via_session = ServeSession::new(cluster())
            .with_exec_mode(ExecMode::Sequential)
            .serve(&wl)
            .expect("session-level sequential");
        let options = RunOptions {
            exec: ExecMode::Sequential,
            ..RunOptions::default()
        };
        let via_options = ServeSession::with_options(cluster(), options)
            .serve(&wl)
            .expect("run-options sequential");
        assert_identical(via_session, &via_options, ExecMode::Sequential);
    }
}

mod front_door_equivalence {
    use adaserve::cluster::{Cluster, RouterKind};
    use adaserve::core::AdaServeEngine;
    use adaserve::serving::{Colocated, ServeSession, SystemConfig};
    use adaserve::workload::{Workload, WorkloadBuilder};

    fn workload(seed: u64, baseline_ms: f64) -> Workload {
        WorkloadBuilder::new(seed, baseline_ms)
            .target_rps(3.0)
            .duration_ms(12_000.0)
            .build()
    }

    #[test]
    fn single_replica_cluster_matches_colocated_session() {
        // Cross-topology sanity: the trivial cluster degenerates to the
        // colocated deployment, record for record.
        let baseline_ms = SystemConfig::llama70b(13).baseline_ms;
        let wl = workload(34, baseline_ms);
        let as_cluster = ServeSession::new(Cluster::new(
            vec![Box::new(AdaServeEngine::new(SystemConfig::llama70b(13)))],
            RouterKind::RoundRobin.build(),
        ))
        .serve(&wl)
        .expect("cluster run");
        let as_colocated = ServeSession::new(Colocated::new(Box::new(AdaServeEngine::new(
            SystemConfig::llama70b(13),
        ))))
        .serve(&wl)
        .expect("colocated run");
        assert_eq!(as_cluster.records, as_colocated.records);
        assert_eq!(as_cluster.report(), as_colocated.report());
    }
}

/// Tracing is observation, not behaviour: serving with the ring tracer
/// live (or explicitly disabled) must reproduce the untraced run record
/// for record, across every deployment topology. This pins the
/// acceptance criterion of the telemetry layer — `Tracer::record` calls
/// sit inside the serving hot loop and must never perturb scheduling,
/// routing, or token streams.
mod tracing_equivalence {
    use adaserve::cluster::{Cluster, RouterKind};
    use adaserve::core::AdaServeEngine;
    use adaserve::disagg::{DisaggCluster, Dispatcher, KvLink, PrefillPool};
    use adaserve::metrics::telemetry::Tracer;
    use adaserve::serving::{
        Colocated, Deployment, RunReport, ServeSession, ServingEngine, SystemConfig,
    };
    use adaserve::workload::{Workload, WorkloadBuilder};

    fn workload(seed: u64) -> Workload {
        let baseline_ms = SystemConfig::llama70b(9).baseline_ms;
        WorkloadBuilder::new(seed, baseline_ms)
            .target_rps(4.0)
            .duration_ms(10_000.0)
            .build()
    }

    fn engines(n: usize) -> Vec<Box<dyn ServingEngine>> {
        (0..n)
            .map(|_| {
                Box::new(AdaServeEngine::new(SystemConfig::llama70b(9))) as Box<dyn ServingEngine>
            })
            .collect()
    }

    fn assert_tracing_invisible<D: Deployment, F: Fn() -> D>(build: F, wl: &Workload) {
        let untraced = ServeSession::new(build()).serve(wl).expect("untraced run");
        let off = ServeSession::new(build())
            .with_tracer(Tracer::off())
            .serve(wl)
            .expect("tracer=off run");
        let on_tracer = Tracer::on();
        let on = ServeSession::new(build())
            .with_tracer(on_tracer.clone())
            .serve(wl)
            .expect("tracer=on run");

        check(&untraced, &off, "tracer=off");
        check(&untraced, &on, "tracer=on");
        assert!(
            !on_tracer.snapshot().is_empty(),
            "the live tracer actually recorded events"
        );
    }

    fn check(reference: &RunReport, got: &RunReport, label: &str) {
        assert_eq!(
            reference.records, got.records,
            "{label}: records must be bit-identical to the untraced run"
        );
        assert_eq!(reference.end_ms, got.end_ms, "{label}: end clock");
        assert_eq!(reference.iterations, got.iterations, "{label}: iterations");
        let ref_shares: Vec<u64> = reference.units.iter().map(|u| u.routed).collect();
        let got_shares: Vec<u64> = got.units.iter().map(|u| u.routed).collect();
        assert_eq!(ref_shares, got_shares, "{label}: routing decisions");
    }

    #[test]
    fn colocated_records_identical_with_tracing_on_and_off() {
        let wl = workload(61);
        assert_tracing_invisible(
            || Colocated::new(Box::new(AdaServeEngine::new(SystemConfig::llama70b(9)))),
            &wl,
        );
    }

    #[test]
    fn cluster_records_identical_with_tracing_on_and_off() {
        let wl = workload(62);
        assert_tracing_invisible(
            || Cluster::new(engines(3), RouterKind::SloAware.build()),
            &wl,
        );
    }

    #[test]
    fn disagg_records_identical_with_tracing_on_and_off() {
        let wl = workload(63);
        assert_tracing_invisible(
            || {
                DisaggCluster::new(
                    PrefillPool::new(vec![SystemConfig::llama70b(9)]),
                    engines(2),
                    Dispatcher::new(RouterKind::SloAware.build()),
                    KvLink::new(300.0, 0.05),
                )
            },
            &wl,
        );
    }
}

/// The chaos layer is pay-for-what-you-use: a session built with an
/// *empty* [`FaultPlan`] and the default [`RecoveryPolicy`] must take the
/// exact legacy code path — records, end clock, iteration counts and
/// routing decisions bit-identical to a session that never heard of
/// faults. This pins the fault-injection subsystem's acceptance
/// criterion: fault-free runs are record-identical to the pre-chaos
/// output.
mod fault_free_equivalence {
    use adaserve::cluster::{Cluster, RouterKind};
    use adaserve::core::AdaServeEngine;
    use adaserve::disagg::{DisaggCluster, Dispatcher, KvLink, PrefillPool};
    use adaserve::serving::{
        Colocated, Deployment, FaultPlan, RecoveryPolicy, RunReport, ServeSession, ServingEngine,
        SystemConfig,
    };
    use adaserve::workload::{Workload, WorkloadBuilder};

    fn workload(seed: u64) -> Workload {
        let baseline_ms = SystemConfig::llama70b(9).baseline_ms;
        WorkloadBuilder::new(seed, baseline_ms)
            .target_rps(4.0)
            .duration_ms(10_000.0)
            .build()
    }

    fn engines(n: usize) -> Vec<Box<dyn ServingEngine>> {
        (0..n)
            .map(|_| {
                Box::new(AdaServeEngine::new(SystemConfig::llama70b(9))) as Box<dyn ServingEngine>
            })
            .collect()
    }

    fn assert_chaos_machinery_invisible<D: Deployment, F: Fn() -> D>(build: F, wl: &Workload) {
        let plain = ServeSession::new(build()).serve(wl).expect("plain run");
        let armed = ServeSession::new(build())
            .with_fault_plan(FaultPlan::new())
            .with_recovery_policy(RecoveryPolicy::default())
            .serve(wl)
            .expect("armed-but-empty run");
        check(&plain, &armed);
        assert_eq!(armed.retries_scheduled, 0, "nothing was ever lost");
        assert!(armed.rejected.is_empty(), "nothing was ever shed");
    }

    fn check(reference: &RunReport, got: &RunReport) {
        assert_eq!(
            reference.records, got.records,
            "records must be bit-identical to the session without a fault plan"
        );
        assert_eq!(reference.end_ms, got.end_ms, "end clock");
        assert_eq!(reference.iterations, got.iterations, "iterations");
        let ref_shares: Vec<u64> = reference.units.iter().map(|u| u.routed).collect();
        let got_shares: Vec<u64> = got.units.iter().map(|u| u.routed).collect();
        assert_eq!(ref_shares, got_shares, "routing decisions");
    }

    #[test]
    fn colocated_records_identical_with_empty_fault_plan() {
        let wl = workload(71);
        assert_chaos_machinery_invisible(
            || Colocated::new(Box::new(AdaServeEngine::new(SystemConfig::llama70b(9)))),
            &wl,
        );
    }

    #[test]
    fn cluster_records_identical_with_empty_fault_plan() {
        let wl = workload(72);
        assert_chaos_machinery_invisible(
            || Cluster::new(engines(3), RouterKind::SloAware.build()),
            &wl,
        );
    }

    #[test]
    fn disagg_records_identical_with_empty_fault_plan() {
        let wl = workload(73);
        assert_chaos_machinery_invisible(
            || {
                DisaggCluster::new(
                    PrefillPool::new(vec![SystemConfig::llama70b(9)]),
                    engines(2),
                    Dispatcher::new(RouterKind::SloAware.build()),
                    KvLink::new(300.0, 0.05),
                )
            },
            &wl,
        );
    }
}

mod prefix_cache_equivalence {
    use adaserve::core::AdaServeEngine;
    use adaserve::metrics::RequestRecord;
    use adaserve::serving::{Colocated, RunReport, ServeSession, SystemConfig};
    use adaserve::workload::{Workload, WorkloadBuilder};

    fn serve(config: SystemConfig, wl: &Workload) -> RunReport {
        ServeSession::new(Colocated::new(Box::new(AdaServeEngine::new(config))))
            .serve(wl)
            .expect("run completes")
    }

    fn by_id(mut records: Vec<RequestRecord>) -> Vec<RequestRecord> {
        records.sort_by_key(|r| r.id);
        records
    }

    #[test]
    fn cache_is_invisible_on_disjoint_traffic() {
        // Requests with unrelated prompts must serve record-identically
        // with the prefix cache on or off: sub-block accidental matches
        // are not hits, so the cache can never perturb latencies.
        let baseline_ms = SystemConfig::llama70b(5).baseline_ms;
        let wl = WorkloadBuilder::new(11, baseline_ms)
            .target_rps(3.0)
            .duration_ms(10_000.0)
            .build();
        let off = serve(SystemConfig::llama70b(5), &wl);
        let on = serve(SystemConfig::llama70b(5).with_prefix_cache(1 << 20), &wl);
        assert_eq!(off.records, on.records, "record-identical serving");
        let hl = on.merged_hotloop();
        assert_eq!(hl.prefix_hits, 0, "disjoint prompts never hit");
        assert!(hl.prefix_lookups > 0, "the cache was actually consulted");
    }

    #[test]
    fn shared_prompts_hit_without_changing_outputs() {
        // A shared system prompt makes the cache hit; generated outputs
        // are a pure function of the token stream, so per-request output
        // counts are unchanged — only timing improves.
        let baseline_ms = SystemConfig::llama70b(5).baseline_ms;
        let wl = WorkloadBuilder::new(12, baseline_ms)
            .target_rps(4.0)
            .duration_ms(10_000.0)
            .shared_system_prompt(512, 0.9)
            .build();
        let off = serve(SystemConfig::llama70b(5), &wl);
        let on = serve(SystemConfig::llama70b(5).with_prefix_cache(1 << 20), &wl);

        let hl = on.merged_hotloop();
        assert!(hl.prefix_hits > 0, "shared prompts hit the cache");
        assert!(hl.prefill_tokens_saved > 0);
        assert!(
            on.report().prefix_hit_rate_pct > 0.0,
            "surfaced on the report"
        );

        let off_outputs: Vec<(u64, u32)> = by_id(off.records.clone())
            .iter()
            .map(|r| (r.id, r.output_tokens))
            .collect();
        let on_outputs: Vec<(u64, u32)> = by_id(on.records.clone())
            .iter()
            .map(|r| (r.id, r.output_tokens))
            .collect();
        assert_eq!(off_outputs, on_outputs, "outputs unchanged by caching");

        assert!(
            on.report().mean_ttft_ms <= off.report().mean_ttft_ms,
            "skipped prefill cannot worsen mean TTFT (on {} vs off {})",
            on.report().mean_ttft_ms,
            off.report().mean_ttft_ms
        );
    }
}
