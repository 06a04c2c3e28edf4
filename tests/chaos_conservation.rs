//! Chaos properties: no request is ever silently dropped.
//!
//! The fault-injection subsystem's core invariant is **conservation**:
//! for every tenant, `offered = finished + rejected` — a request lost to
//! a replica crash or an aborted KV migration either finishes after
//! retries or surfaces a terminal rejection
//! (`RetryBudgetExhausted` / `DegradedShed`), never vanishes. The
//! properties here drive seeded fault schedules through all three
//! deployment shapes (colocated, routed cluster, disaggregated
//! prefill/decode) under both exec modes and assert the identity per
//! tenant, plus uniqueness of each request's terminal outcome.
//!
//! The second half pins the *scaling* flavour of the same promise: a
//! mid-run drain of a replica holding in-flight requests loses nothing,
//! on the two shapes the cluster/disagg driver tests don't already
//! cover — a lone colocated engine and a `FairFrontDoor`-wrapped
//! cluster (whose sliding in-flight window must survive the topology
//! change without leaking slots).

use adaserve::cluster::{Cluster, RouterKind};
use adaserve::core::AdaServeEngine;
use adaserve::disagg::{DisaggCluster, Dispatcher, KvLink, PrefillPool};
use adaserve::scenario::{ArrivalProcess, FairFrontDoor, Scenario, TenantSpec};
use adaserve::serving::{
    Colocated, ExecMode, FaultPlan, RecoveryPolicy, ReplicaAddr, RunReport, ScalingAction,
    ServeSession, ServingEngine, SystemConfig,
};
use adaserve::workload::Workload;
use proptest::prelude::*;
use std::collections::HashSet;

fn engines(n: usize, seed: u64) -> Vec<Box<dyn ServingEngine>> {
    (0..n)
        .map(|_| {
            Box::new(AdaServeEngine::new(SystemConfig::llama70b(seed))) as Box<dyn ServingEngine>
        })
        .collect()
}

/// A short two-tenant flash-crowd scenario: enough concurrent work that
/// a crash mid-window actually holds in-flight requests.
fn scenario(seed: u64) -> adaserve::scenario::ScenarioWorkload {
    let baseline_ms = SystemConfig::llama70b(seed).baseline_ms;
    Scenario::new(seed, baseline_ms)
        .process(ArrivalProcess::FlashCrowd {
            rps: 3.0,
            at_ms: 2_000.0,
            magnitude: 4.0,
            decay_ms: 2_000.0,
        })
        .duration_ms(10_000.0)
        .users(500)
        .tenants(vec![
            TenantSpec::new("anchor").share(2.0).weight(2.0),
            TenantSpec::new("longtail"),
        ])
        .build()
}

/// Asserts the conservation identity and outcome uniqueness for one run.
fn assert_conserved(label: &str, sw: &adaserve::scenario::ScenarioWorkload, report: &RunReport) {
    let tenants = sw.tenants.len();
    let mut offered = vec![0usize; tenants];
    for spec in &sw.workload.requests {
        offered[sw.tenant_of(spec.id)] += 1;
    }
    let mut finished = vec![0usize; tenants];
    let mut seen: HashSet<u64> = HashSet::new();
    for record in &report.records {
        assert!(
            seen.insert(record.id),
            "{label}: request {} finished twice",
            record.id
        );
        finished[sw.tenant_of(record.id)] += 1;
    }
    let mut rejected = vec![0usize; tenants];
    for (id, reason) in &report.rejected {
        assert!(
            seen.insert(*id),
            "{label}: request {id} has two terminal outcomes ({reason})"
        );
        rejected[sw.tenant_of(*id)] += 1;
    }
    for t in 0..tenants {
        assert_eq!(
            offered[t],
            finished[t] + rejected[t],
            "{label}: tenant {} conservation (offered {} = finished {} + rejected {})",
            sw.tenants[t].name,
            offered[t],
            finished[t],
            rejected[t],
        );
    }
    assert_eq!(
        seen.len(),
        sw.workload.requests.len(),
        "{label}: every offered request reached exactly one terminal outcome"
    );
}

const EXEC_MODES: [ExecMode; 2] = [ExecMode::Sequential, ExecMode::Sharded { workers: None }];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Colocated: a crash on the lone replica loses everything it held;
    /// retries (or terminal rejections) must account for every request.
    #[test]
    fn colocated_conserves_requests_under_seeded_faults(seed in 0u64..1_000) {
        let sw = scenario(seed);
        let plan = FaultPlan::seeded(seed, 2_000.0, 5_000.0, 1, false);
        for exec in EXEC_MODES {
            let report = ServeSession::new(Colocated::new(Box::new(AdaServeEngine::new(
                SystemConfig::llama70b(seed),
            ))))
            .with_exec_mode(exec)
            .with_fault_plan(plan.clone())
            .with_recovery_policy(RecoveryPolicy::default())
            .serve(&sw.workload)
            .unwrap_or_else(|e| panic!("colocated {}: {e}", exec.label()));
            assert_conserved(&format!("colocated/{}", exec.label()), &sw, &report);
        }
    }

    /// Cluster: the crashed replica's in-flight requests re-dispatch to
    /// the survivors (SLO-aware), and the slowdown window must not leak
    /// any either.
    #[test]
    fn cluster_conserves_requests_under_seeded_faults(seed in 0u64..1_000) {
        let sw = scenario(seed);
        let plan = FaultPlan::seeded(seed, 2_000.0, 5_000.0, 3, false);
        for exec in EXEC_MODES {
            let report = ServeSession::new(
                Cluster::new(engines(3, seed), RouterKind::SloAware.build()),
            )
            .with_exec_mode(exec)
            .with_fault_plan(plan.clone())
            .with_recovery_policy(RecoveryPolicy::default())
            .serve(&sw.workload)
            .unwrap_or_else(|e| panic!("cluster {}: {e}", exec.label()));
            assert_conserved(&format!("cluster/{}", exec.label()), &sw, &report);
        }
    }

    /// Disagg: crashes hit the decode pool, and the seeded link outage
    /// aborts KV migrations mid-flight — both loss paths must route
    /// every request back through recovery.
    #[test]
    fn disagg_conserves_requests_under_seeded_faults(seed in 0u64..1_000) {
        let sw = scenario(seed);
        let plan = FaultPlan::seeded(seed, 2_000.0, 5_000.0, 2, true);
        for exec in EXEC_MODES {
            let disagg = DisaggCluster::new(
                PrefillPool::new(vec![SystemConfig::llama70b(seed)]),
                engines(2, seed),
                Dispatcher::new(RouterKind::SloAware.build()),
                KvLink::new(300.0, 0.05),
            );
            let report = ServeSession::new(disagg)
                .with_exec_mode(exec)
                .with_fault_plan(plan.clone())
                .with_recovery_policy(RecoveryPolicy::default())
                .serve(&sw.workload)
                .unwrap_or_else(|e| panic!("disagg {}: {e}", exec.label()));
            assert_conserved(&format!("disagg/{}", exec.label()), &sw, &report);
        }
    }

    /// The recovery-less baseline still conserves: every lost request
    /// surfaces as `RetryBudgetExhausted` instead of a retry.
    #[test]
    fn no_retry_policy_still_conserves(seed in 0u64..1_000) {
        let sw = scenario(seed);
        let plan = FaultPlan::seeded(seed, 2_000.0, 5_000.0, 3, false);
        let report = ServeSession::new(Cluster::new(engines(3, seed), RouterKind::SloAware.build()))
            .with_fault_plan(plan)
            .with_recovery_policy(RecoveryPolicy::no_retry())
            .serve(&sw.workload)
            .expect("no-retry run");
        assert_conserved("cluster/no-retry", &sw, &report);
        assert_eq!(report.retries_scheduled, 0, "no retries without a budget");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Colocated: a drain window over the lone replica — opened while it
    /// holds in-flight requests — loses nothing (single-replica drains
    /// degrade, not drop; see `Colocated::accepting`).
    #[test]
    fn colocated_mid_run_drain_loses_nothing(
        seed in 0u64..1_000,
        drain_at in 500.0f64..3_000.0,
        window in 500.0f64..2_000.0,
    ) {
        let sw = scenario(seed);
        let mut session = ServeSession::new(Colocated::new(Box::new(AdaServeEngine::new(
            SystemConfig::llama70b(seed),
        ))));
        session.scale_at(drain_at, ReplicaAddr::serving(0), ScalingAction::Drain);
        session.scale_at(drain_at + window, ReplicaAddr::serving(0), ScalingAction::Join);
        let report = session.serve(&sw.workload).expect("drained colocated run");
        prop_assert_eq!(
            report.records.len() + report.rejected.len(),
            sw.workload.requests.len(),
            "drain lost requests"
        );
    }

    /// FairFrontDoor over a cluster: the drain must not desynchronize
    /// the front door's sliding in-flight window — every held request
    /// is eventually forwarded and finishes (or is refused over quota).
    #[test]
    fn fair_front_door_mid_run_drain_loses_nothing(
        seed in 0u64..1_000,
        drain_at in 500.0f64..3_000.0,
        window in 500.0f64..2_000.0,
    ) {
        let sw = scenario(seed);
        let fair = FairFrontDoor::new(
            Cluster::new(engines(3, seed), RouterKind::SloAware.build()),
            &sw.tenants,
            sw.tenant_table(),
            8,
        );
        let mut session = ServeSession::new(fair);
        session.scale_at(drain_at, ReplicaAddr::serving(1), ScalingAction::Drain);
        session.scale_at(drain_at + window, ReplicaAddr::serving(1), ScalingAction::Join);
        let report = session.serve(&sw.workload).expect("drained fair run");
        assert_conserved("fair-front-door/drain", &sw, &report);
    }
}

/// A crash wave through a `FairFrontDoor`-wrapped cluster: the lost
/// specs bubble up through the wrapper, which must free their window
/// slots so held requests keep flowing. (Deterministic companion to the
/// drain properties above — same wrapper, harsher loss path.)
#[test]
fn fair_front_door_survives_a_crash_with_recovery() {
    let seed = 20_250_117;
    let sw = scenario(seed);
    let fair = FairFrontDoor::new(
        Cluster::new(engines(3, seed), RouterKind::SloAware.build()),
        &sw.tenants,
        sw.tenant_table(),
        8,
    );
    let plan = FaultPlan::new().at(
        2_500.0,
        adaserve::serving::FaultKind::ReplicaCrash {
            replica: ReplicaAddr::serving(0),
            down_ms: 1_500.0,
        },
    );
    let report = ServeSession::new(fair)
        .with_fault_plan(plan)
        .with_recovery_policy(RecoveryPolicy::default())
        .serve(&sw.workload)
        .expect("crashed fair run");
    assert_conserved("fair-front-door/crash", &sw, &report);
}

/// Requests lost twice inside the retry budget still finish; the record
/// charges TTFT against the *first* arrival, so recovery latency is
/// visible in attainment rather than hidden by the resubmission.
#[test]
fn retried_records_charge_the_original_arrival() {
    let seed = 7;
    let baseline_ms = SystemConfig::llama70b(seed).baseline_ms;
    let sw = Scenario::new(seed, baseline_ms)
        .process(ArrivalProcess::Poisson { rps: 4.0 })
        .duration_ms(6_000.0)
        .build();
    let plan = FaultPlan::new().at(
        1_000.0,
        adaserve::serving::FaultKind::ReplicaCrash {
            replica: ReplicaAddr::serving(0),
            down_ms: 800.0,
        },
    );
    let faulted = ServeSession::new(Colocated::new(Box::new(AdaServeEngine::new(
        SystemConfig::llama70b(seed),
    ))))
    .with_fault_plan(plan)
    .with_recovery_policy(RecoveryPolicy::default())
    .serve(&sw.workload)
    .expect("faulted run");
    assert!(
        faulted.retries_scheduled > 0,
        "the crash actually lost work"
    );
    let original: Workload = sw.workload.clone();
    for record in &faulted.records {
        let spec = original
            .requests
            .iter()
            .find(|s| s.id == record.id)
            .expect("known id");
        assert!(
            (record.arrival_ms - spec.arrival_ms).abs() < 1e-9,
            "request {}: arrival charged at {} instead of the original {}",
            record.id,
            record.arrival_ms,
            spec.arrival_ms
        );
    }
}
