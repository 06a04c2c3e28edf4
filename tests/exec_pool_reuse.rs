//! The persistent sharded executor must be created once per deployment
//! and reused across repeated `serve()` calls — not respawned per batch
//! or leaked per run.
//!
//! This lives in its own integration-test binary so the process-wide
//! [`live_worker_threads`] counter is not perturbed by unrelated tests
//! running concurrently in the same harness.

use adaserve::cluster::{Cluster, RouterKind};
use adaserve::core::AdaServeEngine;
use adaserve::serving::exec::live_worker_threads;
use adaserve::serving::{ExecMode, ServeSession, ServingEngine, SystemConfig};
use adaserve::workload::WorkloadBuilder;

#[test]
fn worker_pool_is_reused_across_repeated_serves_and_joined_on_drop() {
    let baseline_ms = SystemConfig::llama70b(9).baseline_ms;
    let wl = WorkloadBuilder::new(61, baseline_ms)
        .target_rps(6.0)
        .duration_ms(2_000.0)
        .build();
    let engines: Vec<Box<dyn ServingEngine>> = (0..3)
        .map(|_| Box::new(AdaServeEngine::new(SystemConfig::llama70b(9))) as Box<dyn ServingEngine>)
        .collect();

    let before = live_worker_threads();
    let mut cluster = Cluster::new(engines, RouterKind::SloAware.build());
    assert_eq!(cluster.worker_pool_size(), 0, "pool is created lazily");

    let mut after_first = 0;
    for round in 0..3 {
        let mut session =
            ServeSession::new(cluster).with_exec_mode(ExecMode::Sharded { workers: Some(4) });
        session
            .serve(&wl)
            .unwrap_or_else(|e| panic!("serve round {round}: {e}"));
        cluster = session.into_inner();
        assert_eq!(cluster.worker_pool_size(), 4, "round {round}: pool size");
        if round == 0 {
            after_first = live_worker_threads();
            assert_eq!(after_first, before + 4, "pool spawned exactly once");
        } else {
            assert_eq!(
                live_worker_threads(),
                after_first,
                "round {round}: no worker-thread leak across serve() calls"
            );
        }
    }

    drop(cluster);
    assert_eq!(
        live_worker_threads(),
        before,
        "dropping the deployment joins its workers"
    );
}
