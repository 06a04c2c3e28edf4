//! Distribution-cache lookups belong to one engine.
//!
//! `SystemConfig` is routinely cloned into several engines, and cloning a
//! model pair shares its caches and counters. Each engine therefore
//! computes through its own engine view of the pair
//! (`ModelPair::for_engine`): it counts only its own lookups, and it
//! never starts on a cache warmed by an engine that is gone. Engines of
//! one config that are alive together share one target table (one
//! table's memory for a whole deployment), so only their hit/miss split,
//! not their lookups, depends on each other. Caches are also lazy: the
//! draft-blend memo, which the serving path never reads, must never
//! allocate its slot table. (The noise model keeps no memo at all.)

use adaserve::cluster::RouterKind;
use adaserve::core::AdaServeEngine;
use adaserve::disagg::{DisaggCluster, Dispatcher, KvLink, PrefillPool};
use adaserve::serving::{Colocated, RunReport, ServeSession, ServingEngine, SystemConfig};
use adaserve::workload::{Workload, WorkloadBuilder};

const SEED: u64 = 21;

fn workload(seed: u64) -> Workload {
    WorkloadBuilder::new(seed, SystemConfig::llama70b(SEED).baseline_ms)
        .target_rps(3.0)
        .duration_ms(6_000.0)
        .build()
}

fn engine(config: SystemConfig) -> Box<dyn ServingEngine> {
    Box::new(AdaServeEngine::new(config))
}

fn hotloop(report: &RunReport) -> Vec<adaserve::metrics::HotLoopStats> {
    report.units.iter().map(|u| u.result.hotloop).collect()
}

fn serve_colocated(config: SystemConfig, wl: &Workload) -> RunReport {
    ServeSession::new(Colocated::new(engine(config)))
        .serve(wl)
        .expect("colocated run")
}

#[test]
fn colocated_engine_from_cloned_config_starts_cold() {
    // A config served once, then cloned into a second engine: the clone
    // must not find the first (now dropped) engine's distributions in its
    // caches, so it reports exactly what an engine with its own config
    // reports.
    let config = SystemConfig::llama70b(SEED);
    let first = serve_colocated(config.clone(), &workload(1));
    let again = serve_colocated(config.clone(), &workload(1));
    let separate = serve_colocated(SystemConfig::llama70b(SEED), &workload(1));
    assert!(hotloop(&first)[0].dist_cache_misses > 0);
    assert_eq!(hotloop(&again), hotloop(&separate));
    assert_eq!(hotloop(&first), hotloop(&separate));
    assert_eq!(again.records, separate.records);
}

#[test]
fn disagg_decode_engines_from_one_config_count_their_own_lookups() {
    let build = |configs: [SystemConfig; 2]| {
        DisaggCluster::new(
            PrefillPool::new(vec![SystemConfig::llama70b(SEED)]),
            configs.into_iter().map(engine).collect(),
            Dispatcher::new(RouterKind::SloAware.build()),
            KvLink::new(300.0, 0.05),
        )
    };
    let wl = workload(2);
    let config = SystemConfig::llama70b(SEED);
    let cloned = ServeSession::new(build([config.clone(), config.clone()]))
        .serve(&wl)
        .expect("disagg run from one cloned config");
    let separate = ServeSession::new(build([
        SystemConfig::llama70b(SEED),
        SystemConfig::llama70b(SEED),
    ]))
    .serve(&wl)
    .expect("disagg run from separate configs");
    assert_eq!(cloned.records, separate.records);
    // Each decode engine reports exactly the lookups it made — the same
    // as when it owns its config — not its sibling's as well.
    let lookups = |r: &RunReport| -> Vec<u64> {
        hotloop(r)
            .iter()
            .map(|h| h.dist_cache_hits + h.dist_cache_misses)
            .collect()
    };
    assert_eq!(lookups(&cloned), lookups(&separate));
    let decode: Vec<u64> = cloned
        .serving_units()
        .map(|u| u.result.hotloop.dist_cache_misses)
        .collect();
    assert_eq!(decode.len(), 2);
    assert!(decode.iter().all(|&misses| misses > 0));
    // Merging therefore counts every lookup once.
    let merged = cloned.merged_hotloop();
    assert_eq!(
        merged.dist_cache_hits + merged.dist_cache_misses,
        lookups(&cloned).iter().sum::<u64>()
    );
}

#[test]
fn serve_leaves_the_draft_blend_memo_unallocated() {
    let mut session = ServeSession::new(Colocated::new(engine(SystemConfig::llama70b(SEED))));
    let report = session.serve(&workload(3)).expect("colocated run");
    assert!(report.records.len() > 10);
    let colocated = session.into_inner();
    let pair = &colocated.engine().core().config.pair;
    assert!(pair.target().cache().has_table(), "the target memo is used");
    assert!(
        !pair.draft().cache().has_table(),
        "draft-blend memo never read"
    );
}
