//! The multi-replica discrete-event driver.
//!
//! One global clock orders three event kinds — request arrivals (routed on
//! the spot), elastic-scaling events (replica drain/join) and engine
//! iterations (each replica advances on its own local clock, interleaved
//! in global time order). Completion records from all replicas merge into
//! a single fleet-wide stream for metrics.

use crate::pool::{pooled_gauges, ReplicaPool};
use crate::replica::Replica;
use crate::router::Router;
use metrics::telemetry::{EventKind, GaugeSample, Tracer};
use serving::{
    Deployment, DeploymentStep, FaultKind, ReplicaAddr, RunError, RunOptions, ServingEngine,
    UnitStats,
};
use workload::RequestSpec;

pub use serving::ScalingAction;

/// The slowest near-zero-load decode latency across a prospective fleet.
///
/// Heterogeneous fleets should build their workload against this value so
/// baseline-relative SLOs stay attainable on every replica; callable on
/// the engine list before the [`Cluster`] is assembled.
pub fn max_baseline_ms(engines: &[Box<dyn ServingEngine>]) -> f64 {
    engines
        .iter()
        .map(|e| e.core().config.baseline_ms)
        .fold(0.0, f64::max)
}

/// N serving engines behind a routing policy, driven under one clock.
///
/// A `Cluster` implements [`Deployment`]: run it through a
/// [`serving::ServeSession`] (open-loop or online), which also picks its
/// [`serving::ExecMode`].
#[derive(Debug)]
pub struct Cluster {
    pool: ReplicaPool,
    router: Box<dyn Router>,
    /// Fleet-shared trace sink for routing decisions; each replica holds
    /// a clone of the same log for its iteration events.
    tracer: Tracer,
}

impl Cluster {
    /// Builds a cluster over `engines` (any mix of engine types and GPU
    /// profiles) with the given routing policy.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty.
    pub fn new(engines: Vec<Box<dyn ServingEngine>>, router: Box<dyn Router>) -> Self {
        Self {
            pool: ReplicaPool::new(engines),
            router,
            tracer: Tracer::off(),
        }
    }

    /// Worker threads held by the persistent stepping pool (0 until a
    /// multi-worker sharded batch has run). Exposed so tests can assert
    /// the pool is reused across `serve()` calls rather than leaked.
    pub fn worker_pool_size(&self) -> usize {
        self.pool.worker_pool_size()
    }

    /// Read-only view of the replicas (for tests and inspection).
    pub fn replicas(&self) -> &[Replica] {
        self.pool.replicas()
    }

    /// The slowest replica's baseline decode latency.
    ///
    /// Heterogeneous fleets should build their workload against this value
    /// so baseline-relative SLOs stay attainable on every replica.
    pub fn max_baseline_ms(&self) -> f64 {
        self.pool.max_baseline_ms()
    }
}

impl Deployment for Cluster {
    /// The routing policy's name.
    fn name(&self) -> String {
        self.router.name()
    }

    fn max_baseline_ms(&self) -> f64 {
        self.pool.max_baseline_ms()
    }

    fn kv_capacity_tokens(&self) -> u64 {
        self.pool.kv_capacity_tokens()
    }

    /// The longest cached prefix across *all* replicas: routing (e.g. the
    /// `prefix-affinity` policy) can steer the request to whichever
    /// replica holds it.
    fn cached_prefix_tokens(&self, spec: &RequestSpec) -> u32 {
        if self.pool.cores().all(|c| c.prefix.is_none()) {
            return 0;
        }
        let prompt = spec.prompt_tokens();
        self.pool
            .replicas()
            .iter()
            .map(|r| r.cached_prefix_tokens(spec, &prompt))
            .max()
            .unwrap_or(0)
    }

    /// Routes the arrival at its arrival instant against each replica's
    /// current queue state; a replica mid-iteration past that instant
    /// reflects at most one extra iteration of skew — the same
    /// information a real router has when an engine's batch is already on
    /// the GPU.
    fn submit(&mut self, spec: RequestSpec, now_ms: f64) {
        let eligible = self.pool.eligible();
        let replicas = self.pool.replicas();
        let mut choice = self.router.route(&spec, now_ms, replicas, &eligible);
        if !eligible.contains(&choice) {
            debug_assert!(false, "router returned ineligible replica {choice}");
            choice = eligible[0];
        }
        if self.tracer.enabled() {
            self.tracer.record(
                now_ms,
                EventKind::RouteDecision {
                    id: spec.id,
                    router: self.router.name(),
                    replica: serving::trace_replica(ReplicaAddr::serving(choice)),
                    modeled_load_ms: replicas[choice].drain_estimate_ms(now_ms),
                },
            );
        }
        self.pool.replicas_mut()[choice].submit(spec, now_ms);
    }

    fn next_event_ms(&self) -> Option<f64> {
        self.pool.next_stepper().map(|(t, _)| t)
    }

    fn step(&mut self, options: &RunOptions) -> Result<DeploymentStep, RunError> {
        self.pool.step(options)
    }

    /// Sharded batch stepping: replicas never interact between the
    /// session's external events, so every replica due before
    /// `horizon_ms` advances to the horizon independently (see
    /// [`ReplicaPool::step_batch`]).
    fn step_until(
        &mut self,
        horizon_ms: f64,
        options: &RunOptions,
    ) -> Result<DeploymentStep, RunError> {
        match self.pool.step_batch(horizon_ms, options)? {
            Some(step) => Ok(step),
            None => self.pool.step(options),
        }
    }

    fn set_accepting(&mut self, replica: ReplicaAddr, accepting: bool, now_ms: f64) {
        self.pool.set_accepting(replica, accepting, now_ms);
    }

    /// Replica crashes and slowdowns; a colocated-replica fleet has no KV
    /// interconnect for link faults to hit.
    fn inject_fault(&mut self, fault: &FaultKind, now_ms: f64) -> Vec<RequestSpec> {
        self.pool.inject_fault(fault, now_ms)
    }

    fn clear_fault(&mut self, fault: &FaultKind, now_ms: f64) {
        self.pool.clear_fault(fault, now_ms);
    }

    fn set_degraded(&mut self, degraded: bool) {
        self.pool.set_degraded(degraded);
    }

    fn iterations(&self) -> u64 {
        self.pool.iterations()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.pool.set_tracer(&tracer);
        self.tracer = tracer;
    }

    fn gauges(&self) -> GaugeSample {
        pooled_gauges(self.pool.cores())
    }

    fn clock_ms(&self) -> f64 {
        self.pool.clock_ms()
    }

    fn drain(&mut self) -> Result<Vec<UnitStats>, RunError> {
        self.pool.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{LeastOutstanding, RoundRobin, RouterKind};
    use serving::{
        Colocated, EngineCore, FaultPlan, Pool, RunErrorKind, RunReport, ScalePlan, ServeSession,
        StepResult, SystemConfig,
    };
    use workload::{Category, RequestSpec, Workload};

    /// Minimal engine: admits FIFO, prefills whole prompts, decodes one
    /// token per running request per iteration (same as serving's own
    /// driver test engine).
    struct NaiveEngine {
        core: EngineCore,
    }

    impl NaiveEngine {
        fn boxed(seed: u64) -> Box<dyn ServingEngine> {
            Box::new(Self {
                core: EngineCore::new(SystemConfig::llama70b(seed)),
            })
        }
    }

    impl ServingEngine for NaiveEngine {
        fn name(&self) -> String {
            "naive".into()
        }

        fn core(&self) -> &EngineCore {
            &self.core
        }

        fn core_mut(&mut self) -> &mut EngineCore {
            &mut self.core
        }

        fn step(&mut self, now_ms: f64) -> StepResult {
            self.core.admit_fifo();
            let plan = self.core.plan_prefill(u32::MAX);
            if !plan.is_empty() {
                let mut pass = roofline::ForwardPass::default();
                for &(i, chunk) in &plan {
                    pass.push(roofline::SeqWork::prefill(
                        chunk,
                        self.core.running[i].prefilled(),
                    ));
                }
                self.core.apply_prefill(&plan);
                let ms = self
                    .core
                    .config
                    .testbed
                    .target
                    .forward_latency_ms(&pass, false);
                self.core.stamp_decode_starts(now_ms + ms);
                return StepResult { latency_ms: ms };
            }
            let decoding = self.core.decoding_indices();
            if decoding.is_empty() {
                return StepResult { latency_ms: 1.0 };
            }
            let mut pass = roofline::ForwardPass::default();
            for &i in &decoding {
                pass.push(roofline::SeqWork::decode(
                    self.core.running[i].context_len(),
                ));
            }
            let ms = self
                .core
                .config
                .testbed
                .target
                .forward_latency_ms(&pass, true);
            for &i in &decoding {
                if self.core.grow_with_preemption(i, 1) {
                    let t = self.core.next_token(i);
                    self.core.running[i].push_token(t);
                    self.core.running[i].verify_steps += 1;
                }
            }
            self.core.collect_finished(now_ms + ms);
            StepResult { latency_ms: ms }
        }
    }

    fn tiny_workload(n: u64, gap_ms: f64) -> Workload {
        let requests = (0..n)
            .map(|id| RequestSpec {
                id,
                category: Category::Chatbot,
                arrival_ms: id as f64 * gap_ms,
                prompt_len: 12,
                output_len: 6,
                tpot_slo_ms: 50.0,
                ttft_slo_ms: 1_000.0,
                stream_seed: id ^ 0x5151,
                prefix: None,
            })
            .collect();
        Workload {
            requests,
            description: "tiny".into(),
        }
    }

    fn naive_cluster(n: usize, router: Box<dyn Router>) -> Cluster {
        Cluster::new((0..n).map(|_| NaiveEngine::boxed(3)).collect(), router)
    }

    /// Front-door drive of a cluster with a scaling timeline.
    fn serve_cluster(
        cluster: Cluster,
        plans: Vec<ScalePlan>,
        workload: &Workload,
        options: RunOptions,
    ) -> Result<RunReport, RunError> {
        let mut session = ServeSession::with_options(cluster, options);
        for p in plans {
            session.scale_at(p.at_ms, p.replica, p.action);
        }
        session.serve(workload)
    }

    fn plan(at_ms: f64, replica: usize, action: ScalingAction) -> ScalePlan {
        ScalePlan {
            at_ms,
            replica: ReplicaAddr::serving(replica),
            action,
        }
    }

    #[test]
    fn cluster_serves_every_request_exactly_once() {
        let wl = tiny_workload(12, 5.0);
        let result = serve_cluster(
            naive_cluster(3, Box::new(RoundRobin::default())),
            Vec::new(),
            &wl,
            RunOptions::default(),
        )
        .expect("run succeeds");
        assert_eq!(result.records.len(), 12, "conservation across replicas");
        let mut ids: Vec<u64> = result.records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12, "no record duplicated in the merge");
        let routed: u64 = result.units.iter().map(|u| u.routed).sum();
        assert_eq!(routed, 12);
    }

    #[test]
    fn round_robin_spreads_requests_evenly() {
        let wl = tiny_workload(9, 100.0);
        let result = serve_cluster(
            naive_cluster(3, Box::new(RoundRobin::default())),
            Vec::new(),
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        for u in &result.units {
            assert_eq!(u.routed, 3, "replica {} share", u.replica.index);
        }
    }

    #[test]
    fn merged_records_are_sorted_by_completion() {
        let wl = tiny_workload(10, 7.0);
        let result = serve_cluster(
            naive_cluster(2, Box::new(LeastOutstanding)),
            Vec::new(),
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        for pair in result.records.windows(2) {
            assert!(pair[0].completion_ms <= pair[1].completion_ms);
        }
        assert!(result.end_ms >= result.records.last().unwrap().completion_ms);
    }

    #[test]
    fn every_router_kind_drives_a_cluster() {
        let wl = tiny_workload(8, 10.0);
        for kind in RouterKind::ALL {
            let result = serve_cluster(
                naive_cluster(2, kind.build()),
                Vec::new(),
                &wl,
                RunOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{} failed: {e}", kind.name()));
            assert_eq!(result.records.len(), 8, "{}", kind.name());
            assert_eq!(result.deployment, kind.name());
        }
    }

    #[test]
    fn drained_replica_receives_no_new_requests() {
        let wl = tiny_workload(8, 50.0);
        let result = serve_cluster(
            naive_cluster(2, Box::new(RoundRobin::default())),
            vec![plan(-1.0, 1, ScalingAction::Drain)],
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        assert_eq!(result.units[0].routed, 8);
        assert_eq!(result.units[1].routed, 0);
        assert_eq!(result.records.len(), 8, "drain loses nothing");
    }

    #[test]
    fn joined_replica_starts_taking_traffic() {
        let wl = tiny_workload(10, 50.0);
        let result = serve_cluster(
            naive_cluster(2, Box::new(RoundRobin::default())),
            vec![
                plan(-1.0, 1, ScalingAction::Drain),
                // Before the 6th arrival at 250 ms.
                plan(240.0, 1, ScalingAction::Join),
            ],
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        assert_eq!(result.records.len(), 10);
        assert!(
            result.units[1].routed > 0,
            "replica 1 serves traffic after joining"
        );
        assert!(result.units[0].routed > result.units[1].routed);
    }

    #[test]
    fn fully_draining_fleet_still_serves() {
        let wl = tiny_workload(4, 20.0);
        let result = serve_cluster(
            naive_cluster(2, Box::new(RoundRobin::default())),
            vec![
                plan(-1.0, 0, ScalingAction::Drain),
                plan(-1.0, 1, ScalingAction::Drain),
            ],
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        assert_eq!(result.records.len(), 4, "degrades to routing anywhere");
    }

    #[test]
    fn draining_fallback_skips_crashed_replicas() {
        // Replica 0 drains and replica 1 is down: the fallback must route
        // to the live draining replica, never park arrivals on the dead one.
        let wl = tiny_workload(10, 20.0);
        let (crash_at, down_ms) = (50.0, 120.0);
        let plan_crash = FaultPlan::new().at(
            crash_at,
            FaultKind::ReplicaCrash {
                replica: ReplicaAddr::serving(1),
                down_ms,
            },
        );
        let mut session = ServeSession::new(naive_cluster(2, Box::new(RoundRobin::default())))
            .with_fault_plan(plan_crash);
        session.scale_at(-1.0, ReplicaAddr::serving(0), ScalingAction::Drain);
        let report = session.serve(&wl).unwrap();
        assert_eq!(report.records.len(), 10);
        let in_window: Vec<u64> = wl
            .requests
            .iter()
            .filter(|r| r.arrival_ms >= crash_at && r.arrival_ms < crash_at + down_ms)
            .map(|r| r.id)
            .collect();
        assert!(!in_window.is_empty());
        let on_first: Vec<u64> = report.units[0]
            .result
            .records
            .iter()
            .map(|r| r.id)
            .collect();
        for id in in_window {
            assert!(on_first.contains(&id), "request {id} served by replica 0");
        }
    }

    #[test]
    fn scaling_an_unknown_replica_is_a_no_op() {
        let wl = tiny_workload(6, 10.0);
        let mut session = ServeSession::new(naive_cluster(2, Box::new(RoundRobin::default())));
        session.scale_at(5.0, ReplicaAddr::serving(99), ScalingAction::Drain);
        session.scale_at(5.0, ReplicaAddr::prefill(0), ScalingAction::Drain);
        let report = session.serve(&wl).unwrap();
        assert_eq!(report.records.len(), 6);
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let wl = tiny_workload(10, 8.0);
        let a = serve_cluster(
            naive_cluster(3, RouterKind::SloAware.build()),
            Vec::new(),
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        let b = serve_cluster(
            naive_cluster(3, RouterKind::SloAware.build()),
            Vec::new(),
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.end_ms, b.end_ms);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn single_replica_cluster_matches_plain_driver() {
        let wl = tiny_workload(6, 10.0);
        let cluster = serve_cluster(
            naive_cluster(1, Box::new(RoundRobin::default())),
            Vec::new(),
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        let plain = ServeSession::new(Colocated::new(NaiveEngine::boxed(3)))
            .serve(&wl)
            .unwrap();
        assert_eq!(cluster.records, plain.records);
    }

    #[test]
    fn mid_run_submission_is_served() {
        // The online capability the batch `run(&workload)` signature could
        // not express: a request submitted from the client hook while the
        // run is in flight.
        let wl = tiny_workload(4, 30.0);
        let mut session = ServeSession::new(naive_cluster(2, Box::new(RoundRobin::default())));
        let mut injected = false;
        session.enqueue(&wl);
        let report = session
            .serve_online(|event, handle| {
                if !injected {
                    if let serving::DeploymentEvent::Finished { record } = event {
                        injected = true;
                        handle.submit(RequestSpec {
                            id: 1000 + record.id,
                            category: Category::Chatbot,
                            arrival_ms: handle.now_ms() + 5.0,
                            prompt_len: 12,
                            output_len: 6,
                            tpot_slo_ms: 50.0,
                            ttft_slo_ms: 1_000.0,
                            stream_seed: 0xAB,
                            prefix: None,
                        });
                    }
                }
            })
            .unwrap();
        assert!(injected, "a request finished mid-run");
        assert_eq!(report.records.len(), 5, "follow-up served too");
        assert!(report.records.iter().any(|r| r.id >= 1000));
    }

    #[test]
    fn iteration_cap_is_enforced() {
        let wl = tiny_workload(6, 1.0);
        let err = serve_cluster(
            naive_cluster(2, Box::new(RoundRobin::default())),
            Vec::new(),
            &wl,
            RunOptions {
                max_sim_ms: f64::MAX,
                max_iterations: 1,
                ..RunOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(err.kind(), RunErrorKind::IterationCap);
        assert_eq!(err.site().pool, Some(Pool::Decode));
        assert!(err.site().replica.is_some(), "cap names the replica");
    }

    #[test]
    fn empty_workload_is_a_no_op() {
        let wl = Workload {
            requests: Vec::new(),
            description: "empty".into(),
        };
        let result = serve_cluster(
            naive_cluster(2, Box::new(RoundRobin::default())),
            Vec::new(),
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        assert!(result.records.is_empty());
        assert_eq!(result.end_ms, 0.0);
    }
}
