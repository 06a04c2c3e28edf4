//! The replica pool: N [`Replica`]s stepped under one global clock.
//!
//! Both multi-replica shapes are built on it. A [`crate::Cluster`] is one
//! pool plus a router; the decode side of a `disagg::DisaggCluster` is a
//! pool fed by KV migrations. The pool owns everything that does not
//! depend on how work reaches its replicas: the next-stepper scan, the
//! one sharded batch-stepping body, address resolution for scaling and
//! faults, crash and slowdown semantics, gauges and end-of-run drain.

use crate::replica::Replica;
use metrics::telemetry::{GaugeSample, Tracer};
use metrics::HotLoopStats;
use serving::{
    core_gauges, DeploymentEvent, DeploymentStep, EngineCore, ExecMode, FaultKind, Pool,
    ReplicaAddr, RunError, RunOptions, ServingEngine, ShardedExecutor, UnitStats,
};
use std::sync::Mutex;
use workload::RequestSpec;

/// Routing eligibility from per-replica `(accepting, up)` flags: the
/// replicas that accept and are up; else those that are up, so a fully
/// draining pool degrades to routing anywhere alive rather than dropping
/// requests; else every index.
pub fn eligible_replicas(flags: impl Iterator<Item = (bool, bool)>) -> Vec<usize> {
    let flags: Vec<(bool, bool)> = flags.collect();
    let pick = |keep: fn(&(bool, bool)) -> bool| -> Vec<usize> {
        (0..flags.len()).filter(|&i| keep(&flags[i])).collect()
    };
    let accepting = pick(|&(accepting, up)| accepting && up);
    if !accepting.is_empty() {
        return accepting;
    }
    let up = pick(|&(_, up)| up);
    if up.is_empty() {
        (0..flags.len()).collect()
    } else {
        up
    }
}

/// Fleet gauges over `cores`: queue depth and in-flight sum, KV occupancy
/// reports the fullest core, and the cache hit rate pools the per-core
/// lookup/hit counters.
pub fn pooled_gauges<'a>(cores: impl Iterator<Item = &'a EngineCore>) -> GaugeSample {
    let mut sample = GaugeSample::default();
    let mut hot = HotLoopStats::default();
    for core in cores {
        let g = core_gauges(core);
        sample.queue_depth += g.queue_depth;
        sample.in_flight += g.in_flight;
        sample.kv_occupancy_pct = sample.kv_occupancy_pct.max(g.kv_occupancy_pct);
        hot.merge(&core.hotloop);
    }
    sample.cache_hit_rate_pct = hot.prefix_hit_rate_pct();
    sample
}

/// Serving replicas addressed as `ReplicaAddr::serving(i)`, stepped in
/// global clock order or batch-stepped on a persistent
/// [`ShardedExecutor`].
#[derive(Debug)]
pub struct ReplicaPool {
    replicas: Vec<Replica>,
    /// The worker pool behind [`ExecMode::Sharded`], created on the first
    /// multi-worker batch and reused for every batch of every `serve()`.
    executor: Option<ShardedExecutor>,
}

/// One replica's share of a sharded stepping batch: exclusive access to
/// the replica plus a private event buffer and result slot, merged in
/// replica-index order once the batch completes.
struct StepTask<'a> {
    replica: &'a mut Replica,
    events: Vec<DeploymentEvent>,
    result: Result<(), RunError>,
}

impl ReplicaPool {
    /// A pool over `engines`, replica `i` wrapping `engines[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty.
    pub fn new(engines: Vec<Box<dyn ServingEngine>>) -> Self {
        assert!(!engines.is_empty(), "a replica pool needs a replica");
        Self {
            replicas: engines
                .into_iter()
                .enumerate()
                .map(|(id, engine)| Replica::new(id, engine))
                .collect(),
            executor: None,
        }
    }

    /// The replicas, in index order.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// Mutable access to the replicas, for routing work onto them.
    pub fn replicas_mut(&mut self) -> &mut [Replica] {
        &mut self.replicas
    }

    /// The pool index `addr` names, or `None` when it names a replica
    /// this pool lacks (another pool, or out of range). Scaling and
    /// faults aimed at such an address are no-ops: seeded plans are sized
    /// to the fleet, hand-built ones may not be.
    pub fn resolve(&self, addr: ReplicaAddr) -> Option<usize> {
        (addr.pool == Pool::Decode && addr.index < self.replicas.len()).then_some(addr.index)
    }

    /// Indices new work may be routed to (see [`eligible_replicas`]).
    pub fn eligible(&self) -> Vec<usize> {
        eligible_replicas(self.replicas.iter().map(|r| (r.accepting, !r.down)))
    }

    /// The earliest replica ready to iterate (lowest clock, then index).
    /// Down replicas are frozen: they hold no work and step again only
    /// once their crash clears.
    pub fn next_stepper(&self) -> Option<(f64, usize)> {
        self.replicas
            .iter()
            .filter(|r| r.has_work() && !r.down)
            .min_by(|a, b| a.clock_ms.total_cmp(&b.clock_ms).then(a.id.cmp(&b.id)))
            .map(|r| (r.clock_ms, r.id))
    }

    /// One checked iteration of the earliest replica ready to iterate (a
    /// no-op step when none is).
    pub fn step(&mut self, options: &RunOptions) -> Result<DeploymentStep, RunError> {
        let Some((_, id)) = self.next_stepper() else {
            return Ok(DeploymentStep::default());
        };
        let mut events = Vec::new();
        let latency_ms = self.replicas[id].step_checked(options, &mut events)?;
        Ok(DeploymentStep {
            events,
            latency_ms: Some(latency_ms),
            replica: Some(ReplicaAddr::serving(id)),
        })
    }

    /// Sharded batch stepping: every replica due before `horizon_ms`
    /// advances to the horizon independently — on the persistent
    /// [`ShardedExecutor`], or inline on the caller when one worker
    /// suffices — and results merge in replica-index order, so output is
    /// deterministic and record-identical to sequential stepping.
    ///
    /// Returns `None` without stepping when batching does not apply
    /// (sequential mode, or at most one replica due); the caller then
    /// takes its own single step.
    pub fn step_batch(
        &mut self,
        horizon_ms: f64,
        options: &RunOptions,
    ) -> Result<Option<DeploymentStep>, RunError> {
        let is_due = |r: &Replica| r.has_work() && !r.down && r.clock_ms < horizon_ms;
        if options.exec == ExecMode::Sequential
            || self.replicas.iter().filter(|r| is_due(r)).nth(1).is_none()
        {
            return Ok(None);
        }
        let mut tasks: Vec<Mutex<StepTask<'_>>> = self
            .replicas
            .iter_mut()
            .filter(|r| is_due(r))
            .map(|replica| {
                Mutex::new(StepTask {
                    replica,
                    events: Vec::new(),
                    result: Ok(()),
                })
            })
            .collect();
        let run_one = |i: usize| {
            // Uncontended: shard claiming hands each index to exactly one
            // worker; the mutex only makes that exclusivity checkable.
            let mut task = tasks[i].lock().expect("step task");
            let task = &mut *task;
            task.result = task
                .replica
                .run_until(horizon_ms, options, &mut task.events);
        };
        let workers = options.exec.effective_workers();
        if workers <= 1 {
            for i in 0..tasks.len() {
                run_one(i);
            }
        } else {
            if self
                .executor
                .as_ref()
                .is_some_and(|p| p.workers() != workers)
            {
                self.executor = None;
            }
            self.executor
                .get_or_insert_with(|| ShardedExecutor::new(workers))
                .run(tasks.len(), run_one);
        }
        let mut events = Vec::new();
        for task in tasks.drain(..) {
            let task = task.into_inner().expect("step task");
            task.result?;
            events.extend(task.events);
        }
        // Progress is guarded per replica inside `run_until` (stall
        // detection and caps); the batch itself reports no latency.
        Ok(Some(DeploymentStep {
            events,
            latency_ms: None,
            replica: None,
        }))
    }

    /// Worker threads held by the persistent stepping pool (0 until a
    /// multi-worker sharded batch has run).
    pub fn worker_pool_size(&self) -> usize {
        self.executor.as_ref().map_or(0, ShardedExecutor::workers)
    }

    /// Drain (`accepting = false`) or join the replica `addr` names, at
    /// `now_ms`; a no-op for an address the pool lacks.
    pub fn set_accepting(&mut self, addr: ReplicaAddr, accepting: bool, now_ms: f64) {
        if let Some(i) = self.resolve(addr) {
            let r = &mut self.replicas[i];
            r.accepting = accepting;
            r.clock_ms = r.clock_ms.max(now_ms);
        }
    }

    /// Applies a replica crash or slowdown aimed at this pool, returning
    /// the specs of every request the crash lost. Faults on other
    /// addresses, and link faults, are no-ops here.
    pub fn inject_fault(&mut self, fault: &FaultKind, now_ms: f64) -> Vec<RequestSpec> {
        match fault {
            FaultKind::ReplicaCrash { replica, .. } => self
                .resolve(*replica)
                .map(|i| self.replicas[i].crash(now_ms))
                .unwrap_or_default(),
            FaultKind::SlowReplica {
                replica, factor, ..
            } => {
                if let Some(i) = self.resolve(*replica) {
                    self.replicas[i].latency_factor = *factor;
                }
                Vec::new()
            }
            FaultKind::LinkDegrade { .. } | FaultKind::LinkOutage { .. } => Vec::new(),
        }
    }

    /// Clears a replica crash or slowdown aimed at this pool.
    pub fn clear_fault(&mut self, fault: &FaultKind, now_ms: f64) {
        match fault {
            FaultKind::ReplicaCrash { replica, .. } => {
                if let Some(i) = self.resolve(*replica) {
                    self.replicas[i].recover(now_ms);
                }
            }
            FaultKind::SlowReplica { replica, .. } => {
                if let Some(i) = self.resolve(*replica) {
                    self.replicas[i].latency_factor = 1.0;
                }
            }
            FaultKind::LinkDegrade { .. } | FaultKind::LinkOutage { .. } => {}
        }
    }

    /// Toggles graceful degradation on every engine.
    pub fn set_degraded(&mut self, degraded: bool) {
        for r in &mut self.replicas {
            r.engine.core_mut().degraded = degraded;
        }
    }

    /// Installs the fleet-shared trace sink on every replica.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        for r in &mut self.replicas {
            r.set_tracer(tracer.clone());
        }
    }

    /// The replicas' engine cores, in index order.
    pub fn cores(&self) -> impl Iterator<Item = &EngineCore> + '_ {
        self.replicas.iter().map(|r| r.engine.core())
    }

    /// Iterations executed across the pool.
    pub fn iterations(&self) -> u64 {
        self.cores().map(|c| c.iterations).sum()
    }

    /// The latest replica clock.
    pub fn clock_ms(&self) -> f64 {
        self.replicas.iter().map(|r| r.clock_ms).fold(0.0, f64::max)
    }

    /// The slowest replica's baseline decode latency.
    pub fn max_baseline_ms(&self) -> f64 {
        self.replicas
            .iter()
            .map(Replica::baseline_ms)
            .fold(0.0, f64::max)
    }

    /// The smallest replica KV capacity, in tokens.
    pub fn kv_capacity_tokens(&self) -> u64 {
        self.cores()
            .map(EngineCore::kv_capacity_tokens)
            .min()
            .expect("a pool has at least one replica")
    }

    /// Finalizes every replica into its [`UnitStats`], in index order.
    ///
    /// # Errors
    ///
    /// [`RunError::kv_capacity`] naming the replica and request when a
    /// migration is still parked: with everything else drained it can
    /// never be admitted (its context exceeds the replica's whole pool).
    pub fn drain(&mut self) -> Result<Vec<UnitStats>, RunError> {
        if let Some((id, request)) = self
            .replicas
            .iter()
            .find_map(|r| r.parked_request().map(|req| (r.id, req)))
        {
            return Err(RunError::kv_capacity()
                .at(Pool::Decode, id)
                .for_request(request));
        }
        Ok(self
            .replicas
            .iter_mut()
            .map(|r| UnitStats {
                replica: ReplicaAddr::serving(r.id),
                routed: r.routed,
                result: r.finalize(),
                prefilled_requests: 0,
                prefill_tokens: 0,
            })
            .collect())
    }
}
