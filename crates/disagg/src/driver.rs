//! The disaggregated discrete-event driver.
//!
//! One global clock orders five event kinds: request arrivals (dispatched
//! to the prefill pool), elastic-scaling events (drain/join on either
//! pool), prefill iterations, KV-transfer arrivals (migrated requests
//! admitted into decode replicas) and decode iterations. The decode side
//! is a [`cluster::ReplicaPool`], so it runs the same engines — and the
//! same stepping, fault and clock bookkeeping — as a colocated
//! [`cluster::Cluster`]. Completion records from every decode replica
//! merge into one fleet-wide stream via [`metrics::merge_by_completion`].

use crate::dispatch::Dispatcher;
use crate::migrate::{KvLink, KvTransfer, TransferQueue, TransferStats};
use crate::prefill::{PrefillPool, PrefillReplica};
use cluster::{pooled_gauges, Replica, ReplicaPool};
use metrics::telemetry::{EventKind, GaugeSample, TraceReplica, Tracer};
use serving::{
    Deployment, DeploymentStep, FaultKind, LifecycleTracker, ReplicaAddr, RunError, RunOptions,
    RunResult, ServingEngine, UnitStats,
};
use std::collections::HashSet;
use workload::RequestSpec;

pub use serving::{Pool, ScalingAction};

/// A disaggregated cluster: a prefill pool and a decode pool under one
/// dispatcher and one KV-migration fabric.
///
/// A `DisaggCluster` implements [`Deployment`]: run it through a
/// [`serving::ServeSession`] (open-loop or online), which also picks how
/// the decode pool steps ([`serving::ExecMode`]).
#[derive(Debug)]
pub struct DisaggCluster {
    prefill: PrefillPool,
    decode: ReplicaPool,
    dispatcher: Dispatcher,
    transfers: TransferQueue,
    /// Lifecycle announcements of the prefill pool; at handoff a
    /// request's state transfers to its decode replica's own tracker
    /// ([`Replica::mark_admitted`]), so decode replicas can scan — and
    /// step — independently of each other.
    prefill_tracker: LifecycleTracker,
    /// Per-prefill-core high-water marks (always 0: prefill replicas
    /// produce no completion records; kept so lifecycle scans are uniform).
    prefill_finished_seen: Vec<usize>,
    /// Fleet-shared trace sink for prefill-side events (dispatch, chunks,
    /// KV transfers); decode replicas and the dispatcher hold clones of
    /// the same log.
    tracer: Tracer,
    /// Requests whose prefill has started (first entry into a prefill
    /// running batch); populated only while tracing, drained at handoff.
    prefill_started: HashSet<u64>,
    /// Whether the KV interconnect is dark (injected link outage). While
    /// set, no transfer departs: the prefill pool freezes as backpressure
    /// — its output has nowhere to go — and resumes when the link heals.
    link_down: bool,
}

impl DisaggCluster {
    /// Assembles a cluster from a prefill pool, decode engines, a
    /// dispatcher and a migration link.
    ///
    /// KV bytes per migrated token are taken from the first prefill
    /// replica's target model (the pools serve one model).
    ///
    /// # Panics
    ///
    /// Panics if `decode_engines` is empty.
    pub fn new(
        prefill: PrefillPool,
        decode_engines: Vec<Box<dyn ServingEngine>>,
        dispatcher: Dispatcher,
        link: KvLink,
    ) -> Self {
        let kv_bytes = prefill.replicas[0]
            .core
            .config
            .testbed
            .target
            .model()
            .kv_bytes_per_token();
        let n_decode = decode_engines.len();
        let n_prefill = prefill.replicas.len();
        Self {
            prefill,
            decode: ReplicaPool::new(decode_engines),
            dispatcher,
            transfers: TransferQueue::new(link, kv_bytes, n_decode),
            prefill_tracker: LifecycleTracker::default(),
            prefill_finished_seen: vec![0; n_prefill],
            tracer: Tracer::off(),
            prefill_started: HashSet::new(),
            link_down: false,
        }
    }

    /// Worker threads held by the persistent decode-stepping pool (0
    /// until a multi-worker sharded batch has run). Exposed so tests can
    /// assert the pool is reused across `serve()` calls rather than
    /// leaked.
    pub fn worker_pool_size(&self) -> usize {
        self.decode.worker_pool_size()
    }

    /// The slowest decode replica's baseline decode latency (workloads
    /// should resolve baseline-relative SLOs against this).
    pub fn decode_max_baseline_ms(&self) -> f64 {
        self.decode.max_baseline_ms()
    }

    /// Read-only view of the prefill pool.
    pub fn prefill_replicas(&self) -> &[PrefillReplica] {
        &self.prefill.replicas
    }

    /// Read-only view of the decode pool.
    pub fn decode_replicas(&self) -> &[Replica] {
        self.decode.replicas()
    }

    /// KV-migration telemetry accumulated so far (for inspection after a
    /// session run recovers the cluster via `ServeSession::into_inner`).
    pub fn transfer_stats(&self) -> TransferStats {
        self.transfers.stats
    }

    /// The prefill-pool index `addr` names, or `None` when the pool lacks
    /// it (scaling and faults aimed there are no-ops, as on the decode
    /// pool).
    fn prefill_index(&self, addr: ReplicaAddr) -> Option<usize> {
        (addr.pool == Pool::Prefill && addr.index < self.prefill.replicas.len())
            .then_some(addr.index)
    }

    /// The earliest prefill replica ready to iterate. Down replicas are
    /// frozen, and a dark KV link freezes the whole pool (its output has
    /// nowhere to go) until the session clears the outage.
    fn prefill_stepper(&self) -> Option<(f64, usize)> {
        if self.link_down {
            return None;
        }
        self.prefill
            .replicas
            .iter()
            .filter(|r| r.has_work() && !r.down)
            .min_by(|a, b| a.clock_ms.total_cmp(&b.clock_ms).then(a.id.cmp(&b.id)))
            .map(|r| (r.clock_ms, r.id))
    }

    /// Rolls one aborted transfer out of its destination's inbound load
    /// view and lifecycle memory, returning the lost request's spec.
    fn roll_back_aborted(&mut self, transfer: KvTransfer) -> RequestSpec {
        let r = &mut self.decode.replicas_mut()[transfer.to_decode];
        let req = transfer.request;
        r.inbound
            .remove(u64::from(req.remaining()), req.spec.tpot_slo_ms);
        r.forget(req.spec.id);
        self.prefill_started.remove(&req.spec.id);
        req.spec
    }

    /// Lands every transfer due by `now_ms` on its decode replica.
    fn land_transfers(&mut self, now_ms: f64) {
        for transfer in self.transfers.pop_arrivals(now_ms) {
            let r = &mut self.decode.replicas_mut()[transfer.to_decode];
            // Wire time lands on the destination's latency breakdown
            // (breakdowns are run telemetry, not per-request records, so
            // record output stays identical with tracing off).
            r.engine.core_mut().breakdown.kv_transfer_ms +=
                (transfer.arrive_ms - transfer.start_ms).max(0.0);
            r.clock_ms = r.clock_ms.max(transfer.arrive_ms);
            r.routed += 1;
            if r.land(transfer.request) {
                self.transfers.stats.parked += 1;
            }
        }
    }

    /// One prefill iteration on replica `id`; every prompt it completes
    /// is routed to a decode replica and starts migrating.
    fn step_prefill(
        &mut self,
        id: usize,
        options: &RunOptions,
    ) -> Result<DeploymentStep, RunError> {
        let mut events = Vec::new();
        let before = self.prefill.replicas[id].clock_ms;
        let tokens_before = self.prefill.replicas[id].prefill_tokens;
        let done = self.prefill.replicas[id].step()?;
        let now = self.prefill.replicas[id].clock_ms;
        if self.tracer.enabled() {
            let r = &self.prefill.replicas[id];
            let replica = TraceReplica::prefill(id);
            for req in r
                .core
                .running
                .iter()
                .map(|q| q.spec.id)
                .chain(done.iter().map(|q| q.spec.id))
            {
                if self.prefill_started.insert(req) {
                    self.tracer
                        .record(now, EventKind::PrefillStart { id: req, replica });
                }
            }
            let tokens = r.prefill_tokens - tokens_before;
            if tokens > 0 {
                self.tracer.record(
                    now,
                    EventKind::PrefillChunk {
                        replica,
                        requests: r.core.running.len() + done.len(),
                        tokens,
                        latency_ms: now - before,
                    },
                );
            }
        }
        if self.prefill.replicas[id].iterations > options.max_iterations {
            return Err(RunError::iteration_cap().at(Pool::Prefill, id));
        }
        if now > options.max_sim_ms {
            return Err(RunError::time_cap().at(Pool::Prefill, id));
        }
        let eligible = self.decode.eligible();
        for req in done {
            // A prompt admitted and fully prefilled within one iteration
            // never appeared in a running-batch scan: announce its
            // admission at handoff.
            self.prefill_tracker
                .admit(req.spec.id, ReplicaAddr::prefill(id), now, &mut events);
            // Route at the transfer's estimated arrival (wire time is
            // destination-independent; ingress queueing is not
            // foreseeable before a destination is chosen), so the
            // remaining-TPOT shading charges the migration delay.
            let est_arrival = now + self.transfers.wire_ms(req.context_len());
            let to =
                self.dispatcher
                    .route_decode(&req, est_arrival, self.decode.replicas(), &eligible);
            // Count the migration against the destination's load view
            // immediately, so the next handoff in this burst (and any
            // until the transfer lands) sees it instead of dogpiling one
            // replica's ingress link. Admission state travels with the
            // request: the decode tracker must not re-announce it, and
            // the prefill tracker can drop it (bounded sets).
            let dest = &mut self.decode.replicas_mut()[to];
            dest.inbound.add(&req);
            dest.mark_admitted(req.spec.id);
            self.prefill_tracker.forget(req.spec.id);
            let req_id = req.spec.id;
            let bytes = u64::from(req.context_len()) * self.transfers.kv_bytes_per_token();
            let arrive_ms = self.transfers.enqueue(req, id, to, now);
            if self.tracer.enabled() {
                self.prefill_started.remove(&req_id);
                // The ingress link serializes per destination, so the
                // transfer may start occupying the wire after `now`.
                let start_ms = arrive_ms - self.transfers.wire_ms_for_bytes(bytes);
                self.tracer.record(
                    now,
                    EventKind::KvTransfer {
                        id: req_id,
                        from_prefill: id,
                        to_decode: to,
                        bytes,
                        start_ms,
                        arrive_ms,
                    },
                );
            }
        }
        self.prefill_tracker.scan_core(
            &self.prefill.replicas[id].core,
            ReplicaAddr::prefill(id),
            now,
            &mut self.prefill_finished_seen[id],
            &mut events,
        );
        Ok(DeploymentStep {
            events,
            latency_ms: Some(now - before),
            replica: Some(ReplicaAddr::prefill(id)),
        })
    }
}

impl Deployment for DisaggCluster {
    /// The decode-side routing policy's name.
    fn name(&self) -> String {
        self.dispatcher.decode_router_name()
    }

    fn max_baseline_ms(&self) -> f64 {
        self.decode_max_baseline_ms()
    }

    fn kv_capacity_tokens(&self) -> u64 {
        self.prefill
            .replicas
            .iter()
            .map(|r| r.core.kv_capacity_tokens())
            .fold(self.decode.kv_capacity_tokens(), u64::min)
    }

    /// The longest cached prefix across the *prefill* pool (where prompts
    /// are processed, and where the dispatcher can steer the request).
    fn cached_prefix_tokens(&self, spec: &RequestSpec) -> u32 {
        if self
            .prefill
            .replicas
            .iter()
            .all(|r| r.core.prefix.is_none())
        {
            return 0;
        }
        let prompt = spec.prompt_tokens();
        self.prefill
            .replicas
            .iter()
            .map(|r| r.cached_prefix_tokens(spec, &prompt))
            .max()
            .unwrap_or(0)
    }

    fn submit(&mut self, spec: RequestSpec, now_ms: f64) {
        let eligible = self.prefill.eligible();
        let choice =
            self.dispatcher
                .route_prefill(&spec, now_ms, &self.prefill.replicas, &eligible);
        let choice = if eligible.contains(&choice) {
            choice
        } else {
            debug_assert!(false, "dispatcher returned ineligible prefill {choice}");
            eligible[0]
        };
        if self.tracer.enabled() {
            self.tracer.record(
                now_ms,
                EventKind::RouteDecision {
                    id: spec.id,
                    router: "prefill-tier".to_string(),
                    replica: TraceReplica::prefill(choice),
                    modeled_load_ms: self.prefill.replicas[choice].drain_estimate_ms(now_ms),
                },
            );
        }
        let r = &mut self.prefill.replicas[choice];
        r.core.on_arrival(spec);
        r.clock_ms = r.clock_ms.max(now_ms);
        r.routed += 1;
    }

    fn next_event_ms(&self) -> Option<f64> {
        let t_xfer = self.transfers.next_arrival_ms().unwrap_or(f64::INFINITY);
        let t_pre = self.prefill_stepper().map_or(f64::INFINITY, |(t, _)| t);
        let t_dec = self.decode.next_stepper().map_or(f64::INFINITY, |(t, _)| t);
        let t = t_xfer.min(t_pre).min(t_dec);
        (!t.is_infinite()).then_some(t)
    }

    /// Internal event ordering at equal timestamps: KV-transfer arrivals
    /// first (migrated requests join decode batches before the batch
    /// steps), then the earliest-clock replica iterates (prefill before
    /// decode on exact clock ties).
    fn step(&mut self, options: &RunOptions) -> Result<DeploymentStep, RunError> {
        let t_xfer = self.transfers.next_arrival_ms().unwrap_or(f64::INFINITY);
        let pre_stepper = self.prefill_stepper();
        let t_pre = pre_stepper.map_or(f64::INFINITY, |(t, _)| t);
        let t_dec = self.decode.next_stepper().map_or(f64::INFINITY, |(t, _)| t);
        if t_xfer <= t_pre.min(t_dec) {
            // Landed transfers are bookkeeping, not an engine iteration:
            // no latency for the progress guard.
            self.land_transfers(t_xfer);
            return Ok(DeploymentStep::default());
        }
        match pre_stepper {
            Some((_, id)) if t_pre <= t_dec => self.step_prefill(id, options),
            _ => self.decode.step(options),
        }
    }

    /// Sharded decode-pool batch: decode replicas interact with the rest
    /// of the system only at KV-transfer landings and prefill routing
    /// reads, so between now and the earliest of (external horizon, next
    /// transfer arrival, next prefill iteration) each due decode replica
    /// advances independently (see [`ReplicaPool::step_batch`]).
    /// Prefill/transfer events fall back to the sequential
    /// [`Deployment::step`].
    fn step_until(
        &mut self,
        horizon_ms: f64,
        options: &RunOptions,
    ) -> Result<DeploymentStep, RunError> {
        let t_xfer = self.transfers.next_arrival_ms().unwrap_or(f64::INFINITY);
        let t_pre = self.prefill_stepper().map_or(f64::INFINITY, |(t, _)| t);
        let decode_horizon = horizon_ms.min(t_xfer).min(t_pre);
        match self.decode.step_batch(decode_horizon, options)? {
            Some(step) => Ok(step),
            None => self.step(options),
        }
    }

    fn set_accepting(&mut self, replica: ReplicaAddr, accepting: bool, now_ms: f64) {
        if let Some(i) = self.prefill_index(replica) {
            let r = &mut self.prefill.replicas[i];
            r.accepting = accepting;
            r.clock_ms = r.clock_ms.max(now_ms);
        }
        self.decode.set_accepting(replica, accepting, now_ms);
    }

    fn inject_fault(&mut self, fault: &FaultKind, now_ms: f64) -> Vec<RequestSpec> {
        match fault {
            FaultKind::ReplicaCrash { replica, .. } => {
                if let Some(i) = self.prefill_index(*replica) {
                    let lost = self.prefill.replicas[i].crash(now_ms);
                    for spec in &lost {
                        self.prefill_tracker.forget(spec.id);
                        self.prefill_started.remove(&spec.id);
                    }
                    return lost;
                }
                // A decode crash loses the engine's requests and the
                // migrations parked on its landing queue, and aborts the
                // transfers streaming toward it mid-wire.
                let mut lost = self.decode.inject_fault(fault, now_ms);
                if let Some(i) = self.decode.resolve(*replica) {
                    for transfer in self.transfers.abort_to(i) {
                        lost.push(self.roll_back_aborted(transfer));
                    }
                }
                lost
            }
            FaultKind::SlowReplica {
                replica, factor, ..
            } => {
                if let Some(i) = self.prefill_index(*replica) {
                    self.prefill.replicas[i].latency_factor = *factor;
                }
                self.decode.inject_fault(fault, now_ms)
            }
            FaultKind::LinkDegrade { factor, .. } => {
                self.transfers.set_wire_factor(*factor);
                Vec::new()
            }
            FaultKind::LinkOutage { .. } => {
                self.link_down = true;
                self.transfers
                    .abort_all()
                    .into_iter()
                    .map(|t| self.roll_back_aborted(t))
                    .collect()
            }
        }
    }

    fn clear_fault(&mut self, fault: &FaultKind, now_ms: f64) {
        match fault {
            FaultKind::ReplicaCrash { replica, .. } => {
                if let Some(i) = self.prefill_index(*replica) {
                    self.prefill.replicas[i].recover(now_ms);
                }
            }
            FaultKind::SlowReplica { replica, .. } => {
                if let Some(i) = self.prefill_index(*replica) {
                    self.prefill.replicas[i].latency_factor = 1.0;
                }
            }
            FaultKind::LinkDegrade { .. } => self.transfers.set_wire_factor(1.0),
            FaultKind::LinkOutage { .. } => {
                self.link_down = false;
                // The outage backpressured the prefill pool: the stall is
                // wall-clock time its replicas lived through.
                for r in &mut self.prefill.replicas {
                    r.clock_ms = r.clock_ms.max(now_ms);
                }
            }
        }
        self.decode.clear_fault(fault, now_ms);
    }

    fn set_degraded(&mut self, degraded: bool) {
        // Speculation happens on the decode pool only.
        self.decode.set_degraded(degraded);
    }

    fn iterations(&self) -> u64 {
        self.prefill
            .replicas
            .iter()
            .map(|r| r.iterations)
            .sum::<u64>()
            + self.decode.iterations()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.decode.set_tracer(&tracer);
        self.dispatcher.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Both pools' gauges (see [`pooled_gauges`]).
    fn gauges(&self) -> GaugeSample {
        let prefill = self.prefill.replicas.iter().map(|r| &r.core);
        pooled_gauges(prefill.chain(self.decode.cores()))
    }

    fn clock_ms(&self) -> f64 {
        self.prefill
            .replicas
            .iter()
            .map(|r| r.clock_ms)
            .fold(self.decode.clock_ms(), f64::max)
    }

    fn drain(&mut self) -> Result<Vec<UnitStats>, RunError> {
        let decode = self.decode.drain()?;
        let mut units: Vec<UnitStats> = self
            .prefill
            .replicas
            .iter()
            .map(|r| UnitStats {
                replica: ReplicaAddr::prefill(r.id),
                routed: r.routed,
                result: RunResult {
                    engine: "prefill".into(),
                    records: Vec::new(),
                    breakdown: r.core.breakdown,
                    hotloop: r.core.hotloop,
                    end_ms: r.clock_ms,
                    iterations: r.iterations,
                    mean_accepted_per_verify: 0.0,
                },
                prefilled_requests: r.prefilled_requests,
                prefill_tokens: r.prefill_tokens,
            })
            .collect();
        units.extend(decode);
        Ok(units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::Dispatcher;
    use cluster::RouterKind;
    use serving::{ExecMode, RunErrorKind, RunReport, ScalePlan, ServeSession, SystemConfig};
    use workload::{Category, RequestSpec, Workload};

    fn tiny_workload(n: u64, gap_ms: f64) -> Workload {
        let requests = (0..n)
            .map(|id| {
                let category = Category::ALL[(id % 3) as usize];
                RequestSpec {
                    id,
                    category,
                    arrival_ms: id as f64 * gap_ms,
                    prompt_len: 16 + (id as u32 % 5) * 40,
                    output_len: 6,
                    tpot_slo_ms: 50.0,
                    ttft_slo_ms: category.ttft_slo().resolve(25.0),
                    stream_seed: id ^ 0xD15A,
                    prefix: None,
                }
            })
            .collect();
        Workload {
            requests,
            description: "tiny disagg".into(),
        }
    }

    fn cluster(n_prefill: usize, n_decode: usize) -> DisaggCluster {
        let prefill = PrefillPool::new(vec![SystemConfig::llama70b(3); n_prefill]);
        let decode: Vec<Box<dyn ServingEngine>> = (0..n_decode)
            .map(|_| {
                Box::new(adaserve_core::AdaServeEngine::new(SystemConfig::llama70b(
                    3,
                ))) as Box<dyn ServingEngine>
            })
            .collect();
        DisaggCluster::new(
            prefill,
            decode,
            Dispatcher::new(RouterKind::SloAware.build()),
            KvLink::new(300.0, 0.05),
        )
    }

    /// Front-door drive with a scaling timeline; returns the report and
    /// the recovered cluster (for transfer telemetry).
    fn serve_disagg(
        cluster: DisaggCluster,
        plans: Vec<ScalePlan>,
        workload: &Workload,
        options: RunOptions,
    ) -> Result<(RunReport, DisaggCluster), RunError> {
        let mut session = ServeSession::with_options(cluster, options);
        for p in plans {
            session.scale_at(p.at_ms, p.replica, p.action);
        }
        let report = session.serve(workload)?;
        Ok((report, session.into_inner()))
    }

    fn decode_records(report: &RunReport, index: usize) -> usize {
        report
            .serving_units()
            .nth(index)
            .expect("decode unit exists")
            .result
            .records
            .len()
    }

    #[test]
    fn serves_every_request_exactly_once() {
        let wl = tiny_workload(12, 8.0);
        let (result, recovered) =
            serve_disagg(cluster(1, 2), Vec::new(), &wl, RunOptions::default()).expect("run");
        assert_eq!(result.records.len(), 12);
        let mut ids: Vec<u64> = result.records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12, "no duplicates across migration");
        assert_eq!(
            recovered.transfer_stats().transfers,
            12,
            "every request migrated"
        );
        for r in &result.records {
            assert_eq!(r.output_tokens, 6, "no tokens lost in migration");
        }
    }

    #[test]
    fn ttft_includes_prefill_and_transfer() {
        let wl = tiny_workload(4, 50.0);
        let (result, _) =
            serve_disagg(cluster(1, 1), Vec::new(), &wl, RunOptions::default()).unwrap();
        for r in &result.records {
            assert!(
                r.decode_start_ms > r.arrival_ms,
                "decode starts after arrival"
            );
            assert!(r.ttft_ms() > 0.0);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let wl = tiny_workload(10, 6.0);
        let (a, ca) = serve_disagg(cluster(2, 2), Vec::new(), &wl, RunOptions::default()).unwrap();
        let (b, cb) = serve_disagg(cluster(2, 2), Vec::new(), &wl, RunOptions::default()).unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.end_ms, b.end_ms);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(ca.transfer_stats(), cb.transfer_stats());
    }

    #[test]
    fn drained_prefill_replica_takes_no_arrivals() {
        let wl = tiny_workload(6, 30.0);
        let (result, _) = serve_disagg(
            cluster(2, 1),
            vec![ScalePlan {
                at_ms: -1.0,
                replica: ReplicaAddr::prefill(1),
                action: ScalingAction::Drain,
            }],
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        let prefill: Vec<&UnitStats> = result.prefill_units().collect();
        assert_eq!(prefill[0].routed, 6);
        assert_eq!(prefill[1].routed, 0);
        assert_eq!(result.records.len(), 6, "drain loses nothing");
    }

    #[test]
    fn drained_decode_replica_receives_no_migrations() {
        let wl = tiny_workload(6, 30.0);
        let (result, _) = serve_disagg(
            cluster(1, 2),
            vec![ScalePlan {
                at_ms: -1.0,
                replica: ReplicaAddr::serving(0),
                action: ScalingAction::Drain,
            }],
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        assert_eq!(decode_records(&result, 0), 0);
        assert_eq!(decode_records(&result, 1), 6);
    }

    #[test]
    fn scaling_an_unknown_replica_in_either_pool_is_a_no_op() {
        let wl = tiny_workload(6, 10.0);
        let plans = [ReplicaAddr::serving(99), ReplicaAddr::prefill(99)]
            .into_iter()
            .map(|replica| ScalePlan {
                at_ms: 5.0,
                replica,
                action: ScalingAction::Drain,
            })
            .collect();
        let (result, _) = serve_disagg(cluster(1, 2), plans, &wl, RunOptions::default()).unwrap();
        assert_eq!(result.records.len(), 6);
    }

    #[test]
    fn empty_workload_is_a_no_op() {
        let wl = Workload {
            requests: Vec::new(),
            description: "empty".into(),
        };
        let (result, recovered) =
            serve_disagg(cluster(1, 1), Vec::new(), &wl, RunOptions::default()).unwrap();
        assert!(result.records.is_empty());
        assert_eq!(result.end_ms, 0.0);
        assert_eq!(recovered.transfer_stats().transfers, 0);
    }

    #[test]
    fn burst_handoffs_spread_across_decode_replicas() {
        // Six same-instant short prompts finish in one prefill iteration,
        // so the dispatcher routes six migrations back to back with no
        // intervening decode progress. The inbound-work accounting must
        // make each handoff visible to the next: a load-aware router then
        // spreads the burst instead of dogpiling one ingress link.
        let requests = (0..6)
            .map(|id| RequestSpec {
                id,
                category: Category::Chatbot,
                arrival_ms: 0.0,
                prompt_len: 24,
                output_len: 8,
                tpot_slo_ms: 50.0,
                ttft_slo_ms: 1_200.0,
                stream_seed: id,
                prefix: None,
            })
            .collect();
        let wl = Workload {
            requests,
            description: "burst".into(),
        };
        let (result, _) =
            serve_disagg(cluster(1, 2), Vec::new(), &wl, RunOptions::default()).unwrap();
        assert_eq!(result.records.len(), 6);
        let shares: Vec<u64> = result.serving_units().map(|u| u.routed).collect();
        for (i, &share) in shares.iter().enumerate() {
            assert!(
                share > 0,
                "decode-{i} received no share of the burst: {shares:?}"
            );
        }
    }

    #[test]
    fn oversized_migration_errors_cleanly() {
        // A prompt that fits the prefill pool but exceeds a decode
        // replica's entire KV pool can never land: the run must return an
        // error, not hang or panic (mirrors the colocated driver's
        // oversized-request behavior). The error names the decode replica
        // and the parked request.
        let wl = Workload {
            requests: vec![RequestSpec {
                id: 0,
                category: Category::Summarization,
                arrival_ms: 0.0,
                prompt_len: 500,
                output_len: 4,
                tpot_slo_ms: 150.0,
                ttft_slo_ms: 8_000.0,
                stream_seed: 1,
                prefix: None,
            }],
            description: "oversized".into(),
        };
        let prefill = PrefillPool::new(vec![SystemConfig::llama70b(3)]);
        let mut engine = adaserve_core::AdaServeEngine::new(SystemConfig::llama70b(3));
        // 4 blocks x 16 tokens = 64-token decode pool vs a 500-token context.
        engine.core_mut().blocks = serving::BlockManager::new(4, 16);
        let disagg = DisaggCluster::new(
            prefill,
            vec![Box::new(engine)],
            Dispatcher::new(RouterKind::SloAware.build()),
            KvLink::new(300.0, 0.05),
        );
        let err = ServeSession::with_options(disagg, RunOptions::default())
            .admission_control(false)
            .serve(&wl)
            .unwrap_err();
        assert_eq!(err.kind(), RunErrorKind::KvCapacity);
        assert_eq!(err.site().pool, Some(Pool::Decode));
        assert_eq!(err.site().replica, Some(0));
        assert_eq!(err.site().request, Some(0));
    }

    #[test]
    fn oversized_prompt_is_rejected_by_admission_control() {
        // Same setup, but with the session's front-door admission control
        // on (the default): the request is rejected up front instead of
        // erroring out the whole run.
        let wl = Workload {
            requests: vec![RequestSpec {
                id: 7,
                category: Category::Summarization,
                arrival_ms: 0.0,
                prompt_len: 500,
                output_len: 4,
                tpot_slo_ms: 150.0,
                ttft_slo_ms: 8_000.0,
                stream_seed: 1,
                prefix: None,
            }],
            description: "oversized".into(),
        };
        let prefill = PrefillPool::new(vec![SystemConfig::llama70b(3)]);
        let mut engine = adaserve_core::AdaServeEngine::new(SystemConfig::llama70b(3));
        engine.core_mut().blocks = serving::BlockManager::new(4, 16);
        let disagg = DisaggCluster::new(
            prefill,
            vec![Box::new(engine)],
            Dispatcher::new(RouterKind::SloAware.build()),
            KvLink::new(300.0, 0.05),
        );
        let report = ServeSession::new(disagg).serve(&wl).expect("run completes");
        assert!(report.records.is_empty());
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].0, 7);
    }

    #[test]
    fn migrated_requests_are_stamped_at_decode_iteration_start() {
        // decode_start_ms must be the *start* of the first decode
        // iteration (colocated semantics), so completion never coincides
        // with it and single-iteration requests cannot report zero TPOT.
        let wl = tiny_workload(5, 20.0);
        let (result, _) =
            serve_disagg(cluster(1, 1), Vec::new(), &wl, RunOptions::default()).unwrap();
        for r in &result.records {
            assert!(
                r.completion_ms > r.decode_start_ms,
                "request {}: completion {} <= decode start {}",
                r.id,
                r.completion_ms,
                r.decode_start_ms
            );
            assert!(r.avg_tpot_ms() > 0.0, "request {} reports zero TPOT", r.id);
        }
    }

    #[test]
    fn parked_migrations_are_identical_across_exec_modes() {
        // Decode pools of 24 blocks x 16 tokens hold only a few contexts
        // at once, so a burst of migrations parks on the landing queues
        // and lands as finished requests free blocks.
        let mut wl = tiny_workload(24, 2.0);
        for r in &mut wl.requests {
            r.output_len = 48;
        }
        let run = |mode: ExecMode| {
            let prefill = PrefillPool::new(vec![SystemConfig::llama70b(3); 2]);
            let decode: Vec<Box<dyn ServingEngine>> = (0..2)
                .map(|_| {
                    let mut engine = adaserve_core::AdaServeEngine::new(SystemConfig::llama70b(3));
                    engine.core_mut().blocks = serving::BlockManager::new(24, 16);
                    Box::new(engine) as Box<dyn ServingEngine>
                })
                .collect();
            let disagg = DisaggCluster::new(
                prefill,
                decode,
                Dispatcher::new(RouterKind::SloAware.build()),
                KvLink::new(300.0, 0.05),
            );
            let mut session = ServeSession::new(disagg).with_exec_mode(mode);
            let report = session
                .serve(&wl)
                .unwrap_or_else(|e| panic!("{}: {e}", mode.label()));
            let disagg = session.into_inner();
            let workers = disagg.worker_pool_size();
            (report, disagg.transfer_stats(), workers)
        };
        let (reference, stats, _) = run(ExecMode::Sequential);
        assert_eq!(reference.records.len(), 24);
        assert!(stats.parked > 0, "some migration parked: {stats:?}");
        for workers in [2, 4] {
            let mode = ExecMode::Sharded {
                workers: Some(workers),
            };
            let (report, got, pool) = run(mode);
            assert_eq!(pool, workers, "{}: batches ran sharded", mode.label());
            assert_eq!(report.records, reference.records, "{}", mode.label());
            assert_eq!(report.end_ms, reference.end_ms, "{}", mode.label());
            assert_eq!(report.iterations, reference.iterations, "{}", mode.label());
            assert_eq!(got, stats, "{}: transfer telemetry", mode.label());
        }
    }

    #[test]
    fn iteration_cap_is_enforced() {
        let wl = tiny_workload(6, 1.0);
        let err = serve_disagg(
            cluster(1, 1),
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
        assert!(err.site().pool.is_some(), "cap names its pool");
    }
}
