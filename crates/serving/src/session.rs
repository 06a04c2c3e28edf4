//! The unified serving front door: the [`Deployment`] trait and the
//! online [`ServeSession`] driver. One event loop (global clock, stall
//! guard, run caps, scaling and fault timelines, report plumbing) serves
//! every deployment shape:
//!
//! * a [`Deployment`] is anything that can accept requests and advance
//!   its own machinery event by event — a single colocated engine
//!   ([`crate::Colocated`]), a multi-replica `cluster::Cluster`, or a
//!   disaggregated `disagg::DisaggCluster`;
//! * a [`ServeSession`] owns the global clock, the run caps
//!   ([`RunOptions`]), a progress [`StallGuard`] and the scaling
//!   timeline, and drives any deployment **online**: requests are
//!   submitted at their arrival times (open-loop from a
//!   [`workload::Workload`], or mid-run from a client hook reacting to
//!   events), not handed over as a whole workload up front;
//! * per-request lifecycle is surfaced as [`DeploymentEvent`]s
//!   (`Admitted`, `FirstToken`, `Finished`, `Rejected`) and the run
//!   finalizes into one [`RunReport`] with per-replica/pool
//!   [`UnitStats`], regardless of topology.

use crate::core::EngineCore;
use crate::engine::{Pool, RunError, RunOptions, RunResult, StallGuard};
use crate::fault::{FaultKind, FaultPlan, RecoveryPolicy};
use metrics::telemetry::{EventKind, GaugeSample, Tracer};
use metrics::{merge_by_completion, ClusterReport, RequestRecord, SloReport};
use std::collections::{HashMap, HashSet, VecDeque};
use workload::{Category, RequestSpec, Workload};

/// What an elastic-scaling action does to its replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingAction {
    /// Stop routing new requests to the replica; it finishes queued work.
    Drain,
    /// Make the replica eligible for new requests again.
    Join,
}

/// Addresses one replica of a deployment: its pool and index within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplicaAddr {
    /// The pool the replica belongs to.
    pub pool: Pool,
    /// The replica's index within its pool.
    pub index: usize,
}

impl ReplicaAddr {
    /// A serving (decode-pool) replica — in colocated and cluster
    /// deployments, every replica.
    pub fn serving(index: usize) -> Self {
        Self {
            pool: Pool::Decode,
            index,
        }
    }

    /// A prefill-pool replica of a disaggregated deployment.
    pub fn prefill(index: usize) -> Self {
        Self {
            pool: Pool::Prefill,
            index,
        }
    }
}

impl std::fmt::Display for ReplicaAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-{}", self.pool.label(), self.index)
    }
}

/// A scheduled drain/join of one replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePlan {
    /// Simulation time at which the change applies.
    pub at_ms: f64,
    /// Target replica.
    pub replica: ReplicaAddr,
    /// Drain or join.
    pub action: ScalingAction,
}

/// Why a submission was refused at the front door.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RejectReason {
    /// The prompt alone can never fit the deployment's smallest KV pool,
    /// so no replica could ever admit it.
    PromptExceedsKv {
        /// Prompt length of the refused request, in tokens.
        prompt_tokens: u32,
        /// The deployment's smallest per-replica KV capacity, in tokens.
        capacity_tokens: u64,
    },
    /// The request's tenant is already holding its full admission quota
    /// of queued requests, so a weighted-fair front door refused it
    /// rather than let one tenant monopolize the waiting queue.
    TenantOverQuota {
        /// Tenant index (position in the scenario's tenant list).
        tenant: usize,
        /// The tenant's admission quota (max held requests).
        quota: usize,
    },
    /// The request was lost to replica/link faults and exhausted its
    /// [`crate::RecoveryPolicy`] retry budget — the terminal outcome of
    /// an unrecoverable request, so conservation (offered = finished +
    /// rejected) holds under any fault schedule.
    RetryBudgetExhausted {
        /// Retries consumed before giving up.
        retries: u32,
    },
    /// Graceful degradation under sustained recovery pressure shed this
    /// request's (loosest) SLO tier at admission instead of letting the
    /// backlog collapse every tier.
    DegradedShed {
        /// Requests awaiting recovery when the shed decision was made.
        pressure: usize,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::PromptExceedsKv {
                prompt_tokens,
                capacity_tokens,
            } => write!(
                f,
                "prompt of {prompt_tokens} tokens exceeds the deployment's \
                 {capacity_tokens}-token KV capacity"
            ),
            RejectReason::TenantOverQuota { tenant, quota } => write!(
                f,
                "tenant {tenant} already holds its admission quota of \
                 {quota} queued requests"
            ),
            RejectReason::RetryBudgetExhausted { retries } => write!(
                f,
                "lost to faults and exhausted its retry budget after \
                 {retries} retries"
            ),
            RejectReason::DegradedShed { pressure } => write!(
                f,
                "shed at admission: {pressure} requests recovering from \
                 faults, loosest SLO tier refused"
            ),
        }
    }
}

/// A per-request lifecycle event surfaced by a deployment.
///
/// Events are reported at the end of the internal step that produced
/// them (`at_ms` is the step's completion clock, an upper bound on when
/// the milestone occurred within the iteration).
#[derive(Debug, Clone, PartialEq)]
pub enum DeploymentEvent {
    /// The request left a waiting queue and entered a serving batch.
    Admitted {
        /// Request id.
        id: u64,
        /// Replica that admitted it (the prefill replica, when
        /// disaggregated).
        replica: ReplicaAddr,
        /// Clock at which the admission was observed.
        at_ms: f64,
    },
    /// The request produced its first output token.
    FirstToken {
        /// Request id.
        id: u64,
        /// Clock at which the first token was observed.
        at_ms: f64,
    },
    /// The request completed; the record is final.
    Finished {
        /// The completion record (identical to what the run report
        /// aggregates).
        record: RequestRecord,
    },
    /// The request was refused at submission and will never be served.
    Rejected {
        /// Request id.
        id: u64,
        /// Why it was refused.
        reason: RejectReason,
        /// Session clock at refusal.
        at_ms: f64,
    },
    /// A periodic counters snapshot ([`Deployment::gauges`]), dispatched
    /// only when the session was built with
    /// [`ServeSession::with_gauge_events`] — the observation channel a
    /// closed-loop autoscaler consumes.
    GaugeTick {
        /// The tick's nominal sample time.
        at_ms: f64,
        /// The deployment-wide counters snapshot.
        sample: GaugeSample,
    },
}

/// Outcome of one [`Deployment::step`].
#[derive(Debug, Clone, Default)]
pub struct DeploymentStep {
    /// Lifecycle events the step produced.
    pub events: Vec<DeploymentEvent>,
    /// Modelled latency of the engine iteration this step executed, if
    /// one ran. Bookkeeping-only steps (e.g. landing a KV transfer) are
    /// `None` and bypass the session's progress guard.
    pub latency_ms: Option<f64>,
    /// The replica that iterated, when one did. The session keys its
    /// progress guards on this so a zero-latency run on one replica is
    /// never conflated with (or reset by) its peers' steps.
    pub replica: Option<ReplicaAddr>,
}

/// A deployment shape that a [`ServeSession`] can drive.
///
/// Implementors own their replicas and internal machinery (routing,
/// per-replica clocks, KV migration, …); the session owns the global
/// event loop — arrival injection, the scaling timeline, run caps and a
/// progress guard. Event ordering at equal timestamps is: scaling, then
/// arrivals, then internal steps.
pub trait Deployment {
    /// Display label for reports (engine name, router name, …).
    fn name(&self) -> String;

    /// The slowest serving replica's near-zero-load decode latency.
    /// Workloads should resolve baseline-relative SLOs against this.
    fn max_baseline_ms(&self) -> f64;

    /// The smallest per-replica KV capacity in tokens — the largest
    /// context that is guaranteed placeable on every replica. The session
    /// uses it for admission control ([`DeploymentEvent::Rejected`]).
    fn kv_capacity_tokens(&self) -> u64;

    /// The longest prefix of `spec`'s prompt already resident in any
    /// replica's cross-request prefix cache, in tokens. The session
    /// subtracts it from the prompt before the capacity check, so a
    /// request whose *uncached suffix* fits is admitted even when its
    /// full prompt would not. Deployments without a prefix cache keep
    /// the default of 0.
    fn cached_prefix_tokens(&self, spec: &RequestSpec) -> u32 {
        let _ = spec;
        0
    }

    /// Accepts a request at `now_ms` (routing it to a replica's waiting
    /// queue). The session has already applied admission control.
    fn submit(&mut self, spec: RequestSpec, now_ms: f64);

    /// The earliest time any internal machinery is due, or `None` when
    /// the deployment is idle.
    fn next_event_ms(&self) -> Option<f64>;

    /// Advances the earliest due internal event (one engine iteration,
    /// KV-transfer landing, …), enforcing the caps in `options` with the
    /// deployment's native granularity (per replica).
    fn step(&mut self, options: &RunOptions) -> Result<DeploymentStep, RunError>;

    /// Advances internal machinery up to (but never past) `horizon_ms` —
    /// the next external event the session will inject (arrival or
    /// scaling), or infinity when none remain.
    ///
    /// The default forwards to [`Deployment::step`] (one event at a
    /// time). Multi-replica deployments override this to batch-step
    /// independent replicas **in parallel** until each reaches the
    /// horizon: between external events replicas do not interact, so the
    /// per-replica state at the horizon — and therefore every record —
    /// is identical to sequential stepping. Only the *interleaving* of
    /// surfaced [`DeploymentEvent`]s (and their upper-bound `at_ms`
    /// stamps) may differ.
    fn step_until(
        &mut self,
        horizon_ms: f64,
        options: &RunOptions,
    ) -> Result<DeploymentStep, RunError> {
        let _ = horizon_ms;
        self.step(options)
    }

    /// Toggles whether `replica` accepts new work (drain/join). An
    /// address the deployment lacks is a no-op, as for faults.
    fn set_accepting(&mut self, replica: ReplicaAddr, accepting: bool, now_ms: f64);

    /// Iterations executed across all replicas so far.
    fn iterations(&self) -> u64;

    /// The latest local clock across all replicas.
    fn clock_ms(&self) -> f64;

    /// Finalizes the run into per-replica stats, erroring if
    /// undeliverable work remains (e.g. a KV migration that can never
    /// land).
    fn drain(&mut self) -> Result<Vec<UnitStats>, RunError>;

    /// Installs a tracing handle. Deployments that support tracing clone
    /// it into their replicas so every layer appends to one shared event
    /// log; the default ignores it (tracing stays off).
    fn set_tracer(&mut self, tracer: Tracer) {
        let _ = tracer;
    }

    /// A point-in-time counters snapshot (queue depth, in-flight, KV
    /// occupancy, cache hit rate) for the session's gauge tick. The
    /// default reports zeros.
    fn gauges(&self) -> GaugeSample {
        GaugeSample::default()
    }

    /// Applies an injected fault at `now_ms`, returning the specs of
    /// every request the fault lost (a crashed replica's running *and*
    /// waiting set, transfers aborted by a link outage). The session
    /// re-dispatches or terminally rejects them under its
    /// [`RecoveryPolicy`]. The default no-ops (deployments without
    /// fault machinery lose nothing).
    fn inject_fault(&mut self, fault: &FaultKind, now_ms: f64) -> Vec<RequestSpec> {
        let _ = (fault, now_ms);
        Vec::new()
    }

    /// Clears a previously injected fault at `now_ms` — the crashed
    /// replica rejoins, the slowdown ends, the link heals. The default
    /// no-ops.
    fn clear_fault(&mut self, fault: &FaultKind, now_ms: f64) {
        let _ = (fault, now_ms);
    }

    /// Toggles graceful degradation: while set, engines shed
    /// speculation depth to spend compute on committed tokens instead
    /// of drafts. The default ignores it.
    fn set_degraded(&mut self, degraded: bool) {
        let _ = degraded;
    }
}

/// Tracks which lifecycle milestones have been announced per request, so
/// deployments emit each [`DeploymentEvent`] exactly once.
///
/// One tracker serves a whole deployment (request ids are unique across
/// replicas); the per-core `finished_seen` high-water marks live with the
/// caller because a deployment scans many cores.
#[derive(Debug, Default)]
pub struct LifecycleTracker {
    admitted: HashSet<u64>,
    first_token: HashSet<u64>,
}

impl LifecycleTracker {
    /// Announces `id` as admitted on `replica` if it has not been yet.
    pub fn admit(
        &mut self,
        id: u64,
        replica: ReplicaAddr,
        at_ms: f64,
        out: &mut Vec<DeploymentEvent>,
    ) {
        if self.admitted.insert(id) {
            out.push(DeploymentEvent::Admitted { id, replica, at_ms });
        }
    }

    /// Records `id` as already announced-admitted **without emitting an
    /// event** — used when a request migrates between trackers (e.g.
    /// prefill → decode pool): the destination tracker must not
    /// re-announce what the source already surfaced.
    pub fn mark_admitted(&mut self, id: u64) {
        self.admitted.insert(id);
    }

    /// Drops all state for `id` (the request moved to another tracker),
    /// keeping the sets bounded.
    pub fn forget(&mut self, id: u64) {
        self.admitted.remove(&id);
        self.first_token.remove(&id);
    }

    /// Scans one core after an iteration, emitting newly due events:
    /// admissions and first tokens from the running batch, and
    /// finished-record triplets past the `finished_seen` high-water mark
    /// (which this call advances).
    pub fn scan_core(
        &mut self,
        core: &EngineCore,
        replica: ReplicaAddr,
        at_ms: f64,
        finished_seen: &mut usize,
        out: &mut Vec<DeploymentEvent>,
    ) {
        for r in &core.running {
            let id = r.spec.id;
            if self.admitted.insert(id) {
                out.push(DeploymentEvent::Admitted { id, replica, at_ms });
            }
            if r.generated() > 0 && self.first_token.insert(id) {
                out.push(DeploymentEvent::FirstToken { id, at_ms });
            }
        }
        let finished = core.finished_records();
        for record in &finished[*finished_seen..] {
            let id = record.id;
            if self.admitted.insert(id) {
                out.push(DeploymentEvent::Admitted { id, replica, at_ms });
            }
            if self.first_token.insert(id) {
                out.push(DeploymentEvent::FirstToken { id, at_ms });
            }
            // Completed: forget the id so the sets stay bounded.
            self.admitted.remove(&id);
            self.first_token.remove(&id);
            out.push(DeploymentEvent::Finished {
                record: record.clone(),
            });
        }
        *finished_seen = finished.len();
    }
}

/// One replica's share of a run — the per-unit slice of a [`RunReport`].
#[derive(Debug, Clone)]
pub struct UnitStats {
    /// Which replica this is.
    pub replica: ReplicaAddr,
    /// Requests routed (or migrations landed) here.
    pub routed: u64,
    /// The replica's own run result. Prefill-pool units carry no records
    /// (their requests complete on the decode pool).
    pub result: RunResult,
    /// Requests whose prefill completed here (prefill-pool units).
    pub prefilled_requests: u64,
    /// Prompt tokens prefilled here (prefill-pool units).
    pub prefill_tokens: u64,
}

impl UnitStats {
    /// Display label, e.g. `"replica-0 (AdaServe)"` or `"prefill-1"`.
    pub fn label(&self) -> String {
        match self.replica.pool {
            Pool::Decode => format!("replica-{} ({})", self.replica.index, self.result.engine),
            Pool::Prefill => format!("prefill-{}", self.replica.index),
        }
    }
}

/// Outcome of one [`ServeSession`] run, regardless of deployment shape.
///
/// The merged record stream, per-replica/pool [`UnitStats`], any
/// front-door rejections, and accessors for the standard reports.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Deployment label ([`Deployment::name`]).
    pub deployment: String,
    /// All completion records — a single engine's stream, or the
    /// completion-time merge across serving replicas.
    pub records: Vec<RequestRecord>,
    /// Per-replica stats, prefill units first, then serving units, each
    /// in replica order.
    pub units: Vec<UnitStats>,
    /// Requests refused at the front door, in refusal order.
    pub rejected: Vec<(u64, RejectReason)>,
    /// Global simulation end time (latest replica clock).
    pub end_ms: f64,
    /// Iterations executed across the deployment.
    pub iterations: u64,
    /// Trace events the session tracer's ring evicted for capacity
    /// (0 when tracing is off or the ring never filled). Non-zero means
    /// the trace is a suffix, not the whole run.
    pub trace_dropped: u64,
    /// Retries the session's [`RecoveryPolicy`] scheduled for requests
    /// lost to injected faults (0 on fault-free runs).
    pub retries_scheduled: u64,
}

impl RunReport {
    /// The paper-style SLO report over the merged records, including
    /// prefix-cache effectiveness merged across every unit.
    pub fn report(&self) -> SloReport {
        SloReport::from_records(&self.records).with_prefix_stats(&self.merged_hotloop())
    }

    /// Hot-loop counters merged across every unit (serving and prefill).
    pub fn merged_hotloop(&self) -> metrics::HotLoopStats {
        let mut merged = metrics::HotLoopStats::default();
        for u in &self.units {
            merged.merge(&u.result.hotloop);
        }
        merged
    }

    /// Per-serving-replica + merged reports.
    pub fn cluster_report(&self) -> ClusterReport {
        ClusterReport::from_streams(
            self.serving_units()
                .map(|u| (u.label(), u.result.records.clone()))
                .collect(),
        )
    }

    /// The serving (decode-pool) units, in replica order.
    pub fn serving_units(&self) -> impl Iterator<Item = &UnitStats> {
        self.units.iter().filter(|u| u.replica.pool == Pool::Decode)
    }

    /// The prefill-pool units, in replica order (empty unless
    /// disaggregated).
    pub fn prefill_units(&self) -> impl Iterator<Item = &UnitStats> {
        self.units
            .iter()
            .filter(|u| u.replica.pool == Pool::Prefill)
    }

    /// Mean accepted speculated tokens per verification across the run.
    pub fn mean_accepted_per_verify(&self) -> f64 {
        let verifies: u64 = self.records.iter().map(|r| r.verify_steps).sum();
        let accepted: u64 = self.records.iter().map(|r| r.accepted_tokens).sum();
        if verifies == 0 {
            0.0
        } else {
            accepted as f64 / verifies as f64
        }
    }

    /// Unwraps a single-engine run into its engine's [`RunResult`].
    ///
    /// # Panics
    ///
    /// Panics unless the report has exactly one serving unit (a colocated
    /// deployment).
    pub fn into_colocated_result(mut self) -> RunResult {
        let serving: Vec<usize> = self
            .units
            .iter()
            .enumerate()
            .filter(|(_, u)| u.replica.pool == Pool::Decode)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(
            serving.len(),
            1,
            "into_colocated_result needs exactly one serving unit, got {}",
            serving.len()
        );
        self.units.swap_remove(serving[0]).result
    }
}

/// Follow-up actions a client hook may take while a session runs: submit
/// more requests (closed-loop traffic) or scale the topology.
#[derive(Debug)]
pub struct SessionHandle {
    now_ms: f64,
    submissions: Vec<RequestSpec>,
    scales: Vec<ScalePlan>,
}

impl SessionHandle {
    /// The session's current simulation time.
    pub fn now_ms(&self) -> f64 {
        self.now_ms
    }

    /// Queues a request; arrivals in the past are clamped to now.
    pub fn submit(&mut self, spec: RequestSpec) {
        self.submissions.push(spec);
    }

    /// Schedules a drain/join (applied immediately when `at_ms` is not in
    /// the future).
    pub fn scale_at(&mut self, at_ms: f64, replica: ReplicaAddr, action: ScalingAction) {
        self.scales.push(ScalePlan {
            at_ms,
            replica,
            action,
        });
    }
}

/// The one event loop every deployment shape runs under.
///
/// Owns the global clock, the run caps, a progress [`StallGuard`], the
/// pending-arrival queue and the scaling timeline. Drive it open-loop
/// with [`ServeSession::serve`] (a [`Workload`]'s arrivals at their
/// timestamps) or online with [`ServeSession::serve_online`] (a client
/// hook that observes [`DeploymentEvent`]s and may submit follow-up
/// requests or scaling mid-run).
#[derive(Debug)]
pub struct ServeSession<D: Deployment> {
    deployment: D,
    options: RunOptions,
    admission_control: bool,
    now_ms: f64,
    pending: VecDeque<RequestSpec>,
    scaling: VecDeque<ScalePlan>,
    rejected: Vec<(u64, RejectReason)>,
    /// Per-replica progress guards, keyed by [`DeploymentStep::replica`];
    /// the keyless guard backs up steps that report no replica. These are
    /// a backstop for [`Deployment`] implementations without their own
    /// guards — the built-in deployments feed identical per-replica
    /// guards internally and error first, with the same thresholds.
    guards: HashMap<ReplicaAddr, StallGuard>,
    guard: StallGuard,
    /// Whether the event loop may hand the deployment a batching horizon
    /// ([`Deployment::step_until`]). Only open-loop runs ([`ServeSession::serve`])
    /// do: a closed-loop client ([`ServeSession::serve_online`]) reacts to
    /// lifecycle events as they happen, so its deployment must step one
    /// event at a time to surface them timely.
    batch_stepping: bool,
    /// End-to-end tracing handle (off by default). The session records
    /// the front-door events (enqueue, admission, rejection, finish,
    /// gauge ticks); the deployment and its replicas share the same
    /// handle for routing/iteration/transfer events.
    tracer: Tracer,
    /// Gauge sampling period in simulation milliseconds.
    gauge_tick_ms: f64,
    /// Next due gauge sample.
    next_gauge_ms: f64,
    /// Whether gauge samples are also dispatched to the client as
    /// [`DeploymentEvent::GaugeTick`]s (off by default; enables
    /// closed-loop controllers without requiring tracing).
    gauge_events: bool,
    /// Prefix-cache hit lengths computed at arrival, keyed by request id,
    /// so the traced admission event can carry them.
    cached_at_arrival: HashMap<u64, u32>,
    /// The fault timeline: injections and their scheduled recoveries,
    /// sorted by time (like `scaling`). Empty unless
    /// [`ServeSession::with_fault_plan`] was called, so fault-free runs
    /// take the exact fault-free path.
    faults: VecDeque<FaultAction>,
    /// What happens to requests lost to faults.
    recovery: RecoveryPolicy,
    /// Retry state per request that was ever lost to a fault, keyed by
    /// id. Entries persist after the request's terminal outcome so
    /// [`ServeSession::finish`] can restore original arrival times on
    /// retried records (TTFT is measured from the *first* arrival).
    retrying: HashMap<u64, RetryState>,
    /// Requests currently recovering (lost and not yet finished or
    /// rejected) — the pressure signal for graceful degradation.
    active_retries: HashSet<u64>,
    /// Retries scheduled so far (surfaced on [`RunReport`]).
    retries_scheduled: u64,
    /// Whether the deployment is currently in degraded (shed
    /// speculation) mode.
    degraded: bool,
}

/// One entry of the session's fault timeline.
#[derive(Debug, Clone)]
struct FaultAction {
    at_ms: f64,
    op: FaultOp,
}

#[derive(Debug, Clone)]
enum FaultOp {
    Inject(FaultKind),
    Clear(FaultKind),
}

/// Retry accounting for one request that was lost to a fault.
#[derive(Debug, Clone, Copy)]
struct RetryState {
    /// The request's original (first) arrival time.
    first_arrival_ms: f64,
    /// Retries scheduled so far.
    attempts: u32,
}

impl<D: Deployment> ServeSession<D> {
    /// A session over `deployment` with default run caps.
    pub fn new(deployment: D) -> Self {
        Self::with_options(deployment, RunOptions::default())
    }

    /// A session over `deployment` with explicit run caps.
    pub fn with_options(deployment: D, options: RunOptions) -> Self {
        Self {
            deployment,
            options,
            admission_control: true,
            now_ms: 0.0,
            pending: VecDeque::new(),
            scaling: VecDeque::new(),
            rejected: Vec::new(),
            guards: HashMap::new(),
            guard: StallGuard::default(),
            batch_stepping: false,
            tracer: Tracer::off(),
            gauge_tick_ms: 1_000.0,
            next_gauge_ms: 0.0,
            gauge_events: false,
            cached_at_arrival: HashMap::new(),
            faults: VecDeque::new(),
            recovery: RecoveryPolicy::default(),
            retrying: HashMap::new(),
            active_retries: HashSet::new(),
            retries_scheduled: 0,
            degraded: false,
        }
    }

    /// Installs a chaos schedule: each fault is injected at its planned
    /// instant and automatically cleared `duration_ms` later, so the
    /// event loop can never wedge on a down replica. An empty plan
    /// changes nothing — serving stays bit-identical to a session
    /// without one.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        for event in plan.events() {
            self.push_fault(event.at_ms, FaultOp::Inject(event.kind.clone()));
            self.push_fault(
                event.at_ms + event.kind.duration_ms(),
                FaultOp::Clear(event.kind.clone()),
            );
        }
        self
    }

    /// Sets how requests lost to faults are retried and when sustained
    /// pressure triggers graceful degradation (defaults to
    /// [`RecoveryPolicy::default`]; [`RecoveryPolicy::no_retry`] is the
    /// recovery-less baseline).
    #[must_use]
    pub fn with_recovery_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    fn push_fault(&mut self, at_ms: f64, op: FaultOp) {
        let idx = self.faults.partition_point(|f| f.at_ms <= at_ms);
        self.faults.insert(idx, FaultAction { at_ms, op });
    }

    /// Enables end-to-end tracing: the handle is cloned into the
    /// deployment (and from there its replicas), so one shared ring
    /// buffer receives the whole run's events. Pass
    /// [`Tracer::on`]/[`Tracer::ring`] to enable; the default
    /// [`Tracer::off`] keeps every call site at one branch. Tracing
    /// never affects scheduling decisions, so records stay bit-identical
    /// to an untraced run.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.deployment.set_tracer(tracer.clone());
        self.tracer = tracer;
        self
    }

    /// Sets the gauge sampling period in simulation milliseconds
    /// (default 1000 ms; sampled while tracing or
    /// [`ServeSession::with_gauge_events`] is enabled).
    #[must_use]
    pub fn with_gauge_tick_ms(mut self, tick_ms: f64) -> Self {
        self.gauge_tick_ms = tick_ms.max(1e-3);
        self
    }

    /// Surfaces every gauge sample to the client as a
    /// [`DeploymentEvent::GaugeTick`] (off by default). This is the
    /// signal feed for closed-loop controllers — e.g. an autoscaler
    /// reacting to queue depth and KV occupancy — and works with or
    /// without tracing. Sampling never affects scheduling, so records
    /// stay identical to a run without gauge events.
    #[must_use]
    pub fn with_gauge_events(mut self) -> Self {
        self.gauge_events = true;
        self
    }

    /// The session's tracing handle (disabled unless
    /// [`ServeSession::with_tracer`] was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Enables/disables front-door admission control (rejecting prompts
    /// that can never fit any replica's KV pool). On by default; with it
    /// off, such a prompt surfaces as a [`RunError`] instead.
    #[must_use]
    pub fn admission_control(mut self, enabled: bool) -> Self {
        self.admission_control = enabled;
        self
    }

    /// Selects how the deployment executes batched replica stepping (see
    /// [`crate::exec::ExecMode`]); defaults to auto-sharded. Output is
    /// record-identical across modes.
    #[must_use]
    pub fn with_exec_mode(mut self, exec: crate::exec::ExecMode) -> Self {
        self.options.exec = exec;
        self
    }

    /// Read-only access to the deployment.
    pub fn deployment(&self) -> &D {
        &self.deployment
    }

    /// Recovers the deployment (e.g. for topology-specific telemetry
    /// after the run).
    pub fn into_inner(self) -> D {
        self.deployment
    }

    /// The session's current simulation time.
    pub fn now_ms(&self) -> f64 {
        self.now_ms
    }

    /// Queues a request for submission at its arrival time. Arrivals in
    /// the session's past are clamped to now.
    pub fn submit(&mut self, mut spec: RequestSpec) {
        if spec.arrival_ms < self.now_ms {
            spec.arrival_ms = self.now_ms;
        }
        let at = spec.arrival_ms;
        let idx = self.pending.partition_point(|s| s.arrival_ms <= at);
        self.pending.insert(idx, spec);
    }

    /// Queues every request of `workload` at its arrival time.
    pub fn enqueue(&mut self, workload: &Workload) {
        for spec in &workload.requests {
            self.submit(spec.clone());
        }
    }

    /// Schedules a drain/join of one replica at `at_ms`.
    pub fn scale_at(&mut self, at_ms: f64, replica: ReplicaAddr, action: ScalingAction) {
        let idx = self.scaling.partition_point(|p| p.at_ms <= at_ms);
        self.scaling.insert(
            idx,
            ScalePlan {
                at_ms,
                replica,
                action,
            },
        );
    }

    /// Serves `workload` to completion (open loop): every arrival is
    /// queued at its timestamp, then the event loop runs dry.
    ///
    /// With no client reacting to events mid-run, the deployment may
    /// batch (and parallelize) its internal stepping between arrivals
    /// via [`Deployment::step_until`] — output is identical, only event
    /// delivery is deferred to the batch boundaries nobody observes.
    pub fn serve(&mut self, workload: &Workload) -> Result<RunReport, RunError> {
        self.enqueue(workload);
        self.batch_stepping = true;
        let result = self.serve_loop(&mut |_, _| {});
        self.batch_stepping = false;
        result
    }

    /// Runs the event loop to completion, surfacing every
    /// [`DeploymentEvent`] to `client`, which may submit follow-up
    /// requests or scaling through the [`SessionHandle`] — closed-loop
    /// and interactive traffic the batch `run(&workload)` signature
    /// cannot express. Returns once no arrivals, scaling or work remain.
    pub fn serve_online<F>(&mut self, mut client: F) -> Result<RunReport, RunError>
    where
        F: FnMut(&DeploymentEvent, &mut SessionHandle),
    {
        // A closed-loop client must observe events at the deployment's
        // native step granularity (its submissions and scaling react to
        // them), so batch stepping stays off here.
        self.serve_loop(&mut client)
    }

    fn serve_loop<F>(&mut self, client: &mut F) -> Result<RunReport, RunError>
    where
        F: FnMut(&DeploymentEvent, &mut SessionHandle),
    {
        loop {
            let t_arr = self.pending.front().map_or(f64::INFINITY, |s| s.arrival_ms);
            let t_scale = self.scaling.front().map_or(f64::INFINITY, |p| p.at_ms);
            let t_fault = self.faults.front().map_or(f64::INFINITY, |f| f.at_ms);
            let t_dep = self.deployment.next_event_ms().unwrap_or(f64::INFINITY);
            let t = t_scale.min(t_fault).min(t_arr).min(t_dep);
            if t.is_infinite() {
                break; // No arrivals, no scaling, no faults, no work anywhere.
            }
            self.now_ms = self.now_ms.max(t);

            if self.tracer.enabled() || self.gauge_events {
                while self.next_gauge_ms <= self.now_ms {
                    let sample = self.deployment.gauges();
                    if self.tracer.enabled() {
                        self.tracer
                            .record(self.next_gauge_ms, EventKind::Gauge(sample));
                    }
                    let at_ms = self.next_gauge_ms;
                    self.next_gauge_ms += self.gauge_tick_ms;
                    if self.gauge_events {
                        let event = DeploymentEvent::GaugeTick { at_ms, sample };
                        self.dispatch(&event, client);
                    }
                }
            }

            // Equal-timestamp order: scaling first (arrivals at the same
            // instant see the new topology), then faults, then arrivals,
            // then the deployment's internal machinery.
            if t_scale <= t {
                let plan = self.scaling.pop_front().expect("t_scale was finite");
                self.deployment.set_accepting(
                    plan.replica,
                    matches!(plan.action, ScalingAction::Join),
                    plan.at_ms,
                );
                continue;
            }

            if t_fault <= t {
                let action = self.faults.pop_front().expect("t_fault was finite");
                self.apply_fault_action(action, client);
                continue;
            }

            if t_arr <= t {
                let spec = self.pending.pop_front().expect("t_arr was finite");
                if self.tracer.enabled() {
                    self.tracer.record(
                        self.now_ms,
                        EventKind::Enqueue {
                            id: spec.id,
                            prompt_tokens: spec.prompt_len,
                            output_tokens: spec.output_len,
                        },
                    );
                    // The admission event carries the prefix-cache hit
                    // length; compute it now (cache state at arrival),
                    // independent of whether admission control also does.
                    let cached = self.deployment.cached_prefix_tokens(&spec);
                    self.cached_at_arrival.insert(spec.id, cached);
                }
                // Graceful degradation, stage two: under sustained
                // recovery pressure the loosest SLO tier is refused at
                // admission so the tighter tiers keep their attainment.
                if self.active_retries.len() >= self.recovery.shed_tier_pressure
                    && spec.category == Category::Summarization
                {
                    let reason = RejectReason::DegradedShed {
                        pressure: self.active_retries.len(),
                    };
                    let event = DeploymentEvent::Rejected {
                        id: spec.id,
                        reason,
                        at_ms: self.now_ms,
                    };
                    self.dispatch(&event, client);
                    continue;
                }
                if self.admission_control {
                    let capacity = self.deployment.kv_capacity_tokens();
                    let cached = self.deployment.cached_prefix_tokens(&spec);
                    if u64::from(spec.prompt_len.saturating_sub(cached)) + 1 > capacity {
                        let reason = RejectReason::PromptExceedsKv {
                            prompt_tokens: spec.prompt_len,
                            capacity_tokens: capacity,
                        };
                        let event = DeploymentEvent::Rejected {
                            id: spec.id,
                            reason,
                            at_ms: self.now_ms,
                        };
                        self.dispatch(&event, client);
                        continue;
                    }
                }
                let arrival_ms = spec.arrival_ms;
                self.deployment.submit(spec, arrival_ms);
                continue;
            }

            // Everything strictly before the next arrival/scaling event is
            // internal to the deployment. Open-loop runs hand it the
            // horizon so multi-replica shapes can batch (and parallelize)
            // their independent replicas up to it; closed-loop runs step
            // one event at a time so the client observes events timely.
            let step = if self.batch_stepping {
                // The batching horizon must stop at the next fault too:
                // a crash at t must observe exactly the pre-t state,
                // whatever the exec mode.
                self.deployment
                    .step_until(t_arr.min(t_scale).min(t_fault), &self.options)?
            } else {
                self.deployment.step(&self.options)?
            };
            if let Some(latency_ms) = step.latency_ms {
                let guard = match step.replica {
                    Some(addr) => self.guards.entry(addr).or_default(),
                    None => &mut self.guard,
                };
                guard.observe(latency_ms).map_err(|e| match step.replica {
                    Some(addr) => e.at(addr.pool, addr.index),
                    None => e,
                })?;
            }
            for event in &step.events {
                self.dispatch(event, client);
            }
        }
        self.finish()
    }

    /// Applies one fault-timeline entry: inject (collect the lost
    /// requests and route them through recovery) or clear (the
    /// deployment heals itself).
    fn apply_fault_action<F>(&mut self, action: FaultAction, client: &mut F)
    where
        F: FnMut(&DeploymentEvent, &mut SessionHandle),
    {
        match action.op {
            FaultOp::Inject(kind) => {
                let lost = self.deployment.inject_fault(&kind, self.now_ms);
                if self.tracer.enabled() {
                    let event = match kind.replica() {
                        Some(addr) if matches!(kind, FaultKind::ReplicaCrash { .. }) => {
                            EventKind::ReplicaDown {
                                replica: crate::probe::trace_replica(addr),
                                fault: kind.describe(),
                                lost_requests: lost.len(),
                            }
                        }
                        _ => EventKind::FaultInjected {
                            target: kind.target_label(),
                            fault: kind.describe(),
                            lost_requests: lost.len(),
                        },
                    };
                    self.tracer.record(self.now_ms, event);
                }
                for spec in lost {
                    self.handle_lost(spec, client);
                }
                self.update_degradation();
            }
            FaultOp::Clear(kind) => {
                self.deployment.clear_fault(&kind, self.now_ms);
                if self.tracer.enabled() {
                    let event = match kind.replica() {
                        Some(addr) if matches!(kind, FaultKind::ReplicaCrash { .. }) => {
                            EventKind::ReplicaRecovered {
                                replica: crate::probe::trace_replica(addr),
                            }
                        }
                        _ => EventKind::FaultCleared {
                            target: kind.target_label(),
                        },
                    };
                    self.tracer.record(self.now_ms, event);
                }
            }
        }
    }

    /// Routes one request lost to a fault through the recovery policy:
    /// re-dispatch with exponential backoff while the retry budget
    /// lasts, terminal rejection once it is exhausted. Requests are
    /// retried with their original spec — `next_token` is a pure
    /// function of the stream, so a re-served request regenerates the
    /// identical output (and the prefix cache makes its re-prefill
    /// cheap).
    fn handle_lost<F>(&mut self, mut spec: RequestSpec, client: &mut F)
    where
        F: FnMut(&DeploymentEvent, &mut SessionHandle),
    {
        let budget = self.recovery.retry_budget;
        let state = self.retrying.entry(spec.id).or_insert(RetryState {
            first_arrival_ms: spec.arrival_ms,
            attempts: 0,
        });
        if state.attempts >= budget {
            let retries = state.attempts;
            let event = DeploymentEvent::Rejected {
                id: spec.id,
                reason: RejectReason::RetryBudgetExhausted { retries },
                at_ms: self.now_ms,
            };
            self.dispatch(&event, client);
            return;
        }
        state.attempts += 1;
        let attempt = state.attempts;
        let resubmit_at_ms = self.now_ms + self.recovery.backoff_ms(attempt);
        spec.arrival_ms = resubmit_at_ms;
        self.retries_scheduled += 1;
        self.active_retries.insert(spec.id);
        if self.tracer.enabled() {
            self.tracer.record(
                self.now_ms,
                EventKind::RetryScheduled {
                    id: spec.id,
                    attempt,
                    resubmit_at_ms,
                },
            );
        }
        self.submit(spec);
    }

    /// Recomputes the graceful-degradation state from recovery pressure
    /// and informs the deployment on transitions (stage one: shed
    /// speculation depth).
    fn update_degradation(&mut self) {
        let pressure = self.active_retries.len();
        let degraded = pressure > 0 && pressure >= self.recovery.shed_speculation_pressure;
        if degraded != self.degraded {
            self.degraded = degraded;
            self.deployment.set_degraded(degraded);
        }
    }

    /// Surfaces one event to the client and absorbs its follow-ups.
    fn dispatch<F>(&mut self, event: &DeploymentEvent, client: &mut F)
    where
        F: FnMut(&DeploymentEvent, &mut SessionHandle),
    {
        // Rejections are accounted here — whether issued by the session's
        // own admission check or surfaced from a front-door deployment
        // wrapper's step (e.g. a tenant-quota refusal) — so RunReport
        // conservation (records + rejected = offered) holds for both.
        if let DeploymentEvent::Rejected { id, reason, .. } = event {
            self.rejected.push((*id, *reason));
            if self.active_retries.remove(id) {
                self.update_degradation();
            }
        }
        if let DeploymentEvent::Finished { record } = event {
            if self.active_retries.remove(&record.id) {
                self.update_degradation();
            }
        }
        if self.tracer.enabled() {
            self.trace_event(event);
        }
        let mut handle = SessionHandle {
            now_ms: self.now_ms,
            submissions: Vec::new(),
            scales: Vec::new(),
        };
        client(event, &mut handle);
        for spec in handle.submissions {
            self.submit(spec);
        }
        for plan in handle.scales {
            if plan.at_ms <= self.now_ms {
                self.deployment.set_accepting(
                    plan.replica,
                    matches!(plan.action, ScalingAction::Join),
                    self.now_ms,
                );
            } else {
                self.scale_at(plan.at_ms, plan.replica, plan.action);
            }
        }
    }

    /// Translates one deployment lifecycle event into its trace
    /// counterpart (only called while tracing).
    fn trace_event(&mut self, event: &DeploymentEvent) {
        match event {
            DeploymentEvent::Admitted { id, replica, at_ms } => {
                let cached = self.cached_at_arrival.remove(id).unwrap_or(0);
                self.tracer.record(
                    *at_ms,
                    EventKind::Admitted {
                        id: *id,
                        replica: crate::probe::trace_replica(*replica),
                        cached_prefix_tokens: cached,
                    },
                );
            }
            DeploymentEvent::Rejected { id, reason, at_ms } => {
                self.cached_at_arrival.remove(id);
                self.tracer.record(
                    *at_ms,
                    EventKind::Rejected {
                        id: *id,
                        reason: reason.to_string(),
                    },
                );
            }
            DeploymentEvent::Finished { record } => {
                self.tracer.record(
                    record.completion_ms,
                    EventKind::Finished {
                        id: record.id,
                        tier: record.category.label().to_string(),
                        arrival_ms: record.arrival_ms,
                        decode_start_ms: record.decode_start_ms,
                        completion_ms: record.completion_ms,
                        output_tokens: record.output_tokens,
                        preemptions: record.preemptions,
                        ttft_slo_ms: record.ttft_slo_ms,
                        tpot_slo_ms: record.tpot_slo_ms,
                    },
                );
            }
            // Gauge ticks are recorded to the tracer at sampling time in
            // the serve loop, not here, so a traced run never
            // double-records them.
            DeploymentEvent::FirstToken { .. } | DeploymentEvent::GaugeTick { .. } => {}
        }
    }

    /// Finalizes the deployment into a [`RunReport`].
    fn finish(&mut self) -> Result<RunReport, RunError> {
        let end_ms = self.deployment.clock_ms();
        let iterations = self.deployment.iterations();
        let deployment = self.deployment.name();
        let units = self.deployment.drain()?;
        let mut streams: Vec<Vec<RequestRecord>> = units
            .iter()
            .filter(|u| u.replica.pool == Pool::Decode)
            .map(|u| u.result.records.clone())
            .collect();
        // A single engine's stream is already in its native completion
        // order; only multi-replica runs need the k-way merge.
        let mut records = if streams.len() == 1 {
            streams.pop().expect("one stream")
        } else {
            merge_by_completion(streams)
        };
        // A retried request was re-submitted with a backoff-shifted
        // arrival; its record must charge the whole recovery (backoff,
        // re-queueing, re-prefill) against the original arrival so TTFT
        // and attainment stay honest.
        if !self.retrying.is_empty() {
            for record in &mut records {
                if let Some(state) = self.retrying.get(&record.id) {
                    record.arrival_ms = state.first_arrival_ms;
                }
            }
        }
        Ok(RunReport {
            deployment,
            records,
            units,
            rejected: std::mem::take(&mut self.rejected),
            end_ms,
            iterations,
            trace_dropped: self.tracer.dropped(),
            retries_scheduled: self.retries_scheduled,
        })
    }
}
