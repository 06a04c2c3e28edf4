//! One cluster member: a serving engine plus its routing-visible state.

use metrics::telemetry::Tracer;
use serving::{
    finalize_run, trace_replica, DeploymentEvent, LifecycleTracker, LiveRequest, Pool, ProbeState,
    ReplicaAddr, RunError, RunOptions, RunResult, ServingEngine, StallGuard, StepProbe,
};
use std::collections::VecDeque;

/// Fraction of a baseline decode step attributed to one *prefill* token in
/// the load model (prefill processes hundreds of tokens per forward pass,
/// so a queued prompt token is far cheaper than a queued output token).
const PREFILL_TOKEN_COST: f64 = 1.0 / 256.0;

/// Effective decode batch width used to amortize queued output tokens in
/// the drain-time estimate: a replica emits one token per running request
/// per iteration, up to roughly this much useful parallelism.
const EFFECTIVE_DECODE_WIDTH: f64 = 8.0;

/// Work committed to a replica but not yet in its engine's queues — KV
/// migrations in flight (or parked on a full pool) in a disaggregated
/// deployment. Folded into the load views routers consume so consecutive
/// routing decisions see each other; colocated drivers leave it zeroed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InboundWork {
    /// Requests bound here that the engine cannot see yet.
    pub requests: usize,
    /// Output tokens those requests will decode on arrival.
    pub decode_tokens: u64,
    /// The TPOT SLOs those requests carry, so
    /// [`Replica::tight_outstanding`] — and through it the SLO-aware
    /// packing policy — sees a tight burst before it lands.
    pub tpot_slos: Vec<f64>,
}

impl InboundWork {
    /// Counts `req` as bound here from the moment it is routed.
    pub fn add(&mut self, req: &LiveRequest) {
        self.requests += 1;
        self.decode_tokens += u64::from(req.remaining());
        self.tpot_slos.push(req.spec.tpot_slo_ms);
    }

    /// Removes one unit of inbound work — `decode_tokens` output tokens
    /// at TPOT SLO `tpot_slo_ms` — once it landed in the engine's queues
    /// or was lost on the way.
    pub fn remove(&mut self, decode_tokens: u64, tpot_slo_ms: f64) {
        self.requests = self.requests.saturating_sub(1);
        self.decode_tokens = self.decode_tokens.saturating_sub(decode_tokens);
        if let Some(k) = self.tpot_slos.iter().position(|&s| s == tpot_slo_ms) {
            self.tpot_slos.swap_remove(k);
        }
    }
}

/// A replica of the cluster: one serving engine advancing on its own local
/// clock under the cluster driver's global ordering.
///
/// Routers observe replicas read-only through the load/queue accessors
/// here; only the driver mutates them.
pub struct Replica {
    /// Stable replica index within the cluster.
    pub id: usize,
    /// The engine this replica runs (any [`ServingEngine`] — AdaServe or a
    /// baseline — possibly on a different GPU profile than its peers).
    pub engine: Box<dyn ServingEngine>,
    /// Local clock: the simulation time at which the replica's last
    /// iteration ended (equivalently, when its next iteration may start).
    pub clock_ms: f64,
    /// Whether the router may place new requests here. Toggled by
    /// drain/join scaling events; a draining replica still serves its
    /// queued work to completion.
    pub accepting: bool,
    /// Whether the replica is crashed (fault injection). A down replica
    /// holds no requests — the crash evicted them — and is excluded from
    /// stepping and routing until [`Replica::recover`].
    pub down: bool,
    /// Iteration-latency multiplier for an injected transient slowdown
    /// (1.0 when healthy — an exact IEEE identity, so fault-free runs
    /// stay bit-identical).
    pub latency_factor: f64,
    /// Requests routed to this replica so far.
    pub routed: u64,
    /// Routed-but-not-yet-queued work (in-flight KV migrations).
    pub inbound: InboundWork,
    /// Migrations that arrived while the engine's KV pool was full,
    /// admitted in arrival order as blocks free up.
    landing: VecDeque<LiveRequest>,
    /// Whether KV migrations land here (the decode pool of a
    /// disaggregated deployment). Such a replica stamps the decode start
    /// of migrated requests itself; colocated replicas leave stamping to
    /// their engine.
    receives_migrations: bool,
    pub(crate) guard: StallGuard,
    /// Per-replica lifecycle announcements. Requests live on exactly one
    /// replica (migrations transfer their state via
    /// [`Replica::mark_admitted`]), so per-replica trackers are
    /// equivalent to a shared one — and they let independent replicas
    /// step on parallel worker threads.
    tracker: LifecycleTracker,
    /// High-water mark of announced finished records on this core.
    finished_seen: usize,
    /// Trace sink (shared fleet-wide); off by default.
    pub(crate) tracer: Tracer,
    /// Lifecycle memory for the iteration probe (populated only while
    /// tracing).
    probe_state: ProbeState,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id)
            .field("engine", &self.engine.name())
            .field("clock_ms", &self.clock_ms)
            .field("accepting", &self.accepting)
            .field("routed", &self.routed)
            .finish()
    }
}

impl Replica {
    /// Wraps `engine` as replica `id`, accepting traffic from time zero.
    pub fn new(id: usize, engine: Box<dyn ServingEngine>) -> Self {
        Self {
            id,
            engine,
            clock_ms: 0.0,
            accepting: true,
            down: false,
            latency_factor: 1.0,
            routed: 0,
            inbound: InboundWork::default(),
            landing: VecDeque::new(),
            receives_migrations: false,
            guard: StallGuard::default(),
            tracker: LifecycleTracker::default(),
            finished_seen: 0,
            tracer: Tracer::off(),
            probe_state: ProbeState::default(),
        }
    }

    /// Installs the fleet-shared trace sink (clones share one log).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Scans this replica's core for newly due lifecycle events
    /// (admissions, first tokens, finished records) at the replica's
    /// current clock, appending them to `out`.
    fn scan_lifecycle(&mut self, out: &mut Vec<DeploymentEvent>) {
        let at_ms = self.clock_ms;
        self.tracker.scan_core(
            self.engine.core(),
            ReplicaAddr::serving(self.id),
            at_ms,
            &mut self.finished_seen,
            out,
        );
    }

    /// Records a request as already announced-admitted elsewhere (e.g. on
    /// the prefill pool that migrated it here), so this replica's scans
    /// do not re-announce it.
    pub fn mark_admitted(&mut self, id: u64) {
        self.tracker.mark_admitted(id);
    }

    /// Drops all lifecycle memory of `id` (the request was lost to a
    /// fault before reaching this replica's queues): if the session
    /// re-dispatches it, it announces itself afresh wherever it lands.
    pub fn forget(&mut self, id: u64) {
        self.tracker.forget(id);
    }

    /// Finalizes this replica's engine run (draining its completion
    /// records into the returned [`RunResult`]) and rewinds the
    /// lifecycle high-water mark to match the now-empty record buffer,
    /// so the deployment can serve another workload without the
    /// tracker indexing past records a previous run already drained.
    pub fn finalize(&mut self) -> RunResult {
        self.finished_seen = 0;
        finalize_run(self.engine.as_mut(), self.clock_ms)
    }

    /// Hands a migrated request (prefill done, KV resident) to this
    /// replica. It joins the engine's batch at once if the KV pool can
    /// hold it, and otherwise parks behind earlier arrivals until
    /// finished requests free blocks. Returns whether it parked.
    pub fn land(&mut self, req: LiveRequest) -> bool {
        self.receives_migrations = true;
        self.landing.push_back(req);
        self.drain_landing();
        !self.landing.is_empty()
    }

    /// The request at the head of the landing queue, if a migration is
    /// parked here.
    pub(crate) fn parked_request(&self) -> Option<u64> {
        self.landing.front().map(|r| r.spec.id)
    }

    /// Admits parked migrations in arrival order while they fit. An
    /// admitted request leaves the inbound view: the engine's own queues
    /// carry it from here.
    fn drain_landing(&mut self) {
        while let Some(req) = self.landing.pop_front() {
            let (tokens, slo) = (u64::from(req.remaining()), req.spec.tpot_slo_ms);
            if let Err(req) = self.engine.core_mut().admit_migrated(req) {
                self.landing.push_front(req);
                break;
            }
            self.inbound.remove(tokens, slo);
        }
    }

    /// One checked engine iteration: step, enforce the run caps, land
    /// parked migrations, scan lifecycle events. The single body both
    /// sequential stepping and sharded batch stepping
    /// ([`Replica::run_until`]) execute, so the two modes cannot diverge.
    pub(crate) fn step_checked(
        &mut self,
        options: &RunOptions,
        events: &mut Vec<DeploymentEvent>,
    ) -> Result<f64, RunError> {
        if self.receives_migrations {
            // Migrated requests sitting in the batch are stamped at the
            // iteration's start clock: the colocated meaning of
            // `decode_start_ms`, which engines whose own stamping assumes
            // a local prefill pass cannot provide for them.
            self.engine.core_mut().stamp_decode_starts(self.clock_ms);
        }
        let latency_ms = self.step_once()?;
        if self.engine.core().iterations > options.max_iterations {
            return Err(RunError::iteration_cap().at(Pool::Decode, self.id));
        }
        if self.clock_ms > options.max_sim_ms {
            return Err(RunError::time_cap().at(Pool::Decode, self.id));
        }
        self.drain_landing();
        self.scan_lifecycle(events);
        Ok(latency_ms)
    }

    /// Steps this replica until its clock reaches `horizon_ms` or it runs
    /// out of work, appending lifecycle events (scanned at each
    /// iteration's end clock, exactly as sequential stepping would) to
    /// `events`.
    ///
    /// This is the per-replica body of sharded batch stepping: replicas
    /// do not interact between external events, so running each to the
    /// horizon on its own worker thread reproduces the sequential
    /// interleaving's per-replica state bit for bit.
    pub(crate) fn run_until(
        &mut self,
        horizon_ms: f64,
        options: &RunOptions,
        events: &mut Vec<DeploymentEvent>,
    ) -> Result<(), RunError> {
        while self.has_work() && self.clock_ms < horizon_ms {
            self.step_checked(options, events)?;
        }
        Ok(())
    }

    /// Executes one engine iteration at the replica's local clock, feeding
    /// the stall guard and advancing the clock by the iteration's latency.
    fn step_once(&mut self) -> Result<f64, RunError> {
        let probe = StepProbe::begin(&self.tracer, self.engine.core());
        let step = self.engine.step(self.clock_ms);
        // An injected slowdown stretches the modelled iteration latency.
        let latency_ms = step.latency_ms * self.latency_factor;
        self.engine.core_mut().iterations += 1;
        self.guard
            .observe(latency_ms)
            .map_err(|e| e.at(Pool::Decode, self.id))?;
        self.clock_ms += latency_ms.max(1e-6);
        if let Some(probe) = probe {
            probe.finish(
                &self.tracer,
                self.engine.core(),
                trace_replica(ReplicaAddr::serving(self.id)),
                self.clock_ms,
                latency_ms,
                &mut self.probe_state,
            );
        }
        Ok(latency_ms)
    }

    /// Accepts a routed arrival into the engine's waiting queue at
    /// `now_ms`.
    pub fn submit(&mut self, spec: workload::RequestSpec, now_ms: f64) {
        self.engine.core_mut().on_arrival(spec);
        self.clock_ms = self.clock_ms.max(now_ms);
        self.routed += 1;
    }

    /// Crash semantics for fault injection: every request this replica
    /// holds — in the engine or parked on the landing queue — loses its
    /// KV and is returned to the caller (the front door decides retry vs.
    /// reject), the replica's lifecycle memory of them is dropped (a
    /// retried request re-announces itself), and the replica is marked
    /// down until [`Replica::recover`]. Inbound work is cleared too: the
    /// caller aborts whatever was still on the wire toward it.
    pub fn crash(&mut self, now_ms: f64) -> Vec<workload::RequestSpec> {
        self.down = true;
        self.clock_ms = self.clock_ms.max(now_ms);
        let mut lost = self.engine.core_mut().evict_all_for_crash();
        lost.extend(self.landing.drain(..).map(|req| req.spec));
        for spec in &lost {
            self.tracker.forget(spec.id);
        }
        self.inbound = InboundWork::default();
        lost
    }

    /// The crashed replica rejoins service at `now_ms` with a cold KV
    /// pool and prefix cache.
    pub fn recover(&mut self, now_ms: f64) {
        self.down = false;
        self.clock_ms = self.clock_ms.max(now_ms);
    }

    /// Requests waiting for admission on this replica.
    pub fn waiting_len(&self) -> usize {
        self.engine.core().waiting.len()
    }

    /// Requests admitted and in flight on this replica.
    pub fn running_len(&self) -> usize {
        self.engine.core().running.len()
    }

    /// Outstanding requests (waiting + running + inbound).
    pub fn outstanding(&self) -> usize {
        self.waiting_len() + self.running_len() + self.inbound.requests
    }

    /// Whether the replica has queued or in-flight work.
    pub fn has_work(&self) -> bool {
        self.engine.core().has_work()
    }

    /// This replica's near-zero-load decode latency (its speed class).
    pub fn baseline_ms(&self) -> f64 {
        self.engine.core().config.baseline_ms
    }

    /// Queued work in tokens: `(prefill_tokens, decode_tokens)` summed over
    /// waiting, running and inbound requests.
    pub fn queued_tokens(&self) -> (u64, u64) {
        let core = self.engine.core();
        let mut prefill = 0u64;
        let mut decode = self.inbound.decode_tokens;
        for r in core.waiting.iter().chain(core.running.iter()) {
            prefill += u64::from(r.prefill_remaining());
            decode += u64::from(r.remaining());
        }
        (prefill, decode)
    }

    /// Modelled time to drain the current queue, in milliseconds.
    ///
    /// A hardware-normalized load heuristic, not a simulation: queued
    /// output tokens cost one baseline decode step amortized over an
    /// effective batch width, queued prompt tokens a small fraction of
    /// one. Because it scales with the replica's own `baseline_ms`, a
    /// faster GPU profile correctly reports less load for the same queue —
    /// the quantity join-shortest-queue routing compares.
    pub fn modelled_load_ms(&self) -> f64 {
        let (prefill, decode) = self.queued_tokens();
        let width = (self.running_len().max(1) as f64).min(EFFECTIVE_DECODE_WIDTH);
        self.baseline_ms() * (prefill as f64 * PREFILL_TOKEN_COST + decode as f64 / width)
    }

    /// Drain estimate as seen from global time `now_ms`: the modelled queue
    /// drain plus any head start the replica's local clock already has on
    /// the global frontier (a busy replica cannot start new work before its
    /// current iteration ends).
    pub fn drain_estimate_ms(&self, now_ms: f64) -> f64 {
        (self.clock_ms - now_ms).max(0.0) + self.modelled_load_ms()
    }

    /// The longest block-aligned prefix of `spec`'s prompt resident in
    /// this replica's engine-level [`serving::PrefixCache`], in tokens
    /// (0 without a cache). `prompt` is the pre-derived prompt stream —
    /// derive it once per arrival, probe every replica.
    pub fn cached_prefix_tokens(
        &self,
        spec: &workload::RequestSpec,
        prompt: &[simllm::TokenId],
    ) -> u32 {
        self.engine
            .core()
            .prefix
            .as_ref()
            .map_or(0, |c| c.peek(prompt, spec.prompt_len.saturating_sub(1)))
    }

    /// Outstanding requests whose TPOT SLO is at most `tight_ms`
    /// (queued, running and inbound).
    pub fn tight_outstanding(&self, tight_ms: f64) -> usize {
        let core = self.engine.core();
        core.waiting
            .iter()
            .chain(core.running.iter())
            .filter(|r| r.spec.tpot_slo_ms <= tight_ms)
            .count()
            + self
                .inbound
                .tpot_slos
                .iter()
                .filter(|&&slo| slo <= tight_ms)
                .count()
    }
}
