//! The [`ServingEngine`] trait, run caps and run errors.
//!
//! Engines advance in *iterations*: each [`ServingEngine::step`] plans one
//! device iteration (admission, prefill, speculation, verification — however
//! the engine's policy composes them), applies its results against the
//! synthetic models and returns the iteration's modelled latency. The
//! driver ([`crate::ServeSession`] over a [`crate::Deployment`]) owns the
//! simulation clock: it injects arrivals whose timestamps have passed,
//! invokes `step`, and advances time by the returned latency — exactly the
//! continuous-batching execution model (iteration-granularity scheduling,
//! §2).

use crate::core::EngineCore;
use metrics::{HotLoopStats, LatencyBreakdown, RequestRecord};

/// Result of one engine iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepResult {
    /// Modelled wall-clock duration of the iteration, in milliseconds.
    pub latency_ms: f64,
}

/// A serving engine: policy logic over an [`EngineCore`].
///
/// `Send` is a supertrait so multi-replica drivers can step boxed engines
/// on scoped worker threads (each replica stays single-threaded; only
/// ownership moves across the scope).
pub trait ServingEngine: Send {
    /// Engine name for reports (e.g. `"vLLM"`, `"AdaServe"`).
    fn name(&self) -> String;

    /// Immutable access to the shared core.
    fn core(&self) -> &EngineCore;

    /// Mutable access to the shared core.
    fn core_mut(&mut self) -> &mut EngineCore;

    /// Executes one iteration at simulation time `now_ms`.
    ///
    /// Must make forward progress whenever [`EngineCore::has_work`] holds;
    /// the returned latency advances the simulation clock.
    fn step(&mut self, now_ms: f64) -> StepResult;
}

/// Driver options.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Hard cap on simulated time (guards against runaway runs).
    pub max_sim_ms: f64,
    /// Hard cap on iterations.
    pub max_iterations: u64,
    /// How multi-replica deployments execute batched replica stepping
    /// (see [`crate::exec::ExecMode`]); set it with
    /// [`crate::ServeSession::with_exec_mode`]. Output is
    /// record-identical across modes.
    pub exec: crate::exec::ExecMode,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            max_sim_ms: 4.0 * 3600.0 * 1e3,
            max_iterations: 20_000_000,
            exec: crate::exec::ExecMode::default(),
        }
    }
}

/// The pool a replica belongs to within a deployment.
///
/// Colocated and cluster deployments run a single pool of full-lifecycle
/// replicas, addressed as [`Pool::Decode`]; disaggregated deployments add
/// a [`Pool::Prefill`] tier whose replicas never decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pool {
    /// The prefill-only pool of a disaggregated deployment.
    Prefill,
    /// The decode (serving) pool — in colocated deployments, every replica.
    Decode,
}

impl Pool {
    /// Lowercase display label (`"prefill"` / `"decode"`).
    pub fn label(self) -> &'static str {
        match self {
            Pool::Prefill => "prefill",
            Pool::Decode => "decode",
        }
    }
}

/// Where — and for which request — a run failed.
///
/// Every [`RunError`] carries one of these so a failure in a multi-replica
/// sweep is attributable without rerunning: drivers annotate errors with
/// the pool/replica that raised them (and the request id where one is
/// known) as they bubble up. Fields are `None` when the corresponding
/// dimension does not apply (e.g. a single-engine run has no pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ErrorSite {
    /// Pool the failing replica belongs to.
    pub pool: Option<Pool>,
    /// Index of the failing replica within its pool.
    pub replica: Option<usize>,
    /// Request being served or placed when the failure surfaced.
    pub request: Option<u64>,
}

impl ErrorSite {
    /// Whether no context has been attached.
    pub fn is_empty(&self) -> bool {
        self.pool.is_none() && self.replica.is_none() && self.request.is_none()
    }

    fn describe(&self) -> String {
        let mut parts = Vec::new();
        match (self.pool, self.replica) {
            (Some(pool), Some(replica)) => {
                parts.push(format!("{} replica {replica}", pool.label()))
            }
            (Some(pool), None) => parts.push(format!("{} pool", pool.label())),
            (None, Some(replica)) => parts.push(format!("replica {replica}")),
            (None, None) => {}
        }
        if let Some(id) = self.request {
            parts.push(format!("request {id}"));
        }
        parts.join(", ")
    }
}

/// The failure class of a [`RunError`], independent of where it happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunErrorKind {
    /// The engine stopped making progress.
    Stalled,
    /// The iteration cap was hit.
    IterationCap,
    /// The simulated-time cap was hit.
    TimeCap,
    /// A request can never fit a KV pool.
    KvCapacity,
}

/// Errors from a driver run, each carrying an [`ErrorSite`].
///
/// Construct with the kind constructors ([`RunError::stalled`],
/// [`RunError::iteration_cap`], …) and attach context with
/// [`RunError::at`] / [`RunError::for_request`]; compare in tests with
/// [`RunError::kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// The engine stopped making progress (zero-latency steps with work).
    Stalled(ErrorSite),
    /// The iteration cap was hit.
    IterationCap(ErrorSite),
    /// The simulated-time cap was hit.
    TimeCap(ErrorSite),
    /// A request can never fit its target's KV pool (e.g. a migrated
    /// context larger than the whole decode-side allocator).
    KvCapacity(ErrorSite),
}

impl RunError {
    /// A context-free stall error.
    pub fn stalled() -> Self {
        RunError::Stalled(ErrorSite::default())
    }

    /// A context-free iteration-cap error.
    pub fn iteration_cap() -> Self {
        RunError::IterationCap(ErrorSite::default())
    }

    /// A context-free time-cap error.
    pub fn time_cap() -> Self {
        RunError::TimeCap(ErrorSite::default())
    }

    /// A context-free KV-capacity error.
    pub fn kv_capacity() -> Self {
        RunError::KvCapacity(ErrorSite::default())
    }

    /// The failure class, ignoring the site.
    pub fn kind(&self) -> RunErrorKind {
        match self {
            RunError::Stalled(_) => RunErrorKind::Stalled,
            RunError::IterationCap(_) => RunErrorKind::IterationCap,
            RunError::TimeCap(_) => RunErrorKind::TimeCap,
            RunError::KvCapacity(_) => RunErrorKind::KvCapacity,
        }
    }

    /// The attached failure site.
    pub fn site(&self) -> ErrorSite {
        match self {
            RunError::Stalled(s)
            | RunError::IterationCap(s)
            | RunError::TimeCap(s)
            | RunError::KvCapacity(s) => *s,
        }
    }

    fn site_mut(&mut self) -> &mut ErrorSite {
        match self {
            RunError::Stalled(s)
            | RunError::IterationCap(s)
            | RunError::TimeCap(s)
            | RunError::KvCapacity(s) => s,
        }
    }

    /// Attaches the pool/replica that raised the error, keeping any
    /// already-attached (innermost, most precise) location.
    #[must_use]
    pub fn at(mut self, pool: Pool, replica: usize) -> Self {
        let site = self.site_mut();
        if site.pool.is_none() && site.replica.is_none() {
            site.pool = Some(pool);
            site.replica = Some(replica);
        }
        self
    }

    /// Attaches the request involved, keeping any already-attached id.
    #[must_use]
    pub fn for_request(mut self, id: u64) -> Self {
        let site = self.site_mut();
        if site.request.is_none() {
            site.request = Some(id);
        }
        self
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let base = match self.kind() {
            RunErrorKind::Stalled => "engine stalled (zero-latency steps with work)",
            RunErrorKind::IterationCap => "iteration cap exceeded",
            RunErrorKind::TimeCap => "simulated-time cap exceeded",
            RunErrorKind::KvCapacity => "request exceeds a replica's KV capacity",
        };
        let site = self.site();
        if site.is_empty() {
            write!(f, "{base}")
        } else {
            write!(f, "{base} ({})", site.describe())
        }
    }
}

impl std::error::Error for RunError {}

/// Detects engines that stop making progress.
///
/// Every deployment — [`crate::Colocated`] and the replicas of the
/// `cluster` crate — feeds each step latency through a guard; a long run
/// of zero-latency steps while work remains means the engine's policy is
/// stuck.
#[derive(Debug, Clone, Copy, Default)]
pub struct StallGuard {
    zero_steps: u32,
}

impl StallGuard {
    /// Consecutive zero-latency steps tolerated before declaring a stall.
    pub const MAX_ZERO_STEPS: u32 = 1000;

    /// Records one step's latency; errors once the zero-step run exceeds
    /// [`StallGuard::MAX_ZERO_STEPS`].
    pub fn observe(&mut self, latency_ms: f64) -> Result<(), RunError> {
        if latency_ms <= 0.0 {
            self.zero_steps += 1;
            if self.zero_steps > Self::MAX_ZERO_STEPS {
                return Err(RunError::stalled());
            }
        } else {
            self.zero_steps = 0;
        }
        Ok(())
    }
}

/// Packages a served-out engine's state into a [`RunResult`].
///
/// Drains the completion records, snapshots the breakdown and iteration
/// count, and computes the run-wide mean accepted-per-verify. Called by
/// every deployment for each replica when its run drains.
pub fn finalize_run(engine: &mut dyn ServingEngine, end_ms: f64) -> RunResult {
    let name = engine.name();
    let core = engine.core_mut();
    let records = core.take_finished();
    let breakdown = core.breakdown;
    let hotloop = core.hotloop;
    let iterations = core.iterations;
    let mean_accepted = {
        let verifies: u64 = records.iter().map(|r| r.verify_steps).sum();
        let accepted: u64 = records.iter().map(|r| r.accepted_tokens).sum();
        if verifies == 0 {
            0.0
        } else {
            accepted as f64 / verifies as f64
        }
    };
    RunResult {
        engine: name,
        records,
        breakdown,
        hotloop,
        end_ms,
        iterations,
        mean_accepted_per_verify: mean_accepted,
    }
}

/// Outcome of serving one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Engine name.
    pub engine: String,
    /// Completion records (every request that finished).
    pub records: Vec<RequestRecord>,
    /// Latency breakdown accumulated by the engine.
    pub breakdown: LatencyBreakdown,
    /// Hot-loop health counters (distribution-cache hit rate, scratch
    /// allocation discipline, peak decode batch).
    pub hotloop: HotLoopStats,
    /// Simulation end time.
    pub end_ms: f64,
    /// Iterations executed.
    pub iterations: u64,
    /// Mean accepted speculated tokens per verification across the whole run
    /// (0 for non-speculative engines).
    pub mean_accepted_per_verify: f64,
}

impl RunResult {
    /// Builds the paper-style SLO report for this run, including
    /// prefix-cache effectiveness from the hot-loop counters.
    pub fn report(&self) -> metrics::SloReport {
        metrics::SloReport::from_records(&self.records).with_prefix_stats(&self.hotloop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colocated::Colocated;
    use crate::config::SystemConfig;
    use crate::session::{RunReport, ServeSession};
    use workload::{Category, RequestSpec, Workload};

    /// Front-door drive of a single engine.
    fn serve(
        engine: &mut dyn ServingEngine,
        workload: &Workload,
        options: RunOptions,
    ) -> Result<RunReport, RunError> {
        ServeSession::with_options(Colocated::borrowed(engine), options).serve(workload)
    }

    /// Minimal engine: admits FIFO, prefills whole prompts, decodes one
    /// token per running request per iteration.
    struct NaiveEngine {
        core: EngineCore,
    }

    impl NaiveEngine {
        fn new() -> Self {
            Self {
                core: EngineCore::new(SystemConfig::llama70b(3)),
            }
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
                self.core.breakdown.prefill_ms += ms;
                self.core.stamp_decode_starts(now_ms + ms);
                return StepResult { latency_ms: ms };
            }
            let decoding = self.core.decoding_indices();
            if decoding.is_empty() {
                // Nothing admitted fits; wait a bit.
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
            self.core.breakdown.verification_ms += ms;
            self.core.collect_finished(now_ms + ms);
            StepResult { latency_ms: ms }
        }
    }

    fn tiny_workload(n: u64) -> Workload {
        let requests = (0..n)
            .map(|id| RequestSpec {
                id,
                category: Category::Chatbot,
                arrival_ms: id as f64 * 10.0,
                prompt_len: 12,
                output_len: 6,
                tpot_slo_ms: 50.0,
                ttft_slo_ms: 1_000.0,
                stream_seed: id ^ 0x1234,
                prefix: None,
            })
            .collect();
        Workload {
            requests,
            description: "tiny".into(),
        }
    }

    #[test]
    fn driver_serves_every_request() {
        let mut engine = NaiveEngine::new();
        let wl = tiny_workload(5);
        let result = serve(&mut engine, &wl, RunOptions::default()).expect("run succeeds");
        assert_eq!(result.records.len(), 5, "conservation");
        for r in &result.records {
            assert_eq!(r.output_tokens, 6);
            assert!(r.completion_ms > r.arrival_ms);
        }
    }

    #[test]
    fn driver_is_deterministic() {
        let wl = tiny_workload(4);
        let a = serve(&mut NaiveEngine::new(), &wl, RunOptions::default()).unwrap();
        let b = serve(&mut NaiveEngine::new(), &wl, RunOptions::default()).unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.end_ms, b.end_ms);
    }

    #[test]
    fn clock_jumps_over_idle_gaps() {
        let mut wl = tiny_workload(2);
        wl.requests[1].arrival_ms = 60_000.0;
        let result = serve(&mut NaiveEngine::new(), &wl, RunOptions::default()).unwrap();
        assert!(result.end_ms >= 60_000.0);
        assert_eq!(result.records.len(), 2);
        // Iterations stay small: no busy-waiting through the gap.
        assert!(
            result.iterations < 200,
            "iterations = {}",
            result.iterations
        );
    }

    #[test]
    fn colocated_scaling_of_an_unknown_replica_is_a_no_op() {
        let mut engine = NaiveEngine::new();
        let wl = tiny_workload(4);
        let mut session = ServeSession::new(Colocated::borrowed(&mut engine));
        session.scale_at(
            5.0,
            crate::ReplicaAddr::serving(99),
            crate::ScalingAction::Drain,
        );
        let report = session.serve(&wl).expect("run succeeds");
        assert_eq!(report.records.len(), 4);
    }

    #[test]
    fn iteration_cap_is_enforced() {
        let mut engine = NaiveEngine::new();
        let wl = tiny_workload(3);
        let err = serve(
            &mut engine,
            &wl,
            RunOptions {
                max_sim_ms: f64::MAX,
                max_iterations: 2,
                ..RunOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(err.kind(), RunErrorKind::IterationCap);
    }

    #[test]
    fn report_integrates_with_metrics() {
        let mut engine = NaiveEngine::new();
        let wl = tiny_workload(5);
        let result = serve(&mut engine, &wl, RunOptions::default()).unwrap();
        let report = result.report();
        assert_eq!(report.requests, 5);
        assert!(report.makespan_ms > 0.0);
    }
}
