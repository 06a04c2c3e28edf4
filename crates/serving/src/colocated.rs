//! The colocated deployment: one engine serving the full request
//! lifecycle, behind the unified [`Deployment`] front door.

use crate::engine::{finalize_run, Pool, RunError, RunOptions, ServingEngine, StallGuard};
use crate::fault::FaultKind;
use crate::probe::{core_gauges, trace_replica, ProbeState, StepProbe};
use crate::session::{Deployment, DeploymentStep, LifecycleTracker, ReplicaAddr, UnitStats};
use metrics::telemetry::{GaugeSample, Tracer};
use workload::RequestSpec;

/// How the deployment holds its engine: owned, or borrowed from a caller
/// that inspects the engine after the run.
enum EngineSlot<'a> {
    Owned(Box<dyn ServingEngine>),
    Borrowed(&'a mut dyn ServingEngine),
}

impl std::fmt::Debug for EngineSlot<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (kind, name) = match self {
            EngineSlot::Owned(e) => ("Owned", e.name()),
            EngineSlot::Borrowed(e) => ("Borrowed", e.name()),
        };
        write!(f, "EngineSlot::{kind}({name})")
    }
}

/// A single [`ServingEngine`] (AdaServe or any baseline) wrapped as a
/// [`Deployment`]: the simplest shape a [`crate::ServeSession`] drives.
#[derive(Debug)]
pub struct Colocated<'a> {
    engine: EngineSlot<'a>,
    clock_ms: f64,
    accepting: bool,
    down: bool,
    latency_factor: f64,
    routed: u64,
    guard: StallGuard,
    tracker: LifecycleTracker,
    finished_seen: usize,
    tracer: Tracer,
    probe_state: ProbeState,
}

impl<'a> Colocated<'a> {
    /// Wraps an owned engine.
    pub fn new(engine: Box<dyn ServingEngine>) -> Self {
        Self::from_slot(EngineSlot::Owned(engine))
    }

    /// Wraps a borrowed engine, so the caller can inspect it after the
    /// run.
    pub fn borrowed(engine: &'a mut dyn ServingEngine) -> Self {
        Self::from_slot(EngineSlot::Borrowed(engine))
    }

    fn from_slot(engine: EngineSlot<'a>) -> Self {
        Self {
            engine,
            clock_ms: 0.0,
            accepting: true,
            down: false,
            latency_factor: 1.0,
            routed: 0,
            guard: StallGuard::default(),
            tracker: LifecycleTracker::default(),
            finished_seen: 0,
            tracer: Tracer::off(),
            probe_state: ProbeState::default(),
        }
    }

    /// Whether a drain has been recorded against the lone replica.
    ///
    /// With a single replica there is nowhere else to route, so —
    /// matching the fleet-wide degrade-don't-drop rule — a drained
    /// colocated deployment keeps serving; the flag is observable state
    /// for callers modelling a drain window.
    pub fn accepting(&self) -> bool {
        self.accepting
    }

    /// Read-only access to the wrapped engine.
    pub fn engine(&self) -> &dyn ServingEngine {
        match &self.engine {
            EngineSlot::Owned(e) => e.as_ref(),
            EngineSlot::Borrowed(e) => &**e,
        }
    }

    fn engine_mut(&mut self) -> &mut dyn ServingEngine {
        match &mut self.engine {
            EngineSlot::Owned(e) => e.as_mut(),
            EngineSlot::Borrowed(e) => &mut **e,
        }
    }
}

impl Deployment for Colocated<'_> {
    fn name(&self) -> String {
        self.engine().name()
    }

    fn max_baseline_ms(&self) -> f64 {
        self.engine().core().config.baseline_ms
    }

    fn kv_capacity_tokens(&self) -> u64 {
        self.engine().core().kv_capacity_tokens()
    }

    fn cached_prefix_tokens(&self, spec: &RequestSpec) -> u32 {
        self.engine().core().cached_prefix_tokens(spec)
    }

    fn submit(&mut self, spec: RequestSpec, now_ms: f64) {
        self.engine_mut().core_mut().on_arrival(spec);
        self.clock_ms = self.clock_ms.max(now_ms);
        self.routed += 1;
    }

    fn next_event_ms(&self) -> Option<f64> {
        // A crashed replica is frozen: it holds no work (the crash
        // evicted everything) and steps again only after the session
        // clears the fault.
        if self.down {
            return None;
        }
        self.engine().core().has_work().then_some(self.clock_ms)
    }

    fn step(&mut self, options: &RunOptions) -> Result<DeploymentStep, RunError> {
        let now_ms = self.clock_ms;
        let probe = StepProbe::begin(&self.tracer, self.engine().core());
        let step = self.engine_mut().step(now_ms);
        // An injected slowdown multiplies the modelled iteration latency
        // (factor 1.0 — the healthy case — is an exact IEEE identity, so
        // fault-free runs stay bit-identical).
        let latency_ms = step.latency_ms * self.latency_factor;
        self.engine_mut().core_mut().iterations += 1;
        self.guard
            .observe(latency_ms)
            .map_err(|e| e.at(Pool::Decode, 0))?;
        self.clock_ms += latency_ms.max(1e-6);
        if self.engine().core().iterations > options.max_iterations {
            return Err(RunError::iteration_cap().at(Pool::Decode, 0));
        }
        if self.clock_ms > options.max_sim_ms {
            return Err(RunError::time_cap().at(Pool::Decode, 0));
        }
        let mut events = Vec::new();
        let at_ms = self.clock_ms;
        let core = match &self.engine {
            EngineSlot::Owned(e) => e.core(),
            EngineSlot::Borrowed(e) => e.core(),
        };
        if let Some(probe) = probe {
            probe.finish(
                &self.tracer,
                core,
                trace_replica(ReplicaAddr::serving(0)),
                at_ms,
                latency_ms,
                &mut self.probe_state,
            );
        }
        self.tracker.scan_core(
            core,
            ReplicaAddr::serving(0),
            at_ms,
            &mut self.finished_seen,
            &mut events,
        );
        Ok(DeploymentStep {
            events,
            latency_ms: Some(latency_ms),
            replica: Some(ReplicaAddr::serving(0)),
        })
    }

    fn inject_fault(&mut self, fault: &FaultKind, now_ms: f64) -> Vec<RequestSpec> {
        self.clock_ms = self.clock_ms.max(now_ms);
        match fault {
            FaultKind::ReplicaCrash { replica, .. } => {
                if *replica != ReplicaAddr::serving(0) {
                    return Vec::new();
                }
                self.down = true;
                let lost = self.engine_mut().core_mut().evict_all_for_crash();
                // The lost requests will re-announce their lifecycle if
                // the session re-dispatches them.
                for spec in &lost {
                    self.tracker.forget(spec.id);
                }
                lost
            }
            FaultKind::SlowReplica {
                replica, factor, ..
            } => {
                if *replica == ReplicaAddr::serving(0) {
                    self.latency_factor = *factor;
                }
                Vec::new()
            }
            // No KV interconnect to fault on a colocated engine.
            FaultKind::LinkDegrade { .. } | FaultKind::LinkOutage { .. } => Vec::new(),
        }
    }

    fn clear_fault(&mut self, fault: &FaultKind, now_ms: f64) {
        self.clock_ms = self.clock_ms.max(now_ms);
        match fault {
            FaultKind::ReplicaCrash { replica, .. } => {
                if *replica == ReplicaAddr::serving(0) {
                    self.down = false;
                }
            }
            FaultKind::SlowReplica { replica, .. } => {
                if *replica == ReplicaAddr::serving(0) {
                    self.latency_factor = 1.0;
                }
            }
            FaultKind::LinkDegrade { .. } | FaultKind::LinkOutage { .. } => {}
        }
    }

    fn set_degraded(&mut self, degraded: bool) {
        self.engine_mut().core_mut().degraded = degraded;
    }

    /// Any address but `serving(0)` names no replica: a no-op.
    fn set_accepting(&mut self, replica: ReplicaAddr, accepting: bool, now_ms: f64) {
        if replica == ReplicaAddr::serving(0) {
            self.accepting = accepting;
            self.clock_ms = self.clock_ms.max(now_ms);
        }
    }

    fn iterations(&self) -> u64 {
        self.engine().core().iterations
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn gauges(&self) -> GaugeSample {
        core_gauges(self.engine().core())
    }

    fn clock_ms(&self) -> f64 {
        self.clock_ms
    }

    fn drain(&mut self) -> Result<Vec<UnitStats>, RunError> {
        let end_ms = self.clock_ms;
        let result = finalize_run(self.engine_mut(), end_ms);
        Ok(vec![UnitStats {
            replica: ReplicaAddr::serving(0),
            routed: self.routed,
            result,
            prefilled_requests: 0,
            prefill_tokens: 0,
        }])
    }
}
