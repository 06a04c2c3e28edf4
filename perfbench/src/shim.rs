//! Host-clock timing shims around the public layer boundaries.
//!
//! [`DeployShim`] wraps any [`Deployment`], [`EngineShim`] any
//! [`ServingEngine`] and [`RouterShim`] any cluster [`Router`]. Each
//! forwards every trait method unchanged (defaulted ones included, so a
//! wrapped deployment keeps its own `step_until`, prefix lookup and fault
//! handling) and records one [`Span`] per call into a shared
//! [`Recorder`]. Spans stay in memory until the run ends.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use adaserve::cluster::{Replica, Router};
use adaserve::metrics::telemetry::{GaugeSample, Tracer};
use adaserve::serving::{
    Deployment, DeploymentStep, EngineCore, FaultKind, ReplicaAddr, RunError, RunOptions,
    ServingEngine, StepResult, UnitStats,
};
use adaserve::workload::RequestSpec;

/// The layer a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// `ServeSession::serve`, the whole run.
    Session,
    /// The fair front door (`scenario::FairFrontDoor`).
    Scenario,
    /// A colocated replica or a multi-replica `Cluster`.
    Cluster,
    /// A disaggregated prefill/decode deployment.
    Disagg,
    /// One engine iteration (`ServingEngine::step`).
    Core,
    /// One routing decision (`Router::route`).
    Route,
}

impl Layer {
    pub fn label(self) -> &'static str {
        match self {
            Layer::Session => "session",
            Layer::Scenario => "scenario",
            Layer::Cluster => "cluster",
            Layer::Disagg => "disagg",
            Layer::Core => "core",
            Layer::Route => "cluster.route",
        }
    }

    /// Deployment layers, whose spans nest on the calling thread.
    pub fn is_deployment(self) -> bool {
        matches!(self, Layer::Scenario | Layer::Cluster | Layer::Disagg)
    }
}

/// Marks "no parent span".
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// The enclosing deployment span, or [`NO_PARENT`].
    pub parent: u32,
    pub layer: Layer,
    /// The trait method called.
    pub op: &'static str,
    /// Small per-process thread index (the first thread to record is 0).
    pub thread: u32,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The request the call concerns, where one is known.
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// This thread's small index, assigned on first use.
fn thread_index() -> u32 {
    THREAD.with(|t| {
        if t.get() == u32::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

#[derive(Debug)]
struct Log {
    epoch: Instant,
    next_id: AtomicU32,
    /// The innermost open deployment span; engine and router spans take
    /// it as their parent. Only the calling thread writes it, and worker
    /// threads read it while the caller is blocked inside that span.
    current: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Shared, cloneable span sink.
#[derive(Debug, Clone)]
pub struct Recorder(Arc<Log>);

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        thread_index();
        Recorder(Arc::new(Log {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            current: AtomicU32::new(NO_PARENT),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }))
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.0.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    fn push(&self, span: Span) {
        self.0.spans.lock().expect("span log poisoned").push(span);
    }

    /// Opens a span that nests on the calling thread and becomes the
    /// parent of spans opened until the guard drops.
    pub fn enter(&self, layer: Layer, op: &'static str, request: Option<u64>) -> Guard<'_> {
        let id = self.0.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.0.current.swap(id, Ordering::Relaxed);
        Guard {
            rec: self,
            id,
            parent,
            layer,
            op,
            request,
            start_ns: self.now_ns(),
        }
    }

    /// Times `f` as a leaf span under the innermost open deployment span.
    fn leaf<T>(
        &self,
        layer: Layer,
        op: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(Span {
            id: self.0.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.0.current.load(Ordering::Relaxed),
            layer,
            op,
            thread: thread_index(),
            start_ns,
            end_ns,
            request,
        });
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.0.spans.lock().expect("span log poisoned").clone()
    }
}

/// An open nested span; records itself when dropped.
#[derive(Debug)]
pub struct Guard<'a> {
    rec: &'a Recorder,
    id: u32,
    parent: u32,
    layer: Layer,
    op: &'static str,
    request: Option<u64>,
    start_ns: u64,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end_ns = self.rec.now_ns();
        self.rec.0.current.store(self.parent, Ordering::Relaxed);
        self.rec.push(Span {
            id: self.id,
            parent: self.parent,
            layer: self.layer,
            op: self.op,
            thread: thread_index(),
            start_ns: self.start_ns,
            end_ns,
            request: self.request,
        });
    }
}

/// Times every call into a wrapped deployment.
#[derive(Debug)]
pub struct DeployShim<D> {
    inner: D,
    rec: Recorder,
    layer: Layer,
}

impl<D: Deployment> DeployShim<D> {
    pub fn new(inner: D, rec: Recorder, layer: Layer) -> Self {
        assert!(layer.is_deployment(), "{layer:?} is not a deployment layer");
        Self { inner, rec, layer }
    }
}

impl<D: Deployment> Deployment for DeployShim<D> {
    fn name(&self) -> String {
        let _s = self.rec.enter(self.layer, "name", None);
        self.inner.name()
    }

    fn max_baseline_ms(&self) -> f64 {
        let _s = self.rec.enter(self.layer, "max_baseline_ms", None);
        self.inner.max_baseline_ms()
    }

    fn kv_capacity_tokens(&self) -> u64 {
        let _s = self.rec.enter(self.layer, "kv_capacity_tokens", None);
        self.inner.kv_capacity_tokens()
    }

    fn cached_prefix_tokens(&self, spec: &RequestSpec) -> u32 {
        let _s = self
            .rec
            .enter(self.layer, "cached_prefix_tokens", Some(spec.id));
        self.inner.cached_prefix_tokens(spec)
    }

    fn submit(&mut self, spec: RequestSpec, now_ms: f64) {
        let _s = self.rec.enter(self.layer, "submit", Some(spec.id));
        self.inner.submit(spec, now_ms);
    }

    fn next_event_ms(&self) -> Option<f64> {
        let _s = self.rec.enter(self.layer, "next_event_ms", None);
        self.inner.next_event_ms()
    }

    fn step(&mut self, options: &RunOptions) -> Result<DeploymentStep, RunError> {
        let _s = self.rec.enter(self.layer, "step", None);
        self.inner.step(options)
    }

    fn step_until(
        &mut self,
        horizon_ms: f64,
        options: &RunOptions,
    ) -> Result<DeploymentStep, RunError> {
        let _s = self.rec.enter(self.layer, "step_until", None);
        self.inner.step_until(horizon_ms, options)
    }

    fn set_accepting(&mut self, replica: ReplicaAddr, accepting: bool, now_ms: f64) {
        let _s = self.rec.enter(self.layer, "set_accepting", None);
        self.inner.set_accepting(replica, accepting, now_ms);
    }

    fn iterations(&self) -> u64 {
        let _s = self.rec.enter(self.layer, "iterations", None);
        self.inner.iterations()
    }

    fn clock_ms(&self) -> f64 {
        let _s = self.rec.enter(self.layer, "clock_ms", None);
        self.inner.clock_ms()
    }

    fn drain(&mut self) -> Result<Vec<UnitStats>, RunError> {
        let _s = self.rec.enter(self.layer, "drain", None);
        self.inner.drain()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        let _s = self.rec.enter(self.layer, "set_tracer", None);
        self.inner.set_tracer(tracer);
    }

    fn gauges(&self) -> GaugeSample {
        let _s = self.rec.enter(self.layer, "gauges", None);
        self.inner.gauges()
    }

    fn inject_fault(&mut self, fault: &FaultKind, now_ms: f64) -> Vec<RequestSpec> {
        let _s = self.rec.enter(self.layer, "inject_fault", None);
        self.inner.inject_fault(fault, now_ms)
    }

    fn clear_fault(&mut self, fault: &FaultKind, now_ms: f64) {
        let _s = self.rec.enter(self.layer, "clear_fault", None);
        self.inner.clear_fault(fault, now_ms);
    }

    fn set_degraded(&mut self, degraded: bool) {
        let _s = self.rec.enter(self.layer, "set_degraded", None);
        self.inner.set_degraded(degraded);
    }
}

/// Times every engine iteration.
pub struct EngineShim {
    inner: Box<dyn ServingEngine>,
    rec: Recorder,
}

impl std::fmt::Debug for EngineShim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EngineShim({})", self.inner.name())
    }
}

impl EngineShim {
    pub fn new(inner: Box<dyn ServingEngine>, rec: Recorder) -> Self {
        Self { inner, rec }
    }
}

impl ServingEngine for EngineShim {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn core(&self) -> &EngineCore {
        self.inner.core()
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        self.inner.core_mut()
    }

    fn step(&mut self, now_ms: f64) -> StepResult {
        let inner = &mut self.inner;
        self.rec
            .leaf(Layer::Core, "step", None, || inner.step(now_ms))
    }
}

/// Times every routing decision.
pub struct RouterShim {
    inner: Box<dyn Router>,
    rec: Recorder,
}

impl std::fmt::Debug for RouterShim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RouterShim({})", self.inner.name())
    }
}

impl RouterShim {
    pub fn new(inner: Box<dyn Router>, rec: Recorder) -> Self {
        Self { inner, rec }
    }
}

impl Router for RouterShim {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn route(
        &mut self,
        spec: &RequestSpec,
        now_ms: f64,
        replicas: &[Replica],
        eligible: &[usize],
    ) -> usize {
        let inner = &mut self.inner;
        self.rec.leaf(Layer::Route, "route", Some(spec.id), || {
            inner.route(spec, now_ms, replicas, eligible)
        })
    }
}
