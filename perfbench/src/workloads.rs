//! The three seeded workloads and the deployments that serve them.
//!
//! Each workload is open loop in simulated time: every request carries
//! its arrival timestamp and the session injects it exactly then. The
//! generator sees only the seed; the deployment sees only the generated
//! [`Workload`].

use std::time::Instant;

use adaserve::cluster::{Cluster, Router, SloAware};
use adaserve::core::AdaServeEngine;
use adaserve::disagg::{DisaggCluster, Dispatcher, KvLink, PrefillPool};
use adaserve::metrics::telemetry::Tracer;
use adaserve::scenario::{ArrivalProcess, FairFrontDoor, Scenario, ScenarioWorkload, TenantSpec};
use adaserve::serving::{
    Colocated, Deployment, ExecMode, FaultKind, FaultPlan, RecoveryPolicy, ReplicaAddr, RunError,
    RunReport, ServeSession, ServingEngine, SystemConfig,
};
use adaserve::simllm::hash::seed_stream;
use adaserve::workload::{CategoryMix, TraceKind, Workload, WorkloadBuilder};

use crate::shim::{DeployShim, EngineShim, Layer, Recorder, RouterShim};

/// Requests in each part of a workload (p99 then has ≥ 10 beyond it).
pub const REQUESTS: usize = 1_000;

/// Replicas in the `fleet-sparse` cluster.
pub const FLEET_REPLICAS: usize = 1_024;

/// Prefix-cache budget per `tenants-disagg` replica, in tokens.
pub const PREFIX_BUDGET_TOKENS: u64 = 32_768;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One colocated AdaServe replica just below the knee of the paper's
    /// Llama-70B sweep.
    PaperMix,
    /// A 1024-replica SLO-aware cluster under light per-replica load.
    FleetSparse,
    /// Two tenants on a flash crowd through a fair front door over a
    /// faulted, prefix-cached, disaggregated 2p+2d deployment.
    TenantsDisagg,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::PaperMix, Kind::FleetSparse, Kind::TenantsDisagg];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperMix => "paper-mix",
            Kind::FleetSparse => "fleet-sparse",
            Kind::TenantsDisagg => "tenants-disagg",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Independent parts served per run. Simulated metrics pool them,
    /// because one part's TTFT tail is set by its single worst queueing
    /// burst and swings by tens of percent from seed to seed.
    pub fn parts(self) -> usize {
        match self {
            Kind::PaperMix => 6,
            Kind::FleetSparse => 3,
            Kind::TenantsDisagg => 5,
        }
    }
}

/// A generated workload plus the side data its deployment needs.
#[derive(Debug, Clone)]
pub struct Input {
    pub kind: Kind,
    pub seed: u64,
    pub workload: Workload,
    /// Tenant tables (only `tenants-disagg`).
    pub scenario: Option<ScenarioWorkload>,
    /// Fault schedule (empty except on `tenants-disagg`).
    pub faults: FaultPlan,
}

fn baseline_ms(seed: u64) -> f64 {
    SystemConfig::llama70b(seed).baseline_ms
}

/// Generates part `part` of `kind`'s workload from `seed`: every part is
/// an independent draw of the same workload, with its own sub-seed.
pub fn generate(kind: Kind, seed: u64, part: usize) -> Input {
    let seed = seed_stream(seed, part as u64);
    let (workload, scenario, faults) = match kind {
        Kind::PaperMix => (poisson(seed, PAPER_RPS), None, FaultPlan::new()),
        Kind::FleetSparse => (poisson(seed, FLEET_RPS), None, FaultPlan::new()),
        Kind::TenantsDisagg => {
            let sw = tenants_scenario(seed);
            let faults = tenants_faults(&sw.workload);
            (sw.workload.clone(), Some(sw), faults)
        }
    };
    Input {
        kind,
        seed,
        workload,
        scenario,
        faults,
    }
}

/// `paper-mix` arrival rate, requests per simulated second: just below
/// the knee of the Llama-70B sweep (3.8 rps). At the knee one part's
/// TTFT tail swings by ±40% from seed to seed; here, pooled over six
/// parts, its 10-seed spread stays well inside the metric's bound.
const PAPER_RPS: f64 = 3.0;

/// `fleet-sparse` aggregate arrival rate: 1/32 rps per replica.
const FLEET_RPS: f64 = FLEET_REPLICAS as f64 / 32.0;

/// The first `n` requests of `input`, with the fault plan re-derived for
/// them: a short workload for tests.
#[cfg(test)]
pub fn shrink(mut input: Input, n: usize) -> Input {
    input.workload.requests.truncate(n);
    if input.kind == Kind::TenantsDisagg {
        input.faults = tenants_faults(&input.workload);
    }
    input
}

/// The first `REQUESTS` arrivals of a Poisson trace at `rps` with the
/// paper's 60/20/20 coding/chat/summarization mix. The trace spans 1.3×
/// the expected time for `REQUESTS`, so it always holds that many.
fn poisson(seed: u64, rps: f64) -> Workload {
    let trace = TraceKind::Poisson {
        rps,
        duration_ms: 1.3 * REQUESTS as f64 / rps * 1e3,
    };
    let mut workload = WorkloadBuilder::new(seed, baseline_ms(seed))
        .trace(trace)
        .build();
    assert!(
        workload.requests.len() >= REQUESTS,
        "trace too short: {} requests",
        workload.requests.len()
    );
    workload.requests.truncate(REQUESTS);
    workload
}

/// Flash-crowd horizon of the `tenants-disagg` scenario, in ms.
const CROWD_SPAN_MS: f64 = 240_000.0;

fn tenants_scenario(seed: u64) -> ScenarioWorkload {
    let mut sw = Scenario::new(seed, baseline_ms(seed))
        .process(ArrivalProcess::FlashCrowd {
            rps: 3.0,
            at_ms: CROWD_SPAN_MS / 4.0,
            magnitude: 2.0,
            decay_ms: CROWD_SPAN_MS / 8.0,
        })
        .duration_ms(CROWD_SPAN_MS * 2.0)
        .users(60)
        .max_context(2_048)
        .tenants(vec![
            TenantSpec::new("pro")
                .share(1.0)
                .weight(4.0)
                .mix(CategoryMix::new(1.0, 0.0, 0.0)),
            TenantSpec::new("free")
                .share(2.0)
                .weight(1.0)
                .mix(CategoryMix::new(0.0, 0.5, 0.5)),
        ])
        .build();
    let requests = &mut sw.workload.requests;
    assert!(
        requests.len() >= REQUESTS,
        "scenario too short: {} requests",
        requests.len()
    );
    requests.truncate(REQUESTS);
    sw
}

/// Decode-replica crashes at a third, half and two thirds of the way
/// through the arrivals, alternating replicas 1, 0, 1, then a link
/// degradation. At this load a decode replica sometimes sits idle for a
/// moment (about one crash in sixty lands on an empty replica), so three
/// crashes make sure the run loses work to at least one. Built
/// explicitly: a seeded plan's link outage can land first and drain the
/// replica it later crashes, losing nothing.
fn tenants_faults(workload: &Workload) -> FaultPlan {
    let n = workload.requests.len();
    let arrival = |i: usize| workload.requests[i].arrival_ms;
    let crash = |replica: usize| FaultKind::ReplicaCrash {
        replica: ReplicaAddr::serving(replica),
        down_ms: 2_000.0,
    };
    FaultPlan::new()
        .at(arrival(n / 3), crash(1))
        .at(
            arrival(n / 3) + 10_000.0,
            FaultKind::LinkDegrade {
                factor: 4.0,
                duration_ms: 8_000.0,
            },
        )
        .at(arrival(n / 2), crash(0))
        .at(arrival(2 * n / 3), crash(1))
}

fn engine(config: SystemConfig, rec: Option<&Recorder>) -> Box<dyn ServingEngine> {
    let engine: Box<dyn ServingEngine> = Box::new(AdaServeEngine::new(config));
    match rec {
        Some(rec) => Box::new(EngineShim::new(engine, rec.clone())),
        None => engine,
    }
}

fn router(router: Box<dyn Router>, rec: Option<&Recorder>) -> Box<dyn Router> {
    match rec {
        Some(rec) => Box::new(RouterShim::new(router, rec.clone())),
        None => router,
    }
}

fn colocated(seed: u64, rec: Option<&Recorder>) -> Colocated<'static> {
    Colocated::new(engine(SystemConfig::llama70b(seed), rec))
}

fn fleet(seed: u64, rec: Option<&Recorder>) -> Cluster {
    let engines = (0..FLEET_REPLICAS)
        .map(|_| engine(SystemConfig::llama70b(seed), rec))
        .collect();
    Cluster::new(engines, router(Box::new(SloAware::default()), rec))
}

/// 25 GB/s with a 2 ms setup cost: a constrained link next to NVLink, so
/// migration shows in TTFT.
fn constrained_link() -> KvLink {
    KvLink::new(25.0, 2.0)
}

fn disagg(seed: u64, rec: Option<&Recorder>) -> DisaggCluster {
    let config = SystemConfig::llama70b(seed).with_prefix_cache(PREFIX_BUDGET_TOKENS);
    DisaggCluster::new(
        PrefillPool::new(vec![config.clone(), config.clone()]),
        (0..2).map(|_| engine(config.clone(), rec)).collect(),
        Dispatcher::new(router(Box::new(SloAware::default()), rec)),
        constrained_link(),
    )
}

/// Front-door window of the fair door over the 2-decode pool.
const FAIR_WINDOW: usize = 48;

fn fair<D: Deployment>(inner: D, input: &Input) -> FairFrontDoor<D> {
    let sw = input
        .scenario
        .as_ref()
        .expect("tenants-disagg carries its tenant tables");
    FairFrontDoor::new(inner, &sw.tenants, sw.tenant_table(), FAIR_WINDOW)
}

/// How one serve is run.
#[derive(Debug, Clone, Default)]
pub struct RunSpec {
    /// Executor override (`None` keeps the deployment's default).
    pub exec: Option<ExecMode>,
    /// Timing shims around every public boundary.
    pub shims: Option<Recorder>,
    /// Event tracer (off by default).
    pub tracer: Option<Tracer>,
}

/// What one serve produced, with its host-clock cost.
#[derive(Debug)]
pub struct Served {
    pub report: RunReport,
    /// Wall seconds building the deployment.
    pub build_s: f64,
    /// Wall seconds inside `ServeSession::serve`.
    pub serve_s: f64,
    /// User+system CPU seconds of the whole process during the serve.
    pub serve_cpu_s: f64,
    /// Executor worker threads alive at the end of the serve.
    pub live_workers: usize,
}

/// Something to do with a freshly built deployment, whatever its type.
trait WithDeployment {
    type Out;
    fn apply<D: Deployment>(self, deployment: D) -> Self::Out;
}

/// Builds `input`'s deployment — wrapped in timing shims when `rec` is
/// set — and hands it to `then`.
fn build<W: WithDeployment>(input: &Input, rec: Option<&Recorder>, then: W) -> W::Out {
    let seed = input.seed;
    match (input.kind, rec) {
        (Kind::PaperMix, None) => then.apply(colocated(seed, None)),
        (Kind::PaperMix, Some(r)) => then.apply(DeployShim::new(
            colocated(seed, rec),
            r.clone(),
            Layer::Cluster,
        )),
        (Kind::FleetSparse, None) => then.apply(fleet(seed, None)),
        (Kind::FleetSparse, Some(r)) => {
            then.apply(DeployShim::new(fleet(seed, rec), r.clone(), Layer::Cluster))
        }
        (Kind::TenantsDisagg, None) => then.apply(fair(disagg(seed, None), input)),
        (Kind::TenantsDisagg, Some(r)) => {
            let inner = DeployShim::new(disagg(seed, rec), r.clone(), Layer::Disagg);
            then.apply(DeployShim::new(
                fair(inner, input),
                r.clone(),
                Layer::Scenario,
            ))
        }
    }
}

fn session<D: Deployment>(deployment: D, input: &Input, spec: &RunSpec) -> ServeSession<D> {
    let mut session = ServeSession::new(deployment)
        .with_fault_plan(input.faults.clone())
        .with_recovery_policy(RecoveryPolicy::default());
    if let Some(exec) = spec.exec {
        session = session.with_exec_mode(exec);
    }
    if let Some(tracer) = &spec.tracer {
        session = session.with_tracer(tracer.clone());
    }
    session
}

/// Wall seconds to build `input`'s deployment and session, untraced;
/// nothing is served.
pub fn setup_only(input: &Input) -> f64 {
    struct Setup<'a> {
        input: &'a Input,
        start: Instant,
    }
    impl WithDeployment for Setup<'_> {
        type Out = f64;
        fn apply<D: Deployment>(self, deployment: D) -> f64 {
            let session = session(deployment, self.input, &RunSpec::default());
            let build_s = self.start.elapsed().as_secs_f64();
            drop(session);
            build_s
        }
    }
    let start = Instant::now();
    build(input, None, Setup { input, start })
}

/// Builds `input`'s deployment and serves it once.
pub fn serve(input: &Input, spec: &RunSpec) -> Result<Served, RunError> {
    struct Serve<'a> {
        input: &'a Input,
        spec: &'a RunSpec,
        start: Instant,
    }
    impl WithDeployment for Serve<'_> {
        type Out = Result<Served, RunError>;
        fn apply<D: Deployment>(self, deployment: D) -> Self::Out {
            let Serve { input, spec, start } = self;
            let mut session = session(deployment, input, spec);
            let build_s = start.elapsed().as_secs_f64();
            let serve_span = spec
                .shims
                .as_ref()
                .map(|r| r.enter(Layer::Session, "serve", None));
            let cpu0 = crate::host::cpu_seconds();
            let t0 = Instant::now();
            let report = session.serve(&input.workload)?;
            let serve_s = t0.elapsed().as_secs_f64();
            let serve_cpu_s = crate::host::cpu_seconds() - cpu0;
            let live_workers = adaserve::serving::exec::live_worker_threads();
            drop(serve_span);
            Ok(Served {
                report,
                build_s,
                serve_s,
                serve_cpu_s,
                live_workers,
            })
        }
    }
    let start = Instant::now();
    build(input, spec.shims.as_ref(), Serve { input, spec, start })
}
