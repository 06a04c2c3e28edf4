//! The serving substrate shared by AdaServe and every baseline engine —
//! and the workspace's **front door** for running them.
//!
//! This crate is the "execution engine + request manager" half of the
//! paper's Fig. 6, factored so all serving systems run on identical
//! infrastructure:
//!
//! * [`request`] — runtime request state (prompt, generated tokens, phase,
//!   per-phase timestamps);
//! * [`kv`] — a PagedAttention-style block manager with preemption support
//!   (vLLM \[22\]'s memory model, which the paper's baselines rely on);
//! * [`prefix`] — a cross-request radix [`prefix::PrefixCache`] modeling
//!   automatic prefix caching: shared prompt prefixes (system prompts,
//!   multi-turn sessions) skip their portion of prefill and shrink KV
//!   reservations, opt-in via
//!   [`config::SystemConfig::with_prefix_cache`];
//! * [`config`] — a deployed system: latency testbed + synthetic model pair;
//! * [`engine`] — the [`engine::ServingEngine`] trait, run caps and the
//!   context-carrying [`engine::RunError`];
//! * [`core`] — [`core::EngineCore`], the queueing/admission/prefill and
//!   bookkeeping machinery engines compose (waiting queue, running batch,
//!   completion records, latency breakdown).
//!
//! The front door is the [`session`] module: any deployment shape — a
//! single [`colocated`] engine, a multi-replica `cluster::Cluster`, a
//! disaggregated `disagg::DisaggCluster` — implements the
//! [`session::Deployment`] trait, and one [`session::ServeSession`] event
//! loop drives them all **online**: requests are submitted at their
//! arrival times (open-loop from a workload, or mid-run from a client
//! hook), surfaced as per-request [`session::DeploymentEvent`]s, and
//! finalized into one [`session::RunReport`]. The session also picks how
//! multi-replica deployments step ([`exec::ExecMode`], via
//! [`session::ServeSession::with_exec_mode`]).
//!
//! GPU passes are *timed* by the roofline model but their *results* (which
//! tokens get generated/accepted) come from real computation against the
//! synthetic language models — the scheduling logic under study runs for
//! real.

#![warn(missing_docs)]

pub mod colocated;
pub mod config;
pub mod core;
pub mod engine;
pub mod exec;
pub mod fault;
pub mod kv;
pub mod prefix;
pub mod probe;
pub mod request;
pub mod session;
pub mod swap;

pub use colocated::Colocated;
pub use config::SystemConfig;
pub use core::EngineCore;
pub use engine::{
    finalize_run, ErrorSite, Pool, RunError, RunErrorKind, RunOptions, RunResult, ServingEngine,
    StallGuard, StepResult,
};
pub use exec::{ExecMode, ShardedExecutor};
pub use fault::{FaultEvent, FaultKind, FaultPlan, RecoveryPolicy};
pub use kv::BlockManager;
pub use prefix::{PrefixCache, PrefixStats};
pub use probe::{core_gauges, trace_replica, ProbeState, StepProbe};
pub use request::{LiveRequest, Phase};
pub use session::{
    Deployment, DeploymentEvent, DeploymentStep, LifecycleTracker, RejectReason, ReplicaAddr,
    RunReport, ScalePlan, ScalingAction, ServeSession, SessionHandle, UnitStats,
};
pub use swap::SwapLink;
