//! AdaServe: SLO-customized LLM serving with fine-grained speculative
//! decoding — a full reproduction of the EuroSys 2026 paper in Rust.
//!
//! # One front door
//!
//! Every deployment shape — one engine, a routed multi-replica cluster, a
//! disaggregated prefill/decode fleet — runs through the same two
//! abstractions, re-exported here at the crate root:
//!
//! * [`Deployment`] — anything that accepts requests and advances its own
//!   machinery event by event: [`Colocated`] (a single
//!   [`serving::ServingEngine`]), [`cluster::Cluster`], or
//!   [`disagg::DisaggCluster`];
//! * [`ServeSession`] — the one event loop: it owns the clock, the run
//!   caps, the stall guard and the scaling timeline, drives any
//!   deployment **online** (arrivals at their timestamps, or submitted
//!   mid-run by a client hook reacting to [`DeploymentEvent`]s), and
//!   finalizes every run into one [`RunReport`].
//!
//! ```
//! use adaserve::core::AdaServeEngine;
//! use adaserve::{Colocated, ServeSession};
//! use adaserve::serving::SystemConfig;
//! use adaserve::workload::WorkloadBuilder;
//!
//! let config = SystemConfig::llama70b(42);
//! let workload = WorkloadBuilder::new(7, config.baseline_ms)
//!     .target_rps(2.0)
//!     .duration_ms(5_000.0)
//!     .build();
//! let report = ServeSession::new(Colocated::new(Box::new(AdaServeEngine::new(config))))
//!     .serve(&workload)
//!     .unwrap();
//! assert_eq!(report.report().requests, workload.requests.len());
//! ```
//!
//! Serve open-loop with [`ServeSession::serve`], or closed-loop with
//! [`ServeSession::serve_online`]. The session also picks how
//! multi-replica deployments step (`ServeSession::with_exec_mode`); both
//! multi-replica shapes step their replicas through one
//! [`cluster::ReplicaPool`].
//!
//! # Workspace map
//!
//! * [`core`] (`adaserve-core`) — the paper's contribution: optimal token
//!   tree construction (Algorithm 1), SLO-customized speculative decoding
//!   (Algorithm 2), adaptive control and the [`core::AdaServeEngine`];
//! * [`baselines`] — vLLM, Sarathi-Serve, vLLM-Spec(k), vLLM+Priority,
//!   FastServe and VTC reimplemented on the same substrate;
//! * [`serving`] — request lifecycle, paged KV cache, and the
//!   [`Deployment`]/[`ServeSession`] front door;
//! * [`cluster`] — multi-replica fleets: pluggable request routers
//!   (round-robin, least-outstanding, JSQ-by-load, SLO-aware) behind the
//!   same front door, with elastic drain/join scaling;
//! * [`disagg`] — disaggregated prefill/decode serving: split replica
//!   pools, modeled KV migration over the interconnect, and TTFT-tier
//!   SLO-aware dispatch;
//! * [`spectree`] — token trees, beam-search speculation, tree verification;
//! * [`simllm`] — the synthetic target/draft model pair;
//! * [`roofline`] — the hardware cost model and profiler;
//! * [`workload`] — multi-SLO request categories, datasets and traces;
//! * [`scenario`] — production-shaped scenarios: diurnal/MMPP/flash-crowd
//!   arrival processes over millions of session-affine users,
//!   multi-tenant contracts with weighted-fair front-door admission, and
//!   a closed-loop autoscaler (see `docs/SCENARIOS.md`);
//! * [`metrics`] — SLO attainment, goodput, latency and per-tenant
//!   fairness reporting.
//!
//! See `examples/quickstart.rs` for a five-minute tour,
//! `examples/online_serving.rs` for the online/closed-loop API, and the
//! "Workspace map" section of `README.md` for the paper-to-module map.

pub use adaserve_core as core;
pub use baselines;
pub use cluster;
pub use disagg;
pub use metrics;
pub use roofline;
pub use scenario;
pub use serving;
pub use simllm;
pub use spectree;
pub use workload;

pub use serving::{
    Colocated, Deployment, DeploymentEvent, FaultEvent, FaultKind, FaultPlan, Pool, RecoveryPolicy,
    RejectReason, ReplicaAddr, RunReport, ScalingAction, ServeSession, SessionHandle, UnitStats,
};
