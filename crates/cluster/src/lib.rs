//! Multi-replica cluster serving: fleets of engines behind a router.
//!
//! The paper's evaluation drives a single engine; production multi-SLO
//! serving (and the follow-on systems AdaServe is compared against) runs
//! *fleets* of engines behind a request router. This crate simulates that
//! setting on the same deterministic substrate:
//!
//! * [`replica`] — a [`Replica`] wraps any [`serving::ServingEngine`]
//!   (AdaServe, any baseline, any GPU profile) with a local clock and the
//!   load views routers consume;
//! * [`router`] — the [`Router`] trait and five policies: [`RoundRobin`],
//!   [`LeastOutstanding`], [`JoinShortestQueue`] (by hardware-normalized
//!   modelled load), [`SloAware`], the cluster analogue of the paper's
//!   §4.3 two-phase budget split (tight-TPOT requests to the least-loaded
//!   replica, throughput-tier requests packed), and [`PrefixAffinity`],
//!   which sends a request to the replica holding its longest cached
//!   prompt prefix (see [`serving::PrefixCache`]) unless that replica is
//!   saturated;
//! * [`pool`] — the [`ReplicaPool`]: replicas stepped under one global
//!   clock, sequentially or batch-sharded over a persistent executor,
//!   with address resolution, crash/slowdown faults, gauges and drain.
//!   The disaggregated decode side reuses it;
//! * [`driver`] — the [`Cluster`]: a replica pool behind one router,
//!   implementing [`serving::Deployment`] so a [`serving::ServeSession`]
//!   drives it (arrival routing, per-replica iterations interleaved under
//!   the session's global clock, drain/join scaling via the session's
//!   timeline), merging all completion records into one fleet-wide
//!   stream for [`metrics`].
//!
//! Run a cluster through the front door:
//! `ServeSession::new(cluster).serve(&workload)` — or
//! `serve_online(...)` for mid-run submission/scaling.
//!
//! Replicas may be heterogeneous: each engine carries its own
//! [`serving::SystemConfig`], so one fleet can mix A100 and H100 profiles
//! (`roofline::Testbed::llama70b_h100`). Build workloads against
//! [`Cluster::max_baseline_ms`] so baseline-relative SLOs stay attainable
//! on the slowest replica.

pub mod driver;
pub mod pool;
pub mod replica;
pub mod router;

pub use driver::{max_baseline_ms, Cluster, ScalingAction};
pub use pool::{eligible_replicas, pooled_gauges, ReplicaPool};
pub use replica::{InboundWork, Replica};
pub use router::{
    two_phase_pick, JoinShortestQueue, LeastOutstanding, PrefixAffinity, RoundRobin, Router,
    RouterKind, SloAware,
};
