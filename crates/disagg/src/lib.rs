//! Disaggregated prefill/decode serving on the deterministic substrate.
//!
//! The paper's SLO-customized speculative decoding (§4) controls TPOT; at
//! scale, TTFT attainment is dominated by prefill/decode *interference* —
//! long prompts stealing iterations from running decodes. Disaggregated
//! deployments (DistServe, Splitwise, and the StreamServe/SLOs-Serve line
//! of work) split the fleet instead: prefill and decode run on separate
//! replica pools and finished prompts migrate their KV cache across the
//! interconnect. This crate models that deployment mode end to end:
//!
//! * [`prefill`] — a [`PrefillPool`] of [`PrefillReplica`]s that run
//!   chunked prefill *only*, admitting and sizing chunks by TTFT tier;
//! * [`migrate`] — the KV-migration model: a [`KvLink`] priced from the
//!   [`roofline`] interconnect bandwidth (per-token KV bytes across all
//!   layers), with an in-flight [`TransferQueue`] that serializes
//!   transfers per decode-side ingress link while decode iterations
//!   continue underneath (transfers overlap compute);
//! * [`dispatch`] — the SLO-aware [`Dispatcher`]: TTFT-tier routing and
//!   admission on the prefill side (preferring a replica that already
//!   holds a cached prefix of the prompt — see [`serving::PrefixCache`] —
//!   when one is warm and unsaturated), then handoff to the decode-side
//!   router (any [`cluster::Router`]) carrying the request's *remaining*
//!   TPOT budget;
//! * [`driver`] — the [`DisaggCluster`]: the prefill pool, a decode-side
//!   [`cluster::ReplicaPool`] and the [`TransferQueue`] under one global
//!   clock, implementing [`serving::Deployment`] so the same
//!   [`serving::ServeSession`] front door that drives colocated and
//!   cluster deployments drives this one (drain/join scaling on either
//!   pool via the session's timeline, completion records merged into one
//!   stream via [`metrics`]).
//!
//! Decode replicas are ordinary [`cluster::Replica`]s wrapping any
//! [`serving::ServingEngine`] (AdaServe's SCSD decode, or a baseline) —
//! migrations land on each replica's own landing queue — so
//! colocated and disaggregated deployments of the *same* engines compare
//! apples-to-apples at equal aggregate hardware — the `fig_disagg_sweep`
//! bench binary sweeps pool split × request rate × link bandwidth against
//! the colocated [`cluster::Cluster`] baseline.

pub mod dispatch;
pub mod driver;
pub mod migrate;
pub mod prefill;

pub use dispatch::Dispatcher;
pub use driver::{DisaggCluster, Pool, ScalingAction};
pub use migrate::{KvLink, KvTransfer, TransferQueue, TransferStats};
pub use prefill::{PrefillPool, PrefillReplica};
