//! AdaServe: SLO-customized LLM serving with fine-grained speculative
//! decoding — the paper's primary contribution.
//!
//! The crate is organized around the paper's structure:
//!
//! * [`formulation`] — §3's constrained-optimization quantities: the
//!   per-request SLO requirement `A(r)` and its capped variant `A_cap(r)`;
//! * [`optimal`] — §4.1's Algorithm 1: globally optimal token-tree
//!   construction under known path probabilities (with the INVALID case),
//!   tested against brute-force enumeration;
//! * [`scsd`] — §4.3's Algorithm 2: the practical speculate–select–verify
//!   selection (SLO-customized phase + throughput-optimized phase) over
//!   beam-search candidate trees;
//! * [`adaptive`] — §5.2's adaptive controller for speculation depth `d` and
//!   width `w` (equations 8 and 9);
//! * [`scheduler`] — the SLO-customized scheduler tying the four pipeline
//!   steps together for one decoding iteration (Fig. 6);
//! * [`tuning`] — the offline grid search for the controller constants
//!   (`c₁`, `c₂`), as §5.2 describes;
//! * [`engine`] — [`AdaServeEngine`], the full serving engine (request
//!   manager + execution engine) implementing `serving::ServingEngine`.
//!
//! # Quickstart
//!
//! ```
//! use adaserve_core::AdaServeEngine;
//! use serving::{Colocated, ServeSession, SystemConfig};
//! use workload::WorkloadBuilder;
//!
//! let config = SystemConfig::llama70b(42);
//! let workload = WorkloadBuilder::new(7, config.baseline_ms)
//!     .target_rps(2.0)
//!     .duration_ms(5_000.0)
//!     .build();
//! let engine = Box::new(AdaServeEngine::new(config));
//! let result = ServeSession::new(Colocated::new(engine))
//!     .serve(&workload)
//!     .unwrap();
//! let report = result.report();
//! assert_eq!(report.requests, workload.requests.len());
//! ```

pub mod adaptive;
pub mod engine;
pub mod formulation;
pub mod optimal;
pub mod scheduler;
pub mod scsd;
pub mod tuning;

pub use adaptive::AdaptiveController;
pub use engine::{AdaServeEngine, AdaServeOptions};
pub use formulation::{slo_requirement, SloRequirement};
pub use optimal::{optimal_trees, ExplicitProbTree, OptimalError};
pub use scheduler::SloCustomizedScheduler;
pub use scsd::{select_tokens, selectable_prefix, ScsdInput, ScsdOutput};
pub use tuning::{grid_search_constants, TuningCell, TuningReport};
