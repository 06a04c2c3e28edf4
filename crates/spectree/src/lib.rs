//! Token-tree machinery for speculative decoding.
//!
//! This crate implements the data structures and algorithms the AdaServe
//! paper builds on: draft token trees (§2, Fig. 4), beam-search candidate
//! tree construction (§4.3 step 1, Theorem 4.1), and tree-based verification
//! (§4.3 step 4, following SpecInfer-style multi-branch verification).
//!
//! A [`TokenTree`] is rooted at the request's last generated token; every
//! other node is a speculated token whose *path probability* estimates the
//! chance the target model accepts the whole root-to-node path (paper eq. 7:
//! approximated by the product of draft-model probabilities along the path).
//!
//! The key structural invariant — used by the paper's Appendix B connectivity
//! proof — is that a node's path probability is strictly smaller than its
//! parent's, so selecting nodes in descending path-probability order always
//! yields a connected subtree.
//!
//! # Modules
//!
//! * [`tree`] — the arena-based token tree.
//! * [`candidate`] — best-first beam-search construction of candidate trees.
//! * [`verify`] — target-model verification of a draft tree.
//! * [`mask`] — tree-attention topology masks (the kernel-facing layout).

pub mod candidate;
pub mod mask;
pub mod tree;
pub mod verify;

pub use candidate::{BeamStop, CandidatePool, CandidateTree, SpecParams, SpeculateScratch};
pub use mask::TreeMask;
pub use tree::{NodeId, SubtreeScratch, TokenTree, TreeError};
pub use verify::{
    verify_tree, verify_tree_rejection, verify_tree_with, RejectionOutcome, VerifyMode,
    VerifyOutcome, VerifyScratch,
};
