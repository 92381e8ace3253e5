//! # pgs-index — the Probabilistic Matrix Index (PMI)
//!
//! Section 4 of the paper: the PMI is a feature × graph matrix whose entries
//! are tight lower/upper bounds of the subgraph-isomorphism probability (SIP)
//! `Pr(f ⊆iso g)`.  This crate implements
//!
//! * feature selection (Algorithm 4; frequency with the disjoint-embedding
//!   ratio `α`, discriminativity `γ`, size cap `maxL`) in [`feature`],
//! * the SIP bounds of Section 4.1 — lower bound from disjoint embeddings,
//!   upper bound from disjoint minimal embedding cuts, both tightened with a
//!   maximum-weight-clique search — in [`mod@sip_bounds`],
//! * PMI construction, lookup, statistics and text serialization in [`pmi`],
//! * the S-Index — per-graph structural summaries plus an inverted
//!   edge-signature posting list, the candidate generator of the
//!   structural query phase — in [`sindex`],
//! * the versioned binary snapshot format behind `Pmi::save` / `Pmi::load`
//!   in [`snapshot`].

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod feature;
pub mod pmi;
pub mod sindex;
pub mod sip_bounds;
pub mod snapshot;

pub use feature::{select_features, select_features_summarized, Feature, FeatureSelectionParams};
pub use pmi::{graph_salt, Pmi, PmiBuildParams, PmiStats};
pub use sindex::{FilterOutcome, PostingEntry, StructuralIndex};
pub use sip_bounds::{sip_bounds, BoundsConfig, DisjointnessRule, SipBounds};
pub use snapshot::{params_fingerprint, SnapshotError, FORMAT_V1, FORMAT_V2, FORMAT_VERSION};
