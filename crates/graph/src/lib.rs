//! # pgs-graph — deterministic labelled-graph substrate
//!
//! This crate implements every *deterministic* graph algorithm the paper
//! "Efficient Subgraph Similarity Search on Large Probabilistic Graph Databases"
//! (Yuan et al., VLDB 2012) relies on:
//!
//! * a compact labelled undirected [`Graph`] representation ([`model`]),
//! * VF2-style subgraph isomorphism / monomorphism with full embedding
//!   enumeration ([`vf2`], [`embeddings`]),
//! * maximum common subgraph and the paper's *subgraph distance*
//!   `dis(q, g) = |q| - |mcs(q, g)|` ([`mcs`]),
//! * query relaxation producing the set `U = {rq_1, .., rq_a}` of graphs obtained
//!   by deleting `δ` edges from the query ([`relax`]),
//! * immutable per-graph structural summaries (histograms, counts, degree
//!   sequence) shared by the S-Index, the VF2 prefilter and the structural
//!   query phase ([`summary`]),
//! * gSpan-style canonical DFS codes used to deduplicate patterns ([`dfs_code`]),
//! * a bounded frequent-pattern miner used for PMI feature generation
//!   ([`mining`]),
//! * maximum *weight* clique search used to obtain the tightest SIP bounds
//!   ([`clique`]),
//! * minimal embedding-cut enumeration (minimal hitting sets, equivalent to the
//!   minimal s–t cuts of the paper's parallel graph `cG`, Theorem 6) ([`cuts`]),
//! * random graph generators and connected-subgraph extraction used to build
//!   synthetic workloads ([`generate`]),
//! * a small text serialization format for graph databases ([`serialize`]),
//! * deterministic chunked parallelism ([`parallel`]) dispatched on a
//!   lazily-spawned persistent worker pool ([`pool`]), shared by the PMI
//!   build and every query phase.
//!
//! Everything here is purely deterministic; the probabilistic layer lives in the
//! `pgs-prob` crate.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod clique;
pub mod cuts;
pub mod dfs_code;
pub mod embeddings;
pub mod error;
pub mod generate;
pub mod mcs;
pub mod mining;
pub mod model;
pub mod parallel;
pub mod pool;
pub mod relax;
pub mod serialize;
pub mod summary;
pub mod traversal;
pub mod vf2;

pub use arena::FlatVecVec;
pub use clique::{max_weight_clique, BitMatrix};
pub use cuts::minimal_cuts;
pub use dfs_code::{canonical_code, CanonicalCode};
pub use embeddings::{EdgeSet, Embedding};
pub use error::GraphError;
pub use mcs::{mcs_size, subgraph_distance, subgraph_similar, SimilarityTester};
pub use model::{EdgeId, Graph, GraphBuilder, Label, VertexId};
pub use parallel::{
    derive_seed, mix64, par_map_chunked_costed, resolve_threads, CostHint, MAX_THREADS,
};
pub use relax::{relax_query, relax_query_clamped};
pub use summary::{EdgeSignature, StructuralSummary, SummaryView};
pub use vf2::{
    contains_subgraph, contains_subgraph_summarized, enumerate_embeddings, MatchOptions, Matcher,
};
