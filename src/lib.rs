//! # pgs — probabilistic subgraph similarity search
//!
//! Answers **threshold-based probabilistic subgraph similarity queries
//! (T-PS)** and top-k queries over a database of probabilistic graphs, as
//! defined by Yuan, Wang, Chen and Wang, *"Efficient Subgraph Similarity
//! Search on Large Probabilistic Graph Databases"*, VLDB 2012.
//!
//! Applications depend on `pgs` and `use pgs::prelude::*`: the
//! [`QueryEngine`](query::pipeline::QueryEngine) owns the graphs and their
//! Probabilistic Matrix Index (PMI), answers both query kinds and mutates
//! the database without a rebuild.  The sub-crates are re-exported as
//! [`graph`], [`prob`], [`index`], [`query`] and [`datagen`] for callers
//! who need finer control.  The README's examples run as doctests.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub use pgs_datagen as datagen;
pub use pgs_graph as graph;
pub use pgs_index as index;
pub use pgs_prob as prob;
pub use pgs_query as query;

/// Convenience prelude with the types most applications need.
pub mod prelude {
    pub use pgs_datagen::ppi::{generate_ppi_dataset, PpiDatasetConfig};
    pub use pgs_datagen::scenarios::{paper_scale, DatasetScale};
    pub use pgs_graph::model::{EdgeId, Graph, GraphBuilder, Label, VertexId};
    pub use pgs_prob::jpt::JointProbTable;
    pub use pgs_prob::model::ProbabilisticGraph;
    pub use pgs_query::pipeline::{
        BatchResult, EngineConfig, ExactScanConfig, PruningVariant, QueryEngine, QueryError,
        QueryParams, QueryResult, RankedAnswer, TopkParams, TopkResult,
    };
}

/// The workspace version (all member crates share it).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Compiles (and runs) the README's Rust snippets as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_exposed() {
        assert!(!super::VERSION.is_empty());
    }
}
