//! # pgs-core — probabilistic subgraph similarity search
//!
//! The public facade of the workspace: a batteries-included
//! [`ProbGraphDatabase`] that stores probabilistic graphs, builds the
//! Probabilistic Matrix Index (PMI) and answers **threshold-based probabilistic
//! subgraph similarity queries (T-PS)** as defined by Yuan, Wang, Chen and Wang,
//! *"Efficient Subgraph Similarity Search on Large Probabilistic Graph
//! Databases"*, VLDB 2012.
//!
//! ```
//! use pgs_core::prelude::*;
//!
//! // Build two tiny probabilistic graphs (a triangle and a path) and query them.
//! let mut db = ProbGraphDatabase::new();
//! for (name, edges) in [("triangle", vec![(0, 1), (1, 2), (0, 2)]), ("path", vec![(0, 1), (1, 2)])] {
//!     let mut builder = GraphBuilder::new().name(name).vertices(&[0, 0, 0]);
//!     for &(u, v) in &edges {
//!         builder = builder.edge(u, v, 0);
//!     }
//!     let skeleton = builder.build();
//!     let probs = vec![0.9; skeleton.edge_count()];
//!     db.insert(ProbabilisticGraph::independent(skeleton, &probs).unwrap());
//! }
//! db.build_index();
//!
//! let query = GraphBuilder::new().vertices(&[0, 0, 0]).edge(0, 1, 0).edge(1, 2, 0).build();
//! let matches = db.query(&query, 0.5, 0).unwrap();
//! assert_eq!(matches.len(), 2); // both graphs contain a 2-edge path with high probability
//! ```
//!
//! The lower-level building blocks (graph model, probabilistic model, PMI,
//! pruning, verification, dataset generation) are re-exported from the
//! sub-crates for users who need finer control.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use pgs_graph::model::Graph;
use pgs_index::pmi::Pmi;
use pgs_index::snapshot::SnapshotError;
use pgs_prob::model::ProbabilisticGraph;
use pgs_query::pipeline::{
    BatchResult, EngineConfig, EngineLoadError, IndexMismatch, PruningVariant, QueryEngine,
    QueryError, QueryParams, QueryResult, TopkBatchResult, TopkParams, TopkResult,
};
use std::fmt;
use std::path::Path;

pub use pgs_datagen as datagen;
pub use pgs_graph as graph;
pub use pgs_index as index;
pub use pgs_prob as prob;
pub use pgs_query as query;

/// Convenience prelude with the types most applications need.
pub mod prelude {
    pub use crate::{DbError, DynamicDatabase, ProbGraphDatabase, QueryMatch};
    pub use pgs_datagen::ppi::{generate_ppi_dataset, PpiDatasetConfig};
    pub use pgs_datagen::scenarios::{paper_scale, DatasetScale};
    pub use pgs_graph::model::{EdgeId, Graph, GraphBuilder, Label, VertexId};
    pub use pgs_prob::jpt::JointProbTable;
    pub use pgs_prob::model::ProbabilisticGraph;
    pub use pgs_query::pipeline::{
        BatchResult, EngineConfig, ExactScanConfig, PruningVariant, QueryError, QueryParams,
        QueryResult, RankedAnswer, TopkBatchResult, TopkParams, TopkResult,
    };
}

/// Errors surfaced by the facade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// `query` was called before `build_index`.
    IndexNotBuilt,
    /// The query graph is empty.
    EmptyQuery,
    /// The probability threshold is outside `(0, 1]` (or `NaN`).
    InvalidThreshold,
    /// A graph index was out of range for the current database.
    GraphOutOfRange(usize),
    /// The engine's `Exact` baseline configuration is unusable (`τ`/`ξ`
    /// `NaN` or non-positive, or a zero sample cap).
    InvalidScanConfig(String),
    /// The engine's verification sampler options are unusable (`τ`/`ξ`
    /// `NaN` or non-positive, or a zero embedding cap).
    InvalidVerifyConfig(String),
    /// The engine's thread count exceeds the worker ceiling
    /// (`pgs_graph::parallel::MAX_THREADS`); taken literally it would ask
    /// for an absurd number of OS threads.
    InvalidThreadConfig(String),
    /// The engine's shard count is not `1` (the PMI is one global segment).
    InvalidShardConfig(String),
    /// The requested top-k answer count is zero or exceeds the supported
    /// ceiling (`pgs_query::pipeline::MAX_TOPK`).
    InvalidK(String),
    /// Saving or loading an index snapshot failed.
    Snapshot(String),
    /// A loaded index snapshot does not match the database contents.
    IndexMismatch(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::IndexNotBuilt => write!(f, "the PMI has not been built; call build_index()"),
            DbError::EmptyQuery => write!(f, "the query graph has no edges"),
            DbError::InvalidThreshold => {
                write!(f, "the probability threshold must lie in (0, 1]")
            }
            DbError::GraphOutOfRange(i) => write!(f, "graph index {i} is out of range"),
            // The wrapped QueryError strings already carry their
            // "invalid … configuration/options:" prefixes.
            DbError::InvalidScanConfig(e) => write!(f, "{e}"),
            DbError::InvalidVerifyConfig(e) => write!(f, "{e}"),
            DbError::InvalidThreadConfig(e) => write!(f, "{e}"),
            DbError::InvalidShardConfig(e) => write!(f, "{e}"),
            DbError::InvalidK(e) => write!(f, "{e}"),
            DbError::Snapshot(e) => write!(f, "index snapshot error: {e}"),
            DbError::IndexMismatch(e) => write!(f, "index/database mismatch: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<QueryError> for DbError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::InvalidEpsilon { .. } => DbError::InvalidThreshold,
            QueryError::EmptyQuery => DbError::EmptyQuery,
            QueryError::InvalidExactScanConfig { .. } => DbError::InvalidScanConfig(e.to_string()),
            QueryError::InvalidVerifyOptions { .. } => DbError::InvalidVerifyConfig(e.to_string()),
            QueryError::InvalidThreads { .. } => DbError::InvalidThreadConfig(e.to_string()),
            QueryError::InvalidShards { .. } => DbError::InvalidShardConfig(e.to_string()),
            QueryError::InvalidK { .. } => DbError::InvalidK(e.to_string()),
        }
    }
}

impl From<SnapshotError> for DbError {
    fn from(e: SnapshotError) -> Self {
        DbError::Snapshot(e.to_string())
    }
}

impl From<IndexMismatch> for DbError {
    fn from(e: IndexMismatch) -> Self {
        DbError::IndexMismatch(e.to_string())
    }
}

impl From<EngineLoadError> for DbError {
    fn from(e: EngineLoadError) -> Self {
        match e {
            EngineLoadError::Snapshot(s) => s.into(),
            EngineLoadError::Mismatch(m) => m.into(),
        }
    }
}

/// One query answer.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryMatch {
    /// Index of the matching graph in the database (insertion order).
    pub graph_index: usize,
    /// Name of the matching graph.
    pub name: String,
}

/// A database of probabilistic graphs supporting T-PS queries.
#[derive(Debug, Clone, Default)]
pub struct ProbGraphDatabase {
    graphs: Vec<ProbabilisticGraph>,
    config: EngineConfig,
    engine: Option<QueryEngine>,
}

impl ProbGraphDatabase {
    /// Creates an empty database with the default engine configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty database with a custom engine configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        ProbGraphDatabase {
            graphs: Vec::new(),
            config,
            engine: None,
        }
    }

    /// Inserts a probabilistic graph and returns its index.  Invalidates any
    /// previously built index.
    pub fn insert(&mut self, graph: ProbabilisticGraph) -> usize {
        self.engine = None;
        self.graphs.push(graph);
        self.graphs.len() - 1
    }

    /// Inserts many graphs at once.
    pub fn extend(&mut self, graphs: impl IntoIterator<Item = ProbabilisticGraph>) {
        self.engine = None;
        self.graphs.extend(graphs);
    }

    /// Number of stored graphs.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// True if the database holds no graphs.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// The stored graph at `index`.
    pub fn graph(&self, index: usize) -> Option<&ProbabilisticGraph> {
        self.graphs.get(index)
    }

    /// All stored graphs.
    pub fn graphs(&self) -> &[ProbabilisticGraph] {
        &self.graphs
    }

    /// Builds (or rebuilds) the PMI over the current contents.
    pub fn build_index(&mut self) {
        self.engine = Some(QueryEngine::build(self.graphs.clone(), self.config));
    }

    /// True once the index has been built for the current contents.
    pub fn is_indexed(&self) -> bool {
        self.engine.is_some()
    }

    /// The underlying query engine (available after [`Self::build_index`]).
    pub fn engine(&self) -> Option<&QueryEngine> {
        self.engine.as_ref()
    }

    /// Answers a T-PS query: all graphs whose subgraph similarity probability
    /// to `query` under distance threshold `delta` is at least `epsilon`.
    pub fn query(
        &self,
        query: &Graph,
        epsilon: f64,
        delta: usize,
    ) -> Result<Vec<QueryMatch>, DbError> {
        let result = self.query_detailed(
            query,
            &QueryParams {
                epsilon,
                delta,
                variant: PruningVariant::OptSspBound,
            },
        )?;
        Ok(result
            .answers
            .iter()
            .map(|&gi| QueryMatch {
                graph_index: gi,
                name: self.graphs[gi].name().to_string(),
            })
            .collect())
    }

    /// Answers a T-PS query with full control over the parameters and access to
    /// the per-phase statistics.
    pub fn query_detailed(
        &self,
        query: &Graph,
        params: &QueryParams,
    ) -> Result<QueryResult, DbError> {
        let engine = self.engine.as_ref().ok_or(DbError::IndexNotBuilt)?;
        Ok(engine.query(query, params)?)
    }

    /// Answers a batch of T-PS queries in one dispatch on the persistent
    /// worker pool (see `QueryEngine::query_batch` — nothing is spawned per
    /// call; parked pool workers are reused across queries and across
    /// batches).  Every result is byte-identical to a standalone
    /// [`Self::query_detailed`] call with the same parameters.
    pub fn query_batch(
        &self,
        queries: &[Graph],
        params: &QueryParams,
    ) -> Result<BatchResult, DbError> {
        let engine = self.engine.as_ref().ok_or(DbError::IndexNotBuilt)?;
        Ok(engine.query_batch(queries, params)?)
    }

    /// The `Exact` baseline: scans the whole database computing the SSP of
    /// every graph (no index involvement beyond holding the data).
    pub fn exact_scan(&self, query: &Graph, params: &QueryParams) -> Result<QueryResult, DbError> {
        let engine = self.engine.as_ref().ok_or(DbError::IndexNotBuilt)?;
        Ok(engine.exact_scan(query, params)?)
    }

    /// Answers a top-k probabilistic subgraph similarity query: the `k`
    /// graphs with the highest subgraph similarity probability to `query`
    /// under distance threshold `delta`, best first.  Graphs whose SSP is
    /// zero are never returned, so fewer than `k` matches are possible.
    pub fn query_topk(
        &self,
        query: &Graph,
        k: usize,
        delta: usize,
    ) -> Result<Vec<QueryMatch>, DbError> {
        let result = self.query_topk_detailed(
            query,
            &TopkParams {
                k,
                delta,
                variant: PruningVariant::OptSspBound,
            },
        )?;
        Ok(result
            .ranked
            .iter()
            .map(|r| QueryMatch {
                graph_index: r.graph,
                name: self.graphs[r.graph].name().to_string(),
            })
            .collect())
    }

    /// Answers a top-k query with full control over the parameters and access
    /// to the ranked SSP estimates and per-phase statistics.
    pub fn query_topk_detailed(
        &self,
        query: &Graph,
        params: &TopkParams,
    ) -> Result<TopkResult, DbError> {
        let engine = self.engine.as_ref().ok_or(DbError::IndexNotBuilt)?;
        Ok(engine.query_topk(query, params)?)
    }

    /// Answers a batch of top-k queries in one dispatch on the persistent
    /// worker pool.  Every result is byte-identical to a standalone
    /// [`Self::query_topk_detailed`] call with the same parameters.
    pub fn query_topk_batch(
        &self,
        queries: &[Graph],
        params: &TopkParams,
    ) -> Result<TopkBatchResult, DbError> {
        let engine = self.engine.as_ref().ok_or(DbError::IndexNotBuilt)?;
        Ok(engine.query_topk_batch(queries, params)?)
    }
}

/// A mutable, always-indexed database of probabilistic graphs with an
/// explicit index lifecycle: build once, [`DynamicDatabase::save_index`] to
/// disk, [`DynamicDatabase::open`] in later processes, and mutate with
/// [`DynamicDatabase::insert_graph`] / [`DynamicDatabase::remove_graph`]
/// *without* rebuilding — an insert computes the SIP bounds of the existing
/// features in the new graph and appends one PMI column; a remove drops one.
///
/// Incremental mutations never re-mine the feature set, so after heavy churn
/// the features describe a database that no longer exists.  The bounds stay
/// correct (pruning never returns wrong answers) but lose pruning power;
/// [`DynamicDatabase::staleness`] tracks the churn fraction and
/// [`DynamicDatabase::should_remine`] recommends a [`DynamicDatabase::remine`]
/// (full rebuild) once it passes the configured threshold.
///
/// ```
/// use pgs_core::prelude::*;
///
/// let mk = |name: &str, p: f64| {
///     let g = GraphBuilder::new()
///         .name(name)
///         .vertices(&[0, 0, 0])
///         .edge(0, 1, 0)
///         .edge(1, 2, 0)
///         .build();
///     ProbabilisticGraph::independent(g, &[p, p]).unwrap()
/// };
/// let mut db = DynamicDatabase::build(vec![mk("a", 0.9), mk("b", 0.8)], EngineConfig::default());
/// db.insert_graph(mk("c", 0.1)); // appends one PMI column, no rebuild
/// let q = GraphBuilder::new().vertices(&[0, 0]).edge(0, 1, 0).build();
/// let result = db.query(&q, &QueryParams { epsilon: 0.5, delta: 0, ..QueryParams::default() }).unwrap();
/// assert_eq!(result.answers, vec![0, 1]);
/// let removed = db.remove_graph(2).unwrap();
/// assert_eq!(removed.name(), "c");
/// assert!(db.staleness() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicDatabase {
    engine: QueryEngine,
    remine_threshold: f64,
}

/// Default churn fraction beyond which [`DynamicDatabase::should_remine`]
/// recommends re-mining the feature set.
pub const DEFAULT_REMINE_THRESHOLD: f64 = 0.5;

impl DynamicDatabase {
    /// Builds the database and its index from scratch.
    pub fn build(graphs: Vec<ProbabilisticGraph>, config: EngineConfig) -> DynamicDatabase {
        DynamicDatabase {
            engine: QueryEngine::build(graphs, config),
            remine_threshold: DEFAULT_REMINE_THRESHOLD,
        }
    }

    /// Assembles the database from graphs and a pre-built index, verifying
    /// that the index columns match the graph contents.
    pub fn from_parts(
        graphs: Vec<ProbabilisticGraph>,
        pmi: Pmi,
        config: EngineConfig,
    ) -> Result<DynamicDatabase, DbError> {
        Ok(DynamicDatabase {
            engine: QueryEngine::from_parts(graphs, pmi, config)?,
            remine_threshold: DEFAULT_REMINE_THRESHOLD,
        })
    }

    /// Opens a database whose index was previously saved with
    /// [`DynamicDatabase::save_index`]: loads the snapshot and pairs the
    /// index with `graphs` without rebuilding anything.  The file is read
    /// once; the database does not depend on it afterwards.
    pub fn open(
        graphs: Vec<ProbabilisticGraph>,
        index_path: impl AsRef<Path>,
        config: EngineConfig,
    ) -> Result<DynamicDatabase, DbError> {
        Ok(DynamicDatabase {
            engine: QueryEngine::with_index(graphs, index_path, config)?,
            remine_threshold: DEFAULT_REMINE_THRESHOLD,
        })
    }

    /// Saves the index (not the graphs — those live in the application's own
    /// storage) to `path` in the versioned binary snapshot format.
    pub fn save_index(&self, path: impl AsRef<Path>) -> Result<(), DbError> {
        Ok(self.engine.pmi().save(path)?)
    }

    /// Inserts a graph, incrementally appending its PMI column, and returns
    /// its index.
    pub fn insert_graph(&mut self, graph: ProbabilisticGraph) -> usize {
        self.engine.insert_graph(graph)
    }

    /// Removes the graph at `index`, dropping its PMI column; every later
    /// graph shifts down by one.
    pub fn remove_graph(&mut self, index: usize) -> Result<ProbabilisticGraph, DbError> {
        self.engine
            .remove_graph(index)
            .ok_or(DbError::GraphOutOfRange(index))
    }

    /// Number of stored graphs.
    pub fn len(&self) -> usize {
        self.engine.db().len()
    }

    /// True if the database holds no graphs.
    pub fn is_empty(&self) -> bool {
        self.engine.db().is_empty()
    }

    /// All stored graphs, in index order.
    pub fn graphs(&self) -> &[ProbabilisticGraph] {
        self.engine.db()
    }

    /// The underlying query engine.
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// Churn fraction since the features were last mined (see
    /// `Pmi::staleness`).
    pub fn staleness(&self) -> f64 {
        self.engine.pmi().staleness()
    }

    /// True once [`DynamicDatabase::staleness`] passes the re-mine threshold.
    pub fn should_remine(&self) -> bool {
        self.staleness() >= self.remine_threshold
    }

    /// Sets the churn fraction beyond which [`DynamicDatabase::should_remine`]
    /// fires (default [`DEFAULT_REMINE_THRESHOLD`]).
    pub fn set_remine_threshold(&mut self, threshold: f64) {
        self.remine_threshold = threshold.max(0.0);
    }

    /// Re-mines the feature set and rebuilds the index over the current
    /// contents (the remedy for a stale index); resets the churn counter.
    pub fn remine(&mut self) {
        let config = *self.engine.config();
        // Move the graphs out of the old engine instead of cloning them — a
        // re-mine tends to fire exactly when the database is large.
        let placeholder = QueryEngine::build(Vec::new(), config);
        let graphs = std::mem::replace(&mut self.engine, placeholder).into_db();
        self.engine = QueryEngine::build(graphs, config);
    }

    /// Answers a T-PS query (see `QueryEngine::query`).
    pub fn query(&self, query: &Graph, params: &QueryParams) -> Result<QueryResult, DbError> {
        Ok(self.engine.query(query, params)?)
    }

    /// Answers a batch of T-PS queries (see `QueryEngine::query_batch`).
    pub fn query_batch(
        &self,
        queries: &[Graph],
        params: &QueryParams,
    ) -> Result<BatchResult, DbError> {
        Ok(self.engine.query_batch(queries, params)?)
    }

    /// The `Exact` baseline scan (see `QueryEngine::exact_scan`).
    pub fn exact_scan(&self, query: &Graph, params: &QueryParams) -> Result<QueryResult, DbError> {
        Ok(self.engine.exact_scan(query, params)?)
    }

    /// Answers a top-k query (see `QueryEngine::query_topk`).
    pub fn query_topk(&self, query: &Graph, params: &TopkParams) -> Result<TopkResult, DbError> {
        Ok(self.engine.query_topk(query, params)?)
    }

    /// Answers a batch of top-k queries (see `QueryEngine::query_topk_batch`).
    pub fn query_topk_batch(
        &self,
        queries: &[Graph],
        params: &TopkParams,
    ) -> Result<TopkBatchResult, DbError> {
        Ok(self.engine.query_topk_batch(queries, params)?)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    fn triangle(name: &str, p: f64) -> ProbabilisticGraph {
        let g = GraphBuilder::new()
            .name(name)
            .vertices(&[0, 1, 2])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(0, 2, 0)
            .build();
        ProbabilisticGraph::independent(g, &[p, p, p]).unwrap()
    }

    #[test]
    fn insert_build_query_roundtrip() {
        let mut db = ProbGraphDatabase::new();
        assert!(db.is_empty());
        db.insert(triangle("strong", 0.95));
        db.insert(triangle("weak", 0.1));
        assert_eq!(db.len(), 2);
        assert!(!db.is_indexed());
        db.build_index();
        assert!(db.is_indexed());

        let q = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(0, 2, 0)
            .build();
        // The strong triangle has SSP = 0.95^3 ≈ 0.857 at δ = 0; the weak one 0.001.
        let matches = db.query(&q, 0.5, 0).unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].name, "strong");
        assert_eq!(matches[0].graph_index, 0);
    }

    #[test]
    fn query_before_index_errors() {
        let db = ProbGraphDatabase::new();
        let q = GraphBuilder::new().vertices(&[0, 1]).edge(0, 1, 0).build();
        assert_eq!(db.query(&q, 0.5, 0).unwrap_err(), DbError::IndexNotBuilt);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let mut db = ProbGraphDatabase::new();
        db.insert(triangle("a", 0.5));
        db.build_index();
        let q = GraphBuilder::new().vertices(&[0, 1]).edge(0, 1, 0).build();
        assert_eq!(db.query(&q, 0.0, 0).unwrap_err(), DbError::InvalidThreshold);
        assert_eq!(db.query(&q, 1.5, 0).unwrap_err(), DbError::InvalidThreshold);
        let empty = Graph::new();
        assert_eq!(db.query(&empty, 0.5, 0).unwrap_err(), DbError::EmptyQuery);
    }

    #[test]
    fn inserting_invalidates_the_index() {
        let mut db = ProbGraphDatabase::new();
        db.insert(triangle("a", 0.9));
        db.build_index();
        assert!(db.is_indexed());
        db.insert(triangle("b", 0.9));
        assert!(!db.is_indexed());
        db.build_index();
        assert_eq!(db.engine().unwrap().pmi().graph_count(), 2);
    }

    #[test]
    fn detailed_query_and_exact_scan_agree() {
        let mut db = ProbGraphDatabase::new();
        db.extend([triangle("a", 0.9), triangle("b", 0.4), triangle("c", 0.05)]);
        db.build_index();
        let q = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .build();
        let params = QueryParams {
            epsilon: 0.3,
            delta: 0,
            variant: PruningVariant::OptSspBound,
        };
        let fast = db.query_detailed(&q, &params).unwrap();
        let exact = db.exact_scan(&q, &params).unwrap();
        assert_eq!(fast.answers, exact.answers);
        assert!(fast.stats.structural_candidates <= db.len());
    }

    #[test]
    fn query_batch_agrees_with_individual_queries() {
        let mut db = ProbGraphDatabase::new();
        db.extend([triangle("a", 0.9), triangle("b", 0.4), triangle("c", 0.05)]);
        db.build_index();
        let q1 = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .build();
        let q2 = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(0, 2, 0)
            .build();
        let params = QueryParams {
            epsilon: 0.3,
            delta: 0,
            variant: PruningVariant::OptSspBound,
        };
        let batch = db.query_batch(&[q1.clone(), q2.clone()], &params).unwrap();
        assert_eq!(batch.results.len(), 2);
        for (q, r) in [q1, q2].iter().zip(&batch.results) {
            assert_eq!(r.answers, db.query_detailed(q, &params).unwrap().answers);
        }
        // Batch-level validation mirrors the single-query path.
        let empty = Graph::new();
        assert_eq!(
            db.query_batch(&[empty], &params).unwrap_err(),
            DbError::EmptyQuery
        );
        assert_eq!(
            ProbGraphDatabase::new()
                .query_batch(&[], &params)
                .unwrap_err(),
            DbError::IndexNotBuilt
        );
    }

    #[test]
    fn graph_accessors() {
        let mut db = ProbGraphDatabase::new();
        db.insert(triangle("only", 0.7));
        assert_eq!(db.graph(0).unwrap().name(), "only");
        assert!(db.graph(1).is_none());
        assert_eq!(db.graphs().len(), 1);
    }

    #[test]
    fn error_display() {
        assert!(DbError::IndexNotBuilt.to_string().contains("build_index"));
        assert!(DbError::EmptyQuery.to_string().contains("no edges"));
        assert!(DbError::InvalidThreshold.to_string().contains("(0, 1]"));
        assert!(DbError::GraphOutOfRange(7).to_string().contains('7'));
        assert!(DbError::Snapshot("boom".into())
            .to_string()
            .contains("boom"));
        assert!(DbError::IndexMismatch("salt".into())
            .to_string()
            .contains("salt"));
    }

    #[test]
    fn nan_epsilon_is_a_typed_error_everywhere() {
        let mut db = ProbGraphDatabase::new();
        db.insert(triangle("a", 0.5));
        db.build_index();
        let q = GraphBuilder::new().vertices(&[0, 1]).edge(0, 1, 0).build();
        let params = QueryParams {
            epsilon: f64::NAN,
            delta: 0,
            variant: PruningVariant::OptSspBound,
        };
        assert_eq!(
            db.query_detailed(&q, &params).unwrap_err(),
            DbError::InvalidThreshold
        );
        assert_eq!(
            db.exact_scan(&q, &params).unwrap_err(),
            DbError::InvalidThreshold
        );
        assert_eq!(
            db.query_batch(std::slice::from_ref(&q), &params)
                .unwrap_err(),
            DbError::InvalidThreshold
        );
        let dynamic = DynamicDatabase::build(vec![triangle("a", 0.5)], EngineConfig::default());
        assert_eq!(
            dynamic.query(&q, &params).unwrap_err(),
            DbError::InvalidThreshold
        );
        assert_eq!(
            dynamic.exact_scan(&q, &params).unwrap_err(),
            DbError::InvalidThreshold
        );
    }

    #[test]
    fn dynamic_database_inserts_and_removes_without_rebuilds() {
        let mut db = DynamicDatabase::build(
            vec![triangle("strong", 0.95), triangle("weak", 0.1)],
            EngineConfig::default(),
        );
        assert_eq!(db.len(), 2);
        assert_eq!(db.staleness(), 0.0);
        assert!(!db.should_remine());

        let idx = db.insert_graph(triangle("medium", 0.7));
        assert_eq!(idx, 2);
        assert_eq!(db.engine().pmi().graph_count(), 3);

        let q = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(0, 2, 0)
            .build();
        let params = QueryParams {
            epsilon: 0.3,
            delta: 0,
            variant: PruningVariant::OptSspBound,
        };
        assert_eq!(db.query(&q, &params).unwrap().answers, vec![0, 2]);

        let removed = db.remove_graph(0).unwrap();
        assert_eq!(removed.name(), "strong");
        assert_eq!(db.len(), 2);
        // "medium" shifted down to index 1.
        assert_eq!(db.query(&q, &params).unwrap().answers, vec![1]);
        assert_eq!(
            db.remove_graph(99).unwrap_err(),
            DbError::GraphOutOfRange(99)
        );

        // Two mutations over two graphs: churn fraction 1.0, well past the
        // default re-mine threshold.
        assert_eq!(db.staleness(), 1.0);
        assert!(db.should_remine());
        db.remine();
        assert_eq!(db.staleness(), 0.0);
        assert_eq!(db.query(&q, &params).unwrap().answers, vec![1]);
        db.set_remine_threshold(0.0);
        assert!(db.should_remine());
    }

    #[test]
    fn dynamic_database_save_open_round_trip() {
        let graphs = vec![triangle("a", 0.9), triangle("b", 0.4)];
        let db = DynamicDatabase::build(graphs.clone(), EngineConfig::default());
        let path = std::env::temp_dir().join(format!("pgs-core-dyndb-{}.pmi", std::process::id()));
        db.save_index(&path).unwrap();
        let reopened = DynamicDatabase::open(graphs.clone(), &path, EngineConfig::default());
        let mismatched = DynamicDatabase::open(
            vec![triangle("a", 0.9), triangle("DIFFERENT", 0.4)],
            &path,
            EngineConfig::default(),
        );
        let reopened = reopened.unwrap();
        // The reopened database no longer needs the file.
        std::fs::remove_file(&path).ok();
        let q = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .build();
        let params = QueryParams {
            epsilon: 0.3,
            delta: 0,
            variant: PruningVariant::OptSspBound,
        };
        assert_eq!(
            reopened.query(&q, &params).unwrap().answers,
            db.query(&q, &params).unwrap().answers
        );
        assert!(matches!(mismatched.unwrap_err(), DbError::IndexMismatch(_)));
        assert!(matches!(
            DynamicDatabase::open(graphs, "/nonexistent/idx.pmi", EngineConfig::default())
                .unwrap_err(),
            DbError::Snapshot(_)
        ));
    }

    #[test]
    fn invalid_shard_counts_surface_as_typed_facade_errors() {
        let q = GraphBuilder::new().vertices(&[0, 1]).edge(0, 1, 0).build();
        let params = QueryParams {
            epsilon: 0.5,
            delta: 0,
            variant: PruningVariant::OptSspBound,
        };
        let topk = TopkParams {
            k: 1,
            delta: 0,
            variant: PruningVariant::OptSspBound,
        };
        for shards in [0usize, 2] {
            let config = EngineConfig {
                shards,
                ..EngineConfig::default()
            };
            let db = DynamicDatabase::build(vec![triangle("a", 0.5)], config);
            let err = db.query(&q, &params).unwrap_err();
            assert!(matches!(err, DbError::InvalidShardConfig(_)));
            assert!(err.to_string().contains("shard"));
            assert!(matches!(
                db.exact_scan(&q, &params).unwrap_err(),
                DbError::InvalidShardConfig(_)
            ));
            assert!(matches!(
                db.query_topk(&q, &topk).unwrap_err(),
                DbError::InvalidShardConfig(_)
            ));
        }
    }

    #[test]
    fn topk_facade_ranks_by_probability() {
        let mut db = ProbGraphDatabase::new();
        db.extend([triangle("a", 0.9), triangle("b", 0.4), triangle("c", 0.05)]);
        db.build_index();
        let q = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .build();
        let top2 = db.query_topk(&q, 2, 0).unwrap();
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[0].name, "a");
        assert_eq!(top2[1].name, "b");

        let detailed = db
            .query_topk_detailed(
                &q,
                &TopkParams {
                    k: 2,
                    delta: 0,
                    variant: PruningVariant::OptSspBound,
                },
            )
            .unwrap();
        assert_eq!(detailed.ranked.len(), 2);
        assert_eq!(detailed.ranked[0].graph, 0);
        assert!(detailed.ranked[0].ssp >= detailed.ranked[1].ssp);

        // The dynamic facade agrees with the static one.
        let dynamic = DynamicDatabase::build(db.graphs().to_vec(), EngineConfig::default());
        let dyn_top = dynamic
            .query_topk(
                &q,
                &TopkParams {
                    k: 2,
                    delta: 0,
                    variant: PruningVariant::OptSspBound,
                },
            )
            .unwrap();
        assert_eq!(
            dyn_top.ranked.iter().map(|r| r.graph).collect::<Vec<_>>(),
            vec![0, 1]
        );

        // Batch answers are byte-identical to solo answers.
        let batch = db
            .query_topk_batch(
                std::slice::from_ref(&q),
                &TopkParams {
                    k: 2,
                    delta: 0,
                    variant: PruningVariant::OptSspBound,
                },
            )
            .unwrap();
        assert_eq!(batch.results.len(), 1);
        assert_eq!(batch.results[0].ranked, detailed.ranked);
        let dyn_batch = dynamic
            .query_topk_batch(
                std::slice::from_ref(&q),
                &TopkParams {
                    k: 2,
                    delta: 0,
                    variant: PruningVariant::OptSspBound,
                },
            )
            .unwrap();
        assert_eq!(dyn_batch.results[0].ranked, detailed.ranked);
    }

    #[test]
    fn topk_facade_surfaces_typed_errors() {
        let q = GraphBuilder::new().vertices(&[0, 1]).edge(0, 1, 0).build();
        let unindexed = ProbGraphDatabase::new();
        assert_eq!(
            unindexed.query_topk(&q, 1, 0).unwrap_err(),
            DbError::IndexNotBuilt
        );

        let mut db = ProbGraphDatabase::new();
        db.insert(triangle("a", 0.5));
        db.build_index();
        let err = db.query_topk(&q, 0, 0).unwrap_err();
        assert!(matches!(err, DbError::InvalidK(_)));
        assert!(err.to_string().contains("top-k"));
        let params = TopkParams {
            k: 0,
            delta: 0,
            variant: PruningVariant::OptSspBound,
        };
        assert!(matches!(
            db.query_topk_detailed(&q, &params).unwrap_err(),
            DbError::InvalidK(_)
        ));
        assert!(matches!(
            db.query_topk_batch(std::slice::from_ref(&q), &params)
                .unwrap_err(),
            DbError::InvalidK(_)
        ));
        let empty = Graph::new();
        assert_eq!(
            db.query_topk(&empty, 1, 0).unwrap_err(),
            DbError::EmptyQuery
        );

        let dynamic = DynamicDatabase::build(vec![triangle("a", 0.5)], EngineConfig::default());
        assert!(matches!(
            dynamic.query_topk(&q, &params).unwrap_err(),
            DbError::InvalidK(_)
        ));
        assert!(matches!(
            dynamic
                .query_topk_batch(std::slice::from_ref(&q), &params)
                .unwrap_err(),
            DbError::InvalidK(_)
        ));
    }

    #[test]
    fn dynamic_database_from_parts_validates() {
        let graphs = vec![triangle("a", 0.9), triangle("b", 0.4)];
        let db = DynamicDatabase::build(graphs.clone(), EngineConfig::default());
        let pmi = db.engine().pmi().clone();
        assert!(
            DynamicDatabase::from_parts(graphs.clone(), pmi.clone(), EngineConfig::default())
                .is_ok()
        );
        let err = DynamicDatabase::from_parts(graphs[..1].to_vec(), pmi, EngineConfig::default())
            .unwrap_err();
        assert!(matches!(err, DbError::IndexMismatch(_)));
    }
}
