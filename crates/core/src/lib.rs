//! # pgs-core — probabilistic subgraph similarity search
//!
//! The public facade of the workspace: a [`DynamicDatabase`] that stores
//! probabilistic graphs together with their Probabilistic Matrix Index (PMI)
//! and answers **threshold-based probabilistic subgraph similarity queries
//! (T-PS)** as defined by Yuan, Wang, Chen and Wang, *"Efficient Subgraph
//! Similarity Search on Large Probabilistic Graph Databases"*, VLDB 2012.
//!
//! ```
//! use pgs_core::prelude::*;
//!
//! // Build two tiny probabilistic graphs (a triangle and a path) and query them.
//! let mut graphs = Vec::new();
//! for (name, edges) in [("triangle", vec![(0, 1), (1, 2), (0, 2)]), ("path", vec![(0, 1), (1, 2)])] {
//!     let mut builder = GraphBuilder::new().name(name).vertices(&[0, 0, 0]);
//!     for &(u, v) in &edges {
//!         builder = builder.edge(u, v, 0);
//!     }
//!     let skeleton = builder.build();
//!     let probs = vec![0.9; skeleton.edge_count()];
//!     graphs.push(ProbabilisticGraph::independent(skeleton, &probs).unwrap());
//! }
//! let db = DynamicDatabase::build(graphs, EngineConfig::default());
//!
//! let query = GraphBuilder::new().vertices(&[0, 0, 0]).edge(0, 1, 0).edge(1, 2, 0).build();
//! let params = QueryParams { epsilon: 0.5, delta: 0, ..QueryParams::default() };
//! let result = db.query(&query, &params).unwrap();
//! assert_eq!(result.answers, vec![0, 1]); // both graphs contain a 2-edge path with high probability
//! ```
//!
//! The lower-level building blocks (graph model, probabilistic model, PMI,
//! pruning, verification, dataset generation) are re-exported from the
//! sub-crates for users who need finer control.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use pgs_graph::model::Graph;
use pgs_index::snapshot::SnapshotError;
use pgs_prob::model::ProbabilisticGraph;
use pgs_query::pipeline::{
    BatchResult, EngineConfig, EngineLoadError, IndexMismatch, QueryEngine, QueryError,
    QueryParams, QueryResult, TopkBatchResult, TopkParams, TopkResult,
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
    pub use crate::{DbError, DynamicDatabase};
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

/// Errors surfaced by the facade: the engine's own typed errors, plus the
/// one check the facade adds itself.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// The engine rejected a query (bad parameters or configuration).
    Query(QueryError),
    /// Saving or loading an index snapshot failed.
    Snapshot(SnapshotError),
    /// A loaded index snapshot does not match the database contents.
    IndexMismatch(IndexMismatch),
    /// A graph index was out of range for the current database.
    GraphOutOfRange(usize),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Query(e) => e.fmt(f),
            DbError::Snapshot(e) => e.fmt(f),
            DbError::IndexMismatch(e) => e.fmt(f),
            DbError::GraphOutOfRange(i) => write!(f, "graph index {i} is out of range"),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Query(e) => Some(e),
            DbError::Snapshot(e) => Some(e),
            DbError::IndexMismatch(e) => Some(e),
            DbError::GraphOutOfRange(_) => None,
        }
    }
}

impl From<QueryError> for DbError {
    fn from(e: QueryError) -> Self {
        DbError::Query(e)
    }
}

impl From<SnapshotError> for DbError {
    fn from(e: SnapshotError) -> Self {
        DbError::Snapshot(e)
    }
}

impl From<IndexMismatch> for DbError {
    fn from(e: IndexMismatch) -> Self {
        DbError::IndexMismatch(e)
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

/// A mutable, always-indexed database of probabilistic graphs with an
/// explicit index lifecycle: [`DynamicDatabase::build`] once,
/// [`DynamicDatabase::save_index`] to disk, [`DynamicDatabase::open`] in later
/// processes, and mutate with [`DynamicDatabase::insert_graph`] /
/// [`DynamicDatabase::remove_graph`] *without* rebuilding — an insert computes
/// the SIP bounds of the existing features in the new graph and appends one
/// PMI column; a remove drops one.
///
/// Incremental mutations never re-mine the feature set, so after heavy churn
/// the features describe a database that no longer exists.  The bounds stay
/// correct (pruning never returns wrong answers) but lose pruning power;
/// [`DynamicDatabase::staleness`] tracks the churn fraction and
/// [`DynamicDatabase::should_remine`] recommends a [`DynamicDatabase::remine`]
/// (full rebuild) once the churn fraction reaches one half.
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
}

/// Churn fraction at which [`DynamicDatabase::should_remine`] recommends
/// re-mining the feature set.
const REMINE_THRESHOLD: f64 = 0.5;

impl DynamicDatabase {
    /// Builds the database and its index from scratch.
    pub fn build(graphs: Vec<ProbabilisticGraph>, config: EngineConfig) -> DynamicDatabase {
        DynamicDatabase {
            engine: QueryEngine::build(graphs, config),
        }
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

    /// True once [`DynamicDatabase::staleness`] reaches one half.
    pub fn should_remine(&self) -> bool {
        self.staleness() >= REMINE_THRESHOLD
    }

    /// Re-mines the feature set and rebuilds the index over the current
    /// contents (the remedy for a stale index); resets the churn counter.
    pub fn remine(&mut self) {
        self.engine.remine();
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
    use pgs_graph::parallel::MAX_THREADS;

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

    fn wedge() -> Graph {
        GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .build()
    }

    fn params(epsilon: f64) -> QueryParams {
        QueryParams {
            epsilon,
            delta: 0,
            variant: PruningVariant::OptSspBound,
        }
    }

    fn topk(k: usize) -> TopkParams {
        TopkParams {
            k,
            delta: 0,
            variant: PruningVariant::OptSspBound,
        }
    }

    #[test]
    fn build_query_roundtrip() {
        let db = DynamicDatabase::build(
            vec![triangle("strong", 0.95), triangle("weak", 0.1)],
            EngineConfig::default(),
        );
        assert_eq!(db.len(), 2);
        assert!(!db.is_empty());
        let q = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(0, 2, 0)
            .build();
        // The strong triangle has SSP = 0.95^3 ≈ 0.857 at δ = 0; the weak one 0.001.
        let answers = db.query(&q, &params(0.5)).unwrap().answers;
        assert_eq!(answers, vec![0]);
        assert_eq!(db.graphs()[answers[0]].name(), "strong");
    }

    #[test]
    fn query_and_exact_scan_agree() {
        let db = DynamicDatabase::build(
            vec![triangle("a", 0.9), triangle("b", 0.4), triangle("c", 0.05)],
            EngineConfig::default(),
        );
        let fast = db.query(&wedge(), &params(0.3)).unwrap();
        let exact = db.exact_scan(&wedge(), &params(0.3)).unwrap();
        assert_eq!(fast.answers, exact.answers);
        assert!(fast.stats.structural_candidates <= db.len());
    }

    #[test]
    fn query_batch_agrees_with_individual_queries() {
        let db = DynamicDatabase::build(
            vec![triangle("a", 0.9), triangle("b", 0.4), triangle("c", 0.05)],
            EngineConfig::default(),
        );
        let q1 = wedge();
        let q2 = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(0, 2, 0)
            .build();
        let batch = db
            .query_batch(&[q1.clone(), q2.clone()], &params(0.3))
            .unwrap();
        assert_eq!(batch.results.len(), 2);
        for (q, r) in [q1, q2].iter().zip(&batch.results) {
            assert_eq!(r.answers, db.query(q, &params(0.3)).unwrap().answers);
        }
    }

    /// Every facade error is the engine's (or the snapshot layer's) own
    /// typed error, displayed verbatim and exposed as the `source()`.
    #[test]
    fn facade_errors_carry_the_engine_errors() {
        const ALL: &[&str] = &[
            "query",
            "query_batch",
            "exact_scan",
            "query_topk",
            "query_topk_batch",
        ];
        const THRESHOLD: &[&str] = &["query", "query_batch", "exact_scan"];
        const TOPK: &[&str] = &["query_topk", "query_topk_batch"];

        /// The inputs of one facade call; `ok` below is accepted everywhere.
        #[derive(Clone)]
        struct Input {
            config: EngineConfig,
            query: Graph,
            epsilon: f64,
            k: usize,
        }
        let base = EngineConfig::default();
        let ok = Input {
            config: base,
            query: GraphBuilder::new().vertices(&[0, 1]).edge(0, 1, 0).build(),
            epsilon: 0.5,
            k: 1,
        };
        let with_config = |config: EngineConfig| Input {
            config,
            ..ok.clone()
        };
        let mut bad_exact = base;
        bad_exact.exact.fallback_mc.tau = f64::NAN;
        let mut bad_verify = base;
        bad_verify.verify.max_embeddings = 0;
        let (mc, verify_mc) = (base.exact.fallback_mc, base.verify.mc);

        // (inputs, the engine's error, the entry points that must return it;
        // every other entry point must answer).
        let cases = [
            (
                Input {
                    epsilon: f64::NAN,
                    ..ok.clone()
                },
                QueryError::InvalidEpsilon { epsilon: f64::NAN },
                THRESHOLD,
            ),
            (
                Input {
                    epsilon: 0.0,
                    ..ok.clone()
                },
                QueryError::InvalidEpsilon { epsilon: 0.0 },
                THRESHOLD,
            ),
            (
                Input {
                    epsilon: 1.5,
                    ..ok.clone()
                },
                QueryError::InvalidEpsilon { epsilon: 1.5 },
                THRESHOLD,
            ),
            (
                Input {
                    query: Graph::new(),
                    ..ok.clone()
                },
                QueryError::EmptyQuery,
                ALL,
            ),
            (
                Input { k: 0, ..ok.clone() },
                QueryError::InvalidK { k: 0 },
                TOPK,
            ),
            (
                with_config(bad_exact),
                QueryError::InvalidExactScanConfig {
                    tau: f64::NAN,
                    xi: mc.xi,
                    max_samples: mc.max_samples,
                },
                &["exact_scan"],
            ),
            (
                with_config(bad_verify),
                QueryError::InvalidVerifyOptions {
                    max_embeddings: 0,
                    tau: verify_mc.tau,
                    xi: verify_mc.xi,
                },
                ALL,
            ),
            (
                with_config(EngineConfig {
                    threads: MAX_THREADS + 1,
                    ..base
                }),
                QueryError::InvalidThreads {
                    threads: MAX_THREADS + 1,
                    max: MAX_THREADS,
                },
                ALL,
            ),
            (
                with_config(EngineConfig { shards: 0, ..base }),
                QueryError::InvalidShards { shards: 0, max: 1 },
                ALL,
            ),
            (
                with_config(EngineConfig { shards: 2, ..base }),
                QueryError::InvalidShards { shards: 2, max: 1 },
                ALL,
            ),
        ];
        for (input, expected, failing) in cases {
            let db = DynamicDatabase::build(vec![triangle("a", 0.5)], input.config);
            let q = &input.query;
            let qs = std::slice::from_ref(q);
            let (params, topk) = (params(input.epsilon), topk(input.k));
            let outcomes = [
                ("query", db.query(q, &params).err()),
                ("query_batch", db.query_batch(qs, &params).err()),
                ("exact_scan", db.exact_scan(q, &params).err()),
                ("query_topk", db.query_topk(q, &topk).err()),
                ("query_topk_batch", db.query_topk_batch(qs, &topk).err()),
            ];
            for (call, err) in outcomes {
                if !failing.contains(&call) {
                    assert_eq!(err, None, "{call} must accept the {expected:?} case");
                    continue;
                }
                let err = err.unwrap_or_else(|| panic!("{call} must reject: {expected:?}"));
                // Debug, not `==`: a NaN field never compares equal.
                assert!(
                    matches!(&err, DbError::Query(e) if format!("{e:?}") == format!("{expected:?}")),
                    "{call}: {err:?} is not DbError::Query({expected:?})"
                );
                assert_eq!(err.to_string(), expected.to_string(), "{call}");
                assert!(std::error::Error::source(&err).is_some(), "{call}");
            }
        }

        // The load path: a missing file and a snapshot of other graphs.
        let graphs = vec![triangle("a", 0.9), triangle("b", 0.4)];
        let db = DynamicDatabase::build(graphs.clone(), base);
        let path = std::env::temp_dir().join(format!("pgs-core-errors-{}.pmi", std::process::id()));
        db.save_index(&path).unwrap();
        let mismatched = DynamicDatabase::open(
            vec![triangle("a", 0.9), triangle("DIFFERENT", 0.4)],
            &path,
            base,
        );
        std::fs::remove_file(&path).ok();
        let missing = DynamicDatabase::open(graphs, "/nonexistent/idx.pmi", base);
        for err in [mismatched.unwrap_err(), missing.unwrap_err()] {
            let inner = match &err {
                DbError::IndexMismatch(e) => e.to_string(),
                DbError::Snapshot(e) => e.to_string(),
                other => panic!("open returned {other:?}"),
            };
            assert_eq!(err.to_string(), inner);
            assert!(std::error::Error::source(&err).is_some());
        }

        let mut db = db;
        let err = db.remove_graph(99).unwrap_err();
        assert_eq!(err, DbError::GraphOutOfRange(99));
        assert_eq!(err.to_string(), "graph index 99 is out of range");
        assert!(std::error::Error::source(&err).is_none());
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
        assert_eq!(db.query(&q, &params(0.3)).unwrap().answers, vec![0, 2]);

        let removed = db.remove_graph(0).unwrap();
        assert_eq!(removed.name(), "strong");
        assert_eq!(db.len(), 2);
        // "medium" shifted down to index 1.
        assert_eq!(db.query(&q, &params(0.3)).unwrap().answers, vec![1]);

        // Two mutations over two graphs: churn fraction 1.0, well past the
        // re-mine threshold.
        assert_eq!(db.staleness(), 1.0);
        assert!(db.should_remine());
        db.remine();
        assert_eq!(db.staleness(), 0.0);
        assert_eq!(db.len(), 2);
        assert_eq!(db.query(&q, &params(0.3)).unwrap().answers, vec![1]);
    }

    #[test]
    fn dynamic_database_save_open_round_trip() {
        let graphs = vec![triangle("a", 0.9), triangle("b", 0.4)];
        let db = DynamicDatabase::build(graphs.clone(), EngineConfig::default());
        let path = std::env::temp_dir().join(format!("pgs-core-dyndb-{}.pmi", std::process::id()));
        db.save_index(&path).unwrap();
        let reopened = DynamicDatabase::open(graphs, &path, EngineConfig::default()).unwrap();
        // The reopened database no longer needs the file.
        std::fs::remove_file(&path).ok();
        assert_eq!(
            reopened.query(&wedge(), &params(0.3)).unwrap().answers,
            db.query(&wedge(), &params(0.3)).unwrap().answers
        );
    }

    #[test]
    fn topk_facade_ranks_by_probability() {
        let db = DynamicDatabase::build(
            vec![triangle("a", 0.9), triangle("b", 0.4), triangle("c", 0.05)],
            EngineConfig::default(),
        );
        let top2 = db.query_topk(&wedge(), &topk(2)).unwrap();
        assert_eq!(
            top2.ranked.iter().map(|r| r.graph).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert!(top2.ranked[0].ssp >= top2.ranked[1].ssp);

        // Batch answers are byte-identical to solo answers.
        let batch = db
            .query_topk_batch(std::slice::from_ref(&wedge()), &topk(2))
            .unwrap();
        assert_eq!(batch.results.len(), 1);
        assert_eq!(batch.results[0].ranked, top2.ranked);
    }
}
