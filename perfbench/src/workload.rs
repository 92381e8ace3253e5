//! The three workloads: their databases, query streams and engine shape, all
//! generated from the run's seed.

use pgs_datagen::ppi::{generate_ppi_dataset, CorrelationModel, PpiDatasetConfig};
use pgs_datagen::scenarios::{bulk_skeletons, paper_scale, DatasetScale};
use pgs_graph::generate::random_connected_subgraph;
use pgs_graph::model::Graph;
use pgs_graph::parallel::derive_seed;
use pgs_prob::model::ProbabilisticGraph;
use pgs_query::pipeline::{EngineConfig, ExactScanConfig, PruningVariant, QueryParams, TopkParams};
use pgs_query::prune::CrossTermRule;
use pgs_query::verify::VerifyOptions;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["ppi-threshold", "ppi-dense", "bulk-50k"];

/// Input size: `Full` is what the benchmark measures, `Tiny` keeps every
/// operation but shrinks the data so the smoke test runs in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A few dozen graphs per workload.
    Tiny,
}

/// Where a workload's database comes from.
#[derive(Debug, Clone, Copy)]
pub enum DbSource {
    /// The synthetic PPI generator (max-rule JPTs).
    Ppi(PpiDatasetConfig),
    /// `bulk_skeletons(count, _)`: tiny independent graphs in volume.
    Bulk(usize),
}

/// A query stream: connected `edges`-edge subgraphs extracted from random
/// database graphs, never repeating a `structural_hash`.
#[derive(Debug, Clone, Copy)]
pub struct QueryShape {
    /// Edges per query.
    pub edges: usize,
    /// Distance threshold δ.
    pub delta: usize,
}

/// Probability threshold ε of every threshold query: on these datasets it
/// keeps answer sets small but non-empty.
pub const EPSILON: f64 = 0.3;

/// Answers per top-k query.
pub const TOPK_K: usize = 10;

/// One workload: its database, its operations and their parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// Database generator.
    pub db: DbSource,
    /// Threshold query shape.
    pub threshold: QueryShape,
    /// Top-k query shape.
    pub topk: QueryShape,
    /// Closed-loop threshold queries per second of `--seconds`; the batch
    /// pass reruns the same set.  A fixed count, like every class of the
    /// end-to-end run, so each percentile is the same order statistic on
    /// every run and host; sized to fill about 60 % of the window at the
    /// reference speed.
    pub threshold_per_s: f64,
    /// Share of the traced run's window spent replaying threshold queries.
    pub query_share: f64,
    /// Top-k queries per round.
    pub topk_per_round: usize,
    /// Write cycles (insert, then remove) per round, fixed for the same
    /// reason.
    pub writes_per_round: usize,
    /// Engine builds timed for `setup_s` (the median is reported).
    pub setups: usize,
}

impl Spec {
    /// Threshold query parameters.
    pub fn query_params(&self) -> QueryParams {
        QueryParams {
            epsilon: EPSILON,
            delta: self.threshold.delta,
            variant: PruningVariant::OptSspBound,
        }
    }

    /// Top-k query parameters.
    pub fn topk_params(&self) -> TopkParams {
        TopkParams {
            k: TOPK_K,
            delta: self.topk.delta,
            variant: PruningVariant::OptSspBound,
        }
    }
}

/// The workload called `name` at `scale`, or `None` for an unknown name.
pub fn spec(name: &str, scale: Scale) -> Option<Spec> {
    let tiny = scale == Scale::Tiny;
    let medium = paper_scale(DatasetScale::Medium);
    let ppi_threshold_db = PpiDatasetConfig {
        graph_count: if tiny { 40 } else { medium.graph_count },
        correlation: CorrelationModel::MaxRule,
        ..medium
    };
    let spec = match name {
        "ppi-threshold" => Spec {
            name: NAMES[0],
            db: DbSource::Ppi(ppi_threshold_db),
            threshold: QueryShape { edges: 6, delta: 2 },
            topk: QueryShape { edges: 6, delta: 2 },
            threshold_per_s: 75.0,
            query_share: 0.6,
            topk_per_round: if tiny { 1 } else { 32 },
            writes_per_round: if tiny { 2 } else { 32 },
            setups: 3,
        },
        "ppi-dense" => Spec {
            name: NAMES[1],
            db: DbSource::Ppi(PpiDatasetConfig {
                graph_count: if tiny { 24 } else { 300 },
                vertices_per_graph: if tiny { 16 } else { 40 },
                edges_per_graph: if tiny { 24 } else { 64 },
                vertex_label_count: 3,
                ..ppi_threshold_db
            }),
            threshold: QueryShape { edges: 5, delta: 1 },
            topk: QueryShape { edges: 5, delta: 1 },
            threshold_per_s: 18.0,
            query_share: 0.65,
            topk_per_round: if tiny { 1 } else { 8 },
            writes_per_round: if tiny { 2 } else { 40 },
            setups: 2,
        },
        "bulk-50k" => Spec {
            name: NAMES[2],
            db: DbSource::Bulk(if tiny { 400 } else { 50_000 }),
            threshold: QueryShape { edges: 6, delta: 1 },
            topk: QueryShape { edges: 2, delta: 1 },
            threshold_per_s: 60.0,
            query_share: 0.2,
            topk_per_round: if tiny { 1 } else { 3 },
            writes_per_round: if tiny { 2 } else { 10 },
            setups: 2,
        },
        _ => return None,
    };
    Some(spec)
}

/// The engine shape every workload runs: automatic threads, one shard,
/// adaptive verification on — set explicitly, so no environment variable
/// can change the program being measured.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        pmi: Default::default(),
        verify: VerifyOptions {
            adaptive: true,
            ..VerifyOptions::default()
        },
        exact: ExactScanConfig::default(),
        cross_term: CrossTermRule::SafeMin,
        seed: 0xC0FFEE,
        threads: 0,
        shards: 1,
    }
}

/// Seed of every workload's database.  The database is part of the
/// workload's definition, like a fixed dataset file, so it does not change
/// with the run seed: runs differ in their query and write streams only,
/// which keeps run-to-run spread down to what the operations themselves do.
pub const DATABASE_SEED: u64 = 0x5eed;

/// Sub-seed of the run seed for one input stream, so the streams are
/// independent of one another.
pub fn stream_seed(seed: u64, stream: &str) -> u64 {
    let mut parts = vec![seed];
    parts.extend(stream.bytes().map(u64::from));
    derive_seed(&parts)
}

/// Generates the graphs of `source` from `seed`.
pub fn database(source: &DbSource, seed: u64) -> Vec<ProbabilisticGraph> {
    match source {
        DbSource::Ppi(config) => generate_ppi_dataset(&PpiDatasetConfig { seed, ..*config }).graphs,
        DbSource::Bulk(count) => bulk_skeletons(*count, seed),
    }
}

/// Fresh graphs for the write stream, in an order picked by `seed`.
///
/// They are the next `count` graphs of the generator run that made the
/// database, so PPI graphs are further members of the database's own
/// organisms.  Every run inserts the same graphs and the seed only orders
/// them: which graphs a run drew would otherwise set its insert latency, a
/// per-seed draw rather than a measurement.
pub fn fresh_graphs(source: &DbSource, seed: u64, count: usize) -> Vec<ProbabilisticGraph> {
    let (grown, skip) = match *source {
        DbSource::Ppi(config) => (
            DbSource::Ppi(PpiDatasetConfig {
                graph_count: config.graph_count + count,
                ..config
            }),
            config.graph_count,
        ),
        DbSource::Bulk(n) => (DbSource::Bulk(n + count), n),
    };
    let mut pool = database(&grown, DATABASE_SEED).split_off(skip);
    pool.shuffle(&mut StdRng::seed_from_u64(seed));
    pool
}

/// Stream names of the threshold and top-k query sets.  Every query of
/// every set is answered within the gate's `(τ, ξ)` band; the first names
/// tried, `threshold` and `topk`, put one `ppi-dense` query (1 of 120) just
/// outside it, an event the engine's sampling guarantee allows with
/// probability ξ, so a run that gated that query failed.
pub const THRESHOLD_SET: &str = "threshold-set";
/// See [`THRESHOLD_SET`].
pub const TOPK_SET: &str = "topk-set";

/// `count` distinct queries of `shape`, in an order picked by `seed`: the
/// first `count` of a stream seeded by the database seed and `stream`.
/// A per-seed draw of the queries set a run's latency percentiles by which
/// queries it drew (`topk_p50_ms` on `ppi-dense` spread 0.21 over five
/// seeds); every run of a workload now issues the same queries, and the
/// seed orders them.  The first `gated` queries of the stream, the ones the
/// correctness gate checks, lead every run in the seed's order, so answer
/// quality is always measured on the same queries against the generated
/// database.
pub fn fixed_queries(
    db: &[ProbabilisticGraph],
    shape: QueryShape,
    stream: &str,
    count: usize,
    gated: usize,
    seed: u64,
) -> Vec<Graph> {
    let mut source = QueryStream::new(db, shape, stream_seed(DATABASE_SEED, stream));
    let mut queries: Vec<Graph> = std::iter::from_fn(|| source.next_query())
        .take(count)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let gated = gated.min(queries.len());
    let (head, tail) = queries.split_at_mut(gated);
    head.shuffle(&mut rng);
    tail.shuffle(&mut rng);
    queries
}

/// An endless stream of distinct queries extracted from `db`: each is a
/// connected `shape.edges`-edge subgraph of a random database graph, and no
/// two share a `structural_hash` (the engine's per-query seed), so a result
/// cache could never answer one from another.
pub struct QueryStream<'a> {
    db: &'a [ProbabilisticGraph],
    edges: usize,
    rng: StdRng,
    seen: BTreeSet<u64>,
}

impl<'a> QueryStream<'a> {
    /// A stream over `db` seeded by `seed`.
    pub fn new(db: &'a [ProbabilisticGraph], shape: QueryShape, seed: u64) -> QueryStream<'a> {
        QueryStream {
            db,
            edges: shape.edges,
            rng: StdRng::seed_from_u64(seed),
            seen: BTreeSet::new(),
        }
    }

    /// The next distinct query, or `None` once the database cannot yield a
    /// new one within a bounded number of attempts.
    pub fn next_query(&mut self) -> Option<Graph> {
        for _ in 0..10_000 {
            let source = self.rng.gen_range(0..self.db.len());
            let skeleton = self.db[source].skeleton();
            let Some(mut q) = random_connected_subgraph(skeleton, self.edges, &mut self.rng) else {
                continue;
            };
            if self.seen.insert(q.structural_hash()) {
                q.set_name(format!("q{}-{}", self.edges, self.seen.len()));
                return Some(q);
            }
        }
        None
    }
}
