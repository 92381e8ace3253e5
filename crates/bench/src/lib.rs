//! The paper's evaluation (Section 6, Figures 9–14) as data.
//!
//! Each `figure_*` function runs one figure's sweep on a synthetic
//! STRING-like dataset (see `pgs-datagen` and DESIGN.md §3 for the
//! substitution) and returns its series as rows of deterministic counters and
//! quality ratios.  The `experiments` binary formats the rows and
//! `tests/paper_figures.rs` asserts the paper's shape claims on them, so no
//! figure is computed twice.  Nothing here reads a clock: latency,
//! throughput and build times are measured by the benchmark in `perfbench/`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use pgs_datagen::ppi::{generate_ppi_dataset, CorrelationModel, PpiDataset, PpiDatasetConfig};
use pgs_datagen::queries::{generate_query_workload, QueryWorkloadConfig, WorkloadQuery};
use pgs_datagen::scenarios::{paper_scale, DatasetScale};
use pgs_graph::model::Graph;
use pgs_graph::parallel::derive_seed;
use pgs_graph::relax::relax_query_clamped;
use pgs_index::feature::FeatureSelectionParams;
use pgs_index::pmi::{Pmi, PmiBuildParams, PmiStats};
use pgs_index::sip_bounds::BoundsConfig;
use pgs_prob::independent::to_independent_model;
use pgs_prob::montecarlo::MonteCarloConfig;
use pgs_query::pipeline::{EngineConfig, PruningVariant, QueryEngine, QueryParams, QueryResult};
use pgs_query::structural::structural_candidates;
use pgs_query::verify::{verify_ssp_exact, verify_ssp_with_stats, VerifyOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Feature-selection parameters shared by every figure (the paper's defaults
/// scaled to the synthetic data, see Section 6).
fn feature_params() -> FeatureSelectionParams {
    FeatureSelectionParams {
        max_l: 4,
        alpha: 0.15,
        beta: 0.15,
        gamma: 0.15,
        max_features: 32,
        max_embeddings: 16,
    }
}

/// PMI build parameters around `features`; seed 7 is the Figure 12 sweeps'
/// (engines built from [`bench_engine_config`] override it).
fn pmi_params(features: FeatureSelectionParams) -> PmiBuildParams {
    PmiBuildParams {
        features,
        bounds: BoundsConfig::default(),
        threads: 0,
        seed: 7,
    }
}

/// Engine configuration shared by every figure and the snapshot round trip.
pub fn bench_engine_config(seed: u64) -> EngineConfig {
    EngineConfig {
        pmi: PmiBuildParams {
            seed,
            ..pmi_params(feature_params())
        },
        verify: VerifyOptions {
            mc: MonteCarloConfig {
                tau: 0.1,
                xi: 0.05,
                max_samples: 2_000,
            },
            max_embeddings: 128,
            exact_cutoff: 14,
            ..VerifyOptions::default()
        },
        exact: pgs_query::pipeline::ExactScanConfig::default(),
        cross_term: pgs_query::prune::CrossTermRule::SafeMin,
        seed,
        threads: 0,
        ..EngineConfig::default()
    }
}

/// The dataset at `scale` (with `graph_count` overriding its size) and a
/// workload of `query_count` queries of `query_size` edges.
fn workload(
    scale: DatasetScale,
    graph_count: Option<usize>,
    query_size: usize,
    query_count: usize,
) -> (PpiDataset, Vec<WorkloadQuery>) {
    let scaled = paper_scale(scale);
    let dataset = generate_ppi_dataset(&PpiDatasetConfig {
        graph_count: graph_count.unwrap_or(scaled.graph_count),
        ..scaled
    });
    let queries = generate_query_workload(
        &dataset,
        &QueryWorkloadConfig {
            query_size,
            count: query_count,
            seed: 0xABCD,
        },
    );
    (dataset, queries)
}

/// [`workload`] with its graphs indexed by [`bench_engine_config`].
fn indexed_workload(
    scale: DatasetScale,
    graph_count: Option<usize>,
    query_size: usize,
    query_count: usize,
) -> (QueryEngine, Vec<WorkloadQuery>) {
    let (dataset, queries) = workload(scale, graph_count, query_size, query_count);
    let engine = QueryEngine::build(dataset.graphs, bench_engine_config(0xFEED));
    (engine, queries)
}

/// One threshold query; every figure query is valid by construction.
fn query(
    engine: &QueryEngine,
    q: &Graph,
    epsilon: f64,
    delta: usize,
    variant: PruningVariant,
) -> QueryResult {
    let params = QueryParams {
        epsilon,
        delta,
        variant,
    };
    engine.query(q, &params).expect("figure queries are valid")
}

/// A candidate-size sweep (Figures 10–12): per swept value, the candidate
/// size of every series for each query of the workload (`[query][series]`).
pub type CandidateSweep<X> = Vec<(X, Vec<Vec<usize>>)>;

/// Sweeps `xs`, recording the candidate size of each of `series(x, q)`'s
/// results for every query.
fn sweep<X: Copy>(
    xs: impl IntoIterator<Item = X>,
    queries: &[WorkloadQuery],
    series: impl Fn(X, &Graph) -> Vec<QueryResult>,
) -> CandidateSweep<X> {
    let sizes = |results: Vec<QueryResult>| {
        let size = |r: QueryResult| r.stats.probabilistic_candidates;
        results.into_iter().map(size).collect()
    };
    let per_query = |x| {
        queries
            .iter()
            .map(|wq| sizes(series(x, &wq.graph)))
            .collect()
    };
    xs.into_iter().map(|x| (x, per_query(x))).collect()
}

/// Mean candidate size of every series over the workload (the plotted
/// value).
pub fn series_means(per_query: &[Vec<usize>]) -> Vec<f64> {
    let series = per_query.first().map_or(0, Vec::len);
    let n = per_query.len().max(1) as f64;
    (0..series)
        .map(|s| per_query.iter().map(|q| q[s] as f64).sum::<f64>() / n)
        .collect()
}

/// One Figure 9 row: SMP sampling graded against the exact SSP at one query
/// size, ε = 0.5.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationRow {
    /// Query size in edges.
    pub query_size: usize,
    /// Candidates whose exact SSP was computed and graded.
    pub graded: usize,
    /// Candidates skipped because their exact SSP exceeds the enumeration
    /// cap — a sampled stand-in would grade the sampler against itself.
    pub skipped: usize,
    /// Of the graphs SMP accepts, the share the exact SSP accepts.
    pub precision: f64,
    /// Of the graphs the exact SSP accepts, the share SMP accepts.
    pub recall: f64,
}

/// Figure 9: SMP quality against exact verification, by query size.  Each
/// query grades up to 8 of its structural candidates (the paper filters
/// first, then verifies).
pub fn figure_9(scale: DatasetScale) -> Vec<VerificationRow> {
    let mut rows = Vec::new();
    for query_size in [3, 4, 5, 6, 7] {
        let (engine, queries) = indexed_workload(scale, None, query_size, 6);
        let delta = (query_size / 3).max(1);
        let sampling = VerifyOptions {
            exact_cutoff: 0, // force the sampling path
            ..bench_engine_config(1).verify
        };
        let mut rng = StdRng::seed_from_u64(derive_seed(&[9, query_size as u64]));
        let db = engine.db();
        let skeletons: Vec<Graph> = db.iter().map(|g| g.skeleton().clone()).collect();
        let (mut graded, mut skipped, mut tp, mut fp, mut fnn) = (0, 0, 0, 0, 0);
        for wq in &queries {
            let structural = structural_candidates(&skeletons, &wq.graph, delta);
            let relaxed = relax_query_clamped(&wq.graph, delta);
            for &gi in structural.iter().take(8) {
                let pg = &db[gi];
                let Ok(exact) = verify_ssp_exact(pg, &wq.graph, delta, 24) else {
                    skipped += 1;
                    continue;
                };
                let sampled =
                    verify_ssp_with_stats(pg, &wq.graph, delta, &relaxed, &sampling, 1, &mut rng)
                        .ssp;
                graded += 1;
                match (exact >= 0.5, sampled >= 0.5) {
                    (true, true) => tp += 1,
                    (false, true) => fp += 1,
                    (true, false) => fnn += 1,
                    (false, false) => {}
                }
            }
        }
        let ratio = |hits: usize, misses: usize| {
            if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                1.0
            }
        };
        rows.push(VerificationRow {
            query_size,
            graded,
            skipped,
            precision: ratio(tp, fp),
            recall: ratio(tp, fnn),
        });
    }
    rows
}

/// The pruning variants in the order of the Figure 10 series.
pub const VARIANTS: [PruningVariant; 3] = [
    PruningVariant::Structure,
    PruningVariant::SspBound,
    PruningVariant::OptSspBound,
];

/// Figure 10: candidate size of each of [`VARIANTS`] as the probability
/// threshold ε rises over {0.3, …, 0.7} (5-edge queries, δ = 2).
pub fn figure_10(scale: DatasetScale) -> CandidateSweep<f64> {
    let (engine, queries) = indexed_workload(scale, None, 5, 6);
    sweep([0.3, 0.4, 0.5, 0.6, 0.7], &queries, |epsilon, q| {
        VARIANTS.map(|v| query(&engine, q, epsilon, 2, v)).to_vec()
    })
}

/// Figure 11: candidate size as the distance threshold δ rises over
/// {1, 2, 3} (5-edge queries, ε = 0.5).  Series: Structure, OPT-SSPBound on
/// greedy SIP bounds (`BoundsConfig::greedy()`), and OPT-SSPBound on
/// clique-tightened SIP bounds (the default).
pub fn figure_11(scale: DatasetScale) -> CandidateSweep<usize> {
    let (clique, queries) = indexed_workload(scale, None, 5, 6);
    let mut greedy_config = bench_engine_config(0xFEED);
    greedy_config.pmi.bounds = BoundsConfig::greedy();
    let greedy = QueryEngine::build(clique.db().to_vec(), greedy_config);
    sweep([1, 2, 3], &queries, |delta, q| {
        let opt = |engine| query(engine, q, 0.5, delta, PruningVariant::OptSspBound);
        let structure = query(&clique, q, 0.5, delta, PruningVariant::Structure);
        vec![structure, opt(&greedy), opt(&clique)]
    })
}

/// Figure 12: the feature-generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureParamSweep {
    /// (a) OPT-SSPBound candidate size vs maxL.
    pub max_l: CandidateSweep<usize>,
    /// (b) OPT-SSPBound candidate size vs the disjoint-embedding ratio α.
    pub alpha: CandidateSweep<f64>,
    /// (c) the index built per frequency threshold β (features, bytes); the
    /// build time is perfbench's `index.build_s`.
    pub beta: Vec<(f64, PmiStats)>,
    /// (d) the index built per discriminativity threshold γ.
    pub gamma: Vec<(f64, PmiStats)>,
}

/// Figure 12: sweeps maxL, α, β and γ one at a time around the shared
/// feature parameters (5-edge queries, ε = 0.5, δ = 2).  The index sweeps
/// (c) and (d) lift the feature cap so the threshold, not the cap, decides
/// how many features are indexed.
pub fn figure_12(scale: DatasetScale) -> FeatureParamSweep {
    let (dataset, queries) = workload(scale, None, 5, 4);
    let sizes = |edit: &dyn Fn(&mut FeatureSelectionParams)| {
        let mut features = feature_params();
        edit(&mut features);
        let config = EngineConfig {
            pmi: pmi_params(features),
            ..bench_engine_config(0xFEED)
        };
        let engine = QueryEngine::build(dataset.graphs.clone(), config);
        let size = |q| query(&engine, q, 0.5, 2, PruningVariant::OptSspBound);
        let sizes = queries
            .iter()
            .map(|wq| size(&wq.graph).stats.probabilistic_candidates);
        sizes.map(|size| vec![size]).collect()
    };
    let index = |edit: &dyn Fn(&mut FeatureSelectionParams)| {
        let mut features = feature_params();
        edit(&mut features);
        features.max_features = 256;
        Pmi::build(&dataset.graphs, &pmi_params(features)).stats()
    };
    let thresholds = [0.05, 0.1, 0.15, 0.2, 0.25];
    FeatureParamSweep {
        max_l: [2, 3, 4, 5].map(|x| (x, sizes(&|f| f.max_l = x))).to_vec(),
        alpha: thresholds.map(|x| (x, sizes(&|f| f.alpha = x))).to_vec(),
        beta: thresholds.map(|x| (x, index(&|f| f.beta = x))).to_vec(),
        gamma: thresholds.map(|x| (x, index(&|f| f.gamma = x))).to_vec(),
    }
}

/// One Figure 13 point: a database size and, per query, the PMI pipeline's
/// result next to the index-free exact scan's.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// |D|.
    pub graph_count: usize,
    /// `(pmi, exact_scan)` results of every query (OPT-SSPBound, ε = 0.5,
    /// δ = 2).
    pub per_query: Vec<(QueryResult, QueryResult)>,
}

/// Figure 13: the work PMI saves over the exact scan as the database grows
/// through `graph_counts` (4 five-edge queries per size).
pub fn figure_13(scale: DatasetScale, graph_counts: &[usize]) -> Vec<ScalePoint> {
    let params = QueryParams {
        epsilon: 0.5,
        delta: 2,
        variant: PruningVariant::OptSspBound,
    };
    let mut points = Vec::new();
    for &graph_count in graph_counts {
        let (engine, queries) = indexed_workload(scale, Some(graph_count), 5, 4);
        let run = |wq: &WorkloadQuery| {
            let pmi = engine.query(&wq.graph, &params);
            let exact = engine.exact_scan(&wq.graph, &params);
            (pmi.expect("valid query"), exact.expect("valid query"))
        };
        let per_query = queries.iter().map(run).collect();
        points.push(ScalePoint {
            graph_count,
            per_query,
        });
    }
    points
}

/// One Figure 14 row: mean per-query `(precision, recall)` of organism
/// retrieval under the correlated (COR) and independent (IND) models.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityRow {
    /// The probability threshold ε.
    pub epsilon: f64,
    /// COR `(precision, recall)`.
    pub cor: (f64, f64),
    /// IND `(precision, recall)`.
    pub ind: (f64, f64),
}

/// Figure 14: query quality of the correlated vs the independent model by
/// probability threshold (4-edge queries, δ = 2, OPT-SSPBound).
pub fn figure_14(scale: DatasetScale) -> Vec<QualityRow> {
    // Organisms must be separable, so the dataset uses higher extraction
    // confidences (the organism signal, not the absolute probability level,
    // is what COR vs IND disagree about) and a small perturbation; queries
    // are small motifs with a tolerant δ, mirroring the ratio of query size
    // to distance threshold the paper uses.
    let dataset = generate_ppi_dataset(&PpiDatasetConfig {
        correlation: CorrelationModel::StrongPositive,
        perturbation: 0.2,
        mean_edge_probability: 0.78,
        ..paper_scale(scale)
    });
    let queries = generate_query_workload(
        &dataset,
        &QueryWorkloadConfig {
            query_size: 4,
            count: 8,
            seed: 0x14,
        },
    );
    let cor_engine = QueryEngine::build(dataset.graphs.clone(), bench_engine_config(14));
    let ind_graphs: Vec<_> = dataset.graphs.iter().map(to_independent_model).collect();
    let ind_engine = QueryEngine::build(ind_graphs, bench_engine_config(14));
    let quality = |engine: &QueryEngine, epsilon: f64| {
        let (mut precision, mut recall) = (0.0, 0.0);
        for wq in &queries {
            let answers = query(engine, &wq.graph, epsilon, 2, PruningVariant::OptSspBound).answers;
            let relevant = |g: &usize| dataset.organism_of[*g] == wq.source_organism;
            let truth = (0..dataset.graphs.len()).filter(relevant).count();
            let hits = answers.iter().filter(|g| relevant(g)).count() as f64;
            precision += if answers.is_empty() {
                1.0
            } else {
                hits / answers.len() as f64
            };
            recall += hits / truth.max(1) as f64;
        }
        let n = queries.len().max(1) as f64;
        (precision / n, recall / n)
    };
    [0.3, 0.4, 0.5, 0.6, 0.7]
        .into_iter()
        .map(|epsilon| QualityRow {
            epsilon,
            cor: quality(&cor_engine, epsilon),
            ind: quality(&ind_engine, epsilon),
        })
        .collect()
}

/// Formats one experiment series as an aligned text table row.
pub fn format_row(label: &str, xs: &[String]) -> String {
    let mut out = format!("{label:<28}");
    for x in xs {
        out.push_str(&format!(" {x:>12}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_setup_builds_quickly_and_consistently() {
        let (engine, queries) = indexed_workload(DatasetScale::Tiny, None, 4, 3);
        assert_eq!(engine.db().len(), 24);
        assert_eq!(engine.pmi().graph_count(), 24);
        assert!(!queries.is_empty());
        for q in &queries {
            assert_eq!(q.graph.edge_count(), 4);
        }
    }

    #[test]
    fn graph_count_override_applies() {
        let (engine, _) = indexed_workload(DatasetScale::Tiny, Some(7), 4, 1);
        assert_eq!(engine.db().len(), 7);
    }

    #[test]
    fn series_means_average_each_series() {
        assert_eq!(series_means(&[vec![4, 1], vec![2, 0]]), vec![3.0, 0.5]);
    }

    #[test]
    fn row_formatting_is_aligned() {
        let row = format_row("Structure", &["12".into(), "3.4".into()]);
        assert!(row.starts_with("Structure"));
        assert!(row.contains("12"));
        assert!(row.contains("3.4"));
    }
}
