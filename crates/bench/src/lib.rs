//! Shared setup code for the benchmark suite and the `experiments` binary.
//!
//! Every benchmark reproduces one figure of the paper's evaluation (Section 6)
//! on a synthetic STRING-like dataset (see `pgs-datagen` and DESIGN.md §3 for
//! the substitution).  The helpers here build datasets, engines and query
//! workloads at a named scale so the criterion benches and the experiments
//! harness share identical configurations.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use pgs_datagen::ppi::{generate_ppi_dataset, CorrelationModel, PpiDataset, PpiDatasetConfig};
use pgs_datagen::queries::{generate_query_workload, QueryWorkloadConfig, WorkloadQuery};
use pgs_datagen::scenarios::{paper_scale, DatasetScale};
use pgs_index::feature::FeatureSelectionParams;
use pgs_index::pmi::PmiBuildParams;
use pgs_index::sip_bounds::BoundsConfig;
use pgs_prob::montecarlo::MonteCarloConfig;
use pgs_query::pipeline::{EngineConfig, QueryEngine};
use pgs_query::verify::VerifyOptions;

/// A ready-to-measure benchmark setup.
pub struct BenchSetup {
    /// The generated dataset (graphs + organism labels).
    pub dataset: PpiDataset,
    /// The query engine with a built PMI.
    pub engine: QueryEngine,
    /// The query workload.
    pub queries: Vec<WorkloadQuery>,
}

/// Default feature-selection parameters used across the benches (the paper's
/// defaults scaled to the synthetic data, see Section 6).
pub fn bench_feature_params() -> FeatureSelectionParams {
    FeatureSelectionParams {
        max_l: 4,
        alpha: 0.15,
        beta: 0.15,
        gamma: 0.15,
        max_features: 32,
        max_embeddings: 16,
    }
}

/// Engine configuration shared by all figure benches.
pub fn bench_engine_config(seed: u64) -> EngineConfig {
    EngineConfig {
        pmi: PmiBuildParams {
            features: bench_feature_params(),
            bounds: BoundsConfig::default(),
            threads: 0,
            seed,
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
        threads: pgs_query::pipeline::default_query_threads(),
        shards: pgs_query::pipeline::default_shards(),
    }
}

/// Builds a dataset, an indexed engine and a query workload at `scale`;
/// `graph_count` overrides the scale's database size (the Figure 13
/// scalability sweep).
pub fn build_setup_with(
    scale: DatasetScale,
    graph_count: Option<usize>,
    query_size: usize,
    query_count: usize,
    correlation: CorrelationModel,
) -> BenchSetup {
    let scaled = paper_scale(scale);
    let config = PpiDatasetConfig {
        correlation,
        graph_count: graph_count.unwrap_or(scaled.graph_count),
        ..scaled
    };
    let dataset = generate_ppi_dataset(&config);
    let queries = generate_query_workload(
        &dataset,
        &QueryWorkloadConfig {
            query_size,
            count: query_count,
            seed: 0xABCD,
        },
    );
    let engine = QueryEngine::build(dataset.graphs.clone(), bench_engine_config(0xFEED));
    BenchSetup {
        dataset,
        engine,
        queries,
    }
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
        let setup = build_setup_with(DatasetScale::Tiny, None, 4, 3, CorrelationModel::MaxRule);
        assert_eq!(setup.dataset.graphs.len(), 24);
        assert_eq!(setup.engine.pmi().graph_count(), 24);
        assert!(!setup.queries.is_empty());
        for q in &setup.queries {
            assert_eq!(q.graph.edge_count(), 4);
        }
    }

    #[test]
    fn graph_count_override_applies() {
        let setup = build_setup_with(DatasetScale::Tiny, Some(7), 4, 1, CorrelationModel::MaxRule);
        assert_eq!(setup.dataset.graphs.len(), 7);
    }

    #[test]
    fn row_formatting_is_aligned() {
        let row = format_row("Structure", &["12".into(), "3.4".into()]);
        assert!(row.starts_with("Structure"));
        assert!(row.contains("12"));
        assert!(row.contains("3.4"));
    }
}
