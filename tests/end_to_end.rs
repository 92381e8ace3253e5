//! Integration tests over a synthetic dataset: the whole pipeline (datagen →
//! PMI → pruning → verification) compared against the exact scan, plus the
//! COR-vs-IND quality experiment in miniature.

use pgs::datagen::ppi::{generate_ppi_dataset, CorrelationModel, PpiDatasetConfig};
use pgs::datagen::queries::{generate_query_workload, QueryWorkloadConfig};
use pgs::prelude::*;
use pgs::prob::independent::to_independent_model;
use pgs::query::verify::VerifyOptions;
use pgs_graph::serialize::{read_database, write_database};
use pgs_index::feature::FeatureSelectionParams;
use pgs_index::pmi::PmiBuildParams;
use pgs_index::sip_bounds::BoundsConfig;

fn dataset() -> pgs::datagen::ppi::PpiDataset {
    generate_ppi_dataset(&PpiDatasetConfig {
        graph_count: 18,
        vertices_per_graph: 10,
        edges_per_graph: 14,
        vertex_label_count: 6,
        organism_count: 3,
        perturbation: 0.3,
        seed: 1234,
        ..PpiDatasetConfig::default()
    })
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        pmi: PmiBuildParams {
            features: FeatureSelectionParams {
                alpha: 0.0,
                beta: 0.2,
                gamma: 0.0,
                max_l: 3,
                max_features: 24,
                max_embeddings: 12,
            },
            bounds: BoundsConfig::default(),
            threads: 2,
            seed: 11,
        },
        verify: VerifyOptions {
            exact_cutoff: 18,
            ..VerifyOptions::default()
        },
        ..EngineConfig::default()
    }
}

/// The threshold parameters of the full PMI algorithm (`OPT-SSPBound`).
fn params(epsilon: f64, delta: usize) -> QueryParams {
    QueryParams {
        epsilon,
        delta,
        variant: PruningVariant::OptSspBound,
    }
}

#[test]
fn pipeline_answers_match_exact_scan_across_parameters() {
    let ds = dataset();
    let db = QueryEngine::build(ds.graphs.clone(), engine_config());
    let queries = generate_query_workload(
        &ds,
        &QueryWorkloadConfig {
            query_size: 4,
            count: 3,
            seed: 99,
        },
    );
    for wq in &queries {
        for (epsilon, delta) in [(0.3, 1usize), (0.6, 1), (0.5, 0)] {
            let fast = db.query(&wq.graph, &params(epsilon, delta)).unwrap();
            let exact = db.exact_scan(&wq.graph, &params(epsilon, delta)).unwrap();
            assert_eq!(
                fast.answers, exact.answers,
                "mismatch at ε={epsilon}, δ={delta} for query from graph {}",
                wq.source_graph
            );
            // Consistency of the reported statistics.
            assert_eq!(
                fast.stats.structural_candidates,
                fast.stats.pruned_by_upper + fast.stats.accepted_by_lower + fast.stats.verified
            );
        }
    }
}

#[test]
fn answer_sets_are_monotone_in_epsilon_and_delta() {
    let ds = dataset();
    let db = QueryEngine::build(ds.graphs.clone(), engine_config());
    let q = generate_query_workload(
        &ds,
        &QueryWorkloadConfig {
            query_size: 4,
            count: 1,
            seed: 5,
        },
    )
    .pop()
    .unwrap()
    .graph;

    let answers = |epsilon: f64, delta: usize| -> Vec<usize> {
        db.query(&q, &params(epsilon, delta)).unwrap().answers
    };
    let a_03 = answers(0.3, 1);
    let a_06 = answers(0.6, 1);
    for g in &a_06 {
        assert!(a_03.contains(g), "ε-monotonicity violated");
    }
    let d0 = answers(0.4, 0);
    let d2 = answers(0.4, 2);
    for g in &d0 {
        assert!(d2.contains(g), "δ-monotonicity violated");
    }
}

#[test]
fn correlated_model_beats_independent_model_on_organism_retrieval() {
    // Miniature Figure 14: queries extracted from an organism should retrieve
    // graphs of the same organism; the correlated model should not do worse
    // than the independent approximation on F1.
    let ds = generate_ppi_dataset(&PpiDatasetConfig {
        graph_count: 18,
        vertices_per_graph: 10,
        edges_per_graph: 14,
        vertex_label_count: 6,
        organism_count: 3,
        perturbation: 0.2,
        correlation: CorrelationModel::StrongPositive,
        seed: 777,
        ..PpiDatasetConfig::default()
    });
    let cor_db = QueryEngine::build(ds.graphs.clone(), engine_config());
    let ind_db = QueryEngine::build(
        ds.graphs.iter().map(to_independent_model).collect(),
        engine_config(),
    );

    let queries = generate_query_workload(
        &ds,
        &QueryWorkloadConfig {
            query_size: 4,
            count: 6,
            seed: 21,
        },
    );
    let f1_of = |db: &QueryEngine| -> f64 {
        let mut f1_sum = 0.0;
        for wq in &queries {
            let truth: Vec<usize> = ds
                .organism_of
                .iter()
                .enumerate()
                .filter(|(_, &o)| o == wq.source_organism)
                .map(|(i, _)| i)
                .collect();
            // ε = 0.15, not the paper's 0.35: with the STRING-calibrated mean
            // edge probability of 0.383, a 4-edge query at δ = 1 needs ≥ 3
            // edges jointly present, so exact SSPs on this dataset land in
            // ≈ 0.05–0.28 (measured) and an ε of 0.35 retrieves nothing at
            // all.  The original threshold encoded a wrong expectation about
            // this miniature dataset, not a code bug — the property under
            // test (correlated F1 ≥ independent F1 > 0) is unchanged.
            let answers = db.query(&wq.graph, &params(0.15, 1)).unwrap().answers;
            let hits = answers.iter().filter(|a| truth.contains(a)).count() as f64;
            let precision = if answers.is_empty() {
                1.0
            } else {
                hits / answers.len() as f64
            };
            let recall = hits / truth.len() as f64;
            f1_sum += if precision + recall > 0.0 {
                2.0 * precision * recall / (precision + recall)
            } else {
                0.0
            };
        }
        f1_sum / queries.len() as f64
    };
    let cor_f1 = f1_of(&cor_db);
    let ind_f1 = f1_of(&ind_db);
    // The correlated model uses the true distribution; dropping the correlation
    // must not *improve* retrieval quality (allow a small tolerance for ties).
    assert!(
        cor_f1 + 0.05 >= ind_f1,
        "correlated F1 {cor_f1} unexpectedly below independent F1 {ind_f1}"
    );
    assert!(cor_f1 > 0.0, "correlated model should retrieve something");
}

#[test]
fn skeleton_serialization_round_trips_through_the_text_format() {
    let ds = dataset();
    let skeletons = ds.skeletons();
    let text = write_database(&skeletons);
    let back = read_database(&text).unwrap();
    assert_eq!(skeletons, back);
}

#[test]
fn pmi_statistics_reflect_the_database() {
    let ds = dataset();
    let db = QueryEngine::build(ds.graphs.clone(), engine_config());
    let pmi = db.pmi();
    let stats = pmi.stats();
    assert_eq!(stats.graph_count, ds.graphs.len());
    assert!(stats.feature_count > 0);
    assert!(stats.occupied_cells >= stats.feature_count); // frequent features occur somewhere
    assert!(stats.size_bytes > 0);
    // Every stored bound is a valid probability interval.
    for gi in 0..stats.graph_count {
        for (fi, bounds) in pmi.graph_entries(gi) {
            assert!(fi < stats.feature_count);
            assert!(
                bounds.is_valid(),
                "invalid bounds at ({gi}, {fi}): {bounds:?}"
            );
        }
    }
}
