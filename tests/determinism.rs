//! Determinism guarantees of the parallel query executor.
//!
//! Every candidate draws from an RNG seeded by
//! `derive_seed([engine seed, query hash, phase tag, graph content hash])`,
//! so a sampled query answer must be byte-identical across
//!
//! * (a) repeated runs on the same engine,
//! * (b) every thread count (`threads = 1`, `4` and `0` = auto),
//! * (c) database insertion orders (the content hash, not the database
//!   index, seeds the sampler), and
//! * `query_batch` must agree with a per-query loop.
//!
//! The engine configuration forces the *sampling* verification path
//! (`exact_cutoff = 0`): exact evaluation would be trivially deterministic and
//! hide a regression in the seeding scheme.

use pgs::datagen::ppi::{generate_ppi_dataset, PpiDatasetConfig};
use pgs::datagen::queries::{generate_query_workload, QueryWorkloadConfig, WorkloadQuery};
use pgs::prelude::*;
use pgs::prob::montecarlo::MonteCarloConfig;
use pgs::query::pipeline::{ExactScanConfig, QueryEngine};
use pgs::query::verify::VerifyOptions;
use pgs_index::feature::FeatureSelectionParams;
use pgs_index::pmi::PmiBuildParams;
use pgs_index::sip_bounds::BoundsConfig;

fn dataset() -> pgs::datagen::ppi::PpiDataset {
    generate_ppi_dataset(&PpiDatasetConfig {
        graph_count: 24,
        vertices_per_graph: 10,
        edges_per_graph: 14,
        vertex_label_count: 6,
        organism_count: 3,
        perturbation: 0.3,
        seed: 4242,
        ..PpiDatasetConfig::default()
    })
}

fn engine_config(threads: usize) -> EngineConfig {
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
        // Force the Monte-Carlo sampler: determinism must hold on the noisy
        // path, not just when the exact short-circuit applies.
        verify: VerifyOptions {
            exact_cutoff: 0,
            mc: MonteCarloConfig {
                tau: 0.1,
                xi: 0.05,
                max_samples: 800,
            },
            ..VerifyOptions::default()
        },
        threads,
        ..EngineConfig::default()
    }
}

fn workload(ds: &pgs::datagen::ppi::PpiDataset) -> Vec<WorkloadQuery> {
    generate_query_workload(
        ds,
        &QueryWorkloadConfig {
            query_size: 4,
            count: 4,
            seed: 99,
        },
    )
}

fn params() -> QueryParams {
    QueryParams {
        epsilon: 0.2,
        delta: 1,
        variant: PruningVariant::OptSspBound,
    }
}

#[test]
fn repeated_runs_return_byte_identical_answers() {
    let ds = dataset();
    let engine = QueryEngine::build(ds.graphs.clone(), engine_config(0));
    for wq in &workload(&ds) {
        let first = engine.query(&wq.graph, &params()).unwrap();
        for _ in 0..3 {
            let again = engine.query(&wq.graph, &params()).unwrap();
            assert_eq!(first.answers, again.answers);
            assert_eq!(first.stats.pruned_by_upper, again.stats.pruned_by_upper);
            assert_eq!(first.stats.accepted_by_lower, again.stats.accepted_by_lower);
            assert_eq!(first.stats.verified, again.stats.verified);
        }
    }
}

#[test]
fn thread_count_does_not_change_answers() {
    let ds = dataset();
    let queries = workload(&ds);
    let reference = QueryEngine::build(ds.graphs.clone(), engine_config(1));
    for threads in [4usize, 0] {
        let engine = QueryEngine::build(ds.graphs.clone(), engine_config(threads));
        for wq in &queries {
            let a = reference.query(&wq.graph, &params()).unwrap();
            let b = engine.query(&wq.graph, &params()).unwrap();
            assert_eq!(
                a.answers, b.answers,
                "threads = {threads} diverged from the sequential run"
            );
            assert_eq!(
                a.stats.probabilistic_candidates,
                b.stats.probabilistic_candidates
            );
        }
    }
}

#[test]
fn shuffled_insertion_order_permutes_but_does_not_change_sampled_answers() {
    let ds = dataset();
    let queries = workload(&ds);
    let n = ds.graphs.len();
    // A fixed derangement-ish permutation: rotate by 7 (gcd(7, 24) = 1).
    let perm: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % n).collect();
    let shuffled: Vec<ProbabilisticGraph> = perm.iter().map(|&i| ds.graphs[i].clone()).collect();

    let original = QueryEngine::build(ds.graphs.clone(), engine_config(0));
    let reordered = QueryEngine::build(shuffled, engine_config(0));

    // The `Structure` variant sends every structural candidate straight to the
    // sampled verifier, isolating exactly the path whose RNG used to depend on
    // iteration order.  (The probabilistic pruning bounds are sound either
    // way, but the PMI's *feature selection* is not insertion-order canonical,
    // so OPT-SSPBound may verify different borderline subsets per order.)
    let params = QueryParams {
        epsilon: 0.2,
        delta: 1,
        variant: PruningVariant::Structure,
    };
    for wq in &queries {
        let a = original.query(&wq.graph, &params).unwrap();
        let b = reordered.query(&wq.graph, &params).unwrap();
        // Map the reordered engine's answers back to original indices.
        let mut mapped: Vec<usize> = b.answers.iter().map(|&i| perm[i]).collect();
        mapped.sort_unstable();
        assert_eq!(
            a.answers, mapped,
            "sampled answers drifted with database insertion order"
        );
        assert_eq!(a.stats.verified, b.stats.verified);
    }
}

#[test]
fn query_batch_equals_per_query_loop() {
    let ds = dataset();
    let queries = workload(&ds);
    let engine = QueryEngine::build(ds.graphs.clone(), engine_config(0));
    let graphs: Vec<Graph> = queries.iter().map(|wq| wq.graph.clone()).collect();
    let batch = engine.query_batch(&graphs, &params()).unwrap();
    assert_eq!(batch.results.len(), graphs.len());
    for (q, br) in graphs.iter().zip(&batch.results) {
        let solo = engine.query(q, &params()).unwrap();
        assert_eq!(br.answers, solo.answers, "batch diverged from query loop");
        assert_eq!(br.stats.verified, solo.stats.verified);
    }
}

#[test]
fn exact_scan_sampling_fallback_is_order_independent() {
    // An exact-enumeration cap of 4 relevant edges sends most graphs to the
    // sampling fallback inside `exact_scan`; with per-graph content seeding
    // the verdicts must survive a database rotation and any shard layout.
    let ds = generate_ppi_dataset(&PpiDatasetConfig {
        graph_count: 8,
        vertices_per_graph: 14,
        edges_per_graph: 26,
        vertex_label_count: 4,
        organism_count: 2,
        perturbation: 0.3,
        seed: 91,
        ..PpiDatasetConfig::default()
    });
    let config = |shards: usize| EngineConfig {
        exact: ExactScanConfig {
            exact_edge_cap: 4,
            ..ExactScanConfig::default()
        },
        shards,
        ..engine_config(0)
    };
    let default_shards = engine_config(0).shards;
    let n = ds.graphs.len();
    let perm: Vec<usize> = (0..n).map(|i| (i * 3 + 1) % n).collect();
    let shuffled: Vec<ProbabilisticGraph> = perm.iter().map(|&i| ds.graphs[i].clone()).collect();
    let original = QueryEngine::build(ds.graphs.clone(), config(default_shards));
    let reordered = QueryEngine::build(shuffled, config(default_shards));
    let wq = &workload(&ds)[0];
    let params = params();
    let a = original.exact_scan(&wq.graph, &params).unwrap();
    assert!(
        a.stats.samples_drawn > 0,
        "no graph took the sampling fallback"
    );
    let b = reordered.exact_scan(&wq.graph, &params).unwrap();
    let mut mapped: Vec<usize> = b.answers.iter().map(|&i| perm[i]).collect();
    mapped.sort_unstable();
    assert_eq!(a.answers, mapped, "exact-scan fallback drifted with order");
    assert_eq!(a.stats.samples_drawn, b.stats.samples_drawn);
    // The scan is one flat per-graph map whatever the shard layout, so 1 and
    // 8 shards agree on the answers and on every counter.
    for shards in [1usize, 8] {
        let s = QueryEngine::build(ds.graphs.clone(), config(shards))
            .exact_scan(&wq.graph, &params)
            .unwrap();
        assert_eq!(s.answers, a.answers, "shards = {shards}");
        assert_eq!(s.stats.samples_drawn, a.stats.samples_drawn);
        assert_eq!(s.stats.exact_verifications, a.stats.exact_verifications);
    }
}
