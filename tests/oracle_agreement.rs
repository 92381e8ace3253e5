//! Oracle-agreement tests: the sampled verifier must agree with the exact
//! verifier within Monte-Carlo tolerance, and the PMI's stored SIP bounds must
//! bracket the exact SIP, on small graphs where the exact oracle is cheap.

use pgs::prelude::*;
use pgs_graph::relax::relax_query_clamped;
use pgs_graph::vf2::{enumerate_embeddings, MatchOptions};
use pgs_index::feature::FeatureSelectionParams;
use pgs_index::pmi::{Pmi, PmiBuildParams};
use pgs_index::sip_bounds::BoundsConfig;
use pgs_prob::exact::exact_sip;
use pgs_prob::montecarlo::MonteCarloConfig;
use pgs_prob::neighbor::partition_with_triangles;
use pgs_query::verify::{verify_ssp_exact, verify_ssp_with_stats, VerifyOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a labelled graph from an edge list (`labels[i]` is vertex `i`'s label).
fn graph(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
    let mut b = GraphBuilder::new().vertices(labels);
    for &(u, v) in edges {
        b = b.edge(u, v, 0);
    }
    b.build()
}

/// An independent probabilistic graph over `edges` with cyclic probabilities.
fn independent_pg(labels: &[u32], edges: &[(u32, u32)], probs: &[f64]) -> ProbabilisticGraph {
    let skeleton = graph(labels, edges);
    let per_edge: Vec<f64> = (0..skeleton.edge_count())
        .map(|i| probs[i % probs.len()])
        .collect();
    ProbabilisticGraph::independent(skeleton, &per_edge).unwrap()
}

/// A correlated (max-rule JPT) probabilistic graph over the same skeleton.
fn correlated_pg(labels: &[u32], edges: &[(u32, u32)], probs: &[f64]) -> ProbabilisticGraph {
    let skeleton = graph(labels, edges);
    let groups = partition_with_triangles(&skeleton, 3);
    let tables: Vec<JointProbTable> = groups
        .iter()
        .map(|grp| {
            let ep: Vec<(EdgeId, f64)> = grp
                .iter()
                .map(|&e| (e, probs[e.index() % probs.len()]))
                .collect();
            JointProbTable::from_max_rule(&ep).unwrap()
        })
        .collect();
    ProbabilisticGraph::new(skeleton, tables, true).unwrap()
}

/// Small 5–8 edge fixtures spanning paths, cycles and shared-triangle shapes,
/// in both the independent and the correlated edge model.
fn fixtures() -> Vec<ProbabilisticGraph> {
    let path5 = (
        &[0u32, 1, 0, 1, 0, 1][..],
        &[(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 5)][..],
    );
    let cycle6 = (
        &[0u32, 1, 2, 0, 1, 2][..],
        &[(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)][..],
    );
    let tri_tail = (
        &[0u32, 0, 1, 1, 2][..],
        &[(0u32, 1u32), (1, 2), (0, 2), (2, 3), (3, 4)][..],
    );
    let bowtie = (
        &[0u32, 0, 0, 0, 0][..],
        &[(0u32, 1u32), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)][..],
    );
    let dense8 = (
        &[0u32, 1, 0, 1, 0][..],
        &[
            (0u32, 1u32),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 0),
            (0, 2),
            (1, 3),
            (2, 4),
        ][..],
    );
    let probs_a = [0.9, 0.4, 0.7, 0.55, 0.8];
    let probs_b = [0.35, 0.85, 0.6, 0.45];
    let mut out = Vec::new();
    for (labels, edges) in [path5, cycle6, tri_tail, bowtie, dense8] {
        out.push(independent_pg(labels, edges, &probs_a));
        out.push(correlated_pg(labels, edges, &probs_b));
    }
    out
}

/// Queries worth asking against the fixtures: short paths with the fixtures'
/// label patterns, plus a labelled triangle.
fn queries() -> Vec<Graph> {
    vec![
        graph(&[0, 1], &[(0, 1)]),
        graph(&[0, 1, 0], &[(0, 1), (1, 2)]),
        graph(&[1, 0, 1], &[(0, 1), (1, 2)]),
        graph(&[0, 1, 2], &[(0, 1), (1, 2)]),
        graph(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]),
        graph(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3)]),
    ]
}

#[test]
fn sampled_verifier_agrees_with_exact_verifier() {
    // Force the Algorithm 5 sampling path (exact_cutoff = 0) and give it a
    // tight budget: with τ = 0.05 the Karp–Luby estimator's relative error is
    // within 5% with overwhelming probability, and the vendored RNG is
    // deterministic, so the tolerance below cannot flake.
    let options = VerifyOptions {
        mc: MonteCarloConfig {
            tau: 0.05,
            xi: 1e-4,
            max_samples: 60_000,
        },
        max_embeddings: 256,
        exact_cutoff: 0,
        // This test exercises the fixed-budget estimator; the adaptive
        // stopping rule has its own agreement tests.
        adaptive: false,
    };
    let mut rng = StdRng::seed_from_u64(0xACC0);
    let mut compared = 0usize;
    let queries = queries();
    // Relaxed once per (query, δ) and shared by every fixture.
    let relaxed: Vec<Vec<Vec<Graph>>> = queries
        .iter()
        .map(|q| (0..=1).map(|delta| relax_query_clamped(q, delta)).collect())
        .collect();
    for (gi, pg) in fixtures().iter().enumerate() {
        for (qi, q) in queries.iter().enumerate() {
            for (delta, rq) in relaxed[qi].iter().enumerate() {
                let exact = verify_ssp_exact(pg, q, delta, 24).unwrap();
                let sampled = verify_ssp_with_stats(pg, q, delta, rq, &options, 1, &mut rng).ssp;
                assert!(
                    (exact - sampled).abs() <= 0.05 * exact.max(0.05),
                    "fixture {gi}, query {qi}, δ = {delta}: exact {exact} vs sampled {sampled}"
                );
                if exact > 0.0 {
                    compared += 1;
                }
            }
        }
    }
    // Guard against the comparison degenerating to all-zero SSPs.
    assert!(
        compared >= 20,
        "only {compared} non-trivial comparisons ran"
    );
}

#[test]
fn pmi_bounds_bracket_the_exact_sip() {
    // Index the independent/correlated fixtures and check that every stored
    // (graph, feature) interval brackets the exact SIP of that feature.
    let db = fixtures();
    let pmi = Pmi::build(
        &db,
        &PmiBuildParams {
            features: FeatureSelectionParams {
                alpha: 0.0,
                beta: 0.1,
                gamma: 0.0,
                max_l: 3,
                max_features: 32,
                max_embeddings: 64,
            },
            bounds: BoundsConfig::default(),
            threads: 1,
            seed: 7,
        },
    );
    assert!(!pmi.features().is_empty(), "feature mining found nothing");
    let mut checked = 0usize;
    for (gi, pg) in db.iter().enumerate() {
        for (fi, bounds) in pmi.graph_entries(gi) {
            let feature = &pmi.features()[fi];
            let outcome =
                enumerate_embeddings(&feature.graph, pg.skeleton(), MatchOptions::default());
            let sets: Vec<_> = outcome.embeddings.iter().map(|e| e.edges.clone()).collect();
            let exact = exact_sip(pg, &sets).unwrap();
            assert!(
                bounds.lower <= exact + 1e-9,
                "graph {gi}, feature {fi}: lower bound {} exceeds exact SIP {exact}",
                bounds.lower
            );
            assert!(
                bounds.upper + 1e-9 >= exact,
                "graph {gi}, feature {fi}: upper bound {} below exact SIP {exact}",
                bounds.upper
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 10,
        "only {checked} (graph, feature) cells checked"
    );
}
