//! End-to-end guarantees of the best-first top-k query path.
//!
//! * The ranked list must agree with the top-k of the exact SSP values
//!   (the ground truth the moving lower-bound threshold is allowed to
//!   approximate but never change).
//! * Ties at the k-th boundary are pinned by the graph content salt, so the
//!   selected answers must survive a database shuffle byte-for-byte.
//! * The ranked lists must be byte-identical across thread counts, shard
//!   counts and repeated runs, with the adaptive sampler on the noisy path,
//!   and the phase-1 counters must equal a threshold query's for the same
//!   `(q, δ, variant)` — both query kinds share one front end.
//! * Adaptive early stopping draws ≥ 1.5× fewer Karp–Luby trials than the
//!   fixed budget at identical answers, and best-first top-k equals the head
//!   of the full fixed-budget ranking.
//! * Invalid `k` surfaces as the typed facade error, not a panic.

use pgs::datagen::ppi::{generate_ppi_dataset, PpiDatasetConfig};
use pgs::datagen::queries::{generate_query_workload, QueryWorkloadConfig};
use pgs::datagen::scenarios::{bulk_path_queries, bulk_skeletons};
use pgs::prelude::*;
use pgs::prob::montecarlo::MonteCarloConfig;
use pgs::query::pipeline::QueryEngine;
use pgs::query::verify::{verify_ssp_exact, VerifyOptions};
use pgs_index::feature::FeatureSelectionParams;
use pgs_index::pmi::PmiBuildParams;
use pgs_index::sip_bounds::BoundsConfig;

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

fn triangle_query() -> Graph {
    GraphBuilder::new()
        .vertices(&[0, 1, 2])
        .edge(0, 1, 0)
        .edge(1, 2, 0)
        .build()
}

/// Exact verification for every candidate (the graphs are tiny), so the
/// ranking is compared against ground truth with no sampling noise.
fn exact_config() -> EngineConfig {
    EngineConfig {
        verify: VerifyOptions {
            exact_cutoff: 16,
            ..VerifyOptions::default()
        },
        ..EngineConfig::default()
    }
}

#[test]
fn topk_agrees_with_the_exact_ssp_ranking() {
    // Distinct probabilities give distinct SSPs, so the expected order is
    // unambiguous: descending in p.
    let probs = [0.9, 0.2, 0.7, 0.4, 0.85, 0.05, 0.6];
    let graphs: Vec<ProbabilisticGraph> = probs
        .iter()
        .enumerate()
        .map(|(i, &p)| triangle(&format!("g{i}"), p))
        .collect();
    let db = DynamicDatabase::build(graphs.clone(), exact_config());
    let q = triangle_query();
    let delta = 0usize;

    let mut truth: Vec<(usize, f64)> = graphs
        .iter()
        .enumerate()
        .map(|(i, pg)| (i, verify_ssp_exact(pg, &q, delta, 22).unwrap()))
        .collect();
    truth.sort_by(|a, b| b.1.total_cmp(&a.1));

    for k in [1usize, 3, probs.len()] {
        let result = db
            .query_topk(
                &q,
                &TopkParams {
                    k,
                    delta,
                    variant: PruningVariant::OptSspBound,
                },
            )
            .unwrap();
        assert_eq!(result.ranked.len(), k.min(probs.len()));
        for (r, &(gi, ssp)) in result.ranked.iter().zip(&truth) {
            assert_eq!(r.graph, gi, "rank order diverged from the exact SSPs");
            assert!(
                (r.ssp - ssp).abs() < 1e-9,
                "reported ssp {} vs exact {ssp}",
                r.ssp
            );
        }
    }
}

#[test]
fn kth_boundary_ties_survive_a_database_shuffle() {
    // Eight structurally identical triangles (distinct names only): every SSP
    // ties exactly, so the k = 3 cut is decided purely by the content salt.
    // The selected *names* must not move when the insertion order does.
    let names = ["a", "b", "c", "d", "e", "f", "g", "h"];
    let graphs: Vec<ProbabilisticGraph> = names.iter().map(|n| triangle(n, 0.9)).collect();
    let q = triangle_query();
    let params = TopkParams {
        k: 3,
        delta: 0,
        // Structure sends every structural candidate to (exact) verification:
        // PMI feature selection is not insertion-order canonical, and this
        // test isolates the ranking, not the pruning bounds.
        variant: PruningVariant::Structure,
    };

    let pick_names = |graphs: Vec<ProbabilisticGraph>| -> Vec<String> {
        let db = DynamicDatabase::build(graphs.clone(), exact_config());
        db.query_topk(&q, &params)
            .unwrap()
            .ranked
            .iter()
            .map(|r| graphs[r.graph].name().to_string())
            .collect()
    };

    let reference = pick_names(graphs.clone());
    assert_eq!(reference.len(), 3);
    // Rotations and a reversal: the answer names and their order must hold.
    for rot in [1usize, 3, 5] {
        let mut shuffled = graphs.clone();
        shuffled.rotate_left(rot);
        assert_eq!(
            pick_names(shuffled),
            reference,
            "k-th boundary tie-break moved under rotation {rot}"
        );
    }
    let mut reversed = graphs.clone();
    reversed.reverse();
    assert_eq!(
        pick_names(reversed),
        reference,
        "k-th boundary tie-break moved under reversal"
    );
}

#[test]
fn topk_is_byte_identical_across_threads_and_shards() {
    // The noisy path: adaptive sampling forced on every candidate.
    let ds = generate_ppi_dataset(&PpiDatasetConfig {
        graph_count: 24,
        vertices_per_graph: 10,
        edges_per_graph: 14,
        vertex_label_count: 6,
        organism_count: 3,
        perturbation: 0.3,
        seed: 4242,
        ..PpiDatasetConfig::default()
    });
    let config = |threads: usize, shards: usize| EngineConfig {
        pmi: PmiBuildParams {
            features: FeatureSelectionParams {
                max_l: 3,
                max_features: 24,
                max_embeddings: 12,
                ..FeatureSelectionParams::default()
            },
            bounds: BoundsConfig::default(),
            threads: 2,
            seed: 11,
        },
        verify: VerifyOptions {
            exact_cutoff: 0,
            mc: MonteCarloConfig {
                tau: 0.1,
                xi: 0.05,
                max_samples: 4_000,
            },
            adaptive: true,
            ..VerifyOptions::default()
        },
        threads,
        shards,
        ..EngineConfig::default()
    };
    let queries: Vec<Graph> = generate_query_workload(
        &ds,
        &QueryWorkloadConfig {
            query_size: 4,
            count: 4,
            seed: 99,
        },
    )
    .into_iter()
    .map(|wq| wq.graph)
    .collect();
    let params = TopkParams {
        k: 5,
        delta: 1,
        variant: PruningVariant::OptSspBound,
    };

    let reference = QueryEngine::build(ds.graphs.clone(), config(1, 1));
    for (threads, shards) in [(4usize, 1usize), (0, 1), (1, 8), (0, 8)] {
        let engine = QueryEngine::build(ds.graphs.clone(), config(threads, shards));
        for q in &queries {
            let a = reference.query_topk(q, &params).unwrap();
            let b = engine.query_topk(q, &params).unwrap();
            let key = |r: &pgs::query::pipeline::TopkResult| -> Vec<(usize, u64)> {
                r.ranked
                    .iter()
                    .map(|x| (x.graph, x.ssp.to_bits()))
                    .collect()
            };
            assert_eq!(
                key(&a),
                key(&b),
                "top-k diverged at threads = {threads}, shards = {shards}"
            );
            assert_eq!(a.stats.samples_drawn, b.stats.samples_drawn);
            assert_eq!(a.stats.samples_saved, b.stats.samples_saved);
            assert_eq!(a.stats.topk_pruned, b.stats.topk_pruned);
            // Threshold and top-k queries share one phase-1/phase-2 front
            // end: for the same (q, δ, variant) they report the same
            // structural work at every shard count.
            let t = engine
                .query(
                    q,
                    &QueryParams {
                        epsilon: 0.3,
                        delta: params.delta,
                        variant: params.variant,
                    },
                )
                .unwrap();
            let front = |s: &pgs::query::pipeline::PhaseStats| {
                (
                    s.structural_candidates,
                    s.posting_entries_scanned,
                    s.filter_survivors,
                )
            };
            assert_eq!(
                front(&t.stats),
                front(&b.stats),
                "threshold and top-k front ends diverged at shards = {shards}"
            );
        }
    }
    // Repeats on one engine are byte-stable too.
    for q in &queries {
        let a = reference.query_topk(q, &params).unwrap();
        let b = reference.query_topk(q, &params).unwrap();
        assert_eq!(a.ranked, b.ranked);
    }
}

#[test]
fn adaptive_stopping_cuts_trials_at_equal_answers() {
    // Lean mining (the corpus exercises verification, not feature quality)
    // and the sampler forced onto every candidate.  The fixed-budget twin
    // shares the adaptive engine's index, so only the stopping rule differs.
    let adaptive_config = EngineConfig {
        pmi: PmiBuildParams {
            features: FeatureSelectionParams {
                max_l: 2,
                alpha: 0.15,
                beta: 0.15,
                gamma: 0.15,
                max_features: 8,
                max_embeddings: 8,
            },
            bounds: BoundsConfig {
                max_embeddings: 8,
                max_cuts: 16,
                ..BoundsConfig::default()
            },
            threads: 0,
            seed: 0x5A4D,
        },
        verify: VerifyOptions {
            exact_cutoff: 0,
            mc: MonteCarloConfig {
                tau: 0.05,
                xi: 0.01,
                max_samples: 20_000,
            },
            adaptive: true,
            ..VerifyOptions::default()
        },
        seed: 0x5A4D,
        ..EngineConfig::default()
    };
    let fixed_config = EngineConfig {
        verify: VerifyOptions {
            adaptive: false,
            ..adaptive_config.verify
        },
        ..adaptive_config
    };
    let graphs = bulk_skeletons(200, 0xB17);
    let adaptive = QueryEngine::build(graphs.clone(), adaptive_config);
    let fixed = QueryEngine::from_parts(graphs, adaptive.pmi().clone(), fixed_config).unwrap();
    let queries = bulk_path_queries(16);
    let params = QueryParams {
        epsilon: 0.1,
        delta: 1,
        variant: PruningVariant::OptSspBound,
    };

    let ab = adaptive.query_batch(&queries, &params).unwrap();
    let fb = fixed.query_batch(&queries, &params).unwrap();
    for (a, f) in ab.results.iter().zip(&fb.results) {
        assert_eq!(a.answers, f.answers, "adaptive and fixed answers differ");
    }
    // Every sampled candidate has the same budget on both engines, so the
    // adaptive side's drawn + saved trials reconstruct the fixed side's.
    assert_eq!(
        ab.stats.samples_drawn + ab.stats.samples_saved,
        fb.stats.samples_drawn
    );
    let reduction = fb.stats.samples_drawn as f64 / ab.stats.samples_drawn.max(1) as f64;
    assert!(
        reduction >= 1.5,
        "adaptive stopping must cut >= 1.5x trials at equal answers, got {reduction:.2}x \
         ({} fixed vs {} adaptive)",
        fb.stats.samples_drawn,
        ab.stats.samples_drawn
    );

    // Best-first top-10 with a moving threshold must return exactly the
    // first 10 of the full fixed-budget ranking (k = 200 = every graph).
    let head = |engine: &QueryEngine, k: usize| -> Vec<Vec<(usize, u64)>> {
        let params = TopkParams {
            k,
            delta: 1,
            variant: PruningVariant::OptSspBound,
        };
        let batch = engine.query_topk_batch(&queries, &params).unwrap();
        batch
            .results
            .iter()
            .map(|r| {
                r.ranked
                    .iter()
                    .take(10)
                    .map(|x| (x.graph, x.ssp.to_bits()))
                    .collect()
            })
            .collect()
    };
    assert_eq!(head(&adaptive, 10), head(&fixed, 200));
}

#[test]
fn invalid_k_is_a_typed_facade_error() {
    let mut db = ProbGraphDatabase::new();
    db.insert(triangle("only", 0.8));
    db.build_index();
    let q = triangle_query();
    let err = db.query_topk(&q, 0, 0).unwrap_err();
    assert!(matches!(err, DbError::InvalidK(_)));
    assert!(err.to_string().contains("top-k"));
    // A sane k on the same database works.
    assert_eq!(db.query_topk(&q, 1, 0).unwrap().len(), 1);
}
