//! The persistent worker pool's two load-bearing guarantees, pinned at the
//! integration level:
//!
//! 1. **Determinism** — pool-backed `par_map_chunked_costed` is byte-identical to
//!    the sequential path for every thread count (the DESIGN.md §8/§12
//!    contract, here as a property over random inputs and random closures
//!    parameterised by `derive_seed`), and the full query pipeline inherits
//!    it.
//! 2. **Reuse** — workers are spawned once and parked, never re-spawned per
//!    call: repeated `query_batch` runs must not grow the pool (the leak the
//!    spawn-per-call executor effectively had, paying thread creation on
//!    every dispatch).

use pgs::datagen::ppi::{generate_ppi_dataset, PpiDatasetConfig};
use pgs::datagen::queries::{generate_query_workload, QueryWorkloadConfig};
use pgs::prelude::*;
use pgs_graph::parallel::{derive_seed, par_map_chunked_costed, CostHint, MAX_THREADS};
use pgs_graph::pool::{global_worker_count, WorkerPool};
use pgs_index::feature::FeatureSelectionParams;
use pgs_index::pmi::PmiBuildParams;
use pgs_index::sip_bounds::BoundsConfig;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        ..ProptestConfig::default()
    })]

    /// Pool-backed chunked maps equal the sequential map for every thread
    /// count, item count and (seed-parameterised) closure.
    #[test]
    fn par_map_is_byte_identical_to_sequential_for_every_thread_count(
        items in proptest::collection::vec(0u64..u64::MAX, 0..200),
        salt in 0u64..u64::MAX,
    ) {
        let map = |i: usize, x: &u64| derive_seed(&[salt, i as u64, *x]);
        let sequential: Vec<u64> = items.iter().enumerate().map(|(i, x)| map(i, x)).collect();
        for threads in [1usize, 2, 3, 4, 7, 8, 16, 0] {
            // MODERATE exercises the cost-model gate (small inputs stay
            // inline), HEAVY forces real pool dispatch from 2 items up;
            // both must agree with the sequential reference bit for bit.
            prop_assert_eq!(
                &par_map_chunked_costed(&items, threads, CostHint::MODERATE, map),
                &sequential,
                "moderate, threads = {}", threads);
            prop_assert_eq!(
                &par_map_chunked_costed(&items, threads, CostHint::HEAVY, map),
                &sequential,
                "heavy, threads = {}", threads);
        }
    }
}

fn pool_engine(threads: usize) -> (QueryEngine, Vec<Graph>) {
    let dataset = generate_ppi_dataset(&PpiDatasetConfig {
        graph_count: 24,
        vertices_per_graph: 10,
        edges_per_graph: 14,
        vertex_label_count: 6,
        organism_count: 2,
        seed: 2026,
        ..PpiDatasetConfig::default()
    });
    let queries: Vec<Graph> = generate_query_workload(
        &dataset,
        &QueryWorkloadConfig {
            query_size: 4,
            count: 6,
            seed: 31,
        },
    )
    .into_iter()
    .map(|wq| wq.graph)
    .collect();
    let config = EngineConfig {
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
            seed: 7,
        },
        threads,
        ..EngineConfig::default()
    };
    (QueryEngine::build(dataset.graphs, config), queries)
}

/// Repeated dispatches on a private pool never grow it past the requested
/// worker count: threads are parked and reused, not re-created per call.
#[test]
fn private_pool_does_not_leak_workers_across_dispatches() {
    let pool = WorkerPool::new();
    for round in 0..100 {
        let sum = AtomicUsize::new(0);
        pool.run(16, 4, &|ci| {
            sum.fetch_add(ci, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 120, "round {round}");
        assert_eq!(
            pool.spawned_workers(),
            3,
            "round {round}: the pool grew — workers are not being reused"
        );
    }
}

/// Repeated `query_batch` calls reuse the global pool.  The worker count may
/// only move when a *larger* thread count than ever before is requested
/// (other tests share the process-wide pool, so the assertion is taken
/// relative to a snapshot between the batches of this test).
#[test]
fn repeated_query_batches_do_not_leak_pool_workers() {
    let (engine, queries) = pool_engine(4);
    let params = QueryParams {
        epsilon: 0.3,
        delta: 1,
        variant: PruningVariant::OptSspBound,
    };
    // Warm the pool up to this workload's worker demand.
    let first = engine.query_batch(&queries, &params).unwrap();
    let after_warmup = global_worker_count();
    assert!(
        after_warmup <= MAX_THREADS,
        "the global pool must respect the worker ceiling"
    );
    for round in 0..20 {
        let again = engine.query_batch(&queries, &params).unwrap();
        for (a, b) in first.results.iter().zip(&again.results) {
            assert_eq!(a.answers, b.answers, "round {round} changed answers");
        }
        assert_eq!(
            global_worker_count(),
            after_warmup,
            "round {round}: repeated identical batches grew the global pool"
        );
    }
}

/// The pipeline's end-to-end answers are identical whether the pool runs 1,
/// 4 or auto workers — the engine-level face of the property test above.
#[test]
fn pool_backed_queries_match_sequential_at_every_thread_count() {
    let (sequential, queries) = pool_engine(1);
    let params = QueryParams {
        epsilon: 0.3,
        delta: 1,
        variant: PruningVariant::OptSspBound,
    };
    for threads in [2usize, 4, 0] {
        let (pooled, _) = pool_engine(threads);
        for q in &queries {
            assert_eq!(
                sequential.query(q, &params).unwrap().answers,
                pooled.query(q, &params).unwrap().answers,
                "threads = {threads}"
            );
        }
    }
}
