//! Property-based engine invariance: for random probabilistic databases and
//! queries, an engine running on any number of query threads must be
//! *observationally identical* to the sequential engine — same answers, same
//! per-phase statistics, and the same behaviour under incremental
//! `append_graph` / `remove_graph` churn and a snapshot reload — with
//! adaptive early stopping on and off.  Sample counters legitimately differ
//! between the two stopping modes, so each mode is compared with its own
//! sequential engine.

mod common;

use common::{counters_only, dense_workload};
use pgs::prelude::*;
use pgs_index::pmi::Pmi;
use pgs_prob::neighbor::partition_with_triangles;
use pgs_query::pipeline::QueryEngine;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random connected labelled graph (spanning tree + extra edges).
fn arb_graph(max_vertices: usize, labels: u32) -> impl Strategy<Value = Graph> {
    (3..=max_vertices)
        .prop_flat_map(move |n| {
            (
                proptest::collection::vec(0..labels, n),
                proptest::collection::vec((0..n, 0..n), 0..n),
                proptest::collection::vec(0..u64::MAX, n - 1),
            )
        })
        .prop_map(|(vlabels, extra, parents)| {
            let mut g = Graph::new();
            for &l in &vlabels {
                g.add_vertex(Label(l));
            }
            for i in 1..vlabels.len() {
                let p = (parents[i - 1] % i as u64) as u32;
                let _ = g.add_edge(VertexId(i as u32), VertexId(p), Label(0));
            }
            for (u, v) in extra {
                if u != v {
                    let _ = g.add_edge(VertexId(u as u32), VertexId(v as u32), Label(0));
                }
            }
            g
        })
}

/// Strategy: a probabilistic graph with max-rule JPTs over a random skeleton.
fn arb_probabilistic_graph() -> impl Strategy<Value = ProbabilisticGraph> {
    (
        arb_graph(7, 3),
        proptest::collection::vec(0.05f64..0.95, 24),
    )
        .prop_map(|(skeleton, probs)| {
            let groups = partition_with_triangles(&skeleton, 3);
            let tables: Vec<JointProbTable> = groups
                .iter()
                .map(|grp| {
                    let ep: Vec<(EdgeId, f64)> = grp
                        .iter()
                        .enumerate()
                        .map(|(i, &e)| (e, probs[(e.index() + i) % probs.len()]))
                        .collect();
                    JointProbTable::from_max_rule(&ep).unwrap()
                })
                .collect();
            ProbabilisticGraph::new(skeleton, tables, true).unwrap()
        })
}

fn engine_config(threads: usize, adaptive: bool) -> EngineConfig {
    let mut config = EngineConfig {
        threads,
        seed: 0x5EED,
        ..EngineConfig::default()
    };
    config.verify.adaptive = adaptive;
    config
}

/// Sequential, automatic, and four pool workers (so the pool really
/// dispatches even on a small host).
const THREAD_COUNTS: [usize; 3] = [1, 0, 4];
const ADAPTIVE_MODES: [bool; 2] = [true, false];

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        max_shrink_iters: 50,
        ..ProptestConfig::default()
    })]

    /// Answers *and* every per-phase counter are identical across every
    /// thread count in each stopping mode, for both the indexed pipeline and
    /// the exact scan baseline.
    #[test]
    fn threaded_engines_are_observationally_identical(
        graphs in proptest::collection::vec(arb_probabilistic_graph(), 4..9),
        qsize in 2usize..4,
        delta in 0usize..2,
        qseed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(qseed);
        let donor = graphs[qseed as usize % graphs.len()].skeleton();
        let q = pgs_graph::generate::random_connected_subgraph(
            donor,
            qsize.min(donor.edge_count()),
            &mut rng,
        );
        prop_assume!(q.is_some());
        let q = q.unwrap();
        let params = QueryParams {
            epsilon: 0.3,
            delta,
            variant: PruningVariant::OptSspBound,
        };

        for adaptive in ADAPTIVE_MODES {
            let reference = QueryEngine::build(graphs.clone(), engine_config(1, adaptive));
            let want = reference.query(&q, &params).unwrap();
            // Phase 2 solves `Lsim` only where Pruning rule 1 keeps the
            // candidate; `counters_only` below holds the count thread-invariant.
            prop_assert_eq!(
                want.stats.lsim_evaluations,
                want.stats.structural_candidates - want.stats.pruned_by_upper
            );
            let want_scan = reference.exact_scan(&q, &params).unwrap();
            for threads in THREAD_COUNTS {
                let engine = QueryEngine::build(graphs.clone(), engine_config(threads, adaptive));
                let got = engine.query(&q, &params).unwrap();
                let at = format!("threads = {threads}, adaptive = {adaptive}");
                prop_assert_eq!(&got.answers, &want.answers, "answers diverged at {}", at);
                prop_assert_eq!(
                    counters_only(got.stats), counters_only(want.stats),
                    "phase stats diverged at {}", at
                );
                let scan = engine.exact_scan(&q, &params).unwrap();
                prop_assert_eq!(
                    &scan.answers, &want_scan.answers,
                    "exact scan diverged at {}", at
                );
            }
        }
    }

    /// Incremental churn (append one graph, remove one graph) leaves an
    /// engine at any thread count identical to the sequential engine that saw
    /// the same mutation sequence, and its snapshot reloads to an engine that
    /// still agrees.
    #[test]
    fn incremental_churn_is_thread_invariant(
        graphs in proptest::collection::vec(arb_probabilistic_graph(), 4..8),
        extra in arb_probabilistic_graph(),
        remove_at in 0usize..4,
        qsize in 2usize..4,
    ) {
        let remove_at = remove_at % graphs.len();
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let donor = extra.skeleton();
        let q = pgs_graph::generate::random_connected_subgraph(
            donor,
            qsize.min(donor.edge_count()),
            &mut rng,
        );
        prop_assume!(q.is_some());
        let q = q.unwrap();
        let params = QueryParams {
            epsilon: 0.3,
            delta: 1,
            variant: PruningVariant::OptSspBound,
        };

        for adaptive in ADAPTIVE_MODES {
            let mut reference = QueryEngine::build(graphs.clone(), engine_config(1, adaptive));
            reference.insert_graph(extra.clone());
            reference.remove_graph(remove_at).unwrap();
            let want = reference.query(&q, &params).unwrap();
            for threads in THREAD_COUNTS {
                let config = engine_config(threads, adaptive);
                let mut engine = QueryEngine::build(graphs.clone(), config);
                engine.insert_graph(extra.clone());
                engine.remove_graph(remove_at).unwrap();
                let got = engine.query(&q, &params).unwrap();
                let at = format!("threads = {threads}, adaptive = {adaptive}");
                prop_assert_eq!(
                    &got.answers, &want.answers,
                    "post-churn answers diverged at {}", at
                );
                prop_assert_eq!(
                    counters_only(got.stats), counters_only(want.stats),
                    "post-churn stats diverged at {}", at
                );
                // The snapshot of the mutated index, paired with the mutated
                // database, answers like the mutated engine.
                let reloaded = Pmi::from_bytes(&engine.pmi().to_bytes()).unwrap();
                prop_assert_eq!(reloaded.churn(), engine.pmi().churn());
                let paired =
                    QueryEngine::from_parts(engine.db().to_vec(), reloaded, config).unwrap();
                let again = paired.query(&q, &params).unwrap();
                prop_assert_eq!(
                    &again.answers, &want.answers,
                    "reloaded answers diverged at {}", at
                );
                prop_assert_eq!(
                    counters_only(again.stats), counters_only(want.stats),
                    "reloaded stats diverged at {}", at
                );
            }
        }
    }
}

/// The default verifier answers unions of 13–16 relevant edges exactly.  On
/// the label-poor dense workload it verifies more candidates exactly and
/// draws fewer samples than one capped at the flat enumerator's 12 edges,
/// and its answers, top-k lists (with their SSP bits) and counters are
/// identical at threads {1, 2, 4}.
#[test]
fn wide_unions_are_verified_exactly_at_the_default_cutoff() {
    let (graphs, queries) = dense_workload();
    let pmi = QueryEngine::build(graphs.clone(), engine_config(1, true))
        .pmi()
        .clone();
    // Every answer, ranking and counter of one engine, plus its totals of
    // exact verifications and drawn samples.
    let run = |threads: usize, exact_cutoff: usize| {
        let mut config = engine_config(threads, true);
        config.verify.exact_cutoff = exact_cutoff;
        let engine = QueryEngine::from_parts(graphs.clone(), pmi.clone(), config).unwrap();
        let (mut rendered, mut exact, mut samples) = (String::new(), 0usize, 0usize);
        for epsilon in [0.1, 0.3] {
            let params = QueryParams {
                epsilon,
                delta: 1,
                variant: PruningVariant::OptSspBound,
            };
            for r in engine.query_batch(&queries, &params).unwrap().results {
                rendered += &format!("{:?} {:?}\n", r.answers, counters_only(r.stats));
                exact += r.stats.exact_verifications;
                samples += r.stats.samples_drawn;
            }
        }
        let params = TopkParams {
            k: 3,
            delta: 1,
            variant: PruningVariant::OptSspBound,
        };
        for r in engine.query_topk_batch(&queries, &params).unwrap().results {
            for a in &r.ranked {
                rendered += &format!("{}:{:016x} ", a.graph, a.ssp.to_bits());
            }
            rendered += &format!("{:?}\n", counters_only(r.stats));
            exact += r.stats.exact_verifications;
            samples += r.stats.samples_drawn;
        }
        (rendered, exact, samples)
    };
    let default_cutoff = EngineConfig::default().verify.exact_cutoff;
    let (want, exact, samples) = run(1, default_cutoff);
    let (_, flat_exact, flat_samples) = run(1, 12);
    assert!(
        exact > flat_exact,
        "exact verifications {exact} vs {flat_exact} at cutoff 12"
    );
    assert!(
        samples < flat_samples,
        "samples drawn {samples} vs {flat_samples} at cutoff 12"
    );
    for threads in [2usize, 4] {
        let (got, ..) = run(threads, default_cutoff);
        assert_eq!(got, want, "threads = {threads}");
    }
}
