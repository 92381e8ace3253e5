//! Property-based tests (proptest) of the core invariants: graph model,
//! canonical codes, relaxation, subgraph distance, probabilistic model and the
//! PMI bounds.

use pgs::prelude::*;
use pgs::prob::exact::{exact_sip, exact_ssp, exact_ssp_bruteforce};
use pgs_graph::dfs_code::{are_isomorphic, canonical_code};
use pgs_graph::embeddings::EdgeSet;
use pgs_graph::mcs::{subgraph_distance, subgraph_similar};
use pgs_graph::relax::relax_query;
use pgs_graph::vf2::{contains_subgraph, enumerate_embeddings, MatchOptions};
use pgs_index::sip_bounds::{sip_bounds, BoundsConfig};
use pgs_prob::neighbor::{is_neighbor_edge_set, partition_with_triangles};
use pgs_prob::union_sampler::{StoppingRule, UnionSampler};
use pgs_query::verify::{collect_embeddings_of_relaxations, verify_ssp_with_stats, VerifyOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random connected labelled graph described by (vertex labels,
/// extra edges).  The spanning tree `i -> parent(i)` keeps it connected.
fn arb_graph(max_vertices: usize, labels: u32) -> impl Strategy<Value = Graph> {
    (2..=max_vertices)
        .prop_flat_map(move |n| {
            (
                proptest::collection::vec(0..labels, n),
                proptest::collection::vec((0..n, 0..n), 0..n * 2),
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

/// Strategy: a probabilistic graph over a random skeleton with max-rule JPTs.
fn arb_probabilistic_graph() -> impl Strategy<Value = ProbabilisticGraph> {
    (
        arb_graph(7, 3),
        proptest::collection::vec(0.05f64..0.95, 32),
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

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    // ---------------------------------------------------------------- graphs

    #[test]
    fn canonical_code_is_isomorphism_invariant(g in arb_graph(6, 3), seed in 0u64..1000) {
        // Relabel the vertices with a random permutation; the canonical code
        // must not change and the graphs must be reported isomorphic.
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perm: Vec<u32> = (0..g.vertex_count() as u32).collect();
        perm.shuffle(&mut rng);
        let mut h = Graph::new();
        let mut slots = vec![Label(0); g.vertex_count()];
        for v in g.vertices() {
            slots[perm[v.index()] as usize] = g.vertex_label(v);
        }
        for l in &slots {
            h.add_vertex(*l);
        }
        for (_, e) in g.edge_entries() {
            h.add_edge(
                VertexId(perm[e.u.index()]),
                VertexId(perm[e.v.index()]),
                e.label,
            )
            .unwrap();
        }
        prop_assert!(are_isomorphic(&g, &h));
        prop_assert_eq!(canonical_code(&g), canonical_code(&h));
    }

    #[test]
    fn every_connected_subpattern_is_found_by_vf2(g in arb_graph(7, 3)) {
        // Any subgraph built from a subset of g's edges must embed back into g.
        let take: Vec<EdgeId> = g.edges().step_by(2).collect();
        if !take.is_empty() {
            let sub = pgs_graph::relax::drop_isolated(&g.edge_subgraph(&take));
            prop_assert!(contains_subgraph(&sub, &g));
        }
    }

    #[test]
    fn subgraph_distance_axioms(q in arb_graph(5, 2), g in arb_graph(6, 2)) {
        let d = subgraph_distance(&q, &g);
        prop_assert!(d <= q.edge_count());
        prop_assert_eq!(subgraph_distance(&q, &q), 0);
        // The threshold predicate agrees with the distance.
        for delta in 0..=q.edge_count() {
            prop_assert_eq!(subgraph_similar(&q, &g, delta), d <= delta);
        }
        // If q embeds in g the distance is zero.
        if contains_subgraph(&q, &g) {
            prop_assert_eq!(d, 0);
        }
    }

    #[test]
    fn relaxation_produces_subgraphs_of_the_query(q in arb_graph(6, 3), delta in 0usize..3) {
        let relaxed = relax_query(&q, delta.min(q.edge_count()));
        for rq in &relaxed {
            prop_assert_eq!(rq.edge_count(), q.edge_count() - delta.min(q.edge_count()));
            prop_assert!(contains_subgraph(rq, &q), "every relaxation embeds in the query");
        }
        // Pairwise non-isomorphic.
        for i in 0..relaxed.len() {
            for j in (i + 1)..relaxed.len() {
                prop_assert!(!are_isomorphic(&relaxed[i], &relaxed[j]));
            }
        }
    }

    // ------------------------------------------------------- probability model

    #[test]
    fn neighbor_partition_is_a_valid_partition(g in arb_graph(8, 3), cap in 1usize..4) {
        let groups = partition_with_triangles(&g, cap);
        let mut seen = vec![false; g.edge_count()];
        for grp in &groups {
            prop_assert!(grp.len() <= cap.max(3));
            prop_assert!(is_neighbor_edge_set(&g, grp));
            for e in grp {
                prop_assert!(!seen[e.index()]);
                seen[e.index()] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn world_probabilities_form_a_distribution(pg in arb_probabilistic_graph()) {
        prop_assume!(pg.edge_count() <= 12);
        let worlds = pgs::prob::world::enumerate_worlds(&pg, 12).unwrap();
        let total: f64 = worlds.iter().map(|w| w.probability).sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "total probability {total}");
        for w in &worlds {
            prop_assert!(w.probability >= -1e-12);
        }
    }

    #[test]
    fn joint_probability_never_exceeds_marginals(pg in arb_probabilistic_graph()) {
        let edges: Vec<EdgeId> = pg.skeleton().edges().collect();
        if edges.len() >= 2 {
            let pair = [edges[0], edges[1]];
            let joint = pg.prob_all_present(&pair);
            for e in pair {
                prop_assert!(joint <= pg.edge_presence_prob(e) + 1e-9);
            }
        }
    }

    // -------------------------------------------------------------- SSP / SIP

    #[test]
    fn lemma_1_equivalence_on_random_instances(pg in arb_probabilistic_graph(), qsize in 1usize..4) {
        prop_assume!(pg.edge_count() <= 10);
        let mut rng = StdRng::seed_from_u64(7);
        let q = pgs_graph::generate::random_connected_subgraph(pg.skeleton(), qsize.min(pg.edge_count()), &mut rng);
        prop_assume!(q.is_some());
        let q = q.unwrap();
        for delta in 0..=1usize {
            let brute = exact_ssp_bruteforce(&pg, &q, delta, 14).unwrap();
            let lemma = exact_ssp(&pg, &q, delta, 14).unwrap();
            prop_assert!((brute - lemma).abs() < 1e-9, "delta {delta}: {brute} vs {lemma}");
        }
    }

    #[test]
    fn union_sampler_agrees_with_the_exact_union(pg in arb_probabilistic_graph(), qsize in 2usize..4, delta in 0usize..2) {
        // The projected bitset sampler (UnionSampler) estimates the Karp–Luby
        // union probability; it must sit within Monte-Carlo tolerance of the
        // exact inclusion–exclusion value.
        prop_assume!(pg.edge_count() >= 3 && pg.edge_count() <= 12);
        let mut rng = StdRng::seed_from_u64(29);
        let q = pgs_graph::generate::random_connected_subgraph(pg.skeleton(), qsize, &mut rng);
        prop_assume!(q.is_some());
        let q = q.unwrap();
        let delta = delta.min(q.edge_count().saturating_sub(1));
        let relaxed = pgs_graph::relax::relax_query_clamped(&q, delta);
        let options = VerifyOptions {
            exact_cutoff: 0, // force the sampler off the exact shortcut
            mc: pgs::prob::montecarlo::MonteCarloConfig {
                tau: 0.05,
                xi: 0.01,
                max_samples: 20_000,
            },
            ..VerifyOptions::default()
        };
        let embeddings = collect_embeddings_of_relaxations(&pg, &relaxed, options.max_embeddings);
        let exact = pgs::prob::exact::exact_union_probability(&pg, &embeddings, 22).unwrap();
        let mut rng = StdRng::seed_from_u64(37);
        let fast = verify_ssp_with_stats(&pg, &q, delta, &relaxed, &options, 1, &mut rng).ssp;
        prop_assert!((fast - exact).abs() < 0.04, "union sampler {fast} vs exact {exact}");
    }

    #[test]
    fn embedding_collection_dedup_matches_linear_scan(pg in arb_probabilistic_graph(), qsize in 1usize..4, delta in 0usize..2) {
        // The hash-set dedup of collect_embeddings_of_relaxations must
        // produce exactly the list the old Vec::contains scan produced, for
        // every cap.
        prop_assume!(pg.edge_count() >= 2 && pg.edge_count() <= 12);
        let mut rng = StdRng::seed_from_u64(41);
        let q = pgs_graph::generate::random_connected_subgraph(pg.skeleton(), qsize.min(pg.edge_count()), &mut rng);
        prop_assume!(q.is_some());
        let q = q.unwrap();
        let relaxed = pgs_graph::relax::relax_query_clamped(&q, delta.min(q.edge_count().saturating_sub(1)));
        for cap in [1usize, 3, 64] {
            let fast = collect_embeddings_of_relaxations(&pg, &relaxed, cap);
            // Reference: the pre-PR quadratic dedup.
            let mut reference: Vec<EdgeSet> = Vec::new();
            for rq in &relaxed {
                if rq.edge_count() == 0 {
                    continue;
                }
                let outcome = enumerate_embeddings(
                    rq,
                    pg.skeleton(),
                    MatchOptions::capped(cap.saturating_sub(reference.len()).max(1)),
                );
                for emb in outcome.embeddings {
                    if !reference.contains(&emb.edges) {
                        reference.push(emb.edges);
                    }
                }
                if reference.len() >= cap {
                    break;
                }
            }
            prop_assert_eq!(&fast, &reference, "cap = {}", cap);
        }
    }

    #[test]
    fn sip_bounds_always_bracket_the_exact_sip(pg in arb_probabilistic_graph()) {
        prop_assume!(pg.edge_count() >= 2 && pg.edge_count() <= 12);
        let mut rng = StdRng::seed_from_u64(13);
        let feature = pgs_graph::generate::random_connected_subgraph(pg.skeleton(), 2, &mut rng);
        prop_assume!(feature.is_some());
        let feature = feature.unwrap();
        let bounds = sip_bounds(&pg, &feature, &BoundsConfig::default(), &mut rng);
        let outcome = enumerate_embeddings(&feature, pg.skeleton(), MatchOptions::default());
        let sets: Vec<EdgeSet> = outcome.embeddings.iter().map(|e| e.edges.clone()).collect();
        let exact = exact_sip(&pg, &sets).unwrap();
        prop_assert!(bounds.lower <= exact + 1e-9, "lower {} > exact {exact}", bounds.lower);
        prop_assert!(bounds.upper + 1e-9 >= exact, "upper {} < exact {exact}", bounds.upper);
        prop_assert!(bounds.is_valid());
    }

    #[test]
    fn adaptive_estimate_is_byte_identical_across_threads(
        pg in arb_probabilistic_graph(),
        qsize in 2usize..4,
        seed in 0u64..1000,
        threshold in 0.0f64..1.0,
    ) {
        // The early-stopping estimator checks its interval only at fixed
        // chunk boundaries, so its estimate, draw count and decision must be
        // byte-identical at 1, 2 and auto threads — and across repeats.
        prop_assume!(pg.edge_count() >= 3 && pg.edge_count() <= 12);
        let mut rng = StdRng::seed_from_u64(41);
        let q = pgs_graph::generate::random_connected_subgraph(pg.skeleton(), qsize, &mut rng);
        prop_assume!(q.is_some());
        let q = q.unwrap();
        let relaxed = pgs_graph::relax::relax_query_clamped(&q, 1);
        let embeddings = collect_embeddings_of_relaxations(&pg, &relaxed, 64);
        prop_assume!(!embeddings.is_empty());
        let sampler = UnionSampler::new(&pg, &embeddings);
        prop_assume!(sampler.is_some());
        let sampler = sampler.unwrap();
        let rule = StoppingRule { threshold, xi: 0.05, accept_early: true };
        let reference = sampler.estimate_adaptive(4096, seed, 1, &rule);
        prop_assert!(reference.samples_drawn <= 4096);
        for threads in [2usize, 0] {
            let other = sampler.estimate_adaptive(4096, seed, threads, &rule);
            prop_assert_eq!(
                other.estimate.to_bits(), reference.estimate.to_bits(),
                "estimate diverged at {} threads", threads
            );
            prop_assert_eq!(other.samples_drawn, reference.samples_drawn);
            prop_assert_eq!(other.decision, reference.decision);
        }
        let again = sampler.estimate_adaptive(4096, seed, 1, &rule);
        prop_assert_eq!(again.estimate.to_bits(), reference.estimate.to_bits());
        prop_assert_eq!(again.samples_drawn, reference.samples_drawn);
        prop_assert_eq!(again.decision, reference.decision);
    }
}
