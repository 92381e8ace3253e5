//! Property-based tests (proptest) of the core invariants: graph model,
//! canonical codes, relaxation, subgraph distance, probabilistic model and the
//! PMI bounds.

use pgs::prelude::*;
use pgs::prob::exact::{exact_sip, exact_ssp, exact_ssp_bruteforce};
use pgs_graph::dfs_code::{are_isomorphic, canonical_code};
use pgs_graph::embeddings::EdgeSet;
use pgs_graph::mcs::{subgraph_distance, subgraph_similar};
use pgs_graph::relax::relax_query;
use pgs_graph::summary::StructuralSummary;
use pgs_graph::vf2::{
    contains_subgraph, contains_subgraph_summarized, enumerate_embeddings, MatchOptions, Matcher,
};
use pgs_index::sindex::StructuralIndex;
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
    arb_graph_between(2, max_vertices, labels)
}

/// [`arb_graph`] with at least `min_vertices` vertices.
fn arb_graph_between(
    min_vertices: usize,
    max_vertices: usize,
    labels: u32,
) -> impl Strategy<Value = Graph> {
    (min_vertices..=max_vertices)
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

/// Strategy: a graph on 2–8 vertices over 2 vertex labels with up to 16
/// random edges over 2 edge labels (self-loops and repeated pairs dropped),
/// so that it may be disconnected and hold isolated vertices.
fn arb_small_target() -> impl Strategy<Value = Graph> {
    (2usize..=8)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(0u32..2, n),
                proptest::collection::vec((0..n, 0..n, 0u32..2), 0..=16),
            )
        })
        .prop_map(|(vlabels, edges)| {
            let mut g = Graph::new();
            for &l in &vlabels {
                g.add_vertex(Label(l));
            }
            for (u, v, e) in edges {
                let _ = g.add_edge(VertexId(u as u32), VertexId(v as u32), Label(e));
            }
            g
        })
}

/// Strategy: a pattern of at most one edge plus 0–3 isolated vertices, over
/// the label alphabets of [`arb_small_target`].  With two vertex labels an
/// isolated vertex often repeats an endpoint label.
fn arb_single_edge_pattern() -> impl Strategy<Value = Graph> {
    (
        proptest::collection::vec((0u32..2, 0u32..2, 0u32..2), 0..=1),
        proptest::collection::vec(0u32..2, 0..=3),
    )
        .prop_map(|(edge, isolated)| {
            let mut g = Graph::new();
            for (a, b, e) in edge {
                let u = g.add_vertex(Label(a));
                let v = g.add_vertex(Label(b));
                g.add_edge(u, v, Label(e)).unwrap();
            }
            for l in isolated {
                g.add_vertex(Label(l));
            }
            g
        })
}

/// Strategy: a query of 2–4 edges over the label alphabets of
/// [`arb_small_target`] — a random tree, its vertex `i + 1` hung below one of
/// the vertices before it — plus 0–1 isolated vertex.
fn arb_few_edge_query() -> impl Strategy<Value = Graph> {
    (2usize..=4)
        .prop_flat_map(|m| {
            (
                proptest::collection::vec(0u32..2, m + 1),
                proptest::collection::vec((0u64..u64::MAX, 0u32..2), m),
                proptest::collection::vec(0u32..2, 0..=1),
            )
        })
        .prop_map(|(vlabels, edges, isolated)| {
            let mut g = Graph::new();
            for &l in vlabels.iter().chain(&isolated) {
                g.add_vertex(Label(l));
            }
            for (i, &(parent, e)) in edges.iter().enumerate() {
                let p = (parent % (i as u64 + 1)) as u32;
                g.add_edge(VertexId(i as u32 + 1), VertexId(p), Label(e))
                    .unwrap();
            }
            g
        })
}

/// `g` with its vertices renamed by a random permutation.
fn shuffled(g: &Graph, rng: &mut StdRng) -> Graph {
    use rand::seq::SliceRandom;
    let mut perm: Vec<u32> = (0..g.vertex_count() as u32).collect();
    perm.shuffle(rng);
    let mut slots = vec![Label(0); g.vertex_count()];
    for v in g.vertices() {
        slots[perm[v.index()] as usize] = g.vertex_label(v);
    }
    let mut h = Graph::new();
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
    h
}

/// `g` after up to three random degree-preserving switches: edges `a–b` and
/// `c–d` become `a–d` and `c–b` where that keeps the graph simple.  Vertex
/// labels and degrees, so the (label, degree) histogram, are unchanged.
fn edge_switched(g: &Graph, rng: &mut StdRng) -> Graph {
    use rand::Rng;
    let mut edges: Vec<(u32, u32)> = g.edge_entries().map(|(_, e)| (e.u.0, e.v.0)).collect();
    for _ in 0..3 {
        if edges.len() < 2 {
            break;
        }
        let i = rng.gen_range(0..edges.len());
        let j = rng.gen_range(0..edges.len());
        let ((a, b), (c, d)) = (edges[i], edges[j]);
        let present = |x: u32, y: u32| {
            edges
                .iter()
                .any(|&(u, v)| (u, v) == (x, y) || (u, v) == (y, x))
        };
        if a == c || a == d || b == c || b == d || present(a, d) || present(c, b) {
            continue;
        }
        edges[i] = (a, d);
        edges[j] = (c, b);
    }
    let mut h = Graph::new();
    for &l in g.vertex_labels() {
        h.add_vertex(l);
    }
    for (u, v) in edges {
        h.add_edge(VertexId(u), VertexId(v), Label(0)).unwrap();
    }
    h
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
    fn canonical_code_is_isomorphism_invariant(
        g in (1u32..=2).prop_flat_map(|labels| arb_graph(8, labels)),
        seed in 0u64..1000,
    ) {
        // Rename the vertices with a random permutation; the canonical code
        // must not change and the graphs must be reported isomorphic.  Eight
        // vertices over one or two labels is where (label, degree) cells are
        // largest.
        let mut rng = StdRng::seed_from_u64(seed);
        let h = shuffled(&g, &mut rng);
        prop_assert!(are_isomorphic(&g, &h));
        prop_assert_eq!(canonical_code(&g), canonical_code(&h));
    }

    #[test]
    fn equal_exact_codes_iff_vf2_isomorphic(
        g in (1u32..=2).prop_flat_map(|labels| arb_graph_between(5, 8, labels)),
        seed in 0u64..1000,
    ) {
        // A degree-preserving edge switch keeps the (label, degree) histogram,
        // so the cells cannot separate `g` from `h`; whether the switch made a
        // non-isomorphic graph is VF2's call (equal vertex and edge counts make
        // a monomorphism an isomorphism).
        let mut rng = StdRng::seed_from_u64(seed);
        let cg = canonical_code(&g);
        prop_assert!(cg.exact);
        for _ in 0..8 {
            let h = shuffled(&edge_switched(&g, &mut rng), &mut rng);
            let vf2 = contains_subgraph(&g, &h);
            let ch = canonical_code(&h);
            prop_assert!(ch.exact);
            prop_assert_eq!(cg == ch, vf2);
            prop_assert_eq!(are_isomorphic(&g, &h), vf2);
        }
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
    fn single_edge_containment_agrees_with_the_vf2_search(
        target in arb_small_target(),
        patterns in proptest::collection::vec(arb_single_edge_pattern(), 16),
    ) {
        // `contains_subgraph_summarized` answers a pattern of at most one
        // edge from the summaries alone; the matcher's search is the
        // reference.  Sixteen patterns per target over two-letter alphabets
        // give hits and misses on the edge signature and on the isolated
        // labels.
        let ts = StructuralSummary::of(&target);
        for p in &patterns {
            prop_assert_eq!(
                contains_subgraph_summarized(p, &target, ts.view()),
                Matcher::new(p, &target, ts.view()).exists(),
                "pattern {:?} in target {:?}", p, target
            );
        }
    }

    #[test]
    fn one_edge_short_filter_survivors_are_exactly_the_vf2_matches(
        targets in proptest::collection::vec(arb_small_target(), 8),
        q in arb_few_edge_query(),
    ) {
        // At δ = |E(q)| − 1 every relaxed pattern is one edge, so phase 1
        // returns the deficit filter's survivors without its exact check;
        // VF2 over the relaxed set is the reference.
        let delta = q.edge_count() - 1;
        let index = StructuralIndex::build(&targets);
        let filtered = index
            .filter_candidates(StructuralSummary::of(&q).view(), delta)
            .candidates;
        let relaxed = relax_query(&q, delta);
        prop_assert!(relaxed.iter().all(|rq| rq.edge_count() == 1));
        let matched: Vec<usize> = (0..targets.len())
            .filter(|&gi| {
                let g = &targets[gi];
                let gs = StructuralSummary::of(g);
                relaxed.iter().any(|rq| Matcher::new(rq, g, gs.view()).exists())
            })
            .collect();
        prop_assert_eq!(filtered, matched, "query {:?}", q);
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
    fn relaxation_embeddings_are_distinct_and_collected_in_order(
        pg in arb_probabilistic_graph(),
        delta in 0usize..3,
        extra in 0usize..3,
        seed in 0u64..1000,
    ) {
        // Two relaxed queries never share an embedding edge set, so the
        // collector keeps no dedup set: it returns the concatenation of the
        // per-relaxation VF2 lists, in order, cut at the cap.
        let qsize = delta + 1 + extra;
        prop_assume!(pg.edge_count() >= qsize && pg.edge_count() <= 12);
        let mut rng = StdRng::seed_from_u64(seed);
        let q = pgs_graph::generate::random_connected_subgraph(pg.skeleton(), qsize, &mut rng);
        prop_assume!(q.is_some());
        let relaxed = relax_query(&q.unwrap(), delta);
        let concatenation: Vec<EdgeSet> = relaxed
            .iter()
            .flat_map(|rq| enumerate_embeddings(rq, pg.skeleton(), MatchOptions::default()).embeddings)
            .map(|emb| emb.edges)
            .collect();
        let mut distinct = concatenation.clone();
        distinct.sort();
        distinct.dedup();
        prop_assert_eq!(distinct.len(), concatenation.len(), "two relaxations share an edge set");
        for cap in [usize::MAX, 1, 3] {
            let collected = collect_embeddings_of_relaxations(&pg, &relaxed, cap);
            let prefix = &concatenation[..concatenation.len().min(cap)];
            prop_assert_eq!(&collected[..], prefix, "cap = {}", cap);
        }
    }

    #[test]
    fn sip_bounds_always_bracket_the_exact_sip(pg in arb_probabilistic_graph()) {
        prop_assume!(pg.edge_count() >= 2 && pg.edge_count() <= 12);
        let mut rng = StdRng::seed_from_u64(13);
        let feature = pgs_graph::generate::random_connected_subgraph(pg.skeleton(), 2, &mut rng);
        prop_assume!(feature.is_some());
        let feature = feature.unwrap();
        let gs = StructuralSummary::of(pg.skeleton());
        let bounds = sip_bounds(&pg, &feature, gs.view(), &BoundsConfig::default(), &mut rng)
            .expect("a subgraph of the skeleton has an embedding");
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
