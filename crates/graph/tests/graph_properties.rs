//! Property-based tests of the deterministic graph substrate.

use pgs_graph::clique::max_weight_clique;
use pgs_graph::cuts::minimal_cuts;
use pgs_graph::dfs_code::{are_isomorphic, canonical_code};
use pgs_graph::embeddings::{disjoint_embedding_count, edge_sets_disjoint};
use pgs_graph::mcs::{mcs_size, subgraph_distance};
use pgs_graph::model::{EdgeId, Graph, Label, VertexId};
use pgs_graph::relax::relax_query;
use pgs_graph::serialize::{read_database, write_database};
use pgs_graph::traversal::{connected_components, triangles};
use pgs_graph::vf2::{contains_subgraph, enumerate_embeddings, MatchOptions};
use proptest::prelude::*;

/// Strategy: a random labelled graph (not necessarily connected).
fn arb_graph(max_vertices: usize, labels: u32) -> impl Strategy<Value = Graph> {
    (1..=max_vertices)
        .prop_flat_map(move |n| {
            (
                proptest::collection::vec(0..labels, n),
                proptest::collection::vec((0..n, 0..n, 0..labels), 0..(n * 2)),
            )
        })
        .prop_map(|(vlabels, edges)| {
            let mut g = Graph::new();
            for &l in &vlabels {
                g.add_vertex(Label(l));
            }
            for (u, v, l) in edges {
                if u != v {
                    let _ = g.add_edge(VertexId(u as u32), VertexId(v as u32), Label(l));
                }
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn serialization_round_trips(graphs in proptest::collection::vec(arb_graph(7, 4), 1..4)) {
        let text = write_database(&graphs);
        let back = read_database(&text).unwrap();
        prop_assert_eq!(graphs, back);
    }

    #[test]
    fn graph_is_its_own_subgraph_and_mcs(g in arb_graph(7, 3)) {
        prop_assert!(contains_subgraph(&g, &g));
        prop_assert_eq!(mcs_size(&g, &g), g.edge_count());
        prop_assert_eq!(subgraph_distance(&g, &g), 0);
        prop_assert!(are_isomorphic(&g, &g));
        let code = canonical_code(&g);
        prop_assert_eq!(code.clone(), canonical_code(&g));
        prop_assert_eq!(code.digest(), canonical_code(&g).digest());
    }

    #[test]
    fn mcs_is_bounded_and_symmetric_in_overlap(a in arb_graph(5, 2), b in arb_graph(6, 2)) {
        let m = mcs_size(&a, &b);
        prop_assert!(m <= a.edge_count().min(b.edge_count()));
        // The common-subgraph size is symmetric.
        prop_assert_eq!(m, mcs_size(&b, &a));
        // Distance is edge count minus the common size.
        prop_assert_eq!(subgraph_distance(&a, &b), a.edge_count() - m);
    }

    #[test]
    fn embedding_enumeration_agrees_with_containment(a in arb_graph(4, 2), b in arb_graph(6, 2)) {
        let exists = contains_subgraph(&a, &b);
        let outcome = enumerate_embeddings(&a, &b, MatchOptions::default());
        prop_assert_eq!(exists, !outcome.embeddings.is_empty());
        // Every embedding covers exactly the pattern's edges (as distinct data edges).
        for emb in &outcome.embeddings {
            prop_assert_eq!(emb.edges.len(), a.edge_count());
            // Mapped vertices are distinct.
            let mut seen = emb.vertex_map.clone();
            seen.sort_unstable();
            seen.dedup();
            prop_assert_eq!(seen.len(), a.vertex_count());
        }
    }

    #[test]
    fn relaxations_partition_by_edge_count(q in arb_graph(6, 2), delta in 0usize..3) {
        let delta = delta.min(q.edge_count());
        let relaxed = relax_query(&q, delta);
        for rq in &relaxed {
            prop_assert_eq!(rq.edge_count(), q.edge_count() - delta);
        }
        // Dedup only merges the C(|E|, delta) deletion subsets.
        let mut subsets = 1usize;
        for i in 0..delta {
            subsets = subsets * (q.edge_count() - i) / (i + 1);
        }
        prop_assert!(relaxed.len() <= subsets);
        prop_assert_eq!(relaxed.is_empty(), subsets == 0);
    }

    #[test]
    fn triangles_are_consistent_with_components(g in arb_graph(8, 2)) {
        let tris = triangles(&g);
        for t in &tris {
            // The three edges of a triangle touch exactly three vertices.
            let mut vs: Vec<VertexId> = t
                .iter()
                .flat_map(|&e| {
                    let edge = g.edge(e);
                    [edge.u, edge.v]
                })
                .collect();
            vs.sort_unstable();
            vs.dedup();
            prop_assert_eq!(vs.len(), 3);
        }
        // Components partition the vertex set.
        let comps = connected_components(&g);
        let total: usize = comps.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, g.vertex_count());
    }

    #[test]
    fn clique_members_are_pairwise_adjacent(weights in proptest::collection::vec(0.0f64..3.0, 1..12), seed in 0u64..100) {
        use rand::{Rng, SeedableRng};
        let n = weights.len();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut adj = pgs_graph::BitMatrix::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_bool(0.5) {
                    adj.set_pair(i, j);
                }
            }
        }
        let result = max_weight_clique(&weights, &adj);
        for (x, &a) in result.members.iter().enumerate() {
            for &b in &result.members[x + 1..] {
                prop_assert!(adj.get(a, b));
            }
        }
        let total: f64 = result.members.iter().map(|&i| weights[i]).sum();
        prop_assert!((total - result.weight).abs() < 1e-9);
        // Singleton cliques are always available: the result cannot be worse
        // than the heaviest node.
        let best_single = weights.iter().cloned().fold(0.0, f64::max);
        prop_assert!(result.weight + 1e-9 >= best_single);
    }

    #[test]
    fn minimal_cuts_hit_every_embedding_and_are_minimal(
        sets in proptest::collection::vec(proptest::collection::vec(0u32..8, 1..4), 1..5)
    ) {
        let embeddings: Vec<Vec<EdgeId>> = sets
            .iter()
            .map(|s| {
                let mut v: Vec<EdgeId> = s.iter().map(|&e| EdgeId(e)).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let (cuts, complete) = minimal_cuts(&embeddings, 256);
        if complete {
            prop_assert!(!cuts.is_empty());
        }
        for cut in &cuts {
            for emb in &embeddings {
                prop_assert!(emb.iter().any(|e| cut.contains(e)), "cut misses an embedding");
            }
            for drop in cut {
                let reduced: Vec<EdgeId> = cut.iter().copied().filter(|e| e != drop).collect();
                let still_hits = embeddings
                    .iter()
                    .all(|emb| emb.iter().any(|e| reduced.contains(e)));
                prop_assert!(!still_hits, "cut {cut:?} is not minimal");
            }
        }
    }

    #[test]
    fn disjoint_embedding_count_is_consistent(
        sets in proptest::collection::vec(proptest::collection::vec(0u32..10, 1..4), 0..6)
    ) {
        let embeddings: Vec<pgs_graph::embeddings::Embedding> = sets
            .iter()
            .map(|s| pgs_graph::embeddings::Embedding::new(vec![], s.iter().map(|&e| EdgeId(e)).collect()))
            .collect();
        let k = disjoint_embedding_count(&embeddings);
        prop_assert!(k <= embeddings.len());
        if !embeddings.is_empty() {
            prop_assert!(k >= 1);
        }
        // Pairwise disjointness helper is symmetric.
        for a in &embeddings {
            for b in &embeddings {
                prop_assert_eq!(
                    edge_sets_disjoint(&a.edges, &b.edges),
                    edge_sets_disjoint(&b.edges, &a.edges)
                );
            }
        }
    }
}
