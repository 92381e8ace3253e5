//! Predefined dataset scales.
//!
//! The paper's dataset is 5K graphs with ~385 vertices and ~612 edges each —
//! far beyond what a test suite or a CI benchmark should chew on.  The scales
//! below keep the *ratios* (edges ≈ 1.6 × vertices, mean probability 0.383,
//! label alphabet comparable to the COG categories) while shrinking absolute
//! sizes.  `DatasetScale::Paper` exists for completeness and is only meant for
//! long offline runs.

use crate::ppi::{CorrelationModel, PpiDatasetConfig};
use pgs_graph::generate::{random_connected_graph, RandomGraphConfig};
use pgs_prob::model::ProbabilisticGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Named dataset scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetScale {
    /// A few dozen small graphs; unit/integration tests.
    Tiny,
    /// Hundreds of graphs with tens of edges; default benchmark scale.
    Small,
    /// Around a thousand graphs; the scalability sweep's upper end.
    Medium,
    /// The paper's published scale (5K graphs, ~385 vertices, ~612 edges).
    Paper,
}

/// Returns the dataset configuration for a named scale.
pub fn paper_scale(scale: DatasetScale) -> PpiDatasetConfig {
    match scale {
        DatasetScale::Tiny => PpiDatasetConfig {
            graph_count: 24,
            vertices_per_graph: 14,
            edges_per_graph: 22,
            vertex_label_count: 10,
            edge_label_count: 2,
            organism_count: 3,
            ..PpiDatasetConfig::default()
        },
        DatasetScale::Small => PpiDatasetConfig {
            graph_count: 200,
            vertices_per_graph: 25,
            edges_per_graph: 40,
            vertex_label_count: 14,
            edge_label_count: 2,
            organism_count: 5,
            ..PpiDatasetConfig::default()
        },
        DatasetScale::Medium => PpiDatasetConfig {
            graph_count: 1_000,
            vertices_per_graph: 30,
            edges_per_graph: 48,
            vertex_label_count: 16,
            edge_label_count: 3,
            organism_count: 8,
            ..PpiDatasetConfig::default()
        },
        DatasetScale::Paper => PpiDatasetConfig {
            graph_count: 5_000,
            vertices_per_graph: 385,
            edges_per_graph: 612,
            vertex_label_count: 25,
            edge_label_count: 3,
            organism_count: 12,
            mean_edge_probability: 0.383,
            correlation: CorrelationModel::MaxRule,
            ..PpiDatasetConfig::default()
        },
    }
}

/// A bulk skeleton corpus for index-snapshot benchmarks: `count` tiny
/// independent probabilistic graphs (6 vertices, 7–9 edges, small label
/// alphabets) that are cheap to generate, index and persist even at 100 000
/// graphs.  Unlike [`paper_scale`] this trades realism for volume — the
/// point is to exercise snapshot *size* (one PMI column and one structural
/// summary per graph), not query selectivity.
pub fn bulk_skeletons(count: usize, seed: u64) -> Vec<ProbabilisticGraph> {
    // pgs-lint: allow(unseeded-rng, dataset generators are seeded by the scenario config, outside the engine's derive_seed tree)
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let cfg = RandomGraphConfig {
                vertices: 6,
                edges: 7 + (i % 3),
                vertex_labels: 5,
                edge_labels: 2,
                preferential: false,
            };
            let mut skeleton = random_connected_graph(&cfg, &mut rng);
            skeleton.set_name(format!("bulk-{i}"));
            let probs: Vec<f64> = (0..skeleton.edge_count())
                .map(|_| rng.gen_range(0.15..0.95))
                .collect();
            // pgs-lint: allow(panic-in-library, generated probabilities are fixed inside (0, 1) by the formula above)
            ProbabilisticGraph::independent(skeleton, &probs).expect("probabilities are in (0, 1)")
        })
        .collect()
}

/// A fixed deterministic query workload over the [`bulk_skeletons`] label
/// alphabet: `count` three-vertex paths cycling through the five vertex
/// labels and two edge labels, so each query matches a different slice of a
/// bulk corpus.  Drives the adaptive-stopping gate of the top-k
/// integration tests.
pub fn bulk_path_queries(count: usize) -> Vec<pgs_graph::model::Graph> {
    use pgs_graph::model::GraphBuilder;
    (0..count as u32)
        .map(|i| {
            GraphBuilder::new()
                .name(format!("path-query-{i}"))
                .vertices(&[i % 5, (i + 1) % 5, (i + 2) % 5])
                .edge(0, 1, i % 2)
                .edge(1, 2, (i + 1) % 2)
                .build()
        })
        .collect()
}

/// A verification-phase candidate for the verifier's test suite: a labelled triangle region (vertex labels 0/1/2,
/// edge label 9, one correlated max-rule JPT) the returned query embeds into
/// exactly, plus `extra` pendant edges (vertex label 7, edge label 4) each in
/// its own single-edge JPT the embedding union never touches.
///
/// With `extra ≥ 4` the graph has ≥ 4× more JPT tables than the union of the
/// query's embeddings touches — the shape the `UnionSampler`'s table
/// projection exploits.
pub fn verification_candidate(
    extra: usize,
) -> (pgs_prob::model::ProbabilisticGraph, pgs_graph::model::Graph) {
    use pgs_graph::model::{EdgeId, GraphBuilder};
    use pgs_prob::jpt::JointProbTable;
    let mut labels = vec![0u32, 1, 2];
    labels.extend(std::iter::repeat_n(7, extra));
    let mut b = GraphBuilder::new()
        .name("verify-candidate")
        .vertices(&labels)
        .edge(0, 1, 9)
        .edge(1, 2, 9)
        .edge(0, 2, 9);
    for i in 0..extra {
        b = b.edge(i as u32 % 3, 3 + i as u32, 4);
    }
    let skeleton = b.build();
    let mut tables = vec![JointProbTable::from_max_rule(&[
        (EdgeId(0), 0.7),
        (EdgeId(1), 0.6),
        (EdgeId(2), 0.8),
    ])
    // pgs-lint: allow(panic-in-library, hard-coded row masses sum to 1, a valid JPT by construction)
    .expect("valid triangle JPT")];
    for i in 0..extra {
        tables.push(
            JointProbTable::independent(&[(EdgeId(3 + i as u32), 0.2 + 0.05 * (i % 10) as f64)])
                // pgs-lint: allow(panic-in-library, hard-coded probabilities lie inside (0, 1))
                .expect("valid pendant JPT"),
        );
    }
    let pg = pgs_prob::model::ProbabilisticGraph::new(skeleton, tables, true)
        // pgs-lint: allow(panic-in-library, generator invariant: pendant tables partition the neighbor edges)
        .expect("pendant tables are neighbor-edge sets");
    let query = GraphBuilder::new()
        .vertices(&[0, 1, 2])
        .edge(0, 1, 9)
        .edge(1, 2, 9)
        .edge(0, 2, 9)
        .build();
    (pg, query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ppi::generate_ppi_dataset;

    #[test]
    fn scales_are_ordered_by_size() {
        let tiny = paper_scale(DatasetScale::Tiny);
        let small = paper_scale(DatasetScale::Small);
        let medium = paper_scale(DatasetScale::Medium);
        let paper = paper_scale(DatasetScale::Paper);
        assert!(tiny.graph_count < small.graph_count);
        assert!(small.graph_count < medium.graph_count);
        assert!(medium.graph_count < paper.graph_count);
        assert_eq!(paper.graph_count, 5_000);
        assert_eq!(paper.vertices_per_graph, 385);
        assert_eq!(paper.edges_per_graph, 612);
        assert!((paper.mean_edge_probability - 0.383).abs() < 1e-12);
    }

    #[test]
    fn tiny_scale_generates_quickly() {
        let ds = generate_ppi_dataset(&paper_scale(DatasetScale::Tiny));
        assert_eq!(ds.graphs.len(), 24);
    }

    #[test]
    fn bulk_skeletons_are_tiny_deterministic_and_named() {
        let a = bulk_skeletons(50, 0xB17);
        let b = bulk_skeletons(50, 0xB17);
        assert_eq!(a.len(), 50);
        for (i, pg) in a.iter().enumerate() {
            assert_eq!(pg.name(), format!("bulk-{i}"));
            assert_eq!(pg.skeleton().vertex_count(), 6);
            assert!((7..=9).contains(&pg.edge_count()));
        }
        // Deterministic in the seed, distinct across seeds.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.skeleton().structural_hash(),
                y.skeleton().structural_hash()
            );
        }
        assert_ne!(
            bulk_skeletons(1, 1)[0].skeleton().structural_hash(),
            bulk_skeletons(1, 2)[0].skeleton().structural_hash()
        );
    }

    #[test]
    fn bulk_path_queries_cycle_the_bulk_label_alphabet() {
        let qs = bulk_path_queries(16);
        assert_eq!(qs.len(), 16);
        for (i, q) in qs.iter().enumerate() {
            assert_eq!(q.name(), format!("path-query-{i}"));
            assert_eq!(q.vertex_count(), 3);
            assert_eq!(q.edge_count(), 2);
        }
        // Deterministic: the workload is a pure function of the count.
        assert_eq!(
            qs[3].structural_hash(),
            bulk_path_queries(16)[3].structural_hash()
        );
        // Distinct queries hit distinct label combinations.
        assert_ne!(qs[0].structural_hash(), qs[1].structural_hash());
    }

    #[test]
    fn verification_candidate_has_the_advertised_shape() {
        let (pg, q) = verification_candidate(12);
        assert_eq!(pg.tables().len(), 13);
        assert_eq!(pg.edge_count(), 3 + 12);
        assert_eq!(q.edge_count(), 3);
        // The query's only embedding is the triangle: the union touches one
        // table, so the graph has > 4x more tables than the union.
        let triangle: Vec<_> = (0..3).map(pgs_graph::model::EdgeId).collect();
        assert_eq!(pg.tables_touched(&triangle).len(), 1);
    }
}
