//! Helpers shared by the integration suites: the frozen database behind the
//! golden snapshots `tests/fixtures/pmi_v1.bin`, `pmi_v2.bin` and
//! `pmi_v3_one_segment.bin`, the golden PPI database, a label-poor dense
//! workload whose embedding unions outgrow the flat exact enumerator, and a
//! counters-only view of `PhaseStats`.  Each suite uses a subset.

#![allow(dead_code)]

use pgs::datagen::ppi::{generate_ppi_dataset, PpiDataset, PpiDatasetConfig};
use pgs::datagen::queries::{generate_query_workload, QueryWorkloadConfig};
use pgs::prelude::*;
use pgs_index::pmi::PmiBuildParams;
use pgs_index::sip_bounds::BoundsConfig;
use pgs_query::pipeline::PhaseStats;

/// Format-v1 (pre-S-Index) snapshot of the fixture database's index.
pub const PMI_V1: &[u8] = include_bytes!("../fixtures/pmi_v1.bin");

/// Format-v2 (single segment + S-Index) snapshot of the same index.
pub const PMI_V2: &[u8] = include_bytes!("../fixtures/pmi_v2.bin");

/// Format-v3 snapshot of the same index as the one-segment writer emits it.
pub const PMI_V3: &[u8] = include_bytes!("../fixtures/pmi_v3_one_segment.bin");

/// The frozen configuration the fixtures were generated with.  Everything is
/// pinned explicitly so drifting library defaults cannot silently change what
/// the fixtures mean.
pub fn fixture_config() -> EngineConfig {
    EngineConfig {
        pmi: PmiBuildParams {
            features: pgs_index::feature::FeatureSelectionParams {
                max_l: 3,
                alpha: 0.15,
                beta: 0.15,
                gamma: 0.15,
                max_features: 12,
                max_embeddings: 8,
            },
            bounds: BoundsConfig::default(),
            threads: 1,
            seed: 0xF1C5,
        },
        seed: 0xF1C5,
        threads: 1,
        ..EngineConfig::default()
    }
}

/// The frozen fixture database: eight small deterministic graphs.
pub fn fixture_graphs() -> Vec<ProbabilisticGraph> {
    (0..8u32)
        .map(|i| {
            let mut b = GraphBuilder::new()
                .name(format!("fixture-{i}"))
                .vertices(&[i % 3, (i + 1) % 3, (i + 2) % 3, i % 2])
                .edge(0, 1, 0)
                .edge(1, 2, 0)
                .edge(2, 3, 1);
            if i % 2 == 0 {
                b = b.edge(0, 2, 1);
            }
            let skeleton = b.build();
            let probs: Vec<f64> = (0..skeleton.edge_count())
                .map(|e| 0.25 + 0.08 * ((i as usize + e) % 9) as f64)
                .collect();
            ProbabilisticGraph::independent(skeleton, &probs).unwrap()
        })
        .collect()
}

/// The frozen golden PPI database: the engine half of
/// `tests/query_path_golden.rs` runs on it.
pub fn ppi_dataset() -> PpiDataset {
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

/// The query the fixture workload asks.
pub fn fixture_query() -> Graph {
    GraphBuilder::new()
        .vertices(&[0, 1, 2])
        .edge(0, 1, 0)
        .edge(1, 2, 0)
        .build()
}

/// A tiny database in the shape of perfbench's ppi-dense workload (3 vertex
/// labels, 40-vertex, 64-edge graphs) plus four 5-edge queries drawn from
/// it.  Few labels make many overlapping embeddings, so at δ = 1 some
/// unions span 13–22 relevant edges, past the 12 the flat exact enumerator
/// serves.  Frozen: the wide-union pins depend on it.
pub fn dense_workload() -> (Vec<ProbabilisticGraph>, Vec<Graph>) {
    let ds = generate_ppi_dataset(&PpiDatasetConfig {
        graph_count: 8,
        vertices_per_graph: 40,
        edges_per_graph: 64,
        vertex_label_count: 3,
        organism_count: 2,
        perturbation: 0.3,
        seed: 6,
        ..PpiDatasetConfig::default()
    });
    let queries = generate_query_workload(
        &ds,
        &QueryWorkloadConfig {
            query_size: 5,
            count: 4,
            seed: 3,
        },
    );
    (ds.graphs, queries.into_iter().map(|wq| wq.graph).collect())
}

/// Strips the wall-clock fields so two `PhaseStats` can be compared on work
/// counters alone (timings legitimately differ run to run).
pub fn counters_only(mut stats: PhaseStats) -> PhaseStats {
    stats.structural_seconds = 0.0;
    stats.probabilistic_seconds = 0.0;
    stats.verification_seconds = 0.0;
    stats
}
