//! Protein–protein interaction (PPI) similarity search — the paper's motivating
//! bioinformatics scenario.
//!
//! A STRING-like dataset of probabilistic PPI networks is synthesised (each
//! network belongs to one "organism"), a pathway-sized query motif is extracted
//! from one organism, and the T-PS query is used to retrieve the networks that
//! contain the motif with high probability.  The example then reports
//! precision/recall against the organism ground truth for the correlated (COR)
//! and the independent (IND) edge models — the comparison behind Figure 14.
//!
//! Run with: `cargo run --release --example ppi_similarity`

use pgs::datagen::ppi::CorrelationModel;
use pgs::datagen::queries::{generate_query_workload, QueryWorkloadConfig};
use pgs::prelude::*;
use pgs::prob::independent::to_independent_model;

fn main() {
    // A small organism-structured PPI dataset (see DESIGN.md for why synthetic
    // data substitutes the STRING extract).
    let config = PpiDatasetConfig {
        graph_count: 40,
        vertices_per_graph: 14,
        edges_per_graph: 20,
        vertex_label_count: 8,
        organism_count: 4,
        perturbation: 0.25,
        correlation: CorrelationModel::MaxRule,
        seed: 2012,
        ..PpiDatasetConfig::default()
    };
    let dataset = generate_ppi_dataset(&config);
    println!(
        "generated {} PPI networks over {} organisms (mean edge probability {:.3})",
        dataset.graphs.len(),
        config.organism_count,
        dataset.mean_edge_probability()
    );

    // Query motifs: size-5 connected subgraphs extracted from dataset graphs.
    let workload = generate_query_workload(
        &dataset,
        &QueryWorkloadConfig {
            query_size: 5,
            count: 8,
            seed: 7,
        },
    );

    // Two databases: the correlated model and its independent counterpart.
    let cor_db = QueryEngine::build(dataset.graphs.clone(), EngineConfig::default());
    let ind_db = QueryEngine::build(
        dataset.graphs.iter().map(to_independent_model).collect(),
        EngineConfig::default(),
    );

    // ε is calibrated to the dataset: with a STRING-like mean edge probability
    // of 0.383, a 5-edge motif at δ = 1 needs 4 edges jointly present, so even
    // a perfect match has SSP around 0.383^4 ≈ 0.02 under independence (more
    // under positive correlation).  Larger thresholds retrieve nothing.
    let epsilon = 0.05;
    let delta = 1;
    let params = QueryParams {
        epsilon,
        delta,
        variant: PruningVariant::OptSspBound,
    };
    // The whole workload goes through `query_batch`: thread spawns are
    // amortised across the queries and each answer is byte-identical to a
    // standalone `query` call (per-candidate seeded RNGs).
    let query_graphs: Vec<Graph> = workload.iter().map(|wq| wq.graph.clone()).collect();
    // Organism ground truth depends only on the query, not on the database.
    let truths: Vec<Vec<usize>> = workload
        .iter()
        .map(|wq| {
            dataset
                .organism_of
                .iter()
                .enumerate()
                .filter(|(_, &o)| o == wq.source_organism)
                .map(|(i, _)| i)
                .collect()
        })
        .collect();
    println!("\nbatched retrieval (ε = {epsilon}, δ = {delta}):");
    let mut cor_scores = (0.0, 0.0);
    let mut ind_scores = (0.0, 0.0);
    for (db, scores, label) in [
        (&cor_db, &mut cor_scores, "COR"),
        (&ind_db, &mut ind_scores, "IND"),
    ] {
        let batch = db
            .query_batch(&query_graphs, &params)
            .expect("query succeeds");
        println!(
            "  {label}: {} queries in {:.3}s ({:.1} queries/sec, {:.3} CPU-seconds in verification)",
            batch.results.len(),
            batch.wall_seconds,
            batch.queries_per_second(),
            batch.stats.verification_seconds,
        );
        for (truth, result) in truths.iter().zip(&batch.results) {
            let hit = result.answers.iter().filter(|a| truth.contains(a)).count() as f64;
            let precision = if result.answers.is_empty() {
                1.0
            } else {
                hit / result.answers.len() as f64
            };
            let recall = hit / truth.len() as f64;
            scores.0 += precision;
            scores.1 += recall;
        }
    }
    let n = workload.len().max(1) as f64;
    println!(
        "\nquery quality over {} motif queries (ε = {epsilon}, δ = {delta}):",
        workload.len()
    );
    println!(
        "  correlated model (COR):  precision {:.2}  recall {:.2}",
        cor_scores.0 / n,
        cor_scores.1 / n
    );
    println!(
        "  independent model (IND): precision {:.2}  recall {:.2}",
        ind_scores.0 / n,
        ind_scores.1 / n
    );

    // Show one query in detail.
    if let Some(wq) = workload.first() {
        let detailed = cor_db
            .query(
                &wq.graph,
                &QueryParams {
                    epsilon,
                    delta,
                    variant: PruningVariant::OptSspBound,
                },
            )
            .expect("query succeeds");
        println!(
            "\nexample query ({} edges, organism {}): {} answers; \
             structural candidates {}, pruned by upper bound {}, accepted by lower bound {}, verified {}",
            wq.graph.edge_count(),
            wq.source_organism,
            detailed.answers.len(),
            detailed.stats.structural_candidates,
            detailed.stats.pruned_by_upper,
            detailed.stats.accepted_by_lower,
            detailed.stats.verified,
        );
    }
}
