//! Uncertain RDF integration: SPARQL-like pattern matching over probabilistic
//! entity graphs.
//!
//! The paper lists RDF data management as a driving application: when several
//! sources are integrated into one knowledge graph, the extracted facts (edges)
//! carry confidence values, and facts extracted from the same entity by the
//! same source are correlated.  This example stores one probabilistic graph per
//! integrated data source snapshot, where vertices are typed entities (person,
//! organisation, city, product) and edges are typed relations (works_for,
//! located_in, produces, founded_by) with extraction confidences.  A basic
//! graph pattern (the graph form of a SPARQL query) is then evaluated as a T-PS
//! query: *which snapshots support the pattern with probability ≥ ε, allowing
//! δ missing triples?*
//!
//! Run with: `cargo run --example rdf_integration`

use pgs::prelude::*;
use pgs::prob::neighbor::partition_neighbor_edges;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// Entity types (vertex labels).
const PERSON: u32 = 0;
const ORG: u32 = 1;
const CITY: u32 = 2;
const PRODUCT: u32 = 3;

// Relation types (edge labels).
const WORKS_FOR: u32 = 10;
const LOCATED_IN: u32 = 11;
const PRODUCES: u32 = 12;
const FOUNDED_BY: u32 = 13;

/// Builds one integrated snapshot with `quality` ∈ (0, 1] controlling the
/// extraction confidence of its triples.
fn snapshot(name: &str, orgs: usize, quality: f64, rng: &mut StdRng) -> ProbabilisticGraph {
    let mut g = Graph::with_name(name);
    let city = g.add_vertex(Label(CITY));
    for _ in 0..orgs {
        let org = g.add_vertex(Label(ORG));
        g.add_edge(org, city, Label(LOCATED_IN))
            .expect("unique edge");
        // Founder and a couple of employees.
        let founder = g.add_vertex(Label(PERSON));
        g.add_edge(org, founder, Label(FOUNDED_BY))
            .expect("unique edge");
        for _ in 0..rng.gen_range(1..=2) {
            let employee = g.add_vertex(Label(PERSON));
            g.add_edge(employee, org, Label(WORKS_FOR))
                .expect("unique edge");
        }
        // Products, sometimes.
        if rng.gen_bool(0.7) {
            let product = g.add_vertex(Label(PRODUCT));
            g.add_edge(org, product, Label(PRODUCES))
                .expect("unique edge");
        }
    }
    // Extraction confidences: higher-quality sources yield higher and less
    // variable probabilities; triples about the same entity share a JPT.
    let groups = partition_neighbor_edges(&g, 3);
    let tables: Vec<JointProbTable> = groups
        .iter()
        .map(|grp| {
            let probs: Vec<(EdgeId, f64)> = grp
                .iter()
                .map(|&e| {
                    let p = (0.55 + 0.4 * quality - rng.gen_range(0.0..0.25) * (1.0 - quality))
                        .clamp(0.05, 0.98);
                    (e, p)
                })
                .collect();
            JointProbTable::from_max_rule(&probs).expect("valid JPT")
        })
        .collect();
    ProbabilisticGraph::new(g, tables, true).expect("valid snapshot")
}

fn main() {
    let mut rng = StdRng::seed_from_u64(4242);
    let sources = [
        ("curated-registry", 3, 0.95),
        ("news-extraction", 4, 0.55),
        ("web-crawl", 5, 0.30),
        ("partner-feed", 2, 0.85),
    ];
    let graphs = sources
        .into_iter()
        .map(|(name, orgs, quality)| snapshot(name, orgs, quality, &mut rng))
        .collect();
    let engine = QueryEngine::build(graphs, EngineConfig::default());
    println!("indexed {} integrated snapshots", engine.db().len());

    // Basic graph pattern (SPARQL-style):
    //   ?p works_for ?o .  ?o located_in ?c .  ?o produces ?prod .
    let pattern = GraphBuilder::new()
        .name("bgp-company-profile")
        .vertices(&[PERSON, ORG, CITY, PRODUCT])
        .edge(0, 1, WORKS_FOR)
        .edge(1, 2, LOCATED_IN)
        .edge(1, 3, PRODUCES)
        .build();

    for (epsilon, delta) in [(0.5, 0usize), (0.5, 1), (0.2, 1)] {
        let result = engine
            .query(
                &pattern,
                &QueryParams {
                    epsilon,
                    delta,
                    variant: PruningVariant::OptSspBound,
                },
            )
            .expect("query succeeds");
        let names: Vec<&str> = result
            .answers
            .iter()
            .map(|&i| engine.db()[i].name())
            .collect();
        println!(
            "BGP supported with Pr ≥ {epsilon} (δ = {delta}): {names:?} \
             [candidates after structural/probabilistic pruning: {}/{}]",
            result.stats.structural_candidates, result.stats.probabilistic_candidates,
        );
    }

    // Confidence report per source for the strict pattern (δ = 0).
    println!("\nper-source pattern confidence (δ = 0):");
    for pg in engine.db() {
        let ssp = pgs::prob::exact::exact_ssp(pg, &pattern, 0, 22).unwrap_or(f64::NAN);
        println!("  {:<20} {ssp:.3}", pg.name());
    }
}
