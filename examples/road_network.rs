//! Road-network reliability: finding districts whose road grid supports a
//! routing pattern with high probability.
//!
//! The paper's introduction motivates correlated edge probabilities with
//! traffic: "a busy traffic path often blocks traffic in nearby paths".  This
//! example models a fleet operator that stores one probabilistic graph per city
//! district — vertices are intersections labelled by their type (junction,
//! roundabout, highway ramp), edges are road segments whose existence
//! probability is the chance the segment is passable during rush hour, and
//! segments meeting at the same intersection share a joint probability table
//! (congestion spills over).  A T-PS query asks: *which districts can realise a
//! given delivery-loop pattern with probability at least ε, tolerating at most
//! δ missing segments?*
//!
//! Run with: `cargo run --example road_network`

use pgs::prelude::*;
use pgs::prob::neighbor::partition_with_triangles;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Intersection types.
const JUNCTION: u32 = 0;
const ROUNDABOUT: u32 = 1;
const RAMP: u32 = 2;

/// Builds one district: a ring road of `ring` roundabouts with junction spurs
/// and a couple of highway ramps; `congestion` scales how unreliable the
/// segments are during rush hour.
fn district(name: &str, ring: usize, congestion: f64, rng: &mut StdRng) -> ProbabilisticGraph {
    let mut g = Graph::with_name(name);
    // Ring of roundabouts.
    let ring_vertices: Vec<VertexId> = (0..ring).map(|_| g.add_vertex(Label(ROUNDABOUT))).collect();
    for i in 0..ring {
        let a = ring_vertices[i];
        let b = ring_vertices[(i + 1) % ring];
        if g.find_edge(a, b).is_none() {
            g.add_edge(a, b, Label(0)).expect("ring edges are unique");
        }
    }
    // Junction spurs hanging off the ring.
    for &r in &ring_vertices {
        let spur = g.add_vertex(Label(JUNCTION));
        g.add_edge(r, spur, Label(0)).expect("spur edge");
        if rng.gen_bool(0.5) {
            let second = g.add_vertex(Label(JUNCTION));
            g.add_edge(spur, second, Label(0))
                .expect("second spur edge");
        }
    }
    // Two highway ramps attached to opposite sides of the ring.
    for idx in [0, ring / 2] {
        let ramp = g.add_vertex(Label(RAMP));
        g.add_edge(ring_vertices[idx], ramp, Label(0))
            .expect("ramp edge");
    }

    // Passability probabilities: ring segments suffer most from congestion.
    let edge_prob = |e: EdgeId, g: &Graph, rng: &mut StdRng| -> f64 {
        let edge = g.edge(e);
        let on_ring = g.vertex_label(edge.u) == Label(ROUNDABOUT)
            && g.vertex_label(edge.v) == Label(ROUNDABOUT);
        let base = if on_ring { 0.85 } else { 0.95 };
        (base - congestion * rng.gen_range(0.05..0.35)).clamp(0.05, 0.99)
    };
    let groups = partition_with_triangles(&g, 3);
    let tables: Vec<JointProbTable> = groups
        .iter()
        .map(|grp| {
            let probs: Vec<(EdgeId, f64)> =
                grp.iter().map(|&e| (e, edge_prob(e, &g, rng))).collect();
            // Congested segments at the same intersection are correlated.
            JointProbTable::from_max_rule(&probs).expect("valid JPT")
        })
        .collect();
    ProbabilisticGraph::new(g, tables, true).expect("valid district model")
}

fn main() {
    let mut rng = StdRng::seed_from_u64(17);
    let districts = [
        ("riverside (light traffic)", 6, 0.1),
        ("old-town (moderate)", 5, 0.4),
        ("industrial (heavy)", 6, 0.8),
        ("hillside (light)", 4, 0.2),
        ("harbour (heavy)", 5, 0.9),
    ];
    let graphs = districts
        .into_iter()
        .map(|(name, ring, congestion)| district(name, ring, congestion, &mut rng))
        .collect();
    let engine = QueryEngine::build(graphs, EngineConfig::default());
    println!("indexed {} districts", engine.db().len());

    // Delivery-loop pattern: a roundabout-to-roundabout ring segment with a
    // junction spur and a highway ramp reachable from it.
    let pattern = GraphBuilder::new()
        .name("delivery-loop")
        .vertices(&[ROUNDABOUT, ROUNDABOUT, JUNCTION, RAMP])
        .edge(0, 1, 0) // ring segment
        .edge(0, 2, 0) // spur to a junction
        .edge(1, 3, 0) // ramp access
        .build();

    for (epsilon, delta) in [(0.6, 0usize), (0.6, 1), (0.3, 1)] {
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
            "pattern feasible with Pr ≥ {epsilon} tolerating {delta} closed segment(s): {names:?}"
        );
    }

    // Reliability ranking: exact SSP of the pattern per district (small models,
    // exact evaluation is cheap).
    println!("\nper-district pattern reliability (δ = 1):");
    let mut ranked: Vec<(String, f64)> = engine
        .db()
        .iter()
        .map(|pg| {
            let ssp = pgs::prob::exact::exact_ssp(pg, &pattern, 1, 22).unwrap_or(f64::NAN);
            (pg.name().to_string(), ssp)
        })
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    for (name, ssp) in ranked {
        println!("  {name:<28} {ssp:.3}");
    }
}
