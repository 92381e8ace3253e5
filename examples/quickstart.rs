//! Quickstart: build a small probabilistic graph database by hand, index it,
//! and run a threshold-based probabilistic subgraph similarity (T-PS) query.
//!
//! This reproduces the running example of the paper (Figure 1): a database
//! with two probabilistic graphs and a triangle query, asking which graphs
//! match the query within subgraph distance 1 with probability at least 0.4.
//!
//! Run with: `cargo run --example quickstart`

use pgs::prelude::*;

fn main() {
    // ---------------------------------------------------------------- graph 001
    // A triangle a-b-d whose three edges form one neighbor-edge set with a
    // joint probability table (correlated edges).
    let g001 = GraphBuilder::new()
        .name("001")
        .vertices(&[0, 1, 3]) // labels: a=0, b=1, d=3
        .edge(0, 1, 9)
        .edge(1, 2, 9)
        .edge(0, 2, 9)
        .build();
    let jpt001 =
        JointProbTable::from_max_rule(&[(EdgeId(0), 0.65), (EdgeId(1), 0.55), (EdgeId(2), 0.70)])
            .expect("valid JPT");
    let pg001 =
        ProbabilisticGraph::new(g001, vec![jpt001], true).expect("valid probabilistic graph");

    // ---------------------------------------------------------------- graph 002
    // The 5-edge graph of Figure 1: a triangle {a, a, b} plus pendant b and c
    // vertices, with two joint probability tables.
    let g002 = GraphBuilder::new()
        .name("002")
        .vertices(&[0, 0, 1, 1, 2]) // a, a, b, b, c
        .edge(0, 1, 9)
        .edge(0, 2, 9)
        .edge(1, 2, 9)
        .edge(2, 3, 9)
        .edge(2, 4, 9)
        .build();
    let jpt_triangle =
        JointProbTable::from_max_rule(&[(EdgeId(0), 0.70), (EdgeId(1), 0.60), (EdgeId(2), 0.80)])
            .expect("valid JPT");
    let jpt_pendant =
        JointProbTable::from_max_rule(&[(EdgeId(3), 0.50), (EdgeId(4), 0.40)]).expect("valid JPT");
    let pg002 = ProbabilisticGraph::new(g002, vec![jpt_triangle, jpt_pendant], true)
        .expect("valid probabilistic graph");

    // ---------------------------------------------------------------- database
    let engine = QueryEngine::build(vec![pg001, pg002], EngineConfig::default());
    println!(
        "database: {} probabilistic graphs, PMI with {} features",
        engine.db().len(),
        engine.pmi().features().len()
    );

    // ---------------------------------------------------------------- query
    // The query q of Figure 1: a triangle with vertex labels a, b, c.
    let q = GraphBuilder::new()
        .name("q")
        .vertices(&[0, 1, 2])
        .edge(0, 1, 9)
        .edge(1, 2, 9)
        .edge(0, 2, 9)
        .build();

    for (epsilon, delta) in [(0.4, 1usize), (0.4, 2), (0.7, 2)] {
        let result = engine
            .query(
                &q,
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
            "T-PS(ε = {epsilon}, δ = {delta}): {} answer(s) {:?} \
             [structural candidates: {}, pruned: {}, accepted by bounds: {}, verified: {}]",
            result.answers.len(),
            names,
            result.stats.structural_candidates,
            result.stats.pruned_by_upper,
            result.stats.accepted_by_lower,
            result.stats.verified,
        );
    }

    // The exact SSP values, for reference (small graphs, exact computation).
    for pg in engine.db() {
        for delta in [1usize, 2] {
            let ssp = pgs::prob::exact::exact_ssp(pg, &q, delta, 22).expect("small graph");
            println!("exact Pr(q ⊆sim {}) at δ = {delta}: {ssp:.4}", pg.name());
        }
    }
}
