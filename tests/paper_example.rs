//! Integration test: the paper's running example (Figure 1 / Example 1)
//! exercised end-to-end across all crates.

use pgs::prelude::*;
use pgs::prob::exact::{exact_ssp, exact_ssp_bruteforce};
use pgs_graph::model::EdgeId;
use pgs_graph::relax::relax_query;
use pgs_index::feature::FeatureSelectionParams;
use pgs_index::pmi::{Pmi, PmiBuildParams};
use pgs_index::sip_bounds::BoundsConfig;
use pgs_query::prune::{BoundInstance, CrossTermRule};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Graph 002 of Figure 1 with max-rule correlation tables (the paper's exact
/// JPT values rely on overlapping groups; see DESIGN.md §3 for the partition
/// substitution).
fn graph_002() -> ProbabilisticGraph {
    let skeleton = GraphBuilder::new()
        .name("002")
        .vertices(&[0, 0, 1, 1, 2])
        .edge(0, 1, 9)
        .edge(0, 2, 9)
        .edge(1, 2, 9)
        .edge(2, 3, 9)
        .edge(2, 4, 9)
        .build();
    let triangle =
        JointProbTable::from_max_rule(&[(EdgeId(0), 0.7), (EdgeId(1), 0.6), (EdgeId(2), 0.8)])
            .unwrap();
    let pendant = JointProbTable::from_max_rule(&[(EdgeId(3), 0.5), (EdgeId(4), 0.4)]).unwrap();
    ProbabilisticGraph::new(skeleton, vec![triangle, pendant], true).unwrap()
}

fn graph_001() -> ProbabilisticGraph {
    let skeleton = GraphBuilder::new()
        .name("001")
        .vertices(&[0, 1, 3])
        .edge(0, 1, 9)
        .edge(1, 2, 9)
        .edge(0, 2, 9)
        .build();
    let jpt =
        JointProbTable::from_max_rule(&[(EdgeId(0), 0.65), (EdgeId(1), 0.55), (EdgeId(2), 0.7)])
            .unwrap();
    ProbabilisticGraph::new(skeleton, vec![jpt], true).unwrap()
}

fn query_q() -> Graph {
    GraphBuilder::new()
        .name("q")
        .vertices(&[0, 1, 2])
        .edge(0, 1, 9)
        .edge(1, 2, 9)
        .edge(0, 2, 9)
        .build()
}

#[test]
fn lemma_1_holds_on_the_running_example() {
    // Definition 9 computed by brute-force world enumeration must equal the
    // Lemma 1 / relaxed-query formulation for every distance threshold.
    for pg in [graph_001(), graph_002()] {
        for delta in 0..=3 {
            let brute = exact_ssp_bruteforce(&pg, &query_q(), delta, 22).unwrap();
            let lemma = exact_ssp(&pg, &query_q(), delta, 22).unwrap();
            assert!(
                (brute - lemma).abs() < 1e-9,
                "{}: delta {delta}: {brute} vs {lemma}",
                pg.name()
            );
        }
    }
}

#[test]
fn figure_5_relaxed_query_set() {
    let u = relax_query(&query_q(), 1);
    assert_eq!(
        u.len(),
        3,
        "relaxing the labelled triangle by 1 edge gives rq1, rq2, rq3"
    );
    for rq in &u {
        assert_eq!(rq.edge_count(), 2);
    }
}

#[test]
fn pmi_bounds_bracket_exact_ssp_on_the_example_database() {
    let db = vec![graph_001(), graph_002()];
    let pmi = Pmi::build(
        &db,
        &PmiBuildParams {
            features: FeatureSelectionParams {
                alpha: 0.0,
                beta: 0.4,
                gamma: 0.0,
                max_l: 3,
                max_features: 24,
                max_embeddings: 16,
            },
            bounds: BoundsConfig::default(),
            threads: 1,
            seed: 1,
        },
    );
    let q = query_q();
    let delta = 1;
    let relaxed = relax_query(&q, delta);
    let mut rng = StdRng::seed_from_u64(9);
    for (gi, pg) in db.iter().enumerate() {
        let instance = BoundInstance::build(&pmi, gi, &relaxed);
        let usim = instance.usim_optimal();
        let lsim = instance.lsim_optimal(CrossTermRule::SafeMin, &mut rng);
        let exact = exact_ssp(pg, &q, delta, 22).unwrap();
        assert!(
            lsim <= exact + 1e-9,
            "graph {gi}: Lsim {lsim} > exact {exact}"
        );
        assert!(
            usim + 1e-9 >= exact,
            "graph {gi}: Usim {usim} < exact {exact}"
        );
    }
}

#[test]
fn example_1_query_semantics_through_the_engine() {
    let engine = QueryEngine::build(vec![graph_001(), graph_002()], EngineConfig::default());
    let q = query_q();
    let answers = |epsilon: f64| -> Vec<usize> {
        let params = QueryParams {
            epsilon,
            delta: 1,
            variant: PruningVariant::OptSspBound,
        };
        engine.query(&q, &params).unwrap().answers
    };

    // Exact SSP values drive the expected answers.
    let ssp_001 = exact_ssp(&engine.db()[0], &q, 1, 22).unwrap();
    let ssp_002 = exact_ssp(&engine.db()[1], &q, 1, 22).unwrap();

    let threshold = (ssp_001 + ssp_002) / 2.0; // separates the two graphs
    let (lo, hi) = if ssp_001 < ssp_002 { (0, 1) } else { (1, 0) };
    let indices = answers(threshold);
    assert!(indices.contains(&hi));
    assert!(!indices.contains(&lo));

    // Thresholds derived from the exact SSPs give exactly the predicted answer
    // counts (graph 001 has SSP 0 at δ = 1: every 1-edge relaxation still needs
    // the missing c-labelled vertex).
    let low_threshold = 1e-3;
    let expected_low = [ssp_001, ssp_002]
        .iter()
        .filter(|&&p| p >= low_threshold)
        .count();
    let all = answers(low_threshold);
    assert_eq!(all.len(), expected_low);
    let none = answers((ssp_001.max(ssp_002) * 1.2).min(1.0));
    assert!(none.len() <= 1); // at most the higher graph if its SSP ≥ capped threshold
}

#[test]
fn theorem_1_structural_pruning_is_sound() {
    // If the query is not subgraph-similar to the skeleton, the SSP is zero and
    // the structural phase must discard the graph.
    let skeletons: Vec<Graph> = vec![
        graph_001().skeleton().clone(),
        graph_002().skeleton().clone(),
    ];
    let foreign = GraphBuilder::new()
        .vertices(&[7, 7, 7])
        .edge(0, 1, 1)
        .edge(1, 2, 1)
        .build();
    let candidates = pgs_query::structural::structural_candidates(&skeletons, &foreign, 0);
    assert!(candidates.is_empty());
    for pg in [graph_001(), graph_002()] {
        assert_eq!(exact_ssp(&pg, &foreign, 0, 22).unwrap(), 0.0);
    }
}
