//! Integration tests of the index lifecycle: snapshot save/load round-trips
//! (the current format, and v1 back-compat), incremental database
//! mutation, posting-list/brute-force equivalence of the structural phase,
//! and the query-parameter validation that used to fail silently.
//!
//! The acceptance bars (ISSUEs 3 and 4): a loaded snapshot must answer
//! *byte-identically* to the engine that built the index, for every pruning
//! variant; a v1 (pre-S-Index) snapshot must still load, with the summaries
//! re-derived from the database skeletons; an insert/remove sequence through
//! `QueryEngine` must match a fresh rebuild on the same final database —
//! S-Index included; the S-Index candidate generator must return exactly the
//! brute-force scan's index set on randomized graphs/queries/δ; phase 2's
//! per-query feature relation must follow every insert, remove and re-mine;
//! and ε = NaN / ε ≤ 0 / ε > 1 must be a typed error instead of a silently
//! empty or full answer set.

mod common;

use common::{counters_only, fixture_config, fixture_graphs, fixture_query, ppi_dataset, PMI_V1};
use pgs::prelude::*;
use pgs::prob::montecarlo::MonteCarloConfig;
use pgs::query::prune::{bound_candidate, BoundInstance, FeatureRelation};
use pgs::query::structural::{structural_candidates, structural_candidates_tested};
use pgs::query::verify::VerifyOptions;
use pgs_datagen::scenarios::bulk_skeletons;
use pgs_graph::mcs::SimilarityTester;
use pgs_graph::model::EdgeId;
use pgs_graph::relax::relax_query_clamped;
use pgs_graph::summary::{StructuralSummary, SummaryView};
use pgs_index::feature::{select_features_summarized, FeatureSelectionParams};
use pgs_index::pmi::{Pmi, PmiBuildParams};
use pgs_index::sindex::StructuralIndex;
use pgs_index::sip_bounds::BoundsConfig;
use pgs_index::snapshot::SnapshotError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// Graph 001 of Figure 1 (triangle a-b-d).
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

/// Graph 002 of Figure 1 (the 5-edge graph with a correlated triangle).
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

/// The query `q` of Figure 1: the labelled triangle a-b-c.
fn query_q() -> Graph {
    GraphBuilder::new()
        .name("q")
        .vertices(&[0, 1, 2])
        .edge(0, 1, 9)
        .edge(1, 2, 9)
        .edge(0, 2, 9)
        .build()
}

fn figure_1_database() -> Vec<ProbabilisticGraph> {
    vec![graph_001(), graph_002()]
}

fn figure_1_config() -> EngineConfig {
    EngineConfig {
        pmi: PmiBuildParams {
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
        ..EngineConfig::default()
    }
}

fn all_variants() -> [PruningVariant; 3] {
    [
        PruningVariant::Structure,
        PruningVariant::SspBound,
        PruningVariant::OptSspBound,
    ]
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pgs-lifecycle-{tag}-{}.pmi", std::process::id()))
}

#[test]
fn snapshot_round_trip_answers_identically_on_the_figure_1_example() {
    let engine = QueryEngine::build(figure_1_database(), figure_1_config());
    let path = temp_path("fig1");
    engine.pmi().save(&path).unwrap();
    let loaded = QueryEngine::with_index(figure_1_database(), &path, figure_1_config()).unwrap();
    std::fs::remove_file(&path).ok();

    // Identical stats (build_seconds and the exact size both survive).
    assert_eq!(loaded.pmi().stats(), engine.pmi().stats());

    // Byte-identical answers for every pruning variant across a parameter grid.
    let q = query_q();
    for variant in all_variants() {
        for epsilon in [0.05, 0.3, 0.6, 0.95] {
            for delta in [0usize, 1, 2] {
                let params = QueryParams {
                    epsilon,
                    delta,
                    variant,
                };
                let a = engine.query(&q, &params).unwrap();
                let b = loaded.query(&q, &params).unwrap();
                assert_eq!(
                    a.answers, b.answers,
                    "{variant:?} ε={epsilon} δ={delta} diverged after load"
                );
                assert_eq!(a.stats.pruned_by_upper, b.stats.pruned_by_upper);
                assert_eq!(a.stats.accepted_by_lower, b.stats.accepted_by_lower);
                assert_eq!(a.stats.verified, b.stats.verified);
            }
        }
    }
}

#[test]
fn snapshot_round_trip_survives_the_sampled_verification_path() {
    // Force Monte-Carlo verification (exact_cutoff = 0): a loaded index must
    // reproduce even the *sampled* answers bit-for-bit, because the
    // per-candidate RNG seeds derive from content salts that the snapshot
    // preserves.
    let dataset = generate_ppi_dataset(&PpiDatasetConfig {
        graph_count: 24,
        vertices_per_graph: 10,
        edges_per_graph: 14,
        vertex_label_count: 6,
        organism_count: 3,
        perturbation: 0.3,
        seed: 4242,
        ..PpiDatasetConfig::default()
    });
    let config = EngineConfig {
        pmi: PmiBuildParams {
            features: FeatureSelectionParams {
                alpha: 0.0,
                beta: 0.2,
                gamma: 0.0,
                max_l: 3,
                max_features: 24,
                max_embeddings: 12,
            },
            bounds: BoundsConfig::default(),
            threads: 2,
            seed: 11,
        },
        verify: VerifyOptions {
            exact_cutoff: 0,
            mc: MonteCarloConfig {
                tau: 0.1,
                xi: 0.05,
                max_samples: 800,
            },
            ..VerifyOptions::default()
        },
        ..EngineConfig::default()
    };
    let engine = QueryEngine::build(dataset.graphs.clone(), config);
    let path = temp_path("sampled");
    engine.pmi().save(&path).unwrap();
    let loaded = QueryEngine::with_index(dataset.graphs.clone(), &path, config).unwrap();
    std::fs::remove_file(&path).ok();

    let queries = pgs::datagen::queries::generate_query_workload(
        &dataset,
        &pgs::datagen::queries::QueryWorkloadConfig {
            query_size: 4,
            count: 4,
            seed: 99,
        },
    );
    for wq in &queries {
        for variant in all_variants() {
            let params = QueryParams {
                epsilon: 0.2,
                delta: 1,
                variant,
            };
            let a = engine.query(&wq.graph, &params).unwrap();
            let b = loaded.query(&wq.graph, &params).unwrap();
            assert_eq!(a.answers, b.answers, "{variant:?} sampled answers drifted");
        }
    }
}

/// Length of the fixed snapshot header that `PmiStats::size_bytes` leaves
/// out: 143 bytes in format v3 and in the legacy v1/v2 layout alike.
const SNAPSHOT_HEADER_BYTES: usize = 143;

#[test]
fn reported_size_bytes_matches_the_file_on_disk() {
    // The snapshot is exactly the fixed header plus the payload
    // (= size_bytes).  The old dense accounting was off by the Option
    // discriminants, Vec overhead and every empty cell; this pins the number
    // to the artifact on disk.
    let engine = QueryEngine::build(figure_1_database(), figure_1_config());
    let stats = engine.pmi().stats();
    let path = temp_path("size");
    engine.pmi().save(&path).unwrap();
    let file_len = std::fs::metadata(&path).unwrap().len() as usize;
    std::fs::remove_file(&path).ok();
    assert_eq!(file_len, SNAPSHOT_HEADER_BYTES + stats.size_bytes);
    assert_eq!(engine.pmi().to_bytes().len(), file_len);
    // An unpaired v1 decode re-saves as v1; its size is exact too.
    let v1 = Pmi::from_bytes(PMI_V1).unwrap();
    assert_eq!(
        v1.to_bytes().len(),
        SNAPSHOT_HEADER_BYTES + v1.stats().size_bytes
    );
}

/// Engine configuration with fully exact verification, so answer sets carry
/// no sampling noise and incremental-vs-rebuild equality is exact.
fn exact_verify_config() -> EngineConfig {
    EngineConfig {
        pmi: PmiBuildParams {
            features: FeatureSelectionParams {
                alpha: 0.0,
                beta: 0.2,
                gamma: 0.0,
                max_l: 3,
                max_features: 24,
                max_embeddings: 12,
            },
            bounds: BoundsConfig::default(),
            threads: 2,
            seed: 3,
        },
        verify: VerifyOptions {
            exact_cutoff: 18,
            ..VerifyOptions::default()
        },
        ..EngineConfig::default()
    }
}

#[test]
fn insert_remove_sequence_matches_a_fresh_rebuild() {
    let config = exact_verify_config();
    let dataset = generate_ppi_dataset(&PpiDatasetConfig {
        graph_count: 16,
        vertices_per_graph: 10,
        edges_per_graph: 14,
        vertex_label_count: 6,
        organism_count: 2,
        seed: 77,
        ..PpiDatasetConfig::default()
    });
    let graphs = dataset.graphs.clone();

    // Start from the first 10 graphs, then: insert the remaining 6, remove
    // two from the middle, the first and the last, and re-insert one of them
    // at the end.
    let mut engine = QueryEngine::build(graphs[..10].to_vec(), config);
    let mut expected: Vec<ProbabilisticGraph> = graphs[..10].to_vec();
    for pg in &graphs[10..] {
        engine.insert_graph(pg.clone());
        expected.push(pg.clone());
    }
    // 0 and 12 are the first and the last position at their turn.
    for idx in [3usize, 7, 0, 12] {
        let removed = engine.remove_graph(idx).unwrap();
        let mirrored = expected.remove(idx);
        assert_eq!(removed.name(), mirrored.name());
    }
    let back = graphs[3].clone();
    engine.insert_graph(back.clone());
    expected.push(back);

    // The dynamic database's contents mirror the expected final state.
    assert_eq!(engine.db().len(), expected.len());
    for (a, b) in engine.db().iter().zip(&expected) {
        assert_eq!(a.name(), b.name());
    }
    // 6 inserts + 4 removes + 1 insert = 11 mutations over 13 graphs.
    assert!(engine.pmi().staleness() > 0.5);
    assert!(engine.should_remine());

    // A fresh rebuild over the same final database must answer identically:
    // the mined feature sets differ (and candidate counts may differ), but
    // pruning is sound and verification is exact, so the *answers* agree.
    let fresh = QueryEngine::build(expected, config);
    // The S-Index, unlike the mined features, is a pure function of the
    // database contents: the incrementally maintained one must equal the
    // fresh build's exactly.
    assert_eq!(
        engine.pmi().sindex(),
        fresh.pmi().sindex(),
        "incremental S-Index diverged from a fresh rebuild"
    );
    let queries = pgs::datagen::queries::generate_query_workload(
        &dataset,
        &pgs::datagen::queries::QueryWorkloadConfig {
            query_size: 4,
            count: 4,
            seed: 5,
        },
    );
    for wq in &queries {
        for variant in all_variants() {
            for epsilon in [0.2, 0.5] {
                let params = QueryParams {
                    epsilon,
                    delta: 1,
                    variant,
                };
                let incremental = engine.query(&wq.graph, &params).unwrap();
                let rebuilt = fresh.query(&wq.graph, &params).unwrap();
                assert_eq!(
                    incremental.answers, rebuilt.answers,
                    "{variant:?} ε={epsilon}: incremental index diverged from rebuild"
                );
            }
        }
    }

    // After re-mining, the staleness is gone and answers still agree.
    engine.remine();
    assert_eq!(engine.pmi().staleness(), 0.0);
    for wq in &queries {
        let params = QueryParams {
            epsilon: 0.5,
            delta: 1,
            variant: PruningVariant::OptSspBound,
        };
        assert_eq!(
            engine.query(&wq.graph, &params).unwrap().answers,
            fresh.query(&wq.graph, &params).unwrap().answers
        );
    }
}

/// Threshold answers, top-k lists, counters and every graph's phase-2
/// bound pair must agree between two engines over the same graphs and the
/// same index, and `got`'s rule-1 prunes must match a recount from its
/// current feature set.  Returns how many threshold answers and rule-1
/// prunes the comparison covered.
fn assert_same_phase2(
    got: &QueryEngine,
    want: &QueryEngine,
    queries: &[Graph],
    state: &str,
) -> (usize, usize) {
    assert_eq!(got.db().len(), want.db().len());
    let (mut answers, mut pruned) = (0, 0);
    for (qi, q) in queries.iter().enumerate() {
        for variant in [PruningVariant::SspBound, PruningVariant::OptSspBound] {
            for delta in 0..=2usize {
                let at = format!("{state}: query {qi} {variant:?} δ={delta}");
                let params = QueryParams {
                    epsilon: 0.3,
                    delta,
                    variant,
                };
                let (a, b) = (
                    got.query(q, &params).unwrap(),
                    want.query(q, &params).unwrap(),
                );
                assert_eq!(a.answers, b.answers, "{at}: threshold answers");
                assert_eq!(counters_only(a.stats), counters_only(b.stats), "{at}");
                answers += a.answers.len();
                pruned += a.stats.pruned_by_upper;

                // Rule 1 under OPT-SSPBound draws no randomness, so its prunes
                // can be recounted outside the query path, from a relation
                // built over the engine's current features.
                let relaxed = relax_query_clamped(q, delta);
                let relations = (
                    FeatureRelation::new(got.pmi(), &relaxed),
                    FeatureRelation::new(want.pmi(), &relaxed),
                );
                let optimal = variant == PruningVariant::OptSspBound;
                if optimal {
                    let sindex = got.pmi().sindex().unwrap();
                    let tester = SimilarityTester::new(q, delta);
                    let (structural, _) =
                        structural_candidates_tested(sindex, got.db(), &tester, 1);
                    let recount = structural
                        .iter()
                        .filter(|&&gi| {
                            let instance =
                                BoundInstance::from_relation(got.pmi(), gi, &relations.0);
                            instance.usim_optimal() < params.epsilon
                        })
                        .count();
                    assert_eq!(a.stats.pruned_by_upper, recount, "{at}: rule-1 prunes");
                }

                let params = TopkParams {
                    k: 3,
                    delta,
                    variant,
                };
                let (a, b) = (
                    got.query_topk(q, &params).unwrap(),
                    want.query_topk(q, &params).unwrap(),
                );
                let ranked = |r: &TopkResult| -> Vec<(usize, u64)> {
                    r.ranked
                        .iter()
                        .map(|x| (x.graph, x.ssp.to_bits()))
                        .collect()
                };
                assert_eq!(ranked(&a), ranked(&b), "{at}: top-k list");
                assert_eq!(counters_only(a.stats), counters_only(b.stats), "{at}");

                let bounds = |engine: &QueryEngine, relation: &FeatureRelation, gi: usize| {
                    let mut rng = StdRng::seed_from_u64(gi as u64);
                    let (usim, lsim) = bound_candidate(
                        engine.pmi(),
                        gi,
                        relation,
                        optimal,
                        engine.config().cross_term,
                        &mut rng,
                    );
                    (usim.to_bits(), lsim.to_bits())
                };
                for gi in 0..got.db().len() {
                    assert_eq!(
                        bounds(got, &relations.0, gi),
                        bounds(want, &relations.1, gi),
                        "{at}: g{gi} bounds"
                    );
                }
            }
        }
    }
    (answers, pruned)
}

/// The phase-2 feature relation is rebuilt per query from the engine's
/// current feature set, never cached on the engine: after inserts, removes
/// and a re-mine, a database that has already answered the same queries
/// answers and bounds them exactly like an engine freshly built over its
/// graphs.  Its rule-1 prunes are also recounted outside the query path, so
/// a relation cached anywhere in the process (and so shared with the fresh
/// engine) would fail too: the re-mine changes the feature set.
#[test]
fn mutated_and_remined_database_matches_a_fresh_engine_in_phase_2() {
    let config = exact_verify_config();
    let dataset = generate_ppi_dataset(&PpiDatasetConfig {
        graph_count: 12,
        vertices_per_graph: 9,
        edges_per_graph: 12,
        vertex_label_count: 5,
        organism_count: 2,
        seed: 41,
        ..PpiDatasetConfig::default()
    });
    let graphs = dataset.graphs.clone();
    let queries: Vec<Graph> = pgs::datagen::queries::generate_query_workload(
        &dataset,
        &pgs::datagen::queries::QueryWorkloadConfig {
            query_size: 4,
            count: 3,
            seed: 9,
        },
    )
    .into_iter()
    .map(|wq| wq.graph)
    .collect();

    let mut engine = QueryEngine::build(graphs[..8].to_vec(), config);
    // Answer every query first, so anything kept across queries would be
    // stale after the mutations below.
    let initial = QueryEngine::build(graphs[..8].to_vec(), config);
    assert_same_phase2(&engine, &initial, &queries, "before mutation");

    for pg in &graphs[8..] {
        engine.insert_graph(pg.clone());
    }
    engine.remove_graph(5).unwrap();
    engine.remove_graph(0).unwrap();
    let same_index =
        QueryEngine::from_parts(engine.db().to_vec(), engine.pmi().clone(), config).unwrap();
    assert_same_phase2(&engine, &same_index, &queries, "after insert/remove");

    engine.remine();
    let fresh = QueryEngine::build(engine.db().to_vec(), config);
    assert_eq!(engine.pmi().features().len(), fresh.pmi().features().len());
    let (answers, decided) = assert_same_phase2(&engine, &fresh, &queries, "after remine");
    assert!(
        answers > 0 && decided > 0,
        "{answers} answers, {decided} decided"
    );
}

#[test]
fn incremental_snapshot_still_round_trips() {
    // Mutate, save, reload: the loaded index must carry the churn counter and
    // answer like the mutated engine.
    let config = exact_verify_config();
    let dataset = generate_ppi_dataset(&PpiDatasetConfig {
        graph_count: 12,
        vertices_per_graph: 8,
        edges_per_graph: 11,
        vertex_label_count: 5,
        organism_count: 2,
        seed: 31,
        ..PpiDatasetConfig::default()
    });
    let mut engine = QueryEngine::build(dataset.graphs[..10].to_vec(), config);
    engine.insert_graph(dataset.graphs[10].clone());
    engine.insert_graph(dataset.graphs[11].clone());
    engine.remove_graph(0).unwrap();
    let staleness = engine.pmi().staleness();
    assert!(staleness > 0.0);

    let path = temp_path("incremental");
    engine.pmi().save(&path).unwrap();
    let reopened = QueryEngine::with_index(engine.db().to_vec(), &path, config).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(reopened.pmi().churn(), engine.pmi().churn());
    assert_eq!(reopened.pmi().staleness(), staleness);

    let queries = pgs::datagen::queries::generate_query_workload(
        &dataset,
        &pgs::datagen::queries::QueryWorkloadConfig {
            query_size: 4,
            count: 3,
            seed: 8,
        },
    );
    for wq in &queries {
        let params = QueryParams {
            epsilon: 0.3,
            delta: 1,
            variant: PruningVariant::OptSspBound,
        };
        assert_eq!(
            reopened.query(&wq.graph, &params).unwrap().answers,
            engine.query(&wq.graph, &params).unwrap().answers
        );
    }
}

#[test]
fn v1_snapshot_still_loads_and_answers_identically() {
    // An index serialized in the pre-S-Index format (v1, the golden fixture)
    // must keep working: decoding yields no summaries, and
    // `QueryEngine::from_parts` re-derives them from the (salt-verified)
    // database skeletons, so every answer — and every per-phase counter —
    // matches a freshly built engine exactly.
    let engine = QueryEngine::build(fixture_graphs(), fixture_config());
    let old = Pmi::from_bytes(PMI_V1).unwrap();
    assert!(old.sindex().is_none(), "v1 carries no S-Index");
    let migrated = QueryEngine::from_parts(fixture_graphs(), old, fixture_config()).unwrap();
    // The re-derived S-Index is the whole-database one: compare it against
    // an S-Index built directly from the skeletons (a pure content function).
    let skeletons: Vec<Graph> = fixture_graphs()
        .iter()
        .map(|g| g.skeleton().clone())
        .collect();
    assert_eq!(
        migrated
            .pmi()
            .sindex()
            .expect("v1 migration re-derives the S-Index"),
        &StructuralIndex::build(&skeletons),
        "the re-derived S-Index equals one built from the skeletons"
    );
    let q = fixture_query();
    for variant in all_variants() {
        for epsilon in [0.05, 0.2, 0.5, 0.9] {
            for delta in [0usize, 1, 2] {
                let params = QueryParams {
                    epsilon,
                    delta,
                    variant,
                };
                let a = engine.query(&q, &params).unwrap();
                let b = migrated.query(&q, &params).unwrap();
                let at = format!("{variant:?} ε={epsilon} δ={delta}");
                assert_eq!(a.answers, b.answers, "{at}");
                assert_eq!(counters_only(a.stats), counters_only(b.stats), "{at}");
            }
        }
    }
    // Once migrated, the index persists in the current format again, with
    // the S-Index section.
    let resaved = migrated.pmi().to_bytes();
    assert_eq!(
        resaved[8..12],
        pgs_index::snapshot::FORMAT_VERSION.to_le_bytes(),
        "a migrated index re-saves in the current format"
    );
    assert_eq!(
        Pmi::from_bytes(&resaved).unwrap().sindex(),
        migrated.pmi().sindex(),
        "the re-derived S-Index is persisted"
    );
}

/// `Pmi::build` hands the S-Index and feature selection the database's own
/// skeletons by reference.  Both must read exactly what they read from
/// cloned skeletons: the same index, and the same features, supports,
/// frequencies and discriminativities, bit for bit.
#[test]
fn borrowed_and_cloned_skeletons_build_the_same_index() {
    // The bulk graphs share few 2-edge patterns, so a lower β lets
    // features grow there too.
    let bulk_params = FeatureSelectionParams {
        beta: 0.03,
        ..FeatureSelectionParams::default()
    };
    for (name, db, params) in [
        (
            "golden PPI",
            ppi_dataset().graphs,
            FeatureSelectionParams::default(),
        ),
        ("bulk", bulk_skeletons(200, 1), bulk_params),
    ] {
        let borrowed: Vec<&Graph> = db.iter().map(ProbabilisticGraph::skeleton).collect();
        let cloned: Vec<Graph> = db.iter().map(|g| g.skeleton().clone()).collect();
        let borrowed_index = StructuralIndex::build(&borrowed);
        let cloned_index = StructuralIndex::build(&cloned);
        assert_eq!(borrowed_index, cloned_index, "{name}");
        let borrowed_views: Vec<SummaryView<'_>> = borrowed_index.summary_views().collect();
        let cloned_views: Vec<SummaryView<'_>> = cloned_index.summary_views().collect();
        let got = select_features_summarized(&borrowed, &borrowed_views, &params);
        let want = select_features_summarized(&cloned, &cloned_views, &params);
        assert!(
            got.iter().any(|f| f.edge_count() > 1),
            "{name}: no grown feature"
        );
        assert!(
            got.iter().any(|f| f.discriminativity < 1.0),
            "{name}: no feature with an indexed sub-feature"
        );
        assert_eq!(got.len(), want.len(), "{name}");
        for (g, w) in got.iter().zip(&want) {
            let at = format!("{name}, feature {}", w.id);
            assert_eq!(
                (g.id, &g.graph, &g.support),
                (w.id, &w.graph, &w.support),
                "{at}"
            );
            assert_eq!(g.frequency.to_bits(), w.frequency.to_bits(), "{at}");
            assert_eq!(
                g.discriminativity.to_bits(),
                w.discriminativity.to_bits(),
                "{at}"
            );
        }
    }
}

#[test]
fn sindex_matches_bruteforce_on_a_generated_workload() {
    // Phase-1 candidate sets must be byte-identical between the S-Index path
    // and the brute-force scan on a realistic workload (the acceptance
    // criterion of ISSUE 4), across δ and thread counts.
    let dataset = generate_ppi_dataset(&PpiDatasetConfig {
        graph_count: 32,
        vertices_per_graph: 10,
        edges_per_graph: 14,
        vertex_label_count: 6,
        organism_count: 3,
        perturbation: 0.4,
        seed: 0x51DE,
        ..PpiDatasetConfig::default()
    });
    let skeletons: Vec<Graph> = dataset
        .graphs
        .iter()
        .map(|g| g.skeleton().clone())
        .collect();
    let index = StructuralIndex::build(&skeletons);
    let queries = pgs::datagen::queries::generate_query_workload(
        &dataset,
        &pgs::datagen::queries::QueryWorkloadConfig {
            query_size: 5,
            count: 6,
            seed: 0xA11,
        },
    );
    for wq in &queries {
        for delta in 0..=3 {
            let brute = structural_candidates(&skeletons, &wq.graph, delta);
            let tester = SimilarityTester::new(&wq.graph, delta);
            for threads in [1usize, 0] {
                let (indexed, stats) =
                    structural_candidates_tested(&index, &dataset.graphs, &tester, threads);
                assert_eq!(
                    indexed,
                    brute,
                    "query {} δ={delta} threads={threads}",
                    wq.graph.name()
                );
                assert!(stats.filter_survivors >= indexed.len());
            }
        }
    }
}

/// Strategy: a small random connected labelled graph (same shape as the one
/// in `tests/property.rs`, scaled down for the equivalence sweep).
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

/// Checks the S-Index filter on its own, without the exact check: its
/// candidates are exactly the graphs of `live` whose signature deficit
/// against `q` is at most δ, ascending, and it reports the summed lengths of
/// the query's posting rows (none are read when `|E(q)| ≤ δ`).
fn assert_filter_matches_deficits(
    index: &StructuralIndex,
    live: &[Graph],
    q: &Graph,
    delta: usize,
) {
    let qs = StructuralSummary::of(q);
    let summaries: Vec<StructuralSummary> = live.iter().map(StructuralSummary::of).collect();
    let outcome = index.filter_candidates(qs.view(), delta);
    let deficit_passes: Vec<usize> = summaries
        .iter()
        .enumerate()
        .filter(|(_, gs)| qs.view().signature_deficit(gs.view(), delta) <= delta)
        .map(|(g, _)| g)
        .collect();
    assert_eq!(outcome.candidates, deficit_passes);
    let row_lengths: usize = if q.edge_count() <= delta {
        0
    } else {
        qs.view()
            .edge_signatures()
            .iter()
            .map(|&(sig, _)| {
                summaries
                    .iter()
                    .filter(|gs| gs.view().signature_count(sig) > 0)
                    .count()
            })
            .sum()
    };
    assert_eq!(outcome.posting_entries_scanned, row_lengths);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    /// Posting-list candidate generation returns exactly the same index set
    /// as the brute-force `structural_candidates` on randomized
    /// graphs/queries/δ, and keeps doing so through a random sequence of
    /// writes (`(remove?, position, graph)`: a remove at `position` modulo
    /// the live count, else an append of `graph`), after each of which the
    /// edited index equals a fresh build over the surviving summaries.  The
    /// filter alone is checked against the per-graph signature deficit too,
    /// since `structural_candidates` shares the exact check with the indexed
    /// path.
    #[test]
    fn posting_list_candidates_equal_bruteforce(
        db in proptest::collection::vec(arb_graph(8, 4), 1..10),
        q in arb_graph(6, 4),
        delta in 0usize..4,
        writes in proptest::collection::vec((0u8..2, 0usize..16, arb_graph(8, 4)), 0..12),
    ) {
        let probabilistic = |db: &[Graph]| -> Vec<ProbabilisticGraph> {
            db.iter()
                .map(|g| {
                    ProbabilisticGraph::independent(g.clone(), &vec![0.5; g.edge_count()]).unwrap()
                })
                .collect()
        };
        let index = StructuralIndex::build(&db);
        let pdb = probabilistic(&db);
        let brute = structural_candidates(&db, &q, delta);
        let tester = SimilarityTester::new(&q, delta);
        let (indexed, stats) = structural_candidates_tested(&index, &pdb, &tester, 1);
        prop_assert_eq!(&indexed, &brute);
        prop_assert!(stats.filter_survivors >= indexed.len());
        assert_filter_matches_deficits(&index, &db, &q, delta);
        // Incremental construction yields the same index, hence the same set.
        let mut grown = StructuralIndex::default();
        for g in &db {
            grown.append_summary(StructuralSummary::of(g));
        }
        prop_assert_eq!(&grown, &index);

        let mut live = db.clone();
        let mut edited = index;
        for (remove, position, g) in writes {
            if remove == 1 && !live.is_empty() {
                let at = position % live.len();
                live.remove(at);
                edited.remove(at);
            } else {
                edited.append_summary(StructuralSummary::of(&g));
                live.push(g);
            }
            let fresh =
                StructuralIndex::from_summaries(live.iter().map(StructuralSummary::of).collect());
            prop_assert_eq!(&edited, &fresh);
            assert_filter_matches_deficits(&edited, &live, &q, delta);
            let (got, _) = structural_candidates_tested(&edited, &probabilistic(&live), &tester, 1);
            prop_assert_eq!(got, structural_candidates(&live, &q, delta));
        }
    }
}

#[test]
fn invalid_epsilon_is_a_typed_error_not_a_silent_answer_set() {
    let engine = QueryEngine::build(figure_1_database(), figure_1_config());
    let q = query_q();
    for epsilon in [f64::NAN, 0.0, -1.0, 1.0 + 1e-9, f64::INFINITY] {
        let params = QueryParams {
            epsilon,
            delta: 1,
            variant: PruningVariant::OptSspBound,
        };
        assert!(
            matches!(
                engine.query(&q, &params),
                Err(QueryError::InvalidEpsilon { .. })
            ),
            "ε = {epsilon} must be rejected by query()"
        );
        assert!(matches!(
            engine.exact_scan(&q, &params),
            Err(QueryError::InvalidEpsilon { .. })
        ));
        assert!(matches!(
            engine.query_batch(std::slice::from_ref(&q), &params),
            Err(QueryError::InvalidEpsilon { .. })
        ));
    }
    // ε = 1.0 exactly is legal (the closed upper end of (0, 1]).
    let params = QueryParams {
        epsilon: 1.0,
        delta: 1,
        variant: PruningVariant::OptSspBound,
    };
    assert!(engine.query(&q, &params).is_ok());
}

#[test]
fn corrupt_snapshots_fail_with_typed_errors() {
    let engine = QueryEngine::build(figure_1_database(), figure_1_config());
    let bytes = engine.pmi().to_bytes();

    // Garbage file → BadMagic.
    assert!(matches!(
        Pmi::from_bytes(b"definitely not a PMI snapshot"),
        Err(SnapshotError::BadMagic)
    ));

    // Future format version → UnsupportedVersion.
    let mut future = bytes.clone();
    future[8] = 0x7F;
    assert!(matches!(
        Pmi::from_bytes(&future),
        Err(SnapshotError::UnsupportedVersion(_))
    ));

    // Truncation anywhere → a typed error, never a panic or a bogus index.
    for cut in [bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            Pmi::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} must fail"
        );
    }

    // A tampered parameter block → fingerprint mismatch.
    let mut tampered = bytes;
    tampered[8 + 4 + 8 + 1] ^= 0x40;
    assert!(matches!(
        Pmi::from_bytes(&tampered),
        Err(SnapshotError::Corrupt(_))
    ));
}
