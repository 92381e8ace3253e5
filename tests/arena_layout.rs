//! Byte-identity of the arena-packed layouts (PR 8) against the pre-refactor
//! engine.
//!
//! The arena refactor moved every hot structure onto flat offsets+values
//! layouts (`pgs_graph::arena::FlatVecVec`): CSR graph adjacency, columnar
//! S-Index summaries and flat posting lists, flat PMI supports (since
//! un-flattened: one `Vec` per feature, appended to as each column is
//! pushed), and the UnionSampler's contiguous conditional-table arena.  None of that may
//! change a single observable bit: answers and every deterministic
//! `PhaseStats` counter must be exactly what the pre-refactor engine
//! produced.
//!
//! Two golden fixtures pin this against the *actual* pre-refactor build:
//!
//! * `tests/fixtures/arena_expected.txt` — answers + counters for a 32-graph
//!   deterministic workload across threads {1, auto}, under both the default
//!   config and a forced-sampling config (`exact_cutoff = 0` sends every
//!   verified candidate through the UnionSampler).
//! * `tests/fixtures/pmi_v3_prearena.bin` — a v3 snapshot with three
//!   segments, written by the pre-refactor encoder from an index partitioned
//!   into three shards.  Nothing writes that layout any more, so the file is
//!   frozen.  It must keep decoding into the one-segment layout, match a
//!   fresh build cell for cell, and answer exactly like it.
//!
//! A proptest suite additionally checks thread invariance on random
//! databases, so the flat fan-out scratch cannot introduce order dependence
//! anywhere the fixed workload misses.

use pgs::prelude::*;
use pgs_index::pmi::{Pmi, PmiBuildParams};
use pgs_prob::neighbor::partition_with_triangles;
use pgs_query::pipeline::{PhaseStats, QueryEngine, QueryError};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The frozen workload configuration.  Everything is pinned explicitly so
/// drifting library defaults cannot silently change what the golden file
/// means.
fn base_config() -> EngineConfig {
    EngineConfig {
        pmi: PmiBuildParams {
            features: pgs_index::feature::FeatureSelectionParams {
                max_l: 3,
                alpha: 0.15,
                beta: 0.15,
                gamma: 0.15,
                max_features: 16,
                max_embeddings: 8,
            },
            threads: 1,
            seed: 0xA12E_4A01,
            ..PmiBuildParams::default()
        },
        // The golden file predates the adaptive stopping rule; pin it off so
        // the fixed-budget sample counters stay what the fixture recorded.
        verify: pgs_query::verify::VerifyOptions {
            adaptive: false,
            ..Default::default()
        },
        seed: 0xA12E_4A01,
        threads: 1,
        ..EngineConfig::default()
    }
}

/// `(name, config)` variants the golden file covers: the default mostly-exact
/// verification path, and a forced-sampling path that pushes every verified
/// candidate through the UnionSampler's conditional-table arena.
fn config_variants() -> Vec<(&'static str, EngineConfig)> {
    let exact = base_config();
    let mut sampled = base_config();
    sampled.verify.exact_cutoff = 0;
    vec![("exact", exact), ("sampled", sampled)]
}

/// The frozen fixture database: 32 small deterministic graphs with
/// overlapping label alphabets, mixed independent/correlated distributions.
fn fixture_graphs() -> Vec<ProbabilisticGraph> {
    (0..32u32)
        .map(|i| {
            let n = 4 + (i % 4) as usize;
            let mut b = GraphBuilder::new().name(format!("arena-{i}"));
            let labels: Vec<u32> = (0..n as u32).map(|v| (i + v) % 4).collect();
            b = b.vertices(&labels);
            for v in 1..n as u32 {
                b = b.edge(v - 1, v, (i + v) % 2);
            }
            if i % 2 == 0 {
                b = b.edge(0, 2, 0);
            }
            if i % 3 == 0 && n > 3 {
                b = b.edge(1, 3, 1);
            }
            if i % 5 == 0 {
                b = b.edge(0, n as u32 - 1, 0);
            }
            let skeleton = b.build();
            if i % 4 == 3 {
                let groups = partition_with_triangles(&skeleton, 3);
                let tables: Vec<JointProbTable> = groups
                    .iter()
                    .map(|grp| {
                        let ep: Vec<(EdgeId, f64)> = grp
                            .iter()
                            .map(|&e| (e, 0.3 + 0.07 * ((i as usize + e.index()) % 8) as f64))
                            .collect();
                        JointProbTable::from_max_rule(&ep).unwrap()
                    })
                    .collect();
                ProbabilisticGraph::new(skeleton, tables, true).unwrap()
            } else {
                let probs: Vec<f64> = (0..skeleton.edge_count())
                    .map(|e| 0.25 + 0.08 * ((i as usize + e) % 9) as f64)
                    .collect();
                ProbabilisticGraph::independent(skeleton, &probs).unwrap()
            }
        })
        .collect()
}

fn fixture_queries() -> Vec<Graph> {
    vec![
        // Path of two 0-labelled edges.
        GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .build(),
        // Triangle over labels {0, 1, 2}.
        GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 0)
            .edge(1, 2, 1)
            .edge(0, 2, 0)
            .build(),
        // 3-edge path with alternating edge labels.
        GraphBuilder::new()
            .vertices(&[1, 2, 3, 0])
            .edge(0, 1, 1)
            .edge(1, 2, 0)
            .edge(2, 3, 1)
            .build(),
        // Star around a 2-labelled hub.
        GraphBuilder::new()
            .vertices(&[2, 0, 1, 3])
            .edge(0, 1, 0)
            .edge(0, 2, 1)
            .edge(0, 3, 0)
            .build(),
        // The skeleton of fixture graph 4 (path + one chord): a query that
        // embeds exactly in part of the database, giving phase 2 informative
        // SIP bounds.
        GraphBuilder::new()
            .vertices(&[0, 1, 2, 3])
            .edge(0, 1, 1)
            .edge(1, 2, 0)
            .edge(2, 3, 1)
            .edge(0, 2, 0)
            .build(),
        // A sub-path of the odd-indexed graphs (labels shifted by one).
        GraphBuilder::new()
            .vertices(&[1, 2, 3, 0])
            .edge(0, 1, 0)
            .edge(1, 2, 1)
            .edge(2, 3, 0)
            .edge(1, 3, 1)
            .build(),
    ]
}

fn fixture_params() -> QueryParams {
    QueryParams {
        epsilon: 0.2,
        delta: 1,
        variant: PruningVariant::OptSspBound,
    }
}

/// ε values swept by the golden workload: low (accept-by-lower territory),
/// medium, and high (prune-by-upper territory) — so both SIP pruning rules
/// appear in the frozen counters.
const EPSILONS: [f64; 3] = [0.15, 0.45, 0.85];

/// The deterministic counters of `PhaseStats` (the seconds fields are
/// wall-clock and excluded on purpose).
fn render_stats(s: &PhaseStats) -> String {
    format!(
        "sc={} pes={} fs={} pu={} al={} v={} ev={} sd={} pc={}",
        s.structural_candidates,
        s.posting_entries_scanned,
        s.filter_survivors,
        s.pruned_by_upper,
        s.accepted_by_lower,
        s.verified,
        s.exact_verifications,
        s.samples_drawn,
        s.probabilistic_candidates,
    )
}

/// Renders the complete observable behaviour of the workload: one line per
/// (config, threads, query) for `query`, `exact_scan` and the matching
/// `query_batch` entry.
fn render_workload() -> String {
    let graphs = fixture_graphs();
    let queries = fixture_queries();
    let mut out = String::new();
    for (name, base) in config_variants() {
        for threads in [1usize, 0] {
            let mut config = base;
            config.threads = threads;
            let engine = QueryEngine::build(graphs.clone(), config);
            for epsilon in EPSILONS {
                let params = QueryParams {
                    epsilon,
                    ..fixture_params()
                };
                let batch = engine.query_batch(&queries, &params).unwrap();
                for (qi, q) in queries.iter().enumerate() {
                    let solo = engine.query(q, &params).unwrap();
                    let exact = engine.exact_scan(q, &params).unwrap();
                    let from_batch = &batch.results[qi];
                    assert_eq!(solo.answers, from_batch.answers, "batch diverged from solo");
                    writeln!(
                        out,
                        "cfg={name} threads={threads} eps={epsilon} q={qi} \
                         answers={:?} stats=[{}] exact={:?}",
                        solo.answers,
                        render_stats(&solo.stats),
                        exact.answers,
                    )
                    .unwrap();
                }
                writeln!(
                    out,
                    "cfg={name} threads={threads} eps={epsilon} batch stats=[{}]",
                    render_stats(&batch.stats)
                )
                .unwrap();
            }
            // δ ≥ |E(q)|: the trivial relaxation accepts the whole database
            // by lower bound — pins the accept path.
            let trivial = QueryParams {
                delta: queries[0].edge_count(),
                ..fixture_params()
            };
            let accept_all = engine.query(&queries[0], &trivial).unwrap();
            writeln!(
                out,
                "cfg={name} threads={threads} trivial answers={:?} stats=[{}]",
                accept_all.answers,
                render_stats(&accept_all.stats)
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn answers_and_stats_match_the_prearena_golden_file() {
    let golden = std::fs::read_to_string(fixture_path("arena_expected.txt"))
        .expect("golden fixture arena_expected.txt (generated pre-refactor)");
    let now = render_workload();
    assert_eq!(
        now, golden,
        "observable behaviour diverged from the pre-refactor engine"
    );
}

#[test]
fn prearena_v3_snapshot_loads_and_reencodes_byte_identically() {
    let bytes = std::fs::read(fixture_path("pmi_v3_prearena.bin"))
        .expect("golden fixture pmi_v3_prearena.bin (generated pre-refactor)");
    let pmi = Pmi::from_bytes(&bytes).expect("pre-refactor v3 snapshot must keep decoding");
    assert_eq!(pmi.graph_count(), 32);

    // The three segments merge into exactly the index a fresh build makes:
    // every column, every support list and the S-Index.
    let graphs = fixture_graphs();
    let fresh = QueryEngine::build(graphs.clone(), base_config());
    let want = fresh.pmi();
    assert_eq!(pmi.graph_salts(), want.graph_salts());
    for g in 0..pmi.graph_count() {
        assert_eq!(pmi.graph_entries(g), want.graph_entries(g), "graph {g}");
    }
    assert_eq!(pmi.features().len(), want.features().len());
    for (a, b) in pmi.features().iter().zip(want.features()) {
        assert_eq!(a.graph, b.graph);
        assert_eq!(pmi.feature_support(a.id), want.feature_support(b.id));
        assert_eq!(a.frequency.to_bits(), b.frequency.to_bits());
    }
    assert_eq!(pmi.sindex(), want.sindex());

    // Re-encoding writes one segment and reaches a fixed point at once:
    // decode → encode → decode → encode is byte-stable.
    let once = pmi.to_bytes();
    let twice = Pmi::from_bytes(&once).unwrap().to_bytes();
    assert_eq!(once, twice, "one-segment re-encode is not a fixed point");

    // The loaded index answers exactly like the fresh build, counter for
    // counter.
    let loaded =
        QueryEngine::from_parts(graphs, pmi, base_config()).expect("pairing the fixture index");
    let params = fixture_params();
    for q in fixture_queries() {
        let want = fresh.query(&q, &params).unwrap();
        let got = loaded.query(&q, &params).unwrap();
        assert_eq!(got.answers, want.answers);
        assert_eq!(render_stats(&got.stats), render_stats(&want.stats));
    }
}

/// A database opened from a snapshot holds the whole index in memory: it
/// answers like a fresh build even after the snapshot file is gone.
#[test]
fn prearena_v3_snapshot_answers_after_its_file_is_removed() {
    let bytes = std::fs::read(fixture_path("pmi_v3_prearena.bin"))
        .expect("golden fixture pmi_v3_prearena.bin (generated pre-refactor)");
    let path = std::env::temp_dir().join(format!("pgs-arena-golden-{}.pmi", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let graphs = fixture_graphs();
    let opened = QueryEngine::with_index(graphs.clone(), &path, base_config())
        .expect("opening the pre-refactor snapshot");
    std::fs::remove_file(&path).unwrap();
    let fresh = QueryEngine::build(graphs, base_config());
    let params = fixture_params();
    for q in fixture_queries() {
        let want = fresh.query(&q, &params).unwrap();
        let got = opened.query(&q, &params).unwrap();
        assert_eq!(got.answers, want.answers);
        assert_eq!(render_stats(&got.stats), render_stats(&want.stats));
    }
}

/// Strategy: a random connected labelled graph (spanning tree + extra edges).
fn arb_graph(max_vertices: usize, labels: u32) -> impl Strategy<Value = Graph> {
    (3..=max_vertices)
        .prop_flat_map(move |n| {
            (
                proptest::collection::vec(0..labels, n),
                proptest::collection::vec((0..n, 0..n), 0..n),
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

/// Strategy: a probabilistic graph with max-rule JPTs over a random skeleton.
fn arb_probabilistic_graph() -> impl Strategy<Value = ProbabilisticGraph> {
    (
        arb_graph(7, 3),
        proptest::collection::vec(0.05f64..0.95, 24),
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
        cases: 12,
        max_shrink_iters: 100,
        ..ProptestConfig::default()
    })]

    /// Answers, exact-scan answers and every deterministic counter are
    /// invariant across threads {1, auto} on random databases — the flat
    /// fan-out scratch and arena layouts introduce no order dependence — and
    /// a shard count other than 1 is a typed error, never a silent answer.
    #[test]
    fn random_workloads_are_shard_and_thread_invariant(
        db in proptest::collection::vec(arb_probabilistic_graph(), 2..10),
        q in arb_graph(5, 3),
        epsilon in 0.05f64..0.9,
    ) {
        let params = QueryParams { epsilon, delta: 1, variant: PruningVariant::OptSspBound };
        let mut reference: Option<(Vec<usize>, String, Vec<usize>)> = None;
        for threads in [1usize, 0] {
            let mut config = base_config();
            config.threads = threads;
            let engine = QueryEngine::build(db.clone(), config);
            let r = engine.query(&q, &params).unwrap();
            let e = engine.exact_scan(&q, &params).unwrap();
            let b = engine.query_batch(std::slice::from_ref(&q), &params).unwrap();
            prop_assert_eq!(&b.results[0].answers, &r.answers);
            let obs = (r.answers, render_stats(&r.stats), e.answers);
            match &reference {
                None => reference = Some(obs),
                Some(want) => {
                    prop_assert_eq!(&obs.0, &want.0, "answers at threads={}", threads);
                    prop_assert_eq!(&obs.1, &want.1, "stats at threads={}", threads);
                    prop_assert_eq!(&obs.2, &want.2, "exact answers at threads={}", threads);
                }
            }
        }
        let mut sharded = base_config();
        sharded.shards = 8;
        let engine = QueryEngine::build(db, sharded);
        prop_assert!(matches!(
            engine.query(&q, &params),
            Err(QueryError::InvalidShards { shards: 8, max: 1 })
        ));
        prop_assert!(matches!(
            engine.exact_scan(&q, &params),
            Err(QueryError::InvalidShards { shards: 8, max: 1 })
        ));
    }
}

/// Regenerates the golden answer file.  Ignored: this was run once on the
/// commit *before* the arena refactor to freeze the pre-refactor behaviour;
/// rerunning it later would defeat the point of the fixture.
/// `pmi_v3_prearena.bin` cannot be regenerated at all: nothing writes a
/// multi-segment snapshot any more.
#[test]
#[ignore = "writes tests/fixtures/arena_expected.txt; run only pre-refactor"]
fn generate_prearena_fixtures() {
    std::fs::write(fixture_path("arena_expected.txt"), render_workload()).unwrap();
}
