//! Golden regression pin of the whole query path: verification estimates,
//! threshold answers, top-k rankings and every deterministic `PhaseStats`
//! counter, frozen as `tests/fixtures/query_path_expected.txt`.
//!
//! The fixture was generated by the `#[ignore]`d test at the bottom running
//! on the engine *before* threshold and top-k queries were folded onto one
//! phase-1/phase-2 front end and verification onto one stopping-rule-driven
//! estimator.  The fold must not move a single observable bit, so the
//! rendered workload has to match the fixture exactly:
//!
//! * `f64::to_bits` of fixed-budget `verify_ssp_with_stats` estimates on
//!   `fixture_002` and `pgs_datagen::scenarios::verification_candidate`, two
//!   caller seeds, threads {1, 2};
//! * the answers of `query`/`query_batch` and the ranked lists (graph +
//!   SSP bits) of `query_topk`/`query_topk_batch` on a small PPI engine,
//!   with all 13 deterministic counters, across adaptive stopping
//!   {on, off} × a mostly-exact and a forced-sampling verifier.
//!
//! The engine's thread count is not part of the file: every line is
//! thread-count invariant, so the test renders the workload at query
//! threads {1, 0 = automatic, 4} and checks each rendering against the same
//! file.
//!
//! Two more pins sit upstream of the file, as FNV digests written into the
//! tests themselves: the relaxed query sets (`relax_query_clamped`, which
//! every phase reads, in order) and the miner's patterns with their support
//! lists.  Both digests were computed with the brute-force `n!` canonical
//! code, so the cheaper code must reproduce them; never regenerate them.
//! Three more digests pin paths the file does not reach, on the same PPI
//! workload: the bit patterns of `exact_ssp`, the answers and counters of
//! the `Exact` baseline scan, and phase 2's `(Usim, Lsim)` pairs under both
//! cross-term rules.  Their expected values were computed once, before the
//! search primitives lost their single-valued options; never regenerate
//! them either.  The golden PPI workload's embedding unions span at most 7
//! relevant edges, so one more `exact_ssp` digest runs on a label-poor dense
//! workload whose unions reach 13–22 edges, the range the table-ordered
//! search answers; it was computed once too.

mod common;

use common::ppi_dataset;
use pgs::datagen::ppi::{generate_ppi_dataset, PpiDataset, PpiDatasetConfig};
use pgs::datagen::queries::{generate_query_workload, QueryWorkloadConfig};
use pgs::prelude::*;
use pgs::prob::exact::{collect_embeddings_of_relaxations, exact_ssp};
use pgs::prob::montecarlo::MonteCarloConfig;
use pgs::query::pipeline::PhaseStats;
use pgs::query::prune::{bound_candidate, CrossTermRule, FeatureRelation};
use pgs::query::verify::{verify_ssp_with_stats, VerifyOptions};
use pgs_datagen::scenarios::verification_candidate;
use pgs_graph::mining::{mine_frequent_patterns, MiningOptions};
use pgs_graph::relax::{relax_query, relax_query_clamped};
use pgs_index::feature::FeatureSelectionParams;
use pgs_index::pmi::PmiBuildParams;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::PathBuf;

const FIXTURE: &str = "query_path_expected.txt";

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Figure-1-style fixture: a correlated triangle table plus a pendant table.
fn fixture_002() -> ProbabilisticGraph {
    let skeleton = GraphBuilder::new()
        .name("002")
        .vertices(&[0, 0, 1, 1, 2])
        .edge(0, 1, 9)
        .edge(0, 2, 9)
        .edge(1, 2, 9)
        .edge(2, 3, 9)
        .edge(2, 4, 9)
        .build();
    let t1 = JointProbTable::from_max_rule(&[(EdgeId(0), 0.7), (EdgeId(1), 0.6), (EdgeId(2), 0.8)])
        .unwrap();
    let t2 = JointProbTable::from_max_rule(&[(EdgeId(3), 0.5), (EdgeId(4), 0.4)]).unwrap();
    ProbabilisticGraph::new(skeleton, vec![t1, t2], true).unwrap()
}

/// The labelled triangle both verification fixtures are queried with.
fn triangle_query() -> Graph {
    GraphBuilder::new()
        .vertices(&[0, 1, 2])
        .edge(0, 1, 9)
        .edge(1, 2, 9)
        .edge(0, 2, 9)
        .build()
}

/// Fixed-budget verifier options with every knob pinned; `exact_cutoff = 0`
/// forces the sampled path wherever an embedding exists.
fn sampled_verify_options() -> VerifyOptions {
    VerifyOptions {
        mc: MonteCarloConfig {
            tau: 0.05,
            xi: 0.01,
            max_samples: 20_000,
        },
        max_embeddings: 256,
        exact_cutoff: 0,
        adaptive: false,
    }
}

/// The deterministic counters of `PhaseStats` (the seconds fields are
/// wall-clock and excluded on purpose).
fn render_stats(s: &PhaseStats) -> String {
    format!(
        "sc={} pes={} fs={} pu={} al={} v={} ev={} sd={} ss={} ea={} er={} tp={} pc={}",
        s.structural_candidates,
        s.posting_entries_scanned,
        s.filter_survivors,
        s.pruned_by_upper,
        s.accepted_by_lower,
        s.verified,
        s.exact_verifications,
        s.samples_drawn,
        s.samples_saved,
        s.early_accepts,
        s.early_rejects,
        s.topk_pruned,
        s.probabilistic_candidates,
    )
}

fn render_ranked(r: &TopkResult) -> String {
    let items: Vec<String> = r
        .ranked
        .iter()
        .map(|a| format!("{}:{:016x}", a.graph, a.ssp.to_bits()))
        .collect();
    items.join(",")
}

/// One line per (fixture, δ, caller seed, threads) with the estimate's bit
/// pattern and the work counters of the verification outcome.
fn render_verification(out: &mut String) {
    let options = sampled_verify_options();
    let q = triangle_query();
    let fixtures = [
        ("fixture_002", fixture_002()),
        ("candidate_8", verification_candidate(8).0),
    ];
    for (name, pg) in &fixtures {
        for delta in 0..=2usize {
            let relaxed = relax_query_clamped(&q, delta);
            for seed in [7u64, 0x5EED] {
                for threads in [1usize, 2] {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let v =
                        verify_ssp_with_stats(pg, &q, delta, &relaxed, &options, threads, &mut rng);
                    writeln!(
                        out,
                        "verify {name} delta={delta} seed={seed:#x} threads={threads} \
                         ssp={:016x} samples={} exact={}",
                        v.ssp.to_bits(),
                        v.samples_drawn,
                        v.exact
                    )
                    .unwrap();
                }
            }
        }
    }
}

/// Four `query_size`-edge queries drawn from `ds`.
fn ppi_queries(ds: &PpiDataset, query_size: usize) -> Vec<Graph> {
    generate_query_workload(
        ds,
        &QueryWorkloadConfig {
            query_size,
            count: 4,
            seed: 99,
        },
    )
    .into_iter()
    .map(|wq| wq.graph)
    .collect()
}

/// The frozen PPI database plus its 4-edge query workload.
fn ppi_workload() -> (Vec<ProbabilisticGraph>, Vec<Graph>) {
    let ds = ppi_dataset();
    let queries = ppi_queries(&ds, 4);
    (ds.graphs, queries)
}

fn engine_config(threads: usize, adaptive: bool, exact_cutoff: usize) -> EngineConfig {
    EngineConfig {
        pmi: PmiBuildParams {
            features: FeatureSelectionParams {
                max_l: 3,
                max_features: 24,
                max_embeddings: 12,
                ..FeatureSelectionParams::default()
            },
            threads: 1,
            seed: 11,
            ..PmiBuildParams::default()
        },
        verify: VerifyOptions {
            mc: MonteCarloConfig {
                tau: 0.1,
                xi: 0.05,
                max_samples: 4_000,
            },
            max_embeddings: 256,
            exact_cutoff,
            adaptive,
        },
        seed: 0x601D,
        threads,
        ..EngineConfig::default()
    }
}

const VARIANTS: [PruningVariant; 3] = [
    PruningVariant::Structure,
    PruningVariant::SspBound,
    PruningVariant::OptSspBound,
];

/// Threshold and top-k queries, solo and batched, for one engine.
fn render_engine(out: &mut String, tag: &str, engine: &QueryEngine, queries: &[Graph]) {
    for variant in VARIANTS {
        for epsilon in [0.1, 0.4, 0.9] {
            let params = QueryParams {
                epsilon,
                delta: 1,
                variant,
            };
            let batch = engine.query_batch(queries, &params).unwrap();
            for (qi, q) in queries.iter().enumerate() {
                let solo = engine.query(q, &params).unwrap();
                writeln!(
                    out,
                    "{tag} query {variant:?} eps={epsilon} q={qi} answers={:?} stats=[{}]",
                    solo.answers,
                    render_stats(&solo.stats)
                )
                .unwrap();
                let b = &batch.results[qi];
                writeln!(
                    out,
                    "{tag} batch {variant:?} eps={epsilon} q={qi} answers={:?} stats=[{}]",
                    b.answers,
                    render_stats(&b.stats)
                )
                .unwrap();
            }
            writeln!(
                out,
                "{tag} batch-total {variant:?} eps={epsilon} stats=[{}]",
                render_stats(&batch.stats)
            )
            .unwrap();
        }
        for k in [1usize, 5] {
            let params = TopkParams {
                k,
                delta: 1,
                variant,
            };
            let batch = engine.query_topk_batch(queries, &params).unwrap();
            for (qi, q) in queries.iter().enumerate() {
                let solo = engine.query_topk(q, &params).unwrap();
                writeln!(
                    out,
                    "{tag} topk {variant:?} k={k} q={qi} ranked=[{}] stats=[{}]",
                    render_ranked(&solo),
                    render_stats(&solo.stats)
                )
                .unwrap();
                let b = &batch.results[qi];
                writeln!(
                    out,
                    "{tag} topk-batch {variant:?} k={k} q={qi} ranked=[{}] stats=[{}]",
                    render_ranked(b),
                    render_stats(&b.stats)
                )
                .unwrap();
            }
        }
    }
    // δ ≥ |E(q)|: the trivial relaxation shortcut of both query kinds.
    let q = &queries[0];
    let delta = q.edge_count();
    let all = engine
        .query(
            q,
            &QueryParams {
                epsilon: 0.4,
                delta,
                variant: PruningVariant::OptSspBound,
            },
        )
        .unwrap();
    writeln!(
        out,
        "{tag} trivial-query answers={:?} stats=[{}]",
        all.answers,
        render_stats(&all.stats)
    )
    .unwrap();
    let top = engine
        .query_topk(
            q,
            &TopkParams {
                k: 5,
                delta,
                variant: PruningVariant::OptSspBound,
            },
        )
        .unwrap();
    writeln!(
        out,
        "{tag} trivial-topk ranked=[{}] stats=[{}]",
        render_ranked(&top),
        render_stats(&top.stats)
    )
    .unwrap();
}

/// Renders the complete observable behaviour the fixture pins, running the
/// engines at `threads` query threads.
fn render_workload(threads: usize) -> String {
    let mut out = String::new();
    render_verification(&mut out);
    let (graphs, queries) = ppi_workload();
    let built = QueryEngine::build(graphs.clone(), engine_config(threads, true, 12));
    for exact_cutoff in [12usize, 0] {
        for adaptive in [true, false] {
            let engine = QueryEngine::from_parts(
                graphs.clone(),
                built.pmi().clone(),
                engine_config(threads, adaptive, exact_cutoff),
            )
            .unwrap();
            let tag = format!("cutoff={exact_cutoff} adaptive={adaptive}");
            render_engine(&mut out, &tag, &engine, &queries);
        }
    }
    out
}

#[test]
fn query_path_matches_the_golden_file() {
    let golden = std::fs::read_to_string(fixture_path(FIXTURE))
        .expect("golden fixture query_path_expected.txt");
    for threads in [1usize, 0, 4] {
        let now = render_workload(threads);
        for (i, (a, b)) in now.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                a,
                b,
                "threads = {threads}: line {} diverged from the golden file",
                i + 1
            );
        }
        assert_eq!(now.lines().count(), golden.lines().count());
    }
}

#[test]
#[ignore = "writes tests/fixtures/query_path_expected.txt; run only to re-pin the golden file"]
fn generate_query_path_fixture() {
    std::fs::write(fixture_path(FIXTURE), render_workload(0)).unwrap();
}

/// FNV-1a over a stream of words: the digest the two pins below compare.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// A graph as the caller sees it: vertex labels in vertex order, then
    /// every edge `(u, v, label)` in edge-id order.
    fn graph(&mut self, g: &Graph) {
        self.word(g.vertex_count() as u64);
        for l in g.vertex_labels() {
            self.word(l.value() as u64);
        }
        self.word(g.edge_count() as u64);
        for (_, e) in g.edge_entries() {
            self.word(e.u.index() as u64);
            self.word(e.v.index() as u64);
            self.word(e.label.value() as u64);
        }
    }
}

/// Pins the miner's output (which patterns, in which order, with which
/// support lists) on two frozen PPI databases: the engine workload's and a
/// 3-label denser one whose patterns share (label, degree) cells.  The
/// expected values were computed once and must never be regenerated: a
/// change to pattern deduplication may change how fast the miner runs, not
/// what it returns.
#[test]
fn mined_patterns_match_the_pinned_digest() {
    let dense = generate_ppi_dataset(&PpiDatasetConfig {
        graph_count: 12,
        vertices_per_graph: 10,
        edges_per_graph: 18,
        vertex_label_count: 3,
        organism_count: 2,
        perturbation: 0.3,
        seed: 77,
        ..PpiDatasetConfig::default()
    });
    let mut digests = Vec::new();
    for ds in [ppi_dataset(), dense] {
        let patterns = mine_frequent_patterns(
            &ds.skeletons(),
            &MiningOptions {
                min_support: 4,
                max_vertices: 5,
                max_edges: 6,
                max_patterns_per_level: 48,
                max_embeddings_per_graph: 12,
            },
        );
        let mut h = Fnv::new();
        h.word(patterns.len() as u64);
        for p in &patterns {
            h.graph(&p.graph);
            h.word(p.support.len() as u64);
            for &gi in &p.support {
                h.word(gi as u64);
            }
        }
        digests.push(format!("{}:{:016x}", patterns.len(), h.0));
    }
    assert_eq!(digests, ["89:ae6d351bd4b419af", "137:1c40e7d52b0aefa4"]);
}

/// Pins `relax_query_clamped`'s output graphs, in order, for the golden
/// workload's queries (plus the labelled triangle and 10-edge queries drawn
/// from the same database) at every δ up to |E(q)|.  The verification
/// sampler's bits depend on the relaxation order, so "same set" is not
/// enough.  The expected value was computed once and must never be
/// regenerated.
#[test]
fn relaxed_query_sets_match_the_pinned_digest() {
    let ds = ppi_dataset();
    let mut queries = ppi_queries(&ds, 4);
    queries.push(triangle_query());
    queries.extend(ppi_queries(&ds, 10));
    let mut h = Fnv::new();
    let mut total = 0usize;
    for q in &queries {
        for delta in 0..=q.edge_count().min(4) {
            let relaxed = relax_query_clamped(q, delta);
            total += relaxed.len();
            h.word(relaxed.len() as u64);
            for rq in &relaxed {
                h.graph(rq);
            }
        }
    }
    assert_eq!(format!("{total}:{:016x}", h.0), "1464:9f7dc094004ae486");
}

/// Pins the bit pattern of `exact_ssp` (Lemma 1: the union of the relaxed
/// queries' embeddings, evaluated by world enumeration) for every golden
/// query against every golden graph at δ ∈ {0, 1, 2}.  A graph whose union
/// spans more relevant edges than the limit contributes its error marker.
/// The expected value was computed once and must never be regenerated.
#[test]
fn exact_ssp_bits_match_the_pinned_digest() {
    let (graphs, queries) = ppi_workload();
    let mut h = Fnv::new();
    let mut errors = 0usize;
    for q in &queries {
        for delta in 0..=2usize {
            for pg in &graphs {
                match exact_ssp(pg, q, delta, 22) {
                    Ok(ssp) => h.word(ssp.to_bits()),
                    Err(_) => {
                        errors += 1;
                        h.word(u64::MAX);
                    }
                }
            }
        }
    }
    assert_eq!(format!("{errors}:{:016x}", h.0), "0:ed5f40a78a14bb80");
}

/// Pins the bit pattern of `exact_ssp` at limit 22 past the flat world
/// enumerator: every query of `common::dense_workload` against every graph at
/// δ ∈ {0, 1}.  It counts the unions of 13–22 relevant edges, the ones the
/// table-ordered search answers, and requires some.  A union wider than the
/// limit contributes its error marker.  The expected value was computed
/// once, and agreed with the flat enumerator's sums to 5e-14; it must never
/// be regenerated.
#[test]
fn wide_union_exact_ssp_bits_match_the_pinned_digest() {
    let (graphs, queries) = common::dense_workload();
    let mut h = Fnv::new();
    let (mut wide, mut errors) = (0usize, 0usize);
    for q in &queries {
        for delta in 0..=1usize {
            for pg in &graphs {
                let embeddings =
                    collect_embeddings_of_relaxations(pg, &relax_query(q, delta), usize::MAX);
                let mut relevant: Vec<EdgeId> = embeddings.into_iter().flatten().collect();
                relevant.sort_unstable();
                relevant.dedup();
                wide += usize::from((13..=22).contains(&relevant.len()));
                match exact_ssp(pg, q, delta, 22) {
                    Ok(ssp) => h.word(ssp.to_bits()),
                    Err(_) => {
                        errors += 1;
                        h.word(u64::MAX);
                    }
                }
            }
        }
    }
    assert!(wide > 0, "no union reaches the table-ordered search");
    assert_eq!(
        format!("{wide}:{errors}:{:016x}", h.0),
        "8:1:235d50c73a05e782"
    );
}

/// Pins the `Exact` baseline scan: answers and deterministic counters for
/// every golden query at δ ∈ {0, 1, 2, |E(q)|} and ε ∈ {0.1, 0.4}, once with the
/// default exact-enumeration cap and once with a cap of 4 relevant edges
/// and a verifier without an exact cutoff, which sends most graphs down the
/// sampling fallback.  The expected value was computed once and must never
/// be regenerated.
#[test]
fn exact_scan_matches_the_pinned_digest() {
    let (graphs, queries) = ppi_workload();
    let built = QueryEngine::build(graphs.clone(), engine_config(1, true, 12));
    let mut h = Fnv::new();
    let mut answers = 0usize;
    for (exact_edge_cap, exact_cutoff) in [(22usize, 12usize), (4, 0)] {
        let config = EngineConfig {
            exact: ExactScanConfig {
                exact_edge_cap,
                ..ExactScanConfig::default()
            },
            ..engine_config(0, true, exact_cutoff)
        };
        let engine = QueryEngine::from_parts(graphs.clone(), built.pmi().clone(), config).unwrap();
        for q in &queries {
            for delta in [0, 1, 2, q.edge_count()] {
                for epsilon in [0.1, 0.4] {
                    let params = QueryParams {
                        epsilon,
                        delta,
                        variant: PruningVariant::OptSspBound,
                    };
                    let r = engine.exact_scan(q, &params).unwrap();
                    answers += r.answers.len();
                    h.word(r.answers.len() as u64);
                    for &gi in &r.answers {
                        h.word(gi as u64);
                    }
                    for byte in render_stats(&r.stats).bytes() {
                        h.word(byte as u64);
                    }
                }
            }
        }
    }
    assert_eq!(format!("{answers}:{:016x}", h.0), "526:2d1da9ffa49f2bc5");
}

/// Pins phase 2's raw bound pairs: `bound_candidate`'s `(Usim, Lsim)` bits
/// for every golden query and graph at δ ∈ {1, 2, 3}, for the tightest and the
/// untightened bounds under both cross-term rules (the golden file only
/// runs `SafeMin`).  Each call gets an RNG seeded from its position, so the
/// pairs do not depend on call order.  The expected value was computed once
/// and must never be regenerated.
#[test]
fn bound_pairs_match_the_pinned_digest() {
    let (graphs, queries) = ppi_workload();
    let engine = QueryEngine::build(graphs, engine_config(1, true, 12));
    let pmi = engine.pmi();
    let mut h = Fnv::new();
    let mut positive_lsim = 0usize;
    for (qi, q) in queries.iter().enumerate() {
        for delta in 1..=3usize {
            let relaxed = relax_query_clamped(q, delta);
            let relation = FeatureRelation::new(pmi, &relaxed);
            for gi in 0..pmi.graph_count() {
                for optimal in [true, false] {
                    for cross in [CrossTermRule::SafeMin, CrossTermRule::PaperProduct] {
                        let seed = (qi * 1000 + delta * 100 + gi) as u64;
                        let mut rng = StdRng::seed_from_u64(seed);
                        let (usim, lsim) =
                            bound_candidate(pmi, gi, &relation, optimal, cross, &mut rng);
                        positive_lsim += usize::from(lsim > 0.0);
                        h.word(usim.to_bits());
                        h.word(lsim.to_bits());
                    }
                }
            }
        }
    }
    assert_eq!(
        format!("{positive_lsim}:{:016x}", h.0),
        "14:9d9fdd527432bf01"
    );
}
