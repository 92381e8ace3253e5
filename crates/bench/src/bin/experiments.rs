//! Experiment harness: regenerates every table/figure series of the paper's
//! evaluation (Section 6, Figures 9–14) on the synthetic dataset.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pgs-bench --bin experiments -- [fig9|…|fig14|all] [--scale tiny|small|medium|paper]
//! cargo run --release -p pgs-bench --bin experiments -- index-save|index-load|index-open <path>
//! cargo run --release -p pgs-bench --bin experiments -- bench-shard
//! ```
//!
//! With no command every figure runs.  `index-save`, `index-load` and
//! `index-open` print the answers of a fixed workload after building and
//! saving, eagerly loading, or lazily opening an index snapshot; the three
//! outputs must be byte-identical across processes.  `bench-shard` times the
//! header-only snapshot open against a full load at 10k/100k skeletons and
//! 1 vs 8 shards, and writes `BENCH_shard.json`.
//!
//! End-to-end latency, throughput and per-layer costs are measured by the
//! benchmark in `perfbench/`, not here.  Absolute numbers differ from the
//! paper (different hardware, synthetic data, laptop-scale sizes); the
//! *shapes* — which method wins, how the curves move with each parameter —
//! are the reproduction target.

use pgs_bench::{bench_engine_config, bench_feature_params, build_setup_with, format_row};
use pgs_datagen::ppi::{generate_ppi_dataset, CorrelationModel, PpiDatasetConfig};
use pgs_datagen::queries::{generate_query_workload, QueryWorkloadConfig};
use pgs_datagen::scenarios::{bulk_skeletons, paper_scale, DatasetScale};
use pgs_index::feature::FeatureSelectionParams;
use pgs_index::pmi::{Pmi, PmiBuildParams};
use pgs_index::sip_bounds::BoundsConfig;
use pgs_prob::independent::to_independent_model;
use pgs_query::pipeline::{EngineConfig, PruningVariant, QueryEngine, QueryParams};
use pgs_query::verify::{verify_ssp_exact, verify_ssp_sampled, VerifyOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    let figures: Vec<&str> = args
        .iter()
        .filter(|a| a.starts_with("fig"))
        .map(|a| a.as_str())
        .collect();
    let bench_shard_requested = args.iter().any(|a| a == "bench-shard");
    let arg_after = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let index_save_path = arg_after("index-save");
    let index_load_path = arg_after("index-load");
    let index_open_path = arg_after("index-open");
    let run_all = (figures.is_empty()
        && !bench_shard_requested
        && index_save_path.is_none()
        && index_load_path.is_none()
        && index_open_path.is_none())
        || figures.contains(&"all");
    let wants = |f: &str| run_all || figures.contains(&f);

    println!("# Probabilistic subgraph similarity search — experiment harness");
    println!("# scale = {scale:?}\n");

    if wants("fig9") {
        figure_9(scale);
    }
    if wants("fig10") {
        figure_10(scale);
    }
    if wants("fig11") {
        figure_11(scale);
    }
    if wants("fig12") {
        figure_12(scale);
    }
    if wants("fig13") {
        figure_13(scale);
    }
    if wants("fig14") {
        figure_14(scale);
    }
    if bench_shard_requested {
        bench_shard();
    }
    if let Some(path) = index_save_path {
        index_save(&path);
    }
    if let Some(path) = index_load_path {
        index_load(&path);
    }
    if let Some(path) = index_open_path {
        index_open(&path);
    }
}

/// The deterministic setup shared by `index-save` and `index-load`: a fixed
/// dataset, workload and engine configuration.  Two process invocations must
/// print byte-identical answer lines — CI saves the index in one process,
/// loads it in another and diffs the outputs.
fn index_roundtrip_setup() -> (
    Vec<pgs_prob::model::ProbabilisticGraph>,
    Vec<pgs_graph::model::Graph>,
    EngineConfig,
) {
    let dataset = generate_ppi_dataset(&PpiDatasetConfig {
        graph_count: 32,
        vertices_per_graph: 10,
        edges_per_graph: 14,
        vertex_label_count: 6,
        organism_count: 2,
        seed: 0x51A7,
        ..PpiDatasetConfig::default()
    });
    let queries = generate_query_workload(
        &dataset,
        &QueryWorkloadConfig {
            query_size: 5,
            count: 6,
            seed: 0x1D,
        },
    )
    .into_iter()
    .map(|wq| wq.graph)
    .collect();
    // Three shards so the cross-process diff exercises the sharded v3
    // snapshot layout, not just the single-shard degenerate case.
    let config = EngineConfig {
        shards: 3,
        ..bench_engine_config(0xFEED)
    };
    (dataset.graphs, queries, config)
}

/// Prints the answer set of every `(query, variant)` pair in a stable format.
fn print_answer_lines(engine: &QueryEngine, queries: &[pgs_graph::model::Graph]) {
    let variants = [
        PruningVariant::Structure,
        PruningVariant::SspBound,
        PruningVariant::OptSspBound,
    ];
    for (qi, q) in queries.iter().enumerate() {
        for variant in variants {
            // A low ε and tolerant δ so the printed answer sets are non-empty
            // on this dataset — diffing empty lists would prove nothing.
            let params = QueryParams {
                epsilon: 0.1,
                delta: 2,
                variant,
            };
            let result = engine.query(q, &params).unwrap();
            println!("answers q{qi} {variant:?}: {:?}", result.answers);
        }
    }
}

/// `index-save <path>`: builds the deterministic index, saves it to `path`
/// and prints the query answers.
fn index_save(path: &str) {
    let (graphs, queries, config) = index_roundtrip_setup();
    let engine = QueryEngine::build(graphs, config);
    engine.pmi().save(path).expect("saving the index snapshot");
    print_answer_lines(&engine, &queries);
}

/// `index-load <path>`: loads the index saved by `index-save` into a fresh
/// engine (no rebuild) and prints the query answers — the output must be
/// byte-identical to the `index-save` run.
fn index_load(path: &str) {
    let (graphs, queries, config) = index_roundtrip_setup();
    let engine = QueryEngine::with_index(graphs, path, config)
        .expect("loading the index snapshot against the same database");
    print_answer_lines(&engine, &queries);
}

/// `index-open <path>`: like `index-load`, but through the lazy header-only
/// [`QueryEngine::open_index`] path — shard segments materialize from disk on
/// first touch while the queries run.  The output must be byte-identical to
/// both the `index-save` and the `index-load` runs.
fn index_open(path: &str) {
    let (graphs, queries, config) = index_roundtrip_setup();
    let engine = QueryEngine::open_index(graphs, path, config)
        .expect("opening the index snapshot against the same database");
    assert_eq!(
        engine.pmi().materialized_shards(),
        0,
        "open must defer every segment until the first query touches it"
    );
    print_answer_lines(&engine, &queries);
}

/// Sharded-snapshot benchmark: header-only
/// `Pmi::open` vs full `Pmi::load` at 10k and 100k bulk skeletons, plus
/// end-to-end queries/sec at 1 vs 8 shards, recorded in `BENCH_shard.json`.
/// Before anything is timed, the lazily-opened engine's answers are asserted
/// byte-identical to the engine that built the index.
fn bench_shard() {
    use pgs_graph::model::GraphBuilder;
    println!("## bench-shard — v3 header-only open vs full load, 1 vs 8 shards");
    // Lean mining parameters: the corpus exercises snapshot *volume* (one PMI
    // column and one structural summary per graph), not feature quality, so
    // keep per-cell work minimal to make 100k graphs practical.
    let lean_config = EngineConfig {
        pmi: PmiBuildParams {
            features: FeatureSelectionParams {
                max_l: 2,
                max_features: 8,
                max_embeddings: 8,
                ..bench_feature_params()
            },
            bounds: BoundsConfig {
                max_embeddings: 8,
                max_cuts: 16,
                ..BoundsConfig::default()
            },
            threads: 0,
            seed: 0x5A4D,
        },
        ..bench_engine_config(0x5A4D)
    };
    // Short label-alphabet path queries matching the `bulk_skeletons` alphabet
    // (vertex labels 0..5, edge labels 0..2).
    let queries: Vec<pgs_graph::model::Graph> = (0..16u32)
        .map(|i| {
            GraphBuilder::new()
                .vertices(&[i % 5, (i + 1) % 5, (i + 2) % 5])
                .edge(0, 1, i % 2)
                .edge(1, 2, (i + 1) % 2)
                .build()
        })
        .collect();
    let params = QueryParams {
        epsilon: 0.1,
        delta: 1,
        variant: PruningVariant::OptSspBound,
    };

    println!(
        "{}",
        format_row(
            "|D|",
            &[
                "build (s)".into(),
                "load (s)".into(),
                "open (s)".into(),
                "open speedup".into(),
            ]
        )
    );
    let mut entries: Vec<String> = Vec::new();
    for &count in &[10_000usize, 100_000] {
        let graphs = bulk_skeletons(count, 0xB17);
        let t = Instant::now();
        let engine = QueryEngine::build(
            graphs.clone(),
            EngineConfig {
                shards: 8,
                ..lean_config
            },
        );
        let build_seconds = t.elapsed().as_secs_f64();
        let path = std::env::temp_dir().join(format!(
            "pgs-bench-shard-{count}-{}.pmi",
            std::process::id()
        ));
        let t = Instant::now();
        engine.pmi().save(&path).expect("saving the sharded index");
        let save_seconds = t.elapsed().as_secs_f64();
        let snapshot_bytes = std::fs::metadata(&path).expect("snapshot metadata").len() as usize;

        // Correctness before timing: the lazily-opened engine must answer
        // byte-identically to the engine that built the index.
        let opened = QueryEngine::open_index(graphs.clone(), &path, lean_config)
            .expect("opening the sharded snapshot");
        assert_eq!(
            opened.pmi().materialized_shards(),
            0,
            "open must not materialize any segment"
        );
        let identical = queries.iter().all(|q| {
            opened.query(q, &params).unwrap().answers == engine.query(q, &params).unwrap().answers
        });
        assert!(identical, "lazily-opened answers diverged from the build");

        // Full load (every segment decoded eagerly): best of 3.
        let mut load_seconds = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            std::hint::black_box(Pmi::load(&path).expect("loading the snapshot"));
            load_seconds = load_seconds.min(t.elapsed().as_secs_f64());
        }
        // Header-only open: best of 10 (it is microsecond-scale).
        let mut open_seconds = f64::INFINITY;
        for _ in 0..10 {
            let t = Instant::now();
            std::hint::black_box(Pmi::open(&path).expect("opening the snapshot head"));
            open_seconds = open_seconds.min(t.elapsed().as_secs_f64());
        }
        std::fs::remove_file(&path).ok();
        let speedup = load_seconds / open_seconds.max(1e-12);
        println!(
            "{}",
            format_row(
                &format!("|D| = {count}"),
                &[
                    format!("{build_seconds:.2}s"),
                    format!("{load_seconds:.4}s"),
                    format!("{open_seconds:.6}s"),
                    format!("{speedup:.0}x"),
                ]
            )
        );
        entries.push(format!(
            "    {{ \"graphs\": {count}, \"snapshot_bytes\": {snapshot_bytes}, \
             \"build_seconds\": {build_seconds:.6}, \"save_seconds\": {save_seconds:.6}, \
             \"load_seconds\": {load_seconds:.6}, \"open_seconds\": {open_seconds:.6}, \
             \"open_speedup_vs_load\": {speedup:.1}, \"answers_identical\": {identical} }}"
        ));
    }

    // End-to-end throughput, 1 vs 8 shards on the 10k corpus.  Answers are
    // byte-identical at any shard count, so only the fan-out shape changes.
    let graphs = bulk_skeletons(10_000, 0xB17);
    let one = QueryEngine::build(
        graphs.clone(),
        EngineConfig {
            shards: 1,
            ..lean_config
        },
    );
    let eight = QueryEngine::build(
        graphs,
        EngineConfig {
            shards: 8,
            ..lean_config
        },
    );
    // Each engine is measured warm over consecutive batches (a production
    // engine answers its workload resident, not interleaved with a second
    // 10k-graph engine evicting its cache); answers are still cross-checked
    // between the two.
    let reference = one.query_batch(&queries, &params).unwrap();
    // Warm alternating rounds: a production engine answers its workload
    // resident, so each engine is measured over consecutive batches with its
    // working set warm (two warm-up batches re-establish it after the other
    // engine ran).  The container's background load drifts by several percent
    // over a measurement loop, so a single warm loop per engine turns that
    // drift into a fake shard-count effect — instead the engines alternate
    // *rounds* of warm batches and keep their best across all rounds.  One
    // pass feeds both the throughput line and the per-phase breakdown, so
    // the two sections cannot disagree about the same workload.
    struct Best {
        wall: f64,
        phases: [f64; 3],
        identical: bool,
    }
    let mut best = [
        Best {
            wall: f64::INFINITY,
            phases: [f64::INFINITY; 3],
            identical: true,
        },
        Best {
            wall: f64::INFINITY,
            phases: [f64::INFINITY; 3],
            identical: true,
        },
    ];
    for _round in 0..3 {
        for (engine, best) in [&eight, &one].into_iter().zip(&mut best) {
            for _ in 0..2 {
                let _ = engine.query_batch(&queries, &params).unwrap();
            }
            for _ in 0..6 {
                let r = engine.query_batch(&queries, &params).unwrap();
                best.wall = best.wall.min(r.wall_seconds);
                best.phases[0] = best.phases[0].min(r.stats.structural_seconds);
                best.phases[1] = best.phases[1].min(r.stats.probabilistic_seconds);
                best.phases[2] = best.phases[2].min(r.stats.verification_seconds);
                best.identical &= r
                    .results
                    .iter()
                    .zip(&reference.results)
                    .all(|(x, y)| x.answers == y.answers);
            }
        }
    }
    let [Best {
        wall: eight_secs,
        phases: eight_phases,
        identical: eight_identical,
    }, Best {
        wall: one_secs,
        phases: one_phases,
        identical: one_identical,
    }] = best;
    let identical = one_identical && eight_identical;
    assert!(identical, "1-shard and 8-shard answers must be identical");
    let n = queries.len() as f64;
    println!(
        "{}",
        format_row(
            "queries/sec, 10k graphs",
            &[
                format!("1 shard {:.1}", n / one_secs.max(1e-12)),
                format!("8 shards {:.1}", n / eight_secs.max(1e-12)),
            ]
        )
    );
    // Per-phase seconds breakdown (best over the measured batches).
    for (label, [p1, p2, p3], wall) in [
        ("phase seconds, 1 shard", one_phases, one_secs),
        ("phase seconds, 8 shards", eight_phases, eight_secs),
    ] {
        println!(
            "{}",
            format_row(
                label,
                &[
                    format!("p1 {p1:.4}"),
                    format!("p2 {p2:.4}"),
                    format!("p3 {p3:.4}"),
                    format!("wall {wall:.4}"),
                ]
            )
        );
    }
    let json = format!(
        "{{\n  \"benchmark\": \"sharded_snapshot\",\n  \"series\": [\n{}\n  ],\n  \
         \"throughput_10k\": {{ \"queries\": {q}, \"answers_identical\": {identical},\n    \
         \"shards_1\": {{ \"wall_seconds\": {one_secs:.6}, \"queries_per_second\": {qps1:.3} }},\n    \
         \"shards_8\": {{ \"wall_seconds\": {eight_secs:.6}, \"queries_per_second\": {qps8:.3} }} }}\n}}\n",
        entries.join(",\n"),
        q = queries.len(),
        qps1 = n / one_secs.max(1e-12),
        qps8 = n / eight_secs.max(1e-12),
    );
    std::fs::write("BENCH_shard.json", json).expect("writing BENCH_shard.json");
    println!("wrote BENCH_shard.json\n");
}

fn parse_scale(args: &[String]) -> DatasetScale {
    let mut scale = DatasetScale::Tiny;
    for (i, a) in args.iter().enumerate() {
        if a == "--scale" {
            scale = match args.get(i + 1).map(|s| s.as_str()) {
                Some("small") => DatasetScale::Small,
                Some("medium") => DatasetScale::Medium,
                Some("paper") => DatasetScale::Paper,
                _ => DatasetScale::Tiny,
            };
        }
    }
    scale
}

/// Figure 9: verification time (Exact vs SMP) and SMP quality vs query size.
fn figure_9(scale: DatasetScale) {
    println!("## Figure 9 — verification: Exact vs SMP sampling, by query size");
    println!(
        "{}",
        format_row(
            "query size",
            &[
                "Exact (ms)".into(),
                "SMP (ms)".into(),
                "precision".into(),
                "recall".into()
            ]
        )
    );
    let query_sizes = [3usize, 4, 5, 6, 7];
    for &qs in &query_sizes {
        let setup = build_setup_with(scale, None, qs, 6, CorrelationModel::MaxRule);
        let epsilon = 0.5;
        let delta = (qs / 3).max(1);
        let mc_opts = VerifyOptions {
            exact_cutoff: 0, // force the sampling path
            ..bench_engine_config(1).verify
        };
        let mut exact_ms = 0.0;
        let mut smp_ms = 0.0;
        let mut tp = 0.0;
        let mut fp = 0.0;
        let mut fnn = 0.0;
        let mut rng = StdRng::seed_from_u64(9);
        let mut evaluated = 0usize;
        let skeletons: Vec<pgs_graph::model::Graph> = setup
            .engine
            .db()
            .iter()
            .map(|g| g.skeleton().clone())
            .collect();
        for wq in &setup.queries {
            // Verification operates on the candidate set surviving structural
            // pruning (the paper first runs the filters, then verifies).
            let candidates =
                pgs_query::structural::structural_candidates(&skeletons, &wq.graph, delta);
            for &gi in candidates.iter().take(8) {
                let pg = &setup.engine.db()[gi];
                let t0 = Instant::now();
                let exact = verify_ssp_exact(pg, &wq.graph, delta, 24).unwrap_or_else(|_| {
                    verify_ssp_sampled(pg, &wq.graph, delta, &VerifyOptions::default(), &mut rng)
                });
                exact_ms += t0.elapsed().as_secs_f64() * 1e3;
                let t1 = Instant::now();
                let sampled = verify_ssp_sampled(pg, &wq.graph, delta, &mc_opts, &mut rng);
                smp_ms += t1.elapsed().as_secs_f64() * 1e3;
                evaluated += 1;
                let truth = exact >= epsilon;
                let predicted = sampled >= epsilon;
                match (truth, predicted) {
                    (true, true) => tp += 1.0,
                    (false, true) => fp += 1.0,
                    (true, false) => fnn += 1.0,
                    (false, false) => {}
                }
            }
        }
        let n = evaluated.max(1) as f64;
        let precision = if tp + fp > 0.0 { tp / (tp + fp) } else { 1.0 };
        let recall = if tp + fnn > 0.0 { tp / (tp + fnn) } else { 1.0 };
        println!(
            "{}",
            format_row(
                &format!("q{qs}"),
                &[
                    format!("{:.2}", exact_ms / n),
                    format!("{:.2}", smp_ms / n),
                    format!("{precision:.2}"),
                    format!("{recall:.2}"),
                ]
            )
        );
    }
    println!();
}

/// Figure 10: candidate size / pruning time vs probability threshold.
fn figure_10(scale: DatasetScale) {
    println!("## Figure 10 — probabilistic pruning vs probability threshold ε (δ fixed)");
    println!(
        "{}",
        format_row(
            "ε",
            &[
                "Structure".into(),
                "SSPBound".into(),
                "OPT-SSPBound".into(),
                "t_Struct (ms)".into(),
                "t_SSP (ms)".into(),
                "t_OPT (ms)".into(),
            ]
        )
    );
    let setup = build_setup_with(scale, None, 5, 6, CorrelationModel::MaxRule);
    let delta = 2;
    for epsilon in [0.3, 0.4, 0.5, 0.6, 0.7] {
        let mut sizes = [0.0f64; 3];
        let mut times = [0.0f64; 3];
        for wq in &setup.queries {
            for (vi, variant) in [
                PruningVariant::Structure,
                PruningVariant::SspBound,
                PruningVariant::OptSspBound,
            ]
            .into_iter()
            .enumerate()
            {
                let result = setup
                    .engine
                    .query(
                        &wq.graph,
                        &QueryParams {
                            epsilon,
                            delta,
                            variant,
                        },
                    )
                    .unwrap();
                sizes[vi] += result.stats.probabilistic_candidates as f64;
                times[vi] +=
                    (result.stats.structural_seconds + result.stats.probabilistic_seconds) * 1e3;
            }
        }
        let n = setup.queries.len().max(1) as f64;
        println!(
            "{}",
            format_row(
                &format!("{epsilon:.1}"),
                &[
                    format!("{:.1}", sizes[0] / n),
                    format!("{:.1}", sizes[1] / n),
                    format!("{:.1}", sizes[2] / n),
                    format!("{:.2}", times[0] / n),
                    format!("{:.2}", times[1] / n),
                    format!("{:.2}", times[2] / n),
                ]
            )
        );
    }
    println!();
}

/// Figure 11: candidate size / pruning time vs subgraph distance threshold,
/// comparing greedy SIP bounds (SIPBound) against clique-tightened bounds
/// (OPT-SIPBound).
fn figure_11(scale: DatasetScale) {
    println!("## Figure 11 — pruning vs subgraph distance threshold δ (SIP bound variants)");
    println!(
        "{}",
        format_row(
            "δ",
            &[
                "Structure".into(),
                "SIPBound".into(),
                "OPT-SIPBound".into(),
                "t_SIP (ms)".into(),
                "t_OPT (ms)".into(),
            ]
        )
    );
    let config = paper_scale(scale);
    let dataset = generate_ppi_dataset(&config);
    let queries = generate_query_workload(
        &dataset,
        &QueryWorkloadConfig {
            query_size: 5,
            count: 6,
            seed: 0xABCD,
        },
    );
    // Two engines: greedy SIP bounds vs clique-tightened SIP bounds.
    let mut greedy_cfg = bench_engine_config(0xFEED);
    greedy_cfg.pmi.bounds = BoundsConfig::greedy();
    let greedy_engine = QueryEngine::build(dataset.graphs.clone(), greedy_cfg);
    let opt_engine = QueryEngine::build(dataset.graphs.clone(), bench_engine_config(0xFEED));
    let epsilon = 0.5;
    for delta in [1usize, 2, 3] {
        let mut structure = 0.0;
        let mut sizes = [0.0f64; 2];
        let mut times = [0.0f64; 2];
        for wq in &queries {
            let s = opt_engine
                .query(
                    &wq.graph,
                    &QueryParams {
                        epsilon,
                        delta,
                        variant: PruningVariant::Structure,
                    },
                )
                .unwrap();
            structure += s.stats.probabilistic_candidates as f64;
            for (ei, engine) in [&greedy_engine, &opt_engine].into_iter().enumerate() {
                let result = engine
                    .query(
                        &wq.graph,
                        &QueryParams {
                            epsilon,
                            delta,
                            variant: PruningVariant::OptSspBound,
                        },
                    )
                    .unwrap();
                sizes[ei] += result.stats.probabilistic_candidates as f64;
                times[ei] +=
                    (result.stats.structural_seconds + result.stats.probabilistic_seconds) * 1e3;
            }
        }
        let n = queries.len().max(1) as f64;
        println!(
            "{}",
            format_row(
                &format!("{delta}"),
                &[
                    format!("{:.1}", structure / n),
                    format!("{:.1}", sizes[0] / n),
                    format!("{:.1}", sizes[1] / n),
                    format!("{:.2}", times[0] / n),
                    format!("{:.2}", times[1] / n),
                ]
            )
        );
    }
    println!();
}

/// Figure 12: feature-generation parameters (maxL, α, β, γ).
fn figure_12(scale: DatasetScale) {
    println!("## Figure 12 — impact of the feature-generation parameters");
    let config = paper_scale(scale);
    let dataset = generate_ppi_dataset(&config);
    let queries = generate_query_workload(
        &dataset,
        &QueryWorkloadConfig {
            query_size: 5,
            count: 4,
            seed: 0xABCD,
        },
    );
    let candidate_size = |pmi_params: PmiBuildParams| -> f64 {
        let engine = QueryEngine::build(
            dataset.graphs.clone(),
            pgs_query::pipeline::EngineConfig {
                pmi: pmi_params,
                ..bench_engine_config(0xFEED)
            },
        );
        let mut size = 0.0;
        for wq in &queries {
            let r = engine
                .query(
                    &wq.graph,
                    &QueryParams {
                        epsilon: 0.5,
                        delta: 2,
                        variant: PruningVariant::OptSspBound,
                    },
                )
                .unwrap();
            size += r.stats.probabilistic_candidates as f64;
        }
        size / queries.len().max(1) as f64
    };

    println!("### (a) candidate size vs maxL");
    println!("{}", format_row("maxL", &["OPT-SSPBound".into()]));
    for max_l in [2usize, 3, 4, 5] {
        let mut params = PmiBuildParams {
            features: bench_feature_params(),
            bounds: BoundsConfig::default(),
            threads: 0,
            seed: 7,
        };
        params.features.max_l = max_l;
        let size = candidate_size(params);
        println!(
            "{}",
            format_row(&format!("{max_l}"), &[format!("{size:.1}")])
        );
    }

    println!("### (b) candidate size vs alpha");
    println!("{}", format_row("alpha", &["OPT-SIPBound".into()]));
    for alpha in [0.05, 0.1, 0.15, 0.2, 0.25] {
        let mut params = PmiBuildParams {
            features: bench_feature_params(),
            bounds: BoundsConfig::default(),
            threads: 0,
            seed: 7,
        };
        params.features.alpha = alpha;
        let size = candidate_size(params);
        println!(
            "{}",
            format_row(&format!("{alpha:.2}"), &[format!("{size:.1}")])
        );
    }

    println!("### (c) index building time vs beta");
    println!("{}", format_row("beta", &["build time (s)".into()]));
    for beta in [0.05, 0.1, 0.15, 0.2, 0.25] {
        let mut features = bench_feature_params();
        features.beta = beta;
        let t0 = Instant::now();
        let _pmi = Pmi::build(
            &dataset.graphs,
            &PmiBuildParams {
                features,
                bounds: BoundsConfig::default(),
                threads: 0,
                seed: 7,
            },
        );
        println!(
            "{}",
            format_row(
                &format!("{beta:.2}"),
                &[format!("{:.3}", t0.elapsed().as_secs_f64())]
            )
        );
    }

    println!("### (d) index size vs gamma");
    println!(
        "{}",
        format_row("gamma", &["index size (KiB)".into(), "features".into()])
    );
    for gamma in [0.05, 0.1, 0.15, 0.2, 0.25] {
        let mut features = bench_feature_params();
        features.gamma = gamma;
        // Lift the feature cap so the discriminativity threshold (not the cap)
        // determines how many features are indexed.
        features.max_features = 256;
        let pmi = Pmi::build(
            &dataset.graphs,
            &PmiBuildParams {
                features,
                bounds: BoundsConfig::default(),
                threads: 0,
                seed: 7,
            },
        );
        let stats = pmi.stats();
        println!(
            "{}",
            format_row(
                &format!("{gamma:.2}"),
                &[
                    format!("{:.2}", stats.size_bytes as f64 / 1024.0),
                    format!("{}", stats.feature_count),
                ]
            )
        );
    }
    println!();
}

/// Figure 13: total query processing time vs database size (PMI vs Exact).
fn figure_13(scale: DatasetScale) {
    println!("## Figure 13 — total query time vs database size");
    println!(
        "{}",
        format_row(
            "|D|",
            &["PMI (ms)".into(), "Exact (ms)".into(), "speedup".into()]
        )
    );
    let base = paper_scale(scale).graph_count;
    for factor in [1usize, 2, 4, 8] {
        let n = base * factor;
        let setup = build_setup_with(scale, Some(n), 5, 4, CorrelationModel::MaxRule);
        let params = QueryParams {
            epsilon: 0.5,
            delta: 2,
            variant: PruningVariant::OptSspBound,
        };
        let mut pmi_ms = 0.0;
        let mut exact_ms = 0.0;
        for wq in &setup.queries {
            let t0 = Instant::now();
            let _ = setup.engine.query(&wq.graph, &params).unwrap();
            pmi_ms += t0.elapsed().as_secs_f64() * 1e3;
            let t1 = Instant::now();
            let _ = setup.engine.exact_scan(&wq.graph, &params).unwrap();
            exact_ms += t1.elapsed().as_secs_f64() * 1e3;
        }
        let q = setup.queries.len().max(1) as f64;
        println!(
            "{}",
            format_row(
                &format!("{n}"),
                &[
                    format!("{:.1}", pmi_ms / q),
                    format!("{:.1}", exact_ms / q),
                    format!("{:.1}x", exact_ms / pmi_ms.max(1e-9)),
                ]
            )
        );
    }
    println!();
}

/// Figure 14: query quality (precision/recall) of the correlated vs the
/// independent model, by probability threshold.
fn figure_14(scale: DatasetScale) {
    println!("## Figure 14 — query quality: correlated (COR) vs independent (IND) model");
    println!(
        "{}",
        format_row(
            "ε",
            &[
                "COR-P".into(),
                "COR-R".into(),
                "IND-P".into(),
                "IND-R".into()
            ]
        )
    );
    // Quality experiment: organisms must be separable, so the dataset uses
    // higher extraction confidences (the organism signal, not the absolute
    // probability level, is what COR vs IND disagree about) and a small
    // perturbation; queries are small motifs with a tolerant δ, mirroring the
    // ratio of query size to distance threshold the paper uses.
    let config = PpiDatasetConfig {
        correlation: CorrelationModel::StrongPositive,
        perturbation: 0.2,
        mean_edge_probability: 0.78,
        ..paper_scale(scale)
    };
    let dataset = generate_ppi_dataset(&config);
    let queries = generate_query_workload(
        &dataset,
        &QueryWorkloadConfig {
            query_size: 4,
            count: 8,
            seed: 0x14,
        },
    );
    let cor_engine = QueryEngine::build(dataset.graphs.clone(), bench_engine_config(14));
    let ind_graphs: Vec<_> = dataset.graphs.iter().map(to_independent_model).collect();
    let ind_engine = QueryEngine::build(ind_graphs, bench_engine_config(14));
    for epsilon in [0.3, 0.4, 0.5, 0.6, 0.7] {
        let mut row = Vec::new();
        for engine in [&cor_engine, &ind_engine] {
            let mut precision_sum = 0.0;
            let mut recall_sum = 0.0;
            for wq in &queries {
                let truth: Vec<usize> = dataset
                    .organism_of
                    .iter()
                    .enumerate()
                    .filter(|(_, &o)| o == wq.source_organism)
                    .map(|(i, _)| i)
                    .collect();
                let result = engine
                    .query(
                        &wq.graph,
                        &QueryParams {
                            epsilon,
                            delta: 2,
                            variant: PruningVariant::OptSspBound,
                        },
                    )
                    .unwrap();
                let hits = result.answers.iter().filter(|a| truth.contains(a)).count() as f64;
                precision_sum += if result.answers.is_empty() {
                    1.0
                } else {
                    hits / result.answers.len() as f64
                };
                recall_sum += hits / truth.len().max(1) as f64;
            }
            let n = queries.len().max(1) as f64;
            row.push(format!("{:.2}", precision_sum / n));
            row.push(format!("{:.2}", recall_sum / n));
        }
        println!("{}", format_row(&format!("{epsilon:.1}"), &row));
    }
    println!();
}
