//! Experiment harness: regenerates every table/figure series of the paper's
//! evaluation (Section 6, Figures 9–14) on the synthetic dataset.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pgs-bench --bin experiments -- [fig9|…|fig14|all] [--scale tiny|small|medium|paper]
//! cargo run --release -p pgs-bench --bin experiments -- index-save|index-load <path>
//! ```
//!
//! With no command every figure runs.  `index-save` and `index-load` print
//! the answers of a fixed workload after building and saving, or loading, an
//! index snapshot; the two outputs must be byte-identical across processes.
//!
//! End-to-end latency, throughput and per-layer costs are measured by the
//! benchmark in `perfbench/`, not here.  Absolute numbers differ from the
//! paper (different hardware, synthetic data, laptop-scale sizes); the
//! *shapes* — which method wins, how the curves move with each parameter —
//! are the reproduction target.

use pgs_bench::{bench_engine_config, bench_feature_params, build_setup_with, format_row};
use pgs_datagen::ppi::{generate_ppi_dataset, CorrelationModel, PpiDatasetConfig};
use pgs_datagen::queries::{generate_query_workload, QueryWorkloadConfig};
use pgs_datagen::scenarios::{paper_scale, DatasetScale};
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
    let arg_after = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let index_save_path = arg_after("index-save");
    let index_load_path = arg_after("index-load");
    let run_all = (figures.is_empty() && index_save_path.is_none() && index_load_path.is_none())
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
    if let Some(path) = index_save_path {
        index_save(&path);
    }
    if let Some(path) = index_load_path {
        index_load(&path);
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
    (dataset.graphs, queries, bench_engine_config(0xFEED))
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
