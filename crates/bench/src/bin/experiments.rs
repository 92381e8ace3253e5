//! Experiment harness: prints every table/figure series of the paper's
//! evaluation (Section 6, Figures 9–14) on the synthetic dataset.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pgs-bench --bin experiments -- [fig9|…|fig14|all]... [--scale tiny|small|medium|paper]
//! cargo run --release -p pgs-bench --bin experiments -- index-save|index-load <path>
//! ```
//!
//! With no command every figure runs; an unknown command or scale prints the
//! usage and exits with status 2.  `index-save` and `index-load` print the
//! answers of a fixed workload after building and saving, or loading, an
//! index snapshot; the two outputs must be byte-identical across processes.
//!
//! The series are the deterministic counters and quality ratios that
//! `pgs_bench::figure_*` return and `tests/paper_figures.rs` asserts.  End-to-end
//! latency, throughput, build time and per-layer costs are measured by the
//! benchmark in `perfbench/`, not here.  Absolute numbers differ from the
//! paper (synthetic data, laptop-scale sizes); the *shapes* — which method
//! wins, how the curves move with each parameter — are the reproduction
//! target.

use pgs_bench::{bench_engine_config, format_row, series_means, CandidateSweep, VARIANTS};
use pgs_datagen::ppi::{generate_ppi_dataset, PpiDatasetConfig};
use pgs_datagen::queries::{generate_query_workload, QueryWorkloadConfig};
use pgs_datagen::scenarios::{paper_scale, DatasetScale};
use pgs_query::pipeline::{QueryEngine, QueryParams, QueryResult};
use std::fmt::Display;

/// A figure command and the function that prints it.
type Figure = (&'static str, fn(DatasetScale));

const FIGURES: [Figure; 6] = [
    ("fig9", figure_9),
    ("fig10", figure_10),
    ("fig11", figure_11),
    ("fig12", figure_12),
    ("fig13", figure_13),
    ("fig14", figure_14),
];

const USAGE: &str = "usage: experiments [fig9|fig10|fig11|fig12|fig13|fig14|all]... \
                     [--scale tiny|small|medium|paper]\n       \
                     experiments index-save|index-load <path>";

/// A parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    scale: DatasetScale,
    /// The requested figures; each prints once, in figure order.
    figures: Vec<&'static str>,
    index_save: Option<String>,
    index_load: Option<String>,
}

/// Parses the command line; every argument must be a figure, `all`,
/// `--scale <scale>` or `index-save|index-load <path>`.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        scale: DatasetScale::Tiny,
        figures: Vec::new(),
        index_save: None,
        index_load: None,
    };
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        match arg {
            "--scale" => {
                parsed.scale = match args.next() {
                    Some("tiny") => DatasetScale::Tiny,
                    Some("small") => DatasetScale::Small,
                    Some("medium") => DatasetScale::Medium,
                    Some("paper") => DatasetScale::Paper,
                    other => return Err(format!("--scale needs a scale, got {other:?}")),
                }
            }
            "index-save" | "index-load" => {
                let path = args.next().ok_or(format!("{arg} needs a path"))?;
                let slot = if arg == "index-save" {
                    &mut parsed.index_save
                } else {
                    &mut parsed.index_load
                };
                *slot = Some(path.to_string());
            }
            "all" => parsed.figures.extend(FIGURES.map(|(name, _)| name)),
            _ => match FIGURES.iter().find(|(name, _)| *name == arg) {
                Some(&(name, _)) => parsed.figures.push(name),
                None => return Err(format!("unknown command {arg:?}")),
            },
        }
    }
    if parsed.figures.is_empty() && parsed.index_save.is_none() && parsed.index_load.is_none() {
        parsed.figures.extend(FIGURES.map(|(name, _)| name));
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|message| {
        eprintln!("experiments: {message}\n{USAGE}");
        std::process::exit(2)
    });
    let scale = args.scale;
    println!("# Probabilistic subgraph similarity search — experiment harness");
    println!("# scale = {scale:?}\n");
    for (name, print) in FIGURES {
        if args.figures.contains(&name) {
            print(scale);
            println!();
        }
    }
    if let Some(path) = args.index_save {
        index_roundtrip(&path, true);
    }
    if let Some(path) = args.index_load {
        index_roundtrip(&path, false);
    }
}

/// `index-save <path>` (`save`) builds a fixed index and saves it to `path`;
/// `index-load <path>` loads that snapshot into a fresh engine (no rebuild).
/// Both print the answers of a fixed workload, which must be byte-identical
/// across the two processes — CI diffs them.
fn index_roundtrip(path: &str, save: bool) {
    let dataset = generate_ppi_dataset(&PpiDatasetConfig {
        graph_count: 32,
        vertices_per_graph: 10,
        edges_per_graph: 14,
        vertex_label_count: 6,
        organism_count: 2,
        seed: 0x51A7,
        ..PpiDatasetConfig::default()
    });
    let workload = QueryWorkloadConfig {
        query_size: 5,
        count: 6,
        seed: 0x1D,
    };
    let queries = generate_query_workload(&dataset, &workload);
    let config = bench_engine_config(0xFEED);
    let engine = if save {
        let engine = QueryEngine::build(dataset.graphs, config);
        engine.pmi().save(path).expect("saving the index snapshot");
        engine
    } else {
        QueryEngine::with_index(dataset.graphs, path, config)
            .expect("loading the index snapshot against the same database")
    };
    for (qi, wq) in queries.iter().enumerate() {
        for variant in VARIANTS {
            // A low ε and tolerant δ so the printed answer sets are non-empty
            // on this dataset — diffing empty lists would prove nothing.
            let params = QueryParams {
                epsilon: 0.1,
                delta: 2,
                variant,
            };
            let result = engine.query(&wq.graph, &params).unwrap();
            println!("answers q{qi} {variant:?}: {:?}", result.answers);
        }
    }
}

/// Prints a table: the header row, then one row per `(label, cells)`.
fn print_table<const N: usize>(
    x: &str,
    header: [&str; N],
    rows: impl IntoIterator<Item = (String, Vec<String>)>,
) {
    println!("{}", format_row(x, &header.map(String::from)));
    for (label, cells) in rows {
        println!("{}", format_row(&label, &cells));
    }
}

/// Prints a candidate-size sweep: one row per swept value (shown with
/// `digits` decimals), the mean candidate size of each series.
fn print_sweep<X: Display, const N: usize>(
    x: &str,
    series: [&str; N],
    sweep: &CandidateSweep<X>,
    digits: usize,
) {
    let rows = sweep.iter().map(|(value, per_query)| {
        let means = series_means(per_query)
            .iter()
            .map(|m| format!("{m:.1}"))
            .collect();
        (format!("{value:.digits$}"), means)
    });
    print_table(x, series, rows);
}

/// Figure 9: SMP sampling quality against exact verification, by query size.
fn figure_9(scale: DatasetScale) {
    println!("## Figure 9 — verification: SMP sampling graded against exact SSP, by query size");
    let rows = pgs_bench::figure_9(scale).into_iter().map(|row| {
        let (p, r) = (row.precision, row.recall);
        let cells = vec![
            format!("{p:.2}"),
            format!("{r:.2}"),
            row.graded.to_string(),
            row.skipped.to_string(),
        ];
        (format!("q{}", row.query_size), cells)
    });
    print_table(
        "query size",
        ["precision", "recall", "graded", "skipped"],
        rows,
    );
}

/// Figure 10: candidate size vs probability threshold.
fn figure_10(scale: DatasetScale) {
    println!("## Figure 10 — probabilistic pruning vs probability threshold ε (δ fixed)");
    let series = ["Structure", "SSPBound", "OPT-SSPBound"];
    print_sweep("ε", series, &pgs_bench::figure_10(scale), 1);
}

/// Figure 11: candidate size vs subgraph distance threshold, greedy SIP
/// bounds (SIPBound) against clique-tightened bounds (OPT-SIPBound).
fn figure_11(scale: DatasetScale) {
    println!("## Figure 11 — pruning vs subgraph distance threshold δ (SIP bound variants)");
    let series = ["Structure", "SIPBound", "OPT-SIPBound"];
    print_sweep("δ", series, &pgs_bench::figure_11(scale), 0);
}

/// Figure 12: feature-generation parameters (maxL, α, β, γ).
fn figure_12(scale: DatasetScale) {
    println!("## Figure 12 — impact of the feature-generation parameters");
    let sweep = pgs_bench::figure_12(scale);
    println!("### (a) candidate size vs maxL");
    print_sweep("maxL", ["OPT-SSPBound"], &sweep.max_l, 0);
    println!("### (b) candidate size vs alpha");
    print_sweep("alpha", ["OPT-SSPBound"], &sweep.alpha, 2);
    for (title, x, points) in [
        ("(c) index built vs beta", "beta", &sweep.beta),
        ("(d) index size vs gamma", "gamma", &sweep.gamma),
    ] {
        println!("### {title}");
        let rows = points.iter().map(|(value, stats)| {
            let kib = stats.size_bytes as f64 / 1024.0;
            (
                format!("{value:.2}"),
                vec![format!("{kib:.2}"), stats.feature_count.to_string()],
            )
        });
        print_table(x, ["index size (KiB)", "features"], rows);
    }
}

/// Figure 13: the verification work PMI saves over the exact scan as |D|
/// grows (per-query means).
fn figure_13(scale: DatasetScale) {
    println!("## Figure 13 — verification work vs database size (PMI vs Exact scan)");
    let base = paper_scale(scale).graph_count;
    let sweep = pgs_bench::figure_13(scale, &[base, base * 2, base * 4, base * 8]);
    let rows = sweep.iter().map(|point| {
        let n = point.per_query.len().max(1) as f64;
        let mean = |count: fn(&(QueryResult, QueryResult)) -> usize| {
            let total: usize = point.per_query.iter().map(count).sum();
            format!("{:.1}", total as f64 / n)
        };
        let cells = vec![
            mean(|(pmi, _)| pmi.stats.verified),
            mean(|(_, exact)| exact.stats.verified),
            mean(|(pmi, _)| pmi.stats.samples_drawn),
            mean(|(_, exact)| exact.stats.samples_drawn),
        ];
        (point.graph_count.to_string(), cells)
    });
    let header = [
        "PMI verified",
        "Exact verif.",
        "PMI samples",
        "Exact samples",
    ];
    print_table("|D|", header, rows);
}

/// Figure 14: query quality (precision/recall) of the correlated vs the
/// independent model, by probability threshold.
fn figure_14(scale: DatasetScale) {
    println!("## Figure 14 — query quality: correlated (COR) vs independent (IND) model");
    let rows = pgs_bench::figure_14(scale).into_iter().map(|row| {
        let cells = [row.cor.0, row.cor.1, row.ind.0, row.ind.1];
        (
            format!("{:.1}", row.epsilon),
            cells.iter().map(|v| format!("{v:.2}")).collect(),
        )
    });
    print_table("ε", ["COR-P", "COR-R", "IND-P", "IND-R"], rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn figures_scales_and_snapshot_paths_parse() {
        let every = FIGURES.map(|(name, _)| name);
        let args = parse(&[]).unwrap();
        assert_eq!(
            (args.scale, args.figures, args.index_save),
            (DatasetScale::Tiny, every.to_vec(), None)
        );
        assert_eq!(parse(&["all"]).unwrap().figures, every);
        let args = parse(&["fig13", "--scale", "small", "fig10"]).unwrap();
        assert_eq!(
            (args.scale, args.figures),
            (DatasetScale::Small, vec!["fig13", "fig10"])
        );
        let args = parse(&["index-load", "snapshot.bin"]).unwrap();
        assert_eq!(
            (args.figures.len(), args.index_load.as_deref()),
            (0, Some("snapshot.bin"))
        );
    }

    #[test]
    fn unknown_commands_and_scales_are_rejected() {
        for bad in [
            &["fig15"][..],
            &["--scale"],
            &["--scale", "huge"],
            &["fig9", "--sclae", "small"],
            &["index-save"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
