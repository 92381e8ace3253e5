//! Tiny-scale run of every workload in both modes: every catalogued metric
//! is emitted with its unit and the correctness gate passes.

use pgs_perfbench::report::{END_TO_END, PER_LAYER};
use pgs_perfbench::workload::{Scale, NAMES};
use pgs_perfbench::{parse_args, run, Options};

fn options(workload: &str, trace: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.2,
        trace,
        scale: Scale::Tiny,
    }
}

#[test]
fn every_workload_emits_every_metric_and_passes_the_gate() {
    for name in NAMES {
        for trace in [false, true] {
            let report = run(&options(name, trace));
            assert!(report.correct, "{name} trace={trace}: {:?}", report.info);
            assert!(report.attempted > 0 && report.failed == 0);
            let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let emitted: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.0, m.2)).collect();
            assert_eq!(emitted, catalogue, "{name} trace={trace}");
            let json = report.to_json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(!json.contains('\n'));
        }
    }
}

#[test]
fn benchmark_json_lists_the_catalogue_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for name in NAMES {
        assert!(text.contains(&format!("{{\"name\": \"{name}\", \"why\": ")));
    }
    let listed = text.matches("{\"name\": ").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + NAMES.len());
}

#[test]
fn bad_arguments_are_rejected() {
    let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
    let ok = parse_args(&args("--workload bulk-50k --seed 3 --seconds 6 --trace 1")).unwrap();
    assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 6.0, true));
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload ppi-dense --seed x --seconds 1 --trace 0",
        "--workload ppi-dense --seed 1 --seconds 0 --trace 0",
        "--workload ppi-dense --seed 1 --seconds 1 --trace 2",
        "--workload ppi-dense --seed",
        "--bogus 1",
        "--workload ppi-dense --seed 1 --seconds 1 --trace 0 --scale tiny",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "{bad}");
    }
}
