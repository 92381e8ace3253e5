//! End-to-end and per-layer benchmark of the T-PS engine.
//!
//! One command runs one workload from one seed:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ppi-threshold --seed 1 --seconds 7 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the engine's public
//! API, with every timing scaled to a reference host speed
//! ([`calibrate`]); `--trace 1` replays the queries layer by layer and
//! reports the per-layer metrics.  Either way the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`; the lines before it (prefixed `#`) give the resolved
//! configuration, the seed, the sample counts and the host speed.  See
//! `perfbench/README.md` for the workloads.

pub mod calibrate;
pub mod endtoend;
pub mod oracle;
pub mod report;
pub mod trace;
pub mod workload;

use report::{Report, END_TO_END, PER_LAYER};
use std::time::Instant;
use workload::{engine_config, spec, Scale};

/// Environment variables the engine reads for its defaults.  The benchmark
/// pins its configuration explicitly and clears them, so a CI matrix cannot
/// change the program being measured.
const ENGINE_ENV: [&str; 3] = ["PGS_QUERY_THREADS", "PGS_SHARDS", "PGS_ADAPTIVE"];

/// Command-line options of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds of measured calls the run is sized for, at the reference
    /// host speed.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Input size: [`Scale::Full`] from the command line; the smoke test
    /// sets [`Scale::Tiny`].
    pub scale: Scale,
}

/// Usage line printed on bad arguments.
pub const USAGE: &str = "usage: pgs-perfbench --workload <ppi-threshold|ppi-dense|bulk-50k> \
                         --seed <n> --seconds <s> --trace <0|1>";

/// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if spec(&opts.workload, opts.scale).is_none() {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    Ok(opts)
}

/// Runs one workload and returns its report.  Call [`clear_engine_env`]
/// first, before any thread exists.
pub fn run(opts: &Options) -> Report {
    let spec = spec(&opts.workload, opts.scale).expect("parse_args validated the workload");
    let config = engine_config();
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    report.info.push(format!(
        "workload={} seed={} seconds={} trace={} scale={:?}",
        spec.name, opts.seed, opts.seconds, opts.trace as u8, opts.scale
    ));
    report.info.push(format!(
        "config: threads={} (resolved {}) shards={} adaptive={} nproc={}",
        config.threads,
        pgs_graph::parallel::resolve_threads(config.threads),
        config.shards,
        config.verify.adaptive,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    ));
    let t = Instant::now();
    if opts.trace {
        let values = trace::run(&spec, opts.seed, opts.seconds, &mut report);
        report.set_metrics(&PER_LAYER, &values);
    } else {
        let values = endtoend::run(&spec, opts.seed, opts.seconds, &mut report);
        report.set_metrics(&END_TO_END, &values);
    }
    report
        .info
        .push(format!("run wall time {:.2} s", t.elapsed().as_secs_f64()));
    report
}

/// Removes `PGS_QUERY_THREADS`, `PGS_SHARDS` and `PGS_ADAPTIVE` from the
/// process environment.  Must run before the engine's worker pool starts.
pub fn clear_engine_env() {
    for var in ENGINE_ENV {
        std::env::remove_var(var);
    }
}

/// Operation counts of a run.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    /// Records one operation and whether it succeeded.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }

    /// Operations failed so far.
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Marks the last operation failed when a later check rejects it.
    pub fn flag(&mut self, ok: bool) {
        self.failed += usize::from(!ok);
    }

    /// Copies the counts into `report`; any failure makes it incorrect.
    pub fn into_report(self, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.failed;
        report.correct &= self.failed == 0 && self.attempted > 0;
    }
}

/// The time share of the traced replay.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

/// Operations a budget admits at least, however short it is.
const MIN_OPS: usize = 1;
/// Operations a budget admits at most, however long its share.
const MAX_OPS: usize = 50_000;

impl Budget {
    /// A budget of `seconds`, starting now.
    pub fn new(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether another operation fits, `done` having run.
    pub fn more(&self, done: usize) -> bool {
        let used = self.start.elapsed().as_secs_f64();
        done < MIN_OPS || (used < self.seconds && done < MAX_OPS)
    }
}
