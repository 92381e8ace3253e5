//! The untraced run: every end-to-end metric, measured through the engine's
//! public API from one client, with the correctness gate between timed calls.
//!
//! The measured window is split into [`ROUNDS`] rounds, and every round runs
//! each operation class, each a fixed number of times: threshold queries
//! (closed loop), the same queries again through `query_batch`, top-k
//! queries (closed loop) and write cycles.  The timed
//! engine builds sit between rounds.  Interleaving this way spreads each
//! class over the whole run, so a slow stretch of the machine weighs on
//! every metric alike instead of on whichever class it hits.
//!
//! The host speed is calibrated before each build and each class of each
//! round and at most [`crate::calibrate::INTERVAL_S`] apart within a class,
//! and every timing is reported at the reference speed (see
//! [`crate::calibrate`]).

use crate::calibrate::{HostSpeed, Timed, REFERENCE_PASS_MS};
use crate::oracle::{check_threshold, check_topk, ThresholdCheck, TopkCheck};
use crate::report::{median, peak_rss_mb, percentile, Report};
use crate::workload::{
    database, engine_config, fixed_queries, fresh_graphs, stream_seed, Spec, DATABASE_SEED,
    EPSILON, THRESHOLD_SET, TOPK_K, TOPK_SET,
};
use crate::Tally;
use pgs_graph::model::Graph;
use pgs_index::pmi::graph_salt;
use pgs_prob::model::ProbabilisticGraph;
use pgs_query::pipeline::{QueryEngine, RankedAnswer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Rounds the measured window is split into.
pub const ROUNDS: usize = 8;
/// Threshold queries checked against the oracle: the first of the run, all
/// in the first round, before any write.
const GATE_THRESHOLD: usize = 8;
/// Top-k queries checked against the oracle, likewise.
const GATE_TOPK: usize = 3;

/// Runs workload `spec` untraced, sized for about `seconds` of measured calls
/// at the reference speed, and returns every end-to-end metric.
pub fn run(spec: &Spec, seed: u64, seconds: f64, report: &mut Report) -> Vec<(&'static str, f64)> {
    let config = engine_config();
    let db = database(&spec.db, DATABASE_SEED);
    let per_round = (seconds * spec.threshold_per_s / ROUNDS as f64).ceil() as usize;
    let queries = fixed_queries(
        &db,
        spec.threshold,
        THRESHOLD_SET,
        ROUNDS * per_round,
        GATE_THRESHOLD,
        stream_seed(seed, "threshold"),
    );
    let topk_queries = fixed_queries(
        &db,
        spec.topk,
        TOPK_SET,
        ROUNDS * spec.topk_per_round,
        GATE_TOPK,
        stream_seed(seed, "topk"),
    );
    let fresh = fresh_graphs(
        &spec.db,
        stream_seed(seed, "fresh"),
        ROUNDS * spec.writes_per_round,
    );

    // Set-up: the engine build, timed.  It is repeated `spec.setups` times,
    // spaced out over the rounds, so the operations between builds sample
    // the machine over the whole run rather than one stretch of it.
    let mut speed = HostSpeed::default();
    let mut setup = Vec::new();
    let build = |setup: &mut Vec<Timed>, speed: &mut HostSpeed| {
        let input = db.clone();
        speed.calibrate();
        let t = Instant::now();
        let engine = QueryEngine::build(input, config);
        setup.push(speed.stamp(t.elapsed().as_secs_f64()));
        engine
    };
    let engine = build(&mut setup, &mut speed);
    let index_bytes = engine.pmi().to_bytes().len() as f64;

    let mut run = Run {
        spec,
        engine,
        queries: queries.into_iter(),
        topk_queries: topk_queries.into_iter(),
        fresh: fresh.into_iter(),
        rng: StdRng::seed_from_u64(stream_seed(seed, "writes")),
        tally: Tally::default(),
        gate: Gate::default(),
        samples: Samples::default(),
        speed,
    };
    let rebuild_before: Vec<usize> = (1..spec.setups).map(|i| i * ROUNDS / spec.setups).collect();
    for round in 0..ROUNDS {
        if rebuild_before.contains(&round) {
            // Drop the old engine before timing the next build.
            run.engine = QueryEngine::build(Vec::new(), config);
            run.engine = build(&mut setup, &mut run.speed);
        }
        let issued = run.threshold_queries(per_round);
        run.batch(&issued);
        run.topk(spec.topk_per_round);
        run.writes(spec.writes_per_round);
    }

    let Run {
        tally,
        gate,
        samples: s,
        speed,
        ..
    } = run;
    report.info.push(format!(
        "samples: setup={} query={} batch={} topk={} insert={} remove={} \
         gated_threshold={} gated_topk={} gate_s={:.2}",
        setup.len(),
        s.query.len(),
        s.batched,
        s.topk.len(),
        s.insert.len(),
        s.remove.len(),
        gate.threshold_queries,
        gate.topk_queries,
        gate.seconds,
    ));
    let (calibrations, pass, fastest, slowest) = speed.summary_ms();
    report.info.push(format!(
        "host speed: {calibrations} calibrations, kernel pass median {pass:.4} ms \
         (min {fastest:.4}, max {slowest:.4}); timings are scaled to the reference pass \
         of {REFERENCE_PASS_MS} ms"
    ));
    let setup_s: Vec<f64> = setup.iter().map(|&t| speed.scaled(t)).collect();
    let query_ms = speed.scaled_ms(&s.query);
    let topk_ms = speed.scaled_ms(&s.topk);
    let insert_ms = speed.scaled_ms(&s.insert);
    let remove_ms = speed.scaled_ms(&s.remove);
    let batch_s: f64 = s.batch.iter().map(|&t| speed.scaled(t)).sum();
    tally.into_report(report);
    let ratio = |num: usize, den: usize| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    let t = &gate.threshold_sum;
    vec![
        ("setup_s", median(&setup_s)),
        ("query_p50_ms", median(&query_ms)),
        ("query_p95_ms", percentile(&query_ms, 95.0)),
        ("query_qps", s.batched as f64 / batch_s),
        ("topk_p50_ms", median(&topk_ms)),
        ("topk_p90_ms", percentile(&topk_ms, 90.0)),
        ("insert_p50_ms", median(&insert_ms)),
        ("insert_p95_ms", percentile(&insert_ms, 95.0)),
        ("remove_p50_ms", median(&remove_ms)),
        ("answer_precision", ratio(t.true_pos, t.answered)),
        ("answer_recall", ratio(t.true_pos, t.expected)),
        (
            "topk_overlap",
            ratio(gate.topk_sum.in_oracle_topk, gate.topk_sum.returned),
        ),
        ("success_frac", 1.0 - ratio(report.failed, report.attempted)),
        ("peak_rss_mb", peak_rss_mb()),
        ("index_bytes", index_bytes),
    ]
}

/// Wall times collected over the rounds, scaled once the run is over.
#[derive(Debug, Default)]
struct Samples {
    query: Vec<Timed>,
    topk: Vec<Timed>,
    insert: Vec<Timed>,
    remove: Vec<Timed>,
    /// Queries answered through `query_batch`, and the time of each batch.
    batched: usize,
    batch: Vec<Timed>,
}

/// The state of one untraced run.
struct Run<'a> {
    spec: &'a Spec,
    engine: QueryEngine,
    queries: std::vec::IntoIter<Graph>,
    topk_queries: std::vec::IntoIter<Graph>,
    fresh: std::vec::IntoIter<ProbabilisticGraph>,
    rng: StdRng,
    tally: Tally,
    gate: Gate,
    samples: Samples,
    speed: HostSpeed,
}

impl Run<'_> {
    /// `count` closed-loop threshold queries; returns the queries with their
    /// answers (`None` for an error) for the batch pass.
    fn threshold_queries(&mut self, count: usize) -> Vec<(Graph, Option<Vec<usize>>)> {
        let params = self.spec.query_params();
        let mut issued = Vec::new();
        self.speed.calibrate();
        for _ in 0..count {
            let Some(q) = self.queries.next() else {
                break;
            };
            let t = Instant::now();
            let result = self.engine.query(&q, &params);
            let timed = self.speed.stamp(t.elapsed().as_secs_f64());
            self.samples.query.push(timed);
            self.tally.attempt(result.is_ok());
            let answers = result.ok().map(|r| r.answers);
            if let Some(answers) = &answers {
                if self.gate.threshold_queries < GATE_THRESHOLD {
                    self.gate
                        .threshold(&self.engine, &q, self.spec, answers, &mut self.tally);
                }
            }
            issued.push((q, answers));
        }
        issued
    }

    /// The same queries through `query_batch`: throughput, and answers that
    /// must be byte-identical to the closed-loop pass.
    fn batch(&mut self, issued: &[(Graph, Option<Vec<usize>>)]) {
        let queries: Vec<Graph> = issued.iter().map(|(q, _)| q.clone()).collect();
        self.speed.calibrate();
        let t = Instant::now();
        let batch = self.engine.query_batch(&queries, &self.spec.query_params());
        let timed = self.speed.stamp(t.elapsed().as_secs_f64());
        self.samples.batch.push(timed);
        self.samples.batched += queries.len();
        match batch {
            Ok(b) => {
                for ((_, solo), batched) in issued.iter().zip(&b.results) {
                    self.tally.attempt(solo.as_ref() == Some(&batched.answers));
                }
            }
            Err(_) => issued.iter().for_each(|_| self.tally.attempt(false)),
        }
    }

    /// `count` closed-loop top-k queries.
    fn topk(&mut self, count: usize) {
        let params = self.spec.topk_params();
        self.speed.calibrate();
        for _ in 0..count {
            let Some(q) = self.topk_queries.next() else {
                break;
            };
            let t = Instant::now();
            let result = self.engine.query_topk(&q, &params);
            let timed = self.speed.stamp(t.elapsed().as_secs_f64());
            self.samples.topk.push(timed);
            self.tally.attempt(result.is_ok());
            if let Ok(r) = &result {
                if self.gate.topk_queries < GATE_TOPK {
                    self.gate
                        .topk(&self.engine, &q, self.spec, &r.ranked, &mut self.tally);
                }
            }
        }
    }

    /// `count` write cycles: insert a fresh graph, then remove the graph at
    /// a seeded position.  Every write is checked against a model of the
    /// database contents.
    fn writes(&mut self, count: usize) {
        self.speed.calibrate();
        for _ in 0..count {
            let Some(graph) = self.fresh.next() else {
                break;
            };
            let salt = graph_salt(&graph);
            let expected_index = self.engine.db().len();
            let t = Instant::now();
            let index = self.engine.insert_graph(graph);
            let timed = self.speed.stamp(t.elapsed().as_secs_f64());
            self.samples.insert.push(timed);
            self.tally.attempt(
                index == expected_index
                    && graph_salt(&self.engine.db()[index]) == salt
                    && self.engine.pmi().graph_count() == self.engine.db().len(),
            );

            let position = self.rng.gen_range(0..self.engine.db().len());
            let salt = graph_salt(&self.engine.db()[position]);
            let before = self.engine.db().len();
            let t = Instant::now();
            let removed = self.engine.remove_graph(position);
            let timed = self.speed.stamp(t.elapsed().as_secs_f64());
            self.samples.remove.push(timed);
            self.tally.attempt(
                removed.is_some_and(|g| graph_salt(&g) == salt)
                    && self.engine.db().len() + 1 == before
                    && self.engine.pmi().graph_count() == self.engine.db().len(),
            );
        }
    }
}

/// Running totals of the oracle checks.
#[derive(Debug, Default)]
struct Gate {
    threshold_queries: usize,
    threshold_sum: ThresholdCheck,
    topk_queries: usize,
    topk_sum: TopkCheck,
    seconds: f64,
}

impl Gate {
    fn threshold(
        &mut self,
        engine: &QueryEngine,
        q: &Graph,
        spec: &Spec,
        answers: &[usize],
        tally: &mut Tally,
    ) {
        let t = Instant::now();
        let c = check_threshold(engine, q, EPSILON, spec.threshold.delta, answers);
        self.seconds += t.elapsed().as_secs_f64();
        self.threshold_queries += 1;
        self.threshold_sum.true_pos += c.true_pos;
        self.threshold_sum.answered += c.answered;
        self.threshold_sum.expected += c.expected;
        self.threshold_sum.violations += c.violations;
        tally.flag(c.violations == 0);
    }

    fn topk(
        &mut self,
        engine: &QueryEngine,
        q: &Graph,
        spec: &Spec,
        ranked: &[RankedAnswer],
        tally: &mut Tally,
    ) {
        let t = Instant::now();
        let c = check_topk(engine, q, TOPK_K, spec.topk.delta, ranked);
        self.seconds += t.elapsed().as_secs_f64();
        self.topk_queries += 1;
        self.topk_sum.in_oracle_topk += c.in_oracle_topk;
        self.topk_sum.returned += c.returned;
        self.topk_sum.violations += c.violations;
        tally.flag(c.violations == 0);
    }
}
