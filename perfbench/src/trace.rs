//! The traced run: each threshold query replayed layer by layer through the
//! public functions of `pgs-graph`, `pgs-index`, `pgs-query` and `pgs-prob`,
//! with a span timed around every call from this file.
//!
//! The replay runs on one thread so spans never overlap.  Its reference is
//! the same query through an untraced engine pinned to one thread.  The
//! replay seeds every candidate's RNG exactly as the engine does, so all of
//! its counters and its answers must equal the engine's `PhaseStats` and
//! answers; `trace.coverage` is the share of the untraced time the layer
//! spans account for, and `trace.overhead` is how much slower the replay is
//! than the untraced call.

use crate::endtoend::ROUNDS;
use crate::report::Report;
use crate::workload::{
    self, database, engine_config, fresh_graphs, stream_seed, QueryStream, Spec, DATABASE_SEED,
    EPSILON,
};
use crate::{Budget, Tally};
use pgs_graph::mcs::SimilarityTester;
use pgs_graph::model::{EdgeId, Graph};
use pgs_graph::parallel::{derive_seed, resolve_threads};
use pgs_graph::relax::relax_query_clamped;
use pgs_graph::summary::SummaryView;
use pgs_index::feature::select_features_summarized;
use pgs_index::sindex::StructuralIndex;
use pgs_prob::exact::exact_union_probability;
use pgs_prob::union_sampler::{StoppingRule, UnionSampler};
use pgs_query::pipeline::{EngineConfig, PhaseStats, QueryEngine};
use pgs_query::prune::BoundInstance;
use pgs_query::verify::collect_embeddings_of_relaxations;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Phase salts of the engine's per-candidate RNGs, as in
/// `pgs_query::pipeline` (private there).  A drift in the engine's seeding
/// makes the replay's counters disagree with `PhaseStats` and fails the run.
const SEED_PHASE_PRUNE: u64 = 0x7072_756e_6500_0001;
const SEED_PHASE_VERIFY: u64 = 0x7665_7269_6679_0002;

/// Accumulated spans (seconds) and the counters `PhaseStats` does not carry.
#[derive(Debug, Default)]
struct Layers {
    /// The replay's own `PhaseStats` counters, summed over the queries.
    totals: PhaseStats,
    structural_s: f64,
    relax_s: f64,
    patterns: usize,
    bound_build_s: f64,
    usim_s: f64,
    lsim_s: f64,
    embed_s: f64,
    embeddings: usize,
    capped: usize,
    exact_s: f64,
    exact_calls: usize,
    relevant_edges: usize,
    sampler_s: f64,
    sampler_builds: usize,
    tables: usize,
    trials_s: f64,
}

impl Layers {
    fn span_seconds(&self) -> f64 {
        self.structural_s
            + self.relax_s
            + self.bound_build_s
            + self.usim_s
            + self.lsim_s
            + self.embed_s
            + self.exact_s
            + self.sampler_s
            + self.trials_s
    }
}

/// Times `f`, adding its duration to `acc`.
fn span<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// The `PhaseStats` counters the replay must reproduce exactly.
fn counters(s: &PhaseStats) -> [usize; 12] {
    [
        s.posting_entries_scanned,
        s.filter_survivors,
        s.structural_candidates,
        s.pruned_by_upper,
        s.accepted_by_lower,
        s.probabilistic_candidates,
        s.verified,
        s.exact_verifications,
        s.samples_drawn,
        s.samples_saved,
        s.early_accepts,
        s.early_rejects,
    ]
}

/// Runs workload `spec` traced for about `seconds` and returns every
/// per-layer metric.
pub fn run(spec: &Spec, seed: u64, seconds: f64, report: &mut Report) -> Vec<(&'static str, f64)> {
    let config = engine_config();
    let db = database(&spec.db, DATABASE_SEED);
    let skeletons: Vec<Graph> = db.iter().map(|g| g.skeleton().clone()).collect();
    let mut tally = Tally::default();

    // Index layers, as `Pmi::build` calls them: the S-Index, then mining
    // over its summaries; then the full engine build.
    let mut sindex_s = 0.0;
    let sindex = span(&mut sindex_s, || StructuralIndex::build(&skeletons));
    let views: Vec<SummaryView<'_>> = sindex.summary_views().collect();
    let mut mine_s = 0.0;
    let features = span(&mut mine_s, || {
        select_features_summarized(&skeletons, &views, &config.pmi.features)
    });
    let mut build_s = 0.0;
    let engine = span(&mut build_s, || QueryEngine::build(db.clone(), config));
    tally.attempt(features.len() == engine.pmi().features().len());
    let sequential = QueryEngine::from_parts(
        db.clone(),
        engine.pmi().clone(),
        EngineConfig {
            threads: 1,
            ..config
        },
    )
    .expect("the index was built from these graphs with these parameters");

    // Replay threshold queries layer by layer.
    let params = spec.query_params();
    let mut stream = QueryStream::new(&db, spec.threshold, stream_seed(seed, "threshold"));
    let mut layers = Layers::default();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut replayed: Vec<Graph> = Vec::new();
    let mut answers: Vec<Vec<usize>> = Vec::new();
    let budget = Budget::new(seconds * spec.query_share);
    while budget.more(replayed.len()) {
        let Some(q) = stream.next_query() else { break };
        let t = Instant::now();
        let result = sequential.query(&q, &params);
        untraced_s += t.elapsed().as_secs_f64();
        let Ok(result) = result else {
            tally.attempt(false);
            continue;
        };
        let t = Instant::now();
        let (stats, replay_answers) = replay(&sequential, &q, spec, &mut layers);
        traced_s += t.elapsed().as_secs_f64();
        let agrees =
            counters(&stats) == counters(&result.stats) && replay_answers == result.answers;
        if !agrees && tally.failed() == 0 {
            report.info.push(format!(
                "replay of {} disagrees with the engine: counters {:?} vs {:?}, answers {:?} vs {:?}",
                q.name(),
                counters(&stats),
                counters(&result.stats),
                replay_answers,
                result.answers,
            ));
        }
        tally.attempt(agrees);
        layers.totals.accumulate(&stats);
        answers.push(result.answers);
        replayed.push(q);
    }

    // Pool utilisation on the batch pass over the replayed queries.
    let workers = resolve_threads(config.threads);
    let t = Instant::now();
    let batch = engine.query_batch(&replayed, &params);
    let wall = t.elapsed().as_secs_f64();
    let utilization = match &batch {
        Ok(b) => {
            for (solo, batched) in answers.iter().zip(&b.results) {
                tally.attempt(*solo == batched.answers);
            }
            let busy: f64 = b.results.iter().map(|r| r.stats.total_seconds()).sum();
            busy / (wall * workers as f64)
        }
        Err(_) => {
            tally.attempt(false);
            f64::NAN
        }
    };

    // Top-k counters from the engine's own `PhaseStats`.
    let topk_params = spec.topk_params();
    let (mut topk_queries, mut topk_pruned, mut topk_verified) = (0usize, 0usize, 0usize);
    let count = ROUNDS * spec.topk_per_round;
    let stream = stream_seed(seed, "topk");
    for q in workload::fixed_queries(&db, spec.topk, workload::TOPK_SET, count, 0, stream) {
        let result = engine.query_topk(&q, &topk_params);
        tally.attempt(result.is_ok());
        if let Ok(r) = result {
            topk_queries += 1;
            topk_pruned += r.stats.topk_pruned;
            topk_verified += r.stats.verified;
        }
    }

    // PMI column appends and removes, on a copy of the index.
    let mut pmi = engine.pmi().clone();
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, "writes"));
    let (mut append_s, mut remove_s, mut writes) = (0.0, 0.0, 0usize);
    let fresh = fresh_graphs(
        &spec.db,
        stream_seed(seed, "fresh"),
        ROUNDS * spec.writes_per_round,
    );
    for graph in fresh {
        span(&mut append_s, || pmi.append_graph(&graph));
        let position = rng.gen_range(0..pmi.graph_count());
        span(&mut remove_s, || pmi.remove_graph(position));
        writes += 1;
        tally.attempt(pmi.graph_count() == db.len());
    }

    let n = replayed.len().max(1) as f64;
    let per_query = |x: usize| x as f64 / n;
    let ms_per_query = |s: f64| s * 1e3 / n;
    let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let l = &layers;
    let s = &l.totals;
    let sampled = s.verified - s.exact_verifications;
    report.info.push(format!(
        "traced: queries={} untraced_ms_per_query={:.3} replay_ms_per_query={:.3} topk_queries={} writes={} workers={}",
        replayed.len(),
        ms_per_query(untraced_s),
        ms_per_query(traced_s),
        topk_queries,
        writes,
        workers,
    ));
    report.info.push(layer_shares(l));
    tally.into_report(report);
    vec![
        ("structural.ms", ms_per_query(l.structural_s)),
        (
            "structural.posting_entries",
            per_query(s.posting_entries_scanned),
        ),
        ("structural.filter_survivors", per_query(s.filter_survivors)),
        ("structural.candidates", per_query(s.structural_candidates)),
        (
            "structural.yield",
            share(s.structural_candidates as f64, s.filter_survivors as f64),
        ),
        ("relax.ms", ms_per_query(l.relax_s)),
        ("relax.patterns", per_query(l.patterns)),
        ("prune.build_ms", ms_per_query(l.bound_build_s)),
        ("prune.usim_ms", ms_per_query(l.usim_s)),
        ("prune.lsim_ms", ms_per_query(l.lsim_s)),
        ("prune.pruned", per_query(s.pruned_by_upper)),
        ("prune.accepted", per_query(s.accepted_by_lower)),
        (
            "prune.decided_frac",
            share(
                (s.pruned_by_upper + s.accepted_by_lower) as f64,
                s.structural_candidates as f64,
            ),
        ),
        ("embed.ms", ms_per_query(l.embed_s)),
        ("embed.embeddings", per_query(l.embeddings)),
        ("embed.capped", per_query(l.capped)),
        ("exact.ms", ms_per_query(l.exact_s)),
        ("exact.calls", per_query(l.exact_calls)),
        ("exact.relevant_edges", per_query(l.relevant_edges)),
        ("sampler.build_ms", ms_per_query(l.sampler_s)),
        ("sampler.builds", per_query(l.sampler_builds)),
        ("sampler.tables", per_query(l.tables)),
        ("trials.ms", ms_per_query(l.trials_s)),
        ("trials.drawn", per_query(s.samples_drawn)),
        ("trials.saved", per_query(s.samples_saved)),
        ("trials.per_s", share(s.samples_drawn as f64, l.trials_s)),
        (
            "trials.early_frac",
            share((s.early_accepts + s.early_rejects) as f64, sampled as f64),
        ),
        (
            "topk.pruned",
            share(topk_pruned as f64, topk_queries as f64),
        ),
        (
            "topk.verified",
            share(topk_verified as f64, topk_queries as f64),
        ),
        ("index.mine_s", mine_s),
        ("index.sindex_s", sindex_s),
        ("index.build_s", build_s),
        ("index.features", engine.pmi().features().len() as f64),
        ("index.append_ms", share(append_s * 1e3, writes as f64)),
        ("index.remove_ms", share(remove_s * 1e3, writes as f64)),
        ("pool.utilization", utilization),
        ("trace.coverage", share(l.span_seconds(), untraced_s)),
        ("trace.overhead", share(traced_s, untraced_s) - 1.0),
    ]
}

/// Replays one threshold query through the layers, mirroring
/// `QueryEngine::query` with adaptive verification and the engine's
/// per-candidate seeds.  Returns the query's `PhaseStats` counters (no
/// seconds) and its sorted answers.
fn replay(
    engine: &QueryEngine,
    q: &Graph,
    spec: &Spec,
    l: &mut Layers,
) -> (PhaseStats, Vec<usize>) {
    let config = engine.config();
    let pmi = engine.pmi();
    let sindex = pmi.sindex().expect("a built engine carries an S-Index");
    let delta = spec.threshold.delta;
    let epsilon = EPSILON;
    let mut stats = PhaseStats::default();

    // Phase 1: S-Index posting scan, then the exact subgraph-distance check.
    let (outcome, candidates) = span(&mut l.structural_s, || {
        let tester = SimilarityTester::new(q, delta);
        let outcome = sindex.filter_candidates(tester.query_summary().view(), delta);
        let candidates: Vec<usize> = outcome
            .candidates
            .iter()
            .copied()
            .filter(|&gi| tester.matches(engine.db()[gi].skeleton(), sindex.summary(gi)))
            .collect();
        (outcome, candidates)
    });
    stats.posting_entries_scanned = outcome.posting_entries_scanned;
    stats.filter_survivors = outcome.candidates.len();
    stats.structural_candidates = candidates.len();

    let relaxed = span(&mut l.relax_s, || relax_query_clamped(q, delta));
    l.patterns += relaxed.len();

    // Phase 2: SIP bounds over the PMI column of every candidate.
    let query_hash = q.structural_hash();
    let salts = pmi.graph_salts();
    let candidate_rng = |phase: u64, gi: usize| {
        StdRng::seed_from_u64(derive_seed(&[config.seed, query_hash, phase, salts[gi]]))
    };
    let mut answers = Vec::new();
    let mut to_verify = Vec::new();
    for &gi in &candidates {
        let mut rng = candidate_rng(SEED_PHASE_PRUNE, gi);
        let instance = span(&mut l.bound_build_s, || {
            BoundInstance::build(pmi, gi, &relaxed)
        });
        let usim = span(&mut l.usim_s, || instance.usim_optimal());
        let lsim = span(&mut l.lsim_s, || {
            instance.lsim_optimal(config.cross_term, &mut rng)
        });
        if usim < epsilon {
            stats.pruned_by_upper += 1;
        } else if lsim >= epsilon {
            stats.accepted_by_lower += 1;
            answers.push(gi);
        } else {
            to_verify.push(gi);
        }
    }
    stats.verified = to_verify.len();
    stats.probabilistic_candidates = stats.accepted_by_lower + stats.verified;

    // Phase 3: embeddings, then the exact union or the adaptive sampler.
    let options = &config.verify;
    for gi in to_verify {
        let pg = &engine.db()[gi];
        let embeddings = span(&mut l.embed_s, || {
            collect_embeddings_of_relaxations(pg, &relaxed, options.max_embeddings)
        });
        l.embeddings += embeddings.len();
        l.capped += usize::from(embeddings.len() >= options.max_embeddings);
        if embeddings.is_empty() {
            stats.exact_verifications += 1;
            continue;
        }
        let mut relevant: Vec<EdgeId> = embeddings.iter().flatten().copied().collect();
        relevant.sort_unstable();
        relevant.dedup();
        if relevant.len() <= options.exact_cutoff {
            l.exact_calls += 1;
            l.relevant_edges += relevant.len();
            let exact = span(&mut l.exact_s, || {
                exact_union_probability(pg, &embeddings, options.exact_cutoff)
            });
            if let Ok(ssp) = exact {
                stats.exact_verifications += 1;
                if ssp >= epsilon {
                    answers.push(gi);
                }
                continue;
            }
        }
        let sampler = span(&mut l.sampler_s, || {
            UnionSampler::with_relevant(pg, &embeddings, &relevant)
        });
        l.sampler_builds += 1;
        let Some(sampler) = sampler else {
            stats.exact_verifications += 1;
            continue;
        };
        l.tables += sampler.projection().table_count();
        let mut rng = candidate_rng(SEED_PHASE_VERIFY, gi);
        let n = options.mc.num_samples();
        let rule = StoppingRule {
            threshold: epsilon,
            xi: options.mc.xi,
            accept_early: true,
        };
        let chunk_seed: u64 = rng.gen();
        let estimate = span(&mut l.trials_s, || {
            sampler.estimate_adaptive(n, chunk_seed, 1, &rule)
        });
        stats.samples_drawn += estimate.samples_drawn;
        stats.samples_saved += n - estimate.samples_drawn;
        match estimate.decision {
            Some(true) => stats.early_accepts += 1,
            Some(false) => stats.early_rejects += 1,
            None => {}
        }
        if estimate.decision.unwrap_or(estimate.estimate >= epsilon) {
            answers.push(gi);
        }
    }
    answers.sort_unstable();
    (stats, answers)
}

/// One line with each layer's share of the summed spans.
fn layer_shares(l: &Layers) -> String {
    let total = l.span_seconds().max(f64::MIN_POSITIVE);
    let parts = [
        ("structural", l.structural_s),
        ("relax", l.relax_s),
        ("prune", l.bound_build_s + l.usim_s + l.lsim_s),
        ("embed", l.embed_s),
        ("exact", l.exact_s),
        ("sampler", l.sampler_s),
        ("trials", l.trials_s),
    ];
    let shares: Vec<String> = parts
        .iter()
        .map(|(name, s)| format!("{name}={:.1}%", 100.0 * s / total))
        .collect();
    format!("layer shares: {}", shares.join(" "))
}
