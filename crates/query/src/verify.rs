//! Verification (Section 5): computing the subgraph similarity probability of
//! the candidates that survived pruning.
//!
//! The exact computation (Equation 21) needs exponentially many
//! inclusion–exclusion terms, so the paper estimates the SSP with a Karp–Luby
//! style coverage sampler (Algorithm 5) over the union of the embedding events
//! `Bf_1 ∨ ... ∨ Bf_m` of all relaxed queries:
//!
//! 1. compute `Pr(Bf_i)` for every embedding (exact under the factorised JPT
//!    model — the paper uses a junction tree for the same purpose) and their
//!    sum `V`;
//! 2. repeatedly pick an embedding `i` with probability `Pr(Bf_i)/V`, sample a
//!    possible world conditioned on `Bf_i` holding, and count the trials in
//!    which no earlier embedding `Bf_j (j < i)` also holds;
//! 3. the estimate is `V · cnt / N`, an unbiased estimator of the union
//!    probability with the usual `(τ, ξ)` Monte-Carlo guarantees.
//!
//! The estimator is executed by [`pgs_prob::union_sampler::UnionSampler`]:
//! the graph is projected onto the JPT tables the embedding union actually
//! touches, worlds live in a compact reusable bitset, embedding choice and
//! per-table row draws go through Walker alias tables, and the trials are
//! chunked with per-chunk derived RNGs so the estimate is byte-identical for
//! every thread count (see DESIGN.md §11).  Unions of at most `exact_cutoff`
//! (16 by default) relevant edges skip the sampler: the exact union
//! probability ([`pgs_prob::exact::exact_union_probability`]) prices worlds
//! from the same per-table marginal rows, summing every `u64`-mask world up
//! to 12 edges and searching the touched tables depth-first above that, and
//! tests check the sampler against it.  The cutoff is the exact path's only
//! budget: a union within it is answered exactly whatever the search costs.
//!
//! [`verify_ssp_exact`] wraps the exact evaluator of `pgs-prob` and doubles as
//! the `Exact` baseline of Figures 9 and 13.

use crate::pipeline::QueryError;
use pgs_graph::embeddings::EdgeSet;
use pgs_graph::model::Graph;
use pgs_prob::error::ProbError;
use pgs_prob::exact::exact_ssp;
use pgs_prob::model::ProbabilisticGraph;
use pgs_prob::montecarlo::MonteCarloConfig;
use pgs_prob::union_sampler::{StoppingRule, UnionSampler};
use rand::Rng;

pub use pgs_prob::exact::collect_embeddings_of_relaxations;

/// Options of the verification sampler.
#[derive(Debug, Clone, Copy)]
pub struct VerifyOptions {
    /// Monte-Carlo accuracy (`τ`, `ξ`, sample cap).
    pub mc: MonteCarloConfig,
    /// Cap on the number of distinct embeddings collected across all relaxed
    /// queries.
    pub max_embeddings: usize,
    /// Cap on relevant edges for the exact short-circuit: when the union of
    /// embedding edges is at most this many edges (16 by default) the SSP is
    /// computed exactly instead of sampled.  The exact evaluator refuses
    /// unions of more than 63 edges, so larger caps act as 63; `0` sends
    /// every union with an embedding to the sampler.
    pub exact_cutoff: usize,
    /// Whether the query pipeline may stop a candidate's sampler early once
    /// its running confidence interval has separated from the decision
    /// threshold (DESIGN.md §16).  Off, every sampled candidate draws the
    /// full `mc.num_samples()` budget — the fixed-budget baseline path.
    /// On by default; decisions stay within the `(τ, ξ)` accuracy band and
    /// byte-identical across thread counts either way.
    pub adaptive: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            mc: MonteCarloConfig::default(),
            max_embeddings: 256,
            exact_cutoff: 16,
            adaptive: true,
        }
    }
}

impl VerifyOptions {
    /// Validates the options the way `ExactScanConfig::validate` does.
    ///
    /// A `max_embeddings` of zero used to be silently clamped to one VF2
    /// embedding per relaxed query, and a `NaN`/non-positive `τ` or a `ξ`
    /// outside `(0, 1)` flows into the Monte-Carlo clamp which substitutes
    /// other values — in both cases the engine would quietly answer at a
    /// precision nobody asked for, so the query entry points reject such
    /// options with a typed error instead.
    pub fn validate(&self) -> Result<(), QueryError> {
        let bad_tau = self.mc.tau.is_nan() || self.mc.tau <= 0.0;
        let bad_xi = self.mc.xi.is_nan() || self.mc.xi <= 0.0 || self.mc.xi >= 1.0;
        if bad_tau || bad_xi || self.max_embeddings == 0 {
            return Err(QueryError::InvalidVerifyOptions {
                max_embeddings: self.max_embeddings,
                tau: self.mc.tau,
                xi: self.mc.xi,
            });
        }
        Ok(())
    }
}

/// The result of one candidate verification: the SSP value plus the work
/// counters the pipeline aggregates into `PhaseStats`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifyOutcome {
    /// The (estimated or exact) subgraph similarity probability.  On an early
    /// stop this is the running estimate at the stopping boundary — only its
    /// relation to the threshold is resolved, not its full-budget value.
    pub ssp: f64,
    /// Monte-Carlo trials actually drawn (zero on the exact path).
    pub samples_drawn: usize,
    /// Trials a fixed-budget run draws (`mc.num_samples()` on the sampled
    /// path, zero on the exact path) — `budget - samples_drawn` is the work
    /// the stopping rule saved.
    pub budget: usize,
    /// True when the answer came from the exact short-circuit (trivial δ,
    /// no embeddings, or relevant-edge set within `exact_cutoff`).
    pub exact: bool,
    /// `Some(decision)` when the stopping rule fired before the budget was
    /// exhausted (`true`: the SSP is at or above the threshold), `None` when
    /// the sampler ran to completion or the exact path answered.
    pub early: Option<bool>,
}

impl VerifyOutcome {
    fn exactly(ssp: f64) -> VerifyOutcome {
        VerifyOutcome {
            ssp,
            samples_drawn: 0,
            budget: 0,
            exact: true,
            early: None,
        }
    }
}

/// Fixed-budget verification with work counters: Algorithm 5 over the
/// [`UnionSampler`], reusing a precomputed relaxed query set.
///
/// `relaxed` must be `relax_query_clamped(q, delta)`, so the `δ`-clamp
/// lives in exactly one place.  Small instances (trivial `δ`, no
/// embeddings, relevant-edge set within `exact_cutoff`, zero-weight union)
/// are answered exactly.  Otherwise one chunk seed is drawn from `rng` and
/// the deterministic trial chunks run on up to `threads` workers (`0` =
/// automatic) under a stopping rule that never fires (zero threshold, no
/// early accepts), so every sampled candidate draws the full
/// `mc.num_samples()` budget.  For a fixed caller RNG state the outcome is
/// byte-identical for every thread count.
pub fn verify_ssp_with_stats<R: Rng + ?Sized>(
    pg: &ProbabilisticGraph,
    q: &Graph,
    delta: usize,
    relaxed: &[Graph],
    options: &VerifyOptions,
    threads: usize,
    rng: &mut R,
) -> VerifyOutcome {
    if q.edge_count() <= delta {
        return VerifyOutcome::exactly(1.0);
    }
    let embeddings = collect_embeddings_of_relaxations(pg, relaxed, options.max_embeddings);
    verify_embeddings(pg, &embeddings, options, 0.0, false, threads, rng)
}

/// The verifier after the embeddings are collected: the exact
/// short-circuit, then [`UnionSampler::estimate_adaptive`] over `embeddings`
/// with a sequential stopping rule (DESIGN.md §16) that checks the running
/// Hoeffding interval against `threshold` at the chunk boundaries;
/// `accept_early = false` restricts stopping to rejections (the top-k path
/// needs full-budget estimates for its ranked winners), and with
/// `options.adaptive` off the rule never fires.  Early decisions stay
/// within the `(τ, ξ)` accuracy band of the fixed-budget estimate.
///
/// It is [`prepare`] then [`Prepared::finish`]; the top-k walk calls the
/// two halves itself so that it can prepare several candidates before it
/// knows their thresholds.  The `Exact` scan's sampling fallback calls it
/// with the first `max_embeddings` entries of the uncapped list it already
/// holds, which is exactly what [`collect_embeddings_of_relaxations`] would
/// return at that cap.
pub(crate) fn verify_embeddings<R: Rng + ?Sized>(
    pg: &ProbabilisticGraph,
    embeddings: &[EdgeSet],
    options: &VerifyOptions,
    threshold: f64,
    accept_early: bool,
    threads: usize,
    rng: &mut R,
) -> VerifyOutcome {
    prepare(pg, embeddings, options, rng).finish(threshold, accept_early, threads)
}

/// A candidate's verification up to the point where it reads its decision
/// threshold: [`prepare`]'s result.
#[derive(Debug)]
pub(crate) enum Prepared {
    /// The exact short-circuit answered; the threshold cannot change it.
    Exact(f64),
    /// The union sampler with the chunk seed already drawn from the
    /// candidate's RNG, waiting for a threshold.
    Sampling {
        sampler: Box<UnionSampler>,
        seed: u64,
        options: VerifyOptions,
    },
}

/// The threshold-free half of [`verify_embeddings`]: the exact
/// short-circuits (no embeddings, a relevant-edge set within
/// `exact_cutoff`, a zero-weight union), else the union sampler's
/// projection and alias tables plus its one seed draw from `rng`.
pub(crate) fn prepare<R: Rng + ?Sized>(
    pg: &ProbabilisticGraph,
    embeddings: &[EdgeSet],
    options: &VerifyOptions,
    rng: &mut R,
) -> Prepared {
    if embeddings.is_empty() {
        return Prepared::Exact(0.0);
    }
    // Small instances: answer exactly (cheaper and noise-free).
    let mut relevant: Vec<_> = embeddings.iter().flatten().copied().collect();
    relevant.sort_unstable();
    relevant.dedup();
    if relevant.len() <= options.exact_cutoff {
        if let Ok(value) =
            pgs_prob::exact::exact_union_probability(pg, embeddings, options.exact_cutoff)
        {
            return Prepared::Exact(value);
        }
    }
    let Some(sampler) = UnionSampler::with_relevant(pg, embeddings, &relevant) else {
        // The union event has probability zero (every Pr(Bf_i) = 0).
        return Prepared::Exact(0.0);
    };
    Prepared::Sampling {
        sampler: Box::new(sampler),
        seed: rng.gen(),
        options: *options,
    }
}

impl Prepared {
    /// The threshold half of [`verify_embeddings`]: an exact answer as it
    /// stands, else the sampler's trials on up to `threads` workers under
    /// the stopping rule for `threshold`.  It reads no RNG, so one
    /// preparation finishes at any threshold exactly as a fresh
    /// verification would.
    pub(crate) fn finish(
        &self,
        threshold: f64,
        accept_early: bool,
        threads: usize,
    ) -> VerifyOutcome {
        let (sampler, seed, options) = match self {
            &Prepared::Exact(ssp) => return VerifyOutcome::exactly(ssp),
            Prepared::Sampling {
                sampler,
                seed,
                options,
            } => (sampler, *seed, options),
        };
        let n = options.mc.num_samples();
        // `adaptive` off only picks the rule: a zero threshold without early
        // accepts can never fire.
        let rule = StoppingRule {
            threshold: if options.adaptive { threshold } else { 0.0 },
            xi: options.mc.xi,
            accept_early: options.adaptive && accept_early,
        };
        let est = sampler.estimate_adaptive(n, seed, threads, &rule);
        VerifyOutcome {
            ssp: est.estimate,
            samples_drawn: est.samples_drawn,
            budget: n,
            exact: false,
            early: est.decision,
        }
    }
}

/// Exact verification (Definition 9 via Lemma 1) — the `Exact` baseline.
pub fn verify_ssp_exact(
    pg: &ProbabilisticGraph,
    q: &Graph,
    delta: usize,
    limit: usize,
) -> Result<f64, ProbError> {
    exact_ssp(pg, q, delta, limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgs_datagen::scenarios::verification_candidate;
    use pgs_graph::model::{EdgeId, GraphBuilder};
    use pgs_graph::relax::relax_query_clamped;
    use pgs_graph::vf2::{enumerate_embeddings, MatchOptions};
    use pgs_prob::jpt::JointProbTable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        let t1 =
            JointProbTable::from_max_rule(&[(EdgeId(0), 0.7), (EdgeId(1), 0.6), (EdgeId(2), 0.8)])
                .unwrap();
        let t2 = JointProbTable::from_max_rule(&[(EdgeId(3), 0.5), (EdgeId(4), 0.4)]).unwrap();
        ProbabilisticGraph::new(skeleton, vec![t1, t2], true).unwrap()
    }

    /// Triangle over labels {0, 1, 2}: embeds in `fixture_002` through its
    /// relaxations and exactly in the labelled triangle region of
    /// `pgs_datagen::scenarios::verification_candidate`.
    fn query() -> Graph {
        GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 9)
            .edge(1, 2, 9)
            .edge(0, 2, 9)
            .build()
    }

    /// The fixed-budget SSP estimate of `q` at `delta`.
    fn sampled_ssp(
        pg: &ProbabilisticGraph,
        q: &Graph,
        delta: usize,
        options: &VerifyOptions,
        rng: &mut StdRng,
    ) -> f64 {
        let relaxed = relax_query_clamped(q, delta);
        verify_ssp_with_stats(pg, q, delta, &relaxed, options, 1, rng).ssp
    }

    #[test]
    fn sampled_ssp_matches_exact_on_the_fixture() {
        let pg = fixture_002();
        let q = query();
        let mut rng = StdRng::seed_from_u64(42);
        for delta in 0..=2 {
            let exact = verify_ssp_exact(&pg, &q, delta, 22).unwrap();
            // Exercise the true sampling path by setting the exact cutoff to 0.
            let options = VerifyOptions {
                exact_cutoff: 0,
                mc: MonteCarloConfig {
                    tau: 0.05,
                    xi: 0.01,
                    max_samples: 40_000,
                },
                ..VerifyOptions::default()
            };
            let sampled = sampled_ssp(&pg, &q, delta, &options, &mut rng);
            assert!(
                (sampled - exact).abs() < 0.03,
                "delta={delta}: sampled {sampled} vs exact {exact}"
            );
        }
    }

    #[test]
    fn sampled_ssp_matches_exact_with_irrelevant_tables() {
        // The projection must not change the answer when the graph carries
        // many JPT tables the embedding union never touches.
        let (pg, q) = verification_candidate(12);
        assert_eq!(pg.tables().len(), 13);
        let options = VerifyOptions {
            exact_cutoff: 0,
            mc: MonteCarloConfig {
                tau: 0.05,
                xi: 0.01,
                max_samples: 40_000,
            },
            ..VerifyOptions::default()
        };
        let mut rng = StdRng::seed_from_u64(1234);
        for delta in 0..=1 {
            let exact = verify_ssp_exact(&pg, &q, delta, 22).unwrap();
            let relaxed = relax_query_clamped(&q, delta);
            let outcome = verify_ssp_with_stats(&pg, &q, delta, &relaxed, &options, 1, &mut rng);
            assert!(!outcome.exact);
            assert_eq!(outcome.samples_drawn, options.mc.num_samples());
            assert!(
                (outcome.ssp - exact).abs() < 0.03,
                "delta={delta}: sampled {} vs exact {exact}",
                outcome.ssp
            );
        }
    }

    #[test]
    fn with_stats_is_thread_count_invariant() {
        let (pg, q) = verification_candidate(8);
        let options = VerifyOptions {
            exact_cutoff: 0,
            ..VerifyOptions::default()
        };
        let relaxed = relax_query_clamped(&q, 1);
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(99);
            verify_ssp_with_stats(&pg, &q, 1, &relaxed, &options, threads, &mut rng)
        };
        let reference = run(1);
        for threads in [2usize, 4, 8, 0] {
            assert_eq!(run(threads), reference, "threads = {threads}");
        }
    }

    #[test]
    fn union_sampler_agrees_with_the_exact_union() {
        let (pg, q) = verification_candidate(6);
        let options = VerifyOptions {
            exact_cutoff: 0,
            mc: MonteCarloConfig {
                tau: 0.05,
                xi: 0.01,
                max_samples: 40_000,
            },
            ..VerifyOptions::default()
        };
        let relaxed = relax_query_clamped(&q, 1);
        let embeddings = collect_embeddings_of_relaxations(&pg, &relaxed, options.max_embeddings);
        let exact = pgs_prob::exact::exact_union_probability(&pg, &embeddings, 22).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let fast = verify_ssp_with_stats(&pg, &q, 1, &relaxed, &options, 1, &mut rng).ssp;
        assert!(
            (exact - fast).abs() < 0.03,
            "exact {exact} vs union sampler {fast}"
        );
    }

    #[test]
    fn exact_shortcut_is_used_for_small_instances() {
        let pg = fixture_002();
        let q = query();
        let mut rng = StdRng::seed_from_u64(7);
        let exact = verify_ssp_exact(&pg, &q, 1, 22).unwrap();
        let relaxed = relax_query_clamped(&q, 1);
        let outcome =
            verify_ssp_with_stats(&pg, &q, 1, &relaxed, &VerifyOptions::default(), 1, &mut rng);
        // With the default cutoff (16 ≥ 5 relevant edges) the result is exact,
        // and the outcome reports the shortcut.
        assert!((outcome.ssp - exact).abs() < 1e-9);
        assert!(outcome.exact);
        assert_eq!(outcome.samples_drawn, 0);
    }

    #[test]
    fn unions_of_thirteen_to_sixteen_edges_are_exact_at_the_default_cutoff() {
        // A path of 16 independent edges; three overlapping embeddings span
        // its first `k` edges, past the flat enumerator's 12.
        let mut b = GraphBuilder::new().vertices(&[0; 17]);
        for i in 0..16 {
            b = b.edge(i, i + 1, 9);
        }
        let pg = ProbabilisticGraph::independent(b.build(), &[0.8; 16]).unwrap();
        let forced = VerifyOptions {
            exact_cutoff: 0,
            ..VerifyOptions::default()
        };
        for k in 13..=16u32 {
            let span = |from: u32, to: u32| (from..to).map(EdgeId).collect::<EdgeSet>();
            let embeddings = [span(0, k / 2 + 1), span(k / 3, k - 2), span(k / 2, k)];
            let want = pgs_prob::exact::exact_union_probability(&pg, &embeddings, 63).unwrap();
            let mut rng = StdRng::seed_from_u64(u64::from(k));
            match prepare(&pg, &embeddings, &VerifyOptions::default(), &mut rng) {
                Prepared::Exact(ssp) => assert_eq!(ssp.to_bits(), want.to_bits(), "k = {k}"),
                Prepared::Sampling { .. } => panic!("k = {k}: default cutoff sampled"),
            }
            let sampled = prepare(&pg, &embeddings, &forced, &mut rng);
            assert!(
                matches!(sampled, Prepared::Sampling { .. }),
                "k = {k}: cutoff 0 must sample"
            );
        }
    }

    #[test]
    fn degenerate_cases() {
        let pg = fixture_002();
        let mut rng = StdRng::seed_from_u64(9);
        // Query smaller than delta: probability 1.
        let tiny = GraphBuilder::new().vertices(&[0, 1]).edge(0, 1, 9).build();
        assert_eq!(
            sampled_ssp(&pg, &tiny, 1, &VerifyOptions::default(), &mut rng),
            1.0
        );
        // Query with labels absent from the graph: probability 0.
        let foreign = GraphBuilder::new().vertices(&[8, 9]).edge(0, 1, 9).build();
        assert_eq!(
            sampled_ssp(&pg, &foreign, 0, &VerifyOptions::default(), &mut rng),
            0.0
        );
    }

    #[test]
    fn collect_embeddings_dedups_and_caps() {
        let pg = fixture_002();
        let q = query();
        let relaxed = relax_query_clamped(&q, 1);
        let all = collect_embeddings_of_relaxations(&pg, &relaxed, 100);
        assert!(!all.is_empty());
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(all[i], all[j], "duplicate embedding edge sets");
            }
        }
        let capped = collect_embeddings_of_relaxations(&pg, &relaxed, 2);
        assert!(capped.len() <= 2);
    }

    #[test]
    fn collector_matches_a_dedup_by_scan_reference_at_every_cap() {
        // The oracle deduplicates every relaxed query's embeddings by a
        // linear scan over those kept so far; the collector, which
        // deduplicates nothing (see `collect_embeddings_summarized`), must
        // return the same embeddings in the same order for any
        // (pg, relaxed, cap) input.
        fn reference(pg: &ProbabilisticGraph, relaxed: &[Graph], cap: usize) -> Vec<EdgeSet> {
            let mut out: Vec<EdgeSet> = Vec::new();
            for rq in relaxed {
                if rq.edge_count() == 0 {
                    continue;
                }
                let outcome = enumerate_embeddings(
                    rq,
                    pg.skeleton(),
                    MatchOptions::capped(cap.saturating_sub(out.len()).max(1)),
                );
                for emb in outcome.embeddings {
                    if !out.contains(&emb.edges) {
                        out.push(emb.edges);
                    }
                }
                if out.len() >= cap {
                    break;
                }
            }
            out
        }
        for extra in [0usize, 4, 9] {
            let (pg, triangle) = verification_candidate(extra);
            for delta in 0..=2usize {
                for cap in [1usize, 2, 5, 100] {
                    let relaxed = relax_query_clamped(&triangle, delta);
                    assert_eq!(
                        collect_embeddings_of_relaxations(&pg, &relaxed, cap),
                        reference(&pg, &relaxed, cap),
                        "extra={extra} delta={delta} cap={cap}"
                    );
                }
            }
        }
    }

    #[test]
    fn verify_options_validation() {
        assert!(VerifyOptions::default().validate().is_ok());
        let bad = [
            VerifyOptions {
                max_embeddings: 0,
                ..VerifyOptions::default()
            },
            VerifyOptions {
                mc: MonteCarloConfig {
                    tau: f64::NAN,
                    ..MonteCarloConfig::default()
                },
                ..VerifyOptions::default()
            },
            VerifyOptions {
                mc: MonteCarloConfig {
                    tau: -1.0,
                    ..MonteCarloConfig::default()
                },
                ..VerifyOptions::default()
            },
            VerifyOptions {
                mc: MonteCarloConfig {
                    xi: 0.0,
                    ..MonteCarloConfig::default()
                },
                ..VerifyOptions::default()
            },
        ];
        for options in bad {
            match options.validate() {
                Err(QueryError::InvalidVerifyOptions { .. }) => {}
                other => panic!("expected a typed error, got {other:?}"),
            }
        }
    }

    /// [`verify_ssp_with_stats`]'s collection under a stopping `threshold`.
    fn verify_adaptive(
        pg: &ProbabilisticGraph,
        relaxed: &[Graph],
        options: &VerifyOptions,
        threshold: f64,
        accept_early: bool,
        rng: &mut StdRng,
    ) -> VerifyOutcome {
        let embeddings = collect_embeddings_of_relaxations(pg, relaxed, options.max_embeddings);
        verify_embeddings(pg, &embeddings, options, threshold, accept_early, 1, rng)
    }

    #[test]
    fn adaptive_without_a_stop_matches_with_stats_bitwise() {
        // With a threshold the interval can never separate from (and early
        // accepts disabled), the round-scheduled adaptive run must reproduce
        // the single-round fixed-budget estimate bit for bit: same
        // short-circuits, same seed draw, same chunk arithmetic.
        let (pg, q) = verification_candidate(8);
        let options = VerifyOptions {
            exact_cutoff: 0,
            adaptive: true,
            ..VerifyOptions::default()
        };
        let relaxed = relax_query_clamped(&q, 1);
        let mut rng = StdRng::seed_from_u64(99);
        let fixed = verify_ssp_with_stats(&pg, &q, 1, &relaxed, &options, 1, &mut rng);
        let mut rng = StdRng::seed_from_u64(99);
        let adaptive = verify_adaptive(&pg, &relaxed, &options, f64::MIN_POSITIVE, false, &mut rng);
        assert_eq!(adaptive, fixed);
        assert_eq!(fixed.budget, options.mc.num_samples());
        assert_eq!(fixed.samples_drawn, fixed.budget);
        assert_eq!(fixed.early, None);
    }

    #[test]
    fn adaptive_decisions_agree_with_the_fixed_budget_path() {
        // Across thresholds spanning the whole range, the adaptive decision
        // must match `estimate >= threshold` of the fixed-budget run whenever
        // the fixed estimate is outside the (τ, ξ) band around the threshold
        // (inside the band either answer is within the accuracy contract).
        let (pg, q) = verification_candidate(10);
        let options = VerifyOptions {
            exact_cutoff: 0,
            mc: MonteCarloConfig {
                tau: 0.05,
                xi: 0.01,
                max_samples: 40_000,
            },
            adaptive: true,
            ..VerifyOptions::default()
        };
        let relaxed = relax_query_clamped(&q, 1);
        let mut rng = StdRng::seed_from_u64(5);
        let fixed = verify_ssp_with_stats(&pg, &q, 1, &relaxed, &options, 1, &mut rng);
        let mut saved_total = 0usize;
        for threshold in [0.0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0] {
            let mut rng = StdRng::seed_from_u64(5);
            let verdict = verify_adaptive(&pg, &relaxed, &options, threshold, true, &mut rng);
            assert!(verdict.samples_drawn <= verdict.budget);
            saved_total += verdict.budget - verdict.samples_drawn;
            if (fixed.ssp - threshold).abs() > options.mc.tau {
                assert_eq!(
                    verdict.early.unwrap_or(verdict.ssp >= threshold),
                    fixed.ssp >= threshold,
                    "threshold={threshold}: adaptive {} (early {:?}) vs fixed {}",
                    verdict.ssp,
                    verdict.early,
                    fixed.ssp
                );
            }
        }
        // Clear thresholds (far above or below the true SSP) must stop early.
        assert!(saved_total > 0, "no samples saved on any clear threshold");
    }

    #[test]
    fn adaptive_exact_shortcuts_match_with_stats() {
        let pg = fixture_002();
        let q = query();
        let relaxed = relax_query_clamped(&q, 1);
        let mut rng = StdRng::seed_from_u64(7);
        let fixed =
            verify_ssp_with_stats(&pg, &q, 1, &relaxed, &VerifyOptions::default(), 1, &mut rng);
        assert!(fixed.exact);
        let mut rng = StdRng::seed_from_u64(7);
        let verdict = verify_adaptive(
            &pg,
            &relaxed,
            &VerifyOptions::default(),
            0.5,
            true,
            &mut rng,
        );
        assert_eq!(verdict, fixed);
        assert_eq!(verdict.samples_drawn, 0);
        assert_eq!(verdict.budget, 0);
        assert_eq!(verdict.early, None);
        // The no-embedding shortcut (`degenerate_cases` covers trivial δ).
        let foreign = GraphBuilder::new().vertices(&[8, 9]).edge(0, 1, 9).build();
        let relaxed = relax_query_clamped(&foreign, 0);
        let verdict = verify_adaptive(
            &pg,
            &relaxed,
            &VerifyOptions::default(),
            0.5,
            true,
            &mut rng,
        );
        assert!(verdict.exact && verdict.ssp == 0.0);
    }

    #[test]
    fn one_preparation_finishes_like_a_fresh_verification_at_every_threshold() {
        // The split must be invisible: `finish` on one `prepare` reproduces a
        // fresh `verify_embeddings` (same caller seed) bit for bit, at any
        // threshold and either early-accept setting — the top-k walk relies
        // on it when it prepares candidates before their threshold is known.
        let (pg, q) = verification_candidate(10);
        let sampled = VerifyOptions {
            exact_cutoff: 0,
            ..VerifyOptions::default()
        };
        for (options, exact) in [(sampled, false), (VerifyOptions::default(), true)] {
            let relaxed = relax_query_clamped(&q, 1);
            let embeddings =
                collect_embeddings_of_relaxations(&pg, &relaxed, options.max_embeddings);
            let prepared = prepare(&pg, &embeddings, &options, &mut StdRng::seed_from_u64(31));
            assert_eq!(matches!(prepared, Prepared::Exact(_)), exact);
            let mut early_stops = 0usize;
            for threshold in [0.0, 0.05, 0.3, 0.6, 0.95, 1.0] {
                for accept_early in [false, true] {
                    let got = prepared.finish(threshold, accept_early, 1);
                    let want = verify_embeddings(
                        &pg,
                        &embeddings,
                        &options,
                        threshold,
                        accept_early,
                        1,
                        &mut StdRng::seed_from_u64(31),
                    );
                    let bits = |v: &VerifyOutcome| (v.ssp.to_bits(), v.samples_drawn, v.early);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "exact={exact} threshold={threshold} accept_early={accept_early}"
                    );
                    assert_eq!(got, want);
                    early_stops += usize::from(got.early.is_some());
                }
            }
            // The sampled candidate actually stops at some thresholds, so
            // the sweep reaches the rule's decisions, not just full budgets.
            assert_eq!(early_stops > 0, !exact);
        }
    }

    #[test]
    fn sampler_is_monotone_in_delta_on_average() {
        let pg = fixture_002();
        let q = query();
        let mut rng = StdRng::seed_from_u64(21);
        let opts = VerifyOptions::default();
        let p0 = sampled_ssp(&pg, &q, 0, &opts, &mut rng);
        let p1 = sampled_ssp(&pg, &q, 1, &opts, &mut rng);
        let p2 = sampled_ssp(&pg, &q, 2, &opts, &mut rng);
        assert!(p0 <= p1 + 0.05);
        assert!(p1 <= p2 + 0.05);
    }
}
