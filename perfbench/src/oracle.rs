//! The correctness gate: answers compared with an exact oracle.
//!
//! The oracle is independent of the indexes under test.  A brute-force scan
//! (feature-count filter plus exact subgraph distance on every database
//! skeleton) finds `SC_q`; every graph outside it has SSP 0 by Theorem 1.
//! Each graph inside gets its SSP from `verify_ssp_exact`, or, when its
//! embedding union spans more than [`EXACT_EDGES`] edges, from the same
//! high-precision sampler `QueryEngine::exact_scan` falls back to.  A disagreement with the
//! engine counts as a failure only when the oracle's SSP lies outside the
//! `(τ, ξ)` band around the decision threshold.

use pgs_graph::mcs::subgraph_similar;
use pgs_graph::model::Graph;
use pgs_graph::parallel::derive_seed;
use pgs_graph::relax::relax_query_clamped;
use pgs_query::pipeline::{EngineConfig, QueryEngine, RankedAnswer};
use pgs_query::structural::passes_feature_count_filter;
use pgs_query::verify::{verify_ssp_exact, verify_ssp_with_stats, VerifyOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Relevant edges up to which the oracle enumerates worlds exactly.  Lower
/// than `exact_scan`'s cap of 22: enumerating 2^22 worlds costs seconds and
/// hundreds of MiB per graph on label-poor data, for a value the sampler
/// fallback pins to within its τ.
pub const EXACT_EDGES: usize = 14;

/// One graph's oracle SSP and the relative error it may carry.
#[derive(Debug, Clone, Copy)]
struct OracleSsp {
    graph: usize,
    ssp: f64,
    /// 0 for an exact value, the sampler's τ otherwise.
    rel_err: f64,
}

/// Oracle SSPs of every graph in `SC_q` (all others are exactly 0).
fn oracle_ssps(engine: &QueryEngine, q: &Graph, delta: usize) -> Vec<OracleSsp> {
    let config: &EngineConfig = engine.config();
    let relaxed = relax_query_clamped(q, delta);
    let precise = VerifyOptions {
        mc: config.exact.fallback_mc,
        ..config.verify
    };
    engine
        .db()
        .iter()
        .enumerate()
        .filter(|(_, pg)| {
            passes_feature_count_filter(q, pg.skeleton(), delta)
                && subgraph_similar(q, pg.skeleton(), delta)
        })
        .map(
            |(gi, pg)| match verify_ssp_exact(pg, q, delta, EXACT_EDGES) {
                Ok(ssp) => OracleSsp {
                    graph: gi,
                    ssp,
                    rel_err: 0.0,
                },
                Err(_) => {
                    let seed = derive_seed(&[q.structural_hash(), gi as u64, 0x0AC1E]);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let v = verify_ssp_with_stats(pg, q, delta, &relaxed, &precise, 1, &mut rng);
                    OracleSsp {
                        graph: gi,
                        ssp: v.ssp,
                        rel_err: precise.mc.tau,
                    }
                }
            },
        )
        .collect()
}

/// Agreement of one threshold answer set with the oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThresholdCheck {
    /// Answers the oracle also returns.
    pub true_pos: usize,
    /// Engine answers.
    pub answered: usize,
    /// Oracle answers.
    pub expected: usize,
    /// Disagreements outside the `(τ, ξ)` band.
    pub violations: usize,
}

/// Checks `answers` (ascending graph ids) of the threshold query
/// `(q, epsilon, delta)` against the oracle.
pub fn check_threshold(
    engine: &QueryEngine,
    q: &Graph,
    epsilon: f64,
    delta: usize,
    answers: &[usize],
) -> ThresholdCheck {
    let tau = engine.config().verify.mc.tau;
    let oracle = oracle_ssps(engine, q, delta);
    let mut check = ThresholdCheck {
        answered: answers.len(),
        ..ThresholdCheck::default()
    };
    for o in &oracle {
        let expected = o.ssp >= epsilon;
        let answered = answers.binary_search(&o.graph).is_ok();
        check.expected += usize::from(expected);
        check.true_pos += usize::from(expected && answered);
        if expected != answered && (o.ssp - epsilon).abs() > band(o, tau) {
            check.violations += 1;
        }
    }
    // An answer outside SC_q has SSP exactly 0: always a violation.
    check.violations += answers
        .iter()
        .filter(|gi| !oracle.iter().any(|o| o.graph == **gi))
        .count();
    check
}

/// Agreement of one top-k ranking with the oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct TopkCheck {
    /// Returned graphs whose oracle SSP reaches the oracle's k-th best.
    pub in_oracle_topk: usize,
    /// Returned graphs.
    pub returned: usize,
    /// Returned graphs outside the band of the oracle's k-th best, plus
    /// missing answers when the oracle has at least `k` non-zero graphs.
    pub violations: usize,
}

/// Checks the top-`k` ranking `ranked` of `(q, delta)` against the oracle.
pub fn check_topk(
    engine: &QueryEngine,
    q: &Graph,
    k: usize,
    delta: usize,
    ranked: &[RankedAnswer],
) -> TopkCheck {
    let tau = engine.config().verify.mc.tau;
    let mut oracle = oracle_ssps(engine, q, delta);
    oracle.retain(|o| o.ssp > 0.0);
    oracle.sort_by(|a, b| b.ssp.total_cmp(&a.ssp));
    let kth = oracle.get(k.min(oracle.len()).saturating_sub(1)).copied();
    let mut check = TopkCheck {
        returned: ranked.len(),
        ..TopkCheck::default()
    };
    if ranked.len() < k.min(oracle.len()) {
        check.violations += 1;
    }
    for r in ranked {
        let Some(kth) = kth else {
            check.violations += 1;
            continue;
        };
        let ssp = oracle
            .iter()
            .find(|o| o.graph == r.graph)
            .map_or(0.0, |o| o.ssp);
        if ssp >= kth.ssp {
            check.in_oracle_topk += 1;
        } else if kth.ssp - ssp > band(&kth, tau) + ssp * tau {
            check.violations += 1;
        }
    }
    check
}

/// Half-width of the band around an oracle value within which the engine's
/// sampled verdict may legitimately land on either side: the engine's
/// relative error `τ` plus the oracle's own, plus float slack.
fn band(o: &OracleSsp, engine_tau: f64) -> f64 {
    o.ssp * (engine_tau + o.rel_err) + 1e-9
}
