//! The shape claims of the paper's evaluation (Section 6), checked on the
//! same counter series `experiments` prints (`pgs_bench::figure_*`).
//!
//! Everything asserted here is deterministic: candidate sizes and
//! verification counts are counters, and every sampled quantity is seeded
//! from the query and the graph.  Claims that do not hold on the synthetic
//! data are listed as deviations in DESIGN.md §3, not asserted here.  Fig. 14
//! (COR vs IND) and the §6 ablations are asserted by the suites DESIGN.md
//! §5 and §6 name.

use pgs_bench::{figure_10, figure_11, figure_13};
use pgs_datagen::scenarios::DatasetScale;

/// Fig. 10: raising ε never grows a variant's candidate set (the phase-2
/// bounds are seeded by query and graph, never by ε), and at every ε
/// OPT-SSPBound keeps at most what SSPBound keeps, which keeps at most what
/// Structure keeps.
#[test]
fn figure_10_candidates_fall_as_epsilon_rises_and_tighter_bounds_prune_more() {
    let sweep = figure_10(DatasetScale::Tiny);
    assert_eq!(sweep.len(), 5);
    for (epsilon, per_query) in &sweep {
        for (q, sizes) in per_query.iter().enumerate() {
            let [structure, ssp, opt] = sizes[..] else {
                panic!("Fig. 10: three series expected, got {sizes:?}");
            };
            assert!(
                structure >= ssp && ssp >= opt,
                "Fig. 10: ε = {epsilon}, query {q}: Structure {structure} ≥ SSPBound {ssp} \
                 ≥ OPT-SSPBound {opt} violated"
            );
        }
    }
    for pair in sweep.windows(2) {
        let ((lo, before), (hi, after)) = (&pair[0], &pair[1]);
        for (q, (before, after)) in before.iter().zip(after).enumerate() {
            for (series, (b, a)) in before.iter().zip(after).enumerate() {
                assert!(
                    a <= b,
                    "Fig. 10: query {q}, series {series}: {b} candidates at ε = {lo} \
                     but {a} at ε = {hi}"
                );
            }
        }
    }
}

/// Fig. 11: a looser distance threshold δ admits more structural candidates,
/// and at every δ clique-tightened SIP bounds keep at most what greedy SIP
/// bounds keep, which keep at most what Structure keeps.
#[test]
fn figure_11_candidates_grow_with_delta_and_clique_bounds_prune_most() {
    let sweep = figure_11(DatasetScale::Tiny);
    assert_eq!(sweep.iter().map(|(d, _)| *d).collect::<Vec<_>>(), [1, 2, 3]);
    for (delta, per_query) in &sweep {
        for (q, sizes) in per_query.iter().enumerate() {
            let [structure, greedy, clique] = sizes[..] else {
                panic!("Fig. 11: three series expected, got {sizes:?}");
            };
            assert!(
                structure >= greedy && greedy >= clique,
                "Fig. 11: δ = {delta}, query {q}: Structure {structure} ≥ greedy {greedy} \
                 ≥ clique {clique} violated"
            );
        }
    }
    for pair in sweep.windows(2) {
        let ((lo, before), (hi, after)) = (&pair[0], &pair[1]);
        for (q, (before, after)) in before.iter().zip(after).enumerate() {
            assert!(
                before[0] <= after[0],
                "Fig. 11: query {q}: {} Structure candidates at δ = {lo} but {} at δ = {hi}",
                before[0],
                after[0]
            );
        }
    }
}

/// Fig. 13: at every database size the PMI pipeline returns exactly the
/// exact scan's answers while verifying fewer graphs.
#[test]
fn figure_13_pmi_matches_the_exact_scan_and_verifies_fewer_graphs() {
    let sweep = figure_13(DatasetScale::Tiny, &[24, 48, 96]);
    assert_eq!(sweep.len(), 3);
    for point in &sweep {
        let n = point.graph_count;
        assert!(
            !point.per_query.is_empty(),
            "Fig. 13: |D| = {n} has no queries"
        );
        for (q, (pmi, exact)) in point.per_query.iter().enumerate() {
            assert_eq!(
                pmi.answers, exact.answers,
                "Fig. 13: |D| = {n}, query {q}: PMI answers differ from the exact scan's"
            );
            assert_eq!(
                exact.stats.verified, n,
                "Fig. 13: the exact scan verifies all of D"
            );
            assert!(
                pmi.stats.verified < n,
                "Fig. 13: |D| = {n}, query {q}: PMI verified {} of {n} graphs",
                pmi.stats.verified
            );
        }
    }
}
