//! Algorithm 3: Monte-Carlo estimation of `Pr(Bf_i | COR)` / `Pr(Bc_i | COM)`.
//!
//! The SIP bounds of Section 4.1 need, for every selected embedding `f_i` (or
//! cut `c_i`), the probability that its event occurs *conditioned on none of
//! the overlapping embeddings (cuts) occurring*:
//!
//! * embeddings — event: all edges of `f_i` present; conditioning: no
//!   overlapping embedding has all of its edges present;
//! * cuts — event: all edges of `c_i` absent; conditioning: no overlapping cut
//!   has all of its edges absent.
//!
//! Algorithm 3 samples possible worlds and returns the ratio `n1/n2` of
//! "event ∧ condition" to "condition" counts.  We implement it verbatim plus an
//! exact variant (the `u64` world enumerator of [`crate::exact`]) used as a
//! test oracle and automatically selected when the relevant edge set is small.

use crate::error::ProbError;
use crate::exact::{for_each_world, world_mask, DEFAULT_EXACT_LIMIT};
use crate::model::ProbabilisticGraph;
use crate::montecarlo::MonteCarloConfig;
use crate::union_sampler::{mask_covered, mask_disjoint, ProjectedWorlds};
use pgs_graph::embeddings::EdgeSet;
use pgs_graph::model::EdgeId;
use rand::Rng;

/// Which event family the estimator works on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Embedding events: "all edges of the set are present".
    Embedding,
    /// Cut events: "all edges of the set are absent".
    Cut,
}

impl EventKind {
    /// True if the event holds in a [`for_each_world`] world (`mask` from
    /// [`world_mask`] over the same relevant edges).
    fn holds(self, world: u64, mask: u64) -> bool {
        match self {
            EventKind::Embedding => world & mask == mask,
            EventKind::Cut => world & mask == 0,
        }
    }

    /// True if the event holds in a projected bitset world (`mask` built over
    /// the same projection as `world`).
    fn holds_mask(self, world: &[u64], mask: &[u64]) -> bool {
        match self {
            EventKind::Embedding => mask_covered(world, mask),
            EventKind::Cut => mask_disjoint(world, mask),
        }
    }
}

/// Estimates `Pr(event(target) | ¬event(c) ∀ c ∈ competitors)` by sampling
/// possible worlds (Algorithm 3).
///
/// When the conditioning event never occurs in the sample (n2 = 0) the
/// unconditional probability of the target event is returned as a fallback —
/// with a valid model this only happens for extremely unlikely conditionings,
/// where either value leaves the bounds conservative.
pub fn conditional_event_probability<R: Rng + ?Sized>(
    pg: &ProbabilisticGraph,
    target: &[EdgeId],
    competitors: &[EdgeSet],
    kind: EventKind,
    config: &MonteCarloConfig,
    rng: &mut R,
) -> f64 {
    // Small instances: compute exactly over the union of the relevant edges.
    let relevant = relevant_edges(target, competitors);
    if relevant.len() <= 16 {
        if let Ok(value) = exact_conditional_event_probability(pg, target, competitors, kind) {
            return value;
        }
    }
    // Sampling path: project onto the tables the relevant edges touch (every
    // other table is independent of both events under the partitioned model)
    // and evaluate the events as word-wise mask compares on a reused scratch
    // bitset — zero allocation per trial.
    let projection = ProjectedWorlds::new(pg, &relevant);
    let target_mask = projection.mask_of(target);
    let competitor_masks: Vec<Vec<u64>> =
        competitors.iter().map(|c| projection.mask_of(c)).collect();
    let mut scratch = vec![0u64; projection.words()];
    let n = config.num_samples();
    let mut n1 = 0usize;
    let mut n2 = 0usize;
    for _ in 0..n {
        projection.sample_into(rng, &mut scratch);
        let competitor_hit = competitor_masks
            .iter()
            .any(|m| kind.holds_mask(&scratch, m));
        if !competitor_hit {
            n2 += 1;
            if kind.holds_mask(&scratch, &target_mask) {
                n1 += 1;
            }
        }
    }
    if n2 == 0 {
        return match kind {
            EventKind::Embedding => pg.prob_all_present(target),
            EventKind::Cut => pg.prob_all_absent(target),
        };
    }
    n1 as f64 / n2 as f64
}

/// Exact version of [`conditional_event_probability`]: enumerates all
/// assignments of the union of the relevant edges (errors if that union spans
/// more than [`DEFAULT_EXACT_LIMIT`] edges or names an edge past the skeleton).
pub fn exact_conditional_event_probability(
    pg: &ProbabilisticGraph,
    target: &[EdgeId],
    competitors: &[EdgeSet],
    kind: EventKind,
) -> Result<f64, ProbError> {
    let relevant = relevant_edges(target, competitors);
    let target_mask = world_mask(&relevant, target);
    let competitor_masks: Vec<u64> = competitors
        .iter()
        .map(|c| world_mask(&relevant, c))
        .collect();
    let mut p_condition = 0.0;
    let mut p_joint = 0.0;
    for_each_world(pg, &relevant, DEFAULT_EXACT_LIMIT, |world, prob| {
        if competitor_masks.iter().any(|&m| kind.holds(world, m)) {
            return;
        }
        p_condition += prob;
        if kind.holds(world, target_mask) {
            p_joint += prob;
        }
    })?;
    if p_condition <= 0.0 {
        return Ok(match kind {
            EventKind::Embedding => pg.prob_all_present(target),
            EventKind::Cut => pg.prob_all_absent(target),
        });
    }
    Ok(p_joint / p_condition)
}

fn relevant_edges(target: &[EdgeId], competitors: &[EdgeSet]) -> Vec<EdgeId> {
    let mut all: Vec<EdgeId> = target.to_vec();
    for c in competitors {
        all.extend_from_slice(c);
    }
    all.sort_unstable();
    all.dedup();
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jpt::JointProbTable;
    use pgs_graph::model::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A 4-edge path with two independent-table groups so both exact and
    /// sampled paths are exercised.
    fn pg() -> ProbabilisticGraph {
        let g = GraphBuilder::new()
            .vertices(&[0, 0, 0, 0, 0])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(2, 3, 0)
            .edge(3, 4, 0)
            .build();
        let t1 = JointProbTable::from_max_rule(&[(EdgeId(0), 0.6), (EdgeId(1), 0.5)]).unwrap();
        let t2 = JointProbTable::from_max_rule(&[(EdgeId(2), 0.7), (EdgeId(3), 0.3)]).unwrap();
        ProbabilisticGraph::new(g, vec![t1, t2], true).unwrap()
    }

    #[test]
    fn no_competitors_reduces_to_unconditional() {
        let pg = pg();
        let mut rng = StdRng::seed_from_u64(7);
        let target = vec![EdgeId(0), EdgeId(1)];
        let est = conditional_event_probability(
            &pg,
            &target,
            &[],
            EventKind::Embedding,
            &MonteCarloConfig::default(),
            &mut rng,
        );
        let exact = pg.prob_all_present(&target);
        assert!(
            (est - exact).abs() < 1e-9,
            "exact path should be taken: {est} vs {exact}"
        );
    }

    #[test]
    fn conditioning_on_disjoint_competitor_changes_nothing_for_independent_groups() {
        let pg = pg();
        let mut rng = StdRng::seed_from_u64(11);
        let target = vec![EdgeId(0)];
        let competitors = vec![vec![EdgeId(2), EdgeId(3)]];
        let got = conditional_event_probability(
            &pg,
            &target,
            &competitors,
            EventKind::Embedding,
            &MonteCarloConfig::default(),
            &mut rng,
        );
        // Edge 0 is independent of edges 2,3 (different tables), so the
        // conditional equals the marginal.
        let exact = pg.edge_presence_prob(EdgeId(0));
        assert!((got - exact).abs() < 1e-9);
    }

    #[test]
    fn conditioning_on_overlapping_competitor_lowers_embedding_probability() {
        let pg = pg();
        // Target {e0}; competitor {e0, e1}. Conditioned on "not (e0 and e1)",
        // the probability of e0 being present drops below its marginal.
        let target = vec![EdgeId(0)];
        let competitors = vec![vec![EdgeId(0), EdgeId(1)]];
        let exact =
            exact_conditional_event_probability(&pg, &target, &competitors, EventKind::Embedding)
                .unwrap();
        assert!(exact < pg.edge_presence_prob(EdgeId(0)));
        assert!(exact >= 0.0);
    }

    #[test]
    fn cut_events_use_absence() {
        let pg = pg();
        let target = vec![EdgeId(0)];
        let exact = exact_conditional_event_probability(&pg, &target, &[], EventKind::Cut).unwrap();
        assert!((exact - (1.0 - pg.edge_presence_prob(EdgeId(0)))).abs() < 1e-9);
    }

    #[test]
    fn projected_sampling_path_matches_exact_on_large_instance() {
        // 18 relevant edges: above the 16-edge exact shortcut (the projected
        // sampling path runs) but still small enough for the exact oracle.
        let m = 18usize;
        let g = {
            let mut b = GraphBuilder::new().vertices(&vec![0u32; m + 1]);
            for i in 0..m {
                b = b.edge(i as u32, i as u32 + 1, 0);
            }
            b.build()
        };
        let probs: Vec<f64> = (0..m).map(|i| 0.8 + 0.01 * (i % 10) as f64).collect();
        let pg = ProbabilisticGraph::independent(g, &probs).unwrap();
        let target: Vec<EdgeId> = (0..6).map(|i| EdgeId(i as u32)).collect();
        let competitors: Vec<EdgeSet> = vec![
            (4..12).map(|i| EdgeId(i as u32)).collect(),
            (10..18).map(|i| EdgeId(i as u32)).collect(),
        ];
        let exact =
            exact_conditional_event_probability(&pg, &target, &competitors, EventKind::Embedding)
                .unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let sampled = conditional_event_probability(
            &pg,
            &target,
            &competitors,
            EventKind::Embedding,
            &MonteCarloConfig {
                tau: 0.05,
                xi: 0.01,
                max_samples: 60_000,
            },
            &mut rng,
        );
        assert!(
            (sampled - exact).abs() < 0.03,
            "sampled {sampled} vs exact {exact}"
        );
        // Same instance, cut events.
        let exact_cut =
            exact_conditional_event_probability(&pg, &target, &competitors, EventKind::Cut)
                .unwrap();
        let sampled_cut = conditional_event_probability(
            &pg,
            &target,
            &competitors,
            EventKind::Cut,
            &MonteCarloConfig {
                tau: 0.05,
                xi: 0.01,
                max_samples: 60_000,
            },
            &mut rng,
        );
        assert!(
            (sampled_cut - exact_cut).abs() < 0.03,
            "sampled {sampled_cut} vs exact {exact_cut}"
        );
    }
}
