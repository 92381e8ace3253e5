//! Lower and upper bounds of the subgraph-isomorphism probability (Section 4.1).
//!
//! For a feature `f` and a probabilistic graph `g`, the exact SIP
//! `Pr(f ⊆iso g)` is #P-complete, so the PMI stores bounds:
//!
//! * **Lower bound** (Section 4.1.1): pick a set `IN` of pairwise *disjoint*
//!   embeddings; then `Pr(f ⊆iso g) = Pr(∨ Bf_i) ≥ 1 − Π_{i∈IN}(1 − p_i)`
//!   where `p_i` is the (possibly conditional) probability of embedding `i`.
//!   The best `IN` maximises `Σ −ln(1 − p_i)`, i.e. a maximum-weight clique of
//!   the disjointness graph (Example 6).
//! * **Upper bound** (Section 4.1.2): pick a set `IN'` of pairwise disjoint
//!   *minimal embedding cuts*; then `Pr(f ⊆iso g) = Pr(∧ ¬Bc_j) ≤
//!   Π_{i∈IN'}(1 − p_i)` where `p_i` is the probability that cut `i` is fully
//!   absent.  The best `IN'` again comes from a maximum-weight clique.
//!
//! ## Disjointness rule
//!
//! The paper treats edge-disjoint embeddings as conditionally independent and
//! feeds the product formulas with the Algorithm 3 conditional probabilities
//! `Pr(Bf_i | COR)`.  Under the partitioned-JPT model of this workspace,
//! *table-disjoint* events (touching disjoint sets of JPTs) are exactly
//! independent, which makes both product bounds provably correct with plain
//! unconditional probabilities.  [`DisjointnessRule::TableDisjoint`] (default)
//! uses that sound rule; [`DisjointnessRule::EdgeDisjoint`] reproduces the
//! paper's rule verbatim and can be combined with `use_conditional` to obtain
//! the published formulas.  DESIGN.md §3 records this as a documented
//! substitution; the ablation bench compares the two.

use pgs_graph::clique::{max_weight_clique, BitMatrix};
use pgs_graph::cuts::minimal_cuts;
use pgs_graph::embeddings::{edge_sets_disjoint, EdgeSet, Embedding};
use pgs_graph::model::Graph;
use pgs_graph::summary::SummaryView;
use pgs_graph::vf2::{enumerate_embeddings_summarized, MatchOptions};
use pgs_prob::conditional::{conditional_event_probability, EventKind};
use pgs_prob::model::ProbabilisticGraph;
use pgs_prob::montecarlo::MonteCarloConfig;
use rand::Rng;

/// Lower/upper bounds of `Pr(f ⊆iso g)` stored in one PMI cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SipBounds {
    /// Lower bound of the SIP.
    pub lower: f64,
    /// Upper bound of the SIP.
    pub upper: f64,
}

impl SipBounds {
    /// The zero entry used when the feature does not occur in the skeleton.
    pub const ABSENT: SipBounds = SipBounds {
        lower: 0.0,
        upper: 0.0,
    };

    /// True if the interval is non-empty and within `[0, 1]`.
    pub fn is_valid(&self) -> bool {
        (0.0..=1.0).contains(&self.lower)
            && (0.0..=1.0).contains(&self.upper)
            && self.lower <= self.upper + 1e-9
    }
}

/// Which pairs of embeddings (or cuts) may be combined in the product bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisjointnessRule {
    /// Events must touch disjoint sets of JPT groups: they are then exactly
    /// independent under the partitioned model, so the product bounds are
    /// provably correct.  Default.
    TableDisjoint,
    /// The paper's rule: events must share no skeleton edge.  Combine with
    /// `use_conditional = true` for the exact published formulas.
    EdgeDisjoint,
}

/// Configuration of the bound computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundsConfig {
    /// Cap on embeddings enumerated per (feature, graph).
    pub max_embeddings: usize,
    /// Cap on minimal cuts enumerated per (feature, graph).
    pub max_cuts: usize,
    /// Disjointness rule for selecting combinable events.
    pub disjointness: DisjointnessRule,
    /// Use Algorithm 3 conditional probabilities `Pr(Bf_i | COR)` instead of
    /// unconditional event probabilities.
    pub use_conditional: bool,
    /// Tighten the bounds with a maximum-weight clique search (the paper's
    /// "OPT" variants); `false` falls back to greedy first-fit selection.
    pub tighten_with_clique: bool,
    /// Monte-Carlo accuracy for the conditional estimator.
    pub mc: MonteCarloConfig,
}

impl Default for BoundsConfig {
    fn default() -> Self {
        BoundsConfig {
            max_embeddings: 24,
            max_cuts: 64,
            disjointness: DisjointnessRule::TableDisjoint,
            use_conditional: false,
            tighten_with_clique: true,
            mc: MonteCarloConfig::coarse(),
        }
    }
}

impl BoundsConfig {
    /// The configuration reproducing the paper's formulas verbatim
    /// (edge-disjointness + Algorithm 3 conditional probabilities).
    pub fn paper_faithful() -> Self {
        BoundsConfig {
            disjointness: DisjointnessRule::EdgeDisjoint,
            use_conditional: true,
            ..Self::default()
        }
    }

    /// Greedy (non-clique) variant used by the SIPBound baseline and the
    /// ablation bench.
    pub fn greedy() -> Self {
        BoundsConfig {
            tighten_with_clique: false,
            ..Self::default()
        }
    }
}

/// Computes the SIP bounds of `feature` in `pg` from one VF2 enumeration,
/// screened by the feature's own summary and `skeleton_summary` (the
/// skeleton's).  `None` when the feature has no embedding in the skeleton:
/// the PMI leaves that cell absent.
pub fn sip_bounds<R: Rng + ?Sized>(
    pg: &ProbabilisticGraph,
    feature: &Graph,
    skeleton_summary: SummaryView<'_>,
    config: &BoundsConfig,
    rng: &mut R,
) -> Option<SipBounds> {
    let outcome = enumerate_embeddings_summarized(
        feature,
        pg.skeleton(),
        skeleton_summary,
        MatchOptions::capped(config.max_embeddings),
    );
    embedded_sip_bounds(
        pg,
        feature,
        outcome.embeddings,
        outcome.complete,
        config,
        rng,
    )
}

/// [`sip_bounds`] over an already enumerated embedding list: the first
/// `config.max_embeddings` embeddings of the feature in `pg`'s skeleton, in
/// VF2 order, `complete` when they are all of them.
pub(crate) fn embedded_sip_bounds<R: Rng + ?Sized>(
    pg: &ProbabilisticGraph,
    feature: &Graph,
    embeddings: Vec<Embedding>,
    complete: bool,
    config: &BoundsConfig,
    rng: &mut R,
) -> Option<SipBounds> {
    if feature.edge_count() == 0 {
        // The empty feature is contained in every possible world.
        return Some(SipBounds {
            lower: 1.0,
            upper: 1.0,
        });
    }
    if embeddings.is_empty() {
        return None;
    }
    let embeddings: Vec<EdgeSet> = embeddings.into_iter().map(|e| e.edges).collect();
    let lower = lower_bound(pg, &embeddings, config, rng);
    let upper = upper_bound(pg, &embeddings, complete, config, rng);
    let upper = upper.clamp(0.0, 1.0);
    let lower = lower.clamp(0.0, upper);
    Some(SipBounds { lower, upper })
}

/// Lower bound from disjoint embeddings (Equation 17 / Example 6).
fn lower_bound<R: Rng + ?Sized>(
    pg: &ProbabilisticGraph,
    embeddings: &[EdgeSet],
    config: &BoundsConfig,
    rng: &mut R,
) -> f64 {
    let probs = event_probabilities(pg, embeddings, EventKind::Embedding, config, rng);
    let total_weight = best_disjoint_weight(pg, embeddings, &probs, config);
    1.0 - (-total_weight).exp()
}

/// Upper bound from disjoint minimal embedding cuts (Equation 20).
fn upper_bound<R: Rng + ?Sized>(
    pg: &ProbabilisticGraph,
    embeddings: &[EdgeSet],
    embeddings_complete: bool,
    config: &BoundsConfig,
    rng: &mut R,
) -> f64 {
    // If the embedding enumeration was truncated, the cut family would miss
    // embeddings and the "upper bound" could undercut the true SIP; stay
    // conservative.
    if !embeddings_complete {
        return 1.0;
    }
    let (cuts, _complete) = minimal_cuts(embeddings, config.max_cuts);
    if cuts.is_empty() {
        return 1.0;
    }
    let probs = event_probabilities(pg, &cuts, EventKind::Cut, config, rng);
    let total_weight = best_disjoint_weight(pg, &cuts, &probs, config);
    (-total_weight).exp()
}

/// Event probabilities `p_i` (conditional per Algorithm 3, or unconditional).
fn event_probabilities<R: Rng + ?Sized>(
    pg: &ProbabilisticGraph,
    sets: &[EdgeSet],
    kind: EventKind,
    config: &BoundsConfig,
    rng: &mut R,
) -> Vec<f64> {
    sets.iter()
        .enumerate()
        .map(|(i, set)| {
            if config.use_conditional {
                let competitors: Vec<EdgeSet> = sets
                    .iter()
                    .enumerate()
                    .filter(|&(j, other)| j != i && !edge_sets_disjoint(set, other))
                    .map(|(_, other)| other.clone())
                    .collect();
                conditional_event_probability(pg, set, &competitors, kind, &config.mc, rng)
            } else {
                match kind {
                    EventKind::Embedding => pg.prob_all_present(set),
                    EventKind::Cut => pg.prob_all_absent(set),
                }
            }
        })
        .collect()
}

/// Picks the best family of pairwise-disjoint events and returns its total
/// weight `Σ −ln(1 − p_i)`.
fn best_disjoint_weight(
    pg: &ProbabilisticGraph,
    sets: &[EdgeSet],
    probs: &[f64],
    config: &BoundsConfig,
) -> f64 {
    let weights: Vec<f64> = probs
        .iter()
        .map(|&p| -(1.0 - p.clamp(0.0, 1.0 - 1e-12)).ln())
        .collect();
    let adjacent = compatibility_matrix(pg, sets, config.disjointness);
    if config.tighten_with_clique {
        max_weight_clique(&weights, &adjacent).weight
    } else {
        // Greedy first-fit in index order (the untightened SIPBound variant).
        let mut chosen: Vec<usize> = Vec::new();
        let mut total = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if chosen.iter().all(|&j| adjacent.get(i, j)) {
                chosen.push(i);
                total += w;
            }
        }
        total
    }
}

/// Pairwise compatibility of the events under the configured disjointness rule.
fn compatibility_matrix(
    pg: &ProbabilisticGraph,
    sets: &[EdgeSet],
    rule: DisjointnessRule,
) -> BitMatrix {
    let n = sets.len();
    let tables: Vec<Vec<usize>> = match rule {
        DisjointnessRule::TableDisjoint => sets.iter().map(|s| pg.tables_touched(s)).collect(),
        DisjointnessRule::EdgeDisjoint => Vec::new(),
    };
    let mut adj = BitMatrix::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let ok = match rule {
                DisjointnessRule::EdgeDisjoint => edge_sets_disjoint(&sets[i], &sets[j]),
                DisjointnessRule::TableDisjoint => disjoint_sorted(&tables[i], &tables[j]),
            };
            if ok {
                adj.set_pair(i, j);
            }
        }
    }
    adj
}

fn disjoint_sorted(a: &[usize], b: &[usize]) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgs_graph::generate::{
        random_connected_graph, random_connected_subgraph, RandomGraphConfig,
    };
    use pgs_graph::model::{EdgeId, GraphBuilder};
    use pgs_graph::summary::StructuralSummary;
    use pgs_graph::vf2::enumerate_embeddings;
    use pgs_prob::exact::exact_sip;
    use pgs_prob::jpt::JointProbTable;
    use pgs_prob::neighbor::partition_with_triangles;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Figure-1 graph 002 with max-rule tables.
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

    /// [`sip_bounds`] for a one-off pair: summarises the skeleton.
    fn bounds_of(
        pg: &ProbabilisticGraph,
        feature: &Graph,
        config: &BoundsConfig,
        rng: &mut StdRng,
    ) -> Option<SipBounds> {
        let gs = StructuralSummary::of(pg.skeleton());
        sip_bounds(pg, feature, gs.view(), config, rng)
    }

    fn exact_sip_of(pg: &ProbabilisticGraph, feature: &pgs_graph::model::Graph) -> f64 {
        let outcome = enumerate_embeddings(feature, pg.skeleton(), MatchOptions::default());
        let sets: Vec<EdgeSet> = outcome.embeddings.iter().map(|e| e.edges.clone()).collect();
        exact_sip(pg, &sets).unwrap()
    }

    #[test]
    fn bounds_bracket_the_exact_sip_on_the_fixture() {
        let pg = fixture_002();
        let mut rng = StdRng::seed_from_u64(1);
        let features = vec![
            GraphBuilder::new().vertices(&[0, 1]).edge(0, 1, 9).build(), // a-b
            GraphBuilder::new().vertices(&[1, 2]).edge(0, 1, 9).build(), // b-c
            GraphBuilder::new()
                .vertices(&[0, 0, 1])
                .edge(0, 1, 9)
                .edge(1, 2, 9)
                .edge(0, 2, 9)
                .build(), // triangle a-a-b
            GraphBuilder::new()
                .vertices(&[0, 1, 1])
                .edge(0, 1, 9)
                .edge(1, 2, 9)
                .build(), // path a-b-b
        ];
        for f in &features {
            let bounds = bounds_of(&pg, f, &BoundsConfig::default(), &mut rng).unwrap();
            let exact = exact_sip_of(&pg, f);
            assert!(bounds.is_valid(), "bounds {bounds:?} invalid");
            assert!(
                bounds.lower <= exact + 1e-9,
                "lower {} must not exceed exact {exact}",
                bounds.lower
            );
            assert!(
                bounds.upper + 1e-9 >= exact,
                "upper {} must not undercut exact {exact}",
                bounds.upper
            );
        }
    }

    #[test]
    fn absent_feature_has_no_bounds() {
        let pg = fixture_002();
        let mut rng = StdRng::seed_from_u64(2);
        let missing = GraphBuilder::new().vertices(&[5, 6]).edge(0, 1, 9).build();
        let bounds = bounds_of(&pg, &missing, &BoundsConfig::default(), &mut rng);
        assert_eq!(bounds, None);
    }

    #[test]
    fn empty_feature_is_certain() {
        let pg = fixture_002();
        let mut rng = StdRng::seed_from_u64(3);
        let empty = pgs_graph::model::Graph::new();
        let bounds = bounds_of(&pg, &empty, &BoundsConfig::default(), &mut rng).unwrap();
        assert_eq!(bounds.lower, 1.0);
        assert_eq!(bounds.upper, 1.0);
    }

    #[test]
    fn clique_tightening_is_at_least_as_good_as_greedy() {
        let pg = fixture_002();
        let mut rng = StdRng::seed_from_u64(4);
        let feature = GraphBuilder::new()
            .vertices(&[0, 1, 1])
            .edge(0, 1, 9)
            .edge(1, 2, 9)
            .build();
        let tight = bounds_of(&pg, &feature, &BoundsConfig::default(), &mut rng).unwrap();
        let greedy = bounds_of(&pg, &feature, &BoundsConfig::greedy(), &mut rng).unwrap();
        assert!(tight.lower + 1e-9 >= greedy.lower);
        assert!(tight.upper <= greedy.upper + 1e-9);
    }

    #[test]
    fn paper_faithful_config_produces_valid_intervals_on_fixture() {
        let pg = fixture_002();
        let mut rng = StdRng::seed_from_u64(5);
        let feature = GraphBuilder::new().vertices(&[0, 1]).edge(0, 1, 9).build();
        let bounds = bounds_of(&pg, &feature, &BoundsConfig::paper_faithful(), &mut rng).unwrap();
        assert!(bounds.is_valid());
        assert!(bounds.upper > 0.0);
    }

    #[test]
    fn bounds_bracket_exact_sip_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(2024);
        for case in 0..10 {
            let skeleton = random_connected_graph(
                &RandomGraphConfig {
                    vertices: 8,
                    edges: 12,
                    vertex_labels: 3,
                    edge_labels: 1,
                    preferential: false,
                },
                &mut rng,
            );
            let groups = partition_with_triangles(&skeleton, 3);
            let tables: Vec<JointProbTable> = groups
                .iter()
                .map(|grp| {
                    let edge_probs: Vec<(EdgeId, f64)> = grp
                        .iter()
                        .map(|&e| (e, 0.2 + 0.6 * rand::Rng::gen::<f64>(&mut rng)))
                        .collect();
                    JointProbTable::from_max_rule(&edge_probs).unwrap()
                })
                .collect();
            let pg = ProbabilisticGraph::new(skeleton.clone(), tables, true).unwrap();
            let feature = random_connected_subgraph(&skeleton, 2, &mut rng)
                .expect("feature extraction succeeds");
            let bounds = bounds_of(&pg, &feature, &BoundsConfig::default(), &mut rng).unwrap();
            let exact = exact_sip_of(&pg, &feature);
            assert!(
                bounds.lower <= exact + 1e-9 && exact <= bounds.upper + 1e-9,
                "case {case}: bounds [{}, {}] do not bracket exact {exact}",
                bounds.lower,
                bounds.upper
            );
        }
    }

    #[test]
    fn compatibility_matrix_rules_differ() {
        let pg = fixture_002();
        // Edges 0 and 1 are edge-disjoint but share table 0; edges 0 and 3 are
        // both edge- and table-disjoint.
        let sets = vec![vec![EdgeId(0)], vec![EdgeId(1)], vec![EdgeId(3)]];
        let edge_adj = compatibility_matrix(&pg, &sets, DisjointnessRule::EdgeDisjoint);
        let table_adj = compatibility_matrix(&pg, &sets, DisjointnessRule::TableDisjoint);
        assert!(edge_adj.get(0, 1));
        assert!(!table_adj.get(0, 1));
        assert!(edge_adj.get(0, 2) && table_adj.get(0, 2));
    }
}
