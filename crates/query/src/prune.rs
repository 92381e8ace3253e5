//! Probabilistic pruning (Section 3): the PMI-based upper/lower bounds of the
//! subgraph similarity probability and the two pruning rules.
//!
//! For a candidate graph `g` (column of the PMI) and the relaxed query set
//! `U = {rq_1, .., rq_a}`:
//!
//! * **Pruning rule 1** (Theorem 3) — any family of indexed features covering
//!   `U` from below (`f_j ⊆iso rq_i`) yields the upper bound
//!   `Usim(q) = Σ UpperB(f_j)`; if `Usim(q) < ε` the graph is pruned.
//! * **Pruning rule 2** (Theorem 4) — any family of features covering `U` from
//!   above (`rq_i ⊆iso f_j`) yields the lower bound
//!   `Lsim(q) = Σ LowerB(f_j) − Σ cross(f_i, f_j)`; if `Lsim(q) ≥ ε` the graph
//!   is a guaranteed answer.
//!
//! The *tightest* bounds use the greedy set cover of Algorithm 1 and the
//! QP/rounding of Algorithm 2 (the paper's `OPT-SSPBound`); the untightened
//! variant picks one arbitrary qualifying feature per relaxed query (the
//! paper's `SSPBound`), which is what Section 6 benchmarks against.

use crate::qp::{tightest_lsim, LsimSet, QpOptions};
use crate::setcover::greedy_weighted_set_cover;
use pgs_graph::model::Graph;
use pgs_graph::vf2::contains_subgraph;
use pgs_index::pmi::Pmi;
use rand::Rng;

/// How the pairwise cross term of the lower bound is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrossTermRule {
    /// `min(UpperB_i, UpperB_j)` — always a valid upper bound of the joint
    /// probability, hence the resulting `Lsim` is always a true lower bound.
    #[default]
    SafeMin,
    /// `UpperB_i · UpperB_j` — the formula printed in the paper (Theorem 4);
    /// tighter, but only valid when the feature events are (close to)
    /// independent.
    PaperProduct,
}

/// The per-graph set-cover instance extracted from the PMI (the paper's `D_g`
/// re-indexed by relaxed query).
#[derive(Debug, Clone, Default)]
pub struct BoundInstance {
    /// Number of relaxed queries (`a = |U|`).
    pub universe: usize,
    /// For Usim: `(feature id, relaxed queries containing the feature, UpperB)`.
    pub subgraph_sets: Vec<(usize, Vec<usize>, f64)>,
    /// For Lsim: `(feature id, relaxed queries contained in the feature,
    /// LowerB, UpperB)`.
    pub supergraph_sets: Vec<(usize, Vec<usize>, f64, f64)>,
}

impl BoundInstance {
    /// Builds the instance for PMI column `graph_idx` and relaxed query set `relaxed`.
    pub fn build(pmi: &Pmi, graph_idx: usize, relaxed: &[Graph]) -> BoundInstance {
        let mut instance = BoundInstance {
            universe: relaxed.len(),
            ..BoundInstance::default()
        };
        for feature in pmi.features() {
            // Figure 4's convention: a feature that is not a subgraph of the
            // skeleton has the entry ⟨0⟩, i.e. `UpperB = LowerB = 0`.  Such
            // zero-weight sets make the upper-bound cover maximally tight
            // (any relaxed query containing an absent feature has probability
            // zero), while they are useless for the lower bound and skipped.
            let bounds = pmi
                .bounds(graph_idx, feature.id)
                .unwrap_or(pgs_index::sip_bounds::SipBounds::ABSENT);
            let present = pmi.bounds(graph_idx, feature.id).is_some();
            let mut contained_in: Vec<usize> = Vec::new(); // f ⊆iso rq
            let mut contains: Vec<usize> = Vec::new(); // rq ⊆iso f
            for (ri, rq) in relaxed.iter().enumerate() {
                if feature.graph.edge_count() <= rq.edge_count()
                    && contains_subgraph(&feature.graph, rq)
                {
                    contained_in.push(ri);
                }
                if present
                    && rq.edge_count() <= feature.graph.edge_count()
                    && contains_subgraph(rq, &feature.graph)
                {
                    contains.push(ri);
                }
            }
            if !contained_in.is_empty() {
                instance
                    .subgraph_sets
                    .push((feature.id, contained_in, bounds.upper));
            }
            if !contains.is_empty() {
                instance
                    .supergraph_sets
                    .push((feature.id, contains, bounds.lower, bounds.upper));
            }
        }
        instance
    }

    /// The tightest `Usim(q)` (Algorithm 1).  Relaxed queries not covered by
    /// any feature fall back to the trivial per-element bound of 1.0.
    pub fn usim_optimal(&self) -> f64 {
        let mut sets: Vec<(Vec<usize>, f64)> = self
            .subgraph_sets
            .iter()
            .map(|(_, elems, upper)| (elems.clone(), *upper))
            .collect();
        // Trivial fallback sets guarantee coverage.
        let covered: Vec<bool> = coverage(self.universe, sets.iter().map(|(e, _)| e.as_slice()));
        for (i, c) in covered.iter().enumerate() {
            if !c {
                sets.push((vec![i], 1.0));
            }
        }
        let solution = greedy_weighted_set_cover(self.universe, &sets);
        solution.total_weight
    }

    /// The untightened `Usim(q)`: one arbitrary qualifying feature per relaxed
    /// query (the `SSPBound` baseline).
    pub fn usim_random<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let mut total = 0.0;
        for element in 0..self.universe {
            let candidates: Vec<f64> = self
                .subgraph_sets
                .iter()
                .filter(|(_, elems, _)| elems.contains(&element))
                .map(|(_, _, upper)| *upper)
                .collect();
            total += if candidates.is_empty() {
                1.0
            } else {
                candidates[rng.gen_range(0..candidates.len())]
            };
        }
        total
    }

    /// The tightest `Lsim(q)` (Algorithm 2).
    pub fn lsim_optimal<R: Rng + ?Sized>(&self, cross: CrossTermRule, rng: &mut R) -> f64 {
        let sets: Vec<LsimSet> = self
            .supergraph_sets
            .iter()
            .map(|(_, elems, lower, upper)| LsimSet {
                elements: elems.clone(),
                lower: *lower,
                upper: *upper,
            })
            .collect();
        let options = QpOptions {
            paper_product_cross_term: cross == CrossTermRule::PaperProduct,
            ..QpOptions::default()
        };
        tightest_lsim(self.universe, &sets, &options, rng).value
    }

    /// The untightened `Lsim(q)`: one arbitrary qualifying feature per relaxed
    /// query; zero when some relaxed query has none.
    pub fn lsim_random<R: Rng + ?Sized>(&self, cross: CrossTermRule, rng: &mut R) -> f64 {
        let mut chosen: Vec<usize> = Vec::new();
        for element in 0..self.universe {
            let candidates: Vec<usize> = self
                .supergraph_sets
                .iter()
                .enumerate()
                .filter(|(_, (_, elems, _, _))| elems.contains(&element))
                .map(|(i, _)| i)
                .collect();
            if candidates.is_empty() {
                return 0.0;
            }
            let pick = candidates[rng.gen_range(0..candidates.len())];
            if !chosen.contains(&pick) {
                chosen.push(pick);
            }
        }
        let options = QpOptions {
            paper_product_cross_term: cross == CrossTermRule::PaperProduct,
            ..QpOptions::default()
        };
        let sets: Vec<LsimSet> = self
            .supergraph_sets
            .iter()
            .map(|(_, elems, lower, upper)| LsimSet {
                elements: elems.clone(),
                lower: *lower,
                upper: *upper,
            })
            .collect();
        crate::qp::lsim_value(&sets, &chosen, &options)
    }
}

fn coverage<'a>(universe: usize, sets: impl Iterator<Item = &'a [usize]>) -> Vec<bool> {
    let mut covered = vec![false; universe];
    for set in sets {
        for &e in set {
            if e < universe {
                covered[e] = true;
            }
        }
    }
    covered
}

/// Decision taken for one candidate graph during probabilistic pruning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PruneDecision {
    /// `Usim(q) < ε`: the graph cannot be an answer (Pruning rule 1).
    Pruned {
        /// The computed upper bound.
        usim: f64,
    },
    /// `Lsim(q) ≥ ε`: the graph is an answer without verification (rule 2).
    Accepted {
        /// The computed lower bound.
        lsim: f64,
    },
    /// Neither rule fired; the graph goes to verification.
    Candidate {
        /// The computed upper bound.
        usim: f64,
        /// The computed lower bound.
        lsim: f64,
    },
}

/// Outcome of probabilistic pruning over a whole candidate set.
#[derive(Debug, Clone, Default)]
pub struct PruneOutcome {
    /// Graphs accepted by Pruning rule 2 (guaranteed answers).
    pub accepted: Vec<usize>,
    /// Graphs that still need verification.
    pub candidates: Vec<usize>,
    /// Graphs discarded by Pruning rule 1.
    pub pruned: Vec<usize>,
}

impl PruneOutcome {
    /// Number of graphs that survived rule 1 (the paper's "candidate size"
    /// metric for the probabilistic pruning figures).
    pub fn surviving(&self) -> usize {
        self.accepted.len() + self.candidates.len()
    }
}

impl PruneOutcome {
    /// Partitions `candidate_graphs` according to per-candidate `decisions`
    /// (parallel slices of equal length).  Because each decision is pushed in
    /// candidate order, the three index lists stay sorted whenever the input
    /// candidate list is sorted — the parallel executor relies on this to
    /// produce thread-count-independent outcomes.
    pub fn from_decisions(candidate_graphs: &[usize], decisions: &[PruneDecision]) -> PruneOutcome {
        debug_assert_eq!(candidate_graphs.len(), decisions.len());
        let mut outcome = PruneOutcome::default();
        for (&gi, decision) in candidate_graphs.iter().zip(decisions) {
            match decision {
                PruneDecision::Pruned { .. } => outcome.pruned.push(gi),
                PruneDecision::Accepted { .. } => outcome.accepted.push(gi),
                PruneDecision::Candidate { .. } => outcome.candidates.push(gi),
            }
        }
        outcome
    }
}

/// Pruning rules 1 and 2 applied to a computed `(Usim, Lsim)` pair.
pub(crate) fn pruning_rules(usim: f64, lsim: f64, epsilon: f64) -> PruneDecision {
    if usim < epsilon {
        PruneDecision::Pruned { usim }
    } else if lsim >= epsilon {
        PruneDecision::Accepted { lsim }
    } else {
        PruneDecision::Candidate { usim, lsim }
    }
}

/// Computes the `(Usim, Lsim)` bound pair for a single candidate: builds the
/// set-cover instance from the PMI column and evaluates both bounds, drawing
/// from `rng` in a fixed order (`usim_random` before `lsim_*`).
///
/// Threshold queries apply `pruning_rules` to the pair; the ranked top-k
/// path orders candidates by `Usim` and seeds its running k-th-best cut with
/// `Lsim`, so it needs the raw bounds rather than an ε-decision.  The engine
/// seeds a fresh RNG per candidate, so the pair depends only on
/// `(pmi, graph_idx, relaxed, rng seed)`.
pub fn bound_candidate<R: Rng + ?Sized>(
    pmi: &Pmi,
    graph_idx: usize,
    relaxed: &[Graph],
    optimal: bool,
    cross: CrossTermRule,
    rng: &mut R,
) -> (f64, f64) {
    let instance = BoundInstance::build(pmi, graph_idx, relaxed);
    let usim = if optimal {
        instance.usim_optimal()
    } else {
        instance.usim_random(rng)
    };
    let lsim = if optimal {
        instance.lsim_optimal(cross, rng)
    } else {
        instance.lsim_random(cross, rng)
    };
    (usim, lsim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgs_graph::model::{EdgeId, GraphBuilder};
    use pgs_graph::relax::relax_query;
    use pgs_index::feature::FeatureSelectionParams;
    use pgs_index::pmi::PmiBuildParams;
    use pgs_index::sip_bounds::BoundsConfig;
    use pgs_prob::exact::exact_ssp;
    use pgs_prob::jpt::JointProbTable;
    use pgs_prob::model::ProbabilisticGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn database() -> Vec<ProbabilisticGraph> {
        // Three graphs built from a-b / b-c edges with different shapes so the
        // pruning outcome differs per graph.
        let mk = |edges: &[(u32, u32)], labels: &[u32], probs: &[f64], name: &str| {
            let mut b = GraphBuilder::new().name(name).vertices(labels);
            for &(u, v) in edges {
                b = b.edge(u, v, 9);
            }
            let g = b.build();
            let tables: Vec<JointProbTable> = pgs_prob::neighbor::partition_with_triangles(&g, 3)
                .iter()
                .map(|grp| {
                    let ep: Vec<(EdgeId, f64)> =
                        grp.iter().map(|&e| (e, probs[e.index()])).collect();
                    JointProbTable::from_max_rule(&ep).unwrap()
                })
                .collect();
            ProbabilisticGraph::new(g, tables, true).unwrap()
        };
        vec![
            // Contains the whole query with high probabilities.
            mk(
                &[(0, 1), (1, 2), (0, 2), (2, 3)],
                &[0, 1, 2, 1],
                &[0.9, 0.9, 0.9, 0.8],
                "high",
            ),
            // Contains the whole query with low probabilities.
            mk(
                &[(0, 1), (1, 2), (0, 2)],
                &[0, 1, 2],
                &[0.15, 0.1, 0.12],
                "low",
            ),
            // Contains only part of the query.
            mk(&[(0, 1), (1, 2)], &[0, 1, 0], &[0.8, 0.7], "partial"),
        ]
    }

    fn query() -> Graph {
        GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 9)
            .edge(1, 2, 9)
            .edge(0, 2, 9)
            .build()
    }

    fn build_pmi(db: &[ProbabilisticGraph]) -> Pmi {
        Pmi::build(
            db,
            &PmiBuildParams {
                features: FeatureSelectionParams {
                    alpha: 0.0,
                    beta: 0.3,
                    gamma: 0.0,
                    max_l: 3,
                    max_features: 16,
                    max_embeddings: 16,
                },
                bounds: BoundsConfig::default(),
                threads: 1,
                seed: 5,
            },
        )
    }

    #[test]
    fn bounds_bracket_the_exact_ssp() {
        let db = database();
        let pmi = build_pmi(&db);
        let q = query();
        let delta = 1usize;
        let relaxed = relax_query(&q, delta);
        let mut rng = StdRng::seed_from_u64(3);
        for (gi, pg) in db.iter().enumerate() {
            let instance = BoundInstance::build(&pmi, gi, &relaxed);
            let usim = instance.usim_optimal();
            let lsim = instance.lsim_optimal(CrossTermRule::SafeMin, &mut rng);
            let exact = exact_ssp(pg, &q, delta, 22).unwrap();
            assert!(
                lsim <= exact + 1e-9,
                "graph {gi}: Lsim {lsim} exceeds exact SSP {exact}"
            );
            assert!(
                usim + 1e-9 >= exact,
                "graph {gi}: Usim {usim} undercuts exact SSP {exact}"
            );
        }
    }

    #[test]
    fn optimal_bounds_are_tighter_than_random_bounds() {
        let db = database();
        let pmi = build_pmi(&db);
        let q = query();
        let relaxed = relax_query(&q, 1);
        let mut rng = StdRng::seed_from_u64(11);
        for gi in 0..db.len() {
            let instance = BoundInstance::build(&pmi, gi, &relaxed);
            let opt_u = instance.usim_optimal();
            let opt_l = instance.lsim_optimal(CrossTermRule::SafeMin, &mut rng);
            // Average the random upper-bound variant over a few draws; the
            // greedy cover must not be worse than an average arbitrary pick.
            let mut rand_u = 0.0;
            let draws = 8;
            for _ in 0..draws {
                rand_u += instance.usim_random(&mut rng);
            }
            rand_u /= draws as f64;
            assert!(
                opt_u <= rand_u + 1e-9,
                "graph {gi}: OPT Usim {opt_u} worse than random {rand_u}"
            );
            let rand_l = instance.lsim_random(CrossTermRule::SafeMin, &mut rng);
            assert!(opt_l >= 0.0 && rand_l >= 0.0);
            assert!(opt_l <= 1.0 + 1e-9);
        }
    }

    /// The engine's threshold path: bounds per candidate, the two rules,
    /// then the partition.
    fn prune(
        pmi: &Pmi,
        candidates: &[usize],
        relaxed: &[Graph],
        epsilon: f64,
        rng: &mut StdRng,
    ) -> (PruneOutcome, Vec<PruneDecision>) {
        let decisions: Vec<PruneDecision> = candidates
            .iter()
            .map(|&gi| {
                let (usim, lsim) =
                    bound_candidate(pmi, gi, relaxed, true, CrossTermRule::SafeMin, rng);
                pruning_rules(usim, lsim, epsilon)
            })
            .collect();
        (
            PruneOutcome::from_decisions(candidates, &decisions),
            decisions,
        )
    }

    #[test]
    fn pruning_rules_partition_the_candidates() {
        let db = database();
        let pmi = build_pmi(&db);
        let q = query();
        let relaxed = relax_query(&q, 1);
        let mut rng = StdRng::seed_from_u64(17);
        let all: Vec<usize> = (0..db.len()).collect();
        let (outcome, decisions) = prune(&pmi, &all, &relaxed, 0.5, &mut rng);
        assert_eq!(decisions.len(), 3);
        assert_eq!(
            outcome.accepted.len() + outcome.candidates.len() + outcome.pruned.len(),
            3
        );
        // No graph may be both pruned and an actual answer: cross-check against
        // the exact SSP.
        for &gi in &outcome.pruned {
            let exact = exact_ssp(&db[gi], &q, 1, 22).unwrap();
            assert!(exact < 0.5, "graph {gi} wrongly pruned (exact SSP {exact})");
        }
        for &gi in &outcome.accepted {
            let exact = exact_ssp(&db[gi], &q, 1, 22).unwrap();
            assert!(
                exact >= 0.5 - 1e-9,
                "graph {gi} wrongly accepted (exact SSP {exact})"
            );
        }
    }

    #[test]
    fn empty_candidate_list() {
        let db = database();
        let pmi = build_pmi(&db);
        let relaxed = relax_query(&query(), 1);
        let mut rng = StdRng::seed_from_u64(29);
        let (outcome, decisions) = prune(&pmi, &[], &relaxed, 0.5, &mut rng);
        assert!(decisions.is_empty());
        assert_eq!(outcome.surviving(), 0);
        assert!(outcome.pruned.is_empty());
    }

    #[test]
    fn instance_sets_reference_valid_features() {
        let db = database();
        let pmi = build_pmi(&db);
        let relaxed = relax_query(&query(), 1);
        let instance = BoundInstance::build(&pmi, 0, &relaxed);
        assert_eq!(instance.universe, relaxed.len());
        for (fid, elems, upper) in &instance.subgraph_sets {
            assert!(*fid < pmi.features().len());
            assert!((0.0..=1.0).contains(upper));
            for &e in elems {
                assert!(e < relaxed.len());
                // Feature really is a subgraph of the relaxed query.
                assert!(contains_subgraph(&pmi.features()[*fid].graph, &relaxed[e]));
            }
        }
        for (fid, elems, lower, upper) in &instance.supergraph_sets {
            assert!(*fid < pmi.features().len());
            assert!(lower <= upper);
            for &e in elems {
                assert!(contains_subgraph(&relaxed[e], &pmi.features()[*fid].graph));
            }
        }
    }
}
