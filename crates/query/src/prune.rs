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
//!
//! Both relations (`f ⊆iso rq` and `rq ⊆iso f`) depend only on the query and
//! the feature set, so they are computed once per query as a
//! [`FeatureRelation`].  So is everything of Algorithm 1 but the weights: the
//! cover sets (features in order, then a fallback singleton per relaxed query
//! no feature covers) as bitsets, and each relaxed query's qualifying sets
//! for the untightened bound.  Per candidate, `Usim` reads one `UpperB` per
//! cover set from the PMI column and runs the greedy with no per-candidate
//! copy of any set; only a candidate whose `Lsim` is solved gates the
//! relation into a [`BoundInstance`] ([`BoundInstance::from_relation`]).
//!
//! [`candidate_bounds`] computes a candidate's `Usim` and then, only where
//! a decision can read it, its costlier `Lsim`; [`bound_candidate`] is the
//! ungated pair.  The engine keeps the pair in its one per-candidate record
//! and applies the two rules to it there.

use crate::qp::{lsim_value, tightest_lsim, LsimSet};
use crate::setcover::{greedy_cover, CoverSets};
use pgs_graph::arena::FlatVecVec;
use pgs_graph::model::Graph;
use pgs_graph::vf2::contains_subgraph_summarized;
use pgs_index::pmi::Pmi;
use pgs_index::sip_bounds::SipBounds;
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

/// The feature ↔ relaxed-query containment of one query: for every PMI
/// feature (row order), the relaxed queries it is a subgraph of and the
/// relaxed queries that are subgraphs of it, plus `Usim`'s cover layout
/// over the first relation.
///
/// None of it depends on the candidate graph, so the engine computes it
/// once per query.  A candidate's `Usim` reads only its `UpperB` weights
/// from its PMI column; its `Lsim`, where solved, gates the relation by the
/// presence of each feature's PMI cell into a [`BoundInstance`].
#[derive(Debug, Clone)]
pub struct FeatureRelation {
    /// Number of relaxed queries (`a = |U|`).
    universe: usize,
    /// Per feature position: `(f ⊆iso rq, rq ⊆iso f)`, each a list of
    /// relaxed-query indices in ascending order.
    rows: Vec<(Vec<usize>, Vec<usize>)>,
    /// The id of the feature behind each of `cover`'s feature sets.
    cover_features: Vec<usize>,
    /// Algorithm 1's sets: every feature with a non-empty `f ⊆iso rq` list,
    /// in feature order, whether or not a candidate holds its cell.
    cover: CoverLayout,
}

/// The candidate-independent half of `Usim` (Algorithm 1 and the `SSPBound`
/// pick): the cover sets over `U` as bitsets — the feature sets, then one
/// fallback singleton of weight 1.0 per relaxed query no feature set
/// covers — and, per relaxed query, the feature sets containing it.  A
/// candidate supplies one weight per feature set.
#[derive(Debug, Clone)]
struct CoverLayout {
    /// The feature sets followed by the fallback singletons.
    sets: CoverSets,
    /// How many of `sets` are feature sets.
    feature_sets: usize,
    /// Per relaxed query, the feature sets containing it, ascending; empty
    /// for a fallback element.
    qualifying: FlatVecVec<u32>,
}

impl CoverLayout {
    /// The layout of the feature sets `feature_sets` (each a list of
    /// relaxed-query indices) over `universe` relaxed queries.
    fn new<'a>(
        universe: usize,
        feature_sets: impl IntoIterator<Item = &'a [usize]>,
    ) -> CoverLayout {
        let mut sets = CoverSets::new(universe);
        let mut qualifying: Vec<Vec<u32>> = vec![Vec::new(); universe];
        for (si, elements) in feature_sets.into_iter().enumerate() {
            sets.push(elements.iter().copied());
            for &e in elements.iter().filter(|&&e| e < universe) {
                if qualifying[e].last() != Some(&(si as u32)) {
                    qualifying[e].push(si as u32);
                }
            }
        }
        let feature_sets = sets.len();
        // Trivial fallback sets guarantee coverage.
        for (e, _) in qualifying.iter().enumerate().filter(|(_, q)| q.is_empty()) {
            sets.push([e]);
        }
        CoverLayout {
            sets,
            feature_sets,
            qualifying: FlatVecVec::from_rows(qualifying),
        }
    }

    /// The tightest `Usim(q)` (Algorithm 1) when feature set `si` weighs
    /// `upper(si)`.
    fn usim_optimal(&self, upper: impl Fn(usize) -> f64) -> f64 {
        let weight = |si| {
            if si < self.feature_sets {
                upper(si)
            } else {
                1.0
            }
        };
        greedy_cover(&self.sets, weight, |_| {}).0
    }

    /// The untightened `Usim(q)` when feature set `si` weighs `upper(si)`:
    /// per relaxed query, one of its feature sets drawn from `rng`, or 1.0
    /// when it has none.
    fn usim_random<R: Rng + ?Sized>(&self, upper: impl Fn(usize) -> f64, rng: &mut R) -> f64 {
        let mut total = 0.0;
        for sets in self.qualifying.iter() {
            total += if sets.is_empty() {
                1.0
            } else {
                upper(sets[rng.gen_range(0..sets.len())] as usize)
            };
        }
        total
    }
}

impl FeatureRelation {
    /// Runs both containment tests for every feature of `pmi` against every
    /// relaxed query in `relaxed`.  Features and relaxed queries are
    /// patterns that cache their own summaries, so each containment test is
    /// one VF2 call screened by the two graphs' summaries.
    pub fn new(pmi: &Pmi, relaxed: &[Graph]) -> FeatureRelation {
        let rows: Vec<(Vec<usize>, Vec<usize>)> = pmi
            .features()
            .iter()
            .map(|feature| {
                let f = &feature.graph;
                let (mut contained_in, mut contains) = (Vec::new(), Vec::new());
                for (ri, rq) in relaxed.iter().enumerate() {
                    if contains_subgraph_summarized(f, rq, rq.summary().view()) {
                        contained_in.push(ri);
                    }
                    if contains_subgraph_summarized(rq, f, f.summary().view()) {
                        contains.push(ri);
                    }
                }
                (contained_in, contains)
            })
            .collect();
        let (cover_features, cover_sets): (Vec<usize>, Vec<&[usize]>) = pmi
            .features()
            .iter()
            .zip(&rows)
            .filter(|(_, (contained_in, _))| !contained_in.is_empty())
            .map(|(feature, (contained_in, _))| (feature.id, contained_in.as_slice()))
            .unzip();
        let cover = CoverLayout::new(relaxed.len(), cover_sets);
        FeatureRelation {
            universe: relaxed.len(),
            rows,
            cover_features,
            cover,
        }
    }

    /// Candidate `graph_idx`'s `Usim` over the cover layout: each feature
    /// set weighs its feature's `UpperB` in the PMI column, `0` when the
    /// cell is absent (Figure 4's `⟨0⟩`).  Equal, bit for bit and in its
    /// draws from `rng`, to the same bound of
    /// [`BoundInstance::from_relation`].
    fn usim<R: Rng + ?Sized>(
        &self,
        pmi: &Pmi,
        graph_idx: usize,
        optimal: bool,
        rng: &mut R,
    ) -> f64 {
        let upper = |si: usize| {
            pmi.bounds(graph_idx, self.cover_features[si])
                .unwrap_or(SipBounds::ABSENT)
                .upper
        };
        if optimal {
            self.cover.usim_optimal(upper)
        } else {
            self.cover.usim_random(upper, rng)
        }
    }
}

impl BoundInstance {
    /// Builds the instance for PMI column `graph_idx` and relaxed query set
    /// `relaxed`.  Computes the query's [`FeatureRelation`] on the spot; a
    /// caller bounding several candidates of one query should build the
    /// relation once and use [`Self::from_relation`].
    pub fn build(pmi: &Pmi, graph_idx: usize, relaxed: &[Graph]) -> BoundInstance {
        let relation = FeatureRelation::new(pmi, relaxed);
        BoundInstance::from_relation(pmi, graph_idx, &relation)
    }

    /// Builds the instance for PMI column `graph_idx` from the query's
    /// feature relation (computed over the same `pmi`'s features).
    pub fn from_relation(pmi: &Pmi, graph_idx: usize, relation: &FeatureRelation) -> BoundInstance {
        debug_assert_eq!(relation.rows.len(), pmi.features().len());
        let mut instance = BoundInstance {
            universe: relation.universe,
            ..BoundInstance::default()
        };
        for (feature, (contained_in, contains)) in pmi.features().iter().zip(&relation.rows) {
            if contained_in.is_empty() && contains.is_empty() {
                continue;
            }
            // Figure 4's convention: a feature that is not a subgraph of the
            // skeleton has the entry ⟨0⟩, i.e. `UpperB = LowerB = 0`.  Such
            // zero-weight sets make the upper-bound cover maximally tight
            // (any relaxed query containing an absent feature has probability
            // zero), while they are useless for the lower bound and skipped.
            let cell = pmi.bounds(graph_idx, feature.id);
            let bounds = cell.unwrap_or(SipBounds::ABSENT);
            if !contained_in.is_empty() {
                instance
                    .subgraph_sets
                    .push((feature.id, contained_in.clone(), bounds.upper));
            }
            if cell.is_some() && !contains.is_empty() {
                instance.supergraph_sets.push((
                    feature.id,
                    contains.clone(),
                    bounds.lower,
                    bounds.upper,
                ));
            }
        }
        instance
    }

    /// The tightest `Usim(q)` (Algorithm 1).  Relaxed queries not covered by
    /// any feature fall back to the trivial per-element bound of 1.0.
    pub fn usim_optimal(&self) -> f64 {
        self.cover_layout()
            .usim_optimal(|si| self.subgraph_sets[si].2)
    }

    /// The untightened `Usim(q)`: one arbitrary qualifying feature per relaxed
    /// query (the `SSPBound` baseline).
    pub fn usim_random<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.cover_layout()
            .usim_random(|si| self.subgraph_sets[si].2, rng)
    }

    /// The subgraph sets as `Usim`'s cover layout, the one the engine
    /// builds once per query in its [`FeatureRelation`].
    fn cover_layout(&self) -> CoverLayout {
        CoverLayout::new(
            self.universe,
            self.subgraph_sets
                .iter()
                .map(|(_, elems, _)| elems.as_slice()),
        )
    }

    /// The tightest `Lsim(q)` (Algorithm 2).
    pub fn lsim_optimal<R: Rng + ?Sized>(&self, cross: CrossTermRule, rng: &mut R) -> f64 {
        tightest_lsim(self.universe, &self.lsim_sets(), cross, rng).value
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
        lsim_value(&self.lsim_sets(), &chosen, cross)
    }

    /// [`Self::lsim_optimal`] when `optimal`, else [`Self::lsim_random`].
    pub(crate) fn lsim<R: Rng + ?Sized>(
        &self,
        optimal: bool,
        cross: CrossTermRule,
        rng: &mut R,
    ) -> f64 {
        if optimal {
            self.lsim_optimal(cross, rng)
        } else {
            self.lsim_random(cross, rng)
        }
    }

    /// The supergraph sets as the `Lsim` instance of [`crate::qp`].
    fn lsim_sets(&self) -> Vec<LsimSet> {
        self.supergraph_sets
            .iter()
            .map(|(_, elems, lower, upper)| LsimSet {
                elements: elems.clone(),
                lower: *lower,
                upper: *upper,
            })
            .collect()
    }
}

/// Computes a single candidate's bounds: evaluates `Usim` over the query's
/// cover layout with the weights of the candidate's PMI column, and only
/// when `Usim ≥ lsim_from` gates the query's feature relation by that
/// column into its set-cover instance ([`BoundInstance::from_relation`]) to
/// evaluate `Lsim`; otherwise it returns the vacuous lower bound `0`.
/// The bounds draw from `rng` in a fixed order (`usim_random` before
/// `lsim_*`), so the gate changes no bit of what it lets through.  The engine
/// seeds a fresh RNG per candidate, so the pair depends only on
/// `(pmi, graph_idx, relation, rng seed)`.
///
/// A threshold query passes ε: a candidate that Pruning rule 1 prunes never
/// has its `Lsim` solved.  Top-k passes `∞`, keeps `rng` where the `Usim`
/// draw left it, and solves `Lsim` from it only as the floor of a sampled
/// verdict, for the few candidates that need it.
pub fn candidate_bounds<R: Rng + ?Sized>(
    pmi: &Pmi,
    graph_idx: usize,
    relation: &FeatureRelation,
    optimal: bool,
    cross: CrossTermRule,
    lsim_from: f64,
    rng: &mut R,
) -> (f64, f64) {
    let usim = relation.usim(pmi, graph_idx, optimal, rng);
    if usim < lsim_from {
        return (usim, 0.0);
    }
    let instance = BoundInstance::from_relation(pmi, graph_idx, relation);
    (usim, instance.lsim(optimal, cross, rng))
}

/// The ungated `(Usim, Lsim)` pair of [`candidate_bounds`].
pub fn bound_candidate<R: Rng + ?Sized>(
    pmi: &Pmi,
    graph_idx: usize,
    relation: &FeatureRelation,
    optimal: bool,
    cross: CrossTermRule,
    rng: &mut R,
) -> (f64, f64) {
    candidate_bounds(
        pmi,
        graph_idx,
        relation,
        optimal,
        cross,
        f64::NEG_INFINITY,
        rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgs_graph::model::{EdgeId, GraphBuilder};
    use pgs_graph::relax::relax_query;
    use pgs_graph::vf2::contains_subgraph;
    use pgs_index::feature::FeatureSelectionParams;
    use pgs_index::pmi::PmiBuildParams;
    use pgs_index::sip_bounds::BoundsConfig;
    use pgs_prob::exact::exact_ssp;
    use pgs_prob::jpt::JointProbTable;
    use pgs_prob::model::ProbabilisticGraph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// The per-candidate double loop the engine ran before the relation was
    /// hoisted: both containment tests for every feature × relaxed query,
    /// `rq ⊆iso f` only for present features.
    fn reference_instance(pmi: &Pmi, graph_idx: usize, relaxed: &[Graph]) -> BoundInstance {
        let mut instance = BoundInstance {
            universe: relaxed.len(),
            ..BoundInstance::default()
        };
        for feature in pmi.features() {
            let bounds = pmi
                .bounds(graph_idx, feature.id)
                .unwrap_or(pgs_index::sip_bounds::SipBounds::ABSENT);
            let present = pmi.bounds(graph_idx, feature.id).is_some();
            let mut contained_in: Vec<usize> = Vec::new();
            let mut contains: Vec<usize> = Vec::new();
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

    /// The reference's bound pair, drawing from `rng` in `bound_candidate`'s
    /// order.
    fn reference_bounds(
        instance: &BoundInstance,
        optimal: bool,
        cross: CrossTermRule,
        rng: &mut StdRng,
    ) -> (f64, f64) {
        if optimal {
            let usim = instance.usim_optimal();
            (usim, instance.lsim_optimal(cross, rng))
        } else {
            let usim = instance.usim_random(rng);
            (usim, instance.lsim_random(cross, rng))
        }
    }

    #[test]
    fn shared_relation_matches_the_per_candidate_reference() {
        // The fixture database, plus an appended graph sharing no label with
        // any feature, so its PMI column is empty and every feature is absent.
        let db = database();
        let mut pmi = build_pmi(&db);
        let foreign = GraphBuilder::new()
            .name("foreign")
            .vertices(&[7, 8])
            .edge(0, 1, 5)
            .build();
        let jpt = JointProbTable::from_max_rule(&[(EdgeId(0), 0.5)]).unwrap();
        pmi.append_graph(&ProbabilisticGraph::new(foreign, vec![jpt], true).unwrap());
        let empty = db.len();
        assert!(pmi.graph_entries(empty).is_empty());
        assert!(!pmi.features().is_empty());

        let q = query();
        let mut checked_supergraph_sets = false;
        for delta in 0..=2usize {
            let relaxed = relax_query(&q, delta);
            let relation = FeatureRelation::new(&pmi, &relaxed);
            for gi in 0..=empty {
                let hoisted = BoundInstance::from_relation(&pmi, gi, &relation);
                let reference = reference_instance(&pmi, gi, &relaxed);
                assert_eq!(hoisted.universe, reference.universe, "δ={delta} g{gi}");
                assert_eq!(
                    hoisted.subgraph_sets, reference.subgraph_sets,
                    "δ={delta} g{gi}: subgraph sets"
                );
                assert_eq!(
                    hoisted.supergraph_sets, reference.supergraph_sets,
                    "δ={delta} g{gi}: supergraph sets"
                );
                checked_supergraph_sets |= !reference.supergraph_sets.is_empty();
                if gi == empty {
                    assert!(hoisted.supergraph_sets.is_empty());
                    assert!(hoisted.subgraph_sets.iter().all(|(_, _, u)| *u == 0.0));
                }
                for optimal in [false, true] {
                    for cross in [CrossTermRule::SafeMin, CrossTermRule::PaperProduct] {
                        let seed = 1000 * delta as u64 + gi as u64;
                        let got = bound_candidate(
                            &pmi,
                            gi,
                            &relation,
                            optimal,
                            cross,
                            &mut StdRng::seed_from_u64(seed),
                        );
                        let want = reference_bounds(
                            &reference,
                            optimal,
                            cross,
                            &mut StdRng::seed_from_u64(seed),
                        );
                        assert_eq!(
                            (got.0.to_bits(), got.1.to_bits()),
                            (want.0.to_bits(), want.1.to_bits()),
                            "δ={delta} g{gi} optimal={optimal} {cross:?}"
                        );
                    }
                }
            }
        }
        assert!(checked_supergraph_sets, "no lower-bound sets exercised");
    }

    /// Algorithm 1 as the engine ran it before the cover layout: the list
    /// greedy over clones of the instance's sets plus the fallback
    /// singletons.  Returns the total and whether a pick beat or was tied by
    /// another set's ratio within the `1e-15` window.
    fn reference_usim_optimal(instance: &BoundInstance) -> (f64, bool) {
        let a = instance.universe;
        let mut sets: Vec<(Vec<usize>, f64)> = instance
            .subgraph_sets
            .iter()
            .map(|(_, elems, upper)| (elems.clone(), *upper))
            .collect();
        let mut covered = vec![false; a];
        for (elems, _) in &sets {
            for &e in elems {
                covered[e] = true;
            }
        }
        for (e, _) in covered.iter().enumerate().filter(|(_, c)| !**c) {
            sets.push((vec![e], 1.0));
        }
        let mut covered = vec![false; a];
        let (mut num_covered, mut total, mut tied) = (0, 0.0, false);
        let mut used = vec![false; sets.len()];
        while num_covered < a {
            let mut best: Option<(usize, f64, usize)> = None;
            for (si, (elements, weight)) in sets.iter().enumerate() {
                if used[si] {
                    continue;
                }
                let new_count = elements.iter().filter(|&&e| !covered[e]).count();
                if new_count == 0 {
                    continue;
                }
                let ratio = weight.max(0.0) / new_count as f64;
                let better = match best {
                    None => true,
                    Some((_, best_ratio, best_new)) => {
                        tied |= (ratio - best_ratio).abs() <= 1e-15;
                        ratio < best_ratio - 1e-15
                            || ((ratio - best_ratio).abs() <= 1e-15 && new_count > best_new)
                    }
                };
                if better {
                    best = Some((si, ratio, new_count));
                }
            }
            let Some((si, _, _)) = best else { break };
            used[si] = true;
            total += sets[si].1.max(0.0);
            for &e in &sets[si].0 {
                if !covered[e] {
                    covered[e] = true;
                    num_covered += 1;
                }
            }
        }
        (total, tied)
    }

    /// The `SSPBound` pick as the engine ran it before the cover layout.
    fn reference_usim_random(instance: &BoundInstance, rng: &mut StdRng) -> f64 {
        let mut total = 0.0;
        for element in 0..instance.universe {
            let candidates: Vec<f64> = instance
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

    /// What the pins below exercised, summed over their cases.
    #[derive(Default)]
    struct Seen {
        fallback: bool,
        zero_weight: bool,
        tie: bool,
        wide_universe: bool,
        wide_sets: bool,
    }

    impl Seen {
        fn note(&mut self, instance: &BoundInstance, tied: bool) {
            let covered = |e| {
                instance
                    .subgraph_sets
                    .iter()
                    .any(|(_, s, _)| s.contains(&e))
            };
            self.fallback |= (0..instance.universe).any(|e| !covered(e));
            self.zero_weight |= instance.subgraph_sets.iter().any(|(_, _, u)| *u == 0.0);
            self.tie |= tied;
            self.wide_universe |= instance.universe > 64;
            self.wide_sets |= instance.subgraph_sets.len() > 64;
        }

        fn assert_all(&self) {
            assert!(self.fallback, "no fallback element");
            assert!(self.zero_weight, "no zero weight");
            assert!(self.tie, "no ratio tie");
            assert!(self.wide_universe, "no universe above 64");
            assert!(self.wide_sets, "no set count above 64");
        }
    }

    /// Checks the instance's two `Usim`s against the references, bits and
    /// RNG state after the draws; `engine` is the engine's pair for the same
    /// candidate, with its RNG.
    fn assert_usims_match(
        instance: &BoundInstance,
        engine: Option<[(f64, StdRng); 2]>,
        seed: u64,
        seen: &mut Seen,
        at: &str,
    ) {
        let (want, tied) = reference_usim_optimal(instance);
        seen.note(instance, tied);
        let mut want_rng = StdRng::seed_from_u64(seed);
        let want_random = reference_usim_random(instance, &mut want_rng);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut got = [
            (instance.usim_optimal(), StdRng::seed_from_u64(seed)),
            (instance.usim_random(&mut rng), rng),
        ]
        .to_vec();
        got.extend(engine.into_iter().flatten());
        for (i, (usim, mut rng)) in got.into_iter().enumerate() {
            let (want, want_next) = if i % 2 == 0 {
                (want, StdRng::seed_from_u64(seed).gen::<u64>())
            } else {
                (want_random, want_rng.clone().gen::<u64>())
            };
            assert_eq!(usim.to_bits(), want.to_bits(), "{at}: usim #{i}");
            assert_eq!(rng.gen::<u64>(), want_next, "{at}: rng after usim #{i}");
        }
    }

    #[test]
    fn cover_layout_matches_the_list_greedy_on_random_instances() {
        // Weights from a small pool make exact ratio ties common.
        const WEIGHTS: [f64; 6] = [0.0, 0.125, 0.25, 0.5, 0.75, 1.0];
        let mut seen = Seen::default();
        let mut gen = StdRng::seed_from_u64(33);
        for case in 0..400u64 {
            let universe = if case % 4 == 0 {
                gen.gen_range(60..140)
            } else {
                gen.gen_range(1..12)
            };
            let set_count = if case % 5 == 0 {
                gen.gen_range(60..150)
            } else {
                gen.gen_range(0..10)
            };
            let subgraph_sets = (0..set_count)
                .map(|id| {
                    let mut elems: Vec<usize> = (0..gen.gen_range(1..4))
                        .map(|_| gen.gen_range(0..universe))
                        .collect();
                    elems.sort_unstable();
                    elems.dedup();
                    let upper = if gen.gen_bool(0.7) {
                        WEIGHTS[gen.gen_range(0..WEIGHTS.len())]
                    } else {
                        gen.gen::<f64>()
                    };
                    (id, elems, upper)
                })
                .collect();
            let instance = BoundInstance {
                universe,
                subgraph_sets,
                supergraph_sets: Vec::new(),
            };
            assert_usims_match(&instance, None, case, &mut seen, &format!("case {case}"));
        }
        seen.assert_all();
    }

    /// A random connected graph on `n` vertices labelled from `0..labels`.
    fn random_graph(gen: &mut StdRng, n: u32, labels: u32) -> Graph {
        let vertex_labels: Vec<u32> = (0..n).map(|_| gen.gen_range(0..labels)).collect();
        let mut b = GraphBuilder::new().vertices(&vertex_labels);
        let mut edges = std::collections::BTreeSet::new();
        for v in 1..n {
            edges.insert((gen.gen_range(0..v), v));
        }
        for _ in 0..n {
            let (u, v) = (gen.gen_range(0..n), gen.gen_range(0..n));
            if u < v {
                edges.insert((u, v));
            }
        }
        for (u, v) in edges {
            b = b.edge(u, v, 9);
        }
        b.build()
    }

    fn probabilistic(gen: &mut StdRng, g: Graph) -> ProbabilisticGraph {
        let tables = pgs_prob::neighbor::partition_with_triangles(&g, 3)
            .iter()
            .map(|grp| {
                let ep: Vec<(EdgeId, f64)> =
                    grp.iter().map(|&e| (e, gen.gen_range(0.1..0.9))).collect();
                JointProbTable::from_max_rule(&ep).unwrap()
            })
            .collect();
        ProbabilisticGraph::new(g, tables, true).unwrap()
    }

    #[test]
    fn engine_usim_matches_the_instance_on_random_pmis() {
        let mut seen = Seen::default();
        let mut gen = StdRng::seed_from_u64(34);
        for case in 0..4u64 {
            let db: Vec<ProbabilisticGraph> = (0..30)
                .map(|_| {
                    let n = gen.gen_range(4..8);
                    let g = random_graph(&mut gen, n, 5);
                    probabilistic(&mut gen, g)
                })
                .collect();
            let mut pmi = Pmi::build(
                &db,
                &PmiBuildParams {
                    features: FeatureSelectionParams {
                        alpha: 0.0,
                        beta: 0.05,
                        gamma: 0.0,
                        max_l: 3,
                        max_features: 200,
                        max_embeddings: 16,
                    },
                    bounds: BoundsConfig::default(),
                    threads: 1,
                    seed: case,
                },
            );
            // A column holding no feature's cell.
            let foreign = GraphBuilder::new().vertices(&[7, 8]).edge(0, 1, 5).build();
            pmi.append_graph(&probabilistic(&mut gen, foreign));
            // Relaxed sets drawn from the skeletons, a few random graphs and
            // one graph no feature embeds in (a fallback element).
            let pool: Vec<Graph> = db.iter().map(|pg| pg.skeleton().clone()).collect();
            for size in [1usize, 3, 9, 70] {
                let mut relaxed: Vec<Graph> = (0..size)
                    .map(|_| {
                        if gen.gen_bool(0.8) {
                            pool[gen.gen_range(0..pool.len())].clone()
                        } else {
                            let n = gen.gen_range(2..5);
                            random_graph(&mut gen, n, 6)
                        }
                    })
                    .collect();
                if size > 1 {
                    relaxed[0] = GraphBuilder::new().vertices(&[9, 9]).edge(0, 1, 9).build();
                }
                let relation = FeatureRelation::new(&pmi, &relaxed);
                for gi in 0..pmi.graph_count() {
                    let seed = 1000 * case + gi as u64;
                    let engine = [true, false].map(|optimal| {
                        let mut rng = StdRng::seed_from_u64(seed);
                        let (usim, lsim) = candidate_bounds(
                            &pmi,
                            gi,
                            &relation,
                            optimal,
                            CrossTermRule::SafeMin,
                            f64::INFINITY,
                            &mut rng,
                        );
                        assert_eq!(lsim, 0.0);
                        (usim, rng)
                    });
                    let instance = BoundInstance::from_relation(&pmi, gi, &relation);
                    let at = format!("case {case}, |U| = {size}, g{gi}");
                    assert_usims_match(&instance, Some(engine), seed, &mut seen, &at);
                }
            }
        }
        seen.assert_all();
    }

    #[test]
    fn gated_bounds_keep_the_pair_bits_above_the_gate() {
        let db = database();
        let pmi = build_pmi(&db);
        let q = query();
        let (mut solved, mut skipped) = (0usize, 0usize);
        for delta in 0..=2usize {
            let relaxed = relax_query(&q, delta);
            let relation = FeatureRelation::new(&pmi, &relaxed);
            for gi in 0..db.len() {
                for optimal in [false, true] {
                    for cross in [CrossTermRule::SafeMin, CrossTermRule::PaperProduct] {
                        let seed = 100 * delta as u64 + gi as u64;
                        let rng = || StdRng::seed_from_u64(seed);
                        let (usim, lsim) =
                            bound_candidate(&pmi, gi, &relation, optimal, cross, &mut rng());
                        for lsim_from in [0.3, 0.7] {
                            let (u, l) = candidate_bounds(
                                &pmi,
                                gi,
                                &relation,
                                optimal,
                                cross,
                                lsim_from,
                                &mut rng(),
                            );
                            let want = if usim >= lsim_from { lsim } else { 0.0 };
                            let at = format!("δ={delta} g{gi} optimal={optimal} {cross:?}");
                            assert_eq!(u.to_bits(), usim.to_bits(), "{at}");
                            assert_eq!(l.to_bits(), want.to_bits(), "{at}");
                            if usim >= lsim_from && lsim > 0.0 {
                                solved += 1;
                            } else if usim < lsim_from {
                                skipped += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            solved > 0 && skipped > 0,
            "solved {solved}, skipped {skipped}"
        );
    }
}
