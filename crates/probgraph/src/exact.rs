//! Exact subgraph-isomorphism / similarity probabilities.
//!
//! These are the `Exact` baselines of the evaluation (Figures 9 and 13), the
//! exact short-circuit of verification and of Algorithm 3, and the oracles the
//! test-suite checks every bound and sampler against.  Exact computation is
//! #P-complete in general (Theorem 2); the implementations here therefore
//! enumerate assignments only over the *relevant* edges — the union of the
//! embedding edge sets the event actually depends on — which keeps the cost at
//! `2^{|relevant|}` and makes the oracle usable for the paper's query sizes on
//! skeleton neighbourhoods, while still being exponential in the worst case
//! (as the paper's own Exact baseline is).
//!
//! One enumerator serves every exact path: a world is a `u64` mask over the
//! relevant edges, priced from the same per-table marginal rows the sampler's
//! projection draws from (DESIGN.md §11).

use crate::error::ProbError;
use crate::model::ProbabilisticGraph;
use crate::world::enumerate_worlds;
use pgs_graph::embeddings::EdgeSet;
use pgs_graph::mcs::subgraph_similar;
use pgs_graph::model::{EdgeId, Graph};
use pgs_graph::relax::relax_query;
use pgs_graph::vf2::{enumerate_embeddings, MatchOptions};

/// Default cap on the number of relevant edges enumerated exactly.
pub const DEFAULT_EXACT_LIMIT: usize = 22;

/// Most relevant edges a `u64` world can carry while `2^k` still fits the
/// mask counter.
const MAX_WORLD_BITS: usize = 63;

/// Calls `visit(world, prob)` for every assignment of `relevant` (sorted,
/// deduplicated edge ids of `pg`), every other edge summed out.
///
/// Bit `i` of `world` is the presence of `relevant[i]`.  `prob` is the product
/// of each touched table's `JointProbTable::marginal_rows_into` entry, taken
/// in [`ProbabilisticGraph::tables_touched`] order and folded from `1.0`, and
/// worlds are visited in ascending mask order.  Both orders fix how callers
/// sum, so they are part of the exact answers' bit patterns: do not reorder.
///
/// Fails with [`ProbError::TooManyWorlds`] when `relevant` has more than
/// `limit` (or more than 63) edges, and with [`ProbError::UnknownEdge`] for an
/// edge id past the skeleton.
pub(crate) fn for_each_world(
    pg: &ProbabilisticGraph,
    relevant: &[EdgeId],
    limit: usize,
    mut visit: impl FnMut(u64, f64),
) -> Result<(), ProbError> {
    debug_assert!(
        relevant.windows(2).all(|w| w[0] < w[1]),
        "must be sorted + deduped"
    );
    let k = relevant.len();
    let limit = limit.min(MAX_WORLD_BITS);
    if k > limit {
        return Err(ProbError::TooManyWorlds {
            variables: k,
            limit,
        });
    }
    if let Some(&e) = relevant.iter().find(|e| e.index() >= pg.edge_count()) {
        return Err(ProbError::UnknownEdge(e));
    }
    // Per touched table: the world bits of its relevant edges (in table bit
    // order) and the start of its marginal rows over exactly those edges.
    let mut rows: Vec<f64> = Vec::new();
    let mut factors: Vec<(Vec<u32>, usize)> = Vec::new();
    for ti in pg.tables_touched(relevant) {
        let table = &pg.tables()[ti];
        let (mut keep, mut bits) = (Vec::new(), Vec::new());
        for (bit, e) in table.edges().iter().enumerate() {
            if let Ok(i) = relevant.binary_search(e) {
                keep.push(bit);
                bits.push(i as u32);
            }
        }
        factors.push((bits, table.marginal_rows_into(&keep, &mut rows)));
    }
    for world in 0..1u64 << k {
        let mut prob = 1.0;
        for (bits, start) in &factors {
            let row = bits
                .iter()
                .enumerate()
                .fold(0, |row, (j, &i)| row | ((world >> i) as usize & 1) << j);
            prob *= rows[start + row];
        }
        visit(world, prob);
    }
    Ok(())
}

/// Mask of `edges` over the world bits of [`for_each_world`] (`edges` ⊆
/// `relevant`).  Bits past 63 are dropped; the enumerator refuses such
/// worlds before any visit.
pub(crate) fn world_mask(relevant: &[EdgeId], edges: &[EdgeId]) -> u64 {
    edges
        .iter()
        .filter_map(|e| relevant.binary_search(e).ok())
        .fold(0, |m, i| m | 1u64.checked_shl(i as u32).unwrap_or(0))
}

/// Exact subgraph-isomorphism probability `Pr(f ⊆iso g)` (Definition 6) given
/// the embeddings of `f` in `gc`: the probability that at least one embedding
/// has all of its edges present (Equation 10).
pub fn exact_sip(pg: &ProbabilisticGraph, embeddings: &[EdgeSet]) -> Result<f64, ProbError> {
    exact_union_probability(pg, embeddings, DEFAULT_EXACT_LIMIT)
}

/// Probability that at least one of the given edge sets is fully present.
///
/// Fails with [`ProbError::TooManyWorlds`] when the sets span more than
/// `limit` (or 63) distinct edges and with [`ProbError::UnknownEdge`] for an
/// edge id past the skeleton.
pub fn exact_union_probability(
    pg: &ProbabilisticGraph,
    edge_sets: &[EdgeSet],
    limit: usize,
) -> Result<f64, ProbError> {
    if edge_sets.is_empty() {
        return Ok(0.0);
    }
    if edge_sets.iter().any(|s| s.is_empty()) {
        // The empty pattern is contained in every world.
        return Ok(1.0);
    }
    let mut relevant: Vec<EdgeId> = edge_sets.iter().flatten().copied().collect();
    relevant.sort_unstable();
    relevant.dedup();
    let masks: Vec<u64> = edge_sets.iter().map(|s| world_mask(&relevant, s)).collect();
    let mut p = 0.0;
    for_each_world(pg, &relevant, limit, |world, prob| {
        if masks.iter().any(|&m| m & !world == 0) {
            p += prob;
        }
    })?;
    Ok(p.clamp(0.0, 1.0))
}

/// Exact subgraph similarity probability `Pr(q ⊆sim g)` (Definition 9) for a
/// query `q` and distance threshold `delta`, computed through Lemma 1: the
/// probability that at least one relaxed query `rq ∈ U` embeds in the world.
///
/// `limit` bounds the number of relevant edges enumerated; `max_embeddings`
/// bounds the embeddings enumerated per relaxed query (`0` = default).
pub fn exact_ssp(
    pg: &ProbabilisticGraph,
    q: &Graph,
    delta: usize,
    limit: usize,
) -> Result<f64, ProbError> {
    if q.edge_count() <= delta {
        // Relaxing q by delta edges leaves the empty pattern: every world matches.
        return Ok(1.0);
    }
    let relaxed = relax_query(q, delta);
    let mut all_embeddings: Vec<EdgeSet> = Vec::new();
    for rq in &relaxed {
        let outcome = enumerate_embeddings(rq, pg.skeleton(), MatchOptions::default());
        for emb in outcome.embeddings {
            if !all_embeddings.contains(&emb.edges) {
                all_embeddings.push(emb.edges);
            }
        }
    }
    exact_union_probability(pg, &all_embeddings, limit)
}

/// Brute-force oracle: enumerates **every** possible world of `pg` and sums the
/// weights of the worlds whose subgraph distance to `q` is at most `delta`
/// (Definition 9 verbatim).  Only usable for tiny graphs; exists to validate
/// [`exact_ssp`] (and thereby Lemma 1) in tests.
pub fn exact_ssp_bruteforce(
    pg: &ProbabilisticGraph,
    q: &Graph,
    delta: usize,
    limit: usize,
) -> Result<f64, ProbError> {
    let worlds = enumerate_worlds(pg, limit)?;
    let mut p = 0.0;
    for w in &worlds {
        let wg = pg.world_graph(&w.present);
        if subgraph_similar(q, &wg, delta) {
            p += w.probability;
        }
    }
    Ok(p.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditional::{exact_conditional_event_probability, EventKind};
    use crate::jpt::JointProbTable;
    use pgs_graph::model::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Figure-1-style fixture: graph 002 with a triangle table and a pendant
    /// table (see `model::tests::fixture_002` for the layout).
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

    fn query_triangle() -> Graph {
        GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 9)
            .edge(1, 2, 9)
            .edge(0, 2, 9)
            .build()
    }

    #[test]
    fn sip_of_single_edge_feature_is_union_of_embedding_probabilities() {
        let pg = fixture_002();
        // Feature "a-b edge" has embeddings {e1} and {e2} in 002.
        let sip = exact_sip(&pg, &[vec![EdgeId(1)], vec![EdgeId(2)]]).unwrap();
        // Cross-check by inclusion–exclusion on the exact model.
        let p1 = pg.prob_all_present(&[EdgeId(1)]);
        let p2 = pg.prob_all_present(&[EdgeId(2)]);
        let p12 = pg.prob_all_present(&[EdgeId(1), EdgeId(2)]);
        assert!((sip - (p1 + p2 - p12)).abs() < 1e-9);
        assert!(sip > p1.max(p2));
        assert!(sip <= 1.0);
    }

    #[test]
    fn sip_edge_cases() {
        let pg = fixture_002();
        assert_eq!(exact_sip(&pg, &[]).unwrap(), 0.0);
        assert_eq!(exact_sip(&pg, &[vec![]]).unwrap(), 1.0);
        let single = exact_sip(&pg, &[vec![EdgeId(3)]]).unwrap();
        assert!((single - pg.edge_presence_prob(EdgeId(3))).abs() < 1e-9);
    }

    #[test]
    fn ssp_matches_bruteforce_oracle() {
        let pg = fixture_002();
        let q = query_triangle();
        for delta in 0..=3 {
            let via_lemma1 = exact_ssp(&pg, &q, delta, DEFAULT_EXACT_LIMIT).unwrap();
            let brute = exact_ssp_bruteforce(&pg, &q, delta, DEFAULT_EXACT_LIMIT).unwrap();
            assert!(
                (via_lemma1 - brute).abs() < 1e-9,
                "delta={delta}: lemma1 {via_lemma1} vs brute {brute}"
            );
        }
    }

    #[test]
    fn ssp_is_monotone_in_delta() {
        let pg = fixture_002();
        let q = query_triangle();
        let mut prev = 0.0;
        for delta in 0..=3 {
            let ssp = exact_ssp(&pg, &q, delta, DEFAULT_EXACT_LIMIT).unwrap();
            assert!(ssp + 1e-12 >= prev, "SSP must not decrease with delta");
            prev = ssp;
        }
        assert!(
            (prev - 1.0).abs() < 1e-12,
            "delta = |q| gives probability 1"
        );
    }

    #[test]
    fn ssp_when_query_cannot_match_at_all() {
        let pg = fixture_002();
        // A query with a label that does not exist in 002.
        let q = GraphBuilder::new().vertices(&[7, 8]).edge(0, 1, 9).build();
        let ssp = exact_ssp(&pg, &q, 0, DEFAULT_EXACT_LIMIT).unwrap();
        assert_eq!(ssp, 0.0);
        // With delta = |q| it trivially matches.
        assert_eq!(exact_ssp(&pg, &q, 1, DEFAULT_EXACT_LIMIT).unwrap(), 1.0);
    }

    #[test]
    fn limit_is_enforced() {
        let pg = fixture_002();
        let sets: Vec<EdgeSet> = vec![vec![EdgeId(0)], vec![EdgeId(1)], vec![EdgeId(2)]];
        assert!(matches!(
            exact_union_probability(&pg, &sets, 2).unwrap_err(),
            ProbError::TooManyWorlds { .. }
        ));
    }

    /// A path of `m` edges with independent presence probability `p` each.
    fn path(m: usize, p: f64) -> ProbabilisticGraph {
        let mut b = GraphBuilder::new().vertices(&vec![0u32; m + 1]);
        for i in 0..m {
            b = b.edge(i as u32, i as u32 + 1, 0);
        }
        ProbabilisticGraph::independent(b.build(), &vec![p; m]).unwrap()
    }

    #[test]
    fn worlds_marginalise_the_irrelevant_edges() {
        let g = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .build();
        // P(00)=0.1 P(10)=0.2 P(01)=0.3 P(11)=0.4 (bit 0 = e0).
        let t = JointProbTable::new(vec![EdgeId(0), EdgeId(1)], vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        let pg = ProbabilisticGraph::new(g, vec![t], true).unwrap();
        let mut seen = Vec::new();
        for_each_world(&pg, &[EdgeId(0)], 8, |w, p| seen.push((w, p))).unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].0, 0);
        assert!((seen[1].1 - 0.6).abs() < 1e-12, "P(e0) = 0.2 + 0.4");
        assert!((seen[0].1 + seen[1].1 - 1.0).abs() < 1e-12);
        // No relevant edge: one empty world of probability one.
        seen.clear();
        for_each_world(&pg, &[], 8, |w, p| seen.push((w, p))).unwrap();
        assert_eq!(seen, vec![(0, 1.0)]);
    }

    #[test]
    fn sixty_four_relevant_edges_are_refused_not_wrapped() {
        let pg = path(64, 0.9);
        let sets: Vec<EdgeSet> = (0..64).map(|i| vec![EdgeId(i)]).collect();
        for limit in [64, usize::MAX] {
            assert_eq!(
                exact_union_probability(&pg, &sets, limit).unwrap_err(),
                ProbError::TooManyWorlds {
                    variables: 64,
                    limit: 63
                }
            );
        }
    }

    #[test]
    fn edge_past_the_skeleton_is_unknown() {
        let pg = fixture_002();
        let sets: Vec<EdgeSet> = vec![vec![EdgeId(0)], vec![EdgeId(1), EdgeId(5)]];
        assert_eq!(
            exact_union_probability(&pg, &sets, DEFAULT_EXACT_LIMIT).unwrap_err(),
            ProbError::UnknownEdge(EdgeId(5))
        );
        assert_eq!(
            exact_conditional_event_probability(&pg, &[EdgeId(9)], &[], EventKind::Cut)
                .unwrap_err(),
            ProbError::UnknownEdge(EdgeId(9))
        );
    }

    /// The enumeration the exact paths ran before worlds became masks: one
    /// `(edge, present)` assignment per mask, priced by `prob_of_assignment`.
    /// Kept as the bit-identity reference; worlds come back as their present
    /// edges.
    fn reference_worlds(pg: &ProbabilisticGraph, relevant: &[EdgeId]) -> Vec<(Vec<EdgeId>, f64)> {
        (0u64..1 << relevant.len())
            .map(|mask| {
                let a: Vec<(EdgeId, bool)> = relevant
                    .iter()
                    .enumerate()
                    .map(|(i, &e)| (e, mask & (1 << i) != 0))
                    .collect();
                let present = a.iter().filter(|x| x.1).map(|x| x.0).collect();
                (present, pg.prob_of_assignment(&a))
            })
            .collect()
    }

    /// Every possible world of `pg` (brute force), as its present edges.
    fn brute_worlds(pg: &ProbabilisticGraph) -> Vec<(Vec<EdgeId>, f64)> {
        enumerate_worlds(pg, 16)
            .unwrap()
            .into_iter()
            .map(|w| {
                let present = pg.skeleton().edges().filter(|e| w.present[e.index()]);
                (present.collect(), w.probability)
            })
            .collect()
    }

    /// True if every edge of `set` is present (`Embedding`) or absent (`Cut`).
    fn holds(present: &[EdgeId], set: &[EdgeId], kind: EventKind) -> bool {
        set.iter()
            .all(|e| present.contains(e) == (kind == EventKind::Embedding))
    }

    /// `Pr(∨ sets)` and `Pr(sets[0] | no event of sets[1..])` summed over
    /// `worlds` in order, the way the assignment loop summed them.
    fn reference(
        pg: &ProbabilisticGraph,
        worlds: &[(Vec<EdgeId>, f64)],
        sets: &[EdgeSet],
        kind: EventKind,
    ) -> (f64, f64) {
        let (target, competitors) = (&sets[0], &sets[1..]);
        let (mut union, mut condition, mut joint) = (0.0, 0.0, 0.0);
        for (present, p) in worlds {
            if sets.iter().any(|s| holds(present, s, EventKind::Embedding)) {
                union += p;
            }
            if competitors.iter().any(|c| holds(present, c, kind)) {
                continue;
            }
            condition += p;
            if holds(present, target, kind) {
                joint += p;
            }
        }
        let conditional = if condition <= 0.0 {
            match kind {
                EventKind::Embedding => pg.prob_all_present(target),
                EventKind::Cut => pg.prob_all_absent(target),
            }
        } else {
            joint / condition
        };
        (union.clamp(0.0, 1.0), conditional)
    }

    /// A random partitioned model: a path of 5–10 edges cut into tables of
    /// 1–4 consecutive edges with random rows, some of them zero.
    fn random_model(rng: &mut StdRng) -> ProbabilisticGraph {
        let m = rng.gen_range(5..=10usize);
        let mut b = GraphBuilder::new().vertices(&vec![0u32; m + 1]);
        for i in 0..m {
            b = b.edge(i as u32, i as u32 + 1, 0);
        }
        let mut tables = Vec::new();
        let mut next = 0usize;
        while next < m {
            let arity = rng.gen_range(1..=4usize).min(m - next);
            let edges: Vec<EdgeId> = (next..next + arity).map(|i| EdgeId(i as u32)).collect();
            let mut rows: Vec<f64> = (0..1 << arity).map(|_| rng.gen::<f64>() + 0.01).collect();
            if rng.gen::<bool>() {
                let zero = rng.gen_range(0..rows.len());
                rows[zero] = 0.0;
            }
            let sum: f64 = rows.iter().sum();
            rows.iter_mut().for_each(|p| *p /= sum);
            tables.push(JointProbTable::new(edges, rows).unwrap());
            next += arity;
        }
        ProbabilisticGraph::new(b.build(), tables, false).unwrap()
    }

    #[test]
    fn mask_worlds_are_bit_identical_to_the_assignment_loop() {
        let mut rng = StdRng::seed_from_u64(20);
        let mut partial_tables = 0usize;
        for round in 0..200 {
            let pg = random_model(&mut rng);
            let m = pg.edge_count() as u32;
            let sets: Vec<EdgeSet> = (0..rng.gen_range(1..=4usize))
                .map(|_| {
                    let mut s: Vec<EdgeId> = (0..rng.gen_range(1..=4usize))
                        .map(|_| EdgeId(rng.gen_range(0..m)))
                        .collect();
                    s.sort_unstable();
                    s.dedup();
                    s
                })
                .collect();
            let mut relevant: Vec<EdgeId> = sets.iter().flatten().copied().collect();
            relevant.sort_unstable();
            relevant.dedup();
            partial_tables += pg
                .tables_touched(&relevant)
                .iter()
                .filter(|&&t| pg.tables()[t].edges().iter().any(|e| !relevant.contains(e)))
                .count();
            let (old, brute) = (reference_worlds(&pg, &relevant), brute_worlds(&pg));
            let union = exact_union_probability(&pg, &sets, DEFAULT_EXACT_LIMIT).unwrap();
            for kind in [EventKind::Embedding, EventKind::Cut] {
                let cond =
                    exact_conditional_event_probability(&pg, &sets[0], &sets[1..], kind).unwrap();
                let (ref_union, ref_cond) = reference(&pg, &old, &sets, kind);
                assert_eq!(union.to_bits(), ref_union.to_bits(), "round {round}");
                assert_eq!(cond.to_bits(), ref_cond.to_bits(), "round {round} {kind:?}");
                let (brute_union, brute_cond) = reference(&pg, &brute, &sets, kind);
                assert!((union - brute_union).abs() < 1e-12, "round {round}");
                assert!((cond - brute_cond).abs() < 1e-12, "round {round} {kind:?}");
            }
        }
        assert!(partial_tables > 0, "some event must touch part of a table");
    }
}
