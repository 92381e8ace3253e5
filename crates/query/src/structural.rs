//! Structural pruning (the pipeline's first phase).
//!
//! Theorem 1: if the query is not subgraph-similar to the deterministic
//! skeleton `gc`, the subgraph similarity probability is zero, so the graph can
//! be discarded without touching any probability.  The paper delegates this
//! phase to Grafil \[38\], a multi-filter feature-count framework; the same idea
//! is implemented here in two stages:
//!
//! 1. **Feature-count filter** — for every edge signature (edge label +
//!    endpoint labels) the data graph must contain at least
//!    `count_q(sig) − δ` occurrences; a graph whose total signature deficit
//!    exceeds `δ` cannot be within subgraph distance `δ` (each deleted edge
//!    removes at most one occurrence).  This is Grafil's edge-feature filter.
//! 2. **Exact check** — surviving graphs are confirmed with the subgraph
//!    distance of Definition 8 through one `pgs_graph::mcs::SimilarityTester`
//!    per query: some relaxed query `rq ∈ U` (the Lemma 1 set phases 2 and 3
//!    read) must embed in the skeleton, so the phase returns exactly
//!    `SC_q = {g | dis(q, gc) ≤ δ}` as assumed by Section 1.2.
//!
//! Two implementations of stage 1 exist:
//!
//! * [`structural_candidates_tested`] — the production path.  The query's
//!   summary is computed **once**, the deficit filter runs over the S-Index
//!   posting lists (`pgs_index::sindex`), touching only graphs that share at
//!   least one edge signature with the query, and the exact check reads each
//!   survivor's skeleton from the database graph itself (the engine keeps no
//!   second copy) next to its cached S-Index summary.  Posting work is
//!   proportional to the entries of the query's own signatures, but the
//!   dense accumulator's zero-fill and the final pass over it are linear in
//!   the database size, so the phase is not sublinear (DESIGN.md §10).  The
//!   engine builds the tester over the relaxed set it computed for the
//!   query.
//! * [`structural_candidates`] — the brute-force reference: a sequential
//!   full scan with the per-graph filter.  The tester (and with it the query
//!   histogram) is still built once per query, but every skeleton is
//!   visited and summarised once.  Kept for index-free callers and the
//!   equivalence tests.
//!
//! Both return the same index set, bit for bit, for every input — the
//! determinism suite and a randomized property test pin this.

use pgs_graph::mcs::SimilarityTester;
use pgs_graph::model::Graph;
use pgs_graph::parallel::{par_map_chunked_costed, CostHint};
use pgs_graph::summary::StructuralSummary;
use pgs_index::sindex::StructuralIndex;
use pgs_prob::model::ProbabilisticGraph;

/// Work counters of one indexed structural phase run
/// (surfaced as `PhaseStats` fields).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StructuralFilterStats {
    /// Posting entries walked during deficit accumulation.
    pub posting_entries_scanned: usize,
    /// Graphs surviving the feature-count filter (= graphs handed to the
    /// exact subgraph-distance check).
    pub filter_survivors: usize,
}

/// Returns the indices of the skeleton graphs that are deterministically
/// subgraph-similar to `q` under distance threshold `delta` (the set `SC_q`),
/// by a sequential brute-force scan, in ascending order.
pub fn structural_candidates(skeletons: &[Graph], q: &Graph, delta: usize) -> Vec<usize> {
    // Built once per query, not once per candidate skeleton.
    let tester = SimilarityTester::new(q, delta);
    let qs = tester.query_summary().view();
    skeletons
        .iter()
        .enumerate()
        .filter(|(_, g)| {
            let gs = StructuralSummary::of(g);
            qs.signature_deficit(gs.view(), delta) <= delta && tester.matches(g, gs.view())
        })
        .map(|(i, _)| i)
        .collect()
}

/// `SC_q` via the S-Index: posting-list deficit accumulation generates the
/// filter survivors without touching unrelated graphs, then `tester`
/// confirms them, so the query summary and the relaxed patterns' summaries
/// are derived once per query instead of once per candidate; at
/// `δ = |E(q)| − 1` the filter alone decides.  Returns the
/// candidate list (ascending, identical to [`structural_candidates`]) plus
/// the phase's work counters.
///
/// `index` must summarise exactly the skeletons of `db` (the engine keeps
/// the two aligned through builds and incremental mutations).
pub fn structural_candidates_tested(
    index: &StructuralIndex,
    db: &[ProbabilisticGraph],
    tester: &SimilarityTester<'_>,
    threads: usize,
) -> (Vec<usize>, StructuralFilterStats) {
    debug_assert_eq!(index.graph_count(), db.len());
    let query = tester.query_summary().view();
    let outcome = index.filter_candidates(query, tester.delta());
    let stats = StructuralFilterStats {
        posting_entries_scanned: outcome.posting_entries_scanned,
        filter_survivors: outcome.candidates.len(),
    };
    if query.edge_count() == tester.delta() + 1 {
        // One edge is left after δ deletions, so every relaxed pattern is a
        // single edge (relaxation drops isolated vertices), and a survivor's
        // deficit of at most δ means it holds one of the query's edge
        // signatures — which is `any(rq ⊆ g)` already.
        return (outcome.candidates, stats);
    }
    let keep = par_map_chunked_costed(
        &outcome.candidates,
        threads,
        CostHint::MODERATE,
        |_, &gi| tester.matches(db[gi].skeleton(), index.summary(gi)),
    );
    let candidates = outcome
        .candidates
        .iter()
        .zip(&keep)
        .filter_map(|(&gi, &k)| k.then_some(gi))
        .collect();
    (candidates, stats)
}

/// Grafil-style edge-signature count filter: a necessary condition for
/// `dis(q, g) ≤ delta`.  Every edge deletion removes exactly one
/// edge-signature occurrence from the query, so if `q` minus at most `delta`
/// edges embeds in `g`, the total per-signature deficit
/// `Σ max(0, count_q(sig) − count_g(sig))` cannot exceed `delta`.
pub fn passes_feature_count_filter(q: &Graph, g: &Graph, delta: usize) -> bool {
    StructuralSummary::of(q)
        .view()
        .signature_deficit(StructuralSummary::of(g).view(), delta)
        <= delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgs_graph::mcs::subgraph_similar;
    use pgs_graph::model::GraphBuilder;

    fn query() -> Graph {
        // Triangle a-b-c (Figure 1's q).
        GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 9)
            .edge(1, 2, 9)
            .edge(0, 2, 9)
            .build()
    }

    fn database() -> Vec<Graph> {
        vec![
            // 0: graph 001 — triangle a, b, d: shares only the a-b edge (dis = 2).
            GraphBuilder::new()
                .vertices(&[0, 1, 3])
                .edge(0, 1, 9)
                .edge(1, 2, 9)
                .edge(0, 2, 9)
                .build(),
            // 1: graph 002 — contains a-b and b-c edges (dis = 1).
            GraphBuilder::new()
                .vertices(&[0, 0, 1, 1, 2])
                .edge(0, 1, 9)
                .edge(0, 2, 9)
                .edge(1, 2, 9)
                .edge(2, 3, 9)
                .edge(2, 4, 9)
                .build(),
            // 2: exact super-graph of the query (dis = 0).
            GraphBuilder::new()
                .vertices(&[0, 1, 2, 5])
                .edge(0, 1, 9)
                .edge(1, 2, 9)
                .edge(0, 2, 9)
                .edge(2, 3, 9)
                .build(),
            // 3: completely unrelated labels (dis = 3).
            GraphBuilder::new()
                .vertices(&[7, 8, 9])
                .edge(0, 1, 1)
                .edge(1, 2, 1)
                .build(),
        ]
    }

    /// The skeletons as independent-edge probabilistic graphs (phase 1 reads
    /// only the skeleton).
    fn probabilistic(db: &[Graph]) -> Vec<ProbabilisticGraph> {
        db.iter()
            .map(|g| {
                ProbabilisticGraph::independent(g.clone(), &vec![0.5; g.edge_count()])
                    .expect("valid edge probabilities")
            })
            .collect()
    }

    #[test]
    fn candidates_match_the_exact_distance_semantics() {
        let db = database();
        let q = query();
        assert_eq!(structural_candidates(&db, &q, 0), vec![2]);
        assert_eq!(structural_candidates(&db, &q, 1), vec![1, 2]);
        assert_eq!(structural_candidates(&db, &q, 2), vec![0, 1, 2]);
        assert_eq!(structural_candidates(&db, &q, 3), vec![0, 1, 2, 3]);
    }

    #[test]
    fn indexed_candidates_match_the_bruteforce_scan() {
        let db = database();
        let pdb = probabilistic(&db);
        let index = StructuralIndex::build(&db);
        let q = query();
        for delta in 0..=4 {
            let brute = structural_candidates(&db, &q, delta);
            let tester = SimilarityTester::new(&q, delta);
            for threads in [1usize, 0, 3] {
                let (indexed, stats) = structural_candidates_tested(&index, &pdb, &tester, threads);
                assert_eq!(indexed, brute, "delta = {delta}, threads = {threads}");
                assert!(stats.filter_survivors >= indexed.len());
            }
        }
        // The unrelated graph 3 is never even touched for a selective query.
        let (_, stats) =
            structural_candidates_tested(&index, &pdb, &SimilarityTester::new(&q, 0), 1);
        assert_eq!(stats.filter_survivors, 1);
        assert!(stats.posting_entries_scanned > 0);
    }

    #[test]
    fn filter_agrees_with_exact_check_as_a_necessary_condition() {
        // The count filter may keep extra graphs but must never drop a graph
        // that the exact check accepts.
        let db = database();
        let q = query();
        for delta in 0..=3 {
            for g in &db {
                if subgraph_similar(&q, g, delta) {
                    assert!(
                        passes_feature_count_filter(&q, g, delta),
                        "filter dropped a true candidate at delta={delta}"
                    );
                }
            }
        }
    }

    #[test]
    fn filter_rejects_obviously_missing_structure() {
        let q = query();
        let unrelated = &database()[3];
        assert!(!passes_feature_count_filter(&q, unrelated, 1));
    }

    #[test]
    fn tiny_delta_larger_than_query_accepts_everything() {
        let db = database();
        let q = GraphBuilder::new().vertices(&[0, 1]).edge(0, 1, 9).build();
        let candidates = structural_candidates(&db, &q, 1);
        assert_eq!(candidates.len(), db.len());
        let index = StructuralIndex::build(&db);
        let tester = SimilarityTester::new(&q, 1);
        let (indexed, stats) =
            structural_candidates_tested(&index, &probabilistic(&db), &tester, 1);
        assert_eq!(indexed.len(), db.len());
        // The vacuous filter never walks a posting list.
        assert_eq!(stats.posting_entries_scanned, 0);
    }

    #[test]
    fn empty_database_gives_no_candidates() {
        assert!(structural_candidates(&[], &query(), 1).is_empty());
        let index = StructuralIndex::build::<Graph>(&[]);
        let q = query();
        let tester = SimilarityTester::new(&q, 1);
        assert!(structural_candidates_tested(&index, &[], &tester, 1)
            .0
            .is_empty());
    }
}
