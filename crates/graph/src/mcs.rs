//! Maximum common subgraph and the paper's *subgraph distance*.
//!
//! Definition 7 defines `mcs(g1, g2)` as the largest subgraph of `g2` that is
//! subgraph-isomorphic to `g1`; Definition 8 then sets
//! `dis(g1, g2) = |g1| − |mcs(g1, g2)|` counting **edges**.  Deterministic
//! subgraph similarity (`g1 ⊆sim g2` for threshold `δ`) holds iff
//! `dis(g1, g2) ≤ δ`.
//!
//! Two entry points are provided:
//!
//! * [`mcs_size`] / [`subgraph_distance`] — exact maximum common edge
//!   subgraph via branch-and-bound on partial injective vertex mappings
//!   (Definition 8 verbatim; queries are small, so this is affordable);
//! * [`SimilarityTester`] — the threshold test phase 1 runs.  It tests
//!   whether some relaxed query `rq ∈ U` embeds in `g`, where `U` is the
//!   Lemma 1 set of `q` with exactly `δ` edges deleted
//!   ([`relax_query_clamped`], deduplicated, isolated vertices dropped) —
//!   the same set phases 2 and 3 read.  For `|E(q)| > δ` this equals
//!   `dis(q, g) ≤ δ`: if `q` minus `d ≤ δ` edges embeds in `g`, deleting
//!   `δ − d` more edges still embeds.  [`subgraph_similar`] is a tester
//!   used once.

use crate::model::{Graph, VertexId};
use crate::relax::relax_query_clamped;
use crate::summary::{StructuralSummary, SummaryView};
use crate::vf2::contains_subgraph_summarized;

/// Size (in edges) of the maximum common subgraph of `g1` and `g2`
/// (largest subgraph of `g2` subgraph-isomorphic to a subgraph of `g1`).
pub fn mcs_size(g1: &Graph, g2: &Graph) -> usize {
    if g1.edge_count() == 0 || g2.edge_count() == 0 {
        return 0;
    }
    // Map the smaller-edge-count graph onto the other for a smaller search tree;
    // common edge subgraph size is symmetric.
    let (a, b) = if g1.edge_count() <= g2.edge_count() {
        (g1, g2)
    } else {
        (g2, g1)
    };
    let mut searcher = McsSearch {
        a,
        b,
        best: 0,
        mapping: vec![None; a.vertex_count()],
        used: vec![false; b.vertex_count()],
        order: order_by_degree(a),
    };
    let ub = a.edge_count().min(b.edge_count());
    searcher.recurse(0, 0);
    searcher.best.min(ub)
}

/// The paper's subgraph distance `dis(g1, g2) = |g1| − |mcs(g1, g2)|`.
pub fn subgraph_distance(g1: &Graph, g2: &Graph) -> usize {
    g1.edge_count() - mcs_size(g1, g2)
}

/// True if `dis(q, g) ≤ delta` (deterministic subgraph similarity, Def. 8):
/// a [`SimilarityTester`] built for this one `g`.  Callers testing many
/// graphs against one query build the tester once instead.
pub fn subgraph_similar(q: &Graph, g: &Graph, delta: usize) -> bool {
    SimilarityTester::new(q, delta).matches(g, StructuralSummary::of(g).view())
}

/// A reusable `dis(q, ·) ≤ δ` tester that precomputes the relaxed query set
/// `U = relax_query_clamped(q, δ)`, the one set every phase reads: phase 1
/// tests it here, and [`SimilarityTester::into_relaxed`] hands it on to
/// phases 2 and 3.  [`SimilarityTester::matches`] answers `any(rq ⊆ g)` over
/// `U`, which equals `dis(q, g) ≤ δ`.
pub struct SimilarityTester<'a> {
    q: &'a Graph,
    delta: usize,
    relaxed: Vec<Graph>,
}

impl<'a> SimilarityTester<'a> {
    /// Precomputes the tester for `(q, delta)`, enumerating `U`.
    pub fn new(q: &'a Graph, delta: usize) -> SimilarityTester<'a> {
        SimilarityTester {
            q,
            delta,
            relaxed: relax_query_clamped(q, delta),
        }
    }

    /// The distance threshold `δ` the tester answers for.
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// The query's summary (callers feed it to the S-Index filter).
    pub fn query_summary(&self) -> &StructuralSummary {
        self.q.summary()
    }

    /// `dis(q, g) ≤ delta`, using the precomputed query-side state and `g`'s
    /// cached summary.
    pub fn matches(&self, g: &Graph, g_summary: SummaryView<'_>) -> bool {
        if self.q.edge_count() <= self.delta {
            return true;
        }
        self.relaxed
            .iter()
            .any(|rq| contains_subgraph_summarized(rq, g, g_summary))
    }

    /// Hands `U` on to the later phases, each pattern with the summary
    /// phase 1 cached in it.
    pub fn into_relaxed(self) -> Vec<Graph> {
        self.relaxed
    }
}

struct McsSearch<'a> {
    a: &'a Graph,
    b: &'a Graph,
    best: usize,
    mapping: Vec<Option<VertexId>>,
    used: Vec<bool>,
    order: Vec<VertexId>,
}

impl McsSearch<'_> {
    fn recurse(&mut self, depth: usize, matched_edges: usize) {
        if depth == self.order.len() {
            self.best = self.best.max(matched_edges);
            return;
        }
        // Upper bound: every edge of `a` with at least one endpoint not yet
        // placed could still be matched.
        let placed: Vec<bool> =
            self.order
                .iter()
                .take(depth)
                .fold(vec![false; self.a.vertex_count()], |mut acc, v| {
                    acc[v.index()] = true;
                    acc
                });
        let remaining_possible = self
            .a
            .edge_entries()
            .filter(|(_, e)| !placed[e.u.index()] || !placed[e.v.index()])
            .count();
        if matched_edges + remaining_possible <= self.best {
            return;
        }
        let v = self.order[depth];
        let v_label = self.a.vertex_label(v);
        // Option 1: leave `v` unmapped.
        self.recurse(depth + 1, matched_edges);
        // Option 2: map `v` to every compatible unused vertex of `b`.
        for w in self.b.vertices() {
            if self.used[w.index()] || self.b.vertex_label(w) != v_label {
                continue;
            }
            // Count newly matched edges: edges of `a` between v and already
            // mapped vertices whose images are adjacent in `b` with the same
            // label.  Missing edges are allowed; they just do not count.
            let gained = self
                .a
                .neighbors(v)
                .iter()
                .filter(|&&(n, ea)| {
                    self.mapping[n.index()].is_some_and(|img| {
                        self.b
                            .find_edge(w, img)
                            .is_some_and(|eb| self.b.edge_label(eb) == self.a.edge_label(ea))
                    })
                })
                .count();
            self.mapping[v.index()] = Some(w);
            self.used[w.index()] = true;
            self.recurse(depth + 1, matched_edges + gained);
            self.mapping[v.index()] = None;
            self.used[w.index()] = false;
        }
    }
}

fn order_by_degree(g: &Graph) -> Vec<VertexId> {
    let mut order: Vec<VertexId> = g.vertices().collect();
    order.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GraphBuilder;

    fn triangle_q() -> Graph {
        // Query q of Figure 1: triangle a(0), b(1), c(2).
        GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 9)
            .edge(1, 2, 9)
            .edge(0, 2, 9)
            .build()
    }

    fn graph_001() -> Graph {
        // Graph 001 of Figure 1: vertices a, b, d with a triangle (e1,e2,e3).
        GraphBuilder::new()
            .vertices(&[0, 1, 3])
            .edge(0, 1, 9)
            .edge(1, 2, 9)
            .edge(0, 2, 9)
            .build()
    }

    #[test]
    fn identical_graphs_have_distance_zero() {
        let q = triangle_q();
        assert_eq!(mcs_size(&q, &q), 3);
        assert_eq!(subgraph_distance(&q, &q), 0);
        assert!(subgraph_similar(&q, &q, 0));
    }

    #[test]
    fn figure_1_query_vs_graph_001() {
        // q = triangle(a,b,c); 001 = triangle(a,b,d). They share the single a-b
        // edge, so mcs = 1 and dis = 2.
        let q = triangle_q();
        let g = graph_001();
        assert_eq!(mcs_size(&q, &g), 1);
        assert_eq!(subgraph_distance(&q, &g), 2);
        assert!(!subgraph_similar(&q, &g, 1));
        assert!(subgraph_similar(&q, &g, 2));
    }

    #[test]
    fn figure_1_query_vs_graph_002() {
        // Graph 002 contains a triangle a,a,b and extra b,c vertices; q=(a,b,c)
        // triangle. q's edges: a-b, b-c, a-c. In 002 we can match a-b (e.g. v0-v2)
        // and b-c (v2-v4) simultaneously → mcs ≥ 2; the a-c edge cannot also be
        // matched (no a-c edge in 002), so dis = 1. This is exactly why the paper
        // says q subgraph-similarly matches 002 with δ = 1.
        let q = triangle_q();
        let g002 = GraphBuilder::new()
            .vertices(&[0, 0, 1, 1, 2])
            .edge(0, 1, 9)
            .edge(0, 2, 9)
            .edge(1, 2, 9)
            .edge(2, 3, 9)
            .edge(2, 4, 9)
            .build();
        assert_eq!(mcs_size(&q, &g002), 2);
        assert_eq!(subgraph_distance(&q, &g002), 1);
        assert!(subgraph_similar(&q, &g002, 1));
        assert!(!subgraph_similar(&q, &g002, 0));
    }

    #[test]
    fn distance_counts_unmatchable_edges() {
        // Star with 3 labelled leaves vs a single matching edge.
        let star = GraphBuilder::new()
            .vertices(&[0, 1, 2, 3])
            .edge(0, 1, 0)
            .edge(0, 2, 0)
            .edge(0, 3, 0)
            .build();
        let single = GraphBuilder::new().vertices(&[0, 1]).edge(0, 1, 0).build();
        assert_eq!(mcs_size(&star, &single), 1);
        assert_eq!(subgraph_distance(&star, &single), 2);
        assert!(subgraph_similar(&star, &single, 2));
        assert!(!subgraph_similar(&star, &single, 1));
    }

    #[test]
    fn mcs_is_zero_when_labels_disjoint() {
        let a = GraphBuilder::new().vertices(&[0, 0]).edge(0, 1, 0).build();
        let b = GraphBuilder::new().vertices(&[5, 5]).edge(0, 1, 0).build();
        assert_eq!(mcs_size(&a, &b), 0);
        assert_eq!(subgraph_distance(&a, &b), 1);
    }

    #[test]
    fn empty_graph_edge_cases() {
        let e = Graph::new();
        let q = triangle_q();
        assert_eq!(mcs_size(&e, &q), 0);
        assert_eq!(mcs_size(&q, &e), 0);
        assert_eq!(subgraph_distance(&q, &e), 3);
        assert!(subgraph_similar(&e, &q, 0));
        assert!(subgraph_similar(&q, &e, 3));
        assert!(!subgraph_similar(&q, &e, 2));
    }

    #[test]
    fn subgraph_similar_matches_distance_definition() {
        // Cross-check the subset-deletion fast path against the exact distance
        // on a handful of structured cases.
        let q = GraphBuilder::new()
            .vertices(&[0, 1, 0, 1])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(2, 3, 0)
            .edge(0, 3, 0)
            .build(); // 4-cycle with alternating labels
        let g = GraphBuilder::new()
            .vertices(&[0, 1, 0])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .build(); // path of 2 edges
        let d = subgraph_distance(&q, &g);
        assert_eq!(d, 2);
        for delta in 0..=4 {
            assert_eq!(subgraph_similar(&q, &g, delta), delta >= d);
        }
    }

    #[test]
    fn similarity_tester_agrees_with_subgraph_distance() {
        use crate::relax::relax_query_clamped;
        let graphs = [
            triangle_q(),
            graph_001(),
            GraphBuilder::new()
                .vertices(&[0, 0, 1, 1, 2])
                .edge(0, 1, 9)
                .edge(0, 2, 9)
                .edge(1, 2, 9)
                .edge(2, 3, 9)
                .edge(2, 4, 9)
                .build(),
            GraphBuilder::new().vertices(&[7, 8]).edge(0, 1, 1).build(),
            Graph::new(),
        ];
        // Definition 8 counts edges only: an isolated query vertex never
        // moves the distance, even at δ = 0.
        let mut triangle_plus_isolated = triangle_q();
        triangle_plus_isolated.add_vertex(crate::model::Label(7));
        let queries = [
            triangle_q(),
            GraphBuilder::new()
                .vertices(&[0, 1, 0, 1])
                .edge(0, 1, 0)
                .edge(1, 2, 0)
                .edge(2, 3, 0)
                .edge(0, 3, 0)
                .build(),
            triangle_plus_isolated,
        ];
        for q in &queries {
            for delta in 0..=4 {
                let tester = SimilarityTester::new(q, delta);
                for g in &graphs {
                    let gs = StructuralSummary::of(g);
                    let expected = subgraph_distance(q, g) <= delta;
                    assert_eq!(
                        tester.matches(g, gs.view()),
                        expected,
                        "query {} delta {delta}",
                        q.vertex_count()
                    );
                    assert_eq!(subgraph_similar(q, g, delta), expected);
                }
                assert_eq!(tester.into_relaxed(), relax_query_clamped(q, delta));
            }
        }
    }

    #[test]
    fn large_relaxed_sets_agree_with_subgraph_distance() {
        // A 15-edge path with distinct vertex labels: C(15, 5) = 3003 and
        // C(15, 6) = 5005 deletion subsets.
        let labels: Vec<u32> = (0..16).collect();
        let path_without = |gaps: &[usize]| {
            let mut b = GraphBuilder::new().vertices(&labels);
            for i in (0..15).filter(|i| !gaps.contains(i)) {
                b = b.edge(i as u32, i as u32 + 1, 0);
            }
            b.build()
        };
        let q = path_without(&[]);
        let graphs = [
            q.clone(),
            path_without(&[0, 3, 6, 9, 12]),
            path_without(&[0, 2, 4, 6, 8, 10]),
            path_without(&[1, 3, 5, 7, 9, 11, 13]),
        ];
        for delta in [5, 6] {
            let tester = SimilarityTester::new(&q, delta);
            let verdicts: Vec<bool> = graphs
                .iter()
                .map(|g| tester.matches(g, StructuralSummary::of(g).view()))
                .collect();
            let reference: Vec<bool> = graphs
                .iter()
                .map(|g| subgraph_distance(&q, g) <= delta)
                .collect();
            assert_eq!(verdicts, reference, "delta {delta}");
            assert_eq!(verdicts, [true, true, delta >= 6, false], "delta {delta}");
        }
    }
}
