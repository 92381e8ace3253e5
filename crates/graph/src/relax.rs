//! Query relaxation: the set `U = {rq_1, ..., rq_a}` of graphs obtained by
//! deleting `δ` edges from the query.
//!
//! Lemma 1 rewrites the subgraph similarity probability as
//! `Pr(q ⊆sim g) = Pr(Brq_1 ∨ ... ∨ Brq_a)` where `rq_i` ranges over the
//! relaxations of `q` with exactly `δ` edges removed; both pruning rules and
//! the verification sampler operate on this set.  Following the paper (and
//! \[38\], which it borrows the relaxation procedure from) we relax by **edge
//! deletion**; relabelings are a straightforward extension and insertions never
//! apply to similarity search (footnote 4 of the paper).
//!
//! Relaxed graphs are deduplicated up to isomorphism (deleting symmetric edges
//! yields identical patterns) by canonical code (`dfs_code::IsomorphismClasses`),
//! keeping the first graph of each class in deletion-subset order, and
//! isolated vertices are dropped because the subgraph distance of
//! Definition 8 counts edges only.
//!
//! [`relax_query`] is the crate's only relaxation enumerator.  A query runs it
//! once, through [`relax_query_clamped`], and all three phases read that one
//! set: phase 1's exact check (`pgs_graph::mcs::SimilarityTester` tests
//! `any(rq ⊆ g)`, which equals `dis(q, g) ≤ δ` whenever `|E(q)| > δ`), phase
//! 2's feature relation and phase 3's sampler.

use crate::dfs_code::{canonical_code, IsomorphismClasses};
use crate::model::{EdgeId, Graph};

/// The paper's relaxed query set `U`: all pairwise non-isomorphic graphs
/// obtained from `q` by deleting exactly `delta` edges (isolated vertices
/// dropped).  `delta = 0` returns the query itself (minus any isolated
/// vertex); `delta > |E(q)|` returns nothing.
pub fn relax_query(q: &Graph, delta: usize) -> Vec<Graph> {
    if delta > q.edge_count() {
        return Vec::new();
    }
    let all_edges: Vec<EdgeId> = q.edges().collect();
    let mut results: Vec<Graph> = Vec::new();
    let mut seen = IsomorphismClasses::default();
    let mut keep_unique = |deleted: &[EdgeId]| {
        let keep: Vec<EdgeId> = all_edges
            .iter()
            .copied()
            .filter(|e| !deleted.contains(e))
            .collect();
        let g = drop_isolated(&q.edge_subgraph(&keep));
        if seen.insert(canonical_code(&g), &g) {
            results.push(g);
        }
    };
    enumerate_subsets(&all_edges, delta, 0, &mut Vec::new(), &mut keep_unique);
    results
}

/// [`relax_query`] with `delta` clamped to the query's edge count.
///
/// `relax_query(q, delta)` returns an *empty* set when `delta > |E(q)|`
/// (there is no way to delete more edges than exist), but Definition 8's
/// subgraph distance saturates at `|E(q)|`, so the query pipeline wants the
/// full relaxation instead.  This helper is the single place where that clamp
/// lives: the query pipeline calls it once per query and hands the one set to
/// phase 1's exact check, the pruning bounds and the verification sampler, so
/// the phases can never disagree about the relaxed set.
pub fn relax_query_clamped(q: &Graph, delta: usize) -> Vec<Graph> {
    relax_query(q, delta.min(q.edge_count()))
}

/// Removes isolated vertices, renumbering the rest densely.
pub fn drop_isolated(g: &Graph) -> Graph {
    let keep: Vec<_> = g.vertices().filter(|&v| g.degree(v) > 0).collect();
    if keep.len() == g.vertex_count() {
        return g.clone();
    }
    g.induced_subgraph(&keep).0
}

/// Enumerates all `k`-subsets of `items`, invoking `f` on each.
fn enumerate_subsets<T: Copy>(
    items: &[T],
    k: usize,
    start: usize,
    current: &mut Vec<T>,
    f: &mut impl FnMut(&[T]),
) {
    if current.len() == k {
        f(current);
        return;
    }
    for i in start..=items.len() - (k - current.len()) {
        current.push(items[i]);
        enumerate_subsets(items, k, i + 1, current, f);
        current.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GraphBuilder;

    fn triangle_q() -> Graph {
        // Figure 1 query: triangle with vertex labels a(0), b(1), c(2).
        GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 9)
            .edge(1, 2, 9)
            .edge(0, 2, 9)
            .build()
    }

    #[test]
    fn figure_5_relaxation_of_the_query() {
        // Figure 5: relaxing q (triangle a-b-c) by one edge yields exactly three
        // distinct 2-edge paths rq1, rq2, rq3 (they differ by which vertex is in
        // the middle, so none are isomorphic).
        let u = relax_query(&triangle_q(), 1);
        assert_eq!(u.len(), 3);
        for rq in &u {
            assert_eq!(rq.edge_count(), 2);
            assert_eq!(rq.vertex_count(), 3);
            assert!(rq.is_connected());
        }
    }

    #[test]
    fn delta_zero_returns_query_itself() {
        let q = triangle_q();
        let u = relax_query(&q, 0);
        assert_eq!(u.len(), 1);
        assert!(crate::dfs_code::are_isomorphic(&u[0], &q));

        // An isolated query vertex carries no edge, so it is not part of `U`.
        let mut with_isolated = q.clone();
        with_isolated.add_vertex(crate::model::Label(7));
        let u = relax_query(&with_isolated, 0);
        assert_eq!(u.len(), 1);
        assert!(crate::dfs_code::are_isomorphic(&u[0], &q));
    }

    #[test]
    fn delta_larger_than_edges_returns_nothing() {
        let q = triangle_q();
        assert!(relax_query(&q, 4).is_empty());
    }

    #[test]
    fn delta_equal_to_edges_returns_single_empty_graph() {
        let q = triangle_q();
        let u = relax_query(&q, 3);
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].edge_count(), 0);
        assert_eq!(u[0].vertex_count(), 0); // isolated vertices dropped
    }

    #[test]
    fn symmetric_deletions_are_deduplicated() {
        // Unlabelled triangle: all three single-edge deletions give isomorphic
        // 2-edge paths, so |U| = 1.
        let tri = GraphBuilder::new()
            .vertices(&[0, 0, 0])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(0, 2, 0)
            .build();
        let u = relax_query(&tri, 1);
        assert_eq!(u.len(), 1);
    }

    #[test]
    fn disconnected_relaxations_are_kept() {
        // Path of 3 edges: deleting the middle edge leaves two disjoint edges.
        let p = GraphBuilder::new()
            .vertices(&[0, 1, 2, 3])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(2, 3, 0)
            .build();
        let u = relax_query(&p, 1);
        assert_eq!(u.len(), 3);
        assert!(u.iter().any(|g| !g.is_connected()));
    }

    #[test]
    fn drop_isolated_preserves_labels() {
        let mut g = triangle_q();
        let extra = g.add_vertex(crate::model::Label(42));
        assert_eq!(g.degree(extra), 0);
        let cleaned = drop_isolated(&g);
        assert_eq!(cleaned.vertex_count(), 3);
        assert_eq!(cleaned.edge_count(), 3);
        assert!(cleaned.vertex_labels().iter().all(|l| l.value() != 42));
    }

    #[test]
    fn subset_enumeration_counts() {
        let items: Vec<u32> = (0..5).collect();
        let mut count = 0;
        let mut cur = Vec::new();
        enumerate_subsets(&items, 3, 0, &mut cur, &mut |_s| count += 1);
        assert_eq!(count, 10);
    }
}
