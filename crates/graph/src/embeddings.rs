//! Embeddings of a pattern graph inside a data graph.
//!
//! Definition 5 of the paper calls the image subgraph `(V3, E3)` of an injective
//! matching the *embedding* of the pattern.  The probabilistic machinery
//! (Section 4.1) only ever cares about the **edge set** of an embedding — two
//! matchings that select the same data edges (e.g. automorphic images) behave
//! identically in every probability formula — so [`Embedding`] carries both the
//! vertex map (useful for diagnostics) and a canonical, sorted edge set used for
//! deduplication, disjointness tests and cut computation.

use crate::model::{EdgeId, VertexId};

/// A sorted, deduplicated set of data-graph edge ids.
pub type EdgeSet = Vec<EdgeId>;

/// One embedding of a pattern in a data graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Embedding {
    /// `vertex_map[i]` is the data vertex the `i`-th pattern vertex maps to.
    pub vertex_map: Vec<VertexId>,
    /// Sorted data-graph edge ids covered by the pattern edges.
    pub edges: EdgeSet,
}

impl Embedding {
    /// Creates an embedding, normalising (sorting + deduplicating) the edge set.
    pub fn new(vertex_map: Vec<VertexId>, mut edges: Vec<EdgeId>) -> Self {
        edges.sort_unstable();
        edges.dedup();
        Embedding { vertex_map, edges }
    }

    /// Number of data edges covered.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// True if the two embeddings share no data edge ("disjoint embeddings" in
    /// the sense of Section 4.1.1 — they have no common parts/edges).
    pub fn is_edge_disjoint(&self, other: &Embedding) -> bool {
        edge_sets_disjoint(&self.edges, &other.edges)
    }
}

/// True if two sorted edge sets are disjoint (linear merge scan).
pub fn edge_sets_disjoint(a: &[EdgeId], b: &[EdgeId]) -> bool {
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

/// The maximum number of pairwise edge-disjoint embeddings, computed greedily
/// with several orderings (used by feature selection: `|IN| / |Ef| ≥ α`).
pub fn disjoint_embedding_count(embeddings: &[Embedding]) -> usize {
    if embeddings.is_empty() {
        return 0;
    }
    // Greedy by ascending edge-set size tends to find larger disjoint families.
    let mut order: Vec<usize> = (0..embeddings.len()).collect();
    order.sort_by_key(|&i| embeddings[i].edges.len());
    let mut best = 0usize;
    for start in 0..order.len().min(8) {
        let mut chosen: Vec<usize> = Vec::new();
        for idx in order.iter().cycle().skip(start).take(order.len()) {
            let emb = &embeddings[*idx];
            if chosen.iter().all(|&j| embeddings[j].is_edge_disjoint(emb)) {
                chosen.push(*idx);
            }
        }
        best = best.max(chosen.len());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emb(edges: &[u32]) -> Embedding {
        Embedding::new(vec![], edges.iter().map(|&e| EdgeId(e)).collect())
    }

    #[test]
    fn new_normalises_edge_set() {
        let e = Embedding::new(vec![VertexId(0)], vec![EdgeId(3), EdgeId(1), EdgeId(3)]);
        assert_eq!(e.edges, vec![EdgeId(1), EdgeId(3)]);
        assert_eq!(e.edge_count(), 2);
    }

    #[test]
    fn disjointness_checks() {
        let a = emb(&[0, 1]);
        let b = emb(&[2, 3]);
        let c = emb(&[1, 2]);
        assert!(a.is_edge_disjoint(&b));
        assert!(!a.is_edge_disjoint(&c));
    }

    #[test]
    fn set_operations() {
        let a = vec![EdgeId(0), EdgeId(1), EdgeId(4)];
        let b = vec![EdgeId(1), EdgeId(2), EdgeId(4)];
        assert!(!edge_sets_disjoint(&a, &b));
        assert!(edge_sets_disjoint(&a, &[EdgeId(7)]));
        assert!(edge_sets_disjoint(&[], &b));
    }

    #[test]
    fn greedy_disjoint_family() {
        // Figure 7: EM1={e1,e2}, EM2={e2,e3}, EM3={e3,e4}. EM1 and EM3 are disjoint.
        let embs = vec![emb(&[1, 2]), emb(&[2, 3]), emb(&[3, 4])];
        assert_eq!(disjoint_embedding_count(&embs), 2);
    }

    #[test]
    fn disjoint_count_empty_and_overlapping() {
        assert_eq!(disjoint_embedding_count(&[]), 0);
        let embs = vec![emb(&[0, 1]), emb(&[1, 2]), emb(&[0, 2])];
        assert_eq!(disjoint_embedding_count(&embs), 1);
    }
}
