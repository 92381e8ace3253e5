//! Canonical forms for small labelled graphs.
//!
//! The feature miner and the query relaxer both need to answer "have I already
//! seen this pattern up to isomorphism?".  gSpan solves this with minimum DFS
//! codes; because every pattern this workspace ever canonicalises is tiny (a
//! PMI feature has at most `maxL` vertices, a relaxed query has at most the
//! query's vertices), we use an exact canonical form computed by brute-force
//! permutation minimisation for graphs up to [`EXACT_LIMIT`] vertices, and a
//! Weisfeiler–Lehman style invariant (marked as non-exact) beyond that.
//! Callers that require exactness (e.g. deduplication of relaxed queries) fall
//! back to a VF2 isomorphism check when the code is not exact.

use crate::model::{Graph, VertexId};
use crate::vf2::contains_subgraph;

/// Graphs with at most this many vertices get an exact canonical code.
pub const EXACT_LIMIT: usize = 8;

/// A canonical (or invariant) code for a labelled graph.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonicalCode {
    /// Encoded form; comparable across graphs.
    pub code: Vec<u64>,
    /// True if the code is a true canonical form (equal codes ⇔ isomorphic).
    pub exact: bool,
}

impl CanonicalCode {
    /// A compact printable digest (for logs and index files).
    pub fn digest(&self) -> u64 {
        // FNV-1a over the code words; stable across runs.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &w in &self.code {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }
}

/// Computes the canonical code of `g`.
pub fn canonical_code(g: &Graph) -> CanonicalCode {
    if g.vertex_count() <= EXACT_LIMIT {
        CanonicalCode {
            code: exact_code(g),
            exact: true,
        }
    } else {
        CanonicalCode {
            code: wl_invariant(g),
            exact: false,
        }
    }
}

/// True if `g1` and `g2` are isomorphic (exact, any size).
///
/// Uses counting invariants first, then an exact code comparison for small
/// graphs, and finally a VF2 monomorphism check: for simple graphs with equal
/// vertex and edge counts, a label-preserving monomorphism is an isomorphism.
pub fn are_isomorphic(g1: &Graph, g2: &Graph) -> bool {
    if g1.vertex_count() != g2.vertex_count() || g1.edge_count() != g2.edge_count() {
        return false;
    }
    if g1.vertex_label_histogram() != g2.vertex_label_histogram() {
        return false;
    }
    if g1.edge_signature_histogram() != g2.edge_signature_histogram() {
        return false;
    }
    if g1.vertex_count() <= EXACT_LIMIT {
        return exact_code(g1) == exact_code(g2);
    }
    contains_subgraph(g1, g2)
}

/// Exact canonical encoding via permutation minimisation.
///
/// The encoding of a vertex order `π` is
/// `[n, m, label(π(0)).., for each (i,j) i<j with edge: (i, j, edge label)...]`
/// and the canonical code is the lexicographically smallest encoding over all
/// `n!` permutations: nothing is pruned, so callers keep `n` at most
/// [`EXACT_LIMIT`].
fn exact_code(g: &Graph) -> Vec<u64> {
    let n = g.vertex_count();
    let mut best: Option<Vec<u64>> = None;
    let mut perm: Vec<usize> = (0..n).collect();
    // Order vertices by (label, degree) so the first tried permutation is a
    // reasonable candidate; we still try all permutations for exactness.
    perm.sort_by_key(|&v| {
        (
            g.vertex_label(VertexId(v as u32)).0,
            g.degree(VertexId(v as u32)),
        )
    });
    permute(&mut perm, 0, g, &mut best);
    // pgs-lint: allow(panic-in-library, permute evaluates at least the identity permutation, so best is set)
    best.expect("at least one permutation is evaluated")
}

fn permute(perm: &mut Vec<usize>, k: usize, g: &Graph, best: &mut Option<Vec<u64>>) {
    let n = perm.len();
    if k == n {
        let code = encode_with_order(g, perm);
        match best {
            None => *best = Some(code),
            Some(b) => {
                if code < *b {
                    *best = Some(code);
                }
            }
        }
        return;
    }
    for i in k..n {
        perm.swap(k, i);
        permute(perm, k + 1, g, best);
        perm.swap(k, i);
    }
}

fn encode_with_order(g: &Graph, order: &[usize]) -> Vec<u64> {
    let n = g.vertex_count();
    let mut pos = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v] = i;
    }
    let mut code = Vec::with_capacity(2 + n + g.edge_count() * 3);
    code.push(n as u64);
    code.push(g.edge_count() as u64);
    for &v in order {
        code.push(g.vertex_label(VertexId(v as u32)).0 as u64);
    }
    let mut edges: Vec<(u64, u64, u64)> = g
        .edge_entries()
        .map(|(_, e)| {
            let a = pos[e.u.index()] as u64;
            let b = pos[e.v.index()] as u64;
            let (a, b) = if a < b { (a, b) } else { (b, a) };
            (a, b, e.label.0 as u64)
        })
        .collect();
    edges.sort_unstable();
    for (a, b, l) in edges {
        code.push(a);
        code.push(b);
        code.push(l);
    }
    code
}

/// 1-dimensional Weisfeiler–Lehman colour-refinement invariant (3 rounds).
/// Equal invariants do not guarantee isomorphism, hence `exact = false`.
fn wl_invariant(g: &Graph) -> Vec<u64> {
    let n = g.vertex_count();
    let mut colors: Vec<u64> = (0..n)
        .map(|v| g.vertex_label(VertexId(v as u32)).0 as u64)
        .collect();
    for _round in 0..3 {
        let mut next = Vec::with_capacity(n);
        for v in 0..n {
            let mut sig: Vec<(u64, u64)> = g
                .neighbors(VertexId(v as u32))
                .iter()
                .map(|&(w, e)| (g.edge_label(e).0 as u64, colors[w.index()]))
                .collect();
            sig.sort_unstable();
            let mut h: u64 = colors[v].wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for (el, c) in sig {
                h = h
                    .rotate_left(7)
                    .wrapping_add(el.wrapping_mul(31).wrapping_add(c));
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            next.push(h);
        }
        colors = next;
    }
    let mut sorted = colors;
    sorted.sort_unstable();
    let mut out = vec![n as u64, g.edge_count() as u64];
    out.extend(sorted);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GraphBuilder, Label};

    fn triangle(labels: [u32; 3]) -> Graph {
        GraphBuilder::new()
            .vertices(&labels)
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(0, 2, 0)
            .build()
    }

    #[test]
    fn isomorphic_graphs_share_exact_code() {
        let g1 = triangle([5, 6, 7]);
        let g2 = triangle([7, 5, 6]); // same triangle, different vertex order
        let c1 = canonical_code(&g1);
        let c2 = canonical_code(&g2);
        assert!(c1.exact && c2.exact);
        assert_eq!(c1, c2);
        assert_eq!(c1.digest(), c2.digest());
        assert!(are_isomorphic(&g1, &g2));
    }

    #[test]
    fn non_isomorphic_graphs_differ() {
        let tri = triangle([0, 0, 0]);
        let path = GraphBuilder::new()
            .vertices(&[0, 0, 0])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .build();
        assert_ne!(canonical_code(&tri), canonical_code(&path));
        assert!(!are_isomorphic(&tri, &path));
    }

    #[test]
    fn label_differences_matter() {
        let a = triangle([0, 0, 1]);
        let b = triangle([0, 1, 1]);
        assert_ne!(canonical_code(&a), canonical_code(&b));
        assert!(!are_isomorphic(&a, &b));

        let e1 = GraphBuilder::new().vertices(&[0, 0]).edge(0, 1, 1).build();
        let e2 = GraphBuilder::new().vertices(&[0, 0]).edge(0, 1, 2).build();
        assert_ne!(canonical_code(&e1), canonical_code(&e2));
        assert!(!are_isomorphic(&e1, &e2));
    }

    #[test]
    fn code_distinguishes_paths_from_stars() {
        // Same degree-sum, same labels: P4 vs K1,3.
        let p4 = GraphBuilder::new()
            .vertices(&[0, 0, 0, 0])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(2, 3, 0)
            .build();
        let star = GraphBuilder::new()
            .vertices(&[0, 0, 0, 0])
            .edge(0, 1, 0)
            .edge(0, 2, 0)
            .edge(0, 3, 0)
            .build();
        assert_ne!(canonical_code(&p4), canonical_code(&star));
        assert!(!are_isomorphic(&p4, &star));
    }

    #[test]
    fn large_graphs_use_invariant_code() {
        let mut b = GraphBuilder::new();
        for _ in 0..12 {
            b = b.vertex(0);
        }
        for i in 0..11u32 {
            b = b.edge(i, i + 1, 0);
        }
        let g = b.build();
        let c = canonical_code(&g);
        assert!(!c.exact);
        assert_eq!(c.code[0], 12);
    }

    #[test]
    fn large_isomorphic_graphs_detected_via_vf2() {
        // Two 10-vertex cycles with labels rotated: isomorphic.
        let make = |shift: u32| {
            let mut b = GraphBuilder::new();
            for i in 0..10u32 {
                b = b.vertex((i + shift) % 2);
            }
            for i in 0..10u32 {
                b = b.edge(i, (i + 1) % 10, 0);
            }
            b.build()
        };
        let g1 = make(0);
        let g2 = make(2); // same alternating pattern
        assert!(are_isomorphic(&g1, &g2));
        let g3 = make(1); // labels swapped parity — still alternating, isomorphic by rotation
        assert!(are_isomorphic(&g1, &g3));
    }

    #[test]
    fn empty_and_single_vertex() {
        let e1 = Graph::new();
        let e2 = Graph::new();
        assert!(are_isomorphic(&e1, &e2));
        assert_eq!(canonical_code(&e1), canonical_code(&e2));
        let mut s1 = Graph::new();
        s1.add_vertex(Label(3));
        let mut s2 = Graph::new();
        s2.add_vertex(Label(4));
        assert!(!are_isomorphic(&s1, &s2));
    }
}
