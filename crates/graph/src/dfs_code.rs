//! Canonical forms for small labelled graphs.
//!
//! The feature miner and the query relaxer both need to answer "have I already
//! seen this pattern up to isomorphism?".  gSpan solves this with minimum DFS
//! codes; here a code is the lexicographically smallest encoding of the graph
//! over a set of vertex orders, and that set only has to be *invariant*, not
//! all `n!` orders.
//!
//! Vertices are sorted into cells by (label, degree).  The cells are an
//! isomorphism invariant, so an isomorphism maps the cell-respecting orders of
//! one graph (those that permute vertices only within their cell) onto those
//! of the other, with equal encodings: isomorphic graphs get equal codes.  The
//! encoding spells out every vertex label and edge, so equal codes mean
//! isomorphic graphs.  The minimisation costs the product of the cells'
//! factorials; while that is at most [`EXACT_ORDER_LIMIT`] (8!, so every graph
//! with at most 8 vertices) the code is exact, beyond it a Weisfeiler–Lehman
//! style invariant (marked as non-exact) stands in.  Callers that require
//! exactness fall back to a VF2 isomorphism check when the code is not exact;
//! `IsomorphismClasses` packages that rule for the crate's deduplication.
//!
//! Nothing orders graphs by code *value* (codes are compared for equality
//! only), so which invariant order set is minimised over never changes which
//! graphs count as duplicates.

use crate::model::{Graph, VertexId};
use crate::vf2::contains_subgraph_summarized;
use std::collections::HashMap;

/// Exact codes are computed while a graph has at most this many
/// cell-respecting vertex orders (8! = 40 320).
pub const EXACT_ORDER_LIMIT: usize = 40_320;

/// A canonical (or invariant) code for a labelled graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalCode {
    /// Encoded form; comparable across graphs for equality.
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
    let cells = Cells::of(g);
    if cells.orders <= EXACT_ORDER_LIMIT {
        CanonicalCode {
            code: exact_code(g, cells),
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
/// Compares the cached summaries first (counts, both label histograms and
/// the degree sequence, all isomorphism invariants), then the exact codes
/// when the cells allow one, and finally runs a VF2 monomorphism check: for
/// simple graphs with equal vertex and edge counts, a label-preserving
/// monomorphism is an isomorphism.
pub fn are_isomorphic(g1: &Graph, g2: &Graph) -> bool {
    if g1.summary() != g2.summary() {
        return false;
    }
    // Equal keys also mean equal order counts, so neither exact code below
    // evaluates more than the limit.
    let (c1, c2) = (Cells::of(g1), Cells::of(g2));
    if c1.keys != c2.keys {
        return false;
    }
    if c1.orders <= EXACT_ORDER_LIMIT {
        return exact_code(g1, c1) == exact_code(g2, c2);
    }
    contains_subgraph_summarized(g1, g2, g2.summary().view())
}

/// A set of graphs up to isomorphism, keyed by canonical code.
///
/// An exact code decides membership on its own; a graph whose code is only
/// an invariant is kept and compared with [`are_isomorphic`] against the
/// kept graphs sharing its code.
#[derive(Debug, Default)]
pub(crate) struct IsomorphismClasses {
    classes: HashMap<CanonicalCode, Vec<Graph>>,
}

impl IsomorphismClasses {
    /// True if a graph isomorphic to `g` (whose code is `code`) was inserted.
    pub(crate) fn contains(&self, code: &CanonicalCode, g: &Graph) -> bool {
        self.classes
            .get(code)
            .is_some_and(|kept| code.exact || kept.iter().any(|h| are_isomorphic(h, g)))
    }

    /// Records the class of `g` (whose code is `code`); returns true if it
    /// was not recorded before.
    pub(crate) fn insert(&mut self, code: CanonicalCode, g: &Graph) -> bool {
        if self.contains(&code, g) {
            return false;
        }
        let exact = code.exact;
        let kept = self.classes.entry(code).or_default();
        if !exact {
            kept.push(g.clone());
        }
        true
    }
}

/// The vertices of a graph sorted by (label, degree), and the cells of equal
/// keys that a canonical vertex order may permute within.
struct Cells {
    /// Vertices in (label, degree) order.
    order: Vec<usize>,
    /// `keys[i]` is the (label, degree) key of `order[i]`.
    keys: Vec<(u32, usize)>,
    /// `cell_end[i]` is one past the last position of `order[i]`'s cell.
    cell_end: Vec<usize>,
    /// Product of the cell sizes' factorials, capped at
    /// [`EXACT_ORDER_LIMIT`]` + 1` since only that comparison reads it.
    orders: usize,
}

impl Cells {
    fn of(g: &Graph) -> Cells {
        let key = |v: usize| {
            let v = VertexId(v as u32);
            (g.vertex_label(v).0, g.degree(v))
        };
        let n = g.vertex_count();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| key(v));
        let keys: Vec<(u32, usize)> = order.iter().map(|&v| key(v)).collect();
        let mut cell_end = vec![n; n];
        let mut orders = 1usize;
        let mut start = 0;
        while start < n {
            let end = start
                + keys[start..]
                    .iter()
                    .take_while(|&&k| k == keys[start])
                    .count();
            // Multiplying by 1, 2, .., the cell's size adds its factorial.
            for (i, slot) in cell_end[start..end].iter_mut().enumerate() {
                *slot = end;
                orders = orders.saturating_mul(i + 1).min(EXACT_ORDER_LIMIT + 1);
            }
            start = end;
        }
        Cells {
            order,
            keys,
            cell_end,
            orders,
        }
    }
}

/// Exact canonical encoding via cell-restricted order minimisation.
///
/// The encoding of a vertex order `π` is
/// `[n, m, label(π(0)).., for each (i,j) i<j with edge: (i, j, edge label)...]`
/// and the canonical code is the lexicographically smallest encoding over the
/// orders that keep every (label, degree) cell in place (module doc), so it
/// evaluates `cells.orders` encodings.
fn exact_code(g: &Graph, cells: Cells) -> Vec<u64> {
    let Cells {
        mut order,
        cell_end,
        ..
    } = cells;
    let mut search = MinCode {
        g,
        cell_end: &cell_end,
        pos: vec![0; g.vertex_count()],
        edges: Vec::with_capacity(g.edge_count()),
        code: Vec::new(),
        best: Vec::new(),
    };
    search.permute(&mut order, 0);
    search.best
}

/// Scratch state of [`exact_code`]'s search: every buffer is reused across
/// the orders it evaluates.
struct MinCode<'a> {
    g: &'a Graph,
    cell_end: &'a [usize],
    pos: Vec<usize>,
    edges: Vec<(u64, u64, u64)>,
    code: Vec<u64>,
    /// Smallest encoding so far (empty before the first order).
    best: Vec<u64>,
}

impl MinCode<'_> {
    fn permute(&mut self, order: &mut [usize], k: usize) {
        if k == order.len() {
            self.encode(order);
            if self.best.is_empty() || self.code < self.best {
                std::mem::swap(&mut self.code, &mut self.best);
            }
            return;
        }
        for i in k..self.cell_end[k] {
            order.swap(k, i);
            self.permute(order, k + 1);
            order.swap(k, i);
        }
    }

    fn encode(&mut self, order: &[usize]) {
        let g = self.g;
        for (i, &v) in order.iter().enumerate() {
            self.pos[v] = i;
        }
        self.edges.clear();
        self.edges.extend(g.edge_entries().map(|(_, e)| {
            let a = self.pos[e.u.index()] as u64;
            let b = self.pos[e.v.index()] as u64;
            let (a, b) = if a < b { (a, b) } else { (b, a) };
            (a, b, e.label.0 as u64)
        }));
        self.edges.sort_unstable();
        let code = &mut self.code;
        code.clear();
        code.push(order.len() as u64);
        code.push(g.edge_count() as u64);
        code.extend(
            order
                .iter()
                .map(|&v| g.vertex_label(VertexId(v as u32)).0 as u64),
        );
        for &(a, b, l) in &self.edges {
            code.extend([a, b, l]);
        }
    }
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
        // Two 12-vertex cycles with labels rotated: isomorphic.  Each has two
        // cells of six, 6!·6! orders, so the code is only an invariant.
        let make = |shift: u32| {
            let mut b = GraphBuilder::new();
            for i in 0..12u32 {
                b = b.vertex((i + shift) % 2);
            }
            for i in 0..12u32 {
                b = b.edge(i, (i + 1) % 12, 0);
            }
            b.build()
        };
        let g1 = make(0);
        assert!(!canonical_code(&g1).exact);
        let g2 = make(2); // same alternating pattern
        assert!(are_isomorphic(&g1, &g2));
        let g3 = make(1); // labels swapped parity — still alternating, isomorphic by rotation
        assert!(are_isomorphic(&g1, &g3));
    }

    /// An unlabelled graph on `n` vertices with the given edges.
    fn unlabelled(n: usize, edges: &[(u32, u32)]) -> Graph {
        let mut b = GraphBuilder::new().vertices(&vec![0; n]);
        for &(u, v) in edges {
            b = b.edge(u, v, 0);
        }
        b.build()
    }

    /// `g` with vertex `v` renamed `perm[v]`.
    fn renamed(g: &Graph, perm: &[u32]) -> Graph {
        let mut labels = vec![0; g.vertex_count()];
        for v in g.vertices() {
            labels[perm[v.index()] as usize] = g.vertex_label(v).0;
        }
        let mut b = GraphBuilder::new().vertices(&labels);
        for (_, e) in g.edge_entries() {
            b = b.edge(perm[e.u.index()], perm[e.v.index()], e.label.0);
        }
        b.build()
    }

    /// `a` and `b` have one (label, degree) cell each way, so the cells alone
    /// cannot tell them apart: the code and the isomorphism test must.
    fn assert_distinguished(a: &Graph, b: &Graph) {
        let (ca, cb) = (canonical_code(a), canonical_code(b));
        assert!(ca.exact && cb.exact);
        assert_ne!(ca, cb);
        assert!(!are_isomorphic(a, b));
        // Renaming the vertices moves neither code.
        let reverse: Vec<u32> = (0..a.vertex_count() as u32).rev().collect();
        assert_eq!(canonical_code(&renamed(a, &reverse)), ca);
        assert_eq!(canonical_code(&renamed(b, &reverse)), cb);
        assert!(are_isomorphic(a, &renamed(a, &reverse)));
    }

    #[test]
    fn cycle_and_two_triangles_differ() {
        let c6 = unlabelled(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let triangles = unlabelled(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        assert_distinguished(&c6, &triangles);
    }

    #[test]
    fn k33_and_prism_differ() {
        let k33 = unlabelled(
            6,
            &[
                (0, 3),
                (0, 4),
                (0, 5),
                (1, 3),
                (1, 4),
                (1, 5),
                (2, 3),
                (2, 4),
                (2, 5),
            ],
        );
        let prism = unlabelled(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 4),
                (4, 5),
                (5, 3),
                (0, 3),
                (1, 4),
                (2, 5),
            ],
        );
        assert_distinguished(&k33, &prism);
    }

    #[test]
    fn cube_and_wagner_graph_differ() {
        // Both 3-regular on 8 vertices: one cell of 8, the full 8! orders.
        let cube = unlabelled(
            8,
            &[
                (0, 1),
                (1, 3),
                (3, 2),
                (2, 0),
                (4, 5),
                (5, 7),
                (7, 6),
                (6, 4),
                (0, 4),
                (1, 5),
                (2, 6),
                (3, 7),
            ],
        );
        // The 8-cycle plus its four long diagonals (not bipartite).
        let wagner = unlabelled(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
                (0, 4),
                (1, 5),
                (2, 6),
                (3, 7),
            ],
        );
        assert_distinguished(&cube, &wagner);
        let shuffled = renamed(&cube, &[5, 2, 7, 0, 3, 6, 1, 4]);
        assert_eq!(canonical_code(&shuffled), canonical_code(&cube));
    }

    #[test]
    fn graphs_past_eight_vertices_with_small_cells_are_exact() {
        // A 12-vertex labelled path: cells of at most two vertices.
        let mut b = GraphBuilder::new();
        for i in 0..12u32 {
            b = b.vertex(i % 5);
        }
        for i in 0..11u32 {
            b = b.edge(i, i + 1, 0);
        }
        let path = b.build();
        let code = canonical_code(&path);
        assert!(code.exact);
        let perm: Vec<u32> = (0..12).map(|v| (v * 7 + 3) % 12).collect();
        let copy = renamed(&path, &perm);
        assert_eq!(canonical_code(&copy), code);
        assert!(are_isomorphic(&path, &copy));
        // Moving one pendant edge to the other end of the path is not.
        let mut b = GraphBuilder::new();
        for i in 0..12u32 {
            b = b.vertex(i % 5);
        }
        for i in 0..10u32 {
            b = b.edge(i, i + 1, 0);
        }
        let moved = b.edge(11, 0, 0).build();
        assert_ne!(canonical_code(&moved), code);
        assert!(!are_isomorphic(&path, &moved));
    }

    #[test]
    fn isomorphism_classes_fall_back_to_vf2_for_invariant_codes() {
        // C12 and two disjoint C6: every vertex is in one cell, 12! orders,
        // and colour refinement cannot tell 2-regular graphs apart.
        let ring = |offsets: &[u32], len: u32| -> Vec<(u32, u32)> {
            offsets
                .iter()
                .flat_map(|&o| (0..len).map(move |i| (o + i, o + (i + 1) % len)))
                .collect()
        };
        let c12 = unlabelled(12, &ring(&[0], 12));
        let two_c6 = unlabelled(12, &ring(&[0, 6], 6));
        let (a, b) = (canonical_code(&c12), canonical_code(&two_c6));
        assert!(!a.exact);
        assert_eq!(a, b);
        let mut classes = IsomorphismClasses::default();
        assert!(classes.insert(a.clone(), &c12));
        assert!(!classes.contains(&b, &two_c6));
        assert!(classes.insert(b, &two_c6));
        let perm: Vec<u32> = (0..12).map(|v| (v * 5) % 12).collect();
        assert!(!classes.insert(a, &renamed(&c12, &perm)));
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
