//! Core labelled undirected graph model.
//!
//! The paper (Definition 1) works with undirected *deterministic graphs*
//! `gc = (V, E, Σ, L)` where both vertices and edges carry labels from a common
//! alphabet `Σ`.  [`Graph`] stores vertices and edges in contiguous vectors and
//! keeps a per-vertex adjacency list, which is the access pattern every matcher
//! in this workspace needs (iterate neighbours of a partially-mapped vertex).
//!
//! Self-loops and parallel edges are rejected: neither appears in the paper's
//! data model and every downstream algorithm (VF2, MCS, relaxation) assumes
//! simple graphs.

use crate::arena::FlatVecVec;
use crate::error::GraphError;
use crate::summary::StructuralSummary;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// A vertex identifier. Vertices are numbered densely from `0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u32);

/// An edge identifier. Edges are numbered densely from `0` in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

/// A label drawn from the alphabet `Σ` shared by vertices and edges.
///
/// Labels are plain integers; string alphabets (e.g. COG functional annotations
/// in the PPI dataset) are interned by the data generator before graphs are
/// built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(pub u32);

impl VertexId {
    /// The vertex id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The edge id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl Label {
    /// The raw label value.
    #[inline]
    pub fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// An undirected edge: two endpoints (stored with `u < v`) and a label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: VertexId,
    /// Larger endpoint.
    pub v: VertexId,
    /// Edge label.
    pub label: Label,
}

impl Edge {
    /// The endpoint opposite to `x`, or `None` if `x` is not an endpoint.
    #[inline]
    pub fn other(&self, x: VertexId) -> Option<VertexId> {
        if x == self.u {
            Some(self.v)
        } else if x == self.v {
            Some(self.u)
        } else {
            None
        }
    }

    /// Whether the edge is incident to vertex `x`.
    #[inline]
    pub fn touches(&self, x: VertexId) -> bool {
        self.u == x || self.v == x
    }
}

/// A labelled, undirected, simple graph.
///
/// This is the deterministic graph `gc` of Definition 1. Both query graphs,
/// database skeletons, relaxed queries and index features use this type.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// Optional human-readable name (dataset id, query id, ...).
    name: String,
    vertex_labels: Vec<Label>,
    edges: Vec<Edge>,
    /// Adjacency, rebuilt lazily from `edges` after mutation.  Row `v` lists
    /// `(neighbour, edge id)` pairs in edge-insertion order, on which
    /// traversal order (and with it every sampled answer) depends.
    adjacency: OnceLock<FlatVecVec<(VertexId, EdgeId)>>,
    /// The graph's [`StructuralSummary`], computed on first use after a
    /// mutation ([`Graph::summary`]).  Boxed: inline, the summary's five
    /// fields would grow every graph, summarised or not, by 88 bytes.
    summary: OnceLock<Box<StructuralSummary>>,
    /// Fast lookup of edge id by (min endpoint, max endpoint).
    edge_index: BTreeMap<(u32, u32), EdgeId>,
}

/// The adjacency and summary caches are derived state: two graphs are equal
/// iff their logical content (name, labels, edge list) is, regardless of
/// whether either has filled its caches yet.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.vertex_labels == other.vertex_labels
            && self.edges == other.edges
            && self.edge_index == other.edge_index
    }
}

impl Eq for Graph {}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with the given name.
    pub fn with_name(name: impl Into<String>) -> Self {
        Graph {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Graph name (may be empty).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the graph name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.vertex_labels.len()
    }

    /// Number of edges `|E|` — the paper's `|g|` (Definition 8 counts edges).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// True if the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertex_labels.is_empty()
    }

    /// Adds a vertex with the given label and returns its id.
    pub fn add_vertex(&mut self, label: Label) -> VertexId {
        let id = VertexId(self.vertex_labels.len() as u32);
        self.vertex_labels.push(label);
        self.adjacency = OnceLock::new();
        self.summary = OnceLock::new();
        id
    }

    /// Adds an undirected edge `(u, v)` with `label`.
    ///
    /// Returns an error for out-of-range endpoints, self-loops and duplicate
    /// edges.
    pub fn add_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        label: Label,
    ) -> Result<EdgeId, GraphError> {
        let n = self.vertex_count();
        if u.index() >= n {
            return Err(GraphError::InvalidVertex(u.index()));
        }
        if v.index() >= n {
            return Err(GraphError::InvalidVertex(v.index()));
        }
        if u == v {
            return Err(GraphError::SelfLoop(u.index()));
        }
        let key = (u.0.min(v.0), u.0.max(v.0));
        if self.edge_index.contains_key(&key) {
            return Err(GraphError::DuplicateEdge(key.0 as usize, key.1 as usize));
        }
        let id = EdgeId(self.edges.len() as u32);
        let (a, b) = if u.0 < v.0 { (u, v) } else { (v, u) };
        self.edges.push(Edge { u: a, v: b, label });
        self.adjacency = OnceLock::new();
        self.summary = OnceLock::new();
        self.edge_index.insert(key, id);
        Ok(id)
    }

    /// The materialised adjacency, building it on first use after a
    /// mutation.
    #[inline]
    fn adjacency(&self) -> &FlatVecVec<(VertexId, EdgeId)> {
        self.adjacency
            .get_or_init(|| FlatVecVec::adjacency(self.vertex_labels.len(), &self.edges))
    }

    /// The graph's structural summary, computed on first use after a
    /// mutation and cached with the graph.  Every pattern (query, relaxed
    /// query, feature, mined candidate) is summarised through here, once.
    /// Database skeletons are not: their summaries live in the S-Index, so
    /// the engine never fills a skeleton's cache.
    pub fn summary(&self) -> &StructuralSummary {
        self.summary
            .get_or_init(|| Box::new(StructuralSummary::of(self)))
    }

    /// Label of vertex `v`.
    #[inline]
    pub fn vertex_label(&self, v: VertexId) -> Label {
        self.vertex_labels[v.index()]
    }

    /// The edge record for `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// Label of edge `e`.
    #[inline]
    pub fn edge_label(&self, e: EdgeId) -> Label {
        self.edges[e.index()].label
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertex_labels.len() as u32).map(VertexId)
    }

    /// Iterator over all edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Iterator over `(EdgeId, &Edge)` pairs.
    pub fn edge_entries(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Slice of edge records indexed by edge id.
    pub fn edge_slice(&self) -> &[Edge] {
        &self.edges
    }

    /// Slice of vertex labels indexed by vertex id.
    pub fn vertex_labels(&self) -> &[Label] {
        &self.vertex_labels
    }

    /// Neighbours of `v` as `(neighbour, edge id)` pairs, in insertion order.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        self.adjacency().row(v.index())
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adjacency().row(v.index()).len()
    }

    /// Looks up the edge between `u` and `v`, if any.
    pub fn find_edge(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        let key = (u.0.min(v.0), u.0.max(v.0));
        self.edge_index.get(&key).copied()
    }

    /// True if `u` and `v` are adjacent.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.find_edge(u, v).is_some()
    }

    /// Edge ids incident to vertex `v`.
    pub fn incident_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        self.adjacency().row(v.index()).iter().map(|&(_, e)| e)
    }

    /// A deterministic 64-bit FNV-style hash of the graph structure (vertex
    /// labels and edge list, insertion order; the name is excluded).  Used to
    /// derive per-query and per-graph RNG seeds that are independent of where
    /// the graph sits in a database, so sampled results do not drift with
    /// insertion order.
    pub fn structural_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        mix(self.vertex_count() as u64);
        mix(self.edge_count() as u64);
        for &l in &self.vertex_labels {
            mix(l.0 as u64);
        }
        for e in &self.edges {
            mix(e.u.0 as u64);
            mix(e.v.0 as u64);
            mix(e.label.0 as u64);
        }
        h
    }

    /// Multiset of (vertex label) counts — used by cheap structural filters.
    pub fn vertex_label_histogram(&self) -> BTreeMap<Label, usize> {
        let mut h = BTreeMap::new();
        for &l in &self.vertex_labels {
            *h.entry(l).or_insert(0) += 1;
        }
        h
    }

    /// Multiset of (edge label, endpoint labels) triple counts, endpoint labels
    /// sorted; used by cheap structural filters.
    pub fn edge_signature_histogram(&self) -> BTreeMap<(Label, Label, Label), usize> {
        let mut h = BTreeMap::new();
        for e in &self.edges {
            let lu = self.vertex_label(e.u);
            let lv = self.vertex_label(e.v);
            let (a, b) = if lu <= lv { (lu, lv) } else { (lv, lu) };
            *h.entry((e.label, a, b)).or_insert(0) += 1;
        }
        h
    }

    /// Builds the subgraph induced by keeping only the edges in `keep`
    /// (all vertices are retained, mirroring possible-world semantics where the
    /// vertex set never changes — Definition 3).
    pub fn edge_subgraph(&self, keep: &[EdgeId]) -> Graph {
        let mut g = Graph::with_name(self.name.clone());
        for &l in &self.vertex_labels {
            g.add_vertex(l);
        }
        let mut sorted: Vec<EdgeId> = keep.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for e in sorted {
            let edge = self.edge(e);
            // Safe: endpoints and uniqueness come from an existing simple graph.
            g.add_edge(edge.u, edge.v, edge.label)
                // pgs-lint: allow(panic-in-library, edges of a simple source graph stay unique under projection)
                .expect("edge_subgraph: source graph must be simple");
        }
        g
    }

    /// Builds a new graph containing only the vertices in `keep_vertices` (and
    /// the edges among them), renumbering vertices densely. Returns the new
    /// graph plus the mapping `old vertex id -> new vertex id`.
    pub fn induced_subgraph(
        &self,
        keep_vertices: &[VertexId],
    ) -> (Graph, BTreeMap<VertexId, VertexId>) {
        let mut g = Graph::with_name(self.name.clone());
        let mut map = BTreeMap::new();
        let mut sorted = keep_vertices.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for &v in &sorted {
            let nv = g.add_vertex(self.vertex_label(v));
            map.insert(v, nv);
        }
        for (_, e) in self.edge_entries() {
            if let (Some(&nu), Some(&nv)) = (map.get(&e.u), map.get(&e.v)) {
                g.add_edge(nu, nv, e.label)
                    // pgs-lint: allow(panic-in-library, edges of a simple source graph stay unique under renumbering)
                    .expect("induced_subgraph: source graph must be simple");
            }
        }
        (g, map)
    }

    /// True if every vertex is reachable from vertex 0 (empty graphs count as
    /// connected).
    pub fn is_connected(&self) -> bool {
        crate::traversal::is_connected(self)
    }

    /// Total size used by Definition 8: the number of edges.
    #[inline]
    pub fn size(&self) -> usize {
        self.edge_count()
    }
}

/// Convenience builder used pervasively in tests, examples and generators.
///
/// ```
/// use pgs_graph::model::{GraphBuilder, Label};
///
/// // The query graph `q` of Figure 1: a triangle a-b-c with unlabelled edges.
/// let q = GraphBuilder::new()
///     .vertices(&[0, 1, 2]) // labels a, b, c
///     .edge(0, 1, 0)
///     .edge(1, 2, 0)
///     .edge(0, 2, 0)
///     .build();
/// assert_eq!(q.vertex_count(), 3);
/// assert_eq!(q.edge_count(), 3);
/// assert_eq!(q.vertex_label(pgs_graph::model::VertexId(0)), Label(0));
/// ```
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    name: String,
    vertex_labels: Vec<u32>,
    edges: Vec<(u32, u32, u32)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the graph name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Adds one vertex with the raw label value and returns the builder.
    pub fn vertex(mut self, label: u32) -> Self {
        self.vertex_labels.push(label);
        self
    }

    /// Adds several vertices with the given raw label values.
    pub fn vertices(mut self, labels: &[u32]) -> Self {
        self.vertex_labels.extend_from_slice(labels);
        self
    }

    /// Adds an edge between vertex indices `u` and `v` with the raw label value.
    pub fn edge(mut self, u: u32, v: u32, label: u32) -> Self {
        self.edges.push((u, v, label));
        self
    }

    /// Builds the graph, panicking on malformed input (tests/examples only;
    /// fallible construction goes through [`Graph`] directly).
    pub fn build(self) -> Graph {
        self.try_build()
            // pgs-lint: allow(panic-in-library, documented panic: build() panics on invalid input; try_build is the fallible variant)
            .expect("GraphBuilder produced an invalid graph")
    }

    /// Builds the graph, returning an error on malformed input.
    pub fn try_build(self) -> Result<Graph, GraphError> {
        let mut g = Graph::with_name(self.name);
        for l in self.vertex_labels {
            g.add_vertex(Label(l));
        }
        for (u, v, l) in self.edges {
            g.add_edge(VertexId(u), VertexId(v), Label(l))?;
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        GraphBuilder::new()
            .vertices(&[1, 2, 3])
            .edge(0, 1, 10)
            .edge(1, 2, 11)
            .edge(0, 2, 12)
            .build()
    }

    #[test]
    fn build_and_query_basic_properties() {
        let g = triangle();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.size(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.vertex_label(VertexId(0)), Label(1));
        assert_eq!(g.vertex_label(VertexId(2)), Label(3));
        assert_eq!(g.edge_label(EdgeId(1)), Label(11));
        assert_eq!(g.degree(VertexId(0)), 2);
        assert_eq!(g.degree(VertexId(1)), 2);
    }

    #[test]
    fn summary_cache_follows_mutations() {
        use crate::vf2::{contains_subgraph_summarized, Matcher};
        let target = triangle();
        let ts = StructuralSummary::of(&target);
        // Two isolated vertices the triangle hosts; the summary alone
        // answers a pattern of at most one edge.
        let mut p = GraphBuilder::new().vertices(&[1, 2]).build();
        assert_eq!(*p.summary(), StructuralSummary::of(&p));
        assert!(contains_subgraph_summarized(&p, &target, ts.view()));
        // A clone reports the same summary, and `==` ignores the cache.
        let unsummarised = GraphBuilder::new().vertices(&[1, 2]).build();
        assert_eq!(p.clone().summary(), p.summary());
        assert_eq!(p, unsummarised);
        // An edge whose label the triangle lacks: the cached summary is
        // dropped, so the screen now rejects the pattern.
        p.add_edge(VertexId(0), VertexId(1), Label(99)).unwrap();
        assert_eq!(*p.summary(), StructuralSummary::of(&p));
        assert!(!contains_subgraph_summarized(&p, &target, ts.view()));
        p.add_vertex(Label(3));
        assert_eq!(*p.summary(), StructuralSummary::of(&p));
        assert_eq!(p.summary().view().vertex_count(), 3);
        assert!(!Matcher::new(&p, &target, ts.view()).exists());
    }

    #[test]
    fn edge_lookup_is_symmetric() {
        let g = triangle();
        let e = g.find_edge(VertexId(0), VertexId(1)).unwrap();
        assert_eq!(g.find_edge(VertexId(1), VertexId(0)), Some(e));
        assert!(g.has_edge(VertexId(2), VertexId(0)));
        assert_eq!(g.find_edge(VertexId(0), VertexId(0)), None);
    }

    #[test]
    fn rejects_self_loops_and_duplicates() {
        let mut g = Graph::new();
        let a = g.add_vertex(Label(0));
        let b = g.add_vertex(Label(0));
        assert_eq!(g.add_edge(a, a, Label(0)), Err(GraphError::SelfLoop(0)));
        g.add_edge(a, b, Label(0)).unwrap();
        assert_eq!(
            g.add_edge(b, a, Label(1)),
            Err(GraphError::DuplicateEdge(0, 1))
        );
        assert_eq!(
            g.add_edge(a, VertexId(9), Label(0)),
            Err(GraphError::InvalidVertex(9))
        );
    }

    #[test]
    fn edge_other_and_touches() {
        let g = triangle();
        let e = g.edge(EdgeId(0));
        assert_eq!(e.other(VertexId(0)), Some(VertexId(1)));
        assert_eq!(e.other(VertexId(1)), Some(VertexId(0)));
        assert_eq!(e.other(VertexId(2)), None);
        assert!(e.touches(VertexId(0)));
        assert!(!e.touches(VertexId(2)));
    }

    #[test]
    fn edge_subgraph_keeps_all_vertices() {
        let g = triangle();
        let sub = g.edge_subgraph(&[EdgeId(0), EdgeId(0)]);
        assert_eq!(sub.vertex_count(), 3);
        assert_eq!(sub.edge_count(), 1);
        assert!(sub.has_edge(VertexId(0), VertexId(1)));
        assert!(!sub.has_edge(VertexId(1), VertexId(2)));
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = triangle();
        let (sub, map) = g.induced_subgraph(&[VertexId(1), VertexId(2)]);
        assert_eq!(sub.vertex_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert_eq!(sub.vertex_label(map[&VertexId(1)]), Label(2));
        assert_eq!(sub.vertex_label(map[&VertexId(2)]), Label(3));
    }

    #[test]
    fn histograms_count_labels() {
        let g = GraphBuilder::new()
            .vertices(&[5, 5, 7])
            .edge(0, 1, 1)
            .edge(1, 2, 1)
            .build();
        let vh = g.vertex_label_histogram();
        assert_eq!(vh[&Label(5)], 2);
        assert_eq!(vh[&Label(7)], 1);
        let eh = g.edge_signature_histogram();
        assert_eq!(eh[&(Label(1), Label(5), Label(5))], 1);
        assert_eq!(eh[&(Label(1), Label(5), Label(7))], 1);
    }

    #[test]
    fn connectivity() {
        let g = triangle();
        assert!(g.is_connected());
        let mut h = Graph::new();
        h.add_vertex(Label(0));
        h.add_vertex(Label(0));
        assert!(!h.is_connected());
        assert!(Graph::new().is_connected());
    }

    #[test]
    fn display_impls() {
        assert_eq!(VertexId(2).to_string(), "v2");
        assert_eq!(EdgeId(3).to_string(), "e3");
        assert_eq!(Label(4).to_string(), "L4");
    }
}
