//! Flat arena layouts shared by the hot layers of the pipeline.
//!
//! The pipeline's inner loops (posting scans, SIP bound evaluation, Karp–Luby
//! trials) iterate rows of ragged two-dimensional data.  Storing those rows as
//! `Vec<Vec<T>>` spreads them across the heap: every row is its own
//! allocation, every access a pointer chase, and a database of `n` graphs
//! costs `O(n)` allocator round trips to build or drop.  [`FlatVecVec`] packs
//! the same data into exactly two allocations — an offsets table and a values
//! arena — with O(1) row slicing.  It is the workspace's one such layout: the
//! S-Index's summary arenas, the PMI's graph columns and every graph's
//! adjacency, whose counting-pass constructor keeps the exact neighbor order
//! incremental insertion would have produced (the determinism contract of
//! DESIGN.md §8 depends on that order).

use crate::model::{Edge, EdgeId, VertexId};

/// A ragged `Vec<Vec<T>>` packed into two flat allocations.
///
/// `offsets` has one entry per row plus a trailing sentinel; row `i` is
/// `values[offsets[i]..offsets[i + 1]]`.  Rows are appended with
/// [`push_row`](Self::push_row) in O(row); removing a row is a single
/// O(total) shift, which is how the S-Index's summary arenas and the PMI's
/// columns handle a (rare) graph removal.  Rows that grow after they are
/// pushed belong in their own `Vec`s, not here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatVecVec<T> {
    offsets: Vec<u32>,
    values: Vec<T>,
}

impl<T> Default for FlatVecVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FlatVecVec<T> {
    /// An arena with no rows.
    pub fn new() -> Self {
        Self {
            offsets: vec![0],
            values: Vec::new(),
        }
    }

    /// An empty arena with capacity reserved for `rows` rows and `values`
    /// total elements.
    pub fn with_capacity(rows: usize, values: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            offsets,
            values: Vec::with_capacity(values),
        }
    }

    /// Packs an iterator of rows into a fresh arena.
    pub fn from_rows<R, I>(rows: R) -> Self
    where
        R: IntoIterator<Item = I>,
        I: IntoIterator<Item = T>,
    {
        let mut out = Self::new();
        for row in rows {
            out.push_row(row);
        }
        out
    }

    /// Appends one row built from `row`.
    pub fn push_row<I: IntoIterator<Item = T>>(&mut self, row: I) {
        self.values.extend(row);
        debug_assert!(self.values.len() <= u32::MAX as usize);
        self.offsets.push(self.values.len() as u32);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the arena holds no rows.
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Row `i` as a slice.  O(1).
    pub fn row(&self, i: usize) -> &[T] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.values[lo..hi]
    }

    /// Iterates the rows in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[T]> + '_ {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// Removes row `row`, shifting every later row down by one.  O(total) —
    /// a churn-path operation, not an inner-loop one.
    pub fn remove_row(&mut self, row: usize) {
        let lo = self.offsets[row];
        let hi = self.offsets[row + 1];
        self.values.drain(lo as usize..hi as usize);
        self.offsets.remove(row + 1);
        for o in &mut self.offsets[row + 1..] {
            *o -= hi - lo;
        }
    }
}

impl FlatVecVec<(VertexId, EdgeId)> {
    /// The adjacency of a [`crate::model::Graph`] with `vertex_count`
    /// vertices and edge list `edges` (indexed by edge id), built by one
    /// counting pass: row `v` holds the `(neighbour, edge)` pairs of `v` in
    /// edge-id order, exactly the order incremental `add_edge` calls would
    /// have pushed them, so every traversal enumerates identically.
    pub(crate) fn adjacency(vertex_count: usize, edges: &[Edge]) -> Self {
        let mut degree = vec![0u32; vertex_count];
        for e in edges {
            degree[e.u.index()] += 1;
            degree[e.v.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(vertex_count + 1);
        let mut running = 0u32;
        offsets.push(0);
        for &d in &degree {
            running += d;
            offsets.push(running);
        }
        // Fill each row in edge-id order using per-vertex cursors.
        let mut cursor: Vec<u32> = offsets[..vertex_count].to_vec();
        let mut values = vec![(VertexId(0), EdgeId(0)); running as usize];
        for (id, e) in edges.iter().enumerate() {
            let id = EdgeId(id as u32);
            let cu = &mut cursor[e.u.index()];
            values[*cu as usize] = (e.v, id);
            *cu += 1;
            let cv = &mut cursor[e.v.index()];
            values[*cv as usize] = (e.u, id);
            *cv += 1;
        }
        Self { offsets, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Graph, Label};

    #[test]
    fn empty_arena() {
        let a: FlatVecVec<u32> = FlatVecVec::new();
        assert_eq!(a.len(), 0);
        assert!(a.is_empty());
        assert_eq!(a.iter().count(), 0);
    }

    #[test]
    fn rows_round_trip() {
        let rows: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![], vec![4], vec![5, 6]];
        let a = FlatVecVec::from_rows(rows.iter().map(|r| r.iter().copied()));
        assert_eq!(a.len(), 4);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(a.row(i), row.as_slice());
        }
        let collected: Vec<Vec<u32>> = a.iter().map(|r| r.to_vec()).collect();
        assert_eq!(collected, rows);
    }

    #[test]
    fn push_row_matches_from_rows() {
        let mut a = FlatVecVec::with_capacity(3, 4);
        a.push_row([7u32, 8]);
        a.push_row([]);
        a.push_row([9, 10]);
        let b = FlatVecVec::from_rows(vec![vec![7u32, 8], vec![], vec![9, 10]]);
        assert_eq!(a, b);
    }

    #[test]
    fn row_mutation_matches_nested_vec_reference() {
        // Remove rows down to none: the first row, the empty middle row, the
        // last row, then the remaining two.
        let mut nested: Vec<Vec<u32>> = vec![vec![1, 2], vec![], vec![], vec![3], vec![20, 21]];
        let mut flat = FlatVecVec::from_rows(nested.clone());
        for row in [0usize, 1, 2, 1, 0] {
            nested.remove(row);
            flat.remove_row(row);
            assert_eq!(flat, FlatVecVec::from_rows(nested.clone()));
        }
        assert!(flat.is_empty());
    }

    /// The adjacency rows must reproduce the neighbor order incremental
    /// insertion produces, including for vertices with no edges.
    #[test]
    fn csr_matches_incremental_insertion_order() {
        let mut g = Graph::with_name("csr");
        for l in [0u32, 1, 2, 0, 1] {
            g.add_vertex(Label(l));
        }
        // Deliberately interleave endpoints so rows receive pushes in a
        // non-trivial order.
        for (a, b, l) in [(0, 1, 0), (2, 1, 1), (0, 2, 0), (3, 0, 1), (1, 3, 0)] {
            g.add_edge(VertexId(a), VertexId(b), Label(l)).unwrap();
        }
        let csr = FlatVecVec::adjacency(g.vertex_count(), g.edge_slice());
        assert_eq!(csr.len(), 5);
        assert_eq!(
            csr.row(0),
            &[
                (VertexId(1), EdgeId(0)),
                (VertexId(2), EdgeId(2)),
                (VertexId(3), EdgeId(3)),
            ]
        );
        assert_eq!(
            csr.row(1),
            &[
                (VertexId(0), EdgeId(0)),
                (VertexId(2), EdgeId(1)),
                (VertexId(3), EdgeId(4)),
            ]
        );
        assert_eq!(
            csr.row(2),
            &[(VertexId(1), EdgeId(1)), (VertexId(0), EdgeId(2))]
        );
        assert_eq!(
            csr.row(3),
            &[(VertexId(0), EdgeId(3)), (VertexId(1), EdgeId(4))]
        );
        assert_eq!(csr.row(4), &[]);
        assert_eq!(g.degree(VertexId(0)), 3);
        assert_eq!(g.degree(VertexId(4)), 0);
    }
}
