//! Flat arena layouts shared by the hot layers of the pipeline.
//!
//! The pipeline's inner loops (posting scans, SIP bound evaluation, Karp–Luby
//! trials) iterate rows of ragged two-dimensional data.  Storing those rows as
//! `Vec<Vec<T>>` spreads them across the heap: every row is its own
//! allocation, every access a pointer chase, and a database of `n` graphs
//! costs `O(n)` allocator round trips to build or drop.  [`FlatVecVec`] packs
//! the same data into exactly two allocations — an offsets table and a values
//! arena — with O(1) row slicing, and [`CsrAdjacency`] specialises the idea
//! for graph adjacency, rebuilding the classic compressed-sparse-row layout
//! from an edge list while preserving the exact neighbor order incremental
//! insertion would have produced (the determinism contract of DESIGN.md §8
//! depends on that order).

use crate::model::{Edge, EdgeId, VertexId};

/// A ragged `Vec<Vec<T>>` packed into two flat allocations.
///
/// `offsets` has one entry per row plus a trailing sentinel; row `i` is
/// `values[offsets[i]..offsets[i + 1]]`.  Rows are appended with
/// [`push_row`](Self::push_row) in O(row); growing a row, filtering values
/// or removing a row is a single O(total) shift, which is how the index
/// layers handle their (rare) churn operations.
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

    /// Total number of elements across all rows.
    pub fn total_len(&self) -> usize {
        self.values.len()
    }

    /// Row `i` as a slice.  O(1).
    pub fn row(&self, i: usize) -> &[T] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.values[lo..hi]
    }

    /// Length of row `i` without touching the values arena.
    pub fn row_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Iterates the rows in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[T]> + '_ {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// The packed values arena (all rows back to back).
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The offsets table (`len() + 1` entries, starting at 0).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Appends `value` at the end of row `row`, shifting every later row.
    /// O(total) — a churn-path operation, not an inner-loop one.
    pub fn push_into_row(&mut self, row: usize, value: T) {
        let pos = self.offsets[row + 1] as usize;
        self.values.insert(pos, value);
        for o in &mut self.offsets[row + 1..] {
            *o += 1;
        }
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

    /// Retains only the elements for which `f(row, &mut value)` returns true,
    /// compacting the arena in one O(total) pass.  `f` may rewrite the kept
    /// values in place (renumbering after a removal does exactly that).
    pub fn retain_mut(&mut self, mut f: impl FnMut(usize, &mut T) -> bool) {
        let mut write = 0usize;
        let mut read = 0usize;
        for row in 0..self.len() {
            let end = self.offsets[row + 1] as usize;
            while read < end {
                if f(row, &mut self.values[read]) {
                    self.values.swap(write, read);
                    write += 1;
                }
                read += 1;
            }
            self.offsets[row + 1] = write as u32;
        }
        self.values.truncate(write);
    }
}

/// Compressed-sparse-row adjacency for a [`crate::model::Graph`].
///
/// Built in one pass from the edge list; `row(v)` yields `(neighbor, edge)`
/// pairs in exactly the order incremental `add_edge` calls would have pushed
/// them (edge-id order), so every traversal that consumed the old nested-Vec
/// adjacency enumerates identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrAdjacency {
    offsets: Vec<u32>,
    pairs: Vec<(VertexId, EdgeId)>,
}

impl CsrAdjacency {
    /// Builds the CSR layout for `vertex_count` vertices from `edges`
    /// (indexed by edge id).
    pub fn build(vertex_count: usize, edges: &[Edge]) -> Self {
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
        // Fill each row in edge-id order using per-vertex cursors; this
        // reproduces the insertion order of incremental `add_edge` calls.
        let mut cursor: Vec<u32> = offsets[..vertex_count].to_vec();
        let mut pairs = vec![(VertexId(0), EdgeId(0)); running as usize];
        for (id, e) in edges.iter().enumerate() {
            let id = EdgeId(id as u32);
            let cu = &mut cursor[e.u.index()];
            pairs[*cu as usize] = (e.v, id);
            *cu += 1;
            let cv = &mut cursor[e.v.index()];
            pairs[*cv as usize] = (e.u, id);
            *cv += 1;
        }
        Self { offsets, pairs }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The `(neighbor, edge)` pairs incident to vertex `v`.
    pub fn row(&self, v: usize) -> &[(VertexId, EdgeId)] {
        let lo = self.offsets[v] as usize;
        let hi = self.offsets[v + 1] as usize;
        &self.pairs[lo..hi]
    }

    /// Degree of vertex `v`, read from the offsets table alone.
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
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
        assert_eq!(a.total_len(), 0);
        assert_eq!(a.iter().count(), 0);
    }

    #[test]
    fn rows_round_trip() {
        let rows: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![], vec![4], vec![5, 6]];
        let a = FlatVecVec::from_rows(rows.iter().map(|r| r.iter().copied()));
        assert_eq!(a.len(), 4);
        assert_eq!(a.total_len(), 6);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(a.row(i), row.as_slice());
            assert_eq!(a.row_len(i), row.len());
        }
        let collected: Vec<Vec<u32>> = a.iter().map(|r| r.to_vec()).collect();
        assert_eq!(collected, rows);
        assert_eq!(a.values(), &[1, 2, 3, 4, 5, 6]);
        assert_eq!(a.offsets(), &[0, 3, 3, 4, 6]);
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
        let mut nested: Vec<Vec<u32>> = vec![vec![1, 2], vec![], vec![3, 4, 5]];
        let mut flat = FlatVecVec::from_rows(nested.iter().map(|r| r.iter().copied()));

        nested[1].push(9);
        flat.push_into_row(1, 9);
        nested[0].push(7);
        flat.push_into_row(0, 7);
        assert_eq!(flat, FlatVecVec::from_rows(nested.clone()));

        // Drop every even value and add 10 to the survivors, per row.
        for row in &mut nested {
            row.retain(|v| v % 2 == 1);
            for v in row.iter_mut() {
                *v += 10;
            }
        }
        flat.retain_mut(|_, v| {
            let keep = *v % 2 == 1;
            if keep {
                *v += 10;
            }
            keep
        });
        assert_eq!(flat, FlatVecVec::from_rows(nested.clone()));

        // Remove rows down to none: the first row, the empty middle row, the
        // last row, then the remaining two.
        nested.insert(2, vec![]);
        nested.push(vec![20, 21]);
        flat = FlatVecVec::from_rows(nested.clone());
        for row in [0usize, 1, 2, 1, 0] {
            nested.remove(row);
            flat.remove_row(row);
            assert_eq!(flat, FlatVecVec::from_rows(nested.clone()));
        }
        assert!(flat.is_empty());
        assert_eq!(flat.total_len(), 0);
    }

    /// The CSR rows must reproduce the neighbor order incremental insertion
    /// produces, including for vertices with no edges.
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
        let csr = CsrAdjacency::build(g.vertex_count(), g.edge_slice());
        assert_eq!(csr.vertex_count(), 5);
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
        assert_eq!(csr.degree(0), 3);
        assert_eq!(csr.degree(4), 0);
    }
}
