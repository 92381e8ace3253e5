//! Column-sparse storage of the PMI matrix.
//!
//! The matrix of Figure 4 is feature × graph, but most cells are empty: a
//! feature that does not embed in a graph's skeleton stores nothing (the
//! paper's `⟨0⟩`).  The original implementation kept a dense
//! `Vec<Vec<Option<SipBounds>>>`, paying 24 bytes per cell (the `Option`
//! discriminant padded to the alignment of two `f64`s) even for the empty
//! majority, and the reported index size ignored all of that overhead.
//!
//! [`SparseMatrix`] stores only the occupied cells in CSR-style column
//! compression, one *graph column* at a time:
//!
//! * `offsets[g] .. offsets[g + 1]` — the entry range of graph `g`,
//! * `feature_ids[i]` — the row (feature id) of entry `i`, strictly
//!   increasing within a column,
//! * `lowers[i]` / `uppers[i]` — the SIP bounds of entry `i`.
//!
//! The layout is shared by the in-memory index and the on-disk snapshot
//! (`snapshot.rs` writes the three arrays verbatim), so loading an index never
//! re-shapes the matrix, and the encoded arrays are the real storage cost —
//! part of what `PmiStats::size_bytes` measures, the number the paper's
//! Figure 12(d) calls "index size".
//!
//! Columns are only ever appended or removed in place: [`crate::pmi::Pmi`]
//! pushes every column, at build and on [`crate::pmi::Pmi::append_graph`]
//! alike, so an insert touches only the new column; a remove splices one
//! entry range out and shifts the offsets after it.

use crate::sip_bounds::SipBounds;

/// A feature × graph matrix of SIP bounds, stored column-sparse (one column
/// per database graph, only occupied cells materialised).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseMatrix {
    /// `offsets.len() == column_count() + 1`; `offsets[0] == 0`.
    offsets: Vec<usize>,
    /// Feature (row) id of each entry, strictly increasing within a column.
    feature_ids: Vec<u32>,
    /// Lower SIP bound of each entry.
    lowers: Vec<f64>,
    /// Upper SIP bound of each entry.
    uppers: Vec<f64>,
}

impl SparseMatrix {
    /// Creates an empty matrix with zero columns.
    pub fn new() -> SparseMatrix {
        SparseMatrix {
            offsets: vec![0],
            ..SparseMatrix::default()
        }
    }

    /// Number of graph columns.
    pub fn column_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of occupied cells.
    pub fn entry_count(&self) -> usize {
        self.feature_ids.len()
    }

    /// Appends one graph column.  `entries` must yield `(feature id, bounds)`
    /// pairs with strictly increasing feature ids (the natural order of a
    /// row scan).
    pub fn push_column(&mut self, entries: impl IntoIterator<Item = (usize, SipBounds)>) {
        for (fi, b) in entries {
            debug_assert!(
                // pgs-lint: allow(panic-in-library, debug_assert-only check; from_raw guarantees offsets is non-empty)
                self.feature_ids.len() == *self.offsets.last().expect("offsets never empty")
                    || (self.feature_ids.last().copied().unwrap_or(0) as usize) < fi,
                "feature ids must be strictly increasing within a column"
            );
            self.feature_ids.push(fi as u32);
            self.lowers.push(b.lower);
            self.uppers.push(b.upper);
        }
        self.offsets.push(self.feature_ids.len());
    }

    /// Removes graph column `g`, shifting every later column down by one.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn remove_column(&mut self, g: usize) {
        assert!(g < self.column_count(), "column {g} out of range");
        let (start, end) = (self.offsets[g], self.offsets[g + 1]);
        let width = end - start;
        self.feature_ids.drain(start..end);
        self.lowers.drain(start..end);
        self.uppers.drain(start..end);
        self.offsets.remove(g + 1);
        for o in &mut self.offsets[g + 1..] {
            *o -= width;
        }
    }

    /// The bounds stored for `(graph g, feature f)`, or `None` for an empty
    /// cell or out-of-range column (binary search within the column).
    pub fn get(&self, g: usize, f: usize) -> Option<SipBounds> {
        if g >= self.column_count() {
            return None;
        }
        let range = self.offsets[g]..self.offsets[g + 1];
        let ids = &self.feature_ids[range.clone()];
        let i = ids.binary_search(&(f as u32)).ok()?;
        let i = range.start + i;
        Some(SipBounds {
            lower: self.lowers[i],
            upper: self.uppers[i],
        })
    }

    /// Iterates the occupied `(feature id, bounds)` entries of column `g` (the
    /// paper's `D_g`); empty for out-of-range columns.
    pub fn column(&self, g: usize) -> impl Iterator<Item = (usize, SipBounds)> + '_ {
        let range = if g < self.column_count() {
            self.offsets[g]..self.offsets[g + 1]
        } else {
            0..0
        };
        range.map(move |i| {
            (
                self.feature_ids[i] as usize,
                SipBounds {
                    lower: self.lowers[i],
                    upper: self.uppers[i],
                },
            )
        })
    }

    /// The raw offsets array (snapshot encoding).
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw feature-id array (snapshot encoding).
    pub(crate) fn feature_ids(&self) -> &[u32] {
        &self.feature_ids
    }

    /// The raw lower-bound array (snapshot encoding).
    pub(crate) fn lowers(&self) -> &[f64] {
        &self.lowers
    }

    /// The raw upper-bound array (snapshot encoding).
    pub(crate) fn uppers(&self) -> &[f64] {
        &self.uppers
    }

    /// Rebuilds the matrix from its raw arrays (snapshot decoding), validating
    /// the CSR invariants.
    pub(crate) fn from_raw(
        offsets: Vec<usize>,
        feature_ids: Vec<u32>,
        lowers: Vec<f64>,
        uppers: Vec<f64>,
    ) -> Result<SparseMatrix, String> {
        if offsets.first() != Some(&0) {
            return Err("offset array must start at 0".into());
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offset array must be non-decreasing".into());
        }
        if offsets.last() != Some(&feature_ids.len()) {
            return Err("final offset must equal the entry count".into());
        }
        if feature_ids.len() != lowers.len() || lowers.len() != uppers.len() {
            return Err("entry arrays must have equal lengths".into());
        }
        for w in offsets.windows(2) {
            let col = &feature_ids[w[0]..w[1]];
            if col.windows(2).any(|p| p[0] >= p[1]) {
                return Err("feature ids must be strictly increasing within a column".into());
            }
        }
        Ok(SparseMatrix {
            offsets,
            feature_ids,
            lowers,
            uppers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lower: f64, upper: f64) -> SipBounds {
        SipBounds { lower, upper }
    }

    fn sample() -> SparseMatrix {
        let mut m = SparseMatrix::new();
        m.push_column(vec![(0, b(0.1, 0.2)), (2, b(0.3, 0.4))]);
        m.push_column(vec![]);
        m.push_column(vec![(1, b(0.5, 0.6))]);
        m
    }

    #[test]
    fn push_and_get() {
        let m = sample();
        assert_eq!(m.column_count(), 3);
        assert_eq!(m.entry_count(), 3);
        assert_eq!(m.get(0, 0), Some(b(0.1, 0.2)));
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.get(0, 2), Some(b(0.3, 0.4)));
        assert_eq!(m.get(1, 0), None);
        assert_eq!(m.get(2, 1), Some(b(0.5, 0.6)));
        assert_eq!(m.get(3, 0), None, "out-of-range column is empty");
    }

    #[test]
    fn column_iterates_dg() {
        let m = sample();
        let dg: Vec<_> = m.column(0).collect();
        assert_eq!(dg, vec![(0, b(0.1, 0.2)), (2, b(0.3, 0.4))]);
        assert_eq!(m.column(1).count(), 0);
        assert_eq!(m.column(99).count(), 0);
    }

    #[test]
    fn remove_middle_column_shifts_later_ones() {
        let mut m = sample();
        m.remove_column(0);
        assert_eq!(m.column_count(), 2);
        assert_eq!(m.entry_count(), 1);
        assert_eq!(m.get(0, 0), None); // was the empty column
        assert_eq!(m.get(1, 1), Some(b(0.5, 0.6)));
    }

    #[test]
    fn remove_all_columns() {
        let mut m = sample();
        m.remove_column(2);
        m.remove_column(1);
        m.remove_column(0);
        assert_eq!(m.column_count(), 0);
        assert_eq!(m.entry_count(), 0);
        assert_eq!(m, SparseMatrix::new());
    }

    #[test]
    fn from_raw_validates_invariants() {
        assert!(SparseMatrix::from_raw(vec![0, 1], vec![0], vec![0.1], vec![0.2]).is_ok());
        assert!(SparseMatrix::from_raw(vec![1, 1], vec![], vec![], vec![]).is_err());
        assert!(
            SparseMatrix::from_raw(vec![0, 2, 1], vec![0, 1], vec![0.0; 2], vec![0.0; 2]).is_err()
        );
        assert!(
            SparseMatrix::from_raw(vec![0, 1], vec![0, 1], vec![0.0; 2], vec![0.0; 2]).is_err()
        );
        assert!(
            SparseMatrix::from_raw(vec![0, 2], vec![1, 1], vec![0.0; 2], vec![0.0; 2]).is_err()
        );
        assert!(SparseMatrix::from_raw(vec![0, 1], vec![0], vec![0.1], vec![]).is_err());
    }
}
