//! Joint probability tables over neighbor-edge sets.
//!
//! Definition 2 attaches a joint density `Pr(x_ne)` to every neighbor-edge set
//! `ne`; Figure 1 shows such tables (JPT, JPT1, JPT2).  A [`JointProbTable`]
//! stores the full distribution over the `2^k` assignments of its `k` edge
//! variables (assignments are bitmasks: bit `i` set ⇔ the `i`-th edge of
//! [`JointProbTable::edges`] is present).
//!
//! Besides exact probability lookups the table supports marginalisation over
//! arbitrary partial assignments, single-edge marginals, the marginal rows
//! over a subset of its variables that both the sampler's projection and the
//! exact enumerator read, and two constructors matching the paper's
//! experimental setup: independent products and the STRING "max rule"
//! (`Pr(x_ne) = max_i Pr(x_i)`, normalised).

use crate::error::ProbError;
use pgs_graph::model::EdgeId;

/// Tolerance used when checking that a table is normalised.
const NORMALIZATION_TOLERANCE: f64 = 1e-6;

/// Maximum number of variables per table (assignments are stored in a `u32`
/// bitmask and tables are materialised densely).
pub const MAX_ARITY: usize = 16;

/// A joint probability distribution over the existence variables of a set of
/// edges.
#[derive(Debug, Clone, PartialEq)]
pub struct JointProbTable {
    /// The edges (variables) of this table, sorted ascending.
    edges: Vec<EdgeId>,
    /// `probs[mask]` = probability of the assignment encoded by `mask`
    /// (bit `i` ⇔ `edges[i]` present). Length `2^edges.len()`, sums to 1.
    probs: Vec<f64>,
}

impl JointProbTable {
    /// Creates a table from explicit row probabilities.
    ///
    /// `edges` must be non-empty and duplicate-free; `probs` must have
    /// `2^|edges|` non-negative entries summing to 1 (within tolerance; the
    /// table is re-normalised to remove floating point drift).
    pub fn new(mut edges: Vec<EdgeId>, probs: Vec<f64>) -> Result<Self, ProbError> {
        if edges.is_empty() {
            return Err(ProbError::EmptyTable);
        }
        if edges.len() > MAX_ARITY {
            return Err(ProbError::ArityTooLarge(edges.len()));
        }
        let sorted_unique = {
            let mut s = edges.clone();
            s.sort_unstable();
            s.dedup();
            s.len() == edges.len()
        };
        if !sorted_unique {
            // A duplicated variable makes the distribution ill-defined.
            return Err(ProbError::WrongTableSize {
                arity: edges.len(),
                rows: probs.len(),
            });
        }
        let expected = 1usize << edges.len();
        if probs.len() != expected {
            return Err(ProbError::WrongTableSize {
                arity: edges.len(),
                rows: probs.len(),
            });
        }
        for &p in &probs {
            if !(0.0..=1.0 + NORMALIZATION_TOLERANCE).contains(&p) || p.is_nan() {
                return Err(ProbError::InvalidProbability(p));
            }
        }
        let sum: f64 = probs.iter().sum();
        if (sum - 1.0).abs() > 1e-3 {
            return Err(ProbError::NotNormalized { sum });
        }
        // The edge order defines the bit positions, so sorting the edges
        // requires permuting the masks accordingly.
        let order: Vec<usize> = {
            let mut idx: Vec<usize> = (0..edges.len()).collect();
            idx.sort_by_key(|&i| edges[i]);
            idx
        };
        let mut sorted_edges: Vec<EdgeId> = order.iter().map(|&i| edges[i]).collect();
        let mut permuted = vec![0.0; probs.len()];
        for (mask, &p) in probs.iter().enumerate() {
            let mut new_mask = 0usize;
            for (new_bit, &old_bit) in order.iter().enumerate() {
                if mask & (1 << old_bit) != 0 {
                    new_mask |= 1 << new_bit;
                }
            }
            permuted[new_mask] += p;
        }
        std::mem::swap(&mut edges, &mut sorted_edges);
        let mut table = JointProbTable {
            edges,
            probs: permuted,
        };
        table.normalize();
        Ok(table)
    }

    /// Builds the product distribution of independent edges with the given
    /// presence probabilities.
    pub fn independent(edge_probs: &[(EdgeId, f64)]) -> Result<Self, ProbError> {
        if edge_probs.is_empty() {
            return Err(ProbError::EmptyTable);
        }
        for &(_, p) in edge_probs {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(ProbError::InvalidProbability(p));
            }
        }
        let k = edge_probs.len();
        if k > MAX_ARITY {
            return Err(ProbError::ArityTooLarge(k));
        }
        let edges: Vec<EdgeId> = edge_probs.iter().map(|&(e, _)| e).collect();
        let mut probs = vec![0.0; 1 << k];
        for (mask, slot) in probs.iter_mut().enumerate() {
            let mut p = 1.0;
            for (bit, &(_, pe)) in edge_probs.iter().enumerate() {
                p *= if mask & (1 << bit) != 0 { pe } else { 1.0 - pe };
            }
            *slot = p;
        }
        Self::new(edges, probs)
    }

    /// Builds a table with the paper's STRING construction (Section 6):
    /// `Pr(x_ne) = max_i Pr(x_i)` where `Pr(x_i)` is the marginal term of edge
    /// `i` under the assignment (`p_i` if present, `1 - p_i` otherwise), then
    /// normalised over the `2^|ne|` assignments.  The resulting distribution is
    /// dominated by the strongest interaction of the group (as reported in
    /// \[9\]) and is genuinely correlated: the joint presence probability
    /// differs from the product of the marginals.
    pub fn from_max_rule(edge_probs: &[(EdgeId, f64)]) -> Result<Self, ProbError> {
        if edge_probs.is_empty() {
            return Err(ProbError::EmptyTable);
        }
        for &(_, p) in edge_probs {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(ProbError::InvalidProbability(p));
            }
        }
        let k = edge_probs.len();
        if k > MAX_ARITY {
            return Err(ProbError::ArityTooLarge(k));
        }
        let edges: Vec<EdgeId> = edge_probs.iter().map(|&(e, _)| e).collect();
        let mut probs = vec![0.0; 1 << k];
        for (mask, slot) in probs.iter_mut().enumerate() {
            let mut best: f64 = 0.0;
            for (bit, &(_, pe)) in edge_probs.iter().enumerate() {
                let term = if mask & (1 << bit) != 0 { pe } else { 1.0 - pe };
                best = best.max(term);
            }
            *slot = best;
        }
        let sum: f64 = probs.iter().sum();
        if sum <= 0.0 {
            return Err(ProbError::NotNormalized { sum });
        }
        for p in &mut probs {
            *p /= sum;
        }
        Self::new(edges, probs)
    }

    fn normalize(&mut self) {
        let sum: f64 = self.probs.iter().sum();
        if sum > 0.0 {
            for p in &mut self.probs {
                *p /= sum;
            }
        }
    }

    /// The edges (variables) of the table, sorted ascending.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Number of variables.
    pub fn arity(&self) -> usize {
        self.edges.len()
    }

    /// Number of stored rows (`2^arity`).
    pub fn rows(&self) -> usize {
        self.probs.len()
    }

    /// Raw row probabilities indexed by assignment mask.
    pub fn row_probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Bit position of `edge` within this table, if present.
    pub fn position_of(&self, edge: EdgeId) -> Option<usize> {
        self.edges.binary_search(&edge).ok()
    }

    /// True if the table contains the edge variable.
    pub fn covers(&self, edge: EdgeId) -> bool {
        self.position_of(edge).is_some()
    }

    /// Probability of the partial assignment `constraint` (edges not mentioned
    /// are summed over).  Edges in the constraint that do not belong to this
    /// table are ignored — the caller is responsible for routing constraints to
    /// the right tables.
    pub fn marginal(&self, constraint: &[(EdgeId, bool)]) -> f64 {
        let mut fixed_mask = 0u32;
        let mut fixed_value = 0u32;
        for &(e, present) in constraint {
            if let Some(bit) = self.position_of(e) {
                fixed_mask |= 1 << bit;
                if present {
                    fixed_value |= 1 << bit;
                }
            }
        }
        if fixed_mask == 0 {
            return 1.0;
        }
        let mut total = 0.0;
        for (mask, &p) in self.probs.iter().enumerate() {
            if (mask as u32) & fixed_mask == fixed_value {
                total += p;
            }
        }
        total
    }

    /// Marginal probability that all of `subset` (∩ this table's edges) are
    /// present.
    pub fn marginal_all_present(&self, subset: &[EdgeId]) -> f64 {
        let constraint: Vec<(EdgeId, bool)> = subset
            .iter()
            .filter(|e| self.covers(**e))
            .map(|&e| (e, true))
            .collect();
        self.marginal(&constraint)
    }

    /// Marginal presence probability of a single edge (1.0 if the edge is not
    /// a variable of this table).
    pub fn edge_marginal(&self, edge: EdgeId) -> f64 {
        self.marginal(&[(edge, true)])
    }

    /// Marginal distribution over a subset of this table's bit positions,
    /// appended onto the end of `out` — the projection layer and the exact
    /// world enumerator pack every touched table's marginal into one
    /// contiguous arena this way.  Returns the offset of the appended block
    /// within `out`.
    ///
    /// `keep[i]` is a bit position of this table; the block has `2^keep.len()`
    /// entries where entry `m` is the total probability of all rows whose
    /// restriction to `keep` (bit `i` of `m` ⇔ bit `keep[i]` of the row) equals
    /// `m`.  Under the partitioned model this is exactly the distribution the
    /// union event sees when only the `keep` edges of the table are relevant.
    pub fn marginal_rows_into(&self, keep: &[usize], out: &mut Vec<f64>) -> usize {
        let start = out.len();
        out.resize(start + (1usize << keep.len()), 0.0);
        let block = &mut out[start..];
        for (row, &p) in self.probs.iter().enumerate() {
            let mut sub = 0usize;
            for (i, &bit) in keep.iter().enumerate() {
                if row & (1usize << bit) != 0 {
                    sub |= 1 << i;
                }
            }
            block[sub] += p;
        }
        start
    }

    /// Replaces this correlated table by the product of its single-edge
    /// marginals (used to build the IND baseline model).
    pub fn to_independent(&self) -> JointProbTable {
        let edge_probs: Vec<(EdgeId, f64)> = self
            .edges
            .iter()
            .map(|&e| (e, self.edge_marginal(e)))
            .collect();
        // pgs-lint: allow(panic-in-library, marginals of a validated table are probabilities in [0, 1])
        JointProbTable::independent(&edge_probs).expect("marginals of a valid table are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EdgeId {
        EdgeId(i)
    }

    /// JPT of graph 001 in Figure 1 (the 8-row table): variables e1,e2,e3 with
    /// Pr(1,1,1)=0.2, Pr(1,1,0)=0.2, Pr(1,0,1)=0.1, Pr(1,0,0)=0.1,
    /// Pr(0,1,1)=0.1, Pr(0,1,0)=0.1, Pr(0,0,1)=0.1, Pr(0,0,0)=0.1.
    fn figure1_jpt() -> JointProbTable {
        // bit0 = e1, bit1 = e2, bit2 = e3; mask value = e1 + 2*e2 + 4*e3
        let mut probs = vec![0.0; 8];
        probs[0b111] = 0.2;
        probs[0b011] = 0.2; // e1=1,e2=1,e3=0
        probs[0b101] = 0.1; // e1=1,e2=0,e3=1
        probs[0b001] = 0.1;
        probs[0b110] = 0.1;
        probs[0b010] = 0.1;
        probs[0b100] = 0.1;
        probs[0b000] = 0.1;
        JointProbTable::new(vec![e(1), e(2), e(3)], probs).unwrap()
    }

    #[test]
    fn figure1_marginals() {
        let t = figure1_jpt();
        assert_eq!(t.arity(), 3);
        assert_eq!(t.rows(), 8);
        // Pr(e1=1,e2=1,e3=0) = 0.2 as in the running example.
        let p = t.marginal(&[(e(1), true), (e(2), true), (e(3), false)]);
        assert!((p - 0.2).abs() < 1e-12);
        // Pr(e1=1) = 0.2+0.2+0.1+0.1 = 0.6
        assert!((t.edge_marginal(e(1)) - 0.6).abs() < 1e-12);
        // Pr(e3=1) = 0.2+0.1+0.1+0.1 = 0.5
        assert!((t.edge_marginal(e(3)) - 0.5).abs() < 1e-12);
        // Pr(all present) = 0.2
        assert!((t.marginal_all_present(&[e(1), e(2), e(3)]) - 0.2).abs() < 1e-12);
        // Unknown edges are ignored in constraints.
        assert!((t.marginal(&[(e(9), true)]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn construction_validation() {
        assert_eq!(
            JointProbTable::new(vec![], vec![]).unwrap_err(),
            ProbError::EmptyTable
        );
        assert!(matches!(
            JointProbTable::new(vec![e(0)], vec![0.5, 0.4, 0.1]).unwrap_err(),
            ProbError::WrongTableSize { .. }
        ));
        assert!(matches!(
            JointProbTable::new(vec![e(0)], vec![0.5, -0.5]).unwrap_err(),
            ProbError::InvalidProbability(_)
        ));
        assert!(matches!(
            JointProbTable::new(vec![e(0)], vec![0.2, 0.2]).unwrap_err(),
            ProbError::NotNormalized { .. }
        ));
        assert!(matches!(
            JointProbTable::new(vec![e(0), e(0)], vec![0.25; 4]).unwrap_err(),
            ProbError::WrongTableSize { .. }
        ));
        let too_many: Vec<EdgeId> = (0..20).map(e).collect();
        assert!(matches!(
            JointProbTable::new(too_many, vec![0.0; 1 << 20]).unwrap_err(),
            ProbError::ArityTooLarge(20)
        ));
    }

    #[test]
    fn edge_order_is_canonicalised() {
        // Same distribution expressed with edges in a different order must
        // produce identical marginals.
        let t1 = JointProbTable::independent(&[(e(3), 0.3), (e(1), 0.8)]).unwrap();
        let t2 = JointProbTable::independent(&[(e(1), 0.8), (e(3), 0.3)]).unwrap();
        assert_eq!(t1.edges(), t2.edges());
        for c in [
            vec![(e(1), true), (e(3), true)],
            vec![(e(1), true), (e(3), false)],
            vec![(e(1), false)],
        ] {
            assert!((t1.marginal(&c) - t2.marginal(&c)).abs() < 1e-12);
        }
    }

    #[test]
    fn independent_table_matches_product() {
        let t = JointProbTable::independent(&[(e(0), 0.25), (e(1), 0.5)]).unwrap();
        assert!((t.marginal_all_present(&[e(0), e(1)]) - 0.125).abs() < 1e-12);
        assert!((t.edge_marginal(e(0)) - 0.25).abs() < 1e-12);
        assert!((t.edge_marginal(e(1)) - 0.5).abs() < 1e-12);
        let sum: f64 = t.row_probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_rule_produces_a_correlated_distribution() {
        // The max rule yields a genuine joint distribution: normalised, and with
        // a joint presence probability that differs from the product of its
        // marginals (i.e. the edges are NOT independent).
        let t = JointProbTable::from_max_rule(&[(e(0), 0.9), (e(1), 0.9)]).unwrap();
        let joint = t.marginal_all_present(&[e(0), e(1)]);
        let product = t.edge_marginal(e(0)) * t.edge_marginal(e(1));
        assert!(
            (joint - product).abs() > 1e-6,
            "max-rule table must be correlated: joint {joint}, product {product}"
        );
        let sum: f64 = t.row_probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // All four assignments keep strictly positive probability.
        assert!(t.row_probabilities().iter().all(|&p| p > 0.0));
    }

    #[test]
    fn to_independent_preserves_marginals_but_drops_correlation() {
        let t = JointProbTable::from_max_rule(&[(e(0), 0.8), (e(1), 0.6)]).unwrap();
        let ind = t.to_independent();
        for edge in [e(0), e(1)] {
            assert!((t.edge_marginal(edge) - ind.edge_marginal(edge)).abs() < 1e-9);
        }
        let joint_cor = t.marginal_all_present(&[e(0), e(1)]);
        let joint_ind = ind.marginal_all_present(&[e(0), e(1)]);
        assert!((joint_ind - ind.edge_marginal(e(0)) * ind.edge_marginal(e(1))).abs() < 1e-9);
        assert!(joint_cor != joint_ind);
    }

    #[test]
    fn marginal_rows_marginalise_dropped_bits() {
        let t = figure1_jpt();
        let mut arena = vec![0.5];
        let mut rows = |keep: &[usize]| {
            let start = t.marginal_rows_into(keep, &mut arena);
            arena[start..].to_vec()
        };
        // Keep only bit 0 (edge e1): the two rows are Pr(e1=0) and Pr(e1=1).
        let r = rows(&[0]);
        assert_eq!(r.len(), 2);
        assert!((r[1] - t.edge_marginal(e(1))).abs() < 1e-12);
        assert!((r[0] + r[1] - 1.0).abs() < 1e-12);
        // Keep bits (2, 0) in swapped order: entry 0b01 means e3=1, e1=0.
        let r = rows(&[2, 0]);
        assert_eq!(r.len(), 4);
        let expect = t.marginal(&[(e(3), true), (e(1), false)]);
        assert!((r[0b01] - expect).abs() < 1e-12);
        // Keeping every bit reproduces the table.
        let r = rows(&[0, 1, 2]);
        for (m, &p) in t.row_probabilities().iter().enumerate() {
            assert!((r[m] - p).abs() < 1e-12);
        }
        // Keeping nothing leaves the single empty assignment of mass 1.
        let r = rows(&[]);
        assert_eq!(r.len(), 1);
        assert!((r[0] - 1.0).abs() < 1e-12);
        // Blocks append after whatever the arena already held.
        assert_eq!(arena.len(), 1 + 2 + 4 + 8 + 1);
        assert_eq!(arena[0], 0.5);
    }
}
