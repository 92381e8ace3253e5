//! Maximum weight clique search.
//!
//! Section 4.1 turns "pick the best set of pairwise-disjoint embeddings (resp.
//! cuts)" into a **maximum weight clique** problem on a compatibility graph
//! `fG` whose nodes are embeddings/cuts, whose links connect disjoint pairs and
//! whose node weights are `-ln(1 - Pr(Bf_i | COR))` (resp. `-ln(1 - Pr(Bc_i |
//! COM))`).  The paper uses the Balas–Xue branch-and-bound \[7\]; the instances
//! here are tiny (at most a few dozen embeddings per feature/graph pair), so we
//! implement a Carraghan–Pardalos style weighted branch-and-bound with a
//! sum-of-remaining-weights upper bound, which is exact and more than fast
//! enough.
//!
//! The compatibility graph is passed as an adjacency matrix to keep this module
//! independent of the labelled [`crate::model::Graph`] type (the clique instance
//! is not a labelled data graph).

/// Search nodes after which the clique search stops and returns the best
/// clique found so far (a valid clique, but possibly not maximum).
const MAX_STEPS: u64 = 2_000_000;

/// Result of a maximum weight clique search.
#[derive(Debug, Clone, PartialEq)]
pub struct CliqueResult {
    /// Indices of the chosen nodes (sorted ascending).
    pub members: Vec<usize>,
    /// Total weight of the clique.
    pub weight: f64,
    /// True if the search ran to completion (result is provably maximum).
    pub optimal: bool,
}

/// A symmetric boolean adjacency matrix with word-packed rows: row `i` is
/// `words_per_row` `u64` words, bit `j` of the row is the `(i, j)` entry.
/// One flat allocation for the whole matrix instead of `n` heap rows, and a
/// pairwise predicate that is one shift/AND.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// An all-false `n × n` matrix.
    pub fn new(n: usize) -> BitMatrix {
        let words_per_row = n.div_ceil(64);
        BitMatrix {
            n,
            words_per_row,
            bits: vec![0u64; n * words_per_row],
        }
    }

    /// Number of nodes (rows).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix has zero nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sets entry `(i, j)` (one direction only).
    pub fn set(&mut self, i: usize, j: usize) {
        debug_assert!(i < self.n && j < self.n);
        self.bits[i * self.words_per_row + j / 64] |= 1u64 << (j % 64);
    }

    /// Sets both `(i, j)` and `(j, i)` — the symmetric-matrix builder.
    pub fn set_pair(&mut self, i: usize, j: usize) {
        self.set(i, j);
        self.set(j, i);
    }

    /// The `(i, j)` entry.
    pub fn get(&self, i: usize, j: usize) -> bool {
        debug_assert!(i < self.n && j < self.n);
        self.bits[i * self.words_per_row + j / 64] & (1u64 << (j % 64)) != 0
    }
}

/// Finds a maximum weight clique of the compatibility graph.
///
/// * `weights[i]` — non-negative weight of node `i` (nodes with non-positive
///   weight are never selected: they cannot improve a clique).
/// * `adjacent.get(i, j)` — true if nodes `i` and `j` are compatible (may
///   appear in the same clique). The diagonal is ignored.
pub fn max_weight_clique(weights: &[f64], adjacent: &BitMatrix) -> CliqueResult {
    budgeted_clique(weights, adjacent, MAX_STEPS)
}

/// [`max_weight_clique`] stopping after `max_steps` search nodes.
fn budgeted_clique(weights: &[f64], adjacent: &BitMatrix, max_steps: u64) -> CliqueResult {
    let n = weights.len();
    assert_eq!(adjacent.len(), n, "adjacency matrix must be n x n");
    let mut search = CliqueSearch {
        weights,
        adjacent,
        best: Vec::new(),
        best_weight: 0.0,
        steps: 0,
        max_steps,
        aborted: false,
    };
    // Candidate order: descending weight, so good cliques are found early and
    // the bound prunes more.
    let mut candidates: Vec<usize> = (0..n).filter(|&i| weights[i] > 0.0).collect();
    candidates.sort_by(|&a, &b| {
        weights[b]
            .partial_cmp(&weights[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut current = Vec::new();
    search.expand(&mut current, 0.0, &candidates);
    let mut members = search.best.clone();
    members.sort_unstable();
    CliqueResult {
        members,
        weight: search.best_weight,
        optimal: !search.aborted,
    }
}

struct CliqueSearch<'a> {
    weights: &'a [f64],
    adjacent: &'a BitMatrix,
    best: Vec<usize>,
    best_weight: f64,
    steps: u64,
    max_steps: u64,
    aborted: bool,
}

impl CliqueSearch<'_> {
    fn expand(&mut self, current: &mut Vec<usize>, current_weight: f64, candidates: &[usize]) {
        self.steps += 1;
        if self.steps > self.max_steps {
            self.aborted = true;
            return;
        }
        if current_weight > self.best_weight {
            self.best_weight = current_weight;
            self.best = current.clone();
        }
        if candidates.is_empty() {
            return;
        }
        // Upper bound: current weight + everything still available.
        let available: f64 = candidates.iter().map(|&c| self.weights[c]).sum();
        if current_weight + available <= self.best_weight {
            return;
        }
        for (pos, &c) in candidates.iter().enumerate() {
            if self.aborted {
                return;
            }
            // Bound again for the suffix starting at pos.
            let suffix: f64 = candidates[pos..].iter().map(|&x| self.weights[x]).sum();
            if current_weight + suffix <= self.best_weight {
                return;
            }
            let next: Vec<usize> = candidates[pos + 1..]
                .iter()
                .copied()
                .filter(|&x| self.adjacent.get(c, x))
                .collect();
            current.push(c);
            self.expand(current, current_weight + self.weights[c], &next);
            current.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::EdgeId;

    fn matrix_of_pairs(n: usize, pairs: &[(usize, usize)]) -> BitMatrix {
        let mut adj = BitMatrix::new(n);
        for &(a, b) in pairs {
            adj.set_pair(a, b);
        }
        adj
    }

    #[test]
    fn single_node_graph() {
        let r = max_weight_clique(&[2.5], &BitMatrix::new(1));
        assert_eq!(r.members, vec![0]);
        assert!((r.weight - 2.5).abs() < 1e-12);
        assert!(r.optimal);
    }

    #[test]
    fn empty_input() {
        let r = max_weight_clique(&[], &BitMatrix::new(0));
        assert!(r.members.is_empty());
        assert_eq!(r.weight, 0.0);
    }

    #[test]
    fn triangle_plus_heavy_isolated_node() {
        // Nodes 0,1,2 form a triangle with weight 1 each; node 3 is isolated
        // with weight 2.5. The triangle (weight 3) wins.
        let weights = vec![1.0, 1.0, 1.0, 2.5];
        let adj = matrix_of_pairs(4, &[(0, 1), (1, 2), (0, 2)]);
        let r = max_weight_clique(&weights, &adj);
        assert_eq!(r.members, vec![0, 1, 2]);
        assert!((r.weight - 3.0).abs() < 1e-12);

        // Make the isolated node heavier than the triangle: it wins.
        let weights = vec![1.0, 1.0, 1.0, 3.5];
        let r = max_weight_clique(&weights, &adj);
        assert_eq!(r.members, vec![3]);
    }

    #[test]
    fn zero_weight_nodes_are_ignored() {
        let weights = vec![0.0, 1.0, 0.0];
        let adj = matrix_of_pairs(3, &[(0, 1), (0, 2), (1, 2)]);
        let r = max_weight_clique(&weights, &adj);
        assert_eq!(r.members, vec![1]);
    }

    #[test]
    fn figure_7_embedding_clique() {
        // Example 6: embeddings EM1={e1,e2}, EM2={e2,e3}, EM3={e3,e4}. The two
        // maximal cliques of fG are {EM1,EM3} and {EM2}. With equal weights the
        // pair wins.  EM1/EM3 is the only edge-disjoint pair.
        let adj = matrix_of_pairs(3, &[(0, 2)]);
        let w = vec![0.5, 0.6, 0.5];
        let r = max_weight_clique(&w, &adj);
        assert_eq!(r.members, vec![0, 2]);
        assert!((r.weight - 1.0).abs() < 1e-12);
    }

    #[test]
    fn step_cap_still_returns_valid_clique() {
        // A moderately sized random-ish instance with a tiny step budget.
        let n = 20;
        let weights: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 % 3.0)).collect();
        let mut adj = BitMatrix::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if (i + j) % 3 != 0 {
                    adj.set_pair(i, j);
                }
            }
        }
        let r = budgeted_clique(&weights, &adj, 5);
        // Whatever was found must be a clique.
        for (x, &a) in r.members.iter().enumerate() {
            for &b in &r.members[x + 1..] {
                assert!(adj.get(a, b), "returned nodes {a},{b} are not adjacent");
            }
        }
    }

    #[test]
    fn weights_drive_selection_not_cardinality() {
        // Two disjoint pairs {0,1} (weight 1+1) vs single node 2 (weight 5).
        let weights = vec![1.0, 1.0, 5.0];
        let adj = matrix_of_pairs(3, &[(0, 1)]);
        let r = max_weight_clique(&weights, &adj);
        assert_eq!(r.members, vec![2]);
        assert!((r.weight - 5.0).abs() < 1e-12);
    }

    #[test]
    fn bitmatrix_matches_nested_vec_reference() {
        // The word-packed matrix must agree entry-for-entry with the old
        // Vec<Vec<bool>> construction, including sizes that straddle the
        // 64-bit word boundary.
        for n in [0usize, 1, 7, 63, 64, 65, 130] {
            // Deterministic pseudo-random edge sets: set i touches edges
            // derived from a small LCG so disjointness varies.
            let sets: Vec<Vec<EdgeId>> = (0..n)
                .map(|i| {
                    let mut s = (i as u64)
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1);
                    let mut edges: Vec<EdgeId> = (0..3)
                        .map(|_| {
                            s = s
                                .wrapping_mul(6_364_136_223_846_793_005)
                                .wrapping_add(1_442_695_040_888_963_407);
                            EdgeId((s >> 33) as u32 % 40)
                        })
                        .collect();
                    edges.sort_unstable();
                    edges.dedup();
                    edges
                })
                .collect();

            let mut reference = vec![vec![false; n]; n];
            let mut packed = BitMatrix::new(n);
            for i in 0..n {
                for j in (i + 1)..n {
                    let d = crate::embeddings::edge_sets_disjoint(&sets[i], &sets[j]);
                    reference[i][j] = d;
                    reference[j][i] = d;
                    if d {
                        packed.set_pair(i, j);
                    }
                }
            }

            assert_eq!(packed.len(), n);
            for (i, row) in reference.iter().enumerate() {
                for (j, &want) in row.iter().enumerate() {
                    assert_eq!(packed.get(i, j), want, "n={n} entry ({i},{j}) differs");
                }
            }
        }
    }
}
