//! Algorithm 1: the tightest upper bound `Usim(q)` as a weighted set cover.
//!
//! Every indexed feature `f_j` that is a subgraph of at least one relaxed query
//! defines a set `s_j ⊆ U = {rq_1, .., rq_a}` (the relaxed queries it is a
//! subgraph of) with weight `UpperB(f_j)`.  A cover `C` of `U` yields the valid
//! upper bound `Σ_{s_j ∈ C} UpperB(f_j)` of `Pr(q ⊆sim g)` (Theorem 3 applied
//! per covered element), so the *tightest* such bound is the minimum weight set
//! cover — NP-complete, approximated here with the classical greedy algorithm
//! (cost/coverage ratio), which is within `ln |U|` of the optimum.
//!
//! The sets are bitsets over the universe (`CoverSets`).  Only the weights
//! depend on the candidate graph, so phase 2 builds one query's sets once and
//! runs the one greedy (`greedy_cover`) per candidate with its weights;
//! [`greedy_weighted_set_cover`] is the same greedy over a list of sets.

/// A solved set cover instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SetCoverSolution {
    /// Indices (into the input set list) of the chosen sets, in pick order.
    pub chosen: Vec<usize>,
    /// Total weight of the chosen sets (the paper's `Usim(q)`).
    pub total_weight: f64,
    /// True if every universe element is covered.
    pub covered_all: bool,
}

/// Greedy weighted set cover (Algorithm 1).
///
/// * `universe_size` — `a = |U|`; elements are `0..a`.
/// * `sets` — `(elements, weight)` pairs; elements outside the universe are
///   ignored, a repeated element counts once, weights must be non-negative.
///
/// Returns the greedy cover; if some element is not covered by any set the
/// solution has `covered_all == false` and covers as much as possible.
pub fn greedy_weighted_set_cover(
    universe_size: usize,
    sets: &[(Vec<usize>, f64)],
) -> SetCoverSolution {
    let mut bitsets = CoverSets::new(universe_size);
    for (elements, _) in sets {
        bitsets.push(elements.iter().copied());
    }
    let mut chosen = Vec::new();
    let (total_weight, covered) = greedy_cover(&bitsets, |si| sets[si].1, |si| chosen.push(si));
    SetCoverSolution {
        chosen,
        total_weight,
        covered_all: covered == universe_size,
    }
}

/// The sets of one cover instance as bitsets over its universe, set-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CoverSets {
    universe: usize,
    /// Words per set: the universe's width rounded up to whole words, at
    /// least one.
    words: usize,
    bits: Vec<u64>,
}

impl CoverSets {
    /// No sets yet over the universe `0..universe`.
    pub(crate) fn new(universe: usize) -> CoverSets {
        CoverSets {
            universe,
            words: universe.div_ceil(64).max(1),
            bits: Vec::new(),
        }
    }

    /// Appends one set.  Elements outside the universe are ignored and a
    /// repeated element counts once.
    pub(crate) fn push(&mut self, elements: impl IntoIterator<Item = usize>) {
        let start = self.bits.len();
        self.bits.resize(start + self.words, 0);
        for e in elements.into_iter().filter(|&e| e < self.universe) {
            self.bits[start + e / 64] |= 1 << (e % 64);
        }
    }

    /// Number of sets.
    pub(crate) fn len(&self) -> usize {
        self.bits.len() / self.words
    }

    /// Set `si`'s bits.
    fn set(&self, si: usize) -> &[u64] {
        &self.bits[si * self.words..(si + 1) * self.words]
    }
}

/// The greedy of Algorithm 1 over `sets`, set `si` weighing `weight(si)`
/// (asked once per set, in order).  Each round picks the unused set with the
/// least weight per newly covered element, a ratio within `1e-15` of the best
/// going to the larger new count and then to the earlier set, until the
/// universe is covered or no set adds an element.  `pick` sees the chosen
/// sets in pick order.  Returns the total weight and the number of covered
/// elements.
///
/// An instance of at most 64 sets over at most 64 elements runs without
/// allocating.
pub(crate) fn greedy_cover(
    sets: &CoverSets,
    weight: impl Fn(usize) -> f64,
    pick: impl FnMut(usize),
) -> (f64, usize) {
    let n = sets.len();
    if n <= 64 && sets.words == 1 {
        let mut weights = [0.0; 64];
        greedy_in(sets, &mut weights[..n], &mut [0], &mut [0], weight, pick)
    } else {
        greedy_in(
            sets,
            &mut vec![0.0; n],
            &mut vec![0; sets.words],
            &mut vec![0; n.div_ceil(64)],
            weight,
            pick,
        )
    }
}

/// [`greedy_cover`] over caller-provided zeroed scratch: one weight per set,
/// the covered elements' and the used sets' bits.
fn greedy_in(
    sets: &CoverSets,
    weights: &mut [f64],
    covered: &mut [u64],
    used: &mut [u64],
    weight: impl Fn(usize) -> f64,
    mut pick: impl FnMut(usize),
) -> (f64, usize) {
    for (si, w) in weights.iter_mut().enumerate() {
        *w = weight(si).max(0.0);
    }
    let mut num_covered = 0usize;
    let mut total_weight = 0.0;
    while num_covered < sets.universe {
        // Pick the set minimising weight / newly-covered (the paper's
        // γ(s) = w(s)·|s − A| written as a ratio; both orderings coincide for
        // the greedy argmin on uncovered counts — we use the standard
        // cost-effectiveness ratio).
        let mut best: Option<(usize, f64, usize)> = None; // (set index, ratio, new count)
        for (si, &w) in weights.iter().enumerate() {
            if used[si / 64] & (1 << (si % 64)) != 0 {
                continue;
            }
            let new_count: usize = sets
                .set(si)
                .iter()
                .zip(&*covered)
                .map(|(s, c)| (s & !c).count_ones() as usize)
                .sum();
            if new_count == 0 {
                continue;
            }
            let ratio = w / new_count as f64;
            let better = match best {
                None => true,
                Some((_, best_ratio, best_new)) => {
                    ratio < best_ratio - 1e-15
                        || ((ratio - best_ratio).abs() <= 1e-15 && new_count > best_new)
                }
            };
            if better {
                best = Some((si, ratio, new_count));
            }
        }
        // Nothing can cover the remaining elements.
        let Some((si, _, _)) = best else { break };
        used[si / 64] |= 1 << (si % 64);
        pick(si);
        total_weight += weights[si];
        for (c, s) in covered.iter_mut().zip(sets.set(si)) {
            num_covered += (s & !*c).count_ones() as usize;
            *c |= s;
        }
    }
    (total_weight, num_covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_3_from_the_paper() {
        // Figure 5 / Example 3: U = {rq1, rq2, rq3}; s1 = {rq1, rq2} w=0.4,
        // s2 = {rq2, rq3} w=0.1, s3 = {rq1, rq3} w=0.5.  The candidate covers
        // are {s1,s2}=0.5, {s1,s3}=0.9, {s2,s3}=0.6; the tightest Usim is 0.5.
        let sets = vec![(vec![0, 1], 0.4), (vec![1, 2], 0.1), (vec![0, 2], 0.5)];
        let sol = greedy_weighted_set_cover(3, &sets);
        assert!(sol.covered_all);
        assert!(
            (sol.total_weight - 0.5).abs() < 1e-12,
            "Usim = {}",
            sol.total_weight
        );
        let mut chosen = sol.chosen.clone();
        chosen.sort_unstable();
        assert_eq!(chosen, vec![0, 1]);
    }

    #[test]
    fn single_set_covering_everything() {
        let sets = vec![(vec![0, 1, 2], 0.7), (vec![0], 0.3)];
        let sol = greedy_weighted_set_cover(3, &sets);
        assert!(sol.covered_all);
        // Ratio 0.7/3 ≈ 0.233 beats 0.3/1: the big set alone is chosen.
        assert_eq!(sol.chosen, vec![0]);
        assert!((sol.total_weight - 0.7).abs() < 1e-12);
    }

    #[test]
    fn uncoverable_elements_are_reported() {
        let sets = vec![(vec![0], 0.2)];
        let sol = greedy_weighted_set_cover(2, &sets);
        assert!(!sol.covered_all);
        assert_eq!(sol.chosen, vec![0]);
        assert!((sol.total_weight - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_universe_is_trivially_covered() {
        let sol = greedy_weighted_set_cover(0, &[(vec![0], 0.5)]);
        assert!(sol.covered_all);
        assert!(sol.chosen.is_empty());
        assert_eq!(sol.total_weight, 0.0);
    }

    #[test]
    fn empty_set_list() {
        let sol = greedy_weighted_set_cover(2, &[]);
        assert!(!sol.covered_all);
        assert!(sol.chosen.is_empty());
    }

    #[test]
    fn out_of_range_elements_are_ignored() {
        let sets = vec![(vec![0, 7, 9], 0.3), (vec![1], 0.2)];
        let sol = greedy_weighted_set_cover(2, &sets);
        assert!(sol.covered_all);
        assert!((sol.total_weight - 0.5).abs() < 1e-12);
    }

    #[test]
    fn repeated_elements_count_once() {
        // {0, 0} is the set {0}: its ratio is 0.3, not 0.15, so the pair
        // set (0.25 per element) covers both elements alone.
        let sets = vec![(vec![0, 0], 0.3), (vec![0, 1], 0.5)];
        let sol = greedy_weighted_set_cover(2, &sets);
        assert_eq!(sol.chosen, vec![1]);
        assert!((sol.total_weight - 0.5).abs() < 1e-12);
    }

    #[test]
    fn greedy_is_within_ln_factor_on_adversarial_instance() {
        // Classic bad case for greedy: optimal = 2 big sets, greedy may pick the
        // small cheap ones. Whatever it picks must cover and must not exceed
        // OPT * ln(n) (here n = 6, OPT = 2.0, bound ≈ 3.58).
        let sets = vec![
            (vec![0, 1, 2], 1.0),
            (vec![3, 4, 5], 1.0),
            (vec![0, 3], 0.4),
            (vec![1, 4], 0.4),
            (vec![2, 5], 0.4),
        ];
        let sol = greedy_weighted_set_cover(6, &sets);
        assert!(sol.covered_all);
        assert!(sol.total_weight <= 2.0 * (6.0f64).ln() + 1e-9);
    }

    #[test]
    fn zero_weight_sets_are_free() {
        let sets = vec![(vec![0, 1], 0.0), (vec![2], 0.9)];
        let sol = greedy_weighted_set_cover(3, &sets);
        assert!(sol.covered_all);
        assert!((sol.total_weight - 0.9).abs() < 1e-12);
    }
}
