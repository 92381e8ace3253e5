//! Algorithm 2: the tightest lower bound `Lsim(q)` via quadratic-programming
//! relaxation and randomized rounding.
//!
//! Every indexed feature `f_j` that is a *super*-graph of at least one relaxed
//! query defines a set `s_j ⊆ U` (the relaxed queries contained in it) with the
//! pair weight `(LowerB(f_j), UpperB(f_j))`.  For any cover `C` of `U` the
//! value
//!
//! ```text
//! Lsim(C) = Σ_{j∈C} LowerB(f_j) − Σ_{i<j ∈ C} cross(f_i, f_j)
//! ```
//!
//! is a valid lower bound of `Pr(q ⊆sim g)` (Theorem 4 / Bonferroni), where
//! `cross` over-approximates the pairwise joint probability.  The paper uses
//! `UpperB(f_i)·UpperB(f_j)`; that product is only an upper bound of the joint
//! probability when the events are close to independent, so the default here is
//! the always-sound `min(UpperB(f_i), UpperB(f_j))`
//! ([`CrossTermRule::SafeMin`](crate::prune::CrossTermRule::SafeMin) in
//! [`crate::prune`]) with the paper's product available behind an option.
//!
//! Finding the best cover is an integer quadratic program (Definition 11); we
//! relax the indicators to `[0, 1]`, solve the relaxation with projected
//! gradient ascent (the problem is a box-constrained concave maximisation with
//! a coverage penalty), and round with the paper's randomized scheme
//! (Theorem 5: after `2 ln |U|` rounds all elements are covered with
//! probability ≥ 1 − 1/|U|).  The final bound is the best of the rounded cover,
//! a greedy cover, and 0 — all of which are valid lower bounds.

use rand::Rng;

/// One candidate set of the `Lsim` instance.
#[derive(Debug, Clone, PartialEq)]
pub struct LsimSet {
    /// Relaxed-query indices contained in this feature (`rq_i ⊆iso f_j`).
    pub elements: Vec<usize>,
    /// `LowerB(f_j)`.
    pub lower: f64,
    /// `UpperB(f_j)`.
    pub upper: f64,
}

/// Options of the Lsim optimisation.
#[derive(Debug, Clone, Copy)]
pub struct QpOptions {
    /// Gradient-ascent iterations for the relaxed QP.
    pub iterations: usize,
    /// Gradient step size.
    pub step: f64,
    /// Coverage-constraint penalty coefficient.
    pub penalty: f64,
    /// Use the paper's product cross term instead of the safe minimum.
    pub paper_product_cross_term: bool,
}

impl Default for QpOptions {
    fn default() -> Self {
        QpOptions {
            iterations: 200,
            step: 0.08,
            penalty: 2.0,
            paper_product_cross_term: false,
        }
    }
}

/// Result of the Lsim computation.
#[derive(Debug, Clone, PartialEq)]
pub struct LsimSolution {
    /// The selected cover (set indices); empty when no cover exists.
    pub chosen: Vec<usize>,
    /// The lower bound value (0 when no cover exists).
    pub value: f64,
    /// The fractional optimum of the relaxed QP (an upper bound on the best
    /// achievable integral `Lsim`, reported for diagnostics).
    pub relaxed_value: f64,
}

/// Computes the tightest `Lsim(q)` for one candidate graph (Algorithm 2).
pub fn tightest_lsim<R: Rng + ?Sized>(
    universe_size: usize,
    sets: &[LsimSet],
    options: &QpOptions,
    rng: &mut R,
) -> LsimSolution {
    if universe_size == 0 {
        return LsimSolution {
            chosen: Vec::new(),
            value: 0.0,
            relaxed_value: 0.0,
        };
    }
    if sets.is_empty() || !is_coverable(universe_size, sets) {
        return LsimSolution {
            chosen: Vec::new(),
            value: 0.0,
            relaxed_value: 0.0,
        };
    }
    // --- continuous relaxation, solved by projected gradient ascent ---------
    let n = sets.len();
    let mut x = vec![0.5f64; n];
    let mut relaxed_value = objective(sets, &x, options);
    for _ in 0..options.iterations {
        let grad = gradient(universe_size, sets, &x, options);
        for i in 0..n {
            x[i] = (x[i] + options.step * grad[i]).clamp(0.0, 1.0);
        }
        relaxed_value = relaxed_value.max(objective(sets, &x, options));
    }

    // --- randomized rounding (Algorithm 2) -----------------------------------
    let rounds = ((2.0 * (universe_size.max(2) as f64).ln()).ceil() as usize).max(1);
    let mut best_cover: Option<Vec<usize>> = None;
    let mut picked: Vec<bool> = vec![false; n];
    for _ in 0..rounds {
        for (i, set) in sets.iter().enumerate() {
            let _ = set;
            if !picked[i] && rng.gen::<f64>() < x[i] {
                picked[i] = true;
            }
        }
        let chosen: Vec<usize> = (0..n).filter(|&i| picked[i]).collect();
        if covers(universe_size, sets, &chosen) {
            best_cover = Some(chosen);
            break;
        }
    }

    // --- fall back to / compare with a greedy cover --------------------------
    let greedy = greedy_cover(universe_size, sets);
    let mut best_value = 0.0;
    let mut best_chosen = Vec::new();
    for cover in [best_cover, greedy].into_iter().flatten() {
        let value = lsim_value(sets, &cover, options);
        if value > best_value {
            best_value = value;
            best_chosen = cover;
        }
    }
    LsimSolution {
        chosen: best_chosen,
        value: best_value,
        relaxed_value,
    }
}

/// The Lsim value of a specific cover: `Σ lower − Σ_{i<j} cross` clamped at 0.
pub fn lsim_value(sets: &[LsimSet], chosen: &[usize], options: &QpOptions) -> f64 {
    let mut total = 0.0;
    for &i in chosen {
        total += sets[i].lower;
    }
    for (a, &i) in chosen.iter().enumerate() {
        for &j in chosen.iter().skip(a + 1) {
            total -= cross_term(&sets[i], &sets[j], options);
        }
    }
    total.max(0.0)
}

fn cross_term(a: &LsimSet, b: &LsimSet, options: &QpOptions) -> f64 {
    if options.paper_product_cross_term {
        a.upper * b.upper
    } else {
        a.upper.min(b.upper)
    }
}

fn objective(sets: &[LsimSet], x: &[f64], options: &QpOptions) -> f64 {
    let mut total = 0.0;
    for (i, s) in sets.iter().enumerate() {
        total += x[i] * s.lower;
    }
    for i in 0..sets.len() {
        for j in (i + 1)..sets.len() {
            total -= x[i] * x[j] * cross_term(&sets[i], &sets[j], options);
        }
    }
    total
}

/// Gradient of the penalised objective
/// `Σ x_i lower_i − Σ_{i<j} x_i x_j cross_ij − penalty · Σ_e max(0, 1 − Σ_{s∋e} x_s)`.
fn gradient(universe_size: usize, sets: &[LsimSet], x: &[f64], options: &QpOptions) -> Vec<f64> {
    let n = sets.len();
    let mut grad = vec![0.0; n];
    for i in 0..n {
        grad[i] += sets[i].lower;
        for j in 0..n {
            if j != i {
                grad[i] -= x[j] * cross_term(&sets[i], &sets[j], options);
            }
        }
    }
    // Coverage penalty: push up the variables of uncovered elements.
    for e in 0..universe_size {
        let coverage: f64 = sets
            .iter()
            .enumerate()
            .filter(|(_, s)| s.elements.contains(&e))
            .map(|(i, _)| x[i])
            .sum();
        if coverage < 1.0 {
            for (i, s) in sets.iter().enumerate() {
                if s.elements.contains(&e) {
                    grad[i] += options.penalty * (1.0 - coverage);
                }
            }
        }
    }
    grad
}

fn is_coverable(universe_size: usize, sets: &[LsimSet]) -> bool {
    (0..universe_size).all(|e| sets.iter().any(|s| s.elements.contains(&e)))
}

fn covers(universe_size: usize, sets: &[LsimSet], chosen: &[usize]) -> bool {
    (0..universe_size).all(|e| chosen.iter().any(|&i| sets[i].elements.contains(&e)))
}

/// Greedy cover maximising `lower / newly covered` (a sensible heuristic for a
/// quality fallback; any cover is valid).
fn greedy_cover(universe_size: usize, sets: &[LsimSet]) -> Option<Vec<usize>> {
    let mut covered = vec![false; universe_size];
    let mut chosen = Vec::new();
    let mut remaining = universe_size;
    while remaining > 0 {
        let mut best: Option<(usize, f64)> = None;
        for (i, s) in sets.iter().enumerate() {
            if chosen.contains(&i) {
                continue;
            }
            let new_count = s
                .elements
                .iter()
                .filter(|&&e| e < universe_size && !covered[e])
                .count();
            if new_count == 0 {
                continue;
            }
            // Prefer high lower bound per newly covered element, penalising the
            // cross term against what is already chosen.
            let score = s.lower / new_count as f64;
            if best.map(|(_, b)| score > b).unwrap_or(true) {
                best = Some((i, score));
            }
        }
        let (i, _) = best?;
        chosen.push(i);
        for &e in &sets[i].elements {
            if e < universe_size && !covered[e] {
                covered[e] = true;
                remaining -= 1;
            }
        }
    }
    Some(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn set(elements: &[usize], lower: f64, upper: f64) -> LsimSet {
        LsimSet {
            elements: elements.to_vec(),
            lower,
            upper,
        }
    }

    #[test]
    fn example_4_from_the_paper() {
        // Example 4: U = {rq1, rq2, rq3}; s1 = {rq1} with (0.28, 0.36),
        // s2 = {rq1, rq2, rq3} with (0.08, 0.15). Only s2 covers U on its own;
        // the paper assigns Lsim = 0.31 by also picking s1... With the safe
        // cross term the cover {s1, s2} scores 0.28 + 0.08 − min(0.36, 0.15) =
        // 0.21 and the cover {s2} scores 0.08; the optimiser must return a
        // valid cover with the best of those values.
        let sets = vec![set(&[0], 0.28, 0.36), set(&[0, 1, 2], 0.08, 0.15)];
        let mut rng = StdRng::seed_from_u64(1);
        let sol = tightest_lsim(3, &sets, &QpOptions::default(), &mut rng);
        assert!(covers(3, &sets, &sol.chosen), "must return a cover");
        assert!(sol.value >= 0.08 - 1e-12);
        assert!(sol.value <= 0.28 + 0.08);

        // With the paper's product cross term the combined cover scores
        // 0.28 + 0.08 − 0.36·0.15 = 0.306 ≈ the paper's 0.31.
        let paper_opts = QpOptions {
            paper_product_cross_term: true,
            ..QpOptions::default()
        };
        let sol_paper = tightest_lsim(3, &sets, &paper_opts, &mut rng);
        assert!(
            (sol_paper.value - 0.306).abs() < 0.02,
            "paper cross term should reproduce Example 4's 0.31, got {}",
            sol_paper.value
        );
    }

    #[test]
    fn uncoverable_instance_gives_zero() {
        let sets = vec![set(&[0], 0.5, 0.6)];
        let mut rng = StdRng::seed_from_u64(2);
        let sol = tightest_lsim(2, &sets, &QpOptions::default(), &mut rng);
        assert_eq!(sol.value, 0.0);
        assert!(sol.chosen.is_empty());
    }

    #[test]
    fn empty_universe_and_empty_sets() {
        let mut rng = StdRng::seed_from_u64(3);
        let sol = tightest_lsim(0, &[], &QpOptions::default(), &mut rng);
        assert_eq!(sol.value, 0.0);
        let sol = tightest_lsim(2, &[], &QpOptions::default(), &mut rng);
        assert_eq!(sol.value, 0.0);
    }

    #[test]
    fn single_strong_set_wins() {
        let sets = vec![
            set(&[0, 1], 0.9, 0.95),
            set(&[0], 0.1, 0.2),
            set(&[1], 0.1, 0.2),
        ];
        let mut rng = StdRng::seed_from_u64(4);
        let sol = tightest_lsim(2, &sets, &QpOptions::default(), &mut rng);
        assert!(sol.value >= 0.9 - 1e-9, "value {}", sol.value);
        assert!(covers(2, &sets, &sol.chosen));
    }

    #[test]
    fn lsim_value_is_never_negative() {
        let sets = vec![
            set(&[0], 0.1, 0.9),
            set(&[1], 0.1, 0.9),
            set(&[2], 0.1, 0.9),
        ];
        let value = lsim_value(&sets, &[0, 1, 2], &QpOptions::default());
        assert!(value >= 0.0);
        // Raw sum would be 0.3 − 3·0.9 < 0; the clamp keeps the bound trivial
        // but valid.
        assert_eq!(value, 0.0);
    }

    #[test]
    fn cross_term_rules_differ() {
        let a = set(&[0], 0.3, 0.5);
        let b = set(&[1], 0.3, 0.5);
        let safe = lsim_value(&[a.clone(), b.clone()], &[0, 1], &QpOptions::default());
        let paper = lsim_value(
            &[a, b],
            &[0, 1],
            &QpOptions {
                paper_product_cross_term: true,
                ..QpOptions::default()
            },
        );
        assert!((safe - (0.6 - 0.5)).abs() < 1e-12);
        assert!((paper - (0.6 - 0.25)).abs() < 1e-12);
        assert!(paper > safe);
    }

    #[test]
    fn rounding_returns_a_feasible_cover_with_positive_value() {
        let sets = vec![
            set(&[0, 1], 0.4, 0.5),
            set(&[1, 2], 0.35, 0.45),
            set(&[2, 3], 0.3, 0.4),
            set(&[0, 3], 0.25, 0.35),
        ];
        let mut rng = StdRng::seed_from_u64(5);
        let sol = tightest_lsim(4, &sets, &QpOptions::default(), &mut rng);
        assert!(covers(4, &sets, &sol.chosen));
        assert!(sol.value > 0.0);
        assert!(sol.relaxed_value.is_finite());
        // The best pairwise cover {s0, s2} scores 0.4 + 0.3 − min(0.5, 0.4) = 0.3;
        // whatever the optimiser returns must be a valid cover and can't exceed
        // the best possible single/pairwise combination by construction.
        assert!(sol.value <= 0.4 + 0.35 + 0.3 + 0.25);
    }
}
