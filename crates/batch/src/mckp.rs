//! Multiple-choice knapsack selection — phase 2 of the VO scheduling cycle.
//!
//! After phase 1 has allocated a set of alternatives per batch job, the
//! metascheduler picks **exactly one alternative per job** so that the
//! summed value is maximal while the summed cost stays within the VO's
//! budget for the cycle — a multiple-choice knapsack problem (MCKP),
//! solved here by dynamic programming over discretised budget units. This
//! is the combination-selection step of the composite scheduling scheme the
//! paper builds on (its refs [6, 7]).

use slotsel_core::money::Money;

/// One selectable item: an alternative's cost and its value under the
/// active batch objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MckpItem {
    /// Allocation cost of the alternative.
    pub cost: Money,
    /// Value of choosing it (higher is better).
    pub value: f64,
}

/// The solver's budget discretisation: one DP cell per this many
/// milli-credits. Finer costs are rounded **up**, so the returned selection
/// never exceeds the real budget.
const UNIT_MILLIS: i64 = 1_000;

/// The largest DP table [`solve`] builds, in cells (`classes × (budget
/// units + 1)`). The choice table holds one `usize` per cell, so this
/// bounds the solver's memory at 128 MiB (plus two `f64` rows of the table
/// width). Every instance in the repository's benchmark (≤100 classes ×
/// ~22k units ≈ 2.2M cells) stays well below it and is solved exactly.
/// Above it — one request with an enormous budget is enough — `solve`
/// refuses and the scheduler falls back to [`solve_greedy`].
pub const MAX_DP_CELLS: usize = 1 << 24;

/// An MCKP solution: for each class the index of the chosen item.
#[derive(Debug, Clone, PartialEq)]
pub struct MckpSolution {
    /// Chosen item index per class, parallel to the input.
    pub chosen: Vec<usize>,
    /// Total value of the selection.
    pub value: f64,
    /// Total (exact, undiscretised) cost of the selection.
    pub cost: Money,
}

/// Solves the MCKP: pick exactly one item per class, maximising total value
/// under the budget.
///
/// Returns `None` when some class is empty, no combination fits the
/// budget, or the DP table would exceed [`MAX_DP_CELLS`]. Complexity is
/// `O(total_items × budget_units)`.
///
/// # Panics
///
/// Panics if any item has a negative cost or a non-finite value.
#[must_use]
pub fn solve(classes: &[Vec<MckpItem>], budget: Money) -> Option<MckpSolution> {
    if classes.is_empty() {
        return Some(MckpSolution {
            chosen: Vec::new(),
            value: 0.0,
            cost: Money::ZERO,
        });
    }
    if classes.iter().any(Vec::is_empty) || budget.is_negative() {
        return None;
    }
    for item in classes.iter().flatten() {
        assert!(!item.cost.is_negative(), "negative item cost {}", item.cost);
        assert!(
            item.value.is_finite(),
            "non-finite item value {}",
            item.value
        );
    }

    let units = (budget.millis() / UNIT_MILLIS).max(0) as usize;
    let width = units + 1;
    if width.saturating_mul(classes.len()) > MAX_DP_CELLS {
        return None;
    }
    // Round costs up so discretised feasibility implies real feasibility.
    // Costs are validated non-negative above, so plain ceiling division.
    let unit_cost = |cost: Money| -> usize {
        ((cost.millis() + UNIT_MILLIS - 1) / UNIT_MILLIS).max(0) as usize
    };

    // dp[u] = best value using budget u; choice[class][u] = item chosen.
    let mut dp: Vec<f64> = vec![f64::NEG_INFINITY; width];
    dp[0] = 0.0;
    let mut choices: Vec<Vec<usize>> = Vec::with_capacity(classes.len());

    for class in classes {
        let mut next: Vec<f64> = vec![f64::NEG_INFINITY; width];
        let mut choice: Vec<usize> = vec![usize::MAX; width];
        for (item_index, item) in class.iter().enumerate() {
            let c = unit_cost(item.cost);
            if c > units {
                continue;
            }
            for u in c..width {
                let base = dp[u - c];
                if base == f64::NEG_INFINITY {
                    continue;
                }
                let value = base + item.value;
                if value > next[u] {
                    next[u] = value;
                    choice[u] = item_index;
                }
            }
        }
        dp = next;
        choices.push(choice);
    }

    // Best reachable cell.
    let (mut unit, best_value) = dp
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v != f64::NEG_INFINITY)
        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(u, &v)| (u, v))?;

    // Backtrack.
    let mut chosen = vec![0usize; classes.len()];
    for (class_index, class) in classes.iter().enumerate().rev() {
        let item_index = choices[class_index][unit];
        debug_assert_ne!(item_index, usize::MAX, "reachable cell must have a choice");
        chosen[class_index] = item_index;
        unit -= unit_cost(class[item_index].cost);
    }

    let cost: Money = chosen
        .iter()
        .zip(classes)
        .map(|(&i, class)| class[i].cost)
        .sum();
    Some(MckpSolution {
        chosen,
        value: best_value,
        cost,
    })
}

/// Greedy fallback: per class, the best-value item that still fits the
/// remaining budget, classes in input order. Linear, not optimal; used when
/// the budget is too large for the DP table or no global budget applies.
#[must_use]
pub fn solve_greedy(classes: &[Vec<MckpItem>], budget: Money) -> Option<MckpSolution> {
    let mut remaining = budget;
    let mut chosen = Vec::with_capacity(classes.len());
    let mut value = 0.0;
    for class in classes {
        let best = class
            .iter()
            .enumerate()
            .filter(|(_, item)| item.cost <= remaining)
            .max_by(|a, b| a.1.value.total_cmp(&b.1.value).then(b.0.cmp(&a.0)))?;
        remaining -= best.1.cost;
        value += best.1.value;
        chosen.push(best.0);
    }
    Some(MckpSolution {
        chosen,
        value,
        cost: budget - remaining,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(cost: i64, value: f64) -> MckpItem {
        MckpItem {
            cost: Money::from_units(cost),
            value,
        }
    }

    #[test]
    fn picks_best_combination_under_budget() {
        let classes = vec![
            vec![item(10, 5.0), item(5, 3.0)],
            vec![item(8, 6.0), item(2, 1.0)],
        ];
        // Budget 15: {5,8} value 9 beats {10,2} value 6 and {5,2} value 4.
        let s = solve(&classes, Money::from_units(15)).unwrap();
        assert_eq!(s.chosen, vec![1, 0]);
        assert_eq!(s.value, 9.0);
        assert_eq!(s.cost, Money::from_units(13));
    }

    #[test]
    fn unconstrained_budget_takes_best_values() {
        let classes = vec![
            vec![item(10, 5.0), item(5, 3.0)],
            vec![item(8, 6.0), item(2, 1.0)],
        ];
        let s = solve(&classes, Money::from_units(1_000)).unwrap();
        assert_eq!(s.value, 11.0);
        assert_eq!(s.cost, Money::from_units(18));
    }

    #[test]
    fn refuses_a_table_above_the_cell_cap() {
        let classes = vec![vec![item(10, 5.0), item(5, 3.0)], vec![item(8, 6.0)]];
        // Two classes × (2^23 units + 1) is one row over the cap.
        let units = (MAX_DP_CELLS / 2) as i64;
        assert!(solve(&classes, Money::from_units(units)).is_none());
        // A trillion-credit budget returns at once, without allocating.
        let huge = Money::from_units(1_000_000_000_000);
        assert!(solve(&classes, huge).is_none());
        assert!(solve_greedy(&classes, huge).is_some());
    }

    #[test]
    fn infeasible_when_cheapest_combination_exceeds_budget() {
        let classes = vec![vec![item(10, 1.0)], vec![item(10, 1.0)]];
        assert!(solve(&classes, Money::from_units(19)).is_none());
        assert!(solve(&classes, Money::from_units(20)).is_some());
    }

    #[test]
    fn empty_class_is_infeasible() {
        let classes = vec![vec![item(1, 1.0)], vec![]];
        assert!(solve(&classes, Money::from_units(100)).is_none());
    }

    #[test]
    fn no_classes_is_trivially_solved() {
        let s = solve(&[], Money::ZERO).unwrap();
        assert!(s.chosen.is_empty());
        assert_eq!(s.cost, Money::ZERO);
    }

    #[test]
    fn fractional_costs_round_up_safely() {
        // Item costs 1.5, budget 2.9: discretised cost 2 units, budget 2
        // units — chosen, and the true cost 1.5 <= 2.9.
        let classes = vec![vec![MckpItem {
            cost: Money::from_f64(1.5),
            value: 1.0,
        }]];
        let s = solve(&classes, Money::from_f64(2.9)).unwrap();
        assert_eq!(s.cost, Money::from_f64(1.5));
        // Budget 1.9: discretised budget 1 unit < rounded cost 2 — rejected
        // even though the true cost would fit; conservative by design.
        assert!(solve(&classes, Money::from_f64(1.9)).is_none());
    }

    #[test]
    fn negative_values_are_allowed() {
        // Minimisation objectives encode as negated values.
        let classes = vec![vec![item(1, -5.0), item(2, -1.0)]];
        let s = solve(&classes, Money::from_units(10)).unwrap();
        assert_eq!(s.chosen, vec![1], "less negative = better");
    }

    #[test]
    fn ties_prefer_cheaper_cells() {
        let classes = vec![vec![item(10, 1.0), item(2, 1.0)]];
        let s = solve(&classes, Money::from_units(20)).unwrap();
        assert_eq!(s.chosen, vec![1], "equal value, cheaper item wins");
    }

    #[test]
    fn greedy_is_feasible_but_may_be_suboptimal() {
        let classes = vec![
            vec![item(10, 5.0), item(5, 3.0)],
            vec![item(8, 6.0), item(2, 1.0)],
        ];
        let budget = Money::from_units(15);
        let greedy = solve_greedy(&classes, budget).unwrap();
        let exact = solve(&classes, budget).unwrap();
        assert!(greedy.cost <= budget);
        assert!(greedy.value <= exact.value);
        // Here greedy grabs value 5 first, leaving only the value-1 item.
        assert_eq!(greedy.value, 6.0);
    }

    #[test]
    fn greedy_none_when_class_unaffordable() {
        let classes = vec![vec![item(10, 5.0)], vec![item(10, 5.0)]];
        assert!(solve_greedy(&classes, Money::from_units(15)).is_none());
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use slotsel_core::rng::SplitMix64;
        let mut rng = SplitMix64::new(321);
        for case in 0..30 {
            let class_count = 1 + rng.next_below(3) as usize;
            let classes: Vec<Vec<MckpItem>> = (0..class_count)
                .map(|_| {
                    (0..1 + rng.next_below(4))
                        .map(|_| item(1 + rng.next_below(12) as i64, rng.next_below(20) as f64))
                        .collect()
                })
                .collect();
            let budget = Money::from_units(5 + rng.next_below(25) as i64);

            // Brute force.
            let mut best: Option<f64> = None;
            let mut stack: Vec<(usize, Money, f64)> = vec![(0, Money::ZERO, 0.0)];
            while let Some((class, cost, value)) = stack.pop() {
                if class == classes.len() {
                    if cost <= budget && best.is_none_or(|b| value > b) {
                        best = Some(value);
                    }
                    continue;
                }
                for it in &classes[class] {
                    stack.push((class + 1, cost + it.cost, value + it.value));
                }
            }

            let solved = solve(&classes, budget);
            match (best, solved) {
                (Some(b), Some(s)) => assert_eq!(s.value, b, "case {case}"),
                (None, None) => {}
                (b, s) => panic!("case {case}: {b:?} vs {s:?}"),
            }
        }
    }
}
