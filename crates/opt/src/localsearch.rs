//! Local search over greedy orders — the practical face of Conjecture 12.
//!
//! If (as conjectured, and as every experiment here confirms) some greedy
//! order is optimal, then *searching order space* is a complete algorithm
//! in disguise; exhaustive search dies at n ≈ 8, so production use needs a
//! heuristic walker. This module implements first-improvement local search
//! over pairwise swaps, seeded from Smith's order — on the paper's
//! instance classes it recovers the exhaustive best-greedy cost almost
//! always (tested below), at O(rounds·n²) greedy evaluations instead of
//! n!.

use malleable_core::algos::greedy::greedy_cost;
use malleable_core::algos::orders::smith_order;
use malleable_core::instance::{Instance, TaskId};
use malleable_core::ScheduleError;

/// Outcome of a local search run.
#[derive(Debug, Clone)]
pub struct LocalSearchResult {
    /// Best order found.
    pub order: Vec<TaskId>,
    /// Its greedy cost.
    pub cost: f64,
    /// Number of improving swaps applied.
    pub improvements: usize,
    /// `true` iff the search stopped at a local optimum (no improving swap
    /// exists), as opposed to hitting the round cap.
    pub converged: bool,
}

/// First-improvement local search over pairwise swaps, starting from
/// `start`. One *round* scans all `n(n−1)/2` pairs; the search stops when
/// a full round finds no improvement or after `max_rounds`.
///
/// # Errors
/// Propagates greedy failures (malformed instance / order).
pub fn local_search_order(
    instance: &Instance,
    start: &[TaskId],
    max_rounds: usize,
) -> Result<LocalSearchResult, ScheduleError> {
    let mut order = start.to_vec();
    let mut cost = greedy_cost(instance, &order)?;
    let n = order.len();
    let mut improvements = 0usize;
    let mut converged = false;
    let eps = 1e-12;

    for _ in 0..max_rounds {
        let mut improved = false;
        for i in 0..n {
            for j in (i + 1)..n {
                order.swap(i, j);
                let c = greedy_cost(instance, &order)?;
                if c < cost * (1.0 - eps) - eps {
                    cost = c;
                    improved = true;
                    improvements += 1;
                } else {
                    order.swap(i, j); // revert
                }
            }
        }
        if !improved {
            converged = true;
            break;
        }
    }
    Ok(LocalSearchResult {
        order,
        cost,
        improvements,
        converged,
    })
}

/// Convenience: local search from Smith's order (the natural seed — it is
/// already optimal when caps never bind).
///
/// # Errors
/// Propagates greedy failures.
pub fn smith_plus_local_search(
    instance: &Instance,
    max_rounds: usize,
) -> Result<LocalSearchResult, ScheduleError> {
    local_search_order(instance, &smith_order(instance), max_rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::best_greedy_exhaustive;
    use malleable_workloads::{generate, seed_batch, Spec};

    #[test]
    fn never_worse_than_its_seed() {
        for seed in seed_batch(0x15 + 5, 10) {
            let inst = generate(&Spec::PaperUniform { n: 8 }, seed);
            let seed_cost = greedy_cost(&inst, &smith_order(&inst)).unwrap();
            let r = smith_plus_local_search(&inst, 10).unwrap();
            assert!(r.cost <= seed_cost + 1e-9);
            assert!(r.converged);
        }
    }

    #[test]
    fn recovers_exhaustive_best_greedy_on_small_instances() {
        let mut hits = 0;
        let total = 20;
        for seed in seed_batch(515, total) {
            let inst = generate(&Spec::PaperUniform { n: 5 }, seed);
            let (best, _) = best_greedy_exhaustive(&inst).unwrap();
            let r = smith_plus_local_search(&inst, 10).unwrap();
            assert!(r.cost >= best - 1e-9, "cannot beat the exhaustive best");
            if r.cost <= best * (1.0 + 1e-6) {
                hits += 1;
            }
        }
        // Pairwise swaps reach the global greedy optimum on the vast
        // majority of small uniform instances.
        assert!(hits >= total * 8 / 10, "only {hits}/{total} recovered");
    }

    #[test]
    fn scales_to_sizes_exhaustive_cannot_touch() {
        let inst = generate(&Spec::PaperUniform { n: 40 }, 3);
        let r = smith_plus_local_search(&inst, 3).unwrap();
        assert!(r.cost > 0.0);
        // Must at least match the best structural heuristic.
        let (_, _, heuristic, _) =
            malleable_core::algos::greedy::best_heuristic_greedy(&inst).unwrap();
        assert!(r.cost <= heuristic + 1e-9);
    }

    #[test]
    fn round_cap_respected() {
        let inst = generate(&Spec::PaperUniform { n: 12 }, 9);
        let r = local_search_order(&inst, &smith_order(&inst), 0).unwrap();
        assert_eq!(r.improvements, 0);
        assert!(!r.converged);
    }
}
