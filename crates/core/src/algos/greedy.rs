//! **Greedy(σ)** schedules (Algorithm 3 of the paper).
//!
//! Given a task order σ, each task in turn grabs *as much of the remaining
//! machine as it can, as early as it can*: its instantaneous rate is
//! `min(δᵢ, available(t))` from `t = 0` until its volume completes, after
//! which the availability profile is updated for the next task.
//!
//! Theorem 11 proves every optimal schedule is greedy on instances with
//! homogeneous weights and `δᵢ > P/2`; Conjecture 12 (backed by the
//! paper's 10,000-instance experiment, reproduced in this repository's
//! harness) says some greedy schedule is optimal on *every* instance.
//!
//! The availability profile is one exact staircase: allocating a task is
//! a single forward walk over its pieces (O(k) for `k` pieces), and
//! neighbouring pieces merge only when their availabilities are exactly
//! equal, so no tolerance can let capacity drift between tasks.
//!
//! Generic over the scalar: the availability profile only adds, subtracts
//! and divides, so the exact instantiation reproduces the paper's symbolic
//! greedy runs (Conjecture 13 is checked through this code path).

use crate::error::ScheduleError;
use crate::instance::{Instance, TaskId};
use crate::schedule::step::{Segment, StepSchedule};
use numkit::Scalar;

/// One flat step of a capacity staircase: `height` over `[start, end)`.
/// Greedy(σ) keeps available capacity in it, integer Water-Filling
/// (`waterfill_int`) occupied capacity.
#[derive(Debug, Clone)]
pub(crate) struct Piece<S> {
    pub(crate) start: S,
    pub(crate) end: S,
    pub(crate) height: S,
}

/// Append `piece` to a contiguous staircase: an empty piece is dropped,
/// and a piece merges into its predecessor only when both heights are
/// exactly equal.
pub(crate) fn push_piece<S: Scalar>(profile: &mut Vec<Piece<S>>, piece: Piece<S>) {
    if piece.end <= piece.start {
        return;
    }
    match profile.last_mut() {
        Some(prev) if prev.height == piece.height => prev.end = piece.end,
        _ => profile.push(piece),
    }
}

/// Remaining-capacity profile: contiguous pieces of availability from
/// `t = 0`, then implicit full capacity `P` after the last one.
#[derive(Debug, Clone)]
pub struct AvailProfile<S = f64> {
    p: S,
    pieces: Vec<Piece<S>>,
}

impl<S: Scalar> AvailProfile<S> {
    /// Fresh machine: everything available.
    pub fn new(p: S) -> Self {
        AvailProfile {
            p,
            pieces: Vec::new(),
        }
    }

    /// Greedily allocate a task with cap `delta` and work `volume`:
    /// rate `min(delta, available(t))` from `t = 0` until completion.
    /// Returns the task's segments, one per piece it runs in (gaps
    /// skipped), and subtracts them from the profile in the same walk.
    pub fn allocate(&mut self, delta: S, volume: S) -> Vec<Segment<S>> {
        debug_assert!(delta.is_positive() && volume.is_positive());
        let cap = delta.min_of(self.p.clone());
        let mut segs: Vec<Segment<S>> = Vec::new();
        let mut next: Vec<Piece<S>> = Vec::with_capacity(self.pieces.len() + 2);
        let mut acc = S::zero();
        let mut done = false;
        for piece in std::mem::take(&mut self.pieces) {
            let rate = cap.clone().min_of(piece.height.clone());
            if done || !rate.is_positive() {
                push_piece(&mut next, piece); // finished, or fully busy: the task waits
                continue;
            }
            let vol_here = rate.clone() * (piece.end.clone() - piece.start.clone());
            if acc.clone() + vol_here.clone() < volume {
                acc = acc + vol_here;
                consume(&mut next, &mut segs, piece, rate);
                continue;
            }
            // Finishes inside this piece: split it at the completion (the
            // clamp only catches float rounding past the piece's end).
            let completion = (piece.start.clone() + (volume.clone() - acc.clone()) / rate.clone())
                .min_of(piece.end.clone());
            let rest = Piece {
                start: completion.clone(),
                ..piece.clone()
            };
            let end = completion;
            consume(&mut next, &mut segs, Piece { end, ..piece }, rate);
            push_piece(&mut next, rest);
            done = true;
        }
        if !done {
            // Outlives the explicit pieces: run at the cap from the horizon.
            let start = next.last().map_or_else(S::zero, |p| p.end.clone());
            let end = start.clone() + (volume - acc) / cap.clone();
            let height = self.p.clone();
            consume(&mut next, &mut segs, Piece { start, end, height }, cap);
        }
        // A trailing run at full capacity is the implicit tail.
        while next.last().is_some_and(|p| p.height == self.p) {
            next.pop();
        }
        self.pieces = next;
        segs
    }
}

/// The task runs at `rate` over `span` (whose height is the availability
/// there): record its segment and what it leaves of the span.
fn consume<S: Scalar>(
    next: &mut Vec<Piece<S>>,
    segs: &mut Vec<Segment<S>>,
    span: Piece<S>,
    rate: S,
) {
    if span.end <= span.start {
        return;
    }
    segs.push(Segment {
        start: span.start.clone(),
        end: span.end.clone(),
        procs: rate.clone(),
    });
    let height = span.height.clone() - rate;
    push_piece(next, Piece { height, ..span });
}

/// Run Greedy(σ) and return the per-task step schedule.
///
/// ```
/// use malleable_core::algos::greedy::greedy_schedule;
/// use malleable_core::instance::{Instance, TaskId};
///
/// let inst = Instance::builder(4.0)
///     .task(6.0, 1.0, 3.0)
///     .task(6.0, 1.0, 4.0)
///     .build()
///     .unwrap();
/// let s = greedy_schedule(&inst, &[TaskId(0), TaskId(1)]).unwrap();
/// // T0 runs flat-out at 3; T1 takes the leftover 1, then expands to 4.
/// assert_eq!(s.completion_times(), vec![2.0, 3.0]);
/// ```
///
/// # Errors
/// [`ScheduleError::InvalidInstance`] on malformed instances or non-permutation orders.
pub fn greedy_schedule<S: Scalar>(
    instance: &Instance<S>,
    order: &[TaskId],
) -> Result<StepSchedule<S>, ScheduleError> {
    instance.validate()?;
    // The availability profile shares *rates*, which is only sound on
    // identical/uniform machines; heterogeneous greedy is
    // `algos::related::greedy_related`.
    instance.require_uniform_machine("Greedy(σ)")?;
    if !crate::algos::orders::is_permutation(order, instance.n()) {
        return Err(ScheduleError::InvalidInstance {
            reason: format!("order is not a permutation of 0..{}", instance.n()),
        });
    }
    let mut profile = AvailProfile::new(instance.p.clone());
    let mut out = StepSchedule::empty(instance.p.clone(), instance.n());
    for &id in order {
        let t = instance.task(id);
        out.allocs[id.0] = profile.allocate(t.delta.clone(), t.volume.clone());
    }
    Ok(out)
}

/// Greedy cost `Σ wᵢCᵢ` for an order.
pub fn greedy_cost<S: Scalar>(
    instance: &Instance<S>,
    order: &[TaskId],
) -> Result<S, ScheduleError> {
    Ok(greedy_schedule(instance, order)?.weighted_completion_cost(instance))
}

/// Best greedy schedule over the standard heuristic orders
/// (Smith, δ-descending/ascending, height, weighted height, input order).
/// Returns `(label, order, cost, schedule)` of the winner.
pub fn best_heuristic_greedy<S: Scalar>(
    instance: &Instance<S>,
) -> Result<BestGreedy<S>, ScheduleError> {
    let mut best: Option<BestGreedy<S>> = None;
    for (name, order) in crate::algos::orders::heuristic_orders(instance) {
        let schedule = greedy_schedule(instance, &order)?;
        let cost = schedule.weighted_completion_cost(instance);
        if best.as_ref().is_none_or(|(_, _, c, _)| cost < *c) {
            best = Some((name, order, cost, schedule));
        }
    }
    Ok(best.expect("at least one heuristic order"))
}

/// The winner of [`best_heuristic_greedy`]: `(label, order, cost, schedule)`.
pub type BestGreedy<S> = (&'static str, Vec<TaskId>, S, StepSchedule<S>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::orders::smith_order;

    #[test]
    fn single_task_runs_flat_out() {
        let inst = Instance::builder(4.0).task(6.0, 1.0, 3.0).build().unwrap();
        let s = greedy_schedule(&inst, &[TaskId(0)]).unwrap();
        s.validate(&inst).unwrap();
        assert_eq!(s.completion_times(), vec![2.0]);
        assert_eq!(s.allocs[0].len(), 1);
        assert_eq!(s.allocs[0][0].procs, 3.0);
    }

    #[test]
    fn second_task_takes_leftovers_then_expands() {
        // P=4: T0 (δ=3, V=6) runs [0,2] at 3. T1 (δ=4, V=6): rate 1 on
        // [0,2] (leftover), then rate 4 → finishes at 2 + 4/4 = 3.
        let inst = Instance::builder(4.0)
            .task(6.0, 1.0, 3.0)
            .task(6.0, 1.0, 4.0)
            .build()
            .unwrap();
        let s = greedy_schedule(&inst, &[TaskId(0), TaskId(1)]).unwrap();
        s.validate(&inst).unwrap();
        let cs = s.completion_times();
        assert!((cs[0] - 2.0).abs() < 1e-9);
        assert!((cs[1] - 3.0).abs() < 1e-9);
        assert_eq!(s.allocs[1].len(), 2);
        assert!((s.allocs[1][0].procs - 1.0).abs() < 1e-9);
        assert!((s.allocs[1][1].procs - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fully_blocked_task_waits() {
        // P=1: T0 (δ=1) monopolizes [0,1]; T1 must wait (gap) then run.
        let inst = Instance::builder(1.0)
            .task(1.0, 1.0, 1.0)
            .task(1.0, 1.0, 1.0)
            .build()
            .unwrap();
        let s = greedy_schedule(&inst, &[TaskId(0), TaskId(1)]).unwrap();
        s.validate(&inst).unwrap();
        assert_eq!(s.completion_times(), vec![1.0, 2.0]);
        assert_eq!(s.allocs[1].len(), 1);
        assert_eq!(s.allocs[1][0].start, 1.0);
    }

    #[test]
    fn partial_block_produces_three_phases() {
        // P=2: T0 (δ=2,V=2) runs [0,1] at 2 → T1 (δ=1,V=2) waits, then
        // runs [1,3] at 1.
        let inst = Instance::builder(2.0)
            .task(2.0, 1.0, 2.0)
            .task(2.0, 1.0, 1.0)
            .build()
            .unwrap();
        let s = greedy_schedule(&inst, &[TaskId(0), TaskId(1)]).unwrap();
        let cs = s.completion_times();
        assert!((cs[1] - 3.0).abs() < 1e-9);

        // Reverse order: T1 runs [0,2] at 1; T0 gets 1 proc on [0,2]
        // (δ=2 but only 1 free)… it finishes exactly at 2.
        let s2 = greedy_schedule(&inst, &[TaskId(1), TaskId(0)]).unwrap();
        s2.validate(&inst).unwrap();
        let cs2 = s2.completion_times();
        assert!((cs2[0] - 2.0).abs() < 1e-9);
        assert!((cs2[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_matches_smith_on_uniprocessor_tasks() {
        // δᵢ = 1, P = 1: greedy(smith) = WSPT, the known optimum.
        let inst = Instance::builder(1.0)
            .task(2.0, 1.0, 1.0)
            .task(1.0, 2.0, 1.0)
            .task(1.5, 1.5, 1.0)
            .build()
            .unwrap();
        let order = smith_order(&inst);
        let cost = greedy_cost(&inst, &order).unwrap();
        // WSPT: T1 (0.5), T2 (1), T0 (2) → C = 1, 2.5, 4.5 →
        // cost = 2·1 + 1.5·2.5 + 1·4.5 = 10.25.
        assert!((cost - 10.25).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_orders() {
        let inst = Instance::builder(1.0)
            .task(1.0, 1.0, 1.0)
            .task(1.0, 1.0, 1.0)
            .build()
            .unwrap();
        assert!(greedy_schedule(&inst, &[TaskId(0)]).is_err());
        assert!(greedy_schedule(&inst, &[TaskId(0), TaskId(0)]).is_err());
    }

    #[test]
    fn best_heuristic_returns_minimum() {
        let inst = Instance::builder(2.0)
            .task(2.0, 1.0, 2.0)
            .task(2.0, 1.0, 1.0)
            .task(0.5, 3.0, 1.0)
            .build()
            .unwrap();
        let (_, order, cost, _) = best_heuristic_greedy(&inst).unwrap();
        for (_, o) in crate::algos::orders::heuristic_orders(&inst) {
            assert!(greedy_cost(&inst, &o).unwrap() >= cost - 1e-9);
        }
        assert!(crate::algos::orders::is_permutation(&order, 3));
    }

    #[test]
    fn profile_bookkeeping_stays_consistent() {
        // Drive the profile through several allocations and verify
        // availability never goes negative and schedule stays valid.
        let inst = Instance::builder(3.0)
            .tasks([
                (2.0, 1.0, 2.0),
                (1.0, 1.0, 3.0),
                (4.0, 1.0, 1.0),
                (1.5, 1.0, 2.0),
                (0.7, 1.0, 3.0),
            ])
            .build()
            .unwrap();
        let order: Vec<TaskId> = (0..5).map(TaskId).collect();
        let s = greedy_schedule(&inst, &order).unwrap();
        s.validate(&inst).unwrap();
    }

    #[test]
    fn profile_is_an_exact_staircase() {
        // After every task: contiguous non-empty pieces from 0, no two
        // equal neighbours, and no trailing full-capacity piece.
        use bigratio::Rational;
        let q = Rational::from_f64_exact;
        let mut profile = AvailProfile::new(q(3.0));
        for (v, d) in [(2.0, 2.0), (1.0, 3.0), (4.0, 1.0), (1.5, 2.0), (0.5, 1.0)] {
            profile.allocate(q(d), q(v));
            let pieces = &profile.pieces;
            assert!(pieces.first().is_none_or(|p| p.start == q(0.0)));
            assert!(pieces.iter().all(|p| p.start < p.end));
            assert!(pieces
                .windows(2)
                .all(|w| w[0].end == w[1].start && w[0].height != w[1].height));
            assert!(pieces.last().is_none_or(|p| p.height != q(3.0)));
        }
    }

    #[test]
    fn greedy_produces_integer_rates_on_integer_instances() {
        // Availability is always P minus a sum of caps/availabilities that
        // started integral, so every rate stays integral (the paper notes
        // Greedy solves MWCT directly on integer instances).
        let inst = Instance::builder(5.0)
            .tasks([(3.0, 1.0, 2.0), (4.0, 1.0, 3.0), (2.0, 1.0, 4.0)])
            .build()
            .unwrap();
        let s = greedy_schedule(&inst, &[TaskId(0), TaskId(1), TaskId(2)]).unwrap();
        for segs in &s.allocs {
            for seg in segs {
                assert!((seg.procs - seg.procs.round()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn exact_greedy_runs_exactly() {
        use bigratio::Rational;
        let q = Rational::from_f64_exact;
        // Same fixture as `second_task_takes_leftovers_then_expands`.
        let inst = Instance::<Rational>::builder(q(4.0))
            .task(q(6.0), q(1.0), q(3.0))
            .task(q(6.0), q(1.0), q(4.0))
            .build()
            .unwrap();
        let s = greedy_schedule(&inst, &[TaskId(0), TaskId(1)]).unwrap();
        s.validate(&inst).unwrap(); // zero tolerance
        assert_eq!(s.completion_times(), vec![q(2.0), q(3.0)]);
        assert_eq!(s.allocs[1][0].procs, q(1.0));
        assert_eq!(s.allocs[1][1].procs, q(4.0));
    }
}
