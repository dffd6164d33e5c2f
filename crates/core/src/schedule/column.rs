//! Column-based fractional schedules (`MWCT-CB-F`, Definition 2).
//!
//! A *column* is the time slice between two consecutive task completions;
//! within a column every task holds a constant fractional number of
//! processors. Columns are the normal currency of the paper: the LP of
//! Corollary 1 optimizes over them, Water-Filling produces them, and
//! Theorem 3 converts them to per-processor schedules.
//!
//! Generic over the scalar field: `ColumnSchedule<f64>` validates with the
//! float tolerance, `ColumnSchedule<Rational>` with **zero** tolerance —
//! exact schedules must satisfy Definition 2 exactly.

use crate::error::ScheduleError;
use crate::instance::{Instance, TaskId};
use numkit::{Scalar, Tolerance};
use std::fmt;

/// One column: the interval `[start, end]` and the constant rates held by
/// each task inside it. Tasks absent from `rates` hold zero processors.
#[derive(Debug, Clone, PartialEq)]
pub struct Column<S = f64> {
    /// Column start time.
    pub start: S,
    /// Column end time (`end ≥ start`; zero-length columns arise from tied
    /// completion times and are legal).
    pub end: S,
    /// `(task, processors)` pairs with strictly positive rates.
    pub rates: Vec<(TaskId, S)>,
}

impl<S: Scalar> Column<S> {
    /// Column duration `l = end − start`.
    pub fn len(&self) -> S {
        self.end.clone() - self.start.clone()
    }

    /// `true` iff the column has zero duration.
    pub fn is_empty(&self) -> bool {
        !self.len().is_positive()
    }

    /// Rate held by `task` in this column (zero when absent).
    pub fn rate_of(&self, task: TaskId) -> S {
        self.rates
            .iter()
            .find(|(t, _)| *t == task)
            .map_or(S::zero(), |(_, r)| r.clone())
    }

    /// Total processors in use.
    pub fn total_rate(&self) -> S {
        S::sum(self.rates.iter().map(|(_, r)| r.clone()))
    }
}

/// A complete column-based fractional schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSchedule<S = f64> {
    /// Machine capacity the schedule was built for.
    pub p: S,
    /// Completion time of each task, indexed by [`TaskId`].
    pub completions: Vec<S>,
    /// Columns in time order, contiguous from `t = 0`.
    pub columns: Vec<Column<S>>,
}

impl<S: Scalar> ColumnSchedule<S> {
    /// Completion times indexed by task.
    pub fn completion_times(&self) -> &[S] {
        &self.completions
    }

    /// Completion time of one task.
    ///
    /// # Panics
    /// Panics if `task` is out of range.
    pub fn completion(&self, task: TaskId) -> S {
        self.completions[task.0].clone()
    }

    /// Schedule makespan `max Cᵢ`.
    pub fn makespan(&self) -> S {
        self.completions.iter().cloned().fold(S::zero(), S::max_of)
    }

    /// The paper's objective `Σ wᵢCᵢ`.
    ///
    /// # Panics
    /// Panics when the instance task count differs from the schedule's
    /// (callers pair schedules with the instance that produced them).
    pub fn weighted_completion_cost(&self, instance: &Instance<S>) -> S {
        assert_eq!(
            instance.n(),
            self.completions.len(),
            "instance/schedule task count mismatch"
        );
        S::sum(
            instance
                .iter()
                .map(|(id, t)| t.weight.clone() * self.completions[id.0].clone()),
        )
    }

    /// Unweighted sum of completion times `Σ Cᵢ`.
    pub fn total_completion_time(&self) -> S {
        S::sum(self.completions.iter().cloned())
    }

    /// Task completion order (earliest first, ties by id).
    pub fn completion_order(&self) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = (0..self.completions.len()).map(TaskId).collect();
        ids.sort_by(|a, b| {
            self.completions[a.0]
                .total_cmp_s(&self.completions[b.0])
                .then(a.0.cmp(&b.0))
        });
        ids
    }

    /// Area allocated to `task` across all columns.
    pub fn allocated_area(&self, task: TaskId) -> S {
        S::sum(self.columns.iter().filter_map(|c| {
            let r = c.rate_of(task);
            if r.is_positive() {
                Some(r * c.len())
            } else {
                None
            }
        }))
    }

    /// Validate with the scalar's natural tolerance scaled by schedule size
    /// (a no-op scaling for exact scalars, whose tolerance is zero).
    pub fn validate(&self, instance: &Instance<S>) -> Result<(), ScheduleError> {
        let scale = 1.0 + self.columns.len() as f64;
        self.validate_with(instance, S::default_tolerance().scaled(scale))
    }

    /// Full validity check against Definition 2:
    ///
    /// 1. columns are contiguous from `t = 0` with non-negative lengths;
    /// 2. every rate is in `[0, min(δᵢ, P)]`, and no column lists a task
    ///    twice ([`ScheduleError::DuplicateTask`]);
    /// 3. per column, `Σᵢ dᵢ,ⱼ ≤ P` (and, on heterogeneous machines, the
    ///    rates lie in the capacity oracle's polymatroid);
    /// 4. per task, `Σⱼ dᵢ,ⱼ·lⱼ = Vᵢ`;
    /// 5. no allocation after the recorded completion time, and the last
    ///    allocation reaches it;
    /// 6. when the instance carries arrival times, no allocation before
    ///    the task's release.
    ///
    /// One forward pass over the columns: O(Σⱼ |ratesⱼ| + n) time plus the
    /// per-column polymatroid check on heterogeneous machines, and O(n)
    /// extra memory. Each task's area is accumulated in column order with
    /// the same compensated summation as [`Scalar::sum`], so it is
    /// bit-identical to [`ColumnSchedule::allocated_area`]. Column-local
    /// checks fail at the first offending column; volumes, then
    /// completions, are checked after the pass in task order.
    pub fn validate_with(
        &self,
        instance: &Instance<S>,
        tol: Tolerance<S>,
    ) -> Result<(), ScheduleError> {
        let mut sp = malleable_trace::span("schedule.validate");
        if sp.is_live() {
            sp.arg("columns", self.columns.len() as u64);
            let entries: usize = self.columns.iter().map(|c| c.rates.len()).sum();
            sp.arg("entries", entries as u64);
        }
        let n = instance.n();
        if self.completions.len() != n {
            return Err(ScheduleError::LengthMismatch {
                what: "completion times",
                expected: n,
                found: self.completions.len(),
            });
        }
        for c in &self.completions {
            if !c.is_finite() || c.is_negative() {
                return Err(ScheduleError::InvalidTime {
                    value: c.to_f64(),
                    context: "completion times",
                });
            }
        }
        let caps: Vec<S> = (0..n)
            .map(|i| instance.effective_delta(TaskId(i)))
            .collect();
        let arrivals = instance.has_arrivals();
        // `Scalar::sum` compensates for the approximate scalar (`f64`, the
        // one with a nonzero natural tolerance) and folds exact fields.
        let compensated = !S::default_tolerance().is_exact();
        let mut acc = vec![TaskAcc::<S>::new(); n];
        let mut prev_end = S::zero();
        for (j, col) in self.columns.iter().enumerate() {
            if !tol.eq(col.start.clone(), prev_end.clone()) {
                return Err(ScheduleError::InvalidTime {
                    value: col.start.to_f64(),
                    context: "column start (not contiguous)",
                });
            }
            if tol.lt(col.end.clone(), col.start.clone()) {
                return Err(ScheduleError::InvalidTime {
                    value: col.end.to_f64(),
                    context: "column end before start",
                });
            }
            prev_end = col.end.clone();
            let len = col.len();
            // Allocations in zero-length (tied-completion) columns carry no
            // area and may sit on either side of a completion or release.
            let long = len > tol.abs;
            let late_slack = tol.slack(col.start.clone(), S::zero());

            for (task, rate) in &col.rates {
                if task.0 >= n {
                    return Err(ScheduleError::LengthMismatch {
                        what: "task id in column",
                        expected: n,
                        found: task.0,
                    });
                }
                let a = &mut acc[task.0];
                if a.seen_in == j + 1 {
                    return Err(ScheduleError::DuplicateTask {
                        task: *task,
                        at: col.start.to_f64(),
                    });
                }
                a.seen_in = j + 1;
                let cap = &caps[task.0];
                if *rate < -tol.abs.clone() || !tol.le(rate.clone(), cap.clone()) {
                    return Err(ScheduleError::DeltaExceeded {
                        task: *task,
                        at: col.start.to_f64(),
                        rate: rate.to_f64(),
                        delta: cap.to_f64(),
                    });
                }
                let completion = &self.completions[task.0];
                if long && *rate > tol.abs {
                    // Allocation strictly after the task's completion time.
                    if col.start > completion.clone() + late_slack.clone() {
                        return Err(ScheduleError::AllocationAfterCompletion {
                            task: *task,
                            completion: completion.to_f64(),
                            at: col.start.to_f64(),
                        });
                    }
                    // Allocation strictly before the task's release time.
                    if arrivals {
                        let release = instance.arrival(*task);
                        if release.is_positive() && !tol.ge(col.start.clone(), release.clone()) {
                            return Err(ScheduleError::AllocationBeforeArrival {
                                task: *task,
                                arrival: release.to_f64(),
                                at: col.start.to_f64(),
                            });
                        }
                    }
                }
                // Any positive rate in a column of positive length that
                // starts before the completion ends some of the task's
                // work, however small: a task may run below `abs`
                // throughout, or finish in a sliver column shorter than
                // `abs`. A rate at or below `abs` after the completion is
                // noise, neither rejected nor recorded.
                if (long && *rate > tol.abs)
                    || (rate.is_positive() && len.is_positive() && col.start < *completion)
                {
                    a.last_end = a.last_end.clone().max_of(col.end.clone());
                }
                if rate.is_positive() {
                    a.area.add(rate.clone() * len.clone(), compensated);
                }
            }
            // Compensated for f64 (see Scalar::sum), exact for exact fields.
            let total = S::sum(col.rates.iter().map(|(_, r)| r.clone()));
            if !tol.le(total.clone(), self.p.clone()) {
                return Err(ScheduleError::CapacityExceeded {
                    at: col.start.to_f64(),
                    total: total.to_f64(),
                    p: self.p.to_f64(),
                });
            }
            // On heterogeneous machines, per-task caps plus the total are
            // necessary but not sufficient: the rates must lie in the
            // capacity oracle's polymatroid (e.g. two δ = 1 tasks on
            // speeds (2, 1, 1) cannot both run at rate 2; two tasks
            // eligible only on machine 0 cannot share more than rate 1).
            // A single-interval flow decides it — exactly, for exact
            // scalars. Restricted assignment carries task identities into
            // the check; level-decomposable models are identity-blind.
            if !instance.machine.uniform() && long && total.is_positive() {
                if instance.machine.restriction().is_some() {
                    let entries: Vec<(usize, S, S)> = col
                        .rates
                        .iter()
                        .map(|(t, r)| (t.0, instance.task(*t).delta.clone(), r.clone()))
                        .collect();
                    if !instance.machine.rates_feasible_assign(&entries, &tol) {
                        let demands: Vec<(usize, S)> = col
                            .rates
                            .iter()
                            .map(|(t, r)| (t.0, r.clone().max_of(S::zero())))
                            .collect();
                        let routable = instance.machine.restricted_rank(&demands);
                        return Err(ScheduleError::EligibilityExceeded {
                            at: col.start.to_f64(),
                            total: total.to_f64(),
                            routable: routable.to_f64(),
                        });
                    }
                } else {
                    let entries: Vec<(S, S)> = col
                        .rates
                        .iter()
                        .map(|(t, r)| (instance.task(*t).delta.clone(), r.clone()))
                        .collect();
                    if !instance.machine.rates_feasible(&entries, &tol) {
                        return Err(ScheduleError::SpeedProfileExceeded {
                            at: col.start.to_f64(),
                            total: total.to_f64(),
                            capacity: self.p.to_f64(),
                        });
                    }
                }
            }
        }
        for ((id, t), a) in instance.iter().zip(&acc) {
            let area = a.area.value(compensated);
            if !tol.eq(area.clone(), t.volume.clone()) {
                return Err(ScheduleError::VolumeMismatch {
                    task: id,
                    allocated: area.to_f64(),
                    required: t.volume.to_f64(),
                });
            }
        }
        // Completion must coincide with the end of the last column that
        // carries the task's work: a positive rate in a column longer than
        // `abs`, or in any column of positive length that starts before the
        // completion.
        for ((i, c), a) in self.completions.iter().enumerate().zip(&acc) {
            if !tol.eq(a.last_end.clone(), c.clone()) {
                return Err(ScheduleError::AllocationAfterCompletion {
                    task: TaskId(i),
                    completion: c.to_f64(),
                    at: a.last_end.to_f64(),
                });
            }
        }
        Ok(())
    }
}

/// Per-task state of the validation pass.
#[derive(Clone)]
struct TaskAcc<S> {
    /// Area allocated so far, in column order.
    area: AreaSum<S>,
    /// End of the last column so far that carries the task's work (see
    /// the completion check of `validate_with`).
    last_end: S,
    /// `j + 1` for the last column `j` that listed the task (0 = none).
    seen_in: usize,
}

impl<S: Scalar> TaskAcc<S> {
    fn new() -> Self {
        TaskAcc {
            area: AreaSum {
                sum: S::zero(),
                comp: S::zero(),
            },
            last_end: S::zero(),
            seen_in: 0,
        }
    }
}

/// Incremental twin of [`Scalar::sum`]: Neumaier-compensated (the `f64`
/// override, [`numkit::KahanSum`]) when `compensated`, a plain fold from
/// zero (the exact fields' default) otherwise. Fed the same terms in the
/// same order, it returns the same bits.
#[derive(Clone)]
struct AreaSum<S> {
    sum: S,
    comp: S,
}

impl<S: Scalar> AreaSum<S> {
    #[inline]
    fn add(&mut self, x: S, compensated: bool) {
        let t = self.sum.clone() + x.clone();
        if compensated {
            let c = if self.sum.abs() >= x.abs() {
                (self.sum.clone() - t.clone()) + x
            } else {
                (x - t.clone()) + self.sum.clone()
            };
            self.comp = self.comp.clone() + c;
        }
        self.sum = t;
    }

    fn value(&self, compensated: bool) -> S {
        if compensated {
            self.sum.clone() + self.comp.clone()
        } else {
            self.sum.clone()
        }
    }
}

impl<S: Scalar> fmt::Display for ColumnSchedule<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ColumnSchedule (P = {}, {} columns, makespan = {:.4})",
            self.p.to_f64(),
            self.columns.len(),
            self.makespan().to_f64()
        )?;
        for (j, c) in self.columns.iter().enumerate() {
            write!(
                f,
                "  col {j}: [{:.4}, {:.4}]",
                c.start.to_f64(),
                c.end.to_f64()
            )?;
            for (t, r) in &c.rates {
                write!(f, "  {t}:{:.3}", r.to_f64())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;

    fn inst() -> Instance {
        // P = 2; two tasks.
        Instance::builder(2.0)
            .task(2.0, 1.0, 1.0) // T0: V=2, δ=1
            .task(2.0, 1.0, 2.0) // T1: V=2, δ=2
            .build()
            .unwrap()
    }

    /// T0 at rate 1 over [0,2]; T1 at rate 1 over [0,2]. Both complete at 2.
    fn valid_schedule() -> ColumnSchedule {
        ColumnSchedule {
            p: 2.0,
            completions: vec![2.0, 2.0],
            columns: vec![Column {
                start: 0.0,
                end: 2.0,
                rates: vec![(TaskId(0), 1.0), (TaskId(1), 1.0)],
            }],
        }
    }

    #[test]
    fn accessors() {
        let s = valid_schedule();
        assert_eq!(s.makespan(), 2.0);
        assert_eq!(s.completion(TaskId(1)), 2.0);
        assert_eq!(s.total_completion_time(), 4.0);
        assert_eq!(s.weighted_completion_cost(&inst()), 4.0);
        assert_eq!(s.allocated_area(TaskId(0)), 2.0);
        assert_eq!(s.completion_order(), vec![TaskId(0), TaskId(1)]);
        assert_eq!(s.columns[0].rate_of(TaskId(7)), 0.0);
        assert_eq!(s.columns[0].total_rate(), 2.0);
        assert!(!s.columns[0].is_empty());
    }

    #[test]
    fn valid_schedule_passes() {
        valid_schedule().validate(&inst()).unwrap();
    }

    #[test]
    fn delta_violation_detected() {
        let mut s = valid_schedule();
        s.columns[0].rates[0].1 = 1.5; // T0 has δ = 1
        match s.validate(&inst()) {
            Err(ScheduleError::DeltaExceeded { task, .. }) => assert_eq!(task, TaskId(0)),
            other => panic!("expected DeltaExceeded, got {other:?}"),
        }
    }

    #[test]
    fn capacity_violation_detected() {
        let mut s = valid_schedule();
        s.columns[0].rates[1].1 = 2.0; // total 3 > P = 2 (δ1 = 2 is fine)
        match s.validate(&inst()) {
            Err(ScheduleError::CapacityExceeded { .. }) => {}
            other => panic!("expected CapacityExceeded, got {other:?}"),
        }
    }

    #[test]
    fn volume_mismatch_detected() {
        let mut s = valid_schedule();
        s.columns[0].end = 1.5; // areas now 1.5 ≠ 2
        s.completions = vec![1.5, 1.5];
        match s.validate(&inst()) {
            Err(ScheduleError::VolumeMismatch { task, .. }) => assert_eq!(task, TaskId(0)),
            other => panic!("expected VolumeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn allocation_after_completion_detected() {
        let mut s = valid_schedule();
        s.completions[0] = 1.0; // claims T0 completes at 1 but it runs to 2
        match s.validate(&inst()) {
            Err(ScheduleError::AllocationAfterCompletion { task, .. }) => {
                assert_eq!(task, TaskId(0))
            }
            other => panic!("expected AllocationAfterCompletion, got {other:?}"),
        }
    }

    #[test]
    fn sliver_column_carrying_a_whole_task_validates() {
        // P = 1: T0 runs [0, 1]; T1 (V = 10⁻¹³) runs alone in a column
        // far shorter than the tolerance's `abs`.
        let inst = Instance::builder(1.0)
            .task(1.0, 1.0, 1.0)
            .task(1e-13, 1.0, 1.0)
            .build()
            .unwrap();
        let c = 1.0 + 1e-13;
        let mut s = ColumnSchedule {
            p: 1.0,
            completions: vec![1.0, c],
            columns: vec![
                Column {
                    start: 0.0,
                    end: 1.0,
                    rates: vec![(TaskId(0), 1.0)],
                },
                Column {
                    start: 1.0,
                    end: c,
                    rates: vec![(TaskId(1), 1.0)],
                },
            ],
        };
        s.validate(&inst).unwrap();
        // The sliver still pins T1's completion, earlier and later.
        for moved in [0.5, 2.0] {
            s.completions[1] = moved;
            match s.validate(&inst) {
                Err(ScheduleError::AllocationAfterCompletion { task, .. }) => {
                    assert_eq!(task, TaskId(1))
                }
                other => panic!("moved to {moved}: expected AllocationAfterCompletion, {other:?}"),
            }
        }
    }

    #[test]
    fn non_contiguous_columns_detected() {
        let mut s = valid_schedule();
        s.columns.push(Column {
            start: 5.0,
            end: 6.0,
            rates: vec![],
        });
        assert!(matches!(
            s.validate(&inst()),
            Err(ScheduleError::InvalidTime { .. })
        ));
    }

    #[test]
    fn zero_length_columns_are_legal() {
        let mut s = valid_schedule();
        s.columns.push(Column {
            start: 2.0,
            end: 2.0,
            rates: vec![],
        });
        s.validate(&inst()).unwrap();
    }

    #[test]
    fn eligibility_violation_detected() {
        // Tasks 0 and 1 are both eligible only on machine 0; task 2 owns
        // {1, 2}. Total rate 3 fits P = 3 and every δ cap, but tasks 0
        // and 1 together route at most 1 through machine 0.
        let inst = Instance::builder(0.0)
            .task(1.0, 1.0, 1.0)
            .task(1.0, 1.0, 1.0)
            .task(1.0, 1.0, 1.0)
            .restricted(3, vec![vec![0], vec![0], vec![1, 2]])
            .build()
            .unwrap();
        let s = ColumnSchedule {
            p: 3.0,
            completions: vec![1.0, 1.0, 1.0],
            columns: vec![Column {
                start: 0.0,
                end: 1.0,
                rates: vec![(TaskId(0), 1.0), (TaskId(1), 1.0), (TaskId(2), 1.0)],
            }],
        };
        match s.validate(&inst) {
            Err(ScheduleError::EligibilityExceeded {
                total, routable, ..
            }) => {
                assert!((total - 3.0).abs() < 1e-12);
                assert!((routable - 2.0).abs() < 1e-12);
            }
            other => panic!("expected EligibilityExceeded, got {other:?}"),
        }
        // The same rates route cleanly once task 1 moves to machine 1.
        let ok = Instance::builder(0.0)
            .task(1.0, 1.0, 1.0)
            .task(1.0, 1.0, 1.0)
            .task(1.0, 1.0, 1.0)
            .restricted(3, vec![vec![0], vec![1], vec![1, 2]])
            .build()
            .unwrap();
        s.validate(&ok).unwrap();
    }

    #[test]
    fn allocation_before_arrival_detected() {
        // Same schedule, but T1 only arrives at t = 1: the [0,2] column
        // allocates it too early.
        let timed = inst().with_arrivals(vec![0.0, 1.0]).unwrap();
        match valid_schedule().validate(&timed) {
            Err(ScheduleError::AllocationBeforeArrival { task, arrival, .. }) => {
                assert_eq!(task, TaskId(1));
                assert_eq!(arrival, 1.0);
            }
            other => panic!("expected AllocationBeforeArrival, got {other:?}"),
        }
        // A schedule that waits for the arrival passes: T0 alone on [0,1],
        // both at rate 1 on [1,2], T1 alone on [2,3].
        let waiting = ColumnSchedule {
            p: 2.0,
            completions: vec![2.0, 3.0],
            columns: vec![
                Column {
                    start: 0.0,
                    end: 1.0,
                    rates: vec![(TaskId(0), 1.0)],
                },
                Column {
                    start: 1.0,
                    end: 2.0,
                    rates: vec![(TaskId(0), 1.0), (TaskId(1), 1.0)],
                },
                Column {
                    start: 2.0,
                    end: 3.0,
                    rates: vec![(TaskId(1), 1.0)],
                },
            ],
        };
        waiting.validate(&timed).unwrap();
        // All-zero arrivals change nothing.
        let zeroed = inst().with_arrivals(vec![0.0, 0.0]).unwrap();
        valid_schedule().validate(&zeroed).unwrap();
    }

    #[test]
    fn duplicate_task_in_a_column_detected() {
        // T0 listed twice at rate ½: capacity (2) and δ hold, and the two
        // entries add up to T0's volume, but a column holds one rate per
        // task.
        let mut s = valid_schedule();
        s.columns[0].rates = vec![(TaskId(0), 0.5), (TaskId(1), 1.0), (TaskId(0), 0.5)];
        match s.validate(&inst()) {
            Err(ScheduleError::DuplicateTask { task, at }) => {
                assert_eq!(task, TaskId(0));
                assert_eq!(at, 0.0);
            }
            other => panic!("expected DuplicateTask, got {other:?}"),
        }
        // The same task in two different columns is fine.
        let split = ColumnSchedule {
            p: 2.0,
            completions: vec![2.0, 2.0],
            columns: vec![
                Column {
                    start: 0.0,
                    end: 1.0,
                    rates: vec![(TaskId(0), 1.0), (TaskId(1), 1.0)],
                },
                Column {
                    start: 1.0,
                    end: 2.0,
                    rates: vec![(TaskId(1), 1.0), (TaskId(0), 1.0)],
                },
            ],
        };
        split.validate(&inst()).unwrap();
    }

    #[test]
    fn area_accumulator_matches_scalar_sum_bit_for_bit() {
        // Magnitudes where naive folding loses the small terms.
        let terms = [
            1.0, 1e100, 1.0, -1e100, 0.1, 0.2, 0.3, 1e-17, -0.6, 3.0e15, 7.0,
        ];
        for len in 0..=terms.len() {
            let mut acc = TaskAcc::<f64>::new().area;
            for &x in &terms[..len] {
                acc.add(x, true);
            }
            let want = f64::sum(terms[..len].iter().copied());
            assert_eq!(acc.value(true).to_bits(), want.to_bits(), "prefix {len}");
        }
        use bigratio::Rational;
        let q: Vec<Rational> = [(1, 3), (2, 7), (-5, 11), (9, 4)]
            .iter()
            .map(|&(n, d)| Rational::from_ratio(n, d))
            .collect();
        let mut acc = TaskAcc::<Rational>::new().area;
        for x in &q {
            acc.add(x.clone(), false);
        }
        assert_eq!(acc.value(false), Rational::sum(q));
    }

    #[test]
    fn length_mismatch_detected() {
        let s = valid_schedule();
        let bigger = Instance::builder(2.0)
            .tasks([(2.0, 1.0, 1.0), (2.0, 1.0, 2.0), (1.0, 1.0, 1.0)])
            .build()
            .unwrap();
        assert!(matches!(
            s.validate(&bigger),
            Err(ScheduleError::LengthMismatch { .. })
        ));
    }
}
