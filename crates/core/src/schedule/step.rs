//! Piecewise-constant step schedules (`MWCT`, Definition 1).
//!
//! A [`StepSchedule`] stores, per task, the maximal intervals on which its
//! allocation `dᵢ(t)` is constant and positive. This is the representation
//! produced by Greedy (whose allocation changes *within* columns of other
//! tasks) and by the Theorem-3 fractional→integer conversion, and the input
//! to processor assignment ([`crate::schedule::gantt`]).
//!
//! Generic over the scalar field, like the rest of the schedule stack.

use crate::error::ScheduleError;
use crate::instance::{Instance, TaskId};
use numkit::{Scalar, Tolerance};
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// A maximal interval of constant positive allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment<S = f64> {
    /// Interval start.
    pub start: S,
    /// Interval end (`end > start`).
    pub end: S,
    /// Processors held throughout the interval (fractional allowed).
    pub procs: S,
}

impl<S: Scalar> Segment<S> {
    /// Area `procs × (end − start)`.
    pub fn area(&self) -> S {
        self.procs.clone() * self.len()
    }

    /// Duration.
    pub fn len(&self) -> S {
        self.end.clone() - self.start.clone()
    }

    /// `true` iff zero-length.
    pub fn is_empty(&self) -> bool {
        !self.len().is_positive()
    }
}

/// A full step schedule: per-task segment lists.
#[derive(Debug, Clone, PartialEq)]
pub struct StepSchedule<S = f64> {
    /// Machine capacity.
    pub p: S,
    /// `allocs[i]` = time-sorted, non-overlapping segments of task `i`.
    pub allocs: Vec<Vec<Segment<S>>>,
}

impl<S: Scalar> StepSchedule<S> {
    /// An empty schedule for `n` tasks on capacity `p`.
    pub fn empty(p: S, n: usize) -> Self {
        StepSchedule {
            p,
            allocs: vec![Vec::new(); n],
        }
    }

    /// Number of tasks.
    pub fn n(&self) -> usize {
        self.allocs.len()
    }

    /// Completion time of each task (`0` for never-scheduled tasks).
    pub fn completion_times(&self) -> Vec<S> {
        self.allocs
            .iter()
            .map(|segs| segs.last().map_or(S::zero(), |s| s.end.clone()))
            .collect()
    }

    /// Makespan.
    pub fn makespan(&self) -> S {
        self.completion_times()
            .into_iter()
            .fold(S::zero(), S::max_of)
    }

    /// `Σ wᵢCᵢ`.
    ///
    /// # Panics
    /// Panics on instance/schedule task-count mismatch.
    pub fn weighted_completion_cost(&self, instance: &Instance<S>) -> S {
        assert_eq!(instance.n(), self.n(), "task count mismatch");
        let cs = self.completion_times();
        S::sum(
            instance
                .iter()
                .map(|(id, t)| t.weight.clone() * cs[id.0].clone()),
        )
    }

    /// Area allocated to one task.
    pub fn allocated_area(&self, task: TaskId) -> S {
        S::sum(self.allocs[task.0].iter().map(Segment::area))
    }

    /// The paper's *resource-change* count (Lemmas 5 and 9): the number of
    /// instants, strictly between a task's first start and final completion,
    /// at which its allocation `dᵢ(t)` changes. Adjacent segments with
    /// different rates contribute 1; a gap (allocation drops to zero and
    /// resumes) contributes 2.
    pub fn resource_changes(&self, tol: Tolerance<S>) -> usize {
        let mut changes = 0;
        for segs in &self.allocs {
            for w in segs.windows(2) {
                if tol.eq(w[0].end.clone(), w[1].start.clone()) {
                    if !tol.eq(w[0].procs.clone(), w[1].procs.clone()) {
                        changes += 1;
                    }
                } else {
                    changes += 2; // → 0 → back up
                }
            }
        }
        changes
    }

    /// Allocation of `task` at time `t` (0 outside its segments).
    pub fn rate_at(&self, task: TaskId, t: S) -> S {
        self.allocs[task.0]
            .iter()
            .find(|s| s.start <= t && t < s.end)
            .map_or(S::zero(), |s| s.procs.clone())
    }

    /// All segment boundaries, sorted and deduplicated (within `tol`).
    pub fn event_times(&self, tol: Tolerance<S>) -> Vec<S> {
        let mut ts: Vec<S> = self
            .allocs
            .iter()
            .flatten()
            .flat_map(|s| [s.start.clone(), s.end.clone()])
            .collect();
        ts.push(S::zero());
        ts.sort_by(S::total_cmp_s);
        ts.dedup_by(|a, b| tol.eq(a.clone(), b.clone()));
        ts
    }

    /// Validity per Definition 1:
    /// 1. segments sorted, positive-length, non-overlapping per task;
    /// 2. `0 ≤ dᵢ(t) ≤ min(δᵢ, P)`;
    /// 3. `Σᵢ dᵢ(t) ≤ P` at every time;
    /// 4. `∫ dᵢ = Vᵢ`.
    pub fn validate(&self, instance: &Instance<S>) -> Result<(), ScheduleError> {
        let scale = 1.0 + self.allocs.iter().map(|s| s.len()).max().unwrap_or(0) as f64;
        self.validate_with(instance, S::default_tolerance().scaled(scale))
    }

    /// [`StepSchedule::validate`] with an explicit tolerance.
    ///
    /// Checks 1, 2 and 4 walk each task's segments once. The capacity
    /// check sweeps the segment boundaries, sorted exactly (no tolerance
    /// merging), over an active set of segments: on every elementary
    /// interval longer than `tol.abs` the active rates are summed afresh
    /// with [`Scalar::sum`], in task order. With `s` segments in total
    /// that is O(s log s) plus the active-set sizes of the swept intervals,
    /// and O(s) extra memory.
    pub fn validate_with(
        &self,
        instance: &Instance<S>,
        tol: Tolerance<S>,
    ) -> Result<(), ScheduleError> {
        let mut sp = malleable_trace::span("schedule.validate");
        let entries: usize = self.allocs.iter().map(Vec::len).sum();
        sp.arg("entries", entries as u64);
        if self.n() != instance.n() {
            return Err(ScheduleError::LengthMismatch {
                what: "step schedule tasks",
                expected: instance.n(),
                found: self.n(),
            });
        }
        for (i, segs) in self.allocs.iter().enumerate() {
            let id = TaskId(i);
            let cap = instance.effective_delta(id);
            let mut prev_end = S::zero();
            for s in segs {
                if !s.start.is_finite() || !s.end.is_finite() || s.start < -tol.abs.clone() {
                    return Err(ScheduleError::InvalidTime {
                        value: s.start.to_f64(),
                        context: "segment bounds",
                    });
                }
                if s.end <= s.start {
                    return Err(ScheduleError::InvalidTime {
                        value: s.end.to_f64(),
                        context: "segment end ≤ start",
                    });
                }
                if s.start.clone() + tol.slack(s.start.clone(), prev_end.clone()) < prev_end {
                    return Err(ScheduleError::InvalidTime {
                        value: s.start.to_f64(),
                        context: "overlapping segments within a task",
                    });
                }
                if s.procs < -tol.abs.clone() || !tol.le(s.procs.clone(), cap.clone()) {
                    return Err(ScheduleError::DeltaExceeded {
                        task: id,
                        at: s.start.to_f64(),
                        rate: s.procs.to_f64(),
                        delta: cap.to_f64(),
                    });
                }
                prev_end = s.end.clone();
            }
            let area = self.allocated_area(id);
            if !tol.eq(area.clone(), instance.task(id).volume.clone()) {
                return Err(ScheduleError::VolumeMismatch {
                    task: id,
                    allocated: area.to_f64(),
                    required: instance.task(id).volume.to_f64(),
                });
            }
        }
        // Capacity: one sweep over the exactly sorted boundaries. Each
        // boundary is `(time, task, segment, opens)`; the active set is
        // ordered by `(task, segment)` so totals sum in task order.
        let mut bounds: Vec<(&S, usize, usize, bool)> = Vec::with_capacity(2 * entries);
        for (i, segs) in self.allocs.iter().enumerate() {
            for (k, s) in segs.iter().enumerate() {
                bounds.push((&s.start, i, k, true));
                bounds.push((&s.end, i, k, false));
            }
        }
        bounds.sort_by(|a, b| a.0.total_cmp_s(b.0));
        let mut active: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut intervals = 0u64;
        let mut b = 0;
        while b < bounds.len() {
            let t = bounds[b].0;
            while b < bounds.len() && bounds[b].0.total_cmp_s(t) == Ordering::Equal {
                let (_, i, k, opens) = bounds[b];
                if opens {
                    active.insert((i, k));
                } else {
                    active.remove(&(i, k));
                }
                b += 1;
            }
            let Some(&(next, ..)) = bounds.get(b) else {
                break;
            };
            intervals += 1;
            if active.is_empty() || next.clone() - t.clone() <= tol.abs {
                continue;
            }
            // A task's rate is its first segment covering the interval
            // (segments may overlap within the tolerance).
            let mut last_task = usize::MAX;
            let total = S::sum(active.iter().filter_map(|&(i, k)| {
                let first = i != last_task;
                last_task = i;
                first.then(|| self.allocs[i][k].procs.clone())
            }));
            if !tol.le(total.clone(), self.p.clone()) {
                return Err(ScheduleError::CapacityExceeded {
                    at: t.to_f64(),
                    total: total.to_f64(),
                    p: self.p.to_f64(),
                });
            }
        }
        sp.arg("columns", intervals);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> Instance {
        Instance::builder(2.0)
            .task(2.0, 1.0, 1.0)
            .task(3.0, 1.0, 2.0)
            .build()
            .unwrap()
    }

    /// T0: 1 proc on [0,2]. T1: 1 proc on [0,2], then 2 procs on [2,2.5].
    fn sched() -> StepSchedule {
        StepSchedule {
            p: 2.0,
            allocs: vec![
                vec![Segment {
                    start: 0.0,
                    end: 2.0,
                    procs: 1.0,
                }],
                vec![
                    Segment {
                        start: 0.0,
                        end: 2.0,
                        procs: 1.0,
                    },
                    Segment {
                        start: 2.0,
                        end: 2.5,
                        procs: 2.0,
                    },
                ],
            ],
        }
    }

    #[test]
    fn accessors_and_validation() {
        let s = sched();
        assert_eq!(s.completion_times(), vec![2.0, 2.5]);
        assert_eq!(s.makespan(), 2.5);
        assert_eq!(s.allocated_area(TaskId(1)), 3.0);
        assert_eq!(s.weighted_completion_cost(&inst()), 4.5);
        assert_eq!(s.rate_at(TaskId(1), 2.2), 2.0);
        assert_eq!(s.rate_at(TaskId(1), 3.0), 0.0);
        s.validate(&inst()).unwrap();
    }

    #[test]
    fn resource_changes_counts_steps_and_gaps() {
        let tol = Tolerance::default();
        assert_eq!(sched().resource_changes(tol), 1); // T1's 1→2 step
        let gappy = StepSchedule {
            p: 1.0,
            allocs: vec![vec![
                Segment {
                    start: 0.0,
                    end: 1.0,
                    procs: 1.0,
                },
                Segment {
                    start: 2.0,
                    end: 3.0,
                    procs: 1.0,
                },
            ]],
        };
        assert_eq!(gappy.resource_changes(tol), 2);
    }

    #[test]
    fn capacity_sweep_catches_overload() {
        let mut s = sched();
        // Push T0 into T1's 2-processor window: total 3 > P = 2.
        s.allocs[0] = vec![Segment {
            start: 0.5,
            end: 2.5,
            procs: 1.0,
        }];
        assert!(matches!(
            s.validate(&inst()),
            Err(ScheduleError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn capacity_sweep_reports_the_interval_start() {
        let mut s = sched();
        s.allocs[0] = vec![Segment {
            start: 0.5,
            end: 2.5,
            procs: 1.0,
        }];
        match s.validate(&inst()) {
            Err(ScheduleError::CapacityExceeded { at, total, p }) => {
                assert_eq!((at, total, p), (2.0, 3.0, 2.0));
            }
            other => panic!("expected CapacityExceeded, got {other:?}"),
        }
    }

    #[test]
    fn capacity_sweep_counts_each_task_once() {
        // T1's second segment starts 1e-9 early, overlapping its first
        // (allowed: within the relative slack at t = 2) on an interval
        // longer than `abs`. There T1 holds its first segment's rate, as
        // `rate_at` reports: 1 + 1 ≤ P, not 1 + 1 + 2.
        let mut s = sched();
        s.allocs[1][1].start = 2.0 - 1e-9;
        let tol = Tolerance {
            abs: 1e-12,
            rel: 1e-6,
        };
        assert_eq!(s.rate_at(TaskId(1), 2.0 - 5e-10), 1.0);
        s.validate_with(&inst(), tol).unwrap();
    }

    #[test]
    fn delta_and_volume_checks() {
        let mut s = sched();
        s.allocs[0][0].procs = 1.5; // δ0 = 1
        assert!(matches!(
            s.validate(&inst()),
            Err(ScheduleError::DeltaExceeded { .. })
        ));

        let mut s = sched();
        s.allocs[1].pop(); // missing volume
        assert!(matches!(
            s.validate(&inst()),
            Err(ScheduleError::VolumeMismatch { .. })
        ));
    }

    #[test]
    fn overlap_and_ordering_checks() {
        let mut s = sched();
        s.allocs[1] = vec![
            Segment {
                start: 0.0,
                end: 2.0,
                procs: 1.0,
            },
            Segment {
                start: 1.5,
                end: 2.5,
                procs: 1.0,
            },
        ];
        assert!(matches!(
            s.validate(&inst()),
            Err(ScheduleError::InvalidTime { .. })
        ));
    }

    #[test]
    fn empty_schedule() {
        let s = StepSchedule::empty(2.0, 2);
        assert_eq!(s.completion_times(), vec![0.0, 0.0]);
        // Empty schedule fails volume checks against a real instance.
        assert!(matches!(
            s.validate(&inst()),
            Err(ScheduleError::VolumeMismatch { .. })
        ));
    }

    #[test]
    fn event_times_dedup() {
        let s = sched();
        let ev = s.event_times(Tolerance::default());
        assert_eq!(ev, vec![0.0, 2.0, 2.5]);
    }
}
