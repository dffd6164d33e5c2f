//! The Theorem-3 transformations between schedule representations.
//!
//! * [`column_to_gantt`] — the *fractional → integer* direction (Figure 2
//!   of the paper): inside each column, task areas are wrapped row-by-row
//!   across the processor×time rectangle, so each task's processor count at
//!   any instant is `⌊dᵢⱼ⌋` or `⌈dᵢⱼ⌉` and the per-column processor set of
//!   a task changes at most twice.
//! * [`step_to_column`] — the *averaging* direction: within each column a
//!   task's fractional rate is its average allocation there.
//! * [`assign_processors_stable`] — the Lemma-6/10 assignment: processors,
//!   once granted, are kept until the allocation shrinks, making the number
//!   of Gantt preemptions equal the number of resource changes.
//!
//! All conversions are generic over the scalar: with exact rationals the
//! Figure-2 wrap conserves areas exactly and the sliver thresholds below
//! vanish (they scale with the tolerance's relative slack, which is zero on
//! exact fields).

use crate::error::ScheduleError;
use crate::instance::{Instance, TaskId};
use crate::schedule::column::{Column, ColumnSchedule};
use crate::schedule::gantt::{Gantt, GanttSegment};
use crate::schedule::step::{Segment, StepSchedule};
use numkit::{Scalar, Tolerance};

/// Check that `x` is integral within `tol` and return it as `usize`.
fn integral<S: Scalar>(
    x: &S,
    what: &'static str,
    tol: &Tolerance<S>,
) -> Result<usize, ScheduleError> {
    let r = x.to_f64().round();
    if r < 0.0 || !tol.eq(x.clone(), S::from_f64(r)) {
        return Err(ScheduleError::InvalidInstance {
            reason: format!("{what} must be a non-negative integer, got {x:?}"),
        });
    }
    Ok(r as usize)
}

/// Fractional column schedule → per-processor Gantt chart (Theorem 3,
/// Figure 2). Requires an integer machine (`P ∈ ℕ`) and integer caps
/// (`δᵢ ∈ ℕ`): with integral `δᵢ`, `⌈dᵢⱼ⌉ ≤ δᵢ`, so the wrapped layout
/// never violates a cap.
///
/// Completion times in the result are `≤` the column schedule's (a task
/// whose last fragment fits strictly inside its final column finishes
/// early; the paper's transformation has the same property).
///
/// # Errors
/// * [`ScheduleError::InvalidInstance`] when `P` or any participating
///   `δᵢ` is not integral;
/// * [`ScheduleError::CapacityExceeded`] when a column's total area
///   overflows `P × l` beyond tolerance.
pub fn column_to_gantt<S: Scalar>(
    cs: &ColumnSchedule<S>,
    instance: &Instance<S>,
    tol: Tolerance<S>,
) -> Result<Gantt<S>, ScheduleError> {
    let n_procs = integral(&cs.p, "P", &tol)?;
    let mut gantt = Gantt::empty(n_procs);

    for col in &cs.columns {
        let l = col.len();
        if l <= tol.abs {
            continue;
        }
        // All cursor arithmetic below is *relative to this column*: a very
        // short column must not be distorted by absolute slack, so sliver
        // thresholds scale with `l` (and vanish entirely on exact scalars,
        // whose relative slack is zero).
        let eps_t = l.clone() * tol.rel.clone(); // negligible time in-column
        let eps_a = eps_t.clone(); // negligible area (one proc × eps_t)
        let mut lane = 0usize;
        let mut offset = S::zero();
        for (task, rate) in &col.rates {
            if rate.clone() * l.clone() <= eps_a {
                continue;
            }
            integral(&instance.task(*task).delta, "δ", &tol)?;
            let mut area = rate.clone() * l.clone();
            while area > eps_a {
                if lane >= n_procs {
                    // Residual beyond the machine: tolerate accumulated
                    // float drift (relative to the column's full area),
                    // reject anything structural. Exact runs tolerate
                    // nothing.
                    let drift_allowance =
                        cs.p.clone() * l.clone() * tol.rel.clone() * S::from_int(100);
                    if area <= drift_allowance {
                        break;
                    }
                    return Err(ScheduleError::CapacityExceeded {
                        at: col.start.to_f64(),
                        total: (cs.p.clone() + area / l).to_f64(),
                        p: cs.p.to_f64(),
                    });
                }
                let take = (l.clone() - offset.clone()).min_of(area.clone());
                if take > eps_t {
                    gantt.lanes[lane].push(GanttSegment {
                        start: col.start.clone() + offset.clone(),
                        end: col.start.clone() + offset.clone() + take.clone(),
                        task: *task,
                    });
                }
                area = area - take.clone();
                offset = offset + take;
                if offset.clone() + eps_t.clone() >= l {
                    lane += 1;
                    offset = S::zero();
                }
            }
        }
    }
    // Lanes were appended column-by-column in time order, but within one
    // lane a later column's segment always starts at or after the previous
    // column's end, so each lane is already sorted. Merge abutting segments
    // of the same task to keep preemption counting honest.
    for lane in &mut gantt.lanes {
        let mut merged: Vec<GanttSegment<S>> = Vec::with_capacity(lane.len());
        for seg in lane.drain(..) {
            match merged.last_mut() {
                Some(prev)
                    if prev.task == seg.task && tol.eq(prev.end.clone(), seg.start.clone()) =>
                {
                    prev.end = seg.end;
                }
                _ => merged.push(seg),
            }
        }
        *lane = merged;
    }
    Ok(gantt)
}

/// Gantt chart → step schedule: per task, the integer processor count as a
/// piecewise-constant function of time.
#[allow(clippy::needless_range_loop)] // task id doubles as array index
pub fn gantt_to_step<S: Scalar>(
    gantt: &Gantt<S>,
    p: S,
    n_tasks: usize,
    tol: Tolerance<S>,
) -> StepSchedule<S> {
    let mut allocs = vec![Vec::<Segment<S>>::new(); n_tasks];
    let half = S::from_f64(0.5);
    for i in 0..n_tasks {
        let runs = gantt.runs_of(TaskId(i));
        if runs.is_empty() {
            continue;
        }
        let mut times: Vec<S> = runs
            .iter()
            .flat_map(|(_, s, e)| [s.clone(), e.clone()])
            .collect();
        times.sort_by(S::total_cmp_s);
        times.dedup_by(|a, b| tol.eq(a.clone(), b.clone()));
        let segs = &mut allocs[i];
        for w in times.windows(2) {
            if w[1].clone() - w[0].clone() <= tol.abs {
                continue;
            }
            let mid = half.clone() * (w[0].clone() + w[1].clone());
            let count = runs
                .iter()
                .filter(|(_, s, e)| *s <= mid && mid < *e)
                .count();
            if count == 0 {
                continue;
            }
            let procs = S::from_int(count as i64);
            match segs.last_mut() {
                Some(prev) if tol.eq(prev.end.clone(), w[0].clone()) && prev.procs == procs => {
                    prev.end = w[1].clone();
                }
                _ => segs.push(Segment {
                    start: w[0].clone(),
                    end: w[1].clone(),
                    procs,
                }),
            }
        }
    }
    StepSchedule { p, allocs }
}

/// Column schedule → integer step schedule, via the Figure-2 wrap.
pub fn column_to_step<S: Scalar>(
    cs: &ColumnSchedule<S>,
    instance: &Instance<S>,
    tol: Tolerance<S>,
) -> Result<StepSchedule<S>, ScheduleError> {
    let gantt = column_to_gantt(cs, instance, tol.clone())?;
    Ok(gantt_to_step(&gantt, cs.p.clone(), instance.n(), tol))
}

/// Step schedule → column schedule (the averaging direction of Theorem 3):
/// columns are delimited by the distinct task completion times, and each
/// task's rate in a column is its average allocation there. Rates stay
/// within `δᵢ` and capacity `P` because averages of valid instantaneous
/// allocations are valid (the paper's proof of Theorem 3).
///
/// Each task's time-sorted segments are walked once by a cursor as the
/// columns advance, so the cost is O(columns · n + segments) rather than
/// clipping every segment against every column.
pub fn step_to_column<S: Scalar>(ss: &StepSchedule<S>, tol: Tolerance<S>) -> ColumnSchedule<S> {
    let completions = ss.completion_times();
    let mut bounds: Vec<S> = completions
        .iter()
        .filter(|c| **c > tol.abs)
        .cloned()
        .collect();
    bounds.sort_by(S::total_cmp_s);
    bounds.dedup_by(|a, b| tol.eq(a.clone(), b.clone()));

    let mut cursor = vec![0usize; ss.n()];
    let mut columns = Vec::with_capacity(bounds.len());
    let mut prev = S::zero();
    for b in &bounds {
        let l = b.clone() - prev.clone();
        let mut rates = Vec::new();
        if l > tol.abs {
            for (i, segs) in ss.allocs.iter().enumerate() {
                // Segments ending by `prev` cannot reach this column or any
                // later one.
                let k = &mut cursor[i];
                while segs.get(*k).is_some_and(|s| s.end <= prev) {
                    *k += 1;
                }
                let mut area = S::zero();
                for s in segs[*k..].iter().take_while(|s| s.start < *b) {
                    let lo = s.start.clone().max_of(prev.clone());
                    let hi = s.end.clone().min_of(b.clone());
                    if hi > lo {
                        area = area + s.procs.clone() * (hi - lo);
                    }
                }
                if area > tol.abs.clone() * l.clone() {
                    rates.push((TaskId(i), area / l.clone()));
                }
            }
        }
        columns.push(Column {
            start: prev.clone(),
            end: b.clone(),
            rates,
        });
        prev = b.clone();
    }
    ColumnSchedule {
        p: ss.p.clone(),
        completions,
        columns,
    }
}

/// Lemma-6/10 stable processor assignment for an **integer** step schedule:
/// at each event, tasks whose count shrank release their most recently
/// acquired processors, then tasks whose count grew take the lowest free
/// ids. A processor granted to a task is never reclaimed while the task's
/// count stays put, so the resulting Gantt has exactly one preemption per
/// resource change — the property Theorem 10 builds on.
///
/// Only tasks with a segment boundary since the previous event can change
/// their count, so each event re-reads just those tasks, through per-task
/// segment cursors walked in time order: O(E log E + B log B) for `E`
/// events and `B` segment boundaries, plus the processor hand-offs.
///
/// # Errors
/// [`ScheduleError::InvalidInstance`] when `P` or any segment count is not
/// integral, or [`ScheduleError::CapacityExceeded`] when counts overflow
/// the machine.
pub fn assign_processors_stable<S: Scalar>(
    ss: &StepSchedule<S>,
    tol: Tolerance<S>,
) -> Result<Gantt<S>, ScheduleError> {
    let n_procs = integral(&ss.p, "P", &tol)?;
    let n = ss.n();
    let events = ss.event_times(tol.clone());
    let mut gantt = Gantt::empty(n_procs);
    let half = S::from_f64(0.5);

    // Every segment boundary, time-sorted, tagged with its task.
    let mut bounds: Vec<(&S, usize)> = Vec::new();
    for (i, segs) in ss.allocs.iter().enumerate() {
        for s in segs {
            bounds.push((&s.start, i));
            bounds.push((&s.end, i));
        }
    }
    bounds.sort_by(|a, b| a.0.total_cmp_s(b.0));
    let mut next_bound = 0;
    let mut cursor = vec![0usize; n];
    let mut touched: Vec<usize> = Vec::new();

    // Ownership state.
    let mut required = vec![0usize; n]; // integer count on the current event
    let mut total_required = 0usize;
    let mut owned: Vec<Vec<usize>> = vec![Vec::new(); n]; // LIFO per task
    let mut free: Vec<usize> = (0..n_procs).rev().collect(); // pop() = lowest id
    let mut lane_open: Vec<Option<(TaskId, S)>> = vec![None; n_procs]; // (task, since)

    for w in events.windows(2) {
        let (t0, t1) = (&w[0], &w[1]);
        if t1.clone() - t0.clone() <= tol.abs {
            continue;
        }
        let mid = half.clone() * (t0.clone() + t1.clone());
        // Required integer counts on [t0, t1): a task's count can only
        // have changed if one of its boundaries passed since the last mid.
        touched.clear();
        while bounds.get(next_bound).is_some_and(|(t, _)| **t <= mid) {
            touched.push(bounds[next_bound].1);
            next_bound += 1;
        }
        touched.sort_unstable();
        touched.dedup();
        for &i in &touched {
            let segs = &ss.allocs[i];
            let k = &mut cursor[i];
            while segs.get(*k).is_some_and(|s| s.end <= mid) {
                *k += 1;
            }
            let rate = match segs.get(*k) {
                Some(s) if s.start <= mid => s.procs.clone(),
                _ => S::zero(),
            };
            let count = integral(&rate, "segment processor count", &tol)?;
            total_required = total_required - required[i] + count;
            required[i] = count;
        }
        // Release phase.
        for &i in &touched {
            while owned[i].len() > required[i] {
                let p = owned[i].pop().expect("len > required ≥ 0");
                if let Some((task, since)) = lane_open[p].take() {
                    gantt.lanes[p].push(GanttSegment {
                        start: since,
                        end: t0.clone(),
                        task,
                    });
                }
                free.push(p);
            }
        }
        // Re-sort descending so pop() keeps handing out the lowest free id.
        free.sort_unstable_by(|a, b| b.cmp(a));
        // Acquire phase, in task order.
        for &i in &touched {
            while owned[i].len() < required[i] {
                let Some(p) = free.pop() else {
                    return Err(ScheduleError::CapacityExceeded {
                        at: t0.to_f64(),
                        total: total_required as f64,
                        p: ss.p.to_f64(),
                    });
                };
                owned[i].push(p);
                debug_assert!(lane_open[p].is_none());
                lane_open[p] = Some((TaskId(i), t0.clone()));
            }
        }
    }
    // Close remaining runs at the final event.
    let end = events.last().cloned().unwrap_or_else(S::zero);
    for (p, open) in lane_open.iter_mut().enumerate() {
        if let Some((task, since)) = open.take() {
            gantt.lanes[p].push(GanttSegment {
                start: since,
                end: end.clone(),
                task,
            });
        }
    }
    Ok(gantt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;

    fn tol() -> Tolerance {
        Tolerance::default()
    }

    /// P = 3; T0 (δ=2) and T1 (δ=3) share columns with fractional rates.
    fn fractional_case() -> (Instance, ColumnSchedule) {
        let inst = Instance::builder(3.0)
            .task(3.0, 1.0, 2.0) // T0
            .task(4.5, 1.0, 3.0) // T1
            .build()
            .unwrap();
        let cs = ColumnSchedule {
            p: 3.0,
            completions: vec![2.0, 3.0],
            columns: vec![
                Column {
                    start: 0.0,
                    end: 2.0,
                    rates: vec![(TaskId(0), 1.5), (TaskId(1), 1.0)],
                },
                Column {
                    start: 2.0,
                    end: 3.0,
                    rates: vec![(TaskId(1), 2.5)],
                },
            ],
        };
        cs.validate(&inst).unwrap();
        (inst, cs)
    }

    #[test]
    fn wrap_produces_valid_integer_schedule() {
        let (inst, cs) = fractional_case();
        let gantt = column_to_gantt(&cs, &inst, tol()).unwrap();
        gantt.validate(tol()).unwrap();
        let step = gantt_to_step(&gantt, 3.0, 2, tol());
        // Integer counts only.
        for segs in &step.allocs {
            for s in segs {
                assert_eq!(s.procs, s.procs.round());
            }
        }
        // Volumes preserved.
        assert!((step.allocated_area(TaskId(0)) - 3.0).abs() < 1e-9);
        assert!((step.allocated_area(TaskId(1)) - 4.5).abs() < 1e-9);
        // The instantaneous count is ⌊d⌋ or ⌈d⌉ of the fractional rate:
        // T0 held 1.5 procs on [0,2] → counts in {1, 2}.
        for s in &step.allocs[0] {
            assert!(s.procs == 1.0 || s.procs == 2.0, "count {}", s.procs);
        }
        // Completion times never increase.
        let cs2 = step.completion_times();
        assert!(cs2[0] <= 2.0 + 1e-9);
        assert!(cs2[1] <= 3.0 + 1e-9);
        // Step schedule is valid for the instance (volume + caps + capacity).
        step.validate(&inst).unwrap();
    }

    #[test]
    fn exact_wrap_conserves_areas_exactly() {
        use bigratio::Rational;
        let q = Rational::from_f64_exact;
        let (inst_f, cs_f) = fractional_case();
        let inst: Instance<Rational> = inst_f.to_scalar();
        let cs = ColumnSchedule {
            p: q(3.0),
            completions: cs_f.completions.iter().map(|&c| q(c)).collect(),
            columns: cs_f
                .columns
                .iter()
                .map(|c| Column {
                    start: q(c.start),
                    end: q(c.end),
                    rates: c.rates.iter().map(|&(t, r)| (t, q(r))).collect(),
                })
                .collect(),
        };
        let step = column_to_step(&cs, &inst, Tolerance::exact()).unwrap();
        assert_eq!(step.allocated_area(TaskId(0)), q(3.0));
        assert_eq!(step.allocated_area(TaskId(1)), q(4.5));
        step.validate(&inst).unwrap(); // zero tolerance
        let back = step_to_column(&step, Tolerance::exact());
        assert_eq!(back.allocated_area(TaskId(0)), q(3.0));
    }

    #[test]
    fn wrap_rejects_fractional_p() {
        let (inst, mut cs) = fractional_case();
        cs.p = 2.5;
        assert!(matches!(
            column_to_gantt(&cs, &inst, tol()),
            Err(ScheduleError::InvalidInstance { .. })
        ));
    }

    #[test]
    fn wrap_rejects_fractional_delta() {
        let inst = Instance::builder(3.0).task(3.0, 1.0, 1.5).build().unwrap();
        let cs = ColumnSchedule {
            p: 3.0,
            completions: vec![2.0],
            columns: vec![Column {
                start: 0.0,
                end: 2.0,
                rates: vec![(TaskId(0), 1.5)],
            }],
        };
        assert!(matches!(
            column_to_gantt(&cs, &inst, tol()),
            Err(ScheduleError::InvalidInstance { .. })
        ));
    }

    #[test]
    fn roundtrip_column_step_column() {
        let (inst, cs) = fractional_case();
        let step = column_to_step(&cs, &inst, tol()).unwrap();
        let back = step_to_column(&step, tol());
        back.validate(&inst).unwrap();
        // Completion times only improve through the integer conversion.
        for i in 0..2 {
            assert!(back.completions[i] <= cs.completions[i] + 1e-9);
        }
        // Total areas preserved.
        assert!((back.allocated_area(TaskId(0)) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn averaging_direction_respects_caps() {
        // T0 runs at 2 procs on [0,1] (δ = 2); its average in its single
        // column is exactly 2 ≤ δ, and totals stay within P = 3.
        let ss = StepSchedule {
            p: 3.0,
            allocs: vec![
                vec![Segment {
                    start: 0.0,
                    end: 1.0,
                    procs: 2.0,
                }],
                vec![Segment {
                    start: 0.0,
                    end: 2.0,
                    procs: 1.0,
                }],
            ],
        };
        let inst = Instance::builder(3.0)
            .task(2.0, 1.0, 2.0)
            .task(2.0, 1.0, 1.0)
            .build()
            .unwrap();
        let cs = step_to_column(&ss, tol());
        cs.validate(&inst).unwrap();
        assert_eq!(cs.columns.len(), 2);
        assert!((cs.columns[0].rate_of(TaskId(0)) - 2.0).abs() < 1e-12);
        assert_eq!(cs.columns[1].rate_of(TaskId(0)), 0.0);
    }

    #[test]
    fn stable_assignment_matches_resource_changes() {
        // T0: 1 proc on [0,3]. T1: 1 proc on [0,1], 2 on [1,2], 1 on [2,3].
        let ss = StepSchedule {
            p: 3.0,
            allocs: vec![
                vec![Segment {
                    start: 0.0,
                    end: 3.0,
                    procs: 1.0,
                }],
                vec![
                    Segment {
                        start: 0.0,
                        end: 1.0,
                        procs: 1.0,
                    },
                    Segment {
                        start: 1.0,
                        end: 2.0,
                        procs: 2.0,
                    },
                    Segment {
                        start: 2.0,
                        end: 3.0,
                        procs: 1.0,
                    },
                ],
            ],
        };
        let gantt = assign_processors_stable(&ss, tol()).unwrap();
        gantt.validate(tol()).unwrap();
        // T1 changes count twice; T0 never. Preemptions == resource changes.
        assert_eq!(ss.resource_changes(tol()), 2);
        assert_eq!(gantt.preemption_count(2, tol()), 2);
        // T0 kept its processor the whole time (zero preemptions).
        assert_eq!(gantt.preemptions_of(TaskId(0), tol()), 0);
    }

    #[test]
    fn stable_assignment_rejects_overflow() {
        let ss = StepSchedule {
            p: 1.0,
            allocs: vec![vec![Segment {
                start: 0.0,
                end: 1.0,
                procs: 2.0,
            }]],
        };
        assert!(matches!(
            assign_processors_stable(&ss, tol()),
            Err(ScheduleError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn empty_schedules_convert() {
        let ss = StepSchedule::empty(2.0, 2);
        let cs = step_to_column(&ss, tol());
        assert!(cs.columns.is_empty());
        let g = assign_processors_stable(&ss, tol()).unwrap();
        assert_eq!(g.makespan(), 0.0);
    }
}
