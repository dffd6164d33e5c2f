//! Scheduling algorithms for **related machines** (heterogeneous speeds)
//! — the entry points that stay exact when
//! [`MachineModel::Related`](crate::machine::MachineModel) carries
//! genuinely different speeds.
//!
//! The paper's rate-space algorithms (WDEQ's closed form, Water-Filling,
//! Greedy's availability profile) assume the feasible instantaneous rate
//! region is the box-and-simplex `{0 ≤ rᵢ ≤ δ̂ᵢ, Σ rᵢ ≤ P}`; on related
//! machines that region is the *polymatroid* of the speed profile, and
//! the box relaxation over-promises (two δ = 1 tasks on speeds (2, 1, 1)
//! cannot both run at rate 2). This module supplies the sound
//! replacements:
//!
//! * [`flow_witness`] — materialize a valid column schedule for any
//!   transport-feasible deadline vector, by reading the routed flow of
//!   the level network back out (the related analogue of Water-Filling's
//!   witness role, Theorem 8); the exact `Lmax`/`Cmax` optima over any
//!   capacity model are [`crate::algos::parametric::frontier`]'s;
//! * [`greedy_related`] — Greedy(σ) re-based on completion times: each
//!   task in σ-order receives the earliest completion time that keeps the
//!   prefix transport-feasible, found by the frontier searches' Newton
//!   walk.
//!
//! Everything is generic over the scalar: on `bigratio::Rational` every
//! verdict, cut, constraint root and witness is exact and validates at
//! zero tolerance; unit-speed related machines reproduce the
//! identical-machine results bit-for-bit because the transportation
//! networks coincide structurally.

use crate::algos::parametric::{
    check_times, flow_columns, heights, newton, violated_set, Probe, ProbeSession, ViolatedSet,
};
use crate::error::ScheduleError;
use crate::instance::{Instance, TaskId};
use crate::machine::{MachineModel, RankOracle};
use crate::schedule::column::ColumnSchedule;
use numkit::Scalar;

/// Build a valid [`ColumnSchedule`] witnessing that every task can finish
/// by its `deadlines` under the optional `releases`, by solving the
/// transportation flow through `session` and averaging the routed volume
/// per (task, interval). Completion times are the end of each task's last
/// positive allocation (≤ its deadline).
///
/// # Errors
/// [`ScheduleError::InfeasibleCompletionTimes`] when the flow does not
/// saturate (with the min-cut violated set's first member as the
/// offender); validation errors on malformed input.
pub fn flow_witness<S: Scalar>(
    instance: &Instance<S>,
    releases: Option<&[S]>,
    deadlines: &[S],
    session: &mut ProbeSession<S>,
) -> Result<ColumnSchedule<S>, ScheduleError> {
    instance.validate()?;
    let n = instance.n();
    check_times(n, deadlines, "deadlines", "witness deadlines", false)?;
    if n == 0 {
        return Ok(ColumnSchedule {
            p: instance.p.clone(),
            completions: vec![],
            columns: vec![],
        });
    }
    match violated_set(instance, releases, deadlines, session) {
        None => Ok(flow_columns(instance, session)),
        Some(set) => Err(ScheduleError::InfeasibleCompletionTimes {
            task: TaskId(set.tasks.first().copied().unwrap_or(0)),
            placeable: set.capacity.to_f64(),
            required: set.volume.to_f64(),
        }),
    }
}

/// Minimal `C` at which the violated set's constraint `V(T) ≤ cap_T(C)`
/// becomes satisfiable when only the *current* task's deadline is the
/// variable (all other members keep their fixed deadlines).
///
/// The capacity as a function of `C` is
/// `cap_T(C) = ∫₀^∞ f(active(t)) dt`, where the current task is active
/// on `[0, C]` and fixed member `i` on `[0, Dᵢ]` — crucially, fixed
/// members keep absorbing capacity *after* `C`. Between consecutive
/// fixed deadlines the fixed-active set is constant, so `cap_T` is
/// piecewise linear in `C` with per-segment slope
/// `f(S ∪ {cur}) − f(S)` (the current task's marginal rank over that
/// segment's survivors `S`); walk the segments and solve the one binding
/// linear equation. Exact on exact scalars. Returns `None` when the set
/// does not contain the current task (an f64 knife-edge artefact; the
/// caller nudges instead).
fn anchored_constraint_root<S: Scalar>(
    instance: &Instance<S>,
    deadlines: &[S],
    current: usize,
    set: &ViolatedSet<S>,
) -> Option<S> {
    if !set.tasks.contains(&current) {
        return None;
    }
    let mut fixed: Vec<usize> = set
        .tasks
        .iter()
        .copied()
        .filter(|&i| i != current)
        .collect();
    fixed.sort_by(|&a, &b| deadlines[a].total_cmp_s(&deadlines[b]).then(a.cmp(&b)));
    let k = fixed.len();
    // Segment j covers [t_j, t_{j+1}) with t_0 = 0, t_j = D(fixed[j−1]),
    // and an infinite tail after t_k; its fixed-active set is fixed[j..].
    let t_at = |j: usize| -> S {
        if j == 0 {
            S::zero()
        } else {
            deadlines[fixed[j - 1]].clone()
        }
    };
    // rest[j] = fixed-only capacity over [t_j, ∞) (the tail past t_k has
    // no fixed survivors, so it contributes nothing).
    let mut acc = RankOracle::for_machine(&instance.machine);
    let mut rest = vec![S::zero(); k + 1];
    for j in (0..k).rev() {
        acc.add_task(fixed[j], &instance.tasks[fixed[j]].delta);
        rest[j] = rest[j + 1].clone() + (t_at(j + 1) - t_at(j)) * acc.rate();
    }
    // Forward walk: `acc` now holds all fixed members (= segment 0's
    // survivors); `base` accumulates capacity over [0, t_j) with the
    // current task active.
    let cur_delta = instance.tasks[current].delta.clone();
    let mut base = S::zero();
    for j in 0..=k {
        let without = acc.rate();
        let with_cur = {
            // Clone instead of add/sub so f64 accumulator state stays
            // drift-free across segments (a + x − x need not equal a).
            let mut with_acc = acc.clone();
            with_acc.add_task(current, &cur_delta);
            with_acc.rate()
        };
        // cap_T at C = t_j, and its slope within this segment.
        let cap_at_start = base.clone() + rest[j].clone();
        let slope = with_cur.clone() - without;
        if slope.is_positive() && cap_at_start < set.volume {
            let c = t_at(j) + (set.volume.clone() - cap_at_start) / slope;
            if j == k || c <= t_at(j + 1) {
                return Some(c);
            }
        }
        if j < k {
            base = base + (t_at(j + 1) - t_at(j)) * with_cur;
            acc.sub_task(fixed[j], &instance.tasks[fixed[j]].delta);
        }
    }
    // Unreachable in exact arithmetic (the final segment's slope is the
    // current task's own rank f({cur}) > 0); an f64 knife-edge falls
    // back to the caller's slack-nudge.
    None
}

/// **Greedy(σ) on related machines**: insert the tasks in the given
/// order; each task receives the *earliest completion time* that keeps
/// the already-placed prefix transport-feasible (earlier tasks keep the
/// deadlines they were promised). The per-task minimization walks the
/// Newton loop of the frontier searches ([`crate::algos::parametric`])
/// from the task's height, jumping to anchored constraint roots — exact
/// on exact scalars — and the final deadline vector is materialized by
/// [`flow_witness`]. On identical machines this is the completion-time
/// formulation of Algorithm 3's greedy principle.
///
/// # Errors
/// Validation failures, non-permutation orders, or
/// [`ScheduleError::Unconverged`] on a pathological float knife-edge.
pub fn greedy_related<S: Scalar>(
    instance: &Instance<S>,
    order: &[TaskId],
) -> Result<ColumnSchedule<S>, ScheduleError> {
    instance.validate()?;
    let n = instance.n();
    if !crate::algos::orders::is_permutation(order, n) {
        return Err(ScheduleError::InvalidInstance {
            reason: format!("order is not a permutation of 0..{n}"),
        });
    }
    let hs = heights(instance);
    // One session across the whole insertion sweep: within one task's
    // completion search only that deadline moves (warm solves); when the
    // prefix grows the topology changes and the session rebuilds cold
    // automatically.
    let mut session = ProbeSession::new();
    // The prefix instance grows in σ-order; `deadlines` is aligned to it.
    // Eligibility sets are task-indexed, so a restricted machine is
    // re-indexed onto the σ-prefix as it grows: each insertion pushes the
    // new task's set into the prefix model in place.
    let restricted = instance.machine.restriction();
    let mut prefix = Instance::on(
        match restricted {
            Some((m, _)) => MachineModel::RestrictedAssignment {
                m,
                eligible: Vec::with_capacity(n),
            },
            None => instance.machine.clone(),
        },
        Vec::new(),
    );
    let mut deadlines: Vec<S> = Vec::with_capacity(n);
    for &id in order {
        prefix.tasks.push(instance.task(id).clone());
        if let (Some((_, all)), MachineModel::RestrictedAssignment { eligible, .. }) =
            (restricted, &mut prefix.machine)
        {
            eligible.push(all[id.0].clone());
            prefix.p = prefix.machine.capacity();
        }
        let cur = prefix.n() - 1;
        // The prefix keeps its promised deadlines; only the new task's
        // completion `c` is the parameter.
        let with_cur = |c: &S| -> Vec<S> {
            let mut all = deadlines.clone();
            all.push(c.clone());
            all
        };
        let c = newton(
            n,
            hs[id.0].clone(),
            "related greedy completion search",
            &mut session,
            with_cur,
            |_, d, session| Probe::flow(violated_set(&prefix, None, d, session)),
            |d, set| anchored_constraint_root(&prefix, d, cur, set),
        )?;
        deadlines.push(c);
    }
    // Deadlines back in original task order, then one witness flow (the
    // prefix order differs from the task order, so this solve rebuilds —
    // through the same arena).
    let mut by_task = vec![S::zero(); n];
    for (k, &id) in order.iter().enumerate() {
        by_task[id.0] = deadlines[k].clone();
    }
    flow_witness(instance, None, &by_task, &mut session)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigratio::Rational;

    fn related_inst() -> Instance {
        // speeds (2, 1, 1): P = 4, but two δ = 1 tasks share at most 3.
        Instance::builder(0.0)
            .tasks([(3.0, 1.0, 1.0), (3.0, 2.0, 1.0), (2.0, 1.0, 3.0)])
            .speeds(vec![2.0, 1.0, 1.0])
            .build()
            .unwrap()
    }

    #[test]
    fn flow_witness_validates_on_related_machines() {
        let inst = related_inst();
        let mut session = ProbeSession::new();
        let s = flow_witness(&inst, None, &[4.0, 4.0, 4.0], &mut session).unwrap();
        s.validate(&inst).unwrap();
        for (i, c) in s.completions.iter().enumerate() {
            assert!(*c <= 4.0 + 1e-9, "task {i} past its deadline: {c}");
        }
        // Tight deadlines are rejected with a certificate.
        assert!(matches!(
            flow_witness(&inst, None, &[1.0, 1.0, 1.0], &mut session),
            Err(ScheduleError::InfeasibleCompletionTimes { .. })
        ));
    }

    #[test]
    fn greedy_related_promises_are_kept_in_order() {
        let inst = related_inst();
        let order: Vec<TaskId> = (0..3).map(TaskId).collect();
        let s = greedy_related(&inst, &order).unwrap();
        s.validate(&inst).unwrap();
        // First task alone: completes at its height V/rate_cap = 3/2.
        assert!((s.completions[0] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn greedy_related_single_task_exact() {
        let q = Rational::from_f64_exact;
        let inst = Instance::<Rational>::builder(q(0.0))
            .task(q(3.0), q(1.0), q(2.0))
            .speeds(vec![q(2.0), q(1.0)])
            .build()
            .unwrap();
        let s = greedy_related(&inst, &[TaskId(0)]).unwrap();
        s.validate(&inst).unwrap();
        assert_eq!(s.completions[0], Rational::from_int(1)); // 3 / (2+1)
    }

    #[test]
    fn greedy_root_counts_capacity_after_the_candidate_deadline() {
        // speeds (2, 1): F (δ = 1, V = 19) is promised 9.5 first; then
        // X (δ = 2, V = 2) arrives. The binding pair constraint is
        // cap_{X,F}(C) = 3C + 2(9.5 − C) = C + 19 ≥ 21 ⇒ C = 2 — a
        // walk that pretends all 21 units must land before C would
        // overshoot to 21/3 = 7. The search must land on exactly 2.
        let q = Rational::from_f64_exact;
        let inst = Instance::<Rational>::builder(q(0.0))
            .task(q(19.0), q(1.0), q(1.0)) // F
            .task(q(2.0), q(1.0), q(2.0)) // X
            .speeds(vec![q(2.0), q(1.0)])
            .build()
            .unwrap();
        let s = greedy_related(&inst, &[TaskId(0), TaskId(1)]).unwrap();
        s.validate(&inst).unwrap(); // zero tolerance
        assert_eq!(s.completions[0], Rational::new(19, 2));
        assert_eq!(
            s.completions[1],
            Rational::from_int(2),
            "X's earliest feasible completion is 2 (F keeps absorbing after C)"
        );
    }

    #[test]
    fn greedy_related_rejects_bad_orders() {
        let inst = related_inst();
        assert!(greedy_related(&inst, &[TaskId(0)]).is_err());
    }
}
