//! **Integer Water-Filling** — the Theorem-10 variant of Algorithm 2.
//!
//! The naive route to an integer schedule — fractional WF followed by the
//! per-column Figure-2 wrap — is valid (Theorem 3) but, as the paper
//! warns, "may result in a much larger number of preemptions": every task
//! picks up O(1) small steps in *each* of its columns, O(n²) in total.
//!
//! The paper's Appendix-A construction instead pours each task directly
//! onto the **integer occupancy staircase**: the machine occupancy
//! `occ(t)` is kept a non-increasing integer step function, and task `i`
//! (in completion order) raises the region `occ(t) < h` below its
//! fractional water level `h` to `⌈h⌉` on an earliest prefix and `⌊h⌋`
//! after, saturating at `occ + δᵢ` where the level is out of reach. Small
//! steps already in the staircase are *consumed* by later tasks, which is
//! exactly the amortization behind Claim 1
//! (`Nᵢ₊₁ + Mᵢ₊₁ ≤ Nᵢ + Mᵢ + 3`) and the `≤ 3n` preemption bound of
//! Theorem 10.
//!
//! The staircase is built from the same pieces as Greedy(σ)'s
//! availability profile ([`crate::algos::greedy`]): every breakpoint is
//! kept exactly, and neighbouring pieces merge only when their heights are
//! exactly equal. Each task's fractional level is solved by the one
//! Water-Filling pour of [`crate::algos::waterfill`], on a profile of the
//! staircase's pieces.
//!
//! Generic over the scalar like the fractional algorithm: the `f64` path
//! accepts `P`/`δ` that are integral up to the instance-scaled tolerance
//! (values like `4.000000000000001` produced by upstream float arithmetic
//! are snapped, not rejected), while an exact field demands — and
//! delivers — exact integrality.

use crate::algos::greedy::{push_piece, Piece};
use crate::algos::waterfill::WaterProfile;
use crate::error::ScheduleError;
use crate::instance::{Instance, TaskId};
use crate::schedule::step::{Segment, StepSchedule};
use numkit::{Scalar, Tolerance};

/// Integer Water-Filling: given integer `P` and integer caps `δᵢ`,
/// construct an integer step schedule in which task `i` completes at (or,
/// when its last fragment rounds down to the staircase, just before)
/// `completions[i]`, with at most ~3 allocation changes per task on
/// average (Theorem 10).
///
/// `P` and the effective caps only need to be integral *up to the
/// instance-scaled tolerance* — near-integers coming out of upstream
/// float arithmetic are snapped to the integer grid before the pour (for
/// exact scalars the tolerance is zero, so integrality is exact).
///
/// # Errors
/// * [`ScheduleError::InvalidInstance`] for genuinely fractional `P`/`δ`
///   or malformed input;
/// * [`ScheduleError::InfeasibleCompletionTimes`] when no schedule with
///   these completion times exists (same feasibility frontier as the
///   fractional WF, Theorem 8).
pub fn water_filling_integer<S: Scalar>(
    instance: &Instance<S>,
    completions: &[S],
) -> Result<StepSchedule<S>, ScheduleError> {
    instance.validate()?;
    let n = instance.n();
    let tol = Tolerance::<S>::for_instance(n);
    if completions.len() != n {
        return Err(ScheduleError::LengthMismatch {
            what: "completion times",
            expected: n,
            found: completions.len(),
        });
    }
    for c in completions {
        if !c.is_finite() || c.is_negative() {
            return Err(ScheduleError::InvalidTime {
                value: c.to_f64(),
                context: "integer water-filling completion times",
            });
        }
    }
    let p = check_integral(&instance.p, "P", &tol)?;
    for (id, t) in instance.iter() {
        if t.delta <= instance.p {
            check_integral(&t.delta, "δ", &tol)?;
        }
        let _ = id;
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| completions[a].total_cmp_s(&completions[b]).then(a.cmp(&b)));

    let mut profile: Vec<Piece<S>> = Vec::new(); // non-increasing staircase
    let mut out = StepSchedule::empty(instance.p.clone(), n);

    for &ti in &order {
        let task = TaskId(ti);
        let c_i = completions[ti].clone();
        let volume = instance.tasks[ti].volume.clone();
        // Snap the effective cap onto the integer grid too: the pour and
        // the saturated-piece raises must stay integral even when the
        // instance carries a near-integer δ.
        let cap = check_integral(&instance.effective_delta(task), "δ", &tol)?;

        // Extend the staircase domain to C_i with empty occupancy.
        let domain_end = profile.last().map_or_else(S::zero, |s| s.end.clone());
        if c_i > domain_end {
            match profile.last_mut() {
                Some(last) if last.height.is_zero() => last.end = c_i.clone(),
                _ => profile.push(Piece {
                    start: domain_end,
                    end: c_i.clone(),
                    height: S::zero(),
                }),
            }
        }

        // Fractional water level over the staircase pieces: the one
        // Water-Filling pour, on a profile of this staircase.
        let mut water = WaterProfile::with_capacity(profile.len());
        for s in &profile {
            water.append(s.end.clone() - s.start.clone(), s.height.clone());
        }
        let (level, _, _) = water.pour(&cap, &volume, &p, &tol).map_err(|placeable| {
            ScheduleError::InfeasibleCompletionTimes {
                task,
                placeable: placeable.to_f64(),
                required: volume.to_f64(),
            }
        })?;
        // Levels that are integral up to tolerance are snapped so ⌊·⌋/⌈·⌉
        // cannot flip on float noise (a no-op on exact scalars).
        let level = snap_near_integer(level, &tol);

        // Classify pieces: A (untouched), B (flattened to ⌊h⌋/⌈h⌉),
        // C (saturated, +δ). B and C partition a suffix of the timeline
        // because the staircase is non-increasing.
        let hi = level.ceil_s();
        let lo = level.floor_s();
        let is_b = |h: &S| {
            *h < level.clone() - tol.abs.clone()
                && *h > level.clone() - cap.clone() - tol.abs.clone()
        };
        let is_c = |h: &S| *h <= level.clone() - cap.clone() - tol.abs.clone();
        // Area that must land in B.
        let c_len = S::sum(
            profile
                .iter()
                .filter(|s| is_c(&s.height))
                .map(|s| s.end.clone() - s.start.clone()),
        );
        let area_b = volume.clone() - cap.clone() * c_len;
        // Split point: earliest part of B runs at ⌈h⌉.
        // area_b = Σ_B (lo − occ)·len + (s − b_start)  (one extra processor
        // on the prefix), valid because hi = lo + 1 when h is fractional.
        let low_area = S::sum(
            profile
                .iter()
                .filter(|s| is_b(&s.height))
                .map(|s| (s.end.clone() - s.start.clone()) * (lo.clone() - s.height.clone())),
        );
        let mut extra = if hi > lo {
            (area_b - low_area).max_of(S::zero())
        } else {
            S::zero()
        };

        // Walk pieces, build the new staircase and the task's segments.
        let mut new_profile: Vec<Piece<S>> = Vec::with_capacity(profile.len() + 2);
        let mut segs: Vec<Segment<S>> = Vec::new();
        for piece in profile {
            if is_c(&piece.height) {
                let height = piece.height.clone() + cap.clone();
                raise(&mut new_profile, &mut segs, piece, height, cap.clone());
            } else if is_b(&piece.height) {
                // Prefix at hi while `extra` lasts, then lo.
                let len = piece.end.clone() - piece.start.clone();
                let take = extra.clone().min_of(len);
                extra = extra - take.clone();
                let mid = piece.start.clone() + take;
                let head = Piece {
                    end: mid.clone(),
                    ..piece.clone()
                };
                let up = hi.clone() - piece.height.clone();
                raise(&mut new_profile, &mut segs, head, hi.clone(), up);
                let down = lo.clone() - piece.height.clone();
                let tail = Piece {
                    start: mid,
                    ..piece
                };
                raise(&mut new_profile, &mut segs, tail, lo.clone(), down);
            } else {
                push_piece(&mut new_profile, piece);
            }
        }
        profile = new_profile;
        // Staircase invariant (the whole construction rests on it).
        debug_assert!(
            profile
                .windows(2)
                .all(|w| w[0].height.clone() + S::from_f64(0.5) >= w[1].height),
            "integer staircase must be non-increasing: {profile:?}"
        );
        out.allocs[ti] = segs;
    }
    Ok(out)
}

/// Accept values integral up to the tolerance (rounding them onto the
/// grid) and reject the rest. Exact scalars carry a zero tolerance, so
/// only true integers pass.
fn check_integral<S: Scalar>(
    x: &S,
    what: &'static str,
    tol: &Tolerance<S>,
) -> Result<S, ScheduleError> {
    let r = x.round_s();
    if !tol.eq(x.clone(), r.clone()) || r.is_negative() {
        return Err(ScheduleError::InvalidInstance {
            reason: format!(
                "integer water-filling requires integral {what}, got {:?}",
                x
            ),
        });
    }
    Ok(r)
}

/// Snap a value onto the integer grid when it is within tolerance of it.
fn snap_near_integer<S: Scalar>(x: S, tol: &Tolerance<S>) -> S {
    let r = x.round_s();
    if tol.eq(x.clone(), r.clone()) {
        r
    } else {
        x
    }
}

/// Lift `piece` of the staircase to `height`, the task running `procs`
/// processors over it.
fn raise<S: Scalar>(
    profile: &mut Vec<Piece<S>>,
    segs: &mut Vec<Segment<S>>,
    piece: Piece<S>,
    height: S,
    procs: S,
) {
    push_seg(segs, piece.start.clone(), piece.end.clone(), procs);
    push_piece(profile, Piece { height, ..piece });
}

/// Append a segment: empty or zero-count ones are dropped, and a segment
/// merges into its predecessor only when it continues it exactly.
fn push_seg<S: Scalar>(segs: &mut Vec<Segment<S>>, start: S, end: S, procs: S) {
    if end <= start || !procs.is_positive() {
        return;
    }
    debug_assert!(
        (procs.to_f64() - procs.to_f64().round()).abs() < 1e-6,
        "integer WF allocated fractional count {procs:?}"
    );
    let procs = procs.round_s();
    match segs.last_mut() {
        Some(prev) if prev.procs == procs && prev.end == start => prev.end = end,
        _ => segs.push(Segment { start, end, procs }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::wdeq::wdeq_schedule;

    fn tol() -> Tolerance {
        Tolerance::default().scaled(100.0)
    }

    #[test]
    fn single_task_integral_level() {
        // V=6, δ=3, C=2: level 3 exactly → one segment at 3 processors.
        let inst = Instance::builder(4.0).task(6.0, 1.0, 3.0).build().unwrap();
        let s = water_filling_integer(&inst, &[2.0]).unwrap();
        s.validate(&inst).unwrap();
        assert_eq!(s.allocs[0].len(), 1);
        assert_eq!(s.allocs[0][0].procs, 3.0);
    }

    #[test]
    fn fractional_level_splits_once() {
        // V=3, δ=2, C=2 on empty machine: level 1.5 → 2 procs on [0,1],
        // 1 proc on [1,2].
        let inst = Instance::builder(4.0).task(3.0, 1.0, 2.0).build().unwrap();
        let s = water_filling_integer(&inst, &[2.0]).unwrap();
        s.validate(&inst).unwrap();
        assert_eq!(s.allocs[0].len(), 2);
        assert_eq!(s.allocs[0][0].procs, 2.0);
        assert_eq!(s.allocs[0][1].procs, 1.0);
        assert!((s.allocs[0][0].end - 1.0).abs() < 1e-9);
        // Exactly one resource change for the task.
        assert_eq!(s.resource_changes(tol()), 1);
    }

    #[test]
    fn later_task_consumes_small_step() {
        // T0 as above leaves a step at t=1. T1 (δ=4, V=5, C=2) pours on
        // top; its allocation absorbs the step.
        let inst = Instance::builder(4.0)
            .task(3.0, 1.0, 2.0)
            .task(5.0, 1.0, 4.0)
            .build()
            .unwrap();
        let s = water_filling_integer(&inst, &[2.0, 2.0]).unwrap();
        s.validate(&inst).unwrap();
        assert!((s.allocated_area(TaskId(1)) - 5.0).abs() < 1e-9);
        // Total machine occupancy is flat at 4 on [0, 2].
        let occ0 = s.rate_at(TaskId(0), 0.5) + s.rate_at(TaskId(1), 0.5);
        let occ1 = s.rate_at(TaskId(0), 1.5) + s.rate_at(TaskId(1), 1.5);
        assert_eq!(occ0, 4.0);
        assert_eq!(occ1, 4.0);
    }

    #[test]
    fn infeasible_detected() {
        let inst = Instance::builder(2.0).task(5.0, 1.0, 2.0).build().unwrap();
        assert!(matches!(
            water_filling_integer(&inst, &[1.0]),
            Err(ScheduleError::InfeasibleCompletionTimes { .. })
        ));
    }

    #[test]
    fn near_integers_from_float_arithmetic_are_accepted() {
        // Upstream arithmetic easily produces 2.9999999999999996-style
        // caps (0.1 × 30) and the like; rejecting them with an exact
        // integrality check would spuriously fail the Theorem-10 path.
        // They are snapped within the instance-scaled tolerance instead.
        let p = 4.0 + 1e-12;
        let delta = (0.1f64 + 0.2) * 10.0; // 3.0000000000000004
        assert_ne!(delta, 3.0, "the fixture must be off-grid");
        let inst = Instance::builder(p)
            .task(6.0, 1.0, delta)
            .task(3.0, 1.0, 1.0 + 1e-13)
            .build()
            .unwrap();
        let s = water_filling_integer(&inst, &[2.0, 3.0]).unwrap();
        s.validate(&inst).unwrap();
        // The pour ran on the snapped integer grid.
        assert_eq!(s.allocs[0][0].procs, 3.0);
    }

    #[test]
    fn fractional_inputs_rejected() {
        let inst = Instance::builder(2.5).task(1.0, 1.0, 1.0).build().unwrap();
        assert!(matches!(
            water_filling_integer(&inst, &[1.0]),
            Err(ScheduleError::InvalidInstance { .. })
        ));
        let inst = Instance::builder(4.0).task(1.0, 1.0, 1.5).build().unwrap();
        assert!(matches!(
            water_filling_integer(&inst, &[1.0]),
            Err(ScheduleError::InvalidInstance { .. })
        ));
    }

    #[test]
    fn exact_integer_water_filling_is_exact() {
        // The generic construction at Rational: integral levels, exact
        // volume conservation, zero-tolerance validation — and a truly
        // fractional exact cap is rejected (the exact tolerance is zero).
        use bigratio::Rational;
        let q = Rational::from_f64_exact;
        let inst = Instance::<Rational>::builder(q(4.0))
            .task(q(3.0), q(1.0), q(2.0))
            .task(q(5.0), q(1.0), q(4.0))
            .build()
            .unwrap();
        let s = water_filling_integer(&inst, &[q(2.0), q(2.0)]).unwrap();
        s.validate(&inst).unwrap(); // zero tolerance
        assert_eq!(s.allocated_area(TaskId(0)), q(3.0));
        assert_eq!(s.allocated_area(TaskId(1)), q(5.0));

        let frac = Instance::<Rational>::builder(q(4.0))
            .task(q(1.0), q(1.0), Rational::new(3, 2))
            .build()
            .unwrap();
        assert!(matches!(
            water_filling_integer(&frac, &[q(1.0)]),
            Err(ScheduleError::InvalidInstance { .. })
        ));
    }

    #[test]
    fn valid_on_wdeq_completions_and_bounded_changes() {
        use malleable_workloads_shim::integer_instance;
        for seed in 0..20u64 {
            let inst = integer_instance(12, 8, seed);
            let src = wdeq_schedule(&inst);
            let s = water_filling_integer(&inst, src.completion_times()).unwrap();
            s.validate(&inst).unwrap();
            // Completion times never move later.
            for (a, b) in s.completion_times().iter().zip(src.completion_times()) {
                assert!(*a <= b + 1e-6, "integer WF delayed a task: {a} > {b}");
            }
            // Theorem 10's resource-change bound.
            let changes = s.resource_changes(tol());
            assert!(
                changes <= 3 * inst.n(),
                "3n bound violated: {changes} changes for n = {}",
                inst.n()
            );
        }
    }

    /// Minimal local generator to avoid a dev-dependency cycle with
    /// `malleable-workloads` (which depends on this crate).
    mod malleable_workloads_shim {
        use crate::instance::{Instance, Task};

        pub fn integer_instance(n: usize, p: u64, seed: u64) -> Instance {
            // Tiny deterministic LCG: good enough for fixture variety.
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            Instance::identical(
                p as f64,
                (0..n)
                    .map(|_| {
                        let delta = 1.0 + (next() * p as f64).floor().min(p as f64 - 1.0);
                        Task::new(0.2 + next() * p as f64, 0.1 + next(), delta)
                    })
                    .collect(),
            )
        }
    }
}
