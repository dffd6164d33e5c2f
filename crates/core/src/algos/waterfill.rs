//! **Water-Filling** (Algorithm 2) — the paper's normal form for malleable
//! schedules, and its feasibility test.
//!
//! Given only the target completion times `(Cᵢ)`, WF reconstructs a
//! canonical valid schedule whenever one exists (Theorem 8). Tasks are
//! processed in completion order; task `Tᵢ` pours its volume `Vᵢ` into
//! the columns ending by `Cᵢ` like water, subject to the per-column rate
//! cap `δᵢ`: the minimal *water level* `hᵢ` with
//! `W(hᵢ) = Σ_k l_k · clamp(hᵢ − h_k, 0, δᵢ) = Vᵢ` is found, and every
//! column is raised to `min(hᵢ, h_k + δᵢ)`.
//!
//! There is one pour, `WaterProfile::pour`, behind every entry point:
//! the normal form ([`water_filling`]), the feasibility test
//! ([`wf_feasible`], which the `Lmax` frontier search probes), and the
//! level of integer Water-Filling
//! ([`crate::algos::waterfill_int`]). The profile is a **lazy segment
//! tree over the columns in time order**: each node aggregates `Σ lₖ`,
//! `Σ lₖ·hₖ` and `min hₖ` over its span, with range-assign (the pour's
//! plateau) and range-add (`+δᵢ` on the deep suffix) lazies. Lemma 3 keeps
//! heights non-increasing in time, so the three regions a pour creates —
//! untouched prefix, plateau, `+δ` suffix — are contiguous index ranges
//! found by `O(log n)` descents on the `min h` aggregate, with exact
//! thresholds (`h < level` and `h ≤ level − δᵢ`). The level itself is
//! solved by bracketing the two monotone breakpoint families `{hₖ}` and
//! `{hₖ + δᵢ}` with `O(log n)` evaluations of `W`, so a pour costs
//! `O(log² n)` whatever the profile looks like (see the regression test
//! `adversarial_staircase_does_near_linear_work`). The normal form then
//! spends `O(1)` per emitted rate.
//!
//! The pour always solves for the full volume and never drops a column or
//! a rate: the instance tolerance only decides the feasibility verdict
//! (`W(P) + slack ≥ Vᵢ`). When that verdict holds only by the slack, the
//! level is `P` and the task takes every column's remaining room.
//!
//! The whole module is generic over the scalar field `S`: instantiated at
//! `f64` it is the production path; instantiated at `bigratio::Rational`
//! the levels are solved exactly (the pour only adds, multiplies and
//! divides), so feasibility verdicts are *certificates*, not tolerance
//! calls.
//!
//! Properties proved in the paper and asserted here:
//! * after each task, column heights are non-increasing in time (Lemma 3);
//! * WF succeeds iff *any* valid schedule with these completion times
//!   exists (Lemma 4 / Theorem 8);
//! * the total number of allocation changes is `≤ n` (Lemma 5), hence ≤ 1
//!   preemption per task on average in the fractional regime (Theorem 9)
//!   and ≤ 3n preemptions after integer conversion (Theorem 10).

use crate::error::ScheduleError;
use crate::instance::{Instance, TaskId};
use crate::schedule::column::{Column, ColumnSchedule};
use numkit::{Scalar, Tolerance};

/// Outcome of a successful Water-Filling run.
#[derive(Debug, Clone)]
pub struct WaterFillOutcome<S = f64> {
    /// The normal-form schedule.
    pub schedule: ColumnSchedule<S>,
    /// Water level `hᵢ` chosen for each task (diagnostics/tests).
    pub levels: Vec<S>,
}

/// Run Water-Filling for `instance` against target completion times
/// `completions` (indexed by task id). Returns the normal-form schedule.
///
/// ```
/// use malleable_core::algos::waterfill::water_filling;
/// use malleable_core::instance::Instance;
///
/// let inst = Instance::builder(4.0).task(6.0, 1.0, 3.0).build().unwrap();
/// // Feasible: 6 units at ≤ 3 procs by t = 2.
/// let s = water_filling(&inst, &[2.0]).unwrap();
/// assert!(s.validate(&inst).is_ok());
/// // Infeasible: only 3 units fit by t = 1 (Theorem 8 certifies it).
/// assert!(water_filling(&inst, &[1.0]).is_err());
/// ```
///
/// # Errors
/// * [`ScheduleError::InfeasibleCompletionTimes`] if no valid schedule has
///   these completion times (Theorem 8 makes this a certificate);
/// * [`ScheduleError::LengthMismatch`] / [`ScheduleError::InvalidTime`] on
///   malformed input.
pub fn water_filling<S: Scalar>(
    instance: &Instance<S>,
    completions: &[S],
) -> Result<ColumnSchedule<S>, ScheduleError> {
    water_filling_full(instance, completions).map(|o| o.schedule)
}

/// [`water_filling`] exposing the chosen water levels.
///
/// # Errors
/// As [`water_filling`].
pub fn water_filling_full<S: Scalar>(
    instance: &Instance<S>,
    completions: &[S],
) -> Result<WaterFillOutcome<S>, ScheduleError> {
    let n = instance.n();
    // Per active column (one per distinct completion time): its height,
    // its length, and the schedule column it is. A tied completion adds an
    // empty schedule column of length 0 and no active column.
    let mut heights: Vec<S> = Vec::with_capacity(n);
    let mut lengths: Vec<S> = Vec::with_capacity(n);
    let mut column_of: Vec<usize> = Vec::with_capacity(n);
    let mut columns: Vec<Column<S>> = Vec::with_capacity(n);
    let mut levels = vec![S::zero(); n];
    let tol = Tolerance::<S>::for_instance(n);
    let (verdict, _) = pour_in_order(instance, completions, |ti, fresh, cap, level, a| {
        let task = TaskId(ti);
        let start = columns.last().map_or_else(S::zero, |c| c.end.clone());
        columns.push(Column {
            start,
            end: completions[ti].clone(),
            rates: Vec::new(),
        });
        if let Some(length) = fresh {
            heights.push(S::zero());
            lengths.push(length);
            column_of.push(columns.len() - 1);
        }
        let mut poured = S::zero();
        for k in a..heights.len() {
            let rate = (level.clone() - heights[k].clone()).min_of(cap.clone());
            if rate.is_positive() {
                heights[k] = heights[k].clone() + rate.clone();
                poured = poured + rate.clone() * lengths[k].clone();
                columns[column_of[k]].rates.push((task, rate));
            }
        }
        levels[ti] = level.clone();
        // The pour accounts for the full volume (exactly, for exact
        // scalars; up to rounding and the verdict's slack for floats).
        let volume = &instance.tasks[ti].volume;
        debug_assert!(
            tol.clone().scaled(8.0).eq(poured.clone(), volume.clone()),
            "poured {poured:?} vs volume {volume:?}"
        );
        // Lemma 3: heights non-increasing in time.
        debug_assert!(
            heights[a.saturating_sub(1)..]
                .windows(2)
                .all(|w| w[0].clone() + tol.slack(w[0].clone(), w[1].clone()) >= w[1]),
            "water-filling heights must be non-increasing: {heights:?}"
        );
    })?;
    verdict?;

    Ok(WaterFillOutcome {
        schedule: ColumnSchedule {
            p: instance.p.clone(),
            completions: completions.to_vec(),
            columns,
        },
        levels,
    })
}

/// Feasibility of completion times without materializing the allocation:
/// `true` iff [`water_filling`] would succeed (Theorem 8: iff any valid
/// schedule with these completion times exists). Malformed input is
/// infeasible. `O(log² n)` per task.
pub fn wf_feasible<S: Scalar>(instance: &Instance<S>, completions: &[S]) -> bool {
    wf_feasible_with_work(instance, completions).is_ok_and(|(ok, _)| ok)
}

/// [`wf_feasible`] plus the number of segment-tree node visits the run
/// performed — instrumentation for the near-linear-work regression tests
/// and the scaling benchmarks.
///
/// # Errors
/// Same input validation as [`water_filling`].
pub fn wf_feasible_with_work<S: Scalar>(
    instance: &Instance<S>,
    completions: &[S],
) -> Result<(bool, u64), ScheduleError> {
    let mut sp = malleable_trace::span("wf.feasible");
    sp.arg("n", completions.len() as u64);
    let (verdict, work) = pour_in_order(instance, completions, |_, _, _, _, _| {})?;
    sp.arg("feasible", u64::from(verdict.is_ok()));
    sp.arg("tree_visits", work);
    malleable_trace::counter("wf.tree_visits", work);
    Ok((verdict.is_ok(), work))
}

/// Validate the input, then pour every task in completion order (ties by
/// id) into one [`WaterProfile`], calling
/// `place(task, fresh, cap, level, a)` after each pour: `fresh` is the
/// length of the column this task's completion opened (`None` when it
/// ties the previous completion), `cap` the task's rate cap, and
/// `[a, len)` the columns the pour raised.
///
/// Returns the Theorem-8 verdict — `Err(InfeasibleCompletionTimes)` for
/// the first task that does not fit — and the tree visits; the outer
/// error is malformed input.
fn pour_in_order<S: Scalar>(
    instance: &Instance<S>,
    completions: &[S],
    mut place: impl FnMut(usize, Option<S>, &S, &S, usize),
) -> Result<(Result<(), ScheduleError>, u64), ScheduleError> {
    instance.validate()?;
    // The pour reasons in rate space (per-task cap, level ≤ P), which is
    // only a complete feasibility test on identical/uniform machines;
    // heterogeneous instances use `algos::related::flow_witness`.
    instance.require_uniform_machine("Water-Filling")?;
    let n = instance.n();
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
                context: "water-filling completion times",
            });
        }
    }
    let tol = Tolerance::<S>::for_instance(n);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| completions[a].total_cmp_s(&completions[b]).then(a.cmp(&b)));

    let mut profile = WaterProfile::<S>::with_capacity(n);
    let mut domain_end = S::zero();
    for ti in order {
        let c_i = &completions[ti];
        let fresh = (*c_i > domain_end).then(|| c_i.clone() - domain_end.clone());
        if let Some(length) = &fresh {
            profile.append(length.clone(), S::zero());
            domain_end = c_i.clone();
        }
        let task = TaskId(ti);
        let cap = instance.effective_delta(task);
        let volume = &instance.tasks[ti].volume;
        match profile.pour(&cap, volume, &instance.p, &tol) {
            Ok((level, a, _)) => place(ti, fresh, &cap, &level, a),
            Err(placeable) => {
                let verdict = Err(ScheduleError::InfeasibleCompletionTimes {
                    task,
                    placeable: placeable.to_f64(),
                    required: volume.to_f64(),
                });
                return Ok((verdict, profile.work));
            }
        }
    }
    Ok((Ok(()), profile.work))
}

/// The water profile: a lazy segment tree over the columns in time order.
/// Leaves are activated append-only; Water-Filling keeps heights
/// non-increasing in time (Lemma 3), which the boundary descents and the
/// level bracket rely on.
pub(crate) struct WaterProfile<S> {
    /// Leaf slots (power of two).
    size: usize,
    /// Active columns.
    len: usize,
    /// Σ length over active leaves in the span.
    sum_len: Vec<S>,
    /// Σ length·height over active leaves in the span.
    sum_lh: Vec<S>,
    /// min height over active leaves (meaningless when `cnt == 0`).
    min_h: Vec<S>,
    /// Active leaves in the span.
    cnt: Vec<usize>,
    /// Pending height increment for the span.
    add: Vec<S>,
    /// Pending height assignment for the span (applied before `add`).
    assign: Vec<Option<S>>,
    /// Tree nodes visited, for the near-linear work regression test.
    work: u64,
}

impl<S: Scalar> WaterProfile<S> {
    pub(crate) fn with_capacity(columns: usize) -> Self {
        let size = columns.max(1).next_power_of_two();
        WaterProfile {
            size,
            len: 0,
            sum_len: vec![S::zero(); 2 * size],
            sum_lh: vec![S::zero(); 2 * size],
            min_h: vec![S::zero(); 2 * size],
            cnt: vec![0; 2 * size],
            add: vec![S::zero(); 2 * size],
            assign: vec![None; 2 * size],
            work: 0,
        }
    }

    fn apply_assign(&mut self, x: usize, v: S) {
        self.sum_lh[x] = v.clone() * self.sum_len[x].clone();
        self.min_h[x] = v.clone();
        if x < self.size {
            self.assign[x] = Some(v);
            self.add[x] = S::zero();
        }
    }

    fn apply_add(&mut self, x: usize, a: S) {
        self.sum_lh[x] = self.sum_lh[x].clone() + a.clone() * self.sum_len[x].clone();
        self.min_h[x] = self.min_h[x].clone() + a.clone();
        if x < self.size {
            match self.assign[x].take() {
                Some(v) => self.assign[x] = Some(v + a),
                None => self.add[x] = self.add[x].clone() + a,
            }
        }
    }

    fn push_down(&mut self, x: usize) {
        if let Some(v) = self.assign[x].take() {
            self.apply_assign(2 * x, v.clone());
            self.apply_assign(2 * x + 1, v);
        }
        if !self.add[x].is_zero() {
            let a = std::mem::replace(&mut self.add[x], S::zero());
            self.apply_add(2 * x, a.clone());
            self.apply_add(2 * x + 1, a);
        }
    }

    fn pull(&mut self, x: usize) {
        let (l, r) = (2 * x, 2 * x + 1);
        self.sum_len[x] = self.sum_len[l].clone() + self.sum_len[r].clone();
        self.sum_lh[x] = self.sum_lh[l].clone() + self.sum_lh[r].clone();
        self.cnt[x] = self.cnt[l] + self.cnt[r];
        self.min_h[x] = match (self.cnt[l] > 0, self.cnt[r] > 0) {
            (true, true) => self.min_h[l].clone().min_of(self.min_h[r].clone()),
            (true, false) => self.min_h[l].clone(),
            _ => self.min_h[r].clone(),
        };
    }

    /// Walk from the root to the leaf of column `idx`, pushing pending
    /// lazies down; returns the leaf's node index.
    fn descend(&mut self, idx: usize) -> usize {
        let mut x = 1;
        let (mut lo, mut hi) = (0, self.size);
        while x < self.size {
            self.work += 1;
            self.push_down(x);
            let mid = (lo + hi) / 2;
            if idx < mid {
                x *= 2;
                hi = mid;
            } else {
                x = 2 * x + 1;
                lo = mid;
            }
        }
        x
    }

    /// Activate the next leaf as a column of `length` at `height`.
    pub(crate) fn append(&mut self, length: S, height: S) {
        debug_assert!(self.len < self.size, "profile capacity exceeded");
        let mut x = self.descend(self.len);
        self.sum_lh[x] = length.clone() * height.clone();
        self.sum_len[x] = length;
        self.min_h[x] = height;
        self.cnt[x] = 1;
        while x > 1 {
            x /= 2;
            self.pull(x);
        }
        self.len += 1;
    }

    /// First active index whose height is `< thr` (`strict`) or `≤ thr`,
    /// or `len` when none qualifies.
    fn first_below(&mut self, thr: &S, strict: bool) -> usize {
        let qualifies = |h: &S| if strict { h < thr } else { h <= thr };
        let mut x = 1;
        if self.cnt[x] == 0 || !qualifies(&self.min_h[x]) {
            return self.len;
        }
        let (mut lo, mut hi) = (0, self.size);
        while x < self.size {
            self.work += 1;
            self.push_down(x);
            let mid = (lo + hi) / 2;
            let l = 2 * x;
            if self.cnt[l] > 0 && qualifies(&self.min_h[l]) {
                x = l;
                hi = mid;
            } else {
                x = l + 1;
                lo = mid;
            }
        }
        lo
    }

    /// `(Σ length, Σ length·height)` over active columns in `[a, b)`.
    fn range_sums(&mut self, a: usize, b: usize) -> (S, S) {
        if a >= b {
            return (S::zero(), S::zero());
        }
        self.range_sums_in(1, 0, self.size, a, b)
    }

    fn range_sums_in(&mut self, x: usize, lo: usize, hi: usize, a: usize, b: usize) -> (S, S) {
        self.work += 1;
        if b <= lo || hi <= a {
            return (S::zero(), S::zero());
        }
        if a <= lo && hi <= b {
            return (self.sum_len[x].clone(), self.sum_lh[x].clone());
        }
        self.push_down(x);
        let mid = (lo + hi) / 2;
        let (l1, s1) = self.range_sums_in(2 * x, lo, mid, a, b);
        let (l2, s2) = self.range_sums_in(2 * x + 1, mid, hi, a, b);
        (l1 + l2, s1 + s2)
    }

    /// Range update on `[a, b)`: assign height `v` or add `delta`.
    fn range_apply(&mut self, a: usize, b: usize, op: &RangeOp<S>) {
        if a >= b {
            return;
        }
        self.range_apply_in(1, 0, self.size, a, b, op);
    }

    fn range_apply_in(
        &mut self,
        x: usize,
        lo: usize,
        hi: usize,
        a: usize,
        b: usize,
        op: &RangeOp<S>,
    ) {
        self.work += 1;
        if b <= lo || hi <= a {
            return;
        }
        if a <= lo && hi <= b {
            match op {
                RangeOp::Assign(v) => self.apply_assign(x, v.clone()),
                RangeOp::Add(d) => self.apply_add(x, d.clone()),
            }
            return;
        }
        self.push_down(x);
        let mid = (lo + hi) / 2;
        self.range_apply_in(2 * x, lo, mid, a, b, op);
        self.range_apply_in(2 * x + 1, mid, hi, a, b, op);
        self.pull(x);
    }

    /// The regions a pour at `level` creates: `[a, b)` is the plateau
    /// (`h < level`) and `[b, len)` the `+cap` suffix (`h ≤ level − cap`).
    fn regions(&mut self, level: &S, cap: &S) -> (usize, usize) {
        let a = self.first_below(level, true);
        let b = self.first_below(&(level.clone() - cap.clone()), false);
        (a, b)
    }

    /// The filled volume `W(level) = Σₖ lₖ·clamp(level − hₖ, 0, cap)`.
    fn filled_at(&mut self, level: &S, cap: &S) -> S {
        let (a, b) = self.regions(level, cap);
        let (lin_len, lin_lh) = self.range_sums(a, b);
        let (deep_len, _) = self.range_sums(b, self.len);
        level.clone() * lin_len - lin_lh + cap.clone() * deep_len
    }

    /// Pour `volume` at per-column cap `cap` with machine ceiling `p`:
    /// solve the minimal level `h ≤ p` with `W(h) = volume`, raise the
    /// plateau `[a, b)` to `h` and the suffix `[b, len)` by `cap`, and
    /// return `(h, a, b)`. The tolerance only decides the verdict: when
    /// `W(p) + slack < volume` the pour fails with `Err(W(p))`, the volume
    /// that fits (Theorem 8: infeasible); when `W(p) < volume` holds within
    /// the slack, the level is `p`.
    pub(crate) fn pour(
        &mut self,
        cap: &S,
        volume: &S,
        p: &S,
        tol: &Tolerance<S>,
    ) -> Result<(S, usize, usize), S> {
        let full = self.filled_at(p, cap);
        if full.clone() + tol.slack(volume.clone(), S::zero()) < *volume {
            return Err(full);
        }
        if self.len == 0 {
            // Only a volume within the slack fits; nothing to raise.
            return Ok((S::zero(), 0, 0));
        }
        let level = if full < *volume {
            p.clone()
        } else {
            // Bracket the level between consecutive breakpoints of the two
            // monotone families {hₖ} (enter the linear regime) and
            // {hₖ + cap} (saturate at cap), then solve the linear piece.
            let (lo_a, up_a) = self.bracket_family(volume, cap, &S::zero());
            let (lo_b, up_b) = self.bracket_family(volume, cap, cap);
            let lower = match (lo_a, lo_b) {
                (Some(a), Some(b)) => Some(a.max_of(b)),
                (a, b) => a.or(b),
            };
            let upper = match (up_a, up_b) {
                (Some(a), Some(b)) => Some(a.min_of(b)),
                (a, b) => a.or(b),
            };
            // `lower` exists because W is 0 at the lowest column and the
            // volume is positive. `upper` is missing only when W(p) ≥
            // volume holds while rounding put every breakpoint's W a hair
            // below W(p).
            match (lower, upper) {
                (Some(lower), Some(upper)) => {
                    // W is linear on [lower, upper]. The clamp is a no-op
                    // in exact arithmetic and keeps a float level inside
                    // its bracket when rounding flattens W there.
                    let w_lo = self.filled_at(&lower, cap);
                    let w_up = self.filled_at(&upper, cap);
                    let h = lower.clone()
                        + (volume.clone() - w_lo.clone()) * (upper.clone() - lower.clone())
                            / (w_up - w_lo);
                    h.max_of(lower).min_of(upper).min_of(p.clone())
                }
                _ => p.clone(),
            }
        };
        let (a, b) = self.regions(&level, cap);
        self.range_apply(a, b, &RangeOp::Assign(level.clone()));
        self.range_apply(b, self.len, &RangeOp::Add(cap.clone()));
        Ok((level, a, b))
    }

    /// Bracket the pour level within one breakpoint family: breakpoints are
    /// `h_j + offset` with `h_j` non-increasing in `j`. Returns the largest
    /// family value with `W < target` (lower) and the smallest with
    /// `W ≥ target` (upper); `None` for a side the family does not cover.
    fn bracket_family(&mut self, target: &S, cap: &S, offset: &S) -> (Option<S>, Option<S>) {
        let n = self.len;
        let value = |me: &mut Self, j: usize| {
            let leaf = me.descend(j);
            me.min_h[leaf].clone() + offset.clone()
        };
        let reaches = |me: &mut Self, j: usize| {
            let v = value(me, j);
            me.filled_at(&v, cap) >= *target
        };
        // `reaches` is monotone true→false in j (values descend with j).
        if !reaches(self, 0) {
            // Even the largest family value is below the level.
            return (Some(value(self, 0)), None);
        }
        if reaches(self, n - 1) {
            return (None, Some(value(self, n - 1)));
        }
        let (mut lo, mut hi) = (0usize, n - 1); // reaches(lo), !reaches(hi)
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if reaches(self, mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (Some(value(self, hi)), Some(value(self, lo)))
    }
}

enum RangeOp<S> {
    Assign(S),
    Add(S),
}

/// Count of **all** allocation changes in a WF column schedule: for each
/// task, the number of transitions between consecutive positive-length
/// columns where its rate changes while staying positive.
///
/// **Note on Lemma 5.** The paper's accounting counts only the changes
/// inside a task's *unsaturated phase* (its Figure-3 ¶ marks) and bounds
/// those by `n` in total — see [`lemma5_changes`]. The transition from the
/// last unsaturated column *into* the δ-saturated phase is generically
/// also a rate change; including it (as this strict count does) the
/// empirical bound is `2n` (one extra change per task at most). Both
/// counts are exercised in experiment E4.
pub fn allocation_changes<S: Scalar>(
    schedule: &ColumnSchedule<S>,
    n_tasks: usize,
    tol: Tolerance<S>,
) -> usize {
    count_changes(schedule, n_tasks, &tol, |_, _| true)
}

/// The paper's Lemma-5 count: allocation changes whose *new* rate is
/// strictly below the task's cap (i.e. transitions within the unsaturated
/// phase). Bounded by `n` in total (Lemma 5).
pub fn lemma5_changes<S: Scalar>(
    schedule: &ColumnSchedule<S>,
    instance: &Instance<S>,
    tol: Tolerance<S>,
) -> usize {
    let caps: Vec<S> = (0..instance.n())
        .map(|i| instance.effective_delta(TaskId(i)))
        .collect();
    count_changes(schedule, instance.n(), &tol, |task, new_rate| {
        !tol.eq(new_rate.clone(), caps[task].clone())
    })
}

fn count_changes<S: Scalar>(
    schedule: &ColumnSchedule<S>,
    n_tasks: usize,
    tol: &Tolerance<S>,
    count_if: impl Fn(usize, &S) -> bool,
) -> usize {
    let mut changes = 0;
    for i in 0..n_tasks {
        let task = TaskId(i);
        let mut prev_rate: Option<S> = None;
        for col in &schedule.columns {
            if col.len() <= tol.abs {
                continue;
            }
            let r = col.rate_of(task);
            if r <= tol.abs {
                // Before first allocation or after completion: WF tasks
                // occupy a contiguous column range, so no interior gaps.
                if prev_rate.is_some() {
                    break;
                }
                continue;
            }
            if let Some(p) = &prev_rate {
                if !tol.eq(p.clone(), r.clone()) && count_if(i, &r) {
                    changes += 1;
                }
            }
            prev_rate = Some(r);
        }
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::wdeq::wdeq_schedule;
    use bigratio::Rational;

    fn tol() -> Tolerance {
        Tolerance::default().scaled(100.0)
    }

    #[test]
    fn single_task_constant_rate() {
        let inst = Instance::builder(4.0).task(6.0, 1.0, 3.0).build().unwrap();
        let s = water_filling(&inst, &[2.0]).unwrap();
        s.validate(&inst).unwrap();
        assert!((s.columns[0].rate_of(TaskId(0)) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_when_too_tight() {
        let inst = Instance::builder(4.0).task(6.0, 1.0, 3.0).build().unwrap();
        // Needs ≥ 1.5 time at δ=3; 2·... C=1 gives only 3 < 6.
        match water_filling(&inst, &[1.0]) {
            Err(ScheduleError::InfeasibleCompletionTimes {
                task, placeable, ..
            }) => {
                assert_eq!(task, TaskId(0));
                assert!((placeable - 3.0).abs() < 1e-9);
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn capacity_binds_across_tasks() {
        // P=2: two unit-cap tasks can share; a third must be infeasible if
        // everything must finish by t=1.
        let inst = Instance::builder(2.0)
            .tasks([(1.0, 1.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0)])
            .build()
            .unwrap();
        assert!(!wf_feasible(&inst, &[1.0, 1.0, 1.0]));
        assert!(wf_feasible(&inst, &[1.0, 1.0, 2.0]));
    }

    #[test]
    fn water_fills_lowest_columns_first() {
        // T0 finishes at 1, T1 at 2; T1's volume should go preferentially
        // into column 2 (empty) before raising column 1.
        let inst = Instance::builder(2.0)
            .task(1.0, 1.0, 1.0) // T0
            .task(1.5, 1.0, 1.0) // T1
            .build()
            .unwrap();
        let s = water_filling(&inst, &[1.0, 2.0]).unwrap();
        s.validate(&inst).unwrap();
        // Column 2 (length 1) takes δ·1 = 1.0 of T1; remaining 0.5 in col 1.
        assert!((s.columns[1].rate_of(TaskId(1)) - 1.0).abs() < 1e-9);
        assert!((s.columns[0].rate_of(TaskId(1)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reconstructs_wdeq_completion_times() {
        let inst = Instance::builder(4.0)
            .tasks([(8.0, 1.0, 2.0), (4.0, 2.0, 4.0), (2.0, 4.0, 1.0)])
            .build()
            .unwrap();
        let wdeq = wdeq_schedule(&inst);
        let wf = water_filling(&inst, wdeq.completion_times()).unwrap();
        wf.validate(&inst).unwrap();
        assert_eq!(wf.completions, wdeq.completions);
    }

    #[test]
    fn lemma5_change_bound_holds() {
        let inst = Instance::builder(4.0)
            .tasks([
                (8.0, 1.0, 2.0),
                (4.0, 2.0, 4.0),
                (2.0, 4.0, 1.0),
                (5.0, 1.0, 3.0),
                (1.0, 2.0, 2.0),
            ])
            .build()
            .unwrap();
        let wdeq = wdeq_schedule(&inst);
        let wf = water_filling(&inst, wdeq.completion_times()).unwrap();
        let changes = allocation_changes(&wf, inst.n(), tol());
        assert!(
            changes <= inst.n(),
            "Lemma 5 violated: {changes} changes for n = {}",
            inst.n()
        );
    }

    #[test]
    fn tied_completion_times() {
        let inst = Instance::builder(2.0)
            .tasks([(1.0, 1.0, 1.0), (1.0, 1.0, 1.0)])
            .build()
            .unwrap();
        let s = water_filling(&inst, &[1.0, 1.0]).unwrap();
        s.validate(&inst).unwrap();
        // One real column [0,1] and one zero-length column.
        assert_eq!(s.columns.len(), 2);
        assert!((s.columns[0].total_rate() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn saturated_columns_stay_below_level() {
        // T0 ends at 1 with rate 2 (column-1 height 2); T1 (δ=1, V=2) ends
        // at 2. T1 is δ-saturated in both columns: rate 1 each, water level
        // 3 on top of column 1.
        let inst = Instance::builder(4.0)
            .task(2.0, 1.0, 2.0)
            .task(2.0, 1.0, 1.0)
            .build()
            .unwrap();
        let out = water_filling_full(&inst, &[1.0, 2.0]).unwrap();
        out.schedule.validate(&inst).unwrap();
        assert!((out.schedule.columns[0].rate_of(TaskId(1)) - 1.0).abs() < 1e-9);
        assert!((out.schedule.columns[1].rate_of(TaskId(1)) - 1.0).abs() < 1e-9);
        assert!((out.levels[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn delta_saturation_infeasibility() {
        let inst = Instance::builder(4.0)
            .task(2.0, 1.0, 2.0)
            .task(2.5, 1.0, 1.0)
            .build()
            .unwrap();
        // δ=1 over 2 time units places at most 2.0 < 2.5 by t = 2.
        assert!(!wf_feasible(&inst, &[1.0, 2.0]));
        assert!(wf_feasible(&inst, &[1.0, 2.5]));
    }

    #[test]
    fn rejects_malformed_input() {
        let inst = Instance::builder(1.0).task(1.0, 1.0, 1.0).build().unwrap();
        assert!(matches!(
            water_filling(&inst, &[1.0, 2.0]),
            Err(ScheduleError::LengthMismatch { .. })
        ));
        assert!(matches!(
            water_filling(&inst, &[-1.0]),
            Err(ScheduleError::InvalidTime { .. })
        ));
        assert!(matches!(
            water_filling(&inst, &[f64::NAN]),
            Err(ScheduleError::InvalidTime { .. })
        ));
        assert!(wf_feasible_with_work(&inst, &[1.0, 2.0]).is_err());
        assert!(wf_feasible_with_work(&inst, &[-1.0]).is_err());
        assert!(!wf_feasible(&inst, &[-1.0]));
    }

    #[test]
    fn idempotent_on_own_output() {
        let inst = Instance::builder(3.0)
            .tasks([(2.0, 1.0, 2.0), (3.0, 1.0, 1.0), (1.0, 1.0, 3.0)])
            .build()
            .unwrap();
        let wdeq = wdeq_schedule(&inst);
        let wf1 = water_filling(&inst, wdeq.completion_times()).unwrap();
        let wf2 = water_filling(&inst, wf1.completion_times()).unwrap();
        for (c1, c2) in wf1.columns.iter().zip(&wf2.columns) {
            assert_eq!(c1.rates.len(), c2.rates.len());
            for (r1, r2) in c1.rates.iter().zip(&c2.rates) {
                assert_eq!(r1.0, r2.0);
                assert!((r1.1 - r2.1).abs() < 1e-9);
            }
        }
    }

    /// The Theorem-8 verdict checked against an independent oracle: the
    /// transportation flow of completion-time feasibility
    /// ([`crate::algos::related::flow_witness`]), exact on identical
    /// machines.
    fn assert_agrees_with_flow(inst: &Instance<Rational>, completions: &[Rational]) -> bool {
        use crate::algos::parametric::ProbeSession;
        use crate::algos::related::flow_witness;
        let flow = flow_witness(inst, None, completions, &mut ProbeSession::new());
        let wf = water_filling(inst, completions);
        match (&wf, &flow) {
            (Ok(s), Ok(_)) => s.validate(inst).unwrap(),
            (
                Err(ScheduleError::InfeasibleCompletionTimes { .. }),
                Err(ScheduleError::InfeasibleCompletionTimes { .. }),
            ) => {}
            _ => panic!("WF {wf:?} vs flow {flow:?} on {completions:?}"),
        }
        assert_eq!(wf_feasible(inst, completions), wf.is_ok());
        wf.is_ok()
    }

    #[test]
    fn agrees_with_the_flow_oracle_on_fixtures() {
        let q = Rational::from_f64_exact;
        let inst = Instance::<Rational>::builder(q(2.0))
            .tasks([
                (q(1.0), q(1.0), q(1.0)),
                (q(1.5), q(1.0), q(0.75)),
                (q(0.5), q(1.0), q(2.0)),
            ])
            .build()
            .unwrap();
        let mut verdicts = Vec::new();
        for completions in [
            [1.0, 2.0, 2.0],
            [1.0, 1.5, 1.5],
            [0.5, 2.5, 3.0],
            [1.0, 1.0, 1.0],
            [1.5, 2.0, 0.25],
            [3.0, 3.0, 3.0],
        ] {
            let completions: Vec<Rational> = completions.iter().map(|&c| q(c)).collect();
            verdicts.push(assert_agrees_with_flow(&inst, &completions));
        }
        assert!(verdicts.contains(&true) && verdicts.contains(&false));
    }

    #[test]
    fn agrees_with_the_flow_oracle_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        // Values on a 1/16 grid keep the exact lane in small rationals.
        let grid = |x: f64| Rational::from_f64_exact((x * 16.0).round().max(1.0) / 16.0);
        let (mut feasible, mut infeasible) = (0, 0);
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(2usize..12);
            let inst = Instance::<Rational>::builder(grid(rng.random_range(1.0..6.0)))
                .tasks((0..n).map(|_| {
                    (
                        grid(rng.random_range(0.1..4.0)),
                        Rational::from_int(1),
                        grid(rng.random_range(0.1..4.0)),
                    )
                }))
                .build()
                .unwrap();
            // WDEQ's completions (feasible by construction), a squeezed
            // copy (often infeasible), and tied deadlines.
            let wdeq = wdeq_schedule(&inst).completions;
            let squeezed: Vec<Rational> = wdeq
                .iter()
                .map(|c| c.clone() * grid(rng.random_range(0.5..1.1)))
                .collect();
            let tied = vec![grid(rng.random_range(0.5..4.0)); n];
            assert!(assert_agrees_with_flow(&inst, &wdeq), "seed {seed}");
            for cs in [squeezed, tied] {
                if assert_agrees_with_flow(&inst, &cs) {
                    feasible += 1;
                } else {
                    infeasible += 1;
                }
            }
        }
        assert!(feasible > 0 && infeasible > 0, "{feasible}/{infeasible}");
    }

    #[test]
    fn feasibility_handles_two_thousand_tasks() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let n = 2000;
        let inst = Instance::builder(16.0)
            .tasks((0..n).map(|_| (rng.random_range(0.1..4.0), 1.0, rng.random_range(0.5..16.0))))
            .build()
            .unwrap();
        let completions = wdeq_schedule(&inst);
        assert!(wf_feasible(&inst, completions.completion_times()));
    }

    #[test]
    fn adversarial_staircase_does_near_linear_work() {
        // Distinct, never-merging heights: task i adds a fresh unit column
        // and fills only it, to a height strictly between its neighbours'.
        // A grouped representation that copies all O(n) groups on every
        // pour is O(n²); the segment tree must stay near-linear.
        let n: usize = 1 << 14;
        let inst = Instance::builder(2.0)
            .tasks((0..n).map(|i| {
                let v = 0.25 + 0.5 * ((n - i) as f64) / n as f64;
                (v, 1.0, 1.0)
            }))
            .build()
            .unwrap();
        let completions: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
        let (ok, work) = wf_feasible_with_work(&inst, &completions).unwrap();
        assert!(ok);
        let log2n = (usize::BITS - n.leading_zeros()) as usize;
        let bound = 24 * n as u64 * (log2n * log2n) as u64;
        assert!(
            work <= bound,
            "adversarial staircase work {work} exceeds near-linear bound {bound} \
             (n² would be {})",
            (n as u64) * (n as u64)
        );
    }

    #[test]
    fn exact_rational_run_is_exact() {
        // The same pour in exact arithmetic: volumes are conserved exactly
        // and the schedule validates with the *zero* tolerance.
        let q = Rational::from_f64_exact;
        let inst = Instance::<Rational>::builder(q(2.0))
            .task(q(1.0), q(1.0), q(1.0))
            .task(q(1.5), q(1.0), q(1.0))
            .build()
            .unwrap();
        let s = water_filling(&inst, &[q(1.0), q(2.0)]).unwrap();
        s.validate(&inst).unwrap(); // zero-tolerance validation
        assert_eq!(s.columns[1].rate_of(TaskId(1)), q(1.0));
        assert_eq!(s.columns[0].rate_of(TaskId(1)), q(0.5));
        assert_eq!(s.allocated_area(TaskId(1)), q(1.5));
        // Infeasibility is an exact verdict, too.
        assert!(!wf_feasible(&inst, &[q(1.0), q(1.2)]));
    }
}
