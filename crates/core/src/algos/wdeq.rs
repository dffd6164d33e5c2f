//! **WDEQ** — Weighted Dynamic EQuipartition (Algorithm 1 of the paper).
//!
//! The non-clairvoyant policy: at every instant, share the machine among
//! the unfinished tasks *in proportion to their weights*; any task whose
//! fair share exceeds its cap `δᵢ` is clamped to `δᵢ` and the surplus is
//! re-shared among the rest (recursively, until a fixpoint). The sharing is
//! recomputed whenever a task completes.
//!
//! Theorem 4: WDEQ is a 2-approximation for `Σ wᵢCᵢ`. The proof (Lemma 2)
//! is constructive: splitting each task's volume into the part processed at
//! *full allocation* (`VFᵢ`) and the part processed while *limited by the
//! equipartition* (`V̄Fᵢ`), the mixed bound `A(I[V̄F]) + H(I[VF])` is a
//! lower bound on `OPT` and WDEQ costs at most twice it. [`wdeq_certificate`]
//! returns that per-run certificate, so every simulation carries its own
//! machine-checkable approximation proof.
//!
//! # Event-driven replay
//!
//! The replay is driven by a completion-event priority structure instead of
//! a per-event rescan of the active set. The key observation is that the
//! fair-share rate per unit weight, `θ = P′/W′` (free capacity over the
//! weight of equipartition-limited tasks), is **monotonically
//! non-decreasing** along the run: a saturated completion returns `δᵢ` to
//! `P′`, a limited completion removes `wᵢ` from `W′`, and promoting a task
//! with `δᵢ/wᵢ ≤ θ` to saturation moves `θ` to `(P′−δᵢ)/(W′−wᵢ) ≥ θ`.
//! Hence each task crosses from *limited* to *δ-saturated* at most once, in
//! ascending `δᵢ/wᵢ` order — a monotone promotion pointer plus two lazy
//! min-heaps (absolute finish times for saturated tasks, *virtual* finish
//! times `v + rem/wᵢ` for limited ones, where `dv = dt·θ`) handle every
//! event in `O(log n)`, for `O(n log n)` total in [`wdeq_completions`].
//! [`wdeq_run`] materializes the column schedule on top of the same engine
//! (output is `Θ(n·events)`, inherent to the column representation).
//!
//! All event times are field operations, so the exact instantiation
//! produces exact completion times — and a certificate whose inequality
//! holds with zero tolerance.
//!
//! The same Algorithm 1 also runs as
//! [`WdeqRule`](crate::policy::rules::WdeqRule) through the generic event
//! loop [`run_rule`](crate::policy::rules::run_rule), which recomputes
//! [`wdeq_allocation`] over the whole active set at every event (`O(n²)`
//! total). That loop is the executable specification of this module: the
//! non-clairvoyant path behind `malleable-sim`'s online engine (with
//! release times), and the oracle the event-driven lanes here are checked
//! against — bit-for-bit at `Rational` in `tests/exactness.rs`.

use crate::algos::events::EventHeap;
use crate::bounds::mixed_bound;
use crate::error::ScheduleError;
use crate::instance::{Instance, TaskId};
use crate::schedule::column::{Column, ColumnSchedule};
use numkit::Scalar;

/// Result of a WDEQ run: the schedule plus the volume split that certifies
/// the 2-approximation.
#[derive(Debug, Clone)]
pub struct WdeqRun<S = f64> {
    /// The produced column schedule.
    pub schedule: ColumnSchedule<S>,
    /// Per task: volume processed while the allocation equalled `min(δᵢ,P)`.
    pub full_volumes: Vec<S>,
    /// Per task: volume processed while limited by the equipartition.
    pub limited_volumes: Vec<S>,
}

/// Completion times and the Lemma-2 volume split, without the column
/// schedule — the `O(n log n)` lane for large instances, where the
/// `Θ(n·events)` column output of [`wdeq_run`] would dominate.
#[derive(Debug, Clone)]
pub struct WdeqCompletions<S = f64> {
    /// Completion time of each task.
    pub completions: Vec<S>,
    /// Per task: volume processed at full allocation (`min(δᵢ,P)`).
    pub full_volumes: Vec<S>,
    /// Per task: volume processed while limited by the equipartition.
    pub limited_volumes: Vec<S>,
    /// Number of completion events handled (distinct event times).
    pub events: usize,
}

impl<S: Scalar> WdeqCompletions<S> {
    /// WDEQ's achieved objective `Σ wᵢ Cᵢ`.
    pub fn weighted_cost(&self, instance: &Instance<S>) -> S {
        S::sum(
            self.completions
                .iter()
                .zip(&instance.tasks)
                .map(|(c, t)| c.clone() * t.weight.clone()),
        )
    }
}

/// The Lemma-2 certificate: `cost(WDEQ) ≤ 2 · value ≤ 2 · OPT`.
#[derive(Debug, Clone)]
pub struct WdeqCertificate<S = f64> {
    /// The mixed lower bound `A(I[V̄F]) + H(I[VF])`.
    value: S,
    /// WDEQ's achieved objective.
    pub wdeq_cost: S,
}

impl<S: Scalar> WdeqCertificate<S> {
    /// The certified lower bound on `OPT(I)`.
    pub fn value(&self) -> S {
        self.value.clone()
    }

    /// The certified ratio `cost / bound` (≤ 2 by Theorem 4, up to float
    /// noise — exactly ≤ 2 in exact arithmetic).
    pub fn ratio(&self) -> S {
        if self.value.is_positive() {
            self.wdeq_cost.clone() / self.value.clone()
        } else {
            S::one()
        }
    }
}

/// Compute the WDEQ equipartition for the *active* tasks.
///
/// `entries` = `(weight, cap)` with `cap = min(δᵢ, P)` pre-clamped; returns
/// the rate of each entry. Single pass over tasks sorted by `cap/weight`:
/// a prefix saturates at its cap, the suffix shares the remainder
/// proportionally (the fixpoint of Algorithm 1's while-loop). The sort key
/// is compared by cross-multiplication (`capₐ·w_b` vs `cap_b·wₐ`), which
/// avoids divisions entirely and needs no infinity sentinel for weightless
/// tasks.
pub fn wdeq_allocation<S: Scalar>(entries: &[(S, S)], p: S) -> Vec<S> {
    let n = entries.len();
    let mut idx: Vec<usize> = (0..n).collect();
    // cap/weight ascending; weightless tasks never saturate by fair share
    // (their share is 0), so they sort last.
    idx.sort_by(|&a, &b| {
        let ((wa, capa), (wb, capb)) = (&entries[a], &entries[b]);
        numkit::scalar::ratio_cmp(capa, wa, capb, wb).then(a.cmp(&b))
    });
    let mut rates = vec![S::zero(); n];
    let mut p_left = p;
    let mut w_left = S::sum(entries.iter().map(|e| e.0.clone()));
    let mut cut = n;
    for (k, &i) in idx.iter().enumerate() {
        let (w, cap) = &entries[i];
        // Saturation test: δ ≤ w·P′/W′  ⇔  δ·W′ ≤ w·P′.
        if w_left.is_positive() && cap.clone() * w_left.clone() <= w.clone() * p_left.clone() {
            rates[i] = cap.clone();
            p_left = p_left - cap.clone();
            w_left = w_left - w.clone();
        } else {
            cut = k;
            break;
        }
    }
    // Remaining tasks share proportionally.
    if cut < n && w_left.is_positive() && p_left.is_positive() {
        for &i in &idx[cut..] {
            let (w, cap) = &entries[i];
            rates[i] = (w.clone() * p_left.clone() / w_left.clone()).min_of(cap.clone());
        }
    }
    rates
}

/// A task's regime along the event-driven replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Regime {
    /// Sharing `wᵢ·P′/W′` (below its cap).
    Limited,
    /// Clamped at `min(δᵢ, P)`.
    Saturated,
    /// Completed.
    Done,
}

/// Everything the event engine produces; columns are only materialized when
/// requested.
struct EngineOutcome<S> {
    completions: Vec<S>,
    full_volumes: Vec<S>,
    limited_volumes: Vec<S>,
    events: usize,
    columns: Vec<Column<S>>,
}

/// The event-driven replay (see the module docs for the invariants).
fn drive<S: Scalar>(
    instance: &Instance<S>,
    collect_columns: bool,
) -> Result<EngineOutcome<S>, ScheduleError> {
    instance.validate()?;
    // The closed-form replay (and its Lemma-2 certificate) is proved for
    // identical machines; the related-machines equipartition is the
    // `wdeq-related` policy (fastest-machines-first realization).
    instance.require_uniform_machine("WDEQ (closed form)")?;
    if instance.tasks.iter().any(|t| !t.weight.is_positive()) {
        return Err(ScheduleError::InvalidInstance {
            reason: "WDEQ requires strictly positive weights".into(),
        });
    }
    let tol = S::default_tolerance();
    let n = instance.n();
    // One span per run with aggregate counters — per-event spans at
    // n ~ 10⁶ would dwarf the O(n log n) work they measure.
    let mut sp = malleable_trace::span("wdeq.drive");
    sp.arg("n", n as u64);
    sp.arg("columns", u64::from(collect_columns));
    let weights: Vec<S> = instance.tasks.iter().map(|t| t.weight.clone()).collect();
    let volumes: Vec<S> = instance.tasks.iter().map(|t| t.volume.clone()).collect();
    let caps: Vec<S> = (0..n)
        .map(|i| instance.effective_delta(TaskId(i)))
        .collect();
    // Completion-within-slack thresholds: a task is done once its
    // remaining volume is `≤ tol.slack(volume, 0)` (zero on exact scalars).
    let slacks: Vec<S> = volumes
        .iter()
        .map(|v| tol.slack(v.clone(), S::zero()))
        .collect();

    // Promotion order: δ/w ascending, ties by id — the same order
    // `wdeq_allocation` saturates its prefix in.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        numkit::scalar::ratio_cmp(&caps[a], &weights[a], &caps[b], &weights[b]).then(a.cmp(&b))
    });

    let mut regime = vec![Regime::Limited; n];
    let mut completions = vec![S::zero(); n];
    let mut full_volumes = vec![S::zero(); n];
    let mut limited_volumes = vec![S::zero(); n];
    let mut columns = Vec::new();

    // P′ = free capacity (P minus the caps of saturated active tasks);
    // W′ = total weight of limited active tasks.
    let mut p_rem = instance.p.clone();
    let mut w_rem = S::sum(weights.iter().cloned());
    let mut sat_heap = EventHeap::with_capacity(n);
    // Limited-completion keys are *static*: every task enters the run
    // limited at v = 0 and its equipartition key V/w never changes, so the
    // limited "heap" is a sorted cursor. Validity is monotone (Limited →
    // Saturated/Done, never back), so skipped entries never revive and the
    // cursor only moves forward — sequential memory, no sift traffic.
    let lim_keys: Vec<S> = (0..n)
        .map(|i| volumes[i].clone() / weights[i].clone())
        .collect();
    let mut lim_order: Vec<usize> = (0..n).collect();
    lim_order.sort_by(|&a, &b| lim_keys[a].total_cmp_s(&lim_keys[b]).then(a.cmp(&b)));
    let mut lim_cur = 0usize;
    let mut ptr = 0usize;
    let mut t_now = S::zero();
    let mut v_now = S::zero();
    let mut active_count = n;
    let mut active: Vec<usize> = if collect_columns {
        (0..n).collect()
    } else {
        Vec::new()
    };
    let mut events = 0usize;
    let mut regime_switches = 0u64;

    // Advance the promotion pointer while the next limited task (in δ/w
    // order) saturates under the current fair share. Runs after every
    // event; θ = P′/W′ never decreases, so `ptr` never needs to back up.
    macro_rules! promote {
        () => {
            while ptr < n {
                let i = order[ptr];
                if regime[i] == Regime::Done {
                    ptr += 1;
                    continue;
                }
                debug_assert_eq!(regime[i], Regime::Limited);
                if w_rem.is_positive()
                    && caps[i].clone() * w_rem.clone() <= weights[i].clone() * p_rem.clone()
                {
                    // Every task enters the run limited at v = 0, so its
                    // equipartition-processed volume is wᵢ·v.
                    let processed = weights[i].clone() * v_now.clone();
                    let rem = tol.clamp_nonneg(volumes[i].clone() - processed);
                    full_volumes[i] = rem.clone();
                    limited_volumes[i] = volumes[i].clone() - rem.clone();
                    regime[i] = Regime::Saturated;
                    regime_switches += 1;
                    p_rem = p_rem - caps[i].clone();
                    w_rem = w_rem - weights[i].clone();
                    sat_heap.push(t_now.clone() + rem / caps[i].clone(), i);
                    ptr += 1;
                } else {
                    break;
                }
            }
        };
    }

    promote!();

    while active_count > 0 {
        // Earliest saturated finish (absolute time) vs earliest limited
        // finish (virtual key mapped through dv = dt·P′/W′).
        let sat_t = sat_heap
            .peek_valid(|i| regime[i] == Regime::Saturated)
            .map(|(k, _)| k.clone());
        while lim_cur < n && regime[lim_order[lim_cur]] != Regime::Limited {
            lim_cur += 1;
        }
        let lim_t = (lim_cur < n).then(|| {
            // W′ > 0 here (a valid limited entry exists) and the
            // promotion invariant keeps P′ > 0 whenever W′ > 0.
            let vk = &lim_keys[lim_order[lim_cur]];
            t_now.clone() + (vk.clone() - v_now.clone()) * w_rem.clone() / p_rem.clone()
        });
        let t_event = match (sat_t, lim_t) {
            (Some(a), Some(b)) => {
                if a.total_cmp_s(&b).is_le() {
                    a
                } else {
                    b
                }
            }
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => unreachable!("every active task has a valid heap entry"),
        };
        // Float noise can predict an event marginally in the past; never
        // run time backwards.
        let t_event = t_event.max_of(t_now.clone());
        let dt = t_event.clone() - t_now.clone();

        if collect_columns && dt.is_positive() {
            let col_rates: Vec<(TaskId, S)> = active
                .iter()
                .map(|&i| {
                    let r = match regime[i] {
                        Regime::Saturated => caps[i].clone(),
                        Regime::Limited => (weights[i].clone() * p_rem.clone() / w_rem.clone())
                            .min_of(caps[i].clone()),
                        Regime::Done => unreachable!("completed tasks leave the active list"),
                    };
                    (TaskId(i), r)
                })
                .collect();
            columns.push(Column {
                start: t_now.clone(),
                end: t_event.clone(),
                rates: col_rates,
            });
        }

        if w_rem.is_positive() {
            v_now = v_now + dt.clone() * p_rem.clone() / w_rem.clone();
        }
        t_now = t_event;
        events += 1;

        // Pop every completion at (or within completion slack of) t_event.
        let mut completed_any = false;
        loop {
            let Some((k, i)) = sat_heap
                .peek_valid(|i| regime[i] == Regime::Saturated)
                .map(|(k, i)| (k.clone(), i))
            else {
                break;
            };
            // remaining = (key − t)·δ ≤ slack.
            if (k - t_now.clone()) * caps[i].clone() <= slacks[i] {
                sat_heap.pop();
                regime[i] = Regime::Done;
                completions[i] = t_now.clone();
                p_rem = p_rem + caps[i].clone();
                active_count -= 1;
                completed_any = true;
            } else {
                break;
            }
        }
        loop {
            while lim_cur < n && regime[lim_order[lim_cur]] != Regime::Limited {
                lim_cur += 1;
            }
            if lim_cur >= n {
                break;
            }
            let i = lim_order[lim_cur];
            let vk = lim_keys[i].clone();
            // remaining = (v_key − v)·w ≤ slack.
            if (vk - v_now.clone()) * weights[i].clone() <= slacks[i] {
                lim_cur += 1;
                regime[i] = Regime::Done;
                completions[i] = t_now.clone();
                w_rem = w_rem - weights[i].clone();
                // Never promoted: the whole volume was equipartition-limited.
                limited_volumes[i] = volumes[i].clone();
                active_count -= 1;
                completed_any = true;
            } else {
                break;
            }
        }
        debug_assert!(completed_any, "each WDEQ event completes ≥ 1 task");
        if collect_columns {
            active.retain(|&i| regime[i] != Regime::Done);
        }
        promote!();
    }

    sp.arg("events", events as u64);
    sp.arg("regime_switches", regime_switches);
    malleable_trace::counter("wdeq.events", events as u64);
    malleable_trace::counter("wdeq.regime_switches", regime_switches);
    Ok(EngineOutcome {
        completions,
        full_volumes,
        limited_volumes,
        events,
        columns,
    })
}

/// Run WDEQ to completion and return schedule plus volume split.
///
/// Event-driven: each completion event costs `O(log n)` to locate; the
/// column output itself is `Θ(n·events)`. Use [`wdeq_completions`] when
/// only completion times and the certificate split are needed.
///
/// # Errors
/// [`ScheduleError::InvalidInstance`] when the instance is malformed or a
/// task has zero weight (a weightless task would starve forever under
/// proportional sharing; exclude such tasks or give them ε weight).
pub fn wdeq_run<S: Scalar>(instance: &Instance<S>) -> Result<WdeqRun<S>, ScheduleError> {
    let out = drive(instance, true)?;
    Ok(WdeqRun {
        schedule: ColumnSchedule {
            p: instance.p.clone(),
            completions: out.completions,
            columns: out.columns,
        },
        full_volumes: out.full_volumes,
        limited_volumes: out.limited_volumes,
    })
}

/// The `O(n log n)` completions-only lane: WDEQ completion times, event
/// count and the Lemma-2 volume split, without materializing columns.
/// This is the entry point the large-`n` scaling benchmarks drive.
///
/// # Errors
/// Same input validation as [`wdeq_run`].
pub fn wdeq_completions<S: Scalar>(
    instance: &Instance<S>,
) -> Result<WdeqCompletions<S>, ScheduleError> {
    let out = drive(instance, false)?;
    Ok(WdeqCompletions {
        completions: out.completions,
        full_volumes: out.full_volumes,
        limited_volumes: out.limited_volumes,
        events: out.events,
    })
}

/// Convenience: just the WDEQ schedule.
///
/// ```
/// use malleable_core::algos::wdeq::wdeq_schedule;
/// use malleable_core::instance::Instance;
///
/// let inst = Instance::builder(2.0)
///     .task(2.0, 1.0, 1.0) // (volume, weight, δ)
///     .task(2.0, 1.0, 2.0)
///     .build()
///     .unwrap();
/// let s = wdeq_schedule(&inst);
/// assert!(s.validate(&inst).is_ok());
/// assert!((s.makespan() - 2.0).abs() < 1e-9); // both share P = 2
/// ```
///
/// # Panics
/// Panics on invalid instances (zero weights included); use [`wdeq_run`]
/// for fallible construction.
pub fn wdeq_schedule<S: Scalar>(instance: &Instance<S>) -> ColumnSchedule<S> {
    wdeq_run(instance)
        .expect("invalid instance for WDEQ")
        .schedule
}

/// Run WDEQ and return the Lemma-2 approximation certificate.
///
/// # Panics
/// Panics on invalid instances; use [`wdeq_run`] + [`certificate_of`] for
/// fallible construction.
pub fn wdeq_certificate<S: Scalar>(instance: &Instance<S>) -> WdeqCertificate<S> {
    let run = wdeq_run(instance).expect("invalid instance for WDEQ");
    certificate_of(instance, &run)
}

/// The Lemma-2 certificate of an existing run.
pub fn certificate_of<S: Scalar>(instance: &Instance<S>, run: &WdeqRun<S>) -> WdeqCertificate<S> {
    // Lemma 2: TCWD ≤ 2·(A(I[V̄F]) + H(I[VF])): the *limited* volumes go to
    // the squashed-area bound, the *full-allocation* volumes to the height
    // bound. `mixed_bound(instance, v1)` computes A(I[v1]) + H(I[V − v1]),
    // so pass the limited volumes as v1.
    let value = mixed_bound(instance, &run.limited_volumes);
    WdeqCertificate {
        value,
        wdeq_cost: run.schedule.weighted_completion_cost(instance),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::rules::{replay, run_rule, DeqRule, RuleError, WdeqRule};
    use bigratio::Rational;

    #[test]
    fn allocation_proportional_when_no_caps_bind() {
        // P=4, weights 1 and 3, caps huge → shares 1 and 3.
        let rates = wdeq_allocation(&[(1.0, 4.0), (3.0, 4.0)], 4.0);
        assert!((rates[0] - 1.0).abs() < 1e-12);
        assert!((rates[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn allocation_clamps_and_redistributes() {
        // P=4, equal weights, caps 1 and 4: T0 clamps to 1, T1 takes 3.
        let rates = wdeq_allocation(&[(1.0, 1.0), (1.0, 4.0)], 4.0);
        assert!((rates[0] - 1.0).abs() < 1e-12);
        assert!((rates[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn allocation_cascade_of_saturations() {
        // P=4, equal weights, caps 0.5, 1, 4: both small caps saturate,
        // the last takes 2.5.
        let rates = wdeq_allocation(&[(1.0, 0.5), (1.0, 1.0), (1.0, 4.0)], 4.0);
        assert!((rates[0] - 0.5).abs() < 1e-12);
        assert!((rates[1] - 1.0).abs() < 1e-12);
        assert!((rates[2] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn allocation_all_saturated_leaves_capacity_unused() {
        let rates = wdeq_allocation(&[(1.0, 1.0), (1.0, 1.0)], 4.0);
        assert_eq!(rates, vec![1.0, 1.0]);
    }

    #[test]
    fn allocation_never_exceeds_capacity_or_caps() {
        // Weighted mix with binding capacity.
        let entries = [(10.0, 0.4), (0.1, 0.5), (2.0, 0.3)];
        let rates = wdeq_allocation(&entries, 1.0);
        let total: f64 = rates.iter().sum();
        assert!(total <= 1.0 + 1e-12);
        for (r, e) in rates.iter().zip(entries.iter()) {
            assert!(*r <= e.1 + 1e-12);
        }
    }

    #[test]
    fn single_task_runs_at_cap() {
        let inst = Instance::builder(4.0).task(6.0, 2.0, 3.0).build().unwrap();
        let run = wdeq_run(&inst).unwrap();
        assert!((run.schedule.completions[0] - 2.0).abs() < 1e-9);
        run.schedule.validate(&inst).unwrap();
        // All volume at full allocation.
        assert!((run.full_volumes[0] - 6.0).abs() < 1e-9);
        assert!(run.limited_volumes[0].abs() < 1e-9);
    }

    #[test]
    fn produces_valid_schedules() {
        let inst = Instance::builder(4.0)
            .task(8.0, 1.0, 2.0)
            .task(4.0, 2.0, 4.0)
            .task(2.0, 4.0, 1.0)
            .build()
            .unwrap();
        let run = wdeq_run(&inst).unwrap();
        run.schedule.validate(&inst).unwrap();
        // Split sums to the volumes exactly.
        for (i, t) in inst.tasks.iter().enumerate() {
            assert!((run.full_volumes[i] + run.limited_volumes[i] - t.volume).abs() < 1e-9);
        }
    }

    #[test]
    fn certificate_holds_on_crafted_instances() {
        for (p, tasks) in [
            (4.0, vec![(8.0, 1.0, 2.0), (4.0, 2.0, 4.0), (2.0, 4.0, 1.0)]),
            (1.0, vec![(0.3, 0.7, 0.4), (0.9, 0.2, 0.9), (0.5, 0.5, 0.2)]),
            (2.0, vec![(1.0, 1.0, 2.0)]),
        ] {
            let inst = Instance::builder(p).tasks(tasks).build().unwrap();
            let cert = wdeq_certificate(&inst);
            assert!(
                cert.ratio() <= 2.0 + 1e-6,
                "certificate violated: ratio {}",
                cert.ratio()
            );
            assert!(cert.value() > 0.0);
        }
    }

    #[test]
    fn weighted_priority_finishes_heavy_tasks_earlier() {
        // Equal volumes/caps; the heavy task must finish first.
        let inst = Instance::builder(1.0)
            .task(1.0, 10.0, 1.0)
            .task(1.0, 1.0, 1.0)
            .build()
            .unwrap();
        let s = wdeq_schedule(&inst);
        assert!(s.completions[0] < s.completions[1]);
    }

    #[test]
    fn zero_weight_rejected() {
        let inst = Instance::builder(1.0).task(1.0, 0.0, 1.0).build().unwrap();
        assert!(matches!(
            wdeq_run(&inst),
            Err(ScheduleError::InvalidInstance { .. })
        ));
        // The per-event recompute runs it and stalls: a weightless task
        // gets a zero share forever.
        assert!(matches!(
            run_rule(&inst, &WdeqRule),
            Err(RuleError::Stalled { .. })
        ));
        assert!(matches!(
            wdeq_completions(&inst),
            Err(ScheduleError::InvalidInstance { .. })
        ));
    }

    #[test]
    fn simultaneous_completions_handled() {
        // Two identical tasks complete at the same instant.
        let inst = Instance::builder(2.0)
            .task(1.0, 1.0, 1.0)
            .task(1.0, 1.0, 1.0)
            .build()
            .unwrap();
        let s = wdeq_schedule(&inst);
        assert!((s.completions[0] - 1.0).abs() < 1e-9);
        assert!((s.completions[1] - 1.0).abs() < 1e-9);
        assert_eq!(s.columns.len(), 1);
        s.validate(&inst).unwrap();
    }

    #[test]
    fn deq_is_wdeq_with_unit_weights() {
        let inst = Instance::builder(2.0)
            .task(3.0, 5.0, 1.0)
            .task(1.0, 0.5, 2.0)
            .build()
            .unwrap();
        let deq = replay(&inst, &DeqRule).unwrap();
        let unit = Instance::builder(2.0)
            .task(3.0, 1.0, 1.0)
            .task(1.0, 1.0, 2.0)
            .build()
            .unwrap();
        assert_eq!(deq, replay(&unit, &WdeqRule).unwrap());
    }

    #[test]
    fn matches_hand_computed_two_task_run() {
        // P=2, T0 (V=2, w=1, δ=2), T1 (V=2, w=1, δ=1).
        // Shares: T1 clamped to 1, T0 gets 1. Both finish at t=2.
        let inst = Instance::builder(2.0)
            .task(2.0, 1.0, 2.0)
            .task(2.0, 1.0, 1.0)
            .build()
            .unwrap();
        let s = wdeq_schedule(&inst);
        assert!((s.completions[0] - 2.0).abs() < 1e-9);
        assert!((s.completions[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn event_engine_matches_reference_on_f64_fixtures() {
        for (p, tasks) in [
            (4.0, vec![(8.0, 1.0, 2.0), (4.0, 2.0, 4.0), (2.0, 4.0, 1.0)]),
            (1.0, vec![(0.3, 0.7, 0.4), (0.9, 0.2, 0.9), (0.5, 0.5, 0.2)]),
            (2.0, vec![(1.0, 1.0, 2.0)]),
            (
                3.0,
                vec![
                    (2.0, 1.0, 2.0),
                    (3.0, 1.0, 1.0),
                    (1.0, 1.0, 3.0),
                    (5.0, 2.0, 0.7),
                ],
            ),
        ] {
            let inst = Instance::builder(p).tasks(tasks).build().unwrap();
            let fast = wdeq_run(&inst).unwrap();
            let slow = run_rule(&inst, &WdeqRule).unwrap();
            assert_eq!(fast.schedule.columns.len(), slow.schedule.columns.len());
            for (a, b) in fast
                .schedule
                .completions
                .iter()
                .zip(&slow.schedule.completions)
            {
                assert!((a - b).abs() < 1e-9, "completions diverge: {a} vs {b}");
            }
            for (i, t) in inst.tasks.iter().enumerate() {
                assert!((fast.full_volumes[i] - (t.volume - slow.limited[i])).abs() < 1e-9);
                assert!((fast.limited_volumes[i] - slow.limited[i]).abs() < 1e-9);
            }
            // The completions-only lane agrees with the full run.
            let lane = wdeq_completions(&inst).unwrap();
            assert_eq!(lane.completions, fast.schedule.completions);
            assert_eq!(lane.events, fast.schedule.columns.len());
        }
    }

    #[test]
    fn exact_rational_run_certifies_with_zero_tolerance() {
        let q = Rational::from_f64_exact;
        let inst = Instance::<Rational>::builder(q(4.0))
            .task(q(8.0), q(1.0), q(2.0))
            .task(q(4.0), q(2.0), q(4.0))
            .task(q(2.0), q(4.0), q(1.0))
            .build()
            .unwrap();
        let run = wdeq_run(&inst).unwrap();
        // Exact validation: Definition 2 holds with zero slack.
        run.schedule.validate(&inst).unwrap();
        // The volume split is exact without snapping.
        for (i, t) in inst.tasks.iter().enumerate() {
            assert_eq!(
                run.full_volumes[i].clone() + run.limited_volumes[i].clone(),
                t.volume
            );
        }
        // Lemma-2 certificate holds exactly: cost ≤ 2·bound.
        let cert = certificate_of(&inst, &run);
        assert!(cert.wdeq_cost <= Rational::from_int(2) * cert.value());
        // And it agrees with the f64 run to float precision.
        let f_inst: Instance = inst.approx_f64();
        let f_run = wdeq_run(&f_inst).unwrap();
        for (a, b) in f_run
            .schedule
            .completions
            .iter()
            .zip(&run.schedule.completions)
        {
            assert!((a - b.approx_f64()).abs() < 1e-9);
        }
    }

    #[test]
    fn exact_event_engine_is_bit_equal_to_reference() {
        let q = Rational::from_f64_exact;
        let inst = Instance::<Rational>::builder(q(4.0))
            .task(q(8.0), q(1.0), q(2.0))
            .task(q(4.0), q(2.0), q(4.0))
            .task(q(2.0), q(4.0), q(1.0))
            .task(q(5.0), q(1.0), q(3.0))
            .build()
            .unwrap();
        let fast = wdeq_run(&inst).unwrap();
        let slow = run_rule(&inst, &WdeqRule).unwrap();
        assert_eq!(fast.schedule, slow.schedule);
        assert_eq!(fast.limited_volumes, slow.limited);
        for (i, t) in inst.tasks.iter().enumerate() {
            assert_eq!(
                fast.full_volumes[i],
                t.volume.clone() - slow.limited[i].clone()
            );
        }
    }
}
