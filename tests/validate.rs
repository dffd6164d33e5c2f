//! Verdict preservation for the linear-time schedule validator.
//!
//! `ColumnSchedule::validate_with` makes one pass over the rate entries.
//! These tests pin it to the definition it checks:
//!
//! * every registry policy's answer on every workload family validates,
//!   at `f64` and at `Rational` with zero tolerance;
//! * each targeted corruption of an answer is rejected with the error
//!   that corruption implies;
//! * on every answer and every corruption, the verdict — variant *and*
//!   fields — equals that of [`reference_validate`], the direct
//!   per-task transcription of Definition 2 (one `rate_of` scan per task
//!   and column, Θ(n · Σ|rates|)).

use malleable::core::error::ScheduleError;
use malleable::core::machine::MachineModel;
use malleable::core::schedule::column::Column;
use malleable::prelude::*;
use malleable::sim::policies::{self as online, ONLINE_POLICY_NAMES};

/// Every workload family at `n` tasks.
fn every_family(n: usize) -> Vec<Spec> {
    vec![
        Spec::PaperUniform { n },
        Spec::ConstantWeight { n },
        Spec::ConstantWeightVolume { n },
        Spec::HomogeneousHalfCap { n },
        Spec::Theorem11 { n, p: 4.0 },
        Spec::IntegerUniform { n, p: 8 },
        Spec::ZipfWeights { n, p: 4.0, s: 1.1 },
        Spec::BimodalVolumes {
            n,
            p: 4.0,
            heavy_fraction: 0.2,
        },
        Spec::Stairs { n, p: 16.0 },
        Spec::PowerLawVolumes { n, alpha: 1.5 },
        Spec::BandwidthFleet {
            n,
            server_bandwidth: 100.0,
        },
        Spec::PowerLawSpeeds {
            n,
            machines: 4,
            alpha: 1.0,
        },
        Spec::TwoTierCluster {
            n,
            fast: 2,
            slow: 3,
            speedup: 3.0,
        },
        Spec::SingleFastMachine { n, machines: 4 },
        Spec::RestrictedAssignment {
            n,
            machines: 6,
            min_eligible: 2,
        },
        Spec::PoissonArrivals { n, rate: 2.0 },
        Spec::ArrivalWaves {
            n,
            waves: 3,
            gap: 1.0,
        },
        Spec::SubmodularCoverage { n, machines: 4 },
    ]
}

/// One policy answer with its provenance.
struct Answer<S: Scalar> {
    ctx: String,
    instance: Instance<S>,
    schedule: ColumnSchedule<S>,
}

/// Every capable registry policy on every clairvoyant family, and every
/// online policy through the event engine on the streaming families.
fn answers<S: Scalar>(n: usize, seeds: &[u64]) -> Vec<Answer<S>> {
    let mut out = Vec::new();
    for spec in every_family(n) {
        for &seed in seeds {
            let instance: Instance<S> = generate(&spec, seed).to_scalar();
            let mut push = |name: &str, schedule| {
                out.push(Answer {
                    ctx: format!("{name} on {}/{seed}", spec.label()),
                    instance: instance.clone(),
                    schedule,
                })
            };
            if spec.is_streaming() {
                for &name in ONLINE_POLICY_NAMES {
                    let mut policy = online::by_name::<S>(name).expect("registered");
                    let run = simulate(&instance, policy.as_mut())
                        .unwrap_or_else(|e| panic!("{name} on {}/{seed}: {e}", spec.label()));
                    push(name, run.schedule);
                }
            } else {
                for name in policy::capable_for(&instance.machine) {
                    let run = policy::by_name::<S>(name)
                        .expect("registered")
                        .run(&instance)
                        .unwrap_or_else(|e| panic!("{name} on {}/{seed}: {e}", spec.label()));
                    push(name, run.schedule);
                }
            }
        }
    }
    out
}

/// The tolerance each lane validates at: the scaled float default, and
/// exactly zero for `Rational`.
fn tolerance<S: Scalar>(s: &ColumnSchedule<S>) -> Tolerance<S> {
    S::default_tolerance().scaled(1.0 + s.columns.len() as f64)
}

/// Definition 2 checked task by task: the validator's semantics before it
/// became a single pass. Volumes and completions rescan every column per
/// task through `Column::rate_of`.
fn reference_validate<S: Scalar>(
    s: &ColumnSchedule<S>,
    instance: &Instance<S>,
    tol: Tolerance<S>,
) -> Result<(), ScheduleError> {
    if s.completions.len() != instance.n() {
        return Err(ScheduleError::LengthMismatch {
            what: "completion times",
            expected: instance.n(),
            found: s.completions.len(),
        });
    }
    for c in &s.completions {
        if !c.is_finite() || c.is_negative() {
            return Err(ScheduleError::InvalidTime {
                value: c.to_f64(),
                context: "completion times",
            });
        }
    }
    let mut prev_end = S::zero();
    for col in &s.columns {
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
        for (task, rate) in &col.rates {
            if task.0 >= instance.n() {
                return Err(ScheduleError::LengthMismatch {
                    what: "task id in column",
                    expected: instance.n(),
                    found: task.0,
                });
            }
            let cap = instance.effective_delta(*task);
            if *rate < -tol.abs.clone() || !tol.le(rate.clone(), cap.clone()) {
                return Err(ScheduleError::DeltaExceeded {
                    task: *task,
                    at: col.start.to_f64(),
                    rate: rate.to_f64(),
                    delta: cap.to_f64(),
                });
            }
            if col.len() > tol.abs && *rate > tol.abs {
                let completion = s.completions[task.0].clone();
                if col.start > completion.clone() + tol.slack(col.start.clone(), S::zero()) {
                    return Err(ScheduleError::AllocationAfterCompletion {
                        task: *task,
                        completion: completion.to_f64(),
                        at: col.start.to_f64(),
                    });
                }
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
        let total = S::sum(col.rates.iter().map(|(_, r)| r.clone()));
        if !tol.le(total.clone(), s.p.clone()) {
            return Err(ScheduleError::CapacityExceeded {
                at: col.start.to_f64(),
                total: total.to_f64(),
                p: s.p.to_f64(),
            });
        }
        if !instance.machine.uniform() && col.len() > tol.abs && total.is_positive() {
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
                    return Err(ScheduleError::EligibilityExceeded {
                        at: col.start.to_f64(),
                        total: total.to_f64(),
                        routable: instance.machine.restricted_rank(&demands).to_f64(),
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
                        capacity: s.p.to_f64(),
                    });
                }
            }
        }
    }
    for (id, t) in instance.iter() {
        let area = s.allocated_area(id);
        if !tol.eq(area.clone(), t.volume.clone()) {
            return Err(ScheduleError::VolumeMismatch {
                task: id,
                allocated: area.to_f64(),
                required: t.volume.to_f64(),
            });
        }
    }
    for (id, _) in instance.iter() {
        let last_alloc = s
            .columns
            .iter()
            .filter(|c| c.len() > tol.abs && c.rate_of(id) > tol.abs)
            .map(|c| c.end.clone())
            .fold(S::zero(), S::max_of);
        if !tol.eq(last_alloc.clone(), s.completions[id.0].clone()) {
            return Err(ScheduleError::AllocationAfterCompletion {
                task: id,
                completion: s.completions[id.0].to_f64(),
                at: last_alloc.to_f64(),
            });
        }
    }
    Ok(())
}

/// Validate with both validators, require identical verdicts, and return
/// the verdict.
fn verdict<S: Scalar>(
    ctx: &str,
    s: &ColumnSchedule<S>,
    instance: &Instance<S>,
) -> Result<(), ScheduleError> {
    let tol = tolerance(s);
    let got = s.validate_with(instance, tol.clone());
    let want = reference_validate(s, instance, tol);
    assert_eq!(
        got, want,
        "{ctx}: single-pass and reference verdicts differ"
    );
    got
}

/// The `(column, entry)` holding the largest area `rate × length` — the
/// entry whose corruption no tolerance can absorb.
fn heaviest_entry<S: Scalar>(s: &ColumnSchedule<S>) -> (usize, usize) {
    let mut best = (0, 0);
    let mut best_area = S::zero();
    for (j, col) in s.columns.iter().enumerate() {
        for (e, (_, r)) in col.rates.iter().enumerate() {
            let area = r.clone() * col.len();
            if area > best_area {
                best_area = area;
                best = (j, e);
            }
        }
    }
    assert!(best_area.is_positive(), "schedule allocates nothing");
    best
}

/// Apply every targeted corruption to one valid answer and require the
/// error it implies, with the reference's fields. Returns whether the
/// eligibility corruption applied (restricted answers with a column
/// wider than its largest rate).
fn assert_mutations_rejected<S: Scalar>(a: &Answer<S>) -> bool {
    let (inst, s) = (&a.instance, &a.schedule);
    let (j, e) = heaviest_entry(s);
    let task = s.columns[j].rates[e].0;
    let completion = s.completion(task);

    // A rate one processor over the task's cap.
    let mut m = s.clone();
    m.columns[j].rates[e].1 = inst.effective_delta(task) + S::one();
    match verdict(&a.ctx, &m, inst) {
        Err(ScheduleError::DeltaExceeded { task: t, .. }) => assert_eq!(t, task, "{}", a.ctx),
        other => panic!("{}: rate over δ gave {other:?}", a.ctx),
    }

    // A column over the machine: the schedule claims half the capacity
    // its busiest column uses.
    let mut m = s.clone();
    let busiest = s
        .columns
        .iter()
        .map(Column::total_rate)
        .fold(S::zero(), S::max_of);
    m.p = busiest / S::from_int(2);
    match verdict(&a.ctx, &m, inst) {
        Err(ScheduleError::CapacityExceeded { .. }) => {}
        other => panic!("{}: column over P gave {other:?}", a.ctx),
    }

    // A completion shifted later, then earlier, than the last allocation.
    for shifted in [
        completion.clone() + completion.clone() + S::one(),
        completion.clone() / S::from_int(2),
    ] {
        let mut m = s.clone();
        m.completions[task.0] = shifted;
        match verdict(&a.ctx, &m, inst) {
            Err(ScheduleError::AllocationAfterCompletion { task: t, .. }) => {
                assert_eq!(t, task, "{}", a.ctx)
            }
            other => panic!("{}: shifted completion gave {other:?}", a.ctx),
        }
    }

    // A dropped entry.
    let mut m = s.clone();
    m.columns[j].rates.remove(e);
    match verdict(&a.ctx, &m, inst) {
        Err(ScheduleError::VolumeMismatch { task: t, .. }) => assert_eq!(t, task, "{}", a.ctx),
        other => panic!("{}: dropped entry gave {other:?}", a.ctx),
    }

    // An allocation before an arrival: the task is released only at its
    // own completion time.
    let mut arrivals = inst
        .arrivals
        .clone()
        .unwrap_or_else(|| vec![S::zero(); inst.n()]);
    arrivals[task.0] = completion;
    let timed = inst
        .clone()
        .with_arrivals(arrivals)
        .expect("valid arrivals");
    match verdict(&a.ctx, s, &timed) {
        Err(ScheduleError::AllocationBeforeArrival { task: t, .. }) => {
            assert_eq!(t, task, "{}", a.ctx)
        }
        other => panic!("{}: allocation before arrival gave {other:?}", a.ctx),
    }

    // A task listed twice in one column (the reference cannot see it).
    let mut m = s.clone();
    let entry = m.columns[j].rates[e].clone();
    m.columns[j].rates.push(entry);
    match m.validate_with(inst, tolerance(&m)) {
        Err(ScheduleError::DuplicateTask { task: t, .. }) => assert_eq!(t, task, "{}", a.ctx),
        other => panic!("{}: duplicate entry gave {other:?}", a.ctx),
    }

    // Restricted assignment: every task's eligibility collapses onto the
    // first `k` machines, `k` the fewest that still cap no rate beyond
    // tolerance; any column using more than `k` overflows.
    if let Some((m_count, _)) = inst.machine.restriction() {
        let tol = tolerance(s);
        let max_rate = s
            .columns
            .iter()
            .flat_map(|c| c.rates.iter().map(|(_, r)| r.clone()))
            .fold(S::zero(), S::max_of);
        let k = (1..m_count)
            .find(|&k| tol.le(max_rate.clone(), S::from_int(k as i64)))
            .unwrap_or(m_count);
        let overflows = s
            .columns
            .iter()
            .any(|c| c.len() > tol.abs && !tol.le(c.total_rate(), S::from_int(k as i64)));
        if overflows {
            let machine = MachineModel::<S>::restricted(m_count, vec![(0..k).collect(); inst.n()])
                .expect("valid eligibility");
            let narrowed = inst.clone().with_machine(machine).expect("valid machine");
            match verdict(&a.ctx, s, &narrowed) {
                Err(ScheduleError::EligibilityExceeded {
                    total, routable, ..
                }) => assert!(routable < total, "{}", a.ctx),
                other => panic!("{}: narrowed eligibility gave {other:?}", a.ctx),
            }
            return true;
        }
    }
    false
}

#[test]
fn every_policy_answer_validates_at_f64_and_exactly_at_rational() {
    for a in answers::<f64>(30, &[0, 1]) {
        verdict(&a.ctx, &a.schedule, &a.instance)
            .unwrap_or_else(|e| panic!("{} invalid at f64: {e}", a.ctx));
    }
    for a in answers::<Rational>(8, &[0]) {
        verdict(&a.ctx, &a.schedule, &a.instance)
            .unwrap_or_else(|e| panic!("{} invalid at Rational: {e}", a.ctx));
    }
}

#[test]
fn corrupted_answers_are_rejected_with_the_implied_error() {
    let mut narrowed = 0;
    for a in &answers::<f64>(30, &[0, 1]) {
        narrowed += usize::from(assert_mutations_rejected(a));
    }
    for a in &answers::<Rational>(8, &[0]) {
        narrowed += usize::from(assert_mutations_rejected(a));
    }
    assert!(
        narrowed > 0,
        "no restricted answer took the eligibility corruption"
    );
}
