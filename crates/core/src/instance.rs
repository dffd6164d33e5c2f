//! Problem instances: `P` identical processors and `n` work-preserving
//! malleable tasks `(Vᵢ, wᵢ, δᵢ)`.
//!
//! The paper formulates the model with integer processor counts and then
//! proves (Theorem 3) that the fractional column-based relaxation is
//! equivalent; accordingly `P` and `δᵢ` are plain scalars here, and
//! integer-valued instances are just the special case used when converting
//! schedules back to per-processor Gantt charts.
//!
//! Everything is generic over the scalar field `S` ([`numkit::Scalar`],
//! default `f64`): `Instance::<f64>` is the production path, while
//! `Instance::<bigratio::Rational>` runs the *same* algorithms in exact
//! arithmetic for certified results (see [`Instance::to_scalar`] to lift a
//! float instance exactly).

use crate::error::ScheduleError;
use crate::machine::MachineModel;
use numkit::{Scalar, Tolerance};
use std::fmt;

/// Index of a task within its [`Instance`] (dense, `0..n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// One work-preserving malleable task.
#[derive(Debug, Clone, PartialEq)]
pub struct Task<S = f64> {
    /// Total work `Vᵢ` (area in the Gantt chart; equals the sequential
    /// processing time).
    pub volume: S,
    /// Weight `wᵢ` in the objective `Σ wᵢCᵢ`.
    pub weight: S,
    /// Maximal number of processors `δᵢ` usable simultaneously.
    pub delta: S,
}

impl<S: Scalar> Task<S> {
    /// Construct a task; see [`Instance::validate`] for the admissible
    /// ranges.
    pub fn new(volume: S, weight: S, delta: S) -> Self {
        Task {
            volume,
            weight,
            delta,
        }
    }

    /// The task's *height* `hᵢ = Vᵢ/δᵢ`: its minimal possible running time.
    pub fn height(&self) -> S {
        self.volume.clone() / self.delta.clone()
    }

    /// Smith ratio `Vᵢ/wᵢ` (sorting key of the squashed-area bound).
    pub fn smith_ratio(&self) -> S {
        self.volume.clone() / self.weight.clone()
    }
}

/// A scheduling instance `I = (P, (wᵢ), (Vᵢ), (δᵢ))`, optionally on a
/// heterogeneous [`MachineModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct Instance<S = f64> {
    /// Total machine capacity `P` (fractional allowed; see module docs).
    /// Always equals `machine.capacity()` — kept as a field so the
    /// identical-machine call sites read it directly.
    pub p: S,
    /// The tasks.
    pub tasks: Vec<Task<S>>,
    /// The machine model (identical unit-speed processors by default;
    /// related machines carry per-machine speeds).
    pub machine: MachineModel<S>,
    /// Optional release times `rᵢ` (streaming arrivals): task `i` may not
    /// be allocated before `rᵢ`. `None` means every task is available at
    /// `t = 0` — the paper's offline model — and is what every constructor
    /// produces unless arrivals are set explicitly. When present the vector
    /// aligns with `tasks` (one entry per task, validated).
    pub arrivals: Option<Vec<S>>,
}

impl<S: Scalar> Instance<S> {
    /// Start building an instance on `p` identical processors.
    pub fn builder(p: S) -> InstanceBuilder<S> {
        InstanceBuilder {
            machine: MachineModel::identical(p),
            tasks: Vec::new(),
            arrivals: None,
        }
    }

    /// Start building an instance on an explicit machine model.
    pub fn on_machine(machine: MachineModel<S>) -> InstanceBuilder<S> {
        InstanceBuilder {
            machine,
            tasks: Vec::new(),
            arrivals: None,
        }
    }

    /// Construct directly from parts (identical machines) and validate.
    pub fn new(p: S, tasks: Vec<Task<S>>) -> Result<Self, ScheduleError> {
        let inst = Instance::identical(p, tasks);
        inst.validate()?;
        Ok(inst)
    }

    /// Unvalidated identical-machine constructor (the struct-literal
    /// replacement used by generators and internal copies).
    pub fn identical(p: S, tasks: Vec<Task<S>>) -> Self {
        Instance {
            machine: MachineModel::identical(p.clone()),
            p,
            tasks,
            arrivals: None,
        }
    }

    /// Unvalidated constructor on an explicit machine model (`p` is
    /// derived as the machine capacity).
    pub fn on(machine: MachineModel<S>, tasks: Vec<Task<S>>) -> Self {
        Instance {
            p: machine.capacity(),
            tasks,
            machine,
            arrivals: None,
        }
    }

    /// Attach release times (one per task) and re-validate.
    ///
    /// # Errors
    /// Propagates [`Instance::validate`] failures (length mismatch,
    /// non-finite or negative arrival).
    pub fn with_arrivals(mut self, arrivals: Vec<S>) -> Result<Self, ScheduleError> {
        self.arrivals = Some(arrivals);
        self.validate()?;
        Ok(self)
    }

    /// The release time of a task: its `arrivals` entry, or zero when the
    /// instance carries none (the offline model).
    pub fn arrival(&self, id: TaskId) -> S {
        match &self.arrivals {
            Some(r) => r[id.0].clone(),
            None => S::zero(),
        }
    }

    /// `true` iff the instance carries a strictly positive release time —
    /// i.e. the offline algorithms (which assume everything is available at
    /// `t = 0`) do not apply as-is.
    pub fn has_arrivals(&self) -> bool {
        self.arrivals
            .as_ref()
            .is_some_and(|r| r.iter().any(|a| a.is_positive()))
    }

    /// Replace the machine model, recomputing the capacity `p`, and
    /// re-validate.
    ///
    /// # Errors
    /// Propagates [`Instance::validate`] failures.
    pub fn with_machine(mut self, machine: MachineModel<S>) -> Result<Self, ScheduleError> {
        self.p = machine.capacity();
        self.machine = machine;
        self.validate()?;
        Ok(self)
    }

    /// Number of tasks.
    pub fn n(&self) -> usize {
        self.tasks.len()
    }

    /// Iterator over `(TaskId, &Task)`.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &Task<S>)> {
        self.tasks.iter().enumerate().map(|(i, t)| (TaskId(i), t))
    }

    /// Borrow a task.
    ///
    /// # Panics
    /// Panics if `id` is out of range (ids are only minted by this crate).
    pub fn task(&self, id: TaskId) -> &Task<S> {
        &self.tasks[id.0]
    }

    /// Total work `Σ Vᵢ`.
    pub fn total_volume(&self) -> S {
        S::sum(self.tasks.iter().map(|t| t.volume.clone()))
    }

    /// Total weight `Σ wᵢ`.
    pub fn total_weight(&self) -> S {
        S::sum(self.tasks.iter().map(|t| t.weight.clone()))
    }

    /// The *effective rate cap* of a task: `min(δᵢ, P)` on identical
    /// machines, `prefix(min(δᵢ, count))` on related machines (the total
    /// speed of the fastest `δᵢ` machines), and `min(δᵢ, |Eᵢ|)` on
    /// restricted assignment (the task's eligibility set caps it below
    /// the global budget).
    pub fn effective_delta(&self, id: TaskId) -> S {
        self.machine.rate_cap_for(id.0, self.task(id).delta.clone())
    }

    /// The *machine-count cap* `min(δᵢ, count)` — what count-space
    /// allocation rules share out (identical to [`Instance::effective_delta`]
    /// on unit-speed machines). Per-task eligibility sets tighten it like
    /// [`Instance::effective_delta`].
    pub fn count_cap(&self, id: TaskId) -> S {
        self.machine
            .count_cap_for(id.0, self.task(id).delta.clone())
    }

    /// Guard for algorithms whose correctness needs identical (or
    /// uniform-speed, which is identical up to time scaling) machines —
    /// the paper's rate-space algorithms. The related-machines entry
    /// points live in [`crate::algos::related`] and the flow-based
    /// parametric solvers, which handle heterogeneous speeds natively.
    ///
    /// # Errors
    /// [`ScheduleError::InvalidInstance`] on a heterogeneous machine model.
    pub fn require_uniform_machine(&self, what: &str) -> Result<(), ScheduleError> {
        if self.machine.uniform() {
            Ok(())
        } else {
            Err(ScheduleError::InvalidInstance {
                reason: format!(
                    "{what} requires identical (or uniform-speed) machines, got {}; \
                     use the related-machines policies/solvers instead",
                    self.machine
                ),
            })
        }
    }

    /// Structural validation: positive finite `P`, volumes and caps; finite
    /// non-negative weights; a consistent machine model.
    pub fn validate(&self) -> Result<(), ScheduleError> {
        let fail = |reason: String| Err(ScheduleError::InvalidInstance { reason });
        // The machine model first: its messages are the pointed ones
        // (every arm guarantees a positive finite capacity on success).
        self.machine.validate()?;
        if !(self.p.is_finite() && self.p.is_positive()) {
            return fail(format!("P must be positive and finite, got {:?}", self.p));
        }
        {
            let tol = S::default_tolerance();
            let cap = self.machine.capacity();
            if !tol.eq(self.p.clone(), cap.clone()) {
                return fail(format!(
                    "capacity field P = {:?} disagrees with the machine model's {:?}",
                    self.p, cap
                ));
            }
        }
        if let Some((_, eligible)) = self.machine.restriction() {
            if eligible.len() != self.n() {
                return fail(format!(
                    "restricted assignment carries {} eligibility sets for {} tasks; \
                     every task needs exactly one",
                    eligible.len(),
                    self.n()
                ));
            }
        }
        for (i, t) in self.tasks.iter().enumerate() {
            check_task(i, t)?;
        }
        if let Some(arrivals) = &self.arrivals {
            if arrivals.len() != self.n() {
                return Err(ScheduleError::LengthMismatch {
                    what: "arrival times",
                    expected: self.n(),
                    found: arrivals.len(),
                });
            }
            for (i, r) in arrivals.iter().enumerate() {
                check_arrival(i, r)?;
            }
        }
        Ok(())
    }

    /// Append one task released at `arrival`, checking only the new task
    /// — O(1) amortized, where rebuilding through the builder re-checks
    /// all `n`. On a valid instance the result is `==` to what
    /// [`Instance::builder`] builds from the longer task list: `arrivals`
    /// stays `None` until the first positive release time, which fills in
    /// zeros for the earlier tasks. Streaming front ends (the `msched
    /// serve` daemon) grow their instances this way.
    ///
    /// # Errors
    /// The message [`Instance::validate`] gives for the same task at index
    /// `n`, or [`ScheduleError::InvalidInstance`] on a restricted-assignment
    /// model (a task there needs an eligibility set). The instance is left
    /// unchanged on error.
    pub fn push(&mut self, task: Task<S>, arrival: S) -> Result<TaskId, ScheduleError> {
        if self.machine.restriction().is_some() {
            return Err(ScheduleError::InvalidInstance {
                reason: "cannot push a task onto a restricted-assignment instance: \
                         it needs an eligibility set; rebuild the instance instead"
                    .into(),
            });
        }
        let id = TaskId(self.n());
        check_task(id.0, &task)?;
        check_arrival(id.0, &arrival)?;
        match &mut self.arrivals {
            Some(r) => r.push(arrival),
            None if arrival.is_positive() => {
                let mut r = vec![S::zero(); id.0];
                r.push(arrival);
                self.arrivals = Some(r);
            }
            None => {}
        }
        self.tasks.push(task);
        Ok(id)
    }

    /// Approximate `f64` image of this instance (for reporting and
    /// float cross-checks). The conversion rounds through `f64`, so it is
    /// **lossy** for exact scalars whose values are not binary rationals —
    /// never feed the result back into an exact certification.
    pub fn approx_f64(&self) -> Instance<f64> {
        // `p` is recomputed from the converted machine (not converted
        // directly) so the capacity-consistency invariant holds exactly
        // in the image, too.
        let mut image = Instance::on(
            self.machine.approx_f64(),
            self.tasks
                .iter()
                .map(|t| Task::new(t.volume.to_f64(), t.weight.to_f64(), t.delta.to_f64()))
                .collect(),
        );
        image.arrivals = self
            .arrivals
            .as_ref()
            .map(|r| r.iter().map(|a| a.to_f64()).collect());
        image
    }

    /// The subinstance `I[V′]` of Definition 7: same machine and tasks but
    /// with volumes replaced by `volumes`. Tasks whose new volume is zero
    /// are kept (with zero volume) so indices stay aligned; consumers that
    /// need positive volumes (e.g. the bounds) skip them.
    ///
    /// # Errors
    /// Fails when the vector length does not match or a volume is negative
    /// / exceeds the original (beyond the scalar's natural tolerance —
    /// exactly, for exact scalars).
    pub fn subinstance(&self, volumes: &[S]) -> Result<SubInstance<'_, S>, ScheduleError> {
        if volumes.len() != self.n() {
            return Err(ScheduleError::LengthMismatch {
                what: "subinstance volumes",
                expected: self.n(),
                found: volumes.len(),
            });
        }
        let tol = S::default_tolerance();
        for (i, (v, t)) in volumes.iter().zip(&self.tasks).enumerate() {
            let in_range = v.is_finite()
                && tol.ge(v.clone(), S::zero())
                && tol.le(v.clone(), t.volume.clone());
            if !in_range {
                return Err(ScheduleError::InvalidInstance {
                    reason: format!(
                        "subinstance volume {:?} for task {i} outside [0, V = {:?}]",
                        v, t.volume
                    ),
                });
            }
        }
        Ok(SubInstance {
            base: self,
            volumes: volumes.to_vec(),
        })
    }

    /// `true` iff all weights are equal (the class of Theorem 11).
    pub fn homogeneous_weights(&self, tol: Tolerance<S>) -> bool {
        self.tasks
            .windows(2)
            .all(|w| tol.eq(w[0].weight.clone(), w[1].weight.clone()))
    }

    /// `true` iff every `δᵢ > P/2` (the second hypothesis of Theorem 11).
    pub fn all_deltas_above_half(&self) -> bool {
        let half_p = self.p.clone() / S::from_int(2);
        self.tasks.iter().all(|t| t.delta > half_p)
    }
}

/// The per-task checks of [`Instance::validate`]: positive finite volume
/// and δ, finite non-negative weight.
fn check_task<S: Scalar>(i: usize, t: &Task<S>) -> Result<(), ScheduleError> {
    let fail = |reason: String| Err(ScheduleError::InvalidInstance { reason });
    if !(t.volume.is_finite() && t.volume.is_positive()) {
        return fail(format!("task {i}: volume must be > 0, got {:?}", t.volume));
    }
    if !(t.delta.is_finite() && t.delta.is_positive()) {
        return fail(format!("task {i}: δ must be > 0, got {:?}", t.delta));
    }
    if !t.weight.is_finite() || t.weight.is_negative() {
        return fail(format!("task {i}: weight must be ≥ 0, got {:?}", t.weight));
    }
    Ok(())
}

/// The per-task arrival check of [`Instance::validate`]: finite and
/// non-negative.
fn check_arrival<S: Scalar>(i: usize, r: &S) -> Result<(), ScheduleError> {
    if !r.is_finite() || r.is_negative() {
        return Err(ScheduleError::InvalidInstance {
            reason: format!("task {i}: arrival must be ≥ 0, got {:?}", r),
        });
    }
    Ok(())
}

impl<S: Scalar> fmt::Display for Instance<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Instance: P = {}, n = {}", self.p.to_f64(), self.n())?;
        if !matches!(self.machine, MachineModel::Identical { .. }) {
            writeln!(f, "  machine: {}", self.machine)?;
        }
        for (id, t) in self.iter() {
            write!(
                f,
                "  {id}: V = {:.4}, w = {:.4}, δ = {:.4}",
                t.volume.to_f64(),
                t.weight.to_f64(),
                t.delta.to_f64()
            )?;
            if self.arrivals.is_some() {
                write!(f, ", r = {:.4}", self.arrival(id).to_f64())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl Instance<f64> {
    /// Lift this float instance onto another scalar field, **exactly**:
    /// every finite `f64` is a binary rational, and [`Scalar::from_f64`] is
    /// required to be exact on representable values, so nothing is lost.
    /// (Only `Instance<f64>` offers this — converting between arbitrary
    /// scalar fields would round through `f64` and silently perturb exact
    /// values; use [`Instance::approx_f64`] when an approximate float image
    /// is what you want.)
    pub fn to_scalar<S2: Scalar>(&self) -> Instance<S2> {
        // `p` is recomputed from the lifted machine: the f64 capacity of
        // a related machine is a *rounded* speed sum, while the lifted
        // field demands the exact one (zero-tolerance consistency).
        let mut lifted = Instance::on(
            self.machine.to_scalar(),
            self.tasks
                .iter()
                .map(|t| {
                    Task::new(
                        S2::from_f64(t.volume),
                        S2::from_f64(t.weight),
                        S2::from_f64(t.delta),
                    )
                })
                .collect(),
        );
        lifted.arrivals = self
            .arrivals
            .as_ref()
            .map(|r| r.iter().map(|a| S2::from_f64(*a)).collect());
        lifted
    }
}

/// A volume-substituted view `I[V′]` (Definition 7 of the paper).
#[derive(Debug, Clone)]
pub struct SubInstance<'a, S = f64> {
    /// The underlying instance (machine, weights, caps).
    pub base: &'a Instance<S>,
    /// Replacement volumes, aligned with `base.tasks`.
    pub volumes: Vec<S>,
}

impl<S: Scalar> SubInstance<'_, S> {
    /// Materialize as an owned [`Instance`] (zero-volume tasks dropped).
    pub fn to_instance(&self) -> Instance<S> {
        // Arrivals stay aligned through the zero-volume filter.
        let arrivals = self.base.arrivals.as_ref().map(|r| {
            r.iter()
                .zip(&self.volumes)
                .filter(|(_, v)| v.is_positive())
                .map(|(a, _)| a.clone())
                .collect()
        });
        Instance {
            p: self.base.p.clone(),
            tasks: self
                .base
                .tasks
                .iter()
                .zip(&self.volumes)
                .filter(|(_, v)| v.is_positive())
                .map(|(t, v)| Task::new(v.clone(), t.weight.clone(), t.delta.clone()))
                .collect(),
            machine: self.base.machine.clone(),
            arrivals,
        }
    }
}

/// Fluent constructor for [`Instance`].
pub struct InstanceBuilder<S = f64> {
    machine: MachineModel<S>,
    tasks: Vec<Task<S>>,
    arrivals: Option<Vec<S>>,
}

impl<S: Scalar> InstanceBuilder<S> {
    /// Append a task `(volume, weight, delta)`.
    pub fn task(mut self, volume: S, weight: S, delta: S) -> Self {
        self.tasks.push(Task::new(volume, weight, delta));
        self
    }

    /// Append many tasks from `(volume, weight, delta)` triples.
    pub fn tasks<I: IntoIterator<Item = (S, S, S)>>(mut self, iter: I) -> Self {
        self.tasks
            .extend(iter.into_iter().map(|(v, w, d)| Task::new(v, w, d)));
        self
    }

    /// Attach release times (one per task; alignment is validated at
    /// build time).
    pub fn arrivals(mut self, arrivals: Vec<S>) -> Self {
        self.arrivals = Some(arrivals);
        self
    }

    /// Switch the instance onto an explicit machine model (the capacity
    /// `p` is derived from it at build time).
    pub fn machine(mut self, machine: MachineModel<S>) -> Self {
        self.machine = machine;
        self
    }

    /// Switch the instance onto related machines with the given speeds
    /// (sorted descending at build; validation happens in `build`).
    pub fn speeds(mut self, speeds: Vec<S>) -> Self {
        let mut speeds = speeds;
        speeds.sort_by(|a, b| b.total_cmp_s(a));
        self.machine = MachineModel::Related { speeds };
        self
    }

    /// Switch the instance onto a submodular capacity oracle given its
    /// rank table `f(1), …, f(m)` (monotonicity/concavity are validated
    /// in `build`, via [`MachineModel::validate`]).
    pub fn ranks(mut self, ranks: Vec<S>) -> Self {
        let mut gains = Vec::with_capacity(ranks.len());
        let mut prev = S::zero();
        for r in ranks {
            gains.push(r.clone() - prev.clone());
            prev = r;
        }
        self.machine = MachineModel::Submodular { gains };
        self
    }

    /// Switch the instance onto `m` unit-speed machines with per-task
    /// eligibility sets (sorted/deduplicated here; validated in `build`).
    /// `eligible` must align with the task list at build time.
    pub fn restricted(mut self, m: usize, mut eligible: Vec<Vec<usize>>) -> Self {
        for set in &mut eligible {
            set.sort_unstable();
            set.dedup();
        }
        self.machine = MachineModel::RestrictedAssignment { m, eligible };
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<Instance<S>, ScheduleError> {
        let mut inst = Instance::on(self.machine, self.tasks);
        inst.arrivals = self.arrivals;
        inst.validate()?;
        Ok(inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numkit::Tolerance;

    fn demo() -> Instance {
        Instance::builder(4.0)
            .task(8.0, 1.0, 2.0)
            .task(4.0, 2.0, 4.0)
            .task(2.0, 4.0, 1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_and_accessors() {
        let inst = demo();
        assert_eq!(inst.n(), 3);
        assert_eq!(inst.task(TaskId(0)).volume, 8.0);
        assert_eq!(inst.total_volume(), 14.0);
        assert_eq!(inst.total_weight(), 7.0);
        assert_eq!(inst.task(TaskId(2)).height(), 2.0);
        assert_eq!(inst.task(TaskId(0)).smith_ratio(), 8.0);
    }

    #[test]
    fn effective_delta_clamps_to_p() {
        let inst = Instance::builder(2.0).task(1.0, 1.0, 5.0).build().unwrap();
        assert_eq!(inst.effective_delta(TaskId(0)), 2.0);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(Instance::new(0.0, vec![]).is_err());
        assert!(Instance::new(-1.0, vec![]).is_err());
        assert!(Instance::new(f64::NAN, vec![]).is_err());
        assert!(Instance::new(1.0, vec![Task::new(0.0, 1.0, 1.0)]).is_err());
        assert!(Instance::new(1.0, vec![Task::new(1.0, -1.0, 1.0)]).is_err());
        assert!(Instance::new(1.0, vec![Task::new(1.0, 1.0, 0.0)]).is_err());
        assert!(Instance::new(1.0, vec![Task::new(1.0, 1.0, f64::INFINITY)]).is_err());
        // Zero weight is allowed (tasks may not count in the objective).
        assert!(Instance::new(1.0, vec![Task::new(1.0, 0.0, 1.0)]).is_ok());
    }

    #[test]
    fn subinstance_checks_ranges() {
        let inst = demo();
        assert!(inst.subinstance(&[1.0, 1.0]).is_err());
        assert!(inst.subinstance(&[9.0, 1.0, 1.0]).is_err());
        assert!(inst.subinstance(&[-1.0, 1.0, 1.0]).is_err());
        let sub = inst.subinstance(&[4.0, 0.0, 2.0]).unwrap();
        let owned = sub.to_instance();
        assert_eq!(owned.n(), 2); // zero-volume task dropped
        assert_eq!(owned.tasks[0].volume, 4.0);
        assert_eq!(owned.tasks[1].weight, 4.0);
    }

    #[test]
    fn homogeneity_predicates() {
        let inst = demo();
        assert!(!inst.homogeneous_weights(Tolerance::default()));
        assert!(!inst.all_deltas_above_half());
        let hom = Instance::builder(1.0)
            .task(1.0, 1.0, 0.6)
            .task(1.0, 1.0, 0.9)
            .build()
            .unwrap();
        assert!(hom.homogeneous_weights(Tolerance::default()));
        assert!(hom.all_deltas_above_half());
    }

    #[test]
    fn display_contains_parameters() {
        let s = demo().to_string();
        assert!(s.contains("P = 4"));
        assert!(s.contains("T0"));
    }

    #[test]
    fn to_scalar_roundtrips_exactly_through_f64() {
        let inst = demo();
        let same: Instance = inst.to_scalar();
        assert_eq!(inst, same);
    }

    #[test]
    fn related_machine_builder_derives_capacity() {
        let inst = Instance::builder(0.0) // overridden by .speeds
            .task(1.0, 1.0, 2.0)
            .speeds(vec![1.0, 4.0, 2.0])
            .build()
            .unwrap();
        assert_eq!(inst.p, 7.0);
        assert!(inst.machine.is_related());
        // Rate cap of δ = 2 is the two fastest machines: 4 + 2.
        assert_eq!(inst.effective_delta(TaskId(0)), 6.0);
        assert_eq!(inst.count_cap(TaskId(0)), 2.0);
        assert!(inst.require_uniform_machine("test").is_err());
        assert!(demo().require_uniform_machine("test").is_ok());
    }

    #[test]
    fn inconsistent_capacity_field_is_rejected() {
        let mut inst = Instance::builder(2.0).task(1.0, 1.0, 1.0).build().unwrap();
        inst.p = 3.0; // drifts from machine.capacity()
        assert!(inst.validate().is_err());
    }

    #[test]
    fn submodular_builder_derives_capacity_from_rank_table() {
        let inst = Instance::builder(0.0)
            .task(1.0, 1.0, 2.0)
            .ranks(vec![4.0, 6.0, 7.0])
            .build()
            .unwrap();
        assert_eq!(inst.p, 7.0);
        // f(min(δ, 3)) = f(2) = 6 — the gains act as virtual speeds.
        assert_eq!(inst.effective_delta(TaskId(0)), 6.0);
        // Non-concave rank tables are rejected at build.
        assert!(Instance::builder(0.0)
            .task(1.0, 1.0, 1.0)
            .ranks(vec![1.0, 3.0])
            .build()
            .is_err());
    }

    #[test]
    fn restricted_builder_validates_alignment_and_caps_per_task() {
        let inst = Instance::builder(0.0)
            .task(4.0, 1.0, 3.0)
            .task(2.0, 1.0, 2.0)
            .restricted(3, vec![vec![0, 1, 2], vec![2]])
            .build()
            .unwrap();
        assert_eq!(inst.p, 3.0);
        assert_eq!(inst.effective_delta(TaskId(0)), 3.0);
        // Task 1 can only ever occupy machine 2, regardless of δ = 2.
        assert_eq!(inst.effective_delta(TaskId(1)), 1.0);
        assert_eq!(inst.count_cap(TaskId(1)), 1.0);
        // Eligibility lists must align with the task list.
        let err = Instance::builder(0.0)
            .task(1.0, 1.0, 1.0)
            .restricted(2, vec![vec![0], vec![1]])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("eligibility sets"));
        // An empty eligibility set is a pointed machine-level error.
        let err = Instance::builder(0.0)
            .task(1.0, 1.0, 1.0)
            .restricted(2, vec![vec![]])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("empty eligibility"));
    }

    #[test]
    fn arrivals_validate_and_default_to_zero() {
        let inst = demo();
        assert!(!inst.has_arrivals());
        assert_eq!(inst.arrival(TaskId(1)), 0.0);

        let timed = Instance::builder(4.0)
            .task(8.0, 1.0, 2.0)
            .task(4.0, 2.0, 4.0)
            .arrivals(vec![0.0, 3.0])
            .build()
            .unwrap();
        assert!(timed.has_arrivals());
        assert_eq!(timed.arrival(TaskId(0)), 0.0);
        assert_eq!(timed.arrival(TaskId(1)), 3.0);
        // All-zero arrivals are carried but count as offline.
        let zeroed = demo().with_arrivals(vec![0.0, 0.0, 0.0]).unwrap();
        assert!(!zeroed.has_arrivals());

        // Length, sign and finiteness are validated.
        assert!(demo().with_arrivals(vec![1.0]).is_err());
        assert!(demo().with_arrivals(vec![0.0, -1.0, 0.0]).is_err());
        assert!(demo().with_arrivals(vec![0.0, f64::NAN, 0.0]).is_err());
    }

    #[test]
    fn arrivals_survive_scalar_lifts_and_subinstances() {
        let timed = demo().with_arrivals(vec![0.0, 2.0, 5.0]).unwrap();
        let lifted: Instance<bigratio::Rational> = timed.to_scalar();
        assert_eq!(lifted.arrival(TaskId(2)), bigratio::Rational::from_int(5));
        let back = lifted.approx_f64();
        assert_eq!(back.arrival(TaskId(2)), 5.0);
        // Zero-volume filtering keeps arrivals aligned.
        let sub = timed.subinstance(&[4.0, 0.0, 2.0]).unwrap().to_instance();
        assert_eq!(sub.n(), 2);
        assert_eq!(sub.arrival(TaskId(1)), 5.0);
        assert!(timed.to_string().contains("r = 2.0000"));
    }

    #[test]
    fn push_builds_what_the_builder_builds() {
        let tasks = [
            (8.0, 1.0, 2.0),
            (4.0, 2.0, 4.0),
            (2.0, 4.0, 1.0),
            (3.0, 0.0, 3.0),
        ];
        let arrivals = [0.0, 0.0, 1.5, 0.0];
        let mut pushed = Instance::builder(4.0).build().unwrap();
        for (k, (&(v, w, d), &r)) in tasks.iter().zip(&arrivals).enumerate() {
            assert_eq!(pushed.push(Task::new(v, w, d), r).unwrap(), TaskId(k));
            let mut b = Instance::builder(4.0).tasks(tasks[..=k].iter().copied());
            if arrivals[..=k].iter().any(|&r| r > 0.0) {
                b = b.arrivals(arrivals[..=k].to_vec());
            }
            assert_eq!(pushed, b.build().unwrap(), "after {} pushes", k + 1);
        }
        // Zeros stay offline: no arrivals vector until a positive one.
        assert_eq!(pushed.arrivals.as_ref().map(Vec::len), Some(4));
        let mut offline = Instance::builder(4.0).build().unwrap();
        offline.push(Task::new(1.0, 1.0, 1.0), 0.0).unwrap();
        assert_eq!(offline.arrivals, None);
        // Related machines push like identical ones.
        let mut related = Instance::builder(0.0)
            .speeds(vec![2.0, 1.0])
            .build()
            .unwrap();
        related.push(Task::new(1.0, 1.0, 2.0), 0.5).unwrap();
        let built = Instance::builder(0.0)
            .task(1.0, 1.0, 2.0)
            .speeds(vec![2.0, 1.0])
            .arrivals(vec![0.5])
            .build()
            .unwrap();
        assert_eq!(related, built);
    }

    #[test]
    fn push_errors_match_validate_and_leave_the_instance_unchanged() {
        let base = demo().with_arrivals(vec![0.0, 2.0, 0.0]).unwrap();
        for (task, r) in [
            (Task::new(0.0, 1.0, 1.0), 0.0),
            (Task::new(f64::NAN, 1.0, 1.0), f64::NAN),
            (Task::new(1.0, 1.0, 0.0), 0.0),
            (Task::new(1.0, -1.0, 1.0), 0.0),
            (Task::new(1.0, 1.0, 1.0), -1.0),
            (Task::new(1.0, 1.0, 1.0), f64::INFINITY),
        ] {
            let mut pushed = base.clone();
            let err = pushed.push(task.clone(), r).unwrap_err();
            let mut rebuilt = base.clone();
            rebuilt.tasks.push(task);
            rebuilt.arrivals.as_mut().unwrap().push(r);
            let expect = rebuilt.validate().unwrap_err();
            assert_eq!(err.to_string(), expect.to_string());
            assert!(err.to_string().contains("task 3:"), "{err}");
            assert_eq!(pushed, base);
        }
        // A restricted-assignment task needs an eligibility set.
        let mut restricted = Instance::builder(0.0)
            .task(1.0, 1.0, 1.0)
            .restricted(2, vec![vec![0, 1]])
            .build()
            .unwrap();
        let before = restricted.clone();
        let err = restricted.push(Task::new(1.0, 1.0, 1.0), 0.0).unwrap_err();
        assert!(
            matches!(err, ScheduleError::InvalidInstance { .. }),
            "{err}"
        );
        assert_eq!(restricted, before);
    }

    #[test]
    fn with_machine_recomputes_capacity() {
        let inst = demo()
            .with_machine(crate::machine::MachineModel::related(vec![2.0, 2.0]).unwrap())
            .unwrap();
        assert_eq!(inst.p, 4.0);
        assert!(inst.require_uniform_machine("test").is_ok()); // uniform speeds
    }
}
