//! Machine models: identical processors and **related (uniform-speed)
//! machines**.
//!
//! The paper's model is `P` identical processors; this module generalizes
//! the machine side to *related machines* in the sense of Fotakis,
//! Matuschke and Papadigenopoulos ("Malleable scheduling beyond identical
//! machines", 2019): machine `j` has speed `sⱼ`, a task running on a set
//! of machines processes work at the sum of their speeds, and a task with
//! parallelism cap `δᵢ` may occupy at most `δᵢ` machines at a time
//! (fractionally, with free preemption and migration).
//!
//! Everything the algorithms need is derived from the **speed profile**:
//! sort the speeds descending and let `prefix(x)` be the total speed of
//! the fastest `x` machines (piecewise-linear and concave in the
//! fractional machine count `x`). Then
//!
//! * the machine capacity is `P = prefix(count)` (= `Σ sⱼ`),
//! * a single task's maximal rate is `rate_cap(δ) = prefix(min(δ, count))`,
//! * and the *feasible instantaneous rate vectors* form the polymatroid
//!   with rank function
//!   `f(T) = Σ_ℓ min(k_ℓ, Σ_{i∈T} min(δᵢ, k_ℓ)) · d_ℓ`,
//!   where level `ℓ` groups the machines of the ℓ-th distinct speed
//!   (`k_ℓ` = cumulative machine count, `d_ℓ` = gap to the next distinct
//!   speed). This is the classic Federgruen–Groenevelt level
//!   decomposition: the transportation networks of
//!   [`crate::algos::parametric`] get one arc per (interval, level) with
//!   capacity `min(δᵢ, k_ℓ)·d_ℓ·Δt`, and the identical-machine case is
//!   exactly the single-level network the paper's algorithms already
//!   used.
//!
//! [`MachineModel::Identical`] behaves bit-for-bit like the original
//! scalar capacity `P` (one level of unit-speed machines), so every
//! existing identical-machine code path is unchanged; `Related` with all
//! speeds equal to one reproduces `Identical` exactly — the reduction the
//! property tests pin down.
//!
//! ## The capacity oracle
//!
//! The algorithms never need the machines themselves — only the monotone
//! submodular rank `f(T)` of task sets and its level decomposition. That
//! contract is the [`CapacityOracle`] trait, with four instances:
//!
//! * [`MachineModel::Identical`] — `f(T) = min(Σ δ̂ᵢ, P)`, one level;
//! * [`MachineModel::Related`] — the speed-profile prefix rank above;
//! * [`MachineModel::Submodular`] — an explicit concave rank table
//!   `f(1), …, f(m)` (Fotakis–Matuschke–Papadigenopoulos 2021,
//!   "generalized malleable scheduling"). A symmetric concave rank is
//!   exactly the prefix rank of its descending marginal gains
//!   `gₖ = f(k) − f(k−1)`, so the instance stores the gains as *virtual
//!   speeds* and shares every `Related` code path bit-for-bit;
//! * [`MachineModel::RestrictedAssignment`] — `m` unit-speed machines
//!   with a per-task eligibility set `Eᵢ`; `f(T)` is the bipartite
//!   matching rank `maxflow(T → ∪Eᵢ)`, which is submodular but **not**
//!   symmetric, so rank queries carry task identities
//!   ([`RankOracle`], [`MachineModel::realize_assign`],
//!   [`MachineModel::rates_feasible_assign`]).

use crate::algos::flow::FlowNetwork;
use crate::error::ScheduleError;
use numkit::{Scalar, Tolerance};
use std::fmt;

/// One *speed level* of the machine profile: `count` machines (cumulative,
/// in machine-count units) run at least `diff` faster than the next
/// distinct speed. The levels decompose the concave capacity function:
/// `prefix(x) = Σ_ℓ min(x, count_ℓ) · diff_ℓ`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedLevel<S = f64> {
    /// Cumulative machine count of this level (`k_ℓ`).
    pub count: S,
    /// Speed gap to the next distinct speed (`d_ℓ = v_ℓ − v_{ℓ+1}`,
    /// strictly positive).
    pub diff: S,
}

/// The machine side of an [`Instance`](crate::instance::Instance).
#[derive(Debug, Clone, PartialEq)]
pub enum MachineModel<S = f64> {
    /// `m` identical unit-speed processors (fractional capacity allowed —
    /// the paper's model, and the default everywhere).
    Identical {
        /// Machine capacity `P` (equals the machine count at unit speed).
        m: S,
    },
    /// Related machines with the given speeds, **sorted descending** (the
    /// constructor sorts; [`MachineModel::validate`] enforces the
    /// invariant).
    Related {
        /// Per-machine speeds, fastest first, all strictly positive.
        speeds: Vec<S>,
    },
    /// An explicit monotone concave rank table `f(1..=m)` (coverage-style
    /// submodular processing speeds), stored as its descending marginal
    /// gains `gₖ = f(k) − f(k−1)` — virtual speeds that reuse the whole
    /// `Related` prefix/level machinery bit-for-bit. Build with
    /// [`MachineModel::submodular`].
    Submodular {
        /// Marginal gains of the rank table, descending, all strictly
        /// positive.
        gains: Vec<S>,
    },
    /// `m` unit-speed machines with per-task eligibility sets: task `i`
    /// may only occupy machines in `eligible[i]`. The rank of a task set
    /// is the bipartite flow `f(T) = maxflow(T → ∪ᵢEᵢ)` — submodular but
    /// task-identity-dependent, so the identity-aware query methods
    /// ([`MachineModel::rate_cap_for`], [`MachineModel::realize_assign`],
    /// [`MachineModel::rates_feasible_assign`], [`RankOracle`]) carry
    /// task indices. Build with [`MachineModel::restricted`].
    RestrictedAssignment {
        /// Number of unit-speed machines.
        m: usize,
        /// `eligible[i]` = sorted machine indices task `i` may run on.
        eligible: Vec<Vec<usize>>,
    },
}

/// The monotone-submodular rank contract every machine model satisfies:
/// rank of a fractional machine-count query, the Federgruen–Groenevelt
/// level decomposition, and marginal gains. The flow/transport layers are
/// written against this trait; [`MachineModel`] is its canonical (and
/// currently only) implementor, keeping the enum's concrete methods as
/// the zero-cost entry points.
pub trait CapacityOracle<S: Scalar> {
    /// Rank of a fractional machine-count query `x` — the concave
    /// capacity function `f(x) = prefix(x)`, clamped into `[0, f(m)]`.
    fn rank(&self, x: S) -> S;
    /// Full rank `f(m)` — the total capacity.
    fn full_rank(&self) -> S;
    /// The level decomposition `(k_ℓ, d_ℓ)` of the (task-blind) rank:
    /// `rank(x) = Σ_ℓ min(x, k_ℓ)·d_ℓ`. For restricted assignment this is
    /// the eligibility-blind relaxation — identity-aware queries go
    /// through [`RankOracle`].
    fn rank_levels(&self) -> Vec<SpeedLevel<S>>;
    /// Marginal gain `f(k) − f(k−1)` of the `k`-th machine (1-based).
    fn marginal_gain(&self, k: usize) -> S;
}

impl<S: Scalar> CapacityOracle<S> for MachineModel<S> {
    fn rank(&self, x: S) -> S {
        self.prefix(x)
    }

    fn full_rank(&self) -> S {
        self.capacity()
    }

    fn rank_levels(&self) -> Vec<SpeedLevel<S>> {
        self.levels()
    }

    fn marginal_gain(&self, k: usize) -> S {
        let k = S::from_int(k as i64);
        self.prefix(k.clone()) - self.prefix(k - S::one())
    }
}

impl<S: Scalar> MachineModel<S> {
    /// The identical-machine model of capacity `m`.
    pub fn identical(m: S) -> Self {
        MachineModel::Identical { m }
    }

    /// A related-machines model; sorts the speeds descending and
    /// validates them.
    ///
    /// # Errors
    /// [`ScheduleError::InvalidInstance`] when no machine is given or a
    /// speed is non-positive or non-finite.
    pub fn related(mut speeds: Vec<S>) -> Result<Self, ScheduleError> {
        speeds.sort_by(|a, b| b.total_cmp_s(a));
        let model = MachineModel::Related { speeds };
        model.validate()?;
        Ok(model)
    }

    /// A submodular-capacity model from an explicit rank table
    /// `ranks = [f(1), …, f(m)]` (with `f(0) = 0` implied). The table must
    /// be strictly increasing (monotone, positive gains) and concave
    /// (descending gains); the model stores the marginal gains
    /// `gₖ = f(k) − f(k−1)` as virtual speeds.
    ///
    /// # Errors
    /// [`ScheduleError::InvalidInstance`] when the table is empty,
    /// non-finite, non-increasing, or non-concave.
    pub fn submodular(ranks: Vec<S>) -> Result<Self, ScheduleError> {
        let fail = |reason: String| Err(ScheduleError::InvalidInstance { reason });
        if ranks.is_empty() {
            return fail("submodular rank table needs ≥ 1 entry".into());
        }
        let mut gains = Vec::with_capacity(ranks.len());
        let mut prev = S::zero();
        for (k, f) in ranks.iter().enumerate() {
            if !(f.is_finite() && f.is_positive()) {
                return fail(format!(
                    "rank table entry f({}) must be finite and > 0, got {f:?}",
                    k + 1
                ));
            }
            let gain = f.clone() - prev.clone();
            if !gain.is_positive() {
                return fail(format!(
                    "rank table must be strictly increasing: f({}) = {f:?} ≤ f({k}) = {prev:?}",
                    k + 1
                ));
            }
            if let Some(last) = gains.last() {
                if gain > *last {
                    return fail(format!(
                        "rank table must be concave: gain at {} exceeds the previous gain",
                        k + 1
                    ));
                }
            }
            gains.push(gain);
            prev = f.clone();
        }
        Ok(MachineModel::Submodular { gains })
    }

    /// A restricted-assignment model: `m` unit-speed machines, task `i`
    /// eligible exactly on `eligible[i]` (indices into `0..m`; each list
    /// is sorted and deduplicated). The per-task lists must align with the
    /// instance's task vector —
    /// [`Instance::validate`](crate::instance::Instance::validate) checks
    /// the length.
    ///
    /// # Errors
    /// [`ScheduleError::InvalidInstance`] when `m = 0`, a list is empty
    /// (that task could never run), or an index is out of range.
    pub fn restricted(m: usize, mut eligible: Vec<Vec<usize>>) -> Result<Self, ScheduleError> {
        for list in &mut eligible {
            list.sort_unstable();
            list.dedup();
        }
        let model = MachineModel::RestrictedAssignment { m, eligible };
        model.validate()?;
        Ok(model)
    }

    /// Structural validation (positive finite speeds, descending order,
    /// positive finite capacity).
    pub fn validate(&self) -> Result<(), ScheduleError> {
        let fail = |reason: String| Err(ScheduleError::InvalidInstance { reason });
        match self {
            MachineModel::Identical { m } => {
                if !(m.is_finite() && m.is_positive()) {
                    return fail(format!("machine capacity must be > 0, got {m:?}"));
                }
            }
            MachineModel::Related { speeds } => {
                if speeds.is_empty() {
                    return fail("related machine model needs ≥ 1 machine".into());
                }
                for (j, s) in speeds.iter().enumerate() {
                    if !(s.is_finite() && s.is_positive()) {
                        return fail(format!("machine {j}: speed must be > 0, got {s:?}"));
                    }
                }
                if speeds.windows(2).any(|w| w[0] < w[1]) {
                    return fail("machine speeds must be sorted descending".into());
                }
            }
            MachineModel::Submodular { gains } => {
                if gains.is_empty() {
                    return fail("submodular rank table needs ≥ 1 entry".into());
                }
                for (j, g) in gains.iter().enumerate() {
                    if !(g.is_finite() && g.is_positive()) {
                        return fail(format!(
                            "submodular marginal gain {j}: must be > 0, got {g:?}"
                        ));
                    }
                }
                if gains.windows(2).any(|w| w[0] < w[1]) {
                    return fail("submodular rank table must be concave (descending gains)".into());
                }
            }
            MachineModel::RestrictedAssignment { m, eligible } => {
                if *m == 0 {
                    return fail("restricted assignment needs ≥ 1 machine".into());
                }
                for (i, list) in eligible.iter().enumerate() {
                    if list.is_empty() {
                        return fail(format!(
                            "task {i}: empty eligibility set — the task could never run"
                        ));
                    }
                    if let Some(&k) = list.iter().find(|&&k| k >= *m) {
                        return fail(format!(
                            "task {i}: eligible machine index {k} out of range (m = {m})"
                        ));
                    }
                    if list.windows(2).any(|w| w[0] >= w[1]) {
                        return fail(format!(
                            "task {i}: eligibility set must be sorted and duplicate-free"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// `true` iff this model carries a heterogeneous-capable speed profile
    /// ([`MachineModel::Related`] or its [`MachineModel::Submodular`]
    /// virtual-speed twin).
    pub fn is_related(&self) -> bool {
        matches!(
            self,
            MachineModel::Related { .. } | MachineModel::Submodular { .. }
        )
    }

    /// The descending speed profile this model reduces to, when it has
    /// one: the machine speeds (`Related`) or the marginal gains of the
    /// rank table (`Submodular` — a concave rank *is* the prefix rank of
    /// its gains). `None` for `Identical` (implicit `[1; m]`) and
    /// `RestrictedAssignment` (rank is task-identity-dependent).
    pub fn speed_profile(&self) -> Option<&[S]> {
        match self {
            MachineModel::Related { speeds } => Some(speeds),
            MachineModel::Submodular { gains } => Some(gains),
            _ => None,
        }
    }

    /// The restricted-assignment data `(m, eligible)`, when this is a
    /// [`MachineModel::RestrictedAssignment`] model.
    pub fn restriction(&self) -> Option<(usize, &[Vec<usize>])> {
        match self {
            MachineModel::RestrictedAssignment { m, eligible } => Some((*m, eligible)),
            _ => None,
        }
    }

    /// Number of machines that appear in at least one eligibility set —
    /// the full rank `f(all tasks)` of the restricted model (machines no
    /// task may use contribute nothing).
    fn active_machines(m: usize, eligible: &[Vec<usize>]) -> usize {
        let mut used = vec![false; m];
        for list in eligible {
            for &k in list {
                used[k] = true;
            }
        }
        used.iter().filter(|u| **u).count()
    }

    /// Total processing capacity `P`: `m`, `Σ sⱼ`, the full rank `f(m)`,
    /// or (restricted) the number of machines any task is eligible on.
    pub fn capacity(&self) -> S {
        match self {
            MachineModel::Identical { m } => m.clone(),
            MachineModel::RestrictedAssignment { m, eligible } => {
                S::from_int(Self::active_machines(*m, eligible) as i64)
            }
            _ => S::sum(self.speed_profile().expect("profile").iter().cloned()),
        }
    }

    /// Total machine count, in machine-count units (`m` for the identical
    /// model, where count and capacity coincide; for restricted
    /// assignment, the machines any task may actually use).
    pub fn count(&self) -> S {
        match self {
            MachineModel::Identical { m } => m.clone(),
            MachineModel::RestrictedAssignment { m, eligible } => {
                S::from_int(Self::active_machines(*m, eligible) as i64)
            }
            _ => S::from_int(self.speed_profile().expect("profile").len() as i64),
        }
    }

    /// Number of discrete machines, when the model has them.
    pub fn n_machines(&self) -> Option<usize> {
        match self {
            MachineModel::Identical { .. } => None,
            MachineModel::RestrictedAssignment { m, .. } => Some(*m),
            _ => Some(self.speed_profile().expect("profile").len()),
        }
    }

    /// `true` iff all machines run at the same speed and every task may
    /// use every machine — the class on which the paper's
    /// identical-machine algorithms remain exact (uniform speeds are an
    /// identical machine up to time scaling). Restricted assignment is
    /// uniform exactly when every eligibility set is complete, in which
    /// case it degenerates to `Identical { m }` bit-for-bit.
    pub fn uniform(&self) -> bool {
        match self {
            MachineModel::Identical { .. } => true,
            MachineModel::RestrictedAssignment { m, eligible } => {
                eligible.iter().all(|list| list.len() == *m)
            }
            _ => self
                .speed_profile()
                .expect("profile")
                .windows(2)
                .all(|w| w[0] == w[1]),
        }
    }

    /// `true` iff machine-count allocations *are* rates for every task:
    /// every machine runs at exactly unit speed and no eligibility
    /// restriction bites. `Related { speeds: [1; m] }` and
    /// `RestrictedAssignment` with complete eligibility must behave
    /// bit-for-bit like `Identical { m }`; this predicate is what the
    /// realization layer keys on.
    pub fn unit_speeds(&self) -> bool {
        match self {
            MachineModel::Identical { .. } => true,
            MachineModel::RestrictedAssignment { .. } => self.uniform(),
            _ => self
                .speed_profile()
                .expect("profile")
                .iter()
                .all(|s| *s == S::one()),
        }
    }

    /// Total speed of the fastest `x` (fractional) machines — the concave
    /// capacity function `prefix(x)`, clamped into `[0, capacity]`. For
    /// restricted assignment this is the eligibility-blind relaxation
    /// `min(x, capacity)`.
    pub fn prefix(&self, x: S) -> S {
        match self {
            MachineModel::Identical { m } => x.clamp_to(S::zero(), m.clone()),
            MachineModel::RestrictedAssignment { .. } => x.clamp_to(S::zero(), self.capacity()),
            _ => {
                let speeds = self.speed_profile().expect("profile");
                let mut remaining = x.max_of(S::zero());
                let mut acc = S::zero();
                for s in speeds {
                    if !remaining.is_positive() {
                        break;
                    }
                    let take = remaining.clone().min_of(S::one());
                    acc = acc + take.clone() * s.clone();
                    remaining = remaining - take;
                }
                acc
            }
        }
    }

    /// Maximal processing rate of a single task with parallelism cap
    /// `delta`: `prefix(min(delta, count))`. The identical-machine case is
    /// the familiar `min(δ, P)`. Restricted assignment additionally caps
    /// each task by its eligibility set — use
    /// [`MachineModel::rate_cap_for`] when the task index is known.
    pub fn rate_cap(&self, delta: S) -> S {
        match self {
            MachineModel::Identical { m } => delta.min_of(m.clone()),
            _ => self.prefix(delta.min_of(self.count())),
        }
    }

    /// `min(delta, count)` — the machine-count cap used by count-space
    /// allocation rules.
    pub fn count_cap(&self, delta: S) -> S {
        delta.min_of(self.count())
    }

    /// Task-identity-aware rate cap: for restricted assignment,
    /// `min(delta, |Eᵢ|)` (a task cannot outrun its eligible machines);
    /// identical to [`MachineModel::rate_cap`] elsewhere.
    pub fn rate_cap_for(&self, i: usize, delta: S) -> S {
        match self.restriction() {
            Some((_, eligible)) if i < eligible.len() => {
                delta.min_of(S::from_int(eligible[i].len() as i64))
            }
            _ => self.rate_cap(delta),
        }
    }

    /// Task-identity-aware count cap: for restricted assignment,
    /// `min(delta, |Eᵢ|)`; identical to [`MachineModel::count_cap`]
    /// elsewhere.
    pub fn count_cap_for(&self, i: usize, delta: S) -> S {
        match self.restriction() {
            Some((_, eligible)) if i < eligible.len() => {
                delta.min_of(S::from_int(eligible[i].len() as i64))
            }
            _ => self.count_cap(delta),
        }
    }

    /// The grouped speed levels (`k_ℓ`, `d_ℓ`), fastest level first. The
    /// identical model is a single level `(m, 1)`; so is
    /// `Related { speeds: [1; m] }`, which keeps the two transportation
    /// networks structurally identical. For restricted assignment this is
    /// the eligibility-blind relaxation (one unit level of the active
    /// machine count) — eligibility-aware layers use [`RankOracle`] and
    /// the gate-arc transport branch instead.
    pub fn levels(&self) -> Vec<SpeedLevel<S>> {
        match self {
            MachineModel::Identical { m } => vec![SpeedLevel {
                count: m.clone(),
                diff: S::one(),
            }],
            MachineModel::RestrictedAssignment { .. } => vec![SpeedLevel {
                count: self.capacity(),
                diff: S::one(),
            }],
            _ => {
                let speeds = self.speed_profile().expect("profile");
                let mut levels = Vec::new();
                let mut i = 0;
                while i < speeds.len() {
                    let v = speeds[i].clone();
                    let mut j = i;
                    while j < speeds.len() && speeds[j] == v {
                        j += 1;
                    }
                    let next = if j < speeds.len() {
                        speeds[j].clone()
                    } else {
                        S::zero()
                    };
                    let diff = v - next;
                    if diff.is_positive() {
                        levels.push(SpeedLevel {
                            count: S::from_int(j as i64),
                            diff,
                        });
                    }
                    i = j;
                }
                levels
            }
        }
    }

    /// Realize machine-count allocations as processing rates by laying the
    /// tasks out on the machines **fastest first**, in slice order: entry
    /// `k` occupies the machine-count interval `[Σ_{j<k} cⱼ, Σ_{j≤k} cⱼ)`
    /// and gets rate `prefix(b) − prefix(a)`. On unit-speed machines the
    /// counts are returned unchanged (bit-exactly — counts *are* rates
    /// there), so every identical-machine code path is untouched.
    pub fn realize(&self, counts: &[S]) -> Vec<S> {
        if self.unit_speeds() {
            return counts.to_vec();
        }
        let mut rates = Vec::with_capacity(counts.len());
        let mut pos = S::zero();
        let mut below = S::zero(); // prefix(pos), maintained incrementally
        for c in counts {
            let next = pos.clone() + c.clone().max_of(S::zero());
            let above = self.prefix(next.clone());
            rates.push((above.clone() - below).max_of(S::zero()));
            pos = next;
            below = above;
        }
        rates
    }

    /// Realize per-task machine-count shares as processing rates when the
    /// task identities matter — the eligible-aware sibling of
    /// [`MachineModel::realize`]. `entries` pairs each task's index with
    /// its count share, **in priority order** (highest first).
    ///
    /// For restricted assignment the realization is the polymatroid
    /// greedy: task `k`'s rate is the marginal bipartite-flow gain
    /// `F_k − F_{k−1}`, where `F_k` is the max flow of the first `k`
    /// tasks with source caps equal to their shares and unit arcs to
    /// their eligible machines. One [`RankOracle`] network serves the
    /// whole vector: each entry is one [`RestrictedRank::add`], whose
    /// pushed amount *is* that marginal. The vector is lexicographically
    /// maximal in priority order (the top task always realizes
    /// `min(share, |Eᵢ|) > 0`, so replay never stalls) and feasible by
    /// construction. Every other model delegates to
    /// [`MachineModel::realize`] on the shares in order.
    pub fn realize_assign(&self, entries: &[(usize, S)]) -> Vec<S> {
        let Some((m, eligible)) = self.restriction() else {
            let counts: Vec<S> = entries.iter().map(|(_, c)| c.clone()).collect();
            return self.realize(&counts);
        };
        if self.unit_speeds() {
            return entries.iter().map(|(_, c)| c.clone()).collect();
        }
        let mut oracle = RestrictedRank::new(m, eligible);
        entries.iter().map(|(i, c)| oracle.add(*i, c)).collect()
    }

    /// `true` iff the instantaneous rate vector is feasible on this
    /// machine, i.e. inside the polymatroid of the level decomposition.
    /// `entries` pairs each task's parallelism cap `δᵢ` with its rate.
    /// Decided by a single-interval transportation flow (exact for exact
    /// scalars, tolerance-guarded for `f64`). Identical/uniform machines
    /// don't need this (per-task caps plus `Σ ≤ P` are already complete
    /// there); it exists for the related validation path. Restricted
    /// assignment needs task identities — use
    /// [`MachineModel::rates_feasible_assign`] (this method checks only
    /// the eligibility-blind relaxation there).
    pub fn rates_feasible(&self, entries: &[(S, S)], tol: &Tolerance<S>) -> bool {
        let levels = self.levels();
        let n = entries.len();
        let l = levels.len();
        let total = S::sum(entries.iter().map(|(_, r)| r.clone()));
        if !total.is_positive() {
            return true;
        }
        // Nodes: tasks 0..n, levels n..n+l, source, sink.
        let s = n + l;
        let t = n + l + 1;
        let mut g = FlowNetwork::new(n + l + 2, tol.abs.clone() * S::from_f64(1e-3));
        for (i, (delta, rate)) in entries.iter().enumerate() {
            if !rate.is_positive() {
                continue;
            }
            g.add_edge(s, i, rate.clone());
            for (li, level) in levels.iter().enumerate() {
                g.add_edge(
                    i,
                    n + li,
                    delta.clone().min_of(level.count.clone()) * level.diff.clone(),
                );
            }
        }
        for (li, level) in levels.iter().enumerate() {
            g.add_edge(n + li, t, level.count.clone() * level.diff.clone());
        }
        let flow = g.max_flow(s, t);
        let slack = tol.rel.clone() * total.clone() + tol.abs.clone();
        flow + slack >= total
    }

    /// The rank of a `(task index, demand)` vector: how much of the
    /// demanded rate is simultaneously deliverable. On restricted
    /// assignment this is the bipartite flow through the eligibility
    /// sets; every other model clamps the total by the capacity
    /// (identity-blind — per-δ caps are the caller's business there).
    /// Used for diagnostics (the `routable` field of
    /// [`ScheduleError::EligibilityExceeded`]).
    pub fn restricted_rank(&self, entries: &[(usize, S)]) -> S {
        match self.restriction() {
            Some((m, eligible)) => {
                let mut oracle = RestrictedRank::new(m, eligible);
                for (i, demand) in entries {
                    oracle.add(*i, demand);
                }
                oracle.rate()
            }
            None => S::sum(entries.iter().map(|(_, d)| d.clone())).min_of(self.capacity()),
        }
    }

    /// Task-identity-aware feasibility of an instantaneous rate vector:
    /// entries are `(task index, δᵢ, rate)`. For restricted assignment
    /// this is the bipartite-flow check against the eligibility sets; all
    /// other models delegate to [`MachineModel::rates_feasible`].
    pub fn rates_feasible_assign(&self, entries: &[(usize, S, S)], tol: &Tolerance<S>) -> bool {
        if self.restriction().is_none() {
            let blind: Vec<(S, S)> = entries
                .iter()
                .map(|(_, d, r)| (d.clone(), r.clone()))
                .collect();
            return self.rates_feasible(&blind, tol);
        }
        let total = S::sum(entries.iter().map(|(_, _, r)| r.clone()));
        if !total.is_positive() {
            return true;
        }
        let demands: Vec<(usize, S)> = entries
            .iter()
            .map(|(i, delta, rate)| (*i, rate.clone().min_of(delta.clone().max_of(S::zero()))))
            .collect();
        let flow = self.restricted_rank(&demands);
        let routable = S::sum(demands.iter().map(|(_, d)| d.clone()));
        let slack = tol.rel.clone() * total.clone() + tol.abs.clone();
        // Every unit of rate must be routable: the flow must carry the
        // full demand, and no rate may exceed its δ cap beyond slack.
        let caps_ok = entries.iter().all(|(_, d, r)| tol.le(r.clone(), d.clone()));
        caps_ok && routable.clone() + slack.clone() >= total && flow + slack >= routable
    }

    /// Approximate `f64` image (reporting / float cross-checks; lossy for
    /// non-binary-rational exact values, like
    /// [`Instance::approx_f64`](crate::instance::Instance::approx_f64)).
    pub fn approx_f64(&self) -> MachineModel<f64> {
        match self {
            MachineModel::Identical { m } => MachineModel::Identical { m: m.to_f64() },
            MachineModel::Related { speeds } => MachineModel::Related {
                speeds: speeds.iter().map(Scalar::to_f64).collect(),
            },
            MachineModel::Submodular { gains } => MachineModel::Submodular {
                gains: gains.iter().map(Scalar::to_f64).collect(),
            },
            MachineModel::RestrictedAssignment { m, eligible } => {
                MachineModel::RestrictedAssignment {
                    m: *m,
                    eligible: eligible.clone(),
                }
            }
        }
    }
}

impl MachineModel<f64> {
    /// Exact lift onto another scalar field (every finite `f64` is a
    /// binary rational — same contract as
    /// [`Instance::to_scalar`](crate::instance::Instance::to_scalar)).
    pub fn to_scalar<S2: Scalar>(&self) -> MachineModel<S2> {
        match self {
            MachineModel::Identical { m } => MachineModel::Identical {
                m: S2::from_f64(*m),
            },
            MachineModel::Related { speeds } => MachineModel::Related {
                speeds: speeds.iter().map(|s| S2::from_f64(*s)).collect(),
            },
            MachineModel::Submodular { gains } => MachineModel::Submodular {
                gains: gains.iter().map(|g| S2::from_f64(*g)).collect(),
            },
            MachineModel::RestrictedAssignment { m, eligible } => {
                MachineModel::RestrictedAssignment {
                    m: *m,
                    eligible: eligible.clone(),
                }
            }
        }
    }
}

impl<S: Scalar> fmt::Display for MachineModel<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineModel::Identical { m } => write!(f, "identical(P = {})", m.to_f64()),
            MachineModel::Related { speeds } => {
                write!(f, "related(speeds = [")?;
                for (j, s) in speeds.iter().enumerate() {
                    if j > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", s.to_f64())?;
                }
                write!(f, "])")
            }
            MachineModel::Submodular { gains } => {
                // Display the rank table f(1..m), not the stored gains.
                write!(f, "submodular(f = [")?;
                let mut acc = 0.0;
                for (j, g) in gains.iter().enumerate() {
                    if j > 0 {
                        write!(f, ", ")?;
                    }
                    acc += g.to_f64();
                    write!(f, "{acc}")?;
                }
                write!(f, "])")
            }
            MachineModel::RestrictedAssignment { m, eligible } => {
                write!(f, "restricted(m = {m}, tasks = {})", eligible.len())
            }
        }
    }
}

/// Coalesce a speed-level profile against a task population, preserving
/// the polymatroid rank `f(T) = Σ_ℓ min(k_ℓ, Σ_{i∈T} min(δᵢ, k_ℓ))·d_ℓ`
/// for **every non-empty subset `T`** of that population. Two merges are
/// rank-preserving (and exact — the only division cancels in every rank
/// term):
///
/// * **Prefix rule** — a run of fast levels with `k_ℓ ≤ δ_min` (the
///   population's smallest parallelism cap): every task saturates each
///   such level, so any non-empty `T` extracts exactly `Σ k_ℓ·d_ℓ` from
///   the run. Merge into one level `(k_last, Σ k_ℓ·d_ℓ / k_last)`.
/// * **Suffix rule** — a run of wide levels with `k_ℓ ≥ Δ_total`
///   (`Σᵢ min(δᵢ, count)`, the whole population's effective
///   parallelism): no subset can saturate such a level, so each
///   contributes `Σ_{i∈T} δ̂ᵢ · d_ℓ`. Merge into one level
///   `(k_first, Σ d_ℓ)`.
///
/// Anything between the two runs is kept verbatim. The sparse
/// transportation builder ([`crate::algos::parametric`]) runs every
/// (interval × level) arc through this, shrinking related-machine
/// networks whose speed profiles have long head/tail runs (power-law
/// speeds with small-δ tasks collapse to O(1) levels) while identical
/// machines (one level) pass through untouched.
pub fn coalesce_levels<S: Scalar>(
    levels: &[SpeedLevel<S>],
    delta_min: &S,
    delta_total: &S,
) -> Vec<SpeedLevel<S>> {
    // Maximal prefix with k_ℓ ≤ δ_min.
    let mut p = 0;
    while p < levels.len() && levels[p].count <= *delta_min {
        p += 1;
    }
    // Maximal suffix with k_ℓ ≥ Δ_total, disjoint from the prefix.
    let mut q = levels.len();
    while q > p && levels[q - 1].count >= *delta_total {
        q -= 1;
    }
    let mut out = Vec::with_capacity(levels.len().min(p.max(1) + (q - p) + 1));
    if p >= 2 {
        let total = S::sum(levels[..p].iter().map(|l| l.count.clone() * l.diff.clone()));
        out.push(SpeedLevel {
            count: levels[p - 1].count.clone(),
            diff: total / levels[p - 1].count.clone(),
        });
    } else {
        out.extend(levels[..p].iter().cloned());
    }
    out.extend(levels[p..q].iter().cloned());
    if levels.len() - q >= 2 {
        out.push(SpeedLevel {
            count: levels[q].count.clone(),
            diff: S::sum(levels[q..].iter().map(|l| l.diff.clone())),
        });
    } else {
        out.extend(levels[q..].iter().cloned());
    }
    out
}

/// Incremental evaluator of the polymatroid rank
/// `f(T) = Σ_ℓ min(k_ℓ, Σ_{i∈T} min(δᵢ, k_ℓ)) · d_ℓ` over a mutating task
/// set `T` — the sweep/suffix accumulator of the parametric constraint
/// roots and capacity integrals. For the identical model (one level) this
/// degenerates to the familiar `min(P, Σ δ̂)`.
#[derive(Debug, Clone)]
pub struct LevelAccumulator<S = f64> {
    levels: Vec<SpeedLevel<S>>,
    /// Per level: `Σ_{i∈T} min(δᵢ, k_ℓ)`.
    acc: Vec<S>,
}

impl<S: Scalar> LevelAccumulator<S> {
    /// An empty accumulator over the machine's levels.
    pub fn new(machine: &MachineModel<S>) -> Self {
        Self::from_levels(machine.levels())
    }

    /// An empty accumulator over an explicit (e.g. coalesced) level
    /// profile.
    pub fn from_levels(levels: Vec<SpeedLevel<S>>) -> Self {
        let acc = vec![S::zero(); levels.len()];
        LevelAccumulator { levels, acc }
    }

    /// Add a task with parallelism cap `delta` to the set.
    pub fn add(&mut self, delta: &S) {
        for (a, level) in self.acc.iter_mut().zip(&self.levels) {
            *a = a.clone() + delta.clone().min_of(level.count.clone());
        }
    }

    /// Remove a task with parallelism cap `delta` from the set.
    pub fn sub(&mut self, delta: &S) {
        for (a, level) in self.acc.iter_mut().zip(&self.levels) {
            *a = a.clone() - delta.clone().min_of(level.count.clone());
        }
    }

    /// The current rank `f(T)` — the instantaneous capacity available to
    /// the task set.
    pub fn rate(&self) -> S {
        S::sum(
            self.acc
                .iter()
                .zip(&self.levels)
                .map(|(a, level)| a.clone().min_of(level.count.clone()) * level.diff.clone()),
        )
    }
}

/// Task-identity-aware incremental rank evaluator — the oracle the
/// parametric sweeps and constraint roots run against. Level-decomposable
/// models use a [`LevelAccumulator`] (delta-only, O(levels) per update);
/// restricted assignment keeps one persistent bipartite flow
/// ([`RestrictedRank`]), augmented per added task and repaired per
/// removed one. Either way `f(T)` is a monotone submodular rank, so the
/// capacity integrals stay piecewise-affine in the parameter and the
/// Newton roots of [`crate::algos::parametric`] remain valid.
#[derive(Debug, Clone)]
pub enum RankOracle<'a, S = f64> {
    /// Level-decomposition rank (identical / related / submodular).
    Levels(LevelAccumulator<S>),
    /// Bipartite matching rank over per-task eligibility sets.
    Restricted(RestrictedRank<'a, S>),
}

impl<'a, S: Scalar> RankOracle<'a, S> {
    /// An empty oracle for the machine (uncoalesced levels). A restricted
    /// oracle borrows the model's eligibility table.
    pub fn for_machine(machine: &'a MachineModel<S>) -> Self {
        match machine.restriction() {
            Some((m, eligible)) => RankOracle::Restricted(RestrictedRank::new(m, eligible)),
            None => RankOracle::Levels(LevelAccumulator::new(machine)),
        }
    }

    /// An empty level-decomposition oracle over an explicit (e.g.
    /// coalesced) profile.
    pub fn from_levels(levels: Vec<SpeedLevel<S>>) -> Self {
        RankOracle::Levels(LevelAccumulator::from_levels(levels))
    }

    /// Add task `i` with parallelism cap `delta` to the active set.
    pub fn add_task(&mut self, i: usize, delta: &S) {
        match self {
            RankOracle::Levels(acc) => acc.add(delta),
            RankOracle::Restricted(rank) => {
                rank.add(i, delta);
            }
        }
    }

    /// Remove task `i` with parallelism cap `delta` from the active set.
    pub fn sub_task(&mut self, i: usize, delta: &S) {
        match self {
            RankOracle::Levels(acc) => acc.sub(delta),
            RankOracle::Restricted(rank) => rank.sub(i),
        }
    }

    /// The current rank `f(T)` of the active set.
    pub fn rate(&self) -> S {
        match self {
            RankOracle::Levels(acc) => acc.rate(),
            RankOracle::Restricted(rank) => rank.rate(),
        }
    }
}

/// The incremental matching rank of restricted assignment: one persistent
/// bipartite network `source → task (cap = demand) → eligible machines
/// (cap 1) → sink (cap 1 per machine)` carrying a maximum flow of the
/// active `(task, demand)` multiset, at zero comparison slack.
///
/// * [`RestrictedRank::add`] appends the task node and its arcs, then
///   augments only from the new source arc ([`FlowNetwork::augment_from`]):
///   the old flow stays feasible and maximal for the old tasks, so the
///   pushed amount is exactly the marginal rank `f(T + i) − f(T)`.
/// * [`RestrictedRank::sub`] zeroes the task's source arc and repairs the
///   flow warm (cancel its paths, re-augment from the source).
/// * [`RestrictedRank::rate`] is the stored flow value, O(1).
///
/// The eligibility table is borrowed from the model, so building or
/// cloning an oracle copies only the active network. Updates open no
/// span; their augmenting pushes are counted under the
/// `rank.augmentations` registry counter, which keeps the `flow.*`
/// counters to transport-probe work.
#[derive(Debug, Clone)]
pub struct RestrictedRank<'a, S = f64> {
    /// Per-task eligibility sets (task-indexed, like the model's).
    eligible: &'a [Vec<usize>],
    /// Nodes: source, sink, machines `2..2 + m`, then one node per added
    /// task with a positive demand.
    net: FlowNetwork<S>,
    /// The active entries: task index and its source arc (`None` for a
    /// non-positive demand, which routes nothing).
    active: Vec<(usize, Option<usize>)>,
    /// The max-flow value of `net`.
    rate: S,
}

impl<'a, S: Scalar> RestrictedRank<'a, S> {
    const SOURCE: usize = 0;
    const SINK: usize = 1;

    /// An empty oracle over `m` machines and the task-indexed eligibility
    /// sets.
    pub fn new(m: usize, eligible: &'a [Vec<usize>]) -> Self {
        let mut net = FlowNetwork::new(m + 2, S::zero());
        for k in 0..m {
            net.add_edge(2 + k, Self::SINK, S::one());
        }
        RestrictedRank {
            eligible,
            net,
            active: Vec::new(),
            rate: S::zero(),
        }
    }

    /// Add task `i` with demand `demand`; returns its marginal rank
    /// `f(T + i) − f(T)` (zero for a non-positive demand or an index
    /// without an eligibility set).
    pub fn add(&mut self, i: usize, demand: &S) -> S {
        if !demand.is_positive() {
            self.active.push((i, None));
            return S::zero();
        }
        let node = self.net.add_node();
        let arc = self.net.add_edge(Self::SOURCE, node, demand.clone());
        for &k in self.eligible.get(i).map(Vec::as_slice).unwrap_or(&[]) {
            self.net.add_edge(node, 2 + k, S::one());
        }
        let before = self.net.stats().augmentations;
        let gain = self.net.augment_from(arc, Self::SINK);
        self.count_pushes(before);
        self.rate = self.rate.clone() + gain.clone();
        self.active.push((i, Some(arc)));
        gain
    }

    /// Remove one active entry of task `i`: zero its source arc and
    /// re-solve warm (the repair cancels its flow paths, the
    /// re-augmentation hands the freed machines to the remaining tasks).
    /// The task's node stays in the network, unreachable from the source,
    /// so a sweep that adds and removes each task once holds at most one
    /// node per task.
    pub fn sub(&mut self, i: usize) {
        let Some(pos) = self.active.iter().position(|(j, _)| *j == i) else {
            debug_assert!(false, "sub_task({i}) without matching add_task");
            return;
        };
        if let (_, Some(arc)) = self.active.swap_remove(pos) {
            let before = self.net.stats().augmentations;
            self.net.set_capacity(arc, S::zero());
            self.rate = self.net.max_flow_warm_untraced(Self::SOURCE, Self::SINK);
            self.count_pushes(before);
        }
    }

    /// The current rank `f(T)` of the active multiset.
    pub fn rate(&self) -> S {
        self.rate.clone()
    }

    /// Record the augmenting pushes since the `before` snapshot.
    fn count_pushes(&self, before: u64) {
        let pushes = self.net.stats().augmentations - before;
        if pushes > 0 {
            malleable_trace::counter("rank.augmentations", pushes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigratio::Rational;

    fn related(speeds: &[f64]) -> MachineModel<f64> {
        MachineModel::related(speeds.to_vec()).unwrap()
    }

    #[test]
    fn constructor_sorts_and_validates() {
        let m = related(&[1.0, 4.0, 2.0]);
        match &m {
            MachineModel::Related { speeds } => assert_eq!(speeds, &vec![4.0, 2.0, 1.0]),
            _ => unreachable!(),
        }
        assert!(MachineModel::related(vec![1.0, 0.0]).is_err());
        assert!(MachineModel::<f64>::related(vec![]).is_err());
        assert!(MachineModel::related(vec![f64::NAN]).is_err());
        assert!(MachineModel::identical(2.0).validate().is_ok());
        assert!(MachineModel::identical(0.0).validate().is_err());
    }

    #[test]
    fn capacity_count_and_caps() {
        let m = related(&[4.0, 2.0, 1.0]);
        assert_eq!(m.capacity(), 7.0);
        assert_eq!(m.count(), 3.0);
        assert_eq!(m.n_machines(), Some(3));
        assert_eq!(m.rate_cap(1.0), 4.0);
        assert_eq!(m.rate_cap(2.0), 6.0);
        assert_eq!(m.rate_cap(10.0), 7.0);
        // Fractional caps interpolate the concave profile.
        assert!((m.rate_cap(1.5) - 5.0).abs() < 1e-12);
        let id = MachineModel::identical(4.0);
        assert_eq!(id.rate_cap(2.5), 2.5);
        assert_eq!(id.rate_cap(9.0), 4.0);
        assert!(!id.is_related() && m.is_related());
    }

    #[test]
    fn unit_speed_related_matches_identical_bitwise() {
        let m = 4usize;
        let rel = related(&vec![1.0; m]);
        let id = MachineModel::identical(m as f64);
        assert_eq!(rel.capacity(), id.capacity());
        assert_eq!(rel.count(), id.count());
        assert_eq!(rel.levels(), id.levels());
        for d in [0.5, 1.0, 2.75, 4.0, 17.0] {
            assert_eq!(rel.rate_cap(d), id.rate_cap(d));
        }
        assert!(rel.uniform() && rel.unit_speeds());
        // Realization is the identity on unit speeds.
        let counts = [1.5, 0.25, 2.0];
        assert_eq!(rel.realize(&counts), counts.to_vec());
        assert_eq!(id.realize(&counts), counts.to_vec());
    }

    #[test]
    fn levels_group_distinct_speeds() {
        let m = related(&[4.0, 4.0, 2.0, 1.0]);
        let levels = m.levels();
        assert_eq!(levels.len(), 3);
        assert_eq!((levels[0].count, levels[0].diff), (2.0, 2.0));
        assert_eq!((levels[1].count, levels[1].diff), (3.0, 1.0));
        assert_eq!((levels[2].count, levels[2].diff), (4.0, 1.0));
        // prefix(x) = Σ_ℓ min(x, k_ℓ)·d_ℓ.
        for x in [0.0, 0.5, 1.0, 2.5, 4.0, 6.0] {
            let direct = m.prefix(x);
            let via_levels: f64 = levels.iter().map(|l| x.min(l.count) * l.diff).sum();
            assert!((direct - via_levels).abs() < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn realization_is_the_fastest_first_layout() {
        let m = related(&[4.0, 2.0, 1.0]);
        // Two tasks, one machine each: first gets the speed-4 machine.
        assert_eq!(m.realize(&[1.0, 1.0]), vec![4.0, 2.0]);
        // Fractional boundary: [0, 1.5) and [1.5, 2.5).
        let r = m.realize(&[1.5, 1.0]);
        assert!((r[0] - 5.0).abs() < 1e-12);
        assert!((r[1] - 1.5).abs() < 1e-12);
        // Rates never exceed the single-task cap of the same count.
        for (c, rate) in [1.5, 1.0].iter().zip(&r) {
            assert!(*rate <= m.rate_cap(*c) + 1e-12);
        }
    }

    #[test]
    fn polymatroid_catches_over_concentration() {
        // speeds (2, 1, 1): two δ=1 tasks can do at most 3 together even
        // though each alone can do 2 and the capacity is 4.
        let m = related(&[2.0, 1.0, 1.0]);
        let tol = Tolerance::<f64>::default();
        assert!(m.rates_feasible(&[(1.0, 2.0), (1.0, 1.0)], &tol));
        assert!(!m.rates_feasible(&[(1.0, 2.0), (1.0, 2.0)], &tol));
        assert!(m.rates_feasible(&[(1.0, 1.5), (1.0, 1.5)], &tol));
        assert!(m.rates_feasible(&[(3.0, 4.0)], &tol));
        assert!(!m.rates_feasible(&[(2.0, 3.5)], &tol));
    }

    #[test]
    fn level_accumulator_matches_rank_function() {
        let m = related(&[2.0, 1.0, 1.0]);
        let mut acc = LevelAccumulator::new(&m);
        acc.add(&1.0);
        assert_eq!(acc.rate(), 2.0); // one δ=1 task: the fast machine
        acc.add(&1.0);
        assert_eq!(acc.rate(), 3.0); // two δ=1 tasks: 2 + 1
        acc.add(&3.0);
        assert_eq!(acc.rate(), 4.0); // capacity binds
        acc.sub(&1.0);
        acc.sub(&1.0);
        assert_eq!(acc.rate(), 4.0); // the δ=3 task alone reaches P
                                     // Identical machines: rank is min(P, Σ δ̂).
        let id = MachineModel::identical(4.0);
        let mut acc = LevelAccumulator::new(&id);
        acc.add(&3.0);
        assert_eq!(acc.rate(), 3.0);
        acc.add(&3.0);
        assert_eq!(acc.rate(), 4.0);
    }

    #[test]
    fn exact_model_is_exact() {
        let q = Rational::from_f64_exact;
        let m = MachineModel::<Rational>::related(vec![q(2.0), q(1.0), q(0.5)]).unwrap();
        assert_eq!(m.capacity(), q(3.5));
        assert_eq!(m.rate_cap(q(1.5)), q(2.5));
        let r = m.realize(&[q(1.5), q(1.5)]);
        assert_eq!(r[0], q(2.5));
        assert_eq!(r[1], q(1.0));
        let tol = numkit::Tolerance::exact();
        assert!(m.rates_feasible(&[(q(1.5), q(2.5)), (q(1.5), q(1.0))], &tol));
        assert!(!m.rates_feasible(&[(q(1.0), q(2.0)), (q(1.0), q(1.5))], &tol));
    }

    /// Rank `f(T)` of a delta subset via an accumulator over `levels`.
    fn rank_of<S: numkit::Scalar>(levels: &[SpeedLevel<S>], deltas: &[S]) -> S {
        let mut acc = LevelAccumulator::from_levels(levels.to_vec());
        for d in deltas {
            acc.add(d);
        }
        acc.rate()
    }

    #[test]
    fn coalesce_merges_head_and_tail_runs() {
        // Speeds 8,4,2,1,1,1,1,1 → levels (1,4),(2,2),(3,1),(8,1).
        let m = related(&[8.0, 4.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let levels = m.levels();
        assert_eq!(levels.len(), 4);
        // δ_min = 2 merges the first two levels; Δ_total = 3 merges the
        // last two.
        let c = coalesce_levels(&levels, &2.0, &3.0);
        assert_eq!(c.len(), 2);
        assert_eq!((c[0].count, c[0].diff), (2.0, 4.0)); // (1·4 + 2·2)/2
        assert_eq!((c[1].count, c[1].diff), (3.0, 2.0)); // d = 1 + 1
                                                         // A single-level profile (identical machines) passes through.
        let id = MachineModel::identical(4.0).levels();
        assert_eq!(coalesce_levels(&id, &1.0, &100.0), id);
    }

    #[test]
    fn coalesce_preserves_rank_on_random_subsets() {
        // Deterministic LCG over speeds and deltas; every non-empty subset
        // drawn must have identical rank on original vs coalesced levels.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64)
        };
        for trial in 0..50 {
            let nm = 2 + (next() * 6.0) as usize;
            let speeds: Vec<f64> = (0..nm)
                .map(|_| (1.0 + (next() * 8.0).floor()) / 2.0)
                .collect();
            let m = MachineModel::related(speeds).unwrap();
            let nt = 1 + (next() * 5.0) as usize;
            let deltas: Vec<f64> = (0..nt)
                .map(|_| (1.0 + (next() * 6.0).floor()) / 2.0)
                .collect();
            let count = m.count();
            let dmin = deltas.iter().cloned().fold(f64::INFINITY, f64::min);
            let dtot: f64 = deltas.iter().map(|d| d.min(count)).sum();
            let levels = m.levels();
            let coalesced = coalesce_levels(&levels, &dmin, &dtot);
            assert!(coalesced.len() <= levels.len());
            for mask in 1u32..(1 << nt) {
                let sub: Vec<f64> = (0..nt)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| deltas[i])
                    .collect();
                let full = rank_of(&levels, &sub);
                let thin = rank_of(&coalesced, &sub);
                assert!(
                    (full - thin).abs() < 1e-9,
                    "trial {trial} mask {mask}: rank {full} vs {thin}"
                );
            }
        }
    }

    #[test]
    fn coalesce_is_exact_on_rationals() {
        let q = Rational::from_f64_exact;
        // Two δ = 3 tasks: the head run k ≤ 3 merges with a non-dyadic
        // diff (19/6), which must cancel exactly in every rank term; the
        // k = 6 tail level matches Δ_total = 6 but a 1-run stays as is.
        let speeds = vec![q(7.0), q(5.0), q(2.0), q(1.5), q(1.0), q(0.5)];
        let m = MachineModel::<Rational>::related(speeds).unwrap();
        let levels = m.levels();
        let deltas = [q(3.0), q(3.0)];
        let coalesced = coalesce_levels(&levels, &q(3.0), &q(6.0));
        assert!(coalesced.len() < levels.len());
        for mask in 1u32..4 {
            let sub: Vec<Rational> = (0..2)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| deltas[i].clone())
                .collect();
            assert_eq!(
                rank_of(&levels, &sub),
                rank_of(&coalesced, &sub),
                "mask {mask}"
            );
        }
    }

    #[test]
    fn display_labels() {
        assert!(MachineModel::identical(4.0)
            .to_string()
            .contains("identical"));
        assert!(related(&[2.0, 1.0]).to_string().contains("related"));
        assert!(MachineModel::submodular(vec![2.0, 3.0])
            .unwrap()
            .to_string()
            .contains("submodular(f = [2, 3])"));
        assert!(MachineModel::<f64>::restricted(2, vec![vec![0], vec![1]])
            .unwrap()
            .to_string()
            .contains("restricted"));
    }

    #[test]
    fn submodular_constructor_validates_monotone_concave() {
        // f = [3, 5, 6] → gains [3, 2, 1]: valid.
        let m = MachineModel::submodular(vec![3.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.speed_profile(), Some(&[3.0, 2.0, 1.0][..]));
        assert_eq!(m.capacity(), 6.0);
        // Non-monotone and non-concave tables are rejected.
        assert!(MachineModel::submodular(vec![3.0, 3.0]).is_err());
        assert!(MachineModel::submodular(vec![1.0, 3.0]).is_err()); // gain grows
        assert!(MachineModel::<f64>::submodular(vec![]).is_err());
        assert!(MachineModel::submodular(vec![-1.0]).is_err());
    }

    #[test]
    fn submodular_prefix_rank_of_speeds_matches_related_bitwise() {
        // ranks = prefix sums of the speeds ⇒ gains = speeds exactly.
        let speeds = [4.0, 2.0, 1.0];
        let rel = related(&speeds);
        let ranks: Vec<f64> = speeds
            .iter()
            .scan(0.0, |acc, s| {
                *acc += s;
                Some(*acc)
            })
            .collect();
        let sub = MachineModel::submodular(ranks).unwrap();
        assert_eq!(sub.speed_profile(), rel.speed_profile());
        assert_eq!(sub.levels(), rel.levels());
        assert_eq!(sub.capacity(), rel.capacity());
        assert_eq!(sub.count(), rel.count());
        for d in [0.5, 1.0, 1.5, 2.5, 4.0] {
            assert_eq!(sub.rate_cap(d), rel.rate_cap(d));
            assert_eq!(sub.prefix(d), rel.prefix(d));
        }
        assert_eq!(sub.realize(&[1.5, 1.0]), rel.realize(&[1.5, 1.0]));
        assert!(sub.is_related() && !sub.uniform() && !sub.unit_speeds());
        use super::CapacityOracle;
        assert_eq!(sub.marginal_gain(1), 4.0);
        assert_eq!(sub.marginal_gain(3), 1.0);
        assert_eq!(sub.full_rank(), 7.0);
    }

    #[test]
    fn restricted_constructor_and_degeneration() {
        // Complete eligibility on 3 machines ≡ Identical{3}.
        let all = MachineModel::<f64>::restricted(3, vec![vec![0, 1, 2]; 2]).unwrap();
        assert!(all.uniform() && all.unit_speeds());
        assert_eq!(all.capacity(), 3.0);
        assert_eq!(all.count(), 3.0);
        assert_eq!(all.n_machines(), Some(3));
        assert_eq!(all.levels(), MachineModel::identical(3.0).levels());
        assert_eq!(all.rate_cap_for(0, 5.0), 3.0);
        assert_eq!(all.rate_cap_for(1, 2.0), 2.0);
        // Rejections: empty set, out-of-range index, zero machines.
        assert!(MachineModel::<f64>::restricted(3, vec![vec![]]).is_err());
        assert!(MachineModel::<f64>::restricted(3, vec![vec![3]]).is_err());
        assert!(MachineModel::<f64>::restricted(0, vec![]).is_err());
        // Constructor sorts and dedups.
        let m = MachineModel::<f64>::restricted(3, vec![vec![2, 0, 2]]).unwrap();
        assert_eq!(m.restriction().unwrap().1[0], vec![0, 2]);
    }

    #[test]
    fn restricted_capacity_counts_only_reachable_machines() {
        // Machine 2 is nobody's: capacity is 2 of the 3 machines.
        let m = MachineModel::<f64>::restricted(3, vec![vec![0], vec![0, 1]]).unwrap();
        assert!(!m.uniform());
        assert_eq!(m.capacity(), 2.0);
        assert_eq!(m.rate_cap_for(0, 4.0), 1.0);
        assert_eq!(m.rate_cap_for(1, 4.0), 2.0);
        assert_eq!(m.count_cap_for(1, 0.5), 0.5);
    }

    #[test]
    fn restricted_realize_assign_is_the_polymatroid_greedy() {
        // Tasks 0 and 1 both eligible only on machine 0; task 2 on {1, 2}.
        let m = MachineModel::<f64>::restricted(3, vec![vec![0], vec![0], vec![1, 2]]).unwrap();
        // Priority order (0, 1, 2) with shares (1, 1, 2): task 0 takes
        // machine 0 fully, task 1 is starved, task 2 gets both of its
        // machines.
        let r = m.realize_assign(&[(0, 1.0), (1, 1.0), (2, 2.0)]);
        assert_eq!(r, vec![1.0, 0.0, 2.0]);
        // Reversed priority: task 1 now wins machine 0.
        let r = m.realize_assign(&[(1, 1.0), (0, 1.0), (2, 2.0)]);
        assert_eq!(r, vec![1.0, 0.0, 2.0]);
        // Fractional shares split the contested machine.
        let r = m.realize_assign(&[(0, 0.25), (1, 0.5), (2, 0.5)]);
        assert_eq!(r, vec![0.25, 0.5, 0.5]);
    }

    #[test]
    fn restricted_rates_feasible_assign() {
        let tol = Tolerance::<f64>::default();
        let m = MachineModel::<f64>::restricted(3, vec![vec![0], vec![0], vec![1, 2]]).unwrap();
        // Machine 0 contested: total 1 across tasks 0, 1 is fine…
        assert!(m.rates_feasible_assign(&[(0, 1.0, 0.5), (1, 1.0, 0.5), (2, 2.0, 2.0)], &tol));
        // …but 1.5 over-concentrates even though Σ ≤ capacity.
        assert!(!m.rates_feasible_assign(&[(0, 1.0, 1.0), (1, 1.0, 0.5), (2, 2.0, 1.0)], &tol));
        // The blind relaxation would accept that vector.
        assert!(m.rates_feasible(&[(1.0, 1.0), (1.0, 0.5), (2.0, 1.0)], &tol));
    }

    #[test]
    fn rank_oracle_matches_hand_ranks() {
        // Restricted: rank of {0} is 1, {0,1} still 1, {0,1,2} is 3.
        let m = MachineModel::<f64>::restricted(3, vec![vec![0], vec![0], vec![1, 2]]).unwrap();
        let mut o = RankOracle::for_machine(&m);
        assert_eq!(o.rate(), 0.0);
        o.add_task(0, &1.0);
        assert_eq!(o.rate(), 1.0);
        o.add_task(1, &1.0);
        assert_eq!(o.rate(), 1.0);
        o.add_task(2, &2.0);
        assert_eq!(o.rate(), 3.0);
        o.sub_task(1, &1.0);
        assert_eq!(o.rate(), 3.0);
        o.sub_task(0, &1.0);
        assert_eq!(o.rate(), 2.0);
        // Levels oracle degenerates to the accumulator.
        let rel = related(&[2.0, 1.0, 1.0]);
        let mut o = RankOracle::for_machine(&rel);
        o.add_task(0, &1.0);
        o.add_task(1, &1.0);
        assert_eq!(o.rate(), 3.0);
    }

    #[test]
    fn restricted_exact_rationals() {
        let q = Rational::from_f64_exact;
        let m = MachineModel::<Rational>::restricted(2, vec![vec![0], vec![0, 1]]).unwrap();
        let r = m.realize_assign(&[(0, q(0.5)), (1, q(1.5))]);
        assert_eq!(r, vec![q(0.5), q(1.5)]);
        let tol = numkit::Tolerance::exact();
        assert!(m.rates_feasible_assign(&[(0, q(1.0), q(0.5)), (1, q(2.0), q(1.5))], &tol));
        assert!(!m.rates_feasible_assign(&[(0, q(1.0), q(1.0)), (1, q(2.0), q(1.5))], &tol));
    }
}
