//! **The frontier search**: [`frontier`] returns the *exact* optimum of
//! maximum lateness or release-date makespan, on identical, related,
//! submodular and restricted machines alike, as the root of one
//! feasibility frontier.
//!
//! Both objectives ([`Objective`]) minimize a scalar parameter `λ`
//! subject to a monotone feasibility predicate:
//!
//! * `Lateness`: deadlines `Dᵢ(λ) = dᵢ + λ` must be feasible (Theorem 8
//!   on identical machines; the transportation flow in general);
//! * `Makespan`: the common deadline `λ` must be reachable by the
//!   release-date transportation problem.
//!
//! Feasibility of either problem is a transportation question over the
//! machine's **speed levels** (see [`crate::machine`]): between
//! consecutive breakpoints, level `ℓ` offers `k_ℓ·d_ℓ·Δt` capacity and a
//! *released* task can absorb at most `min(δᵢ, k_ℓ)·d_ℓ·Δt` of it. On
//! identical machines there is a single level `(P, 1)` and the network is
//! exactly the one the paper's algorithms used. By max-flow/min-cut the
//! problem fails iff some **task set `T` is violated**:
//!
//! ```text
//! V(T)  >  cap_T(λ)  =  ∫₀^∞ f(T ∩ available at t) dt
//! ```
//!
//! with `f` the machine's polymatroid rank
//! `f(T) = Σ_ℓ min(k_ℓ, Σ_{i∈T} min(δᵢ, k_ℓ))·d_ℓ` (which degenerates to
//! `min(P, Σ δ̂ᵢ)` on identical machines). The key structural fact: once
//! `λ` is at or above the trivial per-task lower bounds, `cap_T(λ)` is
//! **affine in `λ`** with slope `f(T) > 0` — the occupancy breakpoints
//! stop moving relative to each other. So the minimal `λ` satisfying a
//! violated set's constraint has a closed form, and the search is a
//! Newton/Dinkelbach iteration on the piecewise-linear frontier:
//!
//! 1. start at the largest trivial lower bound (itself the root of a
//!    singleton or whole-set constraint, hence `≤ λ*`);
//! 2. if feasible, stop — the current `λ` is both feasible and a valid
//!    lower bound, hence exactly optimal;
//! 3. otherwise extract a violated set `T` from the min cut of the failed
//!    transportation flow, jump to the root of `T`'s constraint
//!    (`≤ λ*`, and strictly above the current `λ`), and repeat.
//!
//! Each violated set is visited at most once (after its root, its
//! constraint holds forever by monotonicity), so the loop terminates
//! combinatorially — **there is no iteration-budget bracket**. On exact
//! scalars every verdict, cut and root is exact, so the returned optimum
//! is the true optimum; on `f64` the same code path runs at machine
//! tolerance, with a slack-sized nudge guarding against knife-edge
//! stalls. A generous safety cap turns a pathological float cycle into an
//! explicit [`ScheduleError::Unconverged`] instead of a silent bracket —
//! the tests assert it never fires. The related-machines greedy
//! ([`crate::algos::related::greedy_related`]) walks the same loop for
//! each task's earliest feasible completion.
//!
//! Successive probes run through one [`ProbeSession`]: the
//! [`FlowNetwork`] arena, the arc topology, and the **residual of the
//! previous probe** live there, so when consecutive probes differ only in
//! arc capacities (the common case — deadlines shift, the interval
//! structure is stable) the session repairs the previous residual in
//! place and re-augments from it ([`FlowNetwork::max_flow_warm`]) instead
//! of re-running Dinic from zero flow. Warm and cold solves agree
//! bit-exactly on exact scalars (debug builds cross-check every warm
//! probe against a cold reference).

use crate::algos::flow::{FlowNetwork, FlowStats};
use crate::algos::waterfill::{water_filling, wf_feasible};
use crate::error::ScheduleError;
use crate::instance::{Instance, TaskId};
use crate::machine::{coalesce_levels, RankOracle, SpeedLevel};
use crate::schedule::column::{Column, ColumnSchedule};
use malleable_trace::MetricSet;
use numkit::{Scalar, Tolerance};

/// The machine's speed levels coalesced against this instance's task
/// population ([`coalesce_levels`]): rank-preserving for every non-empty
/// task subset, so the transportation networks, capacity integrals and
/// constraint roots below use the thin profile interchangeably with the
/// full one. Depends only on the instance — never on probed deadlines —
/// which keeps the arc topology stable across a [`ProbeSession`].
fn instance_levels<S: Scalar>(instance: &Instance<S>) -> Vec<SpeedLevel<S>> {
    let full = instance.machine.levels();
    if full.len() <= 1 || instance.n() == 0 {
        return full;
    }
    let delta_min = instance
        .tasks
        .iter()
        .map(|t| t.delta.clone())
        .reduce(S::min_of)
        .expect("n ≥ 1 checked above");
    // Machine-count units (`min(δᵢ, count)`), NOT the rate cap
    // `effective_delta` — level counts k_ℓ live on the count axis.
    let count = instance.machine.count();
    let delta_total = S::sum(
        instance
            .tasks
            .iter()
            .map(|t| t.delta.clone().min_of(count.clone())),
    );
    coalesce_levels(&full, &delta_min, &delta_total)
}

/// The incremental rank oracle the capacity sweeps and constraint roots
/// run against: restricted assignment keeps task identities (matching
/// rank), every level-decomposable model gets the coalesced profile of
/// [`instance_levels`].
fn instance_rank_oracle<S: Scalar>(instance: &Instance<S>) -> RankOracle<'_, S> {
    if instance.machine.restriction().is_some() {
        RankOracle::for_machine(&instance.machine)
    } else {
        RankOracle::from_levels(instance_levels(instance))
    }
}

/// A violated task set extracted from an infeasible transportation flow:
/// `volume > capacity` certifies infeasibility, and the members let the
/// caller compute the exact parameter value at which the constraint
/// becomes satisfiable.
#[derive(Debug, Clone)]
pub struct ViolatedSet<S> {
    /// Task indices on the source side of the min cut.
    pub tasks: Vec<usize>,
    /// `Σ_{i∈T} Vᵢ`.
    pub volume: S,
    /// `cap_T` at the probed parameter value (for diagnostics).
    pub capacity: S,
}

impl<S: Scalar> ViolatedSet<S> {
    /// The set `tasks` with its volume and its capacity under `releases`
    /// and `deadlines`.
    fn new(
        instance: &Instance<S>,
        tasks: Vec<usize>,
        releases: Option<&[S]>,
        deadlines: &[S],
    ) -> Self {
        let volume = S::sum(tasks.iter().map(|&i| instance.tasks[i].volume.clone()));
        let capacity = set_capacity(instance, &tasks, releases, deadlines);
        ViolatedSet {
            tasks,
            volume,
            capacity,
        }
    }
}

/// The node/edge layout of a transportation network built by
/// [`transport_plan`]: interval boundaries plus, per task, the edge ids
/// of its (interval × level) arcs — what witness extraction needs to read
/// the routed flow back out.
#[derive(Debug)]
pub(crate) struct TransportLayout<S> {
    /// Time intervals `(start, end)`, contiguous from 0.
    pub intervals: Vec<(S, S)>,
    /// Per task: `(interval index, per-level edge ids)` for every interval
    /// the task may use.
    pub task_edges: Vec<Vec<(usize, Vec<usize>)>>,
    /// Source node id.
    pub source: usize,
    /// Sink node id.
    pub sink: usize,
}

/// A fully determined transportation network — arcs in build order with
/// their capacities, plus the layout — computed *without* touching a
/// [`FlowNetwork`]. The [`ProbeSession`] compares consecutive plans: when
/// the arc topology is unchanged (the common case along a monotone probe
/// sequence, where only deadlines shift), it updates capacities in place
/// and warm-starts from the previous residual instead of rebuilding.
pub(crate) struct TransportPlan<S> {
    /// Arcs `(from, to, capacity)` in deterministic build order; arc `i`
    /// becomes forward edge id `2·i`.
    arcs: Vec<(usize, usize, S)>,
    /// Node count (tasks, interval × level nodes, source, sink).
    n_nodes: usize,
    /// Comparison slack of the flow solver (zero for exact scalars).
    eps: S,
    /// The witness-extraction layout.
    layout: TransportLayout<S>,
}

/// Plan the transportation network for per-task `deadlines` under
/// optional per-task `releases`. Nodes: tasks `0..n`, then one node per
/// (interval, speed level), then source and sink. Task arcs are
/// capacitated `min(δᵢ, k_ℓ)·d_ℓ·Δt`, level arcs `k_ℓ·d_ℓ·Δt` — the
/// Federgruen–Groenevelt construction, whose single-level instantiation
/// is the paper's identical-machine network.
///
/// The level axis is **sparse**: the speed profile is coalesced against
/// the task population first ([`instance_levels`]), so head runs every
/// task saturates and tail runs no subset can saturate each cost one arc
/// per interval instead of one per distinct speed, and zero-length
/// intervals (possible only from `f64` boundary snapping) contribute no
/// arcs at all. Both reductions are rank-preserving, so max-flow values
/// and min cuts are unchanged — bit-exactly on exact scalars.
pub(crate) fn transport_plan<S: Scalar>(
    instance: &Instance<S>,
    releases: Option<&[S]>,
    deadlines: &[S],
) -> TransportPlan<S> {
    let n = instance.n();
    debug_assert_eq!(deadlines.len(), n);
    let tol = Tolerance::<S>::for_instance(n);
    let zero = S::zero();
    let release = |i: usize| releases.map_or_else(S::zero, |r| r[i].clone());

    // Interval boundaries: 0, every release strictly inside, every
    // deadline.
    let mut bounds: Vec<S> = Vec::with_capacity(2 * n + 1);
    bounds.push(S::zero());
    for (i, d) in deadlines.iter().enumerate() {
        let r = release(i);
        if r > zero {
            bounds.push(r);
        }
        bounds.push(d.clone());
    }
    bounds.sort_by(S::total_cmp_s);
    bounds.dedup_by(|a, b| tol.eq(a.clone(), b.clone()));
    let intervals: Vec<(S, S)> = bounds
        .windows(2)
        .map(|w| (w[0].clone(), w[1].clone()))
        .collect();
    if instance.machine.restriction().is_some() {
        return restricted_transport_plan(instance, releases, deadlines, intervals, tol);
    }
    let m = intervals.len();
    let levels = instance_levels(instance);
    let nl = levels.len();

    // Nodes: tasks 0..n, (interval × level) n..n+m·L, source, sink.
    let s = n + m * nl;
    let t_ = n + m * nl + 1;
    let mut arcs: Vec<(usize, usize, S)> = Vec::with_capacity(n * (m + 1) * nl);
    let mut task_edges: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); n];
    for (i, task) in instance.tasks.iter().enumerate() {
        arcs.push((s, i, task.volume.clone()));
        // Per-level absorption rate of this task: min(δᵢ, k_ℓ)·d_ℓ.
        let caps: Vec<S> = levels
            .iter()
            .map(|l| task.delta.clone().min_of(l.count.clone()) * l.diff.clone())
            .collect();
        let r = release(i);
        for (j, (a, b)) in intervals.iter().enumerate() {
            let released = r <= a.clone() + tol.abs.clone();
            let before_deadline = *b <= deadlines[i].clone() + tol.abs.clone();
            let len = b.clone() - a.clone();
            if released && before_deadline && len.is_positive() {
                let eids: Vec<usize> = caps
                    .iter()
                    .enumerate()
                    .map(|(li, c)| {
                        arcs.push((i, n + j * nl + li, c.clone() * len.clone()));
                        2 * (arcs.len() - 1)
                    })
                    .collect();
                task_edges[i].push((j, eids));
            }
        }
    }
    for (j, (a, b)) in intervals.iter().enumerate() {
        let len = b.clone() - a.clone();
        if !len.is_positive() {
            continue;
        }
        for (li, l) in levels.iter().enumerate() {
            arcs.push((
                n + j * nl + li,
                t_,
                l.count.clone() * l.diff.clone() * len.clone(),
            ));
        }
    }
    TransportPlan {
        arcs,
        n_nodes: n + m * nl + 2,
        // The flow's ε is a fraction of the comparison tolerance (zero for
        // exact scalars — same convention as the release-date solver).
        eps: tol.abs * S::from_f64(1e-3),
        layout: TransportLayout {
            intervals,
            task_edges,
            source: s,
            sink: t_,
        },
    }
}

/// The restricted-assignment instantiation of [`transport_plan`]: instead
/// of (interval × level) nodes, the network routes through per-machine
/// interval nodes, with one *gate* node per (task, usable interval) that
/// enforces the task's `min(δᵢ, |Eᵢ|)·Δt` absorption cap before the flow
/// fans out to its eligible machines (unit speed ⇒ `Δt` capacity each).
/// Max flow = `Σ_T`-wise matching-rank capacity, so min cuts certify
/// violated sets exactly as in the level network. Nodes: tasks `0..n`,
/// machine `(j, k)` at `n + j·m + k`, gates, then source and sink. Each
/// task's gate arc is recorded in `task_edges`, so witness extraction
/// ([`snapped_interval_rates`]) reads per-interval volumes unchanged.
/// The topology depends only on instance data and the interval structure
/// — warm starts across a [`ProbeSession`] work exactly as on levels.
fn restricted_transport_plan<S: Scalar>(
    instance: &Instance<S>,
    releases: Option<&[S]>,
    deadlines: &[S],
    intervals: Vec<(S, S)>,
    tol: Tolerance<S>,
) -> TransportPlan<S> {
    let n = instance.n();
    let (m, eligible) = instance
        .machine
        .restriction()
        .expect("caller checked restriction");
    let zero = S::zero();
    let release = |i: usize| releases.map_or_else(S::zero, |r| r[i].clone());
    let ni = intervals.len();
    // Usable intervals per task (released, before deadline, positive
    // length) — computed up front so gate nodes can be counted before the
    // source/sink ids are fixed.
    let mut usable: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        let r = release(i);
        debug_assert!(r >= zero);
        for (j, (a, b)) in intervals.iter().enumerate() {
            let released = r.clone() <= a.clone() + tol.abs.clone();
            let before_deadline = *b <= deadlines[i].clone() + tol.abs.clone();
            let len = b.clone() - a.clone();
            if released && before_deadline && len.is_positive() {
                usable[i].push(j);
            }
        }
    }
    let n_gates: usize = usable.iter().map(Vec::len).sum();
    let s = n + ni * m + n_gates;
    let t_ = s + 1;
    let mut arcs: Vec<(usize, usize, S)> = Vec::new();
    let mut task_edges: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); n];
    let mut next_gate = n + ni * m;
    for (i, task) in instance.tasks.iter().enumerate() {
        arcs.push((s, i, task.volume.clone()));
        let sets = &eligible[i];
        let cap_count = task.delta.clone().min_of(S::from_int(sets.len() as i64));
        for &j in &usable[i] {
            let (a, b) = &intervals[j];
            let len = b.clone() - a.clone();
            let gate = next_gate;
            next_gate += 1;
            arcs.push((i, gate, cap_count.clone() * len.clone()));
            task_edges[i].push((j, vec![2 * (arcs.len() - 1)]));
            for &k in sets {
                arcs.push((gate, n + j * m + k, len.clone()));
            }
        }
    }
    for (j, (a, b)) in intervals.iter().enumerate() {
        let len = b.clone() - a.clone();
        if !len.is_positive() {
            continue;
        }
        for k in 0..m {
            arcs.push((n + j * m + k, t_, len.clone()));
        }
    }
    TransportPlan {
        arcs,
        n_nodes: t_ + 1,
        eps: tol.abs * S::from_f64(1e-3),
        layout: TransportLayout {
            intervals,
            task_edges,
            source: s,
            sink: t_,
        },
    }
}

/// Networks below this arc count solve cold even in [`SolveMode::Auto`]:
/// on small networks Dinic from zero flow beats the warm path's fixed
/// bookkeeping (capacity rewrite + residual repair), and the crossover
/// sits around a couple thousand arcs on the bench grid (the n = 32
/// parametric configs have ~600 arcs and used to lose ~60% wall-clock to
/// the warm path; n = 128 has ~8k arcs and wins warm).
pub const WARM_ARC_THRESHOLD: usize = 2048;

/// How a [`ProbeSession`] treats consecutive probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveMode {
    /// Size-gated selection (the production default): probes on networks
    /// with at least [`WARM_ARC_THRESHOLD`] arcs warm-start, smaller ones
    /// solve cold — warm never loses wall-clock to cold for fixed-cost
    /// bookkeeping reasons.
    #[default]
    Auto,
    /// Repair the previous residual in place and re-augment whenever the
    /// arc topology is unchanged, regardless of network size.
    WarmStart,
    /// Rebuild and solve every probe from scratch (the reference path the
    /// warm solver is cross-checked and benchmarked against).
    ColdRestart,
}

/// Work counters of a [`ProbeSession`] — what
/// `exp_perf`/`results/BENCH_parametric.json` report per solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeTelemetry {
    /// Transportation probes solved.
    pub probes: u64,
    /// Probes answered by residual repair + warm augmentation.
    pub warm_solves: u64,
    /// Probes that rebuilt the network (first probe, topology change, or
    /// [`SolveMode::ColdRestart`]).
    pub cold_rebuilds: u64,
    /// Cumulative flow work (Dinic phases, augmenting paths, repairs).
    pub flow: FlowStats,
}

/// `ProbeTelemetry` is a thin view over the unified counter registry: its
/// own slots first, then the nested [`FlowStats`] slots, so one trait
/// carries the whole probe-session counter surface (delta/sum/span-attach
/// come from [`MetricSet`], not hand-rolled bookkeeping).
impl MetricSet for ProbeTelemetry {
    const NAMES: &'static [&'static str] = &[
        "probe.probes",
        "probe.warm_solves",
        "probe.cold_rebuilds",
        "flow.phases",
        "flow.augmentations",
        "flow.repair_paths",
    ];

    fn get(&self, i: usize) -> u64 {
        match i {
            0 => self.probes,
            1 => self.warm_solves,
            2 => self.cold_rebuilds,
            _ => self.flow.get(i - 3),
        }
    }

    fn set(&mut self, i: usize, value: u64) {
        match i {
            0 => self.probes = value,
            1 => self.warm_solves = value,
            2 => self.cold_rebuilds = value,
            _ => self.flow.set(i - 3, value),
        }
    }
}

/// One reusable transportation-probe workspace: the [`FlowNetwork`]
/// arena, the cached arc topology and residual of the last probe, and the
/// layout/capacity bookkeeping — shared by every probe of a
/// [`frontier`] search and of the related-machines greedy.
///
/// Consecutive probes of a parametric search differ only in a handful of
/// arc capacities (deadlines shift; the interval structure is stable once
/// the search is past the trivial lower bounds), so
/// [`ProbeSession::solve`] repairs the previous residual in place and
/// augments from it instead of re-running Dinic from zero flow. When the
/// topology *does* change (interval merge, prefix growth in the related
/// greedy), it falls back to a cold rebuild automatically. In debug
/// builds every warm solve is cross-checked against a cold solve —
/// bit-exactly on exact scalars, within float slack on `f64`.
#[derive(Debug)]
pub struct ProbeSession<S = f64> {
    net: FlowNetwork<S>,
    /// `(from, to)` per arc of the last built network (topology key).
    arcs: Vec<(usize, usize)>,
    n_nodes: usize,
    layout: Option<TransportLayout<S>>,
    mode: SolveMode,
    telemetry: ProbeTelemetry,
}

impl<S: Scalar> Default for ProbeSession<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Scalar> ProbeSession<S> {
    /// A session in [`SolveMode::Auto`] (the production default:
    /// size-gated warm starts).
    pub fn new() -> Self {
        Self::with_mode(SolveMode::Auto)
    }

    /// A session with an explicit solve mode ([`SolveMode::ColdRestart`]
    /// is the benchmark/cross-check reference).
    pub fn with_mode(mode: SolveMode) -> Self {
        ProbeSession {
            net: FlowNetwork::new(0, S::zero()),
            arcs: Vec::new(),
            n_nodes: 0,
            layout: None,
            mode,
            telemetry: ProbeTelemetry::default(),
        }
    }

    /// The session's solve mode.
    pub fn mode(&self) -> SolveMode {
        self.mode
    }

    /// Work counters accumulated over the session's lifetime.
    pub fn telemetry(&self) -> ProbeTelemetry {
        self.telemetry
    }

    /// The flow network of the last probe (for witness extraction and
    /// min-cut reads).
    pub fn network(&self) -> &FlowNetwork<S> {
        &self.net
    }

    /// The layout of the last probe.
    ///
    /// # Panics
    /// Panics before the first [`ProbeSession::solve`].
    pub(crate) fn layout(&self) -> &TransportLayout<S> {
        self.layout.as_ref().expect("no probe solved yet")
    }

    /// Tasks on the source side of the last probe's min cut (callers
    /// check saturation first; on a saturated flow this is just `{}` or
    /// uninformative).
    pub fn min_cut_tasks(&self, n: usize) -> Vec<usize> {
        let side = self.net.min_cut_source_side(self.layout().source);
        (0..n).filter(|&i| side[i]).collect()
    }

    /// Solve the transportation feasibility flow for `deadlines` under
    /// `releases`; returns the max-flow value. Warm-starts from the
    /// previous probe's residual when the arc topology matches (see the
    /// type docs); the residual stays available for
    /// [`ProbeSession::min_cut_tasks`] and witness extraction until the
    /// next solve.
    pub fn solve(&mut self, instance: &Instance<S>, releases: Option<&[S]>, deadlines: &[S]) -> S {
        let plan = transport_plan(instance, releases, deadlines);
        self.telemetry.probes += 1;
        let mut sp = malleable_trace::span("probe.solve");
        sp.arg("arcs", plan.arcs.len() as u64);
        malleable_trace::counter("probe.probes", 1);
        let want_warm = match self.mode {
            SolveMode::ColdRestart => false,
            SolveMode::WarmStart => true,
            SolveMode::Auto => plan.arcs.len() >= WARM_ARC_THRESHOLD,
        };
        let warm_ok = want_warm
            && self.layout.is_some()
            && self.n_nodes == plan.n_nodes
            && self.arcs.len() == plan.arcs.len()
            && self
                .arcs
                .iter()
                .zip(&plan.arcs)
                .all(|(have, want)| have.0 == want.0 && have.1 == want.1);
        let value = if warm_ok {
            sp.arg("warm", 1);
            malleable_trace::counter("probe.warm_solves", 1);
            for (i, (_, _, cap)) in plan.arcs.iter().enumerate() {
                self.net.set_capacity(2 * i, cap.clone());
            }
            self.telemetry.warm_solves += 1;
            self.net.max_flow_warm(plan.layout.source, plan.layout.sink)
        } else {
            sp.arg("warm", 0);
            malleable_trace::counter("probe.cold_rebuilds", 1);
            self.net.reset(plan.n_nodes, plan.eps.clone());
            for (from, to, cap) in &plan.arcs {
                self.net.add_edge(*from, *to, cap.clone());
            }
            self.arcs = plan.arcs.iter().map(|(f, t, _)| (*f, *t)).collect();
            self.n_nodes = plan.n_nodes;
            self.telemetry.cold_rebuilds += 1;
            self.net.max_flow(plan.layout.source, plan.layout.sink)
        };
        self.telemetry.flow = self.net.stats();
        #[cfg(debug_assertions)]
        if warm_ok {
            // Keep the debug-only cold reference solve visually separate
            // in the trace — its flow spans are verification, not work.
            let _cc = malleable_trace::span("probe.cross_check");
            self.cross_check_cold(&plan, &value);
        }
        self.layout = Some(plan.layout);
        value
    }

    /// Debug-build invariant: a warm solve must agree with a from-scratch
    /// solve of the same network — bit-exactly when the slack is zero
    /// (exact scalars), within float slack otherwise. The minimal min cut
    /// is unique across maximum flows, so the residual-reachable source
    /// sides must match too.
    #[cfg(debug_assertions)]
    fn cross_check_cold(&self, plan: &TransportPlan<S>, warm_value: &S) {
        let mut cold = FlowNetwork::new(plan.n_nodes, plan.eps.clone());
        for (from, to, cap) in &plan.arcs {
            cold.add_edge(*from, *to, cap.clone());
        }
        let cold_value = cold.max_flow(plan.layout.source, plan.layout.sink);
        if plan.eps.is_zero() {
            assert!(
                *warm_value == cold_value,
                "warm flow value diverged from cold on an exact scalar"
            );
            assert!(
                self.net.min_cut_source_side(plan.layout.source)
                    == cold.min_cut_source_side(plan.layout.source),
                "warm min cut diverged from cold on an exact scalar"
            );
        } else {
            let drift = (warm_value.clone() - cold_value.clone()).abs();
            let tol = S::default_tolerance();
            let allow = tol.rel * S::from_f64(1e3) * (S::one() + cold_value.abs());
            assert!(
                drift <= allow,
                "warm flow value drifted past float slack: {drift:?}"
            );
        }
    }
}

/// The column schedule routed by the session's last solve, which must
/// have saturated: one column per interval of its layout, each task at
/// its average rate there, with each task's total area snapped onto its
/// exact volume (a no-op in exact arithmetic where the flow saturates
/// exactly; far inside every validation tolerance on `f64`, whose flow
/// can be short by the saturation slack of [`violated_set`]). Near-zero
/// residues and zero-length intervals are dropped, and each completion is
/// the end of the task's last positive allocation.
pub(crate) fn flow_columns<S: Scalar>(
    instance: &Instance<S>,
    session: &ProbeSession<S>,
) -> ColumnSchedule<S> {
    let n = instance.n();
    let tol = Tolerance::<S>::for_instance(n);
    let layout = session.layout();
    let net = session.network();
    let mut col_rates: Vec<Vec<(TaskId, S)>> = vec![Vec::new(); layout.intervals.len()];
    let mut completions = vec![S::zero(); n];
    for (i, task) in instance.tasks.iter().enumerate() {
        let mut pieces: Vec<(usize, S)> = Vec::new();
        let mut area = S::zero();
        for (j, eids) in &layout.task_edges[i] {
            let (a, b) = &layout.intervals[*j];
            let len = b.clone() - a.clone();
            let vol = S::sum(eids.iter().map(|&e| net.flow_on(e)));
            if vol > tol.abs.clone() * len.clone().max_of(S::one()) && len > tol.abs {
                area = area + vol.clone();
                pieces.push((*j, vol / len));
            }
        }
        if pieces.is_empty() {
            continue;
        }
        let scale = task.volume.clone() / area;
        for (j, rate) in pieces {
            completions[i] = completions[i].clone().max_of(layout.intervals[j].1.clone());
            col_rates[j].push((TaskId(i), rate * scale.clone()));
        }
    }
    let columns = layout
        .intervals
        .iter()
        .zip(col_rates)
        .map(|((a, b), rates)| Column {
            start: a.clone(),
            end: b.clone(),
            rates,
        })
        .collect();
    ColumnSchedule {
        p: instance.p.clone(),
        completions,
        columns,
    }
}

/// Feasibility of per-task `deadlines` under optional `releases` as one
/// transportation solve through `session` (warm-started from its previous
/// probe where possible): `None` when the flow saturates every volume,
/// otherwise the violated set on the source side of the min cut. Every
/// flow oracle, the [`flow_witness`](crate::algos::related::flow_witness)
/// error path and [`feasible_with_releases`] go through here.
///
/// Inputs are assumed pre-validated; deadlines must be positive and at
/// least `rᵢ + hᵢ` for every task — the searches guarantee this by
/// starting at the trivial lower bounds.
pub(crate) fn violated_set<S: Scalar>(
    instance: &Instance<S>,
    releases: Option<&[S]>,
    deadlines: &[S],
    session: &mut ProbeSession<S>,
) -> Option<ViolatedSet<S>> {
    let flow = session.solve(instance, releases, deadlines);
    let total_volume = instance.total_volume();
    // Saturation must be tight: the slack is the *unscaled* base tolerance
    // (relative part only, plus a vanishing absolute term — exactly zero
    // for exact scalars). A looser comparison lets the searches accept
    // deadlines that are short by more than the witness snap of
    // [`flow_columns`] can absorb, which surfaces as capacity excess in
    // validation.
    let base = S::default_tolerance();
    let slack = base.rel * total_volume.clone() + base.abs * S::from_f64(1e-3);
    if flow + slack >= total_volume {
        return None;
    }
    // Min-cut certificate: tasks reachable from the source in the
    // residual network form a violated set T with V(T) > cap_T.
    let tasks = session.min_cut_tasks(instance.n());
    Some(ViolatedSet::new(instance, tasks, releases, deadlines))
}

/// The release-date oracle at the common deadline carried by every entry
/// of `deadlines`: a task released after (or too close to) it is a
/// singleton violated set, found without a flow solve; otherwise
/// [`violated_set`] decides.
fn release_probe<S: Scalar>(
    instance: &Instance<S>,
    releases: &[S],
    deadlines: &[S],
    session: &mut ProbeSession<S>,
) -> Option<ViolatedSet<S>> {
    let tol = Tolerance::<S>::for_instance(instance.n());
    for (((id, t), r), d) in instance.iter().zip(releases).zip(deadlines) {
        let h = t.volume.clone() / instance.effective_delta(id);
        if r.clone() + h > d.clone() + tol.slack(d.clone(), S::zero()) {
            return Some(ViolatedSet::new(
                instance,
                vec![id.0],
                Some(releases),
                deadlines,
            ));
        }
    }
    violated_set(instance, Some(releases), deadlines, session)
}

/// `cap_T` — the machine capacity available to task set `T` under the
/// given releases and deadlines:
/// `∫ f({i ∈ T : rᵢ ≤ t < Dᵢ}) dt` with `f` the machine's polymatroid
/// rank, evaluated by sweeping the `2|T|` release/deadline events.
fn set_capacity<S: Scalar>(
    instance: &Instance<S>,
    tasks: &[usize],
    releases: Option<&[S]>,
    deadlines: &[S],
) -> S {
    let release = |i: usize| releases.map_or_else(S::zero, |r| r[i].clone());
    // Events: task enters at its release, leaves at its deadline.
    let mut events: Vec<(S, usize, bool)> = Vec::with_capacity(2 * tasks.len());
    for &i in tasks {
        events.push((release(i), i, true));
        events.push((deadlines[i].clone(), i, false));
    }
    events.sort_by(|a, b| a.0.total_cmp_s(&b.0));
    let mut active = instance_rank_oracle(instance);
    let mut total = S::zero();
    let mut prev = S::zero();
    for (at, i, enters) in events {
        if at > prev {
            total = total + (at.clone() - prev.clone()) * active.rate();
            prev = at;
        }
        let delta = &instance.tasks[i].delta;
        if enters {
            active.add_task(i, delta);
        } else {
            active.sub_task(i, delta);
        }
    }
    total
}

/// Minimal `λ` at which the violated set's constraint
/// `V(T) ≤ cap_T(λ)` becomes satisfiable for the **Lmax** parametrization
/// (deadlines `dᵢ + λ`, all releases zero). Requires `λ` at or above the
/// height bounds so the deadline order is `λ`-independent; then
///
/// `cap_T(λ) = (d₍₁₎ + λ)·f(T) + Σ_{k≥2} (d₍ₖ₎ − d₍ₖ₋₁₎)·f(suffix k)`
///
/// with `f` evaluated over suffixes in due-date order, and the root is
/// the solution of one linear equation. `None` for an empty set.
fn lmax_constraint_root<S: Scalar>(
    instance: &Instance<S>,
    due: &[S],
    set: &ViolatedSet<S>,
) -> Option<S> {
    if set.tasks.is_empty() {
        return None;
    }
    let mut members: Vec<usize> = set.tasks.clone();
    members.sort_by(|&a, &b| due[a].total_cmp_s(&due[b]).then(a.cmp(&b)));
    // Suffix ranks f({members[k..]}) built back to front.
    let mut acc = instance_rank_oracle(instance);
    let mut suffix_rate = vec![S::zero(); members.len()];
    for k in (0..members.len()).rev() {
        acc.add_task(members[k], &instance.tasks[members[k]].delta);
        suffix_rate[k] = acc.rate();
    }
    // λ-independent part: capacity of the gaps between consecutive due
    // dates.
    let mut fixed = S::zero();
    for k in 1..members.len() {
        let gap = due[members[k]].clone() - due[members[k - 1]].clone();
        fixed = fixed + gap * suffix_rate[k].clone();
    }
    let slope = suffix_rate[0].clone();
    debug_assert!(
        slope.is_positive(),
        "δ̂ and speeds are positive by validation"
    );
    Some((set.volume.clone() - fixed) / slope - due[members[0]].clone())
}

/// Minimal common deadline `D` satisfying the violated set's constraint
/// for the **release-date** parametrization. For `D` at or above every
/// `rᵢ + hᵢ` the release order is fixed and
///
/// `cap_T(D) = Σₖ (r₍ₖ₊₁₎ − r₍ₖ₎)·f(prefix k) + (D − r_max)·f(T)`,
///
/// again one linear equation. `None` for an empty set.
fn release_constraint_root<S: Scalar>(
    instance: &Instance<S>,
    releases: &[S],
    set: &ViolatedSet<S>,
) -> Option<S> {
    if set.tasks.is_empty() {
        return None;
    }
    let mut members: Vec<usize> = set.tasks.clone();
    members.sort_by(|&a, &b| releases[a].total_cmp_s(&releases[b]).then(a.cmp(&b)));
    // Capacity of the gaps between consecutive releases (prefix ranks).
    let mut acc = instance_rank_oracle(instance);
    let mut fixed = S::zero();
    for k in 0..members.len() - 1 {
        acc.add_task(members[k], &instance.tasks[members[k]].delta);
        let gap = releases[members[k + 1]].clone() - releases[members[k]].clone();
        fixed = fixed + gap * acc.rate();
    }
    let last = members[members.len() - 1];
    acc.add_task(last, &instance.tasks[last].delta);
    let slope = acc.rate();
    debug_assert!(
        slope.is_positive(),
        "δ̂ and speeds are positive by validation"
    );
    let r_max = releases[last].clone();
    Some(r_max + (set.volume.clone() - fixed) / slope)
}

/// One probe of a monotone feasibility oracle. Flow oracles attach the
/// min-cut certificate of the very solve that failed; `Infeasible(None)`
/// (the flow saturates while the oracle still rejects — an `f64`
/// knife-edge) makes the search nudge instead of jump.
pub(crate) enum Probe<S> {
    /// The probed parameter is feasible.
    Feasible,
    /// Infeasible, with the violated set when one was found.
    Infeasible(Option<ViolatedSet<S>>),
}

impl<S> Probe<S> {
    /// The verdict of a flow oracle: feasible iff no set is violated.
    pub(crate) fn flow(cut: Option<ViolatedSet<S>>) -> Self {
        cut.map_or(Probe::Feasible, |set| Probe::Infeasible(Some(set)))
    }
}

/// The Newton walk along the frontier, shared by every search: from
/// `start` (a valid lower bound on the optimum), probe the deadlines at
/// `λ`; stop on the first feasible `λ`, else jump to the `root` of the
/// violated set's constraint. `n` sizes the comparison slack and the
/// iteration cap; `what` labels the [`ScheduleError::Unconverged`] that
/// the cap turns a float-knife-edge cycle into.
///
/// Termination is combinatorial — each violated set is visited at most
/// once, since its constraint holds for good past its root. Exact scalars
/// always make strict progress; floats may round the root back onto `λ`
/// (or find no usable cut), in which case a slack-sized nudge keeps the
/// search moving toward the oracle's acceptance band.
pub(crate) fn newton<S: Scalar>(
    n: usize,
    start: S,
    what: &'static str,
    session: &mut ProbeSession<S>,
    deadlines_at: impl Fn(&S) -> Vec<S>,
    mut probe: impl FnMut(&S, &[S], &mut ProbeSession<S>) -> Probe<S>,
    root: impl Fn(&[S], &ViolatedSet<S>) -> Option<S>,
) -> Result<S, ScheduleError> {
    let tol = Tolerance::<S>::for_instance(n);
    let mut lambda = start;
    // 16 sets per task plus slack is far beyond anything the tests (or
    // adversarial instances) reach.
    let max_iters = 16 * (n + 4);
    for _ in 0..max_iters {
        let deadlines = deadlines_at(&lambda);
        let next = match probe(&lambda, &deadlines, session) {
            Probe::Feasible => return Ok(lambda),
            Probe::Infeasible(cut) => cut.and_then(|set| root(&deadlines, &set)),
        };
        lambda = match next {
            Some(next) if next > lambda => next,
            _ => lambda.clone() + tol.slack(lambda.clone(), S::one()),
        };
    }
    Err(ScheduleError::Unconverged {
        what,
        iterations: max_iters,
    })
}

/// What a [`frontier`] search minimizes.
#[derive(Debug)]
pub enum Objective<'a, S> {
    /// `Lmax = maxᵢ (Cᵢ − dᵢ)` against due dates, all releases zero. On
    /// uniform machines Water-Filling is the oracle and builds the witness
    /// (Theorem 8 makes it a complete feasibility test); elsewhere the
    /// transportation flow does both.
    Lateness {
        /// Per-task due dates `dᵢ` (any finite sign).
        due: &'a [S],
    },
    /// [`Objective::Lateness`] with the transportation flow as oracle and
    /// witness on every machine model — the same `L*`, a flow witness.
    FlowLateness {
        /// Per-task due dates `dᵢ` (any finite sign).
        due: &'a [S],
    },
    /// `Cmax` under per-task release dates: the minimal common deadline.
    Makespan {
        /// Per-task release dates `rᵢ ≥ 0`.
        releases: &'a [S],
    },
}

// Borrowed vectors only, so copyable whatever the scalar.
impl<S> Clone for Objective<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for Objective<'_, S> {}

/// The per-task *height* on this machine: `hᵢ = Vᵢ / rate_cap(δᵢ)`, the
/// minimal possible running time.
pub(crate) fn heights<S: Scalar>(instance: &Instance<S>) -> Vec<S> {
    instance
        .iter()
        .map(|(id, t)| t.volume.clone() / instance.effective_delta(id))
        .collect()
}

/// Reject a per-task time vector of the wrong length (`what`) or with a
/// non-finite — or, unless `signed`, negative — entry (`context`).
pub(crate) fn check_times<S: Scalar>(
    n: usize,
    times: &[S],
    what: &'static str,
    context: &'static str,
    signed: bool,
) -> Result<(), ScheduleError> {
    if times.len() != n {
        return Err(ScheduleError::LengthMismatch {
            what,
            expected: n,
            found: times.len(),
        });
    }
    match times
        .iter()
        .find(|t| !t.is_finite() || (!signed && t.is_negative()))
    {
        Some(t) => Err(ScheduleError::InvalidTime {
            value: t.to_f64(),
            context,
        }),
        None => Ok(()),
    }
}

/// The **exact** optimum of `objective` — the root of the feasibility
/// frontier, exact on exact scalars and machine-precision on `f64` — with
/// a witnessing schedule. Every transportation probe runs through
/// `session`, and on the flow paths the accepted probe's flow is the
/// witness; callers that do not meter probes pass
/// `&mut ProbeSession::new()`.
///
/// The search starts at the closed-form lower bound (`maxᵢ (hᵢ − dᵢ)` for
/// lateness; `maxᵢ (rᵢ + hᵢ)` and the area bound from the earliest
/// release for makespan) and jumps along violated-set constraint roots
/// (see the module docs). It never returns a bracket: a pathological
/// float knife-edge surfaces as [`ScheduleError::Unconverged`].
///
/// ```
/// use malleable_core::algos::parametric::{frontier, Objective, ProbeSession};
/// use malleable_core::instance::Instance;
///
/// // One task released at t = 5 with minimal running time 2 ⇒ Cmax = 7.
/// let inst = Instance::builder(2.0).task(4.0, 1.0, 2.0).build().unwrap();
/// let makespan = Objective::Makespan { releases: &[5.0] };
/// let (cmax, witness) = frontier(&inst, makespan, &mut ProbeSession::new()).unwrap();
/// assert_eq!(cmax, 7.0);
/// assert_eq!(witness.makespan(), 7.0);
///
/// // Due at 10, the same task finishes 8 early.
/// let lateness = Objective::Lateness { due: &[10.0] };
/// let (lmax, _) = frontier(&inst, lateness, &mut ProbeSession::new()).unwrap();
/// assert_eq!(lmax, -8.0);
/// ```
///
/// # Errors
/// [`ScheduleError::LengthMismatch`]/[`ScheduleError::InvalidTime`] on
/// malformed input (non-finite due dates; negative or non-finite
/// releases), instance validation failures, or
/// [`ScheduleError::Unconverged`]. The problem itself is always feasible
/// for a large enough parameter.
pub fn frontier<S: Scalar>(
    instance: &Instance<S>,
    objective: Objective<'_, S>,
    session: &mut ProbeSession<S>,
) -> Result<(S, ColumnSchedule<S>), ScheduleError> {
    let n = instance.n();
    let (span, times, what, signed) = match objective {
        Objective::Lateness { due } | Objective::FlowLateness { due } => {
            ("solve.lmax", due, "due dates", true)
        }
        Objective::Makespan { releases } => ("solve.cmax", releases, "release dates", false),
    };
    let mut sp = malleable_trace::span(span);
    sp.arg("n", n as u64);
    instance.validate()?;
    check_times(n, times, what, what, signed)?;
    if n == 0 {
        // No tasks: the objective is vacuously zero, the witness empty.
        return Ok((
            S::zero(),
            ColumnSchedule {
                p: instance.p.clone(),
                completions: vec![],
                columns: vec![],
            },
        ));
    }
    let hs = heights(instance);
    match objective {
        Objective::Lateness { due } | Objective::FlowLateness { due } => {
            // Trivial lower bound: every task needs its height, so
            // L ≥ hᵢ − dᵢ (the singleton constraints' roots). The search
            // never probes below it, so d + L ≥ h ≥ 0 always; the clamp
            // only absorbs f64 rounding at the bound itself.
            let start = hs
                .iter()
                .zip(due)
                .map(|(h, d)| h.clone() - d.clone())
                .reduce(S::max_of)
                .expect("n ≥ 1 checked above");
            let clamped = |l: &S| -> Vec<S> {
                due.iter()
                    .zip(&hs)
                    .map(|(d, h)| (d.clone() + l.clone()).max_of(h.clone()))
                    .collect()
            };
            let root = |_: &[S], set: &ViolatedSet<S>| lmax_constraint_root(instance, due, set);
            let what = "parametric min-Lmax search";
            if matches!(objective, Objective::Lateness { .. }) && instance.machine.uniform() {
                // Water-Filling answers the probes and builds the witness,
                // so the two cannot disagree; the session only runs the
                // cut extractions, at the unclamped deadlines dᵢ + λ.
                let wf_probe = |l: &S, d: &[S], session: &mut ProbeSession<S>| {
                    if wf_feasible(instance, d) {
                        return Probe::Feasible;
                    }
                    let unclamped: Vec<S> = due.iter().map(|d| d.clone() + l.clone()).collect();
                    Probe::Infeasible(violated_set(instance, None, &unclamped, session))
                };
                let l = newton(n, start, what, session, clamped, wf_probe, root)?;
                let witness = water_filling(instance, &clamped(&l))?;
                return Ok((l, witness));
            }
            // The flow is oracle and witness builder: probe k's flow warm
            // starts probe k + 1, and the search returns on its first
            // feasible probe, so the session holds the accepted flow.
            let flow_probe = |_: &S, d: &[S], session: &mut ProbeSession<S>| {
                Probe::flow(violated_set(instance, None, d, session))
            };
            let l = newton(n, start, what, session, clamped, flow_probe, root)?;
            Ok((l, flow_columns(instance, session)))
        }
        Objective::Makespan { releases } => {
            // Trivial lower bounds: no task finishes before rᵢ + hᵢ
            // (singleton roots), and the machine cannot beat the area bound
            // measured from the earliest release (the whole-set constraint
            // when P binds).
            let mut start = S::zero();
            for (r, h) in releases.iter().zip(&hs) {
                start = start.max_of(r.clone() + h.clone());
            }
            let rmin = releases
                .iter()
                .cloned()
                .reduce(S::min_of)
                .expect("n ≥ 1 checked above");
            start = start.max_of(rmin + instance.total_volume() / instance.p.clone());
            // The flow is the oracle, and the accepted probe's flow (the
            // session's last) is the witness.
            let c = newton(
                n,
                start,
                "parametric release-date Cmax search",
                session,
                |c| vec![c.clone(); n],
                |_, d, session| Probe::flow(release_probe(instance, releases, d, session)),
                |_, set| release_constraint_root(instance, releases, set),
            )?;
            Ok((c, flow_columns(instance, session)))
        }
    }
}

/// `true` iff all tasks can finish by `deadline` respecting `releases` —
/// the oracle of the [`Objective::Makespan`] search, as one probe.
///
/// # Errors
/// [`ScheduleError::LengthMismatch`]/[`ScheduleError::InvalidTime`] on
/// malformed input.
pub fn feasible_with_releases<S: Scalar>(
    instance: &Instance<S>,
    releases: &[S],
    deadline: S,
) -> Result<bool, ScheduleError> {
    instance.validate()?;
    let n = instance.n();
    check_times(n, releases, "release dates", "release dates", false)?;
    let deadlines = vec![deadline; n];
    Ok(release_probe(instance, releases, &deadlines, &mut ProbeSession::new()).is_none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::makespan::optimal_makespan;
    use bigratio::Rational;

    fn cut(inst: &Instance, deadlines: &[f64]) -> Option<ViolatedSet<f64>> {
        violated_set(inst, None, deadlines, &mut ProbeSession::new())
    }

    fn lmax<S: Scalar>(inst: &Instance<S>, due: &[S]) -> (S, ColumnSchedule<S>) {
        frontier(inst, Objective::Lateness { due }, &mut ProbeSession::new()).unwrap()
    }

    fn cmax<S: Scalar>(inst: &Instance<S>, releases: &[S]) -> (S, ColumnSchedule<S>) {
        frontier(
            inst,
            Objective::Makespan { releases },
            &mut ProbeSession::new(),
        )
        .unwrap()
    }

    #[test]
    fn violated_set_certifies_infeasibility() {
        // P = 1, two unit tasks due at 1: only half the volume fits.
        let inst = Instance::builder(1.0)
            .tasks([(1.0, 1.0, 1.0), (1.0, 1.0, 1.0)])
            .build()
            .unwrap();
        let set = cut(&inst, &[1.0, 1.0]).expect("infeasible");
        assert_eq!(set.tasks, vec![0, 1]);
        assert!(set.volume > set.capacity);
        // Generous deadlines saturate.
        assert!(cut(&inst, &[2.0, 2.0]).is_none());
    }

    #[test]
    fn violated_set_finds_non_prefix_cuts() {
        // P = 2: T0 is loose, T1 is δ-capped and alone infeasible — the
        // violated set must be {1}, not a completion-order prefix.
        let inst = Instance::builder(2.0)
            .task(0.1, 1.0, 1.0)
            .task(1.5, 1.0, 1.0)
            .build()
            .unwrap();
        let set = cut(&inst, &[0.9, 1.0]).expect("T1 cannot fit 1.5 at δ = 1 by t = 1");
        assert_eq!(set.tasks, vec![1]);
        assert!(set.volume > set.capacity);
    }

    #[test]
    fn set_capacity_matches_hand_computation() {
        // P = 2, δ̂ = (2, 1), deadlines (1, 2), no releases:
        // [0,1]: min(2, 3) = 2; [1,2]: min(2, 1) = 1 ⇒ cap = 3.
        let inst = Instance::builder(2.0)
            .task(1.0, 1.0, 2.0)
            .task(1.0, 1.0, 1.0)
            .build()
            .unwrap();
        let cap = set_capacity(&inst, &[0, 1], None, &[1.0, 2.0]);
        assert!((cap - 3.0).abs() < 1e-12);
        // With a release at 1 for T0: [0,1]: min(2,1) = 1 from T1 only —
        // but T0's deadline is 1, so it contributes nothing; cap = 2.
        let cap = set_capacity(&inst, &[0, 1], Some(&[1.0, 0.0]), &[1.0, 2.0]);
        assert!((cap - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lmax_root_solves_the_affine_constraint() {
        // P = 1, unit tasks due 0 and 1/4; the whole set needs
        // (0 + λ)·1 + (1/4)·1 = 2 ⇒ λ = 7/4.
        let inst = Instance::builder(1.0)
            .tasks([(1.0, 1.0, 1.0), (1.0, 1.0, 1.0)])
            .build()
            .unwrap();
        let set = ViolatedSet {
            tasks: vec![0, 1],
            volume: 2.0,
            capacity: 0.0,
        };
        let root = lmax_constraint_root(&inst, &[0.0, 0.25], &set).unwrap();
        assert!((root - 1.75).abs() < 1e-12);
    }

    #[test]
    fn release_root_solves_the_affine_constraint() {
        // P = 2, both tasks δ̂ = 2 released at 2, total volume 6:
        // D = 2 + 6/2 = 5.
        let inst = Instance::builder(2.0)
            .tasks([(3.0, 1.0, 2.0), (3.0, 1.0, 2.0)])
            .build()
            .unwrap();
        let set = ViolatedSet {
            tasks: vec![0, 1],
            volume: 6.0,
            capacity: 0.0,
        };
        let root = release_constraint_root(&inst, &[2.0, 2.0], &set).unwrap();
        assert!((root - 5.0).abs() < 1e-12);
    }

    #[test]
    fn roots_of_an_empty_set_defer_to_the_nudge() {
        let inst = Instance::builder(1.0).task(1.0, 1.0, 1.0).build().unwrap();
        let set = ViolatedSet {
            tasks: vec![],
            volume: 0.0,
            capacity: 0.0,
        };
        assert!(lmax_constraint_root(&inst, &[0.0], &set).is_none());
        assert!(release_constraint_root(&inst, &[0.0], &set).is_none());
    }

    #[test]
    fn related_machine_capacity_uses_the_speed_profile() {
        // speeds (2, 1, 1): two δ = 1 tasks get f(T) = 3, not 4.
        let inst = Instance::builder(0.0)
            .tasks([(3.0, 1.0, 1.0), (3.0, 1.0, 1.0)])
            .speeds(vec![2.0, 1.0, 1.0])
            .build()
            .unwrap();
        let cap = set_capacity(&inst, &[0, 1], None, &[2.0, 2.0]);
        assert!((cap - 6.0).abs() < 1e-12, "2·min-rank 3 = 6, got {cap}");
        // Both volumes total 6 fit exactly at deadline 2...
        assert!(cut(&inst, &[2.0, 2.0]).is_none());
        // ...but not a hair earlier, even though the *capacity* relaxation
        // (P = 4, caps 2) would claim 3.6 ≥ 3 + 3 at deadline 1.8.
        let set = cut(&inst, &[1.8, 1.8]).expect("speed profile must reject deadline 1.8");
        assert_eq!(set.tasks, vec![0, 1]);
        assert!(set.volume > set.capacity);
    }

    #[test]
    fn related_lmax_root_uses_the_rank_slope() {
        // Same machine: whole-set slope is f(T) = 3.
        let inst = Instance::builder(0.0)
            .tasks([(3.0, 1.0, 1.0), (3.0, 1.0, 1.0)])
            .speeds(vec![2.0, 1.0, 1.0])
            .build()
            .unwrap();
        let set = ViolatedSet {
            tasks: vec![0, 1],
            volume: 6.0,
            capacity: 0.0,
        };
        // Both due at 0: cap(λ) = 3λ = 6 ⇒ λ = 2.
        let root = lmax_constraint_root(&inst, &[0.0, 0.0], &set).unwrap();
        assert!((root - 2.0).abs() < 1e-12);
        let root = release_constraint_root(&inst, &[0.0, 0.0], &set).unwrap();
        assert!((root - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lmax_zero_due_dates_equals_per_task_makespan() {
        // With all due dates 0, the optimal common completion is C* — and
        // the parametric search returns it exactly.
        let inst = Instance::builder(2.0)
            .tasks([(2.0, 1.0, 1.0), (2.0, 1.0, 2.0)])
            .build()
            .unwrap();
        let (l, cs) = lmax(&inst, &[0.0, 0.0]);
        cs.validate(&inst).unwrap();
        assert_eq!(l, optimal_makespan(&inst));
    }

    #[test]
    fn lmax_respects_heterogeneous_due_dates() {
        // T0 due early, T1 due late: both fit with L = 0 when deadlines are
        // generous.
        let inst = Instance::builder(2.0)
            .tasks([(1.0, 1.0, 1.0), (1.0, 1.0, 1.0)])
            .build()
            .unwrap();
        let (l, cs) = lmax(&inst, &[1.0, 2.0]);
        cs.validate(&inst).unwrap();
        assert_eq!(l, 0.0, "expected exactly zero lateness");
    }

    #[test]
    fn lmax_can_be_negative() {
        // Plenty of slack: the task finishes at its height 0.25, a full
        // 9.75 before its due date — exactly.
        let inst = Instance::builder(4.0).task(1.0, 1.0, 4.0).build().unwrap();
        assert_eq!(lmax(&inst, &[10.0]).0, -9.75);
    }

    #[test]
    fn lmax_tight_instance_matches_hand_computation() {
        // P=1, two unit tasks δ=1, due dates 1 and 1: one must be late by
        // exactly 1 (one cut iteration from the height bound L = 0).
        let inst = Instance::builder(1.0)
            .tasks([(1.0, 1.0, 1.0), (1.0, 1.0, 1.0)])
            .build()
            .unwrap();
        assert_eq!(lmax(&inst, &[1.0, 1.0]).0, 1.0);
    }

    #[test]
    fn lmax_adversarially_tight_staircase_is_exact() {
        // P = 1, unit tasks due at i/3 — the optimum L* = n − (n−1)/3 sits
        // off the dyadic grid, so a bisection bracket could only approach
        // it. The parametric search must land on it exactly (f64: to the
        // last ulp of the closed form; Rational: identically), with no
        // `Unconverged` escape.
        let n = 7usize;
        let due_f: Vec<f64> = (0..n).map(|i| i as f64 / 3.0).collect();
        let inst = Instance::builder(1.0)
            .tasks((0..n).map(|_| (1.0, 1.0, 1.0)))
            .build()
            .unwrap();
        let (l, cs) = lmax(&inst, &due_f);
        cs.validate(&inst).unwrap();
        let expect = n as f64 - (n as f64 - 1.0) / 3.0;
        assert!((l - expect).abs() < 1e-12, "f64: {l} vs {expect}");

        let q = Rational::from_f64_exact;
        let exact = Instance::<Rational>::builder(q(1.0))
            .tasks((0..n).map(|_| (q(1.0), q(1.0), q(1.0))))
            .build()
            .unwrap();
        let due_r: Vec<Rational> = (0..n).map(|i| Rational::new(i as i64, 3)).collect();
        let (lr, csr) = lmax(&exact, &due_r);
        csr.validate(&exact).unwrap(); // zero tolerance
        assert_eq!(lr, Rational::new(7 * 3 - 6, 3), "exact optimum is 5");
    }

    #[test]
    fn exact_lmax_requires_a_cut_iteration_and_is_exact() {
        // P = 1, dues 0 and 1/3: the height bound L = 1 is infeasible, one
        // violated-set jump lands on L* = 5/3 exactly.
        let q = Rational::from_f64_exact;
        let inst = Instance::<Rational>::builder(q(1.0))
            .tasks([(q(1.0), q(1.0), q(1.0)), (q(1.0), q(1.0), q(1.0))])
            .build()
            .unwrap();
        let due = [Rational::from_int(0), Rational::new(1, 3)];
        let (l, cs) = lmax(&inst, &due);
        cs.validate(&inst).unwrap();
        assert_eq!(l, Rational::new(5, 3));
        // Optimality certificate: any smaller L is infeasible, exactly.
        let eps = Rational::new(1, 1_000_000);
        let probe: Vec<Rational> = due
            .iter()
            .map(|d| d.clone() + l.clone() - eps.clone())
            .collect();
        assert!(!wf_feasible(&inst, &probe));
    }

    #[test]
    fn flow_lateness_is_exact_on_related_machines() {
        // speeds (2, 1, 1), two δ = 1 tasks of volume 3 due at 0: the
        // pair's rank is 3, so L* = 2 (3·L ≥ 6).
        let q = Rational::from_f64_exact;
        let inst = Instance::<Rational>::builder(q(0.0))
            .tasks([(q(3.0), q(1.0), q(1.0)), (q(3.0), q(1.0), q(1.0))])
            .speeds(vec![q(2.0), q(1.0), q(1.0)])
            .build()
            .unwrap();
        let due = [q(0.0), q(0.0)];
        let objective = Objective::FlowLateness { due: &due };
        let (l, cs) = frontier(&inst, objective, &mut ProbeSession::new()).unwrap();
        assert_eq!(l, Rational::from_int(2));
        cs.validate(&inst).unwrap(); // zero tolerance, polymatroid included
                                     // ε below the optimum is exactly infeasible.
        let eps = Rational::new(1, 1_000_000);
        let probe = vec![l.clone() - eps.clone(), l - eps];
        assert!(violated_set(&inst, None, &probe, &mut ProbeSession::new()).is_some());
    }

    #[test]
    fn flow_lateness_agrees_with_the_water_filling_path_on_identical_machines() {
        let inst = Instance::builder(2.0)
            .tasks([(2.0, 1.0, 1.0), (2.0, 1.0, 2.0)])
            .build()
            .unwrap();
        let objective = Objective::FlowLateness { due: &[0.0, 0.0] };
        let (via_flow, cs) = frontier(&inst, objective, &mut ProbeSession::new()).unwrap();
        cs.validate(&inst).unwrap();
        assert_eq!(via_flow, lmax(&inst, &[0.0, 0.0]).0);
    }

    #[test]
    fn lmax_rejects_bad_input() {
        let inst = Instance::builder(1.0).task(1.0, 1.0, 1.0).build().unwrap();
        let mut session = ProbeSession::new();
        for due in [&[1.0, 2.0][..], &[f64::NAN]] {
            assert!(frontier(&inst, Objective::Lateness { due }, &mut session).is_err());
            assert!(frontier(&inst, Objective::FlowLateness { due }, &mut session).is_err());
        }
    }

    #[test]
    fn empty_instance_is_trivially_zero() {
        // n = 0: both objectives are vacuously zero and the witness is the
        // empty schedule — no NaN, no panic, no search.
        let inst = Instance::new(2.0, vec![]).unwrap();
        for objective in [
            Objective::Lateness { due: &[] },
            Objective::FlowLateness { due: &[] },
            Objective::Makespan { releases: &[] },
        ] {
            let mut session = ProbeSession::new();
            let (value, cs) = frontier(&inst, objective, &mut session).unwrap();
            assert_eq!(value, 0.0);
            assert!(cs.completions.is_empty());
            cs.validate(&inst).unwrap();
            assert_eq!(session.telemetry().probes, 0);
        }
    }

    #[test]
    fn zero_releases_match_plain_makespan() {
        let inst = Instance::builder(3.0)
            .tasks([(4.0, 1.0, 2.0), (3.0, 1.0, 1.0), (2.0, 1.0, 3.0)])
            .build()
            .unwrap();
        let (c, cs) = cmax(&inst, &[0.0, 0.0, 0.0]);
        assert_eq!(c, optimal_makespan(&inst), "parametric solve is exact");
        cs.validate(&inst).unwrap();
    }

    #[test]
    fn late_release_forces_waiting() {
        // Single task released at 5 with height 2 ⇒ Cmax = 7, exactly.
        let inst = Instance::builder(2.0).task(4.0, 1.0, 2.0).build().unwrap();
        let (c, cs) = cmax(&inst, &[5.0]);
        assert_eq!(c, 7.0);
        // No allocation before the release.
        for col in cs.columns.iter().filter(|col| !col.rates.is_empty()) {
            assert!(col.start >= 5.0 - 1e-9);
        }
    }

    #[test]
    fn staggered_releases_hand_computed() {
        // P=1, two unit tasks δ=1, releases 0 and 0.5: machine busy from
        // 0; total volume 2 ⇒ Cmax = 2 (area bound holds from r_min = 0).
        let inst = Instance::builder(1.0)
            .tasks([(1.0, 1.0, 1.0), (1.0, 1.0, 1.0)])
            .build()
            .unwrap();
        let (c, cs) = cmax(&inst, &[0.0, 0.5]);
        assert_eq!(c, 2.0);
        cs.validate(&inst).unwrap();
    }

    #[test]
    fn release_after_area_bound_dominates() {
        // P=2: a small task at 0, a big one released at 10.
        let inst = Instance::builder(2.0)
            .tasks([(1.0, 1.0, 1.0), (4.0, 1.0, 2.0)])
            .build()
            .unwrap();
        assert_eq!(cmax(&inst, &[0.0, 10.0]).0, 12.0);
    }

    #[test]
    fn cut_iteration_lands_on_the_exact_optimum() {
        // Two δ-capped tasks released together at 2 are the critical set:
        // the trivial bounds say 3.5, the {T1, T2} cut forces
        // Cmax = 2 + 6/2 = 5 — one Newton jump, exact in both fields.
        let inst = Instance::builder(2.0)
            .tasks([(0.5, 1.0, 2.0), (3.0, 1.0, 2.0), (3.0, 1.0, 2.0)])
            .build()
            .unwrap();
        let (c, cs) = cmax(&inst, &[0.0, 2.0, 2.0]);
        assert_eq!(c, 5.0);
        cs.validate(&inst).unwrap();

        let q = Rational::from_f64_exact;
        let exact = Instance::<Rational>::builder(q(2.0))
            .tasks([
                (q(0.5), q(1.0), q(2.0)),
                (q(3.0), q(1.0), q(2.0)),
                (q(3.0), q(1.0), q(2.0)),
            ])
            .build()
            .unwrap();
        let releases = [q(0.0), q(2.0), q(2.0)];
        let (cr, csr) = cmax(&exact, &releases);
        assert_eq!(cr, Rational::from_int(5));
        csr.validate(&exact).unwrap(); // zero tolerance
        assert!(!feasible_with_releases(&exact, &releases, q(4.999)).unwrap());
    }

    #[test]
    fn feasibility_is_monotone_in_deadline() {
        let inst = Instance::builder(2.0)
            .tasks([(2.0, 1.0, 1.0), (3.0, 1.0, 2.0), (1.0, 1.0, 1.0)])
            .build()
            .unwrap();
        let releases = [0.0, 1.0, 2.0];
        let (c, _) = cmax(&inst, &releases);
        assert!(!feasible_with_releases(&inst, &releases, c * 0.98).unwrap());
        assert!(feasible_with_releases(&inst, &releases, c * 1.02).unwrap());
    }

    #[test]
    fn witness_schedule_respects_releases_and_validates() {
        let inst = Instance::builder(4.0)
            .tasks([
                (6.0, 1.0, 2.0),
                (2.0, 1.0, 4.0),
                (5.0, 1.0, 3.0),
                (1.0, 1.0, 1.0),
            ])
            .build()
            .unwrap();
        let releases = [0.0, 2.0, 1.0, 3.0];
        let (c, cs) = cmax(&inst, &releases);
        cs.validate(&inst).unwrap();
        for col in &cs.columns {
            for (id, _) in &col.rates {
                assert!(
                    col.start >= releases[id.0] - 1e-9,
                    "task {id:?} ran before its release"
                );
            }
        }
        assert!(cs.makespan() <= c + 1e-6);
    }

    #[test]
    fn exact_release_solve_is_exact_when_the_bound_is_tight() {
        // Height bound binds at the release: the start value 5 + 2 = 7 is
        // feasible immediately (zero cut iterations) — and the witness
        // validates with zero tolerance.
        let q = Rational::from_f64_exact;
        let inst = Instance::<Rational>::builder(q(2.0))
            .task(q(4.0), q(1.0), q(2.0))
            .build()
            .unwrap();
        let (c, cs) = cmax(&inst, &[q(5.0)]);
        assert_eq!(c, Rational::from_int(7));
        cs.validate(&inst).unwrap();
        // Feasibility verdicts are exact certificates on both sides.
        assert!(!feasible_with_releases(&inst, &[q(5.0)], q(6.999)).unwrap());
        assert!(feasible_with_releases(&inst, &[q(5.0)], q(7.0)).unwrap());
    }

    #[test]
    fn malformed_releases_rejected() {
        let inst = Instance::builder(1.0).task(1.0, 1.0, 1.0).build().unwrap();
        let mut session = ProbeSession::new();
        for releases in [&[0.0, 1.0][..], &[-1.0], &[f64::NAN]] {
            let objective = Objective::Makespan { releases };
            assert!(frontier(&inst, objective, &mut session).is_err());
        }
    }
}
