//! Dinic's maximum-flow algorithm — the substrate for scheduling with
//! release dates.
//!
//! Table I of the paper lists `P | var; Vᵢ/q, δᵢ, rᵢ | Cmax` as solvable in
//! O(n²) [Drozdowski 2001]. The feasibility core of that result is a
//! transportation problem: between consecutive release dates the machine
//! offers `P·len` units of capacity and each *released* task can absorb at
//! most `δᵢ·len`; a common deadline `T` is feasible iff the corresponding
//! bipartite flow saturates all volumes. We solve it with a small dense
//! Dinic implementation (the graphs have O(n²) edges at n ≤ a few
//! thousand, well within Dinic's comfort zone).
//!
//! Generic over the scalar, like the rest of the algorithm stack: the
//! `f64` instantiation is exact up to float arithmetic (every augmentation
//! subtracts exact minima, so no error accumulates beyond the input
//! precision, guarded by a relative ε), while an exact field runs with
//! `eps = 0` and produces exact max-flow values — feasibility verdicts
//! that are certificates.

use malleable_trace::MetricSet;
use numkit::Scalar;
use std::collections::VecDeque;

/// A directed edge in the flow network.
#[derive(Debug, Clone)]
struct Edge<S> {
    to: usize,
    cap: S,
    flow: S,
}

/// Direction of a walk along the flow decomposition (see
/// [`FlowNetwork::flow_path`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dir {
    Forward,
    Backward,
}

/// Cumulative work counters of a [`FlowNetwork`] — the telemetry the
/// warm-start bench (`results/BENCH_parametric.json`) and the probe
/// sessions report. Counters accumulate across solves on the same network
/// until [`FlowNetwork::reset_stats`]; snapshot-and-subtract to meter one
/// solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// BFS level-graph constructions (Dinic phases). Each phase is one
    /// full augmentation pass over the graph, so this is the
    /// "augmentation passes" count the warm-vs-cold comparison tracks.
    pub phases: u64,
    /// Successful augmenting-path pushes across all phases.
    pub augmentations: u64,
    /// Flow units cancelled while repairing overflowing arcs after a
    /// capacity reduction (zero on cold solves).
    pub repair_paths: u64,
}

/// `FlowStats` is a thin view over the unified counter registry: slot
/// names are the canonical registry names, and the snapshot-and-subtract
/// bookkeeping (`since`/`plus`) comes from the trait instead of being
/// hand-rolled per struct.
impl MetricSet for FlowStats {
    const NAMES: &'static [&'static str] =
        &["flow.phases", "flow.augmentations", "flow.repair_paths"];

    fn get(&self, i: usize) -> u64 {
        [self.phases, self.augmentations, self.repair_paths][i]
    }

    fn set(&mut self, i: usize, value: u64) {
        match i {
            0 => self.phases = value,
            1 => self.augmentations = value,
            _ => self.repair_paths = value,
        }
    }
}

/// Max-flow network on dense small graphs (Dinic's algorithm).
#[derive(Debug, Clone)]
pub struct FlowNetwork<S = f64> {
    edges: Vec<Edge<S>>,
    /// Adjacency: node → indices into `edges` (even = forward, odd = back).
    adj: Vec<Vec<usize>>,
    /// Forward edges whose capacity was set below their routed flow since
    /// the last solve — the only candidates the next warm repair must
    /// visit. Augmentation never overfills an arc and repair only cancels
    /// flow, so an arc can overflow *only* through
    /// [`FlowNetwork::set_capacity`]; tracking them here turns the warm
    /// repair's full edge scan into an O(#changed) drain (and a no-op on
    /// the monotone capacity-growth sequences the parametric probes
    /// produce).
    overflowed: Vec<usize>,
    eps: S,
    stats: FlowStats,
}

impl<S: Scalar> FlowNetwork<S> {
    /// A network with `n` nodes and comparison slack `eps` (pass zero for
    /// exact scalars).
    pub fn new(n: usize, eps: S) -> Self {
        FlowNetwork {
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
            overflowed: Vec::new(),
            eps,
            stats: FlowStats::default(),
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Reset the network to `n` empty nodes with comparison slack `eps`,
    /// **reusing the existing allocations**: the edge arena and the
    /// adjacency vectors keep their capacity, so a parametric search that
    /// probes many deadlines rebuilds capacities in place instead of
    /// reallocating a fresh network per probe (see
    /// [`crate::algos::parametric`]).
    pub fn reset(&mut self, n: usize, eps: S) {
        self.edges.clear();
        self.overflowed.clear();
        self.adj.truncate(n);
        for a in &mut self.adj {
            a.clear();
        }
        self.adj.resize_with(n, Vec::new);
        self.eps = eps;
    }

    /// Add a new node, returning its id.
    pub fn add_node(&mut self) -> usize {
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Add an edge `from → to` with capacity `cap` (and its residual).
    /// Returns the edge id (usable with [`FlowNetwork::flow_on`]).
    ///
    /// # Panics
    /// Panics on out-of-range nodes or negative capacity (builder misuse).
    pub fn add_edge(&mut self, from: usize, to: usize, cap: S) -> usize {
        assert!(from < self.adj.len() && to < self.adj.len(), "bad node");
        assert!(!cap.is_negative(), "negative capacity");
        let id = self.edges.len();
        self.edges.push(Edge {
            to,
            cap,
            flow: S::zero(),
        });
        self.edges.push(Edge {
            to: from,
            cap: S::zero(),
            flow: S::zero(),
        });
        self.adj[from].push(id);
        self.adj[to].push(id + 1);
        id
    }

    /// Flow currently routed through edge `id`.
    pub fn flow_on(&self, id: usize) -> S {
        self.edges[id].flow.clone()
    }

    /// Capacity of edge `id`.
    pub fn capacity_on(&self, id: usize) -> S {
        self.edges[id].cap.clone()
    }

    /// Cumulative work counters (phases, augmentations, repairs) since
    /// construction or [`FlowNetwork::reset_stats`]. [`FlowNetwork::reset`]
    /// deliberately does **not** clear them, so a probe session's counters
    /// accumulate across cold rebuilds too.
    pub fn stats(&self) -> FlowStats {
        self.stats
    }

    /// Zero the work counters.
    pub fn reset_stats(&mut self) {
        self.stats = FlowStats::default();
    }

    /// Replace the capacity of forward edge `id`, **keeping the routed
    /// flow** — the entry point of the warm-start path. The edge may be
    /// left overflowing (`flow > cap`); it is remembered on a dirty list
    /// and the next [`FlowNetwork::max_flow_warm`] repairs exactly the
    /// remembered edges along decomposition paths before re-augmenting.
    ///
    /// # Panics
    /// Panics on a backward-edge id, an out-of-range id, or a negative
    /// capacity (builder misuse).
    pub fn set_capacity(&mut self, id: usize, cap: S) {
        assert!(id.is_multiple_of(2), "set_capacity takes forward edge ids");
        assert!(id < self.edges.len(), "bad edge id");
        assert!(!cap.is_negative(), "negative capacity");
        if self.edges[id].flow.clone() - cap.clone() > self.eps {
            self.overflowed.push(id);
        }
        self.edges[id].cap = cap;
    }

    /// Net flow currently leaving node `s` (the max-flow value when `s` is
    /// the source and a solve has run). Backward arcs store the negated
    /// forward flow, so the plain sum over the adjacency is already the
    /// net.
    pub fn flow_value(&self, s: usize) -> S {
        S::sum(self.adj[s].iter().map(|&eid| self.edges[eid].flow.clone()))
    }

    /// The source side of a minimum cut after [`FlowNetwork::max_flow`] has
    /// run: `result[v]` is `true` iff `v` is reachable from `s` in the
    /// residual network. By max-flow/min-cut the edges leaving this set
    /// form a minimum cut, which is exactly the infeasibility certificate
    /// the parametric schedulers extract (the violated task set of a
    /// transportation network that failed to saturate).
    pub fn min_cut_source_side(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.adj.len()];
        seen[s] = true;
        let mut q = VecDeque::from([s]);
        while let Some(u) = q.pop_front() {
            for &eid in &self.adj[u] {
                let to = self.edges[eid].to;
                if !seen[to] && self.residual(eid) > self.eps {
                    seen[to] = true;
                    q.push_back(to);
                }
            }
        }
        seen
    }

    fn residual(&self, id: usize) -> S {
        self.edges[id].cap.clone() - self.edges[id].flow.clone()
    }

    /// Run Dinic's algorithm from `s` to `t`; returns the max-flow value.
    ///
    /// # Panics
    /// Panics when `s == t` (builder misuse).
    pub fn max_flow(&mut self, s: usize, t: usize) -> S {
        assert_ne!(s, t, "source equals sink");
        let snap = self.stats;
        let mut sp = malleable_trace::span("flow.solve");
        sp.arg("warm", 0);
        self.augment(s, t, true);
        let delta = self.stats.since(&snap);
        delta.attach(&mut sp);
        delta.record();
        self.flow_value(s)
    }

    /// Re-solve after capacity edits ([`FlowNetwork::set_capacity`])
    /// **without discarding the routed flow**: first repair every
    /// overflowing arc by cancelling its excess along flow-decomposition
    /// paths (or cycles), then resume Dinic's augmentation from the warm
    /// residual. Returns the new max-flow value.
    ///
    /// The repaired-then-augmented flow is a maximum flow of the edited
    /// network, so the max-flow value — and the residual-reachable source
    /// side of the min cut, which is the *unique inclusion-minimal* min
    /// cut of any maximum flow — agree exactly with a cold solve on exact
    /// scalars. Monotone capacity sequences (the parametric probes) pay
    /// only for the delta between consecutive networks.
    ///
    /// # Panics
    /// Panics when `s == t` (builder misuse).
    pub fn max_flow_warm(&mut self, s: usize, t: usize) -> S {
        assert_ne!(s, t, "source equals sink");
        let snap = self.stats;
        let mut sp = malleable_trace::span("flow.solve");
        sp.arg("warm", 1);
        {
            let mut repair_sp = malleable_trace::span("flow.repair");
            let repaired_before = self.stats.repair_paths;
            self.repair_overflows(s, t);
            repair_sp.arg(
                "flow.repair_paths",
                self.stats.repair_paths - repaired_before,
            );
        }
        self.augment(s, t, true);
        let delta = self.stats.since(&snap);
        delta.attach(&mut sp);
        delta.record();
        self.flow_value(s)
    }

    /// [`FlowNetwork::max_flow_warm`] without spans or registry counters:
    /// repair the overflowing arcs, re-augment, return the new max-flow
    /// value. The work still lands in [`FlowNetwork::stats`], so callers
    /// that meter it under their own counter snapshot-and-subtract (the
    /// restricted rank oracle of [`crate::machine`] does).
    pub(crate) fn max_flow_warm_untraced(&mut self, s: usize, t: usize) -> S {
        assert_ne!(s, t, "source equals sink");
        self.repair_overflows(s, t);
        self.augment(s, t, false);
        self.flow_value(s)
    }

    /// **Append-task augmentation**: push flow from the source through the
    /// forward edge `arc` (typically a freshly added source arc of a new
    /// task node, so the routed flow stays feasible), along residual paths
    /// that start with `arc` and never re-enter its tail, until `arc`
    /// saturates or no such path reaches `t`. Returns the amount pushed.
    ///
    /// When the flow was maximum before a new node was appended whose only
    /// in-arc is `arc` (its out-arcs are free), the result is maximum
    /// again: an augmentation from the new node only reverses arcs between
    /// nodes the source could not reach, so no old source arc gains a
    /// path, and nothing the source reaches ever gets an arc into the new
    /// node. The pushed amount is therefore the exact marginal max-flow
    /// gain of the new node. Each path is one BFS (shortest augmenting
    /// path) over the residual graph; no span is opened, pushes count
    /// into [`FlowStats::augmentations`].
    ///
    /// # Panics
    /// Panics on a backward-edge or out-of-range id, or when either end of
    /// `arc` is `t` (builder misuse).
    pub fn augment_from(&mut self, arc: usize, t: usize) -> S {
        assert!(arc.is_multiple_of(2), "augment_from takes forward edge ids");
        assert!(arc < self.edges.len(), "bad edge id");
        let s = self.edges[arc ^ 1].to;
        let v = self.edges[arc].to;
        assert!(v != t && s != t, "augment_from needs an arc off the sink");
        let mut pushed = S::zero();
        // Every arc into `t` saturated: no path can exist, skip the BFS
        // (the common case of a rank oracle whose machines are all taken).
        if self.adj[t]
            .iter()
            .all(|&eid| self.residual(eid ^ 1) <= self.eps)
        {
            return pushed;
        }
        let mut via = vec![usize::MAX; self.adj.len()];
        let mut q = VecDeque::new();
        loop {
            let room = self.residual(arc);
            if room <= self.eps {
                return pushed;
            }
            // BFS from the head of `arc`; the tail is pre-marked so no
            // path re-enters it.
            via.fill(usize::MAX);
            via[s] = arc ^ 1;
            via[v] = arc;
            q.clear();
            q.push_back(v);
            'bfs: while let Some(u) = q.pop_front() {
                for &eid in &self.adj[u] {
                    let to = self.edges[eid].to;
                    if via[to] == usize::MAX && self.residual(eid) > self.eps {
                        via[to] = eid;
                        if to == t {
                            break 'bfs;
                        }
                        q.push_back(to);
                    }
                }
            }
            if via[t] == usize::MAX {
                return pushed;
            }
            // Bottleneck along t ← … ← v, capped by the room on `arc`.
            let mut amount = room;
            let mut at = t;
            while at != v {
                let eid = via[at];
                amount = amount.min_of(self.residual(eid));
                at = self.edges[eid ^ 1].to;
            }
            let mut at = t;
            while at != s {
                let eid = via[at];
                self.edges[eid].flow = self.edges[eid].flow.clone() + amount.clone();
                self.edges[eid ^ 1].flow = self.edges[eid ^ 1].flow.clone() - amount.clone();
                at = self.edges[eid ^ 1].to;
            }
            pushed = pushed + amount;
            self.stats.augmentations += 1;
        }
    }

    /// Cancel the excess of every overflowing arc (`flow > cap` after a
    /// capacity reduction) along paths of the flow decomposition: an
    /// `s → u → e → v → t` path when the arc carries path flow, the
    /// containing cycle otherwise. Leaves a valid (conservation-respecting,
    /// capacity-feasible) flow. Only the arcs the dirty list remembers can
    /// overflow (see [`FlowNetwork::set_capacity`]), so the repair visits
    /// those and nothing else — when no capacity dropped below its routed
    /// flow this is free.
    fn repair_overflows(&mut self, s: usize, t: usize) {
        let dirty = std::mem::take(&mut self.overflowed);
        for id in dirty {
            loop {
                let excess = self.edges[id].flow.clone() - self.edges[id].cap.clone();
                if excess <= self.eps {
                    break;
                }
                let u = self.edges[id ^ 1].to;
                let v = self.edges[id].to;
                // Walk the flow backwards u → s and forwards v → t. Both
                // exist when the arc carries path flow (conservation);
                // otherwise the arc sits on a flow cycle, and the forward
                // walk from v reaches u instead.
                let back = self.flow_path(u, s, Dir::Backward);
                let fwd = self.flow_path(v, t, Dir::Forward);
                let mut path = match (back, fwd) {
                    (Some(b), Some(f)) => {
                        let mut p: Vec<usize> = b.into_iter().rev().collect();
                        p.push(id);
                        p.extend(f);
                        p
                    }
                    _ => {
                        let cycle = self
                            .flow_path(v, u, Dir::Forward)
                            .expect("an overflowing arc off every s-t path lies on a flow cycle");
                        let mut p = vec![id];
                        p.extend(cycle);
                        p
                    }
                };
                // Cancel the bottleneck (capped by the excess) everywhere
                // on the path/cycle.
                let mut amount = excess;
                for &eid in &path {
                    amount = amount.min_of(self.edges[eid].flow.clone());
                }
                debug_assert!(amount > self.eps, "flow paths carry positive flow");
                for eid in path.drain(..) {
                    self.edges[eid].flow = self.edges[eid].flow.clone() - amount.clone();
                    self.edges[eid ^ 1].flow = self.edges[eid ^ 1].flow.clone() + amount.clone();
                }
                self.stats.repair_paths += 1;
            }
        }
    }

    /// BFS along arcs carrying positive flow, from `from` to `to`;
    /// `Backward` walks against the arc direction (predecessors in the
    /// flow decomposition). Returns the forward-edge ids of the path in
    /// walk order, or `None` when unreachable.
    fn flow_path(&self, from: usize, to: usize, dir: Dir) -> Option<Vec<usize>> {
        if from == to {
            return Some(Vec::new());
        }
        let mut via: Vec<Option<usize>> = vec![None; self.adj.len()];
        let mut seen = vec![false; self.adj.len()];
        seen[from] = true;
        let mut q = VecDeque::from([from]);
        while let Some(node) = q.pop_front() {
            for &eid in &self.adj[node] {
                // Forward walk uses forward arcs (even ids) out of `node`;
                // backward walk uses the reverse views (odd ids), whose
                // forward twin points *into* `node`.
                let fwd_id = eid & !1;
                let ok = match dir {
                    Dir::Forward => eid % 2 == 0,
                    Dir::Backward => eid % 2 == 1,
                };
                if !ok || self.edges[fwd_id].flow <= self.eps {
                    continue;
                }
                let next = self.edges[eid].to;
                if seen[next] {
                    continue;
                }
                seen[next] = true;
                via[next] = Some(eid);
                if next == to {
                    let mut path = Vec::new();
                    let mut at = to;
                    while at != from {
                        let eid = via[at].expect("walked via");
                        path.push(eid & !1);
                        at = self.edges[eid ^ 1].to;
                    }
                    path.reverse();
                    return Some(path);
                }
                q.push_back(next);
            }
        }
        None
    }

    /// The Dinic phase loop: build BFS level graphs and push blocking
    /// flows until the sink is unreachable. Starts from whatever flow the
    /// network currently carries (zero after a build — the cold path; a
    /// repaired previous solve — the warm path). `traced` opens one
    /// `flow.dinic_phase` span per phase.
    fn augment(&mut self, s: usize, t: usize, traced: bool) {
        let n = self.adj.len();
        loop {
            // BFS level graph.
            self.stats.phases += 1;
            let mut phase_sp = traced.then(|| malleable_trace::span("flow.dinic_phase"));
            let augmented_before = self.stats.augmentations;
            let mut level = vec![usize::MAX; n];
            level[s] = 0;
            let mut q = VecDeque::from([s]);
            while let Some(u) = q.pop_front() {
                for &eid in &self.adj[u] {
                    let e = &self.edges[eid];
                    if level[e.to] == usize::MAX && self.residual(eid) > self.eps {
                        level[e.to] = level[u] + 1;
                        q.push_back(e.to);
                    }
                }
            }
            if level[t] == usize::MAX {
                return;
            }
            // DFS blocking flow with iteration pointers. `limit = None`
            // means unbounded (the generic stand-in for +∞).
            let mut it = vec![0usize; n];
            loop {
                let pushed = self.dfs(s, t, None, &level, &mut it);
                if pushed <= self.eps {
                    break;
                }
                self.stats.augmentations += 1;
            }
            if let Some(sp) = &mut phase_sp {
                sp.arg("augmentations", self.stats.augmentations - augmented_before);
            }
        }
    }

    fn dfs(
        &mut self,
        u: usize,
        t: usize,
        limit: Option<S>,
        level: &[usize],
        it: &mut [usize],
    ) -> S {
        if u == t {
            return limit.expect("sink reached through at least one finite-capacity edge");
        }
        while it[u] < self.adj[u].len() {
            let eid = self.adj[u][it[u]];
            let to = self.edges[eid].to;
            if level[to] == level[u] + 1 && self.residual(eid) > self.eps {
                let next_limit = match &limit {
                    Some(l) => l.clone().min_of(self.residual(eid)),
                    None => self.residual(eid),
                };
                let pushed = self.dfs(to, t, Some(next_limit), level, it);
                if pushed > self.eps {
                    self.edges[eid].flow = self.edges[eid].flow.clone() + pushed.clone();
                    self.edges[eid ^ 1].flow = self.edges[eid ^ 1].flow.clone() - pushed.clone();
                    return pushed;
                }
            }
            it[u] += 1;
        }
        S::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn single_edge() {
        let mut g = FlowNetwork::new(2, 1e-12);
        g.add_edge(0, 1, 5.0);
        assert!(close(g.max_flow(0, 1), 5.0));
    }

    #[test]
    fn series_takes_min() {
        let mut g = FlowNetwork::new(3, 1e-12);
        g.add_edge(0, 1, 5.0);
        g.add_edge(1, 2, 3.0);
        assert!(close(g.max_flow(0, 2), 3.0));
    }

    #[test]
    fn parallel_adds() {
        let mut g = FlowNetwork::new(2, 1e-12);
        g.add_edge(0, 1, 2.0);
        g.add_edge(0, 1, 3.5);
        assert!(close(g.max_flow(0, 1), 5.5));
    }

    #[test]
    fn classic_diamond_with_cross_edge() {
        // s→a (10), s→b (10), a→b (1), a→t (4), b→t (9) ⇒ max flow 13.
        let mut g = FlowNetwork::new(4, 1e-12);
        g.add_edge(0, 1, 10.0);
        g.add_edge(0, 2, 10.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(1, 3, 4.0);
        g.add_edge(2, 3, 9.0);
        assert!(close(g.max_flow(0, 3), 13.0));
    }

    #[test]
    fn disconnected_is_zero() {
        let mut g = FlowNetwork::new(3, 1e-12);
        g.add_edge(0, 1, 5.0);
        assert!(close(g.max_flow(0, 2), 0.0));
    }

    #[test]
    fn flow_on_reports_per_edge_routing() {
        let mut g = FlowNetwork::new(3, 1e-12);
        let a = g.add_edge(0, 1, 4.0);
        let b = g.add_edge(1, 2, 2.0);
        g.max_flow(0, 2);
        assert!(close(g.flow_on(a), 2.0));
        assert!(close(g.flow_on(b), 2.0));
    }

    #[test]
    fn fractional_capacities() {
        let mut g = FlowNetwork::new(4, 1e-12);
        g.add_edge(0, 1, 0.3);
        g.add_edge(0, 2, 0.7);
        g.add_edge(1, 3, 1.0);
        g.add_edge(2, 3, 0.5);
        assert!(close(g.max_flow(0, 3), 0.8));
    }

    #[test]
    fn add_node_grows_graph() {
        let mut g = FlowNetwork::new(1, 1e-12);
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(0, a, 1.0);
        g.add_edge(a, b, 1.0);
        assert!(close(g.max_flow(0, b), 1.0));
        assert_eq!(g.n_nodes(), 3);
    }

    #[test]
    fn exact_max_flow_is_exact() {
        use bigratio::Rational;
        let q = Rational::from_f64_exact;
        // Same diamond as above, solved with eps = 0: the answer is the
        // integer 13, exactly.
        let mut g = FlowNetwork::<Rational>::new(4, Rational::from_int(0));
        g.add_edge(0, 1, q(10.0));
        g.add_edge(0, 2, q(10.0));
        g.add_edge(1, 2, q(1.0));
        g.add_edge(1, 3, q(4.0));
        g.add_edge(2, 3, q(9.0));
        assert_eq!(g.max_flow(0, 3), Rational::from_int(13));
        // Fractional capacities stay exact, too.
        let mut h = FlowNetwork::<Rational>::new(4, Rational::from_int(0));
        h.add_edge(0, 1, q(0.3));
        h.add_edge(0, 2, q(0.7));
        h.add_edge(1, 3, q(1.0));
        h.add_edge(2, 3, q(0.5));
        assert_eq!(h.max_flow(0, 3), q(0.3) + q(0.5));
    }

    #[test]
    fn min_cut_side_matches_bottleneck() {
        // s→a (10), a→b (1), b→t (10): the bottleneck is a→b, so the
        // source side of the min cut is exactly {s, a}.
        let mut g = FlowNetwork::new(4, 1e-12);
        g.add_edge(0, 1, 10.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 10.0);
        assert!(close(g.max_flow(0, 3), 1.0));
        assert_eq!(g.min_cut_source_side(0), vec![true, true, false, false]);
    }

    #[test]
    #[should_panic(expected = "bad node")]
    fn bad_node_panics() {
        let mut g = FlowNetwork::new(2, 1e-12);
        g.add_edge(0, 7, 1.0);
    }

    #[test]
    fn warm_resolve_after_capacity_increase_matches_cold() {
        // Monotone probe: grow the bottleneck, warm-solve, compare with a
        // cold network of the final capacities.
        let mut g = FlowNetwork::new(4, 1e-12);
        let sa = g.add_edge(0, 1, 10.0);
        let ab = g.add_edge(1, 2, 1.0);
        let bt = g.add_edge(2, 3, 10.0);
        assert!(close(g.max_flow(0, 3), 1.0));
        g.set_capacity(ab, 6.0);
        assert!(close(g.max_flow_warm(0, 3), 6.0));
        assert!(close(g.flow_on(sa), 6.0));
        assert!(close(g.flow_on(bt), 6.0));
        // The min cut moved with the capacities.
        assert_eq!(g.min_cut_source_side(0), vec![true, true, false, false]);
    }

    #[test]
    fn warm_resolve_after_capacity_decrease_repairs_overflow() {
        // Shrink a saturated arc below its routed flow: the repair must
        // cancel the excess along the decomposition path, then the value
        // is the new max flow.
        let mut g = FlowNetwork::new(4, 1e-12);
        g.add_edge(0, 1, 10.0);
        let ab = g.add_edge(1, 2, 7.0);
        g.add_edge(2, 3, 10.0);
        assert!(close(g.max_flow(0, 3), 7.0));
        g.set_capacity(ab, 2.5);
        assert!(close(g.max_flow_warm(0, 3), 2.5));
        assert!(close(g.flow_on(ab), 2.5));
        assert!(g.stats().repair_paths >= 1);
    }

    #[test]
    fn warm_resolve_with_parallel_routes_rebalances() {
        // Two disjoint routes; kill one after solving — flow must reroute
        // only as far as capacities allow.
        let mut g = FlowNetwork::new(6, 1e-12);
        g.add_edge(0, 1, 4.0); // s→a
        g.add_edge(1, 5, 4.0); // a→t
        let sb = g.add_edge(0, 2, 3.0); // s→b
        g.add_edge(2, 5, 3.0); // b→t
        assert!(close(g.max_flow(0, 5), 7.0));
        g.set_capacity(sb, 0.0);
        assert!(close(g.max_flow_warm(0, 5), 4.0));
        assert!(close(g.flow_on(sb), 0.0));
        // Re-open wider than before plus widen the tail.
        g.set_capacity(sb, 5.0);
        assert!(close(g.max_flow_warm(0, 5), 7.0));
    }

    #[test]
    fn warm_equals_cold_exactly_on_rationals() {
        use bigratio::Rational;
        let q = Rational::from_f64_exact;
        let zero = Rational::from_int(0);
        // Diamond with a cross edge; probe a monotone capacity sequence on
        // the two sink arcs and compare warm vs cold bit-exactly.
        let build = |at: f64, bt: f64| {
            let mut g = FlowNetwork::<Rational>::new(4, zero.clone());
            g.add_edge(0, 1, q(10.0));
            g.add_edge(0, 2, q(10.0));
            g.add_edge(1, 2, q(1.0));
            g.add_edge(1, 3, q(at));
            g.add_edge(2, 3, q(bt));
            g
        };
        let mut warm = build(4.0, 9.0);
        let mut cold0 = build(4.0, 9.0);
        assert_eq!(warm.max_flow(0, 3), cold0.max_flow(0, 3));
        for (at, bt) in [(6.0, 9.0), (6.0, 11.0), (2.0, 3.0), (20.0, 20.0)] {
            warm.set_capacity(6, q(at));
            warm.set_capacity(8, q(bt));
            let wv = warm.max_flow_warm(0, 3);
            let mut cold = build(at, bt);
            let cv = cold.max_flow(0, 3);
            assert_eq!(wv, cv, "warm vs cold at ({at}, {bt})");
            assert_eq!(
                warm.min_cut_source_side(0),
                cold.min_cut_source_side(0),
                "minimal min cut is unique per max flow — must agree at ({at}, {bt})"
            );
        }
    }

    #[test]
    fn capacity_growth_skips_repair_entirely() {
        // Monotone growth never dirties an edge, so the warm path pays no
        // repair work at all — the fast path the parametric probes ride.
        let mut g = FlowNetwork::new(4, 1e-12);
        let sa = g.add_edge(0, 1, 10.0);
        let ab = g.add_edge(1, 2, 1.0);
        let bt = g.add_edge(2, 3, 10.0);
        assert!(close(g.max_flow(0, 3), 1.0));
        let snap = g.stats();
        g.set_capacity(sa, 12.0);
        g.set_capacity(ab, 4.0);
        g.set_capacity(bt, 12.0);
        assert!(close(g.max_flow_warm(0, 3), 4.0));
        assert_eq!(g.stats().since(&snap).repair_paths, 0);
        // A decrease below the routed flow dirties exactly one edge and
        // repairs it.
        let snap = g.stats();
        g.set_capacity(ab, 0.5);
        assert!(close(g.max_flow_warm(0, 3), 0.5));
        assert!(g.stats().since(&snap).repair_paths >= 1);
    }

    #[test]
    fn augment_from_pushes_the_marginal_max_flow_of_an_appended_node() {
        // Nodes: source 0, sink 1, three "machines" 2..5 with sink caps;
        // task nodes are appended one at a time, each with a source arc
        // and arcs to some machines. After every append the incremental
        // total must equal a cold max flow of the same network.
        let machine_caps = [1.0, 2.0, 1.0];
        // Task 0 takes machine 0 first; task 1 fits only by rerouting task
        // 0 onto machine 1; task 2 fills the rest; task 3 gains nothing.
        let tasks: [(f64, &[(usize, f64)]); 4] = [
            (1.0, &[(0, 1.0), (1, 1.0)]),
            (1.0, &[(0, 1.0)]),
            (3.0, &[(1, 2.0), (2, 1.0)]),
            (2.0, &[(0, 1.0), (2, 1.0)]),
        ];
        let gains = [1.0, 1.0, 2.0, 0.0];
        let build = |k: usize| {
            let mut g = FlowNetwork::new(5, 0.0);
            for (j, cap) in machine_caps.iter().enumerate() {
                g.add_edge(2 + j, 1, *cap);
            }
            for (demand, arcs) in &tasks[..k] {
                let v = g.add_node();
                g.add_edge(0, v, *demand);
                for &(j, cap) in *arcs {
                    g.add_edge(v, 2 + j, cap);
                }
            }
            g
        };
        let mut warm = build(0);
        let mut total = 0.0;
        for (k, (demand, arcs)) in tasks.iter().enumerate() {
            let v = warm.add_node();
            let arc = warm.add_edge(0, v, *demand);
            for &(j, cap) in *arcs {
                warm.add_edge(v, 2 + j, cap);
            }
            let before = warm.stats();
            let gain = warm.augment_from(arc, 1);
            assert_eq!(gain, gains[k], "marginal of task {k}");
            total += gain;
            assert_eq!(total, build(k + 1).max_flow(0, 1), "after task {k}");
            assert_eq!(total, warm.flow_value(0));
            assert_eq!(warm.stats().since(&before).phases, 0, "no Dinic phase");
        }
    }

    #[test]
    fn stats_count_phases_and_augmentations() {
        let mut g = FlowNetwork::new(3, 1e-12);
        g.add_edge(0, 1, 5.0);
        g.add_edge(1, 2, 3.0);
        assert_eq!(g.stats(), FlowStats::default());
        g.max_flow(0, 2);
        let s = g.stats();
        assert!(s.phases >= 2, "one augmenting phase plus the empty check");
        assert!(s.augmentations >= 1);
        assert_eq!(s.repair_paths, 0);
        let snap = g.stats();
        // An unchanged warm re-solve only pays the empty phase check.
        g.max_flow_warm(0, 2);
        let delta = g.stats().since(&snap);
        assert_eq!(delta.phases, 1);
        assert_eq!(delta.augmentations, 0);
        g.reset_stats();
        assert_eq!(g.stats(), FlowStats::default());
    }

    #[test]
    fn reset_reuses_the_network_across_solves() {
        let mut g = FlowNetwork::new(4, 1e-12);
        g.add_edge(0, 1, 10.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 10.0);
        assert!(close(g.max_flow(0, 3), 1.0));
        // Rebuild a different (smaller, then larger) topology in place.
        g.reset(2, 1e-12);
        g.add_edge(0, 1, 2.5);
        assert!(close(g.max_flow(0, 1), 2.5));
        g.reset(5, 1e-12);
        g.add_edge(0, 4, 7.0);
        g.add_edge(4, 3, 3.0);
        assert!(close(g.max_flow(0, 3), 3.0));
        assert_eq!(g.n_nodes(), 5);
    }
}
