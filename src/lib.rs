//! # malleable — scheduling work-preserving malleable tasks
//!
//! A faithful, production-quality reproduction of
//! *"Minimizing Weighted Mean Completion Time for Malleable Tasks
//! Scheduling"* (Beaumont, Bonichon, Eyraud-Dubois, Marchal — IPDPS 2012).
//!
//! A **work-preserving malleable task** `Tᵢ` is a job of total work `Vᵢ`
//! that may run on any (fractional) number of processors up to a cap `δᵢ`,
//! with free preemption and perfect speedup. Given `P` identical processors
//! and weights `wᵢ`, the goal is to minimize the weighted sum of completion
//! times `Σ wᵢ·Cᵢ`.
//!
//! This facade re-exports the full stack:
//!
//! * [`malleable_core`] — instance/schedule model and the paper's
//!   algorithms: WDEQ (non-clairvoyant 2-approximation), the Water-Filling
//!   normal form, greedy schedules, lower bounds, fractional↔integer
//!   conversion, preemption accounting, makespan/Lmax solvers.
//! * [`malleable_sim`] — event-driven non-clairvoyant execution engine
//!   and the paper's bandwidth-sharing application (Figure 1).
//! * [`malleable_opt`] — exact optima: the Corollary-1 LP for a fixed
//!   completion order, brute-force search over orders, and the paper's two
//!   conjecture checkers.
//! * [`malleable_workloads`] — seeded instance generators
//!   matching the paper's experimental setups.
//! * [`simplex`], [`bigratio`], [`numkit`] — the substrates: an LP solver,
//!   exact rational arithmetic, and the scalar abstraction.
//!
//! ## Quickstart
//!
//! ```
//! use malleable::prelude::*;
//!
//! // Three tasks on P = 4 processors.
//! let instance = Instance::builder(4.0)
//!     .task(8.0, 1.0, 2.0)   // volume, weight, parallelism cap δ
//!     .task(4.0, 2.0, 4.0)
//!     .task(2.0, 4.0, 1.0)
//!     .build()
//!     .unwrap();
//!
//! // Non-clairvoyant WDEQ schedule (2-approximation).
//! let schedule = wdeq_schedule(&instance);
//! let cost = schedule.weighted_completion_cost(&instance);
//!
//! // It is certified within 2× of optimal.
//! let cert = wdeq_certificate(&instance);
//! assert!(cost <= 2.0 * cert.value() + 1e-9);
//!
//! // Renormalize to the Water-Filling normal form (same completion times,
//! // ≤ n allocation changes in total).
//! let normal = water_filling(&instance, &schedule.completion_times()).unwrap();
//! assert!(normal.validate(&instance).is_ok());
//! ```
//!
//! ## Exact vs fast
//!
//! Every core type and algorithm is generic over [`numkit::Scalar`] with
//! `f64` as the default: the code above is the fast path. Instantiating
//! the *same* code at [`bigratio::Rational`] runs it in exact arithmetic —
//! validation then uses the **zero** tolerance (rational comparisons need
//! no epsilon), so results are certificates:
//!
//! ```
//! use malleable::prelude::*;
//!
//! // Lift any float instance exactly (every finite f64 is a binary
//! // rational), or build one from rationals directly.
//! let float_instance = Instance::builder(4.0)
//!     .task(8.0, 1.0, 2.0)
//!     .task(4.0, 2.0, 4.0)
//!     .build()
//!     .unwrap();
//! let exact: Instance<Rational> = float_instance.to_scalar();
//!
//! let schedule = wdeq_schedule(&exact);
//! // Zero-tolerance validation: Definition 2 holds *exactly*.
//! schedule
//!     .validate_with(&exact, numkit::Tolerance::exact())
//!     .unwrap();
//! // The normal form and the Corollary-1 LP run exactly, too.
//! let normal = water_filling(&exact, schedule.completion_times()).unwrap();
//! let (lp_cost, _) = lp_schedule_for_order(&exact, &normal.completion_order()).unwrap();
//! assert!(lp_cost <= schedule.weighted_completion_cost(&exact));
//! ```

pub use bigratio;
pub use malleable_core as core;
pub use malleable_opt as opt;
pub use malleable_sim as sim;
pub use malleable_workloads as workloads;
pub use numkit;
pub use simplex;

/// Most-used items in one import.
pub mod prelude {
    pub use bigratio::Rational;
    pub use malleable_core::algos::greedy::{best_heuristic_greedy, greedy_cost, greedy_schedule};
    pub use malleable_core::algos::makespan::optimal_makespan;
    pub use malleable_core::algos::orders::smith_order;
    pub use malleable_core::algos::parametric::{frontier, Objective, ProbeSession};
    pub use malleable_core::algos::waterfill::water_filling;
    pub use malleable_core::algos::wdeq::{wdeq_certificate, wdeq_schedule};
    pub use malleable_core::bounds::{height_bound, squashed_area_bound};
    pub use malleable_core::instance::{Instance, Task, TaskId};
    pub use malleable_core::policy::rules::{AllocationRule, DeqRule, WdeqRule};
    pub use malleable_core::policy::{self, PolicyRun, SchedulingPolicy};
    pub use malleable_core::schedule::column::ColumnSchedule;
    pub use malleable_core::schedule::convert::{column_to_step, step_to_column};
    pub use malleable_core::schedule::gantt::Gantt;
    pub use malleable_core::schedule::step::StepSchedule;
    pub use malleable_opt::brute::optimal_schedule;
    pub use malleable_opt::localsearch::smith_plus_local_search;
    pub use malleable_opt::lp::lp_schedule_for_order;
    pub use malleable_sim::engine::simulate;
    pub use malleable_workloads::{generate, Spec};
    pub use numkit::{Scalar, Tolerance};
}
