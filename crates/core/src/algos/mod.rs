//! The paper's scheduling algorithms, plus the related-machines layer.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`wdeq`] | Algorithm 1 — **WDEQ**, the non-clairvoyant weighted dynamic equipartition (2-approximation, Theorem 4) |
//! | [`waterfill`] | Algorithm 2 — **WF**, the Water-Filling normal form (Theorem 8) |
//! | [`greedy`] | Algorithm 3 — **Greedy(σ)** schedules (Section V) |
//! | [`orders`] | Task orderings: Smith's rule and friends |
//! | [`makespan`] | Closed-form `Cmax` and the Water-Filling feasibility test (Table I context) |
//! | [`parametric`] | The frontier search: exact `Lmax` and release-date `Cmax` as roots of the transportation feasibility frontier (min-cut Newton iteration), on every capacity model |
//! | [`related`] | Related-machines solvers: flow witnesses and completion-time Greedy (Fotakis et al. 2019 model) |

pub(crate) mod events;
pub mod flow;
pub mod greedy;
pub mod makespan;
pub mod orders;
pub mod parametric;
pub mod related;
pub mod waterfill;
pub mod waterfill_int;
pub mod wdeq;
