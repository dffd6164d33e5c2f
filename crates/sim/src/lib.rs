//! # malleable-sim — non-clairvoyant execution engine and applications
//!
//! The paper's WDEQ result (Theorem 4) is about the **non-clairvoyant**
//! setting: the scheduler never sees task volumes, only completions as they
//! happen. The allocation rules and the event loop that runs them live in
//! `malleable-core`; this crate is their online face:
//!
//! * [`engine`] — [`simulate`] is the uniform-machine guard in front of
//!   the workspace's one event loop
//!   ([`malleable_core::policy::rules::run_rule`]): it runs an
//!   [`AllocationRule`](malleable_core::policy::AllocationRule), shows it
//!   only observable state (weights, caps, processed volume — never
//!   remaining volume), advances between completion and arrival events,
//!   checks every share vector against the machine model, and returns
//!   the loop's own `RuleRun` or `RuleError`.
//! * [`policies`] — the online-capable rules by name: WDEQ, DEQ
//!   (unweighted), weighted-share-without-redistribution (the WRR
//!   analogue) and a weight-priority baseline.
//! * [`bandwidth`] — the paper's Figure-1 application: a server with
//!   outgoing bandwidth `P` pushes code of size `Vᵢ` to workers with link
//!   capacity `δᵢ` and processing rate `wᵢ`; maximizing work processed by a
//!   horizon `T` is exactly minimizing `Σ wᵢCᵢ`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod engine;
pub mod metrics;
pub mod policies;

pub use bandwidth::{BandwidthReport, BandwidthScenario, Worker};
pub use engine::simulate;
pub use metrics::{metrics, ScheduleMetrics};
