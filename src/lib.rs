//! # ffd2d — firefly-inspired proximity discovery & synchronization for D2D
//!
//! Facade crate for the `ffd2d` workspace: a from-scratch Rust
//! reproduction of Pratap & Misra, *"Firefly inspired Improved
//! Distributed Proximity Algorithm for D2D Communication"* (IPDPSW
//! 2015).
//!
//! The workspace implements the full stack the paper assumes:
//!
//! * [`sim`] — slotted discrete-event kernel (1 ms LTE slots),
//!   deterministic RNG streams, deployments.
//! * [`radio`] — path loss (Table I piecewise model), log-normal
//!   shadowing, UMi-NLOS fast fading, RSSI ranging with the paper's
//!   error model (eqs. 6–12), link budgets.
//! * [`phy`] — the two-codec proximity-signal scheme (RACH1/RACH2), the
//!   frame vocabulary of Algorithms 1–3, and the shared-medium collision
//!   and capture model.
//! * [`graph`] — weighted proximity graphs, union–find, maximum spanning
//!   tree algorithms (Borůvka / Kruskal / Prim) and GHS-style fragments.
//! * [`osc`] — Mirollo–Strogatz pulse-coupled oscillators with the
//!   paper's phase-response curve (eq. 5).
//! * [`core`] — the paper's contribution: Algorithms 1–3 and the
//!   event-driven **ST** protocol (tree-based firefly synchronization
//!   with RSSI ranging).
//! * [`baseline`] — the **FST** comparator (Chao et al. 2013) used in
//!   Figs. 3 and 4.
//! * [`metrics`], [`parallel`], [`experiments`] — statistics, parallel
//!   Monte-Carlo harness, and reproductions of every figure/table.
//! * [`trace`], [`telemetry`] — zero-cost-off observability: protocol
//!   event tracing and runtime performance telemetry (self-profiling
//!   engines, run manifests).
//!
//! ## Quickstart
//!
//! ```
//! use ffd2d::core::{ScenarioConfig, StProtocol};
//! use ffd2d::sim::SlotDuration;
//!
//! let cfg = ScenarioConfig::table1(50).seeded(7).with_max_slots(SlotDuration(50_000));
//! let outcome = StProtocol::run(&cfg);
//! assert!(outcome.converged());
//! println!(
//!     "converged in {} ms with {} messages",
//!     outcome.convergence_time.unwrap().as_millis(),
//!     outcome.counters.total_tx()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ffd2d_baseline as baseline;
pub use ffd2d_chaos as chaos;
pub use ffd2d_core as core;
pub use ffd2d_experiments as experiments;
pub use ffd2d_graph as graph;
pub use ffd2d_metrics as metrics;
pub use ffd2d_osc as osc;
pub use ffd2d_parallel as parallel;
pub use ffd2d_phy as phy;
pub use ffd2d_radio as radio;
pub use ffd2d_sim as sim;
pub use ffd2d_telemetry as telemetry;
pub use ffd2d_trace as trace;

/// Compiles every `rust` block of the README as a doctest, so a stale
/// example fails `cargo test`. The blocks are `no_run`: they are
/// type-checked, not executed.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
