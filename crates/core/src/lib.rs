//! # ffd2d-core — the paper's contribution
//!
//! The proposed **ST method** of Pratap & Misra (IPDPSW 2015): a
//! distributed, firefly-inspired algorithm that performs neighbour
//! discovery, service discovery and slot synchronization simultaneously
//! for D2D devices, organised over a maximum-PS-strength spanning tree
//! built GHS/Borůvka-style with RSSI-ranged edge weights.
//!
//! The crate has three layers:
//!
//! 1. **Sequential reference** ([`reference`](mod@reference), [`ffa`], [`ranking`]) —
//!    Algorithms 1–3 exactly as written: fragment merging over heavy
//!    edges ([`reference::build_spanning_tree`]), the `H_Connect`
//!    predicate, and the firefly metaheuristic (Algorithm 3 /
//!    eq. (13)) in both its naive `O(n²)` form and the proposed
//!    rank-ordered `O(n log n)` form. These pin down *what* the
//!    distributed protocol must compute.
//! 2. **Distributed engine** ([`world`], [`device`], [`discovery`],
//!    [`runtime`], [`st_protocol`]) — the slot-driven protocol: proximity-signal
//!    broadcasts through the collision medium, RSSI ranging, per-device
//!    neighbour tables, convergecast/merge/flood rounds on the RACH1 /
//!    RACH2 codec pair, and pulse-coupled synchronization along tree
//!    edges.
//! 3. **Scenario plumbing** ([`scenario`], [`outcome`]) — Table-I
//!    configuration and the measured outcome of a run (convergence
//!    time, message counts, tree quality, service-discovery yield).
//!
//! ```
//! use ffd2d_core::{ScenarioConfig, StProtocol};
//! use ffd2d_sim::time::SlotDuration;
//!
//! let cfg = ScenarioConfig::table1(20).seeded(1).with_max_slots(SlotDuration(100_000));
//! let out = StProtocol::run(&cfg);
//! assert!(out.converged());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod discovery;
pub mod ffa;
pub mod outcome;
pub mod ranking;
pub mod reference;
pub mod runtime;
pub mod scenario;
pub mod st_protocol;
pub mod world;

pub use discovery::NeighborTable;
pub use outcome::RunOutcome;
pub use scenario::{
    EngineMode, FaultPlan, GainCacheMode, Parallelism, ProtocolConfig, ScenarioConfig,
};
pub use st_protocol::StProtocol;
pub use world::World;
