//! # ffd2d-sim — discrete-event simulation kernel for D2D protocol studies
//!
//! This crate is the substrate on which every protocol in the `ffd2d`
//! workspace runs. The paper this workspace reproduces (Pratap & Misra,
//! *"Firefly inspired Improved Distributed Proximity Algorithm for D2D
//! Communication"*, IPDPSW 2015) evaluates its algorithms on a slotted
//! LTE-A simulation with a 1 ms time slot; this crate provides exactly
//! that substrate:
//!
//! * [`time`] — slot-based virtual time ([`Slot`], [`SlotDuration`]) with
//!   the LTE 1 ms slot as the base unit.
//! * [`rng`] — deterministic, splittable random-number generation
//!   ([`rng::SplitMix64`], [`rng::Xoshiro256StarStar`], stream derivation)
//!   so that every Monte-Carlo trial is exactly reproducible from a
//!   `(seed, trial)` pair and independent streams can be handed to the
//!   channel, the deployment and each device without correlation.
//! * [`event`] — the coalescing wake-up scheduler, an ordered set of
//!   pending slots ([`event::WakeSet`]) that drives the event-driven
//!   engine.
//! * [`deployment`] — placement of devices on the plane (uniform random,
//!   grid, clustered) in a configurable area.
//! * [`config`] — the base simulation configuration shared by every
//!   experiment (area, device count, slot length, seed).
//! * [`counters`] — cheap event/message counters used by the experiment
//!   harness to reproduce the paper's Fig. 4 (message-exchange counts).
//!
//! The kernel is deliberately protocol-agnostic: protocol crates
//! (`ffd2d-core`, `ffd2d-baseline`) drive a slot loop and use the wake
//! set for timers, while the PHY crate (`ffd2d-phy`) models the shared
//! medium.
//!
//! ## Example
//!
//! ```
//! use ffd2d_sim::{Deployment, Meters, StreamRng};
//!
//! // Deterministic RNG stream for trial 7 of master seed 42.
//! let mut rng = StreamRng::for_trial(42, 7);
//! let deployment = Deployment::uniform(50, Meters(100.0), Meters(100.0), &mut rng);
//! assert_eq!(deployment.len(), 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod counters;
pub mod deployment;
pub mod event;
pub mod rng;
pub mod time;

pub use config::SimConfig;
pub use counters::Counters;
pub use deployment::{Deployment, Meters, Position};
pub use event::WakeSet;
pub use rng::StreamRng;
pub use time::{Slot, SlotDuration, SLOT_MILLIS};
