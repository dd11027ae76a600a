//! # ffd2d-osc — pulse-coupled oscillator substrate
//!
//! §III of the paper models every device as a Mirollo–Strogatz
//! integrate-and-fire ("firefly") oscillator:
//!
//! * the phase `θ_i` rises linearly from 0 to the threshold `θ_th = 1`
//!   with slope `θ_th / T` (eq. (3));
//! * on reaching the threshold the device *fires* (broadcasts a
//!   proximity signal) and resets to 0 (eq. (4));
//! * on *hearing* a fire, every other device advances its phase through
//!   the phase-response curve `θ ← min(α·θ + β, 1)` with
//!   `α = e^{aε}` and `β = (e^{aε} − 1)/(e^a − 1)` (eq. (5)),
//!   where `a` is the dissipation factor and `ε` the coupling strength;
//! * Mirollo & Strogatz prove that with `α > 1, β > 0` (i.e. `a > 0`,
//!   `ε > 0`) a fully-meshed population always converges to synchrony.
//!
//! Modules:
//!
//! * [`prc`] — the phase-response curve with the eq.-(5) parametrisation
//!   and its convergence conditions.
//! * [`oscillator`] — a single slotted integrate-and-fire oscillator
//!   with refractory handling (devices cannot hear while transmitting).
//! * [`network`] — an idealised (radio-free) coupled population over an
//!   arbitrary topology; used to validate convergence claims and to
//!   isolate topology effects from channel effects (ablation A2/A4).
//! * [`predict`] — memoized phase trajectories: the exact-by-
//!   construction fast-forward machinery behind the engines'
//!   event-driven (slot-skipping) execution mode.
//! * [`sync`] — synchrony metrics: circular phase spread and the
//!   convergence test built on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod network;
pub mod oscillator;
pub mod prc;
pub mod predict;
pub mod sync;

pub use network::{CoupledNetwork, SyncOutcome};
pub use oscillator::PhaseOscillator;
pub use prc::Prc;
pub use predict::{Cursor, TrajectoryCache};
pub use sync::phase_spread;
