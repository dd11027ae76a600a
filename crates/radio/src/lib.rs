//! # ffd2d-radio — radio channel substrate
//!
//! Implements the complete propagation model of the paper's Table I and
//! §III, from scratch:
//!
//! * [`units`] — strongly-typed dB/dBm algebra. The paper's
//!   eq. (8) (`p_l = 10·log10(p_l / p_l')`) is the dBm definition; the
//!   types here make it impossible to add two absolute powers or take a
//!   ratio of two gains by accident.
//! * [`pathloss`] — deterministic distance-dependent loss. The paper's
//!   outdoor model (Table I) is piecewise:
//!   `PL(d) = 4.35 + 25·log10(d)` for `d < 6 m`, else
//!   `PL(d) = 40.0 + 40·log10(d)`; the general log-distance model of
//!   eq. (7) (`p** = p* + 10·n·log10(r/r0)`) serves the RSSI-error
//!   experiment.
//! * [`shadowing`] — per-link log-normal (Gaussian-in-dB) shadowing with
//!   the Table-I standard deviation of 10 dB; symmetric and constant per
//!   link within a trial, derived deterministically from the trial seed.
//! * [`fading`] — UMi-NLOS fast fading as Rayleigh block fading, one
//!   power draw per link per coherence block.
//! * [`rssi`] — the paper's ranging model, eqs. (6)–(12): distance
//!   estimation by path-loss inversion and the closed-form relative
//!   error `ε = 10^{x/(10·n)} − 1` under shadowing `x`.
//! * [`channel`] — the per-trial [`channel::Channel`] facade: sample the
//!   received power of any link at any slot and compute the expected
//!   (fading-free) proximity signal strength used as spanning-tree edge
//!   weight.
//!
//! Every sampled quantity is a pure function of
//! `(seed, link, coherence block)`, so trials replay bit-identically on
//! any platform and thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod fading;
pub mod pathloss;
pub mod rssi;
pub mod shadowing;
pub mod units;

pub use channel::{Channel, ChannelConfig};
pub use fading::FadingModel;
pub use pathloss::PathLoss;
pub use rssi::{ranging_error_stats, RangingEstimate};
pub use shadowing::ShadowingField;
pub use units::{Db, Dbm};
