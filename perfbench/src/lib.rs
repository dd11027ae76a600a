//! # ffd2d-perf — the one performance harness
//!
//! `perf` runs named workloads of the simulator end to end and reports
//! what a user of the reproduction pays for a run — wall time, set-up
//! time, peak memory — after checking every run's outcome digest. A
//! separate traced replay passes a [`spans::SpanRecorder`] into the
//! engines' existing `Recorder` hooks and turns the stage timers into
//! per-layer self time, plus the engines' exact work counters. Nothing
//! inside the simulator is changed to do so: every layer is measured
//! from outside.
//!
//! * [`workload`] — the workloads, their end-to-end calls and replays;
//! * [`host`] — host-speed calibration and peak memory;
//! * [`spans`] — span reconstruction and self time;
//! * [`metrics`] — metric definitions, per-layer numbers, quartiles;
//! * [`report`] — summary line, result file and `perf compare`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod host;
pub mod metrics;
pub mod report;
pub mod spans;
pub mod workload;
