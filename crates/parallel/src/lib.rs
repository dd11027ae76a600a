//! # ffd2d-parallel — deterministic parallel Monte-Carlo harness
//!
//! Reproducing Figs. 3–4 means running hundreds of independent trials
//! (node-count sweep × Monte-Carlo repetitions × two protocols). Each
//! trial owns its entire world (deployment, channel, protocol state), so
//! the workload is embarrassingly parallel — the canonical data-parallel
//! shape of the HPC guides, implemented entirely on `std`:
//!
//! * [`pool`] — [`pool::parallel_map`]: an order-preserving parallel map
//!   over a task list using `std::thread::scope` and an atomic
//!   work-stealing cursor. No task communicates with any other; results
//!   land in their own slots, so the output is identical to the
//!   sequential map regardless of thread count
//!   ([`pool::parallel_map_with_workers`] pins the count for the
//!   determinism suite).
//! * [`sweep`] — the experiment-shaped layer: a parameter grid × trial
//!   count, each cell's raw result grouped by parameter in trial order,
//!   with deterministic per-trial seeds derived from
//!   `(master seed, param index, trial index)` — thread schedule cannot
//!   perturb any random draw.
//! * [`parallelism`] — the [`Parallelism`] stub: a single `Off` value
//!   with no effect, kept only for the perf harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod parallelism;
pub mod pool;
pub mod sweep;

pub use parallelism::Parallelism;
pub use pool::{available_workers, parallel_map, parallel_map_with_workers};
pub use sweep::{run_trials, run_trials_with_workers, SweepConfig, TrialCtx};
