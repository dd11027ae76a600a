//! Regenerates the paper's Fig. 4 (average number of message exchanges
//! vs. number of nodes, ST vs. FST). Same sweep as fig3; fig4.csv also
//! carries the loss-attribution columns (collision rate, below-threshold
//! rx loss) that explain the message-count divergence.
//!
//! Usage: fig4 [--quick] [--trials N] [--max-n M] [--nodes LIST] [--horizon SLOTS]
//!             [--engine stepped|event] [--gain-cache epoch|off]
//!             [--faults churn-light|churn-heavy|lossy|PLAN.json]
//!             [--trace DIR] [--telemetry DIR]
//! With `--telemetry DIR`, replays trial 0 of each cell self-profiled:
//! run manifests per cell plus a sweep rollup under DIR (see
//! `perf_inspect`). `--engine` selects the slot engine (default: event)
//! and `--gain-cache` the medium's link-state cache (default: epoch).
//! Both knobs are outcome-neutral: the CSVs are bit-identical under
//! every setting, only wall clock differs. Trials run in parallel on
//! the trial pool (`FFD2D_WORKERS` caps it). A malformed value or an
//! unknown flag exits with status 2 before the sweep runs. `--faults`
//! injects a seeded churn / frame-loss schedule; fig4.csv then also
//! reports injected frame drops and re-convergence means.

fn main() {
    ffd2d_experiments::sweep_main("fig4", true);
}
