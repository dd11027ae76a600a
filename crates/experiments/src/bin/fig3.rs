//! Regenerates the paper's Fig. 3 (convergence time vs. number of
//! nodes, ST vs. FST).
//!
//! Usage: fig3 [--quick] [--trials N] [--max-n M] [--nodes LIST] [--horizon SLOTS]
//!             [--engine stepped|event] [--gain-cache epoch|off]
//!             [--faults churn-light|churn-heavy|lossy|PLAN.json]
//!             [--trace DIR] [--telemetry DIR]
//! Writes results/fig3.csv (+fig4.csv — same sweep; run `fig4` for the
//! message view). With `--trace DIR`, additionally replays trial 0 of
//! each node count with tracing on: JSONL event logs under DIR and
//! per-slot timeline CSVs under results/ (see `trace_inspect`). With
//! `--telemetry DIR`, replays trial 0 of each cell self-profiled
//! instead: run manifests (`.json`/`.prom`) per cell plus a sweep
//! rollup under DIR (see `perf_inspect`). Both replays are outcome-
//! neutral — the CSVs are untouched.
//! `--engine` selects the slot engine (default: event) and
//! `--gain-cache` the medium's link-state cache (default: epoch). Both
//! knobs are outcome-neutral: the CSVs are bit-identical under every
//! setting, only wall clock differs. Trials run in parallel on the
//! trial pool (`FFD2D_WORKERS` caps it). A malformed value or an
//! unknown flag exits with status 2 before the sweep runs. `--faults`
//! injects a seeded churn / frame-loss schedule (deterministic per
//! seed; the re-convergence columns of fig3.csv report how fast each
//! protocol recovers).

fn main() {
    ffd2d_experiments::sweep_main("fig3", false);
}
