//! Regenerates the paper's Fig. 4 (average number of message exchanges
//! vs. number of nodes, ST vs. FST). Same sweep as fig3; fig4.csv also
//! carries the loss-attribution columns (collision rate, below-threshold
//! rx loss) that explain the message-count divergence.
//!
//! Usage: fig4 [--quick] [--trials N] [--max-n M] [--nodes LIST] [--horizon SLOTS]
//!             [--engine stepped|event] [--medium-workers off|auto|K]
//!             [--faults churn-light|churn-heavy|lossy|PLAN.json]
//!             [--trace DIR] [--telemetry DIR]
//! With `--telemetry DIR`, replays trial 0 of each cell self-profiled:
//! run manifests per cell plus a sweep rollup under DIR (see
//! `perf_inspect`). `--engine` selects the slot engine (default: event);
//! `--medium-workers` shards per-slot medium resolution inside a run
//! (default: off for sweeps, auto when `--trials 1`). Both knobs are
//! outcome-neutral: the CSVs are bit-identical under every setting,
//! only wall clock differs. `--faults` injects a seeded churn / frame-
//! loss schedule; fig4.csv then also reports injected frame drops and
//! re-convergence means.

use ffd2d_experiments::sweep::run_paper_sweep;

fn main() {
    // Validate `--trace` / `--telemetry` usage before paying for the
    // sweep.
    let trace_dir = ffd2d_experiments::trace_dir_from_args();
    let telemetry_dir = ffd2d_experiments::telemetry_dir_from_args();
    let params = ffd2d_experiments::sweep_params_from_args();
    eprintln!(
        "running paired sweep: n = {:?}, {} trials, horizon {} slots ...",
        params.node_counts, params.trials, params.horizon.0
    );
    let report = run_paper_sweep(&params);
    println!("{}", report.to_table().to_markdown());
    if let Some(x) = report.crossover(true) {
        println!("message crossover (ST below FST) at n = {x}");
    }
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write("results/fig3.csv", report.fig3_csv());
    let _ = std::fs::write("results/fig4.csv", report.fig4_csv());
    eprintln!("wrote results/fig3.csv and results/fig4.csv (shared sweep)");
    if let Some(dir) = trace_dir {
        match ffd2d_experiments::write_sweep_traces(&params, &dir) {
            Ok(paths) => eprintln!(
                "traced trial 0 of each cell: {} JSONL logs under {} + timeline CSVs under results/",
                paths.len(),
                dir.display()
            ),
            Err(e) => {
                eprintln!("--trace failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(dir) = telemetry_dir {
        match ffd2d_experiments::write_sweep_telemetry(&params, &dir) {
            Ok(paths) => eprintln!(
                "profiled trial 0 of each cell: {} manifests under {} (render with perf_inspect)",
                paths.len(),
                dir.display()
            ),
            Err(e) => {
                eprintln!("--telemetry failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
