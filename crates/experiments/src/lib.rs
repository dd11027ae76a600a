//! # ffd2d-experiments — reproduction of every table and figure
//!
//! One module per paper artefact (see DESIGN.md §3 for the experiment
//! index):
//!
//! | Module | Paper artefact |
//! |--------|----------------|
//! | [`table1`] | Table I — simulation parameters |
//! | [`fig2`] | Fig. 2 — an instance of the firefly spanning tree |
//! | [`sweep`] | Figs. 3 & 4 — convergence time and message exchanges vs. number of nodes, ST vs. FST (one Monte-Carlo sweep feeds both figures) |
//! | [`rssi_error`] | §III eqs. (6)–(12) — measured vs. closed-form RSSI ranging error (E5) |
//! | [`ablation`] | A1–A4 — shadowing σ, coupling ε, density, and topology ablations |
//! | [`complexity`] | §V — O(n²) vs. O(n log n) firefly-update work (the paper's central complexity claim) |
//!
//! Every experiment is a pure function of its parameters + master seed
//! and returns `ffd2d-metrics` figures/tables; the `src/bin/*` binaries
//! print them and (optionally) write CSVs under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod complexity;
pub mod fig2;
pub mod rssi_error;
pub mod sweep;
pub mod table1;
pub mod telemetry;
pub mod trace;

pub use sweep::{run_paper_sweep, SweepParams, SweepReport};
pub use telemetry::{telemetry_dir_from_args, write_sweep_telemetry};
pub use trace::{trace_dir_from_args, write_sweep_traces};

/// Parse the common sweep flags shared by the `fig3`/`fig4` binaries:
/// `--quick`, `--trials N`, `--max-n M`, `--nodes LIST` (replace the
/// sweep's node counts with an explicit comma-separated list, e.g.
/// `--nodes 5000` to profile one out-of-sweep cell), `--horizon SLOTS`,
/// `--engine stepped|event`, `--medium-workers off|auto|K`,
/// `--gain-cache epoch|off`,
/// `--faults churn-light|churn-heavy|lossy|PLAN.json` (see
/// [`trace_dir_from_args`] for the `--trace DIR` flag).
///
/// Medium parallelism defaults by workload shape: a multi-trial sweep
/// keeps it `Off` (the trial layer already fills the cores), while
/// `--trials 1` flips it to `Auto` so a single run can use them. An
/// explicit `--medium-workers` always wins. Either way the results are
/// bit-identical (locked by `tests/medium_equivalence.rs` and
/// `tests/engine_equivalence.rs`) — only wall clock moves.
pub fn sweep_params_from_args() -> SweepParams {
    let args: Vec<String> = std::env::args().collect();
    let mut params = if args.iter().any(|a| a == "--quick") {
        SweepParams::quick()
    } else {
        SweepParams::default()
    };
    let value_of = |flag: &str| -> Option<u64> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
    };
    if let Some(t) = value_of("--trials") {
        params.trials = t as u32;
    }
    if let Some(m) = value_of("--max-n") {
        params.node_counts.retain(|&n| n as u64 <= m);
    }
    if let Some(i) = args.iter().position(|a| a == "--nodes") {
        let parsed: Option<Vec<usize>> = args
            .get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .map(|v| v.split(',').map(|n| n.trim().parse().ok()).collect())
            .unwrap_or(None);
        match parsed {
            Some(counts) if !counts.is_empty() => params.node_counts = counts,
            _ => {
                eprintln!("--nodes requires a comma-separated list of node counts, e.g. 1000,5000");
                std::process::exit(2);
            }
        }
    }
    if let Some(h) = value_of("--horizon") {
        params.horizon = ffd2d_sim::time::SlotDuration(h);
    }
    if let Some(engine) = engine_from_args() {
        params.engine = engine;
    }
    params.medium = match medium_workers_from_args() {
        Some(p) => p,
        None if params.trials == 1 => ffd2d_core::Parallelism::Auto,
        None => params.medium,
    };
    if let Some(mode) = gain_cache_from_args() {
        params.gain_cache = mode;
    }
    params.faults = faults_from_args();
    params
}

/// Parse the `--faults <spec>` flag shared by the experiment binaries:
/// a churn preset (`churn-light`, `churn-heavy`, `lossy`) or a path to
/// a `.json` fault plan. The spec is validated eagerly against a
/// representative population so a typo fails here, not after the sweep
/// has burned CPU; presets are re-resolved per node count inside the
/// sweep (they scale with the population).
pub fn faults_from_args() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--faults")?;
    match args.get(i + 1) {
        Some(spec) if !spec.starts_with("--") => {
            if let Err(e) = ffd2d_core::FaultPlan::resolve(spec, 50, 30_000) {
                eprintln!("--faults: {e}");
                std::process::exit(2);
            }
            Some(spec.clone())
        }
        _ => {
            eprintln!(
                "--faults requires a value: 'churn-light', 'churn-heavy', 'lossy', or a .json path"
            );
            std::process::exit(2);
        }
    }
}

/// Parse the `--engine stepped|event` flag shared by the experiment
/// binaries. `None` when the flag is absent (callers keep their
/// default, [`ffd2d_core::EngineMode::EventDriven`]); exits with a
/// usage error on an unrecognized value — both engines produce
/// identical results (see `tests/engine_equivalence.rs`), so a typo
/// silently falling back would be invisible in the output.
pub fn engine_from_args() -> Option<ffd2d_core::EngineMode> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--engine")?;
    match args
        .get(i + 1)
        .and_then(|v| ffd2d_core::EngineMode::from_flag(v))
    {
        Some(mode) => Some(mode),
        None => {
            eprintln!("--engine must be one of 'stepped', 'event'");
            std::process::exit(2);
        }
    }
}

/// Parse the `--gain-cache epoch|off` flag shared by the experiment
/// binaries. `None` when the flag is absent (callers keep their
/// default, [`ffd2d_core::GainCacheMode::Epoch`]); exits with a usage
/// error on an unrecognized value — the cache is outcome-neutral
/// (locked by `tests/gain_cache.rs`), so a typo silently falling back
/// would be invisible in the output. `off` exists for A/B timing and
/// for proving neutrality in CI, not for production runs.
pub fn gain_cache_from_args() -> Option<ffd2d_core::GainCacheMode> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--gain-cache")?;
    match args
        .get(i + 1)
        .and_then(|v| ffd2d_core::GainCacheMode::from_flag(v))
    {
        Some(mode) => Some(mode),
        None => {
            eprintln!("--gain-cache requires a value: 'epoch' (or 'on') or 'off'");
            std::process::exit(2);
        }
    }
}

/// Parse the `--medium-workers off|auto|K` flag shared by the
/// experiment binaries. `None` when the flag is absent (callers apply
/// their workload-shaped default); exits with a usage error on an
/// unrecognized value — the knob is outcome-neutral, so a typo
/// silently falling back would be invisible in the output.
pub fn medium_workers_from_args() -> Option<ffd2d_core::Parallelism> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--medium-workers")?;
    match args
        .get(i + 1)
        .and_then(|v| ffd2d_core::Parallelism::from_flag(v))
    {
        Some(p) => Some(p),
        None => {
            eprintln!("--medium-workers requires a value: 'off', 'auto', or a worker count");
            std::process::exit(2);
        }
    }
}
