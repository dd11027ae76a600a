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
pub use telemetry::write_sweep_telemetry;
pub use trace::write_sweep_traces;

use std::path::PathBuf;

use ffd2d_core::{EngineMode, FaultPlan, GainCacheMode};

/// Every flag the `fig3` and `fig4` binaries accept.
const SWEEP_FLAGS: &[&str] = &[
    "--quick",
    "--trials",
    "--max-n",
    "--nodes",
    "--horizon",
    "--engine",
    "--gain-cache",
    "--faults",
    "--trace",
    "--telemetry",
];

/// The `fig3` / `fig4` flag synopsis, printed with a usage error.
const SWEEP_USAGE: &str = "[--quick] [--trials N] [--max-n M] [--nodes LIST] \
[--horizon SLOTS] [--engine stepped|event] [--gain-cache epoch|off] \
[--faults churn-light|churn-heavy|lossy|PLAN.json] [--trace DIR] [--telemetry DIR]";

/// Unwrap a command-line parse result, or print the error and
/// `usage` to stderr and exit with status 2.
pub fn or_usage_exit<T>(parsed: Result<T, String>, usage: &str) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{e}\nusage: {usage}");
        std::process::exit(2);
    })
}

/// The value that follows flag `name` in `args`: `Ok(None)` when the
/// flag is absent, an error when it is last or followed by another
/// flag.
pub fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v)),
        _ => Err(format!("{name} requires a value")),
    }
}

/// An error naming the first `--flag` in `args` that is not in
/// `known`, so a misspelt or retired flag fails instead of being
/// silently ignored.
pub fn reject_unknown_flags(args: &[String], known: &[&str]) -> Result<(), String> {
    match args
        .iter()
        .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
    {
        Some(flag) => Err(format!("unknown flag {flag}")),
        None => Ok(()),
    }
}

/// The positive integer that follows flag `name`: `Ok(None)` when the
/// flag is absent; an error on a missing, non-numeric, zero or
/// out-of-range value.
fn positive_flag<T>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T: std::str::FromStr + Default + PartialEq,
{
    let Some(v) = flag_value(args, name)? else {
        return Ok(None);
    };
    match v.parse::<T>() {
        Ok(x) if x != T::default() => Ok(Some(x)),
        _ => Err(format!("{name} must be a positive integer, got {v:?}")),
    }
}

/// Parse the sweep flags of the `fig3`/`fig4` binaries from `args`
/// (argv, program name first): `--quick`, `--trials N`, `--max-n M`,
/// `--nodes LIST` (replace the sweep's node counts with an explicit
/// comma-separated list, e.g. `--nodes 5000` to profile one
/// out-of-sweep cell), `--horizon SLOTS`, `--engine stepped|event`,
/// `--gain-cache epoch|off` and
/// `--faults churn-light|churn-heavy|lossy|PLAN.json`. `--trace DIR`
/// and `--telemetry DIR` are accepted here and read by [`sweep_main`].
///
/// Every error is a usage error: an unknown flag, a flag without its
/// value, a non-numeric, zero or out-of-range count, a `--max-n` below
/// every node count, or an unknown engine, cache mode or fault spec.
pub fn sweep_params_from_args(args: &[String]) -> Result<SweepParams, String> {
    reject_unknown_flags(args, SWEEP_FLAGS)?;
    let mut params = if args.iter().any(|a| a == "--quick") {
        SweepParams::quick()
    } else {
        SweepParams::default()
    };
    if let Some(t) = positive_flag(args, "--trials")? {
        params.trials = t;
    }
    if let Some(list) = flag_value(args, "--nodes")? {
        params.node_counts = list
            .split(',')
            .map(|n| n.trim().parse().ok().filter(|&n| n > 0))
            .collect::<Option<_>>()
            .ok_or_else(|| {
                format!("--nodes requires a comma-separated list of positive counts, got {list:?}")
            })?;
    }
    if let Some(m) = positive_flag::<usize>(args, "--max-n")? {
        params.node_counts.retain(|&n| n <= m);
        if params.node_counts.is_empty() {
            return Err(format!("--max-n {m} is below every node count"));
        }
    }
    if let Some(h) = positive_flag(args, "--horizon")? {
        params.horizon = ffd2d_sim::time::SlotDuration(h);
    }
    if let Some(engine) = engine_from_args(args)? {
        params.engine = engine;
    }
    if let Some(mode) = gain_cache_from_args(args)? {
        params.gain_cache = mode;
    }
    params.faults = faults_from_args(args)?;
    Ok(params)
}

/// The `main` of the `fig3` (`messages = false`) and `fig4`
/// (`messages = true`) binaries: parse argv, run the paired sweep,
/// print its table and the time or message crossover, write both CSVs
/// under `results/`, then run the `--trace` / `--telemetry` replays.
/// Every flag is validated before the sweep runs.
pub fn sweep_main(bin: &str, messages: bool) {
    let args: Vec<String> = std::env::args().collect();
    let usage = format!("{bin} {SWEEP_USAGE}");
    let params = or_usage_exit(sweep_params_from_args(&args), &usage);
    let trace_dir = or_usage_exit(flag_value(&args, "--trace"), &usage).map(PathBuf::from);
    let telemetry_dir = or_usage_exit(flag_value(&args, "--telemetry"), &usage).map(PathBuf::from);
    eprintln!(
        "running paired sweep: n = {:?}, {} trials, horizon {} slots ...",
        params.node_counts, params.trials, params.horizon.0
    );
    let report = run_paper_sweep(&params);
    println!("{}", report.to_table().to_markdown());
    if let Some(x) = report.crossover(messages) {
        let what = if messages { "message" } else { "time" };
        println!("{what} crossover (ST below FST) at n = {x}");
    }
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write("results/fig3.csv", report.fig3_csv());
    let _ = std::fs::write("results/fig4.csv", report.fig4_csv());
    eprintln!("wrote results/fig3.csv and results/fig4.csv (shared sweep)");
    if let Some(dir) = trace_dir {
        match write_sweep_traces(&params, &dir) {
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
        match write_sweep_telemetry(&params, &dir) {
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

/// Parse the `--faults <spec>` flag shared by the experiment binaries:
/// a churn preset (`churn-light`, `churn-heavy`, `lossy`) or a path to
/// a `.json` fault plan. The spec is validated eagerly against a
/// representative population so a typo fails here, not after the sweep
/// has burned CPU; presets are re-resolved per node count inside the
/// sweep (they scale with the population).
pub fn faults_from_args(args: &[String]) -> Result<Option<String>, String> {
    let Some(spec) = flag_value(args, "--faults")? else {
        return Ok(None);
    };
    FaultPlan::resolve(spec, 50, 30_000).map_err(|e| format!("--faults: {e}"))?;
    Ok(Some(spec.to_string()))
}

/// Parse the `--engine stepped|event` flag shared by the experiment
/// binaries. `None` when the flag is absent (callers keep their
/// default, [`EngineMode::EventDriven`]); an unrecognized value is an
/// error — both engines produce identical results (see
/// `tests/engine_equivalence.rs`), so a typo silently falling back
/// would be invisible in the output.
pub fn engine_from_args(args: &[String]) -> Result<Option<EngineMode>, String> {
    flag_value(args, "--engine")?
        .map(|v| {
            EngineMode::from_flag(v).ok_or("--engine must be one of 'stepped', 'event'".into())
        })
        .transpose()
}

/// Parse the `--gain-cache epoch|off` flag shared by the experiment
/// binaries. `None` when the flag is absent (callers keep their
/// default, [`GainCacheMode::Epoch`]); an unrecognized value is an
/// error — the cache is outcome-neutral (locked by
/// `tests/gain_cache.rs`), so a typo silently falling back would be
/// invisible in the output. `off` exists for A/B timing and for proving
/// neutrality in CI, not for production runs.
pub fn gain_cache_from_args(args: &[String]) -> Result<Option<GainCacheMode>, String> {
    flag_value(args, "--gain-cache")?
        .map(|v| {
            GainCacheMode::from_flag(v)
                .ok_or("--gain-cache must be 'epoch' (or 'on') or 'off'".into())
        })
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        std::iter::once("fig3")
            .chain(args.iter().copied())
            .map(String::from)
            .collect()
    }

    fn parse(args: &[&str]) -> Result<SweepParams, String> {
        sweep_params_from_args(&argv(args))
    }

    #[test]
    fn flags_set_the_sweep() {
        let p = parse(&[
            "--quick",
            "--trials",
            "3",
            "--max-n",
            "50",
            "--horizon",
            "900",
            "--engine",
            "stepped",
        ])
        .unwrap();
        assert_eq!(p.trials, 3);
        assert_eq!(p.node_counts, vec![20, 50]);
        assert_eq!(p.horizon.0, 900);
        assert_eq!(p.engine, EngineMode::Stepped);
        assert_eq!(parse(&["--nodes", "7, 9"]).unwrap().node_counts, vec![7, 9]);
        assert_eq!(parse(&[]).unwrap().trials, SweepParams::default().trials);
    }

    #[test]
    fn malformed_counts_are_usage_errors() {
        for bad in [
            &["--quick", "--trials", "0"][..],
            &["--trials", "4294967296"],
            &["--trials", "abc"],
            &["--trials", "-1"],
            &["--trials"],
            &["--trials", "--quick"],
            &["--max-n", "x"],
            &["--max-n", "0"],
            &["--quick", "--max-n", "10"],
            &["--horizon", "0"],
            &["--horizon", "1e3"],
            &["--nodes", "5,0"],
            &["--nodes", "5,,6"],
            &["--engine", "adaptive"],
            &["--gain-cache", "lru"],
            &["--faults", "no-such-plan"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn unknown_flags_are_rejected() {
        // The retired intra-run sharding flag must fail loudly, not be
        // silently ignored.
        let retired = "--medium-workers";
        let err = parse(&["--quick", retired, "2"]).unwrap_err();
        assert!(err.contains(retired), "{err}");
        assert!(parse(&["--quick", "--trace", "out", "--telemetry", "telem"]).is_ok());
    }

    #[test]
    fn flag_value_needs_a_value() {
        let args = argv(&["--trace", "dir", "--telemetry"]);
        assert_eq!(flag_value(&args, "--trace"), Ok(Some("dir")));
        assert_eq!(flag_value(&args, "--faults"), Ok(None));
        assert!(flag_value(&args, "--telemetry").is_err());
    }
}
