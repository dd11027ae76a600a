//! `--trace` support for the figure binaries.
//!
//! The sweep itself runs untraced (tracing one representative trial is
//! cheap; tracing hundreds is not). When `--trace <dir>` is passed, the
//! binaries additionally **replay trial 0 of every node count** — under
//! the exact [`TrialCtx`] seed the sweep used, so the traced run is the
//! same simulation the figure's first sample came from — with a
//! [`JsonlSink`] + [`TimelineSink`] tee attached to both protocols:
//!
//! * `<dir>/st_n{n}.jsonl`, `<dir>/fst_n{n}.jsonl` — full replayable
//!   event logs (one JSON object per line; see `trace_inspect`);
//! * `results/timeline_st_n{n}.csv`, `results/timeline_fst_n{n}.csv` —
//!   per-slot fragment count, sync error, discovery completeness and
//!   collision rate, ready for plotting.
//!
//! Tracing is observational: the replayed outcomes are bit-identical to
//! the untraced sweep cells (locked by `tests/trace.rs`).

use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};

use ffd2d_baseline::FstProtocol;
use ffd2d_core::{RunOutcome, ScenarioConfig, StProtocol, World};
use ffd2d_parallel::{SweepConfig, TrialCtx};
use ffd2d_telemetry::NullRecorder;
use ffd2d_trace::{JsonlSink, TeeSink, TimelineSink};

use crate::sweep::SweepParams;

/// Parse `--trace <dir>` from argv. `None` when the flag is absent.
/// A bare `--trace` with no directory (or with another flag where the
/// directory should be) is a hard usage error, not a silent no-op.
pub fn trace_dir_from_args() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--trace")?;
    match args.get(i + 1) {
        Some(dir) if !dir.starts_with("--") => Some(PathBuf::from(dir)),
        _ => {
            eprintln!("--trace requires a directory argument");
            std::process::exit(2);
        }
    }
}

/// Replay trial 0 of every sweep cell with tracing enabled, writing
/// JSONL logs under `dir` and timeline CSVs under `results/`. Returns
/// the JSONL paths written (ST and FST interleaved per node count).
pub fn write_sweep_traces(params: &SweepParams, dir: &Path) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    std::fs::create_dir_all("results")?;
    let cfg = SweepConfig {
        master_seed: params.master_seed,
        trials: params.trials,
    };
    let mut written = Vec::new();
    // Replays are single runs, so there is no trial layer to oversubscribe:
    // upgrade `Off` to `Auto` (sharding is byte-identical on the JSONL —
    // locked by `tests/medium_equivalence.rs` — so this is pure wall clock).
    // An explicit `--medium-workers` choice is kept as-is.
    let medium = match params.medium {
        ffd2d_core::Parallelism::Off => ffd2d_core::Parallelism::Auto,
        chosen => chosen,
    };
    for (param_index, &n) in params.node_counts.iter().enumerate() {
        let seed = TrialCtx::new(&cfg, param_index, 0).seed;
        // Faulted sweeps replay under the same per-cell fault plan, so
        // the trace shows the same churn/drops the figure's first
        // sample experienced.
        let faults = match &params.faults {
            Some(spec) => ffd2d_core::FaultPlan::resolve(spec, n, params.horizon.0)
                .map_err(|e| io::Error::other(format!("--faults {spec:?}: {e}")))?,
            None => ffd2d_core::FaultPlan::none(),
        };
        let scenario = ScenarioConfig::table1(n)
            .seeded(seed)
            .with_max_slots(params.horizon)
            .with_parallelism(medium)
            .with_gain_cache(params.gain_cache)
            .with_faults(faults);
        let world = World::new(&scenario);
        let protocols: [(&str, Replay); 2] = [
            ("st", StProtocol::run_in_instrumented),
            ("fst", FstProtocol::run_in_instrumented),
        ];
        for (protocol, run) in protocols {
            written.push(trace_one(dir, &format!("{protocol}_n{n}"), &world, run)?);
        }
    }
    Ok(written)
}

/// Trace a single ST trial of an arbitrary scenario (the ablation
/// binary's `--trace` path): JSONL to `<dir>/{stem}.jsonl`, timeline
/// CSV to `results/timeline_{stem}.csv`.
pub fn write_st_trace(scenario: &ScenarioConfig, dir: &Path, stem: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    std::fs::create_dir_all("results")?;
    trace_one(
        dir,
        stem,
        &World::new(scenario),
        StProtocol::run_in_instrumented,
    )
}

/// A traced replay's sink: the JSONL log teed into the per-slot timeline.
type ReplaySink = TeeSink<JsonlSink<BufWriter<File>>, TimelineSink>;

/// A protocol's `run_in_instrumented`, fixed to the replay sink.
type Replay = fn(&World, &mut ReplaySink, &mut NullRecorder) -> RunOutcome;

/// Run one traced trial of `world` through a protocol's
/// `run_in_instrumented`: JSONL to `<dir>/{stem}.jsonl`, timeline CSV
/// to `results/timeline_{stem}.csv`.
fn trace_one(dir: &Path, stem: &str, world: &World, run: Replay) -> io::Result<PathBuf> {
    let jsonl_path = dir.join(format!("{stem}.jsonl"));
    let jsonl = JsonlSink::new(BufWriter::new(File::create(&jsonl_path)?));
    let mut sink = TeeSink(jsonl, TimelineSink::new());
    run(world, &mut sink, &mut NullRecorder);
    let TeeSink(jsonl, timeline) = sink;
    if let Some(e) = jsonl.io_error() {
        return Err(io::Error::new(
            e.kind(),
            format!("writing {jsonl_path:?}: {e}"),
        ));
    }
    std::fs::write(format!("results/timeline_{stem}.csv"), timeline.to_csv())?;
    Ok(jsonl_path)
}
