//! `--trace` support for the figure binaries.
//!
//! The sweep itself runs untraced (tracing one representative trial is
//! cheap; tracing hundreds is not). When `--trace <dir>` is passed, the
//! binaries additionally **replay trial 0 of every node count** — under
//! the exact trial seed the sweep used, so the traced run is the
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
use ffd2d_telemetry::NullRecorder;
use ffd2d_trace::{JsonlSink, TeeSink, TimelineSink};

use crate::sweep::SweepParams;

/// Replay trial 0 of every sweep cell with tracing enabled, writing
/// JSONL logs under `dir` and timeline CSVs under `results/`. Returns
/// the JSONL paths written (ST and FST interleaved per node count).
pub fn write_sweep_traces(params: &SweepParams, dir: &Path) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    std::fs::create_dir_all("results")?;
    let mut written = Vec::new();
    // Faulted sweeps replay under the same per-cell fault plan, so the
    // trace shows the same churn/drops the figure's first sample
    // experienced.
    for (n, scenario) in params.replay_scenarios().map_err(io::Error::other)? {
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
