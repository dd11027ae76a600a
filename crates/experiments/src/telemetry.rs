//! `--telemetry` support for the figure binaries.
//!
//! The sweep itself runs unrecorded (self-profiling hundreds of trials
//! would only profile the profiler). When `--telemetry <dir>` is
//! passed, the binaries additionally **replay trial 0 of every node
//! count** — under the exact trial seed the sweep used, so the
//! profiled run is the same simulation the figure's first sample came
//! from — with an enabled [`Telemetry`] recorder attached to both
//! protocols:
//!
//! * `<dir>/st_n{n}.json`, `<dir>/fst_n{n}.json` — run manifests
//!   (config echo, seed, wall clock, counters, timer quantiles; the
//!   input of `perf_inspect`);
//! * `<dir>/st_n{n}.prom`, `<dir>/fst_n{n}.prom` — the same registry
//!   as a Prometheus text exposition;
//! * `<dir>/sweep.json` — a sweep-level rollup (per-cell wall clock,
//!   materialized-slot throughput, manifest paths).
//!
//! Telemetry is observational: the replayed outcomes are bit-identical
//! to the unrecorded sweep cells (locked by `tests/telemetry.rs`).

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

use ffd2d_baseline::FstProtocol;
use ffd2d_core::{ScenarioConfig, StProtocol, World};
use ffd2d_telemetry::{RunManifest, Telemetry};

use crate::sweep::SweepParams;

/// One profiled cell, as aggregated into the sweep rollup.
struct CellRecord {
    label: String,
    n: usize,
    wall_clock_ns: u64,
    slots: u64,
    manifest: PathBuf,
}

/// Replay trial 0 of every sweep cell with telemetry enabled, writing
/// run manifests (`.json` + `.prom`) and a sweep rollup under `dir`.
/// Progress (per-cell wall clock, slot throughput, ETA) goes to stderr.
/// Returns the manifest JSON paths written (ST and FST interleaved per
/// node count).
pub fn write_sweep_telemetry(params: &SweepParams, dir: &Path) -> io::Result<Vec<PathBuf>> {
    fs::create_dir_all(dir)?;
    let cells = params.node_counts.len() * 2;
    let t_sweep = Instant::now();
    let mut done = 0usize;
    let mut records: Vec<CellRecord> = Vec::new();
    let mut written = Vec::new();
    for (n, scenario) in params.replay_scenarios().map_err(io::Error::other)? {
        let world = World::new(&scenario);
        for (proto, stem) in [("st", format!("st_n{n}")), ("fst", format!("fst_n{n}"))] {
            let mut rec = Telemetry::new();
            let t0 = Instant::now();
            match proto {
                "st" => {
                    StProtocol::run_in_instrumented(&world, &mut ffd2d_trace::NullSink, &mut rec)
                }
                _ => FstProtocol::run_in_instrumented(&world, &mut ffd2d_trace::NullSink, &mut rec),
            };
            let wall_clock_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let manifest = manifest_for(&stem, proto, &scenario, params, wall_clock_ns, rec);
            let json_path = write_manifest(dir, &stem, &manifest)?;
            done += 1;
            let slots = manifest.telemetry.counter("engine.slots_materialized");
            progress_line(&stem, done, cells, wall_clock_ns, slots, t_sweep.elapsed());
            records.push(CellRecord {
                label: stem,
                n,
                wall_clock_ns,
                slots,
                manifest: json_path.clone(),
            });
            written.push(json_path);
        }
    }
    fs::write(dir.join("sweep.json"), rollup_json(&records))?;
    Ok(written)
}

/// Profile a single ST trial of an arbitrary scenario (the ablation
/// binary's `--telemetry` path): manifest to `<dir>/{stem}.json` +
/// `<dir>/{stem}.prom`. Returns the JSON path.
pub fn write_st_telemetry(
    scenario: &ScenarioConfig,
    dir: &Path,
    stem: &str,
) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let world = World::new(scenario);
    let mut rec = Telemetry::new();
    let t0 = Instant::now();
    StProtocol::run_in_instrumented(&world, &mut ffd2d_trace::NullSink, &mut rec);
    let wall_clock_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let config = scenario_config_echo("st", scenario);
    let manifest = RunManifest {
        label: stem.to_string(),
        config,
        wall_clock_ns,
        telemetry: rec,
    };
    write_manifest(dir, stem, &manifest)
}

/// Build a cell manifest: label + ordered config echo + registry.
fn manifest_for(
    stem: &str,
    proto: &str,
    scenario: &ScenarioConfig,
    params: &SweepParams,
    wall_clock_ns: u64,
    rec: Telemetry,
) -> RunManifest {
    let mut config = scenario_config_echo(proto, scenario);
    config.push(("trials".to_string(), params.trials.to_string()));
    config.push((
        "master_seed".to_string(),
        format!("{:#x}", params.master_seed),
    ));
    RunManifest {
        label: stem.to_string(),
        config,
        wall_clock_ns,
        telemetry: rec,
    }
}

/// The ordered (key, value) configuration echo shared by every
/// manifest: enough to re-run the exact cell.
fn scenario_config_echo(proto: &str, scenario: &ScenarioConfig) -> Vec<(String, String)> {
    vec![
        ("protocol".to_string(), proto.to_string()),
        ("n".to_string(), scenario.sim.n_devices.to_string()),
        ("seed".to_string(), scenario.sim.seed.to_string()),
        ("horizon".to_string(), scenario.sim.max_slots.0.to_string()),
        (
            "engine".to_string(),
            match scenario.engine {
                ffd2d_core::EngineMode::Stepped => "stepped".to_string(),
                ffd2d_core::EngineMode::EventDriven => "event".to_string(),
            },
        ),
        (
            "gain_cache".to_string(),
            match scenario.gain_cache {
                ffd2d_core::GainCacheMode::Epoch => "epoch".to_string(),
                ffd2d_core::GainCacheMode::Off => "off".to_string(),
            },
        ),
        (
            "faults".to_string(),
            if scenario.faults.is_none() {
                "none".to_string()
            } else {
                "scheduled".to_string()
            },
        ),
    ]
}

/// Write `<dir>/{stem}.json` and `<dir>/{stem}.prom`; returns the JSON
/// path.
fn write_manifest(dir: &Path, stem: &str, manifest: &RunManifest) -> io::Result<PathBuf> {
    let json_path = dir.join(format!("{stem}.json"));
    fs::write(&json_path, manifest.to_json())?;
    fs::write(dir.join(format!("{stem}.prom")), manifest.to_prometheus())?;
    Ok(json_path)
}

/// One per-cell progress line with throughput and a naive ETA
/// (remaining cells at the mean observed pace; later cells are bigger,
/// so it is a floor, not a promise).
fn progress_line(
    stem: &str,
    done: usize,
    cells: usize,
    wall_clock_ns: u64,
    slots: u64,
    sweep_elapsed: std::time::Duration,
) {
    let secs = wall_clock_ns as f64 / 1e9;
    let throughput = if secs > 0.0 { slots as f64 / secs } else { 0.0 };
    let eta = sweep_elapsed.as_secs_f64() / done as f64 * (cells - done) as f64;
    let mut err = io::stderr().lock();
    let _ = writeln!(
        err,
        "[telemetry {done}/{cells}] {stem}: {secs:.3} s, {slots} slots materialized ({throughput:.0} slots/s), eta ~{eta:.1} s"
    );
}

/// The sweep-level rollup document.
fn rollup_json(records: &[CellRecord]) -> String {
    let total_ns: u64 = records.iter().map(|r| r.wall_clock_ns).sum();
    let mut out = String::with_capacity(1024);
    out.push_str("{\n  \"schema\": \"ffd2d-telemetry-sweep/1\",\n");
    out.push_str(&format!("  \"total_wall_clock_ns\": {total_ns},\n"));
    out.push_str("  \"cells\": [");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let secs = r.wall_clock_ns as f64 / 1e9;
        let throughput = if secs > 0.0 {
            r.slots as f64 / secs
        } else {
            0.0
        };
        out.push_str(&format!(
            "\n    {{\"label\": \"{}\", \"n\": {}, \"wall_clock_ns\": {}, \"slots_materialized\": {}, \"slots_per_sec\": {:.1}, \"manifest\": \"{}\"}}",
            r.label,
            r.n,
            r.wall_clock_ns,
            r.slots,
            throughput,
            r.manifest.display()
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}
