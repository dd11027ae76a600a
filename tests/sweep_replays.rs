//! The `--trace` and `--telemetry` replays of the figure binaries.
//!
//! Both replays re-run trial 0 of every sweep cell from one shared
//! scenario builder, so a traced or profiled cell is the simulation the
//! figure's first sample came from. These tests pin the files each
//! replay writes, the seed it replays under, and that each replay runs
//! the same simulation as that cell built by hand.
//!
//! `write_sweep_traces` writes its timeline CSVs under `results/`
//! relative to the working directory, so this binary moves into a
//! directory of its own under `CARGO_TARGET_TMPDIR` first; every other
//! path here is absolute. Each test uses its own node counts, so no two
//! tests write the same file.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use ffd2d::core::{ScenarioConfig, StProtocol, World};
use ffd2d::experiments::trace::{parse_event, JsonlSink};
use ffd2d::experiments::{write_sweep_telemetry, write_sweep_traces, SweepParams};
use ffd2d::parallel::{SweepConfig, TrialCtx};
use ffd2d::sim::time::SlotDuration;
use ffd2d::telemetry::{ManifestSummary, NullRecorder, Telemetry};
use ffd2d::trace::{NullSink, TraceEvent};

/// This binary's working directory, entered on first use.
fn workdir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sweep_replays");
        std::fs::create_dir_all(&dir).expect("create workdir");
        std::env::set_current_dir(&dir).expect("enter workdir");
        dir
    })
}

/// A fresh output directory named `name` under the workdir.
fn out_dir(name: &str) -> PathBuf {
    let dir = workdir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small sweep over `node_counts`, one trial each.
fn params(node_counts: &[usize]) -> SweepParams {
    SweepParams {
        node_counts: node_counts.to_vec(),
        trials: 1,
        horizon: SlotDuration(20_000),
        ..SweepParams::quick()
    }
}

fn manifest(path: &Path) -> ManifestSummary {
    let text = std::fs::read_to_string(path).expect("read manifest");
    ManifestSummary::parse(&text).expect("parse manifest")
}

/// Trial 0 of the sweep's `i`-th cell, built by hand: the seed the
/// sweep derives for it, the sweep's horizon, engine and cache mode.
fn trial_zero(p: &SweepParams, i: usize) -> ScenarioConfig {
    let sweep = SweepConfig {
        master_seed: p.master_seed,
        trials: p.trials,
    };
    ScenarioConfig::table1(p.node_counts[i])
        .seeded(TrialCtx::new(&sweep, i, 0).seed)
        .with_max_slots(p.horizon)
        .with_engine(p.engine)
        .with_gain_cache(p.gain_cache)
}

/// The `TraceEvent::Tx` lines of a JSONL log.
fn tx_events(path: &Path) -> u64 {
    let text = std::fs::read_to_string(path).expect("read trace");
    text.lines()
        .filter_map(parse_event)
        .filter(|ev| matches!(ev, TraceEvent::Tx { .. }))
        .count() as u64
}

#[test]
fn telemetry_replay_writes_a_manifest_pair_per_cell() {
    let dir = out_dir("telemetry_layout");
    let written = write_sweep_telemetry(&params(&[12, 18]), &dir).expect("replay");
    let stems = ["st_n12", "fst_n12", "st_n18", "fst_n18"];
    let expected: Vec<PathBuf> = stems
        .iter()
        .map(|s| dir.join(format!("{s}.json")))
        .collect();
    assert_eq!(written, expected, "ST and FST interleaved per node count");
    for stem in stems {
        let m = manifest(&dir.join(format!("{stem}.json")));
        assert_eq!(m.label, stem);
        let keys: Vec<&str> = m.config.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "protocol",
                "n",
                "seed",
                "horizon",
                "engine",
                "gain_cache",
                "faults",
                "trials",
                "master_seed"
            ],
            "{stem} config echo"
        );
        assert!(m.counter("medium.slots_resolved") > 0, "{stem}");
        for retired in ["medium.workers_per_slot", "medium.shard_imbalance_pct"] {
            assert!(
                m.observations.iter().all(|h| h.name != retired),
                "{stem} still records {retired}"
            );
        }
    }
    let rollup = std::fs::read_to_string(dir.join("sweep.json")).expect("rollup");
    assert!(rollup.contains("ffd2d-telemetry-sweep/1"));
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn telemetry_replay_reruns_trial_zero_under_the_sweep_seed() {
    let dir = out_dir("telemetry_seed");
    let p = params(&[10, 16]);
    write_sweep_telemetry(&p, &dir).expect("replay");
    for (i, &n) in p.node_counts.iter().enumerate() {
        let cfg = trial_zero(&p, i);
        let m = manifest(&dir.join(format!("st_n{n}.json")));
        assert_eq!(m.config_value("n"), Some(n.to_string().as_str()));
        assert_eq!(
            m.config_value("seed"),
            Some(cfg.sim.seed.to_string().as_str())
        );
        assert_eq!(m.config_value("horizon"), Some("20000"));

        // Re-running that cell by hand profiles the same slots.
        let mut rec = Telemetry::new();
        StProtocol::run_in_instrumented(&World::new(&cfg), &mut NullSink, &mut rec);
        for key in [
            "engine.slots_materialized",
            "medium.slots_resolved",
            "medium.transmissions",
        ] {
            assert_eq!(m.counter(key), rec.counter(key), "n={n}: {key}");
        }
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn trace_replay_writes_a_log_and_timeline_per_cell() {
    let dir = out_dir("trace_layout");
    let written = write_sweep_traces(&params(&[13]), &dir).expect("replay");
    assert_eq!(
        written,
        vec![dir.join("st_n13.jsonl"), dir.join("fst_n13.jsonl")]
    );
    for stem in ["st_n13", "fst_n13"] {
        assert!(tx_events(&dir.join(format!("{stem}.jsonl"))) > 0, "{stem}");
        let timeline = workdir().join(format!("results/timeline_{stem}.csv"));
        let csv = std::fs::read_to_string(&timeline).expect("timeline CSV");
        assert!(csv.lines().count() > 1, "{stem} timeline has no rows");
        std::fs::remove_file(timeline).expect("clean up");
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn trace_replay_reruns_trial_zero_under_the_sweep_seed() {
    let dir = out_dir("trace_seed");
    let p = params(&[11, 15]);
    write_sweep_traces(&p, &dir).expect("replay");
    for (i, &n) in p.node_counts.iter().enumerate() {
        // Tracing the cell by hand writes the same log, byte for byte.
        let mut sink = JsonlSink::new(Vec::new());
        StProtocol::run_in_instrumented(
            &World::new(&trial_zero(&p, i)),
            &mut sink,
            &mut NullRecorder,
        );
        let replayed = std::fs::read(dir.join(format!("st_n{n}.jsonl"))).expect("read trace");
        assert!(!replayed.is_empty(), "n={n}: empty trace");
        assert!(
            replayed == sink.into_inner(),
            "n={n}: the replay traced another run"
        );
        for proto in ["st", "fst"] {
            std::fs::remove_file(workdir().join(format!("results/timeline_{proto}_n{n}.csv")))
                .expect("clean up");
        }
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}
