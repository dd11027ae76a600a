//! Tracing guarantees: observation never perturbs the simulation, and
//! the JSONL logs are deterministic, replayable artefacts.
//!
//! * A traced run's [`RunOutcome`] is bit-identical to an untraced one
//!   (tracing consumes no randomness and touches no protocol state).
//! * Same `(scenario, seed)` ⇒ byte-identical JSONL logs.
//! * Every emitted line parses back, and re-encoding reproduces the
//!   exact bytes (the log is a lossless wire format).
//! * The per-slot timeline tallies agree with the run's [`Counters`]
//!   under both engines — the events are a complete account of the
//!   run's sends and reception outcomes.

use ffd2d::baseline::FstProtocol;
use ffd2d::core::{EngineMode, ScenarioConfig, StProtocol, World};
use ffd2d::experiments::trace::{encode_event, parse_event, JsonlSink};
use ffd2d::sim::counters::Counters;
use ffd2d::sim::time::SlotDuration;
use ffd2d::telemetry::NullRecorder;
use ffd2d::trace::{NullSink, TeeSink, TimelineSink};

fn scenario(n: usize, seed: u64) -> ScenarioConfig {
    ScenarioConfig::table1(n)
        .seeded(seed)
        .with_max_slots(SlotDuration(30_000))
}

fn st_jsonl(cfg: &ScenarioConfig) -> Vec<u8> {
    let mut sink = JsonlSink::new(Vec::new());
    StProtocol::run_in_instrumented(&World::new(cfg), &mut sink, &mut NullRecorder);
    assert!(sink.io_error().is_none());
    sink.into_inner()
}

#[test]
fn tracing_does_not_perturb_the_run() {
    for n in [50, 200] {
        let cfg = scenario(n, 11);
        let world = World::new(&cfg);
        let untraced = StProtocol::run(&cfg);
        let null = StProtocol::run_in_instrumented(&world, &mut NullSink, &mut NullRecorder);
        let mut timeline = TimelineSink::new();
        let traced = StProtocol::run_in_instrumented(&world, &mut timeline, &mut NullRecorder);
        assert_eq!(untraced, null, "NullSink perturbed the ST run at n={n}");
        assert_eq!(
            untraced, traced,
            "TimelineSink perturbed the ST run at n={n}"
        );
        assert!(!timeline.rows().is_empty(), "no rows at n={n}");

        let fst_untraced = FstProtocol::run(&cfg);
        let fst_traced =
            FstProtocol::run_in_instrumented(&world, &mut TimelineSink::new(), &mut NullRecorder);
        assert_eq!(fst_untraced, fst_traced, "tracing perturbed FST at n={n}");
    }
}

#[test]
fn same_seed_gives_byte_identical_jsonl() {
    let cfg = scenario(50, 23);
    assert_eq!(st_jsonl(&cfg), st_jsonl(&cfg));

    let fst = |cfg: &ScenarioConfig| {
        let mut sink = JsonlSink::new(Vec::new());
        FstProtocol::run_in_instrumented(&World::new(cfg), &mut sink, &mut NullRecorder);
        sink.into_inner()
    };
    assert_eq!(fst(&cfg), fst(&cfg));

    // And a different seed actually changes the log.
    assert_ne!(st_jsonl(&cfg), st_jsonl(&scenario(50, 24)));
}

#[test]
fn jsonl_log_round_trips_losslessly() {
    let log = st_jsonl(&scenario(30, 5));
    let text = String::from_utf8(log).expect("JSONL is UTF-8");
    let mut lines = 0u64;
    for line in text.lines() {
        let ev = parse_event(line).unwrap_or_else(|| panic!("unparseable line: {line}"));
        assert_eq!(encode_event(&ev), line, "re-encode changed the bytes");
        lines += 1;
    }
    assert!(lines > 100, "suspiciously short log: {lines} lines");
}

#[test]
fn timeline_tallies_match_run_counters() {
    for engine in [EngineMode::Stepped, EngineMode::EventDriven] {
        let cfg = scenario(40, 9).with_engine(engine);
        let mut timeline = TimelineSink::new();
        let out =
            StProtocol::run_in_instrumented(&World::new(&cfg), &mut timeline, &mut NullRecorder);
        let rows = timeline.rows();
        assert!(!rows.is_empty());

        let mut sum = Counters::new();
        for r in rows {
            sum += r.counters;
        }
        assert!(out.counters.unicast_tx > 0);
        assert_eq!(sum, out.counters, "{engine:?}");

        // The final row reflects the converged population.
        let last = rows[rows.len() - 1];
        assert!(out.converged());
        assert_eq!(last.fragments, 1);
        assert_eq!(last.ground_truth_links, out.ground_truth_links);
    }
}

#[test]
fn tee_preserves_both_branches() {
    let cfg = scenario(25, 3);
    let mut jsonl = JsonlSink::new(Vec::new());
    let mut timeline = TimelineSink::new();
    StProtocol::run_in_instrumented(
        &World::new(&cfg),
        &mut TeeSink(&mut jsonl, &mut timeline),
        &mut NullRecorder,
    );
    let mut alone = TimelineSink::new();
    StProtocol::run_in_instrumented(&World::new(&cfg), &mut alone, &mut NullRecorder);
    assert_eq!(
        timeline.to_csv(),
        alone.to_csv(),
        "tee changed the timeline"
    );
    let events = jsonl.events();
    let bytes = jsonl.into_inner();
    assert_eq!(events, bytes.iter().filter(|&&b| b == b'\n').count() as u64);
    assert_eq!(st_jsonl(&cfg), bytes, "tee changed the JSONL bytes");
}
