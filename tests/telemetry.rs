//! Telemetry guarantees: self-profiling never perturbs the simulation.
//!
//! * A recorded run's [`RunOutcome`] is bit-identical to an unrecorded
//!   one — for both protocols and both engine modes (telemetry reads
//!   the clock but never an RNG stream or any protocol state).
//! * With a trace sink attached as well, the JSONL bytes are identical
//!   whether or not a recorder is listening.
//! * Same `(scenario, seed)` ⇒ identical telemetry *structure*: every
//!   counter and every timer/observation call count matches across
//!   re-runs (durations differ — they are wall clock — but
//!   `perf_inspect` renders the same breakdown shape).
//! * The recorder actually records: the hot-path keys the engines claim
//!   to instrument are present with plausible magnitudes.

use ffd2d::baseline::FstProtocol;
use ffd2d::core::{EngineMode, ScenarioConfig, StProtocol, World};
use ffd2d::sim::time::SlotDuration;
use ffd2d::telemetry::{NullRecorder, Recorder, Telemetry};
use ffd2d::trace::{JsonlSink, NullSink};
use proptest::prelude::*;

fn scenario(n: usize, seed: u64) -> ScenarioConfig {
    ScenarioConfig::table1(n)
        .seeded(seed)
        .with_max_slots(SlotDuration(30_000))
}

/// The full (protocol × engine) matrix for one scenario.
fn assert_outcome_neutral(cfg: &ScenarioConfig) {
    for engine in [EngineMode::Stepped, EngineMode::EventDriven] {
        let cfg = cfg.clone().with_engine(engine);
        let label = format!("{engine:?}");
        let world = World::new(&cfg);

        let plain = StProtocol::run(&cfg);
        let mut rec = Telemetry::new();
        let recorded = StProtocol::run_in_instrumented(&world, &mut NullSink, &mut rec);
        assert_eq!(plain, recorded, "telemetry perturbed ST ({label})");
        let null = StProtocol::run_in_instrumented(&world, &mut NullSink, &mut NullRecorder);
        assert_eq!(plain, null, "NullRecorder perturbed ST ({label})");
        assert!(
            rec.counter("engine.slots_materialized") > 0,
            "ST recorded nothing ({label})"
        );

        let plain = FstProtocol::run(&cfg);
        let mut rec = Telemetry::new();
        let recorded = FstProtocol::run_in_instrumented(&world, &mut NullSink, &mut rec);
        assert_eq!(plain, recorded, "telemetry perturbed FST ({label})");
        let null = FstProtocol::run_in_instrumented(&world, &mut NullSink, &mut NullRecorder);
        assert_eq!(plain, null, "NullRecorder perturbed FST ({label})");
        assert!(
            rec.counter("engine.slots_materialized") > 0,
            "FST recorded nothing ({label})"
        );
    }
}

#[test]
fn telemetry_is_outcome_neutral_across_the_matrix() {
    assert_outcome_neutral(&scenario(50, 11));
}

#[test]
fn telemetry_is_outcome_neutral_under_faults() {
    let cfg = scenario(40, 3);
    let faults = ffd2d::core::FaultPlan::resolve("churn-light", 40, 30_000).expect("preset");
    assert_outcome_neutral(&cfg.with_faults(faults));
}

proptest! {
    /// Seeds beyond the hand-picked ones: the recorder never changes
    /// the outcome. Each case runs one (seed, engine) draw for both
    /// protocols on a small arena — the deterministic matrix above
    /// covers the worker axis; this adds seed diversity cheaply.
    #[test]
    fn telemetry_neutrality_holds_for_arbitrary_seeds(seed in 0u64..1_000_000, event in any::<bool>()) {
        let engine = if event {
            EngineMode::EventDriven
        } else {
            EngineMode::Stepped
        };
        let cfg = ScenarioConfig::table1(20)
            .seeded(seed)
            .with_max_slots(SlotDuration(8_000))
            .with_engine(engine);
        let mut rec = Telemetry::new();
        prop_assert_eq!(
            StProtocol::run(&cfg),
            StProtocol::run_in_instrumented(&World::new(&cfg), &mut NullSink, &mut rec),
            "ST, {:?}, seed {}", engine, seed
        );
        let mut rec = Telemetry::new();
        prop_assert_eq!(
            FstProtocol::run(&cfg),
            FstProtocol::run_in_instrumented(&World::new(&cfg), &mut NullSink, &mut rec),
            "FST, {:?}, seed {}", engine, seed
        );
    }
}

#[test]
fn trace_jsonl_is_byte_identical_with_recorder_attached() {
    let cfg = scenario(50, 23);
    let world = ffd2d::core::World::new(&cfg);

    let st = |rec: bool| -> Vec<u8> {
        let mut sink = JsonlSink::new(Vec::new());
        if rec {
            let mut t = Telemetry::new();
            StProtocol::run_in_instrumented(&world, &mut sink, &mut t);
        } else {
            StProtocol::run_in_instrumented(&world, &mut sink, &mut NullRecorder);
        }
        assert!(sink.io_error().is_none());
        sink.into_inner()
    };
    assert_eq!(st(false), st(true), "recorder changed ST trace bytes");

    let fst = |rec: bool| -> Vec<u8> {
        let mut sink = JsonlSink::new(Vec::new());
        if rec {
            let mut t = Telemetry::new();
            FstProtocol::run_in_instrumented(&world, &mut sink, &mut t);
        } else {
            FstProtocol::run_in_instrumented(&world, &mut sink, &mut NullRecorder);
        }
        assert!(sink.io_error().is_none());
        sink.into_inner()
    };
    assert_eq!(fst(false), fst(true), "recorder changed FST trace bytes");
}

/// Structure (counters + histogram call counts), durations dropped.
fn structure(t: &Telemetry) -> Vec<(String, u64)> {
    let mut s: Vec<(String, u64)> = t
        .counters()
        .map(|(k, v)| (format!("counter:{k}"), v))
        .collect();
    s.extend(t.timers().map(|(k, h)| (format!("timer:{k}"), h.count())));
    s.extend(
        t.observations()
            .map(|(k, h)| (format!("obs:{k}"), h.count())),
    );
    s
}

#[test]
fn same_seed_reruns_have_identical_telemetry_structure() {
    let cfg = scenario(60, 7);
    let run = || {
        let mut rec = Telemetry::new();
        StProtocol::run_in_instrumented(&World::new(&cfg), &mut NullSink, &mut rec);
        rec
    };
    let (a, b) = (run(), run());
    let (sa, sb) = (structure(&a), structure(&b));
    assert!(!sa.is_empty());
    assert_eq!(sa, sb, "re-run changed the telemetry structure");
    // Observation histograms carry identical *samples* too (they count
    // work items, not nanoseconds), so their quantiles must agree.
    for ((ka, ha), (kb, hb)) in a.observations().zip(b.observations()) {
        assert_eq!(ka, kb);
        assert_eq!(ha.sum(), hb.sum(), "{ka} sum differs across re-runs");
        assert_eq!(ha.min(), hb.min(), "{ka} min differs across re-runs");
        assert_eq!(ha.max(), hb.max(), "{ka} max differs across re-runs");
    }
}

#[test]
fn hot_path_keys_are_recorded_with_plausible_magnitudes() {
    // The event-driven engine exercises every instrumented path.
    let cfg = scenario(80, 5).with_engine(EngineMode::EventDriven);
    let mut rec = Telemetry::new();
    let out = StProtocol::run_in_instrumented(&World::new(&cfg), &mut NullSink, &mut rec);
    assert!(out.converged());

    let materialized = rec.counter("engine.slots_materialized");
    assert!(materialized > 0);
    assert!(
        rec.counter("engine.wakeups_scheduled") >= rec.counter("engine.wakeups_fired"),
        "fired wake-ups cannot exceed scheduled ones"
    );
    assert_eq!(
        rec.counter("engine.wakeups_fired"),
        materialized,
        "every fired wake-up materializes exactly one slot"
    );
    assert!(rec.counter("engine.slots_skipped") > 0, "no slots warped");
    assert!(
        rec.counter("medium.slots_resolved") <= materialized,
        "cannot resolve more slots than were materialized"
    );
    assert!(rec.counter("medium.transmissions") > 0);
    let fills = rec.counter("medium.gain_cache_misses");
    let hits = rec.counter("medium.gain_cache_hits");
    assert!(fills > 0, "epoch cache never filled a row");
    assert!(
        hits > fills,
        "epoch cache should serve far more rows than it fills \
         (hits {hits}, fills {fills})"
    );
    // Slot timers: each materialized slot lands in exactly one
    // phase-keyed histogram.
    let slot_samples: u64 = [
        "engine.slot.discovery",
        "engine.slot.merge",
        "engine.slot.sync",
    ]
    .iter()
    .filter_map(|k| rec.timer(k))
    .map(|h| h.count())
    .sum();
    assert_eq!(slot_samples, materialized);
    assert_eq!(
        rec.timer("engine.run_ns").map(|h| h.count()),
        Some(1),
        "one total-run timer sample"
    );
    // The perf harness nests spans by arrival order: each resolved
    // slot records one accumulation window, at most one gain-fill time
    // inside it, then its resolution time.
    let samples = |k: &str| rec.timer(k).map_or(0, |h| h.count());
    let resolved = rec.counter("medium.slots_resolved");
    assert!(resolved > 0);
    assert_eq!(samples("medium.shard_busy_ns"), resolved);
    assert_eq!(samples("medium.resolve_ns"), resolved);
    let fill_samples = samples("medium.gain_fill_ns");
    assert!(
        fill_samples > 0 && fill_samples <= resolved,
        "{fill_samples} gain-fill samples over {resolved} resolved slots"
    );
}

/// The default engine materializes a slot only when a wake lands on it,
/// even on a dense Table-I cell where some device fires in nearly every
/// slot and every slot of the horizon is materialized.
#[test]
fn event_engine_materializes_only_wake_slots() {
    let cfg = ScenarioConfig::table1(200)
        .seeded(9)
        .with_max_slots(SlotDuration(1000));
    assert_eq!(cfg.engine, EngineMode::EventDriven);
    let mut rec = Telemetry::new();
    StProtocol::run_in_instrumented(&World::new(&cfg), &mut NullSink, &mut rec);
    let materialized = rec.counter("engine.slots_materialized");
    assert!(
        materialized >= 600,
        "only {materialized} slots materialized"
    );
    assert_eq!(materialized, rec.counter("engine.wakeups_fired"));
}

/// Logs the order in which the medium's timer samples arrive — the
/// order the perf harness rebuilds its span tree from.
#[derive(Default)]
struct MediumSampleOrder {
    timers: Vec<&'static str>,
    slots_resolved: u64,
}

impl Recorder for MediumSampleOrder {
    fn add(&mut self, key: &'static str, delta: u64) {
        if key == "medium.slots_resolved" {
            self.slots_resolved += delta;
        }
    }

    fn gauge(&mut self, _key: &'static str, _value: f64) {}

    fn observe(&mut self, _key: &'static str, _value: u64) {}

    fn record_ns(&mut self, key: &'static str, _ns: u64) {
        if key.starts_with("medium.") {
            self.timers.push(key);
        }
    }
}

/// Every resolved slot emits its medium timers as one span group, in
/// this order: the accumulation window, the gain-fill time when a row
/// was filled, then the slot's resolution time.
#[test]
fn medium_timer_samples_arrive_in_span_order() {
    for engine in [EngineMode::Stepped, EngineMode::EventDriven] {
        let cfg = scenario(60, 11).with_engine(engine);
        let world = World::new(&cfg);
        for (proto, mut rec) in [
            ("ST", MediumSampleOrder::default()),
            ("FST", Default::default()),
        ] {
            match proto {
                "ST" => StProtocol::run_in_instrumented(&world, &mut NullSink, &mut rec),
                _ => FstProtocol::run_in_instrumented(&world, &mut NullSink, &mut rec),
            };
            let label = format!("{proto} {engine:?}");
            let (mut groups, mut fills) = (0u64, 0u64);
            let mut samples = rec.timers.iter().copied().peekable();
            while let Some(first) = samples.next() {
                assert_eq!(
                    first, "medium.shard_busy_ns",
                    "group {groups} opens outside an accumulation window ({label})"
                );
                if samples.next_if_eq(&"medium.gain_fill_ns").is_some() {
                    fills += 1;
                }
                assert_eq!(
                    samples.next(),
                    Some("medium.resolve_ns"),
                    "group {groups} does not close with its resolution time ({label})"
                );
                groups += 1;
            }
            assert!(groups > 0, "no slot resolved ({label})");
            assert_eq!(
                groups, rec.slots_resolved,
                "one group per resolved slot ({label})"
            );
            assert!(fills > 0, "no gain row was ever filled ({label})");
        }
    }
}
