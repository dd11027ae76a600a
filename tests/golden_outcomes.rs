//! Golden outcome pins.
//!
//! The equivalence suites compare engine modes, worker counts and cache
//! settings *against each other*, so a change that shifts an RNG draw
//! (or reorders a hook) identically in every mode passes all of them.
//! These pins compare against recorded history instead: the FNV-1a
//! digest of `format!("{:?}", RunOutcome)` for ST and FST on six fixed
//! cells — {Table-I n = 60 clean, Table-I n = 60 under the `churn-heavy`
//! preset, the `tests/chaos.rs`-style plan with drop, dup, churn, skew
//! and droop} × {Stepped, EventDriven}. Every protocol entry point —
//! `run(cfg)`, `run_in(&world)` and
//! `run_in_instrumented(&world, &mut NullSink, &mut NullRecorder)` —
//! must reproduce the same pins.
//!
//! A digest mismatch means the simulator's observable behaviour
//! changed. If that is intended, re-pin from the failure message, which
//! prints every cell's current digest.

use ffd2d::baseline::FstProtocol;
use ffd2d::chaos::{ChurnEvent, ChurnKind, ClockSkew, FaultPlan, PowerDroop};
use ffd2d::core::{EngineMode, RunOutcome, ScenarioConfig, StProtocol, World};
use ffd2d::sim::time::SlotDuration;
use ffd2d::telemetry::NullRecorder;
use ffd2d::trace::NullSink;

const N: usize = 60;
const SEED: u64 = 0x60_1DE2;
const CLEAN_HORIZON: u64 = 12_000;
const FAULT_HORIZON: u64 = 9_000;

/// FNV-1a, 64-bit (the digest `perfbench` checks its workloads with).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest(o: &RunOutcome) -> u64 {
    fnv1a(format!("{o:?}").as_bytes())
}

/// Every fault class at once, as in `tests/chaos.rs`.
fn spicy_plan(horizon: u64) -> FaultPlan {
    FaultPlan {
        drop_prob: 0.05,
        dup_prob: 0.02,
        churn: vec![
            ChurnEvent {
                slot: horizon / 3,
                device: 3,
                kind: ChurnKind::Leave,
            },
            ChurnEvent {
                slot: horizon / 3 + 50,
                device: 7,
                kind: ChurnKind::Leave,
            },
            ChurnEvent {
                slot: horizon * 2 / 3,
                device: 3,
                kind: ChurnKind::Join,
            },
        ],
        skew: vec![ClockSkew {
            device: 5,
            extra_slots: 2,
        }],
        droop: vec![PowerDroop {
            device: 1,
            from_slot: horizon / 4,
            until_slot: horizon / 2,
            droop_db: 12.0,
        }],
    }
}

/// The three scenario cells, by name.
fn cells() -> Vec<(&'static str, ScenarioConfig)> {
    let base = |horizon| {
        ScenarioConfig::table1(N)
            .seeded(SEED)
            .with_max_slots(SlotDuration(horizon))
    };
    let heavy = FaultPlan::resolve("churn-heavy", N, FAULT_HORIZON).expect("preset");
    vec![
        ("clean", base(CLEAN_HORIZON)),
        ("churn-heavy", base(FAULT_HORIZON).with_faults(heavy)),
        (
            "spicy",
            base(FAULT_HORIZON).with_faults(spicy_plan(FAULT_HORIZON)),
        ),
    ]
}

/// (cell, engine, protocol) → digest recorded before the slot machinery
/// of the two engines was merged into one runtime.
const PINS: &[(&str, &str, &str, u64)] = &[
    ("clean", "Stepped", "ST", 0xdae63e98fc6b1f74),
    ("clean", "Stepped", "FST", 0xc91bcdc13032d485),
    ("clean", "EventDriven", "ST", 0xdae63e98fc6b1f74),
    ("clean", "EventDriven", "FST", 0xc91bcdc13032d485),
    ("churn-heavy", "Stepped", "ST", 0x91bfb69d01e0c5d8),
    ("churn-heavy", "Stepped", "FST", 0x56d4cb26d8dbc857),
    ("churn-heavy", "EventDriven", "ST", 0x91bfb69d01e0c5d8),
    ("churn-heavy", "EventDriven", "FST", 0x56d4cb26d8dbc857),
    ("spicy", "Stepped", "ST", 0xabef4a73e1d17582),
    ("spicy", "Stepped", "FST", 0x9c8221fc6a59f3ad),
    ("spicy", "EventDriven", "ST", 0xabef4a73e1d17582),
    ("spicy", "EventDriven", "FST", 0x9c8221fc6a59f3ad),
];

/// One protocol entry point, run for ST and FST on the same scenario.
type EntryPoint = fn(&ScenarioConfig) -> (RunOutcome, RunOutcome);

/// Every public protocol entry point, by name.
const ENTRY_POINTS: [(&str, EntryPoint); 3] = [
    ("run", |cfg| (StProtocol::run(cfg), FstProtocol::run(cfg))),
    ("run_in", |cfg| {
        let world = World::new(cfg);
        (StProtocol::run_in(&world), FstProtocol::run_in(&world))
    }),
    ("run_in_instrumented", |cfg| {
        let world = World::new(cfg);
        (
            StProtocol::run_in_instrumented(&world, &mut NullSink, &mut NullRecorder),
            FstProtocol::run_in_instrumented(&world, &mut NullSink, &mut NullRecorder),
        )
    }),
];

#[test]
fn outcomes_match_the_recorded_digests() {
    for (entry, run_both) in ENTRY_POINTS {
        let mut actual = Vec::new();
        for (cell, cfg) in cells() {
            for (engine, mode) in [
                ("Stepped", EngineMode::Stepped),
                ("EventDriven", EngineMode::EventDriven),
            ] {
                let (st, fst) = run_both(&cfg.clone().with_engine(mode));
                actual.push((cell, engine, "ST", digest(&st)));
                actual.push((cell, engine, "FST", digest(&fst)));
            }
        }
        let listing: String = actual
            .iter()
            .map(|(c, e, p, d)| format!("    ({c:?}, {e:?}, {p:?}, 0x{d:016x}),\n"))
            .collect();
        assert_eq!(
            actual.len(),
            PINS.len(),
            "cell matrix changed; current digests via {entry}:\n{listing}"
        );
        for (got, pin) in actual.iter().zip(PINS) {
            assert_eq!(
                got, pin,
                "outcome digest drifted via {entry}; current digests:\n{listing}"
            );
        }
    }
}
