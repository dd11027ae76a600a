//! Fault-injection contract tests.
//!
//! The chaos subsystem (`ffd2d-chaos`) adds seeded churn, frame
//! drop/duplication, clock skew and power droops to both protocol
//! engines. Two properties make it safe to carry in every build:
//!
//! 1. **None-neutrality** — a [`FaultPlan::none`] attached to a
//!    scenario is *provably inert*: bit-identical [`RunOutcome`]s and
//!    byte-identical JSONL traces versus a config that never mentions
//!    faults at all, for both protocols and both engines.
//! 2. **Seeded determinism** — a faulted run is a pure function of
//!    `(scenario, plan, seed)`: re-running byte-identically reproduces
//!    it, and like the clean path it is invariant to the engine mode
//!    (frame fates are stateless keyed draws, so delivery order can't
//!    leak in): identical outcomes, and an event-driven trace that is
//!    the stepped one minus the skipped slots' statistics.
//!
//! On top of the contract, the re-convergence tests check graceful
//! degradation: after the last churn event the population must converge
//! again within the horizon, with the rejoined devices re-attached to
//! the spanning structure.

mod common;

use ffd2d::baseline::FstProtocol;
use ffd2d::chaos::{ChurnEvent, ChurnKind, ClockSkew, FaultPlan, PowerDroop};
use ffd2d::core::{EngineMode, ScenarioConfig, StProtocol};
use ffd2d::sim::time::SlotDuration;

fn cfg(n: usize, seed: u64, horizon: u64) -> ScenarioConfig {
    ScenarioConfig::table1(n)
        .seeded(seed)
        .with_max_slots(SlotDuration(horizon))
}

/// A plan exercising every fault class at once.
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

/// `FaultPlan::none()` must be indistinguishable — in outcome bits and
/// trace bytes — from a scenario that never mentions faults, across
/// protocols × engines.
#[test]
fn none_plan_is_outcome_and_byte_neutral() {
    for engine in [EngineMode::Stepped, EngineMode::EventDriven] {
        let base = cfg(50, 0xA11CE, 12_000).with_engine(engine);
        let with_none = base.clone().with_faults(FaultPlan::none());
        for (name, run, run_observed) in common::PROTOCOLS {
            let label = format!("{name} {engine:?}");
            let plain = run(&base);
            assert_eq!(plain, run(&with_none), "{label}");
            assert_eq!(plain.reconvergence_time, None, "{label}");
            assert_eq!(plain.orphaned_fragments, 0, "{label}");
            assert_eq!(plain.counters.fault_dropped_frames, 0, "{label}");
            assert_eq!(plain.counters.fault_dup_frames, 0, "{label}");
            let (out_a, log_a) = common::traced(run_observed, &base);
            let (out_b, log_b) = common::traced(run_observed, &with_none);
            assert_eq!(out_a, out_b, "traced {label}");
            assert_eq!(log_a, log_b, "JSONL bytes {label}");
            assert!(!log_a.is_empty(), "empty trace {label}");
        }
    }
}

/// A faulted run is deterministic per seed and invariant to the engine
/// mode — same contract the clean path honors, now with drops, dups,
/// churn, skew and droops all active.
#[test]
fn faulted_runs_are_deterministic_and_engine_invariant() {
    let horizon = 9_000;
    let plan = spicy_plan(horizon);
    let mk = |engine| {
        cfg(30, 0xFA57, horizon)
            .with_engine(engine)
            .with_faults(plan.clone())
    };
    let engines = [EngineMode::Stepped, EngineMode::EventDriven];

    for (name, run, run_observed) in common::PROTOCOLS {
        // Reference run; every variant must match it bit for bit.
        let reference = run(&mk(EngineMode::Stepped));
        // The faults actually fired (the plan is not accidentally inert).
        let c = reference.counters;
        assert!(c.fault_dropped_frames > 0, "{name}: no drops: {c:?}");
        assert!(c.fault_dup_frames > 0, "{name}: no dups: {c:?}");
        for engine in engines {
            assert_eq!(run(&mk(engine)), reference, "{name} {engine:?}");
        }

        // Same seed ⇒ byte-identical JSONL per engine, including the
        // FaultInjected / DeviceLeft / DeviceJoined events, and the
        // event trace keeps the cross-engine contract.
        let [stepped, event] = engines.map(|engine| {
            let (out, log) = common::traced(run_observed, &mk(engine));
            assert_eq!(out, reference, "tracing perturbed {name} {engine:?}");
            assert_eq!(
                common::traced(run_observed, &mk(engine)).1,
                log,
                "{name} JSONL bytes {engine:?}"
            );
            log
        });
        common::assert_trace_contract(&format!("faulted {name}"), &stepped, &event);
        let text = String::from_utf8(event).unwrap();
        for tag in ["fault_injected", "device_left", "device_joined"] {
            assert!(text.contains(&format!("\"{tag}\"")), "{name}: no {tag}");
        }
    }
}

/// After the last churn event (`churn-light`: a leave wave at a third
/// of the preset horizon, everyone rejoining at two thirds) the ST
/// population must re-converge within the run horizon, with every
/// rejoined device re-attached to the spanning tree.
#[test]
fn st_reconverges_after_churn_at_n50() {
    let plan = FaultPlan::resolve("churn-light", 50, 24_000).unwrap();
    let last_fault = plan.last_fault_slot().unwrap();
    let rejoined: Vec<u32> = plan
        .churn
        .iter()
        .filter(|ev| ev.kind == ChurnKind::Join)
        .map(|ev| ev.device)
        .collect();
    assert!(!rejoined.is_empty(), "preset scheduled no rejoins");

    let horizon = 60_000;
    let out = StProtocol::run(&cfg(50, 0xC0FFEE, horizon).with_faults(plan));
    assert!(out.converged(), "never converged at all: {out:?}");
    let reconv = out
        .reconvergence_time
        .unwrap_or_else(|| panic!("no re-convergence after slot {last_fault}: {out:?}"));
    assert!(
        reconv.0 <= horizon - last_fault,
        "re-convergence {reconv:?} exceeds the post-fault window"
    );
    for d in rejoined {
        assert!(
            out.tree_edges.iter().any(|&(u, v)| u == d || v == d),
            "rejoined device {d} not re-attached to the tree: {:?}",
            out.tree_edges
        );
    }
}

/// Same invariant at n = 200: a ten-device leave wave with full rejoin
/// still re-converges within the horizon.
#[test]
fn st_reconverges_after_churn_at_n200() {
    let plan = FaultPlan::resolve("churn-light", 200, 24_000).unwrap();
    let last_fault = plan.last_fault_slot().unwrap();
    let horizon = 60_000;
    let out = StProtocol::run(&cfg(200, 0xD2D, horizon).with_faults(plan));
    assert!(out.converged(), "never converged at all: {out:?}");
    let reconv = out
        .reconvergence_time
        .unwrap_or_else(|| panic!("no re-convergence after slot {last_fault}: {out:?}"));
    assert!(reconv.0 <= horizon - last_fault);
}

/// The mesh baseline degrades gracefully too: full-mesh coupling
/// re-entrains rejoining devices without any tree machinery.
#[test]
fn fst_reconverges_after_churn_at_n50() {
    let plan = FaultPlan::resolve("churn-light", 50, 24_000).unwrap();
    let last_fault = plan.last_fault_slot().unwrap();
    let horizon = 60_000;
    let out = FstProtocol::run(&cfg(50, 0xBEE, horizon).with_faults(plan));
    assert!(out.converged(), "never converged at all: {out:?}");
    let reconv = out
        .reconvergence_time
        .unwrap_or_else(|| panic!("no re-convergence after slot {last_fault}: {out:?}"));
    assert!(reconv.0 <= horizon - last_fault);
    assert!(out.tree_edges.is_empty());
}

/// The checked-in schema example loads through the `--faults` loader
/// to exactly the plan it spells out.
#[test]
fn checked_in_plan_loads_exactly() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/fault_plan.json");
    let plan = ffd2d::experiments::faults::FaultSpec::load(path)
        .and_then(|spec| spec.plan(50, 30_000))
        .expect("plan loads");
    let expected = FaultPlan {
        drop_prob: 0.05,
        dup_prob: 0.01,
        churn: vec![ChurnEvent {
            slot: 1000,
            device: 3,
            kind: ChurnKind::Leave,
        }],
        skew: vec![ClockSkew {
            device: 1,
            extra_slots: -4,
        }],
        droop: vec![PowerDroop {
            device: 2,
            from_slot: 100,
            until_slot: 400,
            droop_db: 12.0,
        }],
    };
    assert_eq!(plan, expected);
    assert!(cfg(50, 1, 30_000).with_faults(plan).validate().is_ok());
}
