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
//!    leak in).
//!
//! On top of the contract, the re-convergence tests check graceful
//! degradation: after the last churn event the population must converge
//! again within the horizon, with the rejoined devices re-attached to
//! the spanning structure.

use ffd2d::baseline::FstProtocol;
use ffd2d::chaos::{ChurnEvent, ChurnKind, ClockSkew, FaultPlan, PowerDroop};
use ffd2d::core::{EngineMode, RunOutcome, ScenarioConfig, StProtocol, World};
use ffd2d::sim::time::SlotDuration;
use ffd2d::telemetry::NullRecorder;
use ffd2d::trace::JsonlSink;

fn cfg(n: usize, seed: u64, horizon: u64) -> ScenarioConfig {
    ScenarioConfig::table1(n)
        .seeded(seed)
        .with_max_slots(SlotDuration(horizon))
}

fn st_traced(cfg: &ScenarioConfig) -> (RunOutcome, Vec<u8>) {
    let mut sink = JsonlSink::new(Vec::new());
    let out = StProtocol::run_in_instrumented(&World::new(cfg), &mut sink, &mut NullRecorder);
    assert!(sink.io_error().is_none());
    (out, sink.into_inner())
}

fn fst_traced(cfg: &ScenarioConfig) -> (RunOutcome, Vec<u8>) {
    let mut sink = JsonlSink::new(Vec::new());
    let out = FstProtocol::run_in_instrumented(&World::new(cfg), &mut sink, &mut NullRecorder);
    assert!(sink.io_error().is_none());
    (out, sink.into_inner())
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
        let label = format!("{engine:?}");

        let st_base = StProtocol::run(&base);
        assert_eq!(st_base, StProtocol::run(&with_none), "ST {label}");
        assert_eq!(st_base.reconvergence_time, None, "ST {label}");
        assert_eq!(st_base.orphaned_fragments, 0, "ST {label}");
        assert_eq!(st_base.counters.fault_dropped_frames, 0, "ST {label}");
        assert_eq!(st_base.counters.fault_dup_frames, 0, "ST {label}");
        let (st_out_a, st_log_a) = st_traced(&base);
        let (st_out_b, st_log_b) = st_traced(&with_none);
        assert_eq!(st_out_a, st_out_b, "ST traced {label}");
        assert_eq!(st_log_a, st_log_b, "ST JSONL bytes {label}");
        assert!(!st_log_a.is_empty(), "ST empty trace {label}");

        let fst_base = FstProtocol::run(&base);
        assert_eq!(fst_base, FstProtocol::run(&with_none), "FST {label}");
        assert_eq!(fst_base.reconvergence_time, None, "FST {label}");
        assert_eq!(fst_base.counters.fault_dropped_frames, 0, "FST {label}");
        let (fst_out_a, fst_log_a) = fst_traced(&base);
        let (fst_out_b, fst_log_b) = fst_traced(&with_none);
        assert_eq!(fst_out_a, fst_out_b, "FST traced {label}");
        assert_eq!(fst_log_a, fst_log_b, "FST JSONL bytes {label}");
        assert!(!fst_log_a.is_empty(), "FST empty trace {label}");
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

    // Reference run; every variant must match it bit for bit.
    let st_ref = StProtocol::run(&mk(EngineMode::Stepped));
    let fst_ref = FstProtocol::run(&mk(EngineMode::Stepped));
    // The faults actually fired (the plan is not accidentally inert).
    assert!(
        st_ref.counters.fault_dropped_frames > 0,
        "no drops injected: {st_ref:?}"
    );
    assert!(
        st_ref.counters.fault_dup_frames > 0,
        "no dups injected: {st_ref:?}"
    );
    assert!(fst_ref.counters.fault_dropped_frames > 0);

    for engine in [EngineMode::Stepped, EngineMode::EventDriven] {
        let c = mk(engine);
        assert_eq!(StProtocol::run(&c), st_ref, "ST {engine:?}");
        assert_eq!(FstProtocol::run(&c), fst_ref, "FST {engine:?}");
    }

    // Same seed ⇒ byte-identical JSONL, including the FaultInjected /
    // DeviceLeft / DeviceJoined events, across engines.
    let (st_out, st_log) = st_traced(&mk(EngineMode::Stepped));
    assert_eq!(st_out, st_ref, "tracing perturbed the faulted ST run");
    for engine in [EngineMode::Stepped, EngineMode::EventDriven] {
        let (out, log) = st_traced(&mk(engine));
        assert_eq!(out, st_ref, "ST traced {engine:?}");
        assert_eq!(log, st_log, "ST JSONL bytes {engine:?}");
    }
    let log_text = String::from_utf8(st_log).unwrap();
    assert!(
        log_text.contains("\"fault_injected\""),
        "no FaultInjected events"
    );
    assert!(log_text.contains("\"device_left\""), "no DeviceLeft event");
    assert!(
        log_text.contains("\"device_joined\""),
        "no DeviceJoined event"
    );

    let (fst_out, fst_log) = fst_traced(&mk(EngineMode::Stepped));
    assert_eq!(fst_out, fst_ref, "tracing perturbed the faulted FST run");
    let (fst_out2, fst_log2) = fst_traced(&mk(EngineMode::EventDriven));
    assert_eq!(fst_out2, fst_ref);
    assert_eq!(fst_log2, fst_log, "FST JSONL bytes diverged");
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
