//! Equivalence harness: the event-driven slot-skipping engine versus
//! the stepped reference loop.
//!
//! Both protocol engines ([`StProtocol`] and the FST baseline) can run
//! in two modes (see [`EngineMode`]): the *stepped* loop materializes
//! every slot of the horizon; the *event-driven* loop jumps
//! between wake-up slots (oscillator fires, phase-transition
//! boundaries, unicast deliveries, handshake deadlines) and
//! fast-forwards the idle stretches through memoized phase
//! trajectories. The fast-forward replays the exact `tick()`
//! arithmetic, RNG streams are only consumed at materialized slots,
//! and the wake set provably covers every slot where anything beyond
//! pure phase ticking happens — materializing *extra* slots is
//! outcome-neutral — so the two modes must match **bit for bit**.
//!
//! The harness locks that down at n ∈ {50, 200, 500} across the three
//! channel regimes of `tests/medium_equivalence.rs`:
//!
//! * the paper's Table-I channel (σ = 10 dB shadowing + Rayleigh
//!   fading) in the dense 100 m × 100 m arena;
//! * the ideal channel in a 2 km arena (multi-fragment topologies,
//!   genuine spatial pruning);
//! * a low-shadowing (σ = 3 dB), no-fading 1 km arena.
//!
//! Two cells copy the perf harness's `sparse_st_1000` workload at
//! n = 200, clean and under churn and clock skew, and one makes devices
//! rejoin on their fire slot; a work bound checks that an event-driven
//! slot costs its events, not the population.
//!
//! For each cell it asserts identical [`RunOutcome`]s for both
//! protocols, plain and traced, and that each engine traces the run it
//! ran: the event-driven JSONL trace is the stepped one with the
//! `slot_stats` lines of the skipped slots removed (see
//! [`common::assert_trace_contract`]).

mod common;

use ffd2d::chaos::{ChurnEvent, ChurnKind, ClockSkew, FaultPlan};
use ffd2d::core::{EngineMode, ScenarioConfig, StProtocol, World};
use ffd2d::radio::fading::FadingModel;
use ffd2d::sim::deployment::Meters;
use ffd2d::sim::time::SlotDuration;
use ffd2d::telemetry::Telemetry;
use ffd2d::trace::NullSink;

/// Table-I channel in the paper arena (dense, heavy shadowing+fading).
fn table1_cfg(n: usize, seed: u64, horizon: u64) -> ScenarioConfig {
    ScenarioConfig::table1(n)
        .seeded(seed)
        .with_max_slots(SlotDuration(horizon))
}

/// Ideal channel in a 2 km arena: sparse contact graphs, so the runs
/// spend most slots idle — the regime the event engine is built for.
fn sparse_ideal_cfg(n: usize, seed: u64, horizon: u64) -> ScenarioConfig {
    let mut cfg = table1_cfg(n, seed, horizon).ideal_channel();
    cfg.sim.area_width = Meters(2000.0);
    cfg.sim.area_height = Meters(2000.0);
    cfg
}

/// Low shadowing, no fading, 1 km arena.
fn sparse_shadowed_cfg(n: usize, seed: u64, horizon: u64) -> ScenarioConfig {
    let mut cfg = table1_cfg(n, seed, horizon).with_shadowing(3.0);
    cfg.channel.fading = FadingModel::None;
    cfg.sim.area_width = Meters(1000.0);
    cfg.sim.area_height = Meters(1000.0);
    cfg
}

/// A small copy of the perf harness's `sparse_st_1000` cell: the 2 km
/// ideal arena with a long period, so the event engine skips most slots
/// and a materialized slot holds a handful of events among n = 200
/// devices. The horizon covers the three discovery periods and three
/// merge rounds (each at least 1.5 periods).
const SPARSE_BENCH_N: usize = 200;
const SPARSE_BENCH_HORIZON: u64 = 15_000;

fn sparse_bench_cfg(seed: u64) -> ScenarioConfig {
    let mut cfg = sparse_ideal_cfg(SPARSE_BENCH_N, seed, SPARSE_BENCH_HORIZON);
    cfg.protocol.period_slots = 2000;
    cfg
}

/// The sparse bench cell under churn and clock skew: the heavy churn
/// preset (departures straddling the discovery→merge boundary, half of
/// them rejoining mid-merge, 2 % frame drops), one device that powers
/// on only mid-merge, and every 23rd device's clock a few slots off.
fn sparse_bench_faulted_cfg(seed: u64) -> ScenarioConfig {
    let n = SPARSE_BENCH_N;
    let mut plan = FaultPlan::resolve("churn-heavy", n, SPARSE_BENCH_HORIZON).expect("preset");
    plan.churn.push(ChurnEvent {
        slot: SPARSE_BENCH_HORIZON / 2,
        device: 1,
        kind: ChurnKind::Join,
    });
    plan.skew = (0..n as u32)
        .step_by(23)
        .map(|device| ClockSkew {
            device,
            extra_slots: if device % 2 == 0 { 3 } else { -2 },
        })
        .collect();
    sparse_bench_cfg(seed).with_faults(plan)
}

/// Assert stepped ≡ event-driven for both protocols on `cfg`:
/// bit-identical `RunOutcome`s and JSONL traces that keep the
/// cross-engine trace contract.
fn assert_engines_agree(label: &str, cfg: &ScenarioConfig) {
    let stepped = cfg.clone().with_engine(EngineMode::Stepped);
    let event = cfg.clone().with_engine(EngineMode::EventDriven);

    for (name, run, run_observed) in common::PROTOCOLS {
        // Tracing must not perturb the untraced outcome, and the event
        // trace is the stepped one minus the skipped slots' statistics.
        let reference = run(&stepped);
        let (out_s, log_s) = common::traced(run_observed, &stepped);
        assert_eq!(out_s, reference, "tracing perturbed {name}: {label}");
        assert!(!log_s.is_empty(), "empty {name} trace: {label}");
        assert_eq!(reference, run(&event), "{name} outcomes diverged: {label}");
        let (out_e, log_e) = common::traced(run_observed, &event);
        assert_eq!(
            out_e, reference,
            "tracing perturbed {name} (event): {label}"
        );
        common::assert_trace_contract(&format!("{name} {label}"), &log_s, &log_e);
    }
}

// The horizons shrink with n to keep the (stepped, traced) reference
// runs affordable in debug builds; equivalence does not require
// convergence, but the n=50 cells do converge and so exercise the
// early-exit path under both engines.

#[test]
fn engines_agree_at_n50_table1() {
    assert_engines_agree("n=50 table1", &table1_cfg(50, 0xA11CE, 30_000));
}

#[test]
fn engines_agree_at_n200_table1() {
    assert_engines_agree("n=200 table1", &table1_cfg(200, 0xB0B, 8_000));
}

#[test]
fn engines_agree_at_n500_table1() {
    assert_engines_agree("n=500 table1", &table1_cfg(500, 0x5EED, 2_000));
}

#[test]
fn engines_agree_at_n50_sparse_ideal() {
    assert_engines_agree("n=50 sparse-ideal", &sparse_ideal_cfg(50, 1, 30_000));
}

#[test]
fn engines_agree_at_n200_sparse_ideal() {
    assert_engines_agree("n=200 sparse-ideal", &sparse_ideal_cfg(200, 2, 8_000));
}

#[test]
fn engines_agree_at_n500_sparse_ideal() {
    assert_engines_agree("n=500 sparse-ideal", &sparse_ideal_cfg(500, 3, 2_000));
}

#[test]
fn engines_agree_on_the_sparse_bench_cell() {
    let cfg = sparse_bench_cfg(4);
    assert!(
        StProtocol::run(&cfg).merge_rounds >= 2,
        "cell must reach merging"
    );
    assert_engines_agree("n=200 sparse bench", &cfg);
}

#[test]
fn engines_agree_on_the_sparse_bench_cell_under_churn_and_skew() {
    let cfg = sparse_bench_faulted_cfg(5);
    let out = StProtocol::run(&cfg);
    assert!(out.merge_rounds >= 2, "cell must reach merging");
    assert!(out.counters.fault_dropped_frames > 0, "plan must bite");
    assert_engines_agree("n=200 sparse bench, churn + skew", &cfg);
}

/// Devices that blink off for one slot in every three through ST's
/// discovery phase (both protocols run the same plan). About half of
/// their fires then land on a rejoin slot, where the event engine must
/// fire the thawed oscillator at once instead of waiting for a
/// re-prediction.
#[test]
fn engines_agree_when_devices_fire_on_their_rejoin_slot() {
    let mut plan = FaultPlan::none();
    for device in 0..8u32 {
        for slot in (10..290).step_by(3) {
            plan.churn.push(ChurnEvent {
                slot,
                device,
                kind: ChurnKind::Leave,
            });
            plan.churn.push(ChurnEvent {
                slot: slot + 1,
                device,
                kind: ChurnKind::Join,
            });
        }
    }
    let cfg = table1_cfg(50, 0xB11C, 3_000).with_faults(plan);
    assert_engines_agree("n=50 table1, blinking devices", &cfg);
}

/// The event engine's work per materialized slot must follow the slot's
/// events, not the population: on the sparse bench cell, oscillator
/// catch-ups (trajectory warps plus literal fallbacks) stay far below
/// one per device per materialized slot, which an O(n) per-slot loop
/// would cost.
#[test]
fn event_slots_cost_events_not_devices() {
    let cfg = sparse_bench_cfg(4).with_engine(EngineMode::EventDriven);
    let mut rec = Telemetry::new();
    StProtocol::run_in_instrumented(&World::new(&cfg), &mut NullSink, &mut rec);
    let syncs = rec.counter("osc.cursor_warps") + rec.counter("osc.literal_advances");
    let slots = rec.counter("engine.slots_materialized");
    assert!(slots > 0);
    let bound = SPARSE_BENCH_N as u64 * slots / 10;
    assert!(
        syncs < bound,
        "{syncs} oscillator catch-ups over {slots} materialized slots (bound {bound})"
    );
}

#[test]
fn engines_agree_at_n50_sparse_shadowed() {
    assert_engines_agree("n=50 sparse-shadowed", &sparse_shadowed_cfg(50, 7, 30_000));
}

#[test]
fn engines_agree_at_n200_sparse_shadowed() {
    assert_engines_agree("n=200 sparse-shadowed", &sparse_shadowed_cfg(200, 8, 8_000));
}

#[test]
fn engines_agree_at_n500_sparse_shadowed() {
    assert_engines_agree("n=500 sparse-shadowed", &sparse_shadowed_cfg(500, 9, 2_000));
}

/// A dense Table-I cell where some device fires in nearly every slot:
/// the event engine materializes almost the whole horizon and must
/// still match the stepped loop bit for bit, and keep the trace
/// contract when traced.
#[test]
fn engines_agree_on_a_dense_cell() {
    assert_engines_agree("n=1000 dense", &table1_cfg(1000, 0xDE45E, 600));
}
