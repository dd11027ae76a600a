//! Equivalence harness: the run-long gain cache versus direct
//! per-pair recomputation.
//!
//! [`FastMedium`] caches mean link gains (path loss + shadowing — every
//! position-determined term) in rows keyed `(sender, grid cell)`,
//! valid while the row's membership stamp matches its sender's
//! (devices never move, so only churn stales a row); the per-slot
//! fading draw stays outside the cache. A cached row is *the same
//! `f64`s* the direct path computes (same batched kernel, same
//! iteration order), so `GainCacheMode::Off` versus `Epoch` must agree
//! **bit for bit** — including under churn, where joins/leaves stale
//! exactly the churned senders' rows mid-run.
//!
//! The harness locks that down across the full execution matrix (both
//! protocols × both engines) under a churn-heavy fault plan, asserting identical [`RunOutcome`]s and
//! byte-identical JSONL traces; a proptest then drives the medium
//! directly on random multi-cell worlds, checking a warmed cache
//! resolves later slots bit-identically to a cold medium.

use ffd2d::baseline::FstProtocol;
use ffd2d::core::world::FastMedium;
use ffd2d::core::{EngineMode, FaultPlan, GainCacheMode, ScenarioConfig, StProtocol, World};
use ffd2d::phy::codec::ServiceClass;
use ffd2d::phy::frame::{FrameKind, ProximitySignal};
use ffd2d::sim::counters::Counters;
use ffd2d::sim::deployment::Meters;
use ffd2d::sim::time::{Slot, SlotDuration};
use ffd2d::telemetry::{NullRecorder, Telemetry};
use ffd2d::trace::{JsonlSink, NullSink};
use proptest::prelude::*;

/// Table-I arena under a churn-heavy plan: joins and leaves force the
/// mid-run row refill path, power droops exercise the per-transmission
/// adjustment downstream of the cached mean.
fn churny_cfg(n: usize, seed: u64, horizon: u64) -> ScenarioConfig {
    let faults = FaultPlan::resolve("churn-heavy", n, horizon).expect("preset");
    ScenarioConfig::table1(n)
        .seeded(seed)
        .with_max_slots(SlotDuration(horizon))
        .with_faults(faults)
}

/// Assert `Epoch` ≡ `Off` for both protocols on `cfg`: bit-identical
/// `RunOutcome`s and byte-identical JSONL traces.
fn assert_cache_neutral(label: &str, cfg: &ScenarioConfig) {
    let run_all = |mode: GainCacheMode| {
        let cfg = cfg.clone().with_gain_cache(mode);
        let st = StProtocol::run(&cfg);
        let fst = FstProtocol::run(&cfg);
        let mut st_sink = JsonlSink::new(Vec::new());
        let st_traced =
            StProtocol::run_in_instrumented(&World::new(&cfg), &mut st_sink, &mut NullRecorder);
        assert!(st_sink.io_error().is_none());
        let mut fst_sink = JsonlSink::new(Vec::new());
        let fst_traced =
            FstProtocol::run_in_instrumented(&World::new(&cfg), &mut fst_sink, &mut NullRecorder);
        assert!(fst_sink.io_error().is_none());
        assert_eq!(st, st_traced, "tracing perturbed ST: {label}");
        assert_eq!(fst, fst_traced, "tracing perturbed FST: {label}");
        (st, fst, st_sink.into_inner(), fst_sink.into_inner())
    };

    let cached = run_all(GainCacheMode::Epoch);
    let direct = run_all(GainCacheMode::Off);
    assert!(!cached.2.is_empty(), "empty ST trace: {label}");
    assert_eq!(cached.0, direct.0, "ST outcomes diverged: {label}");
    assert_eq!(cached.1, direct.1, "FST outcomes diverged: {label}");
    assert_eq!(cached.2, direct.2, "ST JSONL bytes diverged: {label}");
    assert_eq!(cached.3, direct.3, "FST JSONL bytes diverged: {label}");
}

#[test]
fn gain_cache_is_outcome_neutral_across_the_matrix() {
    // Both engines on one churn-heavy cell; each arm runs both
    // protocols, plain and traced, under both cache modes.
    let base = churny_cfg(48, 0xCAC4E, 12_000);
    for engine in [EngineMode::Stepped, EngineMode::EventDriven] {
        let cfg = base.clone().with_engine(engine);
        assert_cache_neutral(&format!("{engine:?}"), &cfg);
    }
}

#[test]
fn narrow_churn_invalidation_keeps_the_cache_hot() {
    // Churn stales only the churned senders' rows (per-row membership
    // stamps), so a churn-heavy run must keep serving the untouched
    // majority of the cache — under the old whole-store flush this
    // cell's hit rate collapsed every join/leave.
    let cfg = churny_cfg(96, 0xC0FFEE, 8_000);
    let world = World::new(&cfg);
    let mut rec = ffd2d::telemetry::Telemetry::new();
    StProtocol::run_in_instrumented(&world, &mut NullSink, &mut rec);
    let churn = rec.counter("chaos.churn_events");
    assert!(churn > 0, "the churn-heavy plan must actually churn");
    let hits = rec.counter("medium.gain_cache_hits");
    let misses = rec.counter("medium.gain_cache_misses");
    assert!(hits + misses > 0, "the cell must exercise the cache");
    let rate = hits as f64 / (hits + misses) as f64;
    assert!(
        rate > 0.95,
        "churn-heavy hit rate degraded to {rate:.3} ({hits} hits / {misses} misses, \
         {churn} churn events) — narrow invalidation regressed"
    );
}

#[test]
fn gain_cache_is_outcome_neutral_on_a_larger_churny_cell() {
    // One bigger population on the defaults (event engine): more
    // senders and more churned rows than the matrix cell.
    assert_cache_neutral("n=200 churn-heavy", &churny_cfg(200, 0xD2D, 4_000));
}

/// A mixed fire/handshake batch, senders spread over the population.
fn batch(n: usize, slot: u64) -> Vec<ProximitySignal> {
    (0..12u32)
        .map(|k| {
            let sender = ((k as u64 * (n as u64 / 12).max(1) + slot * 5) % n as u64) as u32;
            let kind = if k % 2 == 0 {
                FrameKind::Fire {
                    fragment: sender,
                    age: 0,
                }
            } else {
                FrameKind::HConnect {
                    to: sender ^ 1,
                    fragment: sender,
                    fragment_size: 1,
                    head: sender,
                }
            };
            ProximitySignal {
                sender,
                service: ServiceClass::KEEP_ALIVE,
                kind,
            }
        })
        .collect()
}

/// Resolve one slot and return every delivery (receiver, sender,
/// rx-power bits) plus the counters — the full observable output.
fn resolve_one(
    medium: &mut FastMedium,
    world: &World,
    slot: u64,
) -> (Vec<(u32, u32, u64)>, Counters) {
    let mut counters = Counters::new();
    let mut deliveries = Vec::new();
    let txs = batch(world.n(), slot);
    medium.resolve(
        world,
        Slot(slot),
        &txs,
        None,
        &mut counters,
        &mut NullSink,
        &mut NullRecorder,
        |r, sig, p, _| deliveries.push((r, sig.sender, p.to_bits())),
    );
    (deliveries, counters)
}

proptest! {
    /// A medium warmed at slot 0 keeps resolving slots 1–3
    /// bit-identically to a cold medium: every cached row is the same
    /// `f64`s a fresh fill computes, on any seed.
    #[test]
    fn warm_cache_resolves_like_a_cold_medium(seed in 0u64..10_000) {
        // A 1 km ideal-channel arena: the audibility disc is smaller
        // than the arena, so the grid has many cells and a row covers
        // only part of the population.
        let mut cfg = ScenarioConfig::table1(40).seeded(seed).ideal_channel();
        cfg.sim.area_width = Meters(1000.0);
        cfg.sim.area_height = Meters(1000.0);
        let world = World::new(&cfg);

        let mut warm = FastMedium::new(world.n());
        let _ = resolve_one(&mut warm, &world, 0);
        for slot in 1..=3 {
            let warm_out = resolve_one(&mut warm, &world, slot);
            let cold_out = resolve_one(&mut FastMedium::new(world.n()), &world, slot);
            prop_assert_eq!(&warm_out, &cold_out, "cached re-serve diverged at slot {}", slot);
        }
    }
}

/// Resolve `txs` in slot `slot` and return the slot's gain-cache
/// `(hits, misses)` tallies.
fn cache_tallies(
    medium: &mut FastMedium,
    world: &World,
    slot: u64,
    txs: &[ProximitySignal],
) -> (u64, u64) {
    let mut rec = Telemetry::new();
    medium.resolve(
        world,
        Slot(slot),
        txs,
        None,
        &mut Counters::new(),
        &mut NullSink,
        &mut rec,
        |_, _, _, _| {},
    );
    (
        rec.counter("medium.gain_cache_hits"),
        rec.counter("medium.gain_cache_misses"),
    )
}

/// Row tallies count lookups, except that a row filled earlier in the
/// same slot and read again there is neither a hit nor a miss: a sender
/// on both codecs fills each of its rows once in its first slot and
/// hits each of them twice in the next.
#[test]
fn a_row_reused_in_the_slot_that_filled_it_is_neither_hit_nor_miss() {
    let mut cfg = ScenarioConfig::table1(40).seeded(3).ideal_channel();
    cfg.sim.area_width = Meters(1000.0);
    cfg.sim.area_height = Meters(1000.0);
    let world = World::new(&cfg);
    let both_codecs = |sender: u32| {
        batch(world.n(), 0)
            .into_iter()
            .take(2)
            .map(|sig| ProximitySignal { sender, ..sig })
            .collect::<Vec<_>>()
    };
    let pair = both_codecs(7);
    assert_ne!(pair[0].codec(), pair[1].codec());

    let mut medium = FastMedium::new(world.n());
    let (hits, rows) = cache_tallies(&mut medium, &world, 0, &pair);
    assert!(rows > 0, "the first slot must fill sender 7's rows");
    assert_eq!(hits, 0, "a row filled this slot must not count as a hit");
    assert_eq!(
        cache_tallies(&mut medium, &world, 1, &pair),
        (2 * rows, 0),
        "both transmissions of the next slot hit every row"
    );
    // A new sender fills its own rows; a reused one still hits.
    let mut mixed = both_codecs(21);
    mixed.truncate(1);
    mixed.push(pair[0]);
    let (hits, misses) = cache_tallies(&mut medium, &world, 2, &mixed);
    assert_eq!(hits, rows, "sender 7's rows hit once each");
    assert!(misses > 0, "sender 21 fills its rows");
}
