//! Equivalence harness: the spatial-grid fast medium versus the
//! reference per-pair resolver.
//!
//! `ffd2d_core::world::FastMedium` prunes candidate links through a
//! spatial grid and memoises mean link gains; `ffd2d_phy::Medium`
//! re-samples every `(transmission, receiver)` pair through the full
//! `Channel` stack. Both implement the same decode/collision/capture
//! semantics, and the pruning bound is *provable* (worst-case shadowing
//! plus worst-case fading can never lift a pruned link over the
//! detection threshold), so the two must agree **bit for bit** — same
//! decode pairs, same counters — on any seeded transmission schedule.
//!
//! The harness drives both media through identical deterministic
//! schedules at n ∈ {10, 100, 500} across three channel regimes:
//!
//! * the paper's Table-I channel (σ = 10 dB shadowing + Rayleigh
//!   fading) in the 100 m × 100 m arena, where the worst-case audible
//!   radius exceeds the diagonal and the grid degenerates to one cell;
//! * the ideal channel in a 2 km arena, where the 89 m nominal range is
//!   tiny against the diagonal and the grid genuinely prunes;
//! * a low-shadowing (σ = 3 dB), no-fading 1 km arena — pruning with a
//!   non-trivial shadowing bound in play.

use ffd2d_core::scenario::ScenarioConfig;
use ffd2d_core::world::{FastMedium, World};
use ffd2d_phy::codec::ServiceClass;
use ffd2d_phy::frame::{FrameKind, ProximitySignal};
use ffd2d_phy::medium::{Medium, Transmission};
use ffd2d_radio::fading::FadingModel;
use ffd2d_sim::counters::Counters;
use ffd2d_sim::deployment::Meters;
use ffd2d_sim::time::{Slot, SlotDuration};
use ffd2d_telemetry::NullRecorder;
use ffd2d_trace::NullSink;

/// Deterministic schedule: for each slot, a seed-derived subset of
/// devices transmits, alternating between the two RACH codecs so both
/// per-codec accumulators are exercised.
fn schedule(n: u32, seed: u64, slot: u64) -> Vec<ProximitySignal> {
    let mut txs = Vec::new();
    // 1..=4 transmitters per slot, senders strided around the ring.
    let count = 1 + ((seed ^ slot).wrapping_mul(0x9E37_79B9) >> 7) % 4;
    for k in 0..count {
        let sender = ((slot.wrapping_mul(2 * k + 7) + seed + k * 31) % n as u64) as u32;
        let kind = if (slot + k).is_multiple_of(2) {
            // RACH-1 discovery beacon.
            FrameKind::Fire {
                fragment: sender,
                age: (slot % 5) as u8,
            }
        } else {
            // RACH-2 handshake frame.
            FrameKind::HConnect {
                to: (sender + 1) % n,
                fragment: sender,
                fragment_size: 1,
                head: sender,
            }
        };
        txs.push(ProximitySignal {
            sender,
            service: ServiceClass::KEEP_ALIVE,
            kind,
        });
    }
    txs
}

/// Drive both resolvers through `slots` slots of the schedule and
/// assert identical decode reports and counters at every slot.
fn assert_equivalent(cfg: &ScenarioConfig, seed: u64, slots: u64) {
    let world = World::new(cfg);
    let n = world.n() as u32;
    let channel = world.reference_channel();
    let reference = Medium::default();
    let receivers: Vec<u32> = (0..n).collect();
    let mut fast = FastMedium::new(n as usize);

    let mut ref_counters = Counters::new();
    let mut fast_counters = Counters::new();
    for slot in 0..slots {
        let txs = schedule(n, seed, slot);
        let transmissions: Vec<Transmission> = txs
            .iter()
            .map(|&signal| Transmission::new(signal))
            .collect();

        let reports = reference.resolve(
            &channel,
            Slot(slot),
            &transmissions,
            &receivers,
            &mut ref_counters,
        );
        let mut expected: Vec<(u32, u32)> = Vec::new();
        for (rx, report) in receivers.iter().zip(&reports) {
            for sig in &report.decoded {
                expected.push((*rx, sig.sender));
            }
        }
        expected.sort_unstable();

        let mut got: Vec<(u32, u32)> = Vec::new();
        fast.resolve(
            &world,
            Slot(slot),
            &txs,
            None,
            &mut fast_counters,
            &mut NullSink,
            &mut NullRecorder,
            |rx, sig, _p, _| got.push((rx, sig.sender)),
        );
        got.sort_unstable();

        assert_eq!(
            got, expected,
            "decode reports diverged: n={n} seed={seed} slot={slot}"
        );
        assert_eq!(
            fast_counters, ref_counters,
            "counters diverged: n={n} seed={seed} slot={slot}"
        );
    }
    assert!(
        ref_counters.rx_ok > 0,
        "vacuous run: nothing ever decoded (n={n} seed={seed})"
    );
}

/// Table-I channel in the paper arena: heavy shadowing and fading, grid
/// degenerates to a single cell (radius > diagonal) — the exactness of
/// the lazy-gain path is what is under test.
fn table1_cfg(n: usize, seed: u64) -> ScenarioConfig {
    ScenarioConfig::table1(n)
        .seeded(seed)
        .with_max_slots(SlotDuration(1000))
}

/// Ideal channel in a 2 km arena: the grid genuinely prunes (~89 m
/// audible radius against a 2.8 km diagonal).
fn sparse_ideal_cfg(n: usize, seed: u64) -> ScenarioConfig {
    let mut cfg = table1_cfg(n, seed).ideal_channel();
    cfg.sim.area_width = Meters(2000.0);
    cfg.sim.area_height = Meters(2000.0);
    cfg
}

/// Low shadowing, no fading, 1 km arena: pruning with a non-zero (but
/// modest) worst-case shadowing boost in the radius.
fn sparse_shadowed_cfg(n: usize, seed: u64) -> ScenarioConfig {
    let mut cfg = table1_cfg(n, seed).with_shadowing(3.0);
    cfg.channel.fading = FadingModel::None;
    cfg.sim.area_width = Meters(1000.0);
    cfg.sim.area_height = Meters(1000.0);
    cfg
}

#[test]
fn equivalent_at_n10_table1() {
    assert_equivalent(&table1_cfg(10, 0xA11CE), 0xA11CE, 300);
}

#[test]
fn equivalent_at_n100_table1() {
    assert_equivalent(&table1_cfg(100, 0xB0B), 0xB0B, 120);
}

#[test]
fn equivalent_at_n500_table1() {
    assert_equivalent(&table1_cfg(500, 0x5EED), 0x5EED, 40);
}

#[test]
fn equivalent_at_n10_sparse_ideal() {
    // A 2 km arena leaves 10 devices mutually out of range (vacuously
    // equivalent); 400 m keeps pruning real and decodes non-trivial.
    let mut cfg = sparse_ideal_cfg(10, 1);
    cfg.sim.area_width = Meters(400.0);
    cfg.sim.area_height = Meters(400.0);
    assert_equivalent(&cfg, 1, 300);
}

#[test]
fn equivalent_at_n100_sparse_ideal() {
    assert_equivalent(&sparse_ideal_cfg(100, 2), 2, 120);
}

#[test]
fn equivalent_at_n500_sparse_ideal() {
    let cfg = sparse_ideal_cfg(500, 3);
    // Sanity: this scenario must actually exercise pruning.
    let w = World::new(&cfg);
    assert!(
        w.spatial_grid().cell_count() > 100,
        "expected a fine grid, got {} cells",
        w.spatial_grid().cell_count()
    );
    assert_equivalent(&cfg, 3, 40);
}

#[test]
fn equivalent_at_n10_sparse_shadowed() {
    assert_equivalent(&sparse_shadowed_cfg(10, 7), 7, 300);
}

#[test]
fn equivalent_at_n100_sparse_shadowed() {
    assert_equivalent(&sparse_shadowed_cfg(100, 8), 8, 120);
}

#[test]
fn equivalent_at_n500_sparse_shadowed() {
    assert_equivalent(&sparse_shadowed_cfg(500, 9), 9, 40);
}

#[test]
fn empty_slots_are_equivalent_and_move_no_counter() {
    // Idle slots interleaved with busy ones: both resolvers early-out
    // on an empty transmission list — no decodes, no counter movement,
    // and the accumulator state carried across the idle gap stays
    // consistent. (The protocol engines skip idle slots entirely; this
    // pins the shortcut both rely on.)
    let cfg = table1_cfg(20, 5);
    let world = World::new(&cfg);
    let channel = world.reference_channel();
    let reference = Medium::default();
    let receivers: Vec<u32> = (0..20).collect();
    let mut fast = FastMedium::new(20);
    let mut ref_counters = Counters::new();
    let mut fast_counters = Counters::new();
    for slot in 0..60u64 {
        let txs = if slot % 3 == 0 {
            schedule(20, 5, slot)
        } else {
            Vec::new()
        };
        let transmissions: Vec<Transmission> = txs.iter().map(|&s| Transmission::new(s)).collect();
        let before = ref_counters;
        let reports = reference.resolve(
            &channel,
            Slot(slot),
            &transmissions,
            &receivers,
            &mut ref_counters,
        );
        assert_eq!(reports.len(), receivers.len());
        if txs.is_empty() {
            assert!(reports.iter().all(|r| r.decoded.is_empty()));
            assert_eq!(ref_counters, before, "idle slot moved a counter");
        }
        let mut expected: Vec<(u32, u32)> = Vec::new();
        for (rx, report) in receivers.iter().zip(&reports) {
            for sig in &report.decoded {
                expected.push((*rx, sig.sender));
            }
        }
        expected.sort_unstable();
        let mut got: Vec<(u32, u32)> = Vec::new();
        fast.resolve(
            &world,
            Slot(slot),
            &txs,
            None,
            &mut fast_counters,
            &mut NullSink,
            &mut NullRecorder,
            |rx, sig, _p, _| got.push((rx, sig.sender)),
        );
        got.sort_unstable();
        assert_eq!(got, expected, "decode reports diverged at slot {slot}");
        assert_eq!(
            fast_counters, ref_counters,
            "counters diverged at slot {slot}"
        );
    }
    assert!(ref_counters.rx_ok > 0, "vacuous run");
}

#[test]
fn half_duplex_transmitters_hear_nothing_in_both_media() {
    // Every device transmits: no decodes, identical counters.
    let cfg = table1_cfg(20, 4);
    let world = World::new(&cfg);
    let channel = world.reference_channel();
    let reference = Medium::default();
    let receivers: Vec<u32> = (0..20).collect();
    let txs: Vec<ProximitySignal> = (0..20)
        .map(|d| ProximitySignal {
            sender: d,
            service: ServiceClass::KEEP_ALIVE,
            kind: FrameKind::Fire {
                fragment: d,
                age: 0,
            },
        })
        .collect();
    let transmissions: Vec<Transmission> = txs.iter().map(|&s| Transmission::new(s)).collect();

    let mut ref_counters = Counters::new();
    let reports = reference.resolve(
        &channel,
        Slot(0),
        &transmissions,
        &receivers,
        &mut ref_counters,
    );
    assert!(reports.iter().all(|r| r.decoded.is_empty()));

    let mut fast = FastMedium::new(20);
    let mut fast_counters = Counters::new();
    fast.resolve(
        &world,
        Slot(0),
        &txs,
        None,
        &mut fast_counters,
        &mut NullSink,
        &mut NullRecorder,
        |_, _, _, _| panic!("transmitting devices must be deaf"),
    );
    assert_eq!(fast_counters, ref_counters);
}
