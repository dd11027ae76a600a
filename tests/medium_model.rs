//! Analytic oracle for the medium (experiment E6).
//!
//! `tests/medium_equivalence.rs` proves that `FastMedium` agrees with
//! `ffd2d_phy::Medium` bit for bit, but both encode the same rules, so
//! that suite checks the optimisations, not the model. This file checks
//! the reference resolver against closed forms from the physics it is
//! meant to implement: Rayleigh fading with no shadowing (σ = 0), one
//! slot per independent trial (`coherence_slots = 1`, so every slot
//! draws a fresh Exp(1) power fade), fixed seeds. With `c = 10^(z/10)`
//! for capture margin `z`:
//!
//! * **Single link.** With a mean received power `m` dB above the
//!   −95 dBm threshold, the link decodes when its fade `X` satisfies
//!   `X ≥ t = 10^(−m/10)`, so P(decode) = exp(−t).
//! * **K equal-mean senders, far above threshold.** The strongest
//!   decodes iff `X₍₁₎ ≥ c·X₍₂₎`. Given the runner-up `X₍₂₎ = y`,
//!   memorylessness makes `X₍₁₎ − y` an Exp(1) draw, so
//!   P(decode | y) = exp(−(c−1)·y). Rényi's representation writes the
//!   runner-up of K Exp(1) draws as `Σ_{j=2..K} E_j / j` with
//!   independent `E_j ~ Exp(1)`, hence
//!   P(decode) = `∏_{j=2..K} j / (j + c − 1)` (K = 2: `2 / (c + 1)`).
//! * **Two senders whose means differ by a factor `a`.** The stronger
//!   decodes with P(`a·E₁ ≥ c·E₂`) = `a / (a + c)`, the weaker with
//!   P(`E₂ ≥ c·a·E₁`) = `1 / (1 + a·c)`.
//! * **Two equal senders at the threshold's edge.** A signal below the
//!   threshold neither decodes nor interferes, so P(decode) =
//!   P(exactly one audible) + P(both audible and captured) =
//!   `2e^(−t)(1 − e^(−t)) + e^(−2t)·e^(−(c−1)t)·2/(c + 1)`, the last
//!   factor by the same memorylessness argument applied above `t`.
//!
//! Every tolerance is five binomial standard errors of the closed form
//! at the trial count used. If a check fails, re-derive the closed form
//! before touching the medium; never widen a tolerance.

use ffd2d_phy::codec::ServiceClass;
use ffd2d_phy::frame::{FrameKind, ProximitySignal};
use ffd2d_phy::medium::{Medium, MediumConfig, Transmission};
use ffd2d_radio::channel::{Channel, ChannelConfig};
use ffd2d_radio::fading::FadingModel;
use ffd2d_radio::units::Db;
use ffd2d_sim::counters::Counters;
use ffd2d_sim::deployment::{Deployment, DeviceId, Meters, Position};
use ffd2d_sim::time::Slot;

/// Consecutive slots resolved per check.
const TRIALS: u64 = 200_000;

/// The medium's default capture margin, in dB.
const CAPTURE_DB: f64 = 6.0;

/// Mean power over threshold that makes sub-threshold fades negligible
/// (P ≈ 10⁻⁴ per sender, and such a signal is the weakest, never the
/// runner-up the capture rule reads); about 8.9 m under Table I.
const FAR_ABOVE_DB: f64 = 40.0;

/// Table I's radio with shadowing off and Rayleigh block fading.
fn rayleigh(coherence_slots: u64) -> ChannelConfig {
    ChannelConfig::default()
        .with_shadowing(0.0)
        .with_fading(FadingModel::Rayleigh { coherence_slots })
}

/// Device 0 is a receiver at the centre of a 1 km square. Sender `i + 1`
/// sits, at evenly spaced angles, where path loss leaves its mean
/// power `above_db[i]` dB over the detection threshold.
fn ring(cfg: &ChannelConfig, above_db: &[f64]) -> Deployment {
    let centre = 500.0;
    let mut positions = vec![Position::new(centre, centre)];
    positions.extend(above_db.iter().enumerate().map(|(i, &m)| {
        let r = cfg.pathloss.invert(Db(cfg.budget().get() - m)).get();
        let angle = std::f64::consts::TAU * i as f64 / above_db.len() as f64;
        Position::new(centre + r * angle.cos(), centre + r * angle.sin())
    }));
    Deployment::from_positions(positions, Meters(1000.0), Meters(1000.0))
}

/// The mean power of `sender` at receiver 0, in dB over threshold.
fn mean_above(channel: &Channel<'_>, sender: DeviceId) -> f64 {
    channel.mean_rx_power(sender, 0).get() - channel.config().detection_threshold.get()
}

fn fire(sender: DeviceId) -> Transmission {
    Transmission::new(ProximitySignal {
        sender,
        service: ServiceClass::KEEP_ALIVE,
        kind: FrameKind::Fire {
            fragment: sender,
            age: 0,
        },
    })
}

/// A RACH1 fire from every sender of `channel`'s deployment.
fn every_sender_fires(channel: &Channel<'_>) -> Vec<Transmission> {
    (1..channel.deployment().len() as DeviceId)
        .map(fire)
        .collect()
}

/// Resolve `TRIALS` consecutive slots in which all of `txs` go on the
/// air, handing each slot's decodes at receiver 0 to `seen`.
fn each_slot(
    channel: &Channel<'_>,
    capture_db: f64,
    txs: &[Transmission],
    mut seen: impl FnMut(u64, &[ProximitySignal]),
) {
    let medium = Medium::new(MediumConfig {
        capture_margin: Db(capture_db),
    });
    let mut counters = Counters::new();
    let mut decoded = 0u64;
    for slot in 0..TRIALS {
        let reports = medium.resolve(channel, Slot(slot), txs, &[0], &mut counters);
        decoded += reports[0].decoded.len() as u64;
        seen(slot, &reports[0].decoded);
    }
    // Every reception attempt is decoded, collided or below threshold.
    assert_eq!(counters.rx_ok, decoded);
    assert_eq!(
        counters.rx_ok + counters.rx_collision + counters.rx_below_threshold,
        TRIALS * txs.len() as u64
    );
}

/// Fraction of `TRIALS` slots in which receiver 0 decodes a signal
/// while every sender fires on RACH1.
fn success_rate(channel: &Channel<'_>, capture_db: f64) -> f64 {
    let mut hits = 0u64;
    each_slot(channel, capture_db, &every_sender_fires(channel), |_, d| {
        hits += d.len() as u64;
    });
    hits as f64 / TRIALS as f64
}

/// Assert that `measured`, a rate over `n` independent trials, lies
/// within five binomial standard errors of `expected`.
fn assert_within_5_sigma(what: &str, measured: f64, n: u64, expected: f64) {
    let tol = 5.0 * (expected * (1.0 - expected) / n as f64).sqrt();
    eprintln!("{what}: measured {measured:.4}, closed form {expected:.4}, 5σ = {tol:.4}");
    assert!(
        (measured - expected).abs() <= tol,
        "{what}: measured {measured:.4} vs closed form {expected:.4} (5σ = {tol:.4})"
    );
}

#[test]
fn single_rayleigh_link_decodes_with_probability_exp_minus_inverse_snr() {
    let cfg = rayleigh(1);
    for (i, m_target) in [-3.0f64, 0.0, 3.0, 10.0].into_iter().enumerate() {
        let dep = ring(&cfg, &[m_target]);
        let channel = Channel::new(&dep, cfg.clone(), 0xE6_0A00 + i as u64);
        let m = mean_above(&channel, 1);
        assert!(
            (m - m_target).abs() < 1e-6,
            "placed at {m} dB, wanted {m_target}"
        );
        let expected = (-(10f64.powf(-m / 10.0))).exp();
        let what = format!("single link, m = {m_target:+} dB");
        assert_within_5_sigma(&what, success_rate(&channel, CAPTURE_DB), TRIALS, expected);
    }
}

#[test]
fn equal_mean_senders_capture_as_renyi_predicts() {
    let cfg = rayleigh(1);
    let c = 10f64.powf(CAPTURE_DB / 10.0);
    for k in [2usize, 3, 5, 10] {
        let dep = ring(&cfg, &vec![FAR_ABOVE_DB; k]);
        let channel = Channel::new(&dep, cfg.clone(), 0xE6_0B00 + k as u64);
        for s in 1..=k as DeviceId {
            assert!((mean_above(&channel, s) - FAR_ABOVE_DB).abs() < 1e-6);
        }
        let expected: f64 = (2..=k).map(|j| j as f64 / (j as f64 + c - 1.0)).product();
        let what = format!("K = {k} equal-mean senders");
        assert_within_5_sigma(&what, success_rate(&channel, CAPTURE_DB), TRIALS, expected);
    }
}

#[test]
fn two_sender_capture_rate_follows_the_margin() {
    let cfg = rayleigh(1);
    let dep = ring(&cfg, &[FAR_ABOVE_DB; 2]);
    let channel = Channel::new(&dep, cfg, 0xE6_0C00);
    for z in [1.0f64, 3.0, 10.0] {
        let c = 10f64.powf(z / 10.0);
        let what = format!("K = 2, z = {z} dB");
        assert_within_5_sigma(&what, success_rate(&channel, z), TRIALS, 2.0 / (c + 1.0));
    }
}

#[test]
fn stronger_of_two_senders_captures_in_proportion_to_its_mean() {
    let cfg = rayleigh(1);
    let c = 10f64.powf(CAPTURE_DB / 10.0);
    for delta in [3.0f64, 10.0] {
        let dep = ring(&cfg, &[FAR_ABOVE_DB, FAR_ABOVE_DB - delta]);
        let channel = Channel::new(&dep, cfg.clone(), 0xE6_0D00 + delta as u64);
        let a = 10f64.powf((mean_above(&channel, 1) - mean_above(&channel, 2)) / 10.0);
        let mut by_sender = [0u64; 3];
        each_slot(
            &channel,
            CAPTURE_DB,
            &every_sender_fires(&channel),
            |_, d| {
                for sig in d {
                    by_sender[sig.sender as usize] += 1;
                }
            },
        );
        let rate = |s: usize| by_sender[s] as f64 / TRIALS as f64;
        let what = format!("Δ = {delta} dB, stronger decodes");
        assert_within_5_sigma(&what, rate(1), TRIALS, a / (a + c));
        let what = format!("Δ = {delta} dB, weaker decodes");
        assert_within_5_sigma(&what, rate(2), TRIALS, 1.0 / (1.0 + a * c));
    }
}

#[test]
fn sub_threshold_signals_neither_decode_nor_interfere() {
    let cfg = rayleigh(1);
    let c = 10f64.powf(CAPTURE_DB / 10.0);
    let dep = ring(&cfg, &[0.0, 0.0]);
    let channel = Channel::new(&dep, cfg, 0xE6_0E00);
    let t = 10f64.powf(-mean_above(&channel, 1) / 10.0);
    let p = (-t).exp();
    let exactly_one = 2.0 * p * (1.0 - p);
    let both_and_captured = p * p * (-(c - 1.0) * t).exp() * 2.0 / (c + 1.0);
    let what = "K = 2 at m = 0 dB";
    let expected = exactly_one + both_and_captured;
    assert_within_5_sigma(what, success_rate(&channel, CAPTURE_DB), TRIALS, expected);
}

#[test]
fn the_two_codecs_decode_independently() {
    // One RACH1 fire and one RACH2 handshake, each at the threshold in
    // the mean: orthogonal codecs and independent link fades make the
    // joint decode rate the product of the per-codec rates.
    let cfg = rayleigh(1);
    let dep = ring(&cfg, &[0.0, 0.0]);
    let channel = Channel::new(&dep, cfg, 0xE6_0F00);
    let p = (-(10f64.powf(-mean_above(&channel, 1) / 10.0))).exp();
    let handshake = Transmission::new(ProximitySignal {
        sender: 2,
        service: ServiceClass::KEEP_ALIVE,
        kind: FrameKind::HConnect {
            to: 0,
            fragment: 2,
            fragment_size: 1,
            head: 2,
        },
    });
    let (mut rach1, mut rach2, mut both) = (0u64, 0u64, 0u64);
    each_slot(&channel, CAPTURE_DB, &[fire(1), handshake], |_, d| {
        rach1 += d.iter().filter(|s| s.sender == 1).count() as u64;
        rach2 += d.iter().filter(|s| s.sender == 2).count() as u64;
        both += u64::from(d.len() == 2);
    });
    let rate = |hits: u64| hits as f64 / TRIALS as f64;
    assert_within_5_sigma("RACH1 alongside RACH2", rate(rach1), TRIALS, p);
    assert_within_5_sigma("RACH2 alongside RACH1", rate(rach2), TRIALS, p);
    assert_within_5_sigma("both codecs", rate(both), TRIALS, p * p);
}

#[test]
fn outcomes_are_fresh_per_slot_and_frozen_per_coherence_block() {
    let c = 10f64.powf(CAPTURE_DB / 10.0);
    let p = 2.0 / (c + 1.0);
    // Coherence 1: the decode outcomes of slots 2i and 2i + 1 are
    // independent, so both succeed with probability p².
    let cfg = rayleigh(1);
    let dep = ring(&cfg, &[FAR_ABOVE_DB; 2]);
    let channel = Channel::new(&dep, cfg, 0xE6_1000);
    let mut last = false;
    let mut pairs = 0u64;
    each_slot(
        &channel,
        CAPTURE_DB,
        &every_sender_fires(&channel),
        |slot, d| {
            pairs += u64::from(slot % 2 == 1 && last && !d.is_empty());
            last = !d.is_empty();
        },
    );
    let what = "consecutive slots, coherence 1";
    assert_within_5_sigma(what, pairs as f64 / (TRIALS / 2) as f64, TRIALS / 2, p * p);

    // Coherence 20 (Table I): every slot of a block repeats the block's
    // outcome exactly, and the per-block rate is p.
    let block = 20;
    let cfg = rayleigh(block);
    let channel = Channel::new(&dep, cfg, 0xE6_1000);
    let mut first: Vec<DeviceId> = Vec::new();
    let mut blocks_decoded = 0u64;
    each_slot(
        &channel,
        CAPTURE_DB,
        &every_sender_fires(&channel),
        |slot, d| {
            let senders: Vec<DeviceId> = d.iter().map(|s| s.sender).collect();
            if slot % block == 0 {
                blocks_decoded += u64::from(!senders.is_empty());
                first = senders;
            } else {
                assert_eq!(senders, first, "slot {slot} left its block's outcome");
            }
        },
    );
    let blocks = TRIALS / block;
    let what = "per block, coherence 20";
    assert_within_5_sigma(what, blocks_decoded as f64 / blocks as f64, blocks, p);
}
