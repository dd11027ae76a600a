//! The per-trial channel facade.
//!
//! [`Channel`] composes the three propagation layers —
//! deterministic path loss, per-link shadowing and per-block fast
//! fading — over a fixed [`Deployment`], and answers the questions every
//! protocol engine asks:
//!
//! * *What power does B receive when A transmits in slot t?*
//!   ([`Channel::rx_power`], eq. (9): `p*** = p** + x` plus fading)
//! * *Can B hear A at all?* ([`Channel::is_audible`], Table I's −95 dBm
//!   detection threshold)
//! * *What is the long-term proximity-signal strength of the link?*
//!   ([`Channel::mean_rx_power`] — path loss + shadowing, fading
//!   averaged out) — this is the **edge weight** of the spanning-tree
//!   algorithms ("weight of edge is directly proportional to PS
//!   strength", §IV).

use serde::{Deserialize, Serialize};

use crate::fading::FadingModel;
use crate::pathloss::PathLoss;
use crate::shadowing::ShadowingField;
use crate::units::{Db, Dbm};
use ffd2d_sim::deployment::{Deployment, DeviceId, Meters};
use ffd2d_sim::time::Slot;

/// Radio parameters of a scenario (the radio rows of Table I).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChannelConfig {
    /// Transmit power of every device (Table I: 23 dBm).
    pub tx_power: Dbm,
    /// Detection threshold (Table I: −95 dBm).
    pub detection_threshold: Dbm,
    /// Path-loss model (Table I piecewise by default).
    pub pathloss: PathLoss,
    /// Shadowing standard deviation in dB (Table I: 10 dB).
    pub shadowing_sigma_db: f64,
    /// Fast-fading model (Table I: UMi NLOS → Rayleigh block fading).
    pub fading: FadingModel,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            tx_power: Dbm(23.0),
            detection_threshold: Dbm(-95.0),
            pathloss: PathLoss::PaperPiecewise,
            shadowing_sigma_db: 10.0,
            fading: FadingModel::umi_nlos(),
        }
    }
}

impl ChannelConfig {
    /// An idealised channel: path loss only — used by unit tests and by
    /// the complexity benches where radio noise would obscure scaling.
    pub fn ideal() -> Self {
        ChannelConfig {
            shadowing_sigma_db: 0.0,
            fading: FadingModel::None,
            ..Self::default()
        }
    }

    /// Builder-style shadowing override.
    pub fn with_shadowing(mut self, sigma_db: f64) -> Self {
        self.shadowing_sigma_db = sigma_db;
        self
    }

    /// Builder-style fading override.
    pub fn with_fading(mut self, fading: FadingModel) -> Self {
        self.fading = fading;
        self
    }

    /// The link budget `tx − threshold` available to close a link.
    pub fn budget(&self) -> Db {
        self.tx_power - self.detection_threshold
    }

    /// Nominal maximum range (no shadowing/fading margin).
    pub fn nominal_range(&self) -> Meters {
        self.pathloss.max_range(self.budget())
    }

    /// Worst-case fading headroom in dB: the largest gain the fading
    /// model can ever produce ([`FadingModel::max_gain_db`]).
    pub fn fade_headroom_db(&self) -> f64 {
        self.fading.max_gain_db()
    }

    /// Worst-case shadowing boost in dB: σ times the largest magnitude
    /// the shadowing generator can emit.
    pub fn max_shadowing_boost_db(&self) -> f64 {
        self.shadowing_sigma_db * crate::shadowing::max_abs_standard_normal()
    }

    /// The audibility radius implied by the noise floor: the maximum
    /// distance at which *any* shadowing/fading realisation can lift the
    /// received power to the detection threshold. Pairs farther apart
    /// are provably inaudible for every seed — this is the spatial-grid
    /// pruning radius, and the reason grid pruning is bit-identical to a
    /// dense scan rather than a truncation.
    pub fn max_audible_range(&self) -> Meters {
        let slack = self.max_shadowing_boost_db() + self.fade_headroom_db();
        self.pathloss.max_range(Db(self.budget().0 + slack))
    }

    /// The maximum distance at which the *long-term mean* power (path
    /// loss + shadowing, fading averaged out) can reach the detection
    /// threshold — the candidate radius for §IV proximity-graph edges.
    pub fn max_mean_link_range(&self) -> Meters {
        self.pathloss
            .max_range(Db(self.budget().0 + self.max_shadowing_boost_db()))
    }
}

/// Batched mean-gain kernel: append to `out` the long-term mean
/// received power (path loss + shadowing) in dBm from `sender` to each
/// id in `receivers`, in order — one pass over positions instead of
/// pair-at-a-time facade calls. Element `j` is bit-identical to
/// [`Channel::mean_rx_power`]`(sender, receivers[j])` for a channel
/// built from the same deployment, config and shadowing field: the
/// expression and evaluation order are exactly the facade's. A
/// self-pair yields `NEG_INFINITY` — no device hears itself; callers'
/// half-duplex masking never reads the entry, the sentinel just keeps
/// threshold pruning conservative if one leaks through.
///
/// The core `World`'s batch fill delegates here, so every consumer of
/// cached mean gains shares one code path.
pub fn fill_mean_rx_dbm(
    deployment: &Deployment,
    tx_power: Dbm,
    pathloss: PathLoss,
    shadowing: &ShadowingField,
    sender: DeviceId,
    receivers: &[DeviceId],
    out: &mut Vec<f64>,
) {
    out.reserve(receivers.len());
    for &r in receivers {
        if r == sender {
            out.push(f64::NEG_INFINITY);
            continue;
        }
        let d = deployment.distance(sender, r);
        out.push((tx_power - pathloss.loss(d) + shadowing.sample(sender, r)).get());
    }
}

/// One sampled reception.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSample {
    /// Received power after all impairments.
    pub rx_power: Dbm,
    /// Whether it clears the detection threshold.
    pub detected: bool,
}

/// The composed channel for one trial.
///
/// Borrows the deployment: positions are fixed for the trial (static
/// devices, as in the paper's evaluation).
#[derive(Debug, Clone)]
pub struct Channel<'a> {
    deployment: &'a Deployment,
    config: ChannelConfig,
    shadowing: ShadowingField,
    fading_seed: u64,
}

impl<'a> Channel<'a> {
    /// Build the channel for `deployment` keyed by `seed`.
    pub fn new(deployment: &'a Deployment, config: ChannelConfig, seed: u64) -> Self {
        // ffd2d-lint: allow(rng-discipline) — domain-separation tags splitting the channel seed into the shadowing and fading field keys; World::new mirrors these byte for byte (see crates/core/src/world.rs)
        let shadowing = ShadowingField::new(seed ^ 0x5AD0, config.shadowing_sigma_db);
        Channel {
            deployment,
            config,
            shadowing,
            fading_seed: seed ^ 0xFAD0, // ffd2d-lint: allow(rng-discipline) — same split as the shadowing tag above
        }
    }

    /// The radio configuration in force.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// The deployment this channel is bound to.
    pub fn deployment(&self) -> &Deployment {
        self.deployment
    }

    /// Long-term received power on link `a → b`: path loss plus
    /// shadowing, fast fading averaged out (unit mean). This is the
    /// proximity-signal strength used as spanning-tree edge weight.
    pub fn mean_rx_power(&self, a: DeviceId, b: DeviceId) -> Dbm {
        let d = self.deployment.distance(a, b);
        self.config.tx_power - self.config.pathloss.loss(d) + self.shadowing.sample(a, b)
    }

    /// Instantaneous received power on link `a → b` at `slot`
    /// (eq. (9) plus block fading).
    pub fn rx_power(&self, a: DeviceId, b: DeviceId, slot: Slot) -> Dbm {
        self.mean_rx_power(a, b) + self.config.fading.gain(self.fading_seed, a, b, slot)
    }

    /// Sample a reception attempt on `a → b` at `slot`.
    pub fn sample(&self, a: DeviceId, b: DeviceId, slot: Slot) -> LinkSample {
        let rx_power = self.rx_power(a, b, slot);
        LinkSample {
            rx_power,
            detected: rx_power >= self.config.detection_threshold,
        }
    }

    /// True if `b` can decode `a`'s transmission at `slot`.
    pub fn is_audible(&self, a: DeviceId, b: DeviceId, slot: Slot) -> bool {
        self.sample(a, b, slot).detected
    }

    /// True if the *long-term* link closes (mean power above threshold)
    /// — the criterion used to define graph edges in §IV.
    pub fn link_exists(&self, a: DeviceId, b: DeviceId) -> bool {
        a != b && self.mean_rx_power(a, b) >= self.config.detection_threshold
    }

    /// All devices with a long-term link to `of`, with their mean PS
    /// strengths, strongest first.
    pub fn audible_neighbors(&self, of: DeviceId) -> Vec<(DeviceId, Dbm)> {
        let n = self.deployment.len() as DeviceId;
        let mut out: Vec<(DeviceId, Dbm)> = (0..n)
            .filter(|&b| b != of)
            .map(|b| (b, self.mean_rx_power(of, b)))
            .filter(|&(_, p)| p >= self.config.detection_threshold)
            .collect();
        out.sort_by(|x, y| y.1.partial_cmp(&x.1).expect("power is never NaN"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffd2d_sim::deployment::Position;

    fn two_devices(d: f64) -> Deployment {
        Deployment::from_positions(
            vec![Position::new(0.0, 0.0), Position::new(d, 0.0)],
            Meters(200.0),
            Meters(200.0),
        )
    }

    #[test]
    fn ideal_channel_is_pure_path_loss() {
        let dep = two_devices(10.0);
        let ch = Channel::new(&dep, ChannelConfig::ideal(), 1);
        let expected = Dbm(23.0) - PathLoss::PaperPiecewise.loss(Meters(10.0));
        assert_eq!(ch.rx_power(0, 1, Slot(0)), expected);
        assert_eq!(ch.mean_rx_power(0, 1), expected);
    }

    #[test]
    fn table1_default_budget_and_range() {
        let cfg = ChannelConfig::default();
        assert!((cfg.budget().0 - 118.0).abs() < 1e-12);
        assert!((cfg.nominal_range().0 - 89.125).abs() < 0.05);
    }

    #[test]
    fn close_link_is_audible_far_link_is_not() {
        let near = two_devices(5.0);
        let ch = Channel::new(&near, ChannelConfig::ideal(), 1);
        assert!(ch.is_audible(0, 1, Slot(0)));
        assert!(ch.link_exists(0, 1));

        let far = two_devices(150.0);
        let ch = Channel::new(&far, ChannelConfig::ideal(), 1);
        assert!(!ch.is_audible(0, 1, Slot(0)));
        assert!(!ch.link_exists(0, 1));
    }

    #[test]
    fn channel_is_reciprocal() {
        let dep = two_devices(42.0);
        let ch = Channel::new(&dep, ChannelConfig::default(), 7);
        assert_eq!(ch.rx_power(0, 1, Slot(9)), ch.rx_power(1, 0, Slot(9)));
        assert_eq!(ch.mean_rx_power(0, 1), ch.mean_rx_power(1, 0));
    }

    #[test]
    fn fading_fluctuates_but_mean_does_not() {
        let dep = two_devices(30.0);
        let ch = Channel::new(&dep, ChannelConfig::default(), 7);
        let m0 = ch.mean_rx_power(0, 1);
        let mut distinct = std::collections::HashSet::new();
        for s in (0..2000).step_by(20) {
            distinct.insert(ch.rx_power(0, 1, Slot(s)).0.to_bits());
            assert_eq!(ch.mean_rx_power(0, 1), m0);
        }
        assert!(distinct.len() > 50, "fading should vary across blocks");
    }

    #[test]
    fn audible_neighbors_sorted_strongest_first() {
        let dep = Deployment::from_positions(
            vec![
                Position::new(0.0, 0.0),
                Position::new(10.0, 0.0),
                Position::new(30.0, 0.0),
                Position::new(80.0, 0.0),
                Position::new(300.0, 0.0), // out of range
            ],
            Meters(400.0),
            Meters(400.0),
        );
        let ch = Channel::new(&dep, ChannelConfig::ideal(), 1);
        let nbrs = ch.audible_neighbors(0);
        let ids: Vec<DeviceId> = nbrs.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert!(nbrs[0].1 > nbrs[1].1 && nbrs[1].1 > nbrs[2].1);
    }

    #[test]
    fn no_self_links() {
        let dep = two_devices(5.0);
        let ch = Channel::new(&dep, ChannelConfig::ideal(), 1);
        assert!(!ch.link_exists(0, 0));
    }

    #[test]
    fn deterministic_per_seed() {
        let dep = two_devices(25.0);
        let a = Channel::new(&dep, ChannelConfig::default(), 5).rx_power(0, 1, Slot(3));
        let b = Channel::new(&dep, ChannelConfig::default(), 5).rx_power(0, 1, Slot(3));
        let c = Channel::new(&dep, ChannelConfig::default(), 6).rx_power(0, 1, Slot(3));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn worst_case_ranges_dominate_every_realisation() {
        // Ideal channel: no slack, the audible range IS the nominal one.
        let ideal = ChannelConfig::ideal();
        assert_eq!(ideal.fade_headroom_db(), 0.0);
        assert_eq!(ideal.max_shadowing_boost_db(), 0.0);
        assert_eq!(ideal.max_audible_range().0, ideal.nominal_range().0);
        assert_eq!(ideal.max_mean_link_range().0, ideal.nominal_range().0);

        // Table-I channel: every sampled power at a distance beyond the
        // worst-case audible range must sit below the threshold.
        let cfg = ChannelConfig::default();
        let r = cfg.max_audible_range().0;
        assert!(r > cfg.nominal_range().0);
        let dep = two_devices(r + 1.0);
        for seed in 0..50u64 {
            let ch = Channel::new(&dep, cfg.clone(), seed);
            for s in 0..40 {
                assert!(
                    ch.rx_power(0, 1, Slot(s)) < cfg.detection_threshold,
                    "audible beyond the provable radius (seed {seed})"
                );
            }
            assert!(ch.mean_rx_power(0, 1) < cfg.detection_threshold);
        }
    }

    #[test]
    fn batched_means_match_the_facade_bit_for_bit() {
        let dep = Deployment::from_positions(
            (0..12)
                .map(|i| Position::new((i * 13 % 90) as f64, (i * 29 % 70) as f64))
                .collect(),
            Meters(200.0),
            Meters(200.0),
        );
        for cfg in [ChannelConfig::default(), ChannelConfig::ideal()] {
            let ch = Channel::new(&dep, cfg, 42);
            let receivers: Vec<DeviceId> = (0..12).collect();
            for sender in 0..12u32 {
                let mut batch = Vec::new();
                fill_mean_rx_dbm(
                    &dep,
                    ch.config.tx_power,
                    ch.config.pathloss,
                    &ch.shadowing,
                    sender,
                    &receivers,
                    &mut batch,
                );
                assert_eq!(batch.len(), receivers.len());
                for (&r, &m) in receivers.iter().zip(&batch) {
                    if r == sender {
                        assert_eq!(m, f64::NEG_INFINITY, "self-pair sentinel");
                    } else {
                        assert_eq!(
                            m.to_bits(),
                            ch.mean_rx_power(sender, r).get().to_bits(),
                            "link {sender}->{r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shadowing_moves_the_mean() {
        let dep = two_devices(25.0);
        let ideal = Channel::new(&dep, ChannelConfig::ideal(), 5).mean_rx_power(0, 1);
        let shadowed = Channel::new(&dep, ChannelConfig::default(), 5).mean_rx_power(0, 1);
        assert_ne!(ideal, shadowed);
    }
}
