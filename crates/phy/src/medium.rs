//! Shared-medium delivery with collisions and capture.
//!
//! Per slot, the medium takes every transmission attempted in that slot
//! and decides, for every potential receiver, what decodes:
//!
//! * transmissions on **different codecs** never interfere (orthogonal
//!   RACH preambles, §III's OFDMA argument);
//! * within one codec, a receiver hearing **exactly one**
//!   above-threshold transmission decodes it;
//! * hearing **several**, the strongest decodes only if it beats the
//!   next strongest by at least the configured **capture margin**
//!   (physical capture effect); otherwise all collide;
//! * a transmitting device is deaf in its own slot (half-duplex) and
//!   never receives its own signal.
//!
//! The resolver also tallies [`Counters`] so experiments can attribute
//! losses (Fig. 4's message accounting and the collision ablations).

use ffd2d_sim::counters::Counters;
use ffd2d_sim::deployment::DeviceId;
use ffd2d_sim::time::Slot;
use serde::{Deserialize, Serialize};

use crate::codec::RachCodec;
use crate::frame::ProximitySignal;
use ffd2d_radio::channel::Channel;
use ffd2d_radio::units::Db;

/// One transmission attempt within a slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transmission {
    /// The signal on the air (sender, codec, payload).
    pub signal: ProximitySignal,
}

impl Transmission {
    /// Convenience constructor.
    pub fn new(signal: ProximitySignal) -> Transmission {
        Transmission { signal }
    }

    /// Transmitting device.
    #[inline]
    pub fn sender(&self) -> DeviceId {
        self.signal.sender
    }

    /// Codec in use.
    #[inline]
    pub fn codec(&self) -> RachCodec {
        self.signal.codec()
    }
}

/// What one receiver decoded in one slot.
#[derive(Debug, Clone, Default)]
pub struct DeliveryReport {
    /// Successfully decoded signals (at most one per codec).
    pub decoded: Vec<ProximitySignal>,
}

/// Medium configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MediumConfig {
    /// Capture margin: the strongest same-codec signal decodes if it
    /// exceeds the runner-up by at least this many dB.
    pub capture_margin: Db,
}

impl Default for MediumConfig {
    fn default() -> Self {
        MediumConfig {
            // 6 dB is a conventional preamble capture threshold.
            capture_margin: Db(6.0),
        }
    }
}

/// The per-slot shared-medium resolver: a serial, pair-at-a-time
/// oracle. Every `(transmission, receiver)` pair is sampled through the
/// full [`Channel`] stack, so the resolver is obviously correct rather
/// than fast; the core crate's spatial-grid `FastMedium` is checked
/// against it bit for bit.
#[derive(Debug, Clone)]
pub struct Medium {
    config: MediumConfig,
}

impl Default for Medium {
    fn default() -> Self {
        Medium::new(MediumConfig::default())
    }
}

impl Medium {
    /// A medium with the given configuration.
    pub fn new(config: MediumConfig) -> Medium {
        Medium { config }
    }

    /// Resolve one slot.
    ///
    /// `transmissions` are this slot's attempts; `receivers` is the set
    /// of listening devices (typically all devices). Returns one
    /// [`DeliveryReport`] per receiver, index-aligned with `receivers`,
    /// and tallies transmissions/receptions into `counters`.
    pub fn resolve(
        &self,
        channel: &Channel,
        slot: Slot,
        transmissions: &[Transmission],
        receivers: &[DeviceId],
        counters: &mut Counters,
    ) -> Vec<DeliveryReport> {
        let mut reports = vec![DeliveryReport::default(); receivers.len()];
        if transmissions.is_empty() {
            // Nothing on the air: every report is empty, no counter
            // moves and no channel sample is drawn (the fast resolver
            // in ffd2d-core has the same shortcut).
            return reports;
        }
        for tx in transmissions {
            match tx.codec() {
                RachCodec::Rach1 => counters.add_rach1_tx(1),
                RachCodec::Rach2 => counters.add_rach2_tx(1),
            }
        }
        let threshold = channel.config().detection_threshold;
        // Scratch: audible same-codec signals at the current receiver.
        let mut audible: Vec<(f64, &Transmission)> = Vec::new();
        for (&rx, report) in receivers.iter().zip(&mut reports) {
            if transmissions.iter().any(|tx| tx.sender() == rx) {
                // Half-duplex: a transmitting device hears nothing.
                continue;
            }
            for codec in RachCodec::ALL {
                audible.clear();
                for tx in transmissions.iter().filter(|tx| tx.codec() == codec) {
                    let rx_power = channel.rx_power(tx.sender(), rx, slot);
                    if rx_power >= threshold {
                        audible.push((rx_power.get(), tx));
                    } else {
                        counters.add_rx_below_threshold(1);
                    }
                }
                if audible.is_empty() {
                    continue;
                }
                // Capture check: strongest vs runner-up. `unwrap_or(Equal)`
                // is unreachable (powers are finite dBm, never NaN); the
                // stable sort keeps submission order among equal powers.
                audible.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(core::cmp::Ordering::Equal));
                let captured = audible.len() == 1
                    || audible[0].0 - audible[1].0 >= self.config.capture_margin.get();
                if captured {
                    counters.add_rx_ok(1);
                    counters.add_rx_collision((audible.len() - 1) as u64);
                    report.decoded.push(audible[0].1.signal);
                } else {
                    counters.add_rx_collision(audible.len() as u64);
                }
            }
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ServiceClass;
    use crate::frame::FrameKind;
    use ffd2d_radio::channel::ChannelConfig;
    use ffd2d_sim::deployment::{Deployment, Meters, Position};

    fn line_deployment(xs: &[f64]) -> Deployment {
        Deployment::from_positions(
            xs.iter().map(|&x| Position::new(x, 0.0)).collect(),
            Meters(1000.0),
            Meters(1000.0),
        )
    }

    fn fire(sender: u32) -> Transmission {
        Transmission::new(ProximitySignal {
            sender,
            service: ServiceClass::KEEP_ALIVE,
            kind: FrameKind::Fire {
                fragment: sender,
                age: 0,
            },
        })
    }

    fn hconnect(sender: u32, to: u32) -> Transmission {
        Transmission::new(ProximitySignal {
            sender,
            service: ServiceClass::KEEP_ALIVE,
            kind: FrameKind::HConnect {
                to,
                fragment: sender,
                fragment_size: 1,
                head: sender,
            },
        })
    }

    #[test]
    fn single_transmission_decodes_everywhere_in_range() {
        let dep = line_deployment(&[0.0, 10.0, 50.0, 500.0]);
        let ch = Channel::new(dep, ChannelConfig::ideal(), 1);
        let medium = Medium::default();
        let mut counters = Counters::new();
        let reports = medium.resolve(&ch, Slot(0), &[fire(0)], &[0, 1, 2, 3], &mut counters);
        assert!(reports[0].decoded.is_empty(), "sender hears nothing");
        assert_eq!(reports[1].decoded.len(), 1);
        assert_eq!(reports[2].decoded.len(), 1);
        assert!(reports[3].decoded.is_empty(), "out of range");
        assert_eq!(counters.rach1_tx, 1);
        assert_eq!(counters.rx_ok, 2);
        assert_eq!(counters.rx_below_threshold, 1);
    }

    #[test]
    fn equidistant_same_codec_transmitters_collide() {
        // Receiver 1 sits exactly between 0 and 2: equal power, margin 0.
        let dep = line_deployment(&[0.0, 20.0, 40.0]);
        let ch = Channel::new(dep, ChannelConfig::ideal(), 1);
        let medium = Medium::default();
        let mut counters = Counters::new();
        let reports = medium.resolve(&ch, Slot(0), &[fire(0), fire(2)], &[1], &mut counters);
        assert!(reports[0].decoded.is_empty());
        assert_eq!(counters.rx_collision, 2);
        assert_eq!(counters.rx_ok, 0);
    }

    #[test]
    fn capture_effect_rescues_strong_signal() {
        // Receiver at x=10: tx 0 at distance 10, tx 2 at distance 80 —
        // power gap far exceeds 6 dB, so 0 captures.
        let dep = line_deployment(&[0.0, 10.0, 90.0]);
        let ch = Channel::new(dep, ChannelConfig::ideal(), 1);
        let medium = Medium::default();
        let mut counters = Counters::new();
        let reports = medium.resolve(&ch, Slot(0), &[fire(0), fire(2)], &[1], &mut counters);
        assert_eq!(reports[0].decoded.len(), 1);
        assert_eq!(reports[0].decoded[0].sender, 0);
        assert_eq!(counters.rx_ok, 1);
        assert_eq!(counters.rx_collision, 1);
    }

    #[test]
    fn different_codecs_are_orthogonal() {
        // Same slot, same receiver: one RACH1 fire and one RACH2
        // handshake both decode.
        let dep = line_deployment(&[0.0, 20.0, 40.0]);
        let ch = Channel::new(dep, ChannelConfig::ideal(), 1);
        let medium = Medium::default();
        let mut counters = Counters::new();
        let reports = medium.resolve(
            &ch,
            Slot(0),
            &[fire(0), hconnect(2, 1)],
            &[1],
            &mut counters,
        );
        assert_eq!(reports[0].decoded.len(), 2);
        assert_eq!(counters.rach1_tx, 1);
        assert_eq!(counters.rach2_tx, 1);
        assert_eq!(counters.rx_ok, 2);
    }

    #[test]
    fn half_duplex_sender_misses_concurrent_signal() {
        let dep = line_deployment(&[0.0, 20.0]);
        let ch = Channel::new(dep, ChannelConfig::ideal(), 1);
        let medium = Medium::default();
        let mut counters = Counters::new();
        let reports = medium.resolve(&ch, Slot(0), &[fire(0), fire(1)], &[0, 1], &mut counters);
        assert!(reports[0].decoded.is_empty());
        assert!(reports[1].decoded.is_empty());
    }

    #[test]
    fn empty_slot_produces_empty_reports() {
        let dep = line_deployment(&[0.0, 20.0]);
        let ch = Channel::new(dep, ChannelConfig::ideal(), 1);
        let medium = Medium::default();
        let mut counters = Counters::new();
        let reports = medium.resolve(&ch, Slot(0), &[], &[0, 1], &mut counters);
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.decoded.is_empty()));
        assert_eq!(counters.total_tx(), 0);
    }

    #[test]
    fn reports_align_with_receiver_order() {
        let dep = line_deployment(&[0.0, 20.0, 40.0]);
        let ch = Channel::new(dep, ChannelConfig::ideal(), 1);
        let medium = Medium::default();
        let mut counters = Counters::new();
        let reports = medium.resolve(&ch, Slot(0), &[fire(1)], &[2, 0], &mut counters);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].decoded[0].sender, 1);
        assert_eq!(reports[1].decoded[0].sender, 1);
    }
}
