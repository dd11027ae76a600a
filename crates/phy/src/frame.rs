//! Proximity-signal frames.
//!
//! A proximity signal is physically a RACH preamble plus a small payload
//! (the paper's devices piggyback fragment/head information on their
//! PSs, as MEMFIS \[14\] multiplexes sync words with data). This module
//! defines the frame vocabulary of Algorithms 1–3; the engines hand
//! [`ProximitySignal`] values to the medium, never bytes.
//!
//! | Kind | Codec | Cast | Role |
//! |------|-------|------|------|
//! | `Fire` | RACH1 | broadcast | firefly pulse; doubles as discovery beacon (carries fragment id + service) |
//! | `DiscoveryReply` | RACH1 | unicast | FST-style pairwise discovery handshake |
//! | `Report` | RACH1 | unicast | convergecast of best outgoing edge toward the fragment head |
//! | `MergeCmd` | RACH1 | unicast | head's instruction down the tree to connect over a chosen edge |
//! | `HConnect` | RACH2 | broadcast | Algorithm 2 inter-fragment handshake request |
//! | `HAccept` | RACH2 | broadcast | Algorithm 2 handshake acknowledgement |
//! | `NewFragment` | RACH1 | unicast | flood of the merged fragment's identity down the tree |

use serde::{Deserialize, Serialize};

use crate::codec::{RachCodec, ServiceClass};

/// Device identifier on the air (matches `ffd2d_sim` device ids).
pub type DeviceId = u32;

/// Edge weight carried on the air: PS strength in milli-dBm.
pub type WeightMilliDbm = i32;

/// The protocol payload of a proximity signal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FrameKind {
    /// Firefly firing pulse / discovery beacon.
    Fire {
        /// Sender's current fragment id.
        fragment: DeviceId,
        /// Slots elapsed between the oscillator's firing instant and
        /// this (collision-staggered) transmission; receivers use it to
        /// compensate the PRC (MEMFIS-style timing offset).
        age: u8,
    },
    /// FST pairwise discovery response.
    DiscoveryReply {
        /// The device being answered.
        to: DeviceId,
    },
    /// Convergecast report of the subtree's best outgoing edge.
    Report {
        /// Unicast destination (tree parent).
        to: DeviceId,
        /// Best edge endpoint inside the fragment (`u32::MAX` = none).
        best_u: DeviceId,
        /// Best edge endpoint outside the fragment (`u32::MAX` = none).
        best_v: DeviceId,
        /// Weight of that edge.
        weight: WeightMilliDbm,
    },
    /// Head's instruction to connect across `(u, v)`.
    MergeCmd {
        /// Unicast destination (tree child, toward `u`).
        to: DeviceId,
        /// Fragment-internal endpoint of the merge edge.
        u: DeviceId,
        /// Fragment-external endpoint of the merge edge.
        v: DeviceId,
    },
    /// Algorithm 2: RACH2 handshake request from `u` toward `v`.
    HConnect {
        /// External endpoint being addressed.
        to: DeviceId,
        /// Sender's fragment id.
        fragment: DeviceId,
        /// Sender's fragment size (head selection needs it).
        fragment_size: u32,
        /// Sender's fragment head.
        head: DeviceId,
    },
    /// Algorithm 2: RACH2 handshake acknowledgement.
    HAccept {
        /// The requester being acknowledged.
        to: DeviceId,
        /// Responder's fragment id.
        fragment: DeviceId,
        /// Responder's fragment size.
        fragment_size: u32,
        /// Responder's fragment head.
        head: DeviceId,
    },
    /// Flood of the merged fragment identity.
    NewFragment {
        /// Unicast destination (tree neighbour).
        to: DeviceId,
        /// New fragment id.
        fragment: DeviceId,
        /// New fragment head.
        head: DeviceId,
    },
}

impl FrameKind {
    /// The codec this frame kind is transmitted on (§IV's RACH1/RACH2
    /// split).
    pub fn codec(&self) -> RachCodec {
        match self {
            FrameKind::HConnect { .. } | FrameKind::HAccept { .. } => RachCodec::Rach2,
            _ => RachCodec::Rach1,
        }
    }

    /// This kind's label in the trace-event vocabulary (the trace crate
    /// sits below the PHY in the dependency order, so the mapping lives
    /// here).
    pub fn trace_label(&self) -> ffd2d_trace::FrameLabel {
        match self {
            FrameKind::Fire { .. } => ffd2d_trace::FrameLabel::Fire,
            FrameKind::DiscoveryReply { .. } => ffd2d_trace::FrameLabel::DiscoveryReply,
            FrameKind::Report { .. } => ffd2d_trace::FrameLabel::Report,
            FrameKind::MergeCmd { .. } => ffd2d_trace::FrameLabel::MergeCmd,
            FrameKind::HConnect { .. } => ffd2d_trace::FrameLabel::HConnect,
            FrameKind::HAccept { .. } => ffd2d_trace::FrameLabel::HAccept,
            FrameKind::NewFragment { .. } => ffd2d_trace::FrameLabel::NewFragment,
        }
    }

    /// Unicast destination, if this kind is addressed.
    pub fn unicast_to(&self) -> Option<DeviceId> {
        match *self {
            FrameKind::Fire { .. } => None,
            FrameKind::DiscoveryReply { to }
            | FrameKind::Report { to, .. }
            | FrameKind::MergeCmd { to, .. }
            | FrameKind::HConnect { to, .. }
            | FrameKind::HAccept { to, .. }
            | FrameKind::NewFragment { to, .. } => Some(to),
        }
    }
}

/// A complete on-air proximity signal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProximitySignal {
    /// Transmitting device.
    pub sender: DeviceId,
    /// Advertised service interest.
    pub service: ServiceClass,
    /// Protocol payload.
    pub kind: FrameKind,
}

impl ProximitySignal {
    /// The codec this signal is transmitted on.
    pub fn codec(&self) -> RachCodec {
        self.kind.codec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<FrameKind> {
        vec![
            FrameKind::Fire {
                fragment: 7,
                age: 3,
            },
            FrameKind::DiscoveryReply { to: 3 },
            FrameKind::Report {
                to: 1,
                best_u: 2,
                best_v: 9,
                weight: -81_250,
            },
            FrameKind::MergeCmd { to: 4, u: 2, v: 9 },
            FrameKind::HConnect {
                to: 9,
                fragment: 7,
                fragment_size: 12,
                head: 0,
            },
            FrameKind::HAccept {
                to: 2,
                fragment: 5,
                fragment_size: 3,
                head: 5,
            },
            FrameKind::NewFragment {
                to: 8,
                fragment: 0,
                head: 0,
            },
        ]
    }

    #[test]
    fn codec_assignment_follows_section_iv() {
        for kind in all_kinds() {
            let expect = matches!(kind, FrameKind::HConnect { .. } | FrameKind::HAccept { .. });
            assert_eq!(kind.codec() == RachCodec::Rach2, expect, "{kind:?}");
        }
    }

    #[test]
    fn unicast_targets() {
        assert_eq!(
            FrameKind::Fire {
                fragment: 1,
                age: 0
            }
            .unicast_to(),
            None
        );
        assert_eq!(FrameKind::DiscoveryReply { to: 5 }.unicast_to(), Some(5));
        assert_eq!(
            FrameKind::MergeCmd { to: 9, u: 1, v: 2 }.unicast_to(),
            Some(9)
        );
    }
}
