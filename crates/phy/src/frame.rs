//! Proximity-signal frames.
//!
//! A proximity signal is physically a RACH preamble plus a small payload
//! (the paper's devices piggyback fragment/head information on their
//! PSs, as MEMFIS \[14\] multiplexes sync words with data). This module
//! defines the frame vocabulary of Algorithms 1–3 and a compact wire
//! format over [`bytes`] so frames can be serialised exactly as a real
//! implementation would put them on the air.
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

use bytes::{Buf, BufMut, Bytes, BytesMut};
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

    fn tag(&self) -> u8 {
        match self {
            FrameKind::Fire { .. } => 0,
            FrameKind::DiscoveryReply { .. } => 1,
            FrameKind::Report { .. } => 2,
            FrameKind::MergeCmd { .. } => 3,
            FrameKind::HConnect { .. } => 4,
            FrameKind::HAccept { .. } => 5,
            FrameKind::NewFragment { .. } => 6,
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

/// Errors raised while decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the fixed header.
    Truncated,
    /// Unknown frame-kind tag.
    BadTag(u8),
    /// Service class outside the preamble index space.
    BadService(u8),
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadTag(t) => write!(f, "unknown frame tag {t}"),
            FrameError::BadService(s) => write!(f, "service class {s} out of range"),
        }
    }
}

impl std::error::Error for FrameError {}

impl ProximitySignal {
    /// The codec this signal is transmitted on.
    pub fn codec(&self) -> RachCodec {
        self.kind.codec()
    }

    /// Serialise to the wire format.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(28);
        b.put_u32_le(self.sender);
        b.put_u8(self.service.0);
        b.put_u8(self.kind.tag());
        match self.kind {
            FrameKind::Fire { fragment, age } => {
                b.put_u32_le(fragment);
                b.put_u8(age);
            }
            FrameKind::DiscoveryReply { to } => b.put_u32_le(to),
            FrameKind::Report {
                to,
                best_u,
                best_v,
                weight,
            } => {
                b.put_u32_le(to);
                b.put_u32_le(best_u);
                b.put_u32_le(best_v);
                b.put_i32_le(weight);
            }
            FrameKind::MergeCmd { to, u, v } => {
                b.put_u32_le(to);
                b.put_u32_le(u);
                b.put_u32_le(v);
            }
            FrameKind::HConnect {
                to,
                fragment,
                fragment_size,
                head,
            }
            | FrameKind::HAccept {
                to,
                fragment,
                fragment_size,
                head,
            } => {
                b.put_u32_le(to);
                b.put_u32_le(fragment);
                b.put_u32_le(fragment_size);
                b.put_u32_le(head);
            }
            FrameKind::NewFragment { to, fragment, head } => {
                b.put_u32_le(to);
                b.put_u32_le(fragment);
                b.put_u32_le(head);
            }
        }
        b.freeze()
    }

    /// Deserialise from the wire format.
    pub fn decode(mut buf: Bytes) -> Result<ProximitySignal, FrameError> {
        if buf.remaining() < 6 {
            return Err(FrameError::Truncated);
        }
        let sender = buf.get_u32_le();
        let service_raw = buf.get_u8();
        if service_raw >= ServiceClass::COUNT {
            return Err(FrameError::BadService(service_raw));
        }
        let service = ServiceClass(service_raw);
        let tag = buf.get_u8();
        let need = |buf: &Bytes, n: usize| {
            if buf.remaining() < n {
                Err(FrameError::Truncated)
            } else {
                Ok(())
            }
        };
        let kind = match tag {
            0 => {
                need(&buf, 5)?;
                FrameKind::Fire {
                    fragment: buf.get_u32_le(),
                    age: buf.get_u8(),
                }
            }
            1 => {
                need(&buf, 4)?;
                FrameKind::DiscoveryReply {
                    to: buf.get_u32_le(),
                }
            }
            2 => {
                need(&buf, 16)?;
                FrameKind::Report {
                    to: buf.get_u32_le(),
                    best_u: buf.get_u32_le(),
                    best_v: buf.get_u32_le(),
                    weight: buf.get_i32_le(),
                }
            }
            3 => {
                need(&buf, 12)?;
                FrameKind::MergeCmd {
                    to: buf.get_u32_le(),
                    u: buf.get_u32_le(),
                    v: buf.get_u32_le(),
                }
            }
            4 | 5 => {
                need(&buf, 16)?;
                let (to, fragment, fragment_size, head) = (
                    buf.get_u32_le(),
                    buf.get_u32_le(),
                    buf.get_u32_le(),
                    buf.get_u32_le(),
                );
                if tag == 4 {
                    FrameKind::HConnect {
                        to,
                        fragment,
                        fragment_size,
                        head,
                    }
                } else {
                    FrameKind::HAccept {
                        to,
                        fragment,
                        fragment_size,
                        head,
                    }
                }
            }
            6 => {
                need(&buf, 12)?;
                FrameKind::NewFragment {
                    to: buf.get_u32_le(),
                    fragment: buf.get_u32_le(),
                    head: buf.get_u32_le(),
                }
            }
            t => return Err(FrameError::BadTag(t)),
        };
        Ok(ProximitySignal {
            sender,
            service,
            kind,
        })
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
    fn encode_decode_round_trip_every_kind() {
        for kind in all_kinds() {
            let sig = ProximitySignal {
                sender: 42,
                service: ServiceClass::new(17),
                kind,
            };
            let decoded = ProximitySignal::decode(sig.encode()).unwrap();
            assert_eq!(decoded, sig, "round trip failed for {kind:?}");
        }
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

    #[test]
    fn truncated_frames_rejected() {
        let sig = ProximitySignal {
            sender: 1,
            service: ServiceClass::KEEP_ALIVE,
            kind: FrameKind::Report {
                to: 1,
                best_u: 2,
                best_v: 3,
                weight: -5,
            },
        };
        let full = sig.encode();
        for cut in 0..full.len() {
            let res = ProximitySignal::decode(full.slice(0..cut));
            assert_eq!(res, Err(FrameError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let mut raw = BytesMut::new();
        raw.put_u32_le(1);
        raw.put_u8(0); // service
        raw.put_u8(250); // bogus tag
        raw.put_u32_le(0);
        assert_eq!(
            ProximitySignal::decode(raw.freeze()),
            Err(FrameError::BadTag(250))
        );
    }

    #[test]
    fn bad_service_rejected() {
        let mut raw = BytesMut::new();
        raw.put_u32_le(1);
        raw.put_u8(64); // out of range
        raw.put_u8(0);
        raw.put_u32_le(0);
        assert_eq!(
            ProximitySignal::decode(raw.freeze()),
            Err(FrameError::BadService(64))
        );
    }

    #[test]
    fn error_display() {
        assert_eq!(FrameError::Truncated.to_string(), "frame truncated");
        assert!(FrameError::BadTag(9).to_string().contains('9'));
    }
}
