//! Wire-format compatibility: everything the protocol engines put on
//! the air round-trips through the PHY frame codec, and the collision
//! medium treats encoded/decoded frames identically. Property tests at
//! the bottom feed the decoder truncated, bit-flipped and arbitrary
//! junk buffers: it must never panic and never accept bytes it could
//! not itself have produced.

use bytes::Bytes;
use ffd2d::phy::codec::{RachCodec, ServiceClass};
use ffd2d::phy::frame::{FrameError, FrameKind, ProximitySignal};
use ffd2d::phy::medium::{Medium, Transmission};
use ffd2d::radio::channel::{Channel, ChannelConfig};
use ffd2d::sim::deployment::{Deployment, Meters, Position};
use ffd2d::sim::{Counters, Slot};

fn engine_frames() -> Vec<ProximitySignal> {
    // The exact frame kinds the ST engine broadcasts (fires, beacons,
    // handshakes) — beacons are fires with the sentinel age.
    vec![
        ProximitySignal {
            sender: 0,
            service: ServiceClass::new(2),
            kind: FrameKind::Fire {
                fragment: 17,
                age: 5,
            },
        },
        ProximitySignal {
            sender: 1,
            service: ServiceClass::new(0),
            kind: FrameKind::Fire {
                fragment: 1,
                age: u8::MAX, // keep-alive beacon sentinel
            },
        },
        ProximitySignal {
            sender: 2,
            service: ServiceClass::new(1),
            kind: FrameKind::HConnect {
                to: 0,
                fragment: 2,
                fragment_size: 41,
                head: 2,
            },
        },
    ]
}

#[test]
fn every_engine_frame_round_trips() {
    for sig in engine_frames() {
        let bytes = sig.encode();
        let decoded = ProximitySignal::decode(bytes.clone()).expect("decode");
        assert_eq!(decoded, sig);
        // Encoding is stable (same signal → same bytes).
        assert_eq!(sig.encode(), bytes);
    }
}

#[test]
fn codec_assignment_survives_the_wire() {
    for sig in engine_frames() {
        let decoded = ProximitySignal::decode(sig.encode()).unwrap();
        assert_eq!(decoded.codec(), sig.codec());
    }
    // Fires are RACH1, handshakes RACH2.
    assert_eq!(engine_frames()[0].codec(), RachCodec::Rach1);
    assert_eq!(engine_frames()[2].codec(), RachCodec::Rach2);
}

#[test]
fn medium_is_agnostic_to_an_encode_decode_pass() {
    let dep = Deployment::from_positions(
        vec![
            Position::new(0.0, 0.0),
            Position::new(15.0, 0.0),
            Position::new(40.0, 0.0),
        ],
        Meters(100.0),
        Meters(100.0),
    );
    let ch = Channel::new(&dep, ChannelConfig::default(), 5);
    let medium = Medium::default();
    let receivers = [0u32, 1, 2];

    let direct: Vec<Transmission> = engine_frames().into_iter().map(Transmission::new).collect();
    let reencoded: Vec<Transmission> = engine_frames()
        .into_iter()
        .map(|s| Transmission::new(ProximitySignal::decode(s.encode()).unwrap()))
        .collect();

    let mut c1 = Counters::new();
    let mut c2 = Counters::new();
    let r1 = medium.resolve(&ch, Slot(7), &direct, &receivers, &mut c1);
    let r2 = medium.resolve(&ch, Slot(7), &reencoded, &receivers, &mut c2);
    assert_eq!(c1, c2);
    for (a, b) in r1.iter().zip(&r2) {
        assert_eq!(a.decoded, b.decoded);
    }
}

#[test]
fn frame_sizes_fit_a_rach_payload() {
    // A PRACH-multiplexed payload is tiny; every protocol frame must
    // stay within a conservative 32-byte budget.
    for sig in engine_frames() {
        assert!(
            sig.encode().len() <= 32,
            "{:?} is {} bytes",
            sig.kind,
            sig.encode().len()
        );
    }
}

// ---------------------------------------------------------------------
// Adversarial decoding properties. A real receiver sees whatever the
// channel hands it — short reads, flipped bits, noise decoded as a
// preamble — so the codec's contract is: `decode` never panics, and any
// `Ok` it returns re-encodes to a prefix of the exact bytes it was
// given (it cannot invent field values the wire didn't carry).
// ---------------------------------------------------------------------

use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

/// Every `FrameKind` variant (RACH1 and RACH2 alike) with arbitrary
/// field values.
fn arb_kind() -> BoxedStrategy<FrameKind> {
    prop_oneof![
        (any::<u32>(), any::<u8>()).prop_map(|(fragment, age)| FrameKind::Fire { fragment, age }),
        any::<u32>().prop_map(|to| FrameKind::DiscoveryReply { to }),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<i32>()).prop_map(
            |(to, best_u, best_v, weight)| FrameKind::Report {
                to,
                best_u,
                best_v,
                weight,
            }
        ),
        (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(to, u, v)| FrameKind::MergeCmd {
            to,
            u,
            v
        }),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
            |(to, fragment, fragment_size, head)| FrameKind::HConnect {
                to,
                fragment,
                fragment_size,
                head,
            }
        ),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
            |(to, fragment, fragment_size, head)| FrameKind::HAccept {
                to,
                fragment,
                fragment_size,
                head,
            }
        ),
        (any::<u32>(), any::<u32>(), any::<u32>())
            .prop_map(|(to, fragment, head)| FrameKind::NewFragment { to, fragment, head }),
    ]
    .boxed()
}

fn arb_signal() -> BoxedStrategy<ProximitySignal> {
    (any::<u32>(), 0u8..ServiceClass::COUNT, arb_kind())
        .prop_map(|(sender, service, kind)| ProximitySignal {
            sender,
            service: ServiceClass::new(service),
            kind,
        })
        .boxed()
}

proptest! {
    /// Every strict prefix of a valid encoding is rejected as
    /// `Truncated` — payloads are fixed-length per tag, so there is no
    /// shorter buffer the decoder could legitimately accept.
    #[test]
    fn every_strict_prefix_is_rejected(sig in arb_signal()) {
        let full = sig.encode();
        for cut in 0..full.len() {
            prop_assert_eq!(
                ProximitySignal::decode(full.slice(0..cut)),
                Err(FrameError::Truncated),
                "{:?} cut to {} bytes",
                sig,
                cut
            );
        }
    }

    /// A single flipped bit anywhere in the frame must not panic the
    /// decoder, and a successful decode must re-encode to a prefix of
    /// the corrupted buffer — i.e. the decoder only ever reports what
    /// was actually on the wire. (A tag flip may shorten the expected
    /// payload and leave trailing bytes unread; that is fine, inventing
    /// bytes is not.)
    #[test]
    fn bit_flips_never_panic_or_forge_fields(
        sig in arb_signal(),
        pos in any::<u16>(),
        bit in 0u8..8,
    ) {
        let mut mutated = sig.encode().to_vec();
        let idx = pos as usize % mutated.len();
        mutated[idx] ^= 1 << bit;
        match ProximitySignal::decode(Bytes::from(mutated.clone())) {
            Err(_) => {} // rejection is always sound
            Ok(decoded) => {
                let re = decoded.encode();
                prop_assert!(
                    re.len() <= mutated.len() && re[..] == mutated[..re.len()],
                    "decoder forged fields: {:?} -> {:?} re-encodes to {:?}, wire was {:?}",
                    sig,
                    decoded,
                    re,
                    mutated
                );
            }
        }
    }

    /// Arbitrary junk buffers (channel noise mistaken for a frame) obey
    /// the same contract: no panic, and any accept re-encodes to a
    /// prefix of the input.
    #[test]
    fn arbitrary_buffers_never_panic_or_forge_fields(
        junk in proptest::collection::vec(any::<u8>(), 0..64usize),
    ) {
        match ProximitySignal::decode(Bytes::from(junk.clone())) {
            Err(_) => {}
            Ok(decoded) => {
                let re = decoded.encode();
                prop_assert!(
                    re.len() <= junk.len() && re[..] == junk[..re.len()],
                    "decoder forged fields from junk {:?}: {:?}",
                    junk,
                    decoded
                );
            }
        }
    }
}
