//! Property-based tests for the PHY substrate.

use proptest::prelude::*;

use ffd2d_phy::codec::{RachCodec, ServiceClass};
use ffd2d_phy::frame::{FrameKind, ProximitySignal};
use ffd2d_phy::zadoffchu::ZcSequence;

fn frame_kinds() -> impl Strategy<Value = FrameKind> {
    prop_oneof![
        (any::<u32>(), any::<u8>()).prop_map(|(fragment, age)| FrameKind::Fire { fragment, age }),
        any::<u32>().prop_map(|to| FrameKind::DiscoveryReply { to }),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<i32>()).prop_map(
            |(to, best_u, best_v, weight)| FrameKind::Report {
                to,
                best_u,
                best_v,
                weight
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
                head
            }
        ),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
            |(to, fragment, fragment_size, head)| FrameKind::HAccept {
                to,
                fragment,
                fragment_size,
                head
            }
        ),
        (any::<u32>(), any::<u32>(), any::<u32>())
            .prop_map(|(to, fragment, head)| FrameKind::NewFragment { to, fragment, head }),
    ]
}

proptest! {
    /// Wire format round-trips for arbitrary field values.
    #[test]
    fn frame_round_trip(sender in any::<u32>(), service in 0u8..64, kind in frame_kinds()) {
        let sig = ProximitySignal {
            sender,
            service: ServiceClass::new(service),
            kind,
        };
        let decoded = ProximitySignal::decode(sig.encode()).unwrap();
        prop_assert_eq!(decoded, sig);
    }

    /// Truncating any frame at any point yields Truncated, never a
    /// bogus decode or a panic.
    #[test]
    fn truncation_is_detected(kind in frame_kinds(), cut_fraction in 0.0f64..1.0) {
        let sig = ProximitySignal {
            sender: 7,
            service: ServiceClass::KEEP_ALIVE,
            kind,
        };
        let bytes = sig.encode();
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < bytes.len());
        let res = ProximitySignal::decode(bytes.slice(0..cut));
        prop_assert!(res.is_err());
    }

    /// ZC sequences: CAZAC amplitude and shift-orthogonality for
    /// arbitrary roots/shifts at a fixed prime length.
    #[test]
    fn zc_properties(u in 1u32..138, s1 in 0usize..139, s2 in 0usize..139) {
        const N: usize = 139;
        let a = ZcSequence::new(u, s1, N);
        for x in a.samples() {
            prop_assert!((x.abs() - 1.0).abs() < 1e-9);
        }
        let b = ZcSequence::new(u, s2, N);
        let c = a.correlate(&b);
        if s1 == s2 {
            prop_assert!((c - 1.0).abs() < 1e-9);
        } else {
            prop_assert!(c < 1e-6, "shift orthogonality violated: {c}");
        }
    }

    /// Cross-root correlation is exactly 1/√N for distinct roots.
    #[test]
    fn zc_cross_root(u1 in 1u32..138, u2 in 1u32..138) {
        prop_assume!(u1 != u2);
        const N: usize = 139;
        let a = ZcSequence::new(u1, 0, N);
        let b = ZcSequence::new(u2, 0, N);
        let expected = 1.0 / (N as f64).sqrt();
        prop_assert!((a.correlate(&b) - expected).abs() < 1e-6);
    }

    /// Codec/service preambles: same codec+service is identical; any
    /// cross-codec pair is near-orthogonal.
    #[test]
    fn codec_preamble_structure(svc in 0u8..64) {
        let s = ServiceClass::new(svc);
        let p1 = RachCodec::Rach1.preamble(s);
        let p1b = RachCodec::Rach1.preamble(s);
        prop_assert!((p1.correlate(&p1b) - 1.0).abs() < 1e-9);
        let p2 = RachCodec::Rach2.preamble(s);
        prop_assert!(p1.correlate(&p2) < 0.1);
    }
}
