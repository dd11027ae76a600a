//! Property-based tests for the simulation kernel.

use proptest::prelude::*;

use ffd2d_sim::deployment::{Deployment, Meters, Position};
use ffd2d_sim::rng::{SplitMix64, StreamRng, Xoshiro256StarStar};
use ffd2d_sim::time::{Slot, SlotDuration};
use rand::{RngCore, SeedableRng};

proptest! {
    /// Instant/duration arithmetic is consistent: (a + d) − a == d.
    #[test]
    fn slot_arithmetic_round_trips(a in 0u64..1 << 40, d in 0u64..1 << 20) {
        let t = Slot(a) + SlotDuration(d);
        prop_assert_eq!(t - Slot(a), SlotDuration(d));
        prop_assert_eq!(t - SlotDuration(d), Slot(a));
    }

    /// SplitMix64's stateless mix is a bijection-quality avalanche:
    /// distinct inputs give distinct outputs (no collisions over any
    /// sampled set — it is in fact bijective).
    #[test]
    fn splitmix_mix_is_injective_on_samples(xs in proptest::collection::hash_set(any::<u64>(), 2..100)) {
        let mut outs: Vec<u64> = xs.iter().map(|&x| SplitMix64::mix(x)).collect();
        outs.sort_unstable();
        outs.dedup();
        prop_assert_eq!(outs.len(), xs.len());
    }

    /// Stream derivation: distinct (seed, trial, stream) triples give
    /// distinct first outputs.
    #[test]
    fn stream_first_draws_distinct(
        seed in any::<u64>(),
        t1 in 0u64..1000, t2 in 0u64..1000,
        s1 in 0u64..64, s2 in 0u64..64,
    ) {
        prop_assume!((t1, s1) != (t2, s2));
        let a = StreamRng::with_raw_stream(seed, t1, s1).next_u64();
        let b = StreamRng::with_raw_stream(seed, t2, s2).next_u64();
        prop_assert_ne!(a, b);
    }

    /// Xoshiro fill_bytes agrees with word output for arbitrary buffer
    /// lengths.
    #[test]
    fn fill_bytes_prefix_matches_words(seed in any::<u64>(), len in 0usize..64) {
        let mut a = Xoshiro256StarStar::seed_from_u64(seed);
        let mut buf = vec![0u8; len];
        a.fill_bytes(&mut buf);
        let mut b = Xoshiro256StarStar::seed_from_u64(seed);
        let mut expect = Vec::with_capacity(len + 8);
        while expect.len() < len {
            expect.extend_from_slice(&b.next_u64().to_le_bytes());
        }
        prop_assert_eq!(&buf[..], &expect[..len]);
    }

    /// Uniform deployments always stay inside the arena, and pairwise
    /// distances obey the triangle inequality through a third point.
    #[test]
    fn deployment_geometry(seed in any::<u64>(), n in 3usize..40) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let d = Deployment::uniform(n, Meters(100.0), Meters(50.0), &mut rng);
        for p in d.positions() {
            prop_assert!((0.0..100.0).contains(&p.x));
            prop_assert!((0.0..50.0).contains(&p.y));
        }
        let (a, b, c) = (0u32, 1u32, 2u32);
        let ab = d.distance(a, b).0;
        let bc = d.distance(b, c).0;
        let ac = d.distance(a, c).0;
        prop_assert!(ac <= ab + bc + 1e-9);
    }

    /// Position distance is symmetric and zero iff identical.
    #[test]
    fn distance_metric_axioms(x1 in -1e3f64..1e3, y1 in -1e3f64..1e3, x2 in -1e3f64..1e3, y2 in -1e3f64..1e3) {
        let p = Position::new(x1, y1);
        let q = Position::new(x2, y2);
        prop_assert!((p.distance(&q).0 - q.distance(&p).0).abs() < 1e-12);
        prop_assert!(p.distance(&q).0 >= 0.0);
        prop_assert!((p.distance(&p).0).abs() < 1e-12);
    }
}
