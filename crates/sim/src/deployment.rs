//! Device placement on the plane.
//!
//! The paper deploys UEs uniformly at random in a 100 m × 100 m outdoor
//! area (Table I). [`Deployment`] owns the positions of all devices in a
//! trial and answers geometric queries (pairwise distance, neighbours
//! within range). Grid and clustered placements are provided for tests
//! and ablations: a grid gives exactly known distances, and clusters
//! exercise the multi-fragment merge phase of the spanning-tree protocol.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A length in meters.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Meters(pub f64);

impl Meters {
    /// The raw value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl core::fmt::Display for Meters {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.2} m", self.0)
    }
}

impl core::ops::Mul<f64> for Meters {
    type Output = Meters;
    fn mul(self, rhs: f64) -> Meters {
        Meters(self.0 * rhs)
    }
}

/// A 2-D position in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Position {
    /// East coordinate.
    pub x: f64,
    /// North coordinate.
    pub y: f64,
}

impl Position {
    /// Construct a position from meter coordinates.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: &Position) -> Meters {
        Meters(((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt())
    }
}

/// Identifier of a device within a deployment (dense `0..n`).
pub type DeviceId = u32;

/// Positions of every device in a trial.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Deployment {
    positions: Vec<Position>,
    width: Meters,
    height: Meters,
}

impl Deployment {
    /// Uniform random placement of `n` devices in a `width × height` area.
    pub fn uniform<R: Rng + ?Sized>(n: usize, width: Meters, height: Meters, rng: &mut R) -> Self {
        assert!(width.0 > 0.0 && height.0 > 0.0, "area must be non-empty");
        let positions = (0..n)
            .map(|_| Position::new(rng.gen_range(0.0..width.0), rng.gen_range(0.0..height.0)))
            .collect();
        Deployment {
            positions,
            width,
            height,
        }
    }

    /// Regular grid placement: devices at cell centres of the smallest
    /// square grid with at least `n` cells, truncated to `n` devices.
    pub fn grid(n: usize, width: Meters, height: Meters) -> Self {
        assert!(width.0 > 0.0 && height.0 > 0.0, "area must be non-empty");
        let side = (n as f64).sqrt().ceil() as usize;
        let mut positions = Vec::with_capacity(n);
        'outer: for row in 0..side {
            for col in 0..side {
                if positions.len() == n {
                    break 'outer;
                }
                positions.push(Position::new(
                    (col as f64 + 0.5) * width.0 / side as f64,
                    (row as f64 + 0.5) * height.0 / side as f64,
                ));
            }
        }
        Deployment {
            positions,
            width,
            height,
        }
    }

    /// Clustered placement: `clusters` Gaussian blobs with standard
    /// deviation `spread`, centres uniform in the area. Devices are
    /// assigned to clusters round-robin; draws outside the area are
    /// clamped to the boundary.
    pub fn clustered<R: Rng + ?Sized>(
        n: usize,
        clusters: usize,
        spread: Meters,
        width: Meters,
        height: Meters,
        rng: &mut R,
    ) -> Self {
        assert!(clusters > 0, "need at least one cluster");
        let centres: Vec<Position> = (0..clusters)
            .map(|_| Position::new(rng.gen_range(0.0..width.0), rng.gen_range(0.0..height.0)))
            .collect();
        let positions = (0..n)
            .map(|i| {
                let c = centres[i % clusters];
                // Box-Muller Gaussian offsets.
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let mag = spread.0 * (-2.0 * u1.ln()).sqrt();
                let dx = mag * (2.0 * core::f64::consts::PI * u2).cos();
                let dy = mag * (2.0 * core::f64::consts::PI * u2).sin();
                Position::new(
                    (c.x + dx).clamp(0.0, width.0),
                    (c.y + dy).clamp(0.0, height.0),
                )
            })
            .collect();
        Deployment {
            positions,
            width,
            height,
        }
    }

    /// Build from explicit positions (testing / Fig. 2 style examples).
    pub fn from_positions(positions: Vec<Position>, width: Meters, height: Meters) -> Self {
        Deployment {
            positions,
            width,
            height,
        }
    }

    /// Number of devices.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True if the deployment holds no devices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Area width.
    #[inline]
    pub fn width(&self) -> Meters {
        self.width
    }

    /// Area height.
    #[inline]
    pub fn height(&self) -> Meters {
        self.height
    }

    /// Device density in devices per square meter.
    pub fn density(&self) -> f64 {
        self.len() as f64 / (self.width.0 * self.height.0)
    }

    /// The position of device `id`.
    #[inline]
    pub fn position(&self, id: DeviceId) -> Position {
        self.positions[id as usize]
    }

    /// All positions, indexed by device id.
    #[inline]
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// `(x, y)` tuples of every position — the form consumed by spatial
    /// indexes (`ffd2d_graph::spatial::SpatialGrid`).
    pub fn coords(&self) -> Vec<(f64, f64)> {
        self.positions.iter().map(|p| (p.x, p.y)).collect()
    }

    /// Pairwise distance between devices `a` and `b`.
    #[inline]
    pub fn distance(&self, a: DeviceId, b: DeviceId) -> Meters {
        self.positions[a as usize].distance(&self.positions[b as usize])
    }

    /// Iterate over all unordered device pairs `(a, b)` with `a < b`.
    pub fn pairs(&self) -> impl Iterator<Item = (DeviceId, DeviceId)> + '_ {
        let n = self.len() as DeviceId;
        (0..n).flat_map(move |a| ((a + 1)..n).map(move |b| (a, b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> crate::rng::Xoshiro256StarStar {
        crate::rng::Xoshiro256StarStar::seed_from_u64(1)
    }

    #[test]
    fn uniform_stays_in_area() {
        let d = Deployment::uniform(500, Meters(100.0), Meters(50.0), &mut rng());
        assert_eq!(d.len(), 500);
        for p in d.positions() {
            assert!((0.0..100.0).contains(&p.x));
            assert!((0.0..50.0).contains(&p.y));
        }
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let a = Deployment::uniform(10, Meters(100.0), Meters(100.0), &mut rng());
        let b = Deployment::uniform(10, Meters(100.0), Meters(100.0), &mut rng());
        assert_eq!(a.positions(), b.positions());
    }

    #[test]
    fn grid_has_known_geometry() {
        let d = Deployment::grid(4, Meters(100.0), Meters(100.0));
        // 2x2 grid at cell centres: (25,25), (75,25), (25,75), (75,75).
        assert_eq!(d.len(), 4);
        assert!((d.distance(0, 1).0 - 50.0).abs() < 1e-9);
        assert!((d.distance(0, 3).0 - 50.0 * 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn grid_truncates_to_n() {
        let d = Deployment::grid(5, Meters(90.0), Meters(90.0));
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn clustered_stays_in_area() {
        let d = Deployment::clustered(
            200,
            4,
            Meters(5.0),
            Meters(100.0),
            Meters(100.0),
            &mut rng(),
        );
        for p in d.positions() {
            assert!((0.0..=100.0).contains(&p.x));
            assert!((0.0..=100.0).contains(&p.y));
        }
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let d = Deployment::uniform(20, Meters(100.0), Meters(100.0), &mut rng());
        for (a, b) in d.pairs() {
            assert!((d.distance(a, b).0 - d.distance(b, a).0).abs() < 1e-12);
        }
        let p = d.position(3);
        assert_eq!(p.distance(&p).0, 0.0);
    }

    #[test]
    fn coords_mirror_positions() {
        let d = Deployment::grid(5, Meters(50.0), Meters(50.0));
        let xy = d.coords();
        assert_eq!(xy.len(), 5);
        for (i, &(x, y)) in xy.iter().enumerate() {
            let p = d.position(i as u32);
            assert_eq!((x, y), (p.x, p.y));
        }
    }

    #[test]
    fn pairs_enumerates_n_choose_2() {
        let d = Deployment::grid(7, Meters(10.0), Meters(10.0));
        assert_eq!(d.pairs().count(), 21);
    }

    #[test]
    fn density_matches_definition() {
        let d = Deployment::grid(50, Meters(100.0), Meters(100.0));
        assert!((d.density() - 0.005).abs() < 1e-12);
    }
}
