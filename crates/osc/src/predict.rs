//! Memoized phase trajectories for the event-driven engines.
//!
//! Skipping idle slots still has to reproduce every oscillator's phase
//! bit-for-bit, and repeated floating-point accumulation of `1/T` has
//! no closed form — the only way to know the phase after `k` ticks is
//! to perform the `k` additions. A [`TrajectoryCache`] performs them
//! **once per distinct starting phase** and replays the results in
//! O(1) per fast-forward.
//!
//! The trick that makes this effective is that the protocol engines
//! reset phases to a tiny set of *canonical* values: `0.0` after every
//! fire (eq. (4)), and `age/T` after an absorption or a master–slave
//! alignment (`age` is a small frame-stamped integer). After its first
//! firing, every device ramps along one of a handful of shared
//! trajectories; devices on non-canonical phases (initial random
//! phases, PRC-advanced mesh phases) simply fall back to literal
//! ticking until their next reset.

use std::collections::BTreeMap;

#[cfg(test)]
use crate::oscillator::PhaseOscillator;

/// A position on a cached trajectory: `pos` ticks after the
/// trajectory's starting phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    /// Trajectory index inside the cache.
    pub traj: u32,
    /// Ticks elapsed since the trajectory's starting phase.
    pub pos: u32,
}

impl Cursor {
    /// The cursor one (non-firing) tick later. Lazy: the trajectory is
    /// extended on the next lookup, not here.
    #[inline]
    pub fn next(self) -> Cursor {
        Cursor {
            traj: self.traj,
            pos: self.pos + 1,
        }
    }
}

/// One memoized phase ramp: `phases[k]` is the phase `k` ticks after
/// `phases[0]`, computed by the exact `tick()` arithmetic
/// (`phase += 1/T`, fire at `phase >= 1 - 1e-12`).
#[derive(Debug)]
struct Trajectory {
    phases: Vec<f64>,
    /// Tick index (relative to the start) at which the ramp fires;
    /// `phases` never extends past `fire_at - 1`.
    fire_at: Option<u32>,
}

/// Shared, lazily-grown phase trajectories keyed by canonical starting
/// phases. All oscillators served by one cache must share the same
/// period.
#[derive(Debug)]
pub struct TrajectoryCache {
    period_slots: u32,
    trajs: Vec<Trajectory>,
    /// Starting-phase bits → trajectory index. Trajectory 0 is the
    /// post-fire ramp from phase `0.0`. Ordered map: the reset
    /// vocabulary is tiny, and an order-stable container keeps any
    /// future iteration over registered starts deterministic.
    starts: BTreeMap<u64, u32>,
}

impl TrajectoryCache {
    /// A cache for oscillators of the given period. Trajectory 0 (the
    /// post-fire ramp from `0.0`) is pre-registered.
    pub fn new(period_slots: u32) -> TrajectoryCache {
        assert!(period_slots > 0, "period must be positive");
        let mut cache = TrajectoryCache {
            period_slots,
            trajs: Vec::new(),
            starts: BTreeMap::new(),
        };
        cache.register_start(0.0);
        cache
    }

    fn register_start(&mut self, phase: f64) -> Cursor {
        let id = *self.starts.entry(phase.to_bits()).or_insert_with(|| {
            self.trajs.push(Trajectory {
                phases: vec![phase],
                fire_at: None,
            });
            (self.trajs.len() - 1) as u32
        });
        Cursor { traj: id, pos: 0 }
    }

    /// The cursor for a freshly-fired oscillator (phase reset to 0).
    #[inline]
    pub fn post_fire(&self) -> Cursor {
        Cursor { traj: 0, pos: 0 }
    }

    /// A cursor for an oscillator *starting* at `phase`, if `phase` is
    /// canonical: `0.0`, or exactly `k/T` for a small integer `k` (the
    /// values produced by absorption and `align_to_fire`). Returns
    /// `None` for anything else — those oscillators tick literally
    /// until their next reset, which keeps the cache size bounded by
    /// the protocol's reset vocabulary rather than by arbitrary
    /// PRC-advanced phases.
    pub fn cursor_for_start(&mut self, phase: f64) -> Option<Cursor> {
        if phase == 0.0 {
            return Some(self.post_fire());
        }
        if let Some(&id) = self.starts.get(&phase.to_bits()) {
            return Some(Cursor { traj: id, pos: 0 });
        }
        let k = (phase * self.period_slots as f64).round();
        if k > 0.0 && k < f64::from(u16::MAX) && k / self.period_slots as f64 == phase {
            Some(self.register_start(phase))
        } else {
            None
        }
    }

    /// Extend trajectory `t` until it covers `pos` ticks or fires.
    fn extend_to(&mut self, t: u32, pos: u32) {
        let period = self.period_slots;
        let traj = &mut self.trajs[t as usize];
        if traj.fire_at.is_some() {
            return;
        }
        while traj.phases.len() <= pos as usize {
            // Reproduce `PhaseOscillator::tick` exactly (the refractory
            // countdown is independent of the phase ramp).
            let mut probe = *traj.phases.last().expect("trajectories are non-empty");
            probe += 1.0 / period as f64;
            if probe >= 1.0 - 1e-12 {
                traj.fire_at = Some(traj.phases.len() as u32);
                return;
            }
            traj.phases.push(probe);
        }
    }

    /// The exact phase at `c`, or `None` if the ramp fires at or before
    /// `c.pos` (the caller's cursor is stale).
    pub fn phase_at(&mut self, c: Cursor) -> Option<f64> {
        self.extend_to(c.traj, c.pos);
        self.trajs[c.traj as usize]
            .phases
            .get(c.pos as usize)
            .copied()
    }

    /// Fast-forward `ticks` non-firing ticks from `c`: the exact phase
    /// and the moved cursor. `None` if the ramp fires inside the window
    /// (callers schedule fires as events, so this means a stale cursor).
    pub fn advance(&mut self, c: Cursor, ticks: u64) -> Option<(f64, Cursor)> {
        let target = u64::from(c.pos) + ticks;
        if target > u64::from(u32::MAX) {
            return None;
        }
        let target = target as u32;
        self.extend_to(c.traj, target);
        let traj = &self.trajs[c.traj as usize];
        if let Some(f) = traj.fire_at {
            if target >= f {
                return None;
            }
        }
        Some((
            traj.phases[target as usize],
            Cursor {
                traj: c.traj,
                pos: target,
            },
        ))
    }

    /// Ticks from `c` until the ramp fires (≥ 1 for any valid cursor) —
    /// the memoized form of [`PhaseOscillator::ticks_to_next_fire`](crate::oscillator::PhaseOscillator::ticks_to_next_fire).
    pub fn ticks_to_fire(&mut self, c: Cursor) -> u32 {
        loop {
            let traj = &self.trajs[c.traj as usize];
            if let Some(f) = traj.fire_at {
                debug_assert!(f > c.pos, "cursor past its trajectory's fire");
                return f - c.pos;
            }
            let grow = traj.phases.len() as u32 + self.period_slots;
            self.extend_to(c.traj, grow);
        }
    }

    /// Sanity helper for tests: a probe oscillator starting on `phase`.
    #[cfg(test)]
    fn probe(&self, phase: f64) -> PhaseOscillator {
        PhaseOscillator::new(phase, self.period_slots, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_fire_trajectory_matches_literal_ticks() {
        let mut cache = TrajectoryCache::new(100);
        let c = cache.post_fire();
        let mut osc = cache.probe(0.0);
        for k in 1..=99u64 {
            let (phase, nc) = cache.advance(c, k).expect("no fire before the period");
            let mut o = osc;
            assert_eq!(o.advance_by(k), 0);
            assert_eq!(phase, o.phase(), "tick {k}");
            assert_eq!(nc.pos, k as u32);
        }
        assert_eq!(cache.ticks_to_fire(c), osc.ticks_to_next_fire());
        assert_eq!(osc.advance_by(100), 1);
        assert!(cache.advance(c, 100).is_none(), "fire inside the window");
    }

    #[test]
    fn canonical_age_starts_are_cached_and_exact() {
        let mut cache = TrajectoryCache::new(100);
        for age in 1..=16u32 {
            let start = age as f64 / 100.0;
            let c = cache.cursor_for_start(start).expect("age/T is canonical");
            let mut osc = cache.probe(start);
            assert_eq!(cache.ticks_to_fire(c), osc.ticks_to_next_fire());
            let (phase, moved) = cache.advance(c, 10).unwrap();
            assert_eq!(osc.advance_by(10), 0);
            assert_eq!(phase, osc.phase(), "age {age}");
            assert_eq!(cache.ticks_to_fire(moved), osc.ticks_to_next_fire());
        }
    }

    #[test]
    fn arbitrary_phases_are_rejected() {
        let mut cache = TrajectoryCache::new(100);
        assert!(cache.cursor_for_start(0.123456789).is_none());
        assert!(cache.cursor_for_start(0.5000001).is_none());
        // ...but exact multiples are accepted.
        assert!(cache.cursor_for_start(0.5).is_some());
    }

    #[test]
    fn cursor_next_is_one_tick() {
        let mut cache = TrajectoryCache::new(50);
        let c = cache.post_fire();
        let stepped = cache.advance(c, 1).unwrap().1;
        assert_eq!(stepped, c.next());
        let p_next = cache.phase_at(c.next()).unwrap();
        let mut osc = cache.probe(0.0);
        osc.tick();
        assert_eq!(p_next, osc.phase());
    }

    #[test]
    fn stale_cursor_past_fire_is_detected() {
        let mut cache = TrajectoryCache::new(10);
        let c = cache.post_fire();
        assert_eq!(cache.ticks_to_fire(c), 10);
        assert!(cache.phase_at(Cursor { traj: 0, pos: 10 }).is_none());
        assert!(cache.phase_at(Cursor { traj: 0, pos: 9 }).is_some());
    }
}
