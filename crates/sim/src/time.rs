//! Slot-based virtual time.
//!
//! LTE-A organises the air interface into 1 ms subframes; the paper's
//! Table I fixes the simulation time slot to 1 ms. All protocol logic in
//! this workspace therefore advances in integer [`Slot`] steps, and wall
//! time in milliseconds is simply `slot.0 * SLOT_MILLIS`.
//!
//! `Slot` is an *instant*; [`SlotDuration`] is a *span*. The arithmetic
//! between the two mirrors `std::time::{Instant, Duration}`: instants can
//! be shifted by durations and subtracted from each other, but two
//! instants cannot be added.

use serde::{Deserialize, Serialize};

/// Length of one simulation slot in milliseconds (LTE subframe, Table I).
pub const SLOT_MILLIS: u64 = 1;

/// A discrete simulation instant, measured in slots since the start of
/// the trial.
///
/// ```
/// use ffd2d_sim::time::{Slot, SlotDuration};
/// let t = Slot(10) + SlotDuration(5);
/// assert_eq!(t, Slot(15));
/// assert_eq!(t - Slot(10), SlotDuration(5));
/// assert_eq!(t.as_millis(), 15);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Slot(pub u64);

/// A span of simulation time, measured in whole slots.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SlotDuration(pub u64);

impl Slot {
    /// The first slot of a trial.
    pub const ZERO: Slot = Slot(0);

    /// Wall-clock milliseconds corresponding to this instant.
    #[inline]
    pub fn as_millis(self) -> u64 {
        self.0 * SLOT_MILLIS
    }

    /// Wall-clock seconds corresponding to this instant.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.as_millis() as f64 / 1000.0
    }

    /// The next slot.
    #[inline]
    pub fn next(self) -> Slot {
        Slot(self.0 + 1)
    }
}

impl SlotDuration {
    /// The empty duration.
    pub const ZERO: SlotDuration = SlotDuration(0);

    /// Wall-clock milliseconds spanned.
    #[inline]
    pub fn as_millis(self) -> u64 {
        self.0 * SLOT_MILLIS
    }

    /// True if the span is empty.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl core::ops::Add<SlotDuration> for Slot {
    type Output = Slot;
    #[inline]
    fn add(self, rhs: SlotDuration) -> Slot {
        Slot(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign<SlotDuration> for Slot {
    #[inline]
    fn add_assign(&mut self, rhs: SlotDuration) {
        self.0 += rhs.0;
    }
}

impl core::ops::Sub<Slot> for Slot {
    type Output = SlotDuration;
    #[inline]
    fn sub(self, rhs: Slot) -> SlotDuration {
        SlotDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("subtracting a later slot from an earlier one"),
        )
    }
}

impl core::ops::Sub<SlotDuration> for Slot {
    type Output = Slot;
    #[inline]
    fn sub(self, rhs: SlotDuration) -> Slot {
        Slot(
            self.0
                .checked_sub(rhs.0)
                .expect("slot arithmetic underflow"),
        )
    }
}

impl core::ops::Add for SlotDuration {
    type Output = SlotDuration;
    #[inline]
    fn add(self, rhs: SlotDuration) -> SlotDuration {
        SlotDuration(self.0 + rhs.0)
    }
}

impl core::ops::Mul<u64> for SlotDuration {
    type Output = SlotDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SlotDuration {
        SlotDuration(self.0 * rhs)
    }
}

impl core::fmt::Display for Slot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "slot {}", self.0)
    }
}

impl core::fmt::Display for SlotDuration {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} ms", self.as_millis())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_plus_duration() {
        assert_eq!(Slot(3) + SlotDuration(4), Slot(7));
        let mut t = Slot(1);
        t += SlotDuration(2);
        assert_eq!(t, Slot(3));
    }

    #[test]
    fn instant_difference() {
        assert_eq!(Slot(9) - Slot(4), SlotDuration(5));
        assert_eq!(Slot(9) - SlotDuration(4), Slot(5));
    }

    #[test]
    #[should_panic(expected = "subtracting a later slot")]
    fn negative_difference_panics() {
        let _ = Slot(1) - Slot(2);
    }

    #[test]
    fn millis_round_trip() {
        assert_eq!(Slot(250).as_millis(), 250);
        assert_eq!(SlotDuration(250).as_millis(), 250);
        assert!((Slot(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn duration_arithmetic() {
        assert_eq!(SlotDuration(2) + SlotDuration(3), SlotDuration(5));
        assert_eq!(SlotDuration(2) * 4, SlotDuration(8));
        assert!(SlotDuration::ZERO.is_zero());
        assert!(!SlotDuration(1).is_zero());
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Slot(1) < Slot(2));
        assert!(SlotDuration(1) < SlotDuration(2));
        assert_eq!(Slot::ZERO.next(), Slot(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Slot(7).to_string(), "slot 7");
        assert_eq!(SlotDuration(7).to_string(), "7 ms");
    }
}
