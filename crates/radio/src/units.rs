//! Strongly-typed power and gain units.
//!
//! Radio link budgets mix two kinds of decibel quantities that must not
//! be confused:
//!
//! * **Absolute power** ([`Dbm`]) — "23 dBm transmit power",
//!   "−95 dBm detection threshold" (Table I).
//! * **Relative gain/loss** ([`Db`]) — path loss, shadowing, fading.
//!
//! The algebra is deliberately restricted: `Dbm ± Db → Dbm` (applying a
//! gain), `Dbm − Dbm → Db` (a link budget), `Db ± Db → Db`, but
//! `Dbm + Dbm` does not exist (adding absolute powers requires going
//! through linear milliwatts first, eq. (8) of the paper).

use serde::{Deserialize, Serialize};

/// A relative gain (positive) or loss (negative) in decibels.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Db(pub f64);

/// An absolute power level in dB-milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Dbm(pub f64);

impl Db {
    /// The zero gain.
    pub const ZERO: Db = Db(0.0);

    /// Raw decibel value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// The linear power ratio `10^(dB/10)`.
    #[inline]
    pub fn as_linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }
}

impl Dbm {
    /// Raw dBm value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

// --- gain algebra -----------------------------------------------------

impl core::ops::Add<Db> for Dbm {
    type Output = Dbm;
    #[inline]
    fn add(self, rhs: Db) -> Dbm {
        Dbm(self.0 + rhs.0)
    }
}

impl core::ops::Sub<Db> for Dbm {
    type Output = Dbm;
    #[inline]
    fn sub(self, rhs: Db) -> Dbm {
        Dbm(self.0 - rhs.0)
    }
}

impl core::ops::Sub<Dbm> for Dbm {
    type Output = Db;
    #[inline]
    fn sub(self, rhs: Dbm) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl core::ops::Add for Db {
    type Output = Db;
    #[inline]
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl core::ops::Sub for Db {
    type Output = Db;
    #[inline]
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl core::ops::Neg for Db {
    type Output = Db;
    #[inline]
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

impl core::fmt::Display for Db {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.2} dB", self.0)
    }
}

impl core::fmt::Display for Dbm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.2} dBm", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_budget_algebra() {
        let tx = Dbm(23.0);
        let pl = Db(118.0);
        let rx = tx - pl;
        assert!((rx.0 - -95.0).abs() < 1e-12);
        // Budget: tx − threshold = available path loss.
        let budget = tx - Dbm(-95.0);
        assert!((budget.0 - 118.0).abs() < 1e-12);
    }

    #[test]
    fn db_as_linear() {
        assert!((Db(3.0103).as_linear() - 2.0).abs() < 1e-3);
    }

    #[test]
    fn gain_composition() {
        let g = Db(10.0) + Db(-4.0) - Db(6.0);
        assert!((g.0 - 0.0).abs() < 1e-12);
        assert_eq!(-Db(5.0), Db(-5.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Dbm(23.0).to_string(), "23.00 dBm");
        assert_eq!(Db(-3.5).to_string(), "-3.50 dB");
    }
}
