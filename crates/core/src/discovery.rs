//! Per-device neighbour tables — simultaneous neighbour & service
//! discovery.
//!
//! Every proximity signal a device decodes teaches it four things at
//! once (this is the paper's "neighbour discovery and service discovery
//! simultaneously"):
//!
//! * the sender exists and is audible (**neighbour discovery**);
//! * the received power, smoothed over observations, is the link's PS
//!   strength — the spanning-tree **edge weight** of §IV;
//! * inverting the path-loss model over that power yields an **RSSI
//!   distance estimate** (eqs. (6)–(12)) — the ranging contribution;
//! * the preamble's service class reveals the sender's **application
//!   interest**, and the payload its current **fragment**.
//!
//! [`NeighborTable`] stores only what the protocol reads back: the
//! smoothed PS strength, the sender's fragment, when it was last heard
//! and how often. The rest is derived on demand, never stored per fire:
//!
//! * a neighbour's distance is
//!   `RangingEstimate::from_rx(tx, Dbm(weight_dbm), pathloss)`
//!   (`ffd2d_radio::rssi`), with every device's transmit power known a
//!   priori (§IV assumption (I));
//! * a sender's service class is fixed for the run, so
//!   [`NeighborTable::service_matches`] reads it from the world's
//!   per-device service table.
//!
//! Each table holds one [`NeighborInfo`] per device of the population,
//! so a run's tables take n² × 24 bytes. Weights are EWMA-smoothed: a
//! single deep fade must not permanently misrank an edge, but the table
//! must also track fragment ids promptly.

use serde::{Deserialize, Serialize};

use ffd2d_phy::codec::ServiceClass;
use ffd2d_radio::units::Dbm;
use ffd2d_sim::deployment::DeviceId;
use ffd2d_sim::time::Slot;

/// EWMA smoothing factor for PS-strength estimates.
const WEIGHT_EWMA_ALPHA: f64 = 0.25;

/// Everything a device knows about one neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NeighborInfo {
    /// Smoothed PS strength in dBm (the §IV edge weight).
    pub weight_dbm: f64,
    /// Slot of the last decoded PS.
    pub last_heard: Slot,
    /// Sender's fragment at last contact.
    pub fragment: DeviceId,
    /// Number of PSs decoded from this neighbour (0: not discovered).
    pub samples: u32,
}

impl NeighborInfo {
    /// The entry of a device never heard from.
    const UNHEARD: NeighborInfo = NeighborInfo {
        weight_dbm: 0.0,
        last_heard: Slot(0),
        fragment: 0,
        samples: 0,
    };
}

/// One device's view of its neighbourhood.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NeighborTable {
    entries: Vec<NeighborInfo>,
    known: u32,
}

impl NeighborTable {
    /// An empty table for a population of `n` devices.
    pub fn new(n: usize) -> NeighborTable {
        NeighborTable {
            entries: vec![NeighborInfo::UNHEARD; n],
            known: 0,
        }
    }

    /// Forget every neighbour, keeping the allocation (a rejoining
    /// device starts with no knowledge of its neighbourhood).
    pub fn clear(&mut self) {
        self.entries.fill(NeighborInfo::UNHEARD);
        self.known = 0;
    }

    /// Number of distinct neighbours discovered.
    #[inline]
    pub fn discovered(&self) -> u32 {
        self.known
    }

    /// Look up a neighbour.
    #[inline]
    pub fn get(&self, id: DeviceId) -> Option<&NeighborInfo> {
        Some(&self.entries[id as usize]).filter(|info| info.samples > 0)
    }

    /// Record a decoded firing PS.
    pub fn observe_fire(
        &mut self,
        sender: DeviceId,
        rx_power: Dbm,
        fragment: DeviceId,
        slot: Slot,
    ) {
        let info = &mut self.entries[sender as usize];
        if info.samples == 0 {
            info.weight_dbm = rx_power.get();
            self.known += 1;
        } else {
            info.weight_dbm =
                info.weight_dbm * (1.0 - WEIGHT_EWMA_ALPHA) + rx_power.get() * WEIGHT_EWMA_ALPHA;
        }
        info.fragment = fragment;
        info.last_heard = slot;
        info.samples += 1;
    }

    /// Update only the fragment label of a known neighbour (learned from
    /// merge traffic rather than a fire).
    pub fn update_fragment(&mut self, sender: DeviceId, fragment: DeviceId) {
        let info = &mut self.entries[sender as usize];
        if info.samples > 0 {
            info.fragment = fragment;
        }
    }

    /// The heaviest known edge toward a neighbour *outside* fragment
    /// `my_fragment` — the per-node half of Algorithm 2's
    /// "highest weighted edge ∉ S_v adjacent to v". Ties break toward
    /// the smaller neighbour id, deterministically.
    pub fn best_outgoing(&self, my_fragment: DeviceId) -> Option<(DeviceId, f64)> {
        self.best_outgoing_fresh(my_fragment, Slot(u64::MAX), u64::MAX)
    }

    /// Like [`NeighborTable::best_outgoing`], but only trusts entries
    /// heard within `max_age_slots` of `now`: a fragment label that has
    /// not been refreshed recently may be stale (the neighbour merged
    /// elsewhere), and proposing it would waste a merge round on a void
    /// handshake.
    pub fn best_outgoing_fresh(
        &self,
        my_fragment: DeviceId,
        now: Slot,
        max_age_slots: u64,
    ) -> Option<(DeviceId, f64)> {
        let cutoff = now.0.saturating_sub(max_age_slots);
        let mut best: Option<(DeviceId, f64)> = None;
        for (id, info) in self.iter() {
            if info.fragment == my_fragment || info.last_heard.0 < cutoff {
                continue;
            }
            let candidate = (id, info.weight_dbm);
            best = Some(match best {
                None => candidate,
                Some(cur) => {
                    if candidate.1 > cur.1 || (candidate.1 == cur.1 && candidate.0 < cur.0) {
                        candidate
                    } else {
                        cur
                    }
                }
            });
        }
        best
    }

    /// Ids of discovered neighbours sharing service `mine`
    /// (application-level proximity), where `services[id]` is device
    /// `id`'s advertised service (`World::services`).
    pub fn service_matches<'a>(
        &'a self,
        mine: ServiceClass,
        services: &'a [ServiceClass],
    ) -> impl Iterator<Item = DeviceId> + 'a {
        self.iter()
            .map(|(id, _)| id)
            .filter(move |&id| services[id as usize].matches(mine))
    }

    /// Iterate over `(id, info)` of all discovered neighbours.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, &NeighborInfo)> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, info)| info.samples > 0)
            .map(|(id, info)| (id as DeviceId, info))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffd2d_radio::pathloss::PathLoss;
    use ffd2d_radio::rssi::RangingEstimate;

    fn observe(t: &mut NeighborTable, sender: DeviceId, dbm: f64, fragment: DeviceId) {
        t.observe_fire(sender, Dbm(dbm), fragment, Slot(0));
    }

    #[test]
    fn entry_is_24_bytes() {
        // Every device keeps one entry per device of the population, so
        // a run's tables cost n² × 24 B: about 92 MiB at n = 2000.
        assert_eq!(core::mem::size_of::<NeighborInfo>(), 24);
    }

    #[test]
    fn first_observation_creates_entry() {
        let mut t = NeighborTable::new(10);
        assert_eq!(t.discovered(), 0);
        observe(&mut t, 3, -60.0, 3);
        assert_eq!(t.discovered(), 1);
        let Some(info) = t.get(3) else {
            panic!("neighbour 3 missing after first observation")
        };
        assert_eq!(info.weight_dbm, -60.0);
        assert_eq!(info.samples, 1);
    }

    #[test]
    fn ewma_smooths_weight() {
        let mut t = NeighborTable::new(10);
        observe(&mut t, 3, -60.0, 3);
        observe(&mut t, 3, -80.0, 3);
        let Some(info) = t.get(3) else {
            panic!("neighbour 3 missing after two observations")
        };
        let w = info.weight_dbm;
        assert!((w - (-65.0)).abs() < 1e-9, "got {w}");
        assert_eq!(info.samples, 2);
        assert_eq!(t.discovered(), 1);
    }

    #[test]
    fn ranging_estimate_is_plausible() {
        // −60 dBm from 23 dBm tx: loss 83 dB → 40+40log d = 83 → ~11.9 m.
        let mut t = NeighborTable::new(4);
        observe(&mut t, 1, -60.0, 1);
        let Some(info) = t.get(1) else {
            panic!("neighbour 1 missing after observation")
        };
        let est =
            RangingEstimate::from_rx(Dbm(23.0), Dbm(info.weight_dbm), &PathLoss::PaperPiecewise);
        let d = est.distance.0;
        assert!((d - 11.88).abs() < 0.05, "distance {d}");
    }

    #[test]
    fn clear_forgets_every_neighbour() {
        let mut t = NeighborTable::new(6);
        observe(&mut t, 1, -50.0, 1);
        observe(&mut t, 4, -70.0, 4);
        t.clear();
        assert_eq!(t.discovered(), 0);
        assert!(t.get(1).is_none() && t.get(4).is_none());
        assert_eq!(t.iter().count(), 0);
        // A fresh observation after the reset starts a new EWMA.
        observe(&mut t, 1, -80.0, 1);
        assert_eq!(
            t.get(1).map(|i| (i.weight_dbm, i.samples)),
            Some((-80.0, 1))
        );
    }

    #[test]
    fn best_outgoing_skips_own_fragment() {
        let mut t = NeighborTable::new(10);
        observe(&mut t, 1, -50.0, 7); // strongest but same fragment
        observe(&mut t, 2, -70.0, 9);
        observe(&mut t, 3, -65.0, 9);
        let Some(best) = t.best_outgoing(7) else {
            panic!("fragment 7 should see an outgoing neighbour")
        };
        assert_eq!(best.0, 3);
        assert!((best.1 - -65.0).abs() < 1e-12);
        // From fragment 9's perspective, node 1 is outgoing.
        assert_eq!(t.best_outgoing(9).map(|b| b.0), Some(1));
    }

    #[test]
    fn best_outgoing_none_when_all_internal() {
        let mut t = NeighborTable::new(5);
        observe(&mut t, 1, -50.0, 42);
        assert!(t.best_outgoing(42).is_none());
        assert!(NeighborTable::new(5).best_outgoing(0).is_none());
    }

    #[test]
    fn best_outgoing_tie_breaks_to_lower_id() {
        let mut t = NeighborTable::new(10);
        observe(&mut t, 4, -60.0, 1);
        observe(&mut t, 2, -60.0, 1);
        assert_eq!(t.best_outgoing(0).map(|b| b.0), Some(2));
    }

    #[test]
    fn fresh_filter_excludes_stale_entries() {
        let mut t = NeighborTable::new(10);
        t.observe_fire(1, Dbm(-50.0), 1, Slot(100));
        t.observe_fire(2, Dbm(-70.0), 2, Slot(900));
        // At slot 1000 with a 300-slot window, only neighbour 2 counts.
        let Some(best) = t.best_outgoing_fresh(0, Slot(1000), 300) else {
            panic!("fresh neighbour 2 should survive the 300-slot window")
        };
        assert_eq!(best.0, 2);
        // The unbounded variant still sees the stronger stale entry.
        assert_eq!(t.best_outgoing(0).map(|b| b.0), Some(1));
        // Everything stale -> none.
        assert!(t.best_outgoing_fresh(0, Slot(10_000), 300).is_none());
    }

    #[test]
    fn fragment_updates() {
        let mut t = NeighborTable::new(5);
        observe(&mut t, 1, -50.0, 1);
        t.update_fragment(1, 99);
        assert_eq!(t.get(1).map(|i| i.fragment), Some(99));
        assert!(t.best_outgoing(99).is_none());
        // Updating an unknown neighbour is a no-op.
        t.update_fragment(2, 5);
        assert!(t.get(2).is_none());
    }

    #[test]
    fn service_matching() {
        let services = [2, 2, 3, 2, 2, 5].map(ServiceClass::new);
        let mut t = NeighborTable::new(6);
        observe(&mut t, 1, -50.0, 1);
        observe(&mut t, 2, -50.0, 2);
        observe(&mut t, 3, -50.0, 3);
        // Device 4 shares service 2 but was never heard.
        let matches: Vec<DeviceId> = t.service_matches(ServiceClass::new(2), &services).collect();
        assert_eq!(matches, vec![1, 3]);
        assert_eq!(
            t.service_matches(ServiceClass::new(5), &services).count(),
            0
        );
    }

    #[test]
    fn iter_yields_all_entries() {
        let mut t = NeighborTable::new(8);
        observe(&mut t, 5, -55.0, 5);
        observe(&mut t, 2, -65.0, 2);
        let ids: Vec<DeviceId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![2, 5]);
    }
}
