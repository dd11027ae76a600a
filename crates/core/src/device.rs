//! Per-device protocol state.
//!
//! A [`Device`] bundles what one UE carries through a trial: its
//! oscillator (eqs. (3)–(5)), its neighbour table, its service interest,
//! and its view of the spanning structure (fragment id, fragment head,
//! tree parent/children). The coupling policy ([`CouplingMode`]) is the
//! single behavioural difference between the baseline FST (mesh: apply
//! the PRC to every decoded fire) and the proposed ST after tree
//! construction (tree: apply it only to tree neighbours) — §IV's
//! "instead of considering whole graph for each node, we create sub
//! tree to reduce control message overhead".

use serde::{Deserialize, Serialize};

use ffd2d_osc::oscillator::PhaseOscillator;
use ffd2d_osc::prc::Prc;
use ffd2d_phy::codec::ServiceClass;
use ffd2d_sim::deployment::DeviceId;

use crate::discovery::NeighborTable;

/// Which decoded fires couple into the oscillator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CouplingMode {
    /// No coupling (discovery phase: free-run and listen).
    Isolated,
    /// Couple to every decoded fire (FST baseline behaviour).
    Mesh,
    /// Couple only to fires from tree neighbours (ST after merge).
    TreeOnly,
}

/// One UE's protocol state.
#[derive(Debug, Clone)]
pub struct Device {
    /// Device id (index into the deployment).
    pub id: DeviceId,
    /// The firefly oscillator.
    pub osc: PhaseOscillator,
    /// Advertised service interest.
    pub service: ServiceClass,
    /// Neighbour & service discovery state.
    pub table: NeighborTable,
    /// Current fragment identifier (`S_v` membership).
    pub fragment: DeviceId,
    /// Current fragment head.
    pub head: DeviceId,
    /// Tree parent toward the head (`None` at the head).
    pub parent: Option<DeviceId>,
    /// Tree children.
    pub children: Vec<DeviceId>,
    /// Active coupling policy.
    pub coupling: CouplingMode,
}

impl Device {
    /// A fresh device: own fragment, own head, no tree edges.
    pub fn new(
        id: DeviceId,
        n: usize,
        initial_phase: f64,
        period_slots: u32,
        refractory_slots: u32,
        service: ServiceClass,
    ) -> Device {
        Device {
            id,
            osc: PhaseOscillator::new(initial_phase, period_slots, refractory_slots),
            service,
            table: NeighborTable::new(n),
            fragment: id,
            head: id,
            parent: None,
            children: Vec::new(),
            coupling: CouplingMode::Isolated,
        }
    }

    /// True if this device heads its fragment.
    #[inline]
    pub fn is_head(&self) -> bool {
        self.head == self.id
    }

    /// All tree neighbours (parent + children).
    pub fn tree_neighbors(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.parent.into_iter().chain(self.children.iter().copied())
    }

    /// True if `other` is a tree neighbour.
    pub fn is_tree_neighbor(&self, other: DeviceId) -> bool {
        self.parent == Some(other) || self.children.contains(&other)
    }

    /// Attach a tree edge toward `child`.
    pub fn add_child(&mut self, child: DeviceId) {
        debug_assert!(!self.children.contains(&child), "duplicate child {child}");
        self.children.push(child);
    }

    /// Should a decoded fire from `sender` affect the oscillator under
    /// the current policy?
    pub fn couples_to(&self, sender: DeviceId) -> bool {
        match self.coupling {
            CouplingMode::Isolated => false,
            CouplingMode::Mesh => true,
            // Tree mode: timing flows down the tree from the fragment
            // head; only the parent's pulses matter.
            CouplingMode::TreeOnly => self.parent == Some(sender),
        }
    }

    /// Apply a decoded fire from `sender`, emitted `age` slots ago.
    /// Returns `true` if this device is absorbed (fires now).
    ///
    /// * `Mesh` — symmetric Mirollo–Strogatz pulse coupling through the
    ///   PRC (the FST baseline's behaviour; convergence per \[19\]).
    /// * `TreeOnly` — master–slave alignment: a pulse from the tree
    ///   parent makes this device adopt the parent's timing exactly
    ///   (the fragment head is the timing reference, which is how the
    ///   tree-sync argument of Chao et al. \[17\] is realised). Pulses
    ///   from any other device are ignored.
    pub fn hear_fire_delayed(&mut self, sender: DeviceId, prc: &Prc, age: u32) -> bool {
        match self.coupling {
            CouplingMode::Isolated => false,
            CouplingMode::Mesh => self.osc.on_pulse_delayed(prc, age),
            CouplingMode::TreeOnly => {
                if self.parent == Some(sender) {
                    self.osc.align_to_fire(age);
                }
                false
            }
        }
    }

    /// Apply a decoded same-slot fire from `sender` (zero age).
    pub fn hear_fire(&mut self, sender: DeviceId, prc: &Prc) -> bool {
        self.hear_fire_delayed(sender, prc, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device(id: DeviceId) -> Device {
        Device::new(id, 10, 0.5, 100, 2, ServiceClass::KEEP_ALIVE)
    }

    #[test]
    fn fresh_device_is_its_own_fragment_and_head() {
        let d = device(3);
        assert_eq!(d.fragment, 3);
        assert!(d.is_head());
        assert_eq!(d.tree_neighbors().count(), 0);
        assert_eq!(d.coupling, CouplingMode::Isolated);
    }

    #[test]
    fn tree_neighbor_bookkeeping() {
        let mut d = device(0);
        d.parent = Some(7);
        d.add_child(3);
        d.add_child(5);
        let nbrs: Vec<DeviceId> = d.tree_neighbors().collect();
        assert_eq!(nbrs, vec![7, 3, 5]);
        assert!(d.is_tree_neighbor(7));
        assert!(d.is_tree_neighbor(5));
        assert!(!d.is_tree_neighbor(9));
    }

    #[test]
    fn coupling_policy_gates_pulses() {
        let prc = Prc::standard();
        let mut d = device(0);
        d.parent = Some(1);

        d.coupling = CouplingMode::Isolated;
        let p0 = d.osc.phase();
        assert!(!d.hear_fire(1, &prc));
        assert_eq!(d.osc.phase(), p0);

        d.coupling = CouplingMode::TreeOnly;
        assert!(!d.couples_to(2), "non-parent ignored");
        assert!(d.couples_to(1), "parent couples");
        d.hear_fire_delayed(1, &prc, 3);
        assert!(
            (d.osc.phase() - 0.03).abs() < 1e-12,
            "adopted parent timing"
        );

        d.coupling = CouplingMode::Mesh;
        assert!(d.couples_to(2));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate child")]
    fn duplicate_child_rejected() {
        let mut d = device(0);
        d.add_child(1);
        d.add_child(1);
    }
}
