//! The typed protocol-event vocabulary.
//!
//! One [`TraceEvent`] is one observable fact about a run: a phase
//! transition, a transmission, a reception outcome, an oscillator
//! adjustment, a step of the merge machinery, or a per-slot summary.
//! Events carry plain ids and slots (no references into engine state),
//! so sinks can buffer them freely and logs can be replayed without the
//! world that produced them.
//!
//! The vocabulary deliberately mirrors the quantities the paper plots
//! plus the ones its figures *hide*: per-phase message mix, per-slot
//! collision rate, fragment lineage, and the discovery ramp.

use ffd2d_sim::counters::Counters;
use serde::{Deserialize, Serialize};

/// Device identifier (matches `ffd2d_sim` device ids).
pub type DeviceId = u32;

/// Which RACH codec a broadcast used (§IV's two-codec split). A
/// trace-local mirror of `ffd2d_phy::RachCodec`, so this crate stays
/// below the PHY layer in the dependency order and the PHY's media can
/// emit events too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Codec {
    /// Regular firefly operation: fires, discovery beacons.
    Rach1,
    /// Inter-fragment merge handshakes.
    Rach2,
}

impl Codec {
    /// Stable lowercase name used in JSONL logs.
    pub fn name(self) -> &'static str {
        match self {
            Codec::Rach1 => "rach1",
            Codec::Rach2 => "rach2",
        }
    }

    /// Inverse of [`Codec::name`].
    pub fn from_name(s: &str) -> Option<Codec> {
        match s {
            "rach1" => Some(Codec::Rach1),
            "rach2" => Some(Codec::Rach2),
            _ => None,
        }
    }
}

/// Broadcast frame kinds, as seen by the medium (a trace-local mirror
/// of `ffd2d_phy::FrameKind` discriminants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameLabel {
    /// Firefly pulse / discovery beacon.
    Fire,
    /// FST pairwise discovery response.
    DiscoveryReply,
    /// Convergecast report.
    Report,
    /// Head's merge instruction.
    MergeCmd,
    /// Algorithm 2 handshake request.
    HConnect,
    /// Algorithm 2 handshake acknowledgement.
    HAccept,
    /// Fragment-identity flood.
    NewFragment,
}

impl FrameLabel {
    /// Stable lowercase name used in JSONL logs.
    pub fn name(self) -> &'static str {
        match self {
            FrameLabel::Fire => "fire",
            FrameLabel::DiscoveryReply => "discovery_reply",
            FrameLabel::Report => "report",
            FrameLabel::MergeCmd => "merge_cmd",
            FrameLabel::HConnect => "h_connect",
            FrameLabel::HAccept => "h_accept",
            FrameLabel::NewFragment => "new_fragment",
        }
    }

    /// Inverse of [`FrameLabel::name`].
    pub fn from_name(s: &str) -> Option<FrameLabel> {
        Some(match s {
            "fire" => FrameLabel::Fire,
            "discovery_reply" => FrameLabel::DiscoveryReply,
            "report" => FrameLabel::Report,
            "merge_cmd" => FrameLabel::MergeCmd,
            "h_connect" => FrameLabel::HConnect,
            "h_accept" => FrameLabel::HAccept,
            "new_fragment" => FrameLabel::NewFragment,
            _ => return None,
        })
    }
}

/// Protocol phase of the ST engine (the FST baseline reports `Sync`
/// throughout: it has no discovery or merge machinery).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtoPhase {
    /// Free-running discovery listening.
    Discovery,
    /// GHS/Borůvka merge rounds.
    Merge,
    /// Tree-coupled synchronization.
    Sync,
}

impl ProtoPhase {
    /// Stable lowercase name used in JSONL logs.
    pub fn name(self) -> &'static str {
        match self {
            ProtoPhase::Discovery => "discovery",
            ProtoPhase::Merge => "merge",
            ProtoPhase::Sync => "sync",
        }
    }

    /// Inverse of [`ProtoPhase::name`].
    pub fn from_name(s: &str) -> Option<ProtoPhase> {
        match s {
            "discovery" => Some(ProtoPhase::Discovery),
            "merge" => Some(ProtoPhase::Merge),
            "sync" => Some(ProtoPhase::Sync),
            _ => None,
        }
    }
}

/// Why a merge request did not proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RejectReason {
    /// The head denied the grant (matching discipline: budget spent or
    /// an own request is pending without mutual priority).
    GrantDenied,
    /// The handshake turned out to target the requester's own fragment
    /// (stale neighbour label) and was voided.
    VoidSameFragment,
}

impl RejectReason {
    /// Stable lowercase name used in JSONL logs.
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::GrantDenied => "grant_denied",
            RejectReason::VoidSameFragment => "void_same_fragment",
        }
    }

    /// Inverse of [`RejectReason::name`].
    pub fn from_name(s: &str) -> Option<RejectReason> {
        match s {
            "grant_denied" => Some(RejectReason::GrantDenied),
            "void_same_fragment" => Some(RejectReason::VoidSameFragment),
            _ => None,
        }
    }
}

/// Kind of an injected fault (a trace-local mirror of the
/// `ffd2d-chaos` frame fates — the trace crate sits below chaos in the
/// dependency order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// A decoded frame was discarded at the receiver.
    FrameDrop,
    /// A decoded frame was delivered twice at the receiver.
    FrameDup,
}

impl FaultKind {
    /// Stable lowercase name used in JSONL logs.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::FrameDrop => "frame_drop",
            FaultKind::FrameDup => "frame_dup",
        }
    }

    /// Inverse of [`FaultKind::name`].
    pub fn from_name(s: &str) -> Option<FaultKind> {
        match s {
            "frame_drop" => Some(FaultKind::FrameDrop),
            "frame_dup" => Some(FaultKind::FrameDup),
            _ => None,
        }
    }
}

/// One observable fact about a protocol run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// The engine entered a protocol phase.
    PhaseEnter {
        /// Slot of the transition.
        slot: u64,
        /// The phase entered.
        phase: ProtoPhase,
    },
    /// A merge round opened.
    RoundStart {
        /// Slot the round opened at.
        slot: u64,
        /// 1-based round number.
        round: u32,
        /// Slot budget granted to the round.
        budget: u64,
        /// Fragments alive at the round boundary.
        fragments: u32,
    },
    /// A proximity signal went on the air (per RACH codec).
    Tx {
        /// Transmission slot.
        slot: u64,
        /// Transmitting device.
        sender: DeviceId,
        /// Codec carrying the broadcast.
        codec: Codec,
        /// Frame kind on the air.
        kind: FrameLabel,
    },
    /// A device sent a tree-routed unicast (ST's convergecast and merge
    /// control messages, delivered next slot off the shared medium).
    Unicast {
        /// Send slot.
        slot: u64,
        /// Sending device.
        sender: DeviceId,
        /// Addressed device.
        receiver: DeviceId,
    },
    /// A receiver decoded a signal.
    RxDecode {
        /// Reception slot.
        slot: u64,
        /// Decoding device.
        receiver: DeviceId,
        /// Decoded signal's sender.
        sender: DeviceId,
        /// Codec the decode happened on.
        codec: Codec,
        /// Received power in dBm (what RSSI ranging consumes).
        rx_dbm: f64,
    },
    /// A same-codec preamble collision at one receiver (no capture).
    RxCollision {
        /// Reception slot.
        slot: u64,
        /// Receiver that lost the slot.
        receiver: DeviceId,
        /// Codec the collision happened on.
        codec: Codec,
        /// Above-threshold signals that collided.
        signals: u32,
    },
    /// Receptions provably below the detection threshold this slot
    /// (aggregate: the fast medium reconstructs this count in closed
    /// form rather than walking inaudible pairs).
    RxBelowThreshold {
        /// Reception slot.
        slot: u64,
        /// Lost (transmission, receiver) pairs.
        count: u64,
    },
    /// A decoded fire adjusted a receiver's oscillator (PRC coupling or
    /// tree master–slave alignment).
    PhaseAdjust {
        /// Slot of the adjustment.
        slot: u64,
        /// Adjusted device.
        device: DeviceId,
        /// Sender of the coupling pulse.
        sender: DeviceId,
        /// Phase (turns) before the pulse.
        before: f64,
        /// Phase (turns) after the pulse.
        after: f64,
        /// Whether the pulse absorbed the device (it fires now).
        absorbed: bool,
    },
    /// A boundary device asked to merge (an `H_Connect` reached its
    /// addressee and was queued for a grant, or matched mutually).
    MergeRequest {
        /// Slot of the request's reception.
        slot: u64,
        /// Round it belongs to.
        round: u32,
        /// Requesting boundary device.
        requester: DeviceId,
        /// Addressed target device.
        target: DeviceId,
        /// Requester's fragment label.
        req_fragment: DeviceId,
    },
    /// A merge handshake was accepted end-to-end (an accept went out).
    MergeAccept {
        /// Slot of the accept.
        slot: u64,
        /// Round it belongs to.
        round: u32,
        /// Accepting device.
        device: DeviceId,
        /// The requester being accepted.
        peer: DeviceId,
    },
    /// A merge request stalled or died.
    MergeReject {
        /// Slot of the rejection.
        slot: u64,
        /// Round it belongs to.
        round: u32,
        /// Device at which the request died (head or boundary).
        device: DeviceId,
        /// The requester affected.
        requester: DeviceId,
        /// Why.
        reason: RejectReason,
    },
    /// A tree edge was committed; fragment lineage for the merge tree.
    FragmentCommit {
        /// Slot of the commit.
        slot: u64,
        /// Round it belongs to.
        round: u32,
        /// Committing endpoint.
        device: DeviceId,
        /// Peer endpoint of the new tree edge.
        peer: DeviceId,
        /// Head surviving the merge.
        survivor: DeviceId,
        /// This endpoint's head before the commit (lineage edge
        /// `absorbed → survivor` when they differ).
        old_head: DeviceId,
    },
    /// Per-slot population summary, emitted once per materialized slot:
    /// every slot under the stepped engine, only the wake-up slots under
    /// the event engine.
    SlotStats {
        /// The slot summarised.
        slot: u64,
        /// Distinct fragment labels across the population.
        fragments: u32,
        /// Smallest covering arc of all phases, in turns (sync error).
        phase_spread: f64,
        /// Directed neighbour-table entries established so far.
        discovered_links: u64,
        /// Directed ground-truth audible links (completeness
        /// denominator; constant over a static run).
        ground_truth_links: u64,
    },
    /// A fault plan injected a frame-level fault at a receiver.
    FaultInjected {
        /// Slot of the injection.
        slot: u64,
        /// Receiver whose delivery was perturbed.
        device: DeviceId,
        /// Sender of the perturbed frame.
        sender: DeviceId,
        /// What happened to the frame.
        kind: FaultKind,
    },
    /// A device joined (powered on) under the churn schedule.
    DeviceJoined {
        /// Slot the device became active.
        slot: u64,
        /// The joining device.
        device: DeviceId,
    },
    /// A device left (powered off) under the churn schedule.
    DeviceLeft {
        /// Slot the device went silent.
        slot: u64,
        /// The leaving device.
        device: DeviceId,
        /// Fragments its departure orphaned (former tree neighbours
        /// split into this many extra components).
        orphaned: u32,
    },
    /// Every device fired in one slot — convergence.
    Converged {
        /// Slot of convergence.
        slot: u64,
    },
    /// The run ended (convergence or horizon).
    RunEnd {
        /// Final slot executed.
        slot: u64,
        /// Whether the run converged.
        converged: bool,
    },
}

impl TraceEvent {
    /// Add this event's share of the run's [`Counters`]: broadcasts per
    /// codec, unicast sends, reception outcomes and injected frame
    /// faults. Folding a whole trace reproduces the run's counters.
    pub fn tally(&self, c: &mut Counters) {
        match *self {
            TraceEvent::Tx { codec, .. } => match codec {
                Codec::Rach1 => c.add_rach1_tx(1),
                Codec::Rach2 => c.add_rach2_tx(1),
            },
            TraceEvent::Unicast { .. } => c.add_unicast_tx(1),
            TraceEvent::RxDecode { .. } => c.add_rx_ok(1),
            TraceEvent::RxCollision { signals, .. } => c.add_rx_collision(u64::from(signals)),
            TraceEvent::RxBelowThreshold { count, .. } => c.add_rx_below_threshold(count),
            TraceEvent::FaultInjected { kind, .. } => match kind {
                FaultKind::FrameDrop => c.add_fault_dropped_frames(1),
                FaultKind::FrameDup => c.add_fault_dup_frames(1),
            },
            _ => {}
        }
    }

    /// Stable snake_case tag naming the event kind (the `"t"` field of
    /// the JSONL encoding).
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::PhaseEnter { .. } => "phase_enter",
            TraceEvent::RoundStart { .. } => "round_start",
            TraceEvent::Tx { .. } => "tx",
            TraceEvent::Unicast { .. } => "unicast",
            TraceEvent::RxDecode { .. } => "rx_decode",
            TraceEvent::RxCollision { .. } => "rx_collision",
            TraceEvent::RxBelowThreshold { .. } => "rx_below_threshold",
            TraceEvent::PhaseAdjust { .. } => "phase_adjust",
            TraceEvent::MergeRequest { .. } => "merge_request",
            TraceEvent::MergeAccept { .. } => "merge_accept",
            TraceEvent::MergeReject { .. } => "merge_reject",
            TraceEvent::FragmentCommit { .. } => "fragment_commit",
            TraceEvent::SlotStats { .. } => "slot_stats",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::DeviceJoined { .. } => "device_joined",
            TraceEvent::DeviceLeft { .. } => "device_left",
            TraceEvent::Converged { .. } => "converged",
            TraceEvent::RunEnd { .. } => "run_end",
        }
    }

    /// The slot the event happened in.
    pub fn slot(&self) -> u64 {
        match *self {
            TraceEvent::PhaseEnter { slot, .. }
            | TraceEvent::RoundStart { slot, .. }
            | TraceEvent::Tx { slot, .. }
            | TraceEvent::Unicast { slot, .. }
            | TraceEvent::RxDecode { slot, .. }
            | TraceEvent::RxCollision { slot, .. }
            | TraceEvent::RxBelowThreshold { slot, .. }
            | TraceEvent::PhaseAdjust { slot, .. }
            | TraceEvent::MergeRequest { slot, .. }
            | TraceEvent::MergeAccept { slot, .. }
            | TraceEvent::MergeReject { slot, .. }
            | TraceEvent::FragmentCommit { slot, .. }
            | TraceEvent::SlotStats { slot, .. }
            | TraceEvent::FaultInjected { slot, .. }
            | TraceEvent::DeviceJoined { slot, .. }
            | TraceEvent::DeviceLeft { slot, .. }
            | TraceEvent::Converged { slot }
            | TraceEvent::RunEnd { slot, .. } => slot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_round_trips() {
        for c in [Codec::Rach1, Codec::Rach2] {
            assert_eq!(Codec::from_name(c.name()), Some(c));
        }
        for f in [
            FrameLabel::Fire,
            FrameLabel::DiscoveryReply,
            FrameLabel::Report,
            FrameLabel::MergeCmd,
            FrameLabel::HConnect,
            FrameLabel::HAccept,
            FrameLabel::NewFragment,
        ] {
            assert_eq!(FrameLabel::from_name(f.name()), Some(f));
        }
        for p in [ProtoPhase::Discovery, ProtoPhase::Merge, ProtoPhase::Sync] {
            assert_eq!(ProtoPhase::from_name(p.name()), Some(p));
        }
        for r in [RejectReason::GrantDenied, RejectReason::VoidSameFragment] {
            assert_eq!(RejectReason::from_name(r.name()), Some(r));
        }
        for k in [FaultKind::FrameDrop, FaultKind::FrameDup] {
            assert_eq!(FaultKind::from_name(k.name()), Some(k));
        }
        assert_eq!(FaultKind::from_name("bogus"), None);
        assert_eq!(Codec::from_name("bogus"), None);
        assert_eq!(FrameLabel::from_name("bogus"), None);
    }

    #[test]
    fn slot_accessor_covers_every_kind() {
        let evs = [
            TraceEvent::Converged { slot: 7 },
            TraceEvent::RxBelowThreshold { slot: 7, count: 3 },
            TraceEvent::Unicast {
                slot: 7,
                sender: 1,
                receiver: 2,
            },
            TraceEvent::FaultInjected {
                slot: 7,
                device: 1,
                sender: 2,
                kind: FaultKind::FrameDrop,
            },
            TraceEvent::DeviceJoined { slot: 7, device: 3 },
            TraceEvent::DeviceLeft {
                slot: 7,
                device: 4,
                orphaned: 1,
            },
            TraceEvent::RunEnd {
                slot: 7,
                converged: true,
            },
        ];
        for e in evs {
            assert_eq!(e.slot(), 7, "{}", e.tag());
        }
    }
}
