//! The distributed ST protocol — Algorithms 1–3 as an event-driven,
//! slot-accurate protocol engine.
//!
//! One trial proceeds through three phases:
//!
//! 1. **Discovery** (`discovery_periods` oscillator periods): devices
//!    free-run and fire proximity signals on RACH1. Every decoded PS
//!    feeds the RSSI neighbour table (§III: neighbour + service
//!    discovery from passive listening — the ranging model is what lets
//!    the ST method skip pairwise discovery handshakes).
//! 2. **Merge** (Algorithm 1/2): GHS/Borůvka rounds paced on the slot
//!    grid. Per round, each fragment convergecasts its members' best
//!    outgoing edges to the head (`Initiate` down, `Report` up — one
//!    unicast per member each way), the head routes a `MergeCmd` to the
//!    boundary device, and the boundary runs the `H_Connect` handshake
//!    of Algorithm 2 as RACH2 broadcasts through the collision medium
//!    (random offset in a contention window, retries with backoff).
//!    Non-mutual connects are authorised by the target fragment's head
//!    (grant round-trip on the tree), which pins *at most one merge per
//!    fragment per round* — exactly the pairwise-merge discipline that
//!    keeps fragment labels consistent. Committed merges adopt the
//!    larger fragment's head (Algorithm 1's `Merge Sub Tree`) and flood
//!    the new identity through the losing side.
//! 3. **Sync**: pulse coupling (eq. (5)) along tree edges only.
//!    Convergence is declared in the first slot where *every* device
//!    fires (same-slot absorption cascades included).
//!
//! ## Modelling notes (documented deviations)
//!
//! * Tree-internal unicasts (`Initiate`/`Report`/`MergeCmd`/grants/
//!   floods) ride *scheduled* LTE-A uplink resources — delivered
//!   reliably with one-slot latency and **counted**, but not subject to
//!   RACH contention. Contention applies to everything broadcast:
//!   fires (RACH1) and `H_Connect`/`H_Accept` handshakes (RACH2).
//! * Round boundaries are paced on the common subframe clock that the
//!   cellular underlay provides (network-assisted D2D); the pace adapts
//!   to the current maximum fragment depth.
//! * Lost `H_Accept`s are healed by idempotent re-accepts and by
//!   adopting tree links implied by received floods.
use rand::Rng;
use std::collections::BTreeMap;

use ffd2d_phy::frame::{FrameKind, ProximitySignal};
use ffd2d_sim::deployment::DeviceId;
use ffd2d_sim::rng::{StreamId, StreamRng};
use ffd2d_sim::time::Slot;
use ffd2d_telemetry::{NullRecorder, Recorder};
use ffd2d_trace::{Codec, FrameLabel, NullSink, ProtoPhase, RejectReason, TraceEvent, TraceSink};

use crate::device::CouplingMode;
use crate::outcome::RunOutcome;
use crate::runtime::{self, DueQueue, Protocol, SlotRuntime};
use crate::scenario::ScenarioConfig;
use crate::world::World;

/// Sentinel for "no device".
const NONE: DeviceId = DeviceId::MAX;
/// Slots a boundary waits for an `H_Accept` before retransmitting.
const HANDSHAKE_TIMEOUT: u64 = 8;
/// `age` sentinel marking a keep-alive beacon (not a timing pulse):
/// beacons refresh neighbour tables without coupling oscillators.
const BEACON_AGE: u8 = u8::MAX;
/// Neighbour-table entries older than this many periods are not trusted
/// for merge proposals (their fragment label may be stale).
const FRESHNESS_PERIODS: u64 = 5;
/// Hop budget for tree-routed grant messages (far above any real
/// fragment depth; reached only by pathological routing loops).
const GRANT_TTL: u8 = 200;

/// The proposed tree-based firefly protocol.
pub struct StProtocol;

impl StProtocol {
    /// Run one trial of the scenario.
    pub fn run(cfg: &ScenarioConfig) -> RunOutcome {
        Self::run_in(&World::new(cfg))
    }

    /// Run one trial in a pre-built world (lets callers share the world
    /// across protocol variants for paired comparisons).
    pub fn run_in(world: &World) -> RunOutcome {
        Self::run_in_instrumented(world, &mut NullSink, &mut NullRecorder)
    }

    /// [`StProtocol::run_in`] observed: protocol events go to `sink` and
    /// performance telemetry (slot-loop stage timers, calendar-queue
    /// statistics, medium resolution costs, fault-application tallies)
    /// to `rec`. Pass [`NullSink`] / [`NullRecorder`] for the side not
    /// wanted; with both, this *is* [`StProtocol::run_in`]. Neither
    /// observer changes the loop the scenario's engine picks; under the
    /// event engine the trace has slot statistics only for the
    /// materialized slots (see [`runtime::run`]).
    ///
    /// Both observers are strictly observational — they consume no
    /// randomness and feed nothing back into the protocol, so the
    /// outcome (and any trace JSONL) is bit-identical whatever is
    /// attached (locked by `tests/trace.rs` and `tests/telemetry.rs`),
    /// and the disabled observers compile every emission site out.
    pub fn run_in_instrumented<S: TraceSink, R: Recorder>(
        world: &World,
        sink: &mut S,
        rec: &mut R,
    ) -> RunOutcome {
        runtime::run::<St, S, R>(world, sink, rec)
    }
}

/// Tree-internal unicast messages (scheduled resources).
#[derive(Debug, Clone, Copy)]
enum Msg {
    /// Head → leaves: start round `round`, re-orient the tree and
    /// re-assert the authoritative fragment identity.
    Initiate {
        round: u32,
        fragment: DeviceId,
        head: DeviceId,
    },
    /// Leaf → head: aggregated best outgoing edge + subtree size.
    Report {
        round: u32,
        best_u: DeviceId,
        best_v: DeviceId,
        best_w: f64,
        /// Fragment label of `best_v` as known at the reporting device
        /// (heads need it for fragment-level mutual detection).
        best_frag: DeviceId,
        size: u32,
    },
    /// Head → boundary: connect over your reported edge; carries the
    /// fragment size snapshot the boundary advertises in `H_Connect`.
    MergeCmd { round: u32, frag_size: u32 },
    /// Target boundary → its head: may I accept this foreign connect?
    /// `ttl` bounds tree-routed forwarding: transient orientation
    /// inconsistencies (crossing identity floods) can briefly create
    /// parent 2-cycles, and an unbounded forward would ping-pong.
    GrantReq {
        round: u32,
        origin: DeviceId,
        requester: DeviceId,
        req_fragment: DeviceId,
        req_size: u32,
        ttl: u8,
    },
    /// Head → target boundary: grant decision (carries own fragment
    /// size for the survivor rule).
    GrantResp {
        round: u32,
        origin: DeviceId,
        requester: DeviceId,
        granted: bool,
        my_size: u32,
        ttl: u8,
    },
    /// Flood into the losing fragment: adopt `head`, re-orient.
    NewFragment { head: DeviceId },
    /// Boundary → head: this round's own handshake is void (the target
    /// turned out to be in our own fragment); clear the pending request
    /// so foreign merges can be granted.
    HsFailed { round: u32 },
    /// Handshake acceptance (Algorithm 2's positive return). Unlike the
    /// contention-based `H_Connect` broadcast, the accept rides the
    /// dedicated link being established and is MAC-acknowledged, hence
    /// reliable — which is what keeps commits two-sided and the
    /// accepted edge set a forest. Counted as RACH2 signalling.
    Accept {
        fragment: DeviceId,
        fragment_size: u32,
        head: DeviceId,
    },
    /// Commit confirmation from the handshake requester, carrying the
    /// agreed surviving head (computed once, at the requester, from the
    /// two exchanged snapshots — so both sides apply the identical
    /// merge). Reliable, like `Accept`.
    Finalize { survivor: DeviceId },
}

/// Per-device, per-round merge state.
#[derive(Debug, Clone)]
struct MState {
    round: u32,
    pending_children: u32,
    best_u: DeviceId,
    best_v: DeviceId,
    best_w: f64,
    best_frag: DeviceId,
    best_provider: DeviceId,
    size: u32,
    /// Head only: this round's own merge request targets this fragment
    /// (NONE = idle). Used for fragment-level mutual detection.
    own_target: DeviceId,
    /// Boundary handshake target (NONE = no handshake).
    hs_peer: DeviceId,
    hs_retries: u32,
    hs_next_tx: u64,
    /// Fragment-size snapshot for `H_Connect` (set by `MergeCmd`).
    frag_size: u32,
    /// Committed a merge this round (stops handshake retries).
    committed: bool,
    /// Head only: granted a foreign merge this round (merge budget).
    granted_foreign: bool,
    /// Processed this round's `Initiate` (duplicate-flood guard).
    initiated: bool,
    /// Pending foreign requests awaiting head grants.
    foreign: Vec<(DeviceId, DeviceId, u32)>, // (requester, req_fragment, req_size)
    /// Breadcrumbs for routing `GrantResp` back down, keyed by
    /// (origin, requester). Ordered map: only point lookups today, but
    /// the route table is protocol state — keeping it order-stable
    /// means any future iteration (debug dumps, invariant sweeps)
    /// cannot introduce hash-order nondeterminism.
    grant_route: BTreeMap<(DeviceId, DeviceId), DeviceId>,
}

impl MState {
    fn reset(&mut self, round: u32) {
        *self = MState {
            round,
            ..MState::default()
        };
    }
}

impl Default for MState {
    fn default() -> Self {
        MState {
            round: 0,
            pending_children: 0,
            best_u: NONE,
            best_v: NONE,
            best_w: f64::NEG_INFINITY,
            best_frag: NONE,
            best_provider: NONE,
            size: 1,
            own_target: NONE,
            hs_peer: NONE,
            hs_retries: 0,
            hs_next_tx: 0,
            frag_size: 1,
            committed: false,
            granted_foreign: false,
            initiated: false,
            foreign: Vec::new(),
            grant_route: BTreeMap::new(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Phase {
    #[default]
    Discovery,
    Merge,
    Sync,
}

/// ST's protocol state. The slot machinery it runs on — devices,
/// medium, fire ring, churn, wake set and run loop — is the shared
/// [`SlotRuntime`]; see `runtime.rs` for the engine design.
#[derive(Default)]
struct St {
    m: Vec<MState>,
    /// Authoritative undirected tree adjacency.
    tree: Vec<Vec<DeviceId>>,
    phase: Phase,
    round: u32,
    round_end: u64,
    /// Last slot at which new handshake activity may start this round
    /// (leaves room for the grant round-trip + accept + finalize).
    round_grace_end: u64,
    /// `MergeCmd`s issued in the current round (0 ⇒ all heads idle).
    mergecmds_this_round: u32,
    commits_total: u32,
    /// Commit count at the previous round boundary (stagnation probe).
    commits_at_round_start: u32,
    /// Consecutive rounds that requested merges but committed none.
    stagnant_rounds: u32,
    /// Unicasts in flight: sent this slot, delivered next slot.
    outbox: Vec<(DeviceId, DeviceId, Msg)>, // (from, to, msg)
    inbox: Vec<(DeviceId, DeviceId, Msg)>,
    /// RACH2 broadcasts queued for this slot.
    rach2_out: Vec<ProximitySignal>,
    /// Every device's keep-alive beacon offset within the period (merge
    /// phase only), as `(offset, device)` sorted ascending: offsets are
    /// randomly spread so synchronized fragments do not jam their own
    /// discovery refresh, and the sort keys one slot's beacons by its
    /// residue mod the period, in device order.
    beacons: Vec<(u64, DeviceId)>,
    /// Pending handshake (re)transmissions keyed by `hs_next_tx`. A
    /// retry or a new round leaves old entries behind; the merge step
    /// re-checks each popped device against `m`.
    hs_due: DueQueue,
    /// Scratch for the devices whose handshake is due in the slot.
    hs_scratch: Vec<DeviceId>,
    /// Scratch for the per-slot distinct-fragment count (tracing only).
    frag_scratch: Vec<DeviceId>,
    /// First slot of the merge phase (`discovery_periods × T`).
    discovery_end: u64,
    /// Merge-round safety cap.
    max_rounds: u32,
    /// The merge phase may not end before this slot (extended on churn
    /// so rejoining devices get a re-discovery window before rounds
    /// stop). Zero — and therefore inert — without churn.
    merge_deadline: u64,
    /// Tree fragments orphaned by departures (see [`RunOutcome`]).
    orphaned_fragments: u32,
}

impl St {
    /// The first slot strictly after `s` holding any device's
    /// merge-phase beacon offset.
    fn next_beacon_slot(&self, s: u64, period: u64) -> Option<u64> {
        let &(first, _) = self.beacons.first()?;
        let q = s + 1;
        let rem = q % period;
        let idx = self.beacons.partition_point(|&(r, _)| r < rem);
        Some(match self.beacons.get(idx) {
            Some(&(r, _)) => q + (r - rem),
            None => q + (period - rem) + first,
        })
    }

    /// The devices whose beacon offset is `residue`, in ascending id.
    fn beacons_at(&self, residue: u64) -> impl Iterator<Item = DeviceId> + '_ {
        let lo = self.beacons.partition_point(|&(r, _)| r < residue);
        self.beacons[lo..]
            .iter()
            .take_while(move |&&(r, _)| r == residue)
            .map(|&(_, id)| id)
    }
}

impl Protocol for St {
    const START_PHASE: ProtoPhase = ProtoPhase::Discovery;

    fn new<S: TraceSink, R: Recorder, const EV: bool>(rt: &mut SlotRuntime<'_, S, R, EV>) -> Self {
        let cfg = rt.world.config();
        let n = rt.devices.len();
        let period = cfg.protocol.period_slots as u64;
        let mut rng = StreamRng::new(cfg.sim.seed, 0, StreamId::MergeBeacons);
        let mut beacons: Vec<(u64, DeviceId)> = (0..n as DeviceId)
            .map(|id| (rng.gen_range(0..period), id))
            .collect();
        beacons.sort_unstable();
        let discovery_end = cfg.protocol.discovery_periods as u64 * period;
        if EV {
            // The discovery→merge boundary must be materialized.
            rt.push_wake(discovery_end);
        }
        St {
            m: vec![MState::default(); n],
            tree: vec![Vec::new(); n],
            beacons,
            discovery_end,
            max_rounds: 2 * (usize::BITS - n.leading_zeros()) + 16,
            ..St::default()
        }
    }

    fn slot_key(&self) -> &'static str {
        match self.phase {
            Phase::Discovery => "engine.slot.discovery",
            Phase::Merge => "engine.slot.merge",
            Phase::Sync => "engine.slot.sync",
        }
    }

    fn probing(&self) -> bool {
        self.phase == Phase::Sync
    }

    fn couples(age: u8) -> bool {
        age != BEACON_AGE
    }

    fn step<S: TraceSink, R: Recorder, const EV: bool>(
        &mut self,
        rt: &mut SlotRuntime<'_, S, R, EV>,
        slot: Slot,
    ) {
        Engine { st: self, rt }.step(slot);
    }

    /// Merge-phase keep-alive beacons — one per device per period, at a
    /// per-device random offset: synchronized fragments fire in a tight
    /// window that self-jams; beacons keep fragment labels and weights
    /// fresh without carrying timing — then the queued RACH2 frames.
    fn extra_frames<S: TraceSink, R: Recorder, const EV: bool>(
        &mut self,
        rt: &mut SlotRuntime<'_, S, R, EV>,
        slot: Slot,
        out: &mut Vec<ProximitySignal>,
    ) {
        if self.phase == Phase::Merge {
            let period = rt.world.config().protocol.period_slots as u64;
            for id in self.beacons_at(slot.0 % period) {
                if !rt.active[id as usize] {
                    continue;
                }
                let d = &rt.devices[id as usize];
                out.push(ProximitySignal {
                    sender: d.id,
                    service: d.service,
                    kind: FrameKind::Fire {
                        fragment: d.fragment,
                        age: BEACON_AGE,
                    },
                });
            }
        }
        out.append(&mut self.rach2_out);
    }

    fn on_frames<S: TraceSink, R: Recorder, const EV: bool>(
        &mut self,
        rt: &mut SlotRuntime<'_, S, R, EV>,
        slot: Slot,
        frames: Vec<(DeviceId, ProximitySignal)>,
    ) {
        let mut e = Engine { st: self, rt };
        for (receiver, sig) in frames {
            e.handle_rach2(receiver, &sig, slot);
        }
    }

    fn fragments<S: TraceSink, R: Recorder, const EV: bool>(
        &mut self,
        rt: &mut SlotRuntime<'_, S, R, EV>,
    ) -> u32 {
        Engine { st: self, rt }.fragment_count()
    }

    fn after_slot<S: TraceSink, R: Recorder, const EV: bool>(
        &mut self,
        rt: &mut SlotRuntime<'_, S, R, EV>,
        s: u64,
    ) {
        // Unicasts sent this slot deliver next slot.
        if !self.outbox.is_empty() {
            rt.push_wake(s + 1);
        }
        // Keep-alive beacons: materialize the next slot in which any
        // device's beacon offset comes up. Each beacon slot re-arms the
        // next one, so the chain spans the whole phase.
        if self.phase == Phase::Merge {
            let period = u64::from(rt.world.config().protocol.period_slots);
            if let Some(b) = self.next_beacon_slot(s, period) {
                rt.push_wake(b);
            }
        }
    }

    fn on_leave<S: TraceSink, R: Recorder, const EV: bool>(
        &mut self,
        rt: &mut SlotRuntime<'_, S, R, EV>,
        d: DeviceId,
    ) -> u32 {
        Engine { st: self, rt }.device_leave(d)
    }

    fn on_join<S: TraceSink, R: Recorder, const EV: bool>(
        &mut self,
        rt: &mut SlotRuntime<'_, S, R, EV>,
        d: DeviceId,
    ) {
        Engine { st: self, rt }.device_join(d);
    }

    fn after_churn<S: TraceSink, R: Recorder, const EV: bool>(
        &mut self,
        rt: &mut SlotRuntime<'_, S, R, EV>,
        slot: Slot,
    ) {
        Engine { st: self, rt }.reopen_merging(slot);
    }

    fn finish(self, out: &mut RunOutcome) {
        for (v, adj) in self.tree.iter().enumerate() {
            let v = v as DeviceId;
            out.tree_edges
                .extend(adj.iter().filter(|&&u| v < u).map(|&u| (v, u)));
        }
        out.tree_edges.sort();
        out.merge_rounds = self.round;
        out.orphaned_fragments = self.orphaned_fragments;
    }
}

/// One hook call's view of the ST engine: the protocol state and the
/// runtime it drives.
struct Engine<'a, 'w, S: TraceSink, R: Recorder, const EV: bool> {
    st: &'a mut St,
    rt: &'a mut SlotRuntime<'w, S, R, EV>,
}

impl<S: TraceSink, R: Recorder, const EV: bool> Engine<'_, '_, S, R, EV> {
    /// Distinct fragment labels across the live population (tracing
    /// only).
    fn fragment_count(&mut self) -> u32 {
        self.st.frag_scratch.clear();
        self.st.frag_scratch.extend(
            self.rt
                .devices
                .iter()
                .enumerate()
                .filter(|(i, _)| self.rt.active[*i])
                .map(|(_, d)| d.fragment),
        );
        self.st.frag_scratch.sort_unstable();
        self.st.frag_scratch.dedup();
        self.st.frag_scratch.len() as u32
    }

    fn send(&mut self, from: DeviceId, to: DeviceId, msg: Msg, slot: Slot) {
        self.rt.counters.add_unicast_tx(1);
        if S::ENABLED {
            self.rt.sink.event(&TraceEvent::Unicast {
                slot: slot.0,
                sender: from,
                receiver: to,
            });
        }
        self.st.outbox.push((from, to, msg));
    }

    /// Maximum tree depth over all fragments (for round pacing).
    fn max_depth(&self) -> u64 {
        let n = self.rt.devices.len();
        let mut depth = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for d in &self.rt.devices {
            if d.is_head() && self.rt.active[d.id as usize] {
                depth[d.id as usize] = 0;
                queue.push_back(d.id);
            }
        }
        let mut max = 0;
        while let Some(v) = queue.pop_front() {
            for &u in &self.st.tree[v as usize] {
                if depth[u as usize] == u32::MAX {
                    depth[u as usize] = depth[v as usize] + 1;
                    max = max.max(depth[u as usize]);
                    queue.push_back(u);
                }
            }
        }
        max as u64
    }

    fn start_round(&mut self, slot: Slot) {
        self.st.round += 1;
        self.st.mergecmds_this_round = 0;
        let cfg = &self.rt.world.config().protocol;
        // Round budget: initiate+report (2 depth hops), merge-cmd +
        // grant round-trip (2 depth), the handshake window with
        // retries, and the identity flood (depth), plus slack — floored
        // at 1.5 periods so neighbour tables refresh between rounds.
        let d = self.max_depth() + 1;
        let handshake =
            (cfg.handshake_window as u64 + HANDSHAKE_TIMEOUT) * (cfg.handshake_retries as u64 + 1);
        let budget = (5 * d + handshake + 8).max(cfg.period_slots as u64 * 3 / 2);
        self.st.round_end = slot.0 + budget;
        self.st.round_grace_end = self.st.round_end.saturating_sub(2 * d + 16);
        if EV {
            // The round boundary is a phase-transition point and must be
            // materialized.
            self.rt.push_wake(self.st.round_end);
        }
        if S::ENABLED {
            let fragments = self.fragment_count();
            self.rt.sink.event(&TraceEvent::RoundStart {
                slot: slot.0,
                round: self.st.round,
                budget,
                fragments,
            });
        }

        let round = self.st.round;
        for i in 0..self.rt.devices.len() {
            self.st.m[i].reset(round);
        }
        // Heads initiate.
        for id in 0..self.rt.devices.len() as DeviceId {
            if !self.rt.devices[id as usize].is_head() {
                continue;
            }
            if !self.rt.active[id as usize] {
                continue; // departed ex-heads stay silent
            }
            let children: Vec<DeviceId> = self.st.tree[id as usize].clone();
            self.rt.devices[id as usize].parent = None;
            self.st.m[id as usize].pending_children = children.len() as u32;
            for c in children {
                self.send(
                    id,
                    c,
                    Msg::Initiate {
                        round,
                        fragment: id,
                        head: id,
                    },
                    slot,
                );
            }
            if self.st.m[id as usize].pending_children == 0 {
                self.aggregate_and_act(id, slot);
            }
        }
    }

    /// Fold the device's own best outgoing edge into its aggregate and
    /// either report up or (at the head) decide the round's merge.
    fn aggregate_and_act(&mut self, v: DeviceId, slot: Slot) {
        let frag = self.rt.devices[v as usize].fragment;
        let max_age = FRESHNESS_PERIODS * self.rt.world.config().protocol.period_slots as u64;
        if let Some((nbr, w)) = self.rt.devices[v as usize]
            .table
            .best_outgoing_fresh(frag, slot, max_age)
        {
            let better = w > self.st.m[v as usize].best_w
                || (w == self.st.m[v as usize].best_w
                    && (v, nbr) < (self.st.m[v as usize].best_u, self.st.m[v as usize].best_v));
            if better {
                let nbr_frag = self.rt.devices[v as usize]
                    .table
                    .get(nbr)
                    .map(|i| i.fragment)
                    .unwrap_or(NONE);
                let st = &mut self.st.m[v as usize];
                st.best_u = v;
                st.best_v = nbr;
                st.best_w = w;
                st.best_frag = nbr_frag;
                st.best_provider = v;
            }
        }
        let st = &self.st.m[v as usize];
        let (best_u, best_v, best_w, best_frag, provider, size) = (
            st.best_u,
            st.best_v,
            st.best_w,
            st.best_frag,
            st.best_provider,
            st.size,
        );
        let round = st.round;
        if self.rt.devices[v as usize].is_head() {
            if best_v == NONE {
                return; // no outgoing edge: fragment idle this round
            }
            self.st.m[v as usize].own_target = best_frag;
            self.st.mergecmds_this_round += 1;
            if provider == v {
                self.st.m[v as usize].frag_size = size;
                self.begin_handshake(v, best_v, slot);
            } else {
                self.send(
                    v,
                    provider,
                    Msg::MergeCmd {
                        round,
                        frag_size: size,
                    },
                    slot,
                );
            }
        } else {
            let parent = self.rt.devices[v as usize]
                .parent
                // ffd2d-lint: allow(panic-discipline) — GHS round invariant: every non-head carries a parent edge by construction (set when the fragment formed); silently skipping the report would corrupt the round, so violation must abort
                .expect("non-head device must have a parent during a round");
            self.send(
                v,
                parent,
                Msg::Report {
                    round,
                    best_u,
                    best_v,
                    best_w,
                    best_frag,
                    size,
                },
                slot,
            );
        }
    }

    fn begin_handshake(&mut self, u: DeviceId, v: DeviceId, slot: Slot) {
        let cfg = &self.rt.world.config().protocol;
        let st = &mut self.st.m[u as usize];
        st.hs_peer = v;
        st.hs_retries = cfg.handshake_retries;
        st.hs_next_tx = slot.0 + 1 + self.rt.rng.gen_range(0..cfg.handshake_window as u64);
        let at = st.hs_next_tx;
        self.st.hs_due.push(at, u);
        if EV {
            self.rt.push_wake(at);
        }
    }

    fn handle_msg(&mut self, from: DeviceId, v: DeviceId, msg: Msg, slot: Slot) {
        match msg {
            Msg::Initiate {
                round,
                fragment,
                head,
            } => {
                if round != self.st.round || self.st.m[v as usize].initiated {
                    return;
                }
                if !self.st.tree[v as usize].contains(&from) {
                    // Tree messages are only meaningful over committed
                    // tree edges; commits are two-sided (reliable
                    // accepts), so this cannot be a missed edge.
                    return;
                }
                self.st.m[v as usize].initiated = true;
                self.st.m[v as usize].round = round;
                // The initiate flood is authoritative for identity: it
                // travelled tree edges from the head itself.
                self.rt.devices[v as usize].fragment = fragment;
                self.rt.devices[v as usize].head = head;
                self.rt.devices[v as usize].parent = Some(from);
                let children: Vec<DeviceId> = self.st.tree[v as usize]
                    .iter()
                    .copied()
                    .filter(|&u| u != from)
                    .collect();
                self.st.m[v as usize].pending_children = children.len() as u32;
                let round = self.st.round;
                for c in children {
                    self.send(
                        v,
                        c,
                        Msg::Initiate {
                            round,
                            fragment,
                            head,
                        },
                        slot,
                    );
                }
                if self.st.m[v as usize].pending_children == 0 {
                    self.aggregate_and_act(v, slot);
                }
            }
            Msg::Report {
                round,
                best_u,
                best_v,
                best_w,
                best_frag,
                size,
            } => {
                if round != self.st.round {
                    return;
                }
                let st = &mut self.st.m[v as usize];
                st.size += size;
                if best_v != NONE {
                    let better = best_w > st.best_w
                        || (best_w == st.best_w && (best_u, best_v) < (st.best_u, st.best_v));
                    if better {
                        st.best_u = best_u;
                        st.best_v = best_v;
                        st.best_w = best_w;
                        st.best_frag = best_frag;
                        st.best_provider = from;
                    }
                }
                st.pending_children = st.pending_children.saturating_sub(1);
                if st.pending_children == 0 {
                    self.aggregate_and_act(v, slot);
                }
            }
            Msg::MergeCmd { round, frag_size } => {
                if round != self.st.round {
                    return;
                }
                self.st.m[v as usize].frag_size = frag_size;
                if self.st.m[v as usize].best_provider == v {
                    let peer = self.st.m[v as usize].best_v;
                    if peer != NONE {
                        self.begin_handshake(v, peer, slot);
                    }
                } else if self.st.m[v as usize].best_provider != NONE {
                    self.send(
                        v,
                        self.st.m[v as usize].best_provider,
                        Msg::MergeCmd { round, frag_size },
                        slot,
                    );
                }
            }
            Msg::GrantReq {
                round,
                origin,
                requester,
                req_fragment,
                req_size,
                ttl,
            } => {
                if round != self.st.round || ttl == 0 {
                    return;
                }
                if self.rt.devices[v as usize].is_head() {
                    // Matching discipline: every fragment takes part in
                    // at most ONE merge per round, which keeps each
                    // round's merge set a matching over current
                    // fragments — provably cycle-free even under stale
                    // neighbour labels. A head therefore grants iff
                    //   * the requester is a different fragment,
                    //   * it has not already granted this round, and
                    //   * it has no own request pending — except the
                    //     fragment-level mutual case (we target them,
                    //     they target us), where exactly one of the two
                    //     edges must proceed: the higher head id yields.
                    let my_frag = self.rt.devices[v as usize].fragment;
                    let st = &self.st.m[v as usize];
                    let mutual = st.own_target == req_fragment;
                    let own_pending = st.own_target != NONE;
                    let granted = my_frag != req_fragment
                        && !st.granted_foreign
                        && (!own_pending || (mutual && my_frag > req_fragment));
                    if granted {
                        self.st.m[v as usize].granted_foreign = true;
                    } else if S::ENABLED {
                        self.rt.sink.event(&TraceEvent::MergeReject {
                            slot: slot.0,
                            round,
                            device: v,
                            requester,
                            reason: RejectReason::GrantDenied,
                        });
                    }
                    let my_size = self.st.m[v as usize].size;
                    if origin == v {
                        self.deliver_grant(v, requester, granted, my_size, slot);
                    } else {
                        // Respond to whichever child delivered the
                        // request; breadcrumbs route the rest of the way.
                        self.send(
                            v,
                            from,
                            Msg::GrantResp {
                                round,
                                origin,
                                requester,
                                granted,
                                my_size,
                                ttl: GRANT_TTL,
                            },
                            slot,
                        );
                    }
                    let _ = req_size;
                } else {
                    self.st.m[v as usize]
                        .grant_route
                        .insert((origin, requester), from);
                    if let Some(parent) = self.rt.devices[v as usize].parent {
                        self.send(
                            v,
                            parent,
                            Msg::GrantReq {
                                round,
                                origin,
                                requester,
                                req_fragment,
                                req_size,
                                ttl: ttl - 1,
                            },
                            slot,
                        );
                    }
                }
            }
            Msg::GrantResp {
                round,
                origin,
                requester,
                granted,
                my_size,
                ttl,
            } => {
                if round != self.st.round || ttl == 0 {
                    return;
                }
                if origin == v {
                    self.deliver_grant(v, requester, granted, my_size, slot);
                } else {
                    let back = self.st.m[v as usize]
                        .grant_route
                        .get(&(origin, requester))
                        .copied();
                    if let Some(back) = back {
                        self.send(
                            v,
                            back,
                            Msg::GrantResp {
                                round,
                                origin,
                                requester,
                                granted,
                                my_size,
                                ttl: ttl - 1,
                            },
                            slot,
                        );
                    }
                }
            }
            Msg::Accept {
                fragment,
                fragment_size,
                head,
            } => {
                self.rt.devices[v as usize]
                    .table
                    .update_fragment(from, fragment);
                if self.st.m[v as usize].hs_peer == from && !self.st.m[v as usize].committed {
                    let same_fragment = self.rt.devices[v as usize].head == head;
                    let linked = self.st.tree[v as usize].contains(&from);
                    if same_fragment && !linked {
                        // Void handshake: the target already merged into
                        // our fragment over another edge. Release the
                        // head's merge slot.
                        self.st.m[v as usize].hs_peer = NONE;
                        let round = self.st.round;
                        if S::ENABLED {
                            self.rt.sink.event(&TraceEvent::MergeReject {
                                slot: slot.0,
                                round,
                                device: v,
                                requester: v,
                                reason: RejectReason::VoidSameFragment,
                            });
                        }
                        if self.rt.devices[v as usize].is_head() {
                            self.st.m[v as usize].own_target = NONE;
                        } else if let Some(parent) = self.rt.devices[v as usize].parent {
                            self.send(v, parent, Msg::HsFailed { round }, slot);
                        }
                    } else {
                        // Decide the surviving head once, from the two
                        // pre-merge snapshots, and share the decision so
                        // both endpoints apply the identical merge.
                        let survivor = Self::decide_survivor(
                            self.rt.devices[v as usize].head,
                            self.st.m[v as usize].frag_size,
                            head,
                            fragment_size,
                        );
                        self.rt.counters.add_rach2_tx(1);
                        if S::ENABLED {
                            // Out-of-band RACH2 handshake frame (no
                            // medium contention modelled): traced so the
                            // timeline's rach2 tally reconciles with
                            // `Counters::rach2_tx`.
                            self.rt.sink.event(&TraceEvent::Tx {
                                slot: slot.0,
                                sender: v,
                                codec: Codec::Rach2,
                                kind: FrameLabel::HAccept,
                            });
                        }
                        self.st.outbox.push((v, from, Msg::Finalize { survivor }));
                        self.commit(v, from, survivor, slot);
                    }
                }
            }
            Msg::Finalize { survivor } => {
                self.commit(v, from, survivor, slot);
            }
            Msg::HsFailed { round } => {
                if round != self.st.round {
                    return;
                }
                if self.rt.devices[v as usize].is_head() {
                    self.st.m[v as usize].own_target = NONE;
                } else if let Some(parent) = self.rt.devices[v as usize].parent {
                    self.send(v, parent, Msg::HsFailed { round }, slot);
                }
            }
            Msg::NewFragment { head } => {
                if !self.st.tree[v as usize].contains(&from) {
                    return;
                }
                if self.rt.devices[v as usize].fragment == head
                    && self.rt.devices[v as usize].parent == Some(from)
                {
                    return; // duplicate
                }
                self.rt.devices[v as usize].fragment = head;
                self.rt.devices[v as usize].head = head;
                self.rt.devices[v as usize].parent = Some(from);
                let fwd: Vec<DeviceId> = self.st.tree[v as usize]
                    .iter()
                    .copied()
                    .filter(|&u| u != from)
                    .collect();
                for c in fwd {
                    self.send(v, c, Msg::NewFragment { head }, slot);
                }
            }
        }
    }

    /// A granted (or denied) foreign connect at the target boundary.
    fn deliver_grant(
        &mut self,
        v: DeviceId,
        requester: DeviceId,
        granted: bool,
        my_size: u32,
        slot: Slot,
    ) {
        let Some(pos) = self.st.m[v as usize]
            .foreign
            .iter()
            .position(|&(r, _, _)| r == requester)
        else {
            return;
        };
        let (requester, req_fragment, req_size) = self.st.m[v as usize].foreign.swap_remove(pos);
        if !granted {
            return;
        }
        let _ = (req_fragment, req_size);
        // Advertise our snapshot; the requester decides the survivor and
        // confirms with `Finalize`, upon which we commit.
        self.st.m[v as usize].frag_size = my_size;
        self.st.m[v as usize].hs_peer = requester;
        self.send_accept(v, requester, slot);
    }

    fn send_accept(&mut self, v: DeviceId, to: DeviceId, slot: Slot) {
        let d = &self.rt.devices[v as usize];
        let msg = Msg::Accept {
            fragment: d.fragment,
            fragment_size: self.st.m[v as usize].frag_size,
            head: d.head,
        };
        self.rt.counters.add_rach2_tx(1);
        if S::ENABLED {
            // See the `Finalize` send: out-of-band RACH2 frames are
            // traced too, keeping timeline and counter tallies equal.
            self.rt.sink.event(&TraceEvent::Tx {
                slot: slot.0,
                sender: v,
                codec: Codec::Rach2,
                kind: FrameLabel::HAccept,
            });
            self.rt.sink.event(&TraceEvent::MergeAccept {
                slot: slot.0,
                round: self.st.round,
                device: v,
                peer: to,
            });
        }
        self.st.outbox.push((v, to, msg));
    }

    /// Algorithm 1's head-selection rule: the surviving head comes from
    /// the larger tree ("choose S_v.head from highest number of node's
    /// tree"); ties break to the smaller head id.
    fn decide_survivor(
        my_head: DeviceId,
        my_size: u32,
        their_head: DeviceId,
        their_size: u32,
    ) -> DeviceId {
        if my_size > their_size || (my_size == their_size && my_head < their_head) {
            my_head
        } else {
            their_head
        }
    }

    /// Commit the merge over tree edge `(x, y)` from `x`'s side, with a
    /// pre-agreed surviving head (both endpoints receive the same
    /// `survivor`, so the two sides always apply the identical merge).
    fn commit(&mut self, x: DeviceId, y: DeviceId, survivor: DeviceId, slot: Slot) {
        if S::ENABLED {
            self.rt.sink.event(&TraceEvent::FragmentCommit {
                slot: slot.0,
                round: self.st.round,
                device: x,
                peer: y,
                survivor,
                old_head: self.rt.devices[x as usize].head,
            });
        }
        if !self.st.tree[x as usize].contains(&y) {
            self.st.tree[x as usize].push(y);
            self.st.commits_total += 1;
        }
        self.st.m[x as usize].committed = true;
        self.st.m[x as usize].hs_peer = NONE;
        if self.rt.devices[x as usize].head != survivor {
            // Losing side: adopt the surviving identity and flood it
            // into the old fragment. The winning side keeps its
            // identity; `tree` already holds the new edge.
            self.rt.devices[x as usize].fragment = survivor;
            self.rt.devices[x as usize].head = survivor;
            self.rt.devices[x as usize].parent = Some(y);
            let fwd: Vec<DeviceId> = self.st.tree[x as usize]
                .iter()
                .copied()
                .filter(|&u| u != y)
                .collect();
            for c in fwd {
                self.send(x, c, Msg::NewFragment { head: survivor }, slot);
            }
        }
    }

    fn handle_rach2(&mut self, receiver: DeviceId, sig: &ProximitySignal, slot: Slot) {
        // Accepts travel as reliable MAC-acknowledged signalling (see
        // `Msg::Accept`); an on-air HAccept frame is not used by this
        // engine, so only HConnect frames matter here.
        let FrameKind::HConnect {
            to,
            fragment,
            fragment_size,
            head,
        } = sig.kind
        else {
            return;
        };
        self.rt.devices[receiver as usize]
            .table
            .update_fragment(sig.sender, fragment);
        if to != receiver {
            return;
        }
        if S::ENABLED {
            self.rt.sink.event(&TraceEvent::MergeRequest {
                slot: slot.0,
                round: self.st.round,
                requester: sig.sender,
                target: receiver,
                req_fragment: fragment,
            });
        }
        let me = &self.rt.devices[receiver as usize];
        if me.fragment == fragment {
            // Same fragment: either a stale edge choice by the
            // peer, or the peer missed our accept after a
            // committed merge. Reply either way — the accept
            // carries our current labels, which lets the peer
            // heal a missed commit (tree link exists) or abort a
            // void handshake (no link).
            self.send_accept(receiver, sig.sender, slot);
            return;
        }
        if self.st.m[receiver as usize].hs_peer == sig.sender {
            // Mutual choice (the GHS core edge): accept without
            // a head round-trip. Both boundaries exchange
            // accepts; the commit happens on Accept/Finalize.
            let _ = (head, fragment_size);
            self.send_accept(receiver, sig.sender, slot);
            return;
        }
        if self.st.tree[receiver as usize].contains(&sig.sender) {
            self.send_accept(receiver, sig.sender, slot);
            return;
        }
        if slot.0 > self.st.round_grace_end {
            return; // too late in the round for a grant trip
        }
        let already_pending = self.st.m[receiver as usize]
            .foreign
            .iter()
            .any(|&(r, _, _)| r == sig.sender);
        if !already_pending {
            self.st.m[receiver as usize]
                .foreign
                .push((sig.sender, fragment, fragment_size));
            let round = self.st.round;
            if self.rt.devices[receiver as usize].is_head() {
                self.handle_msg(
                    receiver,
                    receiver,
                    Msg::GrantReq {
                        round,
                        origin: receiver,
                        requester: sig.sender,
                        req_fragment: fragment,
                        req_size: fragment_size,
                        ttl: GRANT_TTL,
                    },
                    slot,
                );
            } else if let Some(parent) = self.rt.devices[receiver as usize].parent {
                self.send(
                    receiver,
                    parent,
                    Msg::GrantReq {
                        round,
                        origin: receiver,
                        requester: sig.sender,
                        req_fragment: fragment,
                        req_size: fragment_size,
                        ttl: GRANT_TTL,
                    },
                    slot,
                );
            }
        }
    }

    /// A device powered off (the runtime froze its oscillator): strip
    /// its tree edges, re-derive the survivors' fragment identities and
    /// return the number of fragments its departure orphaned.
    fn device_leave(&mut self, d: DeviceId) -> u32 {
        let nbrs: Vec<DeviceId> = std::mem::take(&mut self.st.tree[d as usize]);
        for &u in &nbrs {
            self.st.tree[u as usize].retain(|&x| x != d);
            let dev = &mut self.rt.devices[u as usize];
            if dev.parent == Some(d) {
                dev.parent = None;
            }
        }
        self.rt.devices[d as usize].parent = None;
        let orphaned = self.refragment_after_leave(&nbrs);
        self.st.orphaned_fragments += orphaned;
        orphaned
    }

    /// A device powered (back) on as a fresh singleton fragment. Stale
    /// pre-outage state is discarded — the runtime already gave it an
    /// empty neighbour table, and it re-discovers its neighbours from
    /// live traffic.
    fn device_join(&mut self, d: DeviceId) {
        let dev = &mut self.rt.devices[d as usize];
        dev.fragment = d;
        dev.head = d;
        dev.parent = None;
        dev.coupling = if self.st.phase == Phase::Discovery {
            CouplingMode::Isolated
        } else {
            CouplingMode::TreeOnly
        };
        self.st.m[d as usize] = MState::default();
    }

    /// Rebuild fragment identities from the surviving tree edges after
    /// a departure: union-find over the live population, the minimum id
    /// of each component becomes its head, and parents re-orient toward
    /// it by BFS. Returns the number of fragments orphaned among
    /// `former` (the departed device's ex-neighbours): each component
    /// beyond the first.
    fn refragment_after_leave(&mut self, former: &[DeviceId]) -> u32 {
        let n = self.rt.devices.len();
        let mut uf = ffd2d_graph::UnionFind::new(n);
        for v in 0..n {
            if !self.rt.active[v] {
                continue;
            }
            for &u in &self.st.tree[v] {
                if self.rt.active[u as usize] {
                    uf.union(v as DeviceId, u);
                }
            }
        }
        let mut former_roots: Vec<DeviceId> = former
            .iter()
            .filter(|&&u| self.rt.active[u as usize])
            .map(|&u| uf.find(u))
            .collect();
        former_roots.sort_unstable();
        former_roots.dedup();
        let orphaned = (former_roots.len() as u32).saturating_sub(1);
        // Head = minimum id per live component (ids ascend, so the
        // first member seen is the minimum).
        let mut head = vec![NONE; n];
        for v in 0..n as DeviceId {
            if !self.rt.active[v as usize] {
                continue;
            }
            let r = uf.find(v) as usize;
            if head[r] == NONE {
                head[r] = v;
            }
        }
        for v in 0..n as DeviceId {
            if !self.rt.active[v as usize] {
                continue;
            }
            let h = head[uf.find(v) as usize];
            self.rt.devices[v as usize].fragment = h;
            self.rt.devices[v as usize].head = h;
        }
        // Re-orient every live component from its head.
        let mut queue = std::collections::VecDeque::new();
        let mut seen = vec![false; n];
        for v in 0..n as DeviceId {
            if self.rt.active[v as usize] && self.rt.devices[v as usize].is_head() {
                seen[v as usize] = true;
                self.rt.devices[v as usize].parent = None;
                queue.push_back(v);
            }
        }
        while let Some(v) = queue.pop_front() {
            let children: Vec<DeviceId> = self.st.tree[v as usize]
                .iter()
                .copied()
                .filter(|&u| self.rt.active[u as usize] && !seen[u as usize])
                .collect();
            for c in children {
                seen[c as usize] = true;
                self.rt.devices[c as usize].parent = Some(v);
                queue.push_back(c);
            }
        }
        orphaned
    }

    /// Churn re-opens tree construction: return to the merge phase,
    /// grant extra rounds, and hold the phase open long enough for
    /// rejoining devices to re-discover their neighbours before the
    /// idle-round exit can fire.
    fn reopen_merging(&mut self, slot: Slot) {
        if self.st.phase == Phase::Discovery {
            return; // merging has not started; discovery handles it
        }
        let period = self.rt.world.config().protocol.period_slots as u64;
        self.st.merge_deadline = self.st.merge_deadline.max(slot.0 + 3 * period);
        self.st.max_rounds = self.st.max_rounds.max(self.st.round + 16);
        self.st.stagnant_rounds = 0;
        if self.st.phase != Phase::Merge {
            self.st.phase = Phase::Merge;
            if S::ENABLED {
                self.rt.sink.event(&TraceEvent::PhaseEnter {
                    slot: slot.0,
                    phase: ProtoPhase::Merge,
                });
            }
        }
        self.start_round(slot);
    }

    /// ST's part of a materialized slot, before the broadcast: phase
    /// transitions, last slot's unicasts and handshake transmissions.
    fn step(&mut self, slot: Slot) {
        let cfg = self.rt.world.config();
        let s = slot.0;

        // Phase transitions.
        match self.st.phase {
            Phase::Discovery if s >= self.st.discovery_end => {
                self.st.phase = Phase::Merge;
                if S::ENABLED {
                    self.rt.sink.event(&TraceEvent::PhaseEnter {
                        slot: s,
                        phase: ProtoPhase::Merge,
                    });
                }
                for d in self.rt.devices.iter_mut() {
                    d.coupling = CouplingMode::TreeOnly;
                }
                self.start_round(slot);
            }
            Phase::Merge if s >= self.st.round_end => {
                if self.st.commits_total == self.st.commits_at_round_start {
                    self.st.stagnant_rounds += 1;
                } else {
                    self.st.stagnant_rounds = 0;
                }
                self.st.commits_at_round_start = self.st.commits_total;
                // Done when all heads are idle, when rounds stopped
                // producing merges (stale phantom edges), or at the
                // safety cap. A recent churn event holds the phase open
                // (`merge_deadline`, 0 when no churn ever happened) so
                // a rejoining device gets time to be discovered before
                // the idle-round exit can fire.
                if ((self.st.mergecmds_this_round == 0 || self.st.stagnant_rounds >= 4)
                    && s >= self.st.merge_deadline)
                    || self.st.round >= self.st.max_rounds
                {
                    self.st.phase = Phase::Sync;
                    if S::ENABLED {
                        self.rt.sink.event(&TraceEvent::PhaseEnter {
                            slot: s,
                            phase: ProtoPhase::Sync,
                        });
                    }
                    for d in self.rt.devices.iter_mut() {
                        d.coupling = CouplingMode::TreeOnly;
                    }
                } else {
                    self.start_round(slot);
                }
            }
            _ => {}
        }

        // Deliver last slot's unicasts. The swap hands the handlers an
        // empty outbox to push replies into; the delivered batch buffer
        // is reused across slots (no per-slot allocation).
        core::mem::swap(&mut self.st.inbox, &mut self.st.outbox);
        let mut batch = core::mem::take(&mut self.st.inbox);
        for &(from, to, msg) in &batch {
            // In-flight unicasts involving a device that churned between
            // send and delivery are lost with it.
            if !self.rt.active[from as usize] || !self.rt.active[to as usize] {
                continue;
            }
            self.handle_msg(from, to, msg, slot);
        }
        batch.clear();
        self.st.inbox = batch;

        // Boundary handshake (re)transmissions — only while enough
        // round time remains for the full grant/accept/finalize
        // exchange (late handshakes would straddle the round
        // boundary and leave half-committed edges). Due devices pop in
        // ascending id, so the retry draws keep device order.
        if self.st.phase == Phase::Merge && s <= self.st.round_grace_end {
            let mut due = core::mem::take(&mut self.st.hs_scratch);
            self.st.hs_due.pop_due(s, &mut due);
            for &v in &due {
                if !self.rt.active[v as usize] {
                    continue;
                }
                let st = &self.st.m[v as usize];
                if st.hs_peer != NONE && !st.committed && st.hs_next_tx == s {
                    let d = &self.rt.devices[v as usize];
                    let sig = ProximitySignal {
                        sender: v,
                        service: d.service,
                        kind: FrameKind::HConnect {
                            to: st.hs_peer,
                            fragment: d.fragment,
                            fragment_size: st.frag_size,
                            head: d.head,
                        },
                    };
                    self.st.rach2_out.push(sig);
                    let st = &mut self.st.m[v as usize];
                    if st.hs_retries > 0 {
                        st.hs_retries -= 1;
                        let next = s
                            + HANDSHAKE_TIMEOUT
                            + self
                                .rt
                                .rng
                                .gen_range(0..cfg.protocol.handshake_window as u64);
                        st.hs_next_tx = next;
                        self.st.hs_due.push(next, v);
                        if EV {
                            self.rt.push_wake(next);
                        }
                    }
                }
            }
            self.st.hs_scratch = due;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffd2d_graph::tree::is_spanning_tree;
    use ffd2d_sim::time::SlotDuration;

    fn cfg(n: usize, seed: u64) -> ScenarioConfig {
        ScenarioConfig::table1(n)
            .seeded(seed)
            .with_max_slots(SlotDuration(120_000))
    }

    #[test]
    fn small_ideal_world_converges_with_a_spanning_tree() {
        let out = StProtocol::run(&cfg(12, 1).ideal_channel());
        assert!(out.converged(), "{out:?}");
        assert_eq!(out.tree_edges.len(), 11, "tree edges {:?}", out.tree_edges);
        let edges: Vec<ffd2d_graph::Edge> = out
            .tree_edges
            .iter()
            .map(|&(u, v)| ffd2d_graph::Edge::new(u, v, ffd2d_graph::W::new(0.0)))
            .collect();
        assert!(is_spanning_tree(12, &edges));
    }

    #[test]
    fn table1_scenario_converges() {
        let out = StProtocol::run(&cfg(50, 2));
        assert!(out.converged(), "{out:?}");
        assert!(out.merge_rounds >= 1);
        assert!(out.messages() > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = StProtocol::run(&cfg(20, 3));
        let b = StProtocol::run(&cfg(20, 3));
        assert_eq!(a, b);
        // A different seed changes the deployment and the whole
        // trajectory; compare full outputs rather than the (slot-
        // quantized, collision-prone) convergence time alone.
        let c = StProtocol::run(&cfg(20, 4));
        assert_ne!(a, c);
    }

    #[test]
    fn tree_matches_sequential_oracle_on_ideal_channel() {
        // With no shadowing/fading, perfect discovery makes the
        // distributed tree equal the sequential Algorithm-1 tree (the
        // unique maximum spanning tree).
        let scenario = cfg(15, 5).ideal_channel();
        let world = World::new(&scenario);
        let out = StProtocol::run_in(&world);
        assert!(out.converged());
        let oracle = crate::reference::build_spanning_tree(world.proximity_graph());
        let oracle_edges: Vec<(DeviceId, DeviceId)> =
            oracle.forest.edges.iter().map(|e| (e.u, e.v)).collect();
        assert_eq!(out.tree_edges, oracle_edges);
    }

    #[test]
    fn discovery_is_nearly_complete() {
        let out = StProtocol::run(&cfg(30, 6));
        assert!(
            out.discovery_completeness() > 0.9,
            "completeness {}",
            out.discovery_completeness()
        );
        assert!(out.service_matches > 0);
    }

    #[test]
    fn two_devices_sync_quickly() {
        let out = StProtocol::run(&cfg(2, 7).ideal_channel());
        assert!(out.converged());
        assert_eq!(out.tree_edges.len(), 1);
    }

    #[test]
    fn message_counts_are_plausible() {
        let out = StProtocol::run(&cfg(40, 8));
        // Fires at least: discovery_periods × n.
        assert!(out.counters.rach1_tx >= 3 * 40);
        // Some merge signalling must have happened.
        assert!(out.counters.rach2_tx > 0, "{:?}", out.counters);
        assert!(out.counters.unicast_tx > 0);
    }
}
