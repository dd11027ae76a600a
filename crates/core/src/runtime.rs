//! The slot runtime shared by every discovery protocol.
//!
//! ST and the FST baseline differ only in protocol logic; everything
//! else about a trial — the devices and their oscillators, the medium,
//! the fire ring, churn, frame faults, the wake set and the run loop —
//! is the same machinery, written once here. A protocol plugs in
//! through the small [`Protocol`] hook trait; [`run`] drives it.
//!
//! ## Execution strategies
//!
//! `EV` selects the strategy at compile time:
//!
//! * `EV = false` — the **stepped** reference loop: every slot of the
//!   horizon is materialized.
//! * `EV = true` — the **event-driven** loop: an ordered set of wake-up
//!   slots (next oscillator fires, staggered transmissions, churn slots, plus
//!   whatever the protocol schedules — phase boundaries, unicast
//!   deliveries, handshake deadlines, beacon offsets, convergence
//!   probes) decides which slots to materialize, and a materialized
//!   slot costs work in proportion to its events, not to `n`. Each
//!   device carries a synced-slot stamp and is brought up to date only
//!   when something reads or changes its oscillator — a due fire, a
//!   coupling pulse, churn or the convergence probe — by one warp along
//!   a memoized phase trajectory (or literal ticking off it). Natural
//!   fires come off a queue fed by the fire predictions.
//!
//! Both strategies share one loop and one slot body, so the modes are
//! bit-identical (locked by `tests/engine_equivalence.rs`) under three
//! rules the runtime owns:
//!
//! 1. **The wake set is a superset of every non-tick slot.** Any slot in
//!    which anything beyond pure phase ticking happens is scheduled; a
//!    spurious wake just materializes a slot in which nothing happens.
//! 2. **Jitter draws keep their order and ranges.** Natural fires draw
//!    `0..8` in device order during the tick, protocol frames are
//!    handled next, and absorbed fires draw `1..8` in delivery order —
//!    all from the one protocol stream.
//! 3. **Frame faults apply after the decode decision.** A dropped frame
//!    was on the air (medium counters unchanged) but never reaches the
//!    protocol; a duplicate is handled twice. Fates are stateless keyed
//!    draws, so delivery order and worker count cannot leak in.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::Rng;

use ffd2d_chaos::{ChurnEvent, ChurnKind, FaultPlan, FrameFate};
use ffd2d_osc::oscillator::PhaseOscillator;
use ffd2d_osc::prc::Prc;
use ffd2d_osc::predict::{Cursor, TrajectoryCache};
use ffd2d_phy::frame::{FrameKind, ProximitySignal};
use ffd2d_radio::units::Dbm;
use ffd2d_sim::counters::Counters;
use ffd2d_sim::deployment::DeviceId;
use ffd2d_sim::event::WakeSet;
use ffd2d_sim::rng::{StreamId, StreamRng};
use ffd2d_sim::time::{Slot, SlotDuration};
use ffd2d_telemetry::Recorder;
use ffd2d_trace::{FaultKind, ProtoPhase, TraceEvent, TraceSink};

use crate::device::Device;
use crate::outcome::RunOutcome;
use crate::scenario::EngineMode;
use crate::world::{FastMedium, World};

/// Firing transmissions are staggered uniformly over this many slots
/// (RFA-style jitter); the offset is stamped into the frame's `age`
/// field so receivers couple as if the pulse were instantaneous.
const FIRE_JITTER: u64 = 8;
/// Ring size of the pending-fire queue (must exceed `FIRE_JITTER`).
const FIRE_RING: usize = 16;
/// Convergence is probed at this slot interval while the protocol
/// [probes](Protocol::probing).
const SYNC_CHECK_INTERVAL: u64 = 16;

/// Run one trial of protocol `P` in `world`, in the loop that
/// [`ScenarioConfig::engine`](crate::ScenarioConfig) picks. Observers
/// never change the loop: an enabled sink gets one
/// [`TraceEvent::SlotStats`] per *materialized* slot, so an event-driven
/// trace is the stepped trace of the same run minus the `SlotStats` of
/// the skipped slots, in which nothing else happens. Outcomes are
/// bit-identical either way.
pub fn run<P: Protocol, S: TraceSink, R: Recorder>(
    world: &World,
    sink: &mut S,
    rec: &mut R,
) -> RunOutcome {
    if world.config().engine == EngineMode::EventDriven {
        SlotRuntime::<S, R, true>::new(world, sink, rec).run::<P>()
    } else {
        SlotRuntime::<S, R, false>::new(world, sink, rec).run::<P>()
    }
}

/// A discovery protocol's logic, as hooks into the [`SlotRuntime`].
///
/// A materialized slot runs: due churn ([`on_leave`](Protocol::on_leave)
/// / [`on_join`](Protocol::on_join), then
/// [`after_churn`](Protocol::after_churn)) → [`step`](Protocol::step) →
/// the broadcast (natural fires, [`extra_frames`](Protocol::extra_frames),
/// the medium, [`on_frames`](Protocol::on_frames), absorbed fires) → the
/// slot statistics → the convergence probe. Every hook that schedules
/// work in a future slot must also push a wake for it when `EV` is set
/// (contract 1 of the [module docs](self)).
pub trait Protocol: Sized {
    /// Trace phase the run starts in.
    const START_PHASE: ProtoPhase;

    /// Fresh protocol state for the runtime's world and devices,
    /// pushing the wake of any boundary it schedules up front.
    fn new<S: TraceSink, R: Recorder, const EV: bool>(rt: &mut SlotRuntime<'_, S, R, EV>) -> Self;

    /// Timer key the slot being entered bills to.
    fn slot_key(&self) -> &'static str {
        "engine.slot.sync"
    }

    /// Does the current phase run the convergence probe (and chain its
    /// wake grid)?
    fn probing(&self) -> bool {
        true
    }

    /// Does a decoded fire stamped `age` couple the receiver's
    /// oscillator? (Otherwise it only refreshes the neighbour table.)
    fn couples(_age: u8) -> bool {
        true
    }

    /// The protocol's own work in a slot, before the broadcast.
    fn step<S: TraceSink, R: Recorder, const EV: bool>(
        &mut self,
        _rt: &mut SlotRuntime<'_, S, R, EV>,
        _slot: Slot,
    ) {
    }

    /// Queue protocol frames for this slot's broadcast, after the due
    /// staggered fires.
    fn extra_frames<S: TraceSink, R: Recorder, const EV: bool>(
        &mut self,
        _rt: &mut SlotRuntime<'_, S, R, EV>,
        _slot: Slot,
        _out: &mut Vec<ProximitySignal>,
    ) {
    }

    /// Decoded non-fire frames, `(receiver, frame)` in delivery order.
    fn on_frames<S: TraceSink, R: Recorder, const EV: bool>(
        &mut self,
        _rt: &mut SlotRuntime<'_, S, R, EV>,
        _slot: Slot,
        _frames: Vec<(DeviceId, ProximitySignal)>,
    ) {
    }

    /// Fragment count for the per-slot trace statistics.
    fn fragments<S: TraceSink, R: Recorder, const EV: bool>(
        &mut self,
        rt: &mut SlotRuntime<'_, S, R, EV>,
    ) -> u32 {
        rt.devices.len() as u32
    }

    /// Protocol wakes to re-arm after materializing slot `s`.
    fn after_slot<S: TraceSink, R: Recorder, const EV: bool>(
        &mut self,
        _rt: &mut SlotRuntime<'_, S, R, EV>,
        _s: u64,
    ) {
    }

    /// Device `d` just powered off (already inactive). Returns the
    /// fragments its departure orphaned.
    fn on_leave<S: TraceSink, R: Recorder, const EV: bool>(
        &mut self,
        _rt: &mut SlotRuntime<'_, S, R, EV>,
        _d: DeviceId,
    ) -> u32 {
        0
    }

    /// Device `d` just powered back on (already active, with an empty
    /// neighbour table).
    fn on_join<S: TraceSink, R: Recorder, const EV: bool>(
        &mut self,
        _rt: &mut SlotRuntime<'_, S, R, EV>,
        _d: DeviceId,
    ) {
    }

    /// The population changed in this slot.
    fn after_churn<S: TraceSink, R: Recorder, const EV: bool>(
        &mut self,
        _rt: &mut SlotRuntime<'_, S, R, EV>,
        _slot: Slot,
    ) {
    }

    /// Fill the protocol-specific outcome fields.
    fn finish(self, _out: &mut RunOutcome) {}
}

/// The per-trial slot machinery (see the [module docs](self)).
pub struct SlotRuntime<'w, S: TraceSink, R: Recorder, const EV: bool> {
    /// The world the trial runs in.
    pub(crate) world: &'w World,
    /// Protocol-event sink; all emission sites are gated on
    /// `S::ENABLED`, so a `NullSink` runtime is the untraced runtime.
    pub(crate) sink: &'w mut S,
    /// Performance recorder; sites are no-ops (and clock reads vanish)
    /// under `NullRecorder`.
    rec: &'w mut R,
    /// Every device, indexed by id. In the event-driven loop an
    /// oscillator lags until the runtime next syncs it, so protocol
    /// hooks must leave `osc` to the runtime.
    pub devices: Vec<Device>,
    medium: FastMedium,
    /// Message tallies of the run.
    pub(crate) counters: Counters,
    prc: Prc,
    /// The protocol stream: fire jitter and every protocol draw.
    pub(crate) rng: StreamRng,
    /// Pending staggered fire transmissions, ring-indexed by slot.
    fire_queue: Vec<Vec<(DeviceId, u8)>>,
    /// Scratch for the per-slot on-air transmission list (reused across
    /// slots so busy slots allocate nothing).
    pending_scratch: Vec<ProximitySignal>,
    phases_scratch: Vec<f64>,
    /// Convergence tolerance: all phases within one slot.
    tol: f64,
    /// Completeness denominator for per-slot stats (tracing only).
    ground_truth_links: u64,
    // --- Fault injection & churn (dormant when the plan is none) ---
    /// Per-device liveness: the whole of churn's state. A departed
    /// device is frozen, silent and deaf. All-true without a churn plan.
    pub(crate) active: Vec<bool>,
    /// Number of `true` entries in `active`.
    live: usize,
    /// Churn schedule sorted by `(slot, device)`, with a cursor.
    churn_events: Vec<ChurnEvent>,
    next_churn: usize,
    /// Per-device "period differs from nominal" flags (clock skew):
    /// skewed devices never join the shared trajectory cache.
    skewed: Vec<bool>,
    /// Keyed-draw seed for frame fates ([`FaultPlan::frame_fate`]).
    chaos_key: u64,
    /// Slot of the plan's last discrete fault: convergence does not end
    /// the run until a probe succeeds *after* this slot.
    last_fault_slot: Option<u64>,
    // --- Event-driven machinery (dormant when `EV` is false) ---
    /// Candidate wake-up slots. Bare slot numbers, no payloads: the set
    /// coalesces everything landing on one slot, and a spurious wake
    /// just materializes a slot in which nothing happens, so entries
    /// need no invalidation.
    wake: WakeSet,
    /// All slots `< synced_next` are fully processed. The stepped loop
    /// ticks every live oscillator through each of them; in the
    /// event-driven loop each device's own stamp in `clocks` says how
    /// far it is.
    synced_next: u64,
    /// Devices whose oscillator phase may have changed in the current
    /// slot (fired, absorbed, coupled, rejoined); drained by
    /// `post_schedule` to re-derive cursors and re-predict fires.
    touched: Vec<DeviceId>,
    /// Per-device synced stamps, cursors and fire predictions.
    clocks: LazyClocks,
    /// Scratch for the devices that fire naturally in the slot.
    due_scratch: Vec<DeviceId>,
}

/// Never: the fire prediction of a device that has none pending.
const NEVER: u64 = u64::MAX;

/// Per-device deadlines keyed by slot, as a min-heap of
/// `(slot, device)`: one slot's devices pop in ascending id, the order
/// the stepped loops visit them in. Entries are never invalidated; the
/// caller re-checks each popped device against its current state.
#[derive(Debug, Default)]
pub(crate) struct DueQueue(BinaryHeap<Reverse<(u64, DeviceId)>>);

impl DueQueue {
    /// Device `d` is due in slot `slot`.
    pub(crate) fn push(&mut self, slot: u64, d: DeviceId) {
        self.0.push(Reverse((slot, d)));
    }

    /// Drain every entry up to slot `s` and put the devices due exactly
    /// at `s` into `out`, ascending and deduplicated (earlier entries
    /// are stale: their slot passed unmaterialized or unscanned).
    pub(crate) fn pop_due(&mut self, s: u64, out: &mut Vec<DeviceId>) {
        out.clear();
        while let Some(&Reverse((at, d))) = self.0.peek() {
            if at > s {
                break;
            }
            self.0.pop();
            if at == s && out.last() != Some(&d) {
                out.push(d);
            }
        }
    }
}

/// Lazily synced oscillators for the event-driven loop.
///
/// A device's oscillator is brought up to date only when something
/// reads or changes it. Between those moments it is a stamp plus a
/// trajectory cursor, and its next natural fire is an entry in `due`.
/// The skipped ticks are pure ticks by construction of the wake set
/// (a fire inside them would have been predicted and materialized), so
/// one catch-up replays exactly the ticks the stepped loop performs.
struct LazyClocks {
    /// Device `i`'s oscillator reflects every tick of the slots
    /// `< synced[i]`; a departed device keeps the stamp of its leave.
    synced: Vec<u64>,
    /// Per-device position on a memoized phase trajectory at its stamp
    /// (`None` ⇒ non-canonical phase, caught up by literal ticking).
    /// Mesh coupling nudges most phases off the canonical reset values,
    /// so FST leans on the literal fallback far more than ST does.
    cursors: Vec<Option<Cursor>>,
    /// Shared memoized phase ramps (all devices share one period).
    traj: TrajectoryCache,
    /// Per-device predicted natural-fire slot ([`NEVER`] when departed).
    fire_at: Vec<u64>,
    /// Fire predictions. A re-prediction leaves the old entry behind;
    /// `fire_due` drops popped entries that no longer match `fire_at`.
    due: DueQueue,
    /// Catch-ups by trajectory warp and by literal ticking.
    warps: u64,
    literal: u64,
}

impl LazyClocks {
    fn new(n: usize, period: u32) -> LazyClocks {
        LazyClocks {
            synced: vec![0; n],
            // Initial phases are arbitrary random reals — never
            // canonical — so every device starts on the literal-ticking
            // fallback and joins a shared trajectory at its first reset.
            cursors: vec![None; n],
            traj: TrajectoryCache::new(period),
            fire_at: vec![NEVER; n],
            due: DueQueue::default(),
            warps: 0,
            literal: 0,
        }
    }

    /// Apply device `i`'s ticks for the slots `[synced[i], to)` to
    /// `osc`: one warp for a device holding a trajectory cursor,
    /// literal ticks otherwise.
    fn sync(&mut self, i: usize, osc: &mut PhaseOscillator, to: u64) {
        let ticks = to - self.synced[i];
        if ticks == 0 {
            return;
        }
        self.synced[i] = to;
        match self.cursors[i].and_then(|c| self.traj.advance(c, ticks)) {
            Some((phase, moved)) => {
                osc.warp(phase, ticks);
                self.cursors[i] = Some(moved);
                self.warps += 1;
            }
            None => {
                self.cursors[i] = None;
                let fires = osc.advance_by(ticks);
                debug_assert_eq!(fires, 0, "device {i} fired inside a skipped stretch");
                self.literal += 1;
            }
        }
    }

    /// Record that device `i` next fires naturally in `slot`.
    fn predict(&mut self, i: usize, slot: u64) {
        self.fire_at[i] = slot;
        self.due.push(slot, i as DeviceId);
    }
}

impl<'w, S: TraceSink, R: Recorder, const EV: bool> SlotRuntime<'w, S, R, EV> {
    fn new(world: &'w World, sink: &'w mut S, rec: &'w mut R) -> Self {
        let cfg = world.config();
        let n = world.n();
        let seed = cfg.sim.seed;
        let period = cfg.protocol.period_slots;
        let faults = &cfg.faults;
        let churn_events = faults.sorted_churn();
        let mut phase_rng = StreamRng::new(seed, 0, StreamId::Phases);
        let devices: Vec<Device> = (0..n as DeviceId)
            .map(|id| {
                let p = faults.period_for(id, period);
                let phase = phase_rng.gen_range(0.0..1.0);
                let service = world.services()[id as usize];
                Device::new(id, n, phase, p, cfg.protocol.refractory_slots, service)
            })
            .collect();
        let mut rt = SlotRuntime {
            world,
            sink,
            rec,
            skewed: (0..n as DeviceId)
                .map(|id| faults.period_for(id, period) != period)
                .collect(),
            devices,
            medium: FastMedium::new(n),
            counters: Counters::new(),
            prc: Prc::from_dissipation(cfg.protocol.dissipation, cfg.protocol.coupling),
            rng: StreamRng::new(seed, 0, StreamId::Protocol),
            fire_queue: vec![Vec::new(); FIRE_RING],
            pending_scratch: Vec::new(),
            phases_scratch: Vec::with_capacity(n),
            tol: 1.0 / period as f64 + 1e-12,
            ground_truth_links: 0,
            active: faults.initial_active(n),
            live: 0,
            churn_events,
            next_churn: 0,
            chaos_key: FaultPlan::chaos_key(seed),
            last_fault_slot: faults.last_fault_slot(),
            wake: WakeSet::new(),
            synced_next: 0,
            touched: Vec::new(),
            clocks: LazyClocks::new(n, period),
            due_scratch: Vec::new(),
        };
        // `active` is allocated in field order, among the other
        // buffers: allocating it ahead of them shifts the heap layout
        // and raised `sparse_st_1000`'s peak RSS by 0.8 MB (2-cpu
        // x86-64 host, glibc malloc).
        rt.live = rt.active.iter().filter(|&&a| a).count();
        rt
    }

    /// Schedule a wake-up slot, tallying scheduler pressure for an
    /// enabled recorder (a no-op push otherwise). Wake-ups landing on
    /// an already-scheduled slot coalesce inside the set.
    #[inline]
    pub(crate) fn push_wake(&mut self, s: u64) {
        self.rec.add("engine.wakeups_scheduled", 1);
        self.wake.push(s);
    }

    /// Flush the wake set's coalesce/stale tallies into the recorder.
    fn flush_wake_stats(&mut self) {
        let (coalesced, stale) = self.wake.take_stats();
        if coalesced > 0 {
            self.rec.add("engine.coalesced_wakeups", coalesced);
        }
        if stale > 0 {
            self.rec.add("engine.wakeups_stale", stale);
        }
    }

    fn run<P: Protocol>(mut self) -> RunOutcome {
        let mut proto = P::new(&mut self);
        let t_run = self.rec.start();
        // Completeness denominator for per-slot stats (constant over a
        // static run): counted from the medium's cache, which is cold
        // here, so every pair is computed once.
        if S::ENABLED {
            self.ground_truth_links = self.medium.ground_truth_links(self.world);
            self.sink.event(&TraceEvent::PhaseEnter {
                slot: 0,
                phase: P::START_PHASE,
            });
        }
        let mut convergence: Option<u64> = None;
        let mut reconvergence: Option<u64> = None;
        // Fault-free runs stop at the first successful convergence
        // probe (the paper's metric). With scheduled faults the run
        // keeps going until a probe succeeds *after* the last fault, so
        // graceful degradation (re-convergence time) is observable.
        let last_fault = self.last_fault_slot;
        let max_slots = self.world.config().sim.max_slots.0;
        if EV {
            self.schedule_initial(&proto);
        }
        // The slot whose convergence probe ended the run; `None` when
        // the horizon did.
        let stopped = loop {
            // Acquire the next slot: the event-driven loop pops the
            // wake set and skips ahead, the stepped loop materializes
            // every slot.
            let s = if EV {
                match self.next_wake(max_slots) {
                    Some(s) => s,
                    None => break None,
                }
            } else if self.synced_next < max_slots {
                self.synced_next
            } else {
                break None;
            };
            if EV {
                self.skip_to(s);
            }
            let probe = self.slot_body(&mut proto, Slot(s));
            self.synced_next = s + 1;
            if let Some(c) = probe {
                convergence.get_or_insert(c);
                match last_fault {
                    None => break Some(s),
                    Some(l) if c > l => {
                        reconvergence = Some(c - l);
                        break Some(s);
                    }
                    _ => {}
                }
            }
            if EV {
                self.post_schedule(&mut proto, s);
            }
        };

        if S::ENABLED {
            // A run that reaches the horizon ends in its last slot under
            // both engines, materialized or not.
            self.sink.event(&TraceEvent::RunEnd {
                slot: stopped.unwrap_or(max_slots.saturating_sub(1)),
                converged: convergence.is_some(),
            });
            self.sink.finish();
        }
        // Frame-fault totals live in `Counters`; they reach the recorder
        // once, here (absent when zero).
        let c = self.counters;
        if c.fault_dropped_frames > 0 {
            self.rec.add("chaos.frames_dropped", c.fault_dropped_frames);
        }
        if c.fault_dup_frames > 0 {
            self.rec.add("chaos.frames_duplicated", c.fault_dup_frames);
        }
        // A trace's per-slot statistics catch every live clock up on
        // each materialized slot, which splits the catch-ups these two
        // keys count: their totals would measure the sink, not the run,
        // so a traced run leaves both out.
        if EV && R::ENABLED && !S::ENABLED {
            self.rec.add("osc.cursor_warps", self.clocks.warps);
            self.rec.add("osc.literal_advances", self.clocks.literal);
        }
        self.rec.stop("engine.run_ns", t_run);

        let sum = |f: fn(&Device) -> u64| self.devices.iter().map(f).sum();
        let services = self.world.services();
        let mut out = RunOutcome {
            convergence_time: convergence.map(SlotDuration),
            tree_edges: Vec::new(),
            merge_rounds: 0,
            discovered_links: sum(|d| d.table.discovered() as u64),
            ground_truth_links: self.medium.ground_truth_links(self.world),
            service_matches: self
                .devices
                .iter()
                .map(|d| d.table.service_matches(d.service, services).count() as u64)
                .sum(),
            n_devices: self.devices.len(),
            reconvergence_time: reconvergence.map(SlotDuration),
            orphaned_fragments: 0,
            counters: self.counters,
        };
        proto.finish(&mut out);
        out
    }

    /// Seed the wake queue: the first convergence probe, every device's
    /// first natural fire (a device whose oscillator needs `k` ticks
    /// fires in slot `k - 1`: slot bodies tick once each, starting at
    /// slot 0) and every churn slot (joins/leaves happen at the top of
    /// the slot body).
    fn schedule_initial<P: Protocol>(&mut self, proto: &P) {
        if proto.probing() {
            self.push_wake(0);
        }
        for i in 0..self.devices.len() {
            let k = u64::from(self.devices[i].osc.ticks_to_next_fire());
            self.push_wake(k - 1);
            // A device that starts powered off is predicted at its join.
            if self.active[i] {
                self.clocks.predict(i, k - 1);
            }
        }
        for i in 0..self.churn_events.len() {
            let at = self.churn_events[i].slot;
            self.push_wake(at);
        }
    }

    /// Pop the next slot to materialize. The set already coalesced
    /// duplicates and dropped stale pushes, so every pop is a distinct,
    /// strictly increasing slot; `None` ends the run (pops are ordered,
    /// so once one reaches the horizon every remaining candidate is
    /// past it too).
    fn next_wake(&mut self, max_slots: u64) -> Option<u64> {
        if R::ENABLED {
            self.flush_wake_stats();
        }
        let s = self.wake.pop()?;
        debug_assert!(s >= self.synced_next, "wake set popped a processed slot");
        if s >= max_slots {
            return None;
        }
        self.rec.add("engine.wakeups_fired", 1);
        if R::ENABLED {
            self.rec
                .observe("engine.wake_heap_depth", self.wake.pending() as u64);
        }
        Some(s)
    }

    /// Skip the run's clock over the unmaterialized slots
    /// `[synced_next, s)`. No device is visited here: each one catches
    /// up on those pure ticks when it is next read or changed (see
    /// [`LazyClocks`]), so the skip costs O(1) whatever `n` is.
    fn skip_to(&mut self, s: u64) {
        let ticks = s - self.synced_next;
        if ticks == 0 {
            return;
        }
        self.synced_next = s;
        self.rec.add("engine.slots_skipped", ticks);
    }

    /// Bring device `i`'s oscillator up to the start of slot `to`.
    fn sync(&mut self, i: usize, to: u64) {
        self.clocks.sync(i, &mut self.devices[i].osc, to);
    }

    /// Bring every live oscillator up to the start of slot `to`, before
    /// the convergence probe or the trace's slot statistics read all
    /// phases.
    fn sync_all(&mut self, to: u64) {
        for i in 0..self.devices.len() {
            if self.active[i] {
                self.sync(i, to);
            }
        }
    }

    /// Re-arm the wake queue after materializing slot `s`: re-derive the
    /// trajectory cursor of every device whose phase changed (from its
    /// canonical reset phase) and re-predict its fire, chain the next
    /// convergence probe, then add the protocol's own wakes.
    fn post_schedule<P: Protocol>(&mut self, proto: &mut P, s: u64) {
        while let Some(v) = self.touched.pop() {
            let i = v as usize;
            self.sync(i, s + 1);
            let phase = self.devices[i].osc.phase();
            // The shared trajectory is tabulated for the nominal
            // period; clock-skewed devices must tick literally.
            let cur = if self.skewed[i] {
                None
            } else {
                self.clocks.traj.cursor_for_start(phase)
            };
            self.clocks.cursors[i] = cur;
            let k = match cur {
                Some(c) => {
                    self.rec.add("osc.cursor_derived", 1);
                    u64::from(self.clocks.traj.ticks_to_fire(c))
                }
                None => {
                    self.rec.add("osc.cursor_fallback", 1);
                    u64::from(self.devices[i].osc.ticks_to_next_fire())
                }
            };
            self.push_wake(s + k);
            self.clocks.predict(i, s + k);
        }
        // Each probe re-arms the next one on the grid.
        if proto.probing() {
            self.push_wake(s + (SYNC_CHECK_INTERVAL - s % SYNC_CHECK_INTERVAL));
        }
        proto.after_slot(self, s);
    }

    /// Apply every scheduled churn event due at or before `slot`. In
    /// event-driven mode every churn slot is pre-scheduled as a wake, so
    /// both strategies apply each event in exactly its scheduled slot.
    /// A rejoining device comes back amnesiac: its neighbour table is
    /// emptied in place.
    fn apply_churn<P: Protocol>(&mut self, proto: &mut P, slot: Slot) {
        let first = self.next_churn;
        while self.next_churn < self.churn_events.len()
            && self.churn_events[self.next_churn].slot <= slot.0
        {
            let ChurnEvent { device, kind, .. } = self.churn_events[self.next_churn];
            self.next_churn += 1;
            self.rec.add("chaos.churn_events", 1);
            let d = device as usize;
            match kind {
                ChurnKind::Leave if self.active[d] => {
                    if EV {
                        // Freeze the oscillator at its state entering
                        // this slot, as the stepped loop's tick skip does.
                        self.sync(d, slot.0);
                        self.clocks.fire_at[d] = NEVER;
                    }
                    self.active[d] = false;
                    self.live -= 1;
                    let orphaned = proto.on_leave(self, device);
                    if S::ENABLED {
                        self.sink.event(&TraceEvent::DeviceLeft {
                            slot: slot.0,
                            device,
                            orphaned,
                        });
                    }
                }
                ChurnKind::Join if !self.active[d] => {
                    self.active[d] = true;
                    self.live += 1;
                    self.devices[d].table.clear();
                    proto.on_join(self, device);
                    if EV {
                        // The thawed oscillator resumes from its frozen
                        // state with this slot's tick. Predict its next
                        // fire, which may be this very slot; after the
                        // slot it is re-predicted like any touched
                        // device.
                        self.clocks.synced[d] = slot.0;
                        let k = match self.clocks.cursors[d] {
                            Some(c) => self.clocks.traj.ticks_to_fire(c),
                            None => self.devices[d].osc.ticks_to_next_fire(),
                        };
                        self.clocks.predict(d, slot.0 + u64::from(k) - 1);
                        self.touched.push(device);
                    }
                    if S::ENABLED {
                        self.sink.event(&TraceEvent::DeviceJoined {
                            slot: slot.0,
                            device,
                        });
                    }
                }
                _ => {}
            }
        }
        if self.next_churn > first {
            proto.after_churn(self, slot);
        }
    }

    /// One materialized slot, wrapped in a scoped timer when a recorder
    /// listens. The key comes from the protocol *at slot entry*, so a
    /// phase transition inside the body bills to the phase that paid
    /// for the work.
    fn slot_body<P: Protocol>(&mut self, proto: &mut P, slot: Slot) -> Option<u64> {
        if !R::ENABLED {
            return self.slot_body_inner(proto, slot);
        }
        let key = proto.slot_key();
        let t_slot = self.rec.start();
        let probe = self.slot_body_inner(proto, slot);
        self.rec.add("engine.slots_materialized", 1);
        self.rec.stop(key, t_slot);
        probe
    }

    /// One materialized slot — the body shared verbatim by both
    /// strategies. Returns `Some(slot)` when convergence is declared.
    fn slot_body_inner<P: Protocol>(&mut self, proto: &mut P, slot: Slot) -> Option<u64> {
        let s = slot.0;
        // Scheduled churn fires before anything else in the slot, so a
        // join participates (and a leave is silent) from this slot on.
        if self.next_churn < self.churn_events.len() {
            self.apply_churn(proto, slot);
        }
        proto.step(self, slot);
        self.broadcast(proto, slot);

        // Per-slot population summary — the "slot tick" of the trace.
        // O(n log n), gathered only when a sink listens. The event loop
        // first catches every oscillator up on this slot's tick, the
        // same split catch-up the convergence probe makes.
        if S::ENABLED {
            if EV {
                self.sync_all(s + 1);
            }
            let fragments = proto.fragments(self);
            let phase_spread = self.phase_spread();
            let discovered_links = self
                .devices
                .iter()
                .map(|d| d.table.discovered() as u64)
                .sum();
            self.sink.event(&TraceEvent::SlotStats {
                slot: s,
                fragments,
                phase_spread,
                discovered_links,
                ground_truth_links: self.ground_truth_links,
            });
        }

        // Convergence: all live phases within one slot of each other.
        if proto.probing() && s.is_multiple_of(SYNC_CHECK_INTERVAL) && !self.devices.is_empty() {
            if EV {
                self.sync_all(s + 1);
            }
            if self.phase_spread() <= self.tol {
                if S::ENABLED {
                    self.sink.event(&TraceEvent::Converged { slot: s });
                }
                return Some(s);
            }
        }
        None
    }

    /// Smallest covering arc of the population's phases, in turns.
    /// Departed devices keep their frozen oscillators but are absent
    /// from the air, so they are excluded from the convergence metric.
    fn phase_spread(&mut self) -> f64 {
        self.phases_scratch.clear();
        self.phases_scratch.extend(
            self.devices
                .iter()
                .enumerate()
                .filter(|(i, _)| self.active[*i])
                .map(|(_, d)| d.osc.phase()),
        );
        ffd2d_osc::sync::phase_spread(&self.phases_scratch)
    }

    /// Fire the devices predicted to fire naturally in `slot`, in
    /// ascending id so their jitter draws keep the stepped loop's order.
    /// A prediction holds only while the device is untouched, and a
    /// fire resets phase and refractory count whatever they were, so the
    /// oscillator needs no catch-up first.
    fn fire_due(&mut self, slot: Slot) {
        let s = slot.0;
        let mut due = core::mem::take(&mut self.due_scratch);
        self.clocks.due.pop_due(s, &mut due);
        for &d in &due {
            let i = d as usize;
            if self.clocks.fire_at[i] != s {
                continue; // re-predicted since this entry was pushed
            }
            debug_assert!(self.active[i], "departed device {d} fired");
            #[cfg(debug_assertions)]
            {
                let mut probe = self.devices[i].osc;
                let skipped = probe.advance_by(s - self.clocks.synced[i]);
                assert!(
                    skipped == 0 && probe.tick(),
                    "device {d} mispredicted at slot {s}"
                );
            }
            self.devices[i].osc.force_fire();
            self.clocks.synced[i] = s + 1;
            self.touched.push(d);
            self.enqueue_fire(d, slot, 0, 0);
        }
        self.due_scratch = due;
    }

    /// Queue a staggered fire transmission for a device whose firing
    /// instant was `base_age` slots ago (0 for a natural threshold
    /// crossing; the absorbing pulse's age for an absorption).
    fn enqueue_fire(&mut self, id: DeviceId, slot: Slot, min_jitter: u64, base_age: u8) {
        let j = self.rng.gen_range(min_jitter..FIRE_JITTER);
        let at = (slot.0 + j) as usize % FIRE_RING;
        self.fire_queue[at].push((id, base_age.saturating_add(j as u8)));
        if EV && j > 0 {
            // Jittered transmissions land in a future slot, which must
            // be materialized for the ring take to find them (`j = 0`
            // entries are taken later in the *current*, already
            // materialized slot).
            self.push_wake(slot.0 + j);
        }
    }

    /// One slot of broadcast traffic: tick oscillators, transmit due
    /// (staggered) fires plus the protocol's frames through the medium,
    /// and couple decoded pulses with age compensation.
    fn broadcast<P: Protocol>(&mut self, proto: &mut P, slot: Slot) {
        // Natural fires from the slot tick: the event-driven loop pops
        // them off the prediction queue; the stepped loop ticks every
        // oscillator.
        if EV {
            self.fire_due(slot);
        } else {
            for i in 0..self.devices.len() {
                if !self.active[i] {
                    continue; // departed devices are frozen
                }
                if self.devices[i].osc.tick() {
                    self.enqueue_fire(i as DeviceId, slot, 0, 0);
                }
            }
        }
        // Due transmissions. The ring bucket and the transmission list
        // are reusable scratch: taken here, returned below with their
        // capacity intact, so steady-state slots allocate nothing.
        let ring_at = slot.0 as usize % FIRE_RING;
        let mut due = core::mem::take(&mut self.fire_queue[ring_at]);
        let mut pending = core::mem::take(&mut self.pending_scratch);
        pending.clear();
        pending.extend(
            due.iter()
                // A device that left after staggering a fire never
                // transmits it.
                .filter(|&&(id, _)| self.active[id as usize])
                .map(|&(id, age)| ProximitySignal {
                    sender: id,
                    service: self.devices[id as usize].service,
                    kind: FrameKind::Fire {
                        fragment: self.devices[id as usize].fragment,
                        age,
                    },
                }),
        );
        due.clear();
        self.fire_queue[ring_at] = due;
        proto.extra_frames(self, slot, &mut pending);
        if pending.is_empty() {
            self.pending_scratch = pending;
            return;
        }

        let mut absorbed: Vec<(DeviceId, u8)> = Vec::new();
        let mut frames: Vec<(DeviceId, ProximitySignal)> = Vec::new();
        let mut fault_drops = 0u64;
        let mut fault_dups = 0u64;
        {
            let faults = &self.world.config().faults;
            let has_frame_faults = faults.has_frame_faults();
            let chaos_key = self.chaos_key;
            let devices = &mut self.devices;
            let prc = &self.prc;
            let touched = &mut self.touched;
            let clocks = &mut self.clocks;
            self.medium.resolve(
                self.world,
                slot,
                &pending,
                &self.active,
                self.live,
                &mut self.counters,
                &mut *self.sink,
                &mut *self.rec,
                |receiver, sig, rx_dbm, sink| {
                    // Frame faults apply here, after the decode decision
                    // (contract 3 of the module docs).
                    let mut copies = 1u32;
                    if has_frame_faults {
                        let fault = match faults.frame_fate(chaos_key, slot.0, sig.sender, receiver)
                        {
                            FrameFate::Deliver => None,
                            FrameFate::Drop => {
                                fault_drops += 1;
                                copies = 0;
                                Some(FaultKind::FrameDrop)
                            }
                            FrameFate::Duplicate => {
                                fault_dups += 1;
                                copies = 2;
                                Some(FaultKind::FrameDup)
                            }
                        };
                        if let Some(kind) = fault.filter(|_| S::ENABLED) {
                            sink.event(&TraceEvent::FaultInjected {
                                slot: slot.0,
                                device: receiver,
                                sender: sig.sender,
                                kind,
                            });
                        }
                    }
                    for _ in 0..copies {
                        let FrameKind::Fire { fragment, age } = sig.kind else {
                            frames.push((receiver, *sig));
                            continue;
                        };
                        let dev = &mut devices[receiver as usize];
                        dev.table
                            .observe_fire(sig.sender, Dbm(rx_dbm), fragment, slot);
                        if !P::couples(age) {
                            continue;
                        }
                        if EV {
                            // A pulse the coupling rule ignores leaves
                            // the oscillator alone; any other needs it
                            // to reflect this slot's tick first.
                            if !dev.couples_to(sig.sender) {
                                continue;
                            }
                            clocks.sync(receiver as usize, &mut dev.osc, slot.0 + 1);
                        }
                        let before = if S::ENABLED || EV {
                            dev.osc.phase()
                        } else {
                            0.0
                        };
                        let fired = dev.hear_fire_delayed(sig.sender, prc, age as u32);
                        if S::ENABLED || EV {
                            let after = dev.osc.phase();
                            if S::ENABLED && (after != before || fired) {
                                sink.event(&TraceEvent::PhaseAdjust {
                                    slot: slot.0,
                                    device: receiver,
                                    sender: sig.sender,
                                    before,
                                    after,
                                    absorbed: fired,
                                });
                            }
                            if EV && (after != before || fired) {
                                touched.push(receiver);
                            }
                        }
                        if fired {
                            absorbed.push((receiver, age));
                        }
                    }
                },
            );
        }
        self.counters.add_fault_dropped_frames(fault_drops);
        self.counters.add_fault_dup_frames(fault_dups);
        proto.on_frames(self, slot, frames);
        // Absorbed devices fire now; their transmissions stagger into
        // the following slots.
        for (id, age) in absorbed {
            self.enqueue_fire(id, slot, 1, age);
        }
        self.pending_scratch = pending;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use ffd2d_telemetry::NullRecorder;
    use ffd2d_trace::NullSink;

    /// The churned device and its schedule.
    const DEV: DeviceId = 3;
    const LEAVE: u64 = 300;
    const JOIN: u64 = 500;

    /// Checks the amnesia contract from inside the churn hooks: the
    /// device leaves knowing its neighbours and rejoins knowing none.
    #[derive(Default)]
    struct Amnesia {
        left_knowing: u32,
        joins: u32,
    }

    impl Protocol for Amnesia {
        const START_PHASE: ProtoPhase = ProtoPhase::Sync;

        fn new<S: TraceSink, R: Recorder, const EV: bool>(
            _: &mut SlotRuntime<'_, S, R, EV>,
        ) -> Self {
            Amnesia::default()
        }

        fn probing(&self) -> bool {
            false
        }

        fn on_leave<S: TraceSink, R: Recorder, const EV: bool>(
            &mut self,
            rt: &mut SlotRuntime<'_, S, R, EV>,
            d: DeviceId,
        ) -> u32 {
            self.left_knowing = rt.devices[d as usize].table.discovered();
            0
        }

        fn on_join<S: TraceSink, R: Recorder, const EV: bool>(
            &mut self,
            rt: &mut SlotRuntime<'_, S, R, EV>,
            d: DeviceId,
        ) {
            let table = &rt.devices[d as usize].table;
            assert_eq!(table.discovered(), 0);
            assert!((0..rt.devices.len() as DeviceId).all(|x| table.get(x).is_none()));
            assert_eq!(table.iter().count(), 0);
            self.joins += 1;
        }

        fn finish(self, _out: &mut RunOutcome) {
            assert!(
                self.left_knowing > 0,
                "device {DEV} left before hearing anyone"
            );
            assert_eq!(self.joins, 1);
        }
    }

    #[test]
    fn rejoin_forgets_every_neighbour() {
        let plan = FaultPlan {
            churn: vec![
                ChurnEvent {
                    slot: LEAVE,
                    device: DEV,
                    kind: ChurnKind::Leave,
                },
                ChurnEvent {
                    slot: JOIN,
                    device: DEV,
                    kind: ChurnKind::Join,
                },
            ],
            ..FaultPlan::none()
        };
        for engine in [EngineMode::Stepped, EngineMode::EventDriven] {
            let cfg = ScenarioConfig::table1(12)
                .seeded(5)
                .with_max_slots(SlotDuration(800))
                .with_engine(engine)
                .with_faults(plan.clone());
            let out = run::<Amnesia, _, _>(&World::new(&cfg), &mut NullSink, &mut NullRecorder);
            // After the rejoin the device relearns its neighbourhood.
            assert!(out.discovered_links > 0);
        }
    }
}
