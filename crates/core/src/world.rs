//! The per-trial world and its fast shared medium.
//!
//! [`World`] instantiates one trial of a scenario: the deployment, a
//! spatial-grid neighbor index over it, the ground-truth proximity graph
//! of §IV (edges where the long-term PS strength clears the −95 dBm
//! threshold, weighted by that strength; built lazily on first use) and
//! the per-device service interests.
//!
//! ## Why a second medium implementation
//!
//! `ffd2d_phy::Medium` is the reference resolver: it re-samples the
//! channel per (tx, rx) pair through the full `Channel` stack and is
//! exactly right for protocol-correctness tests. The figure sweeps,
//! however, run populations of thousands of devices for tens of
//! thousands of slots — the hot loop is `(transmissions × receivers)`
//! per slot. [`FastMedium`] implements the *same*
//! decode/collision/capture semantics with three optimisations:
//!
//! 1. **Spatial pruning.** Devices are bucketed into a
//!    [`SpatialGrid`] whose cell side is the worst-case audibility
//!    radius — the distance at which even the most favourable
//!    shadowing/fading realisation cannot reach the detection threshold
//!    (`ChannelConfig::max_audible_range`). Collision resolution is
//!    batched per grid cell: each transmission is posted to the cells
//!    its audibility disc covers, then receivers are walked cell by
//!    cell. Pairs outside the disc are *provably* inaudible, so —
//!    unlike a statistical fade margin — pruning changes no decode
//!    decision, for any seed.
//! 2. **Epoch-keyed link-state cache.** There is no up-front `n × n`
//!    gain matrix: mean link powers (path loss + shadowing) are pure
//!    functions of device positions, so they are computed **once per
//!    mobility epoch** by a batched kernel — one row per (sender, grid
//!    cell), aligned with the cell's occupant list — and reused across
//!    every subsequent slot of the epoch. Fading remains the only
//!    per-slot keyed draw, so caching is provably bit-identical: no RNG
//!    stream is touched. The cache is flushed when
//!    [`World::mobility_epoch`] moves (re-bucketing); engine-reported
//!    churn ([`FastMedium::note_churn_of`]) stales only the churned
//!    senders' rows via per-row membership stamps, which refill in
//!    place on next use. Memory is one `f64`
//!    per cached directed (sender, cell-occupant) pair — proportional
//!    to the audible-pair count actually exercised, not `n²` of the
//!    whole arena (they coincide only when every device is audible to
//!    every other and every device transmits).
//! 3. **Epoch-stamped accumulators.** Per-(receiver, codec) collision
//!    state is slot-stamped, so a slot costs O(candidates) with zero
//!    allocation, and delivery order is fixed by sorting touched keys.
//!
//! Counters are reconstructed exactly: a detected pair increments the
//! accumulator, and the below-threshold tally is recovered as
//! `(#transmissions × #non-transmitting receivers) − #detected`, which
//! is what the reference resolver counts pair by pair. Equivalence with
//! the reference resolver is pinned by tests in this module and by the
//! `medium_equivalence` integration harness.

use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

use rand::Rng;

use ffd2d_graph::adjacency::WeightedGraph;
use ffd2d_graph::spatial::SpatialGrid;
use ffd2d_graph::weight::W;
use ffd2d_parallel::sharded_for_each_weighted;
use ffd2d_phy::codec::{RachCodec, ServiceClass};
use ffd2d_phy::frame::ProximitySignal;
use ffd2d_radio::channel::{Channel, ChannelConfig};
use ffd2d_radio::fading::FadingModel;
use ffd2d_radio::pathloss::PathLoss;
use ffd2d_radio::shadowing::ShadowingField;
use ffd2d_radio::units::Dbm;
use ffd2d_sim::counters::Counters;
use ffd2d_sim::deployment::{Deployment, DeviceId, Meters, Position};
use ffd2d_sim::rng::{StreamId, StreamRng};
use ffd2d_sim::time::Slot;
use ffd2d_telemetry::{NullRecorder, Recorder};
use ffd2d_trace::{NullSink, TraceEvent, TraceSink};

use crate::scenario::{GainCacheMode, ScenarioConfig};

/// Floor on the grid cell side relative to the arena: at most 256×256
/// cells, so degenerate configurations (tiny radius in a huge arena)
/// cannot blow up cell-index memory.
const MAX_CELLS_PER_AXIS: f64 = 256.0;

/// One trial's fully-instantiated world.
#[derive(Debug, Clone)]
pub struct World {
    cfg: ScenarioConfig,
    deployment: Deployment,
    /// Spatial index over device positions; cell side = worst-case
    /// audibility radius (clamped to the arena diagonal).
    grid: SpatialGrid,
    /// Ground-truth §IV proximity graph, built lazily on first access
    /// via the grid (construction is O(n · occupancy), not O(n²)).
    graph: OnceLock<WeightedGraph>,
    /// Per-device service interests.
    services: Vec<ServiceClass>,
    // Decomposed channel state, so mean powers are computable on demand
    // without re-borrowing the deployment through a `Channel`.
    tx_power: Dbm,
    pathloss: PathLoss,
    shadowing: ShadowingField,
    fading: FadingModel,
    fading_seed: u64,
    threshold_dbm: f64,
    capture_margin_db: f64,
    /// Provable fading headroom: mean below `threshold − headroom` can
    /// never be detected.
    fade_headroom_db: f64,
    /// Worst-case audibility radius (any realisation), clamped to the
    /// arena diagonal — the medium's grid-query radius.
    audible_range_m: f64,
    /// Worst-case *mean*-link radius (shadowing only) — the proximity
    /// graph's candidate radius.
    mean_link_range_m: f64,
}

impl World {
    /// Instantiate the world for `cfg` (deterministic in `cfg.sim.seed`).
    pub fn new(cfg: &ScenarioConfig) -> World {
        // ffd2d-lint: allow(panic-discipline) — constructor precondition: an invalid scenario must abort at startup, before any trial state exists; this never runs in the per-slot path
        cfg.validate().expect("invalid scenario");
        let seed = cfg.sim.seed;
        let n = cfg.sim.n_devices;
        let mut dep_rng = StreamRng::new(seed, 0, StreamId::Deployment);
        let deployment =
            Deployment::uniform(n, cfg.sim.area_width, cfg.sim.area_height, &mut dep_rng);

        let (w, h) = (cfg.sim.area_width.get(), cfg.sim.area_height.get());
        let diagonal = (w * w + h * h).sqrt();
        let audible_range_m = cfg.channel.max_audible_range().get().min(diagonal);
        let mean_link_range_m = cfg.channel.max_mean_link_range().get().min(diagonal);
        let cell = audible_range_m.max(w.max(h) / MAX_CELLS_PER_AXIS);
        let grid = SpatialGrid::new(w, h, cell, &deployment.coords());

        let mut svc_rng = StreamRng::new(seed, 0, StreamId::Services);
        let services = (0..n)
            .map(|_| ServiceClass::new(svc_rng.gen_range(0..cfg.protocol.service_classes)))
            .collect();

        World {
            deployment,
            grid,
            graph: OnceLock::new(),
            services,
            tx_power: cfg.channel.tx_power,
            pathloss: cfg.channel.pathloss,
            // Mirrors `Channel::new` exactly, so on-demand means are
            // bit-identical to `Channel::mean_rx_power`.
            // ffd2d-lint: allow(rng-discipline) — domain-separation tags mirroring Channel::new byte for byte; routing through a helper would decouple the two copies the comment above ties together
            shadowing: ShadowingField::new(seed ^ 0x5AD0, cfg.channel.shadowing_sigma_db),
            fading: cfg.channel.fading,
            fading_seed: seed ^ 0xFAD0, // ffd2d-lint: allow(rng-discipline) — same Channel::new mirror as the shadowing tag above
            threshold_dbm: cfg.channel.detection_threshold.get(),
            capture_margin_db: 6.0,
            fade_headroom_db: cfg.channel.fade_headroom_db(),
            audible_range_m,
            mean_link_range_m,
            cfg: cfg.clone(),
        }
    }

    /// Number of devices.
    #[inline]
    pub fn n(&self) -> usize {
        self.deployment.len()
    }

    /// The scenario this world was built from.
    pub fn config(&self) -> &ScenarioConfig {
        &self.cfg
    }

    /// The deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The spatial neighbor index over the current positions.
    pub fn spatial_grid(&self) -> &SpatialGrid {
        &self.grid
    }

    /// Ground-truth proximity graph (edges = long-term audible links,
    /// weights = mean PS strength in dBm). Built lazily on first call;
    /// candidate pairs come from the spatial grid at the worst-case
    /// mean-link radius, so construction never scans inaudible pairs.
    pub fn proximity_graph(&self) -> &WeightedGraph {
        self.graph.get_or_init(|| self.build_proximity_graph())
    }

    fn build_proximity_graph(&self) -> WeightedGraph {
        let n = self.n();
        let mut g = WeightedGraph::new(n);
        let mut candidates: Vec<DeviceId> = Vec::new();
        for a in 0..n as DeviceId {
            let p = self.deployment.position(a);
            candidates.clear();
            self.grid
                .within(p.x, p.y, self.mean_link_range_m, &mut candidates);
            // `within` returns ids ascending, so edges are inserted in
            // the same (a asc, b asc) order as a dense double loop.
            for &b in &candidates {
                if b > a {
                    let w = self.mean_rx_dbm(a, b);
                    if w >= self.threshold_dbm {
                        g.add_edge(a, b, W::new(w));
                    }
                }
            }
        }
        g
    }

    /// Per-device service interests.
    pub fn services(&self) -> &[ServiceClass] {
        &self.services
    }

    /// Detection threshold in dBm.
    #[inline]
    pub fn threshold_dbm(&self) -> f64 {
        self.threshold_dbm
    }

    /// Provable fading headroom in dB (`FadingModel::max_gain_db`).
    #[inline]
    pub fn fade_headroom_db(&self) -> f64 {
        self.fade_headroom_db
    }

    /// Worst-case audibility radius in meters — the spatial-grid query
    /// radius used by the medium.
    #[inline]
    pub fn audible_range_m(&self) -> f64 {
        self.audible_range_m
    }

    /// Candidate receivers of `tx`: every device within the worst-case
    /// audibility radius, ascending, excluding `tx` itself. A device
    /// outside this set can never detect `tx`, for any seed.
    pub fn audible_candidates(&self, tx: DeviceId) -> Vec<DeviceId> {
        let p = self.deployment.position(tx);
        let mut out = Vec::new();
        self.grid.within(p.x, p.y, self.audible_range_m, &mut out);
        out.retain(|&b| b != tx);
        out
    }

    /// Long-term mean received power of link `a → b` in dBm, computed
    /// on demand (path loss + shadowing; bit-identical to
    /// `Channel::mean_rx_power`). `NEG_INFINITY` on the diagonal.
    #[inline]
    pub fn mean_rx_dbm(&self, a: DeviceId, b: DeviceId) -> f64 {
        if a == b {
            return f64::NEG_INFINITY;
        }
        let d = self.deployment.distance(a, b);
        (self.tx_power - self.pathloss.loss(d) + self.shadowing.sample(a, b)).get()
    }

    /// Batched [`World::mean_rx_dbm`]: append the mean link gain
    /// `sender → r` for every `r` in `receivers` to `out`, in order, in
    /// one pass over positions. Delegates to the radio layer's
    /// [`ffd2d_radio::channel::fill_mean_rx_dbm`] kernel, so element
    /// `j` is bit-identical to `mean_rx_dbm(sender, receivers[j])`,
    /// including the `NEG_INFINITY` self-pair sentinel.
    pub fn fill_mean_rx_dbm(&self, sender: DeviceId, receivers: &[DeviceId], out: &mut Vec<f64>) {
        ffd2d_radio::channel::fill_mean_rx_dbm(
            &self.deployment,
            self.tx_power,
            self.pathloss,
            &self.shadowing,
            sender,
            receivers,
            out,
        );
    }

    /// Instantaneous received power (mean + block fading) in dBm.
    #[inline]
    pub fn rx_dbm(&self, a: DeviceId, b: DeviceId, slot: Slot) -> f64 {
        self.mean_rx_dbm(a, b) + self.fading.gain(self.fading_seed, a, b, slot).get()
    }

    /// True distance between two devices.
    pub fn distance(&self, a: DeviceId, b: DeviceId) -> Meters {
        self.deployment.distance(a, b)
    }

    /// The channel config in force.
    pub fn channel_config(&self) -> &ChannelConfig {
        &self.cfg.channel
    }

    /// Rebuild the reference channel (borrowing this world's
    /// deployment) — for tests that cross-check the fast path.
    pub fn reference_channel(&self) -> Channel<'_> {
        Channel::new(
            &self.deployment,
            self.cfg.channel.clone(),
            self.cfg.sim.seed,
        )
    }

    /// Monotone mobility epoch: advances exactly when device positions
    /// are (re-)bucketed into the spatial grid — at construction and on
    /// every [`World::update_positions`]. Attached media key their
    /// link-state caches on this value: mean link gains are pure
    /// functions of positions, so entries are valid for precisely as
    /// long as the epoch stands still.
    #[inline]
    pub fn mobility_epoch(&self) -> u64 {
        self.grid.generation()
    }

    /// Move every device (e.g. to a `MobilityField` snapshot): clamps
    /// into the arena, re-buckets the spatial grid in O(n) (which
    /// advances [`World::mobility_epoch`], so attached [`FastMedium`]s
    /// discard their cached link state) and drops the lazily-built
    /// proximity graph.
    ///
    /// The shadowing field is positional only through the path loss (a
    /// per-link draw, the standard correlated-shadowing simplification),
    /// so mean powers after the move remain bit-identical to a fresh
    /// `Channel` over the moved deployment.
    pub fn update_positions(&mut self, positions: &[Position]) {
        self.deployment.set_positions(positions);
        self.grid.rebucket(&self.deployment.coords());
        self.graph = OnceLock::new();
    }
}

/// Mobility-epoch-keyed link-state cache: one row of mean link gains
/// (dBm) per `(sender, grid cell)`, aligned element-for-element with
/// `SpatialGrid::cell_items(cell)` so the accumulation inner loop reads
/// `row[j]` by the receiver's position in its cell — no per-pair hashing
/// or probing. Rows are filled by the batched kernel
/// ([`World::fill_mean_rx_dbm`]) the first time a sender's disc touches
/// a cell within an epoch, then reused by every later slot; the whole
/// store is flushed when the validity key (mobility epoch, churn
/// generation) moves. Values are pure functions of positions, so a
/// cached read is bit-identical to recomputation by construction.
#[derive(Debug, Default)]
struct GainCache {
    /// [`World::mobility_epoch`] the entries are valid for. `0` never
    /// matches a live world (its first bucketing already advanced the
    /// epoch to 1), so a fresh cache syncs on first use. Position
    /// changes re-bucket the grid, so they flush the whole store;
    /// population churn is handled per sender via `device_gen`.
    valid_for: u64,
    /// `(sender << 32) | cell` → index into `rows`. Lookup-only (never
    /// iterated), so map order cannot leak into results.
    // ffd2d-lint: allow(ordered-iteration) — lookup-only by construction: the only reads are `get` in row_for/publish; no iteration exists for hash order to escape through
    index: HashMap<u64, u32>,
    rows: Vec<Vec<f64>>,
    /// Per-row membership stamp, parallel to `rows`: the sender's
    /// `device_gen` at fill time. A row is served only while the stamps
    /// still agree; otherwise it is refilled in place.
    row_gen: Vec<u64>,
    /// Per-sender churn stamp: bumped by [`FastMedium::note_churn_of`]
    /// for exactly the devices a join/leave touched, so rows of
    /// unaffected senders survive churn. Sized lazily to the world.
    device_gen: Vec<u64>,
    /// Monotone churn-event counter feeding `device_gen` stamps.
    churn_gen: u64,
}

impl GainCache {
    /// Flush every entry and stamp the store valid for mobility epoch
    /// `key`. Membership stamps persist — they are monotone and only
    /// compared for equality, so surviving them is harmless.
    fn reset(&mut self, key: u64) {
        self.valid_for = key;
        self.index.clear();
        self.rows.clear();
        self.row_gen.clear();
    }

    /// The membership stamp rows by `sender` must carry to be served.
    #[inline]
    fn sender_gen(&self, sender: DeviceId) -> u64 {
        self.device_gen.get(sender as usize).copied().unwrap_or(0)
    }
}

/// Where an accumulation row lives: the shared epoch cache (read-only
/// under sharding) or the shard's private fills from this slot.
#[derive(Clone, Copy)]
enum RowRef {
    Shared(u32),
    Local(u32),
}

/// Epoch-stamped slot resolver with the same semantics as
/// [`ffd2d_phy::Medium`]: per receiver and codec, a lone above-threshold
/// signal decodes; several collide unless the strongest beats the
/// runner-up by the capture margin; transmitters are half-duplex deaf.
///
/// A `FastMedium` is bound to the [`World`] it first resolves against:
/// its cached link state is keyed by device ids and grid cells and
/// invalidated via [`World::mobility_epoch`]. Do not share one across
/// worlds.
///
/// ## Intra-run parallelism
///
/// When the world's [`ScenarioConfig::parallelism`] engages, the
/// accumulation phase shards the (sorted) touched-cell list into
/// contiguous chunks balanced by candidate-pair weight (transmissions ×
/// occupants per cell, so one hot cell cannot serialize the slot), one
/// scoped worker per chunk, each with its own
/// persistent `ShardScratch`. A receiver lives in exactly one grid
/// cell, so its `(receiver, codec)` accumulators are written by exactly
/// one shard, in the same cell-ascending / submission order the
/// sequential loop uses — the accumulated `best`/`second`/`count` are
/// bit-identical for any worker count. Delivery (counters, trace
/// events, the `deliver` callback) then runs sequentially over all
/// shards' touched keys in globally sorted order, which is exactly the
/// sequential resolver's order — so traced runs are byte-identical too.
#[derive(Debug)]
pub struct FastMedium {
    n: usize,
    /// Per-shard accumulators and link caches; `shards[0]` doubles as
    /// the sequential path. Grown on demand, never shrunk.
    shards: Vec<ShardScratch>,
    /// Per-device transmit epoch (half-duplex tracking).
    tx_stamp: Vec<u64>,
    epoch: u64,
    /// Per-cell transmission batches (epoch-stamped, allocation reused).
    cell_stamp: Vec<u64>,
    cell_txs: Vec<Vec<u32>>,
    touched_cells: Vec<u32>,
    /// Per-touched-cell candidate-pair weights (txs × occupants),
    /// parallel to `touched_cells` after the sort; drives the
    /// occupancy-weighted shard split (allocation reused).
    cell_weights: Vec<u64>,
    /// `(key, shard)` pairs gathered per slot for globally-ordered
    /// delivery (allocation reused).
    delivery: Vec<(u32, u32)>,
    /// Shared epoch-keyed link-state cache (see [`GainCache`]): shards
    /// read it concurrently, publish their fills after the join.
    gains: GainCache,
}

/// One shard's private accumulation state, persistent across slots:
/// epoch-stamped per-`(receiver, codec)` collision accumulators plus the
/// shard's gain-cache fills from the current slot. Shards read the
/// shared [`GainCache`] concurrently but never write it — rows missing
/// from it are computed into `fill_rows` and published into the shared
/// store after the join, in shard order, so workers never contend — and
/// the sequential path is just shard 0.
#[derive(Debug, Clone)]
struct ShardScratch {
    /// Per `(receiver, codec)` accumulator epoch (slot-stamped).
    stamp: Vec<u64>,
    best: Vec<f64>,
    second: Vec<f64>,
    best_tx: Vec<u32>,
    count: Vec<u32>,
    touched: Vec<u32>,
    /// Gain-cache keys this shard filled this slot (drained into the
    /// shared store after the join).
    fill_keys: Vec<u64>,
    /// The filled rows, parallel to `fill_keys`.
    fill_rows: Vec<Vec<f64>>,
    /// Per-slot dedup of local fills (the same sender can post two
    /// transmissions into one cell in one slot). Cleared on publish.
    // ffd2d-lint: allow(ordered-iteration) — lookup-only dedup map; publish drains the parallel `fill_keys`/`fill_rows` vectors (insertion order), never this map's iteration order
    fill_index: HashMap<u64, u32>,
    /// Above-threshold (detected) pairs seen this slot.
    detected: u64,
    // --- Telemetry (written only when the resolving recorder is
    // enabled; the disabled path never touches these) ---
    /// Wall-clock nanoseconds this shard spent accumulating this slot.
    busy_ns: u64,
    /// Rows served from the shared epoch cache this slot.
    rows_hit: u64,
    /// Rows this shard had to fill this slot (batched-kernel runs).
    rows_filled: u64,
    /// Wall-clock nanoseconds spent inside the fill kernel this slot.
    fill_ns: u64,
}

/// Read-only per-slot inputs shared by every accumulation shard.
struct SlotCtx<'a> {
    world: &'a World,
    transmissions: &'a [ProximitySignal],
    slot: Slot,
    epoch: u64,
    /// Per-cell transmission batches (only cells stamped this epoch
    /// appear in the shard's cell list).
    cell_txs: &'a [Vec<u32>],
    /// Per-device transmit epoch (half-duplex tracking).
    tx_stamp: &'a [u64],
    threshold: f64,
    mean_floor: f64,
    /// Receiver liveness under churn; `None` = everyone listens (the
    /// exact fault-free path).
    active: Option<&'a [bool]>,
    /// Per-transmission power droop in dB (fault injection); `None`
    /// when no droop window is open this slot.
    droop: Option<&'a [f64]>,
    /// The shared epoch-keyed gain cache, read-only during
    /// accumulation; `None` disables caching
    /// ([`crate::GainCacheMode::Off`]) and means are recomputed
    /// per pair.
    gains: Option<&'a GainCache>,
}

impl ShardScratch {
    fn new(n: usize) -> ShardScratch {
        ShardScratch {
            stamp: vec![0; n * 2],
            best: vec![f64::NEG_INFINITY; n * 2],
            second: vec![f64::NEG_INFINITY; n * 2],
            best_tx: vec![0; n * 2],
            count: vec![0; n * 2],
            touched: Vec::with_capacity(64),
            fill_keys: Vec::new(),
            fill_rows: Vec::new(),
            // ffd2d-lint: allow(ordered-iteration) — see the field's proof comment: lookup-only dedup map
            fill_index: HashMap::new(),
            detected: 0,
            busy_ns: 0,
            rows_hit: 0,
            rows_filled: 0,
            fill_ns: 0,
        }
    }

    /// Admit one candidate pair given its mean link gain: floor prune,
    /// fading draw, droop, threshold test, then the per-key
    /// best/second/count accumulation. Shared verbatim by the cached
    /// and direct paths, so the two cannot drift.
    #[inline]
    fn admit(&mut self, ctx: &SlotCtx<'_>, ti: u32, r: DeviceId, mean: f64) {
        if mean < ctx.mean_floor {
            // Provably below threshold for any fading draw; tallied by
            // the closed-form reconstruction. Droops only weaken a
            // signal further, so the prune stays conservative under
            // fault plans.
            return;
        }
        let tx = &ctx.transmissions[ti as usize];
        let mut p = mean
            + ctx
                .world
                .fading
                .gain(ctx.world.fading_seed, tx.sender, r, ctx.slot)
                .get();
        if let Some(droop) = ctx.droop {
            p -= droop[ti as usize];
        }
        if p < ctx.threshold {
            return;
        }
        self.detected += 1;
        let k = r as usize * 2 + FastMedium::codec_index(tx.codec());
        if self.stamp[k] != ctx.epoch {
            self.stamp[k] = ctx.epoch;
            self.best[k] = f64::NEG_INFINITY;
            self.second[k] = f64::NEG_INFINITY;
            self.count[k] = 0;
            self.touched.push(k as u32);
        }
        self.count[k] += 1;
        if p > self.best[k] {
            self.second[k] = self.best[k];
            self.best[k] = p;
            self.best_tx[k] = ti;
        } else if p > self.second[k] {
            self.second[k] = p;
        }
    }

    /// Accumulate one contiguous chunk of touched cells. Dispatches on
    /// the world's caching mode; both paths produce bit-identical
    /// per-key state (locked by `tests/gain_cache.rs`): for any one
    /// `(receiver, codec)` key the transmissions are visited in
    /// submission order either way, and `admit` is order-insensitive
    /// across keys.
    fn accumulate<const TELEM: bool>(&mut self, ctx: &SlotCtx<'_>, cells: &[u32]) {
        match ctx.gains {
            Some(gains) => self.accumulate_cached::<TELEM>(ctx, gains, cells),
            None => self.accumulate_direct(ctx, cells),
        }
    }

    /// Uncached accumulation: recompute the mean gain per candidate
    /// pair. Receivers ascending within a cell, transmissions in
    /// submission order — the original sequential visit order.
    fn accumulate_direct(&mut self, ctx: &SlotCtx<'_>, cells: &[u32]) {
        for &cell in cells {
            let cell = cell as usize;
            let txs_here = &ctx.cell_txs[cell];
            for &r in ctx.world.grid.cell_items(cell) {
                if ctx.tx_stamp[r as usize] == ctx.epoch {
                    continue; // half-duplex: transmitting receivers are deaf
                }
                if let Some(active) = ctx.active {
                    if !active[r as usize] {
                        continue; // departed devices hear nothing
                    }
                }
                for &ti in txs_here {
                    let sender = ctx.transmissions[ti as usize].sender;
                    let mean = ctx.world.mean_rx_dbm(sender, r);
                    self.admit(ctx, ti, r, mean);
                }
            }
        }
    }

    /// Cached accumulation: per transmission, resolve the `(sender,
    /// cell)` row — shared cache first, then this slot's local fills,
    /// else run the batched kernel once for the whole cell — and sweep
    /// the cell's receivers reading `row[j]` by occupant index. The
    /// tx-outer sweep visits each `(receiver, codec)` key's
    /// transmissions in the same submission order as the
    /// receiver-outer direct loop, so accumulated state is identical.
    fn accumulate_cached<const TELEM: bool>(
        &mut self,
        ctx: &SlotCtx<'_>,
        gains: &GainCache,
        cells: &[u32],
    ) {
        for &cell in cells {
            let cell = cell as usize;
            let txs_here = &ctx.cell_txs[cell];
            if txs_here.is_empty() {
                continue;
            }
            let items = ctx.world.grid.cell_items(cell);
            for &ti in txs_here {
                let sender = ctx.transmissions[ti as usize].sender;
                let key = ((sender as u64) << 32) | cell as u64;
                // A shared row is served only while its membership
                // stamp matches the sender's: churn stales exactly the
                // churned senders' rows, which then refill below.
                let shared = gains
                    .index
                    .get(&key)
                    .copied()
                    .filter(|&i| gains.row_gen[i as usize] == gains.sender_gen(sender));
                let row = if let Some(i) = shared {
                    if TELEM {
                        self.rows_hit += 1;
                    }
                    RowRef::Shared(i)
                } else if let Some(&i) = self.fill_index.get(&key) {
                    RowRef::Local(i)
                } else {
                    // ffd2d-lint: allow(wall-clock) — telemetry-gated fill-kernel timing; compiled out under NullRecorder, feeds metrics only
                    let t0 = TELEM.then(Instant::now);
                    let mut filled = Vec::new();
                    ctx.world.fill_mean_rx_dbm(sender, items, &mut filled);
                    if let Some(t0) = t0 {
                        self.rows_filled += 1;
                        self.fill_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    }
                    let i = self.fill_rows.len() as u32;
                    self.fill_index.insert(key, i);
                    self.fill_keys.push(key);
                    self.fill_rows.push(filled);
                    RowRef::Local(i)
                };
                for (j, &r) in items.iter().enumerate() {
                    if ctx.tx_stamp[r as usize] == ctx.epoch {
                        continue; // half-duplex: transmitting receivers are deaf
                    }
                    if let Some(active) = ctx.active {
                        if !active[r as usize] {
                            continue; // departed devices hear nothing
                        }
                    }
                    let mean = match row {
                        RowRef::Shared(i) => gains.rows[i as usize][j],
                        RowRef::Local(i) => self.fill_rows[i as usize][j],
                    };
                    self.admit(ctx, ti, r, mean);
                }
            }
        }
    }
}

impl FastMedium {
    /// A resolver for `n` devices.
    pub fn new(n: usize) -> FastMedium {
        FastMedium {
            n,
            shards: vec![ShardScratch::new(n)],
            tx_stamp: vec![0; n],
            epoch: 0,
            cell_stamp: Vec::new(),
            cell_txs: Vec::new(),
            touched_cells: Vec::new(),
            cell_weights: Vec::new(),
            delivery: Vec::with_capacity(64),
            gains: GainCache::default(),
        }
    }

    /// Record that the driving engine applied churn (join/leave) to an
    /// unknown set of devices: every sender's membership stamp advances,
    /// so the whole link-state cache is lazily refilled. Prefer
    /// [`FastMedium::note_churn_of`], which invalidates only the rows
    /// the event actually touched.
    pub fn note_churn(&mut self) {
        self.gains.churn_gen += 1;
        let gen = self.gains.churn_gen;
        if self.gains.device_gen.len() < self.n {
            self.gains.device_gen.resize(self.n, 0);
        }
        self.gains.device_gen.iter_mut().for_each(|g| *g = gen);
    }

    /// Record that the driving engine applied churn (join/leave) to
    /// exactly `devices` — called by the protocol engines whenever a
    /// fault plan's churn events take effect. Only those devices'
    /// membership stamps advance, so cached rows of unaffected senders
    /// keep serving; the churned senders' rows are refilled in place on
    /// next use. Positions do not change under churn, so even that
    /// refill is value-identical — the narrow invalidation keeps the
    /// honest contract ("a population event invalidates the state of
    /// the devices it touched") without the full-cache flush the
    /// coarse generation key used to force.
    pub fn note_churn_of(&mut self, devices: &[DeviceId]) {
        if devices.is_empty() {
            return;
        }
        self.gains.churn_gen += 1;
        let gen = self.gains.churn_gen;
        for &d in devices {
            let d = d as usize;
            if d >= self.gains.device_gen.len() {
                self.gains.device_gen.resize(self.n.max(d + 1), 0);
            }
            self.gains.device_gen[d] = gen;
        }
    }

    #[inline]
    fn codec_index(codec: RachCodec) -> usize {
        match codec {
            RachCodec::Rach1 => 0,
            RachCodec::Rach2 => 1,
        }
    }

    /// Size scratch state to `world` and flush the link-state cache if
    /// the world re-bucketed (mobility epoch) since the last slot.
    /// Churn does not flush here: it only advances the churned senders'
    /// membership stamps, leaving everyone else's rows hot.
    fn sync_with(&mut self, world: &World) {
        let cells = world.grid.cell_count();
        if self.cell_stamp.len() != cells {
            self.cell_stamp = vec![0; cells];
            self.cell_txs = vec![Vec::new(); cells];
        }
        let key = world.mobility_epoch();
        if self.gains.valid_for != key {
            self.gains.reset(key);
        }
    }

    /// Resolve one slot: every decoded `(receiver, signal, rx_dbm)`
    /// triple is fed to `deliver` (the received power is what RSSI
    /// ranging consumes), and `counters` tallies transmissions and
    /// reception outcomes. Every device is a potential receiver, as with
    /// the reference resolver over the full receiver set.
    pub fn resolve<F: FnMut(DeviceId, &ProximitySignal, f64)>(
        &mut self,
        world: &World,
        slot: Slot,
        transmissions: &[ProximitySignal],
        counters: &mut Counters,
        mut deliver: F,
    ) {
        self.resolve_traced(
            world,
            slot,
            transmissions,
            counters,
            &mut NullSink,
            |r, sig, p, _| deliver(r, sig, p),
        )
    }

    /// [`FastMedium::resolve`] with per-event tracing: every
    /// transmission, decode and collision is reported to `sink`, plus
    /// one aggregate below-threshold count per slot (the fast path
    /// reconstructs that tally in closed form and never visits the
    /// individual inaudible pairs). The sink is also threaded into
    /// `deliver` so callers can emit follow-on events (e.g. oscillator
    /// adjustments) without a second borrow. With a disabled sink this
    /// monomorphizes to exactly the untraced resolver.
    pub fn resolve_traced<S, F>(
        &mut self,
        world: &World,
        slot: Slot,
        transmissions: &[ProximitySignal],
        counters: &mut Counters,
        sink: &mut S,
        deliver: F,
    ) where
        S: TraceSink,
        F: FnMut(DeviceId, &ProximitySignal, f64, &mut S),
    {
        self.resolve_masked(world, slot, transmissions, None, counters, sink, deliver)
    }

    /// [`FastMedium::resolve_traced`] under churn: receivers whose
    /// `active` entry is `false` hear nothing (they left the arena), and
    /// the closed-form below-threshold reconstruction counts only the
    /// live population. Transmit-power droops from the world's
    /// [`ScenarioConfig::faults`] plan are subtracted per transmission
    /// before the threshold test. `active = None` and an empty droop
    /// schedule reproduce the fault-free resolver bit for bit.
    #[allow(clippy::too_many_arguments)]
    pub fn resolve_masked<S, F>(
        &mut self,
        world: &World,
        slot: Slot,
        transmissions: &[ProximitySignal],
        active: Option<&[bool]>,
        counters: &mut Counters,
        sink: &mut S,
        deliver: F,
    ) where
        S: TraceSink,
        F: FnMut(DeviceId, &ProximitySignal, f64, &mut S),
    {
        self.resolve_instrumented(
            world,
            slot,
            transmissions,
            active,
            counters,
            sink,
            &mut NullRecorder,
            deliver,
        )
    }

    /// [`FastMedium::resolve_masked`] with performance telemetry: an
    /// enabled [`Recorder`] gets the slot's resolution wall clock,
    /// candidate-pair count, per-shard busy time (plus a max-over-mean
    /// imbalance ratio when sharded) and epoch-cache row hit/fill
    /// tallies with the fill kernel's wall clock.
    /// Telemetry is strictly observational — it draws no randomness and
    /// feeds nothing back into resolution, so counters, trace events,
    /// deliveries and their order are bit-identical to an unrecorded
    /// slot; with [`NullRecorder`] this monomorphizes to exactly
    /// [`FastMedium::resolve_masked`].
    #[allow(clippy::too_many_arguments)]
    pub fn resolve_instrumented<S, R, F>(
        &mut self,
        world: &World,
        slot: Slot,
        transmissions: &[ProximitySignal],
        active: Option<&[bool]>,
        counters: &mut Counters,
        sink: &mut S,
        rec: &mut R,
        mut deliver: F,
    ) where
        S: TraceSink,
        R: Recorder,
        F: FnMut(DeviceId, &ProximitySignal, f64, &mut S),
    {
        if transmissions.is_empty() {
            return;
        }
        let t_resolve = rec.start();
        let faults = &world.config().faults;
        let droops: Option<Vec<f64>> = if faults.droop.is_empty() {
            None
        } else {
            Some(
                transmissions
                    .iter()
                    .map(|tx| faults.droop_db_at(tx.sender, slot.0))
                    .collect(),
            )
        };
        self.sync_with(world);
        self.epoch += 1;
        let epoch = self.epoch;
        self.touched_cells.clear();

        let mut distinct_senders = 0u64;
        for tx in transmissions {
            match tx.codec() {
                RachCodec::Rach1 => counters.add_rach1_tx(1),
                RachCodec::Rach2 => counters.add_rach2_tx(1),
            }
            if S::ENABLED {
                sink.event(&TraceEvent::Tx {
                    slot: slot.0,
                    sender: tx.sender,
                    codec: tx.codec().trace_codec(),
                    kind: tx.kind.trace_label(),
                });
            }
            let s = tx.sender as usize;
            if self.tx_stamp[s] != epoch {
                self.tx_stamp[s] = epoch;
                distinct_senders += 1;
            }
        }

        // Post each transmission to every cell its audibility disc
        // covers; cells keep tx indices in transmission order.
        let radius = world.audible_range_m();
        for (ti, tx) in transmissions.iter().enumerate() {
            let p = world.deployment.position(tx.sender);
            for cell in world.grid.cells_intersecting_disc(p.x, p.y, radius) {
                if self.cell_stamp[cell] != epoch {
                    self.cell_stamp[cell] = epoch;
                    self.cell_txs[cell].clear();
                    self.touched_cells.push(cell as u32);
                }
                self.cell_txs[cell].push(ti as u32);
            }
        }
        // Batched, deterministic resolution: cells ascending, receivers
        // ascending within a cell, transmissions in submission order.
        self.touched_cells.sort_unstable();

        // Shard the (sorted) cell list when the configured parallelism
        // engages on this slot's workload. A receiver's accumulators
        // live with its home cell's shard, so any chunking yields
        // bit-identical per-key results (see the struct docs). Chunk
        // boundaries balance candidate pairs, not cell counts: one hot
        // cell in a clustered deployment can carry most of the slot's
        // work, and an even cell split would leave every other shard
        // idle behind it.
        self.cell_weights.clear();
        let mut pairs = 0u64;
        for &c in &self.touched_cells {
            let w = self.cell_txs[c as usize].len() as u64
                * world.grid.cell_items(c as usize).len() as u64;
            self.cell_weights.push(w);
            pairs += w;
        }
        let workers = world
            .config()
            .parallelism
            .workers_for(pairs)
            .min(self.touched_cells.len().max(1));
        if self.shards.len() < workers {
            let n = self.n;
            self.shards.resize_with(workers, || ShardScratch::new(n));
        }
        for shard in &mut self.shards[..workers] {
            shard.detected = 0;
            shard.touched.clear();
            if R::ENABLED {
                shard.busy_ns = 0;
                shard.rows_hit = 0;
                shard.rows_filled = 0;
                shard.fill_ns = 0;
            }
        }

        let cached = world.config().gain_cache == GainCacheMode::Epoch;
        let threshold = world.threshold_dbm();
        let mean_floor = threshold - world.fade_headroom_db();
        let ctx = SlotCtx {
            world,
            transmissions,
            slot,
            epoch,
            cell_txs: &self.cell_txs,
            tx_stamp: &self.tx_stamp,
            threshold,
            mean_floor,
            active,
            droop: droops.as_deref(),
            gains: cached.then_some(&self.gains),
        };
        if R::ENABLED {
            // Timed accumulation: each shard clocks its own busy window
            // on its own thread (the recorder itself stays on this
            // thread and is flushed after the join).
            sharded_for_each_weighted(
                &self.touched_cells,
                &self.cell_weights,
                &mut self.shards[..workers],
                |_, cells, shard| {
                    // ffd2d-lint: allow(wall-clock) — recorder-gated shard busy-window; this closure only runs when R::ENABLED and writes telemetry fields alone
                    let t0 = Instant::now();
                    shard.accumulate::<true>(&ctx, cells);
                    shard.busy_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                },
            );
        } else {
            sharded_for_each_weighted(
                &self.touched_cells,
                &self.cell_weights,
                &mut self.shards[..workers],
                |_, cells, shard| shard.accumulate::<false>(&ctx, cells),
            );
        }

        // Gather every shard's touched keys for globally-ordered
        // delivery. Keys are unique across shards (one home cell per
        // receiver), so sorting the pairs sorts by key.
        let mut detected = 0u64;
        self.delivery.clear();
        for (si, shard) in self.shards[..workers].iter().enumerate() {
            detected += shard.detected;
            for &k in &shard.touched {
                self.delivery.push((k, si as u32));
            }
        }
        self.delivery.sort_unstable();

        // Publish this slot's per-shard fills into the shared gain
        // cache, in shard order. Fill keys are unique across shards
        // within a slot (a touched cell is owned by exactly one shard
        // and local fills dedup per sender), and rows are pure
        // functions of positions — so the merged store is identical
        // for any worker count. A key already present means the old
        // row went stale under churn: it is replaced in place and
        // re-stamped with the sender's current membership generation.
        if cached {
            for shard in &mut self.shards[..workers] {
                if shard.fill_keys.is_empty() {
                    continue;
                }
                shard.fill_index.clear();
                for (key, row) in shard.fill_keys.drain(..).zip(shard.fill_rows.drain(..)) {
                    let gen = self.gains.sender_gen((key >> 32) as DeviceId);
                    match self.gains.index.entry(key) {
                        std::collections::hash_map::Entry::Occupied(e) => {
                            let i = *e.get() as usize;
                            debug_assert_ne!(
                                self.gains.row_gen[i], gen,
                                "refilled a still-valid gain-cache row, key {key}"
                            );
                            self.gains.rows[i] = row;
                            self.gains.row_gen[i] = gen;
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(self.gains.rows.len() as u32);
                            self.gains.rows.push(row);
                            self.gains.row_gen.push(gen);
                        }
                    }
                }
            }
        }

        // Exact counter reconstruction: the reference walks every
        // (transmission, non-transmitting receiver) pair and counts it
        // either as detected (rx_ok + rx_collision below) or as below
        // threshold — so the latter is the complement. Under churn only
        // the live population counts as receivers.
        let population = match active {
            Some(mask) => mask.iter().filter(|&&a| a).count() as u64,
            None => world.n() as u64,
        };
        let receivers = population - distinct_senders;
        let below_threshold = transmissions.len() as u64 * receivers - detected;
        counters.add_rx_below_threshold(below_threshold);
        if S::ENABLED && below_threshold > 0 {
            sink.event(&TraceEvent::RxBelowThreshold {
                slot: slot.0,
                count: below_threshold,
            });
        }

        // Deterministic delivery order regardless of tx iteration
        // pattern or sharding: keys ascending, exactly the sequential
        // resolver's order.
        for i in 0..self.delivery.len() {
            let (k32, si) = self.delivery[i];
            let k = k32 as usize;
            let shard = &self.shards[si as usize];
            let receiver = (k / 2) as DeviceId;
            let n_signals = shard.count[k];
            let decoded = if n_signals == 1 {
                true
            } else {
                shard.best[k] >= shard.second[k] + world.capture_margin_db
            };
            if decoded {
                counters.add_rx_ok(1);
                counters.add_rx_collision((n_signals - 1) as u64);
                let sig = transmissions[shard.best_tx[k] as usize];
                if S::ENABLED {
                    sink.event(&TraceEvent::RxDecode {
                        slot: slot.0,
                        receiver,
                        sender: sig.sender,
                        codec: sig.codec().trace_codec(),
                        rx_dbm: shard.best[k],
                    });
                    if n_signals > 1 {
                        sink.event(&TraceEvent::RxCollision {
                            slot: slot.0,
                            receiver,
                            codec: sig.codec().trace_codec(),
                            signals: n_signals - 1,
                        });
                    }
                }
                deliver(receiver, &sig, shard.best[k], sink);
            } else {
                counters.add_rx_collision(n_signals as u64);
                if S::ENABLED {
                    let codec = if k.is_multiple_of(2) {
                        ffd2d_trace::Codec::Rach1
                    } else {
                        ffd2d_trace::Codec::Rach2
                    };
                    sink.event(&TraceEvent::RxCollision {
                        slot: slot.0,
                        receiver,
                        codec,
                        signals: n_signals,
                    });
                }
            }
        }

        if R::ENABLED {
            rec.add("medium.slots_resolved", 1);
            rec.add("medium.transmissions", transmissions.len() as u64);
            rec.observe("medium.pairs_per_slot", pairs);
            rec.observe("medium.workers_per_slot", workers as u64);
            let (mut hits, mut filled) = (0u64, 0u64);
            let (mut busy_max, mut busy_sum) = (0u64, 0u64);
            for shard in &self.shards[..workers] {
                hits += shard.rows_hit;
                filled += shard.rows_filled;
                busy_max = busy_max.max(shard.busy_ns);
                busy_sum += shard.busy_ns;
                rec.record_ns("medium.shard_busy_ns", shard.busy_ns);
                if shard.fill_ns > 0 {
                    rec.record_ns("medium.gain_fill_ns", shard.fill_ns);
                }
            }
            if cached {
                // Row granularity: a hit serves a whole (sender, cell)
                // row from the epoch cache; a miss runs the batched
                // fill kernel once. Absent entirely under
                // `GainCacheMode::Off` (perf_inspect renders `n/a`).
                rec.add("medium.gain_cache_hits", hits);
                rec.add("medium.gain_cache_misses", filled);
            }
            if workers > 1 && busy_sum > 0 {
                // Shard imbalance: slowest shard over the mean, in
                // percent (100 = perfectly balanced).
                let mean = (busy_sum / workers as u64).max(1);
                rec.observe("medium.shard_imbalance_pct", busy_max * 100 / mean);
            }
            rec.stop("medium.resolve_ns", t_resolve);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffd2d_phy::frame::FrameKind;
    use ffd2d_phy::medium::{Medium, Transmission};
    use ffd2d_sim::time::SlotDuration;

    fn small_cfg(n: usize, seed: u64) -> ScenarioConfig {
        ScenarioConfig::table1(n)
            .seeded(seed)
            .with_max_slots(SlotDuration(1000))
    }

    fn fire(sender: u32) -> ProximitySignal {
        ProximitySignal {
            sender,
            service: ServiceClass::KEEP_ALIVE,
            kind: FrameKind::Fire {
                fragment: sender,
                age: 0,
            },
        }
    }

    /// Drive the fast and reference media through the same slot and
    /// assert identical decode pairs and counters.
    fn assert_media_agree(w: &World, fast: &mut FastMedium, slot: u64, txs: &[ProximitySignal]) {
        let ch = w.reference_channel();
        let reference = Medium::default();
        let receivers: Vec<u32> = (0..w.n() as u32).collect();
        let transmissions: Vec<Transmission> = txs.iter().map(|&s| Transmission::new(s)).collect();

        let mut ref_counters = Counters::new();
        let ref_reports = reference.resolve(
            &ch,
            Slot(slot),
            &transmissions,
            &receivers,
            &mut ref_counters,
        );
        let mut ref_pairs: Vec<(u32, u32)> = Vec::new();
        for (r, report) in receivers.iter().zip(&ref_reports) {
            for sig in &report.decoded {
                ref_pairs.push((*r, sig.sender));
            }
        }
        ref_pairs.sort();

        let mut fast_counters = Counters::new();
        let mut fast_pairs: Vec<(u32, u32)> = Vec::new();
        fast.resolve(w, Slot(slot), txs, &mut fast_counters, |r, sig, p| {
            assert!(p >= w.threshold_dbm());
            fast_pairs.push((r, sig.sender));
        });
        fast_pairs.sort();

        assert_eq!(fast_pairs, ref_pairs, "decode pairs, slot {slot}");
        assert_eq!(
            fast_counters.rx_ok, ref_counters.rx_ok,
            "rx_ok, slot {slot}"
        );
        assert_eq!(
            fast_counters.rx_collision, ref_counters.rx_collision,
            "rx_collision, slot {slot}"
        );
        assert_eq!(
            fast_counters.rx_below_threshold, ref_counters.rx_below_threshold,
            "rx_below_threshold, slot {slot}"
        );
        assert_eq!(fast_counters.total_tx(), ref_counters.total_tx());
    }

    #[test]
    fn world_is_deterministic_per_seed() {
        let a = World::new(&small_cfg(20, 7));
        let b = World::new(&small_cfg(20, 7));
        assert_eq!(a.deployment().positions(), b.deployment().positions());
        assert_eq!(a.services(), b.services());
        assert_eq!(a.mean_rx_dbm(0, 1), b.mean_rx_dbm(0, 1));
        let c = World::new(&small_cfg(20, 8));
        assert_ne!(a.deployment().positions(), c.deployment().positions());
    }

    #[test]
    fn mean_power_matches_reference_channel() {
        let w = World::new(&small_cfg(15, 3));
        let ch = w.reference_channel();
        for a in 0..15u32 {
            for b in 0..15u32 {
                if a != b {
                    assert_eq!(w.mean_rx_dbm(a, b), ch.mean_rx_power(a, b).get());
                }
            }
        }
    }

    #[test]
    fn instantaneous_power_matches_reference_channel() {
        let w = World::new(&small_cfg(10, 4));
        let ch = w.reference_channel();
        for slot in [0u64, 7, 35, 1000] {
            for a in 0..10u32 {
                for b in 0..10u32 {
                    if a != b {
                        let fast = w.rx_dbm(a, b, Slot(slot));
                        let reference = ch.rx_power(a, b, Slot(slot)).get();
                        assert!(
                            (fast - reference).abs() < 1e-9,
                            "link {a}->{b} slot {slot}: {fast} vs {reference}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn graph_edges_follow_threshold() {
        let w = World::new(&small_cfg(25, 5));
        let g = w.proximity_graph();
        for a in 0..25u32 {
            for b in (a + 1)..25u32 {
                let linked = w.mean_rx_dbm(a, b) >= w.threshold_dbm();
                assert_eq!(g.has_edge(a, b), linked, "edge {{{a},{b}}}");
                if let Some(wt) = g.weight(a, b) {
                    assert_eq!(wt.get(), w.mean_rx_dbm(a, b));
                }
            }
        }
    }

    #[test]
    fn audible_candidates_cover_every_possible_receiver() {
        // Anything the grid prunes must have a mean below the provable
        // detectability floor — the exactness contract of the index.
        let w = World::new(&small_cfg(40, 9));
        let floor = w.threshold_dbm() - w.fade_headroom_db();
        for a in 0..40u32 {
            let cands = w.audible_candidates(a);
            assert!(!cands.contains(&a));
            assert!(cands.windows(2).all(|p| p[0] < p[1]), "sorted, unique");
            for b in 0..40u32 {
                if b != a && !cands.contains(&b) {
                    assert!(
                        w.mean_rx_dbm(a, b) < floor,
                        "pruned pair {a}->{b} is not provably inaudible"
                    );
                }
            }
        }
    }

    #[test]
    fn table1_area_is_fully_connected_without_shadowing() {
        // 89 m nominal range in a 100 m × 100 m area: the ideal-channel
        // proximity graph is (almost surely) connected and dense.
        let cfg = small_cfg(50, 1).ideal_channel();
        let w = World::new(&cfg);
        assert!(ffd2d_graph::connectivity::is_connected(w.proximity_graph()));
        let avg_degree = 2.0 * w.proximity_graph().m() as f64 / 50.0;
        assert!(avg_degree > 30.0, "avg degree {avg_degree}");
    }

    #[test]
    fn fast_medium_agrees_with_reference_medium() {
        // Same transmissions, same slot: identical decode decisions and
        // identical counters (Table-I channel: shadowing + fading).
        let cfg = small_cfg(30, 11);
        let w = World::new(&cfg);
        let mut fast = FastMedium::new(30);
        for slot in [0u64, 3, 21, 40, 77] {
            let txs = vec![
                fire(slot as u32 % 30),
                fire((slot as u32 + 7) % 30),
                fire((slot as u32 + 19) % 30),
            ];
            assert_media_agree(&w, &mut fast, slot, &txs);
        }
    }

    #[test]
    fn fast_medium_agrees_in_sparse_arena_with_real_pruning() {
        // A 2 km arena under the ideal channel: the audibility radius
        // (89 m) is far below the diagonal, so the grid actually prunes
        // — and the decode reports must still be bit-identical.
        let mut cfg = small_cfg(60, 23).ideal_channel();
        cfg.sim.area_width = Meters(2000.0);
        cfg.sim.area_height = Meters(2000.0);
        let w = World::new(&cfg);
        assert!(
            w.spatial_grid().cols() >= 20,
            "expected a fine grid, got {}x{}",
            w.spatial_grid().cols(),
            w.spatial_grid().rows()
        );
        let mut fast = FastMedium::new(60);
        for slot in [0u64, 5, 9] {
            let txs: Vec<ProximitySignal> = (0..6)
                .map(|k| fire((slot as u32 * 11 + k * 13) % 60))
                .collect();
            assert_media_agree(&w, &mut fast, slot, &txs);
        }
    }

    #[test]
    fn fast_medium_tracks_mobility_rebucketing() {
        let mut cfg = small_cfg(40, 31).ideal_channel();
        cfg.sim.area_width = Meters(1000.0);
        cfg.sim.area_height = Meters(1000.0);
        let mut w = World::new(&cfg);
        let mut fast = FastMedium::new(40);
        assert_media_agree(&w, &mut fast, 0, &[fire(1), fire(17), fire(33)]);

        // Shift everyone: the medium must re-bucket (via version) and
        // still agree with a reference channel over the moved positions.
        let moved: Vec<Position> = w
            .deployment()
            .positions()
            .iter()
            .map(|p| Position::new((p.x + 400.0).min(1000.0), (p.y * 0.5).max(0.0)))
            .collect();
        let before = w.mobility_epoch();
        w.update_positions(&moved);
        assert_eq!(w.mobility_epoch(), before + 1);
        assert_media_agree(&w, &mut fast, 1, &[fire(1), fire(17), fire(33)]);
        // The lazily-rebuilt graph reflects the new geometry too.
        let g = w.proximity_graph();
        for a in 0..40u32 {
            for b in (a + 1)..40u32 {
                assert_eq!(g.has_edge(a, b), w.mean_rx_dbm(a, b) >= w.threshold_dbm());
            }
        }
    }

    #[test]
    fn sharded_fast_medium_is_bit_identical_to_sequential() {
        // Same seeded world resolved under Off / Fixed{1, 2, 8, 64}:
        // delivered (receiver, sender, power-bits) triples, counters and
        // the full trace-event stream must match exactly. Fixed(64) at
        // n=48 exercises the clamp to the touched-cell count.
        use ffd2d_parallel::Parallelism;
        use ffd2d_trace::BufferSink;
        let base = small_cfg(48, 17);
        let txs: Vec<ProximitySignal> = (0..10).map(|k| fire(k * 5)).collect();

        let run = |parallelism: Parallelism| {
            let cfg = base.clone().with_parallelism(parallelism);
            let w = World::new(&cfg);
            let mut fast = FastMedium::new(48);
            let mut counters = Counters::new();
            let mut sink = BufferSink::new();
            let mut delivered: Vec<(u32, u32, u64)> = Vec::new();
            for slot in [0u64, 2, 9, 30] {
                fast.resolve_traced(
                    &w,
                    Slot(slot),
                    &txs,
                    &mut counters,
                    &mut sink,
                    |r, sig, p, _| delivered.push((r, sig.sender, p.to_bits())),
                );
            }
            (delivered, counters, sink.events)
        };

        let baseline = run(Parallelism::Off);
        assert!(baseline.1.rx_ok > 0, "scenario must exercise decodes");
        for workers in [1, 2, 8, 64] {
            let sharded = run(Parallelism::Fixed(workers));
            assert_eq!(sharded.0, baseline.0, "deliveries, {workers} workers");
            assert_eq!(sharded.1, baseline.1, "counters, {workers} workers");
            assert_eq!(sharded.2, baseline.2, "events, {workers} workers");
        }
        // Auto at this tiny n stays sequential and must agree too.
        let auto = run(Parallelism::Auto);
        assert_eq!(auto.0, baseline.0);
        assert_eq!(auto.1, baseline.1);
    }

    #[test]
    fn gain_cache_off_is_bit_identical_to_epoch_caching() {
        // Same seeded world, same transmissions, cache on vs. off:
        // delivered (receiver, sender, power-bits) triples and counters
        // must match exactly — across enough slots that the cached arm
        // actually reuses rows.
        use crate::GainCacheMode;
        let base = small_cfg(48, 29);
        let txs: Vec<ProximitySignal> = (0..8).map(|k| fire(k * 6)).collect();
        let run = |mode: GainCacheMode| {
            let cfg = base.clone().with_gain_cache(mode);
            let w = World::new(&cfg);
            let mut fast = FastMedium::new(48);
            let mut counters = Counters::new();
            let mut delivered: Vec<(u32, u32, u64)> = Vec::new();
            for slot in 0..20u64 {
                fast.resolve(&w, Slot(slot), &txs, &mut counters, |r, sig, p| {
                    delivered.push((r, sig.sender, p.to_bits()))
                });
            }
            (delivered, counters)
        };
        let cached = run(GainCacheMode::Epoch);
        let direct = run(GainCacheMode::Off);
        assert!(cached.1.rx_ok > 0, "scenario must exercise decodes");
        assert_eq!(cached.0, direct.0, "deliveries");
        assert_eq!(cached.1, direct.1, "counters");
    }

    #[test]
    fn gain_cache_survives_slots_but_not_position_updates_or_churn() {
        use ffd2d_telemetry::Telemetry;
        let mut cfg = small_cfg(40, 13).ideal_channel();
        cfg.sim.area_width = Meters(1000.0);
        cfg.sim.area_height = Meters(1000.0);
        let mut w = World::new(&cfg);
        let mut fast = FastMedium::new(40);
        let txs = [fire(2), fire(11), fire(27)];
        let resolve = |fast: &mut FastMedium, w: &World, slot: u64| {
            let mut rec = Telemetry::new();
            let mut counters = Counters::new();
            fast.resolve_instrumented(
                w,
                Slot(slot),
                &txs,
                None,
                &mut counters,
                &mut NullSink,
                &mut rec,
                |_, _, _, _| {},
            );
            (
                rec.counter("medium.gain_cache_hits"),
                rec.counter("medium.gain_cache_misses"),
            )
        };
        let (h0, m0) = resolve(&mut fast, &w, 0);
        assert_eq!(h0, 0, "first slot of the epoch cannot hit");
        assert!(m0 > 0, "first slot must fill rows");
        let (h1, m1) = resolve(&mut fast, &w, 1);
        assert_eq!(m1, 0, "same epoch, same senders: no refill");
        assert_eq!(h1, m0, "every filled row is reused");

        // A position update advances the mobility epoch: full flush.
        let moved: Vec<Position> = w.deployment().positions().to_vec();
        w.update_positions(&moved);
        let (h2, m2) = resolve(&mut fast, &w, 2);
        assert_eq!(h2, 0, "mobility epoch moved: cache must flush");
        assert_eq!(m2, m0);

        // Coarse engine-reported churn stales every row, positions
        // unchanged.
        fast.note_churn();
        let (h3, m3) = resolve(&mut fast, &w, 3);
        assert_eq!(h3, 0, "churn generation moved: cache must flush");
        assert_eq!(m3, m0);
        let (h4, m4) = resolve(&mut fast, &w, 4);
        assert_eq!(m4, 0, "cache is warm again");
        assert_eq!(h4, m0);

        // Narrow churn: only the churned sender's rows go stale and
        // refill in place; everyone else's keep serving.
        fast.note_churn_of(&[2]);
        let (h5, m5) = resolve(&mut fast, &w, 5);
        assert!(m5 > 0, "the churned sender's rows refill");
        assert!(h5 > 0, "other senders' rows keep serving");
        assert_eq!(h5 + m5, m0, "per-row staleness, not a full flush");

        // Churn of a device that never transmits stales no row at all.
        fast.note_churn_of(&[0]);
        let (h6, m6) = resolve(&mut fast, &w, 6);
        assert_eq!(m6, 0, "non-sender churn leaves every row valid");
        assert_eq!(h6, m0);
    }

    #[test]
    fn fast_medium_empty_slot_is_free() {
        let w = World::new(&small_cfg(5, 1));
        let mut fast = FastMedium::new(5);
        let mut counters = Counters::new();
        fast.resolve(&w, Slot(0), &[], &mut counters, |_, _, _| {
            panic!("nothing to deliver")
        });
        assert_eq!(counters.total_tx(), 0);
    }

    #[test]
    fn services_cover_configured_classes() {
        let mut cfg = small_cfg(200, 2);
        cfg.protocol.service_classes = 4;
        let w = World::new(&cfg);
        let mut seen = std::collections::HashSet::new();
        for s in w.services() {
            assert!(s.0 < 4);
            seen.insert(s.0);
        }
        assert_eq!(seen.len(), 4, "all classes should appear at n=200");
    }
}
