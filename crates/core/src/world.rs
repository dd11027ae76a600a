//! The per-trial world and its fast shared medium.
//!
//! [`World`] instantiates one trial of a scenario: the radio
//! [`Channel`] over the deployment, a spatial-grid neighbor index over
//! the positions, the ground-truth proximity graph of §IV (edges where
//! the long-term PS strength clears the −95 dBm threshold, weighted by
//! that strength; built lazily on first use) and the per-device service
//! interests. Every link power the world reports, and every power the
//! fast medium below decides with, is read from that one `Channel`
//! ([`World::channel`]), which the reference resolver also takes.
//!
//! ## Why a second medium implementation
//!
//! `ffd2d_phy::Medium` is the reference resolver: it re-samples the
//! channel per (tx, rx) pair through the full `Channel` stack and is
//! exactly right for protocol-correctness tests. The figure sweeps,
//! however, run populations of thousands of devices for tens of
//! thousands of slots — the hot loop is `(transmissions × receivers)`
//! per slot. [`FastMedium`] implements the *same*
//! decode/collision/capture semantics with four optimisations:
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
//! 2. **Run-long link-state cache.** There is no up-front `n × n`
//!    gain matrix: mean link powers (path loss + shadowing) are pure
//!    functions of device positions, and devices never move, so they
//!    are computed **once per run** — one row per (sender, grid cell),
//!    aligned with the cell's occupant list — and reused across every
//!    later slot. The channel is reciprocal, so in-cell links are
//!    computed once per unordered pair: a device's first fire into its
//!    own cell fills every in-cell row of that cell in one symmetric
//!    pass. A sender's row of another cell its disc reaches
//!    is filled alone by the batched kernel. Fading remains the only
//!    per-slot keyed draw, so caching is provably bit-identical: no RNG
//!    stream is touched. Churn moves no device, so it leaves every row
//!    valid: a departed receiver is masked out in the admit pass, like
//!    a transmitting one. Memory is one `f64` per cached directed
//!    (sender, cell-occupant) pair. A cell's in-cell rows are allocated
//!    together at its first in-cell fire, not one at a time as its
//!    occupants fire, so a cell that hears any in-cell fire holds
//!    `occupants²` of them; the rest is proportional to the cross-cell
//!    pairs actually exercised — not `n²` of the whole arena (they
//!    coincide only when every device is audible to every other and
//!    some device transmits).
//! 3. **Epoch-stamped accumulators.** Per-(receiver, codec) collision
//!    state is slot-stamped, so a slot costs O(candidates) with zero
//!    allocation, and delivery order is fixed by sorting touched keys.
//! 4. **A fade lane per row, certified under fading.** Each
//!    (transmission, cell) row is accumulated in two passes: a loop
//!    without branches fills `mean[j] + fade` for every occupant, so
//!    the fading draws of neighbouring pairs overlap, then the admit
//!    pass does the half-duplex/liveness/threshold/capture bookkeeping
//!    over the lane. The slot's fade state is hoisted once
//!    ([`Channel::slot_fade`]). A fading channel fills every lane with
//!    [`SlotFade::approx_db`] instead of the exact
//!    [`SlotFade::gain_db`]: the same keyed uniform, but an
//!    exponent/mantissa split and a degree-5 polynomial in place of
//!    `ln` and `log10`, within δ = [`SlotFade::APPROX_ERROR_DB`]
//!    (1e-3 dB) of the exact draw. The bound is the polynomial's
//!    interpolation error, below 2e-4 dB and checked for every kernel
//!    row by a unit test (exhaustively or by a Lipschitz bound between
//!    grid points, see `FadeKernel`), plus f64 rounding in the kernel,
//!    the draw and the `mean + fade − droop` sums (about 1e-13 dB), so
//!    every approximate power is within δ of the power the exact lane
//!    would compute. The medium only ever compares powers, so δ
//!    certifies decisions without exact values:
//!    - *threshold:* a pair more than δ from the threshold is decided
//!      by the approximation; one inside the band pays the exact draw;
//!    - *capture:* each `(receiver, codec)` key tracks its approximate
//!      best, runner-up, `best_tx` and the best's mean gain. Its gap is
//!      within 2δ of the exact gap, so a gap more than 2δ below the
//!      capture margin is a certain collision (no power is read), and
//!      one more than 2δ above both the margin and 0 is a certain
//!      capture by `best_tx`, which pays one exact draw for the
//!      delivered `rx_dbm`;
//!    - *ambiguous keys* (rare) are re-derived exactly by walking the
//!      receiver's cell's transmissions in submission order, which is
//!      the exact lane's order, so ties break as they do there.
//!
//!    `FadingModel::None` draws no fade and stays on the exact lane;
//!    the lane is chosen per slot, so each key sees one lane. Debug
//!    builds re-check every certified pair against `gain_db`. An
//!    enabled recorder counts the lane's exact work
//!    (`medium.fade_exact_draws`, `medium.fade_rescans`).
//!
//! The run's ground-truth link count is counted from the same cache
//! ([`FastMedium::ground_truth_links`]) rather than by building the
//! proximity graph.
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
use ffd2d_phy::codec::{RachCodec, ServiceClass};
use ffd2d_phy::frame::ProximitySignal;
use ffd2d_phy::medium::MediumConfig;
use ffd2d_radio::channel::Channel;
use ffd2d_radio::fading::{FadingModel, SlotFade};
use ffd2d_sim::counters::Counters;
use ffd2d_sim::deployment::{Deployment, DeviceId};
use ffd2d_sim::rng::{StreamId, StreamRng};
use ffd2d_sim::time::Slot;
use ffd2d_telemetry::Recorder;
use ffd2d_trace::{TraceEvent, TraceSink};

use crate::scenario::{GainCacheMode, ScenarioConfig};

/// Floor on the grid cell side relative to the arena: at most 256×256
/// cells, so degenerate configurations (tiny radius in a huge arena)
/// cannot blow up cell-index memory.
const MAX_CELLS_PER_AXIS: f64 = 256.0;

/// One trial's fully-instantiated world.
#[derive(Debug, Clone)]
pub struct World {
    cfg: ScenarioConfig,
    /// The trial's radio channel; owns the deployment.
    channel: Channel,
    /// Spatial index over device positions; cell side = worst-case
    /// audibility radius (clamped to the arena diagonal).
    grid: SpatialGrid,
    /// Ground-truth §IV proximity graph, built lazily on first access
    /// via the grid (construction is O(n · occupancy), not O(n²)).
    graph: OnceLock<WeightedGraph>,
    /// Per-device service interests.
    services: Vec<ServiceClass>,
    /// Capture margin in dB: the reference resolver's default.
    capture_margin_db: f64,
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
            channel: Channel::new(deployment, cfg.channel.clone(), seed),
            grid,
            graph: OnceLock::new(),
            services,
            capture_margin_db: MediumConfig::default().capture_margin.get(),
            audible_range_m,
            mean_link_range_m,
            cfg: cfg.clone(),
        }
    }

    /// Number of devices.
    #[inline]
    pub fn n(&self) -> usize {
        self.channel.deployment().len()
    }

    /// The scenario this world was built from.
    pub fn config(&self) -> &ScenarioConfig {
        &self.cfg
    }

    /// The deployment.
    pub fn deployment(&self) -> &Deployment {
        self.channel.deployment()
    }

    /// The trial's radio channel.
    pub fn channel(&self) -> &Channel {
        &self.channel
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
            let p = self.deployment().position(a);
            candidates.clear();
            self.grid
                .within(p.x, p.y, self.mean_link_range_m, &mut candidates);
            // `within` returns ids ascending, so edges are inserted in
            // the same (a asc, b asc) order as a dense double loop.
            for &b in &candidates {
                if b > a {
                    let w = self.mean_rx_dbm(a, b);
                    if w >= self.threshold_dbm() {
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
        self.channel.config().detection_threshold.get()
    }

    /// Provable fading headroom in dB (`FadingModel::max_gain_db`).
    #[inline]
    pub fn fade_headroom_db(&self) -> f64 {
        self.channel.config().fade_headroom_db()
    }

    /// Worst-case audibility radius in meters — the spatial-grid query
    /// radius used by the medium.
    #[inline]
    pub fn audible_range_m(&self) -> f64 {
        self.audible_range_m
    }

    /// Long-term mean received power of link `a → b` in dBm
    /// ([`Channel::mean_rx_power`]). `NEG_INFINITY` on the diagonal.
    #[inline]
    pub fn mean_rx_dbm(&self, a: DeviceId, b: DeviceId) -> f64 {
        if a == b {
            return f64::NEG_INFINITY;
        }
        self.channel.mean_rx_power(a, b).get()
    }
}

/// `GainRow::filled` of a row that the block fill wrote ahead of its
/// first request.
const UNREQUESTED: u64 = u64::MAX;

/// Run-long link-state cache: one row of mean link gains
/// (dBm) per `(sender, grid cell)`, aligned element-for-element with
/// `SpatialGrid::cell_items(cell)` so the accumulation inner loop reads
/// `row[j]` by the receiver's position in its cell — no per-pair hashing
/// or probing. Rows are kept for the rest of the run once filled.
///
/// The first request for a sender's row of its *own* cell fills every
/// in-cell row of that cell at once ([`GainCache::fill_cell`]): the
/// mean gain is reciprocal, so each unordered in-cell pair is computed
/// once and written to both endpoints' rows. The price is that a cell's
/// in-cell rows are allocated together at its first in-cell fire, not
/// one at a time as its occupants fire. A row for a sender outside the
/// cell (its disc reaches across the cell border) has no guaranteed
/// mirror, so it is filled alone by the batched kernel
/// ([`Channel::fill_mean_rx_dbm`]) when first requested. Values are
/// pure functions of positions, which never change, so a cached read is
/// bit-identical to recomputation by construction.
#[derive(Debug, Default)]
struct GainCache {
    /// `(sender << 32) | cell` → index into `rows`. Lookup-only (never
    /// iterated), so map order cannot leak into results.
    // ffd2d-lint: allow(ordered-iteration) — lookup-only by construction: the only reads are `get` in `row` and `ground_truth_links`; no iteration exists for hash order to escape through
    index: HashMap<u64, u32>,
    rows: Vec<GainRow>,
    // --- Per-slot telemetry (written only when the resolving recorder
    // is enabled; the disabled path never touches these) ---
    /// Rows served from the cache this slot.
    rows_hit: u64,
    /// Rows requested for the first time this slot. This counts first
    /// requests, not rows built: a block fill builds rows no slot may
    /// ever request, and those are never counted.
    rows_filled: u64,
    /// Wall-clock nanoseconds spent inside the fill kernels this slot.
    fill_ns: u64,
}

/// One cached `(sender, cell)` row of mean gains.
#[derive(Debug)]
struct GainRow {
    /// Mean gains, aligned with the cell's occupant list.
    gains: Vec<f64>,
    /// The medium epoch of the slot that first requested the row, or
    /// [`UNREQUESTED`] while no slot has. The first request is tallied
    /// in `rows_filled`, later slots' requests in `rows_hit`; a row
    /// requested earlier in the current slot is served without counting
    /// as a hit.
    filled: u64,
}

impl GainCache {
    #[inline]
    fn key(sender: DeviceId, cell: usize) -> u64 {
        ((sender as u64) << 32) | cell as u64
    }

    /// The mean gains of `sender` over `items` (the occupants of
    /// `cell`): the cached row, else a fill kept in the cache for the
    /// rest of the run — the block fill of every in-cell row when
    /// `sender` sits in `cell`, else the batched kernel for this row
    /// alone.
    fn row<const TELEM: bool>(
        &mut self,
        world: &World,
        epoch: u64,
        sender: DeviceId,
        cell: usize,
        items: &[DeviceId],
    ) -> &[f64] {
        let key = Self::key(sender, cell);
        let i = match self.index.get(&key) {
            Some(&i) => i as usize,
            None => {
                // ffd2d-lint: allow(wall-clock) — telemetry-gated fill-kernel timing; compiled out under NullRecorder, feeds metrics only
                let t0 = TELEM.then(Instant::now);
                if items.binary_search(&sender).is_ok() {
                    self.fill_cell(&world.channel, cell, items);
                } else {
                    let mut gains = Vec::new();
                    world.channel.fill_mean_rx_dbm(sender, items, &mut gains);
                    self.insert(key, gains);
                }
                if let Some(t0) = t0 {
                    self.fill_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                }
                self.index[&key] as usize
            }
        };
        let row = &mut self.rows[i];
        if row.filled == UNREQUESTED {
            row.filled = epoch;
            if TELEM {
                self.rows_filled += 1;
            }
        } else if TELEM && row.filled != epoch {
            self.rows_hit += 1;
        }
        &row.gains
    }

    /// Cache `gains` as the not yet requested row `key`.
    fn insert(&mut self, key: u64, gains: Vec<f64>) {
        self.index.insert(key, self.rows.len() as u32);
        self.rows.push(GainRow {
            gains,
            filled: UNREQUESTED,
        });
    }

    /// Fill the row of every occupant of `cell` over `items` (the
    /// cell's occupant list) at once. Each unordered pair `{a, b}` is
    /// computed once by [`Channel::mean_rx_power`] and written to both
    /// `row(a)[j_b]` and `row(b)[j_a]`. The channel is reciprocal bit
    /// for bit (the distance is symmetric and the shadowing draw is
    /// keyed by the unordered link), so every row is the one
    /// [`Channel::fill_mean_rx_dbm`] would compute, its `NEG_INFINITY`
    /// diagonal included.
    fn fill_cell(&mut self, channel: &Channel, cell: usize, items: &[DeviceId]) {
        let m = items.len();
        let base = self.rows.len();
        for &a in items {
            debug_assert!(
                !self.index.contains_key(&Self::key(a, cell)),
                "cell {cell} is block-filled once"
            );
            self.insert(Self::key(a, cell), vec![f64::NEG_INFINITY; m]);
        }
        let rows = &mut self.rows[base..];
        for i in 0..m {
            // Row `i` and the rows after it, so the pair's two rows can
            // be written together.
            let (head, tail) = rows.split_at_mut(i + 1);
            let row_i = &mut head[i].gains;
            for j in i + 1..m {
                let g = channel.mean_rx_power(items[i], items[j]).get();
                row_i[j] = g;
                tail[j - i - 1].gains[i] = g;
            }
        }
    }
}

/// The admit pass of one (transmission, cell) row: every live,
/// listening occupant reads its fade-lane entry.
fn admit_row<const CERTIFIED: bool>(
    acc: &mut KeyAcc,
    ctx: &SlotCtx<'_>,
    tx_stamp: &[u64],
    ti: u32,
    items: &[DeviceId],
    mean: &[f64],
    faded: &[f64],
) {
    for ((&r, &m), &p) in items.iter().zip(mean).zip(faded) {
        // Transmitting receivers are deaf (half-duplex); departed ones
        // hear nothing.
        if tx_stamp[r as usize] == ctx.epoch || !ctx.active[r as usize] {
            continue;
        }
        acc.admit::<CERTIFIED>(ctx, ti, r, m, p);
    }
}

/// Epoch-stamped slot resolver with the same semantics as
/// [`ffd2d_phy::Medium`]: per receiver and codec, a lone above-threshold
/// signal decodes; several collide unless the strongest beats the
/// runner-up by the capture margin; transmitters are half-duplex deaf.
///
/// A `FastMedium` is bound to the [`World`] it first resolves against:
/// its cached link state is keyed by device ids and grid cells and
/// never flushed. Do not share one across worlds.
///
/// Resolution runs on the caller's thread. Accumulation walks cells
/// ascending, receivers ascending within a cell and each cell's
/// transmissions in submission order; delivery (counters, trace
/// events, the `deliver` callback) then walks the touched
/// `(receiver, codec)` keys in ascending order, which is the reference
/// resolver's order — so traced runs are byte-identical too.
#[derive(Debug)]
pub struct FastMedium {
    /// Per-`(receiver, codec)` collision accumulators.
    acc: KeyAcc,
    /// The fade lane: `mean[j] + fade` for every occupant `j` of the
    /// row being accumulated, filled by a branch-free pass before the
    /// admit pass reads it.
    faded: Vec<f64>,
    /// Mean gains of the current row under [`GainCacheMode::Off`]:
    /// filled per (transmission, cell) and never kept.
    scratch_row: Vec<f64>,
    /// Per-device transmit epoch (half-duplex tracking).
    tx_stamp: Vec<u64>,
    epoch: u64,
    /// Per-cell transmission batches (epoch-stamped, allocation reused).
    cell_stamp: Vec<u64>,
    cell_txs: Vec<Vec<u32>>,
    touched_cells: Vec<u32>,
    /// Run-long link-state cache (see [`GainCache`]).
    gains: GainCache,
}

/// Epoch-stamped per-`(receiver, codec)` collision accumulators,
/// indexed `receiver * 2 + codec`.
#[derive(Debug)]
struct KeyAcc {
    /// Per-key accumulator epoch (slot-stamped).
    stamp: Vec<u64>,
    best: Vec<f64>,
    second: Vec<f64>,
    best_tx: Vec<u32>,
    /// Mean link gain of the best pair, so a certified key can redraw
    /// its delivered power exactly. Sized on the first certified slot,
    /// so a channel without fading never allocates it.
    best_mean: Vec<f64>,
    count: Vec<u32>,
    /// Keys first touched this slot, in touch order.
    touched: Vec<u32>,
    /// Above-threshold (detected) pairs seen this slot.
    detected: u64,
    /// Exact fade draws the certified lane paid this slot.
    exact_draws: u64,
    /// Certified-lane keys re-derived exactly this slot.
    rescans: u64,
}

/// Read-only per-slot inputs of the accumulation pass.
struct SlotCtx<'a> {
    world: &'a World,
    transmissions: &'a [ProximitySignal],
    epoch: u64,
    /// The slot's fading draw state (block key hoisted out of the
    /// per-pair loop).
    fade: SlotFade,
    threshold: f64,
    mean_floor: f64,
    /// Receiver liveness: `false` for a device that has left.
    active: &'a [bool],
    /// Per-transmission power droop in dB (fault injection); `None`
    /// when no droop window is open this slot.
    droop: Option<&'a [f64]>,
    /// Whether rows come from the run-long gain cache; `false`
    /// ([`crate::GainCacheMode::Off`]) recomputes every row into the
    /// scratch row.
    cached: bool,
    /// Whether the slot takes the certified fade lane: the channel fades
    /// (`FadingModel::None` draws nothing to approximate).
    certify: bool,
}

impl SlotCtx<'_> {
    /// Faded power `p` of transmission `ti` after its droop, if any.
    #[inline]
    fn drooped(&self, ti: u32, p: f64) -> f64 {
        match self.droop {
            Some(droop) => p - droop[ti as usize],
            None => p,
        }
    }

    /// The exact received power of transmission `ti` at `r`, given the
    /// pair's mean gain: the exact lane's expression, bit for bit.
    #[inline]
    fn exact_power(&self, ti: u32, r: DeviceId, mean: f64) -> f64 {
        let sender = self.transmissions[ti as usize].sender;
        self.drooped(ti, mean + self.fade.gain_db(sender, r))
    }
}

impl KeyAcc {
    fn new(n: usize) -> KeyAcc {
        KeyAcc {
            stamp: vec![0; n * 2],
            best: vec![f64::NEG_INFINITY; n * 2],
            second: vec![f64::NEG_INFINITY; n * 2],
            best_tx: vec![0; n * 2],
            best_mean: Vec::new(),
            count: vec![0; n * 2],
            touched: Vec::with_capacity(64),
            detected: 0,
            exact_draws: 0,
            rescans: 0,
        }
    }

    /// Admit one candidate pair given its mean link gain and its faded
    /// power (`mean + fade`, from the lane): floor prune on the mean,
    /// droop, threshold test, then the per-key best/second/count
    /// accumulation. On the certified lane (`CERTIFIED`) `faded` holds
    /// the approximate fade, and a pair within δ of the threshold pays
    /// the exact draw before the test.
    #[inline]
    fn admit<const CERTIFIED: bool>(
        &mut self,
        ctx: &SlotCtx<'_>,
        ti: u32,
        r: DeviceId,
        mean: f64,
        faded: f64,
    ) {
        if mean < ctx.mean_floor {
            // Provably below threshold for any fading draw; tallied by
            // the closed-form reconstruction. Droops only weaken a
            // signal further, so the prune stays conservative under
            // fault plans.
            return;
        }
        let mut p = ctx.drooped(ti, faded);
        if CERTIFIED && (p - ctx.threshold).abs() <= SlotFade::APPROX_ERROR_DB {
            self.exact_draws += 1;
            p = ctx.exact_power(ti, r, mean);
        }
        if p < ctx.threshold {
            return;
        }
        self.detected += 1;
        let tx = &ctx.transmissions[ti as usize];
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
            if CERTIFIED {
                self.best_mean[k] = mean;
            }
        } else if p > self.second[k] {
            self.second[k] = p;
        }
    }

    /// Whether certified-lane key `k` decodes, leaving the exact
    /// delivered power in `best[k]` when it does. Every power the key
    /// holds is within δ of its exact value, so its best-to-runner-up
    /// gap is within 2δ of the exact gap: a gap more than 2δ below the
    /// capture margin is a certain collision, which reads no power; one
    /// more than 2δ above both the margin and 0 is a certain capture by
    /// `best_tx`, which pays one exact draw for the delivered power.
    /// Anything else is re-derived exactly ([`KeyAcc::rescan`]).
    fn settle(&mut self, ctx: &SlotCtx<'_>, k: usize, margin: f64, cell_txs: &[Vec<u32>]) -> bool {
        let slack = 2.0 * SlotFade::APPROX_ERROR_DB;
        let gap = if self.count[k] == 1 {
            f64::INFINITY
        } else {
            self.best[k] - self.second[k]
        };
        if gap < margin - slack {
            return false;
        }
        if gap > margin + slack && gap > slack {
            self.exact_draws += 1;
            self.best[k] = ctx.exact_power(self.best_tx[k], (k / 2) as DeviceId, self.best_mean[k]);
            return true;
        }
        self.rescan(ctx, k, cell_txs);
        self.count[k] == 1 || self.best[k] >= self.second[k] + margin
    }

    /// Re-derive key `k`'s best, runner-up and `best_tx` from exact
    /// draws. A receiver hears only its own cell's transmissions, so
    /// walking that cell's batch in submission order replays the exact
    /// lane pair for pair, and ties break as they do there.
    fn rescan(&mut self, ctx: &SlotCtx<'_>, k: usize, cell_txs: &[Vec<u32>]) {
        let r = (k / 2) as DeviceId;
        let grid = &ctx.world.grid;
        let (x, y) = grid.point(r);
        let (mut best, mut second, mut best_tx) = (f64::NEG_INFINITY, f64::NEG_INFINITY, 0);
        let mut count = 0;
        for &ti in &cell_txs[grid.cell_index(x, y)] {
            let tx = &ctx.transmissions[ti as usize];
            if FastMedium::codec_index(tx.codec()) != k % 2 {
                continue;
            }
            let mean = ctx.world.mean_rx_dbm(tx.sender, r);
            if mean < ctx.mean_floor {
                continue;
            }
            self.exact_draws += 1;
            let p = ctx.exact_power(ti, r, mean);
            if p < ctx.threshold {
                continue;
            }
            count += 1;
            if p > best {
                second = best;
                best = p;
                best_tx = ti;
            } else if p > second {
                second = p;
            }
        }
        debug_assert_eq!(
            count, self.count[k],
            "rescan of key {k} recounted its signals"
        );
        self.best[k] = best;
        self.second[k] = second;
        self.best_tx[k] = best_tx;
        self.rescans += 1;
    }
}

impl FastMedium {
    /// A resolver for `n` devices.
    pub fn new(n: usize) -> FastMedium {
        FastMedium {
            acc: KeyAcc::new(n),
            faded: Vec::new(),
            scratch_row: Vec::new(),
            tx_stamp: vec![0; n],
            epoch: 0,
            cell_stamp: Vec::new(),
            cell_txs: Vec::new(),
            touched_cells: Vec::new(),
            gains: GainCache::default(),
        }
    }

    /// `2 ×` the edge count of `world`'s ground-truth proximity graph
    /// ([`World::proximity_graph`]), counted without building it: every
    /// pair `b > a` with `b` in a cell covering `a`'s mean-link disc,
    /// within that radius by the grid's own inclusive test, whose mean
    /// gain clears the threshold — `build_proximity_graph`'s predicate.
    /// Means come from the warm gain-cache row `(a, cell)` when there
    /// is one; pairs without a row are computed with
    /// [`World::mean_rx_dbm`].
    pub fn ground_truth_links(&self, world: &World) -> u64 {
        let gains = &self.gains;
        let grid = &world.grid;
        let radius = world.mean_link_range_m;
        let r2 = radius * radius;
        let mut links = 0u64;
        for a in 0..world.n() as DeviceId {
            let p = world.deployment().position(a);
            for cell in grid.cells_intersecting_disc(p.x, p.y, radius) {
                let row = gains
                    .index
                    .get(&GainCache::key(a, cell))
                    .map(|&i| &gains.rows[i as usize].gains);
                for (j, &b) in grid.cell_items(cell).iter().enumerate() {
                    if b <= a {
                        continue;
                    }
                    let (x, y) = grid.point(b);
                    let (dx, dy) = (x - p.x, y - p.y);
                    if dx * dx + dy * dy > r2 {
                        continue;
                    }
                    let mean = match row {
                        Some(row) => row[j],
                        None => world.mean_rx_dbm(a, b),
                    };
                    if mean >= world.threshold_dbm() {
                        links += 1;
                    }
                }
            }
        }
        2 * links
    }

    #[inline]
    fn codec_index(codec: RachCodec) -> usize {
        match codec {
            RachCodec::Rach1 => 0,
            RachCodec::Rach2 => 1,
        }
    }

    /// Accumulate the slot's touched cells, one (transmission, cell)
    /// row at a time: resolve the row's mean gains (the gain cache, or
    /// the scratch row under [`GainCacheMode::Off`]), fill the fade lane
    /// with `mean[j] + fade` in a loop with no branches, so the draws of
    /// neighbouring pairs overlap, then admit each live receiver reading
    /// its lane entry. Receivers ascend within a cell and each cell's
    /// transmissions arrive in submission order, so every
    /// `(receiver, codec)` key sees its transmissions in submission
    /// order whatever the caching mode, and the lane holds the same f64
    /// expression the reference resolver evaluates per pair — per-key
    /// state is bit-identical (locked by `tests/gain_cache.rs`).
    fn accumulate<const TELEM: bool>(&mut self, ctx: &SlotCtx<'_>) {
        let FastMedium {
            acc,
            faded,
            scratch_row,
            tx_stamp,
            cell_txs,
            touched_cells,
            gains,
            ..
        } = self;
        for &cell in touched_cells.iter() {
            let cell = cell as usize;
            let items = ctx.world.grid.cell_items(cell);
            for &ti in &cell_txs[cell] {
                let sender = ctx.transmissions[ti as usize].sender;
                let mean: &[f64] = if ctx.cached {
                    gains.row::<TELEM>(ctx.world, ctx.epoch, sender, cell, items)
                } else {
                    scratch_row.clear();
                    ctx.world
                        .channel
                        .fill_mean_rx_dbm(sender, items, scratch_row);
                    scratch_row
                };
                let fade = ctx.fade;
                faded.clear();
                if ctx.certify {
                    faded.extend(items.iter().zip(mean).map(|(&r, &m)| {
                        let g = fade.approx_db(sender, r);
                        debug_assert!(
                            (g - fade.gain_db(sender, r)).abs() <= SlotFade::APPROX_ERROR_DB,
                            "certified fade of {sender}->{r} outside its bound"
                        );
                        m + g
                    }));
                    admit_row::<true>(acc, ctx, tx_stamp, ti, items, mean, faded);
                } else {
                    faded.extend(
                        items
                            .iter()
                            .zip(mean)
                            .map(|(&r, &m)| m + fade.gain_db(sender, r)),
                    );
                    admit_row::<false>(acc, ctx, tx_stamp, ti, items, mean, faded);
                }
            }
        }
    }

    /// Size the per-cell scratch tables to `world`'s grid.
    fn sync_with(&mut self, world: &World) {
        let cells = world.grid.cell_count();
        if self.cell_stamp.len() != cells {
            self.cell_stamp = vec![0; cells];
            self.cell_txs = vec![Vec::new(); cells];
        }
    }

    /// Resolve one slot: every decoded `(receiver, signal, rx_dbm)`
    /// triple is fed to `deliver` (the received power is what RSSI
    /// ranging consumes), and `counters` tallies transmissions and
    /// reception outcomes.
    ///
    /// * `active` — per-device liveness: a receiver whose entry is
    ///   `false` hears nothing (it left the arena), like a transmitting
    ///   one. `live` is the number of `true` entries, the population the
    ///   closed-form below-threshold reconstruction counts; an all-true
    ///   mask is the reference resolver over the full receiver set.
    /// * Transmit-power droops from the world's
    ///   [`ScenarioConfig::faults`] plan are subtracted per transmission
    ///   before the threshold test; an empty droop schedule is the
    ///   fault-free resolver bit for bit.
    /// * `sink` gets every transmission, decode and collision, plus one
    ///   aggregate below-threshold count per slot (the fast path never
    ///   visits the individual inaudible pairs). It is also threaded
    ///   into `deliver` so callers can emit follow-on events (e.g.
    ///   oscillator adjustments) without a second borrow.
    /// * An enabled `rec` gets the slot's resolution wall clock,
    ///   candidate-pair count, accumulation wall clock and gain-cache
    ///   row hit/fill tallies with the fill kernel's wall clock.
    ///
    /// Both observers are strictly observational — they draw no
    /// randomness and feed nothing back into resolution, so counters,
    /// deliveries and their order are bit-identical whatever is
    /// attached, and [`NullSink`](ffd2d_trace::NullSink) /
    /// [`NullRecorder`](ffd2d_telemetry::NullRecorder) compile every
    /// emission site out.
    #[allow(clippy::too_many_arguments)]
    pub fn resolve<S, R, F>(
        &mut self,
        world: &World,
        slot: Slot,
        transmissions: &[ProximitySignal],
        active: &[bool],
        live: usize,
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
            let p = world.deployment().position(tx.sender);
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

        let threshold = world.threshold_dbm();
        let ctx = SlotCtx {
            world,
            transmissions,
            epoch,
            fade: world.channel.slot_fade(slot),
            threshold,
            mean_floor: threshold - world.fade_headroom_db(),
            active,
            droop: droops.as_deref(),
            cached: world.config().gain_cache == GainCacheMode::Epoch,
            certify: world.channel.config().fading != FadingModel::None,
        };
        if ctx.certify && self.acc.best_mean.is_empty() {
            self.acc.best_mean = vec![0.0; self.acc.stamp.len()];
        }
        self.acc.detected = 0;
        self.acc.exact_draws = 0;
        self.acc.rescans = 0;
        self.acc.touched.clear();
        // The accumulation window, gain-row fills included.
        let t_accumulate = rec.start();
        if R::ENABLED {
            self.gains.rows_hit = 0;
            self.gains.rows_filled = 0;
            self.gains.fill_ns = 0;
            self.accumulate::<true>(&ctx);
        } else {
            self.accumulate::<false>(&ctx);
        }
        rec.stop("medium.shard_busy_ns", t_accumulate);

        // Exact counter reconstruction: the reference walks every
        // (transmission, non-transmitting receiver) pair and counts it
        // either as detected (rx_ok + rx_collision below) or as below
        // threshold — so the latter is the complement. Only the live
        // population counts as receivers.
        debug_assert_eq!(live, active.iter().filter(|&&a| a).count(), "live count");
        let receivers = live as u64 - distinct_senders;
        let below_threshold = transmissions.len() as u64 * receivers - self.acc.detected;
        counters.add_rx_below_threshold(below_threshold);
        if S::ENABLED && below_threshold > 0 {
            sink.event(&TraceEvent::RxBelowThreshold {
                slot: slot.0,
                count: below_threshold,
            });
        }

        // Deterministic delivery order regardless of tx iteration
        // pattern: keys ascending, exactly the reference resolver's
        // order.
        let cell_txs = &self.cell_txs;
        let acc = &mut self.acc;
        acc.touched.sort_unstable();
        let touched = std::mem::take(&mut acc.touched);
        for &k32 in &touched {
            let k = k32 as usize;
            let receiver = (k / 2) as DeviceId;
            let n_signals = acc.count[k];
            let decoded = if ctx.certify {
                acc.settle(&ctx, k, world.capture_margin_db, cell_txs)
            } else if n_signals == 1 {
                true
            } else {
                acc.best[k] >= acc.second[k] + world.capture_margin_db
            };
            if decoded {
                counters.add_rx_ok(1);
                counters.add_rx_collision((n_signals - 1) as u64);
                let sig = transmissions[acc.best_tx[k] as usize];
                if S::ENABLED {
                    sink.event(&TraceEvent::RxDecode {
                        slot: slot.0,
                        receiver,
                        sender: sig.sender,
                        codec: sig.codec().trace_codec(),
                        rx_dbm: acc.best[k],
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
                deliver(receiver, &sig, acc.best[k], sink);
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
        acc.touched = touched;

        if R::ENABLED {
            let pairs: u64 = self
                .touched_cells
                .iter()
                .map(|&c| {
                    self.cell_txs[c as usize].len() as u64
                        * world.grid.cell_items(c as usize).len() as u64
                })
                .sum();
            rec.add("medium.slots_resolved", 1);
            rec.add("medium.transmissions", transmissions.len() as u64);
            rec.observe("medium.pairs_per_slot", pairs);
            if self.gains.fill_ns > 0 {
                rec.record_ns("medium.gain_fill_ns", self.gains.fill_ns);
            }
            if ctx.certify {
                // Exact work of the certified fade lane: threshold-band
                // pairs, delivered powers and rescanned pairs.
                rec.add("medium.fade_exact_draws", self.acc.exact_draws);
                rec.add("medium.fade_rescans", self.acc.rescans);
            }
            if ctx.cached {
                // Row granularity: a hit serves a whole (sender, cell)
                // row from the gain cache; a miss runs the batched
                // fill kernel once. Absent entirely under
                // `GainCacheMode::Off` (perf_inspect renders `n/a`).
                rec.add("medium.gain_cache_hits", self.gains.rows_hit);
                rec.add("medium.gain_cache_misses", self.gains.rows_filled);
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
    use ffd2d_sim::deployment::Meters;
    use ffd2d_sim::time::SlotDuration;
    use ffd2d_telemetry::NullRecorder;
    use ffd2d_trace::NullSink;

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
        let reference = Medium::default();
        let receivers: Vec<u32> = (0..w.n() as u32).collect();
        let transmissions: Vec<Transmission> = txs.iter().map(|&s| Transmission::new(s)).collect();

        let mut ref_counters = Counters::new();
        let ref_reports = reference.resolve(
            w.channel(),
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
        fast.resolve(
            w,
            Slot(slot),
            txs,
            &vec![true; w.n()],
            w.n(),
            &mut fast_counters,
            &mut NullSink,
            &mut NullRecorder,
            |r, sig, p, _| {
                assert!(p >= w.threshold_dbm());
                fast_pairs.push((r, sig.sender));
            },
        );
        fast_pairs.sort();

        assert_eq!(fast_pairs, ref_pairs, "decode pairs, slot {slot}");
        assert_eq!(fast_counters, ref_counters, "counters, slot {slot}");
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

    /// A channel built apart from `w` from its scenario's radio config
    /// and seed, to check the one `World::new` built.
    fn reference_channel(w: &World) -> Channel {
        let cfg = w.config();
        Channel::new(w.deployment().clone(), cfg.channel.clone(), cfg.sim.seed)
    }

    #[test]
    fn mean_power_matches_reference_channel() {
        let w = World::new(&small_cfg(15, 3));
        let ch = reference_channel(&w);
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
        let ch = reference_channel(&w);
        for slot in [0u64, 7, 35, 1000] {
            for a in 0..10u32 {
                for b in 0..10u32 {
                    if a != b {
                        let fast = w.channel().rx_power(a, b, Slot(slot)).get();
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
        // The Table-I cell, and a 1 km ideal arena where the graph's
        // candidate search spans many grid cells.
        let mut multi_cell = small_cfg(40, 31).ideal_channel();
        multi_cell.sim.area_width = Meters(1000.0);
        multi_cell.sim.area_height = Meters(1000.0);
        for (cfg, n) in [(small_cfg(25, 5), 25u32), (multi_cell, 40)] {
            let w = World::new(&cfg);
            let g = w.proximity_graph();
            for a in 0..n {
                for b in (a + 1)..n {
                    let linked = w.mean_rx_dbm(a, b) >= w.threshold_dbm();
                    assert_eq!(g.has_edge(a, b), linked, "edge {{{a},{b}}}");
                    if let Some(wt) = g.weight(a, b) {
                        assert_eq!(wt.get(), w.mean_rx_dbm(a, b));
                    }
                }
            }
        }
    }

    #[test]
    fn cell_posting_covers_every_possible_receiver() {
        // The medium posts a transmission only to the cells its
        // audibility disc covers: any device outside them must have a
        // mean below the provable detectability floor — the exactness
        // contract of the pruning. Checked on the Table-I cell and on
        // ideal-channel arenas of 1 and 2 km, where the grid has many
        // cells (Table-I shadowing makes the worst-case disc wider than
        // either arena).
        let mut arenas = vec![(small_cfg(40, 9), false)];
        for (side, seed) in [(1000.0, 19), (2000.0, 21)] {
            let mut cfg = small_cfg(300, seed).ideal_channel();
            cfg.sim.area_width = Meters(side);
            cfg.sim.area_height = Meters(side);
            arenas.push((cfg, true));
        }
        for (cfg, multi_cell) in arenas {
            let w = World::new(&cfg);
            let grid = w.spatial_grid();
            assert_eq!(
                grid.cell_count() > 1,
                multi_cell,
                "{} cells",
                grid.cell_count()
            );
            let floor = w.threshold_dbm() - w.fade_headroom_db();
            let n = w.n() as DeviceId;
            let mut pruned = 0;
            for a in 0..n {
                let p = w.deployment().position(a);
                let mut posted = vec![false; n as usize];
                for cell in grid.cells_intersecting_disc(p.x, p.y, w.audible_range_m()) {
                    for &b in grid.cell_items(cell) {
                        posted[b as usize] = true;
                    }
                }
                for b in (0..n).filter(|&b| !posted[b as usize]) {
                    pruned += 1;
                    assert!(
                        w.mean_rx_dbm(a, b) < floor,
                        "pruned pair {a}->{b} is not provably inaudible"
                    );
                }
            }
            assert_eq!(pruned > 0, multi_cell, "pruned pairs: {pruned}");
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
                fast.resolve(
                    &w,
                    Slot(slot),
                    &txs,
                    &[true; 48],
                    48,
                    &mut counters,
                    &mut NullSink,
                    &mut NullRecorder,
                    |r, sig, p, _| delivered.push((r, sig.sender, p.to_bits())),
                );
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
    fn gain_cache_survives_slots() {
        use ffd2d_telemetry::Telemetry;
        let mut cfg = small_cfg(40, 13).ideal_channel();
        cfg.sim.area_width = Meters(1000.0);
        cfg.sim.area_height = Meters(1000.0);
        let w = World::new(&cfg);
        let mut fast = FastMedium::new(40);
        let txs = [fire(2), fire(11), fire(27)];
        let resolve = |fast: &mut FastMedium, w: &World, slot: u64| {
            let mut rec = Telemetry::new();
            let mut counters = Counters::new();
            fast.resolve(
                w,
                Slot(slot),
                &txs,
                &[true; 40],
                40,
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
        assert_eq!(h0, 0, "a cold cache cannot hit");
        assert!(m0 > 0, "first slot must fill rows");
        let (h1, m1) = resolve(&mut fast, &w, 1);
        assert_eq!(m1, 0, "same senders: no refill");
        assert_eq!(h1, m0, "every filled row is reused");
    }

    #[test]
    fn block_fill_rows_match_the_batched_kernel() {
        // Every in-cell row of a block fill is the batched kernel's row,
        // bit for bit, on the Table-I channel, the ideal channel and a
        // log-distance channel, from the smallest cells up to one of
        // 130 occupants.
        use ffd2d_radio::pathloss::PathLoss;
        let bits = |v: &[f64]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        let n = 260;
        let mut log_distance = small_cfg(n, 41);
        log_distance.channel.pathloss = PathLoss::outdoor_log_distance();
        for cfg in [
            small_cfg(n, 41),
            small_cfg(n, 41).ideal_channel(),
            log_distance,
        ] {
            let w = World::new(&cfg);
            for m in [1, 2, 63, 64, 65, 130] {
                // Every other device, so an occupant's index is not its id.
                let items: Vec<DeviceId> = (0..m as DeviceId).map(|j| 2 * j + 1).collect();
                let mut cache = GainCache::default();
                cache.fill_cell(w.channel(), 3, &items);
                assert_eq!(cache.rows.len(), m);
                for &a in &items {
                    let row = &cache.rows[cache.index[&GainCache::key(a, 3)] as usize];
                    assert_eq!(row.filled, UNREQUESTED);
                    let mut expected = Vec::new();
                    w.channel().fill_mean_rx_dbm(a, &items, &mut expected);
                    assert_eq!(bits(&row.gains), bits(&expected), "row {a} of {m}");
                }
            }
        }
    }

    #[test]
    fn block_fill_stays_in_the_senders_cell() {
        // On a multi-cell arena, one transmission caches the rows of
        // every occupant of the sender's own cell, plus the sender's
        // row of each other cell its audibility disc covers, and no
        // other row.
        let mut cfg = small_cfg(300, 21).ideal_channel();
        cfg.sim.area_width = Meters(2000.0);
        cfg.sim.area_height = Meters(2000.0);
        let w = World::new(&cfg);
        let grid = w.spatial_grid();
        let cell_of = |d: DeviceId| {
            let (x, y) = grid.point(d);
            grid.cell_index(x, y)
        };
        // A sender that shares its cell and whose disc reaches others.
        let sender = (0..w.n() as DeviceId)
            .find(|&d| {
                let p = w.deployment().position(d);
                grid.cell_items(cell_of(d)).len() > 1
                    && grid
                        .cells_intersecting_disc(p.x, p.y, w.audible_range_m())
                        .count()
                        > 1
            })
            .expect("a sender with cell mates and neighbour cells");
        let own = cell_of(sender);
        let p = w.deployment().position(sender);
        let expected: Vec<u64> = grid
            .cells_intersecting_disc(p.x, p.y, w.audible_range_m())
            .filter(|&c| c != own)
            .map(|c| GainCache::key(sender, c))
            .chain(grid.cell_items(own).iter().map(|&a| GainCache::key(a, own)))
            .collect();

        let mut fast = FastMedium::new(w.n());
        fast.resolve(
            &w,
            Slot(0),
            &[fire(sender)],
            &vec![true; w.n()],
            w.n(),
            &mut Counters::new(),
            &mut NullSink,
            &mut NullRecorder,
            |_, _, _, _| {},
        );
        let gains = &fast.gains;
        for key in &expected {
            assert!(gains.index.contains_key(key), "row {key:#x} not cached");
        }
        assert_eq!(
            gains.index.len(),
            expected.len(),
            "rows beyond the expected set"
        );
        assert_eq!(gains.rows.len(), expected.len());
    }

    #[test]
    fn ground_truth_links_counts_the_proximity_graph_in_every_cache_state() {
        use crate::GainCacheMode;
        let check = |w: &World, fast: &FastMedium, state: &str| {
            let expected = 2 * w.proximity_graph().m() as u64;
            assert!(expected > 0, "{state}: scenario must have links");
            assert_eq!(fast.ground_truth_links(w), expected, "{state}");
        };
        let resolve = |fast: &mut FastMedium, w: &World, slot: u64, txs: &[ProximitySignal]| {
            fast.resolve(
                w,
                Slot(slot),
                txs,
                &vec![true; w.n()],
                w.n(),
                &mut Counters::new(),
                &mut NullSink,
                &mut NullRecorder,
                |_, _, _, _| {},
            );
        };
        let n = 48u32;
        let every: Vec<ProximitySignal> = (0..n).map(fire).collect();

        // Table-I cell: cold, partly warm, fully warm.
        let w = World::new(&small_cfg(n as usize, 37));
        let mut fast = FastMedium::new(n as usize);
        check(&w, &fast, "cold");
        resolve(&mut fast, &w, 0, &[fire(3), fire(20), fire(41)]);
        check(&w, &fast, "partly warm");
        resolve(&mut fast, &w, 1, &every);
        check(&w, &fast, "fully warm");

        // No cache at all.
        let off = World::new(&small_cfg(n as usize, 37).with_gain_cache(GainCacheMode::Off));
        let mut fast = FastMedium::new(n as usize);
        resolve(&mut fast, &off, 0, &every);
        check(&off, &fast, "GainCacheMode::Off");

        // Multi-cell sparse arena, where the grid prunes.
        let mut cfg = small_cfg(60, 23).ideal_channel();
        cfg.sim.area_width = Meters(2000.0);
        cfg.sim.area_height = Meters(2000.0);
        let w = World::new(&cfg);
        assert!(w.spatial_grid().cols() >= 20);
        let mut fast = FastMedium::new(60);
        let every: Vec<ProximitySignal> = (0..60).map(fire).collect();
        resolve(&mut fast, &w, 0, &every);
        check(&w, &fast, "sparse arena, warm");
    }

    #[test]
    fn fast_medium_empty_slot_is_free() {
        let w = World::new(&small_cfg(5, 1));
        let mut fast = FastMedium::new(5);
        let mut counters = Counters::new();
        fast.resolve(
            &w,
            Slot(0),
            &[],
            &[true; 5],
            5,
            &mut counters,
            &mut NullSink,
            &mut NullRecorder,
            |_, _, _, _| panic!("nothing to deliver"),
        );
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
