//! Tiled analog linear layer with optional detection + recovery.

use crate::config::TileConfig;
use crate::error::CimError;
use crate::health::{AbftReport, HealthState, TileEvent, TileEventKind, TileHealth, TileSite};
use crate::tile::{AnalogTile, DriftCompensation, ForwardStats, TileCtx};
use nora_tensor::rng::Rng;
use nora_tensor::Matrix;

/// Stream tag for re-programming rng derivation ("RP").
const REPROGRAM_STREAM: u64 = 0x5250_0000;

/// One layer of [`AnalogLinear::try_with_smoothing_batch`]: its weights,
/// bias, smoothing and seed, as [`AnalogLinear::try_with_smoothing`] takes
/// them.
type LayerInputs<'a> = (Matrix, Option<Vec<f32>>, Option<&'a [f32]>, u64);

/// Deferred side effect of one tile forward on the **keyed** (stateless)
/// decode path: the statistics delta and any ABFT flag the tile would have
/// applied to itself on the sequential path. Collected per caller during a
/// parallel round and absorbed into the layer in a fixed (slot, grid)
/// order via [`AnalogLinear::absorb_tile_effect`], so the layer's
/// accumulated state is bit-identical at any thread count.
#[derive(Debug, Clone)]
pub struct TileEffect {
    entry: usize,
    stats: ForwardStats,
    report: Option<AbftReport>,
}

/// Reusable scratch arena for [`AnalogLinear::forward_single_keyed`]: the
/// per-tile output buffer plus the tile-level conversion scratch. One per
/// concurrent caller (serving slot); reused across layers and decode steps.
#[derive(Debug, Clone, Default)]
pub struct KeyedCtx {
    tile: TileCtx,
    part: Vec<f32>,
}

/// How one grid slot currently executes its weight block.
#[derive(Debug, Clone)]
enum TileSlot {
    /// Served by an analog tile.
    Analog(Box<AnalogTile>),
    /// Served by exact digital GEMV of the raw block (graceful fallback).
    Digital(Matrix),
}

/// One slot of the layer's tile grid.
#[derive(Debug, Clone)]
struct TileEntry {
    r0: usize,
    c0: usize,
    slot: TileSlot,
    health: TileHealth,
    /// Physical array currently serving this slot (changes on remap).
    physical_id: u64,
    /// Pristine rng state for (re-)programming this slot deterministically.
    rng_template: Rng,
}

impl TileEntry {
    fn rows(&self) -> usize {
        match &self.slot {
            TileSlot::Analog(t) => t.rows(),
            TileSlot::Digital(w) => w.rows(),
        }
    }
}

/// A linear layer (`y = x · W + b`) executed on a grid of analog tiles.
///
/// Weight matrices larger than one tile are partitioned: rows (input
/// channels) split across tile rows, columns (output channels) across tile
/// columns. Each tile converts its partial sum through its own ADC — as on
/// real hardware — and the partial sums are accumulated **digitally**, as is
/// the bias. This mirrors the hybrid mapping of the paper's Fig. 2, where
/// only the GEMV itself is analog.
///
/// An optional per-input-channel smoothing vector `s` (length `d_in`)
/// implements the NORA rescaling; each tile receives its row-slice of `s`.
///
/// With an active [`crate::FaultTolerance`] policy the layer additionally
/// verifies every tile's ABFT checksum per forward batch and runs a bounded
/// recovery ladder when a tile is flagged: re-program the same physical
/// array (escalating write–verify and read averaging), then remap the block
/// to a spare array, then fall back to exact digital execution. Every step
/// is recorded as a [`TileEvent`].
///
/// # Example
///
/// ```
/// use nora_cim::{AnalogLinear, TileConfig};
/// use nora_tensor::{Matrix, rng::Rng};
///
/// let mut rng = Rng::seed_from(9);
/// let w = Matrix::random_normal(100, 40, 0.0, 0.2, &mut rng);
/// let cfg = TileConfig::ideal().with_tile_size(32, 32); // forces a 4x2 grid
/// let mut layer = AnalogLinear::new(w.clone(), None, cfg, 1);
/// let x = Matrix::random_normal(3, 100, 0.0, 1.0, &mut rng);
/// assert!(layer.forward(&x).mse(&x.matmul(&w)) < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct AnalogLinear {
    d_in: usize,
    d_out: usize,
    bias: Option<Vec<f32>>,
    entries: Vec<TileEntry>,
    smoothing: Option<Vec<f32>>,
    config: TileConfig,
    /// Raw weight blocks per entry, retained only when recovery is active
    /// (needed for re-programming, remapping, and digital fallback).
    blocks: Vec<Matrix>,
    events: Vec<TileEvent>,
    spares_used: u32,
    next_spare_id: u64,
    /// Construction seed, kept as the layer-level component of the
    /// counter-keyed noise streams (the keyed decode path derives each
    /// row's stream from `(seed, grid coords, request seed, position)`).
    seed: u64,
    /// When set, flagged tiles are *not* recovered inline during a forward:
    /// the flag is recorded and the degraded partial sums are served, while
    /// an external maintenance scheduler drains [`AnalogLinear::suspect_tiles`]
    /// via [`AnalogLinear::rotate_tile`] in the background.
    deferred_recovery: bool,
}

/// Outcome of one [`AnalogLinear::recalibrate`] probe pass over the layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecalOutcome {
    /// Global correction factor α̂ applied to every analog tile.
    pub alpha: f32,
    /// Healthy analog tiles whose probe fed the estimate.
    pub probed: usize,
    /// Analog tiles excluded from the estimate because their health state
    /// is quarantined (Suspect or Condemned).
    pub excluded: usize,
}

/// Escalated programming settings for retry attempt `tries` (0 = first try,
/// untouched): write–verify iterations and read averaging double per retry.
fn escalate(config: &TileConfig, tries: u32) -> TileConfig {
    if tries == 0 {
        return config.clone();
    }
    let mut c = config.clone();
    let f = 1u32 << tries.min(4);
    c.write_verify_iters = c.write_verify_iters.saturating_mul(f).min(64);
    c.read_averaging = c.read_averaging.saturating_mul(f).min(16);
    c
}

/// Rng for programming attempt `attempt` of a slot. Attempt 0 uses the
/// pristine template so the no-fault path stays bit-identical to the legacy
/// construction; retries fork decorrelated streams.
fn attempt_rng(template: &Rng, attempt: u32) -> Rng {
    if attempt == 0 {
        template.clone()
    } else {
        let mut r = template.clone();
        r.fork(REPROGRAM_STREAM ^ u64::from(attempt))
    }
}

impl AnalogLinear {
    /// Maps `weights` (`d_in × d_out`) onto analog tiles.
    ///
    /// `seed` derives the per-tile noise streams, so two layers built with
    /// the same arguments behave identically.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, `bias` has the wrong length, or the
    /// config is invalid.
    pub fn new(weights: Matrix, bias: Option<Vec<f32>>, config: TileConfig, seed: u64) -> Self {
        Self::with_smoothing(weights, bias, None, config, seed)
    }

    /// Like [`AnalogLinear::new`] with a NORA smoothing vector of length
    /// `d_in` applied to the mapping (Eq. 6–8).
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as `new`, or if `smoothing` has the
    /// wrong length or non-positive entries.
    pub fn with_smoothing(
        weights: Matrix,
        bias: Option<Vec<f32>>,
        smoothing: Option<&[f32]>,
        config: TileConfig,
        seed: u64,
    ) -> Self {
        Self::try_with_smoothing(weights, bias, smoothing, config, seed)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`AnalogLinear::new`].
    ///
    /// # Errors
    ///
    /// See [`AnalogLinear::try_with_smoothing`].
    pub fn try_new(
        weights: Matrix,
        bias: Option<Vec<f32>>,
        config: TileConfig,
        seed: u64,
    ) -> Result<Self, CimError> {
        Self::try_with_smoothing(weights, bias, None, config, seed)
    }

    /// Fallible variant of [`AnalogLinear::with_smoothing`].
    ///
    /// When the config carries a [`nora_device::FaultPlan`] with programming
    /// failures, construction already runs the recovery ladder per tile:
    /// bounded retries on the same physical array, remap to spare arrays,
    /// then digital fallback (policy permitting) — each recorded in
    /// [`AnalogLinear::events`].
    ///
    /// # Errors
    ///
    /// * [`CimError::EmptyWeights`] — `weights` has no elements.
    /// * [`CimError::BiasLength`] / [`CimError::SmoothingLength`] /
    ///   [`CimError::SmoothingNotPositive`] — malformed vectors.
    /// * [`CimError::InvalidConfig`] — the config fails validation.
    /// * [`CimError::ProgrammingFailed`] — a tile could not be programmed
    ///   and the policy allowed no fallback.
    pub fn try_with_smoothing(
        weights: Matrix,
        bias: Option<Vec<f32>>,
        smoothing: Option<&[f32]>,
        config: TileConfig,
        seed: u64,
    ) -> Result<Self, CimError> {
        if weights.is_empty() {
            return Err(CimError::EmptyWeights);
        }
        config.validate().map_err(CimError::InvalidConfig)?;
        let (d_in, d_out) = weights.shape();
        if let Some(b) = &bias {
            if b.len() != d_out {
                return Err(CimError::BiasLength {
                    expected: d_out,
                    got: b.len(),
                });
            }
        }
        if let Some(s) = smoothing {
            if s.len() != d_in {
                return Err(CimError::SmoothingLength {
                    expected: d_in,
                    got: s.len(),
                });
            }
        }
        let mut root_rng = Rng::seed_from(seed ^ 0x6e6f_7261); // "nora"
        let retain = config.fault_tolerance.is_active();
        let mut entries = Vec::new();
        let mut blocks = Vec::new();
        let mut events = Vec::new();
        let tr = config.tile_rows;
        // With ABFT on, one physical column per tile holds the checksum.
        let tc = config.tile_cols - usize::from(config.fault_tolerance.abft);
        // First pass: partition and collect templates so spare ids start
        // after the grid.
        let mut grid = Vec::new();
        let mut r0 = 0;
        while r0 < d_in {
            let r1 = (r0 + tr).min(d_in);
            let mut c0 = 0;
            while c0 < d_out {
                let c1 = (c0 + tc).min(d_out);
                let tile_rng = root_rng.fork((r0 as u64) << 32 | c0 as u64);
                grid.push((r0, r1, c0, c1, tile_rng));
                c0 = c1;
            }
            r0 = r1;
        }
        let mut next_spare_id = grid.len() as u64;
        let mut spares_used = 0u32;
        for (grid_index, (r0, r1, c0, c1, rng_template)) in grid.into_iter().enumerate() {
            let block = weights.submatrix(r0, r1, c0, c1);
            let s_slice = smoothing.map(|s| &s[r0..r1]);
            let mut health = TileHealth::default();
            let mut physical_id = grid_index as u64;
            let slot = program_slot(
                &block,
                s_slice,
                &config,
                &rng_template,
                &mut health,
                &mut physical_id,
                &mut next_spare_id,
                &mut spares_used,
                &mut events,
                grid_index,
            )?;
            entries.push(TileEntry {
                r0,
                c0,
                slot,
                health,
                physical_id,
                rng_template,
            });
            if retain {
                blocks.push(block);
            }
        }
        Ok(Self {
            d_in,
            d_out,
            bias,
            entries,
            smoothing: smoothing.map(|s| s.to_vec()),
            config,
            blocks,
            events,
            spares_used,
            next_spare_id,
            seed,
            deferred_recovery: false,
        })
    }

    /// Programs several layers on one `config`: each `(weights, bias,
    /// smoothing, seed)` goes through [`AnalogLinear::try_with_smoothing`],
    /// and the results come back in input order.
    ///
    /// The layers fan out across the worker pool. Every result is
    /// bit-identical to programming the layers one by one, at any thread
    /// count: a layer draws only from the generators its own `seed` forks,
    /// and keeps its own spares, events and health. Called inside a
    /// parallel section, the batch runs serially.
    pub fn try_with_smoothing_batch(
        layers: Vec<LayerInputs<'_>>,
        config: &TileConfig,
    ) -> Vec<Result<Self, CimError>> {
        nora_parallel::map_vec(layers, |(weights, bias, smoothing, seed)| {
            Self::try_with_smoothing(weights, bias, smoothing, config.clone(), seed)
        })
    }

    /// Input dimension.
    pub fn d_in(&self) -> usize {
        self.d_in
    }

    /// Output dimension.
    pub fn d_out(&self) -> usize {
        self.d_out
    }

    /// Number of tiles in the grid.
    pub fn tile_count(&self) -> usize {
        self.entries.len()
    }

    /// The smoothing vector installed at construction, if any.
    pub fn smoothing(&self) -> Option<&[f32]> {
        self.smoothing.as_deref()
    }

    /// Degradation events recorded so far, in occurrence order.
    pub fn events(&self) -> &[TileEvent] {
        &self.events
    }

    /// Spare physical tiles consumed by remapping.
    pub fn spares_used(&self) -> u32 {
        self.spares_used
    }

    /// Health trackers of all tile slots, in grid order.
    pub fn tile_health(&self) -> Vec<TileHealth> {
        self.entries.iter().map(|e| e.health).collect()
    }

    /// Number of slots currently served by exact digital fallback.
    pub fn digital_fallback_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.slot, TileSlot::Digital(_)))
            .count()
    }

    /// Executes the layer on a batch: `x` is `batch × d_in`, result is
    /// `batch × d_out`.
    ///
    /// With an active fault-tolerance policy, flagged tiles are recovered
    /// (re-program → remap → digital fallback) *within* this call: the
    /// returned activations come from the recovered slots, not the corrupted
    /// ones.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != d_in`.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.d_in, "input width mismatch");
        let batch = x.rows();
        let recovery = self.config.fault_tolerance.is_active();
        let mut y = Matrix::zeros(batch, self.d_out);
        // Phase 1 — independent tile forwards, fanned across worker threads.
        // Each entry owns its tile, RNG stream, and statistics, so the
        // per-tile results are bit-identical at any thread count. Tiny
        // fan-outs (small grids, small batches) skip the pool handshake and
        // run the exact serial loop instead — same bits either way.
        let body = |_: usize, e: &mut TileEntry| {
            let x_slice = x.submatrix(0, batch, e.r0, e.r0 + e.rows());
            match &mut e.slot {
                TileSlot::Digital(w) => (x_slice.matmul(w), None),
                TileSlot::Analog(tile) => {
                    if recovery {
                        let (part, report) = tile.forward_checked(&x_slice);
                        let bad = report.suspicious.then_some(report);
                        (part, bad)
                    } else {
                        (tile.forward(&x_slice), None)
                    }
                }
            }
        };
        let per_tile_work = (batch
            * self.config.tile_rows
            * self.config.tile_cols
            * self.config.read_averaging.max(1) as usize) as u64;
        let parts: Vec<(Matrix, Option<AbftReport>)> =
            if nora_parallel::threads_for_work(self.entries.len(), per_tile_work) <= 1 {
                nora_parallel::with_threads(1, || {
                    nora_parallel::map_slice_mut(&mut self.entries, body)
                })
            } else {
                nora_parallel::map_slice_mut(&mut self.entries, body)
            };
        // Phase 2 — serial, in grid-index order: recovery of flagged tiles
        // (which mutates the shared event log / spare pool, so its ordering
        // must not depend on thread scheduling) and digital accumulation of
        // the partial sums (fixed FP summation order).
        for (idx, (part, flagged)) in parts.into_iter().enumerate() {
            let (r0, c0, rows) = {
                let e = &self.entries[idx];
                (e.r0, e.c0, e.rows())
            };
            let part = match flagged {
                Some(report) if self.deferred_recovery => {
                    // Degraded mode: note the flag for the maintenance
                    // scheduler and serve the faulty partial sums as-is —
                    // admission never stops for an inline ladder.
                    self.note_flag(idx, &report);
                    part
                }
                Some(report) => {
                    let x_slice = x.submatrix(0, batch, r0, r0 + rows);
                    self.recover_entry(idx, &x_slice, part, report)
                }
                None => part,
            };
            for i in 0..batch {
                let dst = &mut y.row_mut(i)[c0..c0 + part.cols()];
                for (d, &p) in dst.iter_mut().zip(part.row(i)) {
                    *d += p;
                }
            }
        }
        if let Some(b) = &self.bias {
            for i in 0..batch {
                for (v, &bv) in y.row_mut(i).iter_mut().zip(b) {
                    *v += bv;
                }
            }
        }
        y
    }

    /// Stateless batch-of-1 forward on **counter-keyed** noise streams: the
    /// layer is shared immutably across concurrent callers (serving slots),
    /// and each tile's noise sequence is derived from `(layer seed, tile
    /// grid coordinates, noise_seed, position)` — a pure function of the
    /// request's identity, independent of admission order, batch
    /// composition and thread count.
    ///
    /// `y` (length `d_out`) is overwritten with the layer output. The
    /// statistics deltas and ABFT flags each tile would have applied to
    /// itself are appended to `effects` in grid order; callers absorb them
    /// via [`AnalogLinear::absorb_tile_effect`] after the parallel round,
    /// in a fixed (slot, grid) order. Unlike the sequential path there is
    /// no inline recovery ladder: a flagged tile is recorded (deferred,
    /// [`AnalogLinear::note_flag`]-style) for the external maintenance
    /// scheduler to rotate between rounds.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != d_in` or `y.len() != d_out`.
    pub fn forward_single_keyed(
        &self,
        x: &[f32],
        y: &mut [f32],
        noise_seed: u64,
        position: u64,
        ctx: &mut KeyedCtx,
        effects: &mut Vec<TileEffect>,
    ) {
        assert_eq!(x.len(), self.d_in, "input width mismatch");
        assert_eq!(y.len(), self.d_out, "output width mismatch");
        let recovery = self.config.fault_tolerance.is_active();
        y.fill(0.0);
        let part = &mut ctx.part;
        for (idx, e) in self.entries.iter().enumerate() {
            let (r0, c0, rows) = (e.r0, e.c0, e.rows());
            let xin = &x[r0..r0 + rows];
            match &e.slot {
                TileSlot::Digital(w) => {
                    w.vecmat_into(xin, part);
                }
                TileSlot::Analog(tile) => {
                    let key = [
                        self.seed,
                        (r0 as u64) << 32 | c0 as u64,
                        noise_seed,
                        position,
                    ];
                    let (stats, report) = tile.forward_row_keyed(xin, part, &key, &mut ctx.tile);
                    effects.push(TileEffect {
                        entry: idx,
                        stats,
                        report: (recovery && report.suspicious).then_some(report),
                    });
                }
            }
            let dst = &mut y[c0..c0 + part.len()];
            for (d, &p) in dst.iter_mut().zip(part.iter()) {
                *d += p;
            }
        }
        if let Some(b) = &self.bias {
            for (v, &bv) in y.iter_mut().zip(b) {
                *v += bv;
            }
        }
    }

    /// Folds one keyed-path [`TileEffect`] back into the layer: the tile's
    /// statistics delta is merged and any ABFT flag is recorded for the
    /// maintenance scheduler (the keyed path never runs the inline recovery
    /// ladder). Callers replay effects in a fixed (slot, grid) order, so
    /// the layer state after a parallel round is thread-count invariant.
    pub fn absorb_tile_effect(&mut self, effect: &TileEffect) {
        if let TileSlot::Analog(tile) = &mut self.entries[effect.entry].slot {
            tile.absorb_stats(&effect.stats);
        }
        if let Some(report) = &effect.report {
            self.note_flag(effect.entry, report);
        }
    }

    /// Runs the recovery ladder for a flagged slot and returns the partial
    /// sums to use for the current batch. `faulty_part` is returned
    /// unchanged only when every recovery avenue is exhausted and digital
    /// fallback is disabled.
    fn recover_entry(
        &mut self,
        idx: usize,
        x_slice: &Matrix,
        faulty_part: Matrix,
        report: AbftReport,
    ) -> Matrix {
        let policy = self.config.fault_tolerance.clone();
        let entry = &mut self.entries[idx];
        entry.health.record_flag();
        self.events.push(TileEvent {
            grid_index: idx,
            physical_id: entry.physical_id,
            kind: TileEventKind::Flagged {
                violations: report.violations,
                rows: report.rows_checked,
                silent: report.silent,
            },
        });
        let block = self.blocks[idx].clone();
        let s_slice = self
            .smoothing
            .as_ref()
            .map(|s| s[entry.r0..entry.r0 + block.rows()].to_vec());

        let mut tries_on_current = 0u32;
        loop {
            // Exhausted retries on this array: move to a spare, then give up.
            if tries_on_current > policy.max_reprogram_retries {
                if self.spares_used < policy.spare_tiles {
                    self.spares_used += 1;
                    entry.physical_id = self.next_spare_id;
                    self.next_spare_id += 1;
                    entry.health.remaps += 1;
                    tries_on_current = 0;
                    continue;
                }
                break;
            }
            let remapped = entry.health.remaps > 0;
            let attempt = entry.health.next_attempt();
            let cfg = escalate(&self.config, tries_on_current);
            tries_on_current += 1;
            let site = TileSite {
                physical_id: entry.physical_id,
                programming_attempt: attempt,
            };
            match AnalogTile::try_new_at(
                block.clone(),
                s_slice.as_deref(),
                cfg,
                attempt_rng(&entry.rng_template, attempt),
                site,
            ) {
                Ok(mut tile) => {
                    // Verify with the deterministic probe first (a workload
                    // batch with near-zero activations would pass any tile,
                    // dead ones included), then re-run the triggering batch.
                    if !tile.self_test().suspicious {
                        let (part, rep) = tile.forward_checked(x_slice);
                        if !rep.suspicious {
                            self.events.push(TileEvent {
                                grid_index: idx,
                                physical_id: entry.physical_id,
                                kind: if remapped {
                                    TileEventKind::Remapped {
                                        spare_id: entry.physical_id,
                                    }
                                } else {
                                    TileEventKind::Reprogrammed { attempt }
                                },
                            });
                            entry.slot = TileSlot::Analog(Box::new(tile));
                            return part;
                        }
                    }
                    // Still flagged — same array keeps its stuck cells.
                }
                Err(CimError::ProgrammingFailed { .. }) => {
                    self.events.push(TileEvent {
                        grid_index: idx,
                        physical_id: entry.physical_id,
                        kind: TileEventKind::ProgrammingFailed { attempt },
                    });
                }
                // Config/shape errors cannot appear here: the layer already
                // validated both at construction.
                Err(_) => break,
            }
        }
        entry.health.state = HealthState::Condemned;
        if policy.digital_fallback {
            self.events.push(TileEvent {
                grid_index: idx,
                physical_id: entry.physical_id,
                kind: TileEventKind::DigitalFallback,
            });
            let part = x_slice.matmul(&block);
            entry.slot = TileSlot::Digital(block);
            part
        } else {
            self.events.push(TileEvent {
                grid_index: idx,
                physical_id: entry.physical_id,
                kind: TileEventKind::Unrecovered,
            });
            faulty_part
        }
    }

    /// Aggregated forward statistics across all analog tiles.
    pub fn stats(&self) -> ForwardStats {
        let mut total = ForwardStats::default();
        for e in &self.entries {
            if let TileSlot::Analog(tile) = &e.slot {
                total.merge(tile.stats());
            }
        }
        total
    }

    /// Resets the statistics of every analog tile.
    pub fn reset_stats(&mut self) {
        for e in &mut self.entries {
            if let TileSlot::Analog(tile) = &mut e.slot {
                tile.reset_stats();
            }
        }
    }

    /// Exports the layer's observability metrics into `m`: conversion
    /// stats merged across tiles in grid order, fault-recovery ladder
    /// transitions in occurrence order, the slot health census, digital
    /// fallbacks, and spares consumed.
    ///
    /// Every value derives from state the layer already tracks — the
    /// export reads counters, draws no RNG, and is identical at any
    /// `NORA_THREADS` level.
    pub fn export_metrics(&self, m: &mut nora_obs::Metrics) {
        self.stats().export_metrics(m);
        crate::health::export_events(&self.events, m);
        crate::health::export_health(&self.tile_health(), m);
        m.add(
            "cim.health.digital_fallback_slots",
            self.digital_fallback_count() as u64,
        );
        m.add("cim.health.spares_used", u64::from(self.spares_used));
    }

    /// Applies conductance drift at `t_seconds` to every analog tile
    /// (digital-fallback slots are unaffected by definition).
    pub fn apply_drift(&mut self, t_seconds: f64, compensation: DriftCompensation) {
        for e in &mut self.entries {
            if let TileSlot::Analog(tile) = &mut e.slot {
                tile.apply_drift(t_seconds, compensation);
            }
        }
    }

    /// Online field-drift step: advances every analog tile to virtual time
    /// `now` via [`AnalogTile::drift_to`] — each tile re-reads at `now`
    /// minus its own programming epoch, so freshly rotated tiles drift from
    /// their rotation time, not from deployment. Digital-fallback slots are
    /// unaffected by definition.
    pub fn drift_to(&mut self, now: f64, compensation: DriftCompensation) {
        for e in &mut self.entries {
            if let TileSlot::Analog(tile) = &mut e.slot {
                tile.drift_to(now, compensation);
            }
        }
    }

    /// Switches the layer between inline recovery (default; flagged tiles
    /// are recovered within the triggering forward) and deferred mode,
    /// where forwards only record flags and an external scheduler rotates
    /// suspects in the background.
    pub fn set_deferred_recovery(&mut self, deferred: bool) {
        self.deferred_recovery = deferred;
    }

    /// Whether deferred recovery is active.
    pub fn deferred_recovery(&self) -> bool {
        self.deferred_recovery
    }

    /// Captures each analog tile's recalibration reference (idempotent per
    /// tile — see [`AnalogTile::capture_probe_reference`]).
    pub fn capture_probe_references(&mut self) {
        for e in &mut self.entries {
            if let TileSlot::Analog(tile) = &mut e.slot {
                tile.capture_probe_reference();
            }
        }
    }

    /// One probe recalibration pass: re-measures the probe magnitude of
    /// every **healthy** analog tile with a captured reference, estimates
    /// the global conductance decay `α̂ = Σ reference / Σ measured`, and
    /// installs the correction on *all* analog tiles (quarantined tiles
    /// drifted by the same global factor — they are excluded only from the
    /// estimate, so their corrupted readings cannot skew it).
    ///
    /// Returns `None` when no healthy tile with a reference exists (the
    /// layer is then left untouched).
    pub fn recalibrate(&mut self) -> Option<RecalOutcome> {
        let mut ref_sum = 0.0f64;
        let mut meas_sum = 0.0f64;
        let mut probed = 0usize;
        let mut excluded = 0usize;
        for e in &mut self.entries {
            let TileSlot::Analog(tile) = &mut e.slot else {
                continue;
            };
            if e.health.state != HealthState::Healthy {
                excluded += 1;
                continue;
            }
            let Some(reference) = tile.probe_reference() else {
                continue;
            };
            ref_sum += reference;
            meas_sum += tile.probe_magnitude();
            probed += 1;
        }
        if probed == 0 || meas_sum <= 0.0 || ref_sum <= 0.0 {
            return None;
        }
        // Clamp to a sane correction range: a tile fleet that decayed past
        // 4× (or somehow *grew*) is a hardware problem recalibration cannot
        // paper over.
        let alpha = ((ref_sum / meas_sum) as f32).clamp(0.25, 4.0);
        for e in &mut self.entries {
            if let TileSlot::Analog(tile) = &mut e.slot {
                tile.apply_recal_scale(alpha);
            }
        }
        Some(RecalOutcome {
            alpha,
            probed,
            excluded,
        })
    }

    /// Grid indices of analog slots currently flagged Suspect — the
    /// maintenance scheduler's rotation work list.
    pub fn suspect_tiles(&self) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                matches!(e.slot, TileSlot::Analog(_)) && e.health.state == HealthState::Suspect
            })
            .map(|(idx, _)| idx)
            .collect()
    }

    /// Completes a background rotation of slot `idx` at virtual time `now`:
    /// the block is re-programmed (write–verify) onto a **spare** array
    /// first — the degraded array never re-enters service — then, with
    /// spares exhausted, onto the current array with escalated programming,
    /// and finally falls back to exact digital execution (policy
    /// permitting). A successfully rotated slot earns its `Healthy` state
    /// back: the fresh array passed the deterministic self-test, its drift
    /// epoch restarts at `now`, and a new recalibration reference is
    /// captured. Returns `true` iff the slot is served by a healthy analog
    /// tile afterwards.
    pub fn rotate_tile(&mut self, idx: usize, now: f64) -> bool {
        let policy = self.config.fault_tolerance.clone();
        if !policy.is_active() || idx >= self.entries.len() {
            return false;
        }
        if matches!(self.entries[idx].slot, TileSlot::Digital(_)) {
            return false;
        }
        let block = self.blocks[idx].clone();
        let entry = &mut self.entries[idx];
        let s_slice = self
            .smoothing
            .as_ref()
            .map(|s| s[entry.r0..entry.r0 + block.rows()].to_vec());
        // Phase 1 — spare arrays: each failed spare (programming failure or
        // self-test flag) consumes the next one.
        while self.spares_used < policy.spare_tiles {
            self.spares_used += 1;
            entry.physical_id = self.next_spare_id;
            self.next_spare_id += 1;
            entry.health.remaps += 1;
            let attempt = entry.health.next_attempt();
            let site = TileSite {
                physical_id: entry.physical_id,
                programming_attempt: attempt,
            };
            match AnalogTile::try_new_at(
                block.clone(),
                s_slice.as_deref(),
                self.config.clone(),
                attempt_rng(&entry.rng_template, attempt),
                site,
            ) {
                Ok(mut tile) => {
                    if !tile.self_test().suspicious {
                        self.events.push(TileEvent {
                            grid_index: idx,
                            physical_id: entry.physical_id,
                            kind: TileEventKind::Remapped {
                                spare_id: entry.physical_id,
                            },
                        });
                        tile.set_programmed_at(now);
                        tile.capture_probe_reference();
                        entry.health.state = HealthState::Healthy;
                        entry.slot = TileSlot::Analog(Box::new(tile));
                        return true;
                    }
                }
                Err(CimError::ProgrammingFailed { .. }) => {
                    self.events.push(TileEvent {
                        grid_index: idx,
                        physical_id: entry.physical_id,
                        kind: TileEventKind::ProgrammingFailed { attempt },
                    });
                }
                Err(_) => break,
            }
        }
        // Phase 2 — escalated re-programming of the current array.
        for tries in 0..=policy.max_reprogram_retries {
            let attempt = entry.health.next_attempt();
            let cfg = escalate(&self.config, tries);
            let site = TileSite {
                physical_id: entry.physical_id,
                programming_attempt: attempt,
            };
            match AnalogTile::try_new_at(
                block.clone(),
                s_slice.as_deref(),
                cfg,
                attempt_rng(&entry.rng_template, attempt),
                site,
            ) {
                Ok(mut tile) => {
                    if !tile.self_test().suspicious {
                        self.events.push(TileEvent {
                            grid_index: idx,
                            physical_id: entry.physical_id,
                            kind: TileEventKind::Reprogrammed { attempt },
                        });
                        tile.set_programmed_at(now);
                        tile.capture_probe_reference();
                        entry.health.state = HealthState::Healthy;
                        entry.slot = TileSlot::Analog(Box::new(tile));
                        return true;
                    }
                }
                Err(CimError::ProgrammingFailed { .. }) => {
                    self.events.push(TileEvent {
                        grid_index: idx,
                        physical_id: entry.physical_id,
                        kind: TileEventKind::ProgrammingFailed { attempt },
                    });
                }
                Err(_) => break,
            }
        }
        // Phase 3 — graceful degradation.
        entry.health.state = HealthState::Condemned;
        if policy.digital_fallback {
            self.events.push(TileEvent {
                grid_index: idx,
                physical_id: entry.physical_id,
                kind: TileEventKind::DigitalFallback,
            });
            entry.slot = TileSlot::Digital(block);
        } else {
            self.events.push(TileEvent {
                grid_index: idx,
                physical_id: entry.physical_id,
                kind: TileEventKind::Unrecovered,
            });
        }
        false
    }

    /// Records a checksum violation in deferred mode: the health ladder
    /// advances every time, but the `Flagged` event is emitted only on the
    /// Healthy → Suspect transition (one event per degradation episode, not
    /// one per served round).
    fn note_flag(&mut self, idx: usize, report: &AbftReport) {
        let entry = &mut self.entries[idx];
        let was_healthy = entry.health.state == HealthState::Healthy;
        entry.health.record_flag();
        if was_healthy {
            self.events.push(TileEvent {
                grid_index: idx,
                physical_id: entry.physical_id,
                kind: TileEventKind::Flagged {
                    violations: report.violations,
                    rows: report.rows_checked,
                    silent: report.silent,
                },
            });
        }
    }

    /// First-order energy/latency estimate summed over all analog tiles (see
    /// [`crate::energy`]).
    pub fn energy(&self, model: &crate::energy::EnergyModel) -> crate::energy::EnergyReport {
        let mut total = crate::energy::EnergyReport::default();
        for e in &self.entries {
            if let TileSlot::Analog(tile) = &e.slot {
                total.merge(&tile.energy(model));
            }
        }
        total
    }
}

/// Construction-time programming ladder for one slot (free function so the
/// constructor can call it before `Self` exists). Mirrors the runtime ladder
/// in [`AnalogLinear::recover_entry`] minus the forward verification.
#[allow(clippy::too_many_arguments)]
fn program_slot(
    block: &Matrix,
    s_slice: Option<&[f32]>,
    config: &TileConfig,
    rng_template: &Rng,
    health: &mut TileHealth,
    physical_id: &mut u64,
    next_spare_id: &mut u64,
    spares_used: &mut u32,
    events: &mut Vec<TileEvent>,
    grid_index: usize,
) -> Result<TileSlot, CimError> {
    let policy = &config.fault_tolerance;
    let mut tries_on_current = 0u32;
    loop {
        if tries_on_current > policy.max_reprogram_retries {
            if *spares_used < policy.spare_tiles {
                *spares_used += 1;
                *physical_id = *next_spare_id;
                *next_spare_id += 1;
                health.remaps += 1;
                tries_on_current = 0;
                continue;
            }
            if policy.digital_fallback {
                health.state = HealthState::Condemned;
                events.push(TileEvent {
                    grid_index,
                    physical_id: *physical_id,
                    kind: TileEventKind::DigitalFallback,
                });
                return Ok(TileSlot::Digital(block.clone()));
            }
            return Err(CimError::ProgrammingFailed {
                physical_id: *physical_id,
                attempt: health.programming_attempts.saturating_sub(1),
            });
        }
        let remapped = health.remaps > 0;
        let attempt = health.next_attempt();
        let cfg = escalate(config, tries_on_current);
        tries_on_current += 1;
        let site = TileSite {
            physical_id: *physical_id,
            programming_attempt: attempt,
        };
        match AnalogTile::try_new_at(
            block.clone(),
            s_slice,
            cfg,
            attempt_rng(rng_template, attempt),
            site,
        ) {
            Ok(mut tile) => {
                // Built-in self-test: a tile that programs without error can
                // still be dead or riddled with stuck cells — probe it before
                // accepting, and keep climbing the ladder if it fails.
                if policy.is_active() {
                    let st = tile.self_test();
                    if st.suspicious {
                        health.record_flag();
                        events.push(TileEvent {
                            grid_index,
                            physical_id: *physical_id,
                            kind: TileEventKind::Flagged {
                                violations: st.violations,
                                rows: st.rows_checked,
                                silent: st.silent,
                            },
                        });
                        continue;
                    }
                }
                if attempt > 0 {
                    events.push(TileEvent {
                        grid_index,
                        physical_id: *physical_id,
                        kind: if remapped {
                            TileEventKind::Remapped {
                                spare_id: *physical_id,
                            }
                        } else {
                            TileEventKind::Reprogrammed { attempt }
                        },
                    });
                }
                return Ok(TileSlot::Analog(Box::new(tile)));
            }
            Err(CimError::ProgrammingFailed { .. }) => {
                events.push(TileEvent {
                    grid_index,
                    physical_id: *physical_id,
                    kind: TileEventKind::ProgrammingFailed { attempt },
                });
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nora_tensor::stats;

    #[test]
    fn single_tile_when_weights_fit() {
        let w = Matrix::zeros(100, 50);
        let layer = AnalogLinear::new(w, None, TileConfig::ideal(), 0);
        assert_eq!(layer.tile_count(), 1);
    }

    #[test]
    fn batch_programs_each_layer_as_alone_in_input_order() {
        let mut rng = Rng::seed_from(40);
        let w: Vec<Matrix> = (0..3)
            .map(|_| Matrix::random_normal(48, 40, 0.0, 0.3, &mut rng))
            .collect();
        let x = Matrix::random_normal(4, 48, 0.0, 1.0, &mut rng);
        let s: Vec<f32> = (0..48).map(|i| 0.5 + (i % 3) as f32).collect();
        let cfg = TileConfig::paper_default().with_tile_size(32, 32);
        // Layer 1's bias has the wrong length; the others program.
        let items = || {
            vec![
                (w[0].clone(), None, Some(&s[..]), 41),
                (w[1].clone(), Some(vec![0.0; 39]), None, 42),
                (w[2].clone(), Some(vec![0.5; 40]), None, 43),
            ]
        };
        let alone: Vec<_> = items()
            .into_iter()
            .map(|(w, b, s, seed)| AnalogLinear::try_with_smoothing(w, b, s, cfg.clone(), seed))
            .collect();
        let batch = nora_parallel::with_threads(4, || {
            AnalogLinear::try_with_smoothing_batch(items(), &cfg)
        });
        assert_eq!(batch.len(), 3);
        for (i, pair) in alone.into_iter().zip(batch).enumerate() {
            match pair {
                (Ok(mut a), Ok(mut b)) => {
                    assert_eq!(a.forward(&x), b.forward(&x), "layer {i}");
                    assert_eq!(a.stats(), b.stats(), "layer {i}");
                }
                (a, b) => assert_eq!(a.err(), b.err(), "layer {i}"),
            }
        }
    }

    #[test]
    fn grid_partitioning_counts() {
        let w = Matrix::zeros(100, 50);
        let cfg = TileConfig::ideal().with_tile_size(32, 20);
        let layer = AnalogLinear::new(w, None, cfg, 0);
        // rows: ceil(100/32)=4, cols: ceil(50/20)=3
        assert_eq!(layer.tile_count(), 12);
        assert_eq!(layer.d_in(), 100);
        assert_eq!(layer.d_out(), 50);
    }

    #[test]
    fn tiled_ideal_forward_matches_matmul() {
        let mut rng = Rng::seed_from(1);
        let w = Matrix::random_normal(70, 45, 0.0, 0.5, &mut rng);
        let x = Matrix::random_normal(6, 70, 0.0, 1.0, &mut rng);
        let cfg = TileConfig::ideal().with_tile_size(16, 16);
        let mut layer = AnalogLinear::new(w.clone(), None, cfg, 2);
        let y = layer.forward(&x);
        assert!(y.mse(&x.matmul(&w)) < 1e-9);
    }

    #[test]
    fn bias_is_added_digitally() {
        let w = Matrix::identity(3);
        let bias = vec![1.0f32, -2.0, 0.5];
        let mut layer = AnalogLinear::new(w, Some(bias), TileConfig::ideal(), 3);
        let x = Matrix::from_rows(&[&[1.0, 1.0, 1.0]]);
        let y = layer.forward(&x);
        assert_eq!(y.row(0), &[2.0, -1.0, 1.5]);
    }

    #[test]
    fn smoothing_vector_is_exact_when_ideal() {
        let mut rng = Rng::seed_from(4);
        let w = Matrix::random_normal(40, 30, 0.0, 0.3, &mut rng);
        let x = Matrix::random_normal(5, 40, 0.0, 1.0, &mut rng);
        let s: Vec<f32> = (0..40).map(|i| 0.1 + (i as f32 % 5.0)).collect();
        let cfg = TileConfig::ideal().with_tile_size(16, 16);
        let mut layer = AnalogLinear::with_smoothing(w.clone(), None, Some(&s), cfg, 5);
        let y = layer.forward(&x);
        assert!(y.mse(&x.matmul(&w)) < 1e-8);
        assert_eq!(layer.smoothing().unwrap().len(), 40);
    }

    #[test]
    fn noisy_tiled_layer_stays_reasonable() {
        let mut rng = Rng::seed_from(6);
        let w = Matrix::random_normal(96, 64, 0.0, 0.2, &mut rng);
        let x = Matrix::random_normal(8, 96, 0.0, 1.0, &mut rng);
        let cfg = TileConfig::paper_default().with_tile_size(48, 32);
        let mut layer = AnalogLinear::new(w.clone(), None, cfg, 7);
        let y = layer.forward(&x);
        let rel = y.mse(&x.matmul(&w)) / stats::variance(x.matmul(&w).as_slice());
        assert!(rel < 0.25, "relative mse {rel}");
    }

    #[test]
    fn stats_aggregate_across_tiles() {
        let mut rng = Rng::seed_from(8);
        let w = Matrix::random_normal(64, 64, 0.0, 0.2, &mut rng);
        let x = Matrix::random_normal(4, 64, 0.0, 1.0, &mut rng);
        let cfg = TileConfig::paper_default().with_tile_size(32, 32);
        let mut layer = AnalogLinear::new(w, None, cfg, 9);
        layer.forward(&x);
        let st = layer.stats();
        // 4 tiles × 4 samples each
        assert_eq!(st.samples, 16);
        assert!(st.mean_rescale() > 0.0);
        layer.reset_stats();
        assert_eq!(layer.stats().samples, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = Rng::seed_from(10);
        let w = Matrix::random_normal(32, 32, 0.0, 0.2, &mut rng);
        let x = Matrix::random_normal(4, 32, 0.0, 1.0, &mut rng);
        let cfg = TileConfig::paper_default().with_tile_size(16, 16);
        let mut a = AnalogLinear::new(w.clone(), None, cfg.clone(), 11);
        let mut b = AnalogLinear::new(w, None, cfg, 11);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn energy_report_scales_with_work() {
        let mut rng = Rng::seed_from(12);
        let w = Matrix::random_normal(64, 64, 0.0, 0.2, &mut rng);
        let x = Matrix::random_normal(4, 64, 0.0, 1.0, &mut rng);
        let cfg = TileConfig::paper_default().with_tile_size(32, 32);
        let mut layer = AnalogLinear::new(w, None, cfg, 13);
        let model = crate::energy::EnergyModel::default();
        let before = layer.energy(&model);
        assert_eq!(before.rounds, 0);
        layer.forward(&x);
        let once = layer.energy(&model);
        layer.forward(&x);
        let twice = layer.energy(&model);
        assert!(once.total_pj() > 0.0);
        assert!(twice.total_pj() >= once.total_pj() * 1.9);
        assert!(twice.latency_ns > once.latency_ns);
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn wrong_bias_length_panics() {
        AnalogLinear::new(
            Matrix::zeros(4, 4),
            Some(vec![0.0; 3]),
            TileConfig::ideal(),
            0,
        );
    }

    #[test]
    #[should_panic(expected = "input width")]
    fn wrong_input_width_panics() {
        let mut layer = AnalogLinear::new(Matrix::zeros(4, 4), None, TileConfig::ideal(), 0);
        layer.forward(&Matrix::zeros(1, 5));
    }

    #[test]
    #[should_panic(expected = "empty weight matrix")]
    fn empty_weights_panic() {
        AnalogLinear::new(Matrix::zeros(0, 0), None, TileConfig::ideal(), 0);
    }

    // ---- fault tolerance: detection + recovery ----------------------

    use crate::health::{FaultTolerance, TileEventKind};
    use nora_device::FaultPlan;

    fn faulty_cfg(plan: FaultPlan) -> TileConfig {
        let mut cfg = TileConfig::paper_default().with_tile_size(32, 33);
        cfg.fault_plan = Some(plan);
        cfg.fault_tolerance = FaultTolerance::protected();
        cfg
    }

    fn setup_64(seed: u64) -> (Matrix, Matrix) {
        let mut rng = Rng::seed_from(seed);
        let w = Matrix::random_normal(64, 64, 0.0, 0.3, &mut rng);
        // Batch large enough that a hard fault is near-certain to violate
        // the checksum at least once within a single forward.
        let x = Matrix::random_normal(32, 64, 0.0, 1.0, &mut rng);
        (w, x)
    }

    #[test]
    fn construction_ladder_survives_programming_failures() {
        let (w, x) = setup_64(31);
        let plan = FaultPlan {
            seed: 1,
            programming_failure: 0.5,
            ..FaultPlan::none()
        };
        let mut layer = AnalogLinear::new(w.clone(), None, faulty_cfg(plan), 32);
        assert!(
            layer
                .events()
                .iter()
                .any(|e| matches!(e.kind, TileEventKind::ProgrammingFailed { .. })),
            "50% failure rate over a 2x2 grid should fail at least once: {:?}",
            layer.events()
        );
        let y = layer.forward(&x);
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        let rel = y.mse(&x.matmul(&w)) / stats::variance(x.matmul(&w).as_slice());
        assert!(rel < 0.25, "recovered layer accuracy, rel mse {rel}");
    }

    #[test]
    fn stuck_cells_are_recovered_within_one_forward() {
        let (w, x) = setup_64(33);
        let plan = FaultPlan {
            seed: 2,
            stuck_low: 0.02,
            stuck_high: 0.02,
            ..FaultPlan::none()
        };
        // Baseline: same config, no faults, no protection.
        let mut clean = AnalogLinear::new(
            w.clone(),
            None,
            TileConfig::paper_default().with_tile_size(32, 33),
            34,
        );
        let y_ref = x.matmul(&w);
        let mse_clean = clean.forward(&x).mse(&y_ref);

        let mut layer = AnalogLinear::new(w.clone(), None, faulty_cfg(plan), 34);
        let y = layer.forward(&x);
        let mse = y.mse(&y_ref);
        assert!(
            layer
                .events()
                .iter()
                .any(|e| matches!(e.kind, TileEventKind::Flagged { .. })),
            "4% stuck cells must be flagged: {:?}",
            layer.events()
        );
        // Every physical tile (spares included) draws stuck cells at this
        // rate, so recovery must end in digital fallback — and accuracy
        // must return to the fault-free noisy ballpark.
        assert!(
            mse <= mse_clean * 2.0,
            "recovered mse {mse} vs fault-free {mse_clean}"
        );
    }

    #[test]
    fn dropped_tile_remaps_to_clean_spare() {
        let (w, x) = setup_64(35);
        // Seed chosen so at least one grid tile is dropped while a spare in
        // the pool is clean: recovery should end in a *remap*, not digital
        // fallback (dropout is the only fault class here, so a non-dropped
        // spare is pristine).
        let mut hit = None;
        for plan_seed in 0..64 {
            let plan = FaultPlan {
                seed: plan_seed,
                tile_dropout: 0.5,
                ..FaultPlan::none()
            };
            let mut layer = AnalogLinear::new(w.clone(), None, faulty_cfg(plan), 36);
            layer.forward(&x);
            let remapped = layer
                .events()
                .iter()
                .any(|e| matches!(e.kind, TileEventKind::Remapped { .. }));
            if remapped {
                hit = Some((plan_seed, layer));
                break;
            }
        }
        let (plan_seed, layer) =
            hit.expect("some seed in 0..64 must drop a grid tile and keep a spare clean");
        assert!(layer.spares_used() >= 1, "plan seed {plan_seed}");
        // The remapped layer is healthy: a second forward records no new
        // flags.
        let mut layer = layer;
        let before = layer.events().len();
        let y = layer.forward(&x);
        assert_eq!(layer.events().len(), before, "no new events after remap");
        let rel = y.mse(&x.matmul(&w)) / stats::variance(x.matmul(&w).as_slice());
        assert!(rel < 0.25, "rel mse {rel}");
    }

    #[test]
    fn fallback_slots_survive_drift_and_stats() {
        let (w, x) = setup_64(37);
        let plan = FaultPlan {
            seed: 3,
            tile_dropout: 1.0, // every physical tile dead → all digital
            ..FaultPlan::none()
        };
        let mut layer = AnalogLinear::new(w.clone(), None, faulty_cfg(plan), 38);
        let y = layer.forward(&x);
        assert_eq!(layer.digital_fallback_count(), 4);
        // Digital fallback is exact.
        assert!(y.mse(&x.matmul(&w)) < 1e-9);
        // Post-degradation bookkeeping must not panic or regress.
        layer.apply_drift(3600.0, DriftCompensation::None);
        layer.reset_stats();
        assert_eq!(layer.stats().samples, 0);
        let y2 = layer.forward(&x);
        assert!(y2.mse(&x.matmul(&w)) < 1e-9);
    }

    #[test]
    fn protected_faultless_layer_records_no_events() {
        let (w, x) = setup_64(39);
        let mut cfg = TileConfig::paper_default().with_tile_size(32, 33);
        cfg.fault_tolerance = FaultTolerance::protected();
        let mut layer = AnalogLinear::new(w, None, cfg, 40);
        for _ in 0..5 {
            layer.forward(&x);
        }
        assert!(layer.events().is_empty(), "{:?}", layer.events());
        assert_eq!(layer.spares_used(), 0);
        assert!(layer
            .tile_health()
            .iter()
            .all(|h| h.state == crate::health::HealthState::Healthy));
    }

    #[test]
    fn try_constructors_report_errors() {
        assert_eq!(
            AnalogLinear::try_new(Matrix::zeros(0, 0), None, TileConfig::ideal(), 0).unwrap_err(),
            CimError::EmptyWeights
        );
        let err = AnalogLinear::try_new(
            Matrix::zeros(4, 4),
            Some(vec![0.0; 3]),
            TileConfig::ideal(),
            0,
        )
        .unwrap_err();
        assert_eq!(
            err,
            CimError::BiasLength {
                expected: 4,
                got: 3
            }
        );
        let err = AnalogLinear::try_with_smoothing(
            Matrix::zeros(4, 4),
            None,
            Some(&[1.0; 3]),
            TileConfig::ideal(),
            0,
        )
        .unwrap_err();
        assert_eq!(
            err,
            CimError::SmoothingLength {
                expected: 4,
                got: 3
            }
        );
    }
}
