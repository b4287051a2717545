//! Partitioned matrix multiplication over array-sized tiles (paper §5.4,
//! Fig. 14a).
//!
//! When the filter matrix exceeds the physical array, it is split into
//! tiles of at most `rows × cols`. Row bands produce independent output
//! rows; column bands produce partial sums that accumulate. The array
//! alternates between loading a tile's weights and multiplying, and — as in
//! the paper — the next tile's weight load overlaps the current tile's
//! compute ("every systolic cell is busy all the time"), so a tile
//! contributes `max(compute, next load)` cycles.
//!
//! ## The prepared fast path
//!
//! Deployed inference runs the *same* weights against a stream of data
//! matrices, so everything derivable from the weights alone is hoisted to
//! [`TiledScheduler::prepare_packed`]: each tile is lowered to a per-row
//! **op list** of `(channel, weight)` pairs with zero weights dropped, and
//! the tile's static counters (weight-load cycles, nonzero cells, occupied
//! cell slots, streamed input channels) are precomputed. A call to
//! [`TiledScheduler::run_prepared_with`] is then a branch-free sweep of
//! slice iterators — MACs against native-width accumulator lanes, the
//! `exact_bitserial` dispatch hoisted out of the inner loop — that writes
//! into a caller-owned [`RunScratch`] and assembles [`SimStats`] by
//! O(tiles) addition, with zero allocations once the scratch has warmed
//! up. The scratch's output plane is `i32`: an [`AccumWidth`] is at most
//! 32 bits, so every wrapped accumulator word fits, the 32-bit lane
//! kernel accumulates straight into the plane (no second plane, no
//! widening pass), and the engine's quantizer reads four-byte words. The
//! original per-call path survives as
//! [`TiledScheduler::run_packed_reference`], the bit-exactness baseline
//! for tests and benchmarks.
//!
//! ## The batch-major lane sweep
//!
//! The kernel's innermost loop is **batch-major**: one `(channel, weight)`
//! op applies across the `l` batch positions of its output row — the
//! host's form of the paper's interleaved input streams (§4, Fig. 8c):
//! independent positions side by side in a vector register. The row is
//! walked in 64-position blocks, then 16-position blocks, then a scalar
//! tail; a block's accumulators are loaded once, every op of the row MACs
//! into them, and they are stored once.
//!
//! The kernel is a [`cc_tensor::isa::Kernel`], dispatched through the
//! workspace's one ISA dispatch, [`cc_tensor::isa::run_at`], which also
//! holds the soundness argument for the AVX2 call and for the intrinsic
//! wrappers. What each level runs was read off the disassembly of the
//! shipped `cc-perf`, not assumed:
//!
//! - **baseline** (what the build targets; x86-64 means SSE2): the block
//!   loop as safe, intrinsic-free Rust. 128-bit registers, four `i32`
//!   positions per instruction. SSE2 has no 32-bit multiply, so each group
//!   of four is two unpacks and a shift to sign-extend, then a `pmaddwd`
//!   against the broadcast weight whose odd 16-bit lanes are zero, then
//!   `paddd`. At the old 16-wide block that was 38 instructions per op for
//!   16 MACs.
//! - **avx2**, 32-bit lanes: the same 64-wide blocks and tail, with the
//!   16-wide blocks between them swept as one block of one to three
//!   groups, all in **even/odd form** and written in
//!   [`cc_tensor::isa::avx2`]'s token-taking intrinsics (`MaddSweep`).
//!   Per op, one `vpbroadcastd` loads the op's weight, stored pre-widened
//!   as the word `[w, 0]`, and one `vpslld` makes `[0, w]`. Per 16
//!   positions, `vpmovsxbw` widens the data bytes, and two `vpmaddwd` give
//!   `w·x` at the even and at the odd positions as `i32`. Two `vpaddd` add
//!   them into the block's register accumulators. That is 33 instructions
//!   per op for 64 MACs, bounds checks included, with eight one-µop
//!   `vpmaddwd` where the safe loop had eight two-µop `vpmulld` (38
//!   instructions: `vpmovsxbd`, `vpmulld`, `vpaddd`; LLVM emits no
//!   `vpmaddwd` for it, hence the intrinsics). Once per block,
//!   `vpunpck{l,h}dq` + `vperm2i128` put the positions back in order, and
//!   the block is stored into the plane — over whatever it held, in a row
//!   group's first tile, so this arm skips the zeroing pass over the plane
//!   — or added to it, in the column bands after.
//! - **avx2+vnni**, 32-bit lanes: the same body, with each `vpmaddwd` +
//!   `vpaddd` pair one `vpdpwssd` (AVX-VNNI: VEX-encoded, 256-bit, so no
//!   AVX-512 down-clock), which adds the pair's sum into the accumulator
//!   with the same wrap — 3 instructions per 16 positions where AVX2 has 5.
//!   The saturating `vpdpwssds` is never used.
//! - **avx512+vnni**, 32-bit lanes: the same body, with each 64-wide
//!   block two 32-position groups of `zmm` registers
//!   (`madd_blocks_zmm`): per op one `vpbroadcastd` and one `vpslld`, per
//!   group one `vpmovsxbw` and two `vpdpwssd`, and once per block one
//!   `vpermt2d` per 16 words to put the positions back in order — 9
//!   instructions per op for 64 MACs where AVX-VNNI has 15. The 16-wide
//!   groups and the scalar tail keep their AVX-VNNI body, so a row
//!   shorter than 64 (one LeNet image's 49 positions) runs no 512-bit
//!   instruction.
//! - **avx2**, **avx2+vnni** and **avx512+vnni**, 16-bit lanes: the safe
//!   block loop compiled for AVX2, 16 positions per `vpmullw` (the
//!   AVX-512 level runs the AVX-VNNI compilation).
//!
//! Which one runs is decided per band run by
//! [`cc_tensor::isa::Level::detect`] (a cached atomic load or two) and
//! reported by [`lane_isa`]; there is no knob. The deployed engine's
//! peripheral blocks go through the same dispatch, so one name covers them
//! all.
//! Integer wrapping adds are associative and commutative, so no level, no
//! block width and no order of a lane's products changes a bit. An
//! unconditional AVX-512 arm — the safe loop auto-vectorised to `vpmulld`
//! on `zmm` registers — was measured twice and left out: 4–10 % more on
//! `offline_resnet`, but single-image LeNet latency 7–12 % *worse* than at
//! the AVX2 level. The `avx512+vnni` body is a different thing: `vpdpwssd`
//! on the wide blocks alone, 2.1–2.8× the `ymm` form's MACs per ns in a
//! model of the block, with no down-clock seen after it (CHANGES.md has
//! the runs).
//!
//! The PR 4 one-op-at-a-time loop survives as
//! [`TiledScheduler::run_prepared_scalar_with`], the reference the lane
//! kernel is checked against (baseline level only). All kernels and
//! the stats model share one tile/row/op walk (`walk_band` +
//! `BandVisitor`), so loop-structure changes land once.
//!
//! ## One scatter: row bands, fleets, faults
//!
//! One prepared matrix can also be carved across several simulated arrays:
//! a [`RowBand`] is a borrowing view of a contiguous run of a
//! [`PreparedPacked`]'s tile row-groups, so N shards share a single
//! prepared op list instead of re-preparing per shard.
//! [`PreparedPacked::partition_row_bands`] balances the bands by op count
//! (the min-max DP from [`crate::partition`]), and
//! [`TiledScheduler::run_bands`] is the single production entry that
//! executes a plan: band `i` runs under its [`BandLane`] — the lane's
//! array geometry, the [`BandAction`] a fault plan ordered, and the slots
//! its [`SimStats`], host time and [`BandOutcome`] come back in — on its
//! own scoped thread (one simulated array each), band 0 on the caller's.
//! Bands own disjoint output rows, so the gather is pure row
//! concatenation and the assembled plane is bit-identical to the
//! unsharded run. Every other configuration is a degenerate call of that
//! scatter rather than separate code: one full band is the unsharded
//! [`TiledScheduler::run_prepared_with`], every lane at the preparing
//! config's geometry is the homogeneous
//! [`TiledScheduler::run_bands_with`], and [`BandAction::Run`] on every
//! lane is the fault-free run. The deployed engine calls neither
//! wrapper: every packed conv it runs goes through `cc-deploy`'s
//! `BandSet` into [`TiledScheduler::run_bands_then`], a one-lane set
//! included. [`TiledScheduler::run_prepared_with`] is the layered
//! benchmark's per-conv replay entry and the tests' unsharded reference.
//!
//! In the paper's system every array is followed by its own ReLU +
//! quantization block (Fig. 6), so a lane need not stop at the
//! accumulators: [`TiledScheduler::run_bands_then`] is the same scatter
//! with a per-band finishing step, run on the band's own thread the
//! moment its kernel returns and handed that band's finished rows.
//! Whatever the caller does per output word therefore scatters with the
//! kernel instead of queueing behind the gather on one thread.
//!
//! The arrays of a scatter need not be identical:
//! [`PreparedPacked::partition_row_bands_for`] weights the banding DP by
//! each target [`ArrayGeometry`]'s cycle model. Execution always sweeps
//! the *shared* base op list — outputs stay bit-identical to the
//! unsharded run no matter the fleet — while each band's [`SimStats`]
//! re-tile its prepared tiles into geometry-sized physical tiles (a
//! smaller array pays more loads and more skew).

use crate::array::{ArrayConfig, ArrayGeometry, QuantPacked, SimStats, SystolicArray};
use crate::cell::CellKind;
use crate::mac::BitSerialMac;
use crate::partition::{partition_min_max, partition_min_max_by};
#[cfg(target_arch = "x86_64")]
use cc_tensor::isa::{avx2, avx512, Avx2, Avx2Vnni, Avx512Vnni};
use cc_tensor::isa::{self, Kernel, Level};
use cc_tensor::quant::{AccumWidth, QuantMatrix};
use std::ops::Range;
use std::time::Instant;

/// Result of a tiled execution.
#[derive(Clone, Debug, PartialEq)]
pub struct TiledRun {
    /// Output accumulator words, row-major `weight_rows × data_cols`.
    pub outputs: Vec<i64>,
    /// Merged cycle/operation counters (cycles account for load/compute
    /// overlap).
    pub stats: SimStats,
    /// Number of tiles executed.
    pub tiles: usize,
}

/// Schedules a full matrix multiplication as a sequence of tiles.
#[derive(Clone, Copy, Debug)]
pub struct TiledScheduler {
    cfg: ArrayConfig,
}

impl TiledScheduler {
    /// Creates a scheduler for the given array.
    pub fn new(cfg: ArrayConfig) -> Self {
        TiledScheduler { cfg }
    }

    /// The array configuration.
    pub fn config(&self) -> &ArrayConfig {
        &self.cfg
    }

    /// Multiplies an arbitrarily large unpacked weight matrix by `d`.
    ///
    /// # Panics
    ///
    /// Panics if `w.cols() != d.rows()`.
    pub fn run_unpacked(&self, w: &QuantMatrix, d: &QuantMatrix) -> TiledRun {
        assert_eq!(w.cols(), d.rows(), "weights/data dimension mismatch");
        let array = SystolicArray::new(self.cfg);
        let (n, m, l) = (w.rows(), w.cols(), d.cols());
        let mut outputs = vec![0i64; n * l];
        let mut stats = SimStats::default();
        let mut tiles = 0usize;
        let expected_tiles =
            n.div_ceil(self.cfg.rows.max(1)) * m.div_ceil(self.cfg.cols.max(1));
        let mut tile_cycles: Vec<(u64, u64)> = Vec::with_capacity(expected_tiles); // (load, compute)

        for r0 in (0..n).step_by(self.cfg.rows.max(1)) {
            let r1 = (r0 + self.cfg.rows).min(n);
            for c0 in (0..m).step_by(self.cfg.cols.max(1)) {
                let c1 = (c0 + self.cfg.cols).min(m);
                let wt = slice_quant(w, r0, r1, c0, c1);
                let dt = slice_quant(d, c0, c1, 0, l);
                let run = array.multiply(&wt, &dt);
                accumulate(&mut outputs, &run.outputs, r0, r1, l, self.cfg);
                tile_cycles.push((run.stats.load_cycles, run.stats.cycles - run.stats.load_cycles));
                stats.merge_ops(&run.stats);
                tiles += 1;
            }
        }
        stats.cycles = overlapped_cycles(&tile_cycles);
        stats.load_cycles = tile_cycles.iter().map(|t| t.0).sum();
        TiledRun { outputs, stats, tiles }
    }

    /// Multiplies a packed (column-combined) weight matrix by `d`, which
    /// carries the *original* channels.
    ///
    /// Prepares the weight matrix on every call; when the same weights run
    /// against many data matrices (deployed inference, serving), use
    /// [`TiledScheduler::prepare_packed`] once and
    /// [`TiledScheduler::run_prepared`] (or the allocation-free
    /// [`TiledScheduler::run_prepared_with`]) per call instead.
    ///
    /// # Panics
    ///
    /// Panics if `d` lacks channels the packing references.
    pub fn run_packed(&self, p: &QuantPacked, d: &QuantMatrix) -> TiledRun {
        self.run_prepared(&self.prepare_packed(p), d)
    }

    /// The seed per-call path: slices the packed matrix into array tiles
    /// and runs each through the indexed [`SystolicArray::multiply_packed`]
    /// simulation. Bit-identical to [`TiledScheduler::run_prepared`] on
    /// the same matrix — kept as the ground-truth baseline the prepared
    /// op-list kernel is validated (and benchmarked) against.
    ///
    /// # Panics
    ///
    /// Panics if `d` lacks channels the packing references.
    pub fn run_packed_reference(&self, p: &QuantPacked, d: &QuantMatrix) -> TiledRun {
        let array = SystolicArray::new(self.cfg);
        let (n, g, l) = (p.rows(), p.groups(), d.cols());
        let mut outputs = vec![0i64; n * l];
        let mut stats = SimStats::default();
        let mut tiles = 0usize;
        let expected_tiles =
            n.div_ceil(self.cfg.rows.max(1)) * g.div_ceil(self.cfg.cols.max(1));
        let mut tile_cycles: Vec<(u64, u64)> = Vec::with_capacity(expected_tiles);

        for r0 in (0..n).step_by(self.cfg.rows.max(1)) {
            let r1 = (r0 + self.cfg.rows).min(n);
            for g0 in (0..g).step_by(self.cfg.cols.max(1)) {
                let g1 = (g0 + self.cfg.cols).min(g);
                let wt = slice_packed(p, r0, r1, g0, g1);
                let run = array.multiply_packed(&wt, d);
                accumulate(&mut outputs, &run.outputs, r0, r1, l, self.cfg);
                tile_cycles.push((run.stats.load_cycles, run.stats.cycles - run.stats.load_cycles));
                stats.merge_ops(&run.stats);
                tiles += 1;
            }
        }
        stats.cycles = overlapped_cycles(&tile_cycles);
        stats.load_cycles = tile_cycles.iter().map(|t| t.0).sum();
        TiledRun { outputs, stats, tiles }
    }

    /// Lowers a packed weight matrix into this scheduler's prepared form:
    /// array-sized tiles, each reduced to per-row `(channel, weight)` op
    /// lists (zero weights dropped) plus precomputed static counters, so
    /// repeated runs do no per-call slicing, branching on empty cells, or
    /// stats recounting (weight-stationary reuse: a deployed layer's tiles
    /// never change between inferences).
    ///
    /// # Panics
    ///
    /// Panics if the packing's largest group exceeds the array's MX mux
    /// width (the same condition [`SystolicArray::multiply_packed`]
    /// enforces per call).
    pub fn prepare_packed(&self, p: &QuantPacked) -> PreparedPacked {
        if let CellKind::Multiplexed { mux_width } = self.cfg.cell {
            assert!(
                p.max_group_size() <= mux_width,
                "group size {} exceeds MX mux width {mux_width}",
                p.max_group_size()
            );
        }
        let array = SystolicArray::new(self.cfg);
        let (n, g) = (p.rows(), p.groups());
        let mut tiles = Vec::new();
        let mut static_stats = PreparedStatics::default();
        for r0 in (0..n).step_by(self.cfg.rows.max(1)) {
            let r1 = (r0 + self.cfg.rows).min(n);
            for g0 in (0..g).step_by(self.cfg.cols.max(1)) {
                let g1 = (g0 + self.cfg.cols).min(g);
                let tile = PreparedTile::lower(p, &array, r0, r1, g0, g1);
                static_stats.load_cycles += tile.load_cycles;
                static_stats.nonzero_cells += tile.ops.len() as u64;
                static_stats.cell_slots += (tile.rows * tile.groups) as u64;
                static_stats.streamed_channels += tile.streamed_channels;
                static_stats.output_rows += tile.rows as u64;
                tiles.push(tile);
            }
        }
        PreparedPacked {
            rows: n,
            groups: g,
            original_cols: p.original_cols(),
            cfg: self.cfg,
            tiles,
            statics: static_stats,
        }
    }

    /// Multiplies pre-lowered packed tiles by `d`. Bit-identical to
    /// [`TiledScheduler::run_packed`] on the matrix the tiles came from.
    ///
    /// Allocates a fresh result; [`TiledScheduler::run_prepared_with`]
    /// reuses a caller-held [`RunScratch`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the tiles were prepared for a different array
    /// configuration or `d` lacks channels the packing references.
    pub fn run_prepared(&self, p: &PreparedPacked, d: &QuantMatrix) -> TiledRun {
        let mut scratch = RunScratch::new();
        let stats = self.run_prepared_with(p, d, &mut scratch);
        let outputs = scratch.take_outputs().into_iter().map(i64::from).collect();
        TiledRun { outputs, stats, tiles: p.tiles.len() }
    }

    /// The allocation-free kernel: multiplies pre-lowered packed tiles by
    /// `d`, leaving the output accumulators in `scratch` (read them via
    /// [`RunScratch::outputs`]) and returning the run's [`SimStats`].
    /// Reusing one scratch across calls performs zero steady-state heap
    /// allocations. Bit-identical to [`TiledScheduler::run_packed`] /
    /// [`TiledScheduler::run_packed_reference`], including stats.
    ///
    /// This is [`TiledScheduler::run_bands`] over the one-band plan
    /// [`PreparedPacked::full_band`] with a single fault-free lane at the
    /// preparing config's geometry (band and lane live on the stack, so
    /// the degenerate call allocates nothing).
    ///
    /// # Panics
    ///
    /// Panics if the tiles were prepared for a different array
    /// configuration or `d` lacks channels the packing references.
    pub fn run_prepared_with(
        &self,
        p: &PreparedPacked,
        d: &QuantMatrix,
        scratch: &mut RunScratch,
    ) -> SimStats {
        let mut lane = BandLane::new(self.cfg.geometry());
        self.run_bands(
            p,
            std::slice::from_ref(&p.full_band()),
            d,
            scratch,
            &mut [],
            std::slice::from_mut(&mut lane),
        );
        lane.stats
    }

    /// Runs only `band`'s tiles against `d`, leaving the band's output
    /// rows in `out` — the `band.rows()` row slice of the full output
    /// plane (`band` rows × `d.cols()` accumulator words). `scratch`
    /// supplies the 16-bit accumulator lanes only (32-bit lanes are the
    /// plane itself); reusing one per shard keeps repeated band runs
    /// allocation-free. The *outputs* are
    /// bit-identical regardless of `geom` (the shared base op list is what
    /// executes); the returned [`SimStats`] model *this band's array
    /// alone*, its prepared tiles re-tiled into `geom`-sized physical
    /// tiles: the overlap cycle model over the band's tile subsequence
    /// plus the band's share of the op counters (at the preparing config's
    /// geometry, op counters and `load_cycles` of a full partition sum
    /// exactly to the unsharded run's). `level` is the one the batch-major
    /// lane kernel runs at, `None` the scalar baseline; neither touches a
    /// bit of the result.
    fn run_band_kernel(
        &self,
        p: &PreparedPacked,
        band: &RowBand,
        geom: ArrayGeometry,
        d: &QuantMatrix,
        out: &mut [i32],
        scratch: &mut RunScratch,
        level: Option<Level>,
    ) -> SimStats {
        assert_eq!(p.cfg, self.cfg, "tiles prepared for a different array");
        assert!(d.rows() >= p.original_cols, "data matrix missing channels");
        let l = d.cols();
        assert_eq!(out.len(), band.rows.len() * l, "band output slice mis-sized");
        let data = d.as_slice();
        let tiles = &p.tiles[band.tiles.clone()];

        // The exact-bitserial dispatch happens once per run, not once per
        // MAC; the fast paths further specialize to the accumulator's
        // native lane width so per-MAC wrapping is free. 32-bit lanes are
        // the output plane itself; 16-bit lanes sweep their own plane and
        // sign-extend into it. Each lane kernel zeroes its own plane.
        let row0 = band.rows.start;
        match (self.cfg.exact_bitserial, self.cfg.acc) {
            (true, acc) => {
                out.fill(0);
                walk_band(tiles, row0, l, &mut ExactSweep { data, l, acc, out });
            }
            (false, AccumWidth::Bits32) => sweep_lanes(tiles, row0, data, l, out, level),
            (false, AccumWidth::Bits16) => {
                let plane = &mut scratch.lane16;
                plane.resize(out.len(), 0);
                sweep_lanes(tiles, row0, data, l, plane, level);
                for (o, &v) in out.iter_mut().zip(plane.iter()) {
                    *o = i32::from(v);
                }
            }
        }
        // Stats are O(physical tiles) arithmetic over the prepared
        // per-tile counters — no per-cell recounting.
        band_stats_geom(tiles, geom, self.cfg.acc, l)
    }

    /// The scalar op-list baseline: bit-identical outputs and stats to
    /// [`TiledScheduler::run_prepared_with`], but the inner sweep applies
    /// one op at a time across the row (the PR 4 loop) instead of the
    /// batch-major fused lane sweep. Not a serving path — it exists so the
    /// lane kernel is always checked against a live scalar baseline (the
    /// unit tests and the kernel proptests). Under
    /// `exact_bitserial` both entry points run the same exact kernel.
    pub fn run_prepared_scalar_with(
        &self,
        p: &PreparedPacked,
        d: &QuantMatrix,
        scratch: &mut RunScratch,
    ) -> SimStats {
        self.run_full_band(p, d, scratch, None)
    }

    /// [`TiledScheduler::run_prepared_with`] with the lane kernel at
    /// `level` instead of the detected one, on the calling thread: the
    /// entry that lets a test run every compilation the CPU has
    /// ([`Level::available`]). Bit-identical outputs and stats at every
    /// level.
    pub fn run_prepared_at(
        &self,
        p: &PreparedPacked,
        d: &QuantMatrix,
        scratch: &mut RunScratch,
        level: Level,
    ) -> SimStats {
        self.run_full_band(p, d, scratch, Some(level))
    }

    /// The whole matrix as one band into the scratch's plane, with the
    /// lane kernel at `level` (`None`: the scalar sweep).
    fn run_full_band(
        &self,
        p: &PreparedPacked,
        d: &QuantMatrix,
        scratch: &mut RunScratch,
        level: Option<Level>,
    ) -> SimStats {
        let band = p.full_band();
        let l = d.cols();
        let mut out = std::mem::take(&mut scratch.out);
        out.resize(p.rows * l, 0);
        let stats =
            self.run_band_kernel(p, &band, self.cfg.geometry(), d, &mut out, scratch, level);
        scratch.out = out;
        stats
    }

    /// [`TiledScheduler::run_bands`] over a homogeneous, fault-free fleet
    /// (every lane the preparing config's array): per-band [`SimStats`]
    /// land in `stats` and per-band host-time nanoseconds are *added* to
    /// `busy` (shard occupancy accounting).
    ///
    /// # Panics
    ///
    /// As [`TiledScheduler::run_bands`], plus if `stats` or `busy` are
    /// shorter than `plan`.
    pub fn run_bands_with(
        &self,
        p: &PreparedPacked,
        plan: &[RowBand],
        d: &QuantMatrix,
        primary: &mut RunScratch,
        aux: &mut [RunScratch],
        stats: &mut [SimStats],
        busy: &mut [u64],
    ) {
        assert!(stats.len() >= plan.len(), "need one stats slot per band");
        assert!(busy.len() >= plan.len(), "need one busy slot per band");
        let mut lanes = vec![BandLane::new(self.cfg.geometry()); plan.len()];
        self.run_bands(p, plan, d, primary, aux, &mut lanes);
        for ((lane, stat), busy_slot) in lanes.iter().zip(stats).zip(busy) {
            *stat = lane.stats;
            *busy_slot += lane.busy_ns;
        }
    }

    /// The one scatter/gather: executes the row-band shard `plan`, band
    /// `i` under `lanes[i]` — that lane's array geometry prices the band's
    /// [`SimStats`], its [`BandAction`] is what a fault plan ordered, and
    /// the band's stats, host nanoseconds (*added* to `busy_ns`) and
    /// [`BandOutcome`] come back in the same record. Each band runs on its
    /// own thread (its own simulated array) with its own lane scratch, all
    /// writing disjoint row slices of `primary`'s output plane: band 0
    /// executes on the calling thread with `primary`'s lanes, bands
    /// `i ≥ 1` on scoped threads with `aux[i-1]`; a one-band plan spawns
    /// nothing and allocates nothing.
    ///
    /// When every outcome is [`BandOutcome::Ran`] or
    /// [`BandOutcome::Stalled`], [`RunScratch::outputs`] on `primary`
    /// holds exactly what the unsharded run would have produced — the
    /// gather is row concatenation by construction, and geometry touches
    /// only the stats model (stalls only add host latency). A `Poisoned`
    /// band's output rows are corrupted and a `Dead` band's rows are
    /// stale — the caller owns detection (via the outcomes) and recovery
    /// (re-planning over surviving arrays and re-running).
    ///
    /// This is [`TiledScheduler::run_bands_then`] with no finishing step.
    ///
    /// # Panics
    ///
    /// Panics if `plan` is empty or does not cover the matrix's rows
    /// contiguously from 0, if `aux` or `lanes` are shorter than the plan
    /// requires, if the tiles were prepared for a different array
    /// configuration, or if `d` lacks channels the packing references.
    pub fn run_bands(
        &self,
        p: &PreparedPacked,
        plan: &[RowBand],
        d: &QuantMatrix,
        primary: &mut RunScratch,
        aux: &mut [RunScratch],
        lanes: &mut [BandLane],
    ) {
        let none: &mut [fn(&RowBand, &[i32])] = &mut [];
        self.run_bands_then(p, plan, d, primary, aux, lanes, none);
    }

    /// [`TiledScheduler::run_bands`] where every array finishes its own
    /// rows (see the module docs): `steps[i]` runs on band `i`'s thread
    /// right after the band's kernel, with the band and the band's row
    /// slice of the output plane (`band.rows()` rows × `d.cols()`
    /// accumulator words). `steps` is empty (no finishing step) or one
    /// per band; a one-band plan still runs everything on the calling
    /// thread and allocates nothing.
    ///
    /// What a step may assume: *its* rows are complete — the kernel has
    /// returned, 16-bit lanes are sign-extended, and under
    /// [`BandAction::Poison`] the rows are already corrupted (garbage in,
    /// garbage out; the lane reports [`BandOutcome::Poisoned`] and the
    /// caller re-runs). Other bands' rows are *not* — their lanes may
    /// still be sweeping — which is why a step is handed its own slice
    /// and nothing else. A [`BandAction::Dead`] band runs no step: its
    /// rows were never produced. The step's host time counts into the
    /// lane's `busy_ns` like the kernel's, on band 0 as on the spawned
    /// bands. The plane is gathered as without steps, so
    /// [`RunScratch::outputs`] reads the same afterwards.
    ///
    /// # Panics
    ///
    /// As [`TiledScheduler::run_bands`], plus if `steps` is neither empty
    /// nor at least as long as `plan`.
    pub fn run_bands_then<S>(
        &self,
        p: &PreparedPacked,
        plan: &[RowBand],
        d: &QuantMatrix,
        primary: &mut RunScratch,
        aux: &mut [RunScratch],
        lanes: &mut [BandLane],
        steps: &mut [S],
    ) where
        S: FnMut(&RowBand, &[i32]) + Send,
    {
        let (band0, rest_bands) = plan.split_first().expect("empty shard plan");
        assert_eq!(band0.rows.start, 0, "plan must start at row 0");
        assert_eq!(plan.last().unwrap().rows.end, p.rows, "plan must cover every row");
        for pair in plan.windows(2) {
            assert_eq!(pair[0].rows.end, pair[1].rows.start, "plan bands must be contiguous");
        }
        assert!(aux.len() >= rest_bands.len(), "need one aux scratch per extra band");
        assert!(lanes.len() >= plan.len(), "need one lane per band");
        assert!(
            steps.is_empty() || steps.len() >= plan.len(),
            "need one finishing step per band, or none"
        );

        let l = d.cols();
        // The output plane moves out of the scratch for the duration of
        // the run so the band kernels can borrow each scratch's lane plane
        // mutably alongside it; capacity is preserved, so this stays
        // allocation-free once warm. Stale contents are fine — every band
        // kernel fully overwrites (or re-zeroes) its row slice — so at a
        // steady-state size the resize is a no-op, not a memset.
        let mut out = std::mem::take(&mut primary.out);
        out.resize(p.rows * l, 0);
        let (out0, mut out_tail) = out.split_at_mut(band0.rows.len() * l);
        let (lane0, rest_lanes) = lanes.split_first_mut().expect("lanes sized");
        // With no steps every lane draws `None`.
        let mut steps = steps.iter_mut();
        let step0 = steps.next();

        if rest_bands.is_empty() {
            // A thread scope allocates its bookkeeping even when nothing
            // is spawned; the unsharded call must not.
            self.run_lane(p, band0, d, out0, primary, lane0, step0);
        } else {
            std::thread::scope(|scope| {
                for ((band, scratch), lane) in
                    rest_bands.iter().zip(aux.iter_mut()).zip(rest_lanes.iter_mut())
                {
                    let (slice, tail) = out_tail.split_at_mut(band.rows.len() * l);
                    out_tail = tail;
                    let sched = *self;
                    let step = steps.next();
                    scope.spawn(move || sched.run_lane(p, band, d, slice, scratch, lane, step));
                }
                self.run_lane(p, band0, d, out0, primary, lane0, step0);
            });
        }
        primary.out = out;
    }

    /// One band on one lane, timed from the stall to the end of the
    /// finishing step. `Run` and `Stall` produce the band's correct output
    /// rows (a stall merely sleeps first, modeling a slow array); `Poison`
    /// computes the correct rows and then corrupts them in place (a sick
    /// array returning garbage); `Dead` touches nothing — the band's slice
    /// of `out` keeps whatever stale contents it had, the lane's stats are
    /// zero and `step` is not called. Every other action hands `step` the
    /// rows as the lane left them.
    fn run_lane<S: FnMut(&RowBand, &[i32])>(
        &self,
        p: &PreparedPacked,
        band: &RowBand,
        d: &QuantMatrix,
        out: &mut [i32],
        scratch: &mut RunScratch,
        lane: &mut BandLane,
        step: Option<&mut S>,
    ) {
        let t0 = Instant::now();
        if let BandAction::Stall(micros) = lane.action {
            std::thread::sleep(std::time::Duration::from_micros(u64::from(micros)));
        }
        lane.stats = match lane.action {
            BandAction::Dead => SimStats::default(),
            _ => self.run_band_kernel(p, band, lane.geom, d, out, scratch, Some(Level::detect())),
        };
        lane.outcome = match lane.action {
            BandAction::Run => BandOutcome::Ran,
            BandAction::Stall(_) => BandOutcome::Stalled,
            BandAction::Poison => {
                for word in out.iter_mut() {
                    *word = !*word;
                }
                BandOutcome::Poisoned
            }
            BandAction::Dead => BandOutcome::Dead,
        };
        if lane.outcome != BandOutcome::Dead {
            if let Some(step) = step {
                step(band, out);
            }
        }
        lane.busy_ns += t0.elapsed().as_nanos() as u64;
    }
}

/// One band's slot in [`TiledScheduler::run_bands`]: what the band runs
/// as going in (array geometry, fault action), what happened coming out
/// (stats, host time, outcome).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BandLane {
    /// The simulated array this band runs on; prices `stats` only.
    pub geom: ArrayGeometry,
    /// What the fault plan ordered for this execution
    /// ([`BandAction::Run`] = healthy).
    pub action: BandAction,
    /// Out: the band's counters under `geom`'s cycle model (zero for a
    /// `Dead` band).
    pub stats: SimStats,
    /// Out: host nanoseconds the band occupied its lane — stall, kernel
    /// and finishing step — *added* to the running value.
    pub busy_ns: u64,
    /// Out: what actually happened to the band.
    pub outcome: BandOutcome,
}

impl BandLane {
    /// A healthy lane of the given geometry with zeroed outputs.
    pub fn new(geom: ArrayGeometry) -> Self {
        BandLane {
            geom,
            action: BandAction::Run,
            stats: SimStats::default(),
            busy_ns: 0,
            outcome: BandOutcome::Ran,
        }
    }
}

/// What a fault-injection hook instructs one band execution (one shard
/// lane, one conv) to do. Produced by a deterministic fault plan and
/// consumed by [`TiledScheduler::run_bands`] through [`BandLane::action`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BandAction {
    /// Execute normally.
    #[default]
    Run,
    /// Sleep this many microseconds, then execute normally — a slow
    /// array. Output is still correct.
    Stall(u32),
    /// Execute, then corrupt the band's output rows — a sick array
    /// returning garbage that gathers into a wrong result.
    Poison,
    /// Do nothing — a dead array. The band's output rows are left stale.
    Dead,
}

/// What actually happened to one band under a [`BandAction`] — the
/// detection signal a self-healing caller scores shard health from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BandOutcome {
    /// Executed normally; output rows are correct.
    #[default]
    Ran,
    /// Stalled first, then executed; output rows are correct.
    Stalled,
    /// Output rows are corrupted; the conv must be re-run.
    Poisoned,
    /// Output rows were never written; the conv must be re-run.
    Dead,
}

impl BandOutcome {
    /// True when this band's output rows are wrong or missing — the conv
    /// result cannot be used and the lane should be scored as erroring.
    pub fn is_error(self) -> bool {
        matches!(self, BandOutcome::Poisoned | BandOutcome::Dead)
    }
}

/// One MX cell's work in the prepared op list: the original input channel
/// it multiplexes and its stationary weight. The weight is stored widened
/// to the 32-bit word `[w, 0]` — two `i16` lanes, `w` in the low one — so
/// the AVX2 lane kernel broadcasts `vpmaddwd`'s multiplier straight from
/// memory; [`TileOp::weight`] gives the `i8` back. Cells with zero weights
/// (or no assigned channel) are dropped at prepare time.
#[derive(Clone, Copy, Debug)]
struct TileOp {
    channel: u32,
    word: i32,
}

const _: () = assert!(std::mem::size_of::<TileOp>() == 8);

impl TileOp {
    fn new(channel: u32, weight: i8) -> Self {
        TileOp { channel, word: i32::from(i16::from(weight) as u16) }
    }

    /// The stationary `i8` weight: the low byte of the word.
    #[inline(always)]
    fn weight(self) -> i8 {
        self.word as i8
    }
}

/// Counters derivable from the weights alone, summed over all tiles; the
/// per-run [`SimStats`] is these times the stream length.
#[derive(Clone, Copy, Debug, Default)]
struct PreparedStatics {
    load_cycles: u64,
    nonzero_cells: u64,
    cell_slots: u64,
    streamed_channels: u64,
    output_rows: u64,
}

/// A packed weight matrix pre-lowered into array-sized op-list tiles by
/// [`TiledScheduler::prepare_packed`]; build once per deployed layer, run
/// many times.
#[derive(Clone, Debug)]
pub struct PreparedPacked {
    rows: usize,
    groups: usize,
    original_cols: usize,
    cfg: ArrayConfig,
    tiles: Vec<PreparedTile>,
    statics: PreparedStatics,
}

#[derive(Clone, Debug)]
struct PreparedTile {
    /// First global output row this tile contributes to.
    r0: usize,
    /// Tile height (output rows).
    rows: usize,
    /// Tile width (combined columns) — cycle model only; the op list has
    /// already collapsed the empty cells away.
    groups: usize,
    /// Concatenated per-row op lists; row `i` owns
    /// `ops[row_starts[i]..row_starts[i + 1]]`.
    ops: Vec<TileOp>,
    row_starts: Vec<u32>,
    /// Static weight-load cost of this tile.
    load_cycles: u64,
    /// Distinct channels wired into this tile's combined columns.
    streamed_channels: u64,
}

impl PreparedTile {
    /// Lowers the `(r0..r1) × (g0..g1)` slice of `p` to an op-list tile.
    fn lower(
        p: &QuantPacked,
        array: &SystolicArray,
        r0: usize,
        r1: usize,
        g0: usize,
        g1: usize,
    ) -> Self {
        let mut ops = Vec::new();
        let mut row_starts = Vec::with_capacity(r1 - r0 + 1);
        row_starts.push(0u32);
        for r in r0..r1 {
            for g in g0..g1 {
                if let Some(ch) = p.channel_at(r, g) {
                    let weight = p.weight_at(r, g);
                    if weight != 0 {
                        ops.push(TileOp::new(ch as u32, weight));
                    }
                }
            }
            row_starts.push(ops.len() as u32);
        }
        // Input bandwidth: every member channel of every group streams
        // into its combined column (the MX cell takes all and selects).
        let streamed_channels =
            crate::array::packed_slice_stream_width(p, r0..r1, g0..g1) as u64;
        PreparedTile {
            r0,
            rows: r1 - r0,
            groups: g1 - g0,
            ops,
            row_starts,
            load_cycles: array.weight_load_cycles(r1 - r0, g1 - g0),
            streamed_channels,
        }
    }
}

/// A contiguous row band of a [`PreparedPacked`]: the tiles whose output
/// rows fall in `rows`. Bands are *views* — shards built from one plan all
/// borrow the same prepared op list, they never re-prepare — and a full
/// partition's bands own disjoint output rows, so concatenating their
/// outputs reproduces the unsharded result bit for bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowBand {
    rows: Range<usize>,
    tiles: Range<usize>,
}

impl RowBand {
    /// The global output rows this band produces.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Number of prepared tiles the band executes.
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }
}

impl PreparedPacked {
    /// Output rows (filters) of the full matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The whole matrix as a single band —
    /// [`TiledScheduler::run_prepared_with`] is
    /// [`TiledScheduler::run_bands`] over this one-band plan.
    pub fn full_band(&self) -> RowBand {
        RowBand { rows: 0..self.rows, tiles: 0..self.tiles.len() }
    }

    /// Carves the matrix into at most `shards` contiguous [`RowBand`]s,
    /// balanced by op-list length (the work the per-inference kernel
    /// actually sweeps). Band boundaries fall on tile row-group
    /// boundaries — a row band owns whole tiles, never part of one — so
    /// the effective shard count is capped by the matrix's row-group
    /// count (`rows / array_rows`, rounded up).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn partition_row_bands(&self, shards: usize) -> Vec<RowBand> {
        assert!(shards > 0, "need at least one shard");
        if self.tiles.is_empty() {
            return vec![self.full_band()];
        }
        let groups = self.row_groups();
        let costs: Vec<u64> = groups.iter().map(|g| g.2).collect();
        self.bands_from_groups(&groups, partition_min_max(&costs, shards))
    }

    /// Cost-weighted banding for a heterogeneous fleet: carves the matrix
    /// into at most `fleet.len()` contiguous [`RowBand`]s where band `i`
    /// targets `fleet[i]`, weighting the min-max DP by each geometry's own
    /// simulated cycle model at stream length `l` (the batch width the
    /// plan is sized for) — a slower/smaller array gets fewer rows, so the
    /// fleet's makespan beats any single array running everything.
    /// Execution stays bit-identical regardless of the plan; only the
    /// balance changes.
    ///
    /// # Panics
    ///
    /// Panics if `fleet` is empty.
    pub fn partition_row_bands_for(&self, fleet: &[ArrayGeometry], l: usize) -> Vec<RowBand> {
        assert!(!fleet.is_empty(), "need at least one shard");
        if self.tiles.is_empty() {
            return vec![self.full_band()];
        }
        let groups = self.row_groups();
        let cost = |j: usize, r: Range<usize>| {
            let tiles = groups[r.start].1.start..groups[r.end - 1].1.end;
            band_stats_geom(&self.tiles[tiles], fleet[j], self.cfg.acc, l).cycles
        };
        let ranges = partition_min_max_by(groups.len(), fleet.len(), cost);
        self.bands_from_groups(&groups, ranges)
    }

    /// Row-groups: consecutive tiles sharing a first output row, each with
    /// its row span, tile span, and op-count cost (op-list length plus one
    /// per tile — a loaded tile is never free, even when all its weights
    /// pruned to zero).
    #[allow(clippy::type_complexity)]
    fn row_groups(&self) -> Vec<(Range<usize>, Range<usize>, u64)> {
        let mut groups: Vec<(Range<usize>, Range<usize>, u64)> = Vec::new();
        for (i, tile) in self.tiles.iter().enumerate() {
            match groups.last_mut() {
                Some((rows, tiles, cost)) if rows.start == tile.r0 => {
                    tiles.end = i + 1;
                    *cost += tile.ops.len() as u64 + 1;
                }
                _ => groups.push((
                    tile.r0..tile.r0 + tile.rows,
                    i..i + 1,
                    tile.ops.len() as u64 + 1,
                )),
            }
        }
        groups
    }

    fn bands_from_groups(
        &self,
        groups: &[(Range<usize>, Range<usize>, u64)],
        ranges: Vec<Range<usize>>,
    ) -> Vec<RowBand> {
        ranges
            .into_iter()
            .map(|r| RowBand {
                rows: groups[r.start].0.start..groups[r.end - 1].0.end,
                tiles: groups[r.start].1.start..groups[r.end - 1].1.end,
            })
            .collect()
    }

    /// The cycle count one array takes to stream all tiles sequentially
    /// against an `l`-column data matrix — the unsharded
    /// [`TiledScheduler::run_prepared_with`] cycle total, computable
    /// without running. A sharded gather uses this as the
    /// sequential-equivalent cycle count so merged stats stay bit-identical
    /// to the unsharded run's regardless of the shard plan.
    pub fn sequential_cycles(&self, l: usize) -> u64 {
        self.sequential_stats(l).cycles
    }

    /// The full [`SimStats`] of the unsharded sequential run at stream
    /// length `l`, computable without running. A sharded gather merges
    /// these — not the per-geometry band stats, whose load cycles and
    /// makespans differ by fleet — so merged stats stay plan- and
    /// fleet-invariant.
    pub fn sequential_stats(&self, l: usize) -> SimStats {
        band_stats(&self.tiles, self.cfg, l)
    }

    /// Combined columns (groups) of the full matrix.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Columns of the original unpacked matrix.
    pub fn original_cols(&self) -> usize {
        self.original_cols
    }

    /// Number of pre-lowered tiles.
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Total weight words loaded across all tiles per run — the
    /// weight-stationary load volume of one pass over the matrix. Stage
    /// partitioning for pipelined serving uses this as a per-layer cost
    /// proxy (`cc-deploy`'s layer cost model).
    pub fn load_words(&self) -> u64 {
        self.tiles.iter().map(|t| (t.rows * t.groups) as u64).sum()
    }

    /// Nonzero weight cells across all tiles — the op-list length the
    /// per-inference kernel actually sweeps.
    pub fn nonzero_cells(&self) -> u64 {
        self.statics.nonzero_cells
    }

    /// The array configuration the tiles were lowered for.
    pub fn config(&self) -> &ArrayConfig {
        &self.cfg
    }
}

/// Reusable output storage for [`TiledScheduler::run_prepared_with`]: the
/// `i32` accumulator plane handed back to callers — wide enough for every
/// [`AccumWidth`], and the plane the 32-bit lane kernel accumulates in —
/// plus the `i16` lane plane the 16-bit kernel sweeps before sign-extending
/// into it. Hold one per worker (or per pipeline stage) and reuse it across
/// inferences — after the first call at a given size, runs perform no heap
/// allocation.
#[derive(Clone, Debug, Default)]
pub struct RunScratch {
    out: Vec<i32>,
    lane16: Vec<i16>,
}

impl RunScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Output accumulator words of the last run, row-major
    /// `weight_rows × data_cols`, each already wrapped to the array's
    /// [`AccumWidth`].
    pub fn outputs(&self) -> &[i32] {
        &self.out
    }

    /// Moves the last run's outputs out of the scratch (leaving it empty
    /// but with its lane capacity intact).
    pub fn take_outputs(&mut self) -> Vec<i32> {
        std::mem::take(&mut self.out)
    }
}

/// A native accumulator lane: wrapping add of an `i8 × i8` product is
/// bit-identical to the simulator's per-MAC `AccumWidth::wrap` because the
/// running value always fits the lane and the product never wraps
/// (|w·x| ≤ 2¹⁴ < 2¹⁵ − 1).
trait Lane: Copy + Default {
    fn mac(self, w: i8, x: i8) -> Self;

    /// The lane kernel's AVX2 compilation: by default the safe block loop
    /// of [`LaneSweep`], compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn run_avx2(kernel: LaneKernel<'_, Self>, _avx2: Avx2) {
        kernel.run()
    }

    /// The lane kernel's AVX2 + AVX-VNNI compilation: by default the AVX2
    /// one, compiled there.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn run_avx2_vnni(kernel: LaneKernel<'_, Self>, vnni: Avx2Vnni) {
        Self::run_avx2(kernel, vnni.avx2())
    }

    /// Whether the lane has an AVX-512 compilation
    /// ([`Lane::run_avx512_vnni`]; [`Kernel::AVX512`]).
    const AVX512: bool = false;

    /// The lane kernel's AVX-512 compilation: by default the AVX-VNNI one.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn run_avx512_vnni(kernel: LaneKernel<'_, Self>, avx512: Avx512Vnni) {
        Self::run_avx2_vnni(kernel, avx512.avx2_vnni())
    }
}

impl Lane for i32 {
    #[inline(always)]
    fn mac(self, w: i8, x: i8) -> Self {
        self.wrapping_add(w as i32 * x as i32)
    }

    /// 32-bit lanes at AVX2 take the even/odd `vpmaddwd` form,
    /// [`MaddSweep`].
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn run_avx2(kernel: LaneKernel<'_, i32>, avx2: Avx2) {
        MaddSweep::run(kernel, avx2)
    }

    /// At AVX2 + AVX-VNNI, the same form with each `vpmaddwd` + `vpaddd`
    /// pair one `vpdpwssd`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn run_avx2_vnni(kernel: LaneKernel<'_, i32>, vnni: Avx2Vnni) {
        MaddSweep::run(kernel, vnni)
    }

    const AVX512: bool = true;

    /// At AVX-512, the same form with each 64-wide block two 32-position
    /// `zmm` groups.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn run_avx512_vnni(kernel: LaneKernel<'_, i32>, avx512: Avx512Vnni) {
        MaddSweep::run(kernel, avx512)
    }
}

impl Lane for i16 {
    #[inline(always)]
    fn mac(self, w: i8, x: i8) -> Self {
        self.wrapping_add(w as i16 * x as i16)
    }
}

/// One pass over a band's prepared tiles — the single tile/row/op walk
/// shared by the batch-major lane kernel, the scalar baseline, the exact
/// bit-serial kernel, and the stats model, so loop-structure changes land
/// once instead of three times.
trait BandVisitor {
    /// Called once per tile in stream order, before the tile's rows.
    fn tile(&mut self, _tile: &PreparedTile) {}
    /// Called per tile row holding a non-empty op list; `start` is the
    /// row's offset into the band's output plane.
    fn row(&mut self, _start: usize, _ops: &[TileOp]) {}
}

#[inline(always)]
fn walk_band<V: BandVisitor>(tiles: &[PreparedTile], row0: usize, l: usize, v: &mut V) {
    for tile in tiles {
        v.tile(tile);
        for local in 0..tile.rows {
            let ops =
                &tile.ops[tile.row_starts[local] as usize..tile.row_starts[local + 1] as usize];
            if ops.is_empty() {
                continue;
            }
            v.row((tile.r0 - row0 + local) * l, ops);
        }
    }
}

/// The batch-major lane kernel: the output row is walked in fixed-size
/// blocks — [`LANE_BLOCK`]-wide first, then [`LANE_BLOCK_SHORT`]-wide over
/// what is left, then position by position — and each block is copied
/// into a register-resident accumulator array that *every op of the row*
/// MACs into before it is stored back: one plane load/store per row
/// instead of one per op. The fixed-size inner loop is plain indexed
/// Rust; which vector instructions it becomes is decided by the function
/// it is inlined into (see [`LaneKernel`]), which is why everything from
/// [`walk_band`] down to [`Lane::mac`] is `#[inline(always)]`.
/// Column-band partial sums accumulate directly in the lanes — per-MAC
/// wrapping commutes with the tile-boundary wrap of the reference path
/// (modular addition is associative) and the op order per lane is the
/// same at every block width, so the result is bit-identical to
/// [`ScalarSweep`] and the seed indexed path.
struct LaneSweep<'a, L: Lane> {
    data: &'a [i8],
    l: usize,
    plane: &'a mut [L],
}

/// The wide block: 64 positions are eight 256-bit registers of `i32`
/// accumulators (four of `i16`), which is what it takes to spread an op's
/// fixed cost — address, two bounds checks, the weight broadcast — thin.
/// Measured on `offline_resnet`'s kernel share: 32 ties with 64 under
/// AVX2, 16 alone gives back a quarter of the gain.
const LANE_BLOCK: usize = 64;

/// The short block, for the `l % 64` positions the wide block leaves
/// (one LeNet image's 49-position plane is three of these and a tail).
const LANE_BLOCK_SHORT: usize = 16;

/// Sweeps `row[from..]` in `W`-wide blocks, every op of the row into each,
/// and returns the first position no whole block covered. `data` is the
/// data matrix, its rows as long as `row`.
#[inline(always)]
fn sweep_blocks<const W: usize, L: Lane>(
    row: &mut [L],
    data: &[i8],
    ops: &[TileOp],
    from: usize,
) -> usize {
    let l = row.len();
    let mut base = from;
    while base + W <= l {
        let a: &mut [L; W] = (&mut row[base..base + W]).try_into().expect("exact block");
        let mut acc = *a;
        for op in ops {
            let b: &[i8; W] =
                data[op.channel as usize * l + base..][..W].try_into().expect("exact block");
            let w = op.weight();
            for i in 0..W {
                acc[i] = acc[i].mac(w, b[i]);
            }
        }
        *a = acc;
        base += W;
    }
    base
}

/// Positions `from..` of `row` that no whole block covered, op by op: the
/// scalar sweep. (A zero-padded block here was measured and is slower — at
/// `l` = 49 the tail is one position.)
#[inline(always)]
fn sweep_tail<L: Lane>(row: &mut [L], data: &[i8], ops: &[TileOp], from: usize) {
    let l = row.len();
    if from < l {
        let tail = &mut row[from..];
        for op in ops {
            let stream = &data[op.channel as usize * l + from..op.channel as usize * l + l];
            for (a, &x) in tail.iter_mut().zip(stream) {
                *a = a.mac(op.weight(), x);
            }
        }
    }
}

impl<L: Lane> BandVisitor for LaneSweep<'_, L> {
    #[inline(always)]
    fn row(&mut self, start: usize, ops: &[TileOp]) {
        let row = &mut self.plane[start..start + self.l];
        let base = sweep_blocks::<LANE_BLOCK, L>(row, self.data, ops, 0);
        let base = sweep_blocks::<LANE_BLOCK_SHORT, L>(row, self.data, ops, base);
        sweep_tail(row, self.data, ops, base);
    }
}

/// The 32-bit lane kernel's AVX2 body: [`LaneSweep`]'s 64-wide blocks and
/// scalar tail, with the 16-wide blocks between them swept as one block of
/// one to three groups (one LeNet image's 49 positions is one 48-wide
/// block and a tail), and each block in **even/odd form**. Per op and per
/// 16 positions, one `vpmovsxbw` widens the data bytes to `i16`;
/// `vpmaddwd` against the broadcast word `[w, 0]` ([`TileOp`]'s stored
/// form) gives `w·x` at the eight even positions as `i32`, and against
/// `[0, w]` (one `vpslld` of it) at the eight odd ones; two `vpaddd` add
/// them into register accumulators that start at zero. Under the
/// [`Avx2Vnni`] token ([`MaddAcc`]) each `vpmaddwd` + `vpaddd` pair is one
/// `vpdpwssd`, which adds the pair's sum into the accumulator with the
/// same wrap (never the saturating `vpdpwssds`). Once per block,
/// `vpunpck{l,h}dq` + `vperm2i128` put the positions back in order and the
/// block goes into the plane: stored in a row group's first tile, added
/// after (see `fresh`), so the plane is never zeroed first. Bit-identical
/// to [`LaneSweep`] for every `i8`, −128 included: each multiply-add has
/// one zero term, `|w·x| ≤ 2¹⁴`, and `i32` adds wrap mod 2³² in any
/// order. Under the [`Avx512Vnni`] token the 64-wide blocks are two
/// 32-position `zmm` groups in the same form (`madd_blocks_zmm`, put back
/// in order by `vpermt2d`), and the 16-wide groups and the tail run as
/// under [`Avx2Vnni`]. Pairing two ops per `vpmaddwd` (their data rows
/// interleaved as `i16`) was measured and is slower.
#[cfg(target_arch = "x86_64")]
struct MaddSweep<'a, T> {
    data: &'a [i8],
    l: usize,
    plane: &'a mut [i32],
    token: T,
    /// The band's first output row: row `r`'s words start at
    /// `(r - row0) * l`.
    row0: usize,
    /// First output row of the tile being swept.
    group: Option<usize>,
    /// The tile is the first of its row group (its column band 0): its
    /// rows' blocks are stored over whatever the plane held instead of
    /// added to it, so the plane needs no zeroing pass.
    fresh: bool,
}

/// The token a [`MaddSweep`] runs under, and the steps that differ
/// between them: `acc + madd_i16(x, w)`, and the [`LANE_BLOCK`]-wide
/// blocks.
#[cfg(target_arch = "x86_64")]
trait MaddAcc: Copy {
    fn avx2(self) -> Avx2;
    fn madd_acc(self, acc: avx2::__m256i, x: avx2::__m256i, w: avx2::__m256i) -> avx2::__m256i;

    /// Sweeps `row` in [`LANE_BLOCK`]-wide blocks and returns the first
    /// position no whole block covered: by default four 16-position groups
    /// each.
    #[inline(always)]
    fn wide_blocks(self, row: &mut [i32], data: &[i8], ops: &[TileOp], fresh: bool) -> usize {
        madd_blocks::<{ LANE_BLOCK / LANE_BLOCK_SHORT }>(self, row, data, ops, 0, fresh)
    }
}

#[cfg(target_arch = "x86_64")]
impl MaddAcc for Avx2 {
    #[inline(always)]
    fn avx2(self) -> Avx2 {
        self
    }

    /// `vpmaddwd` + `vpaddd`.
    #[inline(always)]
    fn madd_acc(self, acc: avx2::__m256i, x: avx2::__m256i, w: avx2::__m256i) -> avx2::__m256i {
        avx2::add_i32(self, acc, avx2::madd_i16(self, x, w))
    }
}

#[cfg(target_arch = "x86_64")]
impl MaddAcc for Avx2Vnni {
    #[inline(always)]
    fn avx2(self) -> Avx2 {
        Avx2Vnni::avx2(self)
    }

    /// `vpdpwssd`.
    #[inline(always)]
    fn madd_acc(self, acc: avx2::__m256i, x: avx2::__m256i, w: avx2::__m256i) -> avx2::__m256i {
        avx2::dpwssd(self, acc, x, w)
    }
}

#[cfg(target_arch = "x86_64")]
impl MaddAcc for Avx512Vnni {
    #[inline(always)]
    fn avx2(self) -> Avx2 {
        Avx512Vnni::avx2(self)
    }

    /// `vpdpwssd`, on `ymm` registers: the 16-wide groups keep their
    /// AVX-VNNI body.
    #[inline(always)]
    fn madd_acc(self, acc: avx2::__m256i, x: avx2::__m256i, w: avx2::__m256i) -> avx2::__m256i {
        avx2::dpwssd(self.avx2_vnni(), acc, x, w)
    }

    #[inline(always)]
    fn wide_blocks(self, row: &mut [i32], data: &[i8], ops: &[TileOp], fresh: bool) -> usize {
        madd_blocks_zmm(self, row, data, ops, fresh)
    }
}

#[cfg(target_arch = "x86_64")]
impl<T: MaddAcc> MaddSweep<'_, T> {
    /// The lane kernel's band, swept under `token`.
    #[inline(always)]
    fn run(kernel: LaneKernel<'_, i32>, token: T) {
        let LaneKernel { tiles, row0, sweep: LaneSweep { data, l, plane } } = kernel;
        if tiles.is_empty() {
            plane.fill(0);
        }
        let mut sweep = MaddSweep { data, l, plane, token, row0, group: None, fresh: false };
        walk_band(tiles, row0, l, &mut sweep);
    }
}

/// Sweeps `row[from..]` in blocks of `G` sixteen-position groups, every op
/// of the row into each, and returns the first position no whole block
/// covered — [`sweep_blocks`] in even/odd form.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn madd_blocks<const G: usize>(
    token: impl MaddAcc,
    row: &mut [i32],
    data: &[i8],
    ops: &[TileOp],
    from: usize,
    fresh: bool,
) -> usize {
    let t = token.avx2();
    let l = row.len();
    let width = 16 * G;
    let mut base = from;
    while base + width <= l {
        let mut even = [avx2::zero(t); G];
        let mut odd = [avx2::zero(t); G];
        for op in ops {
            let w_even = avx2::broadcast_i32(t, &op.word);
            let w_odd = avx2::shl_i32::<16>(t, w_even);
            let b = &data[op.channel as usize * l + base..][..width];
            for g in 0..G {
                let x = avx2::widen_i8x16(t, &b[16 * g..]);
                even[g] = token.madd_acc(even[g], x, w_even);
                odd[g] = token.madd_acc(odd[g], x, w_odd);
            }
        }
        for g in 0..G {
            // Per 128-bit half: positions [0..4 | 8..12] and [4..8 | 12..16].
            let lo = avx2::unpack_lo_i32(t, even[g], odd[g]);
            let hi = avx2::unpack_hi_i32(t, even[g], odd[g]);
            let halves =
                [avx2::permute2x128::<0x20>(t, lo, hi), avx2::permute2x128::<0x31>(t, lo, hi)];
            for (out, half) in row[base + 16 * g..][..16].chunks_exact_mut(8).zip(halves) {
                let sum =
                    if fresh { half } else { avx2::add_i32(t, avx2::load_i32x8(t, out), half) };
                avx2::store_i32x8(t, out, sum);
            }
        }
        base += width;
    }
    base
}

/// [`madd_blocks`] over [`LANE_BLOCK`]-wide blocks at AVX-512: each block
/// is two 32-position groups of `zmm` registers. Per op, one
/// `vpbroadcastd` and one `vpslld` make the `[w, 0]` and `[0, w]` words;
/// per group, one `vpmovsxbw` widens 32 data bytes and two `vpdpwssd` add
/// `w·x` at the group's 16 even and 16 odd positions into its
/// accumulators. Alternate ops go into two sets of accumulators, added
/// once per block: four `vpdpwssd` chains alone wait on the instruction's
/// latency, eight keep it issuing (wrapping adds may be regrouped). Once
/// per block, one `vpermt2d` per 16 words interleaves even and odd back
/// into position order.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn madd_blocks_zmm(
    t: Avx512Vnni,
    row: &mut [i32],
    data: &[i8],
    ops: &[TileOp],
    fresh: bool,
) -> usize {
    // Index `k` picks `even`'s lane `k`, `16 + k` `odd`'s lane `k`.
    let low = avx512::load_i32x16(t, &[0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23]);
    let high =
        avx512::load_i32x16(t, &[8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31]);
    let l = row.len();
    let mut base = 0;
    while base + LANE_BLOCK <= l {
        let block = |op: &TileOp| &data[op.channel as usize * l + base..][..LANE_BLOCK];
        let mut sets = [[[avx512::zero(t); 2]; ZMM_GROUPS]; 2];
        let pairs = ops.chunks_exact(2);
        let last = pairs.remainder();
        for pair in pairs {
            madd_op_zmm(t, &mut sets[0], &pair[0], block(&pair[0]));
            madd_op_zmm(t, &mut sets[1], &pair[1], block(&pair[1]));
        }
        for op in last {
            madd_op_zmm(t, &mut sets[0], op, block(op));
        }
        for g in 0..ZMM_GROUPS {
            let even = avx512::add_i32(t, sets[0][g][0], sets[1][g][0]);
            let odd = avx512::add_i32(t, sets[0][g][1], sets[1][g][1]);
            let halves =
                [avx512::permute2_i32(t, even, low, odd), avx512::permute2_i32(t, even, high, odd)];
            for (out, half) in row[base + 32 * g..][..32].chunks_exact_mut(16).zip(halves) {
                let sum = if fresh {
                    half
                } else {
                    avx512::add_i32(t, avx512::load_i32x16(t, out), half)
                };
                avx512::store_i32x16(t, out, sum);
            }
        }
        base += LANE_BLOCK;
    }
    base
}

/// The 32-position `zmm` groups of a [`LANE_BLOCK`]-wide block.
#[cfg(target_arch = "x86_64")]
const ZMM_GROUPS: usize = LANE_BLOCK / 32;

/// One op of a [`madd_blocks_zmm`] block: `b` is the op's 64 data bytes,
/// `acc[g]` group `g`'s even and odd accumulators.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn madd_op_zmm(
    t: Avx512Vnni,
    acc: &mut [[avx512::__m512i; 2]; ZMM_GROUPS],
    op: &TileOp,
    b: &[i8],
) {
    let w_even = avx512::broadcast_i32(t, &op.word);
    let w_odd = avx512::shl_i32::<16>(t, w_even);
    for (g, [even, odd]) in acc.iter_mut().enumerate() {
        let x = avx512::widen_i8x32(t, &b[32 * g..]);
        *even = avx512::dpwssd(t, *even, x, w_even);
        *odd = avx512::dpwssd(t, *odd, x, w_odd);
    }
}

#[cfg(target_arch = "x86_64")]
impl<T: MaddAcc> BandVisitor for MaddSweep<'_, T> {
    #[inline(always)]
    fn tile(&mut self, tile: &PreparedTile) {
        self.fresh = self.group != Some(tile.r0);
        if self.fresh {
            self.group = Some(tile.r0);
            // A row the group's first tile has no op for gets no store.
            for local in 0..tile.rows {
                if tile.row_starts[local] == tile.row_starts[local + 1] {
                    let start = (tile.r0 - self.row0 + local) * self.l;
                    self.plane[start..start + self.l].fill(0);
                }
            }
        }
    }

    #[inline(always)]
    fn row(&mut self, start: usize, ops: &[TileOp]) {
        let (t, fresh) = (self.token, self.fresh);
        let row = &mut self.plane[start..start + self.l];
        let base = t.wide_blocks(row, self.data, ops, fresh);
        // What the wide blocks leave is under 64 positions: its whole
        // 16-groups go in one pass, so each op is broadcast once, not once
        // per group.
        let base = match (row.len() - base) / LANE_BLOCK_SHORT {
            3 => madd_blocks::<3>(t, row, self.data, ops, base, fresh),
            2 => madd_blocks::<2>(t, row, self.data, ops, base, fresh),
            1 => madd_blocks::<1>(t, row, self.data, ops, base, fresh),
            _ => base,
        };
        if fresh {
            row[base..].fill(0);
        }
        sweep_tail(row, self.data, ops, base);
    }
}

/// The PR 4 scalar op-list kernel, kept verbatim: one op at a time, one
/// position at a time. The live baseline the lane kernel is benchmarked
/// and property-tested against.
struct ScalarSweep<'a, L: Lane> {
    data: &'a [i8],
    l: usize,
    plane: &'a mut [L],
}

impl<L: Lane> BandVisitor for ScalarSweep<'_, L> {
    fn row(&mut self, start: usize, ops: &[TileOp]) {
        let l = self.l;
        let row = &mut self.plane[start..start + l];
        for op in ops {
            let stream = &self.data[op.channel as usize * l..op.channel as usize * l + l];
            for (acc, &x) in row.iter_mut().zip(stream) {
                *acc = acc.mac(op.weight(), x);
            }
        }
    }
}

/// The validation kernel: identical sweep, but every MAC runs the
/// bit-level datapath ([`BitSerialMac`]) on the output plane directly (the
/// datapath's wrapped `i64` result fits the plane's `i32` words).
struct ExactSweep<'a> {
    data: &'a [i8],
    l: usize,
    acc: AccumWidth,
    out: &'a mut [i32],
}

impl BandVisitor for ExactSweep<'_> {
    fn row(&mut self, start: usize, ops: &[TileOp]) {
        let l = self.l;
        let row = &mut self.out[start..start + l];
        for op in ops {
            let mac = BitSerialMac::new(op.weight(), self.acc);
            let stream = &self.data[op.channel as usize * l..op.channel as usize * l + l];
            for (y, &x) in row.iter_mut().zip(stream) {
                *y = mac.run(x, i64::from(*y)).0 as i32;
            }
        }
    }
}

/// Runs one of the native-lane kernels over a band's plane, whatever it
/// held before: the batch-major kernel at `level`, or the scalar baseline
/// for `None`.
fn sweep_lanes<L: Lane>(
    tiles: &[PreparedTile],
    row0: usize,
    data: &[i8],
    l: usize,
    plane: &mut [L],
    level: Option<Level>,
) {
    match level {
        None => {
            plane.fill(L::default());
            walk_band(tiles, row0, l, &mut ScalarSweep { data, l, plane });
        }
        Some(level) => {
            isa::run_at(level, LaneKernel { tiles, row0, sweep: LaneSweep { data, l, plane } })
        }
    }
}

/// The batch-major kernel as the one body [`cc_tensor::isa`] compiles per
/// vector level: `walk_band` over a [`LaneSweep`], inlined whole into the
/// dispatch's baseline and AVX2 callers — same safe Rust, same lane order,
/// 128- or 256-bit instructions — or, for 32-bit lanes, [`MaddSweep`] at
/// the AVX2, AVX-VNNI and AVX-512 levels.
struct LaneKernel<'a, L: Lane> {
    tiles: &'a [PreparedTile],
    row0: usize,
    sweep: LaneSweep<'a, L>,
}

impl<L: Lane> Kernel for LaneKernel<'_, L> {
    type Out = ();

    #[inline(always)]
    fn run(mut self) {
        self.sweep.plane.fill(L::default());
        walk_band(self.tiles, self.row0, self.sweep.l, &mut self.sweep);
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn run_avx2(self, avx2: Avx2) {
        L::run_avx2(self, avx2)
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn run_avx2_vnni(self, vnni: Avx2Vnni) {
        L::run_avx2_vnni(self, vnni)
    }

    const AVX512: bool = L::AVX512;

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn run_avx512_vnni(self, avx512: Avx512Vnni) {
        L::run_avx512_vnni(self, avx512)
    }
}

/// The vector level every dispatched block — the lane kernel here, the
/// deployed engine's quantizer, residual add and pools — runs at on this
/// CPU: `"avx512+vnni"` (the lane kernel's 64-wide blocks and the
/// epilogue's and residual add's requantizer on `zmm` registers, every
/// other block as at `"avx2+vnni"`), `"avx2+vnni"` (the lane kernel's
/// multiply-adds in AVX-VNNI, every other block at AVX2), `"avx2"` or
/// `"baseline"` (whatever the build targets — SSE2 on x86-64). A host
/// ns/MAC figure means nothing across boxes without it.
pub fn lane_isa() -> &'static str {
    Level::detect().name()
}

/// Streams the overlap cycle model over a band's tiles as re-tiled for an
/// [`ArrayGeometry`]: each prepared tile splits into `geom`-sized physical
/// tiles (row-major), every physical tile feeding the load/compute overlap
/// chain. When `geom` equals the preparing config's geometry each prepared
/// tile is exactly one physical tile, reproducing the base model. The op
/// counters stay per-prepared-tile (the work is geometry-independent)
/// except `input_words`, which re-streams a tile's channels once per
/// physical row chunk, and `load_cycles`, which sums the physical loads.
struct GeomStats {
    geom: ArrayGeometry,
    acc: AccumWidth,
    l: usize,
    cycles: u64,
    prev_compute: u64,
    any: bool,
    statics: PreparedStatics,
}

impl GeomStats {
    fn new(geom: ArrayGeometry, acc: AccumWidth, l: usize) -> Self {
        GeomStats {
            geom,
            acc,
            l,
            cycles: 0,
            prev_compute: 0,
            any: false,
            statics: PreparedStatics::default(),
        }
    }

    /// Feeds one physical tile into the overlap chain: the first load is
    /// exposed, afterwards each step costs `max(prev compute, this load)`.
    fn physical_tile(&mut self, rows: usize, cols: usize) {
        let load = self.geom.weight_load_cycles(rows, cols);
        let compute = self.geom.compute_cycles(self.acc, rows, cols, self.l);
        if self.any {
            self.cycles += self.prev_compute.max(load);
        } else {
            self.cycles += load;
            self.any = true;
        }
        self.prev_compute = compute;
        self.statics.load_cycles += load;
    }

    /// Closes the chain (the last compute is fully exposed) and assembles
    /// the [`SimStats`].
    fn finish(mut self) -> SimStats {
        self.cycles += self.prev_compute;
        let l = self.l as u64;
        SimStats {
            cycles: self.cycles,
            load_cycles: self.statics.load_cycles,
            mac_ops: self.statics.nonzero_cells * l,
            cell_word_slots: self.statics.cell_slots * l,
            input_words: self.statics.streamed_channels * l,
            output_words: self.statics.output_rows * l,
        }
    }
}

impl BandVisitor for GeomStats {
    fn tile(&mut self, tile: &PreparedTile) {
        let (gr, gc) = (self.geom.rows.max(1), self.geom.cols.max(1));
        let row_chunks = tile.rows.div_ceil(gr) as u64;
        for r0 in (0..tile.rows).step_by(gr) {
            let rows = gr.min(tile.rows - r0);
            for c0 in (0..tile.groups).step_by(gc) {
                let cols = gc.min(tile.groups - c0);
                self.physical_tile(rows, cols);
            }
        }
        self.statics.nonzero_cells += tile.ops.len() as u64;
        self.statics.cell_slots += (tile.rows * tile.groups) as u64;
        self.statics.streamed_channels += tile.streamed_channels * row_chunks;
        self.statics.output_rows += tile.rows as u64;
    }
}

/// [`SimStats`] of one array streaming `tiles` back to back against an
/// `l`-column data matrix: the overlap cycle model over the subsequence
/// plus the tiles' summed static counters. Over a full partition's bands
/// everything except `cycles` sums exactly to the unsharded run's stats
/// (the counters are per-tile sums); `cycles` is each band's own makespan.
fn band_stats(tiles: &[PreparedTile], cfg: ArrayConfig, l: usize) -> SimStats {
    band_stats_geom(tiles, cfg.geometry(), cfg.acc, l)
}

/// [`band_stats`] under an arbitrary [`ArrayGeometry`] (see [`GeomStats`]
/// for the re-tiling model).
fn band_stats_geom(
    tiles: &[PreparedTile],
    geom: ArrayGeometry,
    acc: AccumWidth,
    l: usize,
) -> SimStats {
    let row0 = tiles.first().map_or(0, |t| t.r0);
    let mut v = GeomStats::new(geom, acc, l);
    walk_band(tiles, row0, l, &mut v);
    v.finish()
}

/// Total cycles with weight-load / compute overlap: the first load is
/// exposed; afterwards each step costs `max(compute_i, load_{i+1})`, and the
/// last tile's compute is fully exposed.
fn overlapped_cycles(tiles: &[(u64, u64)]) -> u64 {
    if tiles.is_empty() {
        return 0;
    }
    let mut total = tiles[0].0; // first load exposed
    for i in 0..tiles.len() {
        let compute = tiles[i].1;
        let next_load = tiles.get(i + 1).map_or(0, |t| t.0);
        total += compute.max(next_load);
    }
    total
}

fn accumulate(
    outputs: &mut [i64],
    tile_out: &[i64],
    r0: usize,
    r1: usize,
    l: usize,
    cfg: ArrayConfig,
) {
    for (ri, r) in (r0..r1).enumerate() {
        for j in 0..l {
            let idx = r * l + j;
            outputs[idx] = cfg.acc.wrap(outputs[idx] + tile_out[ri * l + j]);
        }
    }
}

fn slice_quant(m: &QuantMatrix, r0: usize, r1: usize, c0: usize, c1: usize) -> QuantMatrix {
    let mut data = Vec::with_capacity((r1 - r0) * (c1 - c0));
    for r in r0..r1 {
        for c in c0..c1 {
            data.push(m.get(r, c));
        }
    }
    QuantMatrix::from_raw(r1 - r0, c1 - c0, data, m.params())
}

fn slice_packed(p: &QuantPacked, r0: usize, r1: usize, g0: usize, g1: usize) -> QuantPacked {
    let mut weights = Vec::with_capacity((r1 - r0) * (g1 - g0));
    let mut channels = Vec::with_capacity(weights.capacity());
    for r in r0..r1 {
        for g in g0..g1 {
            weights.push(p.weight_at(r, g));
            channels.push(p.channel_at(r, g));
        }
    }
    QuantPacked::from_raw(
        r1 - r0,
        g1 - g0,
        p.original_cols(),
        weights,
        channels,
        p.params(),
        p.max_group_size(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_packing::{group_columns, pack_columns, GroupingConfig};
    use cc_tensor::init::sparse_matrix;
    use cc_tensor::quant::{quant_matmul, AccumWidth, QuantParams};

    fn cfg32() -> ArrayConfig {
        ArrayConfig::new(32, 32, AccumWidth::Bits32)
    }

    fn packed_fixture(rows: usize, cols: usize, density: f64, seed: u64) -> QuantPacked {
        let f = sparse_matrix(rows, cols, density, seed);
        let groups = group_columns(&f, &GroupingConfig::paper_default());
        QuantPacked::quantize(&pack_columns(&f, &groups))
    }

    #[test]
    fn tiled_unpacked_matches_reference() {
        let w = QuantMatrix::quantize(&sparse_matrix(96, 94, 0.16, 1));
        let d = QuantMatrix::quantize(&sparse_matrix(94, 20, 1.0, 2));
        let run = TiledScheduler::new(cfg32()).run_unpacked(&w, &d);
        assert_eq!(run.tiles, 9); // Fig. 14a
        assert_eq!(run.outputs, quant_matmul(&w, &d, AccumWidth::Bits32));
    }

    #[test]
    fn tiled_packed_matches_reference_and_reduces_tiles() {
        let f = sparse_matrix(96, 94, 0.16, 3);
        let groups = group_columns(&f, &GroupingConfig::paper_default());
        let packed = pack_columns(&f, &groups);
        let params = QuantParams::calibrate(f.as_slice());
        let qp = QuantPacked::quantize_with(&packed, params);
        let q_pruned = QuantMatrix::quantize_with(&packed.unpack(), params);
        let d = QuantMatrix::quantize(&sparse_matrix(94, 20, 1.0, 4));

        let sched = TiledScheduler::new(cfg32());
        let run = sched.run_packed(&qp, &d);
        assert_eq!(run.outputs, quant_matmul(&q_pruned, &d, AccumWidth::Bits32));

        let unpacked_run = sched.run_unpacked(&QuantMatrix::quantize_with(&f, params), &d);
        assert!(
            run.tiles * 2 <= unpacked_run.tiles,
            "packing should cut tiles: {} vs {}",
            run.tiles,
            unpacked_run.tiles
        );
        assert!(run.stats.cycles < unpacked_run.stats.cycles);
    }

    #[test]
    fn prepared_tiles_match_per_call_slicing() {
        let qp = packed_fixture(96, 94, 0.16, 11);
        let sched = TiledScheduler::new(cfg32());
        let prepared = sched.prepare_packed(&qp);

        for seed in [12u64, 13, 14] {
            let d = QuantMatrix::quantize(&sparse_matrix(94, 20, 1.0, seed));
            let fresh = sched.run_packed_reference(&qp, &d);
            let reused = sched.run_prepared(&prepared, &d);
            assert_eq!(fresh, reused, "prepared run must be bit-identical");
        }
        assert_eq!(
            prepared.num_tiles(),
            sched.run_packed(&qp, &QuantMatrix::quantize(&sparse_matrix(94, 4, 1.0, 15))).tiles
        );
        assert_eq!(prepared.rows(), 96);
        assert_eq!(prepared.original_cols(), 94);
        // Tiles cover the packed matrix exactly once, so the load volume is
        // the full matrix's weight-slot count.
        assert_eq!(prepared.load_words(), (prepared.rows() * prepared.groups()) as u64);
    }

    /// The allocation-free kernel must be bit-identical (outputs *and*
    /// stats) to the seed indexed path across accumulator widths, cell
    /// kinds, and the exact-bitserial datapath — with one scratch reused
    /// across every call.
    #[test]
    fn scratch_kernel_is_bit_identical_across_configs() {
        let qp = packed_fixture(70, 66, 0.2, 21);
        let mut scratch = RunScratch::new();
        for acc in [AccumWidth::Bits16, AccumWidth::Bits32] {
            for cell in [CellKind::Interleaved, CellKind::Multiplexed { mux_width: 8 }] {
                for exact in [false, true] {
                    let cfg = ArrayConfig { rows: 24, cols: 24, acc, cell, exact_bitserial: exact };
                    let sched = TiledScheduler::new(cfg);
                    let prepared = sched.prepare_packed(&qp);
                    for seed in [31u64, 32] {
                        let d = QuantMatrix::quantize(&sparse_matrix(66, 9, 1.0, seed));
                        let reference = sched.run_packed_reference(&qp, &d);
                        let stats = sched.run_prepared_with(&prepared, &d, &mut scratch);
                        let outputs: Vec<i64> =
                            scratch.outputs().iter().map(|&o| i64::from(o)).collect();
                        assert_eq!(
                            outputs, reference.outputs,
                            "outputs diverged: acc {acc:?} cell {cell:?} exact {exact}"
                        );
                        assert_eq!(
                            stats, reference.stats,
                            "stats diverged: acc {acc:?} cell {cell:?} exact {exact}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prepared_statics_count_the_op_list() {
        let qp = packed_fixture(40, 40, 0.3, 23);
        let prepared = TiledScheduler::new(cfg32()).prepare_packed(&qp);
        assert_eq!(prepared.nonzero_cells(), qp.count_nonzero() as u64);
    }

    #[test]
    fn scratch_take_outputs_leaves_reusable_scratch() {
        let qp = packed_fixture(20, 18, 0.4, 25);
        let sched = TiledScheduler::new(cfg32());
        let prepared = sched.prepare_packed(&qp);
        let d = QuantMatrix::quantize(&sparse_matrix(18, 5, 1.0, 26));
        let mut scratch = RunScratch::new();
        sched.run_prepared_with(&prepared, &d, &mut scratch);
        let first = scratch.take_outputs();
        assert_eq!(first.len(), 20 * 5);
        sched.run_prepared_with(&prepared, &d, &mut scratch);
        assert_eq!(scratch.outputs(), &first[..], "reused scratch must reproduce the run");
    }

    #[test]
    #[should_panic(expected = "prepared for a different array")]
    fn prepared_tiles_reject_foreign_config() {
        let qp = packed_fixture(40, 40, 0.3, 16);
        let prepared = TiledScheduler::new(cfg32()).prepare_packed(&qp);
        let other = TiledScheduler::new(ArrayConfig::new(16, 16, AccumWidth::Bits32));
        let d = QuantMatrix::quantize(&sparse_matrix(40, 4, 1.0, 17));
        other.run_prepared(&prepared, &d);
    }

    #[test]
    #[should_panic(expected = "mux width")]
    fn prepare_rejects_oversized_groups() {
        let f = sparse_matrix(16, 16, 0.1, 27);
        let groups = group_columns(&f, &GroupingConfig::new(4, 1.0));
        let packed = pack_columns(&f, &groups);
        assert!(packed.groups().max_group_size() > 2);
        let qp = QuantPacked::quantize(&packed);
        let cfg = ArrayConfig::new(32, 32, AccumWidth::Bits32)
            .with_cell(CellKind::Multiplexed { mux_width: 2 });
        TiledScheduler::new(cfg).prepare_packed(&qp);
    }

    #[test]
    fn single_tile_fast_path() {
        let w = QuantMatrix::quantize(&sparse_matrix(16, 16, 0.5, 5));
        let d = QuantMatrix::quantize(&sparse_matrix(16, 8, 1.0, 6));
        let run = TiledScheduler::new(cfg32()).run_unpacked(&w, &d);
        assert_eq!(run.tiles, 1);
    }

    #[test]
    fn overlap_model_bounds() {
        // cycles must be ≥ sum of computes + first load, and ≤ naive sum.
        let tiles = vec![(10u64, 100u64), (10, 100), (10, 5)];
        let c = overlapped_cycles(&tiles);
        assert!(c >= 10 + 100 + 100 + 5);
        assert!(c <= 30 + 205);
        assert_eq!(overlapped_cycles(&[]), 0);
    }

    #[test]
    fn column_band_partials_accumulate_with_wrap() {
        // Force 16-bit accumulation overflow across column bands and check
        // the wrap matches the monolithic reference.
        let w = QuantMatrix::quantize_with(
            &sparse_matrix(4, 64, 1.0, 7),
            QuantParams::from_max_abs(1.0),
        );
        let d = QuantMatrix::quantize_with(
            &sparse_matrix(64, 3, 1.0, 8),
            QuantParams::from_max_abs(1.0),
        );
        let cfg = ArrayConfig::new(4, 16, AccumWidth::Bits16);
        let run = TiledScheduler::new(cfg).run_unpacked(&w, &d);
        assert_eq!(run.outputs, quant_matmul(&w, &d, AccumWidth::Bits16));
        assert_eq!(run.tiles, 4);
    }

    /// Row-band shards must reproduce the unsharded run exactly: the
    /// gathered output plane bit for bit, the op counters and load cycles
    /// by exact summation, and each band's makespan bounded by the
    /// sequential run.
    #[test]
    fn row_band_scatter_gather_is_bit_identical() {
        let qp = packed_fixture(100, 60, 0.25, 33);
        for cell in [CellKind::Interleaved, CellKind::Multiplexed { mux_width: 8 }] {
            for exact in [false, true] {
                let cfg = ArrayConfig {
                    rows: 16,
                    cols: 24,
                    acc: AccumWidth::Bits32,
                    cell,
                    exact_bitserial: exact,
                };
                let sched = TiledScheduler::new(cfg);
                let prepared = sched.prepare_packed(&qp);
                let d = QuantMatrix::quantize(&sparse_matrix(60, 7, 1.0, 34));
                let mut reference = RunScratch::new();
                let ref_stats = sched.run_prepared_with(&prepared, &d, &mut reference);

                for shards in 1..=4 {
                    let plan = prepared.partition_row_bands(shards);
                    assert!(plan.len() <= shards);
                    let mut primary = RunScratch::new();
                    let mut aux = vec![RunScratch::new(); plan.len().saturating_sub(1)];
                    let mut stats = vec![SimStats::default(); plan.len()];
                    let mut busy = vec![0u64; plan.len()];
                    sched.run_bands_with(
                        &prepared, &plan, &d, &mut primary, &mut aux, &mut stats, &mut busy,
                    );
                    assert_eq!(
                        primary.outputs(),
                        reference.outputs(),
                        "gathered plane diverged at {shards} shards (exact={exact})"
                    );
                    let mut summed = SimStats::default();
                    for s in &stats {
                        summed.merge(s);
                        assert!(s.cycles <= ref_stats.cycles, "a band outran the full run");
                    }
                    // Work is conserved exactly; only cycles redistribute.
                    assert_eq!(summed.mac_ops, ref_stats.mac_ops);
                    assert_eq!(summed.cell_word_slots, ref_stats.cell_word_slots);
                    assert_eq!(summed.input_words, ref_stats.input_words);
                    assert_eq!(summed.output_words, ref_stats.output_words);
                    assert_eq!(summed.load_cycles, ref_stats.load_cycles);
                    assert!(busy.iter().all(|&b| b > 0), "every band must record busy time");
                }
            }
        }
    }

    /// The batch-major lane sweep must be bit-identical (outputs and
    /// stats) to the scalar op-list baseline at every batch width,
    /// including the remainder widths around both block sizes.
    #[test]
    fn lane_kernel_matches_scalar_baseline_at_every_width() {
        let qp = packed_fixture(70, 66, 0.2, 41);
        for acc in [AccumWidth::Bits16, AccumWidth::Bits32] {
            let sched = TiledScheduler::new(ArrayConfig::new(24, 24, acc));
            let prepared = sched.prepare_packed(&qp);
            let mut lane = RunScratch::new();
            let mut scalar = RunScratch::new();
            for l in [1usize, 3, 8, 15, 16, 17, 33, 49, 63, 64, 65, 80, 129, 200, 392] {
                let d = QuantMatrix::quantize(&sparse_matrix(66, l, 1.0, 42 + l as u64));
                let ls = sched.run_prepared_with(&prepared, &d, &mut lane);
                let ss = sched.run_prepared_scalar_with(&prepared, &d, &mut scalar);
                assert_eq!(lane.outputs(), scalar.outputs(), "outputs diverged at l={l}");
                assert_eq!(ls, ss, "stats diverged at l={l}");
            }
        }
    }

    /// Runs `plan` band by band on the calling thread with the lane kernel
    /// at `isa` (`None`: the scalar baseline) and returns the gathered
    /// plane and each band's stats.
    fn run_plan_at(
        sched: &TiledScheduler,
        prepared: &PreparedPacked,
        plan: &[RowBand],
        d: &QuantMatrix,
        isa: Option<Level>,
    ) -> (Vec<i32>, Vec<SimStats>) {
        let l = d.cols();
        // Not zeros: a kernel must write every word of its band's rows.
        let mut out = vec![0x5a5a_5a5a; prepared.rows * l];
        let mut scratch = RunScratch::new();
        let stats = plan
            .iter()
            .map(|band| {
                let rows = &mut out[band.rows.start * l..band.rows.end * l];
                let geom = sched.cfg.geometry();
                sched.run_band_kernel(prepared, band, geom, d, rows, &mut scratch, isa)
            })
            .collect();
        (out, stats)
    }

    /// `lane_isa` names the level the dispatch picks (the levels themselves
    /// are tested in `cc_tensor::isa`).
    #[test]
    fn detected_level_is_available_and_baseline_always_is() {
        assert_eq!(lane_isa(), Level::detect().name());
    }

    /// Every compilation of the lane kernel this CPU can run — not only
    /// the one `detect` picks — against the scalar baseline and the `i64`
    /// GEMM oracle, outputs and stats, at stream lengths on both sides of
    /// both block widths and over one to three bands. A box with AVX2
    /// checks both arms, a box without checks one.
    #[test]
    fn every_available_level_matches_scalar_and_the_gemm_oracle() {
        let f = sparse_matrix(70, 66, 0.2, 55);
        let packed = pack_columns(&f, &group_columns(&f, &GroupingConfig::paper_default()));
        let params = QuantParams::calibrate(f.as_slice());
        let qp = QuantPacked::quantize_with(&packed, params);
        let pruned = QuantMatrix::quantize_with(&packed.unpack(), params);
        for acc in [AccumWidth::Bits16, AccumWidth::Bits32] {
            let sched = TiledScheduler::new(ArrayConfig::new(24, 24, acc));
            let prepared = sched.prepare_packed(&qp);
            let widths = [1usize, 3, 15, 16, 17, 33, 49, 63, 64, 65, 80, 96, 113, 128, 129, 200];
            for l in widths.into_iter().chain([241, 392]) {
                let d = QuantMatrix::quantize(&sparse_matrix(66, l, 1.0, 56 + l as u64));
                let oracle: Vec<i32> =
                    quant_matmul(&pruned, &d, acc).into_iter().map(|o| o as i32).collect();
                let reference = sched.run_packed_reference(&qp, &d).stats;
                for bands in 1..=3 {
                    let plan = prepared.partition_row_bands(bands);
                    assert_eq!(plan.len(), bands);
                    let scalar = run_plan_at(&sched, &prepared, &plan, &d, None);
                    assert_eq!(scalar.0, oracle, "scalar {acc:?} l={l} bands={bands}");
                    if bands == 1 {
                        assert_eq!(scalar.1, [reference], "scalar stats {acc:?} l={l}");
                    }
                    for isa in Level::available() {
                        assert_eq!(
                            run_plan_at(&sched, &prepared, &plan, &d, Some(isa)),
                            scalar,
                            "{} {acc:?} l={l} bands={bands}",
                            isa.name()
                        );
                    }
                }
            }
        }
    }

    /// −128 × −128 = 2¹⁴ is the one product that needs all fifteen bits,
    /// and two of them overflow a 16-bit lane: every level must wrap where
    /// the `i64` oracle's per-MAC wrap does (42 of them land on `i16::MIN`).
    #[test]
    fn every_available_level_wraps_extreme_products_alike() {
        let (rows, cols, l) = (3, 42, 64);
        let params = QuantParams::from_max_abs(1.0);
        let w = QuantMatrix::from_raw(rows, cols, vec![-128; rows * cols], params);
        let qp = QuantPacked::from_raw(
            rows,
            cols,
            cols,
            vec![-128; rows * cols],
            (0..rows).flat_map(|_| (0..cols).map(Some)).collect(),
            params,
            1,
        );
        let d = QuantMatrix::from_raw(cols, l, vec![-128; cols * l], params);
        for (acc, want) in
            [(AccumWidth::Bits16, i32::from(i16::MIN)), (AccumWidth::Bits32, 42 << 14)]
        {
            let sched = TiledScheduler::new(ArrayConfig::new(4, 16, acc));
            let prepared = sched.prepare_packed(&qp);
            let oracle: Vec<i32> =
                quant_matmul(&w, &d, acc).into_iter().map(|o| o as i32).collect();
            assert!(oracle.iter().all(|&o| o == want), "{acc:?}: oracle is not {want}");
            for isa in Level::available() {
                let (got, _) =
                    run_plan_at(&sched, &prepared, &[prepared.full_band()], &d, Some(isa));
                assert_eq!(got, oracle, "{} {acc:?}", isa.name());
            }
        }
    }

    /// Uniform data hides a position permutation, so here the data
    /// alternates −128 / 127 by position and the weights alternate sign by
    /// channel (−128 and 127 among them): an even/odd swap or a misplaced
    /// half in the AVX2 kernel's reordering changes every word. The widths
    /// cover one 16-block, one LeNet image (49: three blocks and a tail),
    /// one wide block, a wide block and a tail, a wide block followed by
    /// 16-groups with and without a tail (96, 113, 241), two wide blocks,
    /// and a LeNet batch of 8.
    /// The array's 16 columns split the 42 channels into three column
    /// tiles.
    #[test]
    fn every_available_level_keeps_alternating_positions_in_order() {
        let (rows, cols) = (5, 42);
        let params = QuantParams::from_max_abs(1.0);
        // Row 1 has no op in the first column tile and row 3 none at all:
        // their words must still come out zero, not what the plane held.
        let weight = |r: usize, c: usize| match (r, c) {
            (1, 0..16) | (3, _) => 0,
            _ if c.is_multiple_of(2) => 127 - r as i8,
            _ => -128 + r as i8,
        };
        let weights: Vec<i8> =
            (0..rows).flat_map(|r| (0..cols).map(move |c| weight(r, c))).collect();
        let w = QuantMatrix::from_raw(rows, cols, weights.clone(), params);
        let qp = QuantPacked::from_raw(
            rows,
            cols,
            cols,
            weights,
            (0..rows).flat_map(|_| (0..cols).map(Some)).collect(),
            params,
            1,
        );
        let sched = TiledScheduler::new(ArrayConfig::new(4, 16, AccumWidth::Bits32));
        let prepared = sched.prepare_packed(&qp);
        for l in [16usize, 49, 64, 65, 96, 113, 128, 241, 392] {
            let data = (0..cols).flat_map(|_| (0..l).map(|p| if p.is_multiple_of(2) { -128 } else { 127 }));
            let d = QuantMatrix::from_raw(cols, l, data.collect(), params);
            let oracle: Vec<i32> =
                quant_matmul(&w, &d, AccumWidth::Bits32).into_iter().map(|o| o as i32).collect();
            for isa in Level::available() {
                let (got, _) =
                    run_plan_at(&sched, &prepared, &[prepared.full_band()], &d, Some(isa));
                assert_eq!(got, oracle, "{} l={l}", isa.name());
            }
        }
    }

    /// A matrix whose columns all pruned away has no tiles at all: every
    /// level must still hand back zeros, not what the plane held.
    #[test]
    fn every_available_level_zeroes_a_matrix_without_tiles() {
        let params = QuantParams::from_max_abs(1.0);
        let qp = QuantPacked::from_raw(3, 0, 4, vec![], vec![], params, 1);
        let sched = TiledScheduler::new(cfg32());
        let prepared = sched.prepare_packed(&qp);
        assert_eq!(prepared.num_tiles(), 0);
        let d = QuantMatrix::from_raw(4, 49, vec![7; 4 * 49], params);
        for isa in [None].into_iter().chain(Level::available().into_iter().map(Some)) {
            let (got, _) = run_plan_at(&sched, &prepared, &[prepared.full_band()], &d, isa);
            assert_eq!(got, vec![0; 3 * 49], "{isa:?}");
        }
    }

    /// A geometry equal to the preparing config must reproduce the base
    /// stats model exactly; a strictly smaller geometry re-tiles, paying
    /// more loads and more cycles, without touching the outputs.
    #[test]
    fn geometry_stats_reduce_to_base_and_scale_down() {
        let qp = packed_fixture(64, 48, 0.25, 43);
        let cfg = ArrayConfig::new(16, 16, AccumWidth::Bits32);
        let sched = TiledScheduler::new(cfg);
        let prepared = sched.prepare_packed(&qp);
        let d = QuantMatrix::quantize(&sparse_matrix(48, 9, 1.0, 44));
        let plan = [prepared.full_band()];

        let mut base_scratch = RunScratch::new();
        let base = sched.run_prepared_with(&prepared, &d, &mut base_scratch);
        let out_base = base_scratch.outputs().to_vec();

        // One band under an explicit lane geometry.
        let mut geom_scratch = RunScratch::new();
        let mut run_under = |geom: ArrayGeometry| {
            let mut lanes = [BandLane::new(geom)];
            sched.run_bands(&prepared, &plan, &d, &mut geom_scratch, &mut [], &mut lanes);
            assert_eq!(lanes[0].outcome, BandOutcome::Ran);
            (lanes[0].stats, geom_scratch.outputs().to_vec())
        };
        let (same, out_same) = run_under(cfg.geometry());
        assert_eq!(same, base, "matching geometry must reproduce base stats");
        assert_eq!(out_same, out_base);

        let (small, out_small) = run_under(ArrayGeometry::new(4, 8));
        assert_eq!(out_small, out_base, "geometry must never change outputs");
        assert!(small.cycles > base.cycles, "a smaller array must be slower");
        assert!(small.load_cycles > base.load_cycles, "re-tiling loads more");
        // Work counters are geometry-independent.
        assert_eq!(small.mac_ops, base.mac_ops);
        assert_eq!(small.cell_word_slots, base.cell_word_slots);
        assert_eq!(small.output_words, base.output_words);
    }

    /// A heterogeneous fleet plan must gather bit-identically, give the
    /// weaker geometry fewer rows than uniform banding would, and beat the
    /// worst single array's makespan.
    #[test]
    fn hetero_fleet_bands_are_bit_identical_and_weighted() {
        let qp = packed_fixture(96, 60, 0.3, 45);
        let cfg = ArrayConfig::new(8, 16, AccumWidth::Bits32);
        let sched = TiledScheduler::new(cfg);
        let prepared = sched.prepare_packed(&qp);
        let d = QuantMatrix::quantize(&sparse_matrix(60, 8, 1.0, 46));
        let mut reference = RunScratch::new();
        sched.run_prepared_with(&prepared, &d, &mut reference);

        let strong = cfg.geometry();
        let weak = ArrayGeometry::new(2, 4);
        let fleet = [strong, weak];
        let plan = prepared.partition_row_bands_for(&fleet, d.cols());
        assert_eq!(plan.len(), 2);
        assert!(
            plan[0].rows().len() > plan[1].rows().len(),
            "the weak array must receive fewer rows: {:?}",
            plan.iter().map(|b| b.rows()).collect::<Vec<_>>()
        );

        let mut primary = RunScratch::new();
        let mut aux = vec![RunScratch::new(); 1];
        let mut lanes = fleet.map(BandLane::new);
        sched.run_bands(&prepared, &plan, &d, &mut primary, &mut aux, &mut lanes);
        assert_eq!(primary.outputs(), reference.outputs(), "hetero gather diverged");

        // Makespan beats the worst single array running everything.
        let worst_single = band_stats_geom(&prepared.tiles, weak, cfg.acc, d.cols()).cycles;
        let makespan = lanes.iter().map(|lane| lane.stats.cycles).max().unwrap();
        assert!(
            makespan < worst_single,
            "fleet makespan {makespan} must beat the weak array alone {worst_single}"
        );
    }

    /// The fault plane rides the same scatter: a stalled band still
    /// gathers correct rows, a poisoned band's rows come back inverted, a
    /// dead band leaves its rows untouched with zero stats — and each
    /// lane reports which of those happened.
    #[test]
    fn band_actions_report_outcomes_through_the_scatter() {
        let qp = packed_fixture(96, 40, 0.3, 47);
        let sched = TiledScheduler::new(ArrayConfig::new(8, 16, AccumWidth::Bits32));
        let prepared = sched.prepare_packed(&qp);
        let d = QuantMatrix::quantize(&sparse_matrix(40, 6, 1.0, 48));
        let mut reference = RunScratch::new();
        sched.run_prepared_with(&prepared, &d, &mut reference);

        let plan = prepared.partition_row_bands(4);
        assert_eq!(plan.len(), 4);
        let actions =
            [BandAction::Run, BandAction::Stall(50), BandAction::Poison, BandAction::Dead];
        let mut lanes =
            actions.map(|action| BandLane { action, ..BandLane::new(sched.cfg.geometry()) });
        let mut primary = RunScratch::new();
        let mut aux = vec![RunScratch::new(); 3];
        sched.run_bands(&prepared, &plan, &d, &mut primary, &mut aux, &mut lanes);

        let l = d.cols();
        let rows = |band: &RowBand| band.rows.start * l..band.rows.end * l;
        let (out, want) = (primary.outputs(), reference.outputs());
        assert_eq!(lanes[0].outcome, BandOutcome::Ran);
        assert_eq!(out[rows(&plan[0])], want[rows(&plan[0])]);
        assert_eq!(lanes[1].outcome, BandOutcome::Stalled);
        assert_eq!(out[rows(&plan[1])], want[rows(&plan[1])]);
        assert!(lanes[1].busy_ns >= 50_000, "a stall is host time");
        assert_eq!(lanes[2].outcome, BandOutcome::Poisoned);
        assert!(out[rows(&plan[2])].iter().zip(&want[rows(&plan[2])]).all(|(o, w)| *o == !*w));
        assert_eq!(lanes[3].outcome, BandOutcome::Dead);
        assert!(out[rows(&plan[3])].iter().all(|&o| o == 0), "a dead band writes nothing");
        assert_eq!(lanes[3].stats, SimStats::default());
    }

    /// The finishing step rides the same scatter: called exactly once per
    /// band that produced rows — on that band's thread, after its kernel,
    /// with the band's rows as the lane left them (inverted under
    /// `Poison`) — and never for a dead band. Its host time lands in the
    /// lane's `busy_ns` on band 0 as on the spawned bands.
    #[test]
    fn finishing_step_runs_once_per_live_band_on_its_finished_rows() {
        let qp = packed_fixture(96, 40, 0.3, 49);
        let sched = TiledScheduler::new(ArrayConfig::new(8, 16, AccumWidth::Bits32));
        let prepared = sched.prepare_packed(&qp);
        let d = QuantMatrix::quantize(&sparse_matrix(40, 6, 1.0, 50));
        let mut reference = RunScratch::new();
        sched.run_prepared_with(&prepared, &d, &mut reference);

        let plan = prepared.partition_row_bands(4);
        assert_eq!(plan.len(), 4);
        let actions =
            [BandAction::Run, BandAction::Stall(50), BandAction::Poison, BandAction::Dead];
        let mut lanes =
            actions.map(|action| BandLane { action, ..BandLane::new(sched.cfg.geometry()) });
        let mut primary = RunScratch::new();
        let mut aux = vec![RunScratch::new(); 3];
        const STEP_NS: u64 = 2_000_000;
        let mut calls: Vec<Vec<_>> = vec![Vec::new(); 4];
        let mut steps: Vec<_> = calls
            .iter_mut()
            .map(|seen| {
                move |band: &RowBand, words: &[i32]| {
                    std::thread::sleep(std::time::Duration::from_nanos(STEP_NS));
                    seen.push((std::thread::current().id(), band.rows(), words.to_vec()));
                }
            })
            .collect();
        sched.run_bands_then(&prepared, &plan, &d, &mut primary, &mut aux, &mut lanes, &mut steps);
        drop(steps);

        let l = d.cols();
        let me = std::thread::current().id();
        let want = reference.outputs();
        for (i, (band, seen)) in plan.iter().zip(&calls).enumerate() {
            if actions[i] == BandAction::Dead {
                assert!(seen.is_empty(), "a dead band produced no rows to finish");
                continue;
            }
            let [(thread, rows, words)] = &seen[..] else {
                panic!("band {i}'s step ran {} times", seen.len());
            };
            assert_eq!(*rows, band.rows(), "band {i} was handed another band's rows");
            assert_eq!(*thread == me, i == 0, "band 0 on the caller, the rest on their own");
            let finished = &want[band.rows.start * l..band.rows.end * l];
            if actions[i] == BandAction::Poison {
                assert!(words.iter().zip(finished).all(|(w, f)| *w == !*f), "poison comes first");
            } else {
                assert_eq!(&words[..], finished, "band {i}'s step ran before its kernel");
            }
            assert!(lanes[i].busy_ns >= STEP_NS, "lane {i} was not charged for its step");
        }
        // The step only reads: the gathered plane is the step-free one.
        let live = plan[1].rows.end * l;
        assert_eq!(primary.outputs()[..live], want[..live]);
    }

    /// The degenerate call `cc-serve` makes at one shard: a one-band plan
    /// finishes its rows on the calling thread (no scope, so nothing to
    /// allocate), on the whole plane.
    #[test]
    fn one_band_step_runs_on_the_calling_thread_over_the_whole_plane() {
        let qp = packed_fixture(40, 40, 0.3, 51);
        for acc in [AccumWidth::Bits16, AccumWidth::Bits32] {
            let sched = TiledScheduler::new(ArrayConfig::new(16, 16, acc));
            let prepared = sched.prepare_packed(&qp);
            let d = QuantMatrix::quantize(&sparse_matrix(40, 5, 1.0, 52));
            let mut reference = RunScratch::new();
            let ref_stats = sched.run_prepared_with(&prepared, &d, &mut reference);

            let mut primary = RunScratch::new();
            let mut lane = BandLane::new(sched.cfg.geometry());
            let mut seen = Vec::new();
            let mut step = |band: &RowBand, words: &[i32]| {
                seen.push((std::thread::current().id(), band.rows(), words.to_vec()));
            };
            sched.run_bands_then(
                &prepared,
                &[prepared.full_band()],
                &d,
                &mut primary,
                &mut [],
                std::slice::from_mut(&mut lane),
                std::slice::from_mut(&mut step),
            );
            let want = (std::thread::current().id(), 0..40, reference.outputs().to_vec());
            assert_eq!(seen, [want], "{acc:?}");
            assert_eq!(lane.stats, ref_stats);
            assert_eq!(primary.outputs(), reference.outputs());
        }
    }

    #[test]
    #[should_panic(expected = "one finishing step per band")]
    fn too_few_finishing_steps_are_rejected() {
        let qp = packed_fixture(64, 40, 0.3, 53);
        let sched = TiledScheduler::new(ArrayConfig::new(16, 16, AccumWidth::Bits32));
        let prepared = sched.prepare_packed(&qp);
        let d = QuantMatrix::quantize(&sparse_matrix(40, 3, 1.0, 54));
        let plan = prepared.partition_row_bands(2);
        let mut lanes = [BandLane::new(sched.cfg.geometry()); 2];
        let mut aux = [RunScratch::new()];
        let mut steps = [|_: &RowBand, _: &[i32]| {}];
        sched.run_bands_then(
            &prepared,
            &plan,
            &d,
            &mut RunScratch::new(),
            &mut aux,
            &mut lanes,
            &mut steps,
        );
    }

    #[test]
    fn row_band_plan_covers_rows_contiguously() {
        let qp = packed_fixture(90, 50, 0.3, 35);
        let prepared = TiledScheduler::new(ArrayConfig::new(16, 16, AccumWidth::Bits32))
            .prepare_packed(&qp);
        for shards in 1..=6 {
            let plan = prepared.partition_row_bands(shards);
            assert_eq!(plan[0].rows().start, 0);
            assert_eq!(plan.last().unwrap().rows().end, prepared.rows());
            for pair in plan.windows(2) {
                assert_eq!(pair[0].rows().end, pair[1].rows().start);
            }
            assert_eq!(
                plan.iter().map(RowBand::num_tiles).sum::<usize>(),
                prepared.num_tiles(),
                "bands must own every tile exactly once"
            );
        }
        // 90 rows on a 16-row array → 6 row-groups: more shards than
        // groups clamps to the group count.
        assert_eq!(prepared.partition_row_bands(100).len(), 6);
    }

    #[test]
    fn sequential_cycles_match_the_run() {
        let qp = packed_fixture(64, 40, 0.2, 36);
        let sched = TiledScheduler::new(cfg32());
        let prepared = sched.prepare_packed(&qp);
        for l in [1usize, 5, 16] {
            let d = QuantMatrix::quantize(&sparse_matrix(40, l, 1.0, 37));
            let run = sched.run_prepared(&prepared, &d);
            assert_eq!(prepared.sequential_cycles(l), run.stats.cycles);
        }
    }

    #[test]
    fn merge_concurrent_takes_makespan() {
        let a = SimStats { cycles: 10, load_cycles: 3, mac_ops: 5, ..SimStats::default() };
        let b = SimStats { cycles: 7, load_cycles: 2, mac_ops: 4, ..SimStats::default() };
        let mut m = a;
        m.merge_concurrent(&b);
        assert_eq!(m.cycles, 10, "concurrent arrays finish at the slowest one");
        assert_eq!(m.load_cycles, 5);
        assert_eq!(m.mac_ops, 9);
    }

    /// Same overflow pressure on the packed path: 16-bit lanes must wrap
    /// exactly like the reference simulation across column-band tiles.
    #[test]
    fn packed_sixteen_bit_wrap_is_bit_identical() {
        let f = sparse_matrix(6, 72, 0.9, 29);
        let groups = group_columns(&f, &GroupingConfig::paper_default());
        let qp = QuantPacked::quantize_with(
            &pack_columns(&f, &groups),
            QuantParams::from_max_abs(1.0),
        );
        let d = QuantMatrix::quantize_with(
            &sparse_matrix(72, 5, 1.0, 30),
            QuantParams::from_max_abs(1.0),
        );
        let sched = TiledScheduler::new(ArrayConfig::new(6, 16, AccumWidth::Bits16));
        let reference = sched.run_packed_reference(&qp, &d);
        let prepared = sched.prepare_packed(&qp);
        assert_eq!(sched.run_prepared(&prepared, &d), reference);
    }
}
