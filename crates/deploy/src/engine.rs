//! The deployed integer inference engine: one enum variant per hardware
//! block of the paper's Fig. 6 system.
//!
//! Every stage executes on a whole batch ([`run_layer_batch_scratch`]);
//! one image is a batch of one. Batching concatenates the images' spatial
//! positions into one wide data matrix for the systolic array, so a batch
//! of `B` maps shares each layer's weight loads — and because the array is
//! exact integer arithmetic per output column, batched results are
//! bit-identical to running the images one at a time.
//!
//! ## Peripheral blocks are row loops
//!
//! The blocks behind the array — the ReLU + quantizer epilogue, shift, the
//! residual add, the pools, the classifier head — are periphery in the
//! paper and must be here: each walks whole rows as slices (`zip`ped
//! iterators, `copy_from_slice` of a shifted row's in-range span) so the
//! compiler drops the bounds checks and vectorises them.
//!
//! The arithmetic ones — the epilogue ([`EpilogueRows`]), the residual add
//! ([`ResidualAdd`]), the pools, ReLU and the input quantizer — are each a
//! [`cc_tensor::isa::Kernel`], dispatched once per call through the
//! workspace's one ISA dispatch: the same safe Rust compiled for the
//! build's baseline (SSE2 on x86-64, four words to the instruction) and
//! for AVX2 (eight), picked from the CPU like the lane kernel they sit
//! behind, with [`cc_systolic::tiled::lane_isa`] naming the level. Only
//! `avx2` is enabled, never `fma`: a fused multiply-add rounds once where
//! the pinned expressions below round twice, and with the feature off the
//! compiler has no instruction to fuse them into — so an activation is the
//! same bits at either level, which the tests here assert block by block
//! at every level the CPU has.
//!
//! Their float arithmetic is pinned, because the last bit of an activation
//! moves with it: the epilogue is `o as f32 * acc_scale`, then
//! `channel_scale[n] * acc + channel_bias[n]`, ReLU, then a **division** by
//! `out_scale`; the residual add is `b as f32 * sb + s as f32 * ss`, then
//! the division. No reciprocal multiply, no pre-multiplied scales, no
//! fused multiply-add — each rounds differently from the division it would
//! replace — and the one rounding step is
//! [`cc_tensor::quant::requantize`]. `golden_engine` in the integration
//! suite holds every activation of two pinned deployments to constants.
//!
//! ## The epilogue is a per-array block
//!
//! Fig. 6 puts a ReLU + quantization block behind *each* systolic array,
//! and so does a packed conv here: [`EpilogueRows`] turns a run of the
//! accumulator plane's rows into the same rows of every image's output
//! map, and it runs wherever those rows were produced. Under a
//! [`BandSet`] that is each shard lane's own thread, right behind the
//! lane's kernel ([`TiledScheduler::run_bands_then`]), writing the band's
//! row range of every map — nothing of a conv is left for one thread to
//! walk behind the gather. One array (no band set, one shard, one active
//! lane) is the same routine once over every row on the calling thread.

use crate::qmap::QMap;
use crate::scratch::{ActivationScratch, BufPool};
use crate::shard::BandSet;
use cc_systolic::tiled::{PreparedPacked, RowBand, TiledScheduler};
use cc_tensor::isa::{self, Kernel};
use cc_tensor::quant::{requantize, AccumWidth, QuantMatrix, QuantParams};
use std::ops::Range;

/// One stage of the deployed pipeline.
#[derive(Clone, Debug)]
pub enum DeployedLayer {
    /// Shift block (§4.3): pure data movement on quantized planes.
    Shift {
        /// Per-channel `(dy, dx)` offsets.
        shifts: Vec<(i8, i8)>,
    },
    /// Packed pointwise convolution on the MX-cell array, with batch norm
    /// folded into per-channel scale/bias and the ReLU + quantizer blocks
    /// fused behind it (§4.4).
    PackedConv {
        /// Quantized packed weights (with mux channels), pre-sliced into
        /// array tiles once at build time — the per-inference path only
        /// runs them (see [`TiledScheduler::prepare_packed`]).
        tiles: PreparedPacked,
        /// Weight quantization step.
        weight_scale: f32,
        /// Folded per-output-channel scale (γ/σ of the trained BN).
        channel_scale: Vec<f32>,
        /// Folded per-output-channel bias (β − γμ/σ).
        channel_bias: Vec<f32>,
        /// Apply ReLU before requantization.
        relu: bool,
        /// Output activation scale (calibrated).
        out_scale: f32,
    },
    /// 2×2 stride-2 average pooling in the integer domain.
    AvgPool,
    /// Global average pooling in the integer domain.
    GlobalAvgPool,
    /// ReLU applied directly to a quantized map (after residual adds).
    Relu,
    /// Residual block: body stages plus an identity or pool-and-pad
    /// shortcut; the sum is requantized to a calibrated scale.
    Residual {
        /// Deployed body stages.
        body: Vec<DeployedLayer>,
        /// Shortcut pools 2× and zero-pads channels when set.
        downsample: bool,
        /// Output channels after padding.
        out_channels: usize,
        /// Calibrated scale of the block output.
        out_scale: f32,
    },
    /// Quantized classifier head; produces real-valued logits.
    Linear {
        /// Quantized weight matrix (classes × features).
        weights: QuantMatrix,
        /// Weight quantization step.
        weight_scale: f32,
        /// Float bias per class.
        bias: Vec<f32>,
    },
}

/// Executes one stage on a batch of same-shape images, drawing every
/// output buffer (and the systolic output plane) from a caller-owned
/// [`ActivationScratch`] — the serving hot path, which performs no
/// steady-state allocation once the scratch is warm. `PackedConv`
/// concatenates all images' positions into one data matrix so the batch
/// shares each weight tile load; results are bit-identical to running the
/// images individually.
///
/// # Panics
///
/// Panics on an empty batch or if the maps disagree in shape or scale.
pub fn run_layer_batch_scratch(
    layer: &DeployedLayer,
    inputs: &[QMap],
    sched: &TiledScheduler,
    scratch: &mut ActivationScratch,
) -> BatchOutput {
    run_layer_batch_banded(layer, inputs, sched, scratch, None)
}

/// [`run_layer_batch_scratch`] with an optional row-band shard set: with
/// `bands`, every `PackedConv` runs through [`BandSet`]'s conv path, which
/// scatters its prepared tiles across the set's active arrays (one thread
/// and one kernel scratch each) and gathers the band outputs by row
/// concatenation — bit-identical to the unsharded path by construction,
/// since quantization stats are precomputed per output channel. A
/// one-shard set is the same path with one band on the calling thread;
/// `None` is the bare kernel without stats accounting. Batch containers
/// and activations come from (and are recycled into) `scratch`'s pools
/// either way.
///
/// # Panics
///
/// Panics on an empty batch or if the maps disagree in shape or scale.
pub fn run_layer_batch_banded(
    layer: &DeployedLayer,
    inputs: &[QMap],
    sched: &TiledScheduler,
    scratch: &mut ActivationScratch,
    bands: Option<&mut BandSet>,
) -> BatchOutput {
    assert!(!inputs.is_empty(), "empty batch");
    match layer {
        DeployedLayer::Shift { shifts } => {
            let mut out = scratch.shells.take(inputs.len());
            out.extend(inputs.iter().map(|m| run_shift(shifts, m, &mut scratch.bufs)));
            BatchOutput::Maps(out)
        }
        DeployedLayer::PackedConv {
            tiles,
            weight_scale,
            channel_scale,
            channel_bias,
            relu,
            out_scale,
        } => BatchOutput::Maps(run_packed_conv_batch(
            tiles,
            *weight_scale,
            channel_scale,
            channel_bias,
            *relu,
            *out_scale,
            inputs,
            sched,
            scratch,
            bands,
        )),
        DeployedLayer::AvgPool => {
            let mut out = scratch.shells.take(inputs.len());
            out.extend(inputs.iter().map(|m| run_avgpool(m, &mut scratch.bufs)));
            BatchOutput::Maps(out)
        }
        DeployedLayer::GlobalAvgPool => {
            let mut out = scratch.shells.take(inputs.len());
            out.extend(inputs.iter().map(|m| run_global_pool(m, &mut scratch.bufs)));
            BatchOutput::Maps(out)
        }
        DeployedLayer::Relu => {
            let mut out = scratch.shells.take(inputs.len());
            out.extend(inputs.iter().map(|m| run_relu(m, &mut scratch.bufs)));
            BatchOutput::Maps(out)
        }
        DeployedLayer::Residual { body, downsample, out_channels, out_scale } => {
            BatchOutput::Maps(run_residual_batch(
                body,
                *downsample,
                *out_channels,
                *out_scale,
                inputs,
                sched,
                scratch,
                bands,
            ))
        }
        DeployedLayer::Linear { weights, weight_scale, bias } => BatchOutput::Logits(
            inputs.iter().map(|m| run_linear(weights, *weight_scale, bias, m)).collect(),
        ),
    }
}

/// Estimated execution cost of one deployed layer on a `(C, H, W)` input,
/// plus the output shape it produces. The cost is a unitless work proxy
/// (weight-load volume plus MAC volume for array layers, element traffic
/// for peripheral blocks) used to partition layers into balanced pipeline
/// stages; it does not need to be cycle-accurate, only rank the layers.
pub fn layer_cost(
    layer: &DeployedLayer,
    shape: (usize, usize, usize),
) -> (u64, (usize, usize, usize)) {
    let (c, h, w) = shape;
    let plane = (h * w) as u64;
    match layer {
        DeployedLayer::Shift { shifts } => (shifts.len() as u64 * plane, (shifts.len(), h, w)),
        DeployedLayer::PackedConv { tiles, .. } => {
            // One weight pass plus a MAC per weight slot per position.
            let cost = tiles.load_words() * (plane + 1);
            (cost, (tiles.rows(), h, w))
        }
        DeployedLayer::AvgPool => (c as u64 * plane, (c, h / 2, w / 2)),
        DeployedLayer::GlobalAvgPool => (c as u64 * plane, (c, 1, 1)),
        DeployedLayer::Relu => (c as u64 * plane, (c, h, w)),
        DeployedLayer::Residual { body, downsample, out_channels, .. } => {
            let mut cost = 0u64;
            let mut body_shape = shape;
            for stage in body {
                let (stage_cost, next) = layer_cost(stage, body_shape);
                cost += stage_cost;
                body_shape = next;
            }
            // Shortcut traffic plus the requantizing add.
            let (oh, ow) = if *downsample { (h / 2, w / 2) } else { (h, w) };
            cost += 2 * *out_channels as u64 * (oh * ow) as u64;
            (cost, (*out_channels, oh, ow))
        }
        DeployedLayer::Linear { weights, .. } => {
            ((weights.rows() * weights.cols()) as u64, (weights.rows(), 1, 1))
        }
    }
}

/// Result of a batched stage: per-image maps or per-image logits.
#[derive(Clone, Debug)]
pub enum BatchOutput {
    /// Intermediate quantized feature maps, one per image.
    Maps(Vec<QMap>),
    /// Real-valued class logits, one vector per image.
    Logits(Vec<Vec<f32>>),
}

/// Destination positions `p` of an `n`-long axis whose source `p - d` is
/// in range — empty once `|d| ≥ n`.
fn shifted_span(d: i8, n: usize) -> Range<usize> {
    let (d, n) = (i64::from(d), n as i64);
    let lo = d.clamp(0, n);
    let hi = (n + d).clamp(lo, n);
    lo as usize..hi as usize
}

fn run_shift(shifts: &[(i8, i8)], input: &QMap, pool: &mut BufPool) -> QMap {
    assert_eq!(shifts.len(), input.channels(), "shift channel mismatch");
    let (c, h, w) = (input.channels(), input.height(), input.width());
    let src = input.as_slice();
    let mut out = pool.take_zeroed(c * h * w);
    for (ci, &(dy, dx)) in shifts.iter().enumerate() {
        // One copy per in-range row: the span of columns whose source
        // column exists, from the source row `dy` above.
        let xs = shifted_span(dx, w);
        if xs.is_empty() {
            continue;
        }
        let src_x = (xs.start as i64 - i64::from(dx)) as usize;
        for y in shifted_span(dy, h) {
            let sy = (y as i64 - i64::from(dy)) as usize;
            let from = (ci * h + sy) * w + src_x;
            out[(ci * h + y) * w..][xs.clone()].copy_from_slice(&src[from..from + xs.len()]);
        }
    }
    QMap::from_raw(out, c, h, w, input.scale())
}

#[allow(clippy::too_many_arguments)]
fn run_packed_conv_batch(
    tiles: &PreparedPacked,
    weight_scale: f32,
    channel_scale: &[f32],
    channel_bias: &[f32],
    relu: bool,
    out_scale: f32,
    inputs: &[QMap],
    sched: &TiledScheduler,
    scratch: &mut ActivationScratch,
    bands: Option<&mut BandSet>,
) -> Vec<QMap> {
    let first = &inputs[0];
    let (c, h, w) = (first.channels(), first.height(), first.width());
    let l = h * w;
    let b = inputs.len();
    let bl = b * l;
    for m in inputs {
        assert_eq!(
            (m.channels(), m.height(), m.width()),
            (c, h, w),
            "batched maps must share a shape"
        );
        assert_eq!(m.scale(), first.scale(), "batched maps must share a scale");
    }

    // Data matrix: channels × (batch · positions) — image `bi` owns the
    // column band `bi*l..(bi+1)*l`, so each output column (and thus each
    // per-image result) is untouched by its batch neighbours. Filled
    // channel-major so the writes are one sequential append (no zero-fill
    // needed).
    let mut data = scratch.bufs.take_with_capacity(c * bl);
    for k in 0..c {
        for m in inputs {
            data.extend_from_slice(&m.as_slice()[k * l..(k + 1) * l]);
        }
    }
    let data =
        QuantMatrix::from_raw(c, bl, data, QuantParams::from_max_abs(first.scale() * 127.0));
    let n = tiles.rows();
    let ActivationScratch { run, bufs, shells } = scratch;
    let mut batch = shells.take(b);
    batch.extend((0..b).map(|_| QMap::from_raw(bufs.take_zeroed(n * l), n, h, w, out_scale)));
    let epilogue = Epilogue {
        acc_scale: weight_scale * first.scale(),
        channel_scale,
        channel_bias,
        relu,
        out_scale,
        l,
    };
    // A shard set runs the conv through its one scatter/gather path —
    // whatever its width, fleet or fault plane, with the stats accounting
    // the caller reads back — and each lane finishes its own rows of
    // `batch`; without one the bare kernel runs and the same block
    // finishes every row here. The maps are bit-identical either way.
    match bands {
        Some(set) => set.run_conv(sched, tiles, &data, run, &epilogue, &mut batch),
        None => {
            sched.run_prepared_with(tiles, &data, run);
            epilogue.rows(&tiles.full_band(), run.outputs(), &mut batch);
        }
    }
    bufs.recycle(data.into_raw());
    batch
}

/// The ReLU + quantizer block behind one array (§4.4, Fig. 6) for one
/// packed conv on one batch: folded batch norm, ReLU, rescale to the
/// output step, round.
pub struct Epilogue<'a> {
    /// Accumulator step: weight scale × input activation scale.
    pub acc_scale: f32,
    /// Folded per-output-channel scale, indexed by plane row.
    pub channel_scale: &'a [f32],
    /// Folded per-output-channel bias, indexed by plane row.
    pub channel_bias: &'a [f32],
    /// Apply ReLU before requantization.
    pub relu: bool,
    /// Output activation step.
    pub out_scale: f32,
    /// Spatial positions per image: image `bi` owns columns
    /// `bi*l..(bi+1)*l` of the accumulator plane.
    pub l: usize,
}

impl Epilogue<'_> {
    /// Finishes `band`'s rows — see [`EpilogueRows`] — at the widest
    /// vector level the CPU has.
    pub(crate) fn rows<D: AsMut<[i8]>>(&self, band: &RowBand, words: &[i32], dsts: &mut [D]) {
        isa::run(EpilogueRows { epilogue: self, rows: band.rows(), words, dsts });
    }
}

/// An [`Epilogue`] over a run of plane rows, as the one body compiled per
/// vector level: `words` is rows `rows` of the accumulator plane
/// (`rows.len()` rows × batch · `l` words) and `dsts[bi]` the same rows of
/// image `bi`'s output map — whole maps, or a shard lane's row slices.
/// One plane row is one output channel, so its scale and bias are read
/// once and each image's `l`-word run of it is finished as a `zip` of two
/// slices — no index arithmetic or bounds check per word, which is what
/// lets the compiler run the per-word expression several words to the
/// instruction.
pub struct EpilogueRows<'a, D> {
    /// The conv's block parameters.
    pub epilogue: &'a Epilogue<'a>,
    /// Plane rows (output channels) to finish.
    pub rows: Range<usize>,
    /// Those rows of the accumulator plane.
    pub words: &'a [i32],
    /// Those rows of each image's output map.
    pub dsts: &'a mut [D],
}

impl<D: AsMut<[i8]>> Kernel for EpilogueRows<'_, D> {
    type Out = ();

    #[inline(always)]
    fn run(self) {
        let Epilogue { acc_scale, channel_scale, channel_bias, relu, out_scale, l } = *self.epilogue;
        let bl = self.dsts.len() * l;
        for (k, ni) in self.rows.enumerate() {
            let (scale, bias) = (channel_scale[ni], channel_bias[ni]);
            let row = &self.words[k * bl..(k + 1) * bl];
            for (bi, dst) in self.dsts.iter_mut().enumerate() {
                let out = &mut dst.as_mut()[k * l..(k + 1) * l];
                for (q, &o) in out.iter_mut().zip(&row[bi * l..(bi + 1) * l]) {
                    *q = epilogue_word(o, acc_scale, scale, bias, relu, out_scale);
                }
            }
        }
    }
}

/// The ReLU + quantizer blocks behind the array (§4.4) on one accumulator
/// word: folded batch norm, ReLU, rescale to the output step, round. The
/// operation order is part of the result (see the module docs).
#[inline(always)]
fn epilogue_word(
    word: i32,
    acc_scale: f32,
    channel_scale: f32,
    channel_bias: f32,
    relu: bool,
    out_scale: f32,
) -> i8 {
    let acc = word as f32 * acc_scale;
    let real = channel_scale * acc + channel_bias;
    let real = if relu && real < 0.0 { 0.0 } else { real };
    requantize(real / out_scale)
}

fn run_avgpool(input: &QMap, pool: &mut BufPool) -> QMap {
    let (c, h, w) = (input.channels(), input.height(), input.width());
    let (oh, ow) = (h / 2, w / 2);
    let mut out = pool.take_zeroed(c * oh * ow);
    isa::run(AvgPool { src: input.as_slice(), c, h, w, out: &mut out });
    QMap::from_raw(out, c, oh, ow, input.scale())
}

/// 2×2 stride-2 mean of a `c × h × w` map into `out`
/// (`c × h/2 × w/2`, pre-sized).
struct AvgPool<'a> {
    src: &'a [i8],
    c: usize,
    h: usize,
    w: usize,
    out: &'a mut [i8],
}

impl Kernel for AvgPool<'_> {
    type Out = ();

    #[inline(always)]
    fn run(self) {
        let AvgPool { src, c, h, w, out } = self;
        let (oh, ow) = (h / 2, w / 2);
        for ci in 0..c {
            for y in 0..oh {
                let top = &src[(ci * h + 2 * y) * w..][..w];
                let bottom = &src[(ci * h + 2 * y + 1) * w..][..w];
                let out_row = &mut out[(ci * oh + y) * ow..][..ow];
                let pairs = top.chunks_exact(2).zip(bottom.chunks_exact(2));
                for (q, (t, b)) in out_row.iter_mut().zip(pairs) {
                    let s = t[0] as i32 + t[1] as i32 + b[0] as i32 + b[1] as i32;
                    // round-half-away integer division by 4
                    let v = if s >= 0 { (s + 2) / 4 } else { (s - 2) / 4 };
                    *q = v.clamp(-127, 127) as i8;
                }
            }
        }
    }
}

fn run_global_pool(input: &QMap, pool: &mut BufPool) -> QMap {
    let c = input.channels();
    let mut out = pool.take_zeroed(c);
    isa::run(GlobalPool { src: input.as_slice(), hw: input.plane(), out: &mut out });
    QMap::from_raw(out, c, 1, 1, input.scale())
}

/// Round-half-away mean of each `hw`-long channel of `src` into `out`.
struct GlobalPool<'a> {
    src: &'a [i8],
    hw: usize,
    out: &'a mut [i8],
}

impl Kernel for GlobalPool<'_> {
    type Out = ();

    #[inline(always)]
    fn run(self) {
        let plane = self.hw as i32;
        for (q, channel) in self.out.iter_mut().zip(self.src.chunks_exact(self.hw)) {
            let s: i32 = channel.iter().map(|&v| v as i32).sum();
            let v = if s >= 0 { (s + plane / 2) / plane } else { (s - plane / 2) / plane };
            *q = v.clamp(-127, 127) as i8;
        }
    }
}

fn run_relu(input: &QMap, pool: &mut BufPool) -> QMap {
    let mut out = pool.take_zeroed(input.as_slice().len());
    isa::run(Relu { src: input.as_slice(), out: &mut out });
    QMap::from_raw(out, input.channels(), input.height(), input.width(), input.scale())
}

/// ReLU on quantized codes (the scale is positive, so the sign is the
/// code's).
struct Relu<'a> {
    src: &'a [i8],
    out: &'a mut [i8],
}

impl Kernel for Relu<'_> {
    type Out = ();

    #[inline(always)]
    fn run(self) {
        for (o, &q) in self.out.iter_mut().zip(self.src) {
            *o = q.max(0);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_residual_batch(
    body: &[DeployedLayer],
    downsample: bool,
    out_channels: usize,
    out_scale: f32,
    inputs: &[QMap],
    sched: &TiledScheduler,
    scratch: &mut ActivationScratch,
    mut bands: Option<&mut BandSet>,
) -> Vec<QMap> {
    // Body path, batched through every stage. The first stage reads the
    // (borrowed) block inputs directly; intermediate activations are
    // recycled as soon as the following stage has consumed them.
    let mut hs: Option<Vec<QMap>> = None;
    for stage in body {
        let src: &[QMap] = hs.as_deref().unwrap_or(inputs);
        let next = match run_layer_batch_banded(stage, src, sched, scratch, bands.as_deref_mut())
        {
            BatchOutput::Maps(m) => m,
            BatchOutput::Logits(_) => panic!("classifier inside residual body"),
        };
        if let Some(consumed) = hs.replace(next) {
            scratch.recycle_batch(consumed);
        }
    }
    let mut hs = hs.unwrap_or_else(|| inputs.to_vec());
    let mut merged_batch = scratch.shells.take(inputs.len());
    merged_batch.extend(inputs
        .iter()
        .zip(hs.drain(..))
        .map(|(input, h)| {
            // Shortcut path: a pooled-and-padded copy when downsampling,
            // otherwise the block input itself (no copy).
            let shortcut = if downsample {
                let pooled = run_avgpool(input, &mut scratch.bufs);
                Some(pad_channels(pooled, out_channels, &mut scratch.bufs))
            } else {
                None
            };
            let shortcut_ref = shortcut.as_ref().unwrap_or(input);
            assert_eq!(h.channels(), shortcut_ref.channels(), "residual channel mismatch");
            assert_eq!(h.plane(), shortcut_ref.plane(), "residual plane mismatch");

            let mut out = scratch.bufs.take_zeroed(h.as_slice().len());
            residual_add(
                h.as_slice(),
                h.scale(),
                shortcut_ref.as_slice(),
                shortcut_ref.scale(),
                out_scale,
                &mut out,
            );
            let merged = QMap::from_raw(out, h.channels(), h.height(), h.width(), out_scale);
            if let Some(sc) = shortcut {
                scratch.bufs.recycle(sc.into_raw());
            }
            scratch.bufs.recycle(h.into_raw());
            merged
        }));
    scratch.shells.recycle(hs);
    merged_batch
}

/// [`ResidualAdd`] at the widest vector level the CPU has.
fn residual_add(body: &[i8], sb: f32, shortcut: &[i8], ss: f32, out_scale: f32, out: &mut [i8]) {
    isa::run(ResidualAdd { body, body_scale: sb, shortcut, shortcut_scale: ss, out_scale, out });
}

/// The residual merge: integer add with per-path rescale into the
/// calibrated output scale, as the one body compiled per vector level. The
/// operation order is part of the result (see the module docs).
pub struct ResidualAdd<'a> {
    /// The body path's codes.
    pub body: &'a [i8],
    /// The body path's activation step.
    pub body_scale: f32,
    /// The shortcut path's codes, as many as `body`.
    pub shortcut: &'a [i8],
    /// The shortcut path's activation step.
    pub shortcut_scale: f32,
    /// Output activation step.
    pub out_scale: f32,
    /// The merged codes, as many as `body`.
    pub out: &'a mut [i8],
}

impl Kernel for ResidualAdd<'_> {
    type Out = ();

    #[inline(always)]
    fn run(self) {
        let (sb, ss, out_scale) = (self.body_scale, self.shortcut_scale, self.out_scale);
        for ((q, &b), &s) in self.out.iter_mut().zip(self.body).zip(self.shortcut) {
            let real = b as f32 * sb + s as f32 * ss;
            *q = requantize(real / out_scale);
        }
    }
}

/// Zero-pads a map to `out_channels`, drawing the padded buffer from the
/// pool and recycling the input's (no-op when the widths already match).
fn pad_channels(input: QMap, out_channels: usize, pool: &mut BufPool) -> QMap {
    if input.channels() == out_channels {
        return input;
    }
    let (c, h, w) = (input.channels(), input.height(), input.width());
    let mut out = pool.take_zeroed(out_channels * h * w);
    out[..c * h * w].copy_from_slice(input.as_slice());
    let scale = input.scale();
    pool.recycle(input.into_raw());
    QMap::from_raw(out, out_channels, h, w, scale)
}

fn run_linear(weights: &QuantMatrix, weight_scale: f32, bias: &[f32], input: &QMap) -> Vec<f32> {
    let feat = input.channels() * input.plane();
    assert_eq!(weights.cols(), feat, "linear feature mismatch");
    let acc_scale = weight_scale * input.scale();
    (0..weights.rows())
        .map(|o| {
            let row = &weights.as_slice()[o * feat..][..feat];
            let products = row.iter().zip(input.as_slice()).map(|(&w, &x)| w as i64 * x as i64);
            let acc: i64 = products.sum();
            AccumWidth::Bits32.wrap(acc) as f32 * acc_scale + bias[o]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_packing::{group_columns, pack_columns, GroupingConfig};
    use cc_systolic::array::{ArrayConfig, ArrayGeometry, QuantPacked};
    use cc_systolic::RunScratch;
    use cc_tensor::init::sparse_matrix;
    use cc_tensor::isa::Level;
    use cc_tensor::{Shape, Tensor};

    /// The per-element blocks the row loops replaced, kept literally: the
    /// oracles of the reference-vs-fast tests below, and nothing else.
    mod oracle {
        use super::*;

        /// The formula `requantize` replaced.
        pub fn round_clamp_cast(x: f32) -> i8 {
            x.round().clamp(-127.0, 127.0) as i8
        }

        pub fn shift(shifts: &[(i8, i8)], input: &QMap) -> Vec<i8> {
            let (c, h, w) = (input.channels(), input.height(), input.width());
            let mut out = vec![0i8; c * h * w];
            for ci in 0..c {
                let (dy, dx) = shifts[ci];
                for y in 0..h as i64 {
                    let sy = y - dy as i64;
                    if sy < 0 || sy >= h as i64 {
                        continue;
                    }
                    for x in 0..w as i64 {
                        let sx = x - dx as i64;
                        if sx < 0 || sx >= w as i64 {
                            continue;
                        }
                        out[(ci * h + y as usize) * w + x as usize] =
                            input.get(ci, sy as usize, sx as usize);
                    }
                }
            }
            out
        }

        /// Image `bi`'s epilogue over the `i64` plane of a `b`-image run.
        #[allow(clippy::too_many_arguments)]
        pub fn epilogue(
            outputs: &[i64],
            (n, l, b, bi): (usize, usize, usize, usize),
            acc_scale: f32,
            channel_scale: &[f32],
            channel_bias: &[f32],
            relu: bool,
            out_scale: f32,
        ) -> Vec<i8> {
            let bl = b * l;
            let mut out = Vec::with_capacity(n * l);
            for ni in 0..n {
                for p in 0..l {
                    let acc = outputs[ni * bl + bi * l + p] as f32 * acc_scale;
                    let mut real = channel_scale[ni] * acc + channel_bias[ni];
                    if relu && real < 0.0 {
                        real = 0.0;
                    }
                    out.push(round_clamp_cast(real / out_scale));
                }
            }
            out
        }

        /// The loop `run_packed_conv_batch` ran behind the gather until
        /// the epilogue moved into the lanes, kept literally: one thread,
        /// image by image, every word of the gathered plane.
        #[allow(clippy::too_many_arguments)]
        pub fn post_gather(
            outputs: &[i32],
            (n, l, b): (usize, usize, usize),
            acc_scale: f32,
            channel_scale: &[f32],
            channel_bias: &[f32],
            relu: bool,
            out_scale: f32,
        ) -> Vec<Vec<i8>> {
            let bl = b * l;
            (0..b)
                .map(|bi| {
                    let mut out = Vec::with_capacity(n * l);
                    for ni in 0..n {
                        let (scale, bias) = (channel_scale[ni], channel_bias[ni]);
                        for p in 0..l {
                            let word = outputs[ni * bl + bi * l + p];
                            out.push(epilogue_word(word, acc_scale, scale, bias, relu, out_scale));
                        }
                    }
                    out
                })
                .collect()
        }

        pub fn residual_add(body: &QMap, shortcut: &QMap, out_scale: f32) -> Vec<i8> {
            let (sb, ss) = (body.scale(), shortcut.scale());
            body.as_slice()
                .iter()
                .zip(shortcut.as_slice())
                .map(|(&b, &s)| {
                    let real = b as f32 * sb + s as f32 * ss;
                    round_clamp_cast(real / out_scale)
                })
                .collect()
        }

        pub fn avgpool(input: &QMap) -> QMap {
            let (c, h, w) = (input.channels(), input.height(), input.width());
            let (oh, ow) = (h / 2, w / 2);
            let mut out = vec![0i8; c * oh * ow];
            for ci in 0..c {
                for y in 0..oh {
                    for x in 0..ow {
                        let s = input.get(ci, 2 * y, 2 * x) as i32
                            + input.get(ci, 2 * y, 2 * x + 1) as i32
                            + input.get(ci, 2 * y + 1, 2 * x) as i32
                            + input.get(ci, 2 * y + 1, 2 * x + 1) as i32;
                        let v = if s >= 0 { (s + 2) / 4 } else { (s - 2) / 4 };
                        out[(ci * oh + y) * ow + x] = v.clamp(-127, 127) as i8;
                    }
                }
            }
            QMap::from_raw(out, c, oh, ow, input.scale())
        }

        pub fn global_pool(input: &QMap) -> Vec<i8> {
            let plane = input.plane() as i32;
            (0..input.channels())
                .map(|ci| {
                    let mut s = 0i32;
                    for y in 0..input.height() {
                        for x in 0..input.width() {
                            s += input.get(ci, y, x) as i32;
                        }
                    }
                    let v = if s >= 0 { (s + plane / 2) / plane } else { (s - plane / 2) / plane };
                    v.clamp(-127, 127) as i8
                })
                .collect()
        }

        pub fn linear(
            weights: &QuantMatrix,
            weight_scale: f32,
            bias: &[f32],
            input: &QMap,
        ) -> Vec<f32> {
            let acc_scale = weight_scale * input.scale();
            (0..weights.rows())
                .map(|o| {
                    let mut acc = 0i64;
                    for f in 0..weights.cols() {
                        acc += weights.get(o, f) as i64 * input.as_slice()[f] as i64;
                    }
                    AccumWidth::Bits32.wrap(acc) as f32 * acc_scale + bias[o]
                })
                .collect()
        }
    }

    /// SplitMix64: test data with every `i8` code, both saturation ends
    /// included.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn code(&mut self) -> i8 {
            (self.next() % 255) as i8
        }

        /// A positive scale spread over a few orders of magnitude.
        fn scale(&mut self) -> f32 {
            (1 + self.next() % 4000) as f32 * 1e-4
        }

        fn map(&mut self, c: usize, h: usize, w: usize) -> QMap {
            self.batch(1, c, h, w).pop().expect("batch of one")
        }

        /// `b` maps of one shape and one scale, as a batch must be.
        fn batch(&mut self, b: usize, c: usize, h: usize, w: usize) -> Vec<QMap> {
            let scale = self.scale();
            (0..b)
                .map(|_| {
                    QMap::from_raw((0..c * h * w).map(|_| self.code()).collect(), c, h, w, scale)
                })
                .collect()
        }
    }

    /// Plane shapes whose row and plane lengths straddle the vector widths:
    /// 1, 3–5, 7–9, 15–17 and 63 positions, as rows, columns and
    /// rectangles.
    const PLANES: [(usize, usize); 14] = [
        (1, 1), (1, 3), (2, 2), (5, 1), (1, 7), (7, 1), (2, 4), (3, 3), (3, 5), (4, 4), (17, 1),
        (1, 17), (7, 9), (3, 21),
    ];

    /// A packed conv layer (`out_ch × in_ch`, quarter dense) on a small
    /// array so the conv spans several tiles.
    fn conv_fixture(
        out_ch: usize,
        in_ch: usize,
        acc: AccumWidth,
        rng: &mut Rng,
    ) -> (TiledScheduler, DeployedLayer) {
        let f = sparse_matrix(out_ch, in_ch, 0.4, rng.next());
        let groups = group_columns(&f, &GroupingConfig::paper_default());
        let weights = QuantPacked::quantize(&pack_columns(&f, &groups));
        let sched = TiledScheduler::new(ArrayConfig::new(4, 4, acc));
        let layer = DeployedLayer::PackedConv {
            tiles: sched.prepare_packed(&weights),
            weight_scale: rng.scale(),
            channel_scale: (0..out_ch).map(|_| rng.scale() * 30.0).collect(),
            channel_bias: (0..out_ch).map(|_| rng.scale() - 0.2).collect(),
            relu: rng.next() & 1 == 0,
            out_scale: rng.scale(),
        };
        (sched, layer)
    }

    /// The data matrix a packed conv streams for `inputs`: channels ×
    /// (batch · positions), image `bi` in columns `bi*l..(bi+1)*l`.
    fn data_matrix(inputs: &[QMap]) -> QuantMatrix {
        let (c, l, b) = (inputs[0].channels(), inputs[0].plane(), inputs.len());
        let mut data = Vec::with_capacity(c * b * l);
        for k in 0..c {
            for m in inputs {
                data.extend_from_slice(&m.as_slice()[k * l..(k + 1) * l]);
            }
        }
        QuantMatrix::from_raw(c, b * l, data, QuantParams::from_max_abs(1.0))
    }

    /// What the old engine produced for a packed conv on `inputs`: the
    /// `i64` kernel plane of the same data matrix through the old
    /// per-element epilogue.
    fn conv_oracle(layer: &DeployedLayer, inputs: &[QMap], sched: &TiledScheduler) -> Vec<Vec<i8>> {
        let DeployedLayer::PackedConv {
            tiles,
            weight_scale,
            channel_scale,
            channel_bias,
            relu,
            out_scale,
        } = layer
        else {
            panic!("conv fixture");
        };
        let (l, b) = (inputs[0].plane(), inputs.len());
        let plane = sched.run_prepared(tiles, &data_matrix(inputs)).outputs;
        (0..b)
            .map(|bi| {
                oracle::epilogue(
                    &plane,
                    (tiles.rows(), l, b, bi),
                    weight_scale * inputs[0].scale(),
                    channel_scale,
                    channel_bias,
                    *relu,
                    *out_scale,
                )
            })
            .collect()
    }

    fn maps_of(out: BatchOutput) -> Vec<QMap> {
        match out {
            BatchOutput::Maps(m) => m,
            BatchOutput::Logits(_) => panic!("expected feature maps"),
        }
    }

    #[test]
    fn shift_matches_per_element_oracle_at_every_offset() {
        let mut rng = Rng(1);
        let mut pool = BufPool::default();
        for (h, w) in PLANES.into_iter().chain([(63, 2), (16, 16)]) {
            // In range, on the edge, just past it, and far past it, both
            // signs, on both axes.
            let (hi, wi) = (h as i64, w as i64);
            let offsets = |n: i64| [0, 1, -1, n - 1, 1 - n, n, -n, n + 1, -n - 1, 127, -128];
            let shifts: Vec<(i8, i8)> = offsets(hi)
                .into_iter()
                .flat_map(|dy| offsets(wi).into_iter().map(move |dx| (dy, dx)))
                .filter(|(dy, dx)| (-128..=127).contains(dy) && (-128..=127).contains(dx))
                .map(|(dy, dx)| (dy as i8, dx as i8))
                .collect();
            let input = rng.map(shifts.len(), h, w);
            let out = run_shift(&shifts, &input, &mut pool);
            assert_eq!(out.as_slice(), &oracle::shift(&shifts, &input)[..], "plane {h}x{w}");
            assert_eq!(out.scale(), input.scale());
            for (ci, &(dy, dx)) in shifts.iter().enumerate() {
                if i64::from(dy).abs() >= hi || i64::from(dx).abs() >= wi {
                    let channel = &out.as_slice()[ci * h * w..(ci + 1) * h * w];
                    assert!(channel.iter().all(|&q| q == 0), "shift ({dy},{dx}) leaves nothing");
                }
            }
            pool.recycle(out.into_raw());
        }
    }

    /// Accumulator words through the epilogue against the old formula,
    /// both ends of `i32` included.
    #[test]
    fn epilogue_words_match_round_clamp_cast() {
        let mut rng = Rng(2);
        for relu in [false, true] {
            let acc: Vec<i32> = (0..200)
                .map(|i| match i % 5 {
                    0 => i32::MAX - (rng.next() % 3) as i32,
                    1 => i32::MIN + (rng.next() % 3) as i32,
                    2 => (rng.next() % 512) as i32 - 256,
                    _ => rng.next() as i32 >> (rng.next() % 24),
                })
                .collect();
            let (acc_scale, cs, cb, out_scale) =
                (rng.scale() * 1e-3, rng.scale() * 30.0, rng.scale() - 0.2, rng.scale());
            let out: Vec<i8> =
                acc.iter().map(|&o| epilogue_word(o, acc_scale, cs, cb, relu, out_scale)).collect();
            let wide: Vec<i64> = acc.iter().map(|&o| i64::from(o)).collect();
            let dims = (1, acc.len(), 1, 0);
            let want = oracle::epilogue(&wide, dims, acc_scale, &[cs], &[cb], relu, out_scale);
            assert_eq!(out, want, "relu {relu}");
        }
    }

    /// The epilogue on a tie lattice: output scales chosen so the quotient
    /// lands within an ulp of `k + 0.5`, where a one-ulp difference in any
    /// intermediate flips the activation. The three rewrites the module
    /// docs rule out — reciprocal multiply, fused multiply-add,
    /// pre-multiplied scales — must each *differ* from the oracle somewhere
    /// on this lattice (so it can tell them apart), and the epilogue must
    /// not.
    #[test]
    fn epilogue_keeps_its_float_operations_on_a_tie_lattice() {
        let mut rng = Rng(6);
        let (mut reciprocal, mut fused, mut premultiplied) = (0u32, 0u32, 0u32);
        for _ in 0..4000 {
            let o = (rng.next() % 60_000) as i32 + 1;
            let (acc_scale, cs, cb) = (rng.scale() * 1e-2, rng.scale() * 30.0, rng.scale() - 0.2);
            let centre = cs * (o as f32 * acc_scale) + cb;
            let k = (rng.next() % 127) as f32;
            let out_scale = centre.abs().max(1e-3) / (k + 0.5);
            let acc = [o - 1, o, o + 1, -o, o];
            let out = acc.map(|o| epilogue_word(o, acc_scale, cs, cb, false, out_scale));
            let wide = acc.map(i64::from);
            let dims = (1, 5, 1, 0);
            let want = oracle::epilogue(&wide, dims, acc_scale, &[cs], &[cb], false, out_scale);
            assert_eq!(out[..], want[..], "o {o} acc_scale {acc_scale} cs {cs} cb {cb} k {k}");

            for (&o, &want) in acc.iter().zip(&want) {
                let a = o as f32 * acc_scale;
                let real = cs * a + cb;
                reciprocal += u32::from(oracle::round_clamp_cast(real * (1.0 / out_scale)) != want);
                fused += u32::from(oracle::round_clamp_cast(cs.mul_add(a, cb) / out_scale) != want);
                let pre = (cs * acc_scale) * o as f32 + cb;
                premultiplied += u32::from(oracle::round_clamp_cast(pre / out_scale) != want);
            }
        }
        assert!(reciprocal > 0 && fused > 0 && premultiplied > 0, "lattice lost its teeth");
    }

    /// The residual add on its own tie lattice (see the epilogue's).
    #[test]
    fn residual_add_keeps_its_float_operations_on_a_tie_lattice() {
        let mut rng = Rng(7);
        let (mut reciprocal, mut fused) = (0u32, 0u32);
        for _ in 0..4000 {
            let (sb, ss) = (rng.scale(), rng.scale());
            let body: Vec<i8> = (0..19).map(|_| rng.code()).collect();
            let shortcut: Vec<i8> = (0..19).map(|_| rng.code()).collect();
            let centre = body[0] as f32 * sb + shortcut[0] as f32 * ss;
            let k = (rng.next() % 127) as f32;
            let out_scale = centre.abs().max(1e-3) / (k + 0.5);
            let mut out = [0i8; 19];
            residual_add(&body, sb, &shortcut, ss, out_scale, &mut out);
            let want = oracle::residual_add(
                &QMap::from_raw(body.clone(), 19, 1, 1, sb),
                &QMap::from_raw(shortcut.clone(), 19, 1, 1, ss),
                out_scale,
            );
            assert_eq!(out[..], want[..], "sb {sb} ss {ss} out_scale {out_scale}");

            for ((&b, &s), &want) in body.iter().zip(&shortcut).zip(&want) {
                let real = b as f32 * sb + s as f32 * ss;
                reciprocal += u32::from(oracle::round_clamp_cast(real * (1.0 / out_scale)) != want);
                let fma = (b as f32).mul_add(sb, s as f32 * ss);
                fused += u32::from(oracle::round_clamp_cast(fma / out_scale) != want);
            }
        }
        assert!(reciprocal > 0 && fused > 0, "lattice lost its teeth");
    }

    /// The epilogue's body at every vector level this CPU has — not only
    /// the one `Epilogue::rows` picks — against the per-element oracle:
    /// both accumulator widths, ReLU on and off, every shape in [`PLANES`]
    /// at batches of 1, 3 and 8, over whole maps and over a lane's row
    /// slices (rows 3.., so a body that indexes scale and bias by slice
    /// row instead of plane row fails).
    #[test]
    fn epilogue_matches_oracle_at_every_level() {
        let mut rng = Rng(10);
        let mut run = RunScratch::new();
        for acc in [AccumWidth::Bits32, AccumWidth::Bits16] {
            for relu in [false, true] {
                let (sched, layer) = conv_fixture(10, 13, acc, &mut rng);
                let DeployedLayer::PackedConv {
                    tiles, weight_scale, channel_scale, channel_bias, out_scale, ..
                } = &layer
                else {
                    panic!("conv fixture");
                };
                for (b, (h, w)) in [1usize, 3, 8].into_iter().flat_map(|b| PLANES.map(|p| (b, p))) {
                    let inputs = rng.batch(b, 13, h, w);
                    let (l, bl) = (h * w, b * h * w);
                    sched.run_prepared_with(tiles, &data_matrix(&inputs), &mut run);
                    let wide: Vec<i64> = run.outputs().iter().map(|&o| i64::from(o)).collect();
                    let epilogue = Epilogue {
                        acc_scale: weight_scale * inputs[0].scale(),
                        channel_scale,
                        channel_bias,
                        relu,
                        out_scale: *out_scale,
                        l,
                    };
                    let want: Vec<Vec<i8>> = (0..b)
                        .map(|bi| {
                            oracle::epilogue(
                                &wide,
                                (10, l, b, bi),
                                epilogue.acc_scale,
                                channel_scale,
                                channel_bias,
                                relu,
                                *out_scale,
                            )
                        })
                        .collect();
                    for level in Level::available() {
                        let case = format!("{} {acc:?} relu {relu} {b} of {h}x{w}", level.name());
                        let mut whole = vec![vec![0i8; 10 * l]; b];
                        let (rows, words) = (0..10, run.outputs());
                        isa::run_at(
                            level,
                            EpilogueRows { epilogue: &epilogue, rows, words, dsts: &mut whole },
                        );
                        assert_eq!(whole, want, "{case}");

                        let mut maps = vec![vec![0i8; 10 * l]; b];
                        let mut lane: Vec<&mut [i8]> =
                            maps.iter_mut().map(|m| &mut m[3 * l..]).collect();
                        let (rows, words) = (3..10, &run.outputs()[3 * bl..]);
                        isa::run_at(
                            level,
                            EpilogueRows { epilogue: &epilogue, rows, words, dsts: &mut lane },
                        );
                        for (m, want) in maps.iter().zip(&want) {
                            assert!(m[..3 * l].iter().all(|&q| q == 0), "{case}: wrote above its band");
                            assert_eq!(m[3 * l..], want[3 * l..], "{case} rows 3..");
                        }
                    }
                }
            }
        }
    }

    /// The residual add, both pools and ReLU at every vector level this
    /// CPU has against their per-element oracles, on plane lengths either
    /// side of the vector widths.
    #[test]
    fn residual_pools_and_relu_match_oracles_at_every_level() {
        let mut rng = Rng(11);
        for (h, w) in PLANES.into_iter().chain([(2, 2), (8, 63), (16, 16), (32, 32)]) {
            let (body, shortcut) = (rng.map(5, h, w), rng.map(5, h, w));
            let out_scale = rng.scale();
            let (oh, ow) = (h / 2, w / 2);
            for level in Level::available() {
                let case = format!("{} {h}x{w}", level.name());
                let mut out = vec![0i8; 5 * h * w];
                isa::run_at(
                    level,
                    ResidualAdd {
                        body: body.as_slice(),
                        body_scale: body.scale(),
                        shortcut: shortcut.as_slice(),
                        shortcut_scale: shortcut.scale(),
                        out_scale,
                        out: &mut out,
                    },
                );
                assert_eq!(out, oracle::residual_add(&body, &shortcut, out_scale), "add {case}");

                let mut out = vec![0i8; 5 * oh * ow];
                isa::run_at(level, AvgPool { src: body.as_slice(), c: 5, h, w, out: &mut out });
                assert_eq!(out, oracle::avgpool(&body).as_slice(), "avgpool {case}");

                let mut out = vec![0i8; 5];
                isa::run_at(level, GlobalPool { src: body.as_slice(), hw: h * w, out: &mut out });
                assert_eq!(out, oracle::global_pool(&body), "global pool {case}");

                let mut out = vec![1i8; 5 * h * w];
                isa::run_at(level, Relu { src: body.as_slice(), out: &mut out });
                let want: Vec<i8> = body.as_slice().iter().map(|&q| q.max(0)).collect();
                assert_eq!(out, want, "relu {case}");
            }
        }
    }

    /// Baseline against every other level where a last bit would show:
    /// quotients within an ulp of `k + 0.5` (the tie lattices above, here
    /// in rows long enough to reach the vector body), both saturation
    /// ends, and scales that are zero, NaN or infinite — inputs no
    /// deployment builds, where the levels must still agree word for word.
    #[test]
    fn levels_agree_on_ties_saturation_and_non_finite_scales() {
        let mut rng = Rng(12);
        let odd = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MIN_POSITIVE, 1e30];
        for round in 0..3000 {
            let o = (rng.next() % 60_000) as i32 + 1;
            let (acc_scale, cs, cb) = (rng.scale() * 1e-2, rng.scale() * 30.0, rng.scale() - 0.2);
            let k = (rng.next() % 127) as f32;
            let out_scale = (cs * (o as f32 * acc_scale) + cb).abs().max(1e-3) / (k + 0.5);
            // Every 5th round swaps one parameter for a non-finite or zero one.
            let pick = |v: f32, slot: u64| match (round % 5, round / 5 % 4) {
                (0, s) if s == slot => odd[(round / 20) as usize % odd.len()],
                _ => v,
            };
            let (acc_scale, cs, cb, out_scale) =
                (pick(acc_scale, 0), pick(cs, 1), pick(cb, 2), pick(out_scale, 3));
            let words: Vec<i32> = (0..37)
                .map(|i| match i % 6 {
                    0 => o - 1,
                    1 | 4 => o,
                    2 => o + 1,
                    3 => -o,
                    _ => [i32::MAX, i32::MIN][i / 6 % 2],
                })
                .collect();
            let (sb, ss) = (pick(rng.scale(), 0), pick(rng.scale(), 1));
            let body: Vec<i8> = (0..37).map(|i| [rng.code(), 127, -127, -128][i % 4]).collect();
            let shortcut: Vec<i8> = (0..37).map(|i| [rng.code(), 127, -128][i % 3]).collect();
            let res_scale =
                pick((body[0] as f32 * sb + shortcut[0] as f32 * ss).abs().max(1e-3) / (k + 0.5), 3);

            let run_at = |level: Level| {
                let mut outs = Vec::new();
                for relu in [false, true] {
                    let (channel_scale, channel_bias) = (&[cs][..], &[cb][..]);
                    let epilogue =
                        Epilogue { acc_scale, channel_scale, channel_bias, relu, out_scale, l: 37 };
                    let mut dsts = [[0i8; 37]];
                    isa::run_at(
                        level,
                        EpilogueRows { epilogue: &epilogue, rows: 0..1, words: &words, dsts: &mut dsts },
                    );
                    outs.push(dsts[0]);
                }
                let mut out = [0i8; 37];
                isa::run_at(
                    level,
                    ResidualAdd {
                        body: &body,
                        body_scale: sb,
                        shortcut: &shortcut,
                        shortcut_scale: ss,
                        out_scale: res_scale,
                        out: &mut out,
                    },
                );
                outs.push(out);
                outs
            };
            let baseline = run_at(Level::Baseline);
            for level in Level::available() {
                assert_eq!(
                    run_at(level),
                    baseline,
                    "{}: acc_scale {acc_scale} cs {cs} cb {cb} out_scale {out_scale} sb {sb} ss {ss} \
                     res_scale {res_scale} o {o}",
                    level.name()
                );
            }
        }
    }

    #[test]
    fn packed_conv_matches_oracle_at_every_batch_and_plane() {
        let mut rng = Rng(3);
        let mut scratch = ActivationScratch::new();
        for acc in [AccumWidth::Bits32, AccumWidth::Bits16] {
            for (h, w) in PLANES {
                let (sched, layer) = conv_fixture(10, 13, acc, &mut rng);
                for b in 1..=9 {
                    let inputs = rng.batch(b, 13, h, w);
                    let out = run_layer_batch_scratch(&layer, &inputs, &sched, &mut scratch);
                    let got = maps_of(out);
                    let want = conv_oracle(&layer, &inputs, &sched);
                    assert_eq!(got.len(), b);
                    for (bi, (g, want)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(g.as_slice(), &want[..], "{acc:?} {h}x{w} image {bi} of {b}");
                        assert_eq!((g.channels(), g.height(), g.width()), (10, h, w));
                    }
                    scratch.recycle_batch(got);
                }
            }
        }
    }

    /// A fleet of `shards` arrays for [`conv_fixture`]'s 4×4 base: the base
    /// geometry first, then ever weaker ones.
    fn mixed_fleet(shards: usize) -> Vec<ArrayGeometry> {
        [(4, 4), (2, 4), (4, 2), (2, 2)][..shards]
            .iter()
            .map(|&(rows, cols)| ArrayGeometry::new(rows, cols))
            .collect()
    }

    /// Every lane finishing its own rows, against the loop that used to
    /// walk the gathered plane on one thread: 1–4 lanes, homogeneous and
    /// mixed fleets, both accumulator widths, ReLU on and off, batches of
    /// 1, 3 and 8 of every shape in [`PLANES`]. Ten output rows on a
    /// four-row array are three tile row-groups — the last two rows short
    /// — so four lanes find a plan shorter than the active set.
    #[test]
    fn in_lane_epilogue_matches_post_gather_oracle() {
        let mut rng = Rng(8);
        let mut scratch = ActivationScratch::new();
        let cases = || [1usize, 3, 8].into_iter().flat_map(|b| PLANES.map(|(h, w)| (b, h, w)));
        for acc in [AccumWidth::Bits16, AccumWidth::Bits32] {
            for relu_on in [false, true] {
                let (sched, mut layer) = conv_fixture(10, 13, acc, &mut rng);
                if let DeployedLayer::PackedConv { relu, .. } = &mut layer {
                    *relu = relu_on;
                }
                let DeployedLayer::PackedConv {
                    weight_scale, channel_scale, channel_bias, out_scale, ..
                } = &layer
                else {
                    panic!("conv fixture");
                };
                for mixed in [false, true] {
                    for shards in 1..=4 {
                        let mut set = match mixed {
                            false => BandSet::new(shards),
                            true => BandSet::with_fleet(mixed_fleet(shards)),
                        };
                        for (b, h, w) in cases() {
                            let inputs = rng.batch(b, 13, h, w);
                            let bands = Some(&mut set);
                            let got = maps_of(run_layer_batch_banded(
                                &layer,
                                &inputs,
                                &sched,
                                &mut scratch,
                                bands,
                            ));
                            let want = oracle::post_gather(
                                scratch.run.outputs(),
                                (10, h * w, b),
                                weight_scale * inputs[0].scale(),
                                channel_scale,
                                channel_bias,
                                relu_on,
                                *out_scale,
                            );
                            let case = format!(
                                "{acc:?} relu {relu_on} mixed {mixed} {shards} lanes {b} of {h}x{w}"
                            );
                            assert_eq!(got.len(), b, "{case}");
                            for (bi, (g, want)) in got.iter().zip(&want).enumerate() {
                                assert_eq!(g.as_slice(), &want[..], "{case} image {bi}");
                                assert_eq!((g.channels(), g.height(), g.width()), (10, h, w));
                                assert_eq!(g.scale(), *out_scale);
                            }
                            // And the oracle of the oracle: the seed plane
                            // through the per-element formula.
                            assert_eq!(want, conv_oracle(&layer, &inputs, &sched), "{case}");
                            scratch.recycle_batch(got);
                        }
                        if !mixed {
                            let fanned = set.busy_nanos().iter().filter(|&&ns| ns > 0).count();
                            assert_eq!(fanned, shards.min(3), "three row-groups cap the fan-out");
                        }
                    }
                }
            }
        }
    }

    /// The finishing step only reads the plane: after a banded conv the
    /// scratch still holds the unsharded kernel's accumulators, word for
    /// word, for stats, oracles and `RunScratch::outputs` callers.
    #[test]
    fn banded_conv_leaves_the_unsharded_plane_in_the_scratch() {
        let mut rng = Rng(9);
        let mut scratch = ActivationScratch::new();
        for acc in [AccumWidth::Bits16, AccumWidth::Bits32] {
            let (sched, layer) = conv_fixture(10, 13, acc, &mut rng);
            let DeployedLayer::PackedConv { tiles, .. } = &layer else {
                panic!("conv fixture");
            };
            let inputs = rng.batch(3, 13, 7, 9);
            let mut reference = RunScratch::new();
            sched.run_prepared_with(tiles, &data_matrix(&inputs), &mut reference);
            for shards in 1..=4 {
                let mut set = BandSet::new(shards);
                let out =
                    run_layer_batch_banded(&layer, &inputs, &sched, &mut scratch, Some(&mut set));
                assert_eq!(scratch.run.outputs(), reference.outputs(), "{acc:?} {shards} lanes");
                scratch.recycle_batch(maps_of(out));
            }
        }
    }

    /// Identity and downsampling residual blocks against the old merge:
    /// oracle body activations, oracle pooled-and-padded shortcut, old
    /// per-element add.
    #[test]
    fn residual_blocks_match_oracle_merge() {
        let mut rng = Rng(4);
        let mut scratch = ActivationScratch::new();
        for (h, w) in [(2, 2), (3, 7), (7, 9), (6, 21), (17, 2)] {
            for b in [1usize, 2, 5, 9] {
                let c = 6;
                let inputs = rng.batch(b, c, h, w);
                let shifts: Vec<(i8, i8)> =
                    (0..c).map(|i| ((i % 3) as i8 - 1, (i / 3) as i8 - 1)).collect();

                // Identity: the shortcut is the block input itself.
                let out_scale = rng.scale();
                let identity = DeployedLayer::Residual {
                    body: vec![
                        DeployedLayer::Shift { shifts: shifts.clone() },
                        DeployedLayer::Relu,
                    ],
                    downsample: false,
                    out_channels: c,
                    out_scale,
                };
                let sched = TiledScheduler::new(ArrayConfig::new(4, 4, AccumWidth::Bits32));
                let out = run_layer_batch_scratch(&identity, &inputs, &sched, &mut scratch);
                let got = maps_of(out);
                for (g, input) in got.iter().zip(&inputs) {
                    let shifted = oracle::shift(&shifts, input);
                    let body = QMap::from_raw(
                        shifted.iter().map(|&q| q.max(0)).collect(),
                        c,
                        h,
                        w,
                        input.scale(),
                    );
                    let want = oracle::residual_add(&body, input, out_scale);
                    assert_eq!(g.as_slice(), &want[..], "identity {h}x{w} batch {b}");
                    assert_eq!(g.scale(), out_scale);
                }
                scratch.recycle_batch(got);

                // Downsampling: pool, widen 6 → 10 channels through a
                // packed conv; the shortcut is pooled and zero-padded.
                let (sched, conv) = conv_fixture(10, c, AccumWidth::Bits32, &mut rng);
                let block = DeployedLayer::Residual {
                    body: vec![DeployedLayer::AvgPool, conv.clone()],
                    downsample: true,
                    out_channels: 10,
                    out_scale,
                };
                let got = maps_of(run_layer_batch_scratch(&block, &inputs, &sched, &mut scratch));
                let pooled: Vec<QMap> = inputs.iter().map(oracle::avgpool).collect();
                let bodies = conv_oracle(&conv, &pooled, &sched);
                let DeployedLayer::PackedConv { out_scale: body_scale, .. } = conv else {
                    panic!("conv fixture");
                };
                for ((g, p), body) in got.iter().zip(&pooled).zip(bodies) {
                    let (oh, ow) = (h / 2, w / 2);
                    let mut padded = p.as_slice().to_vec();
                    padded.resize(10 * oh * ow, 0);
                    let shortcut = QMap::from_raw(padded, 10, oh, ow, p.scale());
                    let body = QMap::from_raw(body, 10, oh, ow, body_scale);
                    let want = oracle::residual_add(&body, &shortcut, out_scale);
                    assert_eq!(g.as_slice(), &want[..], "downsample {h}x{w} batch {b}");
                    assert_eq!((g.channels(), g.height(), g.width()), (10, oh, ow));
                }
                scratch.recycle_batch(got);
            }
        }
    }

    #[test]
    fn pools_and_linear_match_per_element_oracles() {
        let mut rng = Rng(5);
        let mut pool = BufPool::default();
        for (h, w) in PLANES.into_iter().chain([(2, 2), (5, 5), (8, 63), (16, 16)]) {
            let input = rng.map(5, h, w);
            let pooled = run_avgpool(&input, &mut pool);
            assert_eq!(pooled, oracle::avgpool(&input), "avgpool {h}x{w}");
            let global = run_global_pool(&input, &mut pool);
            assert_eq!(global.as_slice(), &oracle::global_pool(&input)[..], "global pool {h}x{w}");
            assert_eq!((global.channels(), global.plane()), (5, 1));

            let feat = 5 * h * w;
            let weights = QuantMatrix::from_raw(
                3,
                feat,
                (0..3 * feat).map(|_| rng.code()).collect(),
                QuantParams::from_max_abs(1.0),
            );
            let bias = [rng.scale(), -rng.scale(), 0.0];
            let logits = run_linear(&weights, 0.01, &bias, &input);
            let want = oracle::linear(&weights, 0.01, &bias, &input);
            assert!(
                logits.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()),
                "linear {h}x{w}: {logits:?} vs {want:?}"
            );
        }
    }

    fn map_from(vals: &[f32], c: usize, h: usize, w: usize) -> QMap {
        let t = Tensor::from_vec(Shape::d3(c, h, w), vals.to_vec());
        let scale = (t.max_abs() / 127.0).max(1e-6);
        QMap::quantize(&t, scale)
    }

    #[test]
    fn shift_moves_quantized_pixels() {
        let m = map_from(&[0.0, 1.0, 0.0, 0.0], 1, 2, 2);
        let out = run_shift(&[(1, 0)], &m, &mut BufPool::default());
        assert_eq!(out.get(0, 1, 1), m.get(0, 0, 1));
        assert_eq!(out.get(0, 0, 1), 0);
    }

    #[test]
    fn avgpool_rounds_integer_mean() {
        let m = QMap::from_raw(vec![1, 2, 3, 5], 1, 2, 2, 1.0);
        let out = run_avgpool(&m, &mut BufPool::default());
        // (1+2+3+5)/4 = 2.75 → 3 with round-half-away
        assert_eq!(out.get(0, 0, 0), 3);
    }

    #[test]
    fn avgpool_negative_rounding_symmetric() {
        let m = QMap::from_raw(vec![-1, -2, -3, -5], 1, 2, 2, 1.0);
        let out = run_avgpool(&m, &mut BufPool::default());
        assert_eq!(out.get(0, 0, 0), -3);
    }

    #[test]
    fn relu_zeroes_negatives() {
        let m = QMap::from_raw(vec![-3, 4], 2, 1, 1, 0.5);
        let out = run_relu(&m, &mut BufPool::default());
        assert_eq!(out.as_slice(), &[0, 4]);
    }

    #[test]
    fn global_pool_averages() {
        let m = QMap::from_raw(vec![4, 4, 4, 8], 1, 2, 2, 1.0);
        let out = run_global_pool(&m, &mut BufPool::default());
        assert_eq!(out.get(0, 0, 0), 5);
        assert_eq!(out.plane(), 1);
    }

    #[test]
    fn linear_matches_float_reference() {
        let w = cc_tensor::Matrix::from_rows(&[&[1.0, -1.0], &[0.5, 0.5]]);
        let qw = QuantMatrix::quantize(&w);
        let m = map_from(&[1.0, 0.5], 2, 1, 1);
        let logits = run_linear(&qw, qw.params().scale(), &[0.0, 0.1], &m);
        assert!((logits[0] - 0.5).abs() < 0.05);
        assert!((logits[1] - 0.85).abs() < 0.05);
    }

    #[test]
    fn pad_channels_zero_fills_and_recycles() {
        let mut pool = BufPool::default();
        let m = QMap::from_raw(vec![7], 1, 1, 1, 1.0);
        let out = pad_channels(m, 3, &mut pool);
        assert_eq!(out.as_slice(), &[7, 0, 0]);
        // The consumed input buffer landed back in the pool.
        assert_eq!(pool.take_zeroed(1).capacity(), 1);
        assert_eq!(pool.reuses(), 1);
    }
}
