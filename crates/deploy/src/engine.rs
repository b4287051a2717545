//! The deployed integer inference engine: one enum variant per hardware
//! block of the paper's Fig. 6 system.
//!
//! Every stage executes either on one image or on a whole batch
//! ([`run_layer_batch`]). Batching concatenates the images' spatial
//! positions into one wide data matrix for the systolic array, so a batch
//! of `B` maps shares each layer's weight loads — and because the array is
//! exact integer arithmetic per output column, batched results are
//! bit-identical to running the images one at a time.

use crate::qmap::QMap;
use crate::scratch::{ActivationScratch, BufPool};
use crate::shard::BandSet;
use cc_systolic::tiled::{PreparedPacked, TiledScheduler};
use cc_tensor::quant::{AccumWidth, QuantMatrix, QuantParams};

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

/// Executes one stage on one image. `PackedConv` runs on the tiled
/// systolic simulator; everything else is the corresponding peripheral
/// block.
pub fn run_layer(layer: &DeployedLayer, input: &QMap, sched: &TiledScheduler) -> StageOutput {
    match run_layer_batch(layer, std::slice::from_ref(input), sched) {
        BatchOutput::Maps(mut m) => StageOutput::Map(m.pop().expect("batch of one")),
        BatchOutput::Logits(mut l) => StageOutput::Logits(l.pop().expect("batch of one")),
    }
}

/// Executes one stage on a batch of same-shape images. `PackedConv`
/// concatenates all images' positions into one data matrix so the batch
/// shares each weight tile load; results are bit-identical to running the
/// images individually.
///
/// # Panics
///
/// Panics on an empty batch or if the maps disagree in shape or scale.
pub fn run_layer_batch(
    layer: &DeployedLayer,
    inputs: &[QMap],
    sched: &TiledScheduler,
) -> BatchOutput {
    run_layer_batch_scratch(layer, inputs, sched, &mut ActivationScratch::new())
}

/// [`run_layer_batch`] drawing every output buffer (and the systolic
/// output plane) from a caller-owned [`ActivationScratch`] — the serving
/// hot path, which performs no steady-state allocation once the scratch
/// is warm. Bit-identical to [`run_layer_batch`].
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

/// Result of a stage: another feature map, or the final logits.
#[derive(Clone, Debug)]
pub enum StageOutput {
    /// Intermediate quantized feature map.
    Map(QMap),
    /// Real-valued class logits.
    Logits(Vec<f32>),
}

/// Result of a batched stage: per-image maps or per-image logits.
#[derive(Clone, Debug)]
pub enum BatchOutput {
    /// Intermediate quantized feature maps, one per image.
    Maps(Vec<QMap>),
    /// Real-valued class logits, one vector per image.
    Logits(Vec<Vec<f32>>),
}

fn run_shift(shifts: &[(i8, i8)], input: &QMap, pool: &mut BufPool) -> QMap {
    assert_eq!(shifts.len(), input.channels(), "shift channel mismatch");
    let (c, h, w) = (input.channels(), input.height(), input.width());
    let mut out = pool.take_zeroed(c * h * w);
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
    // A shard set runs the conv through its one scatter/gather path —
    // whatever its width, fleet or fault plane, with the stats accounting
    // the caller reads back — and without one the bare kernel runs; the
    // gathered plane in `scratch.run` is bit-identical either way.
    match bands {
        Some(set) => set.run_conv(sched, tiles, &data, &mut scratch.run),
        None => {
            sched.run_prepared_with(tiles, &data, &mut scratch.run);
        }
    }
    scratch.bufs.recycle(data.into_raw());

    let n = tiles.rows();
    let acc_scale = weight_scale * first.scale();
    let ActivationScratch { run, bufs, shells } = scratch;
    let outputs = run.outputs();
    let mut batch = shells.take(b);
    batch.extend((0..b).map(|bi| {
        let mut out = bufs.take_with_capacity(n * l);
        for ni in 0..n {
            for p in 0..l {
                let acc = outputs[ni * bl + bi * l + p] as f32 * acc_scale;
                let mut real = channel_scale[ni] * acc + channel_bias[ni];
                if relu && real < 0.0 {
                    real = 0.0;
                }
                out.push((real / out_scale).round().clamp(-127.0, 127.0) as i8);
            }
        }
        QMap::from_raw(out, n, h, w, out_scale)
    }));
    batch
}

fn run_avgpool(input: &QMap, pool: &mut BufPool) -> QMap {
    let (c, h, w) = (input.channels(), input.height(), input.width());
    let (oh, ow) = (h / 2, w / 2);
    let mut out = pool.take_zeroed(c * oh * ow);
    for ci in 0..c {
        for y in 0..oh {
            for x in 0..ow {
                let s = input.get(ci, 2 * y, 2 * x) as i32
                    + input.get(ci, 2 * y, 2 * x + 1) as i32
                    + input.get(ci, 2 * y + 1, 2 * x) as i32
                    + input.get(ci, 2 * y + 1, 2 * x + 1) as i32;
                // round-half-away integer division by 4
                let v = if s >= 0 { (s + 2) / 4 } else { (s - 2) / 4 };
                out[(ci * oh + y) * ow + x] = v.clamp(-127, 127) as i8;
            }
        }
    }
    QMap::from_raw(out, c, oh, ow, input.scale())
}

fn run_global_pool(input: &QMap, pool: &mut BufPool) -> QMap {
    let (c, h, w) = (input.channels(), input.height(), input.width());
    let plane = (h * w) as i32;
    let mut out = pool.take_zeroed(c);
    for ci in 0..c {
        let mut s = 0i32;
        for y in 0..h {
            for x in 0..w {
                s += input.get(ci, y, x) as i32;
            }
        }
        let v = if s >= 0 { (s + plane / 2) / plane } else { (s - plane / 2) / plane };
        out[ci] = v.clamp(-127, 127) as i8;
    }
    QMap::from_raw(out, c, 1, 1, input.scale())
}

fn run_relu(input: &QMap, pool: &mut BufPool) -> QMap {
    let mut out = pool.take_with_capacity(input.as_slice().len());
    out.extend(input.as_slice().iter().map(|&q| q.max(0)));
    QMap::from_raw(out, input.channels(), input.height(), input.width(), input.scale())
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

            // Integer add with per-path rescale into the calibrated output
            // scale.
            let (sb, ss) = (h.scale(), shortcut_ref.scale());
            let mut out = scratch.bufs.take_with_capacity(h.as_slice().len());
            out.extend(h.as_slice().iter().zip(shortcut_ref.as_slice()).map(|(&b, &s)| {
                let real = b as f32 * sb + s as f32 * ss;
                (real / out_scale).round().clamp(-127.0, 127.0) as i8
            }));
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
            let mut acc = 0i64;
            for f in 0..feat {
                acc += weights.get(o, f) as i64 * input.as_slice()[f] as i64;
            }
            acc = AccumWidth::Bits32.wrap(acc);
            acc as f32 * acc_scale + bias[o]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_tensor::{Shape, Tensor};

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
