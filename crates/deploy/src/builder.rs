//! Builds a [`DeployedNetwork`] from a trained float network: packs each
//! pointwise layer, folds batch norm into per-channel scale/bias, and
//! calibrates activation scales on sample data.

use crate::engine::{run_layer_batch_scratch, BatchOutput, DeployedLayer};
use crate::qmap::QMap;
use crate::scratch::ActivationScratch;
use crate::shard::BandSet;
use cc_dataset::Dataset;
use cc_nn::layer::LayerKind;
use cc_nn::layers::AvgPool2;
use cc_nn::Network;
use cc_packing::{pack_columns, ColumnGroups};
use cc_systolic::array::{ArrayConfig, QuantPacked};
use cc_systolic::tiled::TiledScheduler;
use cc_tensor::quant::{AccumWidth, QuantMatrix, QuantParams};
use cc_tensor::{Matrix, Shape, Tensor};
use std::sync::Arc;

/// A column-combined network lowered to the integer pipeline of the
/// paper's systolic system (Fig. 6).
///
/// The built pipeline is immutable and lives behind an [`Arc`], so cloning
/// is a pointer bump and a clone can be handed to every serving worker
/// without duplicating weights (the `cc-serve` registry relies on this).
#[derive(Clone, Debug)]
pub struct DeployedNetwork {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    layers: Vec<DeployedLayer>,
    input_scale: f32,
    input_shape: (usize, usize, usize),
    sched: TiledScheduler,
    classes: usize,
}

impl DeployedNetwork {
    /// Lowers `net` using per-layer column `groups`, calibrating
    /// activation scales on up to 16 samples of `calibration`.
    ///
    /// # Panics
    ///
    /// Panics if `groups.len()` differs from the pointwise-layer count or
    /// the calibration set is empty.
    pub fn build(net: &Network, groups: &[ColumnGroups], calibration: &Dataset) -> Self {
        Self::build_with_array(
            net,
            groups,
            calibration,
            ArrayConfig::new(32, 32, AccumWidth::Bits32),
        )
    }

    /// [`DeployedNetwork::build`] with an explicit array configuration.
    pub fn build_with_array(
        net: &Network,
        groups: &[ColumnGroups],
        calibration: &Dataset,
        array: ArrayConfig,
    ) -> Self {
        assert_eq!(groups.len(), net.num_pointwise(), "one group set per pointwise layer");
        assert!(!calibration.is_empty(), "calibration set must be non-empty");

        // Calibration batch (float).
        let n = calibration.len().min(16);
        let img_shape = calibration.image(0).shape();
        let (c, h, w) = (img_shape.dim(0), img_shape.dim(1), img_shape.dim(2));
        let mut batch = Tensor::zeros(Shape::d4(n, c, h, w));
        let chw = c * h * w;
        for i in 0..n {
            batch.as_mut_slice()[i * chw..(i + 1) * chw]
                .copy_from_slice(calibration.image(i).as_slice());
        }
        let input_scale = scale_of(&batch);

        let sched = TiledScheduler::new(array);
        let mut float_net = net.clone();
        let mut ctx = BuildCtx { groups, pw_index: 0, sched };
        let (layers, _) = build_sequence(float_net.layers_mut(), batch, &mut ctx);

        DeployedNetwork {
            inner: Arc::new(Inner {
                layers,
                input_scale,
                input_shape: (c, h, w),
                sched,
                classes: net.num_classes(),
            }),
        }
    }

    /// The `(C, H, W)` image shape the pipeline expects (taken from the
    /// calibration data). Serving admission control validates requests
    /// against this before they reach a worker.
    pub fn input_shape(&self) -> (usize, usize, usize) {
        self.inner.input_shape
    }

    /// The deployed stages.
    pub fn layers(&self) -> &[DeployedLayer] {
        &self.inner.layers
    }

    /// Number of top-level deployed stages (residual blocks count as one).
    pub fn num_layers(&self) -> usize {
        self.inner.layers.len()
    }

    /// An identity token for the *built pipeline*: clones of one build
    /// share it, separate builds differ (it is the `Arc` pointer of the
    /// shared internals). The serving batcher keys batches on this rather
    /// than the model name, so two networks that ever coexist under one
    /// name — e.g. across a registry hot-swap — can never co-batch.
    pub fn identity(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// Estimated execution cost of each top-level layer (see
    /// [`crate::engine::layer_cost`]), walking activation shapes from the
    /// calibrated input shape. Pipelined serving partitions layers into
    /// stages of roughly equal summed cost.
    pub fn layer_costs(&self) -> Vec<u64> {
        let mut shape = self.inner.input_shape;
        self.inner
            .layers
            .iter()
            .map(|layer| {
                let (cost, next) = crate::engine::layer_cost(layer, shape);
                shape = next;
                cost
            })
            .collect()
    }

    /// Quantizes a batch of images into the pipeline's input activations —
    /// the entry point of staged execution ([`DeployedNetwork::run_stage`]).
    pub fn quantize_batch(&self, images: &[Tensor]) -> Vec<QMap> {
        images.iter().map(|im| QMap::quantize(im, self.inner.input_scale)).collect()
    }

    /// Quantizes one image at the pipeline's calibrated input scale — the
    /// exact activations [`DeployedNetwork::run_batch`] would derive for
    /// it. The integer pipeline is deterministic downstream of this map,
    /// so `(identity, map.digest())` fully determines the output logits;
    /// serving keys its response memo-cache on that pair.
    pub fn quantize_input(&self, image: &Tensor) -> QMap {
        QMap::quantize(image, self.inner.input_scale)
    }

    /// [`DeployedNetwork::quantize_batch`] into pooled buffers from a
    /// caller-owned scratch.
    pub fn quantize_batch_scratch(
        &self,
        images: &[Tensor],
        scratch: &mut ActivationScratch,
    ) -> Vec<QMap> {
        let mut out = scratch.shells.take(images.len());
        out.extend(images.iter().map(|im| {
            // Capacity-only: quantize_into fills by extend, so a
            // zero-fill here would be pure waste.
            let storage = scratch.bufs.take_with_capacity(im.as_slice().len());
            QMap::quantize_into(im, self.inner.input_scale, storage)
        }));
        out
    }

    /// Executes the contiguous layer range `range` on a batch of
    /// activations, returning the activations flowing into layer
    /// `range.end` (or logits if the range covers the classifier head).
    /// Every packed conv in the range runs on `scratch`'s [`BandSet`],
    /// which scatters it across its simulated arrays, gathers by row
    /// concatenation and accounts its stats. Every layer's output buffers
    /// come from `scratch`'s pool and each layer's inputs are recycled
    /// into it the moment the layer has consumed them (ping-pong), so a
    /// warm scratch makes staged execution allocation-free.
    ///
    /// Running `0..num_layers()` over [`DeployedNetwork::quantize_batch`]
    /// output is exactly [`DeployedNetwork::run_batch_scratch`] — the
    /// serial path runs this layer loop, so pipelined execution that
    /// splits the range across stages is bit-identical by construction.
    /// Pipelined serving composes stages × shards by giving each stage its
    /// own scratch, and so its own set.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds or starts after the classifier
    /// head already produced logits (`data` is `Logits` with layers left).
    pub fn run_stage(
        &self,
        range: std::ops::Range<usize>,
        mut data: BatchOutput,
        sched: &TiledScheduler,
        scratch: &mut ActivationScratch,
    ) -> BatchOutput {
        assert!(range.end <= self.inner.layers.len(), "stage range out of bounds");
        for layer in &self.inner.layers[range] {
            let maps = match data {
                BatchOutput::Maps(m) => m,
                BatchOutput::Logits(_) => panic!("layers scheduled after the classifier head"),
            };
            data = run_layer_batch_scratch(layer, &maps, sched, scratch);
            scratch.recycle_batch(maps);
        }
        data
    }

    /// The calibrated input activation scale.
    pub fn input_scale(&self) -> f32 {
        self.inner.input_scale
    }

    /// The tiled scheduler this network was prepared for. Serving workers
    /// copy it once and pass it to [`DeployedNetwork::run_stage`] instead
    /// of constructing a scheduler per call.
    pub fn scheduler(&self) -> TiledScheduler {
        self.inner.sched
    }

    /// Runs integer inference on one `(C, H, W)` image, returning logits.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline does not end in a classifier head.
    pub fn logits(&self, image: &Tensor) -> Vec<f32> {
        self.run_batch(std::slice::from_ref(image)).pop().expect("batch of one")
    }

    /// Runs integer inference on a batch of same-shape images, returning
    /// per-image logits. The batch shares every layer's weight-tile loads
    /// on the simulated array, and the results are bit-identical to
    /// calling [`DeployedNetwork::logits`] per image.
    pub fn run_batch(&self, images: &[Tensor]) -> Vec<Vec<f32>> {
        let sched = self.inner.sched;
        self.run_batch_scratch(&sched, images, &mut ActivationScratch::new())
    }

    /// [`DeployedNetwork::run_batch`] with a caller-owned scheduler and
    /// [`ActivationScratch`] — the serving hot path. Quantization, every
    /// layer's activations, and the systolic output planes all draw from
    /// the scratch, so a warm scratch makes whole-network inference free
    /// of steady-state allocations (only the returned logits are fresh).
    /// Every packed conv runs on the scratch's [`BandSet`], whose counters
    /// then hold the batch's. Bit-identical to [`DeployedNetwork::run_batch`].
    ///
    /// # Panics
    ///
    /// Panics if the scheduler's array configuration differs from the one
    /// the network was built for, or the pipeline lacks a classifier head.
    pub fn run_batch_scratch(
        &self,
        sched: &TiledScheduler,
        images: &[Tensor],
        scratch: &mut ActivationScratch,
    ) -> Vec<Vec<f32>> {
        if images.is_empty() {
            return Vec::new();
        }
        let input = BatchOutput::Maps(self.quantize_batch_scratch(images, scratch));
        match self.run_stage(0..self.inner.layers.len(), input, sched, scratch) {
            BatchOutput::Logits(l) => l,
            BatchOutput::Maps(_) => panic!("deployed network has no classifier head"),
        }
    }

    /// [`DeployedNetwork::run_batch_scratch`] on a caller-held set: lends
    /// `bands` to `scratch` for this one call (a swap, no allocation) and
    /// takes it back, panic or not, so `bands` accumulates the batch's
    /// per-shard cycle and busy accounting for the caller to read. The
    /// layered benchmark (`benchmark/`) calls this signature, which is why
    /// it exists beside [`ActivationScratch::bands_mut`].
    ///
    /// # Panics
    ///
    /// As [`DeployedNetwork::run_batch_scratch`].
    pub fn run_batch_banded(
        &self,
        sched: &TiledScheduler,
        images: &[Tensor],
        scratch: &mut ActivationScratch,
        bands: &mut BandSet,
    ) -> Vec<Vec<f32>> {
        std::mem::swap(scratch.bands_mut(), bands);
        let lent = Lent { scratch, bands };
        self.run_batch_scratch(sched, images, lent.scratch)
    }

    /// Predicted class for one image: the arg-max logit, by the rule of
    /// [`cc_nn::loss::predictions`] — NaN compares lowest, so a diverged
    /// network still yields a class; among equal maxima the last wins.
    pub fn classify(&self, image: &Tensor) -> usize {
        arg_max(&self.logits(image))
    }

    /// Classification accuracy of the deployed integer network. Scores the
    /// images 16 at a time through one scratch; a batch's logits are
    /// bit-identical to one image's at a time, so every prediction is
    /// [`DeployedNetwork::classify`]'s.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let sched = self.inner.sched;
        let mut scratch = ActivationScratch::new();
        let mut correct = 0;
        let batches = data.images().chunks(ACCURACY_BATCH).zip(data.labels().chunks(ACCURACY_BATCH));
        for (images, labels) in batches {
            let logits = self.run_batch_scratch(&sched, images, &mut scratch);
            correct += logits.iter().zip(labels).filter(|(l, &label)| arg_max(l) == label).count();
        }
        correct as f64 / data.len() as f64
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.inner.classes
    }
}

/// A set lent to a scratch by [`DeployedNetwork::run_batch_banded`],
/// swapped back on drop.
struct Lent<'a> {
    scratch: &'a mut ActivationScratch,
    bands: &'a mut BandSet,
}

impl Drop for Lent<'_> {
    fn drop(&mut self) {
        std::mem::swap(self.scratch.bands_mut(), self.bands);
    }
}

/// Images [`DeployedNetwork::accuracy`] runs at once.
const ACCURACY_BATCH: usize = 16;

/// The arg-max of `logits` by the rule of [`cc_nn::loss::predictions`]:
/// NaN compares lowest, and among equal maxima the last wins.
fn arg_max(logits: &[f32]) -> usize {
    (0..logits.len())
        .max_by(|&a, &b| {
            let (x, y) = (logits[a], logits[b]);
            x.partial_cmp(&y).unwrap_or_else(|| y.is_nan().cmp(&x.is_nan()))
        })
        .unwrap_or(0)
}

struct BuildCtx<'a> {
    groups: &'a [ColumnGroups],
    pw_index: usize,
    sched: TiledScheduler,
}

/// Singleton (one column per group) groups for every pointwise layer of
/// `net`: deploys the network *without* column combining, i.e. the paper's
/// unpacked baseline. Useful for packed-vs-unpacked serving comparisons.
pub fn identity_groups(net: &Network) -> Vec<ColumnGroups> {
    let mut groups = Vec::new();
    net.visit_pointwise_ref(&mut |_, pw| {
        groups.push(ColumnGroups::singletons(pw.in_channels()));
    });
    groups
}

/// Calibrated activation scale: the 99.9th percentile of magnitudes maps
/// to ±127, which is robust to outliers (per-tensor max calibration can
/// crush the useful resolution of an 8-bit code). A NaN magnitude sorts
/// last; should the percentile land on one, the floor absorbs it.
fn scale_of(t: &Tensor) -> f32 {
    let mut mags: Vec<f32> = t.as_slice().iter().map(|v| v.abs()).collect();
    if mags.is_empty() {
        return 1e-6;
    }
    let idx = ((mags.len() as f64 * 0.999) as usize).min(mags.len() - 1);
    mags.select_nth_unstable_by(idx, f32::total_cmp);
    (mags[idx] / 127.0).max(1e-6)
}

/// Walks a float layer sequence, advancing the calibration activations and
/// emitting deployed stages. Pointwise → [BatchNorm] → [ReLU] runs are
/// fused into a single `PackedConv`.
fn build_sequence(
    layers: &mut [LayerKind],
    mut act: Tensor,
    ctx: &mut BuildCtx<'_>,
) -> (Vec<DeployedLayer>, Tensor) {
    let mut out = Vec::new();
    let mut i = 0;
    while i < layers.len() {
        // Split so the fused lookahead can borrow the tail mutably.
        let (head, tail) = layers[i..].split_first_mut().expect("non-empty");
        match head {
            LayerKind::Shift(s) => {
                out.push(DeployedLayer::Shift { shifts: s.shifts().to_vec() });
                act = s.forward(&act);
                i += 1;
            }
            LayerKind::Pointwise(pw) => {
                let filter = pw.filter_matrix();
                let packed = pack_columns(&filter, &ctx.groups[ctx.pw_index]);
                ctx.pw_index += 1;
                let weight_params = QuantParams::calibrate(filter.as_slice());
                let weights = QuantPacked::quantize_with(&packed, weight_params);

                // Float path through the conv.
                act = pw.forward(&act, false);
                let n = pw.out_channels();
                let mut channel_scale = vec![1.0f32; n];
                let mut channel_bias = vec![0.0f32; n];
                if let Some(bias) = pw.bias() {
                    channel_bias.copy_from_slice(bias.value.as_slice());
                }

                // Fuse a following BatchNorm.
                let mut consumed = 0usize;
                if let Some(LayerKind::BatchNorm(bn)) = tail.first_mut() {
                    for ci in 0..n {
                        let inv_std = 1.0 / (bn.running_var()[ci] + bn.eps()).sqrt();
                        let s = bn.gamma()[ci] * inv_std;
                        channel_scale[ci] = s;
                        channel_bias[ci] =
                            channel_bias[ci] * s + bn.beta()[ci] - s * bn.running_mean()[ci];
                    }
                    act = bn.forward(&act, false);
                    consumed += 1;
                }
                // Fuse a following ReLU.
                let mut relu = false;
                if let Some(LayerKind::Relu(r)) = tail.get_mut(consumed) {
                    relu = true;
                    act = r.forward(&act, false);
                    consumed += 1;
                }

                let out_scale = scale_of(&act);
                out.push(DeployedLayer::PackedConv {
                    tiles: ctx.sched.prepare_packed(&weights),
                    weight_scale: weight_params.scale(),
                    channel_scale,
                    channel_bias,
                    relu,
                    out_scale,
                });
                i += 1 + consumed;
            }
            LayerKind::BatchNorm(_) => {
                panic!("standalone BatchNorm cannot be deployed (must follow a Pointwise)")
            }
            LayerKind::Conv3x3(_) => panic!(
                "standard 3x3 convolutions are a training-side baseline; deploy shift + \
                 pointwise networks instead"
            ),
            LayerKind::Relu(r) => {
                out.push(DeployedLayer::Relu);
                act = r.forward(&act, false);
                i += 1;
            }
            LayerKind::AvgPool(p) => {
                out.push(DeployedLayer::AvgPool);
                act = p.forward(&act, false);
                i += 1;
            }
            LayerKind::GlobalAvgPool(p) => {
                out.push(DeployedLayer::GlobalAvgPool);
                act = p.forward(&act, false);
                i += 1;
            }
            LayerKind::Linear(l) => {
                let wm = Matrix::from_tensor(l.weight().value.clone());
                let params = QuantParams::calibrate(wm.as_slice());
                out.push(DeployedLayer::Linear {
                    weights: QuantMatrix::quantize_with(&wm, params),
                    weight_scale: params.scale(),
                    bias: l.bias().value.as_slice().to_vec(),
                });
                act = l.forward(&act, false);
                i += 1;
            }
            LayerKind::Residual(block) => {
                let downsample = block.is_downsampling();
                let out_channels = block.out_channels();
                let shortcut = shortcut_float(&act, downsample, out_channels);
                let (body, body_act) = build_sequence(block.body_mut(), act.clone(), ctx);
                let mut merged = body_act;
                merged.axpy(1.0, &shortcut);
                let out_scale = scale_of(&merged);
                out.push(DeployedLayer::Residual { body, downsample, out_channels, out_scale });
                act = merged;
                i += 1;
            }
        }
    }
    (out, act)
}

/// Float replica of the residual shortcut for calibration.
fn shortcut_float(x: &Tensor, downsample: bool, out_channels: usize) -> Tensor {
    if !downsample {
        return x.clone();
    }
    let mut pool = AvgPool2::new();
    let pooled = pool.forward(x, false);
    let s = pooled.shape();
    let (b, c, h, w) = (s.dim(0), s.dim(1), s.dim(2), s.dim(3));
    let mut out = Tensor::zeros(Shape::d4(b, out_channels, h, w));
    let hw = h * w;
    for bi in 0..b {
        for ci in 0..c {
            let src = &pooled.as_slice()[(bi * c + ci) * hw..(bi * c + ci + 1) * hw];
            out.as_mut_slice()
                [(bi * out_channels + ci) * hw..(bi * out_channels + ci) * hw + hw]
                .copy_from_slice(src);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_dataset::SyntheticSpec;
    use cc_nn::metrics::accuracy;
    use cc_nn::models::{lenet5_shift, resnet20_shift, ModelConfig};
    use cc_nn::schedule::LrSchedule;
    use cc_nn::train::{TrainConfig, Trainer};
    use cc_packing::{ColumnCombineConfig, ColumnCombiner};

    fn train_and_combine(
        mut net: Network,
        train: &Dataset,
        keep: f64,
    ) -> (Network, Vec<ColumnGroups>) {
        let pre = TrainConfig {
            epochs: 8,
            batch_size: 32,
            schedule: LrSchedule::Constant(0.05),
            ..TrainConfig::default()
        };
        Trainer::new(pre).fit(&mut net, train, None);
        let cfg = ColumnCombineConfig {
            rho: (net.nonzero_conv_weights() as f64 * keep) as usize,
            epochs_per_iteration: 2,
            final_epochs: 4,
            eta: 0.05,
            ..ColumnCombineConfig::default()
        };
        let (_, groups, _) = ColumnCombiner::new(cfg).run(&mut net, train, None);
        (net, groups)
    }

    /// A NaN logit (here a NaN classifier bias) must neither panic
    /// `classify` / `accuracy` nor win the arg-max.
    #[test]
    fn nan_logit_never_wins_and_never_panics() {
        let (train, test) =
            SyntheticSpec::mnist_like().with_size(8, 8).with_samples(32, 8).generate(3);
        let mut net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
        let mut params = 0;
        net.visit_params(&mut |_| params += 1);
        let mut seen = 0;
        net.visit_params(&mut |p| {
            seen += 1;
            if seen == params {
                assert_eq!(p.len(), 10, "the last parameter is the classifier bias");
                p.value.as_mut_slice()[3] = f32::NAN;
            }
        });
        let deployed = DeployedNetwork::build(&net, &identity_groups(&net), &train);
        for i in 0..test.len() {
            let logits = deployed.logits(test.image(i));
            assert!(logits[3].is_nan());
            let want = cc_nn::loss::predictions(&Tensor::from_vec(Shape::d4(1, 10, 1, 1), logits));
            assert_eq!(deployed.classify(test.image(i)), want[0]);
            assert_ne!(want[0], 3, "NaN never wins");
        }
        assert!((0.0..=1.0).contains(&deployed.accuracy(&test)));
    }

    /// A NaN in the calibration activations must not panic `build`: NaN
    /// magnitudes sort last and the scale floor absorbs a NaN percentile.
    #[test]
    fn nan_calibration_activation_does_not_panic_build() {
        let mut t = Tensor::from_vec(Shape::d3(1, 2, 2), vec![0.5, f32::NAN, -2.54, 1.0]);
        assert_eq!(scale_of(&t), 1e-6, "four magnitudes: the percentile is the NaN");
        t.as_mut_slice()[1] = 0.0;
        assert_eq!(scale_of(&t), 2.54 / 127.0);

        let (train, _) = SyntheticSpec::mnist_like().with_size(8, 8).with_samples(16, 4).generate(5);
        let mut images: Vec<Tensor> = (0..train.len()).map(|i| train.image(i).clone()).collect();
        images[0].as_mut_slice()[7] = f32::NAN;
        let poisoned = Dataset::new(images, train.labels().to_vec(), train.num_classes());
        let net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
        let deployed = DeployedNetwork::build(&net, &identity_groups(&net), &poisoned);
        assert!(deployed.classify(train.image(1)) < 10);
    }

    /// Scoring in batches through one scratch gives exactly the per-image
    /// `classify` count, over a held-out set that ends in a short batch.
    #[test]
    fn accuracy_agrees_with_per_image_classify() {
        let (train, test) =
            SyntheticSpec::mnist_like().with_size(8, 8).with_samples(128, 37).generate(9);
        let mut net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 32,
            schedule: LrSchedule::Constant(0.05),
            ..TrainConfig::default()
        };
        Trainer::new(cfg).fit(&mut net, &train, None);
        let deployed = DeployedNetwork::build(&net, &identity_groups(&net), &train);
        let correct =
            (0..test.len()).filter(|&i| deployed.classify(test.image(i)) == test.label(i)).count();
        assert!(correct > 0, "a network that gets some images right");
        assert_eq!(deployed.accuracy(&test), correct as f64 / test.len() as f64);
    }

    #[test]
    fn deployed_lenet_matches_float_accuracy_closely() {
        let (train, test) =
            SyntheticSpec::mnist_like().with_size(10, 10).with_samples(384, 128).generate(17);
        let net = lenet5_shift(&ModelConfig::tiny(1, 10, 10, 10).with_width(0.5));
        let (mut net, groups) = train_and_combine(net, &train, 0.4);
        let float_acc = accuracy(&mut net, &test, 64);

        let deployed = DeployedNetwork::build(&net, &groups, &train);
        let int_acc = deployed.accuracy(&test);

        assert!(
            int_acc > float_acc - 0.10,
            "quantized deployment lost too much: float {float_acc:.3} vs int {int_acc:.3}"
        );
        assert!(int_acc > 0.3, "deployed accuracy implausibly low: {int_acc}");
    }

    #[test]
    fn deployed_resnet_runs_residual_path() {
        let (train, test) =
            SyntheticSpec::cifar_like().with_size(8, 8).with_samples(256, 64).generate(21);
        let net = resnet20_shift(&ModelConfig::tiny(3, 8, 8, 10));
        let (mut net, groups) = train_and_combine(net, &train, 0.5);
        let float_acc = accuracy(&mut net, &test, 64);

        let deployed = DeployedNetwork::build(&net, &groups, &train);
        let int_acc = deployed.accuracy(&test);
        assert!(
            int_acc > float_acc - 0.20,
            "residual deployment degraded: float {float_acc:.3} vs int {int_acc:.3}"
        );
    }

    #[test]
    fn logits_are_finite_and_classes_match() {
        let (train, test) =
            SyntheticSpec::mnist_like().with_size(8, 8).with_samples(64, 8).generate(5);
        let mut net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
        let cfg = ColumnCombineConfig {
            rho: net.nonzero_conv_weights() / 2,
            epochs_per_iteration: 1,
            final_epochs: 1,
            ..ColumnCombineConfig::default()
        };
        let (_, groups, _) = ColumnCombiner::new(cfg).run(&mut net, &train, None);
        let deployed = DeployedNetwork::build(&net, &groups, &train);
        let logits = deployed.logits(test.image(0));
        assert_eq!(logits.len(), 10);
        assert!(logits.iter().all(|v| v.is_finite()));
        assert_eq!(deployed.num_classes(), 10);
    }

    /// Compile-time guarantee that the engine types can be shared across
    /// serving threads: a registry hands `Arc`s of these to every worker.
    #[test]
    fn engine_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DeployedNetwork>();
        assert_send_sync::<DeployedLayer>();
        assert_send_sync::<QMap>();
        assert_send_sync::<TiledScheduler>();
        assert_send_sync::<QuantPacked>();
        assert_send_sync::<cc_systolic::tiled::PreparedPacked>();
        assert_send_sync::<cc_systolic::array::ArrayConfig>();
    }

    #[test]
    fn clone_shares_pipeline_storage() {
        let (train, _) =
            SyntheticSpec::mnist_like().with_size(8, 8).with_samples(32, 8).generate(7);
        let net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
        let deployed = DeployedNetwork::build(&net, &identity_groups(&net), &train);
        let cloned = deployed.clone();
        assert!(Arc::ptr_eq(&deployed.inner, &cloned.inner), "clone must be an Arc bump");
    }

    #[test]
    fn batch_inference_is_bit_identical_to_serial() {
        let (train, test) =
            SyntheticSpec::mnist_like().with_size(8, 8).with_samples(64, 12).generate(8);
        let mut net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
        let cfg = ColumnCombineConfig {
            rho: net.nonzero_conv_weights() / 2,
            epochs_per_iteration: 1,
            final_epochs: 0,
            ..ColumnCombineConfig::default()
        };
        let (_, groups, _) = ColumnCombiner::new(cfg).run(&mut net, &train, None);
        let deployed = DeployedNetwork::build(&net, &groups, &train);

        let images: Vec<Tensor> = (0..test.len()).map(|i| test.image(i).clone()).collect();
        let batched = deployed.run_batch(&images);
        assert_eq!(batched.len(), images.len());
        for (i, logits) in batched.iter().enumerate() {
            assert_eq!(logits, &deployed.logits(&images[i]), "image {i} diverged in batch");
        }
        assert!(deployed.run_batch(&[]).is_empty());
    }

    #[test]
    fn batch_inference_on_residual_network_is_bit_identical() {
        let (train, test) =
            SyntheticSpec::cifar_like().with_size(8, 8).with_samples(48, 6).generate(9);
        let mut net = resnet20_shift(&ModelConfig::tiny(3, 8, 8, 10));
        let cfg = ColumnCombineConfig {
            rho: net.nonzero_conv_weights() / 2,
            epochs_per_iteration: 1,
            final_epochs: 0,
            ..ColumnCombineConfig::default()
        };
        let (_, groups, _) = ColumnCombiner::new(cfg).run(&mut net, &train, None);
        let deployed = DeployedNetwork::build(&net, &groups, &train);

        let images: Vec<Tensor> = (0..test.len()).map(|i| test.image(i).clone()).collect();
        for (i, logits) in deployed.run_batch(&images).iter().enumerate() {
            assert_eq!(logits, &deployed.logits(&images[i]), "image {i} diverged in batch");
        }
    }

    #[test]
    fn staged_execution_matches_serial_at_every_split() {
        let (train, test) =
            SyntheticSpec::mnist_like().with_size(8, 8).with_samples(48, 6).generate(12);
        let net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
        let deployed = DeployedNetwork::build(&net, &identity_groups(&net), &train);
        let images: Vec<Tensor> = (0..test.len()).map(|i| test.image(i).clone()).collect();
        let serial = deployed.run_batch(&images);
        let sched = deployed.scheduler();
        let n = deployed.num_layers();
        assert!(n >= 2, "lenet should deploy to multiple stages");

        // Every contiguous two-way split must reproduce the serial logits
        // bit for bit.
        let mut scratch = ActivationScratch::new();
        for split in 0..=n {
            let mid = deployed.run_stage(
                0..split,
                BatchOutput::Maps(deployed.quantize_batch(&images)),
                &sched,
                &mut scratch,
            );
            let out = deployed.run_stage(split..n, mid, &sched, &mut scratch);
            match out {
                BatchOutput::Logits(l) => assert_eq!(l, serial, "split at {split} diverged"),
                BatchOutput::Maps(_) => panic!("full range must end in logits"),
            }
        }
    }

    /// The scratch path must be bit-identical to the allocating path on
    /// both plain and residual networks.
    #[test]
    fn scratch_inference_is_bit_identical() {
        let (train, test) =
            SyntheticSpec::cifar_like().with_size(8, 8).with_samples(48, 6).generate(23);
        let mut net = resnet20_shift(&ModelConfig::tiny(3, 8, 8, 10));
        let cfg = ColumnCombineConfig {
            rho: net.nonzero_conv_weights() / 2,
            epochs_per_iteration: 1,
            final_epochs: 0,
            ..ColumnCombineConfig::default()
        };
        let (_, groups, _) = ColumnCombiner::new(cfg).run(&mut net, &train, None);
        let deployed = DeployedNetwork::build(&net, &groups, &train);
        let images: Vec<Tensor> = (0..test.len()).map(|i| test.image(i).clone()).collect();
        let serial = deployed.run_batch(&images);
        let sched = deployed.scheduler();
        let mut scratch = ActivationScratch::new();
        for round in 0..3 {
            assert_eq!(
                deployed.run_batch_scratch(&sched, &images, &mut scratch),
                serial,
                "scratch round {round} diverged"
            );
        }
    }

    /// Every conv's sequential stats over `batch` images, residual bodies
    /// included, folded as the band set folds them.
    fn sequential_sum(
        layers: &[DeployedLayer],
        mut shape: (usize, usize, usize),
        batch: usize,
        sum: &mut cc_systolic::SimStats,
    ) {
        for layer in layers {
            match layer {
                DeployedLayer::PackedConv { tiles, .. } => {
                    sum.merge(&tiles.sequential_stats(batch * shape.1 * shape.2));
                }
                DeployedLayer::Residual { body, .. } => sequential_sum(body, shape, batch, sum),
                _ => {}
            }
            shape = crate::engine::layer_cost(layer, shape).1;
        }
    }

    /// The scratch's own one-lane set accounts every conv of a batch: its
    /// merged stats equal a lent `BandSet::new(1)`'s and the sum of each
    /// conv's sequential stats, with the logits bit-identical.
    #[test]
    fn scratch_batch_accounts_every_conv_on_its_own_set() {
        let (train, test) =
            SyntheticSpec::cifar_like().with_size(8, 8).with_samples(48, 5).generate(25);
        let net = resnet20_shift(&ModelConfig::tiny(3, 8, 8, 10));
        let deployed = DeployedNetwork::build(&net, &identity_groups(&net), &train);
        let images: Vec<Tensor> = (0..test.len()).map(|i| test.image(i).clone()).collect();
        let sched = deployed.scheduler();

        let mut scratch = ActivationScratch::new();
        let own = deployed.run_batch_scratch(&sched, &images, &mut scratch);
        let mut lent = BandSet::new(1);
        let banded =
            deployed.run_batch_banded(&sched, &images, &mut ActivationScratch::new(), &mut lent);
        let mut want = cc_systolic::SimStats::default();
        sequential_sum(deployed.layers(), deployed.input_shape(), images.len(), &mut want);

        assert!(want.cycles > 0, "the network has convs");
        assert_eq!(scratch.bands_mut().merged_stats(), lent.merged_stats());
        assert_eq!(scratch.bands_mut().merged_stats(), want);
        let bits = |l: &[Vec<f32>]| l.iter().flatten().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&own), bits(&banded));
        assert_eq!(bits(&own), bits(&deployed.run_batch(&images)));
    }

    /// The acceptance invariant of the scratch path: once warm, inference
    /// performs zero steady-state activation allocations — the pool serves
    /// every buffer request.
    #[test]
    fn warm_scratch_performs_zero_steady_state_allocations() {
        let (train, test) =
            SyntheticSpec::mnist_like().with_size(8, 8).with_samples(48, 8).generate(24);
        let net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
        let deployed = DeployedNetwork::build(&net, &identity_groups(&net), &train);
        let images: Vec<Tensor> = (0..4).map(|i| test.image(i).clone()).collect();
        let sched = deployed.scheduler();
        let mut scratch = ActivationScratch::new();

        // Warm-up: the pool learns the inference's buffer-size profile.
        for _ in 0..2 {
            deployed.run_batch_scratch(&sched, &images, &mut scratch);
        }
        let warm_allocations = scratch.buffer_allocations();
        let warm_shells = scratch.shell_allocations();
        let warm_reuses = scratch.buffer_reuses();
        assert!(warm_allocations > 0, "warm-up must have populated the pool");
        assert!(warm_shells > 0, "warm-up must have populated the shell arena");

        for round in 0..5 {
            deployed.run_batch_scratch(&sched, &images, &mut scratch);
            assert_eq!(
                scratch.buffer_allocations(),
                warm_allocations,
                "steady-state inference allocated a buffer on round {round}"
            );
            assert_eq!(
                scratch.shell_allocations(),
                warm_shells,
                "steady-state inference allocated a batch shell on round {round}"
            );
        }
        assert!(
            scratch.buffer_reuses() > warm_reuses,
            "steady-state inference must be served from the pool"
        );
        assert!(scratch.shell_reuses() > 0, "shell arena must serve the hot path");
    }

    #[test]
    fn layer_costs_cover_every_layer_and_rank_convs_heaviest() {
        let (train, _) =
            SyntheticSpec::mnist_like().with_size(8, 8).with_samples(32, 8).generate(13);
        let net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
        let deployed = DeployedNetwork::build(&net, &identity_groups(&net), &train);
        let costs = deployed.layer_costs();
        assert_eq!(costs.len(), deployed.num_layers());
        assert!(costs.iter().all(|&c| c > 0), "every layer must carry nonzero cost");
        // The packed convolutions dominate the peripheral blocks.
        let max_conv = deployed
            .layers()
            .iter()
            .zip(&costs)
            .filter(|(l, _)| matches!(l, DeployedLayer::PackedConv { .. }))
            .map(|(_, &c)| c)
            .max()
            .expect("lenet has packed convs");
        let max_relu = deployed
            .layers()
            .iter()
            .zip(&costs)
            .filter(|(l, _)| matches!(l, DeployedLayer::Relu))
            .map(|(_, &c)| c)
            .max();
        if let Some(relu) = max_relu {
            assert!(max_conv > relu, "conv cost {max_conv} should exceed relu cost {relu}");
        }
    }

    #[test]
    fn identity_is_shared_by_clones_and_distinct_across_builds() {
        let (train, _) =
            SyntheticSpec::mnist_like().with_size(8, 8).with_samples(32, 8).generate(14);
        let net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
        let a = DeployedNetwork::build(&net, &identity_groups(&net), &train);
        let b = DeployedNetwork::build(&net, &identity_groups(&net), &train);
        assert_eq!(a.identity(), a.clone().identity(), "clones share the pipeline");
        assert_ne!(a.identity(), b.identity(), "separate builds are distinct pipelines");
    }

    #[test]
    fn build_is_deterministic() {
        let (train, _) =
            SyntheticSpec::mnist_like().with_size(8, 8).with_samples(32, 8).generate(6);
        let mut net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
        let cfg = ColumnCombineConfig {
            rho: net.nonzero_conv_weights() / 2,
            epochs_per_iteration: 1,
            final_epochs: 0,
            ..ColumnCombineConfig::default()
        };
        let (_, groups, _) = ColumnCombiner::new(cfg).run(&mut net, &train, None);
        let a = DeployedNetwork::build(&net, &groups, &train);
        let b = DeployedNetwork::build(&net, &groups, &train);
        assert_eq!(a.input_scale(), b.input_scale());
        assert_eq!(a.logits(train.image(0)), b.logits(train.image(0)));
    }
}
