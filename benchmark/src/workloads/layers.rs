//! Per-layer attribution of one deployed network, taken from outside: the
//! whole batch timed alone, then the same batch walked layer by layer
//! through `cc-deploy`'s public engine entry, then every conv's prepared
//! tiles replayed through `cc-systolic`'s kernel entry at the layer's real
//! stream length. Each level is reported as what it adds over the one
//! below it running alone.

use crate::fixtures::{self, ArrayFigures, BATCH};
use crate::inputs::Rng;
use crate::report::{Outcome, Value};
use crate::spec;
use crate::stats::median;
use cc_dataset::Dataset;
use cc_deploy::engine::run_layer_batch_scratch;
use cc_deploy::{
    identity_groups, ActivationScratch, BatchOutput, DeployedLayer, DeployedNetwork, QMap,
};
use cc_hwmodel::asic::AsicDesign;
use cc_nn::Network;
use cc_systolic::{PreparedPacked, RunScratch, SimStats, TiledScheduler};
use cc_tensor::quant::{QuantMatrix, QuantParams};
use cc_tensor::Tensor;
use std::time::Instant;

/// Sets the three array-currency end-to-end metrics.
pub fn set_array_figures(out: &mut Outcome, figures: &ArrayFigures) {
    out.set(spec::UTIL_EFF, Value::exact(figures.stats.utilization()));
    out.set(spec::TILES, Value::exact(figures.tiles as f64));
    out.set(
        spec::SIM_CYCLES_PER_IMG,
        Value::exact(figures.sim_cycles_per_img()),
    );
}

/// Deploys `net` once more with singleton groups (the unpacked baseline)
/// and sets what packing bought on the array: simulated cycles and the
/// ASIC model's energy efficiency, packed over unpacked.
pub fn set_packing_gain(
    out: &mut Outcome,
    net: &Network,
    calibration: &Dataset,
    images: &Dataset,
    packed: &ArrayFigures,
) {
    let unpacked_net = DeployedNetwork::build(net, &identity_groups(net), calibration);
    let unpacked = fixtures::array_figures(&unpacked_net, &fixtures::images(images, 0, BATCH));
    let design = AsicDesign::paper_32x32();
    let energy = |f: &ArrayFigures| {
        design
            .evaluate(&f.stats, f.weight_words, BATCH as u64)
            .energy_eff_fps_per_j
    };
    out.set(
        "systolic.cycle_ratio_vs_unpacked",
        Value::exact(unpacked.stats.cycles as f64 / packed.stats.cycles.max(1) as f64),
    );
    out.set(
        "hwmodel.energy_eff_ratio",
        Value::exact(energy(packed) / energy(&unpacked)),
    );
}

/// Host seconds of one batch by the kind of layer that spent them.
#[derive(Clone, Copy, Debug, Default)]
struct Parts {
    quantize: f64,
    shift: f64,
    conv: f64,
    residual_self: f64,
    other: f64,
}

impl Parts {
    fn layers(&self) -> f64 {
        self.shift + self.conv + self.residual_self + self.other
    }
}

/// A packed conv met on the walk, with the data shape it really sees.
struct ConvSite<'a> {
    tiles: &'a PreparedPacked,
    channels: usize,
    /// Batch images times spatial positions.
    stream: usize,
}

struct Walk<'a> {
    sched: TiledScheduler,
    scratch: ActivationScratch,
    parts: Parts,
    /// Filled on the first walk only.
    sites: Option<Vec<ConvSite<'a>>>,
}

impl<'a> Walk<'a> {
    /// Runs one layer on `inputs` with a clock around it. A residual
    /// block is timed whole, then its body is walked again on the same
    /// inputs so that the block's own cost is the whole minus its body.
    fn layer(&mut self, layer: &'a DeployedLayer, inputs: &[QMap]) -> BatchOutput {
        let started = Instant::now();
        let output = run_layer_batch_scratch(layer, inputs, &self.sched, &mut self.scratch);
        let took = started.elapsed().as_secs_f64();
        match layer {
            DeployedLayer::Shift { .. } => self.parts.shift += took,
            DeployedLayer::PackedConv { tiles, .. } => {
                self.parts.conv += took;
                if let Some(sites) = &mut self.sites {
                    sites.push(ConvSite {
                        tiles,
                        channels: inputs[0].channels(),
                        stream: inputs.len() * inputs[0].plane(),
                    });
                }
            }
            DeployedLayer::Residual { body, .. } => {
                let before = self.parts.layers();
                let mut held: Option<Vec<QMap>> = None;
                for stage in body {
                    let source = held.as_deref().unwrap_or(inputs);
                    let BatchOutput::Maps(next) = self.layer(stage, source) else {
                        panic!("classifier inside a residual body");
                    };
                    if let Some(consumed) = held.replace(next) {
                        self.scratch.recycle_batch(consumed);
                    }
                }
                if let Some(last) = held {
                    self.scratch.recycle_batch(last);
                }
                self.parts.residual_self += took - (self.parts.layers() - before);
            }
            _ => self.parts.other += took,
        }
        output
    }

    /// One batch, quantize to logits, every top-level layer timed.
    fn batch(&mut self, deployed: &'a DeployedNetwork, images: &[Tensor]) -> Parts {
        self.parts = Parts::default();
        let started = Instant::now();
        let mut maps = deployed.quantize_batch_scratch(images, &mut self.scratch);
        self.parts.quantize = started.elapsed().as_secs_f64();
        for layer in deployed.layers() {
            match self.layer(layer, &maps) {
                BatchOutput::Maps(next) => {
                    self.scratch
                        .recycle_batch(std::mem::replace(&mut maps, next));
                }
                BatchOutput::Logits(logits) => {
                    std::hint::black_box(logits);
                    break;
                }
            }
        }
        self.scratch.recycle_batch(maps);
        self.parts
    }
}

/// Random int8 data of a conv's real shape: kernel time depends on the
/// weights' sparsity and the stream length, not on data values.
fn replay_data(site: &ConvSite<'_>, rng: &mut Rng) -> QuantMatrix {
    let data = (0..site.channels * site.stream)
        .map(|_| (rng.next_u64() % 255) as i8)
        .collect();
    QuantMatrix::from_raw(
        site.channels,
        site.stream,
        data,
        QuantParams::from_max_abs(1.0),
    )
}

/// Every conv's tiles through the kernel alone, over `bands` row-band
/// shards, on data of the shape the walk saw.
struct Replay<'a> {
    sched: &'a TiledScheduler,
    sites: &'a [ConvSite<'a>],
    data: Vec<QuantMatrix>,
    plans: Vec<Vec<cc_systolic::RowBand>>,
    primary: RunScratch,
    aux: Vec<RunScratch>,
    band_stats: Vec<SimStats>,
    busy: Vec<u64>,
}

impl<'a> Replay<'a> {
    fn new(sched: &'a TiledScheduler, sites: &'a [ConvSite<'a>], bands: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x6b65_726e);
        Replay {
            sched,
            sites,
            data: sites.iter().map(|s| replay_data(s, &mut rng)).collect(),
            plans: sites
                .iter()
                .map(|s| s.tiles.partition_row_bands(bands))
                .collect(),
            primary: RunScratch::new(),
            aux: vec![RunScratch::new(); bands.saturating_sub(1)],
            band_stats: vec![SimStats::default(); bands],
            busy: vec![0u64; bands],
        }
    }

    /// One replay of the whole network's convs: seconds taken and, on one
    /// array, the merged counters.
    fn once(&mut self) -> (f64, SimStats) {
        let mut merged = SimStats::default();
        let started = Instant::now();
        for ((site, d), plan) in self.sites.iter().zip(&self.data).zip(&self.plans) {
            if self.band_stats.len() == 1 {
                merged.merge(
                    &self
                        .sched
                        .run_prepared_with(site.tiles, d, &mut self.primary),
                );
            } else {
                self.sched.run_bands_with(
                    site.tiles,
                    plan,
                    d,
                    &mut self.primary,
                    &mut self.aux,
                    &mut self.band_stats,
                    &mut self.busy,
                );
            }
            std::hint::black_box(self.primary.outputs());
        }
        (started.elapsed().as_secs_f64(), merged)
    }
}

/// Whole batch, layer walk and kernel replay of `deployed` on `images`,
/// within about `budget_s`. Sets the `deploy.*` attribution and the
/// `systolic.*` kernel metrics; with `bands2`, the two-band replay too.
pub fn attribute(
    out: &mut Outcome,
    deployed: &DeployedNetwork,
    images: &[Tensor],
    budget_s: f64,
    bands2: bool,
    seed: u64,
) {
    let per_img = |seconds: f64| seconds * 1e6 / images.len() as f64;
    let sched = deployed.scheduler();

    // Warm every level once: the whole network as `offline_resnet` runs
    // it, the same batch one engine call per layer (which also finds the
    // convs), and every conv's tiles through the kernel alone.
    let mut scratch = ActivationScratch::new();
    deployed.run_batch_scratch(&sched, images, &mut scratch);
    let allocs_warm = scratch.buffer_allocations();
    let mut walk = Walk {
        sched: deployed.scheduler(),
        scratch: ActivationScratch::new(),
        parts: Parts::default(),
        sites: Some(Vec::new()),
    };
    walk.batch(deployed, images);
    let sites = walk
        .sites
        .take()
        .expect("first walk collects the conv sites");
    let mut kernel = Replay::new(&sched, &sites, 1, seed);

    // The three levels take turns, so that a slow spell of the machine
    // falls on all of them and the differences between their medians stay
    // clean. The two-band replay runs after them, not among them: its
    // second thread would disturb whichever level came next.
    let levels_s = budget_s * if bands2 { 0.75 } else { 1.0 };
    let (mut whole, mut walks, mut kernel_s) = (vec![], vec![], vec![]);
    let mut kernel_stats = SimStats::default();
    let started = Instant::now();
    while whole.len() < 3 || started.elapsed().as_secs_f64() < levels_s {
        let t = Instant::now();
        std::hint::black_box(deployed.run_batch_scratch(&sched, images, &mut scratch));
        whole.push(t.elapsed().as_secs_f64());
        walks.push(walk.batch(deployed, images));
        let (seconds, stats) = kernel.once();
        kernel_s.push(seconds);
        kernel_stats = stats;
    }
    let mut band2_s = Vec::new();
    if bands2 {
        let mut kernel2 = Replay::new(&sched, &sites, 2, seed);
        while band2_s.len() < 3 || started.elapsed().as_secs_f64() < budget_s {
            band2_s.push(kernel2.once().0);
        }
    }
    let allocs_steady = scratch.buffer_allocations() - allocs_warm;
    let part = |pick: fn(&Parts) -> f64| median(&walks.iter().map(pick).collect::<Vec<_>>());
    let kernel_s = median(&kernel_s);

    let n = walks.len() as u64;
    let whole_us = per_img(median(&whole));
    let parts_us = [
        ("deploy.quantize_us_per_img", per_img(part(|p| p.quantize))),
        ("deploy.shift_us_per_img", per_img(part(|p| p.shift))),
        ("deploy.conv_us_per_img", per_img(part(|p| p.conv))),
        (
            "deploy.residual_self_us_per_img",
            per_img(part(|p| p.residual_self)),
        ),
        ("deploy.other_us_per_img", per_img(part(|p| p.other))),
    ];
    let attributed: f64 = parts_us.iter().map(|(_, v)| v).sum();
    let conv_us = parts_us[2].1;
    for &(name, value) in &parts_us {
        out.set(name, Value::new(value, n));
    }
    out.set(
        "deploy.whole_us_per_img",
        Value::new(whole_us, whole.len() as u64),
    );
    out.set(
        "deploy.unattributed_us_per_img",
        Value::new(whole_us - attributed, n),
    );
    out.set(
        "deploy.scratch_allocs_steady",
        Value::exact(allocs_steady as f64),
    );
    out.set(
        "deploy.conv_wrap_us_per_img",
        Value::new(conv_us - per_img(kernel_s), n),
    );
    out.set(
        "systolic.kernel_us_per_img",
        Value::new(per_img(kernel_s), n),
    );
    out.set(
        "systolic.ns_per_mac",
        Value::new(kernel_s * 1e9 / kernel_stats.mac_ops.max(1) as f64, n),
    );
    out.set(
        "systolic.mac_ops_per_img",
        Value::exact(kernel_stats.mac_ops as f64 / images.len() as f64),
    );
    out.set(
        "systolic.load_cycle_share",
        Value::exact(kernel_stats.load_cycles as f64 / kernel_stats.cycles.max(1) as f64),
    );
    if bands2 {
        out.set(
            "systolic.band2_kernel_us_per_img",
            Value::new(per_img(median(&band2_s)), band2_s.len() as u64),
        );
    }

    out.notes.push(format!(
        "attribution us/img: whole {whole_us:.1} = quantize {:.1} + shift {:.1} + conv {:.1} (kernel {:.1} + wrap {:.1}) + residual_self {:.1} + other {:.1} + unattributed {:.1} ({:.1}% of whole)",
        parts_us[0].1,
        parts_us[1].1,
        conv_us,
        per_img(kernel_s),
        conv_us - per_img(kernel_s),
        parts_us[3].1,
        parts_us[4].1,
        whole_us - attributed,
        100.0 * (whole_us - attributed) / whole_us,
    ));
}
