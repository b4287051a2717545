//! The benchmark's vocabulary: workload and metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root
//! repeats the names, units, directions and bounds; `tests/smoke.rs`
//! fails when the two disagree.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload: a name and the reason it is in the set.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const COMBINE_LENET: &str = "combine_lenet";
pub const OFFLINE_RESNET: &str = "offline_resnet";
pub const OFFLINE_RESNET_2SHARD: &str = "offline_resnet_2shard";
pub const SERVE_CLOSED: &str = "serve_closed";
pub const SERVE_OPEN: &str = "serve_open";
pub const SERVE_CACHE: &str = "serve_cache";

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: COMBINE_LENET,
        why: "Algorithm 1 on LeNet-5-Shift then int8 deployment: cc-nn training and cc-packing grouping/pruning do all the work here and none in the other workloads",
    },
    Workload {
        name: OFFLINE_RESNET,
        why: "publication-geometry ResNet-20-Shift batches on one array, no serving code: cc-deploy's engine and cc-systolic's kernel do all the work",
    },
    Workload {
        name: OFFLINE_RESNET_2SHARD,
        why: "the same network and batches scattered over two row-band shards: same kernel through the scatter/gather path, so shard overhead shows against offline_resnet",
    },
    Workload {
        name: SERVE_CLOSED,
        why: "small LeNet through Server, one client with 16 requests outstanding, cache off: per-request serving cost is a large share, batches run full",
    },
    Workload {
        name: SERVE_OPEN,
        why: "same server on a seeded Poisson arrival schedule of mean 2500 req/s: deadline-bound partial batches, so holding batches longer shows as worse latency",
    },
    Workload {
        name: SERVE_CACHE,
        why: "same server with the response cache on, 70% Zipf repeats and 30% never-seen inputs: the submit-side path does the work and the array little",
    },
];

/// An end-to-end metric: every workload reports every one of these with
/// tracing off.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
    /// Simulated or counted, not timed: two runs of one commit at one
    /// seed must agree exactly, and `compare` insists on it.
    pub exact: bool,
}

pub const SETUP_S: &str = "setup_s";
pub const IMG_PER_S: &str = "img_per_s";
pub const P50_US: &str = "p50_us";
pub const P90_US: &str = "p90_us";
pub const ACCURACY: &str = "accuracy";
pub const UTIL_EFF: &str = "util_eff";
pub const TILES: &str = "tiles";
pub const SIM_CYCLES_PER_IMG: &str = "sim_cycles_per_img";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: IMG_PER_S,
        unit: "img/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: P50_US,
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: P90_US,
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: ACCURACY,
        unit: "fraction",
        better: Better::Higher,
        bound: 0.15,
        exact: true,
    },
    EndToEnd {
        name: UTIL_EFF,
        unit: "fraction",
        better: Better::Higher,
        bound: 0.10,
        exact: true,
    },
    EndToEnd {
        name: TILES,
        unit: "count",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
    },
    EndToEnd {
        name: SIM_CYCLES_PER_IMG,
        unit: "cycles",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
];

/// A per-layer metric from the traced run. Every workload reports every
/// one; a workload that does not exercise the layer reports 0.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric (and workload) this one should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 54] = [
    // cc-nn / cc-packing: Algorithm 1 replayed through its public steps.
    layer("nn.fit_s", "s", Lower, "img_per_s on combine_lenet"),
    layer("nn.epochs", "count", Lower, "img_per_s on combine_lenet"),
    layer("nn.epoch_ms", "ms", Lower, "img_per_s on combine_lenet"),
    layer(
        "packing.combine_s",
        "s",
        Lower,
        "img_per_s on combine_lenet (its inverse, per training set)",
    ),
    layer(
        "packing.prune_and_pack_s",
        "s",
        Lower,
        "img_per_s on combine_lenet",
    ),
    layer(
        "packing.groups",
        "count",
        Lower,
        "tiles, util_eff, sim_cycles_per_img on combine_lenet",
    ),
    layer(
        "packing.conflicts_pruned",
        "count",
        Lower,
        "accuracy, util_eff on combine_lenet",
    ),
    layer(
        "packing.group_ms_resnet",
        "ms",
        Lower,
        "setup_s on offline_resnet",
    ),
    // cc-systolic: the prepared tiles of every conv replayed alone.
    layer(
        "systolic.kernel_us_per_img",
        "us",
        Lower,
        "img_per_s on offline_resnet, at most its share of deploy.whole_us_per_img",
    ),
    layer(
        "systolic.ns_per_mac",
        "ns",
        Lower,
        "img_per_s on offline_resnet",
    ),
    layer(
        "systolic.mac_ops_per_img",
        "count",
        Lower,
        "follows sparsity; moves no host-time metric by itself",
    ),
    layer(
        "systolic.load_cycle_share",
        "fraction",
        Lower,
        "sim_cycles_per_img",
    ),
    layer(
        "systolic.band2_kernel_us_per_img",
        "us",
        Lower,
        "img_per_s on offline_resnet_2shard",
    ),
    layer(
        "systolic.cycle_ratio_vs_unpacked",
        "ratio",
        Higher,
        "follows sim_cycles_per_img (paper: about 4x)",
    ),
    // cc-deploy: one batch walked layer by layer on captured inputs.
    layer(
        "deploy.whole_us_per_img",
        "us",
        Lower,
        "img_per_s on offline_resnet (its inverse)",
    ),
    layer(
        "deploy.quantize_us_per_img",
        "us",
        Lower,
        "img_per_s on offline_*; img_per_s on serve_closed by serve.bare_ratio",
    ),
    layer(
        "deploy.shift_us_per_img",
        "us",
        Lower,
        "img_per_s on offline_*",
    ),
    layer(
        "deploy.conv_us_per_img",
        "us",
        Lower,
        "img_per_s on offline_*",
    ),
    layer(
        "deploy.conv_wrap_us_per_img",
        "us",
        Lower,
        "img_per_s on offline_* (gather + requantize around the kernel)",
    ),
    layer(
        "deploy.residual_self_us_per_img",
        "us",
        Lower,
        "img_per_s on offline_*",
    ),
    layer(
        "deploy.other_us_per_img",
        "us",
        Lower,
        "img_per_s on offline_*",
    ),
    layer(
        "deploy.unattributed_us_per_img",
        "us",
        Lower,
        "none: whole minus the parts, the attribution's error",
    ),
    layer("deploy.build_s", "s", Lower, "setup_s"),
    layer(
        "deploy.scratch_allocs_steady",
        "count",
        Lower,
        "peak_rss_mb, img_per_s; must be 0",
    ),
    layer(
        "deploy.sim_makespan_cycles_per_img_2shard",
        "cycles",
        Lower,
        "none gated: the busier of two arrays, which moves with the seed's band plan",
    ),
    layer(
        "deploy.shard2_speedup",
        "ratio",
        Higher,
        "img_per_s on offline_resnet_2shard over offline_resnet",
    ),
    layer(
        "hwmodel.energy_eff_ratio",
        "ratio",
        Higher,
        "follows util_eff (paper: about 3x)",
    ),
    // cc-serve.
    layer(
        "serve.bare_rps",
        "img/s",
        Higher,
        "diagnostic: a kernel gain raises this more than img_per_s on serve_closed",
    ),
    layer(
        "serve.bare_ratio",
        "ratio",
        Higher,
        "img_per_s on serve_closed over bare: the serving tax",
    ),
    layer(
        "serve.submit_us_p50",
        "us",
        Lower,
        "img_per_s on serve_cache, serve_closed",
    ),
    layer(
        "serve.queue_us_p50",
        "us",
        Lower,
        "p50_us, p90_us on serve_open",
    ),
    layer(
        "serve.execute_us_p50",
        "us",
        Lower,
        "img_per_s on serve_closed",
    ),
    layer(
        "serve.batch_occupancy",
        "count",
        Higher,
        "img_per_s on serve_closed; p50_us on serve_open the other way",
    ),
    layer("serve.batches", "count", Lower, "img_per_s on serve_*"),
    layer(
        "serve.worker_busy",
        "fraction",
        Higher,
        "img_per_s on serve_closed",
    ),
    layer(
        "serve.cache.hit_share",
        "fraction",
        Higher,
        "img_per_s, p90_us on serve_cache",
    ),
    layer(
        "serve.cache.hit_us_p50",
        "us",
        Lower,
        "img_per_s on serve_cache",
    ),
    layer(
        "serve.cache.miss_us_p50",
        "us",
        Lower,
        "p90_us on serve_cache",
    ),
    layer(
        "serve.cache.coalesced",
        "count",
        Higher,
        "img_per_s on serve_cache",
    ),
    layer(
        "serve.cache.evictions",
        "count",
        Lower,
        "must be 0: see README on the stale-flight race",
    ),
    layer(
        "serve.latency.p99_us",
        "us",
        Lower,
        "none gated: too noisy on a shared box",
    ),
    layer("serve.latency.p999_us", "us", Lower, "none gated"),
    layer(
        "serve.shed",
        "count",
        Lower,
        "accuracy (fail share) on serve_*",
    ),
    layer(
        "serve.hung",
        "count",
        Lower,
        "accuracy (fail share) on serve_*",
    ),
    layer(
        "serve.mismatch",
        "count",
        Lower,
        "accuracy (fail share) on serve_*",
    ),
    layer(
        "serve.open.gen_late_us_p99",
        "us",
        Lower,
        "none: how late the generator itself ran",
    ),
    layer(
        "serve.open.p50_us_r5000",
        "us",
        Lower,
        "latency rises before img_per_s saturates",
    ),
    layer(
        "serve.open.p90_us_r5000",
        "us",
        Lower,
        "latency rises before img_per_s saturates",
    ),
    layer(
        "serve.open.p50_us_r7500",
        "us",
        Lower,
        "latency rises before img_per_s saturates",
    ),
    layer(
        "serve.open.p90_us_r7500",
        "us",
        Lower,
        "latency rises before img_per_s saturates",
    ),
    layer(
        "serve.open.max_rate_ok",
        "req/s",
        Higher,
        "highest rung with p90 under 5 ms, no failure, empty queue at the end",
    ),
    layer(
        "serve.pipeline.rps_2stage",
        "img/s",
        Higher,
        "covers the PipelineExecutor path",
    ),
    layer(
        "serve.trace_overhead_share",
        "fraction",
        Lower,
        "traced over untraced img_per_s on serve_closed, as a loss",
    ),
    layer(
        "serve.cache.entries",
        "count",
        Lower,
        "peak_rss_mb on serve_cache",
    ),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
