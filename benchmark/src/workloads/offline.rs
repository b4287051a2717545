//! `offline_resnet` and `offline_resnet_2shard`: publication-geometry
//! ResNet-20-Shift, batches of eight, no serving code. One array runs
//! `run_batch_scratch`; two shards run `run_batch_banded` over
//! `BandSet::new(2)`.

use super::{layers, timed_setup, Params};
use crate::fixtures::{self, BATCH};
use crate::report::{peak_rss_mib, Outcome, Value};
use crate::spec;
use crate::stats::{phase_stats, Completion};
use cc_deploy::{ActivationScratch, BandSet, DeployedNetwork};
use cc_packing::{group_columns, GroupingConfig};
use cc_tensor::Tensor;
use std::time::Instant;

struct Fixture {
    deployed: DeployedNetwork,
    /// The distinct batches the timed phase cycles through.
    batches: Vec<Vec<Tensor>>,
}

fn setup(p: &Params, shards: usize) -> Fixture {
    let (net, calibration, images) = fixtures::offline_resnet(&p.size, p.seed);
    let deployed = DeployedNetwork::build(&net, &fixtures::paper_groups(&net), &calibration);
    let batches: Vec<Vec<Tensor>> = (0..p.size.offline_batches)
        .map(|b| fixtures::images(&images, b * BATCH, BATCH))
        .collect();
    // Warm-up is part of set-up: the first batch through a cold scratch
    // allocates every buffer the steady state then reuses.
    let mut runner = Runner::new(&deployed, shards);
    runner.run(&batches[0]);
    Fixture { deployed, batches }
}

/// The one call the timed phase repeats, on one array or over shards.
struct Runner<'a> {
    deployed: &'a DeployedNetwork,
    scratch: ActivationScratch,
    bands: Option<BandSet>,
}

impl<'a> Runner<'a> {
    fn new(deployed: &'a DeployedNetwork, shards: usize) -> Self {
        Runner {
            deployed,
            scratch: ActivationScratch::new(),
            bands: (shards > 1).then(|| BandSet::new(shards)),
        }
    }

    fn run(&mut self, batch: &[Tensor]) -> Vec<Vec<f32>> {
        let sched = self.deployed.scheduler();
        match &mut self.bands {
            Some(bands) => self
                .deployed
                .run_batch_banded(&sched, batch, &mut self.scratch, bands),
            None => self
                .deployed
                .run_batch_scratch(&sched, batch, &mut self.scratch),
        }
    }
}

/// Serial per-image logits of every batch: what each timed batch must
/// reproduce bit for bit.
fn references(fx: &Fixture) -> Vec<Vec<Vec<f32>>> {
    fx.batches
        .iter()
        .map(|batch| {
            batch
                .iter()
                .map(|image| fx.deployed.logits(image))
                .collect()
        })
        .collect()
}

fn same_batch(a: &[Vec<f32>], b: &[Vec<f32>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| fixtures::same_bits(x, y))
}

/// Batches for `seconds`, each checked against the serial reference.
fn timed_batches(
    out: &mut Outcome,
    fx: &Fixture,
    runner: &mut Runner<'_>,
    seconds: f64,
) -> Vec<Completion> {
    let reference = references(fx);
    let mut done = Vec::new();
    let mut wrong = 0u64;
    let started = Instant::now();
    let mut i = 0usize;
    while started.elapsed().as_secs_f64() < seconds {
        let which = i % fx.batches.len();
        let t = Instant::now();
        let logits = runner.run(&fx.batches[which]);
        let latency_us = t.elapsed().as_secs_f64() * 1e6;
        done.push(Completion {
            at_s: started.elapsed().as_secs_f64(),
            latency_us,
        });
        wrong += u64::from(!same_batch(&logits, &reference[which]));
        i += 1;
    }
    out.attempted += done.len() as u64;
    out.fail(
        wrong,
        "batch logits differ from serial DeployedNetwork::logits",
    );
    done
}

/// The timed run on one array (`shards` 1) or over two band shards.
pub fn run(p: &Params, shards: usize) -> Outcome {
    let mut out = Outcome::default();
    let fx = timed_setup(&mut out, || setup(p, shards));
    let mut runner = Runner::new(&fx.deployed, shards);
    runner.run(&fx.batches[0]);
    let done = timed_batches(&mut out, &fx, &mut runner, p.seconds);
    out.set_phase(&phase_stats(&done, BATCH as f64));
    out.set_accuracy_from_checks();
    let figures = fixtures::array_figures(&fx.deployed, &fx.batches[0]);
    layers::set_array_figures(&mut out, &figures);
    out.set(spec::PEAK_RSS_MB, Value::exact(peak_rss_mib()));
    out
}

/// Set-up taken apart, then the batch attributed layer by layer.
pub fn trace_one_array(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let (net, calibration, images) = fixtures::offline_resnet(&p.size, p.seed);

    let cfg = GroupingConfig::new(fixtures::ALPHA, fixtures::GAMMA);
    let mut filters = Vec::new();
    net.visit_pointwise_ref(&mut |_, pw| filters.push(pw.filter_matrix()));
    let t = Instant::now();
    let groups: Vec<_> = filters.iter().map(|f| group_columns(f, &cfg)).collect();
    out.set(
        "packing.group_ms_resnet",
        Value::new(t.elapsed().as_secs_f64() * 1e3, filters.len() as u64),
    );
    out.set(
        "packing.groups",
        Value::exact(groups.iter().map(|g| g.len()).sum::<usize>() as f64),
    );

    let t = Instant::now();
    let deployed = DeployedNetwork::build(&net, &groups, &calibration);
    out.set("deploy.build_s", Value::new(t.elapsed().as_secs_f64(), 1));

    let batch = fixtures::images(&images, 0, BATCH);
    layers::attribute(&mut out, &deployed, &batch, p.seconds, false, p.seed);
    let figures = fixtures::array_figures(&deployed, &batch);
    layers::set_packing_gain(&mut out, &net, &calibration, &images, &figures);
    out.attempted = 1;
    out
}

/// Both offline paths for a share of the time each, for the speed-up of
/// one over the other, plus the two-band kernel replay.
pub fn trace_two_shards(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let fx = setup(p, 2);
    let mut rates = [0.0; 2];
    for (slot, shards) in [1usize, 2].into_iter().enumerate() {
        let mut runner = Runner::new(&fx.deployed, shards);
        runner.run(&fx.batches[0]);
        if let Some(bands) = &mut runner.bands {
            bands.reset_stats();
        }
        let done = timed_batches(&mut out, &fx, &mut runner, p.seconds / 4.0);
        rates[slot] = phase_stats(&done, BATCH as f64).rate;
        if let Some(bands) = &runner.bands {
            out.set(
                "deploy.sim_makespan_cycles_per_img_2shard",
                Value::exact(bands.makespan_cycles() as f64 / (done.len() * BATCH) as f64),
            );
        }
    }
    out.set("deploy.shard2_speedup", Value::new(rates[1] / rates[0], 2));
    layers::attribute(
        &mut out,
        &fx.deployed,
        &fx.batches[0],
        p.seconds / 2.0,
        true,
        p.seed,
    );
    out
}
