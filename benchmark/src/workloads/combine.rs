//! `combine_lenet`: the researcher's path. Algorithm 1 on LeNet-5-Shift,
//! then `DeployedNetwork::build` and int8 accuracy on the held-out set.

use super::{layers, timed_setup, Params};
use crate::fixtures::{self, ArrayFigures, ALPHA, BATCH, GAMMA};
use crate::report::{peak_rss_mib, Outcome, Value};
use crate::spec;
use crate::stats::{self, phase_stats, Completion};
use cc_dataset::Dataset;
use cc_deploy::DeployedNetwork;
use cc_nn::schedule::LrSchedule;
use cc_nn::train::{TrainConfig, Trainer};
use cc_nn::Network;
use cc_packing::metrics::network_packing_report;
use cc_packing::{ColumnCombineConfig, ColumnCombiner, ColumnGroups};
use std::time::Instant;

/// Share of `--seconds` spent timing single held-out images through the
/// deployed network; Algorithm 1 passes take the rest.
const LATENCY_SHARE: f64 = 0.15;

struct Fixture {
    train: Dataset,
    test: Dataset,
    net: Network,
    cfg: ColumnCombineConfig,
}

fn setup(p: &Params) -> Fixture {
    let (train, test) = fixtures::mnist(&p.size, p.size.combine_train, p.size.combine_test, p.seed);
    let net = fixtures::lenet(&p.size, p.seed);
    // Paper parameters (alpha 8, beta 0.2, gamma 0.5), keep a quarter of
    // the weights; epoch counts cut so one run takes seconds.
    let cfg = ColumnCombineConfig {
        alpha: ALPHA,
        beta: 0.2,
        gamma: GAMMA,
        rho: net.nonzero_conv_weights() / 4,
        epochs_per_iteration: 2,
        final_epochs: 4,
        max_iterations: 12,
        eta: 0.05,
        batch_size: 32,
        seed: p.seed,
        ..ColumnCombineConfig::default()
    };
    Fixture {
        train,
        test,
        net,
        cfg,
    }
}

/// What one pass down the researcher's path yields.
struct Combined {
    deployed: DeployedNetwork,
    net: Network,
    nonzeros: usize,
    accuracy: f64,
    figures: ArrayFigures,
}

impl Combined {
    /// The figures two passes at one seed must agree on.
    fn fingerprint(&self) -> (usize, u64, u64, u64) {
        (
            self.nonzeros,
            self.accuracy.to_bits(),
            self.figures.tiles,
            self.figures.stats.cycles,
        )
    }
}

fn deploy(fx: &Fixture, net: Network, groups: &[ColumnGroups]) -> Combined {
    let deployed = DeployedNetwork::build(&net, groups, &fx.train);
    let accuracy = deployed.accuracy(&fx.test);
    let figures = fixtures::array_figures(&deployed, &fixtures::images(&fx.test, 0, BATCH));
    Combined {
        nonzeros: net.nonzero_conv_weights(),
        deployed,
        net,
        accuracy,
        figures,
    }
}

fn combine_once(fx: &Fixture) -> Combined {
    let mut net = fx.net.clone();
    let (_, groups, _) = ColumnCombiner::new(fx.cfg).run(&mut net, &fx.train, Some(&fx.test));
    deploy(fx, net, &groups)
}

pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let fx = timed_setup(&mut out, || setup(p));

    // Whole passes until the next one would overshoot the budget by more
    // than it undershoots now.
    let budget = p.seconds * (1.0 - LATENCY_SHARE);
    let started = Instant::now();
    let mut times = Vec::new();
    let mut first: Option<Combined> = None;
    loop {
        let rep = Instant::now();
        let combined = combine_once(&fx);
        times.push(rep.elapsed().as_secs_f64());
        out.attempted += 1;
        match &first {
            None => first = Some(combined),
            Some(f) if f.fingerprint() != combined.fingerprint() => {
                out.fail(1, "Algorithm 1 gave different nonzeros/accuracy/tiles/cycles on a repeat at one seed");
            }
            Some(_) => {}
        }
        let mean = started.elapsed().as_secs_f64() / times.len() as f64;
        if started.elapsed().as_secs_f64() + mean / 2.0 >= budget {
            break;
        }
    }
    let combined = first.expect("at least one pass ran");

    // One held-out image at a time through the deployed network, the way
    // the researcher checks the model.
    let mut done = Vec::new();
    let pass_started = Instant::now();
    while done.is_empty() || pass_started.elapsed().as_secs_f64() < p.seconds * LATENCY_SHARE {
        for i in 0..fx.test.len() {
            let t = Instant::now();
            std::hint::black_box(combined.deployed.logits(fx.test.image(i)));
            done.push(Completion {
                latency_us: t.elapsed().as_secs_f64() * 1e6,
                at_s: pass_started.elapsed().as_secs_f64(),
            });
        }
    }
    out.set_phase(&phase_stats(&done, 1.0));

    // The rate is the researcher's: training-set images per Algorithm 1
    // run, which overwrites the inference rate `set_phase` left.
    let train = fx.train.len() as f64;
    let rates: Vec<f64> = times.iter().map(|t| train / t).collect();
    out.set(
        spec::IMG_PER_S,
        Value::with_windows(stats::better_end(&rates, true), rates.len() as u64, &rates),
    );
    out.set(
        spec::ACCURACY,
        Value::new(combined.accuracy, fx.test.len() as u64),
    );
    layers::set_array_figures(&mut out, &combined.figures);
    out.set(spec::PEAK_RSS_MB, Value::exact(peak_rss_mib()));
    out
}

/// Clock around every `Trainer::fit` of the replay.
#[derive(Default)]
struct FitClock {
    fit_s: f64,
    epochs: usize,
    /// Mean epoch time of each fit, in ms.
    epoch_ms: Vec<f64>,
}

impl FitClock {
    fn fit(
        &mut self,
        fx: &Fixture,
        net: &mut Network,
        epochs: usize,
        schedule: LrSchedule,
        seed: u64,
    ) {
        let tc = TrainConfig {
            epochs,
            batch_size: fx.cfg.batch_size,
            schedule,
            seed,
            ..TrainConfig::default()
        };
        let t = Instant::now();
        let history = Trainer::new(tc).fit(net, &fx.train, Some(&fx.test));
        let took = t.elapsed().as_secs_f64();
        self.fit_s += took;
        self.epochs += history.epochs.len();
        self.epoch_ms
            .push(took * 1e3 / history.epochs.len().max(1) as f64);
    }
}

/// Algorithm 1 again, step by public step, with a clock around each; the
/// replay must end where `ColumnCombiner::run` ends.
pub fn trace(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let fx = setup(p);
    let cfg = &fx.cfg;
    let combiner = ColumnCombiner::new(*cfg);

    let whole = Instant::now();
    let reference = combine_once(&fx);
    let combine_s = whole.elapsed().as_secs_f64();

    let mut net = fx.net.clone();
    let mut clock = FitClock::default();
    let (mut pack_s, mut conflicts) = (0.0, 0usize);
    let mut groups: Option<Vec<ColumnGroups>> = None;
    let mut beta = cfg.beta;
    let mut iteration = 0usize;
    while net.nonzero_conv_weights() > cfg.rho && iteration < cfg.max_iterations {
        let t = Instant::now();
        let (g, _, pruned) = combiner.prune_and_pack(&mut net, beta);
        std::hint::black_box(network_packing_report(&net, &g));
        pack_s += t.elapsed().as_secs_f64();
        conflicts += pruned;
        groups = Some(g);
        clock.fit(
            &fx,
            &mut net,
            cfg.epochs_per_iteration,
            LrSchedule::paper_iteration(cfg.eta, cfg.epochs_per_iteration),
            cfg.seed.wrapping_add(iteration as u64),
        );
        beta *= cfg.beta_decay;
        iteration += 1;
    }
    clock.fit(
        &fx,
        &mut net,
        cfg.final_epochs,
        LrSchedule::paper_final(cfg.eta, cfg.final_epochs),
        cfg.seed.wrapping_add(1000),
    );
    let groups = groups.unwrap_or_else(|| combiner.group_network(&net));
    let group_count: usize = groups.iter().map(ColumnGroups::len).sum();
    let replay = deploy(&fx, net, &groups);

    out.attempted = 1;
    if replay.fingerprint() != reference.fingerprint() {
        out.fail(
            1,
            format!(
                "replay through the public steps ended at nonzeros {} accuracy {} but run at {} / {}",
                replay.nonzeros, replay.accuracy, reference.nonzeros, reference.accuracy
            ),
        );
    }

    out.set("packing.combine_s", Value::new(combine_s, 1));
    out.set(
        "nn.fit_s",
        Value::new(clock.fit_s, clock.epoch_ms.len() as u64),
    );
    out.set("nn.epochs", Value::exact(clock.epochs as f64));
    out.set(
        "nn.epoch_ms",
        Value::new(stats::median(&clock.epoch_ms), clock.epochs as u64),
    );
    out.set(
        "packing.prune_and_pack_s",
        Value::new(pack_s, iteration as u64),
    );
    out.set("packing.groups", Value::exact(group_count as f64));
    out.set("packing.conflicts_pruned", Value::exact(conflicts as f64));
    layers::set_packing_gain(&mut out, &replay.net, &fx.train, &fx.test, &replay.figures);
    out
}
