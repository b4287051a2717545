//! Stage-pipelined execution of a deployed network: the serving analogue
//! of `cc-systolic`'s inter-layer wavefront.
//!
//! The layers of a [`DeployedNetwork`] are partitioned into K contiguous
//! stages of roughly equal estimated cost; each stage runs on its own
//! thread, connected to the next by a bounded channel. Successive batches
//! stream through the stages — stage i executes batch n while stage i+1
//! executes batch n−1 — so all K threads stay busy once the pipe fills,
//! instead of one worker walking every layer while the rest of the
//! machine idles.
//!
//! ```text
//!  submit ──▶ [stage 0: layers 0..a] ──▶ [stage 1: a..b] ──▶ … ──▶ sink
//!   batch n        batch n−1                batch n−2            replies
//! ```
//!
//! Stage boundaries hand over the same [`BatchOutput`] activations the
//! serial path threads through [`DeployedNetwork::run_stage`], so
//! the pipelined result is bit-identical to serial
//! [`DeployedNetwork::run_batch`] by construction. Each stage thread is
//! a receive loop around the one stage step a serial worker also runs
//! ([`crate::stage`]): panic isolation, occupancy, shard health, trace
//! spans and fault triage live there, once. The channels are
//! bounded (the in-flight cap), so a stalled stage backpressures
//! [`PipelineExecutor::submit`] rather than buffering without bound, and
//! dropping the executor closes the input and drains every in-flight
//! batch through the sink before the stage threads exit.

use crate::stage::{StageEnv, StageRunner};
use crate::trace::Track;
use cc_deploy::{BandFaultError, BatchOutput, DeployedNetwork};
use cc_systolic::{partition_bottleneck, partition_min_max};
use cc_tensor::Tensor;
use std::ops::Range;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Handler a pipeline owner installs to resolve the tickets of a batch
/// that failed mid-pipe (injected-fault exhaustion or a stage panic);
/// receives the batch tag and the fault payload when one was thrown.
pub type FaultSink<T> = Arc<dyn Fn(T, Option<BandFaultError>) + Send + Sync>;

/// Partitions `costs` into at most `stages` contiguous ranges minimizing
/// the maximum per-range cost sum (balanced pipeline stages). Returns
/// `min(stages, costs.len())` non-empty ranges covering `0..costs.len()`.
/// (The DP itself lives in [`cc_systolic::partition`]; the row-band
/// shard planner uses the same one.)
///
/// # Panics
///
/// Panics if `costs` is empty or `stages` is zero.
pub fn partition_stages(costs: &[u64], stages: usize) -> Vec<Range<usize>> {
    assert!(!costs.is_empty(), "cannot partition zero layers");
    partition_min_max(costs, stages)
}

/// Picks a pipeline depth from a layer cost model
/// ([`crate::ServeConfig::pipeline_stages`]` = 0`): deepen while each
/// extra stage still cuts the bottleneck stage cost by ≥ 15% — past that
/// point another stage thread buys mostly hand-off overhead — capping at
/// `max_stages`.
///
/// # Panics
///
/// Panics if `costs` is empty or `max_stages` is zero.
pub fn auto_stages(costs: &[u64], max_stages: usize) -> usize {
    assert!(!costs.is_empty(), "cannot plan zero layers");
    assert!(max_stages > 0, "need at least one stage");
    let max_k = max_stages.min(costs.len());
    let mut best = 1;
    let mut bottleneck = costs.iter().sum::<u64>();
    for k in 2..=max_k {
        let b = partition_bottleneck(costs, &partition_min_max(costs, k));
        if (b as f64) > 0.85 * bottleneck as f64 {
            break;
        }
        best = k;
        bottleneck = b;
    }
    best
}

/// Stage cap for the auto depth: the machine's parallelism, clamped so an
/// auto pipeline never out-threads a small box.
pub fn auto_stage_cap() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).clamp(1, 4)
}

struct Job<T> {
    data: BatchOutput,
    tag: T,
    /// Trace batch id (0 = untraced), carried so every stage's span
    /// events correlate back to the batch.
    bid: u64,
    /// The batch's earliest member deadline, carried so every stage's
    /// fault-retry loop stops once it has passed.
    deadline: Option<Instant>,
}

/// One stage's plumbing: its inbox plus its forward edge (`None` for the
/// final stage, which owns the sink instead).
type StageEdges<T> = (Receiver<Job<T>>, Option<SyncSender<Job<T>>>);

/// Runs batches through a [`DeployedNetwork`] split into pipeline stages,
/// one thread per stage. `T` is an opaque per-batch tag carried alongside
/// the activations (the server threads reply handles through it); the
/// `sink` runs on the final stage's thread with each batch's output.
#[derive(Debug)]
pub struct PipelineExecutor<T: Send + 'static> {
    net: DeployedNetwork,
    input: Option<SyncSender<Job<T>>>,
    threads: Vec<JoinHandle<()>>,
    ranges: Vec<Range<usize>>,
}

impl<T: Send + 'static> PipelineExecutor<T> {
    /// Spawns `stages` stage threads (clamped to the network's layer
    /// count) over cost-balanced layer ranges, each on one simulated
    /// array with nothing reported ([`StageEnv::default`]). Each
    /// inter-stage channel buffers at most `queue_depth` batches beyond
    /// the one executing, so total in-flight work is capped at roughly
    /// `stages × (queue_depth + 1)` batches.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero.
    pub fn new<F>(net: DeployedNetwork, stages: usize, queue_depth: usize, sink: F) -> Self
    where
        F: FnMut(BatchOutput, T) + Send + 'static,
    {
        Self::with_env(net, stages, queue_depth, StageEnv::default(), None, sink)
    }

    /// [`PipelineExecutor::new`] in full: every stage thread runs its
    /// layer range through the same stage step a serial worker uses,
    /// built from `env` — a [`cc_deploy::BandSet`] of `env.shards`
    /// simulated arrays (the stages × shards grid; with a fleet, band
    /// planning weights each shard by its array's cycle model — outputs
    /// stay bit-identical, geometry shapes only the cost model), busy
    /// time and shard health into `env.telemetry`, and for traced batches
    /// a [`crate::EventKind::Stage`] span per stage on its own track plus
    /// [`crate::EventKind::ShardRun`] spans for its conv scatters into
    /// `env.recorder`.
    ///
    /// With `env.faults`, stage band sets carry its injector and stage 0
    /// advances its global batch clock; a batch whose bands exhaust
    /// their retry budget — or whose stage panics outright — is routed to
    /// `on_fault` (with its tag, so the owner can resolve tickets) while
    /// the stage thread itself survives, rebuilds its scratch and band
    /// set after a genuine panic, and keeps executing later batches, so
    /// [`PipelineExecutor::drain`] cannot deadlock.
    ///
    /// # Panics
    ///
    /// Panics if `stages` or `env.shards` is zero.
    pub fn with_env<F>(
        net: DeployedNetwork,
        stages: usize,
        queue_depth: usize,
        env: StageEnv,
        on_fault: Option<FaultSink<T>>,
        sink: F,
    ) -> Self
    where
        F: FnMut(BatchOutput, T) + Send + 'static,
    {
        assert!(env.shards > 0, "need at least one shard");
        let ranges = partition_stages(&net.layer_costs(), stages);
        let k = ranges.len();

        // Build the channel chain first: plumbing[s] is stage s's edges.
        let (input_tx, input_rx) = mpsc::sync_channel::<Job<T>>(queue_depth);
        let mut plumbing: Vec<StageEdges<T>> = Vec::new();
        let mut inbox = input_rx;
        for _ in 0..k - 1 {
            let (tx, rx) = mpsc::sync_channel::<Job<T>>(queue_depth);
            plumbing.push((std::mem::replace(&mut inbox, rx), Some(tx)));
        }
        plumbing.push((inbox, None));

        let mut sink = Some(sink);
        let threads = ranges
            .iter()
            .cloned()
            .zip(plumbing)
            .enumerate()
            .map(|(s, (range, (rx, tx)))| {
                let stage_net = net.clone();
                let stage_env = env.clone();
                let stage_on_fault = on_fault.clone();
                let mut stage_sink = if s == k - 1 { sink.take() } else { None };
                std::thread::Builder::new()
                    .name(format!("cc-serve-stage-{s}"))
                    .spawn(move || {
                        let mut runner = StageRunner::new(stage_env, s, Track::Stage(s as u16));
                        while let Ok(Job { data, tag, bid, deadline }) = rx.recv() {
                            match runner.step(&stage_net, range.clone(), data, bid, deadline) {
                                Ok(data) => {
                                    if let Some(tx) = &tx {
                                        // The next stage hung up only on teardown.
                                        if tx.send(Job { data, tag, bid, deadline }).is_err() {
                                            break;
                                        }
                                    } else if let Some(sink) = &mut stage_sink {
                                        sink(data, tag);
                                    }
                                }
                                Err(fault) => {
                                    if let Some(handler) = &stage_on_fault {
                                        handler(tag, fault);
                                    }
                                    if fault.is_none() {
                                        runner.rebuild();
                                    }
                                }
                            }
                        }
                    })
                    .expect("spawn pipeline stage")
            })
            .collect();

        PipelineExecutor { net, input: Some(input_tx), threads, ranges }
    }

    /// The cost-balanced layer range each stage executes.
    pub fn stage_ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// Number of stage threads (the requested count clamped to the layer
    /// count).
    pub fn num_stages(&self) -> usize {
        self.ranges.len()
    }

    /// The network this pipeline executes.
    pub fn network(&self) -> &DeployedNetwork {
        &self.net
    }

    /// Feeds one batch of images into the pipeline and returns without
    /// waiting for it to finish; the `sink` sees the result once the batch
    /// leaves the last stage. Blocks only when the in-flight cap is
    /// reached — that is the pipeline's backpressure edge.
    ///
    /// # Panics
    ///
    /// Panics if a stage thread died (it panicked on malformed input).
    pub fn submit(&self, images: &[Tensor], tag: T) {
        self.submit_traced(images, tag, 0, None);
    }

    /// [`PipelineExecutor::submit`] carrying a trace batch id so every
    /// stage's span events correlate to the batch (`bid = 0` = untraced)
    /// and the batch's earliest member deadline, past which a faulted
    /// stage stops retrying (`None` = retry on budget alone).
    ///
    /// # Panics
    ///
    /// Panics if a stage thread died (it panicked on malformed input).
    pub fn submit_traced(&self, images: &[Tensor], tag: T, bid: u64, deadline: Option<Instant>) {
        let data = BatchOutput::Maps(self.net.quantize_batch(images));
        let input = self.input.as_ref().expect("pipeline already drained");
        input.send(Job { data, tag, bid, deadline }).expect("pipeline stage died");
    }

    /// [`PipelineExecutor::submit`] for callers that already hold
    /// quantized activations.
    ///
    /// # Panics
    ///
    /// Panics if a stage thread died.
    pub fn submit_activations(&self, data: BatchOutput, tag: T) {
        let input = self.input.as_ref().expect("pipeline already drained");
        input.send(Job { data, tag, bid: 0, deadline: None }).expect("pipeline stage died");
    }

    /// Closes the input and blocks until every in-flight batch has flowed
    /// through the sink and all stage threads have exited. Dropping the
    /// executor does the same; this form just makes the drain explicit.
    pub fn drain(self) {}
}

impl<T: Send + 'static> Drop for PipelineExecutor<T> {
    fn drop(&mut self) {
        // Closing the input cascades: stage 0's recv fails, it drops its
        // forward sender, and so on down the pipe — after each stage
        // finishes the batches already in flight.
        self.input = None;
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_dataset::SyntheticSpec;
    use cc_deploy::identity_groups;
    use cc_nn::models::{lenet5_shift, ModelConfig};
    use std::sync::{Arc, Mutex};

    #[test]
    fn partition_covers_contiguously_and_clamps() {
        let costs = [3u64, 1, 4, 1, 5, 9, 2, 6];
        for k in 1..=10 {
            let ranges = partition_stages(&costs, k);
            assert_eq!(ranges.len(), k.min(costs.len()));
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, costs.len());
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "ranges must be contiguous");
            }
            assert!(ranges.iter().all(|r| !r.is_empty()), "no stage may be empty");
        }
    }

    #[test]
    fn partition_minimizes_max_stage_cost() {
        // [10,1,1,10] in two stages: the only split with max 11 is 2|2.
        let ranges = partition_stages(&[10, 1, 1, 10], 2);
        assert_eq!(ranges, vec![0..2, 2..4]);
        // Uniform costs split evenly.
        assert_eq!(partition_stages(&[5, 5, 5, 5], 2), vec![0..2, 2..4]);
        // A dominant layer gets a stage to itself.
        let ranges = partition_stages(&[1, 100, 1], 3);
        assert_eq!(ranges, vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn auto_stages_deepens_only_while_the_bottleneck_shrinks() {
        // Four equal layers, cap 2: the second stage halves the
        // bottleneck, so auto takes it.
        assert_eq!(auto_stages(&[10, 10, 10, 10], 2), 2);
        // One dominant layer: extra stages cannot beat it.
        assert_eq!(auto_stages(&[100, 1, 1, 1], 4), 1);
        // Cap respected even when deeper would keep helping.
        assert_eq!(auto_stages(&[10, 10, 10, 10, 10, 10, 10, 10], 2), 2);
        // A single layer can only ever be one stage.
        assert_eq!(auto_stages(&[42], 4), 1);
    }

    #[test]
    fn auto_stages_monotone_bottleneck_invariant() {
        let costs = [7u64, 3, 9, 2, 8, 1, 6, 4];
        let k = auto_stages(&costs, 4);
        assert!((1..=4).contains(&k));
        // The chosen depth's bottleneck must not exceed the serial cost.
        let b = cc_systolic::partition_bottleneck(&costs, &partition_stages(&costs, k));
        assert!(b <= costs.iter().sum());
    }

    #[test]
    fn sharded_pipeline_matches_serial() {
        let (train, test) =
            SyntheticSpec::mnist_like().with_size(8, 8).with_samples(48, 9).generate(20);
        let net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
        let deployed = DeployedNetwork::build(&net, &identity_groups(&net), &train);
        let images: Vec<cc_tensor::Tensor> =
            (0..9).map(|i| test.image(i % test.len()).clone()).collect();
        let serial = deployed.run_batch(&images);

        let results: Arc<Mutex<Vec<Vec<Vec<f32>>>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_results = Arc::clone(&results);
        let telemetry = Arc::new(crate::telemetry::Telemetry::new());
        let recorder = Arc::new(crate::trace::TraceRecorder::new(crate::trace::TraceConfig::on()));
        let pipe = PipelineExecutor::with_env(
            deployed.clone(),
            2,
            1,
            StageEnv {
                shards: 3,
                telemetry: Some(Arc::clone(&telemetry)),
                recorder: Some(Arc::clone(&recorder)),
                ..StageEnv::default()
            },
            None,
            move |out, _tag: usize| {
                let logits = match out {
                    BatchOutput::Logits(l) => l,
                    BatchOutput::Maps(_) => panic!("pipeline must end at the classifier head"),
                };
                sink_results.lock().unwrap().push(logits);
            },
        );
        let num_stages = pipe.num_stages();
        for b in 0..3u64 {
            pipe.submit_traced(&images, 0, b + 1, None);
        }
        pipe.drain();
        for run in results.lock().unwrap().iter() {
            assert_eq!(run, &serial, "stages × shards grid diverged from serial");
        }
        let snap = telemetry.snapshot();
        assert!(!snap.stage_busy.is_empty(), "stages must report occupancy");
        assert!(!snap.shard_busy.is_empty(), "shard lanes must report occupancy");

        // Traced batches leave stage spans on per-stage tracks plus shard
        // spans for the conv scatters, all correlated by batch id.
        use crate::trace::EventKind;
        let events = recorder.events();
        for bid in 1..=3u64 {
            for s in 0..num_stages as u16 {
                assert!(
                    events.iter().any(|e| e.kind == EventKind::Stage
                        && e.track == Track::Stage(s)
                        && e.bid == bid),
                    "missing stage-{s} span for batch {bid}"
                );
            }
            assert!(
                events.iter().any(|e| e.kind == EventKind::ShardRun && e.bid == bid),
                "missing shard spans for batch {bid}"
            );
        }
        // Untraced submits (bid 0) record nothing even with tracing on.
        let before = recorder.events().len();
        let quiet = PipelineExecutor::with_env(
            deployed.clone(),
            2,
            1,
            StageEnv { recorder: Some(Arc::clone(&recorder)), ..StageEnv::default() },
            None,
            move |_out, _tag: usize| {},
        );
        quiet.submit(&images, 0);
        quiet.drain();
        assert_eq!(recorder.events().len(), before, "bid-0 batches must not trace");
    }

    #[test]
    fn pipeline_matches_serial_and_preserves_batch_order() {
        let (train, test) =
            SyntheticSpec::mnist_like().with_size(8, 8).with_samples(48, 12).generate(19);
        let net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
        let deployed = DeployedNetwork::build(&net, &identity_groups(&net), &train);

        // Four batches of three images each, tagged with their index.
        let batches: Vec<Vec<cc_tensor::Tensor>> = (0..4)
            .map(|b| (0..3).map(|i| test.image((b * 3 + i) % test.len()).clone()).collect())
            .collect();
        let serial: Vec<Vec<Vec<f32>>> = batches.iter().map(|b| deployed.run_batch(b)).collect();

        type TaggedLogits = Vec<(usize, Vec<Vec<f32>>)>;
        let results: Arc<Mutex<TaggedLogits>> = Arc::new(Mutex::new(Vec::new()));
        let sink_results = Arc::clone(&results);
        let pipe = PipelineExecutor::new(deployed.clone(), 3, 1, move |out, tag: usize| {
            let logits = match out {
                BatchOutput::Logits(l) => l,
                BatchOutput::Maps(_) => panic!("pipeline must end at the classifier head"),
            };
            sink_results.lock().unwrap().push((tag, logits));
        });
        assert!(pipe.num_stages() >= 2, "lenet must support a multi-stage pipeline");
        assert_eq!(pipe.stage_ranges().last().unwrap().end, deployed.num_layers());

        for (b, images) in batches.iter().enumerate() {
            pipe.submit(images, b);
        }
        pipe.drain();

        let results = results.lock().unwrap();
        assert_eq!(results.len(), batches.len(), "drain must flush every in-flight batch");
        for (i, (tag, logits)) in results.iter().enumerate() {
            assert_eq!(*tag, i, "a single pipeline must preserve batch order");
            assert_eq!(logits, &serial[*tag], "batch {tag} diverged from serial run_batch");
        }
    }
}
