//! The worker pool — the seam between a formed batch and the array: the
//! supervisor that keeps the pool at its target size, and the loop each
//! worker runs (adopt the live plan, pick the network's executor, step
//! the batch, end every member through [`Shared::finish_batch`]).

use super::admission::{next_work, RequestBatcher};
use super::request::{BatchMeta, Shared};
use super::WaitError;
use crate::pipeline::{auto_stage_cap, auto_stages, PipelineExecutor};
use crate::stage::{StageEnv, StageRunner};
use crate::trace::Track;
use cc_deploy::{BandFaultError, BatchOutput, DeployedNetwork};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// The live executor geometry workers run under. The control plane bumps
/// `epoch` after changing `stages`/`shards`; each worker notices the new
/// epoch at its next batch boundary and reshapes its band set (and drops
/// its pipelines) to match — a batch never straddles two plans, and
/// outputs stay bit-identical across the reshape because shard width and
/// stage depth only repartition work.
pub(super) struct ExecPlan {
    pub(super) epoch: AtomicU64,
    /// Stage depth (0 = auto per model).
    pub(super) stages: AtomicUsize,
    pub(super) shards: AtomicUsize,
}

/// Worker → supervisor exit report, or a control-plane resize order.
pub(super) enum PoolMsg {
    /// A worker thread exited.
    Exit {
        index: usize,
        exit: WorkerExit,
    },
    /// Re-check the pool against the current target: spawn any missing
    /// slot below it. (Shrinks need no message — workers at or past the
    /// target retire themselves at their next batch boundary.)
    Resize,
}

/// Why a worker's loop returned.
pub(super) enum WorkerExit {
    /// Ingress closed and drained: the server is shutting down.
    Closed,
    /// A batch panicked in a way that may have corrupted worker-local
    /// state; the supervisor respawns the slot with everything rebuilt.
    Panicked,
    /// The worker noticed its index is at or past the pool target and
    /// retired. The supervisor respawns it if the target grew back in
    /// the meantime (the shrink-then-grow race heals on this report).
    Retired,
}

/// What every worker is (re)spawned from. The stage environment carries
/// the start-time shard width and the full fleet — the live plan's width
/// overrides the former and selects a prefix of the latter, so a later
/// retune can widen back out.
#[derive(Clone)]
pub(super) struct WorkerEnv {
    pub(super) stage: StageEnv,
    pub(super) plan: Arc<ExecPlan>,
    /// Desired pool size: workers read it to retire themselves, the
    /// supervisor to bound respawns.
    pub(super) target: Arc<AtomicUsize>,
    pub(super) shared: Arc<Shared>,
    /// Whichever idle worker holds this lock forms the next batch.
    pub(super) batcher: Arc<Mutex<RequestBatcher>>,
    /// Workers inside `admission::next_work`, queued on the batcher's
    /// lock or forming under it; the batcher holds a window open only
    /// while this counts no one but the former.
    pub(super) idle: Arc<AtomicUsize>,
}

/// Spawns `workers` workers and the supervisor that owns their join
/// handles. Workers report their exit to it: a panic exit gets the slot
/// respawned with fresh state, a clean exit (ingress closed) counts
/// the pool down, and a retirement (pool shrink) leaves the slot empty
/// until a resize order — sent on the returned channel — covers it
/// again. The supervisor returns once every worker has exited cleanly.
pub(super) fn spawn_pool(
    workers: usize,
    env: WorkerEnv,
) -> (mpsc::Sender<PoolMsg>, JoinHandle<()>) {
    let (exit_tx, exit_rx) = mpsc::channel::<PoolMsg>();
    let pool_tx = exit_tx.clone();
    let target = Arc::clone(&env.target);
    // The single spawn path for the initial pool, respawns, and resize
    // growth.
    let spawn_worker = move |index: usize| {
        let env = env.clone();
        let exit_tx = exit_tx.clone();
        std::thread::Builder::new()
            .name(format!("cc-serve-worker-{index}"))
            .spawn(move || {
                let exit = worker_loop(&env, index as u16);
                let _ = exit_tx.send(PoolMsg::Exit { index, exit });
            })
            .expect("spawn worker")
    };
    let mut handles: Vec<Option<JoinHandle<()>>> =
        (0..workers).map(|index| Some(spawn_worker(index))).collect();
    let supervisor = std::thread::Builder::new()
        .name("cc-serve-supervisor".into())
        .spawn(move || {
            let mut live = handles.len();
            while live > 0 {
                let Ok(msg) = exit_rx.recv() else { break };
                match msg {
                    PoolMsg::Exit { index, exit } => {
                        if let Some(handle) = handles[index].take() {
                            let _ = handle.join();
                        }
                        let respawn = match exit {
                            WorkerExit::Closed => false,
                            // Panicked *or* retired slots come back
                            // whenever the target still covers them; a
                            // shrink-then-grow race heals here, on the
                            // straggling retire report.
                            WorkerExit::Panicked | WorkerExit::Retired => {
                                index < target.load(Ordering::Acquire)
                            }
                        };
                        if respawn {
                            handles[index] = Some(spawn_worker(index));
                        } else {
                            live -= 1;
                        }
                    }
                    PoolMsg::Resize => {
                        let target = target.load(Ordering::Acquire);
                        if target > handles.len() {
                            handles.resize_with(target, || None);
                        }
                        for index in 0..target {
                            if handles[index].is_none() {
                                handles[index] = Some(spawn_worker(index));
                                live += 1;
                            }
                        }
                    }
                }
            }
            for handle in handles.into_iter().flatten() {
                let _ = handle.join();
            }
        })
        .expect("spawn supervisor");
    (pool_tx, supervisor)
}

/// Networks a single worker keeps warm at once. Each cached pipeline
/// pins its stage threads and a network reference, so the cache is
/// LRU-bounded: when a registry entry is replaced (hot-swap) or a worker
/// rotates across many models, stale pipelines are drained and dropped
/// instead of accumulating threads for the life of the worker.
const MAX_WORKER_PIPELINES: usize = 4;

/// One worker's executor for one network under the current plan: its
/// stage pipeline, or `None` when the plan's depth (resolved from the
/// network's layer cost profile when it says auto) is 1 and the worker
/// steps batches itself.
type NetSlot = (usize, Option<PipelineExecutor<BatchMeta>>);

/// Finds or creates this worker's pipeline for `net`. The slots are kept
/// in LRU order (most recently used last; registries hold few models, so
/// a linear scan beats a map). Evicting a slot drops its pipeline, which
/// drains it: in-flight batches resolve their tickets before the stage
/// threads exit.
fn pipeline_for<'a>(
    slots: &'a mut Vec<NetSlot>,
    net: &DeployedNetwork,
    plan_stages: usize,
    env: &StageEnv,
    shared: &Arc<Shared>,
) -> Option<&'a PipelineExecutor<BatchMeta>> {
    let identity = net.identity();
    if let Some(idx) = slots.iter().position(|(id, _)| *id == identity) {
        slots[idx..].rotate_left(1);
    } else {
        if slots.len() >= MAX_WORKER_PIPELINES {
            slots.remove(0);
        }
        let stages = match plan_stages {
            0 => auto_stages(&net.layer_costs(), auto_stage_cap()),
            fixed => fixed,
        };
        let pipe = (stages > 1).then(|| {
            let (sink, fault_sink) = (Arc::clone(shared), Arc::clone(shared));
            PipelineExecutor::with_env(
                net.clone(),
                stages,
                1,
                env.clone(),
                Some(Arc::new(move |meta, fault| {
                    fault_sink.finish_batch(meta, batch_result(Err(fault)));
                })),
                move |out, meta| sink.finish_batch(meta, batch_result(Ok(out))),
            )
        });
        slots.push((identity, pipe));
    }
    slots.last().and_then(|(_, pipe)| pipe.as_ref())
}

/// A stepped batch's logits, or why it has none: injected-fault
/// exhaustion ([`BandFaultError`], the band set keeps its bookkeeping
/// straight before throwing) or a genuine panic.
fn batch_result(
    stepped: Result<BatchOutput, Option<BandFaultError>>,
) -> Result<Vec<Vec<f32>>, WaitError> {
    match stepped {
        Ok(BatchOutput::Logits(logits_batch)) => Ok(logits_batch),
        // A network without a classifier head has nothing to reply with:
        // its batches fail like a panicked one.
        Ok(BatchOutput::Maps(_)) | Err(None) => Err(WaitError::WorkerPanicked),
        Err(Some(_)) => Err(WaitError::Faulted),
    }
}

/// Forms and runs batches until ingress closes ([`WorkerExit::Closed`]),
/// the pool target drops below this worker's index
/// ([`WorkerExit::Retired`]), or a batch panics in a way that may have
/// corrupted worker-local state — scratch, band set — so the supervisor
/// respawns the slot with everything rebuilt ([`WorkerExit::Panicked`]).
/// A batch that ends [`WaitError::Faulted`] is *not* such an abort: the
/// worker keeps its warm state.
fn worker_loop(env: &WorkerEnv, worker: u16) -> WorkerExit {
    let WorkerEnv { stage, plan, target, shared, .. } = env;
    let mut seen_epoch = plan.epoch.load(Ordering::Acquire);
    let mut stages = plan.stages.load(Ordering::Relaxed);
    // The worker's long-lived stage runner for serial execution: one
    // activation scratch (after the first batch of a given shape, serial
    // inference allocates nothing) and one shard set for the worker's
    // lifetime. Pipelined execution gives each stage thread its own
    // inside the executor, built from this runner's environment.
    let mut runner = StageRunner::new(
        StageEnv { shards: plan.shards.load(Ordering::Relaxed), ..stage.clone() },
        0,
        Track::Worker(worker),
    );
    // Dropping this at loop exit drains every pipeline's in-flight
    // batches before the worker thread ends — shutdown resolves tickets.
    let mut slots: Vec<NetSlot> = Vec::new();
    while let Some((bid, batch)) = next_work(env) {
        // Adopt a retuned executor plan at the batch boundary: reshape
        // the runner's band set (see [`StageRunner::reshape`]) and drop
        // every slot — depths were resolved and pipelines built for the
        // old plan, and dropping drains their in-flight batches first.
        // One relaxed-load-plus-compare per batch on the unchanged path.
        let epoch = plan.epoch.load(Ordering::Acquire);
        if epoch != seen_epoch {
            seen_epoch = epoch;
            stages = plan.stages.load(Ordering::Relaxed);
            runner.reshape(plan.shards.load(Ordering::Relaxed));
            slots.clear();
        }
        let net = batch[0].net.clone();
        assert!(
            batch.iter().all(|r| r.admitted.identity == net.identity()),
            "batcher must never co-batch requests for distinct deployed pipelines"
        );
        let batch_deadline = batch.iter().filter_map(|r| r.deadline).min();
        let (images, members): (Vec<_>, Vec<_>) =
            batch.into_iter().map(|r| (r.image, r.admitted)).unzip();
        let meta: BatchMeta = (bid, members);

        if let Some(pipe) = pipeline_for(&mut slots, &net, stages, runner.env(), shared) {
            // Pipelined path: hand the batch to this worker's stage
            // pipeline for the network and immediately pull the next
            // batch, so stage 0 of batch n overlaps the later stages of
            // batch n−1. `submit` blocks only at the in-flight cap, which
            // keeps backpressure flowing to admission control.
            pipe.submit_traced(&images, meta, bid, batch_deadline);
        } else {
            // Serial path: the whole network is one stage, stepped here on
            // the worker thread — no channel hop — with the
            // worker-lifetime runner supplying every activation buffer,
            // systolic output plane, and shard-lane kernel scratch.
            let data = runner.quantize(&net, &images);
            let result =
                batch_result(runner.step(&net, 0..net.num_layers(), data, bid, batch_deadline));
            let panicked = matches!(result, Err(WaitError::WorkerPanicked));
            shared.finish_batch(meta, result);
            if panicked {
                // A genuine panic may have left scratch or band state
                // mid-write; abort so the supervisor respawns this slot
                // with everything rebuilt.
                return WorkerExit::Panicked;
            }
        }

        // Cooperative pool shrink: a worker whose slot fell past the
        // target retires only *between* batches, so the batch it just
        // took always resolves. (Dropping `slots` on the way out drains
        // any still-streaming batches too.)
        if usize::from(worker) >= target.load(Ordering::Acquire) {
            return WorkerExit::Retired;
        }
    }
    WorkerExit::Closed
}
