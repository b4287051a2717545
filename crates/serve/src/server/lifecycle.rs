//! The running server's lifecycle — the control-plane seam: live retunes
//! of the batcher, worker pool and executor geometry, model hot-swap, and
//! shutdown / bounded drain. Nothing here touches a request; swap and
//! drain only *wait* for the ones in flight to finish.

use super::pool::PoolMsg;
use super::Server;
use crate::registry::ModelRegistry;
use crate::telemetry::TelemetrySnapshot;
use crate::trace::{EventKind, Track};
use cc_deploy::DeployedNetwork;
use cc_tensor::{Shape, Tensor};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Knob ids carried in the high byte of an [`EventKind::Retune`] trace
/// arg (the low 24 bits carry the applied value). Stable across
/// releases: trace consumers match on these.
pub mod knob {
    /// Worker-pool target size ([`crate::Server::resize_workers`]).
    pub const WORKERS: u32 = 1;
    /// Batcher maximum batch size ([`crate::Server::set_max_batch`]).
    pub const MAX_BATCH: u32 = 2;
    /// Batcher coalescing deadline, in microseconds
    /// ([`crate::Server::set_batch_deadline`]).
    pub const BATCH_DEADLINE_US: u32 = 3;
    /// Pipeline stage depth, 0 = auto ([`crate::Server::retune_executors`]).
    pub const STAGES: u32 = 4;
    /// Row-band shard width ([`crate::Server::retune_executors`]).
    pub const SHARDS: u32 = 5;
}

/// Largest worker pool [`Server::resize_workers`] will grow to.
const MAX_POOL: usize = 64;

/// Why [`Server::swap_model`] rejected a swap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SwapError {
    /// No entry with that name exists to replace. Hot-swap is a
    /// *replacement* protocol — registering brand-new names happens at
    /// [`Server::start`], where capacity was planned for them.
    UnknownModel(String),
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapError::UnknownModel(name) => write!(f, "no model {name:?} registered to swap"),
        }
    }
}

impl std::error::Error for SwapError {}

/// What [`Server::swap_model`] observed at cutover.
#[derive(Clone, Copy, Debug)]
pub struct SwapReport {
    /// True when every request in flight on the replaced network resolved
    /// within the drain bound. False means the bound expired first — the
    /// stragglers still resolve eventually (their tickets never hang),
    /// the swap just stopped waiting for them.
    pub drained: bool,
    /// How long the cutover waited on the old network's in-flight work.
    pub waited: Duration,
}

/// What [`Server::shutdown_within`] observed.
#[derive(Clone, Debug)]
pub struct DrainReport {
    /// True when every in-flight request resolved (and every thread
    /// exited) within the timeout.
    pub drained: bool,
    /// Final telemetry: `completed`, `shed`, and `failed` together
    /// account for every ticket handed out once the drain finishes.
    pub stats: TelemetrySnapshot,
}

impl Server {
    /// Emits one retune decision: the telemetry counter plus a
    /// [`EventKind::Retune`] instant on the control track, knob id in
    /// the high byte and the applied value in the low 24 bits.
    fn note_retune(&self, knob: u32, value: u64) {
        self.shared.telemetry.on_retune();
        if let Some(rec) = self.shared.tracer() {
            let arg = (knob << 24) | (value.min(0x00FF_FFFF) as u32);
            rec.instant(EventKind::Retune, Track::Control, 0, 0, Instant::now(), arg);
        }
    }

    /// Retunes the live batcher's maximum batch size (floored at 1).
    /// Takes effect at the next batch formation; no thread restarts, no
    /// queued request disturbed. A no-op when the value is unchanged —
    /// repeated identical decisions never inflate the retune counter.
    pub fn set_max_batch(&self, max_batch: usize) {
        let applied = max_batch.max(1);
        if applied == self.knobs.max_batch() {
            return;
        }
        self.knobs.set_max_batch(applied);
        self.note_retune(knob::MAX_BATCH, applied as u64);
    }

    /// Retunes the live batcher's coalescing deadline. Takes effect at
    /// the next batch formation; a no-op when unchanged.
    pub fn set_batch_deadline(&self, deadline: Duration) {
        if deadline == self.knobs.deadline() {
            return;
        }
        self.knobs.set_deadline(deadline);
        self.note_retune(
            knob::BATCH_DEADLINE_US,
            u64::try_from(deadline.as_micros()).unwrap_or(u64::MAX),
        );
    }

    /// Current batcher policy: (max batch, coalescing deadline).
    pub fn batch_knobs(&self) -> (usize, Duration) {
        (self.knobs.max_batch(), self.knobs.deadline())
    }

    /// Grows or shrinks the live worker pool toward `target` (clamped to
    /// 1..=64), returning the applied target. Growth spawns the missing
    /// worker threads immediately; a shrink is cooperative — surplus
    /// workers retire at their next batch boundary, so no batch is ever
    /// abandoned mid-run (an idle surplus worker retires when the next
    /// batch reaches it). A no-op when the target is unchanged.
    pub fn resize_workers(&self, target: usize) -> usize {
        let target = target.clamp(1, MAX_POOL);
        if self.pool_target.swap(target, Ordering::AcqRel) == target {
            return target;
        }
        let _ = self.pool_tx.send(PoolMsg::Resize);
        self.note_retune(knob::WORKERS, target as u64);
        target
    }

    /// The worker pool's current target size.
    pub fn worker_target(&self) -> usize {
        self.pool_target.load(Ordering::Acquire)
    }

    /// Re-picks the executor geometry on the live server: pipeline stage
    /// depth (0 = auto per model) and row-band shard width. Values clamp
    /// to the occupancy gauges sized at [`Server::start`] (a fleet's
    /// width can shrink to a prefix and grow back, never exceed the
    /// fleet). Each worker adopts the new plan at its next batch
    /// boundary — outputs stay bit-identical across the reshape, because
    /// stage depth and shard width only repartition the same
    /// computation. Returns the applied (stages, shards).
    pub fn retune_executors(&self, stages: usize, shards: usize) -> (usize, usize) {
        let stages = if stages == 0 { 0 } else { stages.min(self.stage_slots) };
        let shards = shards.clamp(1, self.shard_slots);
        let stages_changed = self.plan.stages.swap(stages, Ordering::Relaxed) != stages;
        let shards_changed = self.plan.shards.swap(shards, Ordering::Relaxed) != shards;
        if stages_changed || shards_changed {
            self.plan.epoch.fetch_add(1, Ordering::AcqRel);
            if stages_changed {
                self.note_retune(knob::STAGES, stages as u64);
            }
            if shards_changed {
                self.note_retune(knob::SHARDS, shards as u64);
            }
        }
        (stages, shards)
    }

    /// The live executor plan: (pipeline stages, shard width).
    pub fn exec_plan(&self) -> (usize, usize) {
        (self.plan.stages.load(Ordering::Relaxed), self.plan.shards.load(Ordering::Relaxed))
    }

    /// Atomically replaces the registry entry `name` with `net` while
    /// serving, then waits up to `drain` for requests in flight on the
    /// replaced network to resolve.
    ///
    /// The protocol: **warm up** (one inference on the incoming network,
    /// off the serving path, so its first served batch pays no cold
    /// start), **publish** (clone-on-write registry snapshot swapped
    /// under the write lock — submits on either side of the instant get
    /// a coherent snapshot), **drain** (bounded wait on the old
    /// network's in-flight count). Batches key on network identity, so
    /// requests holding the old network finish on it and never share a
    /// batch with the new one; post-swap submits produce logits
    /// bit-identical to a fresh server started on `net`.
    pub fn swap_model(
        &self,
        name: &str,
        net: DeployedNetwork,
        drain: Duration,
    ) -> Result<SwapReport, SwapError> {
        let new_identity = net.identity();
        // Warm-up before the entry becomes visible: the run touches every
        // layer's prepacked tiles and quantization tables exactly as a
        // served batch would.
        let (c, h, w) = net.input_shape();
        let _ = net.run_batch(std::slice::from_ref(&Tensor::zeros(Shape::d3(c, h, w))));

        let old_identity = {
            let mut slot = self.registry.write().expect("registry lock");
            let Some(old) = slot.get(name) else {
                return Err(SwapError::UnknownModel(name.to_string()));
            };
            let old_identity = old.identity();
            let mut next = ModelRegistry::clone(&slot);
            next.register(name, net);
            *slot = Arc::new(next);
            old_identity
        };

        // Swapping an entry for the very network it already holds needs
        // no drain — there is no "old" side to retire.
        let started = Instant::now();
        let drained = old_identity == new_identity
            || self.shared.inflight.wait_idle(old_identity, drain);
        let waited = started.elapsed();
        self.shared.telemetry.on_swap();
        if let Some(rec) = self.shared.tracer() {
            rec.instant(EventKind::Swap, Track::Control, 0, 0, Instant::now(), u32::from(drained));
        }
        Ok(SwapReport { drained, waited })
    }

    /// Drains the queue, stops every thread, and returns the final
    /// telemetry. All outstanding tickets resolve before this returns.
    pub fn shutdown(mut self) -> TelemetrySnapshot {
        self.stop();
        self.shared.snapshot()
    }

    /// Graceful drain with a bound: stops admission immediately (late
    /// submits shed with [`crate::SubmitError::ShuttingDown`]), flushes
    /// the batcher's stash, and waits up to `timeout` for in-flight work
    /// to finish. The report says whether the drain completed and carries
    /// the final telemetry — `stats.shed` is what admission turned away,
    /// `stats.failed` what fault isolation resolved with errors.
    ///
    /// On timeout the remaining work is abandoned to a detached joiner
    /// thread: outstanding tickets still resolve (workers keep running
    /// until the queue empties, or their reply senders drop, mapping to
    /// [`crate::WaitError::Disconnected`]) — nothing ever hangs, the
    /// drain just stops waiting for it.
    pub fn shutdown_within(mut self, timeout: Duration) -> DrainReport {
        let wind_down = self.wind_down();
        let (done_tx, done_rx) = mpsc::channel();
        let joiner = std::thread::Builder::new()
            .name("cc-serve-drain".into())
            .spawn(move || {
                wind_down();
                let _ = done_tx.send(());
            })
            .expect("spawn drain joiner");
        let drained = done_rx.recv_timeout(timeout).is_ok();
        if drained {
            let _ = joiner.join();
        }
        DrainReport { drained, stats: self.shared.snapshot() }
    }

    /// Stops admission and returns the rest of the wind-down, which
    /// blocks until it is over: with ingress closed the workers drain the
    /// batcher's stash between them, each gets `None` from its next turn
    /// and exits, and the supervisor follows once the pool is empty.
    fn wind_down(&mut self) -> impl FnOnce() + Send + 'static {
        self.ingress = None;
        let supervisor = self.supervisor.take();
        move || {
            if let Some(handle) = supervisor {
                let _ = handle.join();
            }
        }
    }

    pub(super) fn stop(&mut self) {
        self.wind_down()();
    }
}
