//! The one stage step: how an executor — a serial worker, or one stage
//! thread of a [`crate::PipelineExecutor`] — runs a layer range of one
//! batch.
//!
//! A serial worker is the degenerate pipeline: one `StageRunner` whose
//! range is the whole network, stepped on the worker's own thread (no
//! channel hop); a K-stage pipeline is K runners, one per stage thread.
//! Both get the same unwind boundary, occupancy telemetry, shard-health
//! export, trace spans and fault triage from `StageRunner::step`, and
//! the same "band set from (shards, fleet, fault plan)" from
//! `StageRunner::rebuild`.

use crate::fault::FaultPlan;
use crate::telemetry::Telemetry;
use crate::trace::{self, EventKind, TraceRecorder, Track};
use cc_deploy::{
    ActivationScratch, BandFaultError, BandSet, BatchOutput, DeployedNetwork, FaultInjector,
    HealthEvent,
};
use cc_systolic::ArrayGeometry;
use cc_tensor::Tensor;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// What every executor of one server (or one standalone pipeline) is
/// built from: the row-band shard width, and the optional fleet, fault
/// plan, telemetry and trace recorder it reports into.
#[derive(Clone, Debug)]
pub struct StageEnv {
    /// Simulated arrays each executor scatters packed-conv row bands
    /// across ([`cc_deploy::BandSet`]).
    pub shards: usize,
    /// Per-shard array geometries of a heterogeneous fleet; the first
    /// `shards` entries are used, so a live retune can narrow the fleet
    /// to a prefix and widen it back. Outputs stay bit-identical either
    /// way — geometry shapes only band planning and the cost model.
    pub fleet: Option<Vec<ArrayGeometry>>,
    /// Fault plan: band sets carry its injector, and the executor in
    /// stage slot 0 advances its global batch clock.
    pub faults: Option<Arc<FaultPlan>>,
    /// Receives stage/shard busy time, health counters and panic counts.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Receives [`EventKind::Stage`] and [`EventKind::ShardRun`] spans
    /// plus shard-health instants for traced batches.
    pub recorder: Option<Arc<TraceRecorder>>,
}

impl Default for StageEnv {
    /// One array, no fleet, no faults, nothing reported.
    fn default() -> Self {
        StageEnv { shards: 1, fleet: None, faults: None, telemetry: None, recorder: None }
    }
}

/// One executor's long-lived state — activation scratch and band set —
/// plus the handles its batches report into.
pub(crate) struct StageRunner {
    env: StageEnv,
    /// Stage slot in the occupancy gauges (0 for a serial worker); slot 0
    /// also owns the fault plan's batch clock.
    slot: usize,
    /// Trace track of this executor's `Stage` spans and `Retry` instants.
    track: Track,
    /// Executor-lifetime scratch. A serial worker's is fully closed-loop
    /// (zero steady-state allocations once warm); a pipeline stage's
    /// output buffers migrate downstream and only upstream-sized ones come
    /// back, so stages still allocate when their outputs outsize their
    /// inputs — the pool's size-aware eviction keeps the useful sizes
    /// resident.
    scratch: ActivationScratch,
    /// Executor-lifetime shard set: the long-lived kernel scratches the
    /// convs scatter across, with per-lane health and plans.
    bands: BandSet,
}

impl StageRunner {
    /// # Panics
    ///
    /// Panics if `env.shards` is zero.
    pub(crate) fn new(env: StageEnv, slot: usize, track: Track) -> Self {
        let bands = Self::build_bands(&env);
        StageRunner { env, slot, track, scratch: ActivationScratch::new(), bands }
    }

    /// The band set `env` describes, with the fault injector wired in
    /// when the plan can fault band executions.
    fn build_bands(env: &StageEnv) -> BandSet {
        let mut bands = match &env.fleet {
            Some(fleet) => BandSet::with_fleet(fleet[..env.shards.min(fleet.len())].to_vec()),
            None => BandSet::new(env.shards),
        };
        if let Some(plan) = env.faults.as_ref().filter(|plan| plan.faults_bands()) {
            bands.set_fault_injector(Some(Arc::clone(plan) as Arc<dyn FaultInjector>));
        }
        bands
    }

    pub(crate) fn env(&self) -> &StageEnv {
        &self.env
    }

    /// Adopts a retuned shard width: a fresh band set (clean bill of
    /// health, no cached plans) over the warm activation scratch. Outputs
    /// stay bit-identical across the reshape because lane count only
    /// repartitions each conv's rows.
    pub(crate) fn reshape(&mut self, shards: usize) {
        self.env.shards = shards;
        self.bands = Self::build_bands(&self.env);
    }

    /// Discards scratch and band state a genuine panic may have left
    /// mid-write and starts both afresh.
    pub(crate) fn rebuild(&mut self) {
        self.scratch = ActivationScratch::new();
        self.bands = Self::build_bands(&self.env);
    }

    /// Quantizes a batch into this executor's pooled buffers — the input
    /// of a whole-network [`StageRunner::step`].
    pub(crate) fn quantize(&mut self, net: &DeployedNetwork, images: &[Tensor]) -> BatchOutput {
        BatchOutput::Maps(net.quantize_batch_scratch(images, &mut self.scratch))
    }

    /// Runs layers `range` of `net` on one batch. `Err` means the batch
    /// produced nothing: `Some(fault)` when its bands kept faulting past
    /// the retry budget (the band set updates its bookkeeping before
    /// throwing, so the warm state stays usable), `None` on a genuine
    /// panic — scratch or band state may then be mid-write, and the
    /// caller must [`StageRunner::rebuild`] (or retire) before the next
    /// batch.
    ///
    /// `bid` is the trace batch id (0 = untraced); `deadline` is the
    /// batch's earliest member deadline, past which a faulted conv stops
    /// burning retries.
    pub(crate) fn step(
        &mut self,
        net: &DeployedNetwork,
        range: Range<usize>,
        data: BatchOutput,
        bid: u64,
        deadline: Option<Instant>,
    ) -> Result<BatchOutput, Option<BandFaultError>> {
        let StageRunner { env, slot, track, scratch, bands } = self;
        // The toggle is sampled once per batch — one atomic load — so
        // kernel time sees no per-event checks, and the band set only
        // logs conv timings (one branch per conv) while it is up.
        let recorder = env.recorder.as_deref().filter(|r| r.enabled());
        let traced = recorder.filter(|_| bid != 0);
        bands.set_tracing(traced.is_some());
        bands.set_retry_deadline(deadline);
        // The scheduler is a stateless copy of the network's array
        // config; the per-call setup it used to imply (weight-tile
        // slicing) is prepacked in the layers.
        let sched = net.scheduler();
        let started = Instant::now();
        // The unwind boundary is the executor's blast radius: a panic —
        // injected or real — burns only this batch, never the siblings
        // queued behind it, and the thread survives to run them (a dead
        // stage would deadlock every later submit).
        let run = catch_unwind(AssertUnwindSafe(|| {
            if *slot == 0 && env.faults.as_ref().is_some_and(|plan| plan.batch_tick()) {
                panic!("injected worker panic (fault plan)");
            }
            net.run_stage_banded(range, data, &sched, scratch, bands)
        }));
        let ended = Instant::now();

        // Occupancy and shard health are real whether or not the batch
        // survived, and the conv log is drained either way so a failed
        // batch's entries can never be exported under a later batch's id.
        if let Some(t) = &env.telemetry {
            t.on_stage_busy(*slot, ended - started);
            t.drain_shard_busy(bands);
        }
        for event in bands.take_health_events() {
            let (kind, event_track, arg, count): (_, _, _, fn(&Telemetry)) = match event {
                HealthEvent::Fault { lane } => {
                    (EventKind::Fault, Track::Shard(lane as u16), lane, Telemetry::on_band_fault)
                }
                HealthEvent::Quarantine { lane } => {
                    (EventKind::Quarantine, Track::Shard(lane as u16), lane, |t| t.on_quarantine(1))
                }
                // The readmit bit distinguishes leaving quarantine from
                // entering it while sharing one event kind.
                HealthEvent::Readmit { lane } => (
                    EventKind::Quarantine,
                    Track::Shard(lane as u16),
                    lane | (1 << 16),
                    |t| t.on_quarantine(-1),
                ),
                HealthEvent::Retry { attempt } => {
                    (EventKind::Retry, *track, attempt as usize, Telemetry::on_retry)
                }
            };
            if let Some(t) = &env.telemetry {
                count(t);
            }
            if let Some(r) = recorder {
                r.instant(kind, event_track, 0, bid, ended, arg as u32);
            }
        }
        let conv_log = bands.take_conv_log();

        match run {
            Ok(data) => {
                if let Some(r) = traced {
                    r.span(EventKind::Stage, *track, 0, bid, started, ended, *slot as u32);
                    trace::record_conv_log(r, bid, &conv_log);
                }
                Ok(data)
            }
            Err(payload) => {
                let fault = payload.downcast_ref::<BandFaultError>().copied();
                if fault.is_none() {
                    if let Some(t) = &env.telemetry {
                        t.on_worker_panic();
                    }
                }
                Err(fault)
            }
        }
    }
}
