//! The serving runtime: admission control → batch formation and execution
//! on the worker pool, glued together with std threads and one channel —
//! and one place where a request ends.
//!
//! ```text
//!  submit_with ─▶ lookup ─▶ probe ─── cache hit ──────────────────────────▶ resolve
//!                             │ └─ identical miss in flight: park on it ┄┄┐    ▲
//!                             ▼ miss                                      ┆    │
//!                           admit ─── quota / queue full: shed ───────────┼────┤
//!                             │ try_send                                  ┆    │
//!                             ▼ [bounded ingress]                         ▼    │
//!  worker 0..W, idle: lock the batcher ─── deadline blown ───────────▶ finish ─┘
//!                             │ seed best (class, age), coalesce          ▲
//!                             ▼ per network, unlock, stamp the trace      │
//!            the same worker: one stage step, or a K-stage ───────────────┘
//!                             pipeline of them
//!
//!  resolve (any ticket):       telemetry bucket → trace Resolve → the reply send
//!  finish (an admitted one):   cache offer → followers through resolve, with the
//!                              leader's result → quota slot → in-flight count →
//!                              open trace span closed → resolve
//! ```
//!
//! Each file of this module is one seam of that picture and says so in
//! its header. Because the pair takes the request record by value, every
//! ticket [`Server::submit_with`] hands out resolves exactly once and
//! lands in exactly one of `completed` / `failed` / `shed`.
//!
//! There is no batcher thread: the [`crate::batcher::Batcher`] sits
//! behind one mutex and an idle worker forms its own next batch under it
//! (`admission::next_work`), so a batch crosses two thread hand-offs —
//! client → worker → client — not three. One idle worker holds the lock,
//! parked on the empty queue or forming a batch; the others wait on the
//! mutex for their turn. Formation is work-conserving
//! ([`crate::batcher`]): the former holds a coalescing window open only
//! while no other worker is idle (`WorkerEnv::idle` counts the workers
//! inside `next_work`), so at light load a request waits for the array,
//! not for the window, and at saturation batches fill as before.
//! Backpressure is end-to-end:
//! when every worker is busy nobody drains the bounded ingress queue, it
//! fills, and [`Server::submit`] sheds with [`SubmitError::QueueFull`] —
//! exactly [`ServeConfig::queue_capacity`] deep, since no thread holds a
//! formed batch in its hand. With [`ServeConfig::pipeline_stages`] ≥ 2 a
//! worker feeds a bounded [`crate::PipelineExecutor`] instead of executing
//! inline; the bounded stage channels keep the same backpressure chain.
//!
//! [`Server::submit_with`] attaches per-request QoS: a
//! [`crate::QosClass`] (strict priority at batch formation), a deadline
//! (blown work is shed at the next batch-formation point, resolving its
//! ticket with [`WaitError::DeadlineExceeded`]), and a tenant key
//! (per-tenant in-flight quotas via [`ServeConfig::tenant_quota`]).
//!
//! The running server is live-tunable and its models hot-swappable (see
//! `lifecycle`). Batches key on *network identity*, so across a
//! [`Server::swap_model`] requests that captured the old network drain on
//! it while new submits ride the replacement — the two never share a batch.

mod admission;
mod lifecycle;
mod pool;
mod request;

pub use lifecycle::{knob, DrainReport, SwapError, SwapReport};
pub use request::{Response, Ticket};

use crate::batcher::BatchKnobs;
use crate::cache::CacheConfig;
use crate::fault::FaultPlan;
use crate::pipeline::auto_stage_cap;
use crate::qos::SubmitOptions;
use crate::registry::ModelRegistry;
use crate::stage::StageEnv;
use crate::telemetry::TelemetrySnapshot;
use crate::trace::{self, EventKind, TraceConfig, TraceEvent, TraceStats, Track};
use cc_systolic::ArrayGeometry;
use cc_tensor::Tensor;
use pool::{ExecPlan, PoolMsg, WorkerEnv};
use request::{Pending, Request, Shared};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest [`Server::start`] waits for its workers to reach the batcher:
/// far beyond a thread spawn, and a worker lost before its first batch
/// then delays a start instead of hanging it.
const POOL_READY_WAIT: Duration = Duration::from_secs(1);

/// Tuning knobs for a [`Server`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads, each driving its own tiled-scheduler instance.
    pub workers: usize,
    /// Largest batch the dynamic batcher will coalesce.
    pub max_batch: usize,
    /// Longest the batcher holds an unfilled batch open for stragglers,
    /// counted from its oldest request's submit. An upper bound: the
    /// window is held only while every other worker is busy.
    pub batch_deadline: Duration,
    /// Admitted-but-undispatched requests allowed before shedding.
    pub queue_capacity: usize,
    /// Contiguous layer stages each worker splits execution into. At 1
    /// (the default) a worker runs whole batches serially; at K ≥ 2 each
    /// worker becomes a K-thread pipeline that streams successive batches
    /// through cost-balanced layer ranges (stage i on batch n while stage
    /// i+1 finishes batch n−1) — bit-identical to the serial path. Values
    /// beyond the model's layer count are clamped. **0 means auto**: each
    /// worker picks the depth per model from its layer cost model via the
    /// min-max DP ([`crate::pipeline::auto_stages`]), capped by the
    /// machine's parallelism.
    pub pipeline_stages: usize,
    /// Simulated arrays each executor (worker, or pipeline stage) scatters
    /// packed-conv row bands across ([`cc_deploy::BandSet`]). At 1 (the
    /// default) convs run on a single array exactly as before; at N ≥ 2
    /// every conv's prepared tiles fan out over N arrays and gather by row
    /// concatenation — bit-identical to serial execution. Composes with
    /// `pipeline_stages` into a stages × shards executor grid.
    pub shards: usize,
    /// Per-shard array geometries for a heterogeneous fleet
    /// ([`ServeConfig::with_fleet`]). `None` (the default) models
    /// `shards` identical copies of each model's own array config —
    /// exactly the pre-fleet runtime. When set, its length *is* the
    /// shard count: band planning weights each shard's share of the rows
    /// by its array's cycle model, and occupancy telemetry reports busy
    /// fractions per geometry label. Outputs stay bit-identical to the
    /// serial path either way — geometry shapes only the cost model.
    pub fleet: Option<Vec<ArrayGeometry>>,
    /// Response memo-cache bounds. Disabled by default
    /// ([`CacheConfig::disabled`]): serving behavior is then exactly the
    /// pre-cache runtime.
    pub cache: CacheConfig,
    /// Per-tenant in-flight (queued + executing) request quota for
    /// requests that carry a tenant key. 0 (the default) = unlimited.
    pub tenant_quota: usize,
    /// Request-lifecycle tracing ([`crate::trace`]). The default
    /// ([`TraceConfig::off`]) allocates the ring but records nothing
    /// until [`Server::set_tracing`] — a single atomic load per record
    /// site; [`TraceConfig::none`] skips the recorder entirely.
    pub trace: TraceConfig,
    /// Deterministic fault-injection plan ([`crate::fault`]) for chaos
    /// testing. `None` (the default) is the production path: workers
    /// still run under panic isolation and supervision, but no faults
    /// are synthesized.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            max_batch: 8,
            batch_deadline: Duration::from_millis(1),
            queue_capacity: 256,
            pipeline_stages: 1,
            shards: 1,
            fleet: None,
            cache: CacheConfig::disabled(),
            tenant_quota: 0,
            trace: TraceConfig::off(),
            faults: None,
        }
    }
}

impl ServeConfig {
    /// Overrides the worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the maximum batch size.
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Overrides the batching deadline: the longest an unfilled batch is
    /// held open for company, and only while every other worker is busy —
    /// with a peer idle a batch leaves at once with what was queued.
    #[must_use]
    pub fn with_batch_deadline(mut self, deadline: Duration) -> Self {
        self.batch_deadline = deadline;
        self
    }

    /// Overrides the admission-queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Overrides the per-worker pipeline stage count (0 = auto from the
    /// model's layer cost profile).
    #[must_use]
    pub fn with_pipeline_stages(mut self, stages: usize) -> Self {
        self.pipeline_stages = stages;
        self
    }

    /// Overrides the per-executor row-band shard width. Clears any fleet:
    /// a bare width means `shards` identical arrays.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self.fleet = None;
        self
    }

    /// Describes the executor fleet by per-shard array geometry. The
    /// fleet's length becomes the shard count; band planning weights each
    /// shard by its geometry's cycle model and telemetry reports busy
    /// fractions per geometry label.
    ///
    /// # Panics
    ///
    /// Panics if `fleet` is empty.
    #[must_use]
    pub fn with_fleet(mut self, fleet: Vec<ArrayGeometry>) -> Self {
        assert!(!fleet.is_empty(), "a fleet needs at least one array");
        self.shards = fleet.len();
        self.fleet = Some(fleet);
        self
    }

    /// Overrides the response memo-cache bounds.
    #[must_use]
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Overrides the per-tenant in-flight quota (0 = unlimited).
    #[must_use]
    pub fn with_tenant_quota(mut self, quota: usize) -> Self {
        self.tenant_quota = quota;
        self
    }

    /// Overrides the request-lifecycle tracing config.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Injects a deterministic [`FaultPlan`]: shard lanes stall, poison,
    /// or die and workers panic on the plan's seeded schedule, exercising
    /// quarantine, re-planning, retries, and supervision. Chaos runs with
    /// the same plan replay the same failures.
    #[must_use]
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// Why [`Server::submit`] rejected a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// No model with that name is registered.
    UnknownModel(String),
    /// The image shape does not match the model's expected input.
    InvalidShape {
        /// What the model expects.
        expected: (usize, usize, usize),
        /// What the request carried.
        got: Vec<usize>,
    },
    /// Admission control shed the request: the queue is full.
    QueueFull,
    /// Admission control shed the request: its tenant is at the
    /// [`ServeConfig::tenant_quota`] in-flight limit.
    QuotaExceeded {
        /// The tenant that hit its quota.
        tenant: String,
    },
    /// The server is shutting down.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::UnknownModel(name) => write!(f, "unknown model {name:?}"),
            SubmitError::InvalidShape { expected, got } => {
                write!(f, "image shape {got:?} does not match model input {expected:?}")
            }
            SubmitError::QueueFull => write!(f, "queue full, request shed"),
            SubmitError::QuotaExceeded { tenant } => {
                write!(f, "tenant {tenant:?} is at its in-flight quota")
            }
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a [`Ticket`] resolved without a [`Response`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitError {
    /// The request's [`SubmitOptions::deadline`] passed while it was
    /// still queued; the batcher shed it at the next batch-formation
    /// point instead of spending array time on already-blown work.
    DeadlineExceeded,
    /// The server was torn down before the request completed.
    Disconnected,
    /// The worker executing the request's batch panicked; the supervisor
    /// respawned it and every ticket in the batch resolved with this
    /// instead of hanging.
    WorkerPanicked,
    /// The request's batch kept hitting faulted shard executions past the
    /// retry budget (or its deadline); the result could not be produced.
    Faulted,
    /// The request had coalesced onto an identical in-flight miss whose
    /// leader admission control then shed ([`SubmitError::QueueFull`]);
    /// followers share their leader's fate.
    Shed,
}

impl fmt::Display for WaitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitError::DeadlineExceeded => write!(f, "deadline passed while queued"),
            WaitError::Disconnected => write!(f, "server shut down before completion"),
            WaitError::WorkerPanicked => write!(f, "worker panicked while executing the batch"),
            WaitError::Faulted => write!(f, "batch kept faulting past its retry budget"),
            WaitError::Shed => write!(f, "coalesced onto a request that was shed at admission"),
        }
    }
}

impl std::error::Error for WaitError {}
/// A concurrent batched inference server over a [`ModelRegistry`].
pub struct Server {
    /// The registry snapshot being served. Immutable per snapshot; a
    /// hot-swap builds a new snapshot and replaces the `Arc` under the
    /// write lock, so readers only ever pay an uncontended read-lock
    /// plus a pointer clone.
    registry: RwLock<Arc<ModelRegistry>>,
    /// Telemetry, memo-cache, in-flight counts, tenant ledger and trace
    /// recorder: what a request ends through, shared with every thread.
    shared: Arc<Shared>,
    /// The live batcher's size/deadline policy block, shared with the
    /// batcher the workers run — retunes take effect at the next batch
    /// formation without rebuilding anything.
    knobs: Arc<BatchKnobs>,
    /// The live executor geometry, shared with every worker.
    plan: Arc<ExecPlan>,
    /// Desired worker-pool size, shared with workers (self-retire check)
    /// and the supervisor (respawn bound).
    pool_target: Arc<AtomicUsize>,
    /// Control-plane side of the supervisor channel (resize orders).
    pool_tx: mpsc::Sender<PoolMsg>,
    /// Occupancy-gauge bounds fixed at start; retunes clamp to them so
    /// no executor's busy time ever lands outside the gauges.
    stage_slots: usize,
    shard_slots: usize,
    tenant_quota: usize,
    queue_capacity: usize,
    ingress: Option<SyncSender<Request>>,
    /// The worker pool's supervisor ([`pool::spawn_pool`]).
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts the worker pool over a finished registry, returning once
    /// every worker waits for work — or after a second at most, should one
    /// die before it first asks for work.
    ///
    /// # Panics
    ///
    /// Panics if the registry is empty or the config has zero workers,
    /// batch size, or queue capacity.
    pub fn start(registry: ModelRegistry, cfg: ServeConfig) -> Self {
        assert!(!registry.is_empty(), "cannot serve an empty registry");
        assert!(cfg.workers > 0, "need at least one worker");
        assert!(cfg.max_batch > 0, "max_batch must be at least 1");
        assert!(cfg.queue_capacity > 0, "queue_capacity must be at least 1");
        assert!(cfg.shards > 0, "shards must be at least 1");
        let fleet_fits = cfg.fleet.as_ref().is_none_or(|fleet| fleet.len() == cfg.shards);
        assert!(fleet_fits, "fleet length must equal the shard count (use with_fleet)");
        // Auto stage depth is bounded by the machine cap.
        let stage_slots = if cfg.pipeline_stages == 0 { auto_stage_cap() } else { cfg.pipeline_stages };
        let shared = Arc::new(Shared::new(&cfg, stage_slots));
        let knobs = Arc::new(BatchKnobs::new(cfg.max_batch, cfg.batch_deadline));
        let plan = Arc::new(ExecPlan {
            epoch: AtomicU64::new(0),
            stages: AtomicUsize::new(cfg.pipeline_stages),
            shards: AtomicUsize::new(cfg.shards),
        });
        let pool_target = Arc::new(AtomicUsize::new(cfg.workers));
        let (ingress, ingress_rx) = mpsc::sync_channel(cfg.queue_capacity);
        let idle = Arc::new(AtomicUsize::new(0));
        let batcher = admission::request_batcher(
            ingress_rx,
            Arc::clone(&knobs),
            Arc::clone(&shared),
            Arc::clone(&idle),
        );
        let env = WorkerEnv {
            stage: StageEnv {
                shards: cfg.shards,
                fleet: cfg.fleet,
                faults: cfg.faults,
                telemetry: Some(Arc::clone(&shared.telemetry)),
                recorder: shared.trace.clone(),
            },
            plan: Arc::clone(&plan),
            target: Arc::clone(&pool_target),
            shared: Arc::clone(&shared),
            batcher: Arc::new(Mutex::new(batcher)),
            idle: Arc::clone(&idle),
        };
        let (pool_tx, supervisor) = pool::spawn_pool(cfg.workers, env);
        // Return once every worker waits for work: the first request then
        // finds its idle peers counted, not still spawning — a former
        // that saw none would hold it for the whole window.
        let ready_by = Instant::now() + POOL_READY_WAIT;
        while idle.load(Ordering::Relaxed) < cfg.workers && Instant::now() < ready_by {
            std::thread::yield_now();
        }
        Server {
            registry: RwLock::new(Arc::new(registry)),
            shared,
            knobs,
            plan,
            pool_target,
            pool_tx,
            stage_slots,
            shard_slots: cfg.shards,
            tenant_quota: cfg.tenant_quota,
            queue_capacity: cfg.queue_capacity,
            ingress: Some(ingress),
            supervisor: Some(supervisor),
        }
    }

    /// Submits one image for inference on `model` with default QoS
    /// (standard class, no deadline, no tenant), returning a [`Ticket`]
    /// to wait on — or shedding immediately when the queue is full.
    pub fn submit(&self, model: &str, image: Tensor) -> Result<Ticket, SubmitError> {
        self.submit_with(model, image, SubmitOptions::new())
    }

    /// [`Server::submit`] with per-request QoS options: service class,
    /// deadline, and tenant key (see [`SubmitOptions`]).
    ///
    /// With the memo-cache enabled, a repeated input resolves its ticket
    /// immediately from the cache — bit-identical to a fresh array pass —
    /// without consuming a queue slot, a quota slot, or array time.
    pub fn submit_with(
        &self,
        model: &str,
        image: Tensor,
        options: SubmitOptions,
    ) -> Result<Ticket, SubmitError> {
        let net = self.lookup(model, &image)?;
        let submitted = Instant::now();
        // Trace: allocate a correlation id and record the submit instant.
        // With tracing off (or no recorder) this is one atomic load and
        // the id stays 0 — every later record site skips on it.
        let id = self.shared.tracer().map_or(0, |rec| {
            let id = rec.next_request_id();
            let class = options.class.index() as u32;
            rec.instant(EventKind::Submit, Track::Requests, id, 0, submitted, class);
            id
        });
        let (pending, ticket) = Pending::new(submitted, options.class, id);
        if let Some((pending, cache_key)) = self.probe(&net, &image, pending) {
            self.admit(net, image, options, pending, cache_key)?;
        }
        Ok(ticket)
    }

    /// The registry snapshot currently being served. Hot-swaps replace
    /// the snapshot atomically; a handle taken here keeps resolving
    /// against the registry as it was at the call.
    pub fn registry(&self) -> Arc<ModelRegistry> {
        Arc::clone(&self.registry.read().expect("registry lock"))
    }

    /// Current in-flight request count for `tenant`.
    pub fn tenant_in_flight(&self, tenant: &str) -> usize {
        self.shared.ledger.in_flight(tenant)
    }

    /// Admitted-but-unresolved requests across every model: queued,
    /// riding a batch, or executing. Together with the queue depth this
    /// is the server's outstanding work — the control plane reads it
    /// because a wide batch mid-execution empties the *queue* while the
    /// box is at its busiest.
    pub fn in_flight(&self) -> u64 {
        self.shared.inflight.total()
    }

    /// Point-in-time serving metrics (including memo-cache counters).
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.shared.snapshot()
    }

    /// Toggles request-lifecycle tracing at runtime. Returns `false` when
    /// the server was started with [`TraceConfig::none`] (no recorder to
    /// toggle); otherwise the new state takes effect for *subsequent*
    /// submits — in-flight requests keep the tracing decision made at
    /// their submit time.
    pub fn set_tracing(&self, on: bool) -> bool {
        self.shared.trace.as_ref().map(|rec| rec.set_enabled(on)).is_some()
    }

    /// Drains the recorder's ring into a time-ordered event list. Empty
    /// when no recorder exists or nothing was traced.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.shared.trace.as_ref().map(|r| r.events()).unwrap_or_default()
    }

    /// Recorder occupancy counters, if a recorder exists.
    pub fn trace_stats(&self) -> Option<TraceStats> {
        self.shared.trace.as_ref().map(|r| r.stats())
    }

    /// Renders the recorded events as Chrome trace-event JSON (load in
    /// Perfetto / `chrome://tracing`). `None` when no recorder exists.
    pub fn chrome_trace(&self) -> Option<String> {
        self.shared.trace.as_ref().map(|r| trace::chrome::export(r))
    }

    /// Renders current telemetry (and recorder gauges, when present) in
    /// Prometheus text exposition format.
    pub fn metrics_text(&self) -> String {
        trace::prom::prometheus_text(&self.telemetry(), self.trace_stats())
    }
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("queue_capacity", &self.queue_capacity)
            .field("tenant_quota", &self.tenant_quota)
            .field("cache", &self.shared.memo.is_some())
            .field("workers", &self.pool_target.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::request::argmax;
    use super::*;

    #[test]
    fn argmax_picks_largest_finite() {
        assert_eq!(argmax(&[0.1, 3.0, -2.0]), 1);
        assert_eq!(argmax(&[-5.0, -1.0]), 1);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn argmax_orders_nan_smallest_instead_of_panicking() {
        assert_eq!(argmax(&[1.0, f32::NAN, 3.0]), 2);
        assert_eq!(argmax(&[f32::NAN, 2.0]), 1);
        assert_eq!(argmax(&[f32::NAN, f32::NEG_INFINITY, 2.0]), 2);
        // All-NaN: any valid index, and above all no panic.
        let idx = argmax(&[f32::NAN, f32::NAN, f32::NAN]);
        assert!(idx < 3);
    }

    /// Regression for the stale-flight race: `submit_with` used to `lead`
    /// its flight *after* `try_send`, so a fast worker could complete the
    /// batch — resolving the digest — first; the late `lead` then left a
    /// leaderless entry, and once the cache evicted that digest the next
    /// same-digest miss followed it and hung forever. Two alternating
    /// inputs through a one-entry cache make every request a miss right
    /// after its digest was evicted; every ticket must resolve and no
    /// flight may outlive the traffic.
    #[test]
    fn flights_never_outlive_their_batch() {
        use cc_dataset::SyntheticSpec;
        use cc_deploy::{identity_groups, DeployedNetwork};
        use cc_nn::models::{lenet5_shift, ModelConfig};

        let (train, test) =
            SyntheticSpec::mnist_like().with_size(8, 8).with_samples(48, 2).generate(29);
        let net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
        let deployed = DeployedNetwork::build(&net, &identity_groups(&net), &train);
        let server = Server::start(
            ModelRegistry::new().with_model("m", deployed),
            ServeConfig::default()
                .with_workers(2)
                .with_max_batch(1)
                .with_cache(CacheConfig::bounded(1, 1 << 20)),
        );
        for i in 0..4000 {
            let ticket = server.submit("m", test.image(i % 2).clone()).expect("admitted");
            let resolution = ticket.wait_timeout(Duration::from_secs(10));
            assert!(matches!(resolution, Some(Ok(_))), "request {i} hung or failed: {resolution:?}");
        }
        let memo = server.shared.memo.as_ref().expect("the cache allocates a flight table");
        assert_eq!(memo.flights.in_flight(), 0, "a flight outlived every request");
        let stats = server.shutdown();
        assert!(stats.cache.evictions > 0, "the working set must overflow the cache");
    }
}
