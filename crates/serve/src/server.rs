//! The serving runtime: admission control → dynamic batcher → worker
//! pool, glued together with std threads and channels.
//!
//! ```text
//!  submit() ──cache hit?──▶ reply immediately (no array pass)
//!     │ miss
//!     ├──quota/try_send──▶ [bounded ingress] ──▶ batcher ──▶ [rendezvous] ──▶ worker 0..W
//!     │ full?                                    │ shed blown deadlines       │ run_batch_with,
//!     ▼ shed                                     │ seed best (class, age)     │ or K-stage pipeline
//!                                                ▼ coalesce per pipeline      ▼ reply + cache fill
//! ```
//!
//! Backpressure is end-to-end: workers pull batches over a rendezvous
//! channel, so when every worker is busy the batcher blocks, the bounded
//! ingress queue fills, and [`Server::submit`] sheds with
//! [`SubmitError::QueueFull`] instead of buffering without bound. With
//! [`ServeConfig::pipeline_stages`] ≥ 2 a worker feeds a bounded
//! [`PipelineExecutor`] instead of executing inline; the bounded stage
//! channels keep the same backpressure chain intact.
//!
//! With [`ServeConfig::cache`] enabled, a submit first probes the
//! response memo-cache on `(network identity, quantized-input digest)`:
//! a repeated input is answered from memory — bit-identical to a fresh
//! array pass, see [`crate::cache`] — without consuming a queue slot,
//! a batch slot, or array time. Misses carry their digest through the
//! batch so the worker fills the cache at completion.
//!
//! [`Server::submit_with`] attaches per-request QoS: a [`QosClass`]
//! (strict priority at batch formation), a deadline (blown work is shed
//! at the next batch-formation point, resolving its ticket with
//! [`WaitError::DeadlineExceeded`]), and a tenant key (per-tenant
//! in-flight quotas via [`ServeConfig::tenant_quota`]).
//!
//! The server is **live-tunable**: [`Server::set_max_batch`],
//! [`Server::set_batch_deadline`], [`Server::resize_workers`], and
//! [`Server::retune_executors`] retarget the running batcher, worker
//! pool, and executor geometry without a restart (the control plane in
//! [`crate::control`] drives them from telemetry deltas), and
//! [`Server::swap_model`] atomically replaces a registry entry while
//! serving. Batches key on *network identity*, so requests that captured
//! the old network drain on it while new submits ride the replacement —
//! the two never share a batch.

use crate::batcher::{BatchKnobs, Batcher};
use crate::cache::{CacheConfig, FlightTable, ResponseCache};
use crate::fault::FaultPlan;
use crate::pipeline::{auto_stage_cap, auto_stages, PipelineExecutor};
use crate::qos::{QosClass, SubmitOptions, TenantLedger};
use crate::registry::ModelRegistry;
use crate::stage::{StageEnv, StageRunner};
use crate::telemetry::{Telemetry, TelemetrySnapshot};
use crate::trace::{
    self, EventKind, Outcome, TraceConfig, TraceEvent, TraceRecorder, TraceStats, Track,
};
use cc_deploy::{BandFaultError, BatchOutput, DeployedNetwork};
use cc_systolic::ArrayGeometry;
use cc_tensor::{Shape, Tensor};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`Server`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads, each driving its own tiled-scheduler instance.
    pub workers: usize,
    /// Largest batch the dynamic batcher will coalesce.
    pub max_batch: usize,
    /// How long the batcher holds an unfilled batch open for stragglers.
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

    /// Overrides the batching deadline.
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

/// A served inference result.
#[derive(Clone, Debug)]
pub struct Response {
    /// Real-valued class logits.
    pub logits: Vec<f32>,
    /// Argmax class.
    pub class: usize,
    /// End-to-end latency, submit to completion.
    pub latency: Duration,
    /// Size of the batch this request rode in. 0 means it rode in none:
    /// the response was served from the memo-cache.
    pub batch_size: usize,
    /// The request's trace correlation id: matches the `rid` of its
    /// events in [`Server::trace_events`]. 0 when the request was not
    /// traced (no recorder, or tracing off at submit time).
    pub id: u64,
}

/// A pending response; resolves when a worker finishes the request (or
/// immediately, on a cache hit).
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Result<Response, WaitError>>,
}

impl Ticket {
    /// Blocks until the response arrives. `None` if the request was shed
    /// after admission (deadline) or the server was torn down first — use
    /// [`Ticket::wait_result`] to distinguish.
    pub fn wait(self) -> Option<Response> {
        self.wait_result().ok()
    }

    /// Blocks until the response arrives, reporting *why* when it never
    /// will.
    pub fn wait_result(self) -> Result<Response, WaitError> {
        self.rx.recv().unwrap_or(Err(WaitError::Disconnected))
    }

    /// Non-blocking poll.
    pub fn try_wait(&self) -> Option<Response> {
        self.rx.try_recv().ok().and_then(Result::ok)
    }

    /// Bounded wait: blocks at most `timeout`. `None` means the request
    /// is still pending (the ticket stays usable); `Some` carries the
    /// resolution, with a dropped sender mapped to
    /// [`WaitError::Disconnected`] exactly like [`Ticket::wait_result`].
    /// Chaos tests use this to *assert* no ticket ever hangs.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Response, WaitError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(resolution) => Some(resolution),
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(WaitError::Disconnected)),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
        }
    }
}

/// Knob ids carried in the high byte of an [`EventKind::Retune`] trace
/// arg (the low 24 bits carry the applied value). Stable across
/// releases: trace consumers match on these.
pub mod knob {
    /// Worker-pool target size ([`super::Server::resize_workers`]).
    pub const WORKERS: u32 = 1;
    /// Batcher maximum batch size ([`super::Server::set_max_batch`]).
    pub const MAX_BATCH: u32 = 2;
    /// Batcher coalescing deadline, in microseconds
    /// ([`super::Server::set_batch_deadline`]).
    pub const BATCH_DEADLINE_US: u32 = 3;
    /// Pipeline stage depth, 0 = auto ([`super::Server::retune_executors`]).
    pub const STAGES: u32 = 4;
    /// Row-band shard width ([`super::Server::retune_executors`]).
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
            SwapError::UnknownModel(name) => {
                write!(f, "no model {name:?} registered to swap")
            }
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

/// A miss's memo-cache key, carried through the batch so the worker can
/// fill the cache at completion.
type CacheKey = (u64, Box<[i8]>);

/// A coalesced follower parked on another request's in-flight execution
/// (see [`FlightTable`]): everything needed to resolve its ticket when
/// the leader's batch lands. Followers consume no queue slot, no quota
/// slot, and no array time.
struct Waiter {
    submitted: Instant,
    /// Trace correlation id (0 = untraced).
    id: u64,
    reply: mpsc::Sender<Result<Response, WaitError>>,
}

/// Admitted-but-unresolved request counts per network identity, with a
/// condvar hot-swap drains wait on. Incremented at admission,
/// decremented on every terminal path (completion, failure, deadline
/// shed), so [`InFlight::wait_idle`] returning true means no queued or
/// executing batch still references that network.
#[derive(Default)]
struct InFlight {
    counts: Mutex<HashMap<usize, u64>>,
    idle: Condvar,
}

impl InFlight {
    fn inc(&self, identity: usize) {
        *self.counts.lock().expect("inflight lock").entry(identity).or_insert(0) += 1;
    }

    fn dec(&self, identity: usize) {
        let mut counts = self.counts.lock().expect("inflight lock");
        if let Some(n) = counts.get_mut(&identity) {
            *n -= 1;
            if *n == 0 {
                counts.remove(&identity);
                self.idle.notify_all();
            }
        }
    }

    /// Admitted-but-unresolved requests across every network.
    fn total(&self) -> u64 {
        self.counts.lock().expect("inflight lock").values().sum()
    }

    /// Blocks until no request for `identity` is in flight, at most
    /// `timeout`. True = drained, false = timed out with work pending.
    fn wait_idle(&self, identity: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut counts = self.counts.lock().expect("inflight lock");
        while counts.get(&identity).copied().unwrap_or(0) > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .idle
                .wait_timeout(counts, deadline - now)
                .expect("inflight lock");
            counts = guard;
        }
        true
    }
}

/// The live executor geometry workers run under. The control plane bumps
/// `epoch` after changing `stages`/`shards`; each worker notices the new
/// epoch at its next batch boundary and reshapes its band set (and drops
/// its pipelines) to match — a batch never straddles two plans, and
/// outputs stay bit-identical across the reshape because shard width and
/// stage depth only repartition work.
struct ExecPlan {
    epoch: AtomicU64,
    /// Stage depth (0 = auto per model).
    stages: AtomicUsize,
    shards: AtomicUsize,
}

/// Worker → supervisor exit report, or a control-plane resize order.
enum PoolMsg {
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
enum WorkerExit {
    /// Work channel closed: the server is shutting down.
    Closed,
    /// A batch panicked in a way that may have corrupted worker-local
    /// state; the supervisor respawns the slot with everything rebuilt.
    Panicked,
    /// The worker noticed its index is at or past the pool target and
    /// retired. The supervisor respawns it if the target grew back in
    /// the meantime (the shrink-then-grow race heals on this report).
    Retired,
}

struct Request {
    net: DeployedNetwork,
    image: Tensor,
    submitted: Instant,
    class: QosClass,
    /// Absolute deadline (submit time + [`SubmitOptions::deadline`]).
    deadline: Option<Instant>,
    tenant: Option<Arc<str>>,
    cache_key: Option<CacheKey>,
    /// Trace correlation id (0 = untraced).
    id: u64,
    /// When the batcher handed this request to a worker; the boundary
    /// between its queue span and its execute span. Initialized to the
    /// submit time and restamped at dispatch.
    dispatched_at: Instant,
    reply: mpsc::Sender<Result<Response, WaitError>>,
}

/// Everything the completion path needs besides the batch itself; shared
/// by the submit path, workers, and pipeline sinks.
#[derive(Clone)]
struct Shared {
    telemetry: Arc<Telemetry>,
    cache: Option<Arc<ResponseCache>>,
    /// In-flight miss coalescing table; allocated iff the cache is.
    flights: Option<Arc<FlightTable<Waiter>>>,
    /// Per-identity in-flight counts hot-swap drains wait on.
    inflight: Arc<InFlight>,
    ledger: Arc<TenantLedger>,
    trace: Option<Arc<TraceRecorder>>,
}

/// A concurrent batched inference server over a [`ModelRegistry`].
pub struct Server {
    /// The registry snapshot being served. Immutable per snapshot; a
    /// hot-swap builds a new snapshot and replaces the `Arc` under the
    /// write lock, so readers only ever pay an uncontended read-lock
    /// plus a pointer clone.
    registry: RwLock<Arc<ModelRegistry>>,
    telemetry: Arc<Telemetry>,
    cache: Option<Arc<ResponseCache>>,
    flights: Option<Arc<FlightTable<Waiter>>>,
    inflight: Arc<InFlight>,
    ledger: Arc<TenantLedger>,
    trace: Option<Arc<TraceRecorder>>,
    /// The live batcher's size/deadline policy block, shared with the
    /// batcher thread — retunes take effect at the next batch formation
    /// without rebuilding anything.
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
    batcher: Option<JoinHandle<()>>,
    /// The worker pool's supervisor: it owns the worker join handles,
    /// respawns panicked slots (and retired slots the target grew back
    /// over), grows the pool on resize orders, and returns once every
    /// worker has exited cleanly (work channel closed).
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts the batcher and worker threads over a finished registry.
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
        if let Some(fleet) = &cfg.fleet {
            assert_eq!(
                fleet.len(),
                cfg.shards,
                "fleet length must equal the shard count (use with_fleet)"
            );
        }

        let registry = Arc::new(registry);
        // Occupancy gauges sized from the config so no configured
        // executor's busy time is dropped (auto stage depth is bounded by
        // the machine cap). A fleet also labels the shard lanes so the
        // snapshot can aggregate busy fractions per geometry.
        let stage_slots = if cfg.pipeline_stages == 0 { auto_stage_cap() } else { cfg.pipeline_stages };
        let mut telemetry = Telemetry::with_slots(stage_slots, cfg.shards);
        if let Some(fleet) = &cfg.fleet {
            telemetry = telemetry.with_shard_labels(fleet.iter().map(ArrayGeometry::label).collect());
        }
        let telemetry = Arc::new(telemetry);
        let cache = cfg.cache.enabled().then(|| Arc::new(ResponseCache::new(cfg.cache)));
        // The flight table rides the cache: coalescing keys on the same
        // (identity, digest) pair, so without quantized digests there is
        // nothing sound to coalesce on.
        let flights = cache.as_ref().map(|_| Arc::new(FlightTable::new()));
        let inflight = Arc::new(InFlight::default());
        let knobs = Arc::new(BatchKnobs::new(cfg.max_batch, cfg.batch_deadline));
        let plan = Arc::new(ExecPlan {
            epoch: AtomicU64::new(0),
            stages: AtomicUsize::new(cfg.pipeline_stages),
            shards: AtomicUsize::new(cfg.shards),
        });
        let pool_target = Arc::new(AtomicUsize::new(cfg.workers));
        let ledger = Arc::new(TenantLedger::new());
        // Capacity 0 = no recorder at all: the serving path then carries
        // no trace plumbing cost whatsoever, not even the atomic load.
        let trace_rec =
            (cfg.trace.capacity > 0).then(|| Arc::new(TraceRecorder::new(cfg.trace)));
        let (ingress_tx, ingress_rx) = mpsc::sync_channel::<Request>(cfg.queue_capacity);
        // Rendezvous hand-off: the batcher blocks until a worker is free,
        // which is what pushes overload back to admission control. Each
        // batch travels with its trace batch id (0 = untraced).
        let (work_tx, work_rx) = mpsc::sync_channel::<WorkItem>(0);
        let work_rx = Arc::new(Mutex::new(work_rx));

        let batcher_telemetry = Arc::clone(&telemetry);
        let batcher_trace = trace_rec.clone();
        let batcher_knobs = Arc::clone(&knobs);
        let expired_telemetry = Arc::clone(&telemetry);
        let expired_ledger = Arc::clone(&ledger);
        let expired_trace = trace_rec.clone();
        let expired_flights = flights.clone();
        let expired_inflight = Arc::clone(&inflight);
        let batcher = std::thread::Builder::new()
            .name("cc-serve-batcher".into())
            .spawn(move || {
                // Batches are keyed on *network identity*, not model name:
                // a name can point at different pipelines over time (e.g.
                // across a registry hot-swap), and requests that captured
                // different networks must never share a batch — the worker
                // runs the whole batch on one network. The coalescing
                // window is anchored at the seed request's submit time so
                // a request never pays stash wait plus a fresh deadline.
                let mut batcher = Batcher::with_knobs(
                    ingress_rx,
                    batcher_knobs,
                    |r: &Request| r.net.identity(),
                    |r: &Request| r.submitted,
                )
                .with_qos(
                    |r: &Request| r.class.index(),
                    |r: &Request| r.deadline,
                    move |r: Request| {
                        expired_telemetry.on_deadline_shed(r.class);
                        if let Some(tenant) = &r.tenant {
                            expired_ledger.release(tenant);
                        }
                        if let Some(rec) = &expired_trace {
                            if rec.enabled() && r.id != 0 {
                                let now = Instant::now();
                                rec.span(
                                    EventKind::Queue,
                                    Track::Requests,
                                    r.id,
                                    0,
                                    r.submitted,
                                    now,
                                    0,
                                );
                                rec.instant(
                                    EventKind::Resolve,
                                    Track::Requests,
                                    r.id,
                                    0,
                                    now,
                                    Outcome::DeadlineExceeded as u32,
                                );
                            }
                        }
                        // A shed leader takes its coalesced followers
                        // with it — they share its fate, never hang.
                        resolve_waiters_err(
                            &expired_flights,
                            &expired_trace,
                            r.net.identity(),
                            r.cache_key.as_ref(),
                            WaitError::DeadlineExceeded,
                            Outcome::DeadlineExceeded,
                        );
                        expired_inflight.dec(r.net.identity());
                        let _ = r.reply.send(Err(WaitError::DeadlineExceeded));
                    },
                );
                while let Some(mut batch) = batcher.next_batch() {
                    batcher_telemetry.on_dispatch(batch.len());
                    // Stamp the batch for tracing: close each member's
                    // queue span, open its execute clock, and record how
                    // the batch formed — all on the batcher thread, off
                    // the submit path and outside worker kernel time.
                    let mut bid = 0;
                    if let Some(rec) = &batcher_trace {
                        if rec.enabled() {
                            bid = rec.next_batch_id();
                            let now = Instant::now();
                            if let Some(f) = batcher.last_formation() {
                                rec.span(
                                    EventKind::BatchForm,
                                    Track::Batcher,
                                    0,
                                    bid,
                                    f.seeded_at,
                                    f.released_at,
                                    batch.len() as u32,
                                );
                            }
                            for r in &mut batch {
                                r.dispatched_at = now;
                                if r.id == 0 {
                                    continue;
                                }
                                rec.span(
                                    EventKind::Queue,
                                    Track::Requests,
                                    r.id,
                                    bid,
                                    r.submitted,
                                    now,
                                    0,
                                );
                                rec.instant(
                                    EventKind::BatchMember,
                                    Track::Batcher,
                                    r.id,
                                    bid,
                                    now,
                                    0,
                                );
                            }
                        }
                    }
                    if work_tx.send((bid, batch)).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn batcher");

        let shared = Shared {
            telemetry: Arc::clone(&telemetry),
            cache: cache.clone(),
            flights: flights.clone(),
            inflight: Arc::clone(&inflight),
            ledger: Arc::clone(&ledger),
            trace: trace_rec.clone(),
        };
        let env = WorkerEnv {
            stage: StageEnv {
                shards: cfg.shards,
                fleet: cfg.fleet.clone(),
                faults: cfg.faults.clone(),
                telemetry: Some(Arc::clone(&telemetry)),
                recorder: trace_rec.clone(),
            },
            plan: Arc::clone(&plan),
            pool: Arc::clone(&pool_target),
        };
        // Workers report their exit to the supervisor: a panic exit gets
        // the slot respawned with fresh state, a clean exit (work channel
        // closed) counts the pool down, and a retirement (pool shrink)
        // leaves the slot empty until a resize order covers it again. The
        // closure is the single spawn path for the initial pool, respawns,
        // and resize growth.
        let (exit_tx, exit_rx) = mpsc::channel::<PoolMsg>();
        let pool_tx = exit_tx.clone();
        let spawn_worker = {
            let work_rx = Arc::clone(&work_rx);
            let shared = shared.clone();
            move |index: usize, exit_tx: mpsc::Sender<PoolMsg>| {
                let work_rx = Arc::clone(&work_rx);
                let shared = shared.clone();
                let env = env.clone();
                std::thread::Builder::new()
                    .name(format!("cc-serve-worker-{index}"))
                    .spawn(move || {
                        let exit = worker_loop(&work_rx, &shared, &env, index as u16);
                        let _ = exit_tx.send(PoolMsg::Exit { index, exit });
                    })
                    .expect("spawn worker")
            }
        };
        let mut handles: Vec<Option<JoinHandle<()>>> =
            (0..cfg.workers).map(|i| Some(spawn_worker(i, exit_tx.clone()))).collect();
        let supervisor_target = Arc::clone(&pool_target);
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
                                // whenever the target still covers them;
                                // a shrink-then-grow race heals here, on
                                // the straggling retire report.
                                WorkerExit::Panicked | WorkerExit::Retired => {
                                    index < supervisor_target.load(Ordering::Acquire)
                                }
                            };
                            if respawn {
                                handles[index] = Some(spawn_worker(index, exit_tx.clone()));
                            } else {
                                live -= 1;
                            }
                        }
                        PoolMsg::Resize => {
                            let target = supervisor_target.load(Ordering::Acquire);
                            if target > handles.len() {
                                handles.resize_with(target, || None);
                            }
                            for index in 0..target {
                                if handles[index].is_none() {
                                    handles[index] = Some(spawn_worker(index, exit_tx.clone()));
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

        Server {
            registry: RwLock::new(registry),
            telemetry,
            cache,
            flights,
            inflight,
            ledger,
            trace: trace_rec,
            knobs,
            plan,
            pool_target,
            pool_tx,
            stage_slots,
            shard_slots: cfg.shards,
            tenant_quota: cfg.tenant_quota,
            queue_capacity: cfg.queue_capacity,
            ingress: Some(ingress_tx),
            batcher: Some(batcher),
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
        // One uncontended read-lock + clone pins this request to the
        // current registry snapshot: a concurrent hot-swap publishes a
        // new snapshot without disturbing requests already holding the
        // old network (`DeployedNetwork` is `Arc`-backed — a clone is a
        // pointer bump).
        let net = {
            let registry = self.registry.read().expect("registry lock");
            registry.get(model).cloned()
        }
        .ok_or_else(|| SubmitError::UnknownModel(model.to_string()))?;
        let identity = net.identity();
        let expected = net.input_shape();
        let shape = image.shape();
        let got: Vec<usize> = (0..shape.rank()).map(|i| shape.dim(i)).collect();
        if got != [expected.0, expected.1, expected.2] {
            return Err(SubmitError::InvalidShape { expected, got });
        }
        let submitted = Instant::now();

        // Trace: allocate a correlation id and record the submit instant.
        // With tracing off (or no recorder) this entire arm is one atomic
        // load and rid stays 0 — every later record site skips on it.
        let rid = match &self.trace {
            Some(rec) if rec.enabled() => {
                let rid = rec.next_request_id();
                rec.instant(
                    EventKind::Submit,
                    Track::Requests,
                    rid,
                    0,
                    submitted,
                    options.class.index() as u32,
                );
                rid
            }
            _ => 0,
        };

        // Memo-cache probe. The key is taken *after* quantization — the
        // exact bytes the array would see — so a hit is bit-identical to
        // running the batch, and sub-quantum float jitter still hits.
        let cache_key = match &self.cache {
            Some(cache) => {
                let probe_start = Instant::now();
                let qmap = net.quantize_input(&image);
                let digest = qmap.digest();
                let hit = cache.lookup(identity, digest, qmap.as_slice());
                if rid != 0 {
                    if let Some(rec) = &self.trace {
                        rec.span(
                            EventKind::CacheProbe,
                            Track::Requests,
                            rid,
                            0,
                            probe_start,
                            Instant::now(),
                            hit.is_some() as u32,
                        );
                    }
                }
                if let Some(logits) = hit {
                    let latency = submitted.elapsed();
                    self.telemetry.on_complete(latency);
                    if rid != 0 {
                        if let Some(rec) = &self.trace {
                            rec.instant(
                                EventKind::Resolve,
                                Track::Requests,
                                rid,
                                0,
                                Instant::now(),
                                Outcome::CacheHit as u32,
                            );
                        }
                    }
                    let class = argmax(&logits);
                    let (reply, rx) = mpsc::channel();
                    let _ = reply
                        .send(Ok(Response { logits, class, latency, batch_size: 0, id: rid }));
                    return Ok(Ticket { rx });
                }
                // In-flight miss coalescing: when an identical miss is
                // already riding a batch, park this request on it as a
                // follower instead of burning a second array pass on
                // bytes already in flight — the leader's completion fans
                // the (bit-identical) logits out. Followers skip quota
                // and queue admission entirely: they consume nothing the
                // limits protect.
                if let Some(flights) = &self.flights {
                    let (reply, rx) = mpsc::channel();
                    if flights
                        .follow(identity, digest, Waiter { submitted, id: rid, reply })
                        .is_ok()
                    {
                        return Ok(Ticket { rx });
                    }
                }
                Some((digest, qmap.into_raw().into_boxed_slice()))
            }
            None => None,
        };
        // The digest this request would lead a flight under, once (and
        // only once) it is actually admitted.
        let flight_digest = cache_key.as_ref().map(|(digest, _)| *digest);

        // Admission sheds resolve the trace immediately: the lifecycle is
        // submit → resolve(shed), no queue span.
        let trace_shed = |rid: u64| {
            if rid != 0 {
                if let Some(rec) = &self.trace {
                    rec.instant(
                        EventKind::Resolve,
                        Track::Requests,
                        rid,
                        0,
                        Instant::now(),
                        Outcome::Shed as u32,
                    );
                }
            }
        };

        // Tenant quota: one tenant flooding submits cannot occupy the
        // whole queue. The ledger counts whenever a tenant key is present
        // (even at quota 0 = unlimited) so `in_flight` stays observable.
        let tenant: Option<Arc<str>> = options.tenant.as_deref().map(Arc::from);
        if let Some(t) = &tenant {
            if !self.ledger.try_admit(t, self.tenant_quota) {
                self.telemetry.on_shed(options.class);
                trace_shed(rid);
                return Err(SubmitError::QuotaExceeded { tenant: t.to_string() });
            }
        }
        let release = |t: &Option<Arc<str>>| {
            if let Some(t) = t {
                self.ledger.release(t);
            }
        };

        // The gauge also covers requests the batcher has pulled into its
        // coalescing window but not yet dispatched.
        if self.telemetry.queue_depth() >= self.queue_capacity {
            release(&tenant);
            self.telemetry.on_shed(options.class);
            trace_shed(rid);
            return Err(SubmitError::QueueFull);
        }
        let Some(ingress) = self.ingress.as_ref() else {
            release(&tenant);
            return Err(SubmitError::ShuttingDown);
        };
        let (reply, rx) = mpsc::channel();
        let request = Request {
            net,
            image,
            submitted,
            class: options.class,
            deadline: options.deadline.map(|d| submitted + d),
            tenant: tenant.clone(),
            cache_key,
            id: rid,
            dispatched_at: submitted,
            reply,
        };
        // Count the request in flight *before* it becomes visible to the
        // batcher: a worker can complete it (and dec) within the window
        // between `try_send` and any bookkeeping after it, and a dec
        // racing ahead of its inc would no-op and leak the count —
        // every later hot-swap drain would then wait out its full
        // timeout against a phantom request.
        self.inflight.inc(identity);
        // Lead the flight before `try_send` for the same reason: a `lead`
        // landing after the batch's completion already `resolve`d the
        // digest would leave a leaderless entry, and once the cache
        // evicted that digest every later same-digest miss would follow
        // it forever. `false` means a racing twin leads this digest —
        // both run (exactly the pre-table behavior), and a twin that lost
        // registration never tears the winner's entry down on a shed.
        let leads = match (&self.flights, flight_digest) {
            (Some(flights), Some(digest)) => flights.lead(identity, digest),
            _ => false,
        };
        let (request, submit_err, follower_err) = match ingress.try_send(request) {
            Ok(()) => {
                self.telemetry.on_admit();
                return Ok(Ticket { rx });
            }
            Err(TrySendError::Full(request)) => {
                self.telemetry.on_shed(options.class);
                trace_shed(rid);
                (request, SubmitError::QueueFull, WaitError::Shed)
            }
            Err(TrySendError::Disconnected(request)) => {
                (request, SubmitError::ShuttingDown, WaitError::Disconnected)
            }
        };
        self.inflight.dec(identity);
        release(&tenant);
        if leads {
            // Followers that attached since `lead` share the shed
            // leader's fate — they resolve now, never hang.
            resolve_waiters_err(
                &self.flights,
                &self.trace,
                identity,
                request.cache_key.as_ref(),
                follower_err,
                Outcome::Shed,
            );
        }
        Err(submit_err)
    }

    /// The registry snapshot currently being served. Hot-swaps replace
    /// the snapshot atomically; a handle taken here keeps resolving
    /// against the registry as it was at the call.
    pub fn registry(&self) -> Arc<ModelRegistry> {
        Arc::clone(&self.registry.read().expect("registry lock"))
    }

    /// Emits one retune decision: the telemetry counter plus a
    /// [`EventKind::Retune`] instant on the control track, knob id in
    /// the high byte and the applied value in the low 24 bits.
    fn note_retune(&self, knob: u32, value: u64) {
        self.telemetry.on_retune();
        if let Some(rec) = &self.trace {
            if rec.enabled() {
                let arg = (knob << 24) | (value.min(0x00FF_FFFF) as u32);
                rec.instant(EventKind::Retune, Track::Control, 0, 0, Instant::now(), arg);
            }
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
            || self.inflight.wait_idle(old_identity, drain);
        let waited = started.elapsed();
        self.telemetry.on_swap();
        if let Some(rec) = &self.trace {
            if rec.enabled() {
                rec.instant(
                    EventKind::Swap,
                    Track::Control,
                    0,
                    0,
                    Instant::now(),
                    u32::from(drained),
                );
            }
        }
        Ok(SwapReport { drained, waited })
    }

    /// Current in-flight request count for `tenant`.
    pub fn tenant_in_flight(&self, tenant: &str) -> usize {
        self.ledger.in_flight(tenant)
    }

    /// Admitted-but-unresolved requests across every model: queued,
    /// riding a batch, or executing. Together with the queue depth this
    /// is the server's outstanding work — the control plane reads it
    /// because a wide batch mid-execution empties the *queue* while the
    /// box is at its busiest.
    pub fn in_flight(&self) -> u64 {
        self.inflight.total()
    }

    /// Point-in-time serving metrics (including memo-cache counters).
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot_with_cache(
            self.cache.as_ref().map(|c| c.stats()).unwrap_or_default(),
        )
    }

    /// The server's trace recorder, if one was allocated
    /// ([`TraceConfig::capacity`] > 0).
    pub fn trace_recorder(&self) -> Option<Arc<TraceRecorder>> {
        self.trace.clone()
    }

    /// Toggles request-lifecycle tracing at runtime. Returns `false` when
    /// the server was started with [`TraceConfig::none`] (no recorder to
    /// toggle); otherwise the new state takes effect for *subsequent*
    /// submits — in-flight requests keep the tracing decision made at
    /// their submit time.
    pub fn set_tracing(&self, on: bool) -> bool {
        match &self.trace {
            Some(rec) => {
                rec.set_enabled(on);
                true
            }
            None => false,
        }
    }

    /// Drains the recorder's ring into a time-ordered event list. Empty
    /// when no recorder exists or nothing was traced.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.as_ref().map(|r| r.events()).unwrap_or_default()
    }

    /// Recorder occupancy counters, if a recorder exists.
    pub fn trace_stats(&self) -> Option<TraceStats> {
        self.trace.as_ref().map(|r| r.stats())
    }

    /// Renders the recorded events as Chrome trace-event JSON (load in
    /// Perfetto / `chrome://tracing`). `None` when no recorder exists.
    pub fn chrome_trace(&self) -> Option<String> {
        self.trace.as_ref().map(|r| trace::chrome::export(r))
    }

    /// Renders current telemetry (and recorder gauges, when present) in
    /// Prometheus text exposition format.
    pub fn metrics_text(&self) -> String {
        trace::prom::prometheus_text(&self.telemetry(), self.trace_stats())
    }

    /// Drains the queue, stops every thread, and returns the final
    /// telemetry. All outstanding tickets resolve before this returns.
    pub fn shutdown(mut self) -> TelemetrySnapshot {
        self.stop();
        self.telemetry.snapshot_with_cache(
            self.cache.as_ref().map(|c| c.stats()).unwrap_or_default(),
        )
    }

    /// Graceful drain with a bound: stops admission immediately (late
    /// submits shed with [`SubmitError::ShuttingDown`]), flushes the
    /// batcher's stash, and waits up to `timeout` for in-flight work to
    /// finish. The report says whether the drain completed and carries
    /// the final telemetry — `stats.shed` is what admission turned away,
    /// `stats.failed` what fault isolation resolved with errors.
    ///
    /// On timeout the remaining work is abandoned to a detached joiner
    /// thread: outstanding tickets still resolve (workers keep running
    /// until the queue empties, or their reply senders drop, mapping to
    /// [`WaitError::Disconnected`]) — nothing ever hangs, the drain just
    /// stops waiting for it.
    pub fn shutdown_within(mut self, timeout: Duration) -> DrainReport {
        // Closing ingress stops admission; the batcher drains its stash,
        // exits, and drops the work sender, which winds the workers (and
        // then the supervisor) down.
        self.ingress = None;
        let batcher = self.batcher.take();
        let supervisor = self.supervisor.take();
        let (done_tx, done_rx) = mpsc::channel();
        let joiner = std::thread::Builder::new()
            .name("cc-serve-drain".into())
            .spawn(move || {
                if let Some(handle) = batcher {
                    let _ = handle.join();
                }
                if let Some(handle) = supervisor {
                    let _ = handle.join();
                }
                let _ = done_tx.send(());
            })
            .expect("spawn drain joiner");
        let drained = done_rx.recv_timeout(timeout).is_ok();
        if drained {
            let _ = joiner.join();
        }
        let stats = self
            .telemetry
            .snapshot_with_cache(self.cache.as_ref().map(|c| c.stats()).unwrap_or_default());
        DrainReport { drained, stats }
    }

    fn stop(&mut self) {
        // Closing ingress lets the batcher drain its stash and exit; the
        // batcher owns the work sender, so workers then exit too and the
        // supervisor follows once the pool is empty.
        self.ingress = None;
        if let Some(handle) = self.batcher.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }
}

/// What [`Server::shutdown_within`] observed.
#[derive(Clone, Debug)]
pub struct DrainReport {
    /// True when every in-flight request resolved (and every thread
    /// exited) within the timeout.
    pub drained: bool,
    /// Final telemetry: `completed`, `shed`, and `failed` together
    /// account for every admitted request once the drain finishes.
    pub stats: TelemetrySnapshot,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("queue_capacity", &self.queue_capacity)
            .field("tenant_quota", &self.tenant_quota)
            .field("cache", &self.cache.is_some())
            .field("workers", &self.pool_target.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Per-request completion state a batch carries to the reply point.
struct ReplyCtx {
    submitted: Instant,
    tenant: Option<Arc<str>>,
    cache_key: Option<CacheKey>,
    /// Trace correlation id (0 = untraced).
    id: u64,
    /// Execute-span start: when the batcher dispatched the batch.
    dispatched_at: Instant,
    reply: mpsc::Sender<Result<Response, WaitError>>,
}

/// The tag a batch travels under: its trace batch id (0 = untraced) plus
/// each member's completion state.
type BatchMeta = (u64, Vec<ReplyCtx>);

/// A formed batch in flight to a worker: trace batch id + members.
type WorkItem = (u64, Vec<Request>);

/// The per-worker slice of the config, cloned into each (re)spawn. The
/// stage environment carries the start-time shard width and the full
/// fleet — the live plan's width overrides the former and selects a
/// prefix of the latter, so a later retune can widen back out.
#[derive(Clone)]
struct WorkerEnv {
    stage: StageEnv,
    plan: Arc<ExecPlan>,
    pool: Arc<AtomicUsize>,
}

/// Runs batches until the work channel closes ([`WorkerExit::Closed`]),
/// the pool target drops below this worker's index
/// ([`WorkerExit::Retired`]), or a batch panics in a way that may have
/// corrupted worker-local state — scratch, band set, pipelines — so the
/// supervisor respawns the slot with everything rebuilt
/// ([`WorkerExit::Panicked`]). Injected fault exhaustion
/// ([`BandFaultError`]) is *not* such an abort: the band set updates its
/// bookkeeping before throwing, so the worker resolves the batch with
/// [`WaitError::Faulted`] and keeps its warm state.
fn worker_loop(
    work_rx: &Arc<Mutex<Receiver<WorkItem>>>,
    shared: &Shared,
    env: &WorkerEnv,
    worker: u16,
) -> WorkerExit {
    let WorkerEnv { stage, plan, pool } = env;
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
    // Pipelines are per network identity, built lazily on the first batch
    // for that pipeline (registries hold few models, so a linear scan
    // beats a map). Dropping this at loop exit drains every in-flight
    // batch before the worker thread ends — shutdown resolves tickets.
    let mut pipelines: Vec<(usize, PipelineExecutor<BatchMeta>)> = Vec::new();
    // Stage counts resolved per network when the config says auto
    // (stages == 0) — tiny cache beside the pipeline cache.
    let mut resolved: Vec<(usize, usize)> = Vec::new();
    loop {
        let batch = {
            // A worker that panicked while holding the lock poisons it;
            // the queue data itself is just a channel receiver, so the
            // respawned worker recovers the guard and keeps serving.
            let guard = match work_rx.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.recv()
        };
        let Ok((bid, batch)) = batch else { break };

        // Adopt a retuned executor plan at the batch boundary: reshape
        // the runner's band set (see [`StageRunner::reshape`]) and drop
        // the stage pipelines — they were built for the old depth, and
        // dropping drains their in-flight batches first. One
        // relaxed-load-plus-compare per batch on the unchanged path.
        let epoch = plan.epoch.load(Ordering::Acquire);
        if epoch != seen_epoch {
            seen_epoch = epoch;
            stages = plan.stages.load(Ordering::Relaxed);
            runner.reshape(plan.shards.load(Ordering::Relaxed));
            for (_, pipe) in pipelines.drain(..) {
                pipe.drain();
            }
            resolved.clear();
        }
        let size = batch.len();
        let net = batch[0].net.clone();
        let identity = net.identity();
        assert!(
            batch.iter().all(|r| r.net.identity() == identity),
            "batcher must never co-batch requests for distinct deployed pipelines"
        );

        let batch_deadline = batch.iter().filter_map(|r| r.deadline).min();
        let mut images = Vec::with_capacity(size);
        let mut ctxs: Vec<ReplyCtx> = Vec::with_capacity(size);
        for request in batch {
            images.push(request.image);
            ctxs.push(ReplyCtx {
                submitted: request.submitted,
                tenant: request.tenant,
                cache_key: request.cache_key,
                id: request.id,
                dispatched_at: request.dispatched_at,
                reply: request.reply,
            });
        }
        let meta: BatchMeta = (bid, ctxs);

        // 0 = auto: depth from the network's layer cost profile, resolved
        // once per network per worker. Bounded like the pipeline cache so
        // a worker rotating across many models (or hot-swaps) neither
        // grows the cache without limit nor trusts an address from a
        // long-dropped network.
        let net_stages = match resolved.iter().position(|(id, _)| *id == identity) {
            Some(idx) => {
                let entry = resolved.remove(idx);
                let s = entry.1;
                resolved.push(entry);
                s
            }
            None => {
                let s = if stages == 0 {
                    auto_stages(&net.layer_costs(), auto_stage_cap())
                } else {
                    stages
                };
                if resolved.len() >= MAX_WORKER_PIPELINES {
                    resolved.remove(0);
                }
                resolved.push((identity, s));
                s
            }
        };

        if net_stages <= 1 {
            // Serial path: the whole network is one stage, stepped here on
            // the worker thread — no channel hop — with the
            // worker-lifetime runner supplying every activation buffer,
            // systolic output plane, and shard-lane kernel scratch.
            let data = runner.quantize(&net, &images);
            let logits = runner
                .step(&net, 0..net.num_layers(), data, bid, batch_deadline)
                .and_then(|out| match out {
                    BatchOutput::Logits(logits_batch) => Ok(logits_batch),
                    // A network without a classifier head has nothing to
                    // reply with: its batches fail like a panicked one.
                    BatchOutput::Maps(_) => Err(None),
                });
            match logits {
                Ok(logits_batch) => complete_batch(shared, identity, meta, logits_batch),
                Err(fault) => {
                    fail_batch(shared, identity, meta, fault);
                    if fault.is_none() {
                        // A genuine panic may have left scratch or band
                        // state mid-write; abort so the supervisor
                        // respawns this slot with everything rebuilt.
                        return WorkerExit::Panicked;
                    }
                }
            }
        } else {
            // Pipelined path: hand the batch to this worker's stage
            // pipeline for the network and immediately pull the next
            // batch, so stage 0 of batch n overlaps the later stages of
            // batch n−1. `submit` blocks only at the in-flight cap, which
            // keeps backpressure flowing to admission control.
            let pipe = pipeline_for(&mut pipelines, &net, net_stages, runner.env(), shared);
            pipe.submit_traced(&images, meta, bid, batch_deadline);
        }

        // Cooperative pool shrink: a worker whose slot fell past the
        // target retires only *between* batches, so the batch it just
        // took always resolves. (Dropping `pipelines` on the way out
        // drains any still-streaming batches too.)
        if usize::from(worker) >= pool.load(Ordering::Acquire) {
            return WorkerExit::Retired;
        }
    }
    WorkerExit::Closed
}

/// Resolves every ticket of a batch that could not produce results:
/// injected-fault exhaustion ([`WaitError::Faulted`]) or a worker panic
/// ([`WaitError::WorkerPanicked`]). Quota is released, coalesced
/// followers share the leader's fate, the in-flight count steps down,
/// and the failure is traced so chaos runs can line incidents up against
/// the timeline.
fn fail_batch(shared: &Shared, identity: usize, meta: BatchMeta, fault: Option<BandFaultError>) {
    let (bid, ctxs) = meta;
    let (err, outcome) = match fault {
        Some(_) => (WaitError::Faulted, Outcome::Faulted),
        None => (WaitError::WorkerPanicked, Outcome::WorkerPanicked),
    };
    for ctx in ctxs {
        let now = Instant::now();
        shared.telemetry.on_failed();
        if let Some(tenant) = &ctx.tenant {
            shared.ledger.release(tenant);
        }
        if ctx.id != 0 {
            if let Some(rec) = &shared.trace {
                if rec.enabled() {
                    rec.span(
                        EventKind::Execute,
                        Track::Requests,
                        ctx.id,
                        bid,
                        ctx.dispatched_at,
                        now,
                        0,
                    );
                    rec.instant(EventKind::Resolve, Track::Requests, ctx.id, bid, now, outcome as u32);
                }
            }
        }
        resolve_waiters_err(
            &shared.flights,
            &shared.trace,
            identity,
            ctx.cache_key.as_ref(),
            err,
            outcome,
        );
        shared.inflight.dec(identity);
        // A dropped ticket just means the client stopped waiting.
        let _ = ctx.reply.send(Err(err));
    }
}

/// Resolves the coalesced followers parked on a flight whose leader
/// terminated without logits (fault, panic, deadline shed, or admission
/// shed): they get the same error, so no follower ever outlives its
/// leader unresolved.
fn resolve_waiters_err(
    flights: &Option<Arc<FlightTable<Waiter>>>,
    trace: &Option<Arc<TraceRecorder>>,
    identity: usize,
    cache_key: Option<&CacheKey>,
    err: WaitError,
    outcome: Outcome,
) {
    let (Some(flights), Some((digest, _))) = (flights, cache_key) else { return };
    for waiter in flights.resolve(identity, *digest) {
        if waiter.id != 0 {
            if let Some(rec) = trace {
                if rec.enabled() {
                    rec.instant(
                        EventKind::Resolve,
                        Track::Requests,
                        waiter.id,
                        0,
                        Instant::now(),
                        outcome as u32,
                    );
                }
            }
        }
        let _ = waiter.reply.send(Err(err));
    }
}

/// Pipelines a single worker keeps warm at once. Each cached pipeline
/// pins its stage threads and a network reference, so the cache is
/// LRU-bounded: when a registry entry is replaced (hot-swap) or a worker
/// rotates across many models, stale pipelines are drained and dropped
/// instead of accumulating threads for the life of the worker.
const MAX_WORKER_PIPELINES: usize = 4;

/// Finds or lazily creates this worker's pipeline for `net`. The cache is
/// kept in LRU order (most recently used last).
fn pipeline_for<'a>(
    pipelines: &'a mut Vec<(usize, PipelineExecutor<BatchMeta>)>,
    net: &DeployedNetwork,
    stages: usize,
    env: &StageEnv,
    shared: &Shared,
) -> &'a PipelineExecutor<BatchMeta> {
    let id = net.identity();
    if let Some(idx) = pipelines.iter().position(|(pid, _)| *pid == id) {
        // Move-to-back marks it most recently used.
        let entry = pipelines.remove(idx);
        pipelines.push(entry);
    } else {
        if pipelines.len() >= MAX_WORKER_PIPELINES {
            // Evicting drains the pipeline: its in-flight batches resolve
            // their tickets before the stage threads exit.
            let (_, oldest) = pipelines.remove(0);
            oldest.drain();
        }
        let sink_shared = shared.clone();
        let fault_shared = shared.clone();
        let pipe = PipelineExecutor::with_env(
            net.clone(),
            stages,
            1,
            env.clone(),
            Some(Arc::new(move |meta: BatchMeta, fault| {
                fail_batch(&fault_shared, id, meta, fault);
            })),
            move |out, meta: BatchMeta| {
                let logits_batch = match out {
                    BatchOutput::Logits(l) => l,
                    BatchOutput::Maps(_) => {
                        panic!("deployed pipeline must end at the classifier head")
                    }
                };
                complete_batch(&sink_shared, id, meta, logits_batch);
            },
        );
        pipelines.push((id, pipe));
    }
    &pipelines.last().expect("cache is non-empty").1
}

/// Resolves one finished batch: telemetry, cache fill, coalesced-waiter
/// fan-out, quota release, argmax, replies.
fn complete_batch(
    shared: &Shared,
    identity: usize,
    meta: BatchMeta,
    logits_batch: Vec<Vec<f32>>,
) {
    let (bid, ctxs) = meta;
    let size = ctxs.len();
    for (ctx, logits) in ctxs.into_iter().zip(logits_batch) {
        let now = Instant::now();
        let latency = ctx.submitted.elapsed();
        shared.telemetry.on_complete(latency);
        if let (Some(cache), Some((digest, qdata))) = (&shared.cache, &ctx.cache_key) {
            cache.insert(identity, *digest, qdata, &logits);
        }
        // Fan the leader's logits out to any followers that coalesced on
        // this flight while it was queued or executing. They ran in no
        // batch (batch_size 0, like a cache hit) and the bytes are the
        // very ones the leader's array pass produced — bit-identical by
        // construction.
        if let (Some(flights), Some((digest, _))) = (&shared.flights, &ctx.cache_key) {
            let waiters = flights.resolve(identity, *digest);
            if !waiters.is_empty() {
                if let Some(cache) = &shared.cache {
                    cache.note_coalesced(waiters.len() as u64);
                }
                let class = argmax(&logits);
                for waiter in waiters {
                    let wlatency = waiter.submitted.elapsed();
                    shared.telemetry.on_complete(wlatency);
                    if waiter.id != 0 {
                        if let Some(rec) = &shared.trace {
                            if rec.enabled() {
                                rec.instant(
                                    EventKind::Resolve,
                                    Track::Requests,
                                    waiter.id,
                                    bid,
                                    Instant::now(),
                                    Outcome::CoalescedHit as u32,
                                );
                            }
                        }
                    }
                    let _ = waiter.reply.send(Ok(Response {
                        logits: logits.clone(),
                        class,
                        latency: wlatency,
                        batch_size: 0,
                        id: waiter.id,
                    }));
                }
            }
        }
        shared.inflight.dec(identity);
        if let Some(tenant) = &ctx.tenant {
            shared.ledger.release(tenant);
        }
        if ctx.id != 0 {
            if let Some(rec) = &shared.trace {
                if rec.enabled() {
                    rec.span(
                        EventKind::Execute,
                        Track::Requests,
                        ctx.id,
                        bid,
                        ctx.dispatched_at,
                        now,
                        0,
                    );
                    rec.instant(
                        EventKind::Resolve,
                        Track::Requests,
                        ctx.id,
                        bid,
                        now,
                        Outcome::Ok as u32,
                    );
                }
            }
        }
        let class = argmax(&logits);
        // A dropped ticket just means the client stopped waiting.
        let _ = ctx
            .reply
            .send(Ok(Response { logits, class, latency, batch_size: size, id: ctx.id }));
    }
}

/// Index of the largest logit, ordering NaN below every real value: a NaN
/// produced anywhere upstream must yield a well-defined class, not panic
/// the worker thread that every other in-flight request depends on.
fn argmax(logits: &[f32]) -> usize {
    let key = |v: f32| if v.is_nan() { f32::NEG_INFINITY } else { v };
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| key(*a.1).total_cmp(&key(*b.1)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
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
        use cc_deploy::identity_groups;
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
        let flights = server.flights.as_ref().expect("the cache allocates a flight table");
        assert_eq!(flights.in_flight(), 0, "a flight outlived every request");
        let stats = server.shutdown();
        assert!(stats.cache.evictions > 0, "the working set must overflow the cache");
    }
}
