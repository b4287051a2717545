//! `cc-serve`: a concurrent, batched inference-serving runtime over the
//! deployed integer systolic pipeline.
//!
//! The rest of the workspace trains, packs (column combining), quantizes,
//! and simulates one request at a time; this crate multiplexes a deployed
//! array across many concurrent requests, the way a real accelerator
//! deployment amortizes its silicon:
//!
//! ```text
//!                 ┌────────────────────────────────────────────────┐
//!  clients ──▶ submit ──▶ bounded queue ──▶ worker pool: an idle worker forms
//!                 │shed on full             its own batch (max size | deadline,
//!                 ▼                         per model), then runs it — one tiled
//!                 │                         scheduler each               │
//!             telemetry ◀── latency/occupancy/depth ◀────────────────────┘
//!                 │                 ▲
//!                 ▼                 │ Arc<DeployedNetwork>, shared immutably
//!             snapshot          model registry (pack + quantize once)
//! ```
//!
//! - **Registry** ([`ModelRegistry`]): named, prepacked
//!   [`cc_deploy::DeployedNetwork`]s; building packs and calibrates once,
//!   and every worker shares the result immutably (`Arc` internals).
//! - **Dynamic batcher** ([`batcher::Batcher`]): coalesces queued
//!   requests for the same model until the batch fills or a deadline
//!   passes; a batch runs as one wide matrix on the simulated array, so
//!   the whole batch shares each layer's weight-tile loads — and stays
//!   bit-identical to serial execution (the array is exact integer
//!   arithmetic per output column). It has no thread of its own: it sits
//!   behind one mutex and whichever worker is idle forms the next batch
//!   under it, so a batch is handed from client to worker and back with
//!   no hop in between.
//! - **Worker pool**: each worker owns its tiled-scheduler instance and
//!   takes its turn at the batcher whenever it is idle; busy workers
//!   leave the bounded queue to fill, which is the backpressure. Serial
//!   workers and pipeline stage threads run batches through the same
//!   stage step ([`stage`]) — a serial worker is the one-stage pipeline
//!   without the channel hop.
//! - **Stage pipelining** ([`PipelineExecutor`],
//!   [`ServeConfig::pipeline_stages`]): at K ≥ 2 each worker splits the
//!   deployed layers into K cost-balanced contiguous stages on their own
//!   threads and streams successive batches through them — stage i runs
//!   batch n while stage i+1 finishes batch n−1, the serving analogue of
//!   the systolic array's inter-layer wavefront — while staying
//!   bit-identical to serial execution.
//! - **Multi-array sharding** ([`ServeConfig::shards`]): every executor
//!   (worker, or pipeline stage) owns a [`cc_deploy::BandSet`] of N
//!   simulated arrays and scatters each packed conv's row bands across
//!   them, gathering by row concatenation — bit-identical to serial
//!   execution and composing with `pipeline_stages` into a stages ×
//!   shards grid. `pipeline_stages = 0` picks the depth per model from
//!   its layer cost profile ([`auto_stages`]).
//! - **Response memo-cache** ([`ResponseCache`],
//!   [`ServeConfig::cache`]): a bounded, sharded LRU map from `(network
//!   identity, quantized-input digest)` to logits. A repeated input is
//!   served from memory — bit-identical to a fresh array pass by
//!   construction, since the key is the exact post-quantization bytes —
//!   without consuming a queue slot, a batch slot, or array time.
//!   Disabled by default.
//! - **QoS-aware admission** ([`SubmitOptions`],
//!   [`Server::submit_with`]): per-request service classes
//!   ([`QosClass`], strict priority at batch formation), deadlines
//!   (already-blown work is shed first, resolving its ticket with
//!   [`WaitError::DeadlineExceeded`]), and per-tenant in-flight quotas
//!   ([`ServeConfig::tenant_quota`], [`SubmitError::QuotaExceeded`]).
//! - **Admission control**: a bounded queue with shed-on-full semantics
//!   ([`SubmitError::QueueFull`]) gives end-to-end backpressure.
//! - **Telemetry** ([`TelemetrySnapshot`]): p50/p95/p99 latency from a
//!   log-linear histogram, throughput (windowed from first traffic),
//!   batch occupancy, queue depth, per-stage/per-shard busy fractions,
//!   cache hit/miss/eviction counters, and per-class shed counts.
//! - **Fault injection + self-healing** ([`FaultPlan`],
//!   [`ServeConfig::with_faults`]): a seeded, deterministic fault plan
//!   can stall, poison, or kill shard lanes and panic workers mid-batch.
//!   The serving side heals itself: workers and pipeline stages run
//!   under an unwind boundary (a panic burns only its batch, whose
//!   tickets resolve [`WaitError::WorkerPanicked`], and a supervisor
//!   respawns the worker), faulted batches retry within a bounded budget
//!   ([`WaitError::Faulted`] past it), and persistently sick lanes are
//!   quarantined — the band set atomically re-plans row bands over the
//!   survivors, keeping outputs bit-identical by construction, and
//!   half-open probes readmit recovered lanes. [`Server::shutdown_within`]
//!   drains gracefully under load.
//! - **Self-tuning control plane** ([`control`]): a [`Controller`]
//!   thread attached to a live server classifies the load each tick
//!   (idle / interactive / steady / saturated) from telemetry deltas and
//!   retunes the running knobs — worker-pool size, batch cap and
//!   deadline (live through [`batcher::BatchKnobs`]), pipeline depth and
//!   shard width ([`Server::retune_executors`], executors rebuild their
//!   band sets at the next batch boundary) — guided by a [`ProfileStore`]
//!   filled by an on-box calibration sweep and refined online by EMA. Hysteresis plus cooldown guarantee it never
//!   flaps; every decision lands as a control-track
//!   [`EventKind::Retune`] instant and a `retunes` counter. Model
//!   **hot-swap** ([`Server::swap_model`]) atomically replaces a
//!   registry entry while serving: the new network is warmed up first,
//!   in-flight batches on the old network drain (batches key on network
//!   identity, so old and new never co-batch), and the cutover is one
//!   `Arc` swap.
//! - **Request-lifecycle tracing** ([`trace`], [`ServeConfig::trace`]):
//!   a lock-free ring [`TraceRecorder`] captures span events for every
//!   request phase — submit, cache probe, queue wait, batch formation,
//!   per-stage and per-shard execution, resolution — correlated by
//!   request and batch id, with Chrome trace-event JSON
//!   ([`Server::chrome_trace`], Perfetto-loadable) and Prometheus-style
//!   text ([`Server::metrics_text`]) exporters. Runtime-toggleable; the
//!   disabled cost is one atomic load per record site.
//!
//! Std-only: threads and channels, no async runtime.
//!
//! # Examples
//!
//! ```
//! use cc_dataset::SyntheticSpec;
//! use cc_deploy::{identity_groups, DeployedNetwork};
//! use cc_nn::models::{lenet5_shift, ModelConfig};
//! use cc_serve::{ModelRegistry, ServeConfig, Server};
//!
//! let (train, test) = SyntheticSpec::mnist_like()
//!     .with_size(8, 8)
//!     .with_samples(32, 8)
//!     .generate(0);
//! let net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
//! let deployed = DeployedNetwork::build(&net, &identity_groups(&net), &train);
//!
//! let registry = ModelRegistry::new().with_model("lenet", deployed);
//! let server = Server::start(registry, ServeConfig::default().with_workers(2));
//!
//! let tickets: Vec<_> = (0..test.len())
//!     .map(|i| server.submit("lenet", test.image(i).clone()).expect("admitted"))
//!     .collect();
//! for ticket in tickets {
//!     let response = ticket.wait().expect("served");
//!     assert_eq!(response.logits.len(), 10);
//! }
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 8);
//! ```

pub mod batcher;
pub mod cache;
pub mod control;
pub mod fault;
pub mod pipeline;
pub mod qos;
pub mod registry;
pub mod server;
pub mod stage;
pub mod telemetry;
pub mod trace;

pub use batcher::BatchKnobs;
pub use cache::{CacheConfig, CacheStats, FlightTable, ResponseCache};
pub use control::{
    Action, ControlConfig, Controller, Engine, LoadRegime, Observation, Profile, ProfileStore,
};
pub use fault::FaultPlan;
pub use pipeline::{auto_stage_cap, auto_stages, partition_stages, PipelineExecutor};
pub use qos::{QosClass, SubmitOptions, TenantLedger, QOS_CLASSES};
pub use registry::ModelRegistry;
pub use server::{
    DrainReport, Response, ServeConfig, Server, SubmitError, SwapError, SwapReport, Ticket,
    WaitError,
};
pub use stage::StageEnv;
pub use telemetry::{LatencyHistogram, Occupancy, Telemetry, TelemetrySnapshot};
pub use trace::{
    EventKind, Outcome, RequestTrace, TraceConfig, TraceEvent, TraceRecorder, TraceStats, Track,
};
