//! Serving telemetry: lock-free counters plus a log-linear latency
//! histogram, summarized on demand into a [`TelemetrySnapshot`].
//!
//! The histogram uses power-of-two groups with 16 linear sub-buckets per
//! group (the HDR-histogram layout), so percentile estimates carry at most
//! ~6% relative error at any latency scale while the whole structure stays
//! a fixed 8 KiB — no allocation on the record path beyond one mutex.

use crate::cache::CacheStats;
use crate::qos::{QosClass, QOS_CLASSES};
use cc_deploy::BandSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Default pipeline-stage / shard slots tracked by the occupancy gauges
/// when the caller does not size them explicitly. The server sizes its
/// gauges from [`crate::ServeConfig`] ([`Telemetry::with_slots`]), so
/// configurations beyond this floor still report truthfully; the floor
/// only covers bare [`Telemetry::new`] construction.
pub(crate) const OCCUPANCY_SLOTS: usize = 16;

/// Lock-free busy-time accounting per executor slot (pipeline stage or
/// shard lane): workers add the nanoseconds a slot spent executing, the
/// snapshot divides by wall-clock elapsed into a busy fraction. With
/// several workers feeding one slot index the fraction aggregates across
/// them, so it can exceed 1.0 — it reads as "how many executors' worth of
/// work this slot absorbed".
#[derive(Debug)]
pub struct Occupancy {
    busy: Vec<AtomicU64>,
}

impl Occupancy {
    /// Gauges for `slots` executor slots (floored at the legacy default
    /// so an under-sized caller still gets headroom). Slots must be sized
    /// at construction: indices past the end are dropped, and a gauge
    /// that silently drops real executors lies — the regression this
    /// sizing exists to prevent.
    fn new(slots: usize) -> Self {
        let slots = slots.max(OCCUPANCY_SLOTS);
        Occupancy { busy: (0..slots).map(|_| AtomicU64::new(0)).collect() }
    }

    /// Adds busy time to a slot (out-of-range indices are dropped).
    pub fn record(&self, slot: usize, busy: Duration) {
        if let Some(b) = self.busy.get(slot) {
            b.fetch_add(busy.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
        }
    }

    /// Accumulated busy nanoseconds for one slot (0 when out of range).
    fn nanos(&self, slot: usize) -> u64 {
        self.busy.get(slot).map_or(0, |b| b.load(Ordering::Relaxed))
    }

    /// Busy fractions per slot over `elapsed`, trimmed after the last
    /// slot that ever recorded work.
    fn fractions(&self, elapsed: Duration) -> Vec<f64> {
        let nanos = elapsed.as_nanos().max(1) as f64;
        let mut out: Vec<f64> =
            self.busy.iter().map(|b| b.load(Ordering::Relaxed) as f64 / nanos).collect();
        while out.last().is_some_and(|&f| f == 0.0) {
            out.pop();
        }
        out
    }
}

/// Linear sub-buckets per power-of-two group.
const SUB_BITS: u32 = 4;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Group 0 covers values `< 16`; groups 1..=60 cover the rest of `u64`.
const GROUPS: usize = 61;
const BUCKETS: usize = GROUPS * SUB_BUCKETS;

/// Fixed-size log-linear histogram of latencies in nanoseconds.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_nanos: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram { counts: vec![0; BUCKETS], total: 0, sum_nanos: 0 }
    }

    fn index(nanos: u64) -> usize {
        if nanos < SUB_BUCKETS as u64 {
            nanos as usize
        } else {
            let msb = 63 - nanos.leading_zeros() as usize;
            let shift = msb - SUB_BITS as usize;
            let group = msb - SUB_BITS as usize + 1;
            let sub = ((nanos >> shift) & (SUB_BUCKETS as u64 - 1)) as usize;
            group * SUB_BUCKETS + sub
        }
    }

    /// Midpoint of a bucket's value range.
    fn bucket_value(idx: usize) -> u64 {
        let group = idx / SUB_BUCKETS;
        let sub = (idx % SUB_BUCKETS) as u64;
        if group == 0 {
            sub
        } else {
            let shift = (group - 1) as u32;
            ((SUB_BUCKETS as u64 + sub) << shift) + (1u64 << shift) / 2
        }
    }

    /// Records one latency observation.
    pub fn record(&mut self, latency: Duration) {
        let nanos = latency.as_nanos().min(u64::MAX as u128) as u64;
        self.counts[Self::index(nanos)] += 1;
        self.total += 1;
        self.sum_nanos = self.sum_nanos.saturating_add(nanos);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency, or zero when empty.
    pub fn mean(&self) -> Duration {
        self.sum_nanos
            .checked_div(self.total)
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// The latency at quantile `q ∈ [0, 1]` (bucket-midpoint estimate,
    /// monotone in `q`), or zero when empty.
    pub fn percentile(&self, q: f64) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return Duration::from_nanos(Self::bucket_value(idx));
            }
        }
        Duration::from_nanos(Self::bucket_value(BUCKETS - 1))
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Completion-side metrics guarded by one mutex so a snapshot reads
/// them as a unit: the latency histogram plus the batch counters whose
/// ratios feed derived gauges. Keeping them under a single lock is what
/// makes `completed == histogram count` and
/// `mean_batch_occupancy >= 1.0 when batches > 0` exact invariants
/// instead of usually-true races (a snapshot used to be able to observe
/// `completed = 1` against a still-empty histogram, or a batch counted
/// before its requests).
#[derive(Debug)]
struct Completion {
    hist: LatencyHistogram,
    batches: u64,
    batched_requests: u64,
}

/// Shared serving metrics, updated by the submit path and every worker
/// (forming its batch, then running it).
#[derive(Debug)]
pub struct Telemetry {
    started: Instant,
    /// Nanoseconds after `started` of the first admit (or first
    /// completion, whichever lands first — cache hits complete without
    /// an admit). `u64::MAX` = no traffic yet. The throughput window is
    /// anchored here, not at construction: idle time between building a
    /// server and its first request must not permanently deflate the
    /// reported rate.
    first_activity_nanos: AtomicU64,
    submitted: AtomicU64,
    /// Shed counters stay lock-free but follow a strict store/load
    /// discipline (SeqCst, writers total-first/detail-last, the snapshot
    /// reading detail-first/total-last) so every snapshot satisfies
    /// `shed >= sum(shed_by_class) >= deadline_shed` even mid-update.
    shed: AtomicU64,
    /// Sheds by QoS class (admission, quota, and deadline sheds alike).
    shed_class: [AtomicU64; QOS_CLASSES],
    /// Requests shed specifically because their deadline passed while
    /// still queued.
    deadline_shed: AtomicU64,
    /// Requests a worker formed into a batch. Queue depth is derived as
    /// `submitted - dispatched` (saturating): a worker can take and
    /// dispatch a request before the submitting thread bumps `submitted`,
    /// and a derived gauge turns that race into a transient under-count
    /// instead of an unsigned wrap. A batch exists only once a worker has
    /// formed it, so with every worker busy the depth is all the waiting
    /// work.
    dispatched: AtomicU64,
    /// Requests resolved with a failure (`WorkerPanicked` / `Faulted`):
    /// dispatched, not shed, but never completed — the third leaf of the
    /// request ledger.
    failed: AtomicU64,
    /// Worker (or pipeline-stage) panics caught at the unwind boundary;
    /// each one costs exactly its batch and triggers a respawn/rebuild.
    worker_panics: AtomicU64,
    /// Band executions that came back poisoned or dead (before retries).
    band_faults: AtomicU64,
    /// Batch retries spent recovering from band faults.
    band_retries: AtomicU64,
    /// Gauge: shard lanes currently quarantined across all band sets
    /// (quarantine +1, readmit −1).
    shards_quarantined: AtomicU64,
    /// Control-plane retune decisions applied to the live server (worker
    /// pool resize, batch knob update, stage/shard re-plan — one count
    /// per knob actually changed).
    retunes: AtomicU64,
    /// Model hot-swaps completed (registry entry atomically replaced
    /// while serving).
    swaps: AtomicU64,
    completion: Mutex<Completion>,
    /// Busy time per pipeline stage (stage 0 doubles as the serial
    /// worker's execution slot).
    stage_busy: Occupancy,
    /// Time each row-band shard lane was occupied: band kernels plus the
    /// epilogues the lane runs behind them.
    shard_busy: Occupancy,
    /// Geometry label per shard lane ([`cc_systolic::ArrayGeometry::label`])
    /// when the server runs a heterogeneous fleet; empty otherwise. The
    /// snapshot aggregates lane busy fractions by label so operators see
    /// how much work each *kind* of array absorbed.
    shard_labels: Vec<String>,
}

impl Telemetry {
    /// Fresh telemetry with default-sized occupancy gauges.
    pub fn new() -> Self {
        Self::with_slots(OCCUPANCY_SLOTS, OCCUPANCY_SLOTS)
    }

    /// Fresh telemetry with occupancy gauges sized for `stage_slots`
    /// pipeline stages and `shard_slots` shard lanes (the server passes
    /// its [`crate::ServeConfig`] dimensions, so gauges never drop busy
    /// time for configured executors).
    pub fn with_slots(stage_slots: usize, shard_slots: usize) -> Self {
        Telemetry {
            started: Instant::now(),
            first_activity_nanos: AtomicU64::new(u64::MAX),
            submitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            shed_class: std::array::from_fn(|_| AtomicU64::new(0)),
            deadline_shed: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            band_faults: AtomicU64::new(0),
            band_retries: AtomicU64::new(0),
            shards_quarantined: AtomicU64::new(0),
            retunes: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            completion: Mutex::new(Completion {
                hist: LatencyHistogram::new(),
                batches: 0,
                batched_requests: 0,
            }),
            stage_busy: Occupancy::new(stage_slots),
            shard_busy: Occupancy::new(shard_slots),
            shard_labels: Vec::new(),
        }
    }

    /// Labels the shard lanes with their array-geometry names (lane `i`
    /// gets `labels[i]`). Labeled lanes additionally aggregate into
    /// [`TelemetrySnapshot::shard_geometry_busy`] by label, so a fleet of
    /// mixed array shapes reports how much lane time each shape
    /// absorbed. Lanes beyond the label list stay unlabeled.
    #[must_use]
    pub fn with_shard_labels(mut self, labels: Vec<String>) -> Self {
        self.shard_labels = labels;
        self
    }

    /// Anchors the throughput window at the first observed traffic.
    fn mark_activity(&self) {
        if self.first_activity_nanos.load(Ordering::Relaxed) != u64::MAX {
            return;
        }
        let now = self.started.elapsed().as_nanos().min(u64::MAX as u128 - 1) as u64;
        let _ = self.first_activity_nanos.compare_exchange(
            u64::MAX,
            now,
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
    }

    /// A pipeline stage (or serial worker, as stage 0) finished `busy` of
    /// execution.
    pub(crate) fn on_stage_busy(&self, stage: usize, busy: Duration) {
        self.stage_busy.record(stage, busy);
    }

    /// Moves a shard set's accumulated per-lane busy time into the
    /// shard occupancy gauges and clears the set's clocks.
    pub(crate) fn drain_shard_busy(&self, bands: &mut BandSet) {
        for (lane, &nanos) in bands.busy_nanos().iter().enumerate() {
            if nanos > 0 {
                self.shard_busy.record(lane, Duration::from_nanos(nanos));
            }
        }
        bands.reset_busy();
    }

    /// Requests currently admitted but not yet handed to a worker.
    pub fn queue_depth(&self) -> usize {
        let submitted = self.submitted.load(Ordering::Acquire);
        let dispatched = self.dispatched.load(Ordering::Acquire);
        submitted.saturating_sub(dispatched) as usize
    }

    /// A request was admitted into the queue.
    pub(crate) fn on_admit(&self) {
        self.mark_activity();
        self.submitted.fetch_add(1, Ordering::AcqRel);
    }

    /// A request was shed by admission control (queue full or tenant
    /// quota). The total is bumped before the class breakdown so a
    /// concurrent snapshot (which reads the breakdown first) can never
    /// see the per-class counts exceed the total.
    pub(crate) fn on_shed(&self, class: QosClass) {
        self.shed.fetch_add(1, Ordering::SeqCst);
        self.shed_class[class.index()].fetch_add(1, Ordering::SeqCst);
    }

    /// A ticket resolved [`crate::WaitError::DeadlineExceeded`]: a queued
    /// request whose deadline passed before a batch could carry it, or a
    /// follower coalesced onto one. Write order total → class → deadline
    /// (the snapshot reads the reverse) keeps
    /// `shed >= sum(by class) >= deadline_shed` torn-free.
    pub(crate) fn on_deadline_shed(&self, class: QosClass) {
        self.shed.fetch_add(1, Ordering::SeqCst);
        self.shed_class[class.index()].fetch_add(1, Ordering::SeqCst);
        self.deadline_shed.fetch_add(1, Ordering::SeqCst);
    }

    /// A worker forming its batch took a blown-deadline request out of
    /// the queue without dispatching it. Counts toward `dispatched`: a
    /// depth gauge that never saw it leave would creep toward permanent
    /// [`crate::SubmitError::QueueFull`]. (Followers of that request took
    /// no queue slot, so they pass through [`Telemetry::on_deadline_shed`]
    /// only.)
    pub(crate) fn on_expire(&self) {
        self.dispatched.fetch_add(1, Ordering::AcqRel);
    }

    /// A dispatched request resolved with a failure (worker panic or
    /// retry-budget exhaustion) instead of a result.
    pub(crate) fn on_failed(&self) {
        self.failed.fetch_add(1, Ordering::AcqRel);
    }

    /// A worker or pipeline-stage panic was caught at the unwind boundary.
    pub(crate) fn on_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::AcqRel);
    }

    /// A shard lane returned a poisoned or dead band execution.
    pub(crate) fn on_band_fault(&self) {
        self.band_faults.fetch_add(1, Ordering::AcqRel);
    }

    /// A batch is being retried after a faulted band execution.
    pub(crate) fn on_retry(&self) {
        self.band_retries.fetch_add(1, Ordering::AcqRel);
    }

    /// The control plane applied one retune decision to the live server.
    pub(crate) fn on_retune(&self) {
        self.retunes.fetch_add(1, Ordering::AcqRel);
    }

    /// A model hot-swap completed.
    pub(crate) fn on_swap(&self) {
        self.swaps.fetch_add(1, Ordering::AcqRel);
    }

    /// A shard lane entered (`+1`) or left (`-1`) quarantine.
    pub(crate) fn on_quarantine(&self, delta: i64) {
        if delta >= 0 {
            self.shards_quarantined.fetch_add(delta as u64, Ordering::AcqRel);
        } else {
            // Saturating: a snapshot mid-update must never see the gauge
            // wrap to u64::MAX.
            let _ = self.shards_quarantined.fetch_update(
                Ordering::AcqRel,
                Ordering::Acquire,
                |v| Some(v.saturating_sub(delta.unsigned_abs())),
            );
        }
    }

    /// A worker formed a batch of `n` coalesced requests and is about to
    /// run it.
    pub(crate) fn on_dispatch(&self, n: usize) {
        {
            let mut c = self.completion.lock().expect("completion metrics poisoned");
            c.batches += 1;
            c.batched_requests += n as u64;
        }
        self.dispatched.fetch_add(n as u64, Ordering::AcqRel);
    }

    /// A request finished (worker batch or cache hit) with the given
    /// end-to-end latency. The completion count IS the histogram count —
    /// one locked record, so a snapshot can never observe a completion
    /// whose latency has not landed yet.
    pub(crate) fn on_complete(&self, latency: Duration) {
        self.mark_activity();
        self.completion.lock().expect("completion metrics poisoned").hist.record(latency);
    }

    /// The measurement window: elapsed wall clock since the first admit
    /// (or completion), zero before any traffic. Throughput is computed
    /// over this window so construction-to-first-request idle time never
    /// deflates the reported rate.
    pub fn active_window(&self) -> Duration {
        let first = self.first_activity_nanos.load(Ordering::Acquire);
        if first == u64::MAX {
            return Duration::ZERO;
        }
        self.started.elapsed().saturating_sub(Duration::from_nanos(first))
    }

    /// A consistent point-in-time summary: no torn intermediate states.
    /// Completion-side numbers (histogram, completed count, batch
    /// counters) are read under one lock; the shed counters are read in
    /// the reverse of their write order so their containment invariants
    /// (`shed >= sum(shed_by_class) >= deadline_shed`) hold in every
    /// snapshot, even one taken mid-update.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.snapshot_with_cache(CacheStats::default())
    }

    /// [`Telemetry::snapshot`] with the server's response-cache counters
    /// folded in.
    pub(crate) fn snapshot_with_cache(&self, cache: CacheStats) -> TelemetrySnapshot {
        let (hist, batches, batched) = {
            let c = self.completion.lock().expect("completion metrics poisoned");
            (c.hist.clone(), c.batches, c.batched_requests)
        };
        let completed = hist.count();
        let elapsed = self.started.elapsed();
        let window = self.active_window();
        // Reverse of the writers' store order (see `on_deadline_shed`):
        // detail counters first, totals last.
        let deadline_shed = self.deadline_shed.load(Ordering::SeqCst);
        let shed_by_class = std::array::from_fn(|i| self.shed_class[i].load(Ordering::SeqCst));
        let shed = self.shed.load(Ordering::SeqCst);
        // Fleet view: lane busy fractions summed per geometry label, in
        // first-appearance order (untrimmed — a configured-but-idle
        // geometry must still show up, at 0.0).
        let nanos_elapsed = elapsed.as_nanos().max(1) as f64;
        let mut shard_geometry_busy: Vec<(String, f64)> = Vec::new();
        for (i, label) in self.shard_labels.iter().enumerate() {
            let f = self.shard_busy.nanos(i) as f64 / nanos_elapsed;
            match shard_geometry_busy.iter_mut().find(|(l, _)| l == label) {
                Some((_, v)) => *v += f,
                None => shard_geometry_busy.push((label.clone(), f)),
            }
        }
        TelemetrySnapshot {
            elapsed,
            window,
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            shed,
            shed_by_class,
            deadline_shed,
            failed: self.failed.load(Ordering::Acquire),
            worker_panics: self.worker_panics.load(Ordering::Acquire),
            band_faults: self.band_faults.load(Ordering::Acquire),
            band_retries: self.band_retries.load(Ordering::Acquire),
            shards_quarantined: self.shards_quarantined.load(Ordering::Acquire),
            retunes: self.retunes.load(Ordering::Acquire),
            swaps: self.swaps.load(Ordering::Acquire),
            queue_depth: self.queue_depth(),
            batches,
            mean_batch_occupancy: if batches == 0 { 0.0 } else { batched as f64 / batches as f64 },
            throughput_rps: if window.is_zero() {
                0.0
            } else {
                completed as f64 / window.as_secs_f64()
            },
            mean_latency: hist.mean(),
            p50: hist.percentile(0.50),
            p95: hist.percentile(0.95),
            p99: hist.percentile(0.99),
            stage_busy: self.stage_busy.fractions(elapsed),
            shard_busy: self.shard_busy.fractions(elapsed),
            shard_geometry_busy,
            cache,
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

/// Point-in-time serving metrics.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// Time since the server (telemetry) started.
    pub elapsed: Duration,
    /// Time since the first admit/completion — the throughput window
    /// (zero before any traffic).
    pub window: Duration,
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests fully served.
    pub completed: u64,
    /// Requests rejected or shed (admission, quota, and deadline).
    pub shed: u64,
    /// [`TelemetrySnapshot::shed`] broken down by [`QosClass`] ordinal.
    pub shed_by_class: [u64; QOS_CLASSES],
    /// Requests shed because their deadline passed while queued (also
    /// counted in [`TelemetrySnapshot::shed`]).
    pub deadline_shed: u64,
    /// Dispatched requests that resolved with a failure
    /// ([`crate::WaitError::WorkerPanicked`] /
    /// [`crate::WaitError::Faulted`]) — not shed, never completed.
    pub failed: u64,
    /// Worker and pipeline-stage panics caught at the unwind boundary.
    pub worker_panics: u64,
    /// Band executions that returned poisoned or dead (before retries).
    pub band_faults: u64,
    /// Batch retries spent recovering from band faults.
    pub band_retries: u64,
    /// Shard lanes currently quarantined (gauge).
    pub shards_quarantined: u64,
    /// Control-plane retune decisions applied (one per knob changed).
    pub retunes: u64,
    /// Model hot-swaps completed while serving.
    pub swaps: u64,
    /// Requests admitted but not yet in a worker's batch; with every
    /// worker busy, all the waiting work (nothing holds a formed batch).
    pub queue_depth: usize,
    /// Batches dispatched to workers.
    pub batches: u64,
    /// Mean requests per dispatched batch.
    pub mean_batch_occupancy: f64,
    /// Completed requests per wall-clock second since start.
    pub throughput_rps: f64,
    /// Mean end-to-end latency of completed requests.
    pub mean_latency: Duration,
    /// Median end-to-end latency.
    pub p50: Duration,
    /// 95th-percentile end-to-end latency.
    pub p95: Duration,
    /// 99th-percentile end-to-end latency.
    pub p99: Duration,
    /// Busy fraction per pipeline stage (aggregated across workers; can
    /// exceed 1.0 — see [`Occupancy`]). Empty until a stage reports.
    pub stage_busy: Vec<f64>,
    /// Busy kernel fraction per row-band shard lane.
    pub shard_busy: Vec<f64>,
    /// Busy kernel fraction aggregated per array-geometry label, in
    /// fleet order ([`Telemetry::with_shard_labels`]). Empty unless the
    /// server runs a heterogeneous fleet; configured-but-idle geometries
    /// report 0.0 rather than vanishing.
    pub shard_geometry_busy: Vec<(String, f64)>,
    /// Response memo-cache counters and gauges (all zero when the cache
    /// is disabled).
    pub cache: CacheStats,
}

impl TelemetrySnapshot {
    /// Renders the snapshot as one compact JSON object (no serde).
    /// Durations are emitted in microseconds; busy fractions as arrays.
    pub fn to_json(&self) -> String {
        fn f(v: f64) -> String {
            if v.is_finite() {
                let s = format!("{v:.6}");
                // Trim trailing zeros but keep at least one decimal so the
                // value stays unambiguously a float.
                let trimmed = s.trim_end_matches('0');
                let trimmed = if trimmed.ends_with('.') { &s[..trimmed.len() + 1] } else { trimmed };
                trimmed.to_string()
            } else {
                "null".to_string()
            }
        }
        fn us(d: Duration) -> String {
            f(d.as_secs_f64() * 1e6)
        }
        fn arr(vals: impl Iterator<Item = String>) -> String {
            let mut out = String::from("[");
            for (i, v) in vals.enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&v);
            }
            out.push(']');
            out
        }
        format!(
            concat!(
                "{{\"elapsed_us\":{},\"window_us\":{},",
                "\"submitted\":{},\"completed\":{},\"shed\":{},",
                "\"shed_by_class\":{},\"deadline_shed\":{},\"failed\":{},",
                "\"worker_panics\":{},\"band_faults\":{},\"band_retries\":{},",
                "\"shards_quarantined\":{},\"retunes\":{},\"swaps\":{},\"queue_depth\":{},",
                "\"batches\":{},\"mean_batch_occupancy\":{},\"throughput_rps\":{},",
                "\"mean_latency_us\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},",
                "\"stage_busy\":{},\"shard_busy\":{},\"shard_geometry_busy\":{},",
                "\"cache\":{{\"hits\":{},\"misses\":{},\"coalesced_hits\":{},",
                "\"deferred\":{},\"evictions\":{},\"entries\":{},\"bytes\":{}}}}}"
            ),
            us(self.elapsed),
            us(self.window),
            self.submitted,
            self.completed,
            self.shed,
            arr(self.shed_by_class.iter().map(|v| v.to_string())),
            self.deadline_shed,
            self.failed,
            self.worker_panics,
            self.band_faults,
            self.band_retries,
            self.shards_quarantined,
            self.retunes,
            self.swaps,
            self.queue_depth,
            self.batches,
            f(self.mean_batch_occupancy),
            f(self.throughput_rps),
            us(self.mean_latency),
            us(self.p50),
            us(self.p95),
            us(self.p99),
            arr(self.stage_busy.iter().map(|&v| f(v))),
            arr(self.shard_busy.iter().map(|&v| f(v))),
            {
                // Geometry labels are shape strings ("8x32-MX8"): no JSON
                // escaping needed.
                let mut obj = String::from("{");
                for (i, (label, v)) in self.shard_geometry_busy.iter().enumerate() {
                    if i > 0 {
                        obj.push(',');
                    }
                    obj.push_str(&format!("\"{label}\":{}", f(*v)));
                }
                obj.push('}');
                obj
            },
            self.cache.hits,
            self.cache.misses,
            self.cache.coalesced_hits,
            self.cache.deferred,
            self.cache.evictions,
            self.cache.entries,
            self.cache.bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_monotone_and_close() {
        let mut h = LatencyHistogram::new();
        for micros in 1..=1000u64 {
            h.record(Duration::from_micros(micros));
        }
        let (p50, p95, p99) = (h.percentile(0.50), h.percentile(0.95), h.percentile(0.99));
        assert!(p50 <= p95 && p95 <= p99, "percentiles must be monotone");
        // Log-linear buckets bound relative error by one sub-bucket (~6%).
        let err = |d: Duration, exact_us: f64| {
            (d.as_secs_f64() * 1e6 - exact_us).abs() / exact_us
        };
        assert!(err(p50, 500.0) < 0.07, "p50 off: {p50:?}");
        assert!(err(p95, 950.0) < 0.07, "p95 off: {p95:?}");
        assert!(err(p99, 990.0) < 0.07, "p99 off: {p99:?}");
        assert!(err(h.mean(), 500.5) < 0.01);
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.percentile(0.5), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(3600));
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(0.0), Duration::ZERO);
        let p99 = h.percentile(0.99);
        let hour = Duration::from_secs(3600).as_secs_f64();
        assert!((p99.as_secs_f64() - hour).abs() / hour < 0.07);
    }

    #[test]
    fn bucket_index_and_value_agree() {
        for v in [0u64, 1, 15, 16, 17, 100, 1_000, 65_535, 1 << 40, u64::MAX / 2] {
            let idx = LatencyHistogram::index(v);
            let mid = LatencyHistogram::bucket_value(idx);
            if v < 16 {
                assert_eq!(mid, v);
            } else {
                let rel = (mid as f64 - v as f64).abs() / v as f64;
                assert!(rel < 0.07, "value {v} → bucket mid {mid} ({rel:.3} off)");
            }
        }
    }

    /// A worker can dispatch a request before the submitting thread
    /// records the admit; the depth gauge must under-count transiently,
    /// not wrap.
    #[test]
    fn dispatch_before_admit_does_not_wrap_queue_depth() {
        let t = Telemetry::new();
        t.on_dispatch(1);
        assert_eq!(t.queue_depth(), 0, "depth must saturate, not wrap");
        t.on_admit();
        assert_eq!(t.queue_depth(), 0, "late admit balances the early dispatch");
        t.on_admit();
        assert_eq!(t.queue_depth(), 1);
    }

    #[test]
    fn occupancy_fractions_aggregate_and_trim() {
        let t = Telemetry::new();
        t.on_stage_busy(0, Duration::from_millis(5));
        t.on_stage_busy(2, Duration::from_millis(10));
        let mut bands = BandSet::new(2);
        t.drain_shard_busy(&mut bands); // all-zero lanes record nothing
        let s = t.snapshot();
        assert_eq!(s.stage_busy.len(), 3, "fractions trim after the last active slot");
        assert!(s.stage_busy[0] > 0.0);
        assert_eq!(s.stage_busy[1], 0.0);
        assert!(s.stage_busy[2] > s.stage_busy[0], "10ms slot outweighs 5ms slot");
        assert!(s.shard_busy.is_empty(), "idle shard lanes stay trimmed");
        // Out-of-range slots are dropped, not grown.
        t.on_stage_busy(usize::MAX, Duration::from_millis(1));
        assert!(t.snapshot().stage_busy.len() <= OCCUPANCY_SLOTS);
    }

    /// A fleet labels its shard lanes; the snapshot must aggregate lane
    /// busy fractions per geometry label (duplicate labels sum), keep
    /// fleet order, and report configured-but-idle geometries at 0.0.
    #[test]
    fn shard_geometry_busy_aggregates_lanes_by_label() {
        let t = Telemetry::with_slots(1, 4).with_shard_labels(vec![
            "8x16-MX8".to_string(),
            "2x4-MX8".to_string(),
            "8x16-MX8".to_string(),
            "4x4-BL".to_string(),
        ]);
        t.shard_busy.record(0, Duration::from_millis(3));
        t.shard_busy.record(1, Duration::from_millis(1));
        t.shard_busy.record(2, Duration::from_millis(5));
        let s = t.snapshot();
        assert_eq!(s.shard_geometry_busy.len(), 3, "labels must dedupe");
        assert_eq!(s.shard_geometry_busy[0].0, "8x16-MX8");
        assert_eq!(s.shard_geometry_busy[1].0, "2x4-MX8");
        assert_eq!(s.shard_geometry_busy[2].0, "4x4-BL");
        let total: f64 = s.shard_busy.iter().sum();
        assert!(
            (s.shard_geometry_busy[0].1 - (s.shard_busy[0] + s.shard_busy[2])).abs() < 1e-12,
            "duplicate labels must sum their lanes"
        );
        assert!(s.shard_geometry_busy[0].1 > s.shard_geometry_busy[1].1);
        assert_eq!(s.shard_geometry_busy[2].1, 0.0, "idle geometry reports 0.0, not absence");
        let label_total: f64 = s.shard_geometry_busy.iter().map(|(_, v)| v).sum();
        assert!((label_total - total).abs() < 1e-12, "aggregation must conserve busy time");
        // Unlabeled telemetry reports no geometry view at all.
        let plain = Telemetry::with_slots(1, 4);
        plain.on_stage_busy(0, Duration::from_millis(1));
        assert!(plain.snapshot().shard_geometry_busy.is_empty());
        // The JSON exposition carries the labeled object.
        let json = t.snapshot().to_json();
        assert!(json.contains("\"shard_geometry_busy\":{\"8x16-MX8\":"), "missing in {json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn counters_flow_into_snapshot() {
        let t = Telemetry::new();
        t.on_shed(QosClass::Standard);
        t.on_deadline_shed(QosClass::Batch);
        for _ in 0..6 {
            t.on_admit();
        }
        t.on_dispatch(4);
        t.on_dispatch(2);
        for i in 1..=6 {
            t.on_complete(Duration::from_millis(i));
        }
        let s = t.snapshot();
        assert_eq!(s.submitted, 6);
        assert_eq!(s.completed, 6);
        assert_eq!(s.shed, 2);
        assert_eq!(s.shed_by_class, [0, 1, 1]);
        assert_eq!(s.deadline_shed, 1);
        assert_eq!(s.queue_depth, 0);
        assert_eq!(s.batches, 2);
        assert!((s.mean_batch_occupancy - 3.0).abs() < 1e-9);
        assert!(s.throughput_rps > 0.0);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        assert_eq!(s.cache, CacheStats::default(), "bare snapshot carries zero cache stats");
    }

    /// Regression (ISSUE 6): `Occupancy` used to hard-cap at 16 slots and
    /// silently drop busy time for slots ≥ 16, so `shards` or
    /// `pipeline_stages` above 16 reported lying occupancy gauges. Sized
    /// from the config, slot 16+ must record and report.
    #[test]
    fn occupancy_slots_beyond_sixteen_record_when_sized_from_config() {
        let t = Telemetry::with_slots(24, 20);
        t.on_stage_busy(16, Duration::from_millis(5));
        t.on_stage_busy(23, Duration::from_millis(5));
        let mut bands = BandSet::new(1);
        t.drain_shard_busy(&mut bands);
        let s = t.snapshot();
        assert_eq!(s.stage_busy.len(), 24, "slot 23 must be visible");
        assert!(s.stage_busy[16] > 0.0, "slot 16 busy time was dropped");
        assert!(s.stage_busy[23] > 0.0, "slot 23 busy time was dropped");
        // Default-sized gauges keep the legacy floor.
        let d = Telemetry::new();
        d.on_stage_busy(15, Duration::from_millis(1));
        assert_eq!(d.snapshot().stage_busy.len(), 16);
    }

    /// Regression (ISSUE 6): `throughput_rps` used to divide by elapsed
    /// time since `Telemetry::new`, so idle time between server
    /// construction and the first request permanently deflated the
    /// reported throughput. The window must anchor at the first admit.
    #[test]
    fn throughput_window_anchors_at_first_admit_not_construction() {
        let t = Telemetry::new();
        assert_eq!(t.snapshot().throughput_rps, 0.0, "no traffic, no rate");
        // Injected idle gap between construction and first traffic.
        std::thread::sleep(Duration::from_millis(120));
        let first_admit = Instant::now();
        t.on_admit();
        t.on_dispatch(1);
        t.on_complete(Duration::from_micros(50));
        let s = t.snapshot();
        let since_admit = first_admit.elapsed().as_secs_f64();
        let since_construction = s.elapsed.as_secs_f64();
        assert!(s.window.as_secs_f64() <= since_admit + 0.005, "window excludes the gap");
        assert!(
            s.throughput_rps >= 0.9 / since_admit.max(1e-9),
            "rate must be computed over the active window: {} rps over {:?}",
            s.throughput_rps,
            s.window
        );
        // The old formula would have reported at most 1/0.12s ≈ 8.3 rps.
        assert!(
            s.throughput_rps > 2.0 / since_construction,
            "idle gap deflated throughput: {} rps", s.throughput_rps
        );
    }

    /// A deadline shed removes an admitted request from the queue; the
    /// depth gauge must see it leave or admission control would creep
    /// toward shedding everything.
    #[test]
    fn deadline_shed_drains_the_queue_gauge() {
        let t = Telemetry::new();
        t.on_admit();
        t.on_admit();
        assert_eq!(t.queue_depth(), 2);
        t.on_expire();
        t.on_deadline_shed(QosClass::Interactive);
        assert_eq!(t.queue_depth(), 1, "shed request must leave the gauge");
        t.on_dispatch(1);
        assert_eq!(t.queue_depth(), 0);
    }

    /// A completion with no prior admit (a pure cache hit) must also
    /// anchor the window.
    #[test]
    fn completion_without_admit_anchors_window() {
        let t = Telemetry::new();
        t.on_complete(Duration::from_micros(10));
        let s = t.snapshot();
        assert!(s.throughput_rps > 0.0, "cache-hit-only traffic still has a rate");
    }

    /// Boundary behaviour of `percentile`: empty, the q = 0 / q = 1
    /// extremes, a single sample, out-of-range quantiles, and the top
    /// bucket (which must not overflow computing its midpoint).
    #[test]
    fn percentile_boundaries() {
        // Empty: every quantile is zero.
        let empty = LatencyHistogram::new();
        for q in [0.0, 0.5, 1.0, -3.0, 42.0] {
            assert_eq!(empty.percentile(q), Duration::ZERO);
        }

        // Single sample: every quantile lands in that sample's bucket.
        let mut one = LatencyHistogram::new();
        one.record(Duration::from_micros(777));
        let bucket = one.percentile(0.5);
        for q in [0.0, 0.001, 0.25, 0.999, 1.0] {
            assert_eq!(one.percentile(q), bucket);
        }
        let rel = (bucket.as_nanos() as f64 - 777_000.0).abs() / 777_000.0;
        assert!(rel < 0.07, "single-sample estimate off by {rel:.3}");

        // q = 0 selects the minimum-occupied bucket, q = 1 the maximum;
        // out-of-range q clamps to those instead of indexing garbage.
        let mut h = LatencyHistogram::new();
        for micros in [10u64, 100, 1_000, 10_000] {
            h.record(Duration::from_micros(micros));
        }
        let lo = h.percentile(0.0);
        let hi = h.percentile(1.0);
        assert!(lo <= Duration::from_micros(11), "q=0 must sit in the min bucket: {lo:?}");
        assert!(hi >= Duration::from_micros(9_300), "q=1 must sit in the max bucket: {hi:?}");
        assert_eq!(h.percentile(-1.0), lo);
        assert_eq!(h.percentile(2.0), hi);
        // rank = ceil(q * total): just past a sample boundary moves on.
        assert_eq!(h.percentile(0.25), lo);
        assert!(h.percentile(0.26) > lo);

        // Top bucket: u64::MAX nanoseconds lands in the last bucket and
        // its midpoint computes without overflowing u64.
        let mut top = LatencyHistogram::new();
        top.record(Duration::from_nanos(u64::MAX));
        assert_eq!(LatencyHistogram::index(u64::MAX), BUCKETS - 1);
        let p = top.percentile(1.0);
        let rel = (p.as_nanos() as f64 - u64::MAX as f64).abs() / u64::MAX as f64;
        assert!(rel < 0.07, "top-bucket midpoint off by {rel:.3}: {p:?}");
        assert_eq!(top.percentile(0.0), p, "one sample, one bucket");
    }

    /// Satellite (ISSUE 7): `snapshot` must be coherent under concurrent
    /// writers — no torn intermediate states. Previously `completed` was
    /// bumped before the histogram lock (a snapshot could see a
    /// completion with no recorded latency → mean/percentiles of zero)
    /// and `batches`/`batched_requests` could tear (mean occupancy below
    /// one). Hammer all write paths from several threads while snapshot
    /// threads assert the invariants on every read.
    #[test]
    fn snapshot_is_coherent_under_concurrent_writers() {
        let t = std::sync::Arc::new(Telemetry::new());
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..3u64)
                .map(|w| {
                    let t = std::sync::Arc::clone(&t);
                    scope.spawn(move || {
                        for i in 0..2_000u64 {
                            t.on_admit();
                            t.on_dispatch(1 + (i % 4) as usize);
                            // Nonzero latencies so completed > 0 forces
                            // nonzero mean and percentiles.
                            t.on_complete(Duration::from_micros(w * 100 + i % 50 + 1));
                            match i % 3 {
                                0 => t.on_shed(QosClass::Interactive),
                                1 => t.on_shed(QosClass::Batch),
                                _ => t.on_deadline_shed(QosClass::Standard),
                            }
                        }
                    })
                })
                .collect();
            for _ in 0..2 {
                let t = std::sync::Arc::clone(&t);
                let stop = std::sync::Arc::clone(&stop);
                scope.spawn(move || {
                    let mut reads = 0u64;
                    while !stop.load(Ordering::Relaxed) || reads < 50 {
                        let s = t.snapshot();
                        let class_sum: u64 = s.shed_by_class.iter().sum();
                        assert!(
                            s.shed >= class_sum,
                            "torn shed counters: total {} < by-class sum {}",
                            s.shed,
                            class_sum
                        );
                        assert!(
                            class_sum >= s.deadline_shed,
                            "torn shed counters: by-class sum {} < deadline {}",
                            class_sum,
                            s.deadline_shed
                        );
                        if s.completed > 0 {
                            assert!(
                                s.mean_latency > Duration::ZERO,
                                "{} completions but empty histogram",
                                s.completed
                            );
                            assert!(s.p50 > Duration::ZERO);
                            assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
                        }
                        if s.batches > 0 {
                            assert!(
                                s.mean_batch_occupancy >= 1.0,
                                "batch counted before its requests: occupancy {}",
                                s.mean_batch_occupancy
                            );
                        }
                        reads += 1;
                    }
                });
            }
            // Keep the readers sampling until every writer is done, so
            // snapshots race real updates rather than a settled state.
            for w in writers {
                w.join().expect("writer panicked");
            }
            stop.store(true, Ordering::Relaxed);
        });
        let s = t.snapshot();
        assert_eq!(s.completed, 6_000);
        assert_eq!(s.shed, 6_000);
        assert_eq!(s.shed_by_class.iter().sum::<u64>(), 6_000);
        assert_eq!(s.deadline_shed, 1_998);
    }

    #[test]
    fn snapshot_default_is_all_zero() {
        let s = TelemetrySnapshot::default();
        assert_eq!(s.submitted, 0);
        assert_eq!(s.completed, 0);
        assert_eq!(s.mean_latency, Duration::ZERO);
        assert_eq!(s.throughput_rps, 0.0);
        assert!(s.stage_busy.is_empty());
        assert_eq!(s.cache, CacheStats::default());
        // Debug formatting exists and names the type.
        assert!(format!("{s:?}").contains("TelemetrySnapshot"));
    }

    #[test]
    fn quarantine_gauge_saturates_at_zero() {
        let t = Telemetry::new();
        t.on_quarantine(-1);
        assert_eq!(t.snapshot().shards_quarantined, 0, "gauge must not wrap");
        t.on_quarantine(1);
        t.on_quarantine(1);
        t.on_quarantine(-1);
        assert_eq!(t.snapshot().shards_quarantined, 1);
    }

    #[test]
    fn snapshot_json_is_complete_and_balanced() {
        let t = Telemetry::new();
        t.on_admit();
        t.on_dispatch(1);
        t.on_complete(Duration::from_millis(3));
        t.on_shed(QosClass::Interactive);
        t.on_stage_busy(0, Duration::from_millis(1));
        t.on_failed();
        t.on_worker_panic();
        t.on_band_fault();
        t.on_retry();
        t.on_quarantine(1);
        t.on_retune();
        t.on_swap();
        let json = t.snapshot().to_json();
        for key in [
            "\"elapsed_us\":",
            "\"window_us\":",
            "\"submitted\":1",
            "\"completed\":1",
            "\"shed\":1",
            "\"shed_by_class\":[1,0,0]",
            "\"deadline_shed\":0",
            "\"failed\":1",
            "\"worker_panics\":1",
            "\"band_faults\":1",
            "\"band_retries\":1",
            "\"shards_quarantined\":1",
            "\"retunes\":1",
            "\"swaps\":1",
            "\"queue_depth\":0",
            "\"batches\":1",
            "\"mean_batch_occupancy\":1.0",
            "\"throughput_rps\":",
            "\"mean_latency_us\":",
            "\"p50_us\":",
            "\"p95_us\":",
            "\"p99_us\":",
            "\"stage_busy\":[",
            "\"shard_busy\":[]",
            "\"shard_geometry_busy\":{}",
            "\"cache\":{\"hits\":0,\"misses\":0,\"coalesced_hits\":0,\"deferred\":0,\"evictions\":0,\"entries\":0,\"bytes\":0}",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json.matches('"').count() % 2, 0);
        // Defaults render too (NaN-free: no-traffic rates are 0, not null).
        let empty = TelemetrySnapshot::default().to_json();
        assert!(empty.contains("\"throughput_rps\":0.0"));
        assert!(!empty.contains("null"));
    }
}
