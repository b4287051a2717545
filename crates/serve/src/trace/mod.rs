//! Request-lifecycle tracing: a lock-free bounded ring recorder for span
//! events covering every phase a request passes through — submit, cache
//! probe, queue wait, batch formation, per-stage and per-shard execution,
//! and ticket resolution — correlated by request id (`rid`) and batch id
//! (`bid`).
//!
//! The recorder is built so the serving hot path never blocks on it:
//!
//! * **Disabled cost is one atomic load.** Every record call first reads
//!   an `AtomicBool`; with tracing off ([`TraceConfig::off`], the
//!   default) nothing else runs — no timestamps, no id allocation, no
//!   slot claim. [`TraceRecorder::set_enabled`] flips it at runtime.
//! * **Lock-free ring lanes.** Events land in per-thread-striped lanes
//!   (a thread's lane is fixed at first use), each a bounded ring of
//!   seqlock slots. A writer claims a slot with one `fetch_add`, writes
//!   five words, and publishes with a release store; when the ring wraps,
//!   the oldest events are overwritten and counted as dropped — the hot
//!   path sheds history, it never waits for a reader.
//! * **Monotonic timestamps.** All times are nanoseconds since the
//!   recorder's epoch (its construction instant), taken from
//!   [`std::time::Instant`], so event order within a thread is exact and
//!   cross-thread skew is bounded by the OS clock, not by wall-clock
//!   adjustments.
//!
//! Two exporters read the ring non-destructively: [`chrome`] renders
//! Chrome trace-event JSON (loadable in `chrome://tracing` and Perfetto,
//! one track per worker / pipeline stage / shard lane), and [`prom`]
//! renders a Prometheus-style text exposition of a
//! [`crate::TelemetrySnapshot`] plus the recorder's own gauges.

pub mod chrome;
pub mod prom;

use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Default event capacity when a [`TraceConfig`] does not set one:
/// enough for a few thousand requests' full lifecycles.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 14;

/// Ring lanes a recorder stripes writers across. Lanes only reduce
/// `fetch_add` contention between threads; any thread may land in any
/// lane, and exports merge all of them.
const TRACE_LANES: usize = 8;

/// Tracing knobs carried by [`crate::ServeConfig::trace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether the recorder starts enabled. Flippable at runtime via
    /// [`TraceRecorder::set_enabled`] / [`crate::Server::set_tracing`].
    pub enabled: bool,
    /// Total event slots across the ring (0 = no recorder at all: the
    /// server allocates nothing and record sites cost nothing — not even
    /// the atomic load).
    pub capacity: usize,
}

impl TraceConfig {
    /// A recorder allocated but idle (the default): toggling it on later
    /// costs nothing up front but one atomic load per record site.
    pub fn off() -> Self {
        TraceConfig { enabled: false, capacity: DEFAULT_TRACE_CAPACITY }
    }

    /// Recording from the first request.
    pub fn on() -> Self {
        TraceConfig { enabled: true, capacity: DEFAULT_TRACE_CAPACITY }
    }

    /// No recorder at all — the pre-tracing serving path, byte for byte.
    pub fn none() -> Self {
        TraceConfig { enabled: false, capacity: 0 }
    }

    /// Overrides the ring capacity (events retained before overwrite).
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// What a trace event describes. Span kinds carry a duration; instant
/// kinds mark a point in time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Instant: a request entered `submit` (arg = QoS class ordinal).
    Submit = 0,
    /// Span: memo-cache probe (arg = 1 hit, 0 miss).
    CacheProbe = 1,
    /// Span: admission to leaving the queue — dispatch or deadline shed.
    Queue = 2,
    /// Span: batch formation, seed enqueue to release (arg = batch size).
    BatchForm = 3,
    /// Instant: request `rid` rode in batch `bid`.
    BatchMember = 4,
    /// Span: one pipeline stage (or serial worker) executing a batch
    /// (arg = stage index).
    Stage = 5,
    /// Span: the time one shard lane was occupied within a conv scatter
    /// — its band's kernel, then the ReLU + quantizer block over the
    /// band's rows (arg = lane index).
    ShardRun = 6,
    /// Span: a request's execution residence, dispatch to completion.
    Execute = 7,
    /// Instant: the request's ticket resolved (arg = [`Outcome`]).
    Resolve = 8,
    /// Instant: a shard lane returned a poisoned or dead band execution
    /// (arg = lane index).
    Fault = 9,
    /// Instant: a shard lane entered or left quarantine (arg = lane
    /// index, bit 16 set on readmission).
    Quarantine = 10,
    /// Instant: a batch retry after a faulted band execution
    /// (arg = attempt number).
    Retry = 11,
    /// Instant: the control plane applied one retune decision to the
    /// live server (arg = knob id in bits 24..32, new value in bits
    /// 0..24).
    Retune = 12,
    /// Instant: a model hot-swap completed (arg = 1 when the old
    /// network's in-flight work fully drained before the call returned).
    Swap = 13,
}

impl EventKind {
    fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            0 => EventKind::Submit,
            1 => EventKind::CacheProbe,
            2 => EventKind::Queue,
            3 => EventKind::BatchForm,
            4 => EventKind::BatchMember,
            5 => EventKind::Stage,
            6 => EventKind::ShardRun,
            7 => EventKind::Execute,
            8 => EventKind::Resolve,
            9 => EventKind::Fault,
            10 => EventKind::Quarantine,
            11 => EventKind::Retry,
            12 => EventKind::Retune,
            13 => EventKind::Swap,
            _ => return None,
        })
    }

    /// Stable label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Submit => "submit",
            EventKind::CacheProbe => "cache_probe",
            EventKind::Queue => "queue",
            EventKind::BatchForm => "batch_form",
            EventKind::BatchMember => "batch_member",
            EventKind::Stage => "stage",
            EventKind::ShardRun => "shard",
            EventKind::Execute => "execute",
            EventKind::Resolve => "resolve",
            EventKind::Fault => "fault",
            EventKind::Quarantine => "quarantine",
            EventKind::Retry => "retry",
            EventKind::Retune => "retune",
            EventKind::Swap => "swap",
        }
    }

    /// Whether events of this kind carry a duration.
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::CacheProbe
                | EventKind::Queue
                | EventKind::BatchForm
                | EventKind::Stage
                | EventKind::ShardRun
                | EventKind::Execute
        )
    }
}

/// How a request's ticket resolved (the arg of an
/// [`EventKind::Resolve`] event).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum Outcome {
    /// Served by a worker batch.
    Ok = 0,
    /// Served from the response memo-cache, bypassing admission.
    CacheHit = 1,
    /// Shed at admission (queue full or tenant quota).
    Shed = 2,
    /// Shed after admission because its deadline passed while queued.
    DeadlineExceeded = 3,
    /// The worker executing the request's batch panicked; the ticket
    /// resolved [`crate::WaitError::WorkerPanicked`].
    WorkerPanicked = 4,
    /// The batch kept faulting past its retry budget; the ticket resolved
    /// [`crate::WaitError::Faulted`].
    Faulted = 5,
    /// Served by fanning out a concurrent leader's result — the request
    /// missed the cache but coalesced onto an identical in-flight miss
    /// instead of occupying its own batch slot.
    CoalescedHit = 6,
}

impl Outcome {
    fn from_u32(v: u32) -> Option<Outcome> {
        Some(match v {
            0 => Outcome::Ok,
            1 => Outcome::CacheHit,
            2 => Outcome::Shed,
            3 => Outcome::DeadlineExceeded,
            4 => Outcome::WorkerPanicked,
            5 => Outcome::Faulted,
            6 => Outcome::CoalescedHit,
            _ => return None,
        })
    }

    /// Stable label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::CacheHit => "cache_hit",
            Outcome::Shed => "shed",
            Outcome::DeadlineExceeded => "deadline_exceeded",
            Outcome::WorkerPanicked => "worker_panicked",
            Outcome::Faulted => "faulted",
            Outcome::CoalescedHit => "coalesced_hit",
        }
    }
}

/// The track (Perfetto row) an event renders on: request-lifecycle
/// events share one track, batch formation another, and every worker,
/// pipeline stage, and shard lane gets its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// Request lifecycle events (submit, probe, queue, execute, resolve).
    Requests,
    /// Batch formation events, from whichever worker formed the batch
    /// (one row: formation is serialized by the batcher's lock).
    Batcher,
    /// A serial worker's execution slot.
    Worker(u16),
    /// One pipeline stage's thread.
    Stage(u16),
    /// One shard lane (simulated array) of the band set.
    Shard(u16),
    /// Control-plane decisions: retunes and hot-swaps.
    Control,
}

impl Track {
    fn encode(self) -> (u8, u16) {
        match self {
            Track::Requests => (0, 0),
            Track::Batcher => (1, 0),
            Track::Worker(i) => (2, i),
            Track::Stage(i) => (3, i),
            Track::Shard(i) => (4, i),
            Track::Control => (5, 0),
        }
    }

    fn decode(kind: u8, idx: u16) -> Option<Track> {
        Some(match kind {
            0 => Track::Requests,
            1 => Track::Batcher,
            2 => Track::Worker(idx),
            3 => Track::Stage(idx),
            4 => Track::Shard(idx),
            5 => Track::Control,
            _ => return None,
        })
    }

    /// Human-readable track name for the exporters.
    pub fn name(self) -> String {
        match self {
            Track::Requests => "requests".to_string(),
            Track::Batcher => "batcher".to_string(),
            Track::Worker(i) => format!("worker-{i}"),
            Track::Stage(i) => format!("stage-{i}"),
            Track::Shard(i) => format!("shard-{i}"),
            Track::Control => "control".to_string(),
        }
    }

    /// Sort key grouping tracks: requests, batcher, workers, stages,
    /// shards — each family in index order.
    pub fn sort_key(self) -> (u8, u16) {
        self.encode()
    }
}

/// One decoded trace event. `start_ns` is nanoseconds since the
/// recorder's epoch; `dur_ns` is zero for instant kinds; `rid`/`bid` are
/// zero when the event has no request/batch correlation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// Where it renders.
    pub track: Track,
    /// Correlated request id (0 = none).
    pub rid: u64,
    /// Correlated batch id (0 = none).
    pub bid: u64,
    /// Start, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Kind-specific argument (class, hit/miss, size, index, outcome).
    pub arg: u32,
}

impl TraceEvent {
    /// End of the event (`start_ns` for instants).
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// Point-in-time recorder gauges for the metrics exposition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Whether the recorder is currently enabled.
    pub enabled: bool,
    /// Total ring capacity in events.
    pub capacity: usize,
    /// Events ever written (including ones since overwritten).
    pub recorded: u64,
    /// Events lost: overwritten by ring wrap or abandoned to a slot
    /// collision (a writer lapped a full capacity mid-write).
    pub dropped: u64,
}

/// One seqlock slot: `seq` odd while a writer owns it, bumped to the
/// next even value when the payload words are published.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; 5],
}

impl Slot {
    fn new() -> Self {
        Slot { seq: AtomicU64::new(0), words: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

/// One ring lane: a claim counter plus its slots. Aligned to its own
/// cache lines so two threads striped onto neighbouring lanes never
/// false-share their `head` counters (adjacent-line prefetch makes 128
/// the safe stride on x86).
#[repr(align(128))]
struct Lane {
    head: AtomicU64,
    slots: Vec<Slot>,
}

fn lane_index() -> usize {
    static NEXT_LANE: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static LANE: usize = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
    }
    LANE.with(|l| *l)
}

/// The lock-free bounded ring recorder. Cheap to share (`Arc`), safe to
/// write from any thread, and exportable at any time without pausing
/// writers — a torn read during a concurrent wrap is detected by the
/// slot's sequence word and skipped, never mis-decoded.
/// A `fetch_add` counter on its own cache lines: the id allocators are
/// hammered from every submitting thread, and without the padding their
/// line invalidations would also evict the `enabled` flag every record
/// site reads first.
#[repr(align(128))]
#[derive(Debug, Default)]
struct PaddedCounter(AtomicU64);

#[derive(Debug)]
pub struct TraceRecorder {
    enabled: AtomicBool,
    epoch: Instant,
    lanes: Vec<Lane>,
    lane_capacity: usize,
    next_rid: PaddedCounter,
    next_bid: PaddedCounter,
    collisions: PaddedCounter,
}

impl std::fmt::Debug for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lane")
            .field("head", &self.head.load(Ordering::Relaxed))
            .field("capacity", &self.slots.len())
            .finish()
    }
}

impl TraceRecorder {
    /// A recorder for `cfg` (capacity floored at one slot per lane).
    pub fn new(cfg: TraceConfig) -> Self {
        let lane_capacity = cfg.capacity.div_ceil(TRACE_LANES).max(1);
        TraceRecorder {
            enabled: AtomicBool::new(cfg.enabled),
            epoch: Instant::now(),
            lanes: (0..TRACE_LANES)
                .map(|_| Lane {
                    head: AtomicU64::new(0),
                    slots: (0..lane_capacity).map(|_| Slot::new()).collect(),
                })
                .collect(),
            lane_capacity,
            next_rid: PaddedCounter::default(),
            next_bid: PaddedCounter::default(),
            collisions: PaddedCounter::default(),
        }
    }

    /// Whether events are currently being recorded — **the** gate every
    /// record site checks first, so this is the entire disabled cost.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The recorder's time origin.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch for `at` (0 for instants before it).
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos().min(u64::MAX as u128) as u64
    }

    /// A fresh request id (monotonic from 1; 0 means "untraced").
    pub fn next_request_id(&self) -> u64 {
        self.next_rid.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// A fresh batch id (monotonic from 1; 0 means "no batch").
    pub fn next_batch_id(&self) -> u64 {
        self.next_bid.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records a span from `start` to `end` (call sites should gate on
    /// [`TraceRecorder::enabled`] before taking the timestamps).
    pub fn span(
        &self,
        kind: EventKind,
        track: Track,
        rid: u64,
        bid: u64,
        start: Instant,
        end: Instant,
        arg: u32,
    ) {
        let start_ns = self.ns_of(start);
        let dur_ns = self.ns_of(end).saturating_sub(start_ns);
        self.record(&TraceEvent { kind, track, rid, bid, start_ns, dur_ns, arg });
    }

    /// Records an instant event at `at`.
    pub fn instant(&self, kind: EventKind, track: Track, rid: u64, bid: u64, at: Instant, arg: u32) {
        let start_ns = self.ns_of(at);
        self.record(&TraceEvent { kind, track, rid, bid, start_ns, dur_ns: 0, arg });
    }

    /// Records one event. With tracing disabled this is a single atomic
    /// load; enabled, it is one `fetch_add` plus six uncontended stores.
    pub fn record(&self, ev: &TraceEvent) {
        if !self.enabled() {
            return;
        }
        let lane = &self.lanes[lane_index() % self.lanes.len()];
        let idx = (lane.head.fetch_add(1, Ordering::Relaxed) % self.lane_capacity as u64) as usize;
        let slot = &lane.slots[idx];
        // Seqlock write: claim (even → odd), publish (odd → next even).
        // Losing the claim means another writer lapped the whole ring
        // while this one held the slot — vanishingly rare; shed the event
        // rather than wait.
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq & 1 == 1
            || slot
                .seq
                .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            self.collisions.0.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let (tk, ti) = ev.track.encode();
        let w0 = ev.kind as u64
            | (tk as u64) << 8
            | (ti as u64) << 16
            | (ev.arg as u64) << 32;
        let payload = [w0, ev.rid, ev.bid, ev.start_ns, ev.dur_ns];
        for (word, value) in slot.words.iter().zip(payload) {
            word.store(value, Ordering::Relaxed);
        }
        slot.seq.store(seq + 2, Ordering::Release);
    }

    /// A non-destructive snapshot of every resident event, sorted by
    /// start time. Slots mid-write (a concurrent wrap) are skipped.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for lane in &self.lanes {
            let written = lane.head.load(Ordering::Acquire).min(self.lane_capacity as u64);
            for slot in &lane.slots[..written as usize] {
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 == 0 || s1 & 1 == 1 {
                    continue;
                }
                let words: Vec<u64> =
                    slot.words.iter().map(|w| w.load(Ordering::Relaxed)).collect();
                fence(Ordering::Acquire);
                if slot.seq.load(Ordering::Relaxed) != s1 {
                    continue;
                }
                let kind = match EventKind::from_u8((words[0] & 0xFF) as u8) {
                    Some(k) => k,
                    None => continue,
                };
                let track = match Track::decode(
                    ((words[0] >> 8) & 0xFF) as u8,
                    ((words[0] >> 16) & 0xFFFF) as u16,
                ) {
                    Some(t) => t,
                    None => continue,
                };
                out.push(TraceEvent {
                    kind,
                    track,
                    rid: words[1],
                    bid: words[2],
                    start_ns: words[3],
                    dur_ns: words[4],
                    arg: (words[0] >> 32) as u32,
                });
            }
        }
        out.sort_by_key(|e| (e.start_ns, e.rid, e.kind as u8));
        out
    }

    /// Recorder gauges for the metrics exposition.
    pub fn stats(&self) -> TraceStats {
        let mut recorded = 0u64;
        let mut overwritten = 0u64;
        for lane in &self.lanes {
            let head = lane.head.load(Ordering::Relaxed);
            recorded += head;
            overwritten += head.saturating_sub(self.lane_capacity as u64);
        }
        let collisions = self.collisions.0.load(Ordering::Relaxed);
        TraceStats {
            enabled: self.enabled(),
            capacity: self.lane_capacity * self.lanes.len(),
            recorded: recorded.saturating_sub(collisions),
            dropped: overwritten + collisions,
        }
    }

    /// Discards all resident events (for reuse between measurement
    /// windows). Call while writers are quiescent — events recorded
    /// concurrently with the reset may or may not survive it.
    pub fn clear(&self) {
        for lane in &self.lanes {
            lane.head.store(0, Ordering::Release);
        }
    }
}

/// One request's lifecycle phases reassembled from a trace — the shape
/// the `trace_demo` breakdown table and the lifecycle property tests
/// consume. All times are `(start_ns, dur_ns)` pairs on the recorder's
/// clock.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RequestTrace {
    /// The request id.
    pub rid: u64,
    /// QoS class ordinal from the submit event.
    pub class: u32,
    /// Submit instant, ns since epoch.
    pub submit_ns: Option<u64>,
    /// Cache probe span (arg 1 = hit).
    pub probe: Option<(u64, u64)>,
    /// Whether the probe hit.
    pub cache_hit: bool,
    /// Queue-wait span (admission to dispatch or shed).
    pub queue: Option<(u64, u64)>,
    /// Execution-residence span (dispatch to completion).
    pub execute: Option<(u64, u64)>,
    /// Resolution instant and outcome.
    pub resolve: Option<(u64, Outcome)>,
    /// The batch this request rode in (0 = none).
    pub bid: u64,
}

impl RequestTrace {
    /// The phases present, in `(label, start_ns, dur_ns)` form, ordered
    /// by start time.
    pub fn phases(&self) -> Vec<(&'static str, u64, u64)> {
        let mut out = Vec::new();
        if let Some((s, d)) = self.probe {
            out.push(("cache_probe", s, d));
        }
        if let Some((s, d)) = self.queue {
            out.push(("queue", s, d));
        }
        if let Some((s, d)) = self.execute {
            out.push(("execute", s, d));
        }
        out.sort_by_key(|&(_, s, _)| s);
        out
    }

    /// Sum of all phase durations.
    pub fn phase_total_ns(&self) -> u64 {
        self.phases().iter().map(|&(_, _, d)| d).sum()
    }

    /// Submit-to-resolve wall time when both endpoints were captured.
    pub fn total_ns(&self) -> Option<u64> {
        match (self.submit_ns, self.resolve) {
            (Some(s), Some((r, _))) => Some(r.saturating_sub(s)),
            _ => None,
        }
    }
}

/// Groups a trace's request-correlated events into per-request
/// lifecycles, sorted by rid. Events with `rid = 0` (batch/stage/shard
/// machinery) are ignored here — they correlate through `bid` instead.
pub fn summarize_requests(events: &[TraceEvent]) -> Vec<RequestTrace> {
    let mut by_rid: Vec<RequestTrace> = Vec::new();
    let mut index: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for ev in events.iter().filter(|e| e.rid != 0) {
        let i = *index.entry(ev.rid).or_insert_with(|| {
            by_rid.push(RequestTrace { rid: ev.rid, ..RequestTrace::default() });
            by_rid.len() - 1
        });
        let r = &mut by_rid[i];
        match ev.kind {
            EventKind::Submit => {
                r.submit_ns = Some(ev.start_ns);
                r.class = ev.arg;
            }
            EventKind::CacheProbe => {
                r.probe = Some((ev.start_ns, ev.dur_ns));
                r.cache_hit = ev.arg == 1;
            }
            EventKind::Queue => r.queue = Some((ev.start_ns, ev.dur_ns)),
            EventKind::Execute => r.execute = Some((ev.start_ns, ev.dur_ns)),
            EventKind::Resolve => {
                r.resolve = Some((
                    ev.start_ns,
                    Outcome::from_u32(ev.arg).unwrap_or(Outcome::Ok),
                ));
            }
            EventKind::BatchMember => r.bid = ev.bid,
            EventKind::BatchForm
            | EventKind::Stage
            | EventKind::ShardRun
            | EventKind::Fault
            | EventKind::Quarantine
            | EventKind::Retry
            | EventKind::Retune
            | EventKind::Swap => {}
        }
        if ev.bid != 0 && r.bid == 0 {
            r.bid = ev.bid;
        }
    }
    by_rid.sort_by_key(|r| r.rid);
    by_rid
}

/// Convenience: nanoseconds as a `Duration`.
pub fn ns(d: u64) -> Duration {
    Duration::from_nanos(d)
}

/// Records a drained [`cc_deploy::BandSet`] conv log as per-lane
/// [`EventKind::ShardRun`] spans for batch `bid`. Shard lanes run
/// concurrently and finish at the gather, so each lane's span is
/// reconstructed backwards from the conv's end time.
pub fn record_conv_log(recorder: &TraceRecorder, bid: u64, log: &[cc_deploy::ConvTrace]) {
    for conv in log {
        for (lane, &busy) in conv.lane_busy.iter().enumerate() {
            if busy == 0 {
                continue;
            }
            let start =
                conv.ended.checked_sub(Duration::from_nanos(busy)).unwrap_or(conv.ended);
            recorder.span(
                EventKind::ShardRun,
                Track::Shard(lane as u16),
                0,
                bid,
                start,
                conv.ended,
                lane as u32,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, rid: u64, start_ns: u64, dur_ns: u64, arg: u32) -> TraceEvent {
        TraceEvent { kind, track: Track::Requests, rid, bid: 0, start_ns, dur_ns, arg }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = TraceRecorder::new(TraceConfig::off());
        r.record(&ev(EventKind::Submit, 1, 0, 0, 0));
        assert!(r.events().is_empty());
        assert_eq!(r.stats().recorded, 0);
        assert!(!r.stats().enabled);
    }

    #[test]
    fn roundtrips_every_field_through_the_ring() {
        let r = TraceRecorder::new(TraceConfig::on());
        let original = TraceEvent {
            kind: EventKind::Stage,
            track: Track::Stage(7),
            rid: u64::MAX,
            bid: 12345,
            start_ns: 987_654_321,
            dur_ns: 42,
            arg: u32::MAX,
        };
        r.record(&original);
        let got = r.events();
        assert_eq!(got, vec![original]);
        assert_eq!(r.stats().recorded, 1);
        assert_eq!(r.stats().dropped, 0);
    }

    #[test]
    fn runtime_toggle_gates_recording() {
        let r = TraceRecorder::new(TraceConfig::off());
        r.record(&ev(EventKind::Submit, 1, 10, 0, 0));
        r.set_enabled(true);
        r.record(&ev(EventKind::Submit, 2, 20, 0, 0));
        r.set_enabled(false);
        r.record(&ev(EventKind::Submit, 3, 30, 0, 0));
        let rids: Vec<u64> = r.events().iter().map(|e| e.rid).collect();
        assert_eq!(rids, vec![2], "only the enabled window records");
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        // Single-threaded: one lane absorbs everything, capacity 8 slots
        // per lane after the div_ceil floor.
        let r = TraceRecorder::new(TraceConfig::on().with_capacity(8));
        let per_lane = r.stats().capacity / TRACE_LANES;
        assert_eq!(per_lane, 1);
        for i in 0..5u64 {
            r.record(&ev(EventKind::Submit, i + 1, i * 10, 0, 0));
        }
        let events = r.events();
        assert_eq!(events.len(), 1, "one-slot lane keeps only the newest");
        assert_eq!(events[0].rid, 5);
        let stats = r.stats();
        assert_eq!(stats.recorded, 5);
        assert_eq!(stats.dropped, 4, "four overwrites count as drops");
    }

    #[test]
    fn ids_are_monotonic_and_nonzero() {
        let r = TraceRecorder::new(TraceConfig::on());
        assert_eq!(r.next_request_id(), 1);
        assert_eq!(r.next_request_id(), 2);
        assert_eq!(r.next_batch_id(), 1);
        assert_eq!(r.next_batch_id(), 2);
    }

    #[test]
    fn span_and_instant_use_the_epoch_clock() {
        let r = TraceRecorder::new(TraceConfig::on());
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(250);
        r.span(EventKind::Queue, Track::Requests, 9, 3, t0, t1, 0);
        r.instant(EventKind::Resolve, Track::Requests, 9, 3, t1, Outcome::Ok as u32);
        let events = r.events();
        assert_eq!(events.len(), 2);
        let queue = events.iter().find(|e| e.kind == EventKind::Queue).unwrap();
        assert_eq!(queue.dur_ns, 250_000);
        let resolve = events.iter().find(|e| e.kind == EventKind::Resolve).unwrap();
        assert_eq!(resolve.dur_ns, 0);
        assert_eq!(resolve.start_ns, queue.end_ns());
        // An instant before the epoch clamps to 0 instead of wrapping.
        if let Some(before) = r.epoch().checked_sub(Duration::from_secs(1)) {
            assert_eq!(r.ns_of(before), 0);
        }
    }

    #[test]
    fn concurrent_writers_never_tear_events() {
        let r = std::sync::Arc::new(TraceRecorder::new(TraceConfig::on().with_capacity(256)));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let r = std::sync::Arc::clone(&r);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        // Encode a checkable invariant: dur == rid * 3.
                        let rid = t * 1_000 + i + 1;
                        r.record(&TraceEvent {
                            kind: EventKind::Execute,
                            track: Track::Worker(t as u16),
                            rid,
                            bid: rid * 7,
                            start_ns: i,
                            dur_ns: rid * 3,
                            arg: t as u32,
                        });
                    }
                });
            }
            // Concurrent exports must decode only whole events.
            for _ in 0..20 {
                for e in r.events() {
                    assert_eq!(e.dur_ns, e.rid * 3, "torn event escaped the seqlock");
                    assert_eq!(e.bid, e.rid * 7);
                }
            }
        });
        let stats = r.stats();
        assert!(stats.recorded <= 2000, "at most one record per write attempt");
        assert!(
            stats.recorded + stats.dropped >= 2000,
            "every write attempt is either recorded or counted dropped"
        );
        for e in r.events() {
            assert_eq!(e.dur_ns, e.rid * 3);
        }
    }

    #[test]
    fn summarize_assembles_lifecycles() {
        let events = vec![
            ev(EventKind::Submit, 1, 0, 0, 2),
            ev(EventKind::CacheProbe, 1, 5, 10, 0),
            ev(EventKind::Queue, 1, 20, 100, 0),
            TraceEvent { bid: 4, ..ev(EventKind::BatchMember, 1, 120, 0, 0) },
            ev(EventKind::Execute, 1, 120, 300, 0),
            ev(EventKind::Resolve, 1, 420, 0, Outcome::Ok as u32),
            ev(EventKind::Submit, 2, 50, 0, 0),
            ev(EventKind::CacheProbe, 2, 55, 8, 1),
            ev(EventKind::Resolve, 2, 63, 0, Outcome::CacheHit as u32),
        ];
        let summaries = summarize_requests(&events);
        assert_eq!(summaries.len(), 2);
        let full = &summaries[0];
        assert_eq!(full.rid, 1);
        assert_eq!(full.class, 2);
        assert_eq!(full.bid, 4);
        assert_eq!(full.phases().len(), 3);
        assert_eq!(full.phase_total_ns(), 410);
        assert_eq!(full.total_ns(), Some(420));
        assert_eq!(full.resolve.unwrap().1, Outcome::Ok);
        let hit = &summaries[1];
        assert!(hit.cache_hit);
        assert!(hit.queue.is_none(), "a cache hit never queues");
        assert_eq!(hit.resolve.unwrap().1, Outcome::CacheHit);
    }

    #[test]
    fn clear_resets_the_ring() {
        let r = TraceRecorder::new(TraceConfig::on());
        r.record(&ev(EventKind::Submit, 1, 0, 0, 0));
        assert_eq!(r.events().len(), 1);
        r.clear();
        assert!(r.events().is_empty());
    }

    #[test]
    fn track_names_and_labels_are_stable() {
        assert_eq!(Track::Worker(3).name(), "worker-3");
        assert_eq!(Track::Stage(0).name(), "stage-0");
        assert_eq!(Track::Shard(2).name(), "shard-2");
        assert_eq!(Track::Requests.name(), "requests");
        assert_eq!(EventKind::CacheProbe.label(), "cache_probe");
        assert!(EventKind::Queue.is_span());
        assert!(!EventKind::Resolve.is_span());
        assert_eq!(Outcome::DeadlineExceeded.label(), "deadline_exceeded");
        // Fault-plane additions: instants with stable labels, and the
        // encodings round-trip like the originals.
        for kind in [EventKind::Fault, EventKind::Quarantine, EventKind::Retry] {
            assert!(!kind.is_span());
        }
        assert_eq!(EventKind::Fault.label(), "fault");
        assert_eq!(EventKind::Quarantine.label(), "quarantine");
        assert_eq!(EventKind::Retry.label(), "retry");
        assert_eq!(Outcome::WorkerPanicked.label(), "worker_panicked");
        assert_eq!(Outcome::Faulted.label(), "faulted");
        // Control-plane additions (ISSUE 10): instants on their own
        // track, and the new outcome keeps a stable label.
        for kind in [EventKind::Retune, EventKind::Swap] {
            assert!(!kind.is_span());
        }
        assert_eq!(EventKind::Retune.label(), "retune");
        assert_eq!(EventKind::Swap.label(), "swap");
        assert_eq!(Track::Control.name(), "control");
        assert_eq!(Outcome::CoalescedHit.label(), "coalesced_hit");
    }

    /// The control track and kinds round-trip through the ring encoding.
    #[test]
    fn control_events_roundtrip_the_ring() {
        let r = TraceRecorder::new(TraceConfig::on());
        let retune = TraceEvent {
            kind: EventKind::Retune,
            track: Track::Control,
            rid: 0,
            bid: 0,
            start_ns: 10,
            dur_ns: 0,
            arg: (3 << 24) | 42,
        };
        let swap = TraceEvent {
            kind: EventKind::Swap,
            track: Track::Control,
            rid: 0,
            bid: 0,
            start_ns: 20,
            dur_ns: 0,
            arg: 1,
        };
        r.record(&retune);
        r.record(&swap);
        assert_eq!(r.events(), vec![retune, swap]);
    }
}
