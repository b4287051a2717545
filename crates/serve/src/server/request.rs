//! The request record and its one terminal path — the seam every other
//! file of [`crate::server`] ends a request through.
//!
//! A request is one nested record that moves whole: [`Pending`] is the
//! half every ticket has (cache hits and coalesced followers are nothing
//! else), [`Admitted`] wraps it with what admission took on the
//! request's behalf, and [`Request`] adds what the queue and the array
//! consume. The two levels of the terminal path mirror the first two:
//! [`Shared::resolve`] ends any ticket, [`Shared::finish`] gives back
//! what an admitted request holds and then resolves it. Both take the
//! record by value, so a ticket cannot be resolved twice — and a hit,
//! having no tenant, cache key or identity in its record, has nothing it
//! could release.

use super::{ServeConfig, WaitError};
use crate::cache::{FlightTable, ResponseCache};
use crate::qos::{QosClass, TenantLedger};
use crate::telemetry::{Telemetry, TelemetrySnapshot};
use crate::trace::{EventKind, Outcome, TraceRecorder, Track};
use cc_deploy::DeployedNetwork;
use cc_systolic::ArrayGeometry;
use cc_tensor::Tensor;
use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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
    /// events in [`super::Server::trace_events`]. 0 when the request was
    /// not traced (no recorder, or tracing off at submit time).
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

    /// Non-blocking poll: [`Ticket::wait_timeout`] without the wait. A
    /// failed request polls as `Some(Err(why))`, never as still pending.
    pub fn try_wait(&self) -> Option<Result<Response, WaitError>> {
        self.wait_timeout(Duration::ZERO)
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

/// The server-side half of a [`Ticket`]: all it takes to resolve one.
/// A cache hit is only this, and so is a coalesced follower parked on
/// another request's in-flight execution (see [`FlightTable`]) — neither
/// holds a queue slot, a quota slot, or array time.
pub(super) struct Pending {
    pub(super) submitted: Instant,
    pub(super) qos: QosClass,
    /// Trace correlation id (0 = untraced).
    pub(super) id: u64,
    /// Private: [`Shared::resolve`] is the only code that can send on it.
    reply: mpsc::Sender<Result<Response, WaitError>>,
}

impl Pending {
    /// Both halves of a new ticket.
    pub(super) fn new(submitted: Instant, qos: QosClass, id: u64) -> (Pending, Ticket) {
        let (reply, rx) = mpsc::channel();
        (Pending { submitted, qos, id, reply }, Ticket { rx })
    }
}

/// A miss's memo-cache key, carried through the batch so the cache can
/// be filled at completion.
pub(super) type CacheKey = (u64, Box<[i8]>);

/// A ticket plus everything admission took on its behalf — what
/// [`Shared::finish`] gives back.
pub(super) struct Admitted {
    pub(super) pending: Pending,
    /// Identity of the network captured at submit: keys the in-flight
    /// count, the batch, the cache entry and the flight.
    pub(super) identity: usize,
    pub(super) tenant: Option<Arc<str>>,
    pub(super) cache_key: Option<CacheKey>,
    /// When a worker took this request into its batch; the boundary
    /// between its queue span and its execute span. Initialized to the
    /// submit time and restamped at dispatch.
    pub(super) dispatched_at: Instant,
}

/// An admitted request on its way to the array.
pub(super) struct Request {
    pub(super) net: DeployedNetwork,
    pub(super) image: Tensor,
    /// Absolute deadline (submit time + [`crate::SubmitOptions::deadline`]).
    pub(super) deadline: Option<Instant>,
    pub(super) admitted: Admitted,
}

/// The tag a batch travels under once its images are peeled off: its
/// trace batch id (0 = untraced) plus each member's record.
pub(super) type BatchMeta = (u64, Vec<Admitted>);

/// How a ticket ends well: the logits, their argmax, the batch they came
/// out of (0 = none) and which of [`Outcome::Ok`] / [`Outcome::CacheHit`] /
/// [`Outcome::CoalescedHit`] produced them.
#[derive(Clone)]
pub(super) struct Served {
    pub(super) logits: Vec<f32>,
    pub(super) class: usize,
    pub(super) batch_size: usize,
    pub(super) outcome: Outcome,
}

impl Served {
    pub(super) fn new(logits: Vec<f32>, batch_size: usize, outcome: Outcome) -> Self {
        Served { class: argmax(&logits), logits, batch_size, outcome }
    }
}

/// Admitted-but-unresolved request counts per network identity, with a
/// condvar hot-swap drains wait on. Incremented at admission,
/// decremented in [`Shared::finish`], so [`InFlight::wait_idle`]
/// returning true means no queued or executing batch still references
/// that network.
#[derive(Default)]
pub(super) struct InFlight {
    counts: Mutex<HashMap<usize, u64>>,
    idle: Condvar,
}

impl InFlight {
    pub(super) fn inc(&self, identity: usize) {
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
    pub(super) fn total(&self) -> u64 {
        self.counts.lock().expect("inflight lock").values().sum()
    }

    /// Blocks until no request for `identity` is in flight, at most
    /// `timeout`. True = drained, false = timed out with work pending.
    pub(super) fn wait_idle(&self, identity: usize, timeout: Duration) -> bool {
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

/// The response memo-cache and the in-flight miss coalescing table that
/// rides it: coalescing keys on the same (identity, digest) pair, so
/// without quantized digests there is nothing sound to coalesce on.
pub(super) struct Memo {
    pub(super) cache: ResponseCache,
    pub(super) flights: FlightTable<Pending>,
}

/// The state every request ends through; one `Arc` of it is shared by
/// the submit path, the workers and their pipeline sinks.
pub(super) struct Shared {
    pub(super) telemetry: Arc<Telemetry>,
    pub(super) memo: Option<Memo>,
    /// Per-identity in-flight counts hot-swap drains wait on.
    pub(super) inflight: InFlight,
    pub(super) ledger: TenantLedger,
    pub(super) trace: Option<Arc<TraceRecorder>>,
}

impl Shared {
    /// Fresh state for a server under `cfg`. The occupancy gauges are
    /// sized from the config so no configured executor's busy time is
    /// dropped; a fleet also labels the shard lanes so the snapshot can
    /// aggregate busy fractions per geometry.
    pub(super) fn new(cfg: &ServeConfig, stage_slots: usize) -> Self {
        let mut telemetry = Telemetry::with_slots(stage_slots, cfg.shards);
        if let Some(fleet) = &cfg.fleet {
            let labels = fleet.iter().map(ArrayGeometry::label).collect();
            telemetry = telemetry.with_shard_labels(labels);
        }
        Shared {
            telemetry: Arc::new(telemetry),
            memo: cfg.cache.enabled().then(|| Memo {
                cache: ResponseCache::new(cfg.cache),
                flights: FlightTable::new(),
            }),
            inflight: InFlight::default(),
            ledger: TenantLedger::new(),
            // Capacity 0 = no recorder at all: not even the atomic load.
            trace: (cfg.trace.capacity > 0).then(|| Arc::new(TraceRecorder::new(cfg.trace))),
        }
    }

    /// The recorder, when there is one and it is on: the one atomic load
    /// an untraced server pays per record site.
    pub(super) fn tracer(&self) -> Option<&TraceRecorder> {
        self.trace.as_deref().filter(|rec| rec.enabled())
    }

    /// [`Shared::tracer`] for one request's events: `None` for an
    /// untraced request (`id` 0) without touching the recorder.
    pub(super) fn tracer_for(&self, id: u64) -> Option<&TraceRecorder> {
        if id == 0 { None } else { self.tracer() }
    }

    /// Point-in-time serving metrics with the memo-cache counters folded
    /// in.
    pub(super) fn snapshot(&self) -> TelemetrySnapshot {
        self.telemetry
            .snapshot_with_cache(self.memo.as_ref().map(|m| m.cache.stats()).unwrap_or_default())
    }

    /// Ends a ticket — any ticket, exactly once: counts it in exactly one
    /// of `completed` / `failed` / `shed`, records its
    /// [`EventKind::Resolve`], and sends the reply. `bid` is the trace
    /// batch id the ending belongs to (0 = none).
    pub(super) fn resolve(&self, ticket: Pending, bid: u64, ending: Result<Served, WaitError>) {
        let Pending { submitted, qos, id, reply } = ticket;
        let latency = submitted.elapsed();
        let outcome = match &ending {
            Ok(served) => served.outcome,
            Err(WaitError::Faulted) => Outcome::Faulted,
            Err(WaitError::WorkerPanicked) => Outcome::WorkerPanicked,
            Err(WaitError::DeadlineExceeded) => Outcome::DeadlineExceeded,
            // Turned away at the door, by a full queue or a closing one.
            Err(WaitError::Shed | WaitError::Disconnected) => Outcome::Shed,
        };
        match outcome {
            Outcome::Ok | Outcome::CacheHit | Outcome::CoalescedHit => {
                self.telemetry.on_complete(latency);
            }
            Outcome::Faulted | Outcome::WorkerPanicked => self.telemetry.on_failed(),
            Outcome::DeadlineExceeded => self.telemetry.on_deadline_shed(qos),
            Outcome::Shed => self.telemetry.on_shed(qos),
        }
        if let Some(rec) = self.tracer_for(id) {
            let (now, arg) = (Instant::now(), outcome as u32);
            rec.instant(EventKind::Resolve, Track::Requests, id, bid, now, arg);
        }
        // The only send on a ticket's reply channel. A dropped ticket
        // just means the client stopped waiting.
        let _ = reply.send(ending.map(|Served { logits, class, batch_size, .. }| Response {
            logits,
            class,
            latency,
            batch_size,
            id,
        }));
    }

    /// Ends an admitted request with its logits and batch size, or with
    /// why it has none: offers the result to the cache, hands it to every
    /// follower that coalesced on its flight, gives back its quota slot
    /// and in-flight count, closes its open trace span, and resolves it.
    pub(super) fn finish(
        &self,
        request: Admitted,
        bid: u64,
        result: Result<(Vec<f32>, usize), WaitError>,
    ) {
        let Admitted { pending, identity, tenant, cache_key, dispatched_at } = request;
        let ending = result.map(|(logits, size)| Served::new(logits, size, Outcome::Ok));
        if let (Some(memo), Some((digest, qdata))) = (&self.memo, &cache_key) {
            if let Ok(served) = &ending {
                memo.cache.offer(identity, *digest, qdata, &served.logits);
            }
            // Followers ran in no batch (batch_size 0, like a cache hit);
            // on success the bytes are the very ones the leader's array
            // pass produced — bit-identical by construction — and on any
            // other ending they share its fate instead of hanging.
            let followers = memo.flights.resolve(identity, *digest);
            if ending.is_ok() && !followers.is_empty() {
                memo.cache.note_coalesced(followers.len() as u64);
            }
            for follower in followers {
                let shared = ending.clone().map(|served| Served {
                    batch_size: 0,
                    outcome: Outcome::CoalescedHit,
                    ..served
                });
                self.resolve(follower, bid, shared);
            }
        }
        if let Some(tenant) = &tenant {
            self.ledger.release(tenant);
        }
        self.inflight.dec(identity);
        if let Some(rec) = self.tracer_for(pending.id) {
            // What the request was in the middle of follows from how it
            // ends: an admission shed never queued, a deadline shed never
            // left the queue, everything else comes off a worker.
            let open = match &ending {
                Err(WaitError::Shed | WaitError::Disconnected) => None,
                Err(WaitError::DeadlineExceeded) => Some((EventKind::Queue, pending.submitted)),
                _ => Some((EventKind::Execute, dispatched_at)),
            };
            if let Some((kind, since)) = open {
                rec.span(kind, Track::Requests, pending.id, bid, since, Instant::now(), 0);
            }
        }
        self.resolve(pending, bid, ending);
    }

    /// [`Shared::finish`] for every member of a batch that left the
    /// array, with its logits or with why it produced none.
    pub(super) fn finish_batch(&self, meta: BatchMeta, result: Result<Vec<Vec<f32>>, WaitError>) {
        let (bid, members) = meta;
        let size = members.len();
        let mut logits = result.map(Vec::into_iter);
        for member in members {
            let own = match &mut logits {
                // A batch that came back short fails the members it has
                // nothing for like a panicked one.
                Ok(rest) => rest.next().ok_or(WaitError::WorkerPanicked),
                Err(err) => Err(*err),
            };
            self.finish(member, bid, own.map(|logits| (logits, size)));
        }
    }
}

/// Index of the largest logit, ordering NaN below every real value: a NaN
/// produced anywhere upstream must yield a well-defined class, not panic
/// the worker thread that every other in-flight request depends on.
pub(super) fn argmax(logits: &[f32]) -> usize {
    let key = |v: f32| if v.is_nan() { f32::NEG_INFINITY } else { v };
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| key(*a.1).total_cmp(&key(*b.1)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}
