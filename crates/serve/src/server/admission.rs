//! Admission — the seam between [`Server::submit_with`] and a worker:
//! the memo-cache probe that answers or parks a request without
//! admitting it, the quota and queue checks that admit or shed it, and
//! the batcher an idle worker runs to turn the admitted queue into its
//! next batch (or, for a blown deadline, end the request where it sits).

use super::pool::WorkerEnv;
use super::request::{Admitted, CacheKey, Pending, Request, Served, Shared};
use super::{Server, SubmitError, WaitError};
use crate::batcher::{BatchKnobs, Batcher};
use crate::qos::SubmitOptions;
use crate::trace::{EventKind, Outcome, Track};
use cc_deploy::DeployedNetwork;
use cc_tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, TrySendError};
use std::sync::{Arc, PoisonError};
use std::time::Instant;

impl Server {
    /// Pins `model` to the current registry snapshot and checks the
    /// image against its input shape. One uncontended read-lock + clone:
    /// a concurrent hot-swap publishes a new snapshot without disturbing
    /// requests already holding the old network (`DeployedNetwork` is
    /// `Arc`-backed — a clone is a pointer bump).
    pub(super) fn lookup(
        &self,
        model: &str,
        image: &Tensor,
    ) -> Result<DeployedNetwork, SubmitError> {
        let net = {
            let registry = self.registry.read().expect("registry lock");
            registry.get(model).cloned()
        }
        .ok_or_else(|| SubmitError::UnknownModel(model.to_string()))?;
        let expected = net.input_shape();
        let shape = image.shape();
        let got: Vec<usize> = (0..shape.rank()).map(|i| shape.dim(i)).collect();
        if got != [expected.0, expected.1, expected.2] {
            return Err(SubmitError::InvalidShape { expected, got });
        }
        Ok(net)
    }

    /// Memo-cache probe. `None` means the ticket needs nothing more from
    /// the submit path: a hit resolved it, or it is parked on an identical
    /// in-flight miss. Otherwise the ticket comes back with the key its
    /// request will fill the cache under (`None` with the cache off).
    ///
    /// The key is taken *after* quantization — the exact bytes the array
    /// would see — so a hit is bit-identical to running the batch, and
    /// sub-quantum float jitter still hits.
    pub(super) fn probe(
        &self,
        net: &DeployedNetwork,
        image: &Tensor,
        ticket: Pending,
    ) -> Option<(Pending, Option<CacheKey>)> {
        let Some(memo) = &self.shared.memo else { return Some((ticket, None)) };
        let identity = net.identity();
        let probe_start = Instant::now();
        let qmap = net.quantize_input(image);
        let digest = qmap.digest();
        let hit = memo.cache.lookup(identity, digest, qmap.as_slice());
        if let Some(rec) = self.shared.tracer_for(ticket.id) {
            let (id, now, hit) = (ticket.id, Instant::now(), hit.is_some() as u32);
            rec.span(EventKind::CacheProbe, Track::Requests, id, 0, probe_start, now, hit);
        }
        if let Some(logits) = hit {
            self.shared.resolve(ticket, 0, Ok(Served::new(logits, 0, Outcome::CacheHit)));
            return None;
        }
        // In-flight miss coalescing: when an identical miss is already
        // riding a batch, park this request on it as a follower instead
        // of burning a second array pass on bytes already in flight — the
        // leader's ending fans out to it. Followers skip quota and queue
        // admission entirely: they consume nothing the limits protect.
        let ticket = memo.flights.follow(identity, digest, ticket).err()?;
        Some((ticket, Some((digest, qmap.into_raw().into_boxed_slice()))))
    }

    /// Admits a miss into the queue, or sheds it. On `Err` the ticket
    /// has been resolved ([`WaitError::Shed`] — the lifecycle is submit →
    /// resolve, no queue span) and nothing stays held on its behalf.
    pub(super) fn admit(
        &self,
        net: DeployedNetwork,
        image: Tensor,
        options: SubmitOptions,
        ticket: Pending,
        cache_key: Option<CacheKey>,
    ) -> Result<(), SubmitError> {
        let shared = &self.shared;
        // Tenant quota: one tenant flooding submits cannot occupy the
        // whole queue. The ledger counts whenever a tenant key is present
        // (even at quota 0 = unlimited) so `in_flight` stays observable.
        let tenant: Option<Arc<str>> = options.tenant.as_deref().map(Arc::from);
        if let Some(t) = &tenant {
            if !shared.ledger.try_admit(t, self.tenant_quota) {
                shared.resolve(ticket, 0, Err(WaitError::Shed));
                return Err(SubmitError::QuotaExceeded { tenant: t.to_string() });
            }
        }
        // From here on the request holds something, and `finish` is the
        // only way out. Count it in flight *before* it becomes visible to
        // the batcher: a worker can finish it (and decrement) within the
        // window between `try_send` and any bookkeeping after it, and a
        // decrement racing ahead of its increment would no-op and leak
        // the count — every later hot-swap drain would then wait out its
        // full timeout against a phantom request.
        let identity = net.identity();
        shared.inflight.inc(identity);
        // Lead the flight before `try_send` for the same reason: a `lead`
        // landing after the batch's completion already resolved the
        // digest would leave a leaderless entry, and once the cache
        // evicted that digest every later same-digest miss would follow
        // it forever. Only the leader keeps the key: a racing twin that
        // lost registration runs too (exactly the pre-table behavior) but
        // leaves the cache fill and the flight to the winner.
        let cache_key = cache_key.filter(|(digest, _)| {
            shared.memo.as_ref().is_some_and(|memo| memo.flights.lead(identity, *digest))
        });
        let submitted = ticket.submitted;
        let deadline = options.deadline.map(|d| submitted + d);
        let admitted =
            Admitted { pending: ticket, identity, tenant, cache_key, dispatched_at: submitted };
        let request = Request { net, image, deadline, admitted };
        // The gauge also covers requests the batcher has pulled into its
        // coalescing window but not yet dispatched.
        let offered = match &self.ingress {
            Some(ingress) if shared.telemetry.queue_depth() < self.queue_capacity => {
                ingress.try_send(request)
            }
            Some(_) => Err(TrySendError::Full(request)),
            None => Err(TrySendError::Disconnected(request)),
        };
        let (request, submit_err, wait_err) = match offered {
            Ok(()) => {
                shared.telemetry.on_admit();
                return Ok(());
            }
            Err(TrySendError::Full(r)) => (r, SubmitError::QueueFull, WaitError::Shed),
            Err(TrySendError::Disconnected(r)) => {
                (r, SubmitError::ShuttingDown, WaitError::Disconnected)
            }
        };
        // Followers that attached since `lead` share the shed leader's
        // fate — they resolve now, never hang.
        shared.finish(request.admitted, 0, Err(wait_err));
        Err(submit_err)
    }
}

/// The one batcher every idle worker takes its turn at (fn-pointer
/// hooks keep the type nameable in [`WorkerEnv`]).
pub(super) type RequestBatcher =
    Batcher<Request, usize, fn(&Request) -> usize, fn(&Request) -> Instant>;

/// Builds the batcher over `ingress` under the live `knobs`; whichever
/// worker is forming ends blown-deadline requests where they sit, and
/// releases its batch without waiting out the window while `idle` — the
/// workers inside [`next_work`], itself included — counts another.
pub(super) fn request_batcher(
    ingress: Receiver<Request>,
    knobs: Arc<BatchKnobs>,
    shared: Arc<Shared>,
    idle: Arc<AtomicUsize>,
) -> RequestBatcher {
    // Batches are keyed on *network identity*, not model name: a name can
    // point at different pipelines over time (e.g. across a registry
    // hot-swap), and requests that captured different networks must never
    // share a batch — the worker runs the whole batch on one network. The
    // coalescing window is anchored at the seed request's submit time so
    // a request never pays stash wait plus a fresh deadline.
    RequestBatcher::with_knobs(
        ingress,
        knobs,
        |r| r.admitted.identity,
        |r| r.admitted.pending.submitted,
    )
    .with_qos(
        |r: &Request| r.admitted.pending.qos.index(),
        |r: &Request| r.deadline,
        move |r: Request| {
            shared.telemetry.on_expire();
            shared.finish(r.admitted, 0, Err(WaitError::DeadlineExceeded));
        },
    )
    .with_idle_peer(move || idle.load(Ordering::Relaxed) > 1)
}

/// Counts its worker idle from [`Idle::enter`] until it drops — with a
/// batch, with `None`, or while unwinding out of a panicked formation, so
/// a dead former never stays counted as a peer ready to run a batch.
struct Idle<'a>(&'a AtomicUsize);

impl<'a> Idle<'a> {
    fn enter(idle: &'a AtomicUsize) -> Self {
        idle.fetch_add(1, Ordering::Relaxed);
        Idle(idle)
    }
}

impl Drop for Idle<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Blocks the calling worker for its next batch — formed on its own
/// thread under the batcher's lock, other idle workers waiting on the
/// mutex meanwhile — and the batch's trace id (0 = untraced); `None` once
/// ingress is closed and the stash drained. The worker counts as idle
/// from entry until its batch is formed.
pub(super) fn next_work(env: &WorkerEnv) -> Option<(u64, Vec<Request>)> {
    let WorkerEnv { batcher, shared, idle, .. } = env;
    // A worker that panicked while forming poisons the lock; what it
    // guards is still a queue, so the next worker recovers the guard.
    let (mut batch, formation) = {
        let idle = Idle::enter(idle);
        let mut batcher = batcher.lock().unwrap_or_else(PoisonError::into_inner);
        let batch = batcher.next_batch();
        // Busy again before the lock passes on: the next former must not
        // count this worker as a peer ready to run its batch.
        drop(idle);
        (batch?, batcher.last_formation())
    };
    // The lock is released: the next idle worker forms its batch while
    // this one stamps its own for tracing — close each member's queue
    // span, open its execute clock, record how the batch formed.
    shared.telemetry.on_dispatch(batch.len());
    let mut bid = 0;
    if let Some(rec) = shared.tracer() {
        bid = rec.next_batch_id();
        let now = Instant::now();
        if let Some(f) = formation {
            let (from, to, size) = (f.seeded_at, f.released_at, batch.len() as u32);
            rec.span(EventKind::BatchForm, Track::Batcher, 0, bid, from, to, size);
        }
        for r in &mut batch {
            r.admitted.dispatched_at = now;
            let Pending { id, submitted, .. } = r.admitted.pending;
            if id != 0 {
                rec.span(EventKind::Queue, Track::Requests, id, bid, submitted, now, 0);
                rec.instant(EventKind::BatchMember, Track::Batcher, id, bid, now, 0);
            }
        }
    }
    Some((bid, batch))
}
