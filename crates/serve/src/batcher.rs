//! The dynamic batcher: coalesces queued requests that share a batch key
//! (same deployed pipeline) into one batch, up to a maximum size or a
//! deadline — whichever comes first.
//!
//! The batcher is generic over the queued item, its key, and its enqueue
//! timestamp so the policy is testable without spinning up a server. Batch
//! formation is SLO-aware:
//!
//! 1. Everything already waiting (stash and channel) is gathered, and
//!    items whose *request deadline* has passed are shed first — work that
//!    already blew its SLO must not occupy a batch slot that fresher work
//!    could use ([`Batcher::with_qos`]'s `on_expired` resolves them).
//! 2. The seed is the best `(class, enqueue time)` item pending — strict
//!    priority across QoS classes, FIFO within a class — then every
//!    same-key item already waiting is absorbed (one stable partition
//!    pass over the stash), and the ingress window stays open until the
//!    batch fills, the window closes, or a peer is idle (below).
//!
//! The window waits for company only while nobody else could run a batch
//! ([`Batcher::with_idle_peer`]): the batch is released as soon as a peer
//! is idle, asked right after absorption and at each straggler's arrival.
//! A batch released to an idle pool runs no later than a fuller one
//! would have — the peer forms the next batch from what arrives
//! meanwhile — so holding it only adds the window to its latency. While
//! every peer is busy, a batch held open costs nothing the peers could
//! have used, and fuller batches share each layer's weight-tile loads:
//! at saturation, or with a single worker, formation is exactly the
//! size/window rule, whose two bounds stay upper bounds throughout.
//!
//! The coalescing deadline is anchored at the *seed item's enqueue time*,
//! not at window-open: the seed is the oldest member of its batch, so no
//! request is ever held longer than one full deadline past its enqueue —
//! a request that already waited in the stash (behind other keys) gets
//! only the remainder of its window, or releases immediately if the
//! window already passed. A seed with a request deadline tighter than the
//! coalescing window closes the window at that deadline instead.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-request deadline hook: `None` means the item never expires.
type DeadlineFn<T> = Box<dyn Fn(&T) -> Option<Instant> + Send>;

/// The batcher's live-tunable knobs: maximum batch size and coalescing
/// deadline, each behind an atomic so a controller can retune a *running*
/// batcher without rebuilding it (the values used to be plain fields read
/// once at construction — an update then required tearing the whole
/// server down). The batcher samples both once per batch formation, so an
/// update takes effect at the next [`Batcher::next_batch`] call and a
/// single batch never mixes old and new policy mid-formation.
#[derive(Debug)]
pub struct BatchKnobs {
    max_batch: AtomicU64,
    deadline_nanos: AtomicU64,
}

impl BatchKnobs {
    /// Knobs initialized to `max_batch` / `deadline`.
    pub fn new(max_batch: usize, deadline: Duration) -> Self {
        let knobs = BatchKnobs { max_batch: AtomicU64::new(1), deadline_nanos: AtomicU64::new(0) };
        knobs.set_max_batch(max_batch);
        knobs.set_deadline(deadline);
        knobs
    }

    /// Current maximum batch size (always ≥ 1).
    pub fn max_batch(&self) -> usize {
        self.max_batch.load(Ordering::Relaxed).max(1) as usize
    }

    /// Current coalescing deadline.
    pub fn deadline(&self) -> Duration {
        Duration::from_nanos(self.deadline_nanos.load(Ordering::Relaxed))
    }

    /// Updates the maximum batch size (floored at 1 — a zero would
    /// deadlock batch formation, so it is a misuse the knob absorbs
    /// rather than propagates).
    pub fn set_max_batch(&self, max_batch: usize) {
        self.max_batch.store(max_batch.max(1) as u64, Ordering::Relaxed);
    }

    /// Updates the coalescing deadline.
    pub fn set_deadline(&self, deadline: Duration) {
        let nanos = deadline.as_nanos().min(u64::MAX as u128) as u64;
        self.deadline_nanos.store(nanos, Ordering::Relaxed);
    }
}

/// Deadline/size-bounded, priority-aware coalescing over an mpsc ingress
/// channel.
pub struct Batcher<T, K, F, G>
where
    K: Eq,
    F: Fn(&T) -> K,
    G: Fn(&T) -> Instant,
{
    ingress: Receiver<T>,
    stash: VecDeque<T>,
    /// Reused partition buffer for the stash absorption pass.
    scratch: VecDeque<T>,
    knobs: Arc<BatchKnobs>,
    key_of: F,
    enqueued_at: G,
    /// QoS class ordinal (lower = higher priority); constant 0 without
    /// [`Batcher::with_qos`].
    class_of: Box<dyn Fn(&T) -> usize + Send>,
    /// Per-request deadline; `None` without [`Batcher::with_qos`].
    deadline_of: DeadlineFn<T>,
    /// Receives items shed for blowing their deadline while queued.
    on_expired: Box<dyn FnMut(T) + Send>,
    /// Whether another consumer sits idle, releasing a forming batch
    /// early; constant `false` without [`Batcher::with_idle_peer`].
    idle_peer: Box<dyn Fn() -> bool + Send>,
    /// Formation record of the most recent [`Batcher::next_batch`].
    last_formation: Option<BatchFormation>,
}

/// How the most recent batch formed — the tracing hook for batch-level
/// span events ([`Batcher::last_formation`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchFormation {
    /// When the batch's seed item was selected (coalescing began).
    pub seeded_at: Instant,
    /// When the batch was released to a worker.
    pub released_at: Instant,
    /// Requests in the released batch.
    pub size: usize,
    /// QoS class ordinal of the seed item.
    pub seed_class: usize,
}

impl<T, K, F, G> std::fmt::Debug for Batcher<T, K, F, G>
where
    K: Eq,
    F: Fn(&T) -> K,
    G: Fn(&T) -> Instant,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher")
            .field("stash", &self.stash.len())
            .field("max_batch", &self.knobs.max_batch())
            .field("deadline", &self.knobs.deadline())
            .finish_non_exhaustive()
    }
}

impl<T, K, F, G> Batcher<T, K, F, G>
where
    T: 'static,
    K: Eq,
    F: Fn(&T) -> K,
    G: Fn(&T) -> Instant,
{
    /// Creates a batcher reading from `ingress`. `key_of` decides which
    /// items may share a batch; `enqueued_at` reports when an item entered
    /// the system, anchoring its batch's coalescing deadline. Without
    /// [`Batcher::with_qos`] every item is one class with no request
    /// deadline — the pre-QoS behavior.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(
        ingress: Receiver<T>,
        max_batch: usize,
        deadline: Duration,
        key_of: F,
        enqueued_at: G,
    ) -> Self {
        assert!(max_batch > 0, "max_batch must be at least 1");
        Self::with_knobs(ingress, Arc::new(BatchKnobs::new(max_batch, deadline)), key_of, enqueued_at)
    }

    /// Creates a batcher whose size/deadline policy lives in a shared
    /// [`BatchKnobs`] block — the handle a controller uses to retune the
    /// running batcher ([`BatchKnobs::set_max_batch`] /
    /// [`BatchKnobs::set_deadline`] take effect at the next batch).
    pub fn with_knobs(ingress: Receiver<T>, knobs: Arc<BatchKnobs>, key_of: F, enqueued_at: G) -> Self {
        Batcher {
            ingress,
            stash: VecDeque::new(),
            scratch: VecDeque::new(),
            knobs,
            key_of,
            enqueued_at,
            class_of: Box::new(|_| 0),
            deadline_of: Box::new(|_| None),
            on_expired: Box::new(drop),
            idle_peer: Box::new(|| false),
            last_formation: None,
        }
    }

    /// The shared knob block this batcher samples at each formation.
    pub fn knobs(&self) -> &Arc<BatchKnobs> {
        &self.knobs
    }

    /// How the batch most recently returned by [`Batcher::next_batch`]
    /// formed (`None` before the first batch). Read it immediately after
    /// `next_batch` — the next call overwrites it.
    pub fn last_formation(&self) -> Option<BatchFormation> {
        self.last_formation
    }

    /// Makes batch formation QoS-aware: `class_of` orders seeds (lower
    /// ordinal wins, FIFO within a class), `deadline_of` reports an
    /// item's request deadline, and `on_expired` receives items shed for
    /// blowing that deadline while still queued.
    #[must_use]
    pub fn with_qos(
        mut self,
        class_of: impl Fn(&T) -> usize + Send + 'static,
        deadline_of: impl Fn(&T) -> Option<Instant> + Send + 'static,
        on_expired: impl FnMut(T) + Send + 'static,
    ) -> Self {
        self.class_of = Box::new(class_of);
        self.deadline_of = Box::new(deadline_of);
        self.on_expired = Box::new(on_expired);
        self
    }

    /// Makes batch formation work-conserving: `idle_peer` reports whether
    /// another consumer could run a batch right now, and while it does a
    /// forming batch is released as soon as the already-waiting same-key
    /// items are absorbed, instead of holding its window open for
    /// stragglers. It is asked after absorption and after each arrival
    /// inside the window — never polled — so a peer turning idle
    /// mid-window releases the batch at the next arrival or when the
    /// window closes.
    #[must_use]
    pub fn with_idle_peer(mut self, idle_peer: impl Fn() -> bool + Send + 'static) -> Self {
        self.idle_peer = Box::new(idle_peer);
        self
    }

    /// Moves every item already sitting in the channel into the stash
    /// (arrival order preserved). Returns `false` once the channel is
    /// closed.
    fn drain_channel(&mut self) -> bool {
        loop {
            match self.ingress.try_recv() {
                Ok(item) => self.stash.push_back(item),
                Err(TryRecvError::Empty) => return true,
                Err(TryRecvError::Disconnected) => return false,
            }
        }
    }

    /// Sheds every stashed item whose request deadline has already
    /// passed — a single stable partition pass, like batch absorption.
    fn shed_expired(&mut self, now: Instant) {
        if self.stash.iter().all(|item| (self.deadline_of)(item).is_none_or(|d| d > now)) {
            return;
        }
        debug_assert!(self.scratch.is_empty());
        while let Some(item) = self.stash.pop_front() {
            match (self.deadline_of)(&item) {
                Some(d) if d <= now => (self.on_expired)(item),
                _ => self.scratch.push_back(item),
            }
        }
        std::mem::swap(&mut self.stash, &mut self.scratch);
    }

    /// Blocks for the next batch of same-key items, or `None` once the
    /// ingress channel is closed and the stash is drained.
    pub fn next_batch(&mut self) -> Option<Vec<T>> {
        // Gather all pending work, shedding blown-deadline items first:
        // they must neither seed nor ride in a batch.
        let open = loop {
            let open = self.drain_channel();
            self.shed_expired(Instant::now());
            if !self.stash.is_empty() {
                break open;
            }
            if !open {
                return None;
            }
            match self.ingress.recv() {
                Ok(item) => self.stash.push_back(item),
                Err(_) => return None,
            }
        };

        // Sample the knob block once per formation, once there is work to
        // form a batch from: a controller update mid-formation must not
        // mix policies within one batch, and one made while this consumer
        // waited on an empty queue applies to the batch it then forms.
        let max_batch = self.knobs.max_batch();
        let deadline = self.knobs.deadline();

        // Seed with the best (class, enqueue) pending item: strict
        // priority across classes, oldest first within one.
        let seed_idx = self
            .stash
            .iter()
            .enumerate()
            .min_by_key(|(_, item)| ((self.class_of)(item), (self.enqueued_at)(item)))
            .map(|(i, _)| i)
            .expect("stash is non-empty");
        let first = self.stash.remove(seed_idx).expect("index in bounds");
        let seeded_at = Instant::now();
        let seed_class = (self.class_of)(&first);
        let key = (self.key_of)(&first);
        // The seed is the batch's oldest same-key member, so anchoring the
        // window at its enqueue time bounds every member's hold to one
        // coalescing deadline; a tighter request deadline closes the
        // window even sooner (never hold a batch past the seed's SLO).
        let mut window_closes = (self.enqueued_at)(&first) + deadline;
        if let Some(d) = (self.deadline_of)(&first) {
            window_closes = window_closes.min(d);
        }
        let mut batch = vec![first];

        // Absorb same-key items already stashed, oldest first: one stable
        // partition pass. (The seed's removal above plus this pass keep
        // both the batch and the remaining stash in arrival order; the old
        // `VecDeque::remove(i)`-in-a-scan formulation was O(n²) when many
        // keys interleave under load.)
        debug_assert!(self.scratch.is_empty());
        while let Some(item) = self.stash.pop_front() {
            if batch.len() < max_batch && (self.key_of)(&item) == key {
                batch.push(item);
            } else {
                self.scratch.push_back(item);
            }
        }
        std::mem::swap(&mut self.stash, &mut self.scratch);

        // Keep the window open for stragglers until the batch fills, the
        // window closes (possibly already past), or a peer is idle to run
        // the next batch.
        let mut open = open;
        while open && batch.len() < max_batch && !(self.idle_peer)() {
            let now = Instant::now();
            if now >= window_closes {
                break;
            }
            match self.ingress.recv_timeout(window_closes - now) {
                Ok(item) if (self.key_of)(&item) == key => batch.push(item),
                Ok(item) => self.stash.push_back(item),
                // A timeout may fire marginally early; loop back and let
                // the clock check decide whether the window really closed.
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => open = false,
            }
        }
        self.last_formation = Some(BatchFormation {
            seeded_at,
            released_at: Instant::now(),
            size: batch.len(),
            seed_class,
        });
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, Receiver};

    /// A test item: batch key, payload id, enqueue timestamp, QoS class,
    /// optional request deadline.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Item {
        key: u32,
        id: u32,
        at: Instant,
        class: usize,
        expires: Option<Instant>,
    }

    fn item(key: u32, id: u32) -> Item {
        Item { key, id, at: Instant::now(), class: 0, expires: None }
    }

    fn classed(key: u32, id: u32, class: usize) -> Item {
        Item { class, ..item(key, id) }
    }

    type TestBatcher = Batcher<Item, u32, fn(&Item) -> u32, fn(&Item) -> Instant>;

    fn batcher(rx: Receiver<Item>, max_batch: usize, deadline: Duration) -> TestBatcher {
        Batcher::new(rx, max_batch, deadline, |i| i.key, |i| i.at)
    }

    fn qos_batcher(
        rx: Receiver<Item>,
        max_batch: usize,
        deadline: Duration,
        expired: std::sync::mpsc::Sender<Item>,
    ) -> TestBatcher {
        batcher(rx, max_batch, deadline).with_qos(
            |i| i.class,
            |i| i.expires,
            move |i| {
                let _ = expired.send(i);
            },
        )
    }

    fn ids(batch: &[Item]) -> Vec<u32> {
        batch.iter().map(|i| i.id).collect()
    }

    #[test]
    fn coalesces_up_to_max_batch() {
        let (tx, rx) = mpsc::channel();
        for i in 0..10 {
            tx.send(item(1, i)).unwrap();
        }
        drop(tx);
        let mut b = batcher(rx, 4, Duration::from_millis(1));
        assert_eq!(b.next_batch().unwrap().len(), 4);
        assert_eq!(b.next_batch().unwrap().len(), 4);
        assert_eq!(b.next_batch().unwrap().len(), 2);
        assert!(b.next_batch().is_none());
    }

    #[test]
    fn separates_keys_and_preserves_arrival_order() {
        let (tx, rx) = mpsc::channel();
        for (k, i) in [(1, 0), (2, 1), (1, 2), (2, 3), (2, 4)] {
            tx.send(item(k, i)).unwrap();
        }
        drop(tx);
        let mut b = batcher(rx, 8, Duration::from_millis(1));
        assert_eq!(ids(&b.next_batch().unwrap()), vec![0, 2]);
        assert_eq!(ids(&b.next_batch().unwrap()), vec![1, 3, 4]);
        assert!(b.next_batch().is_none());
    }

    /// Regression (ISSUE 6): stash absorption used `VecDeque::remove(i)`
    /// inside a scan — O(n²) when many keys interleave under load, and a
    /// correctness hazard if the scan's index bookkeeping ever drifted.
    /// The single partition pass must preserve arrival order within every
    /// key and across the remaining stash, at any interleaving scale.
    #[test]
    fn many_interleaved_keys_batch_in_order_with_stable_stash() {
        const KEYS: u32 = 12;
        const PER_KEY: u32 = 40;
        let (tx, rx) = mpsc::channel();
        // Round-robin interleaving: worst case for the old quadratic scan
        // (every absorbed item forces a shift of the whole tail).
        for round in 0..PER_KEY {
            for key in 0..KEYS {
                tx.send(item(key, round * KEYS + key)).unwrap();
            }
        }
        drop(tx);
        let mut b = batcher(rx, PER_KEY as usize, Duration::from_millis(1));
        let mut seen_keys = Vec::new();
        while let Some(batch) = b.next_batch() {
            let key = batch[0].key;
            seen_keys.push(key);
            assert_eq!(batch.len(), PER_KEY as usize, "key {key} coalesced fully");
            assert!(batch.iter().all(|i| i.key == key), "single-key batch");
            let got = ids(&batch);
            let expect: Vec<u32> = (0..PER_KEY).map(|r| r * KEYS + key).collect();
            assert_eq!(got, expect, "key {key} lost arrival order");
        }
        // Seeds drain keys oldest-first, so batches come out 0..KEYS.
        assert_eq!(seen_keys, (0..KEYS).collect::<Vec<_>>(), "stash order drifted");
    }

    #[test]
    fn deadline_releases_partial_batch() {
        let deadline = Duration::from_millis(100);
        let start = Instant::now();
        let (tx, rx) = mpsc::channel();
        tx.send(item(1, 0)).unwrap();
        let mut b = batcher(rx, 64, deadline);
        let batch = b.next_batch().unwrap();
        assert_eq!(batch.len(), 1, "deadline must release an unfilled batch");
        // The window is anchored at the item's enqueue time, which is
        // after `start`; generous slack keeps slow machines green.
        assert!(start.elapsed() >= deadline, "window closed early: {:?}", start.elapsed());
        drop(tx);
        assert!(b.next_batch().is_none());
    }

    #[test]
    fn late_arrivals_join_open_window() {
        let (tx, rx) = mpsc::channel();
        tx.send(item(7, 0)).unwrap();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            tx.send(item(7, 1)).unwrap();
            tx.send(item(7, 2)).unwrap();
        });
        // A filled batch releases immediately, so the generous deadline
        // only bounds the worst case on a stalled machine.
        let mut b = batcher(rx, 3, Duration::from_secs(5));
        let batch = b.next_batch().unwrap();
        handle.join().unwrap();
        assert_eq!(ids(&batch), vec![0, 1, 2]);
    }

    /// Regression: a request that waited in the stash must not pay its
    /// stash wait *plus* a fresh full deadline — worst-case hold is one
    /// deadline from enqueue (plus the time the previous batch's key held
    /// the window, which the anchor absorbs).
    #[test]
    fn stash_wait_counts_against_the_deadline() {
        let deadline = Duration::from_millis(150);
        let (tx, rx) = mpsc::channel();
        let enqueue = Instant::now();
        tx.send(item(1, 0)).unwrap();
        tx.send(item(2, 1)).unwrap();
        let mut b = batcher(rx, 64, deadline);

        // First batch seeds key 1 and stashes the key-2 item, holding the
        // window open the full deadline.
        assert_eq!(ids(&b.next_batch().unwrap()), vec![0]);
        assert!(enqueue.elapsed() >= deadline);

        // The stashed key-2 item's window (anchored at its enqueue) has
        // already closed, so it must release immediately — with the old
        // window-open anchor it would wait a second full deadline.
        let reseed = Instant::now();
        assert_eq!(ids(&b.next_batch().unwrap()), vec![1]);
        let second_wait = reseed.elapsed();
        assert!(
            second_wait < deadline / 2,
            "stashed item paid a fresh deadline: {second_wait:?}"
        );
        let total_hold = enqueue.elapsed();
        assert!(
            total_hold < deadline * 2,
            "worst-case hold must stay near one deadline: {total_hold:?}"
        );
        drop(tx);
        assert!(b.next_batch().is_none());
    }

    /// Priority at batch-formation time: a higher class (lower ordinal)
    /// seeds before an earlier-arrived lower class.
    #[test]
    fn higher_class_seeds_before_older_lower_class() {
        let (tx, rx) = mpsc::channel();
        tx.send(classed(1, 0, 2)).unwrap(); // batch class, arrives first
        tx.send(classed(2, 1, 0)).unwrap(); // interactive, arrives second
        tx.send(classed(1, 2, 2)).unwrap();
        tx.send(classed(2, 3, 0)).unwrap();
        drop(tx);
        let (exp_tx, _exp_rx) = mpsc::channel();
        let mut b = qos_batcher(rx, 8, Duration::from_millis(1), exp_tx);
        assert_eq!(ids(&b.next_batch().unwrap()), vec![1, 3], "interactive batch first");
        assert_eq!(ids(&b.next_batch().unwrap()), vec![0, 2], "batch class follows");
        assert!(b.next_batch().is_none());
    }

    /// Already-blown work is shed first — before it can seed or ride in a
    /// batch — and lands in `on_expired`, oldest first.
    #[test]
    fn blown_deadlines_are_shed_before_batching() {
        let (tx, rx) = mpsc::channel();
        let past = Instant::now() - Duration::from_millis(5);
        let future = Instant::now() + Duration::from_secs(30);
        tx.send(Item { expires: Some(past), ..item(1, 0) }).unwrap();
        tx.send(Item { expires: Some(future), ..item(1, 1) }).unwrap();
        tx.send(Item { expires: Some(past), ..item(2, 2) }).unwrap();
        tx.send(item(1, 3)).unwrap();
        drop(tx);
        let (exp_tx, exp_rx) = mpsc::channel();
        let mut b = qos_batcher(rx, 8, Duration::from_millis(1), exp_tx);
        assert_eq!(ids(&b.next_batch().unwrap()), vec![1, 3], "live key-1 work batches");
        let expired: Vec<u32> = exp_rx.try_iter().map(|i| i.id).collect();
        assert_eq!(expired, vec![0, 2], "blown work shed first, oldest first");
        assert!(b.next_batch().is_none(), "nothing left after sheds");
    }

    /// Every released batch leaves a formation record: seed/release
    /// ordering, exact size, and the seed's class.
    #[test]
    fn formation_record_tracks_each_batch() {
        let (tx, rx) = mpsc::channel();
        tx.send(classed(1, 0, 2)).unwrap();
        tx.send(classed(1, 1, 2)).unwrap();
        tx.send(classed(2, 2, 0)).unwrap();
        drop(tx);
        let (exp_tx, _exp_rx) = mpsc::channel();
        let mut b = qos_batcher(rx, 8, Duration::from_millis(1), exp_tx);
        assert!(b.last_formation().is_none(), "no record before the first batch");

        let before = Instant::now();
        assert_eq!(ids(&b.next_batch().unwrap()), vec![2]);
        let f = b.last_formation().expect("record set at release");
        assert_eq!(f.size, 1);
        assert_eq!(f.seed_class, 0, "interactive item seeded first");
        assert!(f.seeded_at >= before && f.released_at >= f.seeded_at);

        assert_eq!(ids(&b.next_batch().unwrap()), vec![0, 1]);
        let g = b.last_formation().expect("record overwritten per batch");
        assert_eq!(g.size, 2);
        assert_eq!(g.seed_class, 2);
        assert!(g.seeded_at >= f.released_at, "second batch seeded after the first released");
    }

    /// Regression (ISSUE 10): `max_batch` and `deadline` used to be plain
    /// fields read once at construction, so a controller retune required
    /// rebuilding the batcher (and the server around it). They now live in
    /// a shared [`BatchKnobs`] block: an update through the `Arc` must
    /// change the very next formation of the *same* batcher instance.
    #[test]
    fn knob_updates_apply_without_rebuilding_the_batcher() {
        let (tx, rx) = mpsc::channel();
        // 16 items: consumed as 4 + 8 + 1 + (3 × 1) across the knob
        // changes below — every batch finds a seed without blocking.
        for i in 0..16 {
            tx.send(item(1, i)).unwrap();
        }
        let knobs = Arc::new(BatchKnobs::new(4, Duration::from_millis(1)));
        let mut b: TestBatcher = Batcher::with_knobs(rx, Arc::clone(&knobs), |i| i.key, |i| i.at);
        assert_eq!(b.next_batch().unwrap().len(), 4, "initial max_batch honored");

        // Widen mid-stream: the same batcher must release an 8-wide batch.
        knobs.set_max_batch(8);
        assert_eq!(b.next_batch().unwrap().len(), 8, "widened max_batch applies live");

        // Narrow to 1 and stretch the deadline: batch size must shrink
        // immediately, and the long window must not hold a filled batch.
        knobs.set_max_batch(1);
        knobs.set_deadline(Duration::from_secs(30));
        let released = Instant::now();
        assert_eq!(b.next_batch().unwrap().len(), 1, "narrowed max_batch applies live");
        assert!(released.elapsed() < Duration::from_secs(5), "filled batch released promptly");

        // A zero max_batch is floored at 1 instead of deadlocking.
        knobs.set_max_batch(0);
        assert_eq!(knobs.max_batch(), 1);
        knobs.set_deadline(Duration::from_millis(1));
        drop(tx);
        for _ in 0..3 {
            assert_eq!(b.next_batch().unwrap().len(), 1);
        }
        assert!(b.next_batch().is_none());
    }

    /// A retune made while the consumer waits on an empty queue applies
    /// to the batch it then forms, not the one after: the knob block is
    /// sampled once there is work to form from.
    #[test]
    fn a_knob_update_reaches_a_consumer_parked_on_an_empty_queue() {
        let (tx, rx) = mpsc::channel();
        let knobs = Arc::new(BatchKnobs::new(1, Duration::from_secs(600)));
        let mut b: TestBatcher = Batcher::with_knobs(rx, Arc::clone(&knobs), |i| i.key, |i| i.at);
        let former = std::thread::spawn(move || b.next_batch().map(|batch| ids(&batch)));
        // Let the former park on the empty queue; the assertion below
        // holds however the two threads interleave.
        std::thread::sleep(Duration::from_millis(50));
        knobs.set_max_batch(3);
        for i in 0..3 {
            tx.send(item(1, i)).unwrap();
        }
        assert_eq!(former.join().unwrap(), Some(vec![0, 1, 2]), "the widened cap applies");
    }

    /// With a peer idle, a seed does not wait out its window: the batch
    /// leaves with every same-key item already waiting (up to
    /// `max_batch`), at once, however long the window.
    #[test]
    fn an_idle_peer_releases_the_batch_once_waiting_work_is_absorbed() {
        let (tx, rx) = mpsc::channel();
        for (k, i) in [(1, 0), (2, 1), (1, 2), (1, 3), (1, 4)] {
            tx.send(item(k, i)).unwrap();
        }
        let mut b = batcher(rx, 3, Duration::from_secs(600)).with_idle_peer(|| true);
        assert_eq!(ids(&b.next_batch().unwrap()), vec![0, 2, 3], "absorbed up to max_batch");
        assert_eq!(ids(&b.next_batch().unwrap()), vec![1], "a lone seed leaves alone");
        assert_eq!(ids(&b.next_batch().unwrap()), vec![4]);
        // The channel is still open: only the hook released those windows.
        drop(tx);
        assert!(b.next_batch().is_none());
    }

    /// With every peer busy the window holds: the batch leaves only once
    /// it fills, here from an arrival after the formation began.
    #[test]
    fn busy_peers_hold_the_window_until_the_batch_fills() {
        let (tx, rx) = mpsc::channel();
        tx.send(item(1, 0)).unwrap();
        let (asked_tx, asked) = mpsc::channel();
        let mut b = batcher(rx, 2, Duration::from_secs(600)).with_idle_peer(move || {
            let _ = asked_tx.send(());
            false
        });
        let former = std::thread::spawn(move || b.next_batch().map(|batch| ids(&batch)));
        // The hook is asked right after absorption: the window is open.
        asked.recv().unwrap();
        tx.send(item(1, 1)).unwrap();
        assert_eq!(former.join().unwrap(), Some(vec![0, 1]), "released full, not early");
    }

    /// A peer turning idle mid-window releases the batch at the next
    /// arrival, with that arrival in it.
    #[test]
    fn a_peer_turning_idle_mid_window_releases_at_the_next_arrival() {
        use std::sync::atomic::AtomicBool;
        let (tx, rx) = mpsc::channel();
        tx.send(item(1, 0)).unwrap();
        let idle = Arc::new(AtomicBool::new(false));
        let (asked_tx, asked) = mpsc::channel();
        let hook = Arc::clone(&idle);
        // Read, then report the read: the flip lands after the first answer.
        let mut b = batcher(rx, 8, Duration::from_secs(600)).with_idle_peer(move || {
            let idle = hook.load(Ordering::SeqCst);
            let _ = asked_tx.send(());
            idle
        });
        let former = std::thread::spawn(move || b.next_batch().map(|batch| ids(&batch)));
        asked.recv().unwrap();
        idle.store(true, Ordering::SeqCst);
        tx.send(item(1, 1)).unwrap();
        assert_eq!(former.join().unwrap(), Some(vec![0, 1]), "a batch of two, long before 600 s");
    }

    /// A seed whose request deadline is tighter than the coalescing window
    /// releases at the deadline, not the window.
    #[test]
    fn request_deadline_tightens_coalescing_window() {
        let (tx, rx) = mpsc::channel();
        let start = Instant::now();
        tx.send(Item { expires: Some(start + Duration::from_millis(20)), ..item(1, 0) })
            .unwrap();
        let (exp_tx, _exp_rx) = mpsc::channel();
        // Coalescing window of 5 s would hold a partial batch far past the
        // request's 20 ms SLO.
        let mut b = qos_batcher(rx, 64, Duration::from_secs(5), exp_tx);
        let batch = b.next_batch().unwrap();
        let held = start.elapsed();
        assert_eq!(ids(&batch), vec![0]);
        assert!(held < Duration::from_secs(1), "window must close at the deadline: {held:?}");
        drop(tx);
        assert!(b.next_batch().is_none());
    }
}
