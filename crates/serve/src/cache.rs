//! The response memo-cache: a bounded, sharded map from `(network
//! identity, quantized-input digest)` to output logits.
//!
//! The paper's premise is packing redundant zeros out of the systolic
//! array; the serving layer applies the same idea one level up by packing
//! out *redundant requests*. The integer pipeline is deterministic
//! downstream of the quantized input map, so a repeated input's logits
//! are already known — serving them from memory replaces an entire array
//! pass with a table lookup, and the hit is bit-identical to a fresh
//! [`cc_deploy::DeployedNetwork::run_batch`] *by construction*: the key
//! is taken after quantization (sub-quantum float jitter lands on the
//! same key) and the stored quantized bytes are compared in full on every
//! probe, so a 64-bit digest collision reads as a miss, never as wrong
//! logits.
//!
//! Capacity is bounded in both entries and bytes with LRU eviction
//! (lazy-stamped recency queue, O(1) amortized). The map is sharded by
//! digest so concurrent submitters on different inputs do not serialize
//! on one lock.
//!
//! ## Admission: second sighting, once a shard is past its first few entries
//!
//! An LRU that stores every miss is emptied by a scan: inputs nobody
//! sends twice push out the ones that repeat, and the faster the array
//! runs the faster they do it. So the server does not
//! [`ResponseCache::insert`] a completed miss, it
//! [`ResponseCache::offer`]s it. Each shard keeps a *doorkeeper* — a
//! fixed, direct-mapped table of 64-bit key tags, sized once from the
//! shard's entry budget — and an offer whose key is neither resident nor
//! in that table only leaves its tag there (counted in
//! [`CacheStats::deferred`]); the offer that finds its tag stores the
//! entry. A never-repeated input costs eight bytes for as long as its
//! slot is not overwritten, a repeated one misses twice instead of once,
//! and residency tracks the re-referenced set at any request rate —
//! [`CacheStats::evictions`] therefore counts what it should: entries
//! dropped because the inputs that *do* repeat outgrew the budget. Two
//! keys that share a tag only make the second one enter a sighting
//! early; what a probe returns is still decided by the byte compare.
//!
//! The doorkeeper is not asked while a shard is *open*: it holds fewer
//! than [`OPEN_ENTRIES`] entries and the store would evict nothing. A
//! cold cache over a small working set therefore warms in one pass, as
//! it did before there was a doorkeeper (a second cold miss is a second
//! array pass and a second wait in the batcher, which on a short run
//! costs more than the cache saves), and what a scan can park in a cache
//! nobody is competing for is capped at that many entries a shard.
//!
//! The [`FlightTable`] extends the same dedup one step earlier in time:
//! when N requests for the same `(identity, digest)` miss *concurrently*
//! (the first hasn't finished computing, so the cache can't serve the
//! rest yet), only the first occupies a batch slot; the others attach as
//! followers and are fanned the leader's result — N−1 array passes packed
//! out, counted as coalesced hits.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Capacity bounds for a [`ResponseCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum cached responses across all shards. 0 disables the cache.
    pub max_entries: usize,
    /// Maximum resident bytes across all shards (quantized input bytes +
    /// logit bytes per entry). 0 = bounded by entries only.
    pub max_bytes: usize,
    /// Lock shards (rounded up to a power of two, min 1). More shards =
    /// less contention between concurrent submitters.
    pub shards: usize,
}

impl CacheConfig {
    /// A disabled cache (the [`crate::ServeConfig`] default: serving
    /// behavior is exactly the pre-cache runtime).
    pub fn disabled() -> Self {
        CacheConfig { max_entries: 0, max_bytes: 0, shards: 1 }
    }

    /// A cache bounded to `max_entries` responses and `max_bytes`
    /// resident bytes, with a default shard count.
    pub fn bounded(max_entries: usize, max_bytes: usize) -> Self {
        CacheConfig { max_entries, max_bytes, shards: 8 }
    }

    /// Whether the cache stores anything at all.
    pub fn enabled(&self) -> bool {
        self.max_entries > 0
    }

    /// Overrides the shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// One cached response: the exact quantized input (verified on every
/// probe) and the logits a fresh run would produce for it.
#[derive(Debug)]
struct Entry {
    qdata: Box<[i8]>,
    logits: Box<[f32]>,
    /// Recency stamp; matches the newest queue node for this key.
    stamp: u64,
}

impl Entry {
    /// Resident cost: payload bytes plus a flat per-entry overhead for
    /// the map/queue bookkeeping.
    fn cost(&self) -> usize {
        Self::cost_of(&self.qdata, &self.logits)
    }

    /// What an entry holding these payloads would cost, before it exists.
    fn cost_of(qdata: &[i8], logits: &[f32]) -> usize {
        qdata.len() + logits.len() * 4 + 64
    }
}

#[derive(Debug)]
struct Shard {
    map: HashMap<(usize, u64), Entry>,
    /// Lazy LRU: `(key, stamp)` nodes, oldest first. A node whose stamp
    /// no longer matches its entry is stale (the entry was touched again
    /// later) and is skipped at eviction time.
    recency: VecDeque<((usize, u64), u64)>,
    tick: u64,
    bytes: usize,
    /// The doorkeeper: [`door_tag`]s of keys offered but not stored,
    /// direct-mapped by the tag's top bits. Never grows; a newer key
    /// simply overwrites the slot's older one.
    door: Box<[u64]>,
}

/// Fewest doorkeeper slots a shard gets: a one-entry cache must still
/// tell two alternating keys apart.
const MIN_DOOR_SLOTS: usize = 64;

/// Entries a shard stores on first sighting before its doorkeeper is
/// asked (see the module docs). Small on purpose: it is also the most
/// one-time inputs a shard will ever hold without having evicted for
/// them.
pub const OPEN_ENTRIES: usize = 16;

/// The doorkeeper's name for a key. For one identity the odd multiply is
/// a bijection of the digest, so two inputs of one network share a tag
/// only if they share a digest; its top bits — the table index — depend
/// on every digest bit, the low ones that picked the shard included.
fn door_tag(identity: usize, digest: u64) -> u64 {
    (digest ^ (identity as u64).rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Shard {
    fn new(door_slots: usize) -> Self {
        Shard {
            map: HashMap::new(),
            recency: VecDeque::new(),
            tick: 0,
            bytes: 0,
            door: vec![0; door_slots].into_boxed_slice(),
        }
    }

    /// Whether an offer of `key` may be stored: the shard is `open`, the
    /// key is resident (a refresh), or the doorkeeper saw it before.
    /// Otherwise the doorkeeper remembers it for next time.
    fn admits(&mut self, key: (usize, u64), open: bool) -> bool {
        if open || self.map.contains_key(&key) {
            return true;
        }
        let tag = door_tag(key.0, key.1);
        let shift = u64::BITS - self.door.len().trailing_zeros();
        std::mem::replace(&mut self.door[(tag >> shift) as usize], tag) == tag
    }

    fn touch(&mut self, key: (usize, u64)) {
        self.tick += 1;
        let stamp = self.tick;
        if let Some(entry) = self.map.get_mut(&key) {
            entry.stamp = stamp;
        }
        self.recency.push_back((key, stamp));
    }

    /// Evicts LRU entries until both budgets hold; returns how many
    /// entries and bytes were dropped.
    fn enforce(&mut self, max_entries: usize, max_bytes: usize) -> (u64, u64) {
        let (mut evicted, mut freed) = (0u64, 0u64);
        while self.map.len() > max_entries || (max_bytes > 0 && self.bytes > max_bytes) {
            let Some((key, stamp)) = self.recency.pop_front() else { break };
            let is_current = self.map.get(&key).is_some_and(|e| e.stamp == stamp);
            if is_current {
                let entry = self.map.remove(&key).expect("checked above");
                self.bytes -= entry.cost();
                freed += entry.cost() as u64;
                evicted += 1;
            }
        }
        // The lazy queue accumulates stale nodes as hot keys are
        // re-stamped; compact when it outgrows the map so queue memory
        // stays proportional to the entry bound.
        if self.recency.len() > self.map.len() * 4 + 16 {
            let map = &self.map;
            self.recency.retain(|(key, stamp)| map.get(key).is_some_and(|e| e.stamp == *stamp));
        }
        (evicted, freed)
    }
}

/// Sharded, doubly-bounded (entries and bytes), LRU response memo-cache.
#[derive(Debug)]
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    mask: u64,
    entries_per_shard: usize,
    bytes_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced_hits: AtomicU64,
    deferred: AtomicU64,
    evictions: AtomicU64,
    entries: AtomicU64,
    bytes: AtomicU64,
}

/// Point-in-time cache counters and gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes served from the cache.
    pub hits: u64,
    /// Probes that fell through to the array.
    pub misses: u64,
    /// Concurrent misses that attached to an in-flight computation and
    /// were fanned its result instead of running the array again.
    pub coalesced_hits: u64,
    /// Offers the doorkeeper held back: first sightings, not stored.
    pub deferred: u64,
    /// Entries dropped by LRU eviction: the inputs that repeat no longer
    /// fit the budget (past a shard's first [`OPEN_ENTRIES`], one-time
    /// inputs are never stored, so never evict).
    pub evictions: u64,
    /// Resident entries.
    pub entries: u64,
    /// Resident bytes (payload + per-entry overhead).
    pub bytes: u64,
}

/// Tracks in-flight cache misses so concurrent duplicates coalesce: the
/// first miss for an `(identity, digest)` becomes the *leader* and runs
/// the array; later misses attach as *followers* and receive the leader's
/// result when it resolves. `W` is whatever the caller needs to deliver a
/// result to a follower (the server stores reply handles).
///
/// Registration order is what keeps the table free of orphans: a leader
/// registers its flight *before* its request becomes visible to the
/// batcher, so the batch's completion — which `resolve`s the flight — can
/// never run ahead of the registration and leave a leaderless entry that
/// later misses would follow forever. A leader that admission control
/// then sheds `resolve`s its own flight on the spot, failing any follower
/// that attached in between. The one remaining window — two concurrent
/// first misses of one digest — just lets the twin that lost `lead` run
/// redundantly, which is exactly the pre-table behavior: coalescing is
/// strictly a reduction, never a correctness dependency.
#[derive(Debug)]
pub struct FlightTable<W> {
    flights: Mutex<HashMap<(usize, u64), Vec<W>>>,
}

impl<W> Default for FlightTable<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> FlightTable<W> {
    /// An empty table.
    pub fn new() -> Self {
        FlightTable { flights: Mutex::new(HashMap::new()) }
    }

    /// Registers a flight for `(identity, digest)` with this caller as
    /// leader. Returns `false` if a flight already existed (a racing
    /// leader won; both run, both results are bit-identical).
    pub fn lead(&self, identity: usize, digest: u64) -> bool {
        use std::collections::hash_map::Entry as MapEntry;
        let mut flights = self.flights.lock().expect("flight table poisoned");
        match flights.entry((identity, digest)) {
            MapEntry::Occupied(_) => false,
            MapEntry::Vacant(slot) => {
                slot.insert(Vec::new());
                true
            }
        }
    }

    /// Attaches `waiter` to an existing flight. Returns the waiter back
    /// if no flight is registered — the caller must then take the leader
    /// path itself.
    pub fn follow(&self, identity: usize, digest: u64, waiter: W) -> Result<(), W> {
        let mut flights = self.flights.lock().expect("flight table poisoned");
        match flights.get_mut(&(identity, digest)) {
            Some(waiters) => {
                waiters.push(waiter);
                Ok(())
            }
            None => Err(waiter),
        }
    }

    /// Removes the flight for `(identity, digest)` and returns its
    /// followers for fan-out (empty if no flight or no followers). Called
    /// on every terminal outcome of the leader — completion, failure,
    /// deadline shed, or admission shed — so followers always resolve.
    pub fn resolve(&self, identity: usize, digest: u64) -> Vec<W> {
        let mut flights = self.flights.lock().expect("flight table poisoned");
        flights.remove(&(identity, digest)).unwrap_or_default()
    }

    /// Flights currently registered (tests/diagnostics).
    pub fn in_flight(&self) -> usize {
        self.flights.lock().expect("flight table poisoned").len()
    }
}

impl ResponseCache {
    /// Builds a cache for `cfg`. The byte/entry budgets are split evenly
    /// across shards (each shard holds at least one entry).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is disabled (`max_entries == 0`) — the server
    /// represents "no cache" as `Option::None`, not as an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.enabled(), "ResponseCache requires max_entries > 0");
        let shards = cfg.shards.clamp(1, cfg.max_entries).next_power_of_two();
        let entries_per_shard = cfg.max_entries.div_ceil(shards).max(1);
        let door_slots = entries_per_shard.next_power_of_two().max(MIN_DOOR_SLOTS);
        ResponseCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new(door_slots))).collect(),
            mask: shards as u64 - 1,
            entries_per_shard,
            bytes_per_shard: cfg.max_bytes.div_ceil(shards),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced_hits: AtomicU64::new(0),
            deferred: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    fn shard(&self, digest: u64) -> &Mutex<Shard> {
        // The digest is FNV-mixed; its low bits index well.
        &self.shards[(digest & self.mask) as usize]
    }

    /// Looks up the logits for `(identity, digest)`, verifying the stored
    /// quantized input equals `qdata` byte-for-byte (a digest collision
    /// must read as a miss, never as wrong logits). A hit refreshes the
    /// entry's recency.
    pub fn lookup(&self, identity: usize, digest: u64, qdata: &[i8]) -> Option<Vec<f32>> {
        let key = (identity, digest);
        let mut shard = self.shard(digest).lock().expect("cache shard poisoned");
        let hit = match shard.map.get(&key) {
            Some(entry) if *entry.qdata == *qdata => Some(entry.logits.to_vec()),
            _ => None,
        };
        match hit {
            Some(logits) => {
                shard.touch(key);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(logits)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Offers the response of a completed miss: stored (as by
    /// [`ResponseCache::insert`]) if its shard is still open, the key is
    /// resident, or this is the key's second sighting; otherwise only
    /// remembered by the shard's doorkeeper — see the module docs.
    /// Nothing is allocated for an offer that is held back.
    pub fn offer(&self, identity: usize, digest: u64, qdata: &[i8], logits: &[f32]) {
        self.store(identity, digest, qdata, logits, true);
    }

    /// Stores (or refreshes) the response for `(identity, digest)`
    /// unconditionally — the raw store behind [`ResponseCache::offer`] —
    /// evicting LRU entries as needed to hold both budgets. An input too
    /// large for the byte budget is skipped outright rather than churning
    /// the whole cache through eviction.
    pub fn insert(&self, identity: usize, digest: u64, qdata: &[i8], logits: &[f32]) {
        self.store(identity, digest, qdata, logits, false);
    }

    /// Both of the above in one critical section: the doorkeeper's
    /// verdict (when `gated`) and the store it allows.
    fn store(&self, identity: usize, digest: u64, qdata: &[i8], logits: &[f32], gated: bool) {
        let key = (identity, digest);
        let cost = Entry::cost_of(qdata, logits);
        if self.bytes_per_shard > 0 && cost > self.bytes_per_shard {
            return;
        }
        let mut shard = self.shard(digest).lock().expect("cache shard poisoned");
        if gated {
            // Open: few entries yet, and room for this one in both budgets.
            let open = shard.map.len() < self.entries_per_shard.min(OPEN_ENTRIES)
                && (self.bytes_per_shard == 0 || shard.bytes + cost <= self.bytes_per_shard);
            if !shard.admits(key, open) {
                drop(shard);
                self.deferred.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let entry = Entry { qdata: qdata.into(), logits: logits.into(), stamp: 0 };
        let replaced = match shard.map.insert(key, entry) {
            Some(old) => {
                // Racing workers computed the same miss twice (or a
                // collision overwrote a stale neighbor); replace, keeping
                // bytes honest.
                shard.bytes -= old.cost();
                Some(old.cost() as u64)
            }
            None => None,
        };
        shard.bytes += cost;
        shard.touch(key);
        let (evicted, freed) = shard.enforce(self.entries_per_shard, self.bytes_per_shard);
        drop(shard);
        // Gauges track the shard-local deltas of this insert, so they stay
        // exact without sweeping every shard's lock on the hot path.
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            self.entries.fetch_sub(evicted, Ordering::Relaxed);
        }
        if replaced.is_none() {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        let added = cost as u64;
        let removed = freed + replaced.unwrap_or(0);
        if added >= removed {
            self.bytes.fetch_add(added - removed, Ordering::Relaxed);
        } else {
            self.bytes.fetch_sub(removed - added, Ordering::Relaxed);
        }
    }

    /// Records `n` concurrent misses served by fanning out an in-flight
    /// leader's result instead of re-running the array.
    pub fn note_coalesced(&self, n: u64) {
        if n > 0 {
            self.coalesced_hits.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Point-in-time counters and gauges.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced_hits: self.coalesced_hits.load(Ordering::Relaxed),
            deferred: self.deferred.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Total entry capacity (per-shard budget × shards).
    pub fn capacity_entries(&self) -> usize {
        self.entries_per_shard * self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qd(v: i8, n: usize) -> Vec<i8> {
        vec![v; n]
    }

    #[test]
    fn hit_returns_exact_logits_and_counts() {
        let cache = ResponseCache::new(CacheConfig::bounded(8, 0));
        let data = qd(3, 16);
        assert!(cache.lookup(1, 42, &data).is_none());
        cache.insert(1, 42, &data, &[1.0, -2.5]);
        assert_eq!(cache.lookup(1, 42, &data), Some(vec![1.0, -2.5]));
        // Same digest, different identity → different key.
        assert!(cache.lookup(2, 42, &data).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn digest_collision_reads_as_miss_never_wrong_logits() {
        let cache = ResponseCache::new(CacheConfig::bounded(8, 0));
        cache.insert(1, 42, &qd(3, 16), &[1.0]);
        // A colliding digest with different quantized bytes must miss.
        assert!(cache.lookup(1, 42, &qd(4, 16)).is_none());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn entry_bound_evicts_lru_first() {
        let cache = ResponseCache::new(CacheConfig { max_entries: 2, max_bytes: 0, shards: 1 });
        cache.insert(1, 1, &qd(1, 4), &[1.0]);
        cache.insert(1, 2, &qd(2, 4), &[2.0]);
        // Touch key 1 so key 2 is the LRU victim.
        assert!(cache.lookup(1, 1, &qd(1, 4)).is_some());
        cache.insert(1, 3, &qd(3, 4), &[3.0]);
        assert!(cache.lookup(1, 1, &qd(1, 4)).is_some(), "recently used entry survived");
        assert!(cache.lookup(1, 2, &qd(2, 4)).is_none(), "LRU entry evicted");
        assert!(cache.lookup(1, 3, &qd(3, 4)).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn byte_bound_evicts_and_oversized_entries_are_skipped() {
        // Each entry costs 64 overhead + 32 data + 4 logits = 100 bytes.
        let cache = ResponseCache::new(CacheConfig { max_entries: 64, max_bytes: 250, shards: 1 });
        for d in 0..4u64 {
            cache.insert(1, d, &qd(d as i8, 32), &[d as f32]);
        }
        let s = cache.stats();
        assert!(s.bytes <= 250, "byte budget held: {}", s.bytes);
        assert_eq!(s.entries, 2, "250 bytes holds two 100-byte entries");
        assert_eq!(s.evictions, 2);
        // An entry bigger than the whole budget never enters.
        cache.insert(1, 99, &qd(1, 4096), &[0.0]);
        assert!(cache.lookup(1, 99, &qd(1, 4096)).is_none());
        assert_eq!(cache.stats().entries, 2, "oversized insert skipped");
    }

    #[test]
    fn reinsert_same_key_keeps_bytes_honest() {
        let cache = ResponseCache::new(CacheConfig { max_entries: 4, max_bytes: 0, shards: 1 });
        cache.insert(1, 7, &qd(1, 8), &[1.0]);
        let before = cache.stats().bytes;
        for _ in 0..10 {
            cache.insert(1, 7, &qd(1, 8), &[1.0]);
        }
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, before, "re-inserting one key must not inflate the byte gauge");
    }

    #[test]
    fn recency_queue_stays_bounded_under_hot_key_churn() {
        let cache = ResponseCache::new(CacheConfig { max_entries: 2, max_bytes: 0, shards: 1 });
        cache.insert(1, 1, &qd(1, 4), &[1.0]);
        cache.insert(1, 2, &qd(2, 4), &[2.0]);
        for _ in 0..10_000 {
            assert!(cache.lookup(1, 1, &qd(1, 4)).is_some());
        }
        // Trigger compaction via the insert path and bound the queue.
        cache.insert(1, 2, &qd(2, 4), &[2.0]);
        let shard = cache.shards[0].lock().unwrap();
        assert!(
            shard.recency.len() <= shard.map.len() * 4 + 17,
            "lazy queue must compact: {} nodes for {} entries",
            shard.recency.len(),
            shard.map.len()
        );
    }

    /// The miss-coalescing protocol: first miss leads, concurrent
    /// duplicates follow, resolve fans the followers out exactly once.
    #[test]
    fn flight_table_coalesces_concurrent_misses() {
        let table: FlightTable<u32> = FlightTable::new();
        assert!(table.lead(1, 42), "first miss becomes leader");
        assert!(!table.lead(1, 42), "racing leader loses registration");
        assert_eq!(table.follow(1, 42, 7), Ok(()));
        assert_eq!(table.follow(1, 42, 8), Ok(()));
        // A different key has no flight: the waiter comes back.
        assert_eq!(table.follow(2, 42, 9), Err(9));
        assert_eq!(table.in_flight(), 1);
        assert_eq!(table.resolve(1, 42), vec![7, 8]);
        // Resolve is terminal: the flight is gone, later probes miss it.
        assert_eq!(table.resolve(1, 42), Vec::<u32>::new());
        assert_eq!(table.follow(1, 42, 10), Err(10));
        assert_eq!(table.in_flight(), 0);
    }

    #[test]
    fn coalesced_hits_counter_flows_into_stats() {
        let cache = ResponseCache::new(CacheConfig::bounded(8, 0));
        cache.note_coalesced(0);
        assert_eq!(cache.stats().coalesced_hits, 0);
        cache.note_coalesced(3);
        cache.note_coalesced(2);
        assert_eq!(cache.stats().coalesced_hits, 5);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two_and_respects_entries() {
        let cache = ResponseCache::new(CacheConfig { max_entries: 100, max_bytes: 0, shards: 6 });
        assert_eq!(cache.shards.len(), 8);
        assert!(cache.capacity_entries() >= 100);
        // One entry total still works with many requested shards.
        let tiny = ResponseCache::new(CacheConfig { max_entries: 1, max_bytes: 0, shards: 8 });
        assert_eq!(tiny.shards.len(), 1);
    }

    /// A cache none of whose shards is open any more: each already holds
    /// [`OPEN_ENTRIES`] fillers (or its whole budget, if that is less),
    /// so every offer of a new key meets the doorkeeper.
    fn past_open(max_entries: usize, shards: usize) -> ResponseCache {
        let cache = ResponseCache::new(CacheConfig { max_entries, max_bytes: 0, shards });
        let fillers = cache.entries_per_shard.min(OPEN_ENTRIES) * cache.shards.len();
        for d in 0..fillers as u64 {
            // Consecutive digests visit the shards in turn.
            cache.insert(0, 0xF111_0000 + d, &[], &[]);
        }
        assert_eq!(cache.stats().entries, fillers as u64);
        cache
    }

    #[test]
    fn an_open_shard_stores_on_first_sighting_and_then_closes() {
        let cache = ResponseCache::new(CacheConfig { max_entries: 64, max_bytes: 0, shards: 1 });
        for d in 0..OPEN_ENTRIES as u64 {
            cache.offer(1, d, &qd(d as i8, 4), &[d as f32]);
            assert_eq!(cache.lookup(1, d, &qd(d as i8, 4)), Some(vec![d as f32]), "key {d}");
        }
        cache.offer(1, 99, &qd(99, 4), &[99.0]);
        assert!(cache.lookup(1, 99, &qd(99, 4)).is_none(), "the shard has closed");
        let s = cache.stats();
        assert_eq!((s.entries, s.deferred, s.evictions), (OPEN_ENTRIES as u64, 1, 0));

        // A shard with no room is not open however few entries it holds:
        // 100-byte entries, a budget of two.
        let cache = ResponseCache::new(CacheConfig { max_entries: 64, max_bytes: 250, shards: 1 });
        for d in 0..4u64 {
            cache.offer(1, d, &qd(d as i8, 32), &[d as f32]);
        }
        let s = cache.stats();
        assert_eq!((s.entries, s.deferred, s.evictions), (2, 2, 0));
    }

    #[test]
    fn second_offer_admits_and_third_probe_hits_with_exact_logits() {
        let cache = past_open(64, 1);
        let before = cache.stats();
        let data = qd(3, 16);
        assert!(cache.lookup(1, 42, &data).is_none());
        cache.offer(1, 42, &data, &[1.0, -2.5]);
        let s = cache.stats();
        assert_eq!(
            (s.entries, s.bytes, s.deferred),
            (before.entries, before.bytes, 1),
            "a first sighting stores nothing"
        );
        assert!(cache.lookup(1, 42, &data).is_none(), "and is not served");
        cache.offer(1, 42, &data, &[1.0, -2.5]);
        assert_eq!(cache.lookup(1, 42, &data), Some(vec![1.0, -2.5]));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.deferred), (1, 2, 1));
        assert_eq!((s.entries, s.evictions), (before.entries + 1, 0));
        // A resident key is refreshed, not deferred again.
        cache.offer(1, 42, &data, &[1.0, -2.5]);
        let again = cache.stats();
        assert_eq!((again.entries, again.bytes, again.deferred), (s.entries, s.bytes, 1));
    }

    /// The scan an LRU cannot survive: one-time keys ten times the entry
    /// budget, with the repeated set — one member of which turns up only
    /// mid-scan — probed all the way through. Past the few that find a
    /// shard open nothing one-time is stored, so nothing is ever evicted.
    #[test]
    fn one_time_flood_stores_next_to_nothing_and_evicts_nothing() {
        let cache = ResponseCache::new(CacheConfig { max_entries: 256, max_bytes: 0, shards: 4 });
        let hot = |k: u64| (k, qd(k as i8, 8), [k as f32]);
        for k in 0..8 {
            let (digest, data, logits) = hot(k);
            cache.offer(1, digest, &data, &logits);
        }
        for i in 0..2560u64 {
            let digest = 1000 + i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            cache.offer(1, digest, &qd(-1, 8), &[0.0]);
            let (digest, data, logits) = hot(i % 8);
            assert_eq!(cache.lookup(1, digest, &data), Some(logits.to_vec()), "hot key {digest}");
            // The latecomer: held back once, stored on its second offer.
            let (digest, data, logits) = hot(8);
            if i >= 1280 {
                let stored = (i > 1281).then(|| logits.to_vec());
                assert_eq!(cache.lookup(1, digest, &data), stored, "late key at {i}");
                cache.offer(1, digest, &data, &logits);
            }
        }
        let s = cache.stats();
        let parked = (4 * OPEN_ENTRIES - 8) as u64;
        assert_eq!((s.entries, s.evictions), (8 + parked + 1, 0), "{s:?}");
        assert_eq!(s.deferred, 2560 - parked + 1, "{s:?}");
    }

    #[test]
    fn door_tags_differ_by_identity() {
        let cache = past_open(64, 1);
        let before = cache.stats().entries;
        let data = qd(3, 16);
        cache.offer(1, 42, &data, &[1.0]);
        // The same digest under another network is another first sighting.
        cache.offer(2, 42, &data, &[2.0]);
        assert_eq!(cache.stats().entries, before);
        cache.offer(2, 42, &data, &[2.0]);
        assert_eq!(cache.lookup(2, 42, &data), Some(vec![2.0]));
        assert!(cache.lookup(1, 42, &data).is_none());
        assert_ne!(door_tag(1, 42), door_tag(2, 42));
    }

    #[test]
    fn tag_collision_only_admits_early_never_wrong_logits() {
        let cache = past_open(64, 1);
        let before = cache.stats().entries;
        // Two inputs with one (identity, digest): one tag.
        cache.offer(1, 42, &qd(3, 16), &[1.0]);
        cache.offer(1, 42, &qd(4, 16), &[2.0]);
        assert_eq!(
            cache.stats().entries,
            before + 1,
            "the second input rode in on the first one's tag"
        );
        assert_eq!(cache.lookup(1, 42, &qd(4, 16)), Some(vec![2.0]));
        assert!(cache.lookup(1, 42, &qd(3, 16)).is_none(), "the byte compare still decides");
    }

    #[test]
    fn tiny_caches_and_more_shards_than_entries_still_admit() {
        for (max_entries, shards) in [(1, 1), (1, 8), (2, 1), (2, 8), (3, 16)] {
            // Full from the start, so a new key has to displace one.
            let cache = past_open(max_entries, shards);
            for digest in [10u64, 11, 12, 13] {
                let data = qd(digest as i8, 4);
                cache.offer(1, digest, &data, &[digest as f32]);
                assert!(cache.lookup(1, digest, &data).is_none(), "{max_entries}/{shards}");
                cache.offer(1, digest, &data, &[digest as f32]);
                assert_eq!(
                    cache.lookup(1, digest, &data),
                    Some(vec![digest as f32]),
                    "{max_entries}/{shards}"
                );
                assert!(cache.stats().entries as usize <= cache.capacity_entries());
            }
        }
    }
}
