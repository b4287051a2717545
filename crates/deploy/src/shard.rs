//! Multi-array sharding: carving one [`crate::DeployedNetwork`] across
//! several simulated systolic arrays and serving the pieces concurrently.
//!
//! A shard is a row band: every packed conv layer's output rows split
//! across arrays, each array owning a contiguous band of the layer's
//! prepared tiles ([`cc_systolic::RowBand`]). The bands of one layer run
//! concurrently (scoped threads, one kernel scratch each) and every lane
//! hands back *finished* rows: as in the paper's Fig. 6, each array is
//! followed by its own ReLU + quantization block, so a lane runs its
//! band's kernel and then the conv's epilogue over that band's rows,
//! writing its row range of every image's output map. Per-channel
//! quantization stats are precomputed, so the maps are bit-identical to
//! the unsharded engine's by construction and nothing of a conv is left
//! to one thread behind the gather. The `i32` accumulator plane is still
//! gathered, by pure row concatenation, for stats, oracles and
//! [`cc_systolic::RunScratch::outputs`].
//!
//! The shards share one prepared op list (the network's `Arc` internals);
//! nothing is re-prepared per shard. A [`BandSet`] is the executor's shard
//! environment, passed to [`crate::DeployedNetwork::run_batch_banded`] /
//! [`crate::DeployedNetwork::run_stage_banded`]. It reports both the
//! *merged* counters ([`BandSet::merged_stats`]) — bit-identical to the
//! unsharded run's, cycles included (the gather substitutes the
//! sequential-equivalent cycle count) — and the concurrent *makespan*
//! ([`BandSet::makespan_cycles`]), which is what shrinks as shards are
//! added.
//!
//! A [`BandSet`] runs every packed conv through one method whatever the
//! configuration: one shard is a one-band plan, no fleet is every lane at
//! the network's own array geometry, and no fault injector is every band
//! action `Run` (the health scoring then sees only clean outcomes and the
//! retry loop exits on its first pass).
//!
//! Row-band fleets need not be homogeneous: [`BandSet::with_fleet`] gives
//! each shard its own [`ArrayGeometry`]. Banding is then weighted by each
//! target's cycle model (a weaker array gets fewer rows), per-shard stats
//! attribute cycles under each shard's own geometry, and the merged view
//! still reports the base array's sequential equivalent — fleet-invariant
//! by construction.

use crate::engine::Epilogue;
use crate::qmap::QMap;
use cc_systolic::tiled::{BandAction, BandLane, BandOutcome, PreparedPacked, TiledScheduler};
use cc_systolic::{ArrayGeometry, RowBand, RunScratch, SimStats};
use cc_tensor::quant::QuantMatrix;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cached shard plans a [`BandSet`] retains (one per conv layer it has
/// seen; bounded so a set rotating across many models cannot grow without
/// limit).
const MAX_CACHED_PLANS: usize = 32;

/// Conv-scatter records a traced [`BandSet`] retains between drains
/// ([`BandSet::take_conv_log`]); enough for every conv of a deep model's
/// batch, bounded so an undrained set cannot grow without limit.
const MAX_CONV_LOG: usize = 1024;

/// One traced conv scatter: when the gather finished and how long each
/// shard lane was occupied by this conv alone — its band's kernel and
/// the epilogue over the band's rows. Serving-side tracing turns these
/// into per-lane span events (the span is reconstructed as
/// `ended - lane_busy[lane] .. ended` — lanes run concurrently, so each
/// lane's busy time ends at the gather).
#[derive(Clone, Debug)]
pub struct ConvTrace {
    /// When the scatter's gather completed.
    pub ended: Instant,
    /// Nanoseconds each shard lane was occupied by this conv, kernel and
    /// epilogue (index = lane).
    pub lane_busy: Vec<u64>,
}

/// Decides what each shard lane does on each of its band executions — the
/// deterministic fault-injection plane. Implementations must be pure
/// functions of `(lane, run_index)` (plus their own seed) so a chaos run
/// is reproducible: `run_index` is the count of band executions the lane
/// has performed in this [`BandSet`], advancing only when the lane
/// actually runs (a quarantined lane's clock is frozen).
pub trait FaultInjector: Send + Sync + std::fmt::Debug {
    /// The action lane `lane` takes on its `run_index`-th band execution.
    fn band_action(&self, lane: usize, run_index: u64) -> BandAction;
}

/// Circuit-breaker and retry thresholds for [`BandSet`] shard health.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardHealthConfig {
    /// Errors (poisoned/dead bands) before a lane is quarantined.
    pub trip_errors: u32,
    /// Consecutive stalls before a slow lane is quarantined.
    pub trip_stalls: u32,
    /// Convs after quarantine until a half-open probe readmits the lane.
    /// A readmitted lane re-trips on its first error; a success fully
    /// clears its record.
    pub probe_after: u64,
    /// Re-runs of one conv before giving up (throwing
    /// [`BandFaultError`]).
    pub retry_budget: u32,
    /// Base backoff slept between retries (scaled by the attempt number).
    pub backoff: Duration,
}

impl Default for ShardHealthConfig {
    fn default() -> Self {
        ShardHealthConfig {
            trip_errors: 2,
            trip_stalls: 16,
            probe_after: 64,
            retry_budget: 3,
            backoff: Duration::from_micros(50),
        }
    }
}

/// One recovery incident inside a [`BandSet`], drained by the serving
/// layer ([`BandSet::take_health_events`]) for trace/telemetry export.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthEvent {
    /// A band execution on `lane` returned a wrong or missing result.
    Fault {
        /// The erroring shard lane.
        lane: usize,
    },
    /// `lane` tripped the breaker and was removed from the active set.
    Quarantine {
        /// The quarantined shard lane.
        lane: usize,
    },
    /// A half-open probe readmitted `lane` to the active set.
    Readmit {
        /// The readmitted shard lane.
        lane: usize,
    },
    /// A faulted conv was re-run (attempt number, 1-based).
    Retry {
        /// Which retry this was for the conv.
        attempt: u32,
    },
}

/// Health events a [`BandSet`] retains between drains; bounded so an
/// undrained set cannot grow without limit.
const MAX_HEALTH_EVENTS: usize = 256;

/// Panic payload thrown when one conv exhausts its fault-retry budget (or
/// its deadline) without a clean run — every active lane kept faulting.
/// The serving worker catches it ([`std::panic::catch_unwind`]) and
/// resolves the batch's tickets with a fault error instead of hanging.
#[derive(Clone, Copy, Debug)]
pub struct BandFaultError {
    /// Re-runs attempted before giving up.
    pub attempts: u32,
    /// True when the retry loop stopped early because the batch deadline
    /// passed.
    pub deadline_blown: bool,
}

impl std::fmt::Display for BandFaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "band execution still faulted after {} attempt(s){}",
            self.attempts,
            if self.deadline_blown { " (deadline passed)" } else { "" }
        )
    }
}

/// Cache key for a prepared matrix's shard plan. The pointer identifies
/// the layer (the prepared op list lives behind the network's `Arc`, so
/// it is stable while any executor holds the network); the shape *and
/// array-geometry* fields make a stale entry after address reuse
/// *harmless* rather than relying on the pointer alone — the tile grid
/// depends only on (rows, groups, array rows, array cols), so a plan
/// matching all of them is still a structurally valid banding of the new
/// matrix (worst case: transiently suboptimal balance, never wrong rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PlanKey {
    ptr: usize,
    rows: usize,
    groups: usize,
    tiles: usize,
    array_rows: usize,
    array_cols: usize,
    /// Bitmask of the active (non-quarantined) lanes the plan was banded
    /// over — quarantine re-plans are distinct cache entries, so flapping
    /// between fleet states never recomputes the partitioning DP. All
    /// ones when every lane is active (see [`BandSet::active_mask`]).
    active_mask: u64,
}

impl PlanKey {
    fn of(tiles: &PreparedPacked, active_mask: u64) -> Self {
        PlanKey {
            ptr: tiles as *const PreparedPacked as usize,
            rows: tiles.rows(),
            groups: tiles.groups(),
            tiles: tiles.num_tiles(),
            array_rows: tiles.config().rows,
            array_cols: tiles.config().cols,
            active_mask,
        }
    }
}

/// The row-band shard environment one executor owns: per-shard kernel
/// scratches (long-lived — shard `i ≥ 1` reuses `aux[i-1]` across every
/// layer and batch), per-shard busy/cycle accounting, and the merged
/// counters of everything run since the last reset. Hold one per serving
/// worker or pipeline stage and pass it to
/// [`crate::DeployedNetwork::run_batch_banded`] /
/// [`crate::DeployedNetwork::run_stage_banded`].
#[derive(Debug)]
pub struct BandSet {
    shards: usize,
    /// Per-shard array geometries of a heterogeneous fleet; `None` means
    /// every shard is the preparing config's array (the homogeneous path,
    /// planned by op count). With a fleet, plans are cost-weighted by each
    /// geometry's cycle model and per-shard stats attribute cycles under
    /// that geometry.
    fleet: Option<Vec<ArrayGeometry>>,
    aux: Vec<RunScratch>,
    shard_totals: Vec<SimStats>,
    merged: SimStats,
    busy_nanos: Vec<u64>,
    /// LRU shard-plan cache (most recently used last): the plan depends
    /// only on the static (prepared matrix, shard count) pair, so the
    /// per-conv partitioning DP runs once per layer, not once per batch.
    plans: Vec<(PlanKey, Vec<RowBand>)>,
    /// When set, every conv scatter appends a [`ConvTrace`] (bounded at
    /// [`MAX_CONV_LOG`]) for serving-side span export. Off by default:
    /// the untraced path pays one branch per conv.
    tracing: bool,
    conv_log: Vec<ConvTrace>,
    /// The fault-injection plane; `None` (the default) means every band
    /// action is [`BandAction::Run`].
    injector: Option<Arc<dyn FaultInjector>>,
    health_cfg: ShardHealthConfig,
    /// Active (non-quarantined) lane ids, ascending; band `i` of a plan
    /// runs on lane `active[i]`.
    active: Vec<usize>,
    quarantined: Vec<bool>,
    lane_errors: Vec<u32>,
    lane_stalls: Vec<u32>,
    /// Band executions each lane has performed (the injector's clock).
    run_counts: Vec<u64>,
    /// Convs this set has run (the probe clock).
    convs: u64,
    /// Conv count at which each quarantined lane's half-open probe fires.
    probe_at: Vec<u64>,
    events: Vec<HealthEvent>,
    /// Batch deadline the retry loop respects (set per batch by the
    /// serving worker; `None` = retry on budget alone).
    retry_deadline: Option<Instant>,
    /// Reused per-conv lane records handed to the scatter: `lanes[i]` is
    /// band `i` of the current attempt, running on lane `active[i]`.
    lanes: Vec<BandLane>,
}

impl BandSet {
    /// A shard set of `shards` simulated arrays. One array is not a
    /// separate path: every conv then runs as a single full band on the
    /// calling thread, with the same stats accounting.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        BandSet {
            shards,
            fleet: None,
            aux: (1..shards).map(|_| RunScratch::new()).collect(),
            shard_totals: vec![SimStats::default(); shards],
            merged: SimStats::default(),
            busy_nanos: vec![0; shards],
            plans: Vec::new(),
            tracing: false,
            conv_log: Vec::new(),
            injector: None,
            health_cfg: ShardHealthConfig::default(),
            active: (0..shards).collect(),
            quarantined: vec![false; shards],
            lane_errors: vec![0; shards],
            lane_stalls: vec![0; shards],
            run_counts: vec![0; shards],
            convs: 0,
            probe_at: vec![0; shards],
            events: Vec::new(),
            retry_deadline: None,
            lanes: Vec::new(),
        }
    }

    /// A shard set over a heterogeneous fleet: shard `i` simulates an
    /// array of `fleet[i]`'s geometry. Plans weight each band by its
    /// target geometry's cycle model and per-shard stats attribute cycles
    /// under that geometry; the gathered outputs stay bit-identical to the
    /// unsharded run regardless of the mix.
    ///
    /// # Panics
    ///
    /// Panics if `fleet` is empty.
    pub fn with_fleet(fleet: Vec<ArrayGeometry>) -> Self {
        assert!(!fleet.is_empty(), "need at least one shard");
        let mut set = Self::new(fleet.len());
        set.fleet = Some(fleet);
        set
    }

    /// The per-shard geometries, when this set models a heterogeneous
    /// fleet.
    pub fn fleet(&self) -> Option<&[ArrayGeometry]> {
        self.fleet.as_deref()
    }

    /// Turns per-conv trace logging on or off. Turning it off discards
    /// any undrained log entries.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if !on {
            self.conv_log.clear();
        }
    }

    /// Drains the per-conv trace log accumulated since the last call
    /// (empty unless [`BandSet::set_tracing`] is on).
    pub fn take_conv_log(&mut self) -> Vec<ConvTrace> {
        std::mem::take(&mut self.conv_log)
    }

    fn log_conv(&mut self, lane_busy: Vec<u64>) {
        if self.conv_log.len() < MAX_CONV_LOG {
            self.conv_log.push(ConvTrace { ended: Instant::now(), lane_busy });
        }
    }

    /// Number of simulated arrays in the set.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Merged counters of every conv run since the last
    /// [`BandSet::reset_stats`] — bit-identical to what the unsharded
    /// serial run would have reported (work counters sum exactly across
    /// bands; cycles use the sequential equivalent).
    pub fn merged_stats(&self) -> SimStats {
        self.merged
    }

    /// Per-shard accumulated counters since the last reset; a shard's
    /// `cycles` is the time its array spent, so the set's makespan is the
    /// maximum over shards.
    pub fn shard_stats(&self) -> &[SimStats] {
        &self.shard_totals
    }

    /// The shard totals folded as concurrently running arrays
    /// ([`SimStats::merge_concurrent`]): work counters summed, `cycles` =
    /// the set's makespan.
    pub fn concurrent_stats(&self) -> SimStats {
        let mut folded = SimStats::default();
        for s in &self.shard_totals {
            folded.merge_concurrent(s);
        }
        folded
    }

    /// The concurrent makespan in simulated cycles: the busiest shard's
    /// accumulated cycle count since the last reset.
    pub fn makespan_cycles(&self) -> u64 {
        self.concurrent_stats().cycles
    }

    /// Host nanoseconds each shard lane has been occupied — stalls,
    /// kernels and the epilogues behind them, failed attempts included —
    /// since the last [`BandSet::reset_busy`] (occupancy telemetry).
    pub fn busy_nanos(&self) -> &[u64] {
        &self.busy_nanos
    }

    /// Zeroes the per-shard and merged counters.
    pub fn reset_stats(&mut self) {
        self.shard_totals.iter_mut().for_each(|s| *s = SimStats::default());
        self.merged = SimStats::default();
    }

    /// Zeroes the per-shard busy clocks.
    pub fn reset_busy(&mut self) {
        self.busy_nanos.iter_mut().for_each(|b| *b = 0);
    }

    /// Installs (or clears) the fault-injection plane. With an injector,
    /// every conv scatter consults it per (lane, run); [`BandSet`] scores
    /// lane health from the outcomes, quarantines lanes that trip the
    /// breaker (re-planning bands over the survivors — outputs stay
    /// bit-identical by construction, only the partition changes), and
    /// re-runs faulted convs under [`ShardHealthConfig`]'s retry budget.
    /// Without one every action is [`BandAction::Run`], so the same loop
    /// sees only clean outcomes and exits on its first pass.
    ///
    /// # Panics
    ///
    /// Panics if the set has more than 64 shards (the re-plan cache keys
    /// on a lane bitmask).
    pub fn set_fault_injector(&mut self, injector: Option<Arc<dyn FaultInjector>>) {
        assert!(self.shards <= 64, "fault injection supports at most 64 shard lanes");
        self.injector = injector;
    }

    /// Replaces the breaker/retry thresholds (defaults are
    /// [`ShardHealthConfig::default`]).
    pub fn set_health_config(&mut self, cfg: ShardHealthConfig) {
        self.health_cfg = cfg;
    }

    /// Sets the deadline the retry loop respects for subsequent convs:
    /// once it passes, a still-faulted conv gives up immediately instead
    /// of burning the remaining retry budget. `None` retries on budget
    /// alone.
    pub fn set_retry_deadline(&mut self, deadline: Option<Instant>) {
        self.retry_deadline = deadline;
    }

    /// Drains the recovery incidents accumulated since the last call.
    pub fn take_health_events(&mut self) -> Vec<HealthEvent> {
        std::mem::take(&mut self.events)
    }

    /// Currently quarantined lane ids, ascending.
    pub fn quarantined_lanes(&self) -> Vec<usize> {
        (0..self.shards).filter(|&i| self.quarantined[i]).collect()
    }

    /// The active (non-quarantined) lane ids, ascending. Band `i` of the
    /// current plan runs on lane `active_lanes()[i]`.
    pub fn active_lanes(&self) -> &[usize] {
        &self.active
    }

    fn push_event(&mut self, event: HealthEvent) {
        if self.events.len() < MAX_HEALTH_EVENTS {
            self.events.push(event);
        }
    }

    /// Plan-cache key for the active set. With every lane active — always
    /// the case without an injector, at any width — the key is all ones
    /// and no lane bit is shifted; a partial set only arises from
    /// quarantine, which needs an injector and therefore ≤ 64 lanes, and
    /// its mask can never be all ones.
    fn active_mask(&self) -> u64 {
        if self.active.len() == self.shards {
            return u64::MAX;
        }
        self.active.iter().fold(0u64, |mask, &lane| mask | (1u64 << lane))
    }

    /// Marks `lane` quarantined (never the last healthy lane) and
    /// schedules its half-open probe. [`BandSet::run_conv`] drops marked
    /// lanes from the active set once the attempt's bookkeeping is done.
    fn quarantine(&mut self, lane: usize) {
        let healthy = self.active.iter().filter(|&&l| !self.quarantined[l]).count();
        if healthy <= 1 || self.quarantined[lane] {
            return;
        }
        self.quarantined[lane] = true;
        self.lane_stalls[lane] = 0;
        self.probe_at[lane] = self.convs + self.health_cfg.probe_after;
        self.push_event(HealthEvent::Quarantine { lane });
    }

    /// Readmits quarantined lanes whose probe time has arrived. A
    /// readmitted lane sits one error from re-tripping (half-open): the
    /// first clean run clears it, the first error re-quarantines it.
    fn maybe_probe(&mut self) {
        for lane in 0..self.shards {
            if self.quarantined[lane] && self.convs >= self.probe_at[lane] {
                self.quarantined[lane] = false;
                self.lane_errors[lane] = self.health_cfg.trip_errors.saturating_sub(1);
                self.active.push(lane);
                self.active.sort_unstable();
                self.push_event(HealthEvent::Readmit { lane });
            }
        }
    }

    /// Runs one prepared conv on the set: scatters it across the active
    /// arrays, each lane running its band's kernel and then `epilogue`
    /// over the band's rows — writing that row range of every map in
    /// `outs` (one per image of the batch, pre-sized) — and gathers the
    /// band accumulators into `primary`'s plane (row concatenation — the
    /// plane ends bit-identical to `run_prepared_with`). The one path for
    /// every configuration: band `i` runs on lane `active[i]` under that
    /// lane's geometry (the base array's without a fleet) and the action
    /// the injector orders for it (`Run` without an injector); a single
    /// active lane runs the whole matrix as one band, kernel and
    /// epilogue, on the calling thread.
    ///
    /// Outcomes feed the lane health scores: poisoned/dead bands count
    /// toward the breaker, tripped lanes are quarantined, the bands are
    /// re-planned over the survivors, and the conv is re-run until it
    /// completes cleanly (every row of `outs` was then finished by a
    /// successful band of that attempt's plan) or the retry budget/deadline
    /// is exhausted.
    ///
    /// # Panics
    ///
    /// Throws [`BandFaultError`] via [`std::panic::panic_any`] when every
    /// attempt faulted; callers that must not die run the batch under
    /// [`std::panic::catch_unwind`]. Internal bookkeeping is updated
    /// *before* the throw, so the set stays consistent and reusable.
    pub(crate) fn run_conv(
        &mut self,
        sched: &TiledScheduler,
        tiles: &PreparedPacked,
        d: &QuantMatrix,
        primary: &mut RunScratch,
        epilogue: &Epilogue<'_>,
        outs: &mut [QMap],
    ) {
        let injector = self.injector.clone();
        self.convs += 1;
        let mut attempt = 0u32;
        loop {
            self.maybe_probe();
            // One active lane runs the full band whatever its geometry;
            // only a real fan-out needs the partitioning DP and its cache.
            let full;
            let plan: &[RowBand] = if self.active.len() == 1 {
                full = [tiles.full_band()];
                &full
            } else {
                let idx = self.plan_index(tiles, d.cols());
                &self.plans[idx].1
            };

            // Band `i` is priced under lane `active[i]`'s geometry, so a
            // re-plan keeps per-geometry attribution.
            let mut lanes = std::mem::take(&mut self.lanes);
            lanes.clear();
            for &lane in &self.active[..plan.len()] {
                let geom = match &self.fleet {
                    Some(fleet) => fleet[lane],
                    None => sched.config().geometry(),
                };
                let mut band = BandLane::new(geom);
                if let Some(injector) = &injector {
                    band.action = injector.band_action(lane, self.run_counts[lane]);
                    self.run_counts[lane] += 1;
                }
                lanes.push(band);
            }
            // Every attempt carves `outs` along *its* plan: a re-plan
            // after quarantine moves the row ranges. One band finishes
            // the maps whole, with nothing to carve or allocate.
            let aux = &mut self.aux;
            if let [_] = plan {
                let mut whole = |band: &RowBand, words: &[i32]| epilogue.rows(band, words, outs);
                let steps = std::slice::from_mut(&mut whole);
                sched.run_bands_then(tiles, plan, d, primary, aux, &mut lanes, steps);
            } else {
                let mut steps: Vec<_> = band_rows(plan, outs)
                    .map(|mut rows| {
                        move |band: &RowBand, words: &[i32]| epilogue.rows(band, words, &mut rows)
                    })
                    .collect();
                sched.run_bands_then(tiles, plan, d, primary, aux, &mut lanes, &mut steps);
            }

            // Host time is real on every attempt, successful or not; lane
            // health is scored from what each band reported.
            let mut any_error = false;
            for (i, band) in lanes.iter().enumerate() {
                let lane = self.active[i];
                self.busy_nanos[lane] += band.busy_ns;
                match band.outcome {
                    BandOutcome::Ran => {
                        self.lane_errors[lane] = 0;
                        self.lane_stalls[lane] = 0;
                    }
                    BandOutcome::Stalled => {
                        self.lane_stalls[lane] += 1;
                        if self.lane_stalls[lane] >= self.health_cfg.trip_stalls {
                            self.quarantine(lane);
                        }
                    }
                    BandOutcome::Poisoned | BandOutcome::Dead => {
                        any_error = true;
                        self.lane_errors[lane] += 1;
                        self.push_event(HealthEvent::Fault { lane });
                        if self.lane_errors[lane] >= self.health_cfg.trip_errors {
                            self.quarantine(lane);
                        }
                    }
                }
            }

            if !any_error {
                if self.tracing {
                    let mut lane_busy = vec![0u64; self.shards];
                    for (i, band) in lanes.iter().enumerate() {
                        lane_busy[self.active[i]] = band.busy_ns;
                    }
                    self.log_conv(lane_busy);
                }
                // Band i's counters fold into lane active[i]'s totals
                // (cycles add — an array runs its bands of successive
                // layers back to back, each already priced under its own
                // geometry); only the clean attempt is recorded, so the
                // totals match the fault-free run's.
                for (i, band) in lanes.iter().enumerate() {
                    self.shard_totals[self.active[i]].merge(&band.stats);
                }
                // The merged view records the sequential-equivalent stats
                // of the *base* array, never the per-geometry band stats
                // (whose cycles and load cycles depend on the fleet), so
                // merged stats stay plan- and fleet-invariant. A
                // homogeneous one-band run's stats already are the
                // sequential stats — skip the recompute.
                let seq = if self.fleet.is_none() && lanes.len() == 1 {
                    lanes[0].stats
                } else {
                    tiles.sequential_stats(d.cols())
                };
                self.merged.merge(&seq);
            }
            // Lanes quarantined above leave the active set only here, so
            // "band i ran on lane active[i]" held for all the bookkeeping.
            let quarantined = &self.quarantined;
            self.active.retain(|&lane| !quarantined[lane]);
            self.lanes = lanes;
            if !any_error {
                return;
            }
            attempt += 1;
            self.push_event(HealthEvent::Retry { attempt });
            let deadline_blown =
                self.retry_deadline.is_some_and(|deadline| Instant::now() >= deadline);
            if attempt > self.health_cfg.retry_budget || deadline_blown {
                std::panic::panic_any(BandFaultError { attempts: attempt, deadline_blown });
            }
            std::thread::sleep(self.health_cfg.backoff * attempt);
        }
    }

    /// Index of `tiles`' cached shard plan, computing and inserting it on
    /// a miss (LRU order, most recently used last, bounded). `l` is the
    /// stream length a fleet-weighted plan is sized for; the first call's
    /// width shapes the cached plan (later widths reuse it — the balance
    /// shifts only marginally with `l`, never the correctness).
    fn plan_index(&mut self, tiles: &PreparedPacked, l: usize) -> usize {
        let key = PlanKey::of(tiles, self.active_mask());
        if let Some(i) = self.plans.iter().position(|(k, _)| *k == key) {
            let entry = self.plans.remove(i);
            self.plans.push(entry);
        } else {
            if self.plans.len() >= MAX_CACHED_PLANS {
                self.plans.remove(0);
            }
            // Bands cover the *active* lanes only — with every lane
            // healthy (the injector-free path) this is the full set.
            let plan = match &self.fleet {
                Some(fleet) => {
                    let active_fleet: Vec<ArrayGeometry> =
                        self.active.iter().map(|&lane| fleet[lane]).collect();
                    tiles.partition_row_bands_for(&active_fleet, l)
                }
                None => tiles.partition_row_bands(self.active.len()),
            };
            self.plans.push((key, plan));
        }
        self.plans.len() - 1
    }
}

/// Carves every map along `plan`: item `i` holds band `i`'s output rows
/// of each map, in batch order — disjoint slices, so each band's lane can
/// fill its own while the others fill theirs.
fn band_rows<'a>(
    plan: &'a [RowBand],
    outs: &'a mut [QMap],
) -> impl Iterator<Item = Vec<&'a mut [i8]>> {
    let plane = outs.first().map_or(0, QMap::plane);
    let mut rest: Vec<&mut [i8]> = outs.iter_mut().map(QMap::as_mut).collect();
    plan.iter().map(move |band| {
        rest.iter_mut()
            .map(|tail| {
                let (rows, below) = std::mem::take(tail).split_at_mut(band.rows().len() * plane);
                *tail = below;
                rows
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::identity_groups;
    use crate::{ActivationScratch, DeployedNetwork};
    use cc_dataset::SyntheticSpec;
    use cc_nn::models::{lenet5_shift, resnet20_shift, ModelConfig};
    use cc_systolic::array::ArrayConfig;
    use cc_tensor::quant::AccumWidth;
    use cc_tensor::Tensor;

    fn small_array() -> ArrayConfig {
        // A deliberately small array so even tiny test networks span
        // several tile row-groups per conv (rows ≥ 4 bands).
        ArrayConfig::new(4, 8, AccumWidth::Bits32)
    }

    fn lenet_fixture() -> (DeployedNetwork, Vec<Tensor>) {
        let (train, test) =
            SyntheticSpec::mnist_like().with_size(8, 8).with_samples(48, 6).generate(51);
        let net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
        let deployed =
            DeployedNetwork::build_with_array(&net, &identity_groups(&net), &train, small_array());
        let images = (0..test.len()).map(|i| test.image(i).clone()).collect();
        (deployed, images)
    }

    /// One batch through `set` from zeroed counters, on a fresh scratch.
    fn run_banded(
        deployed: &DeployedNetwork,
        images: &[Tensor],
        set: &mut BandSet,
    ) -> Vec<Vec<f32>> {
        set.reset_stats();
        deployed.run_batch_banded(&deployed.scheduler(), images, &mut ActivationScratch::new(), set)
    }

    #[test]
    fn sharded_lenet_matches_unsharded_at_every_width() {
        let (deployed, images) = lenet_fixture();
        let serial = deployed.run_batch(&images);
        let mut merged_reference: Option<SimStats> = None;
        for shards in 1..=4 {
            let mut set = BandSet::new(shards);
            let logits = run_banded(&deployed, &images, &mut set);
            assert_eq!(logits, serial, "{shards} shards diverged");
            // The merged counters are plan-invariant: every width
            // reassembles the same unsharded work, cycles included.
            match &merged_reference {
                None => merged_reference = Some(set.merged_stats()),
                Some(reference) => assert_eq!(
                    &set.merged_stats(),
                    reference,
                    "{shards} shards merged stats diverged"
                ),
            }
            assert!(
                set.makespan_cycles() <= set.merged_stats().cycles,
                "makespan cannot exceed the sequential run"
            );
            assert!(set.makespan_cycles() > 0, "conv work must land somewhere");
        }
    }

    #[test]
    fn sharded_resnet_handles_residual_bodies() {
        let (train, test) =
            SyntheticSpec::cifar_like().with_size(8, 8).with_samples(48, 4).generate(52);
        let net = resnet20_shift(&ModelConfig::tiny(3, 8, 8, 10));
        let deployed =
            DeployedNetwork::build_with_array(&net, &identity_groups(&net), &train, small_array());
        let images: Vec<Tensor> = (0..test.len()).map(|i| test.image(i).clone()).collect();
        let serial = deployed.run_batch(&images);
        let logits = run_banded(&deployed, &images, &mut BandSet::new(3));
        assert_eq!(logits, serial, "row bands diverged on residuals");
    }

    #[test]
    fn row_band_makespan_shrinks_with_shards() {
        let (deployed, images) = lenet_fixture();
        let makespan = |shards| {
            let mut set = BandSet::new(shards);
            run_banded(&deployed, &images, &mut set);
            set.makespan_cycles()
        };
        let m1 = makespan(1);
        let m4 = makespan(4);
        assert!(m4 < m1, "four arrays must beat one on simulated cycles: {m4} vs {m1}");
    }

    /// Three lanes, and the one-lane set every `cc-serve` worker runs by
    /// default: the lanes fill maps drawn from the pool before the
    /// scatter, so a warm scratch still serves every buffer.
    #[test]
    fn sharded_scratch_reuse_is_stable_and_warm() {
        let (deployed, images) = lenet_fixture();
        let sched = deployed.scheduler();
        for shards in [1, 3] {
            let mut set = BandSet::new(shards);
            let mut scratch = ActivationScratch::new();
            let first = deployed.run_batch_banded(&sched, &images, &mut scratch, &mut set);
            // Warm-up round two, then assert the pools stop growing.
            deployed.run_batch_banded(&sched, &images, &mut scratch, &mut set);
            let warm_bufs = scratch.buffer_allocations();
            let warm_shells = scratch.shell_allocations();
            for round in 0..3 {
                let logits = deployed.run_batch_banded(&sched, &images, &mut scratch, &mut set);
                assert_eq!(logits, first, "scratch reuse diverged on round {round}");
            }
            assert_eq!(
                scratch.buffer_allocations(),
                warm_bufs,
                "steady-state {shards}-shard run allocated activation buffers"
            );
            assert_eq!(
                scratch.shell_allocations(),
                warm_shells,
                "steady-state {shards}-shard run allocated batch shells"
            );
        }
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn zero_shards_rejected() {
        BandSet::new(0);
    }

    /// Regression: a set wider than 64 lanes used to die in debug builds
    /// ("attempt to shift left with overflow") computing the plan-cache
    /// lane mask, even with no injector installed — the ≤ 64 limit is
    /// only meant to hold under fault injection. Without an injector
    /// every lane is active, so the wide set must just work and stay
    /// bit-identical to the unsharded run.
    #[test]
    fn wide_injector_free_set_matches_unsharded() {
        let (deployed, images) = lenet_fixture();
        let sched = deployed.scheduler();
        let mut reference = BandSet::new(1);
        let serial = deployed.run_batch_banded(
            &sched,
            &images,
            &mut ActivationScratch::new(),
            &mut reference,
        );
        let mut wide = BandSet::new(65);
        let logits =
            deployed.run_batch_banded(&sched, &images, &mut ActivationScratch::new(), &mut wide);
        assert_eq!(logits, serial, "65-lane set diverged from the unsharded run");
        assert_eq!(wide.merged_stats(), reference.merged_stats());
        assert_eq!(wide.active_lanes().len(), 65);
    }

    /// An injector that always answers `Run` is the degenerate fault
    /// plane: it must be indistinguishable from no injector at all — same
    /// logits, same merged and per-shard stats, same conv-log shape — at
    /// every width, because both go through the one `run_conv`.
    #[test]
    fn always_run_injector_is_indistinguishable_from_none() {
        #[derive(Debug)]
        struct AlwaysRun;
        impl FaultInjector for AlwaysRun {
            fn band_action(&self, _lane: usize, _run_index: u64) -> BandAction {
                BandAction::Run
            }
        }

        let (deployed, images) = lenet_fixture();
        let sched = deployed.scheduler();
        let serial = deployed.run_batch(&images);
        for shards in 1..=3 {
            let run = |injector: Option<Arc<dyn FaultInjector>>| {
                let mut set = BandSet::new(shards);
                set.set_fault_injector(injector);
                set.set_tracing(true);
                let logits = deployed.run_batch_banded(
                    &sched,
                    &images,
                    &mut ActivationScratch::new(),
                    &mut set,
                );
                let log_shape: Vec<usize> =
                    set.take_conv_log().iter().map(|conv| conv.lane_busy.len()).collect();
                assert!(set.take_health_events().is_empty(), "clean runs raise no incidents");
                (logits, set.merged_stats(), set.shard_stats().to_vec(), log_shape)
            };
            let plain = run(None);
            let injected = run(Some(Arc::new(AlwaysRun)));
            assert_eq!(plain.0, serial, "{shards} shards diverged from the unsharded run");
            assert_eq!(injected, plain, "an all-Run injector changed a {shards}-shard run");
            // One log entry per conv, each `shards` lanes wide.
            assert!(!plain.3.is_empty());
            assert!(plain.3.iter().all(|&lanes| lanes == shards));
        }
    }

    /// Heterogeneous fleets must stay bit-identical to the unsharded run
    /// and to every homogeneous plan — merged stats included, which are
    /// fleet-invariant by construction.
    #[test]
    fn hetero_fleet_matches_unsharded_with_invariant_merged_stats() {
        let (deployed, images) = lenet_fixture();
        let serial = deployed.run_batch(&images);
        let mut uniform = BandSet::new(1);
        run_banded(&deployed, &images, &mut uniform);
        let reference_merged = uniform.merged_stats();
        let fleets = [
            vec![ArrayGeometry::new(4, 8), ArrayGeometry::new(2, 4)],
            vec![ArrayGeometry::new(4, 8), ArrayGeometry::new(2, 8), ArrayGeometry::new(2, 4)],
            vec![ArrayGeometry::new(2, 2)],
        ];
        for fleet in fleets {
            let mut set = BandSet::with_fleet(fleet.clone());
            assert_eq!(set.fleet(), Some(&fleet[..]));
            let logits = run_banded(&deployed, &images, &mut set);
            assert_eq!(logits, serial, "fleet {fleet:?} diverged");
            assert_eq!(
                set.merged_stats(),
                reference_merged,
                "merged stats must be fleet-invariant for {fleet:?}"
            );
        }
    }

    /// Regression test for per-geometry cycle attribution: shard totals
    /// must price each shard's bands under *its own* geometry (the old
    /// accounting priced every shard with the base cycle model), and the
    /// weighted planner must use the mix to beat the weak array alone.
    #[test]
    fn fleet_shard_totals_attribute_cycles_per_geometry() {
        let (deployed, images) = lenet_fixture();
        let weak = ArrayGeometry::new(2, 4);
        let makespan = |mut set: BandSet| {
            run_banded(&deployed, &images, &mut set);
            set.makespan_cycles()
        };

        // Everything on one weak array: the baseline a mixed fleet must beat.
        let weak_makespan = makespan(BandSet::with_fleet(vec![weak]));

        let mut mixed = BandSet::with_fleet(vec![ArrayGeometry::new(4, 8), weak]);
        run_banded(&deployed, &images, &mut mixed);
        let per_shard = mixed.shard_stats();
        assert_eq!(per_shard.len(), 2);
        assert!(per_shard.iter().all(|s| s.cycles > 0), "both geometries must be priced");
        // The makespan is the concurrent fold of per-geometry totals...
        assert_eq!(mixed.makespan_cycles(), per_shard.iter().map(|s| s.cycles).max().unwrap());
        // ...and the weighted plan beats running everything on the weak
        // array (the homogeneous-cost planner had no way to know).
        assert!(
            mixed.makespan_cycles() < weak_makespan,
            "mixed fleet {} must beat the weak array alone {}",
            mixed.makespan_cycles(),
            weak_makespan
        );
        // Direct attribution check: one weak shard runs the very same
        // bands as one base shard (the full matrix), so the old
        // shared-cycle-cost accounting would price them identically — the
        // weak geometry must cost strictly more.
        let base_makespan = makespan(BandSet::new(1));
        assert!(
            weak_makespan > base_makespan,
            "a 2x4 array must be priced above the 4x8 base on identical bands: \
             {weak_makespan} vs {base_makespan}"
        );
    }
}
