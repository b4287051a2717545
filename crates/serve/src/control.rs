//! The self-tuning serving control plane: online profile-guided
//! autoconfiguration of a live [`Server`].
//!
//! ```text
//!   calibration ──record──▶ ProfileStore ◀──EMA refine── telemetry deltas
//!                             │ best(regime)                 ▲
//!                             ▼                              │ every tick
//!   Engine ── classify regime (hysteresis) ── decide ──▶ Controller thread
//!                                                 │ cooldown
//!                                                 ▼
//!              Server::{resize_workers, set_max_batch, set_batch_deadline,
//!                       retune_executors}           (each = trace + counter)
//! ```
//!
//! The split is deliberate: the [`Engine`] is a pure state machine —
//! observations in, [`Action`]s out, no clock, no threads — so every
//! policy property (hysteresis, cooldown, quarantine response) is unit
//! tested without a server. The [`Controller`] is the thin thread that
//! feeds it [`TelemetrySnapshot`] deltas on a fixed tick and applies its
//! actions to the live server, where each one lands as an
//! [`EventKind::Retune`](crate::trace::EventKind::Retune) instant on the
//! control track plus a `retunes` telemetry counter bump.
//!
//! **Never flaps**: a regime change must persist for
//! [`ControlConfig::hysteresis_ticks`] consecutive ticks before the
//! engine acts on it, and after any applied decision the engine holds
//! fire for [`ControlConfig::cooldown_ticks`] — oscillating load settles
//! into the steady profile instead of dragging the knobs around.
//!
//! Profiles are **measured on the box that serves**: an operator's
//! calibration sweep [`ProfileStore::record`]s each configuration it
//! tried before the controller attaches, and while saturated each
//! window of ticks folds its measured (throughput, p99) into the store by
//! exponential moving average ([`ProfileStore::observe`]), so the plan
//! tracks the machine as it runs now. Every regime's posture consults
//! the store — interactive load follows the lowest-p99 profile, steady
//! and saturated load the highest-throughput one — and under *sustained*
//! saturation the engine re-decides when refinement dethrones the running
//! config by [`ControlConfig::refine_margin`], so a stale profile gets
//! measured, corrected, and abandoned instead of anchoring the plan.

use crate::server::Server;
use crate::telemetry::TelemetrySnapshot;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------------

/// One measured serving configuration: what it was and what it did.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Profile {
    /// Worker threads.
    pub workers: usize,
    /// Batcher size cap.
    pub max_batch: usize,
    /// Pipeline stage depth (0 = auto).
    pub stages: usize,
    /// Row-band shard width.
    pub shards: usize,
    /// Measured throughput under closed-loop saturation.
    pub throughput_rps: f64,
    /// Measured p99 latency, microseconds.
    pub p99_us: f64,
}

impl Profile {
    fn key(&self) -> (usize, usize, usize, usize) {
        (self.workers, self.max_batch, self.stages, self.shards)
    }
}

/// Weight a fresh online observation carries against the stored value
/// when the two merge (exponential moving average): high enough to track
/// drift within a few ticks, low enough that one noisy tick cannot evict
/// a calibrated truth.
const EMA_ALPHA: f64 = 0.3;

/// Profiles within this fraction of the best measured throughput are
/// treated as throughput-equivalent and ranked by p99 instead. On a
/// noisy box the top few configs routinely swap places run to run;
/// without the band the engine would chase those coin flips.
const THROUGHPUT_BAND: f64 = 0.95;

/// Measured serving profiles: recorded by an on-box calibration sweep,
/// refined online from telemetry deltas.
#[derive(Clone, Debug, Default)]
pub struct ProfileStore {
    profiles: Vec<Profile>,
}

impl ProfileStore {
    /// An empty store (the engine then falls back to config bounds).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored profiles.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the store holds no profiles.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Records an authoritative measurement: the keyed entry is
    /// replaced outright. This is for deliberate profiling (e.g. an
    /// on-box calibration sweep) whose numbers should supersede whatever
    /// the store held for those knobs; incidental per-tick measurements
    /// go through [`ProfileStore::observe`]'s EMA instead.
    pub fn record(&mut self, profile: Profile) {
        match self.profiles.iter_mut().find(|p| p.key() == profile.key()) {
            Some(existing) => *existing = profile,
            None => self.profiles.push(profile),
        }
    }

    /// Folds a measured profile in: a new configuration is stored as-is,
    /// a seen one merges by EMA so the store tracks the live machine
    /// without a single noisy tick evicting measured truth.
    pub fn observe(&mut self, profile: Profile) {
        match self.profiles.iter_mut().find(|p| p.key() == profile.key()) {
            Some(existing) => {
                existing.throughput_rps = EMA_ALPHA * profile.throughput_rps
                    + (1.0 - EMA_ALPHA) * existing.throughput_rps;
                existing.p99_us =
                    EMA_ALPHA * profile.p99_us + (1.0 - EMA_ALPHA) * existing.p99_us;
            }
            None => self.profiles.push(profile),
        }
    }

    /// The throughput target: among profiles within 5 % (`THROUGHPUT_BAND`)
    /// of the highest measured throughput that fit the given bounds, the
    /// one with the lowest p99. Raw argmax would chase measurement noise
    /// between statistically-equivalent configs; inside the band,
    /// latency is the honest tiebreak.
    pub fn best_throughput(&self, max_workers: usize, max_shards: usize) -> Option<&Profile> {
        let fits = |p: &&Profile| p.workers <= max_workers && p.shards <= max_shards;
        let top = self
            .profiles
            .iter()
            .filter(fits)
            .map(|p| p.throughput_rps)
            .max_by(f64::total_cmp)?;
        self.profiles
            .iter()
            .filter(fits)
            .filter(|p| p.throughput_rps >= top * THROUGHPUT_BAND)
            .min_by(|a, b| {
                a.p99_us
                    .total_cmp(&b.p99_us)
                    .then(b.throughput_rps.total_cmp(&a.throughput_rps))
            })
    }

    /// The lowest-p99 profile whose knobs fit the given bounds (ties
    /// break toward higher throughput). This is the interactive target.
    pub fn best_latency(&self, max_workers: usize, max_shards: usize) -> Option<&Profile> {
        self.profiles
            .iter()
            .filter(|p| p.workers <= max_workers && p.shards <= max_shards)
            .min_by(|a, b| {
                a.p99_us
                    .total_cmp(&b.p99_us)
                    .then(b.throughput_rps.total_cmp(&a.throughput_rps))
            })
    }
}

// ---------------------------------------------------------------------------
// Regime classification and the decision engine
// ---------------------------------------------------------------------------

/// What the load looks like over the last tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadRegime {
    /// No traffic at all: leave the knobs alone (whatever arrives next
    /// decides the direction; retuning an idle server is pure churn).
    Idle,
    /// Trickle traffic with an empty queue: optimize latency — batch of
    /// one, minimal coalescing wait.
    Interactive,
    /// Sustained traffic, queue shallow: balanced knobs.
    Steady,
    /// Queue deep or admission shedding: optimize throughput — the best
    /// profile the store knows, or wide batching as the fallback.
    Saturated,
}

/// One tick's worth of telemetry, as deltas where rates matter. The
/// [`Controller`] derives this from successive [`TelemetrySnapshot`]s;
/// tests construct it directly.
#[derive(Clone, Copy, Debug)]
pub struct Observation {
    /// Requests submitted during the tick.
    pub submitted: u64,
    /// Requests completed during the tick.
    pub completed: u64,
    /// Requests shed (admission or deadline) during the tick.
    pub shed: u64,
    /// Queue depth at tick end.
    pub queue_depth: usize,
    /// Admitted-but-unresolved requests at tick end (queued, riding a
    /// batch, or executing). This is the real pressure gauge: a wide
    /// batch mid-execution drains the queue to zero while the box is at
    /// its busiest, and classifying on queue depth alone would read
    /// that moment as a lull.
    pub inflight: u64,
    /// Quarantined shard lanes at tick end.
    pub quarantined: u64,
    /// p99 latency at tick end, microseconds.
    pub p99_us: f64,
    /// Current worker-pool target.
    pub workers: usize,
    /// Current batcher size cap.
    pub max_batch: usize,
    /// Current executor plan.
    pub stages: usize,
    /// Current shard width.
    pub shards: usize,
}

/// A knob move the engine wants applied to the server.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Action {
    /// [`Server::resize_workers`].
    ResizeWorkers(usize),
    /// [`Server::set_max_batch`].
    SetMaxBatch(usize),
    /// [`Server::set_batch_deadline`].
    SetBatchDeadline(Duration),
    /// [`Server::retune_executors`] (stages, shards).
    RetuneExecutors(usize, usize),
}

/// Bounds, targets, and damping for the control loop.
#[derive(Clone, Debug)]
pub struct ControlConfig {
    /// Tick period for the controller thread.
    pub interval: Duration,
    /// Consecutive ticks a regime change must persist before the engine
    /// acts on it.
    pub hysteresis_ticks: u32,
    /// Ticks the engine holds fire after any applied decision.
    pub cooldown_ticks: u32,
    /// Worker-pool floor the engine will shrink to.
    pub min_workers: usize,
    /// Worker-pool ceiling the engine will grow to.
    pub max_workers: usize,
    /// Outstanding work (queued + in flight) at or past which the load
    /// counts as saturated.
    pub saturated_queue: usize,
    /// Outstanding work at or under which trickle traffic counts as
    /// interactive.
    pub interactive_queue: usize,
    /// Interactive-regime knobs: workers, batch cap, coalescing wait.
    pub interactive_workers: usize,
    /// Batch cap under interactive load (1 = no coalescing).
    pub interactive_batch: usize,
    /// Coalescing wait under interactive load.
    pub interactive_deadline: Duration,
    /// Fallback batch cap under saturation when the store has no
    /// profile to offer.
    pub saturated_batch: usize,
    /// Coalescing wait under saturation.
    pub saturated_deadline: Duration,
    /// Batch cap under steady load.
    pub steady_batch: usize,
    /// Coalescing wait under steady load.
    pub steady_deadline: Duration,
    /// Consecutive ticks with quarantined lanes before the engine
    /// shrinks shard width to the healthy count.
    pub quarantine_shrink_ticks: u32,
    /// Improvement factor (e.g. 1.15 = 15%) the store's best profile
    /// must show over the *running* config's own estimate before a
    /// sustained-saturation re-tune fires. Online refinement keeps
    /// both estimates current; the margin (plus the cooldown) is what
    /// separates correcting a stale seed from flapping on noise.
    pub refine_margin: f64,
    /// Consecutive saturated ticks on the *same* knob tuple that are
    /// pooled into one online measurement before the store absorbs it.
    /// One tick's completion count is a lumpy small integer; a window
    /// smooths it into a rate worth learning from.
    pub refine_window_ticks: u32,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            interval: Duration::from_millis(10),
            hysteresis_ticks: 2,
            cooldown_ticks: 3,
            min_workers: 1,
            max_workers: 4,
            saturated_queue: 8,
            interactive_queue: 1,
            interactive_workers: 2,
            interactive_batch: 1,
            interactive_deadline: Duration::from_micros(50),
            saturated_batch: 16,
            saturated_deadline: Duration::from_millis(2),
            steady_batch: 4,
            steady_deadline: Duration::from_micros(500),
            quarantine_shrink_ticks: 3,
            refine_margin: 1.15,
            refine_window_ticks: 4,
        }
    }
}

/// The pure decision core: feed it one [`Observation`] per tick, apply
/// the [`Action`]s it returns. Owns the [`ProfileStore`] so saturated
/// ticks refine it online.
#[derive(Debug)]
pub struct Engine {
    cfg: ControlConfig,
    store: ProfileStore,
    /// Regime the last applied decision targeted.
    applied: Option<LoadRegime>,
    /// Regime observed on the previous tick, with its streak length.
    pending: Option<(LoadRegime, u32)>,
    /// Ticks since the last applied decision (saturating).
    since_apply: u32,
    /// Consecutive ticks with at least one quarantined lane.
    quarantine_streak: u32,
    /// Accumulator for windowed online refinement.
    refine_window: Option<RefineWindow>,
}

/// A partial online measurement: the knob tuple under observation and
/// the completions/ticks pooled for it so far.
#[derive(Debug)]
struct RefineWindow {
    key: (usize, usize, usize, usize),
    completed: u64,
    ticks: u32,
}

impl Engine {
    /// An engine over `store` with `cfg`'s bounds and damping.
    pub fn new(cfg: ControlConfig, store: ProfileStore) -> Self {
        Engine {
            cfg,
            store,
            applied: None,
            pending: None,
            since_apply: u32::MAX,
            quarantine_streak: 0,
            refine_window: None,
        }
    }

    /// Classifies one tick's load on outstanding work (queued + in
    /// flight), not queue depth alone — a wide batch mid-execution
    /// empties the queue at peak load.
    pub fn classify(&self, obs: &Observation) -> LoadRegime {
        let outstanding = obs.queue_depth.max(obs.inflight as usize);
        if obs.submitted == 0 && outstanding == 0 {
            LoadRegime::Idle
        } else if obs.shed > 0 || outstanding >= self.cfg.saturated_queue {
            LoadRegime::Saturated
        } else if outstanding <= self.cfg.interactive_queue {
            LoadRegime::Interactive
        } else {
            LoadRegime::Steady
        }
    }

    /// Read access to the store (tests and exporters).
    pub fn store(&self) -> &ProfileStore {
        &self.store
    }

    /// One control tick: classify, damp, decide.
    pub fn tick(&mut self, obs: &Observation) -> Vec<Action> {
        self.since_apply = self.since_apply.saturating_add(1);
        let regime = self.classify(obs);

        // Online refinement: saturated ticks measure the current knob
        // tuple under real load. Single ticks are too lumpy to trust
        // (a 1 ms tick completes ~a dozen requests, plus or minus the
        // scheduler's mood), so pool an unbroken same-tuple stretch of
        // them and fold the windowed rate into the store. A regime or
        // tuple change discards the partial window — it measured a
        // posture that no longer exists.
        let key = (obs.workers, obs.max_batch, obs.stages, obs.shards);
        if regime == LoadRegime::Saturated && obs.completed > 0 {
            let (completed, ticks) = match self.refine_window.take() {
                Some(w) if w.key == key => (w.completed + obs.completed, w.ticks + 1),
                _ => (obs.completed, 1),
            };
            if ticks >= self.cfg.refine_window_ticks.max(1) {
                let secs = self.cfg.interval.as_secs_f64().max(1e-9) * f64::from(ticks);
                self.store.observe(Profile {
                    workers: obs.workers,
                    max_batch: obs.max_batch,
                    stages: obs.stages,
                    shards: obs.shards,
                    throughput_rps: completed as f64 / secs,
                    p99_us: obs.p99_us,
                });
            } else {
                self.refine_window = Some(RefineWindow { key, completed, ticks });
            }
        } else {
            self.refine_window = None;
        }

        // Hysteresis: the observed regime must hold for N consecutive
        // ticks before it can drive a decision.
        let streak = match self.pending {
            Some((r, n)) if r == regime => n.saturating_add(1),
            _ => 1,
        };
        self.pending = Some((regime, streak));

        let mut actions = Vec::new();

        // Quarantine response first: persistent lane loss re-plans shard
        // width down to the healthy count regardless of regime (but
        // respecting cooldown — quarantine itself already re-planned
        // bands over survivors, so there is no rush).
        if obs.quarantined > 0 {
            self.quarantine_streak = self.quarantine_streak.saturating_add(1);
        } else {
            self.quarantine_streak = 0;
        }
        if self.quarantine_streak >= self.cfg.quarantine_shrink_ticks
            && self.since_apply >= self.cfg.cooldown_ticks
        {
            let healthy = obs.shards.saturating_sub(obs.quarantined as usize).max(1);
            if healthy < obs.shards {
                actions.push(Action::RetuneExecutors(obs.stages, healthy));
                self.quarantine_streak = 0;
                self.since_apply = 0;
                return actions;
            }
        }

        if streak < self.cfg.hysteresis_ticks || self.since_apply < self.cfg.cooldown_ticks {
            return actions;
        }
        if self.applied == Some(regime) {
            // The regime already applied can only move again through
            // online refinement: under sustained saturation the store
            // keeps measuring, and once it believes another config beats
            // the running one by the margin, re-deciding is correction,
            // not flapping. Other regimes don't refine the store, so an
            // unchanged regime stays quiet.
            if regime != LoadRegime::Saturated || !self.refinement_dethrones_current(obs) {
                return actions;
            }
        }

        actions.extend(self.plan(regime, obs));
        // Operator escape hatch: CC_CONTROL_DEBUG=1 prints every decision
        // with the observation that drove it. Decisions are rare (damped
        // by hysteresis + cooldown), so the env probe costs nothing in
        // the steady state.
        if !actions.is_empty() && std::env::var_os("CC_CONTROL_DEBUG").is_some() {
            eprintln!(
                "ctl: {regime:?} (was {:?}) knobs ({},{},{},{}) q{} -> {actions:?}",
                self.applied, obs.workers, obs.max_batch, obs.stages, obs.shards, obs.queue_depth
            );
        }
        self.applied = Some(regime);
        self.since_apply = 0;
        actions
    }

    /// The posture `regime` wants, given what the store knows right now.
    fn plan(&self, regime: LoadRegime, obs: &Observation) -> Vec<Action> {
        let clamp_w =
            |workers: usize| workers.clamp(self.cfg.min_workers, self.cfg.max_workers);
        let mut actions = Vec::new();
        match regime {
            LoadRegime::Idle => {
                // Whatever arrives next decides the direction; retuning
                // an idle server is pure churn. (Still marked applied so
                // a long idle stretch doesn't re-enter this arm.)
            }
            LoadRegime::Interactive => {
                // The lowest-p99 profile picks the pool size and executor
                // plan; batch and coalescing wait are forced to the
                // no-queueing posture regardless of what it measured.
                match self.store.best_latency(self.cfg.max_workers, obs.shards.max(1)) {
                    Some(best) => {
                        actions.push(Action::ResizeWorkers(clamp_w(best.workers)));
                        if (best.stages, best.shards) != (obs.stages, obs.shards) {
                            actions.push(Action::RetuneExecutors(best.stages, best.shards));
                        }
                    }
                    None => {
                        actions.push(Action::ResizeWorkers(clamp_w(self.cfg.interactive_workers)))
                    }
                }
                actions.push(Action::SetMaxBatch(self.cfg.interactive_batch));
                actions.push(Action::SetBatchDeadline(self.cfg.interactive_deadline));
            }
            LoadRegime::Steady => {
                let deadline = self.cfg.steady_deadline;
                match self.store.best_throughput(self.cfg.max_workers, obs.shards.max(1)) {
                    Some(best) => {
                        actions.push(Action::ResizeWorkers(clamp_w(best.workers)));
                        actions.push(Action::SetMaxBatch(best.max_batch));
                        actions.push(Action::SetBatchDeadline(deadline));
                        if (best.stages, best.shards) != (obs.stages, obs.shards) {
                            actions.push(Action::RetuneExecutors(best.stages, best.shards));
                        }
                    }
                    None => {
                        let workers = self.cfg.max_workers.div_ceil(2);
                        actions.push(Action::ResizeWorkers(clamp_w(workers)));
                        actions.push(Action::SetMaxBatch(self.cfg.steady_batch));
                        actions.push(Action::SetBatchDeadline(deadline));
                    }
                }
            }
            LoadRegime::Saturated => {
                let current = (obs.workers, obs.max_batch, obs.stages, obs.shards);
                match self.store.best_throughput(self.cfg.max_workers, obs.shards.max(1)).copied()
                {
                    Some(best) => {
                        // "Best known == already running" means hold the
                        // posture, not escalate: the store keeps
                        // measuring it online, and dethroning re-decides
                        // if something else pulls ahead. Only the regime
                        // deadline still needs asserting (the previous
                        // regime may have left a latency-tuned one).
                        if best.key() != current {
                            actions.push(Action::ResizeWorkers(clamp_w(best.workers)));
                            actions.push(Action::SetMaxBatch(best.max_batch));
                            if (best.stages, best.shards) != (obs.stages, obs.shards) {
                                actions.push(Action::RetuneExecutors(best.stages, best.shards));
                            }
                        }
                        actions.push(Action::SetBatchDeadline(self.cfg.saturated_deadline));
                    }
                    None => {
                        actions.push(Action::ResizeWorkers(self.cfg.max_workers));
                        actions.push(Action::SetMaxBatch(self.cfg.saturated_batch));
                        actions.push(Action::SetBatchDeadline(self.cfg.saturated_deadline));
                    }
                }
            }
        }
        actions
    }

    /// Whether online refinement now believes a different config beats
    /// the running one by [`ControlConfig::refine_margin`] — the trigger
    /// for re-deciding inside an unbroken saturated stretch.
    fn refinement_dethrones_current(&self, obs: &Observation) -> bool {
        let current = (obs.workers, obs.max_batch, obs.stages, obs.shards);
        let Some(best) = self.store.best_throughput(self.cfg.max_workers, obs.shards.max(1))
        else {
            return false;
        };
        if best.key() == current {
            return false;
        }
        match self.store.profiles.iter().find(|p| p.key() == current) {
            Some(running) => best.throughput_rps > running.throughput_rps * self.cfg.refine_margin,
            // Nothing measured yet for the running config (e.g. it was
            // quarantine-shrunk into existence): trust the store.
            None => true,
        }
    }
}

// ---------------------------------------------------------------------------
// The controller thread
// ---------------------------------------------------------------------------

/// The control loop attached to a live [`Server`]: a thread that ticks
/// the [`Engine`] on [`ControlConfig::interval`] and applies its actions.
/// Every applied action lands in the server's trace ring (control track)
/// and `retunes` counter, so a run's decisions reconstruct from its own
/// telemetry. Detach (or drop) stops the thread promptly.
#[derive(Debug)]
pub struct Controller {
    stop_tx: Option<mpsc::Sender<()>>,
    handle: Option<JoinHandle<Engine>>,
    stopped: Arc<AtomicBool>,
}

impl Controller {
    /// Attaches a control loop to `server`. The engine starts from
    /// `store` (empty, or filled by a calibration sweep through
    /// [`ProfileStore::record`]) and refines it online while attached.
    pub fn attach(server: Arc<Server>, cfg: ControlConfig, store: ProfileStore) -> Controller {
        let interval = cfg.interval;
        let mut engine = Engine::new(cfg, store);
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let stopped = Arc::new(AtomicBool::new(false));
        let thread_stopped = Arc::clone(&stopped);
        let handle = std::thread::Builder::new()
            .name("cc-serve-control".into())
            .spawn(move || {
                let mut prev: Option<TelemetrySnapshot> = None;
                loop {
                    // The stop channel doubles as the tick clock: a
                    // detach lands mid-sleep instead of waiting a tick.
                    match stop_rx.recv_timeout(interval) {
                        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => break,
                        Err(mpsc::RecvTimeoutError::Timeout) => {}
                    }
                    let snap = server.telemetry();
                    let obs = observe(&server, prev.as_ref(), &snap);
                    for action in engine.tick(&obs) {
                        apply(&server, action);
                    }
                    prev = Some(snap);
                }
                thread_stopped.store(true, Ordering::Release);
                engine
            })
            .expect("spawn controller");
        Controller { stop_tx: Some(stop_tx), handle: Some(handle), stopped }
    }

    /// True once the control thread has exited.
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// Stops the loop and returns the engine (with its online-refined
    /// [`ProfileStore`]) for inspection or reuse.
    pub fn detach(mut self) -> Engine {
        self.stop_tx = None;
        self.handle.take().expect("controller already detached").join().expect("controller thread")
    }
}

impl Drop for Controller {
    fn drop(&mut self) {
        self.stop_tx = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Derives one tick's [`Observation`] from successive snapshots.
fn observe(
    server: &Server,
    prev: Option<&TelemetrySnapshot>,
    snap: &TelemetrySnapshot,
) -> Observation {
    let delta = |now: u64, before: u64| now.saturating_sub(before);
    let (submitted0, completed0, shed0, deadline0) = prev
        .map(|p| (p.submitted, p.completed, p.shed, p.deadline_shed))
        .unwrap_or_default();
    let (max_batch, _) = server.batch_knobs();
    let (stages, shards) = server.exec_plan();
    Observation {
        submitted: delta(snap.submitted, submitted0),
        completed: delta(snap.completed, completed0),
        shed: delta(snap.shed, shed0) + delta(snap.deadline_shed, deadline0),
        queue_depth: snap.queue_depth,
        inflight: server.in_flight(),
        quarantined: snap.shards_quarantined,
        p99_us: snap.p99.as_secs_f64() * 1e6,
        workers: server.worker_target(),
        max_batch,
        stages,
        shards,
    }
}

/// Applies one engine action to the live server.
fn apply(server: &Server, action: Action) {
    match action {
        Action::ResizeWorkers(target) => {
            server.resize_workers(target);
        }
        Action::SetMaxBatch(cap) => server.set_max_batch(cap),
        Action::SetBatchDeadline(deadline) => server.set_batch_deadline(deadline),
        Action::RetuneExecutors(stages, shards) => {
            server.retune_executors(stages, shards);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_seeds_from_bench_serve_rows_and_prefers_best_throughput() {
        let mut store = ProfileStore::new();
        for (workers, max_batch, stages, throughput_rps, p99_us) in
            [(1, 1, 1, 1000.0, 200.0), (4, 16, 2, 9000.0, 900.0), (2, 8, 1, 5000.0, 400.0)]
        {
            store.observe(Profile { workers, max_batch, stages, shards: 1, throughput_rps, p99_us });
        }
        assert_eq!(store.len(), 3);
        let best = store.best_throughput(4, 4).expect("profiles");
        assert_eq!((best.workers, best.max_batch), (4, 16));
        // A worker bound excludes the big config.
        let bounded = store.best_throughput(2, 4).expect("profiles");
        assert_eq!(bounded.workers, 2);
    }

    #[test]
    fn observe_merges_by_ema_instead_of_clobbering() {
        let mut store = ProfileStore::new();
        let base = Profile {
            workers: 2,
            max_batch: 8,
            stages: 1,
            shards: 1,
            throughput_rps: 1000.0,
            p99_us: 100.0,
        };
        store.observe(base);
        store.observe(Profile { throughput_rps: 2000.0, p99_us: 300.0, ..base });
        assert_eq!(store.len(), 1, "same knob tuple must merge");
        let merged = store.best_throughput(8, 8).expect("profile");
        assert!((merged.throughput_rps - 1300.0).abs() < 1e-6, "{}", merged.throughput_rps);
        assert!((merged.p99_us - 160.0).abs() < 1e-6, "{}", merged.p99_us);
    }

    fn obs(submitted: u64, shed: u64, queue_depth: usize) -> Observation {
        Observation {
            submitted,
            completed: submitted,
            shed,
            queue_depth,
            inflight: queue_depth as u64,
            quarantined: 0,
            p99_us: 100.0,
            workers: 2,
            max_batch: 4,
            stages: 1,
            shards: 2,
        }
    }

    #[test]
    fn engine_requires_hysteresis_and_cooldown_before_acting() {
        let cfg = ControlConfig { hysteresis_ticks: 2, cooldown_ticks: 3, ..Default::default() };
        let mut engine = Engine::new(cfg, ProfileStore::new());
        // Tick 1: saturated, but streak 1 < hysteresis 2 — no action.
        assert!(engine.tick(&obs(100, 5, 20)).is_empty());
        // Tick 2: streak satisfied — the saturation plan applies.
        let actions = engine.tick(&obs(100, 5, 20));
        assert!(actions.contains(&Action::ResizeWorkers(4)), "{actions:?}");
        assert!(actions.contains(&Action::SetMaxBatch(16)), "{actions:?}");
        // A single interactive blip inside the cooldown never flaps the
        // knobs back.
        assert!(engine.tick(&obs(1, 0, 0)).is_empty());
        assert!(engine.tick(&obs(1, 0, 0)).is_empty());
        // Once the cooldown passes AND the streak rebuilds, it applies.
        let actions = engine.tick(&obs(1, 0, 0));
        assert!(actions.contains(&Action::SetMaxBatch(1)), "{actions:?}");
    }

    #[test]
    fn engine_never_reapplies_the_same_regime() {
        let cfg = ControlConfig { hysteresis_ticks: 1, cooldown_ticks: 0, ..Default::default() };
        let mut engine = Engine::new(cfg, ProfileStore::new());
        assert!(!engine.tick(&obs(100, 5, 20)).is_empty());
        for _ in 0..10 {
            assert!(
                engine.tick(&obs(100, 5, 20)).is_empty(),
                "an unchanged regime must not re-emit actions"
            );
        }
    }

    #[test]
    fn engine_uses_the_stores_best_profile_under_saturation() {
        let mut store = ProfileStore::new();
        store.observe(Profile {
            workers: 3,
            max_batch: 12,
            stages: 2,
            shards: 2,
            throughput_rps: 9000.0,
            p99_us: 500.0,
        });
        let cfg = ControlConfig { hysteresis_ticks: 1, cooldown_ticks: 0, ..Default::default() };
        let mut engine = Engine::new(cfg, store);
        // 50 completions / 10ms tick = 5k rps — slower than the stored
        // 9k profile, so the engine should move to the store's best.
        let actions = engine.tick(&Observation { completed: 50, ..obs(100, 5, 20) });
        assert!(actions.contains(&Action::ResizeWorkers(3)), "{actions:?}");
        assert!(actions.contains(&Action::SetMaxBatch(12)), "{actions:?}");
        assert!(actions.contains(&Action::RetuneExecutors(2, 2)), "{actions:?}");
    }

    #[test]
    fn best_latency_picks_the_lowest_p99_profile() {
        let mut store = ProfileStore::new();
        store.observe(Profile {
            workers: 4,
            max_batch: 16,
            stages: 2,
            shards: 2,
            throughput_rps: 20_000.0,
            p99_us: 5000.0,
        });
        store.observe(Profile {
            workers: 2,
            max_batch: 1,
            stages: 1,
            shards: 1,
            throughput_rps: 8000.0,
            p99_us: 300.0,
        });
        let best = store.best_latency(4, 4).expect("profiles");
        assert_eq!((best.workers, best.max_batch), (2, 1));
        // A shard bound can exclude the fast-but-wide config entirely.
        assert_eq!(store.best_latency(4, 1).expect("profiles").workers, 2);
    }

    #[test]
    fn interactive_follows_the_lowest_latency_profile_for_pool_and_plan() {
        let mut store = ProfileStore::new();
        store.observe(Profile {
            workers: 1,
            max_batch: 4,
            stages: 1,
            shards: 1,
            throughput_rps: 14_000.0,
            p99_us: 900.0,
        });
        store.observe(Profile {
            workers: 2,
            max_batch: 1,
            stages: 1,
            shards: 1,
            throughput_rps: 12_000.0,
            p99_us: 350.0,
        });
        let cfg = ControlConfig { hysteresis_ticks: 1, cooldown_ticks: 0, ..Default::default() };
        let mut engine = Engine::new(cfg, store);
        let actions = engine.tick(&obs(2, 0, 0));
        assert!(actions.contains(&Action::ResizeWorkers(2)), "{actions:?}");
        assert!(actions.contains(&Action::SetMaxBatch(1)), "{actions:?}");
        assert!(
            actions.contains(&Action::RetuneExecutors(1, 1)),
            "the 2-wide start grid must flatten to the measured plan: {actions:?}"
        );
    }

    #[test]
    fn steady_load_follows_the_stores_best_throughput_profile() {
        let mut store = ProfileStore::new();
        store.observe(Profile {
            workers: 1,
            max_batch: 4,
            stages: 1,
            shards: 1,
            throughput_rps: 14_000.0,
            p99_us: 900.0,
        });
        let cfg = ControlConfig { hysteresis_ticks: 1, cooldown_ticks: 0, ..Default::default() };
        let mut engine = Engine::new(cfg, store);
        // Queue of 3: sustained but not saturated.
        let actions = engine.tick(&obs(20, 0, 3));
        assert!(actions.contains(&Action::ResizeWorkers(1)), "{actions:?}");
        assert!(actions.contains(&Action::SetMaxBatch(4)), "{actions:?}");
        assert!(actions.contains(&Action::RetuneExecutors(1, 1)), "{actions:?}");
    }

    #[test]
    fn sustained_saturation_reapplies_once_refinement_dethrones_the_plan() {
        let mut store = ProfileStore::new();
        // A stale seeded favorite the live machine can't reproduce...
        store.observe(Profile {
            workers: 2,
            max_batch: 8,
            stages: 1,
            shards: 1,
            throughput_rps: 20_000.0,
            p99_us: 500.0,
        });
        // ...and the honest runner-up refinement should land on.
        store.observe(Profile {
            workers: 1,
            max_batch: 4,
            stages: 1,
            shards: 1,
            throughput_rps: 14_000.0,
            p99_us: 400.0,
        });
        let cfg = ControlConfig {
            interval: Duration::from_millis(10),
            hysteresis_ticks: 1,
            cooldown_ticks: 0,
            refine_margin: 1.15,
            refine_window_ticks: 1,
            ..Default::default()
        };
        let mut engine = Engine::new(cfg, store);
        // First saturated tick adopts the stale favorite.
        let sat = Observation { workers: 4, max_batch: 16, shards: 1, ..obs(100, 5, 20) };
        let actions = engine.tick(&sat);
        assert!(actions.contains(&Action::ResizeWorkers(2)), "{actions:?}");
        // Saturation persists but the favorite only measures 5k rps
        // (50 completions / 10ms): EMA drags its estimate down until the
        // runner-up clears the margin, then the engine re-decides
        // *without* a regime change.
        let running = Observation { workers: 2, max_batch: 8, shards: 1, completed: 50, ..obs(100, 5, 20) };
        let mut reapplied = Vec::new();
        for _ in 0..10 {
            let actions = engine.tick(&running);
            if !actions.is_empty() {
                reapplied = actions;
                break;
            }
        }
        assert!(
            reapplied.contains(&Action::ResizeWorkers(1))
                && reapplied.contains(&Action::SetMaxBatch(4)),
            "refinement must dethrone the stale favorite: {reapplied:?}"
        );
    }

    #[test]
    fn persistent_quarantine_shrinks_shard_width_to_the_healthy_count() {
        let cfg = ControlConfig {
            hysteresis_ticks: 1,
            cooldown_ticks: 0,
            quarantine_shrink_ticks: 3,
            ..Default::default()
        };
        let mut engine = Engine::new(cfg, ProfileStore::new());
        let sick = Observation { quarantined: 1, ..obs(10, 0, 3) };
        engine.tick(&sick);
        engine.tick(&sick);
        let actions = engine.tick(&sick);
        assert!(
            actions.contains(&Action::RetuneExecutors(1, 1)),
            "third sick tick must shrink 2 shards to the 1 healthy lane: {actions:?}"
        );
        // A healthy tick resets the streak: had it carried over, the
        // very next sick tick would fire again. Instead two more sick
        // ticks stay quiet and only the third (a fresh full streak)
        // shrinks again.
        engine.tick(&obs(10, 0, 3));
        let sick_again = Observation { quarantined: 1, ..obs(10, 0, 3) };
        for tick in 1..=2 {
            assert!(
                !engine.tick(&sick_again).iter().any(|a| matches!(a, Action::RetuneExecutors(..))),
                "sick tick {tick} after a healthy one must not shrink yet"
            );
        }
        assert!(engine
            .tick(&sick_again)
            .iter()
            .any(|a| matches!(a, Action::RetuneExecutors(..))));
    }

    #[test]
    fn saturated_ticks_refine_the_store_online() {
        let cfg = ControlConfig {
            interval: Duration::from_millis(10),
            hysteresis_ticks: 1,
            cooldown_ticks: 0,
            refine_window_ticks: 1,
            ..Default::default()
        };
        let mut engine = Engine::new(cfg, ProfileStore::new());
        engine.tick(&obs(100, 5, 20));
        assert_eq!(engine.store().len(), 1, "a saturated tick must record a profile");
        let p = engine.store().best_throughput(8, 8).expect("profile");
        // 100 completions per 10ms tick = 10k rps.
        assert!((p.throughput_rps - 10_000.0).abs() < 1.0, "{}", p.throughput_rps);
    }

    #[test]
    fn saturation_holds_a_posture_the_store_already_considers_best() {
        let mut store = ProfileStore::new();
        store.observe(Profile {
            workers: 1,
            max_batch: 1,
            stages: 1,
            shards: 1,
            throughput_rps: 12_000.0,
            p99_us: 700.0,
        });
        let cfg = ControlConfig { hysteresis_ticks: 1, cooldown_ticks: 0, ..Default::default() };
        let mut engine = Engine::new(cfg, store);
        // Saturated while already running the store's best config: the
        // engine must hold it (asserting only the regime deadline), not
        // escalate to the aggressive fallback posture.
        let sat = Observation { workers: 1, max_batch: 1, stages: 1, shards: 1, ..obs(100, 5, 20) };
        let actions = engine.tick(&sat);
        assert!(
            actions.iter().all(|a| matches!(a, Action::SetBatchDeadline(_))),
            "best==running must not thrash the pool or batch cap: {actions:?}"
        );
    }

    #[test]
    fn classification_reads_in_flight_work_not_just_the_queue() {
        let engine = Engine::new(ControlConfig::default(), ProfileStore::new());
        // A wide batch mid-execution: the queue is drained but 30
        // requests are still flying — that is peak load, not a lull.
        let mid_batch = Observation { inflight: 30, ..obs(50, 0, 0) };
        assert_eq!(engine.classify(&mid_batch), LoadRegime::Saturated);
        // An actual trickle: one request in service, nothing queued.
        let trickle = Observation { inflight: 1, ..obs(2, 0, 0) };
        assert_eq!(engine.classify(&trickle), LoadRegime::Interactive);
    }

    #[test]
    fn refinement_pools_a_window_of_ticks_before_the_store_learns() {
        let cfg = ControlConfig {
            interval: Duration::from_millis(10),
            hysteresis_ticks: 10, // keep decisions out of the way
            cooldown_ticks: 0,
            refine_window_ticks: 4,
            ..Default::default()
        };
        let mut engine = Engine::new(cfg, ProfileStore::new());
        // Three saturated ticks accumulate silently...
        for _ in 0..3 {
            engine.tick(&obs(100, 5, 20));
            assert!(engine.store().is_empty(), "partial window must not be absorbed");
        }
        // ...the fourth closes the window: 400 completions / 40ms = 10k rps.
        engine.tick(&obs(100, 5, 20));
        let p = engine.store().best_throughput(8, 8).expect("pooled profile");
        assert!((p.throughput_rps - 10_000.0).abs() < 1.0, "{}", p.throughput_rps);
        // A non-saturated tick discards a partial window: the next two
        // saturated ticks start counting from scratch and stay silent.
        engine.tick(&obs(100, 5, 20));
        engine.tick(&obs(1, 0, 0)); // interactive-ish tick breaks the stretch
        engine.tick(&obs(100, 5, 20));
        engine.tick(&obs(100, 5, 20));
        assert_eq!(engine.store().len(), 1, "broken window must not be absorbed");
    }

    #[test]
    fn idle_ticks_keep_hands_off_the_knobs() {
        let cfg = ControlConfig { hysteresis_ticks: 1, cooldown_ticks: 0, ..Default::default() };
        let mut engine = Engine::new(cfg, ProfileStore::new());
        assert!(engine.tick(&obs(0, 0, 0)).is_empty());
        assert!(engine.tick(&obs(0, 0, 0)).is_empty());
    }
}
