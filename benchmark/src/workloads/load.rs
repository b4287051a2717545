//! Load generation for the serving workloads: the request source, the
//! closed and open loops, and the checks on what comes back. One thread
//! submits; the open loop adds one collector thread that only waits.

use crate::fixtures::same_bits;
use crate::inputs::{unique_image, Rng, Zipf};
use crate::report::peak_rss_mib;
use crate::stats::Completion;
use cc_deploy::DeployedNetwork;
use cc_serve::{Response, Server, Ticket};
use cc_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Name the one model is registered under.
pub const MODEL: &str = "lenet";

/// One in this many never-seen inputs keeps its response for a check
/// against logits computed after the timed phase.
const UNIQUE_CHECK_EVERY: u64 = 16;

/// Share of `serve_cache` requests whose input was never seen before.
pub const UNIQUE_SHARE: f64 = 0.30;

/// A ticket unresolved after this long is hung: counted as a failed
/// operation and never waited on again. Long enough that a stall of the
/// machine itself (seen here: over a second) does not read as a lost
/// ticket.
pub const WAIT_LIMIT: Duration = Duration::from_secs(2);

/// After this many hung tickets a phase gives up: it sends nothing more
/// and counts whatever is still unresolved as hung without waiting, so a
/// dead server costs a bounded time and not a wait per request.
const HUNG_LIMIT: u64 = 4;

/// Requests sent when a closed loop reads peak memory. A phase bounded
/// by time serves more requests when the program is faster, and the
/// response cache grows with every miss; read at a fixed count, memory
/// says what a request costs and not how many were served.
pub const RSS_MARK: u64 = 65_536;

/// What a response is checked against.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// A catalog image: reference logits are known before the phase.
    Catalog(usize),
    /// A never-seen input, by index; `keep` marks the sampled ones.
    Unique { index: u64, keep: bool },
}

/// How the next request's input is drawn.
pub enum Mix {
    /// Uniformly from the catalog.
    Uniform,
    /// [`UNIQUE_SHARE`] never-seen inputs, the rest Zipf over the catalog.
    ZipfAndUnique(Zipf),
}

/// The seeded request stream: a catalog with known answers plus the draw.
pub struct Source {
    pub catalog: Vec<Tensor>,
    /// Serial `DeployedNetwork::logits` of every catalog image.
    pub reference: Arc<Vec<Vec<f32>>>,
    /// The network's input scale, which unique inputs are built on.
    pub input_scale: f32,
    pub mix: Mix,
    pub rng: Rng,
    pub next_unique: u64,
}

impl Source {
    pub fn unique(&self, index: u64) -> Tensor {
        unique_image(
            &self.catalog[index as usize % self.catalog.len()],
            index,
            self.input_scale,
        )
    }

    fn next(&mut self) -> (Tensor, Expect) {
        let from_catalog =
            |rank: usize, catalog: &[Tensor]| (catalog[rank].clone(), Expect::Catalog(rank));
        match &self.mix {
            Mix::Uniform => from_catalog(self.rng.below(self.catalog.len()), &self.catalog),
            Mix::ZipfAndUnique(zipf) => {
                if self.rng.next_f64() < UNIQUE_SHARE {
                    let index = self.next_unique;
                    self.next_unique += 1;
                    (
                        self.unique(index),
                        Expect::Unique {
                            index,
                            keep: index.is_multiple_of(UNIQUE_CHECK_EVERY),
                        },
                    )
                } else {
                    from_catalog(zipf.sample(&mut self.rng), &self.catalog)
                }
            }
        }
    }
}

/// Everything a load phase observed.
#[derive(Default)]
pub struct Tally {
    /// Served requests, with the latency the caller saw.
    pub done: Vec<Completion>,
    /// Whether each entry of `done` was served from the cache.
    pub hit: Vec<bool>,
    pub attempted: u64,
    pub shed: u64,
    pub errors: u64,
    pub hung: u64,
    pub mismatch: u64,
    /// Sampled never-seen inputs, still to be checked.
    kept: Vec<(u64, Vec<f32>)>,
    /// Open loop: how late each request left the generator, in us.
    pub gen_late_us: Vec<f64>,
    /// Traced runs: how long each `Server::submit` call took, in us.
    pub submit_us: Vec<f64>,
    /// Peak resident memory in MiB when request [`RSS_MARK`] was sent.
    pub rss_at_mark: Option<f64>,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.hung + self.mismatch
    }

    fn gave_up(&self) -> bool {
        self.hung >= HUNG_LIMIT
    }

    /// Waits for `ticket` up to [`WAIT_LIMIT`], or not at all once the
    /// phase has given up.
    fn wait(&self, ticket: Ticket) -> Option<Result<Response, cc_serve::WaitError>> {
        ticket.wait_timeout(if self.gave_up() {
            Duration::ZERO
        } else {
            WAIT_LIMIT
        })
    }

    fn settle(
        &mut self,
        resolution: Option<Result<Response, cc_serve::WaitError>>,
        expect: Expect,
        extra_latency: Duration,
        at_s: f64,
        reference: &[Vec<f32>],
    ) {
        match resolution {
            None => self.hung += 1,
            Some(Err(_)) => self.errors += 1,
            Some(Ok(response)) => {
                self.done.push(Completion {
                    at_s,
                    latency_us: (response.latency + extra_latency).as_secs_f64() * 1e6,
                });
                self.hit.push(response.batch_size == 0);
                match expect {
                    Expect::Catalog(rank) => {
                        self.mismatch += u64::from(!same_bits(&response.logits, &reference[rank]));
                    }
                    Expect::Unique { index, keep: true } => {
                        self.kept.push((index, response.logits))
                    }
                    Expect::Unique { keep: false, .. } => {}
                }
            }
        }
    }

    /// Appends a later phase on the same server, its clock moved to start
    /// where this one's last completion ended.
    pub fn append(&mut self, later: Tally) {
        let offset = self.done.last().map_or(0.0, |c| c.at_s);
        self.done.extend(later.done.iter().map(|c| Completion {
            at_s: c.at_s + offset,
            ..*c
        }));
        self.hit.extend(later.hit);
        self.attempted += later.attempted;
        self.shed += later.shed;
        self.errors += later.errors;
        self.hung += later.hung;
        self.mismatch += later.mismatch;
        self.kept.extend(later.kept);
        self.gen_late_us.extend(later.gen_late_us);
        self.submit_us.extend(later.submit_us);
        self.rss_at_mark = self.rss_at_mark.or(later.rss_at_mark);
    }

    /// Recomputes the sampled never-seen inputs serially and counts the
    /// responses that differ. Call after the timed phase.
    pub fn check_kept(&mut self, deployed: &DeployedNetwork, source: &Source) {
        for (index, logits) in std::mem::take(&mut self.kept) {
            let expected = deployed.logits(&source.unique(index));
            self.mismatch += u64::from(!same_bits(&logits, &expected));
        }
    }
}

fn submit(server: &Server, image: Tensor, time_submit: bool, tally: &mut Tally) -> Option<Ticket> {
    tally.attempted += 1;
    let started = time_submit.then(Instant::now);
    let result = server.submit(MODEL, image);
    if let Some(started) = started {
        tally.submit_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    match result {
        Ok(ticket) => Some(ticket),
        Err(_) => {
            tally.shed += 1;
            None
        }
    }
}

/// Closed loop: one client keeps `window` requests outstanding for
/// `seconds`, waiting for the oldest before sending the next.
pub fn closed_loop(
    server: &Server,
    source: &mut Source,
    window: usize,
    seconds: f64,
    time_submit: bool,
) -> Tally {
    let mut tally = Tally::default();
    let mut outstanding: VecDeque<(Ticket, Expect)> = VecDeque::with_capacity(window);
    let started = Instant::now();
    loop {
        while outstanding.len() < window
            && !tally.gave_up()
            && started.elapsed().as_secs_f64() < seconds
        {
            let (image, expect) = source.next();
            if let Some(ticket) = submit(server, image, time_submit, &mut tally) {
                outstanding.push_back((ticket, expect));
            }
            if tally.attempted == RSS_MARK {
                tally.rss_at_mark = Some(peak_rss_mib());
            }
        }
        let Some((ticket, expect)) = outstanding.pop_front() else {
            break;
        };
        let resolution = tally.wait(ticket);
        let at_s = started.elapsed().as_secs_f64();
        tally.settle(resolution, expect, Duration::ZERO, at_s, &source.reference);
    }
    tally
}

/// Open loop: requests are due on a seeded Poisson schedule of mean
/// `rate` per second, whatever the server does: independent users. (An
/// even schedule locks phase with the batch deadline: at 2 500 req/s
/// against 1 ms the deadline fell 200 us before the next arrival, and
/// whether the batcher woke in time split runs into two regimes a whole
/// arrival gap apart.) Latency counts from the due time: how late the
/// generator sent it, plus the server's own submit-to-completion time. A
/// collector thread waits on the tickets in order so the generator never
/// blocks.
pub fn open_loop(
    server: &Server,
    source: &mut Source,
    rate: f64,
    seconds: f64,
    time_submit: bool,
) -> Tally {
    let mut arrivals = Rng::new(source.rng.next_u64());
    let mut tally = Tally::default();
    let (sender, receiver) = mpsc::channel::<(Ticket, Expect, Duration)>();
    // Relaxed: the flag carries no data, only "stop sending".
    let gave_up = AtomicBool::new(false);
    let started = Instant::now();
    let collected = std::thread::scope(|scope| {
        let reference = Arc::clone(&source.reference);
        let gave_up = &gave_up;
        let collector = scope.spawn(move || {
            let mut collected = Tally::default();
            for (ticket, expect, late) in receiver {
                let resolution = collected.wait(ticket);
                let at_s = started.elapsed().as_secs_f64();
                collected.settle(resolution, expect, late, at_s, &reference);
                gave_up.store(collected.gave_up(), Ordering::Relaxed);
            }
            collected
        });
        let mut due_s = 0.0;
        while !gave_up.load(Ordering::Relaxed) {
            let due = started + Duration::from_secs_f64(due_s);
            // Sleep most of the gap, then poll the rest: a sleep alone
            // overshoots by the timer slack.
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                let gap = due - now;
                if gap > Duration::from_micros(150) {
                    std::thread::sleep(gap - Duration::from_micros(75));
                } else {
                    // Yield, not spin: on a small machine a spinning
                    // generator takes a core from the server it loads.
                    std::thread::yield_now();
                }
            }
            let (image, expect) = source.next();
            let late = Instant::now().saturating_duration_since(due);
            tally.gen_late_us.push(late.as_secs_f64() * 1e6);
            if let Some(ticket) = submit(server, image, time_submit, &mut tally) {
                sender
                    .send((ticket, expect, late))
                    .expect("collector outlives the generator");
            }
            // Exponential gap to the next arrival.
            due_s -= (1.0 - arrivals.next_f64()).ln() / rate;
            if due_s >= seconds {
                break;
            }
        }
        drop(sender);
        collector.join().expect("collector thread panicked")
    });
    tally.done = collected.done;
    tally.hit = collected.hit;
    tally.errors = collected.errors;
    tally.hung = collected.hung;
    tally.mismatch = collected.mismatch;
    tally.kept = collected.kept;
    tally
}
