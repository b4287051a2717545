//! Trace-correctness suite for the request-lifecycle recorder (ISSUE 7):
//! across random model shapes, QoS mixes, and cache configurations, every
//! submitted request must appear in the trace with ordered lifecycle
//! phases whose span sum matches the reported latency, and the exporters
//! must render what the recorder captured.

use cc_dataset::{Dataset, SyntheticSpec};
use cc_deploy::{identity_groups, DeployedNetwork};
use cc_nn::layer::LayerKind;
use cc_nn::layers::{Linear, PointwiseConv, Relu, Shift};
use cc_nn::Network;
use cc_serve::{
    CacheConfig, EventKind, FaultPlan, ModelRegistry, Outcome, QosClass, ServeConfig, Server,
    SubmitOptions, TraceConfig,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A deployed network over a random shape: 1-channel `size`×`size` input,
/// shift → pointwise(hidden) → relu → linear head.
fn deployed(hidden: usize, size: usize, seed: u64) -> (DeployedNetwork, Dataset) {
    let (train, test) = SyntheticSpec::mnist_like()
        .with_size(size, size)
        .with_samples(12, 5)
        .generate(seed);
    let net = Network::new(
        "prop-trace",
        vec![
            LayerKind::Shift(Shift::new(1)),
            LayerKind::Pointwise(PointwiseConv::new(1, hidden, false, seed)),
            LayerKind::Relu(Relu::new()),
            LayerKind::Linear(Linear::new(hidden * size * size, 10, seed ^ 1)),
        ],
        10,
    );
    (DeployedNetwork::build(&net, &identity_groups(&net), &train), test)
}

/// Clock-skew allowance between the trace's span arithmetic and the
/// response's separately-sampled latency. The real gap is the handful of
/// instructions between the two `Instant::now()` calls (microseconds);
/// the bound only needs to stay far below any real phase duration.
const SKEW: u64 = Duration::from_millis(5).as_nanos() as u64;

proptest! {
    // Each case deploys a network and runs a traced server; keep the case
    // count modest. Cases and RNG stream are pinned so CI failures replay
    // exactly.
    #![proptest_config(ProptestConfig::with_cases(12).with_rng_seed(0xA5_1305_0007))]

    /// Every submitted request appears in the trace under its response
    /// id, with monotonically ordered lifecycle phases: submit ≤ probe ⊆
    /// queue, queue hands off to execute at the dispatch stamp, and the
    /// resolve instant closes the lifecycle. The queue + execute span sum
    /// must match the reported end-to-end latency within clock-skew
    /// tolerance, and cache hits must resolve as hits with neither a
    /// queue nor an execute phase.
    #[test]
    fn every_request_traced_with_ordered_phases(
        hidden in 2usize..6,
        size in 3usize..8,
        seed in 0u64..1_000,
        cache_sel in 0u8..2,
    ) {
        let (net, test) = deployed(hidden, size, seed);
        let cache = if cache_sel == 1 {
            CacheConfig::bounded(32, 1 << 20)
        } else {
            CacheConfig::disabled()
        };
        let server = Server::start(
            ModelRegistry::new().with_model("m", net),
            ServeConfig::default()
                .with_workers(2)
                .with_queue_capacity(64)
                .with_cache(cache)
                .with_trace(TraceConfig::on()),
        );

        // Two serial passes over the test set with rotating QoS classes:
        // with the cache on, pass 2 is all hits — both lifecycle shapes
        // get exercised in one case.
        let classes = [QosClass::Interactive, QosClass::Standard, QosClass::Batch];
        let mut served: Vec<(u64, QosClass, Duration)> = Vec::new();
        for pass in 0..2 {
            for i in 0..test.len() {
                let class = classes[(pass * test.len() + i) % classes.len()];
                let ticket = server
                    .submit_with(
                        "m",
                        test.image(i).clone(),
                        SubmitOptions::new().with_class(class),
                    )
                    .expect("admitted");
                let response = ticket.wait().expect("served");
                prop_assert!(response.id != 0, "tracing is on: every response carries a rid");
                served.push((response.id, class, response.latency));
            }
        }

        let events = server.trace_events();
        let traced = cc_serve::trace::summarize_requests(&events);
        for &(rid, class, latency) in &served {
            let t = traced
                .iter()
                .find(|t| t.rid == rid)
                .expect("every submitted request appears in the trace");
            prop_assert_eq!(t.class, class.index() as u32, "submit event carries the QoS class");
            let submit = t.submit_ns.expect("submit instant recorded");
            let (resolve_ns, outcome) = t.resolve.expect("resolve instant recorded");
            prop_assert!(submit <= resolve_ns);

            // Phases are ordered by start and sit inside [submit, resolve].
            let phases = t.phases();
            for pair in phases.windows(2) {
                prop_assert!(pair[0].1 <= pair[1].1, "phases sorted by start");
            }
            for &(_, start, dur) in &phases {
                prop_assert!(start >= submit, "no phase starts before submit");
                prop_assert!(start + dur <= resolve_ns + SKEW, "no phase outlives resolve");
            }

            if t.cache_hit {
                prop_assert_eq!(outcome, Outcome::CacheHit);
                prop_assert!(t.queue.is_none(), "a cache hit never queues");
                prop_assert!(t.execute.is_none(), "a cache hit never executes");
                continue;
            }
            prop_assert_eq!(outcome, Outcome::Ok);
            let (q_start, q_dur) = t.queue.expect("served request has a queue span");
            let (x_start, x_dur) = t.execute.expect("served request has an execute span");
            // The queue span is anchored at submit and hands off to the
            // execute span at the dispatch stamp — contiguous phases.
            prop_assert_eq!(q_start, submit, "queue wait is measured from submit");
            prop_assert_eq!(q_start + q_dur, x_start, "dispatch ends queue and starts execute");
            prop_assert!(x_start + x_dur <= resolve_ns, "execution ends at or before resolve");
            // The contiguous spans reconstruct the reported latency.
            let span_sum = q_dur + x_dur;
            let reported = latency.as_nanos().min(u64::MAX as u128) as u64;
            prop_assert!(
                span_sum.abs_diff(reported) <= SKEW,
                "phase sum {}ns vs reported latency {}ns exceeds skew tolerance",
                span_sum,
                reported
            );
            prop_assert!(t.bid != 0, "a served request rode in a traced batch");
        }

        // Untraced machinery events correlate through bid: every batch id
        // seen on a request has a matching batch-form span.
        let batch_bids: std::collections::HashSet<u64> = events
            .iter()
            .filter(|e| e.kind == cc_serve::EventKind::BatchForm)
            .map(|e| e.bid)
            .collect();
        for t in traced.iter().filter(|t| t.bid != 0) {
            prop_assert!(
                batch_bids.contains(&t.bid),
                "request bid {} has no batch-form span", t.bid
            );
        }
    }
}

/// The runtime toggle: requests submitted while tracing is off carry
/// rid 0 and record nothing; flipping it on starts recording without a
/// restart; flipping it off stops.
#[test]
fn runtime_toggle_gates_recording() {
    let (net, test) = deployed(3, 4, 7);
    let server = Server::start(
        ModelRegistry::new().with_model("m", net),
        ServeConfig::default().with_workers(1).with_trace(TraceConfig::off()),
    );
    let image = test.image(0).clone();

    let wait = |server: &Server| {
        server.submit("m", image.clone()).expect("admitted").wait().expect("served")
    };
    let r = wait(&server);
    assert_eq!(r.id, 0, "tracing off: responses are untraced");
    assert!(server.trace_events().is_empty(), "tracing off: nothing recorded");

    assert!(server.set_tracing(true), "recorder exists, toggle must succeed");
    let r = wait(&server);
    assert_ne!(r.id, 0, "tracing on: responses carry their rid");
    let traced = cc_serve::trace::summarize_requests(&server.trace_events());
    assert_eq!(traced.len(), 1);
    assert_eq!(traced[0].rid, r.id);

    assert!(server.set_tracing(false));
    let before = server.trace_events().len();
    let r = wait(&server);
    assert_eq!(r.id, 0);
    assert_eq!(server.trace_events().len(), before, "tracing off again: no new events");
}

/// `TraceConfig::none` allocates no recorder: the toggle reports failure,
/// the Chrome exporter has nothing to render, and the Prometheus text
/// omits the recorder gauges while still exposing serving metrics.
#[test]
fn no_recorder_means_no_trace_surface() {
    let (net, test) = deployed(3, 4, 11);
    let server = Server::start(
        ModelRegistry::new().with_model("m", net),
        ServeConfig::default().with_workers(1).with_trace(TraceConfig::none()),
    );
    let r = server.submit("m", test.image(0).clone()).expect("admitted").wait().expect("served");
    assert_eq!(r.id, 0);
    assert!(!server.set_tracing(true), "no recorder to enable");
    assert!(server.chrome_trace().is_none());
    assert!(server.trace_stats().is_none());
    let metrics = server.metrics_text();
    assert!(metrics.contains("cc_serve_requests_total"));
    assert!(!metrics.contains("cc_serve_trace_enabled"));
}

/// End-to-end exporter sanity: a traced run renders Perfetto-loadable
/// Chrome JSON with named tracks and a Prometheus exposition carrying
/// both telemetry and recorder gauges.
#[test]
fn exporters_render_a_traced_run() {
    let (net, test) = deployed(4, 5, 13);
    let server = Server::start(
        ModelRegistry::new().with_model("m", net),
        ServeConfig::default()
            .with_workers(2)
            .with_cache(CacheConfig::bounded(32, 1 << 20))
            .with_trace(TraceConfig::on()),
    );
    for pass in 0..2 {
        for i in 0..test.len() {
            let _ = pass;
            let r = server.submit("m", test.image(i).clone()).expect("admitted").wait();
            assert!(r.is_some());
        }
    }

    let chrome = server.chrome_trace().expect("recorder configured");
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.contains("\"thread_name\""), "tracks are named for Perfetto");
    assert!(chrome.contains("\"requests\""), "request lifecycle track present");
    assert!(chrome.contains("\"ph\":\"X\""), "span events present");
    assert!(chrome.contains("\"ph\":\"i\""), "instant events present");

    let metrics = server.metrics_text();
    for family in [
        "cc_serve_requests_total",
        "cc_serve_latency_seconds",
        "cc_serve_cache_events_total",
        "cc_serve_trace_enabled",
        "cc_serve_trace_events_total",
    ] {
        assert!(metrics.contains(family), "missing metric family {family}");
    }
    let stats = server.trace_stats().expect("recorder configured");
    assert!(stats.enabled && stats.recorded > 0 && stats.dropped == 0);
}

/// Which lifecycle span a request is in the middle of when it ends.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Open {
    /// Answered or turned away on the submit path: it never queued.
    Nothing,
    /// Still queued (a deadline shed).
    Queue,
    /// On a worker (a batch ending, good or bad).
    Execute,
}

/// One submit of an ending scenario and how its request must end.
struct Step {
    model: &'static str,
    image: usize,
    options: SubmitOptions,
    /// Wait for every earlier ticket before submitting this one.
    settle: bool,
    ends: Outcome,
    open: Open,
}

fn step(model: &'static str, image: usize, ends: Outcome, open: Open) -> Step {
    Step { model, image, options: SubmitOptions::new(), settle: false, ends, open }
}

/// One `Resolve` per request, for every way a request can end: Ok, cache
/// hit, coalesced hit, quota shed, queue-full shed, deadline shed,
/// `Faulted`, `WorkerPanicked`, and a follower of each kind of failed
/// leader. Each rid must carry exactly one `Resolve` instant with the
/// expected outcome, and the span it had open — `Queue` for a deadline
/// shed, `Execute` for a batch ending — must be closed at or before it.
///
/// Interleavings are forced, not slept for: every server coalesces
/// batches of two under a window that outlasts the test, so a leader
/// stays in flight (and its followers attach) until the step that fills
/// its batch. Only the shed scenario, whose queue is full by design, lets
/// a (generous) window close a batch.
#[test]
fn every_ending_resolves_exactly_once_with_its_open_span_closed() {
    use Open::{Execute, Nothing, Queue};
    const NEVER: Duration = Duration::from_secs(600);
    let base = || {
        ServeConfig::default()
            .with_workers(1)
            .with_max_batch(2)
            .with_batch_deadline(NEVER)
            .with_cache(CacheConfig::bounded(32, 1 << 20))
            .with_trace(TraceConfig::on())
    };
    // leader, follower, batch-filler: the shape every batch ending shares.
    let batch_of = |leader: Outcome, follower: Outcome| {
        vec![
            step("x", 0, leader, Execute),
            step("x", 0, follower, Nothing),
            step("x", 1, leader, Execute),
        ]
    };
    let mut served = batch_of(Outcome::Ok, Outcome::CoalescedHit);
    served.push(Step { settle: true, ..step("x", 0, Outcome::CacheHit, Nothing) });
    let tenant = || SubmitOptions::new().with_tenant("t");
    let shed = vec![
        // Seeds a batch that only the window can release: the queue is
        // full before a second member could join it.
        Step { options: tenant(), ..step("x", 0, Outcome::Ok, Execute) },
        Step { options: tenant(), ..step("x", 1, Outcome::Shed, Nothing) },
        // Another network's request waits in the batcher's stash behind
        // that batch with its deadline already blown, and takes an
        // identical follower with it.
        Step {
            options: SubmitOptions::new().with_deadline(Duration::ZERO),
            ..step("y", 0, Outcome::DeadlineExceeded, Queue)
        },
        step("y", 0, Outcome::DeadlineExceeded, Nothing),
        step("x", 2, Outcome::Shed, Nothing),
    ];
    let scenarios = [
        ("served", base(), served),
        (
            "panicked",
            base().with_faults(Arc::new(FaultPlan::seeded(3).panic_on_batch(0))),
            batch_of(Outcome::WorkerPanicked, Outcome::WorkerPanicked),
        ),
        (
            "faulted",
            base().with_faults(Arc::new(FaultPlan::seeded(5).poison_every(1))),
            batch_of(Outcome::Faulted, Outcome::Faulted),
        ),
        (
            "shed",
            base()
                .with_tenant_quota(1)
                .with_queue_capacity(2)
                .with_batch_deadline(Duration::from_millis(500)),
            shed,
        ),
    ];

    for (name, cfg, steps) in scenarios {
        let (x, test) = deployed(3, 4, 17);
        let (y, _) = deployed(3, 4, 18);
        let server =
            Server::start(ModelRegistry::new().with_model("x", x).with_model("y", y), cfg);
        let mut tickets = Vec::new();
        let settle = |tickets: &mut Vec<(usize, cc_serve::Ticket)>| {
            for (i, ticket) in tickets.drain(..) {
                let resolution = ticket
                    .wait_timeout(Duration::from_secs(20))
                    .unwrap_or_else(|| panic!("{name}: ticket of step {i} hung"));
                let good = matches!(
                    steps[i].ends,
                    Outcome::Ok | Outcome::CacheHit | Outcome::CoalescedHit
                );
                assert_eq!(resolution.is_ok(), good, "{name}: step {i} resolved {resolution:?}");
            }
        };
        for (i, s) in steps.iter().enumerate() {
            if s.settle {
                settle(&mut tickets);
            }
            // A shed at the door hands out no ticket; its rid still resolves.
            let image = test.image(s.image).clone();
            if let Ok(ticket) = server.submit_with(s.model, image, s.options.clone()) {
                tickets.push((i, ticket));
            }
        }
        settle(&mut tickets);

        // One thread submitted everything, so step i holds rid i + 1.
        let events = server.trace_events();
        let traced = cc_serve::trace::summarize_requests(&events);
        assert_eq!(traced.len(), steps.len(), "{name}: every submit is traced");
        for (i, s) in steps.iter().enumerate() {
            let rid = i as u64 + 1;
            let resolves =
                events.iter().filter(|e| e.kind == EventKind::Resolve && e.rid == rid).count();
            assert_eq!(resolves, 1, "{name}: step {i} must resolve exactly once");
            let t = traced.iter().find(|t| t.rid == rid).expect("traced");
            let (resolve_ns, outcome) = t.resolve.expect("resolve recorded");
            assert_eq!(outcome, s.ends, "{name}: step {i} ended the wrong way");
            let closed = |span: Option<(u64, u64)>| {
                let (start, dur) = span.unwrap_or_else(|| panic!("{name}: step {i} span missing"));
                assert!(start + dur <= resolve_ns, "{name}: step {i} span outlives its resolve");
            };
            match s.open {
                Nothing => assert!(t.queue.is_none() && t.execute.is_none(), "{name}: step {i}"),
                Queue => {
                    closed(t.queue);
                    assert!(t.execute.is_none(), "{name}: step {i} never reached a worker");
                }
                Execute => {
                    closed(t.queue);
                    closed(t.execute);
                }
            }
        }
    }
}
