//! What the batcher thread used to guarantee, now that idle workers form
//! their own batches under one lock: shutdown reaches every parked
//! worker, busy workers push back exactly `queue_capacity` deep, a
//! deadline blown behind busy workers is shed at the next formation and
//! never executed, a pool resize under load loses no ticket — and a poll
//! on a failed ticket reports the failure.

use cc_dataset::{Dataset, SyntheticSpec};
use cc_deploy::{identity_groups, DeployedNetwork};
use cc_nn::models::{lenet5_shift, ModelConfig};
use cc_serve::{
    FaultPlan, ModelRegistry, ServeConfig, Server, SubmitError, SubmitOptions, TelemetrySnapshot,
    WaitError,
};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Far beyond anything these tests wait for unless something hung.
const HUNG: Duration = Duration::from_secs(30);

fn tiny() -> (DeployedNetwork, Dataset) {
    let (train, test) =
        SyntheticSpec::mnist_like().with_size(8, 8).with_samples(16, 8).generate(5);
    let net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
    (DeployedNetwork::build(&net, &identity_groups(&net), &train), test)
}

fn start(cfg: ServeConfig) -> (Server, Dataset) {
    let (deployed, test) = tiny();
    (Server::start(ModelRegistry::new().with_model("m", deployed), cfg), test)
}

/// Every conv of every batch sleeps `micros` first: a worker that took a
/// batch stays in it long enough for the test to act behind its back.
fn held(micros: u32) -> Arc<FaultPlan> {
    Arc::new(FaultPlan::seeded(1).stall_every(1, micros))
}

/// Polls `server`'s telemetry until `ready` holds.
fn await_stats(server: &Server, ready: impl Fn(&TelemetrySnapshot) -> bool) {
    let start = Instant::now();
    while !ready(&server.telemetry()) {
        assert!(start.elapsed() < HUNG, "server never got there: {:?}", server.telemetry());
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Shuts `server` down on a thread of its own — `shutdown_within` a
/// generous bound when `bounded`, which must then report a full drain —
/// and fails instead of hanging the suite.
fn shut_down(server: Server, bounded: bool) -> TelemetrySnapshot {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let stats = if bounded {
            let report = server.shutdown_within(HUNG / 2);
            assert!(report.drained, "every worker sees ingress close: {:?}", report.stats);
            report.stats
        } else {
            server.shutdown()
        };
        let _ = tx.send(stats);
    });
    rx.recv_timeout(HUNG).expect("shutdown hung")
}

#[test]
fn shutdown_reaches_idle_workers_parked_on_the_queue_and_on_the_lock() {
    for bounded in [false, true] {
        let (server, _) = start(ServeConfig::default().with_workers(4));
        // One worker parks in `ingress.recv()` holding the batcher's lock,
        // the other three on the mutex behind it.
        std::thread::sleep(Duration::from_millis(50));
        let stats = shut_down(server, bounded);
        assert_eq!((stats.submitted, stats.batches), (0, 0));
    }
}

#[test]
fn shutdown_releases_an_open_batch_window_and_resolves_its_ticket() {
    for bounded in [false, true] {
        let window = Duration::from_secs(600);
        let (server, test) =
            start(ServeConfig::default().with_workers(4).with_batch_deadline(window));
        let ticket = server.submit("m", test.image(0).clone()).expect("admitted");
        // A worker seeds a batch with it and keeps the window open for
        // seven more requests that never come.
        std::thread::sleep(Duration::from_millis(20));
        assert!(ticket.try_wait().is_none(), "the window is still open");
        let stats = shut_down(server, bounded);
        assert_eq!((stats.completed, stats.batches), (1, 1));
        let response = ticket.try_wait().expect("resolved before shutdown returned");
        assert_eq!(response.expect("served, not dropped").batch_size, 1);
    }
}

#[test]
fn busy_workers_admit_exactly_queue_capacity_then_shed() {
    const WORKERS: usize = 2;
    const CAPACITY: usize = 5;
    let (server, test) = start(
        ServeConfig::default()
            .with_workers(WORKERS)
            .with_max_batch(1)
            .with_queue_capacity(CAPACITY)
            .with_faults(held(50_000)),
    );
    let image = test.image(0).clone();
    let mut tickets: Vec<_> =
        (0..WORKERS).map(|_| server.submit("m", image.clone()).expect("idle pool")).collect();
    await_stats(&server, |s| s.batches == WORKERS as u64);
    // Both workers sit in a batch and nobody drains ingress: there is no
    // formed batch in anyone's hand to hide a request in (the pause gives
    // such a hand the time to take the first one).
    for i in 0..CAPACITY {
        tickets.push(server.submit("m", image.clone()).unwrap_or_else(|e| {
            panic!("request {i} of {CAPACITY} behind busy workers must be admitted: {e}")
        }));
        if i == 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    assert_eq!(server.telemetry().queue_depth, CAPACITY);
    assert_eq!(server.submit("m", image.clone()).unwrap_err(), SubmitError::QueueFull);
    for ticket in tickets {
        assert!(matches!(ticket.wait_timeout(HUNG), Some(Ok(_))), "admitted work completes");
    }
    let stats = server.shutdown();
    assert_eq!((stats.completed, stats.shed), ((WORKERS + CAPACITY) as u64, 1));
}

#[test]
fn a_deadline_blown_behind_busy_workers_is_shed_at_the_next_formation() {
    let (server, test) = start(
        ServeConfig::default().with_workers(1).with_max_batch(1).with_faults(held(100_000)),
    );
    let image = test.image(0).clone();
    let busy = server.submit("m", image.clone()).expect("idle pool");
    await_stats(&server, |s| s.batches == 1);
    let options = SubmitOptions::new().with_deadline(Duration::from_millis(1));
    let doomed = server.submit_with("m", image, options).expect("queue has room");
    // Nobody is forming, so nobody sheds it yet: it waits its turn.
    std::thread::sleep(Duration::from_millis(10));
    assert!(doomed.try_wait().is_none(), "shed only at a formation point");
    let shed = doomed.wait_timeout(HUNG).map(|r| r.map(drop));
    assert_eq!(shed, Some(Err(WaitError::DeadlineExceeded)));
    assert!(matches!(busy.wait_timeout(HUNG), Some(Ok(_))));
    let stats = server.shutdown();
    assert_eq!(stats.batches, 1, "blown work never reaches the array");
    assert_eq!((stats.completed, stats.deadline_shed, stats.queue_depth), (1, 1, 0));
}

#[test]
fn resizing_two_one_two_under_load_loses_no_ticket() {
    const REQUESTS: usize = 600;
    let (deployed, test) = tiny();
    let serial: Vec<Vec<f32>> = (0..test.len()).map(|i| deployed.logits(test.image(i))).collect();
    let server = Arc::new(Server::start(
        ModelRegistry::new().with_model("m", deployed),
        ServeConfig::default().with_workers(2).with_max_batch(4).with_queue_capacity(REQUESTS),
    ));
    let client = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            (0..REQUESTS)
                .map(|i| {
                    if i % 50 == 0 {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    server.submit("m", test.image(i % test.len()).clone()).expect("room for all")
                })
                .collect::<Vec<_>>()
        })
    };
    for target in [1, 2, 1, 2] {
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(server.resize_workers(target), target);
    }
    for (i, ticket) in client.join().expect("client").into_iter().enumerate() {
        let response = ticket.wait_timeout(HUNG).expect("a ticket hung across the resize");
        assert_eq!(response.expect("served").logits, serial[i % serial.len()], "request {i}");
    }
    assert_eq!(server.worker_target(), 2);
    let server = Arc::into_inner(server).expect("the client is gone");
    let stats = shut_down(server, false);
    assert_eq!((stats.completed, stats.failed, stats.shed), (REQUESTS as u64, 0, 0));
}

/// Fails on the parent of this change: `try_wait` consumed the failure
/// and returned `None` forever.
#[test]
fn polling_a_failed_ticket_reports_why() {
    let (server, test) = start(ServeConfig::default().with_workers(1));
    let options = SubmitOptions::new().with_deadline(Duration::ZERO);
    let ticket = server.submit_with("m", test.image(0).clone(), options).expect("admitted");
    let start = Instant::now();
    let resolution = loop {
        if let Some(resolution) = ticket.try_wait() {
            break resolution;
        }
        assert!(start.elapsed() < HUNG, "the poll never saw the resolution");
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(resolution.map(drop), Err(WaitError::DeadlineExceeded));
    // The one resolution was handed out; only the hang-up is left.
    assert_eq!(ticket.try_wait().map(|r| r.map(drop)), Some(Err(WaitError::Disconnected)));
    server.shutdown();
}
