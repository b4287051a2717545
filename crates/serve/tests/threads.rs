//! Thread census, alone in its test binary so no other test's server
//! shares the process: a started server owns its workers and their
//! supervisor — and no batcher thread, since idle workers form their own
//! batches.

#![cfg(target_os = "linux")]

use cc_dataset::SyntheticSpec;
use cc_deploy::{identity_groups, DeployedNetwork};
use cc_nn::models::{lenet5_shift, ModelConfig};
use cc_serve::{ModelRegistry, ServeConfig, Server};

/// Names of this process's threads starting with `prefix`, as the kernel
/// keeps them (truncated to 15 bytes).
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

#[test]
fn a_started_server_owns_its_workers_a_supervisor_and_no_batcher() {
    const WORKERS: usize = 3;
    let (train, test) =
        SyntheticSpec::mnist_like().with_size(8, 8).with_samples(16, 4).generate(3);
    let net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
    let deployed = DeployedNetwork::build(&net, &identity_groups(&net), &train);
    let server = Server::start(
        ModelRegistry::new().with_model("m", deployed),
        ServeConfig::default().with_workers(WORKERS),
    );
    // Served traffic spawns nothing either.
    assert!(server.submit("m", test.image(0).clone()).expect("admitted").wait().is_some());
    assert_eq!(threads_named("cc-serve-worker"), WORKERS);
    assert_eq!(threads_named("cc-serve-superv"), 1);
    assert_eq!(threads_named("cc-serve-batche"), 0);
    assert_eq!(threads_named("cc-serve-"), WORKERS + 1);
    server.shutdown();
    assert_eq!(threads_named("cc-serve-"), 0, "shutdown joins every thread");
}
