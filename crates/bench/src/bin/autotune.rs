//! The self-tuning controller against a grid of static serving configs
//! over a phased load schedule (interactive trickle → saturating burst →
//! steady stream). Run with `--release`; set `CC_SCALE=full` for a longer
//! run.

fn main() {
    let scale = cc_bench::scale::Scale::from_env();
    let tables = cc_bench::experiments::autotune::run(&scale);
    cc_bench::emit("serve_autotune", &tables);
}
