//! Runs every experiment in sequence, printing each paper artifact and
//! writing CSVs under `results/`. Run with `--release`.

use cc_bench::experiments as exp;
use cc_bench::scale::Scale;

type Experiment = Box<dyn Fn(&Scale) -> Vec<cc_bench::report::Table>>;

fn main() {
    let scale = Scale::from_env();
    let suite: Vec<(&str, Experiment)> = vec![
        ("fig13a", Box::new(exp::fig13a::run)),
        ("fig13b", Box::new(exp::fig13bc::run_alpha)),
        ("fig13c", Box::new(exp::fig13bc::run_gamma)),
        ("fig14b", Box::new(exp::fig14b::run)),
        ("fig15a", Box::new(exp::fig15a::run)),
        ("fig15b", Box::new(exp::fig15b::run)),
        ("fig16", Box::new(exp::fig16::run)),
        ("table1", Box::new(exp::table1::run)),
        ("table2", Box::new(exp::table2::run)),
        ("table3", Box::new(exp::table3::run)),
        ("sec72", Box::new(exp::sec72::run)),
        ("ablation", Box::new(exp::ablation::run)),
    ];
    for (name, run) in suite {
        eprintln!("[all] running {name} ...");
        let start = std::time::Instant::now();
        let tables = run(&scale);
        cc_bench::emit(name, &tables);
        eprintln!("[all] {name} done in {:.1}s", start.elapsed().as_secs_f32());
    }
}
