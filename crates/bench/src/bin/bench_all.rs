//! Runs every benchmark suite into one report (`BENCH_<name>.json`).
//!
//! ```text
//! cargo run --release -p sqlpp-bench --bin bench_all             # full sweep
//! cargo run --release -p sqlpp-bench --bin bench_all -- --quick  # CI smoke
//! ```

use sqlpp_testkit::bench::{BenchConfig, Harness};

fn main() {
    let (cfg, name) = BenchConfig::from_args("seed");
    let mut h = Harness::new(name, cfg);
    for (suite, run) in sqlpp_bench::suites::all() {
        eprintln!("== {suite} ==");
        run(&mut h);
    }
    let path = h.finish().expect("failed to write bench report");
    eprintln!("wrote {}", path.display());
}
