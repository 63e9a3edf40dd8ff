//! `perfbench` — the repository benchmark for the sqlpp engine.
//!
//! ```text
//! perfbench --workload <analytics|serve_mix|durable_writes> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! perfbench --self-test
//! ```
//!
//! Each workload is a seeded closed loop: the seed fixes the generated
//! data and the op stream, and every answer is checked against an oracle
//! computed in plain Rust (a mismatch aborts with exit code 3). The run
//! prints its conditions, its op-stream digest and every metric by name
//! and unit, then, as its last line, one JSON object with all metrics.
//! With `--trace 0` the metrics are the end-to-end ones; `--trace 1`
//! additionally splits the run into an untraced and a traced half,
//! times the calls into each layer from outside the program, and adds
//! the per-layer metrics (`metrics.json` beside this package lists which
//! end-to-end metric each should move).

mod analytics;
mod check;
mod durable_writes;
mod report;
mod serve_mix;
mod stats;
mod trace;

pub use report::Outcome;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;

/// Run parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where traces and scratch directories go (inside the checkout).
    pub out_dir: PathBuf,
}

/// Scratch directories that an aborted run removes before it exits.
static ABORT_CLEANUP: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

pub fn remove_on_abort(dir: PathBuf) {
    ABORT_CLEANUP
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(dir);
}

/// Prints an oracle mismatch and aborts the run: a wrong answer is never
/// counted as a failed operation.
pub fn mismatch(what: &str, detail: &str) -> ! {
    abort(&format!("ORACLE MISMATCH in {what}: {detail}"))
}

/// Aborts a run that cannot go on (a lost connection, a refused warm-up).
pub fn fatal(what: &str, detail: &str) -> ! {
    abort(&format!("{what} failed: {detail}"))
}

fn abort(msg: &str) -> ! {
    eprintln!("{msg}");
    for dir in ABORT_CLEANUP
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
    {
        let _ = std::fs::remove_dir_all(dir);
    }
    std::process::exit(3);
}

fn parse_args() -> Result<(String, Ctx, bool), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut out_dir = PathBuf::from(".bench_out");
    let mut self_test = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => out_dir = PathBuf::from(val()?),
            "--self-test" => self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let workload = match (workload, self_test) {
        (Some(w), _) => w,
        (None, true) => String::new(),
        (None, false) => return Err("--workload is required".into()),
    };
    Ok((
        workload,
        Ctx {
            seed,
            seconds,
            trace,
            out_dir,
        },
        self_test,
    ))
}

/// Same seed, same op-stream digest; another seed, another digest.
fn self_test() -> Result<(), String> {
    type DigestFn = fn(u64) -> String;
    let workloads: [(&str, DigestFn); 3] = [
        ("analytics", analytics::digest),
        ("serve_mix", serve_mix::digest),
        ("durable_writes", durable_writes::digest),
    ];
    for (name, digest) in workloads {
        let (a, b, c) = (digest(7), digest(7), digest(8));
        if a != b {
            return Err(format!("{name}: seed 7 gave digests {a} and {b}"));
        }
        if a == c {
            return Err(format!("{name}: seeds 7 and 8 share digest {a}"));
        }
        println!("self-test {name}: seed 7 -> {a} (twice), seed 8 -> {c}");
    }
    Ok(())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let (workload, ctx, want_self_test) = match parse_args() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if want_self_test {
        return match self_test() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("self-test failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut out = match workload.as_str() {
        "analytics" => analytics::run(&ctx),
        "serve_mix" => serve_mix::run(&ctx),
        "durable_writes" => durable_writes::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    out.condition(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    out.condition(
        "build",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.metric("failed_ratio", failed_ratio, "ratio");

    println!(
        "workload {workload} seed {} seconds {} trace {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    for (k, v) in &out.conditions {
        println!("condition {k} = {v}");
    }
    for m in &out.metrics {
        match m.samples {
            Some(n) => println!("metric {} = {:.6} {} (n={n})", m.name, m.value, m.unit),
            None => println!("metric {} = {:.6} {}", m.name, m.value, m.unit),
        }
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
