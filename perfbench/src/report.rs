//! What a run reports: conditions, end-to-end metrics and per-layer
//! metrics, plus the helpers the workloads share to derive them.

use std::collections::BTreeMap;
use std::time::Duration;

use sqlpp::Engine;

use crate::fatal;
use crate::stats::{peak_rss_mb, OpLog, Samples};
use crate::trace::Recorder;
use crate::Ctx;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarizes, when it is a timing.
    pub samples: Option<usize>,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub conditions: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    pub fn timing(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: Some(n),
        });
    }

    pub fn condition(&mut self, key: &'static str, value: impl ToString) {
        self.conditions.push((key, value.to_string()));
    }
}

impl Outcome {
    /// The end-to-end metrics of an untraced phase; reads peak RSS first,
    /// before any post-processing allocates. `read` selects the op kinds
    /// that are reads. With `rate_window`, throughput is the median over
    /// windows of that length, otherwise over the whole phase; likewise
    /// `tail_window` for the read tail (a window must then hold far more
    /// than ten reads beyond the `tail` quantile).
    pub fn end_to_end(
        &mut self,
        setup: &mut Samples,
        log: &OpLog,
        read: impl Fn(u8) -> bool,
        tail: f64,
        rate_window: Option<Duration>,
        tail_window: Option<Duration>,
    ) {
        self.metric("peak_rss_mb", peak_rss_mb(), "MB");
        self.timing("setup_s", setup.median_us() / 1e6, "s", setup.len());
        let throughput = rate_window.map_or_else(|| log.throughput(), |w| log.median_rate(w));
        self.metric("throughput_ops", throughput, "ops/s");
        let completed = (log.attempted - log.failed) as usize;
        self.timing("query_geomean_ms", log.geomean_ms(), "ms", completed);
        self.timing("cpu_us_per_op", log.cpu_us_per_op(), "us", completed);
        let mut reads = log.samples(read);
        let read_tail = match tail_window {
            Some(w) => log.median_window_quantile_us(w, tail),
            None => reads.quantile_us(tail),
        };
        self.timing("read_p50_us", reads.median_us(), "us", reads.len());
        self.timing("read_tail_us", read_tail, "us", reads.len());
        self.condition("tail_percentile", format!("p{}", (tail * 100.0).round()));
        if let Some(w) = rate_window {
            self.condition("throughput_window_s", w.as_secs_f64());
        }
        if let Some(w) = tail_window {
            self.condition("read_tail_window_s", w.as_secs_f64());
        }
        self.attempted += log.attempted;
        self.failed += log.failed;
    }

    /// Counts a traced phase and reports `bench.trace_overhead_pct`: how
    /// much slower it ran than the untraced one, compared through the
    /// geometric mean of per-kind median latencies so that the halves'
    /// different op mixes do not count as overhead.
    pub fn traced(&mut self, untraced: &OpLog, traced: &OpLog) {
        self.attempted += traced.attempted;
        self.failed += traced.failed;
        let overhead = 100.0 * (traced.geomean_ms() / untraced.geomean_ms() - 1.0);
        self.metric("bench.trace_overhead_pct", overhead, "%");
    }
}

pub fn samples_of(ns: impl Iterator<Item = u64>) -> Samples {
    let mut s = Samples::default();
    ns.for_each(|n| s.push(Duration::from_nanos(n)));
    s
}

/// Prints each layer's share of the traced ops' self time.
pub fn report_layers(out: &mut Outcome, rec: &Recorder) {
    let (layers, wall) = rec.layer_self_ns();
    let total: u64 = layers.values().sum();
    for (layer, ns) in layers {
        out.condition(
            "trace_self_time",
            format!(
                "{layer} {:.3}s ({:.1}%)",
                ns as f64 / 1e9,
                100.0 * ns as f64 / wall.max(1) as f64
            ),
        );
    }
    out.condition(
        "trace_self_time_total",
        format!(
            "{:.3}s of {:.3}s op wall time",
            total as f64 / 1e9,
            wall as f64 / 1e9
        ),
    );
}

pub fn write_trace(ctx: &Ctx, workload: &str, rec: &Recorder) {
    let path = ctx.out_dir.join(format!("trace-{workload}.jsonl"));
    match rec.write_jsonl(&path) {
        Ok(()) => println!(
            "trace written to {} ({} spans)",
            path.display(),
            rec.spans().len()
        ),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Operator counters from one `query_with_stats` per query text, summed.
/// The stats path runs without the fused scan→filter→project spine, so
/// these count the work of the plan, not the time of the default path.
pub fn eval_counters(out: &mut Outcome, engine: &Engine, texts: impl Iterator<Item = String>) {
    let mut sum: BTreeMap<&'static str, u64> = BTreeMap::new();
    for text in texts {
        let r = engine
            .query_with_stats(&text)
            .unwrap_or_else(|e| fatal("eval counters", &format!("{text}: {e}")));
        let st = r.stats().expect("query_with_stats attaches stats");
        for (k, v) in [
            ("eval.rows_scanned", st.rows_scanned),
            ("eval.groups_built", st.groups_built),
            ("eval.join_probes", st.join_probes),
            ("eval.join_build_rows", st.join_build_rows),
            ("eval.peak_live_bindings", st.peak_live_bindings),
            ("eval.subquery_invocations", st.subquery_invocations),
            ("eval.exprs_compiled", st.exprs_compiled),
            ("eval.exprs_fallback", st.exprs_fallback),
        ] {
            *sum.entry(k).or_default() += v;
        }
    }
    let compiled = sum["eval.exprs_compiled"] as f64;
    let total = compiled + sum["eval.exprs_fallback"] as f64;
    for (k, v) in sum {
        out.metric(k, v as f64, "count");
    }
    out.metric(
        "eval.bytecode_ratio",
        if total > 0.0 { compiled / total } else { 0.0 },
        "ratio",
    );
}
