//! Order statistics over latency samples.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q`-quantile (0..=1) in microseconds, by linear interpolation;
    /// 0 when there are no samples.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.sort();
        quantile(&self.ns, q) / 1e3
    }

    pub fn median_us(&mut self) -> f64 {
        self.quantile_us(0.5)
    }

    pub fn mean_us(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.ns.iter().map(|&n| n as f64).sum::<f64>() / self.ns.len() as f64 / 1e3
    }
}

/// Linear-interpolated quantile of sorted values.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0] as f64,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
        }
    }
}

/// The operations of one closed-loop phase, by completion time.
///
/// The buffer for `capacity` operations is allocated and written up
/// front, so the benchmark's own memory does not grow with the op rate
/// and `peak_rss_mb` (read when the phase ends) does not follow it.
#[derive(Debug)]
pub struct OpLog {
    start: Instant,
    /// (completion offset from `start` in µs, latency in ns, op kind).
    ops: Vec<(u32, u32, u8)>,
    pub attempted: u64,
    pub failed: u64,
    pub wall: Duration,
    /// On-CPU time of the whole process (every thread) over the phase.
    pub process_cpu: Duration,
    /// On-CPU time the caller spent outside `start_op`…`stop_op`: the
    /// benchmark's own work (op generation, answer checks).
    pub caller_cpu_outside: Duration,
    process_cpu0: Duration,
    thread_cpu0: Duration,
    /// The caller's on-CPU time inside `start_op`…`stop_op`.
    caller_cpu_inside: Duration,
    op_cpu0: Duration,
}

impl OpLog {
    pub fn new(start: Instant, capacity: usize) -> Self {
        // Non-zero fill: zeroed memory would stay unmapped until used.
        let mut ops = vec![(1, 1, 1); capacity];
        ops.clear();
        OpLog {
            start,
            ops,
            attempted: 0,
            failed: 0,
            wall: Duration::ZERO,
            process_cpu: Duration::ZERO,
            caller_cpu_outside: Duration::ZERO,
            process_cpu0: cpu_time(Clock::Process),
            thread_cpu0: cpu_time(Clock::Thread),
            caller_cpu_inside: Duration::ZERO,
            op_cpu0: Duration::ZERO,
        }
    }

    /// Starts one op on the calling thread (the log's own caller). What
    /// runs until `stop_op` is the system's work: its on-CPU time counts
    /// towards `cpu_us_per_op`.
    pub fn start_op(&mut self) -> Instant {
        self.op_cpu0 = cpu_time(Clock::Thread);
        Instant::now()
    }

    /// Ends the op begun by `start_op` at `t`; returns its latency.
    pub fn stop_op(&mut self, t: Instant) -> Duration {
        let d = t.elapsed();
        self.caller_cpu_inside += cpu_time(Clock::Thread).saturating_sub(self.op_cpu0);
        d
    }

    /// Whether `secs` have passed since the phase started.
    pub fn done(&self, secs: f64) -> bool {
        self.start.elapsed().as_secs_f64() >= secs
    }

    /// Records one attempted op: its latency, or `None` if it failed.
    pub fn record(&mut self, kind: u8, latency: Option<Duration>) {
        self.attempted += 1;
        match latency {
            Some(d) => self.ops.push((
                self.start.elapsed().as_micros() as u32,
                u32::try_from(d.as_nanos()).unwrap_or(u32::MAX),
                kind,
            )),
            None => self.failed += 1,
        }
    }

    pub fn finish(&mut self) {
        self.wall = self.start.elapsed();
        self.process_cpu = cpu_time(Clock::Process).saturating_sub(self.process_cpu0);
        self.caller_cpu_outside = cpu_time(Clock::Thread)
            .saturating_sub(self.thread_cpu0)
            .saturating_sub(self.caller_cpu_inside);
    }

    /// Folds in another caller's log of the same phase. The callers ran
    /// side by side, so the process time is the longest caller's, while
    /// each caller's own work outside its ops adds up.
    pub fn merge(&mut self, other: OpLog) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall = self.wall.max(other.wall);
        self.process_cpu = self.process_cpu.max(other.process_cpu);
        self.caller_cpu_outside += other.caller_cpu_outside;
        self.ops.extend(other.ops);
    }

    /// On-CPU time of the whole process per completed op, in µs, less
    /// the callers' own work between ops: what the system under test
    /// spent on the CPU (server workers included) for each op.
    pub fn cpu_us_per_op(&self) -> f64 {
        let cpu = self.process_cpu.saturating_sub(self.caller_cpu_outside);
        cpu.as_secs_f64() * 1e6 / self.ops.len().max(1) as f64
    }

    pub fn samples(&self, keep: impl Fn(u8) -> bool) -> Samples {
        let mut s = Samples::default();
        for &(_, lat, kind) in &self.ops {
            if keep(kind) {
                s.push(Duration::from_nanos(u64::from(lat)));
            }
        }
        s
    }

    pub fn per_kind(&self) -> BTreeMap<u8, Samples> {
        let mut m: BTreeMap<u8, Samples> = BTreeMap::new();
        for &(_, lat, kind) in &self.ops {
            m.entry(kind)
                .or_default()
                .push(Duration::from_nanos(u64::from(lat)));
        }
        m
    }

    /// Geometric mean over op kinds of each kind's median latency, in ms.
    pub fn geomean_ms(&self) -> f64 {
        let medians: Vec<f64> = self
            .per_kind()
            .values_mut()
            .map(|s| s.median_us() / 1e3)
            .collect();
        geomean(&medians)
    }

    /// Completed ops per second over the whole phase.
    pub fn throughput(&self) -> f64 {
        self.ops.len() as f64 / self.wall.as_secs_f64()
    }

    /// Per full window of `window`: (ops/s, latency `q`-quantile in µs).
    fn windows(&self, window: Duration, q: f64) -> Vec<(f64, f64)> {
        let w = window.as_micros() as u64;
        let full = (self.wall.as_micros() as u64 / w) as usize;
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); full];
        for &(end, lat, _) in &self.ops {
            if let Some(b) = buckets.get_mut((u64::from(end) / w) as usize) {
                b.push(u64::from(lat));
            }
        }
        buckets
            .into_iter()
            .map(|mut b| {
                b.sort_unstable();
                (b.len() as f64 / window.as_secs_f64(), quantile(&b, q) / 1e3)
            })
            .collect()
    }

    /// Median over full windows of the completion rate (ops/s), so that a
    /// short stall on the shared machine does not move it; the whole-phase
    /// rate when the phase is shorter than one window.
    pub fn median_rate(&self, window: Duration) -> f64 {
        let rates: Vec<f64> = self.windows(window, 0.5).iter().map(|w| w.0).collect();
        if rates.is_empty() {
            return self.throughput();
        }
        median(&rates)
    }

    /// Median over full windows of each window's `q`-quantile latency (µs).
    pub fn median_window_quantile_us(&self, window: Duration, q: f64) -> f64 {
        let tails: Vec<f64> = self.windows(window, q).iter().map(|w| w.1).collect();
        median(&tails)
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Geometric mean of positive values (0 when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

// `cpu_time` passes the 64-bit Linux `timespec` layout to libc.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench runs on 64-bit Linux only (it reads /proc and calls clock_gettime)");

#[derive(Debug, Clone, Copy)]
pub enum Clock {
    /// Every thread of this process.
    Process,
    /// The calling thread.
    Thread,
}

/// On-CPU time so far (`clock_gettime` with `CLOCK_PROCESS_CPUTIME_ID` or
/// `CLOCK_THREAD_CPUTIME_ID`). Unlike wall time it leaves out time spent
/// waiting: for a run queue, for the disk, or for the host of a virtual
/// machine to run its vCPU again (steal time, on kernels that account it).
pub fn cpu_time(clock: Clock) -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    let id = match clock {
        Clock::Process => 2, // CLOCK_PROCESS_CPUTIME_ID
        Clock::Thread => 3,  // CLOCK_THREAD_CPUTIME_ID
    };
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (64-bit Linux layout),
    // and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[10, 20, 30, 40, 50], 0.5), 30.0);
        assert_eq!(quantile(&[10, 20], 0.5), 15.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn windows_drop_the_partial_tail_and_take_medians() {
        let start = Instant::now() - Duration::from_millis(1000);
        let mut log = OpLog::new(start, 4);
        // Completion offsets cannot be forged through `record`, so fill
        // the buffer directly: window 0 holds 2 ops, window 1 holds 4,
        // window 2 holds 3, and a partial window must not count.
        for end_ms in [10u32, 20, 110, 120, 130, 140, 210, 220, 230, 310] {
            log.ops.push((end_ms * 1000, 1_000_000, 0));
        }
        log.wall = Duration::from_millis(350);
        let w = Duration::from_millis(100);
        assert_eq!(log.median_rate(w), 30.0);
        assert_eq!(log.median_window_quantile_us(w, 0.99), 1000.0);
        log.record(1, Some(Duration::from_millis(3)));
        log.record(1, None);
        assert_eq!((log.attempted, log.failed), (2, 1));
        assert!((log.geomean_ms() - 3f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn cpu_per_op_leaves_out_the_callers_own_work() {
        let spin = |d: Duration| {
            let t = cpu_time(Clock::Thread);
            while cpu_time(Clock::Thread) - t < d {}
        };
        let mut log = OpLog::new(Instant::now(), 2);
        for _ in 0..2 {
            let t = log.start_op();
            spin(Duration::from_millis(20));
            let d = log.stop_op(t);
            spin(Duration::from_millis(40)); // the benchmark's own work
            log.record(0, Some(d));
        }
        log.finish();
        assert!(log.process_cpu >= Duration::from_millis(120));
        assert!(log.caller_cpu_outside >= Duration::from_millis(80));
        let per_op = log.cpu_us_per_op();
        assert!((20_000.0..30_000.0).contains(&per_op), "{per_op}");
    }
}
