//! Pull-based streams: the lazy batch layer under the interpreter.
//!
//! The paper's Pseudocodes 1–2 define clause semantics as *iteration* over
//! binding environments; this module gives the interpreter that shape at
//! runtime with one pull protocol. [`Stream::next_batch`] appends up to
//! `max` rows into a caller-owned buffer in one virtual call, so
//! full-consumption operators (projection, sort fill, aggregation,
//! DISTINCT) amortize dynamic dispatch, governor ticks, and stat
//! increments across ~[`DEFAULT_BATCH_SIZE`] rows. Quota-aware consumers
//! pass a small `max` instead: `LIMIT k` asks for at most the rows it
//! still needs, and `EXISTS`, scalar-subquery coercion, `IN`, and the left
//! side of every join pull through [`pull_one`] — so they stop pulling as
//! soon as they have what they need, and a stream never pulls more than
//! `max` rows per call from its input (the B12 scan-pull guarantees).
//!
//! True pipeline breakers (ORDER BY, GROUP BY, window, DISTINCT, hash-join
//! and set-op build sides) still buffer, but only ever through
//! [`TrackedBuffer`]/[`MatGauge`], which feed the `peak_live_bindings`
//! gauge and per-operator high-water counters in
//! [`crate::ExecStats`] — the future spill point.
//!
//! Protocol: a call that appends zero rows and returns `Ok` means
//! exhaustion; a short batch does not. On `Err` the buffer holds the valid
//! rows produced *before* the error (in pull order), and the stream is
//! finished: consumers must stop pulling, and streams make no promise
//! about what further calls return.

use std::time::Instant;

use sqlpp_plan::CoreOp;
use sqlpp_value::Value;

use crate::env::Env;
use crate::error::EvalError;
use crate::govern::ResourceGovernor;
use crate::stats::StatsCollector;

/// The default unit of pull for full-consumption operators.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Within a batch materialization loop, tick the governor once per this
/// many rows so one huge batch cannot blow past a deadline unchecked.
pub(crate) const BATCH_TICK_ROWS: usize = 64;

/// A pull stream of `T` rows.
pub(crate) trait Stream<T> {
    /// Appends up to `max` rows to `out`. Appending zero rows (with `Ok`)
    /// means the stream is exhausted; fewer than `max` rows does *not*.
    /// On `Err` the rows appended before the error are valid and the
    /// stream is finished.
    fn next_batch(&mut self, out: &mut Vec<T>, max: usize) -> Result<(), EvalError>;
}

impl<T, S: Stream<T> + ?Sized> Stream<T> for Box<S> {
    fn next_batch(&mut self, out: &mut Vec<T>, max: usize) -> Result<(), EvalError> {
        (**self).next_batch(out, max)
    }
}

/// A lazy stream of binding environments.
pub(crate) type BindingStream<'s> = Box<dyn Stream<Env> + 's>;

/// A lazy stream of output values (elements of a bag under construction).
pub(crate) type ValueStream<'s> = Box<dyn Stream<Value> + 's>;

/// Pulls at most one row (`None` once the stream is exhausted): the
/// bounded pull of consumers that must not read ahead. `buf` is scratch
/// the caller reuses across pulls.
pub(crate) fn pull_one<T>(
    stream: &mut (impl Stream<T> + ?Sized),
    buf: &mut Vec<T>,
) -> Result<Option<T>, EvalError> {
    buf.clear();
    stream.next_batch(buf, 1)?;
    Ok(buf.pop())
}

/// Reports its error once, then ends.
struct Failed(Option<EvalError>);

impl<T> Stream<T> for Failed {
    fn next_batch(&mut self, _out: &mut Vec<T>, _max: usize) -> Result<(), EvalError> {
        self.0.take().map_or(Ok(()), Err)
    }
}

/// A stream that has already failed.
pub(crate) fn failed<'s, T: 's>(e: EvalError) -> Box<dyn Stream<T> + 's> {
    Box::new(Failed(Some(e)))
}

/// The empty stream.
pub(crate) fn empty<'s, T: 's>() -> Box<dyn Stream<T> + 's> {
    from_vec(Vec::new())
}

/// Streams an already-materialized vector: a `next_batch` moves a whole
/// chunk without per-row dispatch.
struct VecStream<T> {
    items: std::vec::IntoIter<T>,
}

impl<T> Stream<T> for VecStream<T> {
    fn next_batch(&mut self, out: &mut Vec<T>, max: usize) -> Result<(), EvalError> {
        out.extend(self.items.by_ref().take(max));
        Ok(())
    }
}

/// Streams an already-materialized vector.
pub(crate) fn from_vec<'s, T: 's>(items: Vec<T>) -> Box<dyn Stream<T> + 's> {
    Box::new(VecStream {
        items: items.into_iter(),
    })
}

/// Lazy concatenation (UNION ALL, the grouping-set `Append`): `open(i)`
/// builds part `i`, and is called only once part `i - 1` is exhausted, so
/// a quota met early never constructs the later parts. `open` returns
/// `None` past the last part.
pub(crate) struct Concat<F, S> {
    open: F,
    next: usize,
    cur: Option<S>,
}

impl<F, S> Concat<F, S> {
    pub(crate) fn new(open: F) -> Self {
        Concat {
            open,
            next: 0,
            cur: None,
        }
    }
}

impl<T, S, F> Stream<T> for Concat<F, S>
where
    S: Stream<T>,
    F: FnMut(usize) -> Option<S>,
{
    fn next_batch(&mut self, out: &mut Vec<T>, max: usize) -> Result<(), EvalError> {
        let start = out.len();
        while out.len() - start < max {
            if self.cur.is_none() {
                self.cur = (self.open)(self.next);
                self.next += 1;
            }
            let Some(cur) = &mut self.cur else {
                break;
            };
            let before = out.len();
            cur.next_batch(out, max - (before - start))?;
            if out.len() == before {
                self.cur = None;
            }
        }
        Ok(())
    }
}

/// Keeps the rows `keep` accepts (WHERE; the INTERSECT/EXCEPT ALL probe
/// side). `keep` sees every pulled row exactly once, in pull order. A call
/// re-pulls until something passes or the input is exhausted, so an empty
/// append still means exhaustion; each inner pull asks for at most `max`
/// rows, and every row yields at most one output, so a quota above never
/// makes the input over-pull.
pub(crate) struct Filtered<S, F> {
    inner: S,
    keep: F,
}

impl<S, F> Filtered<S, F> {
    pub(crate) fn new(inner: S, keep: F) -> Self {
        Filtered { inner, keep }
    }
}

impl<T, S, F> Stream<T> for Filtered<S, F>
where
    S: Stream<T>,
    F: FnMut(&T) -> Result<bool, EvalError>,
{
    fn next_batch(&mut self, out: &mut Vec<T>, max: usize) -> Result<(), EvalError> {
        let start = out.len();
        loop {
            let pulled = self.inner.next_batch(out, max);
            let got = out.len() - start;
            // Compact the survivors to the front of the new rows, in order.
            let mut kept = start;
            for i in start..out.len() {
                match (self.keep)(&out[i]) {
                    Ok(true) => {
                        out.swap(kept, i);
                        kept += 1;
                    }
                    Ok(false) => {}
                    Err(e) => {
                        out.truncate(kept);
                        return Err(e);
                    }
                }
            }
            out.truncate(kept);
            pulled?;
            if got == 0 || kept > start {
                return Ok(());
            }
        }
    }
}

/// LIMIT/OFFSET as a stream adapter: skips `offset` rows, then yields at
/// most `limit`, and — crucially — stops *pulling* from its input once the
/// quota is met. Errors pass through without consuming quota. Every inner
/// pull is bounded by `remaining skip + remaining quota`, so batching
/// never over-pulls a limited scan.
pub(crate) struct Limited<I> {
    inner: I,
    skip: usize,
    take: Option<usize>,
}

impl<I> Limited<I> {
    pub(crate) fn new(inner: I, offset: usize, limit: Option<usize>) -> Self {
        Limited {
            inner,
            skip: offset,
            take: limit,
        }
    }
}

impl<I, T> Stream<T> for Limited<I>
where
    I: Stream<T>,
{
    fn next_batch(&mut self, out: &mut Vec<T>, max: usize) -> Result<(), EvalError> {
        let mut produced = 0;
        while produced < max {
            if self.take == Some(0) {
                break;
            }
            let quota = self.take.unwrap_or(max - produced).min(max - produced);
            let want = quota.saturating_add(self.skip);
            let start = out.len();
            let r = self.inner.next_batch(out, want);
            let got = out.len() - start;
            let dropped = self.skip.min(got);
            if dropped > 0 {
                out.drain(start..start + dropped);
                self.skip -= dropped;
            }
            let kept = got - dropped;
            if let Some(t) = &mut self.take {
                *t -= kept.min(*t);
            }
            produced += kept;
            if let Err(e) = r {
                self.take = Some(0);
                return Err(e);
            }
            if got == 0 {
                break;
            }
        }
        Ok(())
    }
}

/// Per-operator instrumentation for a stream: counts rows and batches out
/// and wall time spent inside this operator's pulls (inclusive of
/// children, as the tree renderer expects), recording one "call" when
/// dropped. Only constructed when stats collection is on, so the ordinary
/// path carries no timer at all. A pull pays one timer sample per batch —
/// this is where per-row stat overhead amortizes.
pub(crate) struct Instrumented<'s, I> {
    inner: I,
    stats: &'s StatsCollector,
    key: u32,
    rows: u64,
    batches: u64,
    ns: u64,
    /// The operator is a FROM: its rows also count as `bindings_produced`.
    count_bindings: bool,
}

impl<'s, I> Instrumented<'s, I> {
    pub(crate) fn new(
        inner: I,
        stats: &'s StatsCollector,
        op: &CoreOp,
        count_bindings: bool,
    ) -> Self {
        Instrumented {
            inner,
            stats,
            key: stats.key_for(op),
            rows: 0,
            batches: 0,
            ns: 0,
            count_bindings,
        }
    }
}

impl<'s, I, T> Stream<T> for Instrumented<'s, I>
where
    I: Stream<T>,
{
    fn next_batch(&mut self, out: &mut Vec<T>, max: usize) -> Result<(), EvalError> {
        let start = out.len();
        let t = Instant::now();
        let r = self.inner.next_batch(out, max);
        self.ns += t.elapsed().as_nanos() as u64;
        let got = (out.len() - start) as u64;
        self.rows += got;
        if got > 0 {
            self.batches += 1;
            self.stats.add_batches_produced(1);
        }
        r
    }
}

impl<'s, I> Drop for Instrumented<'s, I> {
    fn drop(&mut self) {
        self.stats.record_op(
            self.key,
            self.rows,
            std::time::Duration::from_nanos(self.ns),
        );
        if self.batches > 0 {
            self.stats.record_op_batches(self.key, self.batches);
        }
        if self.count_bindings {
            self.stats.add_bindings_produced(self.rows);
        }
    }
}

/// A materialization gauge: every row a pipeline breaker holds live is
/// counted into the collector's `peak_live_bindings` high-water mark (and,
/// when the breaker is a plan operator, into that operator's `peak_rows`),
/// and — when a memory budget or fault hook is active — *admitted* through
/// the [`ResourceGovernor`], which can refuse. Refused rows are never
/// counted, so the live total provably stays at or below the budget.
/// Dropping the gauge releases its rows from both accounts — exactly the
/// lifecycle a spill file would have.
pub(crate) struct MatGauge<'s> {
    stats: Option<&'s StatsCollector>,
    govern: Option<&'s ResourceGovernor>,
    key: Option<u32>,
    count: u64,
    /// Estimated bytes admitted through the governor's byte account
    /// (only maintained when a governor is attached — the byte budget is
    /// a governor feature, not a stats feature).
    bytes: u64,
}

impl<'s> MatGauge<'s> {
    pub(crate) fn new(
        stats: Option<&'s StatsCollector>,
        govern: Option<&'s ResourceGovernor>,
        op: Option<&CoreOp>,
    ) -> Self {
        let key = match (stats, op) {
            (Some(st), Some(op)) => Some(st.key_for(op)),
            _ => None,
        };
        MatGauge {
            stats,
            govern,
            key,
            count: 0,
            bytes: 0,
        }
    }

    /// Admits and counts `n` more rows as live in this buffer. On refusal
    /// (budget exceeded or injected fault) nothing is counted and the
    /// caller must not buffer the rows.
    pub(crate) fn add(&mut self, n: u64) -> Result<(), EvalError> {
        self.add_sized(n, 0)
    }

    /// Like [`MatGauge::add`], also admitting `bytes` estimated bytes
    /// through the governor's byte-denominated budget. Refusal on either
    /// account leaves both accounts untouched.
    pub(crate) fn add_sized(&mut self, n: u64, bytes: u64) -> Result<(), EvalError> {
        if let Some(g) = self.govern {
            g.admit(n)?;
            if bytes > 0 {
                if let Err(e) = g.admit_bytes(bytes) {
                    g.release(n);
                    return Err(e);
                }
            }
            self.count += n;
            self.bytes += bytes;
        }
        if let Some(st) = self.stats {
            if self.govern.is_none() {
                self.count += n;
            }
            st.buffer_grow(n);
            if let Some(k) = self.key {
                st.record_peak_rows(k, self.count);
            }
        }
        Ok(())
    }

    /// Releases `n` rows (and `bytes` estimated bytes) from the live
    /// accounts *before* the gauge is dropped — the spill hook: a breaker
    /// that writes part of its working set to disk stops holding those
    /// rows in memory, so the budget sees them leave immediately. The
    /// recorded peaks are unaffected.
    pub(crate) fn remove(&mut self, n: u64, bytes: u64) {
        let n = n.min(self.count);
        let bytes = bytes.min(self.bytes);
        if let Some(st) = self.stats {
            st.buffer_shrink(n);
        }
        if let Some(g) = self.govern {
            g.release(n);
            g.release_bytes(bytes);
        }
        self.count -= n;
        self.bytes -= bytes;
    }
}

impl<'s> Drop for MatGauge<'s> {
    fn drop(&mut self) {
        if let Some(st) = self.stats {
            st.buffer_shrink(self.count);
        }
        if let Some(g) = self.govern {
            g.release(self.count);
            g.release_bytes(self.bytes);
        }
    }
}

/// The one buffer type pipeline breakers materialize through: a `Vec`
/// whose occupancy is tracked (and budget-governed) by a [`MatGauge`].
pub(crate) struct TrackedBuffer<'s, T> {
    items: Vec<T>,
    gauge: MatGauge<'s>,
}

impl<'s, T> TrackedBuffer<'s, T> {
    pub(crate) fn new(
        stats: Option<&'s StatsCollector>,
        govern: Option<&'s ResourceGovernor>,
        op: Option<&CoreOp>,
    ) -> Self {
        TrackedBuffer {
            items: Vec::new(),
            gauge: MatGauge::new(stats, govern, op),
        }
    }

    /// Admits the row through the gauge *before* storing it; a refused
    /// row is dropped and the buffer is unchanged.
    pub(crate) fn push(&mut self, item: T) -> Result<(), EvalError> {
        self.gauge.add(1)?;
        self.items.push(item);
        Ok(())
    }

    /// Releases the rows from the live gauge (their peak is already
    /// recorded) and hands the vector to the caller.
    pub(crate) fn into_vec(self) -> Vec<T> {
        let TrackedBuffer { items, gauge } = self;
        drop(gauge);
        items
    }
}

/// Deadline/cancellation enforcement as a stream adapter: every pull
/// ticks the governor (a counter bump, with a real clock/token inspection
/// only at the amortized interval) before pulling the inner stream, and
/// then once per [`BATCH_TICK_ROWS`] rows the batch produced, so a full
/// batch can never advance the pipeline by more than 64 rows between
/// deadline/cancel observations — while the *real* clock/token inspection
/// still amortizes to roughly once per 4096 rows. Only constructed when a
/// deadline or token is attached, so ungoverned pulls carry no overhead.
/// Fused: after the inner stream ends or errors, no further governor
/// errors are manufactured.
pub(crate) struct Governed<'s, I> {
    inner: I,
    govern: &'s ResourceGovernor,
    done: bool,
}

impl<'s, I> Governed<'s, I> {
    pub(crate) fn new(inner: I, govern: &'s ResourceGovernor) -> Self {
        Governed {
            inner,
            govern,
            done: false,
        }
    }
}

impl<'s, I, T> Stream<T> for Governed<'s, I>
where
    I: Stream<T>,
{
    fn next_batch(&mut self, out: &mut Vec<T>, max: usize) -> Result<(), EvalError> {
        if self.done {
            return Ok(());
        }
        if let Err(e) = self.govern.tick() {
            self.done = true;
            return Err(e);
        }
        let start = out.len();
        let r = self.inner.next_batch(out, max);
        let got = out.len() - start;
        if r.is_err() || got == 0 {
            self.done = true;
        }
        r?;
        if let Err(e) = self.govern.tick_rows(got as u64) {
            self.done = true;
            return Err(e);
        }
        Ok(())
    }
}
