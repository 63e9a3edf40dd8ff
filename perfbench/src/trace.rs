//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions, kept in memory, and written out as JSON
//! lines when the run ends. A span's *self time* is its duration minus
//! the part of it that its child spans cover; the layer of a span is the
//! part of its name before the first `.`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One caller thread's spans. Spans nest strictly: `exit` closes the
/// innermost open span.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, op: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let end = self.now_ns();
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = end;
        self.spans[i].dur_ns()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, op);
        let out = f();
        self.exit();
        out
    }

    /// Moves another recorder's spans into this one (same origin).
    pub fn absorb(&mut self, other: Recorder) {
        assert!(
            other.open.is_empty(),
            "absorbing a recorder with open spans"
        );
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in ns.
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| {
                assert!(c <= s.dur_ns(), "children of {} outlast it", s.name);
                s.dur_ns() - c
            })
            .collect()
    }

    /// Per-layer self time (ns) summed over every span, plus the summed
    /// wall time of the root spans. Asserts that the self times of each
    /// root's tree add up to at most that root's wall time.
    pub fn layer_self_ns(&self) -> (BTreeMap<&'static str, u64>, u64) {
        let selfs = self.self_times();
        let mut root_of = vec![0usize; self.spans.len()];
        let mut tree_self = vec![0u64; self.spans.len()];
        let mut layers = BTreeMap::new();
        let mut root_wall = 0u64;
        // Parents always precede their children.
        for (i, s) in self.spans.iter().enumerate() {
            root_of[i] = s.parent.map_or(i, |p| root_of[p]);
            tree_self[root_of[i]] += selfs[i];
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *layers.entry(layer).or_insert(0) += selfs[i];
            if s.parent.is_none() {
                root_wall += s.dur_ns();
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() {
                assert!(
                    tree_self[i] <= s.dur_ns(),
                    "self times of op {} exceed its wall time",
                    s.op
                );
            }
        }
        (layers, root_wall)
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> impl Iterator<Item = u64> + '_ {
        let name = name.to_string();
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(Span::dur_ns)
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(Instant::now());
        r.enter("bench.op", 1);
        r.span("syntax.parse", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.span("eval.run", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        let wall = r.exit();
        let selfs = r.self_times();
        assert_eq!(selfs.iter().sum::<u64>(), wall);
        assert!(selfs[1] >= 2_000_000 && selfs[2] >= 3_000_000);
        let (layers, root_wall) = r.layer_self_ns();
        assert_eq!(root_wall, wall);
        assert_eq!(layers.values().sum::<u64>(), wall);
        assert_eq!(r.spans()[1].parent, Some(0));
    }
}
