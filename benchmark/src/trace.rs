//! The recorder every workload drives: op latencies always, boundary spans
//! only on the traced run.
//!
//! A span is recorded around every driver call into a public function of
//! the program: name (`<layer>.<call>`), start, end, parent span and a
//! request id shared by the spans of one request. Spans stay in memory
//! and are written as JSON lines when the run ends. With tracing off the
//! `child` calls cost nothing and `open`/`close` cost two clock reads,
//! which the op latencies need anyway.

use crate::layers::Counters;
use crate::wall;
use std::collections::BTreeMap;
use std::io::Write;

/// "No parent" / "not recorded".
const NONE: u32 = u32::MAX;

/// One closed boundary span; times are nanoseconds since the timed phase
/// began.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub req: u64,
}

/// An open span: hand it back to [`Recorder::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    idx: u32,
    start: u64,
}

impl Open {
    /// A placeholder parent for top-level spans.
    pub const ROOT: Open = Open {
        idx: NONE,
        start: 0,
    };
}

/// Collects what one pass over a workload produces.
#[derive(Debug)]
pub struct Recorder {
    origin: wall::Stamp,
    /// Whether spans are recorded (the traced pass).
    pub traced: bool,
    /// Whether maintenance calls read the public counters around
    /// themselves (the traced run's reference pass).
    pub split_io: bool,
    pub spans: Vec<Span>,
    /// Wall latency of each timed write op, ns.
    pub write_ns: Vec<u64>,
    /// Wall latency of each write op the set-up did (bulk load), ns.
    pub bulk_ns: Vec<u64>,
    /// Wall latency of each timed read op, ns.
    pub read_ns: Vec<u64>,
    /// Virtual latency of each timed primary op, ns.
    pub virt_ns: Vec<u64>,
    /// Wall time of each timed maintenance call, ns.
    pub chore_ns: Vec<u64>,
    /// Public-counter deltas across every maintenance call of the pass,
    /// warm-up included (`split_io`).
    pub chore_io: Counters,
    /// Operations issued (reads, writes, designed conflicts…).
    pub attempted: u64,
    /// Operations that errored, were refused, or returned wrong output.
    pub failed: u64,
    /// Wall time of the timed phase, ns.
    pub wall_ns: u64,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(traced: bool) -> Self {
        Recorder {
            origin: wall::now(),
            traced,
            split_io: false,
            spans: Vec::new(),
            write_ns: Vec::new(),
            bulk_ns: Vec::new(),
            read_ns: Vec::new(),
            virt_ns: Vec::new(),
            chore_ns: Vec::new(),
            chore_io: Counters::default(),
            attempted: 0,
            failed: 0,
            wall_ns: 0,
        }
    }

    fn now(&self) -> u64 {
        wall::ns_since(self.origin)
    }

    /// Open a span under `parent` for request `req`.
    pub fn open(&mut self, name: &'static str, parent: Open, req: u64) -> Open {
        let start = self.now();
        if !self.traced {
            return Open { idx: NONE, start };
        }
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: parent.idx,
            req,
        });
        Open {
            idx: (self.spans.len() - 1) as u32,
            start,
        }
    }

    /// Close `span`; returns its duration in nanoseconds.
    pub fn close(&mut self, span: Open) -> u64 {
        let end = self.now();
        if span.idx != NONE {
            self.spans[span.idx as usize].end = end;
        }
        end - span.start
    }

    /// Close a write op: its latency is a `write_*` sample and it counts
    /// as attempted.
    pub fn close_write(&mut self, span: Open) -> u64 {
        let ns = self.close(span);
        self.write_ns.push(ns);
        self.attempted += 1;
        ns
    }

    /// Close a write op done by the set-up (bulk load): a `write_*` sample
    /// that outlives [`start`](Self::start).
    pub fn close_bulk_write(&mut self, span: Open) {
        let ns = self.close(span);
        self.bulk_ns.push(ns);
        self.attempted += 1;
    }

    /// Close a read op: its latency is a `read_*` sample and it counts as
    /// attempted.
    pub fn close_read(&mut self, span: Open) -> u64 {
        let ns = self.close(span);
        self.read_ns.push(ns);
        self.attempted += 1;
        ns
    }

    /// Run `f` inside a child span. Untraced, this is just `f()`.
    pub fn child<T>(
        &mut self,
        name: &'static str,
        parent: Open,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.traced {
            return f();
        }
        let s = self.open(name, parent, req);
        let out = f();
        self.close(s);
        out
    }

    /// Start the timed phase: restart the clock, forget the samples and
    /// spans of any warm-up operations before it (what they attempted and
    /// failed still counts), and open the pass root — every other span
    /// descends from it, and its self time is the benchmark's own loop.
    pub fn start(&mut self) -> Open {
        self.origin = wall::now();
        self.spans.clear();
        self.write_ns.clear();
        self.read_ns.clear();
        self.virt_ns.clear();
        self.chore_ns.clear();
        self.open("driver.pass", Open::ROOT, 0)
    }

    /// Close the pass root and stamp the pass's wall time.
    pub fn finish(&mut self, pass: Open) {
        self.close(pass);
        self.wall_ns = self.now();
    }

    /// Per span name: `(count, total ns, self ns)`, self being the span's
    /// duration minus what its direct children cover.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end - s.start;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Total nanoseconds inside spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Mean microseconds of the spans called `name`; 0 when there are none.
    pub fn mean_us(&self, name: &str) -> f64 {
        let (mut n, mut total) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.name == name) {
            n += 1;
            total += s.end - s.start;
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e3
        }
    }

    /// Write the spans as JSON lines: one header object, then one object
    /// per span (`id` is the line's index, `parent` an `id` or null).
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut r = Recorder::new(true);
        r.spans = vec![
            Span {
                name: "op",
                start: 0,
                end: 100,
                parent: NONE,
                req: 1,
            },
            Span {
                name: "call",
                start: 10,
                end: 40,
                parent: 0,
                req: 1,
            },
            Span {
                name: "call",
                start: 50,
                end: 90,
                parent: 0,
                req: 1,
            },
        ];
        let by = r.by_name();
        assert_eq!(by["op"], (1, 100, 30));
        assert_eq!(by["call"], (2, 70, 70));
        assert_eq!(r.total_ns("call"), 70);
    }

    #[test]
    fn untraced_recorder_keeps_no_spans() {
        let mut r = Recorder::new(false);
        let op = r.open("op", Open::ROOT, 1);
        let v = r.child("call", op, 1, || 7);
        r.close(op);
        assert_eq!(v, 7);
        assert!(r.spans.is_empty());
    }
}
