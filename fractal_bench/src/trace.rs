//! Bench-side spans around the calls into each layer. Spans are kept in
//! memory and written as JSON lines when the run ends. End-to-end metrics
//! always come from runs with the tracer off.

use crate::util::json_str;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or -1 for a root.
    pub parent: i64,
    /// The job the span belongs to, or -1 for set-up.
    pub job: i64,
}

pub struct Tracer {
    origin: Instant,
    on: bool,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, on: bool) -> Self {
        Tracer {
            origin,
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A disabled tracer: `span` only calls through.
    pub fn off() -> Self {
        Tracer::new(Instant::now(), false)
    }

    /// A tracer for another thread of the same run.
    pub fn fork(&self) -> Self {
        Tracer::new(self.origin, self.on)
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, job: i64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().map_or(-1, |&p| p as i64),
            job,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Adds a child of the open span from a duration the program itself
    /// reported (a `JobReport`'s busy or steal time per core), since the
    /// bench cannot see inside the call. Reported children are laid end to
    /// end from the parent's start and clipped to the time elapsed, so the
    /// parent's self time stays the part no report accounts for.
    pub fn reported(&mut self, name: &'static str, dur_ns: u64) {
        let Some(&parent) = self.open.last().filter(|_| self.on) else {
            return;
        };
        let used: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == parent as i64)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let start_ns = self.spans[parent].start_ns + used;
        let end_ns = (start_ns + dur_ns).min(self.now_ns()).max(start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: parent as i64,
            job: self.spans[parent].job,
        });
    }

    /// Appends another thread's spans.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as i64;
        for mut s in other.spans {
            if s.parent >= 0 {
                s.parent += base;
            }
            self.spans.push(s);
        }
    }

    /// Self time (span minus children) summed by span name, in seconds,
    /// over spans that belong to a job.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<i128> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i128)
            .collect();
        for s in &self.spans {
            if s.parent >= 0 {
                own[s.parent as usize] -= (s.end_ns - s.start_ns) as i128;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            if s.job >= 0 {
                *by_name.entry(s.name).or_insert(0.0) += ns.max(0) as f64 / 1e9;
            }
        }
        by_name
    }

    /// Total duration of the spans named `name` that belong to a timed
    /// job, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.job >= 0)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"job\": {}}}",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.parent,
                s.job
            )?;
        }
        w.flush()
    }
}
