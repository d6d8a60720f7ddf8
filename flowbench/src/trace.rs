//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a limscan layer, kept in memory, and written out as JSONL when the run
//! ends. A span's self time is its duration minus the part its child spans
//! cover; children of one span never overlap, because each recorder
//! belongs to one thread.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Identifier shared by every span of one run or one served job.
    pub trace: u64,
    /// Recorder-unique id (1-based).
    pub id: u64,
    /// Enclosing span id, 0 for a root.
    pub parent: u64,
    /// Layer or glue name, e.g. `"atpg.seq"`.
    pub name: &'static str,
    /// Microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Microseconds since the recorder's epoch.
    pub end_us: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1e6
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    open: Vec<Span>,
    done: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`; ids start at
    /// `first_id` so recorders on different threads never collide.
    pub fn new(epoch: Instant, first_id: u64) -> Self {
        Tracer {
            enabled: true,
            epoch,
            next_id: first_id.max(1),
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    /// A recorder that records nothing, for untraced runs of code that
    /// is written against a tracer.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now(), 1)
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, trace: u64, name: &'static str) {
        if !self.enabled {
            return;
        }
        let span = Span {
            trace,
            id: self.next_id,
            parent: self.open.last().map_or(0, |s| s.id),
            name,
            start_us: self.now_us(),
            end_us: 0,
        };
        self.next_id += 1;
        self.open.push(span);
    }

    /// Closes the innermost open span and returns its duration in seconds
    /// (0 when the recorder is off).
    pub fn end(&mut self) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let mut span = self.open.pop().expect("end() matches a begin()");
        span.end_us = self.now_us();
        let secs = span.secs();
        self.done.push(span);
        secs
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, trace: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(trace, name);
        let out = f();
        self.end();
        out
    }

    /// Every finished span, in completion order.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans left open");
        self.done
    }
}

/// Self time per span name in seconds, over spans recorded by one or more
/// single-threaded recorders.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_us.entry(s.parent).or_default() += s.end_us - s.start_us;
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = (s.end_us - s.start_us).saturating_sub(child_us.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.name).or_default() += own as f64 / 1e6;
    }
    out
}

/// Writes `spans` as one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::new();
    for s in spans {
        let _ = writeln!(
            text,
            "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
            s.trace, s.id, s.parent, s.name, s.start_us, s.end_us
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_us: u64, end_us: u64) -> Span {
        Span {
            trace: 1,
            id,
            parent,
            name,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(2, 1, "atpg.seq", 10, 60),
            span(3, 1, "compact.omit", 60, 90),
            span(1, 0, "unit", 0, 100),
        ];
        let t = self_times(&spans);
        assert_eq!(t["unit"], 20e-6);
        assert_eq!(t["atpg.seq"], 50e-6);
        assert_eq!(t["compact.omit"], 30e-6);
    }

    #[test]
    fn recorder_nests_spans() {
        let mut tr = Tracer::new(Instant::now(), 1);
        tr.begin(7, "outer");
        tr.time(7, "inner", || ());
        tr.end();
        let spans = tr.into_spans();
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[1].parent, 0);
    }
}
