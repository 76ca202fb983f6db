//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start and an end relative
//! to the recorder's creation, its parent span, and the id of the
//! operation it belongs to. Spans whose interval the benchmark cannot
//! observe directly — execution inside a service call, known only from
//! the engine's `QueryTrace` — are imported as children that end where
//! their parent ends. Nothing is written until [`Spans::write`] at the
//! end of the run; a disabled recorder records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

struct Span {
    op: u64,
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// A handle to an open span (`None` when recording is off).
#[must_use]
pub struct Open(Option<usize>);

pub struct Spans {
    on: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next operation: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open` and returns its duration (zero when off).
    pub fn exit(&mut self, open: &Open) -> Duration {
        let Some(id) = open.0 else {
            return Duration::ZERO;
        };
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        Duration::from_nanos(end - span.start_ns)
    }

    /// Imports a child of the closed span `parent` lasting `dur` and
    /// ending where its parent ends (clamped to the parent's interval).
    pub fn import(&mut self, parent: &Open, name: &'static str, dur: Duration) {
        let Some(p) = parent.0 else {
            return;
        };
        let (p_start, p_end, op) = (
            self.spans[p].start_ns,
            self.spans[p].end_ns,
            self.spans[p].op,
        );
        let start = p_end.saturating_sub(dur.as_nanos() as u64).max(p_start);
        self.spans.push(Span {
            op,
            name,
            parent: Some(p),
            start_ns: start,
            end_ns: p_end,
        });
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self time per layer in nanoseconds: each span's duration minus
    /// the part its children cover, summed by layer (the name before
    /// the first `.`).
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *by_layer.entry(layer).or_insert(0) += own;
        }
        by_layer
    }

    /// Writes every span as one JSON line, then a summary of self time
    /// per layer and operation, and prints the summary on standard
    /// error.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if !self.on {
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\": {i}, \"op\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        let ops = self.op.max(1) as f64;
        let summary = self
            .self_ns_by_layer()
            .into_iter()
            .map(|(layer, ns)| format!("\"{layer}\": {:.4}", ns as f64 / 1e6 / ops))
            .collect::<Vec<_>>()
            .join(", ");
        writeln!(f, "{{\"self_ms_per_op\": {{{summary}}}}}")?;
        f.flush()?;
        eprintln!("perfbench: self time per layer, ms per operation: {{{summary}}}");
        Ok(())
    }
}
