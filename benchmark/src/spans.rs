//! In-memory spans around the benchmark's calls into each layer: name,
//! start, end, parent id. Written out as JSONL when the traced run ends;
//! a disabled tracer records nothing.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    /// `0` for a root span.
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        (at - self.origin).as_nanos() as u64
    }

    /// Opens a span now; returns its id (`0` when disabled).
    pub fn open(&mut self, name: &'static str, parent: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let now = self.ns(Instant::now());
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    pub fn close(&mut self, id: u64) {
        if self.enabled {
            let now = self.ns(Instant::now());
            self.spans[id as usize - 1].end_ns = now;
        }
    }

    /// Records a finished span from timestamps the caller already took.
    pub fn record(&mut self, name: &'static str, parent: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// Per span name: `(count, total seconds, self seconds)`, self time
    /// being a span's duration minus its direct children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut by_name = BTreeMap::new();
        for s in &self.spans {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(child_ns[s.id as usize]);
            let entry = by_name.entry(s.name).or_insert((0, 0.0, 0.0));
            entry.0 += 1;
            entry.1 += total as f64 / 1e9;
            entry.2 += own as f64 / 1e9;
        }
        by_name
    }

    /// One JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
