//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each layer
//! (the program itself is not instrumented). Every span carries a name, its
//! layer, start and end, its parent and the request it belongs to. Spans
//! stay in memory and are written out once, when the run ends. A layer's
//! self time is the time its spans cover minus the part their child spans
//! cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The layers spans are attributed to: the workspace modules, plus `host`
/// for the host-speed readings and `bench` for the benchmark's own
/// bookkeeping (the root span's self time).
pub const LAYERS: [&str; 16] = [
    "ir",
    "net",
    "pipeline",
    "symbex",
    "temporal",
    "core",
    "service",
    "cache",
    "diff",
    "json",
    "wire",
    "exec",
    "daemon",
    "conformance",
    "host",
    "bench",
];

struct Span {
    name: &'static str,
    layer: &'static str,
    parent: Option<usize>,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag the spans opened from now on with request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::exit`]. Returns its id.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            parent: self.open.last().copied(),
            request: self.request,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Wall time of the root spans, in ns.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Self time per layer, in ns: each span's duration minus the union of
    /// its children's intervals.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, u64> = LAYERS.iter().map(|l| (*l, 0)).collect();
        for (span, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            *out.entry(span.layer).or_insert(0) += (span.end_ns - span.start_ns) - covered;
        }
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
