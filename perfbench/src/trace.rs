//! In-memory spans recorded by the benchmark around calls into each
//! crate's public functions.
//!
//! A span has a name, a parent, a request id shared by every span of one
//! operation, and start/end offsets from the recorder's origin. A
//! layer's self time is its span's duration minus the time its child
//! spans cover. Spans stay in memory until [`Spans::write`] dumps them
//! as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Clone, Debug)]
struct SpanRec {
    name: &'static str,
    parent: Option<SpanId>,
    req: u64,
    start_ns: u64,
    end_ns: u64,
}

/// A span recorder for one thread of the benchmark.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    recs: Vec<SpanRec>,
}

/// Aggregate over every span of one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: f64,
    pub self_ns: f64,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            recs: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.recs.push(SpanRec {
            name,
            parent,
            req,
            start_ns,
            end_ns: start_ns,
        });
        self.recs.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.recs[id].end_ns = self.now_ns();
    }

    /// Records `f` as a leaf span and returns its result.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, req);
        let r = f();
        self.end(id);
        r
    }

    /// Records a span measured elsewhere (a phase a report timed), placed
    /// at the start of `parent`.
    pub fn record(&mut self, name: &'static str, parent: SpanId, dur_ns: u64) {
        let p = &self.recs[parent];
        let (req, start_ns) = (p.req, p.start_ns);
        self.recs.push(SpanRec {
            name,
            parent: Some(parent),
            req,
            start_ns,
            end_ns: start_ns.saturating_add(dur_ns),
        });
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.recs.len()];
        for r in &self.recs {
            if let Some(p) = r.parent {
                child_ns[p] += r.end_ns - r.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (r, kids) in self.recs.iter().zip(child_ns) {
            let dur = r.end_ns - r.start_ns;
            let t = out.entry(r.name).or_default();
            t.count += 1;
            t.total_ns += dur as f64;
            t.self_ns += dur.saturating_sub(kids) as f64;
        }
        out
    }

    /// Writes every span as one JSON object per line under `.bench_out/`.
    pub fn write(&self, file: &str) -> Result<String, String> {
        let dir = std::path::Path::new(".bench_out");
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(file);
        let f =
            std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(f);
        for (i, r) in self.recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                r.name, r.req, r.start_ns, r.end_ns
            )
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        w.flush()
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(path.display().to_string())
    }
}
