//! The benchmark's own spans: one record per call into a layer of the
//! program, kept in memory and written out when the traced run ends.
//!
//! Spans inside the program are a later change; these are recorded from
//! the benchmark's files, around the public functions it calls. With
//! tracing off a [`Tracer`] reads no clock and stores nothing, so the
//! end-to-end repetitions pay nothing for it.

use cwc_obs::json::write_str;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Index of a recorded span, usable as a parent.
pub type SpanId = u32;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
}

#[derive(Debug)]
struct Inner {
    workload: &'static str,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// A cloneable handle both benchmark threads record through. `None`
/// inside means tracing is off.
#[derive(Debug, Clone)]
pub struct Tracer(Option<Arc<Inner>>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer(None)
    }

    /// A recording tracer for `workload`.
    pub fn on(workload: &'static str) -> Self {
        Tracer(Some(Arc::new(Inner {
            workload,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })))
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn scope<R>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        self.scope_id(name, parent, |_| f())
    }

    /// Like [`Tracer::scope`], handing `f` the new span's id so nested
    /// calls can name it as their parent.
    pub fn scope_id<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let Some(inner) = &self.0 else {
            return f(None);
        };
        let start_ns = inner.epoch.elapsed().as_nanos() as u64;
        let id = {
            let mut spans = inner.spans.lock().expect("span store poisoned");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            (spans.len() - 1) as SpanId
        };
        let out = f(Some(id));
        let end_ns = inner.epoch.elapsed().as_nanos() as u64;
        inner.spans.lock().expect("span store poisoned")[id as usize].end_ns = end_ns;
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.0
            .as_ref()
            .map_or(0, |i| i.spans.lock().expect("span store poisoned").len())
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes every span as one JSON object per line:
    /// `{name, start_ns, end_ns, parent, workload}`.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let Some(inner) = &self.0 else {
            return Ok(());
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = inner.spans.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for (id, s) in spans.iter().enumerate() {
            line.clear();
            line.push_str(&format!("{{\"id\": {id}, \"name\": "));
            write_str(&mut line, s.name);
            line.push_str(&format!(
                ", \"start_ns\": {}, \"end_ns\": {}, \"parent\": ",
                s.start_ns, s.end_ns
            ));
            match s.parent {
                Some(p) => line.push_str(&p.to_string()),
                None => line.push_str("null"),
            }
            line.push_str(", \"workload\": ");
            write_str(&mut line, inner.workload);
            line.push_str("}\n");
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.scope("x", None, || 7), 7);
        assert!(t.is_empty());
    }

    #[test]
    fn spans_nest_and_dump_as_jsonl() {
        let t = Tracer::on("unit");
        t.scope_id("outer", None, |outer| {
            t.scope("inner", outer, || std::hint::black_box(1 + 1));
        });
        assert_eq!(t.len(), 2);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/spans-unit-test");
        let path = dir.join("trace-unit.jsonl");
        t.dump(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let inner = cwc_obs::json::parse(lines[1]).unwrap();
        assert_eq!(inner.get("name").and_then(|v| v.as_str()), Some("inner"));
        assert_eq!(inner.get("parent").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(inner.get("workload").and_then(|v| v.as_str()), Some("unit"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
