//! In-memory spans for the traced run. The benchmark opens a span around
//! each call it makes into a layer's public entry point; spans are kept
//! in memory and written out once, when the run ends.
//!
//! Each span carries wall time and the CPU time of the thread that opened
//! it. On this kind of shared host wall time includes vCPU steal, so
//! layer times are reported from the CPU figure wherever the layer's work
//! stays on the calling thread.

use crate::procfs::thread_cpu_s;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: which layer entry point, when, under which parent
/// span, and for which operation (one input netlist or one request).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Thread CPU seconds spent inside the span, when measured.
    pub cpu_s: Option<f64>,
}

/// Span store shared by every thread of a traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`]. Returns its index,
    /// which children pass as `parent`.
    /// The span must be closed on the thread that opened it.
    pub fn open(&self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let cpu = thread_cpu_s().ok();
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
            cpu_s: cpu,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) {
        let end = self.now_ns();
        let cpu = thread_cpu_s().ok();
        let mut spans = self.spans.lock().expect("span store poisoned");
        let span = &mut spans[id];
        span.end_ns = end;
        span.cpu_s = span.cpu_s.zip(cpu).map(|(a, b)| b - a);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records an already-measured interval (used for intervals seen
    /// through a layer's event hook rather than around a call).
    pub fn record(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        cpu_s: f64,
    ) {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.lock().expect("span store poisoned").push(Span {
            name,
            op,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
            cpu_s: Some(cpu_s),
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Total wall seconds of spans named `name`.
    #[cfg(test)]
    pub fn wall(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span store poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Total thread CPU seconds of spans named `name`, falling back to
    /// wall time for a span whose CPU reading failed.
    pub fn cpu(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span store poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.cpu_s.unwrap_or((s.end_ns - s.start_ns) as f64 * 1e-9))
            .sum()
    }

    /// The spans as a JSON document, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let cpu = s
                .cpu_s
                .map_or("null".to_string(), |c| format!("{:.3}", c * 1e6));
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3},\"cpu_us\":{cpu}}}",
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_are_recorded() {
        let t = Tracer::default();
        t.span("outer", 1, None, || {
            let id = t.open("inner", 1, Some(0));
            std::thread::sleep(std::time::Duration::from_millis(5));
            t.close(id);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(t.wall("inner") >= 0.004);
        assert!(t.wall("outer") >= t.wall("inner"));
        // sleeping burns no CPU
        assert!(t.cpu("inner") < 0.004);
        assert!(t.to_json().contains("\"name\":\"inner\""));
    }
}
