//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A span is a named interval with the span that caused it (`parent`)
//! and the request it belongs to. Spans are kept in memory and written
//! out once, when the run ends. Nothing here reaches into the program:
//! the spans wrap calls into the layers' public functions, and the web
//! service handler the benchmark supplies.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::quantile;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the recorder, starting at 1.
    pub id: u64,
    /// The enclosing span on the same thread (0 = none).
    pub parent: u64,
    /// The request this span serves (0 = not known when recorded).
    pub req: u64,
    /// Layer boundary name, e.g. `service.get`.
    pub name: &'static str,
    /// Pool worker that ran it, if any.
    pub worker: Option<usize>,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// In-memory span store shared by every thread of a run.
pub struct Recorder {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 14)),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tag spans opened on this thread with request `req` (0 clears).
    pub fn set_request(req: u64) {
        REQUEST.with(|r| r.set(req));
    }

    /// Run `f` inside a span named `name`, nested under whatever span
    /// this thread has open.
    pub fn span<R>(&self, name: &'static str, worker: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let p = o.last().copied().unwrap_or(0);
            o.push(id);
            p
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|o| o.borrow_mut().pop());
        let req = REQUEST.with(Cell::get);
        self.push(Span {
            id,
            parent,
            req,
            name,
            worker,
            start_ns,
            end_ns,
        });
        out
    }

    /// Record an interval measured elsewhere (a client's `pool.call`).
    pub fn record(
        &self,
        name: &'static str,
        req: u64,
        worker: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent: 0,
            req,
            name,
            worker,
            start_ns,
            end_ns,
        });
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking thread")
    }

    fn push(&self, span: Span) {
        self.spans().push(span);
    }

    /// Spans named `name` recorded so far.
    pub fn count(&self, name: &str) -> u64 {
        self.spans().iter().filter(|s| s.name == name).count() as u64
    }

    /// Everything recorded so far, in id order.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans());
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: usize,
    /// Summed duration, ms.
    pub total_ms: f64,
    /// Summed self time (duration minus the part child spans cover), ms.
    pub self_ms: f64,
    /// Median duration, ms.
    pub p50_ms: f64,
}

/// Aggregate spans by name, with self time.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let lt = out.entry(s.name).or_default();
        lt.count += 1;
        lt.total_ms += s.ms();
        lt.self_ms += own as f64 / 1e6;
        durations.entry(s.name).or_default().push(s.ms());
    }
    for (name, mut d) in durations {
        d.sort_by(f64::total_cmp);
        if let Some(lt) = out.get_mut(name) {
            lt.p50_ms = quantile(&d, 0.5);
        }
    }
    out
}

/// Assign each worker-side span (a web-service handler call) to the
/// client `pool.call` span it ran under: same worker, time
/// containment, and — because a worker serves its queue in order —
/// the containing call that ended first. Returns `(handler span
/// index, request id)` pairs; unattributed handler spans are left out.
pub fn attribute_to_calls(spans: &[Span], worker_name: &str) -> Vec<(usize, u64)> {
    let mut calls: Vec<&Span> = spans.iter().filter(|s| s.name == "pool.call").collect();
    calls.sort_by_key(|s| s.start_ns);
    let mut out = Vec::new();
    for (i, h) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == worker_name)
    {
        let best = calls
            .iter()
            .take_while(|c| c.start_ns <= h.start_ns)
            .filter(|c| c.worker == h.worker && h.end_ns <= c.end_ns)
            .min_by_key(|c| c.end_ns);
        if let Some(c) = best {
            out.push((i, c.req));
        }
    }
    out
}

/// Write spans as JSON lines (one object per span) to `path`.
pub fn write_spans(path: &std::path::Path, phase: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut w = std::io::BufWriter::new(file);
    for s in spans {
        let worker = s.worker.map_or("null".to_string(), |w| w.to_string());
        writeln!(
            w,
            "{{\"phase\":\"{phase}\",\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"worker\":{worker},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let rec = Recorder::new(Instant::now());
        rec.span("outer", None, || {
            rec.span("inner", None, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = rec.take();
        let t = layer_times(&spans);
        let (outer, inner) = (&t["outer"], &t["inner"]);
        assert!(inner.total_ms >= 5.0);
        assert!(outer.total_ms >= inner.total_ms);
        assert!(outer.self_ms < outer.total_ms - 4.0);
        assert_eq!(
            spans.iter().find(|s| s.name == "inner").unwrap().parent,
            spans[0].id
        );
    }

    #[test]
    fn handler_spans_go_to_the_call_that_ends_first() {
        let mk = |id, name, req, worker, s, e| Span {
            id,
            parent: 0,
            req,
            name,
            worker: Some(worker),
            start_ns: s,
            end_ns: e,
        };
        let spans = vec![
            mk(1, "pool.call", 10, 0, 0, 100),
            mk(2, "pool.call", 11, 0, 50, 200),
            mk(3, "pool.call", 12, 1, 0, 300),
            mk(4, "ws.handler", 0, 0, 60, 70),
            mk(5, "ws.handler", 0, 0, 120, 130),
        ];
        assert_eq!(
            attribute_to_calls(&spans, "ws.handler"),
            vec![(3, 10), (4, 11)]
        );
    }
}
