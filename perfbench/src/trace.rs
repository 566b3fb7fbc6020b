//! In-memory span recorder for the traced mode.
//!
//! Spans are recorded in the benchmark's own code around its calls into
//! the program. Each span has a name, a start and end (ns since the
//! first span), the id of the span that caused it and a request id
//! shared by the spans of one request. Per-name totals and self times
//! (duration minus the part covered by child spans on the same thread)
//! are aggregated for every span, and again per outermost span open on
//! the same thread, so a timed phase's wall time splits exactly into the
//! self times of the spans under it plus its own. [`reset`] clears the
//! aggregates between passes. The raw spans are kept up to a cap per
//! name so a long run stays small, and are written out when the run
//! ends. With tracing off, [`span`] costs one relaxed atomic load.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Raw spans kept per name; the aggregates always cover every span.
const KEEP_PER_NAME: u64 = 4000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static DATA: Mutex<TraceData> = Mutex::new(TraceData {
    spans: Vec::new(),
    agg: BTreeMap::new(),
    under: BTreeMap::new(),
});

thread_local! {
    /// Open spans of this thread: (name, id, start ns, child ns).
    static STACK: RefCell<Vec<(&'static str, u64, u64, u64)>> = const { RefCell::new(Vec::new()) };
    /// Parent of this thread's outermost spans (a span on another thread).
    static BASE_PARENT: Cell<u64> = const { Cell::new(0) };
}

struct SpanRec {
    name: &'static str,
    id: u64,
    parent: u64,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Totals of every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus same-thread child spans), ns.
    pub self_ns: u64,
}

struct TraceData {
    spans: Vec<SpanRec>,
    agg: BTreeMap<&'static str, Agg>,
    /// Aggregates keyed by (outermost open span of the thread, name).
    under: BTreeMap<(&'static str, &'static str), Agg>,
}

impl Agg {
    fn add(&mut self, dur: u64, child: u64) {
        self.count += 1;
        self.total_ns += dur;
        self.self_ns += dur.saturating_sub(child);
    }
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Id of this thread's innermost open span (0 when none).
pub fn current() -> u64 {
    STACK.with(|s| s.borrow().last().map_or(BASE_PARENT.get(), |f| f.1))
}

/// Makes `parent` (an open span of another thread) the parent of this
/// thread's outermost spans. Cross-thread children do not count against
/// the parent's self time: they run beside it, not inside it.
pub fn adopt(parent: u64) {
    BASE_PARENT.set(parent);
}

/// Runs `f` inside a span named `name` for request `request` (0 = none).
pub fn span<T>(name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current();
    let start = now_ns();
    STACK.with(|s| s.borrow_mut().push((name, id, start, 0)));
    let out = f();
    let end = now_ns();
    let (_, _, _, child) = STACK.with(|s| s.borrow_mut().pop().expect("span stack underflow"));
    let dur = end - start;
    let root = STACK.with(|s| {
        let mut s = s.borrow_mut();
        if let Some(top) = s.last_mut() {
            top.3 += dur;
        }
        s.first().map(|f| f.0)
    });
    let mut data = DATA.lock().expect("trace lock");
    if let Some(root) = root {
        data.under.entry((root, name)).or_default().add(dur, child);
    }
    let agg = data.agg.entry(name).or_default();
    agg.add(dur, child);
    if agg.count <= KEEP_PER_NAME {
        data.spans.push(SpanRec {
            name,
            id,
            parent,
            request,
            start_ns: start,
            end_ns: end,
        });
    }
    out
}

/// Aggregate of one span name (zeros when none was recorded).
pub fn agg(name: &str) -> Agg {
    DATA.lock()
        .expect("trace lock")
        .agg
        .get(name)
        .copied()
        .unwrap_or_default()
}

/// Every aggregate, by name.
pub fn aggregates() -> BTreeMap<&'static str, Agg> {
    DATA.lock().expect("trace lock").agg.clone()
}

/// Aggregates, by name, of the spans opened on a thread while a span
/// named `root` was its outermost open span.
pub fn under(root: &str) -> BTreeMap<&'static str, Agg> {
    DATA.lock()
        .expect("trace lock")
        .under
        .iter()
        .filter(|((r, _), _)| *r == root)
        .map(|((_, name), a)| (*name, *a))
        .collect()
}

/// Clears every aggregate; kept spans stay for [`write_spans`].
pub fn reset() {
    let mut data = DATA.lock().expect("trace lock");
    data.agg.clear();
    data.under.clear();
}

/// Writes the kept spans as JSON lines:
/// `{"name", "id", "parent", "request", "start_ns", "end_ns"}`.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<usize> {
    let data = DATA.lock().expect("trace lock");
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &data.spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(data.spans.len())
}
