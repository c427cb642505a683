//! Spans around the benchmark's calls into each layer, the counting
//! allocator, and process memory readings.
//!
//! Spans are kept in memory and written out as JSONL when the benchmark
//! ends. An untraced [`Tracer`] records nothing, so the end-to-end run pays
//! only for one branch per call site.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting bytes requested while a traced run has
/// switched counting on. Relaxed ordering: the counter publishes no data.
pub struct CountingAlloc;

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATED.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes requested from the allocator since counting was switched on.
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// A `/proc/self/status` field in KiB (`VmRSS`, `VmHWM`), or 0 where the
/// file is unavailable.
pub fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Operation id, one per set-up and per operation, in run order.
    pub op: u64,
    /// The span belongs to a set-up, not a measured operation.
    pub setup: bool,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
    pub alloc_bytes: u64,
    /// `VmRSS` after minus before; `None` for spans too short to read it.
    pub rss_delta_kb: Option<i64>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Handle returned by [`Tracer::begin`], closed by [`Tracer::end`].
#[must_use]
pub struct Open(Option<(usize, u64, u64)>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    setup: bool,
    spans: Vec<Span>,
    /// Open spans, innermost last, with the time their closed children cover.
    stack: Vec<(usize, u64)>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            enabled: false,
            // flock-lint: allow(determinism) the benchmark times the pipeline by the wall clock; no reading reaches a checked output
            epoch: Instant::now(),
            op: 0,
            setup: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Tracer {
    /// Record spans and count allocations (`true`), or do neither. A traced
    /// run switches this off around the untraced operations it times to
    /// measure the tracing overhead.
    pub fn set_enabled(&mut self, on: bool) {
        // flock-lint: allow(panic) switching tracing inside a span is a bug in the benchmark, not bad input
        assert!(self.stack.is_empty(), "switch tracing between spans only");
        self.enabled = on;
        COUNTING.store(on, Ordering::Relaxed);
    }

    /// Attribute the spans that follow to operation `op`.
    pub fn set_op(&mut self, op: u64, setup: bool) {
        self.op = op;
        self.setup = setup;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span. `rss` reads `VmRSS` at both ends, which costs a file
    /// read, so per-query spans leave it off.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, rss: bool) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let rss_before = if rss { proc_status_kb("VmRSS") } else { 0 };
        self.spans.push(Span {
            id,
            parent: self.stack.last().map(|&(p, _)| p),
            op: self.op,
            setup: self.setup,
            layer,
            name,
            start_ns: 0,
            end_ns: 0,
            self_ns: 0,
            alloc_bytes: 0,
            rss_delta_kb: rss.then_some(0),
        });
        self.stack.push((id, 0));
        let alloc_before = allocated_bytes();
        self.spans[id].start_ns = self.now_ns();
        Open(Some((id, alloc_before, rss_before)))
    }

    pub fn end(&mut self, open: Open) {
        let Some((id, alloc_before, rss_before)) = open.0 else {
            return;
        };
        let end_ns = self.now_ns();
        let alloc = allocated_bytes() - alloc_before;
        // flock-lint: allow(panic) an end without a begin is a bug in the benchmark, not bad input
        let (top, covered) = self.stack.pop().expect("a span is open");
        assert_eq!(top, id, "spans must close in nesting order");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.alloc_bytes = alloc;
        if span.rss_delta_kb.is_some() {
            span.rss_delta_kb = Some(proc_status_kb("VmRSS") as i64 - rss_before as i64);
        }
        let dur = end_ns - span.start_ns;
        // One thread runs every span, so siblings never overlap and the
        // time children cover is the sum of their durations.
        span.self_ns = dur.saturating_sub(covered);
        if let Some((_, parent_covered)) = self.stack.last_mut() {
            *parent_covered += dur;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSONL, one object a line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let rss = s.rss_delta_kb.map_or("null".to_string(), |r| r.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"setup\":{},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"alloc_bytes\":{},\"rss_delta_kb\":{rss}}}",
                s.id, s.op, s.setup, s.layer, s.name, s.start_ns, s.end_ns, s.self_ns, s.alloc_bytes
            );
        }
        out
    }
}
