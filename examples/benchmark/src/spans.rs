//! The bench-side trace: spans recorded from the benchmark's own files around the calls
//! into each layer (name, start, end, parent, batch), kept in memory and written as
//! Chrome-trace JSON when the run ends — plus the counting allocator that is armed only
//! around the spans whose allocations are reported.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use crate::json::escape;

/// One recorded interval. `parent` is the id of the span that was open when this one
/// began (0 for a root); spans of one replayed batch share `batch`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: u32,
    pub parent: u32,
    pub batch: u32,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// In-memory span recorder on one monotonic origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `body` inside a span and hand back its result with the span's duration in
    /// microseconds. Spans opened by `body` become children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        batch: u32,
        body: impl FnOnce(&mut Self) -> R,
    ) -> (R, f64) {
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.spans.push(SpanRecord {
            id,
            parent,
            batch,
            name,
            start_us: 0.0,
            end_us: 0.0,
        });
        self.open.push(id);
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        let result = body(self);
        let end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.open.pop();
        let record = &mut self.spans[id as usize - 1];
        record.start_us = start_us;
        record.end_us = end_us;
        (result, end_us - start_us)
    }

    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The spans as Chrome trace events (`ph: "X"`), loadable in Perfetto. `self_us` is a
    /// span's duration minus the part its direct children cover.
    pub fn to_chrome_json(&self) -> String {
        let mut children_us = vec![0.0f64; self.spans.len() + 1];
        for span in &self.spans {
            children_us[span.parent as usize] += span.end_us - span.start_us;
        }
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|span| {
                let duration_us = span.end_us - span.start_us;
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{duration_us:.3},\"pid\":1,\
                     \"tid\":1,\"args\":{{\"id\":{},\"parent\":{},\"batch\":{},\"self_us\":{:.3}}}}}",
                    escape(span.name),
                    span.start_us,
                    span.id,
                    span.parent,
                    span.batch,
                    (duration_us - children_us[span.id as usize]).max(0.0)
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread count of allocations made while the calling
/// thread is armed. Disarmed (everywhere but the layer replay) it costs one
/// thread-local read per allocation.
pub struct CountingAllocator;

fn count(bytes: usize) {
    // `try_with`: an allocation during thread teardown must not panic.
    let armed = ARMED.try_with(Cell::get).unwrap_or(false);
    if armed {
        let _ = ALLOCS.try_with(|allocs| allocs.set(allocs.get() + 1));
        let _ = BYTES.try_with(|total| total.set(total.get() + bytes as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and pointer
// unchanged, so `System`'s guarantees are the ones handed on; the counting touches only
// const-initialised, destructor-free thread-locals, which never allocate or unwind.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Run `body` with the calling thread's allocation counter armed; returns its result
/// and the `(allocations, bytes)` it made on this thread.
pub fn count_allocations<R>(body: impl FnOnce() -> R) -> (R, u64, u64) {
    let (allocs_before, bytes_before) = (ALLOCS.get(), BYTES.get());
    ARMED.set(true);
    let result = body();
    ARMED.set(false);
    (
        result,
        ALLOCS.get() - allocs_before,
        BYTES.get() - bytes_before,
    )
}
