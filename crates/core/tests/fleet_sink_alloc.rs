//! Pins the zero-allocation guarantee of the sink-based fleet ingest
//! path: once the staged-event pool has warmed up, a full
//! `FleetEngine::ingest_frame_sink` frame — including signature
//! emissions delivered to the sink — must never touch the heap.
//!
//! Measured with a counting global allocator on the default engine
//! (`FleetEngine::new`). This file holds exactly one `#[test]` so no
//! concurrent test can allocate while the counter window is open.

use cwsmooth_core::cs::{CsMethod, CsTrainer};
use cwsmooth_core::error::Result;
use cwsmooth_core::fleet::{FleetEngine, FleetEvent, FleetSink};
use cwsmooth_data::WindowSpec;
use cwsmooth_linalg::Matrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only the thread that sets this flag is counted — the libtest
    /// harness thread allocates sporadically and must not trip the pin.
    static COUNT_ME: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn counted() -> bool {
    COUNT_ME.try_with(std::cell::Cell::get).unwrap_or(false)
}

struct CountingAlloc;

// SAFETY: a pure pass-through to the System allocator — every method
// forwards its arguments unchanged, so System's contract is ours; the
// counters never touch the allocation itself.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as System.alloc, to which we forward.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    // SAFETY: same contract as System.dealloc, to which we forward.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counted() {
            DEALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    // SAFETY: same contract as System.realloc, to which we forward.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Reads every event without taking ownership of anything.
#[derive(Default)]
struct Checksum {
    events: usize,
    sum: f64,
}

impl FleetSink for Checksum {
    fn on_event(&mut self, event: &FleetEvent) -> Result<()> {
        self.events += 1;
        self.sum += event.signature.re.iter().sum::<f64>()
            + event.signature.im.iter().sum::<f64>()
            + event.window_index as f64;
        Ok(())
    }
}

#[test]
fn steady_state_sink_ingest_performs_no_heap_allocation() {
    COUNT_ME.with(|c| c.set(true));
    // Setup (allocates freely): 16 nodes, per-node trained models.
    let nodes = 16usize;
    let sensors = 5usize;
    let methods: Vec<CsMethod> = (0..nodes)
        .map(|node| {
            let s = Matrix::from_fn(sensors, 120, |r, c| {
                ((c as f64 / (2.0 + r as f64) + node as f64 * 0.41).sin() * (r + 1) as f64)
                    + 0.1 * node as f64
            });
            CsMethod::new(CsTrainer::default().train(&s).unwrap(), 3).unwrap()
        })
        .collect();
    let spec = WindowSpec::new(10, 5).unwrap();
    let mut engine = FleetEngine::new(methods, spec).unwrap();
    let mut frame = engine.frame();
    let mut sink = Checksum::default();

    let fill = |frame: &mut cwsmooth_core::fleet::FleetFrame, t: usize| {
        frame.clear();
        for node in 0..nodes {
            let slot = frame.slot_mut(node).unwrap();
            for (r, v) in slot.iter_mut().enumerate() {
                *v = ((t as f64 / (2.0 + r as f64) + node as f64 * 0.41).cos() * (r + 1) as f64)
                    - 0.05 * node as f64;
            }
        }
    };

    // Warm-up: fill rings, size signature pools, see a few emission
    // frames (every node emits in the same frame, so the pools reach
    // their maximum occupancy here).
    let mut t = 0usize;
    while sink.events < 3 * nodes {
        fill(&mut frame, t);
        engine.ingest_frame_sink(&frame, &mut sink).unwrap();
        t += 1;
    }

    // Measurement window: hundreds of frames with dozens of emission
    // bursts and interleaved gap frames — all heap-silent.
    let a0 = ALLOCS.load(Ordering::SeqCst);
    let d0 = DEALLOCS.load(Ordering::SeqCst);
    let events_before = sink.events;
    for _ in 0..300 {
        fill(&mut frame, t);
        if t.is_multiple_of(17) {
            // One node misses the frame: the gap path must stay silent too.
            frame.clear();
            for node in 1..nodes {
                let slot = frame.slot_mut(node).unwrap();
                for (r, v) in slot.iter_mut().enumerate() {
                    *v = (t + r) as f64 * 0.01;
                }
            }
        }
        engine.ingest_frame_sink(&frame, &mut sink).unwrap();
        t += 1;
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - a0;
    let deallocs = DEALLOCS.load(Ordering::SeqCst) - d0;

    let emitted = sink.events - events_before;
    assert!(emitted > 100, "expected many emissions, got {emitted}");
    assert_eq!(
        allocs, 0,
        "steady-state sink ingest allocated {allocs} times"
    );
    assert_eq!(
        deallocs, 0,
        "steady-state sink ingest freed {deallocs} times"
    );
    assert!(sink.sum.is_finite());
    assert_eq!(engine.stats().events as usize, sink.events);
}
