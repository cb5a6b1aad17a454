//! Overhead guard for the flight recorder and run spans: disarmed, the
//! hot-path [`exl_obs::flight::record_with`] must be one relaxed atomic
//! load — no allocation, no lock, no closure invocation — and a span tree
//! with no tracer, no registry and the ring disarmed must allocate
//! nothing either. This binary installs a global allocator that counts
//! each thread's allocations to pin that down: the test harness's own
//! thread allocates while the test runs (it books the running test), so a
//! process-wide count would fail whenever the scheduler lets it run
//! inside a measured window. The binary still holds exactly one test.
//!
//! The armed-vs-disarmed wall-clock delta is guarded separately by the
//! `b1_translation_pipeline_recorder_armed` Criterion bench
//! (`scripts/bench.sh`), which must stay within noise of the plain B1.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread (const-initialized, so reading it
    /// from inside the allocator never allocates).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // unavailable only while the thread is torn down
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

use exl_obs::flight::{self, FlightKind};
use exl_obs::{Span, Tracer};

#[test]
fn disarmed_hot_path_allocates_nothing_and_armed_ring_stays_bounded() {
    flight::disarm();

    // -- disarmed: zero allocations over many recordings, and the
    //    detail closure is never even invoked
    let mut closure_calls = 0u64;
    let before = allocs();
    for _ in 0..100_000 {
        flight::record_with(FlightKind::Statement, "overhead.test", || {
            closure_calls += 1;
            String::from("expensive detail that must never be built")
        });
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "disarmed flight recording allocated on the hot path"
    );
    assert_eq!(closure_calls, 0, "disarmed recording invoked the closure");
    assert!(flight::tail().is_empty());

    // -- a fully disarmed span tree (no tracer, no registry, ring
    //    disarmed): opening, annotating, counting and closing are free
    let tracer = Tracer::disabled();
    let before = allocs();
    for _ in 0..10_000 {
        let run = Span::root(&tracer, None, "run");
        let attempt = run.child("attempt");
        attempt.set_attr("status", "ok");
        attempt.add_event("attempt failed");
        attempt.incr_counter("engine.retries", 1);
        drop(attempt);
        drop(run);
    }
    assert_eq!(allocs() - before, 0, "a disarmed span tree allocated");

    // -- armed: events are recorded, the closure runs, and the ring
    //    stays bounded at its capacity under sustained load
    flight::arm(64);
    for i in 0..1_000u64 {
        flight::record_with(FlightKind::Statement, "overhead.test", || format!("ev {i}"));
    }
    let tail = flight::tail();
    assert_eq!(tail.len(), 64, "ring did not stay bounded");
    assert_eq!(flight::total_recorded(), 1_000);
    // the tail holds the *latest* events, oldest first
    assert_eq!(tail.last().unwrap().detail, "ev 999");
    assert_eq!(tail.first().unwrap().detail, "ev 936");
    assert!(tail.windows(2).all(|w| w[0].seq < w[1].seq));

    // -- an armed ring with no tracer and no registry still receives the
    //    backend's span close, which crash bundles need
    flight::arm_default();
    let (analyzed, input) = exl_workload::gdp_scenario(exl_workload::GdpConfig::default());
    let code = exl_engine::translate(&analyzed, exl_engine::TargetKind::Native).unwrap();
    let input = input.restrict(&analyzed.elementary_inputs());
    exl_engine::execute(
        &code,
        &input,
        &analyzed.program.derived_ids(),
        &Span::disabled(),
    )
    .unwrap();
    assert!(
        flight::tail()
            .iter()
            .any(|e| e.kind == FlightKind::SpanClose && e.site == "execute.native"),
        "no span.close for execute.native in {:?}",
        flight::tail()
    );

    // -- disarming drops the ring and restores the zero-cost path
    flight::disarm();
    assert!(flight::tail().is_empty());
    let before = allocs();
    for _ in 0..10_000 {
        flight::record_with(FlightKind::CacheHit, "overhead.test", String::new);
    }
    assert_eq!(
        allocs() - before,
        0,
        "re-disarmed flight recording allocated on the hot path"
    );
}
