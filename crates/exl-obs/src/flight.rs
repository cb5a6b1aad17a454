//! The flight recorder: a bounded, process-global ring buffer of recent
//! structured events, inert when disarmed.
//!
//! The engine's metrics and traces answer "how did this run behave?";
//! the flight recorder answers "what were the last things that happened
//! before it failed?". Instrumented paths across the workspace — span
//! closes, dispatch retries and fallbacks, cache hits and misses,
//! governor trips, fault-site firings, backend statement boundaries —
//! call [`record_with`]. Disarmed (the default), that call is **one
//! relaxed atomic load and nothing else**: the detail closure is never
//! invoked, so the hot path allocates nothing (pinned by the
//! `flight_overhead` test). Armed, events land in a fixed-capacity ring
//! under a plain mutex; when the ring is full the oldest event is
//! evicted, so the recorder holds the *tail* of the run at all times.
//!
//! Every event is tagged with the *run* that recorded it: the id this
//! thread entered with [`enter_run`]. The engine enters a fresh id per
//! run, and the id travels to supervisor and evaluator worker
//! threads with the run's governor (installing a governor enters its
//! run). The ring is shared by every run in the process, so a consumer
//! that wants one run's story filters by id ([`tail_for_run`]).
//!
//! The engine arms the recorder when a crash-bundle directory is
//! configured (`exlc --bundle-dir`) and dumps its run's tail into the
//! bundle on any run failure. The event vocabulary is [`FlightKind`]; see
//! docs/OBSERVABILITY.md for the documented schema.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Ring capacity used by [`arm_default`]: large enough to span the full
/// dispatch tail of a many-subgraph run, small enough to stay cheap.
pub const DEFAULT_CAPACITY: usize = 1024;

/// The event vocabulary — every recorded event carries exactly one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A wall-time span closed (site = span name, detail = duration).
    SpanClose,
    /// The dispatch supervisor retried a subgraph attempt.
    Retry,
    /// The dispatcher fell back to the native engine at runtime.
    Fallback,
    /// A backend panic was contained by the supervisor.
    PanicCaught,
    /// A subgraph attempt exceeded its deadline.
    Timeout,
    /// A statement resolved from the run cache (exact content hit).
    CacheHit,
    /// A statement resolved by delta re-evaluation.
    CacheDelta,
    /// A statement missed the run cache and executed in full.
    CacheMiss,
    /// An on-disk cache entry was skipped as corrupt or stale.
    CacheCorrupt,
    /// A governance checkpoint tripped (cancellation or budget).
    GovernTrip,
    /// An injected fault fired at an instrumented site.
    FaultFired,
    /// A backend crossed a statement / flow boundary.
    Statement,
    /// A subgraph finished (site = target, detail = cubes + status).
    Subgraph,
    /// A run started or ended (site = `engine.run`).
    Run,
    /// The plan compiler fused statements into a streaming region
    /// (site = target, detail = region/fusion counts).
    PlanFuse,
    /// The plan compiler reused a structurally identical subexpression
    /// across statements (site = target, detail = reuse count).
    PlanCse,
}

impl FlightKind {
    /// Stable lowercase name, the `kind` field of the bundle schema.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::SpanClose => "span.close",
            FlightKind::Retry => "retry",
            FlightKind::Fallback => "fallback",
            FlightKind::PanicCaught => "panic.caught",
            FlightKind::Timeout => "timeout",
            FlightKind::CacheHit => "cache.hit",
            FlightKind::CacheDelta => "cache.delta",
            FlightKind::CacheMiss => "cache.miss",
            FlightKind::CacheCorrupt => "cache.corrupt",
            FlightKind::GovernTrip => "govern.trip",
            FlightKind::FaultFired => "fault.fired",
            FlightKind::Statement => "stmt",
            FlightKind::Subgraph => "subgraph",
            FlightKind::Run => "run",
            FlightKind::PlanFuse => "plan.fuse",
            FlightKind::PlanCse => "plan.cse",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic sequence number since arming (never reused; gaps in a
    /// [`tail`] mean older events were evicted).
    pub seq: u64,
    /// Nanoseconds since the recorder was armed.
    pub nanos: u64,
    /// The run that recorded it (0: outside any run).
    pub run: u64,
    /// Event kind.
    pub kind: FlightKind,
    /// Where it happened: a span name, fault site, or subsystem path.
    pub site: String,
    /// Free-form detail (duration, error text, cube list, …).
    pub detail: String,
}

struct Ring {
    epoch: Instant,
    capacity: usize,
    next_seq: u64,
    events: VecDeque<FlightEvent>,
}

/// The armed/disarmed flag, checked with one relaxed load on every
/// [`record_with`] call — the entire disarmed cost.
static ARMED: AtomicBool = AtomicBool::new(false);
static RING: Mutex<Option<Ring>> = Mutex::new(None);

/// Source of run ids; 0 is reserved for "no run".
static NEXT_RUN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The run this thread records for (0: none).
    static CURRENT_RUN: Cell<u64> = const { Cell::new(0) };
}

/// A fresh, process-unique run id (never 0).
pub fn next_run_id() -> u64 {
    NEXT_RUN.fetch_add(1, Ordering::Relaxed)
}

/// The run this thread currently records for (0: none).
pub fn current_run() -> u64 {
    CURRENT_RUN.get()
}

/// Tag this thread's events with `run` until the returned scope drops,
/// which restores the previous run. Scopes nest.
#[must_use = "the run is left when the scope drops"]
pub fn enter_run(run: u64) -> RunScope {
    RunScope {
        prev: CURRENT_RUN.replace(run),
    }
}

/// Restores the thread's previous run on drop (see [`enter_run`]).
#[derive(Debug)]
pub struct RunScope {
    prev: u64,
}

impl Drop for RunScope {
    fn drop(&mut self) {
        CURRENT_RUN.set(self.prev);
    }
}

fn ring() -> MutexGuard<'static, Option<Ring>> {
    // an injected panic can poison the lock mid-record; the ring data is
    // still structurally sound, so keep recording
    RING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arm the recorder with a ring of `capacity` events. Re-arming resets
/// the ring (fresh epoch, sequence restarts at 0). Arming is
/// process-global, like fault injection: instrumented code must not
/// carry a recorder handle through every signature.
pub fn arm(capacity: usize) {
    *ring() = Some(Ring {
        epoch: Instant::now(),
        capacity: capacity.max(1),
        next_seq: 0,
        events: VecDeque::with_capacity(capacity.clamp(1, 4096)),
    });
    ARMED.store(true, Ordering::SeqCst);
}

/// [`arm`] with [`DEFAULT_CAPACITY`].
pub fn arm_default() {
    arm(DEFAULT_CAPACITY);
}

/// [`arm_default`] unless the recorder is already armed, in which case
/// the ring — and every run's events in it — is kept.
pub fn ensure_armed() {
    let mut guard = ring();
    if guard.is_none() {
        *guard = Some(Ring {
            epoch: Instant::now(),
            capacity: DEFAULT_CAPACITY,
            next_seq: 0,
            events: VecDeque::with_capacity(DEFAULT_CAPACITY),
        });
    }
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarm the recorder and drop the ring.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    *ring() = None;
}

/// Whether the recorder is currently armed.
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Record one event with an eagerly built detail string. Prefer
/// [`record_with`] on hot paths — this form allocates `detail` even
/// when disarmed only if the caller built it eagerly.
pub fn record(kind: FlightKind, site: &str, detail: impl Into<String>) {
    record_with(kind, site, || detail.into());
}

/// Record one event, building the detail lazily: when the recorder is
/// disarmed this is a single relaxed atomic load and the closure is
/// **never invoked** — no allocation, no formatting, no lock.
pub fn record_with(kind: FlightKind, site: &str, detail: impl FnOnce() -> String) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let mut guard = ring();
    let Some(ring) = guard.as_mut() else {
        return;
    };
    let event = FlightEvent {
        seq: ring.next_seq,
        nanos: u64::try_from(ring.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
        run: CURRENT_RUN.get(),
        kind,
        site: site.to_string(),
        detail: detail(),
    };
    ring.next_seq += 1;
    if ring.events.len() >= ring.capacity {
        ring.events.pop_front();
    }
    ring.events.push_back(event);
}

/// The current ring contents, oldest first. Empty when disarmed.
pub fn tail() -> Vec<FlightEvent> {
    ring()
        .as_ref()
        .map(|r| r.events.iter().cloned().collect())
        .unwrap_or_default()
}

/// The ring's events recorded by `run`, oldest first.
pub fn tail_for_run(run: u64) -> Vec<FlightEvent> {
    ring()
        .as_ref()
        .map(|r| r.events.iter().filter(|e| e.run == run).cloned().collect())
        .unwrap_or_default()
}

/// Total events recorded since arming (recorded, not retained: events
/// beyond the capacity were evicted from the front).
pub fn total_recorded() -> u64 {
    ring().as_ref().map(|r| r.next_seq).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The recorder is process-global; serialize the tests that arm it.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    #[test]
    fn ring_wraps_and_keeps_the_tail() {
        let _l = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        arm(4);
        for i in 0..10 {
            record(FlightKind::Statement, "s", format!("event {i}"));
        }
        let tail = tail();
        assert_eq!(tail.len(), 4);
        assert_eq!(tail[0].seq, 6);
        assert_eq!(tail[3].seq, 9);
        assert_eq!(tail[3].detail, "event 9");
        assert!(tail.windows(2).all(|w| w[0].nanos <= w[1].nanos));
        assert_eq!(total_recorded(), 10);
        disarm();
    }

    #[test]
    fn disarmed_recorder_never_invokes_the_closure() {
        let _l = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        disarm();
        let mut invoked = false;
        record_with(FlightKind::Retry, "s", || {
            invoked = true;
            String::new()
        });
        assert!(!invoked);
        assert!(tail().is_empty());
        assert!(!is_armed());
    }

    #[test]
    fn rearming_resets_epoch_and_sequence() {
        let _l = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        arm(8);
        record(FlightKind::Run, "engine.run", "first");
        assert_eq!(total_recorded(), 1);
        arm(8);
        assert_eq!(total_recorded(), 0);
        assert!(tail().is_empty());
        record(FlightKind::Run, "engine.run", "second");
        let t = tail();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].seq, 0);
        disarm();
    }

    #[test]
    fn events_carry_the_recording_threads_run() {
        let _l = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        arm(16);
        let (a, b) = (next_run_id(), next_run_id());
        assert!(a != 0 && b != 0 && a != b);
        record(FlightKind::Run, "engine.run", "outside");
        {
            let _a = enter_run(a);
            record(FlightKind::Run, "engine.run", "a1");
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _b = enter_run(b);
                    record(FlightKind::Run, "engine.run", "b1");
                });
            });
            {
                let _b = enter_run(b);
                assert_eq!(current_run(), b);
                record(FlightKind::Run, "engine.run", "b2");
            }
            assert_eq!(current_run(), a);
            record(FlightKind::Run, "engine.run", "a2");
        }
        assert_eq!(current_run(), 0);
        let details =
            |run| -> Vec<String> { tail_for_run(run).into_iter().map(|e| e.detail).collect() };
        assert_eq!(details(a), ["a1", "a2"]);
        assert_eq!(details(b), ["b1", "b2"]);
        assert_eq!(details(0), ["outside"]);
        // ensure_armed keeps an armed ring
        ensure_armed();
        assert_eq!(tail().len(), 5);
        disarm();
    }

    #[test]
    fn kind_names_are_distinct_and_stable() {
        let kinds = [
            FlightKind::SpanClose,
            FlightKind::Retry,
            FlightKind::Fallback,
            FlightKind::PanicCaught,
            FlightKind::Timeout,
            FlightKind::CacheHit,
            FlightKind::CacheDelta,
            FlightKind::CacheMiss,
            FlightKind::CacheCorrupt,
            FlightKind::GovernTrip,
            FlightKind::FaultFired,
            FlightKind::Statement,
            FlightKind::Subgraph,
            FlightKind::Run,
            FlightKind::PlanFuse,
            FlightKind::PlanCse,
        ];
        let names: std::collections::BTreeSet<&str> = kinds.iter().map(|k| k.as_str()).collect();
        assert_eq!(names.len(), kinds.len());
        assert!(names.contains("fault.fired"));
        assert!(names.contains("govern.trip"));
        assert!(names.contains("plan.fuse"));
        assert!(names.contains("plan.cse"));
    }
}
