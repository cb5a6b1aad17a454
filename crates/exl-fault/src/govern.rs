//! Run governance primitives: cooperative cancellation and resource
//! budgets.
//!
//! A [`CancelToken`] is a cheap atomic flag with parent→child linking: a
//! child observes its own cancellation *and* every ancestor's, so the
//! engine can hand each subgraph (and each execution attempt) its own
//! token while a run-level cancel still reaches everything. A
//! [`RunBudget`] adds wall-clock deadlines, a byte-accounted memory
//! ceiling, and an optional row/derivation limit. The two travel
//! together as a [`Governor`].
//!
//! Long-running loops across the workspace — chase tgd rounds, batch
//! evaluator statements and partitioned workers, ETL stages, the mini
//! interpreters' statement loops — call [`checkpoint`] at batch
//! boundaries. Like [`check`](crate::check), the ambient governor is
//! carried in a thread-local rather than threaded through every
//! signature; worker threads re-install it explicitly (thread-locals do
//! not cross `thread::spawn`). With no governor installed a checkpoint
//! is a thread-local read and nothing else.
//!
//! This module lives in `exl-fault` (the lowest shared layer — its only
//! dependency is the equally foundation-level `exl-obs`) so every
//! backend can observe the token; the engine re-exports and drives it
//! from `exl_engine::govern`. A *tripped* checkpoint — cancellation
//! observed or a budget limit exceeded — is recorded into the
//! [`exl_obs::flight`] event ring (inert when disarmed); the vastly more
//! common passing checkpoint records nothing.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Why a governed execution stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GovernError {
    /// The token was cancelled (external request, SIGINT, supervisor
    /// deadline, or an injected cancel).
    Cancelled {
        /// Human-readable cancellation reason.
        reason: String,
    },
    /// The budget's wall-clock deadline passed.
    DeadlineExceeded {
        /// The deadline that was exceeded, in milliseconds.
        millis: u64,
    },
    /// The byte-accounted memory ceiling was exceeded.
    MemoryExceeded {
        /// The configured ceiling in bytes.
        limit_bytes: u64,
        /// Accounted usage when the ceiling was hit.
        used_bytes: u64,
    },
    /// The row/derivation limit was exceeded.
    RowLimitExceeded {
        /// The configured limit.
        limit: u64,
        /// Accounted rows when the limit was hit.
        rows: u64,
    },
}

impl GovernError {
    /// True for plain cancellation (as opposed to budget exhaustion).
    pub fn is_cancellation(&self) -> bool {
        matches!(self, GovernError::Cancelled { .. })
    }
}

impl fmt::Display for GovernError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GovernError::Cancelled { reason } => write!(f, "cancelled: {reason}"),
            GovernError::DeadlineExceeded { millis } => {
                write!(f, "run deadline of {millis} ms exceeded")
            }
            GovernError::MemoryExceeded {
                limit_bytes,
                used_bytes,
            } => write!(
                f,
                "memory budget exceeded: {used_bytes} bytes accounted against a {limit_bytes} byte ceiling"
            ),
            GovernError::RowLimitExceeded { limit, rows } => {
                write!(f, "row budget exceeded: {rows} rows against a limit of {limit}")
            }
        }
    }
}

impl std::error::Error for GovernError {}

#[derive(Debug, Default)]
struct TokenInner {
    flag: AtomicBool,
    /// First recorded reason; `raw_cancel` (signal handlers) skips it.
    reason: Mutex<Option<String>>,
    parent: Option<CancelToken>,
}

/// A cooperative cancellation flag. Cloning shares the flag; [`child`]
/// links a new flag that also observes this one, so cancelling a parent
/// cancels the whole subtree while a child's cancel stays local.
///
/// [`child`]: CancelToken::child
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl CancelToken {
    /// A fresh, uncancelled root token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that observes `self` (and its ancestors) in addition to
    /// its own flag.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenInner {
                flag: AtomicBool::new(false),
                reason: Mutex::new(None),
                parent: Some(self.clone()),
            }),
        }
    }

    /// Cancel this token (and with it every descendant), recording
    /// `reason` if none was recorded yet.
    pub fn cancel(&self, reason: impl Into<String>) {
        let mut slot = self
            .inner
            .reason
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(reason.into());
        }
        drop(slot);
        self.inner.flag.store(true, Ordering::SeqCst);
    }

    /// Cancel with a single atomic store and nothing else — the only
    /// form that is async-signal-safe (no lock, no allocation). The
    /// reason falls back to a generic message.
    pub fn raw_cancel(&self) {
        self.inner.flag.store(true, Ordering::SeqCst);
    }

    /// Whether this token or any ancestor was cancelled. One relaxed
    /// load per chain link (chains are two or three deep in practice).
    pub fn is_cancelled(&self) -> bool {
        let mut node = Some(self);
        while let Some(t) = node {
            if t.inner.flag.load(Ordering::Relaxed) {
                return true;
            }
            node = t.inner.parent.as_ref();
        }
        false
    }

    /// The first recorded reason up the chain, if any.
    pub fn reason(&self) -> Option<String> {
        let mut node = Some(self);
        while let Some(t) = node {
            if t.inner.flag.load(Ordering::Relaxed) {
                let slot = t
                    .inner
                    .reason
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                return Some(slot.clone().unwrap_or_else(|| "cancelled".to_string()));
            }
            node = t.inner.parent.as_ref();
        }
        None
    }

    /// The [`GovernError`] a checkpoint would return right now, if any.
    pub fn cancellation(&self) -> Option<GovernError> {
        self.reason()
            .map(|reason| GovernError::Cancelled { reason })
    }
}

/// Resource limits for one run, shared (via [`Governor`] clones) by
/// every thread working on it. All accounting is saturating and coarse:
/// backends charge materialized intermediates at batch boundaries, not
/// individual allocations.
#[derive(Debug, Default)]
pub struct RunBudget {
    deadline: Option<Instant>,
    deadline_millis: u64,
    mem_limit: Option<u64>,
    mem_used: AtomicU64,
    mem_peak: AtomicU64,
    row_limit: Option<u64>,
    rows: AtomicU64,
}

impl RunBudget {
    /// An unlimited budget.
    pub fn unlimited() -> RunBudget {
        RunBudget::default()
    }

    /// Add a wall-clock deadline measured from now.
    pub fn with_deadline(mut self, after: Duration) -> RunBudget {
        self.deadline = Some(Instant::now() + after);
        self.deadline_millis = after.as_millis() as u64;
        self
    }

    /// Add a byte-accounted memory ceiling.
    pub fn with_memory_limit(mut self, bytes: u64) -> RunBudget {
        self.mem_limit = Some(bytes);
        self
    }

    /// Add a row/derivation limit.
    pub fn with_row_limit(mut self, rows: u64) -> RunBudget {
        self.row_limit = Some(rows);
        self
    }

    /// Account `bytes` of materialized intermediate data.
    pub fn charge_bytes(&self, bytes: u64) {
        let used = self.mem_used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.mem_peak.fetch_max(used, Ordering::Relaxed);
    }

    /// Return previously charged bytes (batch eviction, dropped
    /// intermediates).
    pub fn release_bytes(&self, bytes: u64) {
        let _ = self
            .mem_used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                Some(used.saturating_sub(bytes))
            });
    }

    /// Account `rows` derived rows.
    pub fn charge_rows(&self, rows: u64) {
        self.rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// Peak accounted memory so far, in bytes.
    pub fn mem_peak_bytes(&self) -> u64 {
        self.mem_peak.load(Ordering::Relaxed)
    }

    /// Currently accounted memory, in bytes.
    pub fn mem_used_bytes(&self) -> u64 {
        self.mem_used.load(Ordering::Relaxed)
    }

    /// Total accounted rows so far.
    pub fn rows_charged(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Check every limit; `Err` names the first exceeded one.
    pub fn verdict(&self) -> Result<(), GovernError> {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(GovernError::DeadlineExceeded {
                    millis: self.deadline_millis,
                });
            }
        }
        if let Some(limit) = self.mem_limit {
            let used = self.mem_used.load(Ordering::Relaxed);
            if used > limit {
                return Err(GovernError::MemoryExceeded {
                    limit_bytes: limit,
                    used_bytes: used,
                });
            }
        }
        if let Some(limit) = self.row_limit {
            let rows = self.rows.load(Ordering::Relaxed);
            if rows > limit {
                return Err(GovernError::RowLimitExceeded { limit, rows });
            }
        }
        Ok(())
    }
}

/// A cancellation token and a resource budget travelling together.
/// Cloning shares both; [`child`](Governor::child) derives a child token
/// over the *same* budget (budgets are per run, tokens per unit of
/// work).
///
/// A governor also names its run ([`Governor::run`]): a fresh flight
/// recorder run id per [`Governor::new`], shared by every child, so
/// installing a governor on a worker thread tags that thread's flight
/// events with the run that spawned the work. The fault plan the
/// creating thread runs under (if any) travels the same way: installing
/// the governor elsewhere runs that thread under the plan too.
#[derive(Debug, Clone, Default)]
pub struct Governor {
    token: CancelToken,
    budget: Arc<RunBudget>,
    run: u64,
    faults: Option<crate::PlanHandle>,
}

impl Governor {
    /// Govern with `token` under `budget`, as a new run.
    pub fn new(token: CancelToken, budget: RunBudget) -> Governor {
        Governor {
            token,
            budget: Arc::new(budget),
            run: exl_obs::flight::next_run_id(),
            faults: crate::current_plan(),
        }
    }

    /// The flight recorder run this governor belongs to (0 for a
    /// detached governor).
    pub fn run(&self) -> u64 {
        self.run
    }

    /// An ungoverned governor: never cancelled, unlimited budget. It
    /// still carries the calling thread's fault plan.
    pub fn detached() -> Governor {
        Governor {
            faults: crate::current_plan(),
            ..Governor::default()
        }
    }

    /// A governor whose token is a child of this one, over the same
    /// budget.
    pub fn child(&self) -> Governor {
        Governor {
            token: self.token.child(),
            budget: Arc::clone(&self.budget),
            run: self.run,
            faults: self.faults.clone(),
        }
    }

    /// This governor's token.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// This governor's budget.
    pub fn budget(&self) -> &RunBudget {
        &self.budget
    }

    /// The cooperative checkpoint: cancellation first, then budget
    /// limits. A budget violation also cancels the token so sibling
    /// threads stop at their own next checkpoint. Trips land in the
    /// flight recorder's event ring; passing checkpoints stay free.
    pub fn checkpoint(&self) -> Result<(), GovernError> {
        if let Some(err) = self.token.cancellation() {
            exl_obs::flight::record_with(
                exl_obs::flight::FlightKind::GovernTrip,
                "govern.checkpoint",
                || err.to_string(),
            );
            return Err(err);
        }
        if let Err(err) = self.budget.verdict() {
            self.token.cancel(err.to_string());
            exl_obs::flight::record_with(
                exl_obs::flight::FlightKind::GovernTrip,
                "govern.checkpoint",
                || err.to_string(),
            );
            return Err(err);
        }
        Ok(())
    }
}

thread_local! {
    /// The ambient governor stack for this thread (a stack so nested
    /// scopes — run → subgraph → attempt — restore cleanly).
    static CURRENT: RefCell<Vec<Governor>> = const { RefCell::new(Vec::new()) };
}

/// Restores the previous ambient governor on drop.
#[must_use = "the governor is uninstalled when the guard drops"]
pub struct GovernorGuard {
    _run: Option<exl_obs::flight::RunScope>,
    _faults: Option<crate::PlanScope>,
}

impl Drop for GovernorGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Install `governor` as this thread's ambient governor until the guard
/// drops, entering its flight recorder run (a detached governor leaves
/// the thread's run as it is) and its fault plan (a governor created
/// outside any plan leaves the thread's plan as it is). Worker threads
/// must re-install explicitly: thread-locals do not propagate across
/// `thread::spawn`/`thread::scope`.
pub fn set_governor(governor: Governor) -> GovernorGuard {
    let run = (governor.run != 0).then(|| exl_obs::flight::enter_run(governor.run));
    let faults = governor.faults.as_ref().map(crate::PlanHandle::enter);
    CURRENT.with(|c| c.borrow_mut().push(governor));
    GovernorGuard {
        _run: run,
        _faults: faults,
    }
}

/// The governor a data-parallel worker installs: the ambient one, or —
/// on an ungoverned thread that runs under a fault plan — a detached
/// governor carrying just that plan, so the worker's fault sites answer
/// to the plan of the thread that spawned it.
pub fn worker_governor() -> Option<Governor> {
    governor().or_else(|| crate::current_plan().map(|_| Governor::detached()))
}

/// This thread's ambient governor, if one is installed (cloned — cheap,
/// two `Arc` bumps).
pub fn governor() -> Option<Governor> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// The cooperative checkpoint against the ambient governor. With none
/// installed this is one thread-local read.
pub fn checkpoint() -> Result<(), GovernError> {
    match CURRENT.with(|c| c.borrow().last().cloned()) {
        Some(g) => g.checkpoint(),
        None => Ok(()),
    }
}

/// Charge rows and bytes against the ambient budget (no-op when
/// ungoverned). `bytes` is a coarse estimate of materialized
/// intermediates — see docs/GOVERNANCE.md for the accounting rules.
pub fn charge(rows: u64, bytes: u64) {
    CURRENT.with(|c| {
        if let Some(g) = c.borrow().last() {
            if rows > 0 {
                g.budget.charge_rows(rows);
            }
            if bytes > 0 {
                g.budget.charge_bytes(bytes);
            }
        }
    });
}

/// Return previously charged bytes to the ambient budget (no-op when
/// ungoverned).
pub fn release(bytes: u64) {
    CURRENT.with(|c| {
        if let Some(g) = c.borrow().last() {
            g.budget.release_bytes(bytes);
        }
    });
}

/// Cancel the ambient governor's token (used by
/// [`FaultAction::Cancel`](crate::FaultAction)); no-op when ungoverned.
/// Returns whether a token was cancelled.
pub fn cancel_current(reason: &str) -> bool {
    CURRENT.with(|c| match c.borrow().last() {
        Some(g) => {
            g.token.cancel(reason);
            true
        }
        None => false,
    })
}

/// A coarse byte estimate for a cube-shaped intermediate: `rows` keys of
/// `dims` dimension cells (16 B each: discriminant + payload/`Arc` ptr)
/// plus one 8 B measure.
pub fn approx_cube_bytes(rows: u64, dims: u64) -> u64 {
    rows.saturating_mul(dims.saturating_mul(16).saturating_add(8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
        assert_eq!(t.cancellation(), None);
    }

    #[test]
    fn cancel_reaches_children_not_parents() {
        let parent = CancelToken::new();
        let child = parent.child();
        let grandchild = child.child();
        child.cancel("subgraph deadline");
        assert!(!parent.is_cancelled());
        assert!(child.is_cancelled());
        assert!(grandchild.is_cancelled());
        assert_eq!(grandchild.reason().unwrap(), "subgraph deadline");
        // first reason wins
        child.cancel("second");
        assert_eq!(child.reason().unwrap(), "subgraph deadline");
    }

    #[test]
    fn raw_cancel_is_observable_with_fallback_reason() {
        let t = CancelToken::new();
        t.raw_cancel();
        assert!(t.is_cancelled());
        assert_eq!(t.reason().unwrap(), "cancelled");
    }

    #[test]
    fn budget_deadline_trips_checkpoint_and_cancels_token() {
        let g = Governor::new(
            CancelToken::new(),
            RunBudget::unlimited().with_deadline(Duration::ZERO),
        );
        std::thread::sleep(Duration::from_millis(1));
        let err = g.checkpoint().unwrap_err();
        assert!(matches!(err, GovernError::DeadlineExceeded { .. }), "{err}");
        // the violation cancelled the token: siblings observe it too
        assert!(g.token().is_cancelled());
    }

    #[test]
    fn memory_and_row_budgets_account_and_trip() {
        let g = Governor::new(
            CancelToken::new(),
            RunBudget::unlimited()
                .with_memory_limit(1000)
                .with_row_limit(10),
        );
        g.budget().charge_bytes(600);
        g.budget().charge_rows(5);
        assert!(g.checkpoint().is_ok());
        g.budget().charge_bytes(600);
        let err = g.checkpoint().unwrap_err();
        assert!(
            matches!(
                err,
                GovernError::MemoryExceeded {
                    used_bytes: 1200,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(g.budget().mem_peak_bytes(), 1200);
        // releasing brings usage back under the ceiling, but the trip
        // already cancelled the token — cancellation is sticky
        g.budget().release_bytes(600);
        assert_eq!(g.budget().mem_used_bytes(), 600);
        assert!(g.checkpoint().is_err());
    }

    #[test]
    fn row_limit_trips() {
        let g = Governor::new(
            CancelToken::new(),
            RunBudget::unlimited().with_row_limit(10),
        );
        g.budget().charge_rows(11);
        let err = g.checkpoint().unwrap_err();
        assert!(
            matches!(
                err,
                GovernError::RowLimitExceeded {
                    rows: 11,
                    limit: 10
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn ambient_governor_nests_and_restores() {
        assert!(checkpoint().is_ok());
        let outer = Governor::detached();
        let _g1 = set_governor(outer);
        {
            let inner = Governor::detached();
            inner.token().cancel("inner only");
            let _g2 = set_governor(inner);
            assert!(checkpoint().is_err());
        }
        assert!(checkpoint().is_ok(), "outer governor restored");
    }

    #[test]
    fn ambient_charge_accounts_against_installed_budget() {
        let g = Governor::new(CancelToken::new(), RunBudget::unlimited());
        let guard = set_governor(g.clone());
        charge(3, 100);
        release(40);
        drop(guard);
        charge(1000, 1000); // ungoverned: no-op
        assert_eq!(g.budget().rows_charged(), 3);
        assert_eq!(g.budget().mem_used_bytes(), 60);
        assert_eq!(g.budget().mem_peak_bytes(), 100);
    }

    #[test]
    fn child_governor_shares_budget_but_scopes_token() {
        let run = Governor::new(CancelToken::new(), RunBudget::unlimited());
        let sub = run.child();
        sub.budget().charge_rows(7);
        assert_eq!(run.budget().rows_charged(), 7);
        sub.token().cancel("local");
        assert!(sub.checkpoint().is_err());
        assert!(run.checkpoint().is_ok(), "subgraph cancel stays local");
        run.token().cancel("run-wide");
        assert!(sub.child().checkpoint().is_err(), "run cancel reaches all");
    }
}
