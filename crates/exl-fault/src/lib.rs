//! # exl-fault — deterministic, seed-driven fault injection
//!
//! Chaos testing for the dispatch path: the engine, the parallel ETL
//! runner, and the mini interpreters call [`check`] at named *sites*
//! (e.g. `exec.sql`, `etl.flow`, `rmini.run`). In production the check is
//! a single relaxed atomic load and nothing else. In a chaos test, a
//! [`FaultPlan`] is [`install`]ed — "make the *Nth* execution of site *S*
//! fail / panic / stall" — and the chosen executions misbehave exactly as
//! planned, so every chaos run is reproducible from its seed. A firing
//! is also recorded into the [`exl_obs::flight`] event ring (inert when
//! that recorder is disarmed), so crash bundles name the fault site.
//!
//! A plan is scoped to the run that installed it, not to the process.
//! [`install`] arms it for the installing thread; a
//! [`govern::Governor`] created there carries it, its children inherit
//! it, and installing a governor on a worker thread enters it — the
//! same route the flight recorder's run id travels. A thread the engine
//! did not spawn joins explicitly ([`FaultGuard::enter`]). A site on a
//! thread outside the plan neither counts nor fires, so an unrelated
//! run in the same process never consumes a planned occurrence.
//! Installers are still serialized — the returned [`FaultGuard`] holds a
//! global lock — because chaos tests also set process-wide environment
//! variables while their plan is armed. Dropping the guard disarms
//! injection.
//!
//! The known sites are listed in [`SITES`]; [`FaultPlan::from_seed`]
//! picks one site, occurrence, and action from a seed (splitmix64, no
//! RNG dependency), which is what `scripts/chaos.sh` sweeps.

#![warn(missing_docs)]

pub mod govern;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Injection sites instrumented across the workspace. Seed-driven plans
/// draw from this list; ad-hoc plans may name any site string.
pub const SITES: &[&str] = &[
    "exec.native",
    "eval.worker",
    "exec.chase",
    "exec.sql",
    "exec.r",
    "exec.matlab",
    "exec.etl",
    "exec.etl-parallel",
    "etl.flow",
    "rmini.run",
    "matmini.run",
    "sqlengine.execute",
    "cache.read",
    "cache.write",
];

/// What an armed site does to the execution that trips it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Return an injected error from the site.
    Error,
    /// Panic at the site (exercises panic isolation).
    Panic,
    /// Sleep for the given number of milliseconds, then continue
    /// (exercises deadlines); the execution itself succeeds. The sleep
    /// is cooperative: it is sliced and aborts early when the ambient
    /// [`govern`] token is cancelled, so a stall never outlives a
    /// cancel-then-join.
    Delay(u64),
    /// Cancel the ambient [`govern::Governor`]'s token at the site and
    /// continue; the cancellation surfaces at the next governance
    /// checkpoint (exercises cooperative cancellation). A no-op when the
    /// executing thread is ungoverned.
    Cancel,
    /// Charge the given number of bytes against the ambient budget at
    /// the site and continue (exercises memory-ceiling exhaustion). A
    /// no-op when the executing thread is ungoverned.
    MemPressure(u64),
}

impl FaultAction {
    fn name(&self) -> &'static str {
        match self {
            FaultAction::Error => "error",
            FaultAction::Panic => "panic",
            FaultAction::Delay(_) => "delay",
            FaultAction::Cancel => "cancel",
            FaultAction::MemPressure(_) => "mem-pressure",
        }
    }
}

/// One planned fault: the `nth` execution (1-based) of `site` performs
/// `action`. `nth == 0` arms *every* execution of the site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Site name, as passed to [`check`].
    pub site: String,
    /// 1-based occurrence to trip, or 0 for every occurrence.
    pub nth: u64,
    /// What happens.
    pub action: FaultAction,
}

/// A set of planned faults, installed together.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The planned faults.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Empty plan (installing it still counts site executions).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Plan one injected error on the first execution of `site`.
    pub fn fail_once(site: &str) -> FaultPlan {
        FaultPlan::one(site, 1, FaultAction::Error)
    }

    /// Plan one panic on the first execution of `site`.
    pub fn panic_once(site: &str) -> FaultPlan {
        FaultPlan::one(site, 1, FaultAction::Panic)
    }

    /// Plan a delay of `millis` on the first execution of `site`.
    pub fn delay_once(site: &str, millis: u64) -> FaultPlan {
        FaultPlan::one(site, 1, FaultAction::Delay(millis))
    }

    /// Plan an injected error on *every* execution of `site` (a backend
    /// that is down, not merely flaky).
    pub fn fail_always(site: &str) -> FaultPlan {
        FaultPlan::one(site, 0, FaultAction::Error)
    }

    /// Plan a cooperative cancellation of the ambient governor on the
    /// first execution of `site`.
    pub fn cancel_once(site: &str) -> FaultPlan {
        FaultPlan::one(site, 1, FaultAction::Cancel)
    }

    /// Plan a budget charge of `bytes` against the ambient governor on
    /// the first execution of `site`.
    pub fn mem_pressure_once(site: &str, bytes: u64) -> FaultPlan {
        FaultPlan::one(site, 1, FaultAction::MemPressure(bytes))
    }

    /// Plan a single fault.
    pub fn one(site: &str, nth: u64, action: FaultAction) -> FaultPlan {
        FaultPlan {
            specs: vec![FaultSpec {
                site: site.to_string(),
                nth,
                action,
            }],
        }
    }

    /// Add another fault to the plan.
    pub fn and(mut self, site: &str, nth: u64, action: FaultAction) -> FaultPlan {
        self.specs.push(FaultSpec {
            site: site.to_string(),
            nth,
            action,
        });
        self
    }

    /// Derive a one-fault plan deterministically from a seed: pick a site
    /// from `sites`, an occurrence in `1..=3`, and an error-or-panic
    /// action. The same seed always yields the same plan.
    pub fn from_seed(seed: u64, sites: &[&str]) -> FaultPlan {
        assert!(!sites.is_empty(), "from_seed needs at least one site");
        let mut s = seed;
        let site = sites[(splitmix64(&mut s) % sites.len() as u64) as usize];
        let nth = 1 + splitmix64(&mut s) % 3;
        let action = if splitmix64(&mut s).is_multiple_of(2) {
            FaultAction::Error
        } else {
            FaultAction::Panic
        };
        FaultPlan::one(site, nth, action)
    }

    /// Derive a one-fault *cancellation* plan deterministically from a
    /// seed: pick a site from `sites` and an occurrence in `1..=3`, with
    /// [`FaultAction::Cancel`] as the action. Drives the cancellation
    /// half of the chaos matrix (`scripts/chaos.sh --storm`).
    pub fn cancel_from_seed(seed: u64, sites: &[&str]) -> FaultPlan {
        assert!(
            !sites.is_empty(),
            "cancel_from_seed needs at least one site"
        );
        let mut s = seed ^ 0xC0FF_EE00_CA4C_E1ED;
        let site = sites[(splitmix64(&mut s) % sites.len() as u64) as usize];
        let nth = 1 + splitmix64(&mut s) % 3;
        FaultPlan::one(site, nth, FaultAction::Cancel)
    }
}

/// The standard 64-bit splitmix step — deterministic, dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The error an armed site returns. Backends wrap it into their own
/// error types; the supervisor treats it as a retryable execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// The site that fired.
    pub site: String,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {}", self.site)
    }
}

impl std::error::Error for FaultError {}

/// A fault that actually fired during the installed plan's lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredFault {
    /// Site name.
    pub site: String,
    /// Which execution tripped (1-based).
    pub occurrence: u64,
    /// Action name: `error`, `panic`, or `delay`.
    pub action: &'static str,
}

#[derive(Debug, Default)]
struct ActiveState {
    specs: Vec<FaultSpec>,
    counts: BTreeMap<String, u64>,
    fired: Vec<FiredFault>,
}

/// An installed plan's live state, shared by every thread that runs
/// under it. Entering it ([`PlanHandle::enter`]) makes this thread's
/// fault sites answer to the plan.
#[derive(Debug, Clone)]
pub(crate) struct PlanHandle(Arc<Mutex<ActiveState>>);

impl PlanHandle {
    fn state(&self) -> MutexGuard<'_, ActiveState> {
        // a panic while holding the state lock is an injected panic, not
        // a corrupted state: keep going
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run this thread under the plan until the returned scope drops.
    pub(crate) fn enter(&self) -> PlanScope {
        PlanScope {
            prev: PLAN.with(|p| p.replace(Some(self.clone()))),
        }
    }
}

/// Restores the thread's previous fault plan on drop (see
/// [`FaultGuard::enter`]).
#[must_use = "the thread leaves the plan when the scope drops"]
pub struct PlanScope {
    prev: Option<PlanHandle>,
}

impl Drop for PlanScope {
    fn drop(&mut self) {
        PLAN.with(|p| *p.borrow_mut() = self.prev.take());
    }
}

thread_local! {
    /// The plan this thread's fault sites answer to.
    static PLAN: RefCell<Option<PlanHandle>> = const { RefCell::new(None) };
}

/// The plan this thread runs under, if any.
pub(crate) fn current_plan() -> Option<PlanHandle> {
    PLAN.with(|p| p.borrow().clone())
}

/// Whether any plan is installed: the disarmed fast path of [`check`].
static ARMED: AtomicBool = AtomicBool::new(false);
/// Serializes installers so concurrent chaos tests cannot interleave.
static INSTALL_LOCK: Mutex<()> = Mutex::new(());

/// Arms a [`FaultPlan`]; disarms and releases the installer lock on drop.
#[must_use = "the plan is disarmed when the guard drops"]
pub struct FaultGuard {
    plan: PlanHandle,
    _scope: PlanScope,
    _lock: MutexGuard<'static, ()>,
}

impl FaultGuard {
    /// Faults that have fired so far under this installation.
    pub fn fired(&self) -> Vec<FiredFault> {
        self.plan.state().fired.clone()
    }

    /// Number of faults fired so far.
    pub fn fired_count(&self) -> usize {
        self.plan.state().fired.len()
    }

    /// Run the calling thread under this plan until the returned scope
    /// drops — how a thread the engine did not spawn joins the plan.
    pub fn enter(&self) -> PlanScope {
        self.plan.enter()
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        // governors created under the plan may outlive the guard: an
        // empty plan never fires
        self.plan.state().specs.clear();
    }
}

/// Install a fault plan for the calling thread and everything it
/// governs (see the crate docs). Blocks until any previously installed
/// plan is dropped; injection stays armed until the returned guard drops.
pub fn install(plan: FaultPlan) -> FaultGuard {
    let lock = INSTALL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let handle = PlanHandle(Arc::new(Mutex::new(ActiveState {
        specs: plan.specs,
        ..ActiveState::default()
    })));
    ARMED.store(true, Ordering::SeqCst);
    FaultGuard {
        _scope: handle.enter(),
        plan: handle,
        _lock: lock,
    }
}

/// The per-site hook the instrumented code calls. Free when no plan is
/// installed (one atomic load), and a thread-local read when the calling
/// thread runs under no plan. Under a plan: counts the execution, and if
/// a spec matches this occurrence, performs its action — returns `Err`
/// for [`FaultAction::Error`], panics for [`FaultAction::Panic`], sleeps
/// then returns `Ok` for [`FaultAction::Delay`].
pub fn check(site: &str) -> Result<(), FaultError> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    let Some(plan) = current_plan() else {
        return Ok(());
    };
    let (action, occurrence) = {
        let mut active = plan.state();
        let count = active.counts.entry(site.to_string()).or_insert(0);
        *count += 1;
        let occurrence = *count;
        let Some(spec) = active
            .specs
            .iter()
            .find(|s| s.site == site && (s.nth == 0 || s.nth == occurrence))
        else {
            return Ok(());
        };
        let action = spec.action.clone();
        active.fired.push(FiredFault {
            site: site.to_string(),
            occurrence,
            action: action.name(),
        });
        (action, occurrence)
        // the state lock drops here — never panic or sleep under it
    };
    // a firing is rare by construction: tell the flight recorder (one
    // relaxed load when it is disarmed) before performing the action, so
    // even an injected panic leaves its trace in the event ring
    exl_obs::flight::record_with(exl_obs::flight::FlightKind::FaultFired, site, || {
        format!("occurrence {occurrence}, action {}", action.name())
    });
    match action {
        FaultAction::Error => Err(FaultError {
            site: site.to_string(),
        }),
        FaultAction::Panic => panic!("injected panic at {site}"),
        FaultAction::Delay(millis) => {
            // sliced so a cancelled governor cuts the stall short — the
            // supervisor's cancel-then-join must never wait out a full
            // injected delay
            let deadline = std::time::Instant::now() + Duration::from_millis(millis);
            let governor = govern::governor();
            loop {
                let now = std::time::Instant::now();
                if now >= deadline {
                    return Ok(());
                }
                if let Some(g) = &governor {
                    if g.token().is_cancelled() {
                        return Ok(());
                    }
                }
                std::thread::sleep((deadline - now).min(Duration::from_millis(5)));
            }
        }
        FaultAction::Cancel => {
            govern::cancel_current(&format!("injected cancel at {site}"));
            Ok(())
        }
        FaultAction::MemPressure(bytes) => {
            govern::charge(0, bytes);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_check_is_free() {
        assert_eq!(check("exec.native"), Ok(()));
    }

    #[test]
    fn nth_occurrence_fires_once() {
        let guard = install(FaultPlan::one("s", 2, FaultAction::Error));
        assert!(check("s").is_ok()); // 1st
        let err = check("s").unwrap_err(); // 2nd
        assert_eq!(err.site, "s");
        assert!(err.to_string().contains("injected fault"));
        assert!(check("s").is_ok()); // 3rd
        assert!(check("other").is_ok());
        let fired = guard.fired();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].occurrence, 2);
        assert_eq!(fired[0].action, "error");
    }

    #[test]
    fn always_spec_fires_every_time() {
        let guard = install(FaultPlan::fail_always("down"));
        assert!(check("down").is_err());
        assert!(check("down").is_err());
        assert_eq!(guard.fired_count(), 2);
    }

    #[test]
    fn guard_drop_disarms() {
        {
            let _guard = install(FaultPlan::fail_once("s"));
            assert!(check("s").is_err());
        }
        assert!(check("s").is_ok());
    }

    #[test]
    fn injected_panic_propagates() {
        let _guard = install(FaultPlan::panic_once("p"));
        let caught = std::panic::catch_unwind(|| check("p"));
        let msg = *caught.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("injected panic at p"), "{msg}");
    }

    #[test]
    fn delay_sleeps_then_succeeds() {
        let _guard = install(FaultPlan::delay_once("d", 20));
        let start = std::time::Instant::now();
        assert!(check("d").is_ok());
        assert!(start.elapsed() >= Duration::from_millis(20));
        // second execution is undelayed
        let start = std::time::Instant::now();
        assert!(check("d").is_ok());
        assert!(start.elapsed() < Duration::from_millis(20));
    }

    #[test]
    fn cancel_action_cancels_the_ambient_governor() {
        let _guard = install(FaultPlan::cancel_once("c"));
        let governor = govern::Governor::detached();
        let _g = govern::set_governor(governor.clone());
        assert!(check("c").is_ok(), "cancel action itself succeeds");
        assert!(governor.token().is_cancelled());
        assert!(governor
            .token()
            .reason()
            .unwrap()
            .contains("injected cancel at c"));
    }

    #[test]
    fn cancel_action_without_governor_is_inert() {
        let _guard = install(FaultPlan::cancel_once("c"));
        assert!(check("c").is_ok());
        assert!(govern::checkpoint().is_ok());
    }

    #[test]
    fn mem_pressure_action_charges_the_ambient_budget() {
        let _guard = install(FaultPlan::mem_pressure_once("m", 4096));
        let governor = govern::Governor::new(
            govern::CancelToken::new(),
            govern::RunBudget::unlimited().with_memory_limit(1024),
        );
        let _g = govern::set_governor(governor.clone());
        assert!(check("m").is_ok(), "pressure action itself succeeds");
        let err = governor.checkpoint().unwrap_err();
        assert!(
            matches!(err, govern::GovernError::MemoryExceeded { .. }),
            "{err}"
        );
    }

    #[test]
    fn cancelled_governor_cuts_an_injected_delay_short() {
        let _guard = install(FaultPlan::delay_once("d", 10_000));
        let governor = govern::Governor::detached();
        governor.token().cancel("already cancelled");
        let _g = govern::set_governor(governor);
        let start = std::time::Instant::now();
        assert!(check("d").is_ok());
        assert!(
            start.elapsed() < Duration::from_millis(1000),
            "delay ignored the cancelled governor: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn seeded_cancel_plans_are_deterministic() {
        for seed in 0..16 {
            let a = FaultPlan::cancel_from_seed(seed, SITES);
            assert_eq!(a, FaultPlan::cancel_from_seed(seed, SITES));
            assert_eq!(a.specs[0].action, FaultAction::Cancel);
            assert!((1..=3).contains(&a.specs[0].nth));
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_and_cover_sites() {
        let mut distinct = std::collections::BTreeSet::new();
        for seed in 0..64 {
            let a = FaultPlan::from_seed(seed, SITES);
            let b = FaultPlan::from_seed(seed, SITES);
            assert_eq!(a, b);
            assert_eq!(a.specs.len(), 1);
            assert!(SITES.contains(&a.specs[0].site.as_str()));
            assert!((1..=3).contains(&a.specs[0].nth));
            distinct.insert(a.specs[0].site.clone());
        }
        // 64 seeds reach a healthy spread of sites
        assert!(distinct.len() >= SITES.len() / 2, "{distinct:?}");
    }

    #[test]
    fn install_serializes_concurrent_plans() {
        let t = std::thread::spawn(|| {
            let _g = install(FaultPlan::fail_once("a"));
            assert!(check("a").is_err());
            std::thread::sleep(Duration::from_millis(10));
            // still our plan: "b" does not fire
            assert!(check("b").is_ok());
        });
        std::thread::sleep(Duration::from_millis(2));
        let g2 = install(FaultPlan::fail_once("b")); // blocks until t's guard drops
        assert!(check("b").is_err());
        drop(g2);
        t.join().unwrap();
    }
}
