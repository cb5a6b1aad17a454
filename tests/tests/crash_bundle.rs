//! Chaos coverage for crash bundles: every failure class — contained
//! panic, deadline, tripped budget, cancellation, cache corruption —
//! must leave one schema-valid bundle that names the failing subgraph
//! and any fired fault site, while successful runs write nothing.
//!
//! Every test installs a fault plan through [`exl_fault::install`]
//! (a no-op plan where no fault is wanted): the guard serializes chaos
//! tests process-wide, which also keeps the process-global flight
//! recorder state race-free under the parallel test runner.

use std::path::PathBuf;
use std::time::Duration;

use exl_engine::{CrashBundle, DispatchPolicy, ExlEngine, TargetKind, BUNDLE_VERSION};
use exl_fault::{FaultAction, FaultPlan};
use exl_model::value::DimValue;
use exl_model::CubeData;
use exl_workload::{gdp_scenario, GdpConfig, GDP_PROGRAM};

fn gdp_engine(target: TargetKind) -> ExlEngine {
    let (analyzed, data) = gdp_scenario(GdpConfig::default());
    let mut e = ExlEngine::new();
    e.register_program("gdp", GDP_PROGRAM).unwrap();
    for id in analyzed.elementary_inputs() {
        e.load_elementary(&id, data.data(&id).unwrap().clone())
            .unwrap();
    }
    for id in analyzed.program.derived_ids() {
        e.catalog.set_affinity(&id, Some(target)).unwrap();
    }
    e
}

/// A clean per-test bundle directory under the system temp dir.
fn bundle_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("exl-bundle-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Read the single bundle in `dir` back through the typed schema — the
/// round-trip *is* the schema validation.
fn read_single_bundle(dir: &PathBuf) -> CrashBundle {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "expected exactly one bundle: {files:?}");
    let path = files.pop().unwrap();
    let name = path.file_name().unwrap().to_string_lossy().to_string();
    assert!(
        name.starts_with("bundle-") && name.ends_with(".json"),
        "{name}"
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let bundle: CrashBundle = serde_json::from_str(&text).unwrap();
    assert_eq!(bundle.version, BUNDLE_VERSION);
    bundle
}

fn bundle_count(dir: &PathBuf) -> usize {
    std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0)
}

/// Failure class 1 — contained panic: the bundle carries the `panic`
/// kind, names the failing subgraph, lists the fired fault site, and
/// its event tail ends with the run-failed event.
#[test]
fn panic_run_emits_a_bundle_naming_subgraph_and_site() {
    let dir = bundle_dir("panic");
    let mut e = gdp_engine(TargetKind::Native);
    e.set_bundle_dir(&dir).unwrap();
    let _guard = exl_fault::install(FaultPlan::panic_once("exec.native"));
    e.run_all().unwrap_err();
    let path = e.last_bundle().expect("bundle path recorded").to_owned();
    assert!(path.starts_with(&dir));
    let bundle = read_single_bundle(&dir);
    assert_eq!(bundle.error.kind, "panic");
    assert!(bundle.error.message.contains("injected panic"));
    let failing = bundle.failing_subgraph.expect("failing subgraph named");
    assert_eq!(failing.status, "failed");
    assert!(!failing.cubes.is_empty());
    assert_eq!(bundle.fault_sites, vec!["exec.native".to_string()]);
    assert!(
        bundle
            .events
            .iter()
            .any(|ev| ev.kind == "panic.caught" && ev.detail.contains("injected panic")),
        "no panic.caught event in the tail"
    );
    assert!(
        bundle
            .events
            .iter()
            .any(|ev| ev.kind == "fault.fired" && ev.site == "exec.native"),
        "no fault.fired event in the tail"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Failure class 2 — deadline: a stalled backend cut off by the
/// per-attempt deadline produces a `timeout` bundle whose failing
/// subgraph is named and whose fault site (the injected stall) fired.
#[test]
fn deadline_run_emits_a_timeout_bundle() {
    let dir = bundle_dir("deadline");
    let mut e = gdp_engine(TargetKind::Native);
    e.policy = DispatchPolicy {
        subgraph_timeout: Some(Duration::from_millis(40)),
        ..DispatchPolicy::default()
    };
    e.set_bundle_dir(&dir).unwrap();
    let _guard = exl_fault::install(FaultPlan::delay_once("exec.native", 10_000));
    e.run_all().unwrap_err();
    let bundle = read_single_bundle(&dir);
    assert_eq!(bundle.error.kind, "timeout");
    assert!(
        bundle.error.message.contains("deadline"),
        "{:?}",
        bundle.error
    );
    let failing = bundle.failing_subgraph.expect("failing subgraph named");
    assert!(!failing.cubes.is_empty());
    assert_eq!(bundle.fault_sites, vec!["exec.native".to_string()]);
    assert!(
        bundle.events.iter().any(|ev| ev.kind == "timeout"),
        "no timeout event in the tail"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Failure class 3 — tripped budget: a one-byte memory ceiling yields a
/// `budget-exceeded` bundle whose `govern` section records the
/// configured ceiling and the governor trip lands in the event tail.
#[test]
fn budget_run_emits_a_budget_bundle_with_govern_state() {
    let dir = bundle_dir("budget");
    let mut e = gdp_engine(TargetKind::Native);
    e.govern.max_memory_bytes = Some(1);
    e.set_bundle_dir(&dir).unwrap();
    let _guard = exl_fault::install(FaultPlan::fail_once("bundle.unused"));
    e.run_all().unwrap_err();
    let bundle = read_single_bundle(&dir);
    assert_eq!(bundle.error.kind, "budget-exceeded");
    assert_eq!(bundle.govern.max_memory_bytes, Some(1));
    assert!(bundle.govern.mem_peak_bytes > 1);
    assert!(bundle.govern.cancelled, "budget trip cancels the run token");
    assert!(
        bundle.events.iter().any(|ev| ev.kind == "govern.trip"),
        "no govern.trip event in the tail"
    );
    assert!(bundle.fault_sites.is_empty(), "{:?}", bundle.fault_sites);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Failure class 4 — cancellation: an injected mid-run cancel produces a
/// `cancelled` bundle naming the cancelled subgraph, with the reason in
/// the `govern` section.
#[test]
fn cancelled_run_emits_a_cancel_bundle() {
    let dir = bundle_dir("cancel");
    let mut e = gdp_engine(TargetKind::Native);
    e.set_bundle_dir(&dir).unwrap();
    let _guard = exl_fault::install(FaultPlan::cancel_once("exec.native"));
    e.run_all().unwrap_err();
    let bundle = read_single_bundle(&dir);
    assert_eq!(bundle.error.kind, "cancelled");
    assert!(bundle.govern.cancelled);
    assert!(
        bundle.govern.cancel_reason.is_some(),
        "cancel reason recorded"
    );
    let failing = bundle.failing_subgraph.expect("failing subgraph named");
    assert_eq!(failing.status, "cancelled");
    assert_eq!(bundle.fault_sites, vec!["exec.native".to_string()]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Failure class 5 — cache corruption: unreadable cache entries degrade
/// to recomputation, so forcing the recompute to fail as well yields a
/// bundle whose event tail holds the `cache.corrupt` events alongside
/// the execution failure.
#[test]
fn cache_corruption_run_emits_a_bundle_with_corrupt_events() {
    let cache = std::env::temp_dir().join(format!("exl-bundle-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let dir = bundle_dir("corrupt");
    {
        // warm run: populate the disk cache cleanly
        let _guard = exl_fault::install(FaultPlan::fail_once("bundle.unused"));
        let mut e = gdp_engine(TargetKind::Native);
        e.enable_disk_cache(&cache).unwrap();
        e.run_all().unwrap();
    }
    let mut e = gdp_engine(TargetKind::Native);
    e.enable_disk_cache(&cache).unwrap();
    e.set_bundle_dir(&dir).unwrap();
    // every cache read is corrupt AND every recompute fails: the run
    // cannot degrade its way out
    let plan = FaultPlan::one("cache.read", 0, FaultAction::Error).and(
        "exec.native",
        0,
        FaultAction::Error,
    );
    let _guard = exl_fault::install(plan);
    e.run_all().unwrap_err();
    let bundle = read_single_bundle(&dir);
    assert_eq!(bundle.error.kind, "execution");
    assert!(
        bundle
            .events
            .iter()
            .any(|ev| ev.kind == "cache.corrupt" && ev.site == "cache.read"),
        "no cache.corrupt event in the tail: {:?}",
        bundle
            .events
            .iter()
            .map(|e| e.kind.clone())
            .collect::<Vec<_>>()
    );
    let failing = bundle.failing_subgraph.expect("failing subgraph named");
    assert_eq!(failing.status, "failed");
    assert!(bundle.fault_sites.contains(&"cache.read".to_string()));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&cache).unwrap();
}

/// A degraded `keep_going` run that returns Ok with failed cubes still
/// writes a bundle, under the `subgraph-failures` kind.
#[test]
fn degraded_keep_going_run_writes_a_subgraph_failures_bundle() {
    let dir = bundle_dir("degraded");
    let mut e = ExlEngine::new();
    e.register_program(
        "diamond",
        "cube A(k: int) -> a; cube B(k: int) -> b; C := 2 * A; D := 3 * B;",
    )
    .unwrap();
    let cube = |v: f64| CubeData::from_tuples(vec![(vec![DimValue::Int(1)], v)]).unwrap();
    e.load_elementary(&"A".into(), cube(1.0)).unwrap();
    e.load_elementary(&"B".into(), cube(10.0)).unwrap();
    e.catalog
        .set_affinity(&"C".into(), Some(TargetKind::Sql))
        .unwrap();
    e.policy.keep_going = true;
    e.set_bundle_dir(&dir).unwrap();
    let _guard = exl_fault::install(FaultPlan::fail_always("exec.sql"));
    let report = e.run_all().unwrap();
    assert_eq!(report.failed, vec!["C".into()]);
    let bundle = read_single_bundle(&dir);
    assert_eq!(bundle.error.kind, "subgraph-failures");
    assert!(bundle.error.message.contains('C'));
    let failing = bundle.failing_subgraph.expect("failing subgraph named");
    assert_eq!(failing.cubes, vec!["C".to_string()]);
    // the healthy sibling is in the full subgraph list with its outcome
    assert!(bundle
        .subgraphs
        .iter()
        .any(|s| s.cubes == vec!["D".to_string()] && s.status == "computed"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Successful runs write nothing: the directory stays empty and
/// `last_bundle` stays unset, across repeated runs.
#[test]
fn successful_runs_write_no_bundle() {
    let dir = bundle_dir("ok");
    let mut e = gdp_engine(TargetKind::Native);
    e.set_bundle_dir(&dir).unwrap();
    let _guard = exl_fault::install(FaultPlan::fail_once("bundle.unused"));
    e.run_all().unwrap();
    assert_eq!(bundle_count(&dir), 0);
    assert!(e.last_bundle().is_none());
    // a second (no-op incremental) run stays clean too
    e.run_all().unwrap();
    assert_eq!(bundle_count(&dir), 0);
    assert!(e.last_bundle().is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A failed run with a ledger dir armed still appends its ledger record
/// (status = the error kind), so post-mortems and baselines see crashes.
#[test]
fn failed_run_still_appends_a_ledger_record() {
    let dir = bundle_dir("ledger");
    let mut e = gdp_engine(TargetKind::Native);
    e.set_ledger_dir(&dir).unwrap();
    let _guard = exl_fault::install(FaultPlan::panic_once("exec.native"));
    e.run_all().unwrap_err();
    let (records, skipped) = exl_engine::ledger::read_ledger(&dir).unwrap();
    assert_eq!(skipped, 0);
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].status, "panic");
    assert_eq!(records[0].program.len(), 32);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Run scoping: two engines fail concurrently in one process, each at
/// its own fault site. The flight ring is shared, yet each bundle holds
/// only the events its own run recorded — its fault site and none of
/// the other run's.
#[test]
fn concurrent_failed_runs_write_run_scoped_bundles() {
    let plan =
        FaultPlan::one("exec.native", 0, FaultAction::Panic).and("exec.sql", 0, FaultAction::Error);
    let guard = exl_fault::install(plan);
    let dirs = [
        bundle_dir("concurrent-native"),
        bundle_dir("concurrent-sql"),
    ];
    let targets = [TargetKind::Native, TargetKind::Sql];
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for (dir, target) in dirs.iter().zip(targets) {
            let start = &start;
            let guard = &guard;
            s.spawn(move || {
                // the plan is scoped to the installing thread: these
                // test threads join it explicitly
                let _plan = guard.enter();
                let mut e = gdp_engine(target);
                e.set_bundle_dir(dir).unwrap();
                start.wait();
                e.run_all().unwrap_err();
            });
        }
    });
    let native = read_single_bundle(&dirs[0]);
    let sql = read_single_bundle(&dirs[1]);
    assert_eq!(native.fault_sites, vec!["exec.native".to_string()]);
    assert_eq!(sql.fault_sites, vec!["exec.sql".to_string()]);
    assert!(native.events.iter().any(|ev| ev.kind == "panic.caught"));
    assert!(
        sql.events.iter().all(|ev| ev.kind != "panic.caught"),
        "the native run's panic leaked into the SQL bundle"
    );
    assert!(
        native.events.iter().all(|ev| ev.site != "exec.sql"),
        "the SQL run's fault leaked into the native bundle"
    );
    let seqs = |b: &CrashBundle| b.events.iter().map(|ev| ev.seq).collect::<Vec<_>>();
    let native_seqs = seqs(&native);
    assert!(
        seqs(&sql).iter().all(|q| !native_seqs.contains(q)),
        "an event landed in both bundles"
    );
    for dir in &dirs {
        std::fs::remove_dir_all(dir).unwrap();
    }
}
