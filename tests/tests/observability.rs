//! Observability integration: the metrics the engine reports for a run
//! agree with what the subsystems measure directly.

use exl_engine::{ExlEngine, TargetKind};
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

/// The chase counters in `RunReport::metrics` equal the `ChaseStats` a
/// direct chase of the same mapping over the same data reports.
#[test]
fn run_report_chase_counters_match_chase_stats() {
    let mut e = gdp_engine(TargetKind::Chase);
    e.enable_metrics();
    let report = e.run_all().unwrap();

    // the whole GDP program is one chase subgraph; chase it directly
    let (analyzed, data) = gdp_scenario(GdpConfig::default());
    let code = exl_engine::translate(&analyzed, TargetKind::Chase).unwrap();
    let exl_engine::TargetCode::Chase { mapping, schemas } = code else {
        panic!("chase translation expected");
    };
    let input = data.restrict(&analyzed.elementary_inputs());
    let result =
        exl_chase::chase(&mapping, &schemas, &input, exl_chase::ChaseMode::Stratified).unwrap();

    let m = &report.metrics;
    assert_eq!(
        m.counter("chase.applications"),
        result.stats.applications as u64
    );
    assert_eq!(
        m.counter("chase.homomorphisms"),
        result.stats.homomorphisms as u64
    );
    assert_eq!(
        m.counter("chase.facts_generated"),
        result.stats.facts_generated as u64
    );
    assert_eq!(m.counter("chase.passes"), result.stats.passes as u64);
    assert!(m.span_total_nanos("chase.tgd") > 0);
    assert!(m.span_total_nanos("attempt") > 0);
    assert!(m.span_total_nanos("execute.chase") > 0);
    assert!(m.span_total_nanos("run") >= m.span_total_nanos("attempt"));
}

/// An ETL run, sequential or pipeline-parallel, surfaces the per-step
/// row counters through the same report, and both runners count the
/// same rows and flows.
#[test]
fn run_report_carries_etl_row_counters() {
    let counts = [TargetKind::Etl, TargetKind::EtlParallel].map(|target| {
        let mut e = gdp_engine(target);
        e.enable_metrics();
        let report = e.run_all().unwrap();
        let m = &report.metrics;
        assert_eq!(m.counter("engine.subgraphs"), 1, "{target}");
        assert_eq!(m.counter("engine.fallbacks"), 0, "{target}");
        assert!(m.counter("etl.rows.source") > 0, "{target}");
        assert!(m.counter("etl.rows.output") > 0, "{target}");
        assert!(m.counter("etl.flows") > 0, "{target}");
        assert!(
            m.span_total_nanos(&format!("execute.{target}")) > 0,
            "{target}"
        );
        ["etl.rows.source", "etl.rows.output", "etl.flows"].map(|c| m.counter(c))
    });
    assert_eq!(counts[0], counts[1], "etl vs etl-parallel");
}

/// Without `enable_metrics`, runs record nothing and the report's
/// metrics section stays empty.
#[test]
fn metrics_default_off_and_report_empty() {
    let mut e = gdp_engine(TargetKind::Native);
    let report = e.run_all().unwrap();
    assert_eq!(report.metrics.counter("engine.subgraphs"), 0);
    assert_eq!(report.metrics.span_total_nanos("run"), 0);
    assert!(e.metrics().is_none());
}

/// The registry accumulates across runs and serializes to JSON that
/// parses back.
#[test]
fn registry_accumulates_and_serializes() {
    let mut e = gdp_engine(TargetKind::Native);
    let registry = e.enable_metrics();
    e.run_all().unwrap();
    let after_one = registry.counter("engine.subgraphs");
    assert_eq!(after_one, 1);
    let (_, data) = gdp_scenario(GdpConfig {
        seed: 9,
        ..GdpConfig::default()
    });
    e.load_elementary(&"PDR".into(), data.data(&"PDR".into()).unwrap().clone())
        .unwrap();
    let report = e.recompute(&["PDR".into()]).unwrap();
    assert_eq!(report.metrics.counter("engine.subgraphs"), 2);

    let json = registry.to_json();
    let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed["counters"]["engine.subgraphs"].as_u64(), Some(2));
}
