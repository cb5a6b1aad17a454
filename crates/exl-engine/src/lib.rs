//! # exl-engine — EXLEngine, the orchestrating system (§6, Fig. 2)
//!
//! The engineered system of the paper: a metadata-driven runtime that
//! takes declarative EXL programs and executes them across heterogeneous
//! target systems through schema mappings.
//!
//! * [`catalog`] — cube/program metadata, target affinities, versioned
//!   data (historicity);
//! * [`determination`] — the global dependency DAG across programs,
//!   change propagation, topological planning, per-target partitioning
//!   and stage computation for parallel dispatch;
//! * [`target`] — the translation engine (statements → mapping → SQL / R
//!   / Matlab / ETL / chase / native) and the uniform execution contract
//!   of the target engines;
//! * [`engine`] — the dispatcher tying it together: plan, translate
//!   (offline), execute per subgraph with cross-engine data movement and
//!   optional stage-level parallelism, store results as new versions;
//! * [`supervise`] — the fault boundary around dispatch: panic
//!   containment, per-subgraph deadlines, retries with backoff, the
//!   runtime fallback chain, and the `keep_going` degradation mode;
//! * [`govern`] — run-level governance: cooperative cancellation tokens
//!   (external cancel / SIGINT / supervisor deadlines all route through
//!   one `CancelToken` tree) and resource budgets (wall-clock deadline,
//!   byte-accounted memory ceiling, row limit) checked cooperatively at
//!   batch boundaries in every backend;
//! * [`cache`] — the content-addressed run cache behind incremental
//!   recomputation: statements whose text, target, schemas, and input
//!   cube contents are unchanged are skipped (or patched by the delta
//!   kernels), in memory and optionally across processes via a
//!   versioned disk store;
//! * [`bundle`] — crash bundles: on any failed run the engine dumps the
//!   flight recorder's event tail, metrics, governance state, and
//!   per-subgraph statuses into one self-describing JSON artifact;
//! * [`ledger`] — the cross-run ledger (one JSONL record per run, with
//!   fingerprints and per-statement wall times) and the perf-regression
//!   sentinel that mines it for baselines (`exlc perf`).

#![warn(missing_docs)]

pub mod bundle;
pub mod cache;
pub mod catalog;
pub mod determination;
pub mod engine;
pub mod error;
pub mod govern;
pub mod ledger;
pub mod lineage;
pub mod supervise;
pub mod target;

pub use bundle::{BundleEvent, BundleSubgraph, CrashBundle, BUNDLE_VERSION};
pub use cache::{CacheStats, RunCache, StmtCacheCounts};
pub use catalog::{Catalog, CubeMeta, CubeVersion};
pub use determination::{GlobalGraph, Subgraph};
pub use engine::{ExlEngine, ProgressEvent, ProgressSink, RunReport, SubgraphReport};
pub use error::EngineError;
pub use govern::{CancelToken, GovernConfig, GovernError, Governor, RunBudget};
pub use ledger::{Baseline, LedgerRecord, LedgerStatement, SentinelConfig, LEDGER_VERSION};
pub use lineage::{LineageReport, LineageStep};
pub use supervise::{
    run_on_target_supervised, run_supervised, Attempt, AttemptOutcome, DispatchPolicy,
    SubgraphStatus,
};
pub use target::{
    execute, execute_in_context, execute_in_context_opts, execute_recorded, execute_traced,
    run_on_target, run_on_target_opts, run_on_target_recorded, translate, ExecOpts, TargetCode,
    TargetKind,
};

#[cfg(test)]
mod tests {
    use super::*;
    use exl_model::value::DimValue;
    use exl_model::CubeData;
    use exl_workload::{gdp_scenario, GdpConfig, GDP_PROGRAM};

    fn engine_with_gdp() -> ExlEngine {
        let (analyzed, data) = gdp_scenario(GdpConfig::default());
        let mut e = ExlEngine::new();
        e.register_program("gdp", GDP_PROGRAM).unwrap();
        for id in analyzed.elementary_inputs() {
            e.load_elementary(&id, data.data(&id).unwrap().clone())
                .unwrap();
        }
        e
    }

    /// The Fig. 2 pipeline end to end: register → load → determine →
    /// translate → dispatch → store; results equal the reference.
    #[test]
    fn full_pipeline_matches_reference() {
        let (analyzed, data) = gdp_scenario(GdpConfig::default());
        let reference = exl_eval::run_program(&analyzed, &data).unwrap();

        let mut e = engine_with_gdp();
        let report = e.run_all().unwrap();
        assert_eq!(report.computed.len(), 5);
        for id in analyzed.program.derived_ids() {
            let got = e.data(&id).unwrap();
            let want = reference.data(&id).unwrap();
            assert!(
                got.approx_eq(want, 1e-9),
                "{id}: {:?}",
                got.diff(want, 1e-9)
            );
        }
    }

    /// Affinities route subgraphs to different engines; the results do not
    /// change (the decoupling the paper's architecture promises).
    #[test]
    fn mixed_affinities_agree_with_native() {
        let (analyzed, data) = gdp_scenario(GdpConfig::default());
        let reference = exl_eval::run_program(&analyzed, &data).unwrap();

        let mut e = engine_with_gdp();
        e.catalog
            .set_affinity(&"PQR".into(), Some(TargetKind::Sql))
            .unwrap();
        e.catalog
            .set_affinity(&"RGDP".into(), Some(TargetKind::Sql))
            .unwrap();
        e.catalog
            .set_affinity(&"GDP".into(), Some(TargetKind::R))
            .unwrap();
        e.catalog
            .set_affinity(&"GDPT".into(), Some(TargetKind::Matlab))
            .unwrap();
        e.catalog
            .set_affinity(&"PCHNG".into(), Some(TargetKind::Etl))
            .unwrap();
        let report = e.run_all().unwrap();
        assert_eq!(report.subgraphs.len(), 4); // sql(PQR,RGDP) | r | matlab | etl
        let targets: Vec<_> = report.subgraphs.iter().map(|s| s.target).collect();
        assert_eq!(
            targets,
            vec![
                TargetKind::Sql,
                TargetKind::R,
                TargetKind::Matlab,
                TargetKind::Etl
            ]
        );
        for id in analyzed.program.derived_ids() {
            let got = e.data(&id).unwrap();
            let want = reference.data(&id).unwrap();
            assert!(
                got.approx_eq(want, 1e-9),
                "{id}: {:?}",
                got.diff(want, 1e-9)
            );
        }
    }

    /// Incremental recomputation: changing one elementary cube only
    /// recomputes its descendants, as new versions.
    #[test]
    fn incremental_recompute_is_minimal() {
        let mut e = engine_with_gdp();
        e.run_all().unwrap();
        let v_before = e.catalog.clock();

        // RGDPPC feeds RGDP → GDP → GDPT → PCHNG, but not PQR
        let (_, data) = gdp_scenario(GdpConfig {
            seed: 99,
            ..GdpConfig::default()
        });
        e.load_elementary(
            &"RGDPPC".into(),
            data.data(&"RGDPPC".into()).unwrap().clone(),
        )
        .unwrap();
        let report = e.recompute(&["RGDPPC".into()]).unwrap();
        let names: Vec<&str> = report.computed.iter().map(|c| c.as_str()).collect();
        assert_eq!(names, vec!["RGDP", "GDP", "GDPT", "PCHNG"]);
        // PQR was not recomputed: no version newer than v_before
        let pqr_latest = e
            .catalog
            .meta(&"PQR".into())
            .unwrap()
            .versions
            .last()
            .unwrap()
            .version;
        assert!(pqr_latest <= v_before);
    }

    /// Unsupported operators trigger the documented fallback.
    #[test]
    fn dispatcher_falls_back_on_unsupported() {
        let mut e = ExlEngine::new();
        e.default_target = TargetKind::Sql;
        e.register_program(
            "outer",
            "cube A(k: int) -> y; cube B(k: int) -> z; C := addz(A, B);",
        )
        .unwrap();
        e.load_elementary(
            &"A".into(),
            CubeData::from_tuples(vec![(vec![DimValue::Int(1)], 1.0)]).unwrap(),
        )
        .unwrap();
        e.load_elementary(
            &"B".into(),
            CubeData::from_tuples(vec![(vec![DimValue::Int(2)], 5.0)]).unwrap(),
        )
        .unwrap();
        let report = e.run_all().unwrap();
        assert_eq!(report.subgraphs.len(), 1);
        assert!(report.subgraphs[0].fallback);
        assert_eq!(report.subgraphs[0].target, TargetKind::Native);
        assert_eq!(e.data(&"C".into()).unwrap().len(), 2);
    }

    /// Parallel dispatch of independent subgraphs gives identical results.
    #[test]
    fn parallel_dispatch_agrees_with_sequential() {
        let (analyzed, data) = exl_workload::chains::forest_scenario(4, 3, 12);
        let src = exl_workload::chains::forest_program(4, 3);

        let build = |parallel: bool| -> ExlEngine {
            let mut e = ExlEngine::new();
            e.parallel_dispatch = parallel;
            e.register_program("forest", &src).unwrap();
            // alternate affinities to force multiple subgraphs
            for (i, id) in analyzed.program.derived_ids().iter().enumerate() {
                let t = if i % 2 == 0 {
                    TargetKind::Native
                } else {
                    TargetKind::Sql
                };
                e.catalog.set_affinity(id, Some(t)).unwrap();
            }
            for id in analyzed.elementary_inputs() {
                e.load_elementary(&id, data.data(&id).unwrap().clone())
                    .unwrap();
            }
            e
        };
        let mut seq = build(false);
        let mut par = build(true);
        let r1 = seq.run_all().unwrap();
        let r2 = par.run_all().unwrap();
        assert_eq!(r1.computed, r2.computed);
        for id in analyzed.program.derived_ids() {
            assert!(
                seq.data(&id)
                    .unwrap()
                    .approx_eq(par.data(&id).unwrap(), 0.0),
                "{id}"
            );
        }
        assert!(r2.stages >= 1);
    }

    #[test]
    fn catalog_guards_loads() {
        let mut e = engine_with_gdp();
        // loading a derived cube is rejected
        assert!(e.load_elementary(&"GDP".into(), CubeData::new()).is_err());
        // unknown cube rejected
        assert!(e.load_elementary(&"NOPE".into(), CubeData::new()).is_err());
        // duplicate program name rejected
        assert!(e.register_program("gdp", "X := 2 * GDP;").is_err());
    }

    #[test]
    fn no_change_no_work() {
        let mut e = engine_with_gdp();
        let report = e.recompute(&[]).unwrap();
        assert!(report.computed.is_empty());
        assert_eq!(report.stages, 0);
    }

    /// Two programs may declare the same elementary cube, as long as the
    /// schemas agree (the catalog is the arbiter).
    #[test]
    fn consistent_redeclaration_across_programs() {
        let mut e = ExlEngine::new();
        e.register_program("one", "cube A(k: int) -> y; B := 2 * A;")
            .unwrap();
        e.register_program("two", "cube A(k: int) -> y; C := 3 * A;")
            .unwrap();
        e.load_elementary(
            &"A".into(),
            CubeData::from_tuples(vec![(vec![DimValue::Int(1)], 5.0)]).unwrap(),
        )
        .unwrap();
        e.run_all().unwrap();
        assert_eq!(
            e.data(&"B".into()).unwrap().get(&[DimValue::Int(1)]),
            Some(10.0)
        );
        assert_eq!(
            e.data(&"C".into()).unwrap().get(&[DimValue::Int(1)]),
            Some(15.0)
        );
        // …but a conflicting re-declaration is rejected
        let err = e
            .register_program("three", "cube A(k: text) -> y; D := 2 * A;")
            .unwrap_err();
        assert!(err.to_string().contains("different schema"), "{err}");
    }

    /// §6's "technical metadata" heuristic routes each cube to the target
    /// suited to its operators — and the routed run still matches the
    /// reference.
    #[test]
    fn suggested_affinities_route_by_operator_specificity() {
        let (analyzed, data) = gdp_scenario(GdpConfig::default());
        let reference = exl_eval::run_program(&analyzed, &data).unwrap();

        let mut e = engine_with_gdp();
        let suggestions = e.apply_suggested_affinities().unwrap();
        let get = |name: &str| {
            suggestions
                .iter()
                .find(|(id, _)| id.as_str() == name)
                .map(|(_, t)| *t)
                .unwrap()
        };
        assert_eq!(get("PQR"), TargetKind::Sql); // aggregation
        assert_eq!(get("RGDP"), TargetKind::Sql); // join of two cubes
        assert_eq!(get("GDP"), TargetKind::Sql); // aggregation
        assert_eq!(get("GDPT"), TargetKind::R); // whole-series black box
        assert_eq!(get("PCHNG"), TargetKind::Sql); // self-join via shift
                                                   // outer variants go to the ETL engine
        let stmt = exl_lang::parse_program("C := addz(A, B);")
            .unwrap()
            .statements
            .remove(0);
        assert_eq!(ExlEngine::suggest_affinity(&stmt), TargetKind::Etl);
        // plain scalar work stays native
        let stmt = exl_lang::parse_program("C := 2 * A;")
            .unwrap()
            .statements
            .remove(0);
        assert_eq!(ExlEngine::suggest_affinity(&stmt), TargetKind::Native);

        let report = e.run_all().unwrap();
        assert!(report.subgraphs.len() >= 2);
        for id in analyzed.program.derived_ids() {
            let got = e.data(&id).unwrap();
            let want = reference.data(&id).unwrap();
            assert!(got.approx_eq(want, 1e-9), "{id}");
        }
        let _ = data;
    }

    /// A bit-identical warm re-run resolves every subgraph from the run
    /// cache: no statement executes a second time.
    #[test]
    fn warm_rerun_is_fully_cached() {
        let mut e = engine_with_gdp();
        e.enable_cache();
        let cold = e.run_all().unwrap();
        assert_eq!(cold.cache.hits, 0);
        assert_eq!(cold.cache.delta_hits, 0);
        assert_eq!(cold.cache.misses, 5);
        assert_eq!(cold.cache.stores, 5);
        let snapshot: Vec<(exl_model::schema::CubeId, CubeData)> = cold
            .computed
            .iter()
            .map(|id| (id.clone(), e.data(id).unwrap().clone()))
            .collect();

        let warm = e.run_all().unwrap();
        assert_eq!(warm.cache.hits, 5);
        assert_eq!(warm.cache.misses, 0);
        assert!(warm
            .subgraphs
            .iter()
            .all(|s| s.status == SubgraphStatus::Cached));
        assert_eq!(warm.computed, cold.computed);
        for (id, want) in &snapshot {
            assert!(e.data(id).unwrap().approx_eq(want, 0.0), "{id}");
        }
    }

    /// A one-cube delta re-run patches the eligible statements
    /// incrementally and stays bit-identical to a cold engine.
    #[test]
    fn delta_rerun_matches_cold_engine() {
        let mut warm = engine_with_gdp();
        warm.enable_cache();
        warm.run_all().unwrap();
        // nudge a single observation of RGDPPC
        let mut new_data = warm.data(&"RGDPPC".into()).unwrap().clone();
        let (key, value) = {
            let (k, v) = new_data.iter().next().unwrap();
            (k.to_vec(), v)
        };
        new_data.insert_overwrite(key, value + 1.0);

        let mut cold = engine_with_gdp();
        cold.load_elementary(&"RGDPPC".into(), new_data.clone())
            .unwrap();
        cold.run_all().unwrap();

        warm.load_elementary(&"RGDPPC".into(), new_data).unwrap();
        let report = warm.recompute(&["RGDPPC".into()]).unwrap();
        // RGDP (join) and PCHNG (shift arithmetic) patch incrementally;
        // GDP (grouped sum) patches by group; GDPT is a whole-series
        // operator and must recompute in full
        assert!(
            report.cache.delta_hits >= 2,
            "delta hits: {:?}",
            report.cache
        );
        assert!(report.cache.misses >= 1, "misses: {:?}", report.cache);
        for id in ["RGDP", "GDP", "GDPT", "PCHNG"] {
            let id: exl_model::schema::CubeId = id.into();
            assert!(
                warm.data(&id)
                    .unwrap()
                    .approx_eq(cold.data(&id).unwrap(), 0.0),
                "{id} diverged from the cold engine"
            );
        }
    }

    /// The disk store survives the engine: a fresh engine pointed at the
    /// same directory resolves everything without executing.
    #[test]
    fn disk_cache_survives_engine() {
        let dir = std::env::temp_dir().join(format!("exl-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut first = engine_with_gdp();
        first.enable_disk_cache(&dir).unwrap();
        let cold = first.run_all().unwrap();
        assert_eq!(cold.cache.misses, 5);
        drop(first);

        let mut second = engine_with_gdp();
        second.enable_disk_cache(&dir).unwrap();
        let warm = second.run_all().unwrap();
        assert_eq!(warm.cache.hits, 5, "{:?}", warm.cache);
        assert_eq!(warm.cache.misses, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Historicity at the engine level: a consistent as-of snapshot of
    /// several cubes reconstructs the state after the first run.
    #[test]
    fn snapshot_as_of_reconstructs_past_state() {
        let mut e = engine_with_gdp();
        e.run_all().unwrap();
        let t1 = e.catalog.clock();
        let gdp_v1 = e.data(&"GDP".into()).unwrap().clone();
        let pchng_v1 = e.data(&"PCHNG".into()).unwrap().clone();

        let (_, data) = gdp_scenario(GdpConfig {
            seed: 7,
            ..GdpConfig::default()
        });
        e.load_elementary(&"PDR".into(), data.data(&"PDR".into()).unwrap().clone())
            .unwrap();
        e.recompute(&["PDR".into()]).unwrap();

        let snap = e.snapshot_as_of(&["GDP".into(), "PCHNG".into(), "PQR".into()], t1);
        assert!(snap.data(&"GDP".into()).unwrap().approx_eq(&gdp_v1, 0.0));
        assert!(snap
            .data(&"PCHNG".into())
            .unwrap()
            .approx_eq(&pchng_v1, 0.0));
        // before any run, nothing exists
        let empty = e.snapshot_as_of(&["GDP".into()], 0);
        assert!(!empty.contains(&"GDP".into()));
    }

    /// Registering a second program that builds on the first one's derived
    /// cubes — the multi-program DAG of §6.
    #[test]
    fn cross_program_dependencies() {
        let mut e = engine_with_gdp();
        e.register_program("analysis", "GDPYR := sum(GDP, group by year(q) as y);")
            .unwrap();
        e.run_all().unwrap();
        let gdpyr = e.data(&"GDPYR".into()).unwrap();
        assert_eq!(gdpyr.len(), GdpConfig::default().quarters / 4);
    }
}
