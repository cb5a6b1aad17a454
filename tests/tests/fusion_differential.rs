//! Differential coverage of plan compilation (fusion + CSE).
//!
//! The fused region executor is only allowed to change *how* a native
//! subgraph computes, never a single bit of what it produces. Each case
//! builds a seeded random program with matching data and compares three
//! executions of it:
//!
//! * the **fused** plan-compiled path (`exl_eval::run_program`);
//! * the **unfused** statement-at-a-time reference
//!   (`exl_eval::run_program_unfused`) — bitwise identical;
//! * the **interned chase** baseline (PR 4) — within `1e-9`, the same
//!   tolerance the interned differential pins.
//!
//! A second matrix replays warm-cache delta runs: with the run cache on,
//! a vintage patch splits each subgraph at the dirty frontier (cached
//! prefixes replay, dirty statements re-execute), and the result must
//! stay bit-identical to a fused cold run over the patched data.

use exl_chase::{chase, ChaseMode};
use exl_lang::analyze::AnalyzedProgram;
use exl_map::generate::{generate_mapping, GenMode};
use exl_model::Dataset;
use exl_workload::chains::chain_scenario;
use exl_workload::{random_scenario, DeltaGen, RandomConfig};

/// Every derived cube of `a`, bit-compared against `b` (`approx_eq`
/// tolerance `0.0` — same discipline as the incremental differential).
fn assert_bit_identical(analyzed: &AnalyzedProgram, a: &Dataset, b: &Dataset, label: &str) {
    for id in analyzed.program.derived_ids() {
        let x = a
            .data(&id)
            .unwrap_or_else(|| panic!("{label}: {id} missing on the fused side"));
        let y = b
            .data(&id)
            .unwrap_or_else(|| panic!("{label}: {id} missing on the reference side"));
        assert!(
            x.approx_eq(y, 0.0),
            "{label}: {id} is not bit-identical\nprogram:\n{}\n{:?}",
            exl_lang::program_to_string(&analyzed.program),
            x.diff(y, 0.0)
        );
    }
}

/// One seeded case: fused ≡ unfused bitwise, and ≡ the interned chase
/// within 1e-9.
fn differential_case(cfg: RandomConfig, with_chase: bool) {
    let (analyzed, input) = random_scenario(cfg);
    let label = format!("seed {}", cfg.seed);
    let fused = exl_eval::run_program(&analyzed, &input)
        .unwrap_or_else(|e| panic!("{label}: fused eval failed: {e}"));
    let unfused = exl_eval::run_program_unfused(&analyzed, &input)
        .unwrap_or_else(|e| panic!("{label}: unfused eval failed: {e}"));
    assert_bit_identical(&analyzed, &fused, &unfused, &label);

    if with_chase {
        let (mapping, re) =
            generate_mapping(&analyzed, GenMode::Fused).unwrap_or_else(|e| panic!("{label}: {e}"));
        let chased = chase(&mapping, &re.schemas, &input, ChaseMode::Stratified)
            .unwrap_or_else(|e| panic!("{label}: chase failed: {e}"));
        for id in analyzed.program.derived_ids() {
            let x = fused.data(&id).expect("fused derived");
            let y = chased
                .solution
                .data(&id)
                .unwrap_or_else(|| panic!("{label}: {id} missing from chase"));
            assert!(
                x.approx_eq(y, 1e-9),
                "{label}: fused and chase disagree on {id}\nprogram:\n{}\n{:?}",
                exl_lang::program_to_string(&analyzed.program),
                x.diff(y, 1e-9)
            );
        }
    }
}

/// The headline matrix: 120 seeded random programs (aggregations,
/// frequency maps, series operators, shifts, outer variants), fused ≡
/// unfused bitwise on every one, with the interned chase cross-checked
/// on a quarter of the corpus.
#[test]
fn fused_equals_unfused_over_120_seeded_programs() {
    for seed in 0..120u64 {
        differential_case(
            RandomConfig {
                seed,
                statements: 3 + (seed as usize % 7),
                multituple: true,
                ..RandomConfig::default()
            },
            seed % 4 == 0,
        );
    }
}

/// Deep shift/scalar chains are exactly the shape fusion rewrites most
/// aggressively (the B1 workload): pin them bitwise at several depths.
#[test]
fn fused_equals_unfused_on_deep_chains() {
    for depth in [1usize, 3, 10, 40] {
        let (analyzed, input) = chain_scenario(depth, 64);
        let fused = exl_eval::run_program(&analyzed, &input).expect("fused chain");
        let unfused = exl_eval::run_program_unfused(&analyzed, &input).expect("unfused chain");
        assert_bit_identical(&analyzed, &fused, &unfused, &format!("chain depth {depth}"));
        let (_, stats) = exl_eval::run_program_with_stats(&analyzed, &input).expect("stats");
        assert!(
            depth < 2 || stats.fused_ops > 0,
            "depth {depth}: chain workload did not fuse: {stats:?}"
        );
    }
}

/// The wide workload (the benchmark's `wide` shape, scaled down): a
/// row-wise chain and two per-region series over `(q, r)` capped by a
/// cross-region aggregation, run through the full engine with fusion on
/// and off (the per-run `ExecOpts` switch) — bit-identical either way.
#[test]
fn wide_workload_fused_equals_unfused_through_the_engine() {
    use exl_workload::{wide_program, wide_scenario, WideConfig};
    let cfg = WideConfig {
        regions: 50,
        quarters: 16,
        seed: 7,
        barrier: true,
    };
    let (analyzed, input) = wide_scenario(cfg);
    let src = wide_program(cfg.barrier);
    let run = |no_fusion: bool| {
        let mut e = exl_engine::ExlEngine::new();
        e.exec.no_fusion = no_fusion;
        e.register_program("wide", &src).expect("program registers");
        for id in analyzed.elementary_inputs() {
            e.load_elementary(&id, input.data(&id).expect("input data").clone())
                .expect("elementary loads");
        }
        e.run_all().expect("wide run");
        let mut out = Dataset::new();
        for id in analyzed.program.derived_ids() {
            let data = e.data(&id).expect("derived cube computed").clone();
            out.put(exl_model::Cube::new(analyzed.schemas[&id].clone(), data));
        }
        out
    };
    assert_bit_identical(&analyzed, &run(false), &run(true), "wide workload");
}

/// Warm-cache delta runs: the engine's run cache splits subgraphs at the
/// dirty frontier (cached statements replay, dirty ones re-execute), and
/// the mixed result must stay bit-identical to a fused cold run over the
/// patched data.
#[test]
fn warm_cache_delta_runs_stay_bit_identical_to_fused_cold_runs() {
    for seed in 0..25u64 {
        let cfg = RandomConfig {
            seed,
            statements: 3 + (seed as usize % 5),
            ..RandomConfig::default()
        };
        let (analyzed, input) = random_scenario(cfg);
        let src = exl_lang::program_to_string(&analyzed.program);
        let label = format!("warm seed {seed}");

        let mut warm = exl_engine::ExlEngine::new();
        warm.register_program("p", &src).expect("program registers");
        for id in analyzed.elementary_inputs() {
            warm.load_elementary(&id, input.data(&id).expect("input data").clone())
                .expect("elementary loads");
        }
        warm.enable_cache();
        warm.run_all().expect("first vintage");

        let patch = DeltaGen::new(seed ^ 0xf05e).patch_dataset(&input, 1, 1 + seed as usize % 3);
        let mut changed = Vec::new();
        let mut patched_input = input.clone();
        for (id, data) in &patch {
            warm.load_elementary(id, data.clone()).expect("patch loads");
            let schema = patched_input.get(id).expect("patched cube").schema.clone();
            patched_input.put(exl_model::Cube::new(schema, data.clone()));
            changed.push(id.clone());
        }
        warm.recompute(&changed).expect("warm delta recompute");

        // fused cold reference over the patched vintage
        let cold = exl_eval::run_program(&analyzed, &patched_input)
            .unwrap_or_else(|e| panic!("{label}: fused cold run failed: {e}"));
        for id in analyzed.program.derived_ids() {
            let got = warm
                .data(&id)
                .unwrap_or_else(|| panic!("{label}: {id} missing in warm engine"));
            let want = cold.data(&id).expect("cold derived");
            assert!(
                got.approx_eq(want, 0.0),
                "{label}: {id} diverged after the dirty-frontier split\n{:?}",
                got.diff(want, 0.0)
            );
        }
    }
}

/// An armed flight recorder must see `plan.fuse` from a real engine run
/// over a fusible chain program, and the run's metrics snapshot must
/// carry the `plan.*` counters — the end-to-end half of the flight-ring
/// unit test in `exl-obs`.
#[test]
fn fused_engine_run_records_plan_flight_events_and_counters() {
    let (analyzed, input) = chain_scenario(10, 64);
    let src = exl_lang::program_to_string(&analyzed.program);
    let mut e = exl_engine::ExlEngine::new();
    e.register_program("p", &src).expect("program registers");
    for id in analyzed.elementary_inputs() {
        e.load_elementary(&id, input.data(&id).expect("input data").clone())
            .expect("elementary loads");
    }
    e.enable_metrics();
    exl_obs::flight::arm_default();
    let report = e.run_all().expect("fused run");
    let events = exl_obs::flight::tail();
    assert!(
        events.iter().any(|ev| ev.kind.as_str() == "plan.fuse"),
        "armed ring saw no plan.fuse event: {:?}",
        events.iter().map(|ev| ev.kind.as_str()).collect::<Vec<_>>()
    );
    assert!(
        report.metrics.counter("plan.fused_ops") > 0,
        "plan.fused_ops counter missing from the run metrics:\n{}",
        report.metrics.to_json()
    );
    assert!(report.metrics.counter("plan.regions") > 0);
}
