//! The cold≡warm differential harness pinning the run cache.
//!
//! The incremental machinery (content fingerprints, exact cache hits,
//! delta kernels, disk reload) is only allowed to change *how much work*
//! a run does, never a single bit of what it produces. Each case here
//! builds a seeded random program with matching data, runs it once to
//! warm the cache, applies a seeded random vintage delta
//! ([`exl_workload::DeltaGen`] — inserts, updates, deletes), and then
//! compares the warm incremental re-run against engines that never saw
//! the first vintage:
//!
//! * a **cold** engine loaded directly with the patched data;
//! * a cache-**disabled** engine driven through the identical two-phase
//!   load/recompute sequence;
//! * a **fresh engine over the same disk cache directory**, standing in
//!   for a new process reattaching to a persistent store (a true
//!   fresh-process reload is exercised by the `exlc --cache-dir` CLI
//!   test).
//!
//! All comparisons are **bitwise** (`approx_eq` with tolerance `0.0`):
//! the delta kernels replay the same kernels over restricted inputs, so
//! even float folds must land on identical bits.

use exl_engine::ExlEngine;
use exl_lang::analyze::AnalyzedProgram;
use exl_model::schema::CubeId;
use exl_model::{CubeData, Dataset};
use exl_workload::chains::forest_scenario;
use exl_workload::{random_scenario, DeltaGen, RandomConfig};

/// An engine with the program registered and `input`'s elementary cubes
/// loaded.
fn build_engine(src: &str, analyzed: &AnalyzedProgram, input: &Dataset) -> ExlEngine {
    let mut e = ExlEngine::new();
    e.register_program("p", src).expect("program registers");
    for id in analyzed.elementary_inputs() {
        e.load_elementary(&id, input.data(&id).expect("input data").clone())
            .expect("elementary loads");
    }
    e
}

/// Every derived cube of `a`, bit-compared against `b`.
fn assert_bit_identical(analyzed: &AnalyzedProgram, a: &ExlEngine, b: &ExlEngine, label: &str) {
    for id in analyzed.program.derived_ids() {
        let got = a
            .data(&id)
            .unwrap_or_else(|| panic!("{label}: {id} missing in warm engine"));
        let want = b
            .data(&id)
            .unwrap_or_else(|| panic!("{label}: {id} missing in reference engine"));
        assert!(
            got.approx_eq(want, 0.0),
            "{label}: {id} is not bit-identical\n{:?}",
            got.diff(want, 0.0)
        );
    }
}

/// Load a patch into an engine and recompute exactly the changed cubes.
fn apply_patch(e: &mut ExlEngine, patch: &[(CubeId, CubeData)]) {
    let mut changed = Vec::new();
    for (id, data) in patch {
        e.load_elementary(id, data.clone()).expect("patch loads");
        changed.push(id.clone());
    }
    e.recompute(&changed).expect("incremental recompute");
}

/// One seeded program/delta pair: warm cached re-run ≡ cold engine ≡
/// cache-disabled engine, bit for bit. Returns the warm run's cache
/// counters so the matrix can assert aggregate behavior.
fn differential_case(seed: u64) -> exl_engine::CacheStats {
    let cfg = RandomConfig {
        seed,
        statements: 3 + (seed as usize % 6),
        ..RandomConfig::default()
    };
    let (analyzed, input) = random_scenario(cfg);
    let src = exl_lang::program_to_string(&analyzed.program);
    let patch = DeltaGen::new(seed ^ 0x5eed).patch_dataset(
        &input,
        1 + seed as usize % 2,
        1 + seed as usize % 4,
    );

    // warm: cache on, two vintages
    let mut warm = build_engine(&src, &analyzed, &input);
    warm.enable_cache();
    warm.run_all().expect("warm first vintage");
    let mut changed = Vec::new();
    for (id, data) in &patch {
        warm.load_elementary(id, data.clone()).expect("patch loads");
        changed.push(id.clone());
    }
    let report = warm
        .recompute(&changed)
        .expect("warm incremental recompute");

    // disabled: the identical call sequence without a cache
    let mut disabled = build_engine(&src, &analyzed, &input);
    disabled.run_all().expect("disabled first vintage");
    apply_patch(&mut disabled, &patch);

    // cold: never saw the first vintage at all
    let mut patched_input = input.clone();
    for (id, data) in &patch {
        let schema = patched_input
            .get(id)
            .expect("patched cube exists")
            .schema
            .clone();
        patched_input.put(exl_model::Cube::new(schema, data.clone()));
    }
    let mut cold = build_engine(&src, &analyzed, &patched_input);
    cold.run_all().expect("cold run");

    assert_bit_identical(
        &analyzed,
        &warm,
        &disabled,
        &format!("seed {seed} (cache off)"),
    );
    assert_bit_identical(&analyzed, &warm, &cold, &format!("seed {seed} (cold)"));
    report.cache
}

/// The acceptance matrix: 100 seeded program/delta pairs, every one
/// bit-identical across warm, cache-disabled, and cold engines — and the
/// cache must have actually done something across the corpus.
#[test]
fn cold_equals_warm_over_100_seeded_pairs() {
    let mut total = exl_engine::CacheStats::default();
    for seed in 0..100 {
        total.add(&differential_case(seed));
    }
    assert!(
        total.hits + total.delta_hits > 0,
        "the cache never resolved a statement across 100 pairs: {total:?}"
    );
    assert!(
        total.delta_hits > 0,
        "no delta kernel ever engaged across 100 pairs: {total:?}"
    );
    assert_eq!(total.corrupt_entries, 0);
    assert_eq!(total.write_failures, 0);
}

/// A fresh engine attached to the disk store of a previous engine must
/// replay the first vintage exactly and stay bit-identical through a
/// delta — the persistent-store variant of the differential.
#[test]
fn disk_cache_reload_stays_bit_identical() {
    for seed in [0u64, 3, 11, 42, 97] {
        let cfg = RandomConfig {
            seed,
            statements: 5,
            ..RandomConfig::default()
        };
        let (analyzed, input) = random_scenario(cfg);
        let src = exl_lang::program_to_string(&analyzed.program);
        let dir = std::env::temp_dir().join(format!("exl-incr-diff-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut first = build_engine(&src, &analyzed, &input);
        first.enable_disk_cache(&dir).expect("disk cache");
        first.run_all().expect("first engine run");
        drop(first);

        // fresh engine, same store: the whole first vintage replays
        let mut second = build_engine(&src, &analyzed, &input);
        second.enable_disk_cache(&dir).expect("disk cache");
        let replay = second.run_all().expect("replay run");
        assert_eq!(
            replay.cache.misses, 0,
            "seed {seed}: fresh engine re-executed statements: {:?}",
            replay.cache
        );

        // and a delta on top of the reloaded store stays bit-identical
        let patch = DeltaGen::new(seed).patch_dataset(&input, 1, 3);
        apply_patch(&mut second, &patch);
        let mut patched_input = input.clone();
        for (id, data) in &patch {
            let schema = patched_input.get(id).unwrap().schema.clone();
            patched_input.put(exl_model::Cube::new(schema, data.clone()));
        }
        let mut cold = build_engine(&src, &analyzed, &patched_input);
        cold.run_all().expect("cold run");
        assert_bit_identical(
            &analyzed,
            &second,
            &cold,
            &format!("seed {seed} (disk reload)"),
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// The headline claim: on a wide forest workload, a warm re-run after a
/// one-cube vintage delta executes at least 5× fewer statements than the
/// plan contains — everything off the dirty chain is served from cache.
#[test]
fn warm_one_cube_delta_skips_5x_statements() {
    let (analyzed, input) = forest_scenario(8, 4, 12);
    let src = exl_lang::program_to_string(&analyzed.program);

    let mut e = build_engine(&src, &analyzed, &input);
    e.enable_cache();
    let cold = e.run_all().expect("cold forest run");
    let total_stmts = cold.cache.misses;
    assert_eq!(total_stmts, 32, "8 chains × depth 4");

    // revise one observation of one root cube
    let root: CubeId = "F0_0".into();
    let patch = DeltaGen::new(7).patch_cube(input.data(&root).unwrap(), 2);
    e.load_elementary(&root, patch).expect("patch loads");
    // a full re-run, not a targeted recompute: the plan spans all 32
    // statements and the cache must prune it
    let warm = e.run_all().expect("warm forest run");
    let executed = warm.cache.misses;
    let resolved = warm.cache.hits + warm.cache.delta_hits;
    assert_eq!(executed + resolved, total_stmts);
    assert!(
        executed * 5 <= total_stmts,
        "warm run executed {executed} of {total_stmts} statements (cache: {:?})",
        warm.cache
    );

    // and the pruned run is still bit-identical to a cold engine
    let mut patched_input = input.clone();
    let schema = patched_input.get(&root).unwrap().schema.clone();
    patched_input.put(exl_model::Cube::new(
        schema,
        e.catalog.current(&root).unwrap().clone(),
    ));
    let mut cold_engine = build_engine(&src, &analyzed, &patched_input);
    cold_engine.run_all().expect("cold reference run");
    assert_bit_identical(&analyzed, &e, &cold_engine, "forest 1-cube delta");
}

/// Series statements patch per slice: on the wide workload (40 regions ×
/// 12 quarters), revising one region's observation re-derives only that
/// region's slice of the two `movavg` series. Every statement resolves
/// through the cache (exact hit or delta patch), none executes in full,
/// and the result is bit-identical to a cache-free engine over the
/// patched data.
#[test]
fn one_region_delta_patches_every_wide_statement_warm() {
    use exl_model::value::DimValue;
    use exl_workload::{wide_program, wide_scenario, WideConfig};
    let cfg = WideConfig {
        regions: 40,
        quarters: 12,
        seed: 3,
        barrier: true,
    };
    let (analyzed, input) = wide_scenario(cfg);
    let src = wide_program(cfg.barrier);
    let mut e = build_engine(&src, &analyzed, &input);
    e.enable_cache();
    e.run_all().expect("cold wide run");

    let w: CubeId = "W".into();
    let mut patched = input.data(&w).expect("wide input").clone();
    patched.insert_overwrite(
        vec![
            DimValue::Time(exl_model::TimePoint::Quarter {
                year: 2000,
                quarter: 1,
            }),
            DimValue::Str("r00007".into()),
        ],
        999.25,
    );
    e.load_elementary(&w, patched.clone()).expect("patch loads");
    let report = e
        .recompute(std::slice::from_ref(&w))
        .expect("warm delta recompute");
    assert_eq!(
        report.cache.misses, 0,
        "a one-region delta executed statements in full: {:?}",
        report.cache
    );

    let mut patched_input = input.clone();
    let schema = patched_input.get(&w).expect("wide input").schema.clone();
    patched_input.put(exl_model::Cube::new(schema, patched));
    let mut reference = build_engine(&src, &analyzed, &patched_input);
    reference.run_all().expect("cache-free reference run");
    assert_bit_identical(&analyzed, &e, &reference, "wide one-region delta");
}
