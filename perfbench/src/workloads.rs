//! The three workloads: their inputs (generated from the seed before any
//! timing), the engine set-up, one op, and the reference each op's output
//! is checked against.
//!
//! * `vintage` — the paper's use case: cumulative revisions of the GDP
//!   program's elementary cubes, each followed by an incremental
//!   `recompute` with the in-memory run cache on;
//! * `wide` — cold `run_all` of the wide scenario at 250k rows: intern,
//!   fused kernels, series, aggregation and materialization, no cache;
//! * `production` — cold `run_all` of the GDP and household programs
//!   spread over the SQL, R, Matlab and ETL backends.
//!
//! Sharding and pipeline-parallel ETL are deliberately absent: both are on
//! probation and may be deleted, which must never need a benchmark edit.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use exl_engine::{EngineError, ExlEngine, RunReport, TargetKind};
use exl_lang::AnalyzedProgram;
use exl_model::{CubeData, CubeId, Dataset, DimTuple, DimValue, TimePoint};
use exl_workload::GDP_PROGRAM;
use exl_workload::{gdp_scenario, wide_program, wide_scenario, DeltaGen, GdpConfig, WideConfig};

/// The household program of `examples/production_pipeline.rs`: it reads
/// the GDP program's `GDP`, so both form one determination DAG.
const HOUSEHOLD_PROGRAM: &str = r#"
cube HSPEND(q: time[quarter], r: text) -> s;
HSR := sum(HSPEND, group by q);
HSHARE := 100 * HSR / GDP;
HTREND := stl_trend(HSHARE);
"#;

/// The GDP scale shared by `vintage` and `production` (the BENCH_B4 scale):
/// 7 680 quarterly rows and 61 440 daily rows.
fn gdp_config(seed: u64) -> GdpConfig {
    GdpConfig {
        regions: 64,
        quarters: 120,
        days_per_quarter: 8,
        seed,
    }
}

/// Where `production` pins its cubes; the rest run natively.
const AFFINITIES: [(&str, TargetKind); 5] = [
    ("PQR", TargetKind::Sql),
    ("RGDP", TargetKind::Sql),
    ("GDPT", TargetKind::R),
    ("PCHNG", TargetKind::Matlab),
    ("HSR", TargetKind::Etl),
];

/// Mutations per revision: a realistic trickle against thousands of rows.
const DELTA_OPS: usize = 3;

/// Relative tolerance between the SQL/R/Matlab/ETL backends and the native
/// engine, as the `equivalence` suite documents it.
const BACKEND_TOL: f64 = 1e-9;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Vintage,
    Wide,
    Production,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "vintage" => Some(Kind::Vintage),
            "wide" => Some(Kind::Wide),
            "production" => Some(Kind::Production),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Vintage => "vintage",
            Kind::Wide => "wide",
            Kind::Production => "production",
        }
    }

    /// Ops run on one engine before it is dropped and set up again. Every
    /// op commits new catalog versions (historicity), so a fixed count per
    /// engine keeps memory independent of how fast the ops are, and each
    /// set-up gives one `setup_s` sample.
    pub fn ops_per_engine(self) -> usize {
        match self {
            Kind::Vintage => 64,
            Kind::Wide => 3,
            Kind::Production => 8,
        }
    }
}

/// One revision of the `vintage` stream: the cube it changes and the rows
/// it sets (`Some`) or deletes (`None`) relative to the previous revision.
struct Revision {
    cube: CubeId,
    diff: Vec<(DimTuple, Option<f64>)>,
}

/// What one op does, prepared outside the timed region.
pub struct OpInput {
    /// Elementary data loaded as the op's first step (`vintage` only).
    pub load: Option<(CubeId, CubeData)>,
    /// The cubes passed to `recompute`.
    pub changed: Vec<CubeId>,
}

/// Every input of one workload, generated from the seed before timing.
pub struct Inputs {
    pub kind: Kind,
    base: Dataset,
    revisions: Vec<Revision>,
    /// The wide program, analyzed (the `wide` reference evaluates it).
    wide: Option<AnalyzedProgram>,
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        match kind {
            Kind::Vintage => {
                let (_, base) = gdp_scenario(gdp_config(seed));
                let revisions = revision_stream(&base, seed, kind.ops_per_engine());
                Inputs {
                    kind,
                    base,
                    revisions,
                    wide: None,
                }
            }
            Kind::Wide => {
                // 625 regions × 400 quarters = 250 000 rows
                let (analyzed, base) = wide_scenario(WideConfig {
                    regions: 625,
                    quarters: 400,
                    seed,
                    barrier: true,
                });
                Inputs {
                    kind,
                    base,
                    revisions: Vec::new(),
                    wide: Some(analyzed),
                }
            }
            Kind::Production => {
                let (analyzed, mut base) = gdp_scenario(gdp_config(seed));
                let hspend = household_spending(seed);
                let schema = exl_lang::analyze(
                    &exl_lang::parse_program(HOUSEHOLD_PROGRAM).expect("household parses"),
                    &analyzed.schemas.values().cloned().collect::<Vec<_>>(),
                )
                .expect("household analyzes")
                .schemas[&CubeId::from("HSPEND")]
                    .clone();
                base.put(exl_model::Cube::new(schema, hspend));
                Inputs {
                    kind,
                    base,
                    revisions: Vec::new(),
                    wide: None,
                }
            }
        }
    }

    /// Rows the engine loads at set-up.
    pub fn rows(&self) -> usize {
        self.base
            .ids()
            .iter()
            .map(|id| self.base.data(id).map_or(0, CubeData::len))
            .sum()
    }

    /// Build, register, configure and load an engine, then run the
    /// untimed warm-up op (a full `run_all`, which also fills the run
    /// cache on `vintage`). `metrics` arms the engine's own counters.
    /// `reference` leaves out what the workload is about (the run cache on
    /// `vintage`, the non-native affinities on `production`), giving the
    /// engine the output check compares against.
    pub fn setup(&self, metrics: bool, reference: bool) -> Result<ExlEngine, EngineError> {
        let mut engine = ExlEngine::new();
        if metrics {
            engine.enable_metrics();
        }
        match self.kind {
            Kind::Vintage => {
                if !reference {
                    engine.enable_cache();
                }
                engine.register_program("gdp", GDP_PROGRAM)?;
            }
            Kind::Wide => {
                engine.register_program("wide", &wide_program(true))?;
            }
            Kind::Production => {
                engine.register_program("gdp", GDP_PROGRAM)?;
                engine.register_program("household", HOUSEHOLD_PROGRAM)?;
                if !reference {
                    for (cube, target) in AFFINITIES {
                        engine.catalog.set_affinity(&cube.into(), Some(target))?;
                    }
                }
            }
        }
        for id in self.base.ids() {
            let data = self.base.data(&id).expect("listed").clone();
            engine.load_elementary(&id, data)?;
        }
        engine.run_all()?;
        Ok(engine)
    }

    /// The input of the `i`-th op on an engine. On `vintage` this applies
    /// revision `i` to the engine's current data, so the copy-on-write
    /// clone of the revised cube is paid here, untimed.
    pub fn prepare(&self, engine: &ExlEngine, i: usize) -> OpInput {
        match self.kind {
            Kind::Vintage => {
                let rev = &self.revisions[i];
                let mut data = engine.data(&rev.cube).expect("loaded").clone();
                for (key, value) in &rev.diff {
                    match value {
                        Some(v) => data.insert_overwrite(key.clone(), *v),
                        None => {
                            data.remove(key);
                        }
                    }
                }
                OpInput {
                    load: Some((rev.cube.clone(), data)),
                    changed: vec![rev.cube.clone()],
                }
            }
            Kind::Wide | Kind::Production => OpInput {
                load: None,
                changed: self.base.ids(),
            },
        }
    }
}

/// One op: load the revised cube, if any, then recompute what it feeds.
pub fn run_op(engine: &mut ExlEngine, input: OpInput) -> Result<RunReport, EngineError> {
    if let Some((id, data)) = input.load {
        engine.load_elementary(&id, data)?;
    }
    engine.recompute(&input.changed)
}

/// A cumulative stream of `n` revisions: each patches the current state of
/// one cube with [`DeltaGen`]. Every block of four revisions revises the
/// daily `PDR` once, at a seeded position, and the quarterly `RGDPPC`
/// three times.
fn revision_stream(base: &Dataset, seed: u64, n: usize) -> Vec<Revision> {
    let mut gen = DeltaGen::new(seed);
    let mut pick = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut current = base.clone();
    let mut out = Vec::with_capacity(n);
    let mut pdr_slot = 0;
    for i in 0..n {
        if i % 4 == 0 {
            // xorshift: a seeded slot for this block's PDR revision
            pick ^= pick << 13;
            pick ^= pick >> 7;
            pick ^= pick << 17;
            pdr_slot = (pick % 4) as usize;
        }
        let cube = CubeId::from(if i % 4 == pdr_slot { "PDR" } else { "RGDPPC" });
        let before = current.data(&cube).expect("GDP inputs").clone();
        let after = gen.patch_cube(&before, DELTA_OPS);
        out.push(Revision {
            cube: cube.clone(),
            diff: diff(&before, &after),
        });
        let schema = current.schema(&cube).expect("GDP inputs").clone();
        current.put(exl_model::Cube::new(schema, after));
    }
    out
}

/// The rows `after` sets or deletes relative to `before`.
fn diff(before: &CubeData, after: &CubeData) -> Vec<(DimTuple, Option<f64>)> {
    let mut out: Vec<(DimTuple, Option<f64>)> = after
        .iter()
        .filter(|(k, v)| before.get(k).map(f64::to_bits) != Some(v.to_bits()))
        .map(|(k, v)| (k.clone(), Some(v)))
        .collect();
    out.extend(
        before
            .iter()
            .filter(|(k, _)| after.get(k).is_none())
            .map(|(k, _)| (k.clone(), None)),
    );
    out
}

/// Quarterly household spending per region, seeded like the GDP data.
fn household_spending(seed: u64) -> CubeData {
    let cfg = gdp_config(seed);
    let mut z = seed ^ 0x5bd1_e995;
    let mut data = CubeData::new();
    for qi in 0..cfg.quarters {
        for r in 0..cfg.regions {
            z = z.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let noise = (z >> 11) as f64 / (1u64 << 53) as f64;
            data.insert_overwrite(
                vec![
                    DimValue::Time(TimePoint::Quarter {
                        year: 2015 + (qi / 4) as i32,
                        quarter: (qi % 4 + 1) as u32,
                    }),
                    DimValue::str(format!("r{r:02}")),
                ],
                40.0 + qi as f64 + r as f64 * 5.0 + noise,
            );
        }
    }
    data
}

/// Order-independent digest of some cubes' contents: a SipHash of every
/// `(cube, key, measure bits)` entry, summed, with the row counts folded
/// in. Equal digests mean bit-identical cubes. It shares no code with the
/// run cache's fingerprints.
fn digest<'a>(cubes: impl Iterator<Item = (&'a CubeId, &'a CubeData)>) -> u64 {
    let mut acc = 0u64;
    for (id, data) in cubes {
        let mut rows = DefaultHasher::new();
        (id, data.len()).hash(&mut rows);
        acc = acc.wrapping_add(rows.finish());
        for (key, value) in data.iter() {
            let mut h = DefaultHasher::new();
            (id, key, value.to_bits()).hash(&mut h);
            acc = acc.wrapping_add(h.finish());
        }
    }
    acc
}

/// The current data of every derived cube an engine holds (shared, not
/// copied).
fn derived_cubes(engine: &ExlEngine) -> Vec<(CubeId, CubeData)> {
    let elementary = engine.catalog.elementary_ids();
    engine
        .catalog
        .cube_ids()
        .into_iter()
        .filter(|id| !elementary.contains(id))
        .filter_map(|id| engine.data(&id).cloned().map(|data| (id, data)))
        .collect()
}

/// Digest of every derived cube an engine currently holds.
fn engine_digest(engine: &ExlEngine) -> u64 {
    digest(derived_cubes(engine).iter().map(|(id, data)| (id, data)))
}

/// What the timed phase observed, for the output check.
#[derive(Default)]
pub struct Observed {
    /// `(op index on its engine, digest of the derived cubes after it)`.
    digests: Vec<(usize, u64)>,
    /// The derived cubes after the first `production` op, for the
    /// tolerance check against the native engine. Other workloads keep
    /// none, so no engine's results outlive it into the memory peak.
    sample: Vec<(CubeId, CubeData)>,
}

impl Observed {
    /// Record the outcome of op `i` of an engine, untimed.
    pub fn record(&mut self, kind: Kind, i: usize, engine: &ExlEngine) {
        self.digests.push((i, engine_digest(engine)));
        if kind == Kind::Production && self.sample.is_empty() {
            self.sample = derived_cubes(engine);
        }
    }
}

/// Check every op's output against a reference computed on a different
/// code path; returns the number of ops whose output is wrong.
///
/// * `vintage`: a cache-disabled engine replays the same revisions, so
///   each op must match it bit for bit;
/// * `wide`: the statement-at-a-time evaluator
///   (`exl_eval::run_program_unfused`), bit for bit;
/// * `production`: an all-native engine, within the backends' documented
///   tolerance; every op must also repeat the sample op bit for bit.
pub fn wrong_ops(inputs: &Inputs, observed: &Observed) -> Result<usize, EngineError> {
    let expected: Vec<u64> = match inputs.kind {
        Kind::Vintage => {
            let mut engine = inputs.setup(false, true)?;
            let ops = observed
                .digests
                .iter()
                .map(|&(i, _)| i + 1)
                .max()
                .unwrap_or(0);
            let mut out = Vec::with_capacity(ops);
            for i in 0..ops {
                let input = inputs.prepare(&engine, i);
                run_op(&mut engine, input)?;
                out.push(engine_digest(&engine));
            }
            out
        }
        Kind::Wide => {
            let analyzed = inputs.wide.as_ref().expect("wide inputs");
            let env = exl_eval::run_program_unfused(analyzed, &inputs.base)
                .map_err(|e| EngineError::Execution(e.to_string()))?;
            let derived = analyzed.program.derived_ids();
            let want = digest(
                derived
                    .iter()
                    .map(|id| (id, env.data(id).expect("derived"))),
            );
            vec![want; inputs.kind.ops_per_engine()]
        }
        Kind::Production => {
            let native = inputs.setup(false, true)?;
            let close = observed.sample.iter().all(|(id, got)| {
                native
                    .data(id)
                    .is_some_and(|want| got.approx_eq(want, BACKEND_TOL))
            });
            if observed.sample.is_empty() || !close {
                return Ok(observed.digests.len());
            }
            let sample = digest(observed.sample.iter().map(|(id, data)| (id, data)));
            vec![sample; inputs.kind.ops_per_engine()]
        }
    };
    Ok(observed
        .digests
        .iter()
        .filter(|&&(i, d)| expected.get(i) != Some(&d))
        .count())
}
