//! Per-layer attribution of one op, for the traced pass.
//!
//! The program carries no spans for most of its layers yet, so the traced
//! pass times calls into each layer's public functions on the op's real
//! inputs and outputs, right after the op and outside its timed region,
//! and reads the counters the program already exports: the run report's
//! cache counts, each subgraph's `wall_nanos` and target, and the
//! `plan.*` metrics counters. Nothing here adds a span to the program.

use std::hint::black_box;
use std::time::Instant;

use exl_engine::target::{input_schemas, subprogram, translate};
use exl_engine::{Catalog, EngineError, ExlEngine, RunReport, TargetKind};
use exl_lang::Statement;
use exl_model::{Cube, CubeBatch, CubeSchema, Dataset, DimPool, Fingerprint};

/// Layer times and counts of one op. Times are in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct LayerSample {
    /// Wall time of the op itself (with the engine's metrics armed).
    pub op_ms: f64,
    pub determination_ms: f64,
    pub stmts_selected: f64,
    pub translate_ms: f64,
    pub plan_compile_ms: f64,
    pub fused_ops: f64,
    pub intern_ms: f64,
    pub eval_ms: f64,
    pub materialize_ms: f64,
    pub cache_fingerprint_ms: f64,
    /// Statements served from the cache (exact or delta hits).
    pub cache_resolved: f64,
    pub cache_misses: f64,
    pub catalog_commit_ms: f64,
    pub sql_ms: f64,
    pub r_ms: f64,
    pub matlab_ms: f64,
    pub etl_ms: f64,
    /// Op wall time minus the summed `wall_nanos` of its subgraphs.
    pub dispatch_overhead_ms: f64,
}

impl LayerSample {
    /// Sum of the disjoint layer times divided by the op's wall time. The
    /// native layers (compile, intern, eval, materialize) split the replay
    /// of a full native execution; a cache-served subgraph is covered only
    /// by its fingerprinting, so time spent in delta kernels shows up as
    /// missing coverage.
    pub fn coverage(&self) -> f64 {
        let covered = self.determination_ms
            + self.translate_ms
            + self.plan_compile_ms
            + self.intern_ms
            + self.eval_ms
            + self.materialize_ms
            + self.cache_fingerprint_ms
            + self.catalog_commit_ms
            + self.sql_ms
            + self.r_ms
            + self.matlab_ms
            + self.etl_ms;
        covered / self.op_ms
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Time parsing and analysis of every program registered on `engine`, in
/// registration order, each against the schemas of the ones before it (as
/// `register_program` does).
pub fn parse_analyze_ms(engine: &ExlEngine) -> Result<f64, EngineError> {
    let mut known: Vec<CubeSchema> = Vec::new();
    let started = Instant::now();
    for (_, source) in engine.catalog.programs() {
        let program =
            exl_lang::parse_program(source).map_err(|e| EngineError::Lang(e.to_string()))?;
        let external: Vec<CubeSchema> = known
            .iter()
            .filter(|s| !program.decls.iter().any(|d| d.id == s.id))
            .cloned()
            .collect();
        let analyzed =
            exl_lang::analyze(&program, &external).map_err(|e| EngineError::Lang(e.to_string()))?;
        for schema in analyzed.schemas.into_values() {
            if !known.iter().any(|k| k.id == schema.id) {
                known.push(schema);
            }
        }
    }
    Ok(ms(started))
}

/// A catalog with `engine`'s schemas and no data: the target of the
/// commit replays.
pub fn scratch_catalog(engine: &ExlEngine) -> Result<Catalog, EngineError> {
    let mut catalog = Catalog::new();
    for id in engine.catalog.cube_ids() {
        catalog.register_schema(engine.catalog.schema(&id).expect("listed").clone())?;
    }
    Ok(catalog)
}

/// Attribute one finished op. `loaded` names the elementary cube the op
/// loaded, if any; `fused_ops` is the op's increment of the engine's
/// `plan.fused_ops` counter.
pub fn attribute(
    engine: &ExlEngine,
    changed: &[exl_model::CubeId],
    loaded: Option<&exl_model::CubeId>,
    report: &RunReport,
    op_ms: f64,
    fused_ops: u64,
    scratch: &mut Catalog,
) -> Result<LayerSample, EngineError> {
    let graph = engine.graph();
    let affinity = |id: &exl_model::CubeId| {
        engine
            .catalog
            .meta(id)
            .and_then(|m| m.affinity)
            .unwrap_or(engine.default_target)
    };
    let schema_of = |id: &exl_model::CubeId| engine.catalog.schema(id).cloned();
    let mut s = LayerSample {
        op_ms,
        fused_ops: fused_ops as f64,
        ..LayerSample::default()
    };

    // determination: dirty statements, per-target subgraphs, stages
    let started = Instant::now();
    let plan = graph.determine(changed);
    let subgraphs = graph.partition(&plan, &affinity);
    black_box(graph.stages(&subgraphs));
    s.determination_ms = ms(started);
    s.stmts_selected = plan.len() as f64;
    if subgraphs.len() != report.subgraphs.len() {
        return Err(EngineError::Execution(format!(
            "replayed {} subgraphs, the op ran {}",
            subgraphs.len(),
            report.subgraphs.len()
        )));
    }

    for (sub, ran) in subgraphs.iter().zip(&report.subgraphs) {
        let stmts: Vec<Statement> = sub
            .statements
            .iter()
            .map(|&i| graph.statements()[i].clone())
            .collect();
        // translation, with the dispatcher's fallback for operators the
        // target does not support
        let started = Instant::now();
        let inputs = input_schemas(&stmts, &schema_of)?;
        let analyzed = subprogram(&stmts, &inputs)?;
        let code = match translate(&analyzed, sub.target) {
            Err(EngineError::Unsupported { .. }) => translate(&analyzed, TargetKind::Native)?,
            other => other?,
        };
        s.translate_ms += ms(started);

        let wall_ms = ran.wall_nanos as f64 / 1e6;
        s.dispatch_overhead_ms -= wall_ms;
        s.cache_resolved += (ran.cache.hits + ran.cache.delta_hits) as f64;
        s.cache_misses += ran.cache.misses as f64;
        match ran.target {
            TargetKind::Sql => s.sql_ms += wall_ms,
            TargetKind::R => s.r_ms += wall_ms,
            TargetKind::Matlab => s.matlab_ms += wall_ms,
            TargetKind::Etl | TargetKind::EtlParallel => s.etl_ms += wall_ms,
            TargetKind::Native | TargetKind::Chase => {}
        }
        // a native subgraph the cache did not serve ran the fused
        // evaluator in full: replay its layers
        let cache_served = ran.cache.hits + ran.cache.delta_hits > 0;
        if code.target_kind() == TargetKind::Native && !cache_served {
            let mut data = Dataset::new();
            for schema in inputs {
                let cube = engine.data(&schema.id).expect("input committed").clone();
                data.put(Cube::new(schema, cube));
            }
            replay_native(&analyzed, &data, &mut s)?;
        }
    }
    s.dispatch_overhead_ms += op_ms;

    // the run cache fingerprints the changed input and every result it
    // stores (unchanged cubes hit its memo)
    if engine.cache_enabled() {
        let started = Instant::now();
        for id in changed.iter().chain(&report.computed) {
            black_box(Fingerprint::of_cube(engine.data(id).expect("committed")));
        }
        s.cache_fingerprint_ms = ms(started);
    }

    // catalog writes: the elementary load and the transactional commit
    let started = Instant::now();
    if let Some(id) = loaded {
        scratch.store(id, engine.data(id).expect("loaded").clone())?;
    }
    let items = report
        .computed
        .iter()
        .map(|id| (id.clone(), engine.data(id).expect("committed").clone()))
        .collect();
    scratch.commit_versions(items)?;
    s.catalog_commit_ms = ms(started);
    Ok(s)
}

/// Replay a native subgraph's execution split into plan compilation,
/// interning of its inputs, evaluation and materialization of its
/// results. Evaluation is the self time of `run_program`: its wall time
/// minus the three other parts, which it performs internally.
fn replay_native(
    analyzed: &exl_lang::AnalyzedProgram,
    inputs: &Dataset,
    s: &mut LayerSample,
) -> Result<(), EngineError> {
    let eval_err = |e: exl_eval::EvalError| EngineError::Execution(e.to_string());
    let started = Instant::now();
    let plan = exl_eval::plan_description(analyzed).map_err(eval_err)?;
    let compile_ms = ms(started);
    black_box(plan);

    let mut pool = DimPool::new();
    let started = Instant::now();
    for (_, cube) in inputs.iter() {
        black_box(CubeBatch::from_data(&cube.data, &mut pool));
    }
    let intern_ms = ms(started);

    let started = Instant::now();
    let env = exl_eval::run_program(analyzed, inputs).map_err(eval_err)?;
    let run_ms = ms(started);

    let mut pool = DimPool::new();
    let batches: Vec<CubeBatch> = analyzed
        .program
        .derived_ids()
        .iter()
        .map(|id| CubeBatch::from_data(env.data(id).expect("derived"), &mut pool))
        .collect();
    let started = Instant::now();
    for batch in &batches {
        black_box(batch.to_data(&pool));
    }
    let materialize_ms = ms(started);

    s.plan_compile_ms += compile_ms;
    s.intern_ms += intern_ms;
    s.materialize_ms += materialize_ms;
    s.eval_ms += run_ms - compile_ms - intern_ms - materialize_ms;
    Ok(())
}
