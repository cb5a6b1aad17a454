//! EXLEngine proper: the orchestration of Fig. 2.
//!
//! Programs are registered against the catalog; data loads create new
//! cube versions; on change, the determination engine builds the plan,
//! the translation engine produces per-subgraph executables (offline, in
//! the sense that it touches no data), and the dispatcher assigns each
//! subgraph to its target engine — sequentially or with stage-level
//! parallelism — moving cube data between engines as needed.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use exl_model::schema::{CubeId, CubeKind};
use exl_model::CubeData;
use exl_obs::{MetricsRegistry, MetricsSnapshot, NoopRecorder, Recorder};

use crate::cache::{CacheStats, RunCache, StmtCacheCounts};
use crate::catalog::Catalog;
use crate::determination::{GlobalGraph, Subgraph};
use crate::error::EngineError;
use crate::govern::GovernConfig;
use crate::supervise::{run_supervised, Attempt, DispatchPolicy, SubgraphStatus};
use crate::target::{
    dataset_rows, input_schemas, subprogram, translate, ExecOpts, TargetCode, TargetKind,
};

/// A callback invoked as each subgraph finishes during a run — the
/// engine-side hook behind the CLI's `--progress` live status line.
/// Subgraph results are staged in dispatch order on the dispatching
/// thread, so the callback never races with itself.
#[derive(Clone)]
pub struct ProgressSink(Arc<dyn Fn(&ProgressEvent) + Send + Sync>);

impl ProgressSink {
    /// Wrap a callback.
    pub fn new(f: impl Fn(&ProgressEvent) + Send + Sync + 'static) -> ProgressSink {
        ProgressSink(Arc::new(f))
    }

    fn emit(&self, event: &ProgressEvent) {
        (self.0)(event)
    }
}

impl std::fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressSink(..)")
    }
}

/// One subgraph finished (computed, cached, failed, or skipped).
#[derive(Debug, Clone)]
pub struct ProgressEvent {
    /// Subgraphs finished so far in this run, this one included.
    pub done: usize,
    /// Total subgraphs in this run.
    pub total: usize,
    /// Cubes the subgraph computes.
    pub cubes: Vec<CubeId>,
    /// Target that executed (or would have executed) the subgraph.
    pub target: TargetKind,
    /// How the subgraph ended.
    pub status: SubgraphStatus,
}

/// The engine.
#[derive(Debug, Clone)]
pub struct ExlEngine {
    /// The metadata catalog (schemas, affinities, versions, programs).
    pub catalog: Catalog,
    graph: GlobalGraph,
    /// Target used when a cube has no affinity.
    pub default_target: TargetKind,
    /// Dispatch independent subgraphs of a stage on separate threads.
    pub parallel_dispatch: bool,
    /// Per-run execution options (the fusion switch)
    /// threaded down to every backend invocation of this engine.
    pub exec: ExecOpts,
    /// Fault-handling policy for dispatch (retries, deadlines, fallback,
    /// degradation mode).
    pub policy: DispatchPolicy,
    /// Run governance: the external cancellation token and per-run
    /// resource budgets. Every [`ExlEngine::recompute`] derives a run
    /// governor from this config and installs it for the duration of the
    /// run; see [`crate::govern`] for the token topology.
    pub govern: GovernConfig,
    /// Metrics registry, populated when observability is enabled via
    /// [`ExlEngine::enable_metrics`]. When `None` every instrumented path
    /// uses the no-op recorder, adding no overhead.
    metrics: Option<Arc<MetricsRegistry>>,
    /// Hierarchical tracer, armed via [`ExlEngine::enable_tracing`].
    /// Disabled by default: every traced path takes the inert no-op route.
    tracer: exl_obs::Tracer,
    /// Per-subgraph completion callback (see [`ProgressSink`]).
    pub progress: Option<ProgressSink>,
    /// The run cache, armed via [`ExlEngine::enable_cache`] or
    /// [`ExlEngine::enable_disk_cache`]. When `None` every statement is
    /// recomputed from scratch (cold semantics).
    cache: Option<RunCache>,
    /// Crash-bundle directory, armed via [`ExlEngine::set_bundle_dir`].
    /// When set, every failed run dumps a bundle there (and arming it
    /// arms the process-global flight recorder).
    bundle_dir: Option<std::path::PathBuf>,
    /// Run-ledger directory, armed via [`ExlEngine::set_ledger_dir`].
    /// When set, every run appends one JSONL record there.
    ledger_dir: Option<std::path::PathBuf>,
    /// Path of the most recently written crash bundle, if any.
    last_bundle: Option<std::path::PathBuf>,
}

/// What happened to one subgraph during a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SubgraphReport {
    /// Target that executed the subgraph.
    pub target: TargetKind,
    /// True when the requested target declined (unsupported operator) and
    /// the dispatcher fell back to the native engine.
    pub fallback: bool,
    /// Cubes the subgraph computed.
    pub cubes: Vec<CubeId>,
    /// Final status under the dispatch supervisor.
    pub status: SubgraphStatus,
    /// Execution attempts, in order (empty for skipped and cached
    /// subgraphs).
    pub attempts: Vec<Attempt>,
    /// The error that failed the subgraph, when it failed.
    pub error: Option<String>,
    /// Statement-level cache resolution counts (all zero when the run
    /// cache is disabled).
    pub cache: StmtCacheCounts,
    /// Wall-clock time this subgraph spent executing (cache resolution
    /// included; 0 for skipped subgraphs).
    pub wall_nanos: u64,
    /// Total rows across the cubes this subgraph produced (0 when it
    /// produced none).
    pub rows_out: u64,
}

/// Report of one recomputation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Per-subgraph outcomes, in dispatch order.
    pub subgraphs: Vec<SubgraphReport>,
    /// Number of dispatch stages (1 = fully sequential dependencies).
    pub stages: usize,
    /// All cubes recomputed, in plan order.
    pub computed: Vec<CubeId>,
    /// Cubes not computed because an upstream subgraph failed (only
    /// populated under [`DispatchPolicy::keep_going`]).
    pub skipped: Vec<CubeId>,
    /// Cubes whose subgraph failed every attempt (only populated under
    /// [`DispatchPolicy::keep_going`]; without it the run aborts).
    pub failed: Vec<CubeId>,
    /// Metrics gathered during the run (empty unless the engine has
    /// observability enabled via [`ExlEngine::enable_metrics`]).
    pub metrics: MetricsSnapshot,
    /// Run-cache activity during this run (all zero when the cache is
    /// disabled): statements skipped on exact hits, statements patched
    /// incrementally, statements executed in full, plus the disk store's
    /// I/O health counters.
    pub cache: CacheStats,
}

/// What the observability sinks need from a run, collected even when the
/// run aborts. Unlike [`RunReport`], which an aborted run never returns,
/// this survives the error path — crash bundles and ledger records are
/// built from it.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunObservation {
    /// Per-subgraph reports seen so far, the aborting subgraph's failing
    /// report included.
    pub(crate) subgraphs: Vec<SubgraphReport>,
    /// Dispatch stages of the run's plan.
    pub(crate) stages: usize,
}

impl Default for ExlEngine {
    fn default() -> Self {
        ExlEngine {
            catalog: Catalog::new(),
            graph: GlobalGraph::new(),
            default_target: TargetKind::Native,
            parallel_dispatch: false,
            exec: ExecOpts::default(),
            policy: DispatchPolicy::default(),
            govern: GovernConfig::default(),
            metrics: None,
            tracer: exl_obs::Tracer::disabled(),
            progress: None,
            cache: None,
            bundle_dir: None,
            ledger_dir: None,
            last_bundle: None,
        }
    }
}

/// Shared no-op recorder used when metrics are disabled.
static NOOP: NoopRecorder = NoopRecorder;

/// Comma-joined cube list for the `cubes` span attribute.
fn join_ids(ids: &[CubeId]) -> String {
    ids.iter()
        .map(|id| id.as_str())
        .collect::<Vec<_>>()
        .join(",")
}

/// The target a subgraph runs on: native when translation fell back.
fn effective_target(sub: &Subgraph, fallback: bool) -> TargetKind {
    if fallback {
        TargetKind::Native
    } else {
        sub.target
    }
}

/// Stamp a finished subgraph span with its outcome: `status`, `attempts`,
/// total `rows_out`, and one `rows_out.<CUBE>` attribute per produced cube
/// (the lineage report reads these).
fn finish_subgraph_span(
    span: &exl_obs::Span,
    result: &Result<exl_model::Dataset, EngineError>,
    attempts: &[Attempt],
    wanted: &[CubeId],
) {
    if !span.is_enabled() {
        return;
    }
    span.set_attr("attempts", attempts.len() as u64);
    match result {
        Ok(ds) => {
            span.set_attr("status", "computed");
            span.set_attr("rows_out", dataset_rows(ds));
            for id in wanted {
                if let Some(data) = ds.data(id) {
                    span.set_attr(&format!("rows_out.{id}"), data.len() as u64);
                }
            }
        }
        Err(e) => {
            span.set_attr(
                "status",
                match e {
                    EngineError::Cancelled { .. } => "cancelled",
                    EngineError::BudgetExceeded { .. } => "budget-exceeded",
                    _ => "failed",
                },
            );
            span.add_event(e.to_string());
        }
    }
}

impl ExlEngine {
    /// Fresh engine with an empty catalog.
    pub fn new() -> ExlEngine {
        ExlEngine::default()
    }

    /// Turn on observability: every subsequent run records spans and
    /// counters into the returned registry, and [`RunReport::metrics`]
    /// carries a snapshot of it. The registry accumulates across runs.
    pub fn enable_metrics(&mut self) -> Arc<MetricsRegistry> {
        let registry = self
            .metrics
            .get_or_insert_with(|| Arc::new(MetricsRegistry::new()));
        Arc::clone(registry)
    }

    /// The engine's metrics registry, if observability is enabled.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// Turn on the in-memory run cache: subsequent runs skip every
    /// statement whose statement text, target, schemas, and input cube
    /// contents are unchanged, and patch incrementally where the delta
    /// kernels apply. No-op if a cache (of either kind) is already armed.
    pub fn enable_cache(&mut self) {
        if self.cache.is_none() {
            self.cache = Some(RunCache::in_memory());
        }
    }

    /// Turn on the run cache with a disk mirror rooted at `dir`, so
    /// cached results survive the process (and entries written by earlier
    /// processes are reused). Replaces any previously armed cache.
    pub fn enable_disk_cache(
        &mut self,
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<(), EngineError> {
        self.cache = Some(RunCache::with_dir(dir)?);
        Ok(())
    }

    /// Drop the run cache; subsequent runs are cold.
    pub fn disable_cache(&mut self) {
        self.cache = None;
    }

    /// Whether a run cache is armed.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Cumulative I/O statistics of the armed cache (stores, corrupt
    /// entries, write failures), if any. Per-run hit/miss counts live in
    /// [`RunReport::cache`].
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Turn on hierarchical tracing: every subsequent run records a span
    /// tree (run → plan/stage → subgraph → attempt → execute.\<target\> →
    /// backend steps) into the returned tracer. The tracer accumulates
    /// across runs; export a snapshot with
    /// [`Tracer::snapshot`](exl_obs::Tracer::snapshot).
    pub fn enable_tracing(&mut self) -> exl_obs::Tracer {
        if !self.tracer.is_enabled() {
            self.tracer = exl_obs::Tracer::new();
        }
        self.tracer.clone()
    }

    /// The engine's tracer (disabled unless [`ExlEngine::enable_tracing`]
    /// was called).
    pub fn tracer(&self) -> &exl_obs::Tracer {
        &self.tracer
    }

    /// Use an externally owned tracer (e.g. the CLI's, so several engine
    /// runs and the command's own spans land in one tree).
    pub fn set_tracer(&mut self, tracer: exl_obs::Tracer) {
        self.tracer = tracer;
    }

    /// Use an externally owned metrics registry instead of creating one
    /// via [`ExlEngine::enable_metrics`].
    pub fn set_metrics_registry(&mut self, registry: Arc<MetricsRegistry>) {
        self.metrics = Some(registry);
    }

    /// Arm crash-bundle dumping: any subsequent run that fails (aborts
    /// with an error, or degrades under
    /// [`DispatchPolicy::keep_going`](crate::DispatchPolicy)) writes one
    /// self-describing JSON bundle — the flight recorder's event tail, a
    /// metrics snapshot, governance state, and per-subgraph statuses —
    /// into `dir`. Arming the bundle dir also arms the process-global
    /// [`exl_obs::flight`] recorder so the event tail is populated.
    pub fn set_bundle_dir(
        &mut self,
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<(), EngineError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            EngineError::Persistence(format!("cannot create bundle dir {}: {e}", dir.display()))
        })?;
        // keep an armed ring: other engines in the process may be
        // mid-run, and their bundles need their own events
        exl_obs::flight::ensure_armed();
        self.bundle_dir = Some(dir);
        Ok(())
    }

    /// The crash bundle written by the most recent failed run, if any.
    pub fn last_bundle(&self) -> Option<&std::path::Path> {
        self.last_bundle.as_deref()
    }

    /// Arm the run ledger: every subsequent run — successful or not —
    /// appends one JSONL record (program/input fingerprints, per-statement
    /// wall times, cache counts, throughput, status) to
    /// `<dir>/ledger.jsonl`. `exlc perf` mines these records for
    /// per-statement performance baselines.
    pub fn set_ledger_dir(
        &mut self,
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<(), EngineError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            EngineError::Persistence(format!("cannot create ledger dir {}: {e}", dir.display()))
        })?;
        self.ledger_dir = Some(dir);
        Ok(())
    }

    /// Content fingerprint of the registered program set: the canonical
    /// text of every statement in the global graph, in graph order. Two
    /// engines running the same programs share it regardless of data, so
    /// ledger baselines survive process restarts.
    pub fn program_fingerprint(&self) -> exl_model::fingerprint::Fingerprint {
        let mut b = exl_model::fingerprint::FingerprintBuilder::new("exl.program.v1");
        for stmt in self.graph.statements() {
            b.push_str(&exl_lang::pretty::statement_to_string(stmt));
        }
        b.finish()
    }

    /// Content fingerprint of one run's inputs: the changed cube ids and
    /// the current contents of each.
    pub fn inputs_fingerprint(&self, changed: &[CubeId]) -> exl_model::fingerprint::Fingerprint {
        let mut b = exl_model::fingerprint::FingerprintBuilder::new("exl.inputs.v1");
        for id in changed {
            b.push_str(id.as_str());
            if let Some(data) = self.catalog.current(id) {
                b.push(exl_model::fingerprint::Fingerprint::of_cube(data));
            }
        }
        b.finish()
    }

    /// Register an EXL program: parse, analyze against the catalog's
    /// schemas, record every schema (declared elementary and inferred
    /// derived), and extend the global dependency graph. Returns the
    /// derived cube ids the program defines.
    pub fn register_program(
        &mut self,
        name: &str,
        source: &str,
    ) -> Result<Vec<CubeId>, EngineError> {
        let program =
            exl_lang::parse_program(source).map_err(|e| EngineError::Lang(e.to_string()))?;
        // catalog cubes are visible to the program, except those it
        // (re-)declares itself — re-declaration is checked against the
        // catalog below, so two programs may declare the same elementary
        // cube as long as the schemas agree
        let external: Vec<_> = self
            .catalog
            .cube_ids()
            .iter()
            .filter(|id| !program.decls.iter().any(|d| &&d.id == id))
            .map(|id| self.catalog.schema(id).expect("listed").clone())
            .collect();
        let analyzed =
            exl_lang::analyze(&program, &external).map_err(|e| EngineError::Lang(e.to_string()))?;
        // record schemas: declared elementary cubes and derived cubes
        for decl in &program.decls {
            self.catalog
                .register_schema(exl_lang::analyze::decl_to_schema(decl))?;
        }
        for id in analyzed.program.derived_ids() {
            self.catalog
                .register_schema(analyzed.schemas[&id].clone())?;
        }
        self.graph.add_program(&analyzed)?;
        self.catalog.register_program_source(name, source)?;
        Ok(analyzed.program.derived_ids())
    }

    /// Load (a new version of) an elementary cube's data.
    pub fn load_elementary(&mut self, id: &CubeId, data: CubeData) -> Result<u64, EngineError> {
        match self.catalog.schema(id) {
            Some(s) if s.kind == CubeKind::Elementary => {}
            Some(_) => {
                return Err(EngineError::Catalog(format!(
                    "cube {id} is derived; its data is computed, not loaded"
                )))
            }
            None => return Err(EngineError::Catalog(format!("unknown cube {id}"))),
        }
        self.catalog.store(id, data)
    }

    /// Current data of a cube.
    pub fn data(&self, id: &CubeId) -> Option<&CubeData> {
        self.catalog.current(id)
    }

    /// Historicity: a consistent snapshot of the given cubes as of a
    /// logical time (each cube's latest version ≤ `at`). Cubes with no
    /// version at that time are absent from the snapshot.
    pub fn snapshot_as_of(&self, ids: &[CubeId], at: u64) -> exl_model::Dataset {
        let mut ds = exl_model::Dataset::new();
        for id in ids {
            if let (Some(meta), Some(data)) = (self.catalog.meta(id), self.catalog.as_of(id, at)) {
                ds.put(exl_model::Cube::new(meta.schema.clone(), data.clone()));
            }
        }
        ds
    }

    /// The global dependency graph (read-only).
    pub fn graph(&self) -> &GlobalGraph {
        &self.graph
    }

    /// §6's operator-specificity heuristic: suggest the most suitable
    /// target for one statement. Whole-series statistical operators favor
    /// the vector-oriented engines; joins and aggregations favor the
    /// relational engine; the default-value variant needs the ETL engine's
    /// outer merge; plain scalar work stays native.
    pub fn suggest_affinity(stmt: &exl_lang::Statement) -> TargetKind {
        fn scan(expr: &exl_lang::Expr) -> (bool, bool, bool, usize) {
            // (has_series, has_outer, has_aggregate, cube_refs)
            match expr {
                exl_lang::Expr::SeriesFn { arg, .. } => {
                    let (_, o, a, n) = scan(arg);
                    (true, o, a, n)
                }
                exl_lang::Expr::Binary {
                    policy, lhs, rhs, ..
                } => {
                    let (s1, o1, a1, n1) = scan(lhs);
                    let (s2, o2, a2, n2) = scan(rhs);
                    let outer = matches!(policy, exl_lang::JoinPolicy::Outer { .. });
                    (s1 || s2, o1 || o2 || outer, a1 || a2, n1 + n2)
                }
                exl_lang::Expr::Aggregate { arg, .. } => {
                    let (se, o, _, n) = scan(arg);
                    (se, o, true, n)
                }
                exl_lang::Expr::Unary { arg, .. } | exl_lang::Expr::Shift { arg, .. } => scan(arg),
                exl_lang::Expr::Cube(_) => (false, false, false, 1),
                exl_lang::Expr::Number(_) => (false, false, false, 0),
            }
        }
        let (series, outer, aggregate, refs) = scan(&stmt.expr);
        if outer {
            TargetKind::Etl
        } else if series {
            TargetKind::R
        } else if aggregate || refs > 1 {
            TargetKind::Sql
        } else {
            TargetKind::Native
        }
    }

    /// Apply [`ExlEngine::suggest_affinity`] to every derived cube that
    /// has no explicit affinity yet. Returns the assignments made.
    pub fn apply_suggested_affinities(&mut self) -> Result<Vec<(CubeId, TargetKind)>, EngineError> {
        let suggestions: Vec<(CubeId, TargetKind)> = self
            .graph
            .statements()
            .iter()
            .filter(|s| {
                self.catalog
                    .meta(&s.target)
                    .map(|m| m.affinity.is_none())
                    .unwrap_or(false)
            })
            .map(|s| (s.target.clone(), Self::suggest_affinity(s)))
            .collect();
        for (id, target) in &suggestions {
            self.catalog.set_affinity(id, Some(*target))?;
        }
        Ok(suggestions)
    }

    fn affinity_of(&self, id: &CubeId) -> TargetKind {
        self.catalog
            .meta(id)
            .and_then(|m| m.affinity)
            .unwrap_or(self.default_target)
    }

    /// The offline half of a run: determine and translate, touching no
    /// data. Returns each subgraph with its executable code (B1 measures
    /// exactly this step).
    pub fn plan_and_translate(
        &self,
        changed: &[CubeId],
    ) -> Result<Vec<(Subgraph, TargetCode, bool)>, EngineError> {
        let plan = self.graph.determine(changed);
        let subgraphs = self.graph.partition(&plan, &|id| self.affinity_of(id));
        let mut out = Vec::with_capacity(subgraphs.len());
        for sub in subgraphs {
            let statements: Vec<_> = sub
                .statements
                .iter()
                .map(|&i| self.graph.statements()[i].clone())
                .collect();
            let inputs = input_schemas(&statements, &|id| self.catalog.schema(id).cloned())?;
            let analyzed = subprogram(&statements, &inputs)?;
            let (code, fallback) = match translate(&analyzed, sub.target) {
                Ok(code) => (code, false),
                // §5: not every operator is supported on every target —
                // the dispatcher reroutes the subgraph to the native
                // engine and reports the fallback
                Err(EngineError::Unsupported { .. }) => {
                    (translate(&analyzed, TargetKind::Native)?, true)
                }
                Err(other) => return Err(other),
            };
            out.push((sub, code, fallback));
        }
        Ok(out)
    }

    /// Recompute everything downstream of the changed cubes.
    ///
    /// The run is **transactional**: every subgraph's results are staged
    /// outside the catalog and committed atomically (new versions) only
    /// when the run's [`DispatchPolicy`] is satisfied. Under the default
    /// policy any failure rolls the whole run back — the catalog is left
    /// byte-identical — and the error is returned; under
    /// [`DispatchPolicy::keep_going`] every subgraph not downstream of a
    /// failure still commits, and the report lists the failed and skipped
    /// cubes.
    pub fn recompute(&mut self, changed: &[CubeId]) -> Result<RunReport, EngineError> {
        // hold the registry in a local so the recorder borrow does not
        // pin `self` while the catalog is mutated below
        let registry = self.metrics.clone();
        let recorder: &dyn Recorder = match &registry {
            Some(r) => r.as_ref(),
            None => &NOOP,
        };
        let tracer = self.tracer.clone();
        // every run gets its own governor (a child of the external token
        // over a fresh budget), installed as the dispatching thread's
        // ambient governor for the duration of the run
        let run_governor = self.govern.run_governor();
        // this thread's flight events belong to the run from here on;
        // worker threads enter it when they install the run's governor
        let _flight_run = exl_obs::flight::enter_run(run_governor.run());
        let started = std::time::Instant::now();
        // observability collected alongside the report, surviving aborts
        let mut obs = RunObservation::default();
        exl_obs::flight::record_with(exl_obs::flight::FlightKind::Run, "engine.run", || {
            format!("start: {} changed cube(s)", changed.len())
        });
        let mut result = {
            let _run_span = exl_obs::span(recorder, "engine.recompute");
            let run_span = tracer.root("run");
            run_span.set_attr("changed", changed.len() as u64);
            let result = {
                let _governor = crate::govern::set_governor(run_governor.clone());
                self.recompute_recorded(changed, registry.as_ref(), recorder, &run_span, &mut obs)
            };
            // governance observability: peak accounted memory, whether
            // the run was cancelled, and why
            if run_governor.budget().mem_peak_bytes() > 0 {
                recorder.set_gauge(
                    "govern.mem_peak_bytes",
                    run_governor.budget().mem_peak_bytes() as i64,
                );
            }
            let cancelled = run_governor.token().is_cancelled()
                || matches!(&result, Err(e) if e.is_governance());
            run_span.set_attr("cancelled", cancelled);
            match &result {
                Ok(_) => run_span.set_attr("status", "ok"),
                Err(e) => {
                    if e.is_governance() {
                        recorder.incr_counter("run.cancelled", 1);
                        if matches!(
                            run_governor.budget().verdict(),
                            Err(crate::govern::GovernError::DeadlineExceeded { .. })
                        ) {
                            recorder.incr_counter("govern.deadline_exceeded", 1);
                        }
                    }
                    run_span.set_attr("status", "failed");
                    run_span.add_event(e.to_string());
                }
            }
            result
        };
        let wall = started.elapsed();
        if let (Some(registry), Ok(report)) = (&registry, result.as_mut()) {
            report.metrics = registry.snapshot();
        }
        exl_obs::flight::record_with(exl_obs::flight::FlightKind::Run, "engine.run", || {
            match &result {
                Ok(r) if r.failed.is_empty() => "end: ok".to_string(),
                Ok(r) => format!("end: degraded, {} failed cube(s)", r.failed.len()),
                Err(e) => format!("end: {e}"),
            }
        });
        self.finish_run_observability(changed, &result, &obs, &run_governor, wall);
        result
    }

    /// After a run: dump a crash bundle when it failed (and a bundle dir
    /// is armed) and append the run's ledger record (when a ledger dir is
    /// armed). Sink failures are reported on stderr, never as run errors
    /// — observability must not fail an otherwise sound run.
    fn finish_run_observability(
        &mut self,
        changed: &[CubeId],
        result: &Result<RunReport, EngineError>,
        obs: &RunObservation,
        governor: &crate::govern::Governor,
        wall: std::time::Duration,
    ) {
        let failed = match result {
            Err(_) => true,
            Ok(r) => !r.failed.is_empty(),
        };
        if failed {
            if let Some(dir) = self.bundle_dir.clone() {
                match crate::bundle::write_crash_bundle(
                    &dir,
                    result,
                    obs,
                    governor,
                    &self.govern,
                    self.metrics.as_deref(),
                ) {
                    Ok(path) => self.last_bundle = Some(path),
                    Err(e) => eprintln!("exl-engine: crash bundle not written: {e}"),
                }
            }
        }
        if let Some(dir) = self.ledger_dir.clone() {
            let record = crate::ledger::LedgerRecord::of_run(
                self.program_fingerprint(),
                self.inputs_fingerprint(changed),
                result,
                obs,
                governor,
                wall,
            );
            if let Err(e) = crate::ledger::append(&dir, &record) {
                eprintln!("exl-engine: ledger record not written: {e}");
            }
        }
    }

    fn recompute_recorded(
        &mut self,
        changed: &[CubeId],
        registry: Option<&Arc<MetricsRegistry>>,
        recorder: &dyn Recorder,
        run_span: &exl_obs::Span,
        obs: &mut RunObservation,
    ) -> Result<RunReport, EngineError> {
        // move the cache out of `self` for the duration of the run so the
        // dispatcher can consult it mutably while borrowing the catalog
        let mut cache = self.cache.take();
        let result = self.recompute_inner(changed, registry, recorder, run_span, &mut cache, obs);
        self.cache = cache;
        result
    }

    fn recompute_inner(
        &mut self,
        changed: &[CubeId],
        registry: Option<&Arc<MetricsRegistry>>,
        recorder: &dyn Recorder,
        run_span: &exl_obs::Span,
        cache: &mut Option<RunCache>,
        obs: &mut RunObservation,
    ) -> Result<RunReport, EngineError> {
        let cache_io_start = cache.as_ref().map(|c| c.stats()).unwrap_or_default();
        let translated = {
            let _span = exl_obs::span(recorder, "engine.plan_and_translate");
            let plan_span = run_span.child("plan");
            let translated = self.plan_and_translate(changed)?;
            plan_span.set_attr("subgraphs", translated.len() as u64);
            translated
        };
        if translated.is_empty() {
            return Ok(RunReport::default());
        }
        recorder.incr_counter("engine.subgraphs", translated.len() as u64);
        recorder.incr_counter(
            "engine.fallbacks",
            translated.iter().filter(|(_, _, f)| *f).count() as u64,
        );
        // the runtime fallback chain re-runs a failing subgraph on the
        // native engine: translate the native variant up front (offline,
        // like all translation)
        let natives: Vec<Option<TargetCode>> = if self.policy.runtime_fallback {
            translated
                .iter()
                .map(|(sub, code, _)| {
                    if code.target_kind() == TargetKind::Native {
                        Ok(None)
                    } else {
                        self.native_code_for(sub).map(Some)
                    }
                })
                .collect::<Result<_, EngineError>>()?
        } else {
            vec![None; translated.len()]
        };
        let subgraphs: Vec<Subgraph> = translated.iter().map(|(s, _, _)| s.clone()).collect();
        let stages = self.graph.stages(&subgraphs);
        recorder.incr_counter("engine.stages", stages.len() as u64);
        obs.stages = stages.len();

        let mut report = RunReport {
            stages: stages.len(),
            ..RunReport::default()
        };
        // keep per-subgraph reports in dispatch order
        let mut sub_reports: Vec<Option<SubgraphReport>> = vec![None; translated.len()];
        // the run's transaction: results live here, not in the catalog,
        // until the end-of-run atomic commit
        let mut staged: BTreeMap<CubeId, CubeData> = BTreeMap::new();
        let mut commit_order: Vec<CubeId> = Vec::new();
        // cubes produced by failed or skipped subgraphs: anything reading
        // them is skipped in turn (keep_going degradation)
        let mut poisoned: BTreeSet<CubeId> = BTreeSet::new();
        let policy = self.policy.clone();
        let exec = self.exec;
        let total_subgraphs = translated.len();
        let mut done_subgraphs = 0usize;

        for (stage_no, stage) in stages.iter().enumerate() {
            // a run-level cancel (SIGINT, external token) between stages
            // aborts before any more work is dispatched — fatal under
            // every policy, so the staged results roll back. Budget
            // verdicts are deliberately not checked here: they surface
            // per subgraph, where keep_going can degrade around them.
            if let Some(g) = crate::govern::governor() {
                if let Some(err) = g.token().cancellation() {
                    recorder.incr_counter("engine.rollbacks", 1);
                    return Err(err.into());
                }
            }
            let stage_span = run_span.child("stage");
            stage_span.set_attr("index", stage_no as u64);
            stage_span.set_attr("subgraphs", stage.len() as u64);
            // each subgraph's inputs are satisfied by earlier stages
            // (subgraph index, outcome, attempts, wall nanos)
            type JobResult = (
                usize,
                Result<exl_model::Dataset, EngineError>,
                Vec<Attempt>,
                u64,
            );
            let mut results: Vec<JobResult> = Vec::with_capacity(stage.len());
            let mut jobs: Vec<(usize, exl_model::Dataset, Vec<CubeId>, exl_obs::Span)> = Vec::new();
            for &si in stage {
                let (sub, code, fallback) = &translated[si];
                let wanted = self.targets_of(sub);
                let span = stage_span.child("subgraph");
                span.set_attr("cubes", join_ids(&wanted));
                span.set_attr("target", code.target_name());
                span.set_attr("fallback", *fallback);
                let input_ids = self.input_ids_of(sub)?;
                if input_ids.iter().any(|id| poisoned.contains(id)) {
                    span.set_attr("status", "skipped");
                    recorder.incr_counter("engine.subgraphs_skipped", 1);
                    poisoned.extend(wanted.iter().cloned());
                    report.skipped.extend(wanted.iter().cloned());
                    let r = self.make_report(
                        si,
                        &translated,
                        SubgraphStatus::Skipped,
                        Vec::new(),
                        None,
                        StmtCacheCounts::default(),
                        0,
                        0,
                    );
                    obs.subgraphs.push(r.clone());
                    sub_reports[si] = Some(r);
                    self.emit_progress(
                        &mut done_subgraphs,
                        total_subgraphs,
                        si,
                        &translated,
                        SubgraphStatus::Skipped,
                    );
                    continue;
                }
                match self.prepare_inputs_staged(sub, &staged) {
                    Ok(prepared) => {
                        span.set_attr("rows_in", dataset_rows(&prepared));
                        // consult the run cache: if every statement of the
                        // subgraph resolves (exact content hit or delta
                        // patch), stage the cached outputs and never spawn
                        if let Some(c) = cache.as_mut() {
                            let effective = effective_target(sub, *fallback);
                            let stmts = self.statements_of(sub);
                            let resolve_started = std::time::Instant::now();
                            if let Some((outputs, counts)) =
                                c.resolve_statements(&stmts, effective, &prepared, &|id| {
                                    self.catalog.schema(id).cloned()
                                })
                            {
                                let wall_nanos =
                                    u64::try_from(resolve_started.elapsed().as_nanos())
                                        .unwrap_or(u64::MAX);
                                let rows_out: u64 =
                                    outputs.iter().map(|(_, d)| d.len() as u64).sum();
                                // a subgraph with inline-evaluated dirty
                                // statements still computed something: only
                                // a fully cache-served one reports Cached
                                let status = if counts.misses == 0 {
                                    SubgraphStatus::Cached
                                } else {
                                    SubgraphStatus::Computed
                                };
                                span.set_attr("cache_hit", counts.misses == 0);
                                span.set_attr(
                                    "status",
                                    if counts.misses == 0 {
                                        "cached"
                                    } else {
                                        "computed"
                                    },
                                );
                                recorder.incr_counter("engine.subgraphs_cached", 1);
                                recorder.incr_counter("cache.hits", counts.hits);
                                recorder.incr_counter("cache.delta_hits", counts.delta_hits);
                                recorder.incr_counter("cache.misses", counts.misses);
                                if exl_obs::flight::is_armed() {
                                    let site = join_ids(&wanted);
                                    for (kind, n) in [
                                        (exl_obs::flight::FlightKind::CacheHit, counts.hits),
                                        (
                                            exl_obs::flight::FlightKind::CacheDelta,
                                            counts.delta_hits,
                                        ),
                                        (exl_obs::flight::FlightKind::CacheMiss, counts.misses),
                                    ] {
                                        if n > 0 {
                                            exl_obs::flight::record(
                                                kind,
                                                &site,
                                                format!("{n} statement(s)"),
                                            );
                                        }
                                    }
                                }
                                report.cache.hits += counts.hits;
                                report.cache.delta_hits += counts.delta_hits;
                                report.cache.misses += counts.misses;
                                for (id, data) in outputs {
                                    staged.insert(id.clone(), data);
                                    commit_order.push(id.clone());
                                    report.computed.push(id);
                                }
                                let r = self.make_report(
                                    si,
                                    &translated,
                                    status,
                                    Vec::new(),
                                    None,
                                    counts,
                                    wall_nanos,
                                    rows_out,
                                );
                                obs.subgraphs.push(r.clone());
                                sub_reports[si] = Some(r);
                                self.emit_progress(
                                    &mut done_subgraphs,
                                    total_subgraphs,
                                    si,
                                    &translated,
                                    status,
                                );
                                continue;
                            }
                        }
                        jobs.push((si, prepared, wanted, span));
                    }
                    // a missing input is a deterministic failure of this
                    // subgraph, not of the whole run
                    Err(e) => {
                        span.set_attr("status", "failed");
                        span.add_event(e.to_string());
                        results.push((si, Err(e), Vec::new(), 0));
                    }
                }
            }
            if self.parallel_dispatch && jobs.len() > 1 {
                // dispatch workers can't see this thread's ambient
                // governor: hand each one a per-subgraph child of it
                let ambient = crate::govern::governor();
                let ambient = &ambient;
                let outputs = std::thread::scope(|scope| {
                    let handles: Vec<_> = jobs
                        .into_iter()
                        .map(|(si, input, wanted, span)| {
                            let (_, code, _) = &translated[si];
                            let native = natives[si].as_ref();
                            let policy = &policy;
                            scope.spawn(move || {
                                let _governor = ambient
                                    .as_ref()
                                    .map(|g| crate::govern::set_governor(g.child()));
                                let job_started = std::time::Instant::now();
                                let (r, attempts) = run_supervised(
                                    code, native, &input, &wanted, policy, registry, &span, exec,
                                );
                                let wall = u64::try_from(job_started.elapsed().as_nanos())
                                    .unwrap_or(u64::MAX);
                                finish_subgraph_span(&span, &r, &attempts, &wanted);
                                (si, r, attempts, wall)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| {
                            h.join().unwrap_or_else(|payload| {
                                // the supervisor catches backend panics;
                                // this guards the dispatcher itself
                                let message = crate::supervise::panic_message(payload);
                                (
                                    usize::MAX,
                                    Err(EngineError::Panic {
                                        target: "dispatcher".to_string(),
                                        message,
                                    }),
                                    Vec::new(),
                                    0,
                                )
                            })
                        })
                        .collect::<Vec<_>>()
                });
                results.extend(outputs);
            } else {
                for (si, input, wanted, span) in jobs {
                    let (_, code, _) = &translated[si];
                    // a per-subgraph child governor scopes injected
                    // cancels and subgraph deadlines to this subgraph
                    let _governor =
                        crate::govern::governor().map(|g| crate::govern::set_governor(g.child()));
                    let job_started = std::time::Instant::now();
                    let (r, attempts) = run_supervised(
                        code,
                        natives[si].as_ref(),
                        &input,
                        &wanted,
                        &policy,
                        registry,
                        &span,
                        exec,
                    );
                    let wall = u64::try_from(job_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    finish_subgraph_span(&span, &r, &attempts, &wanted);
                    results.push((si, r, attempts, wall));
                }
            }
            // stage the results (dispatch order) — nothing touches the
            // catalog yet
            results.sort_by_key(|(si, _, _, _)| *si);
            for (si, outcome, attempts, wall_nanos) in results {
                if si == usize::MAX {
                    // dispatcher-side panic: not attributable to a
                    // subgraph, always fatal
                    recorder.incr_counter("engine.rollbacks", 1);
                    return outcome.map(|_| RunReport::default());
                }
                let (sub, _, _) = &translated[si];
                let wanted = self.targets_of(sub);
                let staging = outcome.and_then(|ds| {
                    let mut out = Vec::with_capacity(wanted.len());
                    for id in &wanted {
                        let data = ds.data(id).ok_or_else(|| {
                            EngineError::Execution(format!("target produced no data for {id}"))
                        })?;
                        out.push((id.clone(), data.clone()));
                    }
                    Ok(out)
                });
                match staging {
                    Ok(items) => {
                        let mut counts = StmtCacheCounts::default();
                        if let Some(c) = cache.as_mut() {
                            let (sub, _, fallback) = &translated[si];
                            let effective = effective_target(sub, *fallback);
                            counts.misses = items.len() as u64;
                            report.cache.misses += counts.misses;
                            recorder.incr_counter("cache.misses", counts.misses);
                            exl_obs::flight::record_with(
                                exl_obs::flight::FlightKind::CacheMiss,
                                &join_ids(&wanted),
                                || format!("{} statement(s) executed in full", counts.misses),
                            );
                            // record the results for future runs — but only
                            // when the effective target actually produced
                            // them (a runtime-fallback result under another
                            // target's key would replay the wrong engine)
                            let executed_effective = attempts
                                .last()
                                .map(|a| a.target == effective)
                                .unwrap_or(false);
                            if executed_effective {
                                // same-stage subgraphs never feed each other,
                                // so re-preparing against the current staging
                                // area reproduces this subgraph's inputs
                                if let Ok(prepared) = self.prepare_inputs_staged(sub, &staged) {
                                    let stmts = self.statements_of(sub);
                                    c.store_statements(
                                        &stmts,
                                        effective,
                                        &prepared,
                                        &items,
                                        &|id| self.catalog.schema(id).cloned(),
                                    );
                                }
                            }
                        }
                        let rows_out: u64 = items.iter().map(|(_, d)| d.len() as u64).sum();
                        for (id, data) in items {
                            staged.insert(id.clone(), data);
                            commit_order.push(id.clone());
                            report.computed.push(id);
                        }
                        let r = self.make_report(
                            si,
                            &translated,
                            SubgraphStatus::Computed,
                            attempts,
                            None,
                            counts,
                            wall_nanos,
                            rows_out,
                        );
                        obs.subgraphs.push(r.clone());
                        sub_reports[si] = Some(r);
                        self.emit_progress(
                            &mut done_subgraphs,
                            total_subgraphs,
                            si,
                            &translated,
                            SubgraphStatus::Computed,
                        );
                    }
                    Err(e) => {
                        // a cancelled *run* token (SIGINT, external
                        // cancel) aborts even under keep_going: no later
                        // subgraph could execute anyway, so the staged
                        // results roll back. A subgraph-local cancel or a
                        // tripped run budget degrades like any failure —
                        // the report then shows the typed status.
                        let run_cancelled =
                            crate::govern::governor().is_some_and(|g| g.token().is_cancelled());
                        let status = match &e {
                            EngineError::Cancelled { .. } => SubgraphStatus::Cancelled,
                            EngineError::BudgetExceeded { .. } => SubgraphStatus::BudgetExceeded,
                            _ => SubgraphStatus::Failed,
                        };
                        let r = self.make_report(
                            si,
                            &translated,
                            status,
                            attempts,
                            Some(e.to_string()),
                            StmtCacheCounts::default(),
                            wall_nanos,
                            0,
                        );
                        // the failing subgraph's report reaches the crash
                        // bundle even when the run aborts right here
                        obs.subgraphs.push(r.clone());
                        if !policy.keep_going || (e.is_governance() && run_cancelled) {
                            recorder.incr_counter("engine.rollbacks", 1);
                            return Err(e);
                        }
                        recorder.incr_counter("engine.subgraphs_failed", 1);
                        poisoned.extend(wanted.iter().cloned());
                        report.failed.extend(wanted.iter().cloned());
                        sub_reports[si] = Some(r);
                        self.emit_progress(
                            &mut done_subgraphs,
                            total_subgraphs,
                            si,
                            &translated,
                            status,
                        );
                    }
                }
            }
        }
        // fold the cache store's I/O activity of this run into the report
        if let Some(c) = cache.as_ref() {
            let io = c.stats().since(&cache_io_start);
            report.cache.stores = io.stores;
            report.cache.corrupt_entries = io.corrupt_entries;
            report.cache.write_failures = io.write_failures;
            recorder.incr_counter("cache.stores", io.stores);
            recorder.incr_counter("cache.corrupt", io.corrupt_entries);
            recorder.incr_counter("cache.write_failures", io.write_failures);
        }
        // last checkpoint before the point of no return: a run-level
        // cancel that raced the final stage (a SIGINT during the cache
        // flush, say) must roll back, not commit
        if let Some(g) = crate::govern::governor() {
            if let Some(err) = g.token().cancellation() {
                recorder.incr_counter("engine.rollbacks", 1);
                return Err(err.into());
            }
        }
        // the transactional commit: all-or-nothing, in dispatch order
        let items: Vec<(CubeId, CubeData)> = commit_order
            .into_iter()
            .map(|id| {
                let data = staged.get(&id).cloned().expect("staged all commits");
                (id, data)
            })
            .collect();
        self.catalog.commit_versions(items)?;
        report.subgraphs = sub_reports.into_iter().flatten().collect();
        Ok(report)
    }

    /// Count a finished subgraph and notify the progress sink, if any.
    fn emit_progress(
        &self,
        done: &mut usize,
        total: usize,
        si: usize,
        translated: &[(Subgraph, TargetCode, bool)],
        status: SubgraphStatus,
    ) {
        *done += 1;
        if let Some(sink) = &self.progress {
            let (sub, _, fallback) = &translated[si];
            sink.emit(&ProgressEvent {
                done: *done,
                total,
                cubes: self.targets_of(sub),
                target: effective_target(sub, *fallback),
                status,
            });
        }
    }

    /// Build one subgraph's report entry. Called exactly once per
    /// subgraph outcome, so it doubles as the flight recorder's
    /// subgraph-completion hook.
    #[allow(clippy::too_many_arguments)]
    fn make_report(
        &self,
        si: usize,
        translated: &[(Subgraph, TargetCode, bool)],
        status: SubgraphStatus,
        attempts: Vec<Attempt>,
        error: Option<String>,
        cache: StmtCacheCounts,
        wall_nanos: u64,
        rows_out: u64,
    ) -> SubgraphReport {
        let (sub, _, fallback) = &translated[si];
        let target = effective_target(sub, *fallback);
        let cubes = self.targets_of(sub);
        exl_obs::flight::record_with(exl_obs::flight::FlightKind::Subgraph, target.name(), || {
            match &error {
                Some(e) => format!("{}: {} ({e})", join_ids(&cubes), status.name()),
                None => format!("{}: {}", join_ids(&cubes), status.name()),
            }
        });
        SubgraphReport {
            target,
            fallback: *fallback,
            cubes,
            status,
            attempts,
            error,
            cache,
            wall_nanos,
            rows_out,
        }
    }

    /// The statements of a subgraph, in execution order.
    fn statements_of(&self, sub: &Subgraph) -> Vec<exl_lang::ast::Statement> {
        sub.statements
            .iter()
            .map(|&i| self.graph.statements()[i].clone())
            .collect()
    }

    /// Translate a subgraph for the native engine (the runtime fallback
    /// chain's last resort).
    fn native_code_for(&self, sub: &Subgraph) -> Result<TargetCode, EngineError> {
        let statements: Vec<_> = sub
            .statements
            .iter()
            .map(|&i| self.graph.statements()[i].clone())
            .collect();
        let inputs = input_schemas(&statements, &|id| self.catalog.schema(id).cloned())?;
        let analyzed = subprogram(&statements, &inputs)?;
        translate(&analyzed, TargetKind::Native)
    }

    /// Compiled-plan introspection for every native subgraph a full run
    /// would dispatch: the subgraph's derived cubes paired with the plan
    /// description (fusion regions, CSE reuses, materialization points).
    /// Subgraphs assigned to external backends are skipped — they have
    /// no fused plan. Touches no data; like
    /// [`plan_and_translate`](ExlEngine::plan_and_translate) this is
    /// purely offline.
    pub fn plan_overview(
        &self,
    ) -> Result<Vec<(Vec<CubeId>, exl_eval::PlanDescription)>, EngineError> {
        let changed: Vec<CubeId> = self.catalog.elementary_ids();
        let mut out = Vec::new();
        for (sub, code, _) in self.plan_and_translate(&changed)? {
            if let TargetCode::Native { analyzed } = &code {
                let desc = exl_eval::plan_description(analyzed)
                    .map_err(|e| EngineError::Execution(e.to_string()))?;
                out.push((self.targets_of(&sub), desc));
            }
        }
        Ok(out)
    }

    /// Recompute every derived cube from all loaded elementary cubes.
    pub fn run_all(&mut self) -> Result<RunReport, EngineError> {
        let changed: Vec<CubeId> = self
            .catalog
            .elementary_ids()
            .into_iter()
            .filter(|id| self.catalog.current(id).is_some())
            .collect();
        self.recompute(&changed)
    }

    fn targets_of(&self, sub: &Subgraph) -> Vec<CubeId> {
        sub.statements
            .iter()
            .map(|&i| self.graph.statements()[i].target.clone())
            .collect()
    }

    /// Ids of the external cubes a subgraph reads.
    fn input_ids_of(&self, sub: &Subgraph) -> Result<Vec<CubeId>, EngineError> {
        let statements: Vec<_> = sub
            .statements
            .iter()
            .map(|&i| self.graph.statements()[i].clone())
            .collect();
        let schemas = input_schemas(&statements, &|id| self.catalog.schema(id).cloned())?;
        Ok(schemas.into_iter().map(|s| s.id).collect())
    }

    /// Snapshot the inputs a subgraph reads (cross-engine data movement:
    /// the dispatcher "can provide them with the data they have to operate
    /// on", §6). Results of earlier subgraphs in the same run come from
    /// the run's staging area — they are not in the catalog until the
    /// end-of-run commit.
    fn prepare_inputs_staged(
        &self,
        sub: &Subgraph,
        staged: &BTreeMap<CubeId, CubeData>,
    ) -> Result<exl_model::Dataset, EngineError> {
        let statements: Vec<_> = sub
            .statements
            .iter()
            .map(|&i| self.graph.statements()[i].clone())
            .collect();
        let schemas = input_schemas(&statements, &|id| self.catalog.schema(id).cloned())?;
        // the executors treat subgraph inputs as base data
        let mut fixed = exl_model::Dataset::new();
        for schema in schemas {
            let data = staged
                .get(&schema.id)
                .or_else(|| self.catalog.current(&schema.id))
                .ok_or_else(|| EngineError::Catalog(format!("cube {} has no data yet", schema.id)))?
                .clone();
            fixed.put(exl_model::Cube::new(schema, data));
        }
        Ok(fixed)
    }
}
