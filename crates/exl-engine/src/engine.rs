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
use exl_obs::{MetricsRegistry, MetricsSnapshot, Span};

use crate::cache::{CacheStats, RunCache, StmtCacheCounts};
use crate::catalog::Catalog;
use crate::determination::{GlobalGraph, Subgraph};
use crate::error::EngineError;
use crate::govern::GovernConfig;
use crate::supervise::{panic_message, run_supervised, Attempt, DispatchPolicy, SubgraphStatus};
use crate::target::{dataset_rows, input_schemas, subprogram, translate, TargetCode, TargetKind};

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
    /// Fault-handling policy for dispatch (retries, deadlines, fallback,
    /// degradation mode).
    pub policy: DispatchPolicy,
    /// Run governance: the external cancellation token and per-run
    /// resource budgets. Every [`ExlEngine::recompute`] derives a run
    /// governor from this config and installs it for the duration of the
    /// run; see [`crate::govern`] for the token topology.
    pub govern: GovernConfig,
    /// Metrics registry, populated when observability is enabled via
    /// [`ExlEngine::enable_metrics`]. Each run's root span carries it;
    /// when `None` the spans record no metrics, adding no overhead.
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
    /// Snapshot, taken at the end of the run, of the engine's metrics
    /// registry. The registry lives as long as the engine and accumulates
    /// across runs, so the snapshot includes every earlier run's counters
    /// and spans, not just this run's (empty unless the engine has
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
            let statements = self.statements_of(&sub);
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
            let run_span = Span::root(&self.tracer, self.metrics.as_ref(), "run");
            run_span.set_attr("changed", changed.len() as u64);
            let result = {
                let _governor = crate::govern::set_governor(run_governor.clone());
                // move the cache out of `self` for the duration of the run
                // so the dispatcher can consult it mutably while borrowing
                // the catalog
                let mut cache = self.cache.take();
                let result = self.run_phases(changed, &run_span, &mut cache, &mut obs);
                self.cache = cache;
                result
            };
            // governance observability: peak accounted memory, whether
            // the run was cancelled, and why
            if run_governor.budget().mem_peak_bytes() > 0 {
                run_span.set_gauge(
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
                        run_span.incr_counter("run.cancelled", 1);
                        if matches!(
                            run_governor.budget().verdict(),
                            Err(crate::govern::GovernError::DeadlineExceeded { .. })
                        ) {
                            run_span.incr_counter("govern.deadline_exceeded", 1);
                        }
                    }
                    run_span.set_attr("status", "failed");
                    run_span.add_event(e.to_string());
                }
            }
            result
        };
        let wall = started.elapsed();
        if let (Some(registry), Ok(report)) = (&self.metrics, result.as_mut()) {
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

    /// One run's phases: plan, then per dispatch stage admit → dispatch →
    /// stage outcomes, then the transactional commit.
    fn run_phases(
        &mut self,
        changed: &[CubeId],
        run_span: &Span,
        cache: &mut Option<RunCache>,
        obs: &mut RunObservation,
    ) -> Result<RunReport, EngineError> {
        let plan = self.plan_run(changed, run_span)?;
        if plan.translated.is_empty() {
            return Ok(RunReport::default());
        }
        obs.stages = plan.stages.len();
        let mut run = RunState::new(self, run_span, &plan, cache, obs);
        for (stage_no, stage) in plan.stages.iter().enumerate() {
            // a run-level cancel (SIGINT, external token) between stages
            // aborts before any more work is dispatched — fatal under
            // every policy, so the staged results roll back. Budget
            // verdicts are deliberately not checked here: they surface
            // per subgraph, where keep_going can degrade around them.
            run.check_cancelled()?;
            let stage_span = run_span.child("stage");
            stage_span.set_attr("index", stage_no as u64);
            stage_span.set_attr("subgraphs", stage.len() as u64);
            // each subgraph's inputs are satisfied by earlier stages
            let (jobs, mut outcomes) = run.admit(stage, &stage_span)?;
            outcomes.extend(run.dispatch(jobs)?);
            run.stage_outcomes(outcomes)?;
        }
        let (report, items) = run.close()?;
        self.catalog.commit_versions(items)?;
        Ok(report)
    }

    /// The plan phase: determine and translate (offline), translate the
    /// native variants the runtime fallback chain needs, and order the
    /// subgraphs into dispatch stages.
    fn plan_run(&self, changed: &[CubeId], run_span: &Span) -> Result<RunPlan, EngineError> {
        let translated = {
            let plan_span = run_span.child("plan");
            let translated = self.plan_and_translate(changed)?;
            plan_span.set_attr("subgraphs", translated.len() as u64);
            translated
        };
        if translated.is_empty() {
            return Ok(RunPlan::default());
        }
        run_span.incr_counter("engine.subgraphs", translated.len() as u64);
        run_span.incr_counter(
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
        run_span.incr_counter("engine.stages", stages.len() as u64);
        Ok(RunPlan {
            translated,
            natives,
            stages,
        })
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
        let statements = self.statements_of(sub);
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
        let statements = self.statements_of(sub);
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
        let statements = self.statements_of(sub);
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

/// The offline half of one run, fixed before any data moves: each
/// subgraph with its translated code and translation-time fallback flag,
/// the native variant the runtime fallback chain re-runs it on, and the
/// dispatch stages (subgraph indices).
#[derive(Default)]
struct RunPlan {
    translated: Vec<(Subgraph, TargetCode, bool)>,
    natives: Vec<Option<TargetCode>>,
    stages: Vec<Vec<usize>>,
}

/// A subgraph admitted for execution: inputs prepared, not served by the
/// run cache.
struct Job {
    si: usize,
    input: exl_model::Dataset,
    wanted: Vec<CubeId>,
    span: Span,
}

/// How one subgraph's execution ended.
struct JobOutcome {
    si: usize,
    result: Result<exl_model::Dataset, EngineError>,
    attempts: Vec<Attempt>,
    wall_nanos: u64,
}

/// Nanoseconds since `started`, saturating.
fn elapsed_nanos(started: std::time::Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The state of one run between plan and commit: the report under
/// construction, the run's transaction (results are staged here, not in
/// the catalog, until the end-of-run atomic commit, in the order of
/// `report.computed`), and the cubes poisoned by failed or skipped
/// subgraphs — anything reading them is skipped in turn (keep_going
/// degradation).
struct RunState<'a> {
    engine: &'a ExlEngine,
    /// The run's root span: the run-level counters go through it.
    run_span: &'a Span,
    plan: &'a RunPlan,
    cache: &'a mut Option<RunCache>,
    /// The cache store's I/O counters when the run started.
    cache_io_start: CacheStats,
    obs: &'a mut RunObservation,
    report: RunReport,
    /// Per-subgraph reports, kept in dispatch order.
    sub_reports: Vec<Option<SubgraphReport>>,
    staged: BTreeMap<CubeId, CubeData>,
    poisoned: BTreeSet<CubeId>,
    /// Subgraphs finished so far, for the progress sink.
    done: usize,
}

impl<'a> RunState<'a> {
    fn new(
        engine: &'a ExlEngine,
        run_span: &'a Span,
        plan: &'a RunPlan,
        cache: &'a mut Option<RunCache>,
        obs: &'a mut RunObservation,
    ) -> RunState<'a> {
        RunState {
            engine,
            run_span,
            plan,
            cache_io_start: cache.as_ref().map(|c| c.stats()).unwrap_or_default(),
            cache,
            obs,
            report: RunReport {
                stages: plan.stages.len(),
                ..RunReport::default()
            },
            sub_reports: vec![None; plan.translated.len()],
            staged: BTreeMap::new(),
            poisoned: BTreeSet::new(),
            done: 0,
        }
    }

    /// Abort when the run's token was cancelled: the staged results roll
    /// back.
    fn check_cancelled(&self) -> Result<(), EngineError> {
        if let Some(err) = crate::govern::governor().and_then(|g| g.token().cancellation()) {
            self.run_span.incr_counter("engine.rollbacks", 1);
            return Err(err.into());
        }
        Ok(())
    }

    /// The admit phase of one stage: skip subgraphs that read poisoned
    /// cubes, prepare inputs, and serve what the run cache resolves.
    /// Returns the jobs left to dispatch, plus the failed outcomes of
    /// subgraphs whose inputs could not be prepared.
    fn admit(
        &mut self,
        stage: &[usize],
        stage_span: &Span,
    ) -> Result<(Vec<Job>, Vec<JobOutcome>), EngineError> {
        let (engine, plan) = (self.engine, self.plan);
        let mut jobs = Vec::new();
        let mut failed = Vec::new();
        for &si in stage {
            let (sub, code, fallback) = &plan.translated[si];
            let wanted = engine.targets_of(sub);
            let span = stage_span.child("subgraph");
            span.set_attr("cubes", join_ids(&wanted));
            span.set_attr("target", code.target_name());
            span.set_attr("fallback", *fallback);
            let input_ids = engine.input_ids_of(sub)?;
            if input_ids.iter().any(|id| self.poisoned.contains(id)) {
                span.set_attr("status", "skipped");
                self.run_span.incr_counter("engine.subgraphs_skipped", 1);
                self.poisoned.extend(wanted.iter().cloned());
                self.report.skipped.extend(wanted);
                self.settle(si, self.blank_report(si, SubgraphStatus::Skipped));
                continue;
            }
            match engine.prepare_inputs_staged(sub, &self.staged) {
                Ok(input) => {
                    span.set_attr("rows_in", dataset_rows(&input));
                    if !self.serve_cached(si, &wanted, &input, &span) {
                        jobs.push(Job {
                            si,
                            input,
                            wanted,
                            span,
                        });
                    }
                }
                // a missing input is a deterministic failure of this
                // subgraph, not of the whole run
                Err(e) => {
                    span.set_attr("status", "failed");
                    span.add_event(e.to_string());
                    failed.push(JobOutcome {
                        si,
                        result: Err(e),
                        attempts: Vec::new(),
                        wall_nanos: 0,
                    });
                }
            }
        }
        Ok((jobs, failed))
    }

    /// Consult the run cache: when every statement of the subgraph
    /// resolves (exact content hit or delta patch), stage the cached
    /// outputs and report the subgraph settled, so it is never
    /// dispatched.
    fn serve_cached(
        &mut self,
        si: usize,
        wanted: &[CubeId],
        input: &exl_model::Dataset,
        span: &Span,
    ) -> bool {
        let Some(c) = self.cache.as_mut() else {
            return false;
        };
        let engine = self.engine;
        let (sub, _, fallback) = &self.plan.translated[si];
        let started = std::time::Instant::now();
        let Some((outputs, counts)) = c.resolve_statements(
            &engine.statements_of(sub),
            effective_target(sub, *fallback),
            input,
            &|id| engine.catalog.schema(id).cloned(),
        ) else {
            return false;
        };
        let wall_nanos = elapsed_nanos(started);
        let rows_out: u64 = outputs.iter().map(|(_, d)| d.len() as u64).sum();
        // a subgraph with inline-evaluated dirty statements still
        // computed something: only a fully cache-served one reports Cached
        let status = if counts.misses == 0 {
            SubgraphStatus::Cached
        } else {
            SubgraphStatus::Computed
        };
        span.set_attr("cache_hit", counts.misses == 0);
        span.set_attr("status", status.name());
        let run_span = self.run_span;
        run_span.incr_counter("engine.subgraphs_cached", 1);
        run_span.incr_counter("cache.hits", counts.hits);
        run_span.incr_counter("cache.delta_hits", counts.delta_hits);
        run_span.incr_counter("cache.misses", counts.misses);
        if exl_obs::flight::is_armed() {
            let site = join_ids(wanted);
            for (kind, n) in [
                (exl_obs::flight::FlightKind::CacheHit, counts.hits),
                (exl_obs::flight::FlightKind::CacheDelta, counts.delta_hits),
                (exl_obs::flight::FlightKind::CacheMiss, counts.misses),
            ] {
                if n > 0 {
                    exl_obs::flight::record(kind, &site, format!("{n} statement(s)"));
                }
            }
        }
        self.report.cache.hits += counts.hits;
        self.report.cache.delta_hits += counts.delta_hits;
        self.report.cache.misses += counts.misses;
        self.stage(outputs);
        let r = SubgraphReport {
            cache: counts,
            wall_nanos,
            rows_out,
            ..self.blank_report(si, status)
        };
        self.settle(si, r);
        true
    }

    /// The dispatch phase: execute admitted jobs under the supervisor, on
    /// this thread one after another, or — with parallel dispatch — on
    /// one scoped thread each. Every job runs under a per-subgraph child
    /// of the run governor, which scopes injected cancels and subgraph
    /// deadlines to that subgraph.
    fn dispatch(&self, jobs: Vec<Job>) -> Result<Vec<JobOutcome>, EngineError> {
        let (plan, run_span, policy) = (self.plan, self.run_span, &self.engine.policy);
        // dispatch workers can't see this thread's ambient governor:
        // capture it for them
        let ambient = crate::govern::governor();
        let run_job = |job: Job| {
            let _governor = ambient
                .as_ref()
                .map(|g| crate::govern::set_governor(g.child()));
            let started = std::time::Instant::now();
            let (result, attempts) = run_supervised(
                &plan.translated[job.si].1,
                plan.natives[job.si].as_ref(),
                &job.input,
                &job.wanted,
                policy,
                &job.span,
            );
            let wall_nanos = elapsed_nanos(started);
            finish_subgraph_span(&job.span, &result, &attempts, &job.wanted);
            JobOutcome {
                si: job.si,
                result,
                attempts,
                wall_nanos,
            }
        };
        if !self.engine.parallel_dispatch || jobs.len() < 2 {
            return Ok(jobs.into_iter().map(run_job).collect());
        }
        let run_job = &run_job;
        let joined: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .into_iter()
                .map(|job| scope.spawn(move || run_job(job)))
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        // the supervisor catches backend panics; this guards the
        // dispatcher itself, which is always fatal
        joined
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(|payload| {
                run_span.incr_counter("engine.rollbacks", 1);
                EngineError::Panic {
                    target: "dispatcher".to_string(),
                    message: panic_message(payload),
                }
            })
    }

    /// Stage a stage's outcomes in dispatch order — nothing touches the
    /// catalog yet. A failure aborts the run unless keep_going degrades
    /// around it.
    fn stage_outcomes(&mut self, mut outcomes: Vec<JobOutcome>) -> Result<(), EngineError> {
        outcomes.sort_by_key(|o| o.si);
        for o in outcomes {
            let wanted = self.engine.targets_of(&self.plan.translated[o.si].0);
            let staging = o.result.and_then(|ds| {
                wanted
                    .iter()
                    .map(|id| {
                        let data = ds.data(id).ok_or_else(|| {
                            EngineError::Execution(format!("target produced no data for {id}"))
                        })?;
                        Ok((id.clone(), data.clone()))
                    })
                    .collect::<Result<Vec<_>, EngineError>>()
            });
            let items = match staging {
                Ok(items) => items,
                Err(e) => {
                    self.fail(o.si, e, o.attempts, o.wall_nanos)?;
                    continue;
                }
            };
            let counts = self.store_cached(o.si, &wanted, &items, &o.attempts);
            let rows_out: u64 = items.iter().map(|(_, d)| d.len() as u64).sum();
            self.stage(items);
            let r = SubgraphReport {
                attempts: o.attempts,
                cache: counts,
                wall_nanos: o.wall_nanos,
                rows_out,
                ..self.blank_report(o.si, SubgraphStatus::Computed)
            };
            self.settle(o.si, r);
        }
        Ok(())
    }

    /// Count an executed subgraph's statements as cache misses and
    /// record its results for future runs.
    fn store_cached(
        &mut self,
        si: usize,
        wanted: &[CubeId],
        items: &[(CubeId, CubeData)],
        attempts: &[Attempt],
    ) -> StmtCacheCounts {
        let mut counts = StmtCacheCounts::default();
        let Some(c) = self.cache.as_mut() else {
            return counts;
        };
        let engine = self.engine;
        let (sub, _, fallback) = &self.plan.translated[si];
        let effective = effective_target(sub, *fallback);
        counts.misses = items.len() as u64;
        self.report.cache.misses += counts.misses;
        self.run_span.incr_counter("cache.misses", counts.misses);
        exl_obs::flight::record_with(
            exl_obs::flight::FlightKind::CacheMiss,
            &join_ids(wanted),
            || format!("{} statement(s) executed in full", counts.misses),
        );
        // only when the effective target actually produced the results (a
        // runtime-fallback result under another target's key would
        // replay the wrong engine)
        if attempts.last().is_some_and(|a| a.target == effective) {
            // same-stage subgraphs never feed each other, so re-preparing
            // against the current staging area reproduces this
            // subgraph's inputs
            if let Ok(prepared) = engine.prepare_inputs_staged(sub, &self.staged) {
                c.store_statements(
                    &engine.statements_of(sub),
                    effective,
                    &prepared,
                    items,
                    &|id| engine.catalog.schema(id).cloned(),
                );
            }
        }
        counts
    }

    /// Settle a failed subgraph: abort the run, or under keep_going
    /// poison its cubes and carry on.
    fn fail(
        &mut self,
        si: usize,
        e: EngineError,
        attempts: Vec<Attempt>,
        wall_nanos: u64,
    ) -> Result<(), EngineError> {
        // a cancelled *run* token (SIGINT, external cancel) aborts even
        // under keep_going: no later subgraph could execute anyway, so
        // the staged results roll back. A subgraph-local cancel or a
        // tripped run budget degrades like any failure — the report then
        // shows the typed status.
        let run_cancelled = crate::govern::governor().is_some_and(|g| g.token().is_cancelled());
        let status = match &e {
            EngineError::Cancelled { .. } => SubgraphStatus::Cancelled,
            EngineError::BudgetExceeded { .. } => SubgraphStatus::BudgetExceeded,
            _ => SubgraphStatus::Failed,
        };
        let r = SubgraphReport {
            attempts,
            error: Some(e.to_string()),
            wall_nanos,
            ..self.blank_report(si, status)
        };
        if !self.engine.policy.keep_going || (e.is_governance() && run_cancelled) {
            // the failing subgraph's report reaches the crash bundle even
            // when the run aborts right here
            self.observe(&r);
            self.run_span.incr_counter("engine.rollbacks", 1);
            return Err(e);
        }
        self.run_span.incr_counter("engine.subgraphs_failed", 1);
        self.poisoned.extend(r.cubes.iter().cloned());
        self.report.failed.extend(r.cubes.iter().cloned());
        self.settle(si, r);
        Ok(())
    }

    /// Put results into the run's staging area, in commit order.
    fn stage(&mut self, items: Vec<(CubeId, CubeData)>) {
        for (id, data) in items {
            self.staged.insert(id.clone(), data);
            self.report.computed.push(id);
        }
    }

    /// A subgraph's report with `status` and no work recorded.
    fn blank_report(&self, si: usize, status: SubgraphStatus) -> SubgraphReport {
        let (sub, _, fallback) = &self.plan.translated[si];
        SubgraphReport {
            target: effective_target(sub, *fallback),
            fallback: *fallback,
            cubes: self.engine.targets_of(sub),
            status,
            attempts: Vec::new(),
            error: None,
            cache: StmtCacheCounts::default(),
            wall_nanos: 0,
            rows_out: 0,
        }
    }

    /// Hand a finished subgraph's report to the flight recorder and to
    /// the observation that crash bundles and ledger records are built
    /// from.
    fn observe(&mut self, r: &SubgraphReport) {
        exl_obs::flight::record_with(
            exl_obs::flight::FlightKind::Subgraph,
            r.target.name(),
            || match &r.error {
                Some(e) => format!("{}: {} ({e})", join_ids(&r.cubes), r.status.name()),
                None => format!("{}: {}", join_ids(&r.cubes), r.status.name()),
            },
        );
        self.obs.subgraphs.push(r.clone());
    }

    /// Settle a subgraph's outcome: observe it, notify the progress
    /// sink, and keep its report in dispatch order. Called exactly once
    /// per subgraph of a run that does not abort.
    fn settle(&mut self, si: usize, r: SubgraphReport) {
        self.observe(&r);
        self.done += 1;
        if let Some(sink) = &self.engine.progress {
            sink.emit(&ProgressEvent {
                done: self.done,
                total: self.plan.translated.len(),
                cubes: r.cubes.clone(),
                target: r.target,
                status: r.status,
            });
        }
        self.sub_reports[si] = Some(r);
    }

    /// Close the run: fold the cache store's I/O activity into the
    /// report, take the last checkpoint before the point of no return,
    /// and hand back the report with the staged results in commit order.
    fn close(mut self) -> Result<(RunReport, Vec<(CubeId, CubeData)>), EngineError> {
        if let Some(c) = self.cache.as_ref() {
            let io = c.stats().since(&self.cache_io_start);
            self.report.cache.stores = io.stores;
            self.report.cache.corrupt_entries = io.corrupt_entries;
            self.report.cache.write_failures = io.write_failures;
            self.run_span.incr_counter("cache.stores", io.stores);
            self.run_span
                .incr_counter("cache.corrupt", io.corrupt_entries);
            self.run_span
                .incr_counter("cache.write_failures", io.write_failures);
        }
        // a run-level cancel that raced the final stage (a SIGINT during
        // the cache flush, say) must roll back, not commit
        self.check_cancelled()?;
        let mut report = self.report;
        report.subgraphs = self.sub_reports.into_iter().flatten().collect();
        let items = report
            .computed
            .iter()
            .map(|id| {
                let data = self.staged.get(id).cloned().expect("staged all commits");
                (id.clone(), data)
            })
            .collect();
        Ok((report, items))
    }
}
