//! `exlc` — a command-line front to the EXLEngine pipeline.
//!
//! ```text
//! exlc check <program.exl>                 parse + analyze, print schemas
//! exlc tgds <program.exl>                  print the generated schema mapping
//! exlc translate <target> <program.exl>    print the target translation
//!                                          (targets: sql r matlab etl native chase)
//! exlc run <program.exl> <data.json> [target]
//!                                          execute (natively unless a target
//!                                          is named); print derived cubes as
//!                                          JSON on stdout
//! exlc run <program.exl> <data-dir/> [target]
//!                                          same, loading one <CUBE>.csv per
//!                                          elementary cube from the directory
//! ```
//!
//! ```text
//! exlc explain <program.exl> <data.json|dir> <cube>
//!                                          run traced, then print the
//!                                          derivation chain of one cube
//! exlc perf <ledger-dir> [--threshold <x>] [--min-runs <n>]
//!                                          judge the latest run of each
//!                                          statement against its ledger
//!                                          baseline; exit 1 on regression
//! ```
//!
//! The global option `--metrics <path>` (before or after the subcommand)
//! records structured run metrics — spans, counters, gauges — and writes
//! them to `<path>` as JSON when the command finishes. The path is
//! validated (created or opened for writing) **before** anything runs, so
//! a bad path fails fast instead of after a long computation. Likewise
//! `--trace <path>` records the hierarchical span tree of the run and
//! writes it as Chrome trace-event JSON (loadable in Perfetto / Chrome's
//! `about:tracing`; see `docs/TRACING.md`), and `--progress` prints one
//! stderr line per completed subgraph. Every global flag may be given at
//! most once; repeats are rejected with a diagnostic.
//!
//! Fault-handling options for `run` (accepted anywhere on the line):
//!
//! * `--retries <n>` — re-execute up to `n` times after a retryable
//!   failure (backend error, timeout, contained panic);
//! * `--subgraph-timeout-ms <n>` — deadline per execution attempt;
//! * `--keep-going` — degradation mode: complete everything not
//!   downstream of a failure (meaningful for multi-subgraph runs).
//!
//! `EXL_NO_FUSION=1` in the environment disables plan fusion for the
//! invocation (a CLI-level default; the library takes the switch per
//! run via `ExecOpts`).
//!
//! Governance options for `run`/`explain` (see `docs/GOVERNANCE.md`):
//!
//! * `--run-deadline-ms <n>` — wall-clock budget for the whole run; when
//!   it passes the run is cancelled cooperatively and rolled back;
//! * `--max-memory-mb <n>` — byte-accounted ceiling on materialized
//!   intermediates; exceeding it cancels the run;
//! * **SIGINT** (Ctrl-C) cancels the same per-run token: the running
//!   backend stops at its next checkpoint, the transaction rolls back,
//!   and `exlc` exits with a diagnostic instead of a half-committed
//!   catalog.
//!
//! Run-cache options for `run` (see `docs/INCREMENTAL.md`):
//!
//! * `--cache-dir <dir>` — arm the content-addressed run cache with a
//!   persistent store under `<dir>`: statements whose inputs are
//!   bit-identical to a previous run (this process or any earlier one)
//!   are skipped, and a one-line hit/miss summary is printed to stderr;
//! * `--no-cache` — force a cold run; overrides `--cache-dir`.
//!
//! Observability options for `run`/`explain` (see
//! `docs/OBSERVABILITY.md`; the full flag table is in the README):
//!
//! * `--metrics-prom <path>` — write the metrics registry in Prometheus
//!   text exposition format when the command finishes;
//! * `--bundle-dir <dir>` — arm the flight recorder; any failed run
//!   dumps a crash bundle (event tail, metrics, governance state,
//!   per-subgraph statuses) into `<dir>` and prints its path to stderr;
//! * `--ledger-dir <dir>` — append one JSONL record per run to
//!   `<dir>/ledger.jsonl`, the input of `exlc perf`;
//! * `--inject-fault <site>:<nth>:<action>[:<arg>]` — chaos-testing
//!   hook: arm one deterministic fault (action `error`, `panic`,
//!   `cancel`, `delay:<ms>`, or `mem:<bytes>`; `nth` = 0 arms every
//!   occurrence) for the duration of the run. Used by `scripts/check.sh`
//!   to validate crash bundles end to end.
//!
//! `data.json` holds `{ "CUBE": [ [[dims…], measure], … ], … }` — dimension
//! values use the serde encoding of `exl_model::DimValue`. CSV files use the
//! flat format of `exl_model::csv` (header = dimensions + measure).

use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;

/// Print a line to stdout, exiting quietly if the pipe is closed (e.g.
/// `exlc tgds p.exl | head`).
macro_rules! out {
    ($($arg:tt)*) => {
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0);
        }
    };
}

use std::sync::Arc;

use exl_engine::{translate, DispatchPolicy, ExlEngine, LineageReport, ProgressSink, TargetKind};
use exl_model::{Cube, CubeData, Dataset, DimTuple};
use exl_obs::{MetricsRegistry, NoopRecorder, Recorder, Tracer};

/// Everything pulled off the command line before the subcommand runs.
struct Globals {
    metrics_path: Option<String>,
    metrics_prom: Option<String>,
    trace_path: Option<String>,
    progress: bool,
    policy: Option<DispatchPolicy>,
    cache_dir: Option<String>,
    no_cache: bool,
    run_deadline_ms: Option<u64>,
    max_memory_mb: Option<u64>,
    bundle_dir: Option<String>,
    ledger_dir: Option<String>,
    inject_fault: Option<String>,
}

/// The CLI-level execution defaults: `EXL_NO_FUSION=1` disables plan
/// fusion for this invocation. The env var is read exactly here — the
/// library takes the switch per run via [`exl_engine::ExecOpts`], so
/// parallel test harnesses are never exposed to a process-global toggle.
fn exec_from_env() -> exl_engine::ExecOpts {
    exl_engine::ExecOpts {
        no_fusion: std::env::var("EXL_NO_FUSION").is_ok_and(|v| !v.is_empty() && v != "0"),
    }
}

/// The process-wide external cancellation token. SIGINT cancels it; every
/// engine run (and supervised run) derives its run token from it, so one
/// Ctrl-C gracefully cancels whatever is executing and rolls it back.
static CANCEL: std::sync::OnceLock<exl_engine::CancelToken> = std::sync::OnceLock::new();

/// SIGINT handler: a single atomic store (`raw_cancel`), the only form
/// that is async-signal-safe — no lock, no allocation, no I/O.
extern "C" fn on_sigint(_sig: i32) {
    if let Some(token) = CANCEL.get() {
        token.raw_cancel();
    }
}

/// Install the SIGINT → [`CANCEL`] bridge and return the token.
fn install_sigint() -> exl_engine::CancelToken {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    let token = CANCEL.get_or_init(exl_engine::CancelToken::new).clone();
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
    }
    token
}

/// The governance config for this invocation: the SIGINT token plus any
/// budget flags. All three routes (SIGINT, `--run-deadline-ms`,
/// `--max-memory-mb`) converge on the same per-run token tree.
fn govern_config(globals: &Globals) -> exl_engine::GovernConfig {
    exl_engine::GovernConfig {
        cancel: install_sigint(),
        run_deadline: globals
            .run_deadline_ms
            .map(std::time::Duration::from_millis),
        max_memory_bytes: globals.max_memory_mb.map(|mb| mb * 1024 * 1024),
        max_rows: None,
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let globals = match extract_globals(&mut args) {
        Ok(g) => g,
        Err(msg) => {
            eprintln!("exlc: {msg}");
            return ExitCode::FAILURE;
        }
    };
    // fail fast on an unwritable output path: better a diagnostic now
    // than a lost run later
    for (path, what) in [
        (&globals.metrics_path, "metrics"),
        (&globals.metrics_prom, "prometheus metrics"),
        (&globals.trace_path, "trace"),
    ] {
        if let Some(path) = path {
            if let Err(e) = std::fs::OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)
            {
                eprintln!("exlc: {what} path {path} is not writable: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // same fail-fast discipline for the observability directories
    for (dir, what) in [
        (&globals.bundle_dir, "bundle"),
        (&globals.ledger_dir, "ledger"),
    ] {
        if let Some(dir) = dir {
            if let Err(e) = probe_dir_writable(dir) {
                eprintln!("exlc: {what} dir {dir} is not writable: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // crash bundles embed a metrics snapshot and ledger records carry
    // cache/throughput counters, so both sinks want a live registry
    let want_metrics = globals.metrics_path.is_some()
        || globals.metrics_prom.is_some()
        || globals.bundle_dir.is_some()
        || globals.ledger_dir.is_some();
    let registry = Arc::new(MetricsRegistry::new());
    let recorder: &dyn Recorder = if want_metrics {
        registry.as_ref()
    } else {
        &NoopRecorder
    };
    let metrics = want_metrics.then_some(&registry);
    let tracer = if globals.trace_path.is_some() {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let outcome = run(&args, recorder, metrics, &globals, &tracer);
    if let Some(path) = &globals.metrics_path {
        if let Err(e) = std::fs::write(path, registry.to_json()) {
            eprintln!("exlc: cannot write metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &globals.metrics_prom {
        if let Err(e) = std::fs::write(path, registry.to_prometheus_text()) {
            eprintln!("exlc: cannot write prometheus metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &globals.trace_path {
        if let Err(e) = std::fs::write(path, tracer.snapshot().to_chrome_json()) {
            eprintln!("exlc: cannot write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("exlc: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Pull every global flag (accepted anywhere on the line) out of `args`,
/// leaving only the subcommand and its positional arguments.
fn extract_globals(args: &mut Vec<String>) -> Result<Globals, String> {
    let metrics_path = extract_value_flag(args, "--metrics")?;
    let trace_path = extract_value_flag(args, "--trace")?;
    let progress = extract_bool_flag(args, "--progress")?;
    let policy = extract_policy(args)?;
    let cache_dir = extract_value_flag(args, "--cache-dir")?;
    let no_cache = extract_bool_flag(args, "--no-cache")?;
    let run_deadline_ms = match extract_value_flag(args, "--run-deadline-ms")? {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--run-deadline-ms: `{v}` is not a number of milliseconds"))?,
        ),
        None => None,
    };
    let max_memory_mb = match extract_value_flag(args, "--max-memory-mb")? {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--max-memory-mb: `{v}` is not a number of megabytes"))?,
        ),
        None => None,
    };
    let metrics_prom = extract_value_flag(args, "--metrics-prom")?;
    let bundle_dir = extract_value_flag(args, "--bundle-dir")?;
    let ledger_dir = extract_value_flag(args, "--ledger-dir")?;
    let inject_fault = extract_value_flag(args, "--inject-fault")?;
    Ok(Globals {
        metrics_path,
        metrics_prom,
        trace_path,
        progress,
        policy,
        cache_dir,
        no_cache,
        run_deadline_ms,
        max_memory_mb,
        bundle_dir,
        ledger_dir,
        inject_fault,
    })
}

/// Pull the fault-handling flags out of `args`. Returns the default
/// policy (fail fast, no retry, no deadline) with a `None` marker when no
/// flag was given; `Some` means `run` should go through the supervisor.
fn extract_policy(args: &mut Vec<String>) -> Result<Option<DispatchPolicy>, String> {
    let mut policy = DispatchPolicy::default();
    let mut any = false;
    if let Some(v) = extract_value_flag(args, "--retries")? {
        policy.retries = v
            .parse()
            .map_err(|_| format!("--retries: `{v}` is not a count"))?;
        any = true;
    }
    if let Some(v) = extract_value_flag(args, "--subgraph-timeout-ms")? {
        let ms: u64 = v
            .parse()
            .map_err(|_| format!("--subgraph-timeout-ms: `{v}` is not a number of milliseconds"))?;
        policy.subgraph_timeout = Some(std::time::Duration::from_millis(ms));
        any = true;
    }
    if extract_bool_flag(args, "--keep-going")? {
        policy.keep_going = true;
        any = true;
    }
    Ok(any.then_some(policy))
}

/// Pull `<flag> <value>` out of `args`. A repeated flag is rejected: the
/// two occurrences would silently shadow each other otherwise.
fn extract_value_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} requires a value"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    if args.iter().any(|a| a == flag) {
        return Err(format!(
            "duplicate {flag} flag (it was given more than once; keep exactly one)"
        ));
    }
    Ok(Some(value))
}

/// Pull a boolean `<flag>` out of `args`, rejecting repeats like
/// [`extract_value_flag`].
fn extract_bool_flag(args: &mut Vec<String>, flag: &str) -> Result<bool, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(false);
    };
    args.remove(i);
    if args.iter().any(|a| a == flag) {
        return Err(format!(
            "duplicate {flag} flag (it was given more than once; keep exactly one)"
        ));
    }
    Ok(true)
}

/// Create `dir` if needed and prove it is writable by round-tripping a
/// probe file — the same fail-fast discipline as the flat output paths.
fn probe_dir_writable(dir: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let probe = std::path::Path::new(dir).join(format!(".exlc-probe-{}", std::process::id()));
    std::fs::write(&probe, b"probe")?;
    std::fs::remove_file(&probe)
}

/// Parse an `--inject-fault` spec: `<site>:<nth>:<action>[:<arg>]` where
/// the action is `error`, `panic`, `cancel`, `delay:<ms>` or
/// `mem:<bytes>`, and `nth` is 1-based (0 = every occurrence).
fn parse_fault_plan(spec: &str) -> Result<exl_fault::FaultPlan, String> {
    let bad = |why: &str| {
        format!("bad --inject-fault spec `{spec}`: {why} (want <site>:<nth>:<action>[:<arg>])")
    };
    let parts: Vec<&str> = spec.split(':').collect();
    let [site, nth, action @ ..] = parts.as_slice() else {
        return Err(bad("too few fields"));
    };
    if site.is_empty() {
        return Err(bad("empty site"));
    }
    let nth: u64 = nth.parse().map_err(|_| bad("nth is not a number"))?;
    let action = match action {
        ["error"] => exl_fault::FaultAction::Error,
        ["panic"] => exl_fault::FaultAction::Panic,
        ["cancel"] => exl_fault::FaultAction::Cancel,
        ["delay", ms] => {
            exl_fault::FaultAction::Delay(ms.parse().map_err(|_| bad("delay wants <ms>"))?)
        }
        ["mem", bytes] => exl_fault::FaultAction::MemPressure(
            bytes.parse().map_err(|_| bad("mem wants <bytes>"))?,
        ),
        _ => return Err(bad("unknown action")),
    };
    Ok(exl_fault::FaultPlan::one(site, nth, action))
}

fn run(
    args: &[String],
    recorder: &dyn Recorder,
    metrics: Option<&Arc<MetricsRegistry>>,
    globals: &Globals,
    tracer: &Tracer,
) -> Result<(), String> {
    let usage = "usage: exlc [--metrics <path>] [--metrics-prom <path>] [--trace <path>] \
                 [--progress] [--retries <n>] \
                 [--subgraph-timeout-ms <n>] [--keep-going] [--cache-dir <dir>] [--no-cache] \
                 [--run-deadline-ms <n>] [--max-memory-mb <n>] \
                 [--bundle-dir <dir>] [--ledger-dir <dir>] [--inject-fault <spec>] \
                 <check|tgds|translate|run|plan|explain|perf> …  (see crate docs)";
    match args {
        [cmd, rest @ ..] => match cmd.as_str() {
            "check" => check(rest, recorder),
            "tgds" => tgds(rest, recorder),
            "translate" => do_translate(rest, recorder),
            "run" => do_run(rest, recorder, metrics, globals, tracer),
            "plan" => do_plan(rest, recorder, metrics, globals, tracer),
            "explain" => explain(rest, recorder, metrics, globals, tracer),
            "perf" => perf(rest),
            other => Err(format!("unknown command `{other}`\n{usage}")),
        },
        _ => Err(usage.to_string()),
    }
}

fn load_program(path: &str, recorder: &dyn Recorder) -> Result<exl_lang::AnalyzedProgram, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let program =
        exl_lang::parse_program_recorded(&source, recorder).map_err(|e| format!("{path}: {e}"))?;
    exl_lang::analyze_recorded(&program, &[], recorder).map_err(|e| format!("{path}: {e}"))
}

fn check(args: &[String], recorder: &dyn Recorder) -> Result<(), String> {
    let [path] = args else {
        return Err("usage: exlc check <program.exl>".into());
    };
    let analyzed = load_program(path, recorder)?;
    out!("ok: {} statements", analyzed.program.statements.len());
    for (id, schema) in &analyzed.schemas {
        let kind = match schema.kind {
            exl_model::CubeKind::Elementary => "elementary",
            exl_model::CubeKind::Derived => "derived",
        };
        out!("  {kind:>10}  {schema}");
        let _ = id;
    }
    Ok(())
}

fn tgds(args: &[String], recorder: &dyn Recorder) -> Result<(), String> {
    let [path] = args else {
        return Err("usage: exlc tgds <program.exl>".into());
    };
    let analyzed = load_program(path, recorder)?;
    let (mapping, _) =
        exl_map::generate_mapping(&analyzed, exl_map::GenMode::Fused).map_err(|e| e.to_string())?;
    out!("{}", mapping.display_tgds());
    for egd in &mapping.egds {
        out!("[egd] {egd}");
    }
    Ok(())
}

fn parse_target(name: &str) -> Result<TargetKind, String> {
    TargetKind::ALL
        .into_iter()
        .find(|t| t.name() == name)
        .ok_or_else(|| {
            format!(
                "unknown target `{name}` (expected one of: {})",
                TargetKind::ALL.map(|t| t.name()).join(", ")
            )
        })
}

fn do_translate(args: &[String], recorder: &dyn Recorder) -> Result<(), String> {
    let [target, path] = args else {
        return Err("usage: exlc translate <target> <program.exl>".into());
    };
    let analyzed = load_program(path, recorder)?;
    let code = translate(&analyzed, parse_target(target)?).map_err(|e| e.to_string())?;
    out!("{}", code.listing());
    Ok(())
}

type JsonCube = Vec<(DimTuple, f64)>;

/// Load the input dataset for a program: either a JSON file of cube
/// tuples, or a directory holding one `<CUBE>.csv` per elementary input.
fn load_input(data_path: &str, analyzed: &exl_lang::AnalyzedProgram) -> Result<Dataset, String> {
    let mut input = Dataset::new();
    if std::fs::metadata(data_path)
        .map(|m| m.is_dir())
        .unwrap_or(false)
    {
        // directory of <CUBE>.csv files, one per elementary input
        for id in analyzed.elementary_inputs() {
            let file = std::path::Path::new(data_path).join(format!("{id}.csv"));
            let text =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            let schema = analyzed.schemas[&id].clone();
            let data = exl_model::csv::from_csv(&text, &schema)
                .map_err(|e| format!("{}: {e}", file.display()))?;
            input.put(Cube::new(schema, data));
        }
    } else {
        let raw = std::fs::read_to_string(data_path).map_err(|e| format!("{data_path}: {e}"))?;
        let cubes: BTreeMap<String, JsonCube> =
            serde_json::from_str(&raw).map_err(|e| format!("{data_path}: {e}"))?;
        for (name, tuples) in cubes {
            let schema = analyzed
                .schemas
                .get(&name.as_str().into())
                .ok_or_else(|| format!("data for unknown cube {name}"))?
                .clone();
            let data = CubeData::from_tuples(tuples).map_err(|e| e.to_string())?;
            input
                .put_validated(Cube::new(schema, data))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(input)
}

/// Build a full [`ExlEngine`] wired to the CLI's tracer, metrics
/// registry, policy and progress sink, with the program registered and
/// its elementary inputs loaded.
fn build_engine(
    path: &str,
    analyzed: &exl_lang::AnalyzedProgram,
    input: &Dataset,
    metrics: Option<&Arc<MetricsRegistry>>,
    globals: &Globals,
    tracer: &Tracer,
) -> Result<ExlEngine, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut e = ExlEngine::new();
    e.set_tracer(tracer.clone());
    if let Some(registry) = metrics {
        e.set_metrics_registry(registry.clone());
    }
    if let Some(policy) = &globals.policy {
        e.policy = policy.clone();
    }
    if globals.progress {
        e.progress = Some(ProgressSink::new(|ev| {
            let status = ev.status.name();
            let cubes: Vec<String> = ev.cubes.iter().map(|c| c.to_string()).collect();
            eprintln!(
                "exlc: [{}/{}] {status} {} on {}",
                ev.done,
                ev.total,
                cubes.join(","),
                ev.target.name()
            );
        }));
    }
    if !globals.no_cache {
        if let Some(dir) = &globals.cache_dir {
            e.enable_disk_cache(dir).map_err(|e| e.to_string())?;
        }
    }
    if let Some(dir) = &globals.bundle_dir {
        e.set_bundle_dir(dir).map_err(|e| e.to_string())?;
    }
    if let Some(dir) = &globals.ledger_dir {
        e.set_ledger_dir(dir).map_err(|e| e.to_string())?;
    }
    e.govern = govern_config(globals);
    e.exec = exec_from_env();
    e.register_program("main", &source)
        .map_err(|e| e.to_string())?;
    for id in analyzed.elementary_inputs() {
        let data = input
            .data(&id)
            .ok_or_else(|| format!("no data for elementary cube {id}"))?;
        e.load_elementary(&id, data.clone())
            .map_err(|e| e.to_string())?;
    }
    Ok(e)
}

/// Render every native subgraph's compiled-plan description: fusion
/// regions, CSE reuses, and materialization points.
fn render_plan_overview(e: &ExlEngine) -> Result<String, String> {
    let overview = e.plan_overview().map_err(|e| e.to_string())?;
    if overview.is_empty() {
        return Ok("plan: no native subgraphs".into());
    }
    let mut s = String::new();
    for (cubes, desc) in &overview {
        let cubes: Vec<String> = cubes.iter().map(|c| c.to_string()).collect();
        s.push_str(&format!("subgraph [{}]\n", cubes.join(",")));
        for line in desc.render().lines() {
            s.push_str("  ");
            s.push_str(line);
            s.push('\n');
        }
    }
    Ok(s.trim_end().to_string())
}

/// `exlc plan <program.exl> <data.json|dir>` — offline plan
/// introspection: prints each native subgraph's fusion regions, CSE
/// hits, and materialization points without executing anything.
fn do_plan(
    args: &[String],
    recorder: &dyn Recorder,
    metrics: Option<&Arc<MetricsRegistry>>,
    globals: &Globals,
    tracer: &Tracer,
) -> Result<(), String> {
    let [path, data_path] = args else {
        return Err("usage: exlc plan <program.exl> <data.json|dir>".into());
    };
    let analyzed = load_program(path, recorder)?;
    let input = load_input(data_path, &analyzed)?;
    let e = build_engine(path, &analyzed, &input, metrics, globals, tracer)?;
    out!("{}", render_plan_overview(&e)?);
    Ok(())
}

fn do_run(
    args: &[String],
    recorder: &dyn Recorder,
    metrics: Option<&Arc<MetricsRegistry>>,
    globals: &Globals,
    tracer: &Tracer,
) -> Result<(), String> {
    let mut args = args.to_vec();
    let dump_plan = extract_value_flag(&mut args, "--dump-plan")?;
    let (path, data_path, target) = match args.as_slice() {
        [p, d] => (p, d, TargetKind::Native),
        [p, d, t] => (p, d, parse_target(t)?),
        _ => {
            return Err(
                "usage: exlc run <program.exl> <data.json|dir> [target] [--dump-plan <path>]"
                    .into(),
            )
        }
    };
    // bridge SIGINT before the (potentially long) data load, so a
    // Ctrl-C during it is remembered and aborts at the first checkpoint
    install_sigint();
    let analyzed = load_program(path, recorder)?;
    let input = load_input(data_path, &analyzed)?;
    let keep_going = globals
        .policy
        .as_ref()
        .is_some_and(|policy| policy.keep_going);

    // chaos injection: hold the installed plan for the whole run so
    // every backend sees it
    let _fault_guard = match &globals.inject_fault {
        Some(spec) => Some(exl_fault::install(parse_fault_plan(spec)?)),
        None => None,
    };
    // --dump-plan: write the compiled-plan overview before executing, so
    // the dump exists even if the run itself fails
    if let Some(dump) = &dump_plan {
        let e = build_engine(path, &analyzed, &input, metrics, globals, tracer)?;
        let text = render_plan_overview(&e)?;
        std::fs::write(dump, text + "\n").map_err(|e| format!("{dump}: {e}"))?;
        eprintln!("exlc: plan dumped to {dump}");
    }
    let mut result: BTreeMap<String, JsonCube> = BTreeMap::new();
    let use_cache = globals.cache_dir.is_some() && !globals.no_cache;
    let use_engine = globals.trace_path.is_some()
        || globals.progress
        || use_cache
        || globals.bundle_dir.is_some()
        || globals.ledger_dir.is_some();
    if use_engine {
        // tracing, progress, the run cache, or an observability sink
        // asked for: run through the full engine so per-subgraph
        // dispatch (and cache resolution) is real
        let mut e = build_engine(path, &analyzed, &input, metrics, globals, tracer)?;
        e.default_target = target;
        let run_result = e.run_all();
        if let Some(bundle) = e.last_bundle() {
            eprintln!("exlc: crash bundle written to {}", bundle.display());
        }
        let report = run_result.map_err(|e| e.to_string())?;
        if use_cache {
            eprintln!(
                "exlc: cache: {} hit, {} delta, {} miss ({} stored)",
                report.cache.hits,
                report.cache.delta_hits,
                report.cache.misses,
                report.cache.stores
            );
        }
        for id in analyzed.program.derived_ids() {
            match e.data(&id) {
                Some(data) => {
                    result.insert(id.to_string(), data.to_tuples());
                }
                None if keep_going => {}
                None => return Err(format!("target produced no data for {id}")),
            }
        }
    } else {
        // no engine in this branch, so install the run governor as the
        // ambient one: SIGINT and the budget flags still reach every
        // backend checkpoint
        let _governor = exl_engine::govern::set_governor(govern_config(globals).run_governor());
        let output = if let Some(policy) = &globals.policy {
            // fault-handling flags were given: run under the dispatch
            // supervisor (which records the subgraph span per attempt)
            let (output, attempts) = exl_engine::run_on_target_supervised(
                &analyzed,
                &input,
                target,
                policy,
                metrics,
                &exl_obs::Span::disabled(),
                exec_from_env(),
            )
            .map_err(|e| e.to_string())?;
            if attempts.len() > 1 {
                eprintln!("exlc: run succeeded after {} attempts", attempts.len());
            }
            output
        } else {
            // the whole program runs as one subgraph on the chosen target
            let _span = exl_obs::span(recorder, format!("engine.subgraph.{target}"));
            exl_engine::run_on_target_opts(&analyzed, &input, target, recorder, exec_from_env())
                .map_err(|e| e.to_string())?
        };
        for id in analyzed.program.derived_ids() {
            let data = output
                .data(&id)
                .ok_or_else(|| format!("target produced no data for {id}"))?;
            result.insert(id.to_string(), data.to_tuples());
        }
    }
    out!(
        "{}",
        serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn explain(
    args: &[String],
    recorder: &dyn Recorder,
    metrics: Option<&Arc<MetricsRegistry>>,
    globals: &Globals,
    tracer: &Tracer,
) -> Result<(), String> {
    let [path, data_path, cube] = args else {
        return Err("usage: exlc explain <program.exl> <data.json|dir> <cube>".into());
    };
    let analyzed = load_program(path, recorder)?;
    let id = cube.as_str().into();
    if !analyzed.schemas.contains_key(&id) {
        return Err(format!("unknown cube `{cube}` in {path}"));
    }
    let input = load_input(data_path, &analyzed)?;
    // explain needs span data: reuse the CLI tracer when --trace armed
    // one (so the trace file also captures this run), else arm our own
    let tracer = if tracer.is_enabled() {
        tracer.clone()
    } else {
        Tracer::new()
    };
    let mut e = build_engine(path, &analyzed, &input, metrics, globals, &tracer)?;
    e.apply_suggested_affinities().map_err(|e| e.to_string())?;
    e.run_all().map_err(|e| e.to_string())?;
    let report = LineageReport::from_trace(&tracer.snapshot(), e.graph());
    out!("{}", report.chain_text(&id).trim_end());
    // plan-compilation lineage: which fused region each derived step of
    // the explained cube's subgraph executed in
    for (cubes, desc) in e.plan_overview().map_err(|e| e.to_string())? {
        if !cubes.contains(&id) {
            continue;
        }
        for r in &desc.regions {
            if let Some(target) = &r.target {
                out!(
                    "plan: {target} -> region {} [{}] fused={}",
                    r.id,
                    r.kind,
                    r.fused_ops
                );
            }
        }
    }
    Ok(())
}

/// `exlc perf <ledger-dir> [--threshold <x>] [--min-runs <n>]` — the
/// perf-regression sentinel. Reads the run ledger, computes per-
/// (program, statement) baselines and exits non-zero when the latest
/// sample regressed beyond the threshold, so CI can gate on it.
fn perf(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let mut config = exl_engine::ledger::SentinelConfig::default();
    if let Some(v) = extract_value_flag(&mut args, "--threshold")? {
        config.threshold = v
            .parse::<f64>()
            .map_err(|e| format!("bad --threshold {v}: {e}"))?;
        if !config.threshold.is_finite() || config.threshold <= 1.0 {
            return Err(format!("bad --threshold {v}: want a finite ratio > 1"));
        }
    }
    if let Some(v) = extract_value_flag(&mut args, "--min-runs")? {
        config.min_runs = v
            .parse::<usize>()
            .map_err(|e| format!("bad --min-runs {v}: {e}"))?;
    }
    let [dir] = args.as_slice() else {
        return Err("usage: exlc perf <ledger-dir> [--threshold <x>] [--min-runs <n>]".into());
    };
    let (records, skipped) =
        exl_engine::ledger::read_ledger(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
    if skipped > 0 {
        eprintln!("exlc: perf: skipped {skipped} unreadable ledger line(s)");
    }
    if records.is_empty() {
        out!("perf: ledger in {dir} is empty; nothing to judge");
        return Ok(());
    }
    let baselines = exl_engine::ledger::analyze(&records, &config);
    out!(
        "perf: {} run(s), {} statement group(s), threshold {:.2}x over ≥{} run(s)",
        records.len(),
        baselines.len(),
        config.threshold,
        config.min_runs
    );
    out!(
        "{:<10} {:<28} {:>5} {:>10} {:>10} {:>10} {:>7}",
        "program",
        "statement",
        "runs",
        "median ms",
        "p95 ms",
        "latest ms",
        "ratio"
    );
    let mut regressions = Vec::new();
    let mut retired = 0usize;
    for b in &baselines {
        let program = &b.program[..b.program.len().min(10)];
        let flag = if b.retired {
            // key absent from the program's latest record: fused away by
            // plan compilation (or re-partitioned) — skipped, not judged
            retired += 1;
            "  retired (skipped)"
        } else if b.regressed {
            "  REGRESSED"
        } else {
            ""
        };
        out!(
            "{:<10} {:<28} {:>5} {:>10.2} {:>10.2} {:>10.2} {:>6.2}x{flag}",
            program,
            b.statement,
            b.history_runs,
            b.median_ms,
            b.p95_ms,
            b.latest_ms,
            b.ratio
        );
        if b.regressed {
            regressions.push(format!(
                "{} [{}]: {:.2} ms vs median {:.2} ms ({:.2}x)",
                b.statement, program, b.latest_ms, b.median_ms, b.ratio
            ));
        }
    }
    if retired > 0 {
        out!("perf: {retired} retired group(s) skipped (not in the latest record)");
    }
    if regressions.is_empty() {
        out!("perf: no regressions");
        Ok(())
    } else {
        Err(format!(
            "perf: {} regression(s) beyond {:.2}x:\n  {}",
            regressions.len(),
            config.threshold,
            regressions.join("\n  ")
        ))
    }
}
