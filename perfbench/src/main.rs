//! End-to-end benchmark of the EXLEngine, with per-layer attribution.
//!
//! ```text
//! exl-perfbench --workload <vintage|wide|production> --seed <n> \
//!               --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop client drives `ExlEngine` in-process: it issues the next
//! op only when the previous one has returned. Inputs are generated from
//! the seed before any timing. Ops run on an engine for a fixed count, then
//! the engine is dropped and set up again, until the ops have been timed
//! for `--seconds`. Every op's output is checked, after the timed phase,
//! against a reference computed on a different code path.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` prints the
//! per-layer metrics: it replays each op's layers after the op (see
//! [`layers`]) and alternates engines with their metrics armed (traced)
//! and disarmed (plain). Both kinds do the same untimed work between ops,
//! so the ratio of their op times is the cost of the program's own
//! instrumentation alone. The last line of standard output is one JSON
//! object; the lines before it are the same numbers for people. The exit
//! code is 0 only when every op succeeded with a correct output.

mod layers;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use exl_engine::EngineError;
use layers::LayerSample;
use workloads::{Inputs, Kind, Observed};

/// Below this share of the op wall time covered by measured layers, the
/// traced run flags the workload: the rest is in no layer the benchmark
/// can time from outside, so the program needs internal spans there.
const COVERAGE_FLOOR: f64 = 0.9;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Timings of one kind of engine (plain or traced).
#[derive(Default)]
struct Phase {
    setup_s: Vec<f64>,
    op_ms: Vec<f64>,
    timed_s: f64,
}

/// Everything one run measured.
struct Outcome {
    plain: Phase,
    traced: Phase,
    layers: Vec<LayerSample>,
    parse_analyze_ms: Vec<f64>,
    observed: Observed,
    attempted: usize,
    errors: usize,
    engines: usize,
}

fn measure(inputs: &Inputs, seconds: f64, trace: bool) -> Result<Outcome, EngineError> {
    let share = if trace { seconds / 2.0 } else { seconds };
    let mut out = Outcome {
        plain: Phase::default(),
        traced: Phase::default(),
        layers: Vec::new(),
        parse_analyze_ms: Vec::new(),
        observed: Observed::default(),
        attempted: 0,
        errors: 0,
        engines: 0,
    };
    for round in 0.. {
        let traced = trace && round % 2 == 1;
        if out.plain.timed_s >= share && (!trace || out.traced.timed_s >= share) {
            break;
        }
        let phase = if traced { &out.traced } else { &out.plain };
        if phase.timed_s >= share {
            continue;
        }
        let started = Instant::now();
        let mut engine = inputs.setup(traced, false)?;
        let setup_s = started.elapsed().as_secs_f64();
        out.engines += 1;
        if traced {
            out.parse_analyze_ms
                .push(layers::parse_analyze_ms(&engine)?);
        }
        // plain engines of a traced run replay too, only to match the
        // traced ones' untimed work between ops
        let mut scratch = if trace {
            Some(layers::scratch_catalog(&engine)?)
        } else {
            None
        };
        let phase = if traced {
            &mut out.traced
        } else {
            &mut out.plain
        };
        phase.setup_s.push(setup_s);
        for i in 0..inputs.kind.ops_per_engine() {
            if phase.timed_s >= share {
                break;
            }
            let input = inputs.prepare(&engine, i);
            let changed = input.changed.clone();
            let loaded = input.load.as_ref().map(|(id, _)| id.clone());
            let fused_before = fused_ops(&engine);
            let started = Instant::now();
            let result = workloads::run_op(&mut engine, input);
            let op_s = started.elapsed().as_secs_f64();
            phase.timed_s += op_s;
            out.attempted += 1;
            let report = match result {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("op {i} failed: {e}");
                    out.errors += 1;
                    continue;
                }
            };
            phase.op_ms.push(op_s * 1e3);
            out.observed.record(inputs.kind, i, &engine);
            if let Some(scratch) = scratch.as_mut() {
                let sample = layers::attribute(
                    &engine,
                    &changed,
                    loaded.as_ref(),
                    &report,
                    op_s * 1e3,
                    fused_ops(&engine) - fused_before,
                    scratch,
                )?;
                if traced {
                    out.layers.push(sample);
                }
            }
        }
    }
    Ok(out)
}

/// The engine's `plan.fused_ops` counter (0 while its metrics are off).
fn fused_ops(engine: &exl_engine::ExlEngine) -> u64 {
    engine.metrics().map_or(0, |m| m.counter("plan.fused_ops"))
}

/// Linear-interpolated quantile of unsorted samples; 0 for none.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median_of(layers: &[LayerSample], f: impl Fn(&LayerSample) -> f64) -> f64 {
    quantile(&layers.iter().map(f).collect::<Vec<_>>(), 0.5)
}

/// The process's resident-set high-water mark, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(out: &Outcome, peak_rss_mb: f64) -> Vec<(&'static str, f64, &'static str)> {
    let p = &out.plain;
    vec![
        ("setup_s", quantile(&p.setup_s, 0.5), "s"),
        ("op_p50_ms", quantile(&p.op_ms, 0.5), "ms"),
        ("op_p90_ms", quantile(&p.op_ms, 0.9), "ms"),
        ("ops_per_s", p.op_ms.len() as f64 / p.timed_s, "1/s"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

fn per_layer(out: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let l = &out.layers;
    let resolved: f64 = l.iter().map(|s| s.cache_resolved).sum();
    let misses: f64 = l.iter().map(|s| s.cache_misses).sum();
    let hit_ratio = if resolved + misses > 0.0 {
        resolved / (resolved + misses)
    } else {
        0.0
    };
    let plain_p50 = quantile(&out.plain.op_ms, 0.5);
    let overhead = if plain_p50 > 0.0 {
        quantile(&out.traced.op_ms, 0.5) / plain_p50
    } else {
        0.0
    };
    vec![
        (
            "lang.parse_analyze_ms",
            quantile(&out.parse_analyze_ms, 0.5),
            "ms",
        ),
        (
            "determination.ms",
            median_of(l, |s| s.determination_ms),
            "ms",
        ),
        (
            "determination.stmts_selected",
            median_of(l, |s| s.stmts_selected),
            "count",
        ),
        ("translate.ms", median_of(l, |s| s.translate_ms), "ms"),
        ("plan.compile_ms", median_of(l, |s| s.plan_compile_ms), "ms"),
        ("plan.fused_ops", median_of(l, |s| s.fused_ops), "count"),
        ("intern.ms", median_of(l, |s| s.intern_ms), "ms"),
        ("eval.ms", median_of(l, |s| s.eval_ms), "ms"),
        ("materialize.ms", median_of(l, |s| s.materialize_ms), "ms"),
        (
            "cache.fingerprint_ms",
            median_of(l, |s| s.cache_fingerprint_ms),
            "ms",
        ),
        ("cache.hit_ratio", hit_ratio, "ratio"),
        ("cache.misses", median_of(l, |s| s.cache_misses), "count"),
        (
            "catalog.commit_ms",
            median_of(l, |s| s.catalog_commit_ms),
            "ms",
        ),
        ("backend.sql_ms", median_of(l, |s| s.sql_ms), "ms"),
        ("backend.r_ms", median_of(l, |s| s.r_ms), "ms"),
        ("backend.matlab_ms", median_of(l, |s| s.matlab_ms), "ms"),
        ("backend.etl_ms", median_of(l, |s| s.etl_ms), "ms"),
        (
            "dispatch.overhead_ms",
            median_of(l, |s| s.dispatch_overhead_ms),
            "ms",
        ),
        (
            "trace.coverage",
            median_of(l, LayerSample::coverage),
            "ratio",
        ),
        ("trace.overhead_ratio", overhead, "ratio"),
    ]
}

/// Format a finite number as JSON, with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("exl-perfbench: {e}");
            eprintln!(
                "usage: exl-perfbench --workload <vintage|wide|production> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::generate(args.kind, args.seed);
    let out = match measure(&inputs, args.seconds, args.trace) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("exl-perfbench: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // read before the reference runs, which are not part of the workload
    let peak = peak_rss_mb();
    let wrong = match workloads::wrong_ops(&inputs, &out.observed) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("exl-perfbench: reference run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let failed = out.errors + wrong;

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "workload {} seed {} | {} rows loaded | {} ops on {} engines | host_cores {} | profile {}",
        args.kind.name(),
        args.seed,
        inputs.rows(),
        out.attempted,
        out.engines,
        cores,
        profile,
    );
    println!(
        "  ops_failed                    {failed} of {}",
        out.attempted
    );
    let metrics = if args.trace {
        per_layer(&out)
    } else {
        end_to_end(&out, peak)
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<29} {value:.4} {unit}");
    }
    if !args.trace && out.plain.op_ms.len() < 100 {
        println!(
            "  note: op_p90_ms rests on {} ops (fewer than 100)",
            out.plain.op_ms.len()
        );
    }
    if args.trace {
        let coverage = median_of(&out.layers, LayerSample::coverage);
        if coverage < COVERAGE_FLOOR {
            let msg = format!(
                "FLAG trace.coverage {coverage:.3} < {COVERAGE_FLOOR}: {:.0}% of the op wall \
                 time is in no measured layer",
                (1.0 - coverage) * 100.0
            );
            println!("  {msg}");
            eprintln!("exl-perfbench: {} {msg}", args.kind.name());
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        out.attempted,
        failed,
        body.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
