//! The run ledger and the perf-regression sentinel.
//!
//! **Ledger**: with a ledger directory armed
//! ([`crate::ExlEngine::set_ledger_dir`], `exlc --ledger-dir`), every run
//! — successful, degraded, or failed — appends one JSON line to
//! `<dir>/ledger.jsonl`: program and input fingerprints, wall time,
//! throughput, cache counts, and one entry per subgraph statement group
//! with its own wall time. Appends are line-atomic (`O_APPEND`, one
//! `write` per record), so concurrent engines can share a ledger.
//!
//! **Sentinel**: `exlc perf <dir>` replays the ledger, groups computed
//! statement timings by `(program fingerprint, statement key)`, and
//! compares the latest sample against the median of its history. A
//! latest/median ratio at or beyond [`SentinelConfig::threshold`] is a
//! regression, signalled to CI via a non-zero exit code. Only statements
//! that actually executed (`computed`) are compared — cached and failed
//! statements would make cold-vs-warm runs look like regressions. See
//! docs/OBSERVABILITY.md for the record schema and threshold guidance.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use exl_model::fingerprint::Fingerprint;

use crate::cache::CacheStats;
use crate::engine::{RunObservation, RunReport};
use crate::error::EngineError;
use crate::govern::Governor;

/// Schema version stamped into every record (`version` field).
pub const LEDGER_VERSION: &str = "exl-ledger-v1";

/// One run's ledger record — one JSON line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LedgerRecord {
    /// Always [`LEDGER_VERSION`].
    pub version: String,
    /// Wall-clock append time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Program fingerprint (32-char hex): baselines group by it, so a
    /// program edit starts a fresh baseline instead of a false alarm.
    pub program: String,
    /// Inputs fingerprint (32-char hex) — changed cube ids + contents.
    pub inputs: String,
    /// `ok`, `degraded` (keep_going run with failed cubes), or the
    /// failing [`EngineError::kind`].
    pub status: String,
    /// End-to-end wall time of the run, milliseconds.
    pub wall_ms: f64,
    /// Total rows produced across all subgraphs.
    pub rows_out: u64,
    /// Throughput: `rows_out` over the run's wall time.
    pub rows_per_s: f64,
    /// Peak accounted memory during the run, bytes (0 when nothing was
    /// charged against the budget).
    pub mem_peak_bytes: u64,
    /// Run-cache activity (statement hits/deltas/misses and I/O health).
    pub cache: CacheStats,
    /// Per-statement-group timings, in dispatch order.
    pub statements: Vec<LedgerStatement>,
}

/// One subgraph statement group within a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LedgerStatement {
    /// Comma-joined cube ids the group computes — the sentinel's
    /// grouping key together with the program fingerprint.
    pub key: String,
    /// Target that executed it.
    pub target: String,
    /// [`SubgraphStatus::name`](crate::SubgraphStatus::name).
    pub status: String,
    /// Wall-clock milliseconds (cache resolution included).
    pub wall_ms: f64,
    /// Rows produced.
    pub rows_out: u64,
    /// Statements resolved by exact cache hit.
    pub cache_hits: u64,
    /// Statements resolved by delta re-evaluation.
    pub cache_delta: u64,
    /// Statements executed in full.
    pub cache_misses: u64,
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl LedgerRecord {
    /// Build one run's record from what the engine observed.
    pub(crate) fn of_run(
        program: Fingerprint,
        inputs: Fingerprint,
        result: &Result<RunReport, EngineError>,
        obs: &RunObservation,
        governor: &Governor,
        wall: std::time::Duration,
    ) -> LedgerRecord {
        let status = match result {
            Ok(r) if r.failed.is_empty() => "ok".to_string(),
            Ok(_) => "degraded".to_string(),
            Err(e) => e.kind().to_string(),
        };
        let statements: Vec<LedgerStatement> = obs
            .subgraphs
            .iter()
            .map(|r| LedgerStatement {
                key: r
                    .cubes
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
                target: r.target.name().to_string(),
                status: r.status.name().to_string(),
                wall_ms: r.wall_nanos as f64 / 1e6,
                rows_out: r.rows_out,
                cache_hits: r.cache.hits,
                cache_delta: r.cache.delta_hits,
                cache_misses: r.cache.misses,
            })
            .collect();
        let rows_out: u64 = obs.subgraphs.iter().map(|r| r.rows_out).sum();
        let wall_ms = wall.as_secs_f64() * 1e3;
        let rows_per_s = if wall.as_secs_f64() > 0.0 {
            rows_out as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        let cache = match result {
            Ok(r) => r.cache,
            // an aborted run returned no report: reconstruct the
            // statement-level counts from the per-subgraph observations
            Err(_) => {
                let mut c = CacheStats::default();
                for r in &obs.subgraphs {
                    c.hits += r.cache.hits;
                    c.delta_hits += r.cache.delta_hits;
                    c.misses += r.cache.misses;
                }
                c
            }
        };
        LedgerRecord {
            version: LEDGER_VERSION.to_string(),
            unix_ms: unix_ms(),
            program: program.to_string(),
            inputs: inputs.to_string(),
            status,
            wall_ms,
            rows_out,
            rows_per_s,
            mem_peak_bytes: governor.budget().mem_peak_bytes(),
            cache,
            statements,
        }
    }
}

/// The ledger file inside a ledger directory.
pub fn ledger_path(dir: &Path) -> PathBuf {
    dir.join("ledger.jsonl")
}

/// Append one record to `<dir>/ledger.jsonl` (created on first use).
pub fn append(dir: &Path, record: &LedgerRecord) -> Result<(), EngineError> {
    let path = ledger_path(dir);
    let line = serde_json::to_string(record)
        .map_err(|e| EngineError::Persistence(format!("cannot serialize ledger record: {e}")))?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| {
            EngineError::Persistence(format!("cannot open ledger {}: {e}", path.display()))
        })?;
    // one write call per line: O_APPEND keeps concurrent appenders from
    // interleaving within a record
    file.write_all(format!("{line}\n").as_bytes()).map_err(|e| {
        EngineError::Persistence(format!("cannot append to ledger {}: {e}", path.display()))
    })
}

/// Read a ledger back, oldest record first. Unparsable or
/// version-mismatched lines are skipped, not fatal — a ledger survives
/// schema evolution and torn concurrent writes; the skip count is
/// returned so callers can report it. A missing file is an empty ledger.
pub fn read_ledger(dir: &Path) -> Result<(Vec<LedgerRecord>, usize), EngineError> {
    let path = ledger_path(dir);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => {
            return Err(EngineError::Persistence(format!(
                "cannot read ledger {}: {e}",
                path.display()
            )))
        }
    };
    let mut records = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<LedgerRecord>(line) {
            Ok(r) if r.version == LEDGER_VERSION => records.push(r),
            _ => skipped += 1,
        }
    }
    Ok((records, skipped))
}

/// Sentinel tuning.
#[derive(Debug, Clone)]
pub struct SentinelConfig {
    /// Latest/median ratio at or beyond which a statement counts as
    /// regressed.
    pub threshold: f64,
    /// Minimum history samples (the latest excluded) before a statement
    /// is judged at all — young ledgers stay quiet.
    pub min_runs: usize,
}

impl Default for SentinelConfig {
    fn default() -> SentinelConfig {
        SentinelConfig {
            threshold: 1.5,
            min_runs: 3,
        }
    }
}

/// One statement group's baseline, as computed by [`analyze`].
#[derive(Debug, Clone)]
pub struct Baseline {
    /// Program fingerprint the group belongs to.
    pub program: String,
    /// Statement key (comma-joined cube ids).
    pub statement: String,
    /// History samples behind the baseline (latest excluded).
    pub history_runs: usize,
    /// Median wall time of the history, milliseconds.
    pub median_ms: f64,
    /// 95th-percentile wall time of the history, milliseconds.
    pub p95_ms: f64,
    /// The latest sample, milliseconds.
    pub latest_ms: f64,
    /// latest / median (0 when the history is empty or all-zero).
    pub ratio: f64,
    /// Whether the latest sample breaches the threshold (only ever true
    /// with at least [`SentinelConfig::min_runs`] history samples).
    pub regressed: bool,
    /// True when the statement key no longer appears in the program's
    /// most recent record: the plan compiler fused it away (or the
    /// program's partitioning changed), so its "latest" sample is stale
    /// history, not a fresh measurement. Retired groups are never
    /// regressions.
    pub retired: bool,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Compute per-(program, statement) baselines over a ledger and judge
/// the latest sample of each against its history. Only `computed`
/// statements participate; records are consumed in file order, so the
/// last sample of each group is "latest".
pub fn analyze(records: &[LedgerRecord], config: &SentinelConfig) -> Vec<Baseline> {
    let mut groups: std::collections::BTreeMap<(String, String), Vec<f64>> =
        std::collections::BTreeMap::new();
    // keys present in each program's most recent record, whatever their
    // status: a key missing here was not dispatched at all in the latest
    // run — typically fused away by plan compilation — and its group is
    // retired rather than judged against stale samples
    let mut live_keys: std::collections::BTreeMap<String, std::collections::BTreeSet<String>> =
        std::collections::BTreeMap::new();
    for record in records {
        let keys = live_keys.entry(record.program.clone()).or_default();
        keys.clear();
        keys.extend(record.statements.iter().map(|s| s.key.clone()));
        for stmt in &record.statements {
            if stmt.status == "computed" {
                groups
                    .entry((record.program.clone(), stmt.key.clone()))
                    .or_default()
                    .push(stmt.wall_ms);
            }
        }
    }
    groups
        .into_iter()
        .map(|((program, statement), samples)| {
            let retired = !live_keys
                .get(&program)
                .is_some_and(|keys| keys.contains(&statement));
            let (history, latest) = match samples.split_last() {
                Some((latest, history)) => (history.to_vec(), *latest),
                None => (Vec::new(), 0.0),
            };
            let mut sorted = history.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let median_ms = median(&sorted);
            let p95_ms = percentile(&sorted, 0.95);
            let ratio = if median_ms > 0.0 {
                latest / median_ms
            } else {
                0.0
            };
            Baseline {
                program,
                statement,
                history_runs: history.len(),
                median_ms,
                p95_ms,
                latest_ms: latest,
                ratio,
                regressed: !retired
                    && history.len() >= config.min_runs
                    && median_ms > 0.0
                    && ratio >= config.threshold,
                retired,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(program: &str, key: &str, wall_ms: f64) -> LedgerRecord {
        LedgerRecord {
            version: LEDGER_VERSION.to_string(),
            unix_ms: 0,
            program: program.to_string(),
            inputs: "i".to_string(),
            status: "ok".to_string(),
            wall_ms,
            rows_out: 100,
            rows_per_s: 1000.0,
            mem_peak_bytes: 0,
            cache: CacheStats::default(),
            statements: vec![LedgerStatement {
                key: key.to_string(),
                target: "native".to_string(),
                status: "computed".to_string(),
                wall_ms,
                rows_out: 100,
                cache_hits: 0,
                cache_delta: 0,
                cache_misses: 1,
            }],
        }
    }

    #[test]
    fn sentinel_flags_a_planted_regression() {
        let mut records: Vec<LedgerRecord> = (0..5).map(|_| record("p", "GDP", 10.0)).collect();
        records.push(record("p", "GDP", 25.0)); // 2.5x the median
        let baselines = analyze(&records, &SentinelConfig::default());
        assert_eq!(baselines.len(), 1);
        let b = &baselines[0];
        assert_eq!(b.history_runs, 5);
        assert!((b.median_ms - 10.0).abs() < 1e-9);
        assert!((b.ratio - 2.5).abs() < 1e-9);
        assert!(b.regressed);
    }

    #[test]
    fn young_ledgers_never_alarm() {
        let mut records = vec![record("p", "GDP", 10.0), record("p", "GDP", 10.0)];
        records.push(record("p", "GDP", 100.0));
        let baselines = analyze(&records, &SentinelConfig::default());
        assert!(!baselines[0].regressed, "{baselines:?}");
        assert_eq!(baselines[0].history_runs, 2);
    }

    #[test]
    fn cached_statements_do_not_feed_baselines() {
        let mut fast = record("p", "GDP", 0.01);
        fast.statements[0].status = "cached".to_string();
        let records = vec![
            record("p", "GDP", 10.0),
            record("p", "GDP", 10.0),
            record("p", "GDP", 10.0),
            fast,
            record("p", "GDP", 11.0),
        ];
        let baselines = analyze(&records, &SentinelConfig::default());
        // the cached run contributed nothing: 3 history + 1 latest
        assert_eq!(baselines[0].history_runs, 3);
        assert!(!baselines[0].regressed);
    }

    #[test]
    fn a_program_edit_starts_a_fresh_baseline() {
        let mut records: Vec<LedgerRecord> = (0..4).map(|_| record("p1", "GDP", 10.0)).collect();
        records.push(record("p2", "GDP", 100.0)); // new program: no alarm
        let baselines = analyze(&records, &SentinelConfig::default());
        assert_eq!(baselines.len(), 2);
        assert!(baselines.iter().all(|b| !b.regressed));
    }

    #[test]
    fn fused_away_statements_retire_instead_of_regressing() {
        // four runs time both keys, then plan compilation fuses B away:
        // the fifth record only carries A. B's "latest" sample is stale
        // history — it must be retired, never judged as a regression
        let two_keys = |wall_a: f64, wall_b: f64| {
            let mut r = record("p", "A", wall_a);
            let mut b = record("p", "B", wall_b).statements.remove(0);
            b.wall_ms = wall_b;
            r.statements.push(b);
            r
        };
        let mut records: Vec<LedgerRecord> = (0..4).map(|_| two_keys(10.0, 10.0)).collect();
        records.push(record("p", "A", 10.0)); // B fused away
        let baselines = analyze(&records, &SentinelConfig::default());
        let a = baselines.iter().find(|b| b.statement == "A").unwrap();
        let b = baselines.iter().find(|b| b.statement == "B").unwrap();
        assert!(!a.retired);
        assert!(!a.regressed);
        assert!(b.retired, "fused-away key must retire");
        assert!(!b.regressed, "retired keys are never regressions");
        // even a wildly slow stale sample stays quiet once retired
        let mut records: Vec<LedgerRecord> = (0..4).map(|_| two_keys(10.0, 10.0)).collect();
        records.push(two_keys(10.0, 100.0));
        records.push(record("p", "A", 10.0));
        let baselines = analyze(&records, &SentinelConfig::default());
        let b = baselines.iter().find(|b| b.statement == "B").unwrap();
        assert!(b.retired && !b.regressed, "{b:?}");
    }

    #[test]
    fn append_and_read_round_trip_skipping_junk() {
        let dir = std::env::temp_dir().join(format!("exl-ledger-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        append(&dir, &record("p", "GDP", 10.0)).unwrap();
        append(&dir, &record("p", "GDP", 12.0)).unwrap();
        // a torn line and a stale version must be skipped, not fatal
        let mut junk = String::from("{\"version\":\"exl-ledger-v0\"}\nnot json\n");
        junk.push_str(&std::fs::read_to_string(ledger_path(&dir)).unwrap());
        std::fs::write(ledger_path(&dir), junk).unwrap();
        let (records, skipped) = read_ledger(&dir).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(skipped, 2);
        assert!((records[1].wall_ms - 12.0).abs() < 1e-9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_ledger_reads_empty() {
        let dir = std::env::temp_dir().join(format!("exl-ledger-none-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (records, skipped) = read_ledger(&dir).unwrap();
        assert!(records.is_empty());
        assert_eq!(skipped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
