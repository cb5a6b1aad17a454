#!/usr/bin/env bash
# Full quality gate: formatting, lints, docs, tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== tier-1 =="
cargo build --release && cargo test -q

echo "== tier-1 determinism =="
# the run-scoped fault plans and crash bundles must hold under the
# default parallel test runner, not just on a lucky run: repeat the two
# binaries that share fault sites across concurrent tests
for i in $(seq 1 10); do
    cargo test -q -p exl-engine --lib > /dev/null
    cargo test -q -p exl-integration-tests --test crash_bundle > /dev/null
done
echo "tier-1 determinism: 10/10"

echo "== benchmark build + smoke =="
# perfbench/ is its own workspace compiled against the engine crates'
# public surface; build it and run each workload briefly. A run exits
# non-zero when any op's output check fails (or an op errors).
cargo build --release --offline --manifest-path perfbench/Cargo.toml
for workload in vintage wide production; do
    perfbench/target/release/exl-perfbench \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 > /dev/null
    echo "perfbench $workload: ok"
done

echo "== fold-then-merge determinism =="
# partitioned aggregation over mergeable states must be bit-identical to
# the single-threaded fold for every AggFn and any partition count
cargo test -q -p exl-integration-tests --test interned_differential \
    fold_then_merge_is_bit_identical_for_any_partition_count

echo "== incremental differential (fixed-seed matrix) =="
# cold≡warm over the full fixed-seed corpus: 100 random program/delta
# pairs plus disk-reload and forest 1-cube-delta skip-ratio checks,
# compared bit for bit against cache-free engines
cargo test -q -p exl-integration-tests --test incremental_differential

echo "== fusion differential (fixed-seed matrix) =="
# fused ≡ unfused bitwise over 120 random programs (+ the interned chase
# within 1e-9 on a quarter of them), deep-chain shapes, and warm-cache
# delta runs split at the dirty frontier
cargo test -q -p exl-integration-tests --test fusion_differential

echo "== traced run =="
# one end-to-end exlc run with tracing + progress on; the emitted Chrome
# trace JSON must parse, be rooted, and hold one subgraph span (with
# cube/target/status attrs) per subgraph the progress stream reported
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cat > "$tmp/prog.exl" <<'EOF'
cube A(q: time[quarter]) -> y;
B := 2 * A;
C := cumsum(B);
EOF
cat > "$tmp/data.json" <<'EOF'
{ "A": [ [[{"Time": {"Quarter": {"year": 2020, "quarter": 1}}}], 1.5],
         [[{"Time": {"Quarter": {"year": 2020, "quarter": 2}}}], 2.5] ] }
EOF
cargo run -q --release -p exl-engine --bin exlc -- \
    --trace "$tmp/trace.json" --progress --metrics "$tmp/metrics.json" \
    run "$tmp/prog.exl" "$tmp/data.json" > "$tmp/out.json" 2> "$tmp/progress.txt"
python3 - "$tmp/trace.json" "$tmp/progress.txt" <<'PY'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
subs = [e for e in events if e["name"] == "subgraph"]
assert subs, "no subgraph spans in trace"
for s in subs:
    for key in ("cubes", "target", "status"):
        assert key in s["args"], f"subgraph span missing {key}: {s}"
assert any(e["name"] == "run" and "parent_id" not in e["args"] for e in events), \
    "no rooted run span"
progress = [l for l in open(sys.argv[2])
            if "computed" in l or "failed" in l or "skipped" in l]
assert len(subs) >= len(progress) >= 1, (len(subs), len(progress))
print(f"trace ok: {len(subs)} subgraph span(s), {len(progress)} progress line(s)")
PY
# one span vocabulary: every span the metrics registry totals is a span
# of the trace, and the run's layers appear in both
python3 - "$tmp/trace.json" "$tmp/metrics.json" <<'PY'
import json, sys
traced = {e["name"] for e in json.load(open(sys.argv[1]))["traceEvents"] if e["ph"] == "X"}
spans = set(json.load(open(sys.argv[2]))["spans"])
assert spans <= traced, f"metric spans missing from the trace: {sorted(spans - traced)}"
for name in ("run", "plan", "attempt", "execute.native"):
    assert name in traced and name in spans, f"{name} not in both trace and metrics"
print(f"span vocabulary ok: {len(spans)} span name(s)")
PY

echo "== observability =="
# chaos-injected exlc run: the crash bundle must appear, parse, and
# match the documented exl-bundle-v1 shape (docs/OBSERVABILITY.md); a
# clean run over the same directory must add nothing. Then a two-run
# ledger feeds `exlc perf`, which must exit clean on healthy history.
cargo run -q --release -p exl-engine --bin exlc -- \
    --bundle-dir "$tmp/bundles" --inject-fault exec.native:1:panic \
    run "$tmp/prog.exl" "$tmp/data.json" > /dev/null 2> "$tmp/chaos.txt" \
    && { echo "chaos run unexpectedly succeeded"; exit 1; } || true
grep -q "crash bundle written to" "$tmp/chaos.txt"
python3 - "$tmp/bundles" <<'PY'
import json, pathlib, sys
bundles = list(pathlib.Path(sys.argv[1]).glob("bundle-*.json"))
assert len(bundles) == 1, f"expected one crash bundle, got {bundles}"
b = json.load(open(bundles[0]))
assert b["version"] == "exl-bundle-v1", b["version"]
# the documented top-level schema, in full
for key in ("version", "unix_ms", "error", "failing_subgraph", "subgraphs",
            "fault_sites", "events", "metrics", "govern", "env"):
    assert key in b, f"bundle missing {key}"
assert b["error"]["kind"] == "panic", b["error"]
assert b["fault_sites"] == ["exec.native"], b["fault_sites"]
failing = b["failing_subgraph"]
assert failing and failing["status"] == "failed" and failing["cubes"], failing
for key in ("cancelled", "mem_peak_bytes", "deadline_ms"):
    assert key in b["govern"], f"govern missing {key}"
kinds = {e["kind"] for e in b["events"]}
assert "panic.caught" in kinds and "fault.fired" in kinds, kinds
print(f"crash bundle ok: {bundles[0].name}, {len(b['events'])} event(s)")
PY
for i in 1 2; do
    cargo run -q --release -p exl-engine --bin exlc -- \
        --bundle-dir "$tmp/bundles" --ledger-dir "$tmp/ledger" \
        run "$tmp/prog.exl" "$tmp/data.json" > /dev/null
done
[ "$(ls "$tmp/bundles" | wc -l)" -eq 1 ] || {
    echo "successful runs wrote crash bundles"; exit 1; }
[ "$(wc -l < "$tmp/ledger/ledger.jsonl")" -eq 2 ] || {
    echo "expected a two-run ledger"; exit 1; }
cargo run -q --release -p exl-engine --bin exlc -- perf "$tmp/ledger" --min-runs 1
echo "observability gate ok"

echo "== chaos =="
scripts/chaos.sh 0 1 2 3
scripts/chaos.sh --storm 12

echo "== examples =="
for ex in quickstart multi_target production_pipeline data_exchange seasonal_adjustment; do
    cargo run -q -p exl-examples --example "$ex" > /dev/null
    echo "example $ex: ok"
done

echo "all checks passed"
