#!/usr/bin/env python3
"""Collect Criterion results into the EXPERIMENTS.md tables.

Reads target/criterion/**/new/estimates.json and prints one markdown table
per benchmark group (B1..B7), using the median point estimate. Benches
that declare Criterion element throughput also get a rows/s column.
Benches that record structured run metrics (via exl-obs) drop a
metrics.json next to their estimates; those spans and counters are
printed as extra tables.

Usage: python3 scripts/collect_bench.py [criterion_dir]
       python3 scripts/collect_bench.py --snapshot [repo_root] [criterion_dir]
       python3 scripts/collect_bench.py --trajectory [repo_root]

With --snapshot, additionally writes BENCH_<group>.json trajectory files
(one per B-series group present, e.g. BENCH_B1.json) into repo_root,
each listing every bench's median ns and rows/s.

With --trajectory, folds every committed revision of BENCH_B*.json
across the git history into one trend table per group: one row per
bench, one column per commit (oldest first, work tree last when it
differs), each cell the median — with rows/s where the bench records
element throughput — so per-tier performance drift is visible at a
glance.
"""
import json
import os
import pathlib
import subprocess
import sys
from collections import defaultdict


def fmt(ns: float) -> str:
    for unit, scale in [("s", 1e9), ("ms", 1e6), ("µs", 1e3)]:
        if ns >= scale:
            return f"{ns / scale:.2f} {unit}"
    return f"{ns:.0f} ns"


def load_groups(root: pathlib.Path):
    """Group -> [(name, median_ns, rows, rows_per_s)] from Criterion output."""
    groups = defaultdict(list)
    for est in sorted(root.glob("**/new/estimates.json")):
        bench_dir = est.parent.parent
        rel = bench_dir.relative_to(root)
        parts = rel.parts
        if not parts:
            continue
        group = parts[0]
        name = "/".join(parts[1:])
        with open(est) as f:
            data = json.load(f)
        median = data["median"]["point_estimate"]
        rows = rows_per_s = None
        bench_meta = est.parent / "benchmark.json"
        if bench_meta.exists():
            with open(bench_meta) as f:
                throughput = json.load(f).get("throughput")
            if throughput and "Elements" in throughput:
                rows = throughput["Elements"]
                rows_per_s = rows / (median / 1e9)
        groups[group].append((name, median, rows, rows_per_s))
    return groups


def main() -> None:
    args = sys.argv[1:]
    snapshot_root = None
    if args and args[0] == "--trajectory":
        trajectory(pathlib.Path(args[1] if len(args) > 1 else "."))
        return
    if args and args[0] == "--snapshot":
        snapshot_root = pathlib.Path(args[1] if len(args) > 1 else ".")
        args = args[2:]
    root = pathlib.Path(args[0] if args else "target/criterion")
    groups = load_groups(root)

    for group in sorted(groups):
        print(f"\n### {group}\n")
        print("| benchmark | median | rows/s |")
        print("|---|---|---|")
        for name, median, _rows, rows_per_s in groups[group]:
            rate = f"{rows_per_s:,.0f}" if rows_per_s is not None else "–"
            print(f"| `{name}` | {fmt(median)} | {rate} |")

    if snapshot_root is not None:
        write_snapshots(snapshot_root, groups)

    print_metrics(root)


def write_snapshots(repo_root: pathlib.Path, groups) -> None:
    """Write one BENCH_<group>.json per B-series group."""
    for group, entries in sorted(groups.items()):
        if not (group.startswith("B") and group[1:].isdigit()):
            continue
        out = {
            "group": group,
            "unit": "ns",
            # medians are only comparable across hosts with the same
            # parallelism — the parallel kernels scale with it
            "host_cores": os.cpu_count(),
            "benches": [
                {
                    "name": name,
                    "median_ns": median,
                    "rows": rows,
                    "rows_per_s": rows_per_s,
                }
                for name, median, rows, rows_per_s in entries
            ],
        }
        path = repo_root / f"BENCH_{group}.json"
        with open(path, "w") as f:
            json.dump(out, f, indent=2)
            f.write("\n")


def git(repo_root: pathlib.Path, *argv: str) -> str:
    return subprocess.run(
        ["git", "-C", str(repo_root), *argv],
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def snapshot_cell(bench: dict) -> str:
    """One trend-table cell: median, plus rows/s when recorded."""
    cell = fmt(bench["median_ns"])
    if bench.get("rows_per_s"):
        cell += f" ({bench['rows_per_s']:,.0f} rows/s)"
    return cell


def trajectory(repo_root: pathlib.Path) -> None:
    """Fold BENCH_B*.json across git history into per-tier trend tables."""
    committed = set(
        git(repo_root, "log", "--all", "--format=", "--name-only", "--diff-filter=A").split()
    )
    # a snapshot that exists only in the work tree (fresh bench, not yet
    # committed) still gets a trajectory column
    in_tree = {p.name for p in repo_root.glob("BENCH_B*.json")}
    names = sorted(committed | in_tree)
    names = [n for n in names if n.startswith("BENCH_B") and n.endswith(".json")]
    if not names:
        print("no BENCH_B*.json in the git history")
        return
    for name in names:
        group = name[len("BENCH_") : -len(".json")]
        # oldest first: each commit that touched this snapshot
        log = git(
            repo_root, "log", "--reverse", "--format=%h %ad", "--date=short", "--", name
        ).splitlines()
        columns = []  # (label, {bench name -> bench dict})
        for line in log:
            sha, date = line.split()
            try:
                text = git(repo_root, "show", f"{sha}:{name}")
            except subprocess.CalledProcessError:
                continue  # the commit deleted the snapshot
            data = json.loads(text)
            columns.append((f"{sha} {date}", {b["name"]: b for b in data["benches"]}))
        work_tree = repo_root / name
        if work_tree.exists():
            with open(work_tree) as f:
                data = json.load(f)
            benches = {b["name"]: b for b in data["benches"]}
            if not columns or columns[-1][1] != benches:
                columns.append(("work tree", benches))
        if not columns:
            continue
        bench_names = sorted({n for _, benches in columns for n in benches})
        print(f"\n### {group} trajectory\n")
        print("| benchmark | " + " | ".join(label for label, _ in columns) + " |")
        print("|---" * (len(columns) + 1) + "|")
        for bn in bench_names:
            cells = [
                snapshot_cell(benches[bn]) if bn in benches else "–"
                for _, benches in columns
            ]
            print(f"| `{bn}` | " + " | ".join(cells) + " |")


def print_metrics(root: pathlib.Path) -> None:
    """Print span/counter tables from exl-obs metrics.json files."""
    for mfile in sorted(root.glob("**/metrics.json")):
        rel = mfile.parent.relative_to(root).as_posix() or mfile.parent.name
        with open(mfile) as f:
            data = json.load(f)
        spans = data.get("spans", {})
        counters = data.get("counters", {})
        histograms = data.get("histograms", {})
        if not spans and not counters and not histograms:
            continue
        print(f"\n### {rel} — recorded metrics\n")
        if spans:
            print("| span | count | total |")
            print("|---|---|---|")
            for name in sorted(spans):
                s = spans[name]
                print(f"| `{name}` | {s['count']} | {fmt(s['total_ns'])} |")
        if counters:
            print("\n| counter | value |")
            print("|---|---|")
            for name in sorted(counters):
                print(f"| `{name}` | {counters[name]} |")
        if histograms:
            print("\n| histogram | count | mean | p50 | p95 | p99 | max |")
            print("|---|---|---|---|---|---|---|")
            for name in sorted(histograms):
                h = histograms[name]
                cells = [qty(h.get(k)) for k in ("mean", "p50", "p95", "p99", "max")]
                print(f"| `{name}` | {h['count']} | " + " | ".join(cells) + " |")


def qty(v) -> str:
    """Render one histogram statistic (a plain number, unit unknown)."""
    if v is None:
        return "–"
    if float(v) == int(v):
        return str(int(v))
    return f"{float(v):.2f}"


if __name__ == "__main__":
    main()
