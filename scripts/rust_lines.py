#!/usr/bin/env python3
"""Per-crate Rust line counts, split into non-test and test lines.

Usage: scripts/rust_lines.py [<git-rev>]

Counts every `.rs` file under `crates/`, `tests/`, `examples/` and
`perfbench/` in the working tree (files ignored by git are skipped).
With a git revision, also counts that revision's files and prints the
difference per crate (working tree minus revision).

Counting rule: a line counts as test when its file lies under a `tests/`
or `benches/` directory, is a `tests.rs` module file, or follows the
file's first `#[cfg(test)]` attribute (the in-file test tail). Every
other line is non-test. Lines are physical lines, as `wc -l` counts
them.
"""

import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOTS = ("crates/", "tests/", "examples/", "perfbench/")
CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]")


def group_of(path):
    """The crate (or top-level package) a file belongs to."""
    parts = path.split("/")
    if parts[0] == "crates":
        return parts[1]
    return {"tests": "integration tests"}.get(parts[0], parts[0])


def is_test_file(path):
    parts = path.split("/")
    return "tests" in parts[1:-1] or "benches" in parts[1:-1] or parts[-1] == "tests.rs"


def split_lines(path, text):
    """(non-test, test) line counts of one file."""
    lines = text.splitlines()
    if is_test_file(path):
        return 0, len(lines)
    for i, line in enumerate(lines):
        if CFG_TEST.match(line):
            return i, len(lines) - i
    return len(lines), 0


def git(*args):
    return subprocess.run(
        ["git", *args], check=True, capture_output=True, text=True
    ).stdout


def rust_paths(listing):
    return [p for p in listing.splitlines() if p.endswith(".rs") and p.startswith(ROOTS)]


def count(files):
    """{group: [non-test, test]} over (path, text) pairs."""
    totals = defaultdict(lambda: [0, 0])
    for path, text in files:
        non_test, test = split_lines(path, text)
        totals[group_of(path)][0] += non_test
        totals[group_of(path)][1] += test
    return totals


def worktree_files():
    listing = git("ls-files", "--cached", "--others", "--exclude-standard")
    for path in rust_paths(listing):
        if Path(path).is_file():
            yield path, Path(path).read_text(encoding="utf-8", errors="replace")


def revision_files(rev):
    for path in rust_paths(git("ls-tree", "-r", "--name-only", rev)):
        yield path, git("show", f"{rev}:{path}")


def signed(n):
    return f"{n:+d}" if n else "0"


def main(argv):
    if len(argv) > 2 or (len(argv) == 2 and argv[1] in ("-h", "--help")):
        print(__doc__.strip())
        return 2
    os.chdir(git("rev-parse", "--show-toplevel").strip())
    now = count(worktree_files())
    rev = argv[1] if len(argv) == 2 else None
    before = count(revision_files(rev)) if rev else None
    groups = sorted(set(now) | set(before or {}))

    header = f"{'crate':<20} {'non-test':>9} {'test':>7}"
    if rev:
        header += f" {'Δ non-test':>11} {'Δ test':>8}"
    print(header)
    for g in groups:
        n, t = now.get(g, [0, 0])
        row = f"{g:<20} {n:>9} {t:>7}"
        if rev:
            bn, bt = before.get(g, [0, 0])
            row += f" {signed(n - bn):>11} {signed(t - bt):>8}"
        print(row)

    def total(counts, which, crates_only):
        return sum(
            v[which]
            for g, v in counts.items()
            if not crates_only or Path("crates", g).is_dir()
        )

    for label, crates_only in (("crates/", True), ("all", False)):
        n, t = total(now, 0, crates_only), total(now, 1, crates_only)
        row = f"{'total ' + label:<20} {n:>9} {t:>7}"
        if rev:
            bn, bt = total(before, 0, crates_only), total(before, 1, crates_only)
            row += f" {signed(n - bn):>11} {signed(t - bt):>8}"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
