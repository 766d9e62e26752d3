#!/usr/bin/env python3
"""Compare two bench_host results row by row.

    python3 tools/bench/compare.py A.json B.json

A and B are `bench_host --json` outputs or `bench/BENCH_host.json`
snapshots. Every timed row follows one schema:

    {section, mode, n, m, p, ...keys, reps, median_s, iqr_s, min_s, ...scalars}

A row's key is every field before `reps`; the timing fields and the result
scalars after them are what a run measured. Rows with equal keys are paired,
and each pair prints its median ratio B/A. A pair is flagged when B's median
moved from A's by more than A's IQR, the spread A saw between its own reps.
The first row of each file (section "machine") is printed, not compared.

--self-test checks the comparison itself: the committed snapshot compared
with itself flags nothing, and a fixture with exactly one shifted row flags
exactly that row.

Exit codes: 0 compared (flagged rows are reported, not failed), 1 self-test
failure, 2 unreadable input.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SNAPSHOT = REPO_ROOT / "bench" / "BENCH_host.json"


def row_key(row: dict) -> tuple:
    """The fields before `reps`, in schema order."""
    key = []
    for name, value in row.items():
        if name == "reps":
            break
        key.append((name, value))
    return tuple(key)


def key_label(key: tuple) -> str:
    return " ".join(f"{name}={value}" for name, value in key)


def timed_rows(rows: list) -> dict:
    return {row_key(row): row for row in rows if "median_s" in row}


def compare(a_rows: list, b_rows: list) -> tuple[list, list, list]:
    """(pairs, only_a, only_b); a pair is (key, a_row, b_row, ratio, flagged)."""
    a_timed = timed_rows(a_rows)
    b_timed = timed_rows(b_rows)
    pairs = []
    for key, a in a_timed.items():
        b = b_timed.get(key)
        if b is None:
            continue
        ratio = b["median_s"] / a["median_s"] if a["median_s"] > 0 else float("inf")
        flagged = abs(b["median_s"] - a["median_s"]) > a["iqr_s"]
        pairs.append((key, a, b, ratio, flagged))
    only_a = [key for key in a_timed if key not in b_timed]
    only_b = [key for key in b_timed if key not in a_timed]
    return pairs, only_a, only_b


def machine(rows: list) -> str:
    for row in rows:
        if row.get("section") == "machine":
            return " ".join(f"{k}={v}" for k, v in row.items() if k != "section")
    return "(no machine row)"


def report(a_rows: list, b_rows: list) -> None:
    pairs, only_a, only_b = compare(a_rows, b_rows)
    print(f"A: {machine(a_rows)}")
    print(f"B: {machine(b_rows)}")
    print(f"{'B/A':>7}  {'A median (ms)':>13}  {'A IQR (ms)':>10}  "
          f"{'B median (ms)':>13}  row")
    for key, a, b, ratio, flagged in pairs:
        mark = "  <-- moved more than A's IQR" if flagged else ""
        print(f"{ratio:7.3f}  {a['median_s'] * 1e3:13.3f}  {a['iqr_s'] * 1e3:10.3f}  "
              f"{b['median_s'] * 1e3:13.3f}  {key_label(key)}{mark}")
    for key in only_a:
        print(f"only in A: {key_label(key)}")
    for key in only_b:
        print(f"only in B: {key_label(key)}")
    flagged = sum(1 for pair in pairs if pair[4])
    print(f"{flagged} of {len(pairs)} rows moved by more than A's IQR")


def flagged_keys(a_rows: list, b_rows: list) -> list:
    return [pair[0] for pair in compare(a_rows, b_rows)[0] if pair[4]]


def self_test() -> int:
    failures = []
    snapshot = json.loads(SNAPSHOT.read_text())
    pairs, only_a, only_b = compare(snapshot, snapshot)
    if not pairs or only_a or only_b:
        failures.append(f"snapshot vs itself paired {len(pairs)} rows, "
                        f"{len(only_a)}/{len(only_b)} unpaired")
    if flagged_keys(snapshot, snapshot):
        failures.append("snapshot vs itself flagged rows")

    # Three rows; in B one moves by 2 IQRs and one by half an IQR (noise).
    base = {"section": "serving", "mode": "workers", "n": 1024, "m": 8000, "p": 16}
    fixture_a = [{"section": "machine", "nproc": 4}]
    for workers in (1, 2, 4):
        fixture_a.append({**base, "workers": workers, "reps": 5, "median_s": 0.1,
                          "iqr_s": 0.01, "min_s": 0.09, "throughput_qps": 100.0})
    fixture_b = copy.deepcopy(fixture_a)
    fixture_b[2]["median_s"] += 0.02
    fixture_b[3]["median_s"] -= 0.005
    fixture_b[3]["throughput_qps"] = 120.0  # a result scalar, not part of the key
    got = flagged_keys(fixture_a, fixture_b)
    if got != [row_key(fixture_a[2])]:
        failures.append(f"fixture flagged {[key_label(k) for k in got]}, "
                        f"expected only workers=2")

    for failure in failures:
        print(f"self-test FAIL: {failure}")
    if failures:
        return 1
    print("self-test: snapshot vs itself and the shifted-row fixture passed")
    return 0


def load(path: str) -> list:
    try:
        rows = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"compare: cannot read {path}: {error}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(rows, list):
        print(f"compare: {path} is not a JSON array of rows", file=sys.stderr)
        sys.exit(2)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", nargs="?", help="baseline run (bench_host --json)")
    parser.add_argument("b", nargs="?", help="run compared against the baseline")
    parser.add_argument("--self-test", action="store_true",
                        help="check the comparison on the snapshot and a fixture")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.a is None or args.b is None:
        parser.error("need A.json and B.json (or --self-test)")
    report(load(args.a), load(args.b))
    return 0


if __name__ == "__main__":
    sys.exit(main())
