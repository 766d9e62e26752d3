#!/usr/bin/env python3
"""Self-test of the katric benchmark on tiny inputs.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that
  * an untraced run prints every end_to_end metric and a traced run every
    per_layer metric, each with the unit BENCHMARK.json gives, with
    correct=true and failed=0;
  * two untraced runs with the same seed give bit-identical sim_* values;
  * a run whose oracle is deliberately corrupted reports correct=false,
    counts failures and exits non-zero, so the correctness gate fires.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 3


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return done.returncode, result, done.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []

    def expect(condition, message):
        if not condition:
            problems.append(message)
        print(("ok   " if condition else "FAIL ") + message, flush=True)

    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for trace, table in ((0, "end_to_end"), (0, "end_to_end"), (1, "per_layer")):
            code, result, stdout = run(workload, trace)
            ok = code == 0 and result is not None and result["correct"] \
                and result["failed"] == 0 and result["attempted"] >= 1
            expect(ok, f"{workload} trace={trace}: exit 0, correct, no failures")
            if not ok:
                sys.stderr.write(stdout[-2000:])
                continue
            expect(stdout.startswith("# source: ") and "# machine: nproc=" in stdout
                   and "# input: workload=" in stdout,
                   f"{workload} trace={trace}: machine and input header printed")
            metrics = result["metrics"]
            for metric in spec[table]:
                name = metric["name"]
                expect(name in metrics and metrics[name]["unit"] == metric["unit"],
                       f"{workload} trace={trace}: {name} printed in {metric['unit']}")
            expect(set(metrics) == {m["name"] for m in spec[table]},
                   f"{workload} trace={trace}: no metric outside BENCHMARK.json")
            results.append(metrics)
        if len(results) == 3:
            first, second = results[0], results[1]
            for name in (n for n in first if n.startswith("sim_")):
                expect(first[name]["value"] == second[name]["value"],
                       f"{workload}: {name} bit-identical across two runs")

        code, result, _ = run(workload, 0, "--corrupt-oracle")
        expect(code != 0 and result is not None and not result["correct"]
               and result["failed"] > 0,
               f"{workload}: corrupted oracle fails the run")

    print(f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
