#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at a tiny size (--smoke, one second),
untraced and traced, and checks that each run exits 0, that its last line is
the JSON result with every output check passed, and that it reports exactly
the metrics BENCHMARK.json names, each with its unit. Run it from the root
of a checkout; the first call builds the benchmark.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in config["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in config["per_layer"]},
    }
    failures = []
    for workload in [w["name"] for w in config["workloads"]]:
        for trace in ("0", "1"):
            cmd = list(config["command"]) + [
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--smoke"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            label = f"{workload} --trace {trace}"
            lines = out.stdout.strip().splitlines()
            problems = []
            if out.returncode != 0:
                problems.append(f"exit code {out.returncode}")
            try:
                result = json.loads(lines[-1]) if lines else None
            except json.JSONDecodeError:
                result = None
            if not isinstance(result, dict):
                problems.append("last line is not a JSON object")
            else:
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                if result.get("correct") is not True or result.get("attempted", 0) < 1:
                    problems.append("output checks did not pass")
                got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
                if got != expected[trace]:
                    missing = sorted(set(expected[trace]) - set(got))
                    extra = sorted(set(got) - set(expected[trace]))
                    wrong = sorted(k for k in got if k in expected[trace]
                                   and got[k] != expected[trace][k])
                    problems.append(f"metrics differ: missing {missing} extra {extra} "
                                    f"wrong unit {wrong}")
            print(f"{label:28s} {'ok' if not problems else 'FAILED: ' + '; '.join(problems)}")
            if problems:
                failures.append(label)
    if failures:
        print(f"{len(failures)} failing run(s)")
        return 1
    print("all workloads print every metric with its unit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
