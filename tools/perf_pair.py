#!/usr/bin/env python3
"""Paired benchmark runs of a base revision against this checkout.

    python3 tools/perf_pair.py BASE_REF --seeds A-B [--workloads W ...] --out FILE
        [--scratch DIR] [--change TEXT] [--claim WORKLOAD:METRIC:RATIO]
        [--traced-pairs N]

Exports BASE_REF with `git archive` into a scratch directory named after its
commit, then runs BENCHMARK.json's command, for every workload and every
seed in A..B,

    python3 perfbench/run.py --workload W --seed S --seconds <run_seconds> --trace 0

once in each tree's root, so each side builds its own perfbench into its own
.bench_build/ (on its first run) and runs it. The run length is
BENCHMARK.json's `run_seconds`. The base runs first on the 1st, 3rd, ...
seed and the change first on the others, so a drift of the host over the
session falls on both sides alike. `--traced-pairs N` adds N alternating
pairs of `--trace 1` runs of the first workload at seed 7, for the
per-layer figures.

FILE gets every run's end-to-end metrics, exit codes, attempted and failed
operation counts and digest, whether the two sides' digests agree on each
seed, and per metric the medians and quartiles of both sides, how many pairs
the change won and the base's IQR. `--claim` states a bar (the change's
median at least RATIO times the base's, or at most 1/RATIO for a metric where
lower is better, winning at least 9 pairs in 10, with the medians further
apart than the base's IQR) and records whether the runs meet it.

The exit code is 1 when a run fails (a non-zero exit or no result line) or
when the two sides' digests differ on a seed. Run it from any directory of
the checkout; a base tree already exported under --scratch for the same
commit is reused, build included.
"""
import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUARTILES = "statistics.quantiles(values, n=4, method='inclusive')"
TRACED_SEED = 7


def log(text):
    print(text, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export_base(sha, scratch):
    tree = os.path.join(scratch, sha)
    if not os.path.isdir(os.path.join(tree, "perfbench")):
        os.makedirs(tree, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"perf_pair: git archive {sha} failed")
    return tree


def run(config, tree, workload, seed, trace):
    cmd = list(config["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    lines = out.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    digest = next((line.strip()[2:] for line in lines
                   if line.strip().startswith("# digest")), None)
    return {"exit": out.returncode, "result": result, "digest": digest}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(values):
    q1, q3 = quartiles(values)
    return {"runs": [round(v, 6) for v in values], "median": round(statistics.median(values), 6),
            "q1": round(q1, 6), "q3": round(q3, 6)}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        sys.exit(f"perf_pair: empty seed range {text}")
    return list(range(lo, hi + 1))


def host_description():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{model}, nproc {os.cpu_count()}, {platform.system()} {platform.release()}"


def pair_workload(config, trees, workload, seeds):
    """Alternating untraced pairs of one workload; returns its record and
    whether every run passed and every seed's digests agreed."""
    record = {"seeds": seeds, "exit_codes": {"parent": [], "change": []},
              "attempted": {"parent": [], "change": []},
              "failed": {"parent": [], "change": []},
              "digests": {"parent": [], "change": []}}
    values = {m["name"]: {"parent": [], "change": []} for m in config["end_to_end"]}
    ok = True
    digests_equal = True
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        runs = {}
        for side in order:
            runs[side] = run(config, trees[side], workload, seed, trace=False)
            r = runs[side]
            res = r["result"] or {}
            tput = res.get("metrics", {}).get("throughput_per_s", {}).get("value")
            log(f"  {workload} seed {seed} {side}: exit {r['exit']} "
                f"throughput {tput} {r['digest'] or ''}")
        for side in ("parent", "change"):
            r = runs[side]
            res = r["result"]
            record["exit_codes"][side].append(r["exit"])
            record["digests"][side].append(r["digest"])
            if r["exit"] != 0 or res is None:
                ok = False
            res = res or {}
            record["attempted"][side].append(res.get("attempted"))
            record["failed"][side].append(res.get("failed"))
            for name in values:
                metric = res.get("metrics", {}).get(name, {})
                values[name][side].append(metric.get("value", math.nan))
        if runs["parent"]["digest"] != runs["change"]["digest"]:
            digests_equal = False
    record["metrics"] = {}
    for m in config["end_to_end"]:
        name = m["name"]
        parent, change = values[name]["parent"], values[name]["change"]
        higher = m["better"] == "higher"
        wins = sum(1 for p, c in zip(parent, change) if (c > p if higher else c < p))
        p_sum, c_sum = summarize(parent), summarize(change)
        record["metrics"][name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": p_sum, "change": c_sum, "change_wins": wins, "pairs": len(seeds),
            "change_over_parent": round(c_sum["median"] / p_sum["median"], 4)
            if p_sum["median"] else None,
            "parent_iqr_frac": round((p_sum["q3"] - p_sum["q1"]) / p_sum["median"], 4)
            if p_sum["median"] else None,
        }
    record["digest_equal_per_seed"] = digests_equal
    return record, ok and digests_equal


def traced_pairs(config, trees, workload, pairs):
    names = [m["name"] for m in config["per_layer"]]
    order = []
    for i in range(pairs):
        order += ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
    runs, ok = [], True
    count = {"parent": 0, "change": 0}
    for side in order:
        r = run(config, trees[side], workload, TRACED_SEED, trace=True)
        count[side] += 1
        metrics = (r["result"] or {}).get("metrics", {})
        ok = ok and r["exit"] == 0 and r["result"] is not None
        runs.append({"side": side, "run": count[side], "exit": r["exit"], "digest": r["digest"],
                     "metrics": {n: round(metrics[n]["value"], 6)
                                 for n in names if n in metrics}})
        log(f"  traced {workload} seed {TRACED_SEED} {side}: exit {r['exit']} {r['digest'] or ''}")
    medians = {}
    for side in ("parent", "change"):
        medians[side] = {n: round(statistics.median(r["metrics"][n] for r in runs
                                                    if r["side"] == side), 6)
                         for n in names if all(n in r["metrics"] for r in runs)}
    return {"workload": workload, "seed": TRACED_SEED,
            "command": " ".join(config["command"]) + f" --workload {workload} --seed "
                       f"{TRACED_SEED} --seconds {config['run_seconds']} --trace 1",
            "order": ", ".join(order), "runs": runs, "medians": medians}, ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_ref")
    parser.add_argument("--seeds", required=True, help="inclusive range A-B")
    parser.add_argument("--workloads", nargs="+", help="default: every BENCHMARK.json workload")
    parser.add_argument("--out", required=True)
    parser.add_argument("--scratch", help="where the base tree goes (default: a new temp dir)")
    parser.add_argument("--change", default="", help="one line naming the change")
    parser.add_argument("--claim", help="WORKLOAD:METRIC:RATIO")
    parser.add_argument("--traced-pairs", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    workloads = args.workloads or [w["name"] for w in config["workloads"]]
    seeds = parse_seeds(args.seeds)
    parent_sha = git("rev-parse", args.base_ref + "^{commit}")

    scratch = args.scratch or tempfile.mkdtemp(prefix="perf_pair_")
    base_tree = export_base(parent_sha, scratch)
    log(f"perf_pair: base {parent_sha} in {base_tree}")
    trees = {"parent": base_tree, "change": ROOT}

    report = {
        "change": args.change, "parent": parent_sha, "host": host_description(),
        "command": " ".join(config["command"]) + " --workload <W> --seed <S> --seconds "
                   f"{config['run_seconds']} --trace 0, run in each tree's root",
        "build": "each tree's perfbench/run.py builds that tree into its own "
                 ".bench_build/perfbench (RelWithDebInfo)",
        "order": "per seed, parent then change on the 1st, 3rd, ... seed, change then parent "
                 "on the others",
        "quartiles": QUARTILES, "seeds": seeds, "workloads": {},
    }
    ok = True
    for workload in workloads:
        record, passed = pair_workload(config, trees, workload, seeds)
        report["workloads"][workload] = record
        ok = ok and passed
    if args.claim:
        workload, metric, ratio = args.claim.split(":")
        m = report["workloads"][workload]["metrics"][metric]
        bar = float(ratio)
        p, c = m["parent"]["median"], m["change"]["median"]
        iqr = m["parent"]["q3"] - m["parent"]["q1"]
        better = c / p >= bar if m["better"] == "higher" else c / p <= 1 / bar
        needed = math.ceil(0.9 * m["pairs"])
        report["claim"] = {
            "workload": workload, "metric": metric,
            "bar": f"change median {'>=' if m['better'] == 'higher' else '<='} "
                   f"{bar if m['better'] == 'higher' else round(1 / bar, 4)}x parent median, "
                   f"change wins >= {needed} of {m['pairs']} pairs, medians apart by more "
                   f"than the parent's IQR",
            "result": {"parent_median": p, "change_median": c, "ratio": round(c / p, 4),
                       "change_wins": m["change_wins"], "pairs": m["pairs"],
                       "parent_iqr": round(iqr, 6),
                       "met": better and m["change_wins"] >= needed and abs(c - p) > iqr},
        }
    if args.traced_pairs > 0:
        traced, passed = traced_pairs(config, trees, workloads[0], args.traced_pairs)
        report["traced"] = traced
        ok = ok and passed
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    log(f"perf_pair: wrote {args.out}" + ("" if ok else " (a run failed or digests differ)"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
