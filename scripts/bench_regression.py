#!/usr/bin/env python3
"""Parent-vs-change benchmark gate.

    scripts/bench_regression.py PARENT_DIR

PARENT_DIR is a checkout of the parent commit (for example
`git worktree add ../parent HEAD^1`). The script runs
`python3 sbbench/run.py --workload all --seed SEED --seconds SECONDS`
in the parent checkout and in this tree, PAIRS times each, alternating
which side goes first. Each checkout builds its own sbbench under its own
.bench_build/.

It exits 1 when any of these holds:
- a result line of this tree says "correct": false;
- on a workload, this tree's share of failed cells (failed/attempted
  over all its runs) is above the parent's;
- on a workload, the median of an end-to-end metric is worse than the
  parent's median by more than that metric's bound.
Metric names, their `better` direction and `bound` come from
BENCHMARK.json. It prints a parent/change median table and both
sides' digest lines. Exits 2 when PARENT_DIR has no sbbench/run.py.
Only the standard library is used.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 5
SECONDS = 5
SEED = 1


def run_side(root):
    """One `--workload all` run: ({workload: result}, digest lines, exit)."""
    # Each checkout builds in its own tree, never a shared target dir.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "sbbench", "run.py"),
         "--workload", "all", "--seed", str(SEED),
         "--seconds", str(SECONDS)],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    results, digests, workload = {}, [], None
    for line in proc.stdout.splitlines():
        if line.startswith("digest "):
            workload = line.split()[1]
            digests.append(line)
        elif line.startswith("{") and workload:
            results[workload] = json.loads(line)
    return results, digests, proc.returncode


def fail_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_dir", help="checkout of the parent commit")
    parent_dir = os.path.abspath(parser.parse_args().parent_dir)
    if not os.path.isfile(os.path.join(parent_dir, "sbbench", "run.py")):
        print("bench_regression: no sbbench/run.py under", parent_dir,
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    sides = {"parent": parent_dir, "change": ROOT}
    runs = {side: [] for side in sides}
    digests = {side: {} for side in sides}
    failures = []
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            print("pair %d/%d: %s" % (pair + 1, PAIRS, side), flush=True)
            results, lines, code = run_side(sides[side])
            for w in workloads:
                if w not in results:
                    failures.append("%s: %s printed no result (run.py "
                                    "exited %d)" % (side, w, code))
            runs[side].append(results)
            digests[side].update(dict.fromkeys(lines))

    print("\n%-13s %-12s %12s %12s %8s %7s" %
          ("workload", "metric", "parent", "change", "delta", "bound"))
    for w in workloads:
        results = {side: [run[w] for run in runs[side] if w in run]
                   for side in sides}
        if not results["parent"] or not results["change"]:
            continue
        for i, r in enumerate(results["change"]):
            if not r["correct"]:
                failures.append("change: %s correctness gate failed "
                                "(run %d)" % (w, i + 1))
        share = {side: fail_share(results[side]) for side in sides}
        if share["change"] > share["parent"]:
            failures.append("%s fail share: parent %.4g -> change %.4g" %
                            (w, share["parent"], share["change"]))
        for m in spec["end_to_end"]:
            name = m["name"]
            values = {side: [r["metrics"][name]["value"]
                             for r in results[side] if name in r["metrics"]]
                      for side in sides}
            # Only a benchmark change adds or drops a metric;
            # sbbench/test_bench.py checks this tree prints every one.
            if not values["parent"] or not values["change"]:
                continue
            med = {side: statistics.median(values[side]) for side in sides}
            delta = med["change"] / med["parent"] - 1
            worse = -delta if m["better"] == "higher" else delta
            print("%-13s %-12s %12.4g %12.4g %+7.1f%% %6.0f%%" %
                  (w, name, med["parent"], med["change"], 100 * delta,
                   100 * m["bound"]))
            if worse > m["bound"]:
                failures.append(
                    "%s %s: parent %.4g -> change %.4g (%+.1f%%, bound "
                    "%.0f%%, %s is better)" %
                    (w, name, med["parent"], med["change"], 100 * delta,
                     100 * m["bound"], m["better"]))

    print()
    for side in sides:
        for line in digests[side]:
            print("%s: %s" % (side, line))

    for f in failures:
        print("FAIL:", f)
    print("bench_regression: %s (%d pairs, seed %d, %g s per workload)" %
          ("FAIL" if failures else "PASS", PAIRS, SEED, SECONDS))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
