"""Build a root BENCH_<short-sha>.json from paired benchmark runs.

    python3 tools/bench_entry.py --parent DIR --change DIR \
        [--claim WORKLOAD:METRIC] [--label TEXT]

DIR is a checkout of each commit in which ``perfbench/run.py`` was run
with the same seeds, settings and host. The entry holds one
``perfbench.ledger.build_entry`` per side, and per workload and
end-to-end metric the paired comparison: medians and quartiles, the
change's wins over the parent on the same seed, and the ratio of the
medians against the benchmark's bound. A claimed metric is met when the
change wins at least nine tenths of the pairs and the medians differ by
more than the parent's interquartile range.

The entry also times cold solves of the type-III window (0,1,1,2,3) at
e = 5, 7, 9 and 11 in each checkout: ``ROUNDS`` alternating rounds of one
fresh process per side, each process solving every rung ``REPS`` times.
The calibration loop of ``perfbench/worker.py`` is read before and after
each process.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
LADDER = (5, 7, 9, 11)
WINDOW = (0, 1, 1, 2, 3)
ROUNDS = 5
REPS = 3


def _results(checkout: str) -> list[dict]:
    paths = sorted(glob.glob(os.path.join(checkout, "perfbench", "results",
                                          "*", "result.json")))
    if not paths:
        raise SystemExit(f"no results under {checkout}/perfbench/results")
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def _quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _pairs(parent: list[dict], change: list[dict], bounds: dict) -> dict:
    """Per workload and metric, the untraced runs paired by seed."""
    def plain(results):
        return {(r["workload"], r["stamp"]["seed"]): r["metrics"]
                for r in results if not r["stamp"]["traced"]}

    before, after = plain(parent), plain(change)
    out = {}
    for workload in sorted({w for w, _ in before}):
        seeds = sorted(s for w, s in before if w == workload
                       and (w, s) in after)
        if len(seeds) < 2:
            continue
        doc = {"seeds": seeds}
        for metric, bound in bounds.items():
            old = [before[workload, s][metric][0] for s in seeds]
            new = [after[workload, s][metric][0] for s in seeds]
            p, c = _quartiles(old), _quartiles(new)
            doc[metric] = {
                "parent": p, "change": c,
                "change_wins": sum(b < a for a, b in zip(old, new)),
                "ratio": c["median"] / p["median"],
                "within_bound": c["median"] <= p["median"] * (1 + bound)}
        out[workload] = doc
    return out


def _claim_met(pairs: dict, workload: str, metric: str) -> bool:
    if workload not in pairs:
        raise SystemExit(f"no paired runs of {workload} to judge the claim")
    doc = pairs[workload][metric]
    p, c = doc["parent"], doc["change"]
    return (doc["change_wins"] >= 0.9 * len(pairs[workload]["seeds"])
            and p["median"] - c["median"] > p["q3"] - p["q1"])


def _ladder_child() -> None:
    """Time the ladder in this process and print one JSON object."""
    sys.path.insert(0, PERFBENCH)
    from worker import calibrate
    from bipblocks.blocks import (
        block_key, enumerate_block, family_from_type_params,
    )
    from bipblocks.js import decomposition_matrix

    cal = [calibrate()]
    out = {}
    for e in LADDER:
        fam = family_from_type_params("III", e, WINDOW)
        # the weight-3 block the window's labels name
        key = block_key(fam.labels[0].bipartition, fam.params)[0]
        solve, enum = [], []
        for _ in range(REPS):
            start = time.perf_counter()
            decomposition_matrix(key, fam.params)
            solve.append(time.perf_counter() - start)
            start = time.perf_counter()
            enumerate_block(key, fam.params)
            enum.append(time.perf_counter() - start)
        out[str(e)] = {"solve_s": solve, "enumerate_s": enum}
    cal.append(calibrate())
    print(json.dumps({"rungs": out, "cal_ms": cal}))


def _ladder(checkouts: dict) -> dict:
    runs = {side: [] for side in checkouts}
    for n in range(ROUNDS):
        order = list(checkouts) if n % 2 == 0 else list(checkouts)[::-1]
        for side in order:
            env = dict(os.environ,
                       PYTHONPATH=os.path.join(checkouts[side], "src"))
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--ladder-child"],
                env=env, capture_output=True, text=True, check=True)
            runs[side].append(json.loads(proc.stdout))
    out = {}
    for side, docs in runs.items():
        rungs = {}
        for e in map(str, LADDER):
            rungs[e] = {
                name: statistics.median(t for d in docs
                                        for t in d["rungs"][e][name])
                for name in ("solve_s", "enumerate_s")}
        cal = [c for d in docs for c in d["cal_ms"]]
        out[side] = {"rungs": rungs, "cal_ms": {
            "median": statistics.median(cal), "min": min(cal),
            "max": max(cal)}}
    out["about"] = (f"median seconds over {ROUNDS} alternating rounds of "
                    f"{REPS} cold solves each, type III window "
                    f"{WINDOW}; enumeration timed apart; cal_ms is the "
                    "perfbench calibration loop around each round")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--claim", default=None,
                    help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--label", default="")
    ap.add_argument("--ladder-child", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.ladder_child:
        _ladder_child()
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")

    sys.path.insert(0, PERFBENCH)
    from ledger import build_entry

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parent, change = _results(args.parent), _results(args.change)
    entries = {"parent": build_entry("parent", parent),
               "change": build_entry("change", change)}
    pairs = _pairs(parent, change, bounds)
    doc = {"label": args.label,
           "commit": entries["change"]["commit"],
           "parent": entries["parent"]["commit"],
           "run_seconds": bench["run_seconds"],
           "pairs": pairs}
    if args.claim:
        workload, metric = args.claim.split(":")
        doc["claim"] = {"workload": workload, "metric": metric,
                        "met": _claim_met(pairs, workload, metric)}
    doc["ladder"] = _ladder({"parent": args.parent, "change": args.change})
    doc["entries"] = entries
    path = os.path.join(ROOT, f"BENCH_{doc['commit'][:7]}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
