"""Append a measured entry to perfbench/ledger.json.

    python3 perfbench/ledger.py --label <text>

Reads every perfbench/results/*/result.json and adds, for each workload,
the median and quartiles over its untraced runs of each end-to-end metric,
the seeds and attempted/failed op counts, and the per-layer metrics of its
traced runs (median over those runs that reached the metric). Runs from
different commits or hosts must not be mixed: the entry refuses results
whose stamps disagree.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

import inputs as gen


def _stats(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "runs": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def build_entry(label: str, results: list[dict]) -> dict:
    hosts = {(r["stamp"]["commit"], r["stamp"]["python"], r["stamp"]["cpu"],
              r["stamp"]["nproc"]) for r in results}
    if len(hosts) != 1:
        raise SystemExit(f"results come from {len(hosts)} commits or hosts")
    (commit, python, cpu, nproc), = hosts
    entry = {"label": label, "commit": commit, "python": python, "cpu": cpu,
             "nproc": nproc, "workloads": {}}
    for workload in sorted({r["workload"] for r in results}):
        runs = [r for r in results if r["workload"] == workload]
        plain = [r for r in runs if not r["stamp"]["traced"]]
        traced = [r for r in runs if r["stamp"]["traced"]]
        doc = {"seeds": sorted(r["stamp"]["seed"] for r in plain),
               "attempted": sum(r["attempted"] for r in runs),
               "failed": sum(r["failed"] for r in runs)}
        if plain:
            doc["end_to_end"] = {
                name: _stats([r["metrics"][name][0] for r in plain])
                for name in plain[0]["metrics"]}
        if traced:
            doc["traced_seeds"] = sorted(r["stamp"]["seed"] for r in traced)
            names = dict.fromkeys(n for r in traced for n in r["layers"])
            doc["per_layer"] = {
                name: statistics.median(r["layers"][name] for r in traced
                                        if name in r["layers"])
                for name in names}
        entry["workloads"][workload] = doc
    return entry


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args()
    paths = sorted(glob.glob(os.path.join(gen.HERE, "results", "*",
                                          "result.json")))
    if not paths:
        raise SystemExit("no results under perfbench/results")
    results = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    entry = build_entry(args.label, results)
    ledger = gen.load_ledger()
    ledger["entries"].append(entry)
    with open(gen.LEDGER_PATH, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
