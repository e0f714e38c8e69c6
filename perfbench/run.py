"""Seeded benchmark for bipblocks.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Each workload is a closed loop with one client: one process, one thread,
and the next op starts only when the previous one has completed. A run
starts worker processes one after another, each with a fresh
BIPBLOCKS_CACHE_DIR. Each worker sets up, runs one untimed warm-up op and
then one timed pass over the seed's ops; every pass makes the same ops in
the same order. Workers are started while the next one, going by the
mean so far, ends within --seconds of the run's start. Every time is
scaled to a reference host speed measured by a calibration loop timed
between the ops (see worker.calibrate and scaled_ms), and each op's
latency is its median over the run's passes (see typical_ms).

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
does the same untimed passes and then one traced pass, and reports the
per-layer metrics of that pass (see spans.py). The result names every
per-layer metric; one the traced pass never reached reads 0 there and is
listed as unreached in the summary. Inputs, per-worker results
and an environment stamp go to perfbench/results/<workload>-s<seed>-t<trace>/.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import inputs as gen
from worker import CAL_REF_MS

ROOT = os.path.dirname(gen.HERE)
RESULTS = os.path.join(gen.HERE, "results")
WORKLOADS = ("catalogue", "decomp-cold", "explore")
DEADLINE_S = 165  # a run must end within 180 s


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    k = (len(s) - 1) * q / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


CAL_NEAR = 3  # calibrations taken on each side of an op


def scaled_ms(worker: dict) -> list[float]:
    """Each op's latency scaled to a host on which the calibration loop
    takes CAL_REF_MS (see worker.py): times CAL_REF_MS over the median of
    the CAL_NEAR calibrations before the op and the CAL_NEAR after it. A
    single calibration is itself noisy; the median of a few near ones
    follows the host's speed without its outliers."""
    cal = worker["cal"]  # (ops done before it, ms), in order
    out, j = [], 0
    for i, ms in enumerate(worker["lat_ms"]):
        while cal[j + 1][0] <= i:
            j += 1
        near = [c for _, c in cal[max(0, j + 1 - CAL_NEAR):j + 1 + CAL_NEAR]]
        out.append(ms * CAL_REF_MS / statistics.median(near))
    return out


def setup_scaled_s(worker: dict) -> float:
    """Set-up time scaled by the first calibrations of the pass, the ones
    nearest to set-up."""
    near = [c for _, c in worker["cal"][:2 * CAL_NEAR]]
    return worker["setup_s"] * CAL_REF_MS / statistics.median(near)


def typical_ms(workers: list[dict]) -> list[float]:
    """Each op's median scaled latency over the run's passes. Every pass
    makes the same ops in the same order, each in a fresh process."""
    scaled = [scaled_ms(w) for w in workers]
    n = len(scaled[0])
    if any(len(s) != n for s in scaled):
        raise RuntimeError("passes made different numbers of ops")
    return [statistics.median(s[i] for s in scaled) for i in range(n)]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(seed: int, trace: bool) -> dict:
    return {"commit": gen.git_commit(), "seed": seed, "traced": trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": _cpu_model()}


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 cfg: dict, tmp: str):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.cfg, self.tmp = trace, cfg, tmp
        self.started = time.monotonic()
        self.workers: list[dict] = []

    def spawn(self, cache_dir: str, trace: bool = False) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise RuntimeError("run deadline passed")
        os.makedirs(cache_dir, exist_ok=True)
        env = dict(os.environ, BIPBLOCKS_CACHE_DIR=cache_dir, HOME=self.tmp,
                   PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        spec = {"workload": self.workload, "seed": self.seed,
                "trace": trace, "root": ROOT, "t0": time.monotonic()}
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(gen.HERE, "worker.py"),
                 json.dumps(spec)],
                capture_output=True, text=True, env=env, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise RuntimeError("a worker ran past the run deadline") from None
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def enough(self) -> bool:
        """True once another worker would end past --seconds, going by
        the mean time of the workers so far."""
        if not self.workers:
            return False
        elapsed = time.monotonic() - self.started
        return elapsed * (len(self.workers) + 1) / len(self.workers) \
            > self.seconds

    def execute(self) -> dict:
        while not self.enough():
            cache = os.path.join(self.tmp, f"cache-{len(self.workers)}")
            self.workers.append(self.spawn(cache))
        traced = None
        if self.trace:
            traced = self.spawn(os.path.join(self.tmp, "cache-traced"),
                                trace=True)
        return self.summarize(traced)

    def summarize(self, traced) -> dict:
        ws = self.workers
        typical = typical_ms(ws)
        attempted = sum(w["attempted"] for w in ws)
        failed = sum(w["failed"] for w in ws)
        errors = [e for w in ws for e in w["errors"]]
        metrics = {
            "setup_s": (statistics.median(setup_scaled_s(w) for w in ws),
                        "s"),
            "wall_s": (sum(typical) / 1e3, "s"),
            "op_p50_ms": (statistics.median(typical), "ms"),
            "op_tail_ms": (percentile(typical, self.cfg["tail_percentile"]),
                           "ms"),
            "peak_rss_mb": (statistics.median(w["rss_mb"] for w in ws),
                            "MiB"),
        }
        layers = None
        if traced is not None:
            attempted += traced["attempted"]
            failed += traced["failed"]
            errors += [f"traced: {e}" for e in traced["errors"]]
            layers = dict(traced["layers"])
            untraced = statistics.median(sum(scaled_ms(w)) for w in ws)
            layers["trace.overhead"] = sum(scaled_ms(traced)) / untraced
        cal = [ms for w in ws for _, ms in w["cal"]]
        return {"attempted": attempted, "failed": failed, "errors": errors,
                "workers": len(ws), "ops": len(typical),
                "cal_ms": statistics.median(cal), "cal_ref_ms": CAL_REF_MS,
                "passes_wall_s": [w["wall_s"] for w in ws],
                "passes_cal_ms": [statistics.median(c for _, c in w["cal"])
                                  for w in ws],
                "typical_ms": typical,
                "metrics": metrics, "layers": layers}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 ledger: dict) -> tuple[dict, dict]:
    cfg = ledger["workloads"][workload]
    out_dir = os.path.join(RESULTS, f"{workload}-s{seed}-t{int(trace)}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    ref = gen.load_reference()
    with open(os.path.join(out_dir, "inputs.json"), "w",
              encoding="utf-8") as fh:
        json.dump(gen.make_inputs(workload, seed, ref), fh)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        summary = Run(workload, seed, seconds, trace, cfg, tmp).execute()
    summary["stamp"] = stamp(seed, trace)
    summary["workload"] = workload
    with open(os.path.join(out_dir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    if trace:
        layers = summary["layers"]
        summary["unreached"] = [k for k in ledger["per_layer"]
                                if k not in layers]
        metrics = {k: {"value": layers.get(k, 0), "unit": m["unit"]}
                   for k, m in ledger["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in summary["metrics"].items()}
    result = {"correct": summary["failed"] == 0,
              "attempted": summary["attempted"],
              "failed": summary["failed"], "metrics": metrics}
    return summary, result


def print_summary(summary: dict, result: dict) -> None:
    st = summary["stamp"]
    print(f"# {summary['workload']}  seed {st['seed']}  traced {st['traced']}"
          f"  commit {st['commit'][:12]}  python {st['python']}"
          f"  nproc {st['nproc']}  cpu {st['cpu']}")
    rate = summary["failed"] / summary["attempted"]
    print(f"  {'error_rate':28s} {rate:.4g} ratio ({summary['failed']} failed"
          f" of {summary['attempted']} attempted)")
    print(f"  {'host calibration':28s} {summary['cal_ms']:.4g} ms, median"
          f" (times below are scaled to {summary['cal_ref_ms']} ms)")
    for name, m in result["metrics"].items():
        if name in summary.get("unreached", ()):
            print(f"  {name:28s} not reached")
        else:
            print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    for err in summary["errors"][:10]:
        print(f"  error: {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and waits for the
    # running worker, and the run's temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "bipblocks", "cli.py")):
        print(f"error: no bipblocks source under {ROOT}/src", file=sys.stderr)
        return 2
    ledger = gen.load_ledger()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            summary, result = run_workload(name, args.seed, args.seconds,
                                           bool(args.trace), ledger)
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_summary(summary, result)
        results[name] = result
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
