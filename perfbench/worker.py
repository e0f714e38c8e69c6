"""One worker process: set up, run one untimed warm-up op, then one timed
pass over the run's ops, checking every output against its reference.

Started by run.py as ``python3 perfbench/worker.py '<spec json>'``; prints
one JSON object with the raw latencies and calibration times (run.py
scales them). ``setup_s`` runs from the moment run.py started this process
(``spec["t0"]``, on the system-wide monotonic clock) to the start of the
timed pass.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time

import inputs as gen
import ops


def _cache_files(path: str) -> int:
    return len(os.listdir(path)) if os.path.isdir(path) else 0


# Host speed. The speed of a shared host changes by up to 2x, for seconds
# to minutes at a time, and CPU time follows wall time, so raw latencies
# from two runs of the same code can differ by that much. A fixed piece of
# pure-Python work, timed between ops, tracks those changes: over 150 s,
# ten-second medians of an op's latency divided by the time of a longer
# loop of this kind stayed within about 6 % while each alone moved by
# 1.8x. run.py reports each latency scaled to a host on which the loop
# takes CAL_REF_MS.
CAL_REF_MS = 4.0
CAL_EVERY_S = 0.1  # calibrate before an op once this long has passed


def calibrate() -> float:
    """Time in ms of a fixed mix of tuple, dict, integer and sort work,
    the kinds of work bipblocks does. The garbage collector is off while
    it runs: a collection then would scan the program's heap, and a change
    that keeps more objects alive would read as a slower host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        counts: dict = {}
        acc = 0
        for i in range(6000):
            key = (i % 13, i % 7, i % 5)
            counts[key] = counts.get(key, 0) + 1
            acc += i * i % 11
        sorted(((i * 7919) % 10007, i) for i in range(6000))
        return (time.perf_counter() - t) * 1e3
    finally:
        if enabled:
            gc.enable()


class Pass:
    """Latencies, failures and the output-byte count of one pass. The pass
    times the calibration loop before its first op, at least every
    CAL_EVERY_S between ops, and after its last op. When the pass is
    traced, ``start`` also tags the spans of each op with its index."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.lat_ms: list[float] = []
        self.cal: list[tuple[int, float]] = []  # (ops done before it, ms)
        self.last_cal = float("-inf")
        self.failed = 0
        self.errors: list[str] = []
        self.output_bytes = 0

    def calibrate(self) -> None:
        self.cal.append((len(self.lat_ms), calibrate()))
        self.last_cal = time.perf_counter()

    def start(self) -> float:
        if self.tracer is not None:
            self.tracer.op = len(self.lat_ms)
        if time.perf_counter() - self.last_cal >= CAL_EVERY_S:
            self.calibrate()
        return time.perf_counter()

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(msg)


def _catalogue(cli, inp, ref, timed):
    digests = ref["catalogue"]
    ops.catalogue_op(cli, inp["warmup"])
    res = timed()
    for cid in inp["cases"]:
        t = res.start()
        try:
            text, overall = ops.catalogue_op(cli, cid)
        except Exception as exc:  # an op that raises counts as failed
            res.lat_ms.append((time.perf_counter() - t) * 1e3)
            res.fail(f"{cid}: {exc!r}")
            continue
        res.lat_ms.append((time.perf_counter() - t) * 1e3)
        res.output_bytes += len(text.encode())
        if not overall:
            res.fail(f"{cid}: report is not PASS")
        elif ops.digest(text) != digests[cid]:
            res.fail(f"{cid}: output digest differs")
    return res


def _decomp_cold(cli, inp, cache_dir, timed):
    """Run decomp on each block. Every solved block must add exactly one
    cache file and a refused one none, which shows each op missed."""
    ops.run_cli(cli.main, ops.decomp_args(inp["warmup"]))
    res = timed()
    for blk in inp["ops"]:
        before = _cache_files(cache_dir)
        t = res.start()
        try:
            code, out, err = ops.run_cli(cli.main,
                                         ops.decomp_args(blk["doc"]))
        except Exception as exc:  # an op that raises counts as failed
            res.lat_ms.append((time.perf_counter() - t) * 1e3)
            res.fail(f"{blk['name']}: {exc!r}")
            continue
        res.lat_ms.append((time.perf_counter() - t) * 1e3)
        res.output_bytes += len(out.encode())
        added = _cache_files(cache_dir) - before
        want = 1 if blk["solved"] else 0
        if added != want:
            res.fail(f"{blk['name']}: cache gained {added} files, "
                     f"expected {want}")
        elif not blk["solved"] and not ops.is_refusal(code, err):
            res.fail(f"{blk['name']}: not refused: exit {code} {err!r}")
        elif ops.digest(ops.cli_output(code, out, err)) != blk["digest"]:
            res.fail(f"{blk['name']}: output digest differs "
                     f"(exit {code}) {err.strip()[:200]}")
    return res


def _explore(inp, ref, timed):
    from bipblocks import blocks, crystal
    from bipblocks.cli import serialize
    from bipblocks.core import Params, bip

    e = gen.EXPLORE_E
    w = inp["warmup"]
    ops.explore_op(blocks, crystal, bip(*w["bip"]),
                   Params.make(e, tuple(w["kappa"])), set())
    combos = {}
    for name, c in inp["combos"].items():
        combos[name] = (Params.make(e, tuple(c["kappa"])),
                        [bip(c1, c2) for c1, c2 in c["bips"]],
                        ref["explore"][name])
    seen: set = set()
    res = timed()
    for name, i in inp["ops"]:
        p, bips, want = combos[name]
        t = res.start()
        try:
            result, desc = ops.explore_op(blocks, crystal, bips[i], p, seen)
        except Exception as exc:  # an op that raises counts as failed
            res.lat_ms.append((time.perf_counter() - t) * 1e3)
            res.fail(f"{name}#{i}: {exc!r}")
            continue
        res.lat_ms.append((time.perf_counter() - t) * 1e3)
        got = ops.digest(ops.explore_text(result), 8)
        if got != want["ops"][8 * i:8 * i + 8]:
            res.fail(f"{name}#{i}: output digest differs")
        if desc is not None:
            got = ops.digest(serialize(desc))
            if got != want["blocks"].get(ops.content_id(desc.key.content)):
                res.fail(f"{name}#{i}: classify_type digest differs")
    return res


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import bipblocks
    from bipblocks import cli

    src = os.path.realpath(os.path.join(spec["root"], "src"))
    if not os.path.realpath(bipblocks.__file__).startswith(src + os.sep):
        raise SystemExit(f"bipblocks imported from {bipblocks.__file__}, "
                         f"not from {src}")
    ref = gen.load_reference()
    workload, cache_dir = spec["workload"], os.environ["BIPBLOCKS_CACHE_DIR"]
    inp = gen.make_inputs(workload, spec["seed"], ref)
    tracer = None
    marks = {}

    def timed() -> Pass:
        """End set-up and start the timed pass."""
        nonlocal tracer
        if spec["trace"]:
            import spans
            tracer = spans.Tracer()
            spans.instrument(tracer)
        marks["setup_s"] = time.monotonic() - spec["t0"]
        marks["start"] = time.perf_counter()
        return Pass(tracer)

    if workload == "catalogue":
        res = _catalogue(cli, inp, ref, timed)
    elif workload == "decomp-cold":
        res = _decomp_cold(cli, inp, cache_dir, timed)
    else:
        res = _explore(inp, ref, timed)
    res.calibrate()
    wall_s = time.perf_counter() - marks["start"]
    out = {
        "setup_s": marks["setup_s"],
        "wall_s": wall_s,
        "lat_ms": res.lat_ms,
        "cal": res.cal,
        "attempted": len(res.lat_ms),
        "failed": res.failed,
        "errors": res.errors,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        import spans
        tracer.counts["cli.output_bytes"] = res.output_bytes
        # the pass's time without its calibrations, which run no bipblocks
        # code
        op_s = wall_s - sum(ms for _, ms in res.cal) / 1e3
        out["layers"] = spans.layer_metrics(tracer, op_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
