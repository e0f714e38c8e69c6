"""Record the reference outputs every benchmark op is checked against.

    python3 perfbench/record.py

Draws the decomp slot blocks with the benchmark's own generator, runs every
op any seed can make (all 34 catalogue cases, every ladder rung and slot
block under every charge shift, every explore bipartition) once at the
current source tree, and writes their output digests to
perfbench/reference.json. Rerun it only when a
change is meant to alter program output; the project requires outputs to
stay byte-identical. The file is stamped with the checked-out commit.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import inputs as gen
import ops

ROOT = os.path.dirname(gen.HERE)


def _decomp_digest(cli, doc: dict, solved: bool) -> str:
    code, out, err = ops.run_cli(cli.main, ops.decomp_args(doc))
    if solved and code != 0:
        raise RuntimeError(f"decomp failed on {doc}: exit {code} {err}")
    if not solved and not ops.is_refusal(code, err):
        raise RuntimeError(f"decomp did not refuse {doc}: exit {code} {err}")
    return ops.digest(ops.cli_output(code, out, err))


def record_catalogue(cli) -> dict:
    out = {}
    for cid in sorted(cli.CASES):
        text, overall = ops.catalogue_op(cli, cid)
        if not overall:
            raise RuntimeError(f"catalogue case {cid} does not PASS")
        out[cid] = ops.digest(text)
    return out


def _rotated(c, shift: int) -> tuple[int, ...]:
    return tuple(c[(i - shift) % len(c)] for i in range(len(c)))


def _shift_digests(cli, doc: dict, solved: bool) -> list[str]:
    """The output digest under each charge shift. A shift must rotate the
    residue content and keep the weight."""
    c0 = gen.content(doc["comp1"], doc["comp2"], doc["e"], doc["kappa"])
    out = []
    for shift in range(doc["e"]):
        d = gen.shift_doc(doc, shift)
        c = gen.content(d["comp1"], d["comp2"], d["e"], d["kappa"])
        if (c != _rotated(c0, shift) or gen.closed_form_weight(c, d["kappa"])
                != gen.closed_form_weight(c0, doc["kappa"])):
            raise RuntimeError(f"shift {shift} of {doc} is not a relabelling")
        out.append(_decomp_digest(cli, d, solved))
    return out


def record_decomp(cli) -> list[dict]:
    out = []
    for rung in gen.LADDER:
        d = rung["doc"]
        c = gen.content(d["comp1"], d["comp2"], d["e"], d["kappa"])
        if (c != rung["content"] or len(c) != d["e"]
                or sum(c) != rung["n"]
                or gen.closed_form_weight(c, d["kappa"]) != 3):
            raise RuntimeError(f"{rung['name']}: witness is not in the block")
        out.append({"name": rung["name"], "doc": d, "solved": True,
                    "digests": _shift_digests(cli, d, True)})
    for slot in gen.DECOMP_SLOTS:
        blk = gen.draw_block(slot)
        solved = slot["weights"] == (3,)
        out.append({"name": slot["name"], "doc": blk["doc"],
                    "weight": blk["weight"], "solved": solved,
                    "digests": _shift_digests(cli, blk["doc"], solved)})
        print(f"  {slot['name']}: weight {blk['weight']}", file=sys.stderr)
    return out


def record_explore() -> dict:
    from bipblocks import blocks, crystal
    from bipblocks.cli import serialize
    from bipblocks.core import Params, bip

    out = {}
    for pair in gen.EXPLORE_PAIRS:
        n = pair["n"]
        for shift in range(gen.EXPLORE_E):
            kappa = gen.explore_kappa(pair, shift)
            p = Params.make(gen.EXPLORE_E, kappa)
            seen, digests, classified = set(), [], {}
            for c1, c2 in gen.bipartitions(n):
                result, desc = ops.explore_op(blocks, crystal, bip(c1, c2),
                                              p, seen)
                digests.append(ops.digest(ops.explore_text(result), 8))
                if desc is not None:
                    classified[ops.content_id(desc.key.content)] = \
                        ops.digest(serialize(desc))
            out[gen.explore_combo(n, kappa)] = {"ops": "".join(digests),
                                                "blocks": classified}
    return out


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory(dir=gen.HERE) as tmp:
        os.environ["BIPBLOCKS_CACHE_DIR"] = tmp
        from bipblocks import cli
        ref = {"commit": gen.git_commit()}
        print("catalogue", file=sys.stderr)
        ref["catalogue"] = record_catalogue(cli)
        print("decomp", file=sys.stderr)
        ref["decomp"] = record_decomp(cli)
        print("explore", file=sys.stderr)
        ref["explore"] = record_explore()
    with open(gen.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
