"""Print SHA-256 digests of the CLI outputs that a refactor must keep
byte-identical, as one JSON object keyed by command.

    python3 tools/output_digests.py [--root DIR] > digests.json

DIR is a checkout whose ``src/bipblocks`` is imported (default: the
checkout this script lies in). The commands are always this script's own,
so running it with ``--root`` on two checkouts and diffing the two files
compares their outputs:

- ``verify --all`` and ``verify --case`` for every catalogue case, then
  ``verify --case`` for III-1, III-14 and III-18 at e = 7, and for IV-5,
  IV-6 and IV-9 at e = 6, whose tau and order probes then run off their
  default windows, one entry per format. ``verify`` solves each (type, e,
  window) once per process, so every ``verify --case`` after
  ``verify --all`` reads its family from the memo, and of the three cases
  at e = 7, which share a family, only the first json run solves;
  comparing with a checkout that solves every case afresh checks that a
  memo hit prints what a cold solve prints;
- ``decomp --no-cache``, ``js order``, ``block info``,
  ``block exceptional`` and ``block enumerate`` on the type-III block at
  the window (0,1,1,2,3) for e = 5, 7, 9 and 11;
- ``decomp`` through the cache on the same blocks, twice per rung and
  format under a cache directory of their own: the first run solves and
  writes the cache file, the second reads it back;
- ``bip restricted``, ``bip info`` and ``bip diamond`` on every member of
  the blocks at e = 5 and 7, one entry per rung, verb and format; the
  refusals of ``bip diamond`` print where the good-node strip stops;
- ``js val`` on every strictly dominating pair of members of the block at
  e = 5, dominant first, one entry per format;
- ``block enumerate`` on the weight-1 block of (3,1,1,1|-) at e = 4,
  kappa = (0,3), and on the weight-3 block of (-|5,1,1) at e = 4,
  kappa = (0,1), whose nucleus only the swapped component order finds;
- ``block info`` and ``block exceptional`` on the II-main block (e = 5,
  window (0,0,1,3)), the IV-1 block (e = 4, window (0,0,0,1,2)) and the
  core weight-3 block of (-|3,3,3) at e = 6, kappa = (0,0), which has no
  nucleus;
- every ``$ bipblocks`` example in this checkout's README, the cached
  ``decomp`` under an empty cache directory;
- last, the bytes of the cache files that the ladder's cached ``decomp``
  runs left behind, one file per rung and format, in that order: the
  entry holds the file count and the SHA-256 of their bytes.

Each command runs in both formats where it has two, in one in-process
``click.testing.CliRunner`` run, in the order listed. Its entry holds the
exit status and the SHA-256 of the output, stderr included; an entry over
many members holds the largest exit status and the SHA-256 of their
outputs joined in canonical order. The first 16 hex digits of the
``verify --all`` json digest are the ones ``tests/test_cli.py`` pins. It
takes about 8 s on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shlex
import sys
import tempfile
from itertools import combinations

from bench_entry import LADDER, ROOT, WINDOW

FORMATS = ("json", "table")
# the rungs whose every member runs the bip verbs
MEMBER_RUNGS = (5, 7)
# the rung whose every strictly dominating pair of members runs js val
PAIR_RUNG = 5
# the cache directory of a rung's cached decomp runs in one format
CACHE_SUB = "e{e}-{fmt}"


def readme_examples(path: str) -> list[list[str]]:
    """The argument lists of the README's ``$ bipblocks`` lines, with
    backslash continuations joined and trailing comments dropped."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    out, i = [], 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if not line.startswith("$ bipblocks "):
            continue
        while line.endswith("\\") and i < len(lines):
            line = line[:-1] + lines[i]
            i += 1
        out.append(shlex.split(line, comments=True)[2:])
    return out


def commands() -> dict[str, tuple[list[list[str]], str]]:
    """Every command to digest, by a readable name: the argument lists it
    runs, one per member for a per-member entry, and the directory under
    the temporary cache root that they run in ("" for the root)."""
    from bipblocks.blocks import block_key, family_from_type_params
    from bipblocks.cli import CASES
    from bipblocks.core import Params, bip, dominates

    def block_doc(p, key) -> str:
        return json.dumps({"e": p.e, "kappa": list(p.kappa), "charp": 0,
                           "n": key.n, "content": list(key.content)})

    out = {}
    for fmt in FORMATS:
        out[f"verify --all {fmt}"] = [["verify", "--all", "--format",
                                       fmt]], ""
        for case_id in sorted(CASES):
            out[f"verify --case {case_id} {fmt}"] = [[
                "verify", "--case", case_id, "--format", fmt]], ""
        out[f"verify --case III-1,III-14,III-18 --e 7 {fmt}"] = [
            ["verify", "--case", case_id, "--e", "7", "--format", fmt]
            for case_id in ("III-1", "III-14", "III-18")], ""
        out[f"verify --case IV-5,IV-6,IV-9 --e 6 {fmt}"] = [
            ["verify", "--case", case_id, "--e", "6", "--format", fmt]
            for case_id in ("IV-5", "IV-6", "IV-9")], ""
    for e in LADDER:
        fam = family_from_type_params("III", e, WINDOW)
        p = fam.params
        doc = block_doc(p, block_key(fam.members()[0], p)[0])
        for verb in (["decomp", "--no-cache"], ["js", "order"],
                     ["block", "info"], ["block", "exceptional"],
                     ["block", "enumerate"]):
            for fmt in FORMATS:
                out[f"ladder e={e} {' '.join(verb)} {fmt}"] = [[
                    *verb, "--block", doc, "--format", fmt]], ""
        for fmt in FORMATS:
            sub = CACHE_SUB.format(e=e, fmt=fmt)
            for run in ("write", "read"):
                out[f"ladder e={e} decomp cached {run} {fmt}"] = [[
                    "decomp", "--block", doc, "--format", fmt]], sub
        if e not in MEMBER_RUNGS:
            continue
        members = fam.members()
        docs = [json.dumps({"e": p.e, "kappa": list(p.kappa), "charp": 0,
                            "comp1": list(b.comp1), "comp2": list(b.comp2)})
                for b in members]
        for verb in ("restricted", "info", "diamond"):
            for fmt in FORMATS:
                out[f"ladder e={e} members bip {verb} {fmt}"] = [
                    ["bip", verb, "--bip", d, "--format", fmt]
                    for d in docs], ""
        if e != PAIR_RUNG:
            continue
        # the canonical order puts the dominant member of a pair first
        pairs = [(docs[x], docs[y])
                 for x, y in combinations(range(len(members)), 2)
                 if dominates(members[x], members[y])]
        for fmt in FORMATS:
            out[f"ladder e={e} dominating pairs js val {fmt}"] = [
                ["js", "val", "--bip", a, "--bip", b, "--format", fmt]
                for a, b in pairs], ""
    for name, member, p in (
            ("weight-1", bip((3, 1, 1, 1), ()), Params.make(4, (0, 3))),
            ("swapped nucleus", bip((), (5, 1, 1)), Params.make(4, (0, 1)))):
        doc = block_doc(p, block_key(member, p)[0])
        for fmt in FORMATS:
            out[f"{name} block enumerate {fmt}"] = [[
                "block", "enumerate", "--block", doc, "--format", fmt]], ""
    ii = family_from_type_params("II", 5, (0, 0, 1, 3))
    iv = family_from_type_params("IV", 4, (0, 0, 0, 1, 2))
    for name, member, p in (
            ("II-main", ii.labels[0].bipartition, ii.params),
            ("IV-1", iv.labels[0].bipartition, iv.params),
            ("core", bip((), (3, 3, 3)), Params.make(6, (0, 0)))):
        doc = block_doc(p, block_key(member, p)[0])
        for verb in ("info", "exceptional"):
            for fmt in FORMATS:
                out[f"{name} block {verb} {fmt}"] = [[
                    "block", verb, "--block", doc, "--format", fmt]], ""
    for n, args in enumerate(readme_examples(os.path.join(ROOT,
                                                          "README.md"))):
        out[f"readme {n} {' '.join(args[:2])}"] = [args], ""
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=ROOT,
                        help="checkout whose src/bipblocks is imported")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    from click.testing import CliRunner
    from bipblocks.cli import CACHE_ENV, main as cli_main

    digests = {}
    with tempfile.TemporaryDirectory() as cache:
        for name, (argvs, sub) in commands().items():
            runner = CliRunner(env={CACHE_ENV: os.path.join(cache, sub)})
            status, sha = 0, hashlib.sha256()
            for argv in argvs:
                res = runner.invoke(cli_main, argv)
                if res.exception is not None and not isinstance(
                        res.exception, SystemExit):
                    raise res.exception
                status = max(status, res.exit_code)
                sha.update(res.output.encode())
            digests[name] = {"exit": status, "sha256": sha.hexdigest()}
        files = [path for e in LADDER for fmt in FORMATS
                 for path in sorted(glob.glob(os.path.join(
                     cache, CACHE_SUB.format(e=e, fmt=fmt), "*.json")))]
        sha = hashlib.sha256()
        for path in files:
            with open(path, "rb") as fh:
                sha.update(fh.read())
        digests["ladder decomp cache files"] = {"files": len(files),
                                                "sha256": sha.hexdigest()}
    json.dump(digests, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
