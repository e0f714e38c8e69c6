"""Seeded inputs for the benchmark, generated without calling bipblocks.

Bipartitions, residue contents and weights are computed here with the
benchmark's own code. The weight uses the closed form of Fayers (Adv. Math.
2006), a function of the residue content alone:

    w = sum_j c[kappa_j] - 1/2 * sum_i (c[i] - c[i+1])**2   (indices mod e)

The decomp blocks are drawn once by ``record.py`` with the functions below
and stored, with the digests of their outputs under every charge shift, in
``reference.json``. A run's seed picks each block's charge shift and the
order of the ops, so every op a run can make has a recorded reference
output.
"""

from __future__ import annotations

import json
import os
import random
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
LEDGER_PATH = os.path.join(HERE, "ledger.json")

# The decomp ladder: type III, window (i,j,k,l,m) = (0,1,1,2,3). kappa is
# (j+l-i, k+m+3-i) mod e; the block keys are those of the type-III family at
# that window. Each witness is a member of its block; record.py checks
# its content and weight.
LADDER = (
    {"name": "ladder-e5", "n": 12, "content": (3, 3, 2, 2, 2),
     "doc": {"e": 5, "kappa": [3, 2], "charp": 0,
             "comp1": [], "comp2": [10, 1, 1]}},
    {"name": "ladder-e7", "n": 22, "content": (5, 4, 2, 2, 2, 3, 4),
     "doc": {"e": 7, "kappa": [3, 0], "charp": 0,
             "comp1": [], "comp2": [16, 3, 3]}},
)

# The drawn decomp blocks come in fixed (e, n) slots, one block each:
# brute-force enumeration cost is set by n, and the solve by e. "w3" slots
# hold a weight-3 block, which decomp solves; "heavy" slots a block of
# weight 4 to 6, which decomp must refuse. The seed shifts both charges of
# every block by the same residue s, kappa -> kappa + s mod e. That permutes
# the residues, so the block has the same members and costs the same for
# every seed, while its key and its output differ.
DECOMP_SLOTS = (
    {"name": "w3-e4-n14", "e": 4, "n": 14, "weights": (3,)},
    {"name": "w3-e5-n16", "e": 5, "n": 16, "weights": (3,)},
    {"name": "w3-e6-n18", "e": 6, "n": 18, "weights": (3,)},
    {"name": "heavy-e4-n16", "e": 4, "n": 16, "weights": (4, 5, 6)},
    {"name": "heavy-e5-n18", "e": 5, "n": 18, "weights": (4, 5, 6)},
)
SLOT_SEED = "decomp-pool-v1"

# A small block outside the decomp set, for the untimed warm-up op of
# decomp-cold (the type-II example from the README, n = 5).
DECOMP_WARMUP = {"e": 2, "kappa": [1, 1], "charp": 0,
                 "comp1": [], "comp2": [2, 1, 1, 1]}

# explore: two (kappa, n) pairs at e = 5. Each pair has a fixed charge
# difference and n; the seed chooses the charge shift s of each, kappa =
# (s, s + difference). Shifting both charges permutes the residues, so the
# blocks are the same sets of bipartitions and the work is the same for
# every seed, while the inputs and outputs differ. Every seed makes
# 1165 + 752 ops.
EXPLORE_E = 5
EXPLORE_PAIRS = ({"difference": 1, "n": 12}, {"difference": 2, "n": 11})
EXPLORE_WARMUP_N = 10


def partitions(n: int, cap: int | None = None):
    """Partitions of n with parts at most cap, largest parts first."""
    cap = n if cap is None else min(cap, n)
    if n == 0:
        yield ()
        return
    for first in range(cap, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def bipartitions(n: int):
    for m in range(n + 1):
        for c1 in partitions(m):
            for c2 in partitions(n - m):
                yield c1, c2


def content(c1, c2, e: int, kappa) -> tuple[int, ...]:
    """Nodes of each residue; node (r, c) of component a has residue
    c - r + kappa[a] mod e."""
    out = [0] * e
    for charge, part in ((kappa[0], c1), (kappa[1], c2)):
        for r, width in enumerate(part):
            for c in range(width):
                out[(c - r + charge) % e] += 1
    return tuple(out)


def closed_form_weight(c, kappa) -> int:
    e = len(c)
    spread = sum((c[i] - c[(i + 1) % e]) ** 2 for i in range(e))
    return sum(c[k % e] for k in kappa) - spread // 2


def random_partition(m: int, rng: random.Random) -> tuple[int, ...]:
    parts, left, cap = [], m, m
    while left:
        x = rng.randint(1, min(cap, left))
        parts.append(x)
        left -= x
        cap = x
    return tuple(parts)


def bip_doc(e: int, kappa, c1, c2) -> dict:
    return {"e": e, "kappa": list(kappa), "charp": 0,
            "comp1": list(c1), "comp2": list(c2)}


def draw_block(slot: dict) -> dict:
    """A block of the slot's e, n and weights, given by a random member.
    Rejection sampling on the closed-form weight."""
    rng = random.Random(f"{SLOT_SEED}:{slot['name']}")
    e, n = slot["e"], slot["n"]
    while True:
        kappa = (0, rng.randrange(e))
        m = rng.randint(0, n)
        c1, c2 = random_partition(m, rng), random_partition(n - m, rng)
        c = content(c1, c2, e, kappa)
        if closed_form_weight(c, kappa) in slot["weights"]:
            return {"doc": bip_doc(e, kappa, c1, c2),
                    "weight": closed_form_weight(c, kappa)}


def shift_doc(doc: dict, shift: int) -> dict:
    """The same bipartition with both charges shifted by ``shift``."""
    return dict(doc, kappa=[(k + shift) % doc["e"] for k in doc["kappa"]])


def git_commit() -> str:
    """The checked-out commit, or "unknown" outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", os.path.dirname(HERE), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def load_ledger() -> dict:
    with open(LEDGER_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# The catalogue's warm-up case is fixed, so set-up time does not depend on
# the seed.
CATALOGUE_WARMUP = "III-8"


def catalogue_inputs(seed: int, ref: dict) -> dict:
    cases = sorted(ref["catalogue"])
    _rng("catalogue", seed).shuffle(cases)
    return {"cases": cases, "warmup": CATALOGUE_WARMUP}


def decomp_blocks(seed: int, ref: dict) -> list[dict]:
    """The cold block set: both ladder rungs and the block of every slot,
    each under a seed-chosen charge shift, in seed order. Each entry: name,
    doc, digest, solved."""
    rng = _rng("decomp", seed)
    out = []
    for blk in ref["decomp"]:
        shift = rng.randrange(blk["doc"]["e"])
        out.append({"name": f"{blk['name']}+{shift}",
                    "doc": shift_doc(blk["doc"], shift),
                    "digest": blk["digests"][shift],
                    "solved": blk["solved"]})
    rng.shuffle(out)
    return out


def decomp_cold_inputs(seed: int, ref: dict) -> dict:
    return {"ops": decomp_blocks(seed, ref), "warmup": DECOMP_WARMUP}


def explore_kappa(pair: dict, shift: int) -> tuple[int, int]:
    return shift, (shift + pair["difference"]) % EXPLORE_E


def explore_combo(n: int, kappa) -> str:
    return f"e{EXPLORE_E}-k{kappa[0]}{kappa[1]}-n{n}"


def explore_inputs(seed: int) -> dict:
    """All bipartitions of each pair's n under its seed-shifted kappa. Each
    op is (combo, index), where index is the bipartition's position in
    ``bipartitions(n)``; the ops are shuffled by the seed."""
    rng = _rng("explore", seed)
    kappas = [explore_kappa(pair, rng.randrange(EXPLORE_E))
              for pair in EXPLORE_PAIRS]
    combos, ops = {}, []
    for kappa, n in zip(kappas, (pair["n"] for pair in EXPLORE_PAIRS)):
        name = explore_combo(n, kappa)
        combos[name] = {"n": n, "kappa": list(kappa),
                        "bips": [list(map(list, b)) for b in bipartitions(n)]}
        ops += [(name, i) for i in range(len(combos[name]["bips"]))]
    rng.shuffle(ops)
    warm_kappa = list(kappas[0])
    c1, c2 = next(iter(bipartitions(EXPLORE_WARMUP_N)))
    return {"combos": combos, "ops": ops,
            "warmup": {"kappa": warm_kappa, "bip": [list(c1), list(c2)]}}


def make_inputs(workload: str, seed: int, ref: dict) -> dict:
    if workload == "catalogue":
        return catalogue_inputs(seed, ref)
    if workload == "decomp-cold":
        return decomp_cold_inputs(seed, ref)
    if workload == "explore":
        return explore_inputs(seed)
    raise ValueError(f"unknown workload {workload}")
