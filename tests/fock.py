"""The canonical basis of the level-2 Fock space: an oracle for the
decomposition matrices at characteristic 0.

By Ariki's theorem (J. Math. Kyoto Univ. 36, 1996), over C the
decomposition numbers are the values at v = 1 of the canonical basis
G(mu) of the level-2 Fock space. G(mu) is computed as by Lascoux, Leclerc
and Thibon (Comm. Math. Phys. 181, 1996), at level 2 as by Fayers
(J. Pure Appl. Algebra 214, 2010): a bar-invariant vector A(mu) is built
from the empty bipartition by divided powers of the f_i, then reduced by
bar-invariant multiples of canonical basis vectors G(lambda).

A Laurent polynomial in v is a dict {power: coefficient} without zero
terms; a vector is a dict {bipartition: polynomial}. The solver's entry at
row lambda and column mu is the coefficient of lambda in G(mu) at v = 1.

Run as a script, this module checks the larger ranges, which Tier-1 leaves
out, and prints one line per range:

    PYTHONPATH=src python tests/fock.py
"""

import time
from collections import defaultdict
from heapq import heapify, heappop, heappush
from itertools import combinations

from bipblocks.core import (
    Bipartition, Params, Partition, bipartitions, corners, dominance_key,
    dominates,
)
from bipblocks.blocks import content_counts, family_from_type_params, weight
from bipblocks.crystal import _cancel, is_restricted
from bipblocks.js import matrix_from_members

ONE = {0: 1}


def _times(a: dict, b: dict) -> dict:
    out = defaultdict(int)
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] += x * y
    return {k: c for k, c in out.items() if c}


def _add_to(vec: dict, b: Bipartition, poly: dict, scale: int = 1) -> None:
    """vec[b] += scale * poly, dropping what cancels."""
    cur = dict(vec.get(b, {}))
    for k, c in poly.items():
        cur[k] = cur.get(k, 0) + scale * c
        if not cur[k]:
            del cur[k]
    if cur:
        vec[b] = cur
    else:
        vec.pop(b, None)


def _bar_part(poly: dict) -> dict:
    """The bar-invariant part whose removal leaves poly in vZ[v]: the
    constant term, and c(v^k + v^-k) for each term c v^-k."""
    out = {k: c for k, c in poly.items() if k <= 0}
    for k, c in poly.items():
        if k < 0:
            out[-k] = c
    return out


def _grow(b: Bipartition, cells) -> Bipartition:
    """b with the addable cells (component, row, ...) added, one a row."""
    comps = [list(b.comp1), list(b.comp2)]
    for a, r, *_ in cells:
        parts = comps[a - 1]
        if r > len(parts):
            parts.append(0)
        parts[r - 1] += 1
    return Bipartition(Partition(comps[0]), Partition(comps[1]))


def f_divided(vec: dict, i: int, a: int, p: Params) -> dict:
    """f_i^(a) of a vector. On a bipartition it is the sum over the
    a-sets S of addable i-nodes of v^N (b with S added), where N sums, over
    the nodes of S, the addable i-nodes after it that are not in S minus
    the removable i-nodes after it, "after" in the reading order of
    ``corners``."""
    out = {}
    for b, poly in vec.items():
        cells = [c for c in corners(b, p) if c[3] == i]
        adds = [t for t, c in enumerate(cells) if c[4] == "+"]
        for chosen in combinations(adds, a):
            power = 0
            for t in chosen:
                for u in range(t + 1, len(cells)):
                    if cells[u][4] == "-":
                        power -= 1
                    elif u not in chosen:
                        power += 1
            _add_to(out, _grow(b, [cells[t] for t in chosen]),
                    {k + power: c for k, c in poly.items()})
    return out


def ladder(mu: Bipartition, p: Params) -> list[tuple[int, int]]:
    """The steps (i, a) from mu down to the empty bipartition: each
    removes all a normal i-nodes of the smallest residue i that has one."""
    comps, steps = [list(mu.comp1), list(mu.comp2)], []
    while any(comps):
        # each residue's ``corners`` entries, grouped here: the strip's
        # own kept signatures are what this oracle checks
        raws = [[] for _ in range(p.e)]
        for entry in corners(comps, p):
            raws[entry[3]].append(entry)
        for i, raw in enumerate(raws):
            normal = [x for x in _cancel(raw, "-", "+") if x[4] == "-"]
            if normal:
                break
        else:
            raise ValueError(f"{mu} is not restricted: no normal node left "
                             f"at {comps}")
        for a, r, *_ in normal:
            comps[a - 1][r - 1] -= 1
        for parts in comps:
            while parts and parts[-1] == 0:
                parts.pop()
        steps.append((i, len(normal)))
    return steps


def a_vector(mu: Bipartition, p: Params) -> dict:
    """A(mu): the ladder's divided powers applied to the empty
    bipartition, the last step removed first applied."""
    vec = {Bipartition(Partition(), Partition()): ONE}
    for i, a in reversed(ladder(mu, p)):
        vec = f_divided(vec, i, a, p)
    return vec


def canonical(mu: Bipartition, p: Params, memo: dict) -> dict:
    """G(mu) of a restricted mu. ``memo`` holds the G already found under
    p. The support of A(mu) is walked in increasing ``dominance_key``
    order; below mu in that order nothing is left, above it only
    coefficients in vZ[v] at bipartitions that dominate mu."""
    if mu in memo:
        return memo[mu]
    vec = a_vector(mu, p)
    heap = [(dominance_key(b), b) for b in vec]
    heapify(heap)
    done = set()
    while heap:
        _, lam = heappop(heap)
        if lam in done or lam not in vec:
            continue
        done.add(lam)
        coeff = vec[lam]
        if lam == mu:
            if coeff != ONE:
                raise ValueError(f"G({mu}) under {p}: coefficient {coeff} "
                                 "at mu after the reduction")
            continue
        if dominates(lam, mu):
            part = _bar_part(coeff)
        elif coeff != {-k: c for k, c in coeff.items()}:
            raise ValueError(f"G({mu}) under {p}: {lam} does not dominate "
                             f"mu, and its coefficient {coeff} is not "
                             "bar-invariant")
        else:
            part = coeff
        if not part:
            continue
        if not is_restricted(lam, p)[0]:
            raise ValueError(f"G({mu}) under {p}: the reduction subtracts "
                             f"G({lam}), which is not restricted")
        for nu, poly in canonical(lam, p, memo).items():
            _add_to(vec, nu, _times(part, poly), -1)
            heappush(heap, (dominance_key(nu), nu))
    memo[mu] = vec
    return vec


def compare(members, p: Params, memo: dict) -> tuple[int, int, list[str]]:
    """(cells, clamped cells, problems) of the solver's matrix of a block
    at characteristic 0 against the canonical basis. A problem names the
    block and the cell."""
    m = matrix_from_members(members, p)
    rows, problems, clamped = set(m.rows), [], 0
    for c, mu in enumerate(m.cols):
        g = canonical(mu, p, memo)
        where = f"block {m.block} under {p}, column {mu}"
        if g.get(mu) != ONE or set(g) - rows:
            problems.append(f"{where}: G(mu) at mu is {g.get(mu)}, support "
                            f"outside the block {sorted(set(g) - rows)}")
        for r, lam in enumerate(m.rows):
            poly = g.get(lam, {})
            value = sum(poly.values())
            if lam != mu and poly and min(poly) < 1:
                problems.append(f"{where}: {lam} has {poly}, not in vZ[v]")
            if value not in (0, 1):
                problems.append(f"{where}: {lam} has the value {value}")
            if value != m.entries[r][c]:
                problems.append(f"{where}: {lam} has the value {value}, "
                                f"the solver {m.entries[r][c]}")
            clamped += m.jbounds[r][c] >= 2
    return len(m.rows) * len(m.cols), clamped, problems


def small_blocks(max_n: int, es):
    """(members, p) of every nonempty block of weight <= 3 with
    1 <= n <= max_n, e in ``es`` and every kappa = (0, k)."""
    for e in es:
        for k in range(e):
            p = Params.make(e, (0, k))
            for n in range(1, max_n + 1):
                groups = defaultdict(list)
                for b in bipartitions(n):
                    groups[content_counts(b, p)].append(b)
                for members in groups.values():
                    if weight(members[0], p) <= 3:
                        yield members, p


def ladder_block(e: int):
    """The type-III block at the window (0, 1, 1, 2, 3)."""
    fam = family_from_type_params("III", e, (0, 1, 1, 2, 3))
    return fam.members(), fam.params


def catalogue_blocks(specs):
    """The blocks of the catalogue cases at their default windows."""
    for spec in specs:
        fam = family_from_type_params(spec.block_type, spec.default_e,
                                      spec.default_window)
        yield fam.members(), fam.params


def sweep_blocks(max_e: int):
    """Every distinct block of the catalogue sweep to e = max_e: each
    case at each window with 0 <= i < e on its chain and conditions."""
    from bipblocks.cli import CASES, _case_namespace, _eval
    from test_catalogue_sweep import windows
    seen = set()
    for spec in CASES.values():
        for e in range(2, max_e + 1):
            for w in windows(spec.block_type, e):
                if (spec.block_type, e, w) in seen or not _eval(
                        spec.conditions, _case_namespace(spec, e, w)):
                    continue
                seen.add((spec.block_type, e, w))
                fam = family_from_type_params(spec.block_type, e, w)
                yield fam.members(), fam.params


def run(blocks) -> tuple[int, int, int, list[str]]:
    """(blocks, cells, clamped, problems) over distinct blocks."""
    memos, seen, totals, problems = {}, set(), [0, 0, 0], []
    for members, p in blocks:
        block = (frozenset(members), p)
        if block in seen:
            continue
        seen.add(block)
        cells, clamped, found = compare(members, p, memos.setdefault(p, {}))
        totals[0] += 1
        totals[1] += cells
        totals[2] += clamped
        problems += found
    return (*totals, problems)


if __name__ == "__main__":
    from bipblocks.cli import CASES
    ranges = [
        ("weight <= 3, n <= 10, e <= 4, kappa = (0, k)",
         lambda: small_blocks(10, (2, 3, 4))),
        ("weight <= 3, n <= 10, e = 5, kappa = (0, k)",
         lambda: small_blocks(10, (5,))),
        ("the blocks of the 34 default catalogue cases",
         lambda: catalogue_blocks(CASES.values())),
        ("every distinct block of the e <= 5 catalogue sweep",
         lambda: sweep_blocks(5)),
    ] + [(f"the type-III ladder at e = {e}", lambda e=e: [ladder_block(e)])
         for e in (5, 7, 9, 11)]
    for name, blocks in ranges:
        start = time.perf_counter()
        count, cells, clamped, problems = run(blocks())
        print(f"{name}: {count} blocks, {cells} cells, {clamped} clamped, "
              f"{len(problems)} mismatches, "
              f"{time.perf_counter() - start:.2f} s")
        for line in problems[:10]:
            print("  " + line)
