"""Hook-pair valuations, the refined dominance order, and the
decomposition-matrix solver for blocks of weight at most three.

Two bipartitions are connected by a hook pair when removing one rim hook
from each leaves the same bipartition and the hook hands share a residue.
Each pair carries a sign and an integer valuation, and summing them gives
the coefficient that feeds the column-by-column bound recursion.
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from operator import ge

from .core import (
    Bipartition, InvariantError, Params, RimHook, canonical_sort,
    dominance_key, dominates, residue, rim_hooks,
)
from .blocks import (
    BlockKey, block_weight, content_counts, enumerate_block, weight,
)
from .crystal import is_restricted


class CharacteristicWarning(UserWarning):
    """A valuation step whose value depends on the characteristic."""


@dataclass(frozen=True)
class HookPair:
    L: RimHook
    N: RimHook
    epsilon: int
    valuation: int


def _hook_data(b: Bipartition):
    """Per rim hook: the hook and the bipartition its removal leaves."""
    return [(h, h.rest) for h in rim_hooks(b)]


def _pair_valuation(L: RimHook, N: RimHook, p: Params) -> int:
    hl, hn = L.hand, N.hand
    if L.component != N.component:
        return 1 if residue(hl, p) == residue(hn, p) else 0
    offset = (hl.col - hl.row) - (hn.col - hn.row)
    if offset % p.e != 0:
        return 0
    k = abs(offset) // p.e
    if k == 0:
        raise InvariantError(
            f"hook-pair valuation: hooks {L.nodes} and {N.nodes} share the "
            f"hand {hl}, which forces equal bipartitions")
    if k == 1:
        return 1
    if p.charp == 0:
        return 1
    mult = 1
    while k % p.charp == 0:
        mult *= p.charp
        k //= p.charp
    if mult > 1:
        warnings.warn(
            f"valuation {mult} at offset {offset} depends on the "
            f"characteristic {p.charp}", CharacteristicWarning)
    return mult


def _epsilon(L: RimHook, N: RimHook) -> int:
    return -1 if (L.leg_length - N.leg_length) % 2 else 1


def _pairs_from_data(data_l, data_n, p: Params) -> list[HookPair]:
    out = []
    # equal sizes and equal rests imply equal hook lengths
    for L, rest_l in data_l:
        for N, rest_n in data_n:
            if rest_l != rest_n:
                continue
            if residue(L.hand, p) != residue(N.hand, p):
                continue
            out.append(HookPair(L, N, _epsilon(L, N),
                                _pair_valuation(L, N, p)))
    return out


def hook_pairs(lam: Bipartition, nu: Bipartition, p: Params) -> list[HookPair]:
    """All single-hook exchanges between two bipartitions of equal size."""
    if lam.size != nu.size:
        raise ValueError("sizes must agree")
    return _pairs_from_data(_hook_data(lam), _hook_data(nu), p)


def js_valuation(lam: Bipartition, nu: Bipartition, p: Params) -> int:
    """Signed valuation sum over the hook pairs of a dominating pair."""
    if lam == nu or not dominates(lam, nu):
        raise ValueError("first argument must strictly dominate the second")
    return sum(pair.epsilon * pair.valuation
               for pair in hook_pairs(lam, nu, p))


def _valuation_table(members, p: Params) -> dict:
    """The nonzero signed valuation sums of the dominating pairs (a, b),
    a before b in ``members`` (canonical order, most dominant first).

    A hash join: every hook is bucketed under (its rest, hand residue), and
    hooks are paired only within a bucket. Each member's dominance key is
    computed once, and dominance is tested on the keys before any
    valuation of a member pair is taken.
    """
    buckets = defaultdict(list)
    for i, m in enumerate(members):
        for h, rest in _hook_data(m):
            buckets[(rest, residue(h.hand, p))].append((i, h))
    keys = [dominance_key(m) for m in members]
    sums = defaultdict(int)
    for bucket in buckets.values():
        # a rest and its hook give back the member, so a bucket
        # holds at most one hook per member, in member order: i < j
        for (i, L), (j, N) in combinations(bucket, 2):
            if all(map(ge, keys[i], keys[j])):
                sums[i, j] += _epsilon(L, N) * _pair_valuation(L, N, p)
    return {(members[i], members[j]): v
            for (i, j), v in sorted(sums.items()) if v}


@dataclass(frozen=True)
class JSOrder:
    """Reflexive-transitive closure of valuation-weighted dominance steps."""

    members: tuple[Bipartition, ...]
    strict: frozenset[tuple[Bipartition, Bipartition]]

    def dominates(self, a: Bipartition, b: Bipartition) -> bool:
        return a == b or (a, b) in self.strict


def order_from_members(members, p: Params) -> JSOrder:
    members = canonical_sort(members)
    edges = {m: [] for m in members}
    for a, b in _valuation_table(members, p):
        edges[a].append(b)
    below = {}
    for m in reversed(members):  # ascending dominance: successors first
        reach = set()
        for b in edges[m]:
            # every edge runs down the canonical order, so none closes a
            # cycle and every successor is already done
            if b not in below:
                raise InvariantError(
                    f"refined order: the step {m} -> {b} runs against the "
                    "canonical order and could close a cycle")
            reach.add(b)
            reach |= below[b]
        below[m] = reach
    strict = frozenset((a, b) for a in members for b in below[a])
    return JSOrder(tuple(members), strict)


@dataclass(frozen=True)
class DecompMatrix:
    block: BlockKey
    rows: tuple[Bipartition, ...]  # all members, most dominant first
    cols: tuple[Bipartition, ...]  # the restricted members
    entries: tuple[tuple[int, ...], ...]
    jbounds: tuple[tuple[int, ...], ...]
    flags: tuple[tuple[str, ...], ...]

    # position of each row and column, for O(1) cell lookups
    _row_at: dict = field(init=False, repr=False, compare=False)
    _col_at: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_row_at",
                           {b: r for r, b in enumerate(self.rows)})
        object.__setattr__(self, "_col_at",
                           {b: c for c, b in enumerate(self.cols)})

    def _at(self, lam: Bipartition, mu: Bipartition) -> tuple[int, int, str]:
        r, c = self._row_at[lam], self._col_at[mu]
        return self.entries[r][c], self.jbounds[r][c], self.flags[r][c]

    def entry(self, lam: Bipartition, mu: Bipartition) -> int:
        return self._at(lam, mu)[0]

    def jbound(self, lam: Bipartition, mu: Bipartition) -> int:
        return self._at(lam, mu)[1]

    def flag(self, lam: Bipartition, mu: Bipartition) -> str:
        return self._at(lam, mu)[2]


def _solve_column(ascending, by_row, mu, p: Params):
    dn, bounds, flags = {}, {}, {}
    for lam in ascending:
        if lam == mu:
            dn[lam], bounds[lam], flags[lam] = 1, 1, "direct"
            continue
        j = sum(v * dn[nu] for nu, v in by_row[lam].items() if dn[nu])
        if j < 0:
            raise InvariantError(
                f"column solve of {mu}: negative bound {j} at {lam}")
        if j > 0 and not dominates(lam, mu):
            raise InvariantError(
                f"column solve of {mu}: nonzero bound {j} at {lam}, which "
                "does not dominate it")
        dn[lam] = 1 if j > 0 else 0
        bounds[lam] = j
        flags[lam] = "clamped" if j >= 2 else "direct"
    return dn, bounds, flags


def _require_certified(wt: int) -> None:
    if wt > 3:
        raise ValueError(f"unsupported weight {wt}: entries are only "
                         "certified up to weight 3")


def matrix_from_members(members, p: Params) -> DecompMatrix:
    """Solve the bound recursion over an explicitly given block."""
    rows = tuple(canonical_sort(members))
    _require_certified(weight(rows[0], p))
    cols = tuple(m for m in rows if is_restricted(m, p)[0])
    # group the table by dominating member so each column scan is linear
    by_row = {m: {} for m in rows}
    for (a, b), v in _valuation_table(rows, p).items():
        by_row[a][b] = v
    ascending = tuple(reversed(rows))
    solved = [_solve_column(ascending, by_row, mu, p) for mu in cols]
    entries = tuple(tuple(solved[c][0][lam] for c in range(len(cols)))
                    for lam in rows)
    jbounds = tuple(tuple(solved[c][1][lam] for c in range(len(cols)))
                    for lam in rows)
    flags = tuple(tuple(solved[c][2][lam] for c in range(len(cols)))
                  for lam in rows)
    key = BlockKey(rows[0].size, content_counts(rows[0], p))
    return DecompMatrix(key, rows, cols, entries, jbounds, flags)


def decomposition_matrix(key: BlockKey, p: Params) -> DecompMatrix:
    """The block's matrix. A block of weight above 3 is refused before its
    members are enumerated."""
    _require_certified(block_weight(key, p))
    return matrix_from_members(enumerate_block(key, p), p)
