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
    Bipartition, InvariantError, Params, RimHook, dominance_key, dominates,
    residue, rim_hooks,
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


def _ranked(members) -> tuple[tuple[Bipartition, ...], list[tuple]]:
    """Canonical order, most dominant first, and each member's key."""
    ranked = sorted(((dominance_key(m), m) for m in members), reverse=True)
    return tuple(m for _, m in ranked), [k for k, _ in ranked]


def _valuation_table(members, keys, p: Params) -> dict:
    """The nonzero signed valuation sums {(i, j): v} of the dominating
    pairs of members, i < j: ``members`` in canonical order (most dominant
    first) and ``keys`` their dominance keys.

    A hash join: every hook is bucketed under (its rest, hand residue), and
    hooks are paired only within a bucket. Dominance is tested on the keys
    before any valuation of a member pair is taken.
    """
    buckets = defaultdict(list)
    for i, m in enumerate(members):
        for h, rest in _hook_data(m):
            buckets[(rest, residue(h.hand, p))].append((i, h))
    sums = defaultdict(int)
    for bucket in buckets.values():
        # a rest and its hook give back the member, so a bucket
        # holds at most one hook per member, in member order: i < j
        for (i, L), (j, N) in combinations(bucket, 2):
            if all(map(ge, keys[i], keys[j])):
                sums[i, j] += _epsilon(L, N) * _pair_valuation(L, N, p)
    return {ij: v for ij, v in sums.items() if v}


@dataclass(frozen=True)
class JSOrder:
    """Reflexive-transitive closure of valuation-weighted dominance steps."""

    members: tuple[Bipartition, ...]
    strict: frozenset[tuple[Bipartition, Bipartition]]

    def dominates(self, a: Bipartition, b: Bipartition) -> bool:
        return a == b or (a, b) in self.strict


def order_from_members(members, p: Params) -> JSOrder:
    members, keys = _ranked(members)
    below = [set() for _ in members]
    # steps of later rows first: every step runs down the canonical order,
    # so none closes a cycle and each successor's set is already complete
    for i, j in sorted(_valuation_table(members, keys, p), reverse=True):
        if j <= i:
            raise InvariantError(
                f"refined order: the step {members[i]} -> {members[j]} runs "
                "against the canonical order and could close a cycle")
        below[i] |= {j} | below[j]
    strict = frozenset((members[i], members[j])
                       for i, reach in enumerate(below) for j in reach)
    return JSOrder(members, strict)


def _flag(j: int) -> str:
    return "clamped" if j >= 2 else "direct"


@dataclass(frozen=True)
class DecompMatrix:
    """A block's matrix, stored as its bound table: cell (r, c) has bound
    j, entry [j > 0] (a decomposition number of weight <= 3 is 0 or 1) and
    flag "clamped" iff j >= 2, else "direct". Entries and flags are derived."""

    block: BlockKey
    rows: tuple[Bipartition, ...]  # all members, most dominant first
    cols: tuple[Bipartition, ...]  # the restricted members
    jbounds: tuple[tuple[int, ...], ...]

    entries: tuple = field(init=False, repr=False, compare=False)
    flags: tuple = field(init=False, repr=False, compare=False)
    # position of each row and column, for O(1) cell lookups
    _row_at: dict = field(init=False, repr=False, compare=False)
    _col_at: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        derived = {"entries": lambda j: int(j > 0), "flags": _flag}
        for name, cell in derived.items():
            object.__setattr__(self, name, tuple(tuple(map(cell, r))
                                                 for r in self.jbounds))
        object.__setattr__(self, "_row_at",
                           {b: r for r, b in enumerate(self.rows)})
        object.__setattr__(self, "_col_at",
                           {b: c for c, b in enumerate(self.cols)})

    def entry(self, lam: Bipartition, mu: Bipartition) -> int:
        return self.entries[self._row_at[lam]][self._col_at[mu]]

    def jbound(self, lam: Bipartition, mu: Bipartition) -> int:
        return self.jbounds[self._row_at[lam]][self._col_at[mu]]

    def flag(self, lam: Bipartition, mu: Bipartition) -> str:
        return self.flags[self._row_at[lam]][self._col_at[mu]]


def _solve_column(r: int, by_row, members, keys):
    """Entry, bound and flag of rows r..0 of row r's column. Rows below r
    are 0, since every table step (i, j) has i < j."""
    mu = members[r]
    dn, bounds, flags = {r: 1}, {r: 1}, {r: "direct"}
    for i in range(r - 1, -1, -1):
        j = sum(v for k, v in by_row[i] if dn.get(k))
        if j < 0:
            raise InvariantError(
                f"column solve of {mu}: negative bound {j} at {members[i]}")
        if j > 0 and not all(map(ge, keys[i], keys[r])):
            raise InvariantError(
                f"column solve of {mu}: nonzero bound {j} at {members[i]}, "
                "which does not dominate it")
        dn[i], bounds[i], flags[i] = int(j > 0), j, _flag(j)
    return dn, bounds, flags


def _require_certified(wt: int) -> None:
    if wt > 3:
        raise ValueError(f"unsupported weight {wt}: entries are only "
                         "certified up to weight 3")


def matrix_from_members(members, p: Params) -> DecompMatrix:
    """Solve the bound recursion over an explicitly given block."""
    rows, keys = _ranked(members)
    _require_certified(weight(rows[0], p))
    at = [r for r, m in enumerate(rows) if is_restricted(m, p)[0]]
    # group the table by dominating row so each column scan is linear
    by_row = [[] for _ in rows]
    for (i, j), v in _valuation_table(rows, keys, p).items():
        by_row[i].append((j, v))
    bounds = [_solve_column(r, by_row, rows, keys)[1] for r in at]
    jbounds = tuple(tuple(col.get(i, 0) for col in bounds)
                    for i in range(len(rows)))
    key = BlockKey(rows[0].size, content_counts(rows[0], p))
    return DecompMatrix(key, rows, tuple(rows[r] for r in at), jbounds)


def decomposition_matrix(key: BlockKey, p: Params) -> DecompMatrix:
    """The block's matrix. A block of weight above 3 is refused before its
    members are enumerated."""
    _require_certified(block_weight(key, p))
    return matrix_from_members(enumerate_block(key, p), p)
