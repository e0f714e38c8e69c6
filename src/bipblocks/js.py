"""Hook-pair valuations, the refined dominance order, and the
decomposition-matrix solver for blocks of weight at most three.

Two bipartitions are connected by a hook pair when removing one rim hook
from each leaves the same bipartition and the hook hands share a residue.
Each pair carries a sign and an integer valuation, and summing them gives
the coefficient that feeds the column-by-column bound recursion. The
solver's table joins hooks on integer bead masks and builds no ``RimHook``.
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import combinations
from operator import ge

from .core import (
    Bipartition, InvariantError, Params, RimHook, dominates, ranked, residue,
    rim_hooks,
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


def _hook_data(b: Bipartition) -> list[RimHook]:
    """The rim hooks of b; each carries the bipartition its removal
    leaves as ``rest``."""
    return rim_hooks(b)


def _valuation(offset: int, p: Params) -> int:
    """The valuation of two same-component hooks with hands ``offset``
    contents apart: 1, or the largest power of charp > 0 dividing offset/e."""
    k = abs(offset) // p.e
    if k == 0:
        raise InvariantError("hook-pair valuation: two hooks share a hand")
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


def _pair_valuation(L: RimHook, N: RimHook, p: Params) -> int:
    """The valuation of a hook pair whose hands share a residue."""
    if L.component != N.component:
        return 1
    return _valuation(L.hand.col - L.hand.row - N.hand.col + N.hand.row, p)


def _epsilon(L: RimHook, N: RimHook) -> int:
    return -1 if (L.leg_length - N.leg_length) % 2 else 1


def _pairs_from_data(data_l, data_n, p: Params) -> list[HookPair]:
    # a bipartition has at most one hook per (rest, hand residue), the
    # valuation table's bucket key; equal rests imply equal hook lengths
    by_key = {(N.rest, residue(N.hand, p)): N for N in data_n}
    return [HookPair(L, N, _epsilon(L, N), _pair_valuation(L, N, p))
            for L in data_l
            if (N := by_key.get((L.rest, residue(L.hand, p)))) is not None]


def hook_pairs(lam: Bipartition, nu: Bipartition, p: Params) -> list[HookPair]:
    """All single-hook exchanges between two different bipartitions of
    equal size; b with itself is refused before any hook is built."""
    if lam.size != nu.size:
        raise ValueError("sizes must agree")
    if lam == nu:
        raise ValueError(f"hook pairs need two different bipartitions, "
                         f"got {lam} twice")
    return _pairs_from_data(_hook_data(lam), _hook_data(nu), p)


def dominating_pairs(lam: Bipartition, nu: Bipartition,
                     p: Params) -> list[HookPair]:
    """The hook pairs of a strictly dominating pair."""
    if lam == nu or not dominates(lam, nu):
        raise ValueError("first argument must strictly dominate the second")
    return hook_pairs(lam, nu, p)


def signed_sum(pairs) -> int:
    """The sum of epsilon times valuation over hook pairs."""
    return sum(pair.epsilon * pair.valuation for pair in pairs)


def js_valuation(lam: Bipartition, nu: Bipartition, p: Params) -> int:
    """Signed valuation sum over the hook pairs of a dominating pair."""
    return signed_sum(dominating_pairs(lam, nu, p))


def _valuation_table(members, p: Params) -> dict:
    """The nonzero signed valuation sums {(i, j): v}, i < j, of the hook
    pairs of ``members``, a block in canonical order (most dominant first).

    A join on bead masks, with k >= n beads per component. A hook of
    component a moves a bead x of {part_r + k - r} to a free y < x; its
    rest is the member's masks with bits x and y of a flipped, its hand
    content x - k, its leg the beads between y and x. Hooks of one rest and
    hand residue pair up, with epsilon the legs' parity and valuation 1
    across components, else ``_valuation`` of the hand contents.

    A bucket holds at most one hook per member, in member order, since a
    rest and its hook give back the member. Both members are a rest rho
    plus an L-hook, and the first dominates: in one component the hooks move
    beads y -> y+L and y' -> y'+L of rho, y > y', and {y+L, y'} majorizes
    {y'+L, y} whatever the common beads; a component-1 hook dominates a
    component-2 one through the interleaved key; and lexicographic order
    refines dominance. So no dominance is tested.
    """
    k = max((b.size for b in members), default=0)
    buckets = defaultdict(list)
    for i, m in enumerate(members):
        beads = [[q + k - r for r, q in enumerate(part, 1)] for part in m]
        # places below k - len hold beads; component 2 sits 2k places up
        whole = sum(sum((1 << x for x in bs), (1 << k - len(bs)) - 1) << s
                    for bs, s in zip(beads, (0, 2 * k)))
        for a, bs, s, kappa in zip((1, 2), beads, (0, 2 * k), p.kappa):
            for r, x in enumerate(bs, 1):
                res, moved, leg = (x - k + kappa) % p.e, whole ^ 1 << x + s, 0
                for y in range(x - 1, k - len(bs) - 1, -1):
                    if r + leg < len(bs) and bs[r + leg] == y:
                        leg += 1
                    else:
                        buckets[moved | 1 << y + s, res].append(
                            (i, a, leg, x - k))
    sums = defaultdict(int)
    try:
        for bucket in buckets.values():
            for (i, a1, l1, c1), (j, a2, l2, c2) in combinations(bucket, 2):
                v = _valuation(c1 - c2, p) if a1 == a2 else 1
                sums[i, j] += -v if (l1 - l2) % 2 else v
    except InvariantError as err:
        raise InvariantError(f"{err}: {members[i]} and {members[j]}") from None
    return {ij: v for ij, v in sums.items() if v}


@dataclass(frozen=True)
class JSOrder:
    """Reflexive-transitive closure of valuation-weighted dominance steps,
    over member indices: (i, j) when members[i] lies above members[j]."""

    members: tuple[Bipartition, ...]
    strict: frozenset[tuple[int, int]]

    @cached_property
    def _at(self) -> dict:
        return {m: i for i, m in enumerate(self.members)}

    def dominates(self, a: Bipartition, b: Bipartition) -> bool:
        at = self._at
        return a == b or (at.get(a), at.get(b)) in self.strict


def order_from_members(members, p: Params) -> JSOrder:
    members = ranked(members)[0]
    below = [set() for _ in members]
    # steps of later rows first: every step runs down the canonical order,
    # so none closes a cycle and each successor's set is already complete
    for i, j in sorted(_valuation_table(members, p), reverse=True):
        if j <= i:
            raise InvariantError(
                f"refined order: the step {members[i]} -> {members[j]} runs "
                "against the canonical order and could close a cycle")
        below[i] |= {j} | below[j]
    return JSOrder(members, frozenset((i, j) for i, reach in enumerate(below)
                                      for j in reach))


def _flag(j: int) -> str:
    return "clamped" if j >= 2 else "direct"


@dataclass(frozen=True)
class DecompMatrix:
    """A block's matrix, stored as its bound table: cell (r, c) has bound
    j, entry [j > 0] (a decomposition number of weight <= 3 is 0 or 1) and
    flag "clamped" iff j >= 2, else "direct". Every other view is derived."""

    block: BlockKey
    rows: tuple[Bipartition, ...]  # all members, most dominant first
    cols: tuple[Bipartition, ...]  # the restricted members
    jbounds: tuple[tuple[int, ...], ...]

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(int(j > 0) for j in r) for r in self.jbounds)

    @cached_property
    def flags(self) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(map(_flag, r)) for r in self.jbounds)

    @cached_property
    def _row_at(self) -> dict:
        return {b: r for r, b in enumerate(self.rows)}

    @cached_property
    def _col_at(self) -> dict:
        return {b: c for c, b in enumerate(self.cols)}

    def jbound(self, lam: Bipartition, mu: Bipartition) -> int:
        return self.jbounds[self._row_at[lam]][self._col_at[mu]]

    def entry(self, lam: Bipartition, mu: Bipartition) -> int:
        return int(self.jbound(lam, mu) > 0)

    def flag(self, lam: Bipartition, mu: Bipartition) -> str:
        return _flag(self.jbound(lam, mu))


def _solve_column(r: int, by_col, members, keys):
    """Entry, bound and flag of the rows that row r's column reaches.
    Rows are taken in decreasing index, and a row k with a positive bound
    adds the value v of each table step (i, k), listed in ``by_col[k]`` as
    (i, v), to row i's bound. Every step has i < k, so a row's bound is
    complete when it is taken; a row never reached has bound 0, and so do
    the rows below r."""
    mu, top = members[r], keys[r]
    dn, bounds, flags = {}, {}, {}
    acc, heap = {r: 1}, [-r]
    while heap:
        k = -heappop(heap)
        j = acc[k]
        if j < 0:
            raise InvariantError(
                f"column solve of {mu}: negative bound {j} at {members[k]}")
        if j > 0 and not all(map(ge, keys[k], top)):
            raise InvariantError(
                f"column solve of {mu}: nonzero bound {j} at {members[k]}, "
                "which does not dominate it")
        dn[k], bounds[k], flags[k] = int(j > 0), j, _flag(j)
        if j > 0:
            for i, v in by_col[k]:
                if i not in acc:
                    heappush(heap, -i)
                acc[i] = acc.get(i, 0) + v
    return dn, bounds, flags


def _require_certified(wt: int) -> None:
    if wt > 3:
        raise ValueError(f"unsupported weight {wt}: entries are only "
                         "certified up to weight 3")


def _solve(rows, keys, key: BlockKey, p: Params) -> DecompMatrix:
    """The matrix of the block ``key``, from its members in canonical
    order and their dominance keys."""
    at = [r for r, m in enumerate(rows) if is_restricted(m, p)[0]]
    # group the table by dominated row, the row a column solve pushes from
    by_col = [[] for _ in rows]
    for (i, j), v in _valuation_table(rows, p).items():
        by_col[j].append((i, v))
    table = [[0] * len(at) for _ in rows]
    for c, r in enumerate(at):
        for i, j in _solve_column(r, by_col, rows, keys)[1].items():
            table[i][c] = j
    jbounds = tuple(map(tuple, table))
    return DecompMatrix(key, rows, tuple(rows[r] for r in at), jbounds)


def matrix_from_members(members, p: Params) -> DecompMatrix:
    """Solve the bound recursion over an explicitly given block."""
    rows, keys = ranked(members)
    _require_certified(weight(rows[0], p))
    key = BlockKey(rows[0].size, content_counts(rows[0], p))
    return _solve(rows, keys, key, p)


def decomposition_matrix(key: BlockKey, p: Params) -> DecompMatrix:
    """The block's matrix. A block of weight above 3 is refused from its
    content, before any member is searched; the solve weighs no member."""
    _require_certified(block_weight(key, p))
    return _solve(*ranked(enumerate_block(key, p)), key, p)
