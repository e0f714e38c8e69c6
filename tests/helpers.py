"""Shared strategies and cached enumerations for the test suite."""

from functools import lru_cache

from hypothesis import strategies as st

from bipblocks.core import (
    Bipartition, InvariantError, Node, Params, bipartitions, canonical_sort,
    dominance_key, dominates,
)
from bipblocks.crystal import is_restricted
from bipblocks.js import _valuation_table


@lru_cache(maxsize=None)
def bips_of(n):
    return tuple(bipartitions(n))


def small_bips(max_n=8):
    return st.integers(0, max_n).flatmap(lambda n: st.sampled_from(bips_of(n)))


def bip_pairs(max_n=6):
    """Pairs of bipartitions of equal size."""
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(st.sampled_from(bips_of(n)),
                            st.sampled_from(bips_of(n))))


def params_st(max_e=4):
    return st.tuples(st.integers(2, max_e), st.integers(0, max_e - 1),
                     st.integers(0, max_e - 1)).map(
        lambda t: Params.make(t[0], (t[1] % t[0], t[2] % t[0])))


# Diagram definitions of the boundary, kept as oracles for core.corners.

def addable_nodes(b: Bipartition) -> list[Node]:
    """Addable cells, component 1 first, ascending row."""
    out = []
    for a in (1, 2):
        part = b.comp(a)
        for r in range(1, len(part) + 2):
            c = part.row(r) + 1
            if part.row(r - 1) >= c or r == 1:
                out.append(Node(r, c, a))
    return out


def removable_nodes(b: Bipartition) -> list[Node]:
    """Removable cells, component 1 first, ascending row."""
    out = []
    for a in (1, 2):
        part = b.comp(a)
        for r in range(1, len(part) + 1):
            if part.row(r) > part.row(r + 1):
                out.append(Node(r, part.row(r), a))
    return out


# The row-wise dominance test that core.dominance_key replaced, kept as an
# oracle for core.dominates.

def partial_sums(b: Bipartition, count: int) -> list[int]:
    """Interleaved dominance partial sums (2*count entries)."""
    out = []
    s1 = 0
    s2 = b.comp1.size
    for r in range(1, count + 1):
        s1 += b.comp1.row(r)
        s2 += b.comp2.row(r)
        out.append(s1)
        out.append(s2)
    return out


def dominates_by_rows(a: Bipartition, b: Bipartition) -> bool:
    n = max(len(a.comp1), len(a.comp2), len(b.comp1), len(b.comp2))
    pa, pb = partial_sums(a, n), partial_sums(b, n)
    return all(x >= y for x, y in zip(pa, pb))


# The solver that js.matrix_from_members replaced, kept as its oracle: it
# keys the table and each column by bipartition, solves every row of every
# column, and tests each nonzero bound with core.dominates.

def _solve_column_by_bips(ascending, by_row, mu):
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


def matrix_by_bips(members, p: Params):
    """(rows, cols, entries, jbounds, flags) of the block's matrix."""
    rows = tuple(canonical_sort(members))
    cols = tuple(m for m in rows if is_restricted(m, p)[0])
    by_row = {m: {} for m in rows}
    keys = [dominance_key(m) for m in rows]
    for (i, j), v in _valuation_table(rows, keys, p).items():
        by_row[rows[i]][rows[j]] = v
    ascending = tuple(reversed(rows))
    solved = [_solve_column_by_bips(ascending, by_row, mu) for mu in cols]
    tables = (tuple(tuple(solved[c][t][lam] for c in range(len(cols)))
                    for lam in rows) for t in range(3))
    return (rows, cols, *tables)
