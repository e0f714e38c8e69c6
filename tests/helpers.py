"""Shared strategies and cached enumerations for the test suite."""

from functools import lru_cache

from hypothesis import strategies as st

from bipblocks.core import Bipartition, Node, Params, bipartitions


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
