"""Shared strategies and cached enumerations for the test suite."""

from functools import lru_cache

from hypothesis import strategies as st

from bipblocks.core import (
    Bipartition, InvariantError, Node, Params, Partition, RimHook,
    _beta_set, add_node, bipartitions, canonical_sort, dominance_key,
    dominates, remove_node,
)
from bipblocks.abacus import display, from_display, gamma_vector, transfer_bead
from bipblocks.blocks import (
    BlockKey, _apply_label, _reduce_display, _rows, _xy_sets, block_key,
    enumerate_block, swap_components, weight_trace,
)
from bipblocks.crystal import is_restricted, signature
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


# Cell-level definitions: the diagram, conjugation of a cell, and
# e-restrictedness of one partition.

def diagram(b: Bipartition) -> set[Node]:
    return {Node(r, c, a) for a in (1, 2)
            for r, width in enumerate(b.comp(a), start=1)
            for c in range(1, width + 1)}


def conjugate_node(node: Node) -> Node:
    """Image of a cell under conjugation (transpose, other component)."""
    return Node(node.col, node.row, 3 - node.component)


def is_e_restricted(part: Partition, e: int) -> bool:
    """Consecutive part differences (last part included) all below e."""
    if e < 2:
        raise ValueError("e must be at least 2")
    part = Partition(part)
    return all(part.row(r) - part.row(r + 1) < e
               for r in range(1, len(part) + 1))


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


# Partitions the package builds with the unchecked ``Partition._of``.

def is_checked(b: Bipartition) -> bool:
    """Both components are partitions equal to their checked rebuild:
    weakly decreasing, positive, no trailing zeros."""
    return all(isinstance(q, Partition) and q == Partition(tuple(q))
               for q in b)


# The beta-set rebuild of each rim hook's rest that core.rim_hooks
# replaced by arithmetic on the parts, kept as its oracle.

def rim_hooks_by_beta(b: Bipartition) -> list[RimHook]:
    out = []
    for a in (1, 2):
        part = b.comp(a)
        k = len(part)
        beta = _beta_set(part, k)
        for r, x in enumerate(sorted(beta, reverse=True), start=1):
            hand, leg = Node(r, x - k + r, a), 0
            for y in range(x - 1, -1, -1):
                if y in beta:
                    leg += 1
                    continue
                vals = sorted((beta - {x}) | {y}, reverse=True)
                smaller = Partition(v - k + s for s, v in enumerate(vals, 1))
                rest = (Bipartition(smaller, b.comp2) if a == 1
                        else Bipartition(b.comp1, smaller))
                out.append(RimHook(hand, leg, a, x - y, rest))
    return out


# The member search that blocks._members prunes with a content test,
# kept as its oracle: every component-1 candidate gets a component-2
# search.

def members_unpruned(key: BlockKey, p: Params):
    counts = list(key.content)
    k1, k2 = p.kappa
    for m in range(key.n + 1):
        for c1 in _rows(m, m, 1, k1, counts, p.e):
            for c2 in _rows(key.n - m, key.n - m, 1, k2, counts, p.e):
                yield Bipartition(Partition(c1), Partition(c2))


# The label path that blocks._family replaced, kept as its oracle: the
# labels are built on the reduced display of a member, at the bicharge of
# that member's size, in each component order whose reduction reaches a
# single low runner.

def labels_by_reduction(member: Bipartition, p: Params,
                        wt: int) -> dict[bool, list[tuple]]:
    """``(kind, args, bipartition)`` of every label, keyed by ``swapped``."""
    out = {}
    for swapped in (False, True):
        q = p.swap() if swapped else p
        m = swap_components(member) if swapped else member
        d, _, _, _ = _reduce_display(display(m, q))
        xs, ys = _xy_sets(gamma_vector(d))
        if len(ys) != 1:
            continue
        xi_d = transfer_bead(d, 2, next(iter(ys)))
        zs = sorted(xs | ys)
        comp = sorted(set(range(q.e)) - set(zs))
        specs = []
        if wt == 1:
            specs = [("down", (z,)) for z in zs]
        else:
            for z in zs:
                for x in range(q.e):
                    for a in (1, 2):
                        specs.append(("hook", (z, x, a)))
            specs += [("down", (x,)) for x in comp]
            for wi in range(len(zs)):
                for zi in range(wi + 1, len(zs)):
                    for y in comp:
                        specs.append(("downdownup", (zs[wi], zs[zi], y)))
        labels = []
        for kind, args in specs:
            b = from_display(_apply_label(xi_d, kind, args))
            labels.append((kind, args, swap_components(b) if swapped else b))
        out[swapped] = labels
    return out


# The diamond by cases, the oracle of crystal.mu_diamond: strip good nodes
# (smallest residue first) while the abacus weight is above one, replace a
# weight-1 base by the one minimal block member that strictly dominates
# it, then add the anticogood nodes of the stripped residues in reverse
# order.

def weight_one_diamond(xi: Bipartition, p: Params) -> Bipartition:
    members = enumerate_block(block_key(xi, p)[0], p)
    above = [m for m in members if m != xi and dominates(m, xi)]
    if not above:
        raise ValueError("not restricted: dominance-maximal in its block")
    minimal = [m for m in above
               if not any(c != m and dominates(m, c) for c in above)]
    if len(minimal) != 1:
        raise InvariantError(
            f"diamond: {len(minimal)} minimal members of the weight-1 block "
            f"of {xi} dominate it, not one")
    return minimal[0]


def diamond_by_weight(mu: Bipartition, p: Params) -> Bipartition:
    cur, residues = mu, []
    while (wt := weight_trace(cur, p).total) > 1:
        i, good = next((i, rep.good) for i in range(p.e)
                       if (rep := signature(cur, i, p)).good is not None)
        cur = remove_node(cur, good)
        residues.append(i)
    if wt == 1:
        cur = weight_one_diamond(cur, p)
    for i in reversed(residues):
        cur = add_node(cur, signature(cur, i, p).anticogood)
    return cur
