"""Shared strategies and cached enumerations for the test suite."""

from collections import defaultdict
from functools import lru_cache
from itertools import combinations
from operator import ge

from hypothesis import strategies as st

from bipblocks.core import (
    EMPTY_BIP, Bipartition, InvariantError, Node, Params, Partition, RimHook,
    _beta_set, add_node, bipartitions, canonical_sort, corners, dominance_key,
    dominates, remove_node, residue,
)
from bipblocks.abacus import (
    AbacusDisplay, Bicharge, canonical_bicharge, display, from_display,
    gamma_vector, push_down_lowest, to_display, transfer_bead,
)
from bipblocks.blocks import (
    BlockKey, _reduce_display, _rows, _xy_sets, block_key, enumerate_block,
    swap_components, weight_trace,
)
from bipblocks.cli import _bip_doc, _key_doc
from bipblocks.crystal import StripTrace, is_restricted, signature
from bipblocks import js
from bipblocks.js import HookPair


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


# Cell-level definitions: the diagram, conjugation of a cell and of a
# partition, and e-restrictedness of one partition.

def diagram(b: Bipartition) -> set[Node]:
    return {Node(r, c, a) for a in (1, 2)
            for r, width in enumerate(b.comp(a), start=1)
            for c in range(1, width + 1)}


def conjugate_node(node: Node) -> Node:
    """Image of a cell under conjugation (transpose, other component)."""
    return Node(node.col, node.row, 3 - node.component)


def conjugate_by_columns(part: Partition) -> tuple[int, ...]:
    """The column lengths of a partition, one count per column: the
    definition that Partition.conjugate replaced, kept as its oracle."""
    return tuple(sum(1 for x in part if x >= c)
                 for c in range(1, (part[0] if part else 0) + 1))


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


# The boundary count that blocks.block_key replaced by the content
# identity, kept as its oracle: removable minus addable nodes per residue.

def delta_by_corners(b: Bipartition, p: Params) -> tuple[int, ...]:
    out = [0] * p.e
    for _, _, _, i, sign in corners(b, p):
        out[i] += 1 if sign == "-" else -1
    return tuple(out)


# The pairwise gamma-gap searches that blocks._swap_candidates and
# blocks._xy_sets replaced by one pass over the gamma vector, kept as their
# oracle: the lexicographically largest (gap, x, y) with a gap of at least
# 3, and the runners of the gaps of exactly 2.

def swap_candidates_pairwise(g: dict[int, int]):
    best = None
    for x, gx in g.items():
        for y, gy in g.items():
            if gx - gy >= 3:
                cand = (gx - gy, x, y)
                if best is None or cand > best:
                    best = cand
    return best


def xy_sets_pairwise(g: dict[int, int]):
    xs = {x for x in g for y in g if g[x] - g[y] == 2}
    ys = {y for y in g for x in g if g[x] - g[y] == 2}
    return frozenset(xs), frozenset(ys)


# The type II branches that blocks.family_from_type_params and
# blocks._z_from_params replaced by the type IV formulas at m = e+i-1, kept
# as their oracle: the nucleus, kappa and Z-set of the window (i, j, k, l).

def type_ii_by_own_formulas(e: int, window) -> tuple:
    i, j, k, l = window
    xi = Bipartition(Partition((e + i - l - 1,) * (j - i + 1)), Partition())
    kappa = ((j + l + 1 - i) % e, (k + 2) % e)
    z_set = frozenset(t % e for lo, hi in ((i, j), (k + 1, l))
                      for t in range(lo, hi + 1))
    return xi, kappa, z_set


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


# The join that js._valuation_table replaced by one on bead masks, kept as
# its oracle: each member's RimHooks are bucketed under (rest, hand
# residue), and a bucket pair is valued only when its first member
# dominates, a test the mask join proves needless.

def valuation_table_by_hooks(members, p: Params) -> dict:
    keys = [dominance_key(m) for m in members]
    buckets = defaultdict(list)
    for i, m in enumerate(members):
        for h in js._hook_data(m):
            buckets[(h.rest, residue(h.hand, p))].append((i, h))
    sums = defaultdict(int)
    for bucket in buckets.values():
        for (i, L), (j, N) in combinations(bucket, 2):
            if all(map(ge, keys[i], keys[j])):
                sums[i, j] += js._epsilon(L, N) * js._pair_valuation(L, N, p)
    return {ij: v for ij, v in sums.items() if v}


# The solver that js.matrix_from_members replaced, kept as its oracle: it
# keys the table and each column by bipartition, solves every row of every
# column, and tests each nonzero bound with core.dominates. Its table is
# the RimHook join above.

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
    for (i, j), v in valuation_table_by_hooks(rows, p).items():
        by_row[rows[i]][rows[j]] = v
    ascending = tuple(reversed(rows))
    solved = [_solve_column_by_bips(ascending, by_row, mu) for mu in cols]
    tables = (tuple(tuple(solved[c][t][lam] for c in range(len(cols)))
                    for lam in rows) for t in range(3))
    return (rows, cols, *tables)


# The document cli.serialize used to build for a matrix before printing it
# with json.dumps(indent=2), kept as the oracle of its matrix writer.

def matrix_doc(m: js.DecompMatrix) -> dict:
    return {
        "block": _key_doc(m.block),
        "rows": [_bip_doc(b) for b in m.rows],
        "cols": [_bip_doc(b) for b in m.cols],
        "entries": [list(r) for r in m.entries],
        "jBounds": [list(r) for r in m.jbounds],
        "flags": [list(r) for r in m.flags],
    }


# Partitions the package builds with the unchecked ``Partition._of``.

def is_checked(b: Bipartition) -> bool:
    """Both components are partitions equal to their checked rebuild:
    weakly decreasing, positive, no trailing zeros."""
    return all(isinstance(q, Partition) and q == Partition(tuple(q))
               for q in b)


# Each rim hook's rest rebuilt from the beta-set through the checked
# Partition(...), an oracle for core.rim_hooks, which reads the moved bead
# set back through the unchecked _partition_from_beta.

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


# The display route of the member labels, kept as the oracle of the bead
# lists of blocks._family: each label is made of AbacusDisplay moves.

def _apply_label(xi_d: AbacusDisplay, kind: str, args) -> AbacusDisplay:
    if kind == "down":
        return transfer_bead(xi_d, 1, args[0])
    if kind == "hook":
        z, x, a = args
        return push_down_lowest(transfer_bead(xi_d, 1, z), a, x)
    w, z, y = args
    return transfer_bead(transfer_bead(transfer_bead(xi_d, 1, w), 1, z), 2, y)


def _label_specs(zs, e: int, wt: int) -> list[tuple]:
    """(kind, args) of every label of a nucleus with sorted Z-set zs."""
    comp = sorted(set(range(e)) - set(zs))
    if wt == 1:
        return [("down", (z,)) for z in zs]
    specs = []
    for z in zs:
        for x in range(e):
            for a in (1, 2):
                specs.append(("hook", (z, x, a)))
    specs += [("down", (x,)) for x in comp]
    for wi in range(len(zs)):
        for zi in range(wi + 1, len(zs)):
            for y in comp:
                specs.append(("downdownup", (zs[wi], zs[zi], y)))
    return specs


def labels_by_display(p: Params, swapped: bool, xi: Bipartition, z_set,
                      wt: int) -> list[tuple]:
    """``(kind, args, bipartition)`` of every label of the nucleus xi, built
    on its display at the bicharge of size |xi| + 6e, each charge moved
    one step as the nucleus's bicharge asks (kappa_1 + 1, kappa_2 - 1)."""
    q = p.swap() if swapped else p
    ch = canonical_bicharge(xi.size + 6 * p.e, q)
    xi_d = to_display(xi, q, Bicharge(ch.k1 + 1, ch.k2 - 1))
    out = []
    for kind, args in _label_specs(sorted(z_set), p.e, wt):
        b = from_display(_apply_label(xi_d, kind, args))
        out.append((kind, args, swap_components(b) if swapped else b))
    return out


# The label path before blocks._family, kept as its oracle: the labels are
# built on the reduced display of a member, at the bicharge of that
# member's size, in each component order whose reduction reaches a single
# low runner.

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
        labels = []
        for kind, args in _label_specs(sorted(xs | ys), q.e, wt):
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


# The diamond's walk back with a full signature at every step, the oracle of
# the kept codes of crystal.mu_diamond: strip the good nodes, then add the
# anticogood node of each stripped residue, in reverse order.

def diamond_by_signatures(mu: Bipartition, p: Params) -> Bipartition:
    cur = EMPTY_BIP
    for i in reversed(is_restricted(mu, p)[1].residues):
        cur = add_node(cur, signature(cur, i, p).anticogood)
    return cur


# The good-node strip with a full signature of every residue at every step,
# the oracle of the kept signatures of crystal.is_restricted.

def strip_by_signatures(b: Bipartition, p: Params):
    residues = []
    while (step := next(((i, rep.good) for i in range(p.e)
                         if (rep := signature(b, i, p)).good is not None),
                        None)) is not None:
        b = remove_node(b, step[1])
        residues.append(step[0])
    return b == EMPTY_BIP, StripTrace(tuple(residues), b)


# The nested scan that js._pairs_from_data replaced by a lookup keyed by
# (rest, hand residue), kept as its oracle: every hook of lam is tried
# against every hook of nu.

def pairs_by_scan(lam: Bipartition, nu: Bipartition, p: Params):
    out = []
    for L in js._hook_data(lam):
        for N in js._hook_data(nu):
            if L.rest != N.rest:
                continue
            if residue(L.hand, p) != residue(N.hand, p):
                continue
            out.append(HookPair(L, N, js._epsilon(L, N),
                                js._pair_valuation(L, N, p)))
    return out
