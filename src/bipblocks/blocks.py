"""Block identity, weights, nuclei and member labelling.

A block is its size and residue content; its members are built from that
content row by row, and its weight and delta are closed forms in it. The
three-phase abacus reduction of any member gives the same weight and a
trace of the moves. Odd-weight non-core blocks have a weight-0 nucleus
(for a shifted bicharge) from which every member is rebuilt by prescribed
bead moves; those moves are the member labels.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple, Optional

from .core import (
    Bipartition, InvariantError, Params, Partition, _beta_set,
    _partition_from_beta, canonical_sort, corners,
)
from .abacus import (
    AbacusDisplay, display, from_display, gamma_vector, is_bicore, push_up,
    s_xy, transfer_bead,
)


class BlockKey(NamedTuple):
    n: int
    content: tuple[int, ...]


def content_counts(b: Bipartition, p: Params) -> tuple[int, ...]:
    """Nodes per residue: row r of component a holds the residues
    kappa_a+1-r, ..., kappa_a+part_r-r."""
    counts = [0] * p.e
    for a in (1, 2):
        k = p.kappa[a - 1]
        for r, width in enumerate(b.comp(a), start=1):
            for c in range(k + 1 - r, k + 1 - r + width):
                counts[c % p.e] += 1
    return tuple(counts)


def delta_vector(b: Bipartition, p: Params) -> tuple[int, ...]:
    """Per residue: removable nodes minus addable nodes."""
    return block_key(b, p)[1]


def block_key(b: Bipartition, p: Params) -> tuple[BlockKey, tuple[int, ...]]:
    """The key and delta from one residue count c: delta_i, removable minus
    addable i-nodes, is 2c_i - c_{i-1} - c_{i+1} - #{j : kappa_j = i}, minus
    h_i paired with the weight Lambda_kappa_1 + Lambda_kappa_2 - sum_j c_j
    alpha_j of b in the level-2 Fock space (Lascoux-Leclerc-Thibon 1996)."""
    c = content_counts(b, p)
    return BlockKey(b.size, c), tuple(2 * c[i] - c[i - 1] - c[(i + 1) % p.e]
                                      - p.kappa.count(i) for i in range(p.e))


@dataclass(frozen=True)
class WeightTrace:
    start: Bipartition
    hooks_removed: int
    after_slide: Bipartition
    # (x, y, weight gained, resulting bipartition) per cross-component swap
    swaps: tuple[tuple[int, int, int, Bipartition], ...]
    final: Bipartition
    x_set: frozenset[int]
    y_set: frozenset[int]
    total: int


def _swap_candidates(g: dict[int, int]):
    """The largest (g_x - g_y, x, y) with a gap of at least 3: the max - min
    gap, at the largest runners x at the max and y at the min."""
    hi, lo = max(g.values()), min(g.values())
    if hi - lo < 3:
        return None
    return (hi - lo, max(x for x in g if g[x] == hi),
            max(y for y in g if g[y] == lo))


def _xy_sets(g: dict[int, int]) -> tuple[frozenset[int], frozenset[int]]:
    """The runners x and y of the gamma gaps g_x - g_y = 2."""
    values = set(g.values())
    return (frozenset(x for x in g if g[x] - 2 in values),
            frozenset(y for y in g if g[y] + 2 in values))


def _reduce_display(d: AbacusDisplay):
    """Phase 1 and 2 of the weight algorithm.

    Among pairs with the largest gamma gap we take the lexicographically
    largest (x, y); any choice gives the same weight, a fixed one gives a
    reproducible trace.
    """
    d, hooks = push_up(d)
    after_slide = d
    swaps = []
    while True:
        best = _swap_candidates(gamma_vector(d))
        if best is None:
            break
        diff, x, y = best
        d = s_xy(d, x, y)
        swaps.append((x, y, 2 * (diff - 2), from_display(d)))
    return d, hooks, after_slide, tuple(swaps)


def weight_trace(b: Bipartition, p: Params) -> WeightTrace:
    """The abacus reduction of b, move by move, and the weight it adds up
    to. A record for readers and the tests' oracle of the closed form:
    ``weight`` and classification do not run it."""
    d, hooks, after_slide, swaps = _reduce_display(display(b, p))
    xs, ys = _xy_sets(gamma_vector(d))
    total = 2 * hooks + sum(s[2] for s in swaps) + min(len(xs), len(ys))
    return WeightTrace(b, hooks, from_display(after_slide), swaps,
                       from_display(d), xs, ys, total)


def _spread(counts, e: int) -> int:
    """sum_i (c_i - c_{i-1})^2 around the cycle of e residues. The
    differences sum to 0, so the sum of their squares is even."""
    return sum((counts[i] - counts[i - 1]) ** 2 for i in range(e))


def _content_weight(counts, p: Params) -> int:
    """Fayers' closed form (Adv. Math. 2006): the weight is
    sum_j c_{kappa_j} - (1/2) sum_i (c_i - c_{i+1})^2, from the residue
    content c."""
    return sum(counts[k] for k in p.kappa) - _spread(counts, p.e) // 2


def weight(b: Bipartition, p: Params) -> int:
    """The weight, from the residue content; ``weight_trace`` reaches the
    same total by the abacus reduction."""
    return _content_weight(content_counts(b, p), p)


@dataclass(frozen=True)
class MemberLabel:
    """A bead-move recipe naming one block member.

    kind "hook", args (z, x, a): runner z moves component 1 to 2, then the
    lowest bead on runner x of component a steps down once.
    kind "down", args (x,): runner x moves component 1 to 2.
    kind "downdownup", args (w, z, y): runners w and z move component 1
    to 2, then runner y moves component 2 to 1.
    """

    kind: str
    args: tuple[int, ...]
    bipartition: Bipartition

    def __str__(self) -> str:
        return f"{self.kind}{self.args}"


@dataclass(frozen=True)
class BlockDescriptor:
    key: BlockKey
    weight: int
    delta: tuple[int, ...]
    is_core: bool
    btype: str  # one of I, II, III, IV, other
    nucleus: Optional[Bipartition]
    z_set: Optional[frozenset[int]]
    type_params: Optional[tuple[int, ...]]
    swapped: bool


@dataclass(frozen=True)
class BlockFamily:
    """Label machinery of an odd-weight block built from its nucleus.

    Bipartitions inside the labels are in the original component order,
    even when the analysis ran with the components swapped.
    """

    params: Params
    swapped: bool
    xi: Bipartition
    z_set: frozenset[int]
    labels: tuple[MemberLabel, ...]

    def bip_of(self, kind: str, args) -> Bipartition:
        e = self.params.e
        if kind == "hook":
            # last entry is the component, not a runner
            args = (args[0] % e, args[1] % e, args[2])
        elif kind == "downdownup":
            w, z, y = (a % e for a in args)
            args = (min(w, z), max(w, z), y)
        else:
            args = tuple(a % e for a in args)
        for lab in self.labels:
            if lab.kind == kind and lab.args == args:
                return lab.bipartition
        raise KeyError(f"no member labelled {kind}{args}")

    def members(self) -> list[Bipartition]:
        return canonical_sort(lab.bipartition for lab in self.labels)


def swap_components(b: Bipartition) -> Bipartition:
    return Bipartition(b.comp2, b.comp1)


def _take(beads: list, x: int, e: int) -> int:
    """Remove from an ascending bead list its lowest bead on runner x, the
    largest position congruent to x mod e, and return it."""
    j = len(beads) - 1
    while beads[j] % e != x:
        j -= 1
    return beads.pop(j)


def _give(beads: list, x: int, e: int) -> None:
    """Put a bead on the first free position of runner x of an ascending
    bead list."""
    j = bisect_left(beads, x)
    while j < len(beads) and beads[j] == x:
        x += e
        j = bisect_left(beads, x, j)
    beads.insert(j, x)


def _label_member(beads, kind: str, args, e: int) -> Bipartition:
    """The bipartition that the label (kind, args) builds on copies of the
    nucleus's two ascending bead lists: each transfer takes the lowest bead
    on a runner to the other component's first free position on it."""
    lists = [beads[0][:], beads[1][:]]
    moves = ([(1, args[0])] if kind != "downdownup"
             else [(1, args[0]), (1, args[1]), (2, args[2])])
    for a, x in moves:
        _take(lists[a - 1], x, e)
        _give(lists[2 - a], x, e)
    if kind == "hook":
        _, x, a = args
        insort(lists[a - 1], _take(lists[a - 1], x, e) + e)
    return Bipartition(*map(_partition_from_beta, lists))


def _btype(delta: tuple[int, ...]) -> str:
    e = len(delta)
    pos = {i: d for i, d in enumerate(delta) if d >= 1}
    if not pos:
        return "I"
    if len(pos) == 1:
        ((i, d),) = pos.items()
        return {1: "II", 2: "IV"}.get(d, "other")
    if len(pos) == 2 and set(pos.values()) == {1}:
        a, b = sorted(pos)
        if (a + 1) % e == b or (b + 1) % e == a:
            return "III"
    return "other"


def _shifted(p: Params) -> Params:
    return Params.make(p.e, (p.kappa[0] + 1, p.kappa[1] - 1), p.charp)


def _rep(base: int, t: int, e: int) -> int:
    return base + ((t - base) % e)


# Types III and IV share one parameter window (i, j, k, l, m); III's first
# range starts one step later, at i+1 instead of i.
_OFFSET = {"III": 1, "IV": 0}


def _extract_type_params(xi: Bipartition, p: Params, btype: str):
    """Integers (i, j, k, l[, m]) from the nucleus boundary, or None if
    the orientation convention fails."""
    e = p.e
    # per component, in reading order: a component's two addable residues
    # lie just past its top-right and its bottom-left corner
    rem, add = [[], []], [[], []]
    for a, _, _, i, sign in corners(xi, _shifted(p)):
        (rem if sign == "-" else add)[a - 1].append(i)

    shape = [len(r) for r in rem + add]
    if btype == "II" and shape == [1, 0, 2, 1]:
        i = rem[0][0]
        j, l, k = (_rep(i, t - 1, e) for t in add[0] + add[1])
        if i <= j <= k <= l <= e + i - 2:
            return (i, j, k, l)
    elif btype in _OFFSET and shape == [1, 1, 2, 2]:
        off = _OFFSET[btype]
        i = (rem[0][0] - off) % e
        j, l, k, m = (_rep(i, t - 1, e) for t in add[0] + add[1])
        if rem[1][0] == i and i + off <= j <= k <= l <= m <= e + i - 2:
            return (i, j, k, l, m)
    return None


def _z_from_params(off: int, window: tuple[int, ...], e: int) -> frozenset[int]:
    """Z of (i, j, k, l, m): [i+off, j], [k+1, l], [m+1, e+i-1], mod e."""
    i, j, k, l, m = window
    out = set()
    for lo, hi in ((i + off, j), (k + 1, l), (m + 1, e + i - 1)):
        out.update(t % e for t in range(lo, hi + 1))
    return frozenset(out)


def _rows(size: int, max_part: int, row: int, charge: int, counts: list,
          e: int):
    """Partitions of ``size`` with parts at most ``max_part``, starting at
    ``row``, whose cells take at most ``counts[i]`` nodes of each residue i,
    in ``core.partitions`` order (rows as plain tuples).

    Row r of a component with charge k holds the residues k+1-r, k+2-r, ...
    in order, so a row stops growing at the first residue with nothing
    left. ``counts`` is spent while a partition is yielded and restored
    when the generator is exhausted.
    """
    if size == 0:
        yield ()
        return
    start = charge + 1 - row
    length, limit = 0, min(size, max_part)
    while length < limit and counts[(start + length) % e]:
        counts[(start + length) % e] -= 1
        length += 1
    while length:
        for rest in _rows(size - length, length, row + 1, charge, counts, e):
            yield (length,) + rest
        length -= 1
        counts[(start + length) % e] += 1


def _check_key(key: BlockKey, p: Params) -> None:
    """Refuse a malformed key, with the message of its first fault."""
    counts = key.content
    if len(counts) != p.e:
        raise ValueError(f"malformed block: content has {len(counts)} "
                         f"entries, not e = {p.e}")
    if min(counts) < 0:
        raise ValueError("malformed block: content has a negative entry")
    if sum(counts) != key.n:
        raise ValueError(f"malformed block: content sums to {sum(counts)}, "
                         f"not n = {key.n}")


def _members(key: BlockKey, p: Params):
    """The block's members, built from its content in ``bipartitions``
    order: size of component 1 ascending, then ``partitions`` order in
    each component. A malformed key raises ``ValueError`` on the first
    step."""
    _check_key(key, p)
    counts = list(key.content)
    k1, k2 = p.kappa
    for m in range(key.n + 1):
        for c1 in _rows(m, m, 1, k1, counts, p.e):
            # component 2 takes exactly what component 1 left; a content
            # of negative level-1 weight c_k2 - (1/2) sum_i (c_i -
            # c_{i-1})^2 (Fayers' closed form) has no partition
            if 2 * counts[k2] < _spread(counts, p.e):
                continue
            first = Partition._of(c1)
            for c2 in _rows(key.n - m, key.n - m, 1, k2, counts, p.e):
                yield Bipartition(first, Partition._of(c2))


def _nonempty(members: list, key: BlockKey) -> list:
    if not members:
        raise ValueError(f"empty block: no bipartition of n = {key.n} has "
                         f"content {list(key.content)}")
    return members


def _member_of(key: BlockKey, p: Params) -> Bipartition:
    """The block's first member in ``bipartitions`` order."""
    return _nonempty(list(islice(_members(key, p), 1)), key)[0]


def block_weight(key: BlockKey, p: Params) -> int:
    """Weight of the block, from its content alone: no member is searched,
    so an empty key gets the weight its content would have."""
    _check_key(key, p)
    return _content_weight(key.content, p)


def enumerate_block(key: BlockKey, p: Params) -> list[Bipartition]:
    """All members of the block, most dominant first; a well-formed key
    that has none is refused. A block of weight 1, or of weight 3 that is
    not a core, is its nucleus's labelled family; any other block is built
    from the content by ``_members``."""
    if block_weight(key, p) in (1, 3):
        desc = classify_type(key, p)
        if desc.nucleus is not None:
            return _nucleus_family(desc, p).members()
    return _nonempty(canonical_sort(_members(key, p)), key)


def _nuclei(member: Bipartition, p: Params) -> list[tuple]:
    """``(swapped, xi, Z)`` in each component order whose reduction reaches
    a single low runner: the nucleus xi, in that order, and its Z-set. No
    labels are built."""
    out = []
    for swapped in (False, True):
        q = p.swap() if swapped else p
        m = swap_components(member) if swapped else member
        d, _, _, _ = _reduce_display(display(m, q))
        xs, ys = _xy_sets(gamma_vector(d))
        if len(ys) != 1:
            continue
        z_set = xs | ys
        xi_d = transfer_bead(d, 2, next(iter(ys)))
        xi = from_display(xi_d)
        # sanity: the nucleus gamma gaps must read off the Z-set
        g = gamma_vector(xi_d)
        for x in range(q.e):
            for y in range(q.e):
                expect = (1 if (x in z_set and y not in z_set)
                          else -1 if (x not in z_set and y in z_set) else 0)
                if g[x] - g[y] != expect:
                    raise InvariantError(
                        f"nucleus: runners {x} and {y} of {xi} differ by "
                        f"{g[x] - g[y]} in gamma, not {expect}, for Z = "
                        f"{sorted(z_set)}")
        out.append((swapped, xi, z_set))
    if not out:
        raise ValueError("no nucleus: reduction does not reach a single "
                         "low runner")
    return out


def _family(p: Params, swapped: bool, xi: Bipartition, z_set,
            wt: int) -> BlockFamily:
    """The labelled family of the nucleus xi, given in the component order
    ``swapped`` names, and its Z-set: the one place labels are built.

    Each label is built on plain bead lists of xi. Component a gets the
    smallest bead count k_a >= len(xi_a) + 2e whose residue the bicharge
    gives it: kappa_1 + 1 and kappa_2 - 1 mod e, in that order.

    Every count k_a + te gives the same labels. Take k beads of that
    residue, at least len(xi_a) + 2e, so that positions 0, ..., 2e - 1
    are full and every runner of each component holds at least two beads.
    A label takes at most two beads from one runner of one component: the
    hook (z, z, 1) transfers runner z of component 1 and then pushes it
    down. So every move finds a bead. With k + e beads the list is a full
    row 0, ..., e - 1 on top of the k-bead list shifted e down. Each lowest
    bead on a runner and each first free position on a runner is then the
    one of the k-bead list, shifted e down, and the full row is never
    touched. The moves end on the shifted k-bead result under the full
    row, which reads back as the same partition.
    """
    q = p.swap() if swapped else p
    e = p.e
    beads = [sorted(_beta_set(part, _rep(len(part) + 2 * e, r, e)))
             for part, r in zip(xi, (q.kappa[0] + 1, q.kappa[1] - 1))]
    comp = sorted(set(range(e)) - set(z_set))
    zs = sorted(z_set)
    if wt == 1:
        specs = [("down", (z,)) for z in zs]
    else:
        specs = ([("hook", (z, x, a)) for z in zs for x in range(e)
                  for a in (1, 2)]
                 + [("down", (x,)) for x in comp]
                 + [("downdownup", (w, z, y)) for i, w in enumerate(zs)
                    for z in zs[i + 1:] for y in comp])
    labels = []
    for kind, args in specs:
        b = _label_member(beads, kind, args, e)
        if swapped:
            b = swap_components(b)
        labels.append(MemberLabel(kind, args, b))
    if len({lab.bipartition for lab in labels}) != len(labels):
        raise InvariantError(
            f"member labels: two labels of the nucleus {xi} build the "
            f"same bipartition")
    return BlockFamily(p, swapped, xi, frozenset(z_set), tuple(labels))


def _analyze_member(member: Bipartition, p: Params) -> BlockDescriptor:
    key, delta = block_key(member, p)
    wt = _content_weight(key.content, p)
    # the reduction of weight_trace moves nothing exactly when push_up
    # moves no bead (the display is a bicore) and no gamma gap is 3 or
    # more (no swap)
    d = display(member, p)
    core = is_bicore(d) and _swap_candidates(gamma_vector(d)) is None
    btype = _btype(delta)
    nucleus, type_params = (False, None, None), None
    if wt == 1 or (wt == 3 and not core):
        candidates = _nuclei(member, p)
        # the first order whose nucleus reads back a parameter window; if
        # the nucleus has the mirrored chirality in both component orders
        # (possible when kappa is symmetric), the labels still work, only
        # the parameter window is unavailable
        nucleus = candidates[0]
        if wt == 3 and btype in ("II", "III", "IV"):
            for swapped, xi, z_set in candidates:
                tp = _extract_type_params(xi, p.swap() if swapped else p,
                                          btype)
                if tp is not None:
                    nucleus, type_params = (swapped, xi, z_set), tp
                    break
    swapped, xi, z_set = nucleus
    return BlockDescriptor(
        key=key, weight=wt, delta=delta, is_core=core, btype=btype,
        nucleus=xi, z_set=z_set, type_params=type_params, swapped=swapped)


def classify_type(key: BlockKey, p: Params) -> BlockDescriptor:
    return _analyze_member(_member_of(key, p), p)


def _nucleus(desc: BlockDescriptor) -> tuple:
    """``(swapped, xi, Z)`` of the nucleus that ``desc`` records."""
    if desc.nucleus is None:
        raise ValueError("no nucleus: block is core or of even weight")
    return desc.swapped, desc.nucleus, desc.z_set


def _nucleus_family(desc: BlockDescriptor, p: Params) -> BlockFamily:
    """The labelled family built from the nucleus that ``desc`` records."""
    return _family(p, *_nucleus(desc), desc.weight)


def block_family(key: BlockKey, p: Params) -> BlockFamily:
    """The labelled family built from the block's nucleus."""
    return _nucleus_family(classify_type(key, p), p)


def nucleus_and_Z(key: BlockKey, p: Params) -> tuple[Bipartition, frozenset[int]]:
    return _nucleus(classify_type(key, p))[1:]


def constructive_members(key: BlockKey, p: Params) -> list[Bipartition]:
    """Members rebuilt from the nucleus labels, most dominant first."""
    return block_family(key, p).members()


def exceptional_labels(fam: BlockFamily) -> list[MemberLabel]:
    """Members with an addable i-node for every residue i of positive
    delta. Empty when no residue has positive delta."""
    p = fam.params
    delta = delta_vector(fam.labels[0].bipartition, p)
    pos = [i for i, dv in enumerate(delta) if dv >= 1]
    if not pos:
        return []
    def addable(b):
        return {i for _, _, _, i, sign in corners(b, p) if sign == "+"}
    return [lab for lab in fam.labels
            if addable(lab.bipartition).issuperset(pos)]


def exceptional_bips(key: BlockKey, p: Params) -> list[MemberLabel]:
    """Exceptional members of a weight-3 block, as labels. Another weight
    is refused from the content, before any member is searched."""
    if block_weight(key, p) != 3:
        raise ValueError("exceptional members are defined for weight 3 only")
    desc = classify_type(key, p)
    return [] if desc.is_core else exceptional_labels(_nucleus_family(desc, p))


def _rect(rows: int, width: int) -> Partition:
    return Partition((width,) * rows)


def family_from_type_params(btype: str, e: int,
                            params: tuple[int, ...]) -> BlockFamily:
    """Build the label machinery of a block directly from its type
    parameters, without enumerating anything.

    Type II takes (i, j, k, l) with i <= j <= k <= l <= e+i-2; types III
    and IV take (i, j, k, l, m). The nucleus is a pair of rectangles
    determined by the parameters, and kappa follows from them. The window
    must have 0 <= i < e.
    """
    if not 0 <= params[0] < e:
        raise ValueError(f"window {tuple(params)}: need 0 <= i < e = {e}")
    off = _OFFSET.get(btype, 0)
    if btype == "II":
        i, j, k, l = params
        if not i <= j <= k <= l <= e + i - 2:
            raise ValueError("need i <= j <= k <= l <= e+i-2")
        # type II is type IV at m = e+i-1: the second rectangle has width
        # 0, kappa_2 = k+m+3-i is k+2 mod e, and Z's last range is empty
        m = e + i - 1
    elif btype in _OFFSET:
        i, j, k, l, m = params
        if not i + off <= j <= k <= l <= m <= e + i - 2:
            raise ValueError(
                f"need i{'+1' * off} <= j <= k <= l <= m <= e+i-2")
    else:
        raise ValueError("type must be II, III or IV")
    xi = Bipartition(_rect(j - i + 1 - off, e + i - l - 1 + off),
                     _rect(k - i + 1, e + i - m - 1))
    p = Params.make(e, (j + l - i + 1 - off, k + m + 3 - i))
    extracted = _extract_type_params(xi, p, btype)
    if extracted != tuple(params):
        raise InvariantError(
            f"type parameters: the nucleus {xi} of the {btype} window "
            f"{tuple(params)} reads back as {extracted}")
    z_set = _z_from_params(off, (i, j, k, l, m), e)
    if len(z_set) < 2:
        raise ValueError("parameters describe a block of weight below 3")
    return _family(p, False, xi, z_set, 3)
