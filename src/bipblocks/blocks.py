"""Block identity, weights, nuclei and member labelling.

A block is identified by its size and residue content, and its members are
built from that content row by row. Its weight is a closed form in that
content; the three-phase abacus reduction of any member gives the same
total and a trace of the moves. Odd-weight non-core blocks have a
weight-0 nucleus (for a shifted bicharge) from which every member is
rebuilt by prescribed bead moves; those moves are the member labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .core import (
    Bipartition, InvariantError, Params, Partition, canonical_sort, corners,
)
from .abacus import (
    AbacusDisplay, Bicharge, canonical_bicharge, display, from_display,
    gamma_vector, is_bicore, push_down_lowest, push_up, s_xy, to_display,
    transfer_bead,
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
    out = [0] * p.e
    for _, _, _, i, sign in corners(b, p):
        out[i] += 1 if sign == "-" else -1
    return tuple(out)


def block_key(b: Bipartition, p: Params) -> tuple[BlockKey, tuple[int, ...]]:
    return BlockKey(b.size, content_counts(b, p)), delta_vector(b, p)


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
    best = None
    for x, gx in g.items():
        for y, gy in g.items():
            if gx - gy >= 3:
                cand = (gx - gy, x, y)
                if best is None or cand > best:
                    best = cand
    return best


def _xy_sets(g: dict[int, int]) -> tuple[frozenset[int], frozenset[int]]:
    xs = {x for x in g for y in g if g[x] - g[y] == 2}
    ys = {y for y in g for x in g if g[x] - g[y] == 2}
    return frozenset(xs), frozenset(ys)


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
    weight: int
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


def _apply_label(xi_d: AbacusDisplay, kind: str, args) -> AbacusDisplay:
    if kind == "down":
        return transfer_bead(xi_d, 1, args[0])
    if kind == "hook":
        z, x, a = args
        return push_down_lowest(transfer_bead(xi_d, 1, z), a, x)
    if kind == "downdownup":
        w, z, y = args
        d = transfer_bead(transfer_bead(xi_d, 1, w), 1, z)
        return transfer_bead(d, 2, y)
    raise ValueError(f"unknown label kind {kind}")


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
    cells = corners(xi, _shifted(p))
    # per component, in reading order: a component's two addable residues
    # lie just past its top-right and its bottom-left corner
    rem, add = ([[i for c, _, _, i, s in cells if c == a and s == sign]
                 for a in (1, 2)] for sign in "-+")

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


def _z_from_params(btype: str, params: tuple[int, ...], e: int) -> frozenset[int]:
    if btype == "II":
        i, j, k, l = params
        ranges = [(i, j), (k + 1, l)]
    else:
        i, j, k, l, m = params
        ranges = [(i + _OFFSET[btype], j), (k + 1, l), (m + 1, e + i - 1)]
    out = set()
    for lo, hi in ranges:
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


def _members(key: BlockKey, p: Params):
    """The block's members, built from its content in ``bipartitions``
    order: size of component 1 ascending, then ``partitions`` order in
    each component. A malformed key raises ``ValueError`` on the first
    step."""
    counts = list(key.content)
    if len(counts) != p.e:
        raise ValueError(f"malformed block: content has {len(counts)} "
                         f"entries, not e = {p.e}")
    if min(counts) < 0:
        raise ValueError("malformed block: content has a negative entry")
    if sum(counts) != key.n:
        raise ValueError(f"malformed block: content sums to {sum(counts)}, "
                         f"not n = {key.n}")
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


def _member_of(key: BlockKey, p: Params) -> Bipartition:
    """The block's first member in ``bipartitions`` order."""
    for b in _members(key, p):
        return b
    raise ValueError("empty block: no bipartition has this content")


def block_weight(key: BlockKey, p: Params) -> int:
    """Weight of the block, from its content once its first member shows
    that it is not empty: no enumeration."""
    _member_of(key, p)
    return _content_weight(key.content, p)


def enumerate_block(key: BlockKey, p: Params) -> list[Bipartition]:
    """All members of the block, most dominant first, built from the
    content."""
    out = canonical_sort(_members(key, p))
    if not out:
        raise ValueError("empty block: no bipartition has this content")
    return out


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

    Any bicharge of the right residues that holds xi gives the same
    labels: a shift by a common multiple of e lands every bead move
    exactly that shift lower and gives each component only empty top rows.
    """
    q = p.swap() if swapped else p
    ch = canonical_bicharge(xi.size + 6 * p.e, q)
    xi_d = to_display(xi, q, Bicharge(ch.k1 + 1, ch.k2 - 1))
    comp = sorted(set(range(p.e)) - set(z_set))
    zs = sorted(z_set)
    if wt == 1:
        specs = [("down", (z,)) for z in zs]
    else:
        specs = ([("hook", (z, x, a)) for z in zs for x in range(p.e)
                  for a in (1, 2)]
                 + [("down", (x,)) for x in comp]
                 + [("downdownup", (w, z, y)) for i, w in enumerate(zs)
                    for z in zs[i + 1:] for y in comp])
    labels = []
    for kind, args in specs:
        b = from_display(_apply_label(xi_d, kind, args))
        if swapped:
            b = swap_components(b)
        labels.append(MemberLabel(kind, args, b))
    if len({lab.bipartition for lab in labels}) != len(labels):
        raise InvariantError(
            f"member labels: two labels of the nucleus {xi} build the "
            f"same bipartition")
    return BlockFamily(p, swapped, xi, frozenset(z_set), wt, tuple(labels))


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


def block_family(key: BlockKey, p: Params) -> BlockFamily:
    """The labelled family built from the block's nucleus."""
    desc = classify_type(key, p)
    if desc.nucleus is None:
        raise ValueError("no nucleus: block is core or of even weight")
    return _family(p, desc.swapped, desc.nucleus, desc.z_set, desc.weight)


def nucleus_and_Z(key: BlockKey, p: Params) -> tuple[Bipartition, frozenset[int]]:
    desc = classify_type(key, p)
    if desc.nucleus is None:
        raise ValueError("no nucleus: block is core or of even weight")
    return desc.nucleus, desc.z_set


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
    out = []
    for lab in fam.labels:
        add_res = {i for _, _, _, i, sign in corners(lab.bipartition, p)
                   if sign == "+"}
        if all(i in add_res for i in pos):
            out.append(lab)
    return out


def exceptional_bips(key: BlockKey, p: Params) -> list[MemberLabel]:
    """Exceptional members of a weight-3 block, as labels."""
    desc = classify_type(key, p)
    if desc.weight != 3:
        raise ValueError("exceptional members are defined for weight 3 only")
    if desc.is_core:
        return []
    return exceptional_labels(_family(p, desc.swapped, desc.nucleus,
                                      desc.z_set, 3))


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
    if btype == "II":
        i, j, k, l = params
        if not i <= j <= k <= l <= e + i - 2:
            raise ValueError("need i <= j <= k <= l <= e+i-2")
        xi = Bipartition(_rect(j - i + 1, e + i - l - 1), Partition(()))
        kappa = (j + l + 1 - i, k + 2)
    elif btype in _OFFSET:
        off = _OFFSET[btype]
        i, j, k, l, m = params
        if not i + off <= j <= k <= l <= m <= e + i - 2:
            raise ValueError(
                f"need i{'+1' * off} <= j <= k <= l <= m <= e+i-2")
        xi = Bipartition(_rect(j - i + 1 - off, e + i - l - 1 + off),
                         _rect(k - i + 1, e + i - m - 1))
        kappa = (j + l - i + 1 - off, k + m + 3 - i)
    else:
        raise ValueError("type must be II, III or IV")
    p = Params.make(e, kappa)
    extracted = _extract_type_params(xi, p, btype)
    if extracted != tuple(params):
        raise InvariantError(
            f"type parameters: the nucleus {xi} of the {btype} window "
            f"{tuple(params)} reads back as {extracted}")
    z_set = _z_from_params(btype, tuple(params), e)
    if len(z_set) < 2:
        raise ValueError("parameters describe a block of weight below 3")
    return _family(p, False, xi, z_set, 3)
