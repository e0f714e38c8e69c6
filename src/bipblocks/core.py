"""Partitions, bipartitions, Young diagrams, residues, dominance and rim hooks.

Everything here is an immutable value. All functions are pure, except
``remove_cell`` and its mirror ``add_cell``, which edit the part lists and
corner codes they are given.
One row walk, ``corner_codes``, reads the addable and removable cells of a
bipartition as integer codes; ``corners`` and ``code_cell`` decode them.
Only this module encodes or decodes a code: other modules read cells
through those two, or keep codes whole and test only their sign bit.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import accumulate
from math import isqrt
from operator import ge
from typing import Iterator, NamedTuple, Optional


class InvariantError(RuntimeError):
    """A mathematical invariant failed. The message names the phase and
    the bipartition; unlike an ``assert``, the check survives ``python -O``."""


# a prime above this is refused before trial division reaches it; it is
# far above every hook offset a solvable block has, so it would divide none
_MAX_CHARP = 2**31 - 1


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


class Params(NamedTuple):
    """Global parameters: quantum characteristic e, residue pair kappa,
    field characteristic charp (0 for characteristic zero)."""

    e: int
    kappa: tuple[int, int]
    charp: int = 0

    @staticmethod
    def make(e: int, kappa, charp: int = 0) -> "Params":
        if e < 2:
            raise ValueError("e must be at least 2")
        k1, k2 = kappa
        if charp != 0:
            if charp > _MAX_CHARP:
                raise ValueError(f"charp must be at most {_MAX_CHARP}")
            if not _is_prime(charp):
                raise ValueError("charp must be 0 or prime")
            if e % charp == 0:
                raise ValueError("charp must not divide e")
        return Params(e, (k1 % e, k2 % e), charp)

    def swap(self) -> "Params":
        """Same parameters with the two kappa entries exchanged."""
        return Params(self.e, (self.kappa[1], self.kappa[0]), self.charp)


class Partition(tuple):
    """A partition: weakly decreasing positive integers. Zeros are stripped."""

    def __new__(cls, parts=()):
        parts = tuple(parts)
        # int() would truncate a float and read a bool or a digit string
        if any(type(x) is not int for x in parts):
            raise ValueError("parts must be integers")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("parts must be weakly decreasing")
        if parts and parts[-1] < 0:
            raise ValueError("parts must be non-negative")
        return super().__new__(cls, parts)

    @classmethod
    def _of(cls, parts) -> "Partition":
        """A partition from parts the package has just built valid: weakly
        decreasing and positive. Nothing is checked; outside input goes
        through ``Partition(...)``."""
        return tuple.__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def row(self, r: int) -> int:
        """Part in row r (1-indexed), 0 beyond the last row."""
        return self[r - 1] if 1 <= r <= len(self) else 0

    def conjugate(self) -> "Partition":
        # bottom row up: the columns that end in row r are those past the
        # row below. The conjugate of a valid partition is valid.
        out, below = [], 0
        for r in range(len(self), 0, -1):
            out += [r] * (self[r - 1] - below)
            below = self[r - 1]
        return Partition._of(out)


EMPTY = Partition()


class Bipartition(NamedTuple):
    comp1: Partition
    comp2: Partition

    @property
    def size(self) -> int:
        return self.comp1.size + self.comp2.size

    def comp(self, a: int) -> Partition:
        return self.comp1 if a == 1 else self.comp2

    def __str__(self) -> str:
        """The CLI form: ``(4,1|-)``, with ``-`` for an empty component."""
        def part(q):
            return ",".join(map(str, q)) if q else "-"
        return f"({part(self.comp1)}|{part(self.comp2)})"


def bip(c1, c2) -> Bipartition:
    return Bipartition(Partition(c1), Partition(c2))


EMPTY_BIP = bip((), ())


class Node(NamedTuple):
    """A cell (row, col) in component 1 or 2, all 1-indexed."""

    row: int
    col: int
    component: int


def residue(node: Node, p: Params) -> int:
    return (node.col - node.row + p.kappa[node.component - 1]) % p.e


def conjugate(b: Bipartition) -> Bipartition:
    """Transpose both components and swap them."""
    return Bipartition(b.comp2.conjugate(), b.comp1.conjugate())


def dominance_key(b: Bipartition) -> tuple[int, ...]:
    """Interleaved dominance partial sums, 2n entries: the cells in the
    first r rows of component 1, then all of component 1 and the first r
    rows of component 2, for r = 1, ..., n.

    a dominates b when every entry of key(a) is at least the matching
    entry of key(b). The keys also sort canonically: lexicographic
    comparison refines dominance, so a dominates b implies
    key(a) >= key(b).
    """
    c1, c2 = b.comp1, b.comp2
    m = c1.size
    # past its last row each component's sum stays put: fill, then
    # overwrite the rows
    key = [m, b.size] * b.size
    key[0:2 * len(c1):2] = accumulate(c1)
    key[1:2 * len(c2):2] = [m + s for s in accumulate(c2)]
    return tuple(key)


def dominates(a: Bipartition, b: Bipartition) -> bool:
    if a.size != b.size:
        raise ValueError("dominance needs equal sizes")
    return all(map(ge, dominance_key(a), dominance_key(b)))


def ranked(bips) -> tuple[tuple[Bipartition, ...], list[tuple[int, ...]]]:
    """The canonical order, most dominant first, and each member's
    dominance key. A key determines its bipartition, so no two keys tie."""
    pairs = sorted(((dominance_key(b), b) for b in bips), reverse=True)
    return tuple(b for _, b in pairs), [k for k, _ in pairs]


def canonical_sort(bips) -> list[Bipartition]:
    """Deterministic order, most dominant first."""
    return list(ranked(bips)[0])


def corner_codes(comps, p: Params) -> tuple[int, list[list[int]]]:
    """The addable and removable cells of two part sequences (a bipartition
    or two lists) as (off, codes), codes[i] listing the residue-i cells in
    reading order. Row r of component a codes as 2 * (r + off_a) + s: s is
    1 for a removable ("-") cell, 0 for an addable ("+") one; off_1 = 0 and
    off_2 = off = len(comps[0]) + 2, which holds while the parts shrink.
    Trailing zero parts of component 1 add no cell and only raise off.
    Row r - 1 has a removable cell exactly when it is longer than row r,
    and then row r has an addable one, of another residue."""
    e, off = p.e, len(comps[0]) + 2
    codes = [[] for _ in range(e)]
    for base, parts, k in zip((0, off), comps, p.kappa):
        k += base  # rows counted from base + 1 keep the residue k + c - r
        above = None  # the part of row r - 1
        for r, x in enumerate((*parts, 0), start=base + 1):
            if above is None or above > x:
                if above:
                    codes[(k + above + 1 - r) % e].append(2 * r - 1)
                codes[(k + x + 1 - r) % e].append(2 * r)
            above = x
    return off, codes


def code_cell(comps, off: int, code: int) -> tuple[int, int, int]:
    """The cell (row, col, component) of a ``corner_codes`` code of comps."""
    r, a = code >> 1, 1
    if r >= off:
        r, a = r - off, 2
    parts = comps[a - 1]
    c = parts[r - 1] if r <= len(parts) else 0
    return r, c if code & 1 else c + 1, a


def corners(comps, p: Params) -> list[tuple[int, int, int, int, str]]:
    """The cells of ``corner_codes`` decoded, in reading order:
    (component, row, col, residue, sign), sign "+" or "-"."""
    off, codes = corner_codes(comps, p)
    cells = sorted((code, i) for i, sig in enumerate(codes) for code in sig)
    return [(a, r, c, i, "-" if code & 1 else "+")
            for code, i in cells for r, c, a in [code_cell(comps, off, code)]]


def remove_cell(comps, codes, off: int, code: int, p: Params) -> None:
    """Remove the removable cell of ``corner_codes`` code from two part
    lists, in place, and edit ``codes``, the codes of comps by residue, to
    those of the smaller lists. With (r, c) the cell and i its residue,
    one code in each of the residues i, i + 1 and i - 1 changes:

    - i: the removable (r, c) becomes the addable (r, c), code - 1;
    - i + 1: the addable (r, c + 1), code - 1, goes if r = 1 or row r - 1
      is longer than c; else the removable (r - 1, c), code - 2, comes in;
    - i - 1: the addable (r + 1, c), code + 1, goes if row r + 1 has c - 1
      cells; else the removable (r, c - 1), code, comes in.

    Nothing else changes. Codes are found by bisection on ints."""
    # code_cell inline: a strip makes one call per step
    e, r = len(codes), code >> 1
    if r < off:
        parts, k = comps[0], p.kappa[0]
    else:
        r -= off
        parts, k = comps[1], p.kappa[1]
    c = parts[r - 1]
    i = (k + c - r) % e
    sig = codes[i]
    sig[bisect_left(sig, code)] = code - 1
    sig = codes[(i + 1) % e]
    if r == 1 or parts[r - 2] > c:
        del sig[bisect_left(sig, code - 1)]
    else:
        insort(sig, code - 2)
    sig = codes[(i - 1) % e]
    if (parts[r] if r < len(parts) else 0) == c - 1:
        del sig[bisect_left(sig, code + 1)]
    else:
        insort(sig, code)
    parts[r - 1] -= 1
    if not parts[r - 1]:
        parts.pop()


def add_cell(comps, codes, off: int, code: int, p: Params) -> None:
    """Add the addable cell of ``corner_codes`` code to two part lists, in
    place, and edit ``codes`` to those of the larger lists: the mirror of
    ``remove_cell``. ``off`` must stay above the rows component 1 can
    reach, so a walk that grows the lists fixes it in advance. With (r, c)
    the cell and i its residue:

    - i: the addable (r, c) becomes the removable (r, c), code + 1;
    - i + 1: the addable (r, c + 1), code, comes in if r = 1 or row r - 1
      is longer than c; else the removable (r - 1, c), code - 1, goes;
    - i - 1: the addable (r + 1, c), code + 2, comes in if row r + 1 has
      c - 1 cells; else the removable (r, c - 1), code + 1, goes."""
    e, r = len(codes), code >> 1
    if r < off:
        parts, k = comps[0], p.kappa[0]
    else:
        r -= off
        parts, k = comps[1], p.kappa[1]
    if r > len(parts):
        parts.append(0)
    c = parts[r - 1] + 1
    i = (k + c - r) % e
    sig = codes[i]
    sig[bisect_left(sig, code)] = code + 1
    sig = codes[(i + 1) % e]
    if r == 1 or parts[r - 2] > c:
        insort(sig, code)
    else:
        del sig[bisect_left(sig, code - 1)]
    sig = codes[(i - 1) % e]
    if (parts[r] if r < len(parts) else 0) == c - 1:
        insort(sig, code + 2)
    else:
        del sig[bisect_left(sig, code + 1)]
    parts[r - 1] = c


def boundary_nodes(b: Bipartition, p: Params):
    """(addable, removable) lists of (node, residue), in reading order."""
    add, rem = [], []
    for a, r, c, i, sign in corners(b, p):
        (add if sign == "+" else rem).append((Node(r, c, a), i))
    return add, rem


def add_node(b: Bipartition, node: Node) -> Bipartition:
    part = list(b.comp(node.component))
    if node.row == len(part) + 1:
        part.append(0)
    if part[node.row - 1] + 1 != node.col:
        raise ValueError("node is not addable")
    part[node.row - 1] += 1
    new = Partition(part)
    return Bipartition(new, b.comp2) if node.component == 1 else Bipartition(b.comp1, new)


def remove_node(b: Bipartition, node: Node) -> Bipartition:
    part = list(b.comp(node.component))
    if node.row > len(part) or part[node.row - 1] != node.col:
        raise ValueError("node is not removable")
    part[node.row - 1] -= 1
    new = Partition(part)
    return Bipartition(new, b.comp2) if node.component == 1 else Bipartition(b.comp1, new)


@dataclass(frozen=True)
class RimHook:
    """A removable rim hook of one component: the move of a bead x down to
    a free position y of its beta-set. The hand is the top-right cell, the
    leg counts the beads strictly between y and x, the length is x - y and
    ``rest`` is the bipartition the move leaves."""

    hand: Node
    leg_length: int
    component: int
    length: int
    rest: Bipartition

    @property
    def nodes(self) -> tuple[Node, ...]:
        """The cells, row by row: row s runs from past the rest's part to
        the hand's column (top row) or to one past the rest's part above."""
        part, a = self.rest.comp(self.component), self.component
        out, end = [], self.hand.col
        for s in range(self.hand.row, self.hand.row + self.leg_length + 1):
            out.extend(Node(s, c, a) for c in range(part.row(s) + 1, end + 1))
            end = part.row(s) + 1
        return tuple(out)


def _beta_set(part: Partition, k: int) -> frozenset[int]:
    return frozenset(part.row(r) + k - r for r in range(1, k + 1))


def _partition_from_beta(beta) -> Partition:
    """The partition of a bead set: the j-th smallest of its k beads is
    row k - j, of part bead - j (j from 0); full positions give no part."""
    return Partition._of([b - j for j, b in enumerate(sorted(beta))
                          if b > j][::-1])


def rim_hooks(b: Bipartition) -> list[RimHook]:
    """All removable rim hooks of b, by component, hand row and length.
    With k beads, the bead x of row r sits at part_r + k - r. Moving it
    down to the free position y passes ``leg`` beads, and the rest is the
    bead set read back with y in place of x."""
    out = []
    for a in (1, 2):
        part = b.comp(a)
        k = len(part)
        beads = [q + k - r for r, q in enumerate(part, start=1)]
        for r, x in enumerate(beads, start=1):
            hand, leg = Node(r, x - k + r, a), 0
            for y in range(x - 1, -1, -1):
                if r + leg < k and beads[r + leg] == y:
                    leg += 1
                    continue
                smaller = _partition_from_beta([*beads[:r - 1], y,
                                                *beads[r:]])
                rest = (Bipartition(smaller, b.comp2) if a == 1
                        else Bipartition(b.comp1, smaller))
                out.append(RimHook(hand, leg, a, x - y, rest))
    return out


def partitions(n: int, max_part: Optional[int] = None) -> Iterator[Partition]:
    """All partitions of n with parts bounded by max_part."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield EMPTY
        return
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            yield Partition((first,) + tuple(rest))


def bipartitions(n: int) -> Iterator[Bipartition]:
    """All bipartitions of n."""
    for m in range(n + 1):
        for c1 in partitions(m):
            for c2 in partitions(n - m):
                yield Bipartition(c1, c2)
