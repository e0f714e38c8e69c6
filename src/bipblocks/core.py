"""Partitions, bipartitions, Young diagrams, residues, dominance and rim hooks.

Everything here is an immutable value; all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import ge
from typing import Iterator, NamedTuple, Optional


class InvariantError(RuntimeError):
    """A mathematical invariant failed. The message names the phase and
    the bipartition; unlike an ``assert``, the check survives ``python -O``."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError("parts must be weakly decreasing")
        if parts and parts[-1] < 0:
            raise ValueError("parts must be non-negative")
        if any(p == 0 for p in parts):
            raise ValueError("zero parts only allowed at the end")
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
        if not self:
            return Partition()
        # the conjugate of a valid partition is valid
        return Partition._of([sum(1 for p in self if p >= c)
                              for c in range(1, self[0] + 1)])


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


def corners(comps, p: Params) -> list[tuple[int, int, int, int, str]]:
    """Every addable ("+") and removable ("-") cell of two part sequences
    (a bipartition or two lists), in reading order (component, then row):
    (component, row, col, residue, sign). Row r - 1 has a removable cell
    exactly when it is longer than row r, and then row r has an addable one."""
    out = []
    for a, (parts, k) in enumerate(zip(comps, p.kappa), start=1):
        above = None  # the part of row r - 1
        for r, x in enumerate((*parts, 0), start=1):
            if above is None or above > x:
                if above:
                    out.append((a, r - 1, above, (k + above + 1 - r) % p.e,
                                "-"))
                out.append((a, r, x + 1, (k + x + 1 - r) % p.e, "+"))
            above = x
    return out


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


def _trusted(parts: list[int]) -> Partition:
    """The partition of a weakly decreasing, non-negative part list the
    package has just built: trailing zeros stripped, nothing checked."""
    while parts and not parts[-1]:
        parts.pop()
    return Partition._of(parts)


def _partition_from_beta(beta, k: int) -> Partition:
    return _trusted([v - k + r for r, v in
                     enumerate(sorted(beta, reverse=True), start=1)])


def rim_hooks(b: Bipartition) -> list[RimHook]:
    """All removable rim hooks of b, by component, hand row and length.
    With k beads, the bead x of row r sits at part_r + k - r. Moving it
    down to the free position y past ``leg`` beads moves rows r+1..r+leg
    up one row, each a cell shorter, and leaves row r+leg the part
    y - k + r + leg."""
    out = []
    for a in (1, 2):
        part = b.comp(a)
        k = len(part)
        beads = [q + k - r for r, q in enumerate(part, start=1)]
        for r, x in enumerate(beads, start=1):
            hand, leg = Node(r, x - k + r, a), 0
            for y in range(x - 1, -1, -1):
                s = r + leg
                if s < k and beads[s] == y:
                    leg += 1
                    continue
                smaller = _trusted([*part[:r - 1],
                                    *(q - 1 for q in part[r:s]),
                                    y - k + s, *part[s:]])
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
