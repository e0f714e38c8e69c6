"""Signatures, good and antigood nodes, restricted and regular tests.

The i-signature of a bipartition reads its addable and removable i-nodes
from top to bottom. Cancelling "-+" pairs singles out the normal nodes
(and the good node); cancelling "+-" pairs gives the anti variants, which
drive the dual notion of regular bipartitions and the diamond bijection
between the two.

Conjugation reverses the reading order, so the antigood nodes of b are the
good nodes of its conjugate: b is regular exactly when conjugate(b) is
restricted under the same parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    Bipartition, InvariantError, Node, Params, Partition, add_node,
    conjugate, corners, dominates,
)
from .blocks import block_key, enumerate_block, weight


@dataclass(frozen=True)
class SignatureReport:
    residue: int
    # (node, "+" or "-") in reading order, for the raw and both reduced forms
    raw: tuple[tuple[Node, str], ...]
    reduced: tuple[tuple[Node, str], ...]
    antireduced: tuple[tuple[Node, str], ...]
    normal: tuple[Node, ...]
    conormal: tuple[Node, ...]
    antinormal: tuple[Node, ...]
    anticonormal: tuple[Node, ...]
    good: Optional[Node]
    cogood: Optional[Node]
    antigood: Optional[Node]
    anticogood: Optional[Node]

    @property
    def raw_string(self) -> str:
        return "".join(s for _, s in self.raw)

    @property
    def reduced_string(self) -> str:
        return "".join(s for _, s in self.reduced)


@dataclass(frozen=True)
class StripTrace:
    residues: tuple[int, ...]
    terminal: Bipartition


def _cancel(raw, first: str, second: str):
    """Delete adjacent (first, second) sign pairs until none remain."""
    out = []
    for item in raw:
        if out and out[-1][-1] == first and item[-1] == second:
            out.pop()
        else:
            out.append(item)
    return tuple(out)


def _raw_signatures(comps, p: Params) -> list[list[tuple]]:
    """The raw i-signature of every residue i, from one corner scan:
    (row, col, component, sign) per i-node, in reading order."""
    raw = [[] for _ in range(p.e)]
    for a, r, c, i, sign in corners(comps, p):
        raw[i].append((r, c, a, sign))
    return raw


def signature(b: Bipartition, i: int, p: Params) -> SignatureReport:
    i %= p.e
    raw = tuple((Node(r, c, a), s) for r, c, a, s in _raw_signatures(b, p)[i])
    reduced = _cancel(raw, "-", "+")
    antireduced = _cancel(raw, "+", "-")
    normal = tuple(nd for nd, s in reduced if s == "-")
    conormal = tuple(nd for nd, s in reduced if s == "+")
    antinormal = tuple(nd for nd, s in antireduced if s == "-")
    anticonormal = tuple(nd for nd, s in antireduced if s == "+")
    return SignatureReport(
        residue=i, raw=raw, reduced=reduced, antireduced=antireduced,
        normal=normal, conormal=conormal,
        antinormal=antinormal, anticonormal=anticonormal,
        good=normal[0] if normal else None,
        cogood=conormal[-1] if conormal else None,
        antigood=antinormal[-1] if antinormal else None,
        anticogood=anticonormal[0] if anticonormal else None)


def _next_good(comps, p: Params):
    """(residue, (row, col, component), delta) of the good node of the
    smallest residue that has one, from one corner scan; delta counts that
    residue's removable minus addable nodes. Per residue a stack keeps the
    uncancelled removable nodes: an addable node cancels the latest one,
    which is the repeated "-+" cancellation, and the good node is the
    first one left."""
    minus = [[] for _ in range(p.e)]
    delta = [0] * p.e
    for a, r, c, i, sign in corners(comps, p):
        if sign == "-":
            minus[i].append((r, c, a))
            delta[i] += 1
        else:
            if minus[i]:
                minus[i].pop()
            delta[i] -= 1
    for i, left in enumerate(minus):
        if left:
            return i, left[0], delta[i]
    return None


def _good_strip(comps, p: Params):
    """Remove good nodes from the part lists ``comps`` in place, one per
    step, until none is left. Each step yields its residue and that
    residue's removable minus addable nodes before the step. Only the
    last row can empty."""
    while (found := _next_good(comps, p)) is not None:
        i, (r, _, a), delta = found
        parts = comps[a - 1]
        parts[r - 1] -= 1
        if not parts[r - 1]:
            parts.pop()
        yield i, delta


def _terminal(comps) -> Bipartition:
    """The bipartition of two part lists a strip has lowered."""
    return Bipartition(Partition._of(comps[0]), Partition._of(comps[1]))


def is_restricted(b: Bipartition, p: Params) -> tuple[bool, StripTrace]:
    """Strip good nodes as long as any exist; restricted means the empty
    bipartition is reached."""
    comps = [list(b.comp1), list(b.comp2)]
    residues = tuple(i for i, _ in _good_strip(comps, p))
    return not any(comps), StripTrace(residues, _terminal(comps))


def is_regular(b: Bipartition, p: Params) -> bool:
    """Stripping antigood nodes reaches the empty bipartition: the good-node
    strip of the conjugate."""
    return is_restricted(conjugate(b), p)[0]


def _weight_one_diamond(xi: Bipartition, p: Params) -> Bipartition:
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


def mu_diamond(mu: Bipartition, p: Params) -> Bipartition:
    """The regular partner of a restricted bipartition.

    Strip good nodes down to weight at most one, replace the base by its
    own partner (itself at weight 0, the minimal strictly dominating block
    member at weight 1), then add anticogood nodes of the recorded
    residues in reverse order.
    """
    comps = [list(mu.comp1), list(mu.comp2)]
    strip = _good_strip(comps, p)
    residues, wt = [], weight(mu, p)
    while wt > 1:  # removing an i-node adds delta_i - 1 to the weight
        i, delta = next(strip, (None, None))
        if delta is None:
            raise ValueError("not restricted: no normal nodes left")
        wt += delta - 1
        residues.append(i)
    cur = _terminal(comps)
    if wt == 1:
        cur = _weight_one_diamond(cur, p)
    for i in reversed(residues):
        rep = signature(cur, i, p)
        if rep.anticogood is None:
            raise InvariantError(
                f"diamond: {cur} has no anticogood {i}-node to add on the "
                f"way back to the partner of {mu}")
        cur = add_node(cur, rep.anticogood)
    return cur
