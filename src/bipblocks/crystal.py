"""Signatures, good and antigood nodes, restricted and regular tests.

The i-signature of a bipartition reads its addable and removable i-nodes
from top to bottom. Cancelling "-+" pairs singles out the normal nodes
(and the good node); cancelling "+-" pairs gives the anti variants, which
drive the dual notion of regular bipartitions and the diamond bijection
between the two.

Conjugation reverses the reading order, so the antigood nodes of b are the
good nodes of its conjugate: b is regular exactly when conjugate(b) is
restricted under the same parameters.

The good-node strip reads the raw signatures of every residue, as sorted
integer codes, from one ``core.corner_codes`` walk and keeps them from
step to step: removing an i-node edits one code in each of the residues
i - 1, i and i + 1 (``core.remove_cell``), and only those three are
cancelled again. The diamond's walk back keeps codes the same way and
grows them with ``core.add_cell``. The code stays in ``core``: this module
writes none and reads only the sign bit, to do the cancellation.
``signature`` walks afresh and decodes one residue into cells for its
full report, which the tests read as the oracle of both walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    Bipartition, InvariantError, Node, Params, Partition, add_cell,
    code_cell, conjugate, corner_codes, remove_cell,
)
# Bound but not called: perfbench/spans.py::instrument wraps these names in
# this module, and test_benchmark_bindings_are_traced fails if one is gone.
from .blocks import block_key, enumerate_block, weight  # noqa: F401
from .core import dominates  # noqa: F401


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


def signature(b: Bipartition, i: int, p: Params) -> SignatureReport:
    i %= p.e
    off, codes = corner_codes(b, p)
    raw = tuple((Node(*code_cell(b, off, code)), "-" if code & 1 else "+")
                for code in codes[i])
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


def is_restricted(b: Bipartition, p: Params) -> tuple[bool, StripTrace]:
    """Strip good nodes as long as any exist; restricted means the empty
    bipartition is reached. Each step removes the good node of the
    smallest residue that has one.

    One ``core.corner_codes`` walk reads the raw signatures, and the strip
    keeps them: ``core.remove_cell`` edits the residues i - 1, i and i + 1
    of a removed i-node, and a step cancels only those again. The good
    node is the first odd ("-") code left after "-+" cancellation; of the
    stack of uncancelled "-" codes only the depth and the bottom are kept."""
    comps = [list(b.comp1), list(b.comp2)]
    off, codes = corner_codes(comps, p)
    e, residues = p.e, []
    good, todo = [None] * e, range(e)
    while True:
        for j in todo:
            depth = 0
            for code in codes[j]:
                if code & 1:
                    if not depth:
                        bottom = code
                    depth += 1
                elif depth:
                    depth -= 1
            good[j] = bottom if depth else None
        for i, node in enumerate(good):
            if node:
                break
        else:
            break
        remove_cell(comps, codes, off, node, p)
        residues.append(i)
        todo = ((i - 1) % e, i, (i + 1) % e)
    terminal = Bipartition(Partition._of(comps[0]), Partition._of(comps[1]))
    return not any(comps), StripTrace(tuple(residues), terminal)


def is_regular(b: Bipartition, p: Params) -> bool:
    """Stripping antigood nodes reaches the empty bipartition: the good-node
    strip of the conjugate."""
    return is_restricted(conjugate(b), p)[0]


def mu_diamond(mu: Bipartition, p: Params) -> Bipartition:
    """The regular label of the simple module that the restricted
    bipartition ``mu`` labels.

    The restricted and regular labellings realise one highest-weight
    crystal, and the diamond is the crystal isomorphism between them that
    fixes the empty bipartition: strip the good nodes of ``mu``, then add
    the anticogood node of each stripped residue to the empty bipartition,
    in reverse order. A bipartition that is not restricted is refused.

    The walk back keeps the raw signatures as ``core.corner_codes`` codes
    and adds each node with ``core.add_cell``. The partner has |mu| cells,
    so component 2's rows are coded from off = |mu| + 2 throughout. The
    anticogood node is the first even ("+") code left after "+-"
    cancellation: the bottom of the stack of uncancelled "+" codes.
    """
    ok, trace = is_restricted(mu, p)
    if not ok:
        raise ValueError(f"not restricted: the good-node strip of {mu} "
                         f"stops at {trace.terminal}")
    # the empty bipartition, its |mu| empty rows putting off at |mu| + 2
    off, codes = corner_codes(([0] * mu.size, ()), p)
    comps = [[], []]
    for i in reversed(trace.residues):
        depth = 0
        for code in codes[i]:
            if not code & 1:
                if not depth:
                    bottom = code
                depth += 1
            elif depth:
                depth -= 1
        if not depth:
            cur = Bipartition(Partition._of(comps[0]),
                              Partition._of(comps[1]))
            raise InvariantError(
                f"diamond: {cur} has no anticogood {i}-node to add on the "
                f"way back to the partner of {mu}")
        add_cell(comps, codes, off, bottom, p)
    return Bipartition(Partition._of(comps[0]), Partition._of(comps[1]))
