"""Beta-sets and abacus displays for bipartitions.

A display has e runners per component; position x sits on runner x mod e.
Bead moves realize rim-hook removal (same component) and cross-component
runner transfers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .core import Bipartition, Params, _beta_set, _partition_from_beta


class Bicharge(NamedTuple):
    k1: int
    k2: int

    def k(self, a: int) -> int:
        return self.k1 if a == 1 else self.k2


def canonical_bicharge(n: int, p: Params) -> Bicharge:
    """Deterministic bicharge large enough for every bipartition of n."""
    shift = p.e * math.ceil((n + p.e) / p.e)
    return Bicharge(p.kappa[0] + shift, p.kappa[1] + shift)


@dataclass(frozen=True)
class AbacusDisplay:
    params: Params
    beads1: frozenset[int]
    beads2: frozenset[int]

    @property
    def bicharge(self) -> Bicharge:
        """The bead count of each component."""
        return Bicharge(len(self.beads1), len(self.beads2))

    def beads(self, a: int) -> frozenset[int]:
        return self.beads1 if a == 1 else self.beads2

    def runner_beads(self, a: int, runner: int) -> list[int]:
        """Positions of beads on one runner of one component, ascending."""
        return sorted(x for x in self.beads(a) if x % self.params.e == runner)

    def __post_init__(self):
        if any(x < 0 for x in self.beads1 | self.beads2):
            raise ValueError("positions must be non-negative")


def to_display(b: Bipartition, p: Params, ch: Bicharge) -> AbacusDisplay:
    beads = []
    for a in (1, 2):
        part, k = b.comp(a), ch.k(a)
        if k < len(part):
            raise ValueError("charge below partition length")
        beads.append(_beta_set(part, k))
    return AbacusDisplay(p, beads[0], beads[1])


def display(b: Bipartition, p: Params) -> AbacusDisplay:
    """Display with the canonical bicharge for the size of b."""
    return to_display(b, p, canonical_bicharge(b.size, p))


def from_display(d: AbacusDisplay) -> Bipartition:
    c1 = _partition_from_beta(d.beads1, len(d.beads1))
    c2 = _partition_from_beta(d.beads2, len(d.beads2))
    return Bipartition(c1, c2)


def gamma_vector(d: AbacusDisplay) -> dict[int, int]:
    """Per runner: bead count in component 1 minus component 2."""
    e = d.params.e
    out = {x: 0 for x in range(e)}
    for x in d.beads1:
        out[x % e] += 1
    for x in d.beads2:
        out[x % e] -= 1
    return out


def apply_move(d: AbacusDisplay, component: int, frm: int, to: int) -> AbacusDisplay:
    """Move one bead within a component; frm > to removes a rim hook."""
    beads = d.beads(component)
    if frm not in beads:
        raise ValueError(f"no bead at position {frm}")
    if to in beads or to < 0:
        raise ValueError(f"position {to} is not free")
    new = (beads - {frm}) | {to}
    if component == 1:
        return replace(d, beads1=new)
    return replace(d, beads2=new)


def transfer_bead(d: AbacusDisplay, from_component: int, runner: int) -> AbacusDisplay:
    """Move the lowest bead on a runner to the other component's lowest
    free slot on the same runner. The bicharge shifts by one."""
    to_component = 3 - from_component
    src = d.runner_beads(from_component, runner)
    if not src:
        raise ValueError(f"no bead on runner {runner} of component {from_component}")
    frm = max(src)
    dst_beads = d.beads(to_component)
    to = runner
    while to in dst_beads:
        to += d.params.e
    new = {from_component: d.beads(from_component) - {frm},
           to_component: dst_beads | {to}}
    return AbacusDisplay(d.params, frozenset(new[1]), frozenset(new[2]))


def push_down_lowest(d: AbacusDisplay, component: int, runner: int) -> AbacusDisplay:
    """Move the lowest bead on a runner down one position (adds e)."""
    src = d.runner_beads(component, runner)
    if not src:
        raise ValueError(f"no bead on runner {runner} of component {component}")
    frm = max(src)
    return apply_move(d, component, frm, frm + d.params.e)


def push_up(d: AbacusDisplay) -> tuple[AbacusDisplay, int]:
    """Slide every bead fully up its runner; also count the bead-position
    drops, i.e. the number of rim e-hooks removed."""
    e = d.params.e
    moves = 0
    out = {}
    for a in (1, 2):
        new = set()
        for runner in range(e):
            col = d.runner_beads(a, runner)
            for slot, pos in enumerate(col):
                new.add(runner + slot * e)
                moves += (pos - runner) // e - slot
        out[a] = frozenset(new)
    return replace(d, beads1=out[1], beads2=out[2]), moves


def is_bicore(d: AbacusDisplay) -> bool:
    e = d.params.e
    return all(x - e in d.beads(a) for a in (1, 2)
               for x in d.beads(a) if x >= e)


def s_xy(d: AbacusDisplay, x: int, y: int) -> AbacusDisplay:
    """Swap one bead between components: runner x goes 1 to 2, runner y
    goes 2 to 1. Keeps the bicharge."""
    return transfer_bead(transfer_bead(d, 1, x), 2, y)
