import dataclasses
from itertools import product

import pytest
from hypothesis import given, strategies as st

from bipblocks import crystal
from bipblocks.core import (
    InvariantError, Params, Node, bip, EMPTY_BIP, conjugate,
    add_node, remove_node,
)
from bipblocks.blocks import block_key, enumerate_block, weight, \
    weight_trace, family_from_type_params
from bipblocks.crystal import (
    StripTrace, signature, is_restricted, is_regular, mu_diamond,
    _next_good, _weight_one_diamond,
)
from helpers import (
    small_bips, params_st, bips_of, is_checked, is_e_restricted,
)

P31 = Params.make(3, (0, 1))


class TestSignature:
    def test_reading_example(self):
        rep = signature(bip((3, 2, 1, 1), (2, 2, 2)), 0, P31)
        assert rep.raw_string == "+--+-"
        assert rep.reduced_string == "+--"
        assert rep.normal == (Node(2, 2, 1), Node(3, 2, 2))
        assert rep.good == Node(2, 2, 1)
        assert rep.conormal == (Node(1, 4, 1),)
        assert rep.cogood == Node(1, 4, 1)

    def test_empty_bip(self):
        rep = signature(EMPTY_BIP, 0, P31)
        assert rep.raw_string == "+"
        assert rep.conormal == (Node(1, 1, 1),)
        assert rep.good is None

    def test_plus_minus_cancels_in_antireduced(self):
        # (2,1) at kappa (0,0): residue-2 nodes read as "+-"
        rep = signature(bip((2, 1), ()), 2, Params.make(3, (0, 0)))
        assert rep.raw_string == "+-"
        assert rep.antireduced == ()
        assert rep.antinormal == () and rep.anticonormal == ()
        assert rep.normal == (Node(2, 1, 1),)

    @given(small_bips(7), params_st())
    def test_reduced_shape(self, b, p):
        # cancelling -+ leaves all plusses before all minuses
        for i in range(p.e):
            rep = signature(b, i, p)
            signs = [s for _, s in rep.reduced]
            assert signs == sorted(signs)  # "+" < "-"

    @given(small_bips(7), params_st())
    def test_adjunction(self, b, p):
        # good-node removal and cogood-node addition are inverse
        for i in range(p.e):
            rep = signature(b, i, p)
            if rep.good is None:
                continue
            smaller = remove_node(b, rep.good)
            back = signature(smaller, i, p)
            assert back.cogood is not None
            assert add_node(smaller, back.cogood) == b


class TestRestricted:
    def test_empty(self):
        ok, trace = is_restricted(EMPTY_BIP, P31)
        assert ok and trace.residues == () and trace.terminal == EMPTY_BIP

    def test_single_component_row(self):
        ok, _ = is_restricted(bip((3,), ()), Params.make(2, (0, 0)))
        assert not ok

    def test_trace_replays(self):
        b = bip((2, 1), (1, 1))
        ok, trace = is_restricted(b, P31)
        if ok:
            cur = EMPTY_BIP
            for i in reversed(trace.residues):
                cur = add_node(cur, signature(cur, i, P31).cogood)
            assert cur == b

    @given(small_bips(7), params_st())
    def test_components_e_restricted(self, b, p):
        ok, _ = is_restricted(b, p)
        if ok:
            assert is_e_restricted(b.comp1, p.e)
            assert is_e_restricted(b.comp2, p.e)

    @pytest.mark.parametrize("params,expect", [
        ((0, 0, 1, 2), True), ((0, 1, 2, 2), False),
        ((1, 1, 2, 3), True), ((1, 2, 3, 3), False)])
    def test_two_rectangle_family(self, params, expect):
        # the distinguished member is restricted exactly when k < l
        fam = family_from_type_params("II", 4, params)
        i = params[0]
        mu = fam.bip_of("hook", (i, i - 1, 2))
        assert is_restricted(mu, fam.params)[0] == expect

    def test_weight_one_block(self):
        # only the most dominant member fails to be restricted
        p = Params.make(4, (0, 3))
        members = enumerate_block(block_key(bip((3, 1, 1, 1), ()), p)[0], p)
        flags = [is_restricted(m, p)[0] for m in members]
        assert flags == [False] + [True] * (len(members) - 1)


class TestRegular:
    def test_empty(self):
        assert is_regular(EMPTY_BIP, P31)

    def test_column_conjugate(self):
        p = Params.make(2, (0, 0))
        assert not is_regular(conjugate(bip((3,), ())), p)

    def test_h5_partner(self):
        assert is_regular(bip((4, 1), ()), Params.make(2, (1, 1)))


class TestDiamond:
    def test_weight_zero_fixed(self):
        b = bip((1,), ())
        assert weight(b, P31) == 0
        assert mu_diamond(b, P31) == b

    def test_not_restricted(self):
        with pytest.raises(ValueError, match="not restricted"):
            mu_diamond(bip((3,), ()), Params.make(2, (0, 0)))

    def test_three_runner_case(self):
        # k = l = m: the distinguished member maps to a hook one step over
        fam = family_from_type_params("III", 4, (0, 1, 2, 2, 2))
        i = 0
        mu = fam.bip_of("hook", (i + 1, i - 1, 2))
        assert mu_diamond(mu, fam.params) == fam.bip_of("hook", (i - 1, i, 1))

    def test_double_removable_case(self):
        fam = family_from_type_params("IV", 4, (0, 0, 2, 2, 2))
        i, j = 0, 0
        mu = fam.bip_of("hook", (i, i - 1, 2))
        assert mu_diamond(mu, fam.params) == \
            fam.bip_of("hook", (i - 1, j + 1, 1))

    def test_h5(self):
        p = Params.make(2, (1, 1))
        assert mu_diamond(bip((), (2, 1, 1, 1)), p) == bip((4, 1), ())

    @given(small_bips(6), params_st())
    def test_result_regular(self, b, p):
        if is_restricted(b, p)[0]:
            assert is_regular(mu_diamond(b, p), p)

    def test_weight_one_base_without_unique_cover(self, monkeypatch):
        xi = bip((), (1,))
        p = Params.make(2, (0, 0))
        monkeypatch.setattr(crystal, "enumerate_block", lambda key, q: [
            bip((2,), ()), bip((1, 1), ()), xi])
        # both others dominate xi, and neither dominates the other
        monkeypatch.setattr(crystal, "dominates", lambda a, b: b == xi)
        with pytest.raises(InvariantError, match=r"diamond: 2 minimal "
                           r"members of the weight-1 block of \(-\|1\)"):
            _weight_one_diamond(xi, p)

    def test_missing_anticogood_node(self, monkeypatch):
        real = crystal.signature
        monkeypatch.setattr(crystal, "signature", lambda b, i, p:
                            dataclasses.replace(real(b, i, p),
                                                anticogood=None))
        with pytest.raises(InvariantError, match=r"diamond: .* has no "
                           r"anticogood \d-node to add on the way back to "
                           r"the partner of \(-\|2,1,1,1\)"):
            mu_diamond(bip((), (2, 1, 1, 1)), Params.make(2, (1, 1)))


def grow_closure(n, p):
    """Forward cogood growth from the empty bipartition."""
    level = {EMPTY_BIP}
    for _ in range(n):
        nxt = set()
        for b in level:
            for i in range(p.e):
                rep = signature(b, i, p)
                if rep.cogood is not None:
                    nxt.add(add_node(b, rep.cogood))
        level = nxt
    return level


class TestCrystalOracles:
    @pytest.mark.parametrize("e,kappa", [(2, (0, 1)), (3, (0, 0)),
                                         (3, (1, 0))])
    def test_restricted_set_is_closure(self, e, kappa):
        p = Params.make(e, kappa)
        for n in range(7):
            grown = grow_closure(n, p)
            computed = {b for b in bips_of(n) if is_restricted(b, p)[0]}
            assert grown == computed

    @pytest.mark.parametrize("e,kappa", [(2, (0, 1)), (3, (0, 2))])
    def test_diamond_commutes_with_steps(self, e, kappa):
        # removing the good i-node maps partners to partners (antigood side)
        p = Params.make(e, kappa)
        for n in range(2, 7):
            for lam in bips_of(n):
                if not is_restricted(lam, p)[0]:
                    continue
                lam_d = mu_diamond(lam, p)
                for i in range(e):
                    rep = signature(lam, i, p)
                    if rep.good is None:
                        continue
                    mu = remove_node(lam, rep.good)
                    anti = signature(lam_d, i, p).antigood
                    assert anti is not None
                    assert remove_node(lam_d, anti) == mu_diamond(mu, p)


class TestOneScanOracle:
    """The one-walk good search and both strips against full signatures."""

    @pytest.mark.parametrize("e", [2, 3, 4, 5])
    def test_every_small_bipartition(self, e):
        for kappa in product(range(e), repeat=2):
            p = Params.make(e, kappa)
            strips = {}
            regular = {}  # the antigood strip reaches the empty bipartition
            for n in range(9):  # ascending size: a strip step is known
                for b in bips_of(n):
                    good = anti = None
                    reps = [signature(b, i, p) for i in range(e)]
                    for i, rep in enumerate(reps):
                        if good is None and rep.good is not None:
                            good = (i, rep.good)
                        if anti is None and rep.antigood is not None:
                            anti = rep.antigood
                    found = _next_good(b, p)
                    assert (found and found[:2]) == good, (b, p)
                    if found:
                        raw = reps[found[0]].raw_string
                        assert found[2] == (raw.count("-")
                                            - raw.count("+")), (b, p)
                    regular[b] = (b == EMPTY_BIP if anti is None
                                  else regular[remove_node(b, anti)])
                    assert is_regular(b, p) == regular[b], (b, p)
                    if good is None:
                        strips[b] = StripTrace((), b)
                    else:
                        rest = strips[remove_node(b, good[1])]
                        strips[b] = StripTrace((good[0],) + rest.residues,
                                               rest.terminal)
                    want = (strips[b].terminal == EMPTY_BIP, strips[b])
                    got = is_restricted(b, p)
                    assert got == want and is_checked(got[1].terminal), \
                        (b, p)


def diamond_oracle(mu, p):
    """mu_diamond by its definition: the abacus weight at every step, and
    the good node of the smallest residue removed through remove_node."""
    cur, residues = mu, []
    while (wt := weight_trace(cur, p).total) > 1:
        i, good = next((i, rep.good) for i in range(p.e)
                       if (rep := signature(cur, i, p)).good is not None)
        cur = remove_node(cur, good)
        residues.append(i)
    if wt == 1:
        cur = _weight_one_diamond(cur, p)
    for i in reversed(residues):
        cur = add_node(cur, signature(cur, i, p).anticogood)
    return cur


class TestDiamondOracle:
    @pytest.mark.parametrize("e", [2, 3, 4])
    def test_every_small_restricted_bipartition(self, e):
        for kappa in product(range(e), repeat=2):
            p = Params.make(e, kappa)
            for n in range(8):
                for b in bips_of(n):
                    if is_restricted(b, p)[0]:
                        partner = mu_diamond(b, p)
                        assert partner == diamond_oracle(b, p), (b, p)
                        assert is_checked(partner), (b, p)
