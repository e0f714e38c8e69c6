import pytest
from hypothesis import given, strategies as st

from bipblocks.core import (
    Params, bip, EMPTY_BIP, residue, rim_hooks,
)
from bipblocks.abacus import (
    Bicharge, canonical_bicharge, to_display, from_display, display,
    gamma_vector, apply_move, transfer_bead, push_down_lowest, push_up,
    is_bicore, s_xy,
)
from helpers import small_bips, params_st, addable_nodes, removable_nodes

P54 = Params.make(5, (4, 4))


class TestToDisplay:
    def test_empty(self):
        d = to_display(EMPTY_BIP, P54, Bicharge(9, 7))
        assert d.beads1 == frozenset(range(9))
        assert d.beads2 == frozenset(range(7))

    def test_beta_positions(self):
        d = to_display(bip((5, 3), (6, 4, 3)), P54, Bicharge(9, 9))
        assert d.beads1 == frozenset({13, 10, 6, 5, 4, 3, 2, 1, 0})
        assert d.beads2 == frozenset({14, 11, 9, 5, 4, 3, 2, 1, 0})

    def test_insufficient_charge(self):
        with pytest.raises(ValueError, match="charge below partition length"):
            to_display(bip((1, 1, 1), ()), P54, Bicharge(2, 5))

    @given(small_bips(), params_st())
    def test_round_trip(self, b, p):
        assert from_display(display(b, p)) == b

    @given(small_bips(6), params_st(), st.integers(0, 2), st.integers(0, 2))
    def test_round_trip_other_charges(self, b, p, s, t):
        ch = canonical_bicharge(b.size, p)
        ch = Bicharge(ch.k1 + p.e * s, ch.k2 + p.e * t)
        assert from_display(to_display(b, p, ch)) == b


class TestGamma:
    def test_empty_equal_charges(self):
        d = to_display(EMPTY_BIP, P54, Bicharge(10, 10))
        assert len(set(gamma_vector(d).values())) == 1

    def test_weight_example_gap(self):
        d = to_display(bip((2, 1), (6, 2)), P54, Bicharge(9, 9))
        g = gamma_vector(d)
        assert g[3] - g[4] == 3

    def test_nucleus_gap_pattern(self):
        p = Params.make(4, (0, 3))
        # the shifted bicharge one above / one below the block's (8, 7)
        d = to_display(bip((2,), (1, 1)), p, Bicharge(9, 6))
        g = gamma_vector(d)
        ones = {(z, y) for z in range(4) for y in range(4)
                if g[z] - g[y] == 1}
        assert ones == {(z, 1) for z in (0, 2, 3)}

    @given(small_bips(6), params_st(), st.integers(1, 2))
    def test_differences_bicharge_invariant(self, b, p, s):
        d1 = display(b, p)
        ch = Bicharge(d1.bicharge.k1 + p.e * s, d1.bicharge.k2 + p.e * s)
        d2 = to_display(b, p, ch)
        g1, g2 = gamma_vector(d1), gamma_vector(d2)
        for x in range(p.e):
            for y in range(p.e):
                assert g1[x] - g1[y] == g2[x] - g2[y]


class TestMoves:
    def test_full_runner_step_removes_e_nodes(self):
        b = bip((5, 3), (6, 4, 3))
        d = to_display(b, P54, Bicharge(9, 9))
        moved = apply_move(d, 1, 13, 8)
        assert from_display(moved).size == b.size - 5

    def test_missing_source(self):
        d = display(EMPTY_BIP, P54)
        with pytest.raises(ValueError, match="no bead"):
            apply_move(d, 1, d.bicharge.k1 + 3, 0)

    def test_occupied_target(self):
        d = display(EMPTY_BIP, P54)
        with pytest.raises(ValueError, match="not free"):
            apply_move(d, 1, d.bicharge.k1 - 1, 0)

    def test_hook_removal_matches_figure(self):
        p = Params.make(6, (5, 4))
        d = to_display(bip((2,), (4, 2, 1, 1)), p, Bicharge(11, 10))
        moved = apply_move(d, 2, 10, 6)
        assert from_display(moved) == bip((2,), (4,))

    def test_cross_component_swap(self):
        d = to_display(bip((2, 1), (6, 2)), P54, Bicharge(9, 9))
        out = s_xy(d, 3, 4)
        assert out.bicharge == d.bicharge
        assert from_display(out) == bip((2, 2), (1, 1))

    def test_transfer_shifts_bicharge(self):
        d = display(bip((2,), (1, 1)), Params.make(4, (0, 3)))
        out = transfer_bead(d, 2, 1)
        assert out.bicharge == Bicharge(d.bicharge.k1 + 1, d.bicharge.k2 - 1)

    def test_push_down_lowest(self):
        p = Params.make(4, (0, 3))
        d = display(EMPTY_BIP, p)
        out = push_down_lowest(d, 1, (d.bicharge.k1 - 1) % 4)
        assert from_display(out) == bip((4,), ())

    @given(small_bips(8), params_st())
    def test_push_up_reaches_bicore(self, b, p):
        d, hooks = push_up(display(b, p))
        assert is_bicore(d)
        assert from_display(d).size == b.size - p.e * hooks


class TestBoundaryAgreement:
    @given(small_bips(8), params_st())
    def test_removable_and_addable_positions(self, b, p):
        d = display(b, p)
        for a in (1, 2):
            beads = d.beads(a)
            rem = sorted((x % p.e) for x in beads
                         if x > 0 and x - 1 not in beads)
            add = sorted((x % p.e) for x in range(max(beads) + 2)
                         if x - 1 in beads and x not in beads)
            nodes_rem = sorted(residue(nd, p) for nd in removable_nodes(b)
                               if nd.component == a)
            nodes_add = sorted(residue(nd, p) for nd in addable_nodes(b)
                               if nd.component == a)
            assert rem == nodes_rem
            assert add == nodes_add

    @given(small_bips(7), params_st())
    def test_rim_hook_bijection(self, b, p):
        d = display(b, p)
        hooks = rim_hooks(b)
        for a in (1, 2):
            beads = d.beads(a)
            pairs = [(x, y) for x in beads for y in range(x)
                     if y not in beads]
            comp_hooks = [h for h in hooks if h.component == a]
            assert len(pairs) == len(comp_hooks)
            from_beads = sorted(
                (x - y, x % p.e, sum(1 for z in beads if y < z < x))
                for x, y in pairs)
            from_diagram = sorted(
                (h.length, residue(h.hand, p), h.leg_length)
                for h in comp_hooks)
            assert from_beads == from_diagram
