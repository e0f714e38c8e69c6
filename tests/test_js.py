import warnings
from collections import defaultdict
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given

from bipblocks import js
from bipblocks.core import (
    InvariantError, Params, bip, dominates, EMPTY_BIP, canonical_sort,
    dominance_key, rim_hooks,
)
from bipblocks.blocks import (
    block_key, content_counts, enumerate_block, family_from_type_params,
    weight,
)
from bipblocks.crystal import is_restricted
from bipblocks.js import (
    CharacteristicWarning, DecompMatrix, hook_pairs, js_valuation,
    order_from_members, matrix_from_members,
    decomposition_matrix, _pair_valuation, _solve_column, _valuation_table,
)
from helpers import bips_of, matrix_by_bips, small_bips, params_st


class TestHookPairs:
    def test_single_pair_example(self):
        # one length-6 exchange across components, legs 3 and 2
        p = Params.make(6, (5, 4))
        nu = bip((2, 1, 1, 1, 1), (4,))
        lam = bip((2,), (4, 2, 1, 1))
        assert dominates(nu, lam) and nu != lam
        pairs = hook_pairs(nu, lam, p)
        assert len(pairs) == 1
        pair = pairs[0]
        assert pair.valuation == 1
        assert pair.epsilon == (-1) ** (pair.L.leg_length - pair.N.leg_length)
        assert pair.epsilon == -1
        assert js_valuation(nu, lam, p) == -1

    def test_no_pairs_across_row_column(self):
        p = Params.make(3, (0, 0))
        assert hook_pairs(bip((2, 2), ()), bip((), (2, 2)), p) == []

    def test_size_mismatch(self):
        p = Params.make(3, (0, 0))
        with pytest.raises(ValueError, match="sizes"):
            hook_pairs(bip((2,), ()), bip((3,), ()), p)

    def test_valuation_needs_dominance(self):
        p = Params.make(3, (0, 0))
        with pytest.raises(ValueError, match="dominate"):
            js_valuation(bip((1, 1), ()), bip((2,), ()), p)
        with pytest.raises(ValueError, match="dominate"):
            js_valuation(bip((2,), ()), bip((2,), ()), p)

    def test_characteristic_multiplicity(self):
        # hands three full turns apart: the valuation picks up the
        # characteristic part of the offset
        lam, nu = bip((7,), ()), bip((1, 1, 1, 1, 1, 1, 1), ())
        with pytest.warns(CharacteristicWarning):
            pairs = hook_pairs(lam, nu, Params.make(2, (0, 0), charp=3))
        assert [pr.valuation for pr in pairs] == [3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs0 = hook_pairs(lam, nu, Params.make(2, (0, 0), charp=0))
        assert [pr.valuation for pr in pairs0] == [1]

    @given(small_bips(6), small_bips(6), params_st())
    def test_signed_sum_symmetric(self, a, b, p):
        if a.size != b.size or a == b:
            return
        fwd = sum(pr.epsilon * pr.valuation for pr in hook_pairs(a, b, p))
        bwd = sum(pr.epsilon * pr.valuation for pr in hook_pairs(b, a, p))
        assert fwd == bwd


def _small_blocks(p, max_n=8):
    """Every block of bipartitions of size at most max_n, canonically
    sorted."""
    for n in range(max_n + 1):
        groups = defaultdict(list)
        for b in bips_of(n):
            groups[content_counts(b, p)].append(b)
        for members in groups.values():
            yield tuple(canonical_sort(members))


def _recorded(fn):
    """fn's result and the set of warning messages it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn()
    return value, {str(w.message) for w in caught}


def _all_pairs_table(members, p):
    """The nonzero entries of the all-pairs loop the hash join replaced."""
    table = {}
    for a, b in combinations(members, 2):
        if dominates(a, b):
            v = sum(pr.epsilon * pr.valuation for pr in hook_pairs(a, b, p))
            if v:
                table[a, b] = v
    return table


class TestValuationTableOracle:
    @pytest.mark.parametrize("e", [2, 3, 4, 5])
    def test_every_small_block(self, e, monkeypatch):
        # rim_hooks is not under test and is most of the cost: both sides
        # read each member's hook data from one memo
        monkeypatch.setattr(js, "_hook_data",
                            lru_cache(maxsize=None)(js._hook_data))
        charps = [c for c in (0, 2, 3) if c == 0 or e % c]
        # shifting both charges by one residue relabels residues and keeps
        # every hook pair and valuation, so the reference is computed once
        # per charge difference
        reference, warned = {}, set()
        for k1, k2 in product(range(e), repeat=2):
            for members in _small_blocks(Params.make(e, (k1, k2))):
                for charp in charps:
                    p = Params.make(e, (k1, k2), charp)
                    ref_key = (members, (k2 - k1) % e, charp)
                    if ref_key not in reference:
                        reference[ref_key] = _recorded(
                            lambda: _all_pairs_table(members, p))
                    keys = [dominance_key(m) for m in members]
                    table, messages = _recorded(
                        lambda: _valuation_table(members, keys, p))
                    nonzero = {(members[i], members[j]): v
                               for (i, j), v in table.items() if v}
                    assert (nonzero, messages) == reference[ref_key], \
                        (members, p)
                    warned |= messages
        # below n = 9 only e = 2 and 3 have hands 3 or 2 turns apart, a
        # multiple of a characteristic allowed with them
        assert bool(warned) == (e in (2, 3))


class TestInvariantErrors:
    P = Params.make(3, (0, 0))

    def test_coincident_hands(self):
        hook = rim_hooks(bip((2, 1), ()))[0]
        with pytest.raises(InvariantError, match="hook-pair valuation"):
            _pair_valuation(hook, hook, self.P)

    # row 0 is lam, placed above the column mu = row 1, and its one
    # table step reaches mu
    LAM_MU = (bip((1, 1), ()), bip((2,), ()))
    KEYS = [dominance_key(b) for b in LAM_MU]

    def test_negative_bound(self):
        with pytest.raises(InvariantError,
                           match=r"column solve of \(2\|-\): negative "
                                 r"bound -1 at \(1,1\|-\)"):
            _solve_column(1, [[(1, -1)], []], self.LAM_MU, self.KEYS)

    def test_bound_off_dominance_cone(self):
        assert not dominates(*self.LAM_MU)
        with pytest.raises(InvariantError,
                           match=r"\(1,1\|-\), which does not dominate"):
            _solve_column(1, [[(1, 1)], []], self.LAM_MU, self.KEYS)

    def test_order_step_against_canonical_order(self, monkeypatch):
        top, low = bip((2,), ()), bip((1, 1), ())
        # a step from row 1 (low) up to row 0 (top)
        monkeypatch.setattr(js, "_valuation_table",
                            lambda members, keys, p: {(1, 0): 1})
        with pytest.raises(InvariantError,
                           match=r"refined order: the step \(1,1\|-\) -> "
                                 r"\(2\|-\)"):
            order_from_members([top, low], self.P)


class TestOrder:
    def test_double_removable_chain(self):
        # the four members between the distinguished one and its partner
        # are totally ordered
        fam = family_from_type_params("IV", 4, (0, 1, 2, 2, 2))
        order = order_from_members(fam.members(), fam.params)
        mu = fam.bip_of("hook", (0, -1, 2))
        chain = [fam.bip_of("hook", t) for t in
                 [(-1, 0, 2), (-1, -1, 2), (0, 0, 1), (0, -1, 1)]] + [mu]
        for a, b in zip(chain, chain[1:]):
            assert order.dominates(a, b)
            assert not order.dominates(b, a)

    def test_three_runner_incomparable_pair(self):
        fam = family_from_type_params("III", 5, (0, 2, 3, 3, 3))
        order = order_from_members(fam.members(), fam.params)
        a = fam.bip_of("downdownup", (-1, 1, 0))
        b = fam.bip_of("down", (0,))
        assert not order.dominates(a, b)
        assert not order.dominates(b, a)
        assert not dominates(a, b) and not dominates(b, a)

    def test_refines_into_dominance(self):
        p = Params.make(3, (0, 1))
        key, _ = block_key(bip((2, 1), (1, 1)), p)
        order = order_from_members(enumerate_block(key, p), p)
        for a in order.members:
            for b in order.members:
                if a != b and order.dominates(a, b):
                    assert dominates(a, b)


class TestMatrixBasics:
    def test_weight_zero(self):
        p = Params.make(3, (0, 1))
        m = decomposition_matrix(block_key(EMPTY_BIP, p)[0], p)
        assert m.rows == (EMPTY_BIP,) and m.cols == (EMPTY_BIP,)
        assert m.entries == ((1,),)

    def test_weight_above_three_refused(self):
        p = Params.make(2, (0, 0))
        b = bip((), (4,))
        assert weight(b, p) == 4
        with pytest.raises(ValueError, match="weight"):
            decomposition_matrix(block_key(b, p)[0], p)

    def test_rows_canonical_cols_restricted(self):
        p = Params.make(3, (0, 1))
        key, _ = block_key(bip((2, 1), (1, 1)), p)
        m = decomposition_matrix(key, p)
        assert list(m.rows) == canonical_sort(m.rows)
        assert all(is_restricted(c, p)[0] for c in m.cols)
        assert set(m.cols) <= set(m.rows)
        for mu in m.cols:
            assert m.entry(mu, mu) == 1 and m.flag(mu, mu) == "direct"

    def test_cell_lookups_match_tables(self):
        # the default window of a type-III catalogue case
        fam = family_from_type_params("III", 5, (0, 2, 3, 3, 3))
        m = matrix_from_members(fam.members(), fam.params)
        for r, lam in enumerate(m.rows):
            for c, mu in enumerate(m.cols):
                assert m.entry(lam, mu) == m.entries[r][c]
                assert m.jbound(lam, mu) == m.jbounds[r][c]
                assert m.flag(lam, mu) == m.flags[r][c]
        # entries, flags and the index maps are derived, not part of the
        # value
        copy = DecompMatrix(m.block, m.rows, m.cols, m.jbounds)
        assert copy == m and hash(copy) == hash(m)
        assert copy.entries == m.entries and copy.flags == m.flags
        for name in ("entries", "flags", "_row_at", "_col_at"):
            assert name not in repr(m)


def _small_weight3_blocks():
    """Every block of weight <= 3 with n <= 10, e in {2, 3, 4},
    kappa = (0, k), and each characteristic 0, 2, 3 not dividing e, its
    members in enumeration order."""
    for e in (2, 3, 4):
        for k, charp in product(range(e), (0, 2, 3)):
            if charp and e % charp == 0:
                continue
            p = Params.make(e, (0, k), charp)
            for n in range(11):
                groups = defaultdict(list)
                for b in bips_of(n):
                    groups[content_counts(b, p)].append(b)
                for members in groups.values():
                    if weight(members[0], p) <= 3:
                        yield members, p


@pytest.mark.filterwarnings("ignore::bipblocks.js.CharacteristicWarning")
def test_solver_matches_bipartition_keyed_oracle(monkeypatch):
    # the table is shared and has its own oracle; rim_hooks is most of the
    # cost, so both solvers read each member's hook data from one memo
    monkeypatch.setattr(js, "_hook_data",
                        lru_cache(maxsize=None)(js._hook_data))
    count = 0
    for members, p in _small_weight3_blocks():
        m = matrix_from_members(members, p)
        assert (m.rows, m.cols, m.entries, m.jbounds, m.flags) \
            == matrix_by_bips(members, p), (members, p)
        count += 1
    assert count == 1080


class TestTwoRectangleColumn:
    """The distinguished column of the two-rectangle family at its
    smallest asymmetric window."""

    @pytest.fixture(scope="class")
    @staticmethod
    def fam():
        return family_from_type_params("II", 5, (0, 0, 1, 3))

    def test_valuations(self, fam):
        q = fam.params
        mu = fam.bip_of("hook", (0, -1, 2))
        g = {x: fam.bip_of("downdownup", (0, x, -1)) for x in (2, 3)}
        g[0] = fam.bip_of("hook", (0, -1, 1))
        bl = fam.bip_of("hook", (3, -1, 2))
        assert js_valuation(g[2], mu, q) == -1
        assert js_valuation(g[3], mu, q) == 1
        assert js_valuation(g[0], mu, q) == 1
        assert js_valuation(bl, mu, q) == -1
        assert js_valuation(g[2], g[3], q) == 1
        assert js_valuation(g[0], g[3], q) == -1
        assert js_valuation(bl, g[3], q) == 1

    def test_column(self, fam):
        q = fam.params
        mu = fam.bip_of("hook", (0, -1, 2))
        m = matrix_from_members(fam.members(), q)
        assert m.entry(fam.bip_of("downdownup", (0, 3, -1)), mu) == 1
        assert m.entry(fam.bip_of("downdownup", (0, 2, -1)), mu) == 0
        assert m.entry(fam.bip_of("hook", (0, -1, 1)), mu) == 0
        assert m.entry(fam.bip_of("hook", (3, -1, 2)), mu) == 0
        assert m.entry(mu, mu) == 1


def _column_check(m, mu, fam, rows):
    for label, args, j, dn in rows:
        lam = fam.bip_of(label, args)
        assert m.jbound(lam, mu) == j, (label, args)
        assert m.entry(lam, mu) == dn, (label, args)
        assert m.flag(lam, mu) == ("clamped" if j >= 2 else "direct")


class TestThreeRunnerColumns:
    """Both window shapes of the three-runner family; the stacked-column
    member picks up a bound of 2 that clamps to 1."""

    @pytest.mark.parametrize("params", [(0, 2, 3, 3, 3), (0, 2, 2, 2, 2)])
    def test_column(self, params):
        i, j, k, l, m = params
        fam = family_from_type_params("III", 5, params)
        q = fam.params
        mu = fam.bip_of("hook", (i + 1, i, 2))
        assert is_restricted(mu, q)[0]
        mat = matrix_from_members(fam.members(), q)
        rows = [
            ("hook", (i + 1, i, 1), 1, 1),
            ("downdownup", (i - 1, i + 1, i), 0, 0),
            ("hook", (i + 1, i + 2, 2), 1, 1),
            ("hook", (i + 1, i + 1, 2), 0, 0),
            ("hook", (i + 2, i + 2, 1), 1, 1),
            ("hook", (i + 1, i + 1, 1), 2, 1),
            ("down", (i,), 0, 0),
        ]
        rows += [("hook", (i + 1, x, 2), 0, 0) for x in range(i + 3, k + 1)]
        rows += [("down", (x,), 0, 0) for x in range(j + 1, k + 1)]
        _column_check(mat, mu, fam, rows)


class TestDoubleRemovableColumns:
    """The two mirrored windows of the double-removable family share four
    members between the distinguished column's label and its partner."""

    def test_inner_window(self):
        # removable node against the wide side
        i, j, k, l, m = 0, 1, 1, 1, 2
        fam = family_from_type_params("IV", 4, (i, j, k, l, m))
        q = fam.params
        mu = fam.bip_of("hook", (i, m, 2))
        assert is_restricted(mu, q)[0]
        mat = matrix_from_members(fam.members(), q)
        rows = [
            ("hook", (i, i + 1, 2), 1, 1),
            ("hook", (i, i, 2), 0, 0),
            ("hook", (i + 1, i + 1, 1), 1, 1),
            ("downdownup", (i, i - 1, m), 1, 1),
            ("hook", (i - 1, m, 2), 0, 0),
            ("hook", (i, m, 1), 0, 0),
            ("hook", (i, i - 1, 1), 1, 1),
            ("hook", (i, i, 1), 2, 1),
            ("hook", (i - 1, i - 1, 2), 1, 1),
        ]
        _column_check(mat, mu, fam, rows)

    def test_outer_window(self):
        # mirrored window; the top of the shared chain is forced to 1 by
        # the bound at the next member up
        i, j, k, l, m = 0, 1, 2, 2, 2
        fam = family_from_type_params("IV", 4, (i, j, k, l, m))
        q = fam.params
        mu = fam.bip_of("hook", (i, i - 1, 2))
        assert is_restricted(mu, q)[0]
        mat = matrix_from_members(fam.members(), q)
        rows = [
            ("hook", (i, i + 1, 2), 1, 1),
            ("hook", (i, i + 2, 2), 0, 0),
            ("hook", (i, i, 2), 0, 0),
            ("down", (j + 1,), 0, 0),
            ("hook", (i + 1, i + 1, 1), 1, 1),
            ("hook", (i, i - 1, 1), 1, 1),
        ]
        _column_check(mat, mu, fam, rows)
        b3 = fam.bip_of("hook", (i - 1, i - 1, 2))
        b4 = fam.bip_of("hook", (i - 1, i, 2))
        tau = fam.bip_of("hook", (i - 1, i + 1, 2))
        assert mat.entry(fam.bip_of("hook", (i, i, 1)), mu) == 1
        assert mat.entry(b3, mu) == 1
        assert mat.entry(b4, mu) == 1
        assert mat.jbound(tau, mu) == 1 - mat.entry(b3, mu)
        assert mat.entry(tau, mu) == 0

    def test_smallest_block(self):
        # two-runner window where everything collapses to eight members
        fam = family_from_type_params("IV", 2, (0, 0, 0, 0, 0))
        q = fam.params
        members = fam.members()
        assert len(members) == 8
        mat = matrix_from_members(members, q)
        mu = bip((), (2, 1, 1, 1))
        b1 = bip((1, 1), (2, 1))
        b2 = bip((2,), (2, 1))
        assert set(mat.cols) == {mu, b1}
        betas = [b1, b2, bip((2, 1), (1, 1)), bip((2, 1), (2,))]
        for bx in betas:
            assert mat.entry(bx, mu) == 1
        assert mat.entry(mu, mu) == 1
        assert mat.entry(b1, b1) == 1
        assert mat.entry(b2, b1) == 1
        for lam in mat.rows:
            for col in mat.cols:
                assert mat.entry(lam, col) in (0, 1)
