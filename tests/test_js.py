import warnings
from collections import defaultdict
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given

from bipblocks import blocks, js
from bipblocks.core import (
    InvariantError, Params, bip, dominates, EMPTY_BIP, canonical_sort,
    dominance_key, ranked, rim_hooks,
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
from helpers import (
    bips_of, matrix_by_bips, pairs_by_scan, small_bips, params_st,
    valuation_table_by_hooks,
)


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

    def test_same_bipartition_refused(self, monkeypatch):
        # refused before any hook is built, naming the bipartition
        monkeypatch.setattr(js, "_hook_data", None)
        with pytest.raises(ValueError, match=r"\(3,1\|2\) twice$"):
            hook_pairs(bip((3, 1), (2,)), bip((3, 1), (2,)),
                       Params.make(3, (0, 0)))

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

    @pytest.mark.parametrize("e", [2, 3, 4])
    def test_lookup_matches_scan(self, e, monkeypatch):
        # every pair of distinct bipartitions of one size n <= 5 (a
        # bipartition's pair with itself shares hands, which both refuse):
        # the (rest, hand residue) lookup finds the nested scan's pairs, in
        # its order; rim_hooks is not under test, so both sides read one
        # memo
        monkeypatch.setattr(js, "_hook_data",
                            lru_cache(maxsize=None)(js._hook_data))
        pairs = [(lam, nu) for n in range(6)
                 for lam, nu in product(bips_of(n), repeat=2) if lam != nu]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CharacteristicWarning)
            for k, charp in product(range(e), (0, 2, 3)):
                if charp and e % charp == 0:
                    continue
                p = Params.make(e, (0, k), charp)
                for lam, nu in pairs:
                    assert hook_pairs(lam, nu, p) == \
                        pairs_by_scan(lam, nu, p), (lam, nu, p)


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
    """The nonzero entries of the all-pairs loop the hash join replaced,
    each pair's hooks matched by the nested scan."""
    table = {}
    for a, b in combinations(members, 2):
        if dominates(a, b):
            v = sum(pr.epsilon * pr.valuation
                    for pr in pairs_by_scan(a, b, p))
            if v:
                table[a, b] = v
    return table


@lru_cache(maxsize=None)
def _catalogue_and_ladder():
    """The families of the 34 catalogue cases and of the type-III ladder at
    window (0,1,1,2,3) for e = 5 and 7."""
    from bipblocks.cli import CASES
    windows = [(c.block_type, c.default_e, c.default_window)
               for c in CASES.values()]
    windows += [("III", e, (0, 1, 1, 2, 3)) for e in (5, 7)]
    return tuple(family_from_type_params(*w) for w in windows)


class TestValuationTableOracle:
    def test_hook_join_on_catalogue_and_ladder(self, monkeypatch):
        # the RimHook join, with its dominance test, against the mask join
        # at every characteristic 0, 2 or 3 a block allows, warnings
        # included; the oracle reads each member's hooks from one memo.
        # About 0.45 s on a 2-vCPU host, the shared families included
        monkeypatch.setattr(js, "_hook_data",
                            lru_cache(maxsize=None)(js._hook_data))
        compared = 0
        for fam in _catalogue_and_ladder():
            members, (e, kappa, _) = fam.members(), fam.params
            for charp in (0, 2, 3):
                if charp and e % charp == 0:
                    continue
                p = Params.make(e, kappa, charp)
                assert _recorded(lambda: _valuation_table(members, p)) == \
                    _recorded(lambda: valuation_table_by_hooks(members, p)), \
                    (e, kappa, charp)
                compared += 1
        assert compared == 83  # 34 + 43 catalogue tables and 6 on the ladder

    @pytest.mark.parametrize("e", [2, 3, 4, 5])
    def test_every_small_block(self, e, monkeypatch):
        # the table under test builds no rim hooks; the oracle reads each
        # member's hook data from one memo
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
                    table, messages = _recorded(
                        lambda: _valuation_table(members, p))
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
        # the table path names the two members
        with pytest.raises(InvariantError,
                           match=r"hook-pair valuation: .*: \(2,1\|-\) and "
                                 r"\(2,1\|-\)$"):
            _valuation_table([bip((2, 1), ())] * 2, self.P)

    # row 0 is lam, placed above the column mu = row 1; the table, grouped
    # by dominated row, has one step (0, 1), which mu pushes up to lam
    LAM_MU = (bip((1, 1), ()), bip((2,), ()))
    KEYS = [dominance_key(b) for b in LAM_MU]

    def test_negative_bound(self):
        with pytest.raises(InvariantError,
                           match=r"column solve of \(2\|-\): negative "
                                 r"bound -1 at \(1,1\|-\)"):
            _solve_column(1, [[], [(0, -1)]], self.LAM_MU, self.KEYS)

    def test_bound_off_dominance_cone(self):
        assert not dominates(*self.LAM_MU)
        with pytest.raises(InvariantError,
                           match=r"\(1,1\|-\), which does not dominate"):
            _solve_column(1, [[], [(0, 1)]], self.LAM_MU, self.KEYS)

    def test_order_step_against_canonical_order(self, monkeypatch):
        top, low = bip((2,), ()), bip((1, 1), ())
        # a step from row 1 (low) up to row 0 (top)
        monkeypatch.setattr(js, "_valuation_table",
                            lambda members, p: {(1, 0): 1})
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

    @pytest.mark.parametrize("e", [2, 3, 4])
    def test_reachability_over_table_steps(self, e):
        # every pair of members of every block of weight <= 3, n <= 7,
        # every kappa: the order is reachability over the table's steps,
        # and a bipartition outside the block dominates only itself
        for kappa in product(range(e), repeat=2):
            p = Params.make(e, kappa)
            for n in range(8):
                by_key = defaultdict(list)
                for b in bips_of(n):
                    by_key[block_key(b, p)[0]].append(b)
                for group in by_key.values():
                    if weight(group[0], p) > 3:
                        continue
                    members = ranked(group)[0]
                    steps = defaultdict(set)
                    for i, j in _valuation_table(members, p):
                        steps[i].add(j)
                    order = order_from_members(group, p)
                    assert order.members == members
                    for i, a in enumerate(members):
                        reach, todo = {i}, [i]
                        while todo:
                            new = steps[todo.pop()] - reach
                            reach |= new
                            todo.extend(new)
                        for j, b in enumerate(members):
                            assert order.dominates(a, b) == (j in reach)
                    out = next((b for b in bips_of(n) if b not in group),
                               bip((n + 1,), ()))
                    assert order.dominates(out, out)
                    assert not any(order.dominates(out, m)
                                   or order.dominates(m, out)
                                   for m in members)

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

    def test_weight_above_three_refused(self, monkeypatch):
        # the weight is read off the key's content: no member is searched
        def refuse(key, p):
            raise AssertionError(f"searched the block {key}")
        monkeypatch.setattr(blocks, "_members", refuse)
        p = Params.make(2, (0, 0))
        b = bip((), (4,))
        assert weight(b, p) == 4
        with pytest.raises(ValueError, match="^unsupported weight 4: "):
            decomposition_matrix(block_key(b, p)[0], p)

    def test_members_of_weight_above_three_refused(self):
        p = Params.make(2, (0, 0))
        members = enumerate_block(block_key(bip((), (4,)), p)[0], p)
        with pytest.raises(ValueError, match="unsupported weight 4"):
            matrix_from_members(members, p)

    def test_solved_block_weighed_once(self, monkeypatch):
        # block_weight refuses or admits the block from its key; the solve
        # takes no second weight from a member
        def no_weight(b, p):
            raise AssertionError("weight taken twice")
        monkeypatch.setattr(js, "weight", no_weight)
        p = Params.make(4, (0, 3))
        key = block_key(bip((4,), (4, 1, 1)), p)[0]
        m = decomposition_matrix(key, p)
        assert m.block == key and len(m.rows) == 28

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
    # the oracle solves on the RimHook join; it reads each member's hook
    # data from one memo
    monkeypatch.setattr(js, "_hook_data",
                        lru_cache(maxsize=None)(js._hook_data))
    count = 0
    for members, p in _small_weight3_blocks():
        m = matrix_from_members(members, p)
        assert (m.rows, m.cols, m.entries, m.jbounds, m.flags) \
            == matrix_by_bips(members, p), (members, p)
        count += 1
    assert count == 1080


# The decomp blocks of the benchmark: the type-III ladder at the window
# (0, 1, 1, 2, 3), and the weight-3 blocks drawn for its (e, n) slots,
# each rebuilt from a member: (e, kappa, comp1, comp2).
SLOT_WITNESSES = {
    "w3-e4-n14": (4, (0, 3), (5, 2), (2, 1, 1, 1, 1, 1)),
    "w3-e5-n16": (5, (0, 3), (2, 2, 1), (8, 1, 1, 1)),
    "w3-e6-n18": (6, (0, 5), (5, 3, 2, 2, 1, 1), (1, 1, 1, 1)),
}


def _benchmark_member(name):
    if name.startswith("ladder"):
        fam = family_from_type_params("III", int(name[-1]), (0, 1, 1, 2, 3))
        return fam.labels[0].bipartition, fam.params
    e, kappa, c1, c2 = SLOT_WITNESSES[name]
    return bip(c1, c2), Params.make(e, kappa)


@pytest.mark.parametrize("name", ["ladder-e5", "ladder-e7", *SLOT_WITNESSES])
def test_solver_matches_oracle_on_benchmark_blocks(name):
    b, p = _benchmark_member(name)
    assert weight(b, p) == 3
    members = enumerate_block(block_key(b, p)[0], p)
    m = matrix_from_members(members, p)
    assert (m.rows, m.cols, m.entries, m.jbounds, m.flags) \
        == matrix_by_bips(members, p)


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


def test_matrix_does_not_depend_on_the_characteristic(monkeypatch):
    """On the 34 catalogue blocks and the type-III ladder at window
    (0,1,1,2,3) for e = 5 and 7, the matrix at each charp 2 and 3 that
    ``Params.make`` allows equals the charp 0 matrix. The reason on this
    range: every same-component hook pair of these tables has its hands
    exactly e apart (k = 1), and the characteristic multiplier needs
    charp | k. The spy sees every same-component pair the tables value:
    2,092 at charp 0, 1,152 at charp 2 and 1,570 at charp 3. About 0.5 s
    on a 2-vCPU host."""
    ks = []

    def spy(offset, p, valuation=js._valuation):
        ks.append(abs(offset) // p.e)
        return valuation(offset, p)

    monkeypatch.setattr(js, "_valuation", spy)
    compared = 0
    for fam in _catalogue_and_ladder():
        members, p = fam.members(), fam.params
        want = matrix_from_members(members, p)
        for charp in (2, 3):
            if p.e % charp:
                got = matrix_from_members(
                    members, Params.make(p.e, p.kappa, charp))
                assert (got.rows, got.cols, got.jbounds) == \
                    (want.rows, want.cols, want.jbounds), (p.e, charp)
                compared += 1
    assert compared == 47  # 43 catalogue matrices and 4 on the ladder
    assert len(ks) == 2092 + 1152 + 1570
    assert set(ks) == {1}, sorted(set(ks))
