import time
from itertools import product

import pytest
from hypothesis import given, strategies as st

from bipblocks.core import (
    Params, Partition, Bipartition, Node, bip, EMPTY_BIP,
    residue, conjugate, dominates, dominance_key,
    add_cell, boundary_nodes, corner_codes, corners, remove_cell,
    rim_hooks,
    partitions, bipartitions,
    add_node, remove_node, canonical_sort,
)


from bipblocks.abacus import display, from_display
from helpers import (
    small_bips, bip_pairs, params_st, bips_of, addable_nodes,
    removable_nodes, dominates_by_rows, partial_sums, is_checked,
    rim_hooks_by_beta, diagram, conjugate_node, conjugate_by_columns,
    is_e_restricted,
)


class TestPartition:
    def test_strips_trailing_zeros(self):
        assert Partition((3, 2, 0, 0)) == (3, 2)
        assert Partition((3, 0, 0)) == (3,)

    def test_rejects_increase(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    # the last four are parts int() would have truncated or reread
    @pytest.mark.parametrize("c1, c2", [((1, 2), ()), ((), (2, -1)),
                                        ((2, 0, 1), ()), ((2.7, 1), ()),
                                        (("3",), ()), ((True,), ()),
                                        ((), (2, 1.0))])
    def test_bip_rejects_malformed_parts(self, c1, c2):
        with pytest.raises(ValueError):
            bip(c1, c2)

    @pytest.mark.parametrize("parts, message", [
        ((2, 0, 1), "weakly decreasing"), ((1, 0, -1), "non-negative")])
    def test_inner_zero_messages(self, parts, message):
        # an inner zero is refused by the order or by the sign of the last
        # part, since trailing zeros are stripped first
        with pytest.raises(ValueError, match=message):
            Partition(parts)

    def test_trusted_constructor_checks_nothing(self):
        # for parts the package has just built; outside input goes
        # through Partition(...)
        q = Partition._of((1, 2))
        assert type(q) is Partition and q == (1, 2)

    def test_row_out_of_range(self):
        p = Partition((4, 2))
        assert p.row(1) == 4 and p.row(3) == 0

    def test_conjugate(self):
        assert Partition((3, 2, 1, 1)).conjugate() == (4, 2, 1)
        assert Partition(()).conjugate() == ()

    def test_conjugate_against_column_counts(self):
        # every partition of n <= 15, then tall rows, columns and hooks
        tall = [(4000,), (1,) * 4000, (60,) + (1,) * 59, (3,) * 50]
        for q in [*(q for n in range(16) for q in partitions(n)),
                  *map(Partition, tall)]:
            assert q.conjugate() == conjugate_by_columns(q), q

    def test_conjugate_is_checked(self):
        # the trusted conjugate equals its checked rebuild, n <= 12
        for n in range(13):
            for q in partitions(n):
                c = q.conjugate()
                assert type(c) is Partition and c == Partition(tuple(c))
                assert c.size == n and c.conjugate() == q


class TestBipartitionStr:
    @pytest.mark.parametrize("b, text", [
        (bip((4, 1), ()), "(4,1|-)"),
        (bip((), (2, 1, 1, 1)), "(-|2,1,1,1)"),
        (EMPTY_BIP, "(-|-)"),
    ])
    def test_cli_form(self, b, text):
        assert str(b) == text


class TestResidue:
    def test_corner_is_kappa(self):
        p = Params.make(4, (1, 3))
        assert residue(Node(1, 1, 1), p) == 1
        assert residue(Node(1, 1, 2), p) == 3

    def test_first_row_component_one(self):
        p = Params.make(3, (0, 1))
        assert residue(Node(1, 4, 1), p) == 0

    def test_direct_evaluation(self):
        p = Params.make(6, (5, 4))
        assert residue(Node(1, 2, 2), p) == 5


class TestParams:
    def test_large_charp_refused_at_once(self):
        # 2^61 - 1 is prime: trial division up to its root would not end
        start = time.perf_counter()
        with pytest.raises(ValueError,
                           match="^charp must be at most 2147483647$"):
            Params.make(4, (0, 3), 2**61 - 1)
        assert time.perf_counter() - start < 0.1

    def test_prime_at_the_limit_accepted(self):
        assert Params.make(4, (0, 3), 2**31 - 1).charp == 2**31 - 1


class TestConjugate:
    def test_empty(self):
        assert conjugate(EMPTY_BIP) == EMPTY_BIP

    def test_single_node_swaps(self):
        assert conjugate(bip((1,), ())) == bip((), (1,))

    def test_transpose_example(self):
        assert conjugate(bip((3, 2, 1, 1), (2, 2, 2))) == bip((3, 3), (4, 2, 1))

    @given(small_bips())
    def test_involution(self, b):
        assert conjugate(conjugate(b)) == b

    @given(small_bips(6), params_st())
    def test_residue_conjugation_law(self, b, p):
        total = (p.kappa[0] + p.kappa[1]) % p.e
        for nd in diagram(b):
            img = conjugate_node(nd)
            assert img in diagram(conjugate(b))
            assert (residue(nd, p) + residue(img, p)) % p.e == total


class TestDominance:
    def test_reflexive(self):
        b = bip((2, 1), (3,))
        assert dominates(b, b)

    def test_partial_sum_chains(self):
        assert dominates(bip((1,), (1,)), bip((), (2,)))
        assert not dominates(bip((), (2,)), bip((1,), (1,)))

    def test_chain_of_four(self):
        b1 = bip((1, 1), (2, 1))
        b2 = bip((2,), (2, 1))
        b3 = bip((2, 1), (1, 1))
        b4 = bip((2, 1), (2,))
        for hi, lo in [(b4, b3), (b3, b2), (b2, b1)]:
            assert dominates(hi, lo) and not dominates(lo, hi)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dominates(bip((1,), ()), bip((2,), ()))

    @given(bip_pairs())
    def test_conjugation_reverses(self, pair):
        a, b = pair
        assert dominates(a, b) == dominates(conjugate(b), conjugate(a))

    @given(bip_pairs())
    def test_key_refines_dominance(self, pair):
        a, b = pair
        if dominates(a, b):
            assert dominance_key(a) >= dominance_key(b)

    def test_dominates_matches_row_sums(self):
        # every ordered pair of equal-size bipartitions with n <= 7
        for n in range(8):
            for a in bips_of(n):
                for b in bips_of(n):
                    assert dominates(a, b) == dominates_by_rows(a, b), (a, b)

    def test_key_is_the_row_sums(self):
        for n in range(9):
            for b in bips_of(n):
                assert dominance_key(b) == tuple(partial_sums(b, n)), b

    def test_canonical_sort_deterministic(self):
        bips = list(bipartitions(4))
        assert canonical_sort(bips) == canonical_sort(reversed(bips))


class TestBoundary:
    def test_empty_bipartition(self):
        add, rem = boundary_nodes(EMPTY_BIP, Params.make(3, (0, 1)))
        assert [nd for nd, _ in add] == [Node(1, 1, 1), Node(1, 1, 2)]
        assert rem == []

    def test_row_partition(self):
        assert removable_nodes(bip((2,), ())) == [Node(1, 2, 1)]
        assert addable_nodes(bip((2,), ())) == [
            Node(1, 3, 1), Node(2, 1, 1), Node(1, 1, 2)]

    def test_signature_read_order(self):
        # merged residue-0 boundary of ((3,2,1,1)|(2,2,2)) at e=3, kappa=(0,1)
        p = Params.make(3, (0, 1))
        b = bip((3, 2, 1, 1), (2, 2, 2))
        add, rem = boundary_nodes(b, p)
        marks = [(nd, "+") for nd, r in add if r == 0]
        marks += [(nd, "-") for nd, r in rem if r == 0]
        marks.sort(key=lambda m: (m[0].component, m[0].row))
        assert "".join(s for _, s in marks) == "+--+-"
        assert [nd for nd, _ in marks] == [
            Node(1, 4, 1), Node(2, 2, 1), Node(4, 1, 1),
            Node(1, 3, 2), Node(3, 2, 2)]

    def test_node_not_addable_or_removable(self):
        b = bip((2, 1), ())
        with pytest.raises(ValueError, match="^node is not addable$"):
            add_node(b, Node(2, 3, 1))
        with pytest.raises(ValueError, match="^node is not removable$"):
            remove_node(b, Node(1, 1, 1))

    @given(small_bips(7))
    def test_add_remove_inverse(self, b):
        for nd in addable_nodes(b):
            assert remove_node(add_node(b, nd), nd) == b
        for nd in removable_nodes(b):
            assert add_node(remove_node(b, nd), nd) == b


def code_of(nd: Node, removable: bool, off: int) -> int:
    """The ``corner_codes`` code of a cell, written from its definition."""
    return 2 * (nd.row + (off if nd.component == 2 else 0)) + removable


class TestCornersOracle:
    """The corner walk against the diagram definitions of the boundary."""

    def test_row_partition(self):
        # (2|-) at kappa (0, 1): off = 1 + 2, so row 1 of component 2
        # codes as 2 * 4
        p = Params.make(3, (0, 1))
        assert corner_codes(bip((2,), ()), p) == (3, [[], [3, 8], [2, 4]])
        assert corners(bip((2,), ()), p) == [
            (1, 1, 3, 2, "+"), (1, 1, 2, 1, "-"), (1, 2, 1, 2, "+"),
            (2, 1, 1, 1, "+")]

    @pytest.mark.parametrize("e", [2, 3, 4, 5])
    def test_every_small_bipartition(self, e):
        for kappa in product(range(e), repeat=2):
            p = Params.make(e, kappa)
            for n in range(9):
                for b in bips_of(n):
                    add = [(nd, residue(nd, p)) for nd in addable_nodes(b)]
                    rem = [(nd, residue(nd, p)) for nd in removable_nodes(b)]
                    assert boundary_nodes(b, p) == (add, rem), (b, p)
                    # reading order; in one row the addable cell comes first
                    marks = sorted([(nd, r, "+") for nd, r in add]
                                   + [(nd, r, "-") for nd, r in rem],
                                   key=lambda m: (m[0].component, m[0].row))
                    want = [(nd.component, nd.row, nd.col, r, sign)
                            for nd, r, sign in marks]
                    assert corners(b, p) == want, (b, p)
                    assert corners([list(b.comp1), list(b.comp2)], p) == want
                    off, codes = len(b.comp1) + 2, [[] for _ in range(e)]
                    for nd, r, sign in marks:
                        codes[r].append(code_of(nd, sign == "-", off))
                    assert corner_codes(b, p) == (off, codes), (b, p)
                    # each residue's codes ascend
                    assert all(sig == sorted(sig) for sig in codes), (b, p)


class TestRemoveCellOracle:
    """The corner rule of one cell against a rescan, for every removable
    cell and, as the removal from the larger bipartition, every addable
    cell."""

    def test_row_partition(self):
        # removing (1, 2) of (2|-): the removable cell turns addable (code
        # 3 -> 2 in residue 1), the addable (1, 3) goes (code 2 in residue
        # 2), and the removable (1, 1) comes in (code 3 in residue 0)
        p = Params.make(3, (0, 1))
        comps = [[2], []]
        off, codes = corner_codes(comps, p)
        remove_cell(comps, codes, off, 3, p)
        assert comps == [[1], []]
        assert codes == [[3], [2, 8], [4]]

    @pytest.mark.parametrize("e", [2, 3, 4, 5])
    def test_every_small_bipartition(self, e):
        def check(big, nd):
            comps = [list(big.comp1), list(big.comp2)]
            off, codes = corner_codes(comps, p)
            remove_cell(comps, codes, off, code_of(nd, True, off), p)
            small = remove_node(big, nd)
            assert comps == [list(small.comp1), list(small.comp2)]
            off_s, want = scans[small]
            if off_s < off:
                # component 1 lost its last row: the kept codes keep the
                # larger offset of component 2
                want = [[c + 2 if c >> 1 >= off_s else c for c in sig]
                        for sig in want]
            assert codes == want, (big, nd, p)

        for kappa in product(range(e), repeat=2):
            p = Params.make(e, kappa)
            scans = {b: corner_codes(b, p)
                     for n in range(10) for b in bips_of(n)}
            for n in range(9):
                for b in bips_of(n):
                    for nd in removable_nodes(b):
                        check(b, nd)
                    for nd in addable_nodes(b):
                        check(add_node(b, nd), nd)


class TestAddCellOracle:
    """``add_cell`` against a rescan of the larger bipartition, for every
    addable cell, with component 2 coded from a fixed offset above every
    row component 1 reaches."""

    def test_empty_bipartition(self):
        # adding (1, 1) of (-|-) at kappa (0, 1) with off = 3: the addable
        # (1, 1) turns removable (code 2 -> 3 in residue 0), the addable
        # (1, 2) comes in (code 2 in residue 1), and so does the addable
        # (2, 1) (code 4 in residue 2); (-|1)'s row 1 keeps code 8
        p = Params.make(3, (0, 1))
        comps, codes = [[], []], [[2], [8], []]
        add_cell(comps, codes, 3, 2, p)
        assert comps == [[1], []]
        assert codes == [[3], [2, 8], [4]]

    @pytest.mark.parametrize("e", [2, 3, 4, 5])
    def test_every_small_bipartition(self, e):
        def codes_at(b, off):
            """corner_codes of b with component 2 coded from off."""
            off_b, codes = corner_codes(b, p)
            return [[c + 2 * (off - off_b) if c >> 1 >= off_b else c
                     for c in sig] for sig in codes]

        for kappa in product(range(e), repeat=2):
            p = Params.make(e, kappa)
            for n in range(8):
                # the fixed offset of a walk that grows to n + 1 cells
                off = n + 3
                for b in bips_of(n):
                    for nd in addable_nodes(b):
                        comps = [list(b.comp1), list(b.comp2)]
                        codes = codes_at(b, off)
                        add_cell(comps, codes, off,
                                 code_of(nd, False, off), p)
                        big = add_node(b, nd)
                        assert comps == [list(big.comp1), list(big.comp2)]
                        assert codes == codes_at(big, off), (b, nd, p)


class TestRimHooks:
    def test_empty_component(self):
        assert rim_hooks(EMPTY_BIP) == []

    def test_two_by_two(self):
        hooks = rim_hooks(bip((2, 2), ()))
        data = sorted((h.length, h.hand.row, h.hand.col, h.leg_length)
                      for h in hooks)
        assert data == [(1, 2, 2, 0), (2, 1, 2, 1), (2, 2, 2, 0), (3, 1, 2, 1)]

    @given(small_bips(7))
    def test_removal_is_valid(self, b):
        for h in rim_hooks(b):
            assert h.rest.size == b.size - h.length

    @given(small_bips(7))
    def test_hand_is_top_rightmost(self, b):
        for h in rim_hooks(b):
            top = min(nd.row for nd in h.nodes)
            assert h.hand.row == top
            assert h.hand.col == max(nd.col for nd in h.nodes if nd.row == top)
            assert h.leg_length == max(nd.row for nd in h.nodes) - top

    @given(small_bips(7))
    def test_hooks_lie_on_rim(self, b):
        cells = diagram(b)
        for h in rim_hooks(b):
            for nd in h.nodes:
                assert Node(nd.row + 1, nd.col + 1, nd.component) not in cells


def _cells(part, a):
    return {Node(r, c, a) for r, width in enumerate(part, start=1)
            for c in range(1, width + 1)}


def _node_set_hooks(b):
    """Rim hooks by the Node-set construction: a bead move x -> y removes
    the cells that the smaller partition lacks, the hand is the top row's
    rightmost cell, and what is left is rebuilt from the remaining cells.
    Each hook is (nodes, hand, leg, component, length, rest)."""
    out = []
    for a in (1, 2):
        part = b.comp(a)
        k = len(part)
        beta = {part.row(r) + k - r for r in range(1, k + 1)}
        cells = _cells(part, a)
        for x in beta:
            for y in set(range(x)) - beta:
                vals = sorted((beta - {x}) | {y}, reverse=True)
                smaller = Partition(v - k + r for r, v in enumerate(vals, 1))
                hook = cells - _cells(smaller, a)
                top = min(nd.row for nd in hook)
                hand = max((nd for nd in hook if nd.row == top),
                           key=lambda nd: nd.col)
                widths = {}
                for nd in cells - hook:
                    widths[nd.row] = max(widths.get(nd.row, 0), nd.col)
                left = Partition(widths.get(r, 0)
                                 for r in range(1, max(widths, default=0) + 1))
                rest = (Bipartition(left, b.comp2) if a == 1
                        else Bipartition(b.comp1, left))
                out.append((tuple(sorted(hook)), hand,
                            max(nd.row for nd in hook) - top, a, len(hook),
                            rest))
    out.sort(key=lambda h: (h[3], h[1].row, h[1].col, h[4]))
    return out


class TestRimHookOracle:
    def test_bead_moves_match_node_sets(self):
        # every bipartition with n <= 9; a partition has one rim hook per
        # cell, so each has exactly n hooks
        for n in range(10):
            for b in bipartitions(n):
                hooks = rim_hooks(b)
                assert len(hooks) == n, b
                got = [(h.nodes, h.hand, h.leg_length, h.component,
                        h.length, h.rest) for h in hooks]
                assert got == _node_set_hooks(b), b


class TestDirectRests:
    def test_rests_match_beta_rebuild(self):
        # every bipartition with n <= 10: the hooks whose rests
        # _partition_from_beta reads back equal the checked beta-set
        # rebuild's, in order, and every rest is a checked partition pair
        for n in range(11):
            for b in bipartitions(n):
                hooks = rim_hooks(b)
                assert hooks == rim_hooks_by_beta(b), b
                assert all(is_checked(h.rest) for h in hooks), b

    @pytest.mark.parametrize("e", [2, 3, 5])
    def test_abacus_read_back_is_checked(self, e):
        p = Params.make(e, (0, 1))
        for n in range(9):
            for b in bips_of(n):
                back = from_display(display(b, p))
                assert back == b and is_checked(back), b


class TestERestricted:
    def test_empty(self):
        assert is_e_restricted(Partition(()), 2)

    def test_single_large_part(self):
        assert not is_e_restricted(Partition((3,)), 2)

    def test_small_differences(self):
        assert is_e_restricted(Partition((4, 2, 1)), 3)
        assert not is_e_restricted(Partition((4, 1)), 3)


class TestEnumeration:
    def test_partition_counts(self):
        # 1, 1, 2, 3, 5, 7, 11, 15, 22
        assert [len(list(partitions(n))) for n in range(9)] == [
            1, 1, 2, 3, 5, 7, 11, 15, 22]

    def test_bipartition_counts(self):
        assert len(list(bipartitions(3))) == 10
        assert len(set(bipartitions(5))) == len(list(bipartitions(5)))
