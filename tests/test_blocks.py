import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from bipblocks import blocks
from bipblocks.core import (
    InvariantError, Params, bip, EMPTY_BIP, bipartitions, boundary_nodes,
    conjugate, remove_node, residue,
)
from bipblocks.blocks import (
    BlockKey, block_key, block_weight, content_counts, delta_vector,
    weight, weight_trace, enumerate_block, nucleus_and_Z, classify_type,
    exceptional_bips, exceptional_labels, block_family,
    family_from_type_params, constructive_members, swap_components,
    _nuclei, _member_of, _members,
)
from helpers import (
    small_bips, params_st, bips_of, is_checked, members_unpruned, diagram,
    labels_by_reduction,
)

P43 = Params.make(4, (0, 3))
B32 = bip((4,), (4, 1, 1))  # weight-3 block member used across examples


def key_of(b, p):
    return block_key(b, p)[0]


class TestBlockKey:
    def test_empty(self):
        p = Params.make(3, (0, 1))
        key, delta = block_key(EMPTY_BIP, p)
        assert key == BlockKey(0, (0, 0, 0))
        assert delta == (-1, -1, 0)

    def test_empty_equal_kappa(self):
        _, delta = block_key(EMPTY_BIP, Params.make(3, (2, 2)))
        assert delta == (0, 0, -2)

    def test_content_from_diagram(self):
        p = Params.make(3, (0, 1))
        key, _ = block_key(bip((3, 2, 1, 1), (2, 2, 2)), p)
        assert key == BlockKey(13, (5, 4, 4))

    @pytest.mark.parametrize("e", [2, 3, 4, 5])
    def test_content_counts_oracle(self, e):
        # residues counted cell by cell over the diagram, n <= 8, every kappa
        bips = [b for n in range(9) for b in bipartitions(n)]
        for kappa in product(range(e), repeat=2):
            p = Params.make(e, kappa)
            for b in bips:
                counts = [0] * e
                for nd in diagram(b):
                    counts[residue(nd, p)] += 1
                assert content_counts(b, p) == tuple(counts), (b, p)

    def test_shared_key(self):
        a, b = B32, bip((3, 3, 1, 1), (1, 1))
        assert block_key(a, P43) == block_key(b, P43)

    @given(small_bips(6), params_st())
    def test_delta_matches_content_rule(self, b, p):
        # equal content iff equal size and delta (two block tests agree)
        for c in bips_of(b.size):
            same = content_counts(b, p) == content_counts(c, p)
            assert same == (delta_vector(b, p) == delta_vector(c, p))


class TestWeight:
    def test_empty(self):
        assert weight(EMPTY_BIP, Params.make(3, (0, 1))) == 0

    def test_seven_with_trace(self):
        p = Params.make(5, (4, 4))
        tr = weight_trace(bip((5, 3), (6, 4, 3)), p)
        assert tr.total == 7
        assert tr.after_slide == bip((2, 1), (6, 2))
        x, y, gain, result = tr.swaps[0]
        assert (x, y) == (3, 4)
        assert gain == 2
        assert result == bip((2, 2), (1, 1))

    def test_weight_three_block(self):
        assert weight(B32, P43) == 3

    @given(small_bips(7), params_st())
    def test_constant_on_blocks(self, b, p):
        w = weight(b, p)
        for c in enumerate_block(key_of(b, p), p):
            assert weight(c, p) == w

    @given(small_bips(7), params_st())
    def test_conjugate_weight(self, b, p):
        q = Params.make(p.e, (-p.kappa[1], -p.kappa[0]), p.charp)
        assert weight(conjugate(b), q) == weight(b, p)

    @given(small_bips(7), params_st())
    def test_component_swap_weight(self, b, p):
        assert weight(swap_components(b), p.swap()) == weight(b, p)

    def test_node_removal_identity(self):
        # removing u removable i-nodes shifts weight by u*(delta_i - u)
        rng = random.Random(6041)
        checks = 0
        while checks < 300:
            e = rng.choice([2, 3, 4])
            p = Params.make(e, (rng.randrange(e), rng.randrange(e)))
            b = rng.choice(bips_of(rng.randint(2, 8)))
            _, rem = boundary_nodes(b, p)
            i = rng.randrange(e)
            nodes = [nd for nd, r in rem if r == i]
            if not nodes:
                continue
            u = rng.randint(1, len(nodes))
            delta = delta_vector(b, p)[i]
            smaller = b
            for nd in rng.sample(nodes, u):
                smaller = remove_node(smaller, nd)
            assert weight(smaller, p) == weight(b, p) + u * (delta - u)
            checks += 1


class TestClosedFormWeightOracle:
    """The closed-form weight, and the classification read off it and off
    one display, against the abacus reduction."""

    @pytest.mark.parametrize("e", [2, 3, 4, 5])
    def test_every_small_bipartition(self, e):
        for kappa in product(range(e), repeat=2):
            p = Params.make(e, kappa)
            blocks_seen = {}
            for n in range(9):
                for b in bips_of(n):
                    total = weight_trace(b, p).total
                    assert weight(b, p) == total, (b, p)
                    key = BlockKey(n, content_counts(b, p))
                    blocks_seen.setdefault(key, total)
            for key, total in blocks_seen.items():
                assert block_weight(key, p) == total, (key, p)
                trace = weight_trace(_member_of(key, p), p)
                desc = classify_type(key, p)
                assert desc.weight == trace.total, (key, p)
                assert desc.is_core == (trace.hooks_removed == 0
                                        and not trace.swaps), (key, p)


class TestEnumerate:
    def test_empty_block(self):
        p = Params.make(3, (0, 1))
        assert enumerate_block(key_of(EMPTY_BIP, p), p) == [EMPTY_BIP]

    def test_twenty_eight_members(self):
        members = enumerate_block(key_of(B32, P43), P43)
        assert len(members) == 28
        assert bip((3, 3, 1, 1), (1, 1)) in members

    def test_weight_one_block(self):
        members = enumerate_block(key_of(bip((3, 1, 1, 1), ()), P43), P43)
        assert sorted(members) == sorted([
            bip((3, 1, 1, 1), ()), bip((3,), (1, 1, 1)), bip((), (4, 1, 1))])

    def test_returns_a_fresh_list(self):
        # each call computes its own list, so a caller may mutate it
        key = key_of(B32, P43)
        first = enumerate_block(key, P43)
        expected = list(first)
        first.clear()
        assert enumerate_block(key, P43) == expected

    @pytest.mark.parametrize("e", [2, 3, 4, 5])
    def test_generator_matches_brute_force(self, e):
        # every block with n <= 8 under every kappa: the content-built
        # members equal the filtered bipartitions, order included
        for k1 in range(e):
            for k2 in range(e):
                p = Params.make(e, (k1, k2))
                for n in range(9):
                    bips = bips_of(n)
                    contents = [content_counts(b, p) for b in bips]
                    for content in dict.fromkeys(contents):
                        expected = [b for b, c in zip(bips, contents)
                                    if c == content]
                        key = BlockKey(n, content)
                        assert list(_members(key, p)) == expected
                        assert _member_of(key, p) == expected[0]

    @given(small_bips(7), params_st())
    def test_constructive_agrees(self, b, p):
        key = key_of(b, p)
        desc = classify_type(key, p)
        if desc.weight == 1 or (desc.weight == 3 and not desc.is_core):
            assert constructive_members(key, p) == enumerate_block(key, p)


class TestPrunedMembersOracle:
    """The content test of ``_members`` against the unpruned search."""

    @pytest.mark.parametrize("e", [2, 3, 4, 5])
    def test_every_block_key(self, e):
        # shifting both charges relabels the residues, so kappa = (0, k)
        # reaches every block up to that relabelling
        for k in range(e):
            p = Params.make(e, (0, k))
            for n in range(11):
                contents = (content_counts(b, p) for b in bips_of(n))
                for content in dict.fromkeys(contents):
                    key = BlockKey(n, content)
                    got = list(_members(key, p))
                    assert got == list(members_unpruned(key, p)), (key, p)
                    assert all(map(is_checked, got)), (key, p)

    @pytest.mark.parametrize("e", [2, 3, 4, 5])
    def test_unpruned_matches_filter(self, e):
        # every content of n <= 6 cells under every kappa, empty blocks
        # included: both searches give the filtered bipartitions in order
        for kappa in product(range(e), repeat=2):
            p = Params.make(e, kappa)
            for n in range(7):
                by_content = {}
                for b in bips_of(n):
                    by_content.setdefault(content_counts(b, p), []).append(b)
                for content in product(range(n + 1), repeat=e):
                    if sum(content) != n:
                        continue
                    key = BlockKey(n, content)
                    want = by_content.get(content, [])
                    assert list(members_unpruned(key, p)) == want, (key, p)
                    assert list(_members(key, p)) == want, (key, p)


class TestNucleus:
    def test_weight_three_nucleus(self):
        xi, z = nucleus_and_Z(key_of(B32, P43), P43)
        assert xi == bip((2,), (1, 1))
        assert z == frozenset({0, 2, 3})

    def test_weight_one_nucleus(self):
        xi, z = nucleus_and_Z(key_of(bip((3, 1, 1, 1), ()), P43), P43)
        assert xi == bip((2,), (1, 1))
        assert z == frozenset({0, 2, 3})

    def test_core_block_has_none(self):
        p = Params.make(3, (0, 1))
        with pytest.raises(ValueError, match="no nucleus"):
            nucleus_and_Z(key_of(EMPTY_BIP, p), p)

    def test_label_example(self):
        fam = block_family(key_of(B32, P43), P43)
        assert fam.bip_of("downdownup", (0, 3, 1)) == bip((3, 3, 1, 1), (1, 1))
        assert fam.bip_of("hook", (2, 3, 1)) == B32


class TestFamilyOracle:
    """The labels of ``block_family``, built on a display made from the
    nucleus, against labels built on the reduced display of a member."""

    @pytest.mark.parametrize("e, n_max", [(2, 10), (3, 10), (4, 10),
                                          (5, 9)])
    def test_every_odd_weight_block(self, e, n_max):
        # shifting both charges relabels the residues, so kappa = (0, k)
        # reaches every block up to that relabelling
        for k in range(e):
            p = Params.make(e, (0, k))
            for n in range(n_max + 1):
                contents = (content_counts(b, p) for b in bips_of(n))
                for content in dict.fromkeys(contents):
                    key = BlockKey(n, content)
                    desc = classify_type(key, p)
                    if not (desc.weight == 1
                            or desc.weight == 3 and not desc.is_core):
                        continue
                    fam = block_family(key, p)
                    want = labels_by_reduction(_member_of(key, p), p,
                                               desc.weight)
                    got = [(lab.kind, lab.args, lab.bipartition)
                           for lab in fam.labels]
                    assert got == want[fam.swapped], (key, p)

    def test_classification_builds_no_labels(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a label while classifying")

        monkeypatch.setattr(blocks, "_apply_label", refuse)
        desc = classify_type(key_of(B32, P43), P43)
        assert desc.weight == 3 and desc.nucleus == bip((2,), (1, 1))


class TestTypeFamilies:
    def test_type_ii_example(self):
        fam = family_from_type_params("II", 11, (1, 3, 5, 8))
        assert fam.params.kappa == (0, 7)
        assert fam.xi == bip((3, 3, 3), ())
        assert fam.z_set == frozenset({1, 2, 3, 6, 7, 8})

    def test_type_iii_example(self):
        fam = family_from_type_params("III", 14, (1, 3, 6, 8, 11))
        assert fam.params.kappa == (10, 5)
        assert fam.xi == bip((7, 7), (3, 3, 3, 3, 3, 3))
        assert fam.z_set == frozenset({0, 2, 3, 7, 8, 12, 13})

    def test_type_iv_example(self):
        fam = family_from_type_params("IV", 17, (1, 4, 7, 10, 13))
        assert fam.params.kappa == (14, 5)
        assert fam.xi == bip((7,) * 4, (4,) * 7)
        assert fam.z_set == frozenset({0, 1, 2, 3, 4, 8, 9, 10, 14, 15, 16})

    def test_invalid_instantiation(self):
        with pytest.raises(ValueError, match="i <= j <= k <= l"):
            family_from_type_params("II", 5, (0, 3, 2, 3))

    def test_h5_block(self):
        fam = family_from_type_params("IV", 2, (0, 0, 0, 0, 0))
        assert fam.params.kappa == (1, 1)
        members = fam.members()
        assert len(members) == 8
        assert bip((), (2, 1, 1, 1)) in members
        assert bip((2, 1, 1, 1), ()) in members

    @pytest.mark.parametrize("btype,first", [("III", "i+1"), ("IV", "i")])
    @pytest.mark.parametrize("e", [2, 3, 4, 5, 6])
    def test_every_window(self, btype, first, e):
        # j, k, l, m each run one step past both ends of the chain
        lo = {"III": 1, "IV": 0}[btype]
        for i in range(e):
            for j, k, l, m in product(range(i - 1, e + i), repeat=4):
                params = (i, j, k, l, m)
                if not i + lo <= j <= k <= l <= m <= e + i - 2:
                    with pytest.raises(ValueError) as err:
                        family_from_type_params(btype, e, params)
                    assert str(err.value) == \
                        f"need {first} <= j <= k <= l <= m <= e+i-2"
                    continue
                fam = family_from_type_params(btype, e, params)
                members = fam.members()
                key = key_of(members[0], fam.params)
                assert members == enumerate_block(key, fam.params), params


    @pytest.mark.parametrize("btype, params", [
        ("II", (-1, 0, 1, 2)), ("III", (5, 7, 8, 8, 8)),
        ("IV", (-1, 0, 0, 1, 2)), ("IV", (5, 5, 6, 7, 8)),
    ])
    def test_window_outside_residues(self, btype, params, monkeypatch):
        # refused before the nucleus is built, so before any type read-back
        def refuse(*args):
            raise AssertionError("built the nucleus of a refused window")

        monkeypatch.setattr(blocks, "_rect", refuse)
        with pytest.raises(ValueError) as err:
            family_from_type_params(btype, 5, params)
        assert str(err.value) == f"window {params}: need 0 <= i < e = 5"


class TestInvariantErrors:
    def test_labels_not_distinct(self, monkeypatch):
        monkeypatch.setattr(blocks, "_apply_label", lambda xi_d, kind, args:
                            xi_d)
        with pytest.raises(InvariantError, match=r"member labels: two "
                           r"labels of the nucleus \(1\|1\) build"):
            family_from_type_params("IV", 2, (0, 0, 0, 0, 0))

    def test_nucleus_gamma_law(self, monkeypatch):
        xy_sets = blocks._xy_sets
        # keep only the low runner: Z loses its high runners
        monkeypatch.setattr(blocks, "_xy_sets",
                            lambda g: (frozenset(), xy_sets(g)[1]))
        with pytest.raises(InvariantError, match=r"nucleus: runners \d+ "
                           r"and \d+ of \(2\|1,1\) differ by"):
            _nuclei(B32, P43)

    def test_type_parameter_round_trip(self, monkeypatch):
        monkeypatch.setattr(blocks, "_extract_type_params",
                            lambda xi, p, btype: None)
        with pytest.raises(InvariantError, match=r"type parameters: the "
                           r"nucleus \(1\|1\) of the IV window "
                           r"\(0, 0, 0, 0, 0\) reads back as None"):
            family_from_type_params("IV", 2, (0, 0, 0, 0, 0))


class TestClassify:
    def test_type_i(self):
        p = Params.make(3, (0, 1))
        b = bip((3, 2, 1, 1), (2, 2, 2))
        desc = classify_type(key_of(b, p), p)
        if all(d <= 0 for d in delta_vector(b, p)):
            assert desc.btype == "I"

    def test_h5_descriptor(self):
        p = Params.make(2, (1, 1))
        desc = classify_type(key_of(bip((), (2, 1, 1, 1)), p), p)
        assert desc.btype == "IV"
        assert desc.weight == 3
        assert desc.type_params == (0, 0, 0, 0, 0)
        assert desc.nucleus == bip((1,), (1,))

    def test_example_block_descriptor(self):
        desc = classify_type(key_of(B32, P43), P43)
        assert desc.weight == 3
        assert not desc.is_core
        assert desc.z_set == frozenset({0, 2, 3})

    @given(small_bips(7), params_st())
    def test_type_params_round_trip(self, b, p):
        desc = classify_type(key_of(b, p), p)
        if desc.type_params is None:
            return
        fam = family_from_type_params(desc.btype, p.e, desc.type_params)
        oriented = p.swap() if desc.swapped else p
        assert fam.params.kappa == oriented.kappa
        members = {swap_components(m) for m in fam.members()} \
            if desc.swapped else set(fam.members())
        assert members == set(enumerate_block(key_of(b, p), p))


class TestExceptional:
    def test_type_ii_count(self):
        fam = family_from_type_params("II", 11, (1, 3, 5, 8))
        labels = exceptional_labels(fam)
        assert len(labels) == 3 * len(fam.z_set) == 18

    def test_type_ii_closed_forms(self):
        e, i, j, k, l = 11, 1, 3, 5, 8
        fam = family_from_type_params("II", e, (i, j, k, l))
        # the three members that share an addable node of residue i, at x=i
        assert fam.bip_of("down", (i - 1,)) == bip((4, 4, 4) + (1,) * 8, (5,))
        assert fam.bip_of("hook", (i, i, 1)) == bip((4, 4, 4) + (1,) * 7, (6,))
        assert fam.bip_of("hook", (i, i - 1, 1)) == \
            bip((4, 4, 3) + (1,) * 8, (6,))
        # and one instance with k < x <= l
        x = 7
        assert fam.bip_of("hook", (x, i, 2)) == \
            bip((4, 4, 4, 1), (6, 2, 1, 1, 1, 1))

    def test_type_iii_and_iv_counts(self):
        fam3 = family_from_type_params("III", 14, (1, 3, 6, 8, 11))
        fam4 = family_from_type_params("IV", 17, (1, 4, 7, 10, 13))
        assert len(exceptional_labels(fam3)) == 4
        assert len(exceptional_labels(fam4)) == 4

    def test_type_iii_labels(self):
        i = 1
        fam = family_from_type_params("III", 14, (1, 3, 6, 8, 11))
        kinds = {(lab.kind, lab.args) for lab in exceptional_labels(fam)}
        assert kinds == {
            ("hook", (i - 1, i, 2)), ("downdownup", (i - 1, i + 1, i)),
            ("down", (i,)), ("hook", (i + 1, i, 1))}

    def test_type_iv_labels(self):
        i = 1
        fam = family_from_type_params("IV", 17, (1, 4, 7, 10, 13))
        kinds = {(lab.kind, lab.args) for lab in exceptional_labels(fam)}
        assert kinds == {
            ("hook", (i, i - 1, 1)), ("hook", (i, i, 1)),
            ("hook", (i - 1, i - 1, 2)), ("hook", (i - 1, i, 2))}

    def test_h5_exceptional(self):
        fam = family_from_type_params("IV", 2, (0, 0, 0, 0, 0))
        bips = {lab.bipartition for lab in exceptional_labels(fam)}
        assert bips == {bip((1, 1), (2, 1)), bip((2,), (2, 1)),
                        bip((2, 1), (1, 1)), bip((2, 1), (2,))}

    def test_weight_restriction(self):
        p = Params.make(3, (0, 1))
        with pytest.raises(ValueError, match="weight 3"):
            exceptional_bips(key_of(EMPTY_BIP, p), p)

    @given(small_bips(8), params_st(3))
    def test_filter_matches_direct_definition(self, b, p):
        key = key_of(b, p)
        desc = classify_type(key, p)
        if desc.weight != 3:
            return
        pos = [i for i, d in enumerate(desc.delta) if d >= 1]
        expected = set()
        if pos:
            for m in enumerate_block(key, p):
                add, _ = boundary_nodes(m, p)
                add_res = {r for _, r in add}
                if all(i in add_res for i in pos):
                    expected.add(m)
        got = {lab.bipartition for lab in exceptional_bips(key, p)}
        assert got == expected
