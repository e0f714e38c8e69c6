import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from bipblocks.core import Params, bip, canonical_sort
from bipblocks.blocks import (
    BlockDescriptor, BlockKey, block_key, classify_type,
)
from bipblocks import blocks, cli, js
from bipblocks.js import DecompMatrix, decomposition_matrix
from bipblocks.cli import (
    CACHE_ENV, CASES, main, parse, serialize, verify_case, cached_matrix,
    VerifyReport, Check, _cache_path, _cache_stamp,
)
from helpers import bips_of, small_bips


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env or {})


README = Path(__file__).resolve().parents[1] / "README.md"
DOC = '{"e":4,"kappa":[0,3],"charp":0,"comp1":[4],"comp2":[4,1,1]}'
H5DOC = '{"e":2,"kappa":[1,1],"charp":0,"comp1":[],"comp2":[2,1,1,1]}'
# the README's js val pair, dominant first
JS_A = '{"e":6,"kappa":[5,4],"charp":0,"comp1":[2,1,1,1,1],"comp2":[4]}'
JS_B = '{"comp1":[2],"comp2":[4,2,1,1]}'

ints = st.integers(-50, 50)
int_tuples = st.lists(ints, max_size=6).map(tuple)
block_keys = st.builds(BlockKey, st.integers(0, 50), int_tuples)

descriptors = st.builds(
    BlockDescriptor, key=block_keys, weight=ints, delta=int_tuples,
    is_core=st.booleans(),
    btype=st.sampled_from(["I", "II", "III", "IV", "other"]),
    nucleus=st.none() | small_bips(6),
    z_set=st.none() | st.frozensets(st.integers(0, 10)),
    type_params=st.none() | int_tuples, swapped=st.booleans())


@st.composite
def matrices(draw):
    n = draw(st.integers(0, 5))
    rows = draw(st.lists(st.sampled_from(bips_of(n)), max_size=5))
    cols = draw(st.lists(st.sampled_from(bips_of(n)), max_size=4))
    # entries and flags are derived from the bounds
    jbounds = tuple(tuple(draw(st.integers(0, 50)) for _ in cols)
                    for _ in rows)
    return DecompMatrix(draw(block_keys), tuple(rows), tuple(cols), jbounds)


def json_trees(keys, max_leaves):
    return st.recursive(
        st.none() | st.booleans() | ints | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(keys, inner, max_size=3),
        max_leaves=max_leaves)


json_values = json_trees(st.text(max_size=3), 6)
# the keys of every document shape, nested: parse may refuse a document
# only with ValueError
DOC_KEYS = ("caseId", "checks", "name", "expected", "actual", "pass",
            "overall", "entries", "rows", "cols", "block", "jBounds",
            "flags", "weight", "delta", "isCore", "type", "nucleus", "zSet",
            "typeParams", "swapped", "comp1", "comp2", "n", "content")
documents = json_trees(st.sampled_from(DOC_KEYS), 12)
reports = st.builds(
    VerifyReport, st.text(max_size=8),
    st.lists(st.builds(Check, st.text(max_size=8), json_values,
                       json_values, st.booleans()), max_size=4).map(tuple),
    st.booleans())


P43 = Params.make(4, (0, 3))
# a weight-3 block's descriptor: every optional field is set
DESC = serialize(classify_type(block_key(bip((4,), (4, 1, 1)), P43)[0], P43))


class TestSerialization:
    @given(small_bips(8))
    def test_bip_round_trip(self, b):
        assert parse(serialize(b)) == b

    def test_schema_document_accepted(self):
        b = parse('{"comp1":[4],"comp2":[4,1,1]}')
        assert b == bip((4,), (4, 1, 1))

    def test_descriptor_round_trip(self):
        p = Params.make(4, (0, 3))
        desc = classify_type(block_key(bip((4,), (4, 1, 1)), p)[0], p)
        assert parse(serialize(desc)) == desc

    def test_matrix_round_trip_and_flags(self):
        p = Params.make(2, (1, 1))
        m = decomposition_matrix(block_key(bip((), (2, 1, 1, 1)), p)[0], p)
        text = serialize(m)
        assert '"clamped"' in text
        assert parse(text) == m

    def test_report_round_trip(self):
        rep = VerifyReport("II-main", (Check("a", 1, 1, True),), True)
        assert parse(serialize(rep)) == rep

    def test_malformed_position(self):
        with pytest.raises(ValueError, match=r"line \d+, column \d+"):
            parse('{"comp1": [4,}')

    def test_deep_nesting(self):
        with pytest.raises(ValueError, match="nested too deeply"):
            parse('{"comp1":' + "[" * 100_000 + "]" * 100_000 + "}")

    def test_missing_field(self):
        with pytest.raises(ValueError, match="comp2"):
            parse('{"comp1":[4]}')

    @given(descriptors)
    def test_any_descriptor_round_trip(self, desc):
        assert parse(serialize(desc)) == desc

    @given(matrices())
    def test_any_matrix_round_trip(self, m):
        assert parse(serialize(m)) == m

    @given(reports)
    def test_any_report_round_trip(self, rep):
        assert parse(serialize(rep)) == rep

    # a report's fields are named when missing and typed: strings and
    # JSON booleans, not values a truth test would read
    @pytest.mark.parametrize("doc, message", [
        ('{"caseId":"x","checks":[{}],"overall":true}',
         "missing field checks.name"),
        ('{"caseId":"x","checks":[],"overall":"no"}',
         "field overall must be true or false"),
        ('{"caseId":"x","checks":[]}', "missing field overall"),
        ('{"caseId":"x","overall":true}', "missing field checks"),
        ('{"caseId":7,"checks":[],"overall":true}',
         "field caseId must be a string"),
        ('{"caseId":"x","checks":{},"overall":true}',
         "field checks must be a list"),
        ('{"caseId":"x","checks":["name"],"overall":true}',
         "missing field checks.name"),
        ('{"caseId":"x","checks":[{"name":1,"expected":1,"actual":1,'
         '"pass":true}],"overall":true}',
         "field checks.name must be a string"),
        ('{"caseId":"x","checks":[{"name":"a","expected":1,"actual":1}],'
         '"overall":true}', "missing field checks.pass"),
        ('{"caseId":"x","checks":[{"name":"a","expected":1,"actual":1,'
         '"pass":1}],"overall":true}',
         "field checks.pass must be true or false"),
    ], ids=["check-no-name", "overall-string", "no-overall", "no-checks",
            "caseId-int", "checks-object", "check-string", "name-int",
            "check-no-pass", "pass-int"])
    def test_checked_report_fields(self, doc, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse(doc)

    # values int() or a truth test would have read, and absent fields
    @pytest.mark.parametrize("field, value, message", [
        ("weight", 3.9, "field weight must be an integer"),
        ("weight", True, "field weight must be an integer"),
        ("delta", [0, 1.5, 0, -1], "field delta must be a list"),
        ("delta", "0", "field delta must be a list"),
        ("isCore", "no", "field isCore must be true or false"),
        ("isCore", 0, "field isCore must be true or false"),
        ("swapped", None, "field swapped must be true or false"),
        ("zSet", [0, "1"], "field zSet must be a list"),
        ("typeParams", [0, 1, 1, 2.0, 3], "field typeParams must be a list"),
        ("delta", None, "missing field delta"),
        ("isCore", None, "missing field isCore"),
        ("zSet", None, "missing field zSet"),
        ("swapped", None, "missing field swapped"),
        ("n", None, "missing field block.n"),
        ("type", 5, "field type must be one of I, II, III, IV, other"),
        ("type", None, "field type must be one of I, II, III, IV, other"),
        ("type", "V", "field type must be one of I, II, III, IV, other"),
    ], ids=["weight-float", "weight-bool", "delta-float", "delta-string",
            "isCore-string", "isCore-int", "swapped-null", "zSet-string",
            "typeParams-float", "no-delta", "no-isCore", "no-zSet",
            "no-swapped", "no-n", "type-int", "type-null", "type-unknown"])
    def test_checked_descriptor_fields(self, field, value, message):
        doc = json.loads(DESC)
        target = doc["block"] if field == "n" else doc
        if message.startswith("missing"):
            del target[field]
        else:
            target[field] = value
        with pytest.raises(ValueError, match=message):
            parse(json.dumps(doc))

    @given(st.dictionaries(st.sampled_from(DOC_KEYS), documents, max_size=6))
    def test_any_document_parses_or_is_refused(self, doc):
        try:
            parse(json.dumps(doc))
        except ValueError:
            pass


class TestVerifier:
    def test_case_ids(self):
        expected = {"II-main", "IV-e2-H5"}
        expected |= {f"III-{n}" for n in range(1, 19)}
        expected |= {f"IV-{n}" for n in range(1, 15)}
        assert set(CASES) == expected

    def test_fixture_audit(self):
        # every fixture value must carry a provenance note
        for spec in CASES.values():
            assert spec.probes, spec.case_id
            for probe in spec.probes:
                assert probe.note, (spec.case_id, probe.kind)

    def test_defaults_pass(self):
        for cid in ("II-main", "III-5", "IV-2", "IV-e2-H5"):
            rep = verify_case(CASES[cid])
            assert rep.overall, [c for c in rep.checks if not c.passed]
            assert rep.overall == all(c.passed for c in rep.checks)

    def test_custom_instantiation(self):
        rep = verify_case(CASES["III-8"], 6, (0, 2, 3, 3, 3))
        assert rep.overall

    def test_invalid_instantiation(self):
        with pytest.raises(ValueError, match="violates"):
            verify_case(CASES["III-8"], 5, (0, 2, 2, 3, 3))

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="parameters"):
            verify_case(CASES["III-1"], 5, (0, 1, 1, 2))

    def test_verify_all_json(self):
        res = run("verify", "--all", "--format", "json")
        assert res.exit_code == 0
        decoder, text, docs, pos = json.JSONDecoder(), res.output, [], 0
        while pos < len(text):
            doc, pos = decoder.raw_decode(text, pos)
            docs.append(doc)
            pos += 1  # each report ends with a newline
        assert [d["caseId"] for d in docs] == sorted(CASES)
        assert len(docs) == 34
        assert all(d["overall"] is True for d in docs)


class TestCommands:
    def test_bip_info(self):
        res = run("bip", "info", "--bip", DOC)
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["n"] == 10 and doc["weight"] == 3
        assert doc["restricted"] is False and doc["regular"] is True

    def test_bip_restricted(self):
        res = run("bip", "restricted", "--bip", H5DOC)
        assert res.exit_code == 0
        assert json.loads(res.output)["restricted"] is True

    def test_bip_diamond(self):
        res = run("bip", "diamond", "--bip", H5DOC)
        assert res.exit_code == 0
        assert parse(res.output) == bip((4, 1), ())

    def test_flag_overrides_doc(self):
        res = run("bip", "info", "--bip", '{"comp1":[4],"comp2":[4,1,1]}',
                  "--e", "4", "--kappa", "0,3")
        assert res.exit_code == 0
        assert json.loads(res.output)["weight"] == 3

    def test_block_info(self):
        res = run("block", "info", "--bip", DOC)
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["type"] == "III"
        assert doc["block"]["n"] == 10

    def test_block_by_key(self):
        doc = '{"e":4,"kappa":[0,3],"charp":0,"n":10,"content":[2,3,3,2]}'
        res = run("block", "enumerate", "--block", doc)
        assert res.exit_code == 0
        assert len(json.loads(res.output)) == 28

    def test_block_exceptional(self):
        res = run("block", "exceptional", "--bip", DOC)
        assert res.exit_code == 0
        labels = json.loads(res.output)
        assert labels and all("label" in x and "bipartition" in x
                              for x in labels)

    def test_js_val(self):
        res = run("js", "val", "--bip", JS_A, "--bip", JS_B)
        assert res.exit_code == 0
        assert json.loads(res.output) == {"valuation": -1, "pairs": 1}

    def test_js_val_refuses_two_blocks(self):
        # the README pair's dominant member against (10|-), whose block
        # differs at e = 6, kappa = (5,4)
        ten = '{"comp1":[10],"comp2":[]}'
        res = run("js", "val", "--bip", JS_A, "--bip", ten)
        assert res.exit_code == 1
        assert res.output == (
            'error: (2,1,1,1,1|4) and (10|-) lie in different blocks: '
            '{"n": 10, "content": [2, 2, 1, 1, 2, 2]} and '
            '{"n": 10, "content": [2, 2, 2, 1, 1, 2]}\n')

    def test_js_val_keeps_dominance_error(self):
        res = run("js", "val", "--bip", JS_A, "--bip", JS_A)
        assert res.exit_code == 1
        assert res.output == ("error: first argument must strictly dominate "
                              "the second\n")

    def test_js_order(self):
        res = run("js", "order", "--bip", H5DOC)
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert len(doc["members"]) == 8
        for a, b in doc["relations"]:
            assert a < b  # members listed most dominant first

    def test_decomp_table_rows_descend(self):
        res = run("decomp", "--bip", H5DOC, "--format", "table",
                  "--no-cache")
        assert res.exit_code == 0
        lines = res.output.splitlines()
        shown = [ln.split()[0] for ln in lines[1:9]]
        p = Params.make(2, (1, 1))
        key, _ = block_key(bip((), (2, 1, 1, 1)), p)
        m = decomposition_matrix(key, p)
        order = canonical_sort(m.rows)
        assert len(shown) == len(order)
        assert "*" in res.output  # clamped markers survive rendering

    def test_verify_list(self):
        res = run("verify", "--list")
        assert res.exit_code == 0
        assert "III-8" in res.output.split()

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_verify_list_formats(self, fmt):
        # one id per line by default, a JSON list under --format json
        res = run("verify", "--list", "--format", fmt)
        assert res.exit_code == 0
        assert res.output == (json.dumps(CASE_IDS, indent=2) + "\n"
                              if fmt == "json"
                              else "".join(f"{c}\n" for c in CASE_IDS))

    def test_verify_case_lists_members_once(self, monkeypatch):
        # the members are listed once and passed to every probe
        calls = []
        members = blocks.BlockFamily.members

        def counted(fam):
            calls.append(fam)
            return members(fam)
        monkeypatch.setattr(blocks.BlockFamily, "members", counted)
        assert verify_case(CASES["IV-5"]).overall
        assert len(calls) == 1

    def test_verify_case(self):
        res = run("verify", "--case", "IV-e2-H5")
        assert res.exit_code == 0
        assert "PASS" in res.output

    def test_verify_case_json(self):
        res = run("verify", "--case", "III-10", "--format", "json")
        assert res.exit_code == 0
        rep = parse(res.output)
        assert rep.overall and rep.case_id == "III-10"

    def test_verify_bad_window(self):
        res = run("verify", "--case", "III-8", "--e", "5",
                  "--params", "0,2,2,3,3")
        assert res.exit_code == 1
        assert "violates" in res.output

    def test_verify_window_outside_residues(self):
        # i = 5 at e = 5: (0, 2, 3, 3, 3) shifted by e
        res = run("verify", "--case", "III-8", "--params", "5,7,8,8,8")
        assert res.exit_code == 1
        assert res.output == ("error: window (5, 7, 8, 8, 8): need "
                              "0 <= i < e = 5\n")

    def test_verify_missing_label(self):
        res = run("verify", "--case", "IV-11", "--e", "4",
                  "--params", "0,0,0,0,1")
        assert res.exit_code == 1
        assert res.output == ("error: IV-11 at e = 4, window (0, 0, 0, 0, "
                              "1): no member labelled hook(1, 1, 1)\n")

    # conflicting inputs: one would be dropped without a word
    @pytest.mark.parametrize("args, message", [
        (["block", "info", "--bip", DOC, "--block", H5DOC],
         "supply --bip or --block, not both"),
        (["verify", "--list", "--case", "III-8"],
         "--case and --list exclude each other"),
        (["verify", "--all", "--case", "III-8"],
         "--case and --all exclude each other"),
        (["verify", "--all", "--list"], "--all and --list exclude each other"),
        (["verify", "--all", "--e", "5"], "--e and --params need --case"),
        (["verify", "--list", "--params", "0,2,3,3,3"],
         "--e and --params need --case"),
    ])
    def test_conflicting_inputs(self, args, message):
        res = run(*args)
        assert res.exit_code == 2
        assert message in res.output

    def test_verify_params_not_integers(self):
        res = run("verify", "--case", "III-8", "--params", "0,2,x,3,3")
        assert res.exit_code == 2
        assert "--params takes comma-separated integers" in res.output

    @pytest.mark.parametrize("command", [["bip", "info"],
                                         ["bip", "restricted"],
                                         ["bip", "diamond"]])
    def test_block_option_only_on_block_commands(self, command):
        res = run(*command, "--bip", H5DOC, "--block", '{"n":99}')
        assert res.exit_code == 2
        assert "No such option" in res.output and "--block" in res.output

    def test_exit_codes(self):
        assert run("decomp").exit_code == 2  # usage: no input
        bad = '{"e":2,"kappa":[0,0],"charp":0,"comp1":[],"comp2":[4]}'
        res = run("decomp", "--bip", bad)  # domain: weight 4
        assert res.exit_code == 1 and "weight" in res.output

    # content too short, too long, with a negative entry, summing past n,
    # and well formed with no member
    KEY_ERRORS = {
        "[3,4,3]": "malformed block: content has 3 entries, not e = 4",
        "[2,3,3,2,0]": "malformed block: content has 5 entries, not e = 4",
        "[2,3,-1,6]": "malformed block: content has a negative entry",
        "[2,3,3,3]": "malformed block: content sums to 11, not n = 10",
        "[10,0,0,0]": "empty block: no bipartition has this content",
    }

    @pytest.mark.parametrize("content", list(KEY_ERRORS))
    @pytest.mark.parametrize("command", [["decomp", "--no-cache"],
                                         ["block", "enumerate"]])
    def test_malformed_block_key(self, command, content):
        doc = ('{"e":4,"kappa":[0,3],"charp":0,"n":10,'
               f'"content":{content}}}')
        res = run(*command, "--block", doc)
        assert res.exit_code == 1
        assert res.output == f"error: {self.KEY_ERRORS[content]}\n"

    @pytest.mark.parametrize("command, flag", [(["bip", "info"], "--bip"),
                                               (["block", "info"], "--block"),
                                               (["decomp"], "--block")])
    @pytest.mark.parametrize("target, reason", [
        ("missing.json", "No such file or directory"),
        ("", "Is a directory")], ids=["missing", "directory"])
    def test_unreadable_document(self, tmp_path, command, flag, target,
                                 reason):
        path = tmp_path / target if target else tmp_path
        res = run(*command, flag, f"@{path}")
        assert res.exit_code == 1
        assert res.output == f"error: cannot read {path}: {reason}\n"

    def test_large_block_classified_at_once(self):
        # classification reads the closed form and one display: no abacus
        # trace of a 40,000-cell member
        doc = ('{"e":4,"kappa":[0,3],"charp":0,"n":40000,'
               '"content":[10000,10000,10000,10000]}')
        start = time.perf_counter()
        res = run("block", "info", "--block", doc)
        assert time.perf_counter() - start < 5
        assert res.exit_code == 0, res.output
        desc = json.loads(res.output)
        assert (desc["weight"], desc["delta"], desc["isCore"], desc["type"],
                desc["nucleus"]) == (20000, [-1, 0, 0, -1], False, "I", None)

    def test_oversized_block_refused_at_once(self):
        # the weight comes from the content: no abacus reduction of a
        # 100,000-cell member
        doc = ('{"e":4,"kappa":[0,3],"charp":0,"n":100000,'
               '"content":[25000,25000,25000,25000]}')
        start = time.perf_counter()
        res = run("decomp", "--no-cache", "--block", doc)
        assert time.perf_counter() - start < 5
        assert res.exit_code == 1
        assert res.output == ("error: unsupported weight 50000: entries are "
                              "only certified up to weight 3\n")

    # values int() would truncate or reinterpret, and shapes it cannot take
    @pytest.mark.parametrize("command, doc, field", [
        ("block enumerate", '"n":10.9,"content":[2,3,3,2]', "n"),
        ("block enumerate", '"n":10,"content":[2.9,3,3,2]', "content"),
        ("block enumerate", '"n":10,"content":"2332"', "content"),
        ("block enumerate", '"n":10,"content":5', "content"),
        ("bip info", '"comp1":[4.7],"comp2":[4,1,1]', "comp1"),
        ("bip info", '"comp1":[true],"comp2":[4,1,1]', "comp1"),
        ("bip info", '"comp1":["4"],"comp2":[4,1,1]', "comp1"),
        ("bip info", '"comp1":[4],"comp2":[4,1,1],"e":4.6', "e"),
        ("bip info", '"comp1":[4],"comp2":[4,1,1],"charp":"0"', "charp"),
        ("bip info", '"comp1":[4],"comp2":[4,1,1],"kappa":[0.5,3]', "kappa"),
        ("bip info", '"comp1":[4],"comp2":[4,1,1],"kappa":"03"', "kappa"),
        ("bip info", '"comp1":[4],"comp2":[4,1,1],"kappa":[0,3,1]',
         "kappa"),
    ], ids=["n-float", "content-float", "content-string", "content-int",
            "comp1-float", "comp1-bool", "comp1-string", "e-float",
            "charp-string", "kappa-float", "kappa-string", "kappa-three"])
    def test_non_integer_field(self, command, doc, field):
        base = {"e": 4, "kappa": [0, 3], "charp": 0}
        full = json.dumps({**base, **json.loads("{" + doc + "}")})
        flag = "--block" if command == "block enumerate" else "--bip"
        res = run(*command.split(), flag, full)
        assert res.exit_code == 1
        assert res.output.startswith(f"error: field {field} must be ")

    def test_heavy_block_refused_before_enumeration(self, tmp_path,
                                                    monkeypatch):
        def refuse(key, p):
            raise AssertionError("enumerated a block of weight above 3")

        monkeypatch.setattr(blocks, "enumerate_block", refuse)
        monkeypatch.setattr(js, "enumerate_block", refuse)
        heavy = ('{"e":5,"kappa":[0,1],"charp":0,'
                 '"comp1":[1,1,1],"comp2":[10,5]}')
        res = run("decomp", "--bip", heavy, env={CACHE_ENV: str(tmp_path)})
        assert res.exit_code == 1
        assert res.output == ("error: unsupported weight 6: entries are "
                              "only certified up to weight 3\n")
        assert list(tmp_path.iterdir()) == []

    def test_deterministic(self):
        first = run("decomp", "--bip", H5DOC, "--no-cache")
        second = run("decomp", "--bip", H5DOC, "--no-cache")
        assert first.output == second.output


class TestCache:
    def test_transparent_and_persistent(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        cold = run("decomp", "--bip", H5DOC,
                   env={CACHE_ENV: str(tmp_path)})
        assert cold.exit_code == 0
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        warm = run("decomp", "--bip", H5DOC,
                   env={CACHE_ENV: str(tmp_path)})
        plain = run("decomp", "--bip", H5DOC, "--no-cache",
                    env={CACHE_ENV: str(tmp_path)})
        assert cold.output == warm.output == plain.output

    def test_empty_cache_dir_is_unset(self, tmp_path):
        # an empty BIPBLOCKS_CACHE_DIR falls back to ~/.cache/bipblocks
        res = run("decomp", "--bip", H5DOC,
                  env={CACHE_ENV: "", "HOME": str(tmp_path)})
        assert res.exit_code == 0, res.output
        cache = tmp_path / ".cache" / "bipblocks"
        assert len(list(cache.glob("*.json"))) == 1

    def test_cached_matrix_hits_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        p = Params.make(2, (1, 1))
        key, _ = block_key(bip((), (2, 1, 1, 1)), p)
        first = cached_matrix(key, p)
        assert len(list(tmp_path.glob("*.json"))) == 1
        again = cached_matrix(key, p)
        assert first == again
        # the uncached path solves the same matrix
        assert decomposition_matrix(key, p) == first

    H5 = Params.make(2, (1, 1))
    H5KEY = block_key(bip((), (2, 1, 1, 1)), H5)[0]

    def _cache_doc(self, key) -> dict:
        """The cache document of ``key``'s matrix at H5's parameters."""
        return {**_cache_stamp(self.H5),
                **json.loads(serialize(decomposition_matrix(key, self.H5)))}

    def _decomp_over(self, tmp_path, text):
        """decomp of H5DOC with ``text`` already in its cache file."""
        path = tmp_path / os.path.basename(_cache_path(self.H5KEY, self.H5))
        path.write_text(text, encoding="utf-8")
        res = run("decomp", "--bip", H5DOC, env={CACHE_ENV: str(tmp_path)})
        plain = run("decomp", "--bip", H5DOC, "--no-cache")
        assert res.exit_code == 0
        assert res.output == plain.output
        # the miss was recomputed and written over the bad file
        assert path.read_text(encoding="utf-8") == \
            serialize(self._cache_doc(self.H5KEY))

    def test_cache_document_records_its_parameters(self, tmp_path):
        run("decomp", "--bip", H5DOC, env={CACHE_ENV: str(tmp_path)})
        (path,) = tmp_path.glob("*.json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert (doc["version"], doc["e"], doc["kappa"], doc["charp"]) == \
            (cli.SOLVER_VERSION, 2, [1, 1], 0)

    def test_other_blocks_matrix_is_a_miss(self, tmp_path):
        other = block_key(bip((1,), ()), self.H5)[0]
        self._decomp_over(tmp_path, json.dumps(self._cache_doc(other)))

    def test_truncated_file_is_a_miss(self, tmp_path):
        full = serialize(self._cache_doc(self.H5KEY))
        self._decomp_over(tmp_path, full[:len(full) // 2])

    # the parent's cache document was the bare matrix: no stamp at all
    @pytest.mark.parametrize("field, value", [
        ("version", 0), ("e", 3), ("kappa", [0, 1]), ("charp", 3),
        ("charp", False), ("version", None)])
    def test_other_stamp_is_a_miss(self, tmp_path, field, value):
        doc = self._cache_doc(self.H5KEY)
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        self._decomp_over(tmp_path, json.dumps(doc))

    def test_other_charp_file_is_a_miss(self, tmp_path, monkeypatch):
        # a block's charp 0 file copied to its charp 3 path is not served
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        p3 = Params.make(2, (1, 1), 3)
        cached_matrix(self.H5KEY, self.H5)
        src, dst = (Path(_cache_path(self.H5KEY, p)) for p in (self.H5, p3))
        dst.write_bytes(src.read_bytes())
        solved = []
        monkeypatch.setattr(cli, "decomposition_matrix", lambda key, p:
                            solved.append(p) or decomposition_matrix(key, p))
        assert cached_matrix(self.H5KEY, p3) == \
            decomposition_matrix(self.H5KEY, p3)
        assert solved == [p3]
        assert json.loads(dst.read_text(encoding="utf-8"))["charp"] == 3

    def test_short_cell_tables_are_a_miss(self, tmp_path):
        doc = self._cache_doc(self.H5KEY)
        for field in ("entries", "jBounds", "flags"):
            doc[field].pop()
        self._decomp_over(tmp_path, json.dumps(doc))

    # values int() or str() would read as another matrix: the first cell
    # holds entry 0, bound 0 and flag "direct"
    @pytest.mark.parametrize("field, value", [
        ("entries", 1.9), ("entries", True), ("jBounds", "7"),
        ("flags", 42), ("flags", "clamp"),
    ])
    def test_mistyped_cell_is_a_miss(self, tmp_path, field, value):
        doc = self._cache_doc(self.H5KEY)
        doc[field][0][0] = value
        self._decomp_over(tmp_path, json.dumps(doc))

    # well-typed cells that disagree with the cell's bound, and a negative
    # bound whose entry 0 and flag "direct" agree with it
    @pytest.mark.parametrize("field, bound, value", [
        ("entries", 0, 1), ("entries", 2, 0), ("flags", 1, "clamped"),
        ("flags", 2, "direct"), ("jBounds", 0, -1),
    ])
    def test_inconsistent_cell_is_a_miss(self, tmp_path, field, bound,
                                         value):
        doc = self._cache_doc(self.H5KEY)
        r, c = next((r, c) for r, row in enumerate(doc["jBounds"])
                    for c, j in enumerate(row) if j == bound)
        doc[field][r][c] = value
        with pytest.raises(ValueError):
            parse(json.dumps(doc))
        self._decomp_over(tmp_path, json.dumps(doc))

    # a regular file above the cache directory, and a directory at the
    # entry's path: reading is a miss and writing an error
    @pytest.mark.parametrize("layout, reason", [
        ("file-above", "Not a directory"), ("dir-at-entry", "Is a directory")])
    def test_unusable_cache_is_an_error(self, tmp_path, layout, reason):
        entry = os.path.basename(_cache_path(self.H5KEY, self.H5))
        cache = tmp_path
        if layout == "file-above":
            (tmp_path / "file").write_text("", encoding="utf-8")
            cache = tmp_path / "file" / "cache"
        else:
            (cache / entry).mkdir()
        res = run("decomp", "--bip", H5DOC, env={CACHE_ENV: str(cache)})
        assert res.exit_code == 1
        assert res.output == (f"error: cannot write cache {cache / entry}: "
                              f"{reason}\n")
        assert not list(tmp_path.rglob("*.tmp"))


# the case ids of `verify --list`, sorted
CASE_IDS = [
    "II-main", "III-1", "III-10", "III-11", "III-12", "III-13", "III-14",
    "III-15", "III-16", "III-17", "III-18", "III-2", "III-3", "III-4",
    "III-5", "III-6", "III-7", "III-8", "III-9", "IV-1", "IV-10", "IV-11",
    "IV-12", "IV-13", "IV-14", "IV-2", "IV-3", "IV-4", "IV-5", "IV-6",
    "IV-7", "IV-8", "IV-9", "IV-e2-H5"]

# the input of each command's golden outputs
GOLDEN_ARGS = {
    "bip info": ["--bip", H5DOC], "bip restricted": ["--bip", H5DOC],
    "bip diamond": ["--bip", H5DOC], "block info": ["--bip", H5DOC],
    "block enumerate": ["--bip", H5DOC],
    "block exceptional": ["--bip", H5DOC], "js order": ["--bip", H5DOC],
    "decomp": ["--bip", H5DOC], "js val": ["--bip", JS_A, "--bip", JS_B],
    "verify": ["--case", "IV-e2-H5"],
}


class TestGoldenTables:
    """``--format table`` output of every command, byte for byte; the
    decomp table is also the README example."""

    GOLDEN = {
        "bip info": (
            "bipartition: (-|2,1,1,1)\nn: 5\ncontent: [3, 2]\nweight: 3\n"
            "restricted: True\nregular: False\n"),
        "bip restricted": "restricted: True\nresidues: [0, 0, 1, 0, 1]\n",
        "js val": "valuation: -1\npairs: 1\n",
        "verify": (
            "IV-e2-H5: PASS\n"
            "  [ok] mu restricted: expected True, got True\n"
            "  [ok] mu partner: expected {'comp1': [4, 1], 'comp2': []}, "
            "got {'comp1': [4, 1], 'comp2': []}\n"
            "  [ok] member count: expected 8, got 8\n"
            "  [ok] largest entry: expected 1, got 1\n"
            "  [ok] restricted columns: expected 2, got 2\n"
            "  [ok] dn(hook(0, -1, 1)): expected 1, got 1\n"
            "  [ok] dn(hook(0, 0, 1)): expected 1, got 1\n"
            "  [ok] dn(hook(-1, -1, 2)): expected 1, got 1\n"
            "  [ok] dn(hook(-1, 0, 2)): expected 1, got 1\n"),
        "bip diamond": "(4,1|-)\n",
        "block info": (
            "n: 5\ncontent: [3, 2]\nweight: 3\ntype: IV\ncore: False\n"
            "nucleus: (1|1)\nzSet: [0, 1]\ntypeParams: [0, 0, 0, 0, 0]\n"),
        "block enumerate": (
            "(4,1|-)\n(2,1,1,1|-)\n(2,1|2)\n(2,1|1,1)\n(2|2,1)\n"
            "(1,1|2,1)\n(-|4,1)\n(-|2,1,1,1)\n"),
        "block exceptional": (
            "hook(0, 0, 1)  (2|2,1)\nhook(0, 1, 1)  (1,1|2,1)\n"
            "hook(1, 0, 2)  (2,1|2)\nhook(1, 1, 2)  (2,1|1,1)\n"),
        "js order": "".join(f"{a} > {b}\n" for a, b in [
            ("(4,1|-)", "(2,1,1,1|-)"), ("(4,1|-)", "(2,1|2)"),
            ("(4,1|-)", "(2,1|1,1)"), ("(4,1|-)", "(2|2,1)"),
            ("(4,1|-)", "(1,1|2,1)"), ("(4,1|-)", "(-|4,1)"),
            ("(4,1|-)", "(-|2,1,1,1)"), ("(2,1,1,1|-)", "(2,1|1,1)"),
            ("(2,1,1,1|-)", "(2|2,1)"), ("(2,1,1,1|-)", "(1,1|2,1)"),
            ("(2,1,1,1|-)", "(-|4,1)"), ("(2,1,1,1|-)", "(-|2,1,1,1)"),
            ("(2,1|2)", "(2,1|1,1)"), ("(2,1|2)", "(2|2,1)"),
            ("(2,1|2)", "(1,1|2,1)"), ("(2,1|2)", "(-|4,1)"),
            ("(2,1|2)", "(-|2,1,1,1)"), ("(2,1|1,1)", "(2|2,1)"),
            ("(2,1|1,1)", "(1,1|2,1)"), ("(2,1|1,1)", "(-|4,1)"),
            ("(2,1|1,1)", "(-|2,1,1,1)"), ("(2|2,1)", "(1,1|2,1)"),
            ("(2|2,1)", "(-|4,1)"), ("(2|2,1)", "(-|2,1,1,1)"),
            ("(1,1|2,1)", "(-|2,1,1,1)"), ("(-|4,1)", "(-|2,1,1,1)"),
        ]),
        "decomp": (
            "             (1,1|2,1)  (-|2,1,1,1)\n"
            "    (4,1|-)          0           1*\n"
            "(2,1,1,1|-)          0           1*\n"
            "    (2,1|2)         1*           1*\n"
            "  (2,1|1,1)         1*            1\n"
            "    (2|2,1)          1           1*\n"
            "  (1,1|2,1)          1            1\n"
            "    (-|4,1)          0            1\n"
            "(-|2,1,1,1)          0            1\n"
            "(* entry clamped from a larger bound)\n"),
    }

    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_table(self, command, tmp_path):
        res = run(*command.split(), *GOLDEN_ARGS[command], "--format",
                  "table", env={CACHE_ENV: str(tmp_path)})
        assert res.exit_code == 0
        assert res.output == self.GOLDEN[command]

    def test_decomp_matches_readme(self):
        assert self.GOLDEN["decomp"] in README.read_text()


# the members of H5DOC's block, most dominant first
H5_MEMBERS = [{"comp1": list(a), "comp2": list(b)} for a, b in [
    ((4, 1), ()), ((2, 1, 1, 1), ()), ((2, 1), (2,)), ((2, 1), (1, 1)),
    ((2,), (2, 1)), ((1, 1), (2, 1)), ((), (4, 1)), ((), (2, 1, 1, 1))]]


class TestGoldenJson:
    """The JSON output of every command, byte for byte: the documents
    below printed with an indent of 2 and a final newline. It is the
    default of every command but verify."""

    GOLDEN = {
        "bip info": {"bipartition": "(-|2,1,1,1)", "n": 5,
                     "content": [3, 2], "weight": 3, "restricted": True,
                     "regular": False},
        "bip restricted": {"restricted": True, "residues": [0, 0, 1, 0, 1]},
        "bip diamond": H5_MEMBERS[0],
        "block info": {
            "block": {"n": 5, "content": [3, 2]}, "weight": 3,
            "delta": [2, -4], "isCore": False, "type": "IV",
            "nucleus": {"comp1": [1], "comp2": [1]}, "zSet": [0, 1],
            "typeParams": [0, 0, 0, 0, 0], "swapped": False},
        "block enumerate": H5_MEMBERS,
        "block exceptional": [
            {"label": "hook(0, 0, 1)", "kind": "hook", "args": [0, 0, 1],
             "bipartition": H5_MEMBERS[4]},
            {"label": "hook(0, 1, 1)", "kind": "hook", "args": [0, 1, 1],
             "bipartition": H5_MEMBERS[5]},
            {"label": "hook(1, 0, 2)", "kind": "hook", "args": [1, 0, 2],
             "bipartition": H5_MEMBERS[2]},
            {"label": "hook(1, 1, 2)", "kind": "hook", "args": [1, 1, 2],
             "bipartition": H5_MEMBERS[3]}],
        "js val": {"valuation": -1, "pairs": 1},
        "js order": {"members": H5_MEMBERS, "relations": [
            [0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [0, 6], [0, 7], [1, 3],
            [1, 4], [1, 5], [1, 6], [1, 7], [2, 3], [2, 4], [2, 5], [2, 6],
            [2, 7], [3, 4], [3, 5], [3, 6], [3, 7], [4, 5], [4, 6], [4, 7],
            [5, 7], [6, 7]]},
        "decomp": {
            "block": {"n": 5, "content": [3, 2]}, "rows": H5_MEMBERS,
            "cols": [H5_MEMBERS[5], H5_MEMBERS[7]],
            "entries": [[0, 1], [0, 1], [1, 1], [1, 1], [1, 1], [1, 1],
                        [0, 1], [0, 1]],
            "jBounds": [[0, 3], [0, 2], [3, 2], [2, 1], [1, 2], [1, 1],
                        [0, 1], [0, 1]],
            "flags": [["direct", "clamped"], ["direct", "clamped"],
                      ["clamped", "clamped"], ["clamped", "direct"],
                      ["direct", "clamped"], ["direct", "direct"],
                      ["direct", "direct"], ["direct", "direct"]]},
        "verify": {"caseId": "IV-e2-H5", "checks": [
            {"name": name, "expected": value, "actual": value, "pass": True}
            for name, value in [
                ("mu restricted", True), ("mu partner", H5_MEMBERS[0]),
                ("member count", 8), ("largest entry", 1),
                ("restricted columns", 2), ("dn(hook(0, -1, 1))", 1),
                ("dn(hook(0, 0, 1))", 1), ("dn(hook(-1, -1, 2))", 1),
                ("dn(hook(-1, 0, 2))", 1)]], "overall": True},
    }

    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_json(self, command, tmp_path):
        args = [*command.split(), *GOLDEN_ARGS[command]]
        if command == "verify":
            args += ["--format", "json"]
        res = run(*args, env={CACHE_ENV: str(tmp_path)})
        assert res.exit_code == 0
        assert res.output == json.dumps(self.GOLDEN[command], indent=2) + "\n"

    def test_js_val_matches_readme(self):
        text = json.dumps(self.GOLDEN["js val"], indent=2) + "\n"
        assert text in README.read_text()


# option, parameter name, and the value a command gets when the option is
# not given; "flag" and "multiple" mark those kinds of option
PARAMS = {"--e": ("e", None), "--kappa": ("kappa", None),
          "--charp": ("charp", None), "--format": ("fmt", "json")}
BIP_OPTIONS = {**PARAMS, "--bip": ("bip_doc", None)}
BLOCK_OPTIONS = {**BIP_OPTIONS, "--block": ("block_doc", None)}
OPTIONS = {
    "bip info": BIP_OPTIONS, "bip restricted": BIP_OPTIONS,
    "bip diamond": BIP_OPTIONS, "block info": BLOCK_OPTIONS,
    "block enumerate": BLOCK_OPTIONS, "block exceptional": BLOCK_OPTIONS,
    "js order": BLOCK_OPTIONS,
    "js val": {**PARAMS, "--bip": ("bip_docs", (), "multiple")},
    "decomp": {**BLOCK_OPTIONS, "--no-cache": ("no_cache", False, "flag")},
    "verify": {"--case": ("case_id", None), "--e": ("e", None),
               "--params": ("params", None),
               "--all": ("run_all", False, "flag"),
               "--list": ("list_cases", False, "flag"),
               "--format": ("fmt", "table")},
}


def test_option_surface():
    """Every command's options, with their defaults and kinds."""
    def commands(group, prefix=""):
        for name, cmd in group.commands.items():
            if isinstance(cmd, click.Group):
                yield from commands(cmd, f"{prefix}{name} ")
            else:
                yield prefix + name, cmd

    seen = {}
    for name, cmd in commands(main):
        given = cmd.make_context(name, []).params
        seen[name] = {
            "/".join(p.opts + p.secondary_opts): (p.name, given[p.name])
            + (("flag",) if p.is_flag else ("multiple",) if p.multiple
               else ())
            for p in cmd.params}
    assert seen == OPTIONS
    assert sum(map(len, seen.values())) == 57


def test_benchmark_bindings_are_traced():
    """The benchmark wraps module-level names from outside the package; a
    renamed or removed binding would silently drop its spans."""
    root = Path(__file__).resolve().parents[1]
    script = textwrap.dedent("""
        import json
        import spans
        from bipblocks import blocks, cli
        from bipblocks.core import Params
        tracer = spans.Tracer()
        spans.instrument(tracer)
        cli.verify_case(cli.CASES["IV-e2-H5"])
        # a non-core weight-3 block, keyed without a traced call
        desc = blocks.classify_type(blocks.BlockKey(10, (2, 3, 3, 2)),
                                    Params.make(4, (0, 3)))
        recs = tracer.spans
        under_analysis = {s[0] for s in recs
                          if s[1] >= 0 and recs[s[1]][0]
                          == "blocks.analyze_member"}
        print(json.dumps([sorted({s[0] for s in recs}),
                          tracer.counts["crystal.signature"],
                          sorted(under_analysis),
                          [desc.weight, desc.is_core],
                          tracer.counts["js.clamped_entries"]]))
    """)
    path = os.pathsep.join([str(root / "perfbench"), str(root / "src")])
    res = subprocess.run([sys.executable, "-c", script], cwd=root,
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    names, signatures, under_analysis, desc, clamped = json.loads(res.stdout)
    assert {"cli.verify_case", "js.matrix_from_members", "js.solve_column",
            "blocks.family_from_type_params", "js.valuation_table",
            "js.hook_data", "core.rim_hooks", "crystal.is_restricted",
            "crystal.mu_diamond", "blocks.weight", "blocks.classify_type",
            "blocks.analyze_member", "blocks.member_of", "blocks.block_key",
            "abacus.display"} <= set(names)
    # classification keys the member and reads its display
    assert desc == [3, False]
    assert {"blocks.block_key", "abacus.display"} <= set(under_analysis)
    assert signatures > 0
    # the clamped cells of the IV-e2-H5 matrix, read off the solve's flags
    assert clamped == 6
