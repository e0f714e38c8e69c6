"""The catalogue over its whole parameter range at e <= 5.

Every case is instantiated at every window with 0 <= i < e that passes the
case's chain and its ``conditions``. The instantiations that do not PASS
are pinned in ``NOT_PASS``, so any change to that set fails here. Where the
catalogue gains a guard or a tighter condition, the table shrinks with it;
an expected value is never edited to match the output.
"""

import re
from collections import Counter
from functools import lru_cache
from itertools import product

from bipblocks import cli
from bipblocks.blocks import _OFFSET
from bipblocks.cli import CASES, _case_namespace, _eval, verify_case

# (case, outcome, e): the windows of that outcome, one digit per entry
NOT_PASS = {
    ("III-8", "FAIL", 4): "01222 12333 23444 34555",
    ("III-8", "FAIL", 5): "01222 01223 01333 12333 12334 12444 23444 23445 "
                          "23555 34555 34556 34666 45666 45667 45777",
    ("III-10", "FAIL", 3): "01111 12222 23333",
    ("III-10", "FAIL", 4): "01111 01112 12222 12223 23333 23334 34444 34445",
    ("III-10", "FAIL", 5): "01111 01112 01113 12222 12223 12224 23333 23334 "
                           "23335 34444 34445 34446 45555 45556 45557",
    ("IV-6", "FAIL", 2): "00000 11111",
    ("IV-11", "error", 3): "00001 11112 22223",
    ("IV-11", "error", 4): "00001 00002 11112 11113 22223 22224 33334 33335",
    ("IV-11", "error", 5): "00001 00002 00003 11112 11113 11114 22223 22224 "
                           "22225 33334 33335 33336 44445 44446 44447",
}

# IV-11 at j = i asks for a label its family does not have
MISSING_LABEL = re.compile(r"no member labelled hook\((\d+), \1, 1\)$")


def windows(btype, e):
    """Every window with 0 <= i < e on the type's chain
    i(+1) <= j <= ... <= e+i-2."""
    size, off = (4, 0) if btype == "II" else (5, _OFFSET[btype])
    for i in range(e):
        for rest in product(range(i + off, e + i - 1), repeat=size - 1):
            if all(a <= b for a, b in zip(rest, rest[1:])):
                yield (i, *rest)


def test_sweep_to_e5(monkeypatch):
    # 738 instantiations solve 419 distinct matrices: build each family
    # and each matrix once
    family = lru_cache(maxsize=None)(cli.family_from_type_params)
    solve, matrices = cli.matrix_from_members, {}

    def matrix(members, p):
        key = (tuple(members), p)
        if key not in matrices:
            matrices[key] = solve(members, p)
        return matrices[key]

    monkeypatch.setattr(cli, "family_from_type_params", family)
    monkeypatch.setattr(cli, "matrix_from_members", matrix)
    outcomes, seen = Counter(), {}
    for case_id in sorted(CASES):
        spec = CASES[case_id]
        for e in range(2, 6):
            for w in windows(spec.block_type, e):
                if not _eval(spec.conditions,
                             _case_namespace(spec, e, w)):
                    continue
                try:
                    out = "PASS" if verify_case(spec, e, w).overall else "FAIL"
                except ValueError as exc:
                    assert MISSING_LABEL.search(str(exc)), exc
                    out = "error"
                outcomes[out] += 1
                if out != "PASS":
                    seen.setdefault((case_id, out, e), []).append(
                        "".join(map(str, w)))
    assert outcomes == {"PASS": 665, "FAIL": 47, "error": 26}
    assert {k: " ".join(ws) for k, ws in seen.items()} == NOT_PASS
    assert len(matrices) == 419
