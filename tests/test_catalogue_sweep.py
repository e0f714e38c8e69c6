"""The catalogue over its whole parameter range at e <= 5.

Every case is instantiated at every window with 0 <= i < e that passes the
case's chain and its ``conditions``. The instantiations that do not PASS
are pinned in ``NOT_PASS``, so any change to that set fails here. Where the
catalogue gains a guard or a tighter condition, the table shrinks with it;
an expected value is never edited to match the output.
"""

from collections import Counter
from functools import lru_cache
from itertools import product

from bipblocks import cli
from bipblocks.blocks import _OFFSET
from bipblocks.cli import CASES, _case_namespace, _eval, verify_case

# (case, outcome, e): the windows of that outcome, one digit per entry.
# Empty since the stacked-column rows (TA.*) carry j >= i+2, the IV-11
# rows (TB.*) carry j >= i+1 and IV-6 needs e >= 3: the windows that failed
# before lay outside those tables, and the canonical-basis oracle
# (tests/fock.py) confirms the solver on every sweep block.
NOT_PASS = {}


def windows(btype, e):
    """Every window with 0 <= i < e on the type's chain
    i(+1) <= j <= ... <= e+i-2."""
    size, off = (4, 0) if btype == "II" else (5, _OFFSET[btype])
    for i in range(e):
        for rest in product(range(i + off, e + i - 1), repeat=size - 1):
            if all(a <= b for a, b in zip(rest, rest[1:])):
                yield (i, *rest)


def test_sweep_to_e5(monkeypatch):
    # 736 instantiations solve 419 distinct matrices: build each family
    # and each matrix once
    family = lru_cache(maxsize=None)(cli.family_from_type_params)
    solve, matrices = cli.matrix_from_members, {}

    def matrix(members, p):
        # the keyed tuple goes to the solver: a one-shot iterable is read
        # only once
        members = tuple(members)
        key = (members, p)
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
                out = "PASS" if verify_case(spec, e, w).overall else "FAIL"
                outcomes[out] += 1
                if out != "PASS":
                    seen.setdefault((case_id, out, e), []).append(
                        "".join(map(str, w)))
    assert outcomes == {"PASS": 736}
    assert {k: " ".join(ws) for k, ws in seen.items()} == NOT_PASS
    assert len(matrices) == 419
