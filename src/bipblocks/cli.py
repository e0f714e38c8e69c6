"""Command-line front end: JSON serialization, table rendering, a disk
cache for solved matrices, and a verifier that recomputes the catalogued
block families and checks them against built-in fixtures.

Input documents are JSON objects {"e", "kappa", "charp", "comp1",
"comp2"}; matrices are emitted as {"block", "rows", "cols", "entries",
"jBounds", "flags"}. Every fixture value carries a short provenance tag
(see the notes that accompany the source distribution).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

import click

from .core import Bipartition, Params, bip
from .blocks import (
    BlockDescriptor, BlockKey, block_key, classify_type, enumerate_block,
    exceptional_bips, family_from_type_params, weight,
)
from .crystal import is_restricted, is_regular, mu_diamond
from .js import (
    DecompMatrix, decomposition_matrix, dominating_pairs, matrix_from_members,
    order_from_members, signed_sum,
)

SOLVER_VERSION = 1
CACHE_ENV = "BIPBLOCKS_CACHE_DIR"


# ---------------------------------------------------------------------------
# serialization

def _bip_doc(b: Bipartition) -> dict:
    return {"comp1": list(b.comp1), "comp2": list(b.comp2)}


def _key_doc(key: BlockKey) -> dict:
    return {"n": key.n, "content": list(key.content)}


def serialize(value) -> str:
    """Canonical JSON text for the documented value types; a plain dict or
    list is the document itself."""
    return json.dumps(_doc(value), indent=2) + "\n"


def _doc(value):
    if isinstance(value, (dict, list)):
        doc = value
    elif isinstance(value, Bipartition):
        doc = _bip_doc(value)
    elif isinstance(value, BlockDescriptor):
        doc = {
            "block": _key_doc(value.key),
            "weight": value.weight,
            "delta": list(value.delta),
            "isCore": value.is_core,
            "type": value.btype,
            "nucleus": None if value.nucleus is None
            else _bip_doc(value.nucleus),
            "zSet": None if value.z_set is None else sorted(value.z_set),
            "typeParams": None if value.type_params is None
            else list(value.type_params),
            "swapped": value.swapped,
        }
    elif isinstance(value, DecompMatrix):
        doc = {
            "block": _key_doc(value.block),
            "rows": [_bip_doc(b) for b in value.rows],
            "cols": [_bip_doc(b) for b in value.cols],
            "entries": [list(r) for r in value.entries],
            "jBounds": [list(r) for r in value.jbounds],
            "flags": [list(r) for r in value.flags],
        }
    elif isinstance(value, VerifyReport):
        doc = {
            "caseId": value.case_id,
            "checks": [{"name": c.name, "expected": c.expected,
                        "actual": c.actual, "pass": c.passed}
                       for c in value.checks],
            "overall": value.overall,
        }
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")
    return doc


def _load_doc(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"parse error at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ValueError("parse error: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("parse error at line 1, column 1: "
                         "expected a JSON object")
    return doc


# int() would truncate a float and read a bool or a string of digits, and
# bool() would read any value, so a typed field accepts only its own JSON
# type: type(x) is int, bool or str.
_KINDS = {int: "an integer", bool: "true or false", str: "a string"}


def _typed(value, name: str, kind: type):
    if type(value) is not kind:
        raise ValueError(f"field {name} must be {_KINDS[kind]}")
    return value


def _int_list_field(value, name: str,
                    length: Optional[int] = None) -> tuple[int, ...]:
    if (not isinstance(value, list) or length not in (None, len(value))
            or any(type(x) is not int for x in value)):
        count = "" if length is None else f"{length} "
        raise ValueError(f"field {name} must be a list of {count}integers")
    return tuple(value)


def _bound_table(doc: dict, rows: int, cols: int) -> tuple[tuple, ...]:
    """A matrix's jBounds: ``rows`` lists of ``cols`` integers >= 0."""
    table = _field(doc, "jBounds")
    if not isinstance(table, list) or len(table) != rows or any(
            not isinstance(r, list) or len(r) != cols
            or any(type(j) is not int or j < 0 for j in r) for r in table):
        raise ValueError(f"field jBounds must be {rows} lists of {cols} "
                         "integers >= 0")
    return tuple(map(tuple, table))


def _field(doc: dict, name: str, where: str = ""):
    if not isinstance(doc, dict) or name not in doc:
        raise ValueError(f"missing field {where}{name}")
    return doc[name]


def _list_field(doc: dict, name: str) -> list:
    value = _field(doc, name)
    if not isinstance(value, list):
        raise ValueError(f"field {name} must be a list")
    return value


_BLOCK_TYPES = ("I", "II", "III", "IV", "other")


def _parse_bip_fields(doc: dict, where: str = "") -> Bipartition:
    return bip(_int_list_field(_field(doc, "comp1", where), where + "comp1"),
               _int_list_field(_field(doc, "comp2", where), where + "comp2"))


def _parse_key_fields(doc: dict, where: str = "") -> BlockKey:
    return BlockKey(_typed(_field(doc, "n", where), where + "n", int),
                    _int_list_field(_field(doc, "content", where),
                                    where + "content"))


def _parse_check(doc) -> Check:
    name, expected, actual, passed = (_field(doc, f, "checks.") for f in
                                      ("name", "expected", "actual", "pass"))
    return Check(_typed(name, "checks.name", str), expected, actual,
                 _typed(passed, "checks.pass", bool))


def parse(text: str):
    """Inverse of serialize; the value type is inferred from the keys."""
    return _parse_doc(_load_doc(text))


def _parse_doc(doc: dict):
    if "caseId" in doc:
        checks = _list_field(doc, "checks")
        return VerifyReport(_typed(_field(doc, "caseId"), "caseId", str),
                            tuple(map(_parse_check, checks)),
                            _typed(_field(doc, "overall"), "overall", bool))
    if "entries" in doc:
        rows, cols = (tuple(_parse_bip_fields(d, f"{name}.")
                            for d in _list_field(doc, name))
                      for name in ("rows", "cols"))
        key = _parse_key_fields(_field(doc, "block"), "block.")
        m = DecompMatrix(key, rows, cols,
                         _bound_table(doc, len(rows), len(cols)))
        # entries and flags derive from jBounds: stored ones must match
        for name in ("entries", "flags"):
            if json.dumps(_field(doc, name)) != json.dumps(getattr(m, name)):
                raise ValueError(f"field {name} disagrees with jBounds")
        return m
    if "weight" in doc and "block" in doc:
        nucleus, z_set, params, btype = (_field(doc, name) for name in
                                         ("nucleus", "zSet", "typeParams",
                                          "type"))
        if btype not in _BLOCK_TYPES:
            raise ValueError("field type must be one of "
                             + ", ".join(_BLOCK_TYPES))
        return BlockDescriptor(
            key=_parse_key_fields(doc["block"], "block."),
            weight=_typed(doc["weight"], "weight", int),
            delta=_int_list_field(_field(doc, "delta"), "delta"),
            is_core=_typed(_field(doc, "isCore"), "isCore", bool),
            btype=btype,
            nucleus=None if nucleus is None
            else _parse_bip_fields(nucleus, "nucleus."),
            z_set=None if z_set is None
            else frozenset(_int_list_field(z_set, "zSet")),
            type_params=None if params is None
            else _int_list_field(params, "typeParams"),
            swapped=_typed(_field(doc, "swapped"), "swapped", bool))
    if "comp1" in doc:
        return _parse_bip_fields(doc)
    raise ValueError("unrecognized document shape")


# ---------------------------------------------------------------------------
# matrix cache

def _cache_stamp(p: Params) -> dict:
    """What a cache document records besides its matrix: the solver
    version and the parameters the matrix was solved for."""
    return {"version": SOLVER_VERSION, "e": p.e, "kappa": list(p.kappa),
            "charp": p.charp}


def _cache_path(key: BlockKey, p: Params) -> str:
    ident = json.dumps({**_cache_stamp(p), "n": key.n,
                        "content": list(key.content)})
    digest = hashlib.sha256(ident.encode()).hexdigest()
    # an empty value is unset, like an absent one
    root = os.environ.get(CACHE_ENV) or os.path.join(
        os.path.expanduser("~"), ".cache", "bipblocks")
    return os.path.join(root, digest + ".json")


def cached_matrix(key: BlockKey, p: Params) -> DecompMatrix:
    """The block's matrix, read from the content-addressed cache when
    possible. A cache document is the matrix's document with the solver
    version, e, kappa and charp beside it. A file that cannot be read,
    does not parse as a matrix, holds another block's matrix, or records
    another version or other parameters, is a miss and is overwritten; a
    failed write raises ValueError and leaves no temporary file."""
    path, stamp = _cache_path(key, p), _cache_stamp(p)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = _load_doc(fh.read())
        # json.dumps tells true from 1, which == does not
        value = (_parse_doc(doc) if json.dumps([doc.get(f) for f in stamp])
                 == json.dumps(list(stamp.values())) else None)
    except (OSError, ValueError):
        value = None
    if isinstance(value, DecompMatrix) and value.block == key:
        return value
    matrix = decomposition_matrix(key, p)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(serialize({**stamp, **_doc(matrix)}))
        os.replace(tmp, path)  # last writer wins; content is identical anyway
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise ValueError(f"cannot write cache {path}: "
                         f"{exc.strerror}") from None
    return matrix


# ---------------------------------------------------------------------------
# verifier

@dataclass(frozen=True)
class Check:
    name: str
    expected: object
    actual: object
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
    case_id: str
    checks: tuple[Check, ...]
    overall: bool


@dataclass(frozen=True)
class Probe:
    """One fixture entry: a named quantity with its expected value and a
    provenance tag pointing at the source notes."""

    kind: str
    payload: tuple
    note: str


@dataclass(frozen=True)
class CaseSpec:
    case_id: str
    block_type: str
    conditions: str  # inequality chain over i, j, k, l, m, e
    mu: tuple[str, str]
    default_e: int
    default_window: tuple[int, ...]
    probes: tuple[Probe, ...]


_NAMES4 = ("i", "j", "k", "l")
_NAMES5 = ("i", "j", "k", "l", "m")


def _case_namespace(spec: CaseSpec, e: int, window: tuple[int, ...]) -> dict:
    names = _NAMES4 if spec.block_type == "II" else _NAMES5
    if len(window) != len(names):
        raise ValueError(f"{spec.case_id} takes {len(names)} window "
                         f"parameters, got {len(window)}")
    ns = dict(zip(names, window))
    ns["e"] = e
    return ns


def _eval(expr: str, ns: dict):
    # the namespace goes in globals so comprehension scopes can see it
    return eval(expr, {"__builtins__": {"range": range}, **ns})  # noqa: S307


def verify_case(spec: CaseSpec, e: Optional[int] = None,
                window: Optional[tuple[int, ...]] = None) -> VerifyReport:
    """Recompute the family named by a case and diff it against the
    fixture. Raises on an instantiation that violates the case's
    inequality constraints."""
    e = spec.default_e if e is None else e
    window = spec.default_window if window is None else tuple(window)
    ns = _case_namespace(spec, e, window)
    if not _eval(spec.conditions, ns):
        raise ValueError(f"instantiation {window} violates "
                         f"'{spec.conditions}'")
    fam = family_from_type_params(spec.block_type, e, window)
    ns["z"] = len(fam.z_set)

    def member(name, args):
        try:
            return fam.bip_of(name, args)
        except KeyError as exc:
            raise ValueError(f"{spec.case_id} at e = {e}, window {window}: "
                             f"{exc.args[0]}") from None

    mu = member(spec.mu[0], _eval(spec.mu[1], ns))
    members = fam.members()
    matrix = matrix_from_members(members, fam.params)
    order = None
    checks = []

    def record(name, expected, actual):
        checks.append(Check(name, expected, actual, expected == actual))

    for probe in spec.probes:
        kind, payload = probe.kind, probe.payload
        if kind == "restricted":
            record("mu restricted", payload[0],
                   is_restricted(mu, fam.params)[0])
        elif kind == "partner":
            name, argexpr = payload
            want = member(name, _eval(argexpr, ns))
            got = mu_diamond(mu, fam.params)
            record("mu partner", _bip_doc(want), _bip_doc(got))
        elif kind == "member-count":
            record("member count", _eval(payload[0], ns), len(members))
        elif kind == "restricted-count":
            record("restricted columns", payload[0], len(matrix.cols))
        elif kind == "column-max":
            record("largest entry", payload[0],
                   max(map(max, matrix.entries)))
        elif kind in ("dn", "jbound"):
            name, argexpr, value = payload
            get = matrix.entry if kind == "dn" else matrix.jbound
            # one args tuple, or a list of them the window may guard empty
            args = _eval(argexpr, ns)
            for a in [args] if isinstance(args, tuple) else args:
                record(f"{kind}({name}{tuple(a)})", value,
                       get(member(name, a), mu))
        elif kind == "tau":
            tau_expr, beta_name, beta_expr = payload
            tau = member("hook", _eval(tau_expr, ns))
            beta = member(beta_name, _eval(beta_expr, ns))
            record("J(tau) forces the chain top",
                   1 - matrix.entry(beta, mu), matrix.jbound(tau, mu))
        elif kind == "order":
            if order is None:
                order = order_from_members(members, fam.params)
            (na, ea), (nb, eb), expect = payload
            a = member(na, _eval(ea, ns))
            b = member(nb, _eval(eb, ns))
            record(f"order {na}{_eval(ea, ns)} above {nb}{_eval(eb, ns)}",
                   expect, order.dominates(a, b))
        else:
            raise ValueError(f"unknown probe kind {kind}")
    return VerifyReport(spec.case_id, tuple(checks),
                        all(c.passed for c in checks))


def _shared_probes(partner: Optional[tuple[str, str]]) -> tuple[Probe, ...]:
    out = [
        Probe("restricted", (True,), "L.res"),
        Probe("member-count", ("2*e*z + (e-z) + z*(z-1)//2*(e-z)",),
              "F.count"),
        Probe("column-max", (1,), "T.main"),
    ]
    if partner is not None:
        out.insert(1, Probe("partner", partner, "L.dm"))
    return tuple(out)


def _stacked_column_probes() -> tuple[Probe, ...]:
    # shared by the two three-runner windows that survive to a table
    return (
        Probe("dn", ("hook", "(i+1,i,1)", 1), "TA.1"),
        Probe("dn", ("downdownup", "(i-1,i+1,i)", 0), "TA.2"),
        Probe("dn", ("hook", "(i+1,i+2,2)", 1), "TA.3"),
        Probe("dn", ("hook", "(i+1,i+1,2)", 0), "TA.4"),
        Probe("dn", ("hook", "[(i+2,i+2,1)] if j>=i+2 else []", 1), "TA.5"),
        Probe("dn", ("hook", "(i+1,i+1,1)", 1), "TA.6"),
        Probe("jbound", ("hook", "(i+1,i+1,1)", 2), "TA.6"),
        Probe("dn", ("down", "(i,)", 0), "TA.7"),
        Probe("dn", ("hook", "[(i+1,x,2) for x in range(i+3,k+1)]", 0),
              "TA.8"),
        Probe("dn", ("down", "[(x,) for x in range(j+1,k+1)]", 0), "TA.9"),
        Probe("dn", ("hook", "[(x,x,1) for x in range(i+3,j+1)]", 0),
              "TA.10"),
    )


def _beta_chain_probes(tau_expr: str) -> tuple[Probe, ...]:
    return (
        Probe("dn", ("hook", "(i,i-1,1)", 1), "TC.b1"),
        Probe("dn", ("hook", "(i,i,1)", 1), "TC.b2"),
        Probe("dn", ("hook", "(i-1,i-1,2)", 1), "TC.b3"),
        Probe("dn", ("hook", "(i-1,i,2)", 1), "TC.b4"),
        Probe("tau", (tau_expr, "hook", "(i-1,i-1,2)"), "TC.tau"),
        Probe("order", (("hook", "(i-1,i,2)"), ("hook", "(i-1,i-1,2)"),
                        True), "HF.4"),
        Probe("order", (("hook", "(i-1,i-1,2)"), ("hook", "(i,i,1)"),
                        True), "HF.4"),
        Probe("order", (("hook", "(i,i,1)"), ("hook", "(i,i-1,1)"),
                        True), "HF.4"),
    )


_III_ROWS = [
    # (mu, conditions, partner, default e, default window)
    (("hook", "(i+1,i-1,2)"), "k<l<m", ("hook", "(i-1,l+1,2)"),
     5, (0, 1, 1, 2, 3)),
    (("hook", "(i+1,i-1,2)"), "k<l==m", ("hook", "(i-1,i-1,2)"),
     4, (0, 1, 1, 2, 2)),
    (("hook", "(i+1,i-1,2)"), "k==l<m<e+i-2", ("downdownup",
     "(i-1,i-2,k+1)"), 5, (0, 1, 1, 1, 2)),
    (("hook", "(i+1,i-1,2)"), "k==l<m==e+i-2", ("hook", "(i-1,k+1,1)"),
     4, (0, 1, 1, 1, 2)),
    (("hook", "(i+1,i-1,2)"), "k==l==m", ("hook", "(i-1,i,1)"),
     3, (0, 1, 1, 1, 1)),
    (("hook", "(i+1,i,2)"), "j<k<l-1", ("downdownup", "(l-1,l,j+1)"),
     6, (0, 1, 2, 4, 4)),
    (("hook", "(i+1,i,2)"), "j<k==l-1", ("hook", "(k+1,j+1,1)"),
     5, (0, 1, 2, 3, 3)),
    (("hook", "(i+1,i,2)"), "j<k==l", ("hook", "(i-1,j+1,1)"),
     5, (0, 2, 3, 3, 3)),
    (("hook", "(i+1,i,2)"), "j==k<l", ("hook", "(l,i+1,1)"),
     4, (0, 1, 1, 2, 2)),
    (("hook", "(i+1,i,2)"), "j==k==l", ("hook", "(i-1,i+1,1)"),
     5, (0, 2, 2, 2, 2)),
    (("hook", "(i+1,l,2)"), "k<l-1 and l==m", ("downdownup", "(l-1,l,i)"),
     5, (0, 1, 1, 3, 3)),
    (("hook", "(i+1,l,2)"), "k==l-1 and l==m", ("hook", "(k+1,i,1)"),
     4, (0, 1, 1, 2, 2)),
    (("hook", "(i+1,m,2)"), "k<l-1 and l<m", ("downdownup", "(l-1,l,i)"),
     6, (0, 1, 1, 3, 4)),
    (("hook", "(i+1,m,2)"), "k==l-1 and l<m", ("hook", "(k+1,i,1)"),
     5, (0, 1, 1, 2, 3)),
    (("hook", "(i+1,m,2)"), "k==l<m", ("hook", "(i-1,i,1)"),
     4, (0, 1, 1, 1, 2)),
    (("downdownup", "(i+1,i+2,m)"), "i+1<j and k<l<m", ("hook", "(l,i,2)"),
     6, (0, 2, 2, 3, 4)),
    (("downdownup", "(i+1,i+2,m)"), "i+1<j and k==l<m",
     ("hook", "(i-1,i-1,2)"), 5, (0, 2, 2, 2, 3)),
    (("downdownup", "(i+1,k+1,m)"), "k<l<m", ("hook", "(i-1,i-1,2)"),
     5, (0, 1, 1, 2, 3)),
]

_IV_ROWS = [
    (("hook", "(i,i-1,2)"), "k<l<m", ("hook", "(i-1,l+1,2)"),
     4, (0, 0, 0, 1, 2)),
    (("hook", "(i,i-1,2)"), "k<l==m", ("hook", "(i-1,i-1,2)"),
     3, (0, 0, 0, 1, 1)),
    (("hook", "(i,i-1,2)"), "k==l<m<e+i-2", ("downdownup",
     "(i-1,i-2,k+1)"), 4, (0, 0, 0, 0, 1)),
    (("hook", "(i,i-1,2)"), "k==l<m==e+i-2", ("hook", "(i-1,k+1,1)"),
     3, (0, 0, 0, 0, 1)),
    (("hook", "(i,i-1,2)"), "j<k==l==m", ("hook", "(i-1,j+1,1)"),
     4, (0, 1, 2, 2, 2)),
    (("hook", "(i,i-1,2)"), "j==k==l==m", ("hook", "(i-1,i,1)"),
     4, (0, 1, 1, 1, 1)),
    (("hook", "(i,m,2)"), "j<k<l-1 and l<m", ("downdownup",
     "(l-1,l,j+1)"), 6, (0, 0, 1, 3, 4)),
    (("hook", "(i,m,2)"), "j<k==l-1 and l<m", ("hook", "(k+1,j+1,1)"),
     5, (0, 0, 1, 2, 3)),
    (("hook", "(i,m,2)"), "j<k==l<m", ("hook", "(i-1,j+1,1)"),
     5, (0, 1, 2, 2, 3)),
    (("hook", "(i,m,2)"), "j==k<l<m", ("hook", "(l,i,1)"),
     4, (0, 0, 0, 1, 2)),
    (("hook", "(i,m,2)"), "j==k==l<m", ("hook", "(i-1,i,1)"),
     4, (0, 1, 1, 1, 2)),
    (("downdownup", "(i,i+1,m)"), "i<j and k<l<m", ("hook", "(l,i,2)"),
     5, (0, 1, 1, 2, 3)),
    (("downdownup", "(i,i+1,m)"), "i<j and k==l<m",
     ("hook", "(i-1,i-1,2)"), 4, (0, 1, 1, 1, 2)),
    (("downdownup", "(i,k+1,m)"), "k<l<m", ("hook", "(i-1,i-1,2)"),
     4, (0, 0, 0, 1, 2)),
]


def _build_cases() -> dict[str, CaseSpec]:
    cases = {}
    cases["II-main"] = CaseSpec(
        "II-main", "II", "k<l", ("hook", "(i,i-1,2)"), 5, (0, 0, 1, 3),
        _shared_probes(None) + (
            Probe("dn", ("downdownup", "(i,l,i-1)", 1), "T2.1"),
            Probe("dn", ("downdownup",
                         "[(i,x,i-1) for x in range(k+1,l)]", 0), "T2.2"),
            Probe("dn", ("hook", "(i,i-1,1)", 0), "T2.3"),
            Probe("dn", ("hook", "(l,i-1,2)", 0), "T2.4"),
        ))
    # the probes that some cases add to the shared ones
    extra = {
        "III-8": _stacked_column_probes(),
        "III-10": _stacked_column_probes(),
        "IV-5": _beta_chain_probes("(i-1,i+1,2)"),
        "IV-6": _beta_chain_probes("(e+i-2,i,2)"),
        "IV-9": _beta_chain_probes("(i-1,i+1,2)"),
        "IV-11": (
            Probe("dn", ("hook", "(i,i+1,2)", 1), "TB.1"),
            Probe("dn", ("hook", "(i,i,2)", 0), "TB.2"),
            Probe("dn", ("hook", "(i+1,i+1,1)", 1), "TB.3"),
            Probe("dn", ("downdownup", "(i,i-1,m)", 1), "TB.4"),
            Probe("dn", ("hook", "(i-1,m,2)", 0), "TB.5"),
            Probe("dn", ("hook", "(i,m,1)", 0), "TB.6"),
            Probe("dn", ("hook", "(i,i-1,1)", 1), "TB.7"),
            Probe("dn", ("hook", "(i,i,1)", 1), "TB.8"),
            Probe("jbound", ("hook", "(i,i,1)", 2), "TB.8"),
            Probe("dn", ("hook", "(i-1,i-1,2)", 1), "TB.9"),
        ),
    }
    for btype, rows in (("III", _III_ROWS), ("IV", _IV_ROWS)):
        for num, (mu, cond, partner, e, w) in enumerate(rows, 1):
            cid = f"{btype}-{num}"
            cases[cid] = CaseSpec(cid, btype, cond, mu, e, w,
                                  _shared_probes(partner)
                                  + extra.get(cid, ()))
    cases["IV-e2-H5"] = CaseSpec(
        "IV-e2-H5", "IV", "i==j==k==l==m==e+i-2",
        ("hook", "(i,i-1,2)"), 2, (0, 0, 0, 0, 0),
        _shared_probes(("hook", "(i-1,i,1)")) + (
            Probe("restricted-count", (2,), "T6.h5"),
            Probe("dn", ("hook", "(i,i-1,1)", 1), "T6.h5"),
            Probe("dn", ("hook", "(i,i,1)", 1), "T6.h5"),
            Probe("dn", ("hook", "(i-1,i-1,2)", 1), "T6.h5"),
            Probe("dn", ("hook", "(i-1,i,2)", 1), "T6.h5"),
        ))
    return cases


CASES = _build_cases()


def verify_all() -> list[VerifyReport]:
    return [verify_case(CASES[c]) for c in sorted(CASES)]


# ---------------------------------------------------------------------------
# rendering

def _render_matrix_table(m: DecompMatrix) -> str:
    head = [""] + [str(c) for c in m.cols]
    body = []
    for r, lam in enumerate(m.rows):
        cells = [str(lam)]
        for c in range(len(m.cols)):
            mark = "*" if m.flags[r][c] == "clamped" else ""
            cells.append(f"{m.entries[r][c]}{mark}")
        body.append(cells)
    widths = [max(len(row[c]) for row in [head] + body)
              for c in range(len(head))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths))
             for row in [head] + body]
    lines.append("(* entry clamped from a larger bound)")
    return "\n".join(lines) + "\n"


def _render_report_table(rep: VerifyReport) -> str:
    lines = [f"{rep.case_id}: {'PASS' if rep.overall else 'FAIL'}"]
    for c in rep.checks:
        status = "ok" if c.passed else "FAIL"
        lines.append(f"  [{status}] {c.name}: expected {c.expected!r}, "
                     f"got {c.actual!r}")
    return "\n".join(lines) + "\n"


def _render_kv_table(pairs) -> str:
    return "".join(f"{k}: {v}\n" for k, v in pairs)


# ---------------------------------------------------------------------------
# command plumbing

def _read_doc(text: str) -> dict:
    if text.startswith("@"):
        path = text[1:]
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    return _load_doc(text)


def _parse_kappa(text: str) -> tuple[int, int]:
    try:
        a, b = map(int, text.split(","))
    except ValueError:  # not an integer, or not two of them
        raise click.UsageError("--kappa takes two comma-separated integers")
    return a, b


def _parse_params(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise click.UsageError("--params takes comma-separated integers")


_PARAM_FIELDS = {"e": lambda v: _typed(v, "e", int),
                 "kappa": lambda v: _int_list_field(v, "kappa", 2),
                 "charp": lambda v: _typed(v, "charp", int)}


def _resolve(docs: list[dict], e, kappa, charp) -> Params:
    """The parameters: each flag given, else the field of the documents
    that carry it. Documents that give a field no flag sets two values
    are a usage error."""
    given = {"e": e, "kappa": kappa, "charp": charp}
    for name, read in _PARAM_FIELDS.items():
        if given[name] is not None:
            continue
        values = []
        for doc in docs:
            if name in doc and (v := read(doc[name])) not in values:
                values.append(v)
        if len(values) > 1:
            raise click.UsageError(
                f"the documents disagree on {name}: "
                + " and ".join(json.dumps(v) for v in values))
        given[name] = values[0] if values else None
    if given["e"] is None or given["kappa"] is None:
        raise click.UsageError("supply --e and --kappa (or a document "
                               "carrying them)")
    return Params.make(given["e"], given["kappa"], given["charp"] or 0)


def _resolve_bip(doc_text: Optional[str], e, kappa, charp):
    if doc_text is None:
        raise click.UsageError("this command needs --bip")
    doc = _read_doc(doc_text)
    return _parse_bip_fields(doc), _resolve([doc], e, kappa, charp)


def _resolve_block(bip_text, block_text, e, kappa, charp):
    """Either document flavour pins down a block."""
    if bip_text is not None and block_text is not None:
        raise click.UsageError("supply --bip or --block, not both")
    if block_text is not None:
        doc = _read_doc(block_text)
        p = _resolve([doc], e, kappa, charp)
        if "n" in doc or "content" in doc:
            return _parse_key_fields(doc), p
        b = _parse_bip_fields(doc)
        return block_key(b, p)[0], p
    if bip_text is not None:
        b, p = _resolve_bip(bip_text, e, kappa, charp)
        return block_key(b, p)[0], p
    raise click.UsageError("this command needs --bip or --block")


def _params(doc_option):
    """--e, --kappa, --charp and --format, applied around a command's
    document option so that --help lists that option second."""
    def decorate(fn):
        for option in (
                click.option("--e", "e", type=int, default=None,
                             help="Quantum characteristic."),
                click.option("--kappa", default=None, callback=lambda c, p, v:
                             _parse_kappa(v) if v is not None else None,
                             help="Charges, e.g. 0,3."),
                click.option("--charp", type=int, default=None,
                             help="Ground-field characteristic (default 0)."),
                doc_option,
                click.option("--format", "fmt",
                             type=click.Choice(["json", "table"]),
                             default="json", help="Output format.")):
            fn = option(fn)
        return fn
    return decorate


_common = _params(click.option("--bip", "bip_doc", default=None,
                               help="Bipartition document (JSON, or @file)."))


def _block_common(fn):
    """The common options, and --block for commands about a whole block."""
    fn = click.option("--block", "block_doc", default=None,
                      help="Block document (JSON, or @file).")(fn)
    return _common(fn)


def _command(group: click.Group, name: str):
    """Register a command body under ``group``. A ValueError or KeyError
    from the body prints ``error: ...`` and exits 1; a click.UsageError
    passes through and exits 2."""
    def decorate(fn):
        @functools.wraps(fn)  # also carries the options declared on fn
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except (ValueError, KeyError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(1)
        return group.command(name)(run)
    return decorate


def _emit(fmt: str, value, table) -> None:
    """Print ``table()`` under --format table, else the JSON text of
    ``value``."""
    click.echo(table() if fmt == "table" else serialize(value), nl=False)


@click.group()
def main():
    """Block combinatorics and decomposition matrices for pairs of
    partitions on an e-runner abacus."""


@main.group("bip")
def bip_group():
    """Commands about a single bipartition."""


@_command(bip_group, "info")
@_common
def bip_info(e, kappa, charp, bip_doc, fmt):
    """Size, block, weight and crystal status of a bipartition."""
    b, p = _resolve_bip(bip_doc, e, kappa, charp)
    key, _ = block_key(b, p)
    info = {"bipartition": str(b), "n": b.size,
            "content": list(key.content), "weight": weight(b, p),
            "restricted": is_restricted(b, p)[0],
            "regular": is_regular(b, p)}
    _emit(fmt, info, lambda: _render_kv_table(info.items()))


@_command(bip_group, "restricted")
@_common
def bip_restricted(e, kappa, charp, bip_doc, fmt):
    """Good-node stripping test, with the residue trace."""
    ok, trace = is_restricted(*_resolve_bip(bip_doc, e, kappa, charp))
    doc = {"restricted": ok, "residues": list(trace.residues)}
    _emit(fmt, doc, lambda: _render_kv_table(doc.items()))


@_command(bip_group, "diamond")
@_common
def bip_diamond(e, kappa, charp, bip_doc, fmt):
    """Regular partner of a restricted bipartition."""
    partner = mu_diamond(*_resolve_bip(bip_doc, e, kappa, charp))
    _emit(fmt, partner, lambda: f"{partner}\n")


@main.group("block")
def block_group():
    """Commands about a whole block."""


@_command(block_group, "info")
@_block_common
def block_info(e, kappa, charp, bip_doc, block_doc, fmt):
    """Type, nucleus and runner data of a block."""
    desc = classify_type(*_resolve_block(bip_doc, block_doc, e, kappa, charp))
    _emit(fmt, desc, lambda: _render_kv_table([
        ("n", desc.key.n), ("content", list(desc.key.content)),
        ("weight", desc.weight), ("type", desc.btype),
        ("core", desc.is_core),
        ("nucleus", "-" if desc.nucleus is None else str(desc.nucleus)),
        ("zSet", "-" if desc.z_set is None else sorted(desc.z_set)),
        ("typeParams", "-" if desc.type_params is None
         else list(desc.type_params))]))


@_command(block_group, "enumerate")
@_block_common
def block_enumerate(e, kappa, charp, bip_doc, block_doc, fmt):
    """All members, most dominant first."""
    members = enumerate_block(*_resolve_block(bip_doc, block_doc, e, kappa,
                                              charp))
    _emit(fmt, [_bip_doc(m) for m in members],
          lambda: "".join(f"{m}\n" for m in members))


@_command(block_group, "exceptional")
@_block_common
def block_exceptional(e, kappa, charp, bip_doc, block_doc, fmt):
    """Exceptional members of a weight-3 block, with their labels."""
    labels = exceptional_bips(*_resolve_block(bip_doc, block_doc, e, kappa,
                                              charp))
    _emit(fmt, [{"label": str(lab), "kind": lab.kind, "args": list(lab.args),
                 "bipartition": _bip_doc(lab.bipartition)} for lab in labels],
          lambda: "".join(f"{lab}  {lab.bipartition}\n" for lab in labels))


@main.group("js")
def js_group():
    """Valuations and the refined dominance order."""


@_command(js_group, "val")
@_params(click.option("--bip", "bip_docs", multiple=True,
                      help="Two bipartition documents, dominant first."))
def js_val(bip_docs, e, kappa, charp, fmt):
    """Signed valuation sum between two members of one block."""
    if len(bip_docs) != 2:
        raise click.UsageError("supply --bip twice, dominant first")
    doc_a, doc_b = (_read_doc(t) for t in bip_docs)
    p = _resolve([doc_a, doc_b], e, kappa, charp)
    a, b = _parse_bip_fields(doc_a), _parse_bip_fields(doc_b)
    key_a, key_b = (block_key(x, p)[0] for x in (a, b))
    if key_a != key_b:
        raise ValueError(f"{a} and {b} lie in different blocks: "
                         f"{json.dumps(_key_doc(key_a))} and "
                         f"{json.dumps(_key_doc(key_b))}")
    pairs = dominating_pairs(a, b, p)
    doc = {"valuation": signed_sum(pairs), "pairs": len(pairs)}
    _emit(fmt, doc, lambda: _render_kv_table(doc.items()))


@_command(js_group, "order")
@_block_common
def js_refined_order(e, kappa, charp, bip_doc, block_doc, fmt):
    """Strict relations of the refined order on a block."""
    key, p = _resolve_block(bip_doc, block_doc, e, kappa, charp)
    order = order_from_members(enumerate_block(key, p), p)
    idx = {m: n for n, m in enumerate(order.members)}
    rel = sorted((idx[a], idx[b]) for a, b in order.strict)
    _emit(fmt, {"members": [_bip_doc(m) for m in order.members],
                "relations": [list(r) for r in rel]},
          lambda: "".join(f"{order.members[a]} > {order.members[b]}\n"
                          for a, b in rel))


@_command(main, "decomp")
@_block_common
@click.option("--no-cache", is_flag=True, help="Bypass the matrix cache.")
def decomp(e, kappa, charp, bip_doc, block_doc, fmt, no_cache):
    """Decomposition matrix of a block of weight at most three."""
    key, p = _resolve_block(bip_doc, block_doc, e, kappa, charp)
    matrix = (decomposition_matrix(key, p) if no_cache
              else cached_matrix(key, p))
    _emit(fmt, matrix, lambda: _render_matrix_table(matrix))


@_command(main, "verify")
@click.option("--case", "case_id", default=None,
              help="Case identifier, e.g. III-8.")
@click.option("--e", "e", type=int, default=None)
@click.option("--params", default=None,
              help="Window parameters, e.g. 0,2,3,3,3.")
@click.option("--all", "run_all", is_flag=True, help="Run every case.")
@click.option("--list", "list_cases", is_flag=True,
              help="List the case identifiers.")
@click.option("--format", "fmt", type=click.Choice(["json", "table"]),
              default="table")
def verify(case_id, e, params, run_all, list_cases, fmt):
    """Recompute catalogued families and diff against the fixtures."""
    modes = [flag for flag, given in (("--case", case_id is not None),
                                      ("--all", run_all),
                                      ("--list", list_cases)) if given]
    if len(modes) > 1:
        raise click.UsageError(f"{' and '.join(modes)} exclude each other")
    if case_id is None and (e is not None or params is not None):
        raise click.UsageError("--e and --params need --case")
    if list_cases:
        ids = sorted(CASES)
        _emit(fmt, ids, lambda: "".join(f"{c}\n" for c in ids))
        return
    if run_all:
        reports = verify_all()
    elif case_id is not None:
        if case_id not in CASES:
            raise click.UsageError(f"unknown case {case_id}")
        window = None if params is None else _parse_params(params)
        reports = [verify_case(CASES[case_id], e, window)]
    else:
        raise click.UsageError("supply --case, --all or --list")
    for rep in reports:
        _emit(fmt, rep, functools.partial(_render_report_table, rep))
    if not all(rep.overall for rep in reports):
        sys.exit(1)


if __name__ == "__main__":
    main()
