"""The benchmark's ops and the canonical text of their outputs.

An op's output is its stdout, or its exit status plus stderr. Every output
is reduced to a short SHA-256 digest and compared with the digest recorded
in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json


def digest(text: str, width: int = 16) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:width]


def run_cli(main, args: list[str]) -> tuple[int, str, str]:
    """Run a bipblocks command in-process; returns (exit code, stdout,
    stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=args, prog_name="bipblocks")
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return code, out.getvalue(), err.getvalue()


def cli_output(code: int, out: str, err: str) -> str:
    return out if code == 0 else f"exit {code}\n{err}"


def decomp_args(doc: dict) -> list[str]:
    return ["decomp", "--bip", json.dumps(doc)]


def is_refusal(code: int, err: str) -> bool:
    """The documented refusal of a block of weight above 3."""
    return code == 1 and err.startswith("error: unsupported weight ")


def catalogue_op(cli, case_id: str) -> tuple[str, bool]:
    """One entry of ``bipblocks verify --all --format json``."""
    report = cli.verify_case(cli.CASES[case_id])
    return cli.serialize(report), report.overall


def explore_op(blocks, crystal, b, p, seen: set):
    """A ``bip info``-style query through library calls. The first op
    that reaches a block also classifies it. Returns the query's result
    and the descriptor, or None when the block was seen before."""
    key, _ = blocks.block_key(b, p)
    result = (key.n, key.content, blocks.weight(b, p),
              crystal.is_restricted(b, p)[0], crystal.is_regular(b, p))
    desc = None
    if key not in seen:
        seen.add(key)
        desc = blocks.classify_type(key, p)
    return result, desc


def explore_text(result) -> str:
    n, content, w, restricted, regular = result
    return json.dumps([n, list(content), w, restricted, regular])


def content_id(content) -> str:
    return ",".join(map(str, content))
