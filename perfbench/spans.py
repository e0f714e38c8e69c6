"""Spans and counters around the calls between bipblocks' layers.

The layers are the package's modules: core, abacus, blocks, crystal, js and
cli. ``instrument`` replaces, from outside the package, the module-level
names through which one layer calls another with wrappers. A span wrapper
records (name, parent span, op, start, end); a count wrapper only counts.
A span's self time is its duration minus the durations of its child spans
(the program is single-threaded, so children nest and never overlap).

Deliberately not wrapped: ``canonical_sort`` inside ``enumerate_block``
(it consumes the enumeration generator, so its span would claim the
enumeration's time) and the ``RimHook.length`` property (millions of calls
per catalogue pass).
"""

from __future__ import annotations

import time
from collections import Counter

# The abacus functions blocks calls, wrapped at blocks' bindings of them.
ABACUS = ("display", "push_up", "s_xy", "gamma_vector", "from_display",
          "transfer_bead")
ABACUS_SPANS = tuple(f"abacus.{attr}" for attr in ABACUS)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent id, op, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1

    def span(self, name: str, fn, post=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if post is not None:
                post(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, fn, post=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if post is not None:
                post(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None


def instrument(tracer: Tracer) -> None:
    """Wrap the cross-layer bindings of an imported bipblocks."""
    from bipblocks import blocks, cli, crystal, js

    counts = tracer.counts

    def patch(modules, attr, name, post=None, kind="span"):
        make = tracer.span if kind == "span" else tracer.count
        for mod in modules:
            setattr(mod, attr, make(name, getattr(mod, attr), post))

    # cli
    patch([cli], "verify_case", "cli.verify_case")
    patch([cli], "cached_matrix", "cli.cached_matrix")
    patch([cli], "serialize", "cli.serialize")

    # blocks
    def enumerate_span(fn):
        inner = tracer.span("blocks.enumerate_block", fn)

        def wrapper(key, p):
            before = counts["blocks.candidates"]
            result = inner(key, p)
            if counts["blocks.candidates"] > before:  # not an in-process hit
                counts["blocks.members"] += len(result)
            return result
        return wrapper

    for mod in (cli, js, crystal):
        mod.enumerate_block = enumerate_span(mod.enumerate_block)

    content_counts = blocks.content_counts

    def counted_content(b, p):
        if tracer.innermost() == "blocks.enumerate_block":
            counts["blocks.candidates"] += 1
        return content_counts(b, p)
    blocks.content_counts = counted_content

    patch([cli, blocks, crystal], "block_key", "blocks.block_key")
    patch([blocks], "_member_of", "blocks.member_of")
    patch([blocks], "classify_type", "blocks.classify_type")
    patch([cli, js, crystal, blocks], "weight", "blocks.weight")
    patch([cli], "family_from_type_params", "blocks.family_from_type_params")
    blocks.BlockFamily.members = tracer.span(
        "blocks.family_members", blocks.BlockFamily.members)
    patch([blocks], "_analyze_member", "blocks.analyze_member")

    # abacus, at the bindings blocks uses
    for attr in ABACUS:
        patch([blocks], attr, f"abacus.{attr}")

    # crystal
    def count_restricted(result, args):
        counts["crystal.restricted_true"] += bool(result[0])

    patch([cli, js, crystal], "is_restricted", "crystal.is_restricted",
          count_restricted)
    patch([crystal], "is_regular", "crystal.is_regular")
    patch([cli], "mu_diamond", "crystal.mu_diamond")
    patch([crystal], "signature", "crystal.signature", kind="count")

    # js
    patch([cli], "decomposition_matrix", "js.decomposition_matrix")
    patch([cli, js], "matrix_from_members", "js.matrix_from_members")
    patch([cli], "order_from_members", "js.order_from_members")

    def count_table(result, args):
        counts["js.member_pairs"] += len(result)
        counts["js.nonzero_valuations"] += sum(1 for v in result.values() if v)

    patch([js], "_valuation_table", "js.valuation_table", count_table)
    patch([js], "_hook_data", "js.hook_data")

    def count_pairs(result, args):
        counts["js.hook_pairs_tested"] += len(args[0]) * len(args[1])
        counts["js.hook_pairs_matched"] += len(result)

    patch([js], "_pairs_from_data", "js.pairs_from_data", count_pairs,
          kind="count")

    def count_clamped(result, args):
        counts["js.clamped_entries"] += sum(
            1 for f in result[2].values() if f == "clamped")

    patch([js], "_solve_column", "js.solve_column", count_clamped)

    # core
    def count_hooks(result, args):
        counts["core.hooks"] += len(result)

    patch([js], "rim_hooks", "core.rim_hooks", count_hooks)
    patch([js, crystal], "dominates", "core.dominates", kind="count")


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


# The spans or counts that show a pass reached each metric's layer call.
# The ratios and trace.coverage are not listed: a ratio is left out when
# its denominator is 0.
SOURCES = {
    "cli.cache_misses": ("cli.cached_matrix",),
    "cli.cache_write_s": ("cli.cached_matrix",),
    "cli.serialize_s": ("cli.serialize",),
    "cli.output_bytes": ("cli.output_bytes",),
    "cli.verify_case_self_s": ("cli.verify_case",),
    "blocks.enumerate_s": ("blocks.enumerate_block",),
    "blocks.candidates": ("blocks.enumerate_block",),
    "blocks.members": ("blocks.enumerate_block",),
    "blocks.member_of_s": ("blocks.member_of",),
    "blocks.weight_s": ("blocks.weight",),
    "blocks.weight_calls": ("blocks.weight",),
    "blocks.family_s": ("blocks.family_from_type_params",
                        "blocks.family_members", "blocks.analyze_member"),
    "abacus.reduce_s": ABACUS_SPANS,
    "abacus.calls": ABACUS_SPANS,
    "crystal.restricted_s": ("crystal.is_restricted",),
    "crystal.restricted_calls": ("crystal.is_restricted",),
    "crystal.regular_s": ("crystal.is_regular",),
    "crystal.signature_calls": ("crystal.signature",),
    "crystal.diamond_s": ("crystal.mu_diamond",),
    "js.valuation_table_s": ("js.valuation_table",),
    "js.member_pairs": ("js.valuation_table",),
    "js.nonzero_valuations": ("js.valuation_table",),
    "js.hook_data_s": ("js.hook_data",),
    "js.hook_pairs_tested": ("js.pairs_from_data",),
    "js.hook_pairs_matched": ("js.pairs_from_data",),
    "js.solve_s": ("js.solve_column",),
    "js.columns": ("js.solve_column",),
    "js.clamped_entries": ("js.solve_column",),
    "js.order_s": ("js.order_from_members",),
    "core.rim_hooks_s": ("core.rim_hooks",),
    "core.rim_hooks_calls": ("core.rim_hooks",),
    "core.hooks": ("core.rim_hooks",),
    "core.dominates_calls": ("core.dominates",),
}


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counts.

    A metric whose layer call the pass never reached is left out, and so is
    a ratio whose denominator is 0: neither has a value to report.
    """
    spans, counts = tracer.spans, tracer.counts
    child_time = [0.0] * len(spans)
    root_time = 0.0
    for _, parent, _, start, end in spans:
        if parent < 0:
            root_time += end - start
        else:
            child_time[parent] += end - start
    self_s, calls = Counter(), Counter()
    for sid, (name, _, _, start, end) in enumerate(spans):
        self_s[name] += end - start - child_time[sid]
        calls[name] += 1
    values = {
        # every cached_matrix call of a run misses: the cache starts empty
        # and each block is new, which the worker checks from outside
        "cli.cache_misses": calls["cli.cached_matrix"],
        "cli.cache_write_s": self_s["cli.cached_matrix"],
        "cli.serialize_s": self_s["cli.serialize"],
        "cli.output_bytes": counts["cli.output_bytes"],
        "cli.verify_case_self_s": self_s["cli.verify_case"],
        "blocks.enumerate_s": self_s["blocks.enumerate_block"],
        "blocks.candidates": counts["blocks.candidates"],
        "blocks.members": counts["blocks.members"],
        "blocks.enumerate_yield": _ratio(counts["blocks.members"],
                                         counts["blocks.candidates"]),
        "blocks.member_of_s": self_s["blocks.member_of"],
        "blocks.weight_s": self_s["blocks.weight"],
        "blocks.weight_calls": calls["blocks.weight"],
        "blocks.family_s": (self_s["blocks.family_from_type_params"]
                            + self_s["blocks.family_members"]
                            + self_s["blocks.analyze_member"]),
        "abacus.reduce_s": sum(self_s[n] for n in ABACUS_SPANS),
        "abacus.calls": sum(calls[n] for n in ABACUS_SPANS),
        "crystal.restricted_s": self_s["crystal.is_restricted"],
        "crystal.restricted_calls": calls["crystal.is_restricted"],
        "crystal.restricted_yield": _ratio(counts["crystal.restricted_true"],
                                           calls["crystal.is_restricted"]),
        "crystal.regular_s": self_s["crystal.is_regular"],
        "crystal.signature_calls": counts["crystal.signature"],
        "crystal.diamond_s": self_s["crystal.mu_diamond"],
        "js.valuation_table_s": self_s["js.valuation_table"],
        "js.hook_data_s": self_s["js.hook_data"],
        "js.member_pairs": counts["js.member_pairs"],
        "js.nonzero_valuations": counts["js.nonzero_valuations"],
        "js.hook_pairs_tested": counts["js.hook_pairs_tested"],
        "js.hook_pairs_matched": counts["js.hook_pairs_matched"],
        "js.hook_pair_yield": _ratio(counts["js.hook_pairs_matched"],
                                     counts["js.hook_pairs_tested"]),
        "js.solve_s": self_s["js.solve_column"],
        "js.columns": calls["js.solve_column"],
        "js.clamped_entries": counts["js.clamped_entries"],
        "js.order_s": self_s["js.order_from_members"],
        "core.rim_hooks_s": self_s["core.rim_hooks"],
        "core.rim_hooks_calls": calls["core.rim_hooks"],
        "core.hooks": counts["core.hooks"],
        "core.dominates_calls": counts["core.dominates"],
        "trace.coverage": _ratio(root_time, wall_s),
    }

    def reached(name: str) -> bool:
        sources = SOURCES.get(name)
        return sources is None or any(calls[s] or counts[s] for s in sources)

    return {name: v for name, v in values.items()
            if v is not None and reached(name)}
