"""Spans around partlyfree's public functions, installed from outside the package.

``Tracer.install()`` replaces each function named in ``SPANS``, in every
partlyfree module that holds a reference to it, by a wrapper that records a
span ``[name, start, end, parent, job, count]``.  ``count`` is taken from the
result for the functions named in ``COUNTS``.  ``Tracer.remove()`` puts the
originals back.  No traced function calls itself, so the spans of one name
never nest and their durations add up.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, function) -> span name; a span name "x.y" gives the metric "x.y_s"
SPANS = {
    ("cli", "main"): "cli.main",
    ("graphs", "parse_graph"): "graphs.parse",
    ("graphs", "classify_finite"): "graphs.classify",
    ("graphs", "double_cycle_witnesses"): "graphs.witness",
    ("pairs", "construct_pair_unital"): "pairs.construct",
    ("pairs", "construct_pair_double_cycle"): "pairs.construct",
    ("pairs", "quiver_pair"): "pairs.construct",
    ("pairs", "construct_pair_infinite_path"): "pairs.construct",
    ("paths", "enumerate_paths"): "paths.enumerate",
    ("fock", "build_basis"): "fock.basis",
    ("fock", "left_op"): "fock.left_op",
    ("pairs", "materialize"): "pairs.materialize",
    ("pairs", "verify_pair"): "pairs.verify",
    ("catalog", "check_entry"): "catalog.check",
    ("oracle", "search_isometry_pairs"): "oracle.search",
    ("oracle", "agreement_run"): "oracle.agreement",
    ("oracle", "has_double_cycle_bruteforce"): "oracle.bruteforce",
    ("oracle", "simple_cycles"): "oracle.simple_cycles",
}


def _witness_len(witnesses) -> int:
    return max((len(w.word) for d in witnesses for w in (d.first, d.second)), default=0)


# span name -> (count metric, count of one result, how one pass combines them)
COUNTS = {
    "paths.enumerate": ("paths.count", len, sum),
    "fock.basis": ("fock.dim", lambda basis: basis.dim, sum),
    "fock.left_op": ("fock.nnz", lambda op: op.nnz, sum),
    "pairs.construct": ("pairs.word_len_max", lambda pair: pair.max_word_length(), max),
    "graphs.witness": ("graphs.witness_len_max", _witness_len, max),
    "oracle.simple_cycles": ("oracle.simple_cycles", len, sum),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.job = -1
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count = COUNTS[name][1] if name in COUNTS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.partition(".")[0] == "partlyfree"]
        for (module, attr), name in SPANS.items():
            original = getattr(sys.modules["partlyfree." + module], attr)
            traced = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)
                        self._patched.append((m, key, original))

    def remove(self) -> None:
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one pass: summed span durations, the self time
    of ``cli.main`` as ``cli.overhead_s``, and the combined counts."""
    out = {f"{name}_s": 0.0 for name in dict.fromkeys(SPANS.values())}
    out["cli.overhead_s"] = 0.0
    counts: dict = {metric: [] for metric, _, _ in COUNTS.values()}
    for name, start, end, parent, _job, count in spans:
        out[f"{name}_s"] += end - start
        if name == "cli.main":
            out["cli.overhead_s"] += end - start
        if parent >= 0 and spans[parent][0] == "cli.main":
            out["cli.overhead_s"] -= end - start
        if count is not None:
            counts[COUNTS[name][0]].append(count)
    for metric, _, combine in COUNTS.values():
        out[metric] = combine(counts[metric]) if counts[metric] else 0
    return out
