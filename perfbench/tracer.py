"""Outside-in layer trace of one CLI command.

Run as ``python perfbench/tracer.py SPANS_FILE ARGV...`` with ``src`` on
``PYTHONPATH``.  It wraps each layer's public functions in every ``rspinrel``
namespace that holds them (``cli``, ``relations`` and ``selftest`` import them
by name, so patching only the defining module would miss those calls), runs
``rspinrel.cli.main(ARGV)``, and writes the spans and counters it kept in
memory to SPANS_FILE when the command ends.  Its stdout, stderr and exit code
are the command's own.

``p_polynomial`` recurses through its module global, so it is wrapped only
outside ``rspinrel.cohft``: the spans cover the outermost calls, and its cache
statistics come from ``cache_info()`` deltas.

The analysis half (``layer_totals``, ``self_times``) runs in the benchmark
process and has no dependency on ``rspinrel``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (layer, defining module, function, mode).  "span" records a timed span per
# call; "count" only counts calls, for functions called too often to time.
LAYERS = (
    ("relations.contraction", "rspinrel.relations", "graph_contribution_terms", "span"),
    ("relations.edge_constant", "rspinrel.relations", "edge_constant_term", "count"),
    ("cohft.topological_value", "rspinrel.cohft", "topological_value", "count"),
    ("rpoly.interpolate", "rspinrel.rpoly", "poly_interpolate", "span"),
    ("relations.extract", "rspinrel.relations", "extract_r_coefficients", "span"),
    ("relations.leg_vectors", "rspinrel.relations", "admissible_leg_vectors", "span"),
    ("strata.enumerate_graphs", "rspinrel.strata", "enumerate_contributing_graphs", "span"),
    ("strata.divisor_generators", "rspinrel.strata", "divisor_generators", "span"),
    ("relations.pullback", "rspinrel.relations", "pullback_genus2", "span"),
    ("linalg.rank", "rspinrel.linalg", "rank_and_solve", "span"),
    ("linalg.rref", "rspinrel.linalg", "rref", "span"),
    ("relations.spans_equal", "rspinrel.relations", "spans_equal", "span"),
    ("relations.ac_reference", "rspinrel.relations", "ac_relations", "span"),
    ("cohft.pm", "rspinrel.cohft", "p_polynomial", "span"),
)


def _cells(matrix) -> int:
    """rows x cols of a ``RationalMatrix`` or of a list of rows."""
    if hasattr(matrix, "rows") and hasattr(matrix, "cols"):
        return matrix.rows * matrix.cols
    return len(matrix) * (len(matrix[0]) if len(matrix) else 0)


def _count_result(layer: str, args, result, counters: dict) -> None:
    """Counters read off a layer call's arguments and result."""
    def add(name, value):
        counters[name] = counters.get(name, 0) + value

    if layer == "relations.contraction":
        add("relations.contraction.terms", len(result))
        add("relations.contraction.nonzero", sum(1 for t in result if t.coefficient != 0))
    elif layer == "relations.leg_vectors":
        _, n, r = args[:3]
        add("relations.leg_vectors.tried", (r - 1) ** n)
        add("relations.leg_vectors.admitted", len(result))
    elif layer == "strata.enumerate_graphs":
        add("strata.graphs", len(result))
    elif layer == "strata.divisor_generators":
        counters["strata.basis_size"] = max(counters.get("strata.basis_size", 0), len(result))
    elif layer in ("linalg.rank", "linalg.rref"):
        add("linalg.cells", _cells(args[0]))


class Recorder:
    """Spans as (layer, parent index, start ns, end ns) and named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, layer: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [layer, stack[-1] if stack else -1, clock(), 0]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = clock()
            counters[layer + ".calls"] = counters.get(layer + ".calls", 0) + 1
            _count_result(layer, args, result, counters)
            return result

        return wrapper

    def count(self, layer: str, fn):
        counters = self.counters
        name = layer + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


def install(recorder: Recorder) -> None:
    """Replace each layer function in every loaded ``rspinrel`` module that
    holds it; importing ``rspinrel.cli`` loads every module the CLI uses."""
    importlib.import_module("rspinrel.cli")
    modules = [module for name, module in list(sys.modules.items())
               if name == "rspinrel" or name.startswith("rspinrel.")]
    for layer, home, fname, mode in LAYERS:
        original = getattr(importlib.import_module(home), fname, None)
        if original is None:  # renamed or merged away: the layer reads 0
            continue
        wrapped = getattr(recorder, mode)(layer, original)
        for module in modules:
            if layer == "cohft.pm" and module.__name__ == home:
                continue
            if getattr(module, fname, None) is original:
                setattr(module, fname, wrapped)


def main(argv: list[str]) -> int:
    spans_file, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    from rspinrel import cli, cohft

    before = cohft.p_polynomial.cache_info()
    code = 1
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:  # argparse's --help and usage exits
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        after = cohft.p_polynomial.cache_info()
        sys.stdout.flush()
        recorder.counters["cohft.pm.hits"] = after.hits - before.hits
        recorder.counters["cohft.pm.misses"] = after.misses - before.misses
        with open(spans_file, "w") as fh:
            json.dump({"spans": recorder.spans, "counters": recorder.counters}, fh)
    return code


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of half-open intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for layer, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, _, start, end) in enumerate(spans):
        kids = [(max(s, start), min(e, end)) for s, e in children.get(index, ())]
        out.append(end - start - _covered([k for k in kids if k[0] < k[1]]))
    return out


def layer_totals(spans: list) -> dict[str, dict[str, int]]:
    """Per layer, in ns: ``busy`` is the time inside the layer's outermost
    spans (a call nested in a call of the same layer is not counted twice),
    ``self`` the summed self time.  The key ``""`` holds, as ``busy``, the
    time covered by root spans."""
    totals: dict[str, dict[str, int]] = {}
    own = self_times(spans)
    for index, (layer, parent, start, end) in enumerate(spans):
        entry = totals.setdefault(layer, {"busy": 0, "self": 0})
        entry["self"] += own[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != layer:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            entry["busy"] += end - start
    roots = [(s, e) for _, parent, s, e in spans if parent < 0]
    totals[""] = {"busy": _covered(roots), "self": 0}
    return totals


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
