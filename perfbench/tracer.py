"""Span tracer that wraps multidom's public functions from outside.

Tracing replaces every module-level binding of a listed function with a
wrapper that records a span: name, start, end, parent span and trace id.
Each top-level call (one CLI invocation) starts a new trace id.  Because the
modules import each other's functions by name (``from .ledger import
check_neighborhood_bound``), every module's binding is patched, not just the
defining one; calls made through any of them are traced.  Nothing under
``src/`` is edited.

Spans stay in memory; ``layer_metrics`` turns one pass's spans into the
per-layer metrics and ``write_spans`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

PACKAGE = "multidom"
LAYERS = ("generators", "graphio", "solvers", "ledger", "exact", "harness", "cli")

WRAPPED = {
    "generators": ("generate",),
    "graphio": ("parse_graph", "solution_to_dict", "write_report_csv", "write_report_json"),
    "solvers": ("solve",),
    "ledger": (
        "build_ledger",
        "check_sum_identity",
        "check_neighborhood_bound",
        "check_residual_decomposition",
    ),
    "exact": ("exact_minimum",),
    "harness": ("run_corpus", "run_entry", "verify_instance", "summarize"),
    "cli": ("main", "_cmd_solve", "_cmd_verify", "_cmd_bench", "_read_graph"),
}

# Work counted at a span's end from the call's arguments or result.
COUNTERS = {
    "graphio.parse_graph": lambda args, result: len(args[0]),
    "solvers.solve": lambda args, result: len(result.iterations),
    "ledger.build_ledger": lambda args, result: sum(result.scores),
    "exact.exact_minimum": lambda args, result: result.nodes_explored,
}

# Spans that must fire in every traced pass of a workload.  A rename in the
# package that stops one from firing fails the run instead of silently
# zeroing a layer.
_GRAPH_SPANS = (
    "cli.main", "cli._cmd_solve", "cli._cmd_verify", "cli._read_graph",
    "graphio.parse_graph", "graphio.solution_to_dict", "solvers.solve",
    "harness.verify_instance", "ledger.build_ledger", "ledger.check_sum_identity",
    "ledger.check_neighborhood_bound", "ledger.check_residual_decomposition",
    "exact.exact_minimum",
)
EXPECTED_SPANS = {
    "corpus": (
        "cli.main", "cli._cmd_bench", "harness.run_corpus", "harness.run_entry",
        "harness.verify_instance", "harness.summarize", "generators.generate",
        "solvers.solve", "ledger.build_ledger", "ledger.check_sum_identity",
        "ledger.check_neighborhood_bound", "ledger.check_residual_decomposition",
        "exact.exact_minimum", "graphio.write_report_csv", "graphio.write_report_json",
    ),
    "sparse_ladder": _GRAPH_SPANS,
    "dense_audit": _GRAPH_SPANS,
}

# Per-layer metrics that count work; they must repeat exactly across passes.
COUNT_METRICS = (
    "generators.calls", "graphio.parse_bytes", "solvers.calls", "solvers.iterations",
    "solvers.solves_per_verify", "ledger.vertex_audits", "ledger.arrival_events",
    "ledger.neighborhood_bound_per_vertex", "exact.calls", "exact.skipped",
    "exact.nodes_explored", "trace.spans",
)

# Span record fields.
TRACE, SPAN, PARENT, NAME, START, END, COUNT, ERROR = range(8)


class Tracer:
    """Records spans while installed; one instance per run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._traces = 0
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Patch every binding of every WRAPPED function in the package.

        Raises AttributeError when a listed function no longer exists."""
        wrappers = {}
        for layer, names in WRAPPED.items():
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()

    def take(self) -> list[list]:
        """Return and forget the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                self._traces += 1
            span = [self._traces, len(self.spans), stack[-1] if stack else None,
                    name, 0, 0, 0, None]
            self.spans.append(span)
            stack.append(span[SPAN])
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = perf_counter_ns()
                span[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[END] = perf_counter_ns()
            if count is not None:
                span[COUNT] = count(args, result)
            return result

        return traced


def missing_spans(workload: str, spans: list[list]) -> list[str]:
    fired = {s[NAME] for s in spans}
    return [name for name in EXPECTED_SPANS[workload] if name not in fired]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans."""
    by_id = {s[SPAN]: s for s in spans}
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s[PARENT] is not None:
            child_ns[s[PARENT]] += s[END] - s[START]
    dur: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    errors: dict[tuple[str, str], int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    run_entry_ms = []
    in_verify: set[int] = set()  # spans anywhere below a cli._cmd_verify span
    verify_solves = rework = 0.0
    for s in spans:
        name = s[NAME]
        d = (s[END] - s[START]) / 1e9
        own = d - child_ns[s[SPAN]] / 1e9
        dur[name] += d
        self_s[name] += own
        layer_self[name.split(".")[0]] += own
        counts[name] += s[COUNT]
        if s[ERROR] is None:
            calls[name] += 1
        else:
            errors[name, s[ERROR]] += 1
        if name == "harness.run_entry":
            run_entry_ms.append(d * 1e3)
        parent = by_id.get(s[PARENT])
        if parent is None:
            continue
        if parent[NAME] == "cli._cmd_verify" or parent[SPAN] in in_verify:
            in_verify.add(s[SPAN])
            verify_solves += name == "solvers.solve"
        # Calls made by _cmd_verify itself after verify_instance returned.
        if parent[NAME] == "cli._cmd_verify" and name in (
            "solvers.solve", "ledger.build_ledger", "ledger.check_neighborhood_bound"
        ):
            rework += d
    audits = calls["ledger.check_residual_decomposition"]
    bound_calls = calls["ledger.check_neighborhood_bound"]
    iterations = counts["solvers.solve"]
    nodes = counts["exact.exact_minimum"]
    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m.update({
        "generators.generate_s": dur["generators.generate"],
        "generators.calls": calls["generators.generate"],
        "graphio.parse_s": dur["graphio.parse_graph"],
        "graphio.parse_bytes": counts["graphio.parse_graph"],
        # solution_to_dict plus the json.dump to the trace file, which is
        # the self time of _cmd_solve.
        "graphio.trace_write_s": dur["graphio.solution_to_dict"] + self_s["cli._cmd_solve"],
        "graphio.report_write_s": dur["graphio.write_report_csv"] + dur["graphio.write_report_json"],
        "solvers.solve_s": dur["solvers.solve"],
        "solvers.calls": calls["solvers.solve"],
        "solvers.iterations": iterations,
        "solvers.us_per_iteration": _per(dur["solvers.solve"] * 1e6, iterations),
        "solvers.solves_per_verify": _per(verify_solves, calls["cli._cmd_verify"]),
        "ledger.build_s": dur["ledger.build_ledger"],
        "ledger.sum_identity_s": dur["ledger.check_sum_identity"],
        "ledger.neighborhood_bound_s": dur["ledger.check_neighborhood_bound"],
        "ledger.residual_s": self_s["ledger.check_residual_decomposition"],
        "ledger.vertex_audits": audits,
        "ledger.arrival_events": counts["ledger.build_ledger"],
        "ledger.neighborhood_bound_per_vertex": _per(bound_calls, audits),
        "ledger.us_per_vertex_audit": _per(
            (dur["ledger.check_neighborhood_bound"]
             + self_s["ledger.check_residual_decomposition"]) * 1e6,
            audits,
        ),
        "exact.exact_s": dur["exact.exact_minimum"],
        "exact.calls": calls["exact.exact_minimum"],
        "exact.skipped": errors["exact.exact_minimum", "InstanceTooLargeError"],
        "exact.nodes_explored": nodes,
        "exact.us_per_node": _per(dur["exact.exact_minimum"] * 1e6, nodes),
        "harness.run_entry_p50_ms": _percentile(run_entry_ms, 50),
        "harness.run_entry_p98_ms": _percentile(run_entry_ms, 98),
        "cli.verify_rework_s": rework,
        "cli.verify_render_s": self_s["cli._cmd_verify"],
        "trace.spans": len(spans),
    })
    return m


def write_spans(path, passes: list[list[list]]) -> None:
    """Write every traced pass's spans as gzipped tab-separated lines."""
    with gzip.open(path, "wt") as fh:
        fh.write("pass\ttrace\tspan\tparent\tname\tstart_ns\tend_ns\tcount\terror\n")
        for i, spans in enumerate(passes):
            for s in spans:
                fields = [i, *s]
                fh.write("\t".join("" if f is None else str(f) for f in fields) + "\n")


def _per(total: float, n: float) -> float:
    return total / n if n else 0.0


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
