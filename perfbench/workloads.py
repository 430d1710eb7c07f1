"""Inputs, operations and output checks of the benchmark workloads.

Every function takes the imported ``multidom`` package as ``md`` rather than
importing it, so the caller decides which copy of the package is under test
(the set-up timer re-imports it several times).

A workload is a list of operations.  Each operation is one call into the
public CLI entry point, ``multidom.cli.main(argv)``.  One pass runs every
operation once, in order, each call starting after the previous returned.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("corpus", "sparse_ladder", "dense_audit")
DEFAULT_SEED = 0

# The sparse ladder: a ring plus CHORDS_PER_VERTEX * n distinct random chords
# gives minimum degree 2 and average degree 8.  The n = 2000 rung was dropped
# because one pass of both rungs takes about 30 s, too long to repeat within
# one run; the degree is unchanged.
SPARSE_RUNGS = (1000,)
CHORDS_PER_VERTEX = 3
SPARSE_MODES = (("dom", 1), ("ktuple", 2), ("kdom", 2))

DENSE_N = 400
DENSE_P = 0.25
DENSE_GRAPHS = 2
DENSE_MODES = (("dom", 1), ("ktuple", 3), ("kdom", 3))

CORPUS_SIZE = 756

# Report fields that make up the corpus digest.  Timing columns are left
# out because they differ on every run.
REPORT_FIELDS = (
    "instance_id", "family", "seed", "n", "m", "max_degree", "min_degree", "mode", "k",
    "greedy_size", "exact_size", "ratio", "bound", "bound_satisfied",
    "ledger_checks_passed", "trivial", "skip_reason",
)
SOLVE_FIELDS = ("mode", "k", "size", "chosen", "trivial")
TRACE_FIELDS = ("mode", "k", "n", "m", "graph_digest", "trivial", "chosen", "iterations")
VERIFY_FIELDS = (
    "instance", "mode", "k", "greedy_size", "exact_size", "ratio", "bound",
    "bound_satisfied", "ledger_checks_passed", "trivial", "skip_reason", "ledger",
)


@dataclass
class Op:
    """One CLI call of a pass.  graph is the input graph of solve/verify."""

    kind: str
    argv: list[str]
    graph: object = None
    trace: Path | None = None
    report: Path | None = None


@dataclass
class Outcome:
    """What one operation returned in one pass."""

    rc: int
    seconds: float
    stdout: str
    stderr: str


@dataclass
class Checked:
    """Per-pass check result of one operation.

    digest covers the outputs that must not change between passes; keep is
    what the once-per-run check needs later; reported_greedy_s is the greedy
    time the program itself wrote into a corpus report.
    """

    problems: list[str]
    digest: str
    keep: object = None
    reported_greedy_s: float = 0.0


# -- inputs --------------------------------------------------------------------


def corpus_document(md, seed: int) -> list[dict]:
    """The default corpus as a corpus file, with every erdos_renyi seed
    shifted by the workload seed.  Seed 0 gives default_corpus() exactly."""
    doc = []
    for entry in md.default_corpus():
        spec = {f: v for f, v in dataclasses.asdict(entry.spec).items() if v is not None}
        if entry.spec.family == "erdos_renyi":
            spec["seed"] += seed
        doc.append({"spec": spec, "mode": entry.mode.value, "k": entry.k})
    return doc


def sparse_graph(md, n: int, seed: int):
    """Ring 0-1-...-(n-1)-0 plus CHORDS_PER_VERTEX * n distinct chords whose
    endpoints are SplitMix64 outputs modulo n."""
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    target = len(edges) + CHORDS_PER_VERTEX * n
    stream = md.splitmix64((n << 32) + seed)
    while len(edges) < target:
        u, v = next(stream) % n, next(stream) % n
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return md.Graph(n, sorted(edges))


def dense_graphs(md, seed: int) -> list:
    return [
        md.generate(md.FamilySpec("erdos_renyi", n=DENSE_N, p=DENSE_P, seed=seed + i))
        for i in range(DENSE_GRAPHS)
    ]


def build(md, workload: str, seed: int, workdir: Path) -> list[Op]:
    """Make the workload's inputs under workdir and return its operations."""
    if workload == "corpus":
        corpus = workdir / "corpus.json"
        corpus.write_text(json.dumps(corpus_document(md, seed)))
        report = workdir / "reports.json"
        argv = ["bench", "--corpus", str(corpus), "--csv", str(workdir / "reports.csv"),
                "--json", str(report), "--jobs", "1"]
        return [Op("bench", argv, report=report)]
    if workload == "sparse_ladder":
        graphs = [(f"sparse{n}", sparse_graph(md, n, seed)) for n in SPARSE_RUNGS]
        modes = SPARSE_MODES
    elif workload == "dense_audit":
        graphs = [(f"dense{i}", g) for i, g in enumerate(dense_graphs(md, seed))]
        modes = DENSE_MODES
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    ops = []
    for name, g in graphs:
        path = workdir / f"{name}.dimacs"
        path.write_text(md.write_dimacs(g))
        for mode, k in modes:
            common = [str(path), "--mode", mode, "--k", str(k)]
            trace = workdir / f"{name}-{mode}-{k}.trace.json"
            ops.append(Op("solve", ["solve", *common, "--trace", str(trace)], g, trace))
            ops.append(Op("verify", ["verify", *common], g))
    return ops


# -- output checks -------------------------------------------------------------


def check_pass(op: Op, out: Outcome) -> Checked:
    """Cheap checks run on every pass: exit code, pass/fail fields, and a
    digest of the outputs that later passes must reproduce."""
    if out.rc != 0:
        return Checked([f"exit code {out.rc}: {out.stderr.strip()[-300:]}"], "")
    doc = json.loads(out.stdout)
    if op.kind == "solve":
        trace = json.loads(op.trace.read_text())
        problems = [] if trace["chosen"] == doc["chosen"] else ["stdout and trace disagree"]
        fields = [_pick(doc, SOLVE_FIELDS), _pick(trace, TRACE_FIELDS)]
        return Checked(problems, _digest(fields), keep=trace)
    if op.kind == "verify":
        problems = []
        if doc["ledger_checks_passed"] is not True:
            problems.append("ledger checks failed")
        if doc["bound_satisfied"] not in (True, None):
            problems.append("approximation bound violated")
        if doc["skip_reason"] is not None:
            problems.append(f"skipped: {doc['skip_reason']}")
        return Checked(problems, _digest(_pick(doc, VERIFY_FIELDS)))
    reports = json.loads(op.report.read_text())
    problems = []
    if doc["status"] != "pass":
        problems.append(f"bench status {doc['status']}")
    if doc["reports"] != CORPUS_SIZE or len(reports) != CORPUS_SIZE:
        problems.append(f"{doc['reports']} reports, {len(reports)} in the JSON file")
    greedy_s = sum(r["greedy_time_s"] or 0.0 for r in reports)
    fields = [_pick(r, REPORT_FIELDS) for r in reports]
    return Checked(problems, _digest(fields), keep=reports, reported_greedy_s=greedy_s)


def check_once(md, op: Op, checked: Checked, seed: int) -> tuple[list[str], str]:
    """Expensive checks run once per run on the first pass's outputs: every
    greedy solution is valid and equals the reference replay.  Returns the
    problems and the text that joins the pass digest in the pinned digest."""
    if op.kind == "verify":
        return [], ""
    if op.kind == "solve":
        if list(op.graph.fingerprint()) != [checked.keep[f] for f in ("n", "m", "graph_digest")]:
            return ["trace belongs to another graph"], ""
        solutions = [(op.graph, md.solution_from_dict(checked.keep, op.graph.fingerprint()))]
    else:
        solutions = []
        by_key = {(r["instance_id"], r["mode"], r["k"]): r for r in checked.keep}
        for item in corpus_document(md, seed):
            spec = md.FamilySpec(**item["spec"])
            mode = md.Mode(item["mode"])
            report = by_key.get((spec.instance_id(), mode.value, item["k"]))
            g = md.generate(spec)
            try:
                sol = md.solve(g, mode, item["k"])
            except md.KOutOfRangeError:
                if report is None or report["skip_reason"] is None:
                    return [f"{spec.instance_id()} {mode.value} k={item['k']}: unexpected skip"], ""
                continue
            if report is None or report["greedy_size"] != sol.size:
                return [f"{spec.instance_id()} {mode.value} k={item['k']}: greedy size mismatch"], ""
            solutions.append((g, sol))
    problems = []
    for g, sol in solutions:
        if not md.is_valid_solution(g, sol):
            problems.append(f"invalid {sol.mode.value} k={sol.k} solution")
        if not md.verify_greedy_optimality(g, sol):
            problems.append(f"{sol.mode.value} k={sol.k} solution differs from the replay")
    return problems, _digest([list(sol.chosen) for _, sol in solutions])


def pinned_digest(pass_digest: str, extra: str) -> str:
    return hashlib.sha256(f"{pass_digest}:{extra}".encode()).hexdigest()


def _pick(doc: dict, fields: tuple[str, ...]) -> dict:
    return {f: doc.get(f) for f in fields}


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
