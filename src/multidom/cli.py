"""Command-line interface.

Subcommands: gen (emit a generated graph), solve (greedy), exact (oracle),
verify (greedy + ledger checks + oracle + bound on one instance), bench
(corpus run with CSV/JSON reports), selfcheck (instance-independent checks).

Results go to stdout as JSON documents; graph output goes to --output or
stdout.  Exit status: 0 when everything requested passed, 1 when any check
failed or the reader of stdout exited before the output was written (then
nothing is printed), 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from .exact import DEFAULT_MAX_N, exact_minimum
from .generators import FAMILIES, FamilySpec, generate
from .graph import Graph
from .graphio import (
    FORMATS,
    parse_graph,
    write_graph,
    write_report_csv,
    write_report_json,
    write_trace,
    write_verify_json,
)
from .harness import (
    CorpusEntry,
    check_ratio_improvement,
    default_corpus,
    gap_witness_check,
    run_corpus,
    summarize,
    verify_instance,
)
from .ledger import check_harmonic_inequalities
from .solvers import Mode, check_multiplicity, solve

# FamilySpec's field names, and those a corpus spec must give (no default).
_SPEC_FIELDS = frozenset(f.name for f in dataclasses.fields(FamilySpec))
_SPEC_REQUIRED = tuple(
    f.name for f in dataclasses.fields(FamilySpec) if f.default is dataclasses.MISSING
)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; main may be called any number of times in one
    process.  The parser is built on the first call and reused, and each
    call looks its handler up by name, so a rebound _cmd_* is the one run.
    Nothing read from the input outlives the call."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "exact": _cmd_exact,
        "verify": _cmd_verify,
        "bench": _cmd_bench,
        "selfcheck": _cmd_selfcheck,
    }
    try:
        return handlers[args.command](args)
    except _ReaderGone:
        # No command of ours failed: say nothing, and send what is left in
        # the buffer to devnull, where the exit-time flush writes it.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:  # every error class of the package is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


class _ReaderGone(Exception):
    """The reader of stdout exited before the output was written."""


def _emit(text: str) -> None:
    """Write text to stdout and flush it, so that a reader that has exited
    is seen here, not at the exit-time flush after main has returned."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        raise _ReaderGone from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multidom",
        description="Greedy multiple-domination solvers with exact oracles and ledger checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a graph from a named family")
    p_gen.add_argument("--family", required=True, choices=FAMILIES)
    p_gen.add_argument("--n", type=int, help="vertex count (path/cycle/complete/star/erdos_renyi)")
    p_gen.add_argument("--a", type=int, help="first side size (complete_bipartite)")
    p_gen.add_argument("--b", type=int, help="second side size (complete_bipartite)")
    p_gen.add_argument("--p", type=float, help="edge probability (erdos_renyi)")
    p_gen.add_argument("--seed", type=int, help="RNG seed (erdos_renyi)")
    p_gen.add_argument("--k", type=int, help="witness parameter (gap_witness)")
    p_gen.add_argument("--format", default="dimacs", choices=FORMATS)
    p_gen.add_argument("--output", default="-", help="output path, - for stdout")

    for name, extra in (
        ("solve", "greedy-solve an instance"),
        ("exact", "exactly solve an instance"),
        ("verify", "run all checks on one instance"),
    ):
        p = sub.add_parser(name, help=extra)
        p.add_argument("input", help="graph file (dimacs or edgelist), - for stdin")
        p.add_argument("--mode", required=True, choices=[m.value for m in Mode])
        p.add_argument("--k", type=int, default=1)
        if name == "solve":
            p.add_argument("--trace", help="write the full iteration trace to this path")
        if name in ("exact", "verify"):
            p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)

    p_bench = sub.add_parser("bench", help="run a corpus and report ratios")
    p_bench.add_argument("--corpus", help="corpus JSON path (default: built-in corpus)")
    p_bench.add_argument("--csv", help="write the CSV report to this path")
    p_bench.add_argument("--json", help="write the JSON report to this path")
    p_bench.add_argument("--jobs", type=int, default=1, choices=(1,), help="only 1: one process")
    p_bench.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)

    sub.add_parser("selfcheck", help="instance-independent checks")
    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = FamilySpec(
        family=args.family, n=args.n, a=args.a, b=args.b, p=args.p, seed=args.seed, k=args.k
    )
    text = write_graph(generate(spec), args.format)
    if args.output == "-":
        _emit(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    sol = solve(g, Mode(args.mode), args.k)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(write_trace(sol))
    _emit(
        json.dumps(
            {
                "mode": sol.mode,
                "k": sol.k,
                "size": sol.size,
                "chosen": list(sol.chosen),
                "trivial": sol.trivial,
            }
        )
        + "\n"
    )
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    result = exact_minimum(g, Mode(args.mode), args.k, max_n=args.max_n)
    _emit(json.dumps(dataclasses.asdict(result)) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # A k that no graph admits is a usage error; a k-tuple k above this
    # graph's min_degree + 1 is a skipped instance.
    check_multiplicity(Mode(args.mode), args.k)
    g = _read_graph(args)
    report = verify_instance(g, Mode(args.mode), args.k, max_n=args.max_n)
    _emit(write_verify_json(report))
    passed = (
        report.skip_reason is None
        and report.ledger_checks_passed is True
        and report.bound_satisfied in (True, None)
    )
    return 0 if passed else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.corpus:
        with open(args.corpus) as fh:
            entries = _entries_from_json(json.load(fh))
    else:
        entries = default_corpus()
    reports = run_corpus(entries, max_n=args.max_n)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(write_report_csv(reports))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(write_report_json(reports))
    summary = summarize(reports)
    status = "pass" if summary.all_passed else "fail"
    _emit(json.dumps({**dataclasses.asdict(summary), "status": status}) + "\n")
    return 0 if summary.all_passed else 1


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    checks = {
        "harmonic_inequalities": check_harmonic_inequalities(1000),
        "ratio_improvement": check_ratio_improvement(1000),
    }
    gap_ok = True
    for k in range(2, 6):  # the witnesses k = 2..5
        g = generate(FamilySpec("gap_witness", k=k))
        gap_ok = gap_ok and gap_witness_check(g, k).holds
    checks["gap_witness"] = gap_ok
    status = all(checks.values())
    _emit(json.dumps({**checks, "status": "pass" if status else "fail"}) + "\n")
    return 0 if status else 1


def _read_graph(args: argparse.Namespace) -> Graph:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input) as fh:
            text = fh.read()
    return parse_graph(text)


def _entries_from_json(doc: object) -> list[CorpusEntry]:
    """Corpus document: a list of {"spec": {...FamilySpec fields...},
    "mode": "dom"|"ktuple"|"kdom", "k": int} objects.

    A spec must give family and no field that FamilySpec lacks, FamilySpec
    checks the spec's field types, and k must be an int (a bool is not
    one).  A k that no graph admits (solvers.check_multiplicity) is
    malformed; a k-tuple k above a graph's min_degree + 1 is a skipped
    entry.  Raises ValueError naming the entry index for a malformed
    document, an entry or a spec that is not a JSON object included."""
    if not isinstance(doc, list):
        raise ValueError(f"corpus document must be a JSON list, got {type(doc).__name__}")
    entries = []
    for i, item in enumerate(doc):
        if type(item) is not dict:
            raise ValueError(f"corpus entry {i} must be a JSON object, got {type(item).__name__}")
        try:
            if type(spec := item["spec"]) is not dict:
                raise ValueError(f"spec must be a JSON object, got {type(spec).__name__}")
            for name in spec:
                if name not in _SPEC_FIELDS:
                    raise ValueError(f"spec has unknown field {name!r}")
            for name in _SPEC_REQUIRED:
                if name not in spec:
                    raise ValueError(f"spec is missing field {name!r}")
            spec = FamilySpec(**spec)
            k = item.get("k", 1)
            if type(k) is not int:
                raise ValueError(f"k must be an integer, got {k!r}")
            mode = Mode(item["mode"])
            check_multiplicity(mode, k)
            entries.append(CorpusEntry(spec, mode, k))
        except KeyError as exc:
            raise ValueError(f"corpus entry {i}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"corpus entry {i}: {exc}") from None
    return entries


if __name__ == "__main__":
    sys.exit(main())
