"""Graph file formats and report serialization.

Two text formats; parse_graph reads an edgelist when the first non-blank
character is `#` or an ASCII digit, and dimacs otherwise:

* dimacs: `c` comment lines, one `p edge <n> <m>` header, then exactly m
  `e <u> <v>` lines with 1-based endpoints.  The canonical layout that
  write_dimacs emits (the header, then only `e` lines, single spaces, ASCII
  digits without leading zeros, every line ending in `\n`) is read in bulk:
  each chunk of about 8 KB of whole lines is checked by three C-level
  string tests (_canonical_ends), and its ids are read by one C-level scan
  (json.loads of the chunk with its `e` tags and spaces turned into commas)
  into one flat list of 0-based ids, which goes to Graph()'s bulk builder
  as pairs.  Any other layout, and any canonical-looking input that fails,
  goes to the line-by-line reader, which gives the same graph and is the
  only source of error messages.
* edgelist: `#` comment lines and `u v` pairs with 0-based endpoints.  The
  writer emits a leading `# n <n>` directive so isolated trailing vertices
  survive a round trip; the parser honors the directive, rejects a second
  one, and otherwise infers n as max id + 1.

The line readers take an integer only as ASCII `-?[0-9]+` (leading zeros
allowed); int() alone would also take `1_0`, `+1` and non-ASCII digits.
Parse errors carry the 1-based line number.  A vertex count outside
1..graph.MAX_VERTICES is reported at the dimacs `p` line or the edgelist
`# n` line, and a count from the largest id at the end.  An endpoint at or
past the count is reported at the first edge line that has one, in both
formats and wherever the `# n` line sits.  Writers emit edges sorted, one
adjacency row at a time (Graph.edge_text), so output is canonical:
parse(write(g)) == g for every graph.

Every JSON document (the solve trace, the verify report and the bench
report) is written as json.dumps(doc) plus a newline: json's C encoder,
default separators, one line, keys in the order the document is built.
The bench report is encoded one report at a time and joined with json's
own ", " item separator inside [...], so only one report dict is alive at
a time and the bytes equal json.dumps of the whole list.
"""

from __future__ import annotations

__all__ = [
    "FORMATS",
    "CSV_COLUMNS",
    "FormatError",
    "parse_graph",
    "write_graph",
    "parse_dimacs",
    "write_dimacs",
    "parse_edge_list",
    "write_edge_list",
    "solution_to_dict",
    "solution_from_dict",
    "write_trace",
    "report_to_dict",
    "write_report_csv",
    "write_report_json",
    "write_verify_json",
]

import contextlib
import csv
import io
import json
import re
import sys
from dataclasses import fields
from typing import Any, Iterable, Iterator

from .graph import Graph, GraphError, check_vertex_count
from .harness import RatioReport
from .solvers import IterationRecord, Mode, Solution

FORMATS = ("dimacs", "edgelist")

# RatioReport's fields in order; ledger_rows is not a column.
CSV_COLUMNS = tuple(f.name for f in fields(RatioReport) if f.name != "ledger_rows")


class FormatError(ValueError):
    """Parse error with a 1-based source line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_EDGELIST_HEAD = re.compile(r"\s*[#0-9]")  # \s is str.isspace, as in the readers' strip()


def parse_graph(text: str) -> Graph:
    """Read text as an edgelist when its first non-blank character is `#`
    or an ASCII digit, and as dimacs otherwise."""
    if _EDGELIST_HEAD.match(text):
        return parse_edge_list(text)
    return parse_dimacs(text)


def write_graph(g: Graph, fmt: str) -> str:
    if fmt == "dimacs":
        return write_dimacs(g)
    if fmt == "edgelist":
        return write_edge_list(g)
    raise ValueError(f"unknown format {fmt!r}; known: {', '.join(FORMATS)}")


# The canonical dimacs layout.  Endpoints are checked by Graph() and the
# e-line count at the end, not here.
_CANONICAL_HEADER = re.compile(r"p edge ([1-9][0-9]*) (0|[1-9][0-9]*)\n")
_NO_DIGITS = str.maketrans("", "", "0123456789")
# Characters per bulk chunk, which bounds how many ids are alive at once.
_CHUNK = 1 << 13


class _NotCanonical(ValueError):
    """The bulk reader met input outside the canonical layout."""


def parse_dimacs(text: str) -> Graph:
    head = _CANONICAL_HEADER.match(text)
    if head is not None:
        try:
            n, m = int(head[1]), int(head[2])
            check_vertex_count(n)  # before the id table is allocated
            return Graph(n, _Pairs(_canonical_ends(text, head.end(), n, m)))
        except (ValueError, IndexError):
            # _NotCanonical, a GraphError (range, self-loop, vertex cap), an
            # int over the digit limit, or an endpoint past n (IndexError):
            # the line reader finds the same graph or says what is wrong.
            pass
    return _parse_dimacs_lines(text)


def _canonical_ends(text: str, pos: int, n: int, m: int) -> list[int]:
    """The 0-based endpoints u1, v1, u2, v2, ... of the canonical body
    text[pos:], read one chunk of whole lines at a time.  Raise _NotCanonical
    on a chunk outside the layout or an e-line count other than m.

    A chunk of whole lines is `e <digits> <digits>\n` repeated when it
    starts with "e ", every other line also starts with "e " (one "\ne "
    per line break but the last), and deleting its digits leaves "e  \n"
    once per line.  json.loads then rejects an empty id or a leading zero,
    and an id of 0 (vertex -1) or past n fails in Graph() or the id table.
    The line-start tests keep out a line such as `5e3 3 4`: after a line
    `e 1 ` it would make the JSON text "[1,\n5e3,3,4]", with a float id."""
    if not text.endswith("\n"):  # digits after the last line break pass the tests
        raise _NotCanonical
    ids = list(range(-1, n))  # ids[u] == u - 1, one int object per vertex
    ends: list[int] = []
    size = len(text)
    while pos < size:
        end = text.find("\n", pos + _CHUNK) + 1 or size
        chunk = text[pos:end]
        lines = chunk.count("\n")
        if not (
            chunk.startswith("e ")
            and chunk.count("\ne ") == lines - 1
            and chunk.translate(_NO_DIGITS) == "e  \n" * lines
        ):
            raise _NotCanonical
        # "e 1 2\ne 3 4\n" -> "[1,2,3,4]": the checks admitted only digits
        # as ids, so one C-level scan reads every id of the chunk.
        ids_text = chunk[2:-1].replace("\ne ", ",").replace(" ", ",")
        ends += map(ids.__getitem__, json.loads("[" + ids_text + "]"))
        pos = end
    if len(ends) != 2 * m:
        raise _NotCanonical
    return ends


class _Pairs:
    """The (u, v) pairs of a flat endpoint list, iterable more than once, so
    Graph() needs no list of pair tuples to rescan."""

    def __init__(self, ends: list[int]):
        self.ends = ends

    def __iter__(self) -> Iterator[tuple[int, int]]:
        ends = iter(self.ends)
        return zip(ends, ends)


def _parse_dimacs_lines(text: str) -> Graph:
    n = None
    declared_m = None
    edges: list[tuple[int, int]] = []
    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise FormatError(line_no, "duplicate problem line")
            if len(fields) != 4 or fields[1] != "edge":
                raise FormatError(line_no, f"expected 'p edge <n> <m>', got {line!r}")
            n = _parse_int(fields[2], line_no, "vertex count")
            declared_m = _parse_int(fields[3], line_no, "edge count")
            try:
                check_vertex_count(n)
            except GraphError as exc:
                raise FormatError(line_no, str(exc)) from None
        elif fields[0] == "e":
            if n is None:
                raise FormatError(line_no, "edge before problem line")
            if len(fields) != 3:
                raise FormatError(line_no, f"expected 'e <u> <v>', got {line!r}")
            u = _parse_int(fields[1], line_no, "endpoint")
            v = _parse_int(fields[2], line_no, "endpoint")
            if not (1 <= u <= n and 1 <= v <= n):
                raise FormatError(line_no, f"endpoint outside 1..{n} in {line!r}")
            if u == v:
                raise FormatError(line_no, f"self-loop at {u}")
            edges.append((u - 1, v - 1))
        else:
            raise FormatError(line_no, f"unrecognized line {line!r}")
    if n is None:
        raise FormatError(len(lines) + 1, "missing problem line")
    if declared_m != len(edges):
        raise FormatError(
            len(lines) + 1, f"header declares {declared_m} edges but {len(edges)} e-lines found"
        )
    return _graph(n, edges, lines)


def _graph(n: int, edges: list[tuple[int, int]], lines: list[str]) -> Graph:
    """Graph(n, edges), with a GraphError reported at the line past lines."""
    try:
        return Graph(n, edges)
    except GraphError as exc:
        raise FormatError(len(lines) + 1, str(exc)) from exc


def write_dimacs(g: Graph) -> str:
    return f"p edge {g.n} {g.m}\n" + g.edge_text(1, "e ", " ", "\n")


def parse_edge_list(text: str) -> Graph:
    n = None
    edges: list[tuple[int, int]] = []
    max_id = -1
    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split()
            if len(fields) == 2 and fields[0] == "n":
                if n is not None:
                    raise FormatError(line_no, "duplicate n directive")
                try:
                    n = _int(fields[1])
                    check_vertex_count(n)
                except GraphError as exc:  # a ValueError too, so caught first
                    raise FormatError(line_no, str(exc)) from None
                except ValueError:
                    raise FormatError(line_no, f"bad n directive {line!r}") from None
            continue
        fields = line.split()
        if len(fields) != 2:
            raise FormatError(line_no, f"expected 'u v', got {line!r}")
        u = _parse_int(fields[0], line_no, "endpoint")
        v = _parse_int(fields[1], line_no, "endpoint")
        if u < 0 or v < 0:
            raise FormatError(line_no, f"negative endpoint in {line!r}")
        if u == v:
            raise FormatError(line_no, f"self-loop at {u}")
        edges.append((u, v))
        max_id = max(max_id, u, v)
    if n is None:
        if max_id < 0:
            raise FormatError(1, "cannot infer vertex count from an empty edge list")
        n = max_id + 1
    elif max_id >= n:  # the first edge past the count, wherever the directive sits
        for line_no, raw in enumerate(lines, start=1):
            line = raw.strip()
            if line[:1] not in ("", "#") and max(map(int, line.split())) >= n:
                raise FormatError(line_no, f"endpoint outside 0..{n - 1} in {line!r}")
    return _graph(n, edges, lines)


def write_edge_list(g: Graph) -> str:
    return f"# n {g.n}\n" + g.edge_text(0, "", " ", "\n")


# -- structured documents ----------------------------------------------------


def solution_to_dict(sol: Solution) -> dict:
    n, m, digest = sol.graph_fingerprint
    return {
        "mode": sol.mode,
        "k": sol.k,
        "n": n,
        "m": m,
        "graph_digest": digest,
        "trivial": sol.trivial,
        "chosen": list(sol.chosen),
        "iterations": [
            {
                "index": rec.index,
                "vertex": rec.vertex,
                "score": rec.score,
                "newly_covered": list(rec.newly_covered),
                "tokens_placed": {str(v): c for v, c in sorted(rec.tokens_placed.items())},
                "covered_after": rec.covered_after,
            }
            for rec in sol.iterations
        ],
    }


def solution_from_dict(doc: dict, fingerprint: tuple[int, int, str]) -> Solution:
    """The Solution of a trace document as solution_to_dict writes it.

    Every field must be present with the JSON type its _TRACE_* table names
    (a bool is not an int), and every tokens_placed key must be the decimal
    text of an int, str(int(key)) == key, so that no two keys name one
    vertex; anything else raises ValueError naming the iteration and the
    field.  The document's (n, m, graph_digest) must be fingerprint, the
    graph the trace is read for, or ValueError names both triples."""
    if type(doc) is not dict:
        raise ValueError(f"trace document must be a JSON object, got {type(doc).__name__}")
    found = tuple(_trace_fields(doc, _TRACE_HEAD).values())
    if found != fingerprint:
        raise ValueError(f"trace is for (n, m, graph_digest) = {found}, not {fingerprint}")
    fields = _trace_fields(doc, _TRACE_BODY)
    fields["mode"] = Mode(fields["mode"])
    return Solution(**fields, graph_fingerprint=fingerprint)


# A trace's fields and their exact JSON types, one table per level, each in
# check order.  Lists hold ints, but iterations holds _TRACE_RECORD objects.
_TRACE_HEAD = {"n": int, "m": int, "graph_digest": str}
_TRACE_BODY = {"iterations": list, "mode": str, "k": int, "chosen": list, "trivial": bool}
_TRACE_RECORD = {"tokens_placed": dict, "index": int, "vertex": int, "score": int,
                 "newly_covered": list, "covered_after": int}
_JSON_TYPE_NAMES = {int: "an integer", bool: "a boolean", str: "a string", list: "a list",
                    dict: "an object"}


def _trace_fields(doc: dict, table: dict[str, type], at: str = "") -> dict[str, Any]:
    """The value of each field of table in doc, which must be present and of
    its type exactly, checked in table order: iterations as a tuple of
    IterationRecords, any other list as a tuple of ints and tokens_placed as
    an {int: int} dict.  Every message starts with at."""
    values = {}
    for key, kind in table.items():
        if key not in doc:
            raise ValueError(f"{at}missing field {key!r}")
        value = _typed(doc[key], kind, at + key)
        if key == "iterations":
            value = tuple(IterationRecord(**_trace_fields(_typed(rec, dict, f"iteration {i}"),
                                                          _TRACE_RECORD, f"iteration {i}: "))
                          for i, rec in enumerate(value, 1))
        elif kind is list:
            value = tuple(_typed(entry, int, f"{at}{key} entry") for entry in value)
        elif kind is dict:
            value = {_vertex_key(text, at): _typed(count, int, f"{at}{key}[{text!r}]")
                     for text, count in value.items()}
        values[key] = value
    return values


def _typed(value: Any, kind: type, name: str) -> Any:
    if type(value) is not kind:
        raise ValueError(f"{name} must be {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _vertex_key(text: str, at: str) -> int:
    try:
        if str(v := int(text)) == text:
            return v
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{at}tokens_placed key {text!r} is not the decimal text of an integer")


def write_trace(sol: Solution) -> str:
    return json.dumps(solution_to_dict(sol)) + "\n"


def report_to_dict(report: RatioReport) -> dict:
    return {col: getattr(report, col) for col in CSV_COLUMNS}


def write_report_csv(reports: Iterable[RatioReport]) -> str:
    """Render reports as CSV in the documented column order.

    Floats (ratios, bounds, times) use 6 decimal places; None is empty.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([_cell(getattr(report, col)) for col in CSV_COLUMNS] for report in reports)
    return buf.getvalue()


def write_report_json(reports: Iterable[RatioReport]) -> str:
    return "[" + ", ".join(json.dumps(report_to_dict(r)) for r in reports) + "]\n"


def write_verify_json(report: RatioReport) -> str:
    """The document `multidom verify` prints.

    It holds the report's columns without the *_time_s ones, so the output
    of equal runs is byte-identical, with instance_id written as instance.
    Unless the report is a skip, a "ledger" list follows with one
    {"vertex", "lhs", "bound"} row per vertex, each fraction as "p/q" in
    full, however many digits it has."""
    doc = {
        "instance" if col == "instance_id" else col: value
        for col, value in report_to_dict(report).items()
        if not col.endswith("_time_s")
    }
    if report.skip_reason is None:
        with _any_int_digits():
            doc["ledger"] = [
                {"vertex": w, "lhs": f"{lhs.numerator}/{lhs.denominator}",
                 "bound": f"{bound.numerator}/{bound.denominator}"}
                for w, (lhs, bound) in enumerate(report.ledger_rows)
            ]
    return json.dumps(doc) + "\n"


@contextlib.contextmanager
def _any_int_digits() -> Iterator[None]:
    """Lift the interpreter's limit on int-to-decimal digits while inside, so
    that a bound such as H(10500), whose denominator has more than 4300
    digits, renders; the old limit comes back on exit.  Python releases
    without sys.set_int_max_str_digits have no limit to lift."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    old = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return _int(token)
    except ValueError:
        raise FormatError(line_no, f"bad {what} {token!r}") from None


def _int(token: str) -> int:
    """int(token) for a token of the form ASCII -?[0-9]+; any other token
    raises ValueError, as int() does for more digits than it converts.
    isdigit() alone would also take non-ASCII digits."""
    if not (token.isdigit() and token.isascii()) and not (
        token[:1] == "-" and token[1:].isdigit() and token.isascii()
    ):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)
