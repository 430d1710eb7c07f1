import csv
import io
import json
import re
import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from multidom import (
    CSV_COLUMNS,
    MAX_VERTICES,
    FamilySpec,
    FormatError,
    Graph,
    Mode,
    RatioReport,
    Solution,
    generate,
    parse_dimacs,
    parse_edge_list,
    parse_graph,
    report_to_dict,
    solution_from_dict,
    solution_to_dict,
    solve,
    write_dimacs,
    write_edge_list,
    write_graph,
    write_report_csv,
    write_report_json,
    write_trace,
)
from multidom import graphio
from conftest import edges, graphs, ref_write_dimacs, ref_write_edge_list


P4_DIMACS = "c a path\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"


def test_parse_dimacs_basic():
    g = parse_dimacs(P4_DIMACS)
    assert (g.n, g.m) == (4, 3)
    assert tuple(edges(g)) == ((0, 1), (1, 2), (2, 3))


def test_dimacs_round_trip():
    g = generate(FamilySpec("erdos_renyi", n=10, p=0.4, seed=5))
    assert parse_dimacs(write_dimacs(g)) == g


def test_dimacs_preserves_isolated_vertices():
    g = Graph(6, [(0, 1)])
    assert parse_dimacs(write_dimacs(g)) == g


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("p edge 3 0\np edge 3 0\n", 2),
        ("e 1 2\n", 1),
        ("p edge 3 1\ne 1\n", 2),
        ("p edge 3 1\ne 1 9\n", 2),
        ("p edge 3 1\ne 2 2\n", 2),
        ("p edge 3 1\nq 1 2\n", 2),
        ("p edge x 1\n", 1),
        ("p grid 3 1\n", 1),
        ("c only a comment\n", 2),  # missing problem line
        ("p edge 3 2\ne 1 2\n", 3),  # header mismatch
        # Canonical layout, so the bulk reader meets each of these first;
        # the two self-loop and range cases above are canonical too.
        ("p edge 3 1\ne 1 4\n", 2),
        ("p edge 3 1\ne 0 2\n", 2),
        ("p edge 3 1\ne 1 2\ne 2 3\n", 4),
        ("p edge 3 3\ne 1 2\ne 3 1", 4),  # no final newline, then a count mismatch
        ("p edge 2 1\ne 1 2\n3", 3),  # digits after the last line break
        ("p edge 9 2\ne 1 2\n5e3 3 4\n", 3),  # digits before an e tag
        ("p edge 9 2\ne 1 \n5e3 3 4\n", 2),  # the same after an empty id: [1,\n5e3,3,4]
        ("p edge 3 1\ne1 2\n", 2),  # a tag glued to its id
        ("p edge 3 1000000000000\ne 1 2\n", 3),  # m far beyond the body
        (f"p edge {MAX_VERTICES + 1} 0\n", 1),
        ("p edge " + "9" * 5000 + " 0\n", 1),
        (f"c big\np edge {MAX_VERTICES + 1} 0\ne 1 2\n", 2),
        ("p edge 0 0\n", 1),  # no vertices
        ("c none\np edge 0 0\ne 1 2\n", 2),
    ],
)
def test_dimacs_errors_carry_line_numbers(text, line_no):
    with pytest.raises(FormatError) as exc_info:
        parse_dimacs(text)
    assert exc_info.value.line_no == line_no
    assert f"line {line_no}:" in str(exc_info.value)


def test_dimacs_header_m_sizes_no_allocation():
    # m is only compared with the e-line count at the end, so a header far
    # beyond its body costs what the body costs.
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="line 3: header declares 1000000000000 edges"):
            parse_dimacs("p edge 3 1000000000000\ne 1 2\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_canonical_dimacs_is_read_in_bulk(monkeypatch):
    # Several bulk chunks, and ids past the interpreter's small-int cache;
    # the line reader must not run.
    g = generate(FamilySpec("erdos_renyi", n=300, p=0.1, seed=2))
    text = write_dimacs(g)
    assert len(text) > 3 * graphio._CHUNK

    def fail(text):
        raise AssertionError("canonical input reached the line reader")

    monkeypatch.setattr(graphio, "_parse_dimacs_lines", fail)
    parsed = parse_dimacs(text)
    assert parsed == g
    # Every endpoint comes from one id table: one int object per vertex.
    assert len({id(v) for row in parsed.adjacency for v in row}) == g.n


def _lines_mutation(lines, n, draw):
    """Apply one drawn mutation to the lines of a canonical dimacs text
    (no line ends); return the new text."""
    kind = draw(st.sampled_from((
        "comment", "blank", "crlf", "double_space", "leading_zero", "no_final_newline",
        "trailing_digits", "duplicate_edge", "id_zero", "id_past_n", "self_loop", "wrong_m",
        "huge_m", "huge_int", "digits_before_tag", "glued_tag", "reversed_edge", "shuffle",
    )))
    at = draw(st.integers(1, len(lines)))  # a line index after the header
    e_lines = [i for i in range(1, len(lines)) if re.fullmatch(r"e \S+ \S+", lines[i])]
    if kind == "comment":
        lines.insert(at, "c a comment")
    elif kind == "blank":
        lines.insert(at, "")
    elif kind == "crlf":
        return "\r\n".join(lines) + "\r\n"
    elif kind == "double_space":
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = lines[i].replace(" ", "  ")
    elif kind == "no_final_newline":
        return "\n".join(lines)
    elif kind == "trailing_digits":  # a last line of digits only, with no line break
        return "\n".join(lines) + "\n" + str(draw(st.integers(1, n)))
    elif kind == "duplicate_edge" and e_lines:
        lines.insert(at, lines[draw(st.sampled_from(e_lines))])
    elif kind == "huge_int" and draw(st.booleans()):
        fields = lines[0].split()
        fields[draw(st.sampled_from((2, 3)))] = "9" * draw(st.sampled_from((30, 5000)))
        lines[0] = " ".join(fields)
    elif kind in ("wrong_m", "huge_m") and len(lines[0]) < 40:  # not after a huge_int header
        fields = lines[0].split()
        if kind == "wrong_m":
            fields[3] = str(int(fields[3]) + draw(st.sampled_from((-1, 1))))
        else:  # the bulk reader must not size anything by m
            fields[3] = str(10**12)
        lines[0] = " ".join(fields)
    elif kind == "digits_before_tag":
        # `5e3 3 4`: json would read 5e3 as a float if it followed a comma,
        # as it does after a line whose last id is empty (`e 1 `).
        if e_lines and draw(st.booleans()):
            i = draw(st.sampled_from(e_lines))
            lines[i] = lines[i].rsplit(" ", 1)[0] + " "
            at = i + 1
        b, c, d = (draw(st.integers(1, n)) for _ in range(3))
        lines.insert(at, f"{draw(st.integers(0, 9))}e{b} {c} {d}")
    elif kind == "glued_tag" and e_lines:  # `e1 2`
        i = draw(st.sampled_from(e_lines))
        lines[i] = "e" + lines[i][2:]
    elif kind in ("leading_zero", "id_zero", "id_past_n", "huge_int") and e_lines:
        i = draw(st.sampled_from(e_lines))
        fields = lines[i].split()
        end = draw(st.sampled_from((1, 2)))
        fields[end] = {
            "leading_zero": "0" + fields[end],
            "id_zero": "0",
            "id_past_n": str(n + 1),
            "huge_int": "9" * draw(st.sampled_from((30, 5000))),
        }[kind]
        lines[i] = " ".join(fields)
    elif kind == "self_loop":
        lines.insert(at, f"e {draw(st.integers(1, n))} {draw(st.integers(1, n))}")
    # These two keep the canonical layout but leave rows out of order.
    elif kind == "reversed_edge" and e_lines:
        i = draw(st.sampled_from(e_lines))
        fields = lines[i].split()
        lines[i] = " ".join(fields[:1] + fields[:0:-1])
    elif kind == "shuffle":
        lines[1:] = draw(st.permutations(lines[1:]))
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return (exc.line_no, str(exc))


@st.composite
def _mutated_dimacs(draw):
    """A canonical dimacs text with up to three _lines_mutation()s applied."""
    g = draw(graphs(max_n=12))
    text = write_dimacs(g)
    for _ in range(draw(st.integers(0, 3))):
        text = _lines_mutation(text.rstrip("\n").split("\n"), g.n, draw)
    return text


@settings(deadline=None, max_examples=300)
@given(_mutated_dimacs(), st.sampled_from((8, 64, graphio._CHUNK)))
@example("p edge 9 2\ne 1 2\n5e3 3 4\n", graphio._CHUNK)
@example("p edge 9 2\ne 1 \n5e3 3 4\n", graphio._CHUNK)
def test_bulk_dimacs_matches_line_reader(text, chunk):
    expected = _outcome(graphio._parse_dimacs_lines, text)
    # Small chunks put chunk edges inside these small graphs.
    with mock.patch.object(graphio, "_CHUNK", chunk):
        assert _outcome(parse_dimacs, text) == expected


@settings(deadline=None, max_examples=100)
@given(graphs(max_n=12))
@example(Graph(1))
@example(Graph(5, [(3, 4)]))  # isolated vertices, and 4 has no higher neighbour
def test_writers_match_per_edge_references(g):
    assert write_dimacs(g) == ref_write_dimacs(g)
    assert write_edge_list(g) == ref_write_edge_list(g)


def test_writers_match_per_edge_references_on_erdos_renyi():
    for n, p in ((40, 0.0), (40, 1.0), (400, 0.25)):
        g = generate(FamilySpec("erdos_renyi", n=n, p=p, seed=1))
        assert write_dimacs(g) == ref_write_dimacs(g)
        assert write_edge_list(g) == ref_write_edge_list(g)


def test_parse_edge_list_basic():
    g = parse_edge_list("# comment\n0 1\n1 2\n")
    assert (g.n, g.m) == (3, 2)
    assert parse_edge_list("# n 3\n\n0 1\n\n") == Graph(3, [(0, 1)])  # blank lines skipped


def test_edge_list_n_directive_and_override():
    # The "# n" directive overrides the vertex count inferred from the ids.
    assert parse_edge_list("# n 6\n0 1\n").n == 6
    assert parse_edge_list("0 1\n").n == 2  # inferred as max id + 1


def test_edge_list_round_trip_keeps_isolated_vertices():
    g = generate(FamilySpec("erdos_renyi", n=8, p=0.2, seed=0))
    text = write_edge_list(g)
    assert text.startswith(f"# n {g.n}\n")
    assert parse_edge_list(text) == g


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("0 1 2\n", 1),
        ("0 x\n", 1),
        ("0 0\n", 1),
        ("-1 2\n", 1),
        ("# n x\n0 1\n", 1),
        ("# just a comment\n", 1),  # nothing to infer n from
        # A vertex count is reported at its directive; an inferred one at
        # the end of the text.
        ("# n 0\n0 1\n", 1),
        ("# graph\n# n -3\n", 2),
        (f"# n {MAX_VERTICES + 1}\n0 1\n", 1),
        (f"0 1\n0 {MAX_VERTICES}\n", 3),
    ],
)
def test_edge_list_errors_carry_line_numbers(text, line_no):
    with pytest.raises(FormatError) as exc_info:
        parse_edge_list(text)
    assert exc_info.value.line_no == line_no


@pytest.mark.parametrize(
    "text",
    [f"# n {MAX_VERTICES + 1}\n0 1\n", f"0 {MAX_VERTICES}\n"],
    ids=["directive", "inferred"],
)
def test_edge_list_vertex_cap(text):
    with pytest.raises(FormatError, match=f"exceed the cap of {MAX_VERTICES}"):
        parse_edge_list(text)


def test_edge_list_rejects_a_second_n_directive():
    # A later directive is not a comment: it would silently lose to the first.
    with pytest.raises(FormatError, match="^line 2: duplicate n directive$"):
        parse_edge_list(f"# n 3\n# n {MAX_VERTICES + 1}\n0 1\n")
    with pytest.raises(FormatError, match="^line 3: duplicate n directive$"):
        parse_edge_list("# n 3\n0 1\n# n 3\n")


@pytest.mark.parametrize(
    "parse,text,message",
    [
        (parse_dimacs, "p edge 12 1\ne 1_0 2\n", "line 2: bad endpoint '1_0'"),
        (parse_dimacs, "p edge 3 1\ne +1 2\n", "line 2: bad endpoint '+1'"),
        (parse_dimacs, "p edge 3 1\ne \u0661 2\n", "line 2: bad endpoint '\u0661'"),
        (parse_dimacs, "p edge +3 0\n", "line 1: bad vertex count '+3'"),
        (parse_dimacs, "p edge 3 0_0\n", "line 1: bad edge count '0_0'"),
        (parse_edge_list, "# n 1_2\n0 1\n", "line 1: bad n directive '# n 1_2'"),
        (parse_edge_list, "# n +3\n0 1\n", "line 1: bad n directive '# n +3'"),
        (parse_edge_list, "0 1_0\n", "line 1: bad endpoint '1_0'"),
        (parse_edge_list, "0 \u0663\n", "line 1: bad endpoint '\u0663'"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_line_readers_take_only_ascii_digits(parse, text, message):
    # int() alone takes underscores, a plus sign and any Unicode digit.
    with pytest.raises(FormatError) as exc_info:
        parse(text)
    assert str(exc_info.value) == message


def test_line_readers_keep_leading_zeros():
    assert parse_dimacs("p edge 03 01\ne 001 3\n") == Graph(3, [(0, 2)])
    assert parse_edge_list("# n 05\n00 01\n") == Graph(5, [(0, 1)])


@given(st.text(alphabet="-+_ 07\u0661\u00b2\uff13", max_size=5))
def test_int_token_matches_the_ascii_pattern(token):
    # graphio._int tests str methods, not this regex; they must agree.
    if re.fullmatch(r"-?[0-9]+", token):
        assert graphio._int(token) == int(token)
    else:
        with pytest.raises(ValueError):
            graphio._int(token)


def test_edge_list_rejects_ids_beyond_declared_n():
    with pytest.raises(FormatError) as exc_info:
        parse_edge_list("# n 2\n0 5\n")
    assert exc_info.value.line_no == 2
    assert str(exc_info.value) == "line 2: endpoint outside 0..1 in '0 5'"


def test_edge_list_names_the_first_edge_past_a_later_count():
    # The directive may come after the edges; the first bad edge's own line
    # is named, as the dimacs reader names `e 1 5` in 1..3.
    with pytest.raises(FormatError) as exc_info:
        parse_edge_list("0 1\n 4  2 \n3 0\n# n 3\n")
    assert str(exc_info.value) == "line 2: endpoint outside 0..2 in '4  2'"


def test_format_dispatch():
    g = Graph(3, [(0, 1)])
    for fmt in ("dimacs", "edgelist"):
        assert parse_graph(write_graph(g, fmt)) == g
    with pytest.raises(ValueError):
        write_graph(g, "gml")
    with pytest.raises(TypeError):  # the text names its own format
        parse_graph(write_dimacs(g), "dimacs")


def _read(parse, text):
    """parse(text), or the text of the ValueError it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


@settings(deadline=None, max_examples=300)
@given(
    st.text(alphabet=" \t\r\n\x0b\u2028#09-cpen\u0663", max_size=12),
    graphs(max_n=6),
    st.sampled_from((None, "dimacs", "edgelist")),
)
@example("", Graph(1), None)
@example(" \n\t", Graph(1), None)
@example("\u2028\n", Graph(2, [(0, 1)]), "edgelist")
@example("0 1\n", Graph(1), None)
@example("\u0663 1\n", Graph(1), None)
@example("-1 2\n", Graph(1), None)
def test_parse_graph_reads_the_format_its_head_names(head, g, fmt):
    # An edgelist when the first non-blank character is `#` or an ASCII
    # digit, dimacs otherwise: the same graph or the same error text.
    text = head + (write_graph(g, fmt) if fmt else "")
    first = text.lstrip()[:1]
    reader = parse_edge_list if first in tuple("#0123456789") else parse_dimacs
    assert _read(parse_graph, text) == _read(reader, text)
    if fmt:
        assert parse_graph(write_graph(g, fmt)) == g


@settings(deadline=None, max_examples=50)
@given(graphs(max_n=12))
def test_round_trip_property(g):
    assert parse_dimacs(write_dimacs(g)) == g
    assert parse_edge_list(write_edge_list(g)) == g


def test_solution_dict_round_trip():
    g = generate(FamilySpec("star", n=8))
    sol = solve(g, Mode.KDOM, 2)
    doc = json.loads(json.dumps(solution_to_dict(sol)))
    restored = solution_from_dict(doc, g.fingerprint())
    assert restored == sol
    assert doc["graph_digest"] == g.fingerprint()[2]
    assert doc["mode"] == "kdom"


@pytest.mark.parametrize("mode,k", [(Mode.DOM, 1), (Mode.KTUPLE, 2), (Mode.KDOM, 2)])
def test_an_indent_2_trace_still_reads_back(mode, k):
    # Traces written before the compact style are indent=2 JSON of the same
    # document, so trace files already on disk keep loading.
    g = generate(FamilySpec("cycle", n=12))
    sol = solve(g, mode, k)
    doc = json.loads(json.dumps(solution_to_dict(sol), indent=2) + "\n")
    assert doc == json.loads(write_trace(sol))
    assert solution_from_dict(doc, g.fingerprint()) == sol


def test_trace_lists_tokens_in_vertex_order():
    # A k-domination record lists tokens_placed by vertex number: not chosen
    # vertex first, and 9 before 10.
    sol = solve(generate(FamilySpec("cycle", n=12)), Mode.KDOM, 2)
    keys = [list(rec.tokens_placed) for rec in sol.iterations]
    assert any(rec.vertex != min(rec.tokens_placed) for rec in sol.iterations)
    assert [9, 10] in [sorted(ks)[i:i + 2] for ks in keys for i in range(len(ks))]
    written = json.loads(write_trace(sol))["iterations"]
    assert [list(rec["tokens_placed"]) for rec in written] == [
        [str(v) for v in sorted(ks)] for ks in keys
    ]


def _c6_kdom_trace():
    g = generate(FamilySpec("cycle", n=6))
    doc = json.loads(write_trace(solve(g, Mode.KDOM, 2)))
    assert doc["iterations"][0]["vertex"] == 0 and "0" in doc["iterations"][0]["tokens_placed"]
    return g, doc


def _parent(doc, path):
    """The list or object in doc that holds the item at path."""
    for step in path[:-1]:
        doc = doc[step]
    return doc


@pytest.mark.parametrize("key", ["+0", " 0", "00", "0 "])
def test_solution_from_dict_rejects_token_keys_that_alias_a_vertex(key):
    # int() reads each of these as vertex 0; only "0" is its decimal text.
    g, doc = _c6_kdom_trace()
    tokens = doc["iterations"][0]["tokens_placed"]
    tokens[key] = tokens.pop("0")
    with pytest.raises(ValueError, match=re.escape(f"iteration 1: tokens_placed key {key!r}")):
        solution_from_dict(doc, g.fingerprint())


@pytest.mark.parametrize("vertex", [0.0, "0"])
def test_solution_from_dict_rejects_a_vertex_that_is_not_an_int(vertex):
    g, doc = _c6_kdom_trace()
    doc["iterations"][1]["vertex"] = vertex
    message = f"iteration 2: vertex must be an integer, got {vertex!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        solution_from_dict(doc, g.fingerprint())


@pytest.mark.parametrize(
    "path,message",
    [
        (("iterations", 0, "vertex"), "iteration 1: vertex"),
        (("k",), "k"),
        (("chosen", 0), "chosen entry"),
        (("iterations", 2, "index"), "iteration 3: index"),
        (("iterations", 0, "score"), "iteration 1: score"),
        (("iterations", 0, "newly_covered", 0), "iteration 1: newly_covered entry"),
        (("iterations", 0, "tokens_placed", "1"), "iteration 1: tokens_placed['1']"),
        (("iterations", 0, "covered_after"), "iteration 1: covered_after"),
        (("n",), "n"),
        (("m",), "m"),
    ],
)
def test_solution_from_dict_rejects_bools_in_integer_fields(path, message):
    # json.loads gives False for false, and False == 0: it would read as vertex 0.
    g, doc = _c6_kdom_trace()
    _parent(doc, path)[path[-1]] = False
    with pytest.raises(ValueError, match=re.escape(f"{message} must be an integer, got False")):
        solution_from_dict(doc, g.fingerprint())


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("chosen",), 5, "chosen must be a list, got 5"),
        (("iterations",), {"a": 1}, "iterations must be a list, got {'a': 1}"),
        (("iterations",), [1], "iteration 1 must be an object, got 1"),
        (("iterations", 0, "newly_covered"), 3, "iteration 1: newly_covered must be a list, got 3"),
        (("iterations", 1, "tokens_placed"), [], "iteration 2: tokens_placed must be an object, got []"),
        (("mode",), ["kdom"], "mode must be a string, got ['kdom']"),
        (("graph_digest",), 0, "graph_digest must be a string, got 0"),
    ],
)
def test_solution_from_dict_rejects_fields_of_the_wrong_type(path, value, message):
    g, doc = _c6_kdom_trace()
    _parent(doc, path)[path[-1]] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        solution_from_dict(doc, g.fingerprint())


@pytest.mark.parametrize(
    "path,message",
    [
        (("k",), "missing field 'k'"),
        (("iterations", 2, "score"), "iteration 3: missing field 'score'"),
        (("n",), "missing field 'n'"),
        (("m",), "missing field 'm'"),
        (("graph_digest",), "missing field 'graph_digest'"),
    ],
)
def test_solution_from_dict_rejects_a_missing_field(path, message):
    g, doc = _c6_kdom_trace()
    del _parent(doc, path)[path[-1]]
    with pytest.raises(ValueError, match=re.escape(message)):
        solution_from_dict(doc, g.fingerprint())


def test_solution_from_dict_rejects_a_trace_of_another_graph():
    # Read with path(6)'s fingerprint, a cycle(6) trace would otherwise fail
    # later, in the ledger replay, with a score mismatch.
    g, doc = _c6_kdom_trace()
    path6 = generate(FamilySpec("path", n=6))
    message = f"trace is for (n, m, graph_digest) = {g.fingerprint()}, not {path6.fingerprint()}"
    with pytest.raises(ValueError, match=re.escape(message)):
        solution_from_dict(doc, path6.fingerprint())


@pytest.mark.parametrize("doc", ["n", ["n"], 5, None, True])
def test_solution_from_dict_rejects_a_document_that_is_not_an_object(doc):
    # A string or list would otherwise fail on `"n" in doc`'s lookup as a TypeError.
    g = generate(FamilySpec("cycle", n=6))
    message = f"trace document must be a JSON object, got {type(doc).__name__}"
    with pytest.raises(ValueError, match=re.escape(message)):
        solution_from_dict(doc, g.fingerprint())


def test_solution_from_dict_requires_trivial_to_be_a_bool():
    # On a trivial instance 1 == True, so only the type tells them apart.
    g = generate(FamilySpec("path", n=3))
    doc = json.loads(write_trace(solve(g, Mode.KDOM, 3)))
    assert doc["trivial"] is True
    doc["trivial"] = 1
    with pytest.raises(ValueError, match=re.escape("trivial must be a boolean, got 1")):
        solution_from_dict(doc, g.fingerprint())


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@given(st.data(), _JSON_VALUES)
def test_solution_from_dict_returns_a_solution_or_raises_value_error(data, value):
    # Any JSON value in any one place of a valid trace.
    g, doc = _c6_kdom_trace()
    slots = [(doc, key) for key in doc] + [(doc["chosen"], 0), (doc["iterations"], 1)]
    for rec in doc["iterations"]:
        slots += [(rec, key) for key in rec] + [(rec["tokens_placed"], key) for key in rec["tokens_placed"]]
        slots += [(rec["newly_covered"], i) for i in range(len(rec["newly_covered"]))]
    target, key = data.draw(st.sampled_from(slots))
    target[key] = value
    try:
        sol = solution_from_dict(doc, g.fingerprint())
    except ValueError:
        return
    assert isinstance(sol, Solution)


def test_mode_renders_as_its_value():
    assert json.dumps(Mode.KDOM) == '"kdom"'
    assert json.dumps({"mode": Mode.DOM}) == '{"mode": "dom"}'
    assert [str(m) for m in Mode] == [f"{m}" for m in Mode] == ["dom", "ktuple", "kdom"]
    assert Mode("ktuple") is Mode.KTUPLE and Mode.KTUPLE.value == "ktuple"
    assert Mode.DOM == "dom"


def _sample_reports():
    base = dict(
        instance_id="cycle-n8", family="cycle", seed=None, n=8, m=8,
        max_degree=2, min_degree=2, mode=Mode.DOM, k=1,
    )
    full = RatioReport(
        **base, greedy_size=3, exact_size=3, ratio=1.0, bound=2.0986122886681098,
        bound_satisfied=True, ledger_checks_passed=True,
        greedy_time_s=0.001, exact_time_s=0.002, nodes_explored=5, greedy_iterations=3,
        ledger_time_s=0.004,
    )
    skip = RatioReport(
        instance_id="star-n8", family="star", seed=None, n=8, m=7,
        max_degree=7, min_degree=1, mode=Mode.KTUPLE, k=3,
        skip_reason="k out of range",
    )
    return [full, skip]


# The documented CSV header (README.md); CSV_COLUMNS is derived from
# RatioReport's fields, so this pins the field order.
DOCUMENTED_HEADER = (
    "instance_id,family,seed,n,m,max_degree,min_degree,mode,k,greedy_size,exact_size,"
    "ratio,bound,bound_satisfied,ledger_checks_passed,trivial,skip_reason,greedy_time_s,"
    "exact_time_s,nodes_explored,greedy_iterations,ledger_time_s"
)


def test_csv_golden():
    text = write_report_csv(_sample_reports())
    assert text.splitlines()[0] == DOCUMENTED_HEADER
    assert ",".join(CSV_COLUMNS) == DOCUMENTED_HEADER
    rows = list(csv.reader(io.StringIO(text)))
    assert tuple(rows[0]) == CSV_COLUMNS
    full = dict(zip(CSV_COLUMNS, rows[1]))
    assert full["instance_id"] == "cycle-n8"
    assert full["mode"] == "dom"
    assert full["ratio"] == "1.000000"
    assert full["bound"] == "2.098612"
    assert full["bound_satisfied"] == "true"
    assert full["trivial"] == "false"
    assert full["seed"] == ""
    assert (full["nodes_explored"], full["greedy_iterations"]) == ("5", "3")
    assert full["ledger_time_s"] == "0.004000"
    assert CSV_COLUMNS[-4:] == (
        "exact_time_s", "nodes_explored", "greedy_iterations", "ledger_time_s"
    )
    skip = dict(zip(CSV_COLUMNS, rows[2]))
    assert skip["skip_reason"] == "k out of range"
    assert skip["greedy_size"] == ""
    assert skip["ratio"] == ""
    assert (skip["nodes_explored"], skip["greedy_iterations"], skip["ledger_time_s"]) == ("",) * 3


def test_csv_empty_reports_is_header_only():
    text = write_report_csv([])
    assert text == ",".join(CSV_COLUMNS) + "\n"


def test_json_report_is_json_dumps_of_the_list():
    # Written one report at a time, with the bytes of one json.dumps call.
    for reports in ([], _sample_reports()[:1], _sample_reports()):
        expected = json.dumps([report_to_dict(r) for r in reports]) + "\n"
        assert write_report_json(iter(reports)) == expected


def test_json_report():
    docs = json.loads(write_report_json(_sample_reports()))
    assert len(docs) == 2
    assert docs[0]["mode"] == "dom"
    assert docs[0]["ratio"] == 1.0
    assert docs[1]["skip_reason"] == "k out of range"
    assert docs[1]["greedy_size"] is None
    assert (docs[0]["nodes_explored"], docs[0]["greedy_iterations"]) == (5, 3)
    assert docs[1]["nodes_explored"] is None
    assert (docs[0]["ledger_time_s"], docs[1]["ledger_time_s"]) == (0.004, None)
    assert list(docs[0])[-4:] == [
        "exact_time_s", "nodes_explored", "greedy_iterations", "ledger_time_s"
    ]
    assert set(docs[0]) == set(CSV_COLUMNS)
    assert report_to_dict(_sample_reports()[0])["bound_satisfied"] is True
