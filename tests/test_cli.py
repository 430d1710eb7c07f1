import argparse
import csv
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from multidom import (
    MAX_VERTICES,
    FormatError,
    Graph,
    GraphError,
    InstanceTooLargeError,
    KOutOfRangeError,
    Mode,
    build_ledger,
    check_neighborhood_bound,
    parse_dimacs,
    parse_edge_list,
    solve,
    write_dimacs,
)
from multidom import cli
from multidom.cli import main
from multidom.graphio import _any_int_digits

from conftest import harmonic


C6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])


@pytest.fixture
def c6_path(tmp_path):
    path = tmp_path / "c6.dimacs"
    path.write_text(write_dimacs(C6))
    return str(path)


def test_gen_to_stdout(capsys):
    assert main(["gen", "--family", "cycle", "--n", "6"]) == 0
    g = parse_dimacs(capsys.readouterr().out)
    assert g == C6


def test_gen_to_file_edgelist(tmp_path):
    out = tmp_path / "g.edges"
    code = main(
        ["gen", "--family", "erdos_renyi", "--n", "8", "--p", "0.4",
         "--seed", "3", "--format", "edgelist", "--output", str(out)]
    )
    assert code == 0
    assert out.read_text().startswith("# n 8\n")


def test_gen_bad_family_params(capsys):
    assert main(["gen", "--family", "cycle", "--n", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve(c6_path, capsys, tmp_path):
    trace = tmp_path / "trace.json"
    code = main(
        ["solve", c6_path, "--mode", "kdom", "--k", "2", "--trace", str(trace)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith('{"mode": "kdom", "k": 2, ')
    doc = json.loads(out)
    assert list(doc) == ["mode", "k", "size", "chosen", "trivial"]
    assert doc["size"] == len(doc["chosen"])
    assert not doc["trivial"]
    trace_doc = json.loads(trace.read_text())
    assert list(trace_doc) == [
        "mode", "k", "n", "m", "graph_digest", "trivial", "chosen", "iterations"
    ]
    assert len(trace_doc["iterations"]) == doc["size"]
    assert trace_doc["chosen"] == doc["chosen"]


def test_solve_from_stdin(monkeypatch, capsys):
    import io
    import sys
    monkeypatch.setattr(sys, "stdin", io.StringIO(write_dimacs(C6)))
    assert main(["solve", "-", "--mode", "dom"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["size"] == 2


@pytest.mark.parametrize("command", ["solve", "exact", "verify"])
def test_generated_edgelist_reads_back_with_no_flag(monkeypatch, capsys, command):
    import io
    import sys
    assert main(["gen", "--family", "star", "--n", "7", "--format", "edgelist"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("# n 7\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main([command, "-", "--mode", "dom"]) == 0
    size = {"solve": "size", "exact": "optimum", "verify": "greedy_size"}[command]
    assert json.loads(capsys.readouterr().out)[size] == 1  # the centre


def test_solve_k_out_of_range(c6_path, capsys):
    assert main(["solve", c6_path, "--mode", "ktuple", "--k", "4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_exact(c6_path, capsys):
    assert main(["exact", c6_path, "--mode", "dom"]) == 0
    out = capsys.readouterr().out
    assert out.startswith('{"mode": "dom", "k": 1, ')
    doc = json.loads(out)
    assert list(doc) == ["mode", "k", "optimum", "witness", "nodes_explored", "time_s"]
    assert doc["optimum"] == 2
    assert len(doc["witness"]) == 2


def test_exact_over_cap(c6_path, capsys):
    assert main(["exact", c6_path, "--mode", "dom", "--max-n", "4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify(c6_path, capsys):
    for mode, k in ((Mode.DOM, 1), (Mode.KTUPLE, 2), (Mode.KDOM, 2)):
        assert main(["verify", c6_path, "--mode", mode.value, "--k", str(k)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == [
            "instance", "family", "seed", "n", "m", "max_degree", "min_degree", "mode", "k",
            "greedy_size", "exact_size", "ratio", "bound", "bound_satisfied",
            "ledger_checks_passed", "trivial", "skip_reason", "nodes_explored",
            "greedy_iterations", "ledger",
        ]
        assert doc["ledger_checks_passed"] is True
        assert doc["bound_satisfied"] is True
        assert len(doc["ledger"]) == 6
        for item in doc["ledger"]:
            num, den = item["lhs"].split("/")
            assert int(den) > 0 and int(num) >= 0
        # The rows come from the report's single audit pass; they must match
        # an audit of a freshly built ledger.
        ledger = build_ledger(C6, solve(C6, mode, k))
        expected = []
        for w in range(C6.n):
            lhs, bound = (Fraction(x, ledger.unit) for x in check_neighborhood_bound(ledger, w))
            expected.append({
                "vertex": w,
                "lhs": f"{lhs.numerator}/{lhs.denominator}",
                "bound": f"{bound.numerator}/{bound.denominator}",
            })
        assert doc["ledger"] == expected


def test_verify_skip_exits_nonzero(tmp_path, capsys):
    star = Graph(7, [(0, i) for i in range(1, 7)])
    path = tmp_path / "star.dimacs"
    path.write_text(write_dimacs(star))
    assert main(["verify", str(path), "--mode", "ktuple", "--k", "3"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["skip_reason"] is not None
    assert "ledger" not in doc


def test_verify_renders_bounds_of_any_size(tmp_path, capsys):
    # The centre of star(10500) has bound H(10500), whose denominator has
    # more digits than the interpreter converts to str by default.
    star = Graph(10500, [(0, i) for i in range(1, 10500)])
    path = tmp_path / "star.dimacs"
    path.write_text(write_dimacs(star))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(["verify", str(path), "--mode", "dom"]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    doc = json.loads(capsys.readouterr().out)
    centre = doc["ledger"][0]
    h = harmonic(10500)
    with _any_int_digits():
        assert centre == {"vertex": 0, "lhs": "1/1", "bound": f"{h.numerator}/{h.denominator}"}


@pytest.mark.parametrize("command", ["verify", "bench"])
def test_huge_k_is_usage_error(tmp_path, capsys, command):
    # n * k arrivals above the cap are refused before the ledger stores any.
    k = 10**11
    path = tmp_path / "p3.dimacs"
    path.write_text(write_dimacs(Graph(3, [(0, 1), (1, 2)])))
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([{"spec": {"family": "path", "n": 3}, "mode": "kdom", "k": k}]))
    argv = {
        "verify": ["verify", str(path), "--mode", "kdom", "--k", str(k)],
        "bench": ["bench", "--corpus", str(corpus)],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    where = {"verify": "", "bench": "corpus entry 0: "}[command]
    assert captured.err == (
        f"error: {where}k={k} needs n * k = {3 * k} arrivals, above the cap of {MAX_VERTICES}\n"
    )


@pytest.mark.parametrize(
    "argv,written,code",
    [
        (["solve", "C6", "--mode", "kdom", "--k", "2"], "stdout", 0),
        (["solve", "C6", "--mode", "kdom", "--k", "2", "--trace", "OUT"], "OUT", 0),
        (["exact", "C6", "--mode", "ktuple", "--k", "2"], "stdout", 0),
        (["verify", "C6", "--mode", "kdom", "--k", "2"], "stdout", 0),
        (["verify", "STAR7", "--mode", "ktuple", "--k", "3"], "stdout", 1),
        (["verify", "STAR10500", "--mode", "dom"], "stdout", 0),
        (["bench", "--corpus", "CORPUS"], "stdout", 0),
        (["bench", "--corpus", "CORPUS", "--json", "OUT"], "OUT", 0),
        (["selfcheck"], "stdout", 0),
    ],
    ids=["solve", "solve_trace", "exact", "verify", "verify_skip", "verify_star10500",
         "bench_summary", "bench_json", "selfcheck"],
)
def test_every_json_document_is_json_dumps_of_itself(tmp_path, capsys, argv, written, code):
    # One style for every document: json.dumps(doc) plus a newline.
    graphs = {"C6": C6, "STAR7": Graph(7, [(0, i) for i in range(1, 7)]),
              "STAR10500": Graph(10500, [(0, i) for i in range(1, 10500)])}
    files = {"OUT": tmp_path / "out.json", "CORPUS": tmp_path / "corpus.json"}
    files["CORPUS"].write_text(json.dumps([
        {"spec": {"family": "cycle", "n": 6}, "mode": "dom", "k": 1},
        {"spec": {"family": "star", "n": 8}, "mode": "ktuple", "k": 3},
        {"spec": {"family": "erdos_renyi", "n": 10, "p": 0.4, "seed": 2}, "mode": "kdom", "k": 2},
    ]))
    for name in set(argv) & set(graphs):
        files[name] = tmp_path / f"{name}.dimacs"
        files[name].write_text(write_dimacs(graphs[name]))
    assert main([str(files.get(a, a)) for a in argv]) == code
    text = capsys.readouterr().out if written == "stdout" else files[written].read_text()
    assert text == json.dumps(json.loads(text)) + "\n"


def test_bench_custom_corpus(tmp_path, capsys):
    corpus = [
        {"spec": {"family": "cycle", "n": 8}, "mode": "dom", "k": 1},
        {"spec": {"family": "star", "n": 8}, "mode": "kdom", "k": 2},
        {"spec": {"family": "erdos_renyi", "n": 8, "p": 0.4, "seed": 1},
         "mode": "ktuple", "k": 2},
    ]
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(json.dumps(corpus))
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    code = main(
        ["bench", "--corpus", str(corpus_path), "--csv", str(csv_path),
         "--json", str(json_path)]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert list(summary) == [
        "reports", "skipped", "max_ratio", "bound_violations", "ledger_failures", "status"
    ]
    assert summary["status"] == "pass"
    assert summary["reports"] == 3
    assert summary["bound_violations"] == 0
    csv_lines = csv_path.read_text().splitlines()
    assert len(csv_lines) == 4  # header + 3 reports
    assert csv_lines[0].startswith("instance_id,family,seed,")
    rows = csv.DictReader(csv_lines)
    assert [row["mode"] for row in rows] == ["dom", "ktuple", "kdom"]
    docs = json.loads(json_path.read_text())
    assert {d["instance_id"] for d in docs} == {
        "cycle(n=8)", "star(n=8)", "erdos_renyi(n=8,p=0.4,seed=1)"
    }


def test_bench_edge_list_graphs_not_needed_for_corpus(tmp_path, capsys):
    # a corpus entry with a skip still benches clean overall
    corpus = [{"spec": {"family": "star", "n": 8}, "mode": "ktuple", "k": 3}]
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(json.dumps(corpus))
    assert main(["bench", "--corpus", str(corpus_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["skipped"] == 1


@pytest.mark.parametrize(
    "doc, message",
    [
        ([{"mode": "dom", "k": 1}], "corpus entry 0: missing key 'spec'"),
        (
            [{"spec": {"family": "cycle", "n": 8}, "mode": "dom"},
             {"spec": {"family": "cycle", "n": 8, "size": 3}, "mode": "dom"}],
            "error: corpus entry 1: spec has unknown field 'size'\n",
        ),
        ({"spec": {"family": "cycle", "n": 8}, "mode": "dom"}, "must be a JSON list"),
        # A number of the wrong JSON type is an input error, never a
        # TypeError traceback or a silent conversion.
        ([{"spec": {"family": "cycle", "n": "8"}, "mode": "dom"}],
         "corpus entry 0: n must be an integer, got '8'"),
        ([{"spec": {"family": "cycle", "n": [8]}, "mode": "dom"}],
         "corpus entry 0: n must be an integer, got [8]"),
        ([{"spec": {"family": "cycle", "n": 8.0}, "mode": "dom"}],
         "corpus entry 0: n must be an integer, got 8.0"),
        ([{"spec": {"family": "path", "n": True}, "mode": "dom"}],
         "corpus entry 0: n must be an integer, got True"),
        ([{"spec": {"family": "complete_bipartite", "a": 2.0, "b": 3}, "mode": "dom"}],
         "corpus entry 0: a must be an integer, got 2.0"),
        ([{"spec": {"family": "complete_bipartite", "a": 2, "b": "3"}, "mode": "dom"}],
         "corpus entry 0: b must be an integer, got '3'"),
        ([{"spec": {"family": "erdos_renyi", "n": 8, "p": 0.4, "seed": "3"}, "mode": "dom"}],
         "corpus entry 0: seed must be an integer, got '3'"),
        ([{"spec": {"family": "erdos_renyi", "n": 8, "p": "0.4", "seed": 3}, "mode": "dom"}],
         "corpus entry 0: p must be a number, got '0.4'"),
        ([{"spec": {"family": "erdos_renyi", "n": 8, "p": True, "seed": 3}, "mode": "dom"}],
         "corpus entry 0: p must be a number, got True"),
        ([{"spec": {"family": "erdos_renyi", "n": 5, "p": 0.5}, "mode": "dom"}],
         "corpus entry 0: erdos_renyi needs an explicit seed"),
        ([{"spec": {"family": "gap_witness", "k": 2.0}, "mode": "dom"}],
         "corpus entry 0: spec k must be an integer, got 2.0"),
        ([{"spec": {"family": "cycle", "n": 8}, "mode": "kdom", "k": 2.7}],
         "corpus entry 0: k must be an integer, got 2.7"),
        ([{"spec": {"family": "cycle", "n": 8}, "mode": "kdom", "k": True}],
         "corpus entry 0: k must be an integer, got True"),
        # A spec its generator rejects is named by its entry too.
        ([{"spec": {"family": "path", "n": 4}, "mode": "dom"},
          {"spec": {"family": "cycle", "n": 2}, "mode": "dom"}],
         "corpus entry 1: cycle needs n >= 3, got 2"),
        ([], "error: corpus is empty"),
        # An int p is stored as a float; one no float holds is an input error.
        ([{"spec": {"family": "erdos_renyi", "n": 4, "p": 10**400, "seed": 0}, "mode": "dom"}],
         "corpus entry 0: p must fit in a float, got an int of 1329 bits"),
        # A run's error is named by its entry, here not the first of its spec.
        ([{"spec": {"family": "path", "n": 3}, "mode": "dom"},
          {"spec": {"family": "cycle", "n": 6}, "mode": "kdom", "k": 2},
          {"spec": {"family": "path", "n": 3}, "mode": "kdom", "k": 10**11}],
         "corpus entry 2: k=100000000000 needs n * k = 300000000000 arrivals"),
        # Not the interpreter's text for a failed lookup, which differs
        # between Python releases.
        ([{"spec": {"family": "cycle", "n": 6}, "mode": "dom"}, 5],
         "corpus entry 1 must be a JSON object, got int\n"),
        (["x"], "corpus entry 0 must be a JSON object, got str\n"),
        ([[1]], "corpus entry 0 must be a JSON object, got list\n"),
        ([None], "corpus entry 0 must be a JSON object, got NoneType\n"),
        ([{"spec": 5, "mode": "dom"}], "corpus entry 0: spec must be a JSON object, got int\n"),
        # A spec is checked against FamilySpec's fields by name, not through
        # the interpreter's text for a bad call; an unknown field comes first.
        ([{"spec": {"n": 8}, "mode": "dom"}],
         "error: corpus entry 0: spec is missing field 'family'\n"),
        ([{"spec": {"n": 8, "size": 3}, "mode": "dom"}],
         "error: corpus entry 0: spec has unknown field 'size'\n"),
        # Within the n * k cap, a top score max_degree + k above 2**16.
        ([{"spec": {"family": "path", "n": 3}, "mode": "kdom", "k": 70000}],
         "error: corpus entry 0: k=70000 allows scores up to max_degree + self-gain = 70002, "
         "above the cap of 65536\n"),
    ],
    ids=[
        "missing_spec", "unknown_spec_field", "not_a_list", "n_string", "n_list", "n_float",
        "n_bool", "a_float", "b_string", "seed_string", "p_string", "p_bool", "seed_missing",
        "spec_k_float", "k_float", "k_bool", "generator_rejects_spec", "empty", "p_too_large",
        "run_error", "entry_int", "entry_str", "entry_list", "entry_null", "spec_int",
        "spec_missing_family", "spec_unknown_before_missing", "top_score",
    ],
)
def test_bench_malformed_corpus_is_usage_error(tmp_path, capsys, doc, message):
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(json.dumps(doc))
    assert main(["bench", "--corpus", str(corpus_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


def test_selfcheck(capsys):
    assert main(["selfcheck"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "pass"
    assert doc["harmonic_inequalities"] is True
    assert doc["ratio_improvement"] is True
    assert doc["gap_witness"] is True


def test_missing_file_is_usage_error(capsys):
    assert main(["solve", "/nonexistent/g.dimacs", "--mode", "dom"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_graph_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.dimacs"
    path.write_text("p edge 3 1\ne 1 9\n")
    assert main(["solve", str(path), "--mode", "dom"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_duplicate_n_directive_is_usage_error(monkeypatch, capsys):
    import io
    import sys
    monkeypatch.setattr(sys, "stdin", io.StringIO("# n 3\n# n 5\n0 1\n"))
    assert main(["verify", "-", "--mode", "dom"]) == 2
    assert capsys.readouterr().err == "error: line 2: duplicate n directive\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "C6", "--mode", "dom", "--n", "8"],
        ["solve", "C6", "--mode", "dom", "--n", "8"],
        ["exact", "C6", "--mode", "dom", "--n", "8"],
        ["verify", "C6", "--mode", "dom", "--format", "dimacs"],
        ["solve", "C6", "--mode", "dom", "--format", "edgelist"],
        ["exact", "C6", "--mode", "dom", "--format", "dimacs"],
        ["selfcheck", "--gap-k-max", "5"],
        ["selfcheck", "--x-max", "100"],
        ["selfcheck", "--delta-max", "100"],
    ],
    ids=["verify_n", "solve_n", "exact_n", "verify_format", "solve_format", "exact_format",
         "selfcheck_gap_k_max", "selfcheck_x_max", "selfcheck_delta_max"],
)
def test_removed_options_are_usage_errors(c6_path, capsys, argv):
    # The edgelist count comes from its `# n` line or its largest id, the
    # format from the input's first non-blank character, and selfcheck
    # replays the gap witnesses for k = 2..5 and checks the harmonic pairs
    # and the ratio improvement up to 1000.
    with pytest.raises(SystemExit) as exc_info:
        main([c6_path if a == "C6" else a for a in argv])
    assert exc_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-4", "2"])
def test_bench_jobs_accepts_only_1(capsys, jobs):
    # The corpus runs in one process; --jobs 1 is still accepted.
    with pytest.raises(SystemExit) as exc_info:
        main(["bench", "--jobs", jobs])
    assert exc_info.value.code == 2
    assert f"invalid choice: {jobs} (choose from 1)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fmt,text,where",
    [
        ("dimacs", "p edge 12 1\ne 1_0 2\n", "line 2: bad endpoint '1_0'"),
        ("edgelist", "# n 1_2\n0 1\n", "line 1: bad n directive '# n 1_2'"),
        ("edgelist", "0 +1\n", "line 1: bad endpoint '+1'"),
    ],
)
def test_integer_forms_beyond_ascii_digits_are_input_errors(monkeypatch, capsys, fmt, text, where):
    import io
    import sys
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["verify", "-", "--mode", "dom"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {where}\n"
    # The text is read by fmt's reader, which the CLI was not told.
    with pytest.raises(FormatError, match=f"^{re.escape(where)}$"):
        {"dimacs": parse_dimacs, "edgelist": parse_edge_list}[fmt](text)


@pytest.mark.parametrize(
    "argv,text,where",
    [
        (["solve", "-", "--mode", "dom"], f"p edge {MAX_VERTICES + 1} 0\n", "line 1: "),
        (["solve", "-", "--mode", "dom"], f"# n {MAX_VERTICES + 1}\n0 1\n", "line 1: "),
        (["solve", "-", "--mode", "dom"], f"0 {MAX_VERTICES}\n", "line 2: "),
        (["gen", "--family", "path", "--n", str(MAX_VERTICES + 1)], "", ""),
    ],
    ids=["dimacs_header", "edgelist_directive", "edgelist_inferred", "gen_path"],
)
def test_vertex_cap_is_usage_error(monkeypatch, capsys, argv, text, where):
    import io
    import sys
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {where}{MAX_VERTICES + 1} vertices exceed the cap of {MAX_VERTICES}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "C6", "--mode", "dom", "--max-n", "0"], "max_n must be >= 1, got 0"),
        (["bench", "--max-n", "-4"], "max_n must be >= 1, got -4"),
        (["exact", "C6", "--mode", "kdom", "--k", "0"], "k-domination needs k >= 1, got k=0"),
        (["solve", "C6", "--mode", "ktuple", "--k", "4"],
         "k-tuple domination needs 1 <= k <= min_degree + 1 = 3, got k=4"),
        (["verify", "C6", "--mode", "kdom", "--k", "100000000000"],
         "k=100000000000 needs n * k = 600000000000 arrivals, above the cap of 10000000"),
        (["exact", "C6", "--mode", "ktuple", "--k", "0"], "k-tuple domination needs k >= 1, got k=0"),
        # A cap below 1 would refuse every exact run, not turn the check off.
        (["bench", "--max-n", "0"], "max_n must be >= 1, got 0"),
        (["verify", "C6", "--mode", "dom", "--max-n", "-1"], "max_n must be >= 1, got -1"),
        (["exact", "C6", "--mode", "dom", "--max-n", "0"], "max_n must be >= 1, got 0"),
        # Within the n * k cap, the ledger's unit and residual scans grow
        # with the top score max_degree + k, which may not pass 2**16.
        (["verify", "C6", "--mode", "kdom", "--k", "70000"],
         "k=70000 allows scores up to max_degree + self-gain = 70002, above the cap of 65536"),
    ],
)
def test_out_of_range_limits_are_usage_errors(c6_path, capsys, argv, message):
    assert main([c6_path if a == "C6" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "mode,k,message",
    [
        ("kdom", 0, "k-domination needs k >= 1, got k=0"),
        ("ktuple", -1, "k-tuple domination needs k >= 1, got k=-1"),
        ("dom", 2, "plain domination has no multiplicity, got k=2"),
    ],
)
def test_k_that_no_graph_admits_is_usage_error(c6_path, tmp_path, capsys, mode, k, message):
    # Not a skipped instance: verify and bench refuse it before any run, as
    # solve and exact do.  A k-tuple k above min_degree + 1 stays a skip.
    assert main(["verify", c6_path, "--mode", mode, "--k", str(k)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(json.dumps([
        {"spec": {"family": "cycle", "n": 6}, "mode": "dom", "k": 1},
        {"spec": {"family": "cycle", "n": 6}, "mode": mode, "k": k},
    ]))
    assert main(["bench", "--corpus", str(corpus_path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: corpus entry 1: {message}\n")


def test_bench_cap_below_one_is_usage_error_without_exact_runs(tmp_path, capsys):
    # The only entry skips before the exact search, so the cap is checked
    # up front, not where the search would read it.
    corpus_path = tmp_path / "skip.json"
    corpus_path.write_text(json.dumps([{"spec": {"family": "star", "n": 8}, "mode": "ktuple", "k": 3}]))
    assert main(["bench", "--corpus", str(corpus_path), "--max-n", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_n must be >= 1, got 0\n"


@pytest.mark.parametrize("error", [GraphError, FormatError, KOutOfRangeError, InstanceTooLargeError])
def test_package_errors_are_value_errors(error):
    # main() turns ValueError and OSError into exit 2; any other class
    # would escape as a traceback.
    assert issubclass(error, ValueError)


def test_a_rebound_handler_runs_after_the_parser_is_built(c6_path, monkeypatch, capsys):
    # A span tracer rebinds cli._cmd_solve between calls; the parser built by
    # the first call must not keep the original.
    assert main(["solve", c6_path, "--mode", "dom"]) == 0
    capsys.readouterr()
    seen = []
    monkeypatch.setattr(cli, "_cmd_solve", lambda args: seen.append(args) or 7)
    assert main(["solve", c6_path, "--mode", "dom"]) == 7
    assert [(a.command, a.input, a.mode) for a in seen] == [("solve", c6_path, "dom")]
    assert capsys.readouterr().out == ""


MINIMAL_ARGV = {
    "gen": ["--family", "path"],
    "solve": ["-", "--mode", "dom"],
    "exact": ["-", "--mode", "dom"],
    "verify": ["-", "--mode", "dom"],
    "bench": [],
    "selfcheck": [],
}


def test_every_subcommand_dispatches_to_its_handler(monkeypatch):
    (commands,) = [
        a.choices for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert set(commands) == set(MINIMAL_ARGV)
    for name in commands:
        seen = []
        monkeypatch.setattr(cli, f"_cmd_{name}", lambda args, seen=seen: seen.append(args) or 0)
        assert main([name, *MINIMAL_ARGV[name]]) == 0
        assert [a.command for a in seen] == [name]


def test_usage_error_and_help_leave_the_next_call_as_in_a_fresh_process(c6_path, capsys):
    argv = ["verify", c6_path, "--mode", "kdom", "--k", "2"]
    src = str(Path(cli.__file__).parents[1])
    script = f"import sys; sys.path.insert(0, {src!r}); from multidom.cli import main; main({argv!r})"
    fresh = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    ).stdout
    for bad, code in (
        (["verify", c6_path, "--mode", "kdom", "--k", "two"], 2),
        (["solve", c6_path], 2),
        (["--help"], 0),
        (["verify", "--help"], 0),
    ):
        with pytest.raises(SystemExit) as exc_info:
            main(bad)
        assert exc_info.value.code == code
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == fresh


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "cycle", "--n", "6"],
        ["gen", "--family", "erdos_renyi", "--n", "2000", "--p", "0.005", "--seed", "1"],
        ["solve", "C6", "--mode", "dom"],
    ],
)
def test_a_reader_gone_before_output_is_quiet_and_exits_1(argv, unbuffered, c6_path):
    # The read end is closed before the child writes, as when the command
    # after `|` has already exited: that is no error of gen's to report.
    # Block-buffered, a short output would reach the pipe only at exit.
    argv = [c6_path if a == "C6" else a for a in argv]
    src = str(Path(cli.__file__).parents[1])
    script = f"import sys; sys.path.insert(0, {src!r}); from multidom.cli import main; sys.exit(main({argv!r}))"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-c", script],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


def test_a_broken_pipe_on_a_named_output_is_an_error(tmp_path, monkeypatch, capsys):
    # Only a reader of stdout that has gone is quiet; a named file whose
    # write breaks is reported like any other write error.
    class Broken:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: Broken(), raising=False)
    argv = ["gen", "--family", "cycle", "--n", "6", "--output", str(tmp_path / "c6")]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: [Errno 32] Broken pipe\n")
