"""Tests of the benchmark's inputs.  Run: python3 -m pytest perfbench"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import multidom as md  # noqa: E402
import workloads  # noqa: E402


def _entries(doc):
    return [md.CorpusEntry(md.FamilySpec(**e["spec"]), md.Mode(e["mode"]), e["k"]) for e in doc]


def test_seed_zero_corpus_is_the_default_corpus():
    entries = _entries(workloads.corpus_document(md, workloads.DEFAULT_SEED))
    assert entries == md.default_corpus()
    assert len(entries) == workloads.CORPUS_SIZE


def test_sparse_graph_bytes_are_reproducible():
    n = workloads.SPARSE_RUNGS[0]
    text = md.write_dimacs(workloads.sparse_graph(md, n, 7))
    assert text == md.write_dimacs(workloads.sparse_graph(md, n, 7))
    g = md.parse_dimacs(text)
    assert g.min_degree() == 2
    assert g.m == (1 + workloads.CHORDS_PER_VERTEX) * n


def test_seeds_give_different_inputs():
    assert workloads.corpus_document(md, 1) != workloads.corpus_document(md, 2)
    n = workloads.SPARSE_RUNGS[0]
    assert workloads.sparse_graph(md, n, 1) != workloads.sparse_graph(md, n, 2)
    assert workloads.dense_graphs(md, 1) != workloads.dense_graphs(md, 3)
