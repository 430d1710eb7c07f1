import hashlib
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import degree, edges, neighbors, ref_erdos_renyi
from multidom import (
    FAMILIES,
    MAX_VERTICES,
    FamilySpec,
    Graph,
    GraphError,
    generate,
    splitmix64,
    write_dimacs,
)
from multidom.generators import _LANES, _pair_flags


# Reference outputs for seed 0, from the published splitmix64 test vectors.
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_splitmix64_frozen_vectors():
    stream = splitmix64(0)
    assert tuple(next(stream) for _ in range(3)) == SPLITMIX64_SEED0


def test_splitmix64_deterministic_and_seed_sensitive():
    a = [next(splitmix64(42)) for _ in range(1)]
    b = [next(splitmix64(42)) for _ in range(1)]
    c = [next(splitmix64(43)) for _ in range(1)]
    assert a == b
    assert a != c
    assert all(0 <= x < (1 << 64) for x in a + c)


def test_path_shape():
    g = generate(FamilySpec(family="path", n=5))
    assert (g.n, g.m) == (5, 4)
    assert neighbors(g, 0) == frozenset({1})
    assert neighbors(g, 2) == frozenset({1, 3})


def test_cycle_shape():
    g = generate(FamilySpec(family="cycle", n=6))
    assert (g.n, g.m) == (6, 6)
    assert all(degree(g, v) == 2 for v in range(6))


def test_complete_shape():
    g = generate(FamilySpec(family="complete", n=5))
    assert (g.n, g.m) == (5, 10)
    assert all(degree(g, v) == 4 for v in range(5))


def test_star_shape():
    g = generate(FamilySpec(family="star", n=7))
    assert (g.n, g.m) == (7, 6)
    assert degree(g, 0) == 6
    assert all(neighbors(g, v) == frozenset({0}) for v in range(1, 7))


def test_complete_bipartite_shape():
    g = generate(FamilySpec(family="complete_bipartite", a=2, b=3))
    assert (g.n, g.m) == (5, 6)
    assert all(degree(g, v) == 3 for v in range(2))
    assert all(degree(g, v) == 2 for v in range(2, 5))


def test_gap_witness_is_star():
    for k in (2, 3, 5):
        gw = generate(FamilySpec(family="gap_witness", k=k))
        st_ = generate(FamilySpec(family="star", n=3 * k + 1))
        assert gw == st_


def test_erdos_renyi_deterministic():
    spec = FamilySpec(family="erdos_renyi", n=12, p=0.4, seed=7)
    assert generate(spec) == generate(spec)
    other = FamilySpec(family="erdos_renyi", n=12, p=0.4, seed=8)
    assert generate(spec) != generate(other)


def test_erdos_renyi_extremes():
    empty = generate(FamilySpec(family="erdos_renyi", n=9, p=0.0, seed=1))
    assert empty.m == 0
    full = generate(FamilySpec(family="erdos_renyi", n=9, p=1.0, seed=1))
    assert full.m == 9 * 8 // 2


def test_erdos_renyi_consumes_pairs_in_order():
    # With the frozen stream for seed 0, check edges against a direct replay.
    spec = FamilySpec(family="erdos_renyi", n=5, p=0.5, seed=0)
    g = generate(spec)
    stream = splitmix64(0)
    threshold = int(0.5 * (1 << 64))
    expected = [
        (u, v)
        for u, v in itertools.combinations(range(5), 2)
        if next(stream) < threshold
    ]
    assert tuple(edges(g)) == tuple(expected)


def test_family_spec_validation():
    with pytest.raises(ValueError):
        generate(FamilySpec(family="nonsense", n=4))
    with pytest.raises(ValueError):
        generate(FamilySpec(family="cycle", n=2))
    with pytest.raises(ValueError):
        generate(FamilySpec(family="star", n=1))
    with pytest.raises(ValueError):
        generate(FamilySpec(family="erdos_renyi", n=4, p=1.5, seed=0))
    with pytest.raises(ValueError):
        generate(FamilySpec(family="erdos_renyi", n=4, seed=0))  # p missing
    with pytest.raises(ValueError):
        generate(FamilySpec(family="complete_bipartite", a=0, b=3))
    with pytest.raises(ValueError):
        generate(FamilySpec(family="gap_witness", k=0))


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"family": "path", "n": 2.5}, "n must be an integer, got 2.5"),
        ({"family": "path", "n": True}, "n must be an integer, got True"),
        ({"family": "complete_bipartite", "a": 2, "b": "3"}, "b must be an integer, got '3'"),
        ({"family": "erdos_renyi", "n": 8, "p": 0.5, "seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"family": "erdos_renyi", "n": 8, "p": "0.5", "seed": 1}, "p must be a number, got '0.5'"),
        ({"family": "erdos_renyi", "n": 8, "p": False, "seed": 1}, "p must be a number, got False"),
        ({"family": "gap_witness", "k": 2.0}, "spec k must be an integer, got 2.0"),
    ],
)
def test_family_spec_rejects_field_types(fields, message):
    # A ValueError at construction, before generate: never a TypeError from
    # range() or a graph built from a bool.
    with pytest.raises(ValueError) as exc:
        FamilySpec(**fields)
    assert str(exc.value) == message


def test_family_spec_accepts_int_p_and_missing_fields():
    assert generate(FamilySpec("erdos_renyi", n=4, p=1, seed=0)).m == 6
    # Stored as a float: equal specs hash alike, so they share one id too.
    spec = FamilySpec("erdos_renyi", n=6, p=1, seed=0)
    assert type(spec.p) is float and spec == FamilySpec("erdos_renyi", n=6, p=1.0, seed=0)
    assert spec.instance_id() == "erdos_renyi(n=6,p=1.0,seed=0)"
    with pytest.raises(ValueError, match="path needs n >= 1, got None"):
        generate(FamilySpec("path"))


@pytest.mark.parametrize("seed", [2**64 + 5, -(2**64) + 5, 5 - 2**70])
def test_family_spec_stores_the_seed_modulo_2_64(seed):
    # generate reads the seed modulo 2**64, so these name seed 5's graph.
    spec = FamilySpec("erdos_renyi", n=10, p=0.3, seed=seed)
    five = FamilySpec("erdos_renyi", n=10, p=0.3, seed=5)
    assert spec == five and hash(spec) == hash(five)
    assert spec.instance_id() == five.instance_id() == "erdos_renyi(n=10,p=0.3,seed=5)"
    assert generate(spec) == generate(five)
    assert FamilySpec("erdos_renyi", n=10, p=0.3, seed=-1).seed == 2**64 - 1


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec(family="path", n=MAX_VERTICES + 1),
        FamilySpec(family="cycle", n=MAX_VERTICES + 1),
        FamilySpec(family="complete", n=MAX_VERTICES + 1),
        FamilySpec(family="star", n=MAX_VERTICES + 1),
        FamilySpec(family="complete_bipartite", a=MAX_VERTICES, b=1),
        FamilySpec(family="erdos_renyi", n=MAX_VERTICES + 1, p=0.5, seed=0),
        FamilySpec(family="gap_witness", k=MAX_VERTICES // 3 + 1),
    ],
    ids=lambda spec: spec.family,
)
def test_vertex_cap_fails_before_any_edge(spec):
    with pytest.raises(GraphError, match=f"exceed the cap of {MAX_VERTICES}"):
        generate(spec)


def test_instance_ids_are_canonical():
    assert FamilySpec(family="path", n=5).instance_id() == "path(n=5)"
    assert (
        FamilySpec(family="erdos_renyi", n=12, p=0.4, seed=7).instance_id()
        == "erdos_renyi(n=12,p=0.4,seed=7)"
    )
    assert (
        FamilySpec(family="complete_bipartite", a=2, b=3).instance_id()
        == "complete_bipartite(a=2,b=3)"
    )
    assert FamilySpec(family="gap_witness", k=3).instance_id() == "gap_witness(k=3)"


def test_families_listing():
    assert "erdos_renyi" in FAMILIES
    assert "gap_witness" in FAMILIES
    assert len(FAMILIES) == len(set(FAMILIES))


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32),
)
def test_erdos_renyi_always_simple(n, p, seed):
    g = generate(FamilySpec(family="erdos_renyi", n=n, p=p, seed=seed))
    assert isinstance(g, Graph)
    assert g.n == n
    assert 0 <= g.m <= n * (n - 1) // 2


@settings(deadline=None, max_examples=150)
@given(
    st.integers(min_value=1, max_value=120),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=-(2**70), max_value=2**70),
)
@example(92, 0.5, -4)
@example(60, 0.5, -(2**64) + 5)
@example(120, 1.0, 2**64 + 5)
def test_erdos_renyi_matches_one_draw_per_pair(n, p, seed):
    # C(n, 2) passes the kernel's block of _LANES pairs at n = 92.
    assert generate(FamilySpec(family="erdos_renyi", n=n, p=p, seed=seed)) == ref_erdos_renyi(
        n, p, seed
    )


@pytest.mark.parametrize("count", [1, _LANES - 1, _LANES, _LANES + 1, 2 * _LANES + 1])
@pytest.mark.parametrize("seed", [0, -4, -(2**64) + 5, 2**64 + 5])
def test_pair_flags_match_splitmix64(count, seed):
    draws = list(itertools.islice(splitmix64(seed), count))
    # The threshold edges, and a draw's own value and one past it, where the
    # strict comparison decides.
    for threshold in (0, 1, 2**63, 2**64 - 1, 2**64, draws[-1], draws[-1] + 1):
        blocks = list(_pair_flags(seed, threshold, count))
        assert all(len(block) <= _LANES for block in blocks)
        assert b"".join(blocks) == bytes(draw < threshold for draw in draws)


def test_pair_flags_of_no_pairs():
    assert list(_pair_flags(1, 2**63, 0)) == []


# sha256 of write_dimacs(generate(...)) for the two dense_audit inputs of
# seed 0 and one larger graph, recorded from the one-draw-per-pair generator.
PINNED_ER_DIGESTS = {
    (400, 0.25, 0): "ac05ae86a3a247bb419db85b4db725c6ac454e9a9a221ebc0c76808a4626d499",
    (400, 0.25, 1): "f4b16a07efae608e8532464986dd31cd8e272c54a8b3178480c440dd85abd88f",
    (2000, 0.005, 1): "b9fc252e0df4036a137b23cf23d87533fba7f46bd0000c5ee182c8824e2fd641",
}


@pytest.mark.parametrize("n, p, seed", list(PINNED_ER_DIGESTS))
def test_erdos_renyi_pinned_digests(n, p, seed):
    g = generate(FamilySpec(family="erdos_renyi", n=n, p=p, seed=seed))
    digest = hashlib.sha256(write_dimacs(g).encode()).hexdigest()
    assert digest == PINNED_ER_DIGESTS[(n, p, seed)]
