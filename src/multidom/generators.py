"""Deterministic instance generators: structured families and random graphs.

Random graphs use SplitMix64, a small well-known 64-bit generator, rather
than anything platform- or version-dependent: given the same seed the edge
set is byte-identical everywhere.  For erdos_renyi(n, p, seed), the C(n, 2)
candidate pairs are visited in lexicographic order (0,1), (0,2), ...,
(n-2, n-1); pair number t is an edge iff the t-th SplitMix64 output is below
floor(p * 2**64).

splitmix64() is the reference stream.  erdos_renyi draws the same stream in
blocks instead: SplitMix64 is counter-based, its t-th state being
seed + t * gamma mod 2**64, so _pair_flags packs up to _LANES states into one
int, a 64-bit state in each 128-bit lane, and mixes every lane at once with
big-int shifts, xors and multiplies, masking each lane to 64 bits before
every multiply so that no carry reaches the next lane.  The edges and their
order are the same as one draw per pair.
"""

from __future__ import annotations

__all__ = ["FAMILIES", "splitmix64", "FamilySpec", "generate"]

from dataclasses import dataclass
from itertools import chain, combinations, compress
from typing import Iterator

from .graph import Graph

FAMILIES = (
    "path",
    "cycle",
    "complete",
    "star",
    "complete_bipartite",
    "erdos_renyi",
    "gap_witness",
)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_LANES = 4096  # draws per block: a 64 KB int


def splitmix64(seed: int) -> Iterator[int]:
    """Infinite stream of SplitMix64 outputs for a 64-bit seed."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _pair_flags(seed: int, threshold: int, count: int) -> Iterator[bytes]:
    """The first count draws of splitmix64(seed) as flag bytes, 1 where the
    draw is below threshold (0 <= threshold <= 2**64) and 0 elsewhere, in
    blocks of at most _LANES flags."""
    if count <= 0:
        return
    lanes = min(count, _LANES)
    ones, index = _lane_constants(lanes)
    mask = ones * _MASK64
    # Lane value bar - z is 2**64 + threshold - 1 - z, in 0..2**65 - 1, and
    # its bit 64 is set iff z < threshold.
    bar = (threshold + _MASK64) * ones
    step = (lanes * _GAMMA & _MASK64) * ones
    state = ((index + ones) * _GAMMA + (seed & _MASK64) * ones) & mask
    size = 16 * lanes
    for done in range(0, count, lanes):
        z = state ^ (state >> 30)
        z = (z & mask) * _MIX1 & mask
        z ^= z >> 27
        z = (z & mask) * _MIX2 & mask
        z = bar - ((z ^ (z >> 31)) & mask)
        flags = z.to_bytes(size, "little")[8::16]  # byte 8 of each lane holds bit 64
        yield flags[: count - done]
        state = (state + step) & mask


def _lane_constants(lanes: int) -> tuple[int, int]:
    """(ones, index): 1 and j in lane j of lanes 128-bit lanes, built by
    doubling from the top bit of lanes down, with no byte-order step."""
    ones = index = size = 0
    for bit in bin(lanes)[2:]:
        index += (index + size * ones) << (128 * size)
        ones |= ones << (128 * size)
        size *= 2
        if bit == "1":
            index |= size << (128 * size)
            ones |= 1 << (128 * size)
            size += 1
    return ones, index


@dataclass(frozen=True)
class FamilySpec:
    """Parameters naming one generated instance.

    Which fields matter depends on family: path/cycle/complete/star take n
    (total vertex count; star(n) is a center plus n-1 leaves),
    complete_bipartite takes a and b, erdos_renyi takes n, p and seed,
    gap_witness takes k and yields the star with 3k leaves whose center has
    the strictly largest closed neighborhood.

    n, a, b, seed and k must be ints and p a number (a bool is neither), or
    None; generate then reports what the family needs.  Raises ValueError
    otherwise.  An int p is stored as a float, and seed modulo 2**64, the
    value SplitMix64 reads, so one graph has one spec and one id.
    """

    family: str
    n: int | None = None
    a: int | None = None
    b: int | None = None
    p: float | None = None
    seed: int | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        for name, value in (("n", self.n), ("a", self.a), ("b", self.b),
                            ("seed", self.seed), ("spec k", self.k)):
            if value is not None and type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.p is not None and type(self.p) not in (int, float):
            raise ValueError(f"p must be a number, got {self.p!r}")
        if type(self.p) is int:  # p=1 and p=1.0 are one spec, so they get one id
            try:
                object.__setattr__(self, "p", float(self.p))
            except OverflowError:
                bits = self.p.bit_length()
                raise ValueError(f"p must fit in a float, got an int of {bits} bits") from None
        if self.seed is not None:
            object.__setattr__(self, "seed", self.seed & _MASK64)

    def instance_id(self) -> str:
        """Canonical id string, stable across runs."""
        if self.family == "complete_bipartite":
            return f"complete_bipartite(a={self.a},b={self.b})"
        if self.family == "erdos_renyi":
            return f"erdos_renyi(n={self.n},p={self.p!r},seed={self.seed})"
        if self.family == "gap_witness":
            return f"gap_witness(k={self.k})"
        return f"{self.family}(n={self.n})"


def generate(spec: FamilySpec) -> Graph:
    """Build the graph named by spec; same spec, same graph, bytes included.

    Edges go to Graph() lazily, so a vertex count over MAX_VERTICES fails
    before any edge is made."""
    fam = spec.family
    if fam == "path":
        n = _require_n(spec, minimum=1)
        return Graph(n, ((i, i + 1) for i in range(n - 1)))
    if fam == "cycle":
        n = _require_n(spec, minimum=3)
        return Graph(n, ((i, (i + 1) % n) for i in range(n)))
    if fam == "complete":
        n = _require_n(spec, minimum=1)
        return Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))
    if fam == "star":
        n = _require_n(spec, minimum=2)
        return Graph(n, ((0, i) for i in range(1, n)))
    if fam == "complete_bipartite":
        if spec.a is None or spec.b is None or spec.a < 1 or spec.b < 1:
            raise ValueError(f"complete_bipartite needs a >= 1 and b >= 1, got {spec}")
        a, b = spec.a, spec.b
        return Graph(a + b, ((i, a + j) for i in range(a) for j in range(b)))
    if fam == "erdos_renyi":
        n = _require_n(spec, minimum=1)
        if spec.p is None or not 0.0 <= spec.p <= 1.0:
            raise ValueError(f"erdos_renyi needs 0 <= p <= 1, got {spec.p}")
        if spec.seed is None:
            raise ValueError("erdos_renyi needs an explicit seed")
        flags = _pair_flags(spec.seed, int(spec.p * (1 << 64)), n * (n - 1) // 2)
        return Graph(n, compress(combinations(range(n), 2), chain.from_iterable(flags)))
    if fam == "gap_witness":
        if spec.k is None or spec.k < 1:
            raise ValueError(f"gap_witness needs k >= 1, got {spec.k}")
        leaves = 3 * spec.k
        return Graph(leaves + 1, ((0, i) for i in range(1, leaves + 1)))
    raise ValueError(f"unknown family {fam!r}; known: {', '.join(FAMILIES)}")


def _require_n(spec: FamilySpec, minimum: int) -> int:
    if spec.n is None or spec.n < minimum:
        raise ValueError(f"{spec.family} needs n >= {minimum}, got {spec.n}")
    return spec.n
