"""Truncated metric on integer grids and toroidal grids.

The truncated distance rho between integer n-vectors u, v is the Hamming
distance h(u, v) when every coordinate offset lies in {-1, 0, 1}, and n+1
otherwise. Equivalently: rho is the graph distance restricted to pairs
sharing a unit cube, truncated to n+1 beyond that. All ball computations
here work on two finite ambient spaces:

  * a window: an axis-aligned box of Z^n, used for enumeration and debug;
  * a torus: Z^n quotiented by per-axis moduli, used for exact verification
    of periodic codes.

Coordinate differences on a torus are wrapped to the representative of
minimal absolute value; a tie (even modulus, offset exactly half) picks the
positive representative. Only |diff| <= 1 matters for rho, so the tie rule
is observable in debug output only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import comb
from operator import add, mod
from typing import Iterator

Point = tuple[int, ...]


class DimensionMismatch(ValueError):
    """Operands live in different dimensions or ambient spaces."""


@dataclass(frozen=True)
class Ambient:
    """A finite slice of Z^n: either a coordinate window or a torus.

    kind is "window" or "torus". A window carries per-axis inclusive
    (lo, hi) bounds; a torus carries per-axis moduli >= 1. Moduli 1 and 2
    are legal but degenerate for code verification (truncated balls
    self-overlap); verifiers refuse them.
    """

    kind: str
    moduli: tuple[int, ...] | None = None
    bounds: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "torus":
            if not self.moduli or any(m < 1 for m in self.moduli):
                raise ValueError("torus moduli must be integers >= 1")
            if self.bounds is not None:
                raise ValueError("torus ambient takes no bounds")
        elif self.kind == "window":
            if not self.bounds or any(hi < lo for lo, hi in self.bounds):
                raise ValueError("window bounds must be nonempty per axis")
            if self.moduli is not None:
                raise ValueError("window ambient takes no moduli")
        else:
            raise ValueError(f"unknown ambient kind {self.kind!r}")

    @classmethod
    def torus(cls, *moduli: int) -> "Ambient":
        return cls(kind="torus", moduli=tuple(int(m) for m in moduli))

    @classmethod
    def window(cls, *bounds: tuple[int, int]) -> "Ambient":
        return cls(kind="window", bounds=tuple((int(a), int(b)) for a, b in bounds))

    @classmethod
    def around(cls, points: tuple[Point, ...]) -> "Ambient":
        """The points' bounding box grown by one per axis: no truncated
        ball around them is clipped."""
        return cls.window(*((min(c) - 1, max(c) + 1) for c in zip(*points)))

    @property
    def dimension(self) -> int:
        return len(self.moduli) if self.kind == "torus" else len(self.bounds)

    @property
    def is_torus(self) -> bool:
        return self.kind == "torus"

    @property
    def degenerate(self) -> bool:
        """True when truncated spheres can self-overlap (any modulus < 3)."""
        return self.kind != "torus" or any(m < 3 for m in self.moduli)

    def vertex_count(self) -> int:
        if self.is_torus:
            n = 1
            for m in self.moduli:
                n *= m
            return n
        n = 1
        for lo, hi in self.bounds:
            n *= hi - lo + 1
        return n

    def contains(self, p: Point) -> bool:
        if len(p) != self.dimension:
            return False
        if self.is_torus:
            return all(0 <= x < m for x, m in zip(p, self.moduli))
        return all(lo <= x <= hi for x, (lo, hi) in zip(p, self.bounds))

    def wrap(self, p: Point) -> Point:
        """Reduce a raw integer vector to its canonical representative."""
        if self.is_torus:
            return tuple(x % m for x, m in zip(p, self.moduli))
        return tuple(p)

    def diff(self, u: Point, v: Point) -> Point:
        """Per-axis difference u - v, wrapped on a torus.

        Wrapped differences land in (-m/2, m/2]; the tie at m/2 for even m
        resolves to the positive representative.
        """
        if len(u) != len(v) or len(u) != self.dimension:
            raise DimensionMismatch(f"points {u} and {v} in ambient of dim {self.dimension}")
        if not self.is_torus:
            return tuple(a - b for a, b in zip(u, v))
        out = []
        for a, b, m in zip(u, v, self.moduli):
            d = (a - b) % m
            if 2 * d > m:
                d -= m
            out.append(d)
        return tuple(out)

    def translate(self, p: Point, z: Point) -> Point:
        return self.wrap(tuple(a + b for a, b in zip(p, z)))

    def vertices(self) -> Iterator[Point]:
        """All vertices in lexicographic order, each exactly once."""
        if self.is_torus:
            yield from product(*(range(m) for m in self.moduli))
        else:
            yield from product(*(range(lo, hi + 1) for lo, hi in self.bounds))


def truncated_distance(u: Point, v: Point, a: Ambient) -> int:
    """rho(u, v): Hamming distance if all offsets are in {-1,0,1}, else n+1."""
    d = a.diff(u, v)
    if any(abs(x) > 1 for x in d):
        return a.dimension + 1
    return sum(1 for x in d if x != 0)


@cache
def _offsets(n: int, t: int) -> tuple[tuple[Point, ...], ...]:
    """The vectors of {-1,0,1}^n with at most t nonzero entries, grouped by
    weight: entry w holds those with exactly w nonzero entries."""
    groups: list[list[Point]] = [[] for _ in range(t + 1)]
    for d in product((-1, 0, 1), repeat=n):
        w = n - d.count(0)
        if w <= t:
            groups[w].append(d)
    return tuple(map(tuple, groups))


def truncated_ball(centers: tuple[Point, ...], t: int, a: Ambient) -> tuple[Point, ...]:
    """All ambient vertices at truncated distance <= t from the given set.

    Windows clip the ball to their bounds. Returned sorted
    lexicographically.
    """
    if not centers:
        raise ValueError("truncated ball of an empty set")
    n = a.dimension
    if not 0 <= t <= n:
        raise ValueError(f"radius {t} outside [0, {n}]")
    moved = (tuple(map(add, s, d)) for group in _offsets(n, t) for s in centers for d in group)
    if a.is_torus:
        pts = {tuple(map(mod, p, a.moduli)) for p in moved}
    else:
        pts = {p for p in moved if a.contains(p)}
    return tuple(sorted(pts))


def ball_size_formula(n: int, t: int) -> int:
    """Cardinality of the truncated t-ball around a single vertex of Z^n.

    Equals sum over i = 0..t of 2^i * C(n, i): choose the i axes that move,
    each by +1 or -1.
    """
    if n < 0 or t < 0 or t > n:
        raise ValueError(f"need 0 <= t <= n, got n={n}, t={t}")
    return sum(2**i * comb(n, i) for i in range(t + 1))
