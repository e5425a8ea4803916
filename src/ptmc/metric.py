"""Truncated metric on integer grids and toroidal grids.

The truncated distance rho between integer n-vectors u, v is the Hamming
distance h(u, v) when every coordinate offset lies in {-1, 0, 1}, and n+1
otherwise. Equivalently: rho is the graph distance restricted to pairs
sharing a unit cube, truncated to n+1 beyond that. All ball computations
here work on two finite ambient spaces:

  * a window: an axis-aligned box of Z^n, used for enumeration and debug;
  * a torus: Z^n quotiented by per-axis moduli, used for exact verification
    of periodic codes.

Either is a box that `Ambient` works out once: its low corner, extents
and row-major strides, with `Ambient.point` and `Ambient.index` mapping
between a vertex and its row-major index, whose order is lexicographic
order. Every module reads the box there. Torus arithmetic lives here too:
a vertex set is an int mask over the row-major index, and translating it
by a torus vector is one masked rotation per axis (`_rotate`, with the
wrapping rows from `_top_rows`); the tiling-instance mask sweep
`cover._sweep` and the verifier's per-class translates (`_translate`)
share that rule, the one translation rule here. The mask routines, with
the verifier's ball routine `_nearest_ball`, take the moduli as a tuple,
the torus's extents.

Coordinate differences on a torus are wrapped to the representative of
minimal absolute value; a tie (even modulus, offset exactly half) picks the
positive representative. Only |diff| <= 1 matters for rho, so the tie rule
is observable in debug output only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import accumulate, product, repeat
from math import comb, prod
from operator import add, eq, itemgetter, mod, mul, sub
from typing import Collection, Iterable, Iterator

Point = tuple[int, ...]


class DimensionMismatch(ValueError):
    """Operands live in different dimensions or ambient spaces."""


def _integers(values, what: str):
    """The values, refusing by name one that is not an int, as a float or bool."""
    for x in values:
        if type(x) is not int:
            raise ValueError(f"{what} {x!r} is not an integer")
    return values


@dataclass(frozen=True)
class Ambient:
    """A finite slice of Z^n: either a coordinate window or a torus.

    kind is "window" or "torus". A window carries per-axis inclusive
    (lo, hi) bounds; a torus carries per-axis moduli >= 1. Moduli 1 and 2
    are legal but degenerate for code verification (truncated balls
    self-overlap); verifiers refuse them.

    Either is a box, worked out at construction: low, its low corner;
    extents, hi - lo + 1 per axis or the moduli; strides, the weights of
    its row-major vertex index sum((v - low) * strides). They take no part
    in equality, hash or repr.
    """

    kind: str
    moduli: tuple[int, ...] | None = None
    bounds: tuple[tuple[int, int], ...] | None = None
    low: Point = field(init=False, compare=False, repr=False)
    extents: tuple[int, ...] = field(init=False, compare=False, repr=False)
    strides: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind == "torus":
            if not self.moduli or any(m < 1 for m in self.moduli):
                raise ValueError("torus moduli must be integers >= 1")
            if self.bounds is not None:
                raise ValueError("torus ambient takes no bounds")
            low, extents = (0,) * len(self.moduli), tuple(self.moduli)
        elif self.kind == "window":
            if not self.bounds or any(hi < lo for lo, hi in self.bounds):
                raise ValueError("window bounds must be nonempty per axis")
            if self.moduli is not None:
                raise ValueError("window ambient takes no moduli")
            low = tuple(lo for lo, _ in self.bounds)
            extents = tuple(hi - lo + 1 for lo, hi in self.bounds)
        else:
            raise ValueError(f"unknown ambient kind {self.kind!r}")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "strides", _strides(extents))

    @classmethod
    def torus(cls, *moduli: int) -> "Ambient":
        return cls(kind="torus", moduli=_integers(moduli, "torus modulus"))

    @classmethod
    def window(cls, *bounds: tuple[int, int]) -> "Ambient":
        return cls(kind="window",
                   bounds=tuple(_integers((a, b), "window bound") for a, b in bounds))

    @classmethod
    def around(cls, points: tuple[Point, ...]) -> "Ambient":
        """The points' bounding box grown by one per axis: no truncated
        ball around them is clipped."""
        return cls.window(*((min(c) - 1, max(c) + 1) for c in zip(*points)))

    @property
    def dimension(self) -> int:
        return len(self.extents)

    @property
    def is_torus(self) -> bool:
        return self.kind == "torus"

    @property
    def degenerate(self) -> bool:
        """True when truncated spheres can self-overlap (any modulus < 3)."""
        return self.kind != "torus" or any(m < 3 for m in self.moduli)

    def vertex_count(self) -> int:
        return prod(self.extents)

    def contains(self, p: Point) -> bool:
        return len(p) == self.dimension and all(
            0 <= x - lo < e for x, lo, e in zip(p, self.low, self.extents))

    def point(self, i: int) -> Point:
        """The vertex with row-major index i: the inverse of index."""
        return tuple(i // s % e + lo for lo, e, s in zip(self.low, self.extents, self.strides))

    def index(self, p: Point) -> int:
        """The row-major index of vertex p: the inverse of point."""
        return sum(map(mul, map(sub, p, self.low), self.strides))

    def wrap(self, p: Point) -> Point:
        """Reduce a raw integer vector to its canonical representative."""
        if self.is_torus:
            return tuple(map(mod, p, self.moduli))
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
        return self.wrap(tuple(map(add, p, z)))

    def vertices(self) -> Iterator[Point]:
        """All vertices in lexicographic order, each exactly once."""
        yield from product(*map(range, self.low, map(add, self.low, self.extents)))


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


def _indices(a: Ambient, vs: Collection[Point]) -> Iterable[int] | None:
    """The row-major index (`Ambient.index`) of each vertex of the
    collection vs, in its order, when every vertex lies in the ambient, else
    None. One pass per axis: the axis's column of coordinates is taken at C
    level, checked to hold only ints and, by min and max, to lie within the
    axis's bounds, and added times the axis's stride into the indices. The
    indices come as an iterator, summed only when read, so a caller that
    wants the check alone (`truncated_ball`) pays for no index. None leaves
    the verdict to the exact per-vertex scan: a vertex may be outside or of
    the wrong length, or a coordinate may not be an int, where min and max
    need not agree with the scan (NaN, strings)."""
    if not vs:
        return []
    if set(map(len, vs)) != {a.dimension}:
        return None
    index = repeat(-sum(map(mul, a.low, a.strides)))
    for i, (lo, e, s) in enumerate(zip(a.low, a.extents, a.strides)):
        # not zip(*vs), whose iterator per vertex sets off full garbage collections on large codes
        column = list(map(itemgetter(i), vs))
        if set(map(type, column)) != {int} or not lo <= min(column) <= max(column) < lo + e:
            return None
        index = map(add, index, column if s == 1 else map(mul, column, repeat(s)))
    return index


def truncated_ball(centers: tuple[Point, ...], t: int, a: Ambient) -> tuple[Point, ...]:
    """All ambient vertices at truncated distance <= t from the given set.

    Windows clip the ball to their bounds: the points are made once and
    checked per axis (`_indices`), and only a ball that check does not pass,
    one the window clips or one with a coordinate that is not an int, is
    filtered point by point. A window from `Ambient.around` never clips.
    Returned sorted lexicographically. A center of another dimension than
    the ambient raises DimensionMismatch.
    """
    if not centers:
        raise ValueError("truncated ball of an empty set")
    n = a.dimension
    if not 0 <= t <= n:
        raise ValueError(f"radius {t} outside [0, {n}]")
    if set(map(len, centers)) != {n}:
        bad = next(s for s in centers if len(s) != n)
        raise DimensionMismatch(f"center {bad} in ambient of dim {n}")
    moved = (tuple(map(add, s, d)) for group in _offsets(n, t) for s in centers for d in group)
    if a.is_torus:
        return tuple(sorted({tuple(map(mod, p, a.moduli)) for p in moved}))
    pts = set(moved)
    if _indices(a, pts) is None:
        pts = {p for p in pts if a.contains(p)}
    return tuple(sorted(pts))


@lru_cache(maxsize=64)
def _strides(moduli: tuple[int, ...]) -> tuple[int, ...]:
    """Per-axis weights of the row-major vertex index of a box of the given
    extents, the moduli on a torus; index order is lexicographic order."""
    return tuple(prod(moduli[i + 1:]) for i in range(len(moduli)))


@lru_cache(maxsize=1024)
def _index_steps(moduli: tuple[int, ...], t: int,
                 sides: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Row-major index steps of the offsets of weight 0..t, grouped by
    weight, from a torus vertex on the given side of each axis: -1 at
    coordinate 0, 1 at m - 1, else 0. A step off that side wraps round."""
    return tuple(tuple(sum((x - m * side if x == side else x) * k
                           for x, side, m, k in zip(d, sides, moduli, _strides(moduli)))
                       for d in group)
                 for group in _offsets(len(moduli), t))


def _nearest_ball(center: tuple[Point, ...], t: int, moduli: tuple[int, ...],
                  ties: list) -> dict[int, int]:
    """Each vertex within truncated distance t of a component, by its
    row-major index, mapped to its distance from the nearest center vertex,
    on a torus with moduli >= 3.

    There rho(p, s) is the weight of the unique d in {-1,0,1}^n with
    p = s + d, so walking center vertices x offsets in order of weight hits
    every vertex first at its nearest distance. A second hit at that same
    weight comes from another center vertex: its index goes to ties.
    """
    strides = _strides(moduli)
    # a center vertex with no coordinate on an edge row steps as the origin
    # does; only the others need their sides
    inner = _index_steps(moduli, t, (0,) * len(moduli))
    lasts = tuple(m - 1 for m in moduli)
    starts = [(sum(map(mul, s, strides)),
               _index_steps(moduli, t, tuple([(x == m) - (x == 0) for x, m in zip(s, lasts)]))
               if 0 in s or any(map(eq, s, lasts)) else inner)
              for s in center]
    ball: dict[int, int] = {}
    for w in range(t + 1):
        for i, steps in starts:
            for step in steps[w]:
                p = i + step
                if p not in ball:
                    ball[p] = w
                elif ball[p] == w:
                    ties.append(p)
    return ball


def _mask(positions) -> int:
    """The int with exactly the given bit positions set. Past 8 positions
    they are set in a bytearray, so a dense mask costs one pass over its
    length, not one per bit; up to 8, one shift-or per position is faster
    at every mask length from 64 bits to 8M bits, and 99% of the masks
    that the exact-cover instances of the hive-cover workload build have 2-8
    positions, nearly all 4."""
    ps = list(positions)
    if len(ps) <= 8:
        m = 0
        for p in ps:
            m |= 1 << p
        return m
    buf = bytearray((max(ps) >> 3) + 1)
    for p in ps:
        buf[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(buf, "little")


def _bits(mask: int) -> list[int]:
    """The bit positions set in mask >= 0, ascending: the inverse of _mask.
    The binary digits, least significant first, are split at each 1, so
    the k-th piece is the run of zeros below the k-th set bit and the
    positions are running sums of the pieces' lengths plus one: a mask of
    thousands of bits costs a few C-level passes, not a shift of the
    whole int per bit. On a few bits of a long mask a `str.find` per bit
    is faster, but the sweeps' masks of thousands of set bits, which
    this serves beside the cover instances' rows and candidates, gain
    more than those lose."""
    runs = bin(mask)[:1:-1].split("1")
    runs.pop()  # the zeros above the top set bit
    return list(accumulate(map(add, map(len, runs), repeat(1)), initial=-1))[1:]


def _repeat(block: int, width: int, times: int) -> int:
    """block's bits (block < 2**width) repeated times >= 1 times, width
    apart: doubled until there are enough copies, the spare ones shifted
    out, so no division by a repunit is made."""
    out, have = block, 1
    while have < times:
        out |= out << have * width
        have *= 2
    return out >> (have - times) * width


def _top_rows(m: int, s: int, c: int, size: int) -> int:
    """The mask, over size bits, of the row-major cells whose coordinate on
    the axis of modulus m and stride s is at least m - c: the cells that a
    translate by c along that axis wraps round. size may be a multiple of N
    = prod(moduli), for masks that hold blocks of N bits side by side."""
    return _repeat(((1 << c * s) - 1) << (m - c) * s, m * s, size // (m * s))


def _rotate(x: int, top: int, up: int, down: int) -> int:
    """A masked rotation: the bits of x in top move down by `down`, the
    others up by `up`. With top = _top_rows(m, s, c, size), up = c s and
    down = (m - c) s, this translates x by c along the axis."""
    t = x & top
    return (x ^ t) << up | t >> down


def _translate(x: int, z: Point, moduli: tuple[int, ...], tops: dict) -> int:
    """The mask x over row-major torus indices translated by the torus
    vector z: one masked rotation per nonzero coordinate of z. tops caches
    the _top_rows masks by (axis, z_i); it is emptied before it would hold
    more than 2**25 bits (4 MiB) or n masks, whichever is more, so a caller
    holds a bounded number of masks of N bits."""
    strides = _strides(moduli)
    size = moduli[0] * strides[0]
    for i, (c, m, s) in enumerate(zip(z, moduli, strides)):
        if c:
            top = tops.get((i, c))
            if top is None:
                if len(tops) >= max(len(moduli), (1 << 25) // size):
                    tops.clear()
                top = tops[i, c] = _top_rows(m, s, c, size)
            x = _rotate(x, top, c * s, (m - c) * s)
    return x


def ball_size_formula(n: int, t: int) -> int:
    """Cardinality of the truncated t-ball around a single vertex of Z^n.

    Equals sum over i = 0..t of 2^i * C(n, i): choose the i axes that move,
    each by +1 or -1.
    """
    if n < 0 or t < 0 or t > n:
        raise ValueError(f"need 0 <= t <= n, got n={n}, t={t}")
    return sum(2**i * comb(n, i) for i in range(t + 1))
