"""Code sets over grids and tori: components, translation classes, verifiers.

A code is a vertex subset S of a finite ambient. Its connected components
(under unit-step adjacency, wrapped on tori) are the truncated centers; a
radius assignment maps each translation class of components to a radius.
A code is held as its translation classes, found once per code: per class
key, the anchors where the key sits (row-major indices of the ambient's
box, `Ambient.index`), the vertices of the components the BFS walked and
whether the class wraps a torus axis. The BFS walks components root by root; on a torus, a class
met often enough that its walks cost as much as a mask sweep (about
N / 1024 components on N vertices, `_sweep_after`) has its other anchors
found at once by ANDing translates of the code's mask (`_sweep`), so a
periodic code's hundreds of repeats are never walked. `Component`
objects are built from the classes only when `components_of` is asked
for them; the verifier, the JSON functions and the CLI's counts read the
classes.
The main verifier checks that the truncated balls of the components
partition the ambient and that every vertex has a unique nearest code
vertex inside the component whose ball covers it. Every component of a
class is its key translated to the component's anchor, so when walking
every component's ball would cost more than translating masks, the
verifier builds one ball and translates it to the other anchors as masks
over the row-major vertex index (see `ptmc.metric`); else it builds each
component's own ball into a set.
`verify_partition` checks balls given as vertex sets, for the hive, the
compound region and `verify_cover`.

Verification of "infinite grid" claims happens exclusively on tori: a
periodic code projects onto a toroidal quotient without boundary effects,
so a toroidal pass is exact. Windows are supported for enumeration and
debugging only; the verifier reports them as degenerate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, product, repeat
from math import prod
from operator import add, floordiv, mod, mul, neg, sub
from typing import Collection, Iterable

from .graphs import Graph, _array
# truncated_ball is called nowhere here: perfbench/spans.py wraps this binding, which a test checks
from .metric import (Ambient, Point, _bits, _integers, _mask, _nearest_ball, _translate,
                     ball_size_formula, truncated_ball)

ClassKey = tuple[Point, ...]
# a translation class: its anchors as row-major indices, the vertices of
# the components the BFS walked (the first component's first; their anchors
# come first, in the same order, and any a sweep found follow), and whether
# its components wrap a torus axis
Class = tuple[list[int], list[tuple[Point, ...]], bool]


class MissingRadiusError(ValueError):
    """A component's translation class has no radius assigned."""


class ComponentWrapsTorus(ValueError):
    """A component spans a full torus axis; its box hull is undefined."""


@dataclass(frozen=True)
class CodeSet:
    """A duplicate-free vertex subset of one ambient, kept sorted."""

    ambient: Ambient
    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        # a stable sort keeps first occurrences, and is linear on sorted input
        vs = tuple(dict.fromkeys(sorted(self.vertices)))
        object.__setattr__(self, "vertices", vs)
        if not _inside(self.ambient, vs):
            for v in vs:  # sorted, so the smallest offender is named
                if not self.ambient.contains(_integers(v, f"vertex {v} coordinate")):
                    raise ValueError(f"vertex {v} outside ambient")

    def __len__(self) -> int:
        return len(self.vertices)

    # each cache is made once per code; the instance dict is not a field,
    # so equality and hash are unaffected

    @cached_property
    def _rows(self) -> dict[int, Point]:
        """Each vertex by its row-major index (`Ambient.index`, summed here
        inline): row-major order is the vertices' sorted order."""
        strides = self.ambient.strides
        base = sum(map(mul, self.ambient.low, strides))
        return {sum(map(mul, v, strides)) - base: v for v in self.vertices}

    @cached_property
    def _classes(self) -> dict[ClassKey, Class]:
        return _find_classes(self)

    @cached_property
    def _components(self) -> tuple[Component, ...]:
        return _assemble(self)


def _inside(a: Ambient, vs: tuple[Point, ...]) -> bool:
    """True when every vertex lies in the ambient, checked per axis by C-level
    min and max. False leaves the verdict to the exact per-vertex scan: a
    vertex may be outside or of the wrong length, or a coordinate may not be
    an int, where min and max need not agree with the scan (NaN, strings)."""
    if not vs:
        return True
    if set(map(len, vs)) != {a.dimension}:
        return False
    for column, lo, e in zip(zip(*vs), a.low, a.extents):
        if set(map(type, column)) != {int} or not lo <= min(column) <= max(column) < lo + e:
            return False
    return True


@dataclass(frozen=True)
class Component:
    """A maximal connected piece of a code, with its translation-class key.

    class_key is the component lifted to Z^n (unrolling torus wrap-around),
    translated so the coordinate-wise minimum is the origin, and sorted.
    Translates of a component share the key; differently oriented copies do
    not (translation classes, not isomorphism classes). A component that
    wraps an axis gets a translation-invariant fallback key and is flagged.

    anchor is where the key's origin sits: vertices is
    sorted(wrap(anchor + k) for k in class_key). It is the lift's minimum
    corner, wrapped, or for a wrapped component the vertex that its
    fallback key moves to the origin; it need not be a code vertex.

    A code keeps its translation classes, not its components: they are
    built from the classes by `components_of`, those a sweep found from
    the class's key and anchors.
    """

    vertices: tuple[Point, ...]
    class_key: ClassKey
    anchor: Point
    wrapped: bool = False

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def min_vertex(self) -> Point:
        return self.vertices[0]


@dataclass(frozen=True)
class KappaAssignment:
    """Radius per translation class, optionally uniform."""

    by_class: dict = field(default_factory=dict)
    uniform_radius: int | None = None

    @classmethod
    def uniform(cls, t: int) -> "KappaAssignment":
        return cls(by_class={}, uniform_radius=int(t))

    def radius_for(self, key: ClassKey) -> int:
        if key in self.by_class:
            return self.by_class[key]
        if self.uniform_radius is not None:
            return self.uniform_radius
        raise MissingRadiusError(f"no radius for class {key}")


@dataclass(frozen=True)
class BoxSpec:
    """Per-axis vertex extents of a full integer box component."""

    extents: tuple[int, ...]


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a verifier, with a recheckable witness on failure.

    kind on failure is one of: overlap, gap, nonunique-nearest, bad-radius,
    degenerate-ambient. Witnesses are the lexicographically smallest
    offending vertices; partitions report an overlap before a gap.
    """

    passed: bool
    kind: str | None = None
    witness: tuple = ()
    independent: bool | None = None

    def __bool__(self) -> bool:
        return self.passed


# ---------------------------------------------------------------------------
# components and translation classes
# ---------------------------------------------------------------------------

def components_of(code: CodeSet) -> list[Component]:
    """Partition a code into maximal connected pieces, sorted by min vertex.

    Adjacency is one unit step in exactly one axis, wrapped on tori. The
    components are built on first use from the code's translation classes
    (`_find_classes`, run once per code: a BFS that walks components root
    by root, except that on a torus a class that does not wrap is swept as
    masks once `_sweep_after(N)` of its components are walked): the walked
    ones as the BFS found them, the swept ones by placing the class's key
    at their anchors, as the code's own vertex objects, every component of
    a class sharing one key object. Each call returns a new list.
    """
    return list(code._components)


def component_count(code: CodeSet) -> int:
    """The number of components of a code, read from its translation
    classes without building a Component."""
    return sum(len(anchors) for anchors, _, _ in code._classes.values())


def _find_classes(code: CodeSet) -> dict[ClassKey, Class]:
    """The translation classes of a code, in the order of each class's first
    component's min vertex.

    One loop serves tori and windows. It takes roots in row-major order and
    lifts each root's component to Z^n by a BFS over row-major vertex
    indices, which steps by a stride, or back round the torus when the
    vertex's own coordinate is on the last (or first) row, and keeps each
    lift as one mixed-radix int. A lift conflict means the component wraps
    an axis. Translates that lift alike share one decoding of their key.
    On a torus, once the BFS has found `_sweep_after(N)` components of a
    class that does not wrap, `_sweep` finds the class's other anchors at
    once and marks their vertices, so the root scan skips them.
    """
    a = code.ambient
    n = a.dimension
    lows, extents, strides = a.low, a.extents, a.strides
    # a lift coordinate, relative to the root, lies within +-(len(code) - 1):
    # lifts held as digits of this radix, each biased by half of it, sort as
    # their vectors do
    radix = 2 * len(code) + 1
    weights = [radix ** (n - 1 - i) for i in range(n)]
    bias = sum(weights) * len(code)
    # (axis, edge coordinate, index step, index step off the edge or None
    # on a window, lift step) for the steps +1 and -1 along each axis
    moves = []
    for i, (lo, e, s, w) in enumerate(zip(lows, extents, strides, weights)):
        back = (e - 1) * s if a.is_torus else None  # from lo + e - 1 round to lo
        moves += [(i, lo + e - 1, s, back and -back, w), (i, lo, -s, back, -w)]
    member = code._rows
    lift: dict[int, int | None] = dict.fromkeys(member)  # None until reached
    absent = object()
    # lifts -> key, and the step from the root to the anchor, less the low corner
    decoded: dict[tuple[int, ...], tuple[ClassKey, Point]] = {}
    classes: dict[ClassKey, Class] = {}
    after = _sweep_after(a.vertex_count()) if a.is_torus else 0  # 0: never swept
    whole = None  # the code's mask, made at the first sweep
    tops: dict = {}
    for root, v0 in member.items():
        if lift[root] is not None:
            continue
        lift[root] = 0
        queue = [root]
        wrapped = False
        for p in queue:  # grows as it is walked
            v, lp = member[p], lift[p]
            for i, edge, step, off, dl in moves:
                if v[i] != edge:
                    q = p + step
                elif off is None:
                    continue
                else:
                    q = p + off
                lq = lift.get(q, absent)
                if lq is None:
                    lift[q] = lp + dl
                    queue.append(q)
                elif lq is not absent and lq != lp + dl:
                    wrapped = True
        verts = tuple(map(member.__getitem__, sorted(queue)))
        if wrapped:
            key, anchor = _wrapped_key(verts, a)
            at = a.index(anchor)
        else:
            lifts = tuple(sorted(map(lift.__getitem__, queue)))
            hit = decoded.get(lifts)
            if hit is None:
                digits = [[(x + bias) // w % radix for x in lifts] for w in weights]
                mins = [min(column) for column in digits]
                key = tuple(zip(*[[x - lo for x in column] for column, lo in zip(digits, mins)]))
                hit = decoded[lifts] = key, tuple(lo - len(code) - low
                                                  for lo, low in zip(mins, lows))
            key, shift = hit
            at = sum(map(mul, map(mod, map(add, v0, shift), extents), strides))
        group = classes.get(key)
        if group is None:
            classes[key] = ([at], [verts], wrapped)
            continue
        anchors, walked, _ = group
        anchors.append(at)
        walked.append(verts)
        if len(anchors) == after and not wrapped:
            if whole is None:
                whole = _mask(member)
            found, covered = _sweep(whole, key, anchors, extents, tops)
            anchors += found
            lift.update(dict.fromkeys(covered, 0))
    return classes


def _sweep_after(size: int) -> int:
    """How many components of a class that does not wrap the BFS walks on
    a torus of size vertices before `_sweep` finds the rest: a ski rental,
    which rents (walks) until the rent paid would buy (sweep).

    Walking a component of key K takes 2n|K| steps, a step being one
    neighbour looked up, and a sweep makes at most (2n + 2)|K| translates
    of size bits, as the rim of K has at most 2n|K| points. A masked
    translate of size bits takes about 12 steps plus one per 1,024 bits
    (3 us plus 0.39 us per 1,024 bits, against 0.25 us a step, on tori of
    108 to 1,000,000 vertices), so a sweep costs about as much as walking
    size / 1024 components once the tori are large, whatever the key. On
    small ones the 12 steps dominate: the floor of 16 keeps a class of 8
    components on a 648-vertex torus, as a cube-singleton n = 4 build
    makes, from being swept for nothing."""
    return max(16, size >> 10)


def _sweep(whole: int, key: ClassKey, found: list[int], moduli: tuple[int, ...],
           tops: dict) -> tuple[list[int], list[int]]:
    """The anchors (row-major indices) of the components of a class that
    does not wrap, other than those found, and the indices of their
    vertices, given the code's mask on a torus.

    x is an anchor exactly when x + K lies in the code and no point of the
    rim (the lattice neighbours of K outside K) does: the bits of
    AND_k T_-k(code) AND NOT OR_b T_-b(code), from all ones, as an anchor
    need not be a code vertex. Such an x + K is a whole component of the
    class: it is connected, and no code vertex is next to it. Its lift is
    K, since a rim point whose image met the key's would be a lift
    conflict, and the class does not wrap. The found anchors are then
    cleared, and the vertices are the union of the anchors translated by
    each k: |K| + |rim| translates of the code, and |K| of the anchors."""
    inside = (1 << prod(moduli)) - 1
    for k in key:
        inside &= _translate(whole, tuple(map(mod, map(neg, k), moduli)), moduli, tops)
    keys = set(key)
    touched = 0
    for b in {k[:i] + (k[i] + d,) + k[i + 1:]
              for k in key for i in range(len(k)) for d in (1, -1)} - keys:
        touched |= _translate(whole, tuple(map(mod, map(neg, b), moduli)), moduli, tops)
    anchors = inside ^ (inside & touched) ^ _mask(found)
    covered = 0
    for k in key:
        covered |= _translate(anchors, tuple(map(mod, k, moduli)), moduli, tops)
    return _bits(anchors), _bits(covered)


def _placed(code: CodeSet, key: ClassKey,
            anchors: list[int]) -> list[tuple[tuple[Point, ...], Point]]:
    """The vertices of the components of one class at the given anchors
    (row-major indices on a torus), as the code's own vertex objects, each
    with its anchor point, in anchor order: the vertices at anchor p are
    sorted(wrap(p + k) for k in key). Built a coordinate column at a time:
    the anchors' coordinates, then for each key point k the indices of
    every wrap(p + k)."""
    moduli, strides = code.ambient.extents, code.ambient.strides
    columns = [list(map(mod, map(floordiv, anchors, repeat(s)), repeat(m)))
               for s, m in zip(strides, moduli)]
    at = []
    for k in key:
        index = repeat(0)
        for column, d, s, m in zip(columns, k, strides, moduli):
            index = map(add, index, map(mul, map(mod, map(add, column, repeat(d)), repeat(m)),
                                        repeat(s)))
        at.append(index)
    rows = code._rows
    return list(zip([tuple(map(rows.__getitem__, sorted(x))) for x in zip(*at)], zip(*columns)))


def _assemble(code: CodeSet) -> tuple[Component, ...]:
    """The code's components, built from its classes, by min vertex: those
    the BFS walked from their vertices and anchors, the others placed."""
    point = code.ambient.point
    comps = []
    for key, (anchors, walked, wrapped) in code._classes.items():
        comps += [(verts, key, point(x), wrapped) for verts, x in zip(walked, anchors)]
        if len(anchors) > len(walked):
            comps += [(verts, key, anchor, wrapped)
                      for verts, anchor in _placed(code, key, anchors[len(walked):])]
    comps.sort()
    return tuple(Component(*c) for c in comps)


def _wrapped_key(verts: tuple[Point, ...], a: Ambient) -> tuple[ClassKey, Point]:
    """The fallback key of a component that wraps an axis, the least
    translate that moves one of its vertices to the origin, and that vertex,
    the first in order to give it."""
    best = anchor = None
    for v in verts:
        shifted = tuple(sorted(a.wrap(tuple(map(sub, u, v))) for u in verts))
        if best is None or shifted < best:
            best, anchor = shifted, v
    return best, anchor


def box_hull_check(comp: Component) -> BoxSpec | None:
    """BoxSpec iff the component fills the integer box spanned by its lift.

    Returns None for non-box components. Components wrapping a torus axis
    are rejected outright: their hull is not defined.
    """
    if comp.wrapped:
        raise ComponentWrapsTorus(f"component at {comp.min_vertex} wraps a torus axis")
    pts = comp.class_key  # already min-corner normalized
    n = len(pts[0])
    extents = tuple(max(p[i] for p in pts) + 1 for i in range(n))
    vol = 1
    for e in extents:
        vol *= e
    if vol != len(pts):
        return None
    return BoxSpec(extents)


# ---------------------------------------------------------------------------
# PTMC verifiers
# ---------------------------------------------------------------------------

def verify_partition(balls: Iterable, vertices: Collection) -> VerifyReport:
    """Check that balls, each inside a vertex collection, partition it.

    A ball (a set, a dict, a tuple) lists each vertex once. An overlap is
    reported before a gap: the witness is the smallest vertex in two balls,
    else the first vertex of `vertices` in none. `vertices` is only scanned
    when the balls cover fewer than len(vertices) vertices.
    """
    covered: set = set()
    overlap = None
    for ball in balls:
        if not covered.isdisjoint(ball):
            twice = min(covered.intersection(ball))
            if overlap is None or twice < overlap:
                overlap = twice
        covered.update(ball)
    if overlap is not None:
        return VerifyReport(False, "overlap", (overlap,))
    if len(covered) != len(vertices):
        for v in vertices:
            if v not in covered:
                return VerifyReport(False, "gap", (v,))
    return VerifyReport(passed=True)


def verify_kappa_ptmc(code: CodeSet, kappa: KappaAssignment) -> VerifyReport:
    """Check that a code is a perfect truncated-metric code.

    Pass requires, over the toroidal ambient:
      1. the truncated balls of the components are pairwise disjoint and
         cover every vertex;
      2. every vertex has a unique nearest code vertex within the component
         whose ball covers it.
    For a uniform radius, condition 2 combined with the partition is
    equivalent to a globally unique nearest code vertex: a cross-component
    tie at distance <= t would put the vertex in two balls. With differing
    radii the per-component reading is the one under which the two-radius
    constructions are perfect, so that is what is checked.

    Every radius is checked against [1, n] before any ball is built. Then
    each translation class is checked whichever of two ways costs less
    (`_swept`, judged from its first component's ball). Swept as row-major
    masks of N = prod(moduli) bits: its components are the translates of
    its first one by the differences of their anchors, so their balls are
    the translates of that ball, ties and all: the mask of the longer of
    the anchor list and that ball is translated by each point of the
    shorter less the first component's anchor. Else ball by ball: each
    component's own ball (`_nearest_ball`) goes into a set, as
    `verify_partition` does; a class whose anchors the component finder
    swept always goes as masks, so each of these components was walked
    and its vertices are at hand. The verifier reads the code's
    translation classes and builds no `Component`. A vertex in two balls,
    of one class or two, is an overlap. The verifier holds a bounded
    number of masks of N bits at a time, and the set of vertices in the
    balls of the classes checked ball by ball.

    Failures are checked in this order: degenerate ambient, bad radius
    (the first component in min-vertex order), overlap, gap, nonunique
    nearest. The witness is the lexicographically smallest offending vertex
    (for a gap, the first uncovered vertex in lexicographic order). Tori
    with any modulus < 3 (and windows) are refused as degenerate: truncated
    balls would self-overlap or be clipped.
    """
    a = code.ambient
    if a.degenerate:
        return VerifyReport(False, "degenerate-ambient")
    n, moduli, size = a.dimension, a.extents, a.vertex_count()
    classes = code._classes
    radii = [kappa.radius_for(key) for key in classes]
    for t, (_, walked, _) in zip(radii, classes.values()):
        if not 1 <= t <= n:
            return VerifyReport(False, "bad-radius", (walked[0][0],))
    tops: dict = {}
    # masks of the classes swept as masks, and their overlaps and ties
    covered = overlap = tied = 0
    # the vertices of the classes checked ball by ball, the least vertex
    # of each ball's overlap with them, and their ties
    loose: set[int] = set()
    twice: list[int] = []
    ties_at: list[int] = []
    for t, (anchors, walked, _) in zip(radii, classes.values()):
        first = walked[0]
        ties: list[int] = []
        ball = list(_nearest_ball(first, t, moduli, ties))
        ties = list(dict.fromkeys(ties))
        if _swept(len(anchors), len(first), ball_size_formula(n, t), len(ball), size):
            origin = a.point(anchors[0])  # the first component's anchor
            union, doubled = _sum_masks(anchors, ball, origin, a, tops)
            overlap |= doubled | covered & union
            covered |= union
            if ties:
                tied |= _sum_masks(anchors, ties, origin, a, tops)[0]
            continue
        ties_at += ties
        # the first component's ball is built above; the order of the others
        # does not matter, as each witness is the least of its kind. Every
        # component was walked: a class the finder swept has over
        # _sweep_after(N) >= N / 1024 anchors, so `_swept` takes it as masks
        for ball in chain([ball], (_nearest_ball(verts, t, moduli, ties_at)
                                   for verts in walked[1:])):
            if not loose.isdisjoint(ball):
                twice.append(min(loose.intersection(ball)))
            loose.update(ball)
    spread = _mask(loose)
    w = _least(overlap | covered & spread, twice)
    if w is not None:
        return VerifyReport(False, "overlap", (a.point(w),))
    covered |= spread
    if covered.bit_count() != size:
        return VerifyReport(False, "gap", (a.point(_least(~covered & (covered + 1), [])),))
    w = _least(tied, ties_at)
    if w is not None:
        return VerifyReport(False, "nonunique-nearest", (a.point(w),))
    return VerifyReport(passed=True)


def _swept(anchors: int, key: int, offsets: int, ball: int, size: int) -> bool:
    """Whether a class of that many anchors, each component of key
    vertices, is checked as masks of size bits rather than ball by ball,
    given its first component's ball and the offsets per key vertex
    (ball_size_formula(n, t)). Masks cost min(anchors, ball) translates of
    size bits. Ball by ball builds anchors balls, each walking every key
    vertex's offsets, most of which land on vertices already reached: that
    is anchors x key x offsets steps, and a step takes about as long as a
    masked translate of 1,024 bits. Ball vertices alone understate it for
    large keys: 240,000 vertices, a 64-vertex key, 128 anchors and radius
    3 take 64 ms ball by ball and 10 ms as masks. Over a grid of n = 3
    tori of 24,000 to 2,400,000 vertices, 1-1,024 anchors, keys of 1-64
    vertices and radius 1 and 3, the side this rule picks is 1.4% slower
    than the faster side, summed; a rule on anchors and ball vertices
    picked one 31.2% slower."""
    return anchors * key * offsets << 10 >= min(anchors, ball) * size


def _sum_masks(xs: list[int], ys: list[int], origin: Point, a: Ambient,
               tops: dict) -> tuple[int, int]:
    """The mask of the vertices x + y - origin of the torus a, x in xs and
    y in ys (distinct row-major indices, added as vectors), and the mask of those
    reached more than once. The mask of the longer list is translated by
    each point of the shorter, moved by -origin: min(len(xs), len(ys))
    translates."""
    if len(xs) > len(ys):
        xs, ys = ys, xs
    base = _mask(ys)
    union = twice = 0
    for x in xs:
        moved = _translate(base, a.wrap(tuple(map(sub, a.point(x), origin))), a.extents, tops)
        twice |= union & moved
        union |= moved
    return union, twice


def _least(mask: int, more: list[int]) -> int | None:
    """The least of the bit positions set in mask and the positions in
    more, or None if there are none."""
    if mask:
        more = [*more, (mask & -mask).bit_length() - 1]
    return min(more, default=None)


def verify_t_ptmc(code: CodeSet, t: int) -> VerifyReport:
    """verify_kappa_ptmc with one radius for every class."""
    return verify_kappa_ptmc(code, KappaAssignment.uniform(t))


def _dominate(s: Iterable, g: Graph, accepts) -> tuple[set, VerifyReport]:
    """The positions in g.vertices of S, as a set, and the report of the
    domination scan behind the PDS verifiers. The first vertex of S, in the
    order given, that is not in g raises ValueError. The scan reads
    neighbours by position; the report fails at the first vertex of g
    outside S whose neighbour positions in S, a list, `accepts` rejects: a
    gap if it has none, else an overlap."""
    pos = g._pos
    inside = set()
    for v in s:
        i = pos.get(v)
        if i is None:
            raise ValueError(f"code vertex {v!r} not in graph")
        inside.add(i)
    for i, ns in enumerate(g._nbrs):
        if i not in inside:
            seen = [j for j in ns if j in inside]
            if not accepts(seen):
                return inside, VerifyReport(False, "overlap" if seen else "gap", (g.vertices[i],))
    return inside, VerifyReport(passed=True)


def verify_pds(s: Iterable, g: Graph) -> VerifyReport:
    """Perfect dominating set check on an arbitrary finite graph.

    Pass iff every vertex outside S is adjacent to exactly one vertex of S.
    The report's `independent` flag states whether S induces no edges
    (an isolated PDS, also known as an efficient dominating set).
    """
    inside, rep = _dominate(s, g, lambda seen: len(seen) == 1)
    return replace(rep, independent=all(inside.isdisjoint(g._nbrs[i]) for i in inside))


def verify_non_isolated_pds(s: Iterable, g: Graph) -> VerifyReport:
    """Relaxed domination for edge-disjoint unions of triangles.

    Pass iff every vertex outside S is adjacent either to exactly one
    vertex of S, or to exactly two vertices of S joined by an edge.
    """
    nbrs = g._nbrs
    return _dominate(s, g, lambda seen: len(seen) == 1
                     or len(seen) == 2 and seen[1] in nbrs[seen[0]])[1]


# ---------------------------------------------------------------------------
# torus inflation
# ---------------------------------------------------------------------------

def inflate_code(code: CodeSet, multipliers: tuple[int, ...]) -> CodeSet:
    """Pull a toroidal code back through the projection that divides moduli.

    The target torus has moduli m_i * k_i; the result is the full preimage
    of the code, with component count multiplied by the product of the k_i.
    Verification verdicts are expected to transfer but are never assumed:
    callers re-verify.
    """
    a = code.ambient
    if not a.is_torus:
        raise ValueError("inflation is defined for toroidal codes")
    if len(multipliers) != a.dimension or any(k < 1 for k in multipliers):
        raise ValueError("need one multiplier >= 1 per axis")
    big = Ambient.torus(*(m * k for m, k in zip(a.moduli, multipliers)))
    verts = []
    for v in code.vertices:
        for js in product(*(range(k) for k in multipliers)):
            verts.append(tuple(x + j * m for x, j, m in zip(v, js, a.moduli)))
    return CodeSet(big, tuple(verts))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def class_key_hash(key: ClassKey) -> str:
    """Stable 12-hex-digit identifier of a translation class."""
    blob = json.dumps([list(p) for p in key], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def code_to_json(code: CodeSet, kappa: KappaAssignment) -> dict:
    """Canonical JSON document for a code set; diff-stable ordering."""
    a = code.ambient
    ambient = {"kind": a.kind}
    if a.is_torus:
        ambient["moduli"] = list(a.moduli)
    else:
        ambient["bounds"] = [list(b) for b in a.bounds]
    # one hash per class, not per component
    radii = {class_key_hash(key): kappa.radius_for(key) for key in code._classes}
    return {"ambient": ambient, "vertices": [list(v) for v in code.vertices],
            "kappa": {h: radii[h] for h in sorted(radii)}}


def code_from_json(doc: dict) -> tuple[CodeSet, KappaAssignment | None]:
    """The code and radius map (None without "kappa") of a code document.
    An ambient kind other than torus or window, or a vertex listed twice,
    raises ValueError; a "kappa" that is not an object, TypeError."""
    amb = doc["ambient"]
    if amb["kind"] == "torus":
        a = Ambient.torus(*amb["moduli"])
    elif amb["kind"] == "window":
        a = Ambient.window(*(tuple(_array(b, 2)) for b in _array(amb["bounds"])))
    else:
        raise ValueError(f"unknown ambient kind {amb['kind']!r}")
    verts = [tuple(v) for v in _array(doc["vertices"])]
    code = CodeSet(a, tuple(verts))
    if len(code) != len(verts):  # CodeSet keeps one of each repeat
        seen = set()
        for v in verts:
            if v in seen:
                raise ValueError(f"duplicate vertex {v}")
            seen.add(v)
    if "kappa" not in doc:
        return code, None
    by_hash = doc["kappa"]
    if not isinstance(by_hash, dict):
        raise TypeError(f"kappa {by_hash!r} is not an object")
    by_class = {}
    for key, (_, walked, _) in code._classes.items():
        h = class_key_hash(key)
        if h not in by_hash:
            raise MissingRadiusError(f"kappa entry {h} missing for class of {walked[0][0]}")
        (by_class[key],) = _integers((by_hash[h],), f"kappa entry {h} radius")
    return code, KappaAssignment(by_class=by_class)
