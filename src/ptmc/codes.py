"""Code sets over grids and tori: components, translation classes, verifiers.

A code is a vertex subset S of a finite ambient. Its connected components
(under unit-step adjacency, wrapped on tori) are the truncated centers; a
radius assignment maps each translation class of components to a radius.
A code is loaded in one pass per axis (`metric._indices`), which checks its
sorted vertices and works out their row-major indices, ascending as the
vertices are; repeats are found among neighbours. The code's mask and its
index-to-vertex dict, which only the class finder's BFS and `_placed`
read, are made from those indices.
A code is held as its translation classes, found once per code on the
torus it is checked on (`CodeSet._checked`, below): per class key, the
anchors where the key sits (row-major indices of that torus's box,
`Ambient.index`), the vertices of the component at the first anchor and
whether the class wraps a torus axis. Every other component is the key
placed at its anchor (`_placed`). The BFS walks components root by
root; on a torus, a class met often enough that its walks cost as much as
a mask sweep (about N / 1024 components on N vertices, `_sweep_after`)
has its other anchors found at once by ANDing translates of the code's
mask (`_sweep`), so the hundreds of repeats of a class in a code that
does not fold (below) are never walked. The verifier, the JSON functions
and the CLI's counts read the classes; `components_of` lists each
component's vertices from them, over every period translate.
The main verifier checks that the truncated balls of the components
partition the ambient and that every vertex has a unique nearest code
vertex inside the component whose ball covers it. Every component of a
class is its key translated to the component's anchor, so the verifier
builds one ball per class and translates it to the other anchors as masks
over the row-major vertex index (see `ptmc.metric`).
`verify_partition` checks balls given as vertex sets, for the hive, the
compound region and `verify_cover`.

Verification of "infinite grid" claims happens exclusively on tori: a
periodic code projects onto a toroidal quotient without boundary effects,
so a toroidal pass is exact. Windows are supported for enumeration and
debugging only; the verifier reports them as degenerate.

The same holds between tori. A torus code works out its least axis
periods d_i | m_i, d_i >= 3, once (`_periods`), and folds onto the torus
(d_1, ..., d_n) when every d_i >= 3 and every folded class key has max
coordinate <= d_i - 3 (`_fold`), so that each ball maps one-to-one onto
either torus; a folded class that wraps fails that bound. The code is then
perfect exactly when its fold is, with the same witness. The fold is the
code it is checked on: its classes are the code's, each anchor standing
for its N / N' period translates (N and N' the vertex counts of the two
tori). A fold's first component of a class holds the class's least
vertex, as the least vertex of a d-periodic set lies in [0, d). A code
that does not fold is checked on its whole torus.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import compress, islice, product, repeat
from math import prod
from operator import add, floordiv, mod, mul, ne, neg, sub
from typing import Collection, Iterable

from .graphs import Graph, _array
# truncated_ball is called nowhere here: perfbench/spans.py wraps this binding, which a test checks
from .metric import (Ambient, Point, _bits, _indices, _integers, _mask, _nearest_ball, _repeat,
                     _translate, truncated_ball)

# a component lifted to Z^n (torus wrap-around unrolled), moved so that its
# coordinate-wise minimum is the origin, and sorted: translates share it,
# other orientations do not; a component that wraps an axis has the
# translation-invariant fallback key of `_wrapped_key`
ClassKey = tuple[Point, ...]
# a translation class: its anchors as row-major indices of the torus the
# code is checked on (`CodeSet._checked`), the sorted vertices of the
# component at the first anchor, the one its key was read from, and
# whether its components wrap a torus axis
Class = tuple[list[int], tuple[Point, ...], bool]


class MissingRadiusError(ValueError):
    """A component's translation class has no radius assigned."""


class ComponentWrapsTorus(ValueError):
    """A class's components span a full torus axis; its box hull is undefined."""


@dataclass(frozen=True)
class CodeSet:
    """A duplicate-free vertex subset of one ambient, kept sorted.

    indices holds each vertex's row-major index (`Ambient.index`), worked
    out in the column pass that checks the vertices (`metric._indices`).
    Row-major order is sorted order, so the indices ascend, and a repeat
    has the same index as its neighbour. It takes no part in equality,
    hash or repr."""

    ambient: Ambient
    vertices: tuple[Point, ...]
    indices: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        vs = sorted(self.vertices)  # stable, so a repeat follows its first occurrence
        index = _indices(self.ambient, vs)
        if index is None:
            for v in vs:  # sorted, so the smallest offender is named
                if not self.ambient.contains(_integers(v, f"vertex {v} coordinate")):
                    raise ValueError(f"vertex {v} outside ambient")
        index = tuple(index)
        if not all(map(ne, islice(index, 1, None), index)):
            keep = [True, *map(ne, islice(index, 1, None), index)]
            vs, index = list(compress(vs, keep)), tuple(compress(index, keep))
        object.__setattr__(self, "vertices", tuple(vs))
        object.__setattr__(self, "indices", index)

    def __len__(self) -> int:
        return len(self.vertices)

    # each cache is made once per code; the instance dict is not a field,
    # so equality and hash are unaffected

    @cached_property
    def _rows(self) -> dict[int, Point]:
        """Each vertex by its row-major index, for the class finder's BFS
        and `_placed`."""
        return dict(zip(self.indices, self.vertices))

    @cached_property
    def _whole(self) -> int:
        """The code's mask over row-major indices."""
        return _mask(self.indices)

    @cached_property
    def _quotient(self) -> CodeSet | None:
        return _fold(self)

    @property
    def _checked(self) -> CodeSet:
        """The code the classes are found and verified on: the fold, else the
        code itself. Not cached: a code that held itself would outlive its
        last reference until a cyclic garbage collection."""
        quotient = self._quotient
        return self if quotient is None else quotient

    @cached_property
    def _classes(self) -> dict[ClassKey, Class]:
        checked = self._checked
        return _find_classes(self) if checked is self else checked._classes


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

def components_of(code: CodeSet) -> list[tuple[Point, ...]]:
    """The sorted vertices of each maximal connected piece of a code,
    sorted by min vertex.

    Adjacency is one unit step in exactly one axis, wrapped on tori. The
    list is built on each call from the code's translation classes
    (`CodeSet._classes`, found once per code on `CodeSet._checked`): each
    class key placed (`_placed`) at each of its anchors plus each period
    step, as the code's own vertex objects.
    """
    a, b = code.ambient, code._checked.ambient
    steps = [0]  # from a vertex of the checked torus to its period translates
    for d, m, s in zip(b.extents, a.extents, a.strides):
        steps = [x + j * d * s for x in steps for j in range(m // d)]
    comps = []
    for key, (anchors, _, _) in code._classes.items():
        comps += _placed(code, key, [x + step for x in map(a.index, map(b.point, anchors))
                                     for step in steps])
    comps.sort()
    return comps


def component_count(code: CodeSet) -> int:
    """The number of components of a code, read from its translation
    classes without listing the components: N / N' per anchor, N and N'
    the vertex counts of its ambient and of `CodeSet._checked`'s."""
    copies = code.ambient.vertex_count() // code._checked.ambient.vertex_count()
    return copies * sum(len(anchors) for anchors, _, _ in code._classes.values())


def _find_classes(code: CodeSet) -> dict[ClassKey, Class]:
    """The translation classes of a code, in the order of each class's first
    component's min vertex, found on its whole ambient. `CodeSet._classes`
    calls it once per code, on the code it is checked on (`CodeSet._checked`):
    the fold (`_fold`), else the code itself.

    One loop serves tori and windows. It takes roots in row-major order and
    lifts each root's component to Z^n by a BFS over row-major vertex
    indices, which steps by a stride, or back round the torus when the
    vertex's own coordinate is on the last (or first) row, and keeps each
    lift as one mixed-radix int. A lift conflict means the component wraps
    an axis. Translates that lift alike share one decoding of their key.
    Only a class's first component and a component that wraps (its key is
    read from its vertices) are made vertex tuples; the others keep their
    anchor alone. On a torus, once the BFS has found
    `_sweep_after(N)` components of a class that does not wrap, `_sweep`
    finds the class's other anchors at once and marks their vertices, so
    the root scan skips them.
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
        verts = None
        if wrapped:
            verts = tuple(map(member.__getitem__, sorted(queue)))
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
            if verts is None:
                verts = tuple(map(member.__getitem__, sorted(queue)))
            classes[key] = ([at], verts, wrapped)
            continue
        anchors = group[0]
        anchors.append(at)
        if len(anchors) == after and not wrapped:
            found, covered = _sweep(code._whole, key, anchors, extents, tops)
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
    each k: |K| + |rim| translates of the code, and |K| of the anchors.
    The vertices only mark what the BFS skips: the class keeps the anchors,
    and `_placed` makes a component from one when it is asked for."""
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


def _placed(code: CodeSet, key: ClassKey, anchors: list[int]) -> list[tuple[Point, ...]]:
    """The sorted vertices of the components of a class at the given
    anchors (row-major indices), as the code's own vertex objects, in
    anchor order: at anchor p, wrap(p + k) for each key point k. Built a
    column at a time: per axis the anchors' coordinates, then per key point
    k one column of row-major indices, each axis wrapped with one
    map(mod, ...), and each component's indices looked up in
    `CodeSet._rows`. On a window the components lie inside, so mod leaves
    them as they are."""
    extents, strides = code.ambient.extents, code.ambient.strides
    columns = [list(map(mod, map(floordiv, anchors, repeat(s)), repeat(e)))
               for e, s in zip(extents, strides)]
    at = []
    for k in key:
        index = repeat(0)
        for column, d, e, s in zip(columns, k, extents, strides):
            index = map(add, index, map(mul, map(mod, map(add, column, repeat(d)), repeat(e)),
                                        repeat(s)))
        at.append(index)
    rows = code._rows.__getitem__
    return [tuple(map(rows, sorted(x))) for x in zip(*at)]


# ---------------------------------------------------------------------------
# the fold onto one period
# ---------------------------------------------------------------------------

def _periods(code: CodeSet) -> tuple[int, ...]:
    """Per axis of a torus, the least d | m with d >= 3 and code + d e_i =
    code, else m: one masked translate of the code's mask per divisor
    tried. A divisor is skipped when m / d does not divide len(code), as a
    code of period d is m / d translates of its vertices below d."""
    moduli, whole = code.ambient.extents, code._whole
    tops: dict = {}
    periods = []
    for i, m in enumerate(moduli):
        for d in range(3, m // 2 + 1):
            if m % d == 0 and len(code) % (m // d) == 0 and _translate(
                    whole, (0,) * i + (d,) + (0,) * (len(moduli) - i - 1), moduli, tops) == whole:
                break
        else:
            d = m
        periods.append(d)
    return tuple(periods)


def _fold(code: CodeSet) -> CodeSet | None:
    """The code on the torus of its least axis periods d (`_periods`), when
    that is checked in its place, else None.

    The folded code is the code's vertices inside the box [0, d), taken by
    position. It stands for the code when every d_i >= 3, which `_periods`
    ensures, and every key of its classes has max coordinate <= d_i - 3 on
    each axis, so that a component's ball, at most the key grown by one
    each way, maps one-to-one onto either torus. No folded class that wraps
    passes that bound: it winds round some axis j, so it holds a vertex in
    every row of that axis, and its key reaches d_j - 1 there. Then
    the code's components are the period translates of the folded ones and
    their balls the translates of theirs, so a vertex lies in as many balls,
    with as many nearest vertices, as its image does: the code is perfect
    exactly when the folded code is. Every failing set is d-periodic, and x
    mod d <= x, so its least vertex, the witness, lies in [0, d) on both."""
    a = code.ambient
    if a.degenerate:
        return None
    periods = _periods(code)
    if periods == a.extents:
        return None
    # the rows below d_i on each axis: the low d_0 s_0 bits, then, within
    # them, the low d_i s_i bits in every block of m_i s_i
    size = periods[0] * a.strides[0]
    box = code._whole & ((1 << size) - 1)
    for d, m, s in zip(periods[1:], a.extents[1:], a.strides[1:]):
        box &= _repeat((1 << d * s) - 1, m * s, size // (m * s))
    # the box's vertices by position: the indices ascend
    at = map(bisect_left, repeat(code.indices), _bits(box))
    folded = CodeSet(Ambient.torus(*periods), tuple(map(code.vertices.__getitem__, at)))
    for key in folded._classes:
        if any(max(column) > d - 3 for column, d in zip(zip(*key), periods)):
            return None
    return folded


def _wrapped_key(verts: tuple[Point, ...], a: Ambient) -> tuple[ClassKey, Point]:
    """The fallback key of a component that wraps an axis, the least
    translate that moves one of its vertices to the origin, and that vertex,
    the first in order to give it.

    Each translate is sorted as the row-major indices of its wrapped
    differences, one int per vertex, which sort as the differences do;
    only the least is decoded. It is still quadratic in the component's
    size: one translate per vertex."""
    columns = list(zip(*verts))
    best = anchor = None
    for v in verts:
        shifted = [0] * len(verts)
        for column, x0, m, s in zip(columns, v, a.extents, a.strides):
            shifted = list(map(add, shifted, [(x - x0) % m * s for x in column]))
        shifted.sort()
        if best is None or shifted < best:
            best, anchor = shifted, v
    return tuple(map(a.point, best)), anchor


def box_hull_check(key: ClassKey, wrapped: bool) -> tuple[int, ...] | None:
    """The per-axis extents of a class key that fills the integer box it
    spans, else None: every component of the class is then that box.

    A class that wraps a torus axis is rejected outright: its hull is not
    defined.
    """
    if wrapped:
        raise ComponentWrapsTorus(f"class {key} wraps a torus axis")
    extents = tuple(max(column) + 1 for column in zip(*key))  # the key's minimum is the origin
    return extents if prod(extents) == len(key) else None


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

    The check runs on `CodeSet._checked` (`_verify_classes`): a periodic
    code that folds onto the torus of its least axis periods d (`_fold`:
    every d_i >= 3, every key's max coordinate <= d_i - 3) is checked on
    one period, and its fold's report is the whole torus's, witness
    included: every failing set is d-periodic, so its least vertex lies in
    [0, d). Any other code is checked on its whole torus, as follows.

    Every radius is checked against [1, n] before any ball is built. Then
    each translation class is checked as row-major masks of N =
    prod(moduli) bits: its components are the translates of its first one
    by the differences of their anchors, so their balls are the translates
    of that ball (`_nearest_ball`), ties and all: the mask of the longer of
    the anchor list and that ball is translated by each point of the
    shorter less the first component's anchor. A vertex in two balls, of
    one class or two, is an overlap. The verifier holds a bounded number of
    masks of N bits at a time.

    Failures are checked in this order: degenerate ambient, bad radius
    (the first component in min-vertex order), overlap, gap, nonunique
    nearest. The witness is the lexicographically smallest offending vertex
    (for a gap, the first uncovered vertex in lexicographic order). Tori
    with any modulus < 3 (and windows) are refused as degenerate: truncated
    balls would self-overlap or be clipped.
    """
    return _verify_classes(code._checked, kappa)


def _verify_classes(code: CodeSet, kappa: KappaAssignment) -> VerifyReport:
    """verify_kappa_ptmc on the code's own ambient, from its classes, for a
    code that is its own `CodeSet._checked`: a fold, or a code that does
    not fold. Its anchors then lie on its own ambient."""
    a = code.ambient
    if a.degenerate:
        return VerifyReport(False, "degenerate-ambient")
    n, moduli, size = a.dimension, a.extents, a.vertex_count()
    classes = code._classes
    radii = [kappa.radius_for(key) for key in classes]
    for t, (_, first, _) in zip(radii, classes.values()):
        if not 1 <= t <= n:
            return VerifyReport(False, "bad-radius", (first[0],))
    tops: dict = {}
    covered = overlap = tied = 0
    for t, (anchors, first, _) in zip(radii, classes.values()):
        ties: list[int] = []
        ball = list(_nearest_ball(first, t, moduli, ties))
        origin = a.point(anchors[0])  # the first component's anchor
        union, doubled = _sum_masks(anchors, ball, origin, a, tops)
        overlap |= doubled | covered & union
        covered |= union
        if ties:
            tied |= _sum_masks(anchors, list(dict.fromkeys(ties)), origin, a, tops)[0]
    if overlap:
        return VerifyReport(False, "overlap", (a.point(_least(overlap)),))
    if covered.bit_count() != size:
        return VerifyReport(False, "gap", (a.point(_least(~covered)),))
    if tied:
        return VerifyReport(False, "nonunique-nearest", (a.point(_least(tied)),))
    return VerifyReport(passed=True)


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


def _least(mask: int) -> int:
    """The least bit position set in a nonzero mask; for ~mask, the least
    position unset in mask."""
    return (mask & -mask).bit_length() - 1


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
    for key, (_, first, _) in code._classes.items():
        h = class_key_hash(key)
        if h not in by_hash:
            raise MissingRadiusError(f"kappa entry {h} missing for class of {first[0]}")
        (by_class[key],) = _integers((by_hash[h],), f"kappa entry {h} radius")
    return code, KappaAssignment(by_class=by_class)
