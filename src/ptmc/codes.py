"""Code sets over grids and tori: components, translation classes, verifiers.

A code is a vertex subset S of a finite ambient. Its connected components
(under unit-step adjacency, wrapped on tori) are the truncated centers; a
radius assignment maps each translation class of components to a radius.
The main verifier checks that the truncated balls of the components
partition the ambient and that every vertex has a unique nearest code
vertex inside the component whose ball covers it.

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
from itertools import product
from operator import sub
from typing import Collection, Iterable

from .graphs import Graph, _array
# truncated_ball is called nowhere here: perfbench/spans.py wraps this binding, which a test checks
from .metric import Ambient, Point, _integers, _nearest_ball, _point, truncated_ball

ClassKey = tuple[Point, ...]


class MissingRadiusError(KeyError):
    """A component's translation class has no radius assigned."""
    __str__ = Exception.__str__  # the bare message, not KeyError's repr


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

    @cached_property
    def _components(self) -> tuple[Component, ...]:
        # found once per code; the instance dict is not a field, so equality
        # and hash are unaffected
        return _find_components(self)


def _inside(a: Ambient, vs: tuple[Point, ...]) -> bool:
    """True when every vertex lies in the ambient, checked per axis by C-level
    min and max. False leaves the verdict to the exact per-vertex scan: a
    vertex may be outside or of the wrong length, or a coordinate may not be
    an int, where min and max need not agree with the scan (NaN, strings)."""
    if not vs:
        return True
    if set(map(len, vs)) != {a.dimension}:
        return False
    limits = [(0, m - 1) for m in a.moduli] if a.is_torus else a.bounds
    for column, (lo, hi) in zip(zip(*vs), limits):
        if set(map(type, column)) != {int} or not lo <= min(column) <= max(column) <= hi:
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
    """

    vertices: tuple[Point, ...]
    class_key: ClassKey
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
    detail: str = ""
    independent: bool | None = None

    def __bool__(self) -> bool:
        return self.passed


def _fail(kind: str, witness: tuple = (), detail: str = "") -> VerifyReport:
    return VerifyReport(passed=False, kind=kind, witness=witness, detail=detail)


# ---------------------------------------------------------------------------
# components and translation classes
# ---------------------------------------------------------------------------

def components_of(code: CodeSet) -> list[Component]:
    """Partition a code into maximal connected pieces, sorted by min vertex.

    Adjacency is one unit step in exactly one axis, wrapped on tori. Each
    component is lifted to Z^n by BFS to compute its class key; a lift
    conflict means the component wraps an axis. The components are found
    once per code; each call returns a new list.
    """
    return list(code._components)


def _find_components(code: CodeSet) -> tuple[Component, ...]:
    a = code.ambient
    n = a.dimension
    # (axis, step, modulus); a window's modulus 0 means no wrapping
    moves = [(i, step, a.moduli[i] if a.is_torus else 0) for i in range(n) for step in (1, -1)]
    member = {v: v for v in code.vertices}  # maps a built tuple to the code's own
    keys: dict[ClassKey, ClassKey] = {}  # one key object per class
    seen: set[Point] = set()
    comps: list[Component] = []
    # roots come in sorted order, so each root is its component's min vertex
    for root in code.vertices:
        if root in seen:
            continue
        lift: dict[Point, Point] = {root: (0,) * n}
        queue = [root]
        seen.add(root)
        wrapped = False
        while queue:
            v = queue.pop()
            lv = lift[v]
            for i, step, m in moves:
                x = v[i] + step
                u = member.get(v[:i] + ((x % m if m else x),) + v[i + 1:])
                if u is None:
                    continue
                lu = lv[:i] + (lv[i] + step,) + lv[i + 1:]
                if u in lift:
                    if lift[u] != lu:
                        wrapped = True
                    continue
                lift[u] = lu
                seen.add(u)
                queue.append(u)
        verts = tuple(sorted(lift))
        key = _class_key(verts, lift, wrapped, a)
        comps.append(Component(verts, keys.setdefault(key, key), wrapped))
    return tuple(comps)


def _class_key(verts: tuple[Point, ...], lift: dict[Point, Point], wrapped: bool, a: Ambient) -> ClassKey:
    if not wrapped:
        mins = tuple(map(min, zip(*lift.values())))
        return tuple(sorted([tuple(map(sub, p, mins)) for p in lift.values()]))
    # wrapped fallback: least translate that moves some vertex to the origin
    best = None
    for v in verts:
        shifted = tuple(sorted(a.wrap(tuple(x - y for x, y in zip(u, v))) for u in verts))
        if best is None or shifted < best:
            best = shifted
    return best


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
        return _fail("overlap", (overlap,), "vertex covered by two balls")
    if len(covered) != len(vertices):
        for v in vertices:
            if v not in covered:
                return _fail("gap", (v,), "vertex covered by no ball")
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
    one pass over (center vertex x offset), in order of offset weight,
    builds each component's ball, keyed by row-major vertex index, together
    with its nearest-vertex ties; the balls stream into the partition check
    one at a time.

    Failures are checked in this order: degenerate ambient, bad radius
    (the first component in min-vertex order), overlap, gap, nonunique
    nearest. The witness is the lexicographically smallest offending vertex
    (for a gap, the first uncovered vertex in lexicographic order). Tori
    with any modulus < 3 (and windows) are refused as degenerate: truncated
    balls would self-overlap or be clipped.
    """
    a = code.ambient
    if a.degenerate:
        return _fail("degenerate-ambient", (),
                     "PTMC verification needs a torus with all moduli >= 3")
    n = a.dimension
    comps = components_of(code)
    radii = [kappa.radius_for(c.class_key) for c in comps]
    for comp, t in zip(comps, radii):
        if not 1 <= t <= n:
            return _fail("bad-radius", (comp.min_vertex,), f"radius {t} outside [1, {n}]")
    ties: list[tuple[int, int]] = []
    balls = (_nearest_ball(c.vertices, t, a.moduli, ties) for c, t in zip(comps, radii))
    rep = verify_partition(balls, range(a.vertex_count()))
    if not rep.passed:
        return _fail(rep.kind, (_point(rep.witness[0], a.moduli),), rep.detail)
    if ties:
        i, d = min(ties)
        return _fail("nonunique-nearest", (_point(i, a.moduli),),
                     f"two vertices of the center at distance {d}")
    return VerifyReport(passed=True)


def verify_t_ptmc(code: CodeSet, t: int) -> VerifyReport:
    """verify_kappa_ptmc with one radius for every class."""
    return verify_kappa_ptmc(code, KappaAssignment.uniform(t))


def _dominate(s: Iterable, g: Graph, accepts, detail: str) -> tuple[set, VerifyReport]:
    """S as a set, and the report of the domination scan behind the PDS
    verifiers. The first vertex of S, in the order given, that is not in g
    raises ValueError. The report fails at the first vertex of g outside S
    whose neighbours in S `accepts` rejects: a gap if it has none, else an
    overlap."""
    sset = set()
    for v in s:
        if v not in g:
            raise ValueError(f"code vertex {v!r} not in graph")
        sset.add(v)
    for v in g.vertices:
        if v not in sset:
            seen = g.neighbors(v) & sset
            if not accepts(seen):
                return sset, _fail("overlap" if seen else "gap", (v,), detail)
    return sset, VerifyReport(passed=True)


def verify_pds(s: Iterable, g: Graph) -> VerifyReport:
    """Perfect dominating set check on an arbitrary finite graph.

    Pass iff every vertex outside S is adjacent to exactly one vertex of S.
    The report's `independent` flag states whether S induces no edges
    (an isolated PDS, also known as an efficient dominating set).
    """
    sset, rep = _dominate(s, g, lambda seen: len(seen) == 1,
                          "vertex dominated zero or several times")
    return replace(rep, independent=all(sset.isdisjoint(g.neighbors(v)) for v in sset))


def verify_non_isolated_pds(s: Iterable, g: Graph) -> VerifyReport:
    """Relaxed domination for edge-disjoint unions of triangles.

    Pass iff every vertex outside S is adjacent either to exactly one
    vertex of S, or to exactly two vertices of S joined by an edge.
    """
    return _dominate(s, g, lambda seen: len(seen) == 1 or len(seen) == 2 and g.has_edge(*seen),
                     "vertex not dominated by one vertex or one edge of S")[1]


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
    radii = {class_key_hash(key): kappa.radius_for(key)
             for key in dict.fromkeys(c.class_key for c in components_of(code))}
    return {"ambient": ambient, "vertices": [list(v) for v in code.vertices],
            "kappa": {h: radii[h] for h in sorted(radii)}}


def code_from_json(doc: dict) -> tuple[CodeSet, KappaAssignment | None]:
    amb = doc["ambient"]
    if amb["kind"] == "torus":
        a = Ambient.torus(*amb["moduli"])
    else:
        a = Ambient.window(*(tuple(_array(b, 2)) for b in _array(amb["bounds"])))
    code = CodeSet(a, tuple(tuple(v) for v in _array(doc["vertices"])))
    if "kappa" not in doc:
        return code, None
    by_hash = dict(doc["kappa"])
    by_class = {}
    for comp in components_of(code):
        if comp.class_key in by_class:
            continue
        h = class_key_hash(comp.class_key)
        if h not in by_hash:
            raise MissingRadiusError(f"kappa entry {h} missing for class of {comp.min_vertex}")
        (by_class[comp.class_key],) = _integers((by_hash[h],), f"kappa entry {h} radius")
    return code, KappaAssignment(by_class=by_class)
