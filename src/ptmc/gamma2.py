"""The ternary square compound: tree edges, hives, and radius-2 codes.

The compound is an infinite union of tersquares (K3 box K3 graphs) glued in
pairs along shared triangles, three gluings per axis per tersquare, each
its own inverse. Per axis the tersquares form the infinite 3-regular tree
T: a node is a reduced ternary word (no two adjacent equal letters), and
gluing along triangle s appends s, or pops it from a word ending with s. A
tersquare is a pair of tree nodes, one per axis. The region of level L, the
tersquares with |wx| + |wy| <= L, is the pair of depth-L truncated trees cut
by that sum: `_levels` walks a truncated tree, and tersquares, region
vertices and the growth sweep all read it.

The compound is L(T) box L(T). A vertex is a pair (x-tree edge e, y-tree
edge f), where a tree edge is (shallow node, letter) and its letter is the
vertex's local label on that axis. It lies in the four tersquares pairing
an endpoint of e with one of f, with the same label (a, b) in each. With
N[e] for e and the four tree edges meeting it, the vertex has the eight
neighbours (N[e] - e) x {f} and {e} x (N[f] - f), and its truncated 2-ball
is N[e] x N[f]. Every local structure here is such a product of one piece
per axis, and every graph (a hive's, a region's) is the subgraph induced
on a vertex collection by the same rule, read off the rims N[e] - e and
N[f] - f of each vertex's edges. `_rim_positions` numbers the tree edges
of a collection once and finds each vertex's neighbours as positions in
it by int lookups; the DOT and JSON exports and a region's interior
degrees read those positions directly, and only `hive_graph` and
`Region.graph` build a `Graph` from them.

Addresses are plain named tuples (`Tersquare`, `GammaVertex`), hashed and
ordered as tuples of their fields. Code here builds them only from reduced
words and canonical labels, so they are not re-checked on construction;
text is the one outside source, and `parse_vertex_id` validates it.

The truncated distance here is the graph distance when the two vertices
share a tersquare (that is the compound's analogue of all coordinate
offsets lying in {-1,0,1}) and 3 otherwise.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .codes import VerifyReport, verify_partition
from .cover import CoverOutcome, ExactCoverInstance, eds_instance, enumerate_covers, solve
from .graphs import Graph, _array, _str_id

Word = tuple[int, ...]
Edge = tuple[Word, int]  # tree edge: shallow endpoint plus the letter toward the deep one

LETTERS = (0, 1, 2)
_OTHER_LETTERS = ((1, 2), (0, 2), (0, 1))  # indexed by a letter: the other two


def _check_word(w: Word) -> Word:
    for x in w:
        if x not in LETTERS:
            raise ValueError(f"letter {x!r} outside F3")
    for i in range(len(w) - 1):
        if w[i] == w[i + 1]:
            raise ValueError(f"word {w} has two adjacent equal letters")
    return tuple(w)


def word_str(w: Word) -> str:
    return "".join(map(str, w)) if w else "-"


def parse_word(s: str) -> Word:
    return () if s == "-" else tuple(int(ch) for ch in s)


class Tersquare(NamedTuple):
    """Address of one tersquare: a reduced word per axis; () () is the origin."""

    wx: Word = ()
    wy: Word = ()

    def __str__(self) -> str:
        return f"{word_str(self.wx)}|{word_str(self.wy)}"


ORIGIN = Tersquare()


def _glue_word(w: Word, s: int) -> Word:
    return w[:-1] if w and w[-1] == s else w + (s,)


def glue(j: Tersquare, axis: str, s: int) -> Tersquare:
    """Cross the shared triangle t^s of the given axis; an involution."""
    if s not in LETTERS:
        raise ValueError(f"letter {s!r} outside F3")
    if axis == "x":
        return Tersquare(_glue_word(j.wx, s), j.wy)
    if axis == "y":
        return Tersquare(j.wx, _glue_word(j.wy, s))
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


class GammaVertex(NamedTuple):
    """Canonical global vertex: x-tree edge (wx, a) and y-tree edge (wy, b).

    Each word is its edge's shallow node, so wx does not end with a and wy
    does not end with b; the four tersquares containing the vertex are
    (wx, wy), (wx+a, wy), (wx, wy+b) and (wx+a, wy+b).
    """

    wx: Word
    wy: Word
    a: int
    b: int

    def __str__(self) -> str:
        return f"{word_str(self.wx)}|{word_str(self.wy)}|{self.a}|{self.b}"


def parse_vertex_id(s: str) -> GammaVertex:
    """Read a vertex id `wx|wy|a|b`, as `str` writes it.

    Raises ValueError unless both words are reduced words over F3, both
    labels lie in F3 and the address is canonical.
    """
    wx, wy, a, b = s.split("|")
    v = GammaVertex(_check_word(parse_word(wx)), _check_word(parse_word(wy)), int(a), int(b))
    if v.a not in LETTERS or v.b not in LETTERS:
        raise ValueError(f"labels of {s!r} must lie in F3")
    if v.wx[-1:] == (v.a,) or v.wy[-1:] == (v.b,):
        raise ValueError(f"non-canonical vertex id {s!r}: a word ends with its label")
    return v


def _edge(node: Word, s: int) -> Edge:
    """The tree edge at a node with letter s: up to the parent when the
    node ends with s, else down to node + s."""
    return (node[:-1], s) if node and node[-1] == s else (node, s)


def _edges_at(node: Word) -> list[Edge]:
    return [_edge(node, s) for s in LETTERS]


def _closed(e: Edge) -> tuple[Edge, ...]:
    """N[e]: the tree edge e first, then the four edges meeting it."""
    w, a = e
    s, t = _OTHER_LETTERS[a]
    deep = w + (a,)
    return (e, _edge(w, s), _edge(w, t), (deep, s), (deep, t))


def _vertex(e: Edge, f: Edge) -> GammaVertex:
    return GammaVertex(e[0], f[0], e[1], f[1])


def canonical_vertex(j: Tersquare, a: int, b: int) -> GammaVertex:
    """The global vertex labelled (a, b) inside tersquare j: the edge at
    j.wx with letter a, times the edge at j.wy with letter b; idempotent."""
    return _vertex(_edge(j.wx, a), _edge(j.wy, b))


def tersquare_vertices(j: Tersquare) -> tuple[GammaVertex, ...]:
    """The nine global vertices of a tersquare, sorted: the edges at its
    x-node times the edges at its y-node."""
    return tuple(sorted(_vertex(e, f) for e in _edges_at(j.wx) for f in _edges_at(j.wy)))


def containing_tersquares(v: GammaVertex) -> tuple[Tersquare, ...]:
    """The four tersquares a vertex lies in: an endpoint of its x-edge with
    one of its y-edge, the address (wx, wy) first and x varying fastest.
    Sorted, they read (wx, wy), (wx, wy+b), (wx+a, wy), (wx+a, wy+b)."""
    return tuple(Tersquare(x, y) for y in (v.wy, v.wy + (v.b,)) for x in (v.wx, v.wx + (v.a,)))


def neighbors(v: GammaVertex) -> tuple[GammaVertex, ...]:
    """The eight vertices sharing a triangle with v, sorted."""
    e, f = (v.wx, v.a), (v.wy, v.b)
    return tuple(sorted([_vertex(m, f) for m in _closed(e)[1:]]
                        + [_vertex(e, m) for m in _closed(f)[1:]]))


def local_ball(v: GammaVertex) -> frozenset:
    """The truncated 2-ball of a vertex, N[e] x N[f]: the 25 vertices of
    its four containing tersquares, the only vertices at distance <= 2."""
    fs = _closed((v.wy, v.b))
    return frozenset(_vertex(e, f) for e in _closed((v.wx, v.a)) for f in fs)


def gamma_truncated_distance(u: GammaVertex, v: GammaVertex) -> int:
    """0 for equal vertices; local Hamming distance when a tersquare is
    shared, that is when u's x-edge lies in N[e] and its y-edge in N[f]
    for v's edges e, f (1 or 2); 3 otherwise."""
    if u == v:
        return 0
    if (u.wx, u.a) in _closed((v.wx, v.a)) and (u.wy, u.b) in _closed((v.wy, v.b)):
        return (u.a != v.a) + (u.b != v.b)
    return 3


# ---------------------------------------------------------------------------
# hives and regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hive:
    """A tersquare with its six triangle-neighbors and nine diagonal ones."""

    center: Tersquare
    subcentral: tuple[Tersquare, ...]
    corners: tuple[Tersquare, ...]

    @property
    def members(self) -> tuple[Tersquare, ...]:
        return (self.center,) + self.subcentral + self.corners


def build_hive(j: Tersquare = ORIGIN) -> Hive:
    """The 16-tersquare hive around a center: 1 + 6 + 9 members."""
    subcentral = tuple(sorted(
        [glue(j, "x", s) for s in LETTERS] + [glue(j, "y", s) for s in LETTERS]))
    corners = tuple(sorted(
        glue(glue(j, "x", i), "y", k) for i in LETTERS for k in LETTERS))
    return Hive(j, subcentral, corners)


def hive_vertices(h: Hive) -> tuple[GammaVertex, ...]:
    """All distinct vertices of a hive's member tersquares, sorted: on each
    axis, the nine tree edges meeting an edge at the center's node; 81."""
    xs, ys = ({m for e in _edges_at(w) for m in _closed(e)} for w in (h.center.wx, h.center.wy))
    return tuple(sorted(_vertex(e, f) for e in xs for f in ys))


def _rim_positions(vertices) -> list[list[int]]:
    """For each position of a vertex sequence, the positions of that
    vertex's neighbours in it.

    Each tree edge the vertices use is numbered once, in order of first
    use, so a vertex (e, f) has the int key x * n + y from its edges'
    numbers x and y, n edges in all. Each edge's rim N[e] - e is numbered
    once too, less the edges no vertex uses; the neighbours of (x, y) are
    then the keys m * n + y over the rim of x and x * n + m over the rim of
    y, looked up as ints. Each list follows that order, x's rim first.
    """
    num: dict = {}
    keys = [(num.setdefault((v.wx, v.a), len(num)), num.setdefault((v.wy, v.b), len(num)))
            for v in vertices]
    n = len(num)
    rims = [[k for k in map(num.get, _closed(e)[1:]) if k is not None] for e in num]
    get = {x * n + y: i for i, (x, y) in enumerate(keys)}.get
    out = []
    for x, y in keys:
        xn = x * n
        found = [get(m * n + y) for m in rims[x]] + [get(xn + m) for m in rims[y]]
        out.append([i for i in found if i is not None])
    return out


def _induced_graph(vertices) -> Graph:
    """The subgraph of the compound induced on a vertex collection.

    Its adjacency is `_rim_positions` read back into the collection, so
    each neighbour is the collection's own object however many adjacency
    sets hold it, and no vertex is built or hashed to find one.
    """
    verts = tuple(vertices)
    return Graph({v: map(verts.__getitem__, ns) for v, ns in zip(verts, _rim_positions(verts))})


def hive_graph(h: Hive) -> Graph:
    return _induced_graph(hive_vertices(h))


@dataclass(frozen=True)
class Region:
    """All tersquares of bounded address depth, with the vertices they hold
    and the graph those induce, each made on first use.

    Its vertices are the canonical vertices with |wx| + |wy| <= level: a
    vertex's address is one of its own tersquares, and every vertex of a
    tersquare has an address at most as deep. Two regions are equal when
    their level and members are.
    """

    level: int
    members: tuple[Tersquare, ...]

    @cached_property
    def vertices(self) -> tuple[GammaVertex, ...]:
        """The region's vertices, sorted."""
        return _vertices_up_to(self.level)

    @cached_property
    def graph(self) -> Graph:
        """The subgraph of the compound the vertices induce."""
        return _induced_graph(self.vertices)

    def interior(self) -> tuple[GammaVertex, ...]:
        """Vertices all of whose containing tersquares lie in the region,
        sorted. The deepest of them is (wx+a, wy+b), two letters deeper
        than the address, so these are the vertices with |wx| + |wy| <=
        level - 2."""
        return _vertices_up_to(self.level - 2)

    def interior_degrees(self) -> list[int]:
        """The degree in the region's graph of each interior vertex, in
        order: the length of its `_rim_positions` entry, no graph built."""
        depth = self.level - 2
        return [len(ns) for v, ns in zip(self.vertices, _rim_positions(self.vertices))
                if len(v.wx) + len(v.wy) <= depth]


def _deeper(w: Word) -> tuple[int, ...]:
    """The letters of the tree edges from node w down to its children."""
    return _OTHER_LETTERS[w[-1]] if w else LETTERS


def _levels(depth: int) -> list[list[Word]]:
    """The tree nodes of each depth 0..depth, breadth first: each level
    holds the children of the one above, in its order."""
    levels: list[list[Word]] = [[()]]
    for _ in range(depth):
        levels.append([w + (s,) for w in levels[-1] for s in _deeper(w)])
    return levels


def _tree_edges(depth: int) -> list[list[Edge]]:
    """The tree edges (w, a) by the depth of their shallow node w, 0..depth."""
    return [[(w, a) for w in level for a in _deeper(w)] for level in _levels(depth)]


def _cut(depth: int, xs: list[list], ys: list[list]):
    """The pairs (x, y), x in xs[i] and y in ys[j], with i + j <= depth: the
    cut-off |wx| + |wy| <= depth that bounds a region, on per-depth lists."""
    return ((x, y) for i in range(depth + 1) for j in range(depth + 1 - i)
            for x in xs[i] for y in ys[j])


def _tersquares_up_to(depth: int) -> list[Tersquare]:
    """The tersquares with |wx| + |wy| <= depth, unsorted."""
    levels = _levels(depth)
    return [Tersquare(wx, wy) for wx, wy in _cut(depth, levels, levels)]


def _vertices_up_to(depth: int) -> tuple[GammaVertex, ...]:
    """The canonical vertices with |wx| + |wy| <= depth, sorted; () when
    depth < 0."""
    edges = _tree_edges(depth)
    return tuple(sorted(_vertex(e, f) for e, f in _cut(depth, edges, edges)))


def build_region(level: int) -> Region:
    """Region of all tersquares with |wx| + |wy| <= level."""
    if level < 0:
        raise ValueError("region level must be >= 0")
    members = tuple(sorted(_tersquares_up_to(level)))
    return Region(level, members)


# ---------------------------------------------------------------------------
# corner partition and the radius-2 code census of a hive
# ---------------------------------------------------------------------------

def external_cycle(h: Hive, corner: Tersquare) -> tuple[GammaVertex, ...]:
    """The four vertices of a corner lying on none of the hive's shared
    triangles, sorted: on each axis, the two edges at the corner's node
    that do not lead to the center's node. Raises ValueError for a
    tersquare that is not one of the hive's corners."""
    if corner not in h.corners:
        raise ValueError(f"tersquare {corner} is not a corner of the hive around {h.center}")
    xs, ys = (set(_edges_at(n)).difference(_edges_at(c))
              for n, c in ((corner.wx, h.center.wx), (corner.wy, h.center.wy)))
    return tuple(sorted(_vertex(e, f) for e in xs for f in ys))


def corner_partition(h: Hive) -> dict[Tersquare, tuple[GammaVertex, ...]]:
    """The nine corner tersquares' vertex sets, which partition the hive.

    Each block is also the hive-restricted truncated 2-ball of each of its
    external vertices. A partition failure would falsify the vertex model,
    so it raises rather than returning a report.
    """
    blocks = {c: tersquare_vertices(c) for c in h.corners}
    verts = hive_vertices(h)
    rep = verify_partition(blocks.values(), verts)
    if not rep.passed:
        raise RuntimeError(f"corner blocks: {rep.kind} at {rep.witness[0]}")
    return blocks


def restricted_ball(center: GammaVertex, vertices) -> frozenset:
    """Truncated 2-ball of a vertex within a vertex collection, made of the
    collection's own objects: balls of many centers then share one object
    per vertex, and lookups keyed by them match on identity first."""
    ball = local_ball(center)
    return frozenset(u for u in vertices if u in ball)


def verify_hive_selection(h: Hive, centers) -> VerifyReport:
    """Full check that chosen vertices form an isolated radius-2 code of the
    hive: restricted 2-balls partition the 81 vertices (overlaps before
    gaps), every vertex has a unique nearest center, and the centers are
    pairwise non-adjacent (not implied by the partition for outer centers)."""
    verts = hive_vertices(h)
    centers = sorted(centers)
    rep = verify_partition((restricted_ball(c, verts) for c in centers), verts)
    if not rep.passed:
        return rep
    for v in verts:
        dists = sorted(gamma_truncated_distance(v, c) for c in centers)
        if len(dists) > 1 and dists[0] == dists[1]:
            return VerifyReport(False, "nonunique-nearest", (v,))
    for c1, c2 in combinations(centers, 2):
        if gamma_truncated_distance(c1, c2) == 1:
            return VerifyReport(False, "overlap", (c1, c2), "centers adjacent")
    return VerifyReport(True, independent=True)


def enumerate_hive_2ptmc_complete(h: Hive, deadline: float | None = None):
    """Totality check: enumerate every exact cover of the hive by the
    restricted 2-balls of all 81 vertices, not just the corner externals.

    Any such cover is automatically an isolated code with unique nearest
    centers: two centers at distance <= 2 would each lie in both balls,
    breaking disjointness. The run is exhaustive (slower than the corner
    census, hence off the default path) and returns (count, exhaustive,
    search nodes); the count coming out equal to the corner census proves
    the one-per-corner selections are the only isolated radius-2 codes of
    the hive.
    """
    verts = hive_vertices(h)
    tiles = tuple((str(v), restricted_ball(v, verts)) for v in verts)
    inst = ExactCoverInstance(tuple(verts), tiles)
    res = enumerate_covers(inst, deadline=deadline)
    return len(res.solutions), res.exhaustive, res.nodes


def enumerate_hive_2ptmc(h: Hive) -> int:
    """Count the isolated radius-2 codes given by one external vertex per
    corner tersquare: the product of the corners' candidate counts, 4^9.

    The count rests on checks made once, for all 36 candidate centers:
    the nine corner blocks partition the hive, each candidate's
    hive-restricted 2-ball is exactly its corner block, and candidates of
    different corners are at distance 3 (no shared tersquare, hence never
    adjacent and never in a nearest tie). Every selection's balls are then
    the nine blocks, so each one is a verified isolated code; a failed
    check raises RuntimeError. `enumerate_hive_2ptmc_complete` re-derives
    the count by exhaustive exact cover.
    """
    verts = hive_vertices(h)
    blocks = corner_partition(h)
    count = 1
    candidates: list[tuple[Tersquare, GammaVertex]] = []
    for corner in h.corners:
        block = frozenset(blocks[corner])
        cycle = external_cycle(h, corner)
        for cand in cycle:
            if restricted_ball(cand, verts) != block:
                raise RuntimeError(f"2-ball of {cand} is not its corner block")
            candidates.append((corner, cand))
        count *= len(cycle)
    for (c1, v1), (c2, v2) in combinations(candidates, 2):
        if c1 != c2 and gamma_truncated_distance(v1, v2) != 3:
            raise RuntimeError(f"cross-corner candidates {v1}, {v2} too close")
    return count


# ---------------------------------------------------------------------------
# the 18-vertex relaxed dominating set of the hive
# ---------------------------------------------------------------------------

def hive_non_isolated_pds() -> tuple[GammaVertex, ...]:
    """An 18-vertex set dominating the origin hive in the relaxed sense:
    four edges, one 4-cycle and one triangular prism, located on specific
    shared triangles. It is not an isolated dominating set.
    """
    y = lambda s: Tersquare((), (s,))
    x = lambda s: Tersquare((s,), ())
    picks: list[GammaVertex] = []
    # an edge in the triangle shared by the y_2 subcentral and the (0,2) corner
    picks += [canonical_vertex(y(2), 0, 0), canonical_vertex(y(2), 0, 1)]
    # an edge in the triangle shared by the x_0 subcentral and the (0,0) corner
    picks += [canonical_vertex(x(0), 1, 0), canonical_vertex(x(0), 2, 0)]
    # an edge in the triangle shared by the y_0 subcentral and the (2,0) corner
    picks += [canonical_vertex(y(0), 2, 1), canonical_vertex(y(0), 2, 2)]
    # an edge in the triangle shared by the y_1 subcentral and the (0,1) corner
    picks += [canonical_vertex(y(1), 0, 0), canonical_vertex(y(1), 0, 2)]
    # a 4-cycle inside the x_2 subcentral
    picks += [canonical_vertex(x(2), a, b) for a, b in ((0, 2), (1, 2), (1, 1), (0, 1))]
    # a triangular prism inside the x_1 subcentral: two column triangles
    # plus the rungs between them
    picks += [canonical_vertex(x(1), a, b) for a in (0, 2) for b in LETTERS]
    out = tuple(sorted(set(picks)))
    if len(out) != 18:
        raise RuntimeError(f"expected 18 distinct vertices, got {len(out)}")
    return out


def no_isolated_pds(h: Hive, deadline: float | None = None) -> CoverOutcome:
    """Exhaustive proof that the hive has no efficient dominating set.

    Solves the closed-neighborhood exact cover of the hive graph to
    exhaustion; the outcome must be infeasible, and a timeout is reported
    as such (never silently treated as a proof).
    """
    return solve(eds_instance(hive_graph(h)), deadline=deadline)


# ---------------------------------------------------------------------------
# growing codes beyond one hive
# ---------------------------------------------------------------------------

def _edge_code(max_depth: int, rng: random.Random | None) -> set[Edge]:
    """A set of tree edges such that every edge within depth touches
    exactly one chosen edge (efficient edge domination of the 3-regular
    tree), built by a breadth-first sweep of the tree's levels.

    Level by level, each node whose incoming edge e touches no chosen edge
    yet (no edge of N[e] is chosen) adds one of its deeper edges to the
    code; the rng (or the least letter, when rng is None) picks it. No root
    edge is chosen, matching the hive picture where the chosen vertices
    sit in corners.
    """
    code: set[Edge] = set()
    for level in _levels(max_depth)[1:]:
        for node in level:
            if code.isdisjoint(_closed((node[:-1], node[-1]))):
                deeper = _deeper(node)
                code.add((node, rng.choice(deeper) if rng is not None else deeper[0]))
    return code


@dataclass(frozen=True)
class RegionCode:
    """A radius-2 code on a bounded region, verified on its interior only;
    a failure's witness is the smallest overlap, else the smallest gap."""

    level: int
    seed: int | None
    centers: tuple[GammaVertex, ...]
    interior_size: int
    boundary_size: int
    passed: bool
    witness: GammaVertex | None = None


def extend_2ptmc(level: int, seed: int | None = None) -> RegionCode:
    """Grow an isolated radius-2 code over the region of a given level.

    Hive by hive the construction picks one external vertex per corner; in
    tree terms that is one efficient edge-dominating set per axis, from
    `_edge_code`'s seeded level sweep. Centers are the pairs of chosen x-
    and y-edges (wx, a), (wy, b) with |wx| + |wy| <= level.

    The region is never built: as in `Region`, its vertices are the pairs
    of tree edges with |wx| + |wy| <= level, counted off the same cut-off,
    and its interior those with |wx| + |wy| <= level - 2. Truncated 2-balls
    of the centers partition the interior; boundary vertices (with
    containing tersquares outside the region) are left unverified;
    overlaps precede gaps.
    """
    if level < 2:
        raise ValueError("need a region of level >= 2")
    rng = random.Random(seed) if seed is not None else None
    dx = _edge_code(level + 3, rng)
    dy = _edge_code(level + 3, rng)
    edges = _tree_edges(level)
    xs, ys = ([[e for e in es if e in code] for es in edges] for code in (dx, dy))
    centers = tuple(sorted(_vertex(e, f) for e, f in _cut(level, xs, ys)))
    interior = _vertices_up_to(level - 2)
    inside = set(interior)
    rep = verify_partition((local_ball(c) & inside for c in centers), interior)
    size = sum(len(edges[i]) * len(edges[j])
               for i in range(level + 1) for j in range(level + 1 - i))
    return RegionCode(level, seed, centers, len(interior), size - len(interior), rep.passed,
                      rep.witness[0] if rep.witness else None)


# ---------------------------------------------------------------------------
# graph export
# ---------------------------------------------------------------------------

def _vertex_class(v: GammaVertex, h: Hive) -> str:
    owners = containing_tersquares(v)
    if h.center in owners:
        return "center"
    if not set(h.subcentral).isdisjoint(owners):
        return "subcentral"
    return "corner"


_CLASS_COLORS = {"center": "white", "subcentral": "lightblue", "corner": "lightgray"}


def _owners(vertices, names: dict) -> list[list[str]]:
    """For each vertex, the names of the member tersquares containing it,
    given as names[member], in sorted tersquare order.

    A vertex's four tersquares sort as (wx, wy), (wx, wy+b), (wx+a, wy),
    (wx+a, wy+b), a word sorting before its extensions; they are looked up
    as plain word pairs, which hash and compare as the `Tersquare` keys.
    """
    get = names.get
    out = []
    for v in vertices:
        x2, y2 = v.wx + (v.a,), v.wy + (v.b,)
        out.append([n for n in map(get, ((v.wx, v.wy), (v.wx, y2), (x2, v.wy), (x2, y2)))
                    if n is not None])
    return out


def _json_array(items: list[str], pad: str) -> str:
    """A JSON array as json.dumps(indent=2) lays it out at indent pad, of
    items already written for the indent pad plus two spaces; [] if empty."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _export_json(vertices, members, adj: list[list[int]]) -> str:
    """The text json.dumps(doc, indent=2, sort_keys=True) gives for the doc
    {"edges": [[u, v], ...], "vertices": [{"id": v, "tersquares": [...]},
    ...]}, written directly: each string is escaped as json.dumps escapes
    it, by the json module's C escaper, and the layout is fixed.

    The vertices are sorted, so an edge [u, v] has u at the lower position.
    The edges sort by u's id, then v's: ranking the positions by id once,
    they come out in that order, each vertex's higher neighbours ranked.
    """
    quote = json.encoder.encode_basestring_ascii
    ids = list(map(str, vertices))
    q = list(map(quote, ids))
    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    rank = [0] * len(ids)
    for r, i in enumerate(by_id):
        rank[i] = r
    edges = [f"[\n      {q[i]},\n      {q[j]}\n    ]"
             for i in by_id for j in sorted([j for j in adj[i] if j > i], key=rank.__getitem__)]
    owners = _owners(vertices, {t: quote(str(t)) for t in members})
    verts = [f'{{\n      "id": {qi},\n      "tersquares": {_json_array(ts, "      ")}\n    }}'
             for qi, ts in zip(q, owners)]
    return f'{{\n  "edges": {_json_array(edges, "  ")},\n  "vertices": {_json_array(verts, "  ")}\n}}'


def _export_dot(vertices, members, adj: list[list[int]], hive: Hive | None) -> str:
    """DOT text with membership in `members`; a hive's vertices are colored.
    Edges come in position order, which is sorted pair order."""
    ids = list(map(str, vertices))
    owners = _owners(vertices, {t: str(t) for t in members})
    lines = ["graph gamma2 {", '  node [shape=circle, style=filled];']
    for v, vid, ts in zip(vertices, ids, owners):
        attrs = ""
        if hive is not None:
            cls = _vertex_class(v, hive)
            attrs = f'fillcolor="{_CLASS_COLORS[cls]}", class="{cls}", '
        lines.append(f'  "{vid}" [{attrs}tersquares="{";".join(ts)}"];')
    for i, ns in enumerate(adj):
        u = ids[i]
        lines.extend(f'  "{u}" -- "{ids[j]}";' for j in sorted(ns) if j > i)
    lines.append("}")
    return "\n".join(lines)


def graph_from_json(doc: dict) -> Graph:
    """The graph of a {"vertices": [{"id": ...}], "edges": [[u, v]]} document;
    a vertex id listed twice raises ValueError."""
    adj: dict = {}
    for e in _array(doc["vertices"]):
        vid = _str_id(e["id"])
        if vid in adj:
            raise ValueError(f"duplicate vertex id {vid!r}")
        adj[vid] = set()
    for edge in _array(doc["edges"]):
        u, v = _array(edge, 2)
        adj[u].add(v)
        adj[v].add(u)
    return Graph(adj)


def export_graph(target: str, fmt: str, level: int = 2) -> str:
    """Render the hive or a region as DOT or JSON text.

    target is "hive" or "region"; level applies to regions only. The
    sorted vertex tuple and its `_rim_positions` give the edges; no
    `Graph` is built.
    """
    if target not in ("hive", "region"):
        raise ValueError(f"unknown export target {target!r}")
    if fmt not in ("dot", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if target == "hive":
        hive = build_hive()
        vertices, members = hive_vertices(hive), hive.members
    else:
        if level < 0:
            raise ValueError("region level must be >= 0")
        hive = None
        vertices, members = _vertices_up_to(level), _tersquares_up_to(level)
    adj = _rim_positions(vertices)
    if fmt == "dot":
        return _export_dot(vertices, members, adj, hive)
    return _export_json(vertices, members, adj)
