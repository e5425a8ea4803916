"""The ternary square compound: address algebra, hives, and radius-2 codes.

The compound is an infinite union of tersquares (K3 box K3 graphs) glued in
pairs along shared triangles, three gluings per axis per tersquare, each
its own inverse. Addresses are pairs of reduced ternary words (no two
adjacent equal letters), one word per axis; gluing appends a letter when it
differs from the last one and pops otherwise. Per axis this is the Cayley
graph of the free product of three order-2 generators, i.e. an infinite
3-regular tree, and a tersquare is a (tree node, tree node) pair.

A vertex is addressed by a tersquare plus a local label (a, b) in F3 x F3,
canonicalized so the x-word does not end with a and the y-word does not end
with b. Gluing preserves local labels on shared triangles, which makes the
label intrinsic: a vertex lies in exactly four tersquares and carries the
same (a, b) in each. In tree terms a vertex is a pair (x-tree edge, y-tree
edge), its four tersquares the endpoint combinations; every vertex then has
degree 8.

The truncated distance here is the graph distance when the two vertices
share a tersquare (that is the compound's analogue of all coordinate
offsets lying in {-1,0,1}) and 3 otherwise.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .codes import VerifyReport, verify_partition
from .cover import CoverOutcome, ExactCoverInstance, eds_instance, enumerate_covers, solve
from .graphs import Graph

Word = tuple[int, ...]

LETTERS = (0, 1, 2)


def _check_word(w: Word) -> Word:
    for x in w:
        if x not in LETTERS:
            raise ValueError(f"letter {x!r} outside F3")
    for i in range(len(w) - 1):
        if w[i] == w[i + 1]:
            raise ValueError(f"word {w} has two adjacent equal letters")
    return tuple(w)


def word_str(w: Word) -> str:
    return "".join(str(x) for x in w) if w else "-"


def parse_word(s: str) -> Word:
    return () if s == "-" else tuple(int(ch) for ch in s)


@dataclass(frozen=True, order=True)
class Tersquare:
    """Address of one tersquare: a reduced word per axis; [] [] is the origin."""

    wx: Word = ()
    wy: Word = ()

    def __post_init__(self) -> None:
        _check_word(self.wx)
        _check_word(self.wy)

    def __str__(self) -> str:
        return f"{word_str(self.wx)}|{word_str(self.wy)}"

    @property
    def depth(self) -> int:
        return len(self.wx) + len(self.wy)


ORIGIN = Tersquare()


def _glue_word(w: Word, s: int) -> Word:
    if w and w[-1] == s:
        return w[:-1]
    return w + (s,)


def glue(j: Tersquare, axis: str, s: int) -> Tersquare:
    """Cross the shared triangle t^s of the given axis; an involution."""
    if s not in LETTERS:
        raise ValueError(f"letter {s!r} outside F3")
    if axis == "x":
        return Tersquare(_glue_word(j.wx, s), j.wy)
    if axis == "y":
        return Tersquare(j.wx, _glue_word(j.wy, s))
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


@dataclass(frozen=True, order=True)
class GammaVertex:
    """Canonical global vertex: tersquare address plus local label (a, b).

    Canonical form: wx does not end with a and wy does not end with b; the
    four tersquares containing the vertex are then (wx, wy), (wx+a, wy),
    (wx, wy+b) and (wx+a, wy+b).
    """

    wx: Word
    wy: Word
    a: int
    b: int

    def __post_init__(self) -> None:
        _check_word(self.wx)
        _check_word(self.wy)
        if self.a not in LETTERS or self.b not in LETTERS:
            raise ValueError("labels must lie in F3")
        if self.wx and self.wx[-1] == self.a:
            raise ValueError(f"non-canonical vertex: x-word ends with {self.a}")
        if self.wy and self.wy[-1] == self.b:
            raise ValueError(f"non-canonical vertex: y-word ends with {self.b}")

    def __str__(self) -> str:
        return f"{word_str(self.wx)}|{word_str(self.wy)}|{self.a}|{self.b}"


def parse_vertex_id(s: str) -> GammaVertex:
    wx, wy, a, b = s.split("|")
    return GammaVertex(parse_word(wx), parse_word(wy), int(a), int(b))


def canonical_vertex(j: Tersquare, a: int, b: int) -> GammaVertex:
    """The global vertex labelled (a, b) inside tersquare j.

    Pops a trailing x-letter equal to a and a trailing y-letter equal to b
    (at most one pop each, words being reduced); idempotent.
    """
    wx = j.wx[:-1] if j.wx and j.wx[-1] == a else j.wx
    wy = j.wy[:-1] if j.wy and j.wy[-1] == b else j.wy
    return GammaVertex(wx, wy, a, b)


def tersquare_vertices(j: Tersquare) -> tuple[GammaVertex, ...]:
    """The nine global vertices of a tersquare, sorted."""
    return tuple(sorted(canonical_vertex(j, a, b) for a in LETTERS for b in LETTERS))


def containing_tersquares(v: GammaVertex) -> tuple[Tersquare, ...]:
    """The four tersquares a vertex lies in."""
    return (
        Tersquare(v.wx, v.wy),
        Tersquare(v.wx + (v.a,), v.wy),
        Tersquare(v.wx, v.wy + (v.b,)),
        Tersquare(v.wx + (v.a,), v.wy + (v.b,)),
    )


def neighbors(v: GammaVertex) -> tuple[GammaVertex, ...]:
    """The eight vertices sharing a triangle with v, sorted.

    Within each containing tersquare the same-row and same-column vertices
    are neighbors; canonicalization collapses the 16 candidates to 8.
    """
    out = set()
    for t in containing_tersquares(v):
        for a2 in LETTERS:
            if a2 != v.a:
                out.add(canonical_vertex(t, a2, v.b))
        for b2 in LETTERS:
            if b2 != v.b:
                out.add(canonical_vertex(t, v.a, b2))
    return tuple(sorted(out))


def local_ball(v: GammaVertex) -> frozenset:
    """The truncated 2-ball of a vertex: the 25 vertices of its four
    containing tersquares, the only vertices at distance <= 2."""
    return frozenset(u for t in containing_tersquares(v) for u in tersquare_vertices(t))


def gamma_truncated_distance(u: GammaVertex, v: GammaVertex) -> int:
    """0 for equal vertices; local Hamming distance when a tersquare is
    shared (1 or 2); 3 otherwise."""
    if u == v:
        return 0
    if set(containing_tersquares(u)) & set(containing_tersquares(v)):
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
    """All distinct vertices of a hive's member tersquares; 81 of them."""
    out = set()
    for t in h.members:
        out.update(tersquare_vertices(t))
    return tuple(sorted(out))


def _tersquare_edges(t: Tersquare):
    grid = {(a, b): canonical_vertex(t, a, b) for a in LETTERS for b in LETTERS}
    for a in LETTERS:
        for b1, b2 in combinations(LETTERS, 2):
            yield grid[(a, b1)], grid[(a, b2)]
    for b in LETTERS:
        for a1, a2 in combinations(LETTERS, 2):
            yield grid[(a1, b)], grid[(a2, b)]


def graph_of_tersquares(members) -> Graph:
    """Union of the member tersquares' vertices and triangle edges."""
    adj: dict = {}
    for t in members:
        for v in tersquare_vertices(t):
            adj.setdefault(v, set())
        for u, v in _tersquare_edges(t):
            adj[u].add(v)
            adj[v].add(u)
    return Graph(adj)


def hive_graph(h: Hive) -> Graph:
    return graph_of_tersquares(h.members)


@dataclass(frozen=True)
class Region:
    """All tersquares of bounded address depth, with their union graph.

    Its vertices are the canonical vertices with |wx| + |wy| <= level: a
    vertex's address is one of its own tersquares, and every vertex of a
    tersquare has an address at most as deep.
    """

    level: int
    members: tuple[Tersquare, ...]
    graph: Graph

    def interior(self) -> tuple[GammaVertex, ...]:
        """Vertices all of whose containing tersquares lie in the region,
        sorted. The deepest of them is (wx+a, wy+b), two letters deeper
        than the address, so these are the vertices with |wx| + |wy| <=
        level - 2."""
        return _vertices_up_to(self.level - 2)


def _words_up_to(length: int) -> list[Word]:
    words: list[Word] = [()]
    frontier: list[Word] = [()]
    for _ in range(length):
        nxt = []
        for w in frontier:
            for s in LETTERS:
                if not w or w[-1] != s:
                    nxt.append(w + (s,))
        words.extend(nxt)
        frontier = nxt
    return words


def _vertices_up_to(depth: int) -> tuple[GammaVertex, ...]:
    """The canonical vertices with |wx| + |wy| <= depth, sorted; () when
    depth < 0."""
    if depth < 0:
        return ()
    out = []
    for wx in _words_up_to(depth):
        xs = [a for a in LETTERS if not wx or wx[-1] != a]
        for wy in _words_up_to(depth - len(wx)):
            ys = [b for b in LETTERS if not wy or wy[-1] != b]
            out.extend(GammaVertex(wx, wy, a, b) for a in xs for b in ys)
    return tuple(sorted(out))


def build_region(level: int) -> Region:
    """Region of all tersquares with |wx| + |wy| <= level."""
    if level < 0:
        raise ValueError("region level must be >= 0")
    members = []
    for wx in _words_up_to(level):
        for wy in _words_up_to(level - len(wx)):
            members.append(Tersquare(wx, wy))
    members = tuple(sorted(members))
    return Region(level, members, graph_of_tersquares(members))


# ---------------------------------------------------------------------------
# corner partition and the radius-2 code census of a hive
# ---------------------------------------------------------------------------

def _connecting_letter(w1: Word, w2: Word) -> int:
    """The glue letter between two adjacent tree nodes."""
    longer = w1 if len(w1) > len(w2) else w2
    shorter = w2 if longer is w1 else w1
    if longer[:-1] != shorter:
        raise ValueError(f"words {w1} and {w2} are not adjacent")
    return longer[-1]


def external_cycle(h: Hive, corner: Tersquare) -> tuple[GammaVertex, ...]:
    """The four vertices of a corner lying on none of the hive's shared
    triangles: labels (a, b) avoiding the letters gluing the corner back."""
    i = _connecting_letter(corner.wx, h.center.wx)
    j = _connecting_letter(corner.wy, h.center.wy)
    return tuple(sorted(canonical_vertex(corner, a, b)
                        for a in LETTERS for b in LETTERS if a != i and b != j))


def corner_partition(h: Hive) -> dict[Tersquare, tuple[GammaVertex, ...]]:
    """The nine corner tersquares' vertex sets, which partition the hive.

    Each block is also the hive-restricted truncated 2-ball of each of its
    external vertices. A partition failure would falsify the vertex model,
    so it raises rather than returning a report.
    """
    blocks = {c: tersquare_vertices(c) for c in h.corners}
    verts = hive_vertices(h)
    rep = verify_partition(blocks.values(), verts, len(verts))
    if not rep.passed:
        raise RuntimeError(f"corner blocks: {rep.kind} at {rep.witness[0]}")
    return blocks


def restricted_ball(center: GammaVertex, vertices) -> frozenset:
    """Truncated 2-ball of a vertex within a vertex collection, made of the
    collection's own objects so dict lookups keyed by them skip __eq__."""
    ball = local_ball(center)
    return frozenset(u for u in vertices if u in ball)


def verify_hive_selection(h: Hive, centers) -> VerifyReport:
    """Full check that chosen vertices form an isolated radius-2 code of the
    hive: restricted 2-balls partition the 81 vertices (overlaps before
    gaps), every vertex has a unique nearest center, and the centers are
    pairwise non-adjacent (not implied by the partition for outer centers)."""
    verts = hive_vertices(h)
    centers = sorted(centers)
    rep = verify_partition((restricted_ball(c, verts) for c in centers), verts, len(verts))
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


def enumerate_hive_2ptmc_complete(h: Hive, budget: float | None = None):
    """Totality check: enumerate every exact cover of the hive by the
    restricted 2-balls of all 81 vertices, not just the corner externals.

    Any such cover is automatically an isolated code with unique nearest
    centers: two centers at distance <= 2 would each lie in both balls,
    breaking disjointness. The run is exhaustive (slower than the corner
    census, hence off the default path) and returns (count, exhaustive);
    the count coming out equal to the corner census proves the one-per-
    corner selections are the only isolated radius-2 codes of the hive.
    """
    verts = hive_vertices(h)
    tiles = tuple((str(v), restricted_ball(v, verts)) for v in verts)
    inst = ExactCoverInstance(tuple(verts), tiles)
    res = enumerate_covers(inst, budget=budget)
    return len(res.solutions), res.exhaustive


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


def no_isolated_pds(h: Hive, budget: float | None = None) -> CoverOutcome:
    """Exhaustive proof that the hive has no efficient dominating set.

    Solves the closed-neighborhood exact cover of the hive graph to
    exhaustion; the outcome must be infeasible, and a timeout is reported
    as such (never silently treated as a proof).
    """
    return solve(eds_instance(hive_graph(h)), budget=budget)


# ---------------------------------------------------------------------------
# growing codes beyond one hive
# ---------------------------------------------------------------------------

Edge = tuple[Word, int]  # tree edge: shallow endpoint plus the letter toward the deep one


def _edge_code(max_depth: int, rng: random.Random | None) -> set[Edge]:
    """A set of tree edges such that every edge within depth touches
    exactly one chosen edge (efficient edge domination of the 3-regular
    tree), built by a breadth-first frontier sweep from the root.

    At every node whose incoming edge still needs coverage there is a
    binary choice of which deeper edge joins the code; the rng (or the
    least letter, when rng is None) resolves it. No root edge is chosen,
    matching the hive picture where the chosen vertices sit in corners.
    """
    code: set[Edge] = set()
    queue: deque[tuple[Word, str]] = deque(((s,), "uncovered") for s in LETTERS)
    while queue:
        node, status = queue.popleft()
        if len(node) > max_depth:
            continue
        deeper = [s for s in LETTERS if s != node[-1]]
        if status == "in_code":
            for s in deeper:
                queue.append((node + (s,), "covered"))
        elif status == "covered":
            for s in deeper:
                queue.append((node + (s,), "uncovered"))
        else:  # uncovered: cover the incoming edge here
            pick = rng.choice(deeper) if rng is not None else deeper[0]
            code.add((node, pick))
            for s in deeper:
                queue.append((node + (s,), "in_code" if s == pick else "covered"))
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
    tree terms that is one efficient edge-dominating set per axis, chosen
    by a deterministic frontier sweep with seeded choices. Centers are the
    pairs (wx, a), (wy, b) of chosen x- and y-edges with |wx| + |wy| <=
    level, whose address tersquare (wx, wy) lies in the region.

    The region is never built as a graph: as in `Region`, its vertices
    are those with |wx| + |wy| <= level and its interior those with
    |wx| + |wy| <= level - 2. Truncated 2-balls of the centers partition
    the interior; boundary vertices (with containing tersquares outside
    the region) are left unverified; overlaps precede gaps.
    """
    if level < 2:
        raise ValueError("need a region of level >= 2")
    rng = random.Random(seed) if seed is not None else None
    dx = _edge_code(level + 3, rng)
    dy = _edge_code(level + 3, rng)
    xs = [(wx, a) for (wx, a) in dx if len(wx) <= level]
    ys = [(wy, b) for (wy, b) in dy if len(wy) <= level]
    centers = tuple(sorted(GammaVertex(wx, wy, a, b) for (wx, a) in xs for (wy, b) in ys
                           if len(wx) + len(wy) <= level))
    interior = _vertices_up_to(level - 2)
    inside = set(interior)
    rep = verify_partition((local_ball(c) & inside for c in centers), interior, len(interior))
    return RegionCode(level, seed, centers, len(interior),
                      len(_vertices_up_to(level)) - len(interior), rep.passed,
                      rep.witness[0] if rep.witness else None)


# ---------------------------------------------------------------------------
# graph export
# ---------------------------------------------------------------------------

def _vertex_class(v: GammaVertex, h: Hive) -> str:
    if h.center in containing_tersquares(v):
        return "center"
    sub = set(h.subcentral)
    if sub & set(containing_tersquares(v)):
        return "subcentral"
    return "corner"


_CLASS_COLORS = {"center": "white", "subcentral": "lightblue", "corner": "lightgray"}


def graph_to_json(g: Graph, members=None) -> dict:
    """JSON adjacency with stable string ids and tersquare membership."""
    member_set = set(members) if members is not None else None
    verts = []
    for v in sorted(g.vertices):
        entry = {"id": str(v)}
        owns = [t for t in containing_tersquares(v)
                if member_set is None or t in member_set]
        entry["tersquares"] = [str(t) for t in sorted(owns)]
        verts.append(entry)
    edges = [[str(u), str(v)] for u, v in g.edges()]
    return {"vertices": verts, "edges": sorted(edges)}


def graph_from_json(doc: dict) -> Graph:
    adj: dict = {e["id"]: set() for e in doc["vertices"]}
    for u, v in doc["edges"]:
        adj[u].add(v)
        adj[v].add(u)
    return Graph(adj)


def graph_to_dot(g: Graph, hive: Hive | None = None, members=None) -> str:
    """DOT text; for a hive, vertices are colored by tersquare class."""
    lines = ["graph gamma2 {", '  node [shape=circle, style=filled];']
    member_set = set(members) if members is not None else None
    for v in sorted(g.vertices):
        attrs = []
        if hive is not None:
            cls = _vertex_class(v, hive)
            attrs.append(f'fillcolor="{_CLASS_COLORS[cls]}"')
            attrs.append(f'class="{cls}"')
        owns = [t for t in containing_tersquares(v)
                if member_set is None or t in member_set]
        attrs.append(f'tersquares="{";".join(str(t) for t in sorted(owns))}"')
        lines.append(f'  "{v}" [{", ".join(attrs)}];')
    for u, v in g.edges():
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines)


def export_graph(target: str, fmt: str, level: int = 2) -> str:
    """Render the hive or a region as DOT or JSON text.

    target is "hive" or "region"; level applies to regions only.
    """
    if target == "hive":
        h = build_hive()
        g = hive_graph(h)
        members = h.members
        hive = h
    elif target == "region":
        region = build_region(level)
        g = region.graph
        members = region.members
        hive = None
    else:
        raise ValueError(f"unknown export target {target!r}")
    if fmt == "dot":
        return graph_to_dot(g, hive=hive, members=members)
    if fmt == "json":
        return json.dumps(graph_to_json(g, members=members), indent=2, sort_keys=True)
    raise ValueError(f"unknown format {fmt!r}")
