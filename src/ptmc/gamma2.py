"""The ternary square compound: tree edges, hives, and radius-2 codes.

The compound is an infinite union of tersquares (K3 box K3 graphs) glued in
pairs along shared triangles, three gluings per axis per tersquare, each
its own inverse. Per axis the tersquares form the infinite 3-regular tree
T: a node is a reduced ternary word (no two adjacent equal letters), and
gluing along triangle s appends s, or pops it from a word ending with s. A
tersquare is a pair of tree nodes, one per axis. The region of level L, the
tersquares with |wx| + |wy| <= L, is the pair of depth-L truncated trees cut
by that sum. `_words` lists a truncated tree in lexicographic order, where
a word comes before its extensions, which is how tuples of words sort: so
the pairs of its words under the cut-off, x-word outer and y-word inner,
come out sorted, and tersquares, region vertices and a grown code's
centres are generated in order, not sorted after. The growth sweep walks
the same order a level at a time, each node carrying only its state.

The compound is L(T) box L(T). A vertex is a pair (x-tree edge e, y-tree
edge f), where a tree edge is (shallow node, letter) and its letter is the
vertex's local label on that axis. It lies in the four tersquares pairing
an endpoint of e with one of f, with the same label (a, b) in each. With
N[e] for e and the four tree edges meeting it, the vertex has the eight
neighbours (N[e] - e) x {f} and {e} x (N[f] - f), and its truncated 2-ball
is N[e] x N[f]. Every local structure here is such a product of one piece
per axis: a grown code is a product of two axis codes, and its interior
is checked through per-edge counts on each axis, not ball by ball. A hive's
or a region's vertices are a cut product too (`_Layout`): the pairs of
(word, edge letters) entries, one per axis, under a cut on |wx| + |wy|,
walked one block per address (wx, wy), which numbers and writes each word
once and gives every vertex its edge ints, id and member tersquares with
no vertex hashed. Its graph is induced by one rule, read off the rims
N[e] - e and N[f] - f of each vertex's edges as positions
(`_rim_positions`) that the exports, a region's interior degrees,
`hive_graph` and `Region.graph` read as they are. Only what is read is
made: a region holds its level, and its member tersquares, a layout's
vertex tuples, ids and owners are each made on first use, so an export,
which reads the numbers, ids and owners, builds no vertex tuple.

Addresses are plain named tuples (`Tersquare`, `GammaVertex`), hashed and
ordered as tuples of their fields. Code here builds them only from reduced
words and canonical labels, so they are not re-checked on construction;
text is the one outside source, and `parse_vertex_id` validates it.

The truncated distance here is the graph distance when the two vertices
share a tersquare (that is the compound's analogue of all coordinate
offsets lying in {-1,0,1}) and 3 otherwise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, groupby
from operator import itemgetter
from typing import NamedTuple

from .codes import VerifyReport, _json_array, _json_object, verify_partition
from .cover import (CoverOutcome, ExactCoverInstance, OutOfTime, eds_instance, enumerate_covers,
                    solve)
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
    wx, wy, a, b = v
    x2, y2 = wx + (a,), wy + (b,)
    return Tersquare(wx, wy), Tersquare(x2, wy), Tersquare(wx, y2), Tersquare(x2, y2)


def neighbors(v: GammaVertex) -> tuple[GammaVertex, ...]:
    """The eight vertices sharing a triangle with v, sorted."""
    e, f = (v.wx, v.a), (v.wy, v.b)
    return tuple(sorted([_vertex(m, f) for m in _closed(e)[1:]]
                        + [_vertex(e, m) for m in _closed(f)[1:]]))


def local_ball(v: GammaVertex) -> frozenset:
    """The truncated 2-ball of a vertex, N[e] x N[f]: the 25 vertices of
    its four containing tersquares, the only vertices at distance <= 2."""
    # tuple.__new__ skips the named tuple's Python-level __new__
    new, fs = tuple.__new__, _closed((v.wy, v.b))
    return frozenset([new(GammaVertex, (e[0], f[0], e[1], f[1]))
                      for e in _closed((v.wx, v.a)) for f in fs])


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
    return _hive_layout(h).vertices


def _rim_positions(numbers) -> list[list[int]]:
    """For each position of a vertex sequence, the positions of that
    vertex's neighbours in it, in no set order, read from its numbers: a
    dict from each numbered word w to 3k, then each vertex's x- and y-edge
    (w, a) as the int 3k + a, in the sequence's order.

    Each edge's rim N[e] - e becomes a list of edge ints, made once per
    word and letter, less the edges of words not numbered. With n edge
    ints in all, the vertex (x, y) is keyed by the int x * n + y, and its
    neighbours are the keys m * n + y over the rim of x and x * n + m over
    the rim of y: one loop of int lookups per vertex, in a table of one
    entry per vertex.
    """
    base, xs, ys = numbers
    n = 3 * len(base)
    rims: list = [()] * n
    for w, k in base.items():
        for a in _deeper(w):
            rims[k + a] = [base[u] + s for u, s in _closed((w, a))[1:] if u in base]
    x_rims = [[m * n for m in rim] for rim in rims]
    get = dict(zip([x * n + y for x, y in zip(xs, ys)], range(len(xs)))).get
    out = []
    for x, y in zip(xs, ys):
        found = []
        for k in x_rims[x]:
            i = get(k + y)
            if i is not None:
                found.append(i)
        xn = x * n
        for m in rims[y]:
            i = get(xn + m)
            if i is not None:
                found.append(i)
        out.append(found)
    return out


def _induced_graph(layout: _Layout) -> Graph:
    """The subgraph of the compound induced on a layout's sorted vertices,
    whose neighbours are the `_rim_positions` lists of its numbers taken as
    they are: each the collection's own object, no vertex built or hashed,
    symmetric and loop-free, so `Graph`'s checks are skipped."""
    return Graph._from_positions(layout.vertices, _rim_positions(layout.numbers))


def hive_graph(h: Hive) -> Graph:
    return _induced_graph(_hive_layout(h))


@dataclass(frozen=True)
class Region:
    """All tersquares of bounded address depth, with the vertices they hold
    and the graph those induce. A region holds only its level: its members,
    vertices and graph are each made on first use.

    Its vertices are the canonical vertices with |wx| + |wy| <= level: a
    vertex's address is one of its own tersquares, and every vertex of a
    tersquare has an address at most as deep. They, their edge numbers and
    the graph come from one `_Layout`, the cut product of the depth-level
    tree's edges on each axis, made on first use. Two regions are equal
    when their levels are.
    """

    level: int

    @cached_property
    def members(self) -> tuple[Tersquare, ...]:
        """The region's tersquares, sorted."""
        return _tersquares_up_to(self.level)

    @cached_property
    def _layout(self) -> _Layout:
        return _region_layout(self.level)

    @property
    def vertices(self) -> tuple[GammaVertex, ...]:
        """The region's vertices, sorted."""
        return self._layout.vertices

    @cached_property
    def graph(self) -> Graph:
        """The subgraph of the compound the vertices induce."""
        return _induced_graph(self._layout)

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
        rims = _rim_positions(self._layout.numbers)
        return [len(ns) for v, ns in zip(self.vertices, rims)
                if len(v.wx) + len(v.wy) <= depth]


def _deeper(w: Word) -> tuple[int, ...]:
    """The letters of the tree edges from node w down to its children."""
    return _OTHER_LETTERS[w[-1]] if w else LETTERS


_SUFFIXES = tuple(((s,), (t,)) for s, t in _OTHER_LETTERS)  # _deeper, as suffixes


def _words(depth: int) -> list[Word]:
    """The reduced words of length at most depth, in lexicographic order
    (a word before its extensions): the depth-truncated tree in preorder,
    each node's children by letter; [] when depth < 0.

    Paired x-word outer, y-word inner under |wx| + |wy| <= depth, the
    words list tersquares and vertices in sorted order. Each depth's words
    come in the order of their parents, so by stable sort on length this
    is also the breadth-first order that `_edge_code` sweeps.
    """
    if depth < 0:
        return []
    out = [()]
    stack = [(2,), (1,), (0,)] if depth else []
    while stack:
        w = stack.pop()
        out.append(w)
        if len(w) < depth:
            s, t = _SUFFIXES[w[-1]]
            stack += (w + t, w + s)
    return out


def _bounded(depth: int, nodes: list) -> list[list]:
    """For k = 0..depth, the entries (word, ...) of a lexicographic list
    whose words have length <= k, in order: those a word of length
    depth - k pairs with under the cut-off |wx| + |wy| <= depth."""
    return [[e for e in nodes if len(e[0]) <= k] for k in range(depth + 1)]


def _tree_edges(depth: int) -> list[tuple[Word, tuple[int, ...]]]:
    """Each node of `_words(depth)` with the letters of its edges down."""
    return [(w, _deeper(w)) for w in _words(depth)]


def _cut(depth: int, xs: list, ys: list) -> tuple[GammaVertex, ...]:
    """The vertices (wx, wy, a, b) with (wx, letters a) from xs and (wy,
    letters b) from ys and |wx| + |wy| <= depth, sorted: the entries list
    their words lexicographically, each with its letters in order, and
    no word in xs is longer than depth."""
    # tuple.__new__ skips the named tuple's Python-level __new__
    new, ys = tuple.__new__, _bounded(depth, ys)
    return tuple([new(GammaVertex, (wx, wy, a, b)) for wx, la in xs
                  for wy, lb in ys[depth - len(wx)] for a in la for b in lb])


def _tersquares_up_to(depth: int) -> tuple[Tersquare, ...]:
    """The tersquares with |wx| + |wy| <= depth, sorted."""
    nodes = _tree_edges(depth)
    new, ys = tuple.__new__, _bounded(depth, nodes)
    return tuple([new(Tersquare, (wx, wy)) for wx, _ in nodes for wy, _ in ys[depth - len(wx)]])


def _vertices_up_to(depth: int) -> tuple[GammaVertex, ...]:
    """The canonical vertices with |wx| + |wy| <= depth, sorted; () when
    depth < 0."""
    edges = _tree_edges(depth)
    return _cut(depth, edges, edges)


class _Layout:
    """A hive's or a region's vertices as a cut product, one block per
    address (wx, wy), with their edge numbers, ids and owners.

    Each axis gives its entries (word, edge letters), lexicographic, and
    its member nodes (all, for None): the vertices are (wx, wy, a, b) over
    an x- and a y-entry with |wx| + |wy| <= depth, sorted block by block
    (`_cut`), and the members are the pairs of member nodes within the cut.
    Each word is numbered 3k in order of first use, as an x-word and then
    as a y-word, and written once; the walk gives each vertex its edge ints
    3k + a and 3k' + b, the numbers `_rim_positions` reads, and hashes no
    vertex. The rest is made on first use: the sorted vertex tuples, which
    `hive_vertices`, `hive_graph` and a region's vertices and graph read
    and the exports do not, and the exports' `ids` ("tx|" + "ty|a|b") and
    `owners`, the latter a vertex's member tersquares among (wx, wy), (wx,
    wy+b), (wx+a, wy), (wx+a, wy+b), in that sorted order: a block's slack
    depth - |wx| - |wy| of 0 keeps only the first, and of 1 all but the last.
    """

    def __init__(self, depth: int, xs: list, ys: list, nodes: tuple = (None, None)):
        words = dict.fromkeys(w for w, _ in chain(xs, ys))
        base = {w: 3 * k for k, w in enumerate(words)}
        self.depth, self.nodes, self._entries = depth, nodes, (xs, ys)
        self.xs = [(w, ls, base[w]) for w, ls in xs]
        self.ys = _bounded(depth, [(w, ls, base[w]) for w, ls in ys])
        rows = [(kx, la, self.ys[depth - len(wx)]) for wx, la, kx in self.xs]
        ex = [kx + a for kx, la, row in rows for _, lb, _ in row for a in la for b in lb]
        ey = [ky + b for _, la, row in rows for _, lb, ky in row for a in la for b in lb]
        self.numbers = base, ex, ey

    @cached_property
    def vertices(self) -> tuple[GammaVertex, ...]:
        return _cut(self.depth, *self._entries)

    @cached_property
    def ids(self) -> list[str]:
        text = list(map(word_str, self.numbers[0]))
        tails = {k: [[f"{text[k // 3]}|{a}|{b}" for b in lb] for a in LETTERS]
                 for _, lb, k in self.ys[-1]}
        return [tx + t for wx, la, kx in self.xs for tx in [text[kx // 3] + "|"]
                for _, _, ky in self.ys[self.depth - len(wx)] for a in la for t in tails[ky][a]]

    @cached_property
    def owners(self) -> list[list[str]]:
        (mx, my), out = self.nodes, []

        def part(u, nodes, end=""):  # a member node's text in a tersquare name, else ""
            return word_str(u) + end if nodes is None or u in nodes else ""

        ends = {k: (part(w, my), [part(w + (b,), my) for b in lb]) for w, lb, k in self.ys[-1]}
        for wx, la, _ in self.xs:
            r = self.depth - len(wx)
            x0, xcs = part(wx, mx, "|"), [part(wx + (a,), mx, "|") for a in la]
            for wy, _, ky in self.ys[r]:
                (y0, ycs), s = ends[ky], r - len(wy)
                n00 = [x0 + y0] if x0 and y0 else []
                heads = [n00 + [x0 + q] if x0 and q and s else n00 for q in ycs]
                for c in xcs:
                    if c and s:
                        mid = [c + y0] if y0 else []
                        out += [h + mid + [c + q] if q and s > 1 else h + mid
                                for h, q in zip(heads, ycs)]
                    else:  # no member (wx + a, *): the heads, shared
                        out += heads
        return out


def _region_layout(level: int) -> _Layout:
    """The region's vertices: the depth-level tree's edges on each axis,
    cut by |wx| + |wy| <= level, every tersquare within it a member."""
    edges = _tree_edges(level)
    return _Layout(level, edges, edges)


def _hive_layout(h: Hive) -> _Layout:
    """The hive's vertices: on each axis, the nine tree edges meeting an
    edge at the center's node; its member nodes, the members' words, are
    that node and its neighbours, and the cut leaves every pair in."""
    axes = (sorted({m for e in _edges_at(w) for m in _closed(e)}) for w in h.center)
    xs, ys = ([(u, tuple(a for _, a in es)) for u, es in groupby(edges, itemgetter(0))]
              for edges in axes)
    nodes = tuple(set(ws) for ws in zip(*h.members))
    return _Layout(sum(max(map(len, ws)) for ws in nodes), xs, ys, nodes)


def build_region(level: int) -> Region:
    """Region of all tersquares with |wx| + |wy| <= level."""
    if level < 0:
        raise ValueError("region level must be >= 0")
    return Region(level)


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
            return VerifyReport(False, "overlap", (c1, c2))
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
    try:
        inst = ExactCoverInstance(tuple(verts), tiles, deadline)
    except OutOfTime:
        return 0, False, 0
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
    try:
        inst = eds_instance(hive_graph(h), deadline=deadline)
    except OutOfTime:
        return CoverOutcome("timeout", None, 0)
    return solve(inst, deadline=deadline)


# ---------------------------------------------------------------------------
# growing codes beyond one hive
# ---------------------------------------------------------------------------

_FREE, _CHOSEN, _COVERED = 0, 1, 2  # `_edge_code`'s node states


def _edge_code(max_depth: int, rng: random.Random | None) -> set[Edge]:
    """A set of tree edges such that every edge within depth touches
    exactly one chosen edge (efficient edge domination of the 3-regular
    tree), built by a breadth-first sweep of the tree's levels.

    A node at depth 1..max_depth carries the state of its incoming edge e:
    chosen, covered (e meets a chosen edge at its shallow end) or free. A
    node is free when its parent chose no deeper edge and the parent's
    incoming edge is not chosen, so no edge of N[e] is chosen yet. Level
    by level, in lexicographic order within a level, each free node
    chooses one of its deeper edges, picked by the rng (or the least
    letter, when rng is None); the chosen child's incoming edge is chosen
    and the other child's covered. Below a chosen edge both children are
    covered, below a covered node both are free. No root edge is chosen,
    matching the hive picture where the chosen vertices sit in corners.
    """
    code: set[Edge] = set()
    nodes = [((s,), _FREE) for s in LETTERS]
    for _ in range(max_depth):
        children: list = []
        for w, state in nodes:
            s, t = letters = _OTHER_LETTERS[w[-1]]
            ws, wt = w + (s,), w + (t,)
            if state == _FREE:
                pick = rng.choice(letters) if rng is not None else s
                code.add((w, pick))
                children += ((ws, _CHOSEN), (wt, _COVERED)) if pick == s else \
                            ((ws, _COVERED), (wt, _CHOSEN))
            else:
                below = _COVERED if state == _CHOSEN else _FREE
                children += ((ws, below), (wt, below))
        nodes = children
    return code


def _interior_check(level: int, dx: set[Edge], dy: set[Edge]) -> VerifyReport:
    """Check that the balls of the centres that the axis codes dx and dy
    give at a level partition the region's interior, through the codes.

    An interior vertex (e, f), |wx| + |wy| <= level - 2, lies in the ball
    N[e'] x N[f'] of a centre (e', f') exactly when e' is in N[e] and f'
    in N[f], and every such pair of chosen edges is a centre, its depths
    summing to at most level. So the vertex is hit cx(e) * cy(f) times,
    with cx(e) = |N[e] & dx| and cy(f) = |N[f] & dy|, and the interior is
    partitioned exactly when cx and cy are 1 on every edge of depth <=
    level - 2. Only when they are not does it scan the interior vertices,
    in order, for `verify_partition`'s witness: the smallest vertex hit
    twice or more, else the smallest hit by none. Neither the interior nor
    a ball is built on a pass.
    """
    edges = [(w, a) for w, ls in _tree_edges(level - 2) for a in ls]
    cx, cy = ({e: sum(g in code for g in _closed(e)) for e in edges} for code in (dx, dy))
    if all(c == 1 for c in chain(cx.values(), cy.values())):
        return VerifyReport(passed=True)
    hits = [(v, cx[v.wx, v.a] * cy[v.wy, v.b]) for v in _vertices_up_to(level - 2)]
    over = [v for v, n in hits if n > 1]
    if over:
        return VerifyReport(False, "overlap", (over[0],))
    # some count is not 1: paired with a depth-0 edge of the other axis it
    # leaves a product other than 1, so a vertex is hit by none
    return VerifyReport(False, "gap", (next(v for v, n in hits if n == 0),))


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

    The x-sweep runs to depth level + 3 though only its edges of depth
    <= level become centres: the y-sweep's draws follow it on the shared
    rng, so the three extra levels fix every seeded code. The y-sweep
    stops at the level, and the rng is not read after it.

    The region is never built: as in `Region`, its vertices are the pairs
    of tree edges with |wx| + |wy| <= level, and its interior those with
    |wx| + |wy| <= level - 2; both sizes come from per-depth edge counts.
    The truncated 2-balls of the centers must partition the interior,
    which `_interior_check` decides from the axis codes' per-edge counts
    (an overlap reported before a gap); boundary vertices (with containing
    tersquares outside the region) are left unverified.
    """
    if level < 2:
        raise ValueError("need a region of level >= 2")
    rng = random.Random(seed) if seed is not None else None
    dx = _edge_code(level + 3, rng)
    dy = _edge_code(level, rng)
    edges = _tree_edges(level)
    xs, ys = ([(w, [a for a in ls if (w, a) in code]) for w, ls in edges] for code in (dx, dy))
    centers = _cut(level, xs, ys)
    rep = _interior_check(level, dx, dy)
    per_depth = [0] * (level + 1)
    for w, ls in edges:
        per_depth[len(w)] += len(ls)

    def pairs(d: int) -> int:  # the vertices with |wx| + |wy| <= d
        return sum(per_depth[i] * per_depth[j] for i in range(d + 1) for j in range(d + 1 - i))

    interior = pairs(level - 2)
    return RegionCode(level, seed, centers, interior, pairs(level) - interior, rep.passed,
                      rep.witness[0] if rep.witness else None)


# ---------------------------------------------------------------------------
# graph export
# ---------------------------------------------------------------------------

_CLASS_COLORS = {"center": "white", "subcentral": "lightblue", "corner": "lightgray"}


def _export_json(layout: _Layout, adj: list[list[int]]) -> str:
    """The text json.dumps(doc, indent=2, sort_keys=True) gives for the doc
    {"edges": [[u, v], ...], "vertices": [{"id": v, "tersquares": [...]},
    ...]}, written directly. Ids and tersquare names are made of digits,
    '-' and '|', which json.dumps writes as they are, so each is written
    between quotes; every vertex has an owner; the layout is fixed.

    The vertices are sorted, so an edge [u, v] has u at the lower position.
    The edges sort by u's id, then v's: with the positions sorted by id
    once, each v is filed under its lower neighbours u in that order, so
    every u's list comes out sorted, and the lists are read in it too.
    """
    ids = layout.ids
    q = [f'"{i}"' for i in ids]
    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    higher: list[list[int]] = [[] for _ in ids]
    for j in by_id:
        for i in adj[j]:
            if i < j:
                higher[i].append(j)
    edges = [f"[\n      {q[i]},\n      {q[j]}\n    ]" for i in by_id for j in higher[i]]
    sep = '",\n        "'  # between two names of a vertex's "tersquares"
    verts = [f'{{\n      "id": {qi},\n      "tersquares": [\n        "{sep.join(ts)}"\n      ]\n    }}'
             for qi, ts in zip(q, layout.owners)]
    return _json_object({"edges": _json_array(edges, "  "), "vertices": _json_array(verts, "  ")})


def _export_dot(layout: _Layout, adj: list[list[int]], hive: Hive | None) -> str:
    """DOT text with each vertex's member tersquares; a hive's vertices are
    colored by class, read off those. Edges come in position order, which
    is sorted pair order."""
    ids, owners, attrs = layout.ids, layout.owners, [""] * len(layout.ids)
    if hive is not None:
        center, subs = str(hive.center), set(map(str, hive.subcentral))
        for i, ts in enumerate(owners):
            cls = "center" if center in ts else "corner" if subs.isdisjoint(ts) else "subcentral"
            attrs[i] = f'fillcolor="{_CLASS_COLORS[cls]}", class="{cls}", '
    lines = ["graph gamma2 {", '  node [shape=circle, style=filled];']
    lines += [f'  "{i}" [{a}tersquares="{";".join(ts)}"];' for i, a, ts in zip(ids, attrs, owners)]
    lines += [f'  "{ids[i]}" -- "{ids[j]}";' for i, ns in enumerate(adj) for j in sorted(ns) if j > i]
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

    target is "hive" or "region"; level applies to regions only. One
    `_Layout` gives the edges (`_rim_positions` of its numbers), the ids
    and the owners, the parts made on first use that the text reads; no
    vertex tuple and no `Graph` is built.
    """
    if target not in ("hive", "region"):
        raise ValueError(f"unknown export target {target!r}")
    if fmt not in ("dot", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if target == "region" and level < 0:
        raise ValueError("region level must be >= 0")
    hive = build_hive() if target == "hive" else None
    layout = _region_layout(level) if hive is None else _hive_layout(hive)
    adj = _rim_positions(layout.numbers)
    if fmt == "dot":
        return _export_dot(layout, adj, hive)
    return _export_json(layout, adj)
