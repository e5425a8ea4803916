"""Finite simple graph views shared by the verifiers and search engines.

Vertices are arbitrary hashable, sortable values (integer tuples for grid
graphs, canonical vertex objects for the ternary compound). A graph holds
its vertices sorted and, for each vertex's position in them, the positions
of its neighbours; builders that number their vertices anyway (lattice and
compound graphs) hand over those positions as they are. Everything
downstream treats graphs as immutable.
"""

from __future__ import annotations

from functools import cached_property

from .metric import Ambient


class Graph:
    """Immutable view of a finite simple graph: vertices, sorted, and
    _nbrs[i], the positions in vertices of vertex i's neighbours.

    Graph(adjacency) checks a dict from each vertex to its neighbours: every
    endpoint is a vertex, every edge goes both ways, and no vertex is its
    own neighbour, vertex by vertex in the dict's order, each one's
    neighbours before its loop. Methods that name a vertex look it up in
    _pos, made on first use; a neighbour is always the vertices' own object.
    """

    def __init__(self, adjacency: dict):
        adj = {v: frozenset(ns) for v, ns in adjacency.items()}
        get = adj.get
        for v, ns in adj.items():
            for u in ns:
                back = get(u)
                if back is None:
                    raise ValueError(f"edge endpoint {u!r} missing from vertex set")
                if v not in back:
                    raise ValueError(f"asymmetric edge {v!r}->{u!r}")
            if v in ns:
                raise ValueError(f"self-loop at {v!r}")
        self.vertices = tuple(sorted(adj))
        at = self._pos.__getitem__
        self._nbrs = [tuple(map(at, adj[v])) for v in self.vertices]

    @classmethod
    def _from_positions(cls, vertices: tuple, nbrs: list) -> "Graph":
        """The graph on sorted vertices whose neighbours, by position, are
        nbrs, symmetric and loop-free by construction: taken as they are."""
        g = cls.__new__(cls)
        g.vertices, g._nbrs = vertices, nbrs
        return g

    @cached_property
    def _pos(self) -> dict:
        """Each vertex's position in vertices."""
        return {v: i for i, v in enumerate(self.vertices)}

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, v) -> bool:
        return v in self._pos

    def neighbors(self, v) -> frozenset:
        return frozenset(map(self.vertices.__getitem__, self._nbrs[self._pos[v]]))

    def degree(self, v) -> int:
        return len(self._nbrs[self._pos[v]])

    def has_edge(self, u, v) -> bool:
        i = self._pos.get(u)
        return i is not None and self._pos.get(v) in self._nbrs[i]

    def edge_count(self) -> int:
        return sum(map(len, self._nbrs)) // 2


def _str_id(x) -> str:
    """x, checked to be a str: graph and instance files name things by string ids."""
    if not isinstance(x, str):
        raise TypeError(f"id {x!r} is not a string")
    return x


def _array(x, size: int | None = None) -> list:
    """x, checked to be a JSON array, of size items if given: in input files
    a string or an object would otherwise be read as a list of its
    characters or keys."""
    if not isinstance(x, list) or size is not None and len(x) != size:
        raise TypeError(f"{x!r} is not an array" + ("" if size is None else f" of {size} items"))
    return x


def lattice_graph(a: Ambient) -> Graph:
    """Grid graph of an ambient: one edge per unit step in one axis.

    On a torus the steps wrap; note that moduli 1 and 2 collapse or double
    edges away (a modulus-2 axis yields a single edge, not two).

    The vertices are listed in row-major order, which is sorted order, and
    the steps are built on their positions 0..N-1: along an axis of extent
    m and stride s the positions fall into blocks of m * s, within which the
    +1 neighbours are the block shifted by s: its last s positions wrap
    round to the first s on a torus and have none (None) on a window. The
    -1 neighbours are the shift the other way. On a torus with every
    modulus at least 3 a vertex's 2n steps are distinct and none is the
    vertex, so they are its neighbours as they come; otherwise each
    vertex's steps are taken as a set, less None and the vertex itself.
    Steps are symmetric, so the graph is built without Graph's checks.
    """
    verts = tuple(a.vertices())
    size, torus = len(verts), a.is_torus
    steps = []
    for m, s in zip(a.extents, a.strides):
        up, down = [], []
        for k in range(0, size, m * s):
            block = range(k, k + m * s)
            up += block[s:]
            up += block[:s] if torus else [None] * s
            down += block[-s:] if torus else [None] * s
            down += block[:-s]
        steps += (up, down)
    if not a.degenerate:
        return Graph._from_positions(verts, list(zip(*steps)))
    nbrs = []
    for i, ns in enumerate(zip(*steps)):
        ns = set(ns)
        ns.discard(None)
        ns.discard(i)
        nbrs.append(tuple(ns))
    return Graph._from_positions(verts, nbrs)


def grid_graph(m: int, n: int) -> Graph:
    """Cartesian product of two paths, P_m box P_n."""
    return lattice_graph(Ambient.window((0, m - 1), (0, n - 1)))
