"""Finite simple graph views shared by the verifiers and search engines.

Vertices are arbitrary hashable, sortable values (integer tuples for grid
graphs, canonical vertex objects for the ternary compound). Adjacency is
kept as a plain dict of frozensets; everything downstream treats graphs as
immutable.
"""

from __future__ import annotations

from functools import cached_property

from .metric import Ambient, _strides


class Graph:
    """Immutable adjacency view of a finite simple graph."""

    def __init__(self, adjacency: dict):
        self._adj = {v: frozenset(ns) for v, ns in adjacency.items()}
        get = self._adj.get
        for v, ns in self._adj.items():
            for u in ns:
                back = get(u)
                if back is None:
                    raise ValueError(f"edge endpoint {u!r} missing from vertex set")
                if v not in back:
                    raise ValueError(f"asymmetric edge {v!r}->{u!r}")
            if v in ns:
                raise ValueError(f"self-loop at {v!r}")

    @classmethod
    def _unchecked(cls, adjacency: dict) -> "Graph":
        """A graph on frozenset adjacency that is symmetric and loop-free by
        construction, taken as it is."""
        g = cls.__new__(cls)
        g._adj = adjacency
        return g

    @cached_property
    def vertices(self) -> tuple:
        """The vertices in sorted order, sorted once per graph."""
        return tuple(sorted(self._adj))

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, v) -> bool:
        return v in self._adj

    def neighbors(self, v) -> frozenset:
        return self._adj[v]

    def degree(self, v) -> int:
        return len(self._adj[v])

    def has_edge(self, u, v) -> bool:
        return v in self._adj.get(u, ())

    def edge_count(self) -> int:
        return sum(len(ns) for ns in self._adj.values()) // 2


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

    The vertices are listed in row-major order, so along an axis of extent
    m and stride s they fall into blocks of m * s, within which the +1
    neighbours are the block shifted by s: its last s vertices wrap round
    to the first s on a torus and have none (None) on a window. The -1
    neighbours are the shift the other way. Steps are symmetric and a
    vertex is dropped from its own neighbours, so the graph is built
    without Graph's checks.
    """
    verts = list(a.vertices())
    extents = a.moduli if a.is_torus else tuple(hi - lo + 1 for lo, hi in a.bounds)
    steps = []
    for m, s in zip(extents, _strides(extents)):
        up, down = [], []
        for k in range(0, len(verts), m * s):
            block = verts[k:k + m * s]
            up += block[s:] + (block[:s] if a.is_torus else [None] * s)
            down += (block[-s:] if a.is_torus else [None] * s) + block[:-s]
        steps += (up, down)
    adj = {}
    for v, *ns in zip(verts, *steps):
        ns = set(ns)
        ns.discard(None)
        ns.discard(v)
        adj[v] = frozenset(ns)
    return Graph._unchecked(adj)


def grid_graph(m: int, n: int) -> Graph:
    """Cartesian product of two paths, P_m box P_n."""
    return lattice_graph(Ambient.window((0, m - 1), (0, n - 1)))
