"""Finite simple graph views shared by the verifiers and search engines.

Vertices are arbitrary hashable, sortable values (integer tuples for grid
graphs, canonical vertex objects for the ternary compound). Adjacency is
kept as a plain dict of frozensets; everything downstream treats graphs as
immutable.
"""

from __future__ import annotations

from functools import cached_property

from .metric import Ambient


class Graph:
    """Immutable adjacency view of a finite simple graph."""

    def __init__(self, adjacency: dict):
        self._adj = {v: frozenset(ns) for v, ns in adjacency.items()}
        for v, ns in self._adj.items():
            for u in ns:
                if u not in self._adj:
                    raise ValueError(f"edge endpoint {u!r} missing from vertex set")
                if v not in self._adj[u]:
                    raise ValueError(f"asymmetric edge {v!r}->{u!r}")
            if v in ns:
                raise ValueError(f"self-loop at {v!r}")

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
    """
    # (axis, step, modulus); a window's modulus 0 means no wrapping
    moves = [(i, step, a.moduli[i] if a.is_torus else 0)
             for i in range(a.dimension) for step in (1, -1)]
    own = {v: v for v in a.vertices()}  # maps a built tuple to the ambient's own
    adj: dict = {}
    for v in own:
        ns = set()
        for i, step, m in moves:
            x = v[i] + step
            u = own.get(v[:i] + ((x % m if m else x),) + v[i + 1:])
            if u is not None and u != v:
                ns.add(u)
        adj[v] = ns
    return Graph(adj)


def grid_graph(m: int, n: int) -> Graph:
    """Cartesian product of two paths, P_m box P_n."""
    return lattice_graph(Ambient.window((0, m - 1), (0, n - 1)))
