"""Exact cover search: the engine behind tiling and efficient domination.

Algorithm X over a dict-of-sets matrix. Branching is deterministic: always
the uncovered cell with the fewest candidate tiles, ties broken by the
cell's position in the universe ordering; candidate tiles are tried in
instance order. Instances built by the constructors in this package list
their tiles in sorted id order, so runs are reproducible.

Exhausting the search without a solution is a proof of infeasibility and
is reported distinctly from running out of time budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations

from .codes import verify_partition
from .graphs import Graph, grid_graph
from .metric import Ambient, Point, truncated_ball


@dataclass(frozen=True)
class ExactCoverInstance:
    """An ordered universe of cells plus candidate tiles (id, cell subset)."""

    universe: tuple
    tiles: tuple[tuple[str, frozenset], ...]

    def __post_init__(self) -> None:
        cells = set(self.universe)
        if len(cells) != len(self.universe):
            raise ValueError("universe has duplicate cells")
        ids = set()
        for tid, tcells in self.tiles:
            if tid in ids:
                raise ValueError(f"duplicate tile id {tid!r}")
            ids.add(tid)
            if not tcells:
                raise ValueError(f"tile {tid!r} is empty")
            if not tcells <= cells:
                raise ValueError(f"tile {tid!r} leaves the universe")

    def tile_cells(self, tid: str) -> frozenset:
        for t, cs in self.tiles:
            if t == tid:
                return cs
        raise KeyError(tid)


@dataclass(frozen=True)
class CoverOutcome:
    """Result of a single-solution search."""

    kind: str  # solution | infeasible | timeout
    tiles: tuple[str, ...] | None
    nodes: int


@dataclass(frozen=True)
class EnumerateOutcome:
    """All solutions found, in canonical (sorted) order."""

    solutions: tuple[tuple[str, ...], ...]
    exhaustive: bool
    nodes: int


class _Budget:
    def __init__(self, seconds: float | None):
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.expired = False

    def check(self) -> bool:
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.expired = True
        return self.expired


def _run_x(inst: ExactCoverInstance, limit: int | None, budget: float | None):
    """Core Algorithm X loop. Returns (solutions, exhausted, nodes)."""
    order = {c: i for i, c in enumerate(inst.universe)}
    y = {i: tuple(cells) for i, (tid, cells) in enumerate(inst.tiles)}
    x: dict = {c: set() for c in inst.universe}
    for i, cells in y.items():
        for c in cells:
            x[c].add(i)
    bud = _Budget(budget)
    solutions: list[tuple[str, ...]] = []
    partial: list[int] = []
    nodes = 0
    stop = False

    def select(row: int) -> list[set]:
        cols = []
        for j in y[row]:
            for i in x[j]:
                for k in y[i]:
                    if k != j:
                        x[k].discard(i)
            cols.append(x.pop(j))
        return cols

    def deselect(row: int, cols: list[set]) -> None:
        for j in reversed(y[row]):
            x[j] = cols.pop()
            for i in x[j]:
                for k in y[i]:
                    if k != j:
                        x[k].add(i)

    def search() -> None:
        nonlocal nodes, stop
        if stop:
            return
        if not x:
            solutions.append(tuple(sorted(inst.tiles[i][0] for i in partial)))
            if limit is not None and len(solutions) >= limit:
                stop = True
            return
        cell = min(x, key=lambda c: (len(x[c]), order[c]))
        if not x[cell]:
            return
        for row in sorted(x[cell]):
            nodes += 1
            if bud.check():
                stop = True
            if stop:
                return
            partial.append(row)
            cols = select(row)
            search()
            deselect(row, cols)
            partial.pop()
            if stop:
                return

    search()
    exhausted = not stop and not bud.expired
    return solutions, exhausted, nodes


def solve(inst: ExactCoverInstance, budget: float | None = None) -> CoverOutcome:
    """First exact cover under the deterministic branching order.

    infeasible is only reported after the whole tree has been searched;
    hitting the budget yields timeout instead.
    """
    sols, exhausted, nodes = _run_x(inst, limit=1, budget=budget)
    if sols:
        return CoverOutcome("solution", sols[0], nodes)
    if exhausted:
        return CoverOutcome("infeasible", None, nodes)
    return CoverOutcome("timeout", None, nodes)


def enumerate_covers(inst: ExactCoverInstance, limit: int | None = None,
                     budget: float | None = None) -> EnumerateOutcome:
    """All exact covers, canonically ordered, up to an optional cap."""
    sols, exhausted, nodes = _run_x(inst, limit=limit, budget=budget)
    return EnumerateOutcome(tuple(sorted(sols)), exhausted, nodes)


def verify_cover(inst: ExactCoverInstance, tile_ids: tuple[str, ...]) -> bool:
    """Independent re-check that chosen tiles partition the universe."""
    chosen = [inst.tile_cells(t) for t in tile_ids]
    return verify_partition(chosen, inst.universe, len(inst.universe)).passed


# ---------------------------------------------------------------------------
# instance builders
# ---------------------------------------------------------------------------

def eds_instance(g: Graph) -> ExactCoverInstance:
    """Efficient domination as exact cover by closed neighborhoods.

    A vertex subset S dominates every vertex exactly once iff the closed
    neighborhoods N[v], v in S, partition V(G). Tile ids are str(vertex).
    """
    universe = tuple(sorted(g.vertices))
    tiles = tuple((str(v), frozenset(g.neighbors(v) | {v})) for v in universe)
    return ExactCoverInstance(universe, tiles)


def shape_orientations(shape: tuple[Point, ...]) -> list[tuple[Point, ...]]:
    """Distinct images of a shape under coordinate permutations.

    Each image is normalized to have its coordinate-wise minimum at the
    origin and sorted; duplicates collapse, so a singleton has one
    orientation and a unit square in n=3 has three.
    """
    n = len(shape[0])
    seen = set()
    out = []
    for perm in permutations(range(n)):
        img = [tuple(p[perm[i]] for i in range(n)) for p in shape]
        mins = tuple(min(p[i] for p in img) for i in range(n))
        norm = tuple(sorted(tuple(x - m for x, m in zip(p, mins)) for p in img))
        if norm not in seen:
            seen.add(norm)
            out.append(norm)
    return sorted(out)


def _anchor_shift(shape: tuple[Point, ...], radius: int, n: int) -> tuple[Point, ...]:
    """Shift a shape so its truncated ball's anchor sits at the origin.

    The anchor is the ball vertex of minimal coordinate sum, ties broken
    lexicographically. Anchoring makes placement translations equivariant:
    the tile translated by z has anchor exactly z.
    """
    lo = min(min(p) for p in shape) - 1
    hi = max(max(p) for p in shape) + 1
    win = Ambient.window(*(((lo, hi),) * n))
    ball = truncated_ball(tuple(shape), radius, win)
    anchor = min(ball, key=lambda p: (sum(p), p))
    return tuple(sorted(tuple(x - a for x, a in zip(p, anchor)) for p in shape))


def tiling_instance(a: Ambient, shapes: list[tuple[str, tuple[Point, ...], int]]):
    """Exact cover instance whose tiles are placed truncated balls.

    shapes is a list of (name, vertex set, radius); every orientation under
    coordinate permutations and every torus translation yields one tile.
    Tile ids encode shape, orientation and anchor, e.g. "sq:1@0,3,2".
    Returns the instance plus a placement table keyed by tile id.

    A ball whose span exceeds a modulus wraps onto itself and comes out
    smaller than its lattice volume; such placements stay in the instance
    (they are legitimate cell sets) but can never occur in a verified code,
    and the template builder drops them up front.
    """
    if not a.is_torus:
        raise ValueError("tiling instances are built over tori")
    if any(m < 3 for m in a.moduli):
        raise ValueError("tiling needs all moduli >= 3 (balls would self-wrap)")
    n = a.dimension
    universe = tuple(a.vertices())
    tiles = []
    placements = {}
    for name, shape, radius in shapes:
        for oi, orient in enumerate(shape_orientations(tuple(shape))):
            anchored = _anchor_shift(orient, radius, n)
            for z in a.vertices():
                placed = tuple(sorted(a.translate(p, z) for p in anchored))
                ball = truncated_ball(placed, radius, a)
                tid = f"{name}:{oi}@{','.join(map(str, z))}"
                tiles.append((tid, frozenset(ball)))
                placements[tid] = (name, radius, placed, z)
    return ExactCoverInstance(universe, tuple(tiles)), placements


def _cell_to_json(c):
    return list(c) if isinstance(c, tuple) else c


def _cell_from_json(c):
    return tuple(c) if isinstance(c, list) else c


def instance_to_json(inst: ExactCoverInstance) -> dict:
    return {"universe": [_cell_to_json(c) for c in inst.universe],
            "tiles": [[tid, sorted((_cell_to_json(c) for c in cells), key=repr)]
                      for tid, cells in inst.tiles]}


def instance_from_json(doc: dict) -> ExactCoverInstance:
    universe = tuple(_cell_from_json(c) for c in doc["universe"])
    tiles = tuple((tid, frozenset(_cell_from_json(c) for c in cells))
                  for tid, cells in doc["tiles"])
    return ExactCoverInstance(universe, tiles)


def grid_eds_survey(max_side: int, budget: float | None = None) -> dict:
    """Exhaustive EDS existence and count for grids P_m box P_n.

    Surveys 3 <= m, n <= max_side. In this range an efficient dominating
    set is known to exist only at (4, 4).
    """
    out = {}
    for m in range(3, max_side + 1):
        for n in range(3, max_side + 1):
            res = enumerate_covers(eds_instance(grid_graph(m, n)), budget=budget)
            if not res.exhaustive:
                out[(m, n)] = {"exists": None, "count": None, "exhaustive": False}
            else:
                out[(m, n)] = {"exists": bool(res.solutions),
                               "count": len(res.solutions),
                               "exhaustive": True}
    return out
