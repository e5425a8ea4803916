"""Exact cover search: the engine behind tiling and efficient domination.

Algorithm X (Knuth, "Dancing Links", arXiv cs/0011047) over a dict-of-sets
matrix. Branching is deterministic: always the uncovered cell with the
fewest candidate tiles, ties broken by the cell's position in the universe
ordering; candidate tiles are tried in instance order. Instances built by
the constructors in this package list their tiles in sorted id order, so
runs are reproducible.

The search relabels cells and tiles once, to their positions in the
universe and the tile list, so the matrix holds only ints however costly
the callers' cells are to hash, and position order is the branching
order. It runs as a loop over an explicit stack, so search depth is
bounded by memory, not by Python's recursion limit.

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


def _run_x(inst: ExactCoverInstance, limit: int | None, budget: float | None):
    """Core Algorithm X loop. Returns (solutions, exhausted, nodes).

    Cells and tiles are relabelled once, to their positions in
    inst.universe and inst.tiles: x maps each uncovered cell to the set of
    live tiles containing it, and y[i] lists tile i's cells. The smallest
    (len, cell) pair is then the fewest candidates with ties to the
    earliest cell, and sorted() candidates are in instance order.

    Each stack frame is [candidate tiles, next position, columns removed
    by the tile selected here, or None]. Every tried candidate counts as a
    node, and the budget is checked at each node.
    """
    ids = [tid for tid, _ in inst.tiles]
    pos = {c: i for i, c in enumerate(inst.universe)}
    y = [sorted(pos[c] for c in cells) for _, cells in inst.tiles]
    x: dict[int, set[int]] = {c: set() for c in range(len(inst.universe))}
    for i, cells in enumerate(y):
        for c in cells:
            x[c].add(i)
    deadline = None if budget is None else time.monotonic() + budget
    solutions: list[tuple[str, ...]] = []
    partial: list[int] = []
    stack: list[list] = []
    nodes = 0

    def select(row: int) -> list[set[int]]:
        cols = []
        for j in y[row]:
            for i in x[j]:
                for k in y[i]:
                    if k != j:
                        x[k].discard(i)
            cols.append(x.pop(j))
        return cols

    def deselect(row: int, cols: list[set[int]]) -> None:
        for j in reversed(y[row]):
            x[j] = cols.pop()
            for i in x[j]:
                for k in y[i]:
                    if k != j:
                        x[k].add(i)

    while True:
        if not x:
            solutions.append(tuple(sorted(ids[i] for i in partial)))
            if limit is not None and len(solutions) >= limit:
                return solutions, False, nodes
        else:
            # min over (len, cell) pairs runs in C; cells are unique, so no tie
            cell = min(zip(map(len, x.values()), x))[1]
            if x[cell]:
                stack.append([sorted(x[cell]), 0, None])
        # backtrack to the next untried candidate, then descend into it
        while stack:
            frame = stack[-1]
            if frame[2] is not None:
                deselect(partial.pop(), frame[2])
                frame[2] = None
            if frame[1] < len(frame[0]):
                break
            stack.pop()
        else:
            return solutions, True, nodes
        row = frame[0][frame[1]]
        frame[1] += 1
        nodes += 1
        if deadline is not None and time.monotonic() > deadline:
            return solutions, False, nodes
        partial.append(row)
        frame[2] = select(row)


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
    cells = dict(inst.tiles)
    chosen = [cells[t] for t in tile_ids]  # an unknown id raises KeyError
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


def tiling_instance(a: Ambient, shapes: list[tuple[str, tuple[Point, ...], int]]):
    """Exact cover instance whose tiles are placed truncated balls.

    shapes is a list of (name, vertex set, radius); every orientation under
    coordinate permutations and every torus translation yields one tile.
    Tile ids encode shape, orientation and anchor, e.g. "sq:1@0,3,2".
    Returns the instance plus a placement table keyed by tile id.

    Each orientation's ball is enumerated once, on a window that does not
    clip it. Its anchor is the ball vertex of minimal coordinate sum, ties
    broken lexicographically; the tile anchored at z is that ball translated
    so that its anchor lands on z, which on a torus is the ball of the
    shape translated alike.

    A ball whose span exceeds a modulus wraps onto itself and comes out
    smaller than its lattice volume. The wrap always creates a vertex with
    two nearest center vertices, so no verified code can use such a ball,
    and its placements are left out; a translate has the same size, so
    this drops whole orientations.
    """
    if not a.is_torus:
        raise ValueError("tiling instances are built over tori")
    if any(m < 3 for m in a.moduli):
        raise ValueError("tiling needs all moduli >= 3 (balls would self-wrap)")
    universe = tuple(a.vertices())
    tiles = []
    placements = {}
    for name, shape, radius in shapes:
        for oi, orient in enumerate(shape_orientations(tuple(shape))):
            ball = truncated_ball(orient, radius, Ambient.around(orient))
            if len(set(map(a.wrap, ball))) < len(ball):
                continue
            anchor = min(ball, key=lambda p: (sum(p), p))
            for z in a.vertices():
                shift = tuple(x - y for x, y in zip(z, anchor))
                placed = tuple(sorted(a.translate(p, shift) for p in orient))
                tid = f"{name}:{oi}@{','.join(map(str, z))}"
                tiles.append((tid, frozenset(a.translate(p, shift) for p in ball)))
                placements[tid] = (name, radius, placed, z)
    return ExactCoverInstance(universe, tuple(tiles)), placements


def _cell_from_json(c):
    return tuple(c) if isinstance(c, list) else c


def instance_from_json(doc: dict) -> ExactCoverInstance:
    universe = tuple(_cell_from_json(c) for c in doc["universe"])
    tiles = tuple((tid, frozenset(_cell_from_json(c) for c in cells))
                  for tid, cells in doc["tiles"])
    return ExactCoverInstance(universe, tiles)


def grid_eds_survey(max_side: int, budget: float | None = None) -> dict:
    """Exhaustive EDS existence and count for grids P_m box P_n.

    Surveys 3 <= m, n <= max_side. In this range an efficient dominating
    set is known to exist only at (4, 4). The budget bounds the whole
    survey: each grid gets the time left, and a grid that runs out of it
    is reported with exists and count None.
    """
    deadline = None if budget is None else time.monotonic() + budget
    out = {}
    for m in range(3, max_side + 1):
        for n in range(3, max_side + 1):
            left = None if deadline is None else deadline - time.monotonic()
            res = enumerate_covers(eds_instance(grid_graph(m, n)), budget=left)
            if not res.exhaustive:
                out[(m, n)] = {"exists": None, "count": None, "exhaustive": False}
            else:
                out[(m, n)] = {"exists": bool(res.solutions),
                               "count": len(res.solutions),
                               "exhaustive": True}
    return out
