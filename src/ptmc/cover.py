"""Exact cover search: the engine behind tiling and efficient domination.

Algorithm X (Knuth, "Dancing Links", arXiv cs/0011047) over int bitmasks.
Branching is deterministic: always the uncovered cell with the fewest
candidate tiles, ties broken by the cell's position in the universe
ordering; candidate tiles are tried in instance order. Instances built by
the constructors in this package list their tiles in sorted id order, so
runs are reproducible.

The search relabels cells and tiles once, to their positions in the
universe and the tile list, and turns every set it needs into a Python
int: a tile's cells, a cell's tiles, the tiles a choice rules out, and the
per-cell candidate counts as a few bit slices. However costly the callers'
cells are to hash, a search node is then a handful of int operations, and
position order is bit order, which is the branching order. The search
runs as a loop over an explicit stack of frames of ints, so backtracking
is a pop and search depth is bounded by memory, not by Python's recursion
limit.

Exhausting the search without a solution is a proof of infeasibility and
is reported distinctly from running out of time budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations

from .codes import verify_partition
from .graphs import Graph, grid_graph
from .metric import Ambient, Point, _nearest_ball, truncated_ball


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

    Cells and tiles are relabelled to their positions in inst.universe and
    inst.tiles, and sets of them become int masks: cells[r] holds tile r's
    cells, tiles[c] the tiles containing cell c, and kill[r] the OR of
    tiles[c] over r's cells, i.e. every tile that clashes with r. A node is
    (uncovered, live, counts); selecting r leaves uncovered & ~cells[r] and
    live & ~kill[r].

    counts holds, per cell, the number of live tiles containing it as
    bit slices: bit c of counts[j] is bit j of cell c's count. Selecting r
    subtracts the killed tiles' cells masks from it, or sums the live
    tiles' masks afresh when fewer tiles stay live than were killed.
    Narrowing uncovered from the top slice down leaves the cells of
    minimum count; the lowest of them is the branching cell, so ties go to
    the earliest cell, and its candidates tiles[c] & live are tried lowest
    bit first, in instance order.

    Each stack frame is [uncovered, live, counts, untried candidates, tile
    selected here]. Only its last two entries change once it is pushed; a
    child builds new ints and a new counts list, so backtracking is a pop.
    Every tried candidate counts as a node. The budget starts before the
    relabelling, so set-up time counts against it, but it is checked only
    at each node: a set-up that outlasts the budget runs to its end.
    """
    deadline = None if budget is None else time.monotonic() + budget
    ids = [tid for tid, _ in inst.tiles]
    pos = {c: i for i, c in enumerate(inst.universe)}
    members = [[pos[c] for c in tcells] for _, tcells in inst.tiles]
    cells = [_mask(m) for m in members]
    holders: list[list[int]] = [[] for _ in inst.universe]
    for r, m in enumerate(members):
        for c in m:
            holders[c].append(r)
    tiles = [_mask(h) for h in holders]
    kill = []
    for m in members:
        k = 0
        for c in m:
            k |= tiles[c]
        kill.append(k)
    uncovered = (1 << len(inst.universe)) - 1
    live = (1 << len(ids)) - 1
    counts = _sliced_sum(cells, live)
    solutions: list[tuple[str, ...]] = []
    stack: list[list] = []
    nodes = 0
    while True:
        if not uncovered:
            solutions.append(tuple(sorted(ids[f[4]] for f in stack)))
            if limit is not None and len(solutions) >= limit:
                return solutions, False, nodes
        else:
            least = uncovered
            for s in reversed(counts):
                narrowed = least & ~s
                if narrowed:
                    least = narrowed
            candidates = tiles[(least & -least).bit_length() - 1] & live
            if candidates:
                stack.append([uncovered, live, counts, candidates, -1])
        # backtrack to the next untried candidate, then descend into it
        while stack and not stack[-1][3]:
            stack.pop()
        if not stack:
            return solutions, True, nodes
        frame = stack[-1]
        uncovered, live, counts, candidates, _ = frame
        low = candidates & -candidates
        frame[3] = candidates ^ low
        row = frame[4] = low.bit_length() - 1
        nodes += 1
        if deadline is not None and time.monotonic() > deadline:
            return solutions, False, nodes
        uncovered &= ~cells[row]
        killed = live & kill[row]
        live ^= killed
        if live.bit_count() < killed.bit_count():
            counts = _sliced_sum(cells, live)
        else:
            counts = list(counts)
            while killed:
                low = killed & -killed
                killed ^= low
                m = cells[low.bit_length() - 1]
                for j, s in enumerate(counts):
                    counts[j] = s ^ m
                    m &= ~s  # borrow where the slice bit was 0
                    if not m:
                        break
            while counts and not counts[-1]:
                counts.pop()


def _mask(positions) -> int:
    """The int with exactly the given bit positions set."""
    m = 0
    for p in positions:
        m |= 1 << p
    return m


def _sliced_sum(cells: list[int], chosen: int) -> list[int]:
    """Per-bit counts of the masks cells[r], r in chosen, as bit slices."""
    counts: list[int] = []
    while chosen:
        low = chosen & -chosen
        chosen ^= low
        m = cells[low.bit_length() - 1]
        for j, s in enumerate(counts):
            counts[j] = s ^ m
            m &= s  # carry where the slice bit was 1
            if not m:
                break
        else:
            if m:
                counts.append(m)
    return counts


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
    universe = g.vertices
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


class OutOfTime(Exception):
    """An instance builder passed its deadline before it finished."""


def tiling_instance(a: Ambient, shapes: list[tuple[str, tuple[Point, ...], int]],
                    deadline: float | None = None):
    """Exact cover instance whose tiles are placed truncated balls.

    shapes is a list of (name, vertex set, radius); every orientation under
    coordinate permutations and every torus translation yields one tile.
    Tile ids encode shape, orientation and anchor, e.g. "sq:1@0,3,2".
    Returns the instance plus a placement table keyed by tile id.

    Each orientation's ball is enumerated once, on a window that does not
    clip it, for its anchor: the ball vertex of minimal coordinate sum, ties
    broken lexicographically. The tile anchored at z is the verifier's torus
    ball (`metric._nearest_ball`) of the shape placed with its anchor at z.

    A ball whose span exceeds a modulus wraps onto itself and comes out
    smaller than its lattice volume. The wrap always creates a vertex with
    two nearest center vertices, so no verified code can use such a ball,
    and its placements are left out; a translate has the same size, so
    this drops whole orientations.

    With a deadline (a time.monotonic() value), building raises OutOfTime
    once it has passed.
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
            for z in universe:
                if deadline is not None and time.monotonic() > deadline:
                    raise OutOfTime
                shift = tuple(x - y for x, y in zip(z, anchor))
                placed = tuple(sorted(a.translate(p, shift) for p in orient))
                tid = f"{name}:{oi}@{','.join(map(str, z))}"
                cells = _nearest_ball(placed, radius, a.moduli, [])
                tiles.append((tid, frozenset(map(universe.__getitem__, cells))))
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
