"""Exact cover search: the engine behind tiling and efficient domination.

Algorithm X (Knuth, "Dancing Links", arXiv cs/0011047) over int bitmasks.
Branching is deterministic: always the uncovered cell with the fewest
candidate tiles, ties broken by the cell's position in the universe
ordering; candidate tiles are tried in instance order. Instances built by
the constructors in this package list their tiles in sorted id order, so
runs are reproducible.

The search reads one positional form of an instance: each tile's cells as
their positions in the universe. Tiling instances are built in that form
directly, one block per shape orientation: its ball translated to every
anchor by row-major index arithmetic, so a tile's position is its
placement; tuple-celled instances are converted once, when constructed.
The search turns every set it needs into a Python int: a tile's cells, a
cell's tiles, the tiles a choice rules out (built the first time that tile
is chosen), and the per-cell candidate counts as a few bit slices. However
costly the callers' cells are to hash, a search node is then a handful of
int operations, and position order is bit order, which is the branching
order. The search runs as a loop over an explicit stack of frames of ints,
so backtracking is a pop and search depth is bounded by memory, not by
Python's recursion limit.

Exhausting the search without a solution is a proof of infeasibility and
is reported distinctly from passing the deadline, a time.monotonic() value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from math import prod
from operator import add

from .codes import verify_partition
from .graphs import Graph, _str_id, grid_graph
from .metric import Ambient, DimensionMismatch, Point, _strides, truncated_ball


class ExactCoverInstance:
    """An ordered universe of cells plus candidate tiles (id, cell subset).

    The search reads the positional form: ids[r] is tile r's id and rows[r]
    the positions in universe of its cells. The constructor derives it from
    the tiles, checking them on the way; from_rows takes it as built, and
    then tiles is made from it on first use.
    """

    def __init__(self, universe: tuple, tiles: tuple[tuple[str, frozenset], ...]) -> None:
        pos = {c: i for i, c in enumerate(universe)}
        if len(pos) != len(universe):
            raise ValueError("universe has duplicate cells")
        ids: set[str] = set()
        rows = []
        for tid, tcells in tiles:
            if tid in ids:
                raise ValueError(f"duplicate tile id {tid!r}")
            ids.add(tid)
            if not tcells:
                raise ValueError(f"tile {tid!r} is empty")
            try:
                rows.append(tuple(map(pos.__getitem__, tcells)))
            except KeyError:
                raise ValueError(f"tile {tid!r} leaves the universe") from None
        self.universe = universe
        self.tiles = tiles
        self.ids = tuple(tid for tid, _ in tiles)
        self.rows = tuple(rows)

    @classmethod
    def from_rows(cls, universe: tuple, ids, rows) -> "ExactCoverInstance":
        """An instance given in positional form, trusted as built: distinct
        ids and nonempty rows of distinct positions in universe."""
        inst = cls.__new__(cls)
        inst.universe, inst.ids, inst.rows = universe, tuple(ids), tuple(rows)
        return inst

    @cached_property
    def tiles(self) -> tuple[tuple[str, frozenset], ...]:
        cell = self.universe.__getitem__
        return tuple((tid, frozenset(map(cell, row))) for tid, row in zip(self.ids, self.rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactCoverInstance):
            return NotImplemented
        return self.universe == other.universe and self.tiles == other.tiles


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


def _run_x(inst: ExactCoverInstance, limit: int | None, deadline: float | None):
    """Core Algorithm X loop. Returns (solutions, exhausted, nodes).

    It reads inst.ids and inst.rows, whose positions are bit positions:
    cells[r] masks tile r's cells, tiles[c] the tiles containing cell c, and
    kill[r], built the first time r is selected, is the OR of tiles[c] over
    r's cells, i.e. every tile that clashes with r (0 until then: a tile
    clashes with itself). A node is (uncovered, live, counts); selecting r
    leaves uncovered & ~cells[r] and live & ~kill[r].

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
    Every tried candidate counts as a node. The deadline is checked while the
    masks are built, once per tile and per cell, and then at each node; one
    passed before the first node, even before the call, gives 0 nodes.
    """
    ids, rows = inst.ids, inst.rows
    cells = []
    holders: list[list[int]] = [[] for _ in inst.universe]
    for r, row in enumerate(rows):
        if deadline is not None and time.monotonic() > deadline:
            return [], False, 0
        cells.append(_mask(row))
        for c in row:
            holders[c].append(r)
    tiles = []
    for h in holders:
        if deadline is not None and time.monotonic() > deadline:
            return [], False, 0
        tiles.append(_mask(h))
    kill = [0] * len(ids)
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
        k = kill[row]
        if not k:
            for c in rows[row]:
                k |= tiles[c]
            kill[row] = k
        killed = live & k
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


def solve(inst: ExactCoverInstance, deadline: float | None = None) -> CoverOutcome:
    """First exact cover under the deterministic branching order.

    infeasible is only reported after the whole tree has been searched;
    passing the deadline (a time.monotonic() value) yields timeout instead.
    """
    sols, exhausted, nodes = _run_x(inst, limit=1, deadline=deadline)
    if sols:
        return CoverOutcome("solution", sols[0], nodes)
    if exhausted:
        return CoverOutcome("infeasible", None, nodes)
    return CoverOutcome("timeout", None, nodes)


def enumerate_covers(inst: ExactCoverInstance, limit: int | None = None,
                     deadline: float | None = None) -> EnumerateOutcome:
    """All exact covers, canonically ordered, up to an optional cap."""
    sols, exhausted, nodes = _run_x(inst, limit=limit, deadline=deadline)
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

    Each orientation's ball is enumerated once, on a window that does not
    clip it, for its anchor: the ball vertex of minimal coordinate sum, ties
    broken lexicographically. The tile anchored at z is that ball translated
    to z, the torus ball of the shape placed with its anchor at z. Torus
    vertices are listed in row-major order, so the instance is built in
    positional form: a cell's position is its row-major index, found by
    `_translates` for every anchor at once.

    A ball whose span exceeds a modulus wraps onto itself and comes out
    smaller than its lattice volume. The wrap always creates a vertex with
    two nearest center vertices, so no verified code can use such a ball;
    a translate has the same size, so the whole orientation is left out.

    Returns the instance plus one block (name, radius, orientation, anchor)
    per orientation kept, in instance order, each of N = len(universe)
    tiles: tile r is block r // N with its anchor at universe[r % N], its
    placed shape the orientation translated by universe[r % N] - anchor.

    A shape of another dimension than the torus raises DimensionMismatch.
    With a deadline (a time.monotonic() value), building raises OutOfTime
    once it has passed; it is checked once per orientation.
    """
    if not a.is_torus:
        raise ValueError("tiling instances are built over tori")
    if any(m < 3 for m in a.moduli):
        raise ValueError("tiling needs all moduli >= 3 (balls would self-wrap)")
    n = a.dimension
    universe = tuple(a.vertices())
    labels = [",".join(map(str, z)) for z in universe]
    ids, rows, blocks = [], [], []
    for name, shape, radius in shapes:
        if any(len(p) != n for p in shape):
            raise DimensionMismatch(f"shape {name!r} is not of the torus's dimension {n}")
        for oi, orient in enumerate(shape_orientations(tuple(shape))):
            if deadline is not None and time.monotonic() > deadline:
                raise OutOfTime
            ball = truncated_ball(orient, radius, Ambient.around(orient))
            if len(set(map(a.wrap, ball))) < len(ball):
                continue
            anchor = min(ball, key=lambda p: (sum(p), p))
            rows += _translates(ball, anchor, a.moduli)
            tag = f"{name}:{oi}@"
            ids += [tag + label for label in labels]
            blocks.append((name, radius, orient, anchor))
    return ExactCoverInstance.from_rows(universe, ids, rows), blocks


def _translates(points: tuple[Point, ...], anchor: Point,
                moduli: tuple[int, ...]) -> list[tuple[int, ...]]:
    """For every torus vertex z in row-major order, the row-major indices
    of the points moved so that anchor lands on z.

    Per axis i, a table holds each point's index term
    ((p_i - anchor_i + z_i) mod m_i) * stride_i for every z_i; the sums
    over the first axes are shared by all anchors that agree on them, and
    the rows share one int object per index.
    """
    tables = []
    for i, (m, k) in enumerate(zip(moduli, _strides(moduli))):
        col = [p[i] - anchor[i] for p in points]
        tables.append([tuple([(x + z) % m * k for x in col]) for z in range(m)])
    *first, last = tables
    out = [(0,) * len(points)]
    for table in first:
        out = [tuple(map(add, s, t)) for s in out for t in table]
    index = list(range(prod(moduli))).__getitem__
    return [tuple(map(index, map(add, s, t))) for s in out for t in last]


def _cell_from_json(c):
    return tuple(c) if isinstance(c, list) else c


def instance_from_json(doc: dict) -> ExactCoverInstance:
    universe = tuple(_cell_from_json(c) for c in doc["universe"])
    tiles = tuple((_str_id(tid), frozenset(_cell_from_json(c) for c in cells))
                  for tid, cells in doc["tiles"])
    return ExactCoverInstance(universe, tiles)


def grid_eds_survey(max_side: int, deadline: float | None = None) -> dict:
    """Exhaustive EDS existence and count for grids P_m box P_n.

    Surveys 3 <= m, n <= max_side. In this range an efficient dominating
    set is known to exist only at (4, 4). One deadline (a time.monotonic()
    value) bounds the whole survey: a grid whose search it ends is reported
    with exists and count None.
    """
    out = {}
    for m in range(3, max_side + 1):
        for n in range(3, max_side + 1):
            res = enumerate_covers(eds_instance(grid_graph(m, n)), deadline=deadline)
            if not res.exhaustive:
                out[(m, n)] = {"exists": None, "count": None, "exhaustive": False}
            else:
                out[(m, n)] = {"exists": bool(res.solutions),
                               "count": len(res.solutions),
                               "exhaustive": True}
    return out
