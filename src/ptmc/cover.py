"""Exact cover search: the engine behind tiling and efficient domination.

Algorithm X (Knuth, "Dancing Links", arXiv cs/0011047) over int bitmasks.
Branching is deterministic: always the uncovered cell with the fewest
candidate tiles, ties broken by the cell's position in the universe
ordering; candidate tiles are tried in instance order. Instances built by
the constructors in this package list their tiles in a fixed order, so
runs are reproducible: tiling instances in orientation blocks, each with
its anchors in row-major order (not sorted id order once a modulus
exceeds 10: "dot:0@9,2" comes before "dot:0@10,0"), the others in the
order of their graph's vertices or their file's tiles.

The search turns every set it needs into a Python int: a tile's cells, a
cell's tiles, the tiles a choice rules out (built the first time that tile
is chosen), and the per-cell candidate counts as a few bit slices, read
through ExactCoverInstance.masks. Tile-listed instances build them from
the cell positions found when constructed. Tiling instances are built as
masks directly: on a torus listed in row-major order, translating a tile
by one step along an axis is one masked rotation of its cell mask, so
every placement of an orientation, and every cell's mask of tiles, is its
predecessor rotated once. However costly the callers' cells are to hash, a
search node is then a handful of int operations, and position order is bit
order, which is the branching order. The search runs as a loop over an
explicit stack of frames of ints, so backtracking is a pop and search
depth is bounded by memory, not by Python's recursion limit.

Exhausting the search without a solution is a proof of infeasibility and
is reported distinctly from passing the deadline, a time.monotonic() value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from math import prod

from .codes import verify_partition
from .graphs import Graph, _array, _str_id, grid_graph
from .metric import Ambient, DimensionMismatch, Point, _strides, truncated_ball


class OutOfTime(Exception):
    """An instance builder passed its deadline before it finished."""


def _check_clock(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise OutOfTime


class ExactCoverInstance:
    """An ordered universe of cells plus candidate tiles (id, cell subset).

    ids[r] is tile r's id and rows[r] the positions in universe of its
    cells. The search reads masks(): (names, cells, holders) over bits b,
    where tile names[b] has the cell mask cells[b] and holders[c] masks the
    bits whose tiles hold cell c; the tiles are the bits in _order. The
    constructor checks the tiles and keeps only their ids and rows, from
    which masks() builds the masks at each call, keeping none. A tiling
    instance (see tiling_instance) holds its masks, trusted as built, as
    _masks, and makes its rows from them on first use, as does one from
    restrict. Either form makes tiles, the (id, frozenset of cells) pairs,
    from its ids and rows on first use.
    """

    _masks = None

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
        self.ids = tuple(tid for tid, _ in tiles)
        self.rows = tuple(rows)
        self._order = range(len(rows))

    @classmethod
    def _from_masks(cls, universe: tuple, masks: tuple, order) -> "ExactCoverInstance":
        inst = cls.__new__(cls)
        inst.universe, inst._masks, inst._order = universe, masks, tuple(order)
        inst.ids = tuple(map(masks[0].__getitem__, inst._order))
        return inst

    def masks(self, deadline: float | None = None) -> tuple:
        """(names, cells, holders); a tile-listed instance's are built afresh,
        raising OutOfTime past the deadline, checked per tile and per cell."""
        if self._masks is not None:
            return self._masks
        cells = []
        holders: list[list[int]] = [[] for _ in self.universe]
        for r, row in enumerate(self.rows):
            _check_clock(deadline)
            cells.append(_mask(row))
            for c in row:
                holders[c].append(r)
        tiles = []
        for h in holders:
            _check_clock(deadline)
            tiles.append(_mask(h))
        return self.ids, cells, tiles

    def restrict(self, keep) -> "ExactCoverInstance":
        """The tiles at positions keep, in keep's order, on the same masks."""
        return self._from_masks(self.universe, self.masks(), map(self._order.__getitem__, keep))

    def holding(self, c: int) -> list[int]:
        """The positions, ascending, of the tiles holding cell position c."""
        bits = set(_positions(self.masks()[2][c]))
        return [r for r, b in enumerate(self._order) if b in bits]

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        cells = self.masks()[1]
        return tuple(tuple(_positions(cells[b])) for b in self._order)

    @cached_property
    def tiles(self) -> tuple[tuple[str, frozenset], ...]:
        cell = self.universe.__getitem__
        return tuple((tid, frozenset(map(cell, row))) for tid, row in zip(self.ids, self.rows))


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

    It reads inst.masks(deadline) over bit positions, the live tiles first
    being the bits of inst._order: cells[b] masks tile b's cells, tiles[c]
    the tiles containing cell c, and kill[b], built the first time b is
    selected, is the OR of tiles[c] over the bits c of cells[b], i.e. every
    tile that clashes with b (0 until then: a tile clashes with itself). A
    node is (uncovered, live, counts); selecting b leaves uncovered &
    ~cells[b] and live & ~kill[b].

    counts holds, per cell, the number of live tiles containing it as
    bit slices: bit c of counts[j] is bit j of cell c's count. Selecting b
    subtracts the killed tiles' cells masks from it, or sums the live
    tiles' masks afresh when fewer tiles stay live than were killed.
    Narrowing uncovered from the top slice down leaves the cells of
    minimum count; the lowest of them is the branching cell, so ties go to
    the earliest cell, and its candidates tiles[c] & live are tried in
    instance order: lowest bit first, unless the order is not ascending,
    when they are sorted by their rank in it.

    Each stack frame is [uncovered, live, counts, untried candidates, tile
    selected here]. Only its last two entries change once it is pushed; a
    child builds new ints and a new counts list, so backtracking is a pop.
    Every tried candidate counts as a node. The deadline is checked while
    masks() builds, at the end of the set-up and then at each node; one
    passed before the first node, even before the call, gives 0 nodes.
    """
    try:
        names, cells, tiles = inst.masks(deadline)
        order = inst._order
        live = ((1 << len(cells)) - 1) ^ _mask(set(range(len(cells))).difference(order))
        counts = _sliced_sum(cells, live)
        _check_clock(deadline)
    except OutOfTime:
        return [], False, 0
    rank = None
    if any(b > c for b, c in zip(order, order[1:])):
        rank = dict(zip(order, range(len(order))))
    kill = [0] * len(cells)
    uncovered = (1 << len(inst.universe)) - 1
    solutions: list[tuple[str, ...]] = []
    stack: list[list] = []
    nodes = 0
    while True:
        if not uncovered:
            solutions.append(tuple(sorted(names[f[4]] for f in stack)))
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
                if rank is not None:  # a list, next candidate last
                    candidates = sorted(_positions(candidates), key=rank.__getitem__,
                                        reverse=True)
                stack.append([uncovered, live, counts, candidates, -1])
        # backtrack to the next untried candidate, then descend into it
        while stack and not stack[-1][3]:
            stack.pop()
        if not stack:
            return solutions, True, nodes
        frame = stack[-1]
        uncovered, live, counts, candidates, _ = frame
        if rank is None:
            low = candidates & -candidates
            frame[3] = candidates ^ low
            row = frame[4] = low.bit_length() - 1
        else:
            row = frame[4] = candidates.pop()
        nodes += 1
        if deadline is not None and time.monotonic() > deadline:
            return solutions, False, nodes
        uncovered &= ~cells[row]
        k = kill[row]
        if not k:
            m = cells[row]
            while m:  # a tile's few cells, lowest bit first
                low = m & -m
                m ^= low
                k |= tiles[low.bit_length() - 1]
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


def _positions(m: int) -> list[int]:
    """The bit positions set in m, ascending: found in its binary digits,
    so a sparse mask costs one pass over its length, not one per bit."""
    digits = bin(m)[:1:-1]
    out = []
    p = digits.find("1")
    while p >= 0:
        out.append(p)
        p = digits.find("1", p + 1)
    return out


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
    """All exact covers, canonically ordered, up to an optional cap >= 1."""
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    sols, exhausted, nodes = _run_x(inst, limit=limit, deadline=deadline)
    return EnumerateOutcome(tuple(sorted(sols)), exhausted, nodes)


def verify_cover(inst: ExactCoverInstance, tile_ids: tuple[str, ...]) -> bool:
    """Independent re-check that chosen tiles partition the universe.

    Only the chosen tiles' cells are read, off the instance's masks; no
    other tile is made.
    """
    at = dict(zip(inst.ids, inst._order))  # tile id -> bit; an unknown id raises KeyError
    cells, cell = inst.masks()[1], inst.universe.__getitem__
    blocks = [frozenset(map(cell, _positions(cells[at[t]]))) for t in tile_ids]
    return verify_partition(blocks, inst.universe).passed


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
    vertices are listed in row-major order, and a cell's position is its
    row-major index, so the instance is built as the search's masks: the
    cell masks of one orientation are its ball's mask at anchor 0 swept over
    the anchors (`_sweep`), and the masks of each cell's tiles are one sweep
    of the masks of the negated balls, set side by side, one block of N =
    len(universe) bits per orientation. Rows are made only on demand.

    A ball whose span exceeds a modulus wraps onto itself and comes out
    smaller than its lattice volume. The wrap always creates a vertex with
    two nearest center vertices, so no verified code can use such a ball;
    a translate has the same size, so the whole orientation is left out.

    Returns the instance plus one block (name, radius, orientation, anchor)
    per orientation kept, in instance order, each of N tiles: tile r is
    block r // N with its anchor at universe[r % N], its placed shape the
    orientation translated by universe[r % N] - anchor.

    A shape of another dimension than the torus raises DimensionMismatch.
    With a deadline (a time.monotonic() value), building raises OutOfTime
    once it has passed; it is checked before each sweep.
    """
    if not a.is_torus:
        raise ValueError("tiling instances are built over tori")
    if any(m < 3 for m in a.moduli):
        raise ValueError("tiling needs all moduli >= 3 (balls would self-wrap)")
    n, moduli = a.dimension, a.moduli
    universe = tuple(a.vertices())
    labels = [",".join(map(str, z)) for z in universe]
    axes = tuple(zip(moduli, _strides(moduli)))

    def index(d):
        return sum(x % m * k for x, (m, k) in zip(d, axes))

    ids, cells, starts, blocks = [], [], [], []
    for name, shape, radius in shapes:
        if any(len(p) != n for p in shape):
            raise DimensionMismatch(f"shape {name!r} is not of the torus's dimension {n}")
        for oi, orient in enumerate(shape_orientations(tuple(shape))):
            _check_clock(deadline)
            ball = truncated_ball(orient, radius, Ambient.around(orient))
            if len(set(map(a.wrap, ball))) < len(ball):
                continue
            anchor = min(ball, key=lambda p: (sum(p), p))
            offsets = [tuple(x - y for x, y in zip(p, anchor)) for p in ball]
            cells += _sweep(_mask(map(index, offsets)), moduli, 1)
            starts.append(_mask(index([-x for x in d]) for d in offsets))
            tag = f"{name}:{oi}@"
            ids += [tag + label for label in labels]
            blocks.append((name, radius, orient, anchor))
    _check_clock(deadline)
    size = len(universe)
    holders = _sweep(sum(m << o * size for o, m in enumerate(starts)), moduli, len(starts))
    return ExactCoverInstance._from_masks(universe, (ids, cells, holders), range(len(ids))), blocks


def _sweep(start: int, moduli: tuple[int, ...], copies: int) -> list[int]:
    """start translated to every torus vertex z, in row-major order: the
    masks with bit index(x + z) for each bit index(x) of start, index being
    the row-major one. start may hold copies blocks of N = prod(moduli)
    bits side by side; each is translated on its own.

    Translating by +1 along axis i is one masked rotation,
    ((m & ~H) << s) | ((m & H) >> (m_i - 1) s): the cells with x_i < m_i - 1
    move up by the stride s, and those with x_i = m_i - 1, marked by H,
    wrap down to x_i = 0. The masks come from the last axis to the first:
    each axis's run of m_i translates of all masks so far, so every mask
    but start costs one rotation.
    """
    size = prod(moduli)
    out = [start]
    for m, s in zip(reversed(moduli), reversed(_strides(moduli))):
        period = m * s
        top = _repeat(((1 << s) - 1) << (m - 1) * s, period, size * copies // period)
        rest = ((1 << size * copies) - 1) ^ top
        down = (m - 1) * s
        runs = [out]
        for _ in range(m - 1):
            runs.append([(x & rest) << s | (x & top) >> down for x in runs[-1]])
        out = [x for run in runs for x in run]
    return out


def _repeat(block: int, width: int, times: int) -> int:
    """block's bits (block < 2**width) repeated times times, width apart."""
    return block * (((1 << width * times) - 1) // ((1 << width) - 1))


def _cell_from_json(c):
    return tuple(c) if isinstance(c, list) else c


def instance_from_json(doc: dict) -> ExactCoverInstance:
    universe = tuple(_cell_from_json(c) for c in _array(doc["universe"]))
    tiles = []
    for entry in _array(doc["tiles"]):
        tid, cells = _array(entry, 2)
        tiles.append((_str_id(tid), frozenset(_cell_from_json(c) for c in _array(cells))))
    return ExactCoverInstance(universe, tuple(tiles))


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
