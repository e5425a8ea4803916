"""Exact cover search: the engine behind tiling and efficient domination.

Algorithm X (Knuth, "Dancing Links", arXiv cs/0011047) over int bitmasks.
Branching is deterministic: always the uncovered cell with the fewest
candidate tiles, ties broken by the cell's position in the universe
ordering; candidate tiles are tried in instance order. Instances built by
the constructors in this package list their tiles in a fixed order, so
runs are reproducible: tiling instances in orientation blocks, each with
its anchors in row-major order (not sorted id order once a modulus
exceeds 10: "dot:0@9,2" comes before "dot:0@10,0"), the others in the
order of their graph's vertices or their file's tiles. A tiling
instance is set up from each orientation's ball alone: the orientations
are the shape's orbit under adjacent transpositions, not a loop over all
n! permutations, each ball vertex costs one arithmetic pass for its
row-major offset, and the ids' anchor labels are one product of per-axis
strings.

The search turns every set it needs into a Python int: a tile's cells, a
cell's tiles, the tiles a choice rules out (built the first time that tile
is chosen), and the per-cell candidate counts as a few bit slices, read
through ExactCoverInstance.masks, which every instance holds from its
construction: one given as a tile list (an instance file, say) builds
them once, from its tiles' cell positions; the builders here make them
directly. An efficient-domination instance has one mask per vertex, its
closed neighborhood, serving as both its tile's cells and its cell's
tiles. On a torus listed in row-major order, translating a tile by one
step along an axis is one masked rotation of its cell mask, so every
placement of a tiling orientation, and every cell's mask of tiles, is its
predecessor rotated once. However costly the callers' cells are to hash, a
search node is then a handful of int operations, and position order is bit
order, which is the branching order. After a choice, the counts are
updated by the cheapest of three passes, priced by the instance's width:
subtracting the killed tiles' masks or summing the live tiles', each a
pass over the slices per tile, or recounting every cell's live tiles, a
popcount of a tiles-bit mask per cell (`_recount_above`). None of them
negates a full-width int (`_run_x` says why). The search runs as a loop
over an explicit stack of frames of ints, so backtracking is a pop and search
depth is bounded by memory, not by Python's recursion limit. A subtree
depends on its uncovered cells alone, so the search keeps a memo with one
key, the uncovered mask, per finished subtree, and a descent into a state
already finished counts its nodes and lists its covers without searching
it again (Knuth, TAOCP 4B, 7.2.2.1; Nishino et al., "Dancing with Decision
Diagrams", AAAI 2017). Reported nodes are the nodes of the search tree,
replayed subtrees included, the same as a search without the memo.

Exhausting the search without a solution is a proof of infeasibility and
is reported distinctly from passing the deadline, a time.monotonic() value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import prod
from operator import mod, mul, sub
from typing import Iterable

from .codes import verify_partition
from .graphs import Graph, _array, _str_id, grid_graph
from .metric import (Ambient, DimensionMismatch, Point, _bits, _mask, _rotate, _strides,
                     _top_rows, truncated_ball)


class OutOfTime(Exception):
    """An instance builder passed its deadline before it finished."""


def _check_clock(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise OutOfTime


class ExactCoverInstance:
    """An ordered universe of cells plus candidate tiles (id, cell subset).

    ids[r] is tile r's id. The search reads masks, (names, cells, holders)
    over bits b, where tile names[b] has the cell mask cells[b] and
    holders[c] masks the bits whose tiles hold cell c; the tiles are the
    bits in _order. The constructor checks the tiles, then builds the masks
    from the positions in universe of their cells; with a deadline (a
    time.monotonic() value) it raises OutOfTime once that has passed,
    checked before each tile's mask and each cell's. A tiling or efficient-
    domination instance (see tiling_instance and eds_instance, the latter
    one shared mask per vertex), and one from restrict, is made on masks
    built elsewhere, trusted as built. row(r) reads one tile's positions off
    its mask; tiles, the (id, frozenset of cells) pairs, is made from the
    rows on first use.
    """

    def __init__(self, universe: tuple, tiles: Iterable[tuple[str, frozenset]],
                 deadline: float | None = None) -> None:
        pos = {c: i for i, c in enumerate(universe)}
        if len(pos) != len(universe):
            raise ValueError("universe has duplicate cells")
        ids: dict[str, None] = {}  # in tile order: tiles are read once
        rows = []
        for tid, tcells in tiles:
            if tid in ids:
                raise ValueError(f"duplicate tile id {tid!r}")
            ids[tid] = None
            if not tcells:
                raise ValueError(f"tile {tid!r} is empty")
            try:
                rows.append(tuple(map(pos.__getitem__, tcells)))
            except KeyError:
                raise ValueError(f"tile {tid!r} leaves the universe") from None
        cells = []
        holders: list = [[] for _ in universe]  # positions, then masks
        for r, row in enumerate(rows):
            _check_clock(deadline)
            cells.append(_mask(row))
            for c in row:
                holders[c].append(r)
        for c, h in enumerate(holders):
            _check_clock(deadline)
            holders[c] = _mask(h)
        self.universe = universe
        self.ids = tuple(ids)
        self.masks = (self.ids, cells, holders)
        self._order = range(len(cells))

    @classmethod
    def _from_masks(cls, universe: tuple, masks: tuple, order) -> "ExactCoverInstance":
        """An instance on masks, its tiles the bits in order: a range is
        kept as one, and must then be every bit, ascending."""
        inst = cls.__new__(cls)
        inst.universe, inst.masks = universe, masks
        inst._order = order if isinstance(order, range) else tuple(order)
        inst.ids = tuple(map(masks[0].__getitem__, inst._order))
        return inst

    def restrict(self, keep) -> "ExactCoverInstance":
        """The tiles at positions keep, in keep's order, on the same masks."""
        return self._from_masks(self.universe, self.masks, map(self._order.__getitem__, keep))

    def row(self, r: int) -> tuple[int, ...]:
        """The positions in universe, ascending, of tile r's cells, read off
        its mask, so no other tile's are made."""
        return tuple(_bits(self.masks[1][self._order[r]]))

    def holding(self, c: int) -> list[int]:
        """The positions, ascending, of the tiles holding cell position c."""
        bits = _bits(self.masks[2][c])
        if isinstance(self._order, range):  # every bit, ascending: positions are bits
            return bits
        bits = set(bits)
        return [r for r, b in enumerate(self._order) if b in bits]

    @cached_property
    def tiles(self) -> tuple[tuple[str, frozenset], ...]:
        cell = self.universe.__getitem__
        return tuple((tid, frozenset(map(cell, self.row(r)))) for r, tid in enumerate(self.ids))


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

    It reads inst.masks over bit positions, the live tiles first
    being the bits of inst._order: cells[b] masks tile b's cells, tiles[c]
    the tiles containing cell c, and kill[b], built the first time b is
    selected, is the OR of tiles[c] over the bits c of cells[b], i.e. every
    tile that clashes with b (0 until then: a tile clashes with itself). A
    node is (uncovered, live, counts); selecting b leaves uncovered ^
    cells[b], as a live tile lies inside uncovered, and live ^ (live &
    kill[b]).

    counts holds, per cell, the number of live tiles containing it as
    bit slices: bit c of counts[j] is bit j of cell c's count. The first
    counts are read off the cells' holders (`_counted`), one popcount per
    cell, as at the root every tile is live. Selecting b kills K tiles and
    leaves L live, and three passes give the same new counts: subtracting
    the K killed tiles' cells masks, summing the L live tiles' masks afresh
    (`_sliced_sum`), each a pass over the slices per tile, or recounting
    every cell's live holders (`_counted`), whose cost grows with cells x
    tiles whatever K and L are. So the search recounts when both K and L
    exceed `_recount_above`, worked out once from the instance's numbers
    of cells and tiles, and otherwise sums when L < K and subtracts when
    not. A node compares the two popcounts it takes anyway with that one
    int: tiling instances up to n = 5 pass it near the root, while EDS
    tori, grids and the hive, whose choices kill a dozen tiles, never do.
    Subtracting a mask m from slice s leaves d = s ^ m and borrows m & d,
    the bits where m is 1 and s was 0. Narrowing uncovered from the top
    slice down (least ^ (least & s), unless that is empty) leaves the
    cells of minimum count; the lowest of them, the top bit of least ^
    (least - 1), is the branching cell, so ties go to the earliest cell,
    and its candidates tiles[c] & live are tried in instance order: lowest
    bit first, the rest being c & (c - 1), unless the order is not
    ascending, when they are sorted by their rank in it.

    Only the candidates keep an order. The kill mask ORs the holders of a
    tile's cells and the count update subtracts the killed tiles, and
    neither result depends on the order, so those loops read bits highest
    first, by bit_length(). No full-width int is negated: CPython makes the
    two's complement of a negative int before a bitwise operation, so at
    2,500 bits a & ~b and a & -a each took about five times as long as a &
    b or a ^ b (timeit, 2-vCPU VM, Python 3.11), and the search's
    operations are &, ^, |, shifts and subtracting 1 from a positive int.

    The live tiles are exactly the tiles of inst._order inside uncovered,
    so the subtree below a node, its branching, nodes and covers, depends
    on uncovered alone. memo holds one entry per finished subtree, keyed by
    its uncovered mask: (nodes below, covers below, branches), where
    branches lists (tile bit, child entry) for each tile tried there with
    covers below it, in search order. A dead end is (0, 0, ()) and the
    covered state 0 is (0, 1, ()). A descent into a memoised state adds its
    nodes and lists its covers (_replay) instead of pushing it, unless its
    covers would reach the limit: it is then searched, so the limit stops
    the search where it would stop without the memo.

    Each stack frame is [uncovered, live, counts, untried candidates, tile
    selected here, nodes and solutions when pushed, branches]. A child
    builds new ints and a new counts list, so backtracking is a pop, which
    stores the frame's memo entry. Every tried candidate counts as a node:
    nodes counts the nodes of the search tree, replayed subtrees included.
    The deadline is checked at the end of the set-up, then at each node
    and at each cover a replay lists; one passed before the first node,
    even before the call, gives 0 nodes.
    """
    names, cells, tiles = inst.masks
    order = inst._order
    live = (1 << len(cells)) - 1
    if not isinstance(order, range):  # a range is every bit, ascending
        live ^= _mask(set(range(len(cells))).difference(order))
    counts = _counted(tiles, live)
    enough = _recount_above(len(inst.universe), len(cells))
    if deadline is not None and time.monotonic() > deadline:
        return [], False, 0
    rank = None
    if not isinstance(order, range) and any(b > c for b, c in zip(order, order[1:])):
        rank = dict(zip(order, range(len(order))))
    kill = [0] * len(cells)
    uncovered = (1 << len(inst.universe)) - 1
    solutions: list[tuple[str, ...]] = []
    stack: list[list] = []
    memo = {0: (0, 1, ())}
    nodes = 0
    while True:
        if not uncovered:  # the empty universe, or a cover that reaches the limit
            solutions.append(tuple(sorted(names[f[4]] for f in stack)))
            if limit is not None and len(solutions) >= limit:
                return solutions, False, nodes
        else:
            least = uncovered
            for s in reversed(counts):
                narrowed = least ^ (least & s)
                if narrowed:
                    least = narrowed
            candidates = tiles[(least ^ (least - 1)).bit_length() - 1] & live
            if candidates:
                if rank is not None:  # a list, next candidate last
                    candidates = sorted(_bits(candidates), key=rank.__getitem__,
                                        reverse=True)
                stack.append([uncovered, live, counts, candidates, -1, nodes, len(solutions), []])
            else:
                memo[uncovered] = (0, 0, ())
        while True:  # backtrack to the next untried candidate, replaying memoised ones
            while stack and not stack[-1][3]:
                done = stack.pop()
                found = len(solutions) - done[6]
                memo[done[0]] = entry = (nodes - done[5], found, done[7] if found else ())
                if found and stack:
                    stack[-1][7].append((stack[-1][4], entry))
            if not stack:
                return solutions, True, nodes
            frame = stack[-1]
            candidates = frame[3]
            if rank is None:
                rest = frame[3] = candidates & (candidates - 1)
                row = frame[4] = (candidates ^ rest).bit_length() - 1
            else:
                row = frame[4] = candidates.pop()
            nodes += 1
            if deadline is not None and time.monotonic() > deadline:
                return solutions, False, nodes
            uncovered = frame[0] ^ cells[row]  # a live tile lies inside uncovered
            entry = memo.get(uncovered)
            if entry is None or (entry[1] and limit is not None
                                 and len(solutions) + entry[1] >= limit):
                break
            nodes += entry[0]
            if entry[1]:
                branch = (row, entry)
                frame[7].append(branch)
                above = [names[f[4]] for f in stack[:-1]]
                if not _replay((branch,), above, names, solutions, deadline):
                    return solutions, False, nodes
        live, counts = frame[1], frame[2]
        k = kill[row]
        if not k:
            m = cells[row]
            while m:  # a tile's few cells, highest bit first
                b = m.bit_length() - 1
                m ^= 1 << b
                k |= tiles[b]
            kill[row] = k
        killed = live & k
        live ^= killed
        n_killed, n_live = killed.bit_count(), live.bit_count()
        if n_killed > enough < n_live:
            counts = _counted(tiles, live)
        elif n_live < n_killed:
            counts = _sliced_sum(cells, live)
        else:
            counts = list(counts)
            while killed:  # highest bit first
                b = killed.bit_length() - 1
                killed ^= 1 << b
                m = cells[b]
                for j, s in enumerate(counts):
                    counts[j] = d = s ^ m
                    m &= d  # borrow where the slice bit was 0
                    if not m:
                        break
            while counts and not counts[-1]:
                counts.pop()


def _replay(branches, path: list[str], names, out: list, deadline: float | None) -> bool:
    """Appends to out, in search order, the covers below memo branches:
    path, the ids selected above them, plus the ids along each path of
    branches down to the covered state, whose branches are empty. False
    once the deadline, checked at each cover, has passed."""
    walk = [iter(branches)]
    while walk:
        for row, (_, _, below) in walk[-1]:
            path.append(names[row])
            if below:
                walk.append(iter(below))
                break
            out.append(tuple(sorted(path)))
            path.pop()
            if deadline is not None and time.monotonic() > deadline:
                return False
        else:
            walk.pop()
            if walk:
                path.pop()
    return True


def _sliced_sum(cells: list[int], chosen: int) -> list[int]:
    """Per-bit counts of the masks cells[r], r in chosen, as bit slices. A
    sum does not depend on the order of its terms, so chosen is read
    highest bit first, by bit_length(), and no full-width int is negated
    (see `_run_x`)."""
    counts: list[int] = []
    while chosen:
        b = chosen.bit_length() - 1
        chosen ^= 1 << b
        m = cells[b]
        for j, s in enumerate(counts):
            counts[j] = s ^ m
            m &= s  # carry where the slice bit was 1
            if not m:
                break
        else:
            if m:
                counts.append(m)
    return counts


_BIT_DIGITS = [(b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j) for j in range(8)]


def _counted(holders: list[int], chosen: int) -> list[int]:
    """Per-cell counts of the chosen bits in each cell's holders mask, as
    bit slices: _sliced_sum(cells, chosen) read the other way round, for
    the search's first counts and for its recounts (`_recount_above`). The
    counts are popcounts, laid out a byte per cell, 8 bits of them at a
    time; bytes.translate turns each byte into the digit of one bit, so a
    slice is one int() of a binary string, cell 0 its last digit."""
    counts = [(h & chosen).bit_count() for h in holders]
    width = max(counts, default=0).bit_length()
    out = []
    for shift in range(0, width, 8):
        row = bytes([c >> shift & 255 for c in counts]) if width > 8 else bytes(counts)
        out += [int(row.translate(_BIT_DIGITS[j])[::-1], 2) for j in range(min(8, width - shift))]
    return out


def _recount_above(cells: int, tiles: int) -> int:
    """The number of tiles that both the killed and the live tiles of a
    choice must exceed for `_run_x` to recount its counts (`_counted`)
    rather than subtract the killed tiles' masks or sum the live ones'.

    The costs are priced in one unit, the time to popcount one bit of a
    holders mask, about 0.075 ns. A recount takes one popcount of a
    tiles-bit mask per cell plus about 1,024 units, and about 131,072 for
    the whole pass; subtracting or summing takes about 8,192 units plus
    2.5 per cell for each tile, as it touches two or three slices of cells
    bits. Fitted to the updates of template searches on cube-singleton
    instances of n = 3 to 6 (108 to 23,328 cells, twice as many tiles, on
    a 2-vCPU VM, Python 3.11), a recount took 0.024, 0.12, 2.6 and 83 ms
    and a tile 0.81, 0.81, 1.5 and 5.2 us, so a recount paid back above
    29, 143, 1,674 and 16,136 tiles, where this gives 31, 166, 1,917 and
    16,724. Summed over each of those searches (19 of them, seeded and
    not), the passes this rule picks take at most 11% longer than the
    fastest pass at every node would, and 0.49 to 0.95 times as long as
    subtracting and summing alone, or as long at n = 6, where it never
    recounts. A rule blind to width, recounting whenever killed tiles x
    slices exceed cells, made the n = 6 searches' updates 1.7 and 2.9
    times as slow, as its recounts cost 83 ms each."""
    return (cells * (1024 + tiles) + 131072) // (8192 + 5 * cells // 2)


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

    Only the chosen tiles' cells are read, through ExactCoverInstance.row;
    no other tile is made.
    """
    at = {tid: r for r, tid in enumerate(inst.ids)}  # an unknown id raises KeyError
    cell = inst.universe.__getitem__
    blocks = [frozenset(map(cell, inst.row(at[t]))) for t in tile_ids]
    return verify_partition(blocks, inst.universe).passed


# ---------------------------------------------------------------------------
# instance builders
# ---------------------------------------------------------------------------

def eds_instance(g: Graph, deadline: float | None = None) -> ExactCoverInstance:
    """Efficient domination as exact cover by closed neighborhoods.

    A vertex subset S dominates every vertex exactly once iff the closed
    neighborhoods N[v], v in S, partition V(G). Tile ids are str(vertex).

    Built as masks: vertex i of g.vertices is tile i and cell i, and its
    one mask, bit i and the bits of its neighbours' positions, read as the
    graph holds them with no vertex hashed, is both the tile's cells and
    the cell's holders, one list serving as both, as adjacency is
    symmetric. With a
    deadline (a time.monotonic() value), building raises OutOfTime once it
    has passed; it is checked before each vertex's mask.
    """
    universe = g.vertices
    ids = tuple(map(str, universe))
    if len(set(ids)) != len(ids):
        seen = set()
        for tid in ids:
            if tid in seen:
                raise ValueError(f"duplicate tile id {tid!r}")
            seen.add(tid)
    masks = []
    for i, ns in enumerate(g._nbrs):
        _check_clock(deadline)
        m = 1 << i
        for j in ns:
            m |= 1 << j
        masks.append(m)
    return ExactCoverInstance._from_masks(universe, (ids, masks, masks), range(len(ids)))


def shape_orientations(shape: tuple[Point, ...]) -> list[tuple[Point, ...]]:
    """Distinct images of a shape under coordinate permutations, sorted.

    Each image is normalized to have its coordinate-wise minimum at the
    origin and sorted; duplicates collapse, so a singleton has one
    orientation and a unit square in n=3 has three. The images are the
    orbit of the normalized shape under the n - 1 adjacent transpositions,
    which generate every permutation, so the work grows with the number of
    distinct images, not with n!: the (n-1)-cube in n dimensions has n.
    Swapping two axes keeps a normalized image normalized, so each new
    image is only sorted.
    """
    n = len(shape[0])
    mins = [min(c) for c in zip(*shape)]
    start = tuple(sorted(tuple(map(sub, p, mins)) for p in shape))
    seen = {start}
    todo = [start]
    while todo:
        img = todo.pop()
        for i in range(n - 1):
            swapped = tuple(sorted(p[:i] + (p[i + 1], p[i]) + p[i + 2:] for p in img))
            if swapped not in seen:
                seen.add(swapped)
                todo.append(swapped)
    return sorted(seen)


def tiling_instance(a: Ambient, shapes: list[tuple[str, tuple[Point, ...], int]],
                    deadline: float | None = None):
    """Exact cover instance whose tiles are placed truncated balls.

    shapes is a list of (name, vertex set, radius); every orientation under
    coordinate permutations (`shape_orientations`, in its sorted order) and
    every torus translation yields one tile. Tile ids encode shape,
    orientation and anchor, e.g. "sq:1@0,3,2"; the anchor labels are made
    once, as the row-major product of each axis's coordinate strings.

    Each orientation's ball is enumerated once, on a window that does not
    clip it (`Ambient.around`, so `truncated_ball` filters no point), for
    its anchor: the ball vertex of minimal coordinate sum, ties broken
    lexicographically. The tile anchored at z is that ball translated to z,
    the torus ball of the shape placed with its anchor at z. Torus vertices
    are listed in row-major order, and a cell's position is its row-major
    index, so the instance is built as the search's masks: each ball
    vertex's offset from the anchor, and its negation, is wrapped and
    weighted by the strides in one arithmetic pass per vertex; the cell
    masks of one orientation are the offsets' mask, the ball at anchor 0,
    swept over the anchors (`_sweep`), and the masks of each cell's tiles
    are one sweep of the negated offsets' masks, set side by side, one
    block of N = len(universe) bits per orientation. Rows are made only on
    demand.

    A ball whose span exceeds a modulus wraps onto itself and comes out
    smaller than its lattice volume: two of its offsets wrap to one index.
    The wrap always creates a vertex with two nearest center vertices, so no
    verified code can use such a ball; a translate has the same size, so
    the whole orientation is left out.

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
    n, moduli, strides = a.dimension, a.extents, a.strides
    universe = tuple(a.vertices())
    labels = list(map(",".join, product(*[list(map(str, range(m))) for m in moduli])))
    ids, cells, starts, blocks = [], [], [], []
    for name, shape, radius in shapes:
        if any(len(p) != n for p in shape):
            raise DimensionMismatch(f"shape {name!r} is not of the torus's dimension {n}")
        for oi, orient in enumerate(shape_orientations(tuple(shape))):
            _check_clock(deadline)
            ball = truncated_ball(orient, radius, Ambient.around(orient))
            anchor = min(ball, key=lambda p: (sum(p), p))
            offsets = [sum(map(mul, map(mod, map(sub, p, anchor), moduli), strides)) for p in ball]
            if len(set(offsets)) < len(ball):
                continue
            cells += _sweep(_mask(offsets), moduli, 1)
            starts.append(_mask([sum(map(mul, map(mod, map(sub, anchor, p), moduli), strides))
                                 for p in ball]))
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

    Translating by +1 along axis i is one masked rotation (`_rotate`): the
    cells with x_i < m_i - 1 move up by the stride s, and those with x_i =
    m_i - 1, marked by `_top_rows`, wrap down to x_i = 0. The masks come
    from the last axis to the first:
    each axis's run of m_i translates of all masks so far, so every mask
    but start costs one rotation.
    """
    size = prod(moduli) * copies
    out = [start]
    for m, s in zip(reversed(moduli), reversed(_strides(moduli))):
        top, down = _top_rows(m, s, 1, size), (m - 1) * s
        runs = [out]
        for _ in range(m - 1):
            runs.append([_rotate(x, top, s, down) for x in runs[-1]])
        out = [x for run in runs for x in run]
    return out


def _cell_from_json(c):
    return tuple(c) if isinstance(c, list) else c


def instance_from_json(doc: dict) -> tuple[tuple, list[tuple[str, frozenset]]]:
    """The universe and tiles of an instance document, for ExactCoverInstance."""
    universe = tuple(_cell_from_json(c) for c in _array(doc["universe"]))
    hash(universe)  # a cell that cannot be hashed is a malformed document: TypeError
    tiles = []
    for entry in _array(doc["tiles"]):
        tid, cells = _array(entry, 2)
        tiles.append((_str_id(tid), frozenset(_cell_from_json(c) for c in _array(cells))))
    return universe, tiles


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
            try:
                res = enumerate_covers(eds_instance(grid_graph(m, n), deadline), deadline=deadline)
            except OutOfTime:
                res = EnumerateOutcome((), False, 0)
            if not res.exhaustive:
                out[(m, n)] = {"exists": None, "count": None, "exhaustive": False}
            else:
                out[(m, n)] = {"exists": bool(res.solutions),
                               "count": len(res.solutions),
                               "exhaustive": True}
    return out
