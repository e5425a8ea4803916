"""Tests for the exact cover engine and its instance builders."""

import hashlib
import inspect
import random
import sys
import time
from itertools import combinations, product

import pytest

import ptmc.cover
from ptmc.cover import (
    ExactCoverInstance,
    OutOfTime,
    _counted,
    _recount_above,
    _run_x,
    _sliced_sum,
    eds_instance,
    enumerate_covers,
    grid_eds_survey,
    instance_from_json,
    shape_orientations,
    solve,
    tiling_instance,
    verify_cover,
)
from ptmc.codes import verify_pds
from ptmc.constructions import build_by_template, cube_singleton_template, square_singleton_template
from ptmc.gamma2 import (build_hive, external_cycle, hive_graph, hive_vertices, no_isolated_pds,
                         restricted_ball)
from ptmc.graphs import Graph, grid_graph, lattice_graph
from ptmc.metric import Ambient, DimensionMismatch, _mask, truncated_ball

from oracles import (brute_ball, naive_cover_solutions, naive_orientations, naive_tiling_masks,
                     reference_x)


def inst(universe, tiles):
    return ExactCoverInstance(tuple(universe),
                              tuple((tid, frozenset(cells)) for tid, cells in tiles))


def test_solve_prefers_first_deterministic_branch():
    i = inst([1, 2], [("a", {1}), ("b", {2}), ("c", {1, 2})])
    out = solve(i)
    assert out.kind == "solution"
    assert out.tiles == ("a", "b")


def test_solve_infeasible_no_tiles():
    out = solve(inst([1], []))
    assert out.kind == "infeasible"


def test_solve_infeasible_overlap_forced():
    out = solve(inst([1, 2, 3], [("p", {1, 2}), ("q", {2, 3})]))
    assert out.kind == "infeasible"


def test_enumerate_singletons():
    i = inst([(0, 0), (0, 1), (1, 0), (1, 1)],
             [(f"s{k}", {c}) for k, c in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)])])
    res = enumerate_covers(i)
    assert res.exhaustive
    assert len(res.solutions) == 1


def test_enumerate_two_solutions_canonical_order():
    i = inst([1, 2], [("c", {1, 2}), ("a", {1}), ("b", {2})])
    res = enumerate_covers(i)
    assert res.exhaustive
    assert res.solutions == (("a", "b"), ("c",))


def test_enumerate_limit_not_exhaustive():
    i = inst([1, 2], [("a", {1}), ("b", {2}), ("c", {1, 2})])
    res = enumerate_covers(i, limit=1)
    assert len(res.solutions) == 1
    assert not res.exhaustive
    # a cap below 1 would still stop at the first solution found
    for limit in (0, -1):
        with pytest.raises(ValueError, match="limit must be at least 1"):
            enumerate_covers(i, limit=limit)


def test_timeout_is_distinct_from_infeasible():
    universe = list(range(24))
    tiles = []
    for a in range(24):
        for b in range(a + 1, 24):
            for c in range(b + 1, 24):
                tiles.append((f"t{a}.{b}.{c}", {a, b, c}))
    big = inst(universe, tiles)
    res = enumerate_covers(big, deadline=time.monotonic() + 0.02)
    assert not res.exhaustive
    out = solve(inst([1], []), deadline=time.monotonic() + 10)
    assert out.kind == "infeasible"  # fast exhaustion is not a timeout


def test_solutions_reverify():
    i = inst([1, 2, 3, 4], [("a", {1, 2}), ("b", {3, 4}), ("c", {1, 3}), ("d", {2, 4})])
    res = enumerate_covers(i)
    assert res.solutions
    for sol in res.solutions:
        assert verify_cover(i, sol)
    assert not verify_cover(i, ("a", "c"))
    with pytest.raises(KeyError):
        verify_cover(i, ("a", "z"))


def test_verify_cover_reads_a_tiling_instance_off_its_masks():
    # a cover, an overlap and a gap on the cube n = 5 instance: only the
    # chosen tiles' cells are read, and its rows and tiles are never made
    i, _ = tiling_instance(*_template_case(5))
    chosen = build_by_template(cube_singleton_template(5)).tiles
    assert verify_cover(i, chosen)
    extra = next(t for t in i.ids if t not in chosen)
    assert not verify_cover(i, chosen + (extra,))
    assert not verify_cover(i, chosen[1:])
    # a restricted instance lists its tiles in its own order
    assert verify_cover(i.restrict(range(len(i.ids) - 1, -1, -1)), chosen)
    with pytest.raises(KeyError):
        verify_cover(i, chosen[:1] + ("no-such-tile",))
    assert "tiles" not in i.__dict__


def test_verify_cover_reads_a_tile_listed_instance_through_its_rows():
    # a cover, an overlap, a gap and an unknown id get the verdicts of the
    # same instance built by eds_instance
    masked = eds_instance(lattice_graph(Ambient.torus(10, 10)))
    listed = ExactCoverInstance(masked.universe, masked.tiles)
    chosen = solve(masked).tiles
    extra = next(t for t in masked.ids if t not in chosen)
    for picked, verdict in ((chosen, True), (chosen[::-1], True),
                            (chosen + (extra,), False), (chosen[1:], False)):
        assert verify_cover(listed, picked) is verify_cover(masked, picked) is verdict
    for i in (listed, masked):
        with pytest.raises(KeyError):
            verify_cover(i, chosen[:1] + ("no-such-tile",))


def test_instance_validation():
    with pytest.raises(ValueError, match="duplicate cells"):
        inst([1, 1], [])
    with pytest.raises(ValueError, match="is empty"):
        inst([1], [("a", set())])
    with pytest.raises(ValueError, match="leaves the universe"):
        inst([1], [("a", {2})])
    with pytest.raises(ValueError, match="duplicate tile id"):
        inst([1, 2], [("a", {1}), ("a", {2})])


def test_instance_positional_form():
    # tuple-celled tiles are converted once: each row holds the positions
    # of the tile's cells in the universe, and the tiles given are not kept;
    # .tiles is made from the rows when first read
    universe = ((0, 1), (1, 0), (1, 1))
    tiles = (("a", frozenset({(1, 1), (0, 1)})), ("b", frozenset({(1, 0)})))
    i = ExactCoverInstance(universe, tiles)
    assert i.ids == ("a", "b")
    assert [i.row(r) for r in range(2)] == [(0, 2), (1,)]
    assert i.masks == (("a", "b"), [0b101, 0b010], [0b01, 0b10, 0b01])
    assert i.universe is universe
    assert "tiles" not in vars(i)
    assert i.tiles == tiles
    assert "tiles" in vars(i)


def test_instance_reads_its_tiles_once():
    # a generator of tiles gives the ids as a tuple does
    tiles = [("a", {1, 2}), ("b", {2}), ("c", {1})]
    i = ExactCoverInstance((1, 2), (t for t in tiles))
    assert (i.ids, [i.row(r) for r in range(3)]) == (("a", "b", "c"), [(0, 1), (1,), (0,)])
    assert solve(i).tiles == ("a",)


def test_oracle_equivalence_random_instances():
    rng = random.Random(42)
    for trial in range(50):
        ncells = rng.randint(2, 9)
        ntiles = rng.randint(1, 14)
        universe = list(range(ncells))
        tiles = []
        for t in range(ntiles):
            size = rng.randint(1, max(1, ncells // 2))
            cells = frozenset(rng.sample(universe, size))
            tiles.append((f"t{t:02d}", cells))
        i = inst(universe, tiles)
        expected = naive_cover_solutions(universe, tiles)
        res = enumerate_covers(i)
        assert res.exhaustive
        assert list(res.solutions) == expected
        out = solve(i)
        if expected:
            assert out.kind == "solution" and tuple(sorted(out.tiles)) in expected
        else:
            assert out.kind == "infeasible"


def test_core_matches_reference_x():
    # same solutions in the same order, same node counts, with and without a limit
    rng = random.Random(7)
    for trial in range(150):
        ncells = rng.randint(2, 12)
        universe = list(range(ncells))
        tiles = [(f"t{t:02d}", rng.sample(universe, rng.randint(1, max(1, ncells // 2))))
                 for t in range(rng.randint(1, 24))]
        if trial % 5 == 0:
            # a cell no tile holds: zero candidates, infeasible at the root
            universe.insert(rng.randrange(ncells + 1), "hole")
        rng.shuffle(tiles)  # as build_by_template's seeded candidate order
        i = inst(universe, tiles)
        for limit in (1, 3, None):
            assert _run_x(i, limit, None) == reference_x(i, limit)
    g = lattice_graph(Ambient.torus(10, 10))
    tiles = list(eds_instance(g).tiles)
    random.Random(3).shuffle(tiles)
    i = ExactCoverInstance(tuple(sorted(g.vertices)), tuple(tiles))
    for limit in (1, None):
        assert _run_x(i, limit, None) == reference_x(i, limit)


def test_determinism_repeat_runs():
    rng = random.Random(1)
    universe = list(range(8))
    tiles = [(f"t{t}", frozenset(rng.sample(universe, rng.randint(1, 4))))
             for t in range(12)]
    i = inst(universe, tiles)
    first = enumerate_covers(i)
    second = enumerate_covers(i)
    assert first.solutions == second.solutions
    assert first.nodes == second.nodes


def test_golden_node_counts_pin_branching_order():
    # node counts fixed by the branching rule (fewest live tiles, ties to the
    # earliest cell, candidates in instance order); reference_x gives them too,
    # and any change to the branching or candidate order moves them
    assert no_isolated_pds(build_hive()).nodes == 5
    for m, nodes in ((40, 320), (45, 405), (50, 500)):
        out = solve(eds_instance(lattice_graph(Ambient.torus(m, m))))
        assert (out.kind, out.nodes) == ("solution", nodes)
    # seeded shuffles move whenever the pinned tile list's order changes
    for seed, nodes in ((None, 8), (1, 38), (7, 22)):
        assert build_by_template(square_singleton_template(), seed=seed).nodes == nodes
    for seed, nodes in ((None, 16), (7, 35)):
        assert build_by_template(cube_singleton_template(4), seed=seed).nodes == nodes
    res = enumerate_covers(eds_instance(grid_graph(7, 7)))
    assert (res.exhaustive, res.solutions, res.nodes) == (True, (), 18)


def _solution_sha256(tiles):
    return hashlib.sha256("\n".join(tiles).encode()).hexdigest()


def test_golden_solutions_pin_the_tiles_found():
    # the first covers themselves, pinned by digest next to their node
    # counts: masks of many 30-bit digits, and any change to the search's bit
    # operations that picks other tiles moves them
    for m, digest in ((40, "72f50cae8aa480dad7f672b523fdb105a18f489fcede49a8152daf1305865704"),
                      (45, "75e84a0d8f4112a4cb658369fb83b4ab86adb14275cfb410ee5cf36aa3aa4eb8"),
                      (50, "b28cad1b388a35ed0b0473b677a2120f90007f2d7b3a087b0111dfbe5567047a")):
        assert _solution_sha256(solve(eds_instance(lattice_graph(Ambient.torus(m, m)))).tiles) \
            == digest
    for template, seed, digest in (
            (cube_singleton_template(4), 7,
             "1828ddd1868162eb1c19a5ed22b2d2203599c021f8c8e1233d3fa9dc45c154c0"),
            (square_singleton_template(), 1,
             "9ff5ec65c93f081728c51356c97ed8755e99bdfbf74d169c5786637d51805077")):
        assert _solution_sha256(build_by_template(template, seed=seed).tiles) == digest


def test_core_matches_reference_x_on_multi_digit_masks():
    # masks of many 30-bit digits: random instances of 60-200 cells and up to
    # 300 tiles, each a planted partition with a second way to cover a few of
    # its blocks, plus random tiles; then EDS tori 11-17 in a shuffled order,
    # searched through rank
    rng = random.Random(61)
    for trial in range(60):
        ncells = rng.randint(60, 200)
        universe = list(range(ncells))
        order = rng.sample(universe, ncells)
        cuts = sorted(rng.sample(range(1, ncells), ncells // 3))
        blocks = [order[a:b] for a, b in zip([0] + cuts, cuts + [ncells])]
        tiles = list(blocks)
        for b in rng.sample(blocks, rng.randint(0, 5)):
            if len(b) > 1:
                k = rng.randint(1, len(b) - 1)
                tiles += [b[:k], b[k:]]
        tiles += [rng.sample(universe, rng.randint(2, 4))
                  for _ in range(rng.randint(0, min(3 * ncells // 2, 300 - len(tiles))))]
        rng.shuffle(tiles)
        i = inst(universe, [(f"t{t:03d}", cells) for t, cells in enumerate(tiles)])
        for limit in (1, 2, None):
            assert _run_x(i, limit, None) == reference_x(i, limit)
    for m in range(11, 18):
        i = eds_instance(lattice_graph(Ambient.torus(m, m)))
        keep = list(range(len(i.ids)))
        rng.shuffle(keep)
        r = i.restrict(keep)
        for limit in (1, 2, None):
            assert _run_x(r, limit, None) == reference_x(r, limit)


@pytest.mark.parametrize("template, seed", [
    (square_singleton_template(), 1),
    (square_singleton_template(), 7),
    (cube_singleton_template(4), 7),
])
def test_core_matches_reference_x_on_pinned_tiling_instances(template, seed, monkeypatch):
    # the instance build_by_template searches: pinned and seed-shuffled, in
    # positional form with its tiles made on first use
    searched = []

    def record(instance, deadline=None):
        searched.append(instance)
        return solve(instance, deadline)

    monkeypatch.setattr("ptmc.constructions.solve", record)
    assert build_by_template(template, seed=seed).kind == "solution"
    (i,) = searched
    for limit in (1, 2):
        assert _run_x(i, limit, None) == reference_x(i, limit)


def _totality_subtree(pinned):
    # enumerate_hive_2ptmc_complete's instance below the first external
    # centre of each of the first `pinned` corners, as hive-cover runs it
    h = build_hive()
    verts = hive_vertices(h)
    balls = {v: restricted_ball(v, verts) for v in verts}
    covered = frozenset().union(*(balls[external_cycle(h, c)[0]] for c in h.corners[:pinned]))
    return ExactCoverInstance(tuple(v for v in verts if v not in covered),
                              tuple((str(v), balls[v]) for v in verts if not balls[v] & covered))


def test_memo_replays_the_totality_subtree_as_searched():
    i = _totality_subtree(2)
    sols, exhausted, nodes = _run_x(i, None, None)
    assert (len(sols), len(set(sols)), exhausted) == (4 ** 7, 4 ** 7, True)
    assert (sols, exhausted, nodes) == reference_x(i)


def test_memo_on_disjoint_blocks_matches_reference_x_at_every_limit(monkeypatch):
    # in a union of disjoint blocks the same uncovered blocks recur under
    # many choices, so most subtrees are replayed; a limit inside a
    # memoised subtree stops where the memo-free search stops
    replay = ptmc.cover._replay
    replays = []

    def counted_replay(*args):
        replays.append(None)
        return replay(*args)

    monkeypatch.setattr("ptmc.cover._replay", counted_replay)
    rng = random.Random(23)
    for trial in range(40):
        universe, tiles = [], []
        for b in range(rng.randint(2, 4)):
            cells = [(b, c) for c in range(rng.randint(1, 3))]
            universe += cells
            tiles += [(f"b{b}t{k}", rng.sample(cells, rng.randint(1, len(cells))))
                      for k in range(rng.randint(1, 4))]
        rng.shuffle(tiles)
        i = inst(universe, tiles)
        total = len(reference_x(i)[0])
        for limit in (*range(1, total + 2), None):
            assert _run_x(i, limit, None) == reference_x(i, limit)
    assert len(replays) > 100


def test_memo_matches_reference_x_at_every_limit_and_shuffled_order():
    rng = random.Random(31)
    for trial in range(80):
        ncells = rng.randint(1, 10)
        universe = list(range(ncells))
        tiles = [(f"t{t:02d}", rng.sample(universe, rng.randint(1, max(1, ncells // 3))))
                 for t in range(rng.randint(1, 16))]
        i = inst(universe, tiles)
        keep = list(range(len(tiles)))
        rng.shuffle(keep)
        for j in (i, i.restrict(keep)):
            total = len(reference_x(j)[0])
            for limit in (*range(1, total + 2), None):
                assert _run_x(j, limit, None) == reference_x(j, limit)
    for limit in (1, 2, None):  # the empty universe has one cover, the empty one
        assert _run_x(inst([], []), limit, None) == reference_x(inst([], []), limit)


def test_deadline_passing_during_a_replay_keeps_a_prefix(monkeypatch):
    # the clock is read at each cover a replay lists; a deadline passing at
    # the third cover of a replay ends the run there, with the covers listed
    # so far in search order
    i = _totality_subtree(3)
    full, _, _ = _run_x(i, None, None)
    replay = ptmc.cover._replay
    reads, listed = [], []

    def clock():
        reads.append(None)
        return float(len(reads) >= 3)

    def replay_on_the_clock(branches, path, names, out, deadline):
        if not listed and sum(entry[1] for _, entry in branches) > 3:
            listed.append(len(out))
            monkeypatch.setattr("ptmc.cover.time.monotonic", clock)
        return replay(branches, path, names, out, deadline)

    monkeypatch.setattr("ptmc.cover.time.monotonic", lambda: 0.0)
    monkeypatch.setattr("ptmc.cover._replay", replay_on_the_clock)
    sols, exhausted, _ = _run_x(i, None, 0.5)
    assert not exhausted
    assert (len(reads), len(sols)) == (3, listed[0] + 3)
    assert sols == full[:len(sols)]


def test_budget_is_checked_during_set_up():
    # a deadline that has passed ends the run while the masks are built,
    # before the first node
    out = solve(eds_instance(lattice_graph(Ambient.torus(75, 75))), deadline=time.monotonic())
    assert (out.kind, out.tiles, out.nodes) == ("timeout", None, 0)


def test_budget_is_checked_while_tile_listed_masks_are_built(monkeypatch):
    # the constructor reads the clock once per tile, then once per cell,
    # each read before that tile's or cell's mask is made; a deadline
    # passing at any read stops the build there
    g = lattice_graph(Ambient.torus(5, 5))  # 25 tiles over 25 cells
    tiles = [(str(v), g.neighbors(v) | {v}) for v in g.vertices]
    make_mask = ptmc.cover._mask
    for passes_at in range(1, 25 + 25 + 2):
        reads, masks = [], []

        def clock():
            reads.append(None)
            return float(len(reads) >= passes_at)

        def mask(positions):
            masks.append(None)
            return make_mask(positions)

        monkeypatch.setattr("ptmc.cover.time.monotonic", clock)
        monkeypatch.setattr("ptmc.cover._mask", mask)
        if passes_at <= 50:
            with pytest.raises(OutOfTime):
                ExactCoverInstance(g.vertices, tiles, deadline=0.5)
            assert (len(reads), len(masks)) == (passes_at, passes_at - 1)
        else:
            ExactCoverInstance(g.vertices, tiles, deadline=0.5)
            assert (len(reads), len(masks)) == (50, 50)


def test_eds_instance_reads_the_clock_once_per_vertex(monkeypatch):
    # each read comes before that vertex's mask is made; a deadline passing
    # at any read stops the build there
    g = lattice_graph(Ambient.torus(5, 5))
    for passes_at in range(1, 25 + 2):
        reads = []

        def clock():
            reads.append(None)
            return float(len(reads) >= passes_at)

        monkeypatch.setattr("ptmc.cover.time.monotonic", clock)
        if passes_at <= 25:
            with pytest.raises(OutOfTime):
                eds_instance(g, deadline=0.5)
        else:
            eds_instance(g, deadline=0.5)
        assert len(reads) == min(passes_at, 25)


def closed_neighbourhood_graphs():
    """Grids, tori with moduli 1-6 (which collapse or double steps), the
    hive graph and random small graphs."""
    graphs = [grid_graph(1, 1), grid_graph(3, 5), grid_graph(4, 4),
              hive_graph(build_hive()), Graph({})]
    graphs += [lattice_graph(Ambient.torus(m, n)) for m in range(1, 7) for n in (1, 2, 5, 6)]
    graphs += [lattice_graph(Ambient.torus(2, 3, 1)), lattice_graph(Ambient.torus(4))]
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 12)
        adj = {v: set() for v in range(n)}
        for u, v in combinations(range(n), 2):
            if rng.random() < 0.3:
                adj[u].add(v)
                adj[v].add(u)
        graphs.append(Graph(adj))
    return graphs


def test_eds_masks_match_the_tile_listed_closed_neighbourhoods():
    # one mask per vertex, the same list serving as the tiles' cells and the
    # cells' holders, equal to the masks of the tiles listed one by one
    for g in closed_neighbourhood_graphs():
        i = eds_instance(g)
        listed = ExactCoverInstance(g.vertices,
                                    [(str(v), g.neighbors(v) | {v}) for v in g.vertices])
        names, cells, holders = i.masks
        assert cells is holders
        assert (names, cells, holders) == listed.masks
        assert (i.ids, i.tiles) == (listed.ids, listed.tiles)


def test_eds_instance_refuses_a_repeated_tile_id():
    class Named:
        # distinct vertices that print alike
        def __init__(self, k):
            self.k = k

        def __lt__(self, other):
            return self.k < other.k

        def __str__(self):
            return "v"

    a, b = Named(0), Named(1)
    with pytest.raises(ValueError, match="duplicate tile id 'v'"):
        eds_instance(Graph({a: {b}, b: {a}}))


@pytest.mark.parametrize("n", [3, 4])
def test_tile_listed_and_tiling_forms_search_alike(n):
    # the same tiles listed one by one search as the swept masks do, in
    # instance order and in a shuffled order made by restrict
    i, _ = tiling_instance(*_template_case(n))
    keep = list(range(len(i.ids)))
    random.Random(n).shuffle(keep)
    for tiling in (i, i.restrict(keep)):
        listed = ExactCoverInstance(tiling.universe, tiling.tiles)
        for limit in (1, 2):
            assert _run_x(listed, limit, None) == _run_x(tiling, limit, None)


def test_restrict_on_a_tile_listed_instance_matches_reference_x():
    rng = random.Random(11)
    for trial in range(60):
        ncells = rng.randint(2, 10)
        universe = list(range(ncells))
        tiles = [(f"t{t:02d}", rng.sample(universe, rng.randint(1, max(1, ncells // 2))))
                 for t in range(rng.randint(1, 20))]
        i = inst(universe, tiles)
        keep = rng.sample(range(len(tiles)), rng.randint(0, len(tiles)))
        r = i.restrict(keep)
        assert r.tiles == tuple(i.tiles[k] for k in keep)
        for limit in (1, 3, None):
            assert _run_x(r, limit, None) == reference_x(r, limit)


def test_first_counts_match_the_sliced_sum():
    # the search's first counts, a popcount of each cell's holders, equal
    # the chosen tiles' cell masks summed as bit slices: on random masks,
    # with counts past a byte, no tile chosen, no cell at all, and the live
    # tiles of restricted instances in a non-range order
    rng = random.Random(43)
    cases = [([0, 0, 0], [], 0b101)]  # three tiles over no cells
    for _ in range(60):
        ncells, ntiles, p = rng.randint(0, 30), rng.choice([0, 1, 7, 40, 700]), rng.random()
        cells = [_mask(c for c in range(ncells) if rng.random() < p) for _ in range(ntiles)]
        holders = [_mask(b for b, m in enumerate(cells) if m >> c & 1) for c in range(ncells)]
        cases += [(cells, holders, chosen)
                  for chosen in (0, (1 << ntiles) - 1, rng.getrandbits(ntiles))]
    for big in (eds_instance(lattice_graph(Ambient.torus(7, 7))),
                tiling_instance(*_template_case(3))[0]):
        keep = rng.sample(range(len(big.ids)), len(big.ids) // 2)
        _, cells, holders = big.restrict(keep).masks
        cases.append((cells, holders, _mask(keep)))
    widths = set()
    for cells, holders, chosen in cases:
        counts = _counted(holders, chosen)
        assert counts == _sliced_sum(cells, chosen)
        widths.add(len(counts))
    assert {0, 9, 10} <= widths  # no count, and counts of 256-1023


def _count_updates(monkeypatch):
    """Counts, in a dict, the recounts (`_counted`, set-up included), sums
    (`_sliced_sum`) and subtractions that `_run_x` makes; a subtraction is
    the line that copies the counts list, counted by a tracer that the
    caller sets with sys.settrace."""
    calls = {"counted": 0, "summed": 0, "subtracted": 0}
    counted, summed = ptmc.cover._counted, ptmc.cover._sliced_sum

    def recount(*args):
        calls["counted"] += 1
        return counted(*args)

    def resum(*args):
        calls["summed"] += 1
        return summed(*args)

    monkeypatch.setattr(ptmc.cover, "_counted", recount)
    monkeypatch.setattr(ptmc.cover, "_sliced_sum", resum)
    lines, first = inspect.getsourcelines(_run_x)
    line = first + next(i for i, text in enumerate(lines) if "counts = list(counts)" in text)

    def tracer(frame, event, arg):
        if frame.f_code is not _run_x.__code__:
            return None

        def step(frame, event, arg):
            if event == "line" and frame.f_lineno == line:
                calls["subtracted"] += 1
            return step
        return step
    return calls, tracer


def test_core_matches_reference_x_through_all_three_count_updates(monkeypatch):
    # dense random instances of 20-32 cells and 60-120 tiles of 2-4 cells,
    # plus a planted partition, whose choices kill more tiles than
    # _recount_above allows (about 20) near the root and a few deeper down:
    # the search recounts, sums and subtracts, and still finds the solutions
    # and nodes of reference_x
    calls, tracer = _count_updates(monkeypatch)
    rng = random.Random(5)
    for trial in range(8):
        ncells = rng.randint(20, 32)
        universe = list(range(ncells))
        order = rng.sample(universe, ncells)
        cuts = sorted(rng.sample(range(1, ncells), ncells // 3))
        tiles = [order[a:b] for a, b in zip([0] + cuts, cuts + [ncells])]
        tiles += [rng.sample(universe, rng.randint(2, 4)) for _ in range(rng.randint(60, 120))]
        rng.shuffle(tiles)
        i = inst(universe, [(f"t{t:03d}", cells) for t, cells in enumerate(tiles)])
        for limit in (1, None):
            previous = sys.gettrace()
            sys.settrace(tracer)
            try:
                got = _run_x(i, limit, None)
            finally:
                sys.settrace(previous)
            assert got == reference_x(i, limit)
    # 16 of the recounts are the searches' set-ups
    assert calls["counted"] > 16 and calls["summed"] and calls["subtracted"], calls


def test_wide_instances_recount_only_where_it_pays(monkeypatch):
    # a recount costs a popcount of a tiles-bit mask per cell, whatever a
    # choice kills: the 50 x 50 EDS torus's choices kill about a dozen
    # tiles and never recount; the pinned n = 5 template recounts after its
    # first choice alone, which kills 2,670 of its 7,535 tiles (a 2.6 ms
    # recount against 4 ms to subtract them); and the pinned n = 6
    # template's first choice, which kills 12,845 of 45,929 tiles, the most
    # any of its choices kills, stays below the threshold, as a recount
    # (83 ms) costs more than subtracting them (78 ms)
    calls, _ = _count_updates(monkeypatch)
    out = solve(eds_instance(lattice_graph(Ambient.torus(50, 50))))
    assert (out.kind, out.nodes, calls["counted"]) == ("solution", 500, 1)
    calls["counted"] = 0
    assert build_by_template(cube_singleton_template(5)).nodes == 32
    assert calls["counted"] == 2
    assert _recount_above(23328, 46656) > 12845


def test_holding_lists_a_cells_tiles_in_instance_order():
    # a range order reads the positions off the holders mask; a restricted
    # order is scanned: both against the tiles themselves, on a tiling, an
    # EDS and a tile-listed instance, whole, reversed and shuffled in part
    rng = random.Random(11)
    universe = list(range(9))
    listed = inst(universe, [(f"t{t}", rng.sample(universe, rng.randint(1, 4)))
                             for t in range(20)])
    for base in (tiling_instance(*_template_case(3))[0],
                 eds_instance(lattice_graph(Ambient.torus(5, 5))), listed):
        size = len(base.ids)
        for i in (base, base.restrict(range(size - 1, -1, -1)),
                  base.restrict(rng.sample(range(size), size // 2))):
            for c, cell in enumerate(i.universe):
                assert i.holding(c) == [r for r, (_, cells) in enumerate(i.tiles) if cell in cells]


def test_deep_instance_beyond_recursion_limit():
    # 1,125 nested choices, deeper than the default recursion limit allows
    i = eds_instance(lattice_graph(Ambient.torus(75, 75)))
    out = solve(i)
    assert (out.kind, len(out.tiles), out.nodes) == ("solution", 1125, 1125)
    assert verify_cover(i, out.tiles)


# ---------------------------------------------------------------------------
# EDS instances
# ---------------------------------------------------------------------------

def test_eds_triangle():
    g = Graph({0: {1, 2}, 1: {0, 2}, 2: {0, 1}})
    i = eds_instance(g)
    assert len(i.tiles) == 3
    assert all(cells == frozenset({0, 1, 2}) for _, cells in i.tiles)
    res = enumerate_covers(i)
    assert len(res.solutions) == 3


def test_eds_path_middle():
    g = Graph({0: {1}, 1: {0, 2}, 2: {1}})
    out = solve(eds_instance(g))
    assert out.kind == "solution"
    assert out.tiles == ("1",)


def test_eds_solutions_are_isolated_pds():
    g = grid_graph(4, 4)
    res = enumerate_covers(eds_instance(g))
    assert res.exhaustive and res.solutions
    for sol in res.solutions:
        verts = [eval(t) for t in sol]
        rep = verify_pds(verts, g)
        assert rep.passed and rep.independent


# ---------------------------------------------------------------------------
# tiling instances
# ---------------------------------------------------------------------------

def test_shape_orientations():
    square3 = ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0))
    assert len(shape_orientations(square3)) == 3
    assert len(shape_orientations(((0, 0, 0),))) == 1
    cube4 = tuple((a, b, c, 0) for a in (0, 1) for b in (0, 1) for c in (0, 1))
    assert len(shape_orientations(cube4)) == 4


def _flat_cube(n):
    return tuple(p + (0,) for p in product((0, 1), repeat=n - 1))


def _random_shape(rng):
    # unsorted, off the origin, sometimes with a point listed twice
    n = rng.randint(2, 5)
    shape = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.3:
        shape.append(rng.choice(shape))
    rng.shuffle(shape)
    return tuple(shape)


@pytest.mark.parametrize("shape", [_flat_cube(n) for n in (3, 4, 5, 6)]
                         + [tuple(product((0, 1), repeat=n)) for n in (3, 4)]
                         + [((1, 2, 0), (0, 1, 1), (1, 2, 0), (-1, 0, 3))]
                         + [_random_shape(random.Random(seed)) for seed in range(30)])
def test_shape_orientations_match_every_permutation(shape):
    # the orbit under adjacent transpositions is the image set of all n!
    # permutations, in the same sorted order, so orientation indices agree;
    # a point listed twice stays listed twice in every image
    assert shape_orientations(shape) == naive_orientations(shape)


@pytest.mark.parametrize("n", [7, 8])
def test_flat_cube_has_one_orientation_per_axis(n):
    # n! = 5,040 and 40,320 permutations, n distinct images: the flat axis
    got = shape_orientations(_flat_cube(n))
    assert len(got) == n
    assert {tuple(map(max, zip(*o))).index(0) for o in got} == set(range(n))


def placements_of(i, blocks, a):
    """Each tile's (name, radius, placed shape, anchor vertex), read off its
    position: tile r is block r // N anchored at universe[r % N]."""
    n = len(i.universe)
    assert len(blocks) * n == len(i.ids)
    out = {}
    for r, tid in enumerate(i.ids):
        name, radius, orient, anchor = blocks[r // n]
        z = i.universe[r % n]
        shift = tuple(x - y for x, y in zip(z, anchor))
        out[tid] = (name, radius, tuple(sorted(a.translate(p, shift) for p in orient)), z)
    return out


def test_tiling_instance_full_radius_singletons():
    a = Ambient.torus(3, 3)
    i, blocks = tiling_instance(a, [("dot", ((0, 0),), 2)])
    assert blocks == [("dot", 2, ((0, 0),), (-1, -1))]
    assert len(i.tiles) == 9
    assert all(len(cells) == 9 for _, cells in i.tiles)
    out = solve(i)
    assert out.kind == "solution" and len(out.tiles) == 1


def test_tiling_instance_square_singleton_counts():
    a = Ambient.torus(6, 6, 3)
    square = ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0))
    i, blocks = tiling_instance(a, [("square", square, 1), ("dot", ((0, 0, 0),), 1)])
    squares = [t for t in i.tiles if t[0].startswith("square")]
    dots = [t for t in i.tiles if t[0].startswith("dot")]
    # squares raised into the modulus-3 axis wrap onto themselves and are
    # left out; the flat orientation stays at every translate
    assert len(squares) == 108
    assert all(len(cells) == 20 for _, cells in squares)
    assert len(dots) == 108
    assert all(len(cells) == 7 for _, cells in dots)
    # one block of 108 tiles per orientation kept, in instance order
    assert [(name, orient) for name, _, orient, _ in blocks] == [("square", square),
                                                                 ("dot", ((0, 0, 0),))]
    assert placements_of(i, blocks, a).keys() == {tid for tid, _ in i.tiles}


@pytest.mark.parametrize("a, shapes", [
    (Ambient.torus(6, 6, 3), [("square", ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)), 1),
                              ("dot", ((0, 0, 0),), 1)]),
    (Ambient.torus(6, 6, 6, 3), [("cube", tuple(p + (0,) for p in product((0, 1), repeat=3)), 1),
                                 ("dot", ((0, 0, 0, 0),), 2)]),
])
def test_tiling_instance_matches_naive_placements(a, shapes):
    # every placement, from the definition: anchor the orientation's window
    # ball at z and take the torus ball of the placed shape
    i, blocks = tiling_instance(a, shapes)
    placements = placements_of(i, blocks, a)
    cells = dict(i.tiles)
    # each cell is the universe's own tuple at that position, not a copy
    pos = {v: k for k, v in enumerate(i.universe)}
    assert all(c is i.universe[pos[c]] for _, tile in i.tiles for c in tile)
    expected, kept = [], []
    for name, shape, radius in shapes:
        for oi, orient in enumerate(shape_orientations(shape)):
            full = brute_ball(list(orient), radius, -1, 3)
            anchor = min(full, key=lambda p: (sum(p), p))
            before = len(expected)
            for z in a.vertices():
                placed = tuple(sorted(
                    a.wrap(tuple(x - y + w for x, y, w in zip(p, anchor, z))) for p in orient))
                ball = frozenset(truncated_ball(placed, radius, a))
                tid = f"{name}:{oi}@{','.join(map(str, z))}"
                if len(ball) == len(full):
                    expected.append(tid)
                    assert cells[tid] == ball
                    assert placements[tid] == (name, radius, placed, z)
                else:
                    assert len(ball) < len(full) and tid not in placements
            if len(expected) > before:
                kept.append((name, radius, orient, anchor))
    assert [tid for tid, _ in i.tiles] == expected
    # one block per orientation with a placement, none for self-wrapped ones
    assert blocks == kept
    # the positional form the search reads: each row lists the positions of
    # its tile's cells
    assert len(i.ids) == len(expected)
    assert all(i.row(r) == tuple(sorted(pos[c] for c in cells[tid]))
               for r, tid in enumerate(i.ids))


def _template_case(n):
    template = cube_singleton_template(n)
    return template.torus, [(s.name, s.vertices, s.radius) for s in template.shapes]


def _random_torus_case(seed):
    # 2 or 3 axes, one modulus above 10 so that row-major order is not id
    # order, and a random pick of the dot, Lee-sphere and unit-square shapes
    rng = random.Random(seed)
    n = rng.choice((2, 3))
    moduli = [rng.randint(3, 9) for _ in range(n)]
    moduli[rng.randrange(n)] = rng.randint(11, 14)
    dot = ((0,) * n,)
    lee = dot + tuple(tuple(s * (i == j) for j in range(n)) for i in range(n) for s in (1, -1))
    square = tuple(p + (0,) * (n - 2) for p in product((0, 1), repeat=2))
    shapes = [("dot", dot, rng.randint(0, n)), ("lee", lee, rng.randint(0, 1)),
              ("square", square, rng.randint(0, n))]
    return Ambient.torus(*moduli), rng.sample(shapes, rng.randint(1, 3))


# the Lee sphere's radius-1 ball spans 5 on each axis, so on the modulus-4
# axis exactly its two tips meet: one vertex short, the orientation is left out
_LEE2 = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))


@pytest.mark.parametrize("a, shapes", [_template_case(n) for n in (3, 4, 5)]
                         + [_random_torus_case(seed) for seed in range(8)]
                         + [(Ambient.torus(4, 7), [("lee", _LEE2, 1), ("dot", ((0, 0),), 1)])])
def test_tiling_masks_match_naive_placements(a, shapes):
    # the swept masks equal, bit for bit, the masks of every placement made
    # one at a time, and so do the rows made from them on demand
    i, blocks = tiling_instance(a, shapes)
    want_blocks, rows, cells, holders = naive_tiling_masks(a, shapes, naive_orientations)
    names, got_cells, got_holders = i.masks
    assert blocks == want_blocks
    assert len(names) == len(i.ids) == len(rows) == len(blocks) * len(i.universe)
    assert got_cells == cells
    assert got_holders == holders
    assert [list(i.row(r)) for r in range(len(i.ids))] == rows


def test_tiling_instance_checks_its_deadline_before_each_sweep(monkeypatch):
    # one check per shape orientation (kept or not) and one before the sweep
    # of the cells' tile masks; a deadline that passes at any of them stops
    # the build
    a = Ambient.torus(6, 6, 3)
    shapes = [("square", ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)), 1),
              ("dot", ((0, 0, 0),), 1)]
    checks = 3 + 1 + 1  # the square's 3 orientations, the dot's 1, the tile-mask sweep
    for passes_at in range(1, checks + 2):
        reads = []

        def clock():
            reads.append(None)
            return float(len(reads) >= passes_at)

        monkeypatch.setattr("ptmc.cover.time.monotonic", clock)
        if passes_at <= checks:
            with pytest.raises(OutOfTime):
                tiling_instance(a, shapes, deadline=0.5)
        else:
            tiling_instance(a, shapes, deadline=0.5)
        assert len(reads) == min(passes_at, checks)


def test_tiling_instance_stops_at_its_deadline():
    with pytest.raises(OutOfTime):
        tiling_instance(Ambient.torus(6, 6, 3), [("dot", ((0, 0, 0),), 1)],
                        deadline=time.monotonic())


@pytest.mark.parametrize("shape", [((0, 0),), ((0, 0, 0, 0),)])
def test_tiling_rejects_shapes_of_another_dimension(shape):
    # a 2-d dot on a 3-d torus would place garbage tiles (dot:0@0,0,0
    # covering (1,2,0)) and the search would report a false "infeasible"
    with pytest.raises(DimensionMismatch):
        tiling_instance(Ambient.torus(3, 3, 3), [("dot", shape, 1)])


def test_tiling_rejects_degenerate_torus():
    with pytest.raises(ValueError):
        tiling_instance(Ambient.torus(2, 6), [("dot", ((0, 0),), 1)])


def test_instance_json_round_trip():
    # JSON has no tuples: list-valued cells come back as tuple cells
    doc = {"universe": [[0, 0], [0, 1]],
           "tiles": [["a", [[0, 0]]], ["b", [[0, 1]]], ["c", [[0, 0], [0, 1]]]]}
    back = ExactCoverInstance(*instance_from_json(doc))
    i = inst([(0, 0), (0, 1)], [("a", {(0, 0)}), ("b", {(0, 1)}), ("c", {(0, 0), (0, 1)})])
    assert (back.universe, back.tiles) == (i.universe, i.tiles)


# ---------------------------------------------------------------------------
# the grid survey, small slice (the full range runs in acceptance)
# ---------------------------------------------------------------------------

def test_grid_survey_small():
    table = grid_eds_survey(5)
    assert table[(4, 4)] == {"exists": True, "count": 2, "exhaustive": True}
    for mn, row in table.items():
        if mn != (4, 4):
            assert row == {"exists": False, "count": 0, "exhaustive": True}
