"""Tests for the ternary square compound: addresses, hives, codes."""

import hashlib
import json
import random
import re
from itertools import combinations

import pytest

from ptmc.codes import verify_non_isolated_pds, verify_pds
from ptmc.cover import enumerate_covers, eds_instance
from ptmc.graphs import Graph
from ptmc.gamma2 import (
    GammaVertex,
    Tersquare,
    build_hive,
    build_region,
    canonical_vertex,
    export_graph,
    containing_tersquares,
    corner_partition,
    enumerate_hive_2ptmc,
    extend_2ptmc,
    external_cycle,
    gamma_truncated_distance,
    glue,
    graph_from_json,
    hive_graph,
    hive_non_isolated_pds,
    hive_vertices,
    local_ball,
    neighbors,
    no_isolated_pds,
    parse_vertex_id,
    restricted_ball,
    tersquare_vertices,
    verify_hive_selection,
)
from ptmc.gamma2 import (_closed, _edge_code, _hive_layout, _interior_check, _region_layout,
                         _rim_positions, _tersquares_up_to, _vertices_up_to, ORIGIN)
import ptmc.gamma2

from oracles import (
    ball_scan_interior,
    naive_canonical,
    naive_edge_code,
    naive_edge_numbers,
    naive_external_cycle,
    naive_gamma_ball,
    naive_gamma_distance,
    naive_grid,
    naive_hive_vertices,
    naive_induced_graph,
    naive_local_ball,
    naive_neighbors,
    naive_region_code,
    naive_region_interior,
    naive_tersquare_graph,
    naive_tersquares,
    naive_vertices,
    naive_words,
    same_graph,
    shuffled_adjacency,
)

# hive centers of several depths and shapes, for the oracle comparisons
HIVE_CENTERS = [ORIGIN, Tersquare((0, 1, 2), (1,)), Tersquare((1,), (0, 2)),
                Tersquare((2, 0, 2, 1), ()), Tersquare((), (1, 0))]


def random_tersquare(rng, max_len=4):
    words = []
    for _ in range(2):
        w = []
        for _ in range(rng.randrange(max_len + 1)):
            choices = [c for c in (0, 1, 2) if not w or w[-1] != c]
            w.append(rng.choice(choices))
        words.append(tuple(w))
    return Tersquare(*words)


# ---------------------------------------------------------------------------
# address algebra
# ---------------------------------------------------------------------------

def test_word_validation():
    # ids are the one place addresses come from text; internal
    # constructions build reduced, canonical addresses
    for bad in ("00|-|1|1", "3|-|1|1", "-|11|0|0", "-|-|3|0", "-|-|0|-1",
                "0|-|0|1", "-|2|1|2"):
        with pytest.raises(ValueError):
            parse_vertex_id(bad)


def test_glue_examples():
    assert glue(ORIGIN, "x", 0) == Tersquare((0,), ())
    xi = Tersquare((1,), ())
    assert glue(xi, "y", 2) == Tersquare((1,), (2,))
    assert glue(Tersquare((1,), (2,)), "y", 2) == xi


def test_glue_is_involution():
    rng = random.Random(2)
    for _ in range(100):
        j = random_tersquare(rng)
        axis = rng.choice("xy")
        s = rng.randrange(3)
        assert glue(glue(j, axis, s), axis, s) == j


def test_glue_rejects_bad_input():
    with pytest.raises(ValueError):
        glue(ORIGIN, "z", 0)
    with pytest.raises(ValueError):
        glue(ORIGIN, "x", 5)


def test_tersquare_adjacency_is_6_regular():
    rng = random.Random(3)
    for _ in range(20):
        j = random_tersquare(rng)
        nbrs = {glue(j, ax, s) for ax in "xy" for s in (0, 1, 2)}
        assert len(nbrs) == 6
        assert j not in nbrs


def test_canonical_vertex_examples():
    # the corner vertex shared with a subcentral tersquare
    assert canonical_vertex(Tersquare((0,), (2,)), 0, 0) == GammaVertex((), (2,), 0, 0)
    # a corner meets the central tersquare in a single vertex
    assert canonical_vertex(Tersquare((1,), (2,)), 1, 2) == GammaVertex((), (), 1, 2)
    # already canonical stays put
    v = canonical_vertex(ORIGIN, 1, 0)
    assert (v.wx, v.wy, v.a, v.b) == ((), (), 1, 0)


def test_canonical_vertex_idempotent():
    rng = random.Random(4)
    for _ in range(100):
        j = random_tersquare(rng)
        a, b = rng.randrange(3), rng.randrange(3)
        v = canonical_vertex(j, a, b)
        again = canonical_vertex(Tersquare(v.wx, v.wy), v.a, v.b)
        assert again == v


def test_canonical_vertex_matches_pop_rule_oracle():
    # every tersquare up to depth 5, every label
    for t in _tersquares_up_to(5):
        grid = naive_grid(t)
        for (a, b), v in grid.items():
            assert canonical_vertex(t, a, b) == v
        assert tersquare_vertices(t) == tuple(sorted(grid.values()))


def test_tersquare_vertices_distinct():
    rng = random.Random(5)
    for _ in range(20):
        j = random_tersquare(rng)
        assert len(set(tersquare_vertices(j))) == 9


def test_tersquare_intersections():
    base = set(tersquare_vertices(ORIGIN))
    corner = set(tersquare_vertices(Tersquare((0,), (0,))))
    sub = set(tersquare_vertices(Tersquare((0,), ())))
    assert base & corner == {GammaVertex((), (), 0, 0)}
    assert len(base & sub) == 3


def test_every_vertex_in_four_tersquares():
    rng = random.Random(6)
    for _ in range(50):
        j = random_tersquare(rng)
        v = canonical_vertex(j, rng.randrange(3), rng.randrange(3))
        ts = containing_tersquares(v)
        assert len(set(ts)) == 4
        for t in ts:
            assert v in tersquare_vertices(t)


def test_containing_tersquares_sort_in_fixed_order():
    for v in _vertices_up_to(5):
        x2, y2 = v.wx + (v.a,), v.wy + (v.b,)
        fixed = [Tersquare(v.wx, v.wy), Tersquare(v.wx, y2), Tersquare(x2, v.wy), Tersquare(x2, y2)]
        assert sorted(containing_tersquares(v)) == fixed, v


def test_neighbors_eight_and_symmetric():
    rng = random.Random(7)
    assert len(neighbors(GammaVertex((), (), 1, 1))) == 8
    for _ in range(25):
        j = random_tersquare(rng)
        v = canonical_vertex(j, rng.randrange(3), rng.randrange(3))
        nb = neighbors(v)
        assert len(nb) == 8
        for u in nb:
            assert v in neighbors(u)


def test_neighbors_match_tersquare_oracle():
    verts = _vertices_up_to(5)
    assert len(verts) == 2889
    for v in verts:
        assert neighbors(v) == naive_neighbors(v), v


def test_triangle_rows_are_cliques():
    v = GammaVertex((), (), 1, 1)
    row = [canonical_vertex(ORIGIN, 1, b) for b in (0, 2)]
    assert row[0] in neighbors(row[1])
    col = [canonical_vertex(ORIGIN, a, 1) for a in (0, 2)]
    assert col[0] in neighbors(col[1])


def test_vertex_id_round_trip():
    rng = random.Random(8)
    for _ in range(30):
        j = random_tersquare(rng)
        v = canonical_vertex(j, rng.randrange(3), rng.randrange(3))
        assert parse_vertex_id(str(v)) == v
    for v in hive_vertices(build_hive(Tersquare((0, 1, 2), (1,)))):
        assert parse_vertex_id(str(v)) == v
    assert str(GammaVertex((), (2,), 0, 0)) == "-|2|0|0"


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_distance_examples():
    u = GammaVertex((), (), 0, 0)
    v = GammaVertex((), (), 0, 1)
    w = GammaVertex((), (), 1, 1)
    assert gamma_truncated_distance(u, v) == 1
    assert gamma_truncated_distance(u, w) == 2
    far = canonical_vertex(Tersquare((0, 1), ()), 1, 1)
    assert gamma_truncated_distance(w, far) == 3
    assert gamma_truncated_distance(w, w) == 0


def test_distance_symmetric_and_edges_at_one():
    rng = random.Random(9)
    g = hive_graph(build_hive())
    verts = g.vertices
    for _ in range(300):
        u = rng.choice(verts)
        v = rng.choice(verts)
        d = gamma_truncated_distance(u, v)
        assert d == gamma_truncated_distance(v, u)
        assert 0 <= d <= 3
        assert (d == 1) == g.has_edge(u, v)


def test_distance_matches_graph_distance_when_sharing():
    # BFS distance inside the region equals the truncated distance whenever
    # the two vertices share a tersquare
    region = build_region(3)
    g = region.graph
    rng = random.Random(10)
    verts = g.vertices
    for _ in range(60):
        u = rng.choice(verts)
        dist = {u: 0}
        frontier = [u]
        while frontier:
            nxt = []
            for w in frontier:
                for z in g.neighbors(w):
                    if z not in dist:
                        dist[z] = dist[w] + 1
                        nxt.append(z)
            frontier = nxt
        for v in rng.sample(verts, 40):
            if set(containing_tersquares(u)) & set(containing_tersquares(v)):
                assert gamma_truncated_distance(u, v) == dist[v]


# ---------------------------------------------------------------------------
# hive structure
# ---------------------------------------------------------------------------

def test_hive_membership():
    h = build_hive()
    assert len(h.members) == 16
    assert len(h.subcentral) == 6
    assert len(h.corners) == 9
    assert Tersquare((0,), ()) in h.subcentral
    assert Tersquare((2,), (1,)) in h.corners


def test_hive_81_vertices_any_center():
    rng = random.Random(11)
    assert len(hive_vertices(build_hive())) == 81
    for _ in range(5):
        j = random_tersquare(rng)
        assert len(hive_vertices(build_hive(j))) == 81


def test_hive_graph_interior_degree():
    h = build_hive()
    g = hive_graph(h)
    center_verts = tersquare_vertices(ORIGIN)
    for v in center_verts:
        assert g.degree(v) == 8


def assert_graph_is_tersquare_union(g, members):
    assert same_graph(g, naive_tersquare_graph(members))
    # neighbors are the graph's own vertex objects, not equal copies
    own = {v: v for v in g.vertices}
    assert all(u is own[u] for v in g.vertices for u in g.neighbors(v))


@pytest.mark.parametrize("center", [ORIGIN, Tersquare((0, 1, 2), (1,))])
def test_hive_graph_matches_tersquare_oracle(center):
    h = build_hive(center)
    assert_graph_is_tersquare_union(hive_graph(h), h.members)


def test_region_graph_matches_tersquare_oracle():
    for level in range(6):
        region = build_region(level)
        assert_graph_is_tersquare_union(region.graph, region.members)


def rim_graph(vertices):
    """The graph `_rim_positions` gives a sorted vertex sequence, numbered
    by the oracle as a layout numbers a hive or a region."""
    return Graph._from_positions(tuple(vertices), _rim_positions(naive_edge_numbers(vertices)))


def test_induced_graph_matches_neighbors_oracle_on_random_subsets():
    # neither a hive nor a depth cut-off: kept vertices miss some neighbours
    h1, h2 = build_hive(Tersquare((0, 1, 0), ())), build_hive(Tersquare((0, 1, 2), ()))
    pools = [_vertices_up_to(4), sorted(set(hive_vertices(h1)) | set(hive_vertices(h2)))]
    rng, shuffles = random.Random(15), random.Random(16)
    for pool in pools:
        for keep in (0.3, 0.6, 0.9):
            subset = [GammaVertex(*v) for v in pool if rng.random() < keep]
            g, ref = rim_graph(subset), naive_induced_graph(subset)
            assert same_graph(g, ref)
            assert same_graph(Graph(shuffled_adjacency(ref, shuffles)), ref)
            assert any(0 < g.degree(v) < 8 for v in g.vertices)
            own = {v: v for v in subset}
            assert all(v is own[v] for v in g.vertices)
            assert all(u is own[u] for v in g.vertices for u in g.neighbors(v))


def test_induced_graph_passes_graph_checks_and_matches_tersquare_oracle():
    # built without Graph's checks: a checked Graph of the same adjacency
    # accepts it, and the adjacency is the union of the tersquares meeting
    # the vertices, induced on them (on hives and regions, the members')
    cases = [(hive_graph(h), hive_vertices(h), h.members) for h in map(build_hive, HIVE_CENTERS)]
    cases += [(r.graph, r.vertices, r.members) for r in map(build_region, range(7))]
    rng = random.Random(31)
    for pool in (_vertices_up_to(5), hive_vertices(build_hive(HIVE_CENTERS[1]))):
        for keep in (0.2, 0.5, 0.8):
            subset = [v for v in pool if rng.random() < keep]
            cases.append((rim_graph(subset), subset,
                          {t for v in subset for t in containing_tersquares(v)}))
    for g, vertices, members in cases:
        checked = Graph({v: g.neighbors(v) for v in vertices})
        ref, kept = naive_tersquare_graph(members), set(vertices)
        assert g.vertices == checked.vertices == tuple(sorted(vertices))
        for v in g.vertices:
            assert type(g.neighbors(v)) is frozenset
            assert g.neighbors(v) == checked.neighbors(v) == ref[v] & kept


def test_neighboring_hives_share_four_tersquares():
    h1 = build_hive(Tersquare((0, 1, 0), ()))
    h2 = build_hive(Tersquare((0, 1, 2), ()))
    shared = set(h1.members) & set(h2.members)
    expected = {Tersquare((0, 1), ())} | {Tersquare((0, 1), (j,)) for j in (0, 1, 2)}
    assert shared == expected


def test_region_level0():
    region = build_region(0)
    assert len(region.members) == 1
    assert len(region.graph) == 9


def test_region_interior_structure():
    region = build_region(4)
    interior = region.interior()
    assert interior
    # interior degrees come off the rim positions: the graph is not built
    degrees = region.interior_degrees()
    assert "graph" not in region.__dict__
    assert degrees == [region.graph.degree(v) for v in interior]
    for v in interior:
        assert region.graph.degree(v) == 8
        assert len(set(containing_tersquares(v))) == 4


def test_region_interior_matches_graph_scan():
    for level in range(7):
        region = build_region(level)
        assert region.interior() == naive_region_interior(region)


def test_triangles_lie_in_two_tersquares():
    # a triangle (one row of a tersquare) belongs to its tersquare and the
    # one glued along it, and no other
    region = build_region(3)
    members = set(region.members)
    inner = [t for t in region.members if len(t.wx) + len(t.wy) <= 1]
    for t in inner:
        for axis, s in (("x", 0), ("x", 1), ("x", 2), ("y", 0), ("y", 1), ("y", 2)):
            if axis == "x":
                tri = {canonical_vertex(t, s, b) for b in (0, 1, 2)}
            else:
                tri = {canonical_vertex(t, a, s) for a in (0, 1, 2)}
            owners = [m for m in members
                      if tri <= set(tersquare_vertices(m))]
            assert sorted(owners) == sorted([t, glue(t, axis, s)])


# ---------------------------------------------------------------------------
# corner partition and the hive code census
# ---------------------------------------------------------------------------

def test_corner_partition():
    h = build_hive()
    blocks = corner_partition(h)
    assert len(blocks) == 9
    assert sum(len(b) for b in blocks.values()) == 81
    union = set()
    for b in blocks.values():
        union.update(b)
    assert union == set(hive_vertices(h))


def test_external_cycles():
    h = build_hive()
    corner = Tersquare((0,), (2,))
    ext = external_cycle(h, corner)
    assert len(ext) == 4
    for v in ext:
        assert v.a != 0 and v.b != 2
        assert Tersquare(v.wx, v.wy) == corner or corner in containing_tersquares(v)


def test_restricted_ball_is_corner_block():
    h = build_hive()
    verts = hive_vertices(h)
    blocks = corner_partition(h)
    for corner in h.corners:
        for c in external_cycle(h, corner):
            assert restricted_ball(c, verts) == frozenset(blocks[corner])


def test_restricted_ball_returns_the_callers_objects():
    h = build_hive()
    copies = [GammaVertex(v.wx, v.wy, v.a, v.b) for v in hive_vertices(h)]
    ids = {id(v) for v in copies}
    for c in copies[::10]:
        ball = restricted_ball(c, copies)
        assert ball and all(id(u) in ids for u in ball)


def test_local_balls_match_distance_scan_on_level3_region():
    verts = build_region(3).graph.vertices
    for v in verts:
        assert restricted_ball(v, verts) == naive_gamma_ball(v, verts)


def test_local_balls_and_distances_match_tersquare_oracles_on_region_vertices():
    rng = random.Random(13)
    verts = _vertices_up_to(4)
    for v in verts:
        ball = local_ball(v)
        assert ball == naive_local_ball(v)
        # every vertex at distance <= 2, and three random ones, mostly at 3
        for u in list(ball) + rng.sample(verts, 3):
            assert gamma_truncated_distance(u, v) == naive_gamma_distance(u, v), (u, v)


def test_local_balls_match_tersquare_oracle_on_hives_and_random_vertices():
    # the balls are built as plain tuples typed GammaVertex, not through the
    # named tuple's constructor: each must equal the oracle's and its
    # vertices must be GammaVertex, on every hive and on deep random vertices
    rng = random.Random(29)
    verts = [v for c in HIVE_CENTERS for v in hive_vertices(build_hive(c))]
    verts += [canonical_vertex(random_tersquare(rng, 9), rng.randrange(3), rng.randrange(3))
              for _ in range(300)]
    for v in verts:
        ball = local_ball(v)
        assert ball == naive_local_ball(v) and len(ball) == 25
        assert all(type(u) is GammaVertex for u in ball)


@pytest.mark.parametrize("center", HIVE_CENTERS)
def test_hive_structures_match_tersquare_oracles(center):
    h = build_hive(center)
    verts = hive_vertices(h)
    assert verts == naive_hive_vertices(h)
    for corner in h.corners:
        assert external_cycle(h, corner) == naive_external_cycle(h, corner)
    for v in verts:
        assert restricted_ball(v, verts) == naive_gamma_ball(v, verts)
        for u in verts:
            assert gamma_truncated_distance(u, v) == naive_gamma_distance(u, v), (u, v)


@pytest.mark.parametrize("center", HIVE_CENTERS[:2])
def test_external_cycle_rejects_a_tersquare_that_is_no_corner(center):
    h = build_hive(center)
    far = glue(glue(h.center, "x", 0), "x", 1)  # two tree steps from the center
    for t in (h.center, h.subcentral[0], h.subcentral[5], far):
        assert t not in h.corners
        with pytest.raises(ValueError, match=re.escape(f"{t} is not a corner")):
            external_cycle(h, t)


def test_hive_census_is_4_to_the_9():
    h = build_hive()
    assert enumerate_hive_2ptmc(h) == 4**9


def test_hive_census_translates():
    # the count does not depend on the hive's center
    h = build_hive(Tersquare((1,), (0, 2)))
    assert enumerate_hive_2ptmc(h) == 4**9


def test_hive_census_rejects_a_ball_short_of_its_corner_block(monkeypatch):
    h = build_hive()
    short = external_cycle(h, h.corners[4])[2]
    real = ptmc.gamma2.restricted_ball
    monkeypatch.setattr(ptmc.gamma2, "restricted_ball",
                        lambda c, verts: real(c, verts) - {c} if c == short else real(c, verts))
    with pytest.raises(RuntimeError, match="not its corner block"):
        enumerate_hive_2ptmc(h)


def test_hive_census_rejects_close_cross_corner_candidates(monkeypatch):
    h = build_hive()
    pair = {external_cycle(h, h.corners[0])[0], external_cycle(h, h.corners[8])[3]}
    real = ptmc.gamma2.gamma_truncated_distance
    monkeypatch.setattr(ptmc.gamma2, "gamma_truncated_distance",
                        lambda u, v: 2 if {u, v} == pair else real(u, v))
    with pytest.raises(RuntimeError, match="too close"):
        enumerate_hive_2ptmc(h)


def test_hive_census_is_complete():
    # exhaustive totality check over balls of all 81 candidate centers:
    # the one-per-corner selections are the only isolated radius-2 codes;
    # the search tree's size, most of it replayed from the memo, pins the
    # branching order on dataclass cells
    total, exhaustive, nodes = ptmc.gamma2.enumerate_hive_2ptmc_complete(build_hive())
    assert (total, exhaustive, nodes) == (4**9, True, 357_889)


def test_full_selection_verification_samples():
    h = build_hive()
    exts = [external_cycle(h, c) for c in h.corners]
    rng = random.Random(12)
    for _ in range(25):
        sel = [rng.choice(e) for e in exts]
        rep = verify_hive_selection(h, sel)
        assert rep.passed and rep.independent
    # degenerate selections fail
    bad = [exts[0][0], exts[0][1]] + [e[0] for e in exts[2:]]
    assert not verify_hive_selection(h, bad).passed


def test_hive_selection_reports_overlap_before_smaller_gap():
    h = build_hive()
    blocks = corner_partition(h)
    corners = sorted(h.corners, key=lambda c: min(blocks[c]))
    # no center in the first corner, two in the last: the gap is smaller
    sel = [external_cycle(h, c)[0] for c in corners[1:]]
    sel.append(external_cycle(h, corners[-1])[1])
    rep = verify_hive_selection(h, sel)
    assert (rep.kind, rep.witness) == ("overlap", (min(blocks[corners[-1]]),))
    assert min(blocks[corners[0]]) < rep.witness[0]


# ---------------------------------------------------------------------------
# the 18-vertex non-isolated dominating set
# ---------------------------------------------------------------------------

def test_relaxed_pds_has_18_vertices():
    s = hive_non_isolated_pds()
    assert len(s) == 18
    assert len(set(s)) == 18


def test_relaxed_pds_passes_and_isolated_fails():
    s = hive_non_isolated_pds()
    g = hive_graph(build_hive())
    assert verify_non_isolated_pds(s, g).passed
    rep = verify_pds(s, g)
    assert not rep.passed
    assert not rep.independent


def test_relaxed_pds_component_shapes():
    # four edges, one 4-cycle, one prism: component sizes 2,2,2,2,4,6
    s = hive_non_isolated_pds()
    g = hive_graph(build_hive())
    sset = set(s)
    seen = set()
    sizes = []
    for v in s:
        if v in seen:
            continue
        comp = {v}
        frontier = [v]
        while frontier:
            w = frontier.pop()
            for u in g.neighbors(w):
                if u in sset and u not in comp:
                    comp.add(u)
                    frontier.append(u)
        seen |= comp
        sizes.append(len(comp))
    assert sorted(sizes) == [2, 2, 2, 2, 4, 6]


# ---------------------------------------------------------------------------
# no efficient dominating set in the hive; small sanity graphs
# ---------------------------------------------------------------------------

def test_hive_has_no_isolated_pds():
    out = no_isolated_pds(build_hive())
    assert out.kind == "infeasible"


def test_single_tersquare_has_no_eds():
    res = enumerate_covers(eds_instance(Graph(naive_tersquare_graph([ORIGIN]))))
    assert res.exhaustive
    assert res.solutions == ()


def test_single_tersquare_matches_subset_oracle():
    adj = naive_tersquare_graph([ORIGIN])
    verts = sorted(adj)
    idx = {v: i for i, v in enumerate(verts)}
    masks = [sum(1 << idx[u] for u in adj[v]) for v in verts]
    count = 0
    for s in range(1 << 9):
        ok = True
        for i in range(9):
            if s >> i & 1:
                if masks[i] & s:
                    ok = False
                    break
            elif bin(masks[i] & s).count("1") != 1:
                ok = False
                break
        if ok:
            count += 1
    assert count == 0


# ---------------------------------------------------------------------------
# extension beyond one hive
# ---------------------------------------------------------------------------

def test_edge_code_covers_every_edge_once():
    for seed in (None, 3):
        rng = random.Random(seed) if seed is not None else None
        code = _edge_code(6, rng)
        # all edges with shallow endpoint within depth 4
        for w in naive_words(4):
            for s in (0, 1, 2):
                if w and w[-1] == s:
                    continue
                edge = (w, s)
                deep = w + (s,)
                touching = 0
                for other in code:
                    ow, os_ = other
                    oset = {ow, ow + (os_,)}
                    if {w, deep} & oset:
                        touching += 1
                assert touching == 1, (edge, touching)


def test_edge_code_matches_queue_oracle():
    for seed in (None, 0, 1, 2, 99, 7340):
        rng = random.Random(seed) if seed is not None else None
        ref = random.Random(seed) if seed is not None else None
        for depth in range(13):
            # two sweeps share one rng, as extend_2ptmc's x- and y-sweeps do
            for _ in range(2):
                assert _edge_code(depth, rng) == naive_edge_code(depth, ref), (seed, depth)
                # the sweep drew from the rng exactly what the queue did
                if rng is not None:
                    assert rng.random() == ref.random(), (seed, depth)


def test_edge_code_to_a_level_is_the_shallow_part_of_a_deeper_sweep():
    # so extend_2ptmc's y-sweep, the last to read the rng, may stop at the level
    for seed in (None, 0, 1, 7340):
        for level in range(11):
            rngs = [random.Random(seed) if seed is not None else None for _ in range(2)]
            deep = _edge_code(level + 3, rngs[0])
            assert _edge_code(level, rngs[1]) == {e for e in deep if len(e[0]) <= level}


def test_naive_words_count_reduced_words():
    # 1 empty word, then 3 * 2^(n-1) reduced words of each length n >= 1
    assert len(naive_words(6)) == 1 + sum(3 * 2 ** (n - 1) for n in range(1, 7))


@pytest.mark.parametrize("depth", range(7))
def test_region_enumerations_match_word_filter(depth):
    # both come out sorted, generated in order rather than sorted after
    assert _tersquares_up_to(depth) == tuple(sorted(naive_tersquares(depth)))
    assert build_region(depth).members == tuple(sorted(naive_tersquares(depth)))
    assert _vertices_up_to(depth) == naive_vertices(depth)


def test_region_enumerations_are_empty_below_depth_0():
    assert _vertices_up_to(-1) == ()
    assert _tersquares_up_to(-1) == ()


@pytest.mark.parametrize("level", range(2, 9))
def test_extend_boundary_is_region_minus_interior(level):
    rc = extend_2ptmc(level, seed=1)
    assert rc.boundary_size == len(_vertices_up_to(level)) - rc.interior_size


def test_extend_level2_matches_hive_picture():
    rc = extend_2ptmc(2)
    assert rc.passed
    assert rc.interior_size == 9
    h = build_hive()
    ext_all = set()
    for c in h.corners:
        ext_all.update(external_cycle(h, c))
    hive_centers = [c for c in rc.centers if Tersquare(c.wx, c.wy) in set(h.corners)]
    assert len(hive_centers) == 9
    assert set(hive_centers) <= ext_all


def test_extend_level4_two_seeds_distinct_and_pass():
    a = extend_2ptmc(4, seed=1)
    b = extend_2ptmc(4, seed=2)
    assert a.passed and b.passed
    assert a.centers != b.centers
    assert a.interior_size == b.interior_size > 100


def test_extend_level4_missing_center_reports_smallest_gap(monkeypatch):
    full = extend_2ptmc(4, seed=1)
    rng = random.Random(1)
    dx, dy = _edge_code(7, rng), _edge_code(4, rng)
    shallow = sorted(e for e in dx if len(e[0]) <= 2)
    dropped = shallow[len(shallow) // 2]
    real = ptmc.gamma2._edge_code
    sweeps = []

    def drop_from_x_sweep(max_depth, rng):
        code = real(max_depth, rng)
        if not sweeps:
            code.discard(dropped)
        sweeps.append(max_depth)
        return code

    monkeypatch.setattr(ptmc.gamma2, "_edge_code", drop_from_x_sweep)
    rc = extend_2ptmc(4, seed=1)
    assert sweeps == [7, 4]
    assert rc.centers == tuple(c for c in full.centers if (c.wx, c.a) != dropped)
    interior = build_region(4).interior()
    uncovered = [u for u in interior if not any(u in naive_local_ball(c) for c in rc.centers)]
    assert uncovered
    assert not rc.passed
    assert rc.witness == min(uncovered)
    assert ball_scan_interior(4, dx - {dropped}, dy).witness == (rc.witness,)


def _mutants(level, dx, dy, rng):
    """Mutated axis-code pairs, each with the failure kind it must give
    (None where random flips may give either)."""
    tree = [(w, a) for w in naive_words(level - 1) for a in (0, 1, 2) if w[-1:] != (a,)]

    def flipped(code):
        for e in rng.sample(tree, rng.randint(1, 3)):
            code = code ^ {e}
        return code

    out = [((flipped(dx), flipped(dy)), None)]
    for axis, code in enumerate((dx, dy)):
        g = rng.choice(sorted(e for e in code if len(e[0]) <= level - 1))
        # dropping g leaves the edge into its shallow end meeting no chosen
        # edge; adding an edge that meets g there makes that edge meet two
        for mutated, kind in ((code - {g}, "gap"),
                              (code | {rng.choice(_closed(g)[1:3])}, "overlap"),
                              (flipped(code), None)):
            out.append(((mutated, dy) if axis == 0 else (dx, mutated), kind))
    return out


@pytest.mark.parametrize("level", range(2, 10))
def test_interior_check_matches_ball_scan_on_mutated_axis_codes(level):
    rng = random.Random(level)
    dx = _edge_code(level + 3, rng)
    dy = _edge_code(level, rng)
    assert _interior_check(level, dx, dy) == ball_scan_interior(level, dx, dy)
    assert _interior_check(level, dx, dy).passed
    kinds = set()
    for (mx, my), kind in _mutants(level, dx, dy, random.Random(1000 + level)):
        got = _interior_check(level, mx, my)
        want = ball_scan_interior(level, mx, my)
        assert (got.passed, got.kind, got.witness) == (want.passed, want.kind, want.witness)
        assert kind is None or got.kind == kind
        kinds.add(got.kind)
    assert {"overlap", "gap"} <= kinds


@pytest.mark.parametrize("level", range(2, 7))
def test_extend_matches_graph_scan_oracle(level):
    region = build_region(level)
    for seed in (None, 1, 7340):
        assert extend_2ptmc(level, seed=seed) == naive_region_code(region, seed)


def test_extend_level7_counts():
    rc = extend_2ptmc(7, seed=7340)
    assert rc.passed
    assert (len(rc.centers), rc.interior_size, rc.boundary_size) == (657, 2889, 13248)


@pytest.mark.parametrize("level, seed, counts", [(11, 1, (15345, 82953, 322560)),
                                                 (12, 7340, (34353, 184329, 700416))])
def test_extend_deep_counts(level, seed, counts):
    rc = extend_2ptmc(level, seed=seed)
    assert rc.passed and rc.witness is None
    assert (len(rc.centers), rc.interior_size, rc.boundary_size) == counts


def test_extend_rejects_small_level():
    with pytest.raises(ValueError):
        extend_2ptmc(1)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_dot_export_hive():
    text = export_graph("hive", "dot")
    assert text.count('fillcolor') == 81
    assert 'class="center"' in text and 'class="corner"' in text
    assert text.strip().endswith("}")


def test_json_export_round_trip():
    g = hive_graph(build_hive())
    back = graph_from_json(json.loads(export_graph("hive", "json")))
    assert len(back) == len(g)
    assert back.edge_count() == g.edge_count()
    ids = {str(v) for v in g.vertices}
    assert set(back.vertices) == ids
    for u in g.vertices:
        assert all(back.has_edge(str(u), str(v)) for v in g.neighbors(u))


def test_region_export_level0():
    text = export_graph("region", "json", level=0)
    doc = json.loads(text)
    assert len(doc["vertices"]) == 9


@pytest.mark.parametrize("target, level", [("hive", None)] + [("region", L) for L in range(7)])
def test_json_export_has_the_json_module_layout(target, level):
    # the hand-written text is what json.dumps writes for the same document
    text = export_graph(target, "json") if level is None else export_graph(target, "json", level=level)
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)


@pytest.mark.parametrize("target, fmt, level", [
    ("region", "json", -1), ("region", "dot", -1), ("tersquare", "json", 2), ("hive", "svg", 2),
    ("region", "svg", 2)])
def test_export_rejects_bad_requests(target, fmt, level):
    with pytest.raises(ValueError):
        export_graph(target, fmt, level=level)


def assert_layout_matches_oracles(layout, vertices, members):
    """A hive's or region's layout against the oracles: its vertices are
    the given ones, its numbers the oracle's first-use numbering, its ids
    str(v), its owners each vertex's member tersquares in sorted order,
    and the rims of its numbers the graph `neighbors` induces."""
    assert layout.vertices == vertices
    assert layout.numbers == naive_edge_numbers(vertices)
    assert layout.ids == list(map(str, vertices))
    members = set(members)
    assert layout.owners == [[str(t) for t in sorted(containing_tersquares(v)) if t in members]
                             for v in vertices]
    g = Graph._from_positions(layout.vertices, _rim_positions(layout.numbers))
    assert same_graph(g, naive_induced_graph(vertices))


@pytest.mark.parametrize("center", [None] + HIVE_CENTERS)
def test_export_ids_and_owners_match_str_and_sorted_tersquares(center):
    # what the exports write, on the level-5 region (center None) or a hive
    if center is None:
        layout, members = _region_layout(5), _tersquares_up_to(5)
        assert layout.vertices == _vertices_up_to(5)
    else:
        h = build_hive(center)
        layout, members = _hive_layout(h), h.members
        assert layout.vertices == naive_hive_vertices(h)
    assert_layout_matches_oracles(layout, layout.vertices, members)


def test_layout_matches_oracles_on_random_hives():
    rng = random.Random(41)
    for _ in range(30):
        h = build_hive(random_tersquare(rng, 5))
        assert_layout_matches_oracles(_hive_layout(h), naive_hive_vertices(h), h.members)


@pytest.mark.parametrize("level", range(8))
def test_layout_matches_oracles_on_regions(level):
    region = build_region(level)
    assert region.vertices == _vertices_up_to(level) == naive_vertices(level)
    assert_layout_matches_oracles(region._layout, naive_vertices(level), naive_tersquares(level))


# sha256 of the export text at the commit before the rim-based induced
# graph, for level 6 at the one before the hand-written JSON layout, and
# for level 7 at the one before the blockwise vertex layout: any change
# to ids, owner lists, edge order or JSON layout fails
EXPORT_SHA256 = {
    ("hive", "dot", None): "9bde14d359795e63f0e1864dac6e33073e81ddcac7673b02c3fbc026ec13db82",
    ("region", "dot", 0): "cf93e9f442298f2d889b81eb0b5c18e8f35678b3a7bba48d9f99334ea370c050",
    ("region", "dot", 1): "ba84a0ef20c0ee9a2ef2531f96e6bc4698ef0ddbeb3ed3408c37a67769bd260d",
    ("region", "dot", 2): "e116eeadf18e18f5d6eb1f355ef3f46e46f6990f7f3a9edcaa9a22cf26772728",
    ("region", "dot", 3): "db3d482388235e586b4c81e8851b0dd5391bd5f4f91409bf1199fb938f1aaa5a",
    ("region", "dot", 4): "42b6d709cd022af3fd07d7f7f9d4ba0c4a65f05b0547d6c249da167486c38a21",
    ("region", "dot", 5): "3f507564258979b7560a95722aa2868078a8309c70638ee94c0ea1d3b6c588a6",
    ("region", "dot", 6): "5ca9ff2194dbc5aba721fa76197e25c9f840ba6f3348a6dd9abbb6a58700cc18",
    ("region", "dot", 7): "fadf70bdbd6bc14c59a4fa19e0b5f9bab3b9bac0d0f989183400e179cc2550a3",
    ("hive", "json", None): "bc4656e25e358560a2ca8ab029a5ddb9002ae505fe801883133a6609a4bf799a",
    ("region", "json", 0): "c4e28237fb8048cac362da27e6e9a2ed6150834c478d6ab59d72362cdc144838",
    ("region", "json", 1): "8e3435672446d2a6188f40a74436dc8f3c79ed0629803d4ea7aa49b31cd8f559",
    ("region", "json", 2): "cfa3fc2646c61d1ec0dd53540f372cf2ff1f2eeb0b425f107830b625c2726682",
    ("region", "json", 3): "a0680d4fbb3e258edd0e78c38bb23ebbe2f700b7bca58e23652f499e46c3b12a",
    ("region", "json", 4): "fd364212770055de8d63d35f19a91a490ce1c31ad3ed50b2f73dbb38bb989827",
    ("region", "json", 5): "390bea04542680bbf2079dd0b07aabee2e1744de3f8c0254b5d41592d93bd435",
    ("region", "json", 6): "847b517d4b266ad86aff6bdbd2b6400fe2e7d37560c73c9422a00f58cdfb22ad",
    ("region", "json", 7): "8b6d9b2776d2dbf75ed012ea6c881d5b1d6c5ad3d43a88a69907d3873421e513",
}


@pytest.mark.parametrize("target, fmt, level", list(EXPORT_SHA256))
def test_export_bytes_are_pinned(target, fmt, level):
    text = export_graph(target, fmt) if level is None else export_graph(target, fmt, level=level)
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_SHA256[target, fmt, level]
