"""Tests for the truncated metric, balls and ambient arithmetic."""

import random
import re
from collections import Counter
from itertools import product

import pytest

from ptmc.metric import (
    Ambient,
    DimensionMismatch,
    _bits,
    _indices,
    _mask,
    _nearest_ball,
    _repeat,
    _strides,
    _translate,
    ball_size_formula,
    truncated_ball,
    truncated_distance,
)

from oracles import brute_ball, brute_rho, torus_rho

WIN5 = Ambient.window((-5, 5), (-5, 5))


def test_truncated_distance_wraps_on_torus():
    t = Ambient.torus(3, 3)
    assert truncated_distance((0, 0), (2, 0), t) == 1  # wrapped difference is -1
    assert truncated_distance((0, 0), (2, 2), t) == 2


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        WIN5.diff((0, 0), (0, 0, 0))
    with pytest.raises(DimensionMismatch):
        truncated_distance((0,), (0, 0), WIN5)


def test_truncated_distance_examples():
    assert truncated_distance((0, 0), (1, 1), WIN5) == 2
    assert truncated_distance((0, 0), (2, 0), WIN5) == 3
    w3 = Ambient.window((-2, 2), (-2, 2), (-2, 2))
    assert truncated_distance((0, 0, 0), (1, 1, 1), w3) == 3


def test_truncated_distance_properties():
    rng = random.Random(11)
    for n in range(1, 6):
        w = Ambient.window(*(((-3, 3),) * n))
        for _ in range(200):
            u = tuple(rng.randint(-3, 3) for _ in range(n))
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            d = truncated_distance(u, v, w)
            assert d == truncated_distance(v, u, w)
            assert d in set(range(n + 2))
            assert (d == 0) == (u == v)
            assert d == brute_rho(u, v)
            if max(abs(a - b) for a, b in zip(u, v)) <= 1:
                assert d == sum(a != b for a, b in zip(u, v))


def test_ball_lee_sphere():
    ball = truncated_ball(((0, 0),), 1, WIN5)
    assert sorted(ball) == sorted([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])


def test_ball_chebyshev_box():
    ball = truncated_ball(((0, 0),), 2, WIN5)
    assert len(ball) == 9
    assert set(ball) == {(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)}


def test_ball_radius_zero_is_the_set():
    h = ((0, 0), (1, 0))
    assert truncated_ball(h, 0, WIN5) == h


def test_ball_rejects_bad_inputs():
    with pytest.raises(ValueError):
        truncated_ball((), 1, WIN5)
    with pytest.raises(ValueError):
        truncated_ball(((0, 0),), 3, WIN5)
    with pytest.raises(ValueError):
        truncated_ball(((0, 0),), -1, WIN5)


def test_ball_window_clipping_flag():
    tight = Ambient.window((0, 1), (0, 1))
    assert len(truncated_ball(((0, 0),), 1, tight)) == 3  # clipped cross


@pytest.mark.parametrize("a", [Ambient.torus(3, 3), Ambient.window((-2, 2), (-2, 2))])
@pytest.mark.parametrize("centers", [((0,),), ((0, 0, 0),), ((0, 0), (0, 0, 0)), ((1,), (0, 0))])
def test_ball_rejects_centers_of_another_dimension(a, centers):
    # map(add, center, offset) stops at the shorter tuple, so such a center
    # used to give wrong points: ((0,),) on the 3 x 3 torus gave (0,), (1,), (2,)
    with pytest.raises(DimensionMismatch):
        truncated_ball(centers, 1, a)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ball_on_windows_matches_brute_force(n):
    # the per-axis bounds check that skips the per-point filter gives the
    # ball the filter gives, on windows that clip the ball (centers on the
    # window's edge) and on windows grown around the centers, which never do
    rng = random.Random(n)
    for _ in range(4):
        bounds = [(rng.randint(-3, 0), rng.randint(0, 3)) for _ in range(n)]
        edge = tuple(rng.choice(b) for b in bounds)
        inner = tuple(rng.randint(lo, hi) for lo, hi in bounds)
        for centers in ((edge,), (edge, inner), (inner,)):
            for t in range(n + 1):
                whole = brute_ball(list(centers), t, -4, 4)
                for w in (Ambient.window(*bounds), Ambient.around(centers)):
                    want = [p for p in whole if w.contains(p)]
                    assert list(truncated_ball(centers, t, w)) == want


def test_ball_on_an_unclipping_window_tests_no_point(monkeypatch):
    calls = []
    contains = Ambient.contains
    monkeypatch.setattr(Ambient, "contains", lambda a, p: calls.append(p) or contains(a, p))
    cube = tuple(product((0, 1), repeat=3))
    assert len(truncated_ball(cube, 1, Ambient.around(cube))) == 8 + 3 * 8
    assert calls == []
    assert len(truncated_ball(((0, 0, 0),), 1, Ambient.window((0, 1), (0, 1), (0, 1)))) == 4
    assert len(calls) == 7  # a clipped ball is filtered point by point


def test_ball_with_a_float_center_is_filtered_point_by_point():
    # the type check sends a float ball to the per-point filter, which clips it
    # as it always has; min and max alone would pass the last ball's columns
    w = Ambient.window((0, 2), (0, 2))
    assert truncated_ball(((0.5, 1),), 1, w) == ((0.5, 0), (0.5, 1), (0.5, 2), (1.5, 1))
    assert truncated_ball(((2.0, 0),), 1, w) == ((1.0, 0), (2.0, 0), (2.0, 1))
    assert truncated_ball(((1.0, 1),), 2, w) == tuple(
        (float(x), y) for x in range(3) for y in range(3))


@pytest.mark.parametrize("a", [Ambient.torus(3, 4, 5), Ambient.window((-2, 1), (3, 5), (-1, -1))])
def test_indices_are_row_major_or_none(a):
    # the column pass gives Ambient.index per vertex, in the order given;
    # a vertex outside, of another length, or with a coordinate that is not
    # an int (a bool, a float, a str) gives None
    verts = list(a.vertices())
    random.Random(39).shuffle(verts)
    assert list(_indices(a, verts)) == list(map(a.index, verts))
    assert list(_indices(a, [])) == []
    v = verts[0]
    above = tuple(lo + e for lo, e in zip(a.low, a.extents))
    below = tuple(lo - 1 for lo in a.low)
    for bad in (above, below, v[:2], v + (0,), (True,) + v[1:], (float(v[0]),) + v[1:],
                (str(v[0]),) + v[1:]):
        assert _indices(a, verts + [bad]) is None


def test_ball_size_formula_values():
    assert ball_size_formula(3, 1) == 7
    assert ball_size_formula(4, 2) == 33
    assert ball_size_formula(3, 3) == 27


def test_ball_size_formula_identities():
    for n in range(1, 8):
        assert ball_size_formula(n, n) == 3**n
        assert ball_size_formula(n, 1) == 2 * n + 1
    with pytest.raises(ValueError):
        ball_size_formula(3, 4)
    with pytest.raises(ValueError):
        ball_size_formula(3, -1)


def test_ball_size_formula_matches_brute_force():
    for n in range(1, 6):
        for t in range(n + 1):
            assert ball_size_formula(n, t) == len(brute_ball([(0,) * n], t, -2, 2))


def test_torus_ball_sizes_match_window():
    # no self-overlap once every modulus is >= 3
    for moduli in ((3, 3), (3, 4, 5), (5, 3, 3)):
        t = Ambient.torus(*moduli)
        n = len(moduli)
        for radius in range(n + 1):
            ball = truncated_ball(((0,) * n,), radius, t)
            assert len(ball) == ball_size_formula(n, radius)


def test_torus_ball_self_overlap_when_tiny():
    tiny = Ambient.torus(2, 2)
    assert len(truncated_ball(((0, 0),), 1, tiny)) == 3  # 5 points collapse to 3
    assert tiny.degenerate


def test_enumerate_vertices():
    assert list(Ambient.torus(2, 2).vertices()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(Ambient.window((0, 1), (0, 0)).vertices()) == [(0, 0), (1, 0)]
    assert list(Ambient.torus(3).vertices()) == [(0,), (1,), (2,)]


def test_wrapped_difference_tie_is_positive():
    t = Ambient.torus(4, 4)
    assert t.diff((0, 0), (2, 0)) == (2, 0)
    assert t.diff((2, 0), (0, 0)) == (2, 0)
    assert t.diff((0, 0), (3, 0)) == (1, 0)


@pytest.mark.parametrize("kind, values, bad", [
    ("torus", (3.9, 3), "3.9"),
    ("torus", (3, True), "True"),
    ("window", ((0, 2), (0, 1.5)), "1.5"),
    ("window", ((False, 2),), "False"),
])
def test_non_integer_moduli_and_bounds_are_refused(kind, values, bad):
    # int() would round them: a (3.9, 3) torus would pass as a (3, 3) one
    with pytest.raises(ValueError, match=re.escape(f"{bad} is not an integer")):
        getattr(Ambient, kind)(*values)


def test_ambient_validation():
    with pytest.raises(ValueError):
        Ambient.torus(0, 3)
    with pytest.raises(ValueError):
        Ambient.window((2, 1))
    with pytest.raises(ValueError):
        Ambient(kind="blob", moduli=(3,))


def test_ambient_box_and_index_maps():
    # the box is the low corner, the extents and the row-major strides; point
    # and index are inverse, and index order is the vertices' order
    cases = [(Ambient.torus(3, 4, 5), (0, 0, 0), (3, 4, 5), (20, 5, 1)),
             (Ambient.window((1, 4), (-2, 3)), (1, -2), (4, 6), (6, 1)),
             (Ambient.window((5, 5)), (5,), (1,), (1,))]
    for a, low, extents, strides in cases:
        assert (a.low, a.extents, a.strides) == (low, extents, strides)
        verts = list(a.vertices())
        assert verts == sorted(set(verts)) and len(verts) == a.vertex_count()
        assert [a.index(v) for v in verts] == list(range(len(verts)))
        assert [a.point(i) for i in range(len(verts))] == verts
        assert all(map(a.contains, verts))
        hi = tuple(x + e - 1 for x, e in zip(low, extents))
        for i in range(a.dimension):
            for bad in (low[i] - 1, hi[i] + 1):
                assert not a.contains(low[:i] + (bad,) + low[i + 1:])
        assert not a.contains(low + (0,))


def test_ambient_equality_hash_and_repr_read_only_the_given_fields():
    # the box attributes are derived: equality, hash and repr are those of
    # (kind, moduli, bounds) alone
    cases = [(Ambient.torus(3, 4), "Ambient(kind='torus', moduli=(3, 4), bounds=None)"),
             (Ambient.window((1, 4), (1, 4)),
              "Ambient(kind='window', moduli=None, bounds=((1, 4), (1, 4)))"),
             (Ambient.window((-1, 2), (3, 5)),
              "Ambient(kind='window', moduli=None, bounds=((-1, 2), (3, 5)))")]
    for a, text in cases:
        assert repr(a) == text
        assert hash(a) == hash((a.kind, a.moduli, a.bounds))
        assert a == Ambient(kind=a.kind, moduli=a.moduli, bounds=a.bounds)
    assert Ambient.torus(3, 4) != Ambient.torus(4, 3)
    # a window of the torus's box is another ambient
    assert Ambient.torus(3, 4) != Ambient.window((0, 2), (0, 3))


def test_repeat_matches_the_repunit_product():
    rng = random.Random(4)
    for _ in range(300):
        width = rng.randint(1, 40)
        times = rng.randint(1, 300)
        block = rng.getrandbits(width)
        assert _repeat(block, width, times) == block * ((2 ** (width * times) - 1) // (2 ** width - 1))


def test_mask_sets_exactly_the_positions():
    rng = random.Random(6)
    for count in (0, 1, 8, 9, 200):  # both sides of the switch to a bytearray
        positions = [rng.randrange(5000) for _ in range(count)]
        assert _mask(positions) == sum(1 << p for p in set(positions))
        assert _mask(iter(positions)) == _mask(positions)


def test_bits_inverts_mask():
    rng = random.Random(7)
    for count in (0, 1, 9, 200, 3000):
        positions = sorted(rng.sample(range(6000), count))
        assert _bits(_mask(positions)) == positions


def test_nearest_ball_matches_the_distance_oracle():
    # centres drawn mostly from the edge rows, where steps wrap round, and
    # the rest from the interior, where they share the origin's steps: the
    # ball maps each vertex within t to its distance from the nearest centre
    # vertex, and a vertex lands in ties once per further centre vertex at
    # that distance
    rng = random.Random(12)
    edges = interior = 0
    for _ in range(400):
        moduli = tuple(rng.randint(3, 7) for _ in range(rng.randint(1, 4)))
        t = rng.randint(0, len(moduli))
        centre = sorted({tuple(rng.choice((0, m - 1, rng.randrange(m))) for m in moduli)
                         for _ in range(rng.randint(1, 5))})
        ties = []
        ball = _nearest_ball(centre, t, moduli, ties)
        expect, tied = {}, {}
        for p in product(*(range(m) for m in moduli)):
            d = [torus_rho(p, s, moduli) for s in centre]
            if min(d) <= t:
                i = sum(x * k for x, k in zip(p, _strides(moduli)))
                expect[i] = min(d)
                if d.count(min(d)) > 1:
                    tied[i] = d.count(min(d)) - 1
        assert ball == expect
        assert Counter(ties) == tied
        edges += any(x in (0, m - 1) for s in centre for x, m in zip(s, moduli))
        interior += any(all(0 < x < m - 1 for x, m in zip(s, moduli)) for s in centre)
    assert edges > 300 and interior > 50


def test_translate_moves_every_bit_by_the_vector():
    rng = random.Random(8)
    for _ in range(150):
        moduli = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
        size = moduli[0] * _strides(moduli)[0]
        positions = rng.sample(range(size), rng.randint(0, size))
        z = tuple(rng.randrange(m) for m in moduli)
        a = Ambient.torus(*moduli)
        moved = [a.index(a.translate(a.point(p), z)) for p in positions]
        tops = {}
        assert _translate(_mask(positions), z, moduli, tops) == _mask(moved)
        assert _translate(_mask(positions), z, moduli, tops) == _mask(moved)  # from the cache


def test_translate_keeps_few_row_masks_on_a_large_torus():
    # 8,000,000 vertices: the cache of wrapping rows is capped at 2**25 bits
    moduli, tops, x = (400, 400, 50), {}, 1
    for c in range(1, 8):
        x = _translate(x, (c, c, c), moduli, tops)
        assert len(tops) <= 4
    assert x == 1 << 28 * 20000 + 28 * 50 + 28
