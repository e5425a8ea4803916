"""Tests for the truncated metric, balls and ambient arithmetic."""

import random

import pytest

from ptmc.metric import (
    Ambient,
    DimensionMismatch,
    ball_size_formula,
    truncated_ball,
    truncated_distance,
)

from oracles import brute_ball, brute_rho

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


def test_ambient_validation():
    with pytest.raises(ValueError):
        Ambient.torus(0, 3)
    with pytest.raises(ValueError):
        Ambient.window((2, 1))
    with pytest.raises(ValueError):
        Ambient(kind="blob", moduli=(3,))
