import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestopt import Ball, Box, CustomSet, Polytope, ProjectionError, Simplex, gap

from helpers import (contains, dykstra_projection, is_stationary, optimality_residual,
                     random_point, same_bits, set_norm_bounds, simplex_projection_reference,
                     solve_subproblem)

# fixed example sequence and no example database: the suite stays reproducible
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _all_sets():
    rng = np.random.default_rng(3)
    A = np.vstack([np.eye(3), -np.eye(3), rng.standard_normal((2, 3))])
    b = np.concatenate([np.ones(6), np.array([2.0, 2.5])])
    return [
        Box(np.full(3, -1.0), np.full(3, 1.0)),
        Ball(np.array([0.5, -0.5, 0.0]), 2.0),
        Simplex(3),
        Polytope(A, b, np.zeros(3)),
    ]


# ---------------------------------------------------------------------------
# projections

def test_box_clamp():
    box = Box(np.full(2, -1.0), np.full(2, 1.0))
    assert np.array_equal(box.project(np.array([-2.0, 0.5])), np.array([-1.0, 0.5]))


def test_simplex_symmetric_point():
    # all-equal input projects to the barycenter; brute-force grid agrees
    sim = Simplex(3)
    v = np.array([0.4, 0.4, 0.4])
    proj = sim.project(v)
    assert np.allclose(proj, np.full(3, 1.0 / 3.0), atol=1e-12)
    best, best_d = None, np.inf
    steps = 100
    for i, j in itertools.product(range(steps + 1), repeat=2):
        if i + j > steps:
            continue
        y = np.array([i, j, steps - i - j]) / steps
        dist = float(np.sum((y - v) ** 2))
        if dist < best_d:
            best, best_d = y, dist
    assert np.linalg.norm(proj - best) < 2.0 / steps


@st.composite
def _simplex_case(draw):
    dim = draw(st.integers(1, 8))
    magnitude = draw(st.sampled_from([1e-300, 1e-12, 1.0, 1e6, 1e12, 1e200]))
    scale = draw(st.sampled_from([1.0, 1e-3, 0.37, 7.0, 1e4]))
    entries = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 0.25, 1.0]))
    v = np.array(draw(st.lists(entries, min_size=dim, max_size=dim))) * magnitude
    if draw(st.booleans()):  # an already-feasible point
        v = np.abs(v)
        v = scale * v / v.sum() if v.sum() > 0 else np.full(dim, scale / dim)
    return Simplex(dim, scale), v


@PROPERTY
@given(_simplex_case())
def test_simplex_matches_array_sort_threshold(case):
    # ties (repeated entries, signed zeros), feasible inputs, dim 1, scale != 1 and
    # magnitudes from 1e-300 to 1e200 against the vectorised reference, bit for bit
    sim, v = case
    try:
        expected = simplex_projection_reference(v, sim.scale)
    except IndexError:  # no threshold qualifies once |v| swamps the scale
        with pytest.raises(ProjectionError):
            sim.project(v)
        return
    assert same_bits(sim.project(v), expected)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_simplex_rejects_non_finite_input(bad):
    v = np.array([0.2, bad, 0.5])
    with pytest.raises(ProjectionError):
        Simplex(3).project(v)


def test_ball_radial_scaling():
    ball = Ball(np.zeros(2), 1.0)
    assert np.allclose(ball.project(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-12)


def test_projection_idempotent_and_lipschitz():
    rng = np.random.default_rng(11)
    for fs in _all_sets():
        for _ in range(50):
            v = 3.0 * rng.standard_normal(fs.dim)
            w = 3.0 * rng.standard_normal(fs.dim)
            pv, pw = fs.project(v), fs.project(w)
            assert np.linalg.norm(fs.project(pv) - pv) <= 1e-12
            assert np.linalg.norm(pv - pw) <= np.linalg.norm(v - w) * (1 + 1e-12)


def test_projection_variational_inequality():
    # <v - Pv, w - Pv> <= tol for feasible w
    rng = np.random.default_rng(12)
    for fs in _all_sets():
        for _ in range(20):
            v = 3.0 * rng.standard_normal(fs.dim)
            pv = fs.project(v)
            for _ in range(5):
                w = random_point(fs, rng)
                assert float((v - pv) @ (w - pv)) <= 1e-9


def test_random_point_feasible():
    rng = np.random.default_rng(13)
    for fs in _all_sets():
        for _ in range(25):
            assert contains(fs, random_point(fs, rng), tol=1e-8)


def test_norm_bounds_hold_on_random_points():
    rng = np.random.default_rng(6)
    for fs in _all_sets():
        if not isinstance(fs, (Box, Simplex)):
            with pytest.raises(TypeError):
                set_norm_bounds(fs)
            continue
        sup_norm, diameter = set_norm_bounds(fs)
        pts = [fs.project(3.0 * rng.standard_normal(fs.dim)) for _ in range(200)]
        assert max(np.linalg.norm(p) for p in pts) <= sup_norm + 1e-12
        assert np.linalg.norm(pts[0] - pts[1]) <= diameter + 1e-12
    # exact on Box and Simplex: a vertex attains the bound
    assert set_norm_bounds(Box(np.full(2, -1.0), np.full(2, 3.0)))[0] == pytest.approx(
        np.sqrt(18.0))
    assert set_norm_bounds(Simplex(4, scale=2.0))[0] == 2.0


def test_polytope_matches_box():
    n = 4
    lo, hi = np.full(n, -1.0), np.full(n, 1.0)
    box = Box(lo, hi)
    poly = Polytope(np.vstack([np.eye(n), -np.eye(n)]),
                    np.concatenate([hi, -lo]), np.zeros(n))
    rng = np.random.default_rng(4)
    for _ in range(50):
        v = 3.0 * rng.standard_normal(n)
        assert np.max(np.abs(poly.project(v) - box.project(v))) <= 1e-8


def test_polytope_triangle_hand_case():
    # x >= 0, y >= 0, x + y <= 1: the point (1, 1) projects to (1/2, 1/2)
    tri = Polytope(np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
                   np.array([0.0, 0.0, 1.0]), np.array([0.25, 0.25]))
    assert np.allclose(tri.project(np.array([1.0, 1.0])), [0.5, 0.5], atol=1e-9)


def _random_polytope(rng, n, rows):
    """Gaussian rows, each at a random margin from a random interior point."""
    A = rng.standard_normal((rows, n))
    p = rng.uniform(-1.0, 1.0, n)
    return Polytope(A, A @ p + rng.uniform(0.1, 1.0, rows), p)


def _random_set(kind, n, rng):
    if kind == "box":
        lo = rng.uniform(-2.0, 1.0, n)
        return Box(lo, lo + rng.uniform(0.0, 2.0, n))
    if kind == "ball":
        return Ball(rng.uniform(-1.0, 1.0, n), rng.uniform(0.1, 2.0))
    if kind == "simplex":
        return Simplex(n, rng.uniform(0.1, 3.0))
    return _random_polytope(rng, n, int(rng.integers(1, 4 * n + 1)))


_coords = st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=5, max_size=5)


@st.composite
def _set_and_points(draw):
    """A random set of every kind in dimension 1-5, two points, and an rng."""
    kind = draw(st.sampled_from(["box", "ball", "simplex", "polytope"]))
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = np.array(draw(_coords)[:n])
    w = np.array(draw(_coords)[:n])
    return _random_set(kind, n, rng), v, w, rng


@PROPERTY
@given(_set_and_points())
def test_property_projection_idempotent(case):
    fs, v, _, _ = case
    pv = fs.project(v)
    assert np.linalg.norm(fs.project(pv) - pv) <= 1e-12 * (1.0 + np.linalg.norm(v))


@PROPERTY
@given(_set_and_points())
def test_property_projection_nonexpansive(case):
    fs, v, w, _ = case
    dist = np.linalg.norm(fs.project(v) - fs.project(w))
    assert dist <= np.linalg.norm(v - w) + 1e-12 * (1.0 + np.linalg.norm(v) + np.linalg.norm(w))


@PROPERTY
@given(_set_and_points())
def test_property_projection_variational_inequality(case):
    # <v - P(v), w - P(v)> <= 1e-9 for every feasible w
    fs, v, _, rng = case
    pv = fs.project(v)
    for _ in range(5):
        w = random_point(fs, rng)
        assert float((v - pv) @ (w - pv)) <= 1e-9


def _kkt_residuals(poly, v, y):
    """Stationarity, sign, feasibility and slackness residuals of y = P(v).

    The multipliers are recovered from the rows tight at y by least squares
    on y - v + A_S^T lam = 0; the other rows get lam = 0.
    """
    s = poly.A @ y - poly.b
    tight = s >= -1e-9
    lam = np.zeros(poly.A.shape[0])
    if tight.any():
        lam[tight] = np.linalg.lstsq(poly.A[tight].T, v - y, rcond=None)[0]
    return (float(np.linalg.norm(y - v + poly.A.T @ lam)), float(-lam.min()),
            float(s.max()), float(np.max(np.abs(lam * s))))


def test_polytope_kkt_residuals():
    rng = np.random.default_rng(31)
    worst = np.zeros(4)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        poly = _random_polytope(rng, n, int(rng.integers(n, 4 * n)))
        for _ in range(10):
            v = poly.anchor() + 3.0 * rng.standard_normal(n)
            worst = np.maximum(worst, _kkt_residuals(poly, v, poly.project(v)))
    stationarity, negative_lam, violation, slackness = worst
    assert stationarity <= 1e-9
    assert negative_lam <= 1e-9
    assert violation <= 1e-12
    assert slackness <= 1e-9


def test_polytope_matches_dykstra_reference():
    rng = np.random.default_rng(32)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        poly = _random_polytope(rng, n, int(rng.integers(n, 3 * n)))
        for _ in range(5):
            v = poly.anchor() + 3.0 * rng.standard_normal(n)
            ref = dykstra_projection(poly.A, poly.b, v)
            worst = max(worst, float(np.max(np.abs(poly.project(v) - ref))))
    assert worst <= 1e-9


def test_polytope_duplicated_rows():
    # the triangle with one row repeated, one repeated at twice the scale,
    # and a parallel copy of the hypotenuse cut back to x + y <= 1
    A = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [1.0, 1.0],
                  [-2.0, 0.0], [1.0, 1.0]])
    b = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.5])
    tri = Polytope(A, b, np.array([0.25, 0.25]))
    assert np.allclose(tri.project(np.array([1.0, 1.0])), [0.5, 0.5], atol=1e-12)
    rng = np.random.default_rng(33)
    for _ in range(200):
        v = 2.0 * rng.standard_normal(2)
        ref = dykstra_projection(A, b, v)
        assert np.max(np.abs(tri.project(v) - ref)) <= 1e-9


def test_polytope_pyramid_apex_with_more_than_n_active_rows():
    # a square pyramid in R^3: four faces meet at the apex (0, 0, 1), so the
    # apex has four active rows in three dimensions
    A = np.array([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 1.0],
                  [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]])
    b = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
    pyramid = Polytope(A, b, np.array([0.0, 0.0, 0.5]))
    apex = np.array([0.0, 0.0, 1.0])
    rng = np.random.default_rng(34)
    # every point apex + A_faces^T w with w >= 0 has the apex as its projection
    for w in itertools.chain(np.eye(4), [np.ones(4), np.array([1.0, 1.0, 0.0, 0.0])],
                             rng.uniform(0.0, 2.0, (200, 4))):
        v = apex + A[:4].T @ w
        assert np.max(np.abs(pyramid.project(v) - apex)) <= 1e-12
    for _ in range(200):
        v = apex + 2.0 * rng.standard_normal(3)
        assert np.max(np.abs(pyramid.project(v) - dykstra_projection(A, b, v))) <= 1e-9


def test_polytope_removes_tiny_violations():
    # exactness: a point just outside one face lands on the face itself
    square = Polytope(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4), np.zeros(2))
    for eps in (1e-6, 1e-9, 1e-11):
        y = square.project(np.array([1.0 + eps, 0.5]))
        assert y[0] <= 1.0 and abs(y[0] - 1.0) <= 1e-15 and y[1] == 0.5


def test_polytope_step_cap_raises_projection_error():
    tri = Polytope(np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
                   np.array([0.0, 0.0, 1.0]), np.array([0.25, 0.25]))
    v = np.array([-1.0, 3.0])  # lands on the vertex (0, 1): two rows to add
    assert np.allclose(tri.project(v), [0.0, 1.0], atol=1e-12)
    tri._max_steps = 1
    with pytest.raises(ProjectionError):
        tri.project(v)


def test_polytope_requires_interior_point():
    with pytest.raises(ValueError):
        Polytope(np.array([[1.0, 0.0]]), np.array([0.0]), np.array([1.0, 0.0]))


def test_box_rejects_empty():
    with pytest.raises(ValueError):
        Box(np.array([1.0]), np.array([0.0]))


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("build, match", [
    (lambda: Box([NAN], [1.0]), "empty box"),
    (lambda: Box([0.0], [NAN]), "empty box"),
    (lambda: Ball(np.zeros(2), NAN), "radius must be positive"),
    (lambda: Ball(np.zeros(2), 0.0), "radius must be positive"),
    (lambda: Ball([NAN], 1.0), "center finite"),
    (lambda: Simplex(2, NAN), "scale must be positive"),
    (lambda: Simplex(2, -1.0), "scale must be positive"),
    (lambda: Box([0.0], [INF]), "hi must be finite"),
    (lambda: Box([-INF], [INF]), "lo must be finite"),
    (lambda: Ball(np.zeros(2), INF), "radius must be positive and finite"),
    (lambda: Simplex(2, INF), "scale must be positive and finite"),
    (lambda: Polytope([[1.0, 0.0], [NAN, 1.0]], [1.0, 1.0], [0.0, 0.0]), "A must be finite"),
    (lambda: Polytope([[1.0, 0.0]], [INF], [0.0, 0.0]), "b must be finite"),
    (lambda: Polytope([[1.0, 0.0]], [1.0], [NAN, 0.0]), "interior_point must be finite"),
], ids=["box-nan-lo", "box-nan-hi", "ball-nan-radius", "ball-zero-radius", "ball-nan-center",
        "simplex-nan-scale", "simplex-negative-scale", "box-inf-hi", "box-inf-both",
        "ball-inf-radius", "simplex-inf-scale", "polytope-nan-A", "polytope-inf-b",
        "polytope-nan-interior-point"])
def test_sets_reject_nan_and_out_of_range_parameters(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_custom_set_callback():
    fs = CustomSet(2, lambda v: np.clip(v, 0.0, 1.0))
    assert np.array_equal(fs.project(np.array([-1.0, 2.0])), [0.0, 1.0])


# ---------------------------------------------------------------------------
# subproblem and gap

def test_subproblem_zero_direction_returns_x():
    box = Box(np.full(2, -1.0), np.full(2, 1.0))
    x = np.array([0.3, -0.4])
    assert np.array_equal(solve_subproblem(box, x, np.zeros(2), 1.0), x)


def test_subproblem_box_case_with_grid_oracle():
    box = Box(np.full(2, -1.0), np.full(2, 1.0))
    x = np.zeros(2)
    z = np.array([2.0, 0.0])
    y = solve_subproblem(box, x, z, 1.0)
    assert np.allclose(y, [-1.0, 0.0], atol=1e-12)
    # objective is coordinate-separable on a box: 1-D grid search per axis
    grid = np.linspace(-1.0, 1.0, 2001)
    for i in range(2):
        vals = z[i] * (grid - x[i]) + 0.5 * (grid - x[i]) ** 2
        assert abs(grid[np.argmin(vals)] - y[i]) <= 1e-3


def test_subproblem_interior_closed_form():
    box = Box(np.full(3, -1e9), np.full(3, 1e9))
    x = np.array([1.0, -2.0, 0.5])
    z = np.array([3.0, 1.0, -4.0])
    assert np.allclose(solve_subproblem(box, x, z, 2.0), x - z / 2.0, atol=1e-12)


def test_gap_zero_at_zero_direction():
    box = Box(np.full(2, -1.0), np.full(2, 1.0))
    assert gap(box, np.array([0.2, 0.2]), np.zeros(2), 1.0) == 0.0


def test_gap_box_hand_value():
    box = Box(np.full(2, -1.0), np.full(2, 1.0))
    eta = gap(box, np.zeros(2), np.array([2.0, 0.0]), 1.0)
    # direct arithmetic at y = (-1, 0): <z, y-x> + 0.5||y-x||^2 = -2 + 0.5
    assert eta == pytest.approx(-1.5, abs=1e-12)
    # grid cross-check over the box
    grid = np.linspace(-1.0, 1.0, 401)
    best = min(2.0 * g1 + 0.5 * (g1 * g1 + g2 * g2)
               for g1 in grid for g2 in grid)
    assert eta == pytest.approx(best, abs=1e-3)


def test_gap_zero_at_stationary_pair():
    # at a corner with the certificate inside the normal cone the gap closes
    box = Box(np.zeros(2), np.ones(2))
    x_star = np.zeros(2)
    z_star = np.array([1.0, 1.0])
    assert gap(box, x_star, z_star, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_gap_nonpositive_and_residual():
    rng = np.random.default_rng(21)
    for fs in _all_sets():
        for _ in range(250):
            x = random_point(fs, rng)
            z = 2.0 * rng.standard_normal(fs.dim)
            y = solve_subproblem(fs, x, z, 1.0)
            d = y - x
            assert float(z @ d) + 0.5 * float(d @ d) <= 1e-12
            assert optimality_residual(z, d, 1.0) <= 1e-9


def test_subproblem_scale_invariance():
    # (cz, c*rho) projects the same point as (z, rho)
    fs = Ball(np.zeros(3), 1.0)
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = random_point(fs, rng)
        z = rng.standard_normal(3)
        y1 = solve_subproblem(fs, x, z, 0.7)
        y2 = solve_subproblem(fs, x, 3.7 * z, 3.7 * 0.7)
        assert np.allclose(y1, y2, atol=1e-12)


def test_stationarity_tolerance_scales_with_certificate():
    z_small = np.zeros(2)
    z_big = np.full(2, 1e6)
    assert is_stationary(-5e-9, z_small)
    assert not is_stationary(-1e-6, z_small)
    # relative threshold grows with ||z||: 1e-8 * (1 + ~1.41e6) ~ 0.014
    assert is_stationary(-0.01, z_big)
    assert not is_stationary(-0.02, z_big)
