import numpy as np
import pytest

from torusflow.radial import (
    NormalFormReport,
    RadialSolverError,
    annulus_grid,
    normalize_lifted_field,
    solve_radial,
)

ANNULUS = (0.1, 2.0)


@pytest.mark.parametrize("deg", [1, 2, 3, 24, 47])
def test_polynomial_g_exact_to_round_off(deg):
    # the integrand g(u x) / u of a degree-d monomial is u^(d-1) x1^a x2^b,
    # which the 24-node rule integrates exactly for d <= 2 * 24 - 1;
    # the solution is g / d, and one batched call of g suffices
    a = deg // 2
    calls = []

    def g(x):
        calls.append(len(x))
        return x[..., 0] ** a * x[..., 1] ** (deg - a)

    grid = annulus_grid(*ANNULUS, k=2)
    sol = solve_radial(g, ANNULUS, tol=1e-10, k=2)
    want = g(grid) / deg
    calls.clear()
    err = np.abs(sol(grid) - want) / np.maximum(1.0, np.abs(want))
    assert np.max(err) < 1e-13
    assert calls == [72 * len(grid)]


@pytest.mark.parametrize("scale", [0.1, 1.0, 100.0, 1e4])
def test_tolerance_is_relative_to_f(scale):
    # an absolute 1e-14 target made g = 100 x1^2 x2 at tol = 1e-10 run
    # for minutes; relative to max(1, |f|) it is met on the first panel
    g = lambda x: scale * x[..., 0] ** 2 * x[..., 1]
    grid = annulus_grid(*ANNULUS, k=2, n_per_axis=8)
    sol = solve_radial(g, ANNULUS, tol=1e-10, k=2)
    want = g(grid) / 3.0
    assert np.max(np.abs(sol(grid) - want) / np.maximum(1.0, np.abs(want))) < 1e-13


def test_singular_integrand_raises():
    # g(u x) / u = sqrt(|x1|) / sqrt(u) is singular at u = 0: the two rules
    # keep disagreeing however many panels are used
    sol = solve_radial(lambda x: np.sqrt(np.abs(x[..., 0])), ANNULUS, k=2)
    with pytest.raises(RadialSolverError, match="panels"):
        sol(annulus_grid(*ANNULUS, k=2, n_per_axis=6))


def test_nan_from_g_raises():
    sol = solve_radial(lambda x: np.where(x[..., 0] > 0.25, np.nan, x[..., 0]),
                       ANNULUS, k=2)
    with pytest.raises(RadialSolverError):
        sol(np.array([0.5, 0.5]))


def test_solve_radial_rejects_bad_input():
    with pytest.raises(RadialSolverError):
        solve_radial(lambda x: x[..., 0], (2.0, 0.1), k=2)
    with pytest.raises(RadialSolverError):
        solve_radial(lambda x: x[..., 0] + 1.0, ANNULUS, k=2)
    with pytest.raises(RadialSolverError):
        solve_radial(lambda x: x[..., 0], ANNULUS, tol=0.0, k=2)
    with pytest.raises(RadialSolverError):
        solve_radial(lambda x: x[..., 0] + np.nan, ANNULUS, k=2)


def test_annulus_grid_respects_radii():
    # k = 2 is a grid; k = 3 (the bench's normal_form grid) draws points
    for k in (2, 3):
        grid = annulus_grid(*ANNULUS, k=k)
        r = np.linalg.norm(grid, axis=1)
        assert np.all((r >= ANNULUS[0]) & (r <= ANNULUS[1]))
        assert len(grid) > 500 and grid.shape[1] == k
    np.testing.assert_array_equal(annulus_grid(*ANNULUS, k=3, seed=4),
                                  annulus_grid(*ANNULUS, k=3, seed=4))


@pytest.mark.parametrize("g,deg", [
    (lambda x: x[..., 0], 1),
    (lambda x: x[..., 0] ** 2 * x[..., 1], 3),
    (lambda x: x[..., 0] ** 4 * x[..., 1] ** 2, 6),
])
def test_homogeneous_solution_is_g_over_degree(g, deg):
    # for degree-d homogeneous g the solution of xi.f = g is exactly g/d
    sol = solve_radial(g, ANNULUS, tol=1e-10, k=2)
    grid = annulus_grid(*ANNULUS, k=2)
    assert np.max(np.abs(sol(grid) - g(grid) / deg)) < 1e-8


def test_nonpolynomial_residual():
    g = lambda x: np.sin(x[..., 0]) * x[..., 1]
    sol = solve_radial(g, ANNULUS, tol=1e-8, k=2)
    grid = annulus_grid(*ANNULUS, k=2)
    assert np.max(sol.directional_residual(grid)) < 1e-6


def test_solution_vanishes_at_origin():
    sol = solve_radial(lambda x: x[..., 0], ANNULUS, k=2)
    assert sol(np.zeros(2)) == 0.0


def _cubic(c):
    def g(x):
        x1, x2 = x[..., 0], x[..., 1]
        return (c[0] + c[1] * x1 + c[2] * x2 + c[3] * x1 * x1
                + c[4] * x1 * x2 + c[5] * x2 * x2 + c[6] * x1**3
                + c[7] * x1 * x1 * x2 + c[8] * x1 * x2 * x2 + c[9] * x2**3)
    return g


def test_normal_form_frequencies_exact_and_correctors_solve():
    rng = np.random.default_rng(3)
    C = rng.normal(size=(2, 10))
    gs = [_cubic(C[0]), _cubic(C[1])]
    nf = normalize_lifted_field(gs, ANNULUS, tol=1e-8, k=2)
    assert nf.frequencies == (C[0][0], C[1][0])  # b_r = g_r(0) exactly
    grid = annulus_grid(*ANNULUS, k=2)
    assert max(float(np.max(phi.directional_residual(grid)))
               for phi in nf.correctors) < 1e-6


def test_normal_form_conjugation_residual():
    rng = np.random.default_rng(5)
    C = rng.normal(size=(2, 10))
    gs = [_cubic(C[0]), _cubic(C[1])]
    nf = normalize_lifted_field(gs, ANNULUS, tol=1e-8, k=2)
    xs = annulus_grid(*ANNULUS, k=2)[::61]
    pts = np.concatenate([xs, rng.uniform(0, 6.28, size=(len(xs), 2))], axis=1)
    res = nf.conjugation_residual(gs, pts)
    assert np.max(res) < 1e-6


def test_conjugation_residual_rejects_points_of_the_wrong_width():
    # x in R^1 and one angle: points need 2 coordinates
    g = [lambda x: x[..., 0]]
    nf = normalize_lifted_field(g, ANNULUS, k=1)
    with pytest.raises(RadialSolverError, match="2 coordinates"):
        nf.conjugation_residual(g, np.full((3, 3), 0.5))


def test_coordinate_change_only_shifts_angles():
    nf = normalize_lifted_field([lambda x: x[..., 0]], ANNULUS, k=1)
    F = nf.coordinate_change()
    p = np.array([0.5, 1.0])
    out = F(p)
    assert out[0] == p[0]
    # corrector for g = x is x itself, so the angle drops by 0.5
    assert np.isclose(out[1], 1.0 - 0.5, atol=1e-7)
