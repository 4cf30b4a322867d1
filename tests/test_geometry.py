import numpy as np
import pytest
from hypothesis import given, strategies as st

from torusflow.geometry import (
    TWO_PI,
    Chart,
    base_projection_pi,
    embed_s5,
    in_triangle,
    pair_radii,
    sphere_normalize,
    sphere_phases,
    torus_act_s5,
    wrap_angles,
)

angles = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)


@given(st.lists(angles, min_size=1, max_size=4))
def test_wrap_angles_idempotent_and_in_range(theta):
    w = wrap_angles(np.array(theta))
    assert np.all((w >= 0.0) & (w < TWO_PI))
    assert np.allclose(wrap_angles(w), w)


def test_wrap_angles_rejects_nonfinite():
    with pytest.raises(ValueError):
        wrap_angles(np.array([np.nan]))


def test_sphere_normalize_unit_norm():
    rng = np.random.default_rng(0)
    y = rng.normal(size=(10, 6))
    out = sphere_normalize(y)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0)


def test_embed_project_roundtrip():
    x = np.array([0.2, 0.3])
    y = embed_s5(x, (0.4, 1.1, 2.2))
    assert np.isclose(np.linalg.norm(y), 1.0)
    assert np.allclose(base_projection_pi(y), x)
    assert np.allclose(sphere_phases(y), (0.4, 1.1, 2.2))
    # batches, and pi against its per-pair formula
    rng = np.random.default_rng(4)
    xs = rng.dirichlet([1.0, 1.0, 1.0], (4, 5))[..., :2]
    phis = rng.uniform(-np.pi, np.pi, (4, 5, 3))
    ys = embed_s5(xs, phis)
    assert ys.shape == (4, 5, 6)
    assert np.allclose(base_projection_pi(ys), xs, atol=1e-15)
    assert np.allclose(sphere_phases(ys), phis)
    z = rng.normal(size=(7, 6))
    assert np.array_equal(base_projection_pi(z), np.stack(
        [z[:, 0] ** 2 + z[:, 1] ** 2, z[:, 2] ** 2 + z[:, 3] ** 2], axis=-1))
    assert np.array_equal(base_projection_pi(z[2]), base_projection_pi(z)[2])


def test_embed_s5_broadcasts_base_points_against_phases():
    rng = np.random.default_rng(6)
    phis = rng.uniform(0, TWO_PI, (4, 3))
    x = np.array([0.2, 0.3])
    ys = embed_s5(x, phis)
    assert ys.shape == (4, 6)
    for i in range(4):
        assert np.array_equal(ys[i], embed_s5(x, phis[i]))
    xs = np.array([[0.1, 0.2], [0.5, 0.5], [0.0, 1.0]])
    grid = embed_s5(xs[:, None, :], phis)
    assert grid.shape == (3, 4, 6)
    for i in range(3):
        assert np.array_equal(grid[i], embed_s5(xs[i], phis))
    with pytest.raises(ValueError):
        embed_s5(np.array([0.7, 0.4]), phis)


def test_torus_action_preserves_sphere_and_base():
    rng = np.random.default_rng(1)
    y = sphere_normalize(rng.normal(size=6))
    lam = rng.uniform(0, TWO_PI, 3)
    gy = torus_act_s5(lam, y)
    assert np.isclose(np.linalg.norm(gy), 1.0)
    assert np.allclose(base_projection_pi(gy), base_projection_pi(y))


def test_torus_action_composition():
    rng = np.random.default_rng(2)
    y = sphere_normalize(rng.normal(size=6))
    a, b = rng.uniform(0, TWO_PI, (2, 3))
    assert np.allclose(torus_act_s5(a, torus_act_s5(b, y)),
                       torus_act_s5(a + b, y), atol=1e-12)


def test_in_triangle():
    assert in_triangle(np.array([0.25, 0.25]))
    assert not in_triangle(np.array([0.6, 0.6]))
    assert not in_triangle(np.array([0.05, 0.5]), margin=0.1)


def test_pair_radii_bits_match_the_per_pair_formula():
    # interior points, points on each edge (some an ulp or so outside, which
    # clamp onto it) and the three vertices, as a batch and one at a time
    rng = np.random.default_rng(5)
    inner = rng.dirichlet(np.ones(3), size=10_000)[:, :2]
    t = rng.uniform(0.0, 1.0, size=5_000)
    ulp = rng.choice([-1.0, 0.0, 1.0], size=t.size) * 2e-16
    edges = np.concatenate([np.stack([t, ulp], axis=-1),
                            np.stack([ulp, t], axis=-1),
                            np.stack([t, 1.0 - t + ulp], axis=-1)])
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    x = np.concatenate([inner, edges, vertices])
    want = np.stack([np.sqrt(np.maximum(x[:, 0], 0.0)),
                     np.sqrt(np.maximum(x[:, 1], 0.0)),
                     np.sqrt(np.maximum(1.0 - x[:, 0] - x[:, 1], 0.0))],
                    axis=-1)
    got = pair_radii(x)
    assert got.shape == (len(x), 3) and np.array_equal(got, want)
    assert all(np.array_equal(pair_radii(p), w) for p, w in zip(x[::997],
                                                                want[::997]))
    assert np.array_equal(pair_radii(x[:25_000].reshape(5, -1, 2)),
                          want[:25_000].reshape(5, -1, 3))


@pytest.mark.parametrize("x", [[-1e-14, 0.5], [0.5, -1e-14],
                               [0.5, 0.5 + 1e-14], [[0.2, 0.2], [0.7, 0.7]]])
def test_pair_radii_rejects_points_outside_the_triangle(x):
    with pytest.raises(ValueError, match="outside the closed triangle"):
        pair_radii(np.array(x))


def test_chart_kinds_and_dims():
    c = Chart("product", k=2, n=2)
    assert c.dim == 4 and c.base_dim == 2 and not c.base_angular
    s = Chart("sphere5")
    assert s.dim == 6 and s.base_dim == 2 and s.n == 3 and s.is_sphere
    cp = Chart("circle_product", n=2)
    assert cp.dim == 3 and cp.base_dim == 1 and cp.base_angular
    with pytest.raises(ValueError):
        Chart("klein_bottle")


@pytest.mark.parametrize("chart", [Chart("product", k=2, n=2),
                                   Chart("circle_product", n=2),
                                   Chart("sphere5")])
def test_chart_act_broadcasts_like_the_loop_over_pairs(chart):
    rng = np.random.default_rng(3)
    lam = rng.uniform(0, TWO_PI, (5, 1, chart.n))
    p = rng.uniform(0, TWO_PI, (4, chart.dim))
    if chart.is_sphere:
        p = sphere_normalize(p - np.pi)
    out = chart.act(lam, p)
    assert out.shape == (5, 4, chart.dim)
    if not chart.is_sphere:
        nb = chart.dim - chart.n
        assert np.array_equal(out[..., :nb],
                              np.broadcast_to(p[:, :nb], (5, 4, nb)))
        assert np.array_equal(out[..., nb:], np.mod(p[:, nb:] + lam, TWO_PI))
    for i in range(5):
        for j in range(4):
            assert np.array_equal(out[i, j], chart.act(lam[i, 0], p[j]))
    # one group element for a batch of points, and the reverse
    assert np.array_equal(chart.act(lam[0, 0], p), out[0])
    assert np.array_equal(chart.act(lam[:, 0], p[1]), out[:, 1])


def test_chart_distance_uses_shortest_arc():
    c = Chart("product", k=1, n=1)
    p = np.array([0.5, 0.1])
    q = np.array([0.5, TWO_PI - 0.1])
    assert np.isclose(c.distance(p, q), 0.2, atol=1e-12)


def test_chart_base_distance_circle():
    c = Chart("circle_product", n=1)
    assert np.isclose(c.base_distance(np.array([0.1]),
                                      np.array([TWO_PI - 0.1])), 0.2)


def test_displace_base_sphere_keeps_phases():
    x = np.array([0.2, 0.3])
    phis = (0.5, 1.0, 1.5)
    s = Chart("sphere5")
    y = embed_s5(x, phis)
    y2 = s.displace_base(y, np.array([0.01, -0.02]))
    assert np.allclose(base_projection_pi(y2), x + [0.01, -0.02])
    assert np.allclose(sphere_phases(y2), phis)


def test_base_tangent_is_projection_differential():
    # dpi(v) at y must match the finite difference of pi along v
    rng = np.random.default_rng(3)
    s = Chart("sphere5")
    y = sphere_normalize(rng.normal(size=6))
    v = rng.normal(size=6)
    h = 1e-6
    fd = (base_projection_pi(y + h * v) - base_projection_pi(y - h * v)) / (2 * h)
    assert np.allclose(s.base_tangent(y, v), fd, atol=1e-8)
    # batches, broadcast, against the per-pair formula 2 (a_j a'_j + b_j b'_j)
    ys = sphere_normalize(rng.normal(size=(3, 1, 6)))
    vs = rng.normal(size=(5, 6))
    got = s.base_tangent(ys, vs)
    assert got.shape == (3, 5, 2)
    for j in range(2):
        want = 2 * (ys[..., 2 * j] * vs[..., 2 * j]
                    + ys[..., 2 * j + 1] * vs[..., 2 * j + 1])
        assert np.array_equal(got[..., j], want)


@pytest.mark.parametrize("chart", [
    Chart("product", k=2, n=2), Chart("circle_product", n=2), Chart("sphere5"),
])
def test_displace_base_broadcasts_point_against_deltas(chart):
    p = chart.lift(np.full(chart.base_dim, 0.25))
    if not chart.is_sphere:
        p[chart.base_dim:] = 0.5
    deltas = np.linspace(-0.05, 0.05, 4 * chart.base_dim).reshape(
        4, chart.base_dim)
    moved = chart.displace_base(p, deltas)
    assert moved.shape == (4, chart.dim)
    rows = np.stack([chart.displace_base(p, delta) for delta in deltas])
    assert np.array_equal(moved, rows)
    assert np.allclose(chart.base(moved), chart.base(p) + deltas, atol=1e-15)
    assert np.allclose(chart.fiber_angles(moved), chart.fiber_angles(p))


@pytest.mark.parametrize("chart, inside", [
    (Chart("product", k=1, n=1), lambda x: (x[:, 0] >= -1) & (x[:, 0] <= 5)),
    (Chart("circle_product", n=2),
     lambda x: (x[:, 0] >= 0) & (x[:, 0] < TWO_PI)),
    (Chart("product", k=2, n=2), lambda x: np.hypot(*x.T) <= 2),
    (Chart("sphere5"), lambda x: in_triangle(x, margin=0.02)),
    (Chart("product", k=0, n=2), lambda x: np.ones(len(x), dtype=bool)),
    (Chart("product", k=3, n=1), lambda x: np.linalg.norm(x, axis=1) <= 2),
], ids=["line", "circle", "plane", "s5", "r0", "r3"])
def test_sample_base_draws_from_its_domain(chart, inside):
    xs = chart.sample_base(np.random.default_rng(0), 500)
    assert xs.shape == (500, chart.base_dim)
    assert np.all(inside(xs))


def test_sample_base_is_uniform_in_the_ball_on_r3():
    # half the volume of the ball of radius 2 lies within 2 / 2^(1/3), and
    # the directions have no preferred side
    xs = Chart("product", k=3, n=1).sample_base(np.random.default_rng(1),
                                               4000)
    inner = np.linalg.norm(xs, axis=1) <= 2.0 / 2.0 ** (1.0 / 3.0)
    assert abs(inner.mean() - 0.5) < 0.03
    assert np.all(np.abs(np.mean(xs > 0, axis=0) - 0.5) < 0.03)
