import numpy as np
import pytest

from torusflow import fields as fields_module
from torusflow.fields import (
    E,
    FieldHandle,
    batched_jacobian,
    connection_fields_s5,
    describing_field_s5,
    field_scale,
    fundamental_fields_s5,
    lie_bracket,
    lifted_field_s5,
    line_model_fields,
    pushforward_residual,
    rational_relation,
    tau_s5,
    xi_plus_affine,
)
from torusflow.geometry import (
    TWO_PI,
    Chart,
    base_projection_pi,
    embed_s5,
    sphere_normalize,
    torus_act_s5,
)

rng = np.random.default_rng(7)


def random_sphere_points(m):
    return sphere_normalize(np.random.default_rng(11).normal(size=(m, 6)))


def test_xi_plus_affine_values():
    X = xi_plus_affine(1, (3.0, 4.0), dense=False)
    assert np.allclose(X(np.array([2.0, 0.1, 0.2])), [2.0, 3.0, 4.0])


def test_xi_plus_affine_needs_a_frequency():
    with pytest.raises(ValueError, match="at least one frequency"):
        xi_plus_affine(2, ())


def grid_relation(a, max_coeff=50, tol=1e-9):
    """The smallest relation on the full coefficient grid, first in grid order."""
    a = np.asarray(a, dtype=float)
    bound = max_coeff if a.size <= 3 else 10
    axes = [np.arange(-bound, bound + 1)] * a.size
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, a.size)
    hits = grid[(np.abs(grid @ a) < tol) & np.any(grid != 0, axis=1)]
    if not len(hits):
        return None
    return tuple(int(m) for m in hits[np.argmin(np.abs(hits).sum(axis=1))])


def seeded_frequencies(count, seed=9):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        a = rng.uniform(-3.0, 3.0, int(rng.integers(2, 4)))
        if i % 3 == 1:
            m = rng.integers(-4, 5, a.size - 1)
            a[-1] = (m @ a[:-1]) / rng.choice([1, 2, 3, -5])
        elif i % 3 == 2:
            a = rng.integers(-6, 7, a.size) * rng.uniform(0.1, 3.0)
        out.append(tuple(a))
    return out


R2, R3 = np.sqrt(2.0), np.sqrt(3.0)


def test_rational_relation_found_and_absent():
    assert rational_relation((1.0, R2)) is None
    assert rational_relation((1.0, E, E * E)) is None
    cases = [(1.0, 0.0), (0.0, 0.0), (1.0, 0.5, 0.0), (1.0, R2, 1.0 + R2),
             (R2, R3, R2 + R3), (1.0, 2.0, 3.0, 4.0), (3.0, -7.0, 0.5),
             (1.0, 2.0),
             # -0.3/0.1 rounds below 3; relations past the bound
             (0.3, 0.1), (1.0, 0.01)]
    for a in cases + seeded_frequencies(12):
        rel = rational_relation(a)
        assert rel == grid_relation(a), a
        assert rel is None or abs(np.dot(rel, a)) < 1e-9


def test_affine_field_warns_on_false_density_claim():
    with pytest.warns(UserWarning):
        xi_plus_affine(1, (1.0, 2.0), dense=True)


def test_fundamental_fields_tangent_and_commuting():
    U = fundamental_fields_s5()
    ys = random_sphere_points(20)
    for u in U:
        vals = u.func(ys)
        assert np.allclose(np.sum(vals * ys, axis=1), 0.0, atol=1e-14)
    for y in ys[:5]:
        for i in range(3):
            for j in range(3):
                assert np.linalg.norm(
                    lie_bracket(U[i].func, U[j].func, y)
                ) < 1e-9


def test_connection_fields_tangent_and_projection():
    # dpi(V_r) = 2 x_r (1 - x1 - x2) e_r
    v1, v2 = connection_fields_s5()
    s = Chart("sphere5")
    ys = random_sphere_points(30)
    for v, r in ((v1, 0), (v2, 1)):
        vals = v.func(ys)
        assert np.allclose(np.sum(vals * ys, axis=1), 0.0, atol=1e-14)
        x = base_projection_pi(ys)
        proj = s.base_tangent(ys, vals)
        expect = np.zeros_like(proj)
        expect[:, r] = 2.0 * x[:, r] * (1.0 - x[:, 0] - x[:, 1])
        assert np.allclose(proj, expect, atol=1e-12)


def test_tau_s5_zero_inventory():
    zeros = [(0.125, 0.125), (0.125, 0.25), (0.25, 0.125)]
    for z in zeros:
        assert tau_s5(np.array(z)) == 0.0
    for edge in [(0.0, 0.3), (0.3, 0.0), (0.5, 0.5)]:
        assert tau_s5(np.array(edge)) == 0.0
    assert tau_s5(np.array([0.3, 0.3])) > 0.0
    # frozen spot value: rho = (0.3*0.3*0.4)^10, d1 = 2*(0.175)^2, etc.
    x = np.array([0.3, 0.3])
    d1 = 2 * 0.175**2
    d2 = 0.175**2 + 0.05**2
    d3 = 0.05**2 + 0.175**2
    expect = (0.3 * 0.3 * 0.4) ** 10 * d1 * d2**2 * d3**3
    assert np.isclose(tau_s5(x), expect, rtol=1e-13)


def test_lifted_field_tangent_and_vanishes_on_singular_set():
    yp = lifted_field_s5()
    ys = random_sphere_points(20)
    assert np.allclose(np.sum(yp.func(ys) * ys, axis=1), 0.0, atol=1e-14)
    # a point with the third pair at zero norm lies in the singular set
    y = embed_s5(np.array([0.5, 0.5]), (0.2, 0.4, 0.0))
    assert np.allclose(lifted_field_s5().func(y) @ np.eye(6),
                       yp.func(y))
    x5 = describing_field_s5()
    assert np.allclose(x5.func(y), 0.0)


def test_describing_field_vanishes_exactly_on_declared_fibers():
    x5 = describing_field_s5()
    for fib in x5.singular_fibers:
        y = embed_s5(fib.point(), (0.7, 1.3, 2.9))
        assert np.linalg.norm(x5.func(y)) < 1e-12
    # pairs with exactly representable radii: tau is exactly 0 over the
    # fibers (1/8,1/8), (1/8,1/4), (1/4,1/8) and on the singular set
    s = np.sqrt(0.75)
    exact = np.array([
        [0.25, 0.25, -0.25, 0.25, s, 0.0],
        [0.25, -0.25, 0.0, 0.5, 0.0, 0.8],
        [0.0, -0.5, 0.25, 0.25, -0.3, 0.7],
        [0.0, 0.0, 0.6, 0.0, 0.0, 0.8],
        [0.6, 0.0, 0.0, 0.0, 0.0, -0.8],
        [0.5, 0.5, 0.5, -0.5, 0.0, 0.0],
    ])
    assert np.all(x5.func(exact) == 0.0)


def generator_reference_s5(freqs, y):
    """X'(y) composed from the public generator fields (the reference)."""
    u = fundamental_fields_s5()
    drift = lifted_field_s5().func(y) + sum(
        f * uj.func(y) for f, uj in zip(freqs, u))
    return tau_s5(base_projection_pi(y))[:, None] * drift


def test_describing_field_closed_form_matches_generator_fields():
    x5 = describing_field_s5()
    ys = random_sphere_points(1000)
    # the singular set: one coordinate pair at 0
    sing = ys[:30].copy().reshape(30, 3, 2)
    sing[np.arange(30), np.arange(30) % 3] = 0.0
    ys = np.concatenate([ys, sphere_normalize(sing.reshape(30, 6))])
    got, ref = x5.func(ys), generator_reference_s5((1.0, E, E * E), ys)
    assert got.shape == ref.shape == (1030, 6)
    scale = np.abs(ref).max(axis=1)
    assert np.all(np.abs(got - ref).max(axis=1) <= 1e-13 * scale)
    assert np.all(scale[:1000] > 0.0)
    # a single point gives a single vector
    assert np.array_equal(x5.func(ys[7]), got[7])


def equivariance_gaps(func, lam, ys):
    """|X(lam.y) - lam.X(y)| / |X(y)| per row: exact, no derivative."""
    want = torus_act_s5(lam, func(ys))
    gap = np.linalg.norm(func(torus_act_s5(lam, ys)) - want, axis=1)
    return gap / np.linalg.norm(func(ys), axis=1)


def test_describing_field_is_exactly_equivariant_and_the_check_can_fail():
    x5 = describing_field_s5()
    ys = random_sphere_points(1000)
    lam = np.random.default_rng(5).uniform(0.0, TWO_PI, (1000, 3))
    # relative, since tau peaks near 1.4e-21.  Rounding in lam.y moves
    # 1 - x1 - x2 by a few ulps, which tau's factor (1 - x1 - x2)^10 turns
    # into a relative change of about 10 ulps / x3 near the edge x3 -> 0
    x3 = ys[:, 4] ** 2 + ys[:, 5] ** 2
    bound = 1e-13 + 400 * np.finfo(float).eps / x3
    assert np.all(equivariance_gaps(x5.func, lam, ys) <= bound)

    def sabotaged(y):
        out = x5.func(y)
        out[..., 0] += 1e-8 * np.linalg.norm(out, axis=-1)
        return out

    assert np.any(equivariance_gaps(sabotaged, lam, ys) > bound)


def normal_shares(func, ys):
    """|<X(y), y>| / |X(y)| per row: the share of X normal to the sphere."""
    out = func(ys)
    return np.abs(np.sum(out * ys, axis=1)) / np.linalg.norm(out, axis=1)


def test_describing_field_is_tangent_to_the_sphere_and_the_check_can_fail():
    # read off the field itself: integrate puts every sphere point it
    # returns back on the sphere, so a flow's drift cannot see a normal part.
    # Relative, since |X| runs from about 1e-59 to 1e-20 on these points
    x5 = describing_field_s5()
    ys = random_sphere_points(2000)
    assert np.max(normal_shares(x5.func, ys)) <= 1e-12

    def sabotaged(y):
        out = x5.func(y)
        return out + 1e-9 * np.linalg.norm(out, axis=-1, keepdims=True) * y

    assert np.max(normal_shares(sabotaged, ys)) > 1e-12


def test_describing_field_complex_step_matches_central_difference():
    # X'(y + i h v).imag / h is DX'(y) v to rounding; the real part is X'(y)
    x5 = describing_field_s5()
    ys = random_sphere_points(100)
    v = np.random.default_rng(4).normal(size=ys.shape)
    h = 1e-30
    out = x5.func(ys + 1j * h * v)
    assert np.iscomplexobj(out)
    assert np.array_equal(out.real, x5.func(ys))
    jac, _ = batched_jacobian(x5.func, ys, 1e-6)
    fd = np.einsum("ico,ic->io", jac, v)
    # the reference's O(h^2) truncation grows near the triangle's edges
    err = np.linalg.norm(out.imag / h - fd, axis=1)
    assert np.all(err <= 1e-5 * np.linalg.norm(fd, axis=1))


def test_line_model_zero_structure():
    m = line_model_fields("line", n=1, a=(1.0,))
    for s in (0.0, 2.0, 4.0):
        assert np.isclose(fields_module._line_parts(np.array([s]))[1][0], 0.0)
    # tau oracle at x = 2: (2-1)^2 (2-3)^4 / (1+4)^3 = 1/125
    assert np.isclose(fields_module._line_parts(np.array([2.0]))[0][0],
                      1.0 / 125.0, rtol=1e-14)
    for sink in (1.0, 3.0):
        assert np.allclose(m.Xprime(np.array([sink, 0.3])), 0.0)
    # away from sinks the drift component is tau * a
    val = m.Xprime(np.array([2.0, 0.3]))
    assert np.isclose(val[1], 1.0 / 125.0, rtol=1e-14)


def test_circle_model_zero_structure():
    m = line_model_fields("circle", n=2, a=(1.0, np.sqrt(2.0)))
    for s in (0.0, 2 * np.pi / 3, 4 * np.pi / 3):
        assert abs(fields_module._circle_parts(np.array([s]))[1][0]) < 1e-12
    for sink, _ in ((np.pi / 3, 2), (np.pi, 4), (5 * np.pi / 3, 6)):
        assert np.linalg.norm(m.Xprime(np.array([sink, 0.1, 0.2]))) < 1e-12


def _recipe_reference(name):
    """The recipe fields in their term-by-term closed forms: the field, its
    base rule tau Y, and the base points where tau or Y vanishes."""
    if name == "line":
        special = [[0.0], [1.0], [2.0], [3.0], [4.0]]

        def tau_y(x):
            q = x * (x - 1.0) * (x - 2.0) * (x - 3.0) * (x - 4.0)
            tau = (x - 1.0) ** 2 * (x - 3.0) ** 4 / (1.0 + x * x) ** 3
            return tau, q / (q * q + 1.0)
    elif name == "circle":
        special = [[k * np.pi / 3.0] for k in range(6)]

        def tau_y(x):
            d = lambda a0: 2.0 - 2.0 * np.cos(x - a0)
            tau = d(np.pi / 3.0) * d(np.pi) ** 2 * d(5.0 * np.pi / 3.0) ** 3
            return tau, np.sin(3.0 * x)
    else:
        angles = 0.3 + np.arange(3) * (TWO_PI / 3)
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        special = np.concatenate([pts, [[0.0, 0.0]]])

        def tau_y(x):
            d2 = ((x[..., None, :] - pts) ** 2).sum(axis=-1)
            num = (d2 ** np.array([1.0, 2.0, 3.0])).prod(axis=-1, keepdims=True)
            return num / (1.0 + (x ** 2).sum(axis=-1, keepdims=True)) ** 6.0, x
    a = np.array([1.0, np.sqrt(2.0)])
    bd = 2 if name == "planar" else 1

    def func(p):
        tau, y = tau_y(p[..., :bd])
        return np.concatenate([tau * y, tau * a], axis=-1)

    def base_rule(x):
        tau, y = tau_y(x)
        return tau * y

    return func, base_rule, np.array(special)


@pytest.mark.parametrize("name", ["line", "circle", "planar"])
def test_recipe_kernels_give_the_closed_forms_bit_for_bit(name):
    from torusflow.construction import build_planar_demo

    if name == "planar":
        fld = build_planar_demo().field
    else:
        fld = line_model_fields(name, n=2, a=(1.0, np.sqrt(2.0))).Xprime
    func, base_rule, special = _recipe_reference(name)
    bd = fld.chart.base_dim
    gen = np.random.default_rng(23)
    ps = gen.normal(scale=2.5, size=(4000, fld.chart.dim))
    ps[:len(special), :bd] = special
    xs = ps[:, :bd]
    want, want_base = func(ps), base_rule(xs)
    assert np.array_equal(fld.func(ps), want)
    assert np.array_equal(fld.base_rule(xs), want_base)
    for i in range(40):
        assert np.array_equal(fld.func(ps[i]), want[i])
        assert np.array_equal(fld.func(ps[i]), func(ps[i]))
        assert np.array_equal(fld.base_rule(xs[i]), want_base[i])


def test_line_model_rejects_bad_args():
    with pytest.raises(ValueError):
        line_model_fields("torus")
    with pytest.raises(ValueError):
        line_model_fields("line", n=2, a=(1.0,))


def test_field_algebra():
    xi = FieldHandle("xi", Chart("product", k=1, n=0),
                     lambda p: np.array(p, dtype=float))
    sq = field_scale("x2*xi", lambda p: p[..., 0] ** 2, xi)
    assert np.allclose(sq(np.array([2.0])), [8.0])


def test_lie_bracket_oracle():
    # [x d/dx, d/dx] = -d/dx
    A = lambda p: p[..., :1]
    B = lambda p: np.ones_like(p[..., :1])
    val = lie_bracket(A, B, np.array([0.7]))
    assert np.allclose(val, [-1.0], atol=1e-9)


def test_numerical_jacobian_exact_for_linear():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    jac, _ = batched_jacobian(lambda p: p @ M.T, np.array([[0.3, -0.4]]))
    # jac[i, c, o] = dF_o/dp_c, the transpose of the matrix of F
    assert np.allclose(jac[0].T, M, atol=1e-10)


def test_pushforward_residual_detects_symmetry():
    X = xi_plus_affine(1, (1.0,))
    good = lambda p: np.stack([2 * p[..., 0], p[..., 1]], axis=-1)
    bad = lambda p: np.stack([p[..., 0] + 1.0, p[..., 1]], axis=-1)
    p = np.array([0.4, 0.9])
    assert pushforward_residual(good, X.func, p) < 1e-9
    assert pushforward_residual(bad, X.func, p) > 0.5


def test_pushforward_residual_to_a_target_field():
    # F(x, theta) = (x, theta + x) pushes xi + a forward to
    # xi + (a + x) d/dtheta, not to xi + a itself (residual |x| there)
    X = xi_plus_affine(1, (0.7,))

    def F(p):
        out = p.copy()
        out[..., 1] += p[..., 0]
        return out

    def B(q):
        out = q.copy()
        out[..., 1] = 0.7 + q[..., 0]
        return out

    pts = np.column_stack([rng.uniform(0.5, 1.5, 5), rng.uniform(0, 6, 5)])
    assert np.max(pushforward_residual(F, X.func, pts, target=B)) < 1e-8
    np.testing.assert_allclose(pushforward_residual(F, X.func, pts),
                               pts[:, 0], rtol=1e-8)
    assert pushforward_residual(F, X.func, pts[0], target=B) < 1e-8


def test_batched_pushforward_matches_pointwise():
    X = xi_plus_affine(1, (1.0,))

    def F(p):
        p = np.asarray(p, dtype=float)
        out = p.copy()
        out[..., 0] = p[..., 0] + np.sin(p[..., 0])
        return out

    def A(p):
        out = np.zeros_like(p)
        out[..., 0] = np.cos(p[..., 1]) * p[..., 0] ** 2
        out[..., 1] = np.sin(p[..., 0])
        return out

    pts = rng.uniform(-1, 1, size=(6, 2))
    batch = pushforward_residual(F, X.func, pts)
    single = [pushforward_residual(F, X.func, p) for p in pts]
    assert batch.shape == (6,)
    assert np.allclose(batch, single, rtol=0.0, atol=1e-15)
    brackets = lie_bracket(A, X.func, pts)
    assert brackets.shape == pts.shape
    for p, row in zip(pts, brackets):
        assert np.allclose(lie_bracket(A, X.func, p), row, rtol=0.0,
                           atol=1e-15)


def test_batched_jacobian_rejects_a_point_only_callable():
    # written for one point, F would see the whole stacked batch as p
    with pytest.raises(ValueError, match="last axis"):
        batched_jacobian(lambda p: np.array([p[0]]), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="last axis"):
        lie_bracket(lambda p: np.array([p[0]]), lambda p: p,
                    np.array([0.5]))
