import dataclasses
import time

import numpy as np
import pytest

from torusflow import fields as fields_module
from torusflow import flow as flow_module
from torusflow.construction import (
    build_line_describing,
    build_planar_demo,
    build_s5,
)
from torusflow.fields import (
    FieldHandle,
    describing_field_s5,
    fundamental_fields_s5,
    lifted_field_s5,
    line_model_fields,
    tau_s5,
    xi_plus_affine,
)
from torusflow.flow import (
    FlowError,
    IntegratorConfig,
    basin_census,
    classify_limit,
    equidistribution_discrepancy,
    estimate_order,
    flow_commutation_residual,
    integrate,
)
from torusflow.geometry import TWO_PI, Chart, embed_s5

SQRT2 = np.sqrt(2.0)


def test_integrate_exponential_oracle():
    # flow of xi is x exp(t); angles advance linearly
    X = xi_plus_affine(1, (1.0, SQRT2))
    traj = integrate(X, [0.5, 0.1, 0.2], (0.0, 2.0))
    expect = [0.5 * np.e**2, np.mod(0.1 + 2.0, TWO_PI),
              np.mod(0.2 + 2.0 * SQRT2, TWO_PI)]
    assert np.allclose(traj.end, expect, atol=1e-8)
    assert traj.stats["accepted"] > 0


def test_integrate_backward_returns_chronological_order():
    X = xi_plus_affine(1, (1.0,))
    traj = integrate(X, [1.0, 0.0], (0.0, -1.0))
    assert traj.times[0] < traj.times[-1]
    assert np.isclose(traj.points[0][0], np.exp(-1.0), atol=1e-9)


def test_dense_output_accuracy():
    X = xi_plus_affine(1, (1.0,))
    t_eval = np.linspace(0.0, 2.0, 37)
    traj = integrate(X, [1.0, 0.0], (0.0, 2.0), t_eval=t_eval)
    assert np.allclose(traj.points[:, 0], np.exp(t_eval), rtol=1e-7)


def test_dop853_tableau_meets_its_order_conditions():
    # the coefficients as written, checked through the conditions they
    # satisfy rather than against another implementation; each family of
    # conditions also fails at the next order
    A, c = flow_module._DOP853_A, flow_module._DOP853_C
    pair = flow_module._DOP853
    for row, node in zip(A, c):  # the 13 stages and the 3 dense ones
        assert row.sum() == pytest.approx(node, abs=1e-14)
    b, c = pair.b, c[:13]
    assert np.array_equal(pair.a[12], b[:12])  # the last stage is f(y_new)
    assert pair.e[12] == pair.e3[12] == 0.0
    Ac = np.array([[row @ c[:i] ** k for i, row in enumerate(pair.a)]
                   for k in range(8)])
    for k in range(8):  # order 8: quadrature and b A c^k
        assert b @ c ** k == pytest.approx(1 / (k + 1), abs=1e-14)
        if k < 7:
            assert b @ Ac[k] == pytest.approx(1 / ((k + 1) * (k + 2)),
                                              abs=1e-14)
    assert abs(b @ c ** 8 - 1 / 9) > 1e-6
    assert abs(b @ Ac[7] - 1 / 72) > 1e-6
    # the embedded weights b - e and b - e3: orders 5 and 3
    for weights, order in ((b - pair.e, 5), (b - pair.e3, 3)):
        for k in range(order):
            assert weights @ c ** k == pytest.approx(1 / (k + 1), abs=1e-14)
        assert abs(weights @ c ** order - 1 / (order + 1)) > 1e-4


def _rk_order_conditions(b, A, c):
    """b . Phi(t) - 1 / gamma(t) for the 17 rooted trees t with 1 to 5
    nodes, by node count: the first 8 are the conditions through order 4."""
    Ac, Ac2 = A @ c, A @ c ** 2
    trees = [
        (np.ones_like(c), 1),
        (c, 2),
        (c ** 2, 3), (Ac, 6),
        (c ** 3, 4), (c * Ac, 8), (Ac2, 12), (A @ Ac, 24),
        (c ** 4, 5), (c ** 2 * Ac, 10), (c * Ac2, 15), (c * (A @ Ac), 30),
        (Ac ** 2, 20), (A @ c ** 3, 20), (A @ (c * Ac), 40), (A @ Ac2, 60),
        (A @ (A @ Ac), 120),
    ]
    return np.array([b @ phi - 1 / gamma for phi, gamma in trees])


def test_cash_karp_tableau_meets_its_order_conditions():
    # the coefficients as written: the row sums are the nodes, the 5th-order
    # weights (the FSAL row) meet the 17 conditions through order 5 and the
    # embedded weights b5 - e the 8 through order 4
    pair = flow_module._CASH_KARP
    c = np.array([0.0, 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8])
    for row, node in zip(pair.a, c):
        assert row.sum() == pytest.approx(node, abs=1e-15)
    A = np.zeros((6, 6))
    for i, row in enumerate(pair.a[:6]):
        A[i, :i] = row
    b5 = pair.b[:6]
    assert np.array_equal(pair.a[6], b5)  # the last stage is f(y_new)
    assert pair.b[6] == pair.e[6] == 0.0
    b4 = b5 - pair.e[:6]
    np.testing.assert_allclose(_rk_order_conditions(b5, A, c), 0.0,
                               atol=1e-15)
    np.testing.assert_allclose(_rk_order_conditions(b4, A, c)[:8], 0.0,
                               atol=1e-15)
    # neither is of a higher order
    assert abs(b5 @ c ** 5 - 1 / 6) > 1e-4
    assert np.abs(_rk_order_conditions(b4, A, c)[8:]).max() > 1e-4


def _dop853_step(f, y0, h):
    """One DOP853 step of size h from y0: the end point and the 13 stages."""
    pair = flow_module._DOP853
    K = np.empty((13, len(y0)))
    K[0] = f(y0)
    for i in range(1, 13):
        K[i] = f(y0 + h * pair.a[i] @ K[:i])
    return y0 + h * pair.b @ K, K


@pytest.mark.parametrize("k", range(8))
def test_dense_output_is_exact_to_degree_seven(k):
    # s' = 1, u' = s^k: the 7th-order continuous extension of a step of
    # size 1 gives u of degree k + 1 <= 7 exactly at every fraction of the
    # step, and reproduces both ends; degree 8 it cannot
    def f(y):
        return np.array([1.0, y[0] ** k])

    y0 = np.array([0.5, 0.25])
    y1, K = _dop853_step(f, y0, 1.0)
    theta = np.linspace(0.0, 1.0, 11)
    got = flow_module._dense_output(f, 0.0, 1.0, y0, y1, K[0], K[12], K,
                                    theta)
    exact = y0[1] + ((0.5 + theta) ** (k + 1) - 0.5 ** (k + 1)) / (k + 1)
    np.testing.assert_array_equal(got[0], y0)
    np.testing.assert_allclose(got[-1], y1, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(got[:, 0], 0.5 + theta, rtol=1e-14)
    err = np.abs(got[:, 1] - exact).max()
    assert err <= 1e-14 if k < 7 else err > 1e-6


def test_dense_output_follows_the_exact_flow_of_xi_plus_affine():
    # x e^t on the base and theta + a t on the torus, at every t_eval of a
    # forward and a backward run
    X = xi_plus_affine(2, (1.0, SQRT2))
    p0 = np.array([0.3, -0.7, 1.0, 2.0])
    for t1 in (3.0, -3.0):
        traj = integrate(X, p0, (0.0, t1), t_eval=np.linspace(0.0, t1, 40))
        t = traj.times
        exact = np.hstack([p0[:2] * np.exp(t)[:, None],
                           p0[2:] + np.outer(t, [1.0, SQRT2])])
        err = X.chart.distance(traj.points, X.chart.wrap(exact))
        assert np.all(err <= 1e-8 * np.linalg.norm(exact, axis=1))


@pytest.mark.parametrize("scenario", ["line", "circle", "planar"])
def test_dense_output_adds_at_most_the_tolerance(scenario):
    # against a rtol 1e-13 run of the same integrator, the error at t_eval
    # is at most the end point's error plus rtol times the largest |y|: the
    # interpolant adds no more than the tolerance asked for
    fld = {"line": lambda: line_model_fields("line", n=1, a=(1.0,)).Xprime,
           "circle": lambda: line_model_fields("circle", n=2,
                                               a=(1.0, SQRT2)).Xprime,
           "planar": lambda: build_planar_demo().field}[scenario]()
    p0 = fld.chart.wrap(np.full(fld.chart.dim, 0.5))
    t_eval = np.linspace(0.0, 5.0, 50)
    cfg = IntegratorConfig()
    got = integrate(fld, p0, (0.0, 5.0), cfg, t_eval=t_eval)
    ref = integrate(fld, p0, (0.0, 5.0), IntegratorConfig(1e-13, 1e-16),
                    t_eval=t_eval)
    err = fld.chart.distance(got.points, ref.points)
    end = fld.chart.distance(integrate(fld, p0, (0.0, 5.0)).end,
                             ref.points[-1])
    size = np.linalg.norm(ref.points, axis=1).max()
    assert err.max() <= end + cfg.rtol * size


def test_dense_stages_only_on_steps_that_hold_a_requested_time():
    # three extra field calls for each step that holds a time of t_eval;
    # the steps themselves do not change
    m = line_model_fields("circle", n=2, a=(1.0, SQRT2))
    steps = integrate(m.Xprime, [0.5, 0.1, 0.2], (0.0, 5.0))
    n = steps.stats["accepted"]
    for t_eval, held in (([5.0], 1), ([0.0, 5.0], 2), (steps.times, n)):
        dense = integrate(m.Xprime, [0.5, 0.1, 0.2], (0.0, 5.0),
                          t_eval=t_eval).stats
        assert dense["accepted"] == n
        assert dense["rhs_calls"] == steps.stats["rhs_calls"] + 3 * held


def test_time_reversal_roundtrip():
    X = xi_plus_affine(2, (1.0, SQRT2))
    p0 = np.array([0.3, -0.7, 1.0, 2.0])
    fwd = integrate(X, p0, (0.0, 3.0)).end
    # backward runs are stored chronologically: t = 0 is the first sample
    back = integrate(X, fwd, (3.0, 0.0)).points[0]
    assert X.chart.distance(back, X.chart.wrap(p0)) < 1e-7


def test_sphere_renormalization_keeps_unit_norm():
    X5 = describing_field_s5()
    y0 = embed_s5(np.array([0.3, 0.3]), (0.1, 0.2, 0.3))
    traj = integrate(X5, y0, (0.0, 100.0),
                     t_eval=np.linspace(0.0, 100.0, 64))
    drift = np.max(np.abs(np.linalg.norm(traj.points, axis=1) - 1.0))
    assert drift < 1e-8


def test_one_point_step_sequence_is_pinned():
    # the accepted-step sequence of one point; a change of the controller
    # arithmetic moves the end point by far more than the tolerance
    m = line_model_fields("circle", n=2, a=(1.0, SQRT2))
    traj = integrate(m.Xprime, [0.5, 0.1, 0.2], (0.0, 50.0))
    assert traj.stats["accepted"] == 52
    assert traj.stats["rejected"] == 2
    # 12 per attempt (FSAL) and the first call
    assert traj.stats["rhs_calls"] == 1 + 12 * 54
    np.testing.assert_allclose(
        traj.end, [1.043485056207004, 1.8538104067593424, 2.680262463070137],
        rtol=1e-12, atol=0.0)
    assert traj.stats["max_local_error"] == pytest.approx(
        0.6724386580787772, rel=1e-12)


def _van_der_pol(y):
    # mu = 5: stiff enough that the step controller rejects some row steps
    return np.stack([y[..., 1],
                     5.0 * (1.0 - y[..., 0] ** 2) * y[..., 1] - y[..., 0]],
                    axis=-1)


_VDP_STARTS = np.array([[-1.78, -0.47], [-0.37, -1.82], [1.22, 1.23],
                        [0.06, -0.86], [-1.80, 2.00], [0.61, -1.06]])
# rows: (accepted, rejected, rhs_calls, max_local_error, end points); the
# field calls are one per attempt of the live rows together, so fewer than
# 12 per row step
_VDP_PINS = {
    2: (114, 32, 1009, 0.9746842256443218,
        [[0.5821822229014453, 6.9295288907300305],
         [1.9932199824410726, 0.6661964414725717]]),
    6: (388, 96, 1117, 0.9775597071186605,
        [[0.5821822229014453, 6.9295288907300305],
         [1.9932199824410726, 0.6661964414725717],
         [-1.8634017508332779, 0.14906945528099613],
         [-0.8268600762955143, 0.9767246153636773],
         [1.9073916681141583, -0.14321765213802948],
         [-1.4498386457716441, 0.24586144353888106]]),
}


@pytest.mark.parametrize("rows", [2, 6])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["forward", "backward"])
def test_batch_step_sequence_is_pinned(rows, sign):
    # the batch path's accepted and rejected steps, mixed attempts included;
    # a backward run of -X mirrors the forward run of X step for step, so
    # both directions share one pin
    accepted, rejected, rhs_calls, max_err, end = _VDP_PINS[rows]
    traj = integrate(lambda y: sign * _van_der_pol(y), _VDP_STARTS[:rows],
                     (0.0, sign * 4.0))
    assert traj.stats["accepted"] == accepted
    assert traj.stats["rejected"] == rejected
    assert traj.stats["rhs_calls"] == rhs_calls
    at_t = traj.end if sign > 0 else traj.start
    np.testing.assert_allclose(at_t, end, rtol=1e-12, atol=0.0)
    assert traj.stats["max_local_error"] == pytest.approx(max_err, rel=1e-12)


def test_step_budget_raises():
    X = xi_plus_affine(1, (1.0,))
    cfg = IntegratorConfig(max_steps=3)
    with pytest.raises(FlowError):
        integrate(X, [1.0, 0.0], (0.0, 50.0), cfg)


def test_flow_commutation_residual_product_chart():
    X = xi_plus_affine(1, (1.0, SQRT2))
    r = flow_commutation_residual(X, np.array([1.0, 2.5]),
                                  np.array([0.5, 0.1, 0.2]), 5.0)
    assert r < 1e-8


# ---------------------------------------------------------------------------
# batches of start points


def _undamped_s5():
    # Y' + U1 + U2 + U3: unlike the describing field (whose damping is below
    # 1e-20 on most of the sphere) it moves every point
    parts = [lifted_field_s5(), *fundamental_fields_s5()]
    return FieldHandle("undamped_s5", Chart("sphere5"),
                       lambda y: sum(f.func(y) for f in parts))


def _batch_cases():
    rng = np.random.default_rng(7)
    for k in (1, 2, 3):
        pts = np.hstack([rng.uniform(-1.0, 1.0, (4, k)),
                         rng.uniform(0.0, TWO_PI, (4, 2))])
        yield f"xi_T_k{k}", xi_plus_affine(k, (1.0, SQRT2)), pts
    angles = rng.uniform(0.0, TWO_PI, (4, 2))
    line = np.array([[-0.5], [0.7], [2.4], [3.6]])
    yield ("line", line_model_fields("line", n=2, a=(1.0, SQRT2)).Xprime,
           np.hstack([line, angles]))
    circle = np.array([[0.4], [1.7], [3.5], [5.9]])
    yield ("circle", line_model_fields("circle", n=2, a=(1.0, SQRT2)).Xprime,
           np.hstack([circle, angles]))
    disc = np.array([[0.5, 0.2], [-0.7, 0.4], [0.1, -1.2], [1.3, 0.9]])
    yield "planar", build_planar_demo().field, np.hstack([disc, angles])
    sphere = embed_s5(np.array([[0.3, 0.3], [0.1, 0.6], [0.5, 0.2],
                                [0.2, 0.15]]),
                      rng.uniform(0.0, TWO_PI, (4, 3)))
    yield "s5", describing_field_s5(), sphere
    yield "s5_undamped", _undamped_s5(), sphere


@pytest.mark.parametrize("t_span", [(0.0, 2.0), (0.0, -2.0)],
                         ids=["forward", "backward"])
@pytest.mark.parametrize("name, fld, pts",
                         [pytest.param(*c, id=c[0]) for c in _batch_cases()])
def test_batch_rows_match_one_point_runs(name, fld, pts, t_span):
    batch = integrate(fld, pts, t_span)
    singles = [integrate(fld, p, t_span) for p in pts]
    assert batch.points.shape == (2,) + pts.shape
    np.testing.assert_array_equal(batch.times, sorted(t_span))
    # every row takes the steps of its one-point run bit for bit: these
    # fields evaluate one point as they do a batch row, and the loop forms
    # each row's stage sums and step sizes the same way for both
    for i, one in enumerate(singles):
        np.testing.assert_array_equal(batch.start[i], one.start)
        np.testing.assert_array_equal(batch.end[i], one.end)
    assert batch.stats["accepted"] == sum(s.stats["accepted"] for s in singles)
    assert batch.stats["rejected"] == sum(s.stats["rejected"] for s in singles)
    assert type(batch.stats["accepted"]) is int
    assert type(batch.stats["rejected"]) is int
    assert batch.stats["max_local_error"] == max(
        s.stats["max_local_error"] for s in singles)
    # the rows make their attempts together, until the last row is done
    assert batch.stats["attempts"] == max(s.stats["attempts"] for s in singles)
    if fld.chart.is_sphere:
        assert np.max(np.abs(np.linalg.norm(batch.points, axis=-1) - 1.0)) \
            < 1e-8
        if name == "s5_undamped":  # the certificate can see a moved point
            assert np.min(fld.chart.distance(batch.start, batch.end)) > 0.1
    else:  # on a sphere the re-evaluation after renormalizing takes every
        # live row, also one whose step the attempt rejected
        assert batch.stats["rhs_rows"] == sum(
            s.stats["rhs_rows"] for s in singles)


def test_batch_refuses_dense_output():
    X = xi_plus_affine(1, (1.0,))
    with pytest.raises(ValueError, match="t_eval"):
        integrate(X, [[1.0, 0.0], [0.5, 1.0]], (0.0, 1.0), t_eval=[0.5])


def test_batch_step_budget_raises():
    X = xi_plus_affine(1, (1.0,))
    with pytest.raises(FlowError) as exc:
        integrate(X, [[1.0, 0.0], [0.5, 1.0]], (0.0, 50.0),
                  IntegratorConfig(max_steps=3))
    assert exc.value.reason == "step_budget"


@pytest.mark.parametrize("p0", [[1.0], [[1.0], [0.1]]],
                         ids=["point", "batch"])
def test_blow_up_raises_underflow(p0):
    # y' = y^2 from 1 reaches infinity at t = 1, so the steps shrink until
    # they underflow there; a batch fails with its first such row
    with pytest.raises(FlowError) as exc:
        integrate(lambda y: y * y, p0, (0.0, 2.0))
    assert exc.value.reason == "underflow"


@pytest.mark.parametrize("p0", [[np.nan, 0.0], [[0.5, 0.0], [np.nan, 0.0]]],
                         ids=["point", "batch"])
def test_non_finite_start_raises_non_finite(p0):
    # a NaN start gets a NaN step, which ends the run at once instead of
    # spending the step budget on rejected attempts
    X = xi_plus_affine(1, (1.0,))
    with pytest.raises(FlowError) as exc:
        integrate(X, p0, (0.0, 1.0), IntegratorConfig(max_steps=50))
    assert exc.value.reason == "non_finite"


@pytest.mark.parametrize("p0", [(0.5, 0.5, 0.0, 0.0), [(0.5, 0.5, 0.0, 0.0)]],
                         ids=["point", "batch"])
def test_overflow_raises_non_finite(p0):
    # the state overflows to inf and the error norm to NaN, which must make
    # the next step NaN on one point as on a batch, not shrink it to an
    # underflow
    X = build_planar_demo().field
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FlowError) as exc:
            integrate(lambda y: 1e3 * X.func(y), p0, (0.0, 1.0))
    assert exc.value.reason == "non_finite"


def test_census_with_a_non_finite_sample_stops_non_finite():
    # a NaN sample ends the census before any check or step, wherever it
    # sits in the batch, also when no sample is finite
    for xs in ([[0.5], [np.nan]], [[np.nan], [0.5]], [[np.nan], [np.nan]]):
        xs = np.array(xs)
        rep = basin_census(build_line_describing("line").field, 2,
                           sampler=lambda rng, n: xs.copy(), max_steps=50)
        assert rep.stop_reason == "non_finite"
        assert rep.counts == {} and rep.unclassified_fraction == 1.0
        assert rep.source_fraction == 0.0
        assert set(rep.stats.values()) == {0}


def test_census_needs_a_sample():
    with pytest.raises(ValueError, match="n_samples >= 1, got 0"):
        basin_census(build_line_describing("line").field, 0)


@pytest.mark.parametrize("p0", [[1.0, 0.5], [[1.0, 0.5], [-0.5, 1.0]]],
                         ids=["point", "batch"])
def test_zero_length_span_returns_the_start(p0):
    X = xi_plus_affine(1, (1.0,))
    traj = integrate(X, p0, (2.0, 2.0))
    assert np.all(traj.times == 2.0)
    np.testing.assert_array_equal(traj.start, p0)
    np.testing.assert_array_equal(traj.end, p0)
    assert traj.stats["accepted"] == traj.stats["rejected"] == 0


def test_adaptive_steps_take_the_steps_their_consumer_sends():
    # the loop holds no consumer's step policy: each row's accepted step is
    # the h sent for it (dyadic steps and times, so exact), whatever the
    # controller proposed, and a dropped row's id never comes back
    v = np.array([1.0, -2.0])
    record = {}
    steps = flow_module._adaptive_steps(
        lambda y: np.broadcast_to(v, y.shape).copy(), 0.0, np.zeros((4, 2)),
        10.0, IntegratorConfig(), flow_module._CASH_KARP, record)
    h = next(steps)[-1]
    assert h.shape == (4, 1) and np.all(h > 0)  # _initial_step's guess
    sent = np.array([[0.5], [0.25], [1.0], [0.125]])
    reply, times = (None, sent), np.zeros(4)
    for i in range(5):
        t, y, _, err, ids, _, h = steps.send(reply)
        assert record["rejected"] == 0 and np.all(err <= 1.0)
        assert list(ids) == ([0, 1, 2, 3] if i < 2 else [0, 2, 3])
        np.testing.assert_array_equal(t[:, 0] - times[ids], sent[ids, 0])
        np.testing.assert_allclose(y, t * v, rtol=1e-15)
        assert np.all(h != sent[ids])  # the controller's own proposal
        times[ids] = t[:, 0]
        reply = (ids == 1 if i == 1 else None), sent[ids]


def test_commutation_residual_fails_backward_for_a_twisted_field():
    # the torus translation does not commute with the flow of a field whose
    # base component depends on the angle; at t < 0 the residual must see it
    def func(p):
        p = np.asarray(p, dtype=float)
        return np.stack([np.sin(p[..., 1]), np.ones_like(p[..., 1])], axis=-1)

    fld = FieldHandle("twisted", Chart("product", k=1, n=1), func)
    for t in (1.0, -1.0):
        assert flow_commutation_residual(fld, [1.0], [0.5, 0.3], t) > 1e-2


@pytest.mark.parametrize("fld, p0", [
    (xi_plus_affine(2, (1.0, SQRT2)), np.array([0.3, -0.5, 0.1, 0.2])),
    (_undamped_s5(), embed_s5(np.array([0.3, 0.2]), (0.1, 0.2, 0.3))),
], ids=["product", "s5"])
def test_many_lambda_commutation_matches_single_calls(fld, p0):
    rng = np.random.default_rng(3)
    lams = rng.uniform(0.0, TWO_PI, (5, fld.chart.n))
    many = flow_commutation_residual(fld, lams, p0, 1.0)
    loop = [flow_commutation_residual(fld, lam, p0, 1.0) for lam in lams]
    assert many.shape == (5,)
    assert all(type(r) is float for r in loop)
    np.testing.assert_allclose(many, loop, rtol=1e-12, atol=1e-12)
    # one start point per lambda
    pts = fld.chart.act(lams[::-1], p0)
    per_point = flow_commutation_residual(fld, lams, pts, 1.0)
    loop = [flow_commutation_residual(fld, lam, p, 1.0)
            for lam, p in zip(lams, pts)]
    np.testing.assert_allclose(per_point, loop, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# classification


def test_classify_forward_reaches_sink():
    m = line_model_fields("line", n=1, a=(1.0,))
    rep = classify_limit(m.Xprime, np.array([0.4, 0.0]), "forward")
    assert rep.kind == "singular_fiber"
    assert rep.target == "sink_1"
    assert rep.final_distance < 1e-5
    assert rep.stop_reason == "converged"


def test_classify_backward_reaches_source():
    m = line_model_fields("line", n=1, a=(1.0,))
    rep = classify_limit(m.Xprime, np.array([0.4, 0.0]), "backward")
    assert rep.kind == "singular_fiber" and rep.target == "source_0"


@pytest.mark.parametrize("direction", ["Forward", "back", "", None, 1])
def test_classify_rejects_an_unknown_direction(direction):
    # any value but "forward" used to run backward: "Forward" from 0.5
    # gave source_0, where "forward" gives sink_1
    m = line_model_fields("line", n=1, a=(1.0,))
    with pytest.raises(ValueError, match=repr(direction)):
        classify_limit(m.Xprime, np.array([0.5, 0.0]), direction)


def test_classify_fixed_point_on_dead_fiber():
    m = line_model_fields("line", n=1, a=(1.0,))
    rep = classify_limit(m.Xprime, np.array([1.0, 0.0]), "forward")
    assert rep.kind == "fixed_point"


def test_classify_torus_closure():
    X = xi_plus_affine(1, (1.0, SQRT2))
    rep = classify_limit(X, np.array([0.0, 0.1, 0.2]), "forward",
                         horizon=30.0)
    assert rep.kind == "torus_closure"
    assert (rep.stop_reason, rep.horizon) == ("converged", 0.0)
    assert rep.frequencies == (1.0, SQRT2) and rep.relation is None


def test_classify_reports_a_spent_step_budget():
    # a line start lands on its target in one attempt; this curved S^5
    # approach to the source takes about 20
    p0 = embed_s5(np.array([0.2, 0.3]), (0.1, 0.2, 0.3))
    rep = classify_limit(build_s5().field, p0, "backward",
                         cfg=IntegratorConfig(max_steps=5))
    assert rep.stop_reason == "step_budget"
    assert rep.kind == "inconclusive"
    assert rep.stats["attempts"] == 5


def test_classify_escape():
    X = xi_plus_affine(1, (1.0,))
    rep = classify_limit(X, np.array([1.0, 0.0]), "forward", horizon=50.0)
    assert rep.kind == "escape"


def test_classify_s5_forward_stays_on_the_triangle():
    # the base point runs into the triangle's edge, where the field vanishes
    # but no target lies; a step over the edge must not break the lift
    X = describing_field_s5()
    p0 = embed_s5(np.array([0.3, 0.3]), (0.1, 0.2, 0.3))
    rep = classify_limit(X, p0, "forward", horizon=5.0)
    assert rep.kind == "inconclusive" and rep.stop_reason == "singular_set"
    assert rep.final_distance == pytest.approx(np.sqrt(2.0) / 4.0, rel=1e-6)


@pytest.mark.parametrize("x", [(0.3, 0.3), (0.2, 0.1), (0.1, 0.1)])
def test_classify_s5_forward_stops_at_the_singular_set(x):
    # the run ends where the base tangent vanishes off every target, instead
    # of spending the whole horizon on the triangle's edge
    X = describing_field_s5()
    p0 = embed_s5(np.array(x), (0.1, 0.2, 0.3))
    rep = classify_limit(X, p0, "forward", horizon=200.0)
    assert (rep.kind, rep.stop_reason) == ("inconclusive", "singular_set")
    assert rep.final_distance >= 1e-5
    assert rep.horizon < 1.0
    assert 0 < rep.stats["rhs_rows"] < 2_000


def test_classify_of_a_non_finite_start_is_non_finite():
    # no base tangent to check or integrate: the run ends before it starts
    m = line_model_fields("line", n=1, a=(1.0,))
    rep = classify_limit(m.Xprime, np.array([np.nan, 0.0]), "forward")
    assert (rep.kind, rep.target, rep.stop_reason, rep.horizon) == (
        "inconclusive", None, "non_finite", 0.0)
    assert np.isnan(rep.final_distance)
    assert set(rep.stats.values()) == {0}


def test_classify_counts_its_field_rows():
    m = line_model_fields("line", n=1, a=(1.0,))
    assert classify_limit(m.Xprime, np.array([1.0, 0.0]),
                          "forward").stats["rhs_rows"] == 0  # a fixed point
    closure = classify_limit(xi_plus_affine(1, (1.0, SQRT2)),
                             np.array([0.0, 0.1, 0.2]), "forward",
                             horizon=30.0)
    # the flow on a source torus is known exactly: nothing is integrated
    assert closure.kind == "torus_closure" and closure.stats["rhs_rows"] == 0


def test_classify_evaluates_the_field_at_its_start_once():
    # X(p0) serves the fixed-point test, the invariance check and the
    # frequencies on a source torus
    fld = _library_fields()["line"]
    p0 = np.array([0.4, 0.0])
    at_start = []

    def func(p):
        at_start.append(np.shape(p) == p0.shape and np.array_equal(p, p0))
        return fld.func(p)

    rep = classify_limit(dataclasses.replace(fld, func=func), p0, "forward")
    assert (rep.kind, rep.target) == ("singular_fiber", "sink_1")
    assert sum(at_start) == 1


def test_base_dynamics_need_an_invariant_field():
    # the base component sin(theta) changes along the torus orbits
    def func(p):
        p = np.asarray(p, dtype=float)
        return np.stack([np.sin(p[..., 1]), np.ones_like(p[..., 1])], axis=-1)

    fld = FieldHandle("twisted", Chart("product", k=1, n=1), func,
                      sources=((0.0,),))
    with pytest.raises(ValueError, match="not invariant"):
        classify_limit(fld, np.array([0.5, 0.3]), "forward")
    with pytest.raises(ValueError, match="not invariant"):
        basin_census(fld, 4)


# ---------------------------------------------------------------------------
# census


def test_census_line_all_samples_reach_sources():
    m = line_model_fields("line", n=1, a=(1.0,))
    rep = basin_census(m.Xprime, 300, seed=2)
    assert rep.source_fraction >= 0.99
    assert set(rep.counts) <= {"source_0", "source_1", "source_2"}


def test_census_circle_all_samples_reach_sources():
    m = line_model_fields("circle", n=2, a=(1.0, SQRT2))
    rep = basin_census(m.Xprime, 300, seed=2)
    assert rep.source_fraction >= 0.99


def test_census_reproducible():
    m = line_model_fields("line", n=1, a=(1.0,))
    a = basin_census(m.Xprime, 100, seed=5)
    b = basin_census(m.Xprime, 100, seed=5)
    assert a.counts == b.counts


def test_census_reports_why_it_stopped():
    # a 1-D census ends in one attempt; an S^5 census takes about 20
    X = build_s5().field
    short = basin_census(X, 4, max_steps=2)
    assert short.stop_reason == "step_budget"
    assert short.unclassified_fraction > 0
    assert short.stats["attempts"] == 2
    assert basin_census(X, 4).stop_reason == "all_assigned"


def test_a_run_cut_by_its_step_budget_counts_its_rejections():
    # the RK loop's record holds the attempts made after the last accepted
    # step: here every sample's one attempt is rejected
    rep = basin_census(build_s5().field, 4, max_steps=1)
    assert (rep.stop_reason, rep.stats["attempts"], rep.stats["rejected"],
            rep.stats["rhs_rows"]) == ("step_budget", 1, 4, 4 * 7)


def test_census_work_per_sample_is_bounded():
    # unit speed, and the first step lands within fiber_tol of the source
    # ahead: the start and one step's six stages, 7 rows per sample (28
    # when the cap was d / 1.05 of the distance to the nearest target
    # either way, 74 with d / 1.65)
    m = line_model_fields("line", n=1, a=(1.0,))
    rep = basin_census(m.Xprime, 200, seed=1)
    assert rep.stop_reason == "all_assigned"
    assert rep.stats["rhs_rows"] / rep.n_samples <= 7


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("build", [build_planar_demo, build_s5],
                         ids=["planar", "s5"])
def test_census_counts_on_planar_and_s5_are_pinned(build, seed):
    # every sample of the planar demo's disc and of the S^5 triangle
    # flows back to the one source
    rep = basin_census(build().field, 200, seed=seed)
    assert rep.counts == {"source_0": 200}
    assert rep.stop_reason == "all_assigned"


def _census_of_the_reversed_s5(base_rule):
    # the reversed S^5 field carries every backward sample to the edge of
    # the triangle, where the base tangent vanishes away from every target
    X = describing_field_s5()
    reversed_field = dataclasses.replace(X, func=lambda y: -X.func(y),
                                         base_rule=base_rule)
    start = time.perf_counter()
    rep = basin_census(reversed_field, 50, seed=1)
    elapsed = time.perf_counter() - start
    assert rep.counts == {"singular_set": 50}
    assert rep.stop_reason == "all_assigned"
    assert rep.unclassified_fraction == 0.0
    assert rep.stats["rhs_rows"] <= 400 * rep.n_samples
    assert elapsed < 0.5


def test_census_stops_samples_at_the_singular_set():
    rule = describing_field_s5().base_rule
    _census_of_the_reversed_s5(lambda x: -rule(x))


def test_census_stops_samples_at_the_singular_set_without_a_rule():
    # no rule declared: the runner evaluates the reversed field itself
    _census_of_the_reversed_s5(None)


def test_a_stale_base_rule_is_rejected():
    # a new func under the old rule: the runner checks the rule against the
    # field's base tangent at its first point before it trusts it
    X = describing_field_s5()
    negated = dataclasses.replace(X, func=lambda y: -X.func(y))
    with pytest.raises(ValueError, match="base rule"):
        basin_census(negated, 8, seed=0)
    with pytest.raises(ValueError, match="base rule"):
        classify_limit(negated, embed_s5(np.array([0.2, 0.3])), "backward")


def _library_fields():
    return {
        "line": line_model_fields("line", n=1, a=(1.0,)).Xprime,
        "circle": line_model_fields("circle", n=2, a=(1.0, SQRT2)).Xprime,
        "planar": build_planar_demo().field,
        "s5": build_s5().field,
    }


def _base_points(name, rng, n):
    if name.startswith("line"):
        return rng.uniform(-1.0, 5.0, size=(n, 1))
    if name == "circle":
        return rng.uniform(0.0, TWO_PI, size=(n, 1))
    if name == "planar":
        return rng.uniform(-2.5, 2.5, size=(n, 2))
    x = rng.uniform(0.0, 1.0, size=(n, 2))
    x[x.sum(axis=1) > 1.0] = 1.0 - x[x.sum(axis=1) > 1.0]
    corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0),
               (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)]
    # just outside the triangle, as a step can end; the runner clips these
    outside = flow_module._onto_triangle(np.array(
        [[0.5 + 1e-16, 0.5], [0.3, 0.7 + 3e-16], [-1e-17, 0.4],
         [0.25, -2e-16], [1.0 + 1e-15, 0.0], [0.6, 0.4 + 1e-12],
         [0.1 + 1e-9, 0.9]]))
    return np.concatenate([x, corners, outside])


def _line_with_a_zero_at_half():
    """The line field rebuilt through the recipe with tau (x - 0.5)^6: an
    undeclared zero of order 6, of the kind a planted zero adds."""
    fld = _library_fields()["line"]

    def parts(x):
        tau, y = fields_module._line_parts(x)
        return tau * (x - 0.5) ** 6, y

    return fields_module._describing_field(
        "Xprime_line_zero_half", fld.chart, parts, (1.0,),
        fld.singular_fibers, fld.sources)


@pytest.mark.parametrize("name", ["line", "circle", "planar", "s5",
                                  "line_zero_half"])
def test_base_rule_equals_the_lifted_base_tangent(name):
    if name == "line_zero_half":
        fld = _line_with_a_zero_at_half()
        # tau keeps its sign, so the unit-speed base direction, and with it
        # the census, is the line's
        assert basin_census(fld, 16, seed=0) == basin_census(
            _library_fields()["line"], 16, seed=0)
    else:
        fld = _library_fields()[name]
    chart = fld.chart
    xs = _base_points(name, np.random.default_rng(11), 1000)
    ys = chart.lift(xs)
    got, want = fld.base_rule(xs), chart.base_tangent(ys, fld.func(ys))
    assert np.array_equal(got, want)
    # the signs of the zeros on the triangle's edges too
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("name,n,want,rows,rejected", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in [
        ("line", 200, {"source_0": 57, "source_1": 64, "source_2": 79},
         1_400, 0),
        ("circle", 200, {"source_0": 76, "source_1": 57, "source_2": 67},
         1_400, 0),
        ("planar", 200, {"source_0": 200}, 3_776, 0),
        ("s5", 200, {"source_0": 200}, 17_378, 489),
        ("line", 16, {"source_0": 6, "source_1": 3, "source_2": 7}, 112, 0),
        ("s5", 16, {"source_0": 16}, 1_510, 44),
        ("circle", 16, {"source_0": 7, "source_1": 2, "source_2": 7}, 112,
         0),
        ("planar", 16, {"source_0": 16}, 316, 0),
    ]])
def test_census_rows_are_pinned(name, n, want, rows, rejected):
    # the base rule gives the lifted field's numbers, so the census takes
    # the same steps as when it evaluated the whole field; the straight
    # 1-D and planar orbits reject no step
    rep = basin_census(_library_fields()[name], n, seed=0)
    assert (rep.counts, rep.stop_reason, rep.stats["rhs_rows"],
            rep.stats["rejected"]) == (want, "all_assigned", rows, rejected)
    _assert_cash_karp_record(rep.stats, n)


def _assert_cash_karp_record(stats, n):
    """The report's record is the RK loop's own: the n start rows, then six
    Cash-Karp stage calls per attempt, over the rows that made it."""
    rows = stats["accepted"] + stats["rejected"]
    assert stats["rhs_rows"] == n + 6 * rows
    assert stats["rhs_calls"] == 1 + 6 * stats["attempts"]


@pytest.mark.parametrize("name", ["line", "circle"])
def test_one_dimensional_censuses_take_one_attempt(name):
    # every row lands on the target ahead of it in its first step
    for n in (16, 200, 1000):
        for seed in (0, 1):
            rep = basin_census(_library_fields()[name], n, seed=seed)
            assert (rep.stats["attempts"], rep.stats["rhs_rows"]) == (
                1, 7 * n), (n, seed)


_CENSUS_LABELS = {
    ("line", 16): ({"source_0": 6, "source_1": 3, "source_2": 7},
                   {"source_0": 5, "source_1": 6, "source_2": 5}),
    ("line", 200): ({"source_0": 57, "source_1": 64, "source_2": 79},
                    {"source_0": 65, "source_1": 68, "source_2": 67}),
    ("line", 1000): ({"source_0": 302, "source_1": 340, "source_2": 358},
                     {"source_0": 339, "source_1": 321, "source_2": 340}),
    ("circle", 16): ({"source_0": 7, "source_1": 2, "source_2": 7},
                     {"source_0": 4, "source_1": 6, "source_2": 6}),
    ("circle", 200): ({"source_0": 76, "source_1": 57, "source_2": 67},
                      {"source_0": 58, "source_1": 73, "source_2": 69}),
    ("circle", 1000): ({"source_0": 316, "source_1": 327, "source_2": 357},
                       {"source_0": 332, "source_1": 345, "source_2": 323}),
}


@pytest.mark.parametrize("name,n,seed", [
    pytest.param(name, n, seed, id=f"{name}-{n}-{seed}")
    for name in ("line", "circle", "planar", "s5")
    for n in (16, 200, 1000) for seed in (0, 1)])
def test_census_labels_are_pinned(name, n, seed):
    # how the runner steps may change; where each sample ends may not
    want = (_CENSUS_LABELS[name, n][seed] if (name, n) in _CENSUS_LABELS
            else {"source_0": n})
    rep = basin_census(_library_fields()[name], n, seed=seed)
    assert (rep.counts, rep.stop_reason) == (want, "all_assigned")


@pytest.mark.parametrize("name, x, direction, report", [
    ("line", (0.4, 0.0), "forward", ("singular_fiber", "sink_1",
     5.599994399974051e-06, 0.5999944000056, "converged", 7, 0)),
    ("line", (2.5, 0.0), "backward", ("singular_fiber", "source_1",
     5.499994499835736e-06, 0.49999450000550005, "converged", 7, 0)),
    ("circle", (0.5, 0.0, 0.0), "forward", ("singular_fiber", "sink_1.0472",
     5.54719200396292e-06, 0.5471920040045937, "converged", 7, 0)),
    ("circle", (2.5, 0.0, 0.0), "backward", ("singular_fiber", "source_1",
     5.405599492025459e-06, 0.40559949200731277, "converged", 7, 0)),
    ("planar", (0.5, 0.2, 0.0, 0.0), "backward", ("singular_fiber",
     "source_0", 5.0732691663868615e-06, 0.538511407444284, "converged", 13,
     0)),
    ("planar", (1.2, -0.4, 0.1, 0.2), "forward", ("escape", None,
     40.9293697189405, 40.473174083194934, "converged", 37, 0)),
    ("s5", (0.2, 0.3), "backward", ("singular_fiber", "source_0",
     3.8211904584372535e-06, 0.07118312664855518, "converged", 121, 2)),
])
def test_classify_reports_are_pinned(name, x, direction, report):
    # the base runner steps with Cash-Karp, so its reports keep their numbers
    fld = _library_fields()[name]
    p0 = (embed_s5(np.array(x), (0.1, 0.2, 0.3)) if name == "s5"
          else np.array(x))
    rep = classify_limit(fld, p0, direction)
    kind, target, dist, length, stop, rows, rejected = report
    assert (rep.kind, rep.target, rep.stop_reason, rep.stats["rhs_rows"],
            rep.stats["rejected"]) == (kind, target, stop, rows, rejected)
    assert rep.final_distance == pytest.approx(dist, rel=1e-12)
    assert rep.horizon == pytest.approx(length, rel=1e-12)
    _assert_cash_karp_record(rep.stats, 1)


def _source_starts(name, fld):
    """A chart point over each declared source, with nonzero phases."""
    if name == "s5":
        return [embed_s5(np.array(x), (0.1, 0.2, 0.3)) for x in fld.sources]
    return [np.append(x, (0.3, 1.1)[:fld.chart.n]) for x in fld.sources]


def test_classify_on_a_source_torus_takes_no_step(monkeypatch):
    # the base does not move there, so the flow is the linear drift along
    # the field's torus frequencies: classify_limit integrates nothing
    def no_steps(*args, **kwargs):
        raise AssertionError("_adaptive_steps called on a source torus")

    monkeypatch.setattr(flow_module, "_adaptive_steps", no_steps)
    for name, fld in _library_fields().items():
        for p0 in _source_starts(name, fld):
            for direction in ("forward", "backward"):
                rep = classify_limit(fld, p0, direction)
                assert (rep.kind, rep.target, rep.stop_reason, rep.horizon,
                        rep.stats["rhs_rows"]) == (
                    "torus_closure", None, "converged", 0.0, 0), name
                assert rep.final_distance < 1e-15


@pytest.mark.parametrize("name", ["line", "circle", "planar", "s5"])
def test_source_torus_frequencies_are_exact(name):
    # on a source x_s the frequencies are tau(x_s) times the declared ones,
    # e.g. 81 (1, sqrt 2) at the line's source 0; neither (1, sqrt 2) nor
    # (1, e, e^2) has a small integer relation
    if name in ("line", "circle"):
        fld = line_model_fields(name, n=2, a=(1.0, SQRT2)).Xprime
        parts = {"line": fields_module._line_parts,
                 "circle": fields_module._circle_parts}[name]
        taus = [float(parts(np.array(x))[0][0]) for x in fld.sources]
    else:
        fld = _library_fields()[name]
        # the planar field's planted points lie on the unit circle
        taus = [1.0] if name == "planar" else [
            float(tau_s5(np.array(x))) for x in fld.sources]
    freqs = np.array(build_s5().frequencies if name == "s5" else (1.0, SQRT2))
    for p0, tau in zip(_source_starts(name, fld), taus):
        rep = classify_limit(fld, p0, "forward")
        assert rep.kind == "torus_closure"
        assert np.max(np.abs(np.array(rep.frequencies) / (tau * freqs) - 1.0)) \
            <= 1e-14
        assert rep.relation is None


def test_classify_reports_a_resonant_source_torus():
    m = line_model_fields("line", n=2, a=(1.0, 2.0))
    rep = classify_limit(m.Xprime, np.array([0.0, 0.3, 1.1]), "forward")
    assert rep.kind == "torus_closure"
    assert rep.frequencies == (81.0, 162.0) and rep.relation == (-2, 1)


def test_one_answer_per_s5_source_orbit():
    # the phases move the base tangent by rounding alone (1.4e-42 at the
    # phases 0.1, 0.2, 0.3, against |X| = 1.4e-25): every start on the source
    # orbit lies on the same torus and gets the same report
    X = build_s5().field
    reps = [classify_limit(X, embed_s5(np.array([0.25, 0.25]), phis),
                           "forward")
            for phis in ((0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (0.1, 0.2, 0.3))]
    first = reps[0]
    assert first.kind == "torus_closure"
    for rep in reps[1:]:
        assert dataclasses.replace(rep, frequencies=None) == \
            dataclasses.replace(first, frequencies=None)
        assert rep.frequencies == pytest.approx(first.frequencies, rel=1e-15)


def test_census_stops_samples_at_undeclared_zeros():
    # without its sources the line's backward samples run into zeros that
    # are no target: a row whose velocity reverses over a step crossed one
    m = line_model_fields("line", n=1, a=(1.0,))
    bare = dataclasses.replace(m.Xprime, sources=())
    start = time.perf_counter()
    rep = basin_census(bare, 9, seed=1)
    elapsed = time.perf_counter() - start
    assert rep.counts == {"singular_set": 9}
    assert rep.stop_reason == "all_assigned"
    assert elapsed < 0.5


_UNDECLARED_ZERO_CENSUS = {  # (z, sign, n): counts at seeds 0 and 1
    (0.5, 1.0, 16): (
        {"source_1": 3, "source_2": 7, "escape": 4, "singular_set": 2},
        {"source_1": 6, "source_2": 5, "escape": 2, "singular_set": 3}),
    (0.5, 1.0, 200): (
        {"source_1": 64, "source_2": 79, "escape": 31, "singular_set": 26},
        {"source_1": 68, "source_2": 67, "escape": 27, "singular_set": 38}),
    (0.5, 1.0, 1000): (
        {"source_1": 340, "source_2": 358, "escape": 146, "singular_set": 156},
        {"source_1": 321, "source_2": 340, "escape": 162,
         "singular_set": 177}),
    (0.5, -1.0, 16): (
        {"source_0": 5, "sink_1": 1, "sink_3": 7, "escape": 3},
        {"source_0": 2, "sink_1": 6, "sink_3": 6, "escape": 2}),
    (0.5, -1.0, 200): (
        {"source_0": 44, "sink_1": 44, "sink_3": 67, "escape": 45},
        {"source_0": 43, "sink_1": 57, "sink_3": 69, "escape": 31}),
    (0.5, -1.0, 1000): (
        {"source_0": 231, "sink_1": 242, "sink_3": 357, "escape": 170},
        {"source_0": 239, "sink_1": 268, "sink_3": 323, "escape": 170}),
    (2.7, 1.0, 16): (
        {"source_2": 7, "sink_1": 2, "escape": 4, "singular_set": 3},
        {"source_2": 5, "sink_1": 6, "escape": 2, "singular_set": 3}),
    (2.7, 1.0, 200): (
        {"source_2": 79, "sink_1": 57, "escape": 31, "singular_set": 33},
        {"source_2": 67, "sink_1": 73, "escape": 27, "singular_set": 33}),
    (2.7, 1.0, 1000): (
        {"source_2": 358, "sink_1": 327, "escape": 146, "singular_set": 169},
        {"source_2": 340, "sink_1": 345, "escape": 162, "singular_set": 153}),
    (2.7, -1.0, 16): (
        {"source_0": 6, "source_1": 2, "sink_3": 5, "escape": 3},
        {"source_0": 5, "source_1": 6, "sink_3": 3, "escape": 2}),
    (2.7, -1.0, 200): (
        {"source_0": 57, "source_1": 56, "sink_3": 42, "escape": 45},
        {"source_0": 65, "source_1": 56, "sink_3": 48, "escape": 31}),
    (2.7, -1.0, 1000): (
        {"source_0": 302, "source_1": 296, "sink_3": 232, "escape": 170},
        {"source_0": 339, "source_1": 274, "sink_3": 217, "escape": 170}),
    (4.6, 1.0, 16): (
        {"sink_1": 2, "sink_3": 7, "escape": 4, "singular_set": 3},
        {"sink_1": 6, "sink_3": 6, "escape": 2, "singular_set": 2}),
    (4.6, 1.0, 200): (
        {"sink_1": 57, "sink_3": 67, "escape": 31, "singular_set": 45},
        {"sink_1": 73, "sink_3": 69, "escape": 27, "singular_set": 31}),
    (4.6, 1.0, 1000): (
        {"sink_1": 327, "sink_3": 357, "escape": 146, "singular_set": 170},
        {"sink_1": 345, "sink_3": 323, "escape": 162, "singular_set": 170}),
    (4.6, -1.0, 16): (
        {"source_0": 6, "source_1": 3, "source_2": 6, "escape": 1},
        {"source_0": 5, "source_1": 6, "source_2": 3, "escape": 2}),
    (4.6, -1.0, 200): (
        {"source_0": 57, "source_1": 64, "source_2": 59, "escape": 20},
        {"source_0": 65, "source_1": 68, "source_2": 53, "escape": 14}),
    (4.6, -1.0, 1000): (
        {"source_0": 302, "source_1": 340, "source_2": 292, "escape": 66},
        {"source_0": 339, "source_1": 321, "source_2": 265, "escape": 75}),
}
# (z, sign): kind and target from z - 0.4, z - 0.1, z - 1e-3, z + 1e-3,
# z + 0.1, z + 0.4, forward then backward from each
_UNDECLARED_ZERO_LIMITS = {
    (0.5, 1.0): (
        "singular_fiber source_0", "inconclusive sink_1",
        "singular_fiber source_0", "inconclusive sink_1",
        "singular_fiber source_0", "inconclusive sink_1",
        "singular_fiber sink_1", "inconclusive source_0",
        "singular_fiber sink_1", "inconclusive source_0",
        "singular_fiber sink_1", "inconclusive source_0",
    ),
    (0.5, -1.0): (
        "inconclusive sink_1", "singular_fiber source_0",
        "inconclusive sink_1", "singular_fiber source_0",
        "inconclusive sink_1", "singular_fiber source_0",
        "inconclusive source_0", "singular_fiber sink_1",
        "inconclusive source_0", "singular_fiber sink_1",
        "inconclusive source_0", "singular_fiber sink_1",
    ),
    (2.7, 1.0): (
        "singular_fiber source_1", "inconclusive sink_3",
        "singular_fiber source_1", "inconclusive sink_3",
        "singular_fiber source_1", "inconclusive sink_3",
        "singular_fiber sink_3", "inconclusive sink_3",
        "singular_fiber sink_3", "inconclusive sink_3",
        "singular_fiber sink_3", "singular_fiber source_2",
    ),
    (2.7, -1.0): (
        "inconclusive sink_3", "singular_fiber source_1",
        "inconclusive sink_3", "singular_fiber source_1",
        "inconclusive sink_3", "singular_fiber source_1",
        "inconclusive sink_3", "singular_fiber sink_3",
        "inconclusive sink_3", "singular_fiber sink_3",
        "singular_fiber source_2", "singular_fiber sink_3",
    ),
    (4.6, 1.0): (
        "singular_fiber source_2", "inconclusive source_2",
        "singular_fiber source_2", "inconclusive source_2",
        "singular_fiber source_2", "inconclusive source_2",
        "escape None", "inconclusive source_2",
        "escape None", "inconclusive source_2",
        "escape None", "inconclusive source_2",
    ),
    (4.6, -1.0): (
        "inconclusive source_2", "singular_fiber source_2",
        "inconclusive source_2", "singular_fiber source_2",
        "inconclusive source_2", "singular_fiber source_2",
        "inconclusive source_2", "escape None",
        "inconclusive source_2", "escape None",
        "inconclusive source_2", "escape None",
    ),
}


def _line_with_a_zero_at(z, sign):
    """The line field rebuilt through the recipe with Y sign (x - z): a zero
    at z where Y changes sign, which no target declares."""
    fld = _library_fields()["line"]

    def parts(x):
        tau, y = fields_module._line_parts(x)
        return tau, y * (sign * (x - z))

    return fields_module._describing_field(
        f"Xprime_line_zero_{z}", fld.chart, parts, (1.0,),
        fld.singular_fibers, fld.sources)


@pytest.mark.parametrize("z,sign,n", list(_UNDECLARED_ZERO_CENSUS))
def test_census_does_not_skip_an_undeclared_zero(z, sign, n):
    # a row that crosses z turns back over its step and stops at the
    # singular set; however far a step may reach, none may pass z unseen
    fld = _line_with_a_zero_at(z, sign)
    for seed, want in enumerate(_UNDECLARED_ZERO_CENSUS[z, sign, n]):
        rep = basin_census(fld, n, seed=seed)
        assert (rep.counts, rep.stop_reason) == (want, "all_assigned"), seed


@pytest.mark.parametrize("z,sign", list(_UNDECLARED_ZERO_LIMITS))
def test_classify_does_not_skip_an_undeclared_zero(z, sign):
    fld = _line_with_a_zero_at(z, sign)
    got = [f"{rep.kind} {rep.target}" for rep in (
        classify_limit(fld, np.array([z + dx, 0.0]), direction)
        for dx in (-0.4, -0.1, -1e-3, 1e-3, 0.1, 0.4)
        for direction in ("forward", "backward"))]
    assert tuple(got) == _UNDECLARED_ZERO_LIMITS[z, sign]


def test_census_counts_a_start_exactly_on_a_target():
    # the distance at the start is 0, so the first step is _initial_step's
    # guess; the velocity there is 0 too, so the row stays and counts
    m = line_model_fields("line", n=1, a=(1.0,))
    xs = np.array([[0.0], [1.0], [2.0], [2.5], [4.0]])
    rep = basin_census(m.Xprime, len(xs), sampler=lambda rng, n: xs.copy())
    assert rep.counts == {"source_0": 1, "source_1": 2, "source_2": 1,
                          "sink_1": 1}
    assert rep.stop_reason == "all_assigned"


def test_first_step_without_a_finite_target_distance(monkeypatch):
    # xi + T declares no target, so every start is at distance inf: the
    # first step falls back to _initial_step's guess, with no inf step and
    # no floating-point warning on the way to the escape
    X = xi_plus_affine(1, (1.0,))
    assert not X.sources and not X.singular_fibers
    firsts = []
    hook = flow_module._BaseFlow.hook

    def recording(self, ids, x):
        if not firsts:
            firsts.append(x[0, 0])
        return hook(self, ids, x)

    monkeypatch.setattr(flow_module._BaseFlow, "hook", recording)
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-10, max_steps=200_000)
    with np.errstate(all="raise"):
        rep = classify_limit(X, np.array([1.0, 0.0]), "forward",
                             horizon=50.0, cfg=cfg)
    assert (rep.kind, rep.stop_reason) == ("escape", "converged")
    guess = flow_module._initial_step(np.ones((1, 1)), np.ones((1, 1)), 1.0,
                                      cfg.rtol,
                                      flow_module._CASH_KARP.exponents[-1])
    assert firsts[0] - 1.0 == pytest.approx(guess[0, 0], rel=1e-9)


def test_census_work_per_sample_does_not_grow_with_n():
    # finished samples leave the batch and each keeps its own step size,
    # so the field rows grow about linearly with the sample count
    m = line_model_fields("line", n=1, a=(1.0,))
    small = basin_census(m.Xprime, 200, seed=1)
    large = basin_census(m.Xprime, 800, seed=1)
    assert small.stats["rhs_rows"] > 0
    assert large.stats["rhs_rows"] / small.stats["rhs_rows"] <= 4.4


def _expected_source(base, x):
    """Backward limit from the sign of Y between consecutive zeros."""
    if base == "line":  # the sinks 1 and 3 separate the sources 0, 2, 4
        return (x > 1.0).astype(int) + (x > 3.0).astype(int)
    # Y = sin(3a): sources 0, 2pi/3, 4pi/3 sit mid-way between the sinks
    return (np.mod(x + np.pi / 3.0, TWO_PI) // (TWO_PI / 3.0)).astype(int)


_CIRCLE_SINKS = (np.pi / 3.0, np.pi, 5.0 * np.pi / 3.0)
_ZEROS = {"line": np.arange(5.0), "circle": np.arange(7) * (np.pi / 3.0)}


def _expected_limit(base, x, direction):
    """Limit from the sign of Y: backward the source of x's basin, forward
    the next zero in the direction of Y (always a sink), or escape."""
    if direction == "backward":
        return "singular_fiber", f"source_{_expected_source(base, np.array(x))}"
    y = np.sin(3.0 * x) if base == "circle" else np.prod(x - _ZEROS["line"])
    ahead = _ZEROS[base][(_ZEROS[base] - x) * y > 0]
    if ahead.size == 0:
        return "escape", None
    return "singular_fiber", f"sink_{ahead[np.argmin(np.abs(ahead - x))]:.6g}"


def _classify_starts():
    for base, xs in (("line", np.linspace(-0.9, 4.9, 25)),
                     ("circle", np.linspace(0.05, TWO_PI - 0.05, 19))):
        if base == "line":  # a far escape, a source approached from 1.5
            xs = np.append(xs, (-0.5, 1.5))
        for x in xs[np.min(np.abs(xs[:, None] - _ZEROS[base]), axis=1)
                    >= 0.05]:
            for direction in ("forward", "backward"):
                yield pytest.param(base, float(x), direction,
                                   id=f"{base}-{direction}-{x:.3f}")


@pytest.mark.parametrize("base, x, direction", _classify_starts())
def test_classify_matches_sign_of_y(base, x, direction):
    m = line_model_fields(base, n=2, a=(1.0, SQRT2))
    rep = classify_limit(m.Xprime, np.array([x, 0.3, 1.1]), direction)
    assert (rep.kind, rep.target) == _expected_limit(base, x, direction)
    assert rep.stop_reason == "converged"


@pytest.mark.parametrize("base, direction", [
    ("line", "forward"), ("line", "backward"),
    ("circle", "forward"), ("circle", "backward"),
])
def test_runner_batch_equals_rows_one_at_a_time(base, direction):
    # every row keeps its own step control and stop, so a row's outcome
    # and end point do not depend on the rows run beside it
    xs = np.array([[case.values[1]] for case in _classify_starts()
                   if case.values[::2] == (base, direction)])
    m = line_model_fields(base, n=2, a=(1.0, SQRT2))
    p = np.array([xs[0, 0], 0.3, 1.1])
    flow = flow_module._BaseFlow(m.Xprime, 1.0 if direction == "forward"
                                 else -1.0, p, m.Xprime(p))
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-10, max_steps=200_000)
    outcome, ends, _, _ = flow.run(xs, 200.0, cfg, 1e-5)
    assert np.all(outcome >= 0)
    for x, got, end in zip(xs, outcome, ends):
        one, one_end, _, _ = flow.run(x[None], 200.0, cfg, 1e-5)
        assert one[0] == got
        # the stage sums are matrix products, rounded per batch size
        assert abs(one_end[0, 0] - end[0]) <= 1e-12 * max(1.0, abs(end[0]))


def test_classify_work_on_sign_of_y_starts():
    # one exact step onto the target ahead, 7 rows; a start with no target
    # ahead grows its step from _initial_step's guess until it escapes (43
    # rows).  Capped by the nearest target either way, 49 rows on both
    # bases, and 103 with the d / 1.65 cap
    worst = {}
    for case in _classify_starts():
        base, x, direction = case.values
        m = line_model_fields(base, n=2, a=(1.0, SQRT2))
        rep = classify_limit(m.Xprime, np.array([x, 0.3, 1.1]), direction)
        worst[base] = max(worst.get(base, 0), rep.stats["rhs_rows"])
    assert 0 < worst["line"] <= 43 and worst["circle"] == 7


# Starts within fiber_tol of a source: the distance grows from the first
# step on, so the source must not be taken for the limit.
@pytest.mark.parametrize("base, x", [
    ("line", 1e-6), ("line", 2.0 - 1e-6), ("line", 2.0 + 1e-6),
    ("line", 4.0 - 1e-6), ("circle", TWO_PI / 3.0 + 1e-6),
])
def test_classify_forward_leaves_a_nearby_source(base, x):
    m = line_model_fields(base, n=2, a=(1.0, SQRT2))
    rep = classify_limit(m.Xprime, np.array([x, 0.3, 1.1]), "forward")
    assert (rep.kind, rep.target) == _expected_limit(base, x, "forward")
    assert rep.stop_reason == "converged"


# With fiber_tol = 1e-3 the start lies within fiber_tol of a source it
# moves away from; the first step ends within fiber_tol of the sink ahead,
# but further from a target than the start, so the row lands on the sink in
# its second step.
@pytest.mark.parametrize("base, x", [
    ("line", 1e-4), ("line", 2.0 - 1e-4), ("line", 2.0 + 1e-4),
    ("line", 4.0 - 1e-4), ("circle", TWO_PI / 3.0 + 1e-4),
])
def test_classify_forward_leaves_a_source_within_fiber_tol(base, x):
    m = line_model_fields(base, n=2, a=(1.0, SQRT2))
    rep = classify_limit(m.Xprime, np.array([x, 0.3, 1.1]), "forward",
                         fiber_tol=1e-3)
    assert (rep.kind, rep.target) == _expected_limit(base, x, "forward")
    assert rep.stop_reason == "converged"


# The 241-point circle cases fail when a sample may step with a unit-speed
# velocity over a zero: the error estimate does not see the crossing.
@pytest.mark.parametrize("base, lo, hi, sinks, n_points, a", [
    ("line", -0.95, 4.95, (1.0, 3.0), 61, (1.0,)),
    ("circle", 0.01, TWO_PI - 0.01, _CIRCLE_SINKS, 61, (1.0,)),
    ("circle", 0.01, TWO_PI - 0.01, _CIRCLE_SINKS, 241, (1.0,)),
    ("circle", 0.01, TWO_PI - 0.01, _CIRCLE_SINKS, 241, (1.0, SQRT2)),
], ids=["line", "circle", "circle-241", "circle-n2-241"])
def test_census_counts_match_sign_of_y_exactly(base, lo, hi, sinks,
                                               n_points, a):
    xs = np.linspace(lo, hi, n_points)
    xs = xs[np.min(np.abs(xs[:, None] - np.array(sinks)), axis=1) > 0.02]
    m = line_model_fields(base, n=len(a), a=a)
    rep = basin_census(m.Xprime, len(xs),
                       sampler=lambda rng, n: xs[:, None].copy())
    want = np.bincount(_expected_source(base, xs), minlength=3)
    assert rep.counts == {f"source_{i}": int(c) for i, c in enumerate(want)}
    assert rep.stop_reason == "all_assigned"


def test_step_cap_is_inside_the_reach_bound():
    # every stage has at most unit speed and the weights b5 are >= 0 with
    # sum 1, so an accepted step of size h moves at most h: the cap must
    # keep that below the distance d
    b = flow_module._CASH_KARP.b
    assert np.all(b >= 0.0) and b.sum() == pytest.approx(1.0, abs=1e-15)
    assert flow_module._REACH > b.sum()
    m = line_model_fields("line", n=1, a=(1.0,))
    p = np.array([0.5, 0.0])
    flow = flow_module._BaseFlow(m.Xprime, -1.0, p, m.Xprime(p))
    xs = np.array([[-0.3], [0.5], [1.7], [3.9], [2.0 + 4e-6], [1.0]])
    d, _ = flow.hook(np.arange(len(xs)), xs)
    cap = flow_module._base_cap(d, 1e-5)
    assert np.all(b.sum() * cap[:-1] < d[:-1]) and cap[-1] == d[-1] == 0.0
    # a row within fiber_tol / 2 of a target moves away at d / _REACH
    assert cap[-2] == d[-2] / flow_module._REACH


def test_a_step_of_unit_speed_stages_moves_at_most_its_size():
    # stages that point every which way: the unit field turns with the
    # point, up to 30 radians per unit length; with weights >= 0 summing to
    # 1 the step is a convex combination of them (Dormand-Prince 5(4), whose
    # weights include a negative one, moves up to 1.6 h on these fields)
    pair = flow_module._CASH_KARP
    rng = np.random.default_rng(0)
    for _ in range(200):
        w = rng.normal(size=2) * rng.uniform(0.1, 30.0)

        def turning(y):
            return np.array([np.cos(w @ y), np.sin(w @ y)])

        y0, K = rng.normal(size=2), np.empty((7, 2))
        K[0] = turning(y0)
        for i in range(1, 7):
            K[i] = turning(y0 + pair.a[i] @ K[:i])
        assert np.linalg.norm(pair.b @ K) <= 1.0 + 1e-15


def _census_paths(monkeypatch, name):
    """Start and accepted base points of every sample of a backward census
    of a library field, with the base distance to the nearest target
    before each step."""
    fld = _library_fields()[name]
    if name == "line":
        xs = np.linspace(-0.95, 4.95, 61)
        xs = xs[np.min(np.abs(xs[:, None] - _ZEROS["line"]), axis=1) > 0.02]
        xs = xs[:, None]
    else:
        xs = fld.chart.sample_base(np.random.default_rng(3), 40)
    paths = [[x] for x in xs]
    runners = []
    hook = flow_module._BaseFlow.hook

    def recording(self, ids, x):
        runners[:] = [self]
        for i, xi in zip(ids, x):
            paths[i].append(xi)
        return hook(self, ids, x)

    monkeypatch.setattr(flow_module._BaseFlow, "hook", recording)
    rep = basin_census(fld, len(xs), sampler=lambda rng, n: xs.copy())
    assert rep.stop_reason == "all_assigned"
    for path in map(np.array, paths):
        assert len(path) >= 2
        yield path, runners[0].distances(path[:-1]).min(axis=1)


def _ahead(name, x, step):
    """Distances (steps, zeros) from 1-D base points x (steps,) to the
    zeros of Y in the direction of each step; <= 0 for a zero behind."""
    ahead = (_ZEROS[name] - x[:, None]) * np.sign(step)[:, None]
    return np.mod(ahead, TWO_PI) if name == "circle" else ahead


def test_accepted_base_steps_stay_short_of_the_nearest_target(monkeypatch):
    # an accepted step of size h <= _base_cap(d) < d moves at most h, so it
    # can neither reach nor pass a target within d of its start.  On the
    # 2-D bases d is the distance to the nearest target; the stage
    # velocities point different ways there, and only the nonnegative
    # weights keep the sum of the stages within h.  On a 1-D base a row
    # moves one way between zeros, and d is the distance to the nearest
    # target ahead of it.
    for name in ("line", "circle", "planar", "s5"):
        with monkeypatch.context() as patch:
            for path, d in _census_paths(patch, name):
                steps = np.linalg.norm(np.diff(path, axis=0), axis=1)
                if name in ("line", "circle"):
                    ahead = _ahead(name, path[:-1, 0], np.diff(path[:, 0]))
                    d = np.where(ahead > 0, ahead, np.inf).min(axis=1)
                    # no target strictly inside a step, unless the row
                    # landed within fiber_tol of it
                    inside = (ahead > 0) & (ahead < steps[:, None])
                    landed = np.abs(ahead - steps[:, None]) < 1e-5
                    assert not np.any(inside & ~landed), name
                cap = flow_module._base_cap(d, 1e-5)
                assert np.all(steps <= cap * (1 + 1e-12)), name
                assert np.all(steps < d), name


def test_line_steps_are_at_the_cap_from_the_first_on(monkeypatch):
    # the unit field is constant between zeros, so a step is exact and at
    # the cap of the distance to the target ahead: every row, backward,
    # moves toward the source of its basin and lands within fiber_tol of it
    # in its first step, which ends the row
    for path, _ in _census_paths(monkeypatch, "line"):
        x0, (step,) = path[0, 0], np.diff(path[:, 0])
        source = 2.0 * _expected_source("line", x0)
        assert np.sign(step) == np.sign(source - x0)
        assert abs(step) == pytest.approx(flow_module._base_cap(
            np.array([abs(source - x0)]), 1e-5)[0], rel=1e-8)
        assert abs(x0 + step - source) < 1e-5


# ---------------------------------------------------------------------------
# order estimation


def test_estimate_order_line_sinks():
    m = line_model_fields("line", n=1, a=(1.0,))
    for loc, order in ((1.0, 2), (3.0, 4)):
        rep = estimate_order(m.Xprime, np.array([loc, 0.0]))
        assert abs(rep.estimated_order - order) < 0.2
        assert rep.r_squared >= 0.99


@pytest.mark.parametrize("build", [
    lambda: line_model_fields("circle", n=2, a=(1.0, SQRT2)).Xprime,
    lambda: build_planar_demo().field,
    lambda: build_s5().field,
])
def test_estimate_order_evaluates_all_radii_in_one_call(build):
    fld = build()
    rows = []

    def counted(p):
        rows.append(len(p))
        return fld.func(p)

    fib = fld.singular_fibers[0]
    rep = estimate_order(dataclasses.replace(fld, func=counted),
                         fld.chart.lift(fib.point()))
    assert rows == [8 * len(rep.slopes)] and len(rep.slopes) > 0
    assert abs(rep.estimated_order - fib.order) < 0.2


def _order_cases():
    flds = _library_fields()
    cases = [(name, fib.base_point) for name, fld in flds.items()
             for fib in fld.singular_fibers]
    return cases + [("s5", (0.5, 0.5))]


@pytest.mark.parametrize("name,x0", _order_cases())
def test_estimate_order_fit_matches_polyfit(name, x0):
    fld = _library_fields()[name]
    chart = fld.chart
    p0 = chart.lift(np.array(x0))
    rep = estimate_order(fld, p0)
    rays = flow_module._probe_directions(chart, chart.base(p0),
                                         float(rep.radii.max()))
    assert len(rep.slopes) == len(rays) > 0
    lr = np.log(rep.radii)
    r2s = []
    for u, slope in zip(rays, rep.slopes):
        vals = np.linalg.norm(
            fld.func(chart.displace_base(p0, rep.radii[:, None] * u)), axis=-1)
        lv = np.log(vals)
        want, intercept = np.polyfit(lr, lv, 1)
        assert abs(slope - want) <= 1e-12
        ss_res = np.sum((lv - (want * lr + intercept)) ** 2)
        r2s.append(1.0 - ss_res / np.sum((lv - lv.mean()) ** 2))
    assert abs(rep.r_squared - min(r2s)) <= 1e-12


def test_estimate_order_flags_degenerate_fit():
    # field with a logarithmic twist has no clean power-law slope
    from torusflow.fields import FieldHandle
    from torusflow.geometry import Chart

    def func(p):
        x = np.asarray(p, dtype=float)[..., :1]
        r = np.abs(x[..., 0])
        mag = np.where(r > 0, np.exp(-1.0 / np.maximum(r, 1e-300)), 0.0)
        return np.stack([mag], axis=-1)

    fld = FieldHandle("flat", Chart("product", k=1, n=0), func)
    rep = estimate_order(fld, np.array([0.0]))
    assert not rep.ok


# ---------------------------------------------------------------------------
# equidistribution


def test_discrepancy_small_for_irrational_flow():
    ts = np.linspace(0.0, 1e5, 100_000)
    angles = ts[:, None] * np.array([1.0, SQRT2])
    assert equidistribution_discrepancy(angles, bins=10) <= 0.05


def test_discrepancy_large_for_rational_flow():
    ts = np.linspace(0.0, 1e5, 100_000)
    angles = ts[:, None] * np.array([1.0, 2.0])
    assert equidistribution_discrepancy(angles, bins=10) >= 0.3


def test_discrepancy_rejects_unconfined_trajectory():
    X = xi_plus_affine(1, (1.0, SQRT2))
    traj = integrate(X, [0.5, 0.0, 0.0], (0.0, 2.0),
                     t_eval=np.linspace(0, 2, 50))
    with pytest.raises(ValueError):
        equidistribution_discrepancy(traj, bins=10)
