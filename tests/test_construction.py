import gc
import math
import weakref

import numpy as np
import pytest

from torusflow import construction
from torusflow.construction import (
    ConstructionManifest,
    build_line_describing,
    build_planar_demo,
    build_s5,
    haar_average_field,
    haar_average_function,
)
from torusflow.fields import (
    FieldHandle,
    SingularFiber,
    field_scale,
    fundamental_fields_s5,
)
from torusflow.flow import estimate_order
from torusflow.geometry import (
    Chart,
    base_projection_pi,
    sphere_normalize,
    torus_act_s5,
)
from torusflow.verify import verify_manifest

SQRT2 = np.sqrt(2.0)


def test_build_line_manifest_contents():
    m = build_line_describing("line", n=1, freqs=(1.0,))
    d = m.to_dict()
    assert d["chart"] == {"kind": "product", "k": 1, "n": 1}
    assert [f["order"] for f in d["singular_fibers"]] == [2, 4]
    assert d["sources"] == [[0.0], [2.0], [4.0]]


def test_build_circle_manifest_contents():
    m = build_line_describing("circle", n=2, freqs=(1.0, SQRT2))
    assert [f.order for f in m.field.singular_fibers] == [2, 4, 6]
    assert m.field.chart.base_angular


def test_s5_manifest_orders():
    m = build_s5()
    assert sorted(f.order for f in m.field.singular_fibers) == [2, 4, 6]
    assert m.to_dict()["rational_relation"] is None


def test_manifest_rejects_duplicate_orders():
    chart = Chart("product", k=1, n=1)
    fibers = (SingularFiber("a", (1.0,), 2), SingularFiber("b", (3.0,), 2))

    def func(p):
        p = np.asarray(p, dtype=float)
        out = np.zeros_like(p)
        out[..., 0] = (p[..., 0] - 1.0) ** 2 * (p[..., 0] - 3.0) ** 2
        return out

    fld = FieldHandle("dup", chart, func, singular_fibers=fibers)
    rep = verify_manifest(ConstructionManifest("dup", fld, (1.0,)))
    assert [k for k, c in rep.checks.items() if not c["passed"]] == [
        "orders_pairwise_distinct"]


def test_manifest_rejects_nonvanishing_declared_zero():
    chart = Chart("product", k=1, n=0)
    fld = FieldHandle("lie", chart, lambda p: np.ones_like(np.asarray(p)),
                      singular_fibers=(SingularFiber("fake", (0.0,), 2),))
    rep = verify_manifest(ConstructionManifest("lie", fld, (1.0,)))
    assert [k for k, c in rep.checks.items() if not c["passed"]] == [
        "declared_zeros_vanish", "orders_match_declared"]


def test_manifest_rejects_a_field_flat_at_its_declared_zero():
    # identically 0 near the fiber, the order fit has no ray to fit on, so
    # the order deviates by inf and fails (not 0.0)
    chart = Chart("product", k=1, n=0)
    fld = FieldHandle("flat", chart, lambda p: np.zeros_like(np.asarray(p)),
                      singular_fibers=(SingularFiber("zero", (0.0,), 2),))
    rep = verify_manifest(ConstructionManifest("flat", fld, (1.0,)))
    assert rep.checks["orders_match_declared"]["value"] == math.inf
    assert [k for k, c in rep.checks.items() if not c["passed"]] == [
        "orders_match_declared"]


def test_planar_demo_zero_orders():
    m = build_planar_demo(orders=(2, 4, 6), radius=1.0)
    fld = m.field
    for fib in fld.singular_fibers:
        p = np.concatenate([fib.point(), [0.0, 0.0]])
        assert np.linalg.norm(fld.func(p)) < 1e-14
        rep = estimate_order(fld, p)
        assert abs(rep.estimated_order - fib.order) < 0.2
        assert rep.r_squared >= 0.99


def test_planar_demo_rejects_bad_orders():
    with pytest.raises(ValueError):
        build_planar_demo(orders=(2, 3, 6))
    with pytest.raises(ValueError):
        build_planar_demo(orders=(2, 2, 4))


def test_planar_demo_rejects_orders_that_are_not_integers():
    # int() would build orders (2, 4, 6) from 2.9 without a word
    with pytest.raises(ValueError, match="must be integers"):
        build_planar_demo(orders=(2.9, 4, 6))
    for orders in ((2, 4, 6), (np.int64(2), 4, 6), (2.0, 4, 6)):
        fibers = build_planar_demo(orders=orders).field.singular_fibers
        assert [type(f.order) for f in fibers] == [int] * 3
        assert [f.order for f in fibers] == [2, 4, 6]


def test_planar_demo_needs_one_frequency_per_angle():
    with pytest.raises(ValueError, match="frequency vector length"):
        build_planar_demo(n=2, freqs=(1.0,))


# ---------------------------------------------------------------------------
# Haar averaging


def sphere_points(m, seed=11):
    return sphere_normalize(np.random.default_rng(seed).normal(size=(m, 6)))


def invariant_scalar(y):
    x = base_projection_pi(np.asarray(y, dtype=float))
    return x[..., 0] * x[..., 1] * (1.0 - x[..., 0] - x[..., 1])


def test_average_of_invariant_function_is_identity():
    av = haar_average_function(invariant_scalar, Chart("sphere5"), n_nodes=8)
    for y in sphere_points(5):
        assert av(y) == pytest.approx(invariant_scalar(y), abs=1e-14)


def test_average_of_equivariant_field_is_identity():
    u1 = fundamental_fields_s5()[0]
    Z = field_scale("rho*U1", invariant_scalar, u1)
    Zbar = haar_average_field(Z, n_nodes=8)
    for y in sphere_points(5):
        assert np.linalg.norm(Zbar.func(y) - Z.func(y)) < 1e-10


def test_averaged_field_is_invariant():
    def wobble(y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        out[..., 0] = y[..., 2] ** 3
        out[..., 3] = y[..., 1]
        return out

    W = FieldHandle("wobble", Chart("sphere5"), wobble)
    Wbar = haar_average_field(W, n_nodes=8)
    rng = np.random.default_rng(4)
    for y in sphere_points(3):
        lam = rng.uniform(0, 2 * np.pi, 3)
        moved = torus_act_s5(-lam, Wbar.func(torus_act_s5(lam, y)))
        assert np.linalg.norm(moved - Wbar.func(y)) < 1e-12


def test_average_on_product_chart_kills_angular_modes():
    chart = Chart("product", k=1, n=1)

    def func(p):
        p = np.asarray(p, dtype=float)
        out = np.zeros_like(p)
        out[..., 0] = np.sin(p[..., 1])
        return out

    fld = FieldHandle("mode", chart, func)
    bar = haar_average_field(fld, n_nodes=16)
    assert np.linalg.norm(bar.func(np.array([0.5, 1.2]))) < 1e-14


def trig_field(p):
    p = np.asarray(p, dtype=float)
    out = np.empty_like(p)
    out[..., 0] = (np.sin(p[..., 2])
                   + p[..., 0] * np.cos(p[..., 2] + 2 * p[..., 3]) ** 2)
    out[..., 1] = p[..., 1] * np.cos(p[..., 3]) ** 2
    out[..., 2] = np.sin(p[..., 2] - p[..., 3]) ** 2
    out[..., 3] = p[..., 0] * p[..., 1]
    return out


def cubic_field(y):
    y = np.asarray(y, dtype=float)
    return np.stack([y[..., 0] ** 3 * y[..., 3], y[..., 2] * y[..., 1] ** 2,
                     y[..., 4], y[..., 5] * y[..., 0], y[..., 1] ** 2,
                     y[..., 3] * y[..., 2]], axis=-1)


_SIN_M = np.random.default_rng(0).standard_normal((6, 6))


def sin_field(y):
    # unlike cubic_field, its invariant part is not zero: averages reach
    # 0.57, so the bound below sees the rounding of the transported mean
    return np.sin(np.asarray(y, dtype=float) @ _SIN_M)


@pytest.mark.parametrize("chart,func,n_nodes", [
    (Chart("sphere5"), cubic_field, 8),
    (Chart("product", k=2, n=2), trig_field, 16),
    (Chart("sphere5"), sin_field, 8),
])
def test_haar_batch_equals_rows_one_at_a_time(chart, func, n_nodes):
    # 20 rows of a 512- or 256-node orbit span several evaluation blocks
    assert 1 < construction._HAAR_BLOCK // n_nodes ** chart.n < 20
    rng = np.random.default_rng(5)
    if chart.is_sphere:
        pts = sphere_points(20)
    else:
        pts = np.concatenate([rng.uniform(-1.5, 1.5, (20, 2)),
                              rng.uniform(0, 2 * np.pi, (20, 2))], axis=1)
    bar = haar_average_field(FieldHandle("f", chart, func), n_nodes=n_nodes)
    av = haar_average_function(lambda p: func(p)[..., 3], chart, n_nodes)
    batch, batch_fn = bar.func(pts), av(pts)
    assert batch.shape == pts.shape and batch_fn.shape == (20,)
    rows = np.stack([bar.func(p) for p in pts])
    rows_fn = np.array([av(p) for p in pts])
    assert np.max(np.abs(batch - rows)) <= 1e-15
    assert np.max(np.abs(batch_fn - rows_fn)) <= 1e-15


def test_haar_average_function_shapes():
    av = haar_average_function(invariant_scalar, Chart("sphere5"), n_nodes=4)
    ys = sphere_points(3)
    assert np.ndim(av(ys[0])) == 0
    assert av(ys).shape == (3,)
    assert av(ys[None]).shape == (1, 3)
    chart = Chart("product", k=1, n=2)
    av = haar_average_function(lambda p: p[..., 0] * np.sin(p[..., 2]),
                               chart, n_nodes=4)
    p = np.array([[0.5, 1.0, 2.0], [1.5, 0.3, 0.1]])
    assert np.ndim(av(p[0])) == 0 and av(p).shape == (2,)
    assert np.allclose(av(p), 0.0, atol=1e-15)


@pytest.mark.parametrize("chart", [Chart("sphere5"), Chart("product", k=1, n=1)])
def test_dropped_haar_average_is_freed_without_gc(chart):
    # with the cycle collector off, only reference counting can free a
    # dropped average: it must not hold a reference cycle through itself
    pts = np.full((2, chart.dim), chart.dim ** -0.5)
    enabled = gc.isenabled()
    gc.disable()
    try:
        bar = haar_average_field(FieldHandle("id", chart, np.copy), n_nodes=4)
        av = haar_average_function(lambda p: p[..., 0], chart, n_nodes=4)
        bar.func(pts), av(pts)
        refs = [weakref.ref(bar.func), weakref.ref(av)]
        del bar, av
        assert [r() for r in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def per_node_mean(func, ys, n_nodes, transport):
    # the defining sum, one torus element at a time, through the public action
    total = 0.0
    for lam in np.ndindex((n_nodes,) * 3):
        lam = np.array(lam) * (2 * np.pi / n_nodes)
        val = func(torus_act_s5(lam, ys))
        total = total + (torus_act_s5(-lam, val) if transport else val)
    return total / n_nodes ** 3


@pytest.mark.parametrize("n_nodes", [4, 8, 16])
def test_s5_haar_equals_per_node_reference(n_nodes):
    rng = np.random.default_rng(8)
    M, S = rng.normal(size=(6, 6)), rng.normal(size=(6, 6))
    ys = sphere_points(6, seed=n_nodes)

    def cubic(y):
        y = np.asarray(y, dtype=float)
        return np.sum(y * (y @ S.T), axis=-1)[..., None] * (y @ M.T) + y @ M.T

    def quartic(y):
        q = np.sum(y * (y @ S.T), axis=-1)
        return q + q ** 2

    chart = Chart("sphere5")
    cases = [
        (haar_average_field(FieldHandle("c", chart, cubic), n_nodes).func,
         per_node_mean(cubic, ys, n_nodes, transport=True)),
        (haar_average_function(quartic, chart, n_nodes),
         per_node_mean(quartic, ys, n_nodes, transport=False)),
    ]
    for averaged, want in cases:
        assert np.max(np.abs(averaged(ys) - want)) <= 1e-14 * np.max(np.abs(want))


def test_s5_haar_builds_the_rotation_table_once(monkeypatch):
    calls = []

    def counted(lam, y):
        calls.append(np.shape(lam))
        return torus_act_s5(lam, y)

    monkeypatch.setattr(construction, "torus_act_s5", counted)
    bar = haar_average_field(FieldHandle("f", Chart("sphere5"), cubic_field),
                             n_nodes=16)
    assert len(calls) == 1
    bar.func(sphere_points(20))
    assert len(calls) == 1


def test_s5_rotation_cache_keeps_small_tables_only():
    # the 4- and 16-node tables that the normal_form benchmark averages with
    # stay cached; a 64-node table (75 MB) lives only while it is held
    calls = []

    def counted(lam, y):
        calls.append(len(lam))
        return torus_act_s5(lam, y)

    def blank(lam, y):
        calls.append(len(lam))
        return np.zeros((len(lam), 6, 6))

    for n_nodes in (4, 16):
        table = construction._s5_rotations(n_nodes, counted)
        assert construction._s5_rotations(n_nodes, counted) is table
    assert calls == [4 ** 3, 16 ** 3]
    table = construction._s5_rotations(64, blank)
    assert table.nbytes > construction._S5_CACHE_BYTES
    ref = weakref.ref(table)
    del table
    assert ref() is None
    construction._s5_rotations(64, blank)
    assert calls[2:] == [64 ** 3, 64 ** 3]
