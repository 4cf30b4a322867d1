import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from torusflow import verify as verify_module
from torusflow.construction import build_line_describing, build_s5
from torusflow.fields import pushforward_residual, xi_plus_affine
from torusflow.flow import IntegratorConfig, integrate
from torusflow.verify import (
    commutant_basis_check,
    commutant_dimension_probe,
    conjugation_residual,
    verify_manifest,
)

SQRT2 = np.sqrt(2.0)


def test_probe_dense_frequencies_give_k2_plus_n():
    rep = commutant_dimension_probe(2, (1.0, SQRT2), n_points=500, seed=0)
    assert rep.dimension == 6
    assert rep.matches_expected
    assert rep.gap >= 1e3


def test_probe_k1_n1():
    rep = commutant_dimension_probe(1, (1.0,), n_points=200, seed=0)
    assert rep.dimension == 2  # k^2 + n = 1 + 1


@pytest.mark.parametrize("k,a,want", [
    (2, (1.0, SQRT2), (6, 2, 1, 150)),
    # a = (1, 2) admits the relation q = (2, -1); each resonant mode shows
    # up in every slot, giving 2*6 + 2*3 = 18 within the degree-2 ansatz
    (2, (1.0, 2.0), (18, 6, 3, 150)),
    (1, (1.0, np.e, np.e ** 2), (4, 1, 1, 375)),
    (1, (1.0, SQRT2, 2 * SQRT2), (12, 3, 3, 375)),
], ids=["k2_dense", "k2_resonant", "k1_dense", "k1_resonant"])
def test_probe_rational_frequencies_enlarge_commutant(k, a, want):
    rep = commutant_dimension_probe(k, a, n_points=500, seed=0)
    assert (rep.dimension, rep.nullity_x, rep.nullity_theta,
            rep.n_basis) == want


def test_probe_rejects_underdetermined_sampling():
    with pytest.raises(ValueError, match="underdetermined"):
        commutant_dimension_probe(2, (1.0, SQRT2), n_points=50)


def test_probe_seed_invariance_of_dimension():
    dims = {
        commutant_dimension_probe(2, (1.0, SQRT2), n_points=500, seed=s).dimension
        for s in range(3)
    }
    assert dims == {6}


@pytest.mark.parametrize("k,a,want", [
    (2, (0.1 + 0.2, 0.3), 30),             # resonant, missed by one rounding
    (1, (1.0, 1.0 + 1e-9, SQRT2), 20),     # detuned below the cutoff
    (1, (1.0, 1.0 + 1e-6, SQRT2), 4),      # detuned above it
], ids=["rounding", "detuned_1e-9", "detuned_1e-6"])
def test_probe_counts_resonances_in_ansatz_units(k, a, want):
    # the cutoff is absolute in units of the unit-norm ansatz columns, so the
    # size of a . q decides, not the direction of T.f alone
    rep = commutant_dimension_probe(k, a, n_points=500, seed=0)
    assert rep.dimension == want
    if want == 4:
        assert rep.gap < 1e3


def _sampled_blocks(k, a, xs, thetas, degree=2, max_freq=2):
    """The probe's ansatz and X on it in closed form, per (alpha, q) block:
    yields (f, xf), the sampled columns x^alpha (cos, sin)(q . theta) (cos
    only for q = 0) and X.f = |alpha| f + T.f, one column per function."""
    qs = [q for q in itertools.product(range(-max_freq, max_freq + 1),
                                       repeat=len(a))
          if not any(q) or [v for v in q if v][0] > 0]
    for alpha in itertools.product(range(degree + 1), repeat=k):
        d = sum(alpha)
        if d > degree:
            continue
        mono = np.prod(xs ** np.array(alpha), axis=1)
        for q in qs:
            phase, aq = thetas @ np.array(q), np.dot(q, a)
            kinds = [(np.cos(phase), -aq * np.sin(phase))]
            if any(q):
                kinds.append((np.sin(phase), aq * np.cos(phase)))
            yield (np.array([mono * trig for trig, _ in kinds]).T,
                   np.array([mono * (d * trig + dtrig)
                             for trig, dtrig in kinds]).T)


def _unit_column_svd(f, xf, c):
    """Singular values of the sampled X - c on the unit-norm columns of f."""
    return np.linalg.svd((xf - c * f) / np.linalg.norm(f, axis=0),
                         compute_uv=False)


def test_probe_gap_matches_the_sampled_operator_on_unit_columns():
    # reference: the tall SVD of the sampled X - c on each (alpha, q) pair's
    # unit-norm columns
    k, a, n_points, seed = 1, np.array([1.0, 1.0 + 1e-6]), 200, 3
    xs, thetas = verify_module._probe_points(k, a.size, n_points, seed)
    smallest, nullity = np.inf, {0: 0, 1: 0}
    for f, xf in _sampled_blocks(k, a, xs, thetas):
        for c in (0, 1):
            sigma = _unit_column_svd(f, xf, c)
            kept = sigma[sigma >= 1e-8]
            nullity[c] += sigma.size - kept.size
            smallest = min(smallest, kept.min(initial=np.inf))
    rep = commutant_dimension_probe(k, a, n_points=n_points, seed=seed)
    assert (rep.nullity_theta, rep.nullity_x) == (nullity[0], nullity[1])
    assert rep.gap < 1e3
    assert rep.gap == pytest.approx(smallest / 1e-8, rel=1e-6)


@pytest.mark.parametrize("k,a", [
    (2, (1.0, SQRT2)), (2, (1.0, 2.0)), (1, (1.0, SQRT2, 2 * SQRT2)),
    (2, (0.1 + 0.2, 0.3)),
], ids=["k2_dense", "k2_resonant", "k1_resonant", "rounding"])
def test_probe_nullities_match_the_whole_sampled_operator(k, a):
    # exactness of the pair split: one tall SVD of the sampled X - c on all
    # unit-norm ansatz columns at once counts the same null directions
    xs, thetas = verify_module._probe_points(k, len(a), 500, 0)
    f, xf = (np.concatenate(cols, axis=1)
             for cols in zip(*_sampled_blocks(k, np.array(a), xs, thetas)))
    nullity = [int(np.sum(_unit_column_svd(f, xf, c) < 1e-8))
               for c in (0, 1)]
    rep = commutant_dimension_probe(k, a, n_points=500, seed=0)
    assert f.shape[1] == rep.n_basis
    assert [rep.nullity_theta, rep.nullity_x] == nullity


def test_probe_rejects_collinear_pair_columns(monkeypatch):
    # every sample point at the same angles: each pair's cos and sin
    # columns are proportional, so the split's full-rank premise fails
    real = verify_module._probe_points

    def same_angles(k, n, n_points, seed):
        xs, thetas = real(k, n, n_points, seed)
        return xs, np.broadcast_to(thetas[:1], thetas.shape)

    monkeypatch.setattr(verify_module, "_probe_points", same_angles)
    with pytest.raises(ValueError, match="collinear"):
        commutant_dimension_probe(2, (1.0, SQRT2), n_points=500, seed=0)


BASIS = (1, SQRT2, np.sqrt(3.0), np.sqrt(5.0), np.e)


def _resonant_modes(rows, max_freq):
    """Modes q with q^T M = 0 exactly, |q|_inf <= max_freq: q = 0 once and
    each {q, -q} pair twice (cos and sin), as the ansatz counts them."""
    m = [[Fraction(c) for c in row] for row in rows]
    pairs = 0
    for q in itertools.product(range(-max_freq, max_freq + 1), repeat=len(m)):
        nz = [v for v in q if v]
        if nz and nz[0] > 0 and all(
                sum(qi * row[j] for qi, row in zip(q, m)) == 0
                for j in range(len(BASIS))):
            pairs += 1
    return 1 + 2 * pairs


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k,n,resonant", [
    (1, 1, False), (1, 2, False), (1, 2, True), (2, 2, False), (2, 2, True),
    (1, 3, False), (1, 3, True), (2, 3, False), (2, 3, True),
])
def test_probe_matches_exact_resonance_count(k, n, resonant, seed):
    # a_i = m_i * BASIS_j(i) with m_i in {1, 2}: a . q is exactly zero on
    # the resonant modes; the resonant rows repeat the first basis element
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(BASIS), size=n, replace=False)
    if resonant:
        idx[-1] = idx[0]
    rows = [[0] * len(BASIS) for _ in range(n)]
    for row, j in zip(rows, idx):
        row[j] = int(rng.integers(1, 3))
    a = tuple(float(sum(c * b for c, b in zip(row, BASIS))) for row in rows)
    r = _resonant_modes(rows, 2)
    assert (r > 1) == resonant
    # 500 points, or the guard's minimum where the ansatz needs more
    n_points = max(500, math.comb(k + 2, k) * 5 ** n + 10)
    rep = commutant_dimension_probe(k, a, n_points=n_points, seed=seed)
    assert rep.dimension == k * k * r + n * r


@pytest.mark.parametrize("k,a", [(1, (1.0, np.e, np.e ** 2)),
                                 (2, (1.0, SQRT2))])
def test_probe_factors_by_pair_block(monkeypatch, k, a):
    # no linear algebra on the (n_points, n_basis) ansatz or a degree block:
    # no np.linalg call sees a matrix wider than 2 columns, and the SVDs are
    # one stacked call per slot and block size, on square blocks
    shapes = {}

    def recording(name, real):
        def call(m, *args, **kwargs):
            shapes.setdefault(name, []).append(np.shape(m))
            return real(m, *args, **kwargs)
        return call

    for name in np.linalg.__all__:
        real = getattr(np.linalg, name)
        if callable(real) and not isinstance(real, type):
            monkeypatch.setattr(np.linalg, name, recording(name, real))
    rep = commutant_dimension_probe(k, a, n_points=500, seed=0)
    assert rep.matches_expected
    assert set(shapes) == {"svd"} and len(shapes["svd"]) == 4
    assert all(s[-1] == s[-2] <= 2 for s in shapes["svd"])
    assert sum(np.prod(s[:-2]) * s[-1] for s in shapes["svd"]) == 2 * rep.n_basis


def test_basis_bracket_residuals_at_fd_noise_floor():
    assert commutant_basis_check(1, (1.0,), n_points=50) < 1e-6
    assert commutant_basis_check(2, (1.0, SQRT2), n_points=50) < 1e-6


def test_conjugation_residual_accepts_true_symmetry():
    X = xi_plus_affine(2, (1.0, SQRT2))
    lam = np.array([0.7, 1.9])

    def F(p):
        out = np.array(p, dtype=float)
        out[:2] *= 2.0
        out[2:] += lam
        return out

    pts = [np.array([0.3, -0.5, 0.1, 0.2]), np.array([-0.8, 0.4, 2.0, 3.0])]
    assert conjugation_residual(F, X, pts, t=5.0) < 1e-6


def test_conjugation_residual_rejects_non_symmetries():
    X = xi_plus_affine(2, (1.0, SQRT2))

    def shear(p):
        out = np.array(p, dtype=float)
        out[2] = p[2] + p[3]
        return out

    def translate(p):
        out = np.array(p, dtype=float)
        out[0] += 1.0
        return out

    pts = [np.array([0.3, -0.5, 0.1, 0.2])]
    assert conjugation_residual(shear, X, pts, t=5.0) >= 1e-2
    assert conjugation_residual(translate, X, pts, t=5.0) >= 1e-2


def test_conjugation_residual_field_calls_are_pinned(monkeypatch):
    # its 2 x 2 rows run as one DOP853 batch at rtol 1e-10: 18 attempts of
    # 12 field calls each, after the first call
    X = xi_plus_affine(1, (1.0,))
    calls = []
    counted = dataclasses.replace(
        X, func=lambda p: calls.append(len(p)) or X.func(p))
    stats = []

    def recording(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        stats.append(traj.stats)
        return traj

    monkeypatch.setattr(verify_module, "integrate", recording)

    def F(p):
        return np.array([2.0 * p[0], p[1] + 0.3])

    pts = [np.array([0.5, 0.1]), np.array([-0.3, 2.0])]
    assert conjugation_residual(F, counted, pts, t=5.0) < 1e-9
    assert [s["rhs_calls"] for s in stats] == [len(calls)] == [1 + 12 * 18]
    assert stats[0]["accepted"] == 69 and stats[0]["rejected"] == 0


def _per_point_conjugation_residual(F, X, pts, t):
    """Two one-point integrations per point, one point at a time."""
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-13)

    def at_t(q):  # samples are chronological, also for t < 0
        return integrate(X, q, (0.0, t), cfg).points[-1 if t >= 0 else 0]

    worst = 0.0
    for p in pts:
        via_map = at_t(np.asarray(F(p), float))
        via_flow = np.asarray(F(at_t(p)), float)
        worst = max(worst, float(X.chart.distance(via_map, via_flow)))
    return worst


@pytest.mark.parametrize("k", [1, 2, 3])
def test_conjugation_residual_matches_per_point_runs(k):
    # maps written for one point: A @ p[:k] fails on a batch (m, d)
    rng = np.random.default_rng(k)
    a = (1.0, SQRT2)
    X = xi_plus_affine(k, a)
    A = np.eye(k) + 0.3 * rng.standard_normal((k, k))
    lam = rng.uniform(0.0, 2 * np.pi, 2)

    def linear(p):
        out = np.array(p, dtype=float)
        out[:k] = A @ p[:k]
        out[k:] += lam
        return out

    def bent(p):
        out = linear(p)
        out[0] += 0.2 * p[0] ** 2
        return out

    pts = [np.concatenate([rng.uniform(-1.0, 1.0, k),
                           rng.uniform(0.0, 2 * np.pi, 2)]) for _ in range(3)]
    for F in (linear, bent):
        want = _per_point_conjugation_residual(F, X, pts, 5.0)
        got = conjugation_residual(F, X, pts, t=5.0)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert conjugation_residual(linear, X, pts, t=5.0) < 1e-6
    assert conjugation_residual(bent, X, pts, t=5.0) >= 1e-2
    assert conjugation_residual(bent, X, [], t=5.0) == 0.0


def test_conjugation_residual_runs_backward_in_time():
    # the points at t < 0 are the batch's earliest samples, not its start
    X = xi_plus_affine(1, (1.0,))

    def bent(p):
        out = np.array(p, dtype=float)
        out[0] += 0.2 * p[0] ** 2
        return out

    pts = [np.array([0.5, 0.1])]
    got = conjugation_residual(bent, X, pts, t=-2.0)
    assert got == pytest.approx(
        _per_point_conjugation_residual(bent, X, pts, -2.0), rel=1e-12)
    assert got >= 1e-3  # 0 when the start points were compared


def test_infinitesimal_mode_agrees_on_pass_fail():
    X = xi_plus_affine(1, (1.0,))
    good = lambda p: np.stack([3.0 * p[..., 0], p[..., 1]], axis=-1)
    bad = lambda p: np.stack([p[..., 0] ** 2, p[..., 1]], axis=-1)
    pts = np.array([[0.4, 0.9]])
    assert np.max(pushforward_residual(good, X.func, pts)) < 1e-8
    assert np.max(pushforward_residual(bad, X.func, pts)) > 1e-2


def test_verify_manifest_passes_for_line_model():
    rep = verify_manifest(build_line_describing("line"), seed=0)
    assert rep.passed
    assert rep.checks["declared_zeros_vanish"]["passed"]
    assert "PASS" in rep.summary()


def test_verify_manifest_with_order_estimation():
    rep = verify_manifest(build_line_describing("circle", n=1, freqs=(1.0,)),
                          seed=0)
    assert rep.passed
    assert rep.checks["orders_match_declared"]["passed"]


def test_verify_manifest_detects_corrupted_orders():
    m = build_s5()
    fibs = m.field.singular_fibers
    fibs = (dataclasses.replace(fibs[0], order=fibs[1].order),) + fibs[1:]
    m = dataclasses.replace(
        m, field=dataclasses.replace(m.field, singular_fibers=fibs))
    rep = verify_manifest(m, seed=0)
    assert not rep.passed
    assert not rep.checks["orders_pairwise_distinct"]["passed"]


def test_base_rule_check_is_made_when_a_rule_is_declared():
    m = build_s5()
    rep = verify_manifest(m, seed=0)
    assert rep.checks["base_rule_matches_field"]["value"] == 0.0
    bare = dataclasses.replace(
        m, field=dataclasses.replace(m.field, base_rule=None))
    assert "base_rule_matches_field" not in verify_manifest(bare).checks

