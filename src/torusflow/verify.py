"""Symmetry verification: commutant probes and conjugation residuals.

The central object is the commutant of X = xi + T on R^k x T^n, the
linear space of fields commuting with X.  For a drift T with rationally
independent frequencies the commutant is spanned by the k^2 fields
x_j d/dx_l and the n fields d/dtheta_r, so its dimension is k^2 + n; any
rational relation between frequencies adds resonant modes and raises it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import flow
from .fields import lie_bracket, xi_plus_affine
from .flow import IntegratorConfig, integrate
from .geometry import TWO_PI

_RANK_EPS = 1e-8  # the probe's rank cutoff, in units of the normalized ansatz


@dataclass
class CommutantProbeReport:
    """What ``commutant_dimension_probe`` measured.

    ``dimension`` is k * nullity_x + n * nullity_theta, the commuting
    fields found within an ansatz of ``n_basis`` functions.  ``gap`` is
    the smallest singular value counted as nonzero, over every (alpha, q)
    pair block and both slots, in units of the 1e-8 rank cutoff: how far
    the kept directions sit above it (inf when every direction is null).
    """

    dimension: int
    expected_dimension: int
    gap: float
    nullity_x: int
    nullity_theta: int
    n_basis: int

    @property
    def matches_expected(self):
        return self.dimension == self.expected_dimension


def _probe_points(k, n, n_points, seed):
    """Sample points shared by the probes: uniform angles, and base
    coordinates 0.3 <= |x_j| <= 1.7 with random signs, generic and bounded
    away from the coordinate hyperplanes."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.3, 1.7, size=(n_points, k))
    xs *= rng.choice([-1.0, 1.0], size=xs.shape)
    thetas = rng.uniform(0.0, TWO_PI, size=(n_points, n))
    return xs, thetas


def _ansatz(k, a, degree, max_freq, xs, thetas):
    """Sample Gram data of the ansatz pairs x^alpha (cos, sin)(q . theta).

    alpha runs over the multi-indices with |alpha| <= degree, and q over
    the integer vectors with |q|_inf <= max_freq, one per {q, -q} pair (the
    first nonzero entry positive), q = 0 first; q = 0 has the cos column
    only.  Returns (deg, aq, cc, ss, cs): |alpha| (n_alpha,), a . q (n_q,),
    and, each (n_alpha, n_q), the squared norms of the cos and sin columns
    over the sample and their inner product: the squared monomials summed
    against cos^2, sin^2 and cos sin of the phases, that is against
    (1 + cos 2 phi) / 2, (1 - cos 2 phi) / 2 and sin 2 phi / 2.
    """
    alphas = np.array(list(np.ndindex((degree + 1,) * k)))
    alphas = alphas[alphas.sum(axis=1) <= degree]
    # exp(2i q . theta) over the grid of q, points last, by products of the
    # powers of exp(2i theta_r), in product (lexicographic) order: zero
    # sits in the middle, and the vectors after it are those with a
    # positive first nonzero
    m = max_freq
    w = np.exp(2j * thetas.T)
    powers = np.ones((2 * m + 1,) + w.shape, dtype=complex)
    for j in range(1, m + 1):
        powers[m + j] = powers[m + j - 1] * w
    powers[:m] = powers[:m:-1].conj()
    wave = powers[:, 0]
    for r in range(1, a.size):
        wave = (wave[:, None] * powers[:, r]).reshape(-1, len(xs))
    qs = np.array(list(np.ndindex((2 * m + 1,) * a.size))) - m
    half = len(qs) // 2
    mono2 = np.prod((xs * xs)[:, None, :] ** alphas, axis=-1)
    g = (wave[half:] @ mono2).T
    # column 0 is q = 0, where the wave is 1: the squared norms of x^alpha
    cc = (g.real[:, :1] + g.real) / 2
    ss = (g.real[:, :1] - g.real) / 2
    return alphas.sum(axis=1), qs[half:] @ a, cc, ss, g.imag / 2


def _nullity(ops):
    """Nullity of a stack of square blocks at the absolute cutoff _RANK_EPS.

    ``ops`` (..., m, m) holds, per block, R times the operator's matrix on
    an ansatz block, where Q R is the block's sample matrix with unit
    columns, so its singular values are those of the sampled operator.
    Returns (nullity summed over the blocks, smallest kept singular
    value), the latter inf when none is kept.
    """
    sigma = np.linalg.svd(ops, compute_uv=False)
    kept = sigma[sigma >= _RANK_EPS]
    return sigma.size - kept.size, float(kept.min()) if kept.size else np.inf


def commutant_dimension_probe(k, a, degree=2, max_freq=2, n_points=500,
                              seed=0):
    """Estimate dim of the commutant of xi + T by least squares over an ansatz.

    Candidate fields have components f(x, theta) = x^alpha * trig(q . theta)
    with |alpha| <= degree and |q|_inf <= max_freq.  The commutation
    condition decouples per component slot into X.f = f (the k base slots)
    and X.f = 0 (the n angle slots), and X acts on the ansatz in closed
    form, so the resulting linear systems are evaluated without finite
    differences.  The reported dimension counts only commuting fields
    representable in the ansatz, which covers the polynomial commutant.

    The systems split exactly into (alpha, q) pair blocks: xi is the Euler
    field, so X - c maps span{x^alpha cos(q . theta), x^alpha sin(q . theta)}
    into itself with the matrix [[d - c, a.q], [-(a.q), d - c]], d = |alpha|
    (a single column x^alpha with the matrix [d - c] for q = 0).  On the
    pair's columns scaled to unit norm over the sample, with Gram matrix
    [[1, rho], [rho, 1]], the sampled operator has the singular values of
    R times the operator's matrix, R = [[1, rho], [0, sqrt(1 - rho^2)]] its
    closed-form 2 x 2 triangular factor, so the sample enters only through
    each pair's two column norms and inner product.  The nullity of a slot
    is the count, over all blocks, of singular values below the rank
    cutoff (1e-8, absolute, in units of the unit-norm ansatz columns), so
    a resonance a.q = 0 that misses by rounding still counts.  The split
    and the count both rest on the sampled ansatz having full column rank,
    which the ``n_points >= n_basis + 10`` generic sample points are there
    to give; a pair whose unit columns are collinear at the cutoff
    (1 - |rho| < 1e-8, the smaller eigenvalue of its Gram matrix) raises
    ``ValueError``.
    """
    a = np.asarray(a, dtype=float)
    n = a.size
    n_basis = math.comb(k + degree, k) * (2 * max_freq + 1) ** n
    if n_points < n_basis + 10:
        raise ValueError(
            f"underdetermined probe: {n_basis} ansatz functions need at "
            f"least {n_basis + 10} sample points, got {n_points}"
        )
    deg, aq, cc, ss, cs = _ansatz(k, a, degree, max_freq,
                                  *_probe_points(k, n, n_points, seed))
    # column 0 is q = 0: one column x^alpha, the rest are the pairs
    cc, ss, cs, aq = cc[:, 1:], ss[:, 1:], cs[:, 1:], aq[1:]
    gn2 = cc * ss
    if not (gn2.min(initial=np.inf) > 0.0
            and np.all(cs * cs <= (1.0 - _RANK_EPS) ** 2 * gn2)):
        raise ValueError("collinear ansatz pair on the sample: the probe "
                         "needs full column rank")
    rho = cs / np.sqrt(gn2)
    r = np.zeros(rho.shape + (2, 2))
    r[..., 0, 0] = 1.0
    r[..., 0, 1] = rho
    r[..., 1, 1] = np.sqrt(1.0 - rho * rho)
    # T on the unit columns sends u_cos to -(a.q) |f_sin| / |f_cos| u_sin
    # and u_sin to (a.q) |f_cos| / |f_sin| u_cos
    ratio = np.sqrt(cc / ss)
    t = np.zeros_like(r)
    t[..., 0, 1] = aq * ratio
    t[..., 1, 0] = -aq / ratio
    # by c: the angle slots need X.f = 0, the base slots X.f = f
    nullity = [0, 0]
    smallest = np.inf
    for c in (0, 1):
        e = deg - c
        for ops in (e[:, None, None],
                    r @ (e[:, None, None, None] * np.eye(2) + t)):
            null, low = _nullity(ops)
            nullity[c] += null
            smallest = min(smallest, low)
    null_t, null_x = nullity
    return CommutantProbeReport(
        dimension=k * null_x + n * null_t,
        expected_dimension=k * k + n,
        gap=smallest / _RANK_EPS,
        nullity_x=null_x,
        nullity_theta=null_t,
        n_basis=n_basis,
    )


def commutant_basis_check(k, a, n_points=1000, h=1e-4, seed=0):
    """Max finite-difference bracket residual of the claimed commutant basis.

    The basis is {x_j d/dx_l} union {d/dtheta_r}, bracketed against
    X = xi + T (``xi_plus_affine``) at random points; all residuals should
    sit at the FD noise floor because every field involved is affine.  The
    fields act on the last axis, so each basis field takes one batched
    ``lie_bracket`` call over all points.
    """
    X = xi_plus_affine(k, a, dense=False)
    n = X.chart.n
    rng = np.random.default_rng(seed)
    pts = np.concatenate(
        [rng.uniform(-2.0, 2.0, size=(n_points, k)),
         rng.uniform(0.0, TWO_PI, size=(n_points, n))], axis=1
    )

    def linear_basis(j, l):
        def fld(p):
            out = np.zeros_like(p)
            out[..., l] = p[..., j]
            return out
        return fld

    def angle_basis(r):
        def fld(p):
            out = np.zeros_like(p)
            out[..., k + r] = 1.0
            return out
        return fld

    basis = [linear_basis(j, l) for j in range(k) for l in range(k)]
    basis += [angle_basis(r) for r in range(n)]
    return max(float(np.linalg.norm(lie_bracket(fld, X.func, pts, h),
                                    axis=1).max()) for fld in basis)


def conjugation_residual(F, fld, points, t=5.0):
    """How far a map F is from commuting with the flow of a field.

    Max over points of the chart distance between flow_t(F(p)) and
    F(flow_t(p)), for t of either sign.  ``F`` is called on one point (d,)
    at a time; the 2 len(points) starts F(p) and p run as one batch, at
    rtol 1e-10 and atol 1e-13.  Its infinitesimal form,
    ||DF(p) X(p) - X(F(p))||, is ``fields.pushforward_residual``.
    """
    points = [np.asarray(p, dtype=float) for p in points]
    if not points:
        return 0.0
    starts = np.array([F(p) for p in points] + points, dtype=float)
    traj = integrate(fld, starts, (0.0, t),
                     IntegratorConfig(rtol=1e-10, atol=1e-13))
    ends = traj.end if t >= 0 else traj.start  # the points at time t
    via_flow = np.array([F(q) for q in ends[len(points):]], dtype=float)
    return float(np.max(fld.chart.distance(ends[:len(points)], via_flow)))


# ---------------------------------------------------------------------------
# manifest verification


# Each check's tol, and whether it bounds the value from above (the check
# passes at value <= tol) or from below (value >= tol).
_BOUNDS = {
    "declared_zeros_vanish": (1e-12, True),
    "orders_pairwise_distinct": (1.0, False),
    "flow_commutes_with_action": (1e-12, True),
    "base_rule_matches_field": (1e-13, True),
    "orders_match_declared": (0.2, True),
}


@dataclass
class VerificationReport:
    name: str
    checks: dict

    @property
    def passed(self):
        return all(c["passed"] for c in self.checks.values())

    def summary(self):
        lines = [f"{self.name}: {'PASS' if self.passed else 'FAIL'}"]
        for key, c in self.checks.items():
            status = "ok" if c["passed"] else "FAIL"
            lines.append(f"  [{status}] {key}: {c['value']:.3g}"
                         f" (tol {c['tol']:.3g})")
        return "\n".join(lines)


def verify_manifest(manifest, seed=0):
    """Run the certification checks recorded in a construction manifest.

    Each check measures a value, and ``_BOUNDS`` gives its tol and the
    side it bounds.  A relative value is divided by max |X(p)| (floored at
    1e-300) over 256 points p over ``chart.sample_base`` points at random
    fiber angles, so c X gets the verdict of X for any constant c != 0.
    Always made: declared zeros are zeros (relative |X| <= 1e-12);
    declared orders are pairwise distinct (1.0 if so, else 0.0, bounded
    from below by 1.0); the nullity order of every declared fiber,
    estimated by log-log regression, is within 0.2 of the declaration (a
    fit with r^2 < 0.99 deviates by inf).  On a chart with a torus, X is
    torus invariant: the relative max |X(lambda.p) - D lambda X(p)| over
    the 256 points and 8 random lambda is at most 1e-12, in two batched
    field calls.  D lambda is the identity on the product charts and the
    rotation lambda on S^5.  For a complete X this holds exactly when every
    lambda commutes with the flow of X, which is what the check's name
    says; no flow is integrated.  A field that declares a ``base_rule``
    gets it compared with the base tangent of the lifted field at 64
    seeded base points, edge points of the S^5 triangle among them
    (relative tolerance 1e-13).
    """
    fld = manifest.field
    chart = fld.chart
    fibers = fld.singular_fibers
    rng = np.random.default_rng(seed)
    # the scale sample and all torus elements but the first come from a
    # second stream, so ``rng`` draws one element and then the base-rule
    # points, on every seed
    aux = np.random.default_rng([seed, 1])
    ps = chart.lift(chart.sample_base(aux, 256))
    ps = chart.act(aux.uniform(0.0, TWO_PI, size=(256, chart.n)), ps)
    xp = fld.func(ps)
    scale = max(float(np.max(np.linalg.norm(xp, axis=-1))), 1e-300)
    values = {"declared_zeros_vanish": float(np.max(
        [np.linalg.norm(fld.func(chart.lift(f.point()))) for f in fibers],
        initial=0.0)) / scale}
    orders = [f.order for f in fibers]
    values["orders_pairwise_distinct"] = float(len(set(orders)) == len(orders))

    if chart.n > 0:
        lams = np.concatenate([rng.uniform(0.0, TWO_PI, size=(1, chart.n)),
                               aux.uniform(0.0, TWO_PI, size=(7, chart.n))])
        moved = chart.act(lams[:, None], ps)
        got = fld.func(moved.reshape(-1, chart.dim)).reshape(moved.shape)
        want = chart.act(lams[:, None], xp) if chart.is_sphere else xp
        values["flow_commutes_with_action"] = float(np.max(
            np.linalg.norm(got - want, axis=-1))) / scale

    if fld.base_rule is not None:
        xs = chart.sample_base(rng, 64)
        if chart.is_sphere:
            # a third of the points on the edges, where the lift clamps
            # its radii and the edge factor of tau cancels
            edge = xs[:21]
            edge[0::3, 0] = 0.0
            edge[1::3, 1] = 0.0
            edge[2::3] /= edge[2::3].sum(axis=1, keepdims=True)
        ys = chart.lift(xs)
        want = chart.base_tangent(ys, fld.func(ys))
        miss = np.linalg.norm(fld.base_rule(xs) - want, axis=-1)
        values["base_rule_matches_field"] = float(np.max(
            miss / np.maximum(np.linalg.norm(want, axis=-1), 1e-300)))

    reps = [flow.estimate_order(fld, chart.lift(f.point())) for f in fibers]
    values["orders_match_declared"] = max(
        [abs(r.estimated_order - f.order) if r.ok else math.inf
         for r, f in zip(reps, fibers)], default=0.0)

    checks = {}
    for name, value in values.items():
        tol, upper = _BOUNDS[name]
        checks[name] = {"passed": value <= tol if upper else value >= tol,
                        "value": value, "tol": tol}
    return VerificationReport(name=manifest.name, checks=checks)
