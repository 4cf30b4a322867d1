"""Independent answers for every operation the benchmark runs.

Nothing here calls the numerical routines under test: each oracle is a
closed form or an exact enumeration derived from the model definitions
(see the README of this directory for the derivations).  The only things
taken from the package are the model constants (zero locations, labels,
frequencies), which are inputs, not outputs.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi

# ---------------------------------------------------------------------------
# one-dimensional bases: zeros, labels and the sign of Y between zeros

LINE_ZEROS = (0.0, 1.0, 2.0, 3.0, 4.0)
CIRCLE_ZEROS = tuple(j * math.pi / 3.0 for j in range(6))
# sources alternate with sinks; sinks carry the model's "sink_<loc:.6g>" label
LINE_LABELS = {z: (f"source_{i // 2}" if i % 2 == 0 else f"sink_{z:.6g}")
               for i, z in enumerate(LINE_ZEROS)}
CIRCLE_LABELS = {i: (f"source_{i // 2}" if i % 2 == 0 else f"sink_{z:.6g}")
                 for i, z in enumerate(CIRCLE_ZEROS)}

# q(x) = x (x-1)(x-2)(x-3)(x-4), Y = q / (q^2 + 1) on the line
_Q = np.poly(LINE_ZEROS)
_DQ = np.polyder(_Q)
_IQ = np.polyint(_Q)
_RESIDUES = tuple(1.0 / np.polyval(_DQ, r) for r in LINE_ZEROS)


def line_sign(x):
    """Sign of Y = q / (q^2 + 1), which is the sign of q."""
    return np.sign(np.polyval(_Q, np.asarray(x, dtype=float)))


def line_primitive(x):
    """P(x) = integral of (q + 1/q) dx, with 1/q split into partial fractions.

    Along any orbit of the line model d(theta_r)/dx = a_r / Y(x) = a_r (q + 1/q),
    so theta_r - theta_r(0) = a_r [P(x) - P(x0)] while x stays between two
    consecutive zeros of q.
    """
    x = np.asarray(x, dtype=float)
    out = np.polyval(_IQ, x)
    for r, c in zip(LINE_ZEROS, _RESIDUES):
        out = out + c * np.log(np.abs(x - r))
    return out


def circle_primitive(alpha):
    """P(alpha) = integral of d(alpha) / sin(3 alpha) = (1/3) ln|tan(3 alpha / 2)|."""
    alpha = np.asarray(alpha, dtype=float)
    return np.log(np.abs(np.tan(1.5 * alpha))) / 3.0


def line_limit(x, direction):
    """(kind, label) of the forward or backward limit of x on the line base."""
    sgn = float(line_sign(x)) * (1.0 if direction == "forward" else -1.0)
    for z in LINE_ZEROS:
        if x == z:
            return "singular_fiber", LINE_LABELS[z]
    if sgn > 0:
        nxt = [z for z in LINE_ZEROS if z > x]
    else:
        nxt = [z for z in LINE_ZEROS if z < x]
    if not nxt:
        return "escape", None
    z = min(nxt) if sgn > 0 else max(nxt)
    return "singular_fiber", LINE_LABELS[z]


def circle_limit(alpha, direction):
    """(kind, label) of the limit of base angle alpha under Y = sin(3 alpha)."""
    alpha = float(np.mod(alpha, TWO_PI))
    j = int(alpha // (math.pi / 3.0))
    sgn = math.sin(3.0 * alpha) * (1.0 if direction == "forward" else -1.0)
    target = (j + 1) % 6 if sgn > 0 else j
    return "singular_fiber", CIRCLE_LABELS[target]


def nearest_source_1d(x, sources, angular):
    """Index of the nearest source (shortest arc on the circle)."""
    x = np.asarray(x, dtype=float)[:, None]
    s = np.asarray(sources, dtype=float)[None, :]
    d = np.abs(x - s)
    if angular:
        d = np.minimum(np.mod(d, TWO_PI), TWO_PI - np.mod(d, TWO_PI))
    return np.argmin(d, axis=1)


# ---------------------------------------------------------------------------
# backward basin census: per-sample expected label


def ray_clearance(z, x0):
    """Distance from point z to the outward ray {t x0 : t >= 1}."""
    z = np.asarray(z, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    t = max(1.0, float(x0 @ z) / float(x0 @ x0))
    return float(np.linalg.norm(t * x0 - z))


def _segment_distance(z, x0):
    """Distance from point z to the segment [0, x0] (rows of x0)."""
    x0 = np.asarray(x0, dtype=float)
    nn = np.sum(x0 * x0, axis=1)
    t = np.clip((x0 @ z) / np.where(nn > 0, nn, 1.0), 0.0, 1.0)
    return np.linalg.norm(t[:, None] * x0 - z, axis=1)


def s5_orbit(x0, u):
    """Backward base orbit on the triangle, parametrized by u in (0, 1].

    Every base coordinate obeys dx_r/ds = x_r (1/4 - x_r) after the positive
    time change the census applies, so x_r = (1/4) / (1 + C_r u) with
    C_r = 1 / (4 x_r(0)) - 1; u = 1 is the start, u -> 0 the source.
    """
    c = 1.0 / (4.0 * np.asarray(x0, dtype=float)) - 1.0
    u = np.asarray(u, dtype=float)
    return 0.25 / (1.0 + c[..., None, :] * u[..., :, None])


def _s5_orbit_distance(z, x0):
    """Closest approach of each sample's backward orbit to point z."""
    u = np.linspace(0.0, 1.0, 2049)
    pts = s5_orbit(x0, u)                       # (m, nu, 2)
    d = np.linalg.norm(pts - z, axis=-1)
    j = np.argmin(d, axis=1)
    lo = u[np.maximum(j - 1, 0)]
    hi = u[np.minimum(j + 1, len(u) - 1)]
    for _ in range(60):                         # golden-section refinement
        m1 = lo + 0.382 * (hi - lo)
        m2 = lo + 0.618 * (hi - lo)
        d1 = np.linalg.norm(_orbit_at(x0, m1) - z, axis=-1)
        d2 = np.linalg.norm(_orbit_at(x0, m2) - z, axis=-1)
        left = d1 < d2
        hi = np.where(left, m2, hi)
        lo = np.where(left, lo, m1)
    return np.linalg.norm(_orbit_at(x0, 0.5 * (lo + hi)) - z, axis=-1)


def _orbit_at(x0, u):
    """One orbit point per sample: x_r = (1/4) / (1 + C_r u_i)."""
    c = 1.0 / (4.0 * np.asarray(x0, dtype=float)) - 1.0
    return 0.25 / (1.0 + c * np.asarray(u, dtype=float)[:, None])


def census_orbit_clearance(scenario, xs, zeros):
    """Closest approach of each sample's backward orbit to each zero.

    Returns an (m, len(zeros)) array.  1-D orbits move monotonically away
    from the zeros they start next to, so their closest approach is the
    start itself; planar orbits are the segments to the origin; S^5 orbits
    are the logistic curves of ``s5_orbit``.
    """
    xs = np.asarray(xs, dtype=float)
    cols = []
    for z in zeros:
        z = np.asarray(z, dtype=float)
        if scenario == "line":
            cols.append(np.abs(xs[:, 0] - z[0]))
        elif scenario == "circle":
            d = np.mod(np.abs(xs[:, 0] - z[0]), TWO_PI)
            cols.append(np.minimum(d, TWO_PI - d))
        elif scenario == "planar":
            cols.append(_segment_distance(z, xs))
        else:
            cols.append(_s5_orbit_distance(z, xs))
    return np.stack(cols, axis=1)


def census_expected_labels(scenario, xs, sources, zero_fibers, fiber_tol):
    """Per-sample backward-limit labels of a census.

    ``sources`` are the source base points, ``zero_fibers`` the (label,
    base point) pairs of the marked zeros.  On the 1-D bases the answer is
    the nearest source; planar and S^5 orbits all end at source_0.  A
    sample whose orbit passes within ``fiber_tol`` of a marked zero is
    captured there instead.
    """
    xs = np.asarray(xs, dtype=float)
    if scenario in ("line", "circle"):
        idx = nearest_source_1d(xs[:, 0], [s[0] for s in sources],
                                angular=scenario == "circle")
        labels = [f"source_{i}" for i in idx]
    else:
        labels = ["source_0"] * len(xs)
    if zero_fibers:
        clear = census_orbit_clearance(scenario, xs,
                                       [p for _, p in zero_fibers])
        for i in np.nonzero(clear.min(axis=1) < fiber_tol)[0]:
            labels[i] = zero_fibers[int(np.argmin(clear[i]))][0]
    return labels


def census_ambiguous(scenario, xs, zeros, fiber_tol, factor=4.0):
    """Samples whose closest approach to a zero lies within a factor of fiber_tol.

    On such a sample the captured-or-not answer turns on where the
    integrator's step ends, which no closed form decides; generators
    resample them.
    """
    if not zeros:
        return np.zeros(len(xs), dtype=bool)
    clear = census_orbit_clearance(scenario, xs, zeros)
    return np.any((clear > fiber_tol / factor) & (clear < fiber_tol * factor),
                  axis=1)


def label_counts(labels):
    out = {}
    for lbl in labels:
        out[lbl] = out.get(lbl, 0) + 1
    return out


# ---------------------------------------------------------------------------
# trajectories of `torusflow trace`: closed-form base-fiber relations


def wrap_pi(a):
    return np.mod(np.asarray(a, dtype=float) + math.pi, TWO_PI) - math.pi


def trace_errors(scenario, freqs, rows):
    """Relative error of each trajectory row against the closed form.

    ``rows`` are the (t, y...) rows of a trace CSV, the first being p0.
    Returns per-row max over fiber angles of |wrapped angle error| divided
    by max(1, |accumulated angle|), plus, for the planar base, the drift of
    the direction x / |x|.
    """
    rows = np.asarray(rows, dtype=float)
    a = np.asarray(freqs, dtype=float)
    pts = rows[:, 1:]
    if scenario == "line":
        base, ang = pts[:, 0], pts[:, 1:]
        dp = line_primitive(base) - line_primitive(base[0])
    elif scenario == "circle":
        base, ang = pts[:, 0], pts[:, 1:]
        dp = circle_primitive(base) - circle_primitive(base[0])
    elif scenario == "planar":
        x, ang = pts[:, :2], pts[:, 2:]
        r = np.linalg.norm(x, axis=1)
        dp = np.log(r / r[0])
    else:
        raise ValueError(f"no closed form for scenario {scenario!r}")
    want = dp[:, None] * a[None, :]
    err = np.abs(wrap_pi(ang - ang[0] - want))
    rel = np.max(err / np.maximum(1.0, np.abs(want)), axis=1)
    if scenario == "planar":
        u = x / r[:, None]
        rel = np.maximum(rel, np.linalg.norm(u - u[0], axis=1))
    return rel


# ---------------------------------------------------------------------------
# conjugation residual of maps against the exact flow of xi + T


def exact_flow_xi_affine(k, a, p, t):
    """Flow of X = xi + T on R^k x T^n: (e^t x, theta + t a), angles unwrapped."""
    p = np.asarray(p, dtype=float)
    out = p.copy()
    out[..., :k] = math.exp(t) * p[..., :k]
    out[..., k:] = p[..., k:] + t * np.asarray(a, dtype=float)
    return out


def chart_distance(k, p, q):
    """Euclidean on the R^k block, shortest arc on each angle."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d_lin = p[..., :k] - q[..., :k]
    d_ang = wrap_pi(p[..., k:] - q[..., k:])
    return np.sqrt(np.sum(d_lin ** 2, axis=-1) + np.sum(d_ang ** 2, axis=-1))


def conjugation_residual_exact(F, k, a, points, t):
    """max_p dist(phi_t(F(p)), F(phi_t(p))) with the exact flow phi_t."""
    worst = 0.0
    for p in points:
        p = np.asarray(p, dtype=float)
        via_map = exact_flow_xi_affine(k, a, F(p), t)
        via_flow = np.asarray(F(exact_flow_xi_affine(k, a, p, t)), dtype=float)
        worst = max(worst, float(chart_distance(k, via_map, via_flow)))
    return worst


# ---------------------------------------------------------------------------
# radial equation xi . f = g and the fiber-drift normal form


class Poly:
    """Polynomial sum of c_alpha x^alpha, evaluated on the last axis.

    Used both as an input g of the radial solver and, through
    ``radial_solution``, as its closed-form answer.
    """

    def __init__(self, coeffs):
        self.coeffs = dict(coeffs)
        self.k = len(next(iter(self.coeffs)))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for alpha, c in self.coeffs.items():
            term = np.full(x.shape[:-1], c)
            for j, e in enumerate(alpha):
                for _ in range(e):
                    term = term * x[..., j]
            out = out + term
        return out

    def at_zero(self):
        return self.coeffs.get((0,) * self.k, 0.0)

    def radial_solution(self, x):
        """f = sum over alpha != 0 of c_alpha x^alpha / |alpha|.

        Each monomial is homogeneous, xi . x^alpha = |alpha| x^alpha, so
        this solves xi . f = g - g(0) exactly.
        """
        return Poly({al: c / sum(al) for al, c in self.coeffs.items()
                     if sum(al)})(x)


def sin_radial_solution(x):
    """f = x2 (1 - cos x1) / x1 solves xi . f = sin(x1) x2 (limit 0 at x1 = 0)."""
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    safe = np.where(x1 == 0.0, 1.0, x1)
    return np.where(x1 == 0.0, 0.0, x2 * (1.0 - np.cos(x1)) / safe)


# ---------------------------------------------------------------------------
# commutant dimension by exact enumeration

# Q-linearly independent reals: 1, square roots of distinct square-free
# integers, and e (transcendental, so outside their span).
BASIS = (1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0), math.e)


def frequencies_from_basis(rows):
    """Numeric frequencies a_i = sum_j M_ij BASIS_j for an integer matrix M."""
    return tuple(float(sum(int(c) * b for c, b in zip(row, BASIS)))
                 for row in rows)


def resonant_mode_count(rows, max_freq):
    """R = trig modes q with a . q = 0 exactly, |q|_inf <= max_freq.

    Counts q = 0 once and each {q, -q} pair twice (its cos and sin), as the
    ansatz does.  a . q = sum_j (q^T M)_j BASIS_j vanishes exactly iff
    q^T M = 0, which integer arithmetic decides.
    """
    m = [[Fraction(int(c)) for c in row] for row in rows]
    n = len(m)
    pairs = 0
    for q in itertools.product(range(-max_freq, max_freq + 1), repeat=n):
        nz = [v for v in q if v]
        if not nz or nz[0] < 0:
            continue
        if all(sum(q[i] * m[i][j] for i in range(n)) == 0
               for j in range(len(BASIS))):
            pairs += 1
    return 1 + 2 * pairs


def commutant_dimension(k, n, r_modes):
    """dim = k^2 R + n R: linear fields x_j d/dx_l and constant angle fields,
    each times every resonant trig mode."""
    return k * k * r_modes + n * r_modes


# ---------------------------------------------------------------------------
# Haar averaging: exact zero modes


def trig_field_zero_mode(coeffs, x):
    """Zero Fourier mode of a trig-polynomial field on R^k x T^n.

    ``coeffs`` maps (slot, q) -> (cos coefficient vector over x-monomials
    [1, x_1..x_k], sin coefficient vector); only q = 0 survives averaging.
    """
    x = np.asarray(x, dtype=float)
    mono = np.concatenate([np.ones(x.shape[:-1] + (1,)), x], axis=-1)
    slots = max(s for s, _ in coeffs) + 1
    out = np.zeros(x.shape[:-1] + (slots,))
    for (slot, q), (cvec, _svec) in coeffs.items():
        if not any(q):
            out[..., slot] += mono @ np.asarray(cvec, dtype=float)
    return out


def s5_linear_zero_mode(M):
    """Torus average of the linear field y -> M y on R^6 under pair rotations.

    Off-diagonal 2x2 blocks average to zero (independent angles); a
    diagonal block B averages to its rotation-commuting part
    (tr B / 2) I + ((B21 - B12) / 2) J.  The integrand is a trig polynomial
    of degree 2 in each angle, so any grid of 3 or more nodes is exact.
    """
    M = np.asarray(M, dtype=float)
    out = np.zeros((6, 6))
    for j in range(3):
        b = M[2 * j:2 * j + 2, 2 * j:2 * j + 2]
        s = 0.5 * (b[0, 0] + b[1, 1])
        w = 0.5 * (b[1, 0] - b[0, 1])
        out[2 * j:2 * j + 2, 2 * j:2 * j + 2] = [[s, -w], [w, s]]
    return out


def rotate_s5(lam, y):
    """Pair rotation of S^5 by angles lam (own copy, for invariance checks)."""
    lam = np.asarray(lam, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.empty(np.broadcast_shapes(lam.shape[:-1], y.shape[:-1]) + (6,))
    for j in range(3):
        c, s = np.cos(lam[..., j]), np.sin(lam[..., j])
        out[..., 2 * j] = c * y[..., 2 * j] - s * y[..., 2 * j + 1]
        out[..., 2 * j + 1] = s * y[..., 2 * j] + c * y[..., 2 * j + 1]
    return out
