"""Vector field library and numerical field calculus.

Field evaluation rules are plain callables operating on the last axis, so
every library field accepts batched points.  The S^5 describing field is
evaluated in closed form on the (..., 3, 2) coordinate-pair view of a
point, in one pass; the generator fields it is built from (the lifted base
field, the connection fields and the rotation generators) stay public as
its reference.  Its rule and ``tau_s5`` keep a complex input complex, so a
complex step through them gives a directional derivative to rounding.
Brackets and pushforwards are computed with central finite differences,
all through one batched kernel (``batched_jacobian``); the callables they
are given must act on the last axis as well, mapping each row of a batch
to one output row.  Nothing here is symbolic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import Chart, base_projection_pi, pair_radii

E = float(np.e)

DEFAULT_FD_STEP = 1e-4


@dataclass(frozen=True)
class SingularFiber:
    """A declared zero fiber of a field: base location plus nullity order."""

    label: str
    base_point: tuple
    order: int

    def point(self):
        return np.asarray(self.base_point, dtype=float)


@dataclass(frozen=True)
class FieldHandle:
    """Named deterministic evaluation rule point -> tangent vector.

    ``singular_fibers`` lists declared zeros with their nullity orders;
    ``sources`` lists base points of invariant tori that act as sources of
    the base dynamics (the field itself does not vanish there).
    ``base_rule``, if given, maps base points x (m, base_dim) to the base
    tangent of the field over them, bit for bit what
    ``chart.base_tangent(lift(x), func(lift(x)))`` gives: the base runner
    evaluates it instead of the field, once it has checked the two agree.
    ``dataclasses.replace`` with a new ``func`` keeps the old rule.
    """

    name: str
    chart: Chart
    func: Callable[[np.ndarray], np.ndarray]
    singular_fibers: tuple = ()
    sources: tuple = ()
    base_rule: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, p):
        return np.asarray(self.func(np.asarray(p, dtype=float)), dtype=float)


def field_scale(name, scalar_fn, base_field):
    """Multiply a field by a scalar function of the point."""

    def func(p):
        s = np.asarray(scalar_fn(p), dtype=float)
        return s[..., None] * base_field.func(p)

    return FieldHandle(
        name,
        base_field.chart,
        func,
        singular_fibers=base_field.singular_fibers,
        sources=base_field.sources,
    )


# ---------------------------------------------------------------------------
# library fields: product charts


def rational_relation(a):
    """Search for a small integer relation |sum(m_i a_i)| < 1e-9.

    The coefficients are bounded by |m_i| <= 50 for up to 3 frequencies and
    by 10 beyond.  Returns the smallest relation found as an integer tuple,
    or None.  Only a heuristic: absence of a small relation proves nothing.
    """
    tol = 1e-9
    a = np.asarray(a, dtype=float)
    n = a.size
    if n == 1:
        return None if abs(a[0]) > tol else (1,)
    small = np.flatnonzero(np.abs(a) < tol)
    if small.size:
        # -e_i is a relation of the least size, first in the grid order
        return tuple(-int(i == small[0]) for i in range(n))
    bound = 50 if n <= 3 else 10
    head = np.indices((2 * bound + 1,) * (n - 1)).reshape(n - 1, -1).T - bound
    # every last coefficient with |head . a' + m a_n| < tol <= |a_n| lies
    # within 1 of -head . a' / a_n: try its floor and the next integer
    last = np.floor(-(head @ a[:-1]) / a[-1])[:, None] + (0, 1)
    grid = np.concatenate(
        [np.repeat(head, 2, axis=0), last.reshape(-1, 1)], axis=1
    ).astype(int)
    mask = ((np.abs(grid @ a) < tol) & (np.abs(grid[:, -1]) <= bound)
            & np.any(grid != 0, axis=1))
    if not np.any(mask):
        return None
    hits = grid[mask]
    # report the smallest relation, the first in the grid order on ties
    best = hits[np.argmin(np.sum(np.abs(hits), axis=1))]
    return tuple(int(m) for m in best)


def xi_plus_affine(k, a, dense=True):
    """X = xi + T on R^k x T^n: radial in x, constant a on the angles."""
    a = np.asarray(a, dtype=float)
    if a.size < 1:
        raise ValueError("need at least one frequency")
    if dense and (relation := rational_relation(a)) is not None:
        warnings.warn(f"frequencies {tuple(a)} declared dense but admit the "
                      f"integer relation {relation}", stacklevel=2)
    chart = Chart("product", k=k, n=a.size)

    def func(p):
        p = np.asarray(p, dtype=float)
        out = p.copy()
        out[..., k:] = a
        return out

    return FieldHandle("xi+T", chart, func)


# ---------------------------------------------------------------------------
# library fields: the 5-sphere

_SPHERE = Chart("sphere5")


def fundamental_fields_s5():
    """The three rotation generators U_j of the T^3-action on S^5."""

    def make(j):
        def func(y):
            y = np.asarray(y, dtype=float)
            out = np.zeros_like(y)
            out[..., 2 * j] = -y[..., 2 * j + 1]
            out[..., 2 * j + 1] = y[..., 2 * j]
            return out

        return FieldHandle(f"U{j + 1}", _SPHERE, func)

    return make(0), make(1), make(2)


def connection_fields_s5():
    """Horizontal fields V_1, V_2 spanning the flat connection off S.

    V_r is tangent to the sphere and projects to 2*x_r*(1-x1-x2) d/dx_r
    under pi.  (The projection picks up the factor x_r from the chain rule;
    it is not constant in x_r.)
    """

    def make(r):
        def func(y):
            y = np.asarray(y, dtype=float)
            top = y[..., 4] ** 2 + y[..., 5] ** 2
            pair = y[..., 2 * r] ** 2 + y[..., 2 * r + 1] ** 2
            out = np.zeros_like(y)
            out[..., 2 * r] = top * y[..., 2 * r]
            out[..., 2 * r + 1] = top * y[..., 2 * r + 1]
            out[..., 4] = -pair * y[..., 4]
            out[..., 5] = -pair * y[..., 5]
            return out

        return FieldHandle(f"V{r + 1}", _SPHERE, func)

    return make(0), make(1)


S5_ZERO_FIBERS = (
    SingularFiber("fiber_1/8_1/8", (0.125, 0.125), 2),
    SingularFiber("fiber_1/8_1/4", (0.125, 0.25), 4),
    SingularFiber("fiber_1/4_1/8", (0.25, 0.125), 6),
)
# the order of tau_s5's zero on the triangle's edges, the singular set
_S5_EDGE_ORDER = 10


def tau_s5(x):
    """Damping factor on the base triangle.

    Nonnegative, zero exactly on the triangle boundary (order >= 10 through
    the envelope x1^10 x2^10 (1-x1-x2)^10) and at (1/8,1/8), (1/8,1/4),
    (1/4,1/8) with orders 2, 4 and 6.  Keeps a complex input complex.
    """
    x = np.asarray(x)
    return _tau_s5(x[..., 0], x[..., 1])


def _tau_s5(x1, x2):
    """``tau_s5`` on the columns x1 and x2."""
    rho2 = (x1 * x2 * (1.0 - x1 - x2)) ** 2
    rho8 = (rho2 * rho2) ** 2
    # squared distances to the zeros of S5_ZERO_FIBERS, sharing (x_i - 1/8)^2
    u1, u2 = (x1 - 0.125) ** 2, (x2 - 0.125) ** 2
    d1, d2, d3 = u1 + u2, u1 + (x2 - 0.25) ** 2, (x1 - 0.25) ** 2 + u2
    return rho8 * rho2 * d1 * d2 * d2 * d3 * d3 * d3


def lifted_field_s5():
    """Horizontal lift Y' of the base field, extended over all of S^5.

    Y' = (y1^2+y2^2)(y3^2+y4^2) [ (y1^2+y2^2-1/4) V1 + (y3^2+y4^2-1/4) V2 ].
    """
    v1, v2 = connection_fields_s5()

    def func(y):
        y = np.asarray(y, dtype=float)
        x = base_projection_pi(y)
        pref = x[..., 0] * x[..., 1]
        return pref[..., None] * (
            (x[..., 0] - 0.25)[..., None] * v1.func(y)
            + (x[..., 1] - 0.25)[..., None] * v2.func(y)
        )

    return FieldHandle("Yprime", _SPHERE, func)


def describing_field_s5(freqs=(1.0, E, E * E)):
    """X' = (tau o pi) (Y' + f1 U1 + f2 U2 + f3 U3) on S^5.

    Vanishes exactly on the singular set S of the action and on the three
    fibers over the interior zeros of tau; invariant under the action.
    Evaluated in closed form, one pass over the coordinate pairs; the
    generator fields ``lifted_field_s5`` and ``fundamental_fields_s5`` are
    its reference.  The rule keeps a complex input complex.
    """
    f = np.array(freqs, dtype=float)

    def func(y):
        # per pair j: tau (c_j (a_j, b_j) + f_j (-b_j, a_j)), with c_j the
        # coefficient of (a_j, b_j) in Y' = x1 x2 sum_r (x_r - 1/4) V_r
        y = np.asarray(y)
        pairs = y.reshape(y.shape[:-1] + (3, 2))
        a, b = pairs[..., 0], pairs[..., 1]
        r = a * a + b * b
        t = tau_s5(r[..., :2])[..., None]
        w = (r[..., 0] * r[..., 1])[..., None] * (r[..., :2] - 0.25)
        c = np.empty(r.shape, np.result_type(y, 1.0))
        c[..., :2] = w * r[..., 2:]
        c[..., 2] = -(w[..., 0] * r[..., 0] + w[..., 1] * r[..., 1])
        c *= t
        ft = t * f
        out = np.empty(pairs.shape, c.dtype)
        out[..., 0] = c * a - ft * b
        out[..., 1] = c * b + ft * a
        return out.reshape(y.shape)

    return FieldHandle(
        "Xprime_s5", _SPHERE, func,
        singular_fibers=S5_ZERO_FIBERS,
        sources=((0.25, 0.25),),
        base_rule=_s5_base_rule,
    )


def _s5_base_rule(x):
    """pi_* X' over embed_s5(x): 2 a_j (c_j a_j) for the pairs j = 1, 2.

    The lift has b_j = 0, so the rotation terms drop out.  The radii and
    c_j are those the field rule computes there, the edge factor of tau
    included (taken from the clamped radii, not from x), so the rule gives
    the lifted path's bits: the + 0.0 is the b_j term of ``base_tangent``,
    which turns a -0 into +0 as it does there.
    """
    a = pair_radii(x)
    r = a * a
    t = _tau_s5(r[..., 0], r[..., 1])[..., None]
    w = (r[..., 0] * r[..., 1])[..., None] * (r[..., :2] - 0.25)
    c = w * r[..., 2:] * t
    a = a[..., :2]
    return 2 * (a * (c * a) + 0.0)


# ---------------------------------------------------------------------------
# the recipe X' = tau (Y + T) on product and circle charts


def _describing_field(name, chart, parts, a, fibers, sources):
    """X' = tau (Y + T): base dynamics Y damped by tau, plus the drift a.

    ``parts`` is the model's kernel: it maps base points x (..., base_dim)
    to the damping tau (..., 1) and to Y (..., base_dim) in one pass.  x
    keeps its last axis, so one point runs the array operations of a batch
    row and gets its bits.  The drift a is constant on the fiber angles.
    The field writes (Y, a) and scales it by tau in place; the base rule
    tau Y takes the same kernel, so it gives the lifted field's base
    tangent bit for bit.
    """
    bd = chart.base_dim
    a = np.asarray(a, dtype=float)

    def func(p):
        p = np.asarray(p, dtype=float)
        t, y = parts(p[..., :bd])
        out = np.empty_like(p)
        out[..., :bd] = y
        out[..., bd:] = a
        out *= t
        return out

    def base_rule(x):
        t, y = parts(np.asarray(x, dtype=float))
        return t * y

    return FieldHandle(name, chart, func, singular_fibers=fibers,
                       sources=sources, base_rule=base_rule)


# ---------------------------------------------------------------------------
# one-dimensional-base models

LINE_SOURCES = (0.0, 2.0, 4.0)
LINE_SINK_ORDERS = ((1.0, 2), (3.0, 4))
CIRCLE_SOURCES = (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)
CIRCLE_SINK_ORDERS = (
    (np.pi / 3.0, 2),
    (np.pi, 4),
    (5.0 * np.pi / 3.0, 6),
)
_LINE_ROOTS = np.arange(5.0)
_CIRCLE_SINKS = np.array([loc for loc, _ in CIRCLE_SINK_ORDERS])


def _line_parts(x):
    """tau = (x-1)^2 (x-3)^4 / (1+x^2)^3, bounded on R, and Y = q/(q^2+1)
    with q = x(x-1)(x-2)(x-3)(x-4), from one set of differences."""
    s = x - _LINE_ROOTS
    q = s.prod(axis=-1, keepdims=True)
    tau = s[..., 1:2] ** 2 * s[..., 3:4] ** 4 / (1.0 + x * x) ** 3
    return tau, q / (q * q + 1.0)


def _circle_parts(alpha):
    """tau = prod (2 - 2 cos(alpha - a_j))^j over the sinks a_j, each factor
    an exact order-two zero that is periodic, and Y = sin(3 alpha)."""
    d = 2.0 - 2.0 * np.cos(alpha - _CIRCLE_SINKS)
    tau = d[..., 0:1] * d[..., 1:2] ** 2 * d[..., 2:3] ** 3
    return tau, np.sin(3.0 * alpha)


@dataclass(frozen=True)
class LineModel:
    """The one-dimensional-base field family: X' = tau*(Y+T)."""

    Xprime: FieldHandle


def line_model_fields(base, n=1, a=(1.0,)):
    """Build the line (B = R) or circle (B = S^1) model fields.

    Line: Y = q/(q^2+1), q = x(x-1)(x-2)(x-3)(x-4); sinks 1, 3 get damping
    orders 2, 4.  Circle: Y = sin(3a); sinks pi/3, pi, 5pi/3 get orders
    2, 4, 6.  X' = tau*(Y + T) lives on B x T^n.
    """
    a = np.asarray(a, dtype=float)
    if a.size != n:
        raise ValueError("frequency vector length must equal n")
    if base == "line":
        full_chart = Chart("product", k=1, n=n)
        parts = _line_parts
        sinks, sources = LINE_SINK_ORDERS, LINE_SOURCES
    elif base == "circle":
        full_chart = Chart("circle_product", n=n)
        parts = _circle_parts
        sinks, sources = CIRCLE_SINK_ORDERS, CIRCLE_SOURCES
    else:
        raise ValueError(f"unknown base tag {base!r}")

    fibers = tuple(
        SingularFiber(f"sink_{loc:.6g}", (loc,), order) for loc, order in sinks
    )
    return LineModel(_describing_field(f"Xprime_{base}", full_chart, parts, a,
                                       fibers, tuple((s,) for s in sources)))


# ---------------------------------------------------------------------------
# numerical calculus


def batched_jacobian(F, pts, h=DEFAULT_FD_STEP):
    """Central-difference Jacobians of a batched F at the rows of pts.

    Returns ``(jac, F(pts))`` with ``jac[i, c, o] = dF_o/dp_c`` at pts[i];
    the output width of F may differ from the width of pts.  All coordinate
    perturbations and the points themselves go into a single call to F,
    which matters when every evaluation of F is expensive (for example a
    quadrature).  Raises ValueError unless F returns one row per input row.
    """
    pts = np.asarray(pts, dtype=float)
    m, d = pts.shape
    eye = np.eye(d)
    plus = (pts[:, None, :] + h * eye).reshape(-1, d)
    minus = (pts[:, None, :] - h * eye).reshape(-1, d)
    vals = np.asarray(F(np.concatenate([plus, minus, pts], axis=0)),
                      dtype=float)
    if vals.ndim != 2 or len(vals) != (2 * d + 1) * m:
        raise ValueError(
            f"F must map its {(2 * d + 1) * m} input rows to as many output "
            f"rows, got shape {vals.shape}; write it on the last axis"
        )
    width = vals.shape[1]
    jac = (vals[: m * d].reshape(m, d, width)
           - vals[m * d: 2 * m * d].reshape(m, d, width)) / (2.0 * h)
    return jac, vals[2 * m * d:]


def lie_bracket(A, B, p, h=DEFAULT_FD_STEP):
    """FD Lie bracket [A, B](p) = DB(p) A(p) - DA(p) B(p), error O(h^2).

    ``p`` is a point (d,) or a batch (m, d); the result has its shape.
    """
    p = np.asarray(p, dtype=float)
    pts = np.atleast_2d(p)
    jac_a, a_at = batched_jacobian(A, pts, h)
    jac_b, b_at = batched_jacobian(B, pts, h)
    v = (np.einsum("ico,ic->io", jac_b, a_at)
         - np.einsum("ico,ic->io", jac_a, b_at))
    return v.reshape(p.shape)


def pushforward_residual(F, A, p, h=DEFAULT_FD_STEP, target=None):
    """Residual || DF(p) A(p) - B(F(p)) || of F pushing A forward to B.

    B is ``target``, by default A itself: the residual of the invariance of
    A under F.  ``p`` is a point (d,), giving a float, or a batch (m, d),
    giving (m,).
    """
    p = np.asarray(p, dtype=float)
    pts = np.atleast_2d(p)
    jac, f_at = batched_jacobian(F, pts, h)
    push = np.einsum("ico,ic->io", jac, np.asarray(A(pts), dtype=float))
    B = A if target is None else target
    res = np.linalg.norm(push - np.asarray(B(f_at), dtype=float), axis=1)
    return float(res[0]) if p.ndim == 1 else res
