"""Solve xi . f = g along radial trajectories, for g with g(0) = 0.

Substituting u = exp(s) in the trajectory integral of g along xi gives

    f(x) = integral_0^1 g(u x) / u du,

whose integrand is smooth on [0, 1] because g(0) = 0, so nothing is
truncated.  It is taken by composite Gauss-Legendre quadrature (nodes by
Golub & Welsch, Math. Comp. 1969), which is exact for polynomial g of
degree up to 48.  A point is accepted when the 24- and 48-node results
differ by at most a fixed share of tol * max(1, |f|), a relative tolerance;
the others are redone with twice the panels, and past ``_MAX_PANELS``
``RadialSolverError`` is raised rather than an unconverged value returned.
g(0) != 0 has no solution in this sense and is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .fields import pushforward_residual

_NODES = 24  # nodes per panel of the rule checked against 2 * _NODES nodes
_MAX_PANELS = 64
_ACCEPT = 0.1  # share of tol * max(1, |f|) the two rules may differ by
_MAX_ROWS = 1 << 16  # rows per call of g, which bounds the batch memory


class RadialSolverError(ValueError):
    pass


@cache
def _rule(n, panels):
    """Composite n-node Gauss-Legendre nodes and weights on [0, 1].

    Built on first use: the nodes are the eigenvalues of the Jacobi matrix
    of the Legendre polynomials (Golub-Welsch).
    """
    j = np.arange(1.0, n)
    beta = j / np.sqrt(4.0 * j * j - 1.0)
    t, vecs = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    u = (np.arange(panels)[:, None] + (t + 1.0) / 2.0).ravel() / panels
    return u, np.tile(vecs[0] ** 2 / panels, panels)


@dataclass(frozen=True)
class RadialSolution:
    """Evaluation rule for f with xi . f = g."""

    g: Callable
    tol: float

    def __call__(self, x):
        """Evaluate f; accepts a single point (k,) or a batch (m, k)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        val = np.empty(len(pts))
        todo = np.arange(len(pts))
        panels = 1
        while todo.size:
            if panels > _MAX_PANELS:
                raise RadialSolverError(
                    f"quadrature missed tol = {self.tol:g} at {todo.size} of "
                    f"{len(pts)} points with {_MAX_PANELS} panels")
            u_c, w_c = _rule(_NODES, panels)
            u_f, w_f = _rule(2 * _NODES, panels)
            u = np.concatenate([u_c, u_f])
            step = max(1, _MAX_ROWS // len(u))
            missed = []
            for idx in np.split(todo, range(step, todo.size, step)):
                rows = (u[:, None, None] * pts[idx]).reshape(-1, pts.shape[1])
                vals = np.asarray(self.g(rows), dtype=float)
                vals = vals.reshape(len(u), -1) / u[:, None]
                fine = w_f @ vals[len(u_c):]
                err = np.abs(fine - w_c @ vals[:len(u_c)])
                val[idx] = fine
                bound = _ACCEPT * self.tol * np.maximum(1.0, np.abs(fine))
                missed.append(idx[~(err <= bound)])  # a NaN is a miss
            todo = np.concatenate(missed)
            panels *= 2
        # f(0) = 0 by convention
        val[np.all(pts == 0.0, axis=-1)] = 0.0
        return float(val[0]) if single else val

    def directional_residual(self, x):
        """|xi . f - g| measured by central FD in log r, with step 1e-4."""
        h = 1e-4
        x = np.asarray(x, dtype=float)
        pts = x if x.ndim > 1 else x[None, :]
        deriv = (self(np.exp(h) * pts) - self(np.exp(-h) * pts)) / (2.0 * h)
        return np.abs(deriv - np.asarray(self.g(pts), dtype=float))


def solve_radial(g, annulus, tol=1e-8, *, k):
    """Construct f with xi . f = g on the annulus, g smooth with g(0) = 0.

    ``k`` is the dimension of the x-space.  ``tol`` bounds the quadrature error of f(x) relative to max(1, |f(x)|).
    """
    if not (0.0 < float(annulus[0]) < float(annulus[1])):
        raise RadialSolverError("annulus must satisfy 0 < r_min < r_max")
    if not tol > 0.0:
        raise RadialSolverError("tol must be positive")
    g0 = float(np.asarray(g(np.zeros((1, k)))).ravel()[0])
    if not abs(g0) <= 1e-12:
        raise RadialSolverError(
            f"g(0) = {g0:g} violates the g(0) = 0 hypothesis"
        )
    return RadialSolution(g=g, tol=float(tol))


def annulus_grid(r_min, r_max, k, n_per_axis=32, seed=0):
    """Sample points of the annulus: a grid for k = 2, random points otherwise."""
    if k == 2:
        ax = np.linspace(-r_max, r_max, n_per_axis)
        xx, yy = np.meshgrid(ax, ax)
        pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    else:
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n_per_axis * n_per_axis, k))
        pts *= rng.uniform(r_min, r_max, size=(len(pts), 1)) \
            / np.linalg.norm(pts, axis=1, keepdims=True)
    r = np.linalg.norm(pts, axis=1)
    return pts[(r >= r_min) & (r <= r_max)]


@dataclass(frozen=True)
class NormalFormReport:
    """Result of straightening the fiber drift of X~ = xi + sum g_r(x) d/dtheta_r.

    ``frequencies`` are b_r = g_r(0); ``correctors`` solve
    xi . phi_r = g_r - b_r, so F(x, theta) = (x, theta - phi(x)) conjugates
    X~ to xi + sum b_r d/dtheta_r.
    """

    frequencies: tuple
    correctors: tuple
    k: int

    def coordinate_change(self):
        """The map F(x, theta) = (x, theta - phi(x)) on R^k x T^n (unwrapped)."""
        k = self.k
        correctors = self.correctors

        def F(p):
            p = np.asarray(p, dtype=float)
            x = p[..., :k]
            out = p.copy()
            for r, phi in enumerate(correctors):
                out[..., k + r] = p[..., k + r] - phi(x)
            return out

        return F

    def conjugation_residual(self, g_list, points, h=1e-4):
        """Residuals ||DF(p) X~(p) - (xi + b)(F(p))|| over full-chart points.

        X~ = xi + sum g_r(x) d/dtheta_r is rebuilt from ``g_list``; this is
        ``fields.pushforward_residual`` of F from X~ to xi + b, whose batched
        central differences run the corrector quadratures on one stacked
        batch.
        """
        pts = np.asarray(points, dtype=float)
        k, n = self.k, len(self.correctors)
        b = np.asarray(self.frequencies, dtype=float)
        if pts.shape[1] != k + n:
            raise RadialSolverError(f"points must have {k + n} coordinates")

        def x_tilde(p):
            out = p.copy()
            for r, g in enumerate(g_list):
                out[:, k + r] = np.asarray(g(p[:, :k]), dtype=float)
            return out

        def normal_form(q):  # xi + b
            out = q.copy()
            out[:, k:] = b
            return out

        return pushforward_residual(self.coordinate_change(), x_tilde, pts, h,
                                    target=normal_form)


def normalize_lifted_field(g_list: Sequence[Callable], annulus, tol=1e-8, *,
                           k):
    """Frequencies and correctors of X~ = xi + sum g_r(x) d/dtheta_r.

    The radial part is assumed to be xi already (the linearization step is
    taken as given); each g_r only needs to be smooth.  ``k`` is the
    dimension of the x-space.
    """
    freqs = []
    corrs = []
    for g in g_list:
        b = float(np.asarray(g(np.zeros((1, k)))).ravel()[0])
        freqs.append(b)
        shifted = (lambda gg, bb: lambda x: np.asarray(gg(x), dtype=float) - bb)(g, b)
        corrs.append(solve_radial(shifted, annulus, tol=tol, k=k))
    return NormalFormReport(frequencies=tuple(freqs), correctors=tuple(corrs), k=k)
