"""Charts and group operations.

Three concrete charts are supported:

* the product chart ``R^k x T^n`` (Euclidean block followed by ``n`` torus
  angles; ``k = 0`` gives the pure torus),
* the unit sphere ``S^5 in R^6`` carrying the coordinate-pair rotation
  action of ``T^3``,
* the circle-base product ``S^1 x T^n`` (base angle first, then fiber
  angles).

All functions are pure and operate on the last axis, so they broadcast
over batches of points.  The S^5 kernels (action, projection, embedding
and the differential of the projection) work on the (..., 3, 2)
coordinate-pair view of a point, one pass for all three pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_angles(raw):
    """Reduce angles componentwise into [0, 2*pi)."""
    raw = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise ValueError("non-finite angle input")
    out = np.mod(raw, TWO_PI)
    # np.mod of a tiny negative rounds to 2*pi itself; fold it back
    return np.where(out >= TWO_PI, 0.0, out)


def angular_difference(a, b):
    """Signed shortest angular difference a - b, componentwise in [-pi, pi)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.mod(a - b + np.pi, TWO_PI) - np.pi


def sphere_normalize(y):
    """Project onto the unit sphere (last axis)."""
    y = np.asarray(y, dtype=float)
    return y / np.linalg.norm(y, axis=-1, keepdims=True)


def torus_act_s5(lam, y):
    """Rotate the coordinate pairs (y1,y2), (y3,y4), (y5,y6) by lam1..lam3.

    Broadcasts over leading axes of both arguments.
    """
    lam = np.asarray(lam, dtype=float)
    y = np.asarray(y, dtype=float)
    pairs = y.reshape(y.shape[:-1] + (3, 2))
    a, b = pairs[..., 0], pairs[..., 1]
    c, s = np.cos(lam), np.sin(lam)
    out = np.empty(np.broadcast(c, a).shape + (2,))
    out[..., 0] = c * a - s * b
    out[..., 1] = s * a + c * b
    return out.reshape(out.shape[:-2] + (6,))


def base_projection_pi(y):
    """Orbit-space projection pi(y) = (y1^2 + y2^2, y3^2 + y4^2).

    Keeps a complex input complex (for complex-step derivatives).
    """
    y = np.asarray(y)
    sq = np.square(y[..., :4], dtype=np.result_type(y, 1.0))
    return sq[..., ::2] + sq[..., 1::2]


def pair_radii(x):
    """Radii (..., 3) of the coordinate pairs of S^5 over base points x (..., 2).

    The square roots of (x1, x2, 1 - x1 - x2), each clamped at 0, so a
    point an ulp outside the triangle lifts onto its edge.  Requires x in
    the closed triangle, to within 1e-15.
    """
    x = np.asarray(x, dtype=float)
    sq = np.empty(x.shape[:-1] + (3,))
    sq[..., :2] = x
    sq[..., 2] = 1.0 - x[..., 0] - x[..., 1]
    if sq.min(initial=0.0) < -1e-15:
        raise ValueError("base point outside the closed triangle")
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


def embed_s5(x, phis=(0.0, 0.0, 0.0)):
    """Point of S^5 over base point x = (x1, x2) with given pair phases.

    Requires x in the closed triangle x1, x2 >= 0, x1 + x2 <= 1; the pair
    radii are ``pair_radii(x)``.  Broadcasts x (..., 2) against phis (..., 3).
    """
    radii = pair_radii(x)
    phis = np.asarray(phis, dtype=float)
    out = np.empty(np.broadcast(radii, phis).shape + (2,))
    out[..., 0] = radii * np.cos(phis)
    out[..., 1] = radii * np.sin(phis)
    return out.reshape(out.shape[:-2] + (6,))


def sphere_phases(y):
    """Pair phases (atan2 per coordinate pair) of a sphere point."""
    y = np.asarray(y, dtype=float)
    return np.stack(
        [np.arctan2(y[..., 2 * j + 1], y[..., 2 * j]) for j in range(3)],
        axis=-1,
    )


def in_triangle(x, margin=0.0):
    """True when x lies in the (closed, or margin-shrunk) base triangle."""
    x = np.asarray(x, dtype=float)
    return (
        (x[..., 0] >= margin)
        & (x[..., 1] >= margin)
        & (x[..., 0] + x[..., 1] <= 1.0 - margin)
    )


# ---------------------------------------------------------------------------
# chart descriptor


@dataclass(frozen=True)
class Chart:
    """Coordinate chart descriptor used by fields and integrators.

    kind: "product" (R^k x T^n), "sphere5", or "circle_product"
    (S^1 base angle followed by n fiber torus angles).
    """

    kind: str
    k: int = 0
    n: int = 0

    def __post_init__(self):
        if self.kind not in ("product", "sphere5", "circle_product"):
            raise ValueError(f"unknown chart kind {self.kind!r}")
        if self.kind == "sphere5":
            # ambient coordinates, acting torus of rank three
            object.__setattr__(self, "k", 0)
            object.__setattr__(self, "n", 3)

    @property
    def dim(self):
        if self.kind == "sphere5":
            return 6
        if self.kind == "circle_product":
            return 1 + self.n
        return self.k + self.n

    @property
    def base_dim(self):
        if self.kind == "sphere5":
            return 2
        if self.kind == "circle_product":
            return 1
        return self.k

    @property
    def base_angular(self):
        return self.kind == "circle_product"

    @property
    def is_sphere(self):
        return self.kind == "sphere5"

    def base(self, p):
        """Coordinates of the underlying base point."""
        p = np.asarray(p, dtype=float)
        if self.kind == "sphere5":
            return base_projection_pi(p)
        if self.kind == "circle_product":
            return p[..., :1]
        return p[..., : self.k]

    def lift(self, base_point):
        """Chart point over a base point with zero phases / fiber angles.

        Broadcasts over leading axes; on the sphere this is ``embed_s5``.
        """
        x = np.asarray(base_point, dtype=float)
        if self.kind == "sphere5":
            return embed_s5(x)
        out = np.zeros(x.shape[:-1] + (self.dim,))
        out[..., :self.base_dim] = x
        return out

    def fiber_angles(self, p):
        p = np.asarray(p, dtype=float)
        if self.kind == "sphere5":
            return sphere_phases(p)
        if self.kind == "circle_product":
            return p[..., 1:]
        return p[..., self.k:]

    def fiber_rates(self, p, v):
        """Rates of change of ``fiber_angles`` at p along a tangent vector v.

        On the sphere, (a_j v_{b_j} - b_j v_{a_j}) / (a_j^2 + b_j^2) for
        each coordinate pair (a_j, b_j): the coefficients of v on the
        generators U_j at p when v is tangent to the orbit.  Needs every
        pair radius > 0 there.
        """
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        if self.kind == "sphere5":
            a, b = p[..., ::2], p[..., 1::2]
            return (a * v[..., 1::2] - b * v[..., ::2]) / (a * a + b * b)
        return v[..., self.dim - self.n:]

    def act(self, lam, p):
        """Torus action on the chart (rotation on S^5, fiber translation else).

        Broadcasts over leading axes of both arguments.
        """
        p = np.asarray(p, dtype=float)
        lam = np.asarray(lam, dtype=float)
        if self.kind == "sphere5":
            return torus_act_s5(lam, p)
        nb = self.dim - self.n
        out = np.empty(np.broadcast_shapes(lam.shape[:-1], p.shape[:-1])
                       + p.shape[-1:])
        out[..., :nb] = p[..., :nb]
        out[..., nb:] = np.mod(p[..., nb:] + lam, TWO_PI)
        return out

    def wrap(self, p):
        """Normalize a chart point: wrap angles, renormalize on the sphere."""
        p = np.asarray(p, dtype=float)
        if self.kind == "sphere5":
            return sphere_normalize(p)
        out = p.copy()
        start = 0 if self.kind == "circle_product" else self.k
        out[..., start:] = wrap_angles(out[..., start:])
        return out

    def distance(self, p, q):
        """Chart distance: Euclidean in R^k / R^6, shortest arc on angles."""
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        if self.kind == "sphere5":
            return np.linalg.norm(p - q, axis=-1)
        start = 0 if self.kind == "circle_product" else self.k
        d_lin = p[..., :start] - q[..., :start]
        d_ang = angular_difference(p[..., start:], q[..., start:])
        return np.sqrt(
            np.sum(d_lin**2, axis=-1) + np.sum(d_ang**2, axis=-1)
        )

    def sample_base(self, rng, n):
        """n base points (n, base_dim) drawn uniformly with ``rng`` from the
        base domain: [-1, 5] on the line, the circle, the disc of radius 2
        on the plane, and on S^5 the triangle shrunk by the margin 0.02
        (by rejection).  ValueError on R^k for k other than 1 and 2."""
        if self.kind == "circle_product":
            return rng.uniform(0.0, TWO_PI, size=(n, 1))
        if self.is_sphere:
            pts = rng.uniform(0.02, 0.98, size=(n, 2))
            bad = pts.sum(axis=1) > 0.98
            while np.any(bad):
                pts[bad] = rng.uniform(0.02, 0.98, size=(int(bad.sum()), 2))
                bad = pts.sum(axis=1) > 0.98
            return pts
        if self.k == 1:
            return rng.uniform(-1.0, 5.0, size=(n, 1))
        if self.k != 2:
            raise ValueError(f"no base domain to sample on R^{self.k}")
        r = np.sqrt(rng.uniform(0.0, 1.0, size=n)) * 2.0
        ang = rng.uniform(0.0, TWO_PI, size=n)
        return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)

    def base_distance(self, b1, b2):
        b1 = np.asarray(b1, dtype=float)
        b2 = np.asarray(b2, dtype=float)
        if self.base_angular:
            return np.linalg.norm(angular_difference(b1, b2), axis=-1)
        return np.linalg.norm(b1 - b2, axis=-1)

    def displace_base(self, p, delta):
        """Move a chart point by a base displacement, keeping the fiber phase.

        On the sphere this re-embeds pi(p) + delta with the phases of p.
        Broadcasts over leading axes of both arguments.
        """
        p = np.asarray(p, dtype=float)
        delta = np.asarray(delta, dtype=float)
        if self.kind == "sphere5":
            return embed_s5(base_projection_pi(p) + delta, sphere_phases(p))
        shift = np.zeros(delta.shape[:-1] + p.shape[-1:])
        shift[..., :self.base_dim] = delta
        return p + shift

    def base_tangent(self, p, v):
        """Push a chart tangent vector down to the base (d(pi) on the sphere)."""
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        if self.kind == "sphere5":
            pv = p[..., :4] * v[..., :4]
            return 2 * (pv[..., ::2] + pv[..., 1::2])
        return v[..., : self.base_dim]
