"""Builders for fields whose symmetries are exactly a torus plus the flow.

The recipe shared by every builder: start from base dynamics with a source
whose outset is dense, damp by a nonnegative factor tau that plants zeros
of pairwise distinct even orders on selected fibers, and add a dense
constant drift on the torus fibers.  The distinct orders make the singular
fibers pairwise inequivalent, which kills any extra symmetry.  On product
and circle charts ``fields._describing_field`` builds X' = tau (Y + T) and
its base rule from one kernel x -> (tau, Y) and the drift; the S^5 field
is a closed form of the same recipe (``describing_field_s5``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .fields import (
    _S5_EDGE_ORDER,
    E,
    FieldHandle,
    SingularFiber,
    _describing_field,
    describing_field_s5,
    line_model_fields,
    rational_relation,
)
from .geometry import TWO_PI, Chart, torus_act_s5


@dataclass(frozen=True)
class ConstructionManifest:
    """A built field plus the declared inventory that certifies it.

    Creating one checks nothing; ``verify.verify_manifest`` checks that the
    declared orders are distinct and that the declared fibers are zeros.
    """

    name: str
    field: FieldHandle
    frequencies: tuple
    notes: Optional[Mapping] = None

    def to_dict(self):
        chart = self.field.chart
        return {
            "name": self.name,
            "chart": {"kind": chart.kind, "k": chart.k, "n": chart.n},
            "frequencies": list(self.frequencies),
            "rational_relation": (
                list(rel)
                if (rel := rational_relation(self.frequencies)) is not None
                else None
            ),
            "singular_fibers": [
                {
                    "label": f.label,
                    "base_point": list(f.base_point),
                    "order": f.order,
                }
                for f in self.field.singular_fibers
            ],
            "sources": [list(s) for s in self.field.sources],
            "notes": dict(self.notes or {}),
        }


def build_line_describing(base="line", n=1, freqs=(1.0,)):
    """Describing field over the line or circle base with an n-torus fiber."""
    model = line_model_fields(base, n=n, a=freqs)
    return ConstructionManifest(
        name=f"{base}_x_T{n}",
        field=model.Xprime,
        frequencies=tuple(float(f) for f in freqs),
        notes={"base": base},
    )


def build_s5(freqs=(1.0, E, E * E)):
    """Describing field for the standard T^3 action on the 5-sphere."""
    return ConstructionManifest(
        name="s5_t3",
        field=describing_field_s5(freqs),
        frequencies=tuple(float(f) for f in freqs),
        notes={"singular_set_order": _S5_EDGE_ORDER},
    )


def build_planar_demo(orders=(2, 4, 6), radius=1.0, n=2,
                      freqs=(1.0, np.sqrt(2.0))):
    """Free-action demo on R^2 x T^n: damped Euler flow with planted zeros.

    The base dynamics are the radial field xi damped by
    tau = prod_p |x - p|^(2 m_p) / (1 + |x|^2)^(sum m_p), with the points p
    on pairwise distinct rays at the given radius so their orbits under the
    flow stay disjoint; the full field is X' = tau * (xi + T).
    """
    ints = tuple(int(m) for m in orders)
    if ints != tuple(orders):
        raise ValueError(f"artificial orders must be integers, got {orders}")
    orders = ints
    if any(m % 2 or m <= 0 for m in orders):
        raise ValueError("artificial orders must be positive and even")
    if len(set(orders)) != len(orders):
        raise ValueError("artificial orders must be pairwise distinct")
    freqs = tuple(float(f) for f in freqs)
    if len(freqs) != n:
        raise ValueError("frequency vector length must equal n")
    m = len(orders)
    angles = 0.3 + np.arange(m) * (TWO_PI / max(m, 1))
    pts = radius * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    half = np.array(orders, dtype=float) / 2.0
    total = float(half.sum())

    def parts(x):
        d2 = ((x[..., None, :] - pts) ** 2).sum(axis=-1)
        # |x - p|^(2 m_p) written on squared distances to stay smooth
        num = (d2 ** half).prod(axis=-1, keepdims=True)
        return num / (1.0 + (x ** 2).sum(axis=-1, keepdims=True)) ** total, x

    fibers = tuple(
        SingularFiber(f"planted_{i}", tuple(pt), orders[i])
        for i, pt in enumerate(pts)
    )
    fld = _describing_field("Xprime_planar", Chart("product", k=2, n=n),
                            parts, freqs, fibers, ((0.0, 0.0),))
    return ConstructionManifest(
        name=f"planar_R2_x_T{n}",
        field=fld,
        frequencies=freqs,
        notes={"radius": radius, "orders": list(orders)},
    )


# ---------------------------------------------------------------------------
# Haar averaging over the torus


# orbit points per call of the averaged function: at 16 or more nodes on
# S^5 a block is one row, so a call's temporaries stay the size of one orbit
_HAAR_BLOCK = 1 << 12


def _grid(n, n_nodes):
    """The uniform grid of n_nodes ** n torus elements, (n_nodes ** n, n)."""
    return np.indices((n_nodes,) * n).reshape(n, -1).T * (TWO_PI / n_nodes)


# rotation tables up to this size are cached for the life of the process;
# a table holds 36 n_nodes^3 doubles: 9.4 MB at 32 nodes, 75 MB at 64
_S5_CACHE_BYTES = 16 << 20


def _s5_table(n_nodes, act):
    """Read-only rotations (6, 6 N) of the S^5 grid with n_nodes per angle.

    ``act`` is the action the table is built through (``torus_act_s5``).
    ``y @ table`` lists the orbit of each row y, and ``vals @ table.T``
    rotates an orbit's values back and sums them.
    """
    # rot[v, j] = R(node v) e_j, for the T^3 acting on S^5
    rot = act(_grid(3, n_nodes)[:, None, :], np.eye(6))
    table = rot.transpose(1, 0, 2).reshape(6, -1)
    table.flags.writeable = False
    return table


# ``act`` is part of the key, so a replaced action builds its own table
_s5_table_cached = functools.lru_cache(maxsize=4)(_s5_table)


def _s5_rotations(n_nodes, act):
    """``_s5_table``, from the cache when it takes at most _S5_CACHE_BYTES;
    a larger table lives only as long as the averaged function holding it."""
    if 36 * 8 * n_nodes ** 3 <= _S5_CACHE_BYTES:
        return _s5_table_cached(n_nodes, act)
    return _s5_table(n_nodes, act)


def _haar_mean(fn, chart, n_nodes, transport):
    """Mean of ``fn`` over the torus orbit of each row, on a uniform grid.

    Evaluates ``fn`` once per block of rows on all their orbit points;
    with ``transport`` each value is a sphere vector, moved back by the
    inverse rotation before averaging.  On S^5 the action is linear, so the
    rotations of the grid are built once (``_s5_rotations``, once per
    process for node counts up to 38), and the orbit and the transported
    mean are each one matrix product.  A point (d,) gives one value, a
    batch (m, d) gives m values.
    """
    n, d = chart.n, chart.dim
    nodes = _grid(n, n_nodes)
    per_call = max(1, _HAAR_BLOCK // len(nodes))
    if chart.is_sphere:
        rotations = _s5_rotations(n_nodes, torus_act_s5)

    def averaged(p):
        p = np.asarray(p, dtype=float)
        rows = p.reshape(-1, d)
        means = []
        for start in range(0, len(rows), per_call):
            block = rows[start:start + per_call]
            if chart.is_sphere:
                orbit = (block @ rotations).reshape(-1, d)
            else:
                orbit = chart.act(nodes, block[:, None, :]).reshape(-1, d)
            vals = np.asarray(fn(orbit), dtype=float)
            del orbit  # free the orbit before the mean allocates
            if transport:
                # a BLAS product: its rounding may depend on the block size
                means.append(vals.reshape(len(block), -1) @ rotations.T
                             / len(nodes))
            else:
                # (rows, nodes, ...): each row's orbit is contiguous, so its
                # sum does not depend on the block size
                means.append(vals.reshape((len(block), len(nodes))
                                          + vals.shape[1:]).mean(axis=1))
        out = np.concatenate(means)
        return out[0] if p.ndim == 1 else out.reshape(p.shape[:-1]
                                                      + out.shape[1:])

    return averaged


def haar_average_function(fn, chart, n_nodes=64):
    """Average a scalar function over the torus action.

    Uses the tensor trapezoid rule on the uniform periodic grid, which is
    exact for trigonometric polynomials of degree below n_nodes / 2; a
    function already invariant under the action is reproduced exactly at
    every point.
    """
    return _haar_mean(fn, chart, n_nodes, transport=False)


def haar_average_field(fld, n_nodes=64):
    """Project a field onto its torus-invariant part, named "haar(<name>)".

    Z'(p) = average over the group of the pullback of Z along each group
    element: evaluate at the translated point, then transport the vector
    back.  On the sphere chart the transport is the inverse rotation; on
    product charts the action is a translation, so transport is trivial.
    """
    chart = fld.chart
    return FieldHandle(
        f"haar({fld.name})", chart,
        _haar_mean(fld.func, chart, n_nodes, transport=chart.is_sphere),
        singular_fibers=fld.singular_fibers,
        sources=fld.sources,
    )
