"""Flow integration and trajectory diagnostics.

One Runge-Kutta loop with adaptive step control (``_adaptive_steps``)
takes an embedded pair as data and runs two of them.  ``integrate`` steps
with Dormand and Prince's 8(5,3) pair, DOP853, and gives dense output from
its 7th-order continuous extension (``_dense_output``), whose three extra
stages are evaluated only on the steps that hold a requested time.  The
base runner of ``classify_limit`` and ``basin_census`` steps with Cash and
Karp's 5(4) pair, whose 5th-order weights are all >= 0, because the base
step cap rests on them (see ``_BaseFlow``).
The loop advances one point or a batch of points; every row of a batch
has its own step size, and a row leaves the batch when it is finished.
``integrate`` takes a batch (m, d) of start points in one call and
returns their start and end points; dense output needs one start point.
``flow_commutation_residual`` runs its two sides, for one or many torus
elements, as one such batch.
The limits of a T-invariant field are those of its base dynamics.
``classify_limit`` (one start) and ``basin_census`` (a batch) run them
through one runner, ``_BaseFlow.run``, on a unit-speed base direction
field, so their horizons are base arc length.  Each step, the first one
included, is capped short of the nearest target (``_base_cap``), and a
row's step shrinks with its distance to that target.  The runner
evaluates a field's declared ``base_rule``, checked against the field,
instead of the whole field at lifted points.  It keeps the base orbits,
and neither the torus drift nor the slowdown near high-order zeros can
stall it.  Where the base does not move, on a source
torus, the flow is a linear drift on the torus, and ``classify_limit``
reads its frequencies off the field without integrating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from operator import ge, gt, le, lt
from typing import NamedTuple, Optional

import numpy as np

from .fields import FieldHandle, rational_relation
from .geometry import TWO_PI, Chart, in_triangle


class _Pair(NamedTuple):
    """An embedded explicit Runge-Kutta pair for autonomous fields.

    Stage i is f(y + h a[i] . K[:i]); the last row of ``a`` is ``b``, so the
    last stage is f(y_new), the next step's first stage (FSAL), and a step
    costs len(a) - 1 field calls.  The fields are autonomous, so the loop
    needs no nodes.  ``e`` holds the error weights; with ``e3`` the error
    norm combines the two estimates as DOP853 does, else it is the RMS of
    h e . K.  ``exponents`` are those of the error norm in the growth after
    an accepted step and in the shrink after a rejected one, and that of
    rtol in the first step's size.
    """

    a: tuple
    b: np.ndarray
    e: np.ndarray
    e3: Optional[np.ndarray]
    exponents: tuple


def _rows(entries, width=None):
    """Rows of a Runge-Kutta matrix from their nonzero entries {column:
    value}; row i has i columns, or ``width``."""
    return tuple(np.array([row.get(j, 0.0) for j in range(width or i)])
                 for i, row in enumerate(entries))


# Cash and Karp's 5(4) pair (ACM Trans. Math. Softw. 16, 1990), with its
# 5th-order weights b5 as a last, FSAL row; they are all >= 0 and sum to 1
_CK_B5 = np.array([37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771, 0.0])
_CK_B4 = np.array([2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296,
                   277 / 14336, 1 / 4, 0.0])
_CASH_KARP = _Pair(
    a=(np.array([]),
       np.array([1 / 5]),
       np.array([3 / 40, 9 / 40]),
       np.array([3 / 10, -9 / 10, 6 / 5]),
       np.array([-11 / 54, 5 / 2, -70 / 27, 35 / 27]),
       np.array([1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592,
                 253 / 4096]),
       _CK_B5[:6]),
    b=_CK_B5, e=_CK_B5 - _CK_B4, e3=None, exponents=(0.2, 0.2, 0.25))

# DOP853, Dormand and Prince's 8(5,3) pair (Prince & Dormand, J. Comput.
# Appl. Math. 7, 1981), with the coefficients of Hairer's dop853.f
# (Hairer, Norsett & Wanner, Solving ODEs I, sections II.5-II.6).  Rows 12
# to 15: b, then the three extra stages of the continuous extension; the
# nodes _DOP853_C of all 16 stages are the row sums.
_DOP853_A = _rows([
    {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386,
     4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
     5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
     5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
     5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
     8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
     5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
     8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
     5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
     8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776,
     6: 0.053541988307438566, 7: -0.05492374857139099,
     10: -0.00010834732869724932, 11: 0.0003825710908356584,
     12: -0.00034046500868740456, 13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
     7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
     13: 2.9475147891527724, 14: -9.15095847217987},
])
_DOP853_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0,
    0.1, 0.2, 0.7777777777777778])
_DOP853_B = np.append(_DOP853_A[12], 0.0)
_DOP853 = _Pair(
    a=_DOP853_A[:13], b=_DOP853_B,
    # b minus the 5th-order weights
    e=_rows([{0: 0.01312004499419488, 5: -1.2251564463762044,
              6: -0.4957589496572502, 7: 1.6643771824549864,
              8: -0.35032884874997366, 9: 0.3341791187130175,
              10: 0.08192320648511571, 11: -0.022355307863886294}], 13)[0],
    # b minus the 3rd-order weights
    e3=_DOP853_B - _rows([{0: 0.2440944881889764, 8: 0.7338466882816118,
                           11: 0.022058823529411766}], 13)[0],
    exponents=(0.125, 0.125, 0.125))  # 1 / 8
# the continuous extension: the extra stages' rows and the weights of the
# interpolant's last four coefficients, over the 16 stages
_DENSE_A = _DOP853_A[13:]
_DENSE_D = np.array(_rows([
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
     7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
     10: 2.2404374302607883, 11: 0.6315787787694688,
     12: -0.08899033645133331, 13: 18.148505520854727,
     14: -9.194632392478356, 15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
     7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
     10: -30.674084731089398, 11: -9.332130526430229,
     12: 15.697238121770845, 13: -31.139403219565178,
     14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
     7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
     10: -1.0006050966910838, 11: 0.7777137798053443,
     12: -2.778205752353508, 13: -60.19669523126412, 14: 84.32040550667716,
     15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
     7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
     10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
     13: 96.32455395918828, 14: -39.17726167561544,
     15: -149.72683625798564},
], 16))

_REACH = 1.05  # the base step cap's short arm d / _REACH (_base_cap)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0  # of the step controller
_BASE_TOL = 1e-6  # an orbit whose base moves at most this stays in its fiber


class FlowError(RuntimeError):
    """Integration failure: step underflow or step budget exhausted.

    ``reason`` is "underflow" or "step_budget".
    """

    def __init__(self, message, reason):
        super().__init__(message)
        self.reason = reason


@dataclass
class IntegratorConfig:
    """``rtol`` and ``atol`` bound each row's RMS local error, ``max_steps``
    its step attempts.  The step controller's safety factor 0.9 and its
    step size factors from 0.2 to 10 are fixed."""

    rtol: float = 1e-9
    atol: float = 1e-12
    max_steps: int = 400_000


@dataclass
class Trajectory:
    """Time-ordered samples of an integrated flow."""

    chart: Optional[Chart]
    times: np.ndarray
    points: np.ndarray
    stats: dict = dc_field(default_factory=dict)

    @property
    def start(self):
        return self.points[0]

    @property
    def end(self):
        return self.points[-1]


def _initial_step(f0, y0, direction, rtol, exponent):
    """Starting step of each row: a float for one point, (m, 1) for a batch.

    It scales with max(rtol, 1e-12) ** exponent."""
    scale = 1.0 + np.linalg.norm(y0, axis=-1, keepdims=True)
    rate = np.linalg.norm(f0, axis=-1, keepdims=True)
    with np.errstate(divide="ignore", over="ignore"):
        h = np.minimum(1e-2 * scale / rate, 1.0) * max(rtol, 1e-12) ** exponent
    h = direction * np.where(rate < 1e-300, 1e-3, h)
    return float(h[0]) if y0.ndim == 1 else h


# Per-row operations (where, max, min, all, any, sqrt): builtins on the
# floats of one point, whose steps would otherwise pay more for numpy calls
# than for the row's arithmetic; numpy on the (m, 1) columns of a batch,
# with count_nonzero for masks (a fraction of the cost of any and all).
_ONE_ROW = (lambda c, a, b: a if c else b, max, min, bool, bool, math.sqrt)
_ROWS = (np.where, np.maximum, np.minimum,
         lambda mask: np.count_nonzero(mask) == mask.size, np.count_nonzero,
         np.sqrt)


def _adaptive_steps(f, t0, y0, t_end, cfg, pair, project=None, h0=None,
                    rowwise=False):
    """Generator of accepted steps (t, y, f(y), err_norm, rejected, ids, K).

    ``pair`` (``_DOP853`` or ``_CASH_KARP``) is the Runge-Kutta pair it
    steps with.  ``y0`` is one point (d,) or a batch (m, d).  Every row has
    its own time and step size and is accepted or rejected on its own error
    norm; t and err are floats for one point and (m, 1) columns for a
    batch, and ``ids`` are the original numbers of the live rows
    (None for one point).  A yield follows every attempt that accepted some
    row, once ``project(y)`` (the sphere renormalizer, or None) has given
    the points to go on from and ``f`` has been evaluated there again.
    ``K`` holds the attempt's stages along its axis -2: (stages, d) for one
    point (None at the first yield); the next attempt overwrites it.  A
    batch's consumer may answer a yield with ``send((drop, cap, scale))``:
    a mask (m,) of rows to drop, a cap (m,) on each row's step size and a
    factor (m,) on it, applied before the cap; any of them None.  Then the
    finished rows (at ``t_end``, or dropped) leave the batch and the live
    rows are packed together, so ``f`` only sees live rows; the generator
    ends when no row is left.  A batch's ``h0`` (m,)
    sets the size of each row's first step; rows where it is 0 or not
    finite start from ``_initial_step``'s guess, as all rows do without it.

    With ``rowwise`` every row of a batch takes the steps, bit for bit, of
    a run of its own (for a field that evaluates a row as it does one
    point): the stage sums are one matrix-vector product per row.  Without
    it a batch's stage sums are one product over all rows, which is faster
    for many rows but rounds differently from one row to the next.

    The first yield is the initial condition with err 0.  All live rows
    have made the same number of attempts, so ``cfg.max_steps`` bounds the
    attempts of each row.  Raises FlowError on step underflow or when a
    row spends cfg.max_steps before t_end; its ``reason`` is "underflow"
    or "step_budget".
    """
    direction = 1.0 if t_end >= t0 else -1.0
    # a step past t_end, a row at or past it: direction * (a - b) > 0, >= 0
    past, reached = (gt, ge) if direction > 0 else (lt, le)
    y = np.array(y0, dtype=float)
    k1 = np.asarray(f(y), dtype=float)
    one = y.ndim == 1
    ids = None if one else np.arange(len(y))
    yield float(t0), y, k1, 0.0, 0, ids, None
    if t_end == t0 or y.size == 0:
        return
    where, lower, upper, all_, any_, sqrt = _ONE_ROW if one else _ROWS
    rows_apart = rowwise and not one
    rtol, atol, max_steps = cfg.rtol, cfg.atol, cfg.max_steps
    safety, min_factor, max_factor = _SAFETY, _MIN_FACTOR, _MAX_FACTOR
    a, b, e5, e3, (grow_exp, shrink_exp, start_exp) = pair
    n_stages = len(a)
    t = float(t0) if one else np.full((len(y), 1), float(t0))
    h = _initial_step(k1, y, direction, rtol, start_exp)
    if h0 is not None:
        h0 = h0[:, None]
        h = np.where(np.isfinite(h0) & (h0 > 0), direction * h0, h)
    d, K = y.shape[-1], None
    n_steps = rejected = 0
    while True:
        n_steps += 1
        if n_steps > max_steps:
            raise FlowError(f"step budget {max_steps} exhausted at t={t}",
                            "step_budget")
        h = where(past(t + h, t_end), t_end - t, h)
        if any_(abs(h) < 1e-14 * lower(1.0, abs(t))):
            raise FlowError(f"step underflow at t={t}, point {y}",
                            "underflow")
        if K is None:  # stage derivatives, the stage axis at -2
            shape = y.shape
            if rows_apart:  # (m, stages, d): one product per row
                K = np.empty((len(y), n_stages, d))
                stage = K.transpose(1, 0, 2)
                combine = np.matmul
            else:  # (stages, m d): one product for all rows
                K = np.empty((n_stages, y.size))
                stage = K.reshape((n_stages,) + shape)
                combine = np.dot if one else (
                    lambda w, K: w.dot(K).reshape(shape))
            before = [K[..., :i, :] for i in range(n_stages)]
        # h spread over each row of a batch that shares one product
        hb = h if one or rows_apart else h.repeat(d, axis=1)
        stage[0] = k1
        for i in range(1, n_stages):
            stage[i] = k = f(y + hb * combine(a[i], before[i]))
        y_new = y + hb * combine(b, K)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        if e3 is None:  # RMS error norm of each row
            q = hb * combine(e5, K) / scale
            err = sqrt(np.add.reduce(q * q, axis=-1, keepdims=not one) / d)
        else:  # DOP853's blend of its two estimates, 0 where both vanish
            # from the stages' differences to the first one, where the
            # rounding of a large common part (a drift) does not enter
            dK = K[..., 1:, :] - K[..., :1, :]
            q = hb * combine(e5[1:], dK) / scale
            q3 = hb * combine(e3[1:], dK) / scale
            err = np.add.reduce(q * q, axis=-1, keepdims=not one)
            err = err / sqrt(lower(1e-300, d * (err + 0.01 * np.add.reduce(
                q3 * q3, axis=-1, keepdims=not one))))
        ok = err <= 1.0
        e = lower(err, 1e-10)
        grow = upper(max_factor, lower(min_factor, where(
            err < 1e-10, max_factor, safety * np.power(e, -grow_exp))))
        if all_(ok):
            t, y, k1, h = t + h, y_new, k, h * grow  # FSAL
        else:
            rejected += np.size(ok) - int(np.count_nonzero(ok))
            shrink = lower(min_factor, safety * np.power(e, -shrink_exp))
            t, y, k1 = where(ok, t + h, t), where(ok, y_new, y), where(ok, k, k1)
            h = h * where(ok, grow, shrink)
            if not any_(ok):
                continue
        if project is not None:
            y = project(y)
            k1 = np.asarray(f(y), dtype=float)
        drop, cap, scale = ((yield t, y, k1, err, rejected, ids, K)
                            or (None, None, None))
        rejected = 0
        if scale is not None:
            h = h * scale[:, None]
        if cap is not None:
            h = direction * np.minimum(direction * h, cap[:, None])
        done = reached(t, t_end)
        if drop is not None:
            done = done | drop[:, None]
        if any_(done):
            if all_(done):
                return
            keep = ~done[:, 0]
            ids, y, k1 = ids[keep], y[keep], k1[keep]
            t, h, K = t[keep], h[keep], None


def _dense_output(f, t0, t1, y0, y1, f0, f1, K, t):
    """DOP853's 7th-order continuous extension of one step, at times t (m,).

    The step went from (t0, y0) to (t1, y1), with derivatives f0 and f1
    there and stages K (13, d); the extension's three extra stages cost
    three calls of ``f``.  Returns the points (m, d); at t0 and t1 they
    are y0 and y1 to rounding.
    """
    h = t1 - t0
    stages = np.empty((16, y0.size))
    stages[:13] = K
    for i, a in enumerate(_DENSE_A, start=13):
        stages[i] = f(y0 + h * a.dot(stages[:i]))
    dy = y1 - y0
    coeffs = [dy, h * f0 - dy, 2 * dy - h * (f0 + f1),
              *(h * _DENSE_D.dot(stages))]
    x = ((t - t0) / h)[:, None]
    y = 0.0
    for i, c in enumerate(reversed(coeffs)):  # nested in x and 1 - x
        y = (y + c) * (x if i % 2 == 0 else 1 - x)
    return y0 + y


def _one_point(f, t0, y0, t1, cfg, renorm, t_eval):
    """Times, points and stats of the run from one start point (d,).

    The points are the accepted steps, or the dense output at ``t_eval``:
    each time is evaluated on the step that holds it, a time before t0 on
    the first step and one after t1 on the last.
    """
    steps = _adaptive_steps(f, t0, y0, t1, cfg, _DOP853, renorm,
                           rowwise=True)
    t, y, fy = next(steps)[:3]
    ts, ys = [t], [y]
    if t_eval is not None:
        t_eval = np.atleast_1d(np.asarray(t_eval, dtype=float))
        sign = 1.0 if t1 >= t0 else -1.0  # the steps run in this direction
        order = np.argsort(sign * t_eval, kind="stable")
        ahead = sign * t_eval[order]
        points, j = np.empty((len(t_eval), len(y))), 0
    accepted = rejected = 0
    max_err = 0.0
    for t_new, y_new, f_new, err, rej, _, K in steps:
        accepted += 1
        rejected += rej
        max_err = max(max_err, err)
        if t_eval is None:
            ts.append(t_new)
            ys.append(y_new)
        else:
            k = (len(ahead) if sign * t_new >= sign * t1
                 else int(np.searchsorted(ahead, sign * t_new, "right")))
            if k > j:
                points[order[j:k]] = _dense_output(
                    f, t, t_new, y, y_new, fy, f_new, K, t_eval[order[j:k]])
                j = k
        t, y, fy = t_new, y_new, f_new
    if t_eval is None:
        times, points = np.array(ts), np.stack(ys, axis=0)
    else:
        points[order[j:]] = y  # t1 == t0: no step was taken
        times = t_eval
    stats = {"accepted": accepted, "rejected": rejected,
             "max_local_error": float(max_err)}
    return times, points, stats


def _batch_ends(f, t0, y0, t1, cfg, renorm):
    """Start and end points (2, m, d) and stats of a batch of m start points.

    Each row's last point is recorded after ``renorm`` (the sphere
    renormalizer or None) has put it back on the chart.
    """
    ends = y0.copy()
    accepted = rejected = 0
    max_err = 0.0
    steps = _adaptive_steps(f, t0, y0, t1, cfg, _DOP853, renorm,
                           rowwise=True)
    next(steps)  # the start, with err 0
    for _, y, _, err, rej, ids, _ in steps:
        ends[ids] = y
        ok = err <= 1.0
        accepted += int(np.count_nonzero(ok))
        rejected += rej
        max_err = float(err.max(where=ok, initial=max_err))
    stats = {"accepted": accepted, "rejected": rejected,
             "max_local_error": max_err}
    return np.array([t0, t1]), np.stack([y0, ends]), stats


def integrate(field, p0, t_span, cfg=None, t_eval=None):
    """Integrate the flow of a field from p0 over t_span.

    ``field`` is a FieldHandle (sphere charts are renormalized after every
    accepted step) or a plain callable.  The steps are DOP853's.  For one
    start point p0 (d,) the trajectory holds the accepted step points, or
    with ``t_eval`` the 7th-order dense output at the requested times.  A
    batch p0 (m, d) runs as one call, every row with its own step control;
    the result holds only the start and end points, ``times`` [t0, t1] and
    ``points`` (2, m, d), and ``t_eval`` raises ValueError.  Samples are in
    chronological order, so ``end`` is the point at the later time also for
    a backward run.  The stats are ints summed over rows ("accepted",
    "rejected"), the largest accepted local error norm ("max_local_error")
    and the number of field calls ("rhs_calls": the stages, the dense
    output's extra stages and the re-evaluations after a renormalization;
    a batch call counts once).  Angles in the result are wrapped.
    """
    cfg = cfg or IntegratorConfig()
    if isinstance(field, FieldHandle):
        chart, func = field.chart, field.func
    else:
        chart, func = None, field
    t0, t1 = float(t_span[0]), float(t_span[1])
    p0 = np.asarray(p0, dtype=float)
    calls = 0

    def f(y):
        nonlocal calls
        calls += 1
        return func(y)

    renorm = chart.wrap if chart is not None and chart.is_sphere else None
    if p0.ndim == 1:
        times, points, stats = _one_point(f, t0, p0, t1, cfg, renorm, t_eval)
    elif t_eval is not None:
        raise ValueError("dense output (t_eval) needs one start point, "
                         f"not a batch of shape {p0.shape}")
    else:
        times, points, stats = _batch_ends(f, t0, p0, t1, cfg, renorm)
    stats["rhs_calls"] = calls
    if chart is not None:
        points = chart.wrap(points)
    if times.size > 1 and times[-1] < times[0]:
        times, points = times[::-1].copy(), points[::-1].copy()
    return Trajectory(chart=chart, times=times, points=points, stats=stats)


def flow_commutation_residual(field, lam, p0, t):
    """Chart distance between flowing lambda . p0 and acting on the flow of p0.

    ``lam`` (n,) or (m, n) broadcasts against ``p0`` (d,) or (m, d); both
    sides of every pair run as one batch of 2m rows, over time ``t`` of
    either sign, with the default ``IntegratorConfig``.  Returns a float
    for one lambda and one point, else the (m,) residuals.
    """
    chart = field.chart
    moved = chart.act(lam, p0)
    starts = np.stack([moved, np.broadcast_to(p0, moved.shape)])
    traj = integrate(field, starts.reshape(-1, chart.dim), (0.0, t))
    ends = (traj.end if t >= 0 else traj.start).reshape(starts.shape)
    r = chart.distance(ends[0], chart.act(lam, ends[1]))
    return float(r) if r.ndim == 0 else r


# ---------------------------------------------------------------------------
# base dynamics: limit-set classification and basin census


def _onto_triangle(x):
    """Base points x (m, 2) moved onto the closed S^5 triangle.

    A base step can leave the triangle; the runner evaluates the base
    tangent at the nearby edge point instead.
    """
    x = np.maximum(x, 0.0)
    return x / np.maximum(1.0, x.sum(axis=-1, keepdims=True))


def _base_cap(d, fiber_tol):
    """Base step caps at distances d (m,) to the nearest target.

    The larger of d / 1.05 and (d - fiber_tol / 2) / (1 + 1e-6): both stay
    below d by more than the rounding of a step, whose size bounds how far
    it moves (b5 sums to 1).  A straight approach from d ends about
    fiber_tol / 2 + 1e-6 d from the target, within fiber_tol while
    d < 5e5 fiber_tol; a row within fiber_tol / 2 of a target still moves.
    """
    return np.maximum(d / _REACH, (d - fiber_tol / 2) / (1.0 + 1e-6))


class _BaseFlow:
    """Unit-speed base direction field of a T-invariant field, and its runner.

    ``velocity(x)`` is ``sign`` times the field's base tangent over the base
    points x (m, base_dim), divided by its norm; where the tangent vanishes
    (norm below 1e-300) it is returned as is.  ``hook(ids, x)`` gives the
    rows' base distances d to the nearest target and the index of that
    target.  ``run`` caps each step, the first one included, at
    ``_base_cap(d, fiber_tol)``, the larger of d / 1.05 and
    (d - fiber_tol / 2) / (1 + 1e-6).  The runner steps with Cash and
    Karp's pair, whose 5th-order weights b5 are all >= 0 and sum to 1:
    every stage has at most unit speed, so an accepted step of size h moves
    its point by at most h, whichever way the stages point (DOP853's
    sum |b_i| is 12.9).  A capped step stays short of d and can neither
    reach the nearest target nor, on a 1-D base, pass it.  This bound does
    not rest on the error estimate, which cannot see a sign flip that only
    stage 2 samples (its weight is 0 there).  On a 1-D base the velocity is
    constant between zeros, so every step is exact and at the cap: a step
    toward the nearest target ends within fiber_tol of it, and a step away
    from it moves by about d.  The d / 1.05 arm moves a row that starts
    within fiber_tol / 2 of a target.  Where the error estimate sets the
    step, as on the curved S^5 orbits, it depends on h / d near a source,
    so after each step ``run`` scales a row's next step by min(1, d_new /
    d_old), the factor by which its distance shrank, on top of the
    controller's growth.
    ``run`` takes a batch of base points to their ``outcomes``; ``rows``
    counts the base points at which it evaluated the base tangent (rows of
    the field's ``base_rule`` where it declares one, else field rows at
    the lifted points) and ``rejected`` its rejected step attempts, summed
    over rows.  The caller passes v = X(p), the field at a chart point
    ``p``.  Only a T-invariant field has base dynamics: ValueError
    when the base tangent at ``p`` moves by more than 1e-9 |X(p)| under two
    torus elements, or when a declared rule differs there by more than
    that from the field's base tangent.
    ``still`` is True when the base tangent at ``p`` is within the same
    bound of 0: the base does not move there.
    """

    def __init__(self, field, sign, p, v):
        chart = field.chart
        q = chart.act(np.array([[0.7], [2.9]]) * np.arange(1, chart.n + 1), p)
        tangent = chart.base_tangent(p, v)
        bound = 1e-9 * np.linalg.norm(v)
        gap = np.linalg.norm(chart.base_tangent(q, field(q)) - tangent,
                             axis=-1).max()
        if not gap <= bound:
            raise ValueError(f"field {field.name!r} is not invariant under "
                             f"the torus at {p}: base tangent moves {gap:.3g}")
        self.rule = field.base_rule
        if self.rule is not None:
            gap = np.linalg.norm(self.rule(chart.base(p)) - tangent)
            if not gap <= bound:
                raise ValueError(f"the base rule of field {field.name!r} "
                                 f"misses its base tangent at {p} by "
                                 f"{gap:.3g}")
        self.still = bool(np.linalg.norm(tangent) <= bound)
        self.field, self.sign, self.rows, self.rejected = field, sign, 0, 0
        fibers = field.singular_fibers  # the targets: sources, then fibers
        self.labels = ([f"source_{i}" for i in range(len(field.sources))]
                       + [fib.label for fib in fibers])
        pts = list(field.sources) + [fib.base_point for fib in fibers]
        self.tpts = np.array(pts, dtype=float).reshape(-1, chart.base_dim)
        self.outcomes = self.labels + ["escape", "singular_set"]

    def distances(self, x):
        """Base distances (..., T) from base points x (..., base_dim)."""
        return self.field.chart.base_distance(x[..., None, :], self.tpts)

    def nearest(self, dist):
        """Distance and label of the nearest target, from (T,) distances."""
        if not self.labels:
            return np.inf, None
        j = int(np.argmin(dist))
        return float(dist[j]), self.labels[j]

    def velocity(self, x):
        self.rows += len(x)
        chart = self.field.chart
        if chart.is_sphere:
            x = _onto_triangle(x)
        if self.rule is not None:
            v = self.sign * self.rule(x)
        else:
            ys = chart.lift(x)
            v = self.sign * chart.base_tangent(ys, self.field.func(ys))
        nv = np.sqrt(np.einsum("ij,ij->i", v, v))[:, None]
        nv[nv < 1e-300] = 1.0
        return v / nv

    def hook(self, ids, x):
        dist = self.distances(x)
        d = dist.min(axis=1, initial=np.inf)
        nearest = (dist.argmin(axis=1) if dist.shape[1]
                   else np.zeros(len(x), dtype=int))
        return d, nearest

    def run(self, xs, horizon, cfg, fiber_tol):
        """Run a batch of base points xs (m, base_dim) to arc length horizon.

        After each accepted step a row stops, and leaves the batch, at the
        first of these ``outcomes``:
        - its nearest target, when the distance to it is below ``fiber_tol``
          and did not grow over the step (a start exactly on a target has
          velocity 0, stays and counts);
        - "singular_set", when the velocity at the accepted point (the
          step's FSAL derivative) vanishes, or points against the velocity
          before the step, at least ``fiber_tol`` from every target: the
          point will not move again, or the step crossed a zero that is not
          a target (on a 1-D base rows would chatter across it);
        - "escape", when the base is R^k and the point is beyond radius 25.
        Returns per row the index of its outcome (-1 for none), its last
        point and its arc length, then "horizon" or the FlowError's reason,
        which ended the rows left without an outcome.
        """
        outcome = np.full(len(xs), -1)
        ends, lengths = xs.copy(), np.zeros(len(xs))
        near = self.distances(xs).min(axis=1, initial=np.inf)
        escape_radius = 25.0 if self.field.chart.kind == "product" else np.inf
        steps = _adaptive_steps(self.velocity, 0.0, xs, horizon, cfg,
                                _CASH_KARP, h0=_base_cap(near, fiber_tol))
        vel = next(steps)[2].copy()  # the start
        sent, stop = None, "horizon"
        try:
            while True:
                s, x, v, err, rejected, ids, _ = steps.send(sent)
                self.rejected += rejected
                d, nearest = self.hook(ids, x)
                ends[ids], lengths[ids] = x, s[:, 0]
                ok = err[:, 0] <= 1.0
                hit = ok & (d < fiber_tol) & (d <= near[ids])
                # a row's next step shrinks as its distance did
                scale = np.divide(d, near[ids], out=np.ones_like(d),
                                  where=d < near[ids])
                near[ids] = d
                turn = np.einsum("ij,ij->i", v, vel[ids])
                vel[ids] = v  # a rejected row keeps its velocity
                still = np.einsum("ij,ij->i", v, v) == 0  # |v| < 1e-300
                stuck = ok & (d >= fiber_tol) & (still | (turn < 0))
                far = ok & (np.einsum("ij,ij->i", x, x) > escape_radius ** 2)
                drop = hit | stuck | far
                if np.count_nonzero(drop):
                    outcome[ids[far]] = len(self.labels)
                    outcome[ids[stuck]] = len(self.labels) + 1
                    outcome[ids[hit]] = nearest[hit]
                sent = drop, _base_cap(d, fiber_tol), scale
        except StopIteration:
            pass
        except FlowError as exc:
            stop = exc.reason
        return outcome, ends, lengths, stop


@dataclass
class LimitSetReport:
    kind: str  # fixed_point | singular_fiber | torus_closure | escape | inconclusive
    target: Optional[str]
    final_distance: float
    horizon: float
    # converged | singular_set | horizon | step_budget | underflow
    stop_reason: str
    # points at which the runner evaluated the base rule, or the field
    # where it declares none; X(p0) and the invariance check at two
    # torus-moved copies of p0 are not counted
    rhs_rows: int
    # step attempts the runner rejected
    rejected_steps: int
    # of a torus_closure: the frequencies of X on the torus through the
    # start, and a small integer relation among them or None
    frequencies: Optional[tuple] = None
    relation: Optional[tuple] = None


def classify_limit(field, p0, direction="forward", horizon=200.0, cfg=None,
                   fiber_tol=1e-5):
    """Classify the alpha- (backward) or omega- (forward) limit of a trajectory.

    The base point of p0 runs alone through ``_BaseFlow.run``, so ``horizon``
    is base arc length: a target gives ``singular_fiber`` and an escape
    (beyond base radius 25 on R^k) ``escape``, both "converged", and the
    singular set (the edge of the S^5 triangle) ``inconclusive`` with
    ``stop_reason`` "singular_set".  Any other run is ``inconclusive`` with
    ``stop_reason`` "horizon", "step_budget" or "underflow".  Where the base
    tangent at p0 is within 1e-9 |X(p0)| of 0 (``_BaseFlow.still``) the base
    does not move: p0 lies on a source torus, where the T-invariant X is the
    fundamental field of one frequency vector, the rates of the fiber
    angles ``chart.fiber_rates(p0, X(p0))``, and the flow is the linear
    drift along it.  That gives ``torus_closure``, "converged", with no
    integration: ``frequencies`` are those of X (the backward flow drifts
    along their negatives) and ``relation`` is ``rational_relation`` of
    them over their largest magnitude (None when it finds none).
    ``rhs_rows`` counts the rows evaluated, of the base rule or of the
    field, and ``rejected_steps`` the step attempts rejected, by the run.
    Raises ValueError when X is not T-invariant at p0, or when a declared
    base rule misses the field's base tangent there.
    """
    cfg = cfg or IntegratorConfig(rtol=1e-8, atol=1e-10, max_steps=200_000)
    chart = field.chart
    p0 = np.asarray(p0, dtype=float)
    sign = 1.0 if direction == "forward" else -1.0
    v0 = field(p0)
    if np.linalg.norm(v0) < 1e-300:
        return LimitSetReport("fixed_point", None, 0.0, 0.0, "converged", 0,
                              0)
    flow = _BaseFlow(field, sign, p0, v0)
    x0 = chart.base(p0)
    if not flow.still:
        outcome, ends, lengths, stop = flow.run(x0[None], horizon, cfg,
                                                fiber_tol)
        d, label = flow.nearest(flow.distances(ends[0]))
        what = flow.outcomes[outcome[0]] if outcome[0] >= 0 else stop
        if what == "escape":
            label, kind, what = None, "escape", "converged"
        elif what in flow.labels:
            kind, what = "singular_fiber", "converged"
        else:
            kind = "inconclusive"
        return LimitSetReport(kind, label, d, float(lengths[0]), what,
                              flow.rows, flow.rejected)
    omega = chart.fiber_rates(p0, v0)
    return LimitSetReport(
        "torus_closure", None, flow.nearest(flow.distances(x0))[0], 0.0,
        "converged", 0, 0, frequencies=tuple(float(w) for w in omega),
        relation=rational_relation(omega / np.abs(omega).max()))


@dataclass
class CensusReport:
    n_samples: int
    counts: dict
    source_fraction: float
    unclassified_fraction: float
    seed: int
    stop_reason: str  # all_assigned | horizon | step_budget | underflow
    # base points at which the runner evaluated the base rule, or the
    # lifted field where it declares none; the invariance check over the
    # first sample (three field rows) is not counted
    rhs_rows: int
    # step attempts the runner rejected, summed over samples
    rejected_steps: int


def _default_base_sampler(chart):
    if chart.kind == "circle_product":
        return lambda rng, n: rng.uniform(0.0, TWO_PI, size=(n, 1))
    if chart.is_sphere:
        def triangle(rng, n):
            pts = rng.uniform(0.02, 0.98, size=(n, 2))
            bad = pts.sum(axis=1) > 0.98
            while np.any(bad):
                pts[bad] = rng.uniform(0.02, 0.98, size=(int(bad.sum()), 2))
                bad = pts.sum(axis=1) > 0.98
            return pts
        return triangle
    if chart.k == 1:
        return lambda rng, n: rng.uniform(-1.0, 5.0, size=(n, 1))

    def disc(rng, n):
        r = np.sqrt(rng.uniform(0.0, 1.0, size=n)) * 2.0
        ang = rng.uniform(0.0, TWO_PI, size=n)
        return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)

    return disc


def basin_census(field, n_samples, seed=0, sampler=None, fiber_tol=1e-5,
                 max_steps=100_000):
    """Backward-classify a sample of base points to their source fibers.

    The samples run as one batch through ``_BaseFlow.run`` on the backward
    unit-speed base direction field, to base arc length 500 at rtol 1e-6
    and atol 1e-9, with ``max_steps`` attempts per sample.  On a 1-D base
    a sample's step toward its nearest target lands within ``fiber_tol``
    of it, and a step away from it about doubles its distance.  ``counts``
    holds every outcome some sample reached: a target label, "escape" or
    "singular_set".  ``stop_reason`` is "all_assigned" when every sample
    reached one, else why the integration ended; the samples without one
    count as unclassified.  ``rhs_rows`` counts the base points at which
    the base tangent was evaluated: by the field's ``base_rule``, or by the
    field at the lifted points where it declares none, and
    ``rejected_steps`` the step attempts the runner rejected, summed over
    samples.  Raises ValueError when X is not
    T-invariant at the first sample, or when a declared rule misses the
    field's base tangent there.
    """
    chart = field.chart
    rng = np.random.default_rng(seed)
    sampler = sampler or _default_base_sampler(chart)
    xs = sampler(rng, n_samples)
    p = chart.lift(xs[0])
    flow = _BaseFlow(field, -1.0, p, field(p))
    cfg = IntegratorConfig(rtol=1e-6, atol=1e-9, max_steps=max_steps)
    outcome, _, _, stop = flow.run(xs, 500.0, cfg, fiber_tol)
    hits = np.bincount(outcome[outcome >= 0], minlength=len(flow.outcomes))
    return CensusReport(
        n_samples=n_samples,
        counts={lbl: int(c) for lbl, c in zip(flow.outcomes, hits) if c},
        source_fraction=int(hits[:len(field.sources)].sum()) / n_samples,
        unclassified_fraction=float(np.mean(outcome < 0)),
        seed=seed,
        stop_reason="all_assigned" if np.all(outcome >= 0) else stop,
        rhs_rows=flow.rows,
        rejected_steps=flow.rejected,
    )


# ---------------------------------------------------------------------------
# singularity order estimation


@dataclass
class SingularityReport:
    location: np.ndarray
    estimated_order: float
    declared_order: Optional[int]
    r_squared: float
    radii: np.ndarray
    slopes: tuple

    @property
    def ok(self):
        return np.isfinite(self.estimated_order) and self.r_squared >= 0.99


def _probe_directions(chart, x0, r_max):
    bd = chart.base_dim
    if bd == 1:
        cands = [np.array([1.0]), np.array([-1.0])]
    else:
        angles = 0.4 + np.arange(8) * (np.pi / 4.0)
        cands = [np.array([np.cos(a), np.sin(a)]) for a in angles]
    out = []
    for u in cands:
        if chart.is_sphere and not in_triangle(x0 + r_max * u, margin=0.0):
            continue
        out.append(u)
        if len(out) == 4:
            break
    return out


def estimate_order(field, p0):
    """Estimate the nullity order of a field at a singular point.

    Fits log ||field|| against log(base displacement) at the radii
    np.logspace(-6, -4, 8) along up to 4 probe rays, with one field call
    for all rays and the least-squares slope in closed form, and reports
    the median slope; r^2 below 0.99 flags a degenerate regression.  A ray
    on which the field reads 0 is left out.  The declared order is that
    of a declared fiber at p0 (base distance < 1e-9), or None.
    """
    chart = field.chart
    p0 = np.asarray(p0, dtype=float)
    radii = np.logspace(-6.0, -4.0, 8)
    x0 = chart.base(p0)
    fibers, declared_order = field.singular_fibers, None
    if fibers:
        d = chart.base_distance(x0, [fib.base_point for fib in fibers])
        if d.min() < 1e-9:
            declared_order = fibers[int(d.argmin())].order
    rays = np.array(_probe_directions(chart, x0, float(radii.max())))
    slopes, r2s = (), []
    if len(rays):
        delta = (rays[:, None, :] * radii[:, None]).reshape(-1, rays.shape[1])
        vals = np.linalg.norm(field.func(chart.displace_base(p0, delta)),
                              axis=-1).reshape(len(rays), len(radii))
        lv = np.log(vals[~np.any(vals <= 0.0, axis=1)])
        lv -= lv.mean(axis=1, keepdims=True)
        lr = np.log(radii)
        lr -= lr.mean()
        slope = lv @ lr / (lr @ lr)
        ss_res = np.sum((lv - slope[:, None] * lr) ** 2, axis=1)
        ss_tot = np.sum(lv ** 2, axis=1)
        slopes = tuple(float(v) for v in slope)
        r2s = [1.0 - float(a / b) if b > 0 else 0.0
               for a, b in zip(ss_res, ss_tot)]
    if not slopes:
        return SingularityReport(p0, np.nan, declared_order, 0.0, radii, ())
    return SingularityReport(
        location=p0,
        estimated_order=float(np.median(slopes)),
        declared_order=declared_order,
        r_squared=float(np.min(r2s)),
        radii=radii,
        slopes=slopes,
    )


# ---------------------------------------------------------------------------
# equidistribution


def equidistribution_discrepancy(traj_or_angles, bins):
    """Box-count discrepancy of visited fiber angles against uniform measure.

    Returns half the total-variation distance between the empirical bin
    distribution and uniform, a number in [0, 1].  A trajectory's angles
    count only if its base drifts at most 1e-6 (ValueError otherwise).
    """
    if isinstance(traj_or_angles, Trajectory):
        traj = traj_or_angles
        chart = traj.chart
        base_drift = np.max(
            chart.base_distance(chart.base(traj.points), chart.base(traj.points[0]))
        )
        if base_drift > _BASE_TOL:
            raise ValueError(
                f"trajectory not fiber-confined: base drift {base_drift:g}"
            )
        angles = chart.fiber_angles(traj.points)
    else:
        angles = np.asarray(traj_or_angles, dtype=float)
    u = np.mod(angles, TWO_PI) / TWO_PI
    n_dim = u.shape[1]
    hist, _ = np.histogramdd(u, bins=[bins] * n_dim,
                             range=[(0.0, 1.0)] * n_dim)
    p = hist.ravel() / len(u)
    return float(0.5 * np.sum(np.abs(p - 1.0 / p.size)))
