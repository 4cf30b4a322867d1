"""Flow integration and trajectory diagnostics.

One Runge-Kutta loop with adaptive step control (``_adaptive_steps``)
takes an embedded pair as data and runs two of them.  ``integrate`` steps
with Dormand and Prince's 8(5,3) pair, DOP853, and gives dense output from
its 7th-order continuous extension (``_dense_output``), whose three extra
stages are evaluated, after the run and in three batched field calls,
only on the steps that hold a requested time.  The base runner of
``classify_limit`` and ``basin_census`` steps with Cash and Karp's 5(4)
pair, whose 5th-order weights are all >= 0, because the base step cap
rests on them (see ``_BaseFlow``).
The loop advances a batch of points, a single start as a batch of one;
every row has its own step size, and a row leaves the batch when it is
finished.  It holds no caller's step policy: a caller sends back each
row's steps.  Nor does it project its points: it evaluates the field once
per stage, so ``integrate`` returns S^5 points as DOP853 computed them,
and a field that is not tangent to the sphere shows as drift.
``integrate`` takes a batch (m, d) of start points in one call and
returns their start and end points; dense output needs one start point,
and it finds the step that holds each requested time after the run.
``flow_commutation_residual`` runs its two sides, for one or many torus
elements, as one such batch.
The limits of a T-invariant field are those of its base dynamics.
``classify_limit`` (one start) and ``basin_census`` (a batch) run them
through one runner, ``_BaseFlow.run``, on a unit-speed base direction field,
so their horizons are base arc length.  The runner sets every step: each
one, the first included, is capped short of the nearest target the row can
reach (``_base_cap``; on a 1-D base the one ahead, reached in one step),
and a row's step shrinks with its distance to a target.  The runner
evaluates a field's declared ``base_rule``, checked against the field,
instead of the whole field at lifted points.  It keeps the base orbits, and
neither the torus drift nor the slowdown near high-order zeros can stall
it.  Where the base does not
move, on a source torus, the flow is a linear drift on the torus, and
``classify_limit`` reads its frequencies off the field without integrating.
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
# the RK loop's record (_adaptive_steps) of a run that integrates nothing
_NO_RUN = dict(rhs_calls=0, rhs_rows=0, attempts=0, accepted=0, rejected=0)


class FlowError(RuntimeError):
    """Integration failure: step underflow, a non-finite step, state or
    derivative, or step budget exhausted.

    ``reason`` is "underflow", "non_finite" or "step_budget".
    """

    def __init__(self, message, reason):
        super().__init__(message)
        self.reason = reason


@dataclass
class IntegratorConfig:
    """``rtol`` and ``atol`` bound each row's RMS local error, ``max_steps``
    its step attempts.  The step controller's safety factor 0.9 and its
    step size factors from 0.2 to 10 are fixed.  ValueError unless rtol
    and atol are finite, >= 0 and not both 0, and max_steps is an int
    >= 1."""

    rtol: float = 1e-9
    atol: float = 1e-12
    max_steps: int = 400_000

    def __post_init__(self):
        rtol, atol = self.rtol, self.atol
        if not (0.0 <= rtol < math.inf and 0.0 <= atol < math.inf
                and rtol + atol > 0.0):  # NaN fails too
            raise ValueError(f"rtol and atol must be finite, >= 0 and not "
                             f"both 0, got rtol={rtol!r}, atol={atol!r}")
        if type(self.max_steps) is not int or self.max_steps < 1:
            raise ValueError(f"max_steps must be an int >= 1, "
                             f"got {self.max_steps!r}")


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
    """Starting step (m, 1) of each row of a batch y0 (m, d).

    It scales with max(rtol, 1e-12) ** exponent."""
    scale = 1.0 + np.linalg.norm(y0, axis=-1, keepdims=True)
    rate = np.linalg.norm(f0, axis=-1, keepdims=True)
    with np.errstate(divide="ignore", over="ignore"):
        h = np.minimum(1e-2 * scale / rate, 1.0) * max(rtol, 1e-12) ** exponent
    return direction * np.where(rate < 1e-300, 1e-3, h)


def _adaptive_steps(f, t0, y0, t_end, cfg, pair, stats, rowwise=False):
    """Generator of accepted steps (t, y, f(y), err_norm, ids, K, h).

    ``pair`` (``_DOP853`` or ``_CASH_KARP``) is the Runge-Kutta pair it
    steps with.  ``y0`` is a batch (m, d) of start points; a single start
    is a batch of one.  Every row has its own time and step size and is
    accepted or rejected on its own error norm; t, err and h are (m, 1)
    columns, and ``ids`` are the original numbers of the live rows.  A
    yield follows every attempt that accepted some row; the points are the
    pair's own, and f(y) is the attempt's last stage (FSAL), so ``f`` is
    evaluated once per stage and never again.  ``K`` holds the attempt's
    stages along its axis -2 (None at the first yield); the next attempt
    overwrites it.  ``h`` is the step each live row tries next,
    ``_initial_step``'s guess at the first yield.  The consumer may answer
    any yield with ``send((drop, h))``: a mask (m,) of rows to drop (None
    at the first yield) and the steps (m, 1) they try instead.  Then the
    finished rows (at ``t_end``, or dropped) leave the batch and the live
    rows are packed together, so ``f`` only sees live rows; the generator
    ends when no row is left.  Row masks are counted with count_nonzero,
    a fraction of the cost of any and all.

    With ``rowwise`` every row takes the steps, bit for bit, of a run of
    its own as a batch of one (for a field that evaluates a row of a batch
    as it does a batch of one): the stage sums are one matrix-vector
    product per row, with K (m, stages, d).  Without it the stage sums are
    one product over all rows, with K (stages, m d), which is faster for
    many rows but rounds differently from one row to the next.

    ``stats`` is the run's record, a dict the loop fills as it runs, so
    its counts hold also when FlowError ends the run: "rhs_calls" and
    "rhs_rows", the calls of ``f`` and the rows they evaluated (the start
    and the stages, 1 + (stages - 1) * attempts calls); "attempts", the
    step attempts, which all live rows make together; "accepted" and
    "rejected", the row steps accepted and rejected, summed over rows.

    The first yield is the initial condition with err 0.  All live rows
    have made the same number of attempts, so ``cfg.max_steps`` bounds the
    attempts of each row.  Raises FlowError on step underflow, on a step,
    state or derivative that is not finite (a NaN start gets a NaN first
    step, and a NaN error norm carries into the next step), or when a row
    spends cfg.max_steps before t_end; its ``reason`` is "underflow",
    "non_finite" or "step_budget".
    """
    direction = 1.0 if t_end >= t0 else -1.0
    # a step past t_end, a row at or past it: direction * (a - b) > 0, >= 0
    past, reached = (gt, ge) if direction > 0 else (lt, le)
    y = np.array(y0, dtype=float)
    k1 = np.asarray(f(y), dtype=float)
    (m, d), K = y.shape, None
    ids = np.arange(m)  # the live rows
    stats.update(_NO_RUN, rhs_calls=1, rhs_rows=m)
    rtol, atol, max_steps = cfg.rtol, cfg.atol, cfg.max_steps
    a, b, e5, e3, (grow_exp, shrink_exp, start_exp) = pair
    h = _initial_step(k1, y, direction, rtol, start_exp)
    _, h = (yield float(t0), y, k1, 0.0, ids, None, h) or (None, h)
    if t_end == t0 or y.size == 0:
        return
    n_stages, t = len(a), np.full((m, 1), float(t0))
    while True:
        if stats["attempts"] >= max_steps:
            raise FlowError(f"step budget {max_steps} exhausted at t={t}",
                            "step_budget")
        h = np.where(past(t + h, t_end), t_end - t, h)
        # a NaN step fails too
        if np.count_nonzero(abs(h) >= 1e-14 * np.maximum(1.0, abs(t))) < m:
            if not (np.isfinite(h).all() and np.isfinite(y).all()
                    and np.isfinite(k1).all()):
                raise FlowError(f"non-finite step, state or derivative at "
                                f"t={t}, point {y}", "non_finite")
            raise FlowError(f"step underflow at t={t}, point {y}",
                            "underflow")
        if K is None:  # stage derivatives, the stage axis at -2
            if rowwise:  # (m, stages, d): one product per row
                K = np.empty((m, n_stages, d))
                stage = K.transpose(1, 0, 2)
                combine = np.matmul
            else:  # (stages, m d): one product for all rows
                K = np.empty((n_stages, y.size))
                stage = K.reshape(n_stages, m, d)
                combine = lambda w, K: w.dot(K).reshape(-1, d)
            before = [K[..., :i, :] for i in range(n_stages)]
        # h spread over each row where the rows share one product
        hb = h if rowwise else h.repeat(d, axis=1)
        stage[0] = k1
        for i in range(1, n_stages):
            stage[i] = k = f(y + hb * combine(a[i], before[i]))
        y_new = y + hb * combine(b, K)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        if e3 is None:  # RMS error norm of each row
            q = hb * combine(e5, K) / scale
            err = np.sqrt(np.add.reduce(q * q, axis=-1, keepdims=True) / d)
        else:  # DOP853's blend of its two estimates, 0 where both vanish
            # from the stages' differences to the first one, where the
            # rounding of a large common part (a drift) does not enter
            dK = K[..., 1:, :] - K[..., :1, :]
            q = hb * combine(e5[1:], dK) / scale
            q3 = hb * combine(e3[1:], dK) / scale
            err = np.add.reduce(q * q, axis=-1, keepdims=True)
            err = err / np.sqrt(np.maximum(1e-300, d * (err + 0.01 * (
                np.add.reduce(q3 * q3, axis=-1, keepdims=True)))))
        ok = err <= 1.0
        n_ok = int(np.count_nonzero(ok))  # the accepted rows
        stats["attempts"] += 1
        stats["rhs_calls"] += n_stages - 1
        stats["rhs_rows"] += (n_stages - 1) * m
        stats["accepted"] += n_ok
        stats["rejected"] += m - n_ok
        # the floor 1e-10 of e gives both pairs the largest growth factor
        e = np.maximum(err, 1e-10)
        grow = np.minimum(_MAX_FACTOR, np.maximum(
            _MIN_FACTOR, _SAFETY * np.power(e, -grow_exp)))
        if n_ok == m:
            t, y, k1, h = t + h, y_new, k, h * grow  # FSAL
        else:
            shrink = np.maximum(_SAFETY * np.power(e, -shrink_exp),
                                _MIN_FACTOR)
            t, y = np.where(ok, t + h, t), np.where(ok, y_new, y)
            k1, h = np.where(ok, k, k1), h * np.where(ok, grow, shrink)
            if not n_ok:
                continue
        drop, h = (yield t, y, k1, err, ids, K, h) or (None, h)
        done = reached(t, t_end)
        if drop is not None:
            done = done | drop[:, None]
        n_done = np.count_nonzero(done)
        if n_done:
            if n_done == m:
                return
            keep = ~done[:, 0]
            ids, y, k1 = ids[keep], y[keep], k1[keep]
            t, h, K, m = t[keep], h[keep], None, len(ids)


def _dense_output(f, steps, times):
    """DOP853's 7th-order continuous extension of steps, at their times.

    Each step (t0, y0, f0, t1, y1, f1, K) went from (t0, y0) to (t1, y1),
    with derivatives f0 and f1 there and stages K (13, d); ``times`` holds,
    for each step, the times (k,) to evaluate it at.  The three extra
    stages of all steps cost three calls of ``f`` on (steps, d).  Returns
    the points (sum of k, d), step after step; at t0 and t1 they are y0
    and y1 to rounding.
    """
    t0, y0, f0, t1, y1, f1, K = (np.array(v) for v in zip(*steps))
    h = (t1 - t0)[:, None]
    stages = np.empty((len(steps), 16, y0.shape[-1]))
    stages[:, :13] = K
    for i, a in enumerate(_DENSE_A, start=13):
        stages[:, i] = f(y0 + h * np.matmul(a, stages[:, :i]))
    dy = y1 - y0
    coeffs = [dy, h * f0 - dy, 2 * dy - h * (f0 + f1),
              *(h[:, None] * np.matmul(_DENSE_D, stages)).transpose(1, 0, 2)]
    which = np.repeat(np.arange(len(steps)), [len(t) for t in times])
    x = ((np.concatenate(times) - t0[which]) / h[which, 0])[:, None]
    y = 0.0
    for i, c in enumerate(reversed(coeffs)):  # nested in x and 1 - x
        y = (y + c[which]) * (x if i % 2 == 0 else 1 - x)
    return y0[which] + y


def integrate(field, p0, t_span, cfg=None, t_eval=None):
    """Integrate the flow of a field from p0 over t_span.

    ``field`` is a FieldHandle or a plain callable, which has to act on the
    last axis of a batch (m, d) of points, as every library field does.  The
    steps are DOP853's, and a single start p0 (d,) runs as a batch of one.
    Its trajectory holds the accepted step points, or with ``t_eval`` the
    7th-order dense output at the requested times: after the run, each time
    is evaluated on the first step whose end is not before it, in the run's
    direction, else on the last step; so a time before t0 falls on the first
    step and one after t1 on the last.  A batch p0 (m, d) runs as one call,
    every row with its own step control and, bit for bit, the steps of its
    own run; the result holds only the start and end points, ``times``
    [t0, t1] and ``points`` (2, m, d), and ``t_eval`` raises ValueError.
    Samples are in chronological order, so ``end`` is the point at the
    later time also for a backward run.  The stats are the RK loop's record
    (``_adaptive_steps``) with the dense output's extra stages, three calls
    that evaluate three rows for each step that holds a requested time: the
    ints "rhs_calls" and "rhs_rows" (field calls, a batch call counting
    once, and the rows they evaluated), "attempts" (step attempts, which a
    batch's rows make together), "accepted" and "rejected" (row steps,
    summed over rows), and "max_local_error", the largest accepted local
    error norm.  Angles in the result are wrapped.  Sphere points are
    returned as integrated, not renormalized, so a field that is not
    tangent to the sphere drifts off it.  Raises ValueError for a t_span
    entry that is not finite.
    """
    cfg = cfg or IntegratorConfig()
    if isinstance(field, FieldHandle):
        chart, f = field.chart, field.func
    else:
        chart, f = None, field
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must be finite, got {t_span!r}")
    p0 = np.asarray(p0, dtype=float)
    one = p0.ndim == 1
    if t_eval is not None and not one:
        raise ValueError("dense output (t_eval) needs one start point, "
                         f"not a batch of shape {p0.shape}")
    stats = {}
    steps = _adaptive_steps(f, t0, p0[None] if one else p0, t1, cfg, _DOP853,
                            stats, rowwise=True)
    _, y, fy = next(steps)[:3]  # the start, with err 0
    run = [(t0, y[0], fy[0])] if one else []
    Ks = []  # the stages of a single start's steps, kept for t_eval
    ends, max_err = y.copy(), 0.0
    for t, y, fy, err, ids, K, _ in steps:
        ends[ids] = y
        max_err = float(err.max(where=err <= 1.0, initial=max_err))
        if one:  # a single start keeps every step's (t, y, f(y)) and K
            run.append((float(t[0, 0]), y[0], fy[0]))
            Ks.append(None if t_eval is None else K[0].copy())
    stats["max_local_error"] = max_err
    if not one:
        times, points = np.array([t0, t1]), np.stack([p0, ends])
    else:
        times, points, _ = (np.array(v) for v in zip(*run))
    if t_eval is not None:
        t_eval = np.atleast_1d(np.asarray(t_eval, dtype=float))
        sign = 1.0 if t1 >= t0 else -1.0  # the steps run in this direction
        # the step that holds each time: the first whose end is not before
        # it, else the last
        k = np.searchsorted(sign * times[1:-1], sign * t_eval)
        order = np.argsort(k, kind="stable")
        held, first = np.unique(k[order], return_index=True)
        # t1 == t0: no step was taken
        times, points = t_eval, np.repeat(points[-1:], t_eval.size, axis=0)
        if Ks and t_eval.size:
            points[order] = _dense_output(
                f, [run[i] + run[i + 1] + (Ks[i],) for i in held],
                np.split(t_eval[order], first[1:]))
            stats["rhs_calls"] += len(_DENSE_A)
            stats["rhs_rows"] += len(_DENSE_A) * len(held)
    if chart is not None and not chart.is_sphere:
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
    """Base step caps at distances d (m,) to the nearest reachable target.

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
    (norm below 1e-300) it is returned as is.  ``rule`` gives that base
    tangent: the field's declared ``base_rule``, else the field's at the
    lifted points.  ``hook(ids, x)`` gives the
    rows' base distances d to the nearest target and the index of that
    target.  ``reach(x, v, d)`` is the distance to the nearest target rows
    at x with velocities v can reach: d on a 2-D base; on a 1-D base, where
    an orbit is monotone between zeros of the tangent, that to the nearest
    target ahead along v (inf if none is, d where v is 0).  ``run`` caps
    each step, the first one included, at ``_base_cap`` of it.  The runner
    steps with Cash and Karp's pair, whose 5th-order weights b5 are all >= 0
    and sum to 1: every stage has at most unit speed, so an accepted step of
    size h moves its point by at most h, whichever way the stages point
    (DOP853's sum |b_i| is 12.9).  So a capped step can neither reach that
    target nor, on a 1-D base, pass it.  This bound does not rest on the
    error estimate, which cannot see a sign flip that only stage 2 samples
    (its weight is 0 there).  On a 1-D base the velocity is constant between
    zeros, so every step is exact and at the cap, and a row's first step
    ends within fiber_tol of the target ahead of it.  Where the error
    estimate sets the step, as on the curved S^5 orbits, it depends on h / d
    near a source, so after each step ``run`` scales a row's next step by
    min(1, d_new / d_old), the factor by which its distance to the nearest
    target shrank.  ``run`` sends the RK loop every step it takes.
    ``run`` takes a batch of base points to their ``outcomes``.  The runner
    counts nothing itself: ``stats`` is the RK loop's record of its last
    run, also of one that FlowError ended, whose "rhs_rows" are the base
    points at which it evaluated the base tangent (rows of the field's
    ``base_rule`` where it declares one, else field rows at the lifted
    points).  The caller passes v = X(p), the field at a chart point
    ``p``.  Only a T-invariant field has base dynamics: ValueError when the
    base tangent at ``p`` moves by more than 1e-9 |X(p)| under two torus
    elements, or when a declared rule differs there by more than that from
    the field's base tangent.
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
        if self.rule is None:
            def lifted(x):
                ys = chart.lift(x)
                return chart.base_tangent(ys, field.func(ys))
            self.rule = lifted
        else:
            gap = np.linalg.norm(self.rule(chart.base(p)) - tangent)
            if not gap <= bound:
                raise ValueError(f"the base rule of field {field.name!r} "
                                 f"misses its base tangent at {p} by "
                                 f"{gap:.3g}")
        self.still = bool(np.linalg.norm(tangent) <= bound)
        self.field, self.sign, self.stats = field, sign, {}
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
        if self.field.chart.is_sphere:
            x = _onto_triangle(x)
        v = self.sign * self.rule(x)
        nv = np.sqrt(np.einsum("ij,ij->i", v, v))[:, None]
        nv[nv < 1e-300] = 1.0
        return v / nv

    def hook(self, ids, x):
        dist = self.distances(x)
        d = dist.min(axis=1, initial=np.inf)
        nearest = (dist.argmin(axis=1) if dist.shape[1]
                   else np.zeros(len(x), dtype=int))
        return d, nearest

    def reach(self, x, v, d):
        """Distances (m,) to the nearest target each row can reach."""
        if self.field.chart.base_dim > 1:
            return d
        ahead = (self.tpts[:, 0] - x) * np.sign(v)  # (m, T) along v
        if self.field.chart.base_angular:
            ahead = np.mod(ahead, TWO_PI)
        ahead = np.where(ahead > 0, ahead, np.inf).min(axis=1, initial=np.inf)
        return np.where(v[:, 0] == 0, d, ahead)

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
        Each row's first step is its cap (the loop's guess where that is 0
        or not finite); each next one is the loop's, scaled, then capped.
        """
        outcome = np.full(len(xs), -1)
        ends, lengths = xs.copy(), np.zeros(len(xs))
        near = self.distances(xs).min(axis=1, initial=np.inf)
        escape_radius = 25.0 if self.field.chart.kind == "product" else np.inf
        steps = _adaptive_steps(self.velocity, 0.0, xs, horizon, cfg,
                                _CASH_KARP, self.stats)
        _, _, vel, *_, h = next(steps)  # the start
        cap = _base_cap(self.reach(xs, vel, near), fiber_tol)[:, None]
        sent = None, np.where(np.isfinite(cap) & (cap > 0), cap, h)
        vel, stop = vel.copy(), "horizon"
        try:
            while True:
                s, x, v, err, ids, _, h = steps.send(sent)
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
                cap = _base_cap(self.reach(x, v, d), fiber_tol)
                sent = drop, np.minimum(h * scale[:, None], cap[:, None])
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
    # converged | singular_set | horizon | step_budget | underflow |
    # non_finite
    stop_reason: str
    # the runner's RK-loop record (see _BaseFlow); X(p0) and the invariance
    # check at two torus-moved copies of p0 are not counted
    stats: dict
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
    ``stop_reason`` "horizon", "step_budget", "underflow" or "non_finite";
    a start p0 that is not finite is "non_finite" at once, with
    ``final_distance`` NaN.
    Where the base tangent at p0 is within 1e-9 |X(p0)| of 0
    (``_BaseFlow.still``) the base does not move: p0 lies on a source
    torus, where the T-invariant X is the fundamental field of one
    frequency vector, the rates of the fiber angles
    ``chart.fiber_rates(p0, X(p0))``, and the flow is the linear drift
    along it.  That gives ``torus_closure``, "converged", with no
    integration: ``frequencies`` are those of X (the backward flow drifts
    along their negatives) and ``relation`` is ``rational_relation`` of
    them over their largest magnitude (None when it finds none).
    ``stats`` is a copy of the run's RK-loop record (``_adaptive_steps``),
    whose "rhs_rows" count the rows of the base rule, or of the field where
    it declares none; it holds the counts also when the step budget ends
    the run, and all five are 0 where nothing is integrated (a fixed point,
    a torus closure, a start that is not finite).  Raises ValueError when
    ``direction`` is neither "forward" nor "backward", when ``horizon`` or
    ``fiber_tol`` is not finite and > 0, when X is not T-invariant at p0, or
    when a declared base rule misses the field's base tangent there.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', "
                         f"got {direction!r}")
    if not 0.0 < horizon < math.inf:  # NaN fails too
        raise ValueError(f"horizon must be finite and > 0, got {horizon!r}")
    if not 0.0 < fiber_tol < math.inf:  # NaN fails too
        raise ValueError(f"fiber_tol must be finite and > 0, got {fiber_tol!r}")
    cfg = cfg or IntegratorConfig(rtol=1e-8, atol=1e-10, max_steps=200_000)
    chart = field.chart
    p0 = np.asarray(p0, dtype=float)
    if not np.isfinite(p0).all():
        return LimitSetReport("inconclusive", None, math.nan, 0.0,
                              "non_finite", dict(_NO_RUN))
    sign = 1.0 if direction == "forward" else -1.0
    v0 = field(p0)
    if np.linalg.norm(v0) < 1e-300:
        return LimitSetReport("fixed_point", None, 0.0, 0.0, "converged",
                              dict(_NO_RUN))
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
                              dict(flow.stats))
    omega = chart.fiber_rates(p0, v0)
    return LimitSetReport(
        "torus_closure", None, flow.nearest(flow.distances(x0))[0], 0.0,
        "converged", dict(_NO_RUN),
        frequencies=tuple(float(w) for w in omega),
        relation=rational_relation(omega / np.abs(omega).max()))


@dataclass
class CensusReport:
    n_samples: int
    counts: dict
    source_fraction: float
    unclassified_fraction: float
    # all_assigned | horizon | step_budget | underflow | non_finite
    stop_reason: str
    # the runner's RK-loop record (see _BaseFlow); the invariance check
    # over the first sample, three field rows, is not counted
    stats: dict


def basin_census(field, n_samples, seed=0, sampler=None, fiber_tol=1e-5,
                 max_steps=100_000):
    """Backward-classify a sample of base points to their source fibers.

    The samples, ``sampler(rng, n_samples)`` or else
    ``chart.sample_base(rng, n_samples)``, run as one batch through
    ``_BaseFlow.run`` on the backward unit-speed base direction field, to
    base arc length 500 at rtol 1e-6 and atol 1e-9, with ``max_steps``
    attempts per sample.  On a 1-D base a sample's first step lands within
    ``fiber_tol`` of the target ahead of it.  ``counts`` holds every
    outcome some sample reached: a target label, "escape" or
    "singular_set".  ``stop_reason`` is "all_assigned" when every sample
    reached one, else why the integration ended; the samples without one
    count as unclassified.  A sample that is not finite ends the census
    "non_finite" at once, wherever it sits in the batch: every sample is
    unclassified, nothing is integrated and ``stats`` is all 0.
    ``stats`` is a copy of the run's RK-loop record (``_adaptive_steps``):
    "rhs_calls" and "rhs_rows" are the calls and base points of the base
    tangent, by the field's ``base_rule``, or by the field at the lifted
    points where it declares none; "attempts" the batch step attempts;
    "accepted" and "rejected" the row steps summed over samples.  It holds
    the counts also when the step budget ends the run.  Raises ValueError
    when ``n_samples`` is below 1, when ``fiber_tol`` is not finite and
    > 0, when X is not T-invariant at the first sample, or when a declared
    rule misses the field's base tangent there.
    """
    if n_samples < 1:
        raise ValueError(f"a census needs n_samples >= 1, got {n_samples}")
    if not 0.0 < fiber_tol < math.inf:  # NaN fails too
        raise ValueError(f"fiber_tol must be finite and > 0, got {fiber_tol!r}")
    chart = field.chart
    rng = np.random.default_rng(seed)
    xs = (sampler or chart.sample_base)(rng, n_samples)
    if not np.isfinite(xs).all():
        return CensusReport(n_samples, {}, 0.0, 1.0, "non_finite",
                            dict(_NO_RUN))
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
        stop_reason="all_assigned" if np.all(outcome >= 0) else stop,
        stats=dict(flow.stats),
    )


# ---------------------------------------------------------------------------
# singularity order estimation


@dataclass
class SingularityReport:
    estimated_order: float
    r_squared: float
    radii: np.ndarray
    slopes: tuple

    @property
    def ok(self):
        return np.isfinite(self.estimated_order) and self.r_squared >= 0.99


def _probe_directions(chart, x0, r_max):
    """The first 4 base directions u whose ray to r_max stays in the base
    (on S^5, x0 + r_max u in the triangle)."""
    if chart.base_dim == 1:
        cands = [np.array([1.0]), np.array([-1.0])]
    else:
        angles = 0.4 + np.arange(8) * (np.pi / 4.0)
        cands = [np.array([np.cos(a), np.sin(a)]) for a in angles]
    return [u for u in cands if not chart.is_sphere
            or in_triangle(x0 + r_max * u, margin=0.0)][:4]


def estimate_order(field, p0):
    """Estimate the nullity order of a field at a singular point.

    Fits log ||field|| against log(base displacement) at the radii
    np.logspace(-6, -4, 8) along up to 4 probe rays, with one field call
    for all rays and the least-squares slope in closed form, and reports
    the median slope; r^2 below 0.99 flags a degenerate regression.  A ray
    on which the field reads 0 is left out.
    """
    chart = field.chart
    p0 = np.asarray(p0, dtype=float)
    radii = np.logspace(-6.0, -4.0, 8)
    x0 = chart.base(p0)
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
        return SingularityReport(np.nan, 0.0, radii, ())
    return SingularityReport(
        estimated_order=float(np.median(slopes)),
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
