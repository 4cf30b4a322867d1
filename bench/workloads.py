"""The benchmark's workloads: seeded inputs, one round of operations, checks.

A workload's ``setup`` builds the manifests, generates every input from the
seed and returns the list of operations of one round.  Every round runs the
same operations on the same inputs.  An operation is a library call (timed)
plus a check of its output against ``oracles`` (not timed), which returns
"ok", "failed" (the call gave no answer) or "wrong" (it gave a wrong one).

Library functions are always looked up through their module at call time
(``tf.flow.basin_census``), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

import oracles as O
from tracer import counted_field, counted_function

SQRT2 = math.sqrt(2.0)


class Op:
    """One library call of a round.

    ``call()`` returns the raw result; ``check(result)`` returns
    (status, expected, got).  ``units`` is the work the call does in the
    unit its workload reports (samples, points or calls).
    """

    __slots__ = ("kind", "label", "call", "check", "units", "rows", "batches")

    def __init__(self, kind, label, call, check, units=1):
        self.kind, self.label, self.call = kind, label, call
        self.check, self.units = check, units
        self.rows = self.batches = 0     # field rows and calls, traced runs


def _ok(cond, expected, got):
    return ("ok" if cond else "wrong"), expected, got


def _stream(seed, part):
    return np.random.default_rng([int(seed), part])


def build_manifest(tf, scenario):
    """The scenario's manifest with the CLI's documented defaults."""
    C = tf.construction
    if scenario in ("line", "circle"):
        n, freqs = (1, (1.0,)) if scenario == "line" else (2, (1.0, SQRT2))
        return C.build_line_describing(scenario, n=n, freqs=freqs)
    if scenario == "planar":
        return C.build_planar_demo(orders=(2, 4, 6), radius=1.0, n=2,
                                   freqs=(1.0, SQRT2))
    return C.build_s5()


# ---------------------------------------------------------------------------
# census


class Census:
    """Backward basin census over all four scenarios, two sizes each.

    The census is the library's largest cost and grows faster than its
    sample count: this workload runs the batched Dormand-Prince loop,
    batched field rows and batched chart distances, and nothing of
    ``radial`` or ``verify``.  The large size is the sample count of
    ``torusflow basin`` when its config names none, 200; at the small one
    per-step overhead dominates.
    """

    name = "census"
    SIZES = {"line": (16, 200), "circle": (16, 200), "planar": (8, 200),
             "s5": (16, 200)}
    FIBER_TOL = 1e-5

    def sample(self, scenario, rng, n, zeros):
        """Seeded base samples, one per stratum of the sampling domain.

        Jittered stratification keeps the spread of census cost between
        seeds small; a draw with a sample on the fiber_tol boundary (see
        ``oracles.census_ambiguous``) is replaced by the next draw.
        """
        while True:
            xs = self._stratified(scenario, rng, n)
            if not np.any(O.census_ambiguous(scenario, xs, zeros,
                                             self.FIBER_TOL)):
                return xs

    @staticmethod
    def _stratified(scenario, rng, n):
        u = (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n
        if scenario == "line":
            return (-1.0 + 6.0 * u)[:, None]
        if scenario == "circle":
            return (O.TWO_PI * u)[:, None]
        if scenario == "planar":
            r = 2.0 * np.sqrt(u)
            ang = O.TWO_PI * (rng.permutation(n) + rng.uniform(0.0, 1.0, n)) / n
            return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
        # triangle with margin 0.02: jittered m x m grid pushed through the
        # area-preserving map of the unit square onto the triangle
        m = int(math.ceil(math.sqrt(n)))
        r1 = ((np.arange(m)[:, None] + rng.uniform(0.0, 1.0, (m, m))) / m).ravel()
        r2 = ((np.arange(m)[None, :] + rng.uniform(0.0, 1.0, (m, m))) / m).ravel()
        pick = rng.permutation(m * m)[:n]
        s, r2 = np.sqrt(r1[pick])[:, None], r2[pick][:, None]
        a, b, c = (np.array(v) for v in ((0.02, 0.02), (0.96, 0.02), (0.02, 0.96)))
        return (1.0 - s) * a + s * (1.0 - r2) * b + s * r2 * c

    def setup(self, tf, seed, tracer, work):
        ops = []
        for part, scenario in enumerate(self.SIZES):
            fld = build_manifest(tf, scenario).field
            zero_fibers = [(f.label, f.point()) for f in fld.singular_fibers]
            for size in self.SIZES[scenario]:
                rng = _stream(seed, 100 * part + size)
                xs = self.sample(scenario, rng, size, [p for _, p in zero_fibers])
                want = O.label_counts(O.census_expected_labels(
                    scenario, xs, fld.sources, zero_fibers, self.FIBER_TOL))
                ops.append(self._op(tf, scenario, size, fld, xs, want))
            tf.flow.basin_census(fld, 4, seed=0, max_steps=20)    # warm-up
        return ops

    def _op(self, tf, scenario, size, fld, xs, want):
        def call():
            return tf.flow.basin_census(fld, size, seed=0,
                                        sampler=lambda rng, n: xs.copy(),
                                        fiber_tol=self.FIBER_TOL)

        def check(rep):
            got = dict(rep.counts)
            return _ok(got == want and rep.n_samples == size
                       and rep.unclassified_fraction == 0.0, want, got)

        return Op("census", f"{scenario}.{size}", call, check, units=size)

    def details(self, rounds):
        rates = [sum(op.units for op, *_ in r) / sum(dt for _, dt, *_ in r)
                 for r in rounds]
        return {"census_samples_per_s": (float(np.median(rates)), "samples/s",
                                         f"median of {len(rates)} rounds")}


# ---------------------------------------------------------------------------
# certify


def _read_csv(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if ln and not ln.startswith("#")]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


class Certify:
    """Short single-trajectory operations: CLI verify and trace, limit-set
    classification and finite conjugation residuals.

    The Dormand-Prince layer runs here one row at a time, so per-step
    Python overhead, pointwise field calls, chart calls and CLI output
    dominate.  S^5 is left out: its field is numerically frozen today and
    the fix that makes it move must add integration steps.
    """

    name = "certify"
    MIN_ROUNDS = 5        # at least 100 classify calls per run
    FIBER_TOL = 1e-5
    # classify_limit calls that end `inconclusive` on the seed commit for
    # every start in their interval (the arc-length budget of 200 is below
    # what the drift-normalized direction field needs), with their answers.
    FIXED_CLASSIFY = (
        ("line", (1.5, 0.0), "backward", O.line_limit(1.5, "backward")),
        ("line", (2.5, 0.0), "backward", O.line_limit(2.5, "backward")),
        ("line", (-0.5, 0.0), "forward", O.line_limit(-0.5, "forward")),
        ("circle", (0.5, 0.0, 0.0), "forward", O.circle_limit(0.5, "forward")),
        ("circle", (2.5, 0.0, 0.0), "backward",
         O.circle_limit(2.5, "backward")),
        ("planar", (0.5, 0.2, 0.0, 0.0), "backward",
         ("singular_fiber", "source_0")),
    )
    VERIFY_SEEDS = 2
    TRACES = 2
    CLASSIFY = 6          # seeded starts per (scenario, direction) group
    CONJ = ((1, 1), (2, 2), (1, 3), (3, 2))
    CONJ_POINTS = 3
    CONJ_T = 5.0

    def setup(self, tf, seed, tracer, work):
        ops = []
        rng = _stream(seed, 1)
        ops += self._verify_ops(tf, tracer, rng, work)
        ops += self._trace_ops(tf, tracer, _stream(seed, 2), work)
        fields = {sc: build_manifest(tf, sc).field
                  for sc in ("line", "circle", "planar")}
        ops += self._classify_ops(tf, fields, _stream(seed, 3))
        ops += self._conj_ops(tf, tracer, _stream(seed, 4))
        # warm-up: one call of each kind
        for kind in ("verify", "trace", "classify", "conjugation"):
            op = next(o for o in ops if o.kind == kind)
            op.call()
        return ops

    # -- CLI verify, with --sabotage negative controls --------------------

    def _verify_ops(self, tf, tracer, rng, work):
        cfg = os.path.join(work, "verify_orders.json")
        with open(cfg, "w") as fh:
            json.dump({"schema_version": 1, "check_orders": True}, fh)
        ops = []
        for sc in ("line", "circle", "planar"):
            for _ in range(self.VERIFY_SEEDS):
                s = int(rng.integers(0, 2**31 - 1))
                ops.append(self._verify_op(tf, tracer, sc, s, cfg, work, False))
            s = int(rng.integers(0, 2**31 - 1))
            ops.append(self._verify_op(tf, tracer, sc, s, cfg, work, True))
        return ops

    def _verify_op(self, tf, tracer, sc, s, cfg, work, sabotage):
        out = os.path.join(work, f"verify_{sc}_{s}_{int(sabotage)}.json")
        argv = ["verify", "--scenario", sc, "--config", cfg, "--seed", str(s),
                "--out", out, "--quiet"] + (["--sabotage"] if sabotage else [])
        call = _cli_call(tf, tracer, "cli.verify", argv, out)

        def check(code):
            if code not in (0, 1):
                return "failed", "exit 0 or 1", f"exit {code}"
            with open(out) as fh:
                rep = json.load(fh)
            checks = rep["checks"]
            within = {}
            for key, c in checks.items():
                if key == "orders_pairwise_distinct":
                    within[key] = c["value"] == 1.0
                else:
                    within[key] = c["value"] <= c["tol"]
            consistent = all(within[k] == bool(c["passed"])
                             for k, c in checks.items())
            if sabotage:
                good = (code == 1 and rep["passed"] is False and consistent
                        and not within["orders_pairwise_distinct"])
                return _ok(good, "exit 1, orders not distinct",
                           f"exit {code}, passed {rep['passed']}")
            good = (code == 0 and rep["passed"] is True and consistent
                    and all(within.values()) and "orders_match_declared"
                    in checks and "flow_commutes_with_action" in checks)
            return _ok(good, "exit 0, every check within tol",
                       f"exit {code}, {within}")

        label = f"{sc} seed={s}" + (" --sabotage" if sabotage else "")
        return Op("verify", label, call, check)

    # -- CLI trace against closed-form base-fiber relations ---------------

    def _trace_ops(self, tf, tracer, rng, work):
        ops = []
        for sc in ("line", "circle", "planar"):
            for i in range(self.TRACES):
                freqs, p0, t_end = self._trace_input(sc, rng)
                cfg = {"schema_version": 1, "frequencies": freqs,
                       "p0": p0, "t_span": [0.0, t_end], "n_eval": 200}
                path = os.path.join(work, f"trace_{sc}_{i}.json")
                with open(path, "w") as fh:
                    json.dump(cfg, fh)
                out = os.path.join(work, f"trace_{sc}_{i}.csv")
                argv = ["trace", "--scenario", sc, "--config", path,
                        "--out", out, "--quiet"]
                ops.append(Op("trace", f"{sc} p0={_fmt(p0)} t={t_end:.3g}",
                              _cli_call(tf, tracer, "cli.trace", argv, out),
                              self._trace_check(sc, freqs, out)))
        return ops

    @staticmethod
    def _trace_input(sc, rng):
        n = 1 if sc == "line" else 2
        freqs = [float(v) for v in rng.uniform(0.5, 2.0, size=n)]
        theta = [float(v) for v in rng.uniform(0.0, O.TWO_PI, size=n)]
        if sc == "planar":
            r = rng.uniform(0.2, 1.5)
            ang = rng.uniform(0.0, O.TWO_PI)
            return freqs, [r * math.cos(ang), r * math.sin(ang)] + theta, 4.0
        zeros = O.LINE_ZEROS if sc == "line" else O.CIRCLE_ZEROS
        lo, hi = (-0.8, 4.8) if sc == "line" else (0.0, O.TWO_PI)
        while True:
            x = float(rng.uniform(lo, hi))
            gaps = [abs(x - z) for z in zeros] + (
                [O.TWO_PI - x] if sc == "circle" else [])
            if min(gaps) > 0.05:
                return freqs, [x] + theta, 10.0

    @staticmethod
    def _trace_check(sc, freqs, out):
        def check(code):
            if code != 0:
                return "failed", "exit 0", f"exit {code}"
            err = float(np.max(O.trace_errors(sc, freqs, _read_csv(out))))
            return _ok(err <= 1e-6, "relative error <= 1e-6", f"{err:.3g}")

        return check

    # -- classify_limit ----------------------------------------------------

    def _classify_ops(self, tf, fields, rng):
        ops = []
        for x in _stratified(rng, [(0.0, 4.0)], self.CLASSIFY, O.LINE_ZEROS):
            ops.append(self._classify_op(tf, fields, "line", (x, _angle(rng)),
                                         "forward", O.line_limit(x, "forward")))
        for x in _stratified(rng, [(-1.0, 1.0), (3.0, 5.0)], self.CLASSIFY,
                             O.LINE_ZEROS):
            ops.append(self._classify_op(tf, fields, "line", (x, _angle(rng)),
                                         "backward", O.line_limit(x, "backward")))
        planted = [f.point() for f in fields["planar"].singular_fibers]
        for ang in _stratified(rng, [(0.0, O.TWO_PI)], self.CLASSIFY, ()):
            while True:
                r = rng.uniform(0.1, 2.0)
                x0 = np.array([r * math.cos(ang), r * math.sin(ang)])
                if min(O.ray_clearance(z, x0) for z in planted) \
                        > 4 * self.FIBER_TOL:
                    break
                ang = float(rng.uniform(0.0, O.TWO_PI))
            p0 = (float(x0[0]), float(x0[1]), _angle(rng), _angle(rng))
            ops.append(self._classify_op(tf, fields, "planar", p0, "forward",
                                         ("escape", None)))
        for sc, p0, direction, want in self.FIXED_CLASSIFY:
            ops.append(self._classify_op(tf, fields, sc, p0, direction, want))
        return ops

    def _classify_op(self, tf, fields, sc, p0, direction, want):
        fld = fields[sc]
        p = np.asarray(p0, dtype=float)

        def call():
            return tf.flow.classify_limit(fld, p, direction)

        def check(rep):
            got = (rep.kind, rep.target)
            if rep.kind == "inconclusive":
                return "failed", want, got
            return _ok(got == tuple(want), want, got)

        return Op("classify", f"{sc} {direction} p0={_fmt(p0)}", call, check)

    # -- conjugation residuals of maps of xi + T ---------------------------

    def _conj_ops(self, tf, tracer, rng):
        ops = []
        for i, (k, n) in enumerate(self.CONJ):
            a = tuple(float(v) for v in rng.uniform(0.5, 2.0, size=n))
            X = counted_field(tracer, tf.fields.xi_plus_affine(k, a))
            pts = [np.concatenate([rng.uniform(-1.0, 1.0, k),
                                   rng.uniform(0.0, O.TWO_PI, n)])
                   for _ in range(self.CONJ_POINTS)]
            for F, label in (_automorphism(rng, k, n),
                             _non_automorphism(rng, k, n, i)):
                ops.append(self._conj_op(tf, X, k, a, pts, F,
                                         f"k={k} n={n} {label}"))
        return ops

    def _conj_op(self, tf, X, k, a, pts, F, label):
        t = self.CONJ_T
        want = O.conjugation_residual_exact(F, k, a, pts, t)

        def call():
            return tf.verify.conjugation_residual(F, X, pts, t=t)

        def check(got):
            return _ok(abs(got - want) <= 1e-6 * (1.0 + want),
                       f"{want:.6g}", f"{got:.6g}")

        return Op("conjugation", label, call, check)

    def details(self, rounds):
        out = {}
        names = {"verify": "verify_ms_p50", "trace": "trace_ms_p50",
                 "classify": "classify_ms_p50",
                 "conjugation": "conjugation_ms_p50"}
        for kind, name in names.items():
            ms = [1e3 * dt for r in rounds for op, dt, *_ in r if op.kind == kind]
            out[name] = (float(np.median(ms)), "ms", f"n={len(ms)}")
            if kind == "classify":
                out["classify_ms_p90"] = (float(np.percentile(ms, 90)), "ms",
                                          f"n={len(ms)}")
        return out


def _cli_call(tf, tracer, span, argv, out):
    def call():
        if tracer is None:
            return tf.cli.main(argv)
        tracer.enter(span)
        try:
            return tf.cli.main(argv)
        finally:
            tracer.exit()
            tracer.count("cli.bytes_written", os.path.getsize(out))

    call.out = out
    return call


def _fmt(p):
    return "(" + ", ".join(f"{v:.4g}" for v in p) + ")"


def _angle(rng):
    return float(rng.uniform(0.0, O.TWO_PI))


def _stratified(rng, intervals, m, zeros, gap=0.05):
    """m jittered draws, one per equal-length stratum of a union of
    intervals, each at least ``gap`` from the zeros (redrawn in its stratum)."""
    lengths = [hi - lo for lo, hi in intervals]
    total = sum(lengths)
    out = []
    for i in range(m):
        while True:
            s = (i + rng.uniform(0.0, 1.0)) * total / m
            for (lo, hi), ln in zip(intervals, lengths):
                if s <= ln:
                    x = lo + s
                    break
                s -= ln
            if not zeros or min(abs(x - z) for z in zeros) > gap:
                out.append(float(x))
                break
    return out


def _automorphism(rng, k, n):
    """(A x, theta + lam) with A invertible: commutes with the flow of xi + T."""
    while True:
        A = rng.normal(size=(k, k))
        if abs(np.linalg.det(A)) > 0.2:
            break
    lam = rng.uniform(0.0, O.TWO_PI, size=n)

    def F(p):
        p = np.asarray(p, dtype=float)
        out = p.copy()
        out[:k] = A @ p[:k]
        out[k:] = p[k:] + lam
        return out

    return F, "linear automorphism"


def _non_automorphism(rng, k, n, i):
    """A base translation or an angle shear: neither commutes with the flow."""
    c = rng.uniform(0.5, 1.5)
    if i % 2 == 0:
        def F(p):
            out = np.array(p, dtype=float)
            out[0] += c
            return out

        return F, f"base translation {c:.3g}"

    def F(p):
        p = np.asarray(p, dtype=float)
        out = p.copy()
        out[k] = p[k] + (p[k + 1] if n > 1 else c * p[0])
        return out

    return F, "angle shear"


# ---------------------------------------------------------------------------
# normal_form


class NormalForm:
    """Certification with no ODE integration: radial solves, normal forms,
    commutant probes and Haar averages.

    Loads ``radial``, ``verify``'s SVDs, ``construction``'s Haar grid and
    ``fields.lie_bracket`` while ``flow`` does nothing.
    """

    name = "normal_form"
    ANNULUS = (0.1, 2.0)
    GRID = 16
    NF_POINTS = 8
    S5_NODES = 16
    S5_POINTS = 12
    PRODUCT_NODES = 8
    PRODUCT_POINTS = 32

    def setup(self, tf, seed, tracer, work):
        ops = []
        ops += self._radial_ops(tf, tracer, seed)
        ops += self._nf_ops(tf, tracer, _stream(seed, 20))
        ops += self._probe_ops(tf, _stream(seed, 30))
        ops += self._haar_ops(tf, tracer, _stream(seed, 40))
        # warm-up: one cheap call into radial, verify and construction
        tf.radial.solve_radial(lambda x: x[..., 0], self.ANNULUS, tol=1e-6,
                               k=2)(np.array([[0.5, 0.5]]))
        tf.verify.commutant_dimension_probe(1, (1.0,), n_points=40)
        next(op for op in ops if op.kind == "haar").call()
        return ops

    # -- radial ------------------------------------------------------------

    def _radial_ops(self, tf, tracer, seed):
        ops = []
        for k in (2, 3):
            grid = tf.radial.annulus_grid(*self.ANNULUS, k=k,
                                          n_per_axis=self.GRID,
                                          seed=int(_stream(seed, 10 + k)
                                                   .integers(2**31 - 1)))
            for tol in (1e-8, 1e-10):
                rng = _stream(seed, int(100 * k - math.log10(tol)))
                poly = O.Poly(_random_poly(rng, k, degree=3,
                                             constant=False))
                ops.append(self._radial_op(tf, tracer, k, tol, grid, poly,
                                           poly.radial_solution(grid),
                                           "cubic polynomial"))
                g_sin = lambda x: np.sin(x[..., 0]) * x[..., 1]
                ops.append(self._radial_op(tf, tracer, k, tol, grid, g_sin,
                                           O.sin_radial_solution(grid),
                                           "sin(x1) x2"))
        return ops

    def _radial_op(self, tf, tracer, k, tol, grid, g, want, label):
        g = counted_function(tracer, g, "input.g", "radial.g")

        def call():
            sol = tf.radial.solve_radial(g, self.ANNULUS, tol=tol, k=k)
            return sol(grid)

        def check(vals):
            err = float(np.max(np.abs(vals - want) / np.maximum(1.0, np.abs(want))))
            return _ok(err <= 10 * tol, f"error <= {10 * tol:.0e}", f"{err:.3g}")

        return Op("radial", f"k={k} tol={tol:.0e} {label}", call, check,
                  units=len(grid))

    # -- normal form of a fiber drift -------------------------------------

    def _nf_ops(self, tf, tracer, rng):
        tol = 1e-8
        polys = [O.Poly(_random_poly(rng, 2, degree=3,
                                             constant=True))
                 for _ in range(2)]
        gs = [counted_function(tracer, p, "input.g", "radial.g") for p in polys]
        xs = tf.radial.annulus_grid(*self.ANNULUS, k=2, n_per_axis=self.GRID)
        xs = xs[rng.choice(len(xs), size=self.NF_POINTS, replace=False)]
        pts = np.concatenate([xs, rng.uniform(0.0, O.TWO_PI,
                                              size=(len(xs), 2))], axis=1)
        want_b = tuple(p.at_zero() for p in polys)
        want_phi = [p.radial_solution(xs[:4]) for p in polys]

        def call():
            nf = tf.radial.normalize_lifted_field(gs, self.ANNULUS, tol=tol, k=2)
            return nf, nf.conjugation_residual(gs, pts)

        def check(result):
            nf, resid = result
            phi_err = max(float(np.max(np.abs(phi(xs[:4]) - w)
                                       / np.maximum(1.0, np.abs(w))))
                          for phi, w in zip(nf.correctors, want_phi))
            worst = float(np.max(resid))
            good = (nf.frequencies == want_b and phi_err <= 10 * tol
                    and worst <= 1e-6)
            return _ok(good, f"b={want_b}, corrector error <= 1e-7, "
                             f"residual <= 1e-6",
                       f"b={nf.frequencies}, {phi_err:.3g}, {worst:.3g}")

        return [Op("normal_form", "two cubic drifts on R^2 x T^2", call, check,
                   units=len(pts))]

    # -- commutant probe ---------------------------------------------------

    def _probe_ops(self, tf, rng):
        ops = []
        for k, n, resonant in ((2, 2, False), (2, 2, True),
                               (1, 3, False), (1, 3, True)):
            rows = _frequency_rows(rng, n, resonant)
            a = O.frequencies_from_basis(rows)
            want = O.commutant_dimension(k, n, O.resonant_mode_count(rows, 2))
            s = int(rng.integers(0, 2**31 - 1))

            def call(k=k, a=a, s=s):
                return tf.verify.commutant_dimension_probe(k, a, n_points=500,
                                                           seed=s)

            def check(rep, want=want):
                return _ok(rep.dimension == want, want, rep.dimension)

            kind = "resonant" if resonant else "dense"
            ops.append(Op("probe", f"k={k} a={_fmt(a)} {kind}", call, check))
        for k, n in ((1, 1), (2, 2)):
            a = tuple(float(v) for v in rng.uniform(0.5, 2.0, size=n))
            s = int(rng.integers(0, 2**31 - 1))

            def call(k=k, a=a, s=s):
                return tf.verify.commutant_basis_check(k, a, n_points=30, seed=s)

            def check(worst):
                return _ok(worst <= 1e-6, "max bracket <= 1e-6", f"{worst:.3g}")

            ops.append(Op("basis_check", f"k={k} a={_fmt(a)}", call, check))
        return ops

    # -- Haar averages -----------------------------------------------------

    def _haar_ops(self, tf, tracer, rng):
        C = tf.construction

        def field(name, chart, fn):
            return tf.fields.FieldHandle(name, chart, counted_function(
                tracer, fn, "input.haar_field", "construction.haar_field"))

        s5 = tf.geometry.Chart("sphere5")
        M = rng.normal(size=(6, 6))
        want_M = O.s5_linear_zero_mode(M)
        lin = field("linear", s5, lambda y: np.asarray(y) @ M.T)
        ys = _sphere_points(rng, self.S5_POINTS)
        c3 = rng.normal(size=3)
        cub = field("cubic", s5, lambda y: _cubic_s5(c3, y))
        lam = rng.uniform(0.0, O.TWO_PI, size=3)
        yi = _sphere_points(rng, 3)

        trig, zero = _random_trig_field(rng)
        tfld = field("trig", tf.geometry.Chart("product", k=2, n=2), trig)
        m = self.PRODUCT_POINTS
        pp = np.concatenate([rng.uniform(-1.5, 1.5, size=(m, 2)),
                             rng.uniform(0.0, O.TWO_PI, size=(m, 2))], axis=1)
        shift = rng.uniform(0.0, O.TWO_PI, size=2)

        def s5_zero_mode():
            return C.haar_average_field(lin, n_nodes=self.S5_NODES).func(ys)

        def s5_invariance():
            bar = C.haar_average_field(cub, n_nodes=self.S5_NODES)
            return bar.func(O.rotate_s5(lam, yi)), bar.func(yi)

        def s5_idempotence():
            bar = C.haar_average_field(cub, n_nodes=self.S5_NODES)
            return C.haar_average_field(bar, n_nodes=4).func(yi[:1]), \
                bar.func(yi[:1])

        def product_zero_mode():
            bar = C.haar_average_field(tfld, n_nodes=self.PRODUCT_NODES)
            moved = pp.copy()
            moved[:, 2:] = np.mod(moved[:, 2:] + shift, O.TWO_PI)
            return bar.func(pp), bar.func(moved)

        def close(u, v, scale=1.0):
            err = float(np.max(np.abs(np.asarray(u) - np.asarray(v))))
            return _ok(err <= 1e-10 * scale, "error <= 1e-10", f"{err:.3g}")

        return [
            Op("haar", "S^5 linear field, zero mode", s5_zero_mode,
               lambda v: close(v, ys @ want_M.T), units=len(ys)),
            Op("haar", "S^5 cubic field, invariance", s5_invariance,
               lambda r: close(r[0], O.rotate_s5(lam, r[1])), units=2 * len(yi)),
            Op("haar", "S^5 cubic field, idempotence", s5_idempotence,
               lambda r: close(r[0], r[1]), units=2),
            Op("haar", "R^2 x T^2 trig field, zero mode and invariance",
               product_zero_mode,
               lambda r: close(np.concatenate([r[0], r[1]]),
                               np.concatenate([zero(pp), zero(pp)])),
               units=2 * len(pp)),
        ]

    def details(self, rounds):
        def rate(kinds):
            vals = []
            for r in rounds:
                sel = [(op, dt) for op, dt, *_ in r if op.kind in kinds]
                vals.append(sum(op.units for op, _ in sel)
                            / sum(dt for _, dt in sel))
            return float(np.median(vals))

        probe_ms = [1e3 * dt for r in rounds for op, dt, *_ in r
                    if op.kind == "probe"]
        return {
            "radial_points_per_s": (rate({"radial"}), "points/s", ""),
            "normal_form_points_per_s": (rate({"normal_form"}), "points/s", ""),
            "probe_ms_p50": (float(np.median(probe_ms)), "ms",
                             f"n={len(probe_ms)}"),
            "haar_points_per_s": (rate({"haar"}), "points/s", ""),
        }


def _random_poly(rng, k, degree, constant):
    """{alpha: c}: one random monomial of each degree 1..degree, plus a
    constant term when ``constant``.  Coefficients have a random sign and
    a magnitude in [0.5, 1.5].

    The radial solver's work grows with the coefficients' scale and
    depends on the degrees present, so fixing the degrees and bounding the
    scale keeps a round's work within a few percent between seeds.
    """
    out = {}
    for d in range(1, degree + 1):
        alphas = [a for a in itertools.product(range(d + 1), repeat=k)
                  if sum(a) == d]
        out[alphas[int(rng.integers(len(alphas)))]] = _coefficient(rng)
    if constant:
        out[(0,) * k] = _coefficient(rng)
    return out


def _coefficient(rng):
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5))


def _frequency_rows(rng, n, resonant):
    """Integer coordinates of n frequencies over oracles.BASIS.

    Dense: distinct basis elements with positive multipliers.  Resonant:
    the last frequency is a small integer multiple of the first.
    """
    idx = rng.choice(len(O.BASIS), size=n, replace=False)
    rows = []
    for j in idx:
        row = [0] * len(O.BASIS)
        row[int(j)] = int(rng.integers(1, 3))
        rows.append(row)
    if resonant:
        rows[-1] = [int(rng.integers(1, 3)) * v for v in rows[0]]
    return rows


def _sphere_points(rng, m):
    y = rng.normal(size=(m, 6))
    return y / np.linalg.norm(y, axis=1, keepdims=True)


def _cubic_s5(c, y):
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    out[..., 0] = c[0] * y[..., 2] ** 3
    out[..., 3] = c[1] * y[..., 1] * y[..., 4] ** 2
    out[..., 5] = c[2] * y[..., 0] * y[..., 1] * y[..., 5]
    return out


def _random_trig_field(rng):
    """A field on R^2 x T^2 with trig degree <= 2, and its exact zero mode."""
    modes = [(0, 0), (1, 0), (0, 1), (1, -1), (2, 1), (1, 2)]
    coef = rng.normal(size=(4, len(modes), 2, 3))   # slot, mode, cos/sin, [1,x1,x2]

    def field(p):
        p = np.asarray(p, dtype=float)
        mono = np.concatenate([np.ones(p.shape[:-1] + (1,)), p[..., :2]], axis=-1)
        out = np.zeros(p.shape)
        for m, q in enumerate(modes):
            ph = p[..., 2] * q[0] + p[..., 3] * q[1]
            c, s = np.cos(ph), np.sin(ph)
            out += (mono @ coef[:, m, 0].T) * c[..., None] \
                + (mono @ coef[:, m, 1].T) * s[..., None]
        return out

    def zero(p):
        return O.trig_field_zero_mode(
            {(slot, (0, 0)): (coef[slot, 0, 0], coef[slot, 0, 1])
             for slot in range(4)}, np.asarray(p)[..., :2])

    return field, zero


WORKLOADS = {w.name: w for w in (Census, Certify, NormalForm)}
