"""Spans and counts recorded around calls into the package's layers.

Used only by the traced run.  Instrumentation is installed from this file
by replacing public names in the package's module namespaces (and the
``Chart`` methods) with wrappers, and is removed again afterwards; no file
of the package changes.  Spans carry a name, start, end and parent; a
layer's self time is the time its spans cover minus the time their child
spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from collections import defaultdict

import numpy as np

_now = time.perf_counter


class Tracer:
    """In-memory span recorder with per-name time, self time and counts."""

    def __init__(self, max_spans=200_000):
        self.max_spans = max_spans
        self.spans = []          # (id, name, start, end, parent id)
        self.dropped = 0
        self._stack = []         # [id, name, start, child time]
        self._next_id = 1
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)

    def enter(self, name):
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, name, _now(), 0.0])

    def exit(self):
        end = _now()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        parent = self._stack[-1][0] if self._stack else 0
        if self._stack:
            self._stack[-1][3] += dur
        if len(self.spans) < self.max_spans:
            self.spans.append((sid, name, start, end, parent))
        else:
            self.dropped += 1

    def count(self, key, n=1):
        self.counts[key] += n

    def wrap(self, fn, name, after=None):
        """Wrap fn in a span; ``after(args, kwargs, result)`` records counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def layer_self(self, layer):
        return sum(v for k, v in self.self_time.items()
                   if k.split(".")[0] == layer)

    def reset_stats(self):
        """Forget aggregates (spans stay) so a phase can be measured alone."""
        self.total.clear()
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()

    def write(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "dropped": self.dropped,
                       "fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def rows_of(p):
    p = np.asarray(p)
    return int(np.prod(p.shape[:-1])) if p.ndim > 1 else 1


def counted_field(tracer, fld):
    """A copy of a FieldHandle whose evaluation rule records a fields.rhs span."""
    if tracer is None:
        return fld
    func = fld.func

    def rhs(p):
        tracer.count("fields.rhs_rows", rows_of(p))
        return func(p)

    return dataclasses.replace(fld, func=tracer.wrap(rhs, "fields.rhs"))


def counted_function(tracer, fn, span, prefix):
    """Wrap an input function (radial g, field under Haar) with row counts."""
    if tracer is None:
        return fn

    def inner(x):
        tracer.count(prefix + "_rows", rows_of(x))
        return fn(x)

    return tracer.wrap(inner, span)


class Instrumentation:
    """Installs wrappers on the package's public names; ``remove`` undoes it."""

    CHART_METHODS = ("base", "fiber_angles", "act", "wrap", "distance",
                     "base_distance", "displace_base", "base_tangent")

    def __init__(self, tracer, tf):
        self._undo = []
        t = tracer
        flow, verify, cli, radial = tf.flow, tf.verify, tf.cli, tf.radial
        construction, geometry, fields = tf.construction, tf.geometry, tf.fields

        for m in self.CHART_METHODS:
            self._patch(geometry.Chart, m,
                        t.wrap(getattr(geometry.Chart, m), f"geometry.{m}"))
        self._patch(geometry, "embed_s5",
                    t.wrap(geometry.embed_s5, "geometry.embed_s5"))
        self._patch(construction, "torus_act_s5",
                    t.wrap(construction.torus_act_s5, "geometry.torus_act_s5"))

        def after_integrate(args, kwargs, traj):
            t.count("flow.integrate_calls")
            t.count("flow.accepted_steps", traj.stats.get("accepted", 0))
            t.count("flow.rejected_steps", traj.stats.get("rejected", 0))

        integ = t.wrap(flow.integrate, "flow.integrate", after_integrate)
        for mod in (flow, verify, cli):
            self._patch(mod, "integrate", integ)

        def after_classify(args, kwargs, rep):
            t.count("flow.classify_calls")
            if rep.kind != "inconclusive":
                t.count("flow.classify_conclusive_calls")

        self._patch(flow, "classify_limit",
                    t.wrap(flow.classify_limit, "flow.classify_limit",
                           after_classify))
        self._patch(flow, "estimate_order",
                    t.wrap(flow.estimate_order, "flow.estimate_order"))
        self._patch(flow, "flow_commutation_residual",
                    t.wrap(flow.flow_commutation_residual,
                           "flow.flow_commutation_residual"))
        census = t.wrap(flow.basin_census, "flow.basin_census")
        self._patch(flow, "basin_census", census)

        bracket = t.wrap(fields.lie_bracket, "fields.lie_bracket")
        self._patch(fields, "lie_bracket", bracket)
        self._patch(verify, "lie_bracket", bracket)

        def wrap_builder(fn):
            built = t.wrap(fn, "construction.build")

            def builder(*args, **kwargs):
                man = built(*args, **kwargs)
                fld = counted_field(t, man.field)
                return dataclasses.replace(man, field=fld)

            return builder

        for name in ("build_line_describing", "build_planar_demo", "build_s5"):
            for mod in (construction, cli):
                self._patch(mod, name, wrap_builder(getattr(mod, name)))

        self._patch(radial, "solve_radial",
                    t.wrap(radial.solve_radial, "radial.solve"))
        self._patch(radial.RadialSolution, "__call__",
                    t.wrap(radial.RadialSolution.__call__, "radial.eval"))
        self._patch(radial.NormalFormReport, "conjugation_residual",
                    t.wrap(radial.NormalFormReport.conjugation_residual,
                           "radial.nf_residual"))
        self._patch(radial, "normalize_lifted_field",
                    t.wrap(radial.normalize_lifted_field, "radial.normalize"))

        self._patch(cli, "verify_manifest",
                    t.wrap(verify.verify_manifest, "verify.manifest"))
        self._patch(verify, "conjugation_residual",
                    t.wrap(verify.conjugation_residual, "verify.conjugation"))
        self._patch(verify, "commutant_dimension_probe",
                    t.wrap(verify.commutant_dimension_probe, "verify.probe"))
        self._patch(verify, "commutant_basis_check",
                    t.wrap(verify.commutant_basis_check, "verify.basis_check"))

        haar_build = t.wrap(construction.haar_average_field,
                            "construction.haar_build")

        def haar(*args, **kwargs):
            bar = haar_build(*args, **kwargs)
            return dataclasses.replace(
                bar, func=t.wrap(bar.func, "construction.haar_eval"))

        self._patch(construction, "haar_average_field", haar)

    def _patch(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def remove(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
