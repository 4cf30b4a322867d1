"""Tests of the benchmark's oracles and output checks.

Each check agrees with the program on a small case and rejects a
deliberately wrong answer.  Run from the root of a checkout:

    python3 -m pytest -q bench/test_oracles.py
"""

import dataclasses
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import torusflow as tf  # noqa: E402
import torusflow.cli  # noqa: E402,F401

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402


def _by(ops, kind, pred=lambda op: True):
    return next(op for op in ops if op.kind == kind and pred(op))


@pytest.fixture(scope="module")
def census_ops():
    return W.Census().setup(tf, 7, None, None)


@pytest.fixture(scope="module")
def certify_ops(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("certify"))
    return W.Certify().setup(tf, 7, None, work)


@pytest.fixture(scope="module")
def normal_form_ops():
    return W.NormalForm().setup(tf, 7, None, None)


# -- closed forms against the model definitions ------------------------------


def test_line_primitive_derivative_is_q_plus_inverse_q():
    x = np.array([-0.7, 0.3, 1.6, 2.2, 3.4, 4.9])
    h = 1e-6
    deriv = (O.line_primitive(x + h) - O.line_primitive(x - h)) / (2 * h)
    q = np.polyval(np.poly(O.LINE_ZEROS), x)
    assert np.allclose(deriv, q + 1 / q, rtol=1e-6)


def test_circle_primitive_derivative_is_inverse_sine():
    a = np.array([0.2, 0.9, 1.3, 2.5, 4.0, 5.9])
    h = 1e-6
    deriv = (O.circle_primitive(a + h) - O.circle_primitive(a - h)) / (2 * h)
    assert np.allclose(deriv, 1 / np.sin(3 * a), rtol=1e-6)


def test_s5_orbit_is_tangent_to_the_program_base_field():
    fld = W.build_manifest(tf, "s5").field
    chart = fld.chart
    x0 = np.array([[0.1, 0.6], [0.5, 0.2], [0.3, 0.05]])
    u = np.array([0.9, 0.5, 0.1])
    for row in x0:
        pts = O.s5_orbit(row[None, :], u)[0]
        tangent = O.s5_orbit(row[None, :], u + 1e-6)[0] - pts
        ys = tf.geometry.embed_s5(pts, np.zeros((len(pts), 3)))
        vel = chart.base_tangent(ys, fld.func(ys))
        cos = np.sum(tangent * vel, axis=1) / (
            np.linalg.norm(tangent, axis=1) * np.linalg.norm(vel, axis=1))
        # increasing u runs the orbit forward in time (away from the source)
        assert np.all(cos > 1 - 1e-8)


def test_limits_follow_the_sign_of_y():
    assert O.line_limit(0.5, "forward") == ("singular_fiber", "sink_1")
    assert O.line_limit(0.5, "backward") == ("singular_fiber", "source_0")
    assert O.line_limit(-0.5, "forward") == ("escape", None)
    assert O.line_limit(4.5, "backward") == ("singular_fiber", "source_2")
    assert O.circle_limit(0.5, "forward") == ("singular_fiber", "sink_1.0472")
    assert O.circle_limit(2.5, "backward") == ("singular_fiber", "source_1")


@pytest.mark.parametrize("rows,k,want", [
    ([[1, 0, 0, 0, 0], [2, 0, 0, 0, 0]], 2, 18),      # (1, 2)
    ([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], 2, 6),       # (1, sqrt 2)
    ([[1, 0, 0, 0, 0], [1, 0, 0, 0, 0], [2, 0, 0, 0, 0]], 1, 52),  # (1, 1, 2)
    ([[1, 0, 0, 0, 0], [0, 0, 0, 0, 1]], 2, 6),       # (1, e)
])
def test_probe_dimension_by_enumeration_matches_program(rows, k, want):
    n = len(rows)
    dim = O.commutant_dimension(k, n, O.resonant_mode_count(rows, 2))
    assert dim == want
    a = O.frequencies_from_basis(rows)
    assert tf.verify.commutant_dimension_probe(k, a, n_points=800).dimension == dim


def test_s5_zero_mode_is_invariant_and_idempotent():
    M = np.random.default_rng(0).normal(size=(6, 6))
    bar = O.s5_linear_zero_mode(M)
    assert np.allclose(O.s5_linear_zero_mode(bar), bar)
    lam = np.array([0.3, 1.1, 2.0])
    y = np.random.default_rng(1).normal(size=6)
    assert np.allclose(O.rotate_s5(lam, bar @ y), bar @ O.rotate_s5(lam, y))


# -- every workload check accepts the program and rejects a wrong answer -----


def test_census_check(census_ops):
    for op in census_ops[:2] + census_ops[-2:]:
        rep = op.call()
        assert op.check(rep)[0] == "ok", op.label
    op = census_ops[1]                       # line: three sources
    rep = op.call()
    counts = dict(rep.counts)
    counts["source_0"] -= 1
    counts["source_1"] += 1
    swapped = dataclasses.replace(rep, counts=counts)
    assert op.check(swapped)[0] == "wrong"


def test_census_labels_see_planted_zero_on_the_ray():
    zero = ("planted_0", np.array([math.cos(0.3), math.sin(0.3)]))
    through = 1.5 * zero[1]
    beside = 1.5 * np.array([math.cos(0.31), math.sin(0.31)])
    labels = O.census_expected_labels("planar", np.stack([through, beside]),
                                      [(0.0, 0.0)], [zero], 1e-5)
    assert labels == ["planted_0", "source_0"]


def test_verify_check(certify_ops, tmp_path):
    op = _by(certify_ops, "verify", lambda o: "sabotage" not in o.label)
    code = op.call()
    assert op.check(code)[0] == "ok"
    assert op.check(1)[0] == "wrong"
    sab = _by(certify_ops, "verify", lambda o: "sabotage" in o.label)
    code = sab.call()
    assert code == 1 and sab.check(code)[0] == "ok"
    assert sab.check(0)[0] == "wrong"


def test_verify_check_rejects_a_value_beyond_tolerance(certify_ops):
    op = _by(certify_ops, "verify", lambda o: "sabotage" not in o.label)
    code = op.call()
    path = op.call.out
    with open(path) as fh:
        rep = json.load(fh)
    rep["checks"]["flow_commutes_with_action"]["value"] = 1.0
    with open(path, "w") as fh:
        json.dump(rep, fh)
    assert op.check(code)[0] == "wrong"


def test_trace_check(certify_ops):
    for sc in ("line", "circle", "planar"):
        op = _by(certify_ops, "trace", lambda o: o.label.startswith(sc))
        code = op.call()
        assert op.check(code)[0] == "ok", op.label
    path = op.call.out
    with open(path) as fh:
        lines = fh.read().splitlines()
    last = lines[-1].split(",")
    last[-1] = repr(float(last[-1]) + 1e-4)
    lines[-1] = ",".join(last)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert op.check(0)[0] == "wrong"


def test_classify_check(certify_ops):
    op = _by(certify_ops, "classify", lambda o: "line forward" in o.label)
    rep = op.call()
    assert op.check(rep)[0] == "ok"
    wrong = dataclasses.replace(rep, target="sink_3" if rep.target == "sink_1"
                                else "sink_1")
    assert op.check(wrong)[0] == "wrong"
    assert op.check(dataclasses.replace(rep, kind="inconclusive"))[0] == "failed"
    planar = _by(certify_ops, "classify", lambda o: "planar forward" in o.label)
    assert planar.check(planar.call())[0] == "ok"


def test_conjugation_check(certify_ops):
    for label in ("automorphism", "translation", "shear"):
        op = _by(certify_ops, "conjugation", lambda o: label in o.label)
        got = op.call()
        assert op.check(got)[0] == "ok", op.label
        assert op.check(got * 1.001 + 1e-5)[0] == "wrong"


def test_radial_check(normal_form_ops):
    for label in ("cubic", "sin"):
        op = _by(normal_form_ops, "radial", lambda o: label in o.label
                 and "tol=1e-08" in o.label)
        vals = op.call()
        assert op.check(vals)[0] == "ok", op.label
        assert op.check(vals + 1e-5)[0] == "wrong"


def test_normal_form_check(normal_form_ops):
    op = _by(normal_form_ops, "normal_form")
    nf, resid = op.call()
    assert op.check((nf, resid))[0] == "ok"
    assert op.check((nf, resid + 1e-5))[0] == "wrong"
    shifted = dataclasses.replace(
        nf, frequencies=(nf.frequencies[0] + 1e-12,) + nf.frequencies[1:])
    assert op.check((shifted, resid))[0] == "wrong"


def test_probe_and_basis_checks(normal_form_ops):
    for kind in ("probe", "basis_check"):
        for op in [o for o in normal_form_ops if o.kind == kind]:
            assert op.check(op.call())[0] == "ok", op.label
    op = _by(normal_form_ops, "probe", lambda o: "resonant" in o.label)
    rep = op.call()
    assert op.check(dataclasses.replace(rep, dimension=rep.dimension - 1))[0] \
        == "wrong"
    basis = _by(normal_form_ops, "basis_check")
    assert basis.check(1e-3)[0] == "wrong"


def test_haar_check(normal_form_ops):
    for op in [o for o in normal_form_ops if o.kind == "haar"]:
        res = op.call()
        assert op.check(res)[0] == "ok", op.label
    zero_mode = _by(normal_form_ops, "haar", lambda o: "linear" in o.label)
    vals = zero_mode.call()
    assert zero_mode.check(vals + 1e-9)[0] == "wrong"
