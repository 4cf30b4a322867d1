"""Re-measure the ROADMAP's ad-hoc baselines (reference figures, not gated).

Run from the root of a checkout (takes about a minute):

    python3 bench/reference.py

Prints: the backward census of the line model at 100, 1 000 and 4 000
samples (seconds and field rows), ``integrate`` microseconds per accepted
step on the circle model with the share spent in the field, the radial
solver's time per function on the criterion-06 annulus grid, and
``torusflow basin --scenario planar`` end to end in a fresh interpreter.
"""

import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
os.environ.setdefault("TORUSFLOW_THREADS", "1")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, os.environ["TORUSFLOW_THREADS"])
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import torusflow as tf  # noqa: E402

from tracer import Tracer, counted_field  # noqa: E402


def main():
    line = tf.line_model_fields("line", n=1, a=(1.0,)).Xprime
    for n in (100, 1000, 4000):
        st = Tracer()
        fld = counted_field(st, line)
        t0 = time.perf_counter()
        rep = tf.basin_census(fld, n, seed=1)
        dt = time.perf_counter() - t0
        print(f"census line n={n}: {dt:.2f} s, "
              f"{st.calls['fields.rhs']} field calls, "
              f"{st.counts['fields.rhs_rows'] / n:.0f} rows per sample, "
              f"source fraction {rep.source_fraction:.3f}")

    circle = tf.line_model_fields("circle", n=2, a=(1.0, np.sqrt(2.0))).Xprime
    st = Tracer()
    fld = counted_field(st, circle)
    t0 = time.perf_counter()
    traj = tf.integrate(fld, [0.5, 0.1, 0.2], (0.0, 200.0))
    dt = time.perf_counter() - t0
    steps = traj.stats["accepted"]
    print(f"integrate circle: {1e6 * dt / steps:.0f} us per accepted step "
          f"({steps} steps), of which field "
          f"{1e6 * st.total['fields.rhs'] / steps:.0f} us")

    grid = tf.annulus_grid(0.1, 2.0, k=2)
    funcs = (("x1", lambda x: x[..., 0], 1e-8),
             ("x1^2 x2", lambda x: x[..., 0] ** 2 * x[..., 1], 1e-8),
             ("sin(x1) x2", lambda x: np.sin(x[..., 0]) * x[..., 1], 1e-8),
             ("x1^4 x2^2", lambda x: x[..., 0] ** 4 * x[..., 1] ** 2, 1e-10))
    for name, g, tol in funcs:
        t0 = time.perf_counter()
        tf.solve_radial(g, (0.1, 2.0), tol=tol, k=2)(grid)
        print(f"radial {name} tol={tol:.0e} on {len(grid)} points: "
              f"{1e3 * (time.perf_counter() - t0):.0f} ms")

    env = dict(os.environ, PYTHONPATH=SRC)
    out = os.path.join(ROOT, "bench", "out")
    os.makedirs(out, exist_ok=True)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "torusflow.cli", "basin",
                    "--scenario", "planar", "--quiet",
                    "--out", os.path.join(out, "basin_planar.json")],
                   env=env, check=True)
    print(f"torusflow basin --scenario planar: "
          f"{time.perf_counter() - t0:.2f} s end to end")


if __name__ == "__main__":
    main()
