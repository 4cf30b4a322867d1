"""Benchmark of torusflow: one workload, one seed, one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads: census, certify, normal_form (see bench/README.md).  The run
imports the package from the checkout's ``src`` directory, builds every
input from ``--seed``, repeats whole rounds of the workload's operations
for at least ``--seconds`` seconds, checks every output against the
independent answers in ``oracles.py``, and prints the metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# BLAS/OpenMP pools are sized when numpy is first imported, so the cap is
# applied here, the way `torusflow` maps TORUSFLOW_THREADS onto them.
THREADS = os.environ.setdefault("TORUSFLOW_THREADS", "1")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, THREADS)

# The machine's speed wanders within a run (README, "Timing noise"), so
# set-up is sampled a few times before the first round and once after
# every round, and the median of the samples spans the whole run.
SETUP_SAMPLES_BEFORE = 3
TRACED_SETUP_REPEATS = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("census", "certify", "normal_form"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import torusflow from this checkout's src, and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "torusflow")):
        raise SystemExit(f"error: no package source under {SRC}")
    sys.path.insert(0, SRC)
    import torusflow
    import torusflow.cli  # noqa: F401  (not imported by the package itself)

    where = os.path.dirname(os.path.abspath(torusflow.__file__))
    if os.path.dirname(where) != SRC:
        raise SystemExit(f"error: torusflow imported from {where}, not {SRC}")
    return torusflow


def _import_seconds():
    """Seconds to import the package in a fresh interpreter.

    Timed inside a child interpreter, so that every set-up sample of a run
    pays the import again.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t0 = time.perf_counter(); import numpy, torusflow, torusflow.cli; "
            "print(time.perf_counter() - t0)")
    out = subprocess.run([sys.executable, "-c", code, SRC], check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout)


# setup_s is reported in seconds of a machine on which one reference loop
# takes this long: the loop's typical time on the 2-CPU Xeon the bounds
# in BENCHMARK.json were set on (README, "Timing noise").
REF_LOOP_S = 2.5e-3


def _reference_loop():
    """Seconds taken by a fixed pure-Python loop: the machine's speed now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(30_000):
        s += i * i % 7
    return time.perf_counter() - t0


def _run_round(ops, tracer, refs=None):
    """Run every operation once; return [(op, seconds, status, expected, got)]."""
    out = []
    for op in ops:
        if refs is not None:
            refs.append(_reference_loop())
        if tracer is not None:
            rows0 = tracer.counts["fields.rhs_rows"]
            calls0 = tracer.calls["fields.rhs"]
            tracer.enter(f"op.{op.kind}")
        t0 = time.perf_counter()
        try:
            res = op.call()
            err = None
        except Exception as exc:  # an operation that raises is a failed one
            err = "".join(traceback.format_exception_only(type(exc), exc))
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.exit()
            op.rows = tracer.counts["fields.rhs_rows"] - rows0
            op.batches = tracer.calls["fields.rhs"] - calls0
        if err is not None:
            status, expected, got = "failed", "an answer", err.strip()
        else:
            try:
                status, expected, got = op.check(res)
            except Exception as exc:  # unreadable output counts as wrong
                status, expected, got = "wrong", "readable output", repr(exc)
        out.append((op, dt, status, expected, got))
    return out


def _run_rounds(ops, seconds, min_rounds, refs, between):
    """Run rounds until the deadline, calling ``between()`` after each but
    the last."""
    rounds, times = [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        rounds.append(_run_round(ops, None, refs))
        times.append(time.perf_counter() - t0)
        if len(rounds) >= min_rounds and time.perf_counter() >= deadline:
            return rounds, times
        between()


def _run_traced_rounds(plain_ops, ops, seconds, min_rounds, tracer, install):
    """Alternate one untraced and one traced round until the deadline.

    The wrappers are installed only around the traced round, so each
    traced round has an untraced neighbour run moments before it, and the
    tracing overhead is read from these pairs rather than across minutes
    of drift in the machine's speed.  Returns (untraced rounds, traced
    rounds, traced seconds / untraced seconds per pair).
    """
    plain, rounds, ratios = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        plain.append(_run_round(plain_ops, None))
        t1 = time.perf_counter()
        instr = install()
        try:
            t2 = time.perf_counter()
            rounds.append(_run_round(ops, tracer))
            ratios.append((time.perf_counter() - t2) / (t1 - t0))
        finally:
            instr.remove()
        if len(rounds) >= min_rounds and time.perf_counter() >= deadline:
            return plain, rounds, ratios


def _traced_setup(workload, tf, seed, tracer, work):
    """Repeat the traced set-up; return (ops, construction.build s per repeat)."""
    builds = []
    for _ in range(TRACED_SETUP_REPEATS):
        tracer.reset_stats()
        ops = workload.setup(tf, seed, tracer, work)
        builds.append(tracer.total["construction.build"])
    return ops, builds


def _layer_metrics(tracer, rounds, builds, overhead_pct):
    """Per-layer metrics of the traced rounds, per round."""
    n = len(rounds)
    tot, calls, cnt = tracer.total, tracer.calls, tracer.counts
    m = {}

    from workloads import Census

    census = [rec for r in rounds for rec in r if rec[0].kind == "census"]
    for sc, sizes in Census.SIZES.items():
        mine = [rec for rec in census if rec[0].label.startswith(sc + ".")]
        m[f"flow.census_s.{sc}"] = (sum(dt for _, dt, *_ in mine) / n, "s")
        m[f"flow.census_batches.{sc}"] = (
            sum(rec[0].batches for rec in mine) / n, "count")
        for size in sizes:
            rows = [rec[0].rows for rec in mine
                    if rec[0].label == f"{sc}.{size}"]
            m[f"flow.census_rows_per_sample.{sc}.{size}"] = (
                (rows[0] / size) if rows else 0.0, "rows")

    acc = cnt["flow.accepted_steps"]
    m["flow.integrate_calls"] = (cnt["flow.integrate_calls"] / n, "count")
    m["flow.accepted_steps"] = (acc / n, "count")
    m["flow.rejected_steps"] = (cnt["flow.rejected_steps"] / n, "count")
    m["flow.step_us"] = (1e6 * tracer.self_time["flow.integrate"] / acc
                         if acc else 0.0, "us")
    m["flow.classify_s"] = (tot["flow.classify_limit"] / n, "s")
    ncls = cnt["flow.classify_calls"]
    m["flow.classify_conclusive"] = (
        cnt["flow.classify_conclusive_calls"] / ncls if ncls else 0.0, "ratio")
    m["flow.order_s"] = (tot["flow.estimate_order"] / n, "s")
    m["flow.self_s"] = (tracer.layer_self("flow") / n, "s")

    m["fields.rhs_calls"] = (calls["fields.rhs"] / n, "count")
    m["fields.rhs_rows"] = (cnt["fields.rhs_rows"] / n, "rows")
    m["fields.rhs_s"] = (tot["fields.rhs"] / n, "s")
    m["fields.lie_bracket_calls"] = (calls["fields.lie_bracket"] / n, "count")
    m["fields.lie_bracket_s"] = (tot["fields.lie_bracket"] / n, "s")

    geo = [k for k in calls if k.startswith("geometry.")]
    m["geometry.calls"] = (sum(calls[k] for k in geo) / n, "count")
    m["geometry.self_s"] = (tracer.layer_self("geometry") / n, "s")

    m["construction.build_s"] = (statistics.median(builds), "s")
    m["construction.haar_s"] = ((tracer.self_time["construction.haar_eval"]
                                 + tracer.self_time["construction.haar_build"])
                                / n, "s")
    m["construction.haar_field_rows"] = (
        cnt["construction.haar_field_rows"] / n, "rows")

    m["radial.solve_s"] = (tot["radial.solve"] / n, "s")
    m["radial.eval_s"] = (tot["radial.eval"] / n, "s")
    m["radial.g_calls"] = (calls["input.g"] / n, "count")
    m["radial.g_rows"] = (cnt["radial.g_rows"] / n, "rows")
    m["radial.nf_residual_s"] = (tot["radial.nf_residual"] / n, "s")
    m["radial.self_s"] = (tracer.layer_self("radial") / n, "s")

    m["verify.manifest_s"] = (tot["verify.manifest"] / n, "s")
    m["verify.conjugation_s"] = (tot["verify.conjugation"] / n, "s")
    m["verify.probe_s"] = (tot["verify.probe"] / n, "s")
    m["verify.basis_check_s"] = (tot["verify.basis_check"] / n, "s")
    m["verify.self_s"] = (tracer.layer_self("verify") / n, "s")

    m["cli.verify_s"] = (tot["cli.verify"] / n, "s")
    m["cli.trace_s"] = (tot["cli.trace"] / n, "s")
    m["cli.bytes_written"] = (cnt["cli.bytes_written"] / n, "bytes")
    m["cli.self_s"] = (tracer.layer_self("cli") / n, "s")

    m["trace.overhead_pct"] = (overhead_pct, "%")
    m["trace.spans_per_round"] = (sum(calls.values()) / n, "count")
    return m


def _report_operations(rounds):
    """Per-kind attempted/failed/wrong lines and one line per distinct failure."""
    lines, kinds, bad = [], {}, {}
    for r in rounds:
        for op, _, status, expected, got in r:
            k = kinds.setdefault(op.kind, [0, 0, 0])
            k[0] += 1
            k[1] += status == "failed"
            k[2] += status == "wrong"
            if status != "ok":
                key = (status, op.kind, op.label, str(expected), str(got))
                bad[key] = bad.get(key, 0) + 1
    for kind, (att, fail, wrong) in kinds.items():
        lines.append(f"ops {kind}: attempted {att}, failed {fail}, wrong {wrong}")
    for (status, kind, label, expected, got), times in bad.items():
        lines.append(f"{status.upper()} {kind} {label}: expected {expected}, "
                     f"got {got} (x{times})")
    return lines


def main(argv=None):
    args = _parse(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    tf = _import_package()
    import numpy as np

    from tracer import Instrumentation, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    work = os.path.join(BENCH_DIR, "out",
                        f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    min_rounds = getattr(workload, "MIN_ROUNDS", 3)
    tracer = None
    try:
        if args.trace:
            plain_ops = workload.setup(tf, args.seed, None, work)
            tracer = Tracer()
            instr = Instrumentation(tracer, tf)
            try:
                ops, builds = _traced_setup(workload, tf, args.seed, tracer,
                                            work)
            finally:
                instr.remove()
            tracer.reset_stats()
            plain, rounds, ratios = _run_traced_rounds(
                plain_ops, ops, args.seconds, min_rounds, tracer,
                lambda: Instrumentation(tracer, tf))
            checked = plain + rounds
        else:
            refs, import_times, setup_times = [], [], []

            def set_up():
                refs.append(_reference_loop())
                import_times.append(_import_seconds())
                t0 = time.perf_counter()
                ops = workload.setup(tf, args.seed, None, work)
                setup_times.append(time.perf_counter() - t0)
                return ops

            ops = set_up()
            for _ in range(SETUP_SAMPLES_BEFORE - 1):
                set_up()
            rounds, round_times = _run_rounds(ops, args.seconds, min_rounds,
                                              refs, set_up)
            checked = rounds
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = [rec for r in checked for rec in r]
    attempted = len(records)
    failed = sum(1 for rec in records if rec[2] == "failed")
    wrong = sum(1 for rec in records if rec[2] == "wrong")
    traced = f", {len(rounds)} of them traced" if args.trace else ""
    lines = [f"workload {args.workload} seed {args.seed}: {len(checked)} rounds "
             f"of {len(ops)} operations{traced}, python {sys.version.split()[0]}, "
             f"numpy {np.__version__}, nproc {os.cpu_count()}, "
             f"TORUSFLOW_THREADS={THREADS}"]
    lines += _report_operations(checked)

    if args.trace:
        overhead = 100.0 * (statistics.median(ratios) - 1.0)
        metrics = _layer_metrics(tracer, rounds, builds, overhead)
        spans_path = os.path.join(
            BENCH_DIR, "out", f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write(spans_path, {"workload": args.workload,
                                  "seed": args.seed, "rounds": len(rounds)})
        lines.append(f"tracing overhead {overhead:.1f}%: median over "
                     f"{len(ratios)} pairs of a traced round's time over the "
                     f"untraced round just before it ("
                     + " ".join(f"{r:.3f}" for r in ratios)
                     + f"); spans in {spans_path}")
        lines.append(f"flow.classify_conclusive base: "
                     f"{int(tracer.counts['flow.classify_calls'])} classify calls")
    else:
        # The host's speed drifts by up to 1.7x within minutes (README,
        # "Timing noise"), so the gated times are measured against a fixed
        # pure-Python loop timed before every call and every set-up sample:
        # a round's median duration in loops, and the set-up time in
        # seconds at the loop's nominal speed.
        ref = float(np.median(refs))
        call_s = [sum(dt for _, dt, *_ in r) for r in rounds]
        setup_raw = (statistics.median(import_times)
                     + statistics.median(setup_times))
        metrics = {
            "wall_ref": (statistics.median(call_s) / ref, "ref"),
            "setup_s": (setup_raw * REF_LOOP_S / ref, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        lines.append("round times: " + " ".join(f"{t:.3f}" for t in round_times)
                     + f" s; reference loop median {1e3 * ref:.4f} ms over "
                     f"{len(refs)} samples")
        lines.append(f"detail setup_raw_s = {setup_raw:.6g} s, before "
                     "scaling to the reference loop's nominal speed")
        lines.append(f"detail wall_s = {statistics.median(call_s):.6g} s "
                     "median round")
        lines.append(f"setup: median of {len(import_times)} imports in "
                     "fresh interpreters, "
                     + ", ".join(f"{t:.3f}" for t in import_times)
                     + f" s, + median of {len(setup_times)} set-ups "
                     + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
        for name, (value, unit, note) in workload.details(rounds).items():
            lines.append(f"detail {name} = {value:.6g} {unit} {note}".rstrip())
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} = {value:.6g} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
