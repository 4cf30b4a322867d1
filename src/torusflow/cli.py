"""Command line front end.

Subcommands: build (emit a construction manifest), trace (integrate a
trajectory to CSV), verify (run certification checks), probe (commutant
dimension), basin (backward census of base samples).  Outputs are
deterministic for a fixed config and seed: identical invocations produce
byte-identical files.

Exit codes: 0 success, 1 a verification check failed, 2 bad input or
config, 3 numerical failure (integrator or solver breakdown).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .construction import (
    build_line_describing,
    build_planar_demo,
    build_s5,
)
from .fields import E
from .flow import FlowError, IntegratorConfig, basin_census, integrate
from .radial import RadialSolverError
from .verify import commutant_dimension_probe, verify_manifest

SCHEMA_VERSION = 1

_SCENARIO_DEFAULTS = {
    "line": {"n": 1, "frequencies": [1.0]},
    "circle": {"n": 2, "frequencies": [1.0, 2.0 ** 0.5]},
    "planar": {"n": 2, "frequencies": [1.0, 2.0 ** 0.5],
               "orders": [2, 4, 6], "radius": 1.0},
    "s5": {"frequencies": [1.0, E, E * E]},
}


class ConfigError(ValueError):
    pass


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    version = cfg.pop("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    return cfg


def _integer(value, key, least=None):
    """A config value of ``key`` that must be an int (a float, a bool or a
    string is not one here), and at least ``least`` unless that is None."""
    if type(value) is not int or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ConfigError(f"{key} must be an integer{bound}, got {value!r}")
    return value


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _merged_config(scenario, cfg):
    merged = dict(_SCENARIO_DEFAULTS.get(scenario, {}))
    merged.update(cfg)
    return merged


def _build_manifest(scenario, cfg):
    if scenario in ("line", "circle"):
        return build_line_describing(
            scenario, n=_integer(cfg["n"], "n"),
            freqs=tuple(float(f) for f in cfg["frequencies"]),
        )
    if scenario == "planar":
        return build_planar_demo(
            orders=tuple(_integer(m, "orders") for m in cfg["orders"]),
            radius=float(cfg["radius"]),
            n=_integer(cfg["n"], "n"),
            freqs=tuple(float(f) for f in cfg["frequencies"]),
        )
    if scenario == "s5":
        return build_s5(tuple(float(f) for f in cfg["frequencies"]))
    raise ConfigError(f"unknown scenario {scenario!r}")


def _provenance(cfg, seed):
    return {
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "config_sha256": hashlib.sha256(_canonical(cfg).encode()).hexdigest(),
        "seed": seed,
    }


def _write(path, text, quiet):
    """Write text to path, or to stdout without one; name the file unless
    quiet."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
        if not quiet:
            print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _scenario(args):
    """The merged config of ``--scenario`` and ``--config``, and its
    manifest."""
    cfg = _merged_config(args.scenario, _load_config(args.config))
    return cfg, _build_manifest(args.scenario, cfg)


def _emit(args, cfg, payload):
    """Write a JSON payload with its provenance to ``--out`` or stdout."""
    payload["provenance"] = _provenance(cfg, args.seed)
    _write(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n",
           args.quiet)


def cmd_build(args):
    cfg, manifest = _scenario(args)
    _emit(args, cfg, manifest.to_dict())
    return 0


def cmd_trace(args):
    cfg, manifest = _scenario(args)
    fld = manifest.field
    dim = fld.chart.dim
    p0 = np.asarray(cfg.get("p0", fld.chart.wrap([0.5] * dim)), dtype=float)
    if p0.size != dim:
        raise ConfigError(f"p0 must have {dim} coordinates")
    if fld.chart.is_sphere and abs(np.linalg.norm(p0) - 1.0) > 1e-9:
        raise ConfigError("p0 must lie on the unit sphere")
    t_span = cfg.get("t_span", [0.0, 10.0])
    if not (isinstance(t_span, list) and len(t_span) == 2
            and all(type(t) in (int, float) for t in t_span)):
        raise ConfigError(f"t_span must be two numbers, got {t_span!r}")
    n_eval = _integer(cfg.get("n_eval", 200), "n_eval", 1)
    icfg = IntegratorConfig(
        rtol=float(cfg.get("rtol", 1e-9)),
        atol=float(cfg.get("atol", 1e-12)),
    )
    t_eval = np.linspace(t_span[0], t_span[1], n_eval)
    traj = integrate(fld, p0, t_span, icfg, t_eval=t_eval)
    prov = _provenance(cfg, args.seed)
    lines = [f"# {key}={prov[key]}" for key in sorted(prov)]
    lines.append("t," + ",".join(f"y{i}" for i in range(dim)))
    row = ",".join(["%.17g"] * (dim + 1))
    lines += [row % tuple(r) for r in
              np.column_stack([traj.times, traj.points]).tolist()]
    _write(args.out, "\n".join(lines) + "\n", args.quiet)
    return 0


def cmd_verify(args):
    cfg, manifest = _scenario(args)
    if args.sabotage:
        # negative control: a copy with two equal orders, so a check fails
        fld = manifest.field
        fibs = fld.singular_fibers
        if len(fibs) < 2:
            raise ConfigError("--sabotage needs two declared fibers to give "
                              f"equal orders; {fld.name!r} declares "
                              f"{len(fibs)}")
        fibs = (replace(fibs[0], order=fibs[1].order),) + fibs[1:]
        manifest = replace(manifest, field=replace(fld, singular_fibers=fibs))
    report = verify_manifest(manifest, seed=args.seed)
    _emit(args, cfg, {"name": report.name, "passed": report.passed,
                      "checks": report.checks})
    if not args.quiet:
        print(report.summary())
    return 0 if report.passed else 1


def cmd_probe(args):
    cfg = _merged_config("probe", _load_config(args.config))
    k = _integer(cfg.get("k", 2), "k")
    a = [float(v) for v in cfg.get("frequencies", [1.0, 2.0 ** 0.5])]
    rep = commutant_dimension_probe(
        k, a,
        degree=_integer(cfg.get("degree", 2), "degree"),
        max_freq=_integer(cfg.get("max_freq", 2), "max_freq"),
        n_points=_integer(cfg.get("n_points", 500), "n_points"),
        seed=args.seed,
    )
    _emit(args, cfg, {
        "dimension": rep.dimension,
        "expected_dimension": rep.expected_dimension,
        "matches_expected": rep.matches_expected,
        "gap": rep.gap if np.isfinite(rep.gap) else "inf",
        "nullity_x": rep.nullity_x,
        "nullity_theta": rep.nullity_theta,
        "n_basis": rep.n_basis,
    })
    return 0


def cmd_basin(args):
    cfg, manifest = _scenario(args)
    n_samples = _integer(cfg.get("n_samples", 200), "n_samples", 1)
    payload = asdict(basin_census(manifest.field, n_samples,
                                  seed=args.seed))
    _emit(args, cfg, payload)
    return 0


@functools.lru_cache(maxsize=None)
def _parser():
    """The argument parser, built once per process; parsing leaves it as is."""
    p = argparse.ArgumentParser(
        prog="torusflow",
        description="construct and certify describing fields for torus actions",
    )
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, scenario=True):
        if scenario:
            sp.add_argument("--scenario", required=True,
                            choices=sorted(_SCENARIO_DEFAULTS))
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--quiet", action="store_true")

    common(sub.add_parser("build", help="emit a construction manifest"))
    common(sub.add_parser("trace", help="integrate a trajectory to CSV"))
    sp = sub.add_parser("verify", help="run certification checks")
    common(sp)
    sp.add_argument("--sabotage", action="store_true",
                    help="corrupt the manifest so verification must fail")
    common(sub.add_parser("probe", help="commutant dimension probe"),
           scenario=False)
    common(sub.add_parser("basin", help="backward census of base samples"))
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        # looked up per call, so a replaced cmd_* function is the one run
        return globals()["cmd_" + args.command](args)
    # first: RadialSolverError is also a ValueError
    except (FlowError, RadialSolverError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (TypeError, IndexError) as exc:  # a config value's type or length
        print(f"error: bad config value: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
