"""Batch command line driver.

One executable, five commands selected by --command:

    verify    run the structural identity suite, emit a residual report
    fixture   generate a named sample grid as CSV (plus a self-check report)
    analyze   full surface report for an immersion CSV
    to-h      immersion CSV -> flat potential CSV + certificate report
    from-h    potential CSV -> immersion CSV + certificate and surface report

Reports are canonical JSON (sorted keys) printed to stdout; commands whose
primary output is a CSV also write the report next to it as
``<output>.report.json``.  Identical configurations produce byte-identical
outputs.  Exit codes: 0 success, 2 certificate or verification failure,
3 input error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .fixtures import FIXTURE_NAMES, default_spec, make_fixture
from .hsystem import (
    CertificateError,
    HSurfaceGrid,
    epsilon_from_surface,
    h_equation_residual,
    mean_curvature,
    metric_factor_check,
    surface_from_epsilon,
)
from .io import (
    dump_report,
    read_epsilon_csv,
    read_immersion_csv,
    write_epsilon_csv,
    write_immersion_csv,
    write_report,
)
from .nkspace import validate_tol_scale, verify
from .surface import almost_complex_residual, analyze, interior

VERSION_STRING = "nks3 " + __version__

__all__ = ["main", "VERSION_STRING"]


class _Parser(argparse.ArgumentParser):
    """Argument errors raise instead of exiting, so they map to exit code 3."""

    def error(self, message):
        raise ValueError(message)


def _build_parser():
    ap = _Parser(prog="nks3", description=__doc__.splitlines()[0])
    ap.add_argument(
        "--command",
        required=True,
        choices=("verify", "fixture", "analyze", "to-h", "from-h"),
        help="operation to run",
    )
    ap.add_argument("--input", help="input CSV path (analyze, to-h, from-h)")
    ap.add_argument("--output", help="output path (CSV, or JSON report)")
    ap.add_argument("--nu", type=int, help="grid point count along u (fixture)")
    ap.add_argument("--nv", type=int, help="grid point count along v (fixture)")
    ap.add_argument("--du", type=float, help="grid step along u (fixture)")
    ap.add_argument("--dv", type=float, help="grid step along v (fixture)")
    ap.add_argument(
        "--samples", type=int, default=1000, help="random sample count (verify)"
    )
    ap.add_argument(
        "--seed", type=int, default=42,
        help="RNG seed (verify), recorded in every report's config",
    )
    ap.add_argument(
        "--tol-scale", type=float, default=1.0,
        help="multiplier on certificate and verification tolerances (finite, > 0)",
    )
    ap.add_argument(
        "--fixture", choices=FIXTURE_NAMES, help="fixture name (fixture command)"
    )
    return ap


def _config_dict(args, **overrides):
    return {**vars(args), **overrides}


def _emit(report, args, sidecar_for=None):
    """Print the report; write it to --output or next to a CSV output."""
    sys.stdout.write(dump_report(report))
    if sidecar_for is not None:
        write_report(sidecar_for + ".report.json", report)
    elif args.output:
        write_report(args.output, report)


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name} is required for --command {args.command}")


def cmd_verify(args):
    residuals, thresholds, ok = verify(
        samples=args.samples, seed=args.seed, tol_scale=args.tol_scale
    )
    flagged = sorted(k for k in residuals if not residuals[k] <= thresholds[k])
    report = {
        "config": _config_dict(args),
        "version": VERSION_STRING,
        "ok": bool(ok),
        "flagged": flagged,
        "residual_max": residuals,
        "thresholds": thresholds,
    }
    _emit(report, args)
    return 0 if ok else 2


def cmd_fixture(args):
    _require(args, "fixture", "output")
    spec = default_spec(args.fixture, args.nu, args.nv, args.du, args.dv)
    obj = make_fixture(spec)
    if isinstance(obj, HSurfaceGrid):
        write_epsilon_csv(args.output, obj)
        kind = "epsilon"
        self_check = {
            "h_equation_max": float(interior(h_equation_residual(obj)).max())
        }
    else:
        write_immersion_csv(args.output, obj)
        kind = "immersion"
        self_check = {
            "almost_complex_max": float(
                interior(almost_complex_residual(obj.partials)).max()
            )
        }
    report = {
        "config": _config_dict(
            args, nu=spec.nu, nv=spec.nv, du=spec.du, dv=spec.dv
        ),
        "version": VERSION_STRING,
        "kind": kind,
        "rows": int(obj.nu * obj.nv),
        "self_check": self_check,
    }
    _emit(report, args, sidecar_for=args.output)
    return 0


def cmd_analyze(args):
    _require(args, "input")
    grid = read_immersion_csv(args.input)
    report = analyze(grid, tol_scale=args.tol_scale)
    report["config"] = _config_dict(args)
    report["version"] = VERSION_STRING
    _emit(report, args)
    return 0


def _mean_curvature_stats(hs):
    try:
        H = interior(mean_curvature(hs))
    except ValueError as exc:
        return {"status": "not_conformal", "detail": str(exc)}
    mean = float(H.mean())
    return {
        "status": "ok",
        "H_mean": mean,
        "H_max_dev": float(np.abs(H - mean).max()),
    }


def cmd_to_h(args):
    _require(args, "input", "output")
    grid = read_immersion_csv(args.input)
    hs, cert = epsilon_from_surface(grid, tol_scale=args.tol_scale)
    report = {
        "config": _config_dict(args),
        "version": VERSION_STRING,
        "certificate": cert,
        "mean_curvature": _mean_curvature_stats(hs),
        "metric_factor": metric_factor_check(grid, hs),
    }
    write_epsilon_csv(args.output, hs)
    _emit(report, args, sidecar_for=args.output)
    return 0


def cmd_from_h(args):
    _require(args, "input", "output")
    hs = read_epsilon_csv(args.input)
    grid, cert = surface_from_epsilon(hs, tol_scale=args.tol_scale)
    report = analyze(grid, tol_scale=args.tol_scale)
    report["certificate"] = cert
    report["config"] = _config_dict(args)
    report["version"] = VERSION_STRING
    write_immersion_csv(args.output, grid)
    _emit(report, args, sidecar_for=args.output)
    return 0


_HANDLERS = {
    "verify": cmd_verify,
    "fixture": cmd_fixture,
    "analyze": cmd_analyze,
    "to-h": cmd_to_h,
    "from-h": cmd_from_h,
}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        validate_tol_scale(args.tol_scale)
        return _HANDLERS[args.command](args)
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
