"""Batch command line driver.

One executable, five commands selected by --command:

    verify    run the structural identity suite, emit a residual report
    fixture   generate a named sample grid as CSV (plus a self-check report)
    analyze   full surface report for an immersion CSV
    to-h      immersion CSV -> flat potential CSV + certificate report
    from-h    potential CSV -> immersion CSV + certificate and surface report

Each command reads only the flags listed for it in `_COMMANDS`; any other
flag, and a missing required one, is an input error.  Reports are canonical
JSON (sorted keys) printed to stdout, with a ``config`` holding the command
and exactly the flags it reads; commands whose primary output is a CSV also
write the report next to it as ``<output>.report.json``.  Identical
configurations produce byte-identical outputs.  Exit codes: 0 success,
2 certificate or verification failure, 3 input error, failed allocation or
floating-point fault (a zero division, an overflow or an invalid value).
"""

from __future__ import annotations

import argparse
import gc
import sys

import numpy as np

from . import __version__
from .fixtures import FIXTURE_NAMES, make_fixture
from .frame import validate_tol_scale
from .hsystem import (
    CertificateError,
    HSurfaceGrid,
    epsilon_from_surface,
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
from .surface import analyze, interior_spread

VERSION_STRING = "nks3 " + __version__

__all__ = ["main", "VERSION_STRING"]


class _Parser(argparse.ArgumentParser):
    """Argument errors raise instead of exiting, so they map to exit code 3."""

    def error(self, message):
        raise ValueError(message)


def _build_parser():
    # no flag has a default: an unset flag is None and `_parse` fills in
    # the defaults of the chosen command
    ap = _Parser(prog="nks3", description=__doc__.splitlines()[0])
    ap.add_argument("--command", required=True, choices=tuple(_COMMANDS),
                    help="operation to run")
    ap.add_argument("--input", help="input CSV path (analyze, to-h, from-h)")
    ap.add_argument("--output", help="output path (CSV, or JSON report)")
    ap.add_argument("--nu", type=int, help="grid point count along u (fixture)")
    ap.add_argument("--nv", type=int, help="grid point count along v (fixture)")
    ap.add_argument("--du", type=float, help="grid step along u (fixture)")
    ap.add_argument("--dv", type=float, help="grid step along v (fixture)")
    ap.add_argument(
        "--samples", type=int, help="random sample count (verify; default 1000)"
    )
    ap.add_argument("--seed", type=int, help="RNG seed (verify; default 42)")
    ap.add_argument("--tol-scale", type=float, help="tolerance multiplier, finite "
                    "and > 0 (verify, analyze, to-h, from-h; default 1.0)")
    ap.add_argument(
        "--fixture", choices=FIXTURE_NAMES, help="fixture name (fixture command)"
    )
    return ap


def cmd_verify(config):
    # imported here, so the grid commands never compile the identity suite
    from .nkspace import verify

    report = verify(config["samples"], config["seed"], config["tol_scale"])
    return report, None, 0 if report["ok"] else 2


def cmd_fixture(config):
    obj = make_fixture(
        config["fixture"], config["nu"], config["nv"], config["du"], config["dv"]
    )
    config.update(nu=obj.nu, nv=obj.nv, du=obj.du, dv=obj.dv)
    # the self-check is read first: a grid its summary refuses writes no file
    if isinstance(obj, HSurfaceGrid):
        kind, check = "epsilon", {"h_equation_max": obj.summary.h_equation_max}
        write_epsilon_csv(config["output"], obj)
    else:
        kind, check = "immersion", {"almost_complex_max": obj.summary.almost_complex_max}
        write_immersion_csv(config["output"], obj)
    report = {"kind": kind, "rows": int(obj.nu * obj.nv), "self_check": check}
    return report, config["output"], 0


def cmd_analyze(config):
    grid = read_immersion_csv(config["input"])
    return analyze(grid, tol_scale=config["tol_scale"]), None, 0


def _mean_curvature_stats(hs):
    try:
        mean, dev = interior_spread(mean_curvature(hs))
    except ValueError as exc:
        return {"status": "not_conformal", "detail": str(exc)}
    return {"status": "ok", "H_mean": mean, "H_max_dev": dev}


def cmd_to_h(config):
    grids = [read_immersion_csv(config["input"])]
    summary = grids[0].summary
    # handed over as the only reference: p and q are freed after the pass
    # that integrates them, before the potential is checked
    hs, cert = epsilon_from_surface(grids.pop(), tol_scale=config["tol_scale"])
    report = {
        "certificate": cert,
        "mean_curvature": _mean_curvature_stats(hs),
        "metric_factor": metric_factor_check(summary, hs),
    }
    write_epsilon_csv(config["output"], hs)
    return report, config["output"], 0


def cmd_from_h(config):
    # passed inline: the potential is freed before the output grid is built
    grid, cert = surface_from_epsilon(
        read_epsilon_csv(config["input"]), tol_scale=config["tol_scale"]
    )
    report = analyze(grid, tol_scale=config["tol_scale"])
    # the output's adaptedness defect is analyze's, from its one pass
    report["certificate"] = {**cert, "almost_complex_max": report["almost_complex_max"]}
    write_immersion_csv(config["output"], grid)
    return report, config["output"], 0


# marks a flag that has no default and must be given
_REQUIRED = object()

# command -> (handler, {flag: default}); a command reads exactly these flags
_COMMANDS = {
    "verify": (cmd_verify, {"samples": 1000, "seed": 42, "tol_scale": 1.0, "output": None}),
    "fixture": (cmd_fixture, {"fixture": _REQUIRED, "output": _REQUIRED,
                              "nu": None, "nv": None, "du": None, "dv": None}),
    "analyze": (cmd_analyze, {"input": _REQUIRED, "output": None, "tol_scale": 1.0}),
    "to-h": (cmd_to_h, {"input": _REQUIRED, "output": _REQUIRED, "tol_scale": 1.0}),
    "from-h": (cmd_from_h, {"input": _REQUIRED, "output": _REQUIRED, "tol_scale": 1.0}),
}


def _flag(name):
    return "--" + name.replace("_", "-")


def _parse(argv):
    """The handler and `config` of the chosen command: the command name plus
    each flag it reads, given or defaulted.  Raises ValueError for a flag
    the command does not read, for a `--tol-scale` that is not finite and
    positive, and for a missing required flag, all before any input is
    read."""
    given = vars(_build_parser().parse_args(argv))
    command = given.pop("command")
    handler, flags = _COMMANDS[command]
    unread = [_flag(k) for k, v in given.items() if v is not None and k not in flags]
    if unread:
        raise ValueError(f"{', '.join(unread)} not read by --command {command}")
    if given["tol_scale"] is not None:
        validate_tol_scale(given["tol_scale"])
    config = {"command": command}
    for name, default in flags.items():
        config[name] = default if given[name] is None else given[name]
        if config[name] is _REQUIRED:
            raise ValueError(f"{_flag(name)} is required for --command {command}")
    return handler, config


def main(argv=None):
    try:
        handler, config = _parse(argv)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            report, sidecar_for, code = handler(config)
        report["config"] = config
        report["version"] = VERSION_STRING
        sys.stdout.write(dump_report(report))
        if sidecar_for is not None:
            write_report(sidecar_for + ".report.json", report)
        elif config.get("output"):
            write_report(config["output"], report)
        return code
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError, FloatingPointError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3


def run():
    """The process entry point of `python -m nks3.cli` and the `nks3`
    script: `main` on the process arguments, then `gc.freeze()`, which moves
    every live object into the permanent generation that collections skip:
    the exiting interpreter's collections then neither walk the import-time
    heap nor break its reference cycles (functions and their module
    globals, classes), which the operating system reclaims with the
    process.  Every output file is closed by then, and the interpreter
    still flushes stdout and stderr.  In-process callers run `main`, which
    leaves the collector alone."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
