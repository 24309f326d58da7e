"""Check that two source trees of nks3 produce byte-identical outputs.

    python3 tools/same_outputs.py PARENT_ROOT CHANGE_ROOT

Runs the same fixed list of command line runs against both trees, each
with PYTHONPATH=<root>/src and its own fresh work directory, so both see
the same relative paths; the grids in `INPUTS` are written into both
first.  For every run it compares stdout, stderr, the exit code and every
file the run wrote, byte for byte, and prints one line, then the count of
identical runs.  A run whose stderr holds a warning in either tree
differs too.  Exits 1 if any run
differs, 0 if all are identical.  Standard library only; the work
directories are removed at the end.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path


def _grid(nu, nv, h=None):
    args = ["--nu", str(nu), "--nv", str(nv)]
    return args + ["--du", repr(h), "--dv", repr(h)] if h else args


def _potential_csv(n, h, eps):
    """The epsilon CSV text of eps(u, v) on the n x n lattice of step h."""
    points = [(i * h, j * h) for i in range(n) for j in range(n)]
    rows = [",".join(map(repr, (u, v, *eps(u, v)))) for u, v in points]
    return "\n".join(["u,v,x,y,z", *rows]) + "\n"


def _immersion_csv(n, h, pq):
    """The immersion CSV text of (p, q)(u, v) on the n x n lattice of step h."""
    points = [(i * h, j * h) for i in range(n) for j in range(n)]
    rows = [",".join(map(repr, (u, v, *pq(u, v)))) for u, v in points]
    return "\n".join(["u,v,p0,p1,p2,p3,q0,q1,q2,q3", *rows]) + "\n"


def _circle(a, axis):
    """The unit quaternion cos(a) + sin(a) u, u the imaginary unit at
    component `axis` (1 for i, 2 for j)."""
    q = [math.cos(a), 0.0, 0.0, 0.0]
    q[axis] = math.sin(a)
    return tuple(q)


def _sphere_pair(u, v):
    """example2's pair (1/2 - sqrt3/2 x, 1/2 + sqrt3/2 x) at the point
    x = (sech u cos v, sech u sin v, -tanh u) of the unit sphere."""
    s = math.sqrt(3.0) / 2.0
    x = (math.cos(v) / math.cosh(u), math.sin(v) / math.cosh(u), -math.tanh(u))
    return (0.5, *(-s * c for c in x), 0.5, *(s * c for c in x))


def _sphere_potential(lon, mer):
    """cmc_sphere's potential, the sphere of radius sqrt3/2 at longitude
    `lon` and Mercator coordinate `mer`."""
    r = math.sqrt(3.0) / 2.0
    return (r * math.cos(lon) / math.cosh(mer), r * math.sin(lon) / math.cosh(mer),
            r * math.tanh(mer))


# file name -> CSV text, written into each work directory before the runs
INPUTS = {
    "const.csv": _potential_csv(7, 0.1, lambda u, v: (1.0, 2.0, 3.0)),
    "plane.csv": _potential_csv(9, 0.05, lambda u, v: (u, v, 0.0)),
    # the bench's gate probe: p = exp(u i), q = exp(v j), not adapted
    "probe.csv": _immersion_csv(41, 0.025, lambda u, v: _circle(u, 1) + _circle(v, 2)),
    # p = q = exp(v j) does not move along u: not an immersion
    "still.csv": _immersion_csv(41, 0.025, lambda u, v: _circle(v, 2) * 2),
    # p = q = exp((u + v) i) has parallel tangents: EG - F^2 = 0 everywhere
    "parallel.csv": _immersion_csv(41, 0.025, lambda u, v: _circle(u + v, 1) * 2),
    # example1 with both circle angles scaled by 1e-3: the same surface
    # traced 1000 times slower, which every scale-free gate accepts
    "slow.csv": _immersion_csv(21, 0.01, lambda u, v: (
        _circle(1e-3 * (u - v / math.sqrt(3.0)), 1) + _circle(-2e-3 * v / math.sqrt(3.0), 1))),
    # p = exp(min(u, 85 h) i), q = exp(v j) stops moving along u at row 85,
    # so the grid fails the immersion floor only in its second slab
    "late.csv": _immersion_csv(101, 0.025, lambda u, v: (
        _circle(min(u, 85 * 0.025), 1) + _circle(v, 2))),
    # example2 and cmc_sphere over 9^2 at step 1e-100: the rounding noise of
    # their values makes derivatives near 1e84, whose products overflow
    "tiny.csv": _immersion_csv(9, 1e-100, _sphere_pair),
    "tiny_eps.csv": _potential_csv(9, 1e-100, _sphere_potential),
    # example2 41^2 at step 2^-8, centred on its equator, and cmc_sphere
    # 21^2 at step 0.02, relabelled (u, v) -> s (u, v) by s = 2^-3 and 2^10:
    # the same samples over a lattice whose steps are s times theirs
    "fast.csv": _immersion_csv(41, 2.0**-11, lambda u, v: _sphere_pair(8.0 * u - 20 * 2.0**-8,
                                                                       8.0 * v)),
    "wide_eps.csv": _potential_csv(21, 0.02 * 2.0**10, lambda u, v: _sphere_potential(
        u * 2.0**-10, v * 2.0**-10 - 10 * 0.02)),
}

# (label, expected exit code, cli arguments); later runs read earlier outputs
RUNS = [
    ("fixture example2 201x201", 0,
     ["fixture", "--fixture", "example2", *_grid(201, 201, 5e-3), "--output", "ex2.csv"]),
    ("analyze example2", 0, ["analyze", "--input", "ex2.csv", "--output", "ex2.json"]),
    ("to-h example2", 0, ["to-h", "--input", "ex2.csv", "--output", "ex2_h.csv"]),
    ("from-h example2 potential", 0, ["from-h", "--input", "ex2_h.csv", "--output", "ex2_s.csv"]),
    ("fixture example1 41x41", 0,
     ["fixture", "--fixture", "example1", *_grid(41, 41), "--output", "ex1.csv"]),
    ("analyze example1", 0, ["analyze", "--input", "ex1.csv", "--output", "ex1.json"]),
    ("to-h example1", 0, ["to-h", "--input", "ex1.csv", "--output", "ex1_h.csv"]),
    # example1's third components vanish exactly, so a changed sign of zero
    # would show as -0 in either direction's CSV
    ("from-h example1 potential", 0, ["from-h", "--input", "ex1_h.csv", "--output", "ex1_s.csv"]),
    # 41-row slabs of 201 points leave this grid a last slab of one row
    ("fixture example2 83x201", 0,
     ["fixture", "--fixture", "example2", *_grid(83, 201), "--output", "ex83.csv"]),
    ("analyze example2 83x201", 0, ["analyze", "--input", "ex83.csv", "--output", "ex83.json"]),
    ("to-h example2 83x201", 0, ["to-h", "--input", "ex83.csv", "--output", "ex83_h.csv"]),
    ("from-h example2 83x201 potential", 0,
     ["from-h", "--input", "ex83_h.csv", "--output", "ex83_s.csv"]),
    # from-h integrates this potential over a 197x43 window, whose v-slabs
    # of 42 columns of 197 points leave a last slab of one column
    ("fixture example2 201x47", 0,
     ["fixture", "--fixture", "example2", *_grid(201, 47), "--output", "ex47.csv"]),
    ("to-h example2 201x47", 0, ["to-h", "--input", "ex47.csv", "--output", "ex47_h.csv"]),
    ("from-h example2 201x47 potential", 0,
     ["from-h", "--input", "ex47_h.csv", "--output", "ex47_s.csv"]),
    ("fixture cmc_cylinder 4001x11", 0,
     ["fixture", "--fixture", "cmc_cylinder", *_grid(4001, 11, 6e-3), "--output", "cyl.csv"]),
    ("from-h cmc_cylinder", 0, ["from-h", "--input", "cyl.csv", "--output", "cyl_s.csv"]),
    ("to-h cmc_cylinder surface", 0, ["to-h", "--input", "cyl_s.csv", "--output", "cyl_h.csv"]),
    ("analyze cmc_cylinder surface", 0,
     ["analyze", "--input", "cyl_s.csv", "--output", "cyl_s.json"]),
    ("analyze cmc_cylinder potential", 3, ["analyze", "--input", "cyl.csv"]),
    ("fixture cmc_sphere", 0, ["fixture", "--fixture", "cmc_sphere", "--output", "sph.csv"]),
    ("from-h cmc_sphere", 0, ["from-h", "--input", "sph.csv", "--output", "sph_s.csv"]),
    ("to-h cmc_sphere surface", 0, ["to-h", "--input", "sph_s.csv", "--output", "sph_h.csv"]),
    ("analyze cmc_sphere surface --tol-scale 0.5", 0,
     ["analyze", "--input", "sph_s.csv", "--tol-scale", "0.5", "--output", "sph_s.json"]),
    ("from-h cmc_sphere --tol-scale 1e-6", 2,
     ["from-h", "--input", "sph.csv", "--tol-scale", "1e-6", "--output", "sph_tight.csv"]),
    ("from-h immersion csv", 3, ["from-h", "--input", "ex1.csv", "--output", "bad_s.csv"]),
    # refused by the potential's summary: its derivatives vanish
    ("from-h constant potential", 3,
     ["from-h", "--input", "const.csv", "--output", "const_s.csv"]),
    # refused by the equation-residual certificate: the plane's residual over
    # its speed is 2/sqrt3, far above the 0.05 it is allowed
    ("from-h plane potential", 2,
     ["from-h", "--input", "plane.csv", "--output", "plane_s.csv"]),
    # refused by the gates; on the still and parallel-tangent grids, where
    # EG - F^2 = 0, `analyze`'s stages would divide by zero
    ("analyze non-adapted probe", 3, ["analyze", "--input", "probe.csv"]),
    ("to-h non-adapted probe", 3, ["to-h", "--input", "probe.csv", "--output", "probe_h.csv"]),
    ("analyze still grid", 3, ["analyze", "--input", "still.csv"]),
    ("to-h still grid", 3, ["to-h", "--input", "still.csv", "--output", "still_h.csv"]),
    ("analyze parallel-tangent grid", 3, ["analyze", "--input", "parallel.csv"]),
    ("to-h parallel-tangent grid", 3,
     ["to-h", "--input", "parallel.csv", "--output", "parallel_h.csv"]),
    # relabelled grids keep the verdicts of the grids they relabel
    ("analyze slow grid", 0, ["analyze", "--input", "slow.csv"]),
    ("to-h slow grid", 0, ["to-h", "--input", "slow.csv", "--output", "slow_h.csv"]),
    ("analyze fast grid", 0, ["analyze", "--input", "fast.csv"]),
    ("to-h fast grid", 0, ["to-h", "--input", "fast.csv", "--output", "fast_h.csv"]),
    ("from-h wide potential", 0,
     ["from-h", "--input", "wide_eps.csv", "--output", "wide_s.csv"]),
    # the cylinder sampled at 1000 times its radius is aliased: refused at
    # a certificate, since no tolerance exceeds 0.05 times tol_scale
    ("fixture cmc_cylinder step 1000", 0,
     ["fixture", "--fixture", "cmc_cylinder", *_grid(21, 21, 1000.0), "--output", "alias.csv"]),
    ("from-h aliased cylinder", 2, ["from-h", "--input", "alias.csv", "--output", "alias_s.csv"]),
    # too fine to certify: a second difference at this step is rounding noise
    ("fixture cmc_sphere step 1e-7", 0,
     ["fixture", "--fixture", "cmc_sphere", *_grid(21, 21, 1e-7), "--output", "fine.csv"]),
    ("from-h too-fine potential", 2, ["from-h", "--input", "fine.csv", "--output", "fine_s.csv"]),
    ("analyze late-stopping grid", 3, ["analyze", "--input", "late.csv"]),
    ("to-h late-stopping grid", 3, ["to-h", "--input", "late.csv", "--output", "late_h.csv"]),
    # refused at the floating-point fault their self-check meets
    ("fixture example2 tiny step", 3,
     ["fixture", "--fixture", "example2", *_grid(9, 9, 1e-100), "--output", "tiny2.csv"]),
    ("fixture cmc_sphere tiny step", 3,
     ["fixture", "--fixture", "cmc_sphere", *_grid(9, 9, 1e-100), "--output", "tinys.csv"]),
    ("analyze tiny-step grid", 3, ["analyze", "--input", "tiny.csv"]),
    ("to-h tiny-step grid", 3, ["to-h", "--input", "tiny.csv", "--output", "tiny_h.csv"]),
    ("from-h tiny-step potential", 3,
     ["from-h", "--input", "tiny_eps.csv", "--output", "tiny_s.csv"]),
    # u runs over [-1000, 1000]: refused at the pole margin, before cosh
    # could overflow
    ("fixture example2 past the poles", 3,
     ["fixture", "--fixture", "example2", "--nu", "1001", "--nv", "11", "--du", "2",
      "--output", "pole.csv"]),
    ("verify --samples 10000 --seed 1", 0,
     ["verify", "--samples", "10000", "--seed", "1", "--output", "verify.json"]),
    # a last block of one sample, and a single sample
    ("verify --samples 2049 --seed 7", 0,
     ["verify", "--samples", "2049", "--seed", "7", "--output", "verify_2049.json"]),
    ("verify --samples 1 --seed 0", 0,
     ["verify", "--samples", "1", "--seed", "0", "--output", "verify_1.json"]),
    # a surface too fine to certify: every command that reads a tolerance
    # refuses it, with the roundoff read at the surface's largest E
    ("fixture example2 21x21 step 1e-7", 0,
     ["fixture", "--fixture", "example2", *_grid(21, 21, 1e-7), "--output", "fine2.csv"]),
    ("analyze too-fine grid", 2, ["analyze", "--input", "fine2.csv", "--output", "fine2.json"]),
    ("to-h too-fine grid", 2, ["to-h", "--input", "fine2.csv", "--output", "fine2_h.csv"]),
    # past the adaptedness gate, both readers of a surface grid meet the
    # metric floor
    ("analyze parallel-tangent grid --tol-scale 100", 3,
     ["analyze", "--input", "parallel.csv", "--tol-scale", "100"]),
    ("to-h parallel-tangent grid --tol-scale 100", 3,
     ["to-h", "--input", "parallel.csv", "--tol-scale", "100", "--output", "parallel_h.csv"]),
    # to-h writes only a potential that from-h reads, so it refuses a
    # surface below 9x9; 9x9 is the smallest round trip
    ("fixture example2 7x7", 0,
     ["fixture", "--fixture", "example2", *_grid(7, 7), "--output", "ex7.csv"]),
    ("to-h example2 7x7", 3, ["to-h", "--input", "ex7.csv", "--output", "ex7_h.csv"]),
    ("fixture example2 9x9", 0,
     ["fixture", "--fixture", "example2", *_grid(9, 9), "--output", "ex9.csv"]),
    ("to-h example2 9x9", 0, ["to-h", "--input", "ex9.csv", "--output", "ex9_h.csv"]),
    ("from-h example2 9x9 potential", 0,
     ["from-h", "--input", "ex9_h.csv", "--output", "ex9_s.csv"]),
]


def _snapshot(work):
    return {p.name: (p.stat().st_mtime_ns, p.stat().st_size) for p in work.iterdir()}


def _run(root, work, args):
    """(exit code, stdout, stderr, {file name: bytes} of the files written)."""
    env = dict(os.environ, PYTHONPATH=str(Path(root, "src").resolve()),
               PYTHONDONTWRITEBYTECODE="1")
    before = _snapshot(work)
    proc = subprocess.run([sys.executable, "-m", "nks3.cli", "--command", *args],
                          cwd=work, env=env, capture_output=True)
    written = {name: (work / name).read_bytes()
               for name, stat in _snapshot(work).items() if before.get(name) != stat}
    return proc.returncode, proc.stdout, proc.stderr, written


def _differences(a, b):
    code_a, out_a, err_a, files_a = a
    code_b, out_b, err_b, files_b = b
    diffs = [what for what, x, y in (("exit code", code_a, code_b),
                                     ("stdout", out_a, out_b),
                                     ("stderr", err_a, err_b)) if x != y]
    for name in sorted(files_a.keys() | files_b.keys()):
        if files_a.get(name) != files_b.get(name):
            diffs.append(name)
    return diffs


def main(argv):
    if len(argv) != 2:
        print("usage: python3 tools/same_outputs.py PARENT_ROOT CHANGE_ROOT", file=sys.stderr)
        return 2
    roots = [Path(r) for r in argv]
    top = Path(tempfile.mkdtemp(prefix="same_outputs_"))
    failed = 0
    try:
        works = [top / "parent", top / "change"]
        for work in works:
            work.mkdir()
            for name, text in INPUTS.items():
                (work / name).write_text(text)
        for label, expected, args in RUNS:
            results = [_run(root, work, args) for root, work in zip(roots, works)]
            diffs = _differences(*results)
            codes = {r[0] for r in results}
            if codes != {expected}:
                diffs.append(f"exit {sorted(codes)}, expected {expected}")
            if any(b"Warning" in r[2] for r in results):
                diffs.append("warning on stderr")
            failed += bool(diffs)
            verdict = "DIFFERS" if diffs else "same"
            print(f"{verdict:<7} exit {results[1][0]}  {label}"
                  + (": " + ", ".join(diffs) if diffs else ""), flush=True)
    finally:
        shutil.rmtree(top)
    print(f"{len(RUNS) - failed} of {len(RUNS)} runs identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
