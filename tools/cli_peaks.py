"""Wall time and peak RSS of the five nks3 commands at 201^2 and 401^2, and
of the cylinder strip chain.

    python3 tools/cli_peaks.py ROOT

First prints two fixed-cost rows, commands that do almost nothing but
start and exit: `fixture example1` at 11 x 11 points, and `verify
--samples 1`.  Their wall time is the cost every command pays whatever its
input: the interpreter and its site hook, numpy, the nks3 import and the
teardown at exit; the `fixture` row's peak RSS is the import floor of the
grid commands.  `verify --samples 1` imports `nkspace` as well, but not
`numpy.random` (it draws its samples from its own counter stream), and it
builds no grid, so its peak RSS sits below that floor.  Then runs the
command chain fixture -> analyze -> to-h -> from-h, plus verify, on the
example2 fixture at n x n points with step 1 / (n - 1), for n = 201 and
401, and last the strip chain of the benchmark's `cylinder_strip`
workload, without its seeded rigid motion: fixture cmc_cylinder at 4001 x
11 points, step 6e-3 -> from-h -> to-h on the surface that from-h wrote.  Every command is a fresh `python3 -m nks3.cli` process on ROOT/src,
run in its own work directory; wall time and peak RSS come from
`os.wait4`.  A fixed-cost row runs 15 times and prints the median of each
figure, because a best of three cannot resolve differences of a few
milliseconds there; a chain row runs three times and prints the smallest.
Exits 1 if any command exits non-zero.  Standard library only; the work
directory is removed at the end.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIZES = (201, 401)
REPEATS = 3
FIXED_REPEATS = 15
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# (size label, name, cli arguments) of the fixed-cost rows
FIXED = [
    ("11", "fixture", ["fixture", "--fixture", "example1", "--nu", "11", "--nv", "11",
                       "--output", "tiny.csv"]),
    ("-", "verify", ["verify", "--samples", "1"]),
]


def _commands(n):
    """(name, cli arguments) of the chain at n x n; later commands read
    earlier outputs."""
    h = repr(1.0 / (n - 1))
    return [
        ("fixture", ["fixture", "--fixture", "example2", "--nu", str(n), "--nv", str(n),
                     "--du", h, "--dv", h, "--output", "ex.csv"]),
        ("analyze", ["analyze", "--input", "ex.csv", "--output", "ex.json"]),
        ("to-h", ["to-h", "--input", "ex.csv", "--output", "ex_h.csv"]),
        ("from-h", ["from-h", "--input", "ex_h.csv", "--output", "ex_s.csv"]),
        ("verify", ["verify", "--samples", "10000", "--output", "verify.json"]),
    ]


# the strip chain: the potential, the surface integrated back from it, and
# the potential of that surface
STRIP = [
    ("fixture", ["fixture", "--fixture", "cmc_cylinder", "--nu", "4001", "--nv", "11",
                 "--du", "6e-3", "--dv", "6e-3", "--output", "strip_h.csv"]),
    ("from-h", ["from-h", "--input", "strip_h.csv", "--output", "strip_s.csv"]),
    ("to-h", ["to-h", "--input", "strip_s.csv", "--output", "strip_h2.csv"]),
]


def _run(args, cwd, env):
    """(exit code, wall seconds, peak RSS in MB) of one command."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "nks3.cli", "--command", *args],
                            cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def main(argv):
    if len(argv) != 1:
        print("usage: python3 tools/cli_peaks.py ROOT", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(Path(argv[0], "src").resolve()))
    env.update({var: str(len(os.sched_getaffinity(0))) for var in THREAD_VARS})
    work = Path(tempfile.mkdtemp(prefix="cli_peaks_"))
    failed = False
    try:
        print(f"{'n':>5}  {'command':<8}  {'wall_s':>7}  {'peak_rss_mb':>11}")
        rows = [(FIXED_REPEATS, statistics.median, *row) for row in FIXED]
        rows += [(REPEATS, min, str(n), name, args) for n in SIZES for name, args in _commands(n)]
        rows += [(REPEATS, min, "strip", name, args) for name, args in STRIP]
        for repeats, pick, n, name, args in rows:
            runs = [_run(args, work, env) for _ in range(repeats)]
            codes = {code for code, _, _ in runs}
            failed |= codes != {0}
            wall = pick(w for _, w, _ in runs)
            rss = pick(m for _, _, m in runs)
            note = "" if codes == {0} else f"  exit {sorted(codes)}"
            print(f"{n:>5}  {name:<8}  {wall:>7.3f}  {rss:>11.1f}{note}", flush=True)
    finally:
        shutil.rmtree(work)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
