"""Benchmark of the nks3 command line, end to end and per module.

    python3 bench/run.py --workload sphere_roundtrip --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Every nks3 command runs the way
users run it: one fresh `python3 -m nks3.cli` process per command, one at a
time, on the sources under src/.  A run repeats whole rounds of its
workload's commands until the next round would overrun --seconds, checks the
outputs of the first round against values computed apart from the program
(checks.py), and requires every later round to write the same bytes.

--trace 0 reports the end-to-end metrics: set-up time, the wall time of the
command sequence and the largest peak RSS of a command.  --trace 1 pairs each
untraced round with a round in which every command runs under
traced_cli.py, and reports per-function call counts and self times, the
untraced per-command wall times and the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A fuller record (environment, check values, every
sample) goes to .bench_out/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layers import SPAN_NAMES, audit_ok

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREADS = str(len(os.sched_getaffinity(0)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PER_ROUND = 2
# a hung command is killed well inside the 180 s a whole run may take
COMMAND_TIMEOUT_S = 120.0

SPHERE = {"n": 201, "h": 5e-3}
CYLINDER = {"nu": 4001, "nv": 11, "h": 6e-3}
IDENTITY = {"samples": 10000}
PROBE = {"n": 41, "h": 0.025}
COMMANDS = ("fixture", "analyze", "to_h", "from_h", "verify")


def child_env():
    """The caller's environment without NKS3_* overrides, on src/, with BLAS
    and OpenMP threads capped at the CPUs this process may use."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("NKS3_")}
    env["PYTHONPATH"] = str(SRC)
    env.update({var: THREADS for var in THREAD_VARS})
    return env


Proc = collections.namedtuple("Proc", "rc wall_s rss_mb")


def run_process(argv, cwd, env, stdout_path, timeout=COMMAND_TIMEOUT_S):
    """Run one child to its end; wall time and peak RSS come from wait4."""
    reaped = {}
    with open(stdout_path, "wb") as out, open(str(stdout_path) + ".stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            reaped["end"] = time.perf_counter()
            reaped["status"], reaped["usage"] = status, usage

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(timeout)
        if waiter.is_alive():
            proc.kill()
            waiter.join()
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    return Proc(proc.returncode, reaped["end"] - start, reaped["usage"].ru_maxrss / 1024.0)


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


class RunState:
    """State of one benchmark run: operation counts, timings, checks and
    the reference digests that every later round must reproduce."""

    def __init__(self, workdir, ops_per_round):
        self.workdir = workdir
        self.env = child_env()
        self.ops_per_round = ops_per_round
        self.attempted = 0
        self.failed = 0
        self.checks = {}
        self.mismatches = []
        self.reference = {}
        self.rounds = []  # per round: {"traced", "commands": {name: [wall, rss]}}
        self.functions = []  # per traced round: {span name: [calls, self_s]}
        self.audits_ok = True
        self.traced = False
        self.first = True

    # -- operations

    def _argv(self, name, args):
        if self.traced:
            spans = self.workdir / f"{name}.spans.json"
            return [sys.executable, str(BENCH / "traced_cli.py"), str(spans), "--", *args]
        return [sys.executable, "-m", "nks3.cli", *args]

    def command(self, name, args, outputs=()):
        """A timed command that must exit 0 and reproduce its first bytes."""
        self._ops += 1
        stdout = self.workdir / f"{name}.stdout"
        proc = run_process(self._argv(name, args), self.workdir, self.env, stdout)
        if proc.rc != 0:
            raise RoundAborted(f"{name} exited {proc.rc}")
        self._round["commands"][name] = [proc.wall_s, proc.rss_mb]
        self._compare(name, [stdout, *(self.workdir / o for o in outputs)])
        if self.traced:
            with open(self.workdir / f"{name}.spans.json") as fh:
                traced = json.load(fh)
            self.audits_ok &= audit_ok(traced["audit"])
            for span, (calls, self_s) in traced["functions"].items():
                slot = self._functions.setdefault(span, [0, 0.0])
                slot[0] += calls
                slot[1] += self_s

    def probe(self, name, args):
        """An untimed gate probe: the command must refuse its input with exit
        code 2 or 3.  Until it does, it counts as a failed operation."""
        self._ops += 1
        proc = run_process(
            [sys.executable, "-m", "nks3.cli", *args], self.workdir, self.env,
            self.workdir / f"{name}.stdout",
        )
        self._round["probes"][name] = proc.rc
        if proc.rc not in (2, 3):
            self.failed += 1

    def helper(self, step, **params):
        """Run one step of checks.py in its own process; None if it failed."""
        stdout = self.workdir / f"check_{step}.stdout"
        argv = [sys.executable, str(BENCH / "checks.py"), step, str(self.workdir), json.dumps(params)]
        if run_process(argv, self.workdir, self.env, stdout).rc != 0:
            return None
        return json.loads(stdout.read_text())

    def check(self, step, **params):
        """Run one checks.py step on the round's files and keep its checks."""
        found = self.helper(step, **params)
        if found is None:
            found = {step: {"completed": {"value": 1.0, "limit": 0.0, "ok": False}}}
        self.checks.update(found)

    def _compare(self, name, paths):
        value = digest(paths)
        ref = self.reference.setdefault(name, value)
        if value != ref:
            self.mismatches.append({"round": len(self.rounds), "command": name})

    # -- rounds

    def run_round(self, body, traced):
        self.traced = traced
        self._ops = 0
        self._round = {"traced": traced, "commands": {}, "probes": {}}
        self._functions = {}
        try:
            body(self)
        except RoundAborted as exc:
            self._round["aborted"] = str(exc)
            self.failed += self.ops_per_round - self._ops + 1
        else:
            if self._ops != self.ops_per_round:
                raise RuntimeError(f"round ran {self._ops} operations, expected {self.ops_per_round}")
            if traced:
                self.functions.append(self._functions)
        self.attempted += self.ops_per_round
        self.rounds.append(self._round)
        self.first = False

    def correct(self):
        calls = self.calls()
        return (
            all(e["ok"] for c in self.checks.values() for e in c.values())
            and not self.mismatches
            and self.audits_ok
            and all(c == calls[0] for c in calls)
        )

    def calls(self):
        """Per traced round, the call count of each function."""
        return [{k: v[0] for k, v in f.items()} for f in self.functions]


class RoundAborted(Exception):
    """A command of the round exited non-zero; the rest of the round is skipped."""


# ---------------------------------------------------------------- workloads


def sphere_roundtrip(seed):
    """fixture example2 -> (seeded isometry) -> analyze -> to-h -> from-h,
    plus two gate probes on a non-adapted grid."""
    n, h = SPHERE["n"], SPHERE["h"]
    grid = ["--nu", str(n), "--nv", str(n), "--du", repr(h), "--dv", repr(h)]

    def body(s):
        if s.first:
            s.check("probe_grid", n=PROBE["n"], h=PROBE["h"])
        s.command(
            "fixture",
            ["--command", "fixture", "--fixture", "example2", *grid, "--output", "fixture.csv"],
            ["fixture.csv", "fixture.csv.report.json"],
        )
        if s.first:
            s.check("sphere_fixture", seed=seed, n=n, h=h)
        s.command("analyze", ["--command", "analyze", "--input", "input.csv", "--output", "analyze.json"], ["analyze.json"])
        s.command(
            "to_h", ["--command", "to-h", "--input", "input.csv", "--output", "potential.csv"],
            ["potential.csv", "potential.csv.report.json"],
        )
        s.command(
            "from_h", ["--command", "from-h", "--input", "potential.csv", "--output", "surface.csv"],
            ["surface.csv", "surface.csv.report.json"],
        )
        if s.first:
            s.check("sphere_outputs", h=h)
        s.probe("probe_analyze_nan_tol", ["--command", "analyze", "--input", "probe.csv", "--tol-scale", "nan", "--output", "probe.json"])
        s.probe("probe_to_h", ["--command", "to-h", "--input", "probe.csv", "--output", "probe_potential.csv"])

    return body, 6


def cylinder_strip(seed):
    """fixture cmc_cylinder strip -> (seeded rigid motion) -> from-h -> to-h."""
    nu, nv, h = CYLINDER["nu"], CYLINDER["nv"], CYLINDER["h"]
    grid = ["--nu", str(nu), "--nv", str(nv), "--du", repr(h), "--dv", repr(h)]

    def body(s):
        s.command(
            "fixture",
            ["--command", "fixture", "--fixture", "cmc_cylinder", *grid, "--output", "fixture.csv"],
            ["fixture.csv", "fixture.csv.report.json"],
        )
        if s.first:
            s.check("cylinder_fixture", seed=seed, nu=nu, nv=nv, h=h)
        s.command(
            "from_h", ["--command", "from-h", "--input", "input.csv", "--output", "surface.csv"],
            ["surface.csv", "surface.csv.report.json"],
        )
        s.command(
            "to_h", ["--command", "to-h", "--input", "surface.csv", "--output", "potential.csv"],
            ["potential.csv", "potential.csv.report.json"],
        )
        if s.first:
            s.check("cylinder_outputs", h=h)

    return body, 3


def identity_suite(seed):
    """verify on a large seeded batch of points and tangent vectors."""
    samples = IDENTITY["samples"]

    def body(s):
        s.command(
            "verify",
            ["--command", "verify", "--samples", str(samples), "--seed", str(seed), "--output", "verify.json"],
            ["verify.json"],
        )
        if s.first:
            s.check("identity_outputs", samples=samples, seed=seed)

    return body, 1


WORKLOADS = {
    "sphere_roundtrip": sphere_roundtrip,
    "cylinder_strip": cylinder_strip,
    "identity_suite": identity_suite,
}


# ------------------------------------------------------------------ metrics


def check_import(workdir, env):
    """Exit unless a fresh interpreter imports nks3.cli from src/; this start
    also fills the bytecode cache before anything is timed."""
    where = workdir / "import.stdout"
    argv = [sys.executable, "-c", "import nks3.cli, sys; sys.stdout.write(nks3.cli.__file__)"]
    rc = run_process(argv, workdir, env, where).rc
    if rc != 0 or Path(where.read_text()).resolve() != (SRC / "nks3" / "cli.py").resolve():
        raise SystemExit(f"nks3.cli does not import from {SRC}")


def time_setup(workdir, env):
    """Wall time of a fresh interpreter running `import nks3.cli`."""
    argv = [sys.executable, "-c", "import nks3.cli"]
    return run_process(argv, workdir, env, workdir / "setup.stdout").wall_s


def completed(s, traced):
    return [r["commands"] for r in s.rounds if r["traced"] == traced and "aborted" not in r]


def sequence_wall(commands):
    return sum(wall for wall, _ in commands.values())


def end_to_end(s, setup):
    plain = completed(s, traced=False)
    metrics = {"setup_s": (statistics.median(setup), "s")}
    if plain:
        metrics["wall_s"] = (statistics.median(map(sequence_wall, plain)), "s")
        metrics["peak_rss_mb"] = (statistics.median(max(m for _, m in c.values()) for c in plain), "MB")
    return metrics


def per_layer(s):
    metrics = {}
    for name in SPAN_NAMES:
        per_round = [f.get(name, [0, 0.0]) for f in s.functions] or [[0, 0.0]]
        metrics[f"{name}.calls"] = (per_round[0][0], "count")
        metrics[f"{name}.self_s"] = (statistics.median(x[1] for x in per_round), "s")
    plain, traced = completed(s, traced=False), completed(s, traced=True)
    for cmd in COMMANDS:
        walls = [c[cmd][0] for c in plain if cmd in c]
        metrics[f"command.{cmd}.wall_s"] = (statistics.median(walls) if walls else 0.0, "s")
    if plain and traced:
        overhead = statistics.median(map(sequence_wall, traced)) - statistics.median(map(sequence_wall, plain))
        metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def environment(s):
    return {
        **(s.helper("environment") or {}),
        "cpu_count": os.cpu_count(),
        "cpus_usable": int(THREADS),
        "child_threads": {var: THREADS for var in THREAD_VARS},
        "nks3_env_removed": sorted(k for k in os.environ if k.startswith("NKS3_")),
        "commit": git_commit(),
        "machine": platform.platform(),
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# --------------------------------------------------------------------- main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nks3" / "cli.py").is_file():
        print(f"no nks3 sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        body, ops = WORKLOADS[args.workload](args.seed)
        s = RunState(workdir, ops)
        check_import(workdir, s.env)
        setup = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            if not args.trace:
                # spread over the run, so that set-up time sees the same machine as the rounds
                setup += [time_setup(workdir, s.env) for _ in range(SETUP_PER_ROUND)]
            s.run_round(body, traced=False)
            if args.trace:
                s.run_round(body, traced=True)
            now = time.perf_counter()
            if now - start + (now - began) > args.seconds:
                break
        env_record = environment(s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = per_layer(s) if args.trace else end_to_end(s, setup)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in measured.items()}
    result = {
        "correct": s.correct(),
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": {"sphere": SPHERE, "cylinder": CYLINDER, "identity": IDENTITY, "probe": PROBE},
        "environment": env_record,
        "setup_samples_s": setup,
        "checks": s.checks,
        "digest_mismatches": s.mismatches,
        "span_audits_ok": s.audits_ok,
        "rounds": s.rounds,
        "result": result,
    }
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
