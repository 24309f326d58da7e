import collections
import gc
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from nks3 import cli, fixtures, hsystem, io, quat
from nks3 import nkspace as nk
from nks3 import surface as sf

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def test_verify_default(capsys):
    code, rep, _ = run(capsys, "--command", "verify", "--samples", "100")
    assert code == 0
    assert rep["ok"] is True and rep["flagged"] == []
    assert rep["config"]["seed"] == 42 and rep["config"]["samples"] == 100
    assert rep["version"].startswith("nks3 ")
    assert max(rep["residual_max"].values()) < 1e-10


def test_verify_negative_seed(capsys):
    code, rep, err = run(capsys, "--command", "verify", "--samples", "3", "--seed", "-1")
    assert (code, rep) == (3, None)
    assert err == "input error: seed must be non-negative, got -1\n"


def test_verify_seed_beyond_64_bits(capsys):
    code, rep, _ = run(capsys, "--command", "verify", "--samples", "3",
                       "--seed", str(2**64 + 5))
    assert code == 0 and rep["ok"] is True
    assert rep["config"]["seed"] == 2**64 + 5


def test_verify_zero_samples(capsys):
    code, rep, err = run(capsys, "--command", "verify", "--samples", "0")
    assert code == 3 and rep is None
    assert "samples must be at least 1" in err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_zero_samples_refused_under_perturbed_structure(
    capsys, scale_J, samples
):
    # with no samples the perturbed structure must not slip through as "ok"
    scale_J(1.1)
    code, rep, err = run(capsys, "--command", "verify", "--samples", samples)
    assert code == 3 and rep is None
    assert "samples must be at least 1" in err


def test_no_environment_knobs():
    # every input is a flag recorded in config: no module reads the
    # environment, and former override variables change nothing
    for path in (SRC / "nks3").glob("*.py"):
        assert not re.search(r"\benviron\b|getenv", path.read_text()), path.name
    argv = [sys.executable, "-m", "nks3.cli", "--command", "verify", "--samples", "50"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    plain = subprocess.run(argv, capture_output=True, env=env, check=True)
    env.update(NKS3_SEED="7", NKS3_J_SCALE="1.1")
    knobs = subprocess.run(argv, capture_output=True, env=env, check=True)
    assert knobs.stdout == plain.stdout


def test_verify_tiny_tol_scale_flagged(capsys):
    code, rep, _ = run(capsys, "--command", "verify", "--samples", "50",
                       "--tol-scale", "1e-6")
    assert code == 2 and rep["ok"] is False
    assert len(rep["flagged"]) == 25 and len(rep["residual_max"]) == 28
    assert rep["config"]["tol_scale"] == 1e-6


def test_verify_perturbed_structure_flagged(capsys, scale_J):
    scale_J(1.000001)
    code, rep, _ = run(capsys, "--command", "verify", "--samples", "50")
    assert code == 2
    assert "j_squared" in rep["flagged"]
    assert "curvature_vs_oracle" in rep["flagged"]
    # a pure scale leaves the P-J anticommutator identity intact
    assert "pj_anticommute" not in rep["flagged"]


def test_config_records_exactly_the_flags_read(tmp_path, capsys):
    surf, eps, back = (str(tmp_path / n) for n in ("s.csv", "e.csv", "b.csv"))
    code, rep, _ = run(capsys, "--command", "verify", "--samples", "10",
                       "--seed", "3")
    assert code == 0
    assert rep["config"] == {
        "command": "verify", "output": None, "samples": 10, "seed": 3,
        "tol_scale": 1.0,
    }
    code, rep, _ = run(capsys, "--command", "fixture", "--fixture", "example2",
                       "--nu", "41", "--nv", "41", "--output", surf)
    assert code == 0
    assert rep["config"] == {
        "command": "fixture", "fixture": "example2", "output": surf,
        "nu": 41, "nv": 41, "du": 5e-3, "dv": 5e-3,
    }
    code, rep, _ = run(capsys, "--command", "analyze", "--input", surf)
    assert code == 0
    assert rep["config"] == {
        "command": "analyze", "input": surf, "output": None, "tol_scale": 1.0,
    }
    for command, src, dst in (("to-h", surf, eps), ("from-h", eps, back)):
        code, rep, _ = run(capsys, "--command", command, "--input", src,
                           "--output", dst, "--tol-scale", "2")
        assert code == 0
        assert rep["config"] == {
            "command": command, "input": src, "output": dst, "tol_scale": 2.0,
        }


_FLAG_VALUES = {
    "input": "{surf}", "output": "{out}", "nu": "15", "nv": "15", "du": "0.05",
    "dv": "0.05", "samples": "10", "seed": "5", "tol_scale": "2",
    "fixture": "example1",
}
_VALID_ARGS = {
    "verify": ("--output", "{out}"),
    "fixture": ("--fixture", "example1", "--output", "{out}"),
    "analyze": ("--input", "{surf}", "--output", "{out}"),
    "to-h": ("--input", "{surf}", "--output", "{out}"),
    "from-h": ("--input", "{eps}", "--output", "{out}"),
}
_READS = {
    "verify": {"samples", "seed", "tol_scale", "output"},
    "fixture": {"fixture", "output", "nu", "nv", "du", "dv"},
    "analyze": {"input", "output", "tol_scale"},
    "to-h": {"input", "output", "tol_scale"},
    "from-h": {"input", "output", "tol_scale"},
}
_UNREAD = [
    (command, flag)
    for command, reads in _READS.items()
    for flag in _FLAG_VALUES
    if flag not in reads
]


def test_parser_flags_match_command_table():
    # a flag the parser accepts but no command reads could never be used
    flags = {a.dest for a in cli._build_parser()._actions} - {"help", "command"}
    assert flags == set().union(*(table for _, table in cli._COMMANDS.values()))
    assert {c: set(t) for c, (_, t) in cli._COMMANDS.items()} == _READS
    assert sum(map(len, _READS.values())) == 19 and len(_UNREAD) == 31


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    # inputs each command accepts, so only the unread flag can refuse it
    root = tmp_path_factory.mktemp("inputs")
    surf, eps = root / "surf.csv", root / "eps.csv"
    io.write_immersion_csv(surf, fixtures.make_fixture("example2", nu=41, nv=41))
    assert cli.main(["--command", "to-h", "--input", str(surf),
                     "--output", str(eps)]) == 0
    return {"surf": str(surf), "eps": str(eps)}


@pytest.mark.parametrize(("command", "flag"), _UNREAD)
def test_unread_flag_refused(tmp_path, capsys, valid_inputs, command, flag):
    paths = {**valid_inputs, "out": str(tmp_path / "out.csv")}
    name = "--" + flag.replace("_", "-")
    argv = [a.format(**paths) for a in (*_VALID_ARGS[command], name, _FLAG_VALUES[flag])]
    code, rep, err = run(capsys, "--command", command, *argv)
    assert code == 3 and rep is None
    assert f"{name} not read by --command {command}" in err
    assert list(tmp_path.iterdir()) == []


def test_verify_nan_j_scale_flags_nan_entries(capsys, scale_J):
    scale_J(np.nan)
    code, rep, _ = run(capsys, "--command", "verify", "--samples", "10")
    assert code == 2 and rep["ok"] is False
    nan_keys = {k for k, v in rep["residual_max"].items() if np.isnan(v)}
    assert {"j_squared", "curvature_vs_oracle"} <= nan_keys
    assert nan_keys <= set(rep["flagged"])


def test_verify_nan_frame_representation_flagged(capsys, monkeypatch):
    # the per-frame maximum must keep a NaN; Python's max(0.0, nan) drops it
    def nan_J(Z):
        nan = np.full_like(Z.u, np.nan)
        return nk.Tangent(Z.base, nan, nan)

    monkeypatch.setattr(nk, "apply_J", nan_J)
    code, rep, _ = run(capsys, "--command", "verify", "--samples", "10")
    assert code == 2
    assert np.isnan(rep["residual_max"]["frame_representation"])
    assert "frame_representation" in rep["flagged"]


def test_fixture_writes_deterministic_csv(tmp_path, capsys):
    out = tmp_path / "ex1.csv"
    args = ("--command", "fixture", "--fixture", "example1",
            "--nu", "21", "--nv", "21", "--output", str(out))
    code, rep, _ = run(capsys, *args)
    assert code == 0
    assert rep["kind"] == "immersion" and rep["rows"] == 441
    assert rep["config"]["nu"] == 21 and rep["config"]["du"] == 1e-2
    assert rep["self_check"]["almost_complex_max"] < 1e-4
    first = out.read_bytes()
    sidecar = json.loads((tmp_path / "ex1.csv.report.json").read_text())
    assert sidecar == rep
    code, _, _ = run(capsys, *args)
    assert code == 0 and out.read_bytes() == first


def test_fixture_epsilon_self_check(tmp_path, capsys):
    out = tmp_path / "sph.csv"
    code, rep, _ = run(
        capsys, "--command", "fixture", "--fixture", "cmc_sphere",
        "--nu", "21", "--nv", "21", "--output", str(out),
    )
    assert code == 0
    assert rep["kind"] == "epsilon"
    assert rep["self_check"]["h_equation_max"] < 1e-4


@pytest.mark.parametrize(("name", "window", "expected"), [
    ("example1", (), (101, 101, 1e-2, 1e-2)),
    ("cmc_sphere", (), (201, 201, 6e-3, 6e-3)),
    ("example2", ("--nu", "31", "--du", "0.004"), (31, 201, 4e-3, 5e-3)),
    ("cmc_cylinder", ("--nu", "31", "--du", "0.004"), (31, 201, 4e-3, 6e-3)),
])
def test_fixture_config_records_written_window(tmp_path, capsys, name, window,
                                               expected):
    out = tmp_path / "f.csv"
    code, rep, _ = run(capsys, "--command", "fixture", "--fixture", name,
                       *window, "--output", str(out))
    assert code == 0
    config = {k: rep["config"][k] for k in ("nu", "nv", "du", "dv")}
    assert config == dict(zip(("nu", "nv", "du", "dv"), expected))
    read = io.read_epsilon_csv if rep["kind"] == "epsilon" else io.read_immersion_csv
    written = read(str(out)).window()
    assert config == {k: pytest.approx(written[k], abs=1e-15) for k in config}


def test_fixture_requires_name_and_output(tmp_path, capsys):
    code, _, err = run(capsys, "--command", "fixture", "--output", str(tmp_path / "x.csv"))
    assert code == 3 and "--fixture" in err
    code, _, err = run(capsys, "--command", "fixture", "--fixture", "example1")
    assert code == 3 and "--output" in err


def _command_argv(tmp_path, command, source):
    """argv of `command` at 41x41 on the fixture `source`, whose CSV is
    written first unless `command` is the fixture itself."""
    argv = ["--command", "fixture", "--fixture", source, "--nu", "41", "--nv", "41",
            "--output", str(tmp_path / "in.csv")]
    if command == "fixture":
        return argv
    assert cli.main(argv) == 0
    return ["--command", command, "--input", str(tmp_path / "in.csv"),
            "--output", str(tmp_path / "out.csv")]


@pytest.mark.parametrize("command, source, calls", [
    ("fixture", "example2", 1), ("analyze", "example2", 1),
    ("to-h", "example2", 2), ("from-h", "cmc_sphere", 2),
])
def test_each_command_validates_each_window_once(monkeypatch, tmp_path, command,
                                                 source, calls):
    # the input window is validated where it is first known (`make_fixture`
    # or the CSV reader) and an integrator's output window by
    # `Lattice.inset`; every grid is then built over a validated window
    argv = _command_argv(tmp_path, command, source)
    lattice, windows = sf.lattice, []

    def counted(*args):
        windows.append(args)
        return lattice(*args)

    for module in (cli, fixtures, hsystem, io, sf):
        if getattr(module, "lattice", None) is lattice:
            monkeypatch.setattr(module, "lattice", counted)
    assert cli.main(argv) == 0
    assert len(windows) == calls


_AC, _EQ = "almost_complex_residual", "h_equation_residual"


@pytest.mark.parametrize("command, source, ac, eq", [
    ("fixture", "example2", 1, 0), ("analyze", "example2", 1, 0),
    ("to-h", "example2", 1, 1), ("from-h", "cmc_sphere", 1, 1),
    ("fixture", "cmc_sphere", 0, 1),
])
def test_each_command_reduces_each_gated_defect_once(monkeypatch, tmp_path, command,
                                                     source, ac, eq):
    # every reader takes `GridSummary.almost_complex_max` and
    # `HSurfaceGrid.h_equation_max` from a grid's summary, and `from-h`'s
    # certificate takes its `analyze`'s value, so they share one
    # adaptedness pass (at 41^2 a surface grid is one halo slab)
    argv = _command_argv(tmp_path, command, source)
    counts = {}

    def counting(name, residual):
        def counted(*args):
            counts[name] = counts.get(name, 0) + 1
            return residual(*args)
        return counted

    for name, owner in ((_AC, sf), (_EQ, hsystem)):
        residual = getattr(owner, name)
        for module in (cli, fixtures, hsystem, io, sf):
            if getattr(module, name, None) is residual:
                monkeypatch.setattr(module, name, counting(name, residual))
    assert cli.main(argv) == 0
    assert counts == {k: n for k, n in ((_AC, ac), (_EQ, eq)) if n}


@pytest.mark.parametrize("command, source, passes", [
    ("fixture", "example2", (1, 1)), ("analyze", "example2", (1, 1)),
    ("to-h", "example2", (2, 1)), ("from-h", "cmc_sphere", (1, 1)),
])
def test_each_command_forms_each_rows_partials_once_but_to_h_p_twice(
        monkeypatch, tmp_path, command, source, passes):
    # a surface grid forms no partials when it is built; it is read over
    # halo slabs once, by the pass that builds its summary: the fixture's
    # self-check, or `analyze`, whose one pass also feeds its stages.
    # `to-h` reads p once more in `epsilon_from_surface`, which forms p's
    # partials only; a row of its interior is a kept row of exactly one
    # slab in each pass.  300-point slabs cut the 41-row input, and the
    # 39-row output of `from-h`, into five
    argv = _command_argv(tmp_path, command, source)
    monkeypatch.setattr(sf, "_POINTS", 300)
    factor_partials, calls = sf.factor_partials, []

    def counted(grid, arr, *out):
        calls.append((grid.u0, grid.du, grid.nu, arr is grid.p))
        return factor_partials(grid, arr, *out)

    for module in (cli, fixtures, hsystem, io, sf):
        if getattr(module, "factor_partials", None) is factor_partials:
            monkeypatch.setattr(module, "factor_partials", counted)
    assert cli.main(argv) == 0
    u0 = min(c[0] for c in calls)
    for factor, n in zip((True, False), passes):
        rows = collections.Counter()
        for start, du, nu, _ in (c for c in calls if c[3] == factor):
            top = round((start - u0) / du)
            rows.update(range(top + sf._MARGIN, top + nu - sf._MARGIN))
        assert sum(c[3] == factor for c in calls) == 5 * n
        assert set(rows.values()) == {n}


@pytest.mark.parametrize("command, source", [("analyze", "example2"), ("from-h", "cmc_sphere")])
def test_analysis_forms_each_second_form_part_once(monkeypatch, tmp_path, command, source):
    # `analyze` reduces h_uu, h_uv and h_vv through the one public path, so
    # the traced benchmark books the stage to `second_fundamental_form`
    argv = _command_argv(tmp_path, command, source)
    form, parts = sf.second_fundamental_form, []

    def counted(grid, k):
        parts.append(k)
        return form(grid, k)

    for module in (cli, fixtures, hsystem, io, sf):
        if getattr(module, "second_fundamental_form", None) is form:
            monkeypatch.setattr(module, "second_fundamental_form", counted)
    assert cli.main(argv) == 0
    assert parts == [0, 1, 2]


def test_fixture_refuses_a_step_whose_square_underflows(tmp_path, capsys):
    # refused by `lattice` before any value is formed: no divide-by-zero
    # warning, no NaN self-check and no file
    out = tmp_path / "c.csv"
    code, rep, err = run(capsys, "--command", "fixture", "--fixture", "cmc_cylinder",
                         "--nu", "9", "--nv", "9", "--du", "1e-170", "--dv", "1e-170",
                         "--output", str(out))
    assert (code, rep) == (3, None) and "subnormal squares" in err
    assert list(tmp_path.iterdir()) == []


def test_fixture_refused_by_its_summary_writes_no_file(tmp_path, capsys):
    # a u-step of one period leaves example1's p the same on every u-row:
    # the grid is built, and the self-check, read before the write, refuses
    # it at the immersion check
    code, rep, err = run(capsys, "--command", "fixture", "--fixture", "example1",
                         "--nu", "9", "--nv", "9", "--du", repr(2.0 * np.pi), "--dv", "0.01",
                         "--output", str(tmp_path / "e1.csv"))
    assert (code, rep) == (3, None) and "not an immersion" in err
    assert list(tmp_path.iterdir()) == []


def test_analyze_refuses_a_grid_that_stops_without_a_warning(tmp_path, capsys):
    # example2 201^2 with every u-row from row 40 on equal to row 40: the
    # first 41-row slab keeps rows whose E is positive, but its halo rows
    # 41 and 42 have E = 0, so the almost-complex residual may divide only
    # on the interior it reduces; the second slab is refused at its
    # immersion floor, and the only line on stderr is the refusal, which
    # names the floor
    grid = fixtures.make_fixture("example2", nu=201, nv=201)
    p, q = grid.p.copy(), grid.q.copy()
    p[40:], q[40:] = p[40], q[40]
    csv = tmp_path / "stops.csv"
    io.write_immersion_csv(csv, sf.ImmersionGrid(**grid.window(), p=p, q=q))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, rep, err = run(capsys, "--command", "analyze", "--input", str(csv))
    assert (code, rep, caught) == (3, None, [])
    assert err == ("input error: grid is not an immersion: relative derivative norm 0.000e+00 "
                   "below 1.0e-08\n")


def quiet_run(capsys, *argv):
    """`run`, asserting that no warning was issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(capsys, *argv)
    assert caught == []
    return result


def refused_once(code, rep, err):
    """Whether a run was refused with exit 2 or 3, no report and one line."""
    return code in (2, 3) and rep is None and err.count("\n") == 1 and err.endswith("\n")


# a step of 1e-100 turns the rounding noise of unit values into derivatives
# near 1e84, whose products overflow
TINY = ["--nu", "9", "--nv", "9", "--du", "1e-100", "--dv", "1e-100"]


@pytest.mark.parametrize("name", ["example2", "cmc_sphere"])
def test_a_tiny_step_fixture_is_refused_at_its_fault(tmp_path, capsys, name):
    # the self-check meets the fault: exit 3 with one line, and no CSV or
    # sidecar
    code, rep, err = quiet_run(capsys, "--command", "fixture", "--fixture", name, *TINY,
                               "--output", str(tmp_path / "t.csv"))
    assert (code, rep, err) == (3, None, "input error: overflow encountered in multiply\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name, command", [
    ("example2", "analyze"), ("example2", "to-h"), ("cmc_sphere", "from-h")])
def test_a_tiny_step_grid_is_refused_at_its_fault(tmp_path, capsys, name, command):
    grid = fixtures.make_fixture(name, 9, 9, 1e-100, 1e-100)
    csv = tmp_path / "in.csv"
    write = io.write_immersion_csv if name == "example2" else io.write_epsilon_csv
    write(csv, grid)
    code, rep, err = quiet_run(capsys, "--command", command, "--input", str(csv),
                               "--output", str(tmp_path / "out.csv"))
    assert code == 3 and refused_once(code, rep, err)
    assert err.startswith("input error: overflow encountered in ")
    assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]


@pytest.mark.parametrize("name, window", [
    ("example2", ["--nu", "1001", "--nv", "11", "--du", "2"]),
    ("cmc_sphere", ["--nu", "11", "--nv", "1001", "--dv", "2"])])
def test_a_window_far_past_the_poles_meets_the_margin(tmp_path, capsys, name, window):
    # the conformal factor reaches 1 / cosh(1000), which the margin names
    # before cosh can overflow
    code, rep, err = quiet_run(capsys, "--command", "fixture", "--fixture", name, *window,
                               "--output", str(tmp_path / "t.csv"))
    assert (code, rep) == (3, None)
    assert err == ("input error: window reaches a conformal factor 0.000, below the "
                   "pole margin 0.2\n")
    assert list(tmp_path.iterdir()) == []


def finite_numbers(report):
    """Whether every number in a JSON report is finite."""
    if isinstance(report, dict):
        return all(finite_numbers(v) for v in report.values())
    if isinstance(report, list):
        return all(finite_numbers(v) for v in report)
    return not isinstance(report, float) or np.isfinite(report)


@pytest.mark.parametrize("step", ["1e-150", "1e-100", "1e-50", "1e-08", "1000.0"])
@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_extreme_steps_either_report_finite_numbers_or_refuse(tmp_path, capsys, name,
                                                              step):
    # every fixture at 21^2 and each step, then the grid it writes through
    # the commands that read it: none warns, and each run either reports
    # only finite numbers or is refused with one line
    def check(*argv):
        code, rep, err = quiet_run(capsys, "--command", *argv)
        assert (code == 0 and err == "" and finite_numbers(rep)) or refused_once(
            code, rep, err), (argv, code, err)
        return code

    csv = str(tmp_path / "grid.csv")
    if check("fixture", "--fixture", name, "--nu", "21", "--nv", "21",
             "--du", step, "--dv", step, "--output", csv):
        return
    for command in ["from-h"] if name.startswith("cmc") else ["analyze", "to-h"]:
        check(command, "--input", csv, "--output", str(tmp_path / f"{command}.out"))


def test_analyze_fixture(tmp_path, capsys):
    csv = tmp_path / "ex1.csv"
    run(capsys, "--command", "fixture", "--fixture", "example1",
        "--nu", "31", "--nv", "31", "--output", str(csv))
    report_path = tmp_path / "rep.json"
    code, rep, _ = run(capsys, "--command", "analyze", "--input", str(csv),
                       "--output", str(report_path))
    assert code == 0
    assert rep["classification"] == "tangent"
    assert abs(rep["K_mean"]) < 1e-6
    assert "seed" not in rep["config"] and "seed" not in rep
    assert json.loads(report_path.read_text()) == rep


def test_analyze_rejects_non_adapted(tmp_path, capsys):
    grid = fixtures.non_adapted_grid(sf.lattice(0.0, 0.0, 5e-2, 5e-2, 15, 15))
    csv = tmp_path / "bad.csv"
    io.write_immersion_csv(csv, grid)
    code, _, err = run(capsys, "--command", "analyze", "--input", str(csv))
    assert code == 3
    assert "not adapted" in err and "real-part residual" in err


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "--command", "analyze", "--input", "/nonexistent.csv")
    assert code == 3 and "input error" in err


def test_allocation_failure_is_an_input_error(tmp_path, capsys, monkeypatch):
    # raised, not provoked: a real oversized allocation is not attempted
    message = "Unable to allocate 89.4 GiB for an array with shape (3000000000, 4)"

    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(nk, "verify", exhausted)
    out = tmp_path / "report.json"
    code, rep, err = run(capsys, "--command", "verify", "--output", str(out))
    assert (code, rep, err) == (3, None, f"input error: {message}\n")
    assert not out.exists()


def test_round_trip_via_cli(tmp_path, capsys):
    surf = tmp_path / "ex2.csv"
    eps = tmp_path / "eps.csv"
    back = tmp_path / "back.csv"
    run(capsys, "--command", "fixture", "--fixture", "example2",
        "--nu", "41", "--nv", "41", "--output", str(surf))
    code, rep, _ = run(capsys, "--command", "to-h", "--input", str(surf),
                       "--output", str(eps))
    assert code == 0
    assert rep["certificate"]["loop_max"] < 1e-4
    assert rep["mean_curvature"]["status"] == "ok"
    assert abs(rep["mean_curvature"]["H_mean"] + 2 / np.sqrt(3)) < 1e-3
    assert abs(rep["metric_factor"]["ratio_mean"] - 2.0) < 1e-3
    assert rep["metric_factor"]["ratio_max_dev"] < 1e-3
    code, rep, _ = run(capsys, "--command", "from-h", "--input", str(eps),
                       "--output", str(back))
    assert code == 0
    assert rep["classification"] == "normal"
    assert abs(rep["K_mean"] - 2 / 3) < 1e-3
    assert rep["certificate"]["compat_max"] < 1e-3


def test_to_h_reports_non_conformal_potential_with_its_tolerance(tmp_path, capsys):
    # example1's potential is a valid solution in coordinates that are not
    # conformal: to-h writes it, and says why it reports no mean curvature
    surf = tmp_path / "ex1.csv"
    run(capsys, "--command", "fixture", "--fixture", "example1",
        "--nu", "41", "--nv", "41", "--output", str(surf))
    code, rep, _ = run(capsys, "--command", "to-h", "--input", str(surf),
                       "--output", str(tmp_path / "eps.csv"))
    assert code == 0
    assert rep["mean_curvature"] == {
        "status": "not_conformal",
        "detail": "coordinates are not conformal: "
                  "relative deviation 6.667e-01 exceeds 1.3e-02",
    }


def test_from_h_rejects_plane(tmp_path, capsys):
    u = np.arange(15) * 0.05
    rows = []
    for j in range(15):
        for i in range(15):
            rows.append([u[i], u[j], u[i], u[j], 0.0])
    path = tmp_path / "plane.csv"
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header="u,v,x,y,z",
               comments="")
    code, _, err = run(capsys, "--command", "from-h", "--input", str(path),
                       "--output", str(tmp_path / "o.csv"))
    assert code == 2 and "certificate failure" in err


def test_bad_flags(capsys):
    code, _, err = run(capsys, "--command", "nosuch")
    assert code == 3
    code, _, err = run(capsys, "--command", "fixture", "--fixture", "nosuch",
                       "--output", "x.csv")
    assert code == 3


def test_console_entry_point(tmp_path):
    out = tmp_path / "v.json"
    r = subprocess.run(
        [sys.executable, "-m", "nks3.cli", "--command", "verify",
         "--samples", "20", "--output", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert r.returncode == 0
    assert json.loads(out.read_text())["ok"] is True
    assert json.loads(r.stdout) == json.loads(out.read_text())


def _probe_csv(tmp_path):
    # the 41x41 non-adapted control grid on [0, 1]^2
    grid = fixtures.non_adapted_grid(sf.lattice(0.0, 0.0, 0.025, 0.025, 41, 41))
    csv = tmp_path / "bad.csv"
    io.write_immersion_csv(csv, grid)
    return csv


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_tol_scale_must_be_finite_and_positive(tmp_path, capsys, value):
    csv = _probe_csv(tmp_path)
    eps = tmp_path / "eps.csv"
    io.write_epsilon_csv(eps, fixtures.make_fixture("cmc_sphere", nu=21, nv=21))
    out = tmp_path / "out.csv"
    for argv in (
        ("--command", "analyze", "--input", str(csv)),
        ("--command", "verify", "--samples", "10"),
        ("--command", "to-h", "--input", str(csv), "--output", str(out)),
        ("--command", "from-h", "--input", str(eps), "--output", str(out)),
    ):
        code, rep, err = run(capsys, *argv, "--tol-scale", value)
        assert code == 3 and rep is None
        assert "tol_scale must be finite and positive" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv", "eps.csv"]


@pytest.mark.parametrize("command", ["analyze", "to-h", "from-h"])
@pytest.mark.parametrize("given_input", [False, True])
def test_tol_scale_checked_before_input_is_read(tmp_path, capsys, command,
                                                given_input):
    # the input is absent or names no file, so only a refusal of the
    # tolerance before any input is read names tol_scale
    argv = ["--command", command, "--tol-scale", "nan"]
    if given_input:
        argv += ["--input", str(tmp_path / "missing.csv")]
    if command != "analyze":
        argv += ["--output", str(tmp_path / "out.csv")]
    code, rep, err = run(capsys, *argv)
    assert code == 3 and rep is None
    assert "tol_scale must be finite and positive" in err
    assert list(tmp_path.iterdir()) == []


def test_analyze_refuses_rows_short_of_a_column(tmp_path, capsys):
    # the immersion header over rows of 9 values: one q coordinate dropped
    csv = _probe_csv(tmp_path)
    header, *rows = csv.read_text().splitlines()
    csv.write_text("\n".join([header] + [r.rsplit(",", 1)[0] for r in rows]) + "\n")
    code, rep, err = run(capsys, "--command", "analyze", "--input", str(csv))
    assert code == 3 and rep is None
    assert "expected 10 columns, got shape (1681, 9)" in err


def test_to_h_rejects_non_adapted(tmp_path, capsys):
    csv = _probe_csv(tmp_path)
    out = tmp_path / "eps.csv"
    code, rep, err = run(capsys, "--command", "to-h", "--input", str(csv),
                         "--output", str(out))
    assert code == 3 and rep is None
    assert "not adapted" in err
    assert not out.exists()


def test_to_h_refuses_potential_off_the_equation(tmp_path, capsys):
    # example2 81^2, h = 5e-3, every other u-row of p turned by exp(5e-4 i):
    # adapted and closed within their gates, but the potential's equation
    # residual is four orders of magnitude above its tolerance 5.6e-3
    grid = fixtures.make_fixture("example2", nu=81, nv=81, du=5e-3, dv=5e-3)
    p = grid.p.copy()
    p[::2] = quat.qmul(quat.qexp(np.array([5e-4, 0.0, 0.0])), p[::2])
    csv = tmp_path / "turned.csv"
    io.write_immersion_csv(csv, sf.immersion_grid(grid, p, grid.q))
    out = tmp_path / "eps.csv"
    code, rep, err = run(capsys, "--command", "to-h", "--input", str(csv),
                         "--output", str(out))
    assert code == 2 and rep is None
    assert "certificate failure: second-order equation residual" in err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["turned.csv"]


def test_from_h_writes_nothing_on_input_error(tmp_path, capsys):
    # the cylinder potential at step 0.3, coarser than its radius 0.43,
    # passes from-h's certificates, but the recovered surface's adaptedness
    # defect 0.063 fails analyze's gate 0.05; no partial output may remain
    eps = tmp_path / "eps.csv"
    back = tmp_path / "back.csv"
    code, _, _ = run(capsys, "--command", "fixture", "--fixture", "cmc_cylinder",
                     "--nu", "21", "--nv", "21", "--du", "0.3", "--dv", "0.3",
                     "--output", str(eps))
    assert code == 0
    code, rep, err = run(capsys, "--command", "from-h", "--input", str(eps),
                         "--output", str(back))
    assert code == 3 and rep is None and "not adapted" in err
    assert not back.exists()
    assert not (tmp_path / "back.csv.report.json").exists()


# the process exit path: `python -m nks3.cli` runs `cli.run`, which freezes
# the collector after `main` returns, so that the exiting interpreter skips
# the import-time heap; every output must be complete all the same

EXIT_RUNS = {
    "verify": (0, ["verify", "--samples", "20", "--output", "verify.json"]),
    "from-h": (2, ["from-h", "--input", "sphere.csv", "--output", "surface.csv",
                   "--tol-scale", "1e-6"]),
    "analyze": (3, ["analyze", "--input", "sphere.csv", "--output", "analyze.json"]),
}


def _outputs(cwd):
    return {p.name: p.read_bytes() for p in sorted(cwd.iterdir()) if p.name != "sphere.csv"}


@pytest.mark.parametrize("name", sorted(EXIT_RUNS))
def test_process_exit_keeps_every_output(tmp_path, capsys, monkeypatch, name):
    # the same run through a piped `python -m nks3.cli` and in process:
    # exit code, stdout, stderr and every written file agree byte for byte
    code, argv = EXIT_RUNS[name]
    sphere = fixtures.make_fixture("cmc_sphere", nu=41, nv=41)
    here, there = tmp_path / "in_process", tmp_path / "process"
    for cwd in (here, there):
        cwd.mkdir()
        io.write_epsilon_csv(cwd / "sphere.csv", sphere)
    child = subprocess.run(
        [sys.executable, "-m", "nks3.cli", "--command", *argv], cwd=there,
        capture_output=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    monkeypatch.chdir(here)
    frozen = gc.get_freeze_count()
    assert cli.main(["--command", *argv]) == code
    out = capsys.readouterr()
    assert gc.get_freeze_count() == frozen  # `main` leaves the collector alone
    assert child.returncode == code
    assert (child.stdout.decode(), child.stderr.decode()) == (out.out, out.err)
    assert _outputs(there) == _outputs(here)
    if code == 0:
        assert child.stdout == (there / "verify.json").read_bytes()
    else:
        assert child.stdout == b"" and child.stderr.endswith(b"\n")
        assert child.stderr.startswith(b"certificate failure: " if code == 2 else b"input error: ")


def test_console_script_exits_through_run():
    # the `nks3` script, like `python -m nks3.cli`, exits through `run`
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    assert re.findall(r"^nks3 = (.*)$", pyproject, re.M) == ['"nks3.cli:run"']


# each grid command run through `cli.main` in a fresh interpreter, then
# `verify`: the exit code of each, and whether `nks3.nkspace` and
# `numpy.random` are imported after it
_BOUNDARY = """
import json, sys
from nks3 import cli
seen = []
for argv in json.loads(sys.argv[1]):
    code = cli.main(["--command", *argv])
    seen.append([code, "nks3.nkspace" in sys.modules, "numpy.random" in sys.modules])
sys.stderr.write(json.dumps(seen))
"""


def _fresh_interpreter_runs(tmp_path):
    runs = [
        ["fixture", "--fixture", "example2", "--nu", "21", "--nv", "21", "--output", "ex.csv"],
        ["analyze", "--input", "ex.csv"],
        ["to-h", "--input", "ex.csv", "--output", "ex_h.csv"],
        ["from-h", "--input", "ex_h.csv", "--output", "ex_s.csv"],
        ["verify", "--samples", "5"],
    ]
    child = subprocess.run(
        [sys.executable, "-c", _BOUNDARY, json.dumps(runs)], cwd=tmp_path,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    return json.loads(child.stderr)


def test_only_verify_imports_the_identity_suite(tmp_path):
    seen = _fresh_interpreter_runs(tmp_path)
    assert [[code, nkspace] for code, nkspace, _ in seen] == [[0, False]] * 4 + [[0, True]]


def test_no_command_imports_numpy_random(tmp_path):
    # verify draws its samples from its own counter stream; this pytest
    # process has imported numpy.random already, so the check runs in a
    # fresh interpreter
    seen = _fresh_interpreter_runs(tmp_path)
    assert [[code, random] for code, _, random in seen] == [[0, False]] * 5
