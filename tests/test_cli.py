import json
import subprocess
import sys

import numpy as np
import pytest

from nks3 import cli, fixtures, io


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


def test_verify_zero_samples(capsys):
    code, rep, err = run(capsys, "--command", "verify", "--samples", "0")
    assert code == 3 and rep is None
    assert "samples must be at least 1" in err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_zero_samples_refused_under_perturbed_structure(
    capsys, monkeypatch, samples
):
    # with no samples the perturbed structure must not slip through as "ok"
    monkeypatch.setenv("NKS3_J_SCALE", "1.1")
    code, rep, err = run(capsys, "--command", "verify", "--samples", samples)
    assert code == 3 and rep is None
    assert "samples must be at least 1" in err


def test_verify_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("NKS3_SEED", "7")
    code, rep, _ = run(capsys, "--command", "verify", "--samples", "10", "--seed", "1")
    assert code == 0 and rep["config"]["seed"] == 7
    monkeypatch.setenv("NKS3_SEED", "notanint")
    code, rep, err = run(capsys, "--command", "verify", "--samples", "10")
    assert code == 3 and "input error" in err


def test_verify_perturbed_structure_flagged(capsys, monkeypatch):
    monkeypatch.setenv("NKS3_J_SCALE", "1.000001")
    code, rep, _ = run(capsys, "--command", "verify", "--samples", "50")
    assert code == 2
    assert "j_squared" in rep["flagged"]
    assert "curvature_vs_oracle" in rep["flagged"]
    # a pure scale leaves the P-J anticommutator identity intact
    assert "pj_anticommute" not in rep["flagged"]


def test_verify_config_records_j_scale(capsys, monkeypatch):
    code, rep, _ = run(capsys, "--command", "verify", "--samples", "10")
    assert code == 0 and rep["config"]["j_scale"] == 1.0
    monkeypatch.setenv("NKS3_J_SCALE", "1.000001")
    code, rep, _ = run(capsys, "--command", "verify", "--samples", "10")
    assert code == 2 and rep["config"]["j_scale"] == 1.000001


def test_verify_nan_j_scale_flags_nan_entries(capsys, monkeypatch):
    monkeypatch.setenv("NKS3_J_SCALE", "nan")
    code, rep, _ = run(capsys, "--command", "verify", "--samples", "10")
    assert code == 2 and rep["ok"] is False
    nan_keys = {k for k, v in rep["residual_max"].items() if np.isnan(v)}
    assert {"j_squared", "curvature_vs_oracle"} <= nan_keys
    assert nan_keys <= set(rep["flagged"])


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


def test_fixture_requires_name_and_output(tmp_path, capsys):
    code, _, err = run(capsys, "--command", "fixture", "--output", str(tmp_path / "x.csv"))
    assert code == 3 and "--fixture" in err
    code, _, err = run(capsys, "--command", "fixture", "--fixture", "example1")
    assert code == 3 and "--output" in err


def test_analyze_fixture(tmp_path, capsys):
    csv = tmp_path / "ex1.csv"
    run(capsys, "--command", "fixture", "--fixture", "example1",
        "--nu", "31", "--nv", "31", "--output", str(csv))
    report_path = tmp_path / "rep.json"
    code, rep, _ = run(capsys, "--command", "analyze", "--input", str(csv),
                       "--output", str(report_path), "--seed", "5")
    assert code == 0
    assert rep["classification"] == "tangent"
    assert abs(rep["K_mean"]) < 1e-6
    assert rep["seed"] == 5
    assert json.loads(report_path.read_text()) == rep


def test_analyze_rejects_non_adapted(tmp_path, capsys):
    grid = fixtures.non_adapted_grid(
        fixtures.default_spec("example1", nu=15, nv=15, du=5e-2, dv=5e-2)
    )
    csv = tmp_path / "bad.csv"
    io.write_immersion_csv(csv, grid)
    code, _, err = run(capsys, "--command", "analyze", "--input", str(csv))
    assert code == 3
    assert "not adapted" in err and "real-part residual" in err


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "--command", "analyze", "--input", "/nonexistent.csv")
    assert code == 3 and "input error" in err


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
    assert rep["metric_factor"]["status"] == "ok"
    code, rep, _ = run(capsys, "--command", "from-h", "--input", str(eps),
                       "--output", str(back))
    assert code == 0
    assert rep["classification"] == "normal"
    assert abs(rep["K_mean"] - 2 / 3) < 1e-3
    assert rep["certificate"]["compat_max"] < 1e-3


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
        capture_output=True, text=True,
    )
    assert r.returncode == 0
    assert json.loads(out.read_text())["ok"] is True
    assert json.loads(r.stdout) == json.loads(out.read_text())


def _probe_csv(tmp_path):
    # the 41x41 non-adapted control grid on [0, 1]^2
    grid = fixtures.non_adapted_grid(
        fixtures.default_spec("example1", nu=41, nv=41, du=0.025, dv=0.025)
    )
    csv = tmp_path / "bad.csv"
    io.write_immersion_csv(csv, grid)
    return csv


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_tol_scale_must_be_finite_and_positive(tmp_path, capsys, value):
    csv = _probe_csv(tmp_path)
    for argv in (
        ("--command", "analyze", "--input", str(csv)),
        ("--command", "verify", "--samples", "10"),
    ):
        code, rep, err = run(capsys, *argv, "--tol-scale", value)
        assert code == 3 and rep is None
        assert "tol_scale must be finite and positive" in err


def test_to_h_rejects_non_adapted(tmp_path, capsys):
    csv = _probe_csv(tmp_path)
    out = tmp_path / "eps.csv"
    code, rep, err = run(capsys, "--command", "to-h", "--input", str(csv),
                         "--output", str(out))
    assert code == 3 and rep is None
    assert "not adapted" in err
    assert not out.exists()
