"""The one tolerance law of the grid gates, `frame.tolerance`, and what it
promises: relabelling a grid's (u, v) by s = 2^k changes no verdict, exit
code or scale-free value; an under-resolved grid is refused, and so is any
grid, surface or potential, too fine for its second differences to carry
information; a valid grid at a step above that is not."""
import json

import numpy as np
import pytest

from nks3 import cli, fixtures, frame, io
from nks3 import surface as sf

from families import shifted_rows

EPS = np.finfo(float).eps


def test_tolerance_law_and_its_cap():
    lat = sf.lattice(0.0, 0.0, 1e-3, 1e-2, 5, 5)
    # the larger step at speed 1 is the step in arclength
    assert frame.roundoff(lat, 1.0) == pytest.approx(100.0 * EPS / 1e-4, rel=1e-15)
    assert frame.tolerance(lat, 1.0, 1.0) == pytest.approx(
        100.0 * 1e-4 + 100.0 * EPS / 1e-4, rel=1e-15)
    assert frame.tolerance(lat, 1.0, 0.5) == 0.5 * frame.tolerance(lat, 1.0, 1.0)
    # too coarse for either term to bound a defect: the cap
    for h_arc in (0.1, 1e3, np.inf):
        assert frame.tolerance(lat, (h_arc / 1e-2) ** 2, 2.0) == 2.0 * frame.TOL_CAP
    # too fine: the roundoff alone exceeds the cap, and no tolerance is returned
    for h_arc in (1e-7, 1e-170, 0.0):
        with pytest.raises(frame.CertificateError, match="^grid is too fine to certify: "
                           r"second-difference roundoff \S+ exceeds 5\.0e-02$"):
            frame.tolerance(lat, (h_arc / 1e-2) ** 2, 2.0)
    # a NaN speed is refused at the law, as too fine
    with pytest.raises(frame.CertificateError, match="roundoff nan exceeds"):
        frame.tolerance(lat, np.nan, 1.0)
    # and so is a tolerance multiplier that could switch a gate off
    for tol_scale in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="tol_scale must be finite and positive"):
            frame.tolerance(lat, 1.0, tol_scale)


def test_relabelling_leaves_the_tolerance_bit_identical():
    grid = fixtures.make_fixture("example2", nu=41, nv=41)
    law = frame.tolerance(grid.summary, grid.summary.E_max, 1.0)
    for k in (-8, 0, 10):
        s = 2.0**k
        lat = sf.lattice(s * grid.u0, s * grid.v0, s * grid.du, s * grid.dv, 41, 41)
        moved = sf.immersion_grid(lat, grid.p.copy(), grid.q.copy()).summary
        assert moved.E_max == grid.summary.E_max / s**2
        assert frame.tolerance(moved, moved.E_max, 1.0) == law


@pytest.mark.parametrize("k", [-8, -2, 0, 2, 10])
def test_relabelling_keeps_a_gate_on_either_side_of_its_tolerance(k):
    # the real part, in the units of the speed, is gated against the
    # tolerance times sqrt(E_max): 3.9 times it at delta = 0.3 and 0.39
    # times it at 0.03, at every s
    with pytest.raises(ValueError, match="far from imaginary"):
        sf.analyze(shifted_rows(0.3, 2.0**k))
    assert sf.analyze(shifted_rows(0.03, 2.0**k))["classification"] == "tangent"


def run(capsys, *argv):
    code = cli.main(["--command", *argv])
    out = capsys.readouterr()
    return code, json.loads(out.out) if out.out.strip() else None, out.err


def payload(path):
    """The value columns of a written CSV, as text: everything but u and v."""
    return [line.split(",", 2)[2] for line in path.read_text().splitlines()[1:]]


SCALE_FREE = ("almost_complex_max", "K_mean", "K_max_dev", "h_norm_max", "classification")


def relabelled_outcomes(tmp_path, capsys, name, n, h, k):
    """Exit codes, scale-free report values and written values of the
    commands that read the fixture `name` over n^2 at step h, relabelled by
    s = 2^k: `analyze` and `to-h` of a surface, `from-h` of a potential."""
    grid = fixtures.make_fixture(name, nu=n, nv=n, du=h, dv=h)
    s = 2.0**k
    lat = sf.lattice(s * grid.u0, s * grid.v0, s * grid.du, s * grid.dv, n, n)
    csv, out = tmp_path / f"{k}.csv", tmp_path / f"{k}_out.csv"
    if name.startswith("cmc"):
        io.write_epsilon_csv(csv, type(grid)(**lat.window(), eps=grid.eps))
        code, rep, _ = run(capsys, "from-h", "--input", str(csv), "--output", str(out))
        return code, [rep[key] for key in SCALE_FREE], payload(out)
    io.write_immersion_csv(csv, type(grid)(**lat.window(), p=grid.p, q=grid.q))
    code, rep, _ = run(capsys, "analyze", "--input", str(csv))
    code_h, rep_h, _ = run(capsys, "to-h", "--input", str(csv), "--output", str(out))
    return ((code, code_h), [rep[key] for key in SCALE_FREE]
            + [rep_h["certificate"]["loop_max"]], payload(out))


@pytest.mark.parametrize("name, n, h", [
    ("example1", 41, 0.02), ("example2", 81, 2.0**-8),
    ("cmc_sphere", 41, 0.02), ("cmc_cylinder", 41, 0.02)])
def test_relabelling_changes_no_verdict_and_no_scale_free_value(tmp_path, capsys, name, n, h):
    # each fixture window is accepted at every s = 2^k, k in [-8, 10], with
    # the same bits in every scale-free value and every written value
    first = relabelled_outcomes(tmp_path, capsys, name, n, h, 0)
    assert first[0] in (0, (0, 0))
    for k in range(-8, 11):
        assert relabelled_outcomes(tmp_path, capsys, name, n, h, k) == first, k


def test_from_h_certifies_no_surface_that_analyze_refuses(tmp_path, capsys):
    # cmc_sphere 21^2 at step 0.05: at tol_scale 0.01 the recovered
    # surface's adaptedness defect 6.9e-4 would exceed analyze's tolerance
    # 5e-4, and the certificate already refuses the potential, whose
    # residual over the speed exceeds the same capped tolerance; at
    # tol_scale 1 both accept
    eps, back = tmp_path / "eps.csv", tmp_path / "back.csv"
    assert run(capsys, "fixture", "--fixture", "cmc_sphere", "--nu", "21", "--nv", "21",
               "--du", "0.05", "--dv", "0.05", "--output", str(eps))[0] == 0
    code, rep, err = run(capsys, "from-h", "--input", str(eps), "--output", str(back),
                         "--tol-scale", "0.01")
    assert (code, rep) == (2, None)
    assert err.startswith("certificate failure: second-order equation residual ")
    assert not back.exists()
    code, rep, _ = run(capsys, "from-h", "--input", str(eps), "--output", str(back))
    assert code == 0 and rep["almost_complex_max"] < 1e-3
    assert run(capsys, "analyze", "--input", str(back), "--tol-scale", "0.5")[0] == 0


@pytest.mark.parametrize("step, code, refusal", [
    ("1000", 2, "certificate failure: path-ordering disagreement "),
    ("1", 2, "certificate failure: second-order equation residual "),
    ("0.3", 3, "input error: grid is not adapted: "),
])
def test_an_aliased_cylinder_is_refused(tmp_path, capsys, step, code, refusal):
    # the cylinder of radius 0.43 sampled at steps it cannot resolve: no
    # tolerance exceeds 0.05 times tol_scale, so the potential fails a
    # certificate, or the surface it integrates to fails its adaptedness
    eps = tmp_path / "eps.csv"
    assert run(capsys, "fixture", "--fixture", "cmc_cylinder", "--nu", "21", "--nv", "21",
               "--du", step, "--dv", step, "--output", str(eps))[0] == 0
    got, rep, err = run(capsys, "from-h", "--input", str(eps),
                        "--output", str(tmp_path / "back.csv"))
    assert (got, rep) == (code, None) and err.startswith(refusal)


TOO_FINE = "certificate failure: grid is too fine to certify: second-difference roundoff "


def tiny_step_run(tmp_path, capsys, name, step):
    """`fixture` `name` at 21^2 and `step`, then the command that reads its
    CSV (`from-h` of a potential, `to-h` of a surface)."""
    csv, out = tmp_path / "in.csv", tmp_path / "out.csv"
    assert run(capsys, "fixture", "--fixture", name, "--nu", "21", "--nv", "21",
               "--du", step, "--dv", step, "--output", str(csv))[0] == 0
    command = "from-h" if name.startswith("cmc") else "to-h"
    return (*run(capsys, command, "--input", str(csv), "--output", str(out)), out)


@pytest.mark.parametrize("name, step", [
    ("cmc_sphere", "1e-7"), ("cmc_cylinder", "1e-7"), ("example1", "1e-8")])
def test_a_grid_too_fine_to_certify_is_refused(tmp_path, capsys, name, step):
    # below a step in arclength of 6.7e-7 the roundoff of a second
    # difference exceeds the cap: the equation residual would pass there
    # while K and H are rounding noise (K_max_dev 0.42 for the sphere)
    code, rep, err, out = tiny_step_run(tmp_path, capsys, name, step)
    assert (code, rep) == (2, None) and not out.exists()
    assert err.startswith(TOO_FINE)


@pytest.mark.parametrize("step", ["1e-7", "1e-8"])
@pytest.mark.parametrize("name", ["example1", "example2"])
def test_analyze_refuses_a_grid_too_fine_to_certify(tmp_path, capsys, name, step):
    # K, h and lambda are second differences, rounding noise at these steps
    # (example2 at 1e-8 would report K_max_dev 34.1 and h_norm_max 0.848,
    # both 0 on its totally geodesic sphere): `analyze` refuses what `to-h`
    # of the same CSV refuses, and writes no report
    csv, report = tmp_path / "in.csv", tmp_path / "report.json"
    assert run(capsys, "fixture", "--fixture", name, "--nu", "21", "--nv", "21",
               "--du", step, "--dv", step, "--output", str(csv))[0] == 0
    code, rep, err = run(capsys, "analyze", "--input", str(csv), "--output", str(report))
    assert (code, rep) == (2, None) and not report.exists()
    assert err.startswith(TOO_FINE)


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_a_valid_grid_at_step_1e6_is_certified(tmp_path, capsys, name):
    # the equation residual's rounding noise, up to 6e-4 of the speed, is
    # inside the tolerance's roundoff term, 1.5e-2
    code, rep, _, out = tiny_step_run(tmp_path, capsys, name, "1e-6")
    assert code == 0 and out.exists()
    assert rep["certificate"]["h_equation_max"] < 1e-3
    # and `analyze` of the surface grid, read or written, accepts it: its
    # roundoff term, at most 0.017, is below the cap
    surface = out if name.startswith("cmc") else tmp_path / "in.csv"
    assert run(capsys, "analyze", "--input", str(surface))[0] == 0
