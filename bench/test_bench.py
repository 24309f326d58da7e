"""Negative controls for the benchmark: each output check passes on a correct
output and fires on a perturbed one, and the run accounting counts failed
commands, open gates and changed bytes.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import checks
import run
from checks import all_ok
from layers import audit_ok, self_times

H = 5e-3


def copy(grid):
    return checks.Grid(grid.u.copy(), grid.v.copy(), grid.payload.copy())


def test_csv_round_trip_in_any_row_order(tmp_path):
    grid = checks.example2_closed_form(9, 7, H, H)
    path = tmp_path / "g.csv"
    checks.write_grid(path, checks.IMMERSION_HEADER, grid)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], *reversed(lines[1:])]) + "\n")
    back = checks.read_grid(path, checks.IMMERSION_HEADER)
    assert np.array_equal(back.payload, grid.payload)
    with pytest.raises(ValueError):
        checks.read_grid(path, checks.EPSILON_HEADER)


@pytest.mark.parametrize(
    "closed_form", [checks.example2_closed_form, checks.cylinder_closed_form]
)
def test_fixture_closed_form(closed_form):
    want = closed_form(21, 11, 6e-3, 6e-3)
    got = copy(want)
    assert all_ok(checks.check_closed_form(got, want))
    got.payload[3, 4, 1] += 1e-9
    assert not all_ok(checks.check_closed_form(got, want))
    shifted = copy(want)
    shifted.u += 1e-9
    assert not all_ok(checks.check_closed_form(shifted, want))


GOOD_REPORT = {
    "K_mean": 2.0 / 3.0 + 3e-6,
    "lambda_max_abs": 1e-11,
    "h_norm_max": 4e-5,
    "classification": "normal",
}


def test_round_sphere_report():
    assert all_ok(checks.check_round_sphere_report(GOOD_REPORT, H))
    for key, bad in [
        ("K_mean", 2.0 / 3.0 + 1e-3),
        ("lambda_max_abs", 1e-3),
        ("h_norm_max", 1e-3),
        ("classification", "mixed"),
    ]:
        assert not all_ok(checks.check_round_sphere_report({**GOOD_REPORT, key: bad}, H))
    missing = dict(GOOD_REPORT)
    del missing["K_mean"]
    assert not all_ok(checks.check_round_sphere_report(missing, H))


def sphere_potential(radius, scale_z=1.0):
    """A conformally parametrized sphere, rotated and translated."""
    u = checks.axis(-0.5, H, 101)[:, None]
    v = checks.axis(0.0, H, 101)[None, :]
    sech = 1.0 / np.cosh(u)
    pts = radius * np.stack(
        np.broadcast_arrays(sech * np.cos(v), sech * np.sin(v), scale_z * np.tanh(u)), axis=-1
    )
    return checks.Grid(u[:, 0], v[0], checks.apply_motion(checks.cylinder_motion(5), pts))


def test_sphere_potential():
    assert all_ok(checks.check_sphere_potential(sphere_potential(checks.SPHERE_RADIUS), H))
    assert not all_ok(checks.check_sphere_potential(sphere_potential(1.001 * checks.SPHERE_RADIUS), H))
    squashed = sphere_potential(checks.SPHERE_RADIUS, scale_z=0.99)
    assert not checks.check_sphere_potential(squashed, H)["fit_max_dev"]["ok"]


def moved_sphere():
    grid = checks.example2_closed_form(41, 41, H, H)
    p, q = checks.apply_isometry(checks.sphere_isometry(9), grid.payload[..., :4], grid.payload[..., 4:])
    return checks.Grid(grid.u, grid.v, np.concatenate([p, q], axis=-1))


def translated(grid, lp, lq, right=False):
    """The grid shrunk by two cells, with each factor translated by lp, lq."""
    sub = grid.payload[2:-2, 2:-2]
    p, q = sub[..., :4], sub[..., 4:]
    p, q = (checks.qmul(p, lp), checks.qmul(q, lq)) if right else (checks.qmul(lp, p), checks.qmul(lq, q))
    return checks.Grid(grid.u[2:-2], grid.v[2:-2], np.concatenate([p, q], axis=-1))


def test_left_translation_round_trip():
    want = moved_sphere()
    rng = np.random.default_rng(4)
    lp, lq = checks.random_unit(rng), checks.random_unit(rng)
    assert all_ok(checks.check_left_translate(translated(want, lp, lq), want, H))
    # the log-derivative data fix a surface only up to left translation
    assert not all_ok(checks.check_left_translate(translated(want, lp, lq, right=True), want, H))
    bumped = translated(want, lp, lq)
    bumped.payload[10, 10, 5] += 1e-3
    assert not all_ok(checks.check_left_translate(bumped, want, H))
    outside = translated(want, lp, lq)
    outside.u = outside.u - 3 * H
    assert not all_ok(checks.check_left_translate(outside, want, H))


def test_arclength_potential():
    h = 6e-3
    cyl = checks.cylinder_closed_form(301, 11, h, h)
    moved = checks.Grid(cyl.u, cyl.v, checks.apply_motion(checks.cylinder_motion(2), cyl.payload))
    assert all_ok(checks.check_arclength(moved, h))
    stretched = checks.Grid(cyl.u, cyl.v, cyl.payload.copy())
    stretched.payload[..., 2] *= 1.001
    assert not checks.check_arclength(stretched, h)["G_dev"]["ok"]
    sheared = checks.Grid(cyl.u, cyl.v, cyl.payload.copy())
    sheared.payload[..., 2] += 1e-2 * cyl.u[:, None]
    assert not all_ok(checks.check_arclength(sheared, h))


def identity_report(**overrides):
    report = {
        "ok": True,
        "flagged": [],
        "config": {"samples": 100, "seed": 7},
        "residual_max": {k: 0.1 * v for k, v in checks.IDENTITY_LIMITS.items()},
    }
    report.update(overrides)
    return report


def test_identity_report():
    assert all_ok(checks.check_identity_report(identity_report(), 100, 7))
    assert not all_ok(checks.check_identity_report(identity_report(ok=False), 100, 7))
    assert not all_ok(checks.check_identity_report(identity_report(flagged=["j_squared"]), 100, 7))
    assert not all_ok(checks.check_identity_report(identity_report(), 100, 8))
    over = identity_report()
    over["residual_max"]["torsion_free"] = 2e-12
    assert not all_ok(checks.check_identity_report(over, 100, 7))
    missing = identity_report()
    del missing["residual_max"]["curvature_vs_oracle"]
    assert not all_ok(checks.check_identity_report(missing, 100, 7))


def test_seeded_transforms():
    for a, b in zip(checks.sphere_isometry(3), checks.sphere_isometry(3)):
        assert np.array_equal(a, b)
    assert not np.array_equal(checks.sphere_isometry(3)[0], checks.sphere_isometry(4)[0])
    rot, _ = checks.cylinder_motion(3)
    assert np.allclose(rot @ rot.T, np.eye(3)) and np.isclose(np.linalg.det(rot), 1.0)
    p, q = checks.apply_isometry(checks.sphere_isometry(3), *np.split(moved_sphere().payload, 2, axis=-1))
    assert np.allclose(np.linalg.norm(p, axis=-1), 1.0) and np.allclose(np.linalg.norm(q, axis=-1), 1.0)


def span(name, start, end, parent):
    return [name, start, end, parent]


def test_span_audit():
    good = [
        span("cli.main", 0.0, 10.0, -1),
        span("surface.analyze", 1.0, 6.0, 0),
        span("nkspace.metric", 2.0, 3.0, 1),
        span("nkspace.metric", 3.5, 4.0, 1),
        span("io.write_immersion_csv", 7.0, 9.0, 0),
    ]
    aggregate, audit = self_times(good)
    assert audit_ok(audit)
    assert aggregate["nkspace.metric"] == [2, 1.5]
    assert aggregate["surface.analyze"] == [1, 3.5]
    assert aggregate["cli.main"] == [1, 3.0]
    bad_cases = [
        # a child outlives its parent
        good[:2] + [span("nkspace.metric", 2.0, 7.0, 1)],
        # siblings overlap, so their time would count twice
        good[:3] + [span("nkspace.metric", 2.5, 4.0, 1)],
        # a second root
        good + [span("cli.main", 11.0, 12.0, -1)],
        # the root is not cli.main
        [span("surface.analyze", 0.0, 1.0, -1)],
    ]
    for spans in bad_cases:
        assert not audit_ok(self_times(spans)[1])


def verify_round(samples):
    def body(s):
        s.command("verify", ["--command", "verify", "--samples", str(samples), "--output", "v.json"], ["v.json"])
    return body


@pytest.fixture
def state(tmp_path):
    if not (run.SRC / "nks3" / "cli.py").is_file():
        pytest.skip("needs the nks3 sources")
    return lambda ops: run.RunState(tmp_path, ops)


def test_failed_command_fails_the_rest_of_its_round(state):
    s = state(3)

    def body(s):
        s.command("verify", ["--command", "verify", "--samples", "20"])
        s.command("analyze", ["--command", "analyze", "--input", "missing.csv"])
        s.command("to_h", ["--command", "to-h", "--input", "missing.csv", "--output", "e.csv"])

    s.run_round(body, traced=False)
    assert (s.attempted, s.failed) == (3, 2)
    assert "aborted" in s.rounds[0]


def test_probe_counts_as_failed_while_the_gate_is_open(state):
    s = state(2)
    (s.workdir / "probe.csv").write_text("u,v,x,y,z\n")

    def body(s):
        s.probe("refused", ["--command", "analyze", "--input", "probe.csv"])
        s.probe("accepted", ["--command", "verify", "--samples", "20"])

    s.run_round(body, traced=False)
    assert (s.attempted, s.failed) == (2, 1)
    assert s.rounds[0]["probes"] == {"refused": 3, "accepted": 0}


def test_changed_bytes_and_traced_rounds(state):
    s = state(1)
    s.run_round(verify_round(20), traced=False)
    s.run_round(verify_round(20), traced=True)
    assert s.correct() and not s.mismatches
    assert s.calls()[0]["nkspace.identity_report"] == 1
    s.run_round(verify_round(21), traced=False)
    assert s.mismatches and not s.correct()
    assert json.loads((s.workdir / "v.json").read_text())["config"]["samples"] == 21
