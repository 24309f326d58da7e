"""Acceptance suite: one test per numbered criterion, each reporting a
single pass/fail line in the terminal summary."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import record_criterion
from nks3 import fixtures, hsystem
from nks3 import frame
from nks3 import nkspace as nk
from nks3 import surface as sf

SQ3 = np.sqrt(3.0)

# grid coefficients are the raw imaginary parts of p^-1 dp and q^-1 dq;
# times this they are the frame coefficients `nkspace` reads
TO_FRAME = np.tile(frame.FLIP, 2)


def _finish(num, title, failures):
    status = "PASS" if not failures else "FAIL"
    record_criterion(f"criterion {num:02d} {status}  {title}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _need(failures, ok, msg):
    if not ok:
        failures.append(msg)


def _order(coarse, fine):
    return float(np.log2(coarse / fine))


@pytest.fixture(scope="module")
def ex1():
    return fixtures.make_fixture("example1")


@pytest.fixture(scope="module")
def ex2():
    return fixtures.make_fixture("example2")


@pytest.fixture(scope="module")
def ex2_half():
    return fixtures.make_fixture("example2", nu=101, nv=101, du=1e-2, dv=1e-2)


@pytest.fixture(scope="module")
def ex2_quarter():
    return fixtures.make_fixture("example2", nu=51, nv=51, du=2e-2, dv=2e-2)


@pytest.fixture(scope="module")
def ex2_potential(ex2):
    return hsystem.epsilon_from_surface(ex2)


@pytest.fixture(scope="module")
def sphere_runs():
    fine_eps = fixtures.make_fixture("cmc_sphere")
    coarse_eps = fixtures.make_fixture(
        "cmc_sphere", nu=101, nv=101, du=1.2e-2, dv=1.2e-2
    )
    fine = hsystem.surface_from_epsilon(fine_eps)
    coarse = hsystem.surface_from_epsilon(coarse_eps)
    return {"fine_eps": fine_eps, "fine": fine, "coarse": coarse}


@pytest.fixture(scope="module")
def cylinder_runs():
    fine_eps = fixtures.make_fixture("cmc_cylinder")
    coarse_eps = fixtures.make_fixture(
        "cmc_cylinder", nu=101, nv=101, du=1.2e-2, dv=1.2e-2
    )
    fine = hsystem.surface_from_epsilon(fine_eps)
    coarse = hsystem.surface_from_epsilon(coarse_eps)
    return {"fine": fine, "coarse": coarse}


def _potential_gram(hs):
    gu = np.gradient(hs.eps, hs.du, axis=0, edge_order=2)
    gv = np.gradient(hs.eps, hs.dv, axis=1, edge_order=2)
    return np.stack(
        [
            np.sum(gu * gu, axis=-1),
            np.sum(gu * gv, axis=-1),
            np.sum(gv * gv, axis=-1),
        ],
        axis=-1,
    )


def test_criterion_01_frame_metric_table():
    failures = []
    rng = np.random.default_rng(42)
    fr = nk.frame(nk.random_point(rng, (100,)))
    worst = max(
        float(np.abs(nk.metric(fr[i], fr[j]) - frame.GRAM[i, j]).max())
        for i in range(6)
        for j in range(6)
    )
    _need(failures, worst < 1e-12, f"frame metric dev {worst:.3e}")
    _finish(1, "frame metric table at 100 random points", failures)


def test_criterion_02_connection_tables():
    failures = []
    expected = np.zeros((6, 6, 6))
    expected[:3, :3, :3] = -2.0 * frame.EPSILON3
    expected[3:, 3:, 3:] = -2.0 * frame.EPSILON3
    bdev = float(np.abs(frame.BRACKET - expected).max())
    _need(failures, bdev < 1e-12, f"bracket table dev {bdev:.3e}")
    torsion = frame.CONN - frame.CONN.transpose(1, 0, 2) - frame.BRACKET
    tdev = float(np.abs(torsion).max())
    _need(failures, tdev < 1e-12, f"torsion dev {tdev:.3e}")
    m = np.einsum("xyk,kz->xyz", frame.CONN, frame.GRAM)
    cdev = float(np.abs(m + m.transpose(0, 2, 1)).max())
    _need(failures, cdev < 1e-12, f"metric compatibility dev {cdev:.3e}")
    _finish(2, "connection torsion-free and metric-compatible", failures)


def test_criterion_03_identity_suite():
    failures = []
    result = nk.verify(samples=1000, seed=42)
    report, ok = result["residual_max"], result["ok"]
    worst_key = max(report, key=report.get)
    worst = report[worst_key]
    _need(failures, ok, "verify flagged identities")
    _need(failures, worst < 1e-10, f"{worst_key} residual {worst:.3e}")
    _finish(3, "structure identity suite on 1000 tangent pairs", failures)


def test_criterion_04_curvature_oracle():
    failures = []
    basis = np.eye(6)
    oracle = nk.curvature_oracle_table()
    worst = max(
        float(
            np.abs(
                nk.curvature_coeff(basis[a], basis[b], basis[c]) - oracle[a, b, c]
            ).max()
        )
        for a in range(6)
        for b in range(6)
        for c in range(6)
    )
    _need(failures, worst < 1e-12, f"closed form vs oracle dev {worst:.3e}")
    _finish(4, "curvature formula equals oracle on 216 triples", failures)


def test_criterion_05_flat_torus_fixture(ex1):
    failures = []
    report = sf.analyze(ex1)
    kdev = abs(report["K_mean"]) + report["K_max_dev"]
    _need(failures, kdev < 1e-6, f"K dev {kdev:.3e}")
    _need(
        failures,
        report["h_norm_max"] < 1e-5,
        f"h norm {report['h_norm_max']:.3e}",
    )
    _need(
        failures,
        report["classification"] == "tangent",
        f"classified {report['classification']!r}",
    )
    fine = fixtures.make_fixture("example1", nu=41, nv=41, du=1e-4, dv=1e-4)
    lam = sf.lambda_field(sf.partials(fine))
    ldev = float(sf.interior(np.abs(lam - (-1.0 / 3.0 + 1j / SQ3))).max())
    _need(failures, ldev < 1e-8, f"lambda dev {ldev:.3e}")
    _finish(5, "flat torus: K = 0, h = 0, tangent, lambda value", failures)


def test_criterion_06_round_sphere_fixture(ex2):
    failures = []
    report = sf.analyze(ex2)
    kdev = abs(report["K_mean"] - 2.0 / 3.0) + report["K_max_dev"]
    _need(failures, kdev < 1e-3, f"K dev {kdev:.3e}")
    _need(
        failures,
        report["h_norm_max"] < 1e-4,
        f"h norm {report['h_norm_max']:.3e}",
    )
    _need(
        failures,
        report["classification"] == "normal",
        f"classified {report['classification']!r}",
    )
    _need(
        failures,
        report["lambda_max_abs"] < 1e-8,
        f"lambda {report['lambda_max_abs']:.3e}",
    )
    _finish(6, "round sphere: K = 2/3, h small, normal, lambda = 0", failures)


def test_criterion_07_potential_of_sphere(ex2_potential, ex2_half, ex2_quarter):
    failures = []
    _, cert_c = hsystem.epsilon_from_surface(ex2_quarter)
    _, cert_h = hsystem.epsilon_from_surface(ex2_half)
    order = _order(cert_c["h_equation_max"], cert_h["h_equation_max"])
    _need(failures, order >= 1.9, f"equation residual order {order:.3f}")
    hs, _ = ex2_potential
    _, radius, fit_dev = hsystem.sphere_fit(hs.eps)
    _need(
        failures,
        abs(radius - SQ3 / 2.0) < 1e-4,
        f"fitted radius {radius:.6f}",
    )
    _need(failures, fit_dev < 1e-4, f"sphere fit dev {fit_dev:.3e}")
    H = hsystem.mean_curvature(hs)
    hdev = float(np.abs(H + 2.0 / SQ3).max())
    _need(failures, hdev < 1e-4, f"mean curvature dev {hdev:.3e}")
    _finish(
        7, "sphere potential: second-order residual, radius, mean curvature",
        failures,
    )


def test_criterion_08_degenerate_potential(ex1):
    failures = []
    hs, _ = hsystem.epsilon_from_surface(ex1)
    gu = np.gradient(hs.eps, hs.du, axis=0, edge_order=2)
    gv = np.gradient(hs.eps, hs.dv, axis=1, edge_order=2)
    svals = np.linalg.svd(np.stack([gu, gv], axis=-2), compute_uv=False)
    lead = float(svals[..., 0].min())
    second = float(svals[..., 1].max())
    _need(failures, lead > 0.5, f"leading singular value {lead:.3e}")
    _need(failures, second < 1e-10, f"second singular value {second:.3e}")
    _finish(8, "flat torus potential degenerates to a line", failures)


def test_criterion_09_surface_from_sphere_potential(sphere_runs):
    failures = []
    out_f, _ = sphere_runs["fine"]
    out_c, _ = sphere_runs["coarse"]
    order = _order(out_c.summary.almost_complex_max, out_f.summary.almost_complex_max)
    _need(failures, order >= 1.9, f"almost complex order {order:.3f}")
    report = sf.analyze(out_f)
    kdev = abs(report["K_mean"] - 2.0 / 3.0) + report["K_max_dev"]
    _need(failures, kdev < 1e-3, f"K dev {kdev:.3e}")
    _need(
        failures,
        report["h_norm_max"] < 1e-3,
        f"h norm {report['h_norm_max']:.3e}",
    )
    mf = hsystem.metric_factor_check(out_f.summary, sphere_runs["fine_eps"])
    ratio_dev = abs(mf["ratio_mean"] - 2.0) + mf["ratio_max_dev"]
    _need(failures, ratio_dev < 1e-4, f"metric ratio dev {ratio_dev:.3e}")
    _finish(9, "surface from sphere potential: order, K, metric factor 2", failures)


def _cylinder_form_checks(grid):
    gp = sf.partials(grid)
    E, F, G = sf.induced_metric(gp.cu, gp.cv)
    base = nk.Point(grid.p, grid.q)
    huu, huv, hvv = (
        nk.from_frame_coords(base, sf.second_fundamental_form(gp, k) * TO_FRAME)
        for k in range(3)
    )
    sq_u = (nk.gnorm(huu) / E) ** 2
    sq_v = (nk.gnorm(hvv) / G) ** 2
    unit_dev = max(
        float(sf.interior(np.abs(sq_u - 1.0 / 3.0)).max()),
        float(sf.interior(np.abs(sq_v - 1.0 / 3.0)).max()),
    )
    # the metric trace (G h_uu - 2F h_uv + E h_vv) / (EG - F^2), twice the
    # mean curvature vector: zero on an almost complex surface
    mean = (1.0 / (E * G - F * F)) * (G * huu - (2.0 * F) * huv + E * hvv)
    trace = float(sf.interior(nk.gnorm(mean)).max())
    j_res = float(
        sf.interior(nk.gnorm(huv - nk.apply_J(huu)) / E).max()
    )
    pu = nk.apply_P(nk.from_frame_coords(base, gp.cu * TO_FRAME))
    scale = E**1.5
    p_res = max(
        float(sf.interior(np.abs(nk.metric(h, pu)) / scale).max())
        for h in (huu, huv, hvv)
    )
    return unit_dev, trace, j_res, p_res


def test_criterion_10_surface_from_cylinder_potential(cylinder_runs):
    failures = []
    out_f, _ = cylinder_runs["fine"]
    out_c, _ = cylinder_runs["coarse"]
    report = sf.analyze(out_f)
    kdev = abs(report["K_mean"]) + report["K_max_dev"]
    _need(failures, kdev < 1e-3, f"K dev {kdev:.3e}")
    ud_f, trace_f, j_f, p_f = _cylinder_form_checks(out_f)
    _, _, j_c, p_c = _cylinder_form_checks(out_c)
    _need(failures, ud_f < 1e-3, f"unit-direction norm dev {ud_f:.3e}")
    _need(failures, trace_f < 1e-4, f"trace norm {trace_f:.3e}")
    j_order = _order(j_c, j_f)
    _need(failures, j_order >= 1.9, f"J-linearity order {j_order:.3f}")
    p_order = _order(p_c, p_f)
    _need(failures, p_order >= 1.9, f"product-structure orthogonality order {p_order:.3f}")
    _finish(
        10, "surface from cylinder potential: K = 0, form norms, identities",
        failures,
    )


def _round_trip_gram_dev(grid):
    hs, _ = hsystem.epsilon_from_surface(grid)
    back, _ = hsystem.surface_from_epsilon(hs)
    hs_back, _ = hsystem.epsilon_from_surface(back)
    sa, sb = hs.overlap(hs_back)
    diff = _potential_gram(hs)[sa] - _potential_gram(hs_back)[sb]
    return float(np.abs(sf.interior(diff)).max())


def test_criterion_11_round_trip(ex2, ex2_half):
    failures = []
    dev_f = _round_trip_gram_dev(ex2)
    dev_c = _round_trip_gram_dev(ex2_half)
    order = _order(dev_c, dev_f)
    _need(failures, order >= 1.9, f"gram agreement order {order:.3f}")
    _need(failures, dev_f < 1e-3, f"fine gram dev {dev_f:.3e}")
    _finish(11, "round trip preserves the potential gram matrix", failures)


def test_criterion_12_isometry_equivariance(ex2_half):
    failures = []
    rng = np.random.default_rng(42)
    iso = nk.random_isometry(rng)
    moved = iso.apply_point(nk.Point(ex2_half.p, ex2_half.q))
    grid_iso = sf.immersion_grid(ex2_half, moved.p, moved.q)
    hs_a, _ = hsystem.epsilon_from_surface(ex2_half)
    hs_b, _ = hsystem.epsilon_from_surface(grid_iso)
    dev = float(np.abs(_potential_gram(hs_a) - _potential_gram(hs_b)).max())
    _need(failures, dev < 1e-10, f"gram dev under isometry {dev:.3e}")
    _finish(12, "isometry before the potential map is a rigid motion", failures)


def test_criterion_13_cauchy_riemann(
    ex1, ex2_half, ex2_quarter, sphere_runs, cylinder_runs
):
    failures = []

    def cr_of(grid):
        gp = sf.partials(grid)
        return sf.cr_residuals(gp, *sf.extract_coefficients(gp.cu, gp.cv))

    ex1_coarse = fixtures.make_fixture("example1", nu=51, nv=51, du=2e-2, dv=2e-2)
    exact = max(cr_of(ex1_coarse), cr_of(ex1))
    _need(failures, exact < 1e-10, f"flat torus residual {exact:.3e}")
    halved = {
        "round sphere": (cr_of(ex2_quarter), cr_of(ex2_half)),
        "sphere potential surface": (
            cr_of(sphere_runs["coarse"][0]),
            cr_of(sphere_runs["fine"][0]),
        ),
        "cylinder potential surface": (
            cr_of(cylinder_runs["coarse"][0]),
            cr_of(cylinder_runs["fine"][0]),
        ),
    }
    for name, (coarse, fine) in halved.items():
        order = _order(coarse, fine)
        _need(failures, order >= 1.9, f"{name} order {order:.3f}")
    _finish(13, "coefficient Cauchy-Riemann residuals vanish at second order", failures)
