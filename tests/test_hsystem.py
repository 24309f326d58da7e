import dataclasses

import numpy as np
import pytest

from nks3 import fixtures, hsystem as hsys, quat
from nks3 import surface as sf
from nks3.nkspace import SQRT3


def sphere_hs(n=31, h=6e-3):
    return fixtures.cmc_sphere_epsilon(
        fixtures.default_spec("cmc_sphere", nu=n, nv=n, du=h, dv=h)
    )


def test_h_surface_grid_validation():
    hs = sphere_hs(15)
    assert hs.nu == hs.nv == 15
    with pytest.raises(ValueError):
        hsys.h_surface_grid(0, 0, 1e-2, 1e-2, hs.eps[..., :2])
    with pytest.raises(ValueError):
        hsys.h_surface_grid(0, 0, 1e-2, 1e-2, hs.eps[:3])
    with pytest.raises(ValueError):
        hsys.h_surface_grid(0, 0, 0.0, 1e-2, hs.eps)
    with pytest.raises(ValueError, match="vanish"):
        hsys.h_surface_grid(0, 0, 1e-2, 1e-2, np.zeros((9, 9, 3)))


def test_h_surface_grid_rejects_non_finite():
    hs = sphere_hs(15)
    eps = hs.eps.copy()
    eps[7, 7, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        hsys.h_surface_grid(hs.u0, hs.v0, hs.du, hs.dv, eps)
    for step in (np.nan, np.inf):
        with pytest.raises(ValueError, match="steps"):
            hsys.h_surface_grid(hs.u0, hs.v0, step, hs.dv, hs.eps)


def test_from_potential_nan_cell_fails_equation_gate():
    # built directly, so the constructor's finiteness check is bypassed
    hs = sphere_hs(15)
    eps = hs.eps.copy()
    eps[7, 7, 0] = np.nan
    with pytest.raises(hsys.CertificateError, match="not a solution"):
        hsys.surface_from_epsilon(hsys.HSurfaceGrid(**hs.window(), eps=eps))


def test_equation_residual_line_is_zero():
    # a straight line traversed affinely: laplacian and cross product vanish
    u = np.arange(11) * 0.1
    v = np.arange(11) * 0.1
    eps = (u[:, None] + 2.0 * v[None, :])[..., None] * np.array([1.0, 2.0, 2.0])
    hs = hsys.HSurfaceGrid(0.0, 0.0, 0.1, 0.1, 11, 11, eps)
    assert sf.interior(hsys.h_equation_residual(hs)).max() < 1e-11


def test_equation_residual_flags_plane():
    u = np.arange(11) * 0.1
    v = np.arange(11) * 0.1
    eps = np.zeros((11, 11, 3))
    eps[..., 0] = u[:, None]
    eps[..., 1] = v[None, :]
    hs = hsys.HSurfaceGrid(0.0, 0.0, 0.1, 0.1, 11, 11, eps)
    res = sf.interior(hsys.h_equation_residual(hs))
    assert np.abs(res - 4.0 / SQRT3).max() < 1e-9


def test_equation_residual_halving_on_sphere():
    r1 = sf.interior(hsys.h_equation_residual(sphere_hs(15, 8e-3))).max()
    r2 = sf.interior(hsys.h_equation_residual(sphere_hs(15, 4e-3))).max()
    assert r1 / r2 > 3.6


def test_to_potential_example2():
    grid = fixtures.example2_grid(fixtures.default_spec("example2", nu=41, nv=41))
    hs, cert = hsys.epsilon_from_surface(grid)
    # window shrinks one cell per side
    assert hs.nu == grid.nu - 2 and hs.nv == grid.nv - 2
    assert abs(hs.u0 - (grid.u0 + grid.du)) < 1e-15
    assert cert["loop_max"] < 1e-5
    assert cert["h_equation_max"] < 1e-4
    # the potential lands on the sphere of radius sqrt3/2 (up to translation)
    c, radius, dev = hsys.sphere_fit(hs.eps)
    assert abs(radius - SQRT3 / 2.0) < 1e-3
    assert dev < 1e-3


def test_to_potential_example1_degenerate_line():
    grid = fixtures.example1_grid(fixtures.default_spec("example1", nu=21, nv=21))
    hs, cert = hsys.epsilon_from_surface(grid)
    assert cert["loop_max"] < 1e-12
    assert cert["h_equation_max"] < 1e-9
    cloud = hs.eps.reshape(-1, 3)
    sing = np.linalg.svd(cloud - cloud.mean(0), compute_uv=False)
    assert sing[0] > 1e-3 and sing[1] < 1e-12 and sing[2] < 1e-12


def test_to_potential_certificate_failure():
    # a coefficient pair that is not closed: alpha depends on v only
    grid = fixtures.example1_grid(fixtures.default_spec("example1", nu=15, nv=15))
    cf = sf.extract_coefficients(grid)
    v = grid.v_vals[None, :, None] * np.ones((grid.nu, 1, 3))
    bad = sf.CoefficientFields(
        cf.alpha_t, cf.beta_t, cf.gamma_t, cf.delta_t,
        np.stack([np.ones_like(v[..., 0]) + 5.0 * v[..., 0]] * 3, axis=-1),
        np.zeros_like(cf.beta), cf.theta, cf.real_part_max,
    )
    with pytest.raises(hsys.CertificateError, match="not closed"):
        hsys.epsilon_from_surface(grid, cf=bad)


def test_to_potential_nan_coefficients_fail_closedness_gate():
    grid = fixtures.example1_grid(fixtures.default_spec("example1", nu=15, nv=15))
    cf = sf.extract_coefficients(grid)
    alpha = cf.alpha.copy()
    alpha[7, 7, 0] = np.nan
    with pytest.raises(hsys.CertificateError, match="not closed"):
        hsys.epsilon_from_surface(grid, cf=dataclasses.replace(cf, alpha=alpha))


def test_integrators_reject_tiny_grids():
    grid = fixtures.example1_grid(
        fixtures.default_spec("example1", nu=5, nv=5)
    )
    with pytest.raises(ValueError, match="7x7"):
        hsys.epsilon_from_surface(grid)
    hs = sphere_hs(15)
    small = hsys.HSurfaceGrid(0, 0, hs.du, hs.dv, 5, 5, hs.eps[:5, :5])
    with pytest.raises(ValueError, match="7x7"):
        hsys.surface_from_epsilon(small)


def test_from_potential_sphere():
    hs = sphere_hs(41)
    grid, cert = hsys.surface_from_epsilon(hs)
    assert grid.nu == hs.nu - 2 and grid.nv == hs.nv - 2
    assert abs(grid.u0 - (hs.u0 + hs.du)) < 1e-15
    assert cert["compat_max"] < 1e-4
    assert cert["drift_max"] < 1e-12
    assert cert["almost_complex_max"] < 1e-4
    K = sf.interior(sf.gaussian_curvature(sf.partials(grid)))
    assert np.abs(K - 2.0 / 3.0).max() < 1e-3
    assert sf.classify_P_alignment(grid) == "normal"


def test_from_potential_initial_point():
    rng = np.random.default_rng(11)
    p0 = quat.random_unit(rng)
    q0 = quat.random_unit(rng)
    hs = sphere_hs(15)
    grid, _ = hsys.surface_from_epsilon(hs, p0=p0, q0=q0)
    assert np.abs(grid.p[0, 0] - p0).max() < 1e-14
    assert np.abs(grid.q[0, 0] - q0).max() < 1e-14


def test_from_potential_rejects_plane():
    u = np.arange(15) * 0.05
    eps = np.zeros((15, 15, 3))
    eps[..., 0] = u[:, None]
    eps[..., 1] = u[None, :]
    hs = hsys.HSurfaceGrid(0.0, 0.0, 0.05, 0.05, 15, 15, eps)
    with pytest.raises(hsys.CertificateError, match="not a solution"):
        hsys.surface_from_epsilon(hs)


def test_mean_curvature_values():
    H_s = sf.interior(hsys.mean_curvature(sphere_hs(31)))
    assert np.abs(H_s + 2.0 / SQRT3).max() < 1e-4
    cyl = fixtures.cmc_cylinder_epsilon(
        fixtures.default_spec("cmc_cylinder", nu=31, nv=31)
    )
    H_c = sf.interior(hsys.mean_curvature(cyl))
    assert np.abs(H_c + 2.0 / SQRT3).max() < 1e-4


def test_mean_curvature_requires_conformal():
    hs = sphere_hs(15)
    stretched = hsys.HSurfaceGrid(
        **hs.window(), eps=hs.eps * np.array([1.0, 1.0, 3.0])
    )
    with pytest.raises(ValueError, match="conformal"):
        hsys.mean_curvature(stretched)


def test_mean_curvature_rejects_nan_cell():
    hs = sphere_hs(15)
    eps = hs.eps.copy()
    eps[7, 7, 0] = np.nan
    bad = hsys.HSurfaceGrid(**hs.window(), eps=eps)
    with pytest.raises(ValueError, match="conformal"):
        hsys.mean_curvature(bad)


def test_sphere_fit_exact():
    rng = np.random.default_rng(4)
    center = np.array([0.3, -1.2, 0.7])
    d = rng.standard_normal((200, 3))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    pts = center + 1.75 * d
    c, r, dev = hsys.sphere_fit(pts)
    assert np.abs(c - center).max() < 1e-12
    assert abs(r - 1.75) < 1e-12
    assert dev < 1e-12
    # a partial cap (no symmetry about the center) still fits exactly
    cap = center + 1.75 * d[d[:, 2] > 0.5]
    c2, r2, dev2 = hsys.sphere_fit(cap)
    assert abs(r2 - 1.75) < 1e-9 and dev2 < 1e-9


def test_window_overlap():
    a = sf.lattice(0.0, 0.0, 1e-2, 1e-2, 10, 10)
    sa, sb = a.overlap(sf.lattice(0.02, 0.02, 1e-2, 1e-2, 8, 8))
    assert sa == (slice(2, 10), slice(2, 10))
    assert sb == (slice(0, 8), slice(0, 8))
    with pytest.raises(ValueError, match="lattice"):
        a.overlap(sf.lattice(0.005, 0.0, 1e-2, 1e-2, 8, 8))
    with pytest.raises(ValueError, match="overlap"):
        a.overlap(sf.lattice(1.0, 0.0, 1e-2, 1e-2, 8, 8))
    with pytest.raises(ValueError, match="steps differ"):
        a.overlap(sf.lattice(0.0, 0.0, 1e-2, 2e-2, 8, 8))


def test_metric_factor_example2_round_trip():
    grid = fixtures.example2_grid(fixtures.default_spec("example2", nu=41, nv=41))
    hs, _ = hsys.epsilon_from_surface(grid)
    out = hsys.metric_factor_check(grid, hs)
    assert out["status"] == "ok"
    assert abs(out["ratio_mean"] - 2.0) < 1e-3
    assert out["ratio_max_dev"] < 1e-3


def test_metric_factor_rejects_step_mismatch():
    grid = fixtures.example1_grid(fixtures.default_spec("example1", nu=15, nv=15))
    hs = sphere_hs(15)  # step 6e-3 against the surface's 1e-2
    with pytest.raises(ValueError, match="steps differ"):
        hsys.metric_factor_check(grid, hs)


def test_metric_factor_not_applicable_example1():
    grid = fixtures.example1_grid(fixtures.default_spec("example1", nu=15, nv=15))
    hs, _ = hsys.epsilon_from_surface(grid)
    out = hsys.metric_factor_check(grid, hs)
    assert out["status"] == "not_applicable"
    assert out["lambda_max_abs"] > 0.5


def test_to_potential_refuses_non_adapted_grid():
    grid = fixtures.non_adapted_grid(
        fixtures.default_spec("example1", nu=41, nv=41, du=0.025, dv=0.025)
    )
    with pytest.raises(ValueError, match="not adapted"):
        hsys.epsilon_from_surface(grid)
    adapted = fixtures.example1_grid(fixtures.default_spec("example1", nu=15, nv=15))
    _, cert = hsys.epsilon_from_surface(adapted)
    assert cert["almost_complex_max"] < 2e-5


@pytest.mark.parametrize("tol_scale", [np.nan, np.inf, 0.0, -1.0])
def test_epsilon_from_surface_rejects_bad_tol_scale(tol_scale):
    grid = fixtures.example1_grid(fixtures.default_spec("example1", nu=15, nv=15))
    with pytest.raises(ValueError, match="tol_scale"):
        hsys.epsilon_from_surface(grid, tol_scale=tol_scale)


@pytest.mark.parametrize("tol_scale", [np.nan, np.inf, 0.0, -1.0])
def test_surface_from_epsilon_rejects_bad_tol_scale(tol_scale):
    with pytest.raises(ValueError, match="tol_scale"):
        hsys.surface_from_epsilon(sphere_hs(15), tol_scale=tol_scale)


def _chain_end(n, a, b):
    """End value of p' = p * (a + b t) on [0, 1], p(0) = 1, after n steps."""
    t = np.linspace(0.0, 1.0, n + 1)[:, None]
    return hsys._integrate_chain(quat.ONE, a + b * t, 1.0 / n, axis=0)[-1]


def test_chain_step_converges_at_fourth_order():
    # a and b are not parallel, so the coefficient values do not commute
    # and the commutator term of the step decides the order
    a = np.array([0.3, -0.7, 0.5])
    b = np.array([1.1, 0.4, -0.9])
    ref = _chain_end(8192, a, b)
    errs = [np.abs(_chain_end(n, a, b) - ref).max() for n in (16, 32, 64)]
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    assert min(ratios) >= 12.0, ratios
    assert abs(quat.norm(ref) - 1.0) < 1e-13


def test_drift_stays_at_roundoff_on_long_strip():
    # the longest chain the benchmark integrates: 4001 rows of a cylinder strip
    hs = fixtures.cmc_cylinder_epsilon(
        fixtures.default_spec("cmc_cylinder", nu=4001, nv=11, du=6e-3, dv=6e-3)
    )
    _, cert = hsys.surface_from_epsilon(hs)
    assert cert["drift_max"] < 1e-12
