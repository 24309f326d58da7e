import numpy as np
import pytest

from nks3 import cli, fixtures, hsystem, quat
from nks3 import surface as sf
from nks3.nkspace import SQRT3


def test_default_specs():
    s1 = fixtures.default_spec("example1")
    assert (s1.nu, s1.nv, s1.du, s1.u0) == (101, 101, 1e-2, 0.0)
    s2 = fixtures.default_spec("example2")
    assert (s2.nu, s2.nv) == (201, 201)
    # centered window: conformal coordinate symmetric about the equator
    assert abs(s2.u0 + s2.u_vals[-1]) < 1e-12
    with pytest.raises(ValueError):
        fixtures.default_spec("nosuch")
    s3 = fixtures.default_spec("cmc_sphere", nu=31, nv=31, du=1e-3, dv=1e-3)
    assert s3.nu == 31 and s3.du == 1e-3


def test_example1_matches_closed_form():
    spec = fixtures.default_spec("example1", nu=11, nv=11)
    grid = fixtures.example1_grid(spec)
    u, v = 5 * spec.du, 7 * spec.dv
    s, t = u - v / SQRT3, -2.0 * v / SQRT3
    assert np.abs(grid.p[5, 7] - [np.cos(s), np.sin(s), 0, 0]).max() < 1e-15
    assert np.abs(grid.q[5, 7] - [np.cos(t), np.sin(t), 0, 0]).max() < 1e-15


def test_example1_is_adapted_and_flat():
    grid = fixtures.example1_grid(fixtures.default_spec("example1", nu=21, nv=21))
    gp = sf.partials(grid)
    assert sf.interior(sf.almost_complex_residual(gp)).max() < 2e-5
    assert np.abs(sf.interior(sf.gaussian_curvature(gp))).max() < 1e-8


def test_example2_on_sphere_product():
    grid = fixtures.example2_grid(fixtures.default_spec("example2", nu=21, nv=21))
    # real parts are 1/2, imaginary parts opposite and of norm sqrt3/2
    assert np.abs(grid.p[..., 0] - 0.5).max() < 1e-15
    assert np.abs(grid.q[..., 0] - 0.5).max() < 1e-15
    assert np.abs(grid.p[..., 1:] + grid.q[..., 1:]).max() < 1e-15
    norms = np.linalg.norm(grid.p[..., 1:], axis=-1)
    assert np.abs(norms - SQRT3 / 2.0).max() < 1e-14
    gp = sf.partials(grid)
    assert sf.interior(sf.almost_complex_residual(gp)).max() < 1e-4
    K = sf.interior(sf.gaussian_curvature(gp))
    assert np.abs(K - 2.0 / 3.0).max() < 1e-4


def test_example2_pole_margin_gate():
    with pytest.raises(ValueError, match="pole margin"):
        fixtures.example2_grid(
            fixtures.FixtureSpec(0.0, 0.0, 0.1, 0.1, 31, 31, "example2")
        )


def test_cmc_sphere_solves_equation():
    spec = fixtures.default_spec("cmc_sphere", nu=31, nv=31)
    hs = fixtures.cmc_sphere_epsilon(spec)
    assert sf.interior(hsystem.h_equation_residual(hs)).max() < 5e-5
    r = np.linalg.norm(hs.eps, axis=-1)
    assert np.abs(r - fixtures.SPHERE_RADIUS).max() < 1e-14


def test_cmc_cylinder_solves_equation():
    spec = fixtures.default_spec("cmc_cylinder", nu=31, nv=31)
    hs = fixtures.cmc_cylinder_epsilon(spec)
    assert sf.interior(hsystem.h_equation_residual(hs)).max() < 5e-5
    r = np.linalg.norm(hs.eps[..., :2], axis=-1)
    assert np.abs(r - fixtures.CYLINDER_RADIUS).max() < 1e-14


def test_orientation_pick_rejects_mirror():
    # swapping the roles of u and v flips the sign of eps_u x eps_v, so only
    # one orientation can satisfy the signed quadratic equation
    spec = fixtures.default_spec("cmc_sphere", nu=15, nv=15)
    hs = fixtures.cmc_sphere_epsilon(spec)
    swapped = hsystem.HSurfaceGrid(
        **spec.window(), eps=np.swapaxes(hs.eps, 0, 1)
    )
    good = sf.interior(hsystem.h_equation_residual(hs)).max()
    bad = sf.interior(hsystem.h_equation_residual(swapped)).max()
    assert bad > 1e3 * max(good, 1e-12)


def test_non_adapted_control():
    grid = fixtures.non_adapted_grid(
        fixtures.default_spec("example1", nu=15, nv=15, du=5e-2, dv=5e-2)
    )
    res = sf.interior(sf.almost_complex_residual(sf.partials(grid)))
    assert res.max() > 0.3


def test_make_fixture_dispatch():
    for name in fixtures.FIXTURE_NAMES:
        spec = fixtures.default_spec(name, nu=15, nv=15)
        obj = fixtures.make_fixture(spec)
        if name.startswith("cmc_"):
            assert isinstance(obj, hsystem.HSurfaceGrid)
        else:
            assert isinstance(obj, sf.ImmersionGrid)
        assert obj.nu == obj.nv == 15
    with pytest.raises(ValueError):
        fixtures.make_fixture(
            fixtures.FixtureSpec(0, 0, 1e-2, 1e-2, 15, 15, "bogus")
        )


def test_grids_are_unit_quaternions():
    for name in ("example1", "example2"):
        grid = fixtures.make_fixture(fixtures.default_spec(name, nu=15, nv=15))
        assert np.abs(quat.norm(grid.p) - 1.0).max() < 1e-12
        assert np.abs(quat.norm(grid.q) - 1.0).max() < 1e-12


def test_cmc_sphere_wide_window_hits_pole_margin(tmp_path):
    # the mirrored orientation would fit this window but does not solve the
    # equation; the fixture must refuse instead
    spec = fixtures.default_spec("cmc_sphere", nu=15, nv=61, du=0.1, dv=0.1)
    with pytest.raises(ValueError, match="pole margin"):
        fixtures.cmc_sphere_epsilon(spec)
    out = tmp_path / "s.csv"
    code = cli.main(["--command", "fixture", "--fixture", "cmc_sphere",
                     "--nu", "201", "--nv", "801", "--output", str(out)])
    assert code == 3 and not out.exists()


@pytest.mark.parametrize("name", ["cmc_cylinder", "cmc_sphere"])
@pytest.mark.parametrize("step", ["inf", "nan", "0", "-1"])
def test_fixture_rejects_bad_step(tmp_path, name, step):
    with pytest.raises(ValueError, match="steps must be finite and positive"):
        fixtures.default_spec(name, nu=9, nv=9, du=float(step))
    out = tmp_path / "x.csv"
    code = cli.main(["--command", "fixture", "--fixture", name, "--nu", "9",
                     "--nv", "9", "--du", step, "--output", str(out)])
    assert code == 3 and not out.exists()
