import numpy as np
import pytest

from nks3 import cli, fixtures, hsystem, quat
from nks3 import surface as sf
from nks3.frame import SQRT3


def test_default_specs():
    g1 = fixtures.make_fixture("example1")
    assert (g1.nu, g1.nv, g1.du, g1.u0) == (101, 101, 1e-2, 0.0)
    g2 = fixtures.make_fixture("example2")
    assert (g2.nu, g2.nv) == (201, 201)
    # centered window: conformal coordinate symmetric about the equator
    assert abs(g2.u0 + g2.u_vals[-1]) < 1e-12
    with pytest.raises(ValueError, match="unknown fixture 'nosuch', expected one of"):
        fixtures.make_fixture("nosuch")
    g3 = fixtures.make_fixture("cmc_sphere", nu=31, nv=31, du=1e-3, dv=1e-3)
    assert g3.nu == 31 and g3.du == 1e-3
    # only the given counts and steps override the default window
    g4 = fixtures.make_fixture("cmc_cylinder", nv=21, du=4e-3)
    assert g4.window() == {
        "u0": 0.0, "v0": -0.06, "du": 4e-3, "dv": 6e-3, "nu": 201, "nv": 21,
    }


def test_example1_matches_closed_form():
    grid = fixtures.make_fixture("example1", nu=11, nv=11)
    u, v = 5 * grid.du, 7 * grid.dv
    s, t = u - v / SQRT3, -2.0 * v / SQRT3
    assert np.abs(grid.p[5, 7] - [np.cos(s), np.sin(s), 0, 0]).max() < 1e-15
    assert np.abs(grid.q[5, 7] - [np.cos(t), np.sin(t), 0, 0]).max() < 1e-15


def test_example1_is_adapted_and_flat():
    grid = fixtures.make_fixture("example1", nu=21, nv=21)
    gp = sf.partials(grid)
    assert sf.almost_complex_residual(gp).max() < 2e-5
    assert np.abs(sf.interior(sf.gaussian_curvature(gp, *gp.first_form))).max() < 1e-8


def test_example2_on_sphere_product():
    grid = fixtures.make_fixture("example2", nu=21, nv=21)
    # real parts are 1/2, imaginary parts opposite and of norm sqrt3/2
    assert np.abs(grid.p[..., 0] - 0.5).max() < 1e-15
    assert np.abs(grid.q[..., 0] - 0.5).max() < 1e-15
    assert np.abs(grid.p[..., 1:] + grid.q[..., 1:]).max() < 1e-15
    norms = np.linalg.norm(grid.p[..., 1:], axis=-1)
    assert np.abs(norms - SQRT3 / 2.0).max() < 1e-14
    gp = sf.partials(grid)
    assert sf.almost_complex_residual(gp).max() < 1e-4
    K = sf.interior(sf.gaussian_curvature(gp, *gp.first_form))
    assert np.abs(K - 2.0 / 3.0).max() < 1e-4


# both sphere fixtures refuse a window that reaches the margin in one message
POLE_MESSAGE = "window reaches a conformal factor 0.037, below the pole margin 0.2"


def test_example2_pole_margin_gate():
    # the centred u window [-4, 4] reaches sech(4) = 0.037
    with pytest.raises(ValueError, match=POLE_MESSAGE):
        fixtures.make_fixture("example2", nu=81, du=0.1)
    fixtures.make_fixture("example2", nu=41, du=0.1)


def test_sech_keeps_its_bits_inside_the_margin_and_stays_finite_past_it():
    # |x| is clamped only where cosh would overflow, far past the margin
    x = np.linspace(-2.29, 2.29, 4581)
    assert np.array_equal(fixtures._sech(x), 1.0 / np.cosh(x))
    with pytest.raises(ValueError, match=r"conformal factor 0\.000, below"):
        fixtures._sech(np.array([0.0, 710.0, 1e300]))


def equation_residual(hs):
    """The interior `h_equation_residual` of a whole potential grid."""
    return sf.interior(hsystem.h_equation_residual(*hs.partials(), hs.laplacian()))


def test_cmc_sphere_solves_equation():
    hs = fixtures.make_fixture("cmc_sphere", nu=31, nv=31)
    assert equation_residual(hs).max() < 5e-5
    r = np.linalg.norm(hs.eps, axis=-1)
    assert np.abs(r - fixtures.SPHERE_RADIUS).max() < 1e-14


def test_cmc_cylinder_solves_equation():
    hs = fixtures.make_fixture("cmc_cylinder", nu=31, nv=31)
    assert equation_residual(hs).max() < 5e-5
    r = np.linalg.norm(hs.eps[..., :2], axis=-1)
    assert np.abs(r - fixtures.CYLINDER_RADIUS).max() < 1e-14


def test_orientation_pick_rejects_mirror():
    # swapping the roles of u and v flips the sign of eps_u x eps_v, so only
    # one orientation can satisfy the signed quadratic equation
    hs = fixtures.make_fixture("cmc_sphere", nu=15, nv=15)
    swapped = hsystem.HSurfaceGrid(**hs.window(), eps=np.swapaxes(hs.eps, 0, 1))
    good = equation_residual(hs).max()
    bad = equation_residual(swapped).max()
    assert bad > 1e3 * max(good, 1e-12)


def test_non_adapted_control():
    grid = fixtures.non_adapted_grid(sf.lattice(0.0, 0.0, 5e-2, 5e-2, 15, 15))
    res = sf.almost_complex_residual(sf.partials(grid))
    assert res.max() > 0.3


def test_make_fixture_dispatch():
    for name in fixtures.FIXTURE_NAMES:
        obj = fixtures.make_fixture(name, nu=15, nv=15)
        if name.startswith("cmc_"):
            assert isinstance(obj, hsystem.HSurfaceGrid)
        else:
            assert isinstance(obj, sf.ImmersionGrid)
        assert obj.nu == obj.nv == 15
    with pytest.raises(ValueError, match="unknown fixture 'bogus'"):
        fixtures.make_fixture("bogus", nu=15, nv=15)


def test_grids_are_unit_quaternions():
    for name in ("example1", "example2"):
        grid = fixtures.make_fixture(name, nu=15, nv=15)
        assert np.abs(quat.norm(grid.p) - 1.0).max() < 1e-12
        assert np.abs(quat.norm(grid.q) - 1.0).max() < 1e-12


def test_cmc_sphere_wide_window_hits_pole_margin(tmp_path):
    # the mirrored orientation would fit this window but does not solve the
    # equation; the fixture must refuse instead
    # the centred v window [-3, 3] reaches sech(3) = 0.099
    with pytest.raises(ValueError, match=POLE_MESSAGE.replace("0.037", "0.099")):
        fixtures.make_fixture("cmc_sphere", nu=15, nv=61, du=0.1, dv=0.1)
    out = tmp_path / "s.csv"
    code = cli.main(["--command", "fixture", "--fixture", "cmc_sphere",
                     "--nu", "201", "--nv", "801", "--output", str(out)])
    assert code == 3 and not out.exists()


@pytest.mark.parametrize("name", ["cmc_cylinder", "cmc_sphere"])
@pytest.mark.parametrize("step", ["inf", "nan", "0", "-1"])
def test_fixture_rejects_bad_step(tmp_path, name, step):
    with pytest.raises(ValueError, match="steps must be finite and positive"):
        fixtures.make_fixture(name, nu=9, nv=9, du=float(step))
    out = tmp_path / "x.csv"
    code = cli.main(["--command", "fixture", "--fixture", name, "--nu", "9",
                     "--nv", "9", "--du", step, "--output", str(out)])
    assert code == 3 and not out.exists()
