"""Every gate's tolerance and every floor is pinned by a near control.

`frame.gate` (an upper bound) and `frame.at_least` (a floor) are the
comparisons behind every certificate and input check in `src/nks3`.  Each
site below is driven through the public API twice, with both wrapped to log
per calling function how far the value lies past the limit, value / tol for
a gate and bound / value for a floor: a near control that the site refuses
at 1 < ratio <= 10, so a tenfold looser limit would pass it and fail this
test, and an input that the site passes at ratio < 1.  Sites are keyed by
the name of the function that calls `gate` or `at_least`, not by line, and
the keys must equal the callers `ast` finds in `src/nks3`, so a new check
without a near control fails here.
"""
import ast
import operator
import pathlib
import sys

import numpy as np
import pytest

from nks3 import cli, fixtures, frame, io, quat
from nks3 import hsystem as hsys
from nks3 import nkspace as nk
from nks3 import surface as sf

from families import example1_points, parallel_tangents, shifted_rows

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nks3"
QI, QJ = np.eye(4)[1:3]


def callers(name):
    """"<module>.<function>" of the innermost function around every
    `name(...)` call in `src/nks3`."""
    sites = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Call) and getattr(
                    child.func, "id", getattr(child.func, "attr", None)) == name:
                sites.add(f"{module}.{scope}")
            visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, "")
    return sites


def check_callers():
    return callers("gate") | callers("at_least")


@pytest.fixture
def ratios(monkeypatch):
    """The list of (site, ratio) that every `gate` call (value / tol) and
    every `at_least` call (bound / value) appends to while the test runs."""
    log = []

    def traced(check, ratio):
        def call(value, limit, *args, **kwargs):
            caller = sys._getframe(1)
            module = caller.f_globals["__name__"].rsplit(".", 1)[-1]
            log.append((f"{module}.{caller.f_code.co_name}", ratio(value, limit)))
            return check(value, limit, *args, **kwargs)
        return call

    for check, ratio in ((frame.gate, operator.truediv),
                         (frame.at_least, lambda value, bound: bound / value)):
        for module in (cli, fixtures, hsys, io, nk, sf):
            if getattr(module, check.__name__, None) is check:
                monkeypatch.setattr(module, check.__name__, traced(check, ratio))
    return log


def tangents_apart(shift):
    """`nk.metric` of two tangents whose base points differ by `shift`
    (tolerance 1e-12)."""
    base = nk.Point(quat.ONE.copy(), quat.ONE.copy())
    other = nk.Point(quat.ONE + shift * QJ, quat.ONE.copy())
    return nk.metric(nk.Tangent(base, QI, np.zeros(4)), nk.Tangent(other, QI, np.zeros(4)))


def jittered_csv(tmp_path, shift):
    """Read back a du = 0.01 CSV with one whole u-column moved by `shift`
    (tolerance STEP_RTOL * du = 1e-8)."""
    grid = fixtures.make_fixture("example2", nu=9, nv=7, du=0.01, dv=0.01)
    path = tmp_path / "g.csv"
    io.write_immersion_csv(path, grid)
    header, *rows = path.read_text().splitlines()
    column = float(grid.u_vals[4])
    for k, row in enumerate(rows):
        u, rest = row.split(",", 1)
        if float(u) == column:
            rows[k] = f"{column + shift!r},{rest}"
    path.write_text("\n".join([header, *rows]) + "\n")
    return io.read_immersion_csv(path)


def stretched_cylinder(stretch):
    """Mean curvature of the cylinder potential 31^2 stretched along its
    axis by 1 + `stretch` (floor 3.6e-3)."""
    cyl = fixtures.make_fixture("cmc_cylinder", nu=31, nv=31)
    return hsys.mean_curvature(
        hsys.HSurfaceGrid(**cyl.window(), eps=cyl.eps * [1.0, 1.0, 1.0 + stretch]))


def spiked_sphere(delta):
    """`surface_from_epsilon` of the sphere potential 31^2 at h = 6e-3 with
    `delta` added to one value: the equation residual over the speed sees
    ~4 delta / (1.5 h^2) at the spike (tolerance 5.4e-3)."""
    hs = fixtures.make_fixture("cmc_sphere", nu=31, nv=31)
    eps = hs.eps.copy()
    eps[15, 15, 0] += delta
    return hsys.surface_from_epsilon(hsys.HSurfaceGrid(**hs.window(), eps=eps))


def fine_sphere(h):
    """`surface_from_epsilon` of the sphere potential 21^2 at step `h`,
    whose second-difference roundoff is 100 eps / (1.5 h^2) (cap 0.05)."""
    return hsys.surface_from_epsilon(fixtures.make_fixture("cmc_sphere", 21, 21, h, h))


def saddled_cylinder(amp):
    """`surface_from_epsilon` of the cylinder potential 81^2 at h = 0.04
    plus `amp` (2uv, 0, u^2 - v^2), centred: the added map is harmonic, so
    the pointwise equation residual over the speed stays inside its
    tolerance (0.88 of it at amp 6e-3) while the path orderings drift apart
    over the wide window (tolerance 0.05)."""
    hs = fixtures.make_fixture("cmc_cylinder", nu=81, nv=81, du=0.04, dv=0.04)
    u = hs.u_vals[:, None] - hs.u_vals.mean()
    v = hs.v_vals[None, :] - hs.v_vals.mean()
    eps = hs.eps.copy()
    eps[..., 0] += amp * 2.0 * u * v
    eps[..., 2] += amp * (u * u - v * v)
    return hsys.surface_from_epsilon(hsys.HSurfaceGrid(**hs.window(), eps=eps))


def twisted_example2(amp, h=5e-3, width=0.15):
    """example2 81^2 at step `h` with p left-multiplied by
    exp(amp * bump i), a Gaussian bump of `width` at the centre.  The
    adaptedness defect is pointwise, while the path-ordering residual grows
    with the bump: at h = 0.02 and width 0.7 it is 1.6 times the defect."""
    grid = fixtures.make_fixture("example2", nu=81, nv=81, du=h, dv=h)
    u = grid.u_vals[:, None] - grid.u_vals.mean()
    v = grid.v_vals[None, :] - grid.v_vals.mean()
    bump = np.exp(-(u * u + v * v) / (2.0 * width**2))
    twist = quat.qexp(amp * bump[..., None] * [1.0, 0.0, 0.0])
    return sf.immersion_grid(grid, quat.qmul(twist, grid.p), grid.q)


def cubic(x, h, delta):
    """x (x - h) (x + h) + delta x: its central difference of step h is
    3 x^2 + delta at every grid point, exactly delta at x = 0."""
    return x * (x - h) * (x + h) + delta * x


def stalled_example1(delta):
    """example1 21^2 at h = 0.01 with u replaced by `cubic` about the
    centre row, where the u-derivative falls to `delta` times the largest
    derivative norm (floor 1e-8)."""
    lat = sf.lattice(-0.1, 0.0, 1e-2, 1e-2, 21, 21)
    return example1_points(lat, cubic(lat.u_vals, lat.du, delta)[:, None])


def stalled_plane(delta):
    """The potential (`cubic`(u), `cubic`(v), 0) on 9^2 at h = 0.05 about
    the centre, whose speed falls there to 2 delta^2, delta^2 / (12 h^2)^2
    times the largest interior speed (floor 1e-10)."""
    lat = sf.lattice(-0.2, -0.2, 0.05, 0.05, 9, 9)
    u, v = np.meshgrid(lat.u_vals, lat.v_vals, indexing="ij")
    return hsys.h_surface_grid(
        lat, np.stack([cubic(u, lat.du, delta), cubic(v, lat.dv, delta), 0.0 * u], axis=-1))


# site -> (near control, input below it), each a call of the public API on
# one member of a family, at a parameter ten times apart
CONTROLS = {
    "nkspace._check_same_base": (
        lambda tmp: tangents_apart(5e-12), lambda tmp: tangents_apart(5e-13)),
    "io._recover_axis": (
        lambda tmp: jittered_csv(tmp, 5e-8), lambda tmp: jittered_csv(tmp, 5e-9)),
    "hsystem.mean_curvature": (
        lambda tmp: stretched_cylinder(9e-3), lambda tmp: stretched_cylinder(9e-4)),
    "hsystem._require_resolved": (
        lambda tmp: fine_sphere(3e-7), lambda tmp: fine_sphere(3e-6)),
    "hsystem._require_solution": (
        lambda tmp: spiked_sphere(2e-7), lambda tmp: spiked_sphere(2e-8)),
    "hsystem.surface_from_epsilon": (
        lambda tmp: saddled_cylinder(6e-3), lambda tmp: saddled_cylinder(6e-4)),
    "hsystem.epsilon_from_surface": (
        lambda tmp: hsys.epsilon_from_surface(twisted_example2(0.035, 0.02, 0.7)),
        lambda tmp: hsys.epsilon_from_surface(twisted_example2(3.5e-3, 0.02, 0.7))),
    "surface.require_adapted": (
        lambda tmp: sf.analyze(twisted_example2(5e-3)),
        lambda tmp: sf.analyze(twisted_example2(5e-4))),
    "surface.require_imaginary": (
        lambda tmp: sf.analyze(shifted_rows(0.3)), lambda tmp: sf.analyze(shifted_rows(0.03))),
    "surface._summary_slab": (
        lambda tmp: stalled_example1(5e-9).summary, lambda tmp: stalled_example1(5e-8).summary),
    "surface.analyze": (
        lambda tmp: sf.analyze(parallel_tangents(5e-6), tol_scale=100.0),
        lambda tmp: sf.analyze(parallel_tangents(5e-5), tol_scale=100.0)),
    "hsystem._summary_slab": (
        lambda tmp: stalled_plane(2e-7).summary, lambda tmp: stalled_plane(2e-6).summary),
}

REFUSALS = (ValueError, hsys.CertificateError)


def test_every_gate_call_has_a_near_control():
    assert set(CONTROLS) == check_callers()


def test_each_floor_is_checked_once_where_it_is_measured():
    # the immersion floor in the slab that forms the derivatives, the speed
    # floor in the potential's slab, the metric floor in `analyze`
    assert callers("at_least") == {
        "surface._summary_slab", "surface.analyze", "hsystem._summary_slab"}


@pytest.mark.parametrize("value", [0.5, np.nan])
def test_a_floor_refuses_below_its_bound_and_a_nan(value):
    with pytest.raises(ValueError, match=r"^norm (5\.000e-01|nan) below 1\.0e\+00; why$"):
        frame.at_least(value, 1.0, "norm", "; why")
    assert frame.at_least(1.0, 1.0, "norm") == 1.0


@pytest.mark.parametrize("delta", [1.0, 320.0, 1e3])
def test_a_spike_cannot_raise_the_equation_tolerance(delta):
    # a spike raises the largest speed by ~delta^2 / (4 h^2), and with it
    # the tolerance, up to its cap; at the spike itself the residual over
    # the speed, ~4 delta / (1.5 h^2), stays far past the cap
    with pytest.raises(hsys.CertificateError,
                       match="^second-order equation residual over the speed "):
        spiked_sphere(delta)


@pytest.mark.parametrize("angle", [1e-3, 0.1, 3.0])
def test_a_spike_in_p_is_refused_by_the_pointwise_adaptedness(angle):
    # example2 41^2 at h = 0.01 with p at the centre turned by `angle` about
    # j: the spike raises the largest E, and with it the real-part bound,
    # but the almost-complex defect, relative at each point, refuses it
    grid = fixtures.make_fixture("example2", nu=41, nv=41, du=0.01, dv=0.01)
    p = grid.p.copy()
    p[20, 20] = quat.qmul(quat.qexp(np.array([0.0, angle, 0.0])), p[20, 20])
    with pytest.raises(ValueError, match="^grid is not adapted: "):
        sf.analyze(sf.immersion_grid(grid, p, grid.q))


@pytest.mark.parametrize("site", sorted(check_callers()))
def test_gate_refuses_its_near_control(site, ratios, tmp_path):
    refused, passed = CONTROLS[site]
    with pytest.raises(REFUSALS):
        refused(tmp_path)
    assert ratios[-1][0] == site
    assert 1.0 < ratios[-1][1] <= 10.0
    ratios.clear()
    try:
        passed(tmp_path)
    except REFUSALS:
        # the loop gate's input below it is refused later, by the equation
        assert ratios[-1][0] != site
    logged = [r for s, r in ratios if s == site]
    assert logged and max(logged) < 1.0
