import collections
import dataclasses
import functools

import numpy as np
import pytest

from nks3 import cli, fixtures, hsystem as hsys, io, quat
from nks3 import frame
from nks3 import nkspace as nk
from nks3 import surface as sf
from nks3.frame import SQRT3


def sphere_hs(n=31, h=6e-3):
    return fixtures.make_fixture("cmc_sphere", nu=n, nv=n, du=h, dv=h)


def equation_residual(hs):
    """The interior `h_equation_residual` of a whole potential grid."""
    return sf.interior(hsys.h_equation_residual(*hs.partials(), hs.laplacian()))


def test_h_surface_grid_validation():
    hs = sphere_hs(15)
    assert hs.nu == hs.nv == 15
    # the window itself is checked by `lattice` (test_lattice_rejects_bad_steps,
    # test_lattice_window_validation_and_methods); the constructor checks
    # that the array fits it
    expected = r"expected an \(15, 15, 3\) array"
    with pytest.raises(ValueError, match=expected):
        hsys.h_surface_grid(hs, hs.eps[..., :2])  # two components
    with pytest.raises(ValueError, match=expected):
        hsys.h_surface_grid(hs, sphere_hs(11).eps)  # shaped for another window
    # a constant potential is built, its values checked only, and its
    # summary, the first read of its derivatives, refuses it
    constant = hsys.h_surface_grid(sf.lattice(0, 0, 1e-2, 1e-2, 9, 9), np.zeros((9, 9, 3)))
    with pytest.raises(ValueError, match=r"^derivatives vanish on the interior: relative "
                                         r"speed 0\.000e\+00 below 1\.0e-10"):
        constant.summary


def test_h_surface_grid_rejects_non_finite():
    hs = sphere_hs(15)
    eps = hs.eps.copy()
    eps[7, 7, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        hsys.h_surface_grid(hs, eps)


def with_summary(hs, **values):
    """A copy of the potential `hs` whose cached summary has `values`."""
    out = hsys.HSurfaceGrid(**hs.window(), eps=hs.eps)
    out.__dict__["summary"] = dataclasses.replace(hs.summary, **values)
    return out


def test_from_potential_nan_cell_fails_equation_gate():
    # built directly, so the constructor's finiteness check is bypassed:
    # the NaN reaches the speed, and the summary refuses the potential
    # before the equation gate; a NaN residual fails that gate closed
    hs = sphere_hs(15)
    eps = hs.eps.copy()
    eps[7, 7, 0] = np.nan
    with pytest.raises(ValueError, match="vanish"):
        hsys.surface_from_epsilon(hsys.HSurfaceGrid(**hs.window(), eps=eps))
    with pytest.raises(hsys.CertificateError, match="not a solution"):
        hsys.surface_from_epsilon(with_summary(hs, h_equation_rel_max=np.nan))


def test_potential_derivatives_are_the_lattice_stencils_formed_per_call():
    # a potential grid caches only its summary: `partials` and `laplacian`
    # are the lattice's stencils, bit for bit, formed anew on each call
    hs = sphere_hs(15)
    eu, ev = hs.partials()
    assert np.array_equal(eu, np.gradient(hs.eps, hs.du, axis=0, edge_order=2))
    assert np.array_equal(ev, np.gradient(hs.eps, hs.dv, axis=1, edge_order=2))
    lap = hs.laplacian()
    assert np.array_equal(lap, hs.diff2(hs.eps, 0) + hs.diff2(hs.eps, 1))
    again = (*hs.partials(), hs.laplacian())
    for first, second in zip((eu, ev, lap), again):
        assert first is not second and not np.shares_memory(first, second)
        assert np.array_equal(first, second)


def test_grid_classes_cache_only_their_summary():
    # a grid holds its window, its read-only values and one summary, cached
    # on first read; every derivative is formed where a pass reads it
    for cls in (sf.ImmersionGrid, hsys.HSurfaceGrid):
        cached = [name for name, value in vars(cls).items()
                  if isinstance(value, functools.cached_property)]
        assert cached == ["summary"], cls


def _frozen(hs):
    assert not hs.eps.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        hs.eps[0, 0, 0] = 0.0


def test_potential_grid_takes_over_and_freezes_eps(tmp_path):
    # the grid keeps a float64 eps handed to it, read-only, so its cached
    # summary cannot go stale; any other input is copied first
    hs = sphere_hs(15)
    eps = hs.eps.copy()
    taken = hsys.h_surface_grid(hs, eps)
    assert taken.eps is eps
    _frozen(taken)
    single = eps.astype(np.float32)
    assert hsys.h_surface_grid(hs, single).eps is not single and single.flags.writeable
    for name in ("cmc_sphere", "cmc_cylinder"):
        _frozen(fixtures.make_fixture(name, nu=15, nv=15))
    io.write_epsilon_csv(tmp_path / "eps.csv", hs)
    _frozen(io.read_epsilon_csv(tmp_path / "eps.csv"))
    _frozen(hsys.epsilon_from_surface(fixtures.make_fixture("example2", nu=31, nv=31))[0])


def _potential_blocks(monkeypatch):
    """Wraps `HSurfaceGrid.diff` and `.diff2`; returns a list that gets,
    per call, (name, axis, root array, the rows and columns of the root it
    counts for).  A halo sub-grid's derivative counts on the sub's interior
    rows, which tile the grid's interior rows once per pass; a block of
    `HSurfaceGrid.pairs` counts inside its one-cell halo along the axis
    differentiated (it has none along the other)."""
    calls = []

    def wrap(name):
        method = getattr(hsys.HSurfaceGrid, name)

        def counted(self, f, axis):
            root = f if f.base is None else f.base
            offset = f.__array_interface__["data"][0] - root.__array_interface__["data"][0]
            r, c = offset // root.strides[0], offset % root.strides[0] // root.strides[1]
            nr, nc = f.shape[:2]
            kept = [slice(r, r + nr), slice(c, c + nc)]
            if f is self.eps:
                kept[0] = slice(r + sf._MARGIN, r + nr - sf._MARGIN)
            else:
                kept[axis] = slice(kept[axis].start + 1, kept[axis].stop - 1)
            kept = tuple(kept)
            calls.append((name, axis, root, kept))
            return method(self, f, axis)
        return counted

    for name in ("diff", "diff2"):
        monkeypatch.setattr(hsys.HSurfaceGrid, name, wrap(name))
    return calls


# command -> how often it forms each interior point's (partials, Laplacian)
_DERIVATIONS = {"fixture": (1, 1), "to-h": (2, 2), "from-h": (3, 1)}


@pytest.mark.parametrize("command, source", [
    ("to-h", "example2"), ("from-h", "cmc_sphere"), ("fixture", "cmc_sphere"),
])
def test_each_command_derives_the_potential_once(monkeypatch, tmp_path, command, source):
    # no potential keeps a whole-grid derivative: `fixture` forms each
    # interior point's partials and Laplacian once, in the grid's
    # summary pass; `to-h` once more for the mean curvature; `from-h`
    # twice more for the integrator's coefficient pairs, once in the
    # u-first lines and once in the v-first chains (its spines re-form
    # them on the first row and column of the integrator's window, which
    # lie in the potential's edge margin).  300-point slabs cut the 41x41
    # potential, and the 39x39 one of `to-h`, into several of each kind
    argv = ["--command", "fixture", "--fixture", source, "--nu", "41", "--nv", "41",
            "--output", str(tmp_path / "in.csv")]
    if command != "fixture":
        assert cli.main(argv) == 0
        argv = ["--command", command, "--input", str(tmp_path / "in.csv"),
                "--output", str(tmp_path / "out.csv")]
    monkeypatch.setattr(sf, "_POINTS", 300)
    calls = _potential_blocks(monkeypatch)
    assert cli.main(argv) == 0
    root = calls[0][2]
    assert all(call[2] is root for call in calls)
    assert len([call for call in calls if call[:2] == ("diff", 0)]) >= 5
    for name, times in zip(("diff", "diff2"), _DERIVATIONS[command]):
        for axis in (0, 1):
            counts = np.zeros(root.shape[:2], dtype=int)
            for _, _, _, kept in (c for c in calls if c[:2] == (name, axis)):
                counts[kept] += 1
            assert (sf.interior(counts) == times).all(), (name, axis)


def test_integrators_form_each_rows_partials_once(monkeypatch):
    # past a surface grid's summary pass, `epsilon_from_surface` reads it
    # in one more pass over halo slabs, forming p's partials only, and
    # `metric_factor_check` in none (it reads the summary's E);
    # `surface_from_epsilon` forms no partials of its output, whose
    # summary pass, run on first read, forms both factors' once
    monkeypatch.setattr(sf, "_POINTS", 300)
    grid = fixtures.make_fixture("example2", nu=41, nv=41)
    grid.summary
    calls = []

    def counted(sub, arr, *out):
        calls.append((sub.u0, sub.du, sub.nu, "p" if arr is sub.p else "q"))
        return factor_partials(sub, arr, *out)

    factor_partials = sf.factor_partials
    for module in (hsys, sf):
        monkeypatch.setattr(module, "factor_partials", counted)
    hs, _ = hsys.epsilon_from_surface(grid)
    hsys.metric_factor_check(grid.summary, hs)
    rows = collections.Counter()
    top = min(c[0] for c in calls)
    for u0, du, nu, _ in calls:
        first = round((u0 - top) / du)
        rows.update(range(first + sf._MARGIN, first + nu - sf._MARGIN))
    assert [c[3] for c in calls] == ["p"] * 5 and set(rows.values()) == {1}
    calls.clear()
    back, _ = hsys.surface_from_epsilon(hs)
    assert calls == []
    back.summary
    for factor in "pq":
        sizes = [c[2] - 2 * sf._MARGIN for c in calls if c[3] == factor]
        assert sum(sizes) == back.nu - 2 * sf._MARGIN
        assert len(sizes) == len(list(sf.halo_slabs(back)))


def test_potential_integrals_are_whole_axis_sums(monkeypatch):
    # the u-integrals carried across halo slabs give the bytes of the
    # whole-grid trapezoid sums, signed zeros included: the pair's exact
    # zeros are made -0.0, so a carry that started at +0.0 would flip the
    # sign of every zero the u-spine adds
    monkeypatch.setattr(sf, "_POINTS", 300)
    grid = fixtures.make_fixture("example1", nu=41, nv=41)
    extract = sf.extract_coefficients

    def signed(cu, cv):
        return tuple(np.where(c == 0.0, -0.0, c) for c in extract(cu, cv))

    monkeypatch.setattr(hsys, "extract_coefficients", signed)
    hs, cert = hsys.epsilon_from_surface(grid)
    gp = sf.partials(grid)
    a, b = (c[1:-1, 1:-1] for c in signed(gp.cu, gp.cv))
    eps_uv = grid.cumtrapz(a[:, :1], 0) + grid.cumtrapz(b, 1)
    eps_vu = grid.cumtrapz(b[:1, :], 1) + grid.cumtrapz(a, 0)
    assert len(list(sf.halo_slabs(grid))) == 5
    assert (np.signbit(eps_uv) & (eps_uv == 0.0)).any()
    assert hs.eps.tobytes() == eps_uv.tobytes()
    assert cert["loop_max"] == float(np.linalg.norm(eps_uv - eps_vu, axis=-1).max())


def test_equation_residual_line_is_zero():
    # a straight line traversed affinely: laplacian and cross product vanish
    u = np.arange(11) * 0.1
    v = np.arange(11) * 0.1
    eps = (u[:, None] + 2.0 * v[None, :])[..., None] * np.array([1.0, 2.0, 2.0])
    hs = hsys.HSurfaceGrid(0.0, 0.0, 0.1, 0.1, 11, 11, eps)
    assert equation_residual(hs).max() < 1e-11


def test_equation_residual_flags_plane():
    u = np.arange(11) * 0.1
    v = np.arange(11) * 0.1
    eps = np.zeros((11, 11, 3))
    eps[..., 0] = u[:, None]
    eps[..., 1] = v[None, :]
    hs = hsys.HSurfaceGrid(0.0, 0.0, 0.1, 0.1, 11, 11, eps)
    assert np.abs(equation_residual(hs) - 4.0 / SQRT3).max() < 1e-9


def test_equation_residual_halving_on_sphere():
    r1 = equation_residual(sphere_hs(15, 8e-3)).max()
    r2 = equation_residual(sphere_hs(15, 4e-3)).max()
    assert r1 / r2 > 3.6


def test_to_potential_example2():
    grid = fixtures.make_fixture("example2", nu=41, nv=41)
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
    grid = fixtures.make_fixture("example1", nu=21, nv=21)
    hs, cert = hsys.epsilon_from_surface(grid)
    assert cert["loop_max"] < 1e-12
    assert cert["h_equation_max"] < 1e-9
    cloud = hs.eps.reshape(-1, 3)
    sing = np.linalg.svd(cloud - cloud.mean(0), compute_uv=False)
    assert sing[0] > 1e-3 and sing[1] < 1e-12 and sing[2] < 1e-12


def test_to_potential_certificate_failure():
    # example2 81^2 at h = 0.02 with p left-multiplied by
    # exp(0.035 * bump * i), a bump of width 0.7: the grid stays adapted
    # (defect ~0.038 against its tolerance 0.05), but its coefficient
    # one-form is not closed over the wide bump (path-ordering residual
    # ~0.062 against 0.05)
    grid = fixtures.make_fixture("example2", nu=81, nv=81, du=0.02, dv=0.02)
    u = grid.u_vals[:, None] - grid.u_vals.mean()
    v = grid.v_vals[None, :] - grid.v_vals.mean()
    bump = np.exp(-(u * u + v * v) / (2.0 * 0.7**2))
    twist = quat.qexp(0.035 * bump[..., None] * [1.0, 0.0, 0.0])
    bent = sf.immersion_grid(grid, quat.qmul(twist, grid.p), grid.q)
    assert sf.require_adapted(bent.summary, 1.0) < 0.04
    with pytest.raises(hsys.CertificateError, match="not closed"):
        hsys.epsilon_from_surface(bent)


def test_to_potential_rejects_nan_cell():
    grid = fixtures.make_fixture("example1", nu=15, nv=15)
    p = grid.p.copy()
    p[7, 7, 0] = np.nan
    # the NaN reaches the derivative norm, so its slab's immersion floor
    # refuses the grid before the adaptedness gate, which a NaN defect fails
    with pytest.raises(ValueError,
                       match=r"immersion: relative derivative norm nan below 1\.0e-08$"):
        hsys.epsilon_from_surface(dataclasses.replace(grid, p=p))
    nan_defect = dataclasses.replace(grid.summary, almost_complex_max=np.nan)
    with pytest.raises(ValueError, match="not adapted"):
        sf.require_adapted(nan_defect, 1.0)


def test_integrators_reject_tiny_grids():
    grid = fixtures.make_fixture("example1", nu=5, nv=5)
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
    # the output's adaptedness defect is its summary's, read by `from-h`
    # from `analyze`, not a certificate entry
    assert "almost_complex_max" not in cert
    assert grid.summary.almost_complex_max < 1e-4
    gp = sf.partials(grid)
    K = sf.interior(sf.gaussian_curvature(gp, *gp.first_form))
    assert np.abs(K - 2.0 / 3.0).max() < 1e-3
    pu = gp.cu @ frame.P_MAT.T
    defects = sf._alignment_defects(gp, pu, frame.gram_product(pu, gp.cu))
    assert sf.classify_P_alignment(grid.summary, *defects) == "normal"


def test_from_potential_initial_point():
    grid, _ = hsys.surface_from_epsilon(sphere_hs(15))
    assert np.abs(grid.p[0, 0] - quat.ONE).max() < 1e-14
    assert np.abs(grid.q[0, 0] - quat.ONE).max() < 1e-14


def test_from_potential_rejects_plane():
    u = np.arange(15) * 0.05
    eps = np.zeros((15, 15, 3))
    eps[..., 0] = u[:, None]
    eps[..., 1] = u[None, :]
    hs = hsys.HSurfaceGrid(0.0, 0.0, 0.05, 0.05, 15, 15, eps)
    with pytest.raises(hsys.CertificateError, match="not a solution"):
        hsys.surface_from_epsilon(hs)


def test_reparametrised_cylinder_passes_real_part_gate():
    # the cylinder potential composed with the conformal map z + z^2 / 2
    # solves the same equation; the surface it integrates to has a real
    # part of about 0.9 h^2 in its logarithmic derivatives, above a fixed
    # 1e-4 but far inside the real-part tolerance
    n, h = 51, 0.6 / 50
    z = (0.2 + h * np.arange(n))[:, None] + 1j * (-0.3 + h * np.arange(n))[None, :]
    w = z + z * z / 2.0
    r = fixtures.CYLINDER_RADIUS
    eps = np.stack([r * np.cos(w.real / r), r * np.sin(w.real / r), w.imag], axis=-1)
    lat = sf.lattice(0.2, -0.3, h, h, n, n)
    grid, _ = hsys.surface_from_epsilon(hsys.h_surface_grid(lat, eps))
    summary = grid.summary
    limit = frame.tolerance(summary, summary.E_max, 1.0) * np.sqrt(summary.E_max)
    assert 1e-4 < summary.projection_max < 0.01 * limit
    report = sf.analyze(grid)
    assert report["almost_complex_max"] < 1e-3


def test_mean_curvature_values():
    H_s = sf.interior(hsys.mean_curvature(sphere_hs(31)))
    assert np.abs(H_s + 2.0 / SQRT3).max() < 1e-4
    cyl = fixtures.make_fixture("cmc_cylinder", nu=31, nv=31)
    H_c = sf.interior(hsys.mean_curvature(cyl))
    assert np.abs(H_c + 2.0 / SQRT3).max() < 1e-4


def test_mean_curvature_requires_conformal():
    hs = sphere_hs(15)
    stretched = hsys.HSurfaceGrid(
        **hs.window(), eps=hs.eps * np.array([1.0, 1.0, 3.0])
    )
    with pytest.raises(ValueError, match="conformal"):
        hsys.mean_curvature(stretched)


@pytest.mark.parametrize("stretch, ok", [(9e-4, True), (9e-3, False)])
def test_conformality_gate_near_its_tolerance(stretch, ok):
    # the cylinder stretched along its axis by 1 + stretch deviates from
    # conformal by about 2 * stretch: 0.25x the tolerance 7.2e-3 at 9e-4
    # passes, 2.5x at 9e-3 is refused, so a tenfold looser one fails here
    cyl = fixtures.make_fixture("cmc_cylinder", nu=31, nv=31)
    hs = hsys.HSurfaceGrid(**cyl.window(), eps=cyl.eps * [1.0, 1.0, 1.0 + stretch])
    if ok:
        assert np.isfinite(hsys.mean_curvature(hs)).all()
        return
    with pytest.raises(ValueError, match=r"deviation 1\.78\de-02 exceeds 7\.3e-03$"):
        hsys.mean_curvature(hs)


def test_mean_curvature_rejects_nan_cell():
    hs = sphere_hs(15)
    eps = hs.eps.copy()
    eps[7, 7, 0] = np.nan
    bad = hsys.HSurfaceGrid(**hs.window(), eps=eps)
    # the NaN reaches the speed first, and its slab's floor refuses it; a
    # NaN conformality deviation fails the conformality gate closed
    with pytest.raises(ValueError,
                       match=r"vanish on the interior: relative speed nan below 1\.0e-10"):
        hsys.mean_curvature(bad)
    with pytest.raises(ValueError, match="conformal"):
        hsys.mean_curvature(with_summary(hs, conformal_max=np.nan))


@pytest.mark.parametrize("skew", [2.0, np.nan])
def test_surface_from_epsilon_gates_path_ordering(monkeypatch, skew):
    # the v-first ordering skewed by twice the tolerance, or by a NaN;
    # test_gates refuses a natural input here, a wide cylinder potential plus
    # a harmonic saddle that passes the equation gate
    hs = sphere_hs()
    tol = frame.tolerance(hs, hs.summary.speed_max, 1.0)
    assert hsys.surface_from_epsilon(hs)[1]["compat_max"] < tol
    integrate = hsys._integrate_pair

    def skewed(*args):
        # the last v-slab of the v-first ordering, compared and dropped in turn
        ufirst, vfirst = integrate(*args)
        slabs = list(vfirst)
        slabs[-1][1][-1, -1, 0, 0] += skew * tol
        return ufirst, iter(slabs)

    monkeypatch.setattr(hsys, "_integrate_pair", skewed)
    with pytest.raises(hsys.CertificateError,
                       match=r"^path-ordering disagreement \S+ exceeds 5\.4e-03$"):
        hsys.surface_from_epsilon(hs)


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


def test_window_overlap_far_from_the_origin(tmp_path):
    # at u0 = 1e7 the CSV reader recovers du to within 1e-6 of the step, not
    # exactly; the read-back window is still the written one
    hs = fixtures.make_fixture("cmc_cylinder", nu=21, nv=9)
    moved = dataclasses.replace(hs, u0=1e7)
    path = tmp_path / "e.csv"
    io.write_epsilon_csv(path, moved)
    back = io.read_epsilon_csv(path)
    assert back.du != moved.du
    assert moved.overlap(back) == ((slice(0, 21), slice(0, 9)),) * 2
    a = sf.lattice(0.0, 0.0, 1e-2, 1e-2, 10, 10)
    assert a.overlap(sf.lattice(0.0, 0.0, 1e-2 * (1 + 5e-7), 1e-2, 8, 8))
    with pytest.raises(ValueError, match="steps differ"):
        a.overlap(sf.lattice(0.0, 0.0, 1e-2, 1e-2 * (1 + 2e-6), 8, 8))


def test_metric_factor_example2_round_trip():
    grid = fixtures.make_fixture("example2", nu=41, nv=41)
    hs, _ = hsys.epsilon_from_surface(grid)
    out = hsys.metric_factor_check(grid.summary, hs)
    assert set(out) == {"ratio_mean", "ratio_max_dev"}
    assert abs(out["ratio_mean"] - 2.0) < 1e-3
    assert out["ratio_max_dev"] < 1e-3


def test_metric_factor_rejects_step_mismatch():
    grid = fixtures.make_fixture("example1", nu=15, nv=15)
    hs = sphere_hs(15)  # step 6e-3 against the surface's 1e-2
    with pytest.raises(ValueError, match="steps differ"):
        hsys.metric_factor_check(grid.summary, hs)


def test_metric_factor_example1_nonzero_lambda():
    # the ratio is 2 for every potential, not only where lambda vanishes
    grid = fixtures.make_fixture("example1", nu=15, nv=15)
    assert sf.interior(np.abs(sf.lambda_field(sf.partials(grid)))).min() > 0.5
    hs, _ = hsys.epsilon_from_surface(grid)
    out = hsys.metric_factor_check(grid.summary, hs)
    assert abs(out["ratio_mean"] - 2.0) < 1e-3
    assert out["ratio_max_dev"] < 1e-3


def test_to_potential_refuses_non_adapted_grid():
    grid = fixtures.non_adapted_grid(sf.lattice(0.0, 0.0, 0.025, 0.025, 41, 41))
    with pytest.raises(ValueError, match="not adapted"):
        hsys.epsilon_from_surface(grid)
    adapted = fixtures.make_fixture("example1", nu=15, nv=15)
    _, cert = hsys.epsilon_from_surface(adapted)
    assert cert["almost_complex_max"] < 2e-5


@pytest.mark.parametrize("tol_scale", [np.nan, np.inf, 0.0, -1.0])
def test_epsilon_from_surface_rejects_bad_tol_scale(tol_scale):
    grid = fixtures.make_fixture("example1", nu=15, nv=15)
    with pytest.raises(ValueError, match="tol_scale"):
        hsys.epsilon_from_surface(grid, tol_scale=tol_scale)


@pytest.mark.parametrize("tol_scale", [np.nan, np.inf, 0.0, -1.0])
def test_surface_from_epsilon_rejects_bad_tol_scale(tol_scale):
    with pytest.raises(ValueError, match="tol_scale"):
        hsys.surface_from_epsilon(sphere_hs(15), tol_scale=tol_scale)


def _chain_end(n, a, b):
    """End value of p' = p * (a + b t) on [0, 1], p(0) = 1, after n steps."""
    t = np.linspace(0.0, 1.0, n + 1)[:, None]
    return hsys._integrate_chain(quat.ONE, a + b * t, _steps(1.0 / n), axis=0)[-1]


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
    hs = fixtures.make_fixture("cmc_cylinder", nu=4001, nv=11, du=6e-3, dv=6e-3)
    _, cert = hsys.surface_from_epsilon(hs)
    assert cert["drift_max"] < 1e-12


def test_drift_max_reads_the_v_first_chains(monkeypatch):
    # a drift off the unit sphere that only the v-first ordering carries,
    # far inside the ordering gate, still sets drift_max
    hs = sphere_hs()
    integrate = hsys._integrate_pair

    def drifted(*args):
        ufirst, vfirst = integrate(*args)
        return ufirst, ((s, v * (1.0 + 1e-9)) for s, v in vfirst)

    monkeypatch.setattr(hsys, "_integrate_pair", drifted)
    _, cert = hsys.surface_from_epsilon(hs)
    assert 0.9e-9 < cert["drift_max"] < 1.1e-9


def _steps(h):
    """A lattice with step h along both axes; the chain reads only its steps."""
    return sf.lattice(0.0, 0.0, h, h, 5, 5)


def _chain_by_loop(start, coeff, h):
    """The sequential product the scan replaces, out[k + 1] = out[k] step[k],
    kept as the oracle of `_integrate_chain` along axis 0."""
    c0, c1 = coeff[:-1], coeff[1:]
    steps = quat.qexp(0.5 * h * (c0 + c1) + (h * h / 6.0) * np.cross(c0, c1))
    out = np.empty(coeff.shape[:-1] + (4,))
    out[0] = start
    for k in range(len(steps)):
        out[k + 1] = quat.qmul(out[k], steps[k])
    return out


@pytest.mark.parametrize("axis", [0, 1])
def test_scan_chain_matches_sequential_products(axis):
    rng = np.random.default_rng(11)
    coeff = rng.standard_normal((4001, 3, 2, 3))
    start = quat.normalize(rng.standard_normal((3, 2, 4)))
    want = _chain_by_loop(start, coeff, 6e-3)
    got = hsys._integrate_chain(start, np.moveaxis(coeff, 0, axis), _steps(6e-3), axis)
    assert np.abs(np.moveaxis(got, axis, 0) - want).max() <= 1e-13


# chain lengths around the scan's block size: one step, two steps, one full
# block and one block plus the first entry of a second (a carry of one row)
@pytest.mark.parametrize("n", [2, 3, hsys._BLOCK, hsys._BLOCK + 1])
@pytest.mark.parametrize("axis", [0, 1])
def test_scan_matches_sequential_products_at_block_edges(n, axis):
    rng = np.random.default_rng(n)
    coeff = rng.standard_normal((n, 3, 2, 3))
    start = quat.normalize(rng.standard_normal((3, 2, 4)))
    want = _chain_by_loop(start, coeff, 6e-3)
    got = hsys._integrate_chain(start, np.moveaxis(coeff, 0, axis), _steps(6e-3), axis)
    assert np.abs(np.moveaxis(got, axis, 0) - want).max() <= 1e-13


def _row_rotated_example2(angle, n=81, h=5e-3):
    """example2 with every other u-row of p left-multiplied by exp(angle i)."""
    grid = fixtures.make_fixture("example2", nu=n, nv=n, du=h, dv=h)
    p = grid.p.copy()
    p[::2] = quat.qmul(quat.qexp(np.array([angle, 0.0, 0.0])), p[::2])
    return grid, sf.immersion_grid(grid, p, grid.q)


def test_epsilon_from_surface_gates_equation_residual():
    # the turned rows stay adapted and the coefficient one-form stays closed
    # within their gates, but the integrated potential misses the
    # second-order equation by four orders of magnitude
    clean, bad = _row_rotated_example2(5e-4)
    _, cert = hsys.epsilon_from_surface(clean)
    assert cert["h_equation_max"] < 1e-4
    with pytest.raises(hsys.CertificateError, match="second-order equation residual"):
        hsys.epsilon_from_surface(bad)
    # the bound of the inverse direction, on the residual over the speed:
    # the potential's tolerance
    with pytest.raises(hsys.CertificateError, match=r"over the speed \S+ exceeds 3\.8e-03"):
        hsys.epsilon_from_surface(bad)


@pytest.mark.parametrize("shape", [(101, 101), (203, 9)])
def test_integrate_pair_slabs_match_the_whole_grid(monkeypatch, shape):
    # both field chains over slabs of 300 points (the last slab of each axis
    # shorter), and over one slab, against each chain over the whole grid
    rng = np.random.default_rng(23)
    c_u, c_v = (0.5 * rng.standard_normal(shape + (2, 3)) for _ in range(2))
    lat = sf.lattice(0.0, 0.0, 6e-3, 6e-3, *shape)
    start = np.stack([quat.ONE, quat.ONE])
    u_spine = hsys._integrate_chain(start, c_u[:, :1], lat, 0)[:, 0]
    v_spine = hsys._integrate_chain(start, c_v[:1], lat, 1)[0]
    whole = (hsys._integrate_chain(u_spine, c_v, lat, 1),
             hsys._integrate_chain(v_spine, c_u, lat, 0))
    for points, count in ((300, 5), (shape[0] * shape[1], 1)):
        monkeypatch.setattr(sf, "_POINTS", points)
        assert min(len(lat.slabs(0)), len(lat.slabs(1))) >= count
        ufirst, vfirst = hsys._integrate_pair(
            lambda rows, cols, axis: (c_u, c_v)[axis][rows, cols], lat, start)
        slabs = list(vfirst)
        assert [s for s, _ in slabs] == lat.slabs(1)
        assert np.array_equal(ufirst, whole[0])
        assert np.array_equal(np.concatenate([v for _, v in slabs], axis=1), whole[1])
