import dataclasses
import gc
import weakref

import numpy as np
import pytest

from nks3 import cli, fixtures, io, quat
from nks3 import hsystem as hsys
from nks3 import frame
from nks3 import nkspace as nk
from nks3 import surface as sf

from families import circle, parallel_tangents, shifted_rows

QI, QJ, QK = np.eye(4)[1:]  # the imaginary units i, j, k

SQ3 = frame.SQRT3

# partials carry the raw imaginary parts of p^-1 dp and q^-1 dq; times this
# they are the frame coefficients that `nkspace` reads and returns
TO_FRAME = np.tile(frame.FLIP, 2)


def small_fixture(name, n=21, h=None):
    return fixtures.make_fixture(name, nu=n, nv=n, du=h, dv=h)


def moved_fixture(name, n=31):
    """A fixture grid moved by a seeded random isometry: general position,
    where every coefficient component is nonzero."""
    fixture = small_fixture(name, n=n)
    moved = nk.random_isometry(np.random.default_rng(5)).apply_point(
        nk.Point(fixture.p, fixture.q))
    return sf.immersion_grid(fixture, moved.p, moved.q)


def alignment_defects(gp):
    """`_alignment_defects` of the partials `gp`, with P phi_u and
    g(P phi_u, phi_u) formed here."""
    pu = gp.cu @ frame.P_MAT.T
    return sf._alignment_defects(gp, pu, frame.gram_product(pu, gp.cu))


def classify(grid):
    """`classify_P_alignment` of a whole grid, from its partials."""
    return sf.classify_P_alignment(grid.summary, *alignment_defects(sf.partials(grid)))


def test_grid_constructor_validation():
    grid = small_fixture("example1")
    assert grid.nu == grid.nv == 21
    assert np.allclose(grid.u_vals[1] - grid.u_vals[0], 1e-2)
    # the window itself is checked by `lattice` (test_lattice_rejects_bad_steps,
    # test_lattice_window_validation_and_methods); the constructor checks
    # that both arrays fit it
    other = small_fixture("example1", n=15)
    expected = r"expected two \(21, 21, 4\) arrays"
    with pytest.raises(ValueError, match=expected):
        sf.immersion_grid(grid, other.p, other.q)  # shaped for another window
    with pytest.raises(ValueError, match=expected):
        sf.immersion_grid(grid, grid.p, other.q)  # p and q of different shapes
    with pytest.raises(ValueError, match=expected):
        sf.immersion_grid(grid, grid.p[..., :3], grid.q)
    with pytest.raises(ValueError, match="norm deviates"):
        sf.immersion_grid(grid, 2.0 * grid.p, grid.q)
    # constant grid is not an immersion: building it checks its values
    # only, and its summary, the first read of its derivatives, refuses it
    ones = np.zeros((8, 8, 4))
    ones[..., 0] = 1.0
    constant = sf.immersion_grid(sf.lattice(0, 0, 1e-2, 1e-2, 8, 8), ones, ones)
    with pytest.raises(ValueError, match=r"^grid is not an immersion: relative derivative "
                                         r"norm 0\.000e\+00 below 1\.0e-08$"):
        constant.summary


def off_unit(grid):
    """Writeable, C-contiguous copies of the grid's p and q with norms
    1 + 1e-7 and 1 - 1e-7, which renormalizing changes."""
    return grid.p * (1.0 + 1e-7), grid.q * (1.0 - 1e-7)


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def test_handed_over_arrays_are_normalized_in_place():
    grid = small_fixture("example2")
    p, q = off_unit(grid)
    want = quat.unit(p.copy()), quat.unit(q.copy())
    got = sf.immersion_grid(grid, p, q)
    assert np.shares_memory(got.p, p) and np.shares_memory(got.q, q)
    assert np.array_equal(bits(p), bits(want[0])) and np.array_equal(bits(q), bits(want[1]))
    assert not (got.p.flags.writeable or got.q.flags.writeable)
    # one array handed over as both factors is divided once
    both = off_unit(grid)[0]
    got = sf.immersion_grid(grid, both, both)
    assert np.array_equal(bits(got.p), bits(want[0]))
    assert np.array_equal(bits(got.q), bits(want[0]))


@pytest.mark.parametrize("kind", ["read-only", "strided", "float32", "list", "grid"])
def test_arrays_the_grid_cannot_take_over_are_copied(kind):
    grid = small_fixture("example2")
    p, q = off_unit(grid)
    if kind == "read-only":
        p.flags.writeable = False
    elif kind == "strided":
        p = np.concatenate([p, q], axis=-1)[..., :4]
    elif kind == "float32":
        p = p.astype(np.float32)
    elif kind == "list":
        p = p.tolist()
    else:
        p, q = grid.p, grid.q
    before = bits(p).copy()
    got = sf.immersion_grid(grid, p, q)
    assert np.array_equal(bits(p), before)  # the caller's array is untouched
    assert not np.shares_memory(got.p, np.asarray(p))
    assert np.array_equal(bits(got.p), bits(quat.unit(np.asarray(p, dtype=float))))
    assert not got.p.flags.writeable and got.p.flags.c_contiguous


def test_refused_arrays_are_left_unmodified():
    grid = small_fixture("example2")
    p, q = off_unit(grid)
    for bad, match in [(np.where(q == q.max(), np.nan, q), "must be finite"),
                       (2.0 * q, "norm deviates")]:
        for args in ((p, bad), (bad, q)):
            before = [bits(a).copy() for a in args]
            with pytest.raises(ValueError, match=match):
                sf.immersion_grid(grid, *args)
            assert all(np.array_equal(bits(a), b) for a, b in zip(args, before))
    # the same p, accepted, is taken over
    assert np.shares_memory(sf.immersion_grid(grid, p, q).p, p)


def shuffled_immersion_csv(path, grid):
    """The grid's CSV with its rows in a seeded random order."""
    io.write_immersion_csv(path, grid)
    lines = path.read_text().splitlines()
    order = np.random.default_rng(0).permutation(len(lines) - 1)
    path.write_text("\n".join([lines[0]] + [lines[1 + k] for k in order]) + "\n")
    return path


def test_every_producer_hands_over_contiguous_read_only_arrays(tmp_path):
    ex2 = small_fixture("example2")
    io.write_immersion_csv(tmp_path / "ex2.csv", ex2)
    grids = {
        "read": io.read_immersion_csv(tmp_path / "ex2.csv"),
        "read shuffled": io.read_immersion_csv(
            shuffled_immersion_csv(tmp_path / "shuffled.csv", ex2)),
        "example1": small_fixture("example1"),
        "example2": ex2,
        "from-h": hsys.surface_from_epsilon(small_fixture("cmc_sphere"))[0],
    }
    assert np.array_equal(bits(grids["read shuffled"].p), bits(grids["read"].p))
    for name, grid in grids.items():
        for a in (grid.p, grid.q):
            assert a.flags.c_contiguous and not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            grid.p[0, 0, 0] = 1.0


def test_partials_match_analytic_derivative():
    grid = small_fixture("example1")
    gp = sf.partials(grid)
    base = nk.Point(grid.p, grid.q)
    phi_u = nk.from_frame_coords(base, gp.cu * TO_FRAME)
    phi_v = nk.from_frame_coords(base, gp.cv * TO_FRAME)
    # p = exp(i(u - v/sqrt3)): p_u = p i, p_v = -p i / sqrt3
    pu_exact = quat.qmul(grid.p, QI)
    pv_exact = -pu_exact / SQ3
    assert np.abs(sf.interior(phi_u.u - pu_exact)).max() < 2e-5
    assert np.abs(sf.interior(phi_v.u - pv_exact)).max() < 2e-5
    assert gp.projection_max < 1e-10


def test_grid_with_cached_partials_is_freed_by_refcount():
    # the cached summary holds no reference back to the grid, so dropping
    # the grid frees it without the cycle collector
    grid = small_fixture("example2")
    grid.summary
    ref = weakref.ref(grid)
    gc.disable()
    try:
        del grid
        assert ref() is None
    finally:
        gc.enable()


def test_partials_halving_is_second_order():
    # the almost-complex residual of an adapted grid is pure stencil error,
    # so halving the step must shrink it by about 4
    errs = {}
    for h in (2e-2, 1e-2):
        grid = small_fixture("example2", n=15, h=h)
        errs[h] = float(sf.almost_complex_residual(sf.partials(grid)).max())
    assert errs[2e-2] / errs[1e-2] > 3.5


def test_almost_complex_residual_example1_small():
    grid = small_fixture("example1")
    gp = sf.partials(grid)
    assert sf.almost_complex_residual(gp).max() < 2e-5


def test_non_adapted_grid_flagged():
    grid = fixtures.non_adapted_grid(sf.lattice(0.0, 0.0, 5e-2, 5e-2, 15, 15))
    gp = sf.partials(grid)
    assert sf.almost_complex_residual(gp).max() > 0.3
    with pytest.raises(ValueError, match="real-part residual"):
        sf.analyze(grid)


def slab_defects(grid):
    """The almost-complex defect and real-part residual of `grid`, merged
    over its halo slabs' partials with no immersion floor in the way."""
    highs = [(sf.almost_complex_residual(gp).max(), gp.projection_max)
             for gp in (sf.partials(sub) for sub, _, _ in sf.halo_slabs(grid))]
    return np.max(highs, axis=0)


NAN_FLOOR = r"^grid is not an immersion: relative derivative norm nan below 1\.0e-08$"


def test_nan_cell_fails_real_part_gate():
    # a NaN cell reaches the real-part residual, whose gate fails closed;
    # the grid's summary refuses it first, at its slab's immersion floor
    grid = small_fixture("example1", n=15)
    p = grid.p.copy()
    p[7, 7, 0] = np.nan
    bad = sf.ImmersionGrid(**grid.window(), p=p, q=grid.q)
    assert np.isnan(slab_defects(bad)[1])
    with pytest.raises(ValueError, match=NAN_FLOOR):
        bad.summary
    nan_real = dataclasses.replace(grid.summary, projection_max=float("nan"))
    with pytest.raises(ValueError, match="far from imaginary"):
        sf.require_imaginary(nan_real)


def test_finite_real_part_defect_fails_gate():
    # example1 with every other u-row sampled 0.3 h further along u: its
    # coefficients are constant, so the grid stays adapted to rounding
    # level, but the logarithmic derivatives gain a real part 0.6 h |c|^2
    # far above the O(h_arc^2) tolerance
    bad = shifted_rows(0.3)
    summary = bad.summary
    tol = frame.tolerance(summary, summary.E_max, 1.0)
    assert sf.require_adapted(summary, 1.0) < 1e-3 * tol
    assert summary.projection_max > 3.0 * tol * np.sqrt(summary.E_max)
    with pytest.raises(ValueError, match="far from imaginary"):
        sf.analyze(bad)


def test_extract_coefficients_example1_constants():
    # central stencils scale each exact coefficient by sin(ch)/(ch), so the
    # constants are recovered to O(h^2), not exactly
    gp = sf.partials(small_fixture("example1"))
    alpha_t, beta_t = sf.rotate_pair(*sf.extract_coefficients(gp.cu, gp.cv), sf.FROM_POTENTIAL)
    assert np.abs(sf.interior(alpha_t) - np.array([1.0, 0, 0])).max() < 2e-5
    assert (
        np.abs(sf.interior(beta_t) - np.array([-1 / SQ3, 0, 0])).max() < 1e-5
    )
    gamma_t, delta_t = gp.cu[..., 3:], gp.cv[..., 3:]
    assert np.abs(sf.interior(gamma_t)).max() < 1e-12
    assert (
        np.abs(sf.interior(delta_t) - np.array([-2 / SQ3, 0, 0])).max() < 5e-5
    )
    # the second-factor pair is the one adapted coordinates force
    gamma_pred, delta_pred = sf.rotate_pair(alpha_t, beta_t, sf.SECOND_FACTOR)
    rg = np.linalg.norm(gamma_t - gamma_pred, axis=-1)
    rd = np.linalg.norm(delta_t - delta_pred, axis=-1)
    assert max(sf.interior(rg).max(), sf.interior(rd).max()) < 5e-5


def test_rotated_pair_example1():
    gp = sf.partials(small_fixture("example1"))
    alpha, beta = sf.extract_coefficients(gp.cu, gp.cv)
    # rotating (1,0,0), (-1/sqrt3,0,0) by 2pi/3 gives (-1,0,0), (-1/sqrt3,0,0)
    assert np.abs(sf.interior(alpha) - np.array([-1.0, 0, 0])).max() < 2e-5
    assert np.abs(sf.interior(beta) - np.array([-1 / SQ3, 0, 0])).max() < 2e-5
    # rotating back recovers the unrotated pair, the first-factor halves of
    # the partials
    at, bt = sf.rotate_pair(alpha, beta, sf.FROM_POTENTIAL)
    assert np.abs(at - gp.cu[..., :3]).max() < 1e-14
    assert np.abs(bt - gp.cv[..., :3]).max() < 1e-14


def test_pair_rotations_are_the_closed_forms():
    # each named rotation gives the same bits as its hand-expanded formula
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((2, 50, 3))
    a[0, 0], a[1, 1], b[2, 2], b[3, 0] = 0.0, -0.0, 0.0, -0.0
    c, s = sf.TO_POTENTIAL
    assert (c, s) == (np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3))
    for got, want in zip(sf.rotate_pair(a, b, sf.SECOND_FACTOR),
                         ((SQ3 / 2) * b + 0.5 * a, 0.5 * b - (SQ3 / 2) * a)):
        assert np.array_equal(got, want)
    for got, want in zip(sf.rotate_pair(a, b, sf.FROM_POTENTIAL),
                         (c * a - s * b, s * a + c * b)):
        assert np.array_equal(got, want)
    back = sf.rotate_pair(*sf.rotate_pair(a, b, sf.TO_POTENTIAL), sf.FROM_POTENTIAL)
    assert max(np.abs(back[0] - a).max(), np.abs(back[1] - b).max()) < 1e-15


def test_integrability_residuals_small_on_fixtures():
    for name, bound in (("example1", 1e-8), ("example2", 2e-5)):
        gp = sf.partials(small_fixture(name, n=31))
        r21, r22, r23 = sf.integrability_residuals(gp, *sf.extract_coefficients(gp.cu, gp.cv))
        assert max(r21, r22, r23) < bound, name


def test_integrability_halving_example2():
    res = {}
    for h in (1e-2, 5e-3):
        gp = sf.partials(small_fixture("example2", h=h))
        res[h] = max(sf.integrability_residuals(gp, *sf.extract_coefficients(gp.cu, gp.cv)))
    assert res[1e-2] / res[5e-3] > 3.5


@pytest.mark.parametrize("n, angle", [(41, 0.0), (61, 5e-3)])
def test_curl_read_in_place_is_the_unrotated_pair_curl(n, angle):
    # the curl equation on the unrotated pair, -2 alpha_t x beta_t, formed
    # here on the partials' first-factor halves, against the residual read
    # in place from them, to the bit; on clean example2 and with every
    # other u-row of p turned
    grid = small_fixture("example2", n=n)
    if angle:
        p = grid.p.copy()
        p[::2] = quat.qmul(quat.qexp(np.array([angle, 0.0, 0.0])), p[::2])
        grid = sf.immersion_grid(grid, p, grid.q)
    gp = sf.partials(grid)
    alpha_t, beta_t = gp.cu[..., :3], gp.cv[..., :3]
    r = grid.diff(alpha_t, 1) - grid.diff(beta_t, 0) - 2.0 * quat.cross(alpha_t, beta_t)
    want = float(sf.interior(np.linalg.norm(r, axis=-1)).max())
    got = sf.integrability_residuals(gp, *sf.extract_coefficients(gp.cu, gp.cv))[0]
    assert got.hex() == want.hex()


def test_lambda_field_example1_value():
    gp = sf.partials(small_fixture("example1"))
    lam = sf.interior(sf.lambda_field(gp))
    target = -1.0 / 3.0 + 1j / SQ3
    assert np.abs(lam - target).max() < 1e-4
    # metric-level and quadratic-form routes agree: the quadratic form is
    # (1 + i sqrt3)/4 times the complex square of alpha_t - i beta_t
    z = gp.cu[..., :3] - 1j * gp.cv[..., :3]
    lam_q = 0.25 * (1 + 1j * SQ3) * np.sum(z * z, axis=-1)
    assert np.abs(sf.interior(lam_q) - target).max() < 1e-4
    assert np.abs(sf.interior(lam_q) - lam).max() < 1e-4


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_lambda_real_part_is_the_alignment_product(name):
    # `analyze` forms P phi_u once and hands twice lambda's real part to the
    # alignment defects as g(P phi_u, phi_u): both bit for bit
    gp = sf.partials(small_fixture(name))
    pu = gp.cu @ frame.P_MAT.T
    lam = sf.lambda_field(gp, pu)
    assert np.array_equal(lam, sf.lambda_field(gp))
    assert np.array_equal(2.0 * lam.real, frame.gram_product(pu, gp.cu))


def test_cr_residuals_example1_exact():
    gp = sf.partials(small_fixture("example1"))
    assert sf.cr_residuals(gp, *sf.extract_coefficients(gp.cu, gp.cv)) < 1e-10


@pytest.mark.parametrize("k", [0, 1])
def test_cr_residuals_read_each_equation(k):
    # alpha = (1 + s, 0, 0) and beta = (0, 1, 0) along s = u or v: their dot
    # product vanishes and |alpha|^2 - |beta|^2 varies along s alone, so the
    # first equation alone fails for s = v, the second alone for s = u; the
    # stencils are exact on the quadratic, and the residual is max (1 + s)
    lat = sf.lattice(0.0, 0.0, 0.1, 0.1, 9, 9)
    s = np.broadcast_to((lat.u_vals[:, None], lat.v_vals[None, :])[k], (9, 9))
    alpha = np.zeros((9, 9, 3))
    alpha[..., 0] = 1.0 + s
    beta = np.zeros((9, 9, 3))
    beta[..., 1] = 1.0
    assert sf.cr_residuals(lat, alpha, beta) == pytest.approx(1.0 + sf.interior(s).max())


def test_alignment_reads_the_off_normal_part_along_phi_v():
    # P phi_u replaced by phi_v less its phi_u part on the flat torus:
    # g(P phi_u, phi_u) vanishes to roundoff, so the only off-normal part
    # lies along phi_v
    grid = small_fixture("example1")
    gp = sf.partials(grid)
    E, F, _ = gp.first_form
    pu = gp.cv - (F / E)[..., None] * gp.cu
    a = frame.gram_product(pu, gp.cu)
    assert np.abs(a).max() < 1e-12
    normal_dev, tangent_dev = sf._alignment_defects(gp, pu, a)
    assert normal_dev == pytest.approx(1.0, rel=1e-3)  # |b| / (|P phi_u| |phi_u|)
    assert tangent_dev < 1e-12
    assert sf.classify_P_alignment(grid.summary, normal_dev, tangent_dev) == "tangent"


def test_induced_metric_example1():
    grid = small_fixture("example1")
    gp = sf.partials(grid)
    E, F, G = sf.induced_metric(gp.cu, gp.cv)
    # alpha_t=(1,0,0), gamma_t=0: E = g((pi,0),(pi,0)) = 4/3; adapted grids
    # are conformal (phi_v = J phi_u), so F = g(phi_u, J phi_u) = 0 and G = E
    assert np.abs(sf.interior(E) - 4.0 / 3.0).max() < 1e-4
    assert np.abs(sf.interior(F)).max() < 1e-4
    assert np.abs(sf.interior(G) - 4.0 / 3.0).max() < 1e-4


def test_lattice_stencils_read_each_axis_step():
    # du != dv, so a stencil that read the other axis's step would fail;
    # each method against the formula it stands for, bit for bit
    lat = sf.lattice(0.0, 0.0, 1e-3, 3e-3, 64, 48)
    u, v = np.meshgrid(lat.u_vals, lat.v_vals, indexing="ij")
    f = np.stack([np.sin(u) * np.cos(2.0 * v), u * v], axis=-1)
    for axis, h in ((0, lat.du), (1, lat.dv)):
        want = np.gradient(f, h, axis=axis, edge_order=2)
        assert np.array_equal(lat.diff(f, axis), want)
        g = np.moveaxis(f, axis, 0)
        d2 = np.empty_like(g)
        d2[1:-1] = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / (h * h)
        d2[0] = (2.0 * g[0] - 5.0 * g[1] + 4.0 * g[2] - g[3]) / (h * h)
        d2[-1] = (2.0 * g[-1] - 5.0 * g[-2] + 4.0 * g[-3] - g[-4]) / (h * h)
        assert np.array_equal(lat.diff2(f, axis), np.moveaxis(d2, 0, axis))
        trap = np.zeros_like(g)
        trap[1:] = np.cumsum(0.5 * h * (g[1:] + g[:-1]), axis=0)
        assert np.array_equal(lat.cumtrapz(f, axis), np.moveaxis(trap, 0, axis))
    # the second derivatives of sin(u) cos(2v) are -f along u and -4f along v
    wave = f[..., 0]
    assert np.abs(lat.diff2(wave, 0) + wave)[2:-2].max() < 1e-6
    assert np.abs(lat.diff2(wave, 1) + 4.0 * wave)[:, 2:-2].max() < 2e-5
    with pytest.raises(ValueError, match="at least 4 samples"):
        lat.diff2(wave[:3], 0)


def test_cumtrapz_continues_an_integral_bit_for_bit():
    # the bytes of the formula, signed zeros included (np.array_equal takes
    # -0.0 for 0.0), and an integral cut in two lines and continued from the
    # last line of the first part equals the whole
    lat = sf.lattice(0.0, 0.0, 1e-2, 1e-2, 9, 7)
    f = np.sin(np.arange(9 * 7 * 3)).reshape(9, 7, 3)
    f[:, :, 1] = -0.0
    steps = np.cumsum(0.5 * lat.du * (f[1:] + f[:-1]), axis=0)
    want = np.concatenate([np.zeros_like(f[:1]), steps])
    whole = lat.cumtrapz(f, 0)
    assert whole.tobytes() == want.tobytes()
    assert np.signbit(whole[1:, :, 1]).all()
    head = lat.cumtrapz(f[:4], 0)
    tail = lat.cumtrapz(f[3:], 0, head[-1])
    assert np.concatenate([head, tail[1:]]).tobytes() == whole.tobytes()


def test_unequal_steps_end_to_end():
    # example2 with du != dv through analysis and both integrators: every
    # residual stays at the second-order level of the larger step
    grid = fixtures.make_fixture("example2", nu=81, nv=61, du=5e-3, dv=8e-3)
    bound = 8.0 * max(grid.du, grid.dv) ** 2
    rep = sf.analyze(grid)
    for key in ("almost_complex_max", "integrability_21_max", "integrability_22_max",
                "integrability_23_max", "cr_max"):
        assert rep[key] <= bound, key
    assert abs(rep["K_mean"] - 2.0 / 3.0) <= bound
    hs, _ = hsys.epsilon_from_surface(grid)
    back, _ = hsys.surface_from_epsilon(hs)
    assert abs(sf.analyze(back)["K_mean"] - 2.0 / 3.0) <= bound


def _brioschi_by_linalg_det(lat, E, F, G):
    """The Brioschi formula with both determinants from `np.linalg.det` on
    stacked 3x3 matrices, kept as the oracle of the cofactor expansion."""
    grad, du, dv = np.gradient, lat.du, lat.dv
    Eu, Ev = grad(E, du, axis=0, edge_order=2), grad(E, dv, axis=1, edge_order=2)
    Gu, Gv = grad(G, du, axis=0, edge_order=2), grad(G, dv, axis=1, edge_order=2)
    Fu, Fv = grad(F, du, axis=0, edge_order=2), grad(F, dv, axis=1, edge_order=2)
    Evv = lat.diff2(E, 1)
    Guu = lat.diff2(G, 0)
    Fuv = grad(Fu, dv, axis=1, edge_order=2)

    def det3(rows):
        return np.linalg.det(np.stack([np.stack(r, axis=-1) for r in rows], axis=-2))

    m1 = det3([[-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev],
               [Fv - 0.5 * Gu, E, F], [0.5 * Gv, F, G]])
    m2 = det3([[np.zeros_like(E), 0.5 * Ev, 0.5 * Gu],
               [0.5 * Ev, E, F], [0.5 * Gu, F, G]])
    return (m1 - m2) / (E * G - F * F) ** 2


def test_brioschi_cofactor_expansion_matches_linalg_det():
    # smooth positive definite metrics with random coefficients: E and G
    # stay above 1 and |F| below 0.5
    rng = np.random.default_rng(3)
    h = 1e-2
    lat = sf.lattice(0.0, 0.0, h, h, 41, 37)
    u, v = np.meshgrid(lat.u_vals, lat.v_vals, indexing="ij")

    def wave():
        a, b, c, d = rng.uniform(-2.0, 2.0, 4)
        return np.sin(a * u + b * v + c) * np.cos(d * u * v)

    for _ in range(5):
        E, G = 1.5 + 0.4 * wave(), 1.2 + 0.2 * wave()
        F = 0.5 * wave()
        want = _brioschi_by_linalg_det(lat, E, F, G)
        got = sf.gaussian_curvature(lat, E, F, G)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_brioschi_round_sphere():
    # metric of the unit round sphere: E = 1, F = 0, G = sin^2 u
    lat = sf.lattice(1.0, 0.0, 2e-3, 2e-3, 41, 41)
    u = lat.u_vals
    E = np.ones((41, 41))
    F = np.zeros((41, 41))
    G = (np.sin(u)[:, None] ** 2) * np.ones((1, 41))
    K = sf.gaussian_curvature(lat, E, F, G)
    assert np.abs(sf.interior(K) - 1.0).max() < 1e-5


def slow_example1(scale):
    """example1 with both circle angles scaled by `scale`: the same adapted
    flat surface traced `1 / scale` times slower, so EG - F^2 falls as
    scale^4 while every relative defect stays at rounding level."""
    lat = sf.lattice(0.0, 0.0, 1e-2, 1e-2, 21, 21)
    u, v = lat.u_vals[:, None], lat.v_vals[None, :]
    return sf.immersion_grid(lat, circle(scale * (u - v / SQ3)),
                             circle(scale * (-2.0 * v / SQ3 + 0.0 * u)))


def test_analyze_accepts_a_slowly_traced_surface():
    # min EG - F^2 = 1.78e-12 at scale 1e-3, but over the squared largest E
    # it reads 1 at every speed: every gate and the classification read the
    # same verdicts as at scale 1
    slow, fast = sf.analyze(slow_example1(1e-3)), sf.analyze(slow_example1(1.0))
    assert slow_example1(1e-3).summary.det_min < 2e-12
    assert slow["classification"] == fast["classification"] == "tangent"
    assert slow["almost_complex_max"] < 1e-8


def test_analyze_refuses_a_degenerate_metric():
    # tangents 5e-6 apart: (EG - F^2) / E_max^2 = 2.5e-11 is refused
    # against its 1e-10, and 5e-5 apart (2.5e-9) pass.  Such a grid is far
    # from adapted (defect 1.414), so only a tol_scale above 1.414 / 0.05
    # lets `analyze` reach the floor; it passes every other gate there
    refused, kept = parallel_tangents(5e-6), parallel_tangents(5e-5)
    with pytest.raises(ValueError, match=r"^metric is degenerate: min \(EG - F\^2\) / "
                                         r"E_max\^2 2\.500e-11 below 1\.0e-10$"):
        sf.analyze(refused, tol_scale=100.0)
    assert sf.require_adapted(refused.summary, 100.0) == pytest.approx(np.sqrt(2.0))
    assert sf.require_imaginary(refused.summary) < 1e-14
    assert sf.analyze(kept, tol_scale=100.0)["classification"] == "tangent"
    with pytest.raises(ValueError, match="not adapted"):
        sf.analyze(kept)


def parallel_or_still(still):
    """41^2 at step 0.025 with p = q: (cos(u + v), sin(u + v), 0, 0), whose
    tangents phi_u = phi_v are parallel, or (cos v, 0, sin v, 0), which
    does not move along u."""
    lat = sf.lattice(0.0, 0.0, 0.025, 0.025, 41, 41)
    u, v = np.meshgrid(lat.u_vals, lat.v_vals, indexing="ij")
    zero = np.zeros_like(u)
    p = np.stack([np.cos(v), zero, np.sin(v), zero] if still
                 else [np.cos(u + v), np.sin(u + v), zero, zero], axis=-1)
    return sf.immersion_grid(lat, p, p.copy())


@pytest.mark.parametrize("points", [300, 567, 8192])
@pytest.mark.parametrize("still, refusal", [
    (False, r"^grid is not adapted: relative almost-complex defect 1\.414e\+00 "),
    (True, r"^grid is not an immersion: relative derivative norm 0\.000e\+00 below 1\.0e-08$"),
], ids=["parallel", "still"])
def test_degenerate_grid_meets_its_first_gate_only(monkeypatch, points, still,
                                                    refusal):
    # EG - F^2 vanishes on every row, so every slab's stages divide by
    # zero; the fault waits for the gates, and `analyze` raises the gate's
    # error alone, with no RuntimeWarning (which pytest turns into an error
    # here)
    monkeypatch.setattr(sf, "_POINTS", points)
    with pytest.raises(ValueError, match=refusal):
        sf.analyze(parallel_or_still(still))


def test_a_stage_fault_refuses_the_grid_after_its_gates(monkeypatch):
    # a grid that passes every gate, whose third slab's stages divide by
    # zero: every slab's partials are formed once, the gates run after the
    # pass, and only then does the slab's FloatingPointError refuse the
    # grid; `analyze`'s own errstate raises it where numpy would warn
    monkeypatch.setattr(sf, "_POINTS", SLAB_POINTS)
    grid = slab_grid(101, 101)
    events = []
    for name in ("partials", "_analysis_slab", "require_imaginary"):
        call = getattr(sf, name)
        monkeypatch.setattr(sf, name, lambda *args, call=call, name=name:
                            events.append(name) or call(*args))
    cr = sf.cr_residuals

    def faulting(lat, alpha, beta):
        if events.count("_analysis_slab") == 3:
            np.divide(1.0, np.zeros(1))
        return cr(lat, alpha, beta)

    monkeypatch.setattr(sf, "cr_residuals", faulting)
    with pytest.raises(FloatingPointError, match="^divide by zero encountered in divide$"):
        sf.analyze(grid)
    slabs = len(list(sf.halo_slabs(grid)))
    assert slabs > 3
    assert events == ["partials", "_analysis_slab"] * slabs + ["require_imaginary"]


def test_gaussian_curvature_fixture_values():
    g1 = small_fixture("example1", n=31)
    gp1 = sf.partials(g1)
    K1 = sf.interior(sf.gaussian_curvature(gp1, *gp1.first_form))
    assert np.abs(K1).max() < 1e-8
    gp2 = sf.partials(small_fixture("example2", n=31))
    K2 = sf.interior(sf.gaussian_curvature(gp2, *gp2.first_form))
    assert np.abs(K2 - 2.0 / 3.0).max() < 1e-4


def test_second_fundamental_form_example1_vanishes():
    grid = small_fixture("example1")
    for k in range(3):
        h = sf.second_fundamental_form(sf.partials(grid), k)
        assert sf.interior(np.abs(h)).max() < 1e-10
    assert sf.analyze(grid)["h_norm_max"] < 1e-10


def test_analyze_reads_the_cylinder_second_form():
    # a surface with h != 0 (the cmc_cylinder potential integrated back):
    # every h_norm_max bound elsewhere is an upper one, so this pins the
    # reduction to the exact unit norm 1/sqrt(3)
    hs = fixtures.make_fixture("cmc_cylinder", nu=41, nv=21, du=6e-3, dv=6e-3)
    grid, _ = hsys.surface_from_epsilon(hs)
    assert abs(sf.analyze(grid)["h_norm_max"] - 1.0 / SQ3) < 1e-8


def test_second_fundamental_form_symmetry_example2():
    grid = small_fixture("example2", n=31)
    gp = sf.partials(grid)
    base = nk.Point(grid.p, grid.q)
    phi_u = nk.from_frame_coords(base, gp.cu * TO_FRAME)
    phi_v = nk.from_frame_coords(base, gp.cv * TO_FRAME)
    # h is normal-valued: residual inner products with the tangent plane
    for k in range(3):
        hh = nk.from_frame_coords(base, sf.second_fundamental_form(gp, k) * TO_FRAME)
        a = np.abs(nk.metric(hh, phi_u))
        b = np.abs(nk.metric(hh, phi_v))
        assert sf.interior(np.maximum(a, b)).max() < 1e-10


def test_classify_alignment():
    assert classify(small_fixture("example1")) == "tangent"
    assert classify(small_fixture("example2", n=31)) == "normal"
    g3 = fixtures.non_adapted_grid(sf.lattice(0.0, 0.0, 5e-2, 5e-2, 15, 15))
    assert classify(g3) == "mixed"
    # a NaN deviation matches neither alignment
    assert sf.classify_P_alignment(g3.summary, np.nan, np.nan) == "mixed"


def test_analyze_report_schema_and_values():
    grid = small_fixture("example1", n=31)
    rep = sf.analyze(grid)
    keys = {
        "almost_complex_max", "integrability_21_max", "integrability_22_max",
        "integrability_23_max", "cr_max", "lambda_max_abs", "K_mean",
        "K_max_dev", "h_norm_max", "classification", "grid",
    }
    assert keys == set(rep)
    assert rep["classification"] == "tangent"
    assert abs(rep["K_mean"]) < 1e-8
    assert abs(rep["lambda_max_abs"] - 2.0 / 3.0) < 1e-4
    assert rep["grid"]["nu"] == 31 and rep["grid"]["du"] == 1e-2


@pytest.mark.parametrize("name", ["example2", "example1"])
def test_frame_kernel_matches_ambient_operators(name):
    # coefficient results against the ambient quaternion operators, on a
    # random isometry image of a fixture grid (general position); lambda
    # vanishes on the round sphere, so the flat torus checks it too
    grid = moved_fixture(name)
    base = nk.Point(grid.p, grid.q)
    gp = sf.partials(grid)

    def ambient_partial(axis, step):
        comps = []
        for arr in (grid.p, grid.q):
            raw = np.gradient(arr, step, axis=axis, edge_order=2)
            comps.append(raw - quat.dot(raw, arr)[..., None] * arr)
        return nk.Tangent(base, *comps)

    phi_u = ambient_partial(0, grid.du)
    phi_v = ambient_partial(1, grid.dv)
    assert np.abs(nk.frame_coords(phi_u) - gp.cu * TO_FRAME).max() < 1e-12
    assert np.abs(nk.frame_coords(phi_v) - gp.cv * TO_FRAME).max() < 1e-12

    E, F, G = nk.metric(phi_u, phi_u), nk.metric(phi_u, phi_v), nk.metric(phi_v, phi_v)
    for got, want in zip(gp.first_form, (E, F, G)):
        assert np.abs(got - want).max() < 1e-12

    j_u = nk.apply_J(phi_u)
    ac = nk.gnorm(phi_v - j_u) / nk.gnorm(phi_u)
    assert np.abs(sf.almost_complex_residual(gp) - sf.interior(ac)).max() < 1e-12
    p_u = nk.apply_P(phi_u)
    lam = 0.5 * (nk.metric(p_u, phi_u) - 1j * nk.metric(p_u, j_u))
    assert np.abs(sf.lambda_field(gp) - lam).max() < 1e-12

    def normal_part(W):
        a, b = nk.metric(W, phi_u), nk.metric(W, phi_v)
        det = E * G - F * F
        return W - ((G * a - F * b) / det) * phi_u - ((E * b - F * a) / det) * phi_v

    for k in range(3):
        hc = sf.second_fundamental_form(gp, k)
        normal = normal_part(nk.from_frame_coords(base, hc * TO_FRAME))
        assert np.abs(nk.frame_coords(normal) - hc * TO_FRAME).max() < 1e-12


def test_coefficient_convention_in_general_position():
    # the partials are the raw imaginary parts of p^-1 dp and q^-1 dq, and
    # every stage reads them so; on a moved round sphere no component
    # vanishes, so a third-component flip left in or dropped anywhere (the
    # partials, the pair, the curl equation's sign, the connection's sign)
    # fails one of these
    grid = moved_fixture("example2")
    gp = sf.partials(grid)
    raw = [quat.imag(quat.qmul(quat.qconj(arr), grid.diff(arr, axis)))
           for arr in (grid.p, grid.q) for axis in (0, 1)]
    assert min(np.abs(sf.interior(r)).min() for r in raw) > 1e-3
    assert np.array_equal(gp.cu, np.concatenate(raw[0::2], axis=-1))
    assert np.array_equal(gp.cv, np.concatenate(raw[1::2], axis=-1))
    alpha, beta = sf.extract_coefficients(gp.cu, gp.cv)
    for got, want in zip((alpha, beta), sf.rotate_pair(raw[0], raw[1], sf.TO_POTENTIAL)):
        assert np.array_equal(got, want)
    # the curl and divergence equations weigh a cross product, whose sign a
    # flip turns; the round sphere is totally geodesic, so h vanishes only
    # with the connection's sign right
    assert max(sf.integrability_residuals(gp, alpha, beta)) < 1e-4
    assert sf.analyze(grid)["h_norm_max"] < 1e-4


def test_grid_partials_computed_once_and_read_only():
    # a grid caches only its summary; the partials a pass forms
    # and the E field the summary keeps are read-only
    grid = small_fixture("example2")
    assert grid.summary is grid.summary
    gp = sf.partials(grid)
    assert gp.first_form is gp.first_form
    for arr in (gp.cu, gp.cv, *gp.first_form, grid.summary.E):
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0


@pytest.mark.parametrize("tol_scale", [np.nan, np.inf, 0.0, -1.0])
def test_require_adapted_rejects_bad_tol_scale(tol_scale):
    # the non-adapted control would pass an infinite limit
    grid = fixtures.non_adapted_grid(sf.lattice(-0.05, 0.0, 5e-3, 5e-3, 21, 21))
    with pytest.raises(ValueError, match="tol_scale"):
        sf.require_adapted(grid.summary, tol_scale)


@pytest.mark.parametrize("tol_scale", [np.nan, np.inf, 0.0, -1.0])
def test_analyze_rejects_bad_tol_scale(tol_scale):
    grid = small_fixture("example1")
    with pytest.raises(ValueError, match="tol_scale"):
        sf.analyze(grid, tol_scale=tol_scale)


@pytest.mark.parametrize("step", [np.nan, np.inf, 0.0, -1.0])
def test_lattice_rejects_bad_steps(step):
    with pytest.raises(ValueError, match="steps must be finite and positive"):
        sf.lattice(0.0, 0.0, step, 1e-2, 9, 9)
    with pytest.raises(ValueError, match="steps must be finite and positive"):
        sf.lattice(0.0, 0.0, 1e-2, step, 9, 9)


def test_lattice_refuses_steps_whose_square_underflows(tmp_path):
    # `Lattice.diff2` divides by h * h, which is subnormal or zero below
    # sqrt(tiny); the CSV readers build their window through `lattice` too
    floor = float(np.sqrt(np.finfo(float).tiny))
    for du, dv in ((1e-170, 1e-2), (1e-2, np.nextafter(floor, 0.0))):
        with pytest.raises(ValueError, match="subnormal squares"):
            sf.lattice(0.0, 0.0, du, dv, 9, 9)
    for step in (floor, 1.5e-154):
        lat = sf.lattice(0.0, 0.0, step, step, 9, 9)
        assert lat.du * lat.dv >= np.finfo(float).tiny
    path = tmp_path / "tiny.csv"
    rows = [f"{i * 1e-170!r},{j * 1e-170!r},{i},{j},0" for i in range(9) for j in range(9)]
    path.write_text("\n".join([io.EPSILON_HEADER, *rows]) + "\n")
    with pytest.raises(ValueError, match="subnormal squares"):
        io.read_epsilon_csv(path)


def test_lattice_window_validation_and_methods():
    with pytest.raises(ValueError, match="5x5"):
        sf.lattice(0.0, 0.0, 1e-2, 1e-2, 4, 9)
    with pytest.raises(ValueError, match="5x5"):
        sf.lattice(0.0, 0.0, 1e-2, 1e-2, 9, 4)
    with pytest.raises(ValueError, match="origin"):
        sf.lattice(np.nan, 0.0, 1e-2, 1e-2, 9, 9)
    with pytest.raises(ValueError, match="origin"):
        sf.lattice(0.0, np.inf, 1e-2, 1e-2, 9, 9)
    lat = sf.lattice(1, 2, 1e-2, 1e-2, np.int64(9), 10)
    assert type(lat.u0) is float and type(lat.nu) is int
    assert np.abs(lat.v_vals - (2.0 + 1e-2 * np.arange(10))).max() < 1e-15
    inner = lat.inset(2)
    assert (inner.nu, inner.nv) == (5, 6)
    assert abs(inner.u0 - 1.02) < 1e-15 and abs(inner.v0 - 2.02) < 1e-15
    with pytest.raises(ValueError, match="11x11"):
        lat.inset(3)
    # a grid's window holds the lattice fields only, not its arrays or its
    # cached summary
    grid = small_fixture("example1")
    assert grid.summary is not None
    assert grid.window() == {
        "u0": 0.0, "v0": 0.0, "du": 1e-2, "dv": 1e-2, "nu": 21, "nv": 21,
    }


# the slab kernels against one slab of the whole grid: a forced slab of 300
# points cuts a 101^2 grid into 3-row slabs and a 203x9 strip into 34-row
# slabs, neither a divisor of the row count
SLAB_POINTS = 300
SLAB_GRIDS = [(101, 101), (203, 9)]


def slab_grid(nu, nv):
    return fixtures.make_fixture("example2", nu=nu, nv=nv, du=1e-2, dv=1e-2)


@pytest.mark.parametrize("shape", SLAB_GRIDS)
def test_lattice_slabs_cover_each_axis_in_order(monkeypatch, shape):
    monkeypatch.setattr(sf, "_POINTS", SLAB_POINTS)
    lat = sf.lattice(0.0, 0.0, 1e-2, 1e-2, *shape)
    for axis in (0, 1):
        n, line = shape[axis], shape[1 - axis]
        slabs = lat.slabs(axis)
        assert [i for s in slabs for i in range(s.start, s.stop)] == list(range(n))
        assert all((s.stop - s.start) * line >= SLAB_POINTS for s in slabs[:-1])
        assert n % (slabs[0].stop - slabs[0].start) != 0


def whole_grid_partials(grid):
    """(cu, cv, projection_max) with each logarithmic derivative formed over
    the whole grid at once, the expression the slabs cut up."""
    reals, halves = [], []
    for arr in (grid.p, grid.q):
        for axis in (0, 1):
            log = quat.qmul(quat.qconj(arr), grid.diff(arr, axis))
            reals.append(sf.interior(np.abs(log[..., 0])).max())
            halves.append(quat.imag(log))
    cu, cv = (np.concatenate(halves[k::2], axis=-1) for k in (0, 1))
    return cu, cv, float(np.max(reals))


@pytest.mark.parametrize("shape", SLAB_GRIDS)
def test_slab_kernels_match_the_whole_grid(monkeypatch, shape):
    grid = slab_grid(*shape)
    cu, cv, real = whole_grid_partials(grid)
    for points in (SLAB_POINTS, grid.nu * grid.nv):
        monkeypatch.setattr(sf, "_POINTS", points)
        gp = sf.partials(grid)
        assert np.array_equal(gp.cu, cu) and np.array_equal(gp.cv, cv)
        assert gp.projection_max == real
        assert all(map(np.array_equal, gp.first_form, sf.induced_metric(cu, cv)))
    # the trapezoid rule summed into its own output, against the formula
    # with a separate step array and a concatenated zero row
    for axis, h in ((0, grid.du), (1, grid.dv)):
        g = np.moveaxis(grid.p, axis, 0)
        steps = np.cumsum(0.5 * h * (g[1:] + g[:-1]), axis=0)
        want = np.concatenate([np.zeros_like(g[:1]), steps], axis=0)
        assert np.array_equal(grid.cumtrapz(grid.p, axis), np.moveaxis(want, 0, axis))


def test_nan_in_last_slab_fails_closed(monkeypatch, capsys):
    # a NaN on an interior row of the last slab reaches `projection_max`
    # and the derivative norm, and through that slab's immersion floor
    # `analyze` exits 3
    monkeypatch.setattr(sf, "_POINTS", SLAB_POINTS)
    grid = slab_grid(203, 9)
    last = grid.slabs(0)[-1]
    p = grid.p.copy()
    p[last.stop - 4, 4, 0] = np.nan
    bad = sf.ImmersionGrid(**grid.window(), p=p, q=grid.q)
    assert last.start < last.stop - 4 < grid.nu - 2
    assert np.isnan(slab_defects(bad)[1])
    monkeypatch.setattr(cli, "read_immersion_csv", lambda path: bad)
    assert cli.main(["--command", "analyze", "--input", "grid.csv"]) == 3
    assert capsys.readouterr().err == (
        "input error: grid is not an immersion: relative derivative norm nan below 1.0e-08\n"
    )


# the halo passes against one slab of the whole grid: every pass reads the
# grid over `halo_slabs`, so with `_POINTS` at the grid's size each is a
# single whole-grid pass, the reference every slab size must reproduce
def fresh(grid):
    """A copy of `grid` with no cached summary."""
    return sf.ImmersionGrid(**grid.window(), p=grid.p, q=grid.q)


def halo_outputs(grid):
    """Everything the halo passes yield on a fresh copy of `grid`: its
    summary, E, rotated pair (assembled from each slab's kept rows),
    report, potential and certificate, and the potential's summary, speed
    field, mean curvature, surface and certificate."""
    grid = fresh(grid)
    summary = grid.summary
    pair = np.empty((2, grid.nu, grid.nv, 3))
    for sub, keep, rows in sf.halo_slabs(grid):
        gp = sf.partials(sub)
        pair[:, rows] = [c[keep] for c in sf.extract_coefficients(gp.cu, gp.cv)]
    hs, cert = hsys.epsilon_from_surface(grid)
    back, back_cert = hsys.surface_from_epsilon(hs)
    potential = hs.summary
    return {
        "values": (summary.almost_complex_max, summary.projection_max,
                   float(summary.det_min), potential.conformal_max, potential.h_equation_max),
        "report": sf.analyze(grid), "cert": cert, "back_cert": back_cert,
        "E": summary.E, "pair": pair, "eps": hs.eps,
        "potential": (potential.speed, hsys.mean_curvature(hs)),
        "back": (back.p, back.q),
    }


def assert_same_outputs(got, want):
    for key in ("values", "report", "cert", "back_cert"):
        assert got[key] == want[key], key
    for key in ("E", "pair", "eps"):
        assert np.array_equal(got[key], want[key]), key
    for key in ("potential", "back"):
        assert all(map(np.array_equal, got[key], want[key])), key


def cylinder_strip_surface(nu):
    """The surface `from-h` integrates from the cmc_cylinder strip nu x 11."""
    hs = fixtures.make_fixture("cmc_cylinder", nu=nu, nv=11, du=6e-3, dv=6e-3)
    return hsys.surface_from_epsilon(hs)[0]


@pytest.mark.parametrize("grid, points, slabs", [
    # 3-row slabs of a 101^2 grid, the last one, of 2 rows, merged
    (lambda: slab_grid(101, 101), SLAB_POINTS, 33),
    # the surface of the 4001x11 strip, 911-row slabs at the default size
    (lambda: cylinder_strip_surface(4001), sf._POINTS, 5),
    # example2 83x201 at the default size: its last slab of one row merges
    (lambda: fixtures.make_fixture("example2", nu=83, nv=201), sf._POINTS, 2),
], ids=["300-points", "strip", "example2-83x201"])
def test_halo_passes_match_one_whole_grid_slab(monkeypatch, grid, points, slabs):
    grid = grid()
    monkeypatch.setattr(sf, "_POINTS", grid.nu * grid.nv)
    whole = halo_outputs(grid)
    monkeypatch.setattr(sf, "_POINTS", points)
    assert len(list(sf.halo_slabs(grid))) == slabs
    assert_same_outputs(halo_outputs(grid), whole)


@pytest.mark.parametrize("shape, points", [
    ((101, 101), SLAB_POINTS), ((83, 201), 8192), ((9, 5000), 8192),
    ((9, 9000), 8192), ((7, 7), 8192),
])
def test_halo_slabs_keep_each_row_once(monkeypatch, shape, points):
    # the kept rows tile the grid in order; every sub-grid has at least 5
    # rows, and its interior is its kept rows' share of the grid's
    # interior, so the first and last slab each keep at least 3 rows
    monkeypatch.setattr(sf, "_POINTS", points)
    grid = slab_grid(*shape)
    kept, inner = [], []
    for sub, keep, rows in sf.halo_slabs(grid):
        assert np.shares_memory(sub.p, grid.p) and sub.nv == grid.nv
        assert sub.nu >= 5 and keep.stop - keep.start == rows.stop - rows.start
        assert np.array_equal(sub.p[keep], grid.p[rows])
        top = rows.start - keep.start
        inner += range(top + sf._MARGIN, top + sub.nu - sf._MARGIN)
        kept += range(rows.start, rows.stop)
    assert kept == list(range(grid.nu))
    assert inner == list(range(sf._MARGIN, grid.nu - sf._MARGIN))


@pytest.mark.parametrize("row", [5, 6, 7, 99])
def test_nan_in_a_halo_row_fails_closed(monkeypatch, row):
    # 3-row slabs: row 5 is the last kept row of one slab and in the halo
    # of the next, 6 and 7 the reverse, 99 in the merged last slab; the
    # NaN reaches both gated defects and the derivative norm, and every
    # command refuses the grid with the immersion floor's message and no
    # RuntimeWarning (which pytest turns into an error here)
    monkeypatch.setattr(sf, "_POINTS", SLAB_POINTS)
    grid = slab_grid(101, 101)
    p = grid.p.copy()
    p[row, 50, 0] = np.nan
    bad = sf.ImmersionGrid(**grid.window(), p=p, q=grid.q)
    assert np.isnan(slab_defects(bad)).all()
    for run in (sf.analyze, hsys.epsilon_from_surface):
        with pytest.raises(ValueError, match=NAN_FLOOR):
            run(fresh(bad))


# the floors refuse in the slab that measures them: at 300 points a 41^2
# grid is cut into five 8-row slabs (the last with the one leftover row),
# and a grid that stops moving from row 30 on first fails in the fourth,
# rows 24-31, whose row 31 has a vanishing derivative
def count_calls(monkeypatch, owner, name):
    """The list that every call of `owner.name` appends to while the test runs."""
    calls, call = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or call(*args))
    return calls


@pytest.mark.parametrize("read", [sf.analyze, lambda grid: grid.summary],
                         ids=["analyze", "summary"])
def test_a_grid_is_refused_in_its_first_slab_below_the_floor(monkeypatch, read):
    monkeypatch.setattr(sf, "_POINTS", SLAB_POINTS)
    grid = small_fixture("example2", n=41)
    p, q = grid.p.copy(), grid.q.copy()
    p[30:], q[30:] = p[30], q[30]
    still = sf.immersion_grid(grid, p, q)
    slabs = [rows for _, _, rows in sf.halo_slabs(still)]
    assert len(slabs) == 5 and slabs[3] == slice(24, 32)
    formed = count_calls(monkeypatch, sf, "partials")
    with pytest.raises(ValueError,
                       match=r"^grid is not an immersion: relative derivative norm "
                             r"0\.000e\+00 below"):
        read(still)
    assert len(formed) == 4


def test_a_potential_is_refused_in_its_first_slab_below_the_floor(monkeypatch):
    # the potential held at one value from row 30 on: its speed vanishes
    # from row 31 on, in the fourth slab
    monkeypatch.setattr(sf, "_POINTS", SLAB_POINTS)
    hs = fixtures.make_fixture("cmc_sphere", nu=41, nv=41)
    eps = hs.eps.copy()
    eps[30:] = eps[30, 0]
    held = hsys.h_surface_grid(hs, eps)
    assert len(list(sf.halo_slabs(held))) == 5
    formed = count_calls(monkeypatch, hsys.HSurfaceGrid, "partials")
    with pytest.raises(ValueError, match=r"^derivatives vanish on the interior: relative speed "
                       r"0\.000e\+00 below 1\.0e-10; not a solution surface$"):
        held.summary
    assert len(formed) == 4
