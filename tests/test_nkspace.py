import numpy as np
import pytest

from nks3 import nkspace as nk
from nks3 import quat

SQ3 = nk.SQRT3


def origin():
    return nk.Point(quat.ONE.copy(), quat.ONE.copy())


def test_frame_at_origin():
    e1, e2, e3, f1, f2, f3 = nk.frame(origin())
    assert np.allclose(e1.u, quat.QI) and np.allclose(e1.v, 0.0)
    assert np.allclose(e2.u, quat.QJ) and np.allclose(e2.v, 0.0)
    assert np.allclose(e3.u, -quat.QK) and np.allclose(e3.v, 0.0)
    assert np.allclose(f1.v, quat.QI) and np.allclose(f1.u, 0.0)
    assert np.allclose(f2.v, quat.QJ) and np.allclose(f2.u, 0.0)
    assert np.allclose(f3.v, -quat.QK) and np.allclose(f3.u, 0.0)


def test_frame_coords_roundtrip():
    rng = np.random.default_rng(0)
    base = nk.random_point(rng, (40,))
    c = rng.standard_normal((40, 6))
    Z = nk.from_frame_coords(base, c)
    assert np.abs(nk.frame_coords(Z) - c).max() < 1e-14
    # and the other direction, starting from ambient components
    W = nk.random_tangent(rng, base)
    W2 = nk.from_frame_coords(base, nk.frame_coords(W))
    assert np.abs(W2.u - W.u).max() < 1e-14
    assert np.abs(W2.v - W.v).max() < 1e-14


def test_tangent_validation():
    base = origin()
    nk.tangent(base, quat.QI, quat.QJ)
    with pytest.raises(ValueError):
        nk.tangent(base, quat.ONE, quat.QJ)


@pytest.mark.parametrize(
    "u, v",
    [([np.nan, 0.0, 0.0, 0.0], 0.0), (quat.QI, [0.0, 0.0, np.nan, 0.0])],
)
def test_tangent_rejects_nan(u, v):
    with pytest.raises(ValueError, match="not orthogonal"):
        nk.tangent(origin(), np.asarray(u), np.asarray(v))


def test_tangent_arithmetic():
    rng = np.random.default_rng(4)
    base = nk.random_point(rng, (7,))
    Z = nk.random_tangent(rng, base)
    W = nk.random_tangent(rng, base)
    s = rng.standard_normal(7)
    out = s * (Z + W) - (s * Z + s * W)
    assert np.abs(out.u).max() < 1e-14
    assert np.abs(nk.frame_coords(-Z) + nk.frame_coords(Z)).max() < 1e-15


def test_J_at_origin():
    Z = nk.tangent(origin(), quat.QI, np.zeros(4))
    JZ = nk.apply_J(Z)
    assert np.allclose(JZ.u, -quat.QI / SQ3)
    assert np.allclose(JZ.v, -2.0 * quat.QI / SQ3)


def test_P_and_Q_at_origin():
    Z = nk.tangent(origin(), quat.QI, np.zeros(4))
    PZ = nk.apply_P(Z)
    assert np.allclose(PZ.u, 0.0) and np.allclose(PZ.v, quat.QI)
    QZ = nk.apply_Q(Z)
    assert np.allclose(QZ.u, -quat.QI) and np.allclose(QZ.v, 0.0)


def test_metric_frozen_values():
    base = origin()
    e1 = nk.tangent(base, quat.QI, np.zeros(4))
    f1 = nk.tangent(base, np.zeros(4), quat.QI)
    assert abs(nk.metric(e1, e1) - 4.0 / 3.0) < 1e-15
    assert abs(nk.metric(f1, f1) - 4.0 / 3.0) < 1e-15
    assert abs(nk.metric(e1, f1) + 2.0 / 3.0) < 1e-15


def test_metric_rejects_mixed_bases():
    rng = np.random.default_rng(8)
    b1 = nk.random_point(rng)
    b2 = nk.random_point(rng)
    Z = nk.random_tangent(rng, b1)
    W = nk.random_tangent(rng, b2)
    with pytest.raises(ValueError):
        nk.metric(Z, W)


@pytest.mark.parametrize("factor", ["p", "q"])
def test_metric_rejects_nan_base(factor):
    # a base built without `point` can carry NaN; comparing it must not pass
    base = origin()
    bad = nk.Point(
        np.array([np.nan, 0.0, 0.0, 0.0]) if factor == "p" else base.p,
        np.array([np.nan, 0.0, 0.0, 0.0]) if factor == "q" else base.q,
    )
    Z = nk.Tangent(bad, quat.QI, np.zeros(4))
    W = nk.tangent(base, quat.QI, np.zeros(4))
    for a, b in ((Z, W), (W, Z)):
        with pytest.raises(ValueError, match="different base points"):
            nk.metric(a, b)


def test_connection_frozen_values():
    # derivative of the second frame field along the first, per factor
    c = nk.conn_frame(1, 2, "EE")
    assert np.allclose(c, [0.0, 0.0, -1.0, 0.0, 0.0, 0.0])
    c = nk.conn_frame(1, 2, "FF")
    assert np.allclose(c, [0.0, 0.0, 0.0, 0.0, 0.0, -1.0])
    c = nk.conn_frame(1, 2, "EF")
    assert np.allclose(c, [0.0, 0.0, 1.0 / 3.0, 0.0, 0.0, -1.0 / 3.0])
    c = nk.conn_frame(1, 2, "FE")
    assert np.allclose(c, [0.0, 0.0, -1.0 / 3.0, 0.0, 0.0, 1.0 / 3.0])
    assert np.allclose(nk.conn_frame(1, 1, "EE"), 0.0)
    with pytest.raises(ValueError):
        nk.conn_frame(1, 2, "GE")
    with pytest.raises(ValueError):
        nk.conn_frame(0, 2, "EE")


def test_structure_tensor_frozen_values():
    rng = np.random.default_rng(12)
    base = nk.random_point(rng)
    fr = nk.frame(base)
    cg = 2.0 / (3.0 * SQ3)
    g12 = nk.frame_coords(nk.tensor_G(fr[0], fr[1]))
    assert np.allclose(g12, [0.0, 0.0, -cg, 0.0, 0.0, -2.0 * cg])
    g1f2 = nk.frame_coords(nk.tensor_G(fr[0], fr[4]))
    assert np.allclose(g1f2, [0.0, 0.0, -cg, 0.0, 0.0, cg])
    h12 = nk.frame_coords(nk.tensor_H(fr[0], fr[1]))
    assert np.allclose(h12, [0.0, 0.0, 1.0 / 3.0, 0.0, 0.0, 2.0 / 3.0])
    h1f2 = nk.frame_coords(nk.tensor_H(fr[0], fr[4]))
    assert np.allclose(h1f2, [0.0, 0.0, -2.0 / 3.0, 0.0, 0.0, -1.0 / 3.0])


def test_curvature_oracle_frozen_entry():
    # R(E1, E2)E2 = E1, expanded by hand from the connection and bracket tables
    oracle = nk.curvature_oracle_table()
    assert np.allclose(oracle[0, 1, 1], [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    # mixed-factor pairs with matching index are flat
    assert np.allclose(oracle[0, 3, 3], 0.0)


def test_sectional_curvature_frozen_values():
    rng = np.random.default_rng(21)
    base = nk.random_point(rng)
    fr = nk.frame(base)
    assert abs(nk.sectional_curvature(fr[0], fr[1]) - 0.75) < 1e-12
    assert abs(nk.sectional_curvature(fr[0], fr[3])) < 1e-12


def test_curvature_symmetries_random():
    rng = np.random.default_rng(30)
    base = nk.random_point(rng, (60,))
    X = nk.random_tangent(rng, base)
    Y = nk.random_tangent(rng, base)
    Z = nk.random_tangent(rng, base)
    W = nk.random_tangent(rng, base)
    r_xyzw = nk.metric(nk.curvature(X, Y, Z), W)
    r_yxzw = nk.metric(nk.curvature(Y, X, Z), W)
    r_xywz = nk.metric(nk.curvature(X, Y, W), Z)
    r_zwxy = nk.metric(nk.curvature(Z, W, X), Y)
    assert np.abs(r_xyzw + r_yxzw).max() < 1e-12
    assert np.abs(r_xyzw + r_xywz).max() < 1e-12
    assert np.abs(r_xyzw - r_zwxy).max() < 1e-12
    bianchi = (
        nk.curvature(X, Y, Z) + nk.curvature(Y, Z, X) + nk.curvature(Z, X, Y)
    )
    assert np.abs(nk.frame_coords(bianchi)).max() < 1e-12


def _varying_field(c4, d4):
    def field(pt):
        w = np.zeros(np.shape(pt.p)[:-1] + (6,))
        w[..., 0] = np.sin(quat.dot(pt.p, c4))
        w[..., 4] = np.cos(quat.dot(pt.q, d4))
        return nk.from_frame_coords(pt, w)

    return field


def test_covariant_derivative_converges_to_exact():
    rng = np.random.default_rng(33)
    c4 = rng.standard_normal(4)
    d4 = rng.standard_normal(4)
    field = _varying_field(c4, d4)
    base = nk.random_point(rng)
    X = nk.random_tangent(rng, base)

    # exact value: differentiate the coefficients analytically, then add the
    # connection term on the constant part of the frame expansion
    w0 = nk.frame_coords(field(base))
    dw = np.zeros(6)
    dw[0] = np.cos(quat.dot(base.p, c4)) * quat.dot(X.u, c4)
    dw[4] = -np.sin(quat.dot(base.q, d4)) * quat.dot(X.v, d4)
    x = nk.frame_coords(X)
    exact = dw + np.einsum("abk,a,b->k", nk.CONN, x, w0)

    err = {}
    for h in (2e-3, 1e-3):
        got = nk.frame_coords(nk.covariant_derivative(field, X, step=h))
        err[h] = np.abs(got - exact).max()
    assert err[1e-3] < 2e-6
    # halving the step should cut the error by about four
    assert 3.5 < err[2e-3] / err[1e-3] < 4.5


def test_covariant_derivative_frame_field_is_exact():
    # constant-coefficient fields have no finite-difference part at all
    rng = np.random.default_rng(35)
    base = nk.random_point(rng)
    X = nk.random_tangent(rng, base)

    def field(pt):
        return nk.from_frame_coords(pt, np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]))

    got = nk.frame_coords(nk.covariant_derivative(field, X, step=1e-3))
    want = np.einsum("bk,b->k", nk.CONN[:, 1], nk.frame_coords(X))
    assert np.abs(got - want).max() < 1e-12


def test_hermitian_connection_parallel_J():
    rng = np.random.default_rng(37)
    c4 = rng.standard_normal(4)
    d4 = rng.standard_normal(4)
    field = _varying_field(c4, d4)

    def j_field(pt):
        return nk.apply_J(field(pt))

    base = nk.random_point(rng)
    X = nk.random_tangent(rng, base)
    lhs = nk.hermitian_connection(j_field, X, step=1e-4)
    rhs = nk.apply_J(nk.hermitian_connection(field, X, step=1e-4))
    assert np.abs(nk.frame_coords(lhs - rhs)).max() < 1e-6


def test_isometry_equivariance():
    rng = np.random.default_rng(41)
    iso = nk.random_isometry(rng)
    base = nk.random_point(rng, (25,))
    X = nk.random_tangent(rng, base)
    Y = nk.random_tangent(rng, base)
    assert np.abs(quat.norm(iso.apply_point(base).p) - 1.0).max() < 1e-14

    gx = nk.metric(iso.push(X), iso.push(Y)) - nk.metric(X, Y)
    assert np.abs(gx).max() < 1e-13
    jx = iso.push(nk.apply_J(X)) - nk.apply_J(iso.push(X))
    assert np.abs(nk.frame_coords(jx)).max() < 1e-13
    px = iso.push(nk.apply_P(X)) - nk.apply_P(iso.push(X))
    assert np.abs(nk.frame_coords(px)).max() < 1e-13


def test_identity_report_within_thresholds():
    report, thresholds, ok = nk.verify(samples=300, seed=5)
    assert ok, {k: v for k, v in report.items() if v > thresholds[k]}


def test_identity_report_flags_scaled_J():
    report, thresholds, ok = nk.verify(samples=100, seed=5, j_scale=1.1)
    assert not ok
    assert report["j_squared"] > 0.1
    assert report["curvature_vs_oracle"] > 1e-3
    assert report["metric_two_forms"] > 1e-3
    # P J + J P = 0 survives any rescaling of J, so this entry stays clean
    assert report["pj_anticommute"] < 1e-12


def test_identity_tables_fire_under_scaled_J():
    # reference values from a per-entry loop over the tables; a wrong einsum
    # index moves them
    expected = {
        "j_derivative_table": 0.0769800358919502,
        "hermitian_j_parallel": 0.0846780394811452,
        "hermitian_p_parallel": 0.0666666666666668,
        "g_tensor_derivative": 0.0513200239279668,
        "curvature_vs_oracle": 0.0933333333333335,
    }
    report = nk.identity_report(samples=10, seed=1, j_scale=1.1)
    for key, value in expected.items():
        assert abs(report[key] - value) <= 1e-9 * value, key


def test_p_derivative_table_fires_on_perturbed_table(monkeypatch):
    # the P-derivative table does not involve J, so perturb the table itself
    bad = nk.H_TABLE.copy()
    bad[0, 4, 2] += 1e-6
    monkeypatch.setattr(nk, "H_TABLE", bad)
    report, _, ok = nk.verify(samples=10, seed=1)
    assert not ok
    assert abs(report["p_derivative_table"] - 1e-6) < 1e-12


def test_identity_report_empty_for_zero_samples():
    with pytest.raises(ValueError, match="samples must be at least 1"):
        nk.identity_report(samples=0)


@pytest.mark.parametrize("tol_scale", [np.nan, np.inf, 0.0, -1.0])
def test_verify_rejects_bad_tol_scale(tol_scale):
    with pytest.raises(ValueError, match="tol_scale"):
        nk.verify(samples=10, tol_scale=tol_scale)
