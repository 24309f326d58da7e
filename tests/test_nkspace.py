import numpy as np
import pytest

from nks3 import frame
from nks3 import nkspace as nk
from nks3 import quat

QI, QJ, QK = np.eye(4)[1:]  # the imaginary units i, j, k

SQ3 = frame.SQRT3


def origin():
    return nk.Point(quat.ONE.copy(), quat.ONE.copy())


def test_frame_at_origin():
    e1, e2, e3, f1, f2, f3 = nk.frame(origin())
    assert np.allclose(e1.u, QI) and np.allclose(e1.v, 0.0)
    assert np.allclose(e2.u, QJ) and np.allclose(e2.v, 0.0)
    assert np.allclose(e3.u, -QK) and np.allclose(e3.v, 0.0)
    assert np.allclose(f1.v, QI) and np.allclose(f1.u, 0.0)
    assert np.allclose(f2.v, QJ) and np.allclose(f2.u, 0.0)
    assert np.allclose(f3.v, -QK) and np.allclose(f3.u, 0.0)


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


def test_tangent_arithmetic():
    rng = np.random.default_rng(4)
    base = nk.random_point(rng, (7,))
    Z = nk.random_tangent(rng, base)
    W = nk.random_tangent(rng, base)
    s = rng.standard_normal(7)
    out = s * (Z + W) - (s * Z + s * W)
    assert np.abs(out.u).max() < 1e-14


def test_J_at_origin():
    Z = nk.Tangent(origin(), QI, np.zeros(4))
    JZ = nk.apply_J(Z)
    assert np.allclose(JZ.u, -QI / SQ3)
    assert np.allclose(JZ.v, -2.0 * QI / SQ3)


def test_P_and_Q_at_origin():
    Z = nk.Tangent(origin(), QI, np.zeros(4))
    PZ = nk.apply_P(Z)
    assert np.allclose(PZ.u, 0.0) and np.allclose(PZ.v, QI)
    QZ = nk.apply_Q(Z)
    assert np.allclose(QZ.u, -QI) and np.allclose(QZ.v, 0.0)


def test_metric_frozen_values():
    base = origin()
    e1 = nk.Tangent(base, QI, np.zeros(4))
    f1 = nk.Tangent(base, np.zeros(4), QI)
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
def test_same_base_gate_near_its_tolerance(factor):
    # base points 5e-12 apart, 5x the 1e-12 tolerance, are refused, so a
    # tenfold looser tolerance fails here; 5e-13 apart (0.5x) pass
    base = origin()
    for shift, ok in ((5e-13, True), (5e-12, False)):
        moved = quat.ONE + shift * QJ
        other = nk.Point(moved if factor == "p" else base.p,
                         moved if factor == "q" else base.q)
        Z = nk.Tangent(base, QI, np.zeros(4))
        W = nk.Tangent(other, QI, np.zeros(4))
        if ok:
            assert nk.metric(Z, W) == 4.0 / 3.0
            continue
        with pytest.raises(ValueError, match=r"deviation 5\.000e-12 exceeds 1\.0e-12$"):
            nk.metric(Z, W)


@pytest.mark.parametrize("factor", ["p", "q"])
def test_metric_rejects_nan_base(factor):
    # a base built without `point` can carry NaN; comparing it must not pass
    base = origin()
    bad = nk.Point(
        np.array([np.nan, 0.0, 0.0, 0.0]) if factor == "p" else base.p,
        np.array([np.nan, 0.0, 0.0, 0.0]) if factor == "q" else base.q,
    )
    Z = nk.Tangent(bad, QI, np.zeros(4))
    W = nk.Tangent(base, QI, np.zeros(4))
    for a, b in ((Z, W), (W, Z)):
        with pytest.raises(ValueError, match="different base points"):
            nk.metric(a, b)


def test_connection_frozen_values():
    # derivative of the second frame field along the first, per factor
    # (E1, E2), (F1, F2), (E1, F2), (F1, E2) in frame indices
    assert np.allclose(frame.CONN[0, 1], [0.0, 0.0, -1.0, 0.0, 0.0, 0.0])
    assert np.allclose(frame.CONN[3, 4], [0.0, 0.0, 0.0, 0.0, 0.0, -1.0])
    assert np.allclose(frame.CONN[0, 4], [0.0, 0.0, 1.0 / 3.0, 0.0, 0.0, -1.0 / 3.0])
    assert np.allclose(frame.CONN[3, 1], [0.0, 0.0, -1.0 / 3.0, 0.0, 0.0, 1.0 / 3.0])
    assert np.allclose(frame.CONN[0, 0], 0.0)


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
    e1, e2, _, f1, _, _ = np.eye(6)
    assert abs(nk.sectional_curvature(e1, e2) - 0.75) < 1e-12
    assert abs(nk.sectional_curvature(e1, f1)) < 1e-12


def test_curvature_symmetries_random():
    rng = np.random.default_rng(30)
    X, Y, Z, W = rng.standard_normal((4, 60, 6))
    R, g = nk.curvature_coeff, frame.gram_product
    r_xyzw = g(R(X, Y, Z), W)
    r_yxzw = g(R(Y, X, Z), W)
    r_xywz = g(R(X, Y, W), Z)
    r_zwxy = g(R(Z, W, X), Y)
    assert np.abs(r_xyzw + r_yxzw).max() < 1e-12
    assert np.abs(r_xyzw + r_xywz).max() < 1e-12
    assert np.abs(r_xyzw - r_zwxy).max() < 1e-12
    bianchi = R(X, Y, Z) + R(Y, Z, X) + R(Z, X, Y)
    assert np.abs(bianchi).max() < 1e-12


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
    result = nk.verify(samples=300, seed=5)
    report, thresholds, ok = result["residual_max"], result["thresholds"], result["ok"]
    assert ok, {k: v for k, v in report.items() if v > thresholds[k]}


def test_identity_report_flags_scaled_J(scale_J):
    scale_J(1.1)
    result = nk.verify(samples=100, seed=5)
    report, ok = result["residual_max"], result["ok"]
    assert not ok
    assert report["j_squared"] > 0.1
    assert report["curvature_vs_oracle"] > 1e-3
    assert report["metric_two_forms"] > 1e-3
    # P J + J P = 0 survives any rescaling of J, so this entry stays clean
    assert report["pj_anticommute"] < 1e-12


def test_identity_tables_fire_under_scaled_J(scale_J):
    # reference values from a per-entry loop over the tables; a wrong einsum
    # index moves them
    expected = {
        "j_derivative_table": 0.0769800358919502,
        "hermitian_j_parallel": 0.0846780394811452,
        "hermitian_p_parallel": 0.0666666666666668,
        "g_tensor_derivative": 0.0513200239279668,
        "curvature_vs_oracle": 0.0933333333333335,
    }
    scale_J(1.1)
    report = nk.identity_report(samples=10, seed=1)
    for key, value in expected.items():
        assert abs(report[key] - value) <= 1e-9 * value, key


def test_p_derivative_table_fires_on_perturbed_table(monkeypatch):
    # the P-derivative table does not involve J, so perturb the table itself
    bad = nk.H_TABLE.copy()
    bad[0, 4, 2] += 1e-6
    monkeypatch.setattr(nk, "H_TABLE", bad)
    result = nk.verify(samples=10, seed=1)
    report, ok = result["residual_max"], result["ok"]
    assert not ok
    assert abs(report["p_derivative_table"] - 1e-6) < 1e-12


# residuals of the ambient formulas on the counter-stream samples, as
# float.hex; an identity that loses an operand or is evaluated on other
# samples moves at least one of them
_PINNED_REPORTS = {
    (1000, 42): {
        "curvature_vs_oracle": "0x1.5555555555555p-54",
        "frame_metric": "0x1.8000000000000p-51",
        "frame_representation": "0x1.0000000000000p-50",
        "g_j_invariant": "0x1.4000000000000p-47",
        "g_p_invariant": "0x1.c000000000000p-48",
        "g_p_mix": "0x1.6d3c45e9cccc1p-48",
        "g_tensor_derivative": "0x1.0000000000000p-53",
        "g_tensor_j_mix": "0x1.b0c2c401d1efcp-49",
        "g_tensor_metric_skew": "0x1.0000000000000p-47",
        "g_tensor_pair_product": "0x1.8000000000000p-46",
        "g_tensor_skew": "0x1.c2a914d7db576p-50",
        "h_j_mix": "0x1.eac08669abd50p-49",
        "h_p_first_slot": "0x1.5e979fe7834a2p-49",
        "h_p_mix": "0x1.6ec4c83376126p-49",
        "hermitian_j_parallel": "0x1.0000000000000p-53",
        "hermitian_p_parallel": "0x1.0000000000000p-53",
        "j_derivative_table": "0x1.0000000000000p-53",
        "j_squared": "0x1.2518e0b2a2fdcp-49",
        "metric_compatible": "0x0.0p+0",
        "metric_two_forms": "0x1.8000000000000p-48",
        "p_derivative_table": "0x1.0000000000000p-53",
        "p_g_compat": "0x1.f5568eb7cdb44p-49",
        "p_squared": "0x1.a19396a76efbap-50",
        "pj_anticommute": "0x1.10bfac0209a99p-50",
        "q_j_product_flip": "0x1.577518973e6eep-51",
        "q_squared": "0x0.0p+0",
        "torsion_free": "0x0.0p+0",
        "usual_metric_recovery": "0x1.0000000000000p-48",
    },
    (10000, 1): {
        "curvature_vs_oracle": "0x1.5555555555555p-54",
        "frame_metric": "0x1.0000000000000p-50",
        "frame_representation": "0x1.4000000000000p-50",
        "g_j_invariant": "0x1.4000000000000p-47",
        "g_p_invariant": "0x1.0000000000000p-47",
        "g_p_mix": "0x1.bea7a3a146cdfp-48",
        "g_tensor_derivative": "0x1.0000000000000p-53",
        "g_tensor_j_mix": "0x1.3196fd28000b6p-48",
        "g_tensor_metric_skew": "0x1.8000000000000p-47",
        "g_tensor_pair_product": "0x1.c000000000000p-46",
        "g_tensor_skew": "0x1.0583f74807ae4p-49",
        "h_j_mix": "0x1.110a1abd1554ap-48",
        "h_p_first_slot": "0x1.f1d9f2ffe28cap-49",
        "h_p_mix": "0x1.d8209b58c0a97p-49",
        "hermitian_j_parallel": "0x1.0000000000000p-53",
        "hermitian_p_parallel": "0x1.0000000000000p-53",
        "j_derivative_table": "0x1.0000000000000p-53",
        "j_squared": "0x1.4b875f8f6d50cp-49",
        "metric_compatible": "0x0.0p+0",
        "metric_two_forms": "0x1.8000000000000p-48",
        "p_derivative_table": "0x1.0000000000000p-53",
        "p_g_compat": "0x1.08e1edcd4c52ap-48",
        "p_squared": "0x1.e96a80dba4845p-50",
        "pj_anticommute": "0x1.63ec8807a6bf2p-50",
        "q_j_product_flip": "0x1.50c5344751eb7p-51",
        "q_squared": "0x0.0p+0",
        "torsion_free": "0x0.0p+0",
        "usual_metric_recovery": "0x1.0000000000000p-48",
    },
}


@pytest.mark.parametrize("samples, seed", sorted(_PINNED_REPORTS))
def test_identity_report_pinned_bit_for_bit(samples, seed):
    report = nk.identity_report(samples=samples, seed=seed)
    assert {k: v.hex() for k, v in report.items()} == _PINNED_REPORTS[samples, seed]


def _splitmix64_stream(seed, count):
    """The first `count` outputs of splitmix64 seeded with `seed`, in
    Python integers: the reference generator of Steele, Lea and Flood."""
    mask, state, out = 2**64 - 1, seed, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_draw_is_the_splitmix64_stream():
    # component c of sample i in draw d is output 40 i + 4 d + c + 1,
    # its top 53 bits k mapped to (2 k + 1 - 2^53) sqrt3 / 2^53
    key = nk._stream_key(12345)
    ref = _splitmix64_stream(12345, 3 * 40)
    for d, width in ((0, 4), (1, 4), (2, 3), (9, 3)):
        got = nk._draw(key, d, 0, 3, width)
        want = [[(2 * (ref[40 * i + 4 * d + c] >> 11) + 1 - 2**53) * (SQ3 / 2**53)
                 for c in range(width)] for i in range(3)]
        assert got.tolist() == want


def test_draw_seed_42_pinned():
    key = nk._stream_key(42)
    assert [v.hex() for v in nk._draw(key, 0, 0, 1, 4)[0]] == [
        "0x1.ac71be171d026p-1", "-0x1.2d984956f92c3p+0",
        "-0x1.88ad6ea12d534p-1", "-0x1.1458b1f782e64p-1",
    ]
    assert [v.hex() for v in nk._draw(key, 2, 0, 1, 3)[0]] == [
        "-0x1.1be6c9b10e3b4p-1", "0x1.a448c9f21bfffp-2", "-0x1.05b22dbed1022p+0",
    ]


def test_draw_reads_any_rows_directly():
    key = nk._stream_key(5)
    whole = nk._draw(key, 3, 0, 50, 3)
    assert np.array_equal(nk._draw(key, 3, 17, 20, 3), whole[17:37])


def test_draw_is_unit_variance_and_never_zero():
    x = nk._draw(nk._stream_key(8), 0, 0, 50000, 4)
    assert np.all(np.abs(x) < SQ3) and np.all(x != 0.0)
    assert abs(x.mean()) < 0.02 and abs(x.var() - 1.0) < 0.02


def test_seeds_of_any_size_run_and_differ():
    first = {seed: nk._draw(nk._stream_key(seed), 0, 0, 4, 4).tolist()
             for seed in (0, 1, 2, 2**64, 2**64 + 1, 2**200)}
    assert len({repr(v) for v in first.values()}) == len(first)
    # below 2^64 the key is the seed itself; the next word w turns the key
    # k into splitmix64(k + gamma) xor w, the first output of the stream k
    assert nk._stream_key(2**64 - 1).tolist() == [2**64 - 1]
    assert nk._stream_key(3 * 2**64 + 5).tolist() == [_splitmix64_stream(5, 1)[0] ^ 3]
    for seed in (0, 2**64, 3 * 2**100 + 7):
        result = nk.verify(samples=20, seed=seed)
        assert result["ok"], (seed, result["flagged"])


def test_negative_seed_is_refused():
    with pytest.raises(ValueError, match="seed must be non-negative"):
        nk.identity_report(samples=10, seed=-1)


def test_random_point_shapes():
    rng = np.random.default_rng(1)
    assert nk.random_point(rng).p.shape == (4,)
    assert nk.random_point(rng, (5,)).q.shape == (5, 4)
    pt = nk.random_point(rng, (2, 3))
    assert pt.p.shape == pt.q.shape == (2, 3, 4)
    pt = nk.random_point(rng, (100,))
    assert np.abs(quat.norm(pt.p) - 1.0).max() < 1e-14
    assert np.abs(quat.norm(pt.q) - 1.0).max() < 1e-14
    iso = nk.random_isometry(rng)
    for x in (iso.a, iso.b, iso.c):
        assert x.shape == (4,) and abs(quat.norm(x) - 1.0) < 1e-15
    assert nk.random_tangent(rng, pt).u.shape == (100, 4)


def _nan_in_draw(monkeypatch, index):
    """Make every tangent draw (draws 2 .. 9 of `nk._draw`) NaN at sample
    `index` when a block's rows reach that sample."""
    draw = nk._draw

    def patched(key, d, start, n, width):
        out = draw(key, d, start, n, width)
        if d >= 2 and start <= index < start + n:
            out[index - start, 0] = np.nan
        return out

    monkeypatch.setattr(nk, "_draw", patched)


_B = nk._BLOCK


@pytest.mark.parametrize("samples", [1, _B - 1, _B, _B + 1, 2 * _B + 3])
@pytest.mark.parametrize("nan_last", [False, True])
def test_blocked_report_is_single_block_report(monkeypatch, samples, nan_last):
    # the oracle runs every sample in one block; a NaN in the last sample's
    # draw sits in the last block, which a NaN-dropping merge would lose
    if nan_last:
        _nan_in_draw(monkeypatch, samples - 1)
    blocked = nk.identity_report(samples=samples, seed=7)
    monkeypatch.setattr(nk, "_BLOCK", samples)
    single = nk.identity_report(samples=samples, seed=7)
    assert {k: v.hex() for k, v in blocked.items()} == {
        k: v.hex() for k, v in single.items()
    }
    assert np.isnan(blocked["j_squared"]) == nan_last


def test_nan_in_second_block_gives_nan_residual(monkeypatch):
    _nan_in_draw(monkeypatch, _B)
    result = nk.verify(samples=2 * _B, seed=3)
    report, thresholds, ok = result["residual_max"], result["thresholds"], result["ok"]
    assert not ok
    for key in ("j_squared", "g_tensor_skew", "g_tensor_pair_product"):
        assert np.isnan(report[key]), key
        assert key in result["flagged"], key
    # the frame identities read no tangent draw
    assert report["frame_metric"] <= thresholds["frame_metric"]


def test_frame_metric_fires_on_perturbed_gram(monkeypatch):
    bad = nk.GRAM.copy()
    bad[0, 3] += 1e-6
    bad[3, 0] += 1e-6
    monkeypatch.setattr(nk, "GRAM", bad)
    result = nk.verify(samples=10, seed=1)
    report, thresholds, ok = result["residual_max"], result["thresholds"], result["ok"]
    assert not ok
    assert abs(report["frame_metric"] - 1e-6) <= 1e-12
    assert report["metric_compatible"] > thresholds["metric_compatible"]


def test_cached_products_are_fresh_products_and_read_only():
    rng = np.random.default_rng(3)
    base = nk.random_point(rng, (50,))
    X = nk.random_tangent(rng, base)
    pu, qv = X.at_identity
    assert np.array_equal(pu, quat.qmul(quat.qconj(base.p), X.u))
    assert np.array_equal(qv, quat.qmul(quat.qconj(base.q), X.v))
    fresh = {
        "p_inv": quat.qconj(base.p),
        "q_inv": quat.qconj(base.q),
        "pq": quat.qmul(base.p, quat.qconj(base.q)),
        "qp": quat.qconj(quat.qmul(base.p, quat.qconj(base.q))),
    }
    for name, product in fresh.items():
        assert np.array_equal(getattr(base, name), product), name
        # formed once: a second read returns the same array
        assert getattr(base, name) is getattr(base, name), name
    assert X.at_identity[0] is pu
    for cached in (pu, qv, *(getattr(base, name) for name in fresh)):
        with pytest.raises(ValueError, match="read-only"):
            cached[0, 0] = 1.0


def test_tangent_arithmetic_forms_its_own_cache():
    rng = np.random.default_rng(9)
    base = nk.random_point(rng, (20,))
    X = nk.random_tangent(rng, base)
    Y = nk.random_tangent(rng, base)
    s = rng.standard_normal(20)
    X.at_identity, Y.at_identity  # the operands' caches exist first
    for Z in (X + Y, s * X, X - Y):
        assert "at_identity" not in vars(Z)
        pu, qv = Z.at_identity
        assert np.array_equal(pu, quat.qmul(quat.qconj(base.p), Z.u))
        assert np.array_equal(qv, quat.qmul(quat.qconj(base.q), Z.v))


# x and y shapes: verify's sampled batches, the frame triples of
# `curvature_coeff`, a grid against a line, one vector against a batch
_PRODUCT_SHAPES = [
    ((50, 6), (50, 6)),
    ((6, 1, 1, 6), (1, 6, 1, 6)),
    ((7, 1, 6), (1, 5, 6)),
    ((6,), (4, 6)),
]


@pytest.mark.parametrize("name", ["CONN", "G_TABLE", "H_TABLE", "BRACKET"])
@pytest.mark.parametrize("shapes", _PRODUCT_SHAPES)
def test_table_product_matches_einsum(name, shapes):
    rng = np.random.default_rng(5)
    x, y = (rng.uniform(-1.0, 1.0, s) for s in shapes)
    table = getattr(nk, name)
    want = np.einsum("abk,...a,...b->...k", table, x, y)
    got = frame._block_product(table[0::3, 1::3, 2::3], x, y)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14
    if name == "CONN":
        assert np.array_equal(frame.connection_term(x, y), got)


def _block_product_by_np_cross(blocks, x, y):
    """The factor-block product as `np.cross` of whole 3-vector blocks summed
    into two halves, kept as the bitwise oracle of `_block_product`."""
    shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1]) + (3,)
    halves = (np.zeros(shape), np.zeros(shape))
    for a, b in np.ndindex(2, 2):
        w = blocks[a, b]
        if w.any():
            c = np.cross(x[..., 3 * a : 3 * a + 3], y[..., 3 * b : 3 * b + 3])
            for half, wc in zip(halves, w):
                if wc:
                    half += wc * c
    return np.concatenate(halves, axis=-1)


@pytest.mark.parametrize("name", ["CONN", "G_TABLE", "H_TABLE", "BRACKET"])
@pytest.mark.parametrize("shapes", _PRODUCT_SHAPES)
def test_block_product_bit_identical_to_np_cross_blocks(name, shapes):
    rng = np.random.default_rng(7)
    x, y = (rng.uniform(-1.0, 1.0, s) for s in shapes)
    blocks = getattr(nk, name)[0::3, 1::3, 2::3]
    got = frame._block_product(blocks, x, y)
    assert np.array_equal(got, _block_product_by_np_cross(blocks, x, y))


@pytest.mark.parametrize("shapes", _PRODUCT_SHAPES)
def test_gram_product_matches_einsum(shapes):
    rng = np.random.default_rng(6)
    x, y = (rng.uniform(-1.0, 1.0, s) for s in shapes)
    want = np.einsum("...a,ab,...b->...", x, frame.GRAM, y)
    got = frame.gram_product(x, y)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14


@pytest.mark.parametrize("weight", list(np.ndindex(2, 2, 2)))
def test_connection_table_fires_on_perturbed_block(monkeypatch, weight):
    # CONN rebuilt from its blocks with one weight moved: the table stays a
    # block pattern, and the frame-exact identities report it
    blocks = frame._CONN_BLOCKS.copy()
    blocks[weight] += 1e-6
    monkeypatch.setattr(nk, "CONN", frame._block_table(blocks))
    result = nk.verify(samples=10, seed=1)
    assert not result["ok"]
    assert {"torsion_free", "metric_compatible"} & set(result["flagged"])


def test_identity_report_empty_for_zero_samples():
    with pytest.raises(ValueError, match="samples must be at least 1"):
        nk.identity_report(samples=0)


@pytest.mark.parametrize("tol_scale", [np.nan, np.inf, 0.0, -1.0])
def test_verify_rejects_bad_tol_scale(tol_scale):
    with pytest.raises(ValueError, match="tol_scale"):
        nk.verify(samples=10, tol_scale=tol_scale)


@pytest.mark.parametrize("value", [0.0, 2.5e-3, np.float64(5e-3)])
def test_gate_passes_values_within_tolerance(value):
    got = frame.gate(value, 5e-3, "defect")
    assert type(got) is float and got == value


class GateFailure(Exception):
    pass


@pytest.mark.parametrize("value", [5.0000001e-3, 1.0, np.nan, np.inf])
def test_gate_fails_above_tolerance_nan_and_inf(value):
    with pytest.raises(GateFailure) as info:
        frame.gate(value, 5e-3, "loop defect", GateFailure, "; not closed")
    assert str(info.value) == f"loop defect {value:.3e} exceeds 5.0e-03; not closed"
