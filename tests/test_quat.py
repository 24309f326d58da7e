import numpy as np
import pytest

from nks3 import quat

QI, QJ, QK = np.eye(4)[1:]  # the imaginary units i, j, k


def test_hamilton_products():
    assert np.allclose(quat.qmul(QI, QJ), QK)
    assert np.allclose(quat.qmul(QJ, QK), QI)
    assert np.allclose(quat.qmul(QK, QI), QJ)
    assert np.allclose(quat.qmul(QJ, QI), -QK)
    assert np.allclose(quat.qmul(QI, QI), -quat.ONE)


def test_qmul_associative_random():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((50, 4))
    b = rng.standard_normal((50, 4))
    c = rng.standard_normal((50, 4))
    lhs = quat.qmul(quat.qmul(a, b), c)
    rhs = quat.qmul(a, quat.qmul(b, c))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_qmul_matches_frozen_value():
    # (1 + 2i + 3j + 4k)(5 + 6i + 7j + 8k), worked out by hand
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.array([5.0, 6.0, 7.0, 8.0])
    expected = np.array([-60.0, 12.0, 30.0, 24.0])
    assert np.allclose(quat.qmul(a, b), expected)


def test_conjugate_reverses_products():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((20, 4))
    b = rng.standard_normal((20, 4))
    lhs = quat.qconj(quat.qmul(a, b))
    rhs = quat.qmul(quat.qconj(b), quat.qconj(a))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_norm_is_multiplicative():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((20, 4))
    b = rng.standard_normal((20, 4))
    assert np.allclose(quat.norm(quat.qmul(a, b)), quat.norm(a) * quat.norm(b))


def test_qinv():
    # the conjugate inverts a unit quaternion
    rng = np.random.default_rng(5)
    p = quat.normalize(rng.standard_normal((30, 4)))
    prod = quat.qmul(p, quat.qconj(p))
    assert np.abs(prod - quat.ONE).max() < 1e-12


def test_unit_renormalizes():
    q = np.array([1.0 + 3e-7, 0.0, 0.0, 0.0])
    out = quat.unit(q)
    assert abs(quat.norm(out) - 1.0) < 1e-15


def test_unit_rejects_bad_input():
    with pytest.raises(ValueError):
        quat.unit(np.array([1.0, 1.0, 0.0]))
    # a unit-norm vector of three components passes the norm check, so only
    # the trailing-shape check refuses it
    with pytest.raises(ValueError, match=r"4 trailing components, got shape \(3,\)"):
        quat.unit(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        quat.unit(np.array([1.0, 0.5, 0.0, 0.0]))
    with pytest.raises(ValueError):
        quat.unit(np.array([np.nan, 0.0, 0.0, 0.0]))


def test_embed_imag_roundtrip():
    rng = np.random.default_rng(2)
    v = rng.standard_normal((10, 3))
    q = quat.embed(v)
    assert np.allclose(q[..., 0], 0.0)
    assert np.allclose(quat.imag(q), v)


def test_imaginary_product_is_minus_dot_plus_cross():
    # product of imaginary quaternions: xy = -<x,y> + x cross y
    rng = np.random.default_rng(9)
    x = rng.standard_normal((40, 3))
    y = rng.standard_normal((40, 3))
    prod = quat.qmul(quat.embed(x), quat.embed(y))
    assert np.abs(prod[..., 0] + np.sum(x * y, axis=-1)).max() < 1e-12
    assert np.abs(quat.imag(prod) - np.cross(x, y)).max() < 1e-12


def test_cross_is_np_cross_bitwise():
    # same component formula, so the same bits, broadcasting included
    rng = np.random.default_rng(12)
    x = rng.standard_normal((40, 1, 3))
    y = rng.standard_normal((1, 7, 3))
    assert np.array_equal(quat.cross(x, y), np.cross(x, y))


@pytest.mark.parametrize(
    "shape_a, shape_b",
    [((10000, 4), (10000, 4)), ((201, 201, 4), (201, 201, 4)),
     ((7, 1, 4), (1, 5, 4)), ((), (30, 4))],
)
def test_dot_is_np_sum_bitwise(shape_a, shape_b):
    # the reference is the reduction `dot` replaces; the draws include signed
    # zeros, so an all -0.0 row must read +0.0 as np.sum's does
    rng = np.random.default_rng(14)
    values = np.array([-0.0, 0.0, 1e16, -1e16, 1.0, -3.0])
    a = np.where(rng.random(shape_a) < 0.5, rng.standard_normal(shape_a),
                 rng.choice(values, shape_a))
    b = np.where(rng.random(shape_b) < 0.5, rng.standard_normal(shape_b),
                 rng.choice(values, shape_b))
    for x, y in ((a, b), (b, a)):
        got = np.asarray(quat.dot(x, y))
        want = np.asarray(np.sum(x * y, axis=-1))
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_norm_is_np_linalg_norm_bitwise():
    # on contiguous, strided and reversed-component views, with signed zeros
    # and magnitudes whose squares under- and overflow
    rng = np.random.default_rng(15)
    x = rng.standard_normal((37, 41, 4)) * rng.choice([1.0, 1e-170, 1e170], (37, 41, 1))
    x[rng.random(x.shape) < 0.1] = -0.0
    with np.errstate(over="ignore", under="ignore"):
        for v in (x, x[:, ::3], x[..., ::-1], x.reshape(-1, 4)):
            got, want = quat.norm(v), np.linalg.norm(v, axis=-1)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_qexp_known_values():
    half_pi_i = np.array([np.pi / 2.0, 0.0, 0.0])
    assert np.allclose(quat.qexp(half_pi_i), QI, atol=1e-15)
    assert np.allclose(quat.qexp(np.zeros(3)), quat.ONE)


def test_qexp_is_cos_and_cardinal_sine_bit_for_bit():
    # the closed form written with concatenate, zero vectors and a 1-d
    # argument included
    rng = np.random.default_rng(19)
    v = rng.standard_normal((7, 5, 3))
    v[0, 0] = 0.0
    for x in (v, v[3, 2]):
        t = np.linalg.norm(x, axis=-1, keepdims=True)
        want = np.concatenate([np.cos(t), np.sinc(t / np.pi) * x], axis=-1)
        assert np.array_equal(quat.qexp(x), want)


def test_qexp_is_unit_and_matches_series():
    rng = np.random.default_rng(13)
    v = 0.05 * rng.standard_normal((25, 3))
    e = quat.qexp(v)
    assert np.abs(quat.norm(e) - 1.0).max() < 1e-14
    # truncated series comparison for small arguments
    q = quat.embed(v)
    q2 = quat.qmul(q, q)
    series = (
        quat.ONE
        + q
        + 0.5 * q2
        + quat.qmul(q2, q) / 6.0
        + quat.qmul(q2, q2) / 24.0
    )
    assert np.abs(e - series).max() < 1e-5


def test_qexp_one_parameter_group():
    rng = np.random.default_rng(17)
    v = rng.standard_normal(3)
    lhs = quat.qexp(0.7 * v)
    rhs = quat.qmul(quat.qexp(0.3 * v), quat.qexp(0.4 * v))
    assert np.abs(lhs - rhs).max() < 1e-14

