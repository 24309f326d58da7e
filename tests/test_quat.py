import numpy as np
import pytest

from nks3 import quat


def test_hamilton_products():
    assert np.allclose(quat.qmul(quat.QI, quat.QJ), quat.QK)
    assert np.allclose(quat.qmul(quat.QJ, quat.QK), quat.QI)
    assert np.allclose(quat.qmul(quat.QK, quat.QI), quat.QJ)
    assert np.allclose(quat.qmul(quat.QJ, quat.QI), -quat.QK)
    assert np.allclose(quat.qmul(quat.QI, quat.QI), -quat.ONE)


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
    rng = np.random.default_rng(5)
    p = quat.random_unit(rng, (30,))
    prod = quat.qmul(p, quat.qinv(p))
    assert np.abs(prod - quat.ONE).max() < 1e-12


def test_qinv_rejects_far_from_unit():
    with pytest.raises(ValueError):
        quat.qinv(np.array([2.0, 0.0, 0.0, 0.0]))


def test_qinv_rejects_nan():
    with pytest.raises(ValueError, match="qinv needs unit input"):
        quat.qinv(np.array([np.nan, 0.0, 0.0, 0.0]))


def test_unit_renormalizes():
    q = np.array([1.0 + 3e-7, 0.0, 0.0, 0.0])
    out = quat.unit(q)
    assert abs(quat.norm(out) - 1.0) < 1e-15


def test_unit_rejects_bad_input():
    with pytest.raises(ValueError):
        quat.unit(np.array([1.0, 1.0, 0.0]))
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


def test_im_split_matches_quaternion_product():
    # product of imaginary quaternions: xy = -<x,y> + x cross y
    rng = np.random.default_rng(9)
    x = rng.standard_normal((40, 3))
    y = rng.standard_normal((40, 3))
    d, c = quat.im_split(x, y)
    prod = quat.qmul(quat.embed(x), quat.embed(y))
    assert np.abs(prod[..., 0] + d).max() < 1e-12
    assert np.abs(quat.imag(prod) - c).max() < 1e-12


def test_qexp_known_values():
    half_pi_i = np.array([np.pi / 2.0, 0.0, 0.0])
    assert np.allclose(quat.qexp(half_pi_i), quat.QI, atol=1e-15)
    assert np.allclose(quat.qexp(np.zeros(3)), quat.ONE)


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


def test_random_unit_shapes():
    rng = np.random.default_rng(1)
    assert quat.random_unit(rng).shape == (4,)
    assert quat.random_unit(rng, 5).shape == (5, 4)
    assert quat.random_unit(rng, (2, 3)).shape == (2, 3, 4)
    assert np.abs(quat.norm(quat.random_unit(rng, (100,))) - 1.0).max() < 1e-14
