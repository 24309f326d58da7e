"""The ambient identity suite of the nearly Kähler product of two unit 3-spheres.

Points are pairs (p, q) of unit quaternions; a tangent vector is a pair
(U, V) of ambient R^4 vectors with U orthogonal to p and V orthogonal to q.
The six global frame fields of `frame` trivialize the tangent bundle, and
every structure tensor of the geometry has constant coefficients in them.
Two views are compared here:

* ambient quaternion formulas for the almost complex structure J, the
  almost product structure P, the factor sign flip Q and the metric,
  defined in this module, and
* the exact constant tables of `frame` for the frame Gram matrix, the
  Levi-Civita connection, the covariant-derivative tensors of J and P, and
  the frame brackets, which this module reads through its own bindings.

The grid commands read `frame` alone; only `verify` imports this module.

The curvature has no ambient form: `curvature_coeff` and
`sectional_curvature` act on frame coefficient vectors alone.

`identity_report` cross-checks the two views against each other and checks
the closed-form curvature against a structure-constant oracle; `verify`
compares the residuals with thresholds.

The ambient operators share a few quaternion products, and each is formed
once and kept, read-only: a `Point` keeps p^-1 and q^-1, which its tangents
translate by, and p q^-1 and q p^-1, which `apply_J` and `apply_P` read; a
`Tangent` keeps (p^-1 U, q^-1 V), which `metric` and `frame_coords` read.
The operators remain ambient quaternion formulas, so the cross-check
against the constant tables stays independent.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import quat
from .frame import (
    _G_BLOCKS, _H_BLOCKS, BRACKET, CONN, FLIP, G_TABLE, GRAM, H_TABLE, J_MAT,
    P_MAT, Q_MAT, SQRT3, _block_product, gate, gram_product, validate_tol_scale,
)

__all__ = [
    "Point",
    "Tangent",
    "random_point",
    "random_tangent",
    "frame",
    "frame_coords",
    "from_frame_coords",
    "apply_J",
    "apply_P",
    "apply_Q",
    "metric",
    "usual_inner",
    "gnorm",
    "tensor_G",
    "tensor_H",
    "curvature_coeff",
    "curvature_oracle_table",
    "sectional_curvature",
    "Isometry",
    "random_isometry",
    "identity_report",
    "verify",
]


# ---------------------------------------------------------------------------
# points and tangent vectors
# ---------------------------------------------------------------------------


def _read_only(a):
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Point:
    """A point (p, q) of the product manifold; arrays broadcast over leading axes.

    `p` and `q` must not be mutated after construction: the products below
    are formed from them once and kept.
    """

    p: np.ndarray
    q: np.ndarray

    @cached_property
    def p_inv(self):
        """p^-1 (read-only), formed on first use; `Tangent.at_identity`
        reads it."""
        return _read_only(quat.qconj(self.p))

    @cached_property
    def q_inv(self):
        """q^-1 (read-only), formed on first use; `Tangent.at_identity`
        reads it."""
        return _read_only(quat.qconj(self.q))

    @cached_property
    def pq(self):
        """p q^-1 (read-only), formed on first use; `apply_J` and `apply_P`
        read it."""
        return _read_only(quat.qmul(self.p, self.q_inv))

    @cached_property
    def qp(self):
        """q p^-1 (read-only), the conjugate of `pq`, formed on first use;
        `apply_J` and `apply_P` read it."""
        return _read_only(quat.qconj(self.pq))


def random_point(rng, shape=()):
    """Random point: p and q are normalized standard normal quaternions,
    drawn in that order from the numpy generator `rng`."""
    return Point(*quat.normalize(rng.standard_normal((2, *shape, 4))))


@dataclass(frozen=True)
class Tangent:
    """Tangent vector(s) (U, V) at a base point, stored in ambient components.

    `u` and `v` must not be mutated after construction: `at_identity` is
    formed from them once and kept.  Arithmetic returns new tangents, each
    with its own cache.
    """

    base: Point
    u: np.ndarray
    v: np.ndarray

    @cached_property
    def at_identity(self):
        """(p^-1 U, q^-1 V): the tangent translated to the identity, as two
        read-only quaternion arrays formed on first use; `metric` and
        `frame_coords` read it."""
        return (_read_only(quat.qmul(self.base.p_inv, self.u)),
                _read_only(quat.qmul(self.base.q_inv, self.v)))

    # keep numpy from absorbing Tangent into object arrays so that
    # `array * Tangent` falls through to __rmul__
    __array_ufunc__ = None

    def __add__(self, other):
        return Tangent(self.base, self.u + other.u, self.v + other.v)

    def __sub__(self, other):
        return Tangent(self.base, self.u - other.u, self.v - other.v)

    def __rmul__(self, s):
        s = np.asarray(s, dtype=float)[..., None]
        return Tangent(self.base, s * self.u, s * self.v)


_SAME_BASE_TOL = 1e-12


def _pushed_tangent(base, a, b):
    """The tangent (p a, q b): imaginary quaternions with imaginary parts
    `a` and `b` (..., 3) pushed to the base point."""
    return Tangent(base, quat.qmul(base.p, quat.embed(a)),
                   quat.qmul(base.q, quat.embed(b)))


def random_tangent(rng, base):
    """Random tangent: imaginary quaternions pushed to the base point."""
    return _pushed_tangent(base, *rng.standard_normal((2, *np.shape(base.p)[:-1], 3)))


def _check_same_base(Z, W):
    if Z.base is W.base:
        return
    worst = np.maximum(np.abs(Z.base.p - W.base.p).max(),
                       np.abs(Z.base.q - W.base.q).max())
    gate(worst, _SAME_BASE_TOL,
         "tangent vectors live at different base points: deviation")


# ---------------------------------------------------------------------------
# frame fields
# ---------------------------------------------------------------------------


def frame_coords(Z):
    """Coefficients of a tangent vector in the global frame (..., 6), a
    component at a time: the imaginary parts of `Tangent.at_identity` times
    `FLIP`."""
    a, b = Z.at_identity
    out = np.empty(np.broadcast_shapes(a.shape, b.shape)[:-1] + (6,))
    for k in range(3):
        np.multiply(a[..., k + 1], FLIP[k], out=out[..., k])
        np.multiply(b[..., k + 1], FLIP[k], out=out[..., k + 3])
    return out


def _flipped(c):
    """The imaginary quaternion with imaginary part c * FLIP, for the 3-long
    halves `c` of frame coefficients, filled a component at a time."""
    out = np.empty(c.shape[:-1] + (4,))
    out[..., 0] = 0.0
    for k in range(3):
        np.multiply(c[..., k], FLIP[k], out=out[..., k + 1])
    return out


def from_frame_coords(base, coeffs):
    """Tangent vector with the given frame coefficients (..., 6) at `base`."""
    coeffs = np.asarray(coeffs, dtype=float)
    u = quat.qmul(base.p, _flipped(coeffs[..., :3]))
    v = quat.qmul(base.q, _flipped(coeffs[..., 3:]))
    return Tangent(base, u, v)


def frame(base):
    """The six frame fields at `base` as a list [E1, E2, E3, F1, F2, F3]."""
    eye = np.eye(6)
    return [from_frame_coords(base, eye[k]) for k in range(6)]


# ---------------------------------------------------------------------------
# structure tensors, metric, curvature
# ---------------------------------------------------------------------------


def apply_J(Z):
    """Almost complex structure: (U, V) -> (2 p q^-1 V - U, -2 q p^-1 U + V)/sqrt3."""
    u = (2.0 * quat.qmul(Z.base.pq, Z.v) - Z.u) / SQRT3
    v = (-2.0 * quat.qmul(Z.base.qp, Z.u) + Z.v) / SQRT3
    return Tangent(Z.base, u, v)


def apply_P(Z):
    """Almost product structure: (U, V) -> (p q^-1 V, q p^-1 U)."""
    return Tangent(Z.base, quat.qmul(Z.base.pq, Z.v),
                   quat.qmul(Z.base.qp, Z.u))


def apply_Q(Z):
    """Sign flip of the first factor: (U, V) -> (-U, V)."""
    return Tangent(Z.base, -Z.u, Z.v)


def usual_inner(Z, W):
    """Product-metric inner product <U, U'> + <V, V'> (no J symmetrization)."""
    return quat.dot(Z.u, W.u) + quat.dot(Z.v, W.v)


def metric(Z, W):
    """The nearly Kähler metric g(Z, W).

    Uses the expanded form
    4/3 (<U,U'> + <V,V'>) - 2/3 (<p^-1 U, q^-1 V'> + <p^-1 U', q^-1 V>);
    its agreement with (usual + J-pullback)/2 is part of the identity suite.
    """
    _check_same_base(Z, W)
    pu, qv = Z.at_identity
    pu2, qv2 = W.at_identity
    cross = quat.dot(pu, qv2) + quat.dot(pu2, qv)
    return (4.0 * usual_inner(Z, W) - 2.0 * cross) / 3.0


def gnorm(Z):
    """Metric norm sqrt(g(Z, Z))."""
    return np.sqrt(np.maximum(metric(Z, Z), 0.0))


def _table_tensor(blocks, X, Y):
    """The 2-tensor of the constant block pattern `blocks` on same-base X, Y."""
    _check_same_base(X, Y)
    c = _block_product(blocks, frame_coords(X), frame_coords(Y))
    return from_frame_coords(X.base, c)


def tensor_G(X, Y):
    """The covariant derivative of J as a 2-tensor, via its constant block pattern."""
    return _table_tensor(_G_BLOCKS, X, Y)


def tensor_H(X, Y):
    """The covariant derivative of P as a 2-tensor, via its constant block pattern."""
    return _table_tensor(_H_BLOCKS, X, Y)


def _mat(m, c):
    return np.einsum("ab,...b->...a", m, c)


def curvature_coeff(x, y, w):
    """Closed-form curvature on frame coefficient vectors (position free)."""
    g = gram_product
    jx, jy, jw = _mat(J_MAT, x), _mat(J_MAT, y), _mat(J_MAT, w)
    px, py = _mat(P_MAT, x), _mat(P_MAT, y)
    jpx, jpy = _mat(J_MAT, px), _mat(J_MAT, py)

    def sc(s, c):
        return s[..., None] * c

    out = (5.0 / 12.0) * (sc(g(y, w), x) - sc(g(x, w), y))
    out = out + (1.0 / 12.0) * (
        sc(g(jy, w), jx) - sc(g(jx, w), jy) - 2.0 * sc(g(jx, y), jw)
    )
    out = out + (1.0 / 3.0) * (
        sc(g(py, w), px)
        - sc(g(px, w), py)
        + sc(g(jpy, w), jpx)
        - sc(g(jpx, w), jpy)
    )
    return out


def curvature_oracle_table():
    """R on all frame triples from structure constants alone.

    Expands nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z on frame
    fields, where every covariant derivative and bracket is a constant table;
    independent of the closed-form formula and of J/P entirely.
    """
    t1 = np.einsum("bck,akm->abcm", CONN, CONN)
    t2 = np.einsum("ack,bkm->abcm", CONN, CONN)
    t3 = np.einsum("abk,kcm->abcm", BRACKET, CONN)
    return t1 - t2 - t3


def sectional_curvature(x, y):
    """Sectional curvature of the plane spanned by the frame coefficient
    vectors `x` and `y` (position free, like `curvature_coeff`)."""
    g = gram_product
    return g(curvature_coeff(x, y, y), x) / (g(x, x) * g(y, y) - g(x, y) ** 2)


# ---------------------------------------------------------------------------
# isometries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Isometry:
    """The isometry (p, q) -> (a p c^-1, b q c^-1) of the nearly Kähler structure."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def apply_point(self, pt):
        return Point(*_sandwich(self, pt.p, pt.q))

    def push(self, Z):
        return Tangent(self.apply_point(Z.base), *_sandwich(self, Z.u, Z.v))


def _sandwich(iso, x, y):
    """(a x c^-1, b y c^-1) for the isometry `iso` = (a, b, c)."""
    ci = quat.qconj(iso.c)
    return quat.qmul(quat.qmul(iso.a, x), ci), quat.qmul(quat.qmul(iso.b, y), ci)


def random_isometry(rng):
    """Random isometry: a, b and c are normalized standard normal quaternions."""
    return Isometry(*quat.normalize(rng.standard_normal((3, 4))))


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


def _commutator(m, table):
    """[M, D] on a derivative table: entry (a, b) is D_a(M e_b) - M D_a(e_b),
    where D_a(e_b) is the coefficient vector `table[a, b]`."""
    return np.einsum("kb,akm->abm", m, table) - np.einsum("mk,abk->abm", m, table)


def _frame_identities(pts):
    """The six frame fields at `pts` against the Gram table and against the
    frame matrices of J, P and Q; the fields die on return."""
    fr = frame(pts)
    res = {}
    # metric is symmetric bit for bit, so each pair aa <= bb is formed once
    # and compared with both entries of GRAM
    gaps = []
    for aa in range(6):
        for bb in range(aa, 6):
            g = metric(fr[aa], fr[bb])
            gaps += [np.abs(g - GRAM[aa, bb]).max(), np.abs(g - GRAM[bb, aa]).max()]
    res["frame_metric"] = float(np.max(gaps))
    res["frame_representation"] = float(np.max([
        np.abs(frame_coords(op(fr[bb])) - mat[:, bb]).max()
        for op, mat in ((apply_J, J_MAT), (apply_P, P_MAT), (apply_Q, Q_MAT))
        for bb in range(6)
    ]))
    return res


def _coeff_max(t):
    """Largest frame coefficient of the tangent `t`: a tangent identity's residual."""
    return float(np.abs(frame_coords(t)).max())


def _operator_identities(X, Y, JX, gxy):
    """The J, P and Q identities on X and Y, and the G- and H-tensor
    identities that need no third tangent.

    JY, PY, PX and H(X, Y) are formed once each.  The identities are grouped
    by the tangent they read, and each tangent is dropped after its last
    identity, so that JY never sits beside PY or PX and their cached
    products.
    """
    metric_xy = metric(X, Y)
    usual_xy = usual_inner(X, Y)
    res = {}
    res["j_squared"] = _coeff_max(apply_J(JX) + X)
    res["q_squared"] = _coeff_max(apply_Q(apply_Q(X)) - X)
    res["usual_metric_recovery"] = float(
        np.abs(
            metric(apply_Q(X), apply_Q(Y)) + metric_xy - (8.0 / 3.0) * usual_xy
        ).max()
    )
    res["g_tensor_skew"] = _coeff_max(gxy + tensor_G(Y, X))

    JY = apply_J(Y)
    two_form = 0.5 * (usual_xy + usual_inner(JX, JY))
    res["metric_two_forms"] = float(np.abs(two_form - metric_xy).max())
    res["g_j_invariant"] = float(np.abs(metric(JX, JY) - metric_xy).max())
    res["g_tensor_j_mix"] = _coeff_max(tensor_G(X, JY) + apply_J(gxy))
    hxy = tensor_H(X, Y)
    j_hxy = apply_J(hxy)
    res["h_j_mix"] = _coeff_max(tensor_H(X, JY) - j_hxy)
    del JY

    PY = apply_P(Y)
    p_gxy = apply_P(gxy)
    res["g_p_mix"] = _coeff_max(tensor_G(X, PY) + p_gxy + 2.0 * j_hxy)
    del j_hxy
    res["h_p_mix"] = _coeff_max(tensor_H(X, PY) + apply_P(hxy))

    PX = apply_P(X)
    res["h_p_first_slot"] = _coeff_max(hxy + tensor_H(PX, Y))
    del hxy
    res["g_p_invariant"] = float(np.abs(metric(PX, PY) - metric_xy).max())
    res["p_g_compat"] = _coeff_max(p_gxy + tensor_G(PX, PY))
    del PY, p_gxy
    res["p_squared"] = _coeff_max(apply_P(PX) - X)
    res["pj_anticommute"] = _coeff_max(apply_P(JX) + apply_J(PX))
    qj = apply_Q(JX)
    flip = (1.0 / SQRT3) * ((-2.0) * PX + X)
    res["q_j_product_flip"] = _coeff_max(qj - flip)
    return res


def _sampled_identities(pts, parts):
    """Every sampled identity on one block of points `pts`, with X, Y, Z
    and W pushed from the eight imaginary parts `parts` (X.a, X.b, Y.a,
    ..., W.b).

    The frame fields and the operator identities' tangents live in helpers,
    so that they and the products they cache die before Z and W are formed.
    """
    xa, xb, ya, yb, za, zb, wa, wb = parts
    res = _frame_identities(pts)
    X = _pushed_tangent(pts, xa, xb)
    Y = _pushed_tangent(pts, ya, yb)
    JX = apply_J(X)
    gxy = tensor_G(X, Y)
    res.update(_operator_identities(X, Y, JX, gxy))
    Z = _pushed_tangent(pts, za, zb)
    W = _pushed_tangent(pts, wa, wb)

    # G(X, Y) paired with two more tangents
    res["g_tensor_metric_skew"] = float(
        np.abs(metric(gxy, Z) + metric(tensor_G(X, Z), Y)).max()
    )
    lhs = metric(gxy, tensor_G(Z, W))
    rhs = (1.0 / 3.0) * (
        metric(X, Z) * metric(Y, W)
        - metric(X, W) * metric(Y, Z)
        + metric(JX, Z) * metric(apply_J(W), Y)
        - metric(JX, W) * metric(apply_J(Z), Y)
    )
    res["g_tensor_pair_product"] = float(np.abs(lhs - rhs).max())
    return res


# samples per block of `identity_report`'s sampled identities
_BLOCK = 2048


_U64 = np.uint64
_GAMMA = _U64(0x9E3779B97F4A7C15)


def _splitmix(z):
    """The splitmix64 finalizer on a uint64 array (arithmetic mod 2^64)."""
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def _stream_key(seed):
    """The 64-bit key of a non-negative integer seed of any size: the seed
    itself below 2^64; above, each further 64-bit word w turns the key k
    into splitmix64(k + gamma) xor w.  Raises ValueError for a negative
    seed."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    key = np.array([seed % 2**64], dtype=_U64)
    for shift in range(64, seed.bit_length(), 64):
        key = _splitmix(key + _GAMMA) ^ _U64(seed >> shift & (2**64 - 1))
    return key


def _draw(key, draw, start, n, width):
    """Rows start .. start + n - 1 of draw `draw` (0 .. 9 for p, q, X.a,
    X.b, ..., W.b) of the stream keyed by `key`, as an (n, width) array.

    Component c of sample i is output 40 i + 4 draw + c + 1 of splitmix64
    seeded with the key, so any block of rows is read directly.  Its top
    53 bits k map to (2 k + 1 - 2^53) sqrt3 / 2^53: uniform on (-sqrt3,
    sqrt3), of unit variance, never 0.  Only integer operations and one
    exactly rounded product, so every platform draws the same values."""
    count = (np.arange(start, start + n, dtype=_U64)[:, None] * _U64(40)
             + np.arange(4 * draw + 1, 4 * draw + 1 + width, dtype=_U64))
    top = _splitmix(count * _GAMMA + key) >> _U64(11)
    return (top.astype(np.int64) * 2 + (1 - 2**53)) * (SQRT3 / 2**53)


def identity_report(samples=1000, seed=42):
    """Max residuals of the structural identities of the geometry.

    Frame-exact identities are evaluated once on the constant tables.
    Sampled identities draw `samples` random points with up to four random
    tangents each and run on blocks of `_BLOCK` (2048) samples.  The ten
    draws (p, q and the eight imaginary parts) are rows of one
    counter-based stream keyed by `seed` (`_draw`), so a block reads only
    its own rows, memory stays one block's working set whatever `samples`
    is, and no sample depends on `_BLOCK`.  Each residual is the
    NaN-propagating max over the blocks, so it equals the residual of a
    single block over all samples bit for bit, and a NaN stays NaN.

    Returns a dict mapping identity names to max residuals.  Raises
    ValueError when `samples` is below 1 or `seed` is negative.
    """
    if not samples >= 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    key = _stream_key(seed)
    eye = np.eye(6)

    # --- sampled ambient identities -------------------------------------
    res = {}
    for start in range(0, samples, _BLOCK):
        n = min(_BLOCK, samples - start)
        block = _sampled_identities(
            Point(*(quat.normalize(_draw(key, d, start, n, 4)) for d in (0, 1))),
            [_draw(key, d, start, n, 3) for d in range(2, 10)],
        )
        res = {k: float(np.maximum(res.get(k, -np.inf), v)) for k, v in block.items()}

    # --- frame-exact table identities -----------------------------------
    res["torsion_free"] = float(
        np.abs(CONN - np.swapaxes(CONN, 0, 1) - BRACKET).max()
    )
    mc = np.einsum("abk,kc->abc", CONN, GRAM) + np.einsum(
        "bk,ack->abc", GRAM, CONN
    )
    res["metric_compatible"] = float(np.abs(mc).max())

    # Leibniz consistency of the J- and P-derivative tables with the
    # connection table and the constant frame representations
    res["j_derivative_table"] = float(np.abs(_commutator(J_MAT, CONN) - G_TABLE).max())
    res["p_derivative_table"] = float(np.abs(_commutator(P_MAT, CONN) - H_TABLE).max())

    # Hermitian connection parallelism of J and P: its frame table is the
    # connection table plus half the J-derivative table applied to J e_b
    bar = CONN + 0.5 * np.einsum("kb,akm->abm", J_MAT, G_TABLE)
    res["hermitian_j_parallel"] = float(np.abs(_commutator(J_MAT, bar)).max())
    res["hermitian_p_parallel"] = float(np.abs(_commutator(P_MAT, bar)).max())

    # covariant derivative of the J-derivative tensor (frame triples)
    lhs = (
        np.einsum("bck,akm->abcm", G_TABLE, CONN)
        - np.einsum("kcm,abk->abcm", G_TABLE, CONN)
        - np.einsum("bkm,ack->abcm", G_TABLE, CONN)
    )
    rhs = (1.0 / 3.0) * (
        np.einsum("ac,mb->abcm", GRAM, J_MAT)
        - np.einsum("ab,mc->abcm", GRAM, J_MAT)
        - np.einsum("kb,kc,am->abcm", J_MAT, GRAM, eye)
    )
    res["g_tensor_derivative"] = float(np.abs(lhs - rhs).max())

    # curvature: closed form against the structure-constant oracle
    formula = curvature_coeff(
        eye[:, None, None], eye[None, :, None], eye[None, None, :]
    )
    res["curvature_vs_oracle"] = float(
        np.abs(formula - curvature_oracle_table()).max()
    )

    return res


_EXACT_KEYS = (
    "frame_metric",
    "frame_representation",
    "torsion_free",
    "metric_compatible",
    "j_derivative_table",
    "p_derivative_table",
    "hermitian_j_parallel",
    "hermitian_p_parallel",
    "g_tensor_derivative",
    "curvature_vs_oracle",
)


def verify(samples=1000, seed=42, tol_scale=1.0):
    """Run the identity suite against thresholds.

    Returns the report {ok, flagged, residual_max, thresholds}: each
    threshold is tol_scale times 1e-12 for a frame-exact identity and 1e-10
    for a sampled one, `flagged` lists the residuals above their threshold
    (a NaN residual included), and ok is True when none is.  Raises
    ValueError when `tol_scale` is not finite and positive.
    """
    tol_scale = validate_tol_scale(tol_scale)
    residuals = identity_report(samples=samples, seed=seed)
    thresholds = {k: tol_scale * (1e-12 if k in _EXACT_KEYS else 1e-10) for k in residuals}
    flagged = sorted(k for k in residuals if not residuals[k] <= thresholds[k])
    return {"ok": not flagged, "flagged": flagged, "residual_max": residuals,
            "thresholds": thresholds}
