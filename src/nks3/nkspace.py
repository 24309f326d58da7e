"""Homogeneous nearly Kähler geometry on the product of two unit 3-spheres.

Points are pairs (p, q) of unit quaternions; a tangent vector is a pair
(U, V) of ambient R^4 vectors with U orthogonal to p and V orthogonal to q.
Right translation of i, j, -k through each factor gives six global frame
fields E1, E2, E3, F1, F2, F3 that trivialize the tangent bundle, and every
structure tensor of the geometry has constant coefficients in that frame.
The module keeps both views:

* ambient formulas for the almost complex structure J, the almost product
  structure P, the factor sign flip Q and the metric, and
* exact constant tables for the frame Gram matrix, the Levi-Civita
  connection, the covariant-derivative tensors of J and P, and the frame
  brackets.

`identity_report` cross-checks the two views against each other and checks
the closed-form curvature against a structure-constant oracle; `verify`
compares the residuals with thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quat

__all__ = [
    "SQRT3",
    "Point",
    "Tangent",
    "point",
    "tangent",
    "random_point",
    "random_tangent",
    "frame",
    "frame_coords",
    "from_frame_coords",
    "gram_product",
    "apply_J",
    "apply_P",
    "apply_Q",
    "metric",
    "usual_inner",
    "gnorm",
    "conn_frame",
    "covariant_derivative",
    "hermitian_connection",
    "tensor_G",
    "tensor_H",
    "curvature",
    "curvature_coeff",
    "curvature_oracle_table",
    "sectional_curvature",
    "Isometry",
    "random_isometry",
    "identity_report",
    "default_thresholds",
    "validate_tol_scale",
    "verify",
    "EPSILON3",
    "FLIP",
    "CONN",
    "G_TABLE",
    "H_TABLE",
    "BRACKET",
    "J_MAT",
    "P_MAT",
    "Q_MAT",
    "GRAM",
]

SQRT3 = float(np.sqrt(3.0))


# ---------------------------------------------------------------------------
# points and tangent vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """A point (p, q) of the product manifold; arrays broadcast over leading axes."""

    p: np.ndarray
    q: np.ndarray


def point(p, q, tol=1e-6):
    """Validated constructor: renormalizes both factors onto the unit sphere."""
    return Point(quat.unit(p, tol=tol), quat.unit(q, tol=tol))


def random_point(rng, shape=()):
    return Point(quat.random_unit(rng, shape), quat.random_unit(rng, shape))


@dataclass(frozen=True)
class Tangent:
    """Tangent vector(s) (U, V) at a base point, stored in ambient components."""

    base: Point
    u: np.ndarray
    v: np.ndarray

    # keep numpy from absorbing Tangent into object arrays so that
    # `array * Tangent` falls through to __rmul__
    __array_ufunc__ = None

    def __add__(self, other):
        return Tangent(self.base, self.u + other.u, self.v + other.v)

    def __sub__(self, other):
        return Tangent(self.base, self.u - other.u, self.v - other.v)

    def __neg__(self):
        return Tangent(self.base, -self.u, -self.v)

    def __rmul__(self, s):
        s = np.asarray(s, dtype=float)[..., None]
        return Tangent(self.base, s * self.u, s * self.v)


def tangent(base, u, v, tol=1e-10):
    """Validated constructor: checks orthogonality to the base point.

    Raises ValueError when <U, p> or <V, q> exceeds `tol`; this is the same
    condition as the quaternion p^-1 U being imaginary.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    ru = np.abs(quat.dot(u, base.p))
    rv = np.abs(quat.dot(v, base.q))
    worst = float(np.maximum(ru.max(), rv.max())) if ru.size else 0.0
    if not worst <= tol:
        raise ValueError(
            f"tangent components not orthogonal to base point (residual {worst:.3e})"
        )
    return Tangent(base, u, v)


def random_tangent(rng, base):
    """Random tangent: imaginary quaternions pushed to the base point."""
    shape = np.shape(base.p)[:-1]
    a = quat.embed(quat.random_vec3(rng, shape))
    b = quat.embed(quat.random_vec3(rng, shape))
    return Tangent(base, quat.qmul(base.p, a), quat.qmul(base.q, b))


def _check_same_base(Z, W, tol=1e-12):
    if Z.base is W.base:
        return
    worst = float(np.maximum(np.abs(Z.base.p - W.base.p).max(),
                             np.abs(Z.base.q - W.base.q).max()))
    if not worst <= tol:
        raise ValueError(
            f"tangent vectors live at different base points (deviation {worst:.3e})"
        )


# ---------------------------------------------------------------------------
# frame fields and constant structure tables
# ---------------------------------------------------------------------------

# frame coefficient <-> imaginary-part sign pattern: the third frame field of
# each factor is the right translate of -k
FLIP = np.array([1.0, 1.0, -1.0])


def frame_coords(Z):
    """Coefficients of a tangent vector in the global frame (..., 6)."""
    a = quat.imag(quat.qmul(quat.qconj(Z.base.p), Z.u)) * FLIP
    b = quat.imag(quat.qmul(quat.qconj(Z.base.q), Z.v)) * FLIP
    return np.concatenate([a, b], axis=-1)


def from_frame_coords(base, coeffs):
    """Tangent vector with the given frame coefficients (..., 6) at `base`."""
    coeffs = np.asarray(coeffs, dtype=float)
    u = quat.qmul(base.p, quat.embed(coeffs[..., :3] * FLIP))
    v = quat.qmul(base.q, quat.embed(coeffs[..., 3:] * FLIP))
    return Tangent(base, u, v)


def frame(base):
    """The six frame fields at `base` as a list [E1, E2, E3, F1, F2, F3]."""
    eye = np.eye(6)
    return [from_frame_coords(base, eye[k]) for k in range(6)]


def _levi_civita():
    e = np.zeros((3, 3, 3))
    e[0, 1, 2] = e[1, 2, 0] = e[2, 0, 1] = 1.0
    e[0, 2, 1] = e[2, 1, 0] = e[1, 0, 2] = -1.0
    return e


EPSILON3 = _levi_civita()


def _block_table(blocks):
    """A (6, 6, 6) frame table whose entry (3a + i, 3b + j, 3c + k) is
    blocks[a][b][c] * eps_ijk: a 2x2x2 pattern over the two factors."""
    return np.einsum("abc,ijk->aibjck", np.asarray(blocks), EPSILON3).reshape(6, 6, 6)


_CG = 2.0 / (3.0 * SQRT3)
# Levi-Civita connection on frame pairs
CONN = _block_table(
    [[[-1.0, 0.0], [1.0 / 3.0, -1.0 / 3.0]], [[-1.0 / 3.0, 1.0 / 3.0], [0.0, -1.0]]]
)
# covariant derivative of J
G_TABLE = _block_table(
    [[[-_CG, -2.0 * _CG], [-_CG, _CG]], [[-_CG, _CG], [2.0 * _CG, _CG]]]
)
# covariant derivative of P
H_TABLE = _block_table(
    np.array([[[1.0, 2.0], [-2.0, -1.0]], [[-1.0, -2.0], [2.0, 1.0]]]) / 3.0
)
# frame brackets (each factor separately, mixed brackets vanish)
BRACKET = _block_table([[[-2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -2.0]]])

_I3 = np.eye(3)
J_MAT = np.block(
    [[-_I3 / SQRT3, 2.0 * _I3 / SQRT3], [-2.0 * _I3 / SQRT3, _I3 / SQRT3]]
)
P_MAT = np.block([[0.0 * _I3, _I3], [_I3, 0.0 * _I3]])
Q_MAT = np.block([[-_I3, 0.0 * _I3], [0.0 * _I3, _I3]])
GRAM = np.block(
    [[4.0 * _I3 / 3.0, -2.0 * _I3 / 3.0], [-2.0 * _I3 / 3.0, 4.0 * _I3 / 3.0]]
)

_KINDS = {"EE": (0, 0), "EF": (0, 3), "FE": (3, 0), "FF": (3, 3)}


def conn_frame(i, j, kind):
    """Connection coefficients of one frame pair.

    Args:
        i, j: frame indices in 1..3.
        kind: which blocks the two fields come from, one of EE, EF, FE, FF.

    Returns:
        The (6,) coefficient vector of the derivative of field j along field i.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {sorted(_KINDS)}, got {kind!r}")
    if not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError("frame indices must lie in 1..3")
    oi, oj = _KINDS[kind]
    return CONN[oi + i - 1, oj + j - 1].copy()


def gram_product(c1, c2):
    """Metric value from frame coefficients (constant Gram matrix)."""
    return np.einsum("...a,ab,...b->...", c1, GRAM, c2)


# ---------------------------------------------------------------------------
# structure tensors, metric, curvature
# ---------------------------------------------------------------------------


def apply_J(Z):
    """Almost complex structure: (U, V) -> (2 p q^-1 V - U, -2 q p^-1 U + V)/sqrt3."""
    p, q = Z.base.p, Z.base.q
    pq = quat.qmul(p, quat.qconj(q))
    qp = quat.qconj(pq)
    u = (2.0 * quat.qmul(pq, Z.v) - Z.u) / SQRT3
    v = (-2.0 * quat.qmul(qp, Z.u) + Z.v) / SQRT3
    return Tangent(Z.base, u, v)


def apply_P(Z):
    """Almost product structure: (U, V) -> (p q^-1 V, q p^-1 U)."""
    p, q = Z.base.p, Z.base.q
    pq = quat.qmul(p, quat.qconj(q))
    qp = quat.qconj(pq)
    return Tangent(Z.base, quat.qmul(pq, Z.v), quat.qmul(qp, Z.u))


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
    p, q = Z.base.p, Z.base.q
    pu = quat.qmul(quat.qconj(p), Z.u)
    pu2 = quat.qmul(quat.qconj(p), W.u)
    qv = quat.qmul(quat.qconj(q), Z.v)
    qv2 = quat.qmul(quat.qconj(q), W.v)
    cross = quat.dot(pu, qv2) + quat.dot(pu2, qv)
    return (4.0 * usual_inner(Z, W) - 2.0 * cross) / 3.0


def gnorm(Z):
    """Metric norm sqrt(g(Z, Z))."""
    return np.sqrt(np.maximum(metric(Z, Z), 0.0))


def tensor_G(X, Y):
    """The covariant derivative of J as a 2-tensor, via the constant frame table."""
    _check_same_base(X, Y)
    c = np.einsum(
        "abk,...a,...b->...k", G_TABLE, frame_coords(X), frame_coords(Y)
    )
    return from_frame_coords(X.base, c)


def tensor_H(X, Y):
    """The covariant derivative of P as a 2-tensor, via the constant frame table."""
    _check_same_base(X, Y)
    c = np.einsum(
        "abk,...a,...b->...k", H_TABLE, frame_coords(X), frame_coords(Y)
    )
    return from_frame_coords(X.base, c)


def curvature(X, Y, W):
    """Riemann curvature R(X, Y)W of the metric, in closed form."""
    _check_same_base(X, Y)
    _check_same_base(X, W)
    jx, jy, jw = apply_J(X), apply_J(Y), apply_J(W)
    px, py = apply_P(X), apply_P(Y)
    jpx, jpy = apply_J(px), apply_J(py)
    g = metric
    out = (5.0 / 12.0) * (g(Y, W) * X - g(X, W) * Y)
    out = out + (1.0 / 12.0) * (
        g(jy, W) * jx - g(jx, W) * jy - 2.0 * g(jx, Y) * jw
    )
    out = out + (1.0 / 3.0) * (
        g(py, W) * px - g(px, W) * py + g(jpy, W) * jpx - g(jpx, W) * jpy
    )
    return out


def _mat(m, c):
    return np.einsum("ab,...b->...a", m, c)


def curvature_coeff(x, y, w, j_mat=J_MAT):
    """Closed-form curvature on frame coefficient vectors (position free)."""
    g = gram_product
    jx, jy, jw = _mat(j_mat, x), _mat(j_mat, y), _mat(j_mat, w)
    px, py = _mat(P_MAT, x), _mat(P_MAT, y)
    jpx, jpy = _mat(j_mat, px), _mat(j_mat, py)

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


def sectional_curvature(X, Y):
    """Sectional curvature of span{X, Y}."""
    num = metric(curvature(X, Y, Y), X)
    den = metric(X, X) * metric(Y, Y) - metric(X, Y) ** 2
    return num / den


# ---------------------------------------------------------------------------
# derivatives of vector fields
# ---------------------------------------------------------------------------


def covariant_derivative(field, X, step=1e-4):
    """Levi-Civita derivative of a vector field along X at X's base point.

    The field's frame coefficients are differentiated along the geodesic-like
    curve t -> (p exp(t a), q exp(t b)) with initial velocity X, by a central
    difference of width `step`; the frame's own derivative comes from the
    constant connection table.  Second-order accurate in `step`.

    Args:
        field: callable Point -> Tangent, defined near the base point.
        X: direction (Tangent); the evaluation point is X.base.
        step: finite-difference half-width.
    """
    base = X.base
    a = quat.imag(quat.qmul(quat.qconj(base.p), X.u))
    b = quat.imag(quat.qmul(quat.qconj(base.q), X.v))

    def shifted(t):
        return Point(
            quat.qmul(base.p, quat.qexp(t * a)), quat.qmul(base.q, quat.qexp(t * b))
        )

    cp = frame_coords(field(shifted(step)))
    cm = frame_coords(field(shifted(-step)))
    dc = (cp - cm) / (2.0 * step)
    c0 = frame_coords(field(base))
    x = frame_coords(X)
    conn_term = np.einsum("abk,...a,...b->...k", CONN, x, c0)
    return from_frame_coords(base, dc + conn_term)


def hermitian_connection(field, X, step=1e-4):
    """Canonical Hermitian connection: the Levi-Civita derivative plus half
    the J-derivative tensor applied to (X, J field)."""
    lc = covariant_derivative(field, X, step=step)
    corr = tensor_G(X, apply_J(field(X.base)))
    return lc + 0.5 * corr


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
        ci = quat.qconj(self.c)
        return Point(
            quat.qmul(quat.qmul(self.a, pt.p), ci),
            quat.qmul(quat.qmul(self.b, pt.q), ci),
        )

    def push(self, Z):
        ci = quat.qconj(self.c)
        return Tangent(
            self.apply_point(Z.base),
            quat.qmul(quat.qmul(self.a, Z.u), ci),
            quat.qmul(quat.qmul(self.b, Z.v), ci),
        )


def isometry(a, b, c, tol=1e-6):
    return Isometry(quat.unit(a, tol=tol), quat.unit(b, tol=tol), quat.unit(c, tol=tol))


def random_isometry(rng):
    return Isometry(
        quat.random_unit(rng), quat.random_unit(rng), quat.random_unit(rng)
    )


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


def _commutator(m, table):
    """[M, D] on a derivative table: entry (a, b) is D_a(M e_b) - M D_a(e_b),
    where D_a(e_b) is the coefficient vector `table[a, b]`."""
    return np.einsum("kb,akm->abm", m, table) - np.einsum("mk,abk->abm", m, table)


def identity_report(samples=1000, seed=42, j_scale=1.0):
    """Max residuals of the structural identities of the geometry.

    Frame-exact identities are evaluated on the constant tables; sampled
    identities draw `samples` random points with one or two random tangents
    each.  `j_scale` multiplies the almost complex structure everywhere the
    suite applies it (a deliberate-inconsistency hook for negative controls;
    1.0 means the genuine structure).

    Returns a dict mapping identity names to max residuals.  Raises
    ValueError when `samples` is below 1.
    """
    if not samples >= 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    rng = np.random.default_rng(seed)
    jm = j_scale * J_MAT

    def aj(Z):
        return j_scale * apply_J(Z)

    res = {}
    eye = np.eye(6)

    # --- sampled ambient identities -------------------------------------
    pts = random_point(rng, (samples,))
    X = random_tangent(rng, pts)
    Y = random_tangent(rng, pts)
    Z = random_tangent(rng, pts)
    W = random_tangent(rng, pts)

    fr = frame(pts)
    gram_dev = 0.0
    for aa in range(6):
        for bb in range(6):
            gram_dev = max(
                gram_dev,
                float(np.abs(metric(fr[aa], fr[bb]) - GRAM[aa, bb]).max()),
            )
    res["frame_metric"] = gram_dev

    two_form = 0.5 * (usual_inner(X, Y) + usual_inner(aj(X), aj(Y)))
    res["metric_two_forms"] = float(np.abs(two_form - metric(X, Y)).max())

    res["j_squared"] = float(np.abs(frame_coords(aj(aj(X)) + X)).max())
    res["p_squared"] = float(np.abs(frame_coords(apply_P(apply_P(X)) - X)).max())
    res["q_squared"] = float(np.abs(frame_coords(apply_Q(apply_Q(X)) - X)).max())
    res["pj_anticommute"] = float(
        np.abs(frame_coords(apply_P(aj(X)) + aj(apply_P(X)))).max()
    )
    res["g_j_invariant"] = float(np.abs(metric(aj(X), aj(Y)) - metric(X, Y)).max())
    res["g_p_invariant"] = float(
        np.abs(metric(apply_P(X), apply_P(Y)) - metric(X, Y)).max()
    )
    qj = apply_Q(aj(X))
    flip = (1.0 / SQRT3) * ((-2.0) * apply_P(X) + X)
    res["q_j_product_flip"] = float(np.abs(frame_coords(qj - flip)).max())
    res["usual_metric_recovery"] = float(
        np.abs(
            metric(apply_Q(X), apply_Q(Y))
            + metric(X, Y)
            - (8.0 / 3.0) * usual_inner(X, Y)
        ).max()
    )

    # frame representations of J, P, Q agree with the ambient operators
    rep_dev = 0.0
    for bb in range(6):
        rep_dev = max(
            rep_dev,
            float(np.abs(frame_coords(apply_J(fr[bb])) - J_MAT[:, bb]).max()),
            float(np.abs(frame_coords(apply_P(fr[bb])) - P_MAT[:, bb]).max()),
            float(np.abs(frame_coords(apply_Q(fr[bb])) - Q_MAT[:, bb]).max()),
        )
    res["frame_representation"] = rep_dev

    # --- J-derivative tensor properties ---------------------------------
    gxy = tensor_G(X, Y)
    res["g_tensor_skew"] = float(
        np.abs(frame_coords(gxy + tensor_G(Y, X))).max()
    )
    res["g_tensor_j_mix"] = float(
        np.abs(frame_coords(tensor_G(X, aj(Y)) + aj(gxy))).max()
    )
    res["g_tensor_metric_skew"] = float(
        np.abs(metric(gxy, Z) + metric(tensor_G(X, Z), Y)).max()
    )

    hxy = tensor_H(X, Y)
    res["p_g_compat"] = float(
        np.abs(
            frame_coords(apply_P(gxy) + tensor_G(apply_P(X), apply_P(Y)))
        ).max()
    )
    res["h_j_mix"] = float(
        np.abs(frame_coords(tensor_H(X, aj(Y)) - aj(hxy))).max()
    )
    res["g_p_mix"] = float(
        np.abs(
            frame_coords(tensor_G(X, apply_P(Y)) + apply_P(gxy) + 2.0 * aj(hxy))
        ).max()
    )
    res["h_p_mix"] = float(
        np.abs(frame_coords(tensor_H(X, apply_P(Y)) + apply_P(hxy))).max()
    )
    res["h_p_first_slot"] = float(
        np.abs(frame_coords(hxy + tensor_H(apply_P(X), Y))).max()
    )

    # pairwise product of J-derivative tensors
    lhs = metric(gxy, tensor_G(Z, W))
    rhs = (1.0 / 3.0) * (
        metric(X, Z) * metric(Y, W)
        - metric(X, W) * metric(Y, Z)
        + metric(aj(X), Z) * metric(aj(W), Y)
        - metric(aj(X), W) * metric(aj(Z), Y)
    )
    res["g_tensor_pair_product"] = float(np.abs(lhs - rhs).max())

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
    res["j_derivative_table"] = float(np.abs(_commutator(jm, CONN) - G_TABLE).max())
    res["p_derivative_table"] = float(np.abs(_commutator(P_MAT, CONN) - H_TABLE).max())

    # Hermitian connection parallelism of J and P: its frame table is the
    # connection table plus half the J-derivative table applied to J e_b
    bar = CONN + 0.5 * np.einsum("kb,akm->abm", jm, G_TABLE)
    res["hermitian_j_parallel"] = float(np.abs(_commutator(jm, bar)).max())
    res["hermitian_p_parallel"] = float(np.abs(_commutator(P_MAT, bar)).max())

    # covariant derivative of the J-derivative tensor (frame triples)
    lhs = (
        np.einsum("bck,akm->abcm", G_TABLE, CONN)
        - np.einsum("kcm,abk->abcm", G_TABLE, CONN)
        - np.einsum("bkm,ack->abcm", G_TABLE, CONN)
    )
    rhs = (1.0 / 3.0) * (
        np.einsum("ac,mb->abcm", GRAM, jm)
        - np.einsum("ab,mc->abcm", GRAM, jm)
        - np.einsum("kb,kc,am->abcm", jm, GRAM, eye)
    )
    res["g_tensor_derivative"] = float(np.abs(lhs - rhs).max())

    # curvature: closed form against the structure-constant oracle
    formula = curvature_coeff(
        eye[:, None, None], eye[None, :, None], eye[None, None, :], j_mat=jm
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


def default_thresholds(report):
    """Per-identity thresholds: 1e-12 for frame-exact entries, 1e-10 for sampled."""
    return {
        k: (1e-12 if k in _EXACT_KEYS else 1e-10) for k in report
    }


def validate_tol_scale(tol_scale):
    """`tol_scale` as a float; raises ValueError unless it is finite and
    positive, so no tolerance multiplier can switch a gate off."""
    value = float(tol_scale)
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"tol_scale must be finite and positive, got {tol_scale!r}")
    return value


def verify(samples=1000, seed=42, tol_scale=1.0, j_scale=1.0):
    """Run the identity suite against thresholds.

    Returns (report, thresholds, ok); ok is True when every residual stays
    within tol_scale times its threshold.  Raises ValueError when
    `tol_scale` is not finite and positive.
    """
    tol_scale = validate_tol_scale(tol_scale)
    report = identity_report(samples=samples, seed=seed, j_scale=j_scale)
    thresholds = {k: tol_scale * v for k, v in default_thresholds(report).items()}
    ok = all(report[k] <= thresholds[k] for k in report)
    return report, thresholds, ok
