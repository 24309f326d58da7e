"""Constant frame tables of the nearly Kähler product of two unit 3-spheres.

Right translation of i, j, -k through each factor gives six global frame
fields E1, E2, E3, F1, F2, F3 that trivialize the tangent bundle, and every
structure tensor of the geometry has constant coefficients in that frame.
This module holds those constants and the kernels that act on (..., 6)
frame coefficient arrays: the frame matrices of J, P and Q, the Gram matrix
of the metric (`gram_product`), and the Levi-Civita connection, the
covariant-derivative tensors of J and P and the frame brackets as
(6, 6, 6) tables built from 2x2x2 factor-block patterns
(`connection_term`).  The grid code in `surface`, `hsystem`, `fixtures` and
`io` reads these alone, on coefficients with `FLIP` left out, where only
the connection changes sign (see `surface`); `nkspace` cross-checks them
against the ambient quaternion formulas.

It also holds the upper-bound and floor comparisons behind every check,
`gate` and `at_least`, the tolerance law of every grid gate, `tolerance`,
and its `roundoff` term, and the tolerance multiplier's
`validate_tol_scale`.  Both read a grid's step in arclength, which
relabelling (u, v) by a constant leaves unchanged, as it leaves each gated
residual and floor ratio: no verdict depends on how fast a grid's
parameters run.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SQRT3",
    "FLIP",
    "EPSILON3",
    "CONN",
    "G_TABLE",
    "H_TABLE",
    "BRACKET",
    "J_MAT",
    "P_MAT",
    "Q_MAT",
    "GRAM",
    "gram_product",
    "connection_term",
    "gate",
    "at_least",
    "TOL_CAP",
    "roundoff",
    "tolerance",
    "validate_tol_scale",
]

SQRT3 = float(np.sqrt(3.0))

# frame coefficient <-> imaginary-part sign pattern: the third frame field of
# each factor is the right translate of -k
FLIP = np.array([1.0, 1.0, -1.0])

# Levi-Civita symbol: eps_ijk is component k of e_i x e_j
EPSILON3 = np.cross(np.eye(3)[:, None], np.eye(3))


def _block_table(blocks):
    """A (6, 6, 6) frame table whose entry (3a + i, 3b + j, 3c + k) is
    blocks[a][b][c] * eps_ijk: a 2x2x2 pattern over the two factors."""
    return np.einsum("abc,ijk->aibjck", np.asarray(blocks), EPSILON3).reshape(6, 6, 6)


_CG = 2.0 / (3.0 * SQRT3)
# Levi-Civita connection on frame pairs, as a factor-block pattern (which
# `connection_term` contracts) and as the frame table it expands to
_CONN_BLOCKS = np.array(
    [[[-1.0, 0.0], [1.0 / 3.0, -1.0 / 3.0]], [[-1.0 / 3.0, 1.0 / 3.0], [0.0, -1.0]]]
)
CONN = _block_table(_CONN_BLOCKS)
# covariant derivatives of J and P as factor-block patterns, which
# `nkspace.tensor_G` and `nkspace.tensor_H` contract, and as the frame tables
# they expand to.  Products read the patterns and `nkspace.verify` checks the
# tables, so a table rebuilt from perturbed blocks shows up in its table
# identities.
_G_BLOCKS = np.array(
    [[[-_CG, -2.0 * _CG], [-_CG, _CG]], [[-_CG, _CG], [2.0 * _CG, _CG]]]
)
_H_BLOCKS = np.array([[[1.0, 2.0], [-2.0, -1.0]], [[-1.0, -2.0], [2.0, 1.0]]]) / 3.0
G_TABLE = _block_table(_G_BLOCKS)
H_TABLE = _block_table(_H_BLOCKS)
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


def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


def gram_product(c1, c2):
    """Metric value from frame coefficients: GRAM is 4/3 the identity minus
    2/3 the swap of the two factors, so three dot products give it.  The
    sum (4 dot - 2 swap) / 3 is built in place in the dot field, so at most
    two fields of the result's shape are alive at once."""
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    swap = _dot(c1[..., :3], c2[..., 3:])
    swap += _dot(c1[..., 3:], c2[..., :3])
    swap *= 2.0
    out = _dot(c1, c2)
    out *= 4.0
    out -= swap
    out /= 3.0
    return out


def _block_product(blocks, x, y):
    """table[a, b, k] x_a y_b for table = `_block_table(blocks)`: factor
    block (A, B) adds blocks[A, B, C] (x_A cross y_B) to output factor C,
    one component at a time, so no temporary is wider than one component."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]) + (6,))
    for a, b in np.ndindex(2, 2):
        w = blocks[a, b]
        xa, yb = x[..., 3 * a : 3 * a + 3], y[..., 3 * b : 3 * b + 3]
        for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            c = xa[..., j] * yb[..., l] - xa[..., l] * yb[..., j]  # as `quat.cross`
            for k, wc in enumerate(w):
                if wc:
                    out[..., 3 * k + i] += wc * c
    return out


def connection_term(x, y):
    """CONN[a, b, k] x_a y_b: the frame coefficients of x_a y_b nabla_{e_a} e_b,
    which a covariant derivative along x adds to the derivative of y's
    coefficients."""
    return _block_product(_CONN_BLOCKS, x, y)


def gate(value, tol, what, error=ValueError, why=""):
    """`value` as a float when it is at most `tol`; otherwise raises
    `error("<what> <value> exceeds <tol><why>")`.  A NaN value fails."""
    if not value <= tol:
        raise error(f"{what} {value:.3e} exceeds {tol:.1e}{why}")
    return float(value)


def at_least(value, bound, what, why=""):
    """`value` as a float when it is at least `bound`; otherwise raises
    `ValueError("<what> <value> below <bound><why>")`.  A NaN value fails."""
    if not value >= bound:
        raise ValueError(f"{what} {value:.3e} below {bound:.1e}{why}")
    return float(value)


_EPS = float(np.finfo(float).eps)

TOL_CAP = 0.05  # the largest tolerance at tol_scale 1


def roundoff(lat, speed):
    """100 eps / h^2, eps the float64 machine epsilon, at the larger step in
    arclength h = max(lat.du, lat.dv) sqrt(speed) of a map whose largest
    squared speed over the `Lattice` `lat` is `speed`: the relative roundoff
    of a second difference."""
    return 100.0 * _EPS / max(max(lat.du, lat.dv) ** 2 * speed, _EPS)


def tolerance(lat, speed, tol_scale):
    """`tol_scale` min(100 h^2 + `roundoff`, `TOL_CAP`) at the same h: the
    error of a second-order stencil, the roundoff of a second difference,
    and a cap where a grid is too coarse or too fine for either to bound
    its defects.  A NaN speed gives a NaN tolerance, which every gate fails."""
    h2 = max(lat.du, lat.dv) ** 2 * speed
    return tol_scale * min(100.0 * h2 + roundoff(lat, speed), TOL_CAP)


def validate_tol_scale(tol_scale):
    """`tol_scale` as a float; raises ValueError unless it is finite and
    positive, so no tolerance multiplier can switch a gate off."""
    value = float(tol_scale)
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"tol_scale must be finite and positive, got {tol_scale!r}")
    return value
