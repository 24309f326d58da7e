"""Quaternion algebra on trailing-axis numpy arrays.

Quaternions are float arrays whose last axis carries the four components
(w, x, y, z) in the basis (1, i, j, k), multiplied with the Hamilton
convention ij = k.  A vector in R^3 is identified with the imaginary
quaternion x i + y j + z k (functions `embed` / `imag`).  Everything
broadcasts over leading axes, so the same call handles a single value, a
sampled grid, or a batch of random draws.

The kernels read whole components.  numpy runs its inner loop once per
point when an operand's 3- or 4-long last axis cannot merge with the axis
before it (a broadcast sign vector, a strided (..., 3) view, a last-axis
concatenate), so each elementwise op here takes the (...,) component
arrays a[..., k] instead, and skips broadcasting when both operands
already share a shape.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ONE",
    "qmul",
    "qconj",
    "norm",
    "normalize",
    "unit",
    "unit_norm",
    "embed",
    "imag",
    "qexp",
    "dot",
    "cross",
]

ONE = np.array([1.0, 0.0, 0.0, 0.0])

_UNIT_TOL = 1e-6


def _shape(a, b):
    """The broadcast shape of the arrays `a` and `b`."""
    return a.shape if a.shape == b.shape else np.broadcast_shapes(a.shape, b.shape)


def qmul(a, b):
    """Hamilton product of two quaternion arrays (broadcasting)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(_shape(a, b))
    # each component summed left to right in one contiguous temporary
    t = aw * bw
    t -= ax * bx
    t -= ay * by
    t -= az * bz
    out[..., 0] = t
    t = aw * bx
    t += ax * bw
    t += ay * bz
    t -= az * by
    out[..., 1] = t
    t = aw * by
    t -= ax * bz
    t += ay * bw
    t += az * bx
    out[..., 2] = t
    t = aw * bz
    t += ax * by
    t -= ay * bx
    t += az * bw
    out[..., 3] = t
    return out


def qconj(q):
    """Quaternion conjugate: negate the imaginary part.

    The bits of `q * [1, -1, -1, -1]`, except that a NaN imaginary part
    may come out with its sign bit flipped."""
    q = np.asarray(q, dtype=float)
    out = np.negative(q)
    out[..., 0] = q[..., 0]
    return out


def norm(q):
    """Euclidean norm of the four components: the bits of `np.linalg.norm(q,
    axis=-1)`, without its (..., 4) array of squares."""
    return np.sqrt(dot(q, q))


def normalize(q):
    """Scale to unit norm (no validation)."""
    q = np.asarray(q, dtype=float)
    return q / norm(q)[..., None]


def unit(q):
    """Validated unit quaternion: renormalizes, rejecting larger deviations.

    Args:
        q: quaternion array.

    Returns:
        The renormalized array (norm exactly 1 up to roundoff).

    Raises:
        ValueError: non-finite input or norm off by more than `_UNIT_TOL`.
    """
    q = np.asarray(q, dtype=float)
    return q / unit_norm(q)[..., None]


def unit_norm(q):
    """The norms of the float array `q` after `unit`'s checks, which raise
    its ValueErrors; `surface.immersion_grid` divides by them in place."""
    if q.shape[-1] != 4:
        raise ValueError(f"expected 4 trailing components, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("quaternion components must be finite")
    n = norm(q)
    dev = np.abs(n - 1.0)
    worst = float(dev.max()) if dev.size else 0.0
    if worst > _UNIT_TOL:
        raise ValueError(
            f"quaternion norm deviates from 1 by {worst:.3e} (tolerance {_UNIT_TOL:.1e})"
        )
    return n


def embed(v):
    """R^3 vector -> imaginary quaternion (0, x, y, z)."""
    v = np.asarray(v, dtype=float)
    out = np.empty(v.shape[:-1] + (4,))
    out[..., 0] = 0.0
    for k in range(3):
        out[..., k + 1] = v[..., k]
    return out


def imag(q):
    """Imaginary part of a quaternion as an R^3 vector."""
    return np.asarray(q, dtype=float)[..., 1:]


def qexp(v):
    """Exponential of the imaginary quaternion embed(v).

    Equals (cos|v|, sin|v| v/|v|); the |v| -> 0 limit is handled by the
    cardinal sine.
    """
    v = np.asarray(v, dtype=float)
    t = np.sqrt(dot(v, v))
    scale = np.sinc(t / np.pi)
    out = np.empty(v.shape[:-1] + (4,))
    np.cos(t, out=out[..., 0])
    for k in range(3):
        np.multiply(scale, v[..., k], out=out[..., k + 1])
    return out


def dot(a, b):
    """Euclidean inner product over the trailing axis, of quaternions or of
    R^3 vectors.

    Sums the component products in order from 0.0, as
    `np.sum(a * b, axis=-1)` does on an axis shorter than 8, so the two
    agree bit for bit (the 0.0 start turns a sum of -0.0 into +0.0) without
    the reduction's overhead.  Operands of different shapes broadcast
    before their components are read, so a 0-d operand works.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    out = a[..., 0] * b[..., 0]
    out += 0.0
    for k in range(1, a.shape[-1]):
        out += a[..., k] * b[..., k]
    return out


def cross(a, b):
    """Cross product of R^3 vectors over the trailing axis (broadcasting),
    component by component as `np.cross` forms it, without its input copies."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.empty(_shape(a, b))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        out[..., i] = a[..., j] * b[..., k] - a[..., k] * b[..., j]
    return out
