"""Quaternion algebra on trailing-axis numpy arrays.

Quaternions are float arrays whose last axis carries the four components
(w, x, y, z) in the basis (1, i, j, k), multiplied with the Hamilton
convention ij = k.  A vector in R^3 is identified with the imaginary
quaternion x i + y j + z k (functions `embed` / `imag`).  Everything
broadcasts over leading axes, so the same call handles a single value, a
sampled grid, or a batch of random draws.
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
_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def qmul(a, b):
    """Hamilton product of two quaternion arrays (broadcasting)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = aw * bw - ax * bx - ay * by - az * bz
    out[..., 1] = aw * bx + ax * bw + ay * bz - az * by
    out[..., 2] = aw * by - ax * bz + ay * bw + az * bx
    out[..., 3] = aw * bz + ax * by - ay * bx + az * bw
    return out


def qconj(q):
    """Quaternion conjugate: negate the imaginary part."""
    return np.asarray(q, dtype=float) * _CONJ_SIGNS


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
    w = np.zeros(v.shape[:-1] + (1,))
    return np.concatenate([w, v], axis=-1)


def imag(q):
    """Imaginary part of a quaternion as an R^3 vector."""
    return np.asarray(q, dtype=float)[..., 1:]


def qexp(v):
    """Exponential of the imaginary quaternion embed(v).

    Equals (cos|v|, sin|v| v/|v|); the |v| -> 0 limit is handled by the
    cardinal sine.
    """
    v = np.asarray(v, dtype=float)
    t = np.linalg.norm(v, axis=-1, keepdims=True)
    scale = np.sinc(t / np.pi)
    out = np.empty(v.shape[:-1] + (4,))
    np.cos(t, out=out[..., :1])
    np.multiply(scale, v, out=out[..., 1:])
    return out


def dot(a, b):
    """Euclidean inner product of quaternions over the trailing axis.

    Sums the component products in order from 0.0, as
    `np.sum(a * b, axis=-1)` does on a length-4 axis, so the two agree bit
    for bit (the 0.0 start turns a sum of four -0.0 into +0.0) without the
    reduction's overhead.  Operands broadcast before their components are
    read, so a 0-d operand works.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    out = a[..., 0] * b[..., 0]
    out += 0.0
    for k in (1, 2, 3):
        out += a[..., k] * b[..., k]
    return out


def cross(a, b):
    """Cross product of R^3 vectors over the trailing axis (broadcasting),
    component by component as `np.cross` forms it, without its input copies."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        out[..., i] = a[..., j] * b[..., k] - a[..., k] * b[..., j]
    return out
