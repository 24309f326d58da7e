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
    "QI",
    "QJ",
    "QK",
    "qmul",
    "qconj",
    "norm",
    "normalize",
    "unit",
    "qinv",
    "embed",
    "imag",
    "im_split",
    "qexp",
    "dot",
    "random_unit",
    "random_vec3",
]

ONE = np.array([1.0, 0.0, 0.0, 0.0])
QI = np.array([0.0, 1.0, 0.0, 0.0])
QJ = np.array([0.0, 0.0, 1.0, 0.0])
QK = np.array([0.0, 0.0, 0.0, 1.0])


def qmul(a, b):
    """Hamilton product of two quaternion arrays (broadcasting)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def qconj(q):
    """Quaternion conjugate: negate the imaginary part."""
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def norm(q):
    """Euclidean norm of the four components."""
    return np.linalg.norm(np.asarray(q, dtype=float), axis=-1)


def normalize(q):
    """Scale to unit norm (no validation)."""
    q = np.asarray(q, dtype=float)
    return q / norm(q)[..., None]


def unit(q, tol=1e-6):
    """Validated unit quaternion: renormalizes, rejecting larger deviations.

    Args:
        q: quaternion array.
        tol: largest tolerated pre-normalization deviation of the norm from 1.

    Returns:
        The renormalized array (norm exactly 1 up to roundoff).

    Raises:
        ValueError: non-finite input or norm off by more than `tol`.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != 4:
        raise ValueError(f"expected 4 trailing components, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("quaternion components must be finite")
    n = norm(q)
    dev = np.abs(n - 1.0)
    worst = float(dev.max()) if dev.size else 0.0
    if worst > tol:
        raise ValueError(
            f"quaternion norm deviates from 1 by {worst:.3e} (tolerance {tol:.1e})"
        )
    return q / n[..., None]


def qinv(q, tol=1e-9):
    """Inverse of a unit quaternion (its conjugate).

    Rejects input whose norm deviates from 1 by more than `tol`; this keeps
    the conjugate-equals-inverse shortcut honest.
    """
    q = np.asarray(q, dtype=float)
    dev = np.abs(norm(q) - 1.0)
    worst = float(dev.max()) if dev.size else 0.0
    if not worst <= tol:
        raise ValueError(
            f"qinv needs unit input; norm deviates by {worst:.3e} (tolerance {tol:.1e})"
        )
    return qconj(q)


def embed(v):
    """R^3 vector -> imaginary quaternion (0, x, y, z)."""
    v = np.asarray(v, dtype=float)
    w = np.zeros(v.shape[:-1] + (1,))
    return np.concatenate([w, v], axis=-1)


def imag(q):
    """Imaginary part of a quaternion as an R^3 vector."""
    return np.asarray(q, dtype=float)[..., 1:]


def im_split(x, y):
    """Dot/cross decomposition of a product of imaginary quaternions.

    For x, y in R^3 the quaternion product of their embeddings is
    -(x . y) + x cross y; this returns the pair (x . y, x cross y).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.sum(x * y, axis=-1), np.cross(x, y)


def qexp(v):
    """Exponential of the imaginary quaternion embed(v).

    Equals (cos|v|, sin|v| v/|v|); the |v| -> 0 limit is handled by the
    cardinal sine.
    """
    v = np.asarray(v, dtype=float)
    t = np.linalg.norm(v, axis=-1, keepdims=True)
    return np.concatenate([np.cos(t), np.sinc(t / np.pi) * v], axis=-1)


def dot(a, b):
    """Euclidean inner product over the trailing axis."""
    return np.sum(np.asarray(a, dtype=float) * np.asarray(b, dtype=float), axis=-1)


def random_unit(rng, shape=()):
    """Uniform random unit quaternions (normalized gaussians)."""
    if isinstance(shape, int):
        shape = (shape,)
    return normalize(rng.standard_normal(tuple(shape) + (4,)))


def random_vec3(rng, shape=()):
    """Standard normal R^3 vectors."""
    if isinstance(shape, int):
        shape = (shape,)
    return rng.standard_normal(tuple(shape) + (3,))
