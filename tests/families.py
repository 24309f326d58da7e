"""Grid families that several test modules build their controls from."""
import numpy as np

from nks3 import frame, quat
from nks3 import surface as sf


def circle(a):
    """exp(a i) as (..., 4)."""
    return np.stack([np.cos(a), np.sin(a), 0.0 * a, 0.0 * a], axis=-1)


def example1_points(lat, u, s=1.0):
    """example1's circle pair with u-parameters `u` (nu, 1) and the v of
    `lat`, p = exp((u - v / sqrt3) i), q = exp(-2 v / sqrt3 i), over `lat`
    relabelled by `s`."""
    v = lat.v_vals[None, :]
    moved = sf.lattice(s * lat.u0, s * lat.v0, s * lat.du, s * lat.dv, lat.nu, lat.nv)
    return sf.immersion_grid(moved, circle(u - v / frame.SQRT3),
                             circle(-2.0 * v / frame.SQRT3 + 0.0 * u))


def shifted_rows(delta, s=1.0):
    """example1 21^2 at h = 5e-4 with every other u-row sampled `delta` h
    further along u, relabelled by `s`: its coefficients are constant, so
    the grid stays adapted, while each logarithmic derivative gains a real
    part 2 delta h |c|^2 that scales as 1 / s (tolerance 3.9e-5 at s = 1)."""
    lat = sf.lattice(0.0, 0.0, 5e-4, 5e-4, 21, 21)
    return example1_points(lat, (lat.u_vals + delta * lat.du * (np.arange(21) % 2))[:, None], s)


def parallel_tangents(angle):
    """p = q = exp(u i) exp(v w) on 21^2 at h = 0.05, w the unit imaginary
    `angle` away from i: phi_u and phi_v meet at `angle` everywhere, so
    (EG - F^2) / E_max^2 is sin^2(angle) (floor 1e-10).  The grid is far
    from adapted, so `analyze` reaches the metric floor only at a
    `tol_scale` above 1.414 / 0.05."""
    lat = sf.lattice(0.0, 0.0, 0.05, 0.05, 21, 21)
    u, v = np.meshgrid(lat.u_vals, lat.v_vals, indexing="ij")
    w = np.array([np.cos(angle), np.sin(angle), 0.0])
    p = quat.qmul(quat.qexp(u[..., None] * [1.0, 0.0, 0.0]), quat.qexp(v[..., None] * w))
    return sf.immersion_grid(lat, p, p.copy())
