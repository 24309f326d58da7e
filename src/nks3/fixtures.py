"""Closed-form grid generators for the example surfaces and CMC solutions.

Two totally geodesic almost complex surfaces (a torus-like orbit through
circle factors and the diagonal-type round sphere) are emitted in adapted
coordinates, plus the two constant-mean-curvature solution surfaces of the
flat-space equation they correspond to (a round sphere and a circular
cylinder in conformal parameters), each built by `make_fixture`.  A
deliberately non-adapted immersion is provided as a negative control for
gate tests.
"""

from __future__ import annotations

import numpy as np

from .hsystem import h_surface_grid
from .frame import SQRT3
from .surface import immersion_grid, lattice

__all__ = [
    "FIXTURE_NAMES",
    "POLE_MARGIN",
    "make_fixture",
    "non_adapted_grid",
    "SPHERE_RADIUS",
    "CYLINDER_RADIUS",
]

SPHERE_RADIUS = SQRT3 / 2.0
CYLINDER_RADIUS = SQRT3 / 4.0


# the sphere fixtures keep their conformal factor above this, off the poles
POLE_MARGIN = 0.2


def _circle(angle):
    """exp of an imaginary quaternion along the first axis, as (..., 4)."""
    zero = np.zeros_like(angle)
    return np.stack([np.cos(angle), np.sin(angle), zero, zero], axis=-1)


def _sech(x):
    """The sphere fixtures' conformal factor 1 / cosh(x), |x| clamped at 710
    so cosh cannot overflow; raises ValueError below `POLE_MARGIN`."""
    sech = 1.0 / np.cosh(np.clip(x, -710.0, 710.0))
    if float(sech.min()) < POLE_MARGIN:
        raise ValueError(
            f"window reaches a conformal factor {sech.min():.3f}, below the "
            f"pole margin {POLE_MARGIN}"
        )
    return sech


def _example1_grid(lat):
    """Product-of-circles surface in adapted coordinates.

    Both factors move along the same circle subgroup; the parameters are a
    fixed linear change from the natural per-factor angles, chosen so the
    v-derivative is J applied to the u-derivative identically.
    """
    u = lat.u_vals[:, None]
    v = lat.v_vals[None, :]
    s = u - v / SQRT3
    t = -2.0 * v / SQRT3 + 0.0 * u
    return immersion_grid(lat, _circle(s), _circle(t))


def _example2_grid(lat):
    """Round-sphere surface in conformal (Mercator) adapted coordinates.

    The underlying map sends a point x of the unit 2-sphere to the pair
    (c - s x, c + s x) with c = 1/2 and s = sqrt3/2 (real part c, imaginary
    part along x).  Spherical coordinates are conformally reparametrized in
    the polar angle so the grid is adapted.
    """
    sin_u = _sech(lat.u_vals)
    cos_u = -np.tanh(lat.u_vals)
    v = lat.v_vals
    p, q = np.empty((2, lat.nu, lat.nv, 4))
    x = q[..., 1:]  # x is written into q and scaled into p and q in place
    x[..., 0] = sin_u[:, None] * np.cos(v)[None, :]
    x[..., 1] = sin_u[:, None] * np.sin(v)[None, :]
    x[..., 2] = cos_u[:, None] + 0.0 * v[None, :]
    p[..., 0] = q[..., 0] = 0.5
    np.multiply(x, -(SQRT3 / 2.0), out=p[..., 1:])
    x *= SQRT3 / 2.0
    return immersion_grid(lat, p, q)


def _cmc_sphere_epsilon(lat):
    """Round sphere of radius sqrt3/2 in conformal coordinates: u is the
    longitude, v the Mercator coordinate (the mirrored orientation does not
    solve the equation)."""
    r = SPHERE_RADIUS
    lon = lat.u_vals[:, None]
    mer = lat.v_vals[None, :]
    sech = _sech(mer)
    eps = np.stack(
        [
            r * sech * np.cos(lon) + 0.0 * (lon + mer),
            r * sech * np.sin(lon) + 0.0 * (lon + mer),
            r * np.tanh(mer) + 0.0 * (lon + mer),
        ],
        axis=-1,
    )
    return h_surface_grid(lat, eps)


def _cmc_cylinder_epsilon(lat):
    """Circular cylinder of radius sqrt3/4 in arclength coordinates: u wraps
    around the axis and v runs along it (the mirrored orientation does not
    solve the equation)."""
    r = CYLINDER_RADIUS
    wrap = lat.u_vals[:, None]
    axis = lat.v_vals[None, :]
    eps = np.stack(
        [
            r * np.cos(wrap / r) + 0.0 * axis,
            r * np.sin(wrap / r) + 0.0 * axis,
            axis + 0.0 * wrap,
        ],
        axis=-1,
    )
    return h_surface_grid(lat, eps)


def non_adapted_grid(lat):
    """Negative control over the `Lattice` `lat`: a smooth immersion whose
    tangent planes are not J-invariant (independent circle factors)."""
    u = lat.u_vals[:, None]
    v = lat.v_vals[None, :]
    p = _circle(u + 0.0 * v)
    zero = np.zeros((lat.nu, lat.nv))
    q = np.stack([np.cos(v) + 0.0 * u, zero, np.sin(v) + 0.0 * u, zero], axis=-1)
    return immersion_grid(lat, p, q)


# name -> (builder, default step, default point count, centred axis); the
# centred axis keeps a conformal coordinate symmetric about its equator
_FIXTURES = {
    "example1": (_example1_grid, 1e-2, 101, None),
    "example2": (_example2_grid, 5e-3, 201, 0),
    "cmc_sphere": (_cmc_sphere_epsilon, 6e-3, 201, 1),
    "cmc_cylinder": (_cmc_cylinder_epsilon, 6e-3, 201, 1),
}
FIXTURE_NAMES = tuple(_FIXTURES)


def make_fixture(name, nu=None, nv=None, du=None, dv=None):
    """The named fixture (an `ImmersionGrid` or an `HSurfaceGrid`) over its
    default window, with any given point count or step overriding it.

    Raises ValueError for an unknown name, a window `surface.lattice`
    refuses, and a sphere window that reaches `POLE_MARGIN`."""
    if name not in _FIXTURES:
        raise ValueError(f"unknown fixture {name!r}, expected one of {FIXTURE_NAMES}")
    build, step, count, centred = _FIXTURES[name]
    du = step if du is None else float(du)
    dv = step if dv is None else float(dv)
    nu = count if nu is None else int(nu)
    nv = count if nv is None else int(nv)
    u0 = -0.5 * (nu - 1) * du if centred == 0 else 0.0
    v0 = -0.5 * (nv - 1) * dv if centred == 1 else 0.0
    return build(lattice(u0, v0, du, dv, nu, nv))
