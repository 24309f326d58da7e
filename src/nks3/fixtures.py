"""Closed-form grid generators for the example surfaces and CMC solutions.

Two totally geodesic almost complex surfaces (a torus-like orbit through
circle factors and the diagonal-type round sphere) are emitted in adapted
coordinates, plus the two constant-mean-curvature solution surfaces of the
flat-space equation they correspond to (a round sphere and a circular
cylinder in conformal parameters).  A deliberately non-adapted immersion is
provided as a negative control for gate tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hsystem import h_surface_grid
from .nkspace import SQRT3
from .surface import Lattice, immersion_grid, lattice

__all__ = [
    "FIXTURE_NAMES",
    "FixtureSpec",
    "POLE_MARGIN",
    "default_spec",
    "example1_grid",
    "example2_grid",
    "cmc_sphere_epsilon",
    "cmc_cylinder_epsilon",
    "non_adapted_grid",
    "make_fixture",
    "SPHERE_RADIUS",
    "CYLINDER_RADIUS",
]

SPHERE_RADIUS = SQRT3 / 2.0
CYLINDER_RADIUS = SQRT3 / 4.0


# the sphere fixtures keep their conformal factor above this, off the poles
POLE_MARGIN = 0.2


@dataclass(frozen=True)
class FixtureSpec(Lattice):
    """The `Lattice` of one named fixture grid."""

    name: str


def default_spec(name, nu=None, nv=None, du=None, dv=None):
    """Per-fixture default windows, centered where the geometry wants it."""
    if name not in _FIXTURES:
        raise ValueError(f"unknown fixture {name!r}, expected one of {FIXTURE_NAMES}")
    _, step, count, centred = _FIXTURES[name]
    du = step if du is None else float(du)
    dv = step if dv is None else float(dv)
    nu = count if nu is None else int(nu)
    nv = count if nv is None else int(nv)
    u0 = -0.5 * (nu - 1) * du if centred == 0 else 0.0
    v0 = -0.5 * (nv - 1) * dv if centred == 1 else 0.0
    return FixtureSpec(**lattice(u0, v0, du, dv, nu, nv).window(), name=name)


def _circle(angle):
    """exp of an imaginary quaternion along the first axis, as (..., 4)."""
    zero = np.zeros_like(angle)
    return np.stack([np.cos(angle), np.sin(angle), zero, zero], axis=-1)


def example1_grid(spec):
    """Product-of-circles surface in adapted coordinates.

    Both factors move along the same circle subgroup; the parameters are a
    fixed linear change from the natural per-factor angles, chosen so the
    v-derivative is J applied to the u-derivative identically.
    """
    u = spec.u_vals[:, None]
    v = spec.v_vals[None, :]
    s = u - v / SQRT3
    t = -2.0 * v / SQRT3 + 0.0 * u
    return immersion_grid(spec.u0, spec.v0, spec.du, spec.dv, _circle(s), _circle(t))


def example2_grid(spec):
    """Round-sphere surface in conformal (Mercator) adapted coordinates.

    The underlying map sends a point x of the unit 2-sphere to the pair
    (c - s x, c + s x) with c = 1/2 and s = sqrt3/2 (real part c, imaginary
    part along x).  Spherical coordinates are conformally reparametrized in
    the polar angle so the grid is adapted; the window must keep the
    conformal factor above `POLE_MARGIN`.
    """
    a = spec.u_vals
    sin_u = 1.0 / np.cosh(a)
    if float(sin_u.min()) < POLE_MARGIN:
        raise ValueError(
            f"window reaches a conformal factor {sin_u.min():.3f}, below the "
            f"pole margin {POLE_MARGIN}"
        )
    cos_u = -np.tanh(a)
    v = spec.v_vals
    x = np.empty((spec.nu, spec.nv, 3))
    x[..., 0] = sin_u[:, None] * np.cos(v)[None, :]
    x[..., 1] = sin_u[:, None] * np.sin(v)[None, :]
    x[..., 2] = cos_u[:, None] + 0.0 * v[None, :]
    half = np.full(x.shape[:-1] + (1,), 0.5)
    p = np.concatenate([half, -(SQRT3 / 2.0) * x], axis=-1)
    q = np.concatenate([half, (SQRT3 / 2.0) * x], axis=-1)
    return immersion_grid(spec.u0, spec.v0, spec.du, spec.dv, p, q)


def cmc_sphere_epsilon(spec):
    """Round sphere of radius sqrt3/2 in conformal coordinates: u is the
    longitude, v the Mercator coordinate (the mirrored orientation does not
    solve the equation); the conformal factor must stay above `POLE_MARGIN`."""
    r = SPHERE_RADIUS
    lon = spec.u_vals[:, None]
    mer = spec.v_vals[None, :]
    sech = 1.0 / np.cosh(mer)
    if float(sech.min()) < POLE_MARGIN:
        raise ValueError(
            f"conformal factor {sech.min():.3f} below pole margin "
            f"{POLE_MARGIN}"
        )
    eps = np.stack(
        [
            r * sech * np.cos(lon) + 0.0 * (lon + mer),
            r * sech * np.sin(lon) + 0.0 * (lon + mer),
            r * np.tanh(mer) + 0.0 * (lon + mer),
        ],
        axis=-1,
    )
    return h_surface_grid(spec.u0, spec.v0, spec.du, spec.dv, eps)


def cmc_cylinder_epsilon(spec):
    """Circular cylinder of radius sqrt3/4 in arclength coordinates: u wraps
    around the axis and v runs along it (the mirrored orientation does not
    solve the equation)."""
    r = CYLINDER_RADIUS
    wrap = spec.u_vals[:, None]
    axis = spec.v_vals[None, :]
    eps = np.stack(
        [
            r * np.cos(wrap / r) + 0.0 * axis,
            r * np.sin(wrap / r) + 0.0 * axis,
            axis + 0.0 * wrap,
        ],
        axis=-1,
    )
    return h_surface_grid(spec.u0, spec.v0, spec.du, spec.dv, eps)


def non_adapted_grid(spec):
    """Negative control: a smooth immersion whose tangent planes are not
    J-invariant (independent circle factors along different axes)."""
    u = spec.u_vals[:, None]
    v = spec.v_vals[None, :]
    p = _circle(u + 0.0 * v)
    zero = np.zeros((spec.nu, spec.nv))
    q = np.stack([np.cos(v) + 0.0 * u, zero, np.sin(v) + 0.0 * u, zero], axis=-1)
    return immersion_grid(spec.u0, spec.v0, spec.du, spec.dv, p, q)


# name -> (builder, default step, default point count, centred axis); the
# centred axis keeps a conformal coordinate symmetric about its equator
_FIXTURES = {
    "example1": (example1_grid, 1e-2, 101, None),
    "example2": (example2_grid, 5e-3, 201, 0),
    "cmc_sphere": (cmc_sphere_epsilon, 6e-3, 201, 1),
    "cmc_cylinder": (cmc_cylinder_epsilon, 6e-3, 201, 1),
}
FIXTURE_NAMES = tuple(_FIXTURES)


def make_fixture(spec):
    """Dispatch a FixtureSpec to its generator; immersion grids and solution
    surfaces are distinguished by the fixture name."""
    if spec.name not in _FIXTURES:
        raise ValueError(f"unknown fixture {spec.name!r}")
    return _FIXTURES[spec.name][0](spec)
