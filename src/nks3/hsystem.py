"""The correspondence between almost complex surfaces and flat-space
constant-mean-curvature data.

An adapted surface grid yields a closed coefficient one-form whose potential
is a map into R^3 satisfying the quadratic second-order equation

    eps_uu + eps_vv = -(4 / sqrt3) eps_u x eps_v,

and conversely a solution grid of that equation integrates back to an
adapted surface through the rotated coefficient pair.  Both directions are
discretized here; each emits a certificate (path-independence or
cross-ordering compatibility residual) that callers must treat as the
correctness signal, because sampled inputs only satisfy the compatibility
conditions to discretization error.

Potential grids (`HSurfaceGrid`) and surface grids extend one window type,
`surface.Lattice`; each integrator's output covers its input window inset
by one cell.  The quaternion integrator multiplies unit step factors and
never renormalizes; `drift_max` reports its roundoff off the unit sphere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quat
from .nkspace import SQRT3, validate_tol_scale
from .surface import (
    Lattice,
    adapted_second_pair,
    almost_complex_residual,
    extract_coefficients,
    immersion_grid,
    interior,
    lambda_field,
    lattice,
    require_adapted,
    rotate_pair_back,
    second_derivative,
)

__all__ = [
    "CertificateError",
    "HSurfaceGrid",
    "h_surface_grid",
    "h_equation_residual",
    "epsilon_from_surface",
    "surface_from_epsilon",
    "mean_curvature",
    "metric_factor_check",
    "sphere_fit",
]


class CertificateError(RuntimeError):
    """An integration self-check failed: the input does not satisfy the
    compatibility conditions to the expected discretization order."""


# the metric factor check applies where |lambda| stays below this
_LAMBDA_TOL = 1e-4


@dataclass(frozen=True)
class HSurfaceGrid(Lattice):
    """Values of a map eps: R^2 -> R^3 over a `Lattice` (shape (nu, nv, 3))."""

    eps: np.ndarray


def h_surface_grid(u0, v0, du, dv, eps):
    """Validated constructor: checks shape, the window (`lattice`), that
    every value is finite, and that the first derivatives do not vanish on
    the interior."""
    eps = np.asarray(eps, dtype=float)
    if eps.ndim != 3 or eps.shape[-1] != 3:
        raise ValueError(f"expected an (nu, nv, 3) array, got {eps.shape}")
    window = lattice(u0, v0, du, dv, *eps.shape[:2]).window()
    if not np.isfinite(eps).all():
        raise ValueError("potential grid has non-finite values")
    hs = HSurfaceGrid(**window, eps=eps)
    eu, ev = _eps_partials(hs)
    speed = np.sum(eu * eu, axis=-1) + np.sum(ev * ev, axis=-1)
    if not float(interior(speed).min()) >= 1e-10:
        raise ValueError("derivatives vanish on the interior; not a solution surface")
    return hs


def _eps_partials(hs):
    eu = np.gradient(hs.eps, hs.du, axis=0, edge_order=2)
    ev = np.gradient(hs.eps, hs.dv, axis=1, edge_order=2)
    return eu, ev


def _laplacian(hs):
    return second_derivative(hs.eps, hs.du, axis=0) + second_derivative(
        hs.eps, hs.dv, axis=1
    )


def h_equation_residual(hs):
    """Pointwise norm of the defect of the quadratic second-order equation."""
    eu, ev = _eps_partials(hs)
    defect = _laplacian(hs) + (4.0 / SQRT3) * np.cross(eu, ev)
    return np.linalg.norm(defect, axis=-1)


def _cumtrapz(f, h, axis):
    """Cumulative trapezoid integral along one axis, starting at zero."""
    f = np.moveaxis(f, axis, 0)
    steps = 0.5 * h * (f[1:] + f[:-1])
    out = np.concatenate([np.zeros_like(f[:1]), np.cumsum(steps, axis=0)], axis=0)
    return np.moveaxis(out, 0, axis)


def _default_cert_tol(du, dv, tol_scale):
    return tol_scale * 200.0 * max(du, dv) ** 2


def epsilon_from_surface(grid, cf=None, tol_scale=1.0):
    """Integrate the rotated coefficient pair to the potential map.

    Returns (HSurfaceGrid, certificate dict).  The output grid covers the
    input window shrunk by one cell on each side, so only centrally
    stenciled coefficient samples enter the integrals (one-sided edge
    stencils have a different error constant; integrating across that kink
    would leave a value jump at the first output row that later double
    differentiation amplifies by the inverse squared step).

    The primary integration runs u-first then v; the certificate compares
    against the v-first path (a closedness check), evaluates the
    second-order equation on the result and records the input's adaptedness
    defect.  Raises ValueError for a bad `tol_scale` or a grid that is not
    adapted (`surface.require_adapted`), CertificateError when the paths
    disagree beyond the discretization-order tolerance.
    """
    tol_scale = validate_tol_scale(tol_scale)
    out = grid.inset(1)
    ac_max = require_adapted(grid, tol_scale)
    if cf is None:
        cf = extract_coefficients(grid)
    a, b = cf.alpha[1:-1, 1:-1], cf.beta[1:-1, 1:-1]
    eps_uv = _cumtrapz(a[:, :1], grid.du, axis=0) + _cumtrapz(b, grid.dv, axis=1)
    eps_vu = _cumtrapz(b[:1, :], grid.dv, axis=1) + _cumtrapz(a, grid.du, axis=0)
    loop = float(np.linalg.norm(eps_uv - eps_vu, axis=-1).max())
    hs = HSurfaceGrid(**out.window(), eps=eps_uv)
    cert = {
        "almost_complex_max": ac_max,
        "loop_max": loop,
        "h_equation_max": float(interior(h_equation_residual(hs)).max()),
    }
    tol = _default_cert_tol(grid.du, grid.dv, tol_scale)
    if not loop <= tol:
        raise CertificateError(
            f"path-ordering residual {loop:.3e} exceeds {tol:.1e}; "
            "the coefficient one-form is not closed to discretization order"
        )
    return hs, cert


def _integrate_chain(start, coeff, h, axis):
    """Integrate p' = p * coeff along `axis`, starting from the slice value
    `start` at index 0 of that axis; `start` carries the remaining axes.

    Each segment multiplies by the exponential of the two-term Magnus
    expansion for a coefficient interpolated linearly across the segment,
    h (c0 + c1) / 2 + (h^2 / 12) [c0, c1], where [c0, c1] = 2 c0 x c1 for
    imaginary quaternions.  A product of unit quaternions stays on the unit
    sphere up to roundoff, so nothing renormalizes (`surface_from_epsilon`
    reports the remaining drift).  Returns the grid.
    """
    coeff = np.moveaxis(coeff, axis, 0)
    c0, c1 = coeff[:-1], coeff[1:]
    steps = quat.qexp(0.5 * h * (c0 + c1) + (h * h / 6.0) * np.cross(c0, c1))
    out = np.empty(coeff.shape[:-1] + (4,))
    out[0] = start
    for k in range(len(steps)):
        out[k + 1] = quat.qmul(out[k], steps[k])
    return np.moveaxis(out, 0, axis)


def _integrate_pair(c_u, c_v, du, dv, start):
    """Integrate a quaternion grid with both coordinate derivatives given,
    along the two path orderings (u-spine then v, v-spine then u)."""
    ufirst = _integrate_chain(_integrate_chain(start, c_u[:, 0], du, 0), c_v, dv, 1)
    vfirst = _integrate_chain(_integrate_chain(start, c_v[0], dv, 0), c_u, du, 0)
    return ufirst, vfirst


def surface_from_epsilon(hs, p0=None, q0=None, tol_scale=1.0):
    """Integrate a solution grid of the quadratic equation back to an
    adapted immersion with initial point (p0, q0) at the grid origin.

    Returns (ImmersionGrid, certificate dict).  The output grid covers the
    input window shrunk by one cell on each side: the derivative stencils
    feeding the integrator are uniformly central there, so the output stays
    smooth through its own edges (one-sided stencils at the input edges have
    a different error constant, and the double differentiation done by later
    analysis would amplify that kink by the inverse squared step).

    The certificate carries the second-order equation residual of the input,
    the largest disagreement between the two path orderings of the
    quaternion integration, `drift_max` (the largest deviation of a
    quaternion norm from 1 over both orderings of both factors; it only
    reports) and the adaptedness defect of the output.  Raises ValueError
    for a bad `tol_scale`, CertificateError when the input fails the
    equation residual gate or the orderings disagree beyond tolerance.
    """
    tol_scale = validate_tol_scale(tol_scale)
    out = hs.inset(1)
    p0 = quat.ONE if p0 is None else quat.unit(p0)
    q0 = quat.ONE if q0 is None else quat.unit(q0)
    tol = _default_cert_tol(hs.du, hs.dv, tol_scale)
    eq_res = float(interior(h_equation_residual(hs)).max())
    if not eq_res <= tol:
        raise CertificateError(
            f"second-order equation residual {eq_res:.3e} exceeds {tol:.1e}; "
            "input is not a solution surface"
        )
    eu, ev = _eps_partials(hs)
    at, bt = rotate_pair_back(eu[1:-1, 1:-1], ev[1:-1, 1:-1])
    gt, dt = adapted_second_pair(at, bt)

    p_u, p_v = _integrate_pair(at, bt, hs.du, hs.dv, p0)
    q_u, q_v = _integrate_pair(gt, dt, hs.du, hs.dv, q0)
    compat = max(float(np.abs(p_u - p_v).max()), float(np.abs(q_u - q_v).max()))
    if not compat <= tol:
        raise CertificateError(
            f"path-ordering disagreement {compat:.3e} exceeds {tol:.1e}"
        )
    drift = max(float(np.abs(quat.norm(x) - 1.0).max()) for x in (p_u, p_v, q_u, q_v))
    grid = immersion_grid(out.u0, out.v0, out.du, out.dv, p_u, q_u)
    cert = {
        "h_equation_max": eq_res,
        "compat_max": compat,
        "drift_max": drift,
        "almost_complex_max": float(
            interior(almost_complex_residual(grid.partials)).max()
        ),
    }
    return grid, cert


def mean_curvature(hs):
    """Mean curvature field of a solution grid in conformal coordinates.

    Requires the parametrization to be conformal (equal-speed orthogonal
    derivatives) to a relative deviation on the interior that scales with
    the squared grid step; raises ValueError otherwise, since the formula
    divides by the common speed.
    """
    iso_tol = max(1e-8, 100.0 * max(hs.du, hs.dv) ** 2)
    eu, ev = _eps_partials(hs)
    e2 = np.sum(eu * eu, axis=-1)
    g2 = np.sum(ev * ev, axis=-1)
    f = np.sum(eu * ev, axis=-1)
    dev = np.maximum(np.abs(e2 - g2), np.abs(f)) / np.maximum(e2, g2)
    worst = float(interior(dev).max())
    if not worst <= iso_tol:
        raise ValueError(
            f"coordinates are not conformal (relative deviation {worst:.3e})"
        )
    n = np.cross(eu, ev)
    n = n / np.linalg.norm(n, axis=-1, keepdims=True)
    return np.sum(_laplacian(hs) * n, axis=-1) / (2.0 * e2)


def sphere_fit(points):
    """Algebraic least-squares sphere through a point cloud (..., 3).

    Linearizes |x - c|^2 = r^2 to 2 c . x + (r^2 - |c|^2) = |x|^2 and solves
    the normal equations.  Returns (center, radius, max_dev) where max_dev
    is the largest deviation of a point's distance-to-center from the fitted
    radius.
    """
    x = np.asarray(points, dtype=float).reshape(-1, 3)
    A = np.concatenate([2.0 * x, np.ones((x.shape[0], 1))], axis=1)
    rhs = np.sum(x * x, axis=-1)
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    center = sol[:3]
    radius = float(np.sqrt(sol[3] + center @ center))
    dist = np.linalg.norm(x - center, axis=-1)
    return center, radius, float(np.abs(dist - radius).max())


def metric_factor_check(grid, hs):
    """Pointwise ratio of the surface metric to the flat-potential metric.

    Only meaningful when the holomorphic quadratic coefficient vanishes;
    returns a dict with status "not_applicable" otherwise.  On applicable
    pairs the ratio field must be the constant 2.  The two grids may cover
    offset windows of the same lattice; the ratio is taken on the overlap
    (`Lattice.overlap`, which raises ValueError when the steps differ).
    """
    g_slice, h_slice = grid.overlap(hs)
    gp = grid.partials
    lam_max = float(interior(np.abs(lambda_field(gp))).max())
    if lam_max > _LAMBDA_TOL:
        return {"status": "not_applicable", "lambda_max_abs": lam_max}
    eu, _ = _eps_partials(hs)
    E, _, _ = gp.first_form
    ratio = E[g_slice] / np.sum(eu * eu, axis=-1)[h_slice]
    ratio_int = interior(ratio)
    return {
        "status": "ok",
        "lambda_max_abs": lam_max,
        "ratio_mean": float(ratio_int.mean()),
        "ratio_max_dev": float(np.abs(ratio_int - 2.0).max()),
    }
