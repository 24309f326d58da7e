"""Analysis of sampled almost complex surfaces in the product of two 3-spheres.

An immersed surface patch arrives as a regular parameter grid of points
(p(u,v), q(u,v)).  In adapted coordinates the second coordinate derivative
is J applied to the first; all machinery here assumes (and measures) that
property rather than trusting it.  The pipeline is

    grid -> finite-difference partials -> logarithmic-derivative coefficient
    fields -> residuals, holomorphic quadratic coefficient, induced metric,
    Gaussian curvature, second fundamental form, alignment classification.

Tangent vectors are (..., 6) coefficient arrays in the global frame of
`nkspace`, where g(a, b) is `gram_product(a, b)`, J a is `a @ J_MAT.T` and
P a is `a @ P_MAT.T`, and no grid builds an ambient `Point`.  Each analysed
quantity has one path: `second_fundamental_form(grid, k)` forms h_uu, h_uv
or h_vv, which `analyze` reduces one at a time, and the unrotated
coefficient pair is read in place from the cached partials, of which
`extract_coefficients` returns only the rotated pair.  Both grid types
derive their fields and their gated defect once and cache them: a surface
grid the partials' coefficients and the first fundamental form
(`ImmersionGrid.partials`) and its largest almost-complex defect
(`.almost_complex_max`), a potential grid its partials, Laplacian and
largest equation residual (`hsystem.HSurfaceGrid`).

The correspondence with flat potentials is two fixed rotations of the
first factor's coefficient pair, each one `rotate_pair(a, b, rotation)`:
`TO_POTENTIAL` (by 2 pi / 3) turns it into the potential's gradient and
`FROM_POTENTIAL` turns that back, and `SECOND_FACTOR` (by pi / 3) gives
the second factor's pair that adapted coordinates force.

Every grid window, here and in `hsystem` and `fixtures`, is one `Lattice`,
validated once by `lattice`; grids are built over it.  It also owns the
stencil and the trapezoid rule: `Lattice.diff`, `.diff2` and `.cumtrapz`
read the step of the axis they act along, so no caller passes a step.

Kernels that would build several throwaway full-grid temporaries at once
(`partials` here, the quaternion integrator in `hsystem`) run over the
slabs of `Lattice.slabs`: blocks of whole grid lines of at least `_POINTS`
points, so each temporary stays one slab wide.  `_POINTS` is a fixed
module constant, not a setting: every result is the same bits for any slab
size, and no flag, parameter or environment variable reaches it.

Derivatives are second-order finite differences throughout; every residual
statistic is taken on the grid interior (two-cell margin) because one-sided
edge stencils degrade the order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import quat
from .nkspace import (
    FLIP, J_MAT, P_MAT, SQRT3, connection_term, gate, gram_product,
    validate_tol_scale,
)

__all__ = [
    "ADAPTED_GATE",
    "STEP_RTOL",
    "Lattice",
    "lattice",
    "ImmersionGrid",
    "immersion_grid",
    "GridPartials",
    "interior",
    "partials",
    "almost_complex_residual",
    "require_adapted",
    "TO_POTENTIAL",
    "FROM_POTENTIAL",
    "SECOND_FACTOR",
    "rotate_pair",
    "extract_coefficients",
    "integrability_residuals",
    "lambda_field",
    "cr_residuals",
    "induced_metric",
    "brioschi_curvature",
    "gaussian_curvature",
    "second_fundamental_form",
    "classify_P_alignment",
    "analyze",
]

# the (cos, sin) rotations of `rotate_pair`; SECOND_FACTOR keeps the exact
# 0.5, where np.cos(np.pi / 3) is 0.5000000000000001
TO_POTENTIAL = (float(np.cos(2.0 * np.pi / 3.0)), float(np.sin(2.0 * np.pi / 3.0)))
FROM_POTENTIAL = (TO_POTENTIAL[0], -TO_POTENTIAL[1])
SECOND_FACTOR = (0.5, SQRT3 / 2.0)

# an adapted grid keeps its relative almost-complex defect below this,
# times the caller's tol_scale
ADAPTED_GATE = 0.05

# two steps of one lattice agree to this fraction of the step: a CSV axis
# written far from the origin jitters by the spacing of doubles there
STEP_RTOL = 1e-6


# residual statistics skip this many cells at each grid edge
_MARGIN = 2

# the least number of grid points in one slab of `Lattice.slabs`; a slab of
# a few rows of a long strip would run the kernels per row, far slower
_POINTS = 8192


@dataclass(frozen=True)
class Lattice:
    """Regular (u, v) window: origin, steps and point counts.

    Axis 0 of every grid array walks u, axis 1 walks v.  Build it with
    `lattice`, which validates it; grids extend it with their arrays
    (`immersion_grid(lat, p, q)`, `hsystem.h_surface_grid(lat, eps)`).
    """

    u0: float
    v0: float
    du: float
    dv: float
    nu: int
    nv: int

    @property
    def u_vals(self):
        return self.u0 + self.du * np.arange(self.nu)

    @property
    def v_vals(self):
        return self.v0 + self.dv * np.arange(self.nv)

    def window(self):
        """The six lattice fields as a dict, without a grid's arrays."""
        return {f.name: getattr(self, f.name) for f in fields(Lattice)}

    def inset(self, k):
        """The window shrunk by `k` cells on each side; at least 5x5 must
        remain."""
        n = 2 * k + 5
        if self.nu < n or self.nv < n:
            raise ValueError(f"need at least a {n}x{n} grid, got {self.nu}x{self.nv}")
        return lattice(
            self.u0 + k * self.du, self.v0 + k * self.dv, self.du, self.dv,
            self.nu - 2 * k, self.nv - 2 * k,
        )

    def overlap(self, other):
        """Index slices (into self, into other) of the common window.

        Raises ValueError unless both lattices have equal steps (to `STEP_RTOL`),
        their points align, and they share at least 5x5 points.
        """
        h = np.array([self.du, self.dv])
        if (np.abs(h - [other.du, other.dv]) > STEP_RTOL * h).any():
            raise ValueError("grid steps differ between the two lattices")
        k = np.array([other.u0 - self.u0, other.v0 - self.v0]) / h
        off = np.rint(k).astype(int)
        if np.abs(k - off).max() > 1e-6:
            raise ValueError("grids are not aligned to a common lattice")
        lo = np.maximum(off, 0)
        hi = np.minimum([self.nu, self.nv], off + [other.nu, other.nv])
        if (hi - lo).min() < 5:
            raise ValueError("grids overlap on fewer than 5x5 cells")
        return tuple(map(slice, lo, hi)), tuple(map(slice, lo - off, hi - off))

    def fd_floor(self):
        """Finite-difference error floor max(1e-8, 100 h^2), h the larger step."""
        return max(1e-8, 100.0 * max(self.du, self.dv) ** 2)

    def diff(self, f, axis):
        """Central difference along `axis`, second-order one-sided at the edges."""
        return np.gradient(f, (self.du, self.dv)[axis], axis=axis, edge_order=2)

    def diff2(self, f, axis):
        """Three-point second derivative along `axis`, one-sided at the edges."""
        h = (self.du, self.dv)[axis]
        f = np.moveaxis(f, axis, 0)
        if f.shape[0] < 4:
            raise ValueError("need at least 4 samples for a second derivative")
        out = np.empty_like(f)
        mid = np.multiply(f[1:-1], 2.0, out=out[1:-1])
        np.subtract(f[2:], mid, out=mid)
        mid += f[:-2]
        mid /= h * h
        out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / (h * h)
        out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / (h * h)
        return np.moveaxis(out, 0, axis)

    def cumtrapz(self, f, axis):
        """Cumulative trapezoid integral along `axis`, starting at zero."""
        h = (self.du, self.dv)[axis]
        f = np.moveaxis(f, axis, 0)
        out = np.empty_like(f)
        out[0] = 0.0
        steps = np.add(f[1:], f[:-1], out=out[1:])
        steps *= 0.5 * h
        np.cumsum(steps, axis=0, out=steps)
        return np.moveaxis(out, 0, axis)

    def slabs(self, axis):
        """Index slices along `axis` that cut the grid into slabs of whole
        lines across the other axis, each of at least `_POINTS` points
        (the last may hold fewer), in order."""
        n, line = (self.nu, self.nv)[axis], (self.nv, self.nu)[axis]
        rows = -(-_POINTS // line)
        return [slice(i, min(i + rows, n)) for i in range(0, n, rows)]


def lattice(u0, v0, du, dv, nu, nv):
    """Validated `Lattice`: a finite origin, finite steps > 0 and at least
    5x5 points; raises ValueError otherwise."""
    u0, v0, du, dv = float(u0), float(v0), float(du), float(dv)
    if not (0.0 < du < np.inf and 0.0 < dv < np.inf):
        raise ValueError(
            f"grid steps must be finite and positive, got du={du}, dv={dv}"
        )
    if not (np.isfinite(u0) and np.isfinite(v0)):
        raise ValueError(f"grid origin must be finite, got u0={u0}, v0={v0}")
    if nu < 5 or nv < 5:
        raise ValueError(f"grid must be at least 5x5, got {(nu, nv)}")
    return Lattice(u0, v0, du, dv, int(nu), int(nv))


@dataclass(frozen=True)
class ImmersionGrid(Lattice):
    """Points on the product manifold over a `Lattice`: `p` and `q` have
    shape (nu, nv, 4)."""

    p: np.ndarray
    q: np.ndarray

    @cached_property
    def partials(self):
        """The grid's one read-only `GridPartials`, computed on first use."""
        return partials(self)

    @cached_property
    def almost_complex_max(self):
        """Largest interior `almost_complex_residual`, computed on first use."""
        return float(interior(almost_complex_residual(self.partials)).max())


def immersion_grid(lat, p, q):
    """Validated grid over the `Lattice` `lat` (a grid is one too).

    Checks that `p` and `q` have shape (lat.nu, lat.nv, 4), unit norms
    (renormalizing within `quat.unit`'s tolerance), and that the
    finite-difference derivatives are nonzero in the metric (immersion check).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    shape = (lat.nu, lat.nv, 4)
    if p.shape != shape or q.shape != shape:
        raise ValueError(f"expected two {shape} arrays, got {p.shape} and {q.shape}")
    grid = ImmersionGrid(**lat.window(), p=quat.unit(p), q=quat.unit(q))
    E, _, G = grid.partials.first_form
    slow = np.sqrt(max(min(interior(E).min(), interior(G).min()), 0.0))
    if not slow >= 1e-8:
        raise ValueError(f"grid is not an immersion (derivative norm {slow:.3e})")
    return grid


def interior(field):
    """Trim the edge margin from the leading two axes."""
    return field[_MARGIN:-_MARGIN, _MARGIN:-_MARGIN]


@dataclass(frozen=True)
class GridPartials:
    """Finite-difference coordinate derivatives of an immersion grid.

    `cu` and `cv` (shape (nu, nv, 6)) are the frame coefficients of phi_u
    and phi_v: the imaginary parts of p^-1 dp and q^-1 dq, sign-flipped as
    in `nkspace.frame_coords`.  Dropping the real parts projects the raw
    derivatives to exact tangency; `projection_max` records the largest
    dropped real part over the grid interior.  `first_form` is the
    read-only (E, F, G) computed from them.
    """

    cu: np.ndarray
    cv: np.ndarray
    projection_max: float
    first_form: tuple


def partials(grid):
    """Central-difference partial derivatives, one-sided at the edges, as
    frame coefficients.  A NaN on the interior makes `projection_max` NaN.

    Each derivative is taken over the whole grid, one at a time; the
    logarithmic derivatives built from it run over `Lattice.slabs` of
    u-rows, and each slab folds its |real part| into one running-maximum
    field (`np.maximum` keeps a NaN), reduced once on the `interior`."""
    real = np.zeros(grid.p.shape[:-1])
    cu = np.empty(grid.p.shape[:-1] + (6,))
    cv = np.empty_like(cu)
    for half, arr in ((slice(0, 3), grid.p), (slice(3, 6), grid.q)):
        for c, axis in ((cu, 0), (cv, 1)):
            d = grid.diff(arr, axis)
            for s in grid.slabs(0):
                log = quat.qmul(quat.qconj(arr[s]), d[s])
                np.maximum(real[s], np.abs(log[..., 0]), out=real[s])
                np.multiply(quat.imag(log), FLIP, out=c[s, :, half])
            del d  # one derivative alive at a time
    cu.flags.writeable = cv.flags.writeable = False
    return GridPartials(cu, cv, float(interior(real).max()), induced_metric(cu, cv))


def _norm(c):
    """Metric norm of frame coefficients."""
    return np.sqrt(np.maximum(gram_product(c, c), 0.0))


def _normal_part(gp, w, a, b):
    """Normal component of `w`, written over it, from a = g(w, phi_u) and
    b = g(w, phi_v): the 2x2 normal equations solved on the stored (E, F, G)."""
    E, F, G = gp.first_form
    det = E * G - F * F
    lam = (G * a - F * b) / det
    mu = (E * b - F * a) / det
    w -= lam[..., None] * gp.cu
    w -= mu[..., None] * gp.cv
    return w


def almost_complex_residual(gp):
    """Pointwise metric norm of phi_v minus J phi_u, relative to |phi_u|."""
    return _norm(gp.cv - gp.cu @ J_MAT.T) / np.sqrt(gp.first_form[0])


def require_adapted(grid, tol_scale):
    """The grid's `ImmersionGrid.almost_complex_max`, gated.

    Raises ValueError when `tol_scale` is not finite and positive, and
    unless the defect stays below `ADAPTED_GATE * tol_scale`; a NaN defect
    fails the gate.
    """
    limit = ADAPTED_GATE * validate_tol_scale(tol_scale)
    return gate(
        grid.almost_complex_max, limit,
        "grid is not adapted: relative almost-complex defect",
        why=f" (real-part residual {grid.partials.projection_max:.3e})",
    )


def rotate_pair(a, b, rotation):
    """The pair (a, b) turned by `rotation` = (cos, sin): (c a + s b, -s a + c b)."""
    c, s = rotation
    return c * a + s * b, -s * a + c * b


def extract_coefficients(grid):
    """The rotated coefficient pair (alpha, beta) of an adapted grid: the
    imaginary parts of p^-1 p_u, p^-1 p_v (the first-factor halves of
    `GridPartials.cu` and `.cv`, sign flip undone) turned by `TO_POTENTIAL`.

    Raises ValueError unless the real-part defect of the logarithmic
    derivatives stays within the grid's `Lattice.fd_floor` (a NaN defect
    fails): on a smooth unit-quaternion immersion it is O(h^2), so a larger
    one signals a grid that is not one, or is not sampled finely enough.
    """
    gp = grid.partials
    gate(gp.projection_max, grid.fd_floor(),
         "logarithmic derivatives are far from imaginary: real-part residual")
    return rotate_pair(gp.cu[..., :3] * FLIP, gp.cv[..., :3] * FLIP, TO_POTENTIAL)


def integrability_residuals(grid, alpha, beta):
    """Max-norm residuals of the three first-order compatibility equations.

    Returns (tilde_curl, closure, divergence): the cross-product curl
    equation on the unrotated pair, and the closure and divergence equations
    on the rotated pair (alpha, beta) of `extract_coefficients`.  All are
    second-order small on a genuine almost complex surface; each residual is
    built in place and reduced in turn.  The unrotated pair is read in place
    as the first-factor halves of the grid's partials, whose sign flip of the
    third component negates a cross product's first two components and keeps
    the third: there the curl equation carries +2 cu x cv, and the norm of
    its residual is bit-identical.
    """
    gp = grid.partials
    cu, cv = gp.cu[..., :3], gp.cv[..., :3]

    def stat(r):
        return float(interior(np.linalg.norm(r, axis=-1)).max())

    r = grid.diff(cu, 1)
    r -= grid.diff(cv, 0)
    r += 2.0 * quat.cross(cu, cv)
    tilde_curl = stat(r)
    r = grid.diff(alpha, 1)
    r -= grid.diff(beta, 0)
    closure = stat(r)
    r = grid.diff(alpha, 0)
    r += grid.diff(beta, 1)
    r += (4.0 / SQRT3) * quat.cross(alpha, beta)
    return tilde_curl, closure, stat(r)


def lambda_field(gp):
    """Holomorphic quadratic coefficient from the metric-level definition:
    twice its value is g(P phi_u, phi_u) - i g(P phi_u, J phi_u)."""
    pu = gp.cu @ P_MAT.T
    re = gram_product(pu, gp.cu)
    im = -gram_product(pu, gp.cu @ J_MAT.T)
    return 0.5 * (re + 1j * im)


def cr_residuals(lat, alpha, beta):
    """Max residual of the two Cauchy-Riemann equations coupling the dot
    products of the rotated pair; second-order small on genuine surfaces."""
    dot_ab = np.sum(alpha * beta, axis=-1)
    gap = np.sum(alpha * alpha, axis=-1) - np.sum(beta * beta, axis=-1)
    r1 = lat.diff(dot_ab, 0) - 0.5 * lat.diff(gap, 1)
    r2 = lat.diff(dot_ab, 1) + 0.5 * lat.diff(gap, 0)
    stack = np.maximum(np.abs(r1), np.abs(r2))
    return float(interior(stack).max())


def induced_metric(cu, cv):
    """First fundamental form fields (E, F, G) of the coefficient fields
    `cu`, `cv`, read-only; analysis code reads the copy stored as
    `GridPartials.first_form`."""
    efg = gram_product(cu, cu), gram_product(cu, cv), gram_product(cv, cv)
    for a in efg:
        a.flags.writeable = False
    return efg


def brioschi_curvature(lat, E, F, G):
    """Gaussian curvature of a metric given by coefficient fields over `lat`.

    Classical Brioschi determinant formula evaluated with second-order
    finite differences; intrinsic, so it needs only (E, F, G).
    """
    det = E * G - F * F
    if not float(np.min(det)) >= 1e-10:
        raise ValueError(f"metric is degenerate (min EG - F^2 = {np.min(det):.3e})")
    Eu, Ev = lat.diff(E, 0), lat.diff(E, 1)
    Gu, Gv = lat.diff(G, 0), lat.diff(G, 1)
    Fu, Fv = lat.diff(F, 0), lat.diff(F, 1)
    Evv, Guu, Fuv = lat.diff2(E, 1), lat.diff2(G, 0), lat.diff(Fu, 1)

    def det3(a, b, c, d, e, f, g, h, i):
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    m1 = det3(-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev,
              Fv - 0.5 * Gu, E, F,
              0.5 * Gv, F, G)
    m2 = det3(0.0, 0.5 * Ev, 0.5 * Gu,
              0.5 * Ev, E, F,
              0.5 * Gu, F, G)
    return (m1 - m2) / (det * det)


def gaussian_curvature(grid):
    """Gaussian curvature field of the grid's induced metric."""
    return brioschi_curvature(grid, *grid.partials.first_form)


def _grid_covariant(lat, x_coeff, field_coeff, axis):
    """Frame coefficients of the ambient covariant derivative of a grid
    tangent field along the coordinate direction `axis` of `lat`.

    `x_coeff` is the direction's own coefficient field (the flow of the
    coordinate line), `field_coeff` the differentiated field's coefficients;
    the coordinate derivative is a grid stencil and the frame correction is
    the constant connection table.
    """
    dc = lat.diff(field_coeff, axis)
    dc += connection_term(x_coeff, field_coeff)
    return dc


def second_fundamental_form(grid, k):
    """h_uu, h_uv or h_vv for k = 0, 1, 2: the frame coefficients (shape
    (nu, nv, 6)) of the normal part of the ambient covariant derivative of
    phi_u, phi_v, phi_v along u, u, v."""
    gp = grid.partials
    x, f, axis = ((gp.cu, gp.cu, 0), (gp.cu, gp.cv, 0), (gp.cv, gp.cv, 1))[k]
    w = _grid_covariant(grid, x, f, axis)
    return _normal_part(gp, w, gram_product(w, gp.cu), gram_product(w, gp.cv))


def _unit_norm(grid):
    """Pointwise largest metric norm of h_uu, h_uv, h_vv with both slots
    normalized to unit vectors; each part is reduced to its norm before the
    next is formed."""
    E, _, G = grid.partials.first_form
    unit = None
    for k, scale in enumerate((E, np.sqrt(E * G), G)):
        n = _norm(second_fundamental_form(grid, k)) / scale
        unit = n if unit is None else np.maximum(unit, n, out=unit)
    return unit


def classify_P_alignment(grid):
    """Alignment of the almost product structure with the tangent plane.

    Returns "normal" when P maps the tangent plane into the normal space
    everywhere, "tangent" when P preserves the tangent plane everywhere,
    "mixed" otherwise.  The tolerance scales with the squared grid step,
    matching the finite-difference error floor.
    """
    gp = grid.partials
    tol = grid.fd_floor()
    pu = gp.cu @ P_MAT.T
    a, b, pu_norm = gram_product(pu, gp.cu), gram_product(pu, gp.cv), _norm(pu)
    scale = pu_norm * np.sqrt(gp.first_form[0])
    normal_dev = float(interior(np.maximum(np.abs(a), np.abs(b)) / scale).max())
    tangent_dev = float(interior(_norm(_normal_part(gp, pu, a, b)) / pu_norm).max())
    if normal_dev < tol:
        return "normal"
    if tangent_dev < tol:
        return "tangent"
    return "mixed"


def analyze(grid, tol_scale=1.0):
    """Full summary report of an adapted immersion grid.

    The report dict uses a fixed key schema (see the CLI docs).  Raises
    ValueError when `tol_scale` is not finite and positive, and when the
    grid is not adapted (`require_adapted`).
    """
    ac_max = require_adapted(grid, tol_scale)
    alpha, beta = extract_coefficients(grid)
    r21, r22, r23 = integrability_residuals(grid, alpha, beta)
    cr = cr_residuals(grid, alpha, beta)
    del alpha, beta  # each stage keeps only its report values, so none holds a field
    lam_max = float(interior(np.abs(lambda_field(grid.partials))).max())
    K = interior(gaussian_curvature(grid))
    K_mean, K_max_dev = float(K.mean()), float(np.abs(K - K.mean()).max())
    del K
    h_max = float(interior(_unit_norm(grid)).max())
    return {
        "almost_complex_max": ac_max,
        "integrability_21_max": r21,
        "integrability_22_max": r22,
        "integrability_23_max": r23,
        "cr_max": cr,
        "lambda_max_abs": lam_max,
        "K_mean": K_mean,
        "K_max_dev": K_max_dev,
        "h_norm_max": h_max,
        "classification": classify_P_alignment(grid),
        "grid": grid.window(),
    }
