"""Analysis of sampled almost complex surfaces in the product of two 3-spheres.

An immersed surface patch arrives as a regular parameter grid of points
(p(u,v), q(u,v)).  In adapted coordinates the second coordinate derivative
is J applied to the first; all machinery here assumes (and measures) that
property rather than trusting it.  The pipeline is

    grid -> finite-difference partials -> logarithmic-derivative coefficient
    fields -> residuals, holomorphic quadratic coefficient, induced metric,
    Gaussian curvature, second fundamental form, alignment classification.

Tangent vectors are (..., 6) coefficient arrays: the imaginary parts of
p^-1 dp and q^-1 dq as computed, which are the coefficients in the global
frame of `frame` with each factor's third component negated (its third
field is the translate of -k).  g(a, b) is `gram_product(a, b)`, J a is
`a @ J_MAT.T` and P a is `a @ P_MAT.T` on them as on frame coefficients,
since each matrix commutes with that sign flip; only the connection, odd
under it, changes sign.  No grid builds an ambient `Point`.  The stage
functions act on one `GridPartials`, the partials of a grid over its
window: each analysed quantity has one path, `second_fundamental_form(gp,
k)` forms h_uu, h_uv or h_vv, which `analyze` reduces one at a time, and
the unrotated coefficient pair is read in place from the partials, of which
`extract_coefficients` returns only the rotated pair.

Every analysed quantity is a local stencil, so no whole-grid partials are
formed: a grid is read over its `halo_slabs`, blocks of whole u-rows
widened by `_MARGIN` rows on each side into sub-grids over views of its
arrays (p and q, or a potential's eps in `hsystem`).  A kept row needs
values two rows away (one for the partials, one for the derivatives of
fields built from them), so a sub-grid's `interior` is exactly its share
of the grid's: the stage functions run on each sub-grid as they are, and
their maxima merge by `np.max` to the same bits.  Building a grid forms
no derivative; the first pass that reads it refuses, in its first slab
below the immersion floor, a grid that is not an immersion, and merges
the slab shares into a `GridSummary`: `ImmersionGrid.summary` caches
that pass, and `analyze` takes it once, with its stages on the same partials.

The correspondence with flat potentials is two fixed rotations of the
first factor's coefficient pair, each one `rotate_pair(a, b, rotation)`:
`TO_POTENTIAL` (by 2 pi / 3) turns it into the potential's gradient and
`FROM_POTENTIAL` turns that back, and `SECOND_FACTOR` (by pi / 3) gives
the second factor's pair that adapted coordinates force.

Every grid window, here and in `hsystem` and `fixtures`, is one `Lattice`,
validated once by `lattice`; grids are built over it.  It also owns the
stencil and the trapezoid rule: `Lattice.diff`, `.diff2` and `.cumtrapz`
read the step of the axis they act along, so no caller passes a step.

`Lattice.slabs` cuts a grid into blocks of whole grid lines of at least
`_POINTS` points; the halo slabs and the quaternion integrator in `hsystem`
run over them, so each temporary stays one slab wide.  `_POINTS` is a fixed
module constant, not a setting: every result is the same bits for any slab
size, and no flag, parameter or environment variable reaches it.

Derivatives are second-order finite differences throughout; every residual
statistic is taken on the grid interior (two-cell margin) because one-sided
edge stencils degrade the order.  Every gate and the classification read
`frame.tolerance` at the grid's largest interior E.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import quat
from .frame import (
    J_MAT, P_MAT, SQRT3, at_least, connection_term, gate, gram_product, tolerance,
    validate_tol_scale,
)

__all__ = [
    "STEP_RTOL",
    "Lattice",
    "lattice",
    "ImmersionGrid",
    "GridSummary",
    "immersion_grid",
    "halo_slabs",
    "GridPartials",
    "interior",
    "interior_spread",
    "partials",
    "factor_partials",
    "almost_complex_residual",
    "require_adapted",
    "require_imaginary",
    "TO_POTENTIAL",
    "FROM_POTENTIAL",
    "SECOND_FACTOR",
    "rotate_pair",
    "extract_coefficients",
    "integrability_residuals",
    "lambda_field",
    "cr_residuals",
    "induced_metric",
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

# two steps of one lattice agree to this fraction of the step: a CSV axis
# written far from the origin jitters by the spacing of doubles there
STEP_RTOL = 1e-6


# residual statistics skip this many cells at each grid edge, and a halo
# slab reads this many rows beyond the rows it keeps
_MARGIN = 2

# the smallest grid step whose square (`Lattice.diff2`'s divisor) is normal
_STEP_MIN = float(np.sqrt(np.finfo(float).tiny))

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

    def cumtrapz(self, f, axis, start=None):
        """Cumulative trapezoid integral along `axis`: zero at f[0], or
        `start` there, the last line of the integral over the lines before
        f[0], which it continues as one integral over both would sum."""
        h = (self.du, self.dv)[axis]
        f = np.moveaxis(f, axis, 0)
        out = np.empty_like(f)
        # -0.0 adds nothing, the sign of a zero included: the sum starts at f[1]
        out[0] = -0.0 if start is None else start
        steps = np.add(f[1:], f[:-1], out=out[1:])
        steps *= 0.5 * h
        np.cumsum(out, axis=0, out=out)
        if start is None:
            out[0] = 0.0
        return np.moveaxis(out, 0, axis)

    def slabs(self, axis):
        """Index slices along `axis` that cut the grid into slabs of whole
        lines across the other axis, each of at least `_POINTS` points
        (the last may hold fewer), in order."""
        n, line = (self.nu, self.nv)[axis], (self.nv, self.nu)[axis]
        rows = -(-_POINTS // line)
        return [slice(i, min(i + rows, n)) for i in range(0, n, rows)]


def lattice(u0, v0, du, dv, nu, nv):
    """Validated `Lattice`: a finite origin, finite steps of at least
    `_STEP_MIN` and at least 5x5 points; raises ValueError otherwise."""
    u0, v0, du, dv = float(u0), float(v0), float(du), float(dv)
    if not (0.0 < du < np.inf and 0.0 < dv < np.inf):
        raise ValueError(f"grid steps must be finite and positive, got du={du}, dv={dv}")
    if min(du, dv) < _STEP_MIN:
        raise ValueError(f"grid steps below {_STEP_MIN:.3e} have subnormal squares, "
                         f"got du={du}, dv={dv}")
    if not (np.isfinite(u0) and np.isfinite(v0)):
        raise ValueError(f"grid origin must be finite, got u0={u0}, v0={v0}")
    if nu < 5 or nv < 5:
        raise ValueError(f"grid must be at least 5x5, got {(nu, nv)}")
    return Lattice(u0, v0, du, dv, int(nu), int(nv))


@dataclass(frozen=True)
class GridSummary(Lattice):
    """What one pass over an immersion grid's halo slabs, each past its
    immersion floor, keeps over the grid's window: its largest interior
    almost-complex defect and real-part residual (the largest dropped real
    part of a logarithmic derivative), the smallest EG - F^2 over the whole
    grid, the largest interior E, and the read-only (nu, nv) field E (None
    from `analyze`'s pass, which reads no E).  A NaN in a field reaches its
    maximum or minimum.  It holds no reference to p and q, so a command can
    keep it past the grid."""

    almost_complex_max: float
    projection_max: float
    det_min: float
    E_max: float
    E: np.ndarray | None


@dataclass(frozen=True)
class ImmersionGrid(Lattice):
    """Points on the product manifold over a `Lattice`: `p` and `q` are
    read-only unit quaternion arrays of shape (nu, nv, 4)."""

    p: np.ndarray
    q: np.ndarray

    @cached_property
    def summary(self):
        """The grid's one `GridSummary` with its E field, from one pass over
        its `halo_slabs`, computed on first use.  Raises ValueError in the
        first slab that is not an immersion (`_summary_slab`)."""
        E = np.empty((self.nu, self.nv))
        shares = [_summary_slab(partials(sub), keep, rows, E)
                  for sub, keep, rows in halo_slabs(self)]
        E.flags.writeable = False
        return _grid_summary(self, shares, E)


def _summary_slab(gp, keep, rows, E=None):
    """One halo slab's share of a `GridSummary` from its partials `gp`:
    refuses the slab unless its interior derivative norms sqrt(E), sqrt(G)
    over their largest meet the immersion floor 1e-8 (0 when all vanish),
    then writes its kept rows of E into a given buffer and returns
    (smallest EG - F^2 on the kept rows, (almost-complex defect, real-part
    residual, largest interior E))."""
    e, f, g = gp.first_form
    e_max = interior(e).max()
    high = np.maximum(e_max, interior(g).max())
    low = np.maximum(np.minimum(interior(e).min(), interior(g).min()), 0.0)
    at_least(np.sqrt(low / high) if high != 0.0 else 0.0, 1e-8,
             "grid is not an immersion: relative derivative norm")
    if E is not None:
        E[rows] = e[keep]
    e, f, g = e[keep], f[keep], g[keep]
    ac = float(almost_complex_residual(gp).max())
    return np.min(e * g - f * f), (ac, gp.projection_max, e_max)


def _grid_summary(lat, shares, E=None):
    """The `GridSummary` over `lat` from the `_summary_slab` shares of all
    its halo slabs, each past its immersion floor: it only merges."""
    dets, highs = zip(*shares)
    ac, real, e_max = np.max(highs, axis=0)
    return GridSummary(**lat.window(), almost_complex_max=float(ac),
                       projection_max=float(real), det_min=np.min(dets),
                       E_max=float(e_max), E=E)


def immersion_grid(lat, p, q):
    """Validated grid over the `Lattice` `lat` (a grid is one too), which
    takes over `p` and `q`.

    Checks that both have shape (lat.nu, lat.nv, 4) and pass `quat.unit`'s
    checks before either changes, then divides each by its norms to
    `quat.unit`'s bits: in place for a writeable, C-contiguous float64
    array, into a copy for any other input or a q overlapping p.  The grid's
    p and q are read-only.  It forms no derivative: the immersion floor is
    checked where the grid is first read, slab by slab in the pass that
    builds its `GridSummary` (`ImmersionGrid.summary`, or `analyze`'s own).
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    shape = (lat.nu, lat.nv, 4)
    if p.shape != shape or q.shape != shape:
        raise ValueError(f"expected two {shape} arrays, got {p.shape} and {q.shape}")
    norms = quat.unit_norm(p)[..., None], quat.unit_norm(q)[..., None]
    if np.may_share_memory(p, q):
        q = q.copy()
    p, q = (np.divide(a, n, out=a if a.flags.writeable and a.flags.c_contiguous else None)
            for a, n in zip((p, q), norms))
    p.flags.writeable = q.flags.writeable = False
    return ImmersionGrid(**lat.window(), p=p, q=q)


def halo_slabs(grid):
    """The halo slabs of a grid, in order, as (sub, keep, rows).

    `rows` slices the u-rows of the grid the slab keeps: one slab of
    `Lattice.slabs(0)`, where a first or last slab of fewer than
    `_MARGIN + 1` rows merges into its neighbour.  `sub` is a grid of the
    same type (an `ImmersionGrid` or an `hsystem.HSurfaceGrid`) over views
    of its arrays on those rows widened by `_MARGIN` on each side, clipped
    at the grid's edges, and `keep` slices the kept rows out of it.  So
    each sub-grid has at least 5 rows and a nonempty `interior`, which is
    exactly its share of the grid's.
    """
    arrays = [f.name for f in fields(grid)[len(fields(Lattice)):]]
    cuts = [s.start for s in grid.slabs(0)
            if _MARGIN < s.start < grid.nu - _MARGIN]
    for lo, hi in zip([0, *cuts], [*cuts, grid.nu]):
        a, b = max(lo - _MARGIN, 0), min(hi + _MARGIN, grid.nu)
        sub = replace(grid, u0=grid.u0 + a * grid.du, nu=b - a,
                      **{name: getattr(grid, name)[a:b] for name in arrays})
        yield sub, slice(lo - a, hi - a), slice(lo, hi)


def interior(field):
    """Trim the edge margin from the leading two axes."""
    return field[_MARGIN:-_MARGIN, _MARGIN:-_MARGIN]


def interior_spread(field):
    """The `interior` mean of a scalar field and its largest deviation there."""
    field = interior(field)
    return float(field.mean()), float(np.abs(field - field.mean()).max())


@dataclass(frozen=True)
class GridPartials(Lattice):
    """Finite-difference coordinate derivatives of an immersion grid, over
    the grid's window.

    `cu` and `cv` (shape (nu, nv, 6)) are the coefficients of phi_u and
    phi_v: the imaginary parts of p^-1 dp and q^-1 dq as computed, with no
    sign flip.  Dropping the real parts projects the raw derivatives to
    exact tangency; `projection_max` records the largest dropped real part
    over the grid interior.  `first_form` is the read-only (E, F, G)
    computed from them.
    """

    cu: np.ndarray
    cv: np.ndarray
    projection_max: float
    first_form: tuple


def partials(grid):
    """Central-difference partial derivatives, one-sided at the edges, as
    coefficients, each derivative formed in turn (`factor_partials`);
    `projection_max` is the larger of the two factors' values, and a NaN
    in either reaches it (`np.maximum` keeps it).  The commands take them
    over halo slabs only (`halo_slabs`)."""
    cu = np.empty(grid.p.shape[:-1] + (6,))
    cv = np.empty_like(cu)
    real = np.maximum(factor_partials(grid, grid.p, cu[..., :3], cv[..., :3]),
                      factor_partials(grid, grid.q, cu[..., 3:], cv[..., 3:]))
    cu.flags.writeable = cv.flags.writeable = False
    return GridPartials(**grid.window(), cu=cu, cv=cv, projection_max=float(real),
                        first_form=induced_metric(cu, cv))


def factor_partials(grid, arr, cu, cv):
    """One factor's half of `partials`: writes the imaginary parts of its
    logarithmic derivatives along u and v into `cu` and `cv` (..., 3) as
    computed, and returns the largest interior |real part| of either (NaN
    when one is NaN).  `hsystem.epsilon_from_surface` takes p's alone."""
    real = 0.0
    for c, axis in ((cu, 0), (cv, 1)):
        d = grid.diff(arr, axis)
        log = quat.qmul(quat.qconj(arr), d)
        del d
        real = np.maximum(real, np.abs(interior(log[..., 0])).max())
        c[...] = quat.imag(log)
        del log  # one derivative alive at a time
    return real


def _norm(c):
    """Metric norm of coefficients."""
    return np.sqrt(np.maximum(gram_product(c, c), 0.0))


def _normal_part(gp, w, a, b):
    """Normal component of `w`, written over it, from a = g(w, phi_u) and
    b = g(w, phi_v): the 2x2 normal equations solved on the stored (E, F, G),
    each scalar field built in place, so at most four are alive at once."""
    E, F, G = gp.first_form
    det = E * G
    det -= F * F
    lam = G * a
    lam -= F * b
    lam /= det
    mu = E * b
    mu -= F * a
    mu /= det
    del det
    for coeff, c in ((lam, gp.cu), (mu, gp.cv)):
        for k in range(6):  # a component at a time: no (..., 6) temporary
            w[..., k] -= coeff * c[..., k]
    return w


def almost_complex_residual(gp):
    """Pointwise metric norm of phi_v minus J phi_u, relative to |phi_u|,
    on the `interior` only, so no edge row where phi_u vanishes divides."""
    return interior(_norm(gp.cv - gp.cu @ J_MAT.T)) / np.sqrt(interior(gp.first_form[0]))


def require_adapted(summary, tol_scale):
    """The `GridSummary.almost_complex_max` of `summary`, gated.

    Raises ValueError when `tol_scale` is not finite and positive, and
    unless the relative defect stays within `frame.tolerance` at the grid's
    `GridSummary.E_max` and `tol_scale`; a NaN defect fails the gate.
    """
    limit = tolerance(summary, summary.E_max, validate_tol_scale(tol_scale))
    return gate(
        summary.almost_complex_max, limit,
        "grid is not adapted: relative almost-complex defect",
        why=f" (real-part residual {summary.projection_max:.3e})",
    )


def require_imaginary(summary):
    """The `GridSummary.projection_max` of `summary`, gated.

    Raises ValueError unless the real-part defect of the logarithmic
    derivatives stays within `frame.tolerance` at `tol_scale` 1 times
    sqrt(E_max), its units (a NaN defect fails): on a smooth unit-quaternion
    immersion it is O(h^2) of that norm, so a larger one signals a grid
    that is not one, or is not sampled finely enough.
    """
    tol = tolerance(summary, summary.E_max, 1.0) * np.sqrt(summary.E_max)
    return gate(summary.projection_max, tol,
                "logarithmic derivatives are far from imaginary: real-part residual")


def rotate_pair(a, b, rotation):
    """The pair (a, b) turned by `rotation` = (cos, sin): (c a + s b, -s a + c b),
    each summed into its own output."""
    c, s = rotation
    x = c * a
    x += s * b
    y = -s * a
    y += c * b
    return x, y


def extract_coefficients(cu, cv):
    """The rotated coefficient pair (alpha, beta) of an adapted grid: the
    imaginary parts of p^-1 p_u, p^-1 p_v (the first-factor halves of `cu`
    and `cv`, read as views) turned by `TO_POTENTIAL`.  The commands read
    it only after `require_imaginary` has passed the grid."""
    return rotate_pair(cu[..., :3], cv[..., :3], TO_POTENTIAL)


def integrability_residuals(gp, alpha, beta):
    """Max-norm residuals of the three first-order compatibility equations.

    Returns (tilde_curl, closure, divergence): the cross-product curl
    equation on the unrotated pair, and the closure and divergence equations
    on the rotated pair (alpha, beta) of `extract_coefficients`.  All are
    second-order small on a genuine almost complex surface; each residual is
    built in place and reduced in turn.  The unrotated pair is read in place
    as the first-factor halves of the partials `gp`.
    """
    cu, cv = gp.cu[..., :3], gp.cv[..., :3]

    def stat(a, b, curl, cross):
        """Largest interior norm of a_v - b_u (curl) or a_u + b_v, plus
        cross times a x b, built a component at a time (the components of
        `quat.cross`) and squared and summed in the order of
        `np.linalg.norm`, so no 3-vector temporary is alive beside a and b."""
        square = None
        for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
            if curl:
                r = gp.diff(a[..., i], 1)
                r -= gp.diff(b[..., i], 0)
            else:
                r = gp.diff(a[..., i], 0)
                r += gp.diff(b[..., i], 1)
            if cross:
                r += cross * (a[..., j] * b[..., k] - a[..., k] * b[..., j])
            r *= r
            square = r if square is None else np.add(square, r, out=square)
        return float(interior(np.sqrt(square)).max())

    return (stat(cu, cv, True, -2.0), stat(alpha, beta, True, 0.0),
            stat(alpha, beta, False, 4.0 / SQRT3))


def lambda_field(gp, pu=None):
    """Holomorphic quadratic coefficient from the metric-level definition:
    twice its value is g(P phi_u, phi_u) - i g(P phi_u, J phi_u).  `pu`,
    P phi_u, is formed here unless the caller holds it already."""
    if pu is None:
        pu = gp.cu @ P_MAT.T
    im = -gram_product(pu, gp.cu @ J_MAT.T)
    re = gram_product(pu, gp.cu)
    del pu
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


def gaussian_curvature(lat, E, F, G):
    """Gaussian curvature of the metric (E, F, G) over `lat` by the
    Brioschi formula with second-order finite differences; intrinsic, so it
    needs only (E, F, G).  Unchecked: `analyze` reports no K of a grid
    whose `GridSummary.det_min` it refuses.  Each
    derivative is formed inside the entry that reads it, except the three
    that two entries read, so few are alive at once."""
    Fu, Ev, Gu = lat.diff(F, 0), lat.diff(E, 1), lat.diff(G, 0)

    def det3(a, b, c, d, e, f, g, h, i):
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    m1 = det3(-0.5 * lat.diff2(E, 1) + lat.diff(Fu, 1) - 0.5 * lat.diff2(G, 0),
              0.5 * lat.diff(E, 0), Fu - 0.5 * Ev,
              lat.diff(F, 1) - 0.5 * Gu, E, F,
              0.5 * lat.diff(G, 1), F, G)
    del Fu
    m1 -= det3(0.0, 0.5 * Ev, 0.5 * Gu,
               0.5 * Ev, E, F,
               0.5 * Gu, F, G)
    det = E * G - F * F
    m1 /= det * det
    return m1


def _grid_covariant(lat, x_coeff, field_coeff, axis):
    """Coefficients of the ambient covariant derivative of a grid
    tangent field along the coordinate direction `axis` of `lat`.

    `x_coeff` is the direction's own coefficient field (the flow of the
    coordinate line), `field_coeff` the differentiated field's coefficients;
    the coordinate derivative is a grid stencil and the frame correction is
    the constant connection table, negated.  The derivative is added into the
    correction a component at a time (a sum is the same either way round),
    so no whole derivative field is held beside it.
    """
    # each CONN entry is a block weight times one eps_ijk, so the table is
    # odd under negating both factors' third components: raw coefficients
    dc = connection_term(x_coeff, field_coeff)
    np.negative(dc, out=dc)
    for k in range(6):
        dc[..., k] += lat.diff(field_coeff[..., k], axis)
    return dc


def second_fundamental_form(gp, k):
    """h_uu, h_uv or h_vv for k = 0, 1, 2, from the partials `gp`: the
    coefficients (shape (nu, nv, 6)) of the normal part of the ambient
    covariant derivative of phi_u, phi_v, phi_v along u, u, v."""
    x, f, axis = ((gp.cu, gp.cu, 0), (gp.cu, gp.cv, 0), (gp.cv, gp.cv, 1))[k]
    w = _grid_covariant(gp, x, f, axis)
    return _normal_part(gp, w, gram_product(w, gp.cu), gram_product(w, gp.cv))


def _unit_norm(gp):
    """Pointwise largest metric norm of h_uu, h_uv, h_vv with both slots
    normalized to unit vectors; each part is reduced to its norm before the
    next is formed."""
    E, _, G = gp.first_form
    unit = _norm(second_fundamental_form(gp, 0)) / E
    for k in (1, 2):
        n = _norm(second_fundamental_form(gp, k))
        n /= np.sqrt(E * G) if k == 1 else G
        np.maximum(unit, n, out=unit)
        del n
    return unit


def _alignment_defects(gp, pu, a):
    """The largest interior deviations of P phi_u from the normal space and
    from the tangent plane, each relative to |P phi_u|, from pu = P phi_u
    (overwritten) and a = g(P phi_u, phi_u)."""
    b, pu_norm = gram_product(pu, gp.cv), _norm(pu)
    scale = pu_norm * np.sqrt(gp.first_form[0])
    normal_dev = float(interior(np.maximum(np.abs(a), np.abs(b)) / scale).max())
    del scale
    tangent_dev = float(interior(_norm(_normal_part(gp, pu, a, b)) / pu_norm).max())
    return normal_dev, tangent_dev


def classify_P_alignment(summary, normal_dev, tangent_dev):
    """Alignment of the almost product structure with the tangent plane,
    from the largest deviations of P phi_u from the normal space and from
    the tangent plane over the grid of the `GridSummary` `summary`.

    Returns "normal" when P maps the tangent plane into the normal space
    everywhere, "tangent" when P preserves the tangent plane everywhere,
    "mixed" otherwise.  The tolerance is `frame.tolerance` at its E_max and
    `tol_scale` 1; a NaN deviation matches neither.
    """
    tol = tolerance(summary, summary.E_max, 1.0)
    if normal_dev < tol:
        return "normal"
    if tangent_dev < tol:
        return "tangent"
    return "mixed"


def _analysis_slab(gp, keep, rows, K):
    """One halo slab's share of `analyze`, from the slab's partials `gp`:
    writes its kept rows of K and returns its interior maxima, in report
    order, then its two P-alignment deviations."""
    alpha, beta = extract_coefficients(gp.cu, gp.cv)
    r21, r22, r23 = integrability_residuals(gp, alpha, beta)
    cr = cr_residuals(gp, alpha, beta)
    del alpha, beta  # each stage keeps only its maxima, so none holds a field
    K[rows] = gaussian_curvature(gp, *gp.first_form)[keep]
    h = float(interior(_unit_norm(gp)).max())
    # P phi_u serves lambda and the alignment defects, and twice lambda's
    # real part is g(P phi_u, phi_u) bit for bit: halving and doubling are
    # exact above the subnormal range
    pu = gp.cu @ P_MAT.T
    lam = lambda_field(gp, pu)
    a = 2.0 * lam.real
    lam = float(interior(np.abs(lam)).max())
    return (r21, r22, r23, cr, lam, h, *_alignment_defects(gp, pu, a))


def analyze(grid, tol_scale=1.0):
    """Full summary report of an adapted immersion grid.

    The report dict uses a fixed key schema (see the CLI docs).  Raises
    ValueError when `tol_scale` is not finite and positive, in the first
    slab that is not an immersion (`_summary_slab`, before its stages), then
    when the grid is not adapted (`require_adapted`), has logarithmic
    derivatives far from imaginary (`require_imaginary`) or min EG - F^2
    below the metric floor 1e-10 E_max^2; only then does the first slab
    whose stages met a zero division, an overflow or an invalid value raise
    its FloatingPointError.  One pass over `halo_slabs` forms each slab's
    partials once, for its share of the `GridSummary`, gated after the pass,
    and for its stages, which keep only maxima and K: one (nu, nv) buffer,
    so `K_mean` sums its `interior` in the same order as a whole-grid field.
    """
    validate_tol_scale(tol_scale)
    K = np.empty((grid.nu, grid.nv))
    shares, highs, fault = [], [], None
    for sub, keep, rows in halo_slabs(grid):
        gp = partials(sub)
        shares.append(_summary_slab(gp, keep, rows))
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                highs.append(_analysis_slab(gp, keep, rows, K))
        except FloatingPointError as exc:
            fault = fault or exc
        del gp  # one slab's partials alive at a time
    summary = _grid_summary(grid, shares)
    ac_max = require_adapted(summary, tol_scale)
    require_imaginary(summary)
    at_least(summary.det_min / summary.E_max / summary.E_max, 1e-10,
             "metric is degenerate: min (EG - F^2) / E_max^2")
    if fault:
        raise fault
    r21, r22, r23, cr, lam_max, h_max, normal_dev, tangent_dev = (
        float(x) for x in np.max(highs, axis=0))
    K_mean, K_max_dev = interior_spread(K)
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
        "classification": classify_P_alignment(summary, normal_dev, tangent_dev),
        "grid": grid.window(),
    }
