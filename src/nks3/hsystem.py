"""The correspondence between almost complex surfaces and flat-space
constant-mean-curvature data.

An adapted surface grid yields a closed coefficient one-form whose potential
is a map into R^3 satisfying the quadratic second-order equation

    eps_uu + eps_vv = -(4 / sqrt3) eps_u x eps_v,

and conversely a solution grid of that equation integrates back to an
adapted surface.  The potential's gradient is the first factor's
coefficient pair turned by `surface.TO_POTENTIAL`; the way back turns the
gradient by `FROM_POTENTIAL` and forms the second factor's pair from the
result with `SECOND_FACTOR`, all through `surface.rotate_pair`.  Both
directions are discretized here; each emits a certificate
(path-independence or cross-ordering compatibility residual) that callers
must treat as the correctness signal, because sampled inputs only satisfy
the compatibility conditions to discretization error.

Potential grids (`HSurfaceGrid`) and surface grids extend one window type,
`surface.Lattice`, are built over one (`h_surface_grid(lat, eps)`), and
are read over the same `surface.halo_slabs`.  Each holds its read-only
values, no derivative, and one summary pass, run on first read, that
derives its gated defects and refuses a grid whose derivatives vanish:
here `HSurfaceGrid.summary` (a `PotentialSummary`: the conformality
deviation `mean_curvature` gates, the equation residual `_require_solution`
reports and, over the speed, gates, the largest speed, and the speed field
`metric_factor_check` reads), whose slabs form the partials and Laplacian
once each; a surface grid's `surface.ImmersionGrid.summary`.  Every
certificate reads `frame.tolerance` at its grid's largest speed.  Each
integrator's output covers its input window inset by one cell, and only
its output is ever whole.

`epsilon_from_surface` reads the surface grid over its
`surface.halo_slabs`, and integrates spine-then-lines: each slab's rows of
the u-first potential are final once the u-spine reaches them, and the
v-first ordering it is compared against is formed slab by slab and dropped.
The running integrals along u carry across slabs as the first element of
each slab's sum, so `np.cumsum` adds in the order of a whole-axis sum.  The
quaternion integrator takes the ordered products of unit step factors by a
blocked scan (sequential inside fixed-size blocks) and never renormalizes;
`drift_max` reports its roundoff off the unit sphere.  Each of its spines
and field chains forms its coefficient pairs from a block of the potential
with a one-cell halo (`HSurfaceGrid.pairs`), and the field chains run over
the `surface.Lattice.slabs` of one axis; the v-first ordering is compared
with the u-first one slab by slab.  Each scan runs over a whole line, so
its blocked association, and with it every certificate value, is the
whole grid's.  Slabs hold at least `surface._POINTS` grid points: a fixed
constant, not a setting, that changes no bit of any result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import quat
from .frame import SQRT3, TOL_CAP, at_least, gate, roundoff, tolerance, validate_tol_scale
from .surface import (
    FROM_POTENTIAL, SECOND_FACTOR, Lattice, extract_coefficients, factor_partials,
    halo_slabs, immersion_grid, interior, require_adapted, require_imaginary,
    rotate_pair,
)

__all__ = [
    "CertificateError",
    "PotentialSummary",
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


@dataclass(frozen=True)
class PotentialSummary:
    """What the summary pass of a potential grid keeps once every slab's
    speed e + g has passed its floor: the largest interior relative
    conformality deviation max(|e - g|, |f|) / max(e, g), where (e, f, g) =
    (|eps_u|^2, eps_u . eps_v, |eps_v|^2), the largest interior
    `h_equation_residual`, alone and over the speed e + g at its point,
    the largest interior speed, and the read-only (nu, nv) speed field.  A
    NaN anywhere in a field reaches its maximum."""

    conformal_max: float
    h_equation_max: float
    h_equation_rel_max: float
    speed_max: float
    speed: np.ndarray


@dataclass(frozen=True)
class HSurfaceGrid(Lattice):
    """Values of a map eps: R^2 -> R^3 over a `Lattice`: `eps` is a
    read-only array of shape (nu, nv, 3).  Its derivatives are formed on
    each call, and the commands form them only on the sub-grids of
    `surface.halo_slabs`."""

    eps: np.ndarray

    def partials(self):
        """(eps_u, eps_v)."""
        return self.diff(self.eps, 0), self.diff(self.eps, 1)

    def laplacian(self):
        """eps_uu + eps_vv."""
        lap = self.diff2(self.eps, 0)
        lap += self.diff2(self.eps, 1)
        return lap

    @cached_property
    def summary(self):
        """The grid's one `PotentialSummary`, from one pass over its
        `surface.halo_slabs`, computed on first use; raises ValueError in
        the first slab whose speed is below its floor (`_summary_slab`)."""
        speed = np.empty((self.nu, self.nv))
        highs = [_summary_slab(*slab, speed) for slab in halo_slabs(self)]
        speed.flags.writeable = False
        return PotentialSummary(*map(float, np.max(highs, axis=0)), speed)

    def pairs(self, rows, cols, axis):
        """The coefficients along `axis` of both quaternion factors on the
        block (rows, cols) of the inset window `self.inset(1)`, stacked to
        (..., 2, 3): the first factor's, from the gradient turned by
        `FROM_POTENTIAL`, then the second factor's, that pair turned on by
        `SECOND_FACTOR`.  The partials come from the block widened by one
        cell, where every kept value is a central difference: the bits of
        the whole grid's."""
        block = self.eps[rows.start : rows.stop + 2, cols.start : cols.stop + 2]
        first = rotate_pair(self.diff(block[:, 1:-1], 0)[1:-1],
                            self.diff(block[1:-1], 1)[:, 1:-1], FROM_POTENTIAL)
        out = np.empty(first[0].shape[:-1] + (2, 3))
        out[..., 0, :] = first[axis]
        out[..., 1, :] = rotate_pair(*first, SECOND_FACTOR)[axis]
        return out


def _summary_slab(sub, keep, rows, speed):
    """One halo slab's share of `HSurfaceGrid.summary`, once its interior
    speed e + g over its largest meets the floor 1e-10 (0 when all vanish,
    so no division meets a zero): writes its kept rows of the speed field,
    returns its interior maxima of the conformality deviation, the equation
    residual, that residual over the speed and the speed."""
    eu, ev = sub.partials()
    e, g = np.sum(eu * eu, axis=-1), np.sum(ev * ev, axis=-1)
    full = e + g
    high = interior(full).max()
    at_least(interior(full).min() / high if high != 0.0 else 0.0, 1e-10,
             "derivatives vanish on the interior: relative speed",
             "; not a solution surface")
    speed[rows] = full[keep]
    # interior(full) without holding full: the sub-grid's interior rows are
    # rows it keeps, just written to the speed field
    first = rows.start - keep.start
    inner = interior(speed[first:first + sub.nu])
    e, g = interior(e), interior(g)
    f = np.sum(interior(eu) * interior(ev), axis=-1)
    conformal = (np.maximum(np.abs(e - g), np.abs(f)) / np.maximum(e, g)).max()
    del e, f, g, full  # none is alive beside the residual's temporaries
    res = interior(h_equation_residual(eu, ev, sub.laplacian()))
    equation = res.max()
    res /= inner
    return conformal, equation, res.max(), high


def h_surface_grid(lat, eps):
    """Validated potential grid over the `Lattice` `lat`, which takes over
    a float64 `eps` (copies any other) and marks it read-only: checks that
    it has shape (lat.nu, lat.nv, 3) and that every value is finite.  It
    forms no derivative: `HSurfaceGrid.summary` checks, on first read, that
    the first derivatives do not vanish on the interior."""
    eps = np.asarray(eps, dtype=float)
    shape = (lat.nu, lat.nv, 3)
    if eps.shape != shape:
        raise ValueError(f"expected an {shape} array, got {eps.shape}")
    if not np.isfinite(eps).all():
        raise ValueError("potential grid has non-finite values")
    eps.flags.writeable = False
    return HSurfaceGrid(**lat.window(), eps=eps)


def h_equation_residual(eu, ev, lap):
    """Pointwise norm of the defect of the quadratic second-order equation,
    from a potential's `HSurfaceGrid.partials` and `.laplacian`."""
    defect = quat.cross(eu, ev)
    defect *= 4.0 / SQRT3
    defect += lap
    return np.linalg.norm(defect, axis=-1)


def _require_resolved(hs):
    """The grid's `frame.roundoff` at its largest speed; raises
    CertificateError above `frame.TOL_CAP`, where second differences are
    rounding noise, so no residual certifies the grid."""
    return gate(roundoff(hs, hs.summary.speed_max), TOL_CAP,
                "grid is too fine to certify: second-difference roundoff",
                CertificateError)


def _require_solution(hs, tol_scale, why):
    """`hs.summary.h_equation_max`; raises CertificateError when the grid is
    too fine (`_require_resolved`) or its `h_equation_rel_max` exceeds
    `frame.tolerance` at its largest speed and `tol_scale`."""
    summary = hs.summary
    _require_resolved(hs)
    gate(summary.h_equation_rel_max, tolerance(hs, summary.speed_max, tol_scale),
         "second-order equation residual over the speed", CertificateError, why)
    return summary.h_equation_max


def epsilon_from_surface(grid, tol_scale=1.0):
    """Integrate the grid's rotated coefficient pair (`extract_coefficients`)
    to the potential map.

    Returns (HSurfaceGrid, certificate dict).  The output grid covers the
    input window shrunk by one cell on each side, so only centrally
    stenciled coefficient samples enter the integrals (one-sided edge
    stencils have a different error constant; integrating across that kink
    would leave a value jump at the first output row that later double
    differentiation amplifies by the inverse squared step).

    The primary integration runs u-first then v; the certificate compares
    against the v-first path (a closedness check), evaluates the
    second-order equation on the result and records the input's adaptedness
    defect.  Both paths are integrated in one pass over the grid's
    `surface.halo_slabs`, so only the potential is ever whole, and the
    function drops the grid after that pass: `to-h` hands it over and keeps
    only its `surface.GridSummary`, the one gated here.  Raises ValueError
    for a bad `tol_scale`, a grid that is not an immersion (its summary) or
    not adapted (`surface.require_adapted`, `surface.require_imaginary`),
    CertificateError when the paths disagree or the potential misses the
    equation beyond discretization order.
    """
    ac_max = require_adapted(grid.summary, tol_scale)
    out = grid.inset(1)
    require_imaginary(grid.summary)
    tol = tolerance(grid.summary, grid.summary.E_max, tol_scale)
    eps = np.empty((out.nu, out.nv, 3))
    gaps = []
    for sub, keep, rows in halo_slabs(grid):
        # the pair needs only p's partials: q's, E, F, G and the real parts
        # are the summary pass's
        cu, cv = np.empty(sub.p.shape[:-1] + (3,)), np.empty(sub.p.shape[:-1] + (3,))
        factor_partials(sub, sub.p, cu, cv)
        a, b = extract_coefficients(cu, cv)
        del cu, cv
        # grid rows [lo, hi) are the slab's rows of the output window, which
        # starts at grid row 1; sub row 0 is grid row `top`
        lo, hi = max(rows.start, 1), min(rows.stop, grid.nu - 1)
        top = rows.start - keep.start
        b = b[lo - top : hi - top, 1:-1]
        # the u-integrals of every output column, the first one the u-spine:
        # zero on the output's first row, and on later slabs continued from
        # the last row of the slab before, one grid row back
        if lo == 1:
            u_int = grid.cumtrapz(a[lo - top : hi - top, 1:-1], 0)
            v_spine = grid.cumtrapz(b[:1], 1)
        else:
            u_int = grid.cumtrapz(a[lo - 1 - top : hi - top, 1:-1], 0, carry)[1:]
        carry = u_int[-1].copy()  # u_int is overwritten below
        eps[lo - 1 : hi - 1] = u_int[:, :1] + grid.cumtrapz(b, 1)
        gap = np.add(v_spine, u_int, out=u_int)
        np.subtract(eps[lo - 1 : hi - 1], gap, out=gap)
        gaps.append(np.linalg.norm(gap, axis=-1).max())
    del grid, sub  # a caller that passed its only reference frees p and q here
    loop = gate(np.max(gaps), tol, "path-ordering residual", CertificateError,
                "; the coefficient one-form is not closed to discretization order")
    hs = h_surface_grid(out, eps)
    eq_res = _require_solution(
        hs, tol_scale, "; the integrated potential is not a solution surface")
    return hs, {"almost_complex_max": ac_max, "loop_max": loop,
                "h_equation_max": eq_res}


_BLOCK = 8


def _prefix_products(x):
    """In place along axis 0, x[k] <- x[0] x[1] ... x[k], by a blocked scan:
    sequential products inside blocks of `_BLOCK` entries, the block ends
    scanned the same way, then one carry multiply per block position."""
    for k in range(1, min(_BLOCK, len(x))):
        x[k::_BLOCK] = quat.qmul(x[k - 1 :: _BLOCK][: len(x[k::_BLOCK])], x[k::_BLOCK])
    if len(x) > _BLOCK:
        ends = x[_BLOCK - 1 :: _BLOCK]
        _prefix_products(ends)
        for k in range(_BLOCK - 1):
            rows = x[_BLOCK + k :: _BLOCK]
            rows[...] = quat.qmul(ends[: len(rows)], rows)


def _integrate_chain(start, coeff, lat, axis):
    """Integrate p' = p * coeff along `axis` of `lat`, starting from the slice
    value `start` at index 0 of that axis; `start` carries the remaining axes,
    trailing ones included (the two factors integrate side by side).

    Each segment multiplies by the exponential of the two-term Magnus
    expansion for a coefficient interpolated linearly across the segment,
    h (c0 + c1) / 2 + (h^2 / 12) [c0, c1], where [c0, c1] = 2 c0 x c1 for
    imaginary quaternions.  The blocked scan `_prefix_products` multiplies the
    unit steps in order; their products stay on the unit sphere up to roundoff,
    so nothing renormalizes (`surface_from_epsilon` reports the drift).
    """
    h = (lat.du, lat.dv)[axis]
    coeff = np.moveaxis(coeff, axis, 0)
    c0, c1 = coeff[:-1], coeff[1:]
    arg = np.empty(coeff.shape)
    arg[0] = 0.0
    step = np.add(c0, c1, out=arg[1:])
    step *= 0.5 * h
    step += quat.cross(c0, c1) * (h * h / 6.0)
    out = quat.qexp(arg)  # exp(0) = 1 at index 0, replaced by `start`
    out[0] = start
    _prefix_products(out)
    return np.moveaxis(out, 0, axis)


def _integrate_pair(pairs, lat, start):
    """Integrate quaternion grids over `lat` with both coordinate derivatives
    given, along the two path orderings (u-spine then v, v-spine then u).

    `pairs(rows, cols, axis)` returns the block of the derivative along
    `axis` on those index slices of `lat`, (rows, cols, k, 3), and `start`
    is (k, 4): all k grids share each chain's scan passes.  Each spine asks
    for its one line, the u-first lines for the blocks of the
    `Lattice.slabs(0)` and the v-first chains for those of the
    `Lattice.slabs(1)`.  Returns the u-first grid, (nu, nv, k, 4) as a view
    of a factor-major buffer, so each grid [..., i, :] is one C-contiguous
    block, and an iterator over (slice, v-first values) for the slabs of
    v-columns, so a caller can compare the orderings one slab at a time and
    never hold the whole v-first grid."""
    rows, cols = slice(0, lat.nu), slice(0, lat.nv)
    u_spine = _integrate_chain(start, pairs(rows, slice(0, 1), 0), lat, 0)[:, 0]
    v_spine = _integrate_chain(start, pairs(slice(0, 1), cols, 1), lat, 1)[0]
    ufirst = np.moveaxis(np.empty((len(start), lat.nu, lat.nv, 4)), 0, 2)
    for s in lat.slabs(0):
        ufirst[s] = _integrate_chain(u_spine[s], pairs(s, cols, 1), lat, 1)
    vfirst = ((s, _integrate_chain(v_spine[s], pairs(rows, s, 0), lat, 0))
              for s in lat.slabs(1))
    return ufirst, vfirst


def surface_from_epsilon(hs, tol_scale=1.0):
    """Integrate a solution grid of the quadratic equation back to an
    adapted immersion that starts at (1, 1) at the output grid's origin.

    Returns (ImmersionGrid, certificate dict).  The output grid covers the
    input window shrunk by one cell on each side: the derivative stencils
    feeding the integrator are uniformly central there, so the output stays
    smooth through its own edges (one-sided stencils at the input edges have
    a different error constant, and the double differentiation done by later
    analysis would amplify that kink by the inverse squared step).

    The certificate carries the second-order equation residual of the input,
    the largest disagreement between the two path orderings of the
    quaternion integration and `drift_max` (the largest deviation of a
    quaternion norm from 1 over both orderings of both factors; it only
    reports); no pass reads the output grid here, so its immersion check
    and adaptedness defect come from its first reader (`analyze` in
    `from-h`).  The coefficient pairs are formed block by block from the
    potential (`HSurfaceGrid.pairs`), which is dropped before the output
    grid takes over the u-first values.  Raises ValueError for a bad
    `tol_scale` or a potential whose derivatives vanish (its summary),
    CertificateError when the input is too fine to certify, fails the
    equation residual gate or the orderings disagree beyond tolerance.
    """
    tol_scale = validate_tol_scale(tol_scale)
    # the summary refuses vanishing derivatives before the window is inset
    tol = tolerance(hs, hs.summary.speed_max, tol_scale)
    out = hs.inset(1)
    eq_res = _require_solution(hs, tol_scale, "; input is not a solution surface")
    ufirst, vfirst = _integrate_pair(hs.pairs, out, np.stack([quat.ONE, quat.ONE]))
    drifts = [np.abs(quat.norm(ufirst[s]) - 1.0).max() for s in out.slabs(0)]
    gaps = []
    for s, v in vfirst:
        gaps.append(np.abs(ufirst[:, s] - v).max())
        drifts.append(np.abs(quat.norm(v) - 1.0).max())
    # a caller that passed its only reference frees the potential here
    del hs, vfirst, v
    compat = gate(np.max(gaps), tol, "path-ordering disagreement", CertificateError)
    drift = float(np.max(drifts))
    # each factor is a contiguous block, which the grid normalizes in place
    grid = immersion_grid(out, ufirst[..., 0, :], ufirst[..., 1, :])
    return grid, {"h_equation_max": eq_res, "compat_max": compat, "drift_max": drift}


def mean_curvature(hs):
    """Mean curvature field of a solution grid in conformal coordinates.

    Requires the parametrization to be conformal (equal-speed orthogonal
    derivatives) to a relative deviation on the interior within
    `frame.tolerance` at the grid's largest speed; raises ValueError otherwise,
    since the formula divides by the common speed.  The deviation is the
    grid's `PotentialSummary.conformal_max`, gated before any H is formed;
    H is then taken over `surface.halo_slabs` into one (nu, nv) field.
    """
    gate(hs.summary.conformal_max, tolerance(hs, hs.summary.speed_max, 1.0),
         "coordinates are not conformal: relative deviation")
    H = np.empty((hs.nu, hs.nv))
    for sub, keep, rows in halo_slabs(hs):
        eu, ev = sub.partials()
        n = quat.cross(eu, ev)
        n /= np.linalg.norm(n, axis=-1, keepdims=True)
        n *= sub.laplacian()
        H[rows] = (np.sum(n, axis=-1) / (2.0 * np.sum(eu * eu, axis=-1)))[keep]
    return H


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


def metric_factor_check(summary, hs):
    """Pointwise ratio 2E / (|eps_u|^2 + |eps_v|^2) of the surface metric
    to the flat-potential metric, from a surface grid's
    `surface.GridSummary` (its window and E) and a potential grid.

    The correspondence makes E = G = |eps_u|^2 + |eps_v|^2 for every
    potential, so the ratio field must be the constant 2 whatever the
    holomorphic quadratic coefficient.  The two grids may cover offset
    windows of the same lattice; the ratio is taken on the overlap
    (`Lattice.overlap`, which raises ValueError when the steps differ).
    """
    g_slice, h_slice = summary.overlap(hs)
    ratio = 2.0 * summary.E[g_slice]  # one field, turned in place to |ratio - 2|
    ratio /= hs.summary.speed[h_slice]
    ratio = interior(ratio)
    mean = float(ratio.mean())
    ratio -= 2.0
    np.abs(ratio, out=ratio)
    return {"ratio_mean": mean, "ratio_max_dev": float(ratio.max())}
