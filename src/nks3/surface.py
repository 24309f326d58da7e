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
P a is `a @ P_MAT.T`.  The partials' coefficients and the first fundamental
form are computed once per grid (`ImmersionGrid.partials`).

Every grid window, here and in `hsystem` and `fixtures`, is one `Lattice`:
origin, steps and point counts, validated once by `lattice`.

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
    CONN, FLIP, J_MAT, P_MAT, SQRT3, Point, gram_product, validate_tol_scale,
)

__all__ = [
    "THETA",
    "ADAPTED_GATE",
    "Lattice",
    "lattice",
    "ImmersionGrid",
    "immersion_grid",
    "GridPartials",
    "CoefficientFields",
    "SecondFundamentalForm",
    "interior",
    "partials",
    "almost_complex_residual",
    "require_adapted",
    "span_defect",
    "extract_coefficients",
    "rotate_pair",
    "rotate_pair_back",
    "integrability_residuals",
    "lambda_field",
    "lambda_quadratic",
    "cr_residuals",
    "induced_metric",
    "second_derivative",
    "adapted_second_pair",
    "adapted_relation_residuals",
    "brioschi_curvature",
    "gaussian_curvature",
    "second_fundamental_form",
    "classify_P_alignment",
    "analyze",
]

# the coefficient pair used by the flat-potential construction is the
# logarithmic-derivative pair rotated by this fixed angle
THETA = 2.0 * np.pi / 3.0
_COS_T = float(np.cos(THETA))
_SIN_T = float(np.sin(THETA))

# an adapted grid keeps its relative almost-complex defect below this,
# times the caller's tol_scale
ADAPTED_GATE = 0.05


# residual statistics skip this many cells at each grid edge
_MARGIN = 2
# extract_coefficients accepts real parts of p^-1 dp, q^-1 dq up to this
_MAX_REAL_PART = 1e-4


@dataclass(frozen=True)
class Lattice:
    """Regular (u, v) window: origin, steps and point counts.

    Axis 0 of every grid array walks u, axis 1 walks v.  Build it with
    `lattice`, which validates it; grids extend it with their arrays.
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

        Raises ValueError unless both lattices have the same steps, their
        points align, and they share at least 5x5 points.
        """
        if abs(self.du - other.du) > 1e-12 or abs(self.dv - other.dv) > 1e-12:
            raise ValueError("grid steps differ between the two lattices")
        k = np.array([other.u0 - self.u0, other.v0 - self.v0]) / [self.du, self.dv]
        off = np.rint(k).astype(int)
        if np.abs(k - off).max() > 1e-6:
            raise ValueError("grids are not aligned to a common lattice")
        lo = np.maximum(off, 0)
        hi = np.minimum([self.nu, self.nv], off + [other.nu, other.nv])
        if (hi - lo).min() < 5:
            raise ValueError("grids overlap on fewer than 5x5 cells")
        return tuple(map(slice, lo, hi)), tuple(map(slice, lo - off, hi - off))


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

    @property
    def base(self):
        return Point(self.p, self.q)

    @cached_property
    def partials(self):
        """The grid's one read-only `GridPartials`, computed on first use."""
        return partials(self)


def immersion_grid(u0, v0, du, dv, p, q):
    """Validated grid constructor.

    Checks shapes, the window (`lattice`), unit norms (renormalizing within
    `quat.unit`'s tolerance), and that the finite-difference derivatives are
    nonzero in the metric (immersion check).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 3 or p.shape[-1] != 4:
        raise ValueError(f"expected matching (nu, nv, 4) arrays, got {p.shape} and {q.shape}")
    window = lattice(u0, v0, du, dv, *p.shape[:2]).window()
    grid = ImmersionGrid(**window, p=quat.unit(p), q=quat.unit(q))
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

    grid: ImmersionGrid
    cu: np.ndarray
    cv: np.ndarray
    projection_max: float
    first_form: tuple


def partials(grid):
    """Central-difference partial derivatives, one-sided at the edges, as
    frame coefficients."""
    worst = 0.0
    comps = []
    for arr in (grid.p, grid.q):
        conj = quat.qconj(arr)
        for axis, step in ((0, grid.du), (1, grid.dv)):
            log = quat.qmul(conj, np.gradient(arr, step, axis=axis, edge_order=2))
            worst = max(worst, float(interior(np.abs(log[..., 0])).max()))
            comps.append(quat.imag(log) * FLIP)
    pu, pv, qu, qv = comps
    cu = np.concatenate([pu, qu], axis=-1)
    cv = np.concatenate([pv, qv], axis=-1)
    cu.flags.writeable = cv.flags.writeable = False
    return GridPartials(grid, cu, cv, worst, induced_metric(cu, cv))


def _norm(c):
    """Metric norm of frame coefficients."""
    return np.sqrt(np.maximum(gram_product(c, c), 0.0))


def _normal_part(gp, w):
    """Component of the coefficient field `w` normal to span{phi_u, phi_v}:
    the 2x2 normal equations solved on the stored (E, F, G)."""
    E, F, G = gp.first_form
    det = E * G - F * F
    a = gram_product(w, gp.cu)
    b = gram_product(w, gp.cv)
    lam = (G * a - F * b) / det
    mu = (E * b - F * a) / det
    return w - lam[..., None] * gp.cu - mu[..., None] * gp.cv


def almost_complex_residual(gp):
    """Pointwise metric norm of phi_v minus J phi_u, relative to |phi_u|."""
    return _norm(gp.cv - gp.cu @ J_MAT.T) / np.sqrt(gp.first_form[0])


def require_adapted(grid, tol_scale):
    """Largest interior almost-complex defect of the grid.

    Raises ValueError when `tol_scale` is not finite and positive, and
    unless the defect stays below `ADAPTED_GATE * tol_scale`; a NaN defect
    fails the gate.
    """
    limit = ADAPTED_GATE * validate_tol_scale(tol_scale)
    gp = grid.partials
    ac_max = float(interior(almost_complex_residual(gp)).max())
    if not ac_max <= limit:
        raise ValueError(
            "grid is not adapted: relative almost-complex defect "
            f"{ac_max:.3e} exceeds {limit:.1e} "
            f"(real-part residual {gp.projection_max:.3e})"
        )
    return ac_max


def span_defect(gp):
    """Component of J phi_u outside span{phi_u, phi_v}, relative to |phi_u|.

    Coordinate-free counterpart of `almost_complex_residual`: zero whenever
    the tangent plane is J-invariant, however the patch is parametrized.
    """
    return _norm(_normal_part(gp, gp.cu @ J_MAT.T)) / np.sqrt(gp.first_form[0])


def rotate_pair(alpha_t, beta_t):
    """Forward rotation of the coefficient pair by the fixed angle."""
    a = _COS_T * alpha_t + _SIN_T * beta_t
    b = -_SIN_T * alpha_t + _COS_T * beta_t
    return a, b


def rotate_pair_back(alpha, beta):
    """Inverse of `rotate_pair`."""
    at = _COS_T * alpha - _SIN_T * beta
    bt = _SIN_T * alpha + _COS_T * beta
    return at, bt


@dataclass(frozen=True)
class CoefficientFields:
    """Logarithmic-derivative coefficient fields of an adapted immersion.

    alpha_t, beta_t, gamma_t, delta_t are the imaginary parts of
    p^-1 p_u, p^-1 p_v, q^-1 q_u, q^-1 q_v on the grid (the frame
    coefficients, sign flip undone); (alpha, beta) is the pair
    (alpha_t, beta_t) rotated by `theta`.  `real_part_max` records the
    largest real part seen before discarding (a finite-difference defect).
    """

    alpha_t: np.ndarray
    beta_t: np.ndarray
    gamma_t: np.ndarray
    delta_t: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    theta: float
    real_part_max: float


def extract_coefficients(grid):
    """Coefficient fields of an adapted grid.

    Raises ValueError when the real-part defect of the logarithmic
    derivatives exceeds `_MAX_REAL_PART`; that signals a grid that is not a
    smooth unit-quaternion immersion sampled finely enough.
    """
    gp = grid.partials
    if gp.projection_max > _MAX_REAL_PART:
        raise ValueError(
            "logarithmic derivatives are far from imaginary "
            f"(real-part residual {gp.projection_max:.3e} > {_MAX_REAL_PART:.1e})"
        )
    alpha_t = gp.cu[..., :3] * FLIP
    beta_t = gp.cv[..., :3] * FLIP
    gamma_t = gp.cu[..., 3:] * FLIP
    delta_t = gp.cv[..., 3:] * FLIP
    alpha, beta = rotate_pair(alpha_t, beta_t)
    return CoefficientFields(
        alpha_t, beta_t, gamma_t, delta_t, alpha, beta, THETA, gp.projection_max
    )


def adapted_second_pair(alpha_t, beta_t):
    """The second-factor pair (gamma_t, delta_t) that adapted coordinates force."""
    gamma_t = (SQRT3 / 2.0) * beta_t + 0.5 * alpha_t
    delta_t = 0.5 * beta_t - (SQRT3 / 2.0) * alpha_t
    return gamma_t, delta_t


def adapted_relation_residuals(cf):
    """Max deviation of the second-factor coefficients from the first-factor
    pair under the relation of `adapted_second_pair`."""
    gamma_pred, delta_pred = adapted_second_pair(cf.alpha_t, cf.beta_t)
    rg = np.linalg.norm(cf.gamma_t - gamma_pred, axis=-1)
    rd = np.linalg.norm(cf.delta_t - delta_pred, axis=-1)
    return float(interior(rg).max()), float(interior(rd).max())


def integrability_residuals(cf, du, dv):
    """Max-norm residuals of the three first-order compatibility equations.

    Returns (tilde_curl, closure, divergence): the cross-product curl
    equation on the unrotated pair, and the closure and divergence equations
    on the rotated pair.  All are second-order small on a genuine almost
    complex surface.
    """
    at_v = np.gradient(cf.alpha_t, dv, axis=1, edge_order=2)
    bt_u = np.gradient(cf.beta_t, du, axis=0, edge_order=2)
    r1 = at_v - bt_u - 2.0 * np.cross(cf.alpha_t, cf.beta_t)

    a_v = np.gradient(cf.alpha, dv, axis=1, edge_order=2)
    b_u = np.gradient(cf.beta, du, axis=0, edge_order=2)
    r2 = a_v - b_u

    a_u = np.gradient(cf.alpha, du, axis=0, edge_order=2)
    b_v = np.gradient(cf.beta, dv, axis=1, edge_order=2)
    r3 = a_u + b_v + (4.0 / SQRT3) * np.cross(cf.alpha, cf.beta)

    def stat(r):
        return float(interior(np.linalg.norm(r, axis=-1)).max())

    return stat(r1), stat(r2), stat(r3)


def lambda_quadratic(x, y):
    """The holomorphic quadratic coefficient as a quadratic form on a
    coefficient pair: (1 + i sqrt3)/4 times the complex square of x - iy."""
    a = np.sum(x * x, axis=-1) - np.sum(y * y, axis=-1)
    b = np.sum(x * y, axis=-1)
    re = 0.25 * a + (SQRT3 / 2.0) * b
    im = (SQRT3 / 4.0) * a - 0.5 * b
    return re + 1j * im


def lambda_field(gp):
    """Holomorphic quadratic coefficient from the metric-level definition:
    twice its value is g(P phi_u, phi_u) - i g(P phi_u, J phi_u)."""
    pu = gp.cu @ P_MAT.T
    re = gram_product(pu, gp.cu)
    im = -gram_product(pu, gp.cu @ J_MAT.T)
    return 0.5 * (re + 1j * im)


def cr_residuals(cf, du, dv):
    """Max residual of the two Cauchy-Riemann equations coupling the dot
    products of the rotated pair; second-order small on genuine surfaces."""
    dot_ab = np.sum(cf.alpha * cf.beta, axis=-1)
    diff = np.sum(cf.alpha * cf.alpha, axis=-1) - np.sum(cf.beta * cf.beta, axis=-1)
    r1 = np.gradient(dot_ab, du, axis=0, edge_order=2) - 0.5 * np.gradient(
        diff, dv, axis=1, edge_order=2
    )
    r2 = np.gradient(dot_ab, dv, axis=1, edge_order=2) + 0.5 * np.gradient(
        diff, du, axis=0, edge_order=2
    )
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


def second_derivative(f, h, axis):
    """Three-point second derivative along one axis, one-sided at the edges."""
    f = np.moveaxis(f, axis, 0)
    if f.shape[0] < 4:
        raise ValueError("need at least 4 samples for a second derivative")
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h)
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / (h * h)
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / (h * h)
    return np.moveaxis(out, 0, axis)


def brioschi_curvature(E, F, G, du, dv):
    """Gaussian curvature of a metric given by coefficient fields.

    Classical Brioschi determinant formula evaluated with second-order
    finite differences; intrinsic, so it needs only (E, F, G).
    """
    det = E * G - F * F
    if float(np.min(det)) < 1e-10:
        raise ValueError(f"metric is degenerate (min EG - F^2 = {np.min(det):.3e})")
    Eu = np.gradient(E, du, axis=0, edge_order=2)
    Ev = np.gradient(E, dv, axis=1, edge_order=2)
    Gu = np.gradient(G, du, axis=0, edge_order=2)
    Gv = np.gradient(G, dv, axis=1, edge_order=2)
    Fu = np.gradient(F, du, axis=0, edge_order=2)
    Fv = np.gradient(F, dv, axis=1, edge_order=2)
    Evv = second_derivative(E, dv, axis=1)
    Guu = second_derivative(G, du, axis=0)
    Fuv = np.gradient(Fu, dv, axis=1, edge_order=2)

    def det3(rows):
        m = np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
        return np.linalg.det(m)

    m1 = det3(
        [
            [-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev],
            [Fv - 0.5 * Gu, E, F],
            [0.5 * Gv, F, G],
        ]
    )
    m2 = det3(
        [
            [np.zeros_like(E), 0.5 * Ev, 0.5 * Gu],
            [0.5 * Ev, E, F],
            [0.5 * Gu, F, G],
        ]
    )
    return (m1 - m2) / (det * det)


def gaussian_curvature(gp):
    """Gaussian curvature field of the induced metric."""
    return brioschi_curvature(*gp.first_form, gp.grid.du, gp.grid.dv)


def _grid_covariant(x_coeff, field_coeff, step, axis):
    """Frame coefficients of the ambient covariant derivative of a grid
    tangent field along one coordinate direction.

    `x_coeff` is the direction's own coefficient field (the flow of the
    coordinate line), `field_coeff` the differentiated field's coefficients;
    the coordinate derivative is a grid stencil and the frame correction is
    the constant connection table.
    """
    dc = np.gradient(field_coeff, step, axis=axis, edge_order=2)
    corr = np.einsum("abk,...a,...b->...k", CONN, x_coeff, field_coeff)
    return dc + corr


@dataclass(frozen=True)
class SecondFundamentalForm:
    """Normal-valued second derivatives of the immersion on the grid.

    huu, huv, hvv are the frame coefficients (shape (nu, nv, 6)) of the
    normal projections of the ambient covariant derivatives of phi_u, phi_v
    along the coordinate directions; `unit_norm` is the largest of their
    metric norms after normalizing both slots to unit vectors, and
    `trace_norm` the norm of the metric trace (twice the mean curvature
    vector).
    """

    huu: np.ndarray
    huv: np.ndarray
    hvv: np.ndarray
    unit_norm: np.ndarray
    trace_norm: np.ndarray


def second_fundamental_form(grid):
    gp = grid.partials
    cu, cv = gp.cu, gp.cv
    huu = _normal_part(gp, _grid_covariant(cu, cu, grid.du, 0))
    huv = _normal_part(gp, _grid_covariant(cu, cv, grid.du, 0))
    hvv = _normal_part(gp, _grid_covariant(cv, cv, grid.dv, 1))
    E, F, G = gp.first_form
    det = E * G - F * F
    unit_norm = np.maximum(
        _norm(huu) / E, np.maximum(_norm(huv) / np.sqrt(E * G), _norm(hvv) / G)
    )
    trace = (
        G[..., None] * huu - 2.0 * F[..., None] * huv + E[..., None] * hvv
    ) / det[..., None]
    return SecondFundamentalForm(huu, huv, hvv, unit_norm, _norm(trace))


def classify_P_alignment(grid, tol=None):
    """Alignment of the almost product structure with the tangent plane.

    Returns "normal" when P maps the tangent plane into the normal space
    everywhere, "tangent" when P preserves the tangent plane everywhere,
    "mixed" otherwise.  The default tolerance scales with the squared grid
    step, matching the finite-difference error floor.
    """
    gp = grid.partials
    if tol is None:
        tol = max(1e-8, 100.0 * max(grid.du, grid.dv) ** 2)
    pu = gp.cu @ P_MAT.T
    scale = _norm(pu) * np.sqrt(gp.first_form[0])
    a = np.abs(gram_product(pu, gp.cu)) / scale
    b = np.abs(gram_product(pu, gp.cv)) / scale
    normal_dev = float(interior(np.maximum(a, b)).max())
    tangent_dev = float(interior(_norm(_normal_part(gp, pu)) / _norm(pu)).max())
    if normal_dev < tol:
        return "normal"
    if tangent_dev < tol:
        return "tangent"
    return "mixed"


def analyze(grid, seed=0, tol_scale=1.0):
    """Full summary report of an adapted immersion grid.

    The report dict uses a fixed key schema (see the CLI docs).  Raises
    ValueError when `tol_scale` is not finite and positive, and when the
    grid is not adapted (`require_adapted`).
    """
    ac_max = require_adapted(grid, tol_scale)
    gp = grid.partials
    cf = extract_coefficients(grid)
    r21, r22, r23 = integrability_residuals(cf, grid.du, grid.dv)
    cr = cr_residuals(cf, grid.du, grid.dv)
    lam = lambda_field(gp)
    K = gaussian_curvature(gp)
    K_int = interior(K)
    sff = second_fundamental_form(grid)
    return {
        "almost_complex_max": ac_max,
        "integrability_21_max": r21,
        "integrability_22_max": r22,
        "integrability_23_max": r23,
        "cr_max": cr,
        "lambda_max_abs": float(interior(np.abs(lam)).max()),
        "K_mean": float(K_int.mean()),
        "K_max_dev": float(np.abs(K_int - K_int.mean()).max()),
        "h_norm_max": float(interior(sff.unit_norm).max()),
        "classification": classify_P_alignment(grid),
        "grid": grid.window(),
        "seed": int(seed),
    }
