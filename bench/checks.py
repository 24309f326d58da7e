"""Output checks for the nks3 benchmark, computed apart from the program.

Nothing here imports nks3: the closed forms, the seeded transforms, the CSV
reader and writer, and every expected value are recomputed with numpy from
the formulas they come from (see README.md).  Each check returns a dict of
named entries ``{"value", "limit", "ok"}`` so that the result file shows
what was compared, against what, and the verdict.

run.py calls the steps at the end of this file in a separate process

    python3 checks.py STEP WORKDIR PARAMS_JSON

so that the benchmark process stays small: a child's peak RSS as wait4
reports it includes the pages it shared with its parent when it forked.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import numpy as np

SQRT3 = float(np.sqrt(3.0))
SPHERE_K = 2.0 / 3.0  # Gaussian curvature of the totally geodesic round sphere
SPHERE_RADIUS = SQRT3 / 2.0  # radius of its constant-mean-curvature potential
CYLINDER_RADIUS = SQRT3 / 4.0

IMMERSION_HEADER = "u,v,p0,p1,p2,p3,q0,q1,q2,q3"
EPSILON_HEADER = "u,v,x,y,z"

# the identity suite of `nks3 --command verify`: frame-exact identities are
# held to 1e-12, sampled ones to 1e-10
EXACT_IDENTITIES = (
    "frame_metric", "frame_representation", "torsion_free", "metric_compatible",
    "j_derivative_table", "p_derivative_table", "hermitian_j_parallel",
    "hermitian_p_parallel", "g_tensor_derivative", "curvature_vs_oracle",
)
SAMPLED_IDENTITIES = (
    "metric_two_forms", "j_squared", "p_squared", "q_squared", "pj_anticommute",
    "g_j_invariant", "g_p_invariant", "q_j_product_flip", "usual_metric_recovery",
    "g_tensor_skew", "g_tensor_j_mix", "g_tensor_metric_skew", "p_g_compat",
    "h_j_mix", "g_p_mix", "h_p_mix", "h_p_first_slot", "g_tensor_pair_product",
)
IDENTITY_LIMITS = {
    **{k: 1e-12 for k in EXACT_IDENTITIES},
    **{k: 1e-10 for k in SAMPLED_IDENTITIES},
}

# fixture outputs are closed forms written with 17 significant digits
CLOSED_FORM_TOL = 1e-12
# discretization checks pass when the defect is below this many squared steps
H2_FACTOR = 8.0


def entry(value, limit):
    value = float(value)
    return {"value": value, "limit": float(limit), "ok": bool(value <= limit)}


def all_ok(result):
    return all(e["ok"] for e in result.values())


# ---------------------------------------------------------------- quaternions


def qmul(a, b):
    aw, ax, ay, az = np.moveaxis(np.asarray(a, float), -1, 0)
    bw, bx, by, bz = np.moveaxis(np.asarray(b, float), -1, 0)
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
    return np.asarray(q, float) * np.array([1.0, -1.0, -1.0, -1.0])


def random_unit(rng):
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def rotation_matrix(q):
    """The rotation x -> q x q^-1 of R^3 for a unit quaternion q."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


# ------------------------------------------------------------ seeded inputs


def sphere_isometry(seed):
    """Unit quaternions (a, b, c) of the isometry (p, q) -> (a p c^-1, b q c^-1)."""
    rng = np.random.default_rng([seed, 1])
    return tuple(random_unit(rng) for _ in range(3))


def apply_isometry(iso, p, q):
    a, b, c = iso
    cinv = qconj(c)
    return qmul(qmul(a, p), cinv), qmul(qmul(b, q), cinv)


def cylinder_motion(seed):
    """A proper rotation matrix and a translation of R^3."""
    rng = np.random.default_rng([seed, 2])
    return rotation_matrix(random_unit(rng)), rng.standard_normal(3)


def apply_motion(motion, eps):
    rot, shift = motion
    return eps @ rot.T + shift


# ----------------------------------------------------------------- CSV grids


class Grid:
    """A CSV grid: axis values and an (nu, nv, k) payload."""

    def __init__(self, u, v, payload):
        self.u, self.v, self.payload = u, v, payload

    @property
    def step(self):
        return float(self.u[1] - self.u[0]), float(self.v[1] - self.v[0])


def read_grid(path, header):
    """Parse a grid CSV in any row order; rejects holes and wrong headers."""
    with open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(f"{path}: header {first!r}, expected {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    u, iu = np.unique(data[:, 0], return_inverse=True)
    v, iv = np.unique(data[:, 1], return_inverse=True)
    if data.shape[0] != len(u) * len(v):
        raise ValueError(f"{path}: {data.shape[0]} rows for a {len(u)}x{len(v)} grid")
    payload = np.full((len(u), len(v), data.shape[1] - 2), np.nan)
    payload[iu, iv] = data[:, 2:]
    if not np.isfinite(payload).all():
        raise ValueError(f"{path}: missing cells")
    return Grid(u, v, payload)


def write_grid(path, header, grid):
    """Write v-major rows with shortest round-trip float text."""
    nu, nv = len(grid.u), len(grid.v)
    rows = np.empty((nv, nu, 2 + grid.payload.shape[-1]))
    rows[..., 0] = grid.u[None, :]
    rows[..., 1] = grid.v[:, None]
    rows[..., 2:] = np.swapaxes(grid.payload, 0, 1)
    lines = [header] + [",".join(map(repr, r)) for r in rows.reshape(nu * nv, -1).tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ------------------------------------------------------------- closed forms


def axis(start, step, n):
    return start + step * np.arange(n)


def example2_closed_form(nu, nv, du, dv):
    """The round-sphere surface x -> (1/2 - (sqrt3/2) x, 1/2 + (sqrt3/2) x) in
    Mercator coordinates, u centred on the equator, v from 0."""
    u = axis(-0.5 * (nu - 1) * du, du, nu)
    v = axis(0.0, dv, nv)
    sech = 1.0 / np.cosh(u)[:, None]
    x = np.stack(
        np.broadcast_arrays(sech * np.cos(v), sech * np.sin(v), -np.tanh(u)[:, None]),
        axis=-1,
    )
    half = np.full(x.shape[:-1] + (1,), 0.5)
    p = np.concatenate([half, -(SQRT3 / 2.0) * x], axis=-1)
    q = np.concatenate([half, (SQRT3 / 2.0) * x], axis=-1)
    return Grid(u, v, np.concatenate([p, q], axis=-1))


def cylinder_closed_form(nu, nv, du, dv):
    """Cylinder of radius sqrt3/4 in arclength coordinates: u wraps, v runs
    along the axis and is centred."""
    r = CYLINDER_RADIUS
    u = axis(0.0, du, nu)
    v = axis(-0.5 * (nv - 1) * dv, dv, nv)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    return Grid(u, v, np.stack([r * np.cos(uu / r), r * np.sin(uu / r), vv], axis=-1))


def non_adapted_grid(n, step):
    """Gate probe input: p = (cos u, sin u, 0, 0), q = (cos v, 0, sin v, 0).
    Its tangent planes are not J-invariant, so it is no almost complex surface."""
    u = axis(0.0, step, n)
    v = axis(0.0, step, n)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    zero = np.zeros_like(uu)
    p = np.stack([np.cos(uu), np.sin(uu), zero, zero], axis=-1)
    q = np.stack([np.cos(vv), zero, np.sin(vv), zero], axis=-1)
    return Grid(u, v, np.concatenate([p, q], axis=-1))


# ------------------------------------------------------------------- checks


def check_closed_form(got, want):
    """A fixture CSV equals its closed form, axes and values."""
    if got.payload.shape != want.payload.shape:
        return {"shape": entry(np.inf, 0.0)}
    return {
        "axes_max_dev": entry(
            max(np.abs(got.u - want.u).max(), np.abs(got.v - want.v).max()),
            CLOSED_FORM_TOL,
        ),
        "values_max_dev": entry(np.abs(got.payload - want.payload).max(), CLOSED_FORM_TOL),
    }


def check_round_sphere_report(report, h):
    """The paper's values for the totally geodesic round sphere: K = 2/3,
    classification normal, vanishing holomorphic coefficient and second
    fundamental form; each to H2_FACTOR * h^2."""
    lim = H2_FACTOR * h * h
    return {
        "K_mean_dev": entry(abs(report.get("K_mean", np.nan) - SPHERE_K), lim),
        "lambda_max_abs": entry(report.get("lambda_max_abs", np.nan), lim),
        "h_norm_max": entry(report.get("h_norm_max", np.nan), lim),
        "classification_normal": entry(report.get("classification") != "normal", 0.0),
    }


def sphere_fit(points):
    """Least-squares sphere through a point cloud: |x|^2 = 2 c.x + (r^2 - |c|^2)."""
    x = points.reshape(-1, 3)
    design = np.concatenate([2.0 * x, np.ones((len(x), 1))], axis=1)
    sol = np.linalg.lstsq(design, np.sum(x * x, axis=-1), rcond=None)[0]
    center = sol[:3]
    radius = float(np.sqrt(sol[3] + center @ center))
    return radius, float(np.abs(np.linalg.norm(x - center, axis=-1) - radius).max())


def check_sphere_potential(potential, h):
    """The potential of the round sphere is a sphere of radius sqrt3/2."""
    radius, dev = sphere_fit(potential.payload)
    lim = H2_FACTOR * h * h
    return {"radius_dev": entry(abs(radius - SPHERE_RADIUS), lim), "fit_max_dev": entry(dev, lim)}


def _left_translation_defect(got, want):
    """max |got - L want| for the unit quaternion L that fits best."""
    ratio = qmul(got, qconj(want)).reshape(-1, 4).mean(axis=0)
    lt = ratio / np.linalg.norm(ratio)
    return float(np.abs(got - qmul(lt, want)).max())


def check_left_translate(got, want, h):
    """`got` equals `want` on their common window up to a constant left
    translation of each factor, to H2_FACTOR * h^2.  The windows share the
    lattice; the offset of `got` in `want` is recovered from the axes."""
    du, dv = want.step
    ou = int(round((got.u[0] - want.u[0]) / du))
    ov = int(round((got.v[0] - want.v[0]) / dv))
    nu, nv = len(got.u), len(got.v)
    if ou < 0 or ov < 0 or ou + nu > len(want.u) or ov + nv > len(want.v):
        return {"window": entry(np.inf, 0.0)}
    ref = want.payload[ou : ou + nu, ov : ov + nv]
    lim = H2_FACTOR * h * h
    return {
        "p_left_translate_dev": entry(_left_translation_defect(got.payload[..., :4], ref[..., :4]), lim),
        "q_left_translate_dev": entry(_left_translation_defect(got.payload[..., 4:], ref[..., 4:]), lim),
    }


def check_arclength(potential, h):
    """The first fundamental form of an arclength potential is the identity;
    central differences on the interior, to H2_FACTOR * h^2."""
    du, dv = potential.step
    eps = potential.payload
    eu = (eps[2:, 1:-1] - eps[:-2, 1:-1]) / (2.0 * du)
    ev = (eps[1:-1, 2:] - eps[1:-1, :-2]) / (2.0 * dv)
    lim = H2_FACTOR * h * h
    return {
        "E_dev": entry(np.abs(np.sum(eu * eu, axis=-1) - 1.0).max(), lim),
        "F_dev": entry(np.abs(np.sum(eu * ev, axis=-1)).max(), lim),
        "G_dev": entry(np.abs(np.sum(ev * ev, axis=-1) - 1.0).max(), lim),
    }


def check_identity_report(report, samples, seed):
    """Every identity of the suite is present and within its limit, and the
    report says ok with nothing flagged for the samples and seed asked for."""
    out = {"ok": entry(report.get("ok") is not True or bool(report.get("flagged")), 0.0)}
    config = report.get("config", {})
    out["config_matches"] = entry(
        config.get("samples") != samples or config.get("seed") != seed, 0.0
    )
    residuals = report.get("residual_max", {})
    for name, limit in IDENTITY_LIMITS.items():
        out[name] = entry(residuals.get(name, np.inf), limit)
    return out


# -------------------------------------------------- steps run by run.py


def step_probe_grid(workdir, n, h):
    write_grid(os.path.join(workdir, "probe.csv"), IMMERSION_HEADER, non_adapted_grid(n, h))
    return {}


def step_sphere_fixture(workdir, seed, n, h):
    """Check the example2 fixture and write its seeded isometric image."""
    got = read_grid(os.path.join(workdir, "fixture.csv"), IMMERSION_HEADER)
    p, q = apply_isometry(sphere_isometry(seed), got.payload[..., :4], got.payload[..., 4:])
    moved = Grid(got.u, got.v, np.concatenate([p, q], axis=-1))
    write_grid(os.path.join(workdir, "input.csv"), IMMERSION_HEADER, moved)
    return {"fixture_closed_form": check_closed_form(got, example2_closed_form(n, n, h, h))}


def step_sphere_outputs(workdir, h):
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    moved = read_grid(path("input.csv"), IMMERSION_HEADER)
    return {
        "analyze_report": check_round_sphere_report(_load(path("analyze.json")), h),
        "to_h_potential": check_sphere_potential(read_grid(path("potential.csv"), EPSILON_HEADER), h),
        "from_h_report": check_round_sphere_report(_load(path("surface.csv.report.json")), h),
        "from_h_surface": check_left_translate(read_grid(path("surface.csv"), IMMERSION_HEADER), moved, h),
    }


def step_cylinder_fixture(workdir, seed, nu, nv, h):
    """Check the cylinder fixture and write its seeded rigid motion."""
    got = read_grid(os.path.join(workdir, "fixture.csv"), EPSILON_HEADER)
    moved = Grid(got.u, got.v, apply_motion(cylinder_motion(seed), got.payload))
    write_grid(os.path.join(workdir, "input.csv"), EPSILON_HEADER, moved)
    return {"fixture_closed_form": check_closed_form(got, cylinder_closed_form(nu, nv, h, h))}


def step_cylinder_outputs(workdir, h):
    potential = read_grid(os.path.join(workdir, "potential.csv"), EPSILON_HEADER)
    return {"to_h_arclength": check_arclength(potential, h)}


def step_identity_outputs(workdir, samples, seed):
    report = _load(os.path.join(workdir, "verify.json"))
    return {"identity_report": check_identity_report(report, samples, seed)}


def step_environment(workdir):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _load(path):
    with open(path) as fh:
        return json.load(fh)


STEPS = {
    "probe_grid": step_probe_grid,
    "sphere_fixture": step_sphere_fixture,
    "sphere_outputs": step_sphere_outputs,
    "cylinder_fixture": step_cylinder_fixture,
    "cylinder_outputs": step_cylinder_outputs,
    "identity_outputs": step_identity_outputs,
    "environment": step_environment,
}

if __name__ == "__main__":
    step, workdir, params = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    json.dump(STEPS[step](workdir, **params), sys.stdout)
