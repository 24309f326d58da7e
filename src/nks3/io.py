"""Deterministic CSV and JSON serialization for grids and reports.

CSV layouts are row-major in v then u (the v index varies slowest), with
17-significant-digit decimals so that write -> read -> write round-trips to
identical bytes.  Writers format each coordinate value once, not once per
row it appears in.  Readers accept any row order: rows carry their own (u, v)
coordinates and are re-binned onto the recovered `Lattice`, which is
validated once and which the grid is built over.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from .hsystem import h_surface_grid
from .nkspace import gate
from .surface import STEP_RTOL, immersion_grid, lattice

__all__ = [
    "IMMERSION_HEADER",
    "EPSILON_HEADER",
    "write_immersion_csv",
    "read_immersion_csv",
    "write_epsilon_csv",
    "read_epsilon_csv",
    "dump_report",
    "write_report",
]

IMMERSION_HEADER = "u,v,p0,p1,p2,p3,q0,q1,q2,q3"
EPSILON_HEADER = "u,v,x,y,z"

_FMT = "%.17g"
_CHUNK_ROWS = 512


def _write_rows(path, header, lat, blocks):
    """Write one CSV over the `Lattice` `lat` with v-major rows: for each v,
    all u in order; `blocks` are indexed [u, v, component].

    The bytes are those of `np.savetxt(fmt=_FMT, delimiter=",")`.  Each u
    and v coordinate is formatted once; the payload of at most
    `_CHUNK_ROWS` rows of one v is formatted by one `%` over a template
    that already holds their coordinates, and written out at once.
    """
    us = [_FMT % u for u in lat.u_vals.tolist()]
    vs = [_FMT % v for v in lat.v_vals.tolist()]
    row = ",".join([_FMT] * sum(b.shape[-1] for b in blocks)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for j, v in enumerate(vs):
            for i in range(0, lat.nu, _CHUNK_ROWS):
                rows = slice(i, i + _CHUNK_ROWS)
                template = "".join([f"{u},{v},{row}" for u in us[rows]])
                values = np.concatenate([b[rows, j] for b in blocks], axis=-1)
                fh.write(template % tuple(values.ravel().tolist()))


def write_immersion_csv(path, grid):
    _write_rows(path, IMMERSION_HEADER, grid, [grid.p, grid.q])


def write_epsilon_csv(path, hs):
    _write_rows(path, EPSILON_HEADER, hs, [hs.eps])


def _recover_axis(raw, label):
    """Sorted distinct coordinate values and their median step; rejects a
    step that deviates from the median by more than `surface.STEP_RTOL` of it."""
    # np.unique and np.median, written out: both import numpy.ma on first
    # use.  The median is the mean of the middle one or two sorted steps.
    vals = np.sort(raw)
    keep = np.ones(vals.shape, dtype=bool)
    keep[1:] = vals[1:] != vals[:-1]
    vals = vals[keep]
    if len(vals) < 5:
        raise ValueError(f"{label} axis has only {len(vals)} distinct values")
    steps = np.diff(vals)
    mid = np.sort(steps)[(len(steps) - 1) // 2 : len(steps) // 2 + 1]
    step = float(mid.mean())
    gate(np.abs(steps - step).max(), STEP_RTOL * step,
         f"{label} axis spacing is irregular: max jitter",
         why=f" ({STEP_RTOL:.0e} of the step {step:.6g})")
    return vals, step


def _read_rows(path, header):
    """The recovered `Lattice` and the header's columns after u, v binned onto it."""
    with open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(
                f"unexpected CSV header {first!r}, expected {header!r}"
            )
        with warnings.catch_warnings():  # a header with no rows is refused below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if not len(data):
        raise ValueError("CSV has a header but no data rows")
    columns = header.split(",")
    if data.shape[1] != len(columns):
        raise ValueError(f"expected {len(columns)} columns, got shape {data.shape}")
    for column, finite in zip(columns, np.isfinite(data).all(axis=0)):
        if not finite:
            raise ValueError(f"non-finite value in column {column!r}")
    u_vals, du = _recover_axis(data[:, 0], "u")
    v_vals, dv = _recover_axis(data[:, 1], "v")
    nu, nv = len(u_vals), len(v_vals)
    if data.shape[0] != nu * nv:
        raise ValueError(
            f"row count {data.shape[0]} does not fill a {nu} x {nv} grid"
        )
    i = np.searchsorted(u_vals, data[:, 0])
    j = np.searchsorted(v_vals, data[:, 1])
    payload = np.full((nu, nv, len(columns) - 2), np.nan)
    payload[i, j] = data[:, 2:]
    if not np.isfinite(payload).all():
        raise ValueError("grid has missing or duplicated (u, v) cells")
    return lattice(u_vals[0], v_vals[0], du, dv, nu, nv), payload


def read_immersion_csv(path):
    lat, payload = _read_rows(path, IMMERSION_HEADER)
    return immersion_grid(lat, payload[..., :4], payload[..., 4:])


def read_epsilon_csv(path):
    lat, payload = _read_rows(path, EPSILON_HEADER)
    return h_surface_grid(lat, payload)


def dump_report(report):
    """Canonical JSON text (sorted keys, trailing newline) for a report of
    plain Python values; a numpy integer, bool or array raises TypeError."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(path, report):
    with open(path, "w") as fh:
        fh.write(dump_report(report))
