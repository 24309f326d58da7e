"""Deterministic CSV and JSON serialization for grids and reports.

CSV layouts are row-major in v then u (the v index varies slowest).  Every
value is written as `'%.17g' % x` writes it, 17 significant digits with
trailing zeros dropped and exponent form below 1e-4 and from 1e17, so a
file is byte for byte what `np.savetxt(fmt="%.17g", delimiter=",")` writes
and write -> read -> write round-trips to identical bytes.  The writer
formats a fixed number of values at a time in numpy, exactly: digits
from an error-free product, text laid out from a table of NUL-padded
slots; only exponent-form and non-finite values go through `%`.  Each
coordinate value is formatted once, not once per row it appears in.
Readers accept any row order: rows carry their own (u, v) coordinates and
are re-binned onto the recovered `Lattice`, which is validated once and
which the grid is built over.  Each block of columns is binned into its own
C-contiguous array (p and q of an immersion, eps of a potential), which the
grid constructor takes over: `surface.immersion_grid` normalizes p and q in
place, so the read holds each grid once.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from .hsystem import h_surface_grid
from .frame import gate
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
# values formatted per chunk, the u and v columns included: 1024 points of
# an immersion grid, 2048 of a potential
_CHUNK_VALUES = 10240

# One formatted value is a slot of six little-endian words (48 bytes) that
# becomes text once its NUL bytes are dropped.  Byte 0 holds the separator
# that precedes the value, 1 the sign, 2-6 the "0." and zeros of a value
# below 1, 7-23 the 17 digits as integer digits, 24 the dot and 31-47 the
# 17 digits again as fraction digits; bytes 25-30 stay NUL.  The digits sit
# in words 0-2 and again in words 3-5 at the same offsets.
_SLOT_WORDS = 6
_DIGITS = 17
_LOG10_2 = 0.30102999566398120
# 10**e for e = -4 .. 17, each the double nearest to it; below 1 that
# double lies above the power, so `x >= _POW10[e + 4]` is exact for doubles
_POW10 = np.array([float(f"1e{e}") for e in range(-4, 18)])
# the exact doubles 10**(16 - k) for k = -4 .. 16, index k + 4, and their
# high and low halves for Dekker's product
_SCALE = np.array([float(f"1e{16 - k}") for k in range(-4, 17)])
_SPLIT = 134217729.0  # 2**27 + 1
_SCALE_HI = _SPLIT * _SCALE - (_SPLIT * _SCALE - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI
_ZEROS = 0x3030303030303030  # eight ASCII "0"


def _slot_table():
    """Slot templates indexed by ((sign * 21) + k + 4) * 18 + n: a value of
    decimal exponent k in [-4, 16] whose n-th digit is its last nonzero one.

    Separator, sign, "0.", zeros and dot are text; a digit byte is 0xFF
    where that digit is written and NUL where it is not, so the template
    ANDed with the digit words gives the slot.  Built in plain Python: a
    broadcast numpy build first touches numpy code that no command needs
    otherwise, 0.4 MB of resident memory in every command at import."""
    rows = []
    for sign in (b"", b"-"):
        for k in range(-4, _DIGITS):
            whole = max(k + 1, 0)
            for n in range(_DIGITS + 1):
                slot = bytearray(8 * _SLOT_WORDS)
                slot[0:1 + len(sign)] = b"," + sign
                if k < 0:
                    slot[2:3 - k] = b"0.000"[:1 - k]
                elif n > whole:
                    slot[24] = ord(".")
                slot[7:7 + whole] = b"\xff" * whole
                slot[31 + whole:31 + n] = b"\xff" * (n - whole)
                rows.append(slot)
    return np.frombuffer(b"".join(rows), "<u8").reshape(-1, _SLOT_WORDS)


_SLOTS = _slot_table()


def _eight_digits(x):
    """The eight ASCII digits of each integer in `x` (uint64, < 10**8), first
    digit in the lowest byte: split 4+4, then 2+2 and 1+1 within each lane
    by multiply-and-shift division."""
    h = x // 10000
    x = h | ((x - h * 10000) << 32)
    h = ((x * 5243) >> 19) & 0x0000007F0000007F
    x = h | ((x - h * 100) << 16)
    h = ((x * 103) >> 10) & 0x000F000F000F000F
    x = h | ((x - h * 10) << 8)
    return x | _ZEROS


def _format_slots(x):
    """The slots, shape (x.size, 6), of `x` formatted as `'%.17g' % x` would.

    For 1e-4 <= |x| < 1e17 the text is positional.  With |x| in
    [2**(e-1), 2**e), the decimal exponent k is floor((e-1) log10 2) or one
    more, settled against the powers of ten.  The 17 digits are the
    round-half-even integer of |x| * 10**(16 - k), exact through Dekker's
    error-free product: the rounded product is an even integer, so rounding
    its error rounds the sum.  Every other value is swapped for 1.0 before
    any arithmetic, so no floating-point warning can arise; ±0 is written
    from zero digits, and the rest (exponent form, inf, nan) by `%` one at a
    time.
    """
    x = x.ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    k = np.floor((np.frexp(a)[1] - 1) * _LOG10_2).astype(np.intp)
    k += a >= _POW10.take(k + 5)
    k += 4
    p = a * _SCALE.take(k)
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    s_hi, s_lo = _SCALE_HI.take(k), _SCALE_LO.take(k)
    err = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    # the exact product is below 10**17, so it rounds up to 10**17 only from
    # p == 1e17 with an error of at most half a unit; that carry moves the
    # exponent (no double reaches it)
    carry = (p == 1e17) & (err >= -0.5)
    p[carry] = 1e16
    err[carry] = 0.0
    k += carry
    d = p.astype(np.uint64) + np.rint(err).astype(np.int64).view(np.uint64)
    d[~fast] = 0
    lead = d // 10**16
    d -= lead * 10**16
    mid = d // 10**8
    words = [_eight_digits(mid), _eight_digits(d - mid * 10**8)]
    # n, the count of digits up to the last nonzero one, from the float
    # exponent of the top flag of "digit above 0" (bit 6 of each byte); a
    # first digit alone, or a zero, gives 1
    flags = [(w + 0x0F0F0F0F0F0F0F0F) & 0x4040404040404040 for w in words]
    top = np.frexp(flags[1].astype(np.float64) * 2.0**64 + flags[0])[1]
    n = (top + 9) >> 3
    slots = _SLOTS.take((np.signbit(x) * 21 + k) * (_DIGITS + 1) + n, axis=0)
    for word, digits in enumerate([((lead + 0x30) << 56) | 0x00FFFFFFFFFFFFFF, *words] * 2):
        slots[:, word] &= digits
    slow = np.flatnonzero(~fast & (x != 0))
    if len(slow):
        text = b"".join(
            ("," + _FMT % v).encode().ljust(8 * _SLOT_WORDS, b"\0")
            for v in x[slow].tolist()
        )
        slots[slow] = np.frombuffer(text, "<u8").reshape(-1, _SLOT_WORDS)
    return slots


def _write_rows(path, header, lat, blocks):
    """Write one CSV over the `Lattice` `lat` with v-major rows: for each v,
    all u in order; `blocks` are indexed [u, v, component].

    The bytes are those of `np.savetxt(fmt="%.17g", delimiter=",")`.  Each u
    and v coordinate is formatted once; the payload is formatted by
    `_format_slots` a chunk of rows at a time, as many as hold
    `_CHUNK_VALUES` values, the slots of each chunk's rows laid side by side
    and written with their NULs dropped, so a chunk's temporaries are the
    same size for every layout.  A slot carries the separator before its
    value, so each row opens with the newline that ends the previous line.
    """
    us = _format_slots(lat.u_vals)
    us.view(np.uint8)[:, 0] = ord("\n")
    vs = _format_slots(lat.v_vals)
    width = sum(b.shape[-1] for b in blocks)
    points = lat.nu * lat.nv
    chunk = _CHUNK_VALUES // (width + 2)
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for start in range(0, points, chunk):
            j, i = np.divmod(np.arange(start, min(start + chunk, points)), lat.nu)
            values = np.concatenate([b[i, j] for b in blocks], axis=-1)
            rows = np.empty((len(i), width + 2, _SLOT_WORDS), "<u8")
            rows[:, 0] = us.take(i, axis=0)
            rows[:, 1] = vs.take(j, axis=0)
            rows[:, 2:] = _format_slots(values).reshape(len(i), width, _SLOT_WORDS)
            text = rows.view(np.uint8).ravel()
            fh.write(text[text != 0])
        fh.write(b"\n")


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


def _read_rows(path, header, *widths):
    """The recovered `Lattice` and the header's columns after u, v binned
    onto it, one C-contiguous (nu, nv, width) array per block of `widths`."""
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
    cells = np.searchsorted(u_vals, data[:, 0]), np.searchsorted(v_vals, data[:, 1])
    seen = np.zeros((nu, nv), dtype=bool)
    seen[cells] = True
    if not seen.all():  # as many rows as cells, so a duplicate leaves one missing
        raise ValueError("grid has missing or duplicated (u, v) cells")
    blocks, start = [], 2
    for width in widths:
        blocks.append(np.empty((nu, nv, width)))
        blocks[-1][cells] = data[:, start : start + width]
        start += width
    return lattice(u_vals[0], v_vals[0], du, dv, nu, nv), *blocks


def read_immersion_csv(path):
    """`surface.immersion_grid` over the file's p and q, each binned into an
    array of its own, which the grid normalizes in place."""
    return immersion_grid(*_read_rows(path, IMMERSION_HEADER, 4, 4))


def read_epsilon_csv(path):
    return h_surface_grid(*_read_rows(path, EPSILON_HEADER, 3))


def dump_report(report):
    """Canonical JSON text (sorted keys, trailing newline) for a report of
    plain Python values; a numpy integer, bool or array raises TypeError."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(path, report):
    with open(path, "w") as fh:
        fh.write(dump_report(report))
