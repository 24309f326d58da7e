import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from nks3 import cli, fixtures, io
from nks3 import surface as sf

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_immersion_csv_round_trip(tmp_path):
    grid = fixtures.make_fixture("example2", nu=9, nv=7)
    path = tmp_path / "g.csv"
    io.write_immersion_csv(path, grid)
    back = io.read_immersion_csv(path)
    assert back.nu == 9 and back.nv == 7
    assert abs(back.u0 - grid.u0) < 1e-15 and abs(back.du - grid.du) < 1e-15
    assert np.abs(back.p - grid.p).max() < 1e-15
    assert np.abs(back.q - grid.q).max() < 1e-15
    # writing the read-back grid reproduces the bytes
    path2 = tmp_path / "g2.csv"
    io.write_immersion_csv(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_immersion_csv_layout(tmp_path):
    grid = fixtures.make_fixture("example1", nu=5, nv=6)
    path = tmp_path / "g.csv"
    io.write_immersion_csv(path, grid)
    lines = path.read_text().splitlines()
    assert lines[0] == "u,v,p0,p1,p2,p3,q0,q1,q2,q3"
    assert len(lines) == 1 + 5 * 6
    # v varies slowest: the first nu rows share v = v0
    first = np.array([ln.split(",")[:2] for ln in lines[1:6]], dtype=float)
    assert np.abs(first[:, 1] - grid.v0).max() == 0.0
    assert np.abs(first[:, 0] - grid.u_vals).max() < 1e-15


def test_epsilon_csv_round_trip(tmp_path):
    hs = fixtures.make_fixture("cmc_sphere", nu=9, nv=9)
    path = tmp_path / "e.csv"
    io.write_epsilon_csv(path, hs)
    assert path.read_text().splitlines()[0] == "u,v,x,y,z"
    back = io.read_epsilon_csv(path)
    assert np.abs(back.eps - hs.eps).max() < 1e-15
    assert abs(back.v0 - hs.v0) < 1e-15


def test_reader_accepts_shuffled_rows(tmp_path):
    hs = fixtures.make_fixture("cmc_cylinder", nu=7, nv=7)
    path = tmp_path / "e.csv"
    io.write_epsilon_csv(path, hs)
    lines = path.read_text().splitlines()
    rng = np.random.default_rng(0)
    body = [lines[1 + k] for k in rng.permutation(len(lines) - 1)]
    path.write_text("\n".join([lines[0]] + body) + "\n")
    back = io.read_epsilon_csv(path)
    assert np.abs(back.eps - hs.eps).max() < 1e-15


def test_reader_rejects_bad_input(tmp_path):
    hs = fixtures.make_fixture("cmc_sphere", nu=7, nv=7)
    path = tmp_path / "e.csv"

    io.write_epsilon_csv(path, hs)
    lines = path.read_text().splitlines()
    with pytest.raises(ValueError, match="header"):
        p = tmp_path / "h.csv"
        p.write_text("\n".join(["a,b,c,d,e"] + lines[1:]) + "\n")
        io.read_epsilon_csv(p)
    with pytest.raises(ValueError, match="grid"):
        p = tmp_path / "m.csv"
        p.write_text("\n".join(lines[:-1]) + "\n")  # one missing row
        io.read_epsilon_csv(p)
    with pytest.raises(ValueError, match="missing or duplicated"):
        p = tmp_path / "d.csv"
        # right row count, but one cell written twice and another absent
        p.write_text("\n".join(lines[:-1] + [lines[5]]) + "\n")
        io.read_epsilon_csv(p)
    with pytest.raises(ValueError, match="irregular"):
        p = tmp_path / "j.csv"
        parts = lines[1 + 3].split(",")
        parts[0] = repr(float(parts[0]) + 1e-7)  # jitter one u coordinate
        p.write_text("\n".join(lines[: 1 + 3] + [",".join(parts)] + lines[2 + 3:]) + "\n")
        io.read_epsilon_csv(p)


@pytest.mark.parametrize("shift, ok", [(5e-9, True), (5e-8, False)])
def test_axis_jitter_gate_near_its_tolerance(tmp_path, shift, ok):
    # one whole u-column moved by `shift` at du = 0.01, where the tolerance
    # is STEP_RTOL * du = 1e-8: 0.5x passes, 5x is refused, so a tenfold
    # looser tolerance fails here
    grid = fixtures.make_fixture("example2", nu=9, nv=7, du=0.01, dv=0.01)
    path = tmp_path / "g.csv"
    io.write_immersion_csv(path, grid)
    header, *rows = path.read_text().splitlines()
    column = float(grid.u_vals[4])
    for k, row in enumerate(rows):
        u, rest = row.split(",", 1)
        if float(u) == column:
            rows[k] = f"{column + shift!r},{rest}"
    path.write_text("\n".join([header, *rows]) + "\n")
    if ok:
        assert io.read_immersion_csv(path).nu == 9
        return
    with pytest.raises(ValueError, match=r"u axis spacing is irregular: max jitter 5\.0\d\de-08 exceeds 1\.0e-08"):
        io.read_immersion_csv(path)


def test_reader_refuses_a_missing_column_at_a_tiny_step(tmp_path):
    # u axis (0, 1, 2, 3, 5, ..., 9) x 1e-10: the gap left by the missing
    # column is a whole step of jitter, however small the step itself is
    u = (np.delete(np.arange(10), 4) * 1e-10).tolist()
    v = (0.1 * np.arange(9)).tolist()
    path = tmp_path / "e.csv"
    rows = [f"{a!r},{b!r},{a * 1e10!r},{b!r},0.0" for b in v for a in u]
    path.write_text("\n".join([io.EPSILON_HEADER, *rows]) + "\n")
    with pytest.raises(ValueError, match=r"u axis spacing is irregular: max jitter "
                       r"1\.000e-10 exceeds 1\.0e-16"):
        io.read_epsilon_csv(path)


def test_reader_reads_its_own_output_far_from_the_origin(tmp_path):
    # at u = 1e7 neighbouring doubles are 1.9e-9 apart, so the written axis
    # jitters by that much over 21 points; it stays far inside 1e-6 of the step 6e-3
    hs = fixtures.make_fixture("cmc_cylinder", nu=21, nv=9)
    path = tmp_path / "e.csv"
    io.write_epsilon_csv(path, dataclasses.replace(hs, u0=1e7))
    back = io.read_epsilon_csv(path)
    assert back.u0 == 1e7 and (back.nu, back.nv) == (21, 9)
    assert abs(back.du - hs.du) < 1e-6 * hs.du and abs(back.dv - hs.dv) < 1e-15
    assert np.array_equal(back.eps, hs.eps)


def test_reader_refuses_an_axis_of_four_values(tmp_path, capsys):
    u, v = (0.1 * np.arange(4)).tolist(), (0.1 * np.arange(9)).tolist()
    path, out = tmp_path / "e.csv", tmp_path / "out.csv"
    rows = [f"{a!r},{b!r},{a!r},{b!r},0.0" for b in v for a in u]
    path.write_text("\n".join([io.EPSILON_HEADER, *rows]) + "\n")
    with pytest.raises(ValueError) as err:
        io.read_epsilon_csv(path)
    assert str(err.value) == "u axis has only 4 distinct values"
    argv = ["--command", "from-h", "--input", str(path), "--output", str(out)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "input error: u axis has only 4 distinct values\n"
    assert not out.exists()


_DEFECT_MESSAGES = {
    "nan_payload": "non-finite value in column 'x'",
    "nan_u": "non-finite value in column 'u'",
    "missing_cell": "row count 80 does not fill a 9 x 9 grid",
    "no_rows": "CSV has a header but no data rows",
}


@pytest.mark.parametrize("defect", sorted(_DEFECT_MESSAGES))
def test_reader_names_each_defect(tmp_path, defect):
    hs = fixtures.make_fixture("cmc_sphere", nu=9, nv=9)
    path = tmp_path / "e.csv"
    io.write_epsilon_csv(path, hs)
    header, *rows = path.read_text().splitlines()
    cells = rows[40].split(",")
    if defect == "no_rows":
        rows = []
    elif defect == "missing_cell":
        del rows[40]
    else:
        cells[2 if defect == "nan_payload" else 0] = "nan"
        rows[40] = ",".join(cells)
    path.write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises(ValueError) as err:
        io.read_epsilon_csv(path)
    assert str(err.value) == _DEFECT_MESSAGES[defect]


def test_dump_report_canonical():
    # np.float64 subclasses float and serializes as one
    rep = {"b": np.float64(1.5), "a": {"z": 3, "y": [0.25], "x": True}}
    text = io.dump_report(rep)
    assert text == (
        '{\n  "a": {\n    "x": true,\n    "y": [\n      0.25\n    ],\n'
        '    "z": 3\n  },\n  "b": 1.5\n}\n'
    )
    assert io.dump_report(rep) == text
    with pytest.raises(TypeError):
        io.dump_report({"z": np.int64(3)})


@pytest.mark.parametrize(
    "nu, nv, widths", [(4001, 11, [3]), (513, 6, [4, 4]), (7, 5, [3])]
)
def test_write_rows_matches_savetxt(tmp_path, nu, nv, widths):
    # the savetxt call the writer replaces, on the same v-major rows
    lat = sf.lattice(-0.3, 1e-3, 1.0 / 3.0, 0.1, nu, nv)
    rng = np.random.default_rng(nu)
    blocks = [rng.standard_normal((nu, nv, w)) for w in widths]
    blocks[0][0, 0, :3] = [-0.0, 1e-300, 1e17]
    blocks[0][1, 0, :3] = [5e-324, 9.9999999999999991e-05, 1e-4]
    blocks[0][2, 0, 0] = 99999999999999984.0
    blocks[-1][-1, -1, -1] = 1.0 / 3.0
    rows = np.concatenate(
        [np.broadcast_to(lat.u_vals[None, :, None], (nv, nu, 1)),
         np.broadcast_to(lat.v_vals[:, None, None], (nv, nu, 1))]
        + [np.swapaxes(b, 0, 1) for b in blocks], axis=-1,
    )
    header = "u,v," + ",".join(f"c{k}" for k in range(sum(widths)))
    want, got = tmp_path / "savetxt.csv", tmp_path / "rows.csv"
    np.savetxt(
        want, rows.reshape(nu * nv, -1), fmt="%.17g", delimiter=",",
        header=header, comments="",
    )
    io._write_rows(got, header, lat, blocks)
    assert got.read_bytes() == want.read_bytes()


def _formatted(values):
    """The writer's text of each value: every slot opens with its ','."""
    text = io._format_slots(np.asarray(values, dtype=float)).view(np.uint8).ravel()
    return text[text != 0].tobytes().decode().split(",")[1:]


def test_format_slots_match_percent_17g():
    # seeded draws over every path of the formatter, each against `%`
    rng = np.random.default_rng(25)
    decades = 10.0 ** np.arange(-30, 31)
    powers = np.array([float(f"1e{e}") for e in range(-6, 19)])
    j = np.arange(91)
    values = np.concatenate([
        # uniform values in every decade from 1e-30 to 1e30
        (rng.uniform(1.0, 10.0, (len(decades), 300)) * decades[:, None]).ravel(),
        # random finite bit patterns: every exponent, subnormals included
        rng.integers(0, 0x7FF0 << 48, 320_000, dtype=np.uint64).view(np.float64),
        # 200 ulps either side of every power of ten from 1e-6 to 1e18:
        # the decade boundaries, where a carry would have to happen
        (powers.view(np.int64)[:, None] + np.arange(-200, 201)).view(np.float64).ravel(),
        # m * 2**-j, odd m: the values whose 17-digit rounding can tie
        np.ldexp(rng.integers(0, 2**52, (len(j), 400)) * 2 + 1.0, -j[:, None]).ravel(),
        np.ldexp(rng.integers(0, 2**20, (len(j), 100)) * 2 + 1.0, -j[:, None]).ravel(),
        # integers up to 1e17
        rng.integers(0, 10**17, 20_000).astype(np.float64),
        np.arange(1000.0),
        # zeros, subnormals, the largest double and the non-finite values
        [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
         1.7976931348623157e308, np.inf, np.nan, 9.9999999999999991e-05,
         1e-4, 99999999999999984.0, 1e17, 1000000000000001.25],
    ])
    values = np.concatenate([values * rng.choice([-1.0, 1.0], len(values)), -values[-12:]])
    want = ["%.17g" % v for v in values.tolist()]
    got = _formatted(values)
    assert len(got) == len(want)
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert wrong == [], f"{len(wrong)} of {len(want)} differ, first {wrong[:5]}"


def test_reader_leaves_numpy_ma_unimported(tmp_path):
    # np.unique and np.median import numpy.ma on first use, a cost every
    # reading command would pay
    path = tmp_path / "g.csv"
    io.write_immersion_csv(path, fixtures.make_fixture("example2", nu=9, nv=7))
    code = (
        "import sys; from nks3 import io; io.read_immersion_csv(sys.argv[1]); "
        "print('numpy.ma' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"
