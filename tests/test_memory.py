"""Memory guard: the traced peak of each grid pipeline stays within a fixed
number of full-grid fields, and the identity suite's within a fixed number
of sample batches, and does not grow with the sample count.

tracemalloc sees numpy's array buffers, so the peak above the start of a
stage counts every temporary the kernels hold at once.  The grid unit is
one (nu, nv, 6) float64 field, the size of one frame-coefficient partial.
Each grid bound is the measured peak plus about half a field of headroom; a
kernel that keeps one more full-grid temporary alive fails here.  A slab of
`surface._POINTS` points is most of a 101^2 grid and all of the 1001x11
strip's integrator, so these bounds guard the kernels' temporaries; the slab
loops themselves are checked bit for bit in test_surface and test_hsystem.
At 201^2 a grid is five halo slabs, and there the bound is in p + q: a pass
holds one slab's temporaries, so its peak no longer grows with the grid.
Potential grids are read over the same halo slabs, so the 201^2 bounds of
`to-h` after its read, `from-h` from its read to its write, and the
immersion writer alone cover every command's grid stages.
"""
import tracemalloc

import pytest

from nks3 import cli, fixtures, io
from nks3 import hsystem as hsys
from nks3 import nkspace as nk
from nks3 import surface as sf

N, H = 101, 0.01


@pytest.fixture(scope="module")
def grid():
    return fixtures.make_fixture("example2", nu=N, nv=N, du=H, dv=H)


def traced_peak(stage):
    """Traced peak of `stage()` above its start, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stage()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def peak_fields(stage):
    """Traced peak of `stage()` above its start, in (N, N, 6) float64 fields."""
    return traced_peak(stage) / (N * N * 6 * 8)


def test_read_then_analyze_peak(grid, tmp_path):
    path = tmp_path / "grid.csv"
    io.write_immersion_csv(path, grid)
    # measured 5.84 fields over halo slabs, with the payload freed before
    # the construction pass (5.98 before the metric's scalar fields were
    # built in place); 7.32 with whole-grid partials cached on the
    # grid, 7.83 with a four-array coefficient record, 8.82 before the
    # second fundamental form was reduced one component at a time, 12.02
    # before the in-place kernels
    assert peak_fields(lambda: sf.analyze(io.read_immersion_csv(path))) <= 6.5


def test_epsilon_from_surface_peak(grid):
    # measured 3.54 fields with the potential read over halo slabs (at
    # 101^2 its 99 rows are one slab); 3.61 with its whole-grid partials
    # cached on it; 3.29 on top of the grid's whole-grid cu, cv, E, F and
    # G, 4.25 when the unrotated pair was held too, 6.02 before that
    assert peak_fields(lambda: hsys.epsilon_from_surface(grid)) <= 4.04


def test_surface_from_epsilon_then_analyze_peak(grid):
    hs, _ = hsys.epsilon_from_surface(grid)
    # measured 5.69 fields over halo slabs, the integrated values freed
    # once the output grid holds normalized copies (5.83 before the
    # metric's scalar fields were built in place, and with the potential's
    # whole-grid partials); 7.04 with whole-grid
    # partials and no coefficient record (7.22 with it, 8.15 before that,
    # 11.36 before the in-place kernels)
    assert peak_fields(lambda: sf.analyze(hsys.surface_from_epsilon(hs)[0])) <= 6.33


def test_read_then_surface_from_epsilon_peak(grid, tmp_path):
    path = tmp_path / "potential.csv"
    io.write_epsilon_csv(path, hsys.epsilon_from_surface(grid)[0])
    # measured 5.41 fields, with the coefficient pairs formed block by
    # block from the potential, which is dropped before the output grid is
    # built; 5.80 with whole stacks of pairs, and the potential and its
    # Laplacian released before they were filled; 7.04 with whole stacks and a whole v-first
    # grid, 7.24 before the slab integrator, 9.16 when the potential's
    # fields are held through the scan, and 7.72 before the cache
    peak = peak_fields(lambda: hsys.surface_from_epsilon(io.read_epsilon_csv(path)))
    assert peak <= 5.91


def test_to_h_pipeline_peak(grid, tmp_path):
    path = tmp_path / "grid.csv"
    io.write_immersion_csv(path, grid)

    def to_h():
        # as `cli.cmd_to_h`: the grid is handed over, and only its summary kept
        grids = [io.read_immersion_csv(path)]
        summary = grids[0].summary
        hs, _ = hsys.epsilon_from_surface(grids.pop())
        assert cli._mean_curvature_stats(hs)["status"] == "ok"
        hsys.metric_factor_check(summary, hs)

    # measured 5.39 fields, the read's own peak, with p and q freed after the
    # integrating pass; 7.21 with whole-grid partials and the grid held to
    # the end (8.09 before that)
    assert peak_fields(to_h) <= 5.89


def test_strip_from_h_then_analyze_peak(tmp_path):
    nu, nv = 1001, 11
    path = tmp_path / "strip.csv"
    hs = fixtures.make_fixture("cmc_cylinder", nu=nu, nv=nv, du=6e-3, dv=6e-3)
    io.write_epsilon_csv(path, hs)
    del hs

    def from_h():
        grid, _ = hsys.surface_from_epsilon(io.read_epsilon_csv(path))
        sf.analyze(grid)

    # in (nu, nv, 6) float64 fields of the strip: measured 5.29 with the
    # potential's pairs formed block by block, 5.81 with whole stacks of
    # pairs; 6.64 with whole-grid partials, with or without the coefficient
    # record (7.22 before the slab kernels)
    assert traced_peak(from_h) / (nu * nv * 6 * 8) <= 5.79


@pytest.fixture(scope="module")
def grid201():
    grid = fixtures.make_fixture("example2", nu=201, nv=201, du=5e-3, dv=5e-3)
    assert len(list(sf.halo_slabs(grid))) == 5
    sf.analyze(grid)  # lazily built numpy state
    return grid


def pq_bytes(grid):
    return grid.p.nbytes + grid.q.nbytes


def test_analyze_peak_is_one_slab(grid201):
    # in p + q of the grid: measured 0.944 over five halo slabs, the K
    # buffer (0.125) included, with `gram_product` and `_normal_part`
    # building their scalar fields in place; the largest stage is then
    # lambda's (0.944), which holds the slab's partials, P phi_u and J phi_u
    # at once, and the rotated pair's is 0.828 now that it rotates views of
    # the raw halves.  It read 0.970 while the pair was built from two
    # sign-flipped copies of the halves, 0.998 with two more scalar fields
    # alive in lambda's stage, 1.44 with the slab's partials kept across the
    # next slab's, and 2.51 with whole-grid partials cached on the grid (at
    # 401^2)
    assert traced_peak(lambda: sf.analyze(grid201)) <= 1.0 * pq_bytes(grid201)


def test_immersion_summary_peak_201(grid201):
    # the construction pass alone, on a fresh grid over the same arrays: in
    # p + q, measured 0.883 with each factor's real parts reduced to their
    # interior maximum as they are formed; 0.911 while both factors folded
    # them into a whole (nu, nv) field
    fresh = sf.ImmersionGrid(**grid201.window(), p=grid201.p, q=grid201.q)
    assert traced_peak(lambda: fresh.summary) <= 0.897 * pq_bytes(grid201)


def test_potential_summary_peak_201(grid201):
    hs, _ = hsys.epsilon_from_surface(grid201)
    fresh = hsys.HSurfaceGrid(**hs.window(), eps=hs.eps)
    # in p + q of the 201^2 grid (the potential is 199^2): measured 0.606
    # with each slab's partials and Laplacian formed as plain arrays and
    # handed to the residual; 0.621 while they were cached on the sub-grid
    assert traced_peak(lambda: fresh.summary) <= 0.614 * pq_bytes(grid201)


def test_make_fixture_peak_201(grid201):
    # in p + q: measured 1.91, example2's p and q written in place and taken
    # over by the grid, which normalizes them in place; 2.41 with the
    # closed form concatenated from temporaries and normalized into copies
    peak = traced_peak(
        lambda: fixtures.make_fixture("example2", nu=201, nv=201, du=5e-3, dv=5e-3))
    assert peak <= 2.29 * pq_bytes(grid201)


def test_surface_from_epsilon_peak_201(grid201):
    hs, _ = hsys.epsilon_from_surface(grid201)
    # in p + q of the 201^2 grid: measured 1.87, the output grid taking over
    # the u-first values; 2.22 while it normalized them into copies.  The
    # headroom is a third of a field, so that the copies fail here
    peak = traced_peak(lambda: hsys.surface_from_epsilon(hs))
    assert peak <= 2.12 * pq_bytes(grid201)


def test_epsilon_from_surface_peak_201(grid201):
    # in p + q: measured 1.21 once p's partials stopped filling a discarded
    # (nu, nv) field of real parts per slab; 1.24 with it, the potential
    # checked over its halo slabs; 2.67 in its whole-grid partials,
    # Laplacian and equation residual
    peak = traced_peak(lambda: hsys.epsilon_from_surface(grid201))
    assert peak <= 1.61 * pq_bytes(grid201)


def test_to_h_peak_201(grid201, tmp_path):
    path = tmp_path / "grid.csv"
    io.write_immersion_csv(path, grid201)
    # after the read, as `cli.cmd_to_h`: the grid handed over, its summary kept
    grids = [io.read_immersion_csv(path)]
    summary = grids[0].summary

    def to_h():
        hs, _ = hsys.epsilon_from_surface(grids.pop())
        assert cli._mean_curvature_stats(hs)["status"] == "ok"
        hsys.metric_factor_check(summary, hs)
        io.write_epsilon_csv(tmp_path / "potential.csv", hs)

    # in p + q: measured 1.40, with no whole-grid derivative of the
    # potential; 2.67 when the potential cached its partials and Laplacian
    assert traced_peak(to_h) <= 1.77 * pq_bytes(grid201)


def test_from_h_peak_201(grid201, tmp_path):
    path = tmp_path / "potential.csv"
    io.write_epsilon_csv(path, hsys.epsilon_from_surface(grid201)[0])

    def from_h():
        grid, _ = hsys.surface_from_epsilon(io.read_epsilon_csv(path))
        sf.analyze(grid)
        io.write_immersion_csv(tmp_path / "surface.csv", grid)

    # in p + q of the 201^2 grid (the output grid is 197^2): measured 2.33
    # with the pairs formed block by block and 1024-point chunks; 3.20 with
    # whole stacks of pairs and 2048-point chunks
    assert traced_peak(from_h) <= 2.71 * pq_bytes(grid201)


def test_write_immersion_csv_peak_201(grid201, tmp_path):
    # in p + q: measured 1.06 (2.75 MB) at io._CHUNK_VALUES = 10240 values,
    # 1024 points of 10 columns; 2.11 (5.47 MB) at 2048 points
    peak = traced_peak(lambda: io.write_immersion_csv(tmp_path / "grid.csv", grid201))
    assert peak <= 1.44 * pq_bytes(grid201)


def test_write_immersion_csv_peak(grid, tmp_path):
    # the writer formats io._CHUNK_VALUES = 10240 values at a time, 1024
    # points of an immersion grid, so its peak is that of one chunk and not
    # of the grid: measured 2.74 MB on the 10201 points (5.46 MB at 2048
    # points a chunk; the `%` writer held 0.08 MB); a writer formatting the
    # whole grid at once would need about ten times that
    peak = traced_peak(lambda: io.write_immersion_csv(tmp_path / "grid.csv", grid))
    assert peak <= 2.98e6


def test_write_epsilon_csv_strip_peak(tmp_path):
    # chunks count values, not grid lines: measured 2.36 MB on a 1001x11
    # strip, 2048 points of 5 columns a chunk (the `%` writer held 0.23 MB)
    hs = fixtures.make_fixture("cmc_cylinder", nu=1001, nv=11, du=6e-3, dv=6e-3)
    peak = traced_peak(lambda: io.write_epsilon_csv(tmp_path / "strip.csv", hs))
    assert peak <= 2.63e6


def test_identity_report_peak():
    samples = 10000
    nk.identity_report(samples=10, seed=1)  # lazily built numpy state
    peak = traced_peak(lambda: nk.identity_report(samples=samples, seed=1))
    # in (samples, 4) float64 batches: measured 9.64 with each block drawing
    # only its own rows; 15.97 with every sample drawn before the first
    # block, and one block of all samples read 36.8
    assert peak / (samples * 4 * 8) <= 10.1


def test_identity_report_peak_does_not_grow_with_samples():
    # every block draws its own rows and the residuals are merged as the
    # blocks run, so doubling the samples measured about 10 KB more; drawing
    # every sample first added the 32 drawn floats per sample (5.12 MB)
    nk.identity_report(samples=10, seed=1)  # lazily built numpy state
    small, large = (
        traced_peak(lambda n=n: nk.identity_report(samples=n, seed=1))
        for n in (20000, 40000)
    )
    assert large - small <= 40_000
