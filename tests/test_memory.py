"""Memory guard: the traced peak of each grid pipeline stays within a fixed
number of full-grid fields, and the identity suite's within a fixed number
of sample batches, and does not grow with the sample count.

tracemalloc sees numpy's array buffers, so the peak above the start of a
stage counts every temporary the kernels hold at once.  The grid unit is
one (nu, nv, 6) float64 field, the size of one frame-coefficient partial.
Each grid bound is the measured peak plus about half a field of headroom; a
kernel that keeps one more full-grid temporary alive fails here.
"""
import tracemalloc

import pytest

from nks3 import fixtures, io
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
    # measured 8.82 fields (12.02 before the in-place kernels)
    assert peak_fields(lambda: sf.analyze(io.read_immersion_csv(path))) <= 9.3


def test_epsilon_from_surface_peak(grid):
    # measured 4.25 fields on top of the resident grid (6.02 before)
    assert peak_fields(lambda: hsys.epsilon_from_surface(grid)) <= 4.75


def test_surface_from_epsilon_then_analyze_peak(grid):
    hs, _ = hsys.epsilon_from_surface(grid)
    # measured 8.15 fields (11.36 before)
    assert peak_fields(lambda: sf.analyze(hsys.surface_from_epsilon(hs)[0])) <= 8.65


def test_read_then_surface_from_epsilon_peak(grid, tmp_path):
    path = tmp_path / "potential.csv"
    io.write_epsilon_csv(path, hsys.epsilon_from_surface(grid)[0])
    # measured 7.24 fields, with the potential and its cached partials and
    # Laplacian released before the scan; 9.16 when they are held through
    # it, and 7.72 before the cache
    peak = peak_fields(lambda: hsys.surface_from_epsilon(io.read_epsilon_csv(path)))
    assert peak <= 7.7


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
