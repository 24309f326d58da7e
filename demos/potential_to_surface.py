"""From constant-mean-curvature potentials back to adapted surfaces, and a
round trip that lands where it started."""
from __future__ import annotations

import numpy as np

from nks3 import fixtures, hsystem
from nks3 import surface as sf

for name in ("cmc_sphere", "cmc_cylinder"):
    hs = fixtures.make_fixture(name)
    grid, cert = hsystem.surface_from_epsilon(hs)
    report = sf.analyze(grid)
    print(f"{name}: potential {hs.nu} x {hs.nv} -> surface "
          f"{grid.nu} x {grid.nv}")
    print("  integration compatibility residual:", cert["compat_max"])
    print("  adaptedness defect of the output:", report["almost_complex_max"])
    print("  Gaussian curvature mean:", report["K_mean"])
    print("  second fundamental form norm:", report["h_norm_max"])
    print("  classification:", report["classification"])
    print()

grid = fixtures.make_fixture("example2")
hs, _ = hsystem.epsilon_from_surface(grid)
back, _ = hsystem.surface_from_epsilon(hs)
hs_back, _ = hsystem.epsilon_from_surface(back)


def gram(h):
    gu, gv = h.partials()
    return np.stack(
        [np.sum(gu * gu, -1), np.sum(gu * gv, -1), np.sum(gv * gv, -1)], -1
    )


sa, sb = hs.overlap(hs_back)
dev = np.abs(sf.interior(gram(hs)[sa] - gram(hs_back)[sb])).max()
print("round trip surface -> potential -> surface -> potential:")
print("  potential gram agreement:", dev, " (second order in the step)")
