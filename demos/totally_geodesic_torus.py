"""The flat torus with J-invariant tangent planes: curvature, second
fundamental form, and its degenerate potential."""
from __future__ import annotations

import numpy as np

from nks3 import fixtures, hsystem
from nks3 import surface as sf

grid = fixtures.make_fixture("example1")
report = sf.analyze(grid)

print(f"grid {grid.nu} x {grid.nv}, step {grid.du:g}")
print("Gaussian curvature mean:", report["K_mean"], " (flat)")
print("largest curvature wobble:", report["K_max_dev"])
print("second fundamental form norm:", report["h_norm_max"],
      " (totally geodesic)")
print("product structure alignment:", report["classification"])
print()

lam = sf.lambda_field(sf.partials(grid))
value = lam[grid.nu // 2, grid.nv // 2]
print("holomorphic quadratic coefficient at the center:", value)
print("expected constant:", complex(-1.0 / 3.0, 1.0 / np.sqrt(3.0)))
print()

hs, cert = hsystem.epsilon_from_surface(grid)
print("potential integration closure residual:", cert["loop_max"])
svals = np.linalg.svd(hs.eps.reshape(-1, 3), compute_uv=False)
print("singular values of the potential cloud:", svals)
print("the image is a straight line: the surface carries no normal data,")
print("so the potential collapses from a surface to a one-dimensional trace.")
