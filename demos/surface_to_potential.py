"""From an adapted surface to its constant-mean-curvature potential in R^3."""
from __future__ import annotations

import pathlib

import numpy as np

from nks3 import fixtures, hsystem, io
from nks3 import surface as sf

grid = fixtures.make_fixture("example2")
print(f"input surface grid {grid.nu} x {grid.nv}, step {grid.du:g}")
report = sf.analyze(grid)
print("Gaussian curvature mean:", report["K_mean"], " (exact 2/3)")
print("classification:", report["classification"])
print()

hs, cert = hsystem.epsilon_from_surface(grid)
print("potential grid:", hs.nu, "x", hs.nv)
print("path-ordering closure residual:", cert["loop_max"])
print("second-order equation residual:", cert["h_equation_max"])
print()

center, radius, dev = hsystem.sphere_fit(hs.eps)
print("fitted sphere radius:", radius, " (exact sqrt(3)/2 =",
      np.sqrt(3.0) / 2.0, ")")
print("largest deviation from the fitted sphere:", dev)
H = hsystem.mean_curvature(hs)
print("mean curvature range:", H.min(), "to", H.max(),
      " (exact -2/sqrt(3))")
mf = hsystem.metric_factor_check(grid.summary, hs)
print("surface metric over potential metric:", mf["ratio_mean"],
      " (exact 2)")
print()

out = pathlib.Path("demo_out")
out.mkdir(exist_ok=True)
io.write_immersion_csv(out / "round_sphere_surface.csv", grid)
io.write_epsilon_csv(out / "round_sphere_potential.csv", hs)
print("wrote", out / "round_sphere_surface.csv")
print("wrote", out / "round_sphere_potential.csv")
