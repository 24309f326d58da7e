"""Tour of the homogeneous geometry: frame, metric, structures, curvature."""
from __future__ import annotations

import numpy as np

import nks3
from nks3 import frame
from nks3 import nkspace as nk

rng = np.random.default_rng(7)
base = nk.random_point(rng)
fr = nk.frame(base)

print("frame Gram matrix at a random point (exact values 4/3 and -2/3):")
gram = np.array([[nk.metric(a, b) for b in fr] for a in fr])
with np.printoptions(precision=4, suppress=True):
    print(gram)
print("max deviation from the constant table:", np.abs(gram - frame.GRAM).max())
print()

Z = nk.random_tangent(rng, base)
JZ = nk.apply_J(Z)
PZ = nk.apply_P(Z)
print("J squares to -identity:          ", nk.gnorm(nk.apply_J(JZ) + Z))
print("P squares to +identity:          ", nk.gnorm(nk.apply_P(PZ) - Z))
print("J and P anticommute:             ",
      nk.gnorm(nk.apply_J(PZ) + nk.apply_P(JZ)))
print("g(JZ, JZ) matches g(Z, Z):       ",
      abs(nk.metric(JZ, JZ) - nk.metric(Z, Z)))
print()

W = nk.random_tangent(rng, base)
G = nk.tensor_G(Z, W)
print("the J-derivative tensor is skew: ",
      nk.gnorm(nk.tensor_G(W, Z) + G))
print("and anti-J-linear in its slots:  ",
      nk.gnorm(nk.tensor_G(Z, nk.apply_J(W)) + nk.apply_J(G)))
print()

print("sectional curvatures of frame planes (position free):")
e1, e2, _, f1, f2, _ = np.eye(6)  # frame coefficients of E1, E2, F1, F2
print("  K(E1, E2) =", nk.sectional_curvature(e1, e2), " (exact 3/4)")
print("  K(E1, F1) =", nk.sectional_curvature(e1, f1), " (exact 0)")
print("  K(E1, F2) =", nk.sectional_curvature(e1, f2))
print()

result = nk.verify(samples=200, seed=7)
report, ok = result["residual_max"], result["ok"]
worst = max(report, key=report.get)
print(f"identity suite on 200 random tangent pairs: ok={ok}")
print(f"worst residual {report[worst]:.3e} ({worst})")
print(f"package version {nks3.__version__}")
