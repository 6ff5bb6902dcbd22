"""Numeric compactons by shooting where no closed form exists.

The travelling-wave ODE in V = U**n is integrated from the crest
(V(0) = V0, V'(0) = 0) until the profile reaches zero; the resulting
half-width is cross-checked against the closed form of the first
integral (a complete beta function, ``half_width_quadrature``), and the
cutoff conditions at the edge are verified by one-sided finite
differences.
"""

import numpy as np

from compactons import (
    EquationParams,
    center_amplitude,
    coefficients,
    shoot,
)

for label, params in [
    ("m = 9/4, n = 2, a = b = g = 1",
     EquationParams(m=2.25, n=2.0, a=1.0, b=1.0)),
    ("m = 1/2, n = 9/10, a = g = 1, b = -1",
     EquationParams(m=0.5, n=0.9, a=1.0, b=-1.0)),
]:
    print(label)
    c = coefficients(params, 1.0)
    v0 = center_amplitude(c, params)
    nc = shoot(params, 1.0)
    scale = abs(c.B) * v0 ** (1 + 1 / params.n)
    print(f"  V0 (closed formula)     = {v0:.12g}")
    print(f"  L in closed form (beta) = {nc.L_quadrature:.12g}")
    print(f"  L from shooting         = {nc.L_shoot:.12g}")
    print(f"  |dL|/L                  = "
          f"{abs(nc.L_shoot - nc.L_quadrature) / nc.L_quadrature:.2e}")
    print(f"  first-integral residual = {nc.energy_residual_max / scale:.2e} (scaled)")
    print(f"  cutoff |V|,|V'|,|V''|   = "
          + ", ".join(f"{r:.1e}" for r in nc.cutoff_residuals))
    half = nc.V[nc.grid >= 0]
    print(f"  V monotone decreasing   = {bool(np.all(np.diff(half) <= 0))}")
    print()

print("A request without a compact tail is rejected:")
try:
    shoot(EquationParams(m=2.0, n=0.8, a=1.0, b=1.0), 1.0)
except Exception as exc:
    print(f"  {type(exc).__name__}: {exc}")
