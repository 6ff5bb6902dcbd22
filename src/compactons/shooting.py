"""Symmetric compactons of the reduced travelling-wave equation.

The travelling-wave ODE for W = U**n reduces, after one integration
with zero constants (forced by compact support), to the first integral

    V'**2 = B * V**(1 + 1/n) - A * V**(1 + m/n),
    A = 2na / ((m + n) b),    B = 2ng / ((n + 1) b),

whose symmetric single-hump solution starts at the center amplitude
V0 = (B/A)**(n/(m-1)) with V'(0) = 0 and falls to zero at the
half-width L.  Two independent routes to the same object are computed:

- the closed form: with v = V/V0, t = v**d, d = |m - 1|/n and
  alpha = (n - min(1, m)) / (2|m - 1|), the half-width integral is the
  complete beta function and the profile its inverse,

      L = B(alpha, 1/2) / (d kappa),   kappa**2 = |B| V0**(1/n - 1),
      U(xi) = V0**(1/n) * I^-1((L - |xi|)/L; alpha, 1/2) ** (1/|m - 1|),

  which ``inverse_beta_profile`` returns as a callable, and
- direct integration of the second-order oscillator
  V'' = (1/2) ((1 + 1/n) B V**(1/n) - (1 + m/n) A V**(m/n))
  with event detection at a small cutoff amplitude and an asymptotic
  continuation through the non-Lipschitz endpoint (``shoot``).

The 1/2 factor in the oscillator is what differentiating the first
integral gives.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .params import EquationParams, InvalidParameters, ProcedureRejection

__all__ = [
    "ReducedCoefficients",
    "NumericCompacton",
    "ShootTolerances",
    "coefficients",
    "center_amplitude",
    "concavity_check",
    "half_width_quadrature",
    "inverse_beta_profile",
    "shoot",
]


def __getattr__(name):
    # lazy, so that only ``shoot`` pays for importing scipy.integrate; the names
    # stay module attributes because perfbench/spans.py patches them by name
    if name in ("solve_ivp", "tanhsinh"):
        import scipy.integrate
        globals()[name] = value = getattr(scipy.integrate, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class ReducedCoefficients:
    """Coefficients of the first integral V'**2 = B V**(1+1/n) - A V**(1+m/n)."""

    A: float
    B: float


@dataclass(frozen=True)
class ShootTolerances:
    rtol: float = 1e-10
    atol_scale: float = 1e-12   # absolute tolerance is atol_scale * V0
    cut_scale: float = 1e-3     # switch to the desingularized tail here
    grid_points: int = 801


@dataclass(frozen=True)
class NumericCompacton:
    grid: np.ndarray
    V: np.ndarray
    U: np.ndarray
    V0: float
    L_quadrature: float
    L_shoot: float
    energy_residual_max: float
    cutoff_residuals: tuple[float, float, float]
    params: EquationParams
    g: float

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["xi", "V", "U"])
        for x, v, u in zip(self.grid, self.V, self.U):
            w.writerow([repr(float(x)), repr(float(v)), repr(float(u))])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({
            "metadata": {
                "m": self.params.m, "n": self.params.n,
                "a": self.params.a, "b": self.params.b,
                "kind": self.params.kind, "sigma": self.params.sigma,
                "g": self.g, "V0": self.V0,
                "L_quadrature": self.L_quadrature, "L_shoot": self.L_shoot,
                "energy_residual_max": self.energy_residual_max,
                "cutoff_residuals": list(self.cutoff_residuals),
            },
            "xi": [float(v) for v in self.grid],
            "V": [float(v) for v in self.V],
            "U": [float(v) for v in self.U],
        }, indent=2)


def coefficients(params: EquationParams, g: float) -> ReducedCoefficients:
    if g == 0:
        raise ProcedureRejection(
            "g = 0: the symmetric procedure needs B != 0 for the center amplitude"
        )
    m, n, a, b = params.m, params.n, params.a, params.b
    return ReducedCoefficients(A=2 * n * a / ((m + n) * b),
                               B=2 * n * g / ((n + 1) * b))


def center_amplitude(coeffs: ReducedCoefficients, params: EquationParams) -> float:
    """V0 = (B/A)**(n/(m-1)), the positive amplitude where V' = 0."""
    ratio = coeffs.B / coeffs.A
    if ratio <= 0:
        raise ProcedureRejection(
            f"B/A = {ratio:.6g} <= 0: no positive symmetric compacton "
            "at these signs"
        )
    try:
        V0 = ratio ** (params.n / (params.m - 1))
    except OverflowError:
        V0 = math.inf
    if V0 == 0.0 or V0 == math.inf:
        raise ProcedureRejection(
            f"center amplitude V0 = (B/A)**(n/(m-1)) "
            f"{'underflows' if V0 == 0.0 else 'overflows'} the float range "
            f"at B/A = {ratio:.6g}, m - 1 = {params.m - 1:.6g}"
        )
    return V0


def concavity_check(params: EquationParams, g: float) -> bool:
    """True iff the profile curves downward at its crest.

    At the center, V'' has the sign of A*(1-m); the compacton hump
    needs it negative.  Equivalent to the sign test on
    (1-m)/b * (g**(m-n) * a**(n-1))**(1/(m-1)) when those fractional
    powers are defined.
    """
    coeffs = coefficients(params, g)
    center_amplitude(coeffs, params)  # validates B/A > 0
    return coeffs.A * (1.0 - params.m) < 0


def half_width_quadrature(coeffs: ReducedCoefficients, params: EquationParams,
                          V0: float) -> float:
    """Half-width L as the integral of dV / |V'| from 0 to V0, in closed form.

    Substituting V = V0*t reduces the integral to
    V0**((n-1)/(2n)) / sqrt(|B|) * integral_0^1 dt / sqrt(|t**(1+1/n) - t**(1+m/n)|),
    and t -> t**(1/d) turns the last integral into B(alpha, 1/2) / d
    (module docstring).  It has integrable algebraic singularities at both
    ends whenever min(1, m) < n; a divergent endpoint means the profile has
    a non-compact tail and the request is rejected.
    """
    from scipy.special import betaln

    m, n = params.m, params.n
    if V0 <= 0:
        raise InvalidParameters(f"V0 must be positive, got {V0}")
    if min(1.0, m) >= n:
        raise ProcedureRejection(
            f"half-width integral diverges at V = 0 for min(1, m) = "
            f"{min(1.0, m):.6g} >= n = {n:.6g}: tail is not compact"
        )
    return (V0 ** ((n - 1.0) / (2.0 * n)) / math.sqrt(abs(coeffs.B))
            * math.exp(betaln(_alpha(params), 0.5)) * n / abs(m - 1.0))


def _alpha(params: EquationParams) -> float:
    """alpha = (n - min(1, m)) / (2|m - 1|), the beta parameter of the hump."""
    return (params.n - min(1.0, params.m)) / (2.0 * abs(params.m - 1.0))


def _crest(params: EquationParams, g: float) -> tuple[ReducedCoefficients, float]:
    """Coefficients and center amplitude, once the crest curves downward."""
    coeffs = coefficients(params, g)
    V0 = center_amplitude(coeffs, params)
    if not concavity_check(params, g):
        raise ProcedureRejection(
            "concavity check failed: the crest curves upward, no symmetric "
            "single-hump compacton at these parameters"
        )
    return coeffs, V0


def inverse_beta_profile(params: EquationParams, g: float):
    """The compacton in closed form: (U as a callable, L).

    U(xi) = V0**(1/n) * I^-1(y; alpha, 1/2) ** (1/|m - 1|) with
    y = (L - |xi|)/L, formed from the difference, and U = 0 for
    |xi| >= L.  Where the true t = I^-1(y) underflows, ``betaincinv``
    stops at the smallest normal float instead of decaying, so below
    t = 1e-300 the leading term of I(t) = t**alpha / (alpha B(alpha, 1/2))
    gives log t = (log alpha + log B(alpha, 1/2) + log y) / alpha.
    """
    from scipy.special import betaincinv, betaln

    coeffs, V0 = _crest(params, g)
    L = half_width_quadrature(coeffs, params, V0)
    alpha = _alpha(params)
    log_front = math.log(alpha) + betaln(alpha, 0.5)
    U0, power = V0 ** (1.0 / params.n), 1.0 / abs(params.m - 1.0)

    def u_eval(xi):
        y = (L - np.abs(np.asarray(xi, dtype=float))) / L
        u = np.zeros_like(y)
        inside = y > 0
        t = betaincinv(alpha, 0.5, y[inside])
        tiny = t < 1e-300
        u_in = U0 * t ** power
        u_in[tiny] = U0 * np.exp((log_front + np.log(y[inside][tiny])) / alpha * power)
        u[inside] = u_in
        return u

    return u_eval, L


def _tail_exponents(coeffs: ReducedCoefficients, params: EquationParams):
    """Dominant-power data near V = 0: V' ~ -sqrt(D) * V**(r/2).

    Also returns the subdominant coefficient S and exponent gamma of the
    desingularized endpoint equation: with z = V**((2-r)/2),

        z' = -((2-r)/2) * sqrt(D + S * z**gamma),

    which is regular at z = 0 and crosses it transversally.
    """
    m, n = params.m, params.n
    if m > 1:
        r = 1.0 + 1.0 / n
        D, S = coeffs.B, -coeffs.A
        gamma = 2.0 * (m - 1.0) / (n - 1.0)
    else:
        r = 1.0 + m / n
        D, S = -coeffs.A, coeffs.B
        gamma = 2.0 * (1.0 - m) / (n - m)
    if D <= 0:
        raise ProcedureRejection(
            "dominant endpoint coefficient is not positive; the profile "
            "cannot reach zero monotonically"
        )
    return r, D, S, gamma


def _signed_pow(v: float, q: float) -> float:
    return math.copysign(abs(v) ** q, v)


def shoot(params: EquationParams, g: float,
          tolerances: ShootTolerances | None = None) -> NumericCompacton:
    """Integrate the oscillator from the crest until the profile dies.

    The integration stops at a small cutoff amplitude (the vector field
    is non-Lipschitz at V = 0); the remaining sliver of half-width is
    added by quadrature and the profile continued with its known
    endpoint power law, so the reported L_shoot is independent of the
    cutoff choice to well below the verification tolerances.
    """
    tol = tolerances or ShootTolerances()
    solve_ivp = globals().get("solve_ivp") or __getattr__("solve_ivp")
    m, n = params.m, params.n
    coeffs, V0 = _crest(params, g)
    L_quad = half_width_quadrature(coeffs, params, V0)
    r, D, S, gamma = _tail_exponents(coeffs, params)

    c1 = 0.5 * (1.0 + 1.0 / n) * coeffs.B
    c2 = 0.5 * (1.0 + m / n) * coeffs.A

    def rhs(_, y):
        v = y[0]
        return [y[1], c1 * _signed_pow(v, 1.0 / n) - c2 * _signed_pow(v, m / n)]

    v_cut = tol.cut_scale * V0

    def hit_cut(_, y):
        return y[0] - v_cut
    hit_cut.terminal = True
    hit_cut.direction = -1

    sol = solve_ivp(rhs, (0.0, 10.0 * L_quad), [V0, 0.0], method="DOP853",
                    rtol=tol.rtol, atol=tol.atol_scale * V0,
                    events=hit_cut, dense_output=True)
    if sol.status != 1 or not len(sol.t_events[0]):
        raise ProcedureRejection(
            "profile failed to reach the cutoff amplitude within ten "
            "quadrature half-widths: not a compacton at these parameters"
        )
    xi_cut = float(sol.t_events[0][0])

    # continue to V = 0 in the desingularized variable z = V**((2-r)/2),
    # whose equation is regular and hits zero with nonzero slope, making
    # the endpoint an ordinary, sharply-detected event
    half_exp = 0.5 * (2.0 - r)
    z_cut = v_cut ** half_exp

    def z_rhs(_, y):
        f = D + S * abs(y[0]) ** gamma
        return [-half_exp * math.sqrt(max(f, 0.0))]

    def hit_zero(_, y):
        return y[0]
    hit_zero.terminal = True
    hit_zero.direction = -1

    tail = solve_ivp(z_rhs, (xi_cut, xi_cut + 10.0 * L_quad), [z_cut],
                     method="DOP853", rtol=tol.rtol,
                     atol=tol.atol_scale * z_cut, events=hit_zero,
                     dense_output=True)
    if tail.status != 1 or not len(tail.t_events[0]):
        raise ProcedureRejection("endpoint not reached below the cutoff amplitude")
    L = float(tail.t_events[0][0])

    half = np.linspace(0.0, L, tol.grid_points)
    V_half = np.empty_like(half)
    inside = half <= xi_cut
    V_half[inside] = sol.sol(half[inside])[0]
    out = ~inside
    z_vals = np.clip(tail.sol(half[out])[0], 0.0, None)
    V_half[out] = z_vals ** (2.0 / (2.0 - r))
    V_half[-1] = 0.0
    np.clip(V_half, 0.0, None, out=V_half)

    # first-integral conservation along the integrated part
    dense = np.linspace(0.0, xi_cut, 512)
    Vd, Wd = sol.sol(dense)
    Vd = np.clip(Vd, 0.0, None)
    energy = np.abs(Wd ** 2 - coeffs.B * Vd ** (1 + 1 / n)
                    + coeffs.A * Vd ** (1 + m / n))
    energy_max = float(energy.max())

    def v_near_end(x):
        z = np.clip(tail.sol(x)[0], 0.0, None)
        return z ** (2.0 / (2.0 - r))

    cutoff = _cutoff_residuals(v_near_end, V0, L,
                               max(1e-5 * L, (L - xi_cut) * 1e-4))

    grid = np.concatenate([-half[:0:-1], half])
    V_full = np.concatenate([V_half[:0:-1], V_half])
    U_full = V_full ** (1.0 / n)
    return NumericCompacton(grid=grid, V=V_full, U=U_full, V0=V0,
                            L_quadrature=L_quad, L_shoot=L,
                            energy_residual_max=energy_max,
                            cutoff_residuals=cutoff, params=params, g=g)


def _cutoff_residuals(v_of_xi, V0: float, L: float,
                      h: float) -> tuple[float, float, float]:
    """(|V|, |V'|, |V''|) at the endpoint from one-sided differences on
    [L - 4h, L], scaled by V0, V0/L and V0/L**2 respectively."""
    f = np.array([float(v_of_xi(L - j * h)) for j in range(5)])
    d1 = (25 * f[0] - 48 * f[1] + 36 * f[2] - 16 * f[3] + 3 * f[4]) / (12 * h)
    d2 = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h ** 2
    return (abs(f[0]) / V0,
            abs(float(d1)) / (V0 / L),
            abs(float(d2)) / (V0 / L ** 2))
