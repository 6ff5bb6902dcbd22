"""Shared fixtures: admissible parameter draws and profile helpers."""

import math

import numpy as np
from scipy.integrate import solve_ivp, tanhsinh

from compactons import catalog
from compactons.catalog import FamilyId
from compactons.params import EquationParams
from compactons.shooting import center_amplitude, coefficients, inverse_beta_profile

# Three admissible parameter draws per family.  The free power is n for
# every family except COS2 (parameterized by m with n = 1); the sign of
# b follows each family's sign condition with a = g = 1.
DRAWS: dict[FamilyId, list[dict]] = {
    FamilyId.ZSQ1: [dict(n=2.0), dict(n=1.5), dict(n=3.0)],
    FamilyId.ZSQ2: [dict(n=1.25, b=-1), dict(n=1.5, b=-1), dict(n=1.75, b=-1)],
    FamilyId.COS1: [dict(n=2.0), dict(n=1.5), dict(n=2.5)],
    FamilyId.COS2: [dict(m=0.25, b=-1), dict(m=0.5, b=-1), dict(m=0.75, b=-1)],
    FamilyId.CN1: [dict(n=0.6, b=-1), dict(n=0.75, b=-1), dict(n=0.9, b=-1)],
    FamilyId.CN2: [dict(n=2.0), dict(n=1.5), dict(n=2.5)],
    FamilyId.SN1: [dict(n=0.6, b=-1), dict(n=0.75, b=-1), dict(n=0.9, b=-1)],
    FamilyId.SN2: [dict(n=2.0), dict(n=1.5), dict(n=2.5)],
    FamilyId.RATCN1: [dict(n=2.0), dict(n=1.5), dict(n=2.5)],
    FamilyId.RATCN2: [dict(n=2.0), dict(n=1.5), dict(n=2.5)],
    FamilyId.RATCN3: [dict(n=0.75, b=-1), dict(n=0.8, b=-1), dict(n=0.9, b=-1)],
    FamilyId.RATCN4: [dict(n=0.5, b=-1), dict(n=0.6, b=-1), dict(n=0.75, b=-1)],
    FamilyId.RATCN5: [dict(n=0.5, b=-1), dict(n=0.6, b=-1), dict(n=0.75, b=-1)],
    FamilyId.RATCN6: [dict(n=2.0), dict(n=1.5), dict(n=2.5)],
}


# Numeric (inverse-beta) points, at g = 1: fig. 5 of the paper, left and
# right, and one more point on each side of m = 1.
NUMERIC_POINTS = [
    EquationParams(m=2.25, n=2.0, a=1.0, b=1.0),
    EquationParams(m=0.5, n=0.9, a=1.0, b=-1.0),
    EquationParams(m=4.0, n=2.5, a=1.0, b=1.0),
    EquationParams(m=0.3, n=0.7, a=1.0, b=-1.0),
]


def profile_at(case):
    """The catalog profile at a family's first draw, or the numeric profile
    at a point of NUMERIC_POINTS."""
    if isinstance(case, FamilyId):
        return catalog.construct(case, **DRAWS[case][0])
    return inverse_beta_profile(case, 1.0)


def case_id(case):
    if isinstance(case, FamilyId):
        return case.value
    return f"numeric-m{case.m:g}-n{case.n:g}"


def strong_residual_scaled(profile, points=None, h=1e-5):
    """Max pointwise residual of -gU + aU**m + b(U**n)'' on interior
    points, scaled by a*U(0)**m.

    The second derivative is a 5-point central difference evaluated in
    extended precision, so the step can be small enough to expose any
    real defect without drowning it in rounding noise.
    """
    pr = profile.params
    if points is None:
        points = np.linspace(-0.85, 0.85, 41) * profile.L
    xs = np.asarray(points, dtype=np.longdouble)
    hh = np.longdouble(h) * max(1.0, profile.L)

    def W(x):
        return catalog.evaluate(profile, x) ** np.longdouble(pr.n)

    w2 = (-W(xs + 2 * hh) + 16 * W(xs + hh) - 30 * W(xs)
          + 16 * W(xs - hh) - W(xs - 2 * hh)) / (12 * hh * hh)
    U = catalog.evaluate(profile, xs)
    res = (-np.longdouble(profile.g) * U + np.longdouble(pr.a) * U ** np.longdouble(pr.m)
           + np.longdouble(pr.b) * w2)
    scale = abs(pr.a) * float(catalog.evaluate(profile, 0.0)) ** pr.m
    return float(np.max(np.abs(res))) / scale


def oscillator_energy_residual(params, g, factor):
    """Max first-integral residual |V'**2 - B V**(1+1/n) + A V**(1+m/n)|,
    scaled by |B|*V0**(1+1/n), along V'' = factor * ((1+1/n) B V**(1/n)
    - (1+m/n) A V**(m/n)) from the crest down to V = V0/1000.

    Differentiating the first integral gives factor 1/2; any other factor
    integrates an oscillator that does not conserve it.
    """
    m, n = params.m, params.n
    c = coefficients(params, g)
    V0 = center_amplitude(c, params)
    L = tanhsinh_half_width(params, g)

    def rhs(_, y):
        v = max(y[0], 0.0)
        return [y[1], factor * ((1 + 1 / n) * c.B * v ** (1 / n)
                                - (1 + m / n) * c.A * v ** (m / n))]

    def floor(_, y):
        return y[0] - 1e-3 * V0
    floor.terminal = True

    sol = solve_ivp(rhs, (0.0, 10.0 * L), [V0, 0.0], method="DOP853",
                    rtol=1e-10, atol=1e-12 * V0, events=floor, dense_output=True)
    V, W = sol.sol(np.linspace(0.0, sol.t[-1], 512))
    V = np.clip(V, 0.0, None)
    energy = np.abs(W ** 2 - c.B * V ** (1 + 1 / n) + c.A * V ** (1 + m / n))
    return float(energy.max()) / (abs(c.B) * V0 ** (1 + 1 / n))


def tanhsinh_half_width(params, g):
    """Half-width L = integral_0^V0 dV / |V'| by tanh-sinh quadrature: the
    route independent of the closed form ``shooting.half_width_quadrature``.

    Substituting V = V0*t gives
    L = V0**((n-1)/(2n)) / sqrt(|B|) * integral_0^1 dt / sqrt(|t**e1 - t**e2|)
    with e1 = 1 + 1/n, e2 = 1 + m/n.  With elo/ehi the smaller/larger
    exponent the integrand is t**(-elo/2) / sqrt(1 - t**(ehi-elo));
    t = s**k with k = 2/(2 - elo) absorbs the left singularity, leaving
    k * (1 - s**(k*(ehi-elo)))**(-1/2), and u = 1 - s keeps the remaining
    inverse-sqrt singularity at u = 0, where quadrature nodes are exactly
    representable and 1 - s**q = -expm1(q*log1p(-u)) stays accurate.
    """
    m, n = params.m, params.n
    c = coefficients(params, g)
    V0 = center_amplitude(c, params)
    e1, e2 = 1.0 + 1.0 / n, 1.0 + m / n
    elo, ehi = min(e1, e2), max(e1, e2)
    k = 2.0 / (2.0 - elo)
    q = k * (ehi - elo)

    def f(u):
        return k / np.sqrt(-np.expm1(q * np.log1p(-np.asarray(u, dtype=float))))

    res = tanhsinh(f, 0.0, 1.0, rtol=1e-12)
    assert res.success, res.status
    return V0 ** ((n - 1.0) / (2.0 * n)) / math.sqrt(abs(c.B)) * float(res.integral)
