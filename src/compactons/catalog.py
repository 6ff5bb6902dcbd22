"""Catalog of the fourteen explicit symmetric compacton families.

Each family is a closed-form compactly supported travelling-wave profile
U(xi) of the K(m,n) or KP(m,n) equation, of the shape

    U(xi) = alpha * inner(beta * xi) ** exponent   for |xi| < L,
    U(xi) = 0                                      for |xi| >= L,

where ``inner`` is a polynomial, cosine, Jacobi cn/sn, or a rational
function of cn.  Every family carries a fixed relation between the
nonlinearity power m and the dispersion power n, a sign pattern on
(a, b, g) under which all fractional powers have positive bases, and an
admissible range of the free power outside which no weak compacton of
that shape exists.

The half-width L is the inner expression's first zero in closed form:
each family's inner function first vanishes at a known s* (pi/2, K, 2K,
2K/3 = cn^-1(2 - sqrt(3)), or 1 for the quadratic families) of its scaled
argument s = beta*xi (sqrt(|beta|)*xi for the quadratics), so L is s*
divided by that scale.  ``first_zero`` returns this L; the name stays
because the benchmark's span tracer (``perfbench/spans.py``) patches it.
The catalog's printed formulas are kept in ``printed_half_width`` as
cross-checks.  For the COS2 family the two deliberately disagree: the
catalog formula for its half-width is inconsistent with the cosine
argument scale by a factor |g|/|b|, and s*/beta is the zero that
actually annihilates the profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from .elliptic import Modulus, complete_K, jacobi
from .params import EquationParams, InvalidParameters, ProcedureRejection
from .shooting import _write_columns, center_amplitude, coefficients

__all__ = [
    "FamilyId",
    "ClosedFormProfile",
    "SampledProfile",
    "construct",
    "evaluate",
    "first_zero",
    "sample",
    "printed_half_width",
    "family_m",
    "admissible_interval",
    "sign_condition",
]

SQRT3 = math.sqrt(3.0)
#: modulus of the rational-cn families built on (1 + cn)/(2 + sqrt(3) - cn)
MOD_LOW = Modulus.real(math.sqrt(2.0) * (SQRT3 - 1.0) / 4.0)
#: modulus of the rational-cn families built on (cn + sqrt(3) - 2)/(cn + 1)
MOD_HIGH = Modulus.real(math.sqrt(2.0) * (SQRT3 + 1.0) / 4.0)
MOD_HALF = Modulus.real(1.0 / math.sqrt(2.0))
MOD_IMAG = Modulus.imaginary(1.0)
#: denominator shift of the low-modulus rational-cn form
DELTA = 2.0 + SQRT3


class FamilyId(Enum):
    ZSQ1 = "zsq1"
    ZSQ2 = "zsq2"
    COS1 = "cos1"
    COS2 = "cos2"
    CN1 = "cn1"
    CN2 = "cn2"
    SN1 = "sn1"
    SN2 = "sn2"
    RATCN1 = "ratcn1"
    RATCN2 = "ratcn2"
    RATCN3 = "ratcn3"
    RATCN4 = "ratcn4"
    RATCN5 = "ratcn5"
    RATCN6 = "ratcn6"


# sign patterns: "same" means sgn(g) = sgn(a) = sgn(b),
# "b_flip" means sgn(g) = sgn(a) = -sgn(b)
_SAME = "sgn(g) = sgn(a) = sgn(b)"
_BFLIP = "sgn(g) = sgn(a) = -sgn(b)"


@dataclass(frozen=True)
class _Family:
    """A family's algebra in its free power x (n; m for COS2, where n = 1):
    m(x) = mc*x + m0 and p(x) = P/(dc*x + d0), dc*x + d0 > 0 on the domain."""

    var: str
    domain: tuple[Fraction, Fraction | None]    # open admissible interval of x
    signs: str
    m: tuple[Fraction | int, Fraction | int]    # (mc, m0)
    p: tuple[int, int, int]                     # (P, dc, d0)
    case6: bool = False               # endpoint amplitude forced by weak-KP cases 5/6
    published_weak_KP: bool = False   # published weak-KP range: the whole domain
    # the inner fraction touches zero without a sign change (a double
    # zero), so U ~ (L - |xi|)**(2*exponent): p = 2*exponent
    double_zero: bool = False

    def m_of(self, x):
        return self.m[0] * x + self.m[1]

    def p_of(self, x):
        return self.p[0] / (self.p[1] * x + self.p[2])


_F = Fraction
_FAMILIES: dict[FamilyId, _Family] = {
    FamilyId.ZSQ1: _Family("n", (_F(1), None), _SAME, (_F(1, 2), _F(1, 2)), (2, 1, -1)),
    FamilyId.ZSQ2: _Family("n", (_F(1), _F(2)), _BFLIP, (-1, 2), (1, 1, -1), case6=True),
    FamilyId.COS1: _Family("n", (_F(1), None), _SAME, (1, 0), (2, 1, -1)),
    FamilyId.COS2: _Family("m", (_F(0), _F(1)), _BFLIP, (1, 0), (2, -1, 1), case6=True),
    FamilyId.CN1: _Family("n", (_F(1, 2), _F(1)), _BFLIP, (2, -1), (2, -1, 1), case6=True),
    FamilyId.CN2: _Family("n", (_F(1), None), _SAME, (2, -1), (2, 1, -1)),
    FamilyId.SN1: _Family("n", (_F(1, 2), _F(1)), _BFLIP, (2, -1), (2, -1, 1), case6=True),
    FamilyId.SN2: _Family("n", (_F(1), None), _SAME, (2, -1), (2, 1, -1)),
    FamilyId.RATCN1: _Family("n", (_F(1), None), _SAME, (3, -2), (2, 1, -1),
                             published_weak_KP=True, double_zero=True),
    FamilyId.RATCN2: _Family("n", (_F(1), None), _SAME, (3, -2), (2, 1, -1),
                             published_weak_KP=True, double_zero=True),
    FamilyId.RATCN3: _Family("n", (_F(2, 3), _F(1)), _BFLIP, (3, -2), (1, -1, 1),
                             case6=True),
    FamilyId.RATCN4: _Family("n", (_F(1, 3), _F(1)), _BFLIP, (_F(3, 2), _F(-1, 2)),
                             (4, -1, 1), case6=True, double_zero=True),
    FamilyId.RATCN5: _Family("n", (_F(1, 3), _F(1)), _BFLIP, (_F(3, 2), _F(-1, 2)),
                             (4, -1, 1), case6=True, double_zero=True),
    FamilyId.RATCN6: _Family("n", (_F(1), None), _SAME, (_F(3, 2), _F(-1, 2)), (2, 1, -1),
                             published_weak_KP=True),
}


def family_m(family: FamilyId, n: float) -> float:
    """Nonlinearity power m fixed by the family's m-n relation."""
    if _FAMILIES[family].var == "m":
        raise InvalidParameters("COS2 fixes n = 1 and is parameterized by m")
    return _FAMILIES[family].m_of(n)


def admissible_interval(family: FamilyId) -> tuple[str, Fraction, Fraction | None]:
    """(parameter name, lower, upper) of the family's weak-existence range."""
    fam = _FAMILIES[family]
    return (fam.var, *fam.domain)


def sign_condition(family: FamilyId) -> str:
    return _FAMILIES[family].signs


def _require_nonzero_g(family: FamilyId, g: float) -> None:
    if g == 0:
        raise ProcedureRejection(
            f"{family.value}: g = 0; every catalog family divides by a power of g"
        )


@dataclass(frozen=True, eq=False)
class ClosedFormProfile:
    """One explicit compacton family with all constants resolved; U(xi)."""

    family: FamilyId
    params: EquationParams
    g: float
    alpha: float
    beta: float
    modulus: Modulus | None
    exponent: float
    shift: float
    rational_constants: tuple[float, float] | None
    L: float
    p: float
    _inner: object = field(repr=False, default=None)
    _printed_L: float = field(repr=False, default=math.nan)

    def __call__(self, xi):
        # through the module global, which the benchmark's tracer patches
        return evaluate(self, xi)


def _check_signs(family: FamilyId, a: float, b: float, g: float) -> None:
    pattern = _FAMILIES[family].signs
    sa, sb, sg = math.copysign(1, a), math.copysign(1, b), math.copysign(1, g)
    ok = (sg == sa == sb) if pattern == _SAME else (sg == sa == -sb)
    if not ok:
        raise ProcedureRejection(
            f"{family.value}: sign condition {pattern} violated by "
            f"a={a}, b={b}, g={g}"
        )


def construct(family: FamilyId, n: float | None = None, a: float = 1.0,
              b: float = 1.0, g: float = 1.0, m: float | None = None,
              kind: str = "K", sigma: int | None = None) -> ClosedFormProfile:
    """Resolve one family's constants at a concrete parameter point.

    All families except COS2 take the dispersion power ``n`` as the free
    parameter; COS2 has n = 1 and takes the nonlinearity power ``m``.
    The half-width is the inner expression's first zero in closed form.
    """
    a, b, g = float(a), float(b), float(g)
    _require_nonzero_g(family, g)
    fam = _FAMILIES[family]
    pname, (lo, hi) = fam.var, fam.domain
    if pname == "m":
        if m is None:
            raise InvalidParameters("COS2 requires the nonlinearity power m")
        free = m = float(m)
        n = 1.0
    else:
        if n is None:
            raise InvalidParameters(f"{family.value} requires the dispersion power n")
        free = n = float(n)
        m = fam.m_of(n)
    if not (lo < free and (hi is None or free < hi)):
        upper = "inf" if hi is None else str(hi)
        raise ProcedureRejection(
            f"{family.value}: {pname} = {free} outside the weak-existence "
            f"interval ({lo}, {upper})"
        )
    _check_signs(family, a, b, g)
    params = EquationParams(m=m, n=n, a=a, b=b, sigma=sigma, kind=kind)
    return _resolve(family, params, g, fam.p_of(free))


def _resolve(family: FamilyId, params: EquationParams, g: float,
             p: float) -> ClosedFormProfile:
    """Fill in alpha, beta, modulus, exponent, L, and the inner callable.

    Every family is a single hump of the first integral of
    -g*U + a*U**m + b*(U**n)'' = 0 (see ``shooting``).  Substituting
    U(xi) = lam * u(xi/mu) gives
    -u + (a/g) lam**(m-1) u**m + (b/g) lam**(n-1) mu**-2 (u**n)'' = 0, so

        lam = (g/a)**(1/(m-1)),    mu = sqrt(|b/g| * lam**(n-1))

    leave the unit problem a = g = 1, b = sgn(b/g) = +-1.  A branch holds
    only the shape there: the inner function, its modulus and rational
    constants, ``beta_unit``, and, in units of s = beta*xi
    (s = sqrt(|beta|)*xi for the quadratic ZSQ1/ZSQ2), the inner's first
    zero s* and the shift.  Then
    beta = beta_unit / mu (/ mu**2 for ZSQ1/ZSQ2), L = s* / width, and
    alpha = U(0) / inner(0)**exponent with U(0) = V0**(1/n), the crest of
    ``shooting.center_amplitude``.

    RATCN1 and RATCN2 are one computation, and so are RATCN4 and RATCN5.
    ``shift`` (the half-period offset of RATCN1's and RATCN4's printed
    form, the quarter-period offset of the sn families) is metadata and
    is never evaluated.
    """
    fam = _FAMILIES[family]
    m, n, a, b = params.m, params.n, params.a, params.b
    mod = ratc = None
    shift = 0.0

    if family is FamilyId.ZSQ1:
        beta_unit = (n + 1) * (n - 1) ** 2 / (2 * n * (3 * n + 1) ** 2)
        inner = lambda xi: 1.0 - beta * xi * xi
        zero = 1.0
    elif family is FamilyId.ZSQ2:
        # this quadratic coefficient is negative under the sign pattern
        beta_unit = (n - 1) ** 2 / (-n * (n + 1) ** 2)
        inner = lambda xi: 1.0 + beta * xi * xi
        zero = 1.0
    elif family in (FamilyId.COS1, FamilyId.COS2):
        beta_unit = abs(m - 1) / (2 * n)
        inner = lambda xi: np.cos(beta * xi)
        zero = math.pi / 2
    elif family in (FamilyId.CN1, FamilyId.CN2, FamilyId.SN1, FamilyId.SN2):
        cn = family in (FamilyId.CN1, FamilyId.CN2)
        beta_unit = (abs(n - 1) * math.sqrt(1 / n if cn else 1 / (2 * n))
                     * (1 / ((3 * n - 1) * (n + 1))) ** 0.25)
        mod = MOD_HALF if cn else MOD_IMAG
        zero = complete_K(mod)
        if cn:
            inner = lambda xi: jacobi(beta * xi, MOD_HALF)[1]
        else:
            # a quarter-period offset places the crest at xi = 0
            inner = lambda xi: jacobi(beta * xi + zero, MOD_IMAG)[0]
            shift = zero
    else:
        if family in (FamilyId.RATCN1, FamilyId.RATCN2, FamilyId.RATCN3):
            beta_unit = abs(n - 1) * (12 * SQRT3 / (n ** 3 * (n + 1) ** 2
                                                    * (2 * n - 1))) ** (1 / 6)
        else:
            beta_unit = abs(n - 1) * (3 * SQRT3 / (2 * n ** 3 * (n + 1)
                                                   * (5 * n - 1) ** 2)) ** (1 / 6)
        if fam.double_zero:
            mod, ratc = MOD_LOW, (1.0, DELTA)
            # the fraction touches zero at cn = -1, without a sign change
            inner = lambda xi: _rat_low(beta * xi)
            zero = 2.0 * complete_K(MOD_LOW)
            if family in (FamilyId.RATCN1, FamilyId.RATCN4):
                shift = zero  # half-period-shifted printed form, same profile
        else:
            mod, ratc = MOD_HIGH, (SQRT3 - 2.0, 1.0)
            inner = lambda xi: _rat_high(beta * xi)
            zero = 2.0 / 3.0 * complete_K(MOD_HIGH)  # cn(2K/3, k_high) = 2 - sqrt(3)

    # the catalog's COS2 formula carries |g|/|b| where the argument scale
    # implies |b|/|g|; retained verbatim for the audit cross-check
    printed = zero * abs(g) / abs(b) if family is FamilyId.COS2 else zero
    # mu**2 = |b/g| * lam**(n-1) without lam, which can overflow where mu does not
    mu2 = abs(b / g) * (g / a) ** ((n - 1) / (m - 1))
    quadratic = family in (FamilyId.ZSQ1, FamilyId.ZSQ2)
    beta = beta_unit / (mu2 if quadratic else math.sqrt(mu2))
    width = math.sqrt(abs(beta)) if quadratic else beta

    exponent = p / 2 if fam.double_zero else p
    V0 = center_amplitude(coefficients(params, g), params)
    try:
        alpha = V0 ** (1 / n) / float(inner(np.zeros(1))[0]) ** exponent
    except (OverflowError, ZeroDivisionError):
        alpha = math.inf
    if not 0.0 < alpha < math.inf:
        raise ProcedureRejection(
            f"{family.value}: alpha = U(0) / inner(0)**{exponent:.6g} leaves "
            "the float range"
        )
    return ClosedFormProfile(
        family=family, params=params, g=g, alpha=alpha, beta=beta,
        modulus=mod, exponent=exponent, shift=shift / width,
        rational_constants=ratc, L=zero / width, p=p,
        _inner=inner, _printed_L=printed / width,
    )


def _rat_low(s):
    c = jacobi(s, MOD_LOW)[1]
    return (1.0 + c) / (DELTA - c)


def _rat_high(s):
    c = jacobi(s, MOD_HIGH)[1]
    return (c + SQRT3 - 2.0) / (c + 1.0)


def first_zero(profile: ClosedFormProfile) -> float:
    """Smallest xi > 0 where the uncut inner expression reaches zero: L."""
    return profile.L


def printed_half_width(profile: ClosedFormProfile) -> float:
    """Half-width from the catalog's closed formula (audit cross-check).

    Equals L for every family except COS2, whose formula is inconsistent with its own
    argument scale by a factor |g|/|b|.
    """
    return profile._printed_L


def evaluate(profile: ClosedFormProfile, xi):
    """U(xi) with the Heaviside cutoff: zero for |xi| >= L, else
    alpha * inner(|xi|) ** exponent.  Accepts scalars or arrays."""
    xi_arr = np.asarray(xi)
    if xi_arr.dtype.kind != "f":
        xi_arr = xi_arr.astype(float)
    scalar = xi_arr.ndim == 0
    x = np.atleast_1d(np.abs(xi_arr))
    out = np.zeros_like(x)
    inside = x < profile.L
    if np.any(inside):
        vals = np.asarray(profile._inner(x[inside]))
        # roundoff can push the inner value a hair below zero right at
        # the support boundary
        np.clip(vals, 0.0, None, out=vals)
        out[inside] = profile.alpha * vals ** profile.exponent
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class SampledProfile:
    """Uniform samples of a profile on [-L, L] plus margin."""

    profile: ClosedFormProfile
    xi: np.ndarray
    U: np.ndarray

    def to_csv(self) -> str:
        return _write_columns("csv", {"xi": self.xi, "U": self.U})

    def to_json(self) -> str:
        return _write_columns("json", {"xi": self.xi, "U": self.U},
                              profile_metadata(self.profile))


def profile_metadata(profile: ClosedFormProfile) -> dict:
    pr = profile.params
    mod = None
    if profile.modulus is not None:
        mod = {"value": profile.modulus.value,
               "is_imaginary": profile.modulus.is_imaginary}
    return {
        "family": profile.family.value,
        "m": pr.m, "n": pr.n, "a": pr.a, "b": pr.b,
        "kind": pr.kind, "sigma": pr.sigma, "g": profile.g,
        "alpha": profile.alpha, "beta": profile.beta,
        "modulus": mod, "exponent": profile.exponent,
        "shift": profile.shift,
        "rational_constants": list(profile.rational_constants)
        if profile.rational_constants else None,
        "L": profile.L, "p": profile.p,
    }


def sample(profile: ClosedFormProfile, count: int) -> SampledProfile:
    """Uniform grid hitting both endpoints +-L exactly, extended by a
    margin of about a quarter half-width on each side."""
    if count < 16:
        raise InvalidParameters(f"sample count must be at least 16, got {count}")
    L = profile.L
    h = 2.0 * L / (count - 1)
    extra = int(math.ceil(0.25 * L / h))
    idx = np.arange(-(count - 1) // 2 - extra, (count - 1) // 2 + extra + 1)
    # odd counts center the grid on zero; even counts straddle it
    if count % 2 == 1:
        xi = idx * h
    else:
        xi = (np.arange(count + 2 * extra) - (count - 1) / 2.0 - extra) * h
    # snap the endpoint samples exactly onto +-L
    xi = np.where(np.isclose(np.abs(xi), L, rtol=1e-12, atol=0), np.sign(xi) * L, xi)
    return SampledProfile(profile=profile, xi=xi, U=evaluate(profile, xi))
