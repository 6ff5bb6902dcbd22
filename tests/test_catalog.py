"""Closed-form family construction, evaluation, and serialization."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betaincinv, betaln

from compactons import catalog
from compactons.catalog import (
    MOD_HIGH,
    SQRT3,
    FamilyId,
    admissible_interval,
    construct,
    evaluate,
    family_m,
    printed_half_width,
    profile_metadata,
    sample,
    sign_condition,
)
from compactons.elliptic import inverse_cn
from compactons.params import InvalidParameters, ProcedureRejection
from compactons.shooting import (
    center_amplitude,
    coefficients,
    inverse_beta_profile,
    shoot,
)

from conftest import (
    DRAWS,
    NUMERIC_POINTS,
    case_id,
    profile_at,
    strong_residual_scaled,
    tanhsinh_half_width,
)

ALL_FAMILIES = list(FamilyId)

# one point with |a|, |b|, |g| != 1 for each sign of a under each sign pattern
_OFF_UNIT = {
    sign_condition(FamilyId.ZSQ1): [dict(a=2.5, b=0.4, g=1.7), dict(a=-0.6, b=-3.0, g=-2.2)],
    sign_condition(FamilyId.ZSQ2): [dict(a=2.5, b=-0.4, g=1.7), dict(a=-0.6, b=3.0, g=-2.2)],
}
FIRST_INTEGRAL_POINTS = [
    (family, kw) for family in ALL_FAMILIES
    for kw in DRAWS[family] + [{**DRAWS[family][0], **c}
                               for c in _OFF_UNIT[sign_condition(family)]]
]


class TestIntroFixture:
    def test_cos1_n2_constants(self):
        prof = construct(FamilyId.COS1, n=2, a=1, b=1, g=1)
        assert prof.alpha == pytest.approx(4 / 3, abs=1e-14)
        assert prof.beta == pytest.approx(0.25, abs=1e-15)
        assert prof.L == pytest.approx(2 * np.pi, abs=1e-10)
        assert prof.p == 2.0

    def test_cos1_peak_value(self):
        prof = construct(FamilyId.COS1, n=2, g=1)
        assert evaluate(prof, 0.0) == pytest.approx(4 / 3, abs=1e-14)

    def test_cos1_speed_scaling(self):
        # U(0) = 4c/3 at n = 2
        prof = construct(FamilyId.COS1, n=2, g=2.5)
        assert evaluate(prof, 0.0) == pytest.approx(10 / 3, rel=1e-13)


class TestFamilyRelations:
    @pytest.mark.parametrize("family,n,m", [
        (FamilyId.ZSQ1, 2.0, 1.5),
        (FamilyId.ZSQ2, 1.5, 0.5),
        (FamilyId.COS1, 2.0, 2.0),
        (FamilyId.CN1, 0.75, 0.5),
        (FamilyId.CN2, 2.0, 3.0),
        (FamilyId.SN2, 2.0, 3.0),
        (FamilyId.RATCN1, 2.0, 4.0),
        (FamilyId.RATCN3, 0.8, 0.4),
        (FamilyId.RATCN4, 0.5, 0.25),
        (FamilyId.RATCN6, 2.0, 2.5),
    ])
    def test_m_of_n(self, family, n, m):
        assert family_m(family, n) == pytest.approx(m, abs=1e-15)

    def test_cos2_has_no_n_relation(self):
        with pytest.raises(InvalidParameters):
            family_m(FamilyId.COS2, 1.0)

    def test_interval_metadata(self):
        pname, lo, hi = admissible_interval(FamilyId.ZSQ2)
        assert pname == "n" and float(lo) == 1.0 and float(hi) == 2.0
        pname, lo, hi = admissible_interval(FamilyId.COS2)
        assert pname == "m" and float(lo) == 0.0 and float(hi) == 1.0

    def test_sign_condition_strings(self):
        assert "-sgn(b)" not in sign_condition(FamilyId.COS1)
        assert "-sgn(b)" in sign_condition(FamilyId.CN1)


class TestConstructionValidation:
    def test_outside_interval_rejected(self):
        with pytest.raises(ProcedureRejection):
            construct(FamilyId.ZSQ2, n=2.5, b=-1)
        with pytest.raises(ProcedureRejection):
            construct(FamilyId.SN1, n=0.5, b=-1)

    def test_sign_condition_rejected(self):
        with pytest.raises(ProcedureRejection):
            construct(FamilyId.COS1, n=2, b=-1)
        with pytest.raises(ProcedureRejection):
            construct(FamilyId.CN1, n=0.75, b=1)

    def test_zero_wave_constant_rejected(self):
        with pytest.raises(ProcedureRejection):
            construct(FamilyId.COS1, n=2, g=0.0)

    def test_missing_power_rejected(self):
        with pytest.raises(InvalidParameters):
            construct(FamilyId.COS1)
        with pytest.raises(InvalidParameters):
            construct(FamilyId.COS2, b=-1)


class TestProfiles:
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
    def test_strong_residual_all_draws(self, family):
        for kwargs in DRAWS[family]:
            prof = construct(family, **kwargs)
            assert strong_residual_scaled(prof) < 1e-5

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
    def test_symmetry_and_support(self, family):
        prof = construct(family, **DRAWS[family][0])
        xs = np.linspace(0.0, 0.999 * prof.L, 50)
        assert np.allclose(evaluate(prof, xs), evaluate(prof, -xs),
                           rtol=0, atol=0)
        assert evaluate(prof, prof.L) == 0.0
        assert evaluate(prof, -prof.L) == 0.0
        assert evaluate(prof, 1.5 * prof.L) == 0.0
        assert evaluate(prof, 0.0) > 0.0

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
    def test_positive_inside(self, family):
        prof = construct(family, **DRAWS[family][0])
        xs = np.linspace(-0.999, 0.999, 201) * prof.L
        assert np.all(evaluate(prof, xs) >= 0.0)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
    def test_half_width_is_first_zero(self, family):
        # L is the first zero of the uncut inner expression: it stays
        # positive up to L and vanishes at L to roundoff.  The grid stops
        # where the inner is about 1e-9 of its crest, which a double zero
        # reaches at (1e-9)**(1/2) of L from the edge.
        order = 2 if catalog._FAMILIES[family].double_zero else 1
        for point_family, kw in FIRST_INTEGRAL_POINTS:
            if point_family is not family:
                continue
            prof = construct(family, **kw)
            inner0 = float(prof._inner(np.zeros(1))[0])
            xs = np.linspace(0.0, prof.L * (1 - 1e-9 ** (1 / order)), 2001)
            assert np.all(prof._inner(xs) > 0.0), kw
            assert abs(float(prof._inner(np.array([prof.L]))[0])) <= 4e-15 * inner0, kw

    @pytest.mark.parametrize("family",
                             [f for f in ALL_FAMILIES if f is not FamilyId.COS2],
                             ids=lambda f: f.value)
    def test_printed_half_width_agrees(self, family):
        prof = construct(family, **DRAWS[family][0])
        assert printed_half_width(prof) == pytest.approx(prof.L, rel=1e-12)

    def test_cos2_printed_half_width_ratio(self):
        # the printed half-width formula for this family carries a
        # spurious |g|/|b| factor relative to the actual first zero
        for g, b in [(1.0, -1.0), (4.0, -1.0), (1.0, -4.0), (2.0, -3.0)]:
            prof = construct(FamilyId.COS2, m=0.25, g=g, b=b)
            ratio = printed_half_width(prof) / prof.L
            assert ratio == pytest.approx(abs(g) / abs(b), rel=1e-12)

    def test_longdouble_evaluation_preserved(self):
        prof = construct(FamilyId.CN2, n=2)
        xs = np.linspace(-1, 1, 5).astype(np.longdouble)
        assert evaluate(prof, xs).dtype == np.longdouble


class TestSampling:
    def test_endpoints_exact(self):
        prof = construct(FamilyId.COS1, n=2)
        sp = sample(prof, 101)
        assert prof.L in sp.xi and -prof.L in sp.xi
        assert sp.U[np.where(sp.xi == prof.L)][0] == 0.0
        assert len(sp.xi) > 101  # margin beyond the support

    def test_count_validation(self):
        prof = construct(FamilyId.COS1, n=2)
        with pytest.raises(InvalidParameters):
            sample(prof, 8)

    def test_csv_round_trip(self):
        prof = construct(FamilyId.ZSQ1, n=2)
        text = sample(prof, 33).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "xi,U"
        xi, u = lines[1].split(",")
        float(xi), float(u)

    def test_json_metadata(self):
        prof = construct(FamilyId.CN2, n=2)
        data = json.loads(sample(prof, 33).to_json())
        md = data["metadata"]
        assert md["family"] == "cn2"
        assert md["m"] == 3.0 and md["n"] == 2.0
        assert md["L"] == pytest.approx(prof.L)
        assert len(data["xi"]) == len(data["U"])

    def test_metadata_keys(self):
        prof = construct(FamilyId.RATCN6, n=2)
        md = profile_metadata(prof)
        for key in ("family", "m", "n", "a", "b", "g", "alpha", "beta",
                    "modulus", "L", "p"):
            assert key in md


class TestEndpointBehavior:
    @pytest.mark.parametrize("case", ALL_FAMILIES + NUMERIC_POINTS, ids=case_id)
    def test_amplitude_power_law(self, case):
        # U(L - d) / d**p converges as d -> 0 (finite, nonzero limit)
        prof = profile_at(case)
        r1 = prof(prof.L - 1e-3 * prof.L) / (1e-3 * prof.L) ** prof.p
        r2 = prof(prof.L - 1e-4 * prof.L) / (1e-4 * prof.L) ** prof.p
        assert r1 > 0 and r2 > 0
        assert r2 == pytest.approx(r1, rel=0.05)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
    def test_double_zero_doubles_the_power(self, family):
        # the inner fractions of RATCN1/2/4/5 touch zero quadratically,
        # every other inner expression crosses it linearly
        double = family in (FamilyId.RATCN1, FamilyId.RATCN2,
                            FamilyId.RATCN4, FamilyId.RATCN5)
        assert catalog._FAMILIES[family].double_zero == double
        for kw in DRAWS[family]:
            prof = construct(family, **kw)
            assert prof.p == pytest.approx((2 if double else 1) * prof.exponent,
                                           rel=1e-12)


class TestProfileProtocol:
    """Catalog and numeric profiles are called alike: a scalar gives a
    float, an array an array, and U is 0 from the edge on."""

    @pytest.mark.parametrize("case", [FamilyId.COS1, NUMERIC_POINTS[0]], ids=case_id)
    def test_scalar_gives_float(self, case):
        prof = profile_at(case)
        values = [prof(xi) for xi in (0, prof.L, 2 * prof.L)]
        assert [type(v) for v in values] == [float, float, float]
        assert values[0] > 0 and values[1:] == [0.0, 0.0]
        out = prof(np.array([0, prof.L, 2 * prof.L]))
        assert isinstance(out, np.ndarray) and out.tolist() == values


def _point_id(point):
    family, kw = point
    return family.value + "-" + "-".join(f"{k}{v:g}" for k, v in kw.items())


class TestFirstIntegral:
    """Every family is the single hump of the first integral
    V'**2 = B V**(1+1/n) - A V**(1+m/n), V = U**n, so its crest, half-width
    and shape follow from the shooting module's independent routes.
    Bounds sit a few times above the worst measured over these points."""

    @pytest.mark.parametrize("point", FIRST_INTEGRAL_POINTS, ids=_point_id)
    def test_crest_and_half_width(self, point):
        family, kw = point
        prof = construct(family, **kw)
        coeffs = coefficients(prof.params, prof.g)
        V0 = center_amplitude(coeffs, prof.params)
        crest = evaluate(prof, 0.0)
        assert abs(crest - V0 ** (1 / prof.params.n)) <= 2e-14 * crest
        L_quad = tanhsinh_half_width(prof.params, prof.g)
        assert abs(prof.L - L_quad) <= 4e-15 * prof.L

    @pytest.mark.parametrize("point", FIRST_INTEGRAL_POINTS, ids=_point_id)
    def test_shooting_agrees(self, point):
        family, kw = point
        prof = construct(family, **kw)
        nc = shoot(prof.params, prof.g)
        assert abs(nc.L_shoot - prof.L) <= 1e-8 * prof.L
        crest = evaluate(prof, 0.0)
        assert np.max(np.abs(nc.U - evaluate(prof, nc.grid))) <= 5e-9 * crest

    @pytest.mark.parametrize("cn,sn,free", [
        (FamilyId.CN1, FamilyId.SN1, [0.55, 0.6, 0.75, 0.9, 0.95]),
        (FamilyId.CN2, FamilyId.SN2, [1.1, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0]),
    ], ids=["cn1-sn1", "cn2-sn2"])
    def test_cn_and_sn_are_one_profile(self, cn, sn, free):
        # same m(n) and sign pattern, reached through a real modulus 1/sqrt(2)
        # and an imaginary modulus i: the profiles must coincide
        for n in free:
            for coeffs in [dict(b=DRAWS[cn][0].get("b", 1.0))] + _OFF_UNIT[sign_condition(cn)]:
                p_cn, p_sn = construct(cn, n=n, **coeffs), construct(sn, n=n, **coeffs)
                assert abs(p_cn.L - p_sn.L) <= 5e-14 * p_cn.L
                xs = np.linspace(-1.1, 1.1, 221) * p_cn.L
                dev = np.max(np.abs(evaluate(p_cn, xs) - evaluate(p_sn, xs)))
                assert dev <= 5e-14 * evaluate(p_cn, 0.0)


def _inverse_beta(params, g):
    """(L, U) of the E = 0 first integral from its inverse-beta closed form,
    formed here from (m, n, a, b, g) alone."""
    m, n, a, b = params.m, params.n, params.a, params.b
    A = 2 * n * a / ((m + n) * b)
    B = 2 * n * g / ((n + 1) * b)
    V0 = (B / A) ** (n / (m - 1))
    U0 = V0 ** (1 / n)
    kappa = math.sqrt(abs(B) * V0 ** (1 / n - 1))
    alpha = (n - min(1.0, m)) / (2 * abs(m - 1))
    L = math.exp(betaln(alpha, 0.5)) / (abs(m - 1) / n * kappa)

    def U(xs):
        # y from the difference, never as 1 - |xi|/L
        y = np.clip((L - np.abs(xs)) / L, 0.0, 1.0)
        return U0 * betaincinv(alpha, 0.5, y) ** (1 / abs(m - 1))

    return L, U


class TestInverseBetaOracle:
    """The E = 0 first integral inverts in closed form.  With V = V0*v,
    kappa**2 = |B| V0**(1/n - 1), t = v**d, d = |m - 1|/n and
    alpha = (n - min(1, m)) / (2|m - 1|), the half-width is the complete
    beta function L = B(alpha, 1/2) / (d kappa) and the profile is
    U(xi) = U0 * I^-1((L - |xi|)/L; alpha, 1/2) ** (1/|m - 1|), U0 = V0**(1/n).
    A, B and V0 are formed here from (m, n, a, b, g), so the check uses
    neither ``elliptic`` nor any catalog branch.  Bounds sit a few times
    above the worst measured over these points (L 7.1e-16, U 6.5e-15*U0)."""

    @pytest.mark.parametrize("point", FIRST_INTEGRAL_POINTS, ids=_point_id)
    def test_half_width_and_profile(self, point):
        family, kw = point
        prof = construct(family, **kw)
        L, U = _inverse_beta(prof.params, prof.g)
        assert abs(prof.L - L) <= 2e-15 * L
        xs = np.linspace(-L, L, 4001)
        U0 = U(np.zeros(1))[0]
        assert np.max(np.abs(evaluate(prof, xs) - U(xs))) <= 2e-14 * U0

    @pytest.mark.parametrize("point", FIRST_INTEGRAL_POINTS, ids=_point_id)
    def test_numeric_profile_is_the_formula(self, point):
        # the numeric path's profile against this test's own formula, on
        # the same 4001 points and a little beyond the support
        family, kw = point
        prof = construct(family, **kw)
        L, U = _inverse_beta(prof.params, prof.g)
        u_eval = inverse_beta_profile(prof.params, prof.g)
        assert abs(u_eval.L - L) <= 2e-15 * L
        xs = np.linspace(-1.01 * L, 1.01 * L, 4001)
        U0 = U(np.zeros(1))[0]
        assert np.max(np.abs(u_eval(xs) - U(xs))) <= 2e-14 * U0

    @pytest.mark.parametrize(
        "point", [p for p in FIRST_INTEGRAL_POINTS
                  if p[0] in (FamilyId.RATCN3, FamilyId.RATCN6)], ids=_point_id)
    def test_ratcn_high_zero_is_two_thirds_K(self, point):
        # s* = 2K/3 in closed form gives the same L, bit for bit, as
        # inverting cn numerically at 2 - sqrt(3)
        family, kw = point
        prof = construct(family, **kw)
        assert prof.L == inverse_cn(2.0 - SQRT3, MOD_HIGH) / prof.beta

    def test_cn_at_two_thirds_K_high(self):
        with mpmath.workdps(40):
            k = mpmath.sqrt(2) * (mpmath.sqrt(3) + 1) / 4
            assert MOD_HIGH.value == pytest.approx(float(k), rel=1e-15)
            cn = mpmath.ellipfun("cn", 2 * mpmath.ellipk(k ** 2) / 3, m=k ** 2)
            assert abs(cn - (2 - mpmath.sqrt(3))) < mpmath.mpf(10) ** -35


class TestScaling:
    """U -> lam*U, xi -> mu*xi maps the profile at a = g = 1, b = +-1 onto
    the one at (a, b, g), with lam = (g/a)**(1/(m-1)) and
    mu = sqrt(|b/g| * lam**(n-1)); every family must obey it."""

    @given(family=st.sampled_from(ALL_FAMILIES), t=st.floats(0.05, 0.95),
           a=st.floats(0.1, 10), b=st.floats(0.1, 10), g=st.floats(0.1, 10),
           negative=st.booleans())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_exact_rescaling_of_the_unit_profile(self, family, t, a, b, g, negative):
        var, lo, hi = admissible_interval(family)
        hi = lo + 3 if hi is None else hi
        free = {var: float(lo + t * (hi - lo))}
        b_unit = 1.0 if sign_condition(family) == sign_condition(FamilyId.ZSQ1) else -1.0
        if negative:
            a, b, g = -a, -b, -g
        unit = construct(family, **free, b=b_unit)
        prof = construct(family, **free, a=a, b=b * b_unit, g=g)
        m, n = prof.params.m, prof.params.n
        lam = (g / a) ** (1 / (m - 1))
        mu = math.sqrt(abs(b / g) * lam ** (n - 1))
        assert abs(prof.L - mu * unit.L) <= 1e-12 * prof.L
        xs = np.linspace(-0.95, 0.95, 39) * prof.L
        dev = np.max(np.abs(evaluate(prof, xs) - lam * evaluate(unit, xs / mu)))
        assert dev <= 1e-12 * evaluate(prof, 0.0)
