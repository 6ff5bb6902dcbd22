"""Existence classification, interval tables, and region sweeps."""

import math
from fractions import Fraction

import numpy as np
import pytest

from compactons.catalog import FamilyId, admissible_interval, construct, evaluate, family_m
from compactons.existence import (
    CASE6_FAMILIES,
    Interval,
    case4_amplitude,
    case56_amplitude,
    classify_family,
    raw_theorem_intervals,
    region_grid,
    region_grid_csv,
    strong_ok,
    table1_intervals,
    weak_K_ok,
    weak_KP_case,
)
from compactons.params import InvalidParameters, ProcedureRejection

from conftest import DRAWS

# The full published existence table: family -> (param, weak K,
# strong K, weak KP, strong KP), all endpoints exact rationals.
PUBLISHED_TABLE = {
    FamilyId.ZSQ1: ("n", "(1, inf)", "(1, 5/3)", "(1, 3)", "(1, 3/2)"),
    FamilyId.ZSQ2: ("n", "(1, 2)", "(1, 4/3)", "(1, 2)", "(1, 5/4)"),
    FamilyId.COS1: ("n", "(1, inf)", "(1, 5/3)", "(1, 3)", "(1, 3/2)"),
    FamilyId.COS2: ("m", "(0, 1)", "(1/3, 1)", "(0, 1)", "(1/2, 1)"),
    FamilyId.CN1: ("n", "(1/2, 1)", "(1/2, 1)", "(1/2, 1)", "(1/2, 1)"),
    FamilyId.CN2: ("n", "(1, inf)", "(1, 5/3)", "(1, 3)", "(1, 3/2)"),
    FamilyId.SN1: ("n", "(1/2, 1)", "(1/2, 1)", "(1/2, 1)", "(1/2, 1)"),
    FamilyId.SN2: ("n", "(1, inf)", "(1, 5/3)", "(1, 3)", "(1, 3/2)"),
    FamilyId.RATCN1: ("n", "(1, inf)", "(1, 5/3)", "(1, inf)", "(1, 3/2)"),
    FamilyId.RATCN2: ("n", "(1, inf)", "(1, 5/3)", "(1, inf)", "(1, 3/2)"),
    FamilyId.RATCN3: ("n", "(2/3, 1)", "(2/3, 1)", "(2/3, 1)", "(3/4, 1)"),
    FamilyId.RATCN4: ("n", "(1/3, 1)", "(1/3, 1)", "(1/3, 1)", "(1/3, 1)"),
    FamilyId.RATCN5: ("n", "(1/3, 1)", "(1/3, 1)", "(1/3, 1)", "(1/3, 1)"),
    FamilyId.RATCN6: ("n", "(1, inf)", "(1, 5/3)", "(1, inf)", "(1, 3/2)"),
}


class TestPointPredicates:
    def test_weak_K_threshold(self):
        assert weak_K_ok(2.0, 2.0)          # p = 2 > 2/n = 1
        assert not weak_K_ok(1.0, 2.0)      # boundary is excluded
        assert not weak_K_ok(0.5, 2.0)

    def test_weak_K_validation(self):
        with pytest.raises(InvalidParameters):
            weak_K_ok(2.0, 0.0)
        with pytest.raises(InvalidParameters):
            weak_K_ok(-1.0, 2.0)

    def test_strong_thresholds(self):
        assert strong_ok(3.5, "K") and not strong_ok(3.0, "K")
        assert strong_ok(4.5, "KP") and not strong_ok(4.0, "KP")
        with pytest.raises(InvalidParameters):
            strong_ok(3.0, "X")

    def test_weak_KP_open_cases(self):
        # case 3: m > 1, p > max(1, 3/n), g nonzero
        assert weak_KP_case(2.0, 1.5, 2.0, 1.0, 1.0, 1.0) == 3
        # case 2: m < 1, p > max(1/m, 3/n)
        assert weak_KP_case(4.0, 0.5, 1.0, 1.0, 1.0, 1.0) == 2
        # case 1: g = 0 with the same inequality
        assert weak_KP_case(4.0, 0.5, 1.0, 0.0, 1.0, 1.0) == 1
        # no condition satisfied
        assert weak_KP_case(1.2, 2.0, 2.0, 1.0, 1.0, 1.0) is None

    def test_weak_KP_equality_case4(self):
        n, b, g = 3.0, 1.0, 1.0
        u0 = case4_amplitude(n, b, g)
        assert u0 is not None
        assert weak_KP_case(1.0, 2.5, n, g, 1.0, b, U0=u0) == 4
        # wrong amplitude breaks the equality case
        assert weak_KP_case(1.0, 2.5, n, g, 1.0, b, U0=2 * u0) is None

    def test_weak_KP_equality_case56(self):
        m, n, a, b = 0.25, 1.0, 1.0, -1.0
        p = 2.0 / (n - m)
        u0 = case56_amplitude(m, n, a, b)
        assert u0 is not None
        assert weak_KP_case(p, m, n, 1.0, a, b, U0=u0) == 6
        assert weak_KP_case(p, m, n, 0.0, a, b, U0=u0) == 5

    def test_amplitude_nonpositive_base(self):
        # base of the forced amplitude must be positive
        assert case56_amplitude(0.25, 1.0, 1.0, 1.0) is None


class TestPublishedTable:
    @pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
    def test_exact_intervals(self, family):
        param, wk, sk, wkp, skp = PUBLISHED_TABLE[family]
        iv = table1_intervals(family)
        assert iv["param"] == param
        assert str(iv["weak_K"]) == wk
        assert str(iv["strong_K"]) == sk
        assert str(iv["weak_KP"]) == wkp
        assert str(iv["strong_KP"]) == skp

    @pytest.mark.parametrize("family",
                             [FamilyId.RATCN1, FamilyId.RATCN2, FamilyId.RATCN6],
                             ids=lambda f: f.value)
    def test_raw_derivation_caps_weak_KP_at_3(self, family):
        # the published table lists these weak-KP ranges as unbounded,
        # while the admissibility conditions taken literally stop at n=3;
        # both layers stay visible
        raw = raw_theorem_intervals(family)
        assert str(raw["weak_KP"]) == "(1, 3)"
        assert str(table1_intervals(family)["weak_KP"]) == "(1, inf)"

    @pytest.mark.parametrize("family",
                             [f for f in FamilyId
                              if f not in (FamilyId.RATCN1, FamilyId.RATCN2,
                                           FamilyId.RATCN6)],
                             ids=lambda f: f.value)
    def test_raw_equals_published_elsewhere(self, family):
        raw = raw_theorem_intervals(family)
        pub = table1_intervals(family)
        for col in ("weak_K", "strong_K", "weak_KP", "strong_KP"):
            assert str(raw[col]) == str(pub[col])


class TestClassifyFamily:
    def test_zsq1_reference_point(self):
        rep = classify_family(FamilyId.ZSQ1, n=2)
        assert rep.weak_K and not rep.strong_K
        assert rep.weak_KP == 3 and not rep.strong_KP
        assert rep.p == pytest.approx(2.0)

    def test_cos2_weak_only(self):
        rep = classify_family(FamilyId.COS2, m=0.25, b=-1)
        assert rep.weak_K and not rep.strong_K
        assert rep.weak_KP == 6 and not rep.strong_KP
        assert rep.U0_constraint == pytest.approx(
            case56_amplitude(0.25, 1.0, 1.0, -1.0))

    def test_cn1_all_admissible(self):
        rep = classify_family(FamilyId.CN1, n=0.75, b=-1)
        assert rep.weak_K and rep.strong_K
        assert rep.weak_KP is not None and rep.strong_KP

    def test_override_family_beyond_raw_range(self):
        rep = classify_family(FamilyId.RATCN6, n=4)
        assert rep.weak_K and rep.weak_KP is None
        assert any("published" in r for r in rep.reasons)

    def test_zero_g_rejected(self):
        # weak_KP_case gives case 1 at g = 0, but no catalog profile exists there
        assert weak_KP_case(2.0, 1.5, 2.0, 0.0, 1.0, 1.0) == 1
        with pytest.raises(ProcedureRejection):
            classify_family(FamilyId.ZSQ1, n=2, g=0)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameters):
            classify_family(FamilyId.ZSQ1)          # missing n
        with pytest.raises(InvalidParameters):
            classify_family(FamilyId.COS2, n=2)     # parameterized by m
        with pytest.raises(InvalidParameters):
            classify_family(FamilyId.ZSQ2, n=2.5)   # outside the domain

    @pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
    def test_hierarchy_invariants(self, family):
        iv = table1_intervals(family)
        lo = float(iv["weak_K"].lo)
        hi = iv["weak_K"].hi
        hi = float(hi) if hi is not None else lo + 6.0
        var = iv["param"]
        for x in np.linspace(lo, hi, 25)[1:-1]:
            kwargs = {var: float(x)}
            if var == "m":
                kwargs["b"] = -1.0
            try:
                rep = classify_family(family, **kwargs)
            except InvalidParameters:
                continue
            if rep.strong_KP:
                assert rep.strong_K
            if rep.strong_K:
                assert rep.weak_K
            if rep.weak_KP is not None:
                assert rep.weak_K

    @pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
    def test_flags_match_intervals(self, family):
        iv = table1_intervals(family)
        raw = raw_theorem_intervals(family)
        var = iv["param"]
        lo = float(iv["weak_K"].lo)
        hi = iv["weak_K"].hi
        hi = float(hi) if hi is not None else lo + 6.0
        for x in np.linspace(lo + 1e-6, hi - 1e-6, 17):
            kwargs = {var: float(x)}
            if var == "m":
                kwargs["b"] = -1.0
            rep = classify_family(family, **kwargs)
            assert rep.weak_K == iv["weak_K"].contains(x)
            assert rep.strong_K == iv["strong_K"].contains(x)
            assert rep.strong_KP == iv["strong_KP"].contains(x)
            # the verdict follows the raw derivation of the conditions
            assert (rep.weak_KP is not None) == raw["weak_KP"].contains(x)


def _boundaries(family):
    """Rational values of the free power where a verdict may change:
    every endpoint of every column, n = 3 and n = 3m."""
    raw = raw_theorem_intervals(family)
    points = {end for col in ("weak_K", "strong_K", "weak_KP", "strong_KP")
              if raw[col] is not None
              for end in (raw[col].lo, raw[col].hi) if end is not None}
    if raw["param"] == "m":
        points.add(Fraction(1, 3))             # COS2 has n = 1
    else:
        points.add(Fraction(3))
        # m(n) is linear with dyadic coefficients, exact in floats
        m0 = Fraction(family_m(family, 0.0))
        mc = Fraction(family_m(family, 1.0)) - m0
        if 3 * mc != 1:
            points.add(3 * m0 / (1 - 3 * mc))
    return sorted(points)


class TestEndpoints:
    @pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
    def test_flags_exact_next_to_every_boundary(self, family):
        raw = raw_theorem_intervals(family)
        var = raw["param"]
        for end in _boundaries(family):
            x0 = float(end)
            for x in (math.nextafter(x0, -math.inf), x0, math.nextafter(x0, math.inf)):
                try:
                    rep = classify_family(family, **{var: x})
                except InvalidParameters:
                    _, lo, hi = admissible_interval(family)
                    assert not (lo < x and (hi is None or x < hi)), x
                    continue
                q = Fraction(x)
                for col, flag in (("weak_K", rep.weak_K), ("strong_K", rep.strong_K),
                                  ("strong_KP", rep.strong_KP)):
                    assert flag == (raw[col] is not None and raw[col].contains(q)), \
                        (col, x)
                if var == "n" and x == 3:
                    # the case-4 equality point, which the published
                    # interval leaves open
                    assert rep.weak_KP == 4 and not raw["weak_KP"].contains(q)
                else:
                    assert (rep.weak_KP is not None) == raw["weak_KP"].contains(q), x


class TestForcedAmplitudeIdentity:
    @pytest.mark.parametrize("family,kwargs", [
        (FamilyId.COS2, dict(m=0.25, b=-1)),
        (FamilyId.COS2, dict(m=0.5, b=-1)),
        (FamilyId.CN1, dict(n=0.75, b=-1)),
        (FamilyId.SN1, dict(n=0.75, b=-1)),
        (FamilyId.ZSQ2, dict(n=1.5, b=-1)),
        (FamilyId.RATCN3, dict(n=0.8, b=-1)),
        (FamilyId.RATCN4, dict(n=0.5, b=-1)),
        (FamilyId.RATCN5, dict(n=0.5, b=-1)),
    ])
    def test_endpoint_amplitude_equals_forced_value(self, family, kwargs):
        # families whose p identically equals 2/(n-m) must carry the
        # endpoint amplitude forced by the equality admissibility case
        assert family in CASE6_FAMILIES
        prof = construct(family, **kwargs)
        pr = prof.params
        assert prof.p == pytest.approx(2.0 / (pr.n - pr.m), rel=1e-12)
        forced = case56_amplitude(pr.m, pr.n, pr.a, pr.b)
        assert forced is not None
        d = 1e-4 * prof.L
        measured = evaluate(prof, prof.L - d) / d ** prof.p
        assert measured == pytest.approx(forced, rel=1e-4)


class TestRegionGrid:
    def test_rows_and_csv(self):
        rows = region_grid(FamilyId.COS1, 1.1, 4.0, 30)
        assert len(rows) == 30
        text = region_grid_csv(rows)
        header = text.splitlines()[0]
        assert header == "m,n,weak_K,strong_K,weak_KP_case,strong_KP"

    def test_matches_classify(self):
        rows = region_grid(FamilyId.CN2, 1.2, 2.8, 9)
        for row in rows:
            rep = classify_family(FamilyId.CN2, n=row["n"])
            assert row["weak_K"] == rep.weak_K
            assert row["strong_K"] == rep.strong_K
            assert row["weak_KP_case"] == rep.weak_KP
            assert row["strong_KP"] == rep.strong_KP

    def test_out_of_domain_samples_all_false(self):
        rows = region_grid(FamilyId.ZSQ2, 0.5, 2.5, 5)
        assert rows[0]["weak_K"] is False
        assert rows[-1]["weak_K"] is False

    def test_steps_validation(self):
        with pytest.raises(InvalidParameters):
            region_grid(FamilyId.COS1, 1.1, 2.0, 1)

    @pytest.mark.parametrize("bound", [math.inf, math.nan])
    def test_non_finite_bounds_rejected(self, bound):
        with pytest.raises(InvalidParameters):
            region_grid(FamilyId.COS1, 1.1, bound, 5)


class TestInterval:
    def test_str_forms(self):
        from fractions import Fraction
        assert str(Interval(Fraction(1), Fraction(3))) == "(1, 3)"
        assert str(Interval(Fraction(1), None)) == "(1, inf)"
        assert str(Interval(Fraction(1, 2), Fraction(5, 3),
                            lo_open=False, hi_open=False)) == "[1/2, 5/3]"

    def test_contains_respects_openness(self):
        iv = table1_intervals(FamilyId.ZSQ1)["strong_K"]  # (1, 5/3)
        assert iv.contains(1.5)
        assert not iv.contains(1.0)
        assert not iv.contains(5 / 3)
