"""Numeric compacton computation: reduction, quadrature, and shooting."""

import json
import time

import numpy as np
import pytest
import scipy.integrate

from compactons import shooting
from compactons.catalog import FamilyId, construct, evaluate
from compactons.params import EquationParams, ProcedureRejection
from compactons.shooting import (
    ReducedCoefficients,
    ShootTolerances,
    center_amplitude,
    coefficients,
    concavity_check,
    half_width_quadrature,
    inverse_beta_profile,
    shoot,
)

from conftest import oscillator_energy_residual, tanhsinh_half_width

FIG5_LEFT = EquationParams(m=2.25, n=2.0, a=1.0, b=1.0)
FIG5_RIGHT = EquationParams(m=0.5, n=0.9, a=1.0, b=-1.0)


class TestReduction:
    def test_coefficient_formulas(self):
        c = coefficients(FIG5_LEFT, 1.0)
        # A = 2na/((m+n)b), B = 2ng/((n+1)b)
        assert c.A == pytest.approx(2 * 2 / (2.25 + 2), rel=1e-15)
        assert c.B == pytest.approx(2 * 2 / 3, rel=1e-15)

    def test_zero_g_rejected(self):
        with pytest.raises(ProcedureRejection):
            coefficients(FIG5_LEFT, 0.0)

    def test_center_amplitude_fig5_left(self):
        c = coefficients(FIG5_LEFT, 1.0)
        # V0 = (B/A)**(n/(m-1)) = (17/12)**(8/5)
        assert center_amplitude(c, FIG5_LEFT) == pytest.approx(
            (17 / 12) ** 1.6, rel=1e-14)

    def test_center_amplitude_requires_positive_ratio(self):
        params = EquationParams(m=2.25, n=2.0, a=1.0, b=1.0)
        with pytest.raises(ProcedureRejection):
            center_amplitude(coefficients(params, -1.0), params)

    def test_concavity(self):
        assert concavity_check(FIG5_LEFT, 1.0)
        assert concavity_check(FIG5_RIGHT, 1.0)
        # m > 1 with b opposing a makes the crest curve the wrong way
        flipped = EquationParams(m=2.25, n=2.0, a=1.0, b=-1.0)
        assert not concavity_check(flipped, 1.0)


# (m, n, b) with a = g = 1 spanning alpha = (n - min(1, m)) / (2|m - 1|)
# from 0.015 to 150 on both sides of m = 1
ALPHA_SPAN = [(2.0, 1.03, 1.0), (0.5, 0.6, -1.0), (2.25, 2.0, 1.0),
              (3.0, 2.0, 1.0), (0.5, 0.9, -1.0), (0.3, 1.5, -1.0),
              (1.5, 3.0, 1.0), (0.9, 1.5, -1.0), (1.001, 1.3, 1.0)]


class TestHalfWidthQuadrature:
    def test_matches_closed_form_cos1(self):
        # at m = n = 2 the numeric route must land on the cosine family
        params = EquationParams(m=2.0, n=2.0, a=1.0, b=1.0)
        prof = construct(FamilyId.COS1, n=2)
        c = coefficients(params, 1.0)
        L = half_width_quadrature(c, params, center_amplitude(c, params))
        assert L == pytest.approx(prof.L, rel=1e-10)

    def test_matches_closed_form_cn2(self):
        params = EquationParams(m=3.0, n=2.0, a=1.0, b=1.0)
        prof = construct(FamilyId.CN2, n=2)
        c = coefficients(params, 1.0)
        L = half_width_quadrature(c, params, center_amplitude(c, params))
        assert L == pytest.approx(prof.L, rel=1e-10)

    @pytest.mark.parametrize("m,n,b", ALPHA_SPAN)
    def test_matches_tanh_sinh(self, m, n, b):
        params = EquationParams(m=m, n=n, a=1.0, b=b)
        c = coefficients(params, 1.0)
        L = half_width_quadrature(c, params, center_amplitude(c, params))
        assert abs(L - tanhsinh_half_width(params, 1.0)) <= 1e-12 * L

    def test_divergent_tail_rejected(self):
        # min(1, m) >= n makes the half-width integral diverge
        params = EquationParams(m=2.0, n=0.8, a=1.0, b=-1.0)
        c = coefficients(params, 1.0)
        with pytest.raises(ProcedureRejection):
            half_width_quadrature(c, params, 1.0)


# the first draw of each of the six m strata of the benchmark's numeric
# points at seed 1 (n nearest min(1, m)), as (m, n, a, b, g)
NUMERIC_DRAWS = [
    (0.37027220989417176, 0.6613589863269016, 1.686187125542526,
     -1.8488689484285215, 1.1717436381859736),
    (0.7635304351036482, 0.7709399152615757, -1.3008770185109313,
     1.996764207658639, -2.0183222013669484),
    (1.6325107639332526, 1.2394123252157254, -2.660486660279065,
     -1.5230527639183287, -1.4175579334747457),
    (2.0143636816068917, 1.08863330458478, 2.525609365763299,
     2.1830241417752436, 2.146728745216652),
    (2.7381639977969288, 1.1224885381279803, -2.6833988409467344,
     -2.395723967682892, -1.0683580869717695),
    (3.3559187659033114, 1.2232833073333544, -1.040845952939855,
     -2.506575937189428, -1.5914286573587484),
]


class TestInverseBetaProfile:
    """The numeric compacton in closed form, against the shooting ODE."""

    @pytest.mark.parametrize("m,n,a,b,g", [
        (2.25, 2.0, 1.0, 1.0, 1.0), (0.5, 0.9, 1.0, -1.0, 1.0), *NUMERIC_DRAWS,
    ], ids=lambda v: f"{v:.4g}")
    def test_agrees_with_shoot(self, m, n, a, b, g):
        # shoot at rtol 1e-12: at its default 1e-10 its own L errs by up to
        # 1.7e-8 at these draws (m = 3.36), above the bound checked here
        params = EquationParams(m=m, n=n, a=a, b=b)
        nc = shoot(params, g, ShootTolerances(rtol=1e-12))
        u_eval = inverse_beta_profile(params, g)
        L = u_eval.L
        assert L == nc.L_quadrature
        assert abs(nc.L_shoot - L) <= 1e-8 * L
        crest = float(u_eval(np.zeros(1))[0])
        assert crest == pytest.approx(nc.U[len(nc.grid) // 2], rel=1e-14)
        assert np.max(np.abs(nc.U - u_eval(nc.grid))) <= 5e-9 * crest

    def test_tail_decays_below_the_smallest_normal(self):
        # alpha = 0.015: the true t = I^-1(y) underflows for y below about
        # 2.4e-6, where betaincinv stops at 2.2e-308 instead of decaying
        params = EquationParams(m=2.0, n=1.03, a=1.0, b=1.0)
        u_eval = inverse_beta_profile(params, 1.0)
        L = u_eval.L
        xs = L * (1.0 - np.geomspace(1.0, 1e-12, 2001))
        U = u_eval(xs)
        positive = U[U > 0]
        assert np.all(np.diff(positive) < 0)
        assert np.all(np.diff(U) <= 0)
        assert U[-1] == 0.0   # the true value, about 1e-800, underflows
        assert u_eval(np.array([L, -L, 2 * L])).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("params,g,words", [
        (EquationParams(m=2.25, n=2.0, a=1.0, b=-1.0), 1.0, "concavity"),
        (EquationParams(m=2.0, n=0.8, a=1.0, b=1.0), 1.0, "not compact"),
        (EquationParams(m=2.25, n=2.0, a=1.0, b=1.0), -1.0, "B/A"),
        (EquationParams(m=2.25, n=2.0, a=1.0, b=1.0), 0.0, "g = 0"),
    ], ids=["concavity", "divergent-tail", "sign", "zero-g"])
    def test_rejections_match_shoot(self, params, g, words):
        with pytest.raises(ProcedureRejection) as shot:
            shoot(params, g)
        with pytest.raises(ProcedureRejection) as closed:
            inverse_beta_profile(params, g)
        assert str(closed.value) == str(shot.value)
        assert words in str(closed.value)


class TestShoot:
    @pytest.mark.parametrize("params,v0_exact", [
        (FIG5_LEFT, (17 / 12) ** 1.6),
        (FIG5_RIGHT, None),
    ], ids=["fig5-left", "fig5-right"])
    def test_reference_runs(self, params, v0_exact):
        start = time.perf_counter()
        nc = shoot(params, 1.0)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        if v0_exact is None:
            c = coefficients(params, 1.0)
            v0_exact = center_amplitude(c, params)
        assert nc.V0 == pytest.approx(v0_exact, abs=1e-10 * v0_exact)
        assert abs(nc.L_shoot - nc.L_quadrature) / nc.L_quadrature < 1e-6
        scale = abs(coefficients(params, 1.0).B) * nc.V0 ** (1 + 1 / params.n)
        assert nc.energy_residual_max / scale < 1e-7
        assert all(r < 1e-6 for r in nc.cutoff_residuals)

    def test_profile_shape(self):
        nc = shoot(FIG5_LEFT, 1.0)
        half = nc.V[nc.grid >= 0]
        assert np.all(np.diff(half) <= 0)          # monotone decay
        assert nc.V[0] == nc.V[-1] == 0.0
        assert np.allclose(nc.V, nc.V[::-1], atol=0)  # exact mirror
        assert np.allclose(nc.U, nc.V ** (1 / FIG5_LEFT.n), atol=1e-14)

    def test_oracle_equivalence_cos1(self):
        params = EquationParams(m=2.0, n=2.0, a=1.0, b=1.0)
        nc = shoot(params, 1.0)
        prof = construct(FamilyId.COS1, n=2)
        dev = np.max(np.abs(nc.U - evaluate(prof, nc.grid)))
        assert dev / evaluate(prof, 0.0) < 1e-6

    def test_oracle_equivalence_cn2(self):
        params = EquationParams(m=3.0, n=2.0, a=1.0, b=1.0)
        nc = shoot(params, 1.0)
        prof = construct(FamilyId.CN2, n=2)
        dev = np.max(np.abs(nc.U - evaluate(prof, nc.grid)))
        assert dev / evaluate(prof, 0.0) < 1e-6

    def test_concavity_rejection(self):
        flipped = EquationParams(m=2.25, n=2.0, a=1.0, b=-1.0)
        with pytest.raises(ProcedureRejection):
            shoot(flipped, 1.0)

    def test_wrong_oscillator_factor_breaks_energy(self):
        # the once-differentiated oscillator carries a factor 1/2; running
        # with factor 2 instead must visibly violate the first integral
        assert oscillator_energy_residual(FIG5_LEFT, 1.0, 0.5) < 1e-7
        assert oscillator_energy_residual(FIG5_LEFT, 1.0, 2.0) > 1e-1

    def test_tolerance_override(self):
        tol = ShootTolerances(rtol=1e-8, grid_points=201)
        nc = shoot(FIG5_LEFT, 1.0, tolerances=tol)
        assert len(nc.grid) == 2 * 201 - 1


class TestLazyIntegrate:
    """``shooting`` loads scipy.integrate on first use, and its names stay
    module attributes that the benchmark's span tracer replaces by name."""

    def test_names_resolve_to_scipy(self):
        assert shooting.solve_ivp is scipy.integrate.solve_ivp
        assert shooting.tanhsinh is scipy.integrate.tanhsinh

    def test_shoot_calls_the_patched_name(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return scipy.integrate.solve_ivp(*args, **kwargs)

        monkeypatch.setattr(shooting, "solve_ivp", counting)
        shoot(FIG5_LEFT, 1.0)
        assert len(calls) == 2   # the crest-to-cutoff run and the tail

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError):
            shooting.nonexistent


class TestSerialization:
    def test_csv(self):
        nc = shoot(FIG5_LEFT, 1.0, tolerances=ShootTolerances(grid_points=101))
        lines = nc.to_csv().strip().splitlines()
        assert lines[0] == "xi,V,U"
        assert len(lines) == len(nc.grid) + 1

    def test_json(self):
        nc = shoot(FIG5_LEFT, 1.0, tolerances=ShootTolerances(grid_points=101))
        data = json.loads(nc.to_json())
        md = data["metadata"]
        assert md["m"] == 2.25 and md["n"] == 2.0
        assert md["V0"] == pytest.approx(nc.V0)
        assert len(data["V"]) == len(nc.grid)
