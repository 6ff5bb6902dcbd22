"""Numeric compacton computation: reduction, quadrature, and shooting."""

import json
import time

import numpy as np
import pytest

from compactons.catalog import FamilyId, construct, evaluate
from compactons.params import EquationParams, ProcedureRejection
from compactons.shooting import (
    ReducedCoefficients,
    ShootTolerances,
    center_amplitude,
    coefficients,
    concavity_check,
    half_width_quadrature,
    shoot,
)

from conftest import oscillator_energy_residual

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

    def test_divergent_tail_rejected(self):
        # min(1, m) >= n makes the half-width integral diverge
        params = EquationParams(m=2.0, n=0.8, a=1.0, b=-1.0)
        c = coefficients(params, 1.0)
        with pytest.raises(ProcedureRejection):
            half_width_quadrature(c, params, 1.0)


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
