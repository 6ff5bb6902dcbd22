"""End-to-end acceptance criteria for the package.

Each test here states one headline guarantee: the published existence
table, the reference closed-form fixtures, the weak-residual battery
over the whole catalog, the numeric shooting procedure against both its
quadrature and closed-form oracles, and the deliberate negative
controls and audits.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from compactons.catalog import FamilyId, construct, evaluate
from compactons.cli import EXIT_OK, main
from compactons.elliptic import Modulus, complete_K, jacobi
from compactons.existence import classify_family
from compactons.params import EquationParams
from compactons.shooting import ShootTolerances, center_amplitude, coefficients, shoot
from compactons.weakform import (
    boundary_quantities,
    endpoint_power_fit,
    verify_weak,
)

from conftest import DRAWS, oscillator_energy_residual

GOLDEN = Path(__file__).parent / "data" / "table1_golden.csv"

WEAK_ONLY_42 = [
    (FamilyId.ZSQ1, 1.5),
    (FamilyId.COS1, 2.0),
    (FamilyId.CN2, 3.0),
    (FamilyId.SN2, 3.0),
    (FamilyId.RATCN6, 2.5),
]


def test_01_table1_reproduction(capsys):
    start = time.perf_counter()
    assert main(["table1"]) == EXIT_OK
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert out == GOLDEN.read_text()
    assert len(out.strip().splitlines()) == 15  # header + 14 families
    assert elapsed < 1.0


def test_02_intro_fixture():
    prof = construct(FamilyId.COS1, n=2, a=1, b=1, g=1)
    assert prof.alpha == pytest.approx(4 / 3, abs=1e-14)
    assert prof.beta == pytest.approx(0.25, abs=1e-15)
    assert prof.L == pytest.approx(2 * np.pi, abs=1e-10)


def test_03_weak_residual_suite():
    start = time.perf_counter()
    for family in FamilyId:
        for kwargs in DRAWS[family]:
            prof = construct(family, **kwargs)
            rep = verify_weak(prof, prof.params, prof.g, prof.L, "K")
            assert rep.max_abs_scaled < 1e-7, (family, kwargs, rep.max_abs_scaled)
            # weak-KP admissibility per the published table
            var = "m" if family is FamilyId.COS2 else "n"
            cls = classify_family(family, **{var: kwargs[var],
                                             "b": kwargs.get("b", 1.0)})
            if cls.weak_KP is not None:
                rep_kp = verify_weak(prof, prof.params, prof.g, prof.L, "KP")
                assert rep_kp.max_abs_scaled < 1e-7, (family, kwargs)
    assert time.perf_counter() - start < 120.0


@pytest.mark.parametrize("family,m_expected",
                         WEAK_ONLY_42, ids=lambda v: str(v))
def test_04_weak_only_fixtures_at_n2(family, m_expected):
    prof = construct(family, n=2, a=1, b=1, g=1)
    assert prof.params.m == pytest.approx(m_expected, abs=1e-14)
    rep = classify_family(family, n=2)
    assert rep.weak_K and rep.weak_KP is not None
    assert not rep.strong_K and not rep.strong_KP
    for eq in ("K", "KP"):
        assert verify_weak(prof, prof.params, prof.g, prof.L,
                           eq).max_abs_scaled < 1e-7


@pytest.mark.parametrize("m_power,family", [(2.0, FamilyId.COS1),
                                            (3.0, FamilyId.CN2)],
                         ids=["cos1", "cn2"])
def test_05_numeric_analytic_oracle_equivalence(m_power, family):
    params = EquationParams(m=m_power, n=2.0, a=1.0, b=1.0)
    nc = shoot(params, 1.0)
    prof = construct(family, n=2)
    dev = np.max(np.abs(nc.U - evaluate(prof, nc.grid)))
    assert dev / evaluate(prof, 0.0) < 1e-6


@pytest.mark.parametrize("params", [
    EquationParams(m=2.25, n=2.0, a=1.0, b=1.0),
    EquationParams(m=0.5, n=0.9, a=1.0, b=-1.0),
], ids=["fig5-left", "fig5-right"])
def test_06_numeric_reference_runs(params):
    start = time.perf_counter()
    nc = shoot(params, 1.0)
    assert time.perf_counter() - start < 5.0
    c = coefficients(params, 1.0)
    v0 = center_amplitude(c, params)
    assert nc.V0 == pytest.approx(v0, abs=1e-10 * v0)
    if params.m == 2.25:
        assert v0 == pytest.approx((17 / 12) ** 1.6, rel=1e-14)
    assert abs(nc.L_shoot - nc.L_quadrature) / nc.L_quadrature < 1e-6
    scale = abs(c.B) * nc.V0 ** (1 + 1 / params.n)
    assert nc.energy_residual_max / scale < 1e-7
    assert all(r < 1e-6 for r in nc.cutoff_residuals)


def test_07_endpoint_power_recovery():
    for family in FamilyId:
        prof = construct(family, **DRAWS[family][0])
        fit = endpoint_power_fit(prof, prof.L)
        assert fit == pytest.approx(prof.p, rel=0.02), family


def test_08_elliptic_identity_suite():
    rng = np.random.default_rng(2024)
    z = rng.uniform(-10, 10, 1000)
    k = rng.uniform(0.0, 0.999, 1000)
    for zi, ki in zip(z, k):
        sn, cn, dn = jacobi(zi, ki)
        assert abs(sn * sn + cn * cn - 1) < 1e-12
        assert abs(dn * dn - (1 - (ki * sn) ** 2)) < 1e-12
    for zi, ki in zip(z[:200], rng.uniform(0.05, 3.0, 200)):
        sn, cn, dn = jacobi(zi, Modulus.imaginary(ki))
        assert abs(sn * sn + cn * cn - 1) < 1e-10
        assert abs(dn * dn - (1 + (ki * sn) ** 2)) < 1e-10
    kq = 1 / np.sqrt(2)
    agm_a, agm_b = 1.0, np.sqrt(1 - kq * kq)
    for _ in range(60):
        agm_a, agm_b = 0.5 * (agm_a + agm_b), np.sqrt(agm_a * agm_b)
    assert abs(complete_K(kq) - np.pi / (2 * agm_a)) < 1e-12


def test_09_negative_control():
    prof = construct(FamilyId.COS1, n=2)
    peak = evaluate(prof, 0.0)

    def clipped(x):
        return np.maximum(evaluate(prof, x) - 0.5 * peak, 0.0)

    L_cut = prof.L / 2
    rep = verify_weak(clipped, prof.params, prof.g, L_cut, "K")
    assert rep.max_abs_scaled > 1e-2
    bq = boundary_quantities(clipped, prof.params, prof.g, L_cut)
    scale = abs(prof.params.a) * peak ** prof.params.m
    assert abs(bq[2]) / scale > 1e-2


def test_10_published_inconsistency_audits():
    # audit 1: the once-differentiated oscillator equation carries a
    # factor 1/2; the printed factor-2 variant breaks the first integral
    params = EquationParams(m=2.25, n=2.0, a=1.0, b=1.0)
    c = coefficients(params, 1.0)
    nc_good = shoot(params, 1.0)
    scale = abs(c.B) * nc_good.V0 ** (1 + 1 / params.n)
    assert nc_good.energy_residual_max / scale < 1e-7
    assert oscillator_energy_residual(params, 1.0, 2.0) > 1e-1

    # audit 2: the printed half-width formula of the m-parameterized
    # cosine family differs from the actual first zero by |g|/|b|
    from compactons.catalog import printed_half_width
    prof = construct(FamilyId.COS2, m=0.25, g=2.0, b=-3.0)
    assert printed_half_width(prof) / prof.L == pytest.approx(2 / 3, rel=1e-12)
