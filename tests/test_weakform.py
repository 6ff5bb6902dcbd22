"""Test functions, weak-form residuals, and boundary diagnostics."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactons import weakform
from compactons.catalog import FamilyId, construct, evaluate
from compactons.params import EquationParams, InvalidParameters
from compactons.shooting import inverse_beta_profile
from compactons.weakform import (
    TestFunction,
    boundary_quantities,
    bump_battery,
    endpoint_power_fit,
    evaluate_testfn,
    residual_K,
    residual_KP,
    verify_weak,
)

from conftest import DRAWS, profile_eval


class TestTestFunction:
    def test_center_value(self):
        tf = TestFunction(center=0.0, width=1.0)
        assert evaluate_testfn(tf, 0.0) == pytest.approx(math.exp(-1), abs=1e-16)

    def test_zero_at_and_beyond_edge(self):
        tf = TestFunction(center=0.5, width=2.0, modulation_degree=1)
        for order in range(5):
            assert evaluate_testfn(tf, 2.5, order) == 0.0
            assert evaluate_testfn(tf, -1.5, order) == 0.0
            assert evaluate_testfn(tf, 10.0, order) == 0.0

    @pytest.mark.parametrize("degree", [0, 1])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_derivatives_vs_finite_differences(self, degree, order):
        tf = TestFunction(center=0.3, width=1.7, modulation_degree=degree)
        rng = np.random.default_rng(order)
        xs = rng.uniform(-1.3, 1.9, 100)
        h = 1e-6
        fd = (evaluate_testfn(tf, xs + h, order - 1)
              - evaluate_testfn(tf, xs - h, order - 1)) / (2 * h)
        exact = evaluate_testfn(tf, xs, order)
        scale = 1.0 + np.abs(exact)
        assert np.max(np.abs(fd - exact) / scale) < 1e-8

    def test_order_limit(self):
        tf = TestFunction(center=0.0, width=1.0)
        with pytest.raises(InvalidParameters):
            evaluate_testfn(tf, 0.0, 5)

    def test_width_validation(self):
        with pytest.raises(InvalidParameters):
            TestFunction(center=0.0, width=0.0)
        with pytest.raises(InvalidParameters):
            TestFunction(center=0.0, width=1.0, modulation_degree=-1)

    def test_smooth_near_edge(self):
        # values decay to zero without overflow artifacts
        tf = TestFunction(center=0.0, width=1.0)
        xs = np.linspace(0.99, 1.01, 50)
        vals = evaluate_testfn(tf, xs, 4)
        assert np.all(np.isfinite(vals))


def _bump_derivs_pow(y, order):
    """The bump kernel as first written: every term of every order from
    its own ``y**i * v**k``."""
    out = np.zeros_like(y)
    v_inv = 1.0 - y * y
    mask = v_inv > 1.0 / 700.0
    ym, v = y[mask], 1.0 / v_inv[mask]
    acc = np.zeros_like(ym)
    for (i, k), cf in weakform._R[order].items():
        acc += cf * ym ** i * v ** k
    out[mask] = acc * np.exp(-v)
    return out


def _testfn_pow(tf, x, order):
    y = (x - tf.center) / tf.width
    d = tf.modulation_degree
    out = np.zeros_like(y)
    for j in range(min(order, d) + 1):
        falling = math.perm(d, j) * math.comb(order, j)
        out += (falling * (x - tf.center) ** (d - j)
                * _bump_derivs_pow(y, order - j) * tf.width ** (j - order))
    return out


# both signs, y = 0, and both sides of the mask edge 1 - y**2 = 1/700
_Y_EDGE = math.sqrt(1.0 - 1.0 / 700.0)
_YS = np.concatenate([
    np.linspace(-0.999, 0.999, 401), [0.0],
    np.outer([-1.0, 1.0], _Y_EDGE * (1.0 + np.array([-1e-9, -1e-15, 0.0, 1e-15]))).ravel(),
])


class TestSharedKernel:
    """One table for every derivative order against the per-term powers."""

    def test_kernel_matches_per_term_powers(self):
        mask, got = weakform._bump_derivs(_YS, range(5))
        for r in range(5):
            want = _bump_derivs_pow(_YS, r)
            full = np.zeros_like(_YS)
            full[mask] = got[r]
            assert np.max(np.abs(full - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("order", range(5))
    def test_testfn_matches_per_term_powers(self, degree, order):
        tf = TestFunction(center=-0.4, width=1.3, modulation_degree=degree)
        x = tf.center + tf.width * _YS
        want = _testfn_pow(tf, x, order)
        got = evaluate_testfn(tf, x, order)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # every order of one shared table equals its own evaluation
        shared = weakform._testfn_derivs(tf, x, (order, 4))
        assert np.array_equal(shared[0], got)

    @pytest.mark.parametrize("order", range(5))
    def test_kernel_against_mpmath(self, order):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        ys = np.array([-0.93, -0.5, 0.0, 0.21, 0.77, 0.96])
        _, got = weakform._bump_derivs(ys, (order,))
        want = [float(mp.diff(lambda t: mp.exp(-1 / (1 - t * t)), mp.mpf(y), order))
                for y in ys]
        assert np.max(np.abs(got[order] - want)) <= 1e-13 * np.max(np.abs(want))


class TestBumpProperties:
    @given(center=st.floats(-5, 5), width=st.floats(0.1, 5),
           degree=st.integers(0, 1), order=st.integers(0, 4),
           t=st.floats(1.0, 10.0))
    @settings(max_examples=150, deadline=None)
    def test_vanishes_outside_support(self, center, width, degree, order, t):
        tf = TestFunction(center=center, width=width, modulation_degree=degree)
        assert evaluate_testfn(tf, center + t * width, order) == 0.0
        assert evaluate_testfn(tf, center - t * width, order) == 0.0

    @given(center=st.floats(-3, 3), width=st.floats(0.2, 3))
    @settings(max_examples=50, deadline=None)
    def test_even_symmetry_of_plain_bump(self, center, width):
        tf = TestFunction(center=center, width=width)
        for frac in (0.2, 0.5, 0.9):
            left = evaluate_testfn(tf, center - frac * width)
            right = evaluate_testfn(tf, center + frac * width)
            assert left == pytest.approx(right, rel=1e-12)


class TestBattery:
    def test_composition(self):
        L = 2.0
        tfs = bump_battery(L)
        assert len(tfs) == 25
        centers = [tf.center for tf in tfs]
        assert centers[0] == pytest.approx(-1.5 * L)
        assert centers[-1] == pytest.approx(1.5 * L)
        assert {tf.width for tf in tfs} == {0.3 * L, 0.6 * L, 1.2 * L}
        assert {tf.modulation_degree for tf in tfs} == {0, 1}


class TestResiduals:
    def test_locality_exact_zero(self):
        prof = construct(FamilyId.COS1, n=2)
        tf = TestFunction(center=10 * prof.L, width=prof.L)
        assert residual_K(profile_eval(prof), prof.params, prof.g,
                          tf, prof.L) == 0.0
        assert residual_KP(profile_eval(prof), prof.params, prof.g,
                           tf, prof.L) == 0.0

    def test_zero_profile(self):
        params = EquationParams(m=2.0, n=2.0, a=1.0, b=1.0)
        tf = TestFunction(center=0.0, width=1.0)
        assert residual_K(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                          params, 1.0, tf, 1.0) == 0.0

    def test_additivity_over_test_functions(self):
        # the residual functional is linear in phi, so residuals of two
        # bumps sum to the residual of a profile perturbation seen by both
        prof = construct(FamilyId.ZSQ1, n=2)
        ev = profile_eval(prof)
        tf1 = TestFunction(center=0.0, width=0.5 * prof.L)
        tf2 = TestFunction(center=0.2 * prof.L, width=0.5 * prof.L,
                           modulation_degree=1)
        r1 = residual_K(ev, prof.params, prof.g, tf1, prof.L)
        r2 = residual_K(ev, prof.params, prof.g, tf2, prof.L)
        # against a deliberately non-solution profile the sum must match too
        bad = lambda x: ev(x) ** 2
        b1 = residual_K(bad, prof.params, prof.g, tf1, prof.L)
        b2 = residual_K(bad, prof.params, prof.g, tf2, prof.L)
        assert abs((r1 + r2) - (r2 + r1)) == 0.0
        assert abs(b1) > 1e-6 or abs(b2) > 1e-6

    def test_verify_weak_cos1(self):
        prof = construct(FamilyId.COS1, n=2)
        rep = verify_weak(profile_eval(prof), prof.params, prof.g, prof.L, "K")
        assert rep.max_abs_scaled < 1e-8
        assert len(rep.residuals) == 25
        assert rep.quadrature_error_estimate < 1e-10

    def test_verify_weak_KP_zsq1(self):
        prof = construct(FamilyId.ZSQ1, n=2)
        rep = verify_weak(profile_eval(prof), prof.params, prof.g, prof.L, "KP")
        assert rep.max_abs_scaled < 1e-8

    def test_invalid_equation(self):
        prof = construct(FamilyId.COS1, n=2)
        with pytest.raises(InvalidParameters):
            verify_weak(profile_eval(prof), prof.params, prof.g, prof.L, "Q")

    def test_report_json(self):
        prof = construct(FamilyId.COS1, n=2)
        rep = verify_weak(profile_eval(prof), prof.params, prof.g, prof.L, "K")
        data = json.loads(rep.to_json())
        assert data["equation"] == "K"
        assert len(data["residuals"]) == 25


def _integrate_separately(f, pieces, rtol=1e-13):
    """The verifier's integrator before the residual and its norm shared
    nodes: one panel-doubling Gauss-Legendre loop per integrand."""
    def gl(edges):
        mid = 0.5 * (edges[1:] + edges[:-1])
        halfw = 0.5 * (edges[1:] - edges[:-1])
        pts = (mid[:, None] + halfw[:, None] * weakform._GL_NODES[None, :]).ravel()
        vals = np.asarray(f(pts)).reshape(len(mid), -1)
        return float(np.sum(halfw * (vals @ weakform._GL_WEIGHTS)))

    total, err = 0.0, 0.0
    for a, b in pieces:
        n_sub = 4
        prev = gl(np.linspace(a, b, n_sub + 1))
        for _ in range(6):
            n_sub *= 2
            cur = gl(np.linspace(a, b, n_sub + 1))
            delta = abs(cur - prev)
            prev = cur
            if delta <= rtol * max(1.0, abs(cur)):
                break
        total += prev
        err += delta
    return total, err


class TestSharedNodes:
    """Sharing one node set must not move where either integral stops."""

    @pytest.mark.parametrize("family, kw", [
        (FamilyId.ZSQ2, dict(n=1.875, b=-1)),
        (FamilyId.COS1, dict(n=1.00533)),
    ], ids=["zsq2-1.875", "cos1-1.00533"])
    @pytest.mark.parametrize("lo, hi", [(1, 3), (2, 4)], ids=["K", "KP"])
    def test_same_as_separate_loops(self, family, kw, lo, hi):
        prof = construct(family, **kw)
        ev, pr, g = profile_eval(prof), prof.params, prof.g
        for tf in bump_battery(prof.L)[5:20:3]:
            def raw_f(x):
                u = ev(x)
                return ((-g * u + pr.a * u ** pr.m) * evaluate_testfn(tf, x, lo)
                        + pr.b * u ** pr.n * evaluate_testfn(tf, x, hi))

            def norm_f(x):
                return np.abs(pr.b * ev(x) ** pr.n * evaluate_testfn(tf, x, hi))

            pieces = weakform._support_pieces(prof.L, tf, hi)
            raw, err = _integrate_separately(raw_f, pieces)
            norm, _ = _integrate_separately(norm_f, pieces)
            assert weakform._residual(ev, pr, g, tf, prof.L, lo, hi) == (raw, norm, err)


class TestPhiZeroBreaks:
    """The pieces split at every sign change of phi^(order), where the norm
    integrand |b*u**n*phi^(order)| has a kink."""

    @pytest.mark.parametrize("degree", [0, 1])
    @pytest.mark.parametrize("order", [3, 4])
    def test_zeros_are_sign_changes(self, order, degree):
        tf = TestFunction(center=0.3, width=1.7, modulation_degree=degree)
        ys = weakform._phi_zeros(order, degree)
        grid = np.linspace(-1.0, 1.0, 200000)   # y = 0 is not a node
        scale = np.max(np.abs(evaluate_testfn(tf, tf.center + tf.width * grid, order)))
        signs = np.sign(evaluate_testfn(tf, tf.center + tf.width * grid, order))
        # every sign change of the dense grid lies next to one listed zero
        changes = grid[1:][signs[1:] * signs[:-1] < 0]
        assert len(changes) == len(ys)
        for y in ys:
            x = tf.center + tf.width * y
            assert abs(evaluate_testfn(tf, x, order)) <= 1e-12 * scale
            h = 1e-6 * tf.width
            assert evaluate_testfn(tf, x - h, order) * evaluate_testfn(tf, x + h, order) < 0

    def test_zero_table(self):
        # ROADMAP item 11's table, to the four digits it prints
        assert np.round(weakform._phi_zeros(3, 0), 4).tolist() == [
            -0.8951, -0.6105, 0.0, 0.6105, 0.8951]
        assert np.round(weakform._phi_zeros(4, 1), 4).tolist() == [
            -0.9372, -0.8571, -0.5461, 0.0, 0.5461, 0.8571, 0.9372]

    def test_pieces_cover_the_support_once(self):
        L = 2.0
        for tf in bump_battery(L):
            for order in (3, 4):
                pieces = weakform._support_pieces(L, tf, order)
                if not pieces:
                    assert tf.center - tf.width >= L or tf.center + tf.width <= -L
                    continue
                assert pieces[0][0] == max(-L, tf.center - tf.width)
                assert pieces[-1][1] == min(L, tf.center + tf.width)
                assert all(a < b for a, b in pieces)
                assert all(p[1] == q[0] for p, q in zip(pieces, pieces[1:]))


class TestWorkCount:
    """Points given to the profile per report, pinned at the measured count
    plus 10%.  A change that means to move them updates these numbers and
    says so; one that does not must not exceed them."""

    @pytest.mark.parametrize("case,equation,pinned", [
        ((FamilyId.COS1, dict(n=2.0)), "K", 41472),
        ((FamilyId.RATCN5, dict(n=0.5, b=-1)), "KP", 52608),
        ((FamilyId.ZSQ2, dict(n=1.875, b=-1)), "KP", 354688),
        (EquationParams(m=2.25, n=2.0, a=1.0, b=1.0), "K", 41856),
    ], ids=["cos1-2-K", "ratcn5-0.5-KP", "zsq2-1.875-KP", "fig5-left-K"])
    def test_points_per_report(self, case, equation, pinned):
        if isinstance(case, EquationParams):
            params = case
            u_eval, L = inverse_beta_profile(params, 1.0)
        else:
            prof = construct(case[0], **case[1])
            params, u_eval, L = prof.params, profile_eval(prof), prof.L
        seen = []

        def counted(x):   # as perfbench/spans.py wraps it
            seen.append(np.size(x))
            return u_eval(x)

        verify_weak(counted, params, 1.0, L, equation)
        assert sum(seen) <= 1.1 * pinned


class TestBoundaryQuantities:
    def test_cos1_limits_vanish(self):
        prof = construct(FamilyId.COS1, n=2)
        scale = abs(prof.params.a) * evaluate(prof, 0.0) ** prof.params.m
        bq = boundary_quantities(profile_eval(prof), prof.params,
                                 prof.g, prof.L)
        assert all(abs(q) / scale < 1e-5 for q in bq)

    def test_zero_profile(self):
        params = EquationParams(m=2.0, n=2.0, a=1.0, b=1.0)
        bq = boundary_quantities(
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            params, 1.0, 1.0)
        assert bq == (0.0, 0.0, 0.0, 0.0)


class TestNegativeControl:
    @pytest.fixture()
    def clipped_cosine(self):
        # the cosine profile cut off at half height: its support edge sits
        # where U and the once-integrated equation are still nonzero
        prof = construct(FamilyId.COS1, n=2)
        peak = evaluate(prof, 0.0)

        def u_eval(x):
            return np.maximum(evaluate(prof, x) - 0.5 * peak, 0.0)

        return prof, u_eval, prof.L / 2

    def test_residual_blows_up(self, clipped_cosine):
        prof, u_eval, L_cut = clipped_cosine
        rep = verify_weak(u_eval, prof.params, prof.g, L_cut, "K")
        assert rep.max_abs_scaled > 1e-2

    def test_A3_bounded_away_from_zero(self, clipped_cosine):
        prof, u_eval, L_cut = clipped_cosine
        scale = abs(prof.params.a) * evaluate(prof, 0.0) ** prof.params.m
        bq = boundary_quantities(u_eval, prof.params, prof.g, L_cut)
        assert abs(bq[2]) / scale > 1e-2


class TestEndpointPowerFit:
    def test_synthetic_cubic(self):
        L = 2.0
        fit = endpoint_power_fit(
            lambda x: np.maximum(L - np.abs(np.asarray(x, dtype=float)), 0) ** 3,
            L)
        assert fit == pytest.approx(3.0, abs=1e-3)

    def test_nonpositive_samples_rejected(self):
        with pytest.raises(InvalidParameters):
            endpoint_power_fit(
                lambda x: np.zeros_like(np.asarray(x, dtype=float)), 1.0)

    @pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
    def test_recovers_table_power(self, family):
        prof = construct(family, **DRAWS[family][0])
        fit = endpoint_power_fit(profile_eval(prof), prof.L)
        assert fit == pytest.approx(prof.p, rel=0.02)
