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

from conftest import DRAWS, NUMERIC_POINTS, case_id, profile_at

_EQUATIONS = pytest.mark.parametrize("lo, hi", [(1, 3), (2, 4)], ids=["K", "KP"])


class TestTestFunction:
    def test_center_value(self):
        tf = TestFunction(center=0.0, width=1.0)
        assert evaluate_testfn(tf, 0.0) == pytest.approx(math.exp(-1), abs=1e-16)

    def test_zero_at_and_beyond_edge(self):
        tf = TestFunction(center=0.5, width=2.0, modulation_degree=1)
        for order in range(5):
            for x in (2.5, -1.5, 10.0, 1e200, -math.inf, math.nan):
                assert evaluate_testfn(tf, x, order) == 0.0

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

    @pytest.mark.parametrize("order", range(5))
    def test_shape_contract(self, order):
        # a 0-d input gives a float, any other shape an array of that shape
        # whose entries are those of its ravel, bit for bit
        tf = TestFunction(center=0.3, width=1.7, modulation_degree=2)
        got = evaluate_testfn(tf, np.float64(0.5), order)
        assert type(got) is float and got == evaluate_testfn(tf, [0.5], order)[0]
        xs = np.linspace(-1.6, 2.2, 12).reshape(3, 4)
        grid = evaluate_testfn(tf, xs, order)
        assert grid.shape == (3, 4)
        assert np.array_equal(grid.ravel(), evaluate_testfn(tf, xs.ravel(), order))
        assert evaluate_testfn(tf, np.array([]), order).shape == (0,)

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
        got = weakform._bump_derivs(_YS, range(5))
        for r in range(5):
            want = _bump_derivs_pow(_YS, r)
            assert np.max(np.abs(got[r] - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("order", range(5))
    def test_testfn_matches_per_term_powers(self, degree, order):
        tf = TestFunction(center=-0.4, width=1.3, modulation_degree=degree)
        x = tf.center + tf.width * _YS
        want = _testfn_pow(tf, x, order)
        got = evaluate_testfn(tf, x, order)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # every order of one shared table equals its own evaluation
        shared = weakform._testfn_derivs(weakform._bump_constants([tf]), np.zeros(1, dtype=int),
                                         x[None], (order, 4))
        assert np.array_equal(shared[0][0], got)

    def test_leibniz_uses_scalar_width_powers(self):
        # a table over bumps of mixed degree against the one-bump Leibniz
        # sum with tf.width ** (j - order) as a Python float; numpy's array
        # power rounds some of these widths differently in the last place
        widths = np.random.default_rng(7).uniform(0.05, 5.0, 40)
        assert np.any(widths ** -3 != [w ** -3 for w in widths.tolist()])
        tfs = [TestFunction(center=0.1 * i, width=w, modulation_degree=i % 4)
               for i, w in enumerate(widths.tolist())]
        # one row per bump, in runs of one degree each
        x = np.array([tf.center + tf.width * _YS for tf in tfs])
        table = weakform._testfn_derivs(weakform._bump_constants(tfs), np.arange(len(tfs)),
                                        x, range(5))
        for i, tf in enumerate(tfs):
            xc = x[i] - tf.center
            B = weakform._bump_derivs(xc / tf.width, range(5))
            d = tf.modulation_degree
            XC = weakform._powers(xc, d)
            for order in range(5):
                acc = np.zeros(len(xc))
                for j in range(min(order, d) + 1):
                    acc += (math.perm(d, j) * math.comb(order, j) * XC[d - j]
                            * B[order - j] * tf.width ** (j - order))
                assert np.array_equal(table[order][i], acc)

    @pytest.mark.parametrize("order", range(5))
    def test_kernel_against_mpmath(self, order):
        mp = pytest.importorskip("mpmath")
        ys = np.array([-0.93, -0.5, 0.0, 0.21, 0.77, 0.96])
        got = weakform._bump_derivs(ys, (order,))
        with mp.workdps(30):
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
        assert residual_K(prof, prof.params, prof.g,
                          tf, prof.L) == 0.0
        assert residual_KP(prof, prof.params, prof.g,
                           tf, prof.L) == 0.0

    def test_zero_profile(self):
        params = EquationParams(m=2.0, n=2.0, a=1.0, b=1.0)
        tf = TestFunction(center=0.0, width=1.0)
        assert residual_K(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                          params, 1.0, tf, 1.0) == 0.0

    @pytest.mark.parametrize("squared", [False, True], ids=["exact", "squared"])
    @_EQUATIONS
    def test_linear_in_the_test_function(self, squared, lo, hi):
        # R(phi1) + R(phi2) = R(phi1 + phi2): the verifier's residuals of two
        # bumps of different degrees, summed, against mpmath's quadrature of
        # the node-by-node sum of their integrands, on the verifier's breaks.
        # Measured: |difference| <= 4.9e-16 of the summed norms, the error
        # estimates <= 8e-16; the squared profile is no solution, so its
        # residuals are far from 0 (1.7e-4 of the norms for K, -4.5e-3 for KP)
        mp = pytest.importorskip("mpmath")
        prof = construct(FamilyId.ZSQ1, n=2)
        pr, g, L = prof.params, prof.g, prof.L
        u = (lambda x: prof(x) ** 2) if squared else prof
        tfs = [TestFunction(center=0.0, width=0.5 * L),
               TestFunction(center=0.2 * L, width=0.5 * L, modulation_degree=1)]

        def summed(x):
            x = float(x)
            uu = float(u(np.array([x]))[0])
            phi_lo, phi_hi = (sum(evaluate_testfn(tf, x, r) for tf in tfs) for r in (lo, hi))
            return (-g * uu + pr.a * uu ** pr.m) * phi_lo + pr.b * uu ** pr.n * phi_hi

        x0, x1, _, _ = weakform._partition(tfs, L)
        with mp.workdps(15):
            whole = float(mp.quad(summed, [x0[0], *x1]))
        raws, norms, _ = weakform._residuals(u, pr, g, tfs, L, lo, hi)
        assert abs(whole - raws.sum()) <= 1e-14 * norms.sum(), (whole, raws.sum())
        if squared:
            assert abs(whole) > 1e-6 * norms.sum()

    def test_verify_weak_cos1(self):
        prof = construct(FamilyId.COS1, n=2)
        rep = verify_weak(prof, prof.params, prof.g, prof.L, "K")
        assert rep.max_abs_scaled < 1e-8
        assert len(rep.residuals) == 25
        assert rep.quadrature_error_estimate < 1e-10

    def test_verify_weak_KP_zsq1(self):
        prof = construct(FamilyId.ZSQ1, n=2)
        rep = verify_weak(prof, prof.params, prof.g, prof.L, "KP")
        assert rep.max_abs_scaled < 1e-8

    def test_invalid_equation(self):
        prof = construct(FamilyId.COS1, n=2)
        with pytest.raises(InvalidParameters):
            verify_weak(prof, prof.params, prof.g, prof.L, "Q")

    def test_report_json(self):
        prof = construct(FamilyId.COS1, n=2)
        rep = verify_weak(prof, prof.params, prof.g, prof.L, "K")
        data = json.loads(rep.to_json())
        assert data["equation"] == "K"
        assert len(data["residuals"]) == 25


def _profile_of(case):
    """(u_eval, params, L) of a catalog (family, kwargs) pair, or of the
    inverse-beta profile at g = 1 for an EquationParams."""
    if isinstance(case, EquationParams):
        prof = inverse_beta_profile(case, 1.0)
    else:
        prof = construct(case[0], **case[1])
    return prof, prof.params, prof.L


_FIG5_LEFT = EquationParams(m=2.25, n=2.0, a=1.0, b=1.0)


def _integrands(ev, pr, g, tf, lo, hi):
    """The raw and norm integrands of one bump at one point, from one
    phi table."""
    def both(x):
        x = np.array([float(x)])
        u = ev(x)
        phi_lo, phi_hi = (phi[0] for phi in weakform._testfn_derivs(
            weakform._bump_constants([tf]), np.zeros(1, dtype=int), x[None], (lo, hi)))
        disp = pr.b * u ** pr.n * phi_hi
        return float(((-g * u + pr.a * u ** pr.m) * phi_lo + disp)[0]), abs(float(disp[0]))

    return (lambda x: both(x)[0]), (lambda x: both(x)[1])


_ZSQ2, _COS1 = (FamilyId.ZSQ2, dict(n=1.875, b=-1)), (FamilyId.COS1, dict(n=1.00533))


class TestSharedNodes:
    """The battery's raw residuals and norms, integrated on one node set,
    against mpmath's quadrature of each bump's two integrands apart, on
    the same breaks.  The norm is only a scale, and its integrand has
    kinks at the zeros of phi^(hi), where neither side splits.  (At
    p ~ 375 the bumps that see only the far tail, where U < 1e-44, are left
    out: there mp.quad needs the support cut into ~1000 pieces before it
    agrees with the verifier.)"""

    @pytest.mark.parametrize("case, lo, hi, raw_tol", [
        pytest.param(_ZSQ2, 1, 3, 1e-14, id="K-zsq2-1.875"),
        pytest.param(_ZSQ2, 2, 4, 1e-14, id="KP-zsq2-1.875"),
        # p ~ 375: the integrand's own rounding, 1.0e-12 of the norm
        pytest.param(_COS1, 1, 3, 1e-11, id="K-cos1-1.00533"),
        pytest.param(_COS1, 2, 4, 1e-11, id="KP-cos1-1.00533"),
        pytest.param((FamilyId.COS2, dict(m=0.125, b=-1)), 2, 4, 1e-14, id="KP-cos2-0.125"),
        pytest.param(_FIG5_LEFT, 1, 3, 1e-14, id="K-fig5-left"),
    ])
    def test_same_as_separate_loops(self, case, lo, hi, raw_tol):
        mp = pytest.importorskip("mpmath")
        ev, pr, L = _profile_of(case)
        tfs = bump_battery(L)
        raws, norms, _ = weakform._residuals(ev, pr, 1.0, tfs, L, lo, hi)
        x0, x1, pb, pj = weakform._partition(tfs, L)
        for i in (8, 12, 13):   # every width, both degrees, one at the edge
            raw_f, norm_f = _integrands(ev, pr, 1.0, tfs[i], lo, hi)
            mine = pj[pb == i]
            breaks = [x0[mine[0]], *x1[mine]]
            with mp.workdps(15):
                raw, norm = float(mp.quad(raw_f, breaks)), float(mp.quad(norm_f, breaks))
            assert abs(raws[i] - raw) <= raw_tol * norm, (i, raws[i], raw, norm)
            assert abs(norms[i] - norm) <= 1e-3 * norm, (i, norms[i], norm)


_BATCH_CASES = pytest.mark.parametrize("case, raw_tol", [
    pytest.param(_ZSQ2, 1e-14, id="zsq2-1.875"),
    # the profiles' own edge floors: 2.5e-12 and 1.1e-11 of the norm
    pytest.param(_COS1, 1e-11, id="cos1-1.00533"),
    pytest.param((FamilyId.RATCN5, dict(n=0.345, b=-1)), 5e-11, id="ratcn5-0.345"),
    pytest.param(_FIG5_LEFT, 1e-14, id="fig5-left"),
])


def _same_as_battery_of_one(ev, pr, g, tfs, L, lo, hi, raw_tol):
    """Each bump of a battery integrated with the others agrees with that
    bump alone, whose partition has only its own ends: the raw integral to
    ``raw_tol`` of the norm, and the scaled residual to ``raw_tol``.  The
    norm itself is only a scale: a lone bump whose raw integral is 0 by
    symmetry (degree 0 at the center, K) stops at the first check, with
    its norm under-resolved."""
    raws, norms, errs = weakform._residuals(ev, pr, g, tfs, L, lo, hi)
    for i, tf in enumerate(tfs):
        raw, norm, _ = weakform._residual(ev, pr, g, tf, L, lo, hi)
        assert abs(raws[i] - raw) <= raw_tol * norm, (i, raws[i], raw, norm)
        if norm > 0:
            assert abs(raws[i] / norms[i] - raw / norm) <= raw_tol, (i, norms[i], norm)
    return raws, norms, errs


# (center, width) in units of L and the degree of a user battery's bumps:
# degrees 0-3, one bump outside the support
_ANY_DEGREE = [(-0.4, 0.7, 0), (0.1, 0.5, 1), (0.6, 0.9, 2),
               (-0.9, 0.4, 3), (0.3, 1.5, 3), (5.0, 1.0, 2)]


class TestBatchedLevels:
    """A report integrates its whole battery level by level on one joint
    partition: each bump agrees with itself integrated alone, and the
    size of the phi tables moves no bit."""

    @_BATCH_CASES
    @_EQUATIONS
    def test_battery_same_as_separate_loops(self, case, raw_tol, lo, hi):
        ev, pr, L = _profile_of(case)
        _same_as_battery_of_one(ev, pr, 1.0, bump_battery(L), L, lo, hi, raw_tol)

    @_BATCH_CASES
    @_EQUATIONS
    @pytest.mark.parametrize("chunk", [128, 2 ** 20])
    def test_chunk_size_does_not_move_a_bit(self, monkeypatch, case, raw_tol, lo, hi,
                                            chunk):
        ev, pr, L = _profile_of(case)
        default = weakform._TABLE
        for tfs in (bump_battery(L), None):   # passed in, and verify_weak's kept one
            results = []
            for size in (default, chunk):
                monkeypatch.setattr(weakform, "_TABLE", size)
                monkeypatch.setattr(weakform, "_UNIT_TABLES", {})
                results.append(weakform._residuals(ev, pr, 1.0, tfs, L, lo, hi))
            for w, x in zip(*results):
                assert np.array_equal(w, x)

    @_EQUATIONS
    def test_user_battery_any_degree(self, lo, hi):
        prof = construct(FamilyId.CN2, n=2.0)
        L = prof.L
        tfs = [TestFunction(center=c * L, width=w * L, modulation_degree=d)
               for c, w, d in _ANY_DEGREE]
        batched = _same_as_battery_of_one(prof, prof.params, prof.g, tfs, L, lo, hi, 1e-14)
        assert [a[-1] for a in batched] == [0.0, 0.0, 0.0]
        raws, norms, _ = batched
        assert max(abs(r / nm) for r, nm in zip(raws[:-1], norms[:-1])) < 1e-8

    @_EQUATIONS
    @pytest.mark.parametrize("chunk", [128, None], ids=["128", "default"])
    def test_battery_permutation_moves_no_bit(self, monkeypatch, lo, hi, chunk):
        # the table's rows are grouped by degree, so a bump's place in the
        # battery must not reach its raw residual, norm or error estimate
        prof = construct(FamilyId.CN2, n=2.0)
        L = prof.L
        tfs = bump_battery(L) + [TestFunction(center=c * L, width=w * L, modulation_degree=d)
                                 for c, w, d in _ANY_DEGREE]
        if chunk is not None:
            monkeypatch.setattr(weakform, "_TABLE", chunk)
        want = weakform._residuals(prof, prof.params, prof.g, tfs, L, lo, hi)
        perm = np.random.default_rng(35).permutation(len(tfs))
        got = weakform._residuals(prof, prof.params, prof.g, [tfs[i] for i in perm], L, lo, hi)
        for w, g in zip(want, got):
            assert np.array_equal(w[perm], g)


def _kept_report(case, lo, hi):
    """`verify_weak`'s raw residuals, norms and error estimates."""
    ev, pr, L = _profile_of(case)
    return weakform._residuals(ev, pr, 1.0, None, L, lo, hi)


class TestUnitTables:
    """The unit battery's tables of levels 0 to _CACHED are kept for the
    process and filled pair by pair: what a report reads from them is what
    it would build, and they hold at most 2.2 MB."""

    @_EQUATIONS
    def test_cold_report_equals_warm(self, monkeypatch, lo, hi):
        monkeypatch.setattr(weakform, "_UNIT_TABLES", {})
        cold = _kept_report(_ZSQ2, lo, hi)
        # start again, and fill the tables first from the other equation and
        # from profiles whose intervals stop at other levels, so that the
        # report reads rows that other reports built
        monkeypatch.setattr(weakform, "_UNIT_TABLES", {})
        for case in (_FIG5_LEFT, (FamilyId.RATCN5, dict(n=0.5, b=-1))):
            for orders in ((1, 3), (2, 4)):
                _kept_report(case, *orders)
        for warm in (_kept_report(_ZSQ2, lo, hi), _kept_report(_ZSQ2, lo, hi)):
            for c, w in zip(cold, warm):
                assert np.array_equal(c, w)

    @_EQUATIONS
    def test_given_unit_battery_is_the_kept_one(self, monkeypatch, lo, hi):
        # at L = 1 a battery passed in is bump_battery(1) in s, bit for bit,
        # and goes through the builder with nothing kept
        prof = construct(FamilyId.CN2, n=2.0)
        monkeypatch.setattr(weakform, "_UNIT_TABLES", {})

        def unit(s):
            return prof(prof.L * np.asarray(s, dtype=float))

        given = weakform._residuals(unit, prof.params, prof.g, bump_battery(1.0), 1.0, lo, hi)
        assert weakform._UNIT_TABLES == {}
        for _ in ("cold", "warm"):
            kept = weakform._residuals(unit, prof.params, prof.g, None, 1.0, lo, hi)
            for g, k in zip(given, kept):
                assert np.array_equal(g, k)
        assert np.count_nonzero(given[1]) > 20

    def test_kept_tables_are_bounded(self, monkeypatch):
        monkeypatch.setattr(weakform, "_UNIT_TABLES", {})
        for case in (_ZSQ2, _COS1, _FIG5_LEFT):
            for orders in ((1, 3), (2, 4)):
                _kept_report(case, *orders)
        kept = weakform._UNIT_TABLES
        # levels 0-4: 304 pairs x 225 nodes x 8 bytes for each of four orders
        assert sum(t.nbytes for tables, _ in kept.values() for t in tables) <= 2_188_800
        assert {level for _, _, level in kept} == set(range(weakform._CACHED + 1))

    def test_user_test_function_keeps_nothing(self, monkeypatch):
        prof = construct(FamilyId.CN2, n=2.0)
        monkeypatch.setattr(weakform, "_UNIT_TABLES", {})
        _kept_report((FamilyId.CN2, dict(n=2.0)), 1, 3)
        before = {key: filled.copy() for key, (_, filled) in weakform._UNIT_TABLES.items()}
        tf = TestFunction(center=0.1 * prof.L, width=0.7 * prof.L, modulation_degree=2)
        for residual in (residual_K, residual_KP):
            assert residual(prof, prof.params, prof.g, tf, prof.L) != 0.0
        assert weakform._UNIT_TABLES.keys() == before.keys()
        for key, filled in before.items():
            assert np.array_equal(weakform._UNIT_TABLES[key][1], filled)


class TestJointPartition:
    def test_intervals_cover_each_support_once(self):
        L = 2.0
        tfs = bump_battery(L)
        x0, x1, pb, pj = weakform._partition(tfs, L)
        assert x0[0] == -L and x1[-1] == L
        assert np.all(x0 < x1) and np.all(x1[:-1] <= x0[1:])
        for i, tf in enumerate(tfs):
            mine = pj[pb == i]
            if not mine.size:
                assert tf.center - tf.width >= L or tf.center + tf.width <= -L
                continue
            # contiguous, from the bump's first end inside [-L, L] to its last
            assert np.array_equal(mine, np.arange(mine[0], mine[-1] + 1))
            assert np.all(x1[mine[:-1]] == x0[mine[1:]])
            tol = 1e-12 * L
            assert abs(x0[mine[0]] - max(-L, tf.center - tf.width)) <= tol
            assert abs(x1[mine[-1]] - min(L, tf.center + tf.width)) <= tol

    def test_close_ends_merge_and_uncovered_intervals_go(self):
        # ends 1e-14 and 2e-16 apart are one break (the tolerance is 1e-12
        # times the narrowest width), and (-1, -0.5) and (0.5, 1), which no
        # bump covers, are dropped
        tfs = [TestFunction(center=0.0, width=0.5),
               TestFunction(center=1e-14, width=0.5),
               TestFunction(center=0.2, width=0.3 + 2e-16)]
        x0, x1, pb, pj = weakform._partition(tfs, 1.0)
        assert x0.tolist() == [-0.5, pytest.approx(-0.1, abs=1e-15)]
        assert x1.tolist() == [x0[1], 0.5]
        assert list(zip(pb.tolist(), pj.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)]


class TestWorkCount:
    """Points given to the profile per report, and the calls that give
    them; (pair, node) entries built into phi tables, and the tables that
    hold them, by a report that finds no kept table (cold) and by the same
    report again (warm), which builds only below the kept levels.  Each
    count is pinned at the measured count plus 10%.  A change that means to
    move them updates these numbers and says so; one that does not must not
    exceed them."""

    @pytest.mark.parametrize("case,equation,pinned,calls,entries,tables,warm,warm_tables", [
        ((FamilyId.COS1, dict(n=2.0)), "K", 6412, 6, 69968, 21, 11872, 3),
        ((FamilyId.RATCN5, dict(n=0.5, b=-1)), "KP", 8204, 6, 90800, 27, 30016, 8),
        (_ZSQ2, "KP", 8540, 6, 94496, 28, 32480, 9),
        (_FIG5_LEFT, "K", 6412, 6, 69968, 21, 11872, 3),
    ], ids=["cos1-2-K", "ratcn5-0.5-KP", "zsq2-1.875-KP", "fig5-left-K"])
    def test_points_per_report(self, monkeypatch, case, equation, pinned, calls, entries,
                               tables, warm, warm_tables):
        u_eval, params, L = _profile_of(case)
        seen, built = [], []

        def counted(x):   # as perfbench/spans.py wraps it
            seen.append(np.size(x))
            return u_eval(x)

        def counted_table(bumps, rows, x, orders):   # x holds one node per entry
            built.append(x.shape)
            return table(bumps, rows, x, orders)

        table = weakform._testfn_derivs
        monkeypatch.setattr(weakform, "_testfn_derivs", counted_table)
        monkeypatch.setattr(weakform, "_UNIT_TABLES", {})   # nothing kept yet
        for most_entries, most_tables in ((entries, tables), (warm, warm_tables)):
            seen.clear()
            built.clear()
            verify_weak(counted, params, 1.0, L, equation)
            assert sum(seen) <= 1.1 * pinned
            assert len(seen) <= 1.1 * calls
            assert sum(rows * nodes for rows, nodes in built) <= 1.1 * most_entries
            assert len(built) <= 1.1 * most_tables
        # the warm report builds nothing at the kept levels, whose intervals
        # have at most as many new nodes as level _CACHED
        kept_nodes = len(weakform._tanh_sinh(weakform._CACHED)[2])
        assert all(nodes > kept_nodes for _, nodes in built)


class TestScalingInvariance:
    """U -> lam*U(xi/mu) maps the unit-coefficient profile onto the one at
    (a, b, g); every term of the K and KP integrands then scales by the
    same factor against a battery that scales with L, so each bump's
    scaled residual is invariant up to quadrature error."""

    @pytest.mark.parametrize("family", [FamilyId.COS1, FamilyId.CN2, FamilyId.RATCN5,
                                        FamilyId.ZSQ2], ids=lambda f: f.value)
    @pytest.mark.parametrize("equation", ["K", "KP"])
    def test_scaled_residuals_invariant(self, family, equation):
        kw = DRAWS[family][0]
        unit = construct(family, **kw)
        prof = construct(family, **{**kw, "a": 2.7, "b": 0.35 * kw.get("b", 1.0), "g": 1.9})
        assert prof.L != unit.L
        want = verify_weak(unit, unit.params, unit.g, unit.L, equation)
        got = verify_weak(prof, prof.params, prof.g, prof.L, equation)
        assert np.max(np.abs(np.subtract(got.residuals, want.residuals))) <= 1e-13

    @pytest.mark.parametrize("point", NUMERIC_POINTS, ids=case_id)
    @pytest.mark.parametrize("equation", ["K", "KP"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_numeric_scaled_residuals_invariant(self, point, equation, sign):
        # (a, b, g) -> -(a, b, g) leaves U alone and negates the raw
        # residual, so sign(g) times the scaled residual is the invariant
        unit = inverse_beta_profile(point, 1.0)
        params = EquationParams(m=point.m, n=point.n, a=2.7 * sign, b=0.35 * sign * point.b)
        prof = inverse_beta_profile(params, 1.9 * sign)
        assert prof.L != unit.L
        want = verify_weak(unit, unit.params, unit.g, unit.L, equation)
        got = verify_weak(prof, prof.params, prof.g, prof.L, equation)
        assert np.max(np.abs(sign * np.array(got.residuals) - want.residuals)) <= 1e-13


class TestBoundaryQuantities:
    def test_cos1_limits_vanish(self):
        prof = construct(FamilyId.COS1, n=2)
        scale = abs(prof.params.a) * evaluate(prof, 0.0) ** prof.params.m
        bq = boundary_quantities(prof, prof.params,
                                 prof.g, prof.L)
        assert all(abs(q) / scale < 1e-5 for q in bq)

    def test_zero_profile(self):
        # a stencil of zeros measures nothing: unavailable, not (0, 0, 0, 0)
        params = EquationParams(m=2.0, n=2.0, a=1.0, b=1.0)
        with pytest.raises(InvalidParameters, match="0 on the whole edge stencil"):
            boundary_quantities(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                                params, 1.0, 1.0)

    def test_underflowed_stencil(self):
        # p ~ 375: U underflows to 0 on all of [L - 1e-3 L, L)
        prof = construct(FamilyId.COS1, n=1.00533)
        assert not np.any(evaluate(prof, prof.L * np.linspace(0.999, 1.0, 7)))
        with pytest.raises(InvalidParameters, match="0 on the whole edge stencil"):
            boundary_quantities(prof, prof.params, prof.g, prof.L)


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

    @pytest.mark.parametrize("case", list(FamilyId) + NUMERIC_POINTS, ids=case_id)
    def test_recovers_table_power(self, case):
        prof = profile_at(case)
        fit = endpoint_power_fit(prof, prof.L)
        assert fit == pytest.approx(prof.p, rel=0.02)
