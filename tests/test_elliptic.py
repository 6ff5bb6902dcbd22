"""Elliptic function identities, oracle agreement, and domain handling."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from compactons.elliptic import (
    DomainError,
    Modulus,
    agm,
    complete_K,
    inverse_cn,
    jacobi,
)


def _agm_oracle(a, b):
    # independent inline AGM, deliberately not the package implementation
    for _ in range(60):
        a, b = 0.5 * (a + b), (a * b) ** 0.5
    return a


# the RATCN modulus of the catalog, sqrt(2)(sqrt(3) + 1)/4
_K_HIGH = 2 ** 0.5 * (3 ** 0.5 + 1.0) / 4.0


class TestCompleteK:
    def test_k_zero(self):
        assert complete_K(0.0) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_half_sqrt2_vs_agm_oracle(self):
        k = 1 / np.sqrt(2)
        oracle = np.pi / (2 * _agm_oracle(1.0, np.sqrt(1 - k * k)))
        assert abs(complete_K(k) - oracle) < 1e-12

    def test_vs_scipy(self):
        for k in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            assert complete_K(k) == pytest.approx(special.ellipk(k * k), rel=1e-13)

    def test_imaginary_unit_modulus(self):
        # K(i) = K(1/sqrt(2)) / sqrt(2), the lemniscatic value
        val = complete_K(Modulus.imaginary(1.0))
        assert val == pytest.approx(1.3110287771460596, abs=1e-13)
        assert val == pytest.approx(complete_K(1 / np.sqrt(2)) / np.sqrt(2),
                                    abs=1e-13)

    def test_imaginary_modulus_vs_mpmath(self):
        # K(i*kappa) = K(m = -kappa**2); one AGM, without the real-modulus
        # detour K(kappa/sqrt(1+kappa**2))/sqrt(1+kappa**2) and its second
        # rounding (up to 3.0e-16 here; 1.4e-16 measured now)
        mpmath.mp.dps = 40
        for kappa in (0.25, 0.5, 1.0, 2.0, 5.0):
            want = mpmath.ellipk(-mpmath.mpf(kappa) ** 2)
            got = complete_K(Modulus.imaginary(kappa))
            assert abs(mpmath.mpf(got) - want) <= 1.5e-16 * want, kappa

    def test_divergent_real_modulus(self):
        with pytest.raises(DomainError):
            complete_K(1.0)

    def test_agm_basics(self):
        assert agm(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert agm(1.0, 2.0) == pytest.approx(agm(2.0, 1.0), abs=1e-14)


class TestRealModulusIdentities:
    def test_identity_suite_1000_points(self):
        rng = np.random.default_rng(42)
        z = rng.uniform(-10, 10, 1000)
        k = rng.uniform(0.0, 0.999, 1000)
        for zi, ki in zip(z, k):
            sn, cn, dn = jacobi(zi, ki)
            assert abs(sn * sn + cn * cn - 1) < 1e-12
            assert abs(dn * dn - (1 - (ki * sn) ** 2)) < 1e-12

    def test_vs_scipy_ellipj(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(-8, 8, 200)
        k = rng.uniform(0.0, 0.99, 200)
        for zi, ki in zip(z, k):
            sn, cn, dn = jacobi(zi, ki)
            s, c, d, _ = special.ellipj(zi, ki * ki)
            assert abs(sn - s) < 1e-11
            assert abs(cn - c) < 1e-11
            assert abs(dn - d) < 1e-11

    def test_quarter_period_points(self):
        # dn at odd multiples of K is where naive descent formulas are 0/0
        for k in (0.3, 0.7, 1 / np.sqrt(2), 0.95):
            K = complete_K(k)
            kp = np.sqrt(1 - k * k)
            sn, cn, dn = jacobi(K, k)
            assert abs(sn - 1) < 1e-12
            assert abs(cn) < 1e-12
            assert abs(dn - kp) < 1e-12
            sn2, cn2, dn2 = jacobi(2 * K, k)
            assert abs(sn2) < 1e-11
            assert abs(cn2 + 1) < 1e-11
            assert abs(dn2 - 1) < 1e-11

    def test_trigonometric_limit(self):
        z = np.linspace(-3, 3, 7)
        sn, cn, dn = jacobi(z, 0.0)
        assert np.allclose(sn, np.sin(z), atol=1e-14)
        assert np.allclose(cn, np.cos(z), atol=1e-14)
        assert np.allclose(dn, 1.0, atol=1e-14)

    def test_vectorized_matches_scalar(self):
        z = np.linspace(-5, 5, 11)
        k = 0.6
        sn_v, cn_v, dn_v = jacobi(z, k)
        for i, zi in enumerate(z):
            sn, cn, dn = jacobi(float(zi), k)
            assert sn_v[i] == pytest.approx(sn, abs=1e-15)
            assert cn_v[i] == pytest.approx(cn, abs=1e-15)
            assert dn_v[i] == pytest.approx(dn, abs=1e-15)

    @pytest.mark.parametrize("z, k", [
        (complete_K(Modulus.imaginary(1.0)), Modulus.imaginary(1.0)),
        (complete_K(2 ** -0.5), 2 ** -0.5),
        (2 * complete_K(2 ** -0.5), 2 ** -0.5),
        (inverse_cn(2 - 3 ** 0.5, _K_HIGH), _K_HIGH),
        # a point where a scalar once took numpy's scalar path and dn
        # differed from the array value in the last two places
        (8.757094257331929, _K_HIGH),
    ], ids=["K(i)", "K(1/2)", "2K(1/2)", "cn^-1(2-sqrt3)", "dn-ulp"])
    def test_scalar_is_one_element_array(self, z, k):
        scalar = jacobi(z, k)
        array = jacobi(np.array([z]), k)
        assert [float(f) for f in scalar] == [float(f[0]) for f in array]


class TestPropertyBased:
    @given(z=st.floats(-20, 20), k=st.floats(0, 0.9999))
    @settings(max_examples=200, deadline=None)
    def test_pythagorean_identities(self, z, k):
        sn, cn, dn = jacobi(z, k)
        assert abs(sn * sn + cn * cn - 1) < 1e-12
        assert abs(dn * dn - (1 - (k * sn) ** 2)) < 1e-12

    @given(z=st.floats(-10, 10), k=st.floats(0.01, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_oddness_of_sn(self, z, k):
        sn_p, cn_p, dn_p = jacobi(z, k)
        sn_m, cn_m, dn_m = jacobi(-z, k)
        assert sn_m == pytest.approx(-sn_p, abs=1e-13)
        assert cn_m == pytest.approx(cn_p, abs=1e-13)
        assert dn_m == pytest.approx(dn_p, abs=1e-13)


class TestImaginaryModulus:
    def test_identity_suite(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(-5, 5, 300)
        kappa = rng.uniform(0.05, 3.0, 300)
        for zi, ki in zip(z, kappa):
            sn, cn, dn = jacobi(zi, Modulus.imaginary(ki))
            assert abs(sn * sn + cn * cn - 1) < 1e-10
            assert abs(dn * dn - (1 + (ki * sn) ** 2)) < 1e-10

    def test_reduction_to_real_modulus(self):
        # sn(z, i*kappa) = sn(sz, k1) / (s * dn(sz, k1)) with
        # s = sqrt(1 + kappa^2), k1 = kappa / s
        kappa = 1.0
        s = np.sqrt(2.0)
        k1 = kappa / s
        for z in (0.25, 0.8, 1.7):
            sn_i, cn_i, _ = jacobi(z, Modulus.imaginary(kappa))
            sr, cr, dr = jacobi(s * z, k1)
            assert sn_i == pytest.approx(sr / (s * dr), abs=1e-12)
            assert cn_i == pytest.approx(cr / dr, abs=1e-12)

    def test_periodicity(self):
        k = Modulus.imaginary(1.0)
        K4 = 4 * complete_K(k)
        for z in (0.3, 1.1):
            a = jacobi(z, k)
            b = jacobi(z + K4, k)
            for x, y in zip(a, b):
                assert x == pytest.approx(y, abs=1e-10)


class TestInverseCn:
    @pytest.mark.parametrize("k", [0.2, 0.7, Modulus.imaginary(1.0)])
    def test_right_inverse(self, k):
        for x in np.linspace(-1, 1, 21):
            z = inverse_cn(x, k)
            _, cn, _ = jacobi(z, k)
            assert cn == pytest.approx(x, abs=1e-11)

    def test_branch_endpoints(self):
        k = 0.5
        assert inverse_cn(1.0, k) == 0.0
        assert inverse_cn(-1.0, k) == pytest.approx(2 * complete_K(k), rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            inverse_cn(1.5, 0.5)


class TestDomain:
    def test_real_modulus_at_least_one_rejected(self):
        with pytest.raises(DomainError):
            jacobi(0.5, 1.2)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(DomainError):
            Modulus(-0.5)

    def test_plain_float_accepted(self):
        sn, _, _ = jacobi(0.5, 0.5)
        assert isinstance(float(sn), float)
