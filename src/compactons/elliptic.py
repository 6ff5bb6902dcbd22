"""Complete elliptic integrals and Jacobi elliptic functions.

The modulus convention is the Maple one: the stored ``k`` is the square
root of the conventional parameter ``m = k**2``.  Imaginary moduli
``i*k`` are represented by a flag and evaluated through the standard
real-modulus transformations, so no complex arithmetic ever occurs.

Everything here is pure and accepts scalars or numpy arrays for the
argument ``z`` (the modulus is always scalar).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Modulus",
    "DomainError",
    "agm",
    "complete_K",
    "jacobi",
    "inverse_cn",
]

_EPS = 1e-14


class DomainError(ValueError):
    """Raised when an argument lies outside the mathematical domain."""


@dataclass(frozen=True)
class Modulus:
    """Elliptic modulus ``k`` (or ``i*k`` when ``is_imaginary``)."""

    value: float
    is_imaginary: bool = False

    def __post_init__(self):
        if self.value < 0:
            raise DomainError("modulus magnitude must be non-negative")

    @staticmethod
    def real(k: float) -> "Modulus":
        return Modulus(float(k), False)

    @staticmethod
    def imaginary(k: float) -> "Modulus":
        return Modulus(float(k), True)


def _as_modulus(k) -> Modulus:
    if isinstance(k, Modulus):
        return k
    return Modulus.real(float(k))


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of two positive numbers."""
    a, b = float(a), float(b)
    while abs(a - b) > _EPS * abs(a):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return 0.5 * (a + b)


def _reduce_imaginary(k: Modulus) -> tuple[float, float]:
    """Real modulus and argument scale for an imaginary modulus ``i*kappa``.

    sn(z, i*kappa) and cn(z, i*kappa) reduce to Jacobi functions of
    modulus kappa/sqrt(1+kappa^2) at argument sqrt(1+kappa^2)*z.
    """
    kappa = k.value
    scale = np.sqrt(1.0 + kappa * kappa)
    return kappa / scale, scale


def complete_K(k) -> float:
    """Complete elliptic integral of the first kind, K(k).

    For an imaginary modulus ``i*kappa`` returns the quarter period
    K(kappa/sqrt(1+kappa^2)) / sqrt(1+kappa^2) = pi / (2 agm(sqrt(1+kappa^2), 1)),
    computed by the second form, which rounds once less.
    """
    k = _as_modulus(k)
    if k.is_imaginary:
        return float(np.pi / (2.0 * agm(np.sqrt(1.0 + k.value * k.value), 1.0)))
    if k.value >= 1.0:
        raise DomainError(f"K(k) diverges for real modulus k={k.value} >= 1")
    kp = np.sqrt(1.0 - k.value * k.value)
    return float(np.pi / (2.0 * agm(1.0, kp)))


def _jacobi_real(z, k: float):
    """sn, cn, dn for real modulus 0 <= k < 1 via the AGM descent.

    The Landen/AGM scales depend only on k, so the phase recursion
    vectorizes over ``z``.
    """
    z = np.asarray(z)
    if z.dtype.kind != "f":
        z = z.astype(float)
    if k < _EPS:
        return np.sin(z), np.cos(z), np.ones_like(z)
    a, b, c = 1.0, float(np.sqrt(1.0 - k * k)), float(k)
    scales = [(a, c)]
    while abs(c) > _EPS * a:
        a, b, c = 0.5 * (a + b), np.sqrt(a * b), 0.5 * (a - b)
        scales.append((a, c))
    n_iter = len(scales) - 1
    phi = (2.0 ** n_iter) * scales[-1][0] * z
    for a_i, c_i in reversed(scales[1:]):
        phi = 0.5 * (phi + np.arcsin(np.clip(c_i / a_i * np.sin(phi), -1.0, 1.0)))
    sn = np.sin(phi)
    cn = np.cos(phi)
    # dn never changes sign for real k < 1, so the identity form is
    # stable where the cos-ratio formula of the descent is 0/0 (at odd
    # multiples of the quarter period)
    dn = np.sqrt(1.0 - (k * sn) ** 2)
    return sn, cn, dn


def jacobi(z, k):
    """Jacobi elliptic functions ``(sn, cn, dn)`` at argument ``z``.

    Real moduli require ``0 <= k < 1`` (use the reciprocal-modulus
    identity externally for k > 1).  Imaginary moduli are reduced to a
    real modulus by the standard transformation; the returned ``dn`` is
    then ``sqrt(1 + kappa^2 sn^2)``.
    """
    k = _as_modulus(k)
    if k.is_imaginary:
        kr, scale = _reduce_imaginary(k)
        s, c, d = _jacobi_real(np.asarray(z) * scale, kr)
        sn = s / (scale * d)
        cn = c / d
        dn = np.sqrt(1.0 + (k.value * sn) ** 2)
        return sn, cn, dn
    if k.value >= 1.0:
        raise DomainError(f"real modulus k={k.value} >= 1 is outside the supported range")
    return _jacobi_real(z, k.value)


def inverse_cn(x: float, k) -> float:
    """Principal inverse of cn: the z in [0, 2K] with cn(z, k) = x.

    cn is strictly decreasing from cn(0)=1 to cn(2K)=-1 on this branch,
    so a bracketed bisection/Newton hybrid always converges.
    """
    x = float(x)
    if not -1.0 <= x <= 1.0:
        raise DomainError(f"inverse_cn argument {x} outside [-1, 1]")
    k = _as_modulus(k)
    if k.is_imaginary:
        # cn(z, i*kappa) = cn(w, kr)/dn(w, kr) with w = scale*z; invert in w.
        kr, scale = _reduce_imaginary(k)
        km = Modulus.real(kr)
        lo, hi = 0.0, 2.0 * complete_K(km)

        def f(w):
            _, c, d = _jacobi_real(w, kr)
            return float(c / d) - x

        return _bisect_newton(f, lo, hi) / scale
    K = complete_K(k)
    if x == 1.0:
        return 0.0
    if x == -1.0:
        return 2.0 * K

    def f(z):
        _, c, _ = _jacobi_real(z, k.value)
        return float(c) - x

    return _bisect_newton(f, 0.0, 2.0 * K)


def _bisect_newton(f, lo: float, hi: float, tol: float = 1e-14) -> float:
    """Bisection with secant acceleration on a decreasing bracket."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    for _ in range(200):
        if hi - lo < tol * max(1.0, hi):
            break
        # secant proposal, fall back to midpoint when outside the bracket
        z = hi - fhi * (hi - lo) / (fhi - flo) if fhi != flo else 0.5 * (lo + hi)
        if not lo < z < hi:
            z = 0.5 * (lo + hi)
        fz = f(z)
        if fz == 0.0:
            return z
        if (flo > 0) == (fz > 0):
            lo, flo = z, fz
        else:
            hi, fhi = z, fz
    return 0.5 * (lo + hi)
