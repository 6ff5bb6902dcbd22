"""Distributional verification of compacton profiles.

A profile U with compact support is a weak solution of the
travelling-wave K(m,n) equation when

    integral [ (-gU + aU**m) phi' + b U**n phi''' ] dxi = 0

for every smooth compactly supported test function phi, and of the
KP(m,n) reduction when the same holds with phi'' and phi'''' instead.
This module evaluates those integrals against a battery of polynomial-
modulated bump functions, computes the boundary quantities whose
one-sided limits control weak admissibility, and fits the endpoint
power p.

Residuals are reported scaled by the L1 size of the dispersive term
b*U**n*phi''' (or phi''''), which makes a single tolerance meaningful
across parameter regimes.

Each residual and its scaling norm are integrated in one pass on shared
nodes: every refinement level evaluates U once per node and both
phi-derivatives from one bump table (mask, exp(-v) and the powers of y
and v computed once, by multiplication), and forms both integrands from
those arrays.  The two integrals keep separate stopping tests, so each
stops exactly where it would if integrated alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .params import EquationParams, InvalidParameters

__all__ = [
    "TestFunction",
    "ResidualReport",
    "evaluate_testfn",
    "residual_K",
    "residual_KP",
    "bump_battery",
    "verify_weak",
    "boundary_quantities",
    "endpoint_power_fit",
]

_MAX_ORDER = 4


@dataclass(frozen=True)
class TestFunction:
    """phi(xi) = (xi - center)**degree * exp(-1 / (1 - y**2)) with
    y = (xi - center) / width, zero outside |y| < 1."""

    __test__ = False  # not a test case despite the Test- prefix

    center: float
    width: float
    modulation_degree: int = 0

    def __post_init__(self):
        if self.width <= 0:
            raise InvalidParameters(f"width must be positive, got {self.width}")
        if self.modulation_degree < 0:
            raise InvalidParameters("modulation degree must be non-negative")


def _bump_prefactors(max_order: int):
    """Rational prefactors R_r with B^(r)(y) = R_r(y) * B(y).

    B(y) = exp(-1/(1-y**2)) satisfies B' = s*B with s = -2*y*v**2 and
    v = 1/(1-y**2); since d/dy (y**i v**k) = i y**(i-1) v**k
    + 2k y**(i+1) v**(k+1), the prefactors close over monomials y**i v**k.
    """
    rs = [{(0, 0): 1.0}]
    for _ in range(max_order):
        prev = rs[-1]
        nxt: dict[tuple[int, int], float] = {}

        def add(key, val):
            nxt[key] = nxt.get(key, 0.0) + val

        for (i, k), cf in prev.items():
            if i:
                add((i - 1, k), cf * i)
            if k:
                add((i + 1, k + 1), cf * 2 * k)
            add((i + 1, k + 2), cf * -2.0)  # times s
        rs.append(nxt)
    return rs


_R = _bump_prefactors(_MAX_ORDER)


def _powers(base: np.ndarray, top: int) -> list[np.ndarray]:
    """[base**0, ..., base**top] by repeated multiplication (numpy's ``**``
    takes a slow scalar path for negative bases and exponents >= 3)."""
    out = [np.ones_like(base)]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def _bump_derivs(y: np.ndarray, orders) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """B^(r)(y) for every r in ``orders``, from one table.

    Returns the mask of points where B is representable and, per order,
    the derivative on those points; it is zero elsewhere.  The mask, v,
    exp(-v) and the powers of y and v are computed once and shared by
    every order.  Masking keeps the rational prefactor from overflowing
    where the exponential has already underflowed.
    """
    v_inv = 1.0 - y * y
    mask = v_inv > 1.0 / 700.0  # exp(-v) underflows past this anyway
    ym = y[mask]
    v = 1.0 / v_inv[mask]
    B = np.exp(-v)
    terms = [_R[r] for r in orders]
    Y = _powers(ym, max(i for t in terms for i, _ in t))
    V = _powers(v, max(k for t in terms for _, k in t))
    out = {}
    for r, t in zip(orders, terms):
        acc = np.zeros_like(ym)
        for (i, k), cf in t.items():
            acc += cf * Y[i] * V[k]
        out[r] = acc * B
    return mask, out


def _testfn_derivs(tf: TestFunction, x: np.ndarray, orders) -> list[np.ndarray]:
    """phi^(r)(x) for every r in ``orders``: the Leibniz rule for the
    monomial factor over one shared table of bump derivatives."""
    xc = x - tf.center
    y = xc / tf.width
    d = tf.modulation_degree
    mask, B = _bump_derivs(y, sorted({r - j for r in orders
                                      for j in range(min(r, d) + 1)}))
    XC = _powers(xc[mask], d)
    outs = []
    for order in orders:
        acc = np.zeros_like(XC[0])
        for j in range(min(order, d) + 1):
            falling = math.perm(d, j) * math.comb(order, j)
            acc += falling * XC[d - j] * B[order - j] * tf.width ** (j - order)
        out = np.zeros_like(y)
        out[mask] = acc
        outs.append(out)
    return outs


def evaluate_testfn(tf: TestFunction, xi, order: int = 0):
    """order-th derivative of the test function; exact via the
    prefactor recurrence and the Leibniz rule for the monomial factor."""
    if not 0 <= order <= _MAX_ORDER:
        raise InvalidParameters(f"derivative order must be 0..4, got {order}")
    xi_arr = np.asarray(xi, dtype=float)
    scalar = xi_arr.ndim == 0
    (out,) = _testfn_derivs(tf, np.atleast_1d(xi_arr), (order,))
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# quadrature

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_DOUBLINGS = 6  # refinements after the first 4-panel estimate
_RTOL = 1e-13


def _support_pieces(L: float, tf: TestFunction) -> list[tuple[float, float]]:
    lo = max(-L, tf.center - tf.width)
    hi = min(L, tf.center + tf.width)
    if hi <= lo:
        return []
    breaks = sorted({lo, hi, 0.0} | {x for x in (-L, L, tf.center) if lo < x < hi})
    return list(zip(breaks[:-1], breaks[1:]))


def _residual(u_eval, params: EquationParams, g: float, tf: TestFunction,
              L: float, phi_low: int, phi_high: int) -> tuple[float, float, float]:
    """Signed raw residual, scaling norm, and quadrature error.

    The raw integrand is (-g*u + a*u**m)*phi^(low) + b*u**n*phi^(high)
    and the norm integrand |b*u**n*phi^(high)|.  Both are integrated in
    one pass of adaptive panel-doubling Gauss-Legendre over each smooth
    piece: 4 panels, doubled up to 6 times.  Every level evaluates u and
    the phi-derivatives once per node, from one bump table, and forms
    both integrands from the same arrays.  Each integral keeps its own
    stopping test (two successive levels within _RTOL*max(1, |value|))
    and its own cap, so sharing nodes never changes where either stops;
    once one has stopped, a level computes only what the other needs.
    The error estimate is the last change of the raw integral, summed
    over the pieces.
    """
    m, n, a, b = params.m, params.n, params.a, params.b
    raw = norm = err = 0.0
    for lo, hi in _support_pieces(L, tf):
        value = [0.0, 0.0]      # raw, norm on this piece
        delta = [0.0, 0.0]
        live = [True, True]
        for level in range(_DOUBLINGS + 1):
            edges = np.linspace(lo, hi, 4 * 2 ** level + 1)
            mid = 0.5 * (edges[1:] + edges[:-1])
            halfw = 0.5 * (edges[1:] - edges[:-1])
            x = (mid[:, None] + halfw[:, None] * _GL_NODES[None, :]).ravel()
            u = np.asarray(u_eval(x), dtype=float)
            if live[0]:
                phi_lo, phi_hi = _testfn_derivs(tf, x, (phi_low, phi_high))
            else:
                (phi_hi,) = _testfn_derivs(tf, x, (phi_high,))
            disp = b * u ** n * phi_hi
            vals = ((-g * u + a * u ** m) * phi_lo + disp if live[0] else None,
                    np.abs(disp) if live[1] else None)
            for k, f in enumerate(vals):
                if f is None:
                    continue
                cur = float(np.sum(halfw * (f.reshape(len(mid), -1) @ _GL_WEIGHTS)))
                if level:
                    delta[k] = abs(cur - value[k])
                    live[k] = (level < _DOUBLINGS
                               and delta[k] > _RTOL * max(1.0, abs(cur)))
                value[k] = cur
            if not any(live):
                break
        raw += value[0]
        norm += value[1]
        err += delta[0]
    return raw, norm, err


def residual_K(u_eval, params: EquationParams, g: float, tf: TestFunction,
               L: float) -> float:
    """Signed weak-form residual of the K(m,n) travelling-wave equation
    against one test function (raw, unscaled)."""
    return _residual(u_eval, params, g, tf, L, 1, 3)[0]


def residual_KP(u_eval, params: EquationParams, g: float, tf: TestFunction,
                L: float) -> float:
    """Signed weak-form residual of the KP(m,n) reduction (raw)."""
    return _residual(u_eval, params, g, tf, L, 2, 4)[0]


def bump_battery(L: float, count: int = 25) -> list[TestFunction]:
    """Deterministic battery: centers uniform over [-1.5L, 1.5L], widths
    cycling {0.3L, 0.6L, 1.2L}, modulation degrees alternating {0, 1}."""
    widths = (0.3 * L, 0.6 * L, 1.2 * L)
    return [
        TestFunction(center=c, width=widths[i % 3], modulation_degree=i % 2)
        for i, c in enumerate(np.linspace(-1.5 * L, 1.5 * L, count))
    ]


@dataclass(frozen=True)
class ResidualReport:
    equation: str
    residuals: tuple[float, ...]          # scaled, one per test function
    max_abs_scaled: float
    quadrature_error_estimate: float

    def to_json(self) -> str:
        return json.dumps({
            "equation": self.equation,
            "residuals": list(self.residuals),
            "max_abs_scaled": self.max_abs_scaled,
            "quadrature_error_estimate": self.quadrature_error_estimate,
        }, indent=2)


def verify_weak(u_eval, params: EquationParams, g: float, L: float,
                equation: str = "K",
                battery: list[TestFunction] | None = None) -> ResidualReport:
    """Scaled residuals of the weak form over the whole bump battery.

    Each residual is divided by the L1 norm of its dispersive term; a
    bump with support disjoint from the profile contributes exactly 0.
    """
    if equation not in ("K", "KP"):
        raise InvalidParameters(f"equation must be 'K' or 'KP', got {equation!r}")
    lo, hi = (1, 3) if equation == "K" else (2, 4)
    tfs = battery if battery is not None else bump_battery(L)
    scaled = []
    max_err = 0.0
    for tf in tfs:
        raw, norm, err = _residual(u_eval, params, g, tf, L, lo, hi)
        scaled.append(raw / norm if norm > 0 else 0.0)
        if norm > 0:
            max_err = max(max_err, err / norm)
    scaled_t = tuple(scaled)
    return ResidualReport(equation=equation, residuals=scaled_t,
                          max_abs_scaled=max(abs(r) for r in scaled_t),
                          quadrature_error_estimate=max_err)


def boundary_quantities(u_eval, params: EquationParams, g: float, L: float,
                        delta: float | None = None
                        ) -> tuple[float, float, float, float]:
    """One-sided limits at the support edge of the four cutoff quantities

        A1 = b U**n,   A2 = b (U**n)',
        A3 = -gU + aU**m + b (U**n)'',   A4 = A3'.

    Derivatives come from central differences on a stencil packed into
    [L - delta, L); values are reported at the stencil center, which
    approaches the edge as delta shrinks.
    """
    m, n, a, b = params.m, params.n, params.a, params.b
    if delta is None:
        delta = 1e-3 * L
    h = delta / 8.0
    center = L - delta / 2.0
    x = center + np.arange(-3, 4) * h
    U = np.asarray(u_eval(x), dtype=float)
    W = U ** n
    # 4th-order central stencils
    d1 = (-W[5] + 8 * W[4] - 8 * W[2] + W[1]) / (12 * h)
    d2 = (-W[5] + 16 * W[4] - 30 * W[3] + 16 * W[2] - W[1]) / (12 * h ** 2)
    d3 = (W[0] - 8 * W[1] + 13 * W[2] - 13 * W[4] + 8 * W[5] - W[6]) / (8 * h ** 3)
    u1 = (-U[5] + 8 * U[4] - 8 * U[2] + U[1]) / (12 * h)
    uc = U[3]
    A1 = b * W[3]
    A2 = b * d1
    A3 = -g * uc + a * uc ** m + b * d2
    A4 = (-g + a * m * uc ** (m - 1)) * u1 + b * d3
    return float(A1), float(A2), float(A3), float(A4)


def endpoint_power_fit(u_eval, L: float, lo_frac: float = 0.95,
                       hi_frac: float = 0.999, count: int = 50) -> float:
    """Least-squares slope of log U against log(L - xi) near the edge."""
    xs = np.linspace(lo_frac * L, hi_frac * L, count)
    u = np.asarray(u_eval(xs), dtype=float)
    if np.any(u <= 0):
        raise InvalidParameters(
            "endpoint power fit needs strictly positive samples near the edge"
        )
    slope, _ = np.polyfit(np.log(L - xs), np.log(u), 1)
    return float(slope)
