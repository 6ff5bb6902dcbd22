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

The integrals run piece by piece: each bump's support inside [-L, L] is
split at 0, at the bump's center, and at the zeros of phi^(hi).  In
y = (xi - center)/width those zeros are fixed numbers per derivative
order and modulation degree, found once from the same prefactor table,
so the norm integrand |b*U**n*phi^(hi)| has no kink inside a piece.

A report integrates its whole battery at once, one refinement level at
a time: each level gathers every (bump, piece) pair with a live
integral, evaluates U on their nodes in a few calls of at most _CHUNK
points, and takes the phi-derivatives of all of them from one bump table
with per-point center, width and modulation degree.  Every piece keeps
the nodes, the stopping tests and the summation order it would have if
integrated alone, so the batching changes no bit of any residual.
"""

from __future__ import annotations

import functools
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


def _testfn_derivs(tfs: list[TestFunction], which: np.ndarray, x: np.ndarray,
                   orders) -> list[np.ndarray]:
    """phi^(r)(x) for every r in ``orders``, where point i belongs to the
    test function ``tfs[which[i]]``: the Leibniz rule for the monomial
    factor over one shared table of bump derivatives, taken per
    modulation degree over the points of that degree."""
    xc = x - np.array([tf.center for tf in tfs])[which]
    y = xc / np.array([tf.width for tf in tfs])[which]
    degrees = sorted({tf.modulation_degree for tf in tfs})
    mask, B = _bump_derivs(y, sorted({r - j for d in degrees for r in orders
                                      for j in range(min(r, d) + 1)}))
    xcm, wm = xc[mask], which[mask]
    dm = np.array([tf.modulation_degree for tf in tfs])[wm]
    # width**(-e) as a Python float per test function (numpy's power can
    # round differently in the last place)
    wpow = np.array([[tf.width ** -e for e in range(_MAX_ORDER + 1)] for tf in tfs])
    accs = [np.empty_like(xcm) for _ in orders]
    for d in degrees:
        sel = dm == d
        XC = _powers(xcm[sel], d)
        for acc, order in zip(accs, orders):
            part = np.zeros_like(XC[0])
            for j in range(min(order, d) + 1):
                falling = math.perm(d, j) * math.comb(order, j)
                part += (falling * XC[d - j] * B[order - j][sel]
                         * wpow[wm[sel], order - j])
            acc[sel] = part
    outs = []
    for acc in accs:
        out = np.zeros_like(y)
        out[mask] = acc
        outs.append(out)
    return outs


def evaluate_testfn(tf: TestFunction, xi, order: int = 0):
    """order-th derivative of the test function; exact via the
    prefactor recurrence and the Leibniz rule for the monomial factor."""
    if not 0 <= order <= _MAX_ORDER:
        raise InvalidParameters(f"derivative order must be 0..4, got {order}")
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    (out,) = _testfn_derivs([tf], np.zeros(xi_arr.shape, dtype=int), xi_arr, (order,))
    return float(out[0]) if np.ndim(xi) == 0 else out


# ---------------------------------------------------------------------------
# quadrature

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_DOUBLINGS = 6  # refinements after the first 4-panel estimate
_RTOL = 1e-13
_CHUNK = 4096    # most points given to u per call, unless one piece has more
# A report's per-chunk temporaries (1-2 MB) are above glibc's initial 128 KB
# mmap threshold, so each would be mapped, faulted in page by page and
# unmapped again.  Freeing one 16 MB mapped block raises glibc's mmap and
# trim thresholds to 16 and 32 MB, after which those temporaries reuse heap
# pages.  The block is never written, so it costs no resident memory.
np.empty(1 << 21)


@functools.cache
def _phi_zeros(order: int, degree: int) -> tuple[float, ...]:
    """Zeros in (-1, 1) of d^order/dy^order (y**degree * B(y)).

    By the Leibniz rule the derivative is B(y) times
    sum_j C(order, j) degree!/(degree - j)! y**(degree - j) R_(order - j)(y);
    multiplied by (1 - y**2)**k for the largest power k of v in it, that
    sum is a polynomial in y, whose real roots inside (-1, 1) these are.
    """
    P = np.polynomial.Polynomial
    js = range(min(order, degree) + 1)
    top = max(k for j in js for _, k in _R[order - j])
    poly = P([0.0])
    for j in js:
        falling = math.perm(degree, j) * math.comb(order, j)
        for (i, k), cf in _R[order - j].items():
            poly += (falling * cf * P.basis(degree - j + i)
                     * P([1.0, 0.0, -1.0]) ** (top - k))
    return tuple(sorted(float(r.real) for r in poly.roots()
                        if abs(r.imag) < 1e-9 and abs(r.real) < 1.0))


def _support_pieces(L: float, tf: TestFunction,
                    order: int) -> list[tuple[float, float]]:
    """Pieces of the bump's support inside [-L, L] on which the integrands
    are smooth: split at 0, at the bump's center and at the zeros of
    phi^(order), where the norm integrand |b*u**n*phi^(order)| has a kink."""
    lo = max(-L, tf.center - tf.width)
    hi = min(L, tf.center + tf.width)
    if hi <= lo:
        return []
    zeros = [tf.center + tf.width * y
             for y in _phi_zeros(order, tf.modulation_degree)]
    breaks = sorted({lo, hi} | {x for x in (0.0, tf.center, *zeros) if lo < x < hi})
    return list(zip(breaks[:-1], breaks[1:]))


def _residuals(u_eval, params: EquationParams, g: float, tfs: list[TestFunction],
               L: float, phi_low: int, phi_high: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed raw residual, scaling norm, and quadrature error per test
    function of ``tfs``.

    The raw integrand is (-g*u + a*u**m)*phi^(low) + b*u**n*phi^(high)
    and the norm integrand |b*u**n*phi^(high)|.  Both are integrated in
    one pass of adaptive panel-doubling Gauss-Legendre over each smooth
    piece of each bump's support: 4 panels, doubled up to 6 times.  The
    loop is level-synchronous over every (bump, piece) pair: a level
    gathers the pieces that still have a live integral, gives u their
    nodes in chunks of at most _CHUNK points (a larger piece goes alone),
    and forms both integrands from one u array and one bump table.  Each
    integral of each piece keeps its own stopping test (two successive
    levels within _RTOL*max(1, |value|)) and its own cap, and its value
    and change are kept only while it is live, so batching never changes
    where either stops.  A bump's raw integral, norm and error estimate
    (the last change of the raw integral) are summed over its pieces in
    order.
    """
    m, n, a, b = params.m, params.n, params.a, params.b
    pieces = [(i, lo, hi) for i, tf in enumerate(tfs)
              for lo, hi in _support_pieces(L, tf, phi_high)]
    owner = np.array([i for i, _, _ in pieces], dtype=int)
    lo_arr = np.array([lo for _, lo, _ in pieces])
    hi_arr = np.array([hi for _, _, hi in pieces])
    value = np.zeros((len(pieces), 2))      # raw, norm per piece
    delta = np.zeros((len(pieces), 2))
    live = np.ones((len(pieces), 2), dtype=bool)
    for level in range(_DOUBLINGS + 1):
        active = np.flatnonzero(live.any(axis=1))
        if not active.size:
            break
        panels = 4 * 2 ** level
        per_piece = panels * len(_GL_NODES)
        step = max(1, _CHUNK // per_piece)
        for start in range(0, active.size, step):
            idx = active[start:start + step]
            edges = np.linspace(lo_arr[idx], hi_arr[idx], panels + 1, axis=1)
            mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
            halfw = 0.5 * (edges[:, 1:] - edges[:, :-1])
            x = (mid[:, :, None] + halfw[:, :, None] * _GL_NODES).ravel()
            u = np.asarray(u_eval(x), dtype=float)
            phi_lo, phi_hi = _testfn_derivs(tfs, np.repeat(owner[idx], per_piece),
                                            x, (phi_low, phi_high))
            disp = b * u ** n * phi_hi
            for k, f in enumerate(((-g * u + a * u ** m) * phi_lo + disp,
                                   np.abs(disp))):
                # a 2-D (panels, 32) @ weights product: a 3-D one can round
                # differently from the product of one piece alone
                panel = (f.reshape(-1, len(_GL_NODES)) @ _GL_WEIGHTS).reshape(halfw.shape)
                cur = np.sum(halfw * panel, axis=1)
                was = live[idx, k]
                if level:
                    change = np.abs(cur - value[idx, k])
                    delta[idx[was], k] = change[was]
                    live[idx, k] = was & (level < _DOUBLINGS) & (
                        change > _RTOL * np.maximum(1.0, np.abs(cur)))
                value[idx[was], k] = cur[was]
    raw, norm, err = (np.zeros(len(tfs)) for _ in range(3))
    np.add.at(raw, owner, value[:, 0])
    np.add.at(norm, owner, value[:, 1])
    np.add.at(err, owner, delta[:, 0])
    return raw, norm, err


def _residual(u_eval, params: EquationParams, g: float, tf: TestFunction,
              L: float, phi_low: int, phi_high: int) -> tuple[float, float, float]:
    """Signed raw residual, scaling norm, and quadrature error against one
    test function: `_residuals` with a battery of one."""
    raw, norm, err = _residuals(u_eval, params, g, [tf], L, phi_low, phi_high)
    return float(raw[0]), float(norm[0]), float(err[0])


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
    raws, norms, errs = _residuals(u_eval, params, g, tfs, L, lo, hi)
    scaled = []
    max_err = 0.0
    for raw, norm, err in zip(raws.tolist(), norms.tolist(), errs.tolist()):
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
    approaches the edge as delta shrinks.  A stencil holding a U <= 0
    where a quantity is not finite (U**(m - 1) at U = 0 for m < 1, or a
    fractional power of a negative U) raises InvalidParameters.
    """
    m, n, a, b = params.m, params.n, params.a, params.b
    if delta is None:
        delta = 1e-3 * L
    h = delta / 8.0
    center = L - delta / 2.0
    x = center + np.arange(-3, 4) * h
    U = np.asarray(u_eval(x), dtype=float)
    with np.errstate(all="ignore"):
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
    out = (float(A1), float(A2), float(A3), float(A4))
    if not all(map(math.isfinite, out)):
        raise InvalidParameters("boundary quantities are not finite on the edge stencil"
                                + (", which holds U <= 0" if np.any(U <= 0) else ""))
    return out


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
