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

Every report integrates its whole battery on one node set.  [-L, L] is
split once, at every bump end inside it; on each interval every covering
bump's integrand is analytic inside, with flat or algebraic ends, which
is the case tanh-sinh quadrature is built for.  Each refinement level
evaluates U once on the new nodes of every live interval.  phi^(low) and
phi^(high) come in (pair x node) tables: a row is one (bump, interval)
pair, sorted by the bump's modulation degree, and its columns are the
interval's new nodes, as many on every interval of a level.  A bump's
center, width, degree and width powers are computed once per report and
broadcast along its row; the bump table (v, exp(-v) and the powers of y
and v, by multiplication) and the Leibniz rule for the monomial factor
run on whole row blocks, with no per-point gather, compress or scatter.
The raw residual and its scaling norm are summed on the same nodes.
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


def _powers(base: np.ndarray, top: int) -> list:
    """[1.0, base, ..., base**top] by repeated multiplication (numpy's ``**``
    takes a slow scalar path for negative bases and exponents >= 3).  The
    zeroth power is the float 1.0: a product with it is exact either way."""
    out = [1.0]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def _bump_derivs(y: np.ndarray, orders) -> dict[int, np.ndarray]:
    """B^(r)(y) for every r in ``orders``, each an array of y's shape.

    The mask 1 - y**2 > 1/700, v, exp(-v) and the powers of y and v are
    computed once and shared by every order.  B is zero outside the mask,
    where exp(-v) has already underflowed: a point there takes v = 1, so
    that the rational prefactor cannot overflow (y must be finite and not
    far outside [-1, 1]), and is zeroed through exp(-v).  There is no
    compress or scatter, and a point inside the mask sees the same
    operations wherever it sits in the table.
    """
    v_inv = 1.0 - y * y
    mask = v_inv > 1.0 / 700.0  # exp(-v) underflows past this anyway
    v = 1.0 / np.where(mask, v_inv, 1.0)
    B = np.exp(-v) * mask
    terms = [_R[r] for r in orders]
    Y = _powers(y, max(i for t in terms for i, _ in t))
    V = _powers(v, max(k for t in terms for _, k in t))
    out = {}
    for r, t in zip(orders, terms):
        acc = np.zeros(y.shape)
        for (i, k), cf in t.items():
            acc += cf * Y[i] * V[k]
        out[r] = acc * B
    return out


def _bump_constants(tfs: list[TestFunction]):
    """Center, width, modulation degree and width**(-e) for e = 0..4 of
    every test function of ``tfs``, as arrays.  The powers are Python
    floats: numpy's power can round differently in the last place."""
    return (np.array([tf.center for tf in tfs]), np.array([tf.width for tf in tfs]),
            np.array([tf.modulation_degree for tf in tfs]),
            np.array([[tf.width ** -e for e in range(_MAX_ORDER + 1)] for tf in tfs]))


def _testfn_derivs(bumps, rows: np.ndarray, x: np.ndarray, orders) -> list[np.ndarray]:
    """phi^(r)(x) for every r in ``orders``, as (pair x node) tables of
    x's shape: row i of ``x`` holds nodes of the test function ``rows[i]``
    of ``bumps`` (`_bump_constants`), whose constants are broadcast along
    the row.  Each run of consecutive rows of one modulation degree d takes
    one bump table of the orders r - j it needs and the Leibniz rule for
    the monomial factor on that row block; rows sorted by degree make the
    fewest runs, any order gives the same values.
    """
    c, w, degree, wpow = bumps
    xc = x - c[rows, None]
    y = xc / w[rows, None]
    d_row = degree[rows]
    cuts = [0, *(np.flatnonzero(np.diff(d_row)) + 1).tolist(), len(rows)]
    outs = [np.zeros(y.shape) for _ in orders]
    for d, lo, hi in zip(d_row[cuts[:-1]].tolist(), cuts, cuts[1:]):
        B = _bump_derivs(y[lo:hi], sorted({r - j for r in orders
                                           for j in range(min(r, d) + 1)}))
        XC = _powers(xc[lo:hi], d)
        wr = wpow[rows[lo:hi]]
        for out, order in zip(outs, orders):
            part = out[lo:hi]
            for j in range(min(order, d) + 1):
                falling = math.perm(d, j) * math.comb(order, j)
                part += falling * XC[d - j] * B[order - j] * wr[:, order - j, None]
    return outs


def evaluate_testfn(tf: TestFunction, xi, order: int = 0):
    """order-th derivative of the test function; exact via the
    prefactor recurrence and the Leibniz rule for the monomial factor."""
    if not 0 <= order <= _MAX_ORDER:
        raise InvalidParameters(f"derivative order must be 0..4, got {order}")
    x = np.asarray(xi, dtype=float)
    # off the support, or not finite: read at its end, where every order is 0
    x = np.where(np.abs(x - tf.center) < tf.width, x, tf.center + tf.width)
    (out,) = _testfn_derivs(_bump_constants([tf]), np.zeros(1, dtype=int),
                            x.reshape(1, -1), (order,))
    return float(out[0, 0]) if x.ndim == 0 else out.reshape(x.shape)


# ---------------------------------------------------------------------------
# quadrature

_T_MAX = 3.5      # tanh-sinh abscissae t = j * 2**-(level+1), |t| <= _T_MAX
_LEVELS = 8       # the last level
_TOL = 1e-14      # relative to each covering bump's norm
_TABLE = 4096     # most (bump, node) pairs in one phi table
# A report's larger per-level temporaries are above glibc's initial 128 KB
# mmap threshold, so each would be mapped, faulted in page by page and
# unmapped again.  Freeing one 16 MB mapped block raises glibc's mmap and
# trim thresholds to 16 and 32 MB, after which those temporaries reuse heap
# pages.  The block is never written, so it costs no resident memory.
np.empty(1 << 21)


@functools.cache
def _tanh_sinh(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes that ``level`` adds on [-1, 1]: the sign of t, the
    distance 1 - tanh|s| to the nearer end, and the weight
    (pi/2) cosh(t) / cosh(s)**2, with s = (pi/2) sinh(t)."""
    top = round(_T_MAX * 2 ** (level + 1))
    j = np.arange(-top, top + 1) if level == 0 else np.arange(1 - top, top, 2)
    t = j * 2.0 ** -(level + 1)
    s = 0.5 * math.pi * np.sinh(np.abs(t))
    edge = 2.0 / (np.exp(2.0 * s) + 1.0)
    return np.sign(t), edge, 0.5 * math.pi * np.cosh(t) * edge * (2.0 - edge)


def _partition(tfs: list[TestFunction], L: float):
    """[-L, L] split once, at every bump end inside it, with ends closer
    than 1e-12 times the narrowest width merged: the ends x0, x1 of the
    intervals that some bump covers, and the (bump, interval) pairs
    pb, pj of the bumps that cover each."""
    c, w = _bump_constants(tfs)[:2]
    tol = 1e-12 * w.min()
    ends = np.concatenate([c - w, c + w])
    br = np.unique(np.concatenate([[-L, L], ends[np.abs(ends) < L - tol]]))
    br = br[np.concatenate([[True], np.diff(br) > tol])]
    cover = np.abs(0.5 * (br[1:] + br[:-1]) - c[:, None]) < w[:, None]
    seen = cover.any(axis=0)
    pb, pj = np.nonzero(cover[:, seen])
    return br[:-1][seen], br[1:][seen], pb, pj


def _residuals(u_eval, params: EquationParams, g: float, tfs: list[TestFunction],
               L: float, phi_low: int, phi_high: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed raw residual, scaling norm, and quadrature error per test
    function of ``tfs``.

    The raw integrand is (-g*u + a*u**m)*phi^(low) + b*u**n*phi^(high)
    and the norm integrand |b*u**n*phi^(high)|.  Every bump that covers
    an interval of `_partition` shares its tanh-sinh nodes.  A level
    evaluates u once on the new nodes of every live interval, and
    phi^(low) and phi^(high) in (pair x node) tables of at most _TABLE
    entries: one row per live (bump, interval) pair, the rows sorted by
    modulation degree once per report, and one column per new node of the
    interval.  Row order moves no bit: rows are summed apart, and each
    bump's pairs keep their order.  An interval stops when the raw
    integral of every covering bump changes by at most _TOL times that
    bump's norm, or at level _LEVELS.  The norm is only a scale: its
    integrand has kinks at the zeros of phi^(high), and it stops with the
    raw integral.  A bump's error estimate is the sum of the last changes
    of its raw integral.
    """
    m, n, a, b = params.m, params.n, params.a, params.b
    bumps = _bump_constants(tfs)
    x0, x1, pb, pj = _partition(tfs, L)
    # stable, so each bump's pairs keep their order in the bincounts
    by_degree = np.argsort(bumps[2][pb], kind="stable")
    pb, pj = pb[by_degree], pj[by_degree]
    half = 0.5 * (x1 - x0)
    total = np.zeros((len(pb), 2))          # weighted node sums: raw, norm
    value = np.zeros((len(pb), 2))
    change = np.zeros(len(pb))              # of the raw integral
    norm = np.zeros(len(tfs))
    live = np.ones(len(x0), dtype=bool)
    for level in range(_LEVELS + 1):
        if not live.any():
            break
        sign, edge, wt = _tanh_sinh(level)
        ints = np.flatnonzero(live)
        x = np.where(sign < 0, x0[ints, None] + half[ints, None] * edge,
                     x1[ints, None] - half[ints, None] * edge)
        u = np.asarray(u_eval(x.ravel()), dtype=float).reshape(x.shape)
        adv, disp = -g * u + a * u ** m, b * u ** n
        weight = half[ints, None] * wt
        row = np.cumsum(live) - 1           # interval -> row of x
        pairs = np.flatnonzero(live[pj])
        step = max(1, _TABLE // len(wt))
        for start in range(0, len(pairs), step):
            idx = pairs[start:start + step]
            r = row[pj[idx]]
            lo_d, hi_d = _testfn_derivs(bumps, pb[idx], x[r], (phi_low, phi_high))
            hi_d *= disp[r]
            total[idx, 0] += np.sum((adv[r] * lo_d + hi_d) * weight[r], axis=1)
            total[idx, 1] += np.sum(np.abs(hi_d) * weight[r], axis=1)
        now = total[pairs] * 2.0 ** -(level + 1)
        change[pairs] = np.abs(now[:, 0] - value[pairs, 0])
        value[pairs] = now
        norm = np.bincount(pb, weights=value[:, 1], minlength=len(tfs))
        if level:
            busy = change[pairs] > _TOL * norm[pb[pairs]]
            live = np.bincount(pj[pairs], weights=busy, minlength=len(x0)) > 0
    raw, err = (np.bincount(pb, weights=col, minlength=len(tfs))
                for col in (value[:, 0], change))
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


def bump_battery(L: float) -> list[TestFunction]:
    """Deterministic battery: centers uniform over [-1.5L, 1.5L], widths
    cycling {0.3L, 0.6L, 1.2L}, modulation degrees alternating {0, 1}."""
    widths = (0.3 * L, 0.6 * L, 1.2 * L)
    return [
        TestFunction(center=c, width=widths[i % 3], modulation_degree=i % 2)
        for i, c in enumerate(np.linspace(-1.5 * L, 1.5 * L, 25))
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
                equation: str = "K") -> ResidualReport:
    """Scaled residuals of the weak form over the whole bump battery.

    Each residual is divided by the L1 norm of its dispersive term; a
    bump with support disjoint from the profile contributes exactly 0.
    """
    if equation not in ("K", "KP"):
        raise InvalidParameters(f"equation must be 'K' or 'KP', got {equation!r}")
    lo, hi = (1, 3) if equation == "K" else (2, 4)
    raws, norms, errs = _residuals(u_eval, params, g, bump_battery(L), L, lo, hi)
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


def boundary_quantities(u_eval, params: EquationParams, g: float, L: float
                        ) -> tuple[float, float, float, float]:
    """One-sided limits at the support edge of the four cutoff quantities

        A1 = b U**n,   A2 = b (U**n)',
        A3 = -gU + aU**m + b (U**n)'',   A4 = A3'.

    Derivatives come from central differences on a stencil packed into
    [L - delta, L); values are reported at the stencil center, which
    approaches the edge as delta shrinks.  A stencil on which U underflows
    to 0 everywhere, or one holding a U <= 0 where a quantity is not finite
    (U**(m - 1) at U = 0 for m < 1, or a fractional power of a negative U),
    raises InvalidParameters.
    """
    m, n, a, b = params.m, params.n, params.a, params.b
    delta = 1e-3 * L
    h = delta / 8.0
    center = L - delta / 2.0
    x = center + np.arange(-3, 4) * h
    U = np.asarray(u_eval(x), dtype=float)
    if not np.any(U):
        raise InvalidParameters("U is 0 on the whole edge stencil, so nothing is measured")
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


def endpoint_power_fit(u_eval, L: float) -> float:
    """Least-squares slope of log U against log(L - xi) near the edge."""
    xs = np.linspace(0.95 * L, 0.999 * L, 50)
    u = np.asarray(u_eval(xs), dtype=float)
    if np.any(u <= 0):
        raise InvalidParameters(
            "endpoint power fit needs strictly positive samples near the edge"
        )
    slope, _ = np.polyfit(np.log(L - xs), np.log(u), 1)
    return float(slope)
