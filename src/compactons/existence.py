"""Weak/strong existence classification from the endpoint power p.

A compacton behaving like U ~ U0 * (L - |xi|)**p at its support boundary
is a weak solution of the K(m,n) equation iff p > 2/n, and of the
KP(m,n) equation iff one of six conditions holds (three open
inequality regimes and three equality regimes that additionally pin the
endpoint amplitude U0).  Strong (classical) solutions need p > 3 for K
and p > 4 for KP.

The six conditions are one table of inequalities in (p, m, n).
``weak_KP_case`` evaluates it in floats.  For the fourteen catalog
families, with m and p linear and linear-fractional in the family's free
power, each inequality is solved exactly over ``fractions.Fraction``;
the existence table, ``classify_family`` and ``region_grid`` all read
their verdicts from those regions at the exact value of the input float.

Two deliberate layers exist for the weak-KP column:

- ``raw_theorem_intervals`` gives the interval derived strictly from the
  six conditions (with the equality cases resolved through analytically
  proven endpoint-amplitude identities);
- ``table1_intervals`` additionally applies the catalog's published
  unbounded weak-KP ranges for RATCN1/RATCN2/RATCN6, which the raw
  derivation caps at n = 3.  Both are exposed so the discrepancy stays
  auditable.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .catalog import _FAMILIES, FamilyId, _require_nonzero_g
from .params import InvalidParameters

__all__ = [
    "ExistenceReport",
    "Interval",
    "weak_K_ok",
    "strong_ok",
    "weak_KP_case",
    "classify_family",
    "table1_intervals",
    "raw_theorem_intervals",
    "region_grid",
    "region_grid_csv",
    "CASE6_FAMILIES",
]

_RELTOL = 1e-9


@dataclass(frozen=True)
class ExistenceReport:
    p: float
    weak_K: bool
    strong_K: bool
    weak_KP: int | None
    strong_KP: bool
    U0_constraint: float | None = None
    reasons: tuple[str, ...] = ()


def weak_K_ok(p: float, n: float) -> bool:
    """Weak K(m,n) admissibility: p > 2/n, strict."""
    if not (p > 0 and n > 0):
        raise InvalidParameters(f"p and n must be positive, got p={p}, n={n}")
    return _WEAK_K.holds(p, None, n)


def strong_ok(p: float, kind: str) -> bool:
    """Strong admissibility: p > 3 for K, p > 4 for KP, strict."""
    if not p > 0:
        raise InvalidParameters(f"p must be positive, got {p}")
    if kind not in _STRONG:
        raise InvalidParameters(f"kind must be 'K' or 'KP', got {kind!r}")
    return _STRONG[kind].holds(p, None, None)


def _isclose(x: float, y: float) -> bool:
    return math.isclose(x, y, rel_tol=_RELTOL, abs_tol=0.0)


def case4_amplitude(n: float, b: float, g: float) -> float | None:
    """Published endpoint amplitude of the equality case 4 (n >= 3)."""
    base = g * (n - 1) ** 2 / (2 * b * n * (n + 1))
    if base <= 0:
        return None
    return base ** ((n - 1) / ((n - 2) * (n + 1)))


def case56_amplitude(m: float, n: float, a: float, b: float) -> float | None:
    """Published endpoint amplitude of the equality cases 5 and 6."""
    base = -a * (n - m) ** 2 / (2 * b * n * (n + m))
    if base <= 0:
        return None
    return base ** (1.0 / (n - m))


#: float test of each relation; "==" has the tolerance a measured p or U0 needs
_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
            "<=": operator.le, "==": _isclose}

# linear forms c_m*m + c_n*n + c_1 in the powers, as (c_m, c_n, c_1)
_M, _N, _ONE = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def _value(form: tuple, m: float, n: float) -> float:
    return sum(c * v for c, v in zip(form, (m, n, 1)) if c)


@dataclass(frozen=True)
class _Atom:
    """``lhs rel rhs`` between linear forms in (m, n), or ``p rel k/rhs``
    when ``lhs`` is None; such a divisor ``rhs`` is positive wherever the
    atoms before it in its condition hold."""

    lhs: tuple | None
    rel: str
    rhs: tuple
    k: int = 1

    def holds(self, p: float, m: float, n: float) -> bool:
        if self.lhs is None:
            return _COMPARE[self.rel](p, self.k / _value(self.rhs, m, n))
        return _COMPARE[self.rel](_value(self.lhs, m, n), _value(self.rhs, m, n))


def _p(rel: str, k: int, rhs: tuple) -> _Atom:
    return _Atom(None, rel, rhs, k)


def _lin(lhs: tuple, rel: str, rhs: tuple) -> _Atom:
    return _Atom(lhs, rel, rhs)


@dataclass(frozen=True)
class _Condition:
    case: int
    g_zero: bool                 # holds only for g = 0; otherwise only for g != 0
    atoms: tuple[_Atom, ...]
    reason: str
    #: equality cases: the published endpoint amplitude U0(m, n, a, b, g)
    amplitude: Callable | None = None
    #: equality cases: the atoms under which a catalog profile's endpoint
    #: amplitude is ``amplitude``; None: on the whole domain of the
    #: families the catalog marks ``case6``
    catalog_identity: tuple[_Atom, ...] | None = None


_WEAK_K = _p(">", 2, _N)
_STRONG = {"K": _p(">", 3, _ONE), "KP": _p(">", 4, _ONE)}

_P_IS_2_OVER_N_MINUS_M = _p("==", 2, (-1, 1, 0))
_CONDITIONS = (
    _Condition(1, True, (_p(">", 1, _M), _p(">", 3, _N)), "p > max(1/m, 3/n)"),
    _Condition(2, False, (_lin(_M, "<", _ONE), _p(">", 1, _M), _p(">", 3, _N)),
               "p > max(1/m, 3/n)"),
    _Condition(3, False, (_lin(_M, ">", _ONE), _p(">", 1, _ONE), _p(">", 3, _N)),
               "p > max(1, 3/n)"),
    _Condition(4, False, (_p("<=", 1, _ONE), _lin(_N, ">=", (0, 0, 3)),
                          _lin((2, 0, 1), ">", _N), _p("==", 2, (0, 1, -1))),
               "n = 3 equality point",
               amplitude=lambda m, n, a, b, g: case4_amplitude(n, b, g),
               # the published amplitude matches the forced one only at n = 3
               catalog_identity=(_lin(_N, "==", (0, 0, 3)),)),
    _Condition(5, True, (_lin(_N, ">", _M), _P_IS_2_OVER_N_MINUS_M,
                         _lin(_N, ">=", (3, 0, 0))),
               "p = 2/(n-m) with the forced endpoint amplitude",
               amplitude=lambda m, n, a, b, g: case56_amplitude(m, n, a, b)),
    _Condition(6, False, (_lin(_N, ">", _M), _P_IS_2_OVER_N_MINUS_M,
                          _lin(_N, ">=", (3, 0, 0)), _lin((1, 0, 2), ">", _N)),
               "p = 2/(n-m) with the forced endpoint amplitude",
               amplitude=lambda m, n, a, b, g: case56_amplitude(m, n, a, b)),
)

#: families whose endpoint amplitude provably satisfies the case-5/6
#: identity U0 = (-a(n-m)^2 / (2bn(n+m)))^(1/(n-m)) together with
#: p = 2/(n-m); verified numerically in the test suite
CASE6_FAMILIES = frozenset(f for f, fam in _FAMILIES.items() if fam.case6)


def weak_KP_case(p: float, m: float, n: float, g: float, a: float, b: float,
                 U0: float | None = None) -> int | None:
    """Lowest-numbered satisfied weak-KP condition, or None.

    Cases 1-3 are open inequalities; cases 4-6 are equality regimes
    requiring the caller-supplied endpoint amplitude U0 to match the
    published expression (relative tolerance 1e-9).  g is treated as
    zero only when passed exactly as zero.
    """
    if not (p > 0 and m > 0 and n > 0) or m == 1:
        raise InvalidParameters(
            f"require p>0, n>0, m>0, m != 1; got p={p}, m={m}, n={n}"
        )
    for cond in _CONDITIONS:
        if cond.g_zero != (g == 0) or not all(at.holds(p, m, n) for at in cond.atoms):
            continue
        if cond.amplitude is None:
            return cond.case
        if U0 is not None:
            u = cond.amplitude(m, n, a, b, g)
            if u is not None and _isclose(U0, u):
                return cond.case
    return None


# ---------------------------------------------------------------------------
# exact interval algebra


@dataclass(frozen=True)
class Interval:
    """An interval of the family's free power with rational endpoints.

    ``hi = None`` encodes an unbounded right end.  Endpoint openness is
    tracked so that adjacent case regions merge into the single printed
    interval.
    """

    lo: Fraction
    hi: Fraction | None
    lo_open: bool = True
    hi_open: bool = True

    def contains(self, x: Fraction) -> bool:
        above = x > self.lo if self.lo_open else x >= self.lo
        return above and (self.hi is None or (x < self.hi if self.hi_open else x <= self.hi))

    def __str__(self) -> str:
        lo = "(" if self.lo_open else "["
        hi = ")" if self.hi_open else "]"
        up = "inf" if self.hi is None else str(self.hi)
        return f"{lo}{self.lo}, {up}{hi}"


def _intersect(x: Interval | None, y: Interval | None) -> Interval | None:
    if x is None or y is None:
        return None
    if x.lo > y.lo or (x.lo == y.lo and x.lo_open):
        lo, lo_open = x.lo, x.lo_open
    else:
        lo, lo_open = y.lo, y.lo_open
    if y.hi is None or (x.hi is not None and
                        (x.hi < y.hi or (x.hi == y.hi and x.hi_open))):
        hi, hi_open = x.hi, x.hi_open
    else:
        hi, hi_open = y.hi, y.hi_open
    if hi is not None and (lo > hi or (lo == hi and (lo_open or hi_open))):
        return None
    return Interval(lo, hi, lo_open, hi_open)


def _union_adjacent(x: Interval | None, y: Interval | None) -> Interval | None:
    """Union of two intervals that overlap or share a closed endpoint."""
    if x is None:
        return y
    if y is None:
        return x
    if x.lo > y.lo:
        x, y = y, x
    touching = x.hi is None or y.lo < x.hi or (y.lo == x.hi and not (x.hi_open and y.lo_open))
    if not touching:
        raise AssertionError(f"disjoint case regions {x} and {y}")
    if x.hi is None or (y.hi is not None and y.hi <= x.hi):
        hi, hi_open = x.hi, x.hi_open
    else:
        hi, hi_open = y.hi, y.hi_open
    return Interval(x.lo, hi, x.lo_open, hi_open)


def _linear_region(c: Fraction, d: Fraction, strict: bool,
                   domain: Interval | None) -> Interval | None:
    """Solve c*x + d > 0 (or >= 0) intersected with the domain."""
    if c == 0:
        if d > 0 or (d == 0 and not strict):
            return domain
        return None
    bound = Fraction(-d) / c
    if c > 0:
        half = Interval(bound, None, lo_open=strict)
    else:
        half = Interval(Fraction(-10 ** 9), bound, lo_open=True, hi_open=strict)
    return _intersect(half, domain)


def _linear(form: tuple, fam) -> tuple:
    """(c, d) with form(m(x), n(x)) = c*x + d in the family's free power x."""
    c = d = 0
    n_of_x = (1, 0) if fam.var == "n" else (0, 1)
    for coef, (xc, x0) in zip(form, (fam.m, n_of_x, (0, 1))):
        if coef:
            c, d = c + coef * xc, d + coef * x0
    return c, d


def _region(atoms: tuple[_Atom, ...], fam, region: Interval | None) -> Interval | None:
    """The part of ``region`` where every atom holds, exactly."""
    for atom in atoms:
        c, d = _linear(atom.rhs, fam)
        if atom.lhs is None:
            # p rel k/rhs  <=>  P*rhs(x) rel k*(dc*x + d0), both divisors > 0
            P, dc, d0 = fam.p
            c, d = P * c - atom.k * dc, P * d - atom.k * d0
        else:
            lc, ld = _linear(atom.lhs, fam)
            c, d = lc - c, ld - d
        # now the atom reads c*x + d rel 0
        for rel in ("<=", ">=") if atom.rel == "==" else (atom.rel,):
            sign = -1 if rel[0] == "<" else 1
            region = _linear_region(sign * c, sign * d, len(rel) == 1, region)
    return region


def _derive(fam) -> dict:
    """Exact regions of one family's free power: its domain, the four
    columns of the existence table, and the region of each weak-KP
    condition open to a catalog profile (all need g != 0), in case order."""
    domain = Interval(*fam.domain)
    cases, weak_KP = [], None
    for cond in _CONDITIONS:
        atoms = cond.atoms
        if cond.amplitude is not None:
            if cond.catalog_identity is None and not fam.case6:
                continue
            atoms += cond.catalog_identity or ()
        region = None if cond.g_zero else _region(atoms, fam, domain)
        if region is None:
            continue
        cases.append((cond, region))
        # an isolated equality point (case 4 at n = 3) is reported by
        # classify_family, but the published table keeps the interval
        # open there, so it is not widened into the interval
        if region.hi is None or region.lo < region.hi:
            weak_KP = _union_adjacent(weak_KP, region)
    return {"param": fam.var, "weak_K": _region((_WEAK_K,), fam, domain),
            "strong_K": _region((_STRONG["K"],), fam, domain), "weak_KP": weak_KP,
            "strong_KP": _region((_STRONG["KP"],), fam, domain),
            "domain": domain, "cases": cases}


#: the derived regions of every catalog family, a constant table
_REGIONS = {family: _derive(fam) for family, fam in _FAMILIES.items()}
_COLUMNS = ("param", "weak_K", "strong_K", "weak_KP", "strong_KP")


def _verdicts(regions: dict, x: float) -> tuple[dict, _Condition | None]:
    """The four flags at the exact rational value of x, and the
    lowest-numbered weak-KP condition holding there."""
    q = Fraction(x) if math.isfinite(x) else None
    holds = lambda region: q is not None and region is not None and region.contains(q)
    cond = next((c for c, region in regions["cases"] if holds(region)), None)
    return {"weak_K": holds(regions["weak_K"]),
            "strong_K": holds(regions["strong_K"]),
            "weak_KP_case": None if cond is None else cond.case,
            "strong_KP": holds(regions["strong_KP"])}, cond


def raw_theorem_intervals(family: FamilyId) -> dict[str, Interval | None]:
    """Existence intervals derived strictly from the admissibility
    conditions, without the published weak-KP overrides."""
    return {col: _REGIONS[family][col] for col in _COLUMNS}


def table1_intervals(family: FamilyId) -> dict[str, Interval | None]:
    """The published existence table row for one family.

    Identical to ``raw_theorem_intervals`` except that the weak-KP
    column of RATCN1/RATCN2/RATCN6 is the published unbounded range.
    """
    row = raw_theorem_intervals(family)
    if _FAMILIES[family].published_weak_KP:
        row["weak_KP"] = _REGIONS[family]["domain"]
    return row


def classify_family(family: FamilyId, n: float | None = None,
                    m: float | None = None, a: float = 1.0, b: float = 1.0,
                    g: float = 1.0) -> ExistenceReport:
    """Full existence report for one catalog family at a parameter point.

    Every verdict is the membership of the exact rational value of the
    free power in the family's derived regions; the weak-KP verdict is
    the lowest-numbered condition whose region holds it.  The equality
    cases 4-6 are decided through the analytically known
    endpoint-amplitude identities of the families rather than a numeric
    U0 extraction, so the verdict carries no fitting noise.  The signs
    of a and b are not checked; g = 0 is rejected, as no catalog
    profile exists there.
    """
    _require_nonzero_g(family, float(g))
    fam = _FAMILIES[family]
    x = m if fam.var == "m" else n
    if x is None:
        raise InvalidParameters(f"{family.value} is parameterized by {fam.var}")
    x = float(x)
    regions = _REGIONS[family]
    if not (math.isfinite(x) and regions["domain"].contains(Fraction(x))):
        raise InvalidParameters(
            f"{family.value}: {fam.var} = {x} outside the admissible range "
            f"{regions['domain']}"
        )
    flags, cond = _verdicts(regions, x)
    p, m_val = fam.p_of(x), fam.m_of(x)
    n_val = 1.0 if fam.var == "m" else x
    wk = flags["weak_K"]
    reasons = [f"weak K: p = {p:.6g} {'>' if wk else '<='} 2/n = {2 / n_val:.6g}"]
    u0 = None
    if cond is None:
        reasons.append("weak KP: no admissibility condition satisfied")
        if fam.published_weak_KP and wk:
            reasons.append(
                "note: the published table lists this family's weak-KP range "
                "as unbounded; the conditions taken literally stop at n = 3")
    elif cond.amplitude is None:
        bound = max(at.k / _value(at.rhs, m_val, n_val)
                    for at in cond.atoms if at.lhs is None)
        reasons.append(f"weak KP case {cond.case}: {cond.reason} = {bound:.6g}")
    else:
        u0 = cond.amplitude(m_val, n_val, a, b, g)
        reasons.append(f"weak KP case {cond.case}: {cond.reason}")
    return ExistenceReport(p=p, weak_K=wk, strong_K=flags["strong_K"],
                           weak_KP=flags["weak_KP_case"],
                           strong_KP=flags["strong_KP"], U0_constraint=u0,
                           reasons=tuple(reasons))


def region_grid(family: FamilyId, n_min: float, n_max: float,
                steps: int) -> list[dict]:
    """Classify ``steps`` uniform samples of the free power.

    Emits one record per sample with the derived m and the four
    verdicts; the weak-KP column carries the raw condition case id.
    Samples outside the admissible range get all-false flags.
    """
    if steps < 2:
        raise InvalidParameters(f"steps must be at least 2, got {steps}")
    if not (math.isfinite(n_min) and math.isfinite(n_max)):
        raise InvalidParameters(f"sweep bounds must be finite, got {n_min}, {n_max}")
    fam, regions = _FAMILIES[family], _REGIONS[family]
    rows = []
    for x in np.linspace(float(n_min), float(n_max), steps):
        x = float(x)
        rows.append({"m": fam.m_of(x), "n": 1.0 if fam.var == "m" else x,
                     **_verdicts(regions, x)[0]})
    return rows


def region_grid_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["m", "n", "weak_K", "strong_K", "weak_KP_case", "strong_KP"])
    for r in rows:
        w.writerow([repr(r["m"]), repr(r["n"]),
                    int(r["weak_K"]), int(r["strong_K"]),
                    "" if r["weak_KP_case"] is None else r["weak_KP_case"],
                    int(r["strong_KP"])])
    return buf.getvalue()
