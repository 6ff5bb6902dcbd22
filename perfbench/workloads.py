"""Seeded task lists for the four benchmark workloads, and their oracles.

A task is one ``compactons`` command line plus what an independent
oracle says its result must be.  The package only ever sees the
generated argument list; every expected verdict is worked out here,
before timing starts.

A run times one task list, drawn from a generator seeded with
``workload/seed/0``; its warm-up draws another, seeded with
``workload/seed/-1``, so no timed command line has run before.  The
list opens with the workload's fixed points: the near-threshold catalog
points, the fig. 5 and sizing points of the numeric workloads, and
``table1``, which takes no arguments.

Draws are stratified (one uniform draw per stratum of each range) so
that every seed gives the same mix of families and regions.  Each range
is taken from the package or its tests, as its comment says; within the
ranges nothing is excluded: points where today's verifier or solver is
known to miss its oracle are drawn like any other and count as failed
tasks.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from compactons import catalog, existence
from compactons.catalog import FamilyId

WORKLOADS = ("catalog_verify", "numeric_verify", "numeric_solve", "classify_cli")

GOLDEN_TABLE1 = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "tests", "data", "table1_golden.csv")

# Families whose admissible interval has no upper end (all start at n = 1)
# are drawn up to n = 3, the largest n of the draws in tests/conftest.py.
_OPEN_HI = 3.0

# Coefficient magnitudes |a|, |b|, |g| span 1 (tests/conftest.py, fig. 5)
# to 3 (b = -3 in tests/test_acceptance.py; g = 2.5 in tests/test_catalog.py).
_COEFF_RANGE = (1.0, 3.0)

THRESHOLD = 1e-7   # the verifier's default residual threshold
# A must-pass residual above this is a wrong answer, not a known miss:
# every near-threshold miss of today's code is within 2x of THRESHOLD on
# the catalog and at the fig. 5 points.
RESIDUAL_LIMIT = 10 * THRESHOLD

_SAME_SIGNS = catalog.sign_condition(FamilyId.ZSQ1)  # sgn(g) = sgn(a) = sgn(b)

_VERDICT = re.compile(
    r"\[(K|KP)\] max scaled residual (\S+) \(threshold \S+\) -> (pass|FAIL)")


@dataclass
class Task:
    """One command line and the oracle data its result is checked with."""

    kind: str                    # verify | solve | classify | table1 | region
    argv: list[str]
    expect: dict = field(default_factory=dict)
    output: str | None = None    # file the command writes, if any


@dataclass
class Outcome:
    """What checking one task's result found."""

    ok: bool                     # result agrees with the oracle
    exact_ok: bool = True        # no wrong answer or inconsistent output
    residuals: list[float] = field(default_factory=list)  # must-pass verdicts
    L_relerr: float | None = None
    note: str = ""


def _arg(name: str, value: float) -> str:
    return f"--{name}={float(value)!r}"


def _magnitudes(rng: random.Random) -> tuple[float, float, float]:
    lo, hi = _COEFF_RANGE
    return tuple(lo * (hi / lo) ** rng.random() for _ in range(3))


def _coefficients(rng: random.Random, pattern: str) -> tuple[float, float, float]:
    """(a, b, g) with signs obeying the family's sign condition."""
    s = rng.choice((1.0, -1.0))
    a, b, g = _magnitudes(rng)
    sb = s if pattern == _SAME_SIGNS else -s
    return s * a, sb * b, s * g


def _free_range(family: FamilyId) -> tuple[str, float, float]:
    pname, lo, hi = catalog.admissible_interval(family)
    return pname, float(lo), float(hi) if hi is not None else _OPEN_HI


def _stratified(rng: random.Random, lo: float, hi: float, strata: int) -> list[float]:
    w = (hi - lo) / strata
    return [rng.uniform(lo + j * w, lo + (j + 1) * w) for j in range(strata)]


# ---------------------------------------------------------------------------
# catalog_verify

# near-threshold points, always timed: the weak-K residual of ZSQ2 at
# n = 1.875 sits within 2x of the 1e-7 threshold today
_CATALOG_FIXED = [
    (FamilyId.ZSQ2, 1.75, (1.0, -1.0, 1.0)),
    (FamilyId.ZSQ2, 1.875, (1.0, -1.0, 1.0)),
    (FamilyId.COS2, 0.125, (1.0, -1.0, 1.0)),
]


def _catalog_verify_tasks(family: FamilyId, x: float,
                          coeffs: tuple[float, float, float]) -> list[Task]:
    """The verify task of one profile, if existence theory says it is a
    weak solution of K or KP."""
    pname = catalog.admissible_interval(family)[0]
    a, b, g = coeffs
    rep = existence.classify_family(family, a=a, b=b, g=g, **{pname: x})
    base = ["verify", "--family", family.value, _arg(pname, x),
            _arg("a", a), _arg("b", b), _arg("g", g)]
    # the verifier's verdicts must follow the closed-form existence
    # verdicts; one command checks both equations, as a user verifying a
    # profile would, so every task is one profile
    eqs = tuple(eq for eq, holds in (("K", rep.weak_K), ("KP", rep.weak_KP is not None))
                if holds)
    if not eqs:
        return []
    return [Task("verify", base + ["--equation", "both" if len(eqs) == 2 else eqs[0]],
                 {"equations": eqs, "limit": RESIDUAL_LIMIT})]


# A profile's verify cost changes by up to +-30% across its family's
# interval, so one draw per family leaves the workload's cost at the
# mercy of the seed; one draw in each half of the interval halves that.
_CATALOG_STRATA = 2


def catalog_verify(rng: random.Random, first: bool) -> list[Task]:
    tasks = []
    if first:
        for family, x, coeffs in _CATALOG_FIXED:
            tasks += _catalog_verify_tasks(family, x, coeffs)
    for family in FamilyId:
        _, lo, hi = _free_range(family)
        for x in _stratified(rng, lo, hi, _CATALOG_STRATA):
            coeffs = _coefficients(rng, catalog.sign_condition(family))
            tasks += _catalog_verify_tasks(family, x, coeffs)
    return tasks


# ---------------------------------------------------------------------------
# numeric points: (m, n, a, b, g) passing the shooting preconditions

# fig. 5 of the paper, left (m = 2.25, n = 2) and right (m = 0.5, n = 0.9,
# b = -1), then the two points whose weak-K residual missed the threshold
# when the benchmark was sized (m = 4, n = 2.5 and m = 0.3, n = 0.7)
_FIG5 = [(2.25, 2.0, 1.0, 1.0, 1.0), (0.5, 0.9, 1.0, -1.0, 1.0)]
_NUMERIC_FIXED = _FIG5 + [(4.0, 2.5, 1.0, 1.0, 1.0), (0.3, 0.7, 1.0, -1.0, 1.0)]
# m spans the fixed points, 0.3 to 4, on either side of the excluded m = 1;
# n - min(1, m) runs from 0 (the shooting precondition) to 1.5, the gap at
# the m = 4, n = 2.5 sizing point and the largest among the fixed points
_M_BELOW, _M_ABOVE, _N_GAP = (0.3, 1.0), (1.0, 4.0), 1.5


# m strata below and above m = 1, and n strata per m stratum: 34 points
# with the fixed ones, which keeps a numeric_verify pass within a run
_M_STRATA_BELOW, _M_STRATA_ABOVE, _N_STRATA = 2, 4, 5


def numeric_points(rng: random.Random, first: bool) -> list[tuple]:
    """Stratified draws of (m, n, a, b, g) over m in (0.3, 1) U (1, 4) and
    n in (min(1, m), min(1, m) + 1.5), after the fixed points when ``first``.

    The m strata split each side of m = 1 (the cost of a shoot differs
    between the two sides, so every draw gets the same number of each);
    every cell draws its own m and n.  Signs satisfy
    B/A > 0 (sgn g = sgn a) and the crest concavity A (1 - m) < 0
    (sgn b = sgn a for m > 1, -sgn a for m < 1), so every point is
    accepted by ``shoot``'s preconditions.
    """
    pts = list(_NUMERIC_FIXED) if first else []
    m_cells = [(lo + k * (hi - lo) / count, lo + (k + 1) * (hi - lo) / count)
               for (lo, hi), count in ((_M_BELOW, _M_STRATA_BELOW),
                                       (_M_ABOVE, _M_STRATA_ABOVE))
               for k in range(count)]
    for m_lo, m_hi in m_cells:
        for j in range(_N_STRATA):
            m = rng.uniform(m_lo, m_hi)
            n_lo = min(1.0, m) + j * _N_GAP / _N_STRATA
            n = rng.uniform(n_lo, n_lo + _N_GAP / _N_STRATA)
            s = rng.choice((1.0, -1.0))
            a, b, g = _magnitudes(rng)
            sb = s if m > 1.0 else -s
            pts.append((m, n, s * a, sb * b, s * g))
    return pts


def _numeric_args(m, n, a, b, g) -> list[str]:
    return [_arg("m", m), _arg("n", n), _arg("a", a), _arg("b", b), _arg("g", g)]


def endpoint_power(m: float, n: float) -> float:
    """Endpoint power p of the shooting profile: U ~ (L - |xi|)**p with
    p = 2/(n - min(1, m)), which always exceeds 2/n."""
    return 2.0 / (n - min(1.0, m))


def numeric_verify(rng: random.Random, first: bool) -> list[Task]:
    """Weak K at every point; weak KP too at the fig. 5 points, where
    ``weak_KP_case`` says it holds (a KP battery doubles a task's cost).

    Only the fig. 5 residuals have a known margin below RESIDUAL_LIMIT;
    at a drawn point the PCHIP profile alone misses by up to 1e5 x
    THRESHOLD today, so there only a scaled residual of 1 or more (a
    profile no closer to a solution than zero is) counts as a wrong
    answer.
    """
    tasks = []
    for i, (m, n, a, b, g) in enumerate(numeric_points(rng, first)):
        fig5 = first and i < len(_FIG5)
        kp = fig5 and existence.weak_KP_case(endpoint_power(m, n), m, n, g, a, b) is not None
        eqs = ("K", "KP") if kp else ("K",)
        tasks.append(Task("verify",
                          ["verify", "--numeric", *_numeric_args(m, n, a, b, g),
                           "--equation", "both" if kp else "K"],
                          {"equations": eqs, "point": (m, n, a, b, g),
                           "limit": RESIDUAL_LIMIT if fig5 else 1.0}))
    return tasks


# |L_shoot - L_quadrature| / L_quadrature beyond this at a fixed point is a
# wrong answer; today's code is within 1e-9 there
L_RELERR_LIMIT = 1e-6


def numeric_solve(rng: random.Random, first: bool, out_dir: str) -> list[Task]:
    tasks = []
    for i, (m, n, a, b, g) in enumerate(numeric_points(rng, first)):
        out = f"{out_dir}/solve-{i}.json"
        fixed = first and i < len(_NUMERIC_FIXED)
        tasks.append(Task("solve",
                          ["solve", *_numeric_args(m, n, a, b, g),
                           "--format", "json", "-o", out],
                          {"point": (m, n, a, b, g),
                           "L_limit": L_RELERR_LIMIT if fixed else math.inf},
                          output=out))
    return tasks


# ---------------------------------------------------------------------------
# classify_cli

_CLASSIFY_STRATA = 6
_REGION_STEPS = 101   # the ``region`` command's default


def _interval_verdicts(family: FamilyId, x: float) -> dict:
    """Verdicts from the exact rational intervals (an independent route
    to the pointwise predicates ``classify`` applies)."""
    q = Fraction(x)
    raw = existence.raw_theorem_intervals(family)
    return {col: raw[col] is not None and raw[col].contains(q)
            for col in ("weak_K", "strong_K", "weak_KP", "strong_KP")}


def classify_cli(rng: random.Random, first: bool, out_dir: str) -> list[Task]:
    tasks = []
    if first:
        with open(GOLDEN_TABLE1, "rb") as fh:
            golden = fh.read()
        tasks.append(Task("table1", ["table1", "-o", f"{out_dir}/table1.csv"],
                          {"golden": golden}, output=f"{out_dir}/table1.csv"))
    regions = rng.sample(list(FamilyId), 4)
    for k, family in enumerate(regions):
        _, lo, hi = _free_range(family)
        # sweeps reach a quarter-span past each end of the admissible
        # range, so they also cover the rows region_grid marks all-false
        span = hi - lo
        x0 = rng.uniform(lo - 0.25 * span, lo + 0.25 * span)
        x1 = rng.uniform(hi - 0.25 * span, hi + 0.25 * span)
        out = f"{out_dir}/region-{k}.csv"
        tasks.append(Task("region",
                          ["region", "--family", family.value, _arg("n-min", x0),
                           _arg("n-max", x1), "--steps", str(_REGION_STEPS),
                           "-o", out],
                          {"family": family, "xs": np.linspace(x0, x1, _REGION_STEPS)},
                          output=out))
    draws = {family: _stratified(rng, *_free_range(family)[1:], _CLASSIFY_STRATA)
             for family in FamilyId}
    for j in range(_CLASSIFY_STRATA):
        for family in FamilyId:
            pname = catalog.admissible_interval(family)[0]
            x = draws[family][j]
            a, b, g = _coefficients(rng, catalog.sign_condition(family))
            tasks.append(Task("classify",
                              ["classify", "--family", family.value, _arg(pname, x),
                               _arg("a", a), _arg("b", b), _arg("g", g),
                               "--format", "json"],
                              {"family": family, "x": x,
                               "verdicts": _interval_verdicts(family, x)}))
    return tasks


def make_tasks(workload: str, seed: int, draw: int, out_dir: str) -> list[Task]:
    """The tasks of one draw; draw 0, the one timed, opens with the
    workload's fixed points."""
    rng = random.Random(f"{workload}/{seed}/{draw}")
    first = draw == 0
    if workload == "catalog_verify":
        return catalog_verify(rng, first)
    if workload == "numeric_verify":
        return numeric_verify(rng, first)
    if workload == "numeric_solve":
        return numeric_solve(rng, first, out_dir)
    if workload == "classify_cli":
        return classify_cli(rng, first, out_dir)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# oracles

def check(task: Task, code, stdout: str) -> Outcome:
    """Compare one task's exit code and output with its oracle.

    ``code`` is the exit code, or the exception the command raised.
    """
    if isinstance(code, BaseException):
        return Outcome(ok=False, note=f"raised {type(code).__name__}: {code}")
    if task.kind == "verify":
        return _check_verify(task, code, stdout)
    if code != 0:
        return Outcome(ok=False, note=f"exit code {code}")
    checker = {"solve": _check_solve, "classify": _check_classify,
               "table1": _check_table1, "region": _check_region}[task.kind]
    try:
        return checker(task, stdout)
    except (OSError, ValueError, KeyError) as exc:
        return Outcome(ok=False, exact_ok=False, note=f"unreadable output: {exc!r}")


def _check_verify(task: Task, code: int, stdout: str) -> Outcome:
    found = {eq: (float(res), verdict == "pass")
             for eq, res, verdict in _VERDICT.findall(stdout)}
    wanted = task.expect["equations"]
    if code not in (0, 4) or set(found) != set(wanted):
        return Outcome(ok=False, note=f"exit code {code}, verdicts {sorted(found)}")
    all_pass = all(passed for _, passed in found.values())
    residuals = [res for res, _ in found.values()]
    # exit 4 exactly when some printed verdict failed
    consistent = (code == 0) == all_pass
    within = max(residuals) <= task.expect["limit"]
    note = "verdict FAIL where the oracle says pass" if not all_pass else ""
    if not within:
        note = f"residual beyond the limit {task.expect['limit']:g}"
    return Outcome(ok=all_pass and consistent, exact_ok=consistent and within,
                   residuals=residuals, note=note)


def _check_solve(task: Task, stdout: str) -> Outcome:
    with open(task.output) as fh:
        meta = json.load(fh)["metadata"]
    m, n, a, b, g = task.expect["point"]
    same = (meta["m"], meta["n"], meta["a"], meta["b"], meta["g"]) == (m, n, a, b, g)
    Lq, Ls = meta["L_quadrature"], meta["L_shoot"]
    L_relerr = abs(Ls - Lq) / Lq
    within = L_relerr <= task.expect["L_limit"]
    note = "" if same else "metadata differs from the request"
    if not within:
        note = f"L_relerr {L_relerr:.3g} beyond the limit {task.expect['L_limit']:g}"
    return Outcome(ok=same and within, exact_ok=same and within, L_relerr=L_relerr,
                   note=note)


def _check_classify(task: Task, stdout: str) -> Outcome:
    got = json.loads(stdout)
    want = task.expect["verdicts"]
    same = (got["family"] == task.expect["family"].value
            and all(got[col] == verdict for col, verdict in want.items()))
    return Outcome(ok=same, exact_ok=same, note="" if same else "verdicts differ")


def _check_table1(task: Task, stdout: str) -> Outcome:
    with open(task.output, "rb") as fh:
        same = fh.read() == task.expect["golden"]
    return Outcome(ok=same, exact_ok=same, note="" if same else "table1 differs")


def _check_region(task: Task, stdout: str) -> Outcome:
    family, xs = task.expect["family"], task.expect["xs"]
    pname, lo, hi = catalog.admissible_interval(family)
    with open(task.output, newline="") as fh:
        rows = list(csv.DictReader(fh))
    same = len(rows) == len(xs)
    for row, x in zip(rows, xs):
        x = float(x)
        inside = x > lo and (hi is None or x < hi)
        want = _interval_verdicts(family, x) if inside else dict.fromkeys(
            ("weak_K", "strong_K", "weak_KP", "strong_KP"), False)
        got = {"weak_K": row["weak_K"] == "1", "strong_K": row["strong_K"] == "1",
               "weak_KP": row["weak_KP_case"] != "", "strong_KP": row["strong_KP"] == "1"}
        free = float(row[pname])
        same = same and got == want and free == x
    return Outcome(ok=same, exact_ok=same, note="" if same else "region rows differ")


def output_bytes(task: Task, stdout: str) -> int:
    """Bytes the command wrote to standard output and to its output file."""
    size = len(stdout.encode())
    if task.output is not None and os.path.exists(task.output):
        size += os.path.getsize(task.output)
    return size

