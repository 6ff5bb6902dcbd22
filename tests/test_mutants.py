"""The verifier must fail every slightly wrong profile: a mutation oracle.

At one admissible point of each of the 14 families, the closed-form
profile passes ``verify_weak`` at 1e-12, and four mutants of relative
size 1e-6 must FAIL at the verifier's threshold 1e-7, for weak K and,
where the existence table says it holds, weak KP:

- amplitude: (1 + eps) * U;
- width: U((1 + eps) * xi) on the half-width L / (1 + eps);
- tail power: U * ((L - |xi|) / L)**eps;
- the equation's free power (n, or m for COS2) times (1 + eps), with the
  profile unchanged.

The scaled residual grows linearly in eps, at about 0.07-14 eps, so the
gap between 1e-6 mutants and the 1e-7 threshold is the verifier's
detection margin.  The cases that miss it are marked ``xfail`` (strict)
and named below with their cause.
"""

import functools

import numpy as np
import pytest

from compactons import existence
from compactons.catalog import FamilyId, admissible_interval, construct
from compactons.params import EquationParams
from compactons.weakform import verify_weak

from conftest import DRAWS

EPS = 1e-6
THRESHOLD = 1e-7   # the verifier's default
EXACT = 1e-12


def mutants(prof):
    """(name, u_eval, params, L) of the unperturbed profile and its four
    eps-mutants."""
    ev, pr, L = prof, prof.params, prof.L

    def tail(x):
        x = np.asarray(x, dtype=float)
        return ev(x) * np.maximum((L - np.abs(x)) / L, 0.0) ** EPS

    var = admissible_interval(prof.family)[0]
    power = {var: getattr(pr, var) * (1 + EPS)}
    shifted = EquationParams(**{**dict(m=pr.m, n=pr.n, a=pr.a, b=pr.b), **power})
    return [
        ("exact", ev, pr, L),
        ("amplitude", lambda x: (1 + EPS) * ev(x), pr, L),
        ("width", lambda x: ev((1 + EPS) * np.asarray(x, dtype=float)), pr, L / (1 + EPS)),
        ("tail", tail, pr, L),
        (f"power {var}", ev, shifted, L),
    ]


def equations(family, point):
    var = admissible_interval(family)[0]
    rep = existence.classify_family(family, b=point.get("b", 1.0), **{var: point[var]})
    return [eq for eq, holds in (("K", rep.weak_K), ("KP", rep.weak_KP is not None))
            if holds]


# the tail mutant under weak KP where the profile's edge power is small
# (p = 4-5): its scaled residual is 0.07-0.08 eps, so eps = 1e-6 stays
# under the threshold and the mutant is first detected near eps = 1.5e-6
_UNDETECTED = {("cn1", "KP", "tail"), ("sn1", "KP", "tail"), ("ratcn3", "KP", "tail")}


def _case(family, eq, name):
    key = (family.value, eq, name.split()[0])
    marks = ([pytest.mark.xfail(strict=True, reason="tail mutant under the threshold")]
             if key in _UNDETECTED else [])
    return pytest.param(family, eq, name, marks=marks, id=f"{family.value}-{eq}-{key[2]}")


MUTATIONS = ("exact", "amplitude", "width", "tail", "power")
CASES = [_case(family, eq, name) for family in FamilyId
         for eq in equations(family, DRAWS[family][0]) for name in MUTATIONS]


@functools.cache
def scaled_residuals(family, eq):
    """max_abs_scaled of the exact profile and of each mutant, by name."""
    prof = construct(family, **DRAWS[family][0])
    return {name.split()[0]: verify_weak(u, pr, prof.g, L, eq).max_abs_scaled
            for name, u, pr, L in mutants(prof)}


@pytest.mark.parametrize("family, eq, name", CASES)
def test_exact_passes_and_mutant_fails(family, eq, name):
    res = scaled_residuals(family, eq)[name]
    if name == "exact":
        assert res <= EXACT
    else:
        assert res > THRESHOLD
