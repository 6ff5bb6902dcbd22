"""Frozen weak residuals at the near-threshold and tail-noise points.

``tests/data/weak_residuals_parent.json`` holds, for each point below,
the K and KP reports of ``verify_weak`` (every scaled residual and the
quadrature error estimate), as the verifier computed them when the file
was last regenerated: with every piece split at the zeros of phi^(hi),
and the fig. 5 profiles in inverse-beta closed form, built by the same
function ``compactons verify --numeric`` uses.  A change that only
reorganises the arithmetic must keep every verdict and every entry to
1e-12.

A change that means to move these numbers (a new stopping rule, graded
panels) regenerates the file on purpose, from the new code:

    PYTHONPATH=src python3 tests/test_verdict_fixture.py

and records the old and new residuals side by side.
"""

import json
import os
import sys
from functools import partial

import pytest

from compactons import catalog, shooting, weakform
from compactons.catalog import FamilyId
from compactons.params import EquationParams

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "data", "weak_residuals_parent.json")
THRESHOLD = 1e-7   # the verifier's default
TOL = 1e-12

# weak K and weak KP hold at every point (existence.classify_family for
# the catalog points, weak_KP_case for fig. 5), so each checks both;
# a = g = 1 throughout
POINTS = [
    # the near-threshold catalog points of the benchmark
    {"family": "zsq2", "n": 1.75, "b": -1.0},
    {"family": "zsq2", "n": 1.875, "b": -1.0},
    {"family": "cos2", "m": 0.125, "b": -1.0},
    # p = 375: bumps that touch only the far tail
    {"family": "cos1", "n": 1.00533},
    {"family": "ratcn5", "n": 0.345, "b": -1.0},
    # fig. 5 of the paper, left and right: numeric (inverse-beta) profiles
    {"m": 2.25, "n": 2.0},
    {"m": 0.5, "n": 0.9, "b": -1.0},
]


def _profile(point: dict):
    """(u_eval, params, L) as ``compactons verify`` builds them."""
    kw = dict(point)
    family = kw.pop("family", None)
    if family is None:
        params = EquationParams(**{"a": 1.0, "b": 1.0, **kw})
        u_eval, L = shooting.inverse_beta_profile(params, 1.0)
        return u_eval, params, L
    prof = catalog.construct(FamilyId(family), **kw)
    return partial(catalog.evaluate, prof), prof.params, prof.L


def run_point(point: dict) -> dict:
    u_eval, params, L = _profile(point)
    reports = {}
    for eq in ("K", "KP"):
        rep = weakform.verify_weak(u_eval, params, 1.0, L, eq)
        reports[eq] = {"residuals": list(rep.residuals),
                       "quadrature_error_estimate": rep.quadrature_error_estimate}
    return {"point": point, "reports": reports}


@pytest.fixture(scope="module")
def frozen():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("i", range(len(POINTS)),
                         ids=lambda i: "-".join(f"{k}={v:g}" if k != "family" else v
                                                for k, v in POINTS[i].items()))
def test_same_verdicts_and_residuals(i, frozen):
    entry = frozen[i]
    assert entry["point"] == POINTS[i]
    got = run_point(POINTS[i])
    assert set(entry["reports"]) == {"K", "KP"}
    for eq, want in entry["reports"].items():
        rep = got["reports"][eq]
        worst_want = max(abs(r) for r in want["residuals"])
        worst_got = max(abs(r) for r in rep["residuals"])
        assert (worst_got < THRESHOLD) == (worst_want < THRESHOLD), eq
        assert len(rep["residuals"]) == len(want["residuals"])
        for r, w in zip(rep["residuals"], want["residuals"]):
            assert abs(r - w) <= TOL, (eq, r, w)
        assert abs(rep["quadrature_error_estimate"]
                   - want["quadrature_error_estimate"]) <= TOL, eq


if __name__ == "__main__":
    entries = [run_point(point) for point in POINTS]
    with open(FIXTURE, "w") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
    sys.stdout.write(f"wrote {FIXTURE}\n")
