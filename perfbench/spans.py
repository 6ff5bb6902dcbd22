"""Span tracing installed from outside the package.

In a traced run the benchmark replaces the public functions of the
``compactons`` modules with wrappers that record one span per call:
name, start, end, parent span, task id, the number of points the call
was given, and a work count read from its result (ODE/quadrature
``nfev``, serialized bytes).  Spans stay in memory until the run ends.
Nothing under ``src/`` is changed; untraced runs never install the
wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import functools
from collections import defaultdict
from time import perf_counter

import numpy as np

from compactons import catalog, cli, existence, shooting, weakform

# span record fields
NAME, START, END, PARENT, TASK, POINTS, WORK = range(7)


def _size_of(i: int):
    """Points given to a call: the size of its i-th positional argument."""
    return lambda args: int(np.size(args[i]))


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.task_id = -1
        self.reports: list = []   # ResidualReports returned by verify_weak
        self.shoots: list = []    # NumericCompactons returned by shoot

    def wrap(self, name, fn, points=None, work=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task_id,
                   points(args) if points else 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if work is not None:
                rec[WORK] = work(out)
            return out

        return traced

    def _wrap_verify_weak(self, fn):
        inner = self.wrap("weakform.verify_weak", fn)

        @functools.wraps(fn)
        def verify_weak(u_eval, *args, **kwargs):
            # count the callable the verifier receives, as it receives it
            rep = inner(self.wrap("weakform.u_eval", u_eval, _size_of(0)), *args, **kwargs)
            self.reports.append(rep)
            return rep

        return verify_weak

    def _wrap_shoot(self, fn):
        inner = self.wrap("shooting.shoot", fn)

        @functools.wraps(fn)
        def shoot(*args, **kwargs):
            nc = inner(*args, **kwargs)
            self.shoots.append(nc)
            return nc

        return shoot

    def _patches(self):
        """(owner, attribute, wrapper) for every traced entry point."""
        return [
            (cli, "main", self.wrap("cli.main", cli.main)),
            (weakform, "verify_weak", self._wrap_verify_weak(weakform.verify_weak)),
            (weakform, "evaluate_testfn",
             self.wrap("weakform.evaluate_testfn", weakform.evaluate_testfn,
                       _size_of(1))),
            (weakform, "boundary_quantities",
             self.wrap("weakform.boundary_quantities", weakform.boundary_quantities)),
            (weakform, "endpoint_power_fit",
             self.wrap("weakform.endpoint_power_fit", weakform.endpoint_power_fit)),
            (catalog, "construct", self.wrap("catalog.construct", catalog.construct)),
            (catalog, "first_zero", self.wrap("catalog.first_zero", catalog.first_zero)),
            (catalog, "evaluate", self.wrap("catalog.evaluate", catalog.evaluate)),
            (catalog, "jacobi", self.wrap("elliptic.jacobi", catalog.jacobi, _size_of(0))),
            (shooting, "shoot", self._wrap_shoot(shooting.shoot)),
            (shooting, "solve_ivp", self.wrap("shooting.solve_ivp", shooting.solve_ivp,
                                              work=lambda r: r.nfev)),
            (shooting, "tanhsinh", self.wrap("shooting.tanhsinh", shooting.tanhsinh,
                                             work=lambda r: int(np.sum(r.nfev)))),
            (shooting.NumericCompacton, "to_json",
             self.wrap("shooting.serialize", shooting.NumericCompacton.to_json,
                       work=len)),
            (shooting.NumericCompacton, "to_csv",
             self.wrap("shooting.serialize", shooting.NumericCompacton.to_csv,
                       work=len)),
            (existence, "classify_family",
             self.wrap("existence.classify_family", existence.classify_family)),
            (existence, "table1_intervals",
             self.wrap("existence.table1_intervals", existence.table1_intervals)),
            (existence, "region_grid",
             self.wrap("existence.region_grid", existence.region_grid)),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for owner, attr, wrapper in self._patches():
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start", "end", "parent", "task", "points", "work"])
            for i, rec in enumerate(self.spans):
                w.writerow([i, *rec])

    def totals(self) -> dict:
        """Per span name: calls, points, work, total and self seconds, and
        seconds of the spans directly under a ``cli.main`` span, by module."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out = defaultdict(lambda: dict(calls=0, points=0, work=0, s=0.0, self_s=0.0))
        top = defaultdict(float)
        for i, rec in enumerate(self.spans):
            dur = rec[END] - rec[START]
            t = out[rec[NAME]]
            t["calls"] += 1
            t["points"] += rec[POINTS]
            t["work"] += rec[WORK]
            t["s"] += dur
            t["self_s"] += dur - child[i]
            parent = rec[PARENT]
            if parent >= 0 and self.spans[parent][NAME] == "cli.main":
                top[rec[NAME].split(".")[0]] += dur
        return {"names": out, "under_main": top}
