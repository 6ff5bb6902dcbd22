"""Smoke and determinism tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402
import workloads  # noqa: E402

# the smallest size that still reaches every kind of task of a workload
SMALLEST = {"classify_cli": 6}


def smallest(workload, seed, draw, out_dir):
    tasks = workloads.make_tasks(workload, seed, draw, out_dir)
    return tasks[:SMALLEST.get(workload, 2)]


def result(workload, trace):
    return run.measure(workload, 7, 0.1, trace, make_tasks=smallest)


def units(res):
    return {name: m["unit"] for name, m in res["metrics"].items()}


def test_spec_names_every_workload():
    assert WORKLOADS == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_printed_with_its_unit(workload, capsys):
    res = result(workload, 0)
    printed = capsys.readouterr().out.splitlines()
    assert res["attempted"] >= 1 and res["correct"] is True
    assert units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, m in res["metrics"].items():
        assert m["value"] > 0
        assert any(line.startswith(f"  {name} ") and line.endswith(f" {m['unit']}")
                   for line in printed), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_yields_every_layer_metric_and_repeats_its_counts(workload):
    first, second = result(workload, 1), result(workload, 1)
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [name for name, unit in units(first).items() if unit == "count"]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_last_line_is_the_result(capsys):
    assert run.main(["--workload", "classify_cli", "--seed", "1",
                     "--seconds", "0.1", "--trace", "0"]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "classify_cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_same_seed_same_tasks():
    a = workloads.make_tasks("catalog_verify", 3, 0, "out")
    b = workloads.make_tasks("catalog_verify", 3, 0, "out")
    c = workloads.make_tasks("catalog_verify", 4, 0, "out")
    assert [t.argv for t in a] == [t.argv for t in b] != [t.argv for t in c]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_warm_up_shares_no_command_line_with_the_timed_list(workload):
    warm = workloads.make_tasks(workload, 3, -1, "out")
    timed = workloads.make_tasks(workload, 3, 0, "out")
    assert not {tuple(t.argv) for t in warm} & {tuple(t.argv) for t in timed}


def test_forked_pass_returns_checked_results(tmp_path):
    tasks = workloads.make_tasks("classify_cli", 1, 0, str(tmp_path))[-2:]
    results = run.run_forked(tasks)
    assert len(results) == 2
    for outcome, dt, nbytes in results:
        assert outcome.ok and outcome.exact_ok and dt > 0 and nbytes > 0


class TestOracles:
    task = workloads.Task("verify", ["verify"],
                          {"equations": ("K",), "limit": workloads.RESIDUAL_LIMIT})

    def line(self, verdict, residual="2.000e-07"):
        return (f"cos1 [K] max scaled residual {residual} (threshold 1e-07) "
                f"-> {verdict}\n")

    def test_verify_fail_counts_as_failed(self):
        out = workloads.check(self.task, 4, self.line("FAIL"))
        assert not out.ok and out.exact_ok and out.residuals == [2e-7]

    def test_residual_beyond_the_limit_is_wrong(self):
        out = workloads.check(self.task, 4, self.line("FAIL", "2.000e-06"))
        assert not out.ok and not out.exact_ok

    def test_exit_code_disagreeing_with_verdict_is_wrong(self):
        assert not workloads.check(self.task, 0, self.line("FAIL")).exact_ok

    def test_raised_exception_counts_as_failed(self):
        assert not workloads.check(self.task, ZeroDivisionError("x"), "").ok

    def test_table1_must_match_golden_bytes(self, tmp_path):
        out = tmp_path / "t.csv"
        out.write_bytes(b"family\n")
        task = workloads.Task("table1", [], {"golden": b"family\r\n"}, output=str(out))
        res = workloads.check(task, 0, "")
        assert not res.ok and not res.exact_ok
