"""What a one-shot ``compactons`` process pays for besides its command:
the scipy modules it imports, and the page faults of a repeated verify.
Each case runs in a fresh interpreter, because this one has loaded scipy
and changed its allocator's state."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# runs sys.argv[1] (a JSON list of command lines) with stdout captured and
# prints the exit codes, then the loaded scipy modules
_LOADED = """
import contextlib, io, json, sys
from compactons import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""

# runs the command lines twice and prints the minor page faults of the second time
_FAULTS = """
import contextlib, io, json, resource, sys
from compactons import cli
runs = json.loads(sys.argv[1])
def once():
    with contextlib.redirect_stdout(io.StringIO()):
        return [cli.main(argv) for argv in runs]
once()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
codes = once()
print(json.dumps([codes, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before]))
"""


def _fresh(code, runs, cwd):
    # profile, region and solve write their default files into cwd
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("COMPACTONS_OUTPUT_DIR", None)
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


COS1 = ["--family", "cos1", "--n", "2"]


class TestScipyImports:
    """Exact algebra and numpy quadrature load no scipy; ``verify
    --numeric`` needs only scipy.special, and only ``solve`` (through
    ``shoot``) loads scipy.integrate."""

    @pytest.mark.parametrize("argv", [
        ["classify", *COS1],
        ["table1"],
        ["region", "--family", "cos1", "--n-min", "1.5", "--n-max", "2.5"],
        ["profile", *COS1],
        ["verify", *COS1],
    ], ids=lambda argv: argv[0])
    def test_closed_form_commands_load_no_scipy(self, argv, tmp_path):
        assert _fresh(_LOADED, [argv], tmp_path) == [[0], []]

    def test_importing_the_cli_loads_no_scipy(self, tmp_path):
        assert _fresh(_LOADED, [], tmp_path) == [[], []]

    def test_numeric_verify_loads_special_only(self, tmp_path):
        codes, loaded = _fresh(_LOADED, [["verify", "--numeric", "--m", "2.25", "--n", "2"]],
                               tmp_path)
        assert codes == [0]
        assert "scipy.special" in loaded
        assert "scipy.integrate" not in loaded

    def test_solve_loads_integrate(self, tmp_path):
        codes, loaded = _fresh(_LOADED, [["solve", "--m", "2.25", "--n", "2"]], tmp_path)
        assert codes == [0]
        assert "scipy.integrate" in loaded


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="pins glibc malloc's mmap and trim thresholds")
def test_repeated_verify_reuses_heap_pages(tmp_path):
    # weakform's 16 MB allocation at import keeps a report's per-chunk
    # temporaries on the heap; without it the second run maps and faults
    # in each of them again (glibc 2.36, x86_64: about 8,000 faults
    # without it, 24 with it)
    runs = [["verify", *COS1],
            ["verify", "--family", "zsq2", "--n", "1.875", "--b", "-1", "--equation", "KP"]]
    codes, faults = _fresh(_FAULTS, runs, tmp_path)
    assert codes == [0, 0]
    assert faults <= 500
