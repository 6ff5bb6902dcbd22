"""The benchmark's span tracer patches named package attributes; each must
exist, be replaced while the tracer is installed, and be restored after."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_attribute_is_restored():
    tracer = _load_spans().Tracer()
    points = [(owner, attr) for owner, attr, _ in tracer._patches()]
    originals = [getattr(owner, attr) for owner, attr in points]
    with tracer.installed():
        for (owner, attr), original in zip(points, originals):
            assert getattr(owner, attr) is not original, attr
    for (owner, attr), original in zip(points, originals):
        assert getattr(owner, attr) is original, attr
