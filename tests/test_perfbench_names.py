"""The benchmark's tracer (perfbench/spans.py) wraps hyperrank functions by
name; these tests fail when one of those names or signatures changes."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from hyperrank import _kernels

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for name, places in _spans().TARGETS.items():
        for module, attr in places:
            assert callable(getattr(importlib.import_module(module), attr, None)), (
                name, module, attr)


def test_the_walk_step_count_reads_the_arc_draws():
    # the tracer counts a walk_steps call's steps as len(args[6])
    assert list(inspect.signature(_kernels.walk_steps).parameters)[6] == "r_arc"
