"""The functions that the benchmark's tracer wraps must exist.

``perfbench/spans.py`` names, per cantorval module, the public functions
whose calls ``perfbench/run.py --trace 1`` times.  A target that is renamed
or deleted only shows up there as a missing span, so this reads the same
table and checks that each entry is still a callable in its home module.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def span_targets() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = span_targets()


@pytest.mark.parametrize(
    "layer,name", [(layer, name) for layer, names in TARGETS.items() for name in names]
)
def test_every_span_target_is_a_callable_in_its_module(layer, name):
    home = importlib.import_module(f"cantorval.{layer}")
    assert callable(getattr(home, name, None)), f"cantorval.{layer}.{name}"
