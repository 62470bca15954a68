"""Every entry point the benchmark's tracer wraps is still defined.

``perfbench/tracer.py`` times each layer by replacing a fixed list of
functions and methods (``_targets()``) with wrappers, looking each up as
``vars(owner)[attribute]``.  Deleting or moving one of them breaks every
traced benchmark run; this catches it in the fast suite.  The tracer
module is only loaded and its list read: nothing is installed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while it runs.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TARGETS = [(owner, attribute) for owner, attribute, _, _ in _load_tracer()._targets()]


@pytest.mark.parametrize(
    "owner, attribute",
    TARGETS,
    ids=[f"{getattr(o, '__name__', o)}.{a}" for o, a in TARGETS],
)
def test_target_defined_on_its_owner(owner, attribute):
    assert callable(vars(owner).get(attribute)), (
        f"{owner!r} no longer defines {attribute!r}, which the benchmark's "
        "tracer wraps"
    )
