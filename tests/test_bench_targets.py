"""Every function the benchmark's tracer wraps still exists in ``pappa``.

The tracer reports a layer whose target is gone as absent and drops its
per-layer metrics, so a rename or deletion of a traced function fails here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_T = _tracer()
TARGETS = [(name, module, attr) for name, module, attr in _T.SPANS + _T.COUNTS]


@pytest.mark.parametrize("name,module,attr", TARGETS, ids=[f"{m}.{a}" for _, m, a in TARGETS])
def test_tracer_target_resolves(name, module, attr):
    assert module == "pappa" or module.startswith("pappa."), name
    owner = importlib.import_module(module)
    owner_name, _, leaf = attr.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
        assert inspect.isclass(owner), f"{module}.{owner_name} is not a class"
    raw = vars(owner).get(leaf)
    assert raw is not None, f"{module}.{attr} is gone"
    if isinstance(raw, (classmethod, staticmethod)):
        raw = raw.__func__
    assert inspect.isfunction(raw), f"{module}.{attr} is not a function"
