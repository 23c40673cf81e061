"""Every name the benchmark's tracer wraps must exist in the package.

perfbench/tracer.py wraps public functions where their callers look
them up; a renamed or deleted one turns its per-layer metrics null.
The tracer is loaded from its file, read only.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


@pytest.mark.parametrize(
    "where, attr", [pytest.param(w[0], w[1], id=f"{w[0]}.{w[1]}") for w in _wraps()]
)
def test_wrapped_name_resolves(where, attr):
    module_name, _, class_name = where.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        assert attr in vars(getattr(owner, class_name)), f"{where}.{attr}"
    else:
        assert hasattr(owner, attr), f"{where}.{attr}"
