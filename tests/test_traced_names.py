"""Every name the benchmark's tracer wraps must exist in the library, so a
change that renames or deletes one fails here rather than in a traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_targets():
    """perfbench/tracing.py's TARGETS, read by loading the file on its own
    (it imports only the standard library)."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _tracing_targets()


@pytest.mark.parametrize("span,module,attr", TARGETS,
                         ids=[f"{m}.{a}" for _, m, a in TARGETS])
def test_traced_name_resolves(span, module, attr):
    owner = importlib.import_module(f"latticerl.{module}")
    if "." in attr:
        # methods are looked up in the class's own namespace, as the tracer
        # does, so an inherited method does not count
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(meth))
    else:
        assert callable(getattr(owner, attr, None))
