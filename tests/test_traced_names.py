"""Every name the benchmark's tracer wraps must exist in the library, and
each work counter it keeps must read the exact count off a real result, so
a change that renames or deletes one fails here rather than in a traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from latticerl.exploration import LatticeConfig, resample_perturbations
from latticerl.policy import MlpPolicy, dist_internals, dist_params
from latticerl.trainer import save_checkpoint

from conftest import schema1_reference_trainer

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    """perfbench/tracing.py, loaded as a file on its own (it imports only
    the standard library)."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TARGETS = tracing.TARGETS


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


def _count(span, args, result):
    assert span in {name for name, _, _ in TARGETS}
    return tracing.COUNTS[span][1](args, result)


def test_counters_read_exact_counts(tmp_path):
    assert set(tracing.COUNTS) == {"exploration.resample_perturbations",
                                   "policy.dist_internals",
                                   "trainer.save_checkpoint"}
    cfg = LatticeConfig()
    n_x, n_a, rows = 5, 3, 7
    policy = MlpPolicy(2, n_a, cfg, hiddens=(4, n_x),
                       rng=np.random.default_rng(0))
    args = (dist_params(policy, cfg), n_a, np.random.default_rng(1))
    assert _count("exploration.resample_perturbations", args,
                  resample_perturbations(*args)) == n_x * n_x + n_a * n_x

    args = (policy, np.ones((rows, 2)), cfg)
    assert _count("policy.dist_internals", args,
                  dist_internals(*args)) == rows

    args = (tmp_path / "ckpt.json", schema1_reference_trainer())
    result = save_checkpoint(*args)
    assert _count("trainer.save_checkpoint", args, result) == \
        len(args[0].read_bytes())
