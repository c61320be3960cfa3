"""Smoke tests of the benchmark: every name it wraps or calls must exist.

``perfbench/layers.py`` replaces module attributes of hopfbvp (for example
``shooting.solve_ivp`` and ``shooting.root``) with counting wrappers for the
length of a traced run, and ``perfbench/worker.py`` builds each workload's
inputs and makes one warm-up call on its path.  A rename in the package
breaks those runs; these tests catch it in the fast suite instead of the
slow benchmark harness.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from hopfbvp import variational
from hopfbvp.core import HopfParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS = PERFBENCH / "layers.py"
WORKLOADS = ["main-regime", "unsolvable", "map-5x10", "certify-assemble"]


def load_trace():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.Trace()


def test_trace_install_and_uninstall_restore_originals():
    trace = load_trace()
    trace.install()  # AttributeError if a wrapped name is gone
    patched = list(trace._patches)
    try:
        assert patched
        assert all(getattr(owner, name) is not fn for owner, name, fn in patched)
    finally:
        trace.uninstall()
    assert all(getattr(owner, name) is fn for owner, name, fn in patched)


def test_newton_counters_see_a_glue():
    # a wrapped name that the solver no longer calls reads 0, not an error
    trace = load_trace()
    trace.install()
    try:
        variational.glue(0.5, HopfParams(p=1, q=2, lam=1.0, mu=4.0), n=200)
        counts = trace.snapshot()
    finally:
        trace.uninstall()
    assert counts["energy_calls"] >= 1
    assert counts["minimize_calls"] == 2  # glue reaches both minimizers through the module
    assert counts["newton_iters"] > 0
    assert counts["jump_integrals_s"] > 0  # glue reaches jump_integrals through the module too
    assert counts["gradient_calls"] == counts["newton_direction_calls"] == counts["newton_iters"]


@pytest.fixture(scope="module")
def worker():
    # dataclasses look their module up in sys.modules while the class body runs
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_worker_setup_runs(worker, workload, tmp_path):
    # the inputs and the warm-up call of each workload; the timed operations are not run
    ops = worker.setup(workload, tmp_path, 1, {"verdicts": {}})
    assert ops and all(callable(op.run) and callable(op.check) for op in ops)
