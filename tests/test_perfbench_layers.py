"""Smoke test of the traced benchmark run: every name it wraps must exist.

``perfbench/layers.py`` replaces module attributes of hopfbvp (for example
``shooting.solve_ivp`` and ``shooting.root``) with counting wrappers for the
length of a traced run.  A rename in the package breaks that run; this test
catches it in the fast suite instead of the slow benchmark harness.
"""

import importlib.util
from pathlib import Path

from hopfbvp import variational
from hopfbvp.core import HopfParams

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


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
