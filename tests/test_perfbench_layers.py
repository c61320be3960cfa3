"""Smoke test of the traced benchmark run: every name it wraps must exist.

``perfbench/layers.py`` replaces module attributes of hopfbvp (for example
``shooting.solve_ivp`` and ``shooting.root``) with counting wrappers for the
length of a traced run.  A rename in the package breaks that run; this test
catches it in the fast suite instead of the slow benchmark harness.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_trace_install_and_uninstall_restore_originals():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    trace = layers.Trace()
    trace.install()  # AttributeError if a wrapped name is gone
    patched = list(trace._patches)
    try:
        assert patched
        assert all(getattr(owner, name) is not fn for owner, name, fn in patched)
    finally:
        trace.uninstall()
    assert all(getattr(owner, name) is fn for owner, name, fn in patched)
