"""The same answers on a reduced numpy dispatch path: the float kernels of a CPU without AVX-512.

numpy picks its SIMD kernels at run time by CPU feature, and the environment
variable ``NPY_DISABLE_CPU_FEATURES`` switches features off for one process.
The oracle suite, one small ``find_solution`` and the tables of one junction
record run in a child process under ``REDUCED`` and here under the default
path: verdicts and work counts must be equal, and values close.  The tables
follow numpy's ``tan``, as the Newton kernels do.  The whole suite can be run
on the reduced path with

    NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" python -m pytest -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopfbvp
from hopfbvp import HopfParams, analysis
from hopfbvp.oracles import run_oracle_suite

import test_variational

REDUCED = ("AVX512_SPR", "AVX512_ICL", "X86_V4")
S_STAR_BOUND = 1e-9  # rounding in l moves Brent's root by ~1e-12 here; 0 was measured


def fingerprint(monkeypatch) -> dict:
    """Oracle rows, the verdict, s* and work counts of one small find_solution, and the kernels.

    The counts are those of ``TestWorkCounts.counters``: glues, Newton iterations
    and ``dptsv`` calls.  ``tables`` are ``junction_tables`` of one record whose sides
    and Simpson rows take every branch of the powers.  ``monkeypatch`` needs only a
    ``setattr``.
    """
    counts = test_variational.TestWorkCounts.counters(monkeypatch)
    rows = [(r.name, r.value, r.tol) for r in run_oracle_suite()]
    out = analysis.find_solution(HopfParams(1, 2, 1.0, 4.0), s_min=0.05, s_max=1.45,
                                 n_scan=8, grid_n=600)
    tables = test_variational.junction_tables(0.7, 200, HopfParams(2, 3, 1.3, 2.7))
    return {"oracles": rows, "verdict": out.verdict, "s_star": out.s_star, "counts": counts,
            "tables": {name: values.ravel().tolist() for name, (values, _) in tables.items()},
            "kernels": _reducible()}


def _reducible() -> list[str]:
    """The features of REDUCED that numpy dispatches to on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [f for f in REDUCED if f in umath.__cpu_dispatch__ and umath.__cpu_features__.get(f)]


def test_reduced_dispatch_gives_the_same_answers(monkeypatch):
    features = _reducible()
    if not features:
        pytest.skip("numpy dispatches to none of the kernels the reduced path turns off here")
    src = str(Path(hopfbvp.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features),
               PYTHONPATH=os.pathsep.join([src, str(Path(__file__).parent)]))
    code = ("import json, types; from test_dispatch import fingerprint; "
            "print(json.dumps(fingerprint(types.SimpleNamespace(setattr=setattr))))")
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                           check=True)
    reduced = json.loads(child.stdout)
    default = json.loads(json.dumps(fingerprint(monkeypatch)))
    assert (reduced["kernels"], default["kernels"]) == ([], features)  # the child ran reduced
    assert (reduced["verdict"], reduced["counts"]) == (default["verdict"], default["counts"])
    assert abs(reduced["s_star"] - default["s_star"]) <= S_STAR_BOUND
    # both paths meet the bound of the math reference, which covers the one-ulp tan difference
    bounds = test_variational.junction_tables(0.7, 200, HopfParams(2, 3, 1.3, 2.7))
    assert reduced["tables"].keys() == default["tables"].keys() == bounds.keys()
    for name, (_, ulps) in bounds.items():
        assert test_variational.ulps_apart(reduced["tables"][name], default["tables"][name]) <= ulps
    # the oracle values are rounding: each path meets the tolerance verify applies
    assert [r[0] for r in reduced["oracles"]] == [r[0] for r in default["oracles"]]
    assert all(value <= tol for rows in (reduced, default) for _, value, tol in rows["oracles"])
