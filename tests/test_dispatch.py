"""The same answers on a reduced numpy dispatch path: the float kernels of a CPU without AVX-512.

numpy picks its SIMD kernels at run time by CPU feature, and the environment
variable ``NPY_DISABLE_CPU_FEATURES`` switches features off for one process.
The oracle suite, one small ``find_solution``, the tables of one junction
record and one ``match_shooting`` run in a child process under ``REDUCED`` and
here under the default path: verdicts and work counts must be equal, and values
close.  The tables follow numpy's ``tan``, as the Newton kernels do.  The shooting
stepper calls ``math`` only, so the shots and their end states, c0 and c1, must keep
their bits; the merged profile's dense output and its scaled residual use numpy's
``tan``, so the residual is compared within a bound.  The whole
suite can be run on the reduced path with

    NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" python -m pytest -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopfbvp
from hopfbvp import HopfParams, analysis, dop853
from hopfbvp.oracles import run_oracle_suite
from hopfbvp.shooting import match_shooting

import test_variational

REDUCED = ("AVX512_SPR", "AVX512_ICL", "X86_V4")
S_STAR_BOUND = 1e-9  # rounding in l moves Brent's root by ~1e-12 here; 0 was measured
# one ulp in every value of the main regime's merged profile (alpha < pi) moves its 5-point
# residual over 1 + Q by at most 1.18e-10; random 2-ulp noise in numpy's tan moved it by
# 1.5e-16; 0 was measured
RESIDUAL_BOUND = 1.2e-10


def fingerprint(monkeypatch) -> dict:
    """Oracle rows, the verdict, s* and work counts of one small find_solution, and the kernels.

    The counts are those of ``TestWorkCounts.counters``: glues, Newton iterations
    and ``dptsv`` calls.  ``tables`` are ``junction_tables`` of one record whose sides
    and Simpson rows take every branch of the powers.  ``shooting`` is the main regime's
    match: its verdict, shots (``dop853.solve`` calls), c0, c1 and scaled residual.
    ``monkeypatch`` needs only a ``setattr``.
    """
    counts = test_variational.TestWorkCounts.counters(monkeypatch)
    rows = [(r.name, r.value, r.tol) for r in run_oracle_suite()]
    out = analysis.find_solution(HopfParams(1, 2, 1.0, 4.0), s_min=0.05, s_max=1.45,
                                 n_scan=8, grid_n=600)
    tables = test_variational.junction_tables(0.7, 200, HopfParams(2, 3, 1.3, 2.7))
    shots, solve = [], dop853.solve
    monkeypatch.setattr(dop853, "solve", lambda *args: shots.append(1) or solve(*args))
    m = match_shooting(HopfParams(1, 2, 1.0, 4.0))
    return {"oracles": rows, "verdict": out.verdict, "s_star": out.s_star, "counts": counts,
            "tables": {name: values.ravel().tolist() for name, (values, _) in tables.items()},
            "shooting": [m.verdict, len(shots), m.state.c0, m.state.c1, m.max_scaled_residual],
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
    # floats through JSON keep their bits
    assert reduced["shooting"][:4] == default["shooting"][:4]
    assert abs(reduced["shooting"][4] - default["shooting"][4]) <= RESIDUAL_BOUND
    # both paths meet the bound of the math reference, which covers the one-ulp tan difference
    bounds = test_variational.junction_tables(0.7, 200, HopfParams(2, 3, 1.3, 2.7))
    assert reduced["tables"].keys() == default["tables"].keys() == bounds.keys()
    for name, (_, ulps) in bounds.items():
        assert test_variational.ulps_apart(reduced["tables"][name], default["tables"][name]) <= ulps
    # the oracle values are rounding: each path meets the tolerance verify applies
    assert [r[0] for r in reduced["oracles"]] == [r[0] for r in default["oracles"]]
    assert all(value <= tol for rows in (reduced, default) for _, value, tol in rows["oracles"])
