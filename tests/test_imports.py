"""Start-up cost: every command imports numpy and at most one LAPACK extension, nothing heavier.

``scipy``'s package ``__init__`` and ``scipy.linalg`` take about twice as long to
import as numpy, and ``scipy.optimize``, ``scipy.integrate`` and ``scipy.special``
as long again.  ``variational`` takes ``dptsv`` from scipy's f2py module
``scipy.linalg._flapack``, and ``dop853`` its tableau from scipy's coefficient
file, both through ``core.scipy_module``, which runs neither ``__init__``.
``dptsv`` is loaded by the first Newton direction, so ``verify`` and
``hopf-eval`` load no scipy module at all.  ``hopf-eval`` draws its samples
without ``numpy.random``, which would load ``secrets`` and OpenSSL's
``_hashlib``.  The Gauss-Legendre points are literals (no
``numpy.polynomial``), the certificate avoids ``np.union1d`` (no
``numpy.ma``) and the process pool of ``jobs > 1`` is imported where it starts
(no ``multiprocessing``).  The blow-up constant A(lambda) takes a tanh-sinh rule
and the split of I_s^2 the Simpson weights of ``core``, so every command, verify,
blowup and small-s included, runs on numpy alone.
No wall time is asserted.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hopfbvp import core

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = (
    "scipy", "scipy.linalg", "scipy.optimize", "scipy.integrate", "scipy.special",
    "numpy.polynomial", "numpy.ma", "concurrent.futures.process",
    "numpy.random", "secrets", "_hashlib",
)

SCRIPT = """
import json, sys
loaded = {}

def record(step):
    loaded[step] = [m for m in %r if m in sys.modules]

import hopfbvp
record("import")
from hopfbvp import HopfParams, analysis, cli, closed_forms, core, ode, shooting, variational
out = sys.argv[1]
# verify, then hopf-eval on the closed-form profile alpha = 2t: no Newton direction
nodes = core.graded_grid(1e-7, core.HALF_PI - 1e-7, 201)
identity = core.Profile(core.Grid(nodes), closed_forms.identity_solution(nodes))
ode.write_profile_csv(identity, HopfParams(1, 1, 1.0, 1.0), out + "/identity.csv")
assert cli.main(["verify", "--out-dir", out]) == 0
argv = ["hopf-eval", "--profile", out + "/identity.csv", "--kind", "complex", "--out-dir", out]
assert cli.main(argv) == 0
scipy_before_newton = [m for m in sys.modules if m.split(".")[0] == "scipy"]
params = HopfParams(p=1, q=2, lam=1.0, mu=4.0)
glued = variational.glue(0.5, params, n=200)
record("glue")
shooting.integrate_from_zero(1.0, params, 0.7)
record("integrate_from_zero")
outcome = analysis.find_solution(params, n_scan=6, grid_n=200)
assert outcome.verdict == "solution_found", outcome.message
record("find_solution")
cells = analysis.solvability_map(1, 2, (1.0, 1.0), (4.0, 4.0), 1, 1, grid_n=200, n_scan=6)
assert cells[0].verdict == "solution_found", cells
record("solvability_map")
assert shooting.match_shooting(params).verdict == "solution"
record("match_shooting")
ode.write_profile_csv(glued.merged_profile(), params, out + "/profile.csv")
argv = ["hopf-eval", "--profile", out + "/profile.csv", "--kind", "complex", "--out-dir", out]
assert cli.main(argv) == 0
record("hopf-eval")
closed_forms.blowup_constant(4.0)
record("blowup_constant")
assert cli.main(["verify", "--out-dir", out]) == 0
record("verify")
rows = analysis.small_s_report(params, [0.04, 0.02], 0.1, grid_n=200)
assert all(r.bound_ok for r in rows), rows
record("small_s_report")
import scipy.linalg.lapack
loaded["same_dptsv"] = scipy.linalg.lapack.dptsv is variational._dptsv()
loaded["scipy_before_newton"] = scipy_before_newton
print(json.dumps(loaded))
""" % (HEAVY,)


def test_solver_paths_do_not_import_optimize_integrate_special(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    same_dptsv = loaded.pop("same_dptsv")
    assert loaded.pop("scipy_before_newton") == []  # not even scipy.linalg._flapack
    assert list(loaded) == [
        "import", "glue", "integrate_from_zero", "find_solution", "solvability_map",
        "match_shooting", "hopf-eval", "blowup_constant", "verify", "small_s_report",
    ]
    for step in loaded:
        assert loaded[step] == [], step
    # a later scipy.linalg wraps the extension module that the glues loaded
    assert same_dptsv


def test_attempt_compiled_by_the_first_shot_only(tmp_path):
    # import, verify and hopf-eval make no shot, so they never compile the DOP853 attempt
    script = """
import sys
from hopfbvp import HopfParams, cli, closed_forms, core, dop853, ode, shooting
out = sys.argv[1]
nodes = core.graded_grid(1e-7, core.HALF_PI - 1e-7, 201)
identity = core.Profile(core.Grid(nodes), closed_forms.identity_solution(nodes))
ode.write_profile_csv(identity, HopfParams(1, 1, 1.0, 1.0), out + "/identity.csv")
assert cli.main(["verify", "--out-dir", out]) == 0
argv = ["hopf-eval", "--profile", out + "/identity.csv", "--kind", "complex", "--out-dir", out]
assert cli.main(argv) == 0
print(dop853._compiled.cache_info().misses)
shooting.integrate_from_zero(1.0, HopfParams(1, 2, 1.0, 4.0), 0.7)
print(dop853._compiled.cache_info().misses)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["0", "1"]


def test_scipy_module_names_what_it_did_not_find():
    with pytest.raises(ImportError, match=r"scipy\.linalg\._no_such_module in .*linalg"):
        core.scipy_module("linalg._no_such_module")
