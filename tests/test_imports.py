"""Start-up cost: every command imports numpy and at most two of scipy's extension modules.

``scipy``'s package ``__init__`` and ``scipy.linalg`` take about twice as long to
import as numpy, and ``scipy.optimize``, ``scipy.integrate`` and ``scipy.special``
as long again.  ``variational`` takes ``dptsv`` from scipy's f2py module
``scipy.linalg._flapack``, ``core.brentq`` runs Brent's loop in
``scipy.optimize._zeros`` and ``dop853`` takes its tableau from scipy's coefficient
file, all through ``core.scipy_module``, which runs no package ``__init__``; no
module of the package imports scipy otherwise.  ``dptsv`` is loaded by the first
Newton direction and ``_zeros`` by the first root search, so ``verify`` and
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

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hopfbvp import core

SRC = Path(__file__).resolve().parent.parent / "src"
ZEROS = "scipy.optimize._zeros"  # Brent's loop, loaded by the first root search
HEAVY = (
    "scipy", "scipy.linalg", "scipy.optimize", "scipy.integrate", "scipy.special", ZEROS,
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
record("verify, hopf-eval")
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
        "import", "verify, hopf-eval", "glue", "integrate_from_zero", "find_solution",
        "solvability_map", "match_shooting", "hopf-eval", "blowup_constant", "verify",
        "small_s_report",
    ]
    # _zeros from the first root search on, and never scipy.optimize, whose __init__ it skips
    first_search = list(loaded).index("find_solution")
    for k, step in enumerate(loaded):
        assert loaded[step] == ([ZEROS] if k >= first_search else []), step
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


def _scipy_imports(tree):
    """The import statements in ``tree`` that name scipy or one of its modules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            yield node


def test_scipy_reached_only_through_scipy_module():
    # every compiled routine comes through core.scipy_module; the one import statement
    # is shooting.__getattr__'s lazy binding of solve_ivp and root, which the benchmark wraps
    for path in sorted((SRC / "hopfbvp").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = []
        if path.name == "shooting.py":
            [lazy] = [node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"]
            allowed = list(_scipy_imports(lazy))
            assert len(allowed) == 1
        assert list(_scipy_imports(tree)) == allowed, path.name
