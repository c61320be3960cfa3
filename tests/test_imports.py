"""Start-up cost: the solver paths import numpy and scipy.linalg, nothing heavier.

``scipy.optimize``, ``scipy.integrate`` and ``scipy.special`` take about as long
to import as numpy and ``scipy.linalg`` together.  The root finder (``core.brentq``)
and the DOP853 tableau no longer need them, so solve, shoot, map and hopf-eval
run without them; only the quadratures of verify, blowup and small-s import
``scipy.integrate``, inside the functions that use it.  No wall time is asserted.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("scipy.optimize", "scipy.integrate", "scipy.special")

SCRIPT = """
import json, sys
loaded = {}

def record(step):
    loaded[step] = [m for m in %r if m in sys.modules]

import hopfbvp
record("import")
from hopfbvp import HopfParams, analysis, cli, closed_forms, ode, shooting, variational
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
out = sys.argv[1]
ode.write_profile_csv(glued.merged_profile(), params, out + "/profile.csv")
argv = ["hopf-eval", "--profile", out + "/profile.csv", "--kind", "complex", "--out-dir", out]
assert cli.main(argv) == 0
record("hopf-eval")
closed_forms.blowup_constant(4.0)
record("blowup_constant")
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
    assert list(loaded) == [
        "import", "glue", "integrate_from_zero", "find_solution", "solvability_map",
        "match_shooting", "hopf-eval", "blowup_constant",
    ]
    for step in list(loaded)[:-1]:
        assert loaded[step] == [], step
    # the deferred import still works where a quadrature runs
    assert "scipy.integrate" in loaded["blowup_constant"]
