"""One benchmark workload in a fresh process: set up, time passes, check answers.

``run.py`` starts this file with ``PYTHONPATH=src`` and the one-thread BLAS
limit in its environment.  It prints ``READY`` once set-up is done, then
(unless ``--setup-only``) one JSON record as its last line.

A pass runs each operation of the workload once.  Operations are timed one
by one and their answers are checked afterwards, outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = Path(__file__).resolve().parent / "reference.json"

ROOT_TOL = 1e-6  # |s_star - reference|, the root tolerance of ROADMAP aim 1
PIPELINE_TOL = 1e-4  # sup distance between the two pipelines' profiles
NORM_TOL = 1e-12  # hopf-eval max_norm_error
POLE_TOL = 1e-5  # hopf-eval pole errors
CAL_PERIOD_S = 0.25  # speed sample interval while a command runs

# (p, q, lambda, mu) are fixed: the reference verdicts belong to them
MAIN = (1, 2, 1.0, 4.0)
UNSOLVABLE = (1, 2, 1.0, 1.5)
MAP_ARGS = (1, 2, (1.0, 2.0), (1.0, 6.0), 5, 10)


class Checker:
    """Counts checked operations and keeps the reason of every failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self._first_bytes: dict[str, bytes] = {}

    def op(self, name: str, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failures.append(f"{name}: " + "; ".join(reasons))

    def bytes_pair(self, path: Path) -> tuple[bytes, bytes]:
        """(bytes of the file after this run's first pass, bytes now)."""
        data = path.read_bytes()
        return self._first_bytes.setdefault(path.name, data), data


@dataclass
class Op:
    """One timed command.

    ``check(result, checker)`` runs after it, untimed, and returns one
    ``(label, failure reasons)`` pair per checked operation; ``units`` is the
    number of such operations, all counted failed if the command raises.
    """

    name: str
    run: Callable
    check: Callable
    units: int = 1


def _solve_ops(params, ref: dict, out: Path, state: dict) -> list[Op]:
    """``hopfbvp solve --cross-check``: find_solution, then match_shooting."""
    from hopfbvp import analysis, ode, shooting

    def solve():
        outcome = analysis.find_solution(params)
        if outcome.glued is not None:
            ode.write_profile_csv(outcome.glued.merged_profile(), params, out / "profile.csv")
        analysis.write_scan_csv(outcome.scan, out / "scan.csv")
        return outcome

    def check_solve(outcome, ck: Checker) -> list:
        state["solve"] = outcome
        state["verdicts"]["solve"] = outcome.verdict
        state["verdicts"]["s_star"] = outcome.s_star
        reasons = []
        if outcome.verdict != ref["solve"]:
            reasons.append(f"verdict {outcome.verdict} != {ref['solve']} ({outcome.message})")
        elif ref["s_star"] is not None and abs(outcome.s_star - ref["s_star"]) > ROOT_TOL:
            reasons.append(f"|s_star - reference| = {abs(outcome.s_star - ref['s_star']):.3e}")
        files = ["scan.csv"] + (["profile.csv"] if outcome.glued is not None else [])
        for name in files:
            first, now = ck.bytes_pair(out / name)
            if now != first:
                reasons.append(f"{name} bytes differ from the first pass")
        return [("solve", reasons)]

    def check_shoot(match, ck: Checker) -> list:
        state["verdicts"]["shoot"] = match.verdict
        if match.verdict != ref["shoot"]:
            return [("shoot", [f"verdict {match.verdict} != {ref['shoot']} ({match.message})"])]
        solved = state.get("solve")
        if match.verdict != "solution" or solved is None or solved.glued is None:
            return [("shoot", [])]
        prof = solved.glued.merged_profile()
        mask = (prof.t >= match.profile.t[0]) & (prof.t <= match.profile.t[-1])
        dist = float(abs(prof.values[mask] - match.profile.interpolate(prof.t[mask])).max())
        state["verdicts"]["pipeline_sup_distance"] = dist
        too_far = [f"pipeline sup distance {dist:.3e} > {PIPELINE_TOL}"] if dist > PIPELINE_TOL else []
        return [("shoot", too_far)]

    return [
        Op("solve", solve, check_solve),
        Op("shoot", lambda: shooting.match_shooting(params), check_shoot),
    ]


def _map_ops(ref: dict, out: Path, state: dict) -> list[Op]:
    """``hopfbvp map --lambda 1:2:5 --mu 1:6:10`` at library defaults."""
    from hopfbvp import analysis

    path = out / "map.csv"

    def run_map():
        cells = analysis.solvability_map(*MAP_ARGS)
        analysis.write_map_csv(cells, path)
        return cells

    def check_map(cells, ck: Checker) -> list:
        state["verdicts"]["cells"] = [c.verdict for c in cells]
        first, now = (data.splitlines()[1:] for data in ck.bytes_pair(path))
        if len(cells) != len(ref["cells"]):
            raise ValueError(f"{len(cells)} cells, reference has {len(ref['cells'])}")
        out = []
        for k, (cell, want) in enumerate(zip(cells, ref["cells"])):
            reasons = []
            if (cell.lam, cell.mu) != (want["lam"], want["mu"]):
                reasons.append(f"cell at ({cell.lam}, {cell.mu}), reference ({want['lam']}, {want['mu']})")
            if cell.verdict != want["verdict"]:
                reasons.append(f"verdict {cell.verdict} != {want['verdict']}")
            elif want["s_star"] is not None and abs(cell.s_star - want["s_star"]) > ROOT_TOL:
                reasons.append(f"|s_star - reference| = {abs(cell.s_star - want['s_star']):.3e}")
            if now[k : k + 1] != first[k : k + 1]:
                reasons.append("map.csv row differs from the first pass")
            out.append((f"map cell lambda={cell.lam:g} mu={cell.mu:g}", reasons))
        return out

    return [Op("map", run_map, check_map, units=len(ref["cells"]))]


def _certify_ops(ref: dict, out: Path, seed: int, state: dict) -> list[Op]:
    """``hopfbvp verify``, then ``hopfbvp hopf-eval`` on the identity profile."""
    from hopfbvp import cli

    profile = out / "identity_profile.csv"
    cmd_out = out / "cli"

    def cli_main(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([*argv, "--out-dir", str(cmd_out)])
        return rc, json.loads((cmd_out / "summary.json").read_text())

    def check_verify(result, ck: Checker) -> list:
        rc, summary = result
        rows = summary.get("rows", [])
        state["verdicts"]["verify"] = [r["passed"] for r in rows]
        if [r["name"] for r in rows] != ref["oracle_rows"]:
            raise ValueError(f"oracle rows {[r['name'] for r in rows]} != reference")
        return [
            (f"oracle {r['name']}",
             [] if r["passed"] else [f"{r['value']:.3e} > tolerance {r['tol']:.0e}"])
            for r in rows
        ]

    def check_hopf(result, ck: Checker) -> list:
        rc, s = result
        state["verdicts"]["hopf_eval_rc"] = rc
        if rc != 0:
            return [("hopf_eval", [f"exit code {rc}: {s.get('error', '')}"])]
        reasons = []
        if not s["max_norm_error"] <= NORM_TOL:
            reasons.append(f"max_norm_error {s['max_norm_error']:.3e} > {NORM_TOL}")
        for key in ("north_pole_error", "south_pole_error"):
            if not s[key] <= POLE_TOL:
                reasons.append(f"{key} {s[key]:.3e} > {POLE_TOL}")
        return [("hopf_eval", reasons)]

    hopf_argv = ("hopf-eval", "--profile", str(profile), "--kind", "restricted3",
                 "--samples", "10000", "--seed", str(seed))
    return [
        Op("verify", lambda: cli_main("verify"), check_verify, units=len(ref["oracle_rows"])),
        Op("hopf_eval", lambda: cli_main(*hopf_argv), check_hopf),
    ]


def setup(workload: str, out: Path, seed: int, state: dict) -> list[Op]:
    """Build the inputs and make one cheap warm-up call on the workload's path."""
    import hopfbvp
    from hopfbvp import HopfParams, core, ode, variational
    from hopfbvp.closed_forms import identity_solution
    from hopfbvp.hopf import alpha_hopf_eval, multiplication_by_name

    src = (ROOT / "src").resolve()
    if src not in Path(hopfbvp.__file__).resolve().parents:
        raise SystemExit(f"hopfbvp was imported from {hopfbvp.__file__}, not from {src}")
    ref = json.loads(REFERENCE.read_text())[workload]
    out.mkdir(parents=True, exist_ok=True)
    if workload in ("main-regime", "unsolvable"):
        params = HopfParams(*(MAIN if workload == "main-regime" else UNSOLVABLE))
        # the first scan glue and a short forward shot of the real workload
        variational.glue(0.02, params)
        hopfbvp.integrate_from_zero(1.0, params, 0.5)
        return _solve_ops(params, ref, out, state)
    if workload == "map-5x10":
        variational.glue(0.02, HopfParams(1, 2, 1.0, 1.0), n=1000)
        return _map_ops(ref, out, state)
    # the closed-form identity profile alpha = 2t solves p = q = 1,
    # lambda = mu = 1 exactly; its end nodes sit where the solver's do, so
    # the pole errors of hopf-eval stay near 2e-7
    nodes = core.graded_grid(1e-7, core.HALF_PI - 1e-7, 2001)
    ident = core.Profile(core.Grid(nodes), identity_solution(nodes))
    ode.write_profile_csv(ident, HopfParams(1, 1, 1.0, 1.0), out / "identity_profile.csv")
    mult = multiplication_by_name("restricted3")
    prof = ode.read_profile_csv(out / "identity_profile.csv")
    alpha_hopf_eval(prof, mult, 0.5, [1.0] + [0.0] * (mult.k - 1), [1.0] + [0.0] * (mult.l - 1))
    return _certify_ops(ref, out, seed, state)


def calibrate() -> float:
    """Wall seconds of a fixed loop of Python arithmetic and small numpy calls.

    It uses nothing from hopfbvp, so only the speed of the machine moves it.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(50_000):
        acc += i * 0.5
    a = np.linspace(0.0, 1.0, 2000)
    for _ in range(150):
        a = np.sin(a) + 0.5 * a
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the machine's speed while a command runs.

    The calibration loop runs right before and right after the command, and
    every ``CAL_PERIOD_S`` during it, from a SIGALRM handler.  ``cal`` is the
    mean of the samples; ``spent`` is the time the samples took inside the
    command, which is taken off the command's wall time.
    """

    def __enter__(self) -> "SpeedSampler":
        self.samples = [calibrate()]
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - t0

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(calibrate())

    @property
    def cal(self) -> float:
        return statistics.fmean(self.samples)


def run_pass(ops: list[Op], ck: Checker) -> tuple[dict[str, float], dict[str, float]]:
    """Run every operation once.

    Returns the wall seconds of each operation, without the speed samples
    taken during it, and the mean calibration time around and during it.
    """
    times, cals = {}, {}
    for op in ops:
        error = None
        with SpeedSampler() as speed:
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # counted as failed, never retried
                error = exc
            wall = time.perf_counter() - t0
        times[op.name] = wall - speed.spent
        cals[op.name] = speed.cal
        if error is not None:
            checked = [(op.name, [f"{type(error).__name__}: {error}"])] * op.units
        else:
            try:
                checked = op.check(result, ck)
            except Exception as exc:
                checked = [(op.name, [f"check failed: {type(exc).__name__}: {exc}"])] * op.units
        for label, reasons in checked:
            ck.op(label, reasons)
    return times, cals


def measure(ops, ck: Checker, seconds: float, trace=None) -> list[dict]:
    """Passes until the next one would end past ``seconds``; at least two.

    The determinism checks compare each pass with the first.  With a trace,
    untraced and traced passes alternate, so that the tracing overhead is
    measured against untraced passes from the same stretch of time.
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace is not None and len(passes) % 2 == 1
        if traced:
            trace.reset()
            trace.install()
        try:
            times, cals = run_pass(ops, ck)
        finally:
            if traced:
                trace.uninstall()
        passes.append({"op_s": times, "cal_s": cals, "pass_s": sum(times.values()),
                       "layers": trace.snapshot() if traced else None})
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and elapsed + passes[-1]["pass_s"] > seconds:
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=["main-regime", "unsolvable", "map-5x10", "certify-assemble"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", required=True, help="scratch directory for output files")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    state: dict = {"verdicts": {}}
    ops = setup(args.workload, Path(args.out), args.seed, state)
    print("READY", flush=True)
    print("CAL", statistics.median(calibrate() for _ in range(5)), flush=True)
    if args.setup_only:
        return 0

    ck = Checker()
    trace = None
    if args.trace:
        from layers import Trace

        trace = Trace()
    passes = measure(ops, ck, args.seconds, trace)

    import numpy
    import scipy

    record = {
        "machine": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "verdicts": state["verdicts"],
        "attempted": ck.attempted,
        "failures": ck.failures,
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    print(json.dumps(record, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
