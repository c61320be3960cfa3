"""Per-layer counters and timers, installed by wrapping hopfbvp's public names.

The program has no instrumentation of its own yet, so the traced run
replaces, for its duration, the module attributes through which the layers
call each other (``analysis.glue``, ``variational.minimize_interior``,
``shooting.solve_ivp`` and so on) with wrappers that count calls and time
them.  Every time is inclusive: ``glue_s`` contains the minimizations, which
contain the kernel calls.  Nothing under ``src/`` changes; ``uninstall``
restores the original attributes.
"""

from __future__ import annotations

import math
import os
import time
from collections import defaultdict

# the matcher treats two roots as one when their log-amplitudes differ by less
# than this (shooting.match_shooting's duplicate rule)
SAME_ROOT_LOG = 1e-6

COUNTS = (
    "glue_calls", "scan_glues", "root_glues", "minimize_calls", "minimize_failed",
    "newton_iters", "energy_calls", "gradient_calls", "newton_direction_calls",
    "residual_calls", "match_calls", "ivp_solves", "ivp_nfev", "ivp_failed",
    "polish_calls", "polish_nfev", "polish_useful", "fd_weights_calls",
    "alpha_hopf_eval_calls", "csv_bytes", "kernel_bytes",
)
TIMES = (
    "glue_s", "minimize_s", "energy_s", "gradient_s", "newton_direction_s",
    "jump_integrals_s", "scan_jump_s", "residual_s", "ivp_s", "polish_s",
    "fd_weights_s", "alpha_hopf_eval_s", "suite_s", "csv_write_s",
)


class Trace:
    """Counters for one pass of a workload, fed by the installed wrappers."""

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self._in_scan = 0
        self._polish_ends: list[tuple[float, float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.values = defaultdict(float)

    def snapshot(self) -> dict[str, float]:
        """Counts, times and the ratios derived from them for the pass so far."""
        v = self.values
        out = {k: int(v[k]) for k in COUNTS}
        out.update({k: v[k] for k in TIMES})
        out["newton_iters_per_minimize"] = _ratio(
            v["newton_iters"], v["minimize_calls"] - v["minimize_failed"])
        out["newton_useful_ratio"] = _ratio(v["newton_iters"], v["newton_direction_calls"])
        out["energy_calls_per_iter"] = _ratio(v["energy_calls"], v["newton_iters"])
        out["nfev_per_solve"] = _ratio(v["ivp_nfev"], v["ivp_solves"])
        out["polish_useful_ratio"] = _ratio(v["polish_useful"], v["polish_calls"])
        out["kernel_mb_computed"] = v["kernel_bytes"] / 1e6
        return out

    # --- installation ----------------------------------------------------------

    def _patch(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def install(self) -> None:
        from hopfbvp import analysis, cli, ode, oracles, shooting, variational
        from hopfbvp.core import ConvergenceError

        v = self
        timed = self._timed

        # variational: the DiscreteEnergy kernels, looked up on the class
        def kernel(name, n_vectors):
            def make(fn):
                def wrapper(disc, x, *rest):
                    t0 = time.perf_counter()
                    try:
                        # a banded solve that raises (not positive definite)
                        # still counts: the minimizer retries with a shift
                        return fn(disc, x, *rest)
                    finally:
                        v.values[name + "_s"] += time.perf_counter() - t0
                        v.values[name + "_calls"] += 1
                        # computed, not measured: float64 operands read plus
                        # the result written, from array sizes
                        v.values["kernel_bytes"] += (
                            n_vectors * x.nbytes + disc.h.nbytes + disc.f_el.nbytes
                            + disc.qfw.nbytes
                        )
                return wrapper
            return make

        E = variational.DiscreteEnergy
        self._patch(E, "energy", kernel("energy", 1))
        self._patch(E, "gradient", kernel("gradient", 2))
        self._patch(E, "newton_direction", kernel("newton_direction", 3))

        def minimizer(fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                v.values["minimize_calls"] += 1
                try:
                    res = fn(*args, **kwargs)
                except ConvergenceError:
                    v.values["minimize_failed"] += 1
                    raise
                finally:
                    v.values["minimize_s"] += time.perf_counter() - t0
                v.values["newton_iters"] += res.iterations
                return res
            return wrapper

        self._patch(variational, "minimize_interior", minimizer)
        self._patch(variational, "minimize_exterior", minimizer)
        self._patch(variational, "jump_integrals", timed("jump_integrals_s"))

        # analysis: glues inside scan_jump are scan glues, all others root glues
        def glue(fn):
            def wrapper(*args, **kwargs):
                v.values["glue_calls"] += 1
                v.values["scan_glues" if v._in_scan else "root_glues"] += 1
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    v.values["glue_s"] += time.perf_counter() - t0
            return wrapper

        def scan(fn):
            def wrapper(*args, **kwargs):
                v._in_scan += 1
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    v.values["scan_jump_s"] += time.perf_counter() - t0
                    v._in_scan -= 1
            return wrapper

        self._patch(analysis, "glue", glue)
        self._patch(analysis, "scan_jump", scan)
        self._patch(analysis, "residual", timed("residual_s", "residual_calls"))

        # shooting: every IVP goes through shooting.solve_ivp, every polish
        # through shooting.root
        def ivp(fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                sol = fn(*args, **kwargs)
                v.values["ivp_s"] += time.perf_counter() - t0
                v.values["ivp_solves"] += 1
                v.values["ivp_nfev"] += sol.nfev
                v.values["ivp_failed"] += sol.status != 0
                return sol
            return wrapper

        def polish(fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                sol = fn(*args, **kwargs)
                v.values["polish_s"] += time.perf_counter() - t0
                v.values["polish_calls"] += 1
                v.values["polish_nfev"] += sol.nfev
                v._polish_ends.append((float(sol.x[0]), float(sol.x[1])))
                return sol
            return wrapper

        def match(fn):
            # a polish is useful when it ends on the root the matcher returns
            def wrapper(*args, **kwargs):
                v._polish_ends = []
                v.values["match_calls"] += 1
                result = fn(*args, **kwargs)
                if result.state is not None:
                    target = (math.log(result.state.c0), math.log(result.state.c1))
                    v.values["polish_useful"] += sum(
                        abs(x0 - target[0]) + abs(x1 - target[1]) <= SAME_ROOT_LOG
                        for x0, x1 in v._polish_ends
                    )
                return result
            return wrapper

        self._patch(shooting, "solve_ivp", ivp)
        self._patch(shooting, "root", polish)
        self._patch(shooting, "match_shooting", match)

        # core stencil weights, bound by name in both modules that use them
        fd = timed("fd_weights_s", "fd_weights_calls")
        self._patch(shooting, "fd_weights", fd)
        self._patch(oracles, "fd_weights", fd)

        self._patch(cli, "alpha_hopf_eval", timed("alpha_hopf_eval_s", "alpha_hopf_eval_calls"))
        self._patch(oracles, "run_oracle_suite", timed("suite_s"))

        # the public CSV writers; the benchmark calls them through the module
        def writer(fn):
            def wrapper(obj, *args):
                path = args[-1]
                t0 = time.perf_counter()
                fn(obj, *args)
                v.values["csv_write_s"] += time.perf_counter() - t0
                v.values["csv_bytes"] += os.path.getsize(path)
            return wrapper

        self._patch(ode, "write_profile_csv", writer)
        self._patch(analysis, "write_scan_csv", writer)
        self._patch(analysis, "write_map_csv", writer)

    def _timed(self, time_key: str, count_key: str | None = None):
        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.values[time_key] += time.perf_counter() - t0
                    if count_key:
                        self.values[count_key] += 1
            return wrapper
        return make


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
