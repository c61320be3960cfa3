"""Command-line front end.

Subcommands
-----------
solve       scan the jump, find its root by Brent's method, write the profile
scan-jump   tabulate (s, l, l_tilde, I_s, I_s1, I_s2) over junction values
map         solvability verdicts over a (lambda, mu) grid
blowup      small-s checks for p = 1: stretched-profile distance, I_s^1 and I_s^2 trends
compare     supersolution ordering check for one (s, d, t0) configuration
verify      closed-form oracle table; exit 0 only if every row passes
hopf-eval   sample a join map built from a profile CSV; report norm errors
            (the samples are a SplitMix64 stream seeded by --seed)

Exit codes: 0 success, 2 no sign change of the jump (solve), 1 failure or bad
usage.  Each ``cmd_*`` only computes: it returns its summary and exit code,
and :func:`main` writes every ``summary.json`` into the output directory
(``--out-dir``, else env ``HOPF_OUT_DIR``, else ``.``) and echoes it under
``--json``.  Every run that gets past argument parsing writes one, even on
failure; a usage error writes none.  ``solve`` and ``scan-jump`` list each
failed scan row there with its reason, ``map`` each inconclusive cell.
:data:`SETTINGS` is the one table of settings, flags and config keys.  :func:`main`
resolves those a command has flags for once: each from its flag, else a flat
``key=value`` config file (whose other keys are neither applied nor parsed), else its
default; the ``config`` of ``summary.json`` lists them.  The library refuses n < 16 and
jobs < 1, the CLI root_tol <= 0 (see :func:`_resolve`).  The end nodes' distance from
the singular endpoints is no setting: it is ``variational.DEFAULT_OFFSET``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analysis, oracles
from .core import HopfParams, write_csv
from .ode import read_profile_csv, write_profile_csv
from .hopf import alpha_hopf_eval, multiplication_by_name
from .shooting import match_shooting, write_mismatch_csv
from .variational import DEFAULT_N


SETTINGS = {  # key: (type, default, help); the one list of setting flags and config keys
    "n": (int, DEFAULT_N, f"grid nodes per side (default {DEFAULT_N})"),
    "root_tol": (float, analysis.ROOT_TOL, "largest |l| accepted as a root"),
    "s_min": (float, analysis.S_MIN, "first junction of the scan"),
    "s_max": (float, analysis.S_MAX, "last junction of the scan"),
    "n_scan": (int, analysis.N_SCAN, "scan junctions, even in log s"),
    "jobs": (int, 1, "parallel solves"),
}


def _resolve(ns: argparse.Namespace) -> dict:
    """The settings the command reads: each its flag, else its config value, else its default.

    The config file holds flat ``key=value`` lines over the keys of :data:`SETTINGS`, a value
    parsed only for a setting the command reads.  root_tol is checked here: the library
    reads it only in its root rule, where a tolerance that no jump meets gives ``failed``.
    """
    path, given = getattr(ns, "config", None), {}
    for raw in Path(path).read_text().splitlines() if path else ():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in SETTINGS:
            raise ValueError(f"unknown config key {key!r} in {path}")
        given[key] = value
    cfg = {}
    for key, default in ns.settings.items():
        value, cast = getattr(ns, key), SETTINGS[key][0]
        if value is None and key in given:
            try:
                value = cast(given[key])
            except ValueError:
                raise ValueError(f"config key {key!r} in {path} needs {cast.__name__}, "
                                 f"got {given[key]!r}") from None
        cfg[key] = default if value is None else value
    if "root_tol" in cfg and not cfg["root_tol"] > 0.0:
        raise ValueError(f"root_tol must be > 0, got {cfg['root_tol']}")
    return cfg


def _params(ns: argparse.Namespace) -> HopfParams:
    return HopfParams(p=ns.p, q=ns.q, lam=ns.lam, mu=ns.mu)


def _parse_range(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, count = text.split(":")
        return float(lo), float(hi), int(count)
    except ValueError:  # not three fields, or one that does not parse
        raise ValueError(f"range flag must be min:max:count, count an integer, "
                         f"got {text!r}") from None


def _write_json(path: Path, payload: dict, echo: bool = False) -> None:
    """The one JSON format of the output files: indented, keys sorted; echoed when asked."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    path.write_text(text + "\n")
    if echo:
        print(text)


def _failed_rows(scan: analysis.ScanResult) -> list[dict]:
    return [{"s": r.s, "reason": r.reason} for r in scan.rows if not r.converged]


_SCAN_KEYS = ("s_min", "s_max", "n_scan")


def _add_command(sub, name: str, func, help: str, *keys: str,
                 problem: bool = True, settings: bool = True) -> argparse.ArgumentParser:
    """A subcommand's parser with the flags the commands share.

    The four problem flags unless ``problem`` is false; unless ``settings`` is
    false, ``--n``, a flag for each further setting the command reads, and
    ``--config``; and ``--out-dir`` and ``--json`` for every command.  The
    namespace's ``settings`` maps the keys of those settings to their defaults.
    """
    sp = sub.add_parser(name, help=help)
    if problem:
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--lambda", dest="lam", type=float, required=True)
        sp.add_argument("--mu", type=float, required=True)
    keys = ("n", *keys) if settings else ()
    for key in keys:
        cast, _, text = SETTINGS[key]
        sp.add_argument("--" + key.replace("_", "-"), dest=key, type=cast, help=text)
    if settings:
        sp.add_argument("--config", help="flat key=value config file")
    sp.add_argument("--out-dir", dest="out_dir")
    sp.add_argument("--json", action="store_true", help="echo summary.json to stdout")
    sp.set_defaults(func=func, settings={key: SETTINGS[key][1] for key in keys})
    return sp


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error: argparse's own 2 means "no sign change" here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hopfbvp",
        description="Singular BVP solver for join-type harmonic maps between spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = _add_command(sub, "solve", cmd_solve,
                      "find a zero of the jump by scan and Brent's method", "root_tol", *_SCAN_KEYS)
    sp.add_argument("--cross-check", action="store_true",
                    help="also run the shooting pipeline and record the distance")
    sp.add_argument("--mismatch-map", dest="mismatch_map",
                    help="write the shooting mismatch map CSV here")

    _add_command(sub, "scan-jump", cmd_scan_jump, "tabulate the jump over junction values",
                 *_SCAN_KEYS)

    sp = _add_command(sub, "map", cmd_map, "solvability verdicts over a (lambda, mu) grid",
                      "root_tol", *_SCAN_KEYS, "jobs", problem=False)
    # the map scans fewer junctions than a single solve unless the user sets n_scan
    sp.get_default("settings")["n_scan"] = analysis.MAP_N_SCAN
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", required=True, help="min:max:count")
    sp.add_argument("--mu", required=True, help="min:max:count")

    sp = _add_command(sub, "blowup", cmd_blowup, "stretched-profile distance, I_s trends (p = 1)")
    sp.add_argument("--s-list", dest="s_list", default="0.04,0.02,0.01")
    sp.add_argument("--eps", type=float, default=0.1)

    sp = _add_command(sub, "compare", cmd_compare, "supersolution ordering check")
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--d", type=float)
    sp.add_argument("--t0", type=float)
    sp.add_argument("--R", type=float, default=50.0)

    _add_command(sub, "verify", cmd_verify, "closed-form oracle table",
                 problem=False, settings=False)

    sp = _add_command(sub, "hopf-eval", cmd_hopf_eval, "sample a join map built from a profile",
                      problem=False, settings=False)
    sp.add_argument("--profile", required=True, help="profile CSV path")
    sp.add_argument("--kind", required=True,
                    help="complex | quaternion | octonion | restricted3/5/9")
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0,
                    help="seed of the SplitMix64 sample stream, in [0, 2**64)")

    return parser


def cmd_solve(ns: argparse.Namespace, cfg: dict, out_dir: Path) -> tuple[dict, int]:
    params = _params(ns)
    outcome = analysis.find_solution(params, cfg["s_min"], cfg["s_max"], cfg["n_scan"],
                                     grid_n=cfg["n"], root_tol=cfg["root_tol"])
    files = []
    summary = {
        "params": params.to_dict(),
        "outside_proven_regime": params.outside_proven_regime,
        "verdict": outcome.verdict,
        "s_star": outcome.s_star,
        "max_residual": outcome.max_residual_away,
        "boundary_error_zero": outcome.boundary_error_zero,
        "boundary_error_pi": outcome.boundary_error_pi,
        "message": outcome.message,
        "failed_rows": _failed_rows(outcome.scan),
        "files_written": files,
    }
    if outcome.glued is not None:
        write_profile_csv(outcome.glued.merged_profile(), params, out_dir / "profile.csv")
        summary["glued"] = outcome.glued.to_dict()
        _write_json(out_dir / "glued.json", summary["glued"])
        files += ["profile.csv", "glued.json"]
    analysis.write_scan_csv(outcome.scan, out_dir / "scan.csv")
    files.append("scan.csv")
    if ns.cross_check:
        match = match_shooting(params)
        summary["shooting_verdict"] = match.verdict
        summary["shooting_message"] = match.message
        if match.verdict == "solution":
            summary["shooting_max_scaled_residual"] = match.max_scaled_residual
            if outcome.glued is not None:
                prof = outcome.glued.merged_profile()
                lo, hi = match.profile.t[0], match.profile.t[-1]
                mask = (prof.t >= lo) & (prof.t <= hi)
                diff = prof.values[mask] - match.profile.interpolate(prof.t[mask])
                summary["pipeline_sup_distance"] = float(np.max(np.abs(diff)))
            summary["shooting_c0"] = match.state.c0
            summary["shooting_c1"] = match.state.c1
        if ns.mismatch_map is not None:
            write_mismatch_csv(match, out_dir / ns.mismatch_map)
            files.append(ns.mismatch_map)
    return summary, {"solution_found": 0, "no_sign_change": 2}.get(outcome.verdict, 1)


def cmd_scan_jump(ns: argparse.Namespace, cfg: dict, out_dir: Path) -> tuple[dict, int]:
    params = _params(ns)
    [scan] = analysis.scan_jump([params], cfg["s_min"], cfg["s_max"], cfg["n_scan"],
                                grid_n=cfg["n"])
    analysis.write_scan_csv(scan, out_dir / "scan.csv")
    summary = {
        "params": params.to_dict(),
        "outside_proven_regime": params.outside_proven_regime,
        "verdict": "sign_change" if scan.brackets else "no_sign_change",
        "brackets": scan.brackets,
        "n_converged": sum(r.converged for r in scan.rows),
        "failed_rows": _failed_rows(scan),
        "files_written": ["scan.csv"],
    }
    return summary, 0


def cmd_map(ns: argparse.Namespace, cfg: dict, out_dir: Path) -> tuple[dict, int]:
    cfg["n"] = min(cfg["n"], analysis.MAP_GRID_N)  # the cells run on coarser meshes than a solve
    lam_lo, lam_hi, n_lam = _parse_range(ns.lam)
    mu_lo, mu_hi, n_mu = _parse_range(ns.mu)
    cells = analysis.solvability_map(
        ns.p, ns.q, (lam_lo, lam_hi), (mu_lo, mu_hi), n_lam, n_mu, grid_n=cfg["n"],
        n_scan=cfg["n_scan"], jobs=cfg["jobs"], s_min=cfg["s_min"], s_max=cfg["s_max"],
        root_tol=cfg["root_tol"],
    )
    analysis.write_map_csv(cells, out_dir / "map.csv")
    verdicts = [c.verdict for c in cells]
    summary = {
        "params": {"p": ns.p, "q": ns.q, "lambda": ns.lam, "mu": ns.mu},
        "verdict": "done",
        "n_solution_found": verdicts.count("solution_found"),
        "n_no_sign_change": verdicts.count("no_sign_change"),
        "n_inconclusive": verdicts.count("inconclusive"),
        "inconclusive_cells": [
            {"lambda": c.lam, "mu": c.mu, "reason": c.reason}
            for c in cells if c.verdict == "inconclusive"
        ],
        "files_written": ["map.csv"],
    }
    return summary, 0


def cmd_blowup(ns: argparse.Namespace, cfg: dict, out_dir: Path) -> tuple[dict, int]:
    params = _params(ns)
    s_values = [float(tok) for tok in ns.s_list.split(",") if tok.strip()]
    rows = analysis.small_s_report(params, s_values, ns.eps, grid_n=cfg["n"])
    write_csv(out_dir / "blowup.csv", "s,sup_distance",
              [r.s for r in rows], [r.sup_distance for r in rows])
    summary = {
        "params": params.to_dict(),
        "eps": ns.eps,
        "rows": [asdict(r) for r in rows],
        "decreasing": all(
            b.sup_distance < a.sup_distance for a, b in zip(rows, rows[1:])
        ),
        "files_written": ["blowup.csv"],
    }
    return summary, 0


def cmd_compare(ns: argparse.Namespace, cfg: dict, out_dir: Path) -> tuple[dict, int]:
    params = _params(ns)
    s, d, t0 = ns.s, ns.d, ns.t0
    if d is None or t0 is None:
        s, d_auto, t0_auto = analysis.auto_comparison_config(s, params, R=ns.R)
        d = d if d is not None else d_auto
        t0 = t0 if t0 is not None else t0_auto
    report = analysis.comparison_check(s, d, t0, params, grid_n=cfg["n"])
    summary = {
        "params": params.to_dict(),
        "verdict": (
            "ordering_holds"
            if report.hypothesis_met and report.ordering_ok
            else ("hypothesis_not_met" if not report.hypothesis_met else "ordering_violated")
        ),
        "report": asdict(report),
        "files_written": [],
    }
    return summary, 0


def cmd_verify(ns: argparse.Namespace, cfg: dict, out_dir: Path) -> tuple[dict, int]:
    rows = oracles.run_oracle_suite()
    width = max(len(r.name) for r in rows)
    print(f"{'oracle':<{width}}  {'max error':>12}  {'tolerance':>10}  status")
    for r in rows:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {r.value:12.3e}  {r.tol:10.0e}  {status}")
    all_pass = all(r.passed for r in rows)
    summary = {
        "verdict": "pass" if all_pass else "fail",
        "rows": [
            {"name": r.name, "value": r.value, "tol": r.tol, "passed": r.passed}
            for r in rows
        ],
        "files_written": [],
    }
    return summary, 0 if all_pass else 1


def _sample(seed: int, count: int, t_lo: float, t_hi: float,
            k: int, l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` points (t, x, y): t uniform on [t_lo, t_hi], x and y uniform on S^(k-1), S^(l-1).

    One stream of SplitMix64 outputs (Steele, Lea & Flood, OOPSLA 2014), the
    mixed counter seed + i * gamma for i = 1, 2, ...: the first ``count`` give
    t from their top 53 bits, and each later one two standard normals by
    Box-Muller from its two 32-bit halves, the low one (on a little-endian
    machine) setting the radius and the high one the angle.  The normals
    fill x and then y, which are normalised to unit length.  The angle is
    float32 (24 bits), whose SIMD cos and sin cost a fraction of float64's.
    numpy's core only: ``numpy.random`` would load ``secrets`` and OpenSSL.
    """
    size = count * (k + l)
    pairs = -(-size // 2)
    z = np.arange(1, count + pairs + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed)
    shifted = np.empty_like(z)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, shift, out=shifted)
        z ^= shifted
        z *= np.uint64(factor)
    np.right_shift(z, 31, out=shifted)
    z ^= shifted
    t = np.right_shift(z[:count], 11, out=shifted[:count]) * 2.0**-53
    t *= t_hi - t_lo
    t += t_lo
    low, high = z[count:].view(np.uint32).reshape(pairs, 2).T
    radius = low * -2.0**-32
    radius += 1.0  # in (0, 1]
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = high.astype(np.float32)
    angle *= np.float32(2.0 * math.pi * 2.0**-32)
    normals = np.empty(2 * pairs)
    np.multiply(radius, np.cos(angle), out=normals[:pairs])
    np.multiply(radius, np.sin(angle, out=angle), out=normals[pairs:])
    x = normals[:count * k].reshape(count, k)
    y = normals[count * k:size].reshape(count, l)
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    y /= np.linalg.norm(y, axis=-1, keepdims=True)
    return t, x, y


def cmd_hopf_eval(ns: argparse.Namespace, cfg: dict, out_dir: Path) -> tuple[dict, int]:
    profile = read_profile_csv(ns.profile)
    mult = multiplication_by_name(ns.kind)
    if ns.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {ns.samples}")
    if not 0 <= ns.seed < 2**64:
        raise ValueError(f"--seed must be in [0, 2**64), got {ns.seed}")
    t_lo, t_hi = profile.t[0], profile.t[-1]
    # the random samples, then a unit pair (x, y) at each pole
    t, x, y = _sample(ns.seed, ns.samples + 2, t_lo, t_hi, mult.k, mult.l)
    t[-2:] = t_lo, t_hi
    u = alpha_hopf_eval(profile, mult, t, x, y)
    norm_error = np.abs(1.0 - np.linalg.norm(u[:-2], axis=-1))
    north = np.zeros(mult.n_out + 1)
    north[-1] = 1.0
    summary = {
        "kind": ns.kind,
        "samples": ns.samples,
        "seed": ns.seed,
        "max_norm_error": float(np.max(norm_error, initial=0.0)),
        "north_pole_error": float(np.linalg.norm(u[-2] - north)),
        "south_pole_error": float(np.linalg.norm(u[-1] + north)),
        "files_written": [],
    }
    return summary, 0


def main(argv=None) -> int:
    """Parse, resolve the settings, run the command, and write its ``summary.json``.

    It stamps the command and the settings run with (``config``), or is the error envelope.
    """
    parser = build_parser()
    ns = parser.parse_args(argv)
    if getattr(ns, "mismatch_map", None) is not None and not ns.cross_check:
        parser.error("--mismatch-map needs --cross-check")
    out_dir = Path(ns.out_dir or os.environ.get("HOPF_OUT_DIR") or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg = _resolve(ns)
        summary, code = ns.func(ns, cfg, out_dir)
        if cfg:
            summary["config"] = cfg
        _write_json(out_dir / "summary.json", {"command": ns.command, **summary}, ns.json)
        return code
    except Exception as exc:  # usage or numerical failure: report, exit 1
        with contextlib.suppress(Exception):  # the output directory may be what failed
            _write_json(out_dir / "summary.json", {"command": ns.command, "verdict": "error",
                                                   "error": f"{type(exc).__name__}: {exc}",
                                                   "files_written": []}, ns.json)
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
