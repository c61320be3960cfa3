"""Run one workload of the hopfbvp benchmark and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload main-regime --seed 1 --seconds 20 --trace 0

The workload runs in fresh single processes (``worker.py``) with jobs=1 and
the one-thread BLAS limit set in their environment only.  Set-up is timed in
``SETUP_RUNS`` processes and reported as the median; the last of them goes on
to time passes of the workload for ``--seconds`` seconds and to check every
answer against ``reference.json``.  With ``--trace 1``, untraced passes
alternate with traced ones, for which the layers' public functions are
wrapped (``layers.py``).

The metric names and units come from ``BENCHMARK.json``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the machine, the
verdicts, every metric and the reason of every failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
DEADLINE_S = 170.0  # a run must end within 180 s
# The shared machine changes speed by up to 1.6x from minute to minute, as its
# other tenants come and go.  End-to-end times are therefore given in
# reference seconds: wall seconds times REF_CAL_S / (wall seconds of
# worker.calibrate(), sampled around and during them).  REF_CAL_S is about the
# calibration time on the 2-vCPU Xeon the benchmark was defined on, so there
# reference seconds are close to wall seconds.
REF_CAL_S = 0.008
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# worker operation name -> per-command metric
COMMANDS = {
    "solve": "solve_s",
    "shoot": "shoot_s",
    "map": "map_s",
    "verify": "verify_s",
    "hopf_eval": "hopf_eval_s",
}
CELL_VERDICTS = ("solution_found", "no_sign_change", "inconclusive")


def spawn_worker(args, out: Path, setup_only: bool, deadline: float) -> tuple[float, float, str]:
    """Start worker.py.

    Returns the seconds from its start to READY, its calibration time right
    after READY, and the rest of its standard output.
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ] + (["--setup-only"] if setup_only else [])
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        cal = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker exited with code {code} (set-up-only={setup_only})")
    return setup_s, float(cal.split()[1]), rest


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ref_seconds(pass_: dict) -> float:
    """Reference seconds of one pass: each command's wall time, scaled by the
    calibration time sampled around and during it."""
    return sum(t * REF_CAL_S / pass_["cal_s"][op] for op, t in pass_["op_s"].items())


def measured_metrics(record: dict, setups: list[tuple[float, float]]) -> dict[str, float]:
    """Every metric this run can give, end-to-end and per-layer, by name."""
    untraced = [p for p in record["passes"] if p["layers"] is None]
    traced = [p for p in record["passes"] if p["layers"] is not None]
    attempted = record["attempted"]
    values = {
        "setup_s": statistics.median(t * REF_CAL_S / cal for t, cal in setups),
        "command_s": _median(map(ref_seconds, untraced)),
        "setup_wall_s": statistics.median(t for t, _ in setups),
        "command_wall_s": _median(p["pass_s"] for p in untraced),
        "peak_rss_mb": record["peak_rss_kb"] * 1024 / 1e6,
        "failed_ops_frac": len(record["failures"]) / attempted,
    }
    for op, name in COMMANDS.items():
        values[name] = _median(p["op_s"][op] for p in untraced if op in p["op_s"])
    cells = record["verdicts"].get("cells", [])
    for verdict in CELL_VERDICTS:
        values["cells_" + verdict] = cells.count(verdict)
    if traced:
        for key in traced[0]["layers"]:
            values[key] = _median(p["layers"][key] for p in traced)
        values["trace_overhead_frac"] = (
            _median(map(ref_seconds, traced)) / values["command_s"] - 1.0
        )
    return values


def machine_line(record: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {**record["machine"], "nproc": os.cpu_count(), "cpu": cpu, "jobs": 1}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hopfbvp" / "__init__.py").is_file():
        print(f"error: no hopfbvp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    tmp = ROOT / ".perfbench_tmp"
    out = tmp / f"{args.workload}-{os.getpid()}"
    try:
        setups = [
            spawn_worker(args, out / f"setup{k}", True, deadline)[:2]
            for k in range(SETUP_RUNS - 1)
        ]
        setup_s, cal, stdout = spawn_worker(args, out / "run", False, deadline)
        setups.append((setup_s, cal))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if tmp.is_dir() and not any(tmp.iterdir()):
            tmp.rmdir()

    record = json.loads(stdout.strip().splitlines()[-1])
    values = measured_metrics(record, setups)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failed = len(record["failures"])

    print("machine " + json.dumps(machine_line(record)))
    n_traced = sum(p["layers"] is not None for p in record["passes"])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {len(record['passes'])} traced {n_traced}")
    print("verdicts " + json.dumps(record["verdicts"]))
    # every metric this run measured, declared in either list, with its unit
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] in values:
            print(f"  {m['name']:<28} {values[m['name']]:.6g} {m['unit']}")
    for name in ("setup_wall_s", "command_wall_s"):
        print(f"  {name:<28} {values[name]:.6g} s (wall, not scaled)")
    print(f"operations {record['attempted']} attempted, {failed} failed")
    for reason in record["failures"]:
        print("failed: " + reason)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
