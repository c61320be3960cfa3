"""Write reference.json: the answers the benchmark checks every run against.

Untimed.  It was run once at the commit that defined the benchmark; run it
again only when a change of answers is intended and reviewed:

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

import json

from hopfbvp import HopfParams, find_solution, match_shooting, oracles, solvability_map

from worker import MAIN, MAP_ARGS, REFERENCE, UNSOLVABLE


def solve_reference(params: HopfParams) -> dict:
    outcome = find_solution(params)
    return {
        "solve": outcome.verdict,
        "s_star": outcome.s_star,
        "shoot": match_shooting(params).verdict,
    }


def main() -> None:
    rows = oracles.run_oracle_suite()
    failing = [r.name for r in rows if not r.passed]
    if failing:
        raise SystemExit(f"oracle rows fail, nothing recorded: {failing}")
    cells = solvability_map(*MAP_ARGS)
    reference = {
        "main-regime": solve_reference(HopfParams(*MAIN)),
        "unsolvable": solve_reference(HopfParams(*UNSOLVABLE)),
        "map-5x10": {
            "cells": [
                {"lam": c.lam, "mu": c.mu, "verdict": c.verdict, "s_star": c.s_star}
                for c in cells
            ]
        },
        "certify-assemble": {"oracle_rows": [r.name for r in rows]},
    }
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")


if __name__ == "__main__":
    main()
