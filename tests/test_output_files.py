"""The bytes of every output file, and the one place that knows each format.

Each writer is compared byte for byte with the formatting code that wrote its
file before ``core.write_csv`` and ``cli._write_json`` took over; that code
is copied here as the reference.  The values come from the code under test,
so these tests pin formatting, not solver bits.
"""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hopfbvp
from hopfbvp.analysis import ScanResult, ScanRow, SolvabilityCell, write_map_csv, write_scan_csv
from hopfbvp.cli import main
from hopfbvp.closed_forms import identity_solution
from hopfbvp.core import Grid, Profile, graded_grid, nodal_first_derivative, write_csv
from hopfbvp.ode import residual, write_profile_csv
from hopfbvp.shooting import MatchResult, write_mismatch_csv
from hopfbvp.variational import glue

# --- the reference formatting, one copy per writer ----------------------------


def reference_profile_csv(profile, params) -> str:
    d = nodal_first_derivative(profile.t, profile.values)
    j = profile.grid.junction_index
    if j is not None and profile.d_left is not None and profile.d_right is not None:
        d[j] = 0.5 * (profile.d_left + profile.d_right)
    res = residual(profile, params)
    lines = ["t,alpha,dalpha,residual"]
    for ti, ai, di, ri in zip(profile.t, profile.values, d, res):
        lines.append(f"{ti:.17g},{ai:.17g},{di:.17g},{ri:.17g}")
    return "\n".join(lines) + "\n"


def reference_scan_csv(scan) -> str:
    lines = ["s,l,l_tilde,I_s,I_s1,I_s2,converged"]
    for r in scan.rows:
        lines.append(
            f"{r.s:.17g},{r.l:.17g},{r.l_tilde:.17g},"
            f"{r.I_s:.17g},{r.I_s1:.17g},{r.I_s2:.17g},{int(r.converged)}"
        )
    return "\n".join(lines) + "\n"


def reference_map_csv(cells) -> str:
    lines = ["lambda,mu,verdict,s_star"]
    for c in cells:
        s_star = f"{c.s_star:.17g}" if c.s_star is not None else ""
        lines.append(f"{c.lam:.17g},{c.mu:.17g},{c.verdict},{s_star}")
    return "\n".join(lines) + "\n"


def reference_mismatch_csv(result) -> str:
    lines = ["c0,c1,dalpha,ddalpha"]
    for i, c0 in enumerate(result.c0_scan):
        for j, c1 in enumerate(result.c0_scan):
            lines.append(
                f"{c0:.17g},{c1:.17g},"
                f"{result.dalpha_map[i, j]:.17g},{result.ddalpha_map[i, j]:.17g}"
            )
    return "\n".join(lines) + "\n"


def reference_blowup_csv(rows) -> str:
    lines = ["s,sup_distance"] + [f"{r['s']:.17g},{r['sup_distance']:.17g}" for r in rows]
    return "\n".join(lines) + "\n"


def reference_glued_json(glued: dict) -> str:
    return json.dumps(glued, indent=2, sort_keys=True) + "\n"


def reference_csv(header, columns) -> str:
    """write_csv's rule, value by value."""

    def field(x) -> str:
        if x is None:
            return ""
        return format(x, ".17g") if isinstance(x, float) else str(x)

    rows = zip(*(list(c) for c in columns))
    return header + "\n" + "".join(",".join(map(field, row)) + "\n" for row in rows)


# --- each writer against its reference ----------------------------------------


class TestWritersKeepTheirBytes:
    def test_profile_csv_of_a_glued_curve(self, tmp_path, params_main):
        prof = glue(0.7, params_main, n=400).merged_profile()
        assert prof.has_kink()
        write_profile_csv(prof, params_main, tmp_path / "profile.csv")
        assert (tmp_path / "profile.csv").read_text() == reference_profile_csv(prof, params_main)

    def test_profile_csv_without_a_junction(self, tmp_path, params_flat):
        t = graded_grid(1e-4, math.pi / 2 - 1e-4, 300)
        prof = Profile(Grid(t), identity_solution(t))
        write_profile_csv(prof, params_flat, tmp_path / "profile.csv")
        assert (tmp_path / "profile.csv").read_text() == reference_profile_csv(prof, params_flat)

    def test_scan_csv_with_a_failed_row(self, tmp_path, params_main):
        rows = [
            ScanRow(s=0.02, l=np.float64(-0.5), l_tilde=-1e-300, I_s=np.float64(5e-324),
                    I_s1=1.0, I_s2=-0.0, converged=True),
            ScanRow(s=0.1, reason="no strict decrease"),  # NaN in every value column
            ScanRow(s=1.5, l=2.0 / 3.0, l_tilde=1e300, I_s=math.inf, I_s1=-math.inf,
                    I_s2=0.1, converged=True),
        ]
        scan = ScanResult(params_main, rows)
        write_scan_csv(scan, tmp_path / "scan.csv")
        text = (tmp_path / "scan.csv").read_text()
        assert text == reference_scan_csv(scan)
        assert text.splitlines()[2] == "0.10000000000000001,nan,nan,nan,nan,nan,0"

    def test_map_csv_with_a_missing_s_star(self, tmp_path):
        lams = np.linspace(1.0, 2.0, 3)
        cells = [
            SolvabilityCell(lam=lams[0], mu=1.0, verdict="no_sign_change"),
            SolvabilityCell(lam=lams[1], mu=np.float64(4.5), verdict="solution_found",
                            s_star=np.float64(0.4844880732698479)),
            SolvabilityCell(lam=lams[2], mu=6.0, verdict="solution_found", s_star=1.0 / 3.0),
            SolvabilityCell(lam=lams[2], mu=7.0, verdict="inconclusive", reason="x"),
        ]
        write_map_csv(cells, tmp_path / "map.csv")
        text = (tmp_path / "map.csv").read_text()
        assert text == reference_map_csv(cells)
        assert text.splitlines()[1] == "1,1,no_sign_change,"

    def test_mismatch_csv_is_c0_major(self, tmp_path):
        # one amplitude axis for c0 and c1; the maps are not symmetric, so
        # a c1-major file differs
        rng = np.random.default_rng(3)
        c = np.geomspace(0.1, 10.0, 4)
        da, dd = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        da[1, 2], dd[0, 3] = np.nan, -np.inf
        result = MatchResult("no_root", None, None, c, da, dd)
        write_mismatch_csv(result, tmp_path / "mm.csv")
        assert (tmp_path / "mm.csv").read_text() == reference_mismatch_csv(result)

    def test_blowup_csv(self, tmp_path):
        rc = main(["blowup", "--p", "1", "--q", "2", "--lambda", "1", "--mu", "4",
                   "--n", "200", "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = json.loads((tmp_path / "summary.json").read_text())["rows"]
        assert (tmp_path / "blowup.csv").read_text() == reference_blowup_csv(rows)

    def test_glued_and_summary_json(self, tmp_path):
        rc = main(["solve", "--p", "1", "--q", "2", "--lambda", "1", "--mu", "4",
                   "--n", "400", "--n-scan", "8", "--out-dir", str(tmp_path)])
        assert rc == 0
        summary_text = (tmp_path / "summary.json").read_text()
        summary = json.loads(summary_text)
        assert summary_text == json.dumps(summary, indent=2, sort_keys=True) + "\n"
        glued_text = (tmp_path / "glued.json").read_text()
        assert glued_text == reference_glued_json(summary["glued"])


# --- write_csv over the values an output file can hold -------------------------

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.225e-308,
                     1.7976931348623157e308, 0.1, 1.0 / 3.0]),
)
# '%' must reach the file as itself: it is not part of the line format
VALUES = st.one_of(FLOATS, FLOATS.map(np.float64), st.booleans(), st.none(),
                   st.integers(-10**20, 10**20), st.text(alphabet="ab %_-.", max_size=5))


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 6))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            columns.append(np.array(draw(st.lists(FLOATS, min_size=n_rows, max_size=n_rows))))
        else:
            columns.append(draw(st.lists(VALUES, min_size=n_rows, max_size=n_rows)))
    return columns


class TestWriteCsv:
    @given(columns=tables())
    @example(columns=[np.array([]), []])
    @example(columns=[[None, 1.5, None], [True, False, True], ["x", "%s", "%.17g"]])
    @settings(derandomize=True, deadline=None, max_examples=150)
    def test_matches_the_rule_value_by_value(self, tmp_path_factory, columns):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, "a,b", *columns)
        text = path.read_text()
        assert text == reference_csv("a,b", columns)
        # a float reads back as the same double
        for k, column in enumerate(columns):
            for line, x in zip(text.splitlines()[1:], column):
                if isinstance(x, float) and not math.isnan(x):
                    back = float(line.split(",")[k])
                    assert back == x and math.copysign(1.0, back) == math.copysign(1.0, x)

    def test_header_alone_for_no_rows(self, tmp_path):
        write_csv(tmp_path / "t.csv", "s,l", np.array([]), [])
        assert (tmp_path / "t.csv").read_bytes() == b"s,l\n"


# --- each format is known in one place -----------------------------------------

SRC = Path(hopfbvp.__file__).parent


def format_sites(is_site) -> list[tuple[str, str]]:
    """(module, enclosing def or class path) of every node in src/ that ``is_site``."""
    found = []

    def walk(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if is_site(child):
                found.append((module, ".".join(scope)))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            walk(child, module, scope + (child.name,) if named else scope)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, ())
    return found


def is_17g(node) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and ".17g" in node.value


def is_json_dump(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module == "json"
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "json" and node.attr in ("dump", "dumps"))


class TestOneFormatSite:
    def test_17_digits_only_in_write_csv(self):
        assert format_sites(is_17g) == [("core", "write_csv")]

    def test_json_written_only_by_the_cli_writer(self):
        assert format_sites(is_json_dump) == [("cli", "_write_json")]


@pytest.mark.parametrize("source, sites", [
    ('def f(x):\n    return f"{x:.17g}"\n', [("m", "f")]),
    ('class C:\n    def g(self):\n        json.dump({}, fh)\n', [("m", "C.g")]),
])
def test_site_finder_sees_fstrings_and_methods(tmp_path, monkeypatch, source, sites):
    (tmp_path / "m.py").write_text(source)
    monkeypatch.setattr(f"{__name__}.SRC", tmp_path)
    assert format_sites(is_17g) + format_sites(is_json_dump) == sites
