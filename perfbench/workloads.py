"""The benchmark's workloads and the checks on every output they write.

A workload is one pass of `rislink` CLI commands on the bundled profile.
None of them draws a random number: the inputs are the profile plus the
flags below.  Each command is one operation; it succeeds when it exits 0
and its CSV, sidecar and plot script pass the checks.

The checks test properties the method must have, or compare against the
closed forms in `reference.py`, which do not use `rislink`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from reference import Profile, dbm, direct_power, ris_power

# CSV values carry 9 significant digits: 5e-10 relative, or well under
# 1e-6 dB at the powers written here.
REL_TOL = 1e-8
DB_TOL = 1e-6

Problem = tuple[str, str]   # (check name, message)


@dataclass
class Table:
    header: list[str]
    rows: list[list[str]]

    def __len__(self) -> int:
        return len(self.rows)

    def col(self, name: str) -> np.ndarray:
        i = self.header.index(name)
        return np.array([float(r[i]) for r in self.rows])

    def text(self, name: str) -> list[str]:
        i = self.header.index(name)
        return [r[i] for r in self.rows]


def read_table(path: Path) -> Table:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return Table(header=rows[0], rows=rows[1:])


def _fail(problems: list[Problem], check: str, bad, what: str) -> None:
    """Record a problem when the boolean array `bad` has any True entry."""
    bad = np.asarray(bad)
    if bad.any():
        first = int(np.flatnonzero(bad.ravel())[0])
        problems.append((check, f"{what} ({int(bad.sum())} rows, "
                                f"first at row {first})"))


def _check_dbm(problems, t: Table, pairs) -> None:
    for w_col, dbm_col in pairs:
        err = np.abs(t.col(dbm_col) - dbm(t.col(w_col)))
        _fail(problems, "dbm", err > DB_TOL,
              f"{dbm_col} != 10*log10({w_col}) + 30")


def _check_axis(problems, got: np.ndarray, want: np.ndarray, name: str):
    if got.shape != want.shape:
        problems.append(("grid", f"{name}: {got.size} values, "
                                 f"expected {want.size}"))
        return
    _fail(problems, "grid", np.abs(got - want) > REL_TOL * (1 + np.abs(want)),
          f"{name} is not the configured grid")


def check_distance(t: Table, p: Profile, points: int) -> list[Problem]:
    """Equilateral sweep at paper scale: designs below the bound, the
    bound falling with distance, the closed form approaching it, and the
    far end matching the far-field closed form."""
    problems: list[Problem] = []
    lo, hi, _ = p.distance
    d = t.col("d_m")
    _check_axis(problems, d, np.linspace(lo, hi, points), "d_m")
    if problems:
        return problems
    closed, svd, bound = (t.col("closed_form_w"), t.col("svd_w"),
                          t.col("upper_bound_w"))
    limit = bound * (1 + REL_TOL)
    _fail(problems, "bound", closed > limit, "closed_form_w above upper_bound_w")
    _fail(problems, "bound", svd > limit, "svd_w above upper_bound_w")
    _fail(problems, "monotone", np.diff(bound) >= 0,
          "upper_bound_w does not strictly decrease with d_m")
    ratio = closed / bound
    _fail(problems, "attainment", np.diff(ratio) <= 0,
          "closed_form_w / upper_bound_w does not rise with d_m")
    _fail(problems, "attainment", abs(ratio[-1] - 1) > 0.02,
          f"closed_form_w / upper_bound_w = {ratio[-1]:.4f} at {hi} m")
    far = ris_power(p, p.elements(True), hi, hi, hi)
    _fail(problems, "far-field", abs(bound[-1] / far - 1) > 0.01,
          f"upper_bound_w {bound[-1]:.6e} vs far-field closed form "
          f"{far:.6e} at {hi} m")
    _check_dbm(problems, t, [("closed_form_w", "closed_form_dbm"),
                             ("svd_w", "svd_dbm"),
                             ("upper_bound_w", "upper_bound_dbm")])
    return problems


def check_solve(t: Table, methods: tuple[str, ...]) -> list[Problem]:
    """Every evaluated design at or below the `upper-bound` row."""
    problems: list[Problem] = []
    names = t.text("method")
    if names != [*methods, "upper-bound"]:
        return [("rows", f"methods {names}, expected {[*methods, 'upper-bound']}")]
    evaluated = t.col("evaluated_dbm")
    bound = evaluated[-1]
    for name, value in zip(names[:-1], evaluated[:-1]):
        if value > bound + DB_TOL:
            problems.append(("bound", f"{name} evaluates to {value} dBm, "
                                      f"above upper-bound {bound} dBm"))
    return problems


def _plane_grid(xs: np.ndarray, ys: np.ndarray):
    """Row order of the CLI's maps: y is the outer loop, x the inner."""
    gx, gy = np.meshgrid(xs, ys)
    return gx.ravel(), gy.ravel()


def check_robustness(t: Table, p: Profile, points: int) -> list[Problem]:
    """Position-error map: deviation in [0, 1) and ~0 at the origin, the map
    symmetric under y -> -y, and the ideal column equal to the closed form."""
    problems: list[Problem] = []
    extent, _ = p.robustness
    offs = np.linspace(-extent, extent, points)
    x, y = _plane_grid(offs, offs)
    _check_axis(problems, t.col("x_m"), x, "x_m")
    _check_axis(problems, t.col("y_m"), y, "y_m")
    if problems:
        return problems
    dev, est, ideal = (t.col("deviation"), t.col("estimated_dbm"),
                       t.col("ideal_dbm"))
    _fail(problems, "range", (dev < 0) | (dev >= 1), "deviation outside [0, 1)")
    origin = (x == 0) & (y == 0)
    _fail(problems, "origin", origin & (dev > 1e-6), "deviation not ~0 at origin")
    mirror = np.arange(len(t)).reshape(points, points)[::-1].ravel()
    for name, col in (("deviation", dev), ("estimated_dbm", est),
                      ("ideal_dbm", ideal)):
        _fail(problems, "symmetry", np.abs(col - col[mirror]) > DB_TOL,
              f"{name} not symmetric under y -> -y")
    d_ti = np.sqrt(x**2 + y**2 + p.height**2)
    d_ir = np.sqrt((x - p.d_tr) ** 2 + y**2 + p.height**2)
    want = dbm(ris_power(p, p.elements(True), d_ti, d_ir, p.d_tr))
    _fail(problems, "ideal", np.abs(ideal - want) > DB_TOL,
          "ideal_dbm differs from the closed-form RIS power")
    e_w, i_w = 10 ** (est / 10), 10 ** (ideal / 10)
    _fail(problems, "deviation",
          np.abs(dev - np.abs(e_w - i_w) / np.maximum(e_w, i_w)) > 1e-6,
          "deviation disagrees with the two dBm columns")
    return problems


def check_plane(t: Table, p: Profile, points: int) -> list[Problem]:
    """Direct-link plane map at the default panel: the RIS and direct
    columns equal the closed forms, the total is at least either path, |O|
    lies in [0, 1] and the RIS maximum lies on line l (y = 0)."""
    problems: list[Problem] = []
    x, y = _plane_grid(np.linspace(*p.plane_x, points),
                       np.linspace(*p.plane_y, points))
    _check_axis(problems, t.col("x_m"), x, "x_m")
    _check_axis(problems, t.col("y_m"), y, "y_m")
    if problems:
        return problems
    ris, direct, total, o = (t.col("ris_dbm"), t.col("direct_dbm"),
                             t.col("total_dbm"), t.col("abs_o"))
    d_ti = np.sqrt(x**2 + y**2 + p.height**2)
    d_ir = np.sqrt((x - p.d_tr) ** 2 + y**2 + p.height**2)
    want = dbm(ris_power(p, p.elements(False), d_ti, d_ir, p.d_tr))
    _fail(problems, "ris", np.abs(ris - want) > DB_TOL,
          "ris_dbm differs from the closed-form RIS power")
    _fail(problems, "direct",
          np.abs(direct - dbm(direct_power(p, p.d_tr))) > DB_TOL,
          "direct_dbm differs from the Friis power")
    _fail(problems, "total", total < np.maximum(ris, direct) - DB_TOL,
          "total_dbm below max(ris_dbm, direct_dbm)")
    _fail(problems, "range", (o < 0) | (o > 1), "abs_o outside [0, 1]")
    if ris[y == 0].max() < ris.max():
        problems.append(("line-l", "maximum of ris_dbm is off y = 0"))
    return problems


@dataclass(frozen=True)
class Op:
    """One CLI command and the check on the table it writes."""

    argv: tuple[str, ...]
    check: Callable[[Table], list[Problem]]
    # A fault of the program that fails this operation on every pass, as
    # (check name, explanation); the failure is counted, not hidden.
    known_fault: tuple[str, str] | None = None
    # solve's table has no watt column, so its gnuplot script ends in an
    # empty `plot` command; for it only the script's presence is checked.
    plots_csv: bool = True

    @property
    def label(self) -> str:
        return " ".join(self.argv)

    @property
    def stem(self) -> str:
        return self.argv[0].replace("-", "_")


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]


_DIRECT_BOUND_FAULT = (
    "bound", "solvers.power_upper_bound leaves out the direct path h_tr, "
             "so the bound is the RIS-only ceiling")


def build_workloads(p: Profile, grid: int | None = None) -> dict[str, Workload]:
    """The three workloads; `grid` shrinks every sweep for the self-check."""
    g = () if grid is None else ("--grid", str(grid))
    dist_pts = p.distance[2] if grid is None else grid
    rob_pts = p.robustness[1] if grid is None else grid
    plane_pts = 201 if grid is None else grid
    solve = ("closed-form", "svd-projected")
    solve_direct = ("closed-form", "closed-form-two-path", "svd-projected")
    return {w.name: w for w in (
        Workload("distance-paper", (
            Op(("sweep-distance", "--paper-scale", *g),
               lambda t: check_distance(t, p, dist_pts)),
            Op(("solve", "--paper-scale"), lambda t: check_solve(t, solve),
               plots_csv=False),
            Op(("solve", "--paper-scale", "--direct-link"),
               lambda t: check_solve(t, solve_direct),
               known_fault=_DIRECT_BOUND_FAULT, plots_csv=False),
        )),
        Workload("robustness-paper", (
            Op(("robustness", "--paper-scale", *g),
               lambda t: check_robustness(t, p, rob_pts)),
        )),
        Workload("plane-direct", (
            Op(("sweep-plane", "--direct-link", "--grid", str(plane_pts)),
               lambda t: check_plane(t, p, plane_pts)),
        )),
    )}


def check_op(op: Op, rc: int, out: Path) -> tuple[list[Problem], int]:
    """Check one command's exit code and the three files it wrote.

    Returns the problems and the number of CSV rows written.
    """
    if rc != 0:
        return [("exit", f"exit code {rc}")], 0
    csv_path = out / f"{op.stem}.csv"
    try:
        table = read_table(csv_path)
        meta = json.loads(csv_path.with_name(csv_path.name + ".meta.json")
                          .read_text(encoding="utf-8"))
        script = (out / f"{op.stem}.gp").read_text(encoding="utf-8")
    except (OSError, ValueError, IndexError) as exc:
        return [("files", f"unreadable output: {exc}")], 0
    problems: list[Problem] = []
    if meta.get("rows") != len(table) or meta.get("experiment") != op.argv[0]:
        problems.append(("sidecar", f"sidecar {meta} does not describe "
                                    f"{len(table)} rows of {op.argv[0]}"))
    if not script.startswith("set terminal") or (
            op.plots_csv and csv_path.name not in script):
        problems.append(("plot", "plot script does not render the CSV"))
    try:
        problems += op.check(table)
    except (ValueError, IndexError) as exc:
        problems.append(("parse", f"malformed table: {exc}"))
    return problems, len(table)
