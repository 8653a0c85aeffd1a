"""Fast self-check of the benchmark itself (a few seconds).

    python3 perfbench/selfcheck.py

1. Runs each workload once on small grids through the same checks as the
   benchmark; only the known direct-link bound fault may fail.
2. Shows that each output check rejects a table with one value wrong.
3. Runs one traced pass and compares the metric names the benchmark prints
   with those declared in BENCHMARK.json.
Exits 0 when every step holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import numpy as np

from run import OUT, ROOT, Run, load_program
from tracing import Tracer, metric_units
from workloads import build_workloads, read_table

GRID = 5
END_TO_END = ("setup_s", "wall_s", "points_per_s", "cpu_s", "peak_rss_mb")


def _set(table, row: int, column: str, fn):
    """Copy of `table` with one cell replaced by fn(old value)."""
    t = copy.deepcopy(table)
    i = t.header.index(column)
    t.rows[row][i] = repr(float(fn(float(t.rows[row][i]), t.rows[row])))
    return t


def _mutations(table, op_name: str):
    """(description, mutated table, check expected to reject it)."""
    last, mid = len(table) - 1, len(table) // 2
    col = {name: i for i, name in enumerate(table.header)}

    def val(row, name):
        return float(row[col[name]])

    if op_name == "sweep-distance":
        return [
            ("upper_bound_w x0.9 in one row",
             _set(table, mid, "upper_bound_w", lambda v, r: 0.9 * v), "dbm"),
            ("closed_form_w above the bound",
             _set(table, mid, "closed_form_w",
                  lambda v, r: 1.01 * val(r, "upper_bound_w")), "bound"),
            ("bound flat between two rows",
             _set(table, mid, "upper_bound_w",
                  lambda v, r: float(table.rows[mid - 1][col["upper_bound_w"]])),
             "monotone"),
            ("closed form 3 % short at the far end",
             _set(table, last, "closed_form_w", lambda v, r: 0.97 * v),
             "attainment"),
            ("far-end bound 2 % high",
             _set(table, last, "upper_bound_w", lambda v, r: 1.02 * v),
             "far-field"),
            ("upper_bound_dbm +0.01 dB",
             _set(table, mid, "upper_bound_dbm", lambda v, r: v + 0.01), "dbm"),
            ("d_m off the grid", _set(table, mid, "d_m", lambda v, r: v + 1),
             "grid"),
        ]
    if op_name == "solve":
        return [("closed-form evaluated above the bound",
                 _set(table, 0, "evaluated_dbm",
                      lambda v, r: float(table.rows[-1][2]) + 0.01), "bound")]
    if op_name == "robustness":
        x, y = table.col("x_m"), table.col("y_m")
        origin = int(np.flatnonzero((x == 0) & (y == 0))[0])
        off = int(np.flatnonzero((x != 0) & (y != 0))[0])
        return [
            ("deviation = 1", _set(table, off, "deviation", lambda v, r: 1.0),
             "range"),
            ("deviation 0.01 at the origin",
             _set(table, origin, "deviation", lambda v, r: 0.01), "origin"),
            ("estimated_dbm +0.1 dB off the axis",
             _set(table, off, "estimated_dbm", lambda v, r: v + 0.1),
             "symmetry"),
            ("ideal_dbm +0.1 dB", _set(table, origin, "ideal_dbm",
                                       lambda v, r: v + 0.1), "ideal"),
            ("deviation +0.01", _set(table, origin, "deviation",
                                     lambda v, r: v + 0.01), "deviation"),
        ]
    if op_name == "sweep-plane":
        y = table.col("y_m")
        off = int(np.flatnonzero(y > 0)[0])
        ris_max = table.col("ris_dbm").max()
        return [
            ("ris_dbm +0.1 dB at one point",
             _set(table, mid, "ris_dbm", lambda v, r: v + 0.1), "ris"),
            ("direct_dbm +0.1 dB", _set(table, mid, "direct_dbm",
                                        lambda v, r: v + 0.1), "direct"),
            ("total_dbm below the direct path",
             _set(table, mid, "total_dbm",
                  lambda v, r: val(r, "direct_dbm") - 0.1), "total"),
            ("abs_o = 1.5", _set(table, mid, "abs_o", lambda v, r: 1.5),
             "range"),
            ("RIS maximum moved off line l",
             _set(table, off, "ris_dbm", lambda v, r: ris_max + 1), "line-l"),
        ]
    raise ValueError(op_name)


def main() -> int:
    errors: list[str] = []
    cli, profile = load_program()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = OUT / "selfcheck"
    shutil.rmtree(out, ignore_errors=True)

    workloads = build_workloads(profile, grid=GRID)
    if sorted(workloads) != sorted(w["name"] for w in bench["workloads"]):
        errors.append("workload names differ from BENCHMARK.json")

    for name, workload in workloads.items():
        run = Run(workload, out / name)
        run.one_pass(cli)
        known = sum(op.known_fault is not None for op in workload.ops)
        print(f"{name}: {run.attempted} operations, {run.failed} failed, "
              f"correct={run.correct}")
        if not run.correct or run.failed != known:
            errors.append(f"{name}: unexpected failures")
        for i, op in enumerate(workload.ops):
            table = read_table(out / name / str(i) / f"{op.stem}.csv")
            if op.check(table) and op.known_fault is None:
                errors.append(f"{op.label}: check rejects the true output")
            for what, bad, check in _mutations(table, op.argv[0]):
                found = {c for c, _ in op.check(bad)}
                status = "rejected" if check in found else "MISSED"
                print(f"  {op.argv[0]}: {what}: {status} by {check!r}")
                if check not in found:
                    errors.append(f"{op.label}: {what} not caught by {check}")

    tracer = Tracer()
    run = Run(workloads["distance-paper"], out / "traced")
    tracer.install()
    try:
        tracer.begin_pass()
        run.one_pass(cli)
        tracer.end_pass()
    finally:
        tracer.uninstall()
    layer = tracer.per_pass()[0]
    if layer["em.exact_channel.calls"] != GRID + 2:
        errors.append(f"em.exact_channel.calls = "
                      f"{layer['em.exact_channel.calls']}, want {GRID + 2}")
    if layer["cli.main.calls"] != 3:
        errors.append("cli.main was not traced once per command")
    if hasattr(cli.main, "__wrapped__"):
        errors.append("uninstall left a wrapper in place")
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    if declared != metric_units():
        errors.append("per-layer metrics differ from BENCHMARK.json")
    if [m["name"] for m in bench["end_to_end"]] != list(END_TO_END):
        errors.append("end-to-end metrics differ from BENCHMARK.json")

    shutil.rmtree(out, ignore_errors=True)
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    print("selfcheck " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
