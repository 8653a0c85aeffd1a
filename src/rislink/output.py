"""Deterministic result serialization: CSV tables, JSON metadata sidecars,
and gnuplot scripts (written, never executed)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .experiments import _BLOCK_ROWS, SweepResult

_FORMATS = {"f": "%.9g", "i": "%d", "U": "%s"}   # by numpy dtype kind


def _block_cells(part: np.ndarray, fmt: str) -> tuple[str, list]:
    """The `%` conversion and the cells of one column within one block.

    A float or int column whose distinct values number at most half the
    block's rows is formatted once per distinct value and comes back as
    str cells under `%s`.  Values are told apart by their bit pattern, so
    0.0 and -0.0 stay distinct and every NaN formats as itself.
    """
    if part.dtype.kind in "fi":
        bits, inverse = np.unique(part.view(f"i{part.itemsize}"),
                                  return_inverse=True)
        if 2 * len(bits) <= len(part):
            text = [fmt % v for v in bits.view(part.dtype).tolist()]
            return "%s", np.array(text, dtype=object)[inverse].tolist()
    return fmt, part.tolist()


def emit_csv(result: SweepResult, path: str | Path) -> Path:
    """Write the columns as UTF-8 CSV plus a `.meta.json` sidecar.

    Rows are written in blocks of `_BLOCK_ROWS`, each row one `%` template:
    `%.9g` for float columns (which writes nan, inf, -inf and -0 as such),
    `%d` for int columns and `%s` for str columns.  Within a block, a float
    or int column that repeats its values (at most half as many distinct
    values as rows, such as a grid coordinate) is formatted once per
    distinct value with the same conversion and joins the row as `%s`, so
    the bytes do not depend on the path.  Output is byte-deterministic for
    identical inputs: fixed float format, fixed row order, no timestamps in
    the sidecar.
    """
    path = Path(path)
    n = len(result)
    formats = []
    for name, col in result.columns.items():
        if len(col) != n:
            raise ValueError(f"column {name!r} has {len(col)} rows, not {n}")
        kind = np.asarray(col).dtype.kind
        if kind not in _FORMATS:
            raise ValueError(f"column {name!r} is neither float, int nor str")
        formats.append(_FORMATS[kind])
    columns = list(result.columns.values())
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(result.header) + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            convs, block = zip(*(
                _block_cells(np.asarray(col[start:start + _BLOCK_ROWS]), fmt)
                for col, fmt in zip(columns, formats)))
            template = ",".join(convs) + "\n"
            fh.write("".join(template % row for row in zip(*block)))

    sidecar = path.with_suffix(path.suffix + ".meta.json")
    meta = dict(sorted(result.meta.items()))
    meta["rows"] = n
    sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    return path


def _column(result: SweepResult, name: str) -> int:
    return result.header.index(name) + 1  # gnuplot columns are 1-based


def emit_plot_script(result: SweepResult, csv_path: str | Path,
                     script_path: str | Path) -> Path:
    """Write a gnuplot script that renders the CSV next to it.

    Line sweeps plot the watt columns on a log scale; bar tables plot the
    evaluated dBm per label in the first column; plane sweeps and
    robustness maps render heatmaps (the latter with a 0.1 contour).
    """
    csv_path = Path(csv_path)
    script_path = Path(script_path)
    png = csv_path.with_suffix(".png").name
    lines = [
        "set terminal pngcairo size 900,620",
        f"set output '{png}'",
        "set datafile separator ','",
        "set key outside",
    ]
    if result.kind == "line":
        watt_cols = [(i + 1, name) for i, name in enumerate(result.header)
                     if name.endswith("_w")]
        xcol = 1
        lines += [
            "set logscale y",
            f"set xlabel '{result.header[0]}'",
            "set ylabel 'received power (W)'",
        ]
        plots = [f"'{csv_path.name}' skip 1 using {xcol}:{c} "
                 f"with lines title '{name}'" for c, name in watt_cols]
        lines.append("plot " + ", \\\n     ".join(plots))
    elif result.kind == "bar":
        ycol = _column(result, "evaluated_dbm")
        lines += [
            "set style fill solid 0.5",
            "set boxwidth 0.6",
            "set ylabel 'evaluated power (dBm)'",
            f"plot '{csv_path.name}' skip 1 using {ycol}:xtic(1) "
            "with boxes notitle",
        ]
    elif result.kind == "heatmap":
        zcol = _column(result, "total_dbm") if "total_dbm" in result.header \
            else _column(result, "ris_dbm")
        lines += [
            "set view map",
            "set xlabel 'x (m)'",
            "set ylabel 'y (m)'",
            "set cblabel 'received power (dBm)'",
            f"splot '{csv_path.name}' skip 1 using 1:2:{zcol} "
            "with points pt 5 ps 1 palette notitle",
        ]
    elif result.kind == "robustness":
        zcol = _column(result, "deviation")
        lines += [
            "set view map",
            "set xlabel 'x offset (m)'",
            "set ylabel 'y offset (m)'",
            "set cblabel 'normalized power deviation'",
            "set contour base",
            "set cntrparam levels discrete 0.1",
            f"splot '{csv_path.name}' skip 1 using 1:2:{zcol} "
            "with points pt 5 ps 1 palette notitle",
        ]
    else:
        raise ValueError(f"unknown result kind {result.kind!r}")
    script_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return script_path
