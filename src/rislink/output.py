"""Deterministic result serialization: CSV tables, JSON metadata sidecars,
and gnuplot scripts (written, never executed)."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .experiments import _BLOCK_ROWS, SweepResult

_KINDS = "fiU"   # float (`%.9g`), int (`%d`) and str columns, by dtype kind

# Tables of the `%.9g` kernel, built once at import.  A float
# field is two little-endian words, 16 bytes: the sign and "0.000" prefix
# of fixed notation below 1 in bytes 0 to p - 1; the leading digit d0 at
# byte p; the eight digits d1..d8, with the point inserted among them, from
# byte p + 1; the exponent in bytes 11-14 and the separator in byte 15.
# Unused bytes are NUL.  The key of the per-exponent tables is
# 2 * (e - _E_MIN) + (v < 0).
_E_MIN, _E_MAX = -14, 30   # exponents e with |8 - e| <= 22: 10**|8 - e| exact
_POW10 = np.array([float(10**k) for k in range(23)])
_SHIFT = np.repeat(8 - np.arange(_E_MIN, _E_MAX + 1), 2)
_MUL = np.where(_SHIFT >= 0, _POW10[np.clip(_SHIFT, 0, 22)], 1.0)
_DIV = np.where(_SHIFT < 0, _POW10[np.clip(-_SHIFT, 0, 22)], 1.0)


def _words(byte_rows: np.ndarray) -> np.ndarray:
    """One '<u8' word per row of an (..., 8) array of bytes in memory order."""
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view("<u8")[..., 0]


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """ASCII words of the 4-digit groups 0000..9999 with their trailing
    zeros as NUL: in bytes 0-3 for d1..d4, and in bytes 4-7 for d5..d8
    with a '0' in bytes 0-3 whenever the group is not 0, which puts back
    the zeros of d1..d4 that are not trailing after all."""
    v = np.arange(10_000)[:, None]
    digits = v // [1000, 100, 10, 1] % 10
    significant = v % [10_000, 1000, 100, 10] != 0   # nonzero from here on
    text = np.zeros((10_000, 8), np.uint8)
    text[:, :4] = (digits + ord("0")) * significant
    first = _words(text)
    second = first << 32
    second[1:] |= int.from_bytes(b"0000", "little")
    return first, second


def _layout_tables() -> tuple[np.ndarray, ...]:
    """Per-exponent and sign words: the '0' of each digit of d1..d8
    before the point, the mask of the digits after it, the point, the
    first word's sign and "0.000" prefix, 8 p for its length p, and the
    second word's exponent."""
    e, neg = np.meshgrid(np.arange(_E_MIN, _E_MAX + 1), np.arange(2),
                         indexing="ij")
    fixed = (e >= -4) & (e < 9)
    small = fixed & (e < 0)                    # "0." and the point before d0
    lead = np.where(fixed & ~small, e, 0)[..., None]  # d1..d8 before the point
    i = np.arange(8)
    zeros = _words(np.where(i < lead, ord("0"), 0))
    after = _words(np.where((i >= lead) & ~small[..., None], 255, 0))
    point = _words(np.where((i == lead) & ~small[..., None], ord("."), 0))
    cases = zip(e.ravel().tolist(), neg.ravel().tolist(),
                small.ravel().tolist(), fixed.ravel().tolist())
    prefix, expo = zip(*[
        (b"-" * n + (b"0." + b"0" * (-1 - k) if below_one else b""),
         b"" if plain else b"\0\0\0e%+03d" % k)
        for k, n, below_one, plain in cases])
    return (zeros.ravel(), after.ravel(), point.ravel(),
            np.array(prefix, "S8").view("<u8"),
            np.array([8 * len(p) for p in prefix], np.uint64),
            np.array(expo, "S8").view("<u8"))


_FIRST4, _SECOND4 = _digit_tables()
_ZEROS, _AFTER, _POINT, _PREFIX, _AT, _EXPONENT = _layout_tables()
_FIELD_WORDS = 2   # a kernel field: its text, at most 15 bytes, and sep


def _float_fields(x: np.ndarray, words: np.ndarray, sep: int) -> np.ndarray:
    """Write `'%.9g' % v` for every float v of x, then the byte sep, into
    the first _FIELD_WORDS words of the rows of words, an (n, w) '<u8'
    array, w >= _FIELD_WORDS; return the mask of the cells left to `%`.

    With e = floor(log10|v|), s = |v| * 10**(8 - e) is one correctly
    rounded product or quotient of exact doubles.  Rounding is monotone and
    every n + 0.5 below 1e9 is a double, so s lies on the same side of each
    half as the exact value, or on the half itself: s rounds to the 9-digit
    mantissa `'%.9g'` prints unless it is a half or lies outside [1e8,
    1e9 - 0.5), which also catches a log10 off by one and a carry to 1e9.
    Those cells, zeros, nan, inf, subnormals and |e - 8| > 22 are left to
    `%`; their bytes here are placeholders.  A text the kernel writes has
    at most 15 characters, such as -0.000123456789 or -1.23456789e-05.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.abs(x)
        e = np.log10(a)
        np.floor(e, out=e)
        np.fmax(e, _E_MIN, out=e)
        np.fmin(e, _E_MAX, out=e)
        e -= _E_MIN
        e *= 2
        e += x < 0
        key = e.astype(np.intp)
        s = a * _MUL[key]
        s /= _DIV[key]
        m = np.rint(s)
        np.fmin(m, 999_999_999.0, out=m)
        fast = np.abs(s - m) < 0.5
        fast &= s >= 1e8
        np.fmax(m, 1e8, out=m)
    rest = m.astype(np.intp)
    d0 = rest // 100_000_000
    rest -= d0 * 100_000_000
    first = rest // 10_000
    rest -= first * 10_000
    digits = _FIRST4[first]
    digits |= _SECOND4[rest]
    digits |= _ZEROS[key]
    after = digits & _AFTER[key]
    digits ^= after
    point = _POINT[key]
    point *= after != 0            # no point when no digit follows it
    digits |= point
    # the ten bytes from d0 on: d0, then the digits up to the point, then
    # the digits after it one byte up; `low` holds eight and `high` two,
    # and both move up p bytes, behind the prefix
    d0 += ord("0")
    low = d0.view(np.uint64)
    low |= digits << 8
    low |= after << 16
    high = digits >> 56
    high |= after >> 48
    at = _AT[key]
    np.bitwise_or(_PREFIX[key], low << at, out=words[:, 0])
    high <<= at
    high |= low >> (64 - at)       # numpy shifts by 64 to 0
    np.bitwise_or(high, (_EXPONENT | np.uint64(sep << 56))[key],
                  out=words[:, 1])
    return ~fast


def _fields(x: np.ndarray, words: np.ndarray, sep: int) -> bool:
    """Write `'%.9g' % v` for every float v of x, then the byte sep, into
    the rows of words, an (n, w) '<u8' array of zeros whose rows are
    contiguous, w >= _FIELD_WORDS: _float_fields, then `%` for the cells it
    leaves, written over its placeholders with the separator in the last
    byte.  Return False, with those cells unwritten, when a `%` text does
    not fit: `%` writes 16 characters, which take three words, for some
    negative values with a 3-digit exponent, such as -4.94065646e-324."""
    slow = np.flatnonzero(_float_fields(x, words, sep))
    if slow.size:
        end = 8 * words.shape[1] - 1
        text = np.array([b"%.9g" % v for v in x[slow].tolist()])
        if text.itemsize > end:
            return False
        raw = words.view(np.uint8)
        raw[slow, :end] = text.astype(f"S{end}").view(np.uint8).reshape(
            slow.size, end)
        raw[slow, end] = sep
    return True


def _distinct_fields(col: np.ndarray, sep: int) -> np.ndarray:
    """The fields of a float column with zero strides, as a read-only
    broadcast view of the column's shape plus an axis of words: each
    distinct value, the column cut to length 1 along its zero-stride axes,
    is formatted once, and its text and separator are stored left-aligned
    in the fewest whole words that hold those of every distinct value."""
    distinct = np.asarray(col[tuple(slice(None) if stride else slice(0, 1)
                                    for stride in col.strides)],
                          dtype=np.float64)
    words = np.zeros((distinct.size, 3), "<u8")   # room for any `%` text
    _fields(distinct.ravel(), words, sep)
    end = bytes([sep])
    texts = words.tobytes().translate(None, b"\0").split(end)[:-1]
    width = max(map(len, texts), default=0) // 8 + 1
    fields = np.array([t + end for t in texts], f"S{8 * width}").view("<u8")
    return np.broadcast_to(fields.reshape(distinct.shape + (width,)),
                           col.shape + (width,))


def _block_bytes(parts: list[np.ndarray], wide: tuple = ()) -> bytes:
    """The CSV rows of one block, one part per column: the block's cells,
    or for a float column of distinct values the block's rows of its
    `_distinct_fields`, separator included.

    Each cell gets a field of whole words ending in its separator, with
    NUL bytes where it has no character: _FIELD_WORDS for a float cell, or
    three in the columns whose indices `wide` holds, the distinct fields'
    own words, and enough for an int or str cell.  The rows' fields form
    one zero-filled matrix whose NUL bytes are dropped in one pass.  A
    float column where `%` writes a text too long for its fields is made
    wide, and the block is built again.
    """
    cells, widths = [], []
    for j, part in enumerate(parts):
        if part.dtype.kind == "u":
            cells.append(part)
            widths.append(part.shape[-1])
        elif part.dtype.kind == "f":
            cells.append(np.asarray(part, dtype=np.float64))
            widths.append(3 if j in wide else _FIELD_WORDS)
        else:
            text = (part.astype("S") if part.dtype.kind == "i"
                    else np.strings.encode(part, "utf-8"))
            cells.append(text)
            widths.append(text.itemsize // 8 + 1)
    n = math.prod(parts[0].shape[:-1] if parts[0].dtype.kind == "u"
                  else parts[0].shape)
    buf = bytearray(8 * n * sum(widths))
    words = np.frombuffer(buf, dtype="<u8").reshape(n, sum(widths))
    raw = words.view(np.uint8)
    col = 0
    for j, (cell, width) in enumerate(zip(cells, widths)):
        sep = ord("\n") if j == len(cells) - 1 else ord(",")
        if cell.dtype.kind == "u":
            # the block's rows shaped like the fields, which broadcast
            words.reshape(cell.shape[:-1] + (-1,))[..., col:col + width] = cell
        elif cell.dtype.kind == "f":
            if not _fields(cell, words[:, col:col + width], sep):
                return _block_bytes(parts, wide + (j,))
        else:
            start, end = 8 * col, 8 * (col + width) - 1   # end: the separator
            raw[:, start:start + cell.itemsize] = cell.view(np.uint8).reshape(
                n, -1)
            raw[:, end] = sep
        col += width
    return bytes(buf).translate(None, b"\0")


def emit_csv(result: SweepResult, path: str | Path) -> Path:
    """Write the columns as UTF-8 CSV plus a `.meta.json` sidecar.

    Every float cell reads as `'%.9g' % v` (which writes nan, inf, -inf
    and -0 as such), every int cell as `'%d' % v` and every str cell as its
    UTF-8 bytes.  The columns share one shape, and the rows are their cells
    in C order.  Rows are formatted and written in blocks of whole
    first-axis rows of that shape, at most `_BLOCK_ROWS` rows unless one
    first-axis row is longer, one compacted byte matrix per block
    (`_block_bytes`): `_float_fields` formats a block's float column as one
    array program and leaves the few cells it cannot round exactly to `%`;
    int and str columns go through fixed-width byte strings.  A float
    column with zero strides, such as a map's broadcast axis or a column of
    one value, has its distinct values formatted once
    (`_distinct_fields`), and each block copies their fields to its rows.
    A table with no rows, such as a grid with an empty axis, writes the
    header alone.  Output is byte-deterministic for identical inputs:
    fixed float format, fixed row order, no timestamps in the sidecar.
    """
    path = Path(path)
    shape = np.shape(next(iter(result.columns.values()), ()))
    columns = []
    for j, (name, col) in enumerate(result.columns.items()):
        col = np.asarray(col)
        if col.shape != shape:
            raise ValueError(f"column {name!r} has shape {col.shape}, "
                             f"not {shape}")
        if col.dtype.kind not in _KINDS:
            raise ValueError(f"column {name!r} is neither float, int nor str")
        if col.dtype.kind == "f" and 0 in col.strides:
            sep = ord("\n") if j == len(result.columns) - 1 else ord(",")
            col = _distinct_fields(col, sep)
        columns.append(col)
    if 0 in shape:
        shape = (0,)         # no rows: the header alone
    step = max(1, _BLOCK_ROWS // math.prod(shape[1:]))
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write((",".join(result.header) + "\n").encode("utf-8"))
        for start in range(0, shape[0], step):
            fh.write(_block_bytes([
                col[start:start + step] if col.dtype.kind == "u"
                else col[start:start + step].reshape(-1) for col in columns]))

    sidecar = path.with_suffix(path.suffix + ".meta.json")
    sidecar.write_text(json.dumps({**result.meta, "rows": len(result)},
                                  indent=2, sort_keys=True) + "\n",
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
