import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rislink.cli import main
from rislink.config import (dbm_to_watts, db_to_linear, default_config_text,
                            load_config, watts_to_dbm)
from rislink.errors import ConfigError, FarFieldWarning
from rislink.experiments import SweepResult, sweep_plane
from rislink.output import (_BLOCK_ROWS, _FIELD_WORDS, _block_bytes,
                            _float_fields, emit_csv, emit_plot_script)

# a filter for the runs whose far-field model is near-field, where the
# test's subject is not the far-field policy
_NEAR_FIELD_IGNORED = "ignore::rislink.errors.FarFieldWarning"


def test_unit_round_trips():
    for dbm in (-90.0, 0.0, 13.5, 30.0):
        assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm,
                                                                abs=1e-12)
    for db, ratio in ((0.0, 1.0), (10.0, 10.0), (-3.0, 0.5011872336272722),
                      (21.0, 125.89254117941675)):
        assert db_to_linear(db) == pytest.approx(ratio, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert watts_to_dbm(0.0) == -np.inf


def test_default_config_loads_and_validates():
    cfg = load_config()
    assert cfg.wavelength == pytest.approx(0.0286)
    assert cfg.tx_power == pytest.approx(1e-3)
    assert cfg.tx_gain == pytest.approx(10**2.1)
    assert cfg.ris_gain == pytest.approx(10**0.903)
    assert (cfg.ris_rows, cfg.ris_cols) == (20, 20)
    assert cfg.antennas == 16
    assert cfg.spacing == pytest.approx(0.0143)
    assert not cfg.direct_link
    assert len(cfg.config_hash) == 64


def test_config_loads_without_libyaml(monkeypatch, tmp_path):
    """Without PyYAML's libyaml loader the pure-Python SafeLoader loads the
    bundled profile to the same SceneConfig, and malformed YAML is still a
    ConfigError."""
    import yaml
    with_libyaml = load_config()
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert load_config() == with_libyaml
    bad = tmp_path / "bad.yaml"
    bad.write_text("radio: [not, a, mapping\n")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_loader_defaults_of_the_sweeps(tmp_path):
    """A profile with no sweeps section loads to the defaults load_config
    states, and the wavelength sweep starts from the radio's wavelength."""
    from rislink.config import SweepRanges, default_config_text
    text = default_config_text()
    profile = tmp_path / "no_sweeps.yaml"
    profile.write_text(text[:text.index("sweeps:")].replace(
        "wavelength_m: 0.0286", "wavelength_m: 0.05"))
    assert load_config(profile).sweeps == SweepRanges(
        distance_min=20.0, distance_max=200.0, distance_points=91,
        plane_x=(-50.0, 250.0), plane_y=(0.0, 120.0), plane_points=101,
        wavelength_max=0.05, wavelength_octaves=1.0, wavelength_points=25,
        element_ratio=1.0 / 3.0, total_area=9.0, robustness_extent=10.0,
        robustness_points=41)


def test_wavelength_sweep_area_must_hold_one_element(tmp_path, capsys):
    """A total area too small for one element at the longest wavelength is
    a profile error naming both keys: exit 1, nothing written.  The loader
    applies the design's own rule, so at the boundary a profile loads
    exactly when its sweep runs."""
    from rislink.config import default_config_text
    from rislink.experiments import sweep_wavelength
    text = default_config_text()
    profile = tmp_path / "area.yaml"
    profile.write_text(text.replace("total_area_m2: 9.0",
                                    "total_area_m2: 0.00001"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["sweep-wavelength", "--config", str(profile),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "sweeps.wavelength.total_area_m2" in err
    assert "sweeps.wavelength.element_ratio" in err
    assert not out.exists()
    side = 0.3333333333333333 * 0.0286
    loaded = []
    for area in (side**2 * (1 - 1e-9), np.nextafter(side**2, 0.0),
                 side**2, np.nextafter(side**2, 1.0)):
        profile.write_text(text.replace("total_area_m2: 9.0",
                                        f"total_area_m2: {float(area)!r}"))
        try:
            cfg = load_config(profile, grid_override=3)
        except ConfigError:
            loaded.append(False)
            continue
        loaded.append(True)
        assert len(sweep_wavelength(cfg)) == 3
    assert loaded[-1] and not loaded[0]


def test_config_overrides():
    cfg = load_config(paper_scale=True, direct_link=True,
                      strict_far_field=True, grid_override=7)
    assert (cfg.ris_rows, cfg.ris_cols) == (100, 100)
    assert cfg.direct_link
    assert cfg.far_field_mode == "strict"
    assert cfg.sweeps.plane_points == 7
    assert cfg.sweeps.robustness_points == 7


def test_config_errors(tmp_path, capsys):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("radio: [not, a, mapping\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    incomplete = tmp_path / "incomplete.yaml"
    incomplete.write_text("radio:\n  tx_power_dbm: 0.0\n")
    with pytest.raises(ConfigError):
        load_config(incomplete)
    from rislink.config import default_config_text
    negative = tmp_path / "negative.yaml"
    negative.write_text(default_config_text().replace(
        "wavelength_m: 0.0286", "wavelength_m: -1.0"))
    with pytest.raises(ConfigError):
        load_config(negative)
    with pytest.raises(ConfigError):
        load_config(grid_override=1)
    # sweeps that would write an empty or meaningless study
    for old, new in (("points: 101", "points: 0"),    # plane
                     ("points: 25", "points: 0"),     # wavelength
                     ("points: 41", "points: 1"),     # robustness
                     ("points: 41", "points: 0"),
                     ("extent_m: 10.0", "extent_m: 0.0"),
                     ("extent_m: 10.0", "extent_m: -5.0"),
                     ("octaves: 1.0", "octaves: -1.0")):
        profile = tmp_path / "sweep.yaml"
        text = default_config_text()
        assert text.count(old) == 1
        profile.write_text(text.replace(old, new))
        with pytest.raises(ConfigError):
            load_config(profile)
    # a misspelt key would otherwise fall back to its default silently
    text = default_config_text()
    for old, new, message in (
            ("    points: 101", "    pionts: 5",
             "unknown key 'pionts' in section 'sweeps.plane'"),
            ("  height_m: 80.0", "  hieght_m: 80.0",
             "unknown key 'hieght_m' in section 'geometry'"),
            ("  plane:", "  plain:", "unknown key 'plain' in section 'sweeps'"),
            ("flags:", "flag:", "unknown section 'flag'"),
            ("flags:\n  direct_link: false\n  far_field_mode: warn   "
             "# warn | strict | off\n", "flags:\n",
             "section 'flags' must be a mapping")):
        assert text.count(old) == 1
        profile = tmp_path / "typo.yaml"
        profile.write_text(text.replace(old, new))
        with pytest.raises(ConfigError, match=message):
            load_config(profile)
    # YAML 1.1 reads the unquoted `off` the profile documents as false
    for value in ("off", '"off"'):
        profile = tmp_path / "off.yaml"
        profile.write_text(text.replace("far_field_mode: warn",
                                        f"far_field_mode: {value}"))
        assert load_config(profile).far_field_mode == "off"
    # values the loader used to misread, truncate or pass on to a failing
    # or meaningless study: exit code 1, the key named, nothing written
    for old, new, key in (
            ("far_field_mode: warn", "far_field_mode: true",
             "flags.far_field_mode must be warn, strict or off"),
            ("far_field_mode: warn", "far_field_mode: loud",
             "flags.far_field_mode must be warn, strict or off"),
            ("wavelength_m: 0.0286", "wavelength_m: .inf",
             "radio.wavelength_m must be finite"),
            ("direct_link: false", 'direct_link: "false"',
             "flags.direct_link must be true or false"),
            ("  rows: 20 ", "  rows: 20.7 ", "ris.rows must be an integer"),
            ("points: 91", "points: 2.9",
             "sweeps.distance.points must be an integer"),
            ("min_m: 20.0", "min_m: -20.0", "sweeps.distance.min_m must be"),
            ("min_m: 20.0", "min_m: 0.0", "sweeps.distance.min_m must be"),
            ("d_tr_m: 200.0", "d_tr_m: .inf",
             "geometry.d_tr_m must be finite"),
            # T and R on plane S, where the studies place the panel
            ("height_m: 80.0", "height_m: 0", "geometry.height_m must be > 0"),
            ("    max_m: 0.0286", "    max_m: 0.0",
             "sweeps.wavelength.max_m must be"),
            ("total_area_m2: 9.0", "total_area_m2: 0.0",
             "sweeps.wavelength.total_area_m2 must be"),
            ("element_ratio: 0.3333333333333333", "element_ratio: -1.0",
             "sweeps.wavelength.element_ratio must be"),
            # an element side so small that the grid side overflows
            ("max_m: 0.0286\n    octaves: 1.0\n    points: 25\n"
             "    element_ratio: 0.3333333333333333",
             "max_m: 1.0e-20\n    octaves: 1.0\n    points: 25\n"
             "    element_ratio: 1.0e-300",
             "sweeps.wavelength.element_ratio * sweeps.wavelength.max_m "
             "(1e-300 * 1e-20 m): the element side is too small for a "
             "finite grid"),
            # a grid side that is finite but fits no 64-bit integer, so
            # that its element count would not fit in a float
            ("max_m: 0.0286\n    octaves: 1.0\n    points: 25\n"
             "    element_ratio: 0.3333333333333333",
             "max_m: 1.0e-7\n    octaves: 1.0\n    points: 25\n"
             "    element_ratio: 1.0e-300",
             "sweeps.wavelength.element_ratio * sweeps.wavelength.max_m "
             "(1e-300 * 1e-07 m): the element side is too small"),
            # the same rule at the shortest wavelength, max_m / 2**octaves,
            # and an octave count whose 2**octaves overflows a float
            ("octaves: 1.0", "octaves: 56.0",
             "sweeps.wavelength.max_m / 2**sweeps.wavelength.octaves "
             "(0.3333333333333333 * 3.9690473130349347e-19 m)"),
            ("octaves: 1.0", "octaves: 1000.0",
             "sweeps.wavelength.max_m / 2**sweeps.wavelength.octaves "
             "(0.3333333333333333 * 2.669133948919206e-303 m)"),
            ("octaves: 1.0", "octaves: 1074.0",
             "sweeps.wavelength.octaves is too large"),
            ("antennas: 16", "antennas: true",
             "transmitter.antennas must be a number"),
            # dB values whose linear value overflows a float
            ("gain_db: 9.03", "gain_db: 5000.0", "ris.gain_db is too large"),
            ("tx_power_dbm: 0.0", "tx_power_dbm: 5000.0",
             "radio.tx_power_dbm is too large"),
            # reversed or empty sweep ranges
            ("max_m: 200.0", "max_m: 10.0",
             "sweeps.distance.max_m must be > sweeps.distance.min_m"),
            ("max_m: 200.0", "max_m: 20.0",
             "sweeps.distance.max_m must be > sweeps.distance.min_m"),
            ("x_max_m: 250.0", "x_max_m: -100.0",
             "sweeps.plane.x_max_m must be > sweeps.plane.x_min_m"),
            ("y_max_m: 120.0", "y_max_m: 0.0",
             "sweeps.plane.y_max_m must be > sweeps.plane.y_min_m")):
        assert text.count(old) == 1
        profile = tmp_path / "value.yaml"
        profile.write_text(text.replace(old, new))
        out = tmp_path / "value_out"
        capsys.readouterr()
        assert main(["solve", "--config", str(profile),
                     "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()


def test_emit_csv_format_and_sidecar(tmp_path):
    result = SweepResult(kind="line",
                         columns={"a": np.array([1.0, 2.0, np.nan, -0.0]),
                                  "b": np.array([0.123456789123, -np.inf,
                                                 np.inf, 1e21]),
                                  "n": np.array([3, 4, 5, -6]),
                                  "s": ["w", "x", "y", "z"]},
                         meta={"experiment": "demo", "config_hash": "x" * 64,
                               "tool": "rislink", "version": "1.0.0"})
    path = emit_csv(result, tmp_path / "demo.csv")
    text = path.read_text()
    assert text.split("\n") == ["a,b,n,s", "1,0.123456789,3,w",
                                 "2,-inf,4,x", "nan,inf,5,y",
                                 "-0,1e+21,-6,z", ""]
    meta = json.loads((tmp_path / "demo.csv.meta.json").read_text())
    assert meta["rows"] == 4
    assert meta["config_hash"] == "x" * 64
    assert "timestamp" not in meta
    # rows are written in blocks; a table spanning several blocks reads the
    # same as the cells formatted one by one
    x = np.random.default_rng(3).standard_normal(10_001) * 1e3
    k = np.arange(10_001)
    emit_csv(SweepResult(kind="line", columns={"x": x, "k": k}),
             tmp_path / "long.csv")
    want = "".join(f"{format(a, '.9g')},{b}\n"
                   for a, b in zip(x.tolist(), k.tolist()))
    assert (tmp_path / "long.csv").read_text() == "x,k\n" + want


def test_emit_csv_repeated_values_read_like_single_cells(tmp_path):
    """Columns that repeat their values within a block, columns of distinct
    values and a column that changes from one to the other at a block
    boundary read byte for byte like their cells formatted one by one,
    special floats included, and a block holding both 0.0 and -0.0 writes
    0 and -0."""
    rng = np.random.default_rng(8)
    n = 2 * _BLOCK_ROWS + 1000
    special = np.array([0.0, -0.0, np.nan, np.copysign(np.nan, -1), np.inf,
                        -np.inf, 1.5, -2.25e-7, 1 / 3])
    repeated = special[rng.integers(0, len(special), n)]
    distinct = rng.standard_normal(n) * 1e3
    # one value through the first block, every value distinct after it
    mixed = np.where(np.arange(n) < _BLOCK_ROWS, 7.25, distinct[::-1])
    k = rng.integers(-3, 4, n)
    emit_csv(SweepResult(kind="line", columns={"r": repeated, "d": distinct,
                                               "m": mixed, "k": k}),
             tmp_path / "rep.csv")
    want = "".join(f"{format(r, '.9g')},{format(d, '.9g')},"
                   f"{format(m, '.9g')},{'%d' % c}\n"
                   for r, d, m, c in zip(repeated.tolist(), distinct.tolist(),
                                         mixed.tolist(), k.tolist()))
    text = (tmp_path / "rep.csv").read_text()
    assert text == "r,d,m,k\n" + want
    first_block = {line.split(",")[0]
                   for line in text.split("\n")[1:1 + _BLOCK_ROWS]}
    assert {"0", "-0", "nan", "inf", "-inf"} <= first_block


# the values a column of distinct values must write as `%` does
_DISTINCT_SPECIALS = [0.0, -0.0, np.nan, np.inf, -np.inf, 100000000.5,
                      5e-324, -5e-324, -1.7976931348623157e308,
                      -1.23456789e-100]


def _percent_rows(columns: dict) -> str:
    """The CSV text of columns formatted cell by cell with `%`."""
    cells = [np.ravel(col).tolist() for col in columns.values()]
    formats = ["%d" if np.asarray(col).dtype.kind == "i" else "%.9g"
               for col in columns.values()]
    return ",".join(columns) + "\n" + "".join(
        ",".join(f % v for f, v in zip(formats, row)) + "\n"
        for row in zip(*cells))


def _first_difference(got: str, want: str):
    """None when the texts are equal, else the first line where they
    differ, as (line number, got, want): a short report of a long file."""
    if got == want:
        return None
    pairs = zip(got.split("\n") + [None], want.split("\n") + [None])
    return next((i, a, b) for i, (a, b) in enumerate(pairs) if a != b)


@pytest.mark.parametrize("order", [("y", "d", "x"), ("x", "c", "d", "k", "y"),
                                   ("d", "y", "x", "c"), ("c", "x")])
def test_emit_csv_distinct_values_read_like_single_cells(order, tmp_path):
    """Broadcast axes and one-valued columns of a grid, holding 0, -0, nan,
    +-inf, 100000000.5, +-5e-324 and the 16-character texts of negative
    values with a 3-digit exponent, read cell for cell as `%` in the first,
    a middle and the last column, across block boundaries and in the
    partial last block."""
    rng = np.random.default_rng(32)
    xs = np.array(_DISTINCT_SPECIALS + [1.5, -2.25e-7])
    step = _BLOCK_ROWS // len(xs)    # grid rows per block
    ys = rng.standard_normal(2 * step + 90) * 1e3
    # the specials at both sides of each block boundary and in the last,
    # partial block
    at = [0, step - 1, step, 2 * step - 1, 2 * step, len(ys) - 1,
          len(ys) - 2, 1, step + 1, len(ys) - 3]
    ys[at] = _DISTINCT_SPECIALS
    x, y = np.meshgrid(xs, ys, copy=False)
    for v in _DISTINCT_SPECIALS:
        # and in the dense column, first and last in each of those grid rows
        d = rng.standard_normal(x.shape) * 1e-3
        d[at, 0] = _DISTINCT_SPECIALS
        d[at, -1] = _DISTINCT_SPECIALS[::-1]
        grid = {"x": x, "y": y, "c": np.broadcast_to(v, x.shape), "d": d,
                "k": rng.integers(-9, 10, x.shape)}
        result = SweepResult(kind="heatmap",
                             columns={name: grid[name] for name in order})
        path = emit_csv(result, tmp_path / "grid.csv")
        assert _first_difference(path.read_text(),
                                 _percent_rows(result.columns)) is None
        assert json.loads(path.with_suffix(".csv.meta.json").read_text()) == {
            "rows": x.size}
    # one-valued 1-D columns beside a dense one, over three blocks
    n = 2 * _BLOCK_ROWS + 100
    for v in _DISTINCT_SPECIALS:
        columns = {"c": np.broadcast_to(v, (n,)), "d": rng.standard_normal(n),
                   "e": np.broadcast_to(-v, (n,))}
        emit_csv(SweepResult(kind="line", columns=columns),
                 tmp_path / "line.csv")
        assert _first_difference((tmp_path / "line.csv").read_text(),
                                 _percent_rows(columns)) is None


def test_emit_csv_int_and_str_cells(tmp_path):
    """Int cells read as `%d` up to the int64 limits and str cells as their
    UTF-8 bytes, the empty string included, in any column position."""
    ints = np.array([0, -1, 7, 2**63 - 1, -2**63])
    names = ["a", "", "é-ü", "longer than eight bytes", "z"]
    emit_csv(SweepResult(kind="bar",
                         columns={"s": names, "k": ints,
                                  "x": np.full(5, 0.5), "t": names}),
             tmp_path / "mixed.csv")
    want = "".join(f"{s},{'%d' % k},0.5,{s}\n"
                   for s, k in zip(names, ints.tolist()))
    assert ((tmp_path / "mixed.csv").read_bytes()
            == ("s,k,x,t\n" + want).encode("utf-8"))


# values where `%.9g` rounds a tie, carries into the next power of ten,
# leaves the kernel's exact-scaling range, is not a finite nonzero number or
# takes 16 characters (a negative value with a 3-digit exponent), and
# near-ties whose scaled mantissa rounds to exactly x.5 although the exact
# value does not lie on the tie
_FORMAT_EDGES = [0.0, -0.0, np.copysign(np.nan, -1), np.inf, -np.inf, 5e-324,
                 1.7976931348623157e308, -5e-324, -1.7976931348623157e308,
                 -1.23456789e-100, 0.0001, 9.9999999995e-05,
                 9.99999999949e-05, 100000000.5, 999999999.5, 1e22, 1e23,
                 6.123234e-17, 0.009815713415, 0.001407476745, 4.006019415,
                 787.3875305, 792320.4065, 9.074924195e-07]


def _kernel_cells(x: np.ndarray) -> list:
    """The kernel's text of each float of x, with its separator, or None
    where it leaves the cell to `%`, from fields of the kernel's width."""
    words = np.zeros((len(x), _FIELD_WORDS), "<u8")
    slow = _float_fields(x, words, ord(","))
    raw = words.view(np.uint8)
    return [None if s else bytes(row[row != 0]) for s, row in zip(slow, raw)]


@settings(max_examples=200, deadline=None)
@given(floats=st.lists(st.floats(), max_size=64),
       bits=st.lists(st.integers(0, 2**64 - 1), max_size=64))
@example(floats=_FORMAT_EDGES, bits=[])
@example(floats=[], bits=[0xFFF8000000000001, 0x0000000000000001,
                          0x000FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF])
def test_float_kernel_matches_percent_format(floats, bits):
    """Every float cell the kernel writes is `'%.9g' % v` byte for byte, and
    a block with the cells it leaves to `%` reads like the cells formatted
    one by one."""
    x = np.concatenate([np.array(floats, dtype=float),
                        np.array(bits, dtype=np.uint64).view(np.float64)])
    if not len(x):
        return
    want = [b"%.9g" % v for v in x.tolist()]
    for got, cell in zip(_kernel_cells(x), want):
        assert got is None or got == cell + b","
    assert bytes(_block_bytes([x])) == b"".join(c + b"\n" for c in want)


@pytest.fixture(scope="module")
def plane_map():
    """The benchmark's plane map: sweep-plane --direct-link --grid 201."""
    return sweep_plane(load_config(direct_link=True, grid_override=201))


def test_emit_csv_plane_map_reads_like_single_cells(plane_map, tmp_path):
    """The 40 401-row map, 10 blocks of _BLOCK_ROWS rows (the writer's
    blocks are 11 of whole grid rows), reads cell for cell as `%`, and the
    kernel leaves only its zero cells to `%`."""
    assert len(plane_map) == 40_401
    assert -(-len(plane_map) // _BLOCK_ROWS) == 10
    path = emit_csv(plane_map, tmp_path / "plane.csv")
    columns = [np.ravel(col).tolist() for col in plane_map.columns.values()]
    template = ",".join(["%.9g"] * len(columns)) + "\n"
    want = "".join(template % row for row in zip(*columns))
    assert path.read_text() == ",".join(plane_map.header) + "\n" + want
    for col in map(np.ravel, plane_map.columns.values()):
        cells = _kernel_cells(col)
        assert [c is None for c in cells] == (col == 0).tolist()


def test_emit_csv_memory_stays_block_bounded(plane_map, tmp_path):
    """The writer holds one block's text at a time: its traced peak on the
    plane map stays below the size of the CSV it writes."""
    tracemalloc.start()
    try:
        path = emit_csv(plane_map, tmp_path / "plane.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size == 2_339_060
    assert peak < size


def test_emit_csv_empty_and_mismatched(tmp_path):
    empty = SweepResult(kind="line", columns={"a": np.array([])})
    path = emit_csv(empty, tmp_path / "empty.csv")
    assert path.read_text() == "a\n"
    # a grid whose trailing axis is empty has no rows either
    grid = SweepResult(kind="heatmap", columns={"a": np.zeros((3, 0))})
    path = emit_csv(grid, tmp_path / "grid.csv")
    assert path.read_text() == "a\n"
    assert json.loads(path.with_suffix(".csv.meta.json").read_text()) == {
        "rows": 0}
    for columns in ({"a": np.array([1.0]), "b": np.array([1.0, 2.0])},
                    {"a": np.array([True])}):
        with pytest.raises(ValueError):
            emit_csv(SweepResult(kind="line", columns=columns),
                     tmp_path / "bad.csv")


def _empty_columns(*names):
    return dict.fromkeys(names, np.empty(0))


def test_emit_plot_scripts(tmp_path):
    line = SweepResult(kind="line",
                       columns={"d_m": np.array([1.0]),
                                "p_w": np.array([2.0]),
                                "p_dbm": np.array([3.0])})
    gp = emit_plot_script(line, tmp_path / "line.csv", tmp_path / "line.gp")
    text = gp.read_text()
    assert "set logscale y" in text
    assert "using 1:2" in text
    heat = SweepResult(kind="heatmap",
                       columns=_empty_columns("x_m", "y_m", "ris_dbm"))
    text = emit_plot_script(heat, tmp_path / "h.csv",
                            tmp_path / "h.gp").read_text()
    assert "set view map" in text
    rob = SweepResult(kind="robustness",
                      columns=_empty_columns("x_m", "y_m", "deviation", "e",
                                             "i"))
    text = emit_plot_script(rob, tmp_path / "r.csv",
                            tmp_path / "r.gp").read_text()
    assert "levels discrete 0.1" in text
    with pytest.raises(ValueError):
        emit_plot_script(SweepResult(kind="mystery",
                                     columns=_empty_columns("a")),
                         tmp_path / "m.csv", tmp_path / "m.gp")


# the default sweep-wavelength's 9 m^2 panels fail the far-field check
@pytest.mark.filterwarnings(_NEAR_FIELD_IGNORED)
def test_no_plot_script_has_an_empty_plot(tmp_path):
    commands = [["solve"], ["solve", "--direct-link"], ["sweep-distance"],
                ["sweep-plane"], ["sweep-plane", "--direct-link"],
                ["sweep-wavelength"], ["robustness"]]
    for i, args in enumerate(commands):
        out = tmp_path / str(i)
        assert main(args + ["--grid", "3", "--out", str(out)]) == 0
        script = (out / (args[0].replace("-", "_") + ".gp")).read_text()
        plots = [ln.split() for ln in script.splitlines()
                 if ln.split()[:1] in (["plot"], ["splot"])]
        assert len(plots) == 1, args
        assert len(plots[0]) > 1, args


def test_single_version_source():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text())
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    assert (meta["tool"]["setuptools"]["dynamic"]["version"]
            == {"attr": "rislink.__version__"})


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["solve", "--out", str(tmp_path / "a")]) == 0
    assert (tmp_path / "a" / "solve.csv").is_file()
    assert (tmp_path / "a" / "solve.csv.meta.json").is_file()
    assert (tmp_path / "a" / "solve.gp").is_file()
    missing = str(tmp_path / "nope.yaml")
    assert main(["solve", "--config", missing]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_sweep_distance_strict_far_field(tmp_path):
    """`sweep-distance` runs on the exact channel, which assumes no far
    field: under --strict-far-field it records validity rather than
    raising.  The 100 x 100 panel fails the check at every distance, so
    the run exits 0 with far_field_ok = 0 on every row and the CSV of the
    run without the flag."""
    args = ["sweep-distance", "--paper-scale", "--grid", "5"]
    assert main(args + ["--strict-far-field",
                        "--out", str(tmp_path / "strict")]) == 0
    assert main(args + ["--out", str(tmp_path / "loose")]) == 0
    strict = (tmp_path / "strict" / "sweep_distance.csv").read_text()
    lines = strict.strip().split("\n")
    col = lines[0].split(",").index("far_field_ok")
    assert [ln.split(",")[col] for ln in lines[1:]] == ["0"] * 5
    assert strict == (tmp_path / "loose" / "sweep_distance.csv").read_text()


def test_cli_solve_strict_far_field(tmp_path):
    """The closed-form and SVD designs of `solve` run on the exact channel
    and no far-field check: --strict-far-field exits 0 and writes the CSV of
    the run without the flag."""
    assert main(["solve", "--strict-far-field",
                 "--out", str(tmp_path / "strict")]) == 0
    assert main(["solve", "--out", str(tmp_path / "loose")]) == 0
    assert ((tmp_path / "strict" / "solve.csv").read_bytes()
            == (tmp_path / "loose" / "solve.csv").read_bytes())


def test_cli_solve_direct_link_applies_far_field_mode(tmp_path, capsys):
    """The two-path design of `solve --paper-scale --direct-link` runs on a
    scene that fails the far-field conditions (the 100 x 100 panel needs
    283 m, it is 200 m from T and R): --strict-far-field exits 2 and
    writes nothing, the bundled `warn` warns once, and a profile's `off`
    warns nothing and writes the CSV of the `warn` run."""
    argv = ["solve", "--paper-scale", "--direct-link"]
    strict = tmp_path / "strict"
    assert main([*argv, "--strict-far-field", "--out", str(strict)]) == 2
    assert "far-field conditions fail" in capsys.readouterr().err
    assert not strict.exists()
    from rislink.config import default_config_text
    off = tmp_path / "off.yaml"
    off.write_text(default_config_text().replace("far_field_mode: warn",
                                                 "far_field_mode: off"))
    csv = {}
    for mode, flags, count in (("warn", [], 1),
                               ("off", ["--config", str(off)], 0)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, *flags, "--out", str(tmp_path / mode)]) == 0
        assert [w.category for w in caught] == [FarFieldWarning] * count
        csv[mode] = (tmp_path / mode / "solve.csv").read_bytes()
    assert csv["off"] == csv["warn"]


# every study that evaluates the far-field model, at a scale where its
# check fails and at one where it passes: the command line, the
# sweeps.wavelength.total_area_m2 of its profile, and how many poses of
# the whole study fail
_FAR_FIELD_STUDIES = {
    "robustness-paper": (["robustness", "--paper-scale"], 9.0, 9),
    "robustness": (["robustness"], 9.0, 0),
    "sweep-plane-paper": (["sweep-plane", "--paper-scale"], 9.0, 9),
    "sweep-plane": (["sweep-plane", "--direct-link"], 9.0, 0),
    "sweep-wavelength": (["sweep-wavelength"], 9.0, 3),
    "sweep-wavelength-0.1m2": (["sweep-wavelength"], 0.1, 0),
    "solve-paper": (["solve", "--paper-scale", "--direct-link"], 9.0, 1),
    "solve": (["solve", "--direct-link"], 9.0, 0),
}


@pytest.mark.parametrize("mode", ["warn", "strict", "off"])
@pytest.mark.parametrize("study", list(_FAR_FIELD_STUDIES))
def test_far_field_policy_across_studies(study, mode, tmp_path, capsys):
    """One far-field policy for every study that evaluates the far-field
    model.  Where the check fails, --strict-far-field exits 2, names the
    failing poses of the whole study and writes nothing, the profile's
    `warn` warns once and `off` not at all; where it passes, no mode
    warns.  Every run that succeeds writes the CSV of the `off` run.  The
    100 x 100 panel needs 283 m, and the plane lies 80 m below T and R;
    each fixed-area 9 m^2 panel of the wavelength sweep fails at R'."""
    argv, area, failing = _FAR_FIELD_STUDIES[study]
    text = default_config_text().replace("total_area_m2: 9.0",
                                         f"total_area_m2: {area}")
    runs = {}
    for name in dict.fromkeys(("off", mode)):
        profile = tmp_path / f"{name}.yaml"
        profile.write_text(text.replace(
            "far_field_mode: warn",
            f"far_field_mode: {'off' if name == 'off' else 'warn'}"))
        flags = ["--strict-far-field"] if name == "strict" else []
        out = tmp_path / name
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([*argv, "--grid", "3", "--config", str(profile),
                       *flags, "--out", str(out)])
        runs[name] = (rc, [w.category for w in caught],
                      capsys.readouterr().err, out)
    rc, caught, err, out = runs[mode]
    if mode == "strict" and failing:
        count = f" at {failing} of {failing} poses" if failing > 1 else ""
        assert rc == 2
        assert f"far-field conditions fail{count}: ratios (" in err
        assert caught == []
        assert not out.exists()
        return
    assert rc == 0
    assert caught == [FarFieldWarning] * (mode == "warn" and failing > 0)
    assert runs["off"][:2] == (0, [])
    csv = argv[0].replace("-", "_") + ".csv"
    assert (out / csv).read_bytes() == (tmp_path / "off" / csv).read_bytes()


def test_cli_sidecars_record_resolved_settings(tmp_path):
    """The sidecar records the panel grid, far-field mode and, where the
    study reads it, direct link that the flags resolve, so runs differing
    only in --paper-scale, --strict-far-field or --direct-link write
    different sidecars, while a rerun writes the same bytes."""
    runs = {"base": ["sweep-distance"], "again": ["sweep-distance"],
            "paper": ["sweep-distance", "--paper-scale"],
            "strict": ["sweep-distance", "--strict-far-field"],
            "solve": ["solve"], "direct": ["solve", "--direct-link"]}
    sidecars = {}
    for name, (command, *flags) in runs.items():
        out = tmp_path / name
        assert main([command, "--grid", "3", "--out", str(out),
                     *flags]) == 0
        stem = command.replace("-", "_")
        sidecars[name] = (out / f"{stem}.csv.meta.json").read_bytes()
    assert sidecars.pop("again") == sidecars["base"]
    assert len(set(sidecars.values())) == len(sidecars)
    meta = {name: json.loads(raw) for name, raw in sidecars.items()}
    assert (meta["base"]["ris_rows"], meta["base"]["ris_cols"]) == (20, 20)
    assert (meta["paper"]["ris_rows"], meta["paper"]["ris_cols"]) == (100,
                                                                      100)
    assert meta["base"]["far_field_mode"] == "warn"
    assert meta["strict"]["far_field_mode"] == "strict"
    assert (meta["solve"]["direct_link"], meta["direct"]["direct_link"]) == (
        False, True)
    assert "direct_link" not in meta["base"]


def test_wavelength_sidecar_names_no_profile_grid(tmp_path):
    """sweep-wavelength sizes its panels by the anti-decay rule (the CSV's
    rows and cols columns) and never reads the profile's panel grid, so
    --paper-scale changes neither its CSV nor its sidecar, which names no
    ris_rows or ris_cols."""
    files = {}
    for name, flags in (("base", []), ("paper", ["--paper-scale"])):
        out = tmp_path / name
        with pytest.warns(FarFieldWarning):
            assert main(["sweep-wavelength", "--grid", "3", "--out",
                         str(out), *flags]) == 0
        files[name] = [(out / f"sweep_wavelength{suffix}").read_bytes()
                       for suffix in (".csv", ".csv.meta.json")]
    assert files["paper"] == files["base"]
    meta = json.loads(files["base"][1])
    assert not {"ris_rows", "ris_cols"} & set(meta)


@pytest.mark.parametrize("command", ["sweep-distance", "sweep-wavelength",
                                     "robustness", "validate"])
def test_cli_rejects_direct_link_where_no_study_reads_it(command, tmp_path,
                                                         capsys):
    """Only solve and sweep-plane model the direct path; every other
    command rejects --direct-link and --no-direct-link as unknown flags
    (exit code 2) and writes nothing."""
    for flag in ("--direct-link", "--no-direct-link"):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}\n" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["--version"], ["-h"], ["robustness", "-h"]])
def test_cli_version_and_help_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(
        "rislink " if argv == ["--version"] else "usage: rislink")


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["--grid", "3"], "the following arguments are required: command"),
    (["sweep"], "argument command: invalid choice: 'sweep'"),
    (["solve", "robustness"], "unrecognized arguments: robustness"),
])
def test_cli_rejects_missing_or_unknown_command(argv, message, tmp_path,
                                                capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# the 100 x 100 panel fails robustness's far-field check
@pytest.mark.parametrize("command, flags", [
    pytest.param("robustness", ["--grid", "3", "--paper-scale"],
                 marks=pytest.mark.filterwarnings(_NEAR_FIELD_IGNORED)),
    ("sweep-plane", ["--direct-link", "--grid", "4"]),
    ("solve", ["--no-direct-link", "--strict-far-field"]),
])
def test_cli_options_before_the_command_act_as_after_it(command, flags,
                                                        tmp_path):
    """One parser reads the command and the options in any order: options
    before the command write the files of the same options after it."""
    after, before = tmp_path / "after", tmp_path / "before"
    assert main([command, *flags, "--out", str(after)]) == 0
    assert main([*flags, "--out", str(before), command]) == 0
    names = sorted(p.name for p in after.iterdir())
    assert names == sorted(p.name for p in before.iterdir())
    assert len(names) == 3
    for name in names:
        assert (after / name).read_bytes() == (before / name).read_bytes()


def test_cli_rejects_removed_seed_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_cli_validate_passes(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_solve_rows(tmp_path):
    main(["solve", "--out", str(tmp_path), "--direct-link"])
    lines = (tmp_path / "solve.csv").read_text().strip().split("\n")
    methods = [ln.split(",")[0] for ln in lines[1:]]
    assert methods == ["closed-form", "closed-form-two-path", "svd-projected",
                       "upper-bound"]


# the default sweep-wavelength's 9 m^2 panels fail the far-field check
@pytest.mark.parametrize("command", [
    "solve", "sweep-distance", "sweep-plane",
    pytest.param("sweep-wavelength",
                 marks=pytest.mark.filterwarnings(_NEAR_FIELD_IGNORED)),
    "robustness"])
def test_cli_reruns_are_byte_identical(command, tmp_path):
    args = [command, "--grid", "4"]
    assert main(args + ["--out", str(tmp_path / "one")]) == 0
    assert main(args + ["--out", str(tmp_path / "two")]) == 0
    name = command.replace("-", "_") + ".csv"
    a = (tmp_path / "one" / name).read_bytes()
    b = (tmp_path / "two" / name).read_bytes()
    assert a == b
    ma = (tmp_path / "one" / (name + ".meta.json")).read_bytes()
    mb = (tmp_path / "two" / (name + ".meta.json")).read_bytes()
    assert ma == mb


def test_cli_plane_sweep_row_count(tmp_path):
    assert main(["sweep-plane", "--grid", "5",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep_plane.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 25


def test_sweep_rows_respect_power_ordering(tmp_path):
    assert main(["sweep-distance", "--grid", "6",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep_distance.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    ic, isv, ib = (header.index(c) for c in ("closed_form_w", "svd_w",
                                             "upper_bound_w"))
    for ln in lines[1:]:
        vals = ln.split(",")
        closed, svd, bound = (float(vals[i]) for i in (ic, isv, ib))
        assert closed <= svd * (1 + 1e-9)
        assert svd <= bound * (1 + 1e-9)


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in
                                        (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    """Each demo exits 0 and prints, byte for byte, the output pinned in
    tests/demo_output/<name>.txt."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True,
                          timeout=120, stdin=subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr
    expected = Path(__file__).parent / "demo_output" / demo.replace(".py",
                                                                    ".txt")
    assert proc.stdout == expected.read_text()


def test_readme_quick_start_runs():
    """The first python block of README.md, its Quick start, runs as the
    demos do: exit code 0 and one line of output, a power in dBm."""
    text = (ROOT / "README.md").read_text()
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          stdin=subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and re.fullmatch(r"-?\d+\.\d\d dBm", lines[0])


def test_benchmark_trace_spans_resolve():
    """Every layer function the benchmark traces still exists under the name
    it traces, so `perfbench/run.py --trace 1` can install its spans."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in tracing.SPANS:
        assert callable(tracing._resolve(name)[2]), name
