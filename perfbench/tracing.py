"""Spans around the public functions of each `rislink` layer.

`Tracer.install` replaces every binding of each traced function (the
defining module, every module that imported it by name, and dicts held in
module namespaces, such as the CLI's command table) with a wrapper that
records a span: name, start, end and parent span.  Spans are kept in flat
arrays in memory and written out once, when the run ends.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# Layer functions, as <module>.<attribute path> under `rislink`.
SPANS = (
    "geometry.element_positions", "geometry.antenna_positions",
    "geometry.link_angles", "geometry.far_field_check",
    "em.exact_channel", "em.farfield_channel", "em.direct_channel",
    "em.amplitude_gain_tir", "em.received_power", "em.ChannelSet.cascade",
    "solvers.closed_form_solution", "solvers.two_path_solution",
    "solvers.svd_solution", "solvers.power_upper_bound",
    "solvers.mrt_beamforming", "solvers.two_path_o",
    "solvers.two_path_power_closed_form",
    "placement.optimal_orientation",
    "experiments.specular_frame", "experiments.equilateral_scene",
    "experiments.analytic_point_power",
    "experiments.sweep_distance", "experiments.sweep_plane",
    "experiments.robustness", "experiments.solve",
    "output.emit_csv", "output.emit_plot_script",
    "config.load_config", "cli.main",
)
# Sizes computed at layer boundaries rather than timed.
DENSE_ENTRIES = "em.dense_channel_entries"   # sum of L*N over ChannelSets
CSV_BYTES = "output.csv_bytes"               # bytes of every CSV written
OVERHEAD = "trace.overhead_s"                # traced minus untraced wall_s


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.self_s"] = ("s", "lower")
    units[DENSE_ENTRIES] = ("count", "lower")
    units[CSV_BYTES] = ("bytes", "lower")
    units[OVERHEAD] = ("s", "lower")
    return units


def _resolve(spec: str):
    """(owner, attribute, function) for 'module.attr' or 'module.Class.attr'."""
    module, *path = spec.split(".")
    owner = importlib.import_module(f"rislink.{module}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1], getattr(owner, path[-1])


class Tracer:
    """Span recorder; `install` and `uninstall` switch tracing on and off."""

    def __init__(self):
        self.names = list(SPANS)
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters = {DENSE_ENTRIES: 0, CSV_BYTES: 0}
        self.passes: list[tuple[int, int, dict[str, int]]] = []
        self._patches: list[tuple[object, object, object]] = []
        self._pass_start: tuple[int, dict[str, int]] | None = None

    def _span(self, name_id: int, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.stack.pop()
        return traced

    def _patch(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "rislink" or n.startswith("rislink.")]
        for name_id, spec in enumerate(SPANS):
            owner, attr, fn = _resolve(spec)
            wrapper = self._span(name_id, fn)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is fn:
                                self._patch(value, k, wrapper)
        self._install_counters()

    def _install_counters(self) -> None:
        from rislink import cli, em
        counters = self.counters
        post_init = em.ChannelSet.__post_init__
        emit_csv = cli.emit_csv   # already the span wrapper

        def counted_post_init(channel_set):
            post_init(channel_set)
            counters[DENSE_ENTRIES] += channel_set.h_ti.size

        def counted_emit_csv(*args, **kwargs):
            path = emit_csv(*args, **kwargs)
            counters[CSV_BYTES] += os.path.getsize(path)
            return path
        self._patch(em.ChannelSet, "__post_init__", counted_post_init)
        self._patch(cli, "emit_csv", counted_emit_csv)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._patches.clear()

    def begin_pass(self) -> None:
        self._pass_start = (len(self.start), dict(self.counters))

    def end_pass(self) -> None:
        first, before = self._pass_start
        delta = {k: v - before[k] for k, v in self.counters.items()}
        self.passes.append((first, len(self.start), delta))

    def per_pass(self) -> list[dict[str, float]]:
        """Calls, self time and counters of each traced pass."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=len(dur))
        own = dur - covered
        results = []
        for first, last, counters in self.passes:
            ids = name[first:last]
            calls = np.bincount(ids, minlength=len(self.names))
            self_s = np.bincount(ids, weights=own[first:last],
                                 minlength=len(self.names))
            row: dict[str, float] = dict(counters)
            for i, spec in enumerate(self.names):
                row[f"{spec}.calls"] = int(calls[i])
                row[f"{spec}.self_s"] = float(self_s[i])
            results.append(row)
        return results

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 passes=np.array([(a, b) for a, b, _ in self.passes],
                                 dtype=np.int64).reshape(-1, 2))
