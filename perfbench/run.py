"""Benchmark of the `rislink` CLI studies at paper scale.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
`src/`.  One run sets up, makes one warm-up pass, then repeats timed passes
of the workload for S seconds and checks every output.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`).  The workloads draw no random numbers, so `--seed` does
not change the inputs.

Every time is reported at the speed of a reference host (`hostspeed.py`):
the shared host's speed drifts by 20 % and more, and a small fixed kernel
sampled inside each pass cancels that drift.  The unscaled medians are
printed on standard error.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and every child it starts.  A second
# OpenBLAS thread doubled CPU time on a 2-CPU host with no gain in wall time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 15
SETUP_CODE = ("import rislink.cli\n"
              "from rislink.config import load_config\n"
              "load_config(None)\n")

from hostspeed import HostSpeed  # noqa: E402
from tracing import OVERHEAD, Tracer, metric_units  # noqa: E402
from workloads import build_workloads, check_op  # noqa: E402


class Run:
    """Operation counts and correctness of one benchmark run."""

    def __init__(self, workload, out: Path):
        self.workload = workload
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.rows = 0
        self.host = HostSpeed()
        self._reported: set[str] = set()

    def one_pass(self, cli) -> tuple[float, float, float]:
        """Run every command once; return the unscaled wall seconds and the
        (wall, cpu) seconds at the reference host's speed.  The output
        checks run after the timed region."""
        codes = []
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(io.StringIO()), self.host.sampling():
            for i, op in enumerate(self.workload.ops):
                try:
                    rc = cli.main([*op.argv, "--out", str(self.out / str(i))])
                except Exception:  # a crash fails the operation, not the run
                    traceback.print_exc()
                    rc = -1
                codes.append(rc)
        raw, cpu = time.perf_counter() - t0, time.process_time() - c0
        wall, cpu = self.host.scale(raw, cpu)
        self._check(codes)
        return raw, wall, cpu

    def _check(self, codes: list[int]) -> None:
        rows = 0
        for i, (op, rc) in enumerate(zip(self.workload.ops, codes)):
            problems, n = check_op(op, rc, self.out / str(i))
            rows += n
            self.attempted += 1
            if not problems:
                continue
            self.failed += 1
            known = op.known_fault is not None and all(
                check == op.known_fault[0] for check, _ in problems)
            self.correct &= known
            for check, msg in problems:
                note = f"{op.label}: {check}: {msg}"
                if known:
                    note += f" [known fault: {op.known_fault[1]}]"
                if note not in self._reported:
                    self._reported.add(note)
                    print(f"FAILED {note}", file=sys.stderr)
        self.rows = rows


def load_program():
    """Import the CLI from the checkout's sources; return it with the
    bundled profile as the checks read it."""
    sys.path.insert(0, str(SRC))
    import rislink.cli as cli
    from reference import load_profile
    return cli, load_profile(SRC / "rislink" / "data" / "default.yaml")


def setup_sample(host: HostSpeed) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to `rislink` imported with
    the profile loaded: unscaled, and scaled by kernel samples taken just
    before.  Kernel samples taken in the fresh interpreter itself scaled
    worse: a fresh process runs the kernel 30 % faster or slower than the
    next, and its imports do not follow."""
    factor = host.calibrate()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                   stdin=subprocess.DEVNULL)
    raw = time.perf_counter() - t0
    return raw, raw * factor


def timed_passes(run: Run, cli, seconds: float) -> dict[str, dict]:
    """Timed passes for about `seconds`, with the set-up samples spread
    over the same interval: host speed drifts over seconds, and samples
    taken in one burst would all see the same phase of it."""
    raw, walls, cpus, setups = [], [], [], []
    start = time.perf_counter()
    while True:
        unscaled, wall, cpu = run.one_pass(cli)
        raw.append(unscaled)
        walls.append(wall)
        cpus.append(cpu)
        elapsed = time.perf_counter() - start
        while len(setups) < min(SETUP_SAMPLES,
                                math.ceil(SETUP_SAMPLES * elapsed / seconds)):
            setups.append(setup_sample(run.host))
        if seconds - (time.perf_counter() - start) < raw[-1] / 2:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(run.host))
    wall = statistics.median(walls)
    print(f"{len(walls)} passes; unscaled medians: wall "
          f"{statistics.median(raw):.4f} s, set-up "
          f"{statistics.median(r for r, _ in setups):.4f} s", file=sys.stderr)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(s for _, s in setups),
                    "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "points_per_s": {"value": run.rows / wall, "unit": "1/s"},
        "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def traced_passes(run: Run, cli, seconds: float, trace_path: Path):
    """Alternate untraced and traced passes; per-layer medians per pass,
    each traced pass's self times scaled like its wall time."""
    tracer = Tracer()
    plain, traced, factors = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run.one_pass(cli)[1])
        tracer.install()
        try:
            tracer.begin_pass()
            unscaled, wall, _ = run.one_pass(cli)
            tracer.end_pass()
        finally:
            tracer.uninstall()
        traced.append(wall)
        # The kernel samples land in whichever span is open; this factor
        # takes their share out along with the host's drift.
        factors.append(wall / unscaled)
        left = seconds - (time.perf_counter() - start)
        if left < (plain[-1] + traced[-1]) / 2:
            break
    tracer.write(trace_path)
    rows = tracer.per_pass()
    units = metric_units()
    metrics = {}
    for name, (unit, _) in units.items():
        if name == OVERHEAD:
            value = statistics.median(traced) - statistics.median(plain)
        elif unit == "s":
            value = statistics.median(r[name] * f
                                      for r, f in zip(rows, factors))
        else:
            values = {r[name] for r in rows}
            if len(values) != 1:
                print(f"FAILED {name} differs between passes: {values}",
                      file=sys.stderr)
                run.correct = False
            value = rows[0][name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rislink" / "__init__.py").is_file():
        print(f"error: no rislink sources under {SRC}", file=sys.stderr)
        return 2
    cli, profile = load_program()
    workloads = build_workloads(profile)
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    run = Run(workloads[args.workload], out)
    run.one_pass(cli)   # warm-up: lazy imports, first allocations and writes
    if args.trace:
        metrics = traced_passes(
            run, cli, args.seconds,
            OUT / f"trace-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = timed_passes(run, cli, args.seconds)
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
