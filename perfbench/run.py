"""Closed-loop benchmark of the memamp command line.

One client calls the real CLI in-process through ``memamp.cli.main``, one
iteration after another, in the fresh interpreter that runs this script, with
one BLAS thread (see ``BLAS_THREAD_VARIABLES``). Run it from the root of a
checkout; the package is imported from ``src/``:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads: sweep, exact, mc, oracle (see perfbench/NOTES.md).

``--trace 0`` reports the end-to-end metrics: median wall and CPU seconds per
iteration, the median set-up time of a fresh interpreter, the peak traced heap
of one iteration (its own pass, which also warms up) and the share of
operations that passed their checks. The three times are speed-calibrated:
each is scaled by how fast a fixed calibration kernel ran right after it (see
``speed_factor``), so they read as seconds at the reference machine's speed.
``--trace 1`` runs half the time untraced and half traced, and reports
per-layer metrics (perfbench/tracer.py), uncalibrated.

Standard output ends with two lines: ``perfbench {...}`` with the workload and
the environment, then the result object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

#: Set before numpy loads, and inherited by the set-up interpreters. Default
#: OpenBLAS threads on the workloads' small matrices stall for up to 15 ms a
#: call, at a rate set by the other tenants of a shared host; sweep iterations
#: then spread by 15-45% from run to run, too much to gate on.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))

import numpy  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: fresh interpreters started to time set-up; the median is reported
SETUP_REPEATS = 9

#: Median wall seconds of one calibration pass on the reference machine
#: (see NOTES.md); calibrated times are in its units.
CALIBRATION_S = 0.035
#: calibration passes after a measured interval fill this share of it (at
#: least one pass), so long iterations get as many passes as short ones
CALIBRATION_SHARE = 0.1
_CALIBRATION_MATRICES = [
    matrix + matrix.T
    for matrix in (numpy.random.default_rng(0).standard_normal((n, n)) for n in (120, 400))
]

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_mb": "MB",
    "ok_ratio": "ratio",
}


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, workload, codes: list[int]) -> None:
        for call, code in zip(workload.calls, codes):
            try:
                attempted, failures = call.check(code, call.out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                # unreadable output fails every operation, as a nonzero exit does
                attempted, failures = call.check(-1, call.out)
                failures[0] = f"{call.argv[0]} output unreadable: {exc!r}"
            self.attempted += attempted
            self.failed += len(failures)
            self.messages += failures[: 5 - len(self.messages)]


def calibration_pass() -> float:
    """Wall seconds of fixed work that does not involve memamp, of the kinds
    the workloads mix: a pure Python loop, dense eigh on a small (in cache)
    and a larger matrix, and sums over freshly allocated 8 MB arrays."""
    small, large = _CALIBRATION_MATRICES
    started = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    for _ in range(5):
        numpy.linalg.eigh(small)
    numpy.linalg.eigh(large)
    for _ in range(3):
        numpy.ones(1_000_000).sum()
    return time.perf_counter() - started


def speed_factor(measured_s: float) -> float:
    """CALIBRATION_S over the median calibration pass run right after an
    interval of measured_s seconds.

    The shared host runs this process up to 35% faster or slower for seconds
    to minutes at a time; a time multiplied by this factor cancels that drift
    and keeps every change to memamp's own cost.
    """
    passes = [calibration_pass()]
    while sum(passes) < CALIBRATION_SHARE * measured_s:
        passes.append(calibration_pass())
    return CALIBRATION_S / statistics.median(passes)


def run_iteration(cli, workload, calibrate: bool = False):
    """All calls of one iteration: wall and CPU seconds, uncalibrated wall
    seconds and exit codes. With `calibrate` each call's times are scaled by
    the speed factor measured right after it."""
    wall = cpu = raw_wall = 0.0
    codes = []
    for call in workload.calls:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            code = cli.main(list(call.argv))
        except Exception:  # an escaped traceback fails the call, not the run
            traceback.print_exc()
            code = -1
        call_cpu = time.process_time() - cpu0
        call_wall = time.perf_counter() - wall0
        factor = speed_factor(call_wall) if calibrate else 1.0
        wall += call_wall * factor
        cpu += call_cpu * factor
        raw_wall += call_wall
        codes.append(code)
    return wall, cpu, raw_wall, codes


def timed_loop(cli, workload, seconds: float, tally: Tally, tracer=None,
               calibrate: bool = False):
    """Iterations for `seconds`: lists of their wall, CPU and uncalibrated
    wall seconds."""
    walls, cpus, raw_walls = [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.iteration = len(walls)
        wall, cpu, raw_wall, codes = run_iteration(cli, workload, calibrate)
        walls.append(wall)
        cpus.append(cpu)
        raw_walls.append(raw_wall)
        tally.check(workload, codes)
    return walls, cpus, raw_walls


def measure_setup(workload) -> tuple[float, float]:
    """Median calibrated and raw seconds for a fresh interpreter to import
    memamp.cli and load the workload's configs."""
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import memamp.cli as cli\n"
        "for path in sys.argv[1:]:\n"
        "    with open(path) as handle:\n"
        "        data = json.load(handle)\n"
        "    cli.config_from_dict(data.get('base', data))\n"
    )
    argv = [sys.executable, "-c", code, *map(str, workload.configs)]
    times, calibrated = [], []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True)
        times.append(time.perf_counter() - started)
        calibrated.append(times[-1] * speed_factor(times[-1]))
    return statistics.median(calibrated), statistics.median(times)


def peak_mb(cli, workload, tally: Tally) -> float:
    tracemalloc.start()
    try:
        codes = run_iteration(cli, workload)[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tally.check(workload, codes)
    return peak / 1e6


def bytes_written(workload) -> int:
    return sum(
        path.stat().st_size for call in workload.calls for path in call.out.iterdir()
    )


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS library loaded by numpy, if it is one."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                line.split()[-1]
                for line in maps
                if "blas" in line.lower() and line.split()[-1].startswith("/")
            }
    except OSError:
        return None
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads", "openblas_get_num_threads")
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
    except OSError:
        return None
    return result.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "memamp").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    """What a result depends on besides the code; compare only equal ones."""
    import memamp

    try:
        blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": memamp.KERNEL_BACKEND,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
    }


def measure(cli, workload, seconds: float, trace: bool, seed: int, tally: Tally):
    """The run's metrics, iteration count and calibration figures."""
    if not trace:
        setup_s, raw_setup_s = measure_setup(workload)
        peak = peak_mb(cli, workload, tally)
        walls, cpus, raw_walls = timed_loop(cli, workload, seconds, tally, calibrate=True)
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": setup_s,
            "peak_mb": peak,
        }
        raw = {
            "uncalibrated_wall_s": statistics.median(raw_walls),
            "uncalibrated_setup_s": raw_setup_s,
            "speed_factor": statistics.median(w / r for w, r in zip(walls, raw_walls)),
        }
        return metrics, len(walls), raw

    tally.check(workload, run_iteration(cli, workload)[-1])  # warm-up
    plain, _, _ = timed_loop(cli, workload, seconds / 2, tally)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _, _ = timed_loop(cli, workload, seconds / 2, tally, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.summary(len(traced))
    metrics["cli.bytes_written"] = bytes_written(workload)
    metrics["trace.iteration_s"] = statistics.fmean(traced)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    tracer.write_spans(OUT / f"spans_{workload.name}_seed{seed}.csv")
    return metrics, len(plain) + len(traced), {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "memamp" / "__init__.py").is_file():
        print(f"perfbench: no memamp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import memamp.cli as cli

    work = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tally = Tally()
    try:
        workload = workloads.build(args.workload, args.seed, work)
        env = environment()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            metrics, iterations, raw = measure(
                cli, workload, args.seconds, bool(args.trace), args.seed, tally
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        units = {m["name"]: m["unit"] for m in tracing.per_layer_metrics()}
    else:
        metrics["ok_ratio"] = (tally.attempted - tally.failed) / tally.attempted
        units = END_TO_END

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={iterations}", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:14.6g} {unit}", file=sys.stderr)
    print(f"  {'fail_ratio':40s} {tally.failed / tally.attempted:14.6g} "
          f"({tally.failed} of {tally.attempted} operations)", file=sys.stderr)
    for name, value in raw.items():
        print(f"  {name:40s} {value:14.6g}", file=sys.stderr)
    for message in tally.messages:
        print(f"  check failed: {message}", file=sys.stderr)

    header = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "iterations": iterations,
              "calibration": raw, "env": env}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    print("perfbench " + json.dumps(header, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
