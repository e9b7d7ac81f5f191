"""Command-line front end: gain tables, simulations, sweeps, oracle checks, MC.

Exit codes are a stable contract: 0 success, 1 usage/config error, 2 protocol
failure, 3 resource/grid guard. Data files are deterministic for identical
inputs (the manifest, which `main` writes for every command, carries the only
timestamp and timings); numbers are written in shortest round-trip decimal form.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Iterable
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .dicke import Schedule, relative_gain
from .errors import ConfigError, GridGuardError, MemampError, ResourceGuardError
from .joint import ModeTruncation
from .metrics import QUALITY_FIELDS
from .oracle import MAX_FULL_ATOMS, VERIFY_TOL, verify_ladder
from .protocol import (
    CONFIG_FIELDS,
    STAGE_COLUMNS,
    ProtocolConfig,
    batch_key,
    field_value,
    monte_carlo,
    points_per_batch,
    run_batch,
    run_schedule,
)

#: Environment variable naming the default output directory.
OUT_DIR_ENV = "MEMAMP_OUT_DIR"

#: Maximum number of sweep grid points.
GRID_CAP = 1_000_000

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PROTOCOL = 2
EXIT_GUARD = 3

_SWEEP_AXES = {"p_w", "p_r", "beta_w", "beta_r", "n_atoms", "stages", "alpha"}


def _check_keys(keys) -> None:
    """A config's key set: known keys only, n_atoms among them."""
    unknown = set(keys).difference(CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    if "n_atoms" not in keys:
        raise ConfigError("n_atoms: required key is missing")


def config_from_dict(data: dict, **checked) -> ProtocolConfig:
    """Build a validated ProtocolConfig from parsed JSON: the root and its key
    set, then each value's own checks in declaration order (`field_value`,
    which decodes the JSON forms), then the cross-field checks. ``checked``
    holds fields already through `field_value` (a flag, ``--seed``); each
    replaces the file's value once that has passed its checks."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    _check_keys(data)
    values = {key: field_value(key, data[key]) for key in CONFIG_FIELDS if key in data}
    return ProtocolConfig.from_fields({**values, **checked})


def _read_json(path: str | Path):
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc


def parse_config(path: str | Path, **checked) -> ProtocolConfig:
    """Load and validate a JSON run configuration (`config_from_dict`)."""
    return config_from_dict(_read_json(path), **checked)


@dataclass(frozen=True)
class RunManifest:
    """Provenance record of a run, which each ``cmd_*`` returns and `main`
    writes beside its data files."""

    command: str
    seed: int | None
    config: dict | None
    outputs: list[str]
    #: wall seconds of the run's parts; kept here, out of the data files
    timings: dict[str, float] | None = None

    def write(self, out_dir: Path) -> None:
        payload = {name: getattr(self, name) for name in _MANIFEST_FIELDS}
        if self.timings is None:
            del payload["timings"]
        payload["tool"] = "memamp"
        payload["version"] = __version__
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
        _write_json(out_dir / "manifest.json", payload)


_MANIFEST_FIELDS = tuple(f.name for f in dataclasses.fields(RunManifest))


@contextlib.contextmanager
def _rewritten(path: Path):
    """A descriptor that writes ``path`` from its start; on exit, raised or not,
    the file is cut where the writing stopped. It is not truncated on open:
    ext4 starts writeback on closing a file truncated to zero."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb", buffering=0) as raw:
        try:
            yield raw.fileno()
        finally:
            raw.truncate()


def _write_csv(path: Path, header: Iterable[str], rows: Iterable[list]) -> None:
    """Rows of cells as they are written: a bool already as JSON's
    true/false; the csv writer writes a float in its shortest round-trip form."""
    with _rewritten(path) as fd, open(fd, "w", newline="", closefd=False) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload) -> None:
    view = memoryview((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())
    with _rewritten(path) as fd:
        while view:
            view = view[os.write(fd, view):]


def _resolve_out_dir(arg: str | None) -> Path:
    if arg:
        out = Path(arg)
    else:
        out = Path(os.environ.get(OUT_DIR_ENV, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _checked_flags(args: argparse.Namespace) -> dict:
    """The config fields a command's flags set, ``--seed`` as rng_seed, each
    through `field_value`: checked before the config file is read."""
    return {} if args.seed is None else {"rng_seed": field_value("rng_seed", args.seed)}


def cmd_gain(args: argparse.Namespace, out_dir: Path) -> tuple[int, RunManifest]:
    """Gain-vs-rounds table for both schedule types (plot-ready data)."""
    n_atoms, n_max = args.n_atoms, args.n_max
    if n_max < 0:
        raise ConfigError(f"n_max must be >= 0, got {n_max}")
    if n_atoms < n_max + 2:
        raise ConfigError(
            f"n_atoms = {n_atoms} below n_max + 2 = {n_max + 2} (headroom)"
        )
    rows = []
    for n in range(n_max + 1):
        try:
            rows.append([n, relative_gain(Schedule.TYPE_I, n, n_atoms),
                         relative_gain(Schedule.TYPE_II, n, n_atoms)])
        except OverflowError as exc:  # eta(1)^n beyond the float range
            raise ConfigError(f"gain_type1 overflows a float at n = {n}: {exc}") from exc
    csv_path = out_dir / "gain.csv"
    _write_csv(csv_path, ["n", "gain_type1", "gain_type2"], rows)
    config = {"n_atoms": n_atoms, "n_max": n_max}
    return EXIT_OK, RunManifest(args.command, None, config, [csv_path.name])


def cmd_simulate(args: argparse.Namespace, out_dir: Path) -> tuple[int, RunManifest]:
    """Run the configured schedule; write report JSON and stage CSV."""
    config = parse_config(args.config, **_checked_flags(args))
    report = run_schedule(config)
    report_path = out_dir / "report.json"
    stages_path = out_dir / "stages.csv"
    _write_json(report_path, report.to_dict())
    rows = [r.to_row() for r in report.stages]
    cells = [dict(row, failed=json.dumps(row["failed"])).values() for row in rows]
    _write_csv(stages_path, STAGE_COLUMNS, cells)
    manifest = RunManifest(args.command, config.rng_seed, config.to_dict(),
                           [report_path.name, stages_path.name])
    if not report.succeeded:
        print(f"simulation failed: {report.failure_reason}", file=sys.stderr)
        return EXIT_PROTOCOL, manifest
    return EXIT_OK, manifest


def _load_sweep_spec(path: str | Path) -> tuple[dict, dict]:
    """The spec's base and axes, after the checks of its shape: the root,
    ``base``, ``axes``, each axis and the key set of the base and axes."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ConfigError("sweep config root must be an object")
    if set(data) - {"base", "axes"}:
        raise ConfigError("sweep config must contain only 'base' and 'axes'")
    if "base" not in data or "axes" not in data:
        raise ConfigError("sweep config needs both 'base' and 'axes'")
    base, axes = data["base"], data["axes"]
    if not isinstance(base, dict):
        raise ConfigError("base: expected an object")
    if not isinstance(axes, dict) or not axes:
        raise ConfigError("axes: expected a nonempty object of key -> values")
    for key, values in axes.items():
        if key not in _SWEEP_AXES:
            raise ConfigError(
                f"axes.{key}: not sweepable (allowed: {', '.join(sorted(_SWEEP_AXES))})"
            )
        if not isinstance(values, list):
            raise ConfigError(f"axes.{key}: expected a list of values")
        if len(values) == 0:
            raise GridGuardError(f"axes.{key}: empty axis")
    _check_keys({**base, **axes})
    return base, axes


def _grid_points(axes: dict) -> list[tuple]:
    """Each grid point's axis values, row-major in the file's axis order."""
    if math.prod(len(values) for values in axes.values()) > GRID_CAP:
        raise GridGuardError(f"sweep grid exceeds cap of {GRID_CAP} points")
    return list(itertools.product(*axes.values()))


def _value_or_error(key: str, value):
    """``value`` as field ``key`` stores it (`field_value`), or the ConfigError
    that field's own checks raise."""
    try:
        return field_value(key, value)
    except ConfigError as exc:
        return exc


def _sweep_configs(base: dict, axes: dict, **checked) -> list:
    """Each grid point's config, or the ConfigError that `config_from_dict` of
    the point with ``checked`` raises. Each base value that no axis overrides
    and each axis entry, by its place in its axis (1, 1.0 and true differ), is
    checked once. ``checked`` holds fields already through `field_value`
    (``--seed``, never an axis); each replaces a base value that passed. A
    point whose values all passed runs only the cross-field checks; one with
    a failed value gets the first in declaration order."""
    fixed = {key: _value_or_error(key, value) for key, value in base.items()
             if key not in axes}
    fixed.update((key, value) for key, value in checked.items()
                 if not isinstance(fixed.get(key), ConfigError))
    entries = [[_value_or_error(key, v) for v in values] for key, values in axes.items()]
    failed = any(isinstance(v, ConfigError)
                 for v in itertools.chain(fixed.values(), *entries))
    configs = []
    for point in itertools.product(*entries):
        values = fixed.copy()
        values.update(zip(axes, point))
        # the point's first failed value, looked for only if a value failed
        error = failed and next((values[key] for key in CONFIG_FIELDS
                                 if isinstance(values.get(key), ConfigError)), None)
        try:
            configs.append(error or ProtocolConfig.from_fields(values))
        except ConfigError as exc:
            configs.append(exc)
    return configs


def _failed_cells(error: Exception | None) -> list:
    """NaN values, succeeded false and the error, if any, of a failed point."""
    message = "" if error is None else f"{type(error).__name__}: {error}"
    return [float("nan")] * (len(QUALITY_FIELDS) + 1) + ["false", message]


_GAIN = QUALITY_FIELDS.index("gain")


def _sweep_batch(batch: tuple[list[ProtocolConfig], ModeTruncation]) -> list[list]:
    """Quality cells of each point of a batch (its configs and the truncation
    they evolve on), then gain_squared, succeeded and error; a run error is
    kept in the ``error`` cell."""
    cells = []
    for row, error in run_batch(*batch):
        if row is None:
            cells.append(_failed_cells(error))
        else:
            cells.append([*row, row[_GAIN] ** 2, "true", ""])
    return cells


def _sweep_cells(configs: list, jobs: int) -> list[list]:
    """Every point's cells, in grid order, from its config or its ConfigError
    (`_sweep_configs`). The points of one `batch_key` run in batches of
    `points_per_batch`. A point whose config failed its checks fails alone,
    as does one whose truncation is over the dimension cap or below its
    schedule's excitation reach: its row keeps the error."""
    cells = [[]] * len(configs)
    groups: dict[tuple, list[int]] = {}
    for index, config in enumerate(configs):
        if isinstance(config, ConfigError):
            cells[index] = _failed_cells(config)
            continue
        try:
            key = batch_key(config)
        except (ConfigError, ResourceGuardError) as exc:
            cells[index] = _failed_cells(exc)
            continue
        groups.setdefault(key, []).append(index)
    batches, work = [], []
    for key, members in groups.items():
        truncation = key[-1]  # the one the batch evolves on
        size = points_per_batch(key)
        for i in range(0, len(members), size):
            batches.append(members[i : i + size])
            work.append(([configs[j] for j in batches[-1]], truncation))
    # a pool forks all its workers up front, however few batches there are
    workers = min(jobs, len(work), os.cpu_count() or 1)
    if workers > 1:  # imported here: multiprocessing is slow to import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_batch, work, chunksize=4))
    else:
        done = [_sweep_batch(batch) for batch in work]
    for batch, rows in zip(batches, done):
        for index, row in zip(batch, rows):
            cells[index] = row
    return cells


def cmd_sweep(args: argparse.Namespace, out_dir: Path) -> tuple[int, RunManifest]:
    """Grid evaluation of the quality metrics over swept config keys.

    Every point is written. A point whose config failed a check or whose run
    raised gets NaN values and the error in its ``error`` column; a point
    whose herald failed gets NaN values and an empty ``error``. Either has
    ``succeeded`` false, and the sweep then exits EXIT_PROTOCOL.
    """
    if args.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {args.jobs}")
    flags = _checked_flags(args)
    base, axes = _load_sweep_spec(args.config)
    grid = _grid_points(axes)
    results = _sweep_cells(_sweep_configs(base, axes, **flags), args.jobs)
    header = list(axes) + list(QUALITY_FIELDS) + ["gain_squared", "succeeded", "error"]
    csv_path = out_dir / "sweep.csv"
    _write_csv(csv_path, header, ([*v, *cells] for v, cells in zip(grid, results)))
    manifest = RunManifest(args.command, args.seed, {"base": base, "axes": axes},
                           [csv_path.name])
    failed = sum(1 for cells in results if cells[-2] == "false")
    if failed:
        print(
            f"sweep: {failed} of {len(results)} points failed; see the succeeded "
            "and error columns",
            file=sys.stderr,
        )
        return EXIT_PROTOCOL, manifest
    return EXIT_OK, manifest


def cmd_oracle_check(args: argparse.Namespace, out_dir: Path) -> tuple[int, RunManifest]:
    """Brute-force ladder verification for every ensemble size up to n_max."""
    n_max = args.n_max
    if n_max > MAX_FULL_ATOMS:
        raise ResourceGuardError(
            f"oracle check capped at N = {MAX_FULL_ATOMS}, got {n_max}"
        )
    if n_max < 2:
        raise ConfigError(f"n_max must be >= 2, got {n_max}")
    reports, timings = [], {}
    for n in range(2, n_max + 1):
        started = time.perf_counter()
        reports.append(verify_ladder(n))
        timings[f"verify_ladder_n{n}"] = time.perf_counter() - started
    passed = all(r.passed for r in reports)
    json_path = out_dir / "oracle_check.json"
    _write_json(json_path, {"tolerance": VERIFY_TOL, "all_passed": passed,
                            "reports": [r.to_dict() for r in reports]})
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        print(
            f"N={report.n_atoms}: max deviation {report.max_deviation:.3e}, "
            f"max residual {report.max_residual:.3e} [{status}]"
        )
    manifest = RunManifest(args.command, None, {"n_max": n_max}, [json_path.name],
                           timings)
    return (EXIT_OK if passed else EXIT_PROTOCOL), manifest


def cmd_mc(args: argparse.Namespace, out_dir: Path) -> tuple[int, RunManifest]:
    """Seeded Monte Carlo over heralding outcomes."""
    config = parse_config(args.config, **_checked_flags(args))
    report = monte_carlo(config, args.trials)
    json_path = out_dir / "mc_report.json"
    _write_json(json_path, report.to_dict())
    return EXIT_OK, RunManifest(args.command, config.rng_seed, config.to_dict(),
                                [json_path.name])


def _flag(name: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser that declares one flag, for each command that takes it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(name, **kwargs)
    return parent


@functools.cache  # one parser per process: a parser is a cycle gc collects late
def _build_parser() -> argparse.ArgumentParser:
    """Each command's flags, in its usage order, and its route: the ``cmd_*``
    function `main` calls."""
    out, seed = _flag("--out", default=None), _flag("--seed", type=int, default=None)
    config = _flag("--config", required=True)
    n_max = _flag("--n-max", type=int, required=True)
    parser = argparse.ArgumentParser(
        prog="memamp",
        description="heralded amplification of stored weak coherent states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, summary, flags in [
        ("gain", cmd_gain, "gain-vs-rounds table for both schedules",
         [_flag("--n-atoms", type=int, required=True), n_max, out]),
        ("simulate", cmd_simulate, "run one schedule from a config file",
         [config, out, seed]),
        ("sweep", cmd_sweep, "grid evaluation of quality metrics",
         [config, out, seed, _flag("--jobs", type=int, default=1)]),
        ("oracle-check", cmd_oracle_check, "brute-force ladder verification",
         [n_max, out]),
        ("mc", cmd_mc, "Monte Carlo heralding trajectories",
         [config, _flag("--trials", type=int, required=True), seed, out,
          _flag("--jobs", type=int, default=1,
                help="accepted and ignored; all trials are sampled in-process")]),
    ]:
        sub.add_parser(name, help=summary, parents=flags).set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command. Its ``cmd_*`` route writes the data files and returns
    the exit code and the manifest record, which is written here; a command
    that raises writes no manifest, and keeps the data files it wrote."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        out_dir = _resolve_out_dir(args.out)
        code, manifest = args.run(args, out_dir)
        manifest.write(out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemampError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except OSError as exc:  # a config it cannot read, an output it cannot write
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
