"""Command-line front end: gain tables, simulations, sweeps, oracle checks, MC.

Exit codes are a stable contract: 0 success, 1 usage/config error, 2 protocol
failure, 3 resource/grid guard. Data files are deterministic for identical
inputs (the manifest, which `main` writes for every command, carries the only
timestamp and timings); numbers are written in shortest round-trip decimal form.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import enum
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .dicke import Schedule, relative_gain
from .errors import ConfigError, GridGuardError, MemampError, ResourceGuardError
from .joint import TRUNCATION_FIELDS, ModeTruncation, is_real
from .metrics import QUALITY_FIELDS
from .oracle import MAX_FULL_ATOMS, VERIFY_TOL, verify_ladder
from .protocol import (
    CONFIG_FIELDS,
    ProtocolConfig,
    batch_key,
    batch_rows,
    field_value,
    monte_carlo,
    run_batch,
    run_schedule,
    to_number,
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

#: Config keys whose JSON string names a member of their default's enum.
_ENUM_KEYS = {
    f.name: type(f.default)
    for f in dataclasses.fields(ProtocolConfig)
    if isinstance(f.default, enum.Enum)
}


def _parse_alpha(value) -> complex:
    if is_real(value):
        return to_number("alpha", complex, value)
    pair = isinstance(value, (list, tuple)) and len(value) == 2
    if pair and all(map(is_real, value)):
        return complex(*[to_number("alpha", float, part) for part in value])
    raise ConfigError(f"alpha: expected a number or [re, im] pair, got {value!r}")


def _enum_from(enum_cls, value, key: str):
    for member in enum_cls:
        if member.value == value:
            return member
    options = ", ".join(m.value for m in enum_cls)
    raise ConfigError(f"{key}: expected one of {options}, got {value!r}")


def config_from_dict(data: dict) -> ProtocolConfig:
    """Build a validated ProtocolConfig from parsed JSON, rejecting unknown keys.

    Only the JSON forms are read here: enum names, the ``[re, im]`` alpha pair
    and the truncation object. ProtocolConfig checks every value's type and range.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    unknown = set(data).difference(CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    if "n_atoms" not in data:
        raise ConfigError("n_atoms: required key is missing")
    kwargs = dict(data)
    if "alpha" in data:
        kwargs["alpha"] = _parse_alpha(data["alpha"])
    for key, enum_cls in _ENUM_KEYS.items():
        if key in data:
            kwargs[key] = _enum_from(enum_cls, data[key], key)
    if "truncation" in data:
        tdata = data["truncation"]
        if not isinstance(tdata, dict):
            raise ConfigError("truncation: expected an object")
        unknown = set(tdata).difference(TRUNCATION_FIELDS)
        if unknown:
            raise ConfigError(
                f"unknown truncation key(s): {', '.join(sorted(unknown))}"
            )
        try:
            kwargs["truncation"] = ModeTruncation(**tdata)
        except ValueError as exc:
            raise ConfigError(f"truncation: {exc}") from exc
    try:
        return ProtocolConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _read_json(path: str | Path):
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc


def parse_config(path: str | Path) -> ProtocolConfig:
    """Load and validate a JSON run configuration."""
    return config_from_dict(_read_json(path))


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


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    """Rows of cells as they are written: a bool already as JSON's
    true/false; the csv writer writes a float in its shortest round-trip form."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _resolve_out_dir(arg: str | None) -> Path:
    if arg:
        out = Path(arg)
    else:
        out = Path(os.environ.get(OUT_DIR_ENV, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_config(args: argparse.Namespace) -> ProtocolConfig:
    """The config of ``--config``, with ``--seed`` as its rng_seed if given."""
    config = parse_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, rng_seed=args.seed)
    return config


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
    config = _run_config(args)
    report = run_schedule(config)
    report_path = out_dir / "report.json"
    stages_path = out_dir / "stages.csv"
    _write_json(report_path, report.to_dict())
    rows = [r.to_row() for r in report.stage_reports]
    cells = [dict(row, failed=json.dumps(row["failed"])).values() for row in rows]
    _write_csv(stages_path, list(rows[0]), cells)
    manifest = RunManifest(args.command, config.rng_seed, config.to_dict(),
                           [report_path.name, stages_path.name])
    if not report.succeeded:
        print(f"simulation failed: {report.failure_reason}", file=sys.stderr)
        return EXIT_PROTOCOL, manifest
    return EXIT_OK, manifest


def _load_sweep_spec(path: str | Path) -> tuple[dict, dict]:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ConfigError("sweep config root must be an object")
    if set(data) - {"base", "axes"}:
        raise ConfigError("sweep config must contain only 'base' and 'axes'")
    if "base" not in data or "axes" not in data:
        raise ConfigError("sweep config needs both 'base' and 'axes'")
    base = data["base"]
    axes = data["axes"]
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
    return base, axes


def _grid_points(axes: dict) -> list[tuple]:
    """Each grid point's axis values, row-major in the file's axis order."""
    if math.prod(len(values) for values in axes.values()) > GRID_CAP:
        raise GridGuardError(f"sweep grid exceeds cap of {GRID_CAP} points")
    return list(itertools.product(*axes.values()))


def _checked_entry(key: str, value):
    """An axis entry as its point's config stores it, after the checks of
    its own field (`protocol.field_value`), or None if one fails."""
    try:
        return field_value(key, _parse_alpha(value) if key == "alpha" else value)
    except ConfigError:
        return None


def _sweep_configs(base: dict, axes: dict, grid: list[tuple]) -> list[ProtocolConfig]:
    """Each grid point's config, equal to `config_from_dict` of the point. The
    first point is built in full. Each axis entry is checked once, by its
    place in its axis: 1, 1.0 and true are different entries. Every later
    point is derived from the first with its entries and only the cross-field
    checks, whose message is the full build's, as every field passed its own
    checks. A point with an entry that failed its own is built in full."""
    first = config_from_dict({**base, **dict(zip(axes, grid[0]))})
    entries = [[_checked_entry(key, v) for v in values] for key, values in axes.items()]
    configs = [first]
    for values, checked in itertools.islice(
        zip(grid, itertools.product(*entries)), 1, None
    ):
        if None in checked:
            configs.append(config_from_dict({**base, **dict(zip(axes, values))}))
        else:
            configs.append(first.derive(dict(zip(axes, checked))))
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
    for _, row, error in run_batch(*batch):
        if row is None:
            cells.append(_failed_cells(error))
        else:
            cells.append([*row, row[_GAIN] ** 2, "true", ""])
    return cells


def _sweep_cells(configs: list[ProtocolConfig], jobs: int) -> list[list]:
    """Every point's cells, in grid order. The points of one `batch_key` run in
    batches of `batch_rows`; a point whose truncation is over the dimension
    cap fails alone."""
    cells = [[]] * len(configs)
    groups: dict[tuple, list[int]] = {}
    for index, config in enumerate(configs):
        try:
            key = batch_key(config)
        except ResourceGuardError as exc:
            cells[index] = _failed_cells(exc)
            continue
        groups.setdefault(key, []).append(index)
    batches, work = [], []
    for key, members in groups.items():
        truncation = key[-1]  # the one the batch evolves on
        size = batch_rows(truncation)
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

    Every point is written. A point whose run raised gets NaN values and the
    error in its ``error`` column; a point whose herald failed gets NaN values
    and an empty ``error``. Either has ``succeeded`` false, and the sweep then
    exits EXIT_PROTOCOL, as `simulate` of that point would.
    """
    if args.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {args.jobs}")
    base, axes = _load_sweep_spec(args.config)
    grid = _grid_points(axes)
    seeded = base if args.seed is None else dict(base, rng_seed=args.seed)
    results = _sweep_cells(_sweep_configs(seeded, axes, grid), args.jobs)
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
    reports = [verify_ladder(n) for n in range(2, n_max + 1)]
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
    timings = {f"verify_ladder_n{r.n_atoms}": r.elapsed_seconds for r in reports}
    manifest = RunManifest(args.command, None, {"n_max": n_max}, [json_path.name],
                           timings)
    return (EXIT_OK if passed else EXIT_PROTOCOL), manifest


def cmd_mc(args: argparse.Namespace, out_dir: Path) -> tuple[int, RunManifest]:
    """Seeded Monte Carlo over heralding outcomes."""
    config = _run_config(args)
    if not 1 <= args.trials < 2**63:
        raise ConfigError(f"trials must be in [1, 2**63 - 1], got {args.trials}")
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
    that raises writes no manifest."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        out_dir = _resolve_out_dir(args.out)
        code, manifest = args.run(args, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemampError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    manifest.write(out_dir)
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
