"""Command-line front end: gain tables, simulations, sweeps, oracle checks, MC.

Exit codes are a stable contract: 0 success, 1 usage/config error, 2 protocol
failure, 3 resource/grid guard. Data files are deterministic for identical
inputs (the manifest carries the only timestamp and timings); numbers are
written in shortest round-trip decimal form.
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
    """Provenance record written alongside every command's data files."""

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


def _format_cell(value):
    """A bool as JSON's true/false; the csv writer writes any other cell
    itself, a float in its shortest round-trip form."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _resolve_out_dir(arg: str | None) -> Path:
    if arg:
        out = Path(arg)
    else:
        out = Path(os.environ.get(OUT_DIR_ENV, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gain(n_atoms: int, n_max: int, out_dir: Path) -> int:
    """Gain-vs-rounds table for both schedule types (plot-ready data)."""
    if n_max < 0:
        raise ConfigError(f"n_max must be >= 0, got {n_max}")
    if n_atoms < n_max + 2:
        raise ConfigError(
            f"n_atoms = {n_atoms} below n_max + 2 = {n_max + 2} (headroom)"
        )
    rows = [
        [
            n,
            relative_gain(Schedule.TYPE_I, n, n_atoms),
            relative_gain(Schedule.TYPE_II, n, n_atoms),
        ]
        for n in range(n_max + 1)
    ]
    csv_path = out_dir / "gain.csv"
    _write_csv(csv_path, ["n", "gain_type1", "gain_type2"], rows)
    RunManifest(
        command="gain",
        seed=None,
        config={"n_atoms": n_atoms, "n_max": n_max},
        outputs=[csv_path.name],
    ).write(out_dir)
    return EXIT_OK


def cmd_simulate(config: ProtocolConfig, out_dir: Path) -> int:
    """Run the configured schedule; write report JSON, stage CSV and manifest."""
    report = run_schedule(config)
    report_path = out_dir / "report.json"
    stages_path = out_dir / "stages.csv"
    _write_json(report_path, report.to_dict())
    rows = [r.to_row() for r in report.stage_reports]
    _write_csv(stages_path, list(rows[0]), [list(row.values()) for row in rows])
    RunManifest(
        command="simulate",
        seed=config.rng_seed,
        config=config.to_dict(),
        outputs=[report_path.name, stages_path.name],
    ).write(out_dir)
    if not report.succeeded:
        print(f"simulation failed: {report.failure_reason}", file=sys.stderr)
        return EXIT_PROTOCOL
    return EXIT_OK


def _load_sweep_spec(path: str | Path) -> tuple[dict, dict]:
    data = _read_json(path)
    if not isinstance(data, dict) or set(data) - {"base", "axes"}:
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


def _failed_cells(error: Exception | None) -> list:
    """NaN values, succeeded false and the error, if any, of a failed point."""
    message = "" if error is None else f"{type(error).__name__}: {error}"
    return [float("nan")] * (len(QUALITY_FIELDS) + 1) + [False, message]


def _sweep_batch(configs: list[ProtocolConfig]) -> list[list]:
    """Quality cells of each point of a batch, then gain_squared, succeeded and
    error; a run error is kept in the ``error`` cell."""
    cells = []
    for _, _, quality, error in run_batch(configs):
        if quality is None:
            cells.append(_failed_cells(error))
        else:
            cells.append([*quality.to_dict().values(), quality.gain**2, True, ""])
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
    batches = []
    for members in groups.values():
        first = configs[members[0]]
        size = batch_rows(first.truncation.resolve(first.n_atoms))
        batches += [members[i : i + size] for i in range(0, len(members), size)]
    work = [[configs[i] for i in batch] for batch in batches]
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


def cmd_sweep(
    spec_path: str | Path, out_dir: Path, seed: int | None, jobs: int
) -> int:
    """Grid evaluation of the quality metrics over swept config keys.

    Every point is written. A point whose run raised gets NaN values and the
    error in its ``error`` column; a point whose herald failed gets NaN values
    and an empty ``error``. Either has ``succeeded`` false, and the sweep then
    exits EXIT_PROTOCOL, as `simulate` of that point would.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    base, axes = _load_sweep_spec(spec_path)
    grid = _grid_points(axes)
    seeded = base if seed is None else dict(base, rng_seed=seed)
    results = _sweep_cells(
        [config_from_dict({**seeded, **dict(zip(axes, values))}) for values in grid],
        jobs,
    )
    header = list(axes) + list(QUALITY_FIELDS) + ["gain_squared", "succeeded", "error"]
    csv_path = out_dir / "sweep.csv"
    _write_csv(csv_path, header, ([*v, *cells] for v, cells in zip(grid, results)))
    RunManifest(
        command="sweep",
        seed=seed,
        config={"base": base, "axes": axes},
        outputs=[csv_path.name],
    ).write(out_dir)
    failed = sum(1 for cells in results if not cells[-2])  # succeeded false
    if failed:
        print(
            f"sweep: {failed} of {len(results)} points failed; see the succeeded "
            "and error columns",
            file=sys.stderr,
        )
        return EXIT_PROTOCOL
    return EXIT_OK


def cmd_oracle_check(n_max: int, out_dir: Path) -> int:
    """Brute-force ladder verification for every ensemble size up to n_max."""
    if n_max > MAX_FULL_ATOMS:
        raise ResourceGuardError(
            f"oracle check capped at N = {MAX_FULL_ATOMS}, got {n_max}"
        )
    if n_max < 2:
        raise ConfigError(f"n_max must be >= 2, got {n_max}")
    reports = [verify_ladder(n) for n in range(2, n_max + 1)]
    payload = {
        "tolerance": VERIFY_TOL,
        "all_passed": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    json_path = out_dir / "oracle_check.json"
    _write_json(json_path, payload)
    RunManifest(
        command="oracle-check",
        seed=None,
        config={"n_max": n_max},
        outputs=[json_path.name],
        timings={
            f"verify_ladder_n{r.n_atoms}": r.elapsed_seconds for r in reports
        },
    ).write(out_dir)
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        print(
            f"N={report.n_atoms}: max deviation {report.max_deviation:.3e}, "
            f"max residual {report.max_residual:.3e} [{status}]"
        )
    if not payload["all_passed"]:
        return EXIT_PROTOCOL
    return EXIT_OK


def cmd_mc(config: ProtocolConfig, trials: int, out_dir: Path) -> int:
    """Seeded Monte Carlo over heralding outcomes."""
    if not 1 <= trials < 2**63:
        raise ConfigError(f"trials must be in [1, 2**63 - 1], got {trials}")
    report = monte_carlo(config, trials)
    json_path = out_dir / "mc_report.json"
    _write_json(json_path, report.to_dict())
    RunManifest(
        command="mc",
        seed=config.rng_seed,
        config=config.to_dict(),
        outputs=[json_path.name],
    ).write(out_dir)
    return EXIT_OK


@functools.cache  # one parser per process: a parser is a cycle gc collects late
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memamp",
        description="heralded amplification of stored weak coherent states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gain = sub.add_parser("gain", help="gain-vs-rounds table for both schedules")
    p_gain.add_argument("--n-atoms", type=int, required=True)
    p_gain.add_argument("--n-max", type=int, required=True)
    p_gain.add_argument("--out", default=None)

    p_sim = sub.add_parser("simulate", help="run one schedule from a config file")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--seed", type=int, default=None)

    p_sweep = sub.add_parser("sweep", help="grid evaluation of quality metrics")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--jobs", type=int, default=1)

    p_oracle = sub.add_parser("oracle-check", help="brute-force ladder verification")
    p_oracle.add_argument("--n-max", type=int, required=True)
    p_oracle.add_argument("--out", default=None)

    p_mc = sub.add_parser("mc", help="Monte Carlo heralding trajectories")
    p_mc.add_argument("--config", required=True)
    p_mc.add_argument("--trials", type=int, required=True)
    p_mc.add_argument("--seed", type=int, default=None)
    p_mc.add_argument("--out", default=None)
    p_mc.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted and ignored; trial counts are split per tree node in-process",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        out_dir = _resolve_out_dir(getattr(args, "out", None))
        if args.command == "gain":
            return cmd_gain(args.n_atoms, args.n_max, out_dir)
        if args.command == "sweep":
            return cmd_sweep(args.config, out_dir, args.seed, args.jobs)
        if args.command == "oracle-check":
            return cmd_oracle_check(args.n_max, out_dir)
        if args.command in ("simulate", "mc"):
            config = parse_config(args.config)
            if args.seed is not None:
                config = dataclasses.replace(config, rng_seed=args.seed)
            if args.command == "simulate":
                return cmd_simulate(config, out_dir)
            return cmd_mc(config, args.trials, out_dir)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemampError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
