"""Workload definitions and output checkers for the CLI benchmark.

A workload is a list of CLI calls that together make one iteration. Each call
carries its own output directory and a checker that turns the exit code and
the files written into an operation count and a list of failures. The inputs
are generated from the benchmark seed; the amount of work is the same for
every seed, so runs with different seeds are comparable.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: Reference comparison: |observed - expected| <= RTOL * |expected| + atol,
#: with atol = ATOL except for quantities that are products of probabilities
#: or gains (relative error is what reassociation leaves on those; several
#: are far below any useful absolute tolerance, e.g. p_suc ~ 1e-16).
#: Reassociated float64 arithmetic moves these values by ~1e-15 relative (or
#: ~1e-16 absolute on complements such as p_spon); a change to the physics
#: moves them by 1e-6 or more.
RTOL = 1e-9
ATOL = 1e-12
RELATIVE_ONLY_KEYS = frozenset(
    {
        "p_suc",
        "probability",
        "cumulative_probability",
        "success_probability",
        "gain",
        "gain_so_far",
        "final_gain",
        "final_gain_squared",
        "analytic_gain",
        "gain_squared",
    }
)

#: Monte Carlo success counts must lie within this many binomial standard
#: deviations of trials * p; a false alarm has probability ~6e-7 per run.
MC_SIGMAS = 5.0

SWEEP_AXES = {
    "p_w": [5e-4, 1e-3, 2e-3, 5e-3, 1e-2],
    "p_r": [1e-3, 3e-3, 1e-2],
    "beta_w": [0.5, 1.0],
    "stages": [1, 2, 3],
    "n_atoms": [20, 100],
}
SWEEP_BASE = {"n_atoms": 100, "alpha": 0.1}
SWEEP_SCHEDULES = ("type1", "type2")
SWEEP_QUALITY = ["p_suc", "p_mode", "p_spon", "p_amp", "q_amp", "gain", "fidelity"]

#: Lossless (beta = 1) exact-order configs, joint dimension 324, 468 and 735.
EXACT_CONFIGS = {
    "d324_type1_s1": {
        "n_atoms": 100, "alpha": 0.1, "p_w": 0.01, "p_r": 0.01,
        "schedule": "type1", "stages": 1, "order": "exact",
        "truncation": {"fock_a_max": 5, "fock_b_max": 5, "fock_c_max": 0,
                       "atomic_k_max": 8},
    },
    "d468_type1_s2": {
        "n_atoms": 50, "alpha": 0.2, "p_w": 0.005, "p_r": 0.01,
        "schedule": "type1", "stages": 2, "order": "exact",
        "truncation": {"fock_a_max": 5, "fock_b_max": 5, "fock_c_max": 0,
                       "atomic_k_max": 12},
    },
    "d735_type2_s2": {
        "n_atoms": 200, "alpha": 0.1, "p_w": 0.01, "p_r": 0.005,
        "schedule": "type2", "stages": 2, "order": "exact",
        "truncation": {"fock_a_max": 6, "fock_b_max": 6, "fock_c_max": 0,
                       "atomic_k_max": 14},
    },
}

#: Lossy type-I run with about 3000 expected successes in MC_TRIALS.
MC_CONFIG = {
    "n_atoms": 100, "alpha": 0.1, "p_w": 0.05, "p_r": 0.05,
    "beta_w": 0.8, "beta_r": 0.8, "schedule": "type1", "stages": 1,
}
MC_TRIALS = 2_000_000

ORACLE_N_MAX = 14


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the check of what it wrote."""

    argv: list[str]
    out: Path
    #: (exit code, output directory) -> (operations attempted, failure messages)
    check: Callable[[int, Path], tuple[int, list[str]]]


@dataclass(frozen=True)
class Workload:
    name: str
    #: the calls of one iteration, run in order
    calls: list[Call]
    #: config files a fresh CLI invocation loads (for the set-up timing)
    configs: list[Path]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _close(key: str, observed: float, expected: float) -> bool:
    if math.isnan(expected):
        return math.isnan(observed)
    atol = 0.0 if key in RELATIVE_ONLY_KEYS else ATOL
    return abs(observed - expected) <= RTOL * abs(expected) + atol


def compare(observed, expected, key: str = "") -> list[str]:
    """Differences between two JSON values; numbers compared by tolerance."""
    if isinstance(expected, bool) or expected is None or isinstance(expected, str):
        return [] if observed == expected else [f"{key}: {observed!r} != {expected!r}"]
    if isinstance(expected, (int, float)):
        if isinstance(observed, bool) or not isinstance(observed, (int, float)):
            return [f"{key}: {observed!r} is not a number"]
        if _close(key, float(observed), float(expected)):
            return []
        return [f"{key}: {observed!r} != {expected!r}"]
    if isinstance(expected, list):
        if not isinstance(observed, list) or len(observed) != len(expected):
            return [f"{key}: length or type differs"]
        diffs = []
        for o, e in zip(observed, expected):
            diffs += compare(o, e, key)
        return diffs
    if isinstance(expected, dict):
        if not isinstance(observed, dict) or set(observed) != set(expected):
            return [f"{key}: keys differ"]
        diffs = []
        for k in expected:
            diffs += compare(observed[k], expected[k], k)
        return diffs
    raise TypeError(f"unexpected reference value at {key}: {expected!r}")


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def sweep_rows(out: Path) -> dict[tuple[float, ...], dict[str, str]]:
    """sweep.csv rows keyed by their axis values."""
    with open(out / "sweep.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    return {tuple(float(row[a]) for a in SWEEP_AXES): row for row in rows}


def _row_values(row: dict[str, str]) -> dict:
    values = {k: float(row[k]) for k in SWEEP_QUALITY + ["gain_squared"]}
    values["succeeded"] = row["succeeded"] == "true"
    return values


def _sweep_checker(expected: dict[tuple[float, ...], dict]):
    def check(code: int, out: Path) -> tuple[int, list[str]]:
        attempted = len(expected)
        if code != 0:
            return attempted, [f"sweep exited {code}"] * attempted
        rows = sweep_rows(out)
        failures = []
        for key, want in expected.items():
            if key not in rows:
                failures.append(f"sweep point {key} missing")
                continue
            diffs = compare(_row_values(rows[key]), want)
            if diffs:
                failures.append(f"sweep point {key}: {diffs[0]}")
        return attempted, failures

    return check


def _defined(report: dict) -> dict:
    """The report without values that are rounding noise by construction.

    Between the first write and the last read of a type2 schedule the state
    has no k = 0 (or k = 1) population, so gain_so_far divides rounding
    noise: exact evolution leaves ~1e-18 where first order leaves 0 (and
    reports NaN). The quotient changes with the BLAS thread count. The last
    stage's gain is final_gain, which is still compared.
    """
    stages = [
        {k: v for k, v in stage.items()
         if not (k == "gain_so_far" and stage.get("kind") != "write_then_read")}
        for stage in report.get("stages", [])
    ]
    return dict(report, stages=stages)


def _exact_checker(expected: dict):
    expected = _defined(expected)

    def check(code: int, out: Path) -> tuple[int, list[str]]:
        if code != 0:
            return 1, [f"simulate exited {code}"]
        report = json.loads((out / "report.json").read_text())
        diffs = compare(_defined(report), expected)
        return 1, diffs[:1]

    return check


def _mc_checker(seed: int, deterministic):
    """Statistical check against the deterministic pipeline's run."""

    def check(code: int, out: Path) -> tuple[int, list[str]]:
        if code != 0:
            return 1, [f"mc exited {code}"]
        report = json.loads((out / "mc_report.json").read_text())
        p = deterministic.success_probability
        failures = []
        if report["trials"] != MC_TRIALS or report["rng_seed"] != seed:
            failures.append("mc report has the wrong trials or seed")
        if not _close("p_suc", report["numeric_success_probability"], p):
            failures.append(
                f"numeric_success_probability {report['numeric_success_probability']!r}"
                f" != run_schedule success probability {p!r}"
            )
        sigma = math.sqrt(MC_TRIALS * p * (1.0 - p))
        if abs(report["successes"] - MC_TRIALS * p) > MC_SIGMAS * sigma:
            failures.append(
                f"{report['successes']} successes outside {MC_SIGMAS} sigma of "
                f"{MC_TRIALS * p:.1f}"
            )
        if not _close("gain", report["mean_gain"], deterministic.final_gain):
            failures.append(
                f"mean_gain {report['mean_gain']!r} != run_schedule final gain "
                f"{deterministic.final_gain!r}"
            )
        return 1, failures[:1]

    return check


def _oracle_check(code: int, out: Path) -> tuple[int, list[str]]:
    from memamp.oracle import VERIFY_TOL

    ns = list(range(2, ORACLE_N_MAX + 1))
    if code != 0:
        return len(ns), [f"oracle-check exited {code}"] * len(ns)
    payload = json.loads((out / "oracle_check.json").read_text())
    # elapsed_seconds is a timing and varies between runs: never compared
    by_n = {r["n_atoms"]: r for r in payload["reports"]}
    failures = []
    for n in ns:
        r = by_n.get(n)
        if r is None or not r["passed"] or not r["max_deviation"] <= VERIFY_TOL:
            failures.append(f"oracle N={n} failed or missing")
    if not payload["all_passed"] and not failures:
        failures.append("oracle all_passed is false")
    return len(ns), failures


def _sweep(seed: int, work: Path, reference: dict) -> Workload:
    rng = random.Random(seed)
    # same grid for every seed; the seed only permutes the point order
    axes = {key: rng.sample(values, len(values)) for key, values in SWEEP_AXES.items()}
    calls, configs = [], []
    for schedule in SWEEP_SCHEDULES:
        config = _write_json(
            work / f"sweep_{schedule}.json",
            {"base": dict(SWEEP_BASE, schedule=schedule), "axes": axes},
        )
        expected = {
            tuple(float(v) for v in r[: len(SWEEP_AXES)]): _reference_row(r)
            for r in reference["sweep"][schedule]
        }
        out = work / f"out_sweep_{schedule}"
        argv = ["sweep", "--config", str(config), "--out", str(out),
                "--seed", str(seed), "--jobs", "1"]
        calls.append(Call(argv, out, _sweep_checker(expected)))
        configs.append(config)
    return Workload("sweep", calls, configs)


def _reference_row(row: list) -> dict:
    values = dict(zip(SWEEP_QUALITY + ["gain_squared"], row[len(SWEEP_AXES):-1]))
    values["succeeded"] = row[-1]
    return values


def _exact(seed: int, work: Path, reference: dict) -> Workload:
    names = random.Random(seed).sample(sorted(EXACT_CONFIGS), len(EXACT_CONFIGS))
    calls, configs = [], []
    for name in names:
        config = _write_json(
            work / f"exact_{name}.json", dict(EXACT_CONFIGS[name], rng_seed=seed)
        )
        out = work / f"out_exact_{name}"
        argv = ["simulate", "--config", str(config), "--out", str(out)]
        calls.append(Call(argv, out, _exact_checker(reference["exact"][name])))
        configs.append(config)
    return Workload("exact", calls, configs)


def _mc(seed: int, work: Path, reference: dict) -> Workload:
    from memamp.cli import config_from_dict
    from memamp.protocol import run_schedule

    data = dict(MC_CONFIG, rng_seed=seed)
    config = _write_json(work / "mc.json", data)
    deterministic = run_schedule(config_from_dict(data))
    out = work / "out_mc"
    argv = ["mc", "--config", str(config), "--trials", str(MC_TRIALS),
            "--out", str(out), "--jobs", "1"]
    return Workload("mc", [Call(argv, out, _mc_checker(seed, deterministic))], [config])


def _oracle(seed: int, work: Path, reference: dict) -> Workload:
    out = work / "out_oracle"
    argv = ["oracle-check", "--n-max", str(ORACLE_N_MAX), "--out", str(out)]
    return Workload("oracle", [Call(argv, out, _oracle_check)], [])


WORKLOADS = {"sweep": _sweep, "exact": _exact, "mc": _mc, "oracle": _oracle}


def build(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's inputs under ``work`` and return its calls."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, work, load_reference())
