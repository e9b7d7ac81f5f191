"""Tests of the benchmark itself: its checkers, its tracer and its metric names.

Run from the repository root:  python3 -m pytest perfbench
"""

import csv
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from memamp import cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_call(call) -> tuple[int, list[str]]:
    return call.check(cli.main(list(call.argv)), call.out)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == tracing.per_layer_metrics()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_sweep_checker_rejects_one_perturbed_value(tmp_path):
    call = workloads.build("sweep", 3, tmp_path).calls[0]
    attempted, failures = run_call(call)
    assert (attempted, failures) == (180, [])
    path = call.out / "sweep.csv"
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    column = rows[0].index("p_suc")
    rows[7][column] = repr(float(rows[7][column]) * (1 + 1e-7))
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    attempted, failures = call.check(0, call.out)
    assert attempted == 180 and len(failures) == 1


def test_exact_checker_rejects_one_perturbed_value(tmp_path):
    calls = workloads.build("exact", 4, tmp_path).calls
    call = next(c for c in calls if "d324" in c.argv[2])
    assert run_call(call) == (1, [])
    path = call.out / "report.json"
    report = json.loads(path.read_text())
    report["quality"]["p_mode"] *= 1 + 1e-6
    path.write_text(json.dumps(report))
    assert len(call.check(0, call.out)[1]) == 1


def test_mc_checker_against_deterministic_run(tmp_path):
    call = workloads.build("mc", 5, tmp_path).calls[0]
    assert run_call(call) == (1, [])
    path = call.out / "mc_report.json"
    good = json.loads(path.read_text())
    for key, factor in (("mean_gain", 1 + 1e-6), ("successes", 1.2)):
        bad = dict(good, **{key: type(good[key])(good[key] * factor)})
        path.write_text(json.dumps(bad))
        assert len(call.check(0, call.out)[1]) == 1, key


def test_oracle_checker_rejects_deviation_above_tolerance(tmp_path):
    call = workloads.build("oracle", 0, tmp_path).calls[0]
    assert run_call(call) == (13, [])
    path = call.out / "oracle_check.json"
    payload = json.loads(path.read_text())
    payload["reports"][4]["max_deviation"] = 2 * payload["tolerance"]
    path.write_text(json.dumps(payload))
    assert len(call.check(0, call.out)[1]) == 1


@pytest.mark.parametrize("workload", ["exact", "oracle"])
def test_traced_self_times_sum_to_cli_main_span(tmp_path, workload):
    calls = workloads.build(workload, 1, tmp_path).calls
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.iteration = 0
        assert run_call(calls[0])[1] == []
    finally:
        tracer.uninstall()
    timed = tracer.self_times()
    roots = [span for span, _ in timed if span[1] == "cli.main"]
    assert len(roots) == 1 and roots[0][4] == -1
    assert len({span[1].split(".")[0] for span, _ in timed}) >= 3
    assert all(own >= 0 for _, own in timed)
    total = sum(own for _, own in timed)
    assert total == pytest.approx(roots[0][3] - roots[0][2], rel=1e-9, abs=1e-12)
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0 and result.stdout == ""
