"""CLI contract: config parsing, subcommands, exit codes, file round-trips."""

import concurrent.futures
import contextlib
import csv
import dataclasses
import gc
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import weakref
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from memamp import cli, joint, protocol
from memamp.cli import (
    EXIT_CONFIG,
    EXIT_GUARD,
    EXIT_OK,
    EXIT_PROTOCOL,
    main,
    parse_config,
)
from memamp.dicke import Schedule, relative_gain
from memamp.errors import ConfigError, MemampError, TruncationLeakageError
from memamp.joint import LEAK_TOL, EvolutionOrder
from memamp.oracle import MAX_FULL_ATOMS
from memamp.metrics import QualityReport
from memamp.protocol import (
    CONFIG_FIELDS, STAGE_COLUMNS, AmplificationReport, ProtocolConfig, batch_key,
    monte_carlo, run_batch, run_schedule,
)


def write_config(tmp_path, name="config.json", **overrides):
    data = {"n_atoms": 100, "alpha": 0.1, "p_w": 0.01, "p_r": 0.01}
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def csv_cell(value):
    """A cell as sweep.csv holds it: a bool as JSON's true/false."""
    return json.dumps(value) if isinstance(value, bool) else str(value)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, list(reader)


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        assert config.beta_w == 1.0 and config.beta_r == 1.0
        assert config.schedule is Schedule.TYPE_I
        assert config.stages == 1
        assert config.order is EvolutionOrder.FIRST_ORDER
        assert config.truncation.resolve(100).shape() == (9, 4, 4, 3)

    def test_headroom_violation_names_key(self, tmp_path):
        path = write_config(tmp_path, n_atoms=5, stages=10)
        with pytest.raises(ConfigError, match="stages"):
            parse_config(path)

    def test_out_of_range_coupling(self, tmp_path):
        path = write_config(tmp_path, p_w=1.5)
        with pytest.raises(ConfigError, match="p_w"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, pw=0.01)
        with pytest.raises(ConfigError, match="pw"):
            parse_config(path)

    def test_unknown_truncation_key_rejected(self, tmp_path):
        path = write_config(tmp_path, truncation={"fock_q_max": 2})
        with pytest.raises(ConfigError, match="fock_q_max"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed"):
            parse_config(path)

    def test_complex_alpha(self, tmp_path):
        path = write_config(tmp_path, alpha=[0.0, 0.5])
        assert parse_config(path).alpha == 0.5j

    def test_enum_values(self, tmp_path):
        path = write_config(
            tmp_path, schedule="type2", order="exact", stages=2
        )
        config = parse_config(path)
        assert config.schedule is Schedule.TYPE_II
        assert config.order is EvolutionOrder.EXACT


class TestGainCommand:
    def test_table_matches_closed_forms(self, tmp_path):
        assert main(["gain", "--n-atoms", "100", "--n-max", "3",
                     "--out", str(tmp_path)]) == EXIT_OK
        header, rows = read_csv(tmp_path / "gain.csv")
        assert header == ["n", "gain_type1", "gain_type2"]
        assert rows[0] == ["0", "1.0", "1.0"]
        assert [float(x) for x in rows[1]] == [1, 1.98, 1.98]
        assert [float(x) for x in rows[2]] == [2, 3.9204, 2.94]
        assert [float(x) for x in rows[3]] == pytest.approx([3, 7.762392, 3.88])

    def test_large_ensemble_limit(self, tmp_path):
        assert main(["gain", "--n-atoms", str(10**9), "--n-max", "10",
                     "--out", str(tmp_path)]) == EXIT_OK
        _, rows = read_csv(tmp_path / "gain.csv")
        gain = float(rows[10][1])
        assert abs(gain - 1024) / 1024 < 1e-5

    def test_ensemble_beyond_the_float_range(self, tmp_path, capsys):
        # 2^n and n+1 exactly: at N = 10^400, (2(N-1)/N)^n and (n+1)(N-n)/N
        # round to them, with N kept an integer
        assert main(["gain", "--n-atoms", str(10**400), "--n-max", "10",
                     "--out", str(tmp_path)]) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        _, rows = read_csv(tmp_path / "gain.csv")
        assert [row[1:] for row in rows] == [
            [repr(2.0**n), repr(n + 1.0)] for n in range(11)
        ]

    def test_headroom_guard(self, tmp_path):
        assert main(["gain", "--n-atoms", "4", "--n-max", "3",
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_overflowing_type1_gain_is_a_config_error(self, tmp_path, capsys):
        # eta(1)^n = (2 * 2998 / 3000)^n passes the float range at n = 1025
        assert main(["gain", "--n-atoms", "3000", "--n-max", "2000",
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: gain_type1 overflows a float at n = 1025: "
            "(34, 'Numerical result out of range')\n"
        )
        assert not (tmp_path / "gain.csv").exists()
        assert main(["gain", "--n-atoms", "3000", "--n-max", "1024",
                     "--out", str(tmp_path)]) == EXIT_OK

    def test_round_trip_at_full_precision(self, tmp_path):
        main(["gain", "--n-atoms", "97", "--n-max", "7", "--out", str(tmp_path)])
        _, rows = read_csv(tmp_path / "gain.csv")
        for row in rows:
            n = int(row[0])
            assert float(row[1]) == relative_gain(Schedule.TYPE_I, n, 97)
            assert float(row[2]) == relative_gain(Schedule.TYPE_II, n, 97)


class TestSimulateCommand:
    def test_writes_three_files(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        assert (out / "report.json").is_file()
        assert (out / "stages.csv").is_file()
        assert (out / "manifest.json").is_file()
        report = json.loads((out / "report.json").read_text())
        assert report["succeeded"] is True
        assert report["analytic_gain"] == 1.98

    def test_zero_probability_exits_two_with_report(self, tmp_path):
        config = write_config(tmp_path, p_w=0.0)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config),
                     "--out", str(out)]) == EXIT_PROTOCOL
        report = json.loads((out / "report.json").read_text())
        assert report["succeeded"] is False
        assert "stage 0" in report["failure_reason"]

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(config), "--out", str(out_a),
              "--seed", "7"])
        main(["simulate", "--config", str(config), "--out", str(out_b),
              "--seed", "7"])
        for name in ("report.json", "stages.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_report_numbers_round_trip(self, tmp_path):
        from memamp.protocol import run_schedule

        config_path = write_config(tmp_path)
        out = tmp_path / "run"
        main(["simulate", "--config", str(config_path), "--out", str(out)])
        written = json.loads((out / "report.json").read_text())
        recomputed = run_schedule(parse_config(config_path))
        assert written["final_gain"] == recomputed.final_gain
        assert written["success_probability"] == recomputed.success_probability
        assert written["quality"]["q_amp"] == recomputed.quality.q_amp

    @pytest.mark.parametrize("k_max, code", [(2, EXIT_PROTOCOL), (3, EXIT_OK)])
    def test_lossy_read_guard_at_atomic_cutoff(self, tmp_path, capsys, k_max, code):
        """A lossy read raises k out of n_c >= 1 too; at k_max = 2 that population
        (~1e-4) would fall off the truncation instead of failing the run."""
        data = {"n_atoms": 100, "alpha": 0.1, "p_w": 0.01, "p_r": 0.01,
                "beta_w": 0.5, "beta_r": 0.5, "truncation": {"atomic_k_max": k_max}}
        assert simulate_exit(tmp_path, data) == code
        if code == EXIT_PROTOCOL:
            assert "read: population" in capsys.readouterr().err

    def test_manifest_references_outputs(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        main(["simulate", "--config", str(config), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "memamp"
        assert manifest["command"] == "simulate"
        assert set(manifest["outputs"]) == {"report.json", "stages.csv"}
        assert manifest["config"]["n_atoms"] == 100


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces the sweep's process pool by an in-process map; lists max_workers."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


class TestSweepCommand:
    def test_single_point_matches_simulate(self, tmp_path):
        config = write_config(tmp_path)
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({
            "base": json.loads(config.read_text()),
            "axes": {"p_w": [0.01]},
        }))
        out_sim, out_sweep = tmp_path / "sim", tmp_path / "sw"
        main(["simulate", "--config", str(config), "--out", str(out_sim)])
        assert main(["sweep", "--config", str(sweep),
                     "--out", str(out_sweep)]) == EXIT_OK
        report = json.loads((out_sim / "report.json").read_text())
        header, rows = read_csv(out_sweep / "sweep.csv")
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert float(row["q_amp"]) == report["quality"]["q_amp"]
        assert float(row["gain"]) == report["quality"]["gain"]

    def test_quality_monotone_in_beta(self, tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({
            "base": {"n_atoms": 100, "alpha": 0.1, "p_w": 0.001, "p_r": 0.001},
            "axes": {"beta_w": [0.5, 0.75, 1.0]},
        }))
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(sweep), "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "sweep.csv")
        q_values = [float(dict(zip(header, row))["q_amp"]) for row in rows]
        assert q_values[0] <= q_values[1] <= q_values[2]

    def test_grid_is_row_major_in_axis_order(self, tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({
            "base": {"n_atoms": 100, "alpha": 0.1, "p_w": 0.001, "p_r": 0.001},
            "axes": {"p_w": [0.001, 0.002], "p_r": [0.003, 0.004]},
        }))
        out = tmp_path / "sw"
        main(["sweep", "--config", str(sweep), "--out", str(out)])
        _, rows = read_csv(out / "sweep.csv")
        grid = [(row[0], row[1]) for row in rows]
        assert grid == [("0.001", "0.003"), ("0.001", "0.004"),
                        ("0.002", "0.003"), ("0.002", "0.004")]

    def test_empty_axis_is_grid_guard(self, tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({
            "base": {"n_atoms": 100},
            "axes": {"p_w": []},
        }))
        assert main(["sweep", "--config", str(sweep),
                     "--out", str(tmp_path / "sw")]) == EXIT_GUARD

    @pytest.mark.parametrize("base", [5, [["n_atoms", 100]], "n_atoms"])
    def test_base_must_be_an_object(self, tmp_path, capsys, base):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"base": base, "axes": {"p_w": [0.01]}}))
        assert main(["sweep", "--config", str(sweep),
                     "--out", str(tmp_path / "sw")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: base: expected an object\n"

    @pytest.mark.parametrize("spec, message", [
        ({"base": {"n_atoms": 20}, "axes": {"p_w": [0.01]}, "seed": 1},
         "sweep config must contain only 'base' and 'axes'"),
        ([{"n_atoms": 20}], "sweep config root must be an object"),
        ({"axes": {"p_w": [0.01]}}, "sweep config needs both 'base' and 'axes'"),
        ({"base": {"n_atoms": 20}}, "sweep config needs both 'base' and 'axes'"),
        ({"base": {"n_atoms": 20}, "axes": [["p_w", [0.01]]]},
         "axes: expected a nonempty object of key -> values"),
        ({"base": {"n_atoms": 20}, "axes": {}},
         "axes: expected a nonempty object of key -> values"),
        ({"base": {"n_atoms": 20}, "axes": {"p_w": 0.01}},
         "axes.p_w: expected a list of values"),
        ({"base": {"alpha": 0.1}, "axes": {"p_w": [0.01]}},
         "n_atoms: required key is missing"),
        ({"base": {"n_atoms": 20, "pw": 0.01}, "axes": {"p_w": [0.01]}},
         "unknown config key(s): pw"),
    ], ids=["extra_key", "not_an_object", "no_base", "no_axes", "axes_not_an_object",
            "axes_empty", "axis_not_a_list", "no_n_atoms", "unknown_base_key"])
    def test_malformed_spec_is_config_error(self, tmp_path, capsys, spec, message):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(spec))
        assert main(["sweep", "--config", str(sweep),
                     "--out", str(tmp_path / "sw")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "sw" / "sweep.csv").exists()

    def test_grid_over_the_cap_is_grid_guard(self, tmp_path, capsys):
        # 32^4 points: the cap is checked before the grid is built
        axes = {key: [0.001 * (i + 1) for i in range(32)]
                for key in ("p_w", "p_r", "beta_w", "beta_r")}
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"base": {"n_atoms": 20}, "axes": axes}))
        assert main(["sweep", "--config", str(sweep),
                     "--out", str(tmp_path / "sw")]) == EXIT_GUARD
        assert capsys.readouterr().err == (
            "resource guard: sweep grid exceeds cap of 1000000 points\n")

    def test_unknown_axis_is_config_error(self, tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({
            "base": {"n_atoms": 100},
            "axes": {"gamma": [1.0]},
        }))
        assert main(["sweep", "--config", str(sweep),
                     "--out", str(tmp_path / "sw")]) == EXIT_CONFIG

    def test_parallel_jobs_deterministic(self, tmp_path):
        # two stage plans: two batches, so --jobs 2 runs a pool
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({
            "base": {"n_atoms": 100, "alpha": 0.1, "p_w": 0.001, "p_r": 0.001},
            "axes": {"p_w": [0.001, 0.002], "beta_w": [0.5, 1.0], "stages": [1, 2]},
        }))
        out_serial, out_parallel = tmp_path / "s1", tmp_path / "s2"
        main(["sweep", "--config", str(sweep), "--out", str(out_serial)])
        main(["sweep", "--config", str(sweep), "--out", str(out_parallel),
              "--jobs", "2"])
        assert (out_serial / "sweep.csv").read_bytes() == (
            out_parallel / "sweep.csv"
        ).read_bytes()


    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_config_error(self, tmp_path, capsys, pool_sizes, jobs):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"base": {"n_atoms": 100}, "axes": {"p_w": [0.01]}}))
        assert main(["sweep", "--config", str(sweep), "--out", str(tmp_path / "sw"),
                     "--jobs", str(jobs)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "jobs" in err
        assert pool_sizes == []

    @pytest.mark.parametrize(
        "jobs, cpus, workers",
        [(100_000, 64, 3), (2, 64, 2), (100_000, 2, 2), (8, None, None), (1, 64, None)],
    )
    def test_workers_bounded_by_points_and_cpus(
        self, tmp_path, monkeypatch, pool_sizes, jobs, cpus, workers
    ):
        """Never more workers than batches or CPUs; one worker runs in-process."""
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        sweep = tmp_path / "sweep.json"
        # three atomic cutoffs (min(N, 8)): three batches of one point
        sweep.write_text(json.dumps({
            "base": {"n_atoms": 100, "alpha": 0.1},
            "axes": {"n_atoms": [3, 5, 100]},
        }))
        assert main(["sweep", "--config", str(sweep), "--out", str(tmp_path / "sw"),
                     "--jobs", str(jobs)]) == EXIT_OK
        assert pool_sizes == ([] if workers is None else [workers])
        _, rows = read_csv(tmp_path / "sw" / "sweep.csv")
        assert [row[0] for row in rows] == ["3", "5", "100"]

    def test_one_batch_runs_in_process(self, tmp_path, pool_sizes):
        # three points of one batch key fill one batch: no pool, whatever --jobs
        spec = {"base": {"n_atoms": 100, "alpha": 0.1},
                "axes": {"p_w": [0.001, 0.002, 0.003]}}
        _, _, _, serial = sweep_csv(tmp_path, spec, name="j1")
        code, _, _, parallel = sweep_csv(tmp_path, spec, name="j2", jobs=2)
        assert code == EXIT_OK and pool_sizes == []
        assert serial == parallel

    def test_failed_point_keeps_the_grid(self, tmp_path):
        # the p_w = 0.5 point leaks past the mode-a cutoff at exact order
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({
            "base": {"n_atoms": 100, "alpha": 0.1, "order": "exact",
                     "p_w": 0.01, "p_r": 0.01},
            "axes": {"p_w": [0.001, 0.5]},
        }))
        outs = {jobs: tmp_path / f"jobs{jobs}" for jobs in (1, 2)}
        for jobs, out in outs.items():
            assert main(["sweep", "--config", str(sweep), "--out", str(out),
                         "--jobs", str(jobs)]) == EXIT_PROTOCOL
            assert (out / "manifest.json").is_file()
        assert (outs[1] / "sweep.csv").read_bytes() == (
            outs[2] / "sweep.csv"
        ).read_bytes()
        header, rows = read_csv(outs[1] / "sweep.csv")
        assert header[-1] == "error"
        good, bad = (dict(zip(header, row)) for row in rows)
        assert good["p_w"] == "0.001" and good["succeeded"] == "true"
        assert good["error"] == "" and 0.0 < float(good["q_amp"]) < 1.0
        assert bad["succeeded"] == "false" and bad["q_amp"] == "nan"
        assert bad["error"].startswith("TruncationLeakageError")

    def test_point_over_the_dimension_cap_keeps_the_grid(self, tmp_path):
        # at N = 100 the truncation resolves to 9 x 20001 x 4 x 3 = 2160108,
        # whether the atomic cutoff is left null or spelled out; at N = 2 it
        # resolves to 3 x 20001 x 4 x 3 = 720036, under the cap
        guard = "ResourceGuardError: joint dimension 2160108 exceeds cap 2000000"
        for atomic_k_max in (None, 8):
            trunc = {"fock_a_max": 20000, "atomic_k_max": atomic_k_max}
            base = {"n_atoms": 100, "truncation": trunc}
            point = cli.config_from_dict(dict(base, n_atoms=2))
            quality = run_schedule(point).quality
            expected = [*quality.to_dict().values(), quality.gain**2, True, ""]
            for jobs in (1, 2):
                spec = {"base": base, "axes": {"n_atoms": [2, 100]}}
                name = f"k{atomic_k_max}j{jobs}"
                code, _, rows, _ = sweep_csv(tmp_path, spec, name=name, jobs=jobs)
                assert code == EXIT_PROTOCOL
                assert rows[0][1:] == [csv_cell(v) for v in expected]
                assert rows[1][-2:] == ["false", guard]
            # a grid with every point over the cap still writes its rows
            spec = {"base": base, "axes": {"n_atoms": [100, 200]}}
            code, _, rows, _ = sweep_csv(tmp_path, spec, name=f"k{atomic_k_max}all")
            assert code == EXIT_PROTOCOL
            assert [row[-1] for row in rows] == [guard, guard]
            assert simulate_exit(tmp_path, base) == EXIT_GUARD
            assert mc_exit(tmp_path, base, 10) == EXIT_GUARD


def sweep_csv(tmp_path, spec, name="sw", jobs=1):
    """Run a sweep; returns (exit code, header, rows, raw bytes of sweep.csv)."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / name
    code = main(["sweep", "--config", str(path), "--out", str(out), "--jobs", str(jobs)])
    header, rows = read_csv(out / "sweep.csv")
    return code, header, rows, (out / "sweep.csv").read_bytes()


def assert_rows_equal_run_schedule(base, axes, header, rows):
    """Each sweep row's cells equal `run_schedule` of its point bit for bit, or
    its error; a point fails only at p_w = 0 or with an error."""
    keys = list(axes)
    assert len(rows) == math.prod(len(v) for v in axes.values())
    for row in rows:
        point = dict(base, **{k: json.loads(v) for k, v in zip(keys, row)})
        try:
            quality, message = run_schedule(cli.config_from_dict(point)).quality, ""
        except MemampError as exc:
            quality, message = None, f"{type(exc).__name__}: {exc}"
        if quality is None:
            expected = [math.nan] * (len(header) - len(keys) - 2) + [False, message]
        else:
            expected = [*quality.to_dict().values(), quality.gain**2, True, ""]
        assert row[len(keys):] == [csv_cell(v) for v in expected]
        assert (quality is None) == (point["p_w"] == 0.0 or message != "")


#: points of several batch keys (ensemble sizes with different atomic cutoffs,
#: stage counts), lossy and lossless, and zero couplings that fail their herald
MIXED_AXES = {
    "n_atoms": [3, 20, 100],
    "stages": [1, 2],
    "beta_w": [0.6, 1.0],
    "p_w": [0.0, 0.004, 0.01],
}


#: exact points in batches of 2 (dimension 900): one branch, mixtures,
#: leaking and failed heralds
EXACT_GRID = ({"n_atoms": 100, "alpha": 0.1, "p_r": 0.006, "order": "exact",
               "truncation": {"fock_a_max": 4, "fock_b_max": 4, "fock_c_max": 3}},
              {"stages": [1, 2], "beta_w": [0.8, 1.0], "p_w": [0.0, 0.004, 0.2]})
#: exact points in batches of 4 (dimension 600), the first three failing their
#: first herald (p_w = 0) and the fourth a mixture of four branches: as many
#: branches at the second stage as the batch has points, none of them theirs
DEAD_BESIDE_MIXTURE = ({"n_atoms": 20, "alpha": 0.1, "beta_w": 0.8, "stages": 2,
                        "order": "exact", "truncation": {
                            "fock_a_max": 4, "fock_b_max": 4, "fock_c_max": 3,
                            "atomic_k_max": 5}},
                       {"p_w": [0.0, 0.005], "p_r": [0.004, 0.005, 0.006]})
LOSSY_READ = {"alpha": 0.1, "p_r": 0.006, "beta_r": 0.8}


class TestSweepBatches:
    """Batched sweeps: rows match `run_schedule`, whatever the batch."""

    @pytest.mark.parametrize("base, axes, guards", [
        (dict(LOSSY_READ, schedule="type1"), MIXED_AXES, set()),
        (dict(LOSSY_READ, schedule="type2"), MIXED_AXES, set()),
        (*EXACT_GRID, {"TruncationLeakageError"}), (*DEAD_BESIDE_MIXTURE, set()),
    ], ids=["type1", "type2", "exact", "dead-beside-mixture"])
    def test_rows_equal_run_schedule_bit_for_bit(self, tmp_path, base, axes, guards):
        _, header, rows, _ = sweep_csv(tmp_path, {"base": base, "axes": axes})
        assert_rows_equal_run_schedule(base, axes, header, rows)
        errors = {row[-1].split(":")[0] for row in rows} - {""}
        assert errors == guards

    def test_a_first_order_key_runs_as_one_batch(self, tmp_path, monkeypatch):
        """A perfbench-shaped key, 60 first-order points of one stage count,
        reaches `run_batch` whole: its points cannot branch, so a batch is
        capped by their atomic states, not by the tensor chunks."""
        sizes = []
        monkeypatch.setattr(cli, "run_batch", lambda configs, truncation: (
            sizes.append(len(configs)) or run_batch(configs, truncation)))
        base = {"n_atoms": 100, "alpha": 0.1, "schedule": "type2", "stages": 2}
        axes = {"p_w": [5e-4, 1e-3, 2e-3, 5e-3, 1e-2], "p_r": [1e-3, 3e-3, 1e-2],
                "beta_w": [0.5, 1.0], "n_atoms": [20, 100]}
        code, header, rows, _ = sweep_csv(tmp_path, {"base": base, "axes": axes})
        assert code == EXIT_OK and sizes == [60]
        key = batch_key(cli.config_from_dict(base))
        assert protocol.points_per_batch(key) == 284 > protocol.batch_rows(key[-1])
        assert_rows_equal_run_schedule(base, axes, header, rows)

    def test_a_lossy_exact_key_keeps_the_chunk_rows(self, tmp_path, monkeypatch):
        """Lossy exact points can branch: each batch of their key holds
        `batch_rows` points, the chunk `_stage` evolves, as before."""
        sizes = []
        monkeypatch.setattr(cli, "run_batch", lambda configs, truncation: (
            sizes.append(len(configs)) or run_batch(configs, truncation)))
        base, _ = DEAD_BESIDE_MIXTURE
        axes = {"p_w": [0.004, 0.005], "p_r": [0.004, 0.005, 0.006, 0.007]}
        code, header, rows, _ = sweep_csv(tmp_path, {"base": base, "axes": axes})
        key = batch_key(cli.config_from_dict(base))
        assert protocol.points_per_batch(key) == protocol.batch_rows(key[-1]) == 4
        assert code == EXIT_OK and sizes == [4, 4]
        assert_rows_equal_run_schedule(base, axes, header, rows)

    def test_permuted_axes_give_identical_rows(self, tmp_path):
        base = {"alpha": 0.1, "p_r": 0.006, "beta_r": 0.8}
        permuted = {k: v[::-1] for k, v in reversed(list(MIXED_AXES.items()))}
        _, header, rows, _ = sweep_csv(tmp_path, {"base": base, "axes": MIXED_AXES})
        _, header2, rows2, _ = sweep_csv(
            tmp_path, {"base": base, "axes": permuted}, name="perm"
        )
        keys = list(MIXED_AXES)

        def keyed(head, table):
            cols = [head.index(k) for k in keys]
            return {tuple(r[c] for c in cols): r[len(keys):] for r in table}

        assert keyed(header, rows) == keyed(header2, rows2)

    def test_two_jobs_write_the_same_bytes(self, tmp_path):
        base = {"alpha": 0.1, "p_r": 0.006, "beta_r": 0.8, "schedule": "type2"}
        spec = {"base": base, "axes": MIXED_AXES}
        _, _, _, serial = sweep_csv(tmp_path, spec, name="j1")
        _, _, _, parallel = sweep_csv(tmp_path, spec, name="j2", jobs=2)
        assert serial == parallel

    def test_failing_rows_leave_the_rest_of_their_batch(self, tmp_path, capsys):
        base = {"n_atoms": 100, "alpha": 0.1, "p_r": 0.01, "beta_w": 0.5,
                "truncation": {"atomic_k_max": 2}}
        axes = {"beta_r": [1.0, 0.5, 0.9], "p_w": [0.0, 0.01]}
        code, header, rows, _ = sweep_csv(tmp_path, {"base": base, "axes": axes})
        assert code == EXIT_PROTOCOL
        overflow = ("TruncationOverflowError: read: population 9.802e-05 at the "
                    "atomic k cutoff would overflow the truncation")
        cells = {(r[0], r[1]): dict(zip(header, r)) for r in rows}
        assert {k: (c["succeeded"], c["error"]) for k, c in cells.items()} == {
            ("1.0", "0.0"): ("false", ""),
            ("1.0", "0.01"): ("true", ""),
            ("0.5", "0.0"): ("false", ""),
            ("0.5", "0.01"): ("false", overflow),
            ("0.9", "0.0"): ("false", ""),
            ("0.9", "0.01"): ("false", overflow),
        }
        assert 0.0 < float(cells[("1.0", "0.01")]["q_amp"]) < 1.0
        capsys.readouterr()
        for (beta_r, p_w), cell in cells.items():
            point = dict(base, beta_r=float(beta_r), p_w=float(p_w))
            assert simulate_exit(tmp_path, point) == (
                EXIT_OK if cell["succeeded"] == "true" else EXIT_PROTOCOL
            )
            err = capsys.readouterr().err
            if cell["error"]:
                assert err == f"run failed: {cell['error'].split(': ', 1)[1]}\n"
            elif cell["succeeded"] == "false":
                assert err == "simulation failed: zero-probability herald at stage 0\n"

    def test_batches_are_capped_and_uniform(self, tmp_path, monkeypatch):
        batches = []

        def spy(configs, truncation):
            batches.append((list(configs), truncation))
            return run_batch(configs, truncation)

        monkeypatch.setattr(cli, "run_batch", spy)
        axes = {"p_w": [0.001 * (i + 1) for i in range(12)],
                "p_r": [0.001 * (i + 1) for i in range(12)],
                "stages": [1, 2], "n_atoms": [3, 20, 100]}
        code, _, rows, _ = sweep_csv(tmp_path, {"base": {"alpha": 0.1}, "axes": axes})
        assert code == EXIT_OK and len(rows) == 864
        assert sum(len(batch) for batch, _ in batches) == 864
        sizes = {}
        for batch, truncation in batches:
            first = batch[0]
            # capped by the ladder the batch evolves on, not the configured shape
            assert truncation == batch_key(first)[-1]
            assert {batch_key(c) for c in batch} == {batch_key(first)}
            sizes.setdefault(batch_key(first), []).append(len(batch))
        # first order: a point holds k_dim amplitudes between stages, so a
        # batch holds BATCH_BYTES // (16 k_dim) points: 640 at N = 3 (k_dim
        # 4), whose keys fit one batch, and 284 at N = 20 and 100 (k_dim 9)
        caps = {key[-1].atomic_k_max: protocol.points_per_batch(key) for key in sizes}
        assert caps == {3: protocol.BATCH_BYTES // (16 * 4),
                        8: protocol.BATCH_BYTES // (16 * 9)} == {3: 640, 8: 284}
        assert sorted(sizes.values()) == [[144], [144], [284, 4], [284, 4]]

    @pytest.mark.parametrize("base, axes", [
        ({"n_atoms": 100, "alpha": 0.1, "schedule": "type2", "stages": 3,
          "beta_w": 0.7}, {"p_w": [0.0, 0.002, 0.01], "p_r": [0.001, 0.01]}),
        DEAD_BESIDE_MIXTURE,
    ], ids=["type2-first-order", "dead-beside-mixture"])
    def test_finished_levels_are_freed_stage_by_stage(
        self, tmp_path, monkeypatch, base, axes
    ):
        """A sweep's stage loop keeps no level past its stage: when stage s
        starts, the levels that entered stages 0 to s - 1, the root among
        them, are freed, and so are the children of stages 0 to s - 2 (those
        of stage s - 1 are its level, or hold its live rows)."""
        levels, children = [], []

        def spy(processes, level, kind, visit=None):
            assert all(ref() is None for refs in levels for ref in refs)
            assert all(ref() is None for refs in children[:-1] for ref in refs)
            levels.append([weakref.ref(x) for x in level])
            out = stage(processes, level, kind, visit)
            children.append([weakref.ref(x) for x in out[3]])
            return out

        stage = protocol._stage
        monkeypatch.setattr(protocol, "_stage", spy)
        code, _, rows, _ = sweep_csv(tmp_path, {"base": base, "axes": axes})
        assert code == EXIT_PROTOCOL and len(levels) == 2 * base["stages"]
        assert rows[0][-2:] == ["false", ""]  # p_w = 0 leaves the level early
        assert all(ref() is None for refs in levels + children for ref in refs)

    def test_points_below_the_reach_fail_before_their_batch(self, tmp_path, monkeypatch):
        """`batch_key` refuses a point whose atomic ladder is below its
        schedule's excitation reach: no batch runs it, and its row keeps the
        error that `simulate` of the point prints."""
        handed = []
        monkeypatch.setattr(cli, "run_batch", lambda configs, truncation: (
            handed.extend(configs) or run_batch(configs, truncation)
        ))
        base = {"n_atoms": 100, "alpha": 0.1, "schedule": "type2",
                "truncation": {"atomic_k_max": 2}}
        axes = {"stages": [1, 2], "p_w": [0.001, 0.002]}
        code, header, rows, _ = sweep_csv(tmp_path, {"base": base, "axes": axes})
        for config in handed:
            batch_key(config)  # raises for a point below the reach
        assert [c.stages for c in handed] == [1, 1]
        reach = ("ConfigError: atomic_k_max = 2 below the schedule's excitation "
                 "reach 3; enlarge the truncation")
        cells = [dict(zip(header, row)) for row in rows]
        assert [(c["stages"], c["succeeded"], c["error"]) for c in cells] == [
            ("1", "true", ""), ("1", "true", ""),
            ("2", "false", reach), ("2", "false", reach),
        ]
        assert code == EXIT_PROTOCOL

    def test_stencil_weights_are_built_once_per_batch(self, tmp_path, monkeypatch):
        seen = []

        def spy(psi, proc, errors, weights):
            seen.append((proc.name, proc.weights[0]))  # keeps each array alive
            return apply_process(psi, proc, errors, weights)

        apply_process = protocol.apply_process
        monkeypatch.setattr(protocol, "apply_process", spy)
        spec = {"base": {"n_atoms": 100, "alpha": 0.1, "stages": 3, "beta_w": 0.8},
                "axes": {"p_w": [0.001, 0.002, 0.003]}}
        code, _, rows, _ = sweep_csv(tmp_path, spec)
        assert code == EXIT_OK and len(rows) == 3
        for name in ("write", "read"):
            weights = [w for n, w in seen if n == name]
            assert len(weights) == 3  # one batch, three stages
            assert all(w is weights[0] for w in weights)

    def test_failed_heralds_exit_two(self, tmp_path, capsys):
        base = {"alpha": 0.1, "p_r": 0.006, "beta_r": 0.8}
        code, header, rows, _ = sweep_csv(tmp_path, {"base": base, "axes": MIXED_AXES})
        cells = [dict(zip(header, row)) for row in rows]
        failed = [c for c in cells if c["succeeded"] == "false"]
        assert len(failed) == 12 and all(c["p_w"] == "0.0" for c in failed)
        assert all(c["error"] == "" for c in cells)
        assert code == EXIT_PROTOCOL
        assert capsys.readouterr().err.startswith("sweep: 12 of 36 points failed")

    def test_exact_points_run_as_one_batch(self, tmp_path, monkeypatch):
        sizes = []
        monkeypatch.setattr(cli, "run_batch", lambda configs, truncation: (
            sizes.append(len(configs)) or run_batch(configs, truncation)
        ))
        # lossless, so no loss mode: three points fit one BATCH_BYTES batch
        base = {"n_atoms": 100, "alpha": 0.1, "order": "exact",
                "truncation": {"fock_a_max": 5, "fock_b_max": 5, "fock_c_max": 0}}
        code, _, rows, _ = sweep_csv(
            tmp_path, {"base": base, "axes": {"p_w": [0.001, 0.002, 0.003]}}
        )
        assert code == EXIT_OK and len(rows) == 3 and sizes == [3]


#: Lossless exact type I at joint dimension 324, whose write needs more
#: than 6 series terms at p_w = 0.01 and fewer at p_w = p_r = 1e-8.
EXACT_D324 = {"n_atoms": 100, "alpha": 0.1, "p_w": 0.01, "p_r": 1e-8, "order": "exact",
              "truncation": {"fock_a_max": 5, "fock_b_max": 5, "fock_c_max": 0,
                             "atomic_k_max": 8}}
SERIES_FAILURE = "write: Taylor series did not converge in 6 terms"


class TestExactSeriesFailure:
    """A series that does not converge fails its own point, inside a run."""

    @pytest.fixture(autouse=True)
    def six_terms(self, monkeypatch):
        monkeypatch.setattr(joint, "SERIES_TERM_CAP", 6)

    def test_simulate_exits_two(self, tmp_path, capsys):
        assert simulate_exit(tmp_path, EXACT_D324) == EXIT_PROTOCOL
        assert capsys.readouterr().err == f"run failed: {SERIES_FAILURE}\n"

    def test_sweep_point_fails_alone(self, tmp_path, capsys, monkeypatch):
        sizes = []
        monkeypatch.setattr(cli, "run_batch", lambda configs, truncation: (
            sizes.append(len(configs)) or run_batch(configs, truncation)))
        spec = {"base": EXACT_D324, "axes": {"p_w": [0.01, 1e-8]}}
        code, header, rows, _ = sweep_csv(tmp_path, spec)
        assert code == EXIT_PROTOCOL and sizes == [2]
        assert capsys.readouterr().err.startswith("sweep: 1 of 2 points failed")
        failed, scored = (dict(zip(header, row)) for row in rows)
        assert failed["error"] == f"MemampError: {SERIES_FAILURE}"
        assert failed["succeeded"] == "false" and failed["q_amp"] == "nan"
        alone = parse_config(write_config(tmp_path, **dict(EXACT_D324, p_w=1e-8)))
        quality = run_schedule(alone).quality.to_dict()
        assert scored["succeeded"] == "true" and scored["error"] == ""
        assert {key: scored[key] for key in quality} == {
            key: str(value) for key, value in quality.items()}

    def test_a_failing_point_frees_its_batch_at_once(self, monkeypatch):
        """The series error is kept without its traceback, whose frames would
        hold the batch's tensors in a cycle: with the garbage collector off,
        no evolved tensor outlives `run_batch`."""
        evolved = []

        def spy(psi, *args):
            out = apply_process(psi, *args)
            evolved.append(weakref.ref(out))
            return out

        apply_process = protocol.apply_process
        monkeypatch.setattr(protocol, "apply_process", spy)
        configs = [cli.config_from_dict(dict(EXACT_D324, p_w=p_w))
                   for p_w in (0.01, 1e-8)]
        gc.disable()
        try:
            failed, scored = run_batch(configs, batch_key(configs[0])[-1])
            alive = sum(ref() is not None for ref in evolved)
        finally:
            gc.enable()
        assert len(evolved) == 2 and alive == 0
        assert str(failed[1]) == SERIES_FAILURE and failed[1].__traceback__ is None
        assert scored[0] is not None and scored[1] is None


def exact_fields(config):
    """Each field's type and repr: 1 is not 1.0 and 0.0 is not -0.0 here."""
    return [(type(v), repr(v)) for v in (getattr(config, f) for f in CONFIG_FIELDS)]


def grid_configs(base, axes, **checked):
    """`config_from_dict` of each grid point, or the message it raises."""
    configs = []
    for values in itertools.product(*axes.values()):
        try:
            point = {**base, **dict(zip(axes, values))}
            configs.append(cli.config_from_dict(point, **checked))
        except ConfigError as exc:
            configs.append(str(exc))
    return configs


@pytest.fixture
def swept(monkeypatch):
    """The configs each sweep hands to its batches, in grid order."""
    seen = []

    def spy(configs, jobs):
        seen.append(configs)
        return sweep_cells(configs, jobs)

    sweep_cells = cli._sweep_cells
    monkeypatch.setattr(cli, "_sweep_cells", spy)
    return seen


def failed_points(count, points):
    """The stderr line of a sweep with ``count`` of ``points`` failed."""
    return (f"sweep: {count} of {points} points failed; see the succeeded and "
            "error columns\n")


class TestSweepConfigs:
    """Each axis entry is checked once, by its place in its axis, and every
    point's config and config error is the one `config_from_dict` gives; a
    point's config error is its row's ``error`` cell."""

    def run(self, tmp_path, capsys, base, axes):
        """The exit code, stderr and each row's error cell of a sweep."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"base": base, "axes": axes}))
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
        _, rows = read_csv(tmp_path / "out" / "sweep.csv")
        return code, capsys.readouterr().err, [row[-1] for row in rows]

    def test_bad_entry_names_its_key(self, tmp_path, capsys):
        # 20.0 equals the valid 20, but is not an integer
        code, err, errors = self.run(tmp_path, capsys, {"alpha": 0.1},
                                     {"n_atoms": [20, 20.0]})
        assert (code, err) == (EXIT_PROTOCOL, failed_points(1, 2))
        assert errors == [
            "", "ConfigError: n_atoms must be a positive integer, got 20.0"
        ]

    def test_earliest_failing_point_reports(self, tmp_path, capsys):
        # grid order (p_w, stages): (1, 1), then (1, 1.0) fails on stages,
        # then (true, 1) on p_w, and (true, 1.0) on p_w, the first of its
        # failing fields in declaration order
        base, axes = {"n_atoms": 20}, {"p_w": [1, True], "stages": [1, 1.0]}
        message = "stages must be a positive integer, got 1.0"
        p_w = "p_w: expected a number, got True"
        assert grid_configs(base, axes)[1:] == [message, p_w, p_w]
        code, err, errors = self.run(tmp_path, capsys, base, axes)
        assert (code, err) == (EXIT_PROTOCOL, failed_points(3, 4))
        assert errors == ["", f"ConfigError: {message}", f"ConfigError: {p_w}",
                          f"ConfigError: {p_w}"]

    def test_true_next_to_one_fails(self, tmp_path, capsys):
        code, err, errors = self.run(tmp_path, capsys, {"n_atoms": 20},
                                     {"p_w": [1, True]})
        assert (code, err) == (EXIT_PROTOCOL, failed_points(1, 2))
        assert errors == ["", "ConfigError: p_w: expected a number, got True"]

    @pytest.mark.parametrize("base, axes", [
        ({"p_w": 0.001}, {"n_atoms": [3, 20], "alpha": [-0.0, 0.0], "p_r": [1, 1.0]}),
        ({"n_atoms": 2, "stages": 3, "p_w": 0.001},
         {"n_atoms": [4, 20], "alpha": [0.1, -0.0, 0.0, [0.1, -0.0]]}),
        ({"n_atoms": 20, "p_w": 0.001}, {"alpha": [0.0, -0.0, [0.0, -0.0], 0]}),
    ], ids=["n_atoms_only_on_an_axis", "stages_above_base_n_atoms", "signed_zeros"])
    def test_points_equal_config_from_dict(self, tmp_path, capsys, swept, base, axes):
        """A base that fails alone runs once the axes override it, and equal
        entries of one axis keep their own types and zero signs."""
        code, _, _ = self.run(tmp_path, capsys, base, axes)
        assert code == EXIT_OK
        expected = grid_configs(base, axes)
        assert not any(isinstance(c, str) for c in expected)
        assert [exact_fields(c) for c in swept[0]] == [exact_fields(c) for c in expected]

    def test_checks_and_cells_per_batch(self, tmp_path, monkeypatch):
        """A G-point sweep over E axis entries and B base values runs no full
        config check and one field check (`field_value`) per entry and base
        value, builds no QualityReport, and hands its rows to the csv writer
        whole, succeeded already written."""
        inits, checked, reports, written = [], [], [], []
        post_init = ProtocolConfig.__post_init__
        monkeypatch.setattr(ProtocolConfig, "__post_init__",
                            lambda self: inits.append(1) or post_init(self))
        field_value = cli.field_value
        monkeypatch.setattr(cli, "field_value", lambda key, value: (
            checked.append((key, value)) or field_value(key, value)))
        report_init = QualityReport.__init__
        monkeypatch.setattr(QualityReport, "__init__", lambda self, *fields:
                            reports.append(fields) or report_init(self, *fields))
        writer = csv.writer

        class Recording:
            def __init__(self, handle, **kwargs):
                self.writer = writer(handle, **kwargs)

            def writerow(self, row):
                written.append(("row", row))
                return self.writer.writerow(row)

            def writerows(self, rows):
                rows = list(rows)
                written.append(("rows", rows))
                return self.writer.writerows(rows)

        monkeypatch.setattr(csv, "writer", Recording)
        axes = {"p_w": [0.001 * (i + 1) for i in range(6)],
                "p_r": [0.002 * (i + 1) for i in range(5)], "stages": [1, 2]}
        code, header, rows, _ = sweep_csv(tmp_path, {"base": {"n_atoms": 20},
                                                     "axes": axes})
        points, entries = len(rows), sum(map(len, axes.values()))
        assert code == EXIT_OK and points == 60 and entries == 13
        assert inits == []
        assert checked == [("n_atoms", 20), *((key, v) for key, values in axes.items()
                                               for v in values)]
        assert reports == [] and not hasattr(cli, "_format_cell")
        assert [kind for kind, _ in written] == ["row", "rows"]
        assert [row[-2] for row in written[1][1]] == ["true"] * points


#: Entries of each swept key: plain ones, ones that pass the key's own checks
#: but can fail a cross-field check beside other fields (headroom, beta < 1
#: without a loss mode, the target gain; none for p_w), and ones that fail
#: the key's own
_ENTRY = {
    "p_w": ([0.0, -0.0, 0, 1, 1.0, 0.3, 0.001], [],
            [True, False, 1.5, -0.1, None, "0.1", 10**400, [0.1], {}]),
    "beta_w": ([1, 1.0], [0.5, 0.9], [0.0, -0.0, True, 1.5, None]),
    "n_atoms": ([20, 3000], [1, 2, 3], [0, -1, 2.0, True, None, 10**400, [3], {}]),
    "stages": ([1, 2], [3, 1100], [0, 1.0, True, "1"]),
    "alpha": ([0.1, 0, 0.0, -0.0, [0.1, -0.0], [-0.0, 0.0]],
              [1e200, 1e308, [1e308, 1e308]],
              [True, [True, 0], [0.1], "a", 10**400, [0, 10**400], {}]),
}
#: entries that compare equal, and are not all valid or not all stored alike
_TWINS = {
    "p_w": [0, 0.0, -0.0, False, 1, 1.0, True],
    "beta_w": [1, 1.0, True],
    "n_atoms": [1, 2, 2.0, True],
    "stages": [1, 1.0, True],
    "alpha": [0, 0.0, -0.0, [0.0, -0.0], [-0.0, 0.0], False, 1, 1.0, True],
}
for entries in (_ENTRY, _TWINS):
    entries["p_r"], entries["beta_r"] = entries["p_w"], entries["beta_w"]


def _entries(key, plain=7, edge=2, invalid=1):
    """An entry of ``key``, in these proportions: plain, able to fail a
    cross-field check, failing its own checks."""
    tiers = [entries or _ENTRY[key][0] for entries in _ENTRY[key]]
    return st.integers(0, plain + edge + invalid - 1).flatmap(
        lambda i: st.sampled_from(tiers[(i >= plain) + (i >= plain + edge)]))


#: bases mostly valid alone, a few valid only once the axes override them
_SWEEP_BASE = st.fixed_dictionaries(
    {"n_atoms": _entries("n_atoms", plain=18)},
    optional={
        **{key: _entries(key, plain=18) for key in _ENTRY if key != "n_atoms"},
        "schedule": st.sampled_from(["type1", "type2"]),
        "gain_convention": st.sampled_from(["exact", "large_n"]),
        "truncation": st.sampled_from([{"fock_c_max": 0}, {"fock_c_max": 1}]),
    },
)


@st.composite
def sweep_specs(draw):
    """A base and up to three axes: mostly a plain first entry and up to two
    more, of which many can fail a cross-field check, and a few axes of
    entries that compare equal."""
    keys = draw(st.lists(st.sampled_from(sorted(_ENTRY)), min_size=1, max_size=3,
                         unique=True))
    axes = {}
    for key in keys:
        if draw(st.integers(0, 4)) < 4:
            axes[key] = [draw(_entries(key, plain=18)),
                         *draw(st.lists(_entries(key, plain=4, edge=4), max_size=2))]
        else:
            axes[key] = draw(st.lists(st.sampled_from(_TWINS[key]), min_size=2,
                                      max_size=3))
    return draw(_SWEEP_BASE), axes


#: a base rng_seed (none, valid or failing its check) and a --seed flag
_SEEDS = st.tuples(st.sampled_from([None, 0, 5, -1, 2**64, True]),
                   st.sampled_from([None, 0, 2**64 - 1]))


@settings(max_examples=400, deadline=None)
@given(spec=sweep_specs(), seeds=_SEEDS)
@example(spec=({"p_w": 0.001}, {"n_atoms": [20, 1]}), seeds=(None, None))  # headroom
@example(spec=({"n_atoms": 20, "truncation": {"fock_c_max": 0}},
               {"beta_w": [1.0, 0.5]}), seeds=(None, None))  # beta < 1 without a loss mode
@example(spec=({"n_atoms": 3000, "alpha": 1e300, "schedule": "type1"},
               {"stages": [1, 1100]}), seeds=(None, None))  # the target gain overflows
@example(spec=({"n_atoms": 20}, {"p_w": [0.01]}), seeds=(-1, 1))  # a flag over a bad seed
def test_sweep_configs_equal_config_from_dict(spec, seeds):
    """The sweep's configs are `config_from_dict` of each grid point with
    the ``--seed`` flag, field by field with types and zero signs, and each
    point that fails has the message `config_from_dict` raises: headroom,
    beta < 1 without a loss mode, the target-gain overflow and a base
    rng_seed that a flag replaces included."""
    (base, axes), (base_seed, flag) = spec, seeds
    if base_seed is not None:
        base = dict(base, rng_seed=base_seed)
    checked = {} if flag is None else {"rng_seed": flag}
    configs = [str(c) if isinstance(c, ConfigError) else exact_fields(c)
               for c in cli._sweep_configs(base, axes, **checked)]
    assert configs == [c if isinstance(c, str) else exact_fields(c)
                       for c in grid_configs(base, axes, **checked)]


class TestSweepPointConfigErrors:
    """A point past a hard edge of the gain formulas (headroom N >= stages + 1,
    a loss mode for beta < 1) or with a value out of its range fails alone:
    its row's ``error`` cell holds the message `simulate` of the point
    prints, and the sweep exits 2."""

    @pytest.mark.parametrize("base, axes, message, failing", [
        ({"n_atoms": 2}, {"stages": [1, 2]},
         "stages+1 = 3 exceeds n_atoms = 2 (excitation headroom)", [False, True]),
        ({"n_atoms": 20}, {"p_w": [0.01, 2.0]},
         "p_w must be in [0, 1], got 2.0", [False, True]),
        ({"n_atoms": 20, "truncation": {"fock_c_max": 0}}, {"beta_w": [1.0, 0.5]},
         "beta_w or beta_r < 1 needs a loss mode (fock_c_max >= 1)", [False, True]),
        ({"n_atoms": 20, "p_w": 2.0}, {"stages": [1, 2]},
         "p_w must be in [0, 1], got 2.0", [True, True]),
    ], ids=["headroom", "p_w_range", "loss_mode", "every_point"])
    def test_point_fails_alone(self, tmp_path, capsys, base, axes, message, failing):
        code, header, rows, _ = sweep_csv(tmp_path, {"base": base, "axes": axes})
        assert code == EXIT_PROTOCOL and (tmp_path / "sw" / "manifest.json").is_file()
        assert capsys.readouterr().err == failed_points(sum(failing), len(failing))
        assert len(rows) == len(failing)
        points = itertools.product(*axes.values())
        for row, values, fails in zip(rows, points, failing):
            point = dict(base, **dict(zip(axes, values)))
            if fails:
                assert simulate_exit(tmp_path, point) == EXIT_CONFIG
                assert capsys.readouterr().err == f"config error: {message}\n"
                expected = [math.nan] * (len(header) - len(axes) - 2)
                expected += [False, f"ConfigError: {message}"]
            else:
                quality = run_schedule(cli.config_from_dict(point)).quality
                expected = [*quality.to_dict().values(), quality.gain**2, True, ""]
            assert row[len(axes):] == [csv_cell(v) for v in expected]

    def test_grid_guards_come_before_the_points(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"base": {"n_atoms": 2},
                                     "axes": {"stages": [1, 2], "p_w": []}}))
        assert main(["sweep", "--config", str(sweep),
                     "--out", str(tmp_path / "sw")]) == EXIT_GUARD
        assert capsys.readouterr().err == "resource guard: axes.p_w: empty axis\n"

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    @pytest.mark.parametrize("command", ["simulate", "mc", "sweep"])
    def test_bad_seed_flag_is_config_error(self, tmp_path, capsys, command, seed):
        """``--seed`` is a flag, not a grid point: checked once, before the
        grid, it exits 1 for every command and writes no file."""
        data = {"n_atoms": 20}
        if command == "sweep":
            data = {"base": data, "axes": {"p_w": [0.01, 0.02]}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out"),
                "--seed", seed]
        assert main(argv + (["--trials", "10"] if command == "mc" else [])) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: rng_seed must be a u64, got {seed}\n")
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("command", ["simulate", "mc", "sweep"])
    def test_seed_flag_is_checked_before_the_config_file(self, tmp_path, capsys,
                                                         command):
        argv = [command, "--config", str(tmp_path / "missing.json"),
                "--out", str(tmp_path / "out"), "--seed", "-1"]
        assert main(argv + (["--trials", "10"] if command == "mc" else [])) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: rng_seed must be a u64, got -1\n"

    def test_seed_flag_does_not_hide_a_bad_base_seed(self, tmp_path, capsys):
        """A file's rng_seed is checked though ``--seed`` replaces it: each
        row of the sweep fails with the message `simulate` and `mc` print."""
        message = "rng_seed must be a u64, got -1"
        data = {"n_atoms": 20, "rng_seed": -1}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        for argv in (["simulate"], ["mc", "--trials", "10"]):
            assert main(argv + ["--config", str(path), "--seed", "1",
                                "--out", str(tmp_path / "run")]) == EXIT_CONFIG
            assert capsys.readouterr().err == f"config error: {message}\n"
        path.write_text(json.dumps({"base": data, "axes": {"p_w": [0.01]}}))
        assert main(["sweep", "--config", str(path), "--seed", "1",
                     "--out", str(tmp_path / "sw")]) == EXIT_PROTOCOL
        assert capsys.readouterr().err == failed_points(1, 1)
        _, rows = read_csv(tmp_path / "sw" / "sweep.csv")
        assert [row[-2:] for row in rows] == [["false", f"ConfigError: {message}"]]


#: Configs with several errors, as JSON and the library values that differ
#: from it, and the first error: the fields in declaration order, then the
#: headroom, then the loss mode, then the target gain
SEVERAL_ERRORS = [
    ({"n_atoms": 2, "stages": 5, "p_w": 3}, {}, "p_w must be in [0, 1], got 3.0"),
    ({"n_atoms": 0, "alpha": "x"}, {}, "n_atoms must be a positive integer, got 0"),
    ({"n_atoms": 20, "p_w": True, "schedule": "bad"}, {},
     "p_w: expected a number, got True"),
    ({"n_atoms": 2, "stages": 2, "beta_w": 0.5, "truncation": {"fock_c_max": 0}},
     {"truncation": joint.ModeTruncation(fock_c_max=0)},
     "stages+1 = 3 exceeds n_atoms = 2 (excitation headroom)"),
    ({"n_atoms": 3000, "stages": 1100, "beta_r": 0.5, "truncation": {"fock_c_max": 0}},
     {"truncation": joint.ModeTruncation(fock_c_max=0)},
     "beta_w or beta_r < 1 needs a loss mode (fock_c_max >= 1)"),
]


@pytest.mark.parametrize("data, library, message", SEVERAL_ERRORS,
                         ids=["field_before_headroom", "n_atoms_before_alpha",
                              "p_w_before_schedule", "headroom_before_loss_mode",
                              "loss_mode_before_target"])
def test_first_error_is_the_same_on_every_path(tmp_path, capsys, data, library, message):
    """`ProtocolConfig`, `config_from_dict`, `simulate` and a sweep row report
    the same first error of a config with several."""
    with pytest.raises(ConfigError) as built:
        ProtocolConfig(**dict(data, **library))
    with pytest.raises(ConfigError) as parsed:
        cli.config_from_dict(data)
    assert str(built.value) == str(parsed.value) == message
    assert simulate_exit(tmp_path, data) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    # the point's last sweepable key on an axis, the rest in the base
    key = [k for k in data if k in cli._SWEEP_AXES][-1]
    base = {k: v for k, v in data.items() if k != key}
    code, _, rows, _ = sweep_csv(tmp_path, {"base": base, "axes": {key: [data[key]]}})
    assert code == EXIT_PROTOCOL and rows[0][-1] == f"ConfigError: {message}"


def test_field_checks_in_declaration_order():
    assert tuple(protocol._FIELD_CHECKS) == CONFIG_FIELDS


#: Photon cutoffs at, and above, what a first-order stage can reach.
CUTOFFS_ABOVE_THE_REACH = [
    {"fock_a_max": 1, "fock_b_max": 1, "fock_c_max": 2},
    {},
    {"fock_a_max": 6, "fock_b_max": 4, "fock_c_max": 5, "atomic_k_max": 8},
]


class TestReachableBlock:
    """First order evolves only the photon block it can reach (n_a <= 1,
    n_b <= 1, n_c <= 2), on which the joint-dimension cap does not read."""

    def test_cutoffs_above_the_reach_write_the_same_bytes(self, tmp_path):
        base = {"n_atoms": 60, "alpha": 0.2, "p_w": 0.02, "p_r": 0.03,
                "beta_w": 0.7, "beta_r": 0.8, "schedule": "type2", "stages": 3}
        axes = {"p_w": [0.001, 0.02], "beta_r": [0.5, 1.0], "stages": [1, 2]}
        written = []
        for i, truncation in enumerate(CUTOFFS_ABOVE_THE_REACH):
            config = write_config(tmp_path, f"c{i}.json", **base, truncation=truncation)
            sweep = tmp_path / f"s{i}.json"
            sweep.write_text(json.dumps({"base": dict(base, truncation=truncation),
                                         "axes": axes}))
            out = tmp_path / f"out{i}"
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
            assert main(["mc", "--config", str(config), "--trials", "1000000",
                         "--out", str(out)]) == 0
            assert main(["sweep", "--config", str(sweep), "--out", str(out)]) == 0
            written.append([(out / name).read_bytes() for name in (
                "report.json", "stages.csv", "mc_report.json", "sweep.csv"
            )])
        assert written[1] == written[0] and written[2] == written[0]

    def test_dimension_cap_reads_the_configured_cutoffs(self, tmp_path, capsys):
        # 9 x 20001 x 4 x 3 = 2160108 configured; first order evolves 9 x 2 x 2 x 3
        data = {"n_atoms": 100, "truncation": {"fock_a_max": 20000}}
        guard = "resource guard: joint dimension 2160108 exceeds cap 2000000\n"
        assert cli.config_from_dict(data).order is EvolutionOrder.FIRST_ORDER
        assert simulate_exit(tmp_path, data) == EXIT_GUARD
        assert capsys.readouterr().err == guard
        assert mc_exit(tmp_path, data, 10) == EXIT_GUARD
        assert capsys.readouterr().err == guard


class TestOracleCheckCommand:
    def test_passes_up_to_the_cap(self, tmp_path, capsys):
        assert main(["oracle-check", "--n-max", str(MAX_FULL_ATOMS),
                     "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "oracle_check.json").read_text())
        assert payload["all_passed"] is True
        assert len(payload["reports"]) == MAX_FULL_ATOMS - 1
        assert f"N={MAX_FULL_ATOMS}:" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["oracle-check", "--n-max", str(MAX_FULL_ATOMS),
                         "--out", str(out)]) == EXIT_OK
        assert (out_a / "oracle_check.json").read_bytes() == (
            out_b / "oracle_check.json"
        ).read_bytes()
        # the timings live in the manifest, one per ensemble size
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert sorted(manifest["timings"]) == sorted(
            f"verify_ladder_n{n}" for n in range(2, MAX_FULL_ATOMS + 1)
        )

    def test_smallest_ensemble(self, tmp_path):
        assert main(["oracle-check", "--n-max", "2",
                     "--out", str(tmp_path)]) == EXIT_OK

    def test_cap_guard(self, tmp_path):
        assert main(["oracle-check", "--n-max", "20",
                     "--out", str(tmp_path)]) == EXIT_GUARD


class TestMCCommand:
    def test_report_written_and_deterministic(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["mc", "--config", str(config), "--trials", "5000",
                     "--seed", "17", "--out", str(out_a)]) == EXIT_OK
        main(["mc", "--config", str(config), "--trials", "5000",
              "--seed", "17", "--out", str(out_b)])
        assert (out_a / "mc_report.json").read_bytes() == (
            out_b / "mc_report.json"
        ).read_bytes()
        payload = json.loads((out_a / "mc_report.json").read_text())
        assert payload["trials"] == 5000
        assert payload["rng_seed"] == 17

    @pytest.mark.parametrize(
        "data",
        [
            {"n_atoms": 26, "beta_w": 5.6041705077055884e-306,
             "p_r": 0.007333077144292245, "p_w": 0.0040824298896638776,
             "schedule": "type2", "stages": 1},
            {"n_atoms": 100, "p_w": 2.2250738585072014e-308, "stages": 4},
        ],
        ids=["subnormal_beta", "subnormal_coupling"],
    )
    def test_floored_branch_is_a_clean_failure(self, tmp_path, data):
        """Outcomes at or below the zero floor are not sampled, as in simulate."""
        assert mc_exit(tmp_path, data, 1000) == EXIT_OK
        payload = json.loads((tmp_path / "out" / "mc_report.json").read_text())
        assert payload["successes"] == 0
        assert payload["numeric_success_probability"] == 0.0
        assert math.isnan(payload["mean_gain"])

    def test_guard_in_several_branches_raises_the_first_node_in_level_order(
        self, tmp_path, capsys
    ):
        # the second write's four nodes, of shares 0.997, 2.9e-3, 6.2e-6 and
        # 1.1e-8, all leak; node 1 the most, 9.789e-07 weighted
        data = {"n_atoms": 30, "alpha": 0.1, "p_w": 0.003, "p_r": 0.003,
                "beta_w": 0.5, "beta_r": 0.9, "order": "exact",
                "schedule": "type2", "stages": 2,
                "truncation": {"fock_a_max": 6, "fock_b_max": 6,
                               "fock_c_max": 5, "atomic_k_max": 4}}
        message = ("write: exact evolution left population 9.366e-07 on the "
                   "atomic k cutoff (> 1e-08)")
        assert mc_exit(tmp_path, data, 1000) == EXIT_PROTOCOL
        assert capsys.readouterr().err == f"run failed: {message}\n"
        assert simulate_exit(tmp_path, data) == EXIT_PROTOCOL
        assert capsys.readouterr().err == f"run failed: {message}\n"
        with pytest.raises(TruncationLeakageError) as caught:
            monte_carlo(cli.config_from_dict(data), 1000)
        assert str(caught.value) == message

    def test_low_weight_leaks_pass_in_mc_and_simulate(self, tmp_path, capsys):
        """Ten nodes of the last read, of shares 4.3e-8 down to 8.3e-16 of
        their level, leave over LEAK_TOL of their own norm on the mode-c
        cutoff; weighted by their shares none does."""
        assert mc_exit(tmp_path, LOW_WEIGHT_LEAKS, 10**6) == EXIT_OK
        assert simulate_exit(tmp_path, LOW_WEIGHT_LEAKS) == EXIT_OK
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["succeeded"] and report["final_state"] is None

    def test_larger_cutoffs_move_no_metric_beyond_the_guard(self, tmp_path):
        """The cutoffs the weighted guard accepts hold every reported number
        within LEAK_TOL of a run on larger cutoffs."""
        larger = dict(LOW_WEIGHT_LEAKS, truncation={
            "fock_a_max": 6, "fock_b_max": 6, "fock_c_max": 6, "atomic_k_max": 16})
        reports = [run_schedule(cli.config_from_dict(data)).to_dict()
                   for data in (LOW_WEIGHT_LEAKS, larger)]
        numbers = [[v for v in _leaves(report) if isinstance(v, float)]
                   for report in reports]
        assert len(numbers[0]) == len(numbers[1]) > 20
        for small, large in zip(*numbers):
            assert abs(small - large) <= LEAK_TOL or math.isnan(small) and math.isnan(large)

    @pytest.mark.parametrize(
        "data, needed",
        [
            ({"n_atoms": 20, "schedule": "type2", "stages": 3,
              "truncation": {"atomic_k_max": 2}}, 4),
            ({"n_atoms": 20, "alpha": 0, "truncation": {"atomic_k_max": 1}}, 2),
        ],
        ids=["type2_overflows", "type1_vacuum_runs"],
    )
    def test_headroom_is_checked_as_in_simulate(self, tmp_path, capsys, data, needed):
        k_max = data["truncation"]["atomic_k_max"]
        message = (f"config error: atomic_k_max = {k_max} below the schedule's "
                   f"excitation reach {needed}; enlarge the truncation\n")
        assert simulate_exit(tmp_path, data) == EXIT_CONFIG
        assert capsys.readouterr().err == message
        assert mc_exit(tmp_path, data, 1000) == EXIT_CONFIG
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out" / "mc_report.json").exists()

    @pytest.mark.parametrize("trials", [2**63, 10**30])
    def test_trials_beyond_a_count_is_config_error(self, tmp_path, capsys, trials):
        assert mc_exit(tmp_path, {"n_atoms": 100}, trials) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "trials" in err

    def test_trial_count_sets_no_cost(self, tmp_path):
        start = time.perf_counter()
        assert mc_exit(tmp_path, {"n_atoms": 100}, 10**12) == EXIT_OK
        # a per-trial sampler needs hours and terabytes for this count
        assert time.perf_counter() - start < 5.0
        payload = json.loads((tmp_path / "out" / "mc_report.json").read_text())
        assert payload["trials"] == 10**12
        assert sum(row[3] for row in payload["first_stage_outcomes"]) == 10**12


#: The config of the golden `simulate_lossy_exact_mixture` run, whose
#: heralded state is a mixture (its final_state is null).
LOSSY_EXACT_MIXTURE = {
    "n_atoms": 20, "alpha": 0.1, "p_w": 0.02, "p_r": 0.02, "beta_w": 0.8,
    "beta_r": 0.8, "schedule": "type1", "stages": 2, "order": "exact", "rng_seed": 1,
    "truncation": {"fock_a_max": 5, "fock_b_max": 5, "fock_c_max": 5,
                   "atomic_k_max": 14},
}


class TestOutputSchemas:
    """Column orders and key sets of every data file, as literals."""

    QUALITY = ["p_suc", "p_mode", "p_spon", "p_amp", "q_amp", "gain", "fidelity"]

    def test_sweep_csv_header(self, tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({
            "base": {"n_atoms": 100},
            "axes": {"beta_w": [1.0], "p_w": [0.01]},
        }))
        main(["sweep", "--config", str(sweep), "--out", str(tmp_path)])
        header, _ = read_csv(tmp_path / "sweep.csv")
        assert header == ["beta_w", "p_w", *self.QUALITY,
                          "gain_squared", "succeeded", "error"]

    def test_sweep_csv_is_utf8_whatever_the_locale(self, tmp_path):
        """A sweep under an ASCII locale writes the bytes of a UTF-8 run: a
        non-ASCII axis value, in its axis cell and in its point's error cell,
        is encoded as UTF-8, not a traceback and a cut file."""
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"base": {"n_atoms": 20},
                                    "axes": {"p_w": [0.001, "é"]}}))
        src = str(Path(cli.__file__).resolve().parents[1])
        written = []
        for name, locale in [("utf8", {"PYTHONUTF8": "1"}),
                             ("ascii", {"LC_ALL": "C", "PYTHONUTF8": "0"})]:
            out = tmp_path / name
            run = subprocess.run(
                [sys.executable, "-m", "memamp.cli", "sweep", "--config", str(spec),
                 "--out", str(out)],
                env={**os.environ, **locale, "PYTHONPATH": src}, capture_output=True)
            assert run.returncode == EXIT_PROTOCOL, run.stderr
            assert b"Traceback" not in run.stderr
            written.append((out / "sweep.csv").read_bytes())
        assert written[0] == written[1]
        assert written[0].count("é".encode()) == 2

    def test_simulate_files(self, tmp_path):
        config = write_config(tmp_path, beta_w=1, truncation={"fock_c_max": 1})
        main(["simulate", "--config", str(config), "--out", str(tmp_path)])
        stages = ["stage", "kind", "detect_a", "detect_b", "probability",
                  "cumulative_probability", "gain_so_far", "failed"]
        assert read_csv(tmp_path / "stages.csv")[0] == stages
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report) == {
            "succeeded", "stages", "final_state", "final_gain", "final_gain_squared",
            "analytic_gain", "discrepancy", "success_probability", "quality",
            "failure_reason",
        }
        assert set(report["stages"][0]) == set(stages)
        assert set(report["quality"]) == set(self.QUALITY)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest) == {
            "tool", "version", "command", "seed", "timestamp", "config", "outputs"
        }
        assert manifest["config"] == {
            "n_atoms": 100, "alpha": [0.1, 0.0], "p_w": 0.01, "p_r": 0.01,
            "beta_w": 1.0, "beta_r": 1.0, "schedule": "type1", "stages": 1,
            "order": "first_order", "gain_convention": "exact", "rng_seed": 0,
            "truncation": {"fock_a_max": 3, "fock_b_max": 3, "fock_c_max": 1,
                           "atomic_k_max": None},
        }
        # an integer coupling is written as the float the run used
        assert '"beta_w": 1.0' in (tmp_path / "manifest.json").read_text()
        # each record is its schema: a stage row's keys and the stages.csv
        # columns are StageReport's fields but state, the report.json keys
        # AmplificationReport's, for a one-branch run and for a mixture
        mixture = write_config(tmp_path, "mixture.json", **LOSSY_EXACT_MIXTURE)
        assert main(["simulate", "--config", str(mixture),
                     "--out", str(tmp_path / "mixture")]) == EXIT_OK
        for out, final_state in [(tmp_path, list), (tmp_path / "mixture", type(None))]:
            assert read_csv(out / "stages.csv")[0] == list(STAGE_COLUMNS) == stages
            report = json.loads((out / "report.json").read_text())
            assert isinstance(report["final_state"], final_state)
            assert all(sorted(row) == sorted(STAGE_COLUMNS) for row in report["stages"])
            fields = dataclasses.fields(AmplificationReport)
            assert set(report) == {field.name for field in fields}

    def test_csv_cells_in_shortest_form(self, tmp_path):
        """Floats in shortest round-trip form; a bool as JSON's true/false,
        which each command writes as it makes the cells."""
        import numpy as np

        path = tmp_path / "cells.csv"
        cli._write_csv(path, ["a", "b", "c"], [[0.1, np.float64(1 / 3), 7]])
        assert path.read_text() == "a,b,c\n0.1,0.3333333333333333,7\n"
        for p_w, failed in [(0.01, "false"), (0.0, "true")]:
            out = tmp_path / f"p_w{p_w}"
            main(["simulate", "--config", str(write_config(tmp_path, p_w=p_w)),
                  "--out", str(out)])
            header, rows = read_csv(out / "stages.csv")
            assert header[-1] == "failed" and rows[0][-1] == failed

    def test_mc_report_keys(self, tmp_path):
        assert mc_exit(tmp_path, {"n_atoms": 100}, 100) == EXIT_OK
        report = json.loads((tmp_path / "out" / "mc_report.json").read_text())
        assert set(report) == {
            "trials", "successes", "success_frequency", "ci_low", "ci_high",
            "mean_gain", "numeric_success_probability", "rng_seed",
            "stage_survival", "first_stage_outcomes",
        }

    def test_oracle_check_keys(self, tmp_path):
        main(["oracle-check", "--n-max", "3", "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "oracle_check.json").read_text())
        assert set(payload) == {"tolerance", "all_passed", "reports"}
        report = payload["reports"][0]
        # the timing goes to the manifest only
        assert set(report) == {
            "n_atoms", "max_deviation", "max_residual", "passed", "entries"
        }
        assert set(report["entries"][0]) == {
            "k", "direction", "expected", "observed", "deviation", "residual",
            "passed",
        }
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(manifest["timings"]) == ["verify_ladder_n2", "verify_ladder_n3"]


_RUN = {"n_atoms": 100, "alpha": 0.1, "p_w": 0.01, "p_r": 0.01}
_SWEEP = {"base": {"n_atoms": 100}, "axes": {"p_w": [0.001, 0.002]}}


class TestManifestContract:
    """Every command's run that ends with an exit code of 0 or a failed
    herald writes one manifest; a run that raises writes none."""

    KEYS = {"tool", "version", "command", "seed", "timestamp", "config", "outputs"}

    @staticmethod
    def run(tmp_path, argv, config=None):
        if config is not None:
            (tmp_path / "in.json").write_text(json.dumps(config))
            argv = [argv[0], "--config", str(tmp_path / "in.json"), *argv[1:]]
        out = tmp_path / "out"
        code = main([*argv, "--out", str(out)])
        path = out / "manifest.json"
        return code, json.loads(path.read_text()) if path.exists() else None

    @staticmethod
    def echo(data, seed):
        return dict(cli.config_from_dict(data).to_dict(), rng_seed=seed)

    @pytest.mark.parametrize("argv, config, seed, echo, outputs", [
        (["gain", "--n-atoms", "20", "--n-max", "3"], None, None,
         {"n_atoms": 20, "n_max": 3}, ["gain.csv"]),
        (["simulate", "--seed", "7"], _RUN, 7, None, ["report.json", "stages.csv"]),
        (["sweep", "--seed", "4", "--jobs", "1"], _SWEEP, 4, _SWEEP, ["sweep.csv"]),
        (["mc", "--trials", "10", "--seed", "5", "--jobs", "1"], _RUN, 5, None,
         ["mc_report.json"]),
    ], ids=["gain", "simulate", "sweep", "mc"])
    def test_manifest_of_each_command(self, tmp_path, argv, config, seed, echo,
                                      outputs):
        code, manifest = self.run(tmp_path, argv, config)
        assert code == EXIT_OK
        assert set(manifest) == self.KEYS
        assert manifest["tool"] == "memamp"
        assert manifest["version"] == cli.__version__
        assert manifest["command"] == argv[0]
        assert manifest["seed"] == seed
        assert manifest["config"] == (echo or self.echo(config, seed))
        assert manifest["outputs"] == outputs
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
            outputs + ["manifest.json"])
        datetime.fromisoformat(manifest["timestamp"])

    def test_oracle_check_manifest_adds_timings(self, tmp_path):
        code, manifest = self.run(tmp_path, ["oracle-check", "--n-max", "3"])
        assert code == EXIT_OK
        assert set(manifest) == self.KEYS | {"timings"}
        assert (manifest["command"], manifest["seed"]) == ("oracle-check", None)
        assert manifest["config"] == {"n_max": 3}
        assert manifest["outputs"] == ["oracle_check.json"]
        timings = manifest["timings"]
        assert sorted(timings) == ["verify_ladder_n2", "verify_ladder_n3"]
        assert all(isinstance(t, float) and t >= 0.0 for t in timings.values())

    @pytest.mark.parametrize("argv, config, outputs", [
        (["simulate"], dict(_RUN, p_w=0.0), ["report.json", "stages.csv"]),
        (["sweep"], {"base": {"n_atoms": 100}, "axes": {"p_w": [0.001, 0.0]}},
         ["sweep.csv"]),
    ], ids=["failed_herald", "sweep_with_a_failed_point"])
    def test_failed_herald_still_writes_a_manifest(self, tmp_path, argv, config,
                                                    outputs):
        code, manifest = self.run(tmp_path, argv, config)
        assert code == EXIT_PROTOCOL
        assert manifest["command"] == argv[0] and manifest["outputs"] == outputs

    @pytest.mark.parametrize("argv, config, expected", [
        (["simulate"], dict(_RUN, p_w=2.0), EXIT_CONFIG),
        (["mc", "--trials", "0"], _RUN, EXIT_CONFIG),
        (["gain", "--n-atoms", "3", "--n-max", "3"], None, EXIT_CONFIG),
        (["sweep"], {"base": {"n_atoms": 20},
                     "axes": {"p_w": [0.001] * 1001, "p_r": [0.001] * 1000}},
         EXIT_GUARD),
        (["oracle-check", "--n-max", "20"], None, EXIT_GUARD),
        (["simulate"], {"n_atoms": 100, "order": "exact", "truncation": {
            "fock_a_max": 1, "fock_b_max": 1, "fock_c_max": 0}}, EXIT_PROTOCOL),
    ], ids=["config_error", "mc_trials", "gain_headroom", "grid_over_cap",
            "oracle_cap", "run_error"])
    def test_raised_error_writes_no_files(self, tmp_path, capsys, argv, config,
                                          expected):
        code, manifest = self.run(tmp_path, argv, config)
        assert code == expected and manifest is None
        assert not any((tmp_path / "out").iterdir())
        capsys.readouterr()


def run_into(out, argv, config=None):
    """Run ``argv`` into the output directory ``out``, with ``config`` written
    beside it as the ``--config`` file."""
    if config is not None:
        path = out.parent / f"{out.name}.json"
        path.write_text(json.dumps(config))
        argv = [argv[0], "--config", str(path), *argv[1:]]
    return main([*argv, "--out", str(out)])


def untimed(data: bytes) -> bytes:
    """A manifest's bytes with its timestamp and its timing values blanked."""
    return re.sub(rb'("timestamp"|"verify_ladder_n\d+"): [^,\n]+', rb"\1: _", data)


#: Each command's run and a run before it whose every output file, the
#: manifest included, is longer.
RERUNS = {
    "gain": ((["gain", "--n-atoms", "200", "--n-max", "140"], None),
             (["gain", "--n-atoms", "20", "--n-max", "3"], None)),
    "simulate": ((["simulate"], dict(_RUN, alpha=0.123456789, stages=3, rng_seed=99)),
                 (["simulate"], _RUN)),
    "sweep": ((["sweep"], {"base": {"n_atoms": 100},
                           "axes": {"p_w": [0.001, 0.002, 0.003, 0.004]}}),
              (["sweep"], _SWEEP)),
    "oracle-check": ((["oracle-check", "--n-max", "6"], None),
                     (["oracle-check", "--n-max", "3"], None)),
    "mc": ((["mc", "--trials", "1000"], dict(_RUN, alpha=0.123456789, stages=3)),
           (["mc", "--trials", "10"], _RUN)),
}


class TestOutputsRewrittenInPlace:
    """A rerun into a used ``--out`` rewrites each file in place: it ends
    with the new bytes, keeps its inode and mode, and a symlink is written
    through."""

    @pytest.mark.parametrize("stale, run", RERUNS.values(), ids=list(RERUNS))
    def test_rerun_over_longer_files_equals_a_fresh_run(self, tmp_path, capsys,
                                                        stale, run):
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        assert run_into(used, *stale) == EXIT_OK
        assert run_into(fresh, *run) == EXIT_OK
        names = sorted(p.name for p in fresh.iterdir())
        assert names == sorted(p.name for p in used.iterdir())
        for name in names:
            assert (used / name).stat().st_size > (fresh / name).stat().st_size
        assert run_into(used, *run) == EXIT_OK
        for name in names:
            new, expected = (used / name).read_bytes(), (fresh / name).read_bytes()
            if name == "manifest.json":
                new, expected = untimed(new), untimed(expected)
            assert new == expected, name
        capsys.readouterr()

    def test_a_file_keeps_its_inode_and_mode(self, tmp_path):
        stale, run = RERUNS["gain"]
        assert run_into(tmp_path / "out", *stale) == EXIT_OK
        path = tmp_path / "out" / "gain.csv"
        path.chmod(0o640)
        inode = path.stat().st_ino
        assert run_into(tmp_path / "out", *run) == EXIT_OK
        assert run_into(tmp_path / "fresh", *run) == EXIT_OK
        assert (path.stat().st_ino, path.stat().st_mode & 0o777) == (inode, 0o640)
        assert path.read_bytes() == (tmp_path / "fresh" / "gain.csv").read_bytes()

    def test_a_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("stale\n" * 1000)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "gain.csv").symlink_to(target)
        run = RERUNS["gain"][1]
        assert run_into(tmp_path / "out", *run) == EXIT_OK
        assert run_into(tmp_path / "fresh", *run) == EXIT_OK
        assert (tmp_path / "out" / "gain.csv").is_symlink()
        assert target.read_bytes() == (tmp_path / "fresh" / "gain.csv").read_bytes()

    def test_rows_that_raise_leave_the_rows_before_them(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("stale\n" * 1000)

        def rows():
            yield [1, 2.5]
            yield [3, True]
            raise RuntimeError("no third row")

        with pytest.raises(RuntimeError, match="no third row"):
            cli._write_csv(path, ["a", "b"], rows())
        assert path.read_bytes() == b"a,b\n1,2.5\n3,True\n"

    def test_a_short_write_is_continued(self, tmp_path, monkeypatch):
        """os.write may write fewer bytes than it is given."""
        write = cli.os.write
        monkeypatch.setattr(cli.os, "write", lambda fd, data: write(fd, data[:7]))
        payload = {"values": list(range(20)), "name": "short writes"}
        cli._write_json(tmp_path / "out.json", payload)
        text = (tmp_path / "out.json").read_text()
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestUnwritableOutputs:
    """An output path that cannot be written, or a config that cannot be
    read, is a one-line ``file error:`` and exit 1; the data files written
    before it stay on disk, and no manifest is written."""

    @staticmethod
    def error_line(capsys) -> str:
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and err.count("\n") == 1, err
        return err

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        (tmp_path / "out").write_text("a file\n")
        assert run_into(tmp_path / "out", *RERUNS["gain"][1]) == EXIT_CONFIG
        assert "File exists" in self.error_line(capsys)
        assert (tmp_path / "out").read_text() == "a file\n"

    @pytest.mark.parametrize("argv, config, blocked, kept", [
        (["gain", "--n-atoms", "10", "--n-max", "3"], None, "gain.csv", []),
        (["simulate"], _RUN, "stages.csv", ["report.json"]),
        (["simulate"], _RUN, "manifest.json", ["report.json", "stages.csv"]),
    ], ids=["gain_csv", "simulate_stages_csv", "manifest"])
    def test_a_directory_where_a_file_goes(self, tmp_path, capsys, argv, config,
                                           blocked, kept):
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert run_into(out, argv, config) == EXIT_CONFIG
        assert f"Is a directory: '{out / blocked}'" in self.error_line(capsys)
        assert sorted(p.name for p in out.iterdir()) == sorted(kept + [blocked])
        assert run_into(tmp_path / "fresh", argv, config) == EXIT_OK
        for name in kept:
            assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    def test_config_that_cannot_be_read(self, tmp_path, capsys, monkeypatch):
        def unreadable(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        config = write_config(tmp_path)
        monkeypatch.setattr(Path, "read_text", unreadable)
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "Permission denied" in self.error_line(capsys)
        assert not any((tmp_path / "out").iterdir())


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_CONFIG
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["gain", "--n-max", "3"]) == EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize("argv, message", [
        (["oracle-check", "--n-max", "1"], "n_max must be >= 2, got 1"),
        (["gain", "--n-atoms", "10", "--n-max", "-1"], "n_max must be >= 0, got -1"),
    ], ids=["oracle_check", "gain"])
    def test_n_max_below_its_floor(self, tmp_path, capsys, argv, message):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["simulate", "mc"])
    @pytest.mark.parametrize("data, message", [
        ([{"n_atoms": 20}], "config root must be an object"),
        ({"n_atoms": 20, "schedule": "type3"},
         "schedule: expected one of type1, type2, got 'type3'"),
        ({}, "n_atoms: required key is missing"),
        ({"n_atoms": 20, "truncation": {"atomic_k_max": 0}},
         "truncation: atomic_k_max must be >= 1"),
    ], ids=["root_not_an_object", "unknown_schedule", "missing_n_atoms",
            "atomic_cutoff_below_one"])
    def test_config_error_message(self, tmp_path, capsys, command, data, message):
        code = simulate_exit(tmp_path, data) if command == "simulate" else mc_exit(
            tmp_path, data, 10)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MEMAMP_OUT_DIR", str(tmp_path / "envout"))
        assert main(["gain", "--n-atoms", "10", "--n-max", "2"]) == EXIT_OK
        assert (tmp_path / "envout" / "gain.csv").is_file()


#: Exact, lossy, three stages: the undetected mode splits each node into up
#: to four branches, many of negligible share.
LOW_WEIGHT_LEAKS = {
    "n_atoms": 100, "alpha": 0.1, "p_w": 0.002, "p_r": 0.002, "beta_w": 0.8,
    "beta_r": 0.8, "schedule": "type1", "stages": 3, "order": "exact",
    "truncation": {"fock_a_max": 4, "fock_b_max": 4, "fock_c_max": 3, "atomic_k_max": 12},
}


def _leaves(value):
    """The leaves of a JSON-like value, depth first."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def simulate_exit(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])


def mc_exit(tmp_path, data, trials):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return main(["mc", "--config", str(path), "--trials", str(trials),
                 "--out", str(tmp_path / "out")])


class TestConfigTypes:
    """Values of the wrong type are config errors, never tracebacks."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"truncation": {"fock_a_max": 1.5}},
            {"p_w": True},
            {"truncation": {"atomic_k_max": True}},
            {"rng_seed": True},
            {"n_atoms": True},
            {"alpha": [True, 0.0]},
            {"truncation": {"fock_c_max": "2"}},
        ],
        ids=["float_cutoff", "bool_coupling", "bool_atomic_cutoff", "bool_seed",
             "bool_n_atoms", "bool_alpha_part", "string_cutoff"],
    )
    def test_wrong_type_is_config_error(self, tmp_path, capsys, overrides):
        data = {"n_atoms": 100, "alpha": 0.1, **overrides}
        assert simulate_exit(tmp_path, data) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_null_atomic_cutoff_still_allowed(self, tmp_path):
        data = {"n_atoms": 100, "truncation": {"atomic_k_max": None}}
        assert simulate_exit(tmp_path, data) == EXIT_OK

    def test_lossy_coupling_without_loss_mode_is_config_error(self, tmp_path, capsys):
        data = {"n_atoms": 100, "beta_r": 0.5, "truncation": {"fock_c_max": 0}}
        assert simulate_exit(tmp_path, data) == EXIT_CONFIG
        assert "fock_c_max" in capsys.readouterr().err


class TestLargeAlpha:
    @pytest.mark.parametrize("alpha", [1e154, 1e200])
    def test_huge_alpha_runs(self, tmp_path, alpha):
        assert simulate_exit(tmp_path, {"n_atoms": 100, "alpha": alpha}) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["final_gain"] == pytest.approx(1.98, rel=1e-12)

    def test_overflowing_target_is_config_error(self, tmp_path, capsys):
        data = {"n_atoms": 100, "alpha": [1e308, 1e308]}
        assert simulate_exit(tmp_path, data) == EXIT_CONFIG
        # alpha in the [re, im] form manifest.json echoes
        assert capsys.readouterr().err == (
            "config error: alpha = [1e+308, 1e+308]: the target amplitude "
            "gain*alpha is not finite\n")


class TestTinyAlpha:
    """A nonzero |alpha| below protocol.ALPHA_FLOOR (1e-150) is a config error
    for every command that reads a config. Below it a stage's amplitudes can
    turn subnormal: without the floor, 1e-320 at N = 2 reports a gain of
    0.988 where the analytic gain is 1."""

    MESSAGE = "config error: alpha must be 0 or at least 1e-150 in modulus, got "

    @pytest.mark.parametrize("command", ["simulate", "mc"])
    @pytest.mark.parametrize("alpha", [
        1e-320, [0.0, -1e-151],
        [7e-151, -7e-151],  # |re| + |im| above it, |alpha| not
    ])
    def test_simulate_and_mc(self, tmp_path, capsys, command, alpha):
        data = {"n_atoms": 2, "alpha": alpha}
        code = simulate_exit(tmp_path, data) if command == "simulate" else mc_exit(
            tmp_path, data, 10)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"{self.MESSAGE}{alpha}\n"

    def test_sweep_axis(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"base": {"n_atoms": 2},
                                     "axes": {"alpha": [0.1, 0.0, 1e-320]}}))
        assert main(["sweep", "--config", str(sweep),
                     "--out", str(tmp_path / "sw")]) == EXIT_PROTOCOL
        _, rows = read_csv(tmp_path / "sw" / "sweep.csv")
        message = self.MESSAGE.replace("config error: ", "ConfigError: ")
        assert [row[-1] for row in rows] == ["", "", f"{message}1e-320"]
        assert capsys.readouterr().err == failed_points(1, 3)

    @pytest.mark.parametrize("command", ["simulate", "mc", "sweep"])
    @pytest.mark.parametrize("text, message", [
        ("Infinity", "alpha must be finite, got inf"),
        ("[0, -Infinity]", "alpha must be finite, got [0, -inf]"),
        ("[1e-320, 0]", "alpha must be 0 or at least 1e-150 in modulus, got [1e-320, 0]"),
    ], ids=["infinity", "infinite_pair", "tiny_pair"])
    def test_message_echoes_the_value_as_written(self, tmp_path, capsys, command,
                                                 text, message):
        """The value of the file, not the complex it is parsed to; a sweep
        point's in its row's error cell."""
        if command == "sweep":
            text = f'{{"base": {{"n_atoms": 2}}, "axes": {{"alpha": [0.1, {text}]}}}}'
        else:
            text = f'{{"n_atoms": 2, "alpha": {text}}}'
        (tmp_path / "in.json").write_text(text)
        argv = [command, "--config", str(tmp_path / "in.json"),
                "--out", str(tmp_path / "out")]
        code = main(argv + (["--trials", "10"] if command == "mc" else []))
        if command == "sweep":
            assert code == EXIT_PROTOCOL
            _, rows = read_csv(tmp_path / "out" / "sweep.csv")
            assert [row[-1] for row in rows] == ["", f"ConfigError: {message}"]
            assert capsys.readouterr().err == failed_points(1, 2)
        else:
            assert code == EXIT_CONFIG
            assert capsys.readouterr().err == f"config error: {message}\n"


#: a JSON integer beyond the float range
_HUGE = 10**400


class TestUnreadableNumbersAndFiles:
    """Integers beyond the float range and non-UTF-8 files are config errors."""

    @pytest.mark.parametrize(
        "command, key, value",
        [("simulate", "p_w", _HUGE), ("simulate", "alpha", _HUGE),
         ("simulate", "alpha", [_HUGE, 0]), ("mc", "beta_r", -_HUGE),
         ("mc", "alpha", [0.0, _HUGE]), ("simulate", "n_atoms", _HUGE),
         ("mc", "n_atoms", _HUGE)],
        ids=["simulate_p_w", "simulate_alpha", "simulate_alpha_pair", "mc_beta_r",
             "mc_alpha_pair", "simulate_n_atoms", "mc_n_atoms"],
    )
    def test_huge_integer_names_the_key(self, tmp_path, capsys, command, key, value):
        data = {"n_atoms": 100, key: value}
        if command == "simulate":
            code = simulate_exit(tmp_path, data)
        else:
            code = mc_exit(tmp_path, data, 10)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}:") and "Traceback" not in err

    def test_huge_integer_on_a_sweep_axis_names_the_key(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        for key, values in [("p_r", [0.01, _HUGE]), ("n_atoms", [100, _HUGE])]:
            sweep.write_text(json.dumps({"base": {"n_atoms": 100},
                                         "axes": {key: values}}))
            assert main(["sweep", "--config", str(sweep),
                         "--out", str(tmp_path / "sw")]) == EXIT_PROTOCOL
            _, rows = read_csv(tmp_path / "sw" / "sweep.csv")
            assert rows[0][-1] == "" and rows[1][-1].startswith(f"ConfigError: {key}:")
            assert capsys.readouterr().err == failed_points(1, 2)

    @pytest.mark.parametrize("command", ["simulate", "mc", "sweep"])
    def test_config_not_utf8_is_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"n_atoms": 100, "alpha": "\xff"}')
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        if command == "mc":
            argv += ["--trials", "10"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: malformed config") and "Traceback" not in err


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e308, 1e154, 1e-320, 0.5, 1.5, 2.0, 0.0]),
    st.text(max_size=4),
)
#: a value of any JSON type, for a key whose valid value was replaced
_ANY = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3), st.fixed_dictionaries({}))

_PROBABILITY = st.one_of(
    st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=1e-4, max_value=1e-2)
)
_CUTOFF = st.integers(min_value=0, max_value=4)
_TRUNCATION_KEYS = ["fock_a_max", "fock_b_max", "fock_c_max", "atomic_k_max"]
#: valid values of each key, with edge values; sizes stay small (N <= 40, cutoffs <= 4)
_ATOMS = st.integers(min_value=1, max_value=40)
_VALID_VALUES = {
    "alpha": st.one_of(
        st.floats(min_value=-2.0, max_value=2.0),
        st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=2, max_size=2),
        st.sampled_from([1e154, 1e200, 1e308, [1e308, 1e308], [1e200, -1e200]]),
    ),
    "p_w": _PROBABILITY,
    "p_r": _PROBABILITY,
    "beta_w": _PROBABILITY,
    "beta_r": _PROBABILITY,
    "schedule": st.sampled_from(["type1", "type2"]),
    "stages": st.integers(min_value=1, max_value=4),
    "order": st.sampled_from(["first_order", "exact"]),
    "truncation": st.fixed_dictionaries(
        {}, optional={key: _CUTOFF for key in _TRUNCATION_KEYS}
    ),
    "gain_convention": st.sampled_from(["exact", "large_n"]),
    "rng_seed": st.integers(min_value=0, max_value=2**64 - 1),
}
#: configs of valid types with edge values
_VALID = st.fixed_dictionaries({"n_atoms": _ATOMS}, optional=_VALID_VALUES)


_VALID_KEYS = {
    "n_atoms", "alpha", "p_w", "p_r", "beta_w", "beta_r", "schedule", "stages",
    "order", "truncation", "gain_convention", "rng_seed",
}


@st.composite
def simulate_configs(draw):
    """A valid config with up to two keys, or truncation keys, given bad values."""
    data = draw(_VALID)
    keys = sorted(_VALID_KEYS) + ["unknown_key"]
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        data[key] = draw(_ANY)
    if isinstance(data.get("truncation"), dict):
        sub = _TRUNCATION_KEYS + ["fock_z_max"]
        for key in draw(st.lists(st.sampled_from(sub), max_size=2, unique=True)):
            data["truncation"][key] = draw(_ANY)
    return data


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=simulate_configs())
def test_simulate_exit_code_contract(data):
    """Any config JSON ends in exit code 0-3; an escaped exception fails here."""
    with tempfile.TemporaryDirectory() as tmp:
        code = simulate_exit(Path(tmp), data)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_PROTOCOL, EXIT_GUARD)


_TRIALS = st.one_of(
    st.integers(min_value=-2, max_value=50),
    st.integers(min_value=1, max_value=10**12),
    st.sampled_from([2**63, 10**30]),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=simulate_configs(), trials=_TRIALS)
def test_mc_exit_code_contract(data, trials):
    """Any config JSON and trial count end in exit code 0-3, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        code = mc_exit(Path(tmp), data, trials)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_PROTOCOL, EXIT_GUARD)


def _mostly(valid, other, odds=7):
    """``valid``, or ``other`` once in ``odds + 1`` draws."""
    return st.integers(0, odds).flatmap(lambda i: other if i == odds else valid)


#: sweep bases, mostly valid alone (N >= 5 has room for 4 stages; of the
#: cutoffs only fock_c_max, which may be 0, and atomic_k_max, which may be
#: below a type-II schedule's excitation reach, are set), else drawn like
#: `simulate_configs`
_SWEEP_BASE_ANY = _mostly(st.fixed_dictionaries(
    {"n_atoms": st.integers(min_value=5, max_value=40)},
    optional=dict(_VALID_VALUES, truncation=st.fixed_dictionaries({}, optional={
        "fock_c_max": _CUTOFF, "atomic_k_max": st.integers(min_value=1, max_value=4)})),
), simulate_configs(), 3)


@st.composite
def sweep_specs_any(draw):
    """A base from `_SWEEP_BASE_ANY`, and one or two axes of sweepable keys,
    at most 8 points. An axis starts with a valid value of its key; each
    later entry is mostly one, else any JSON value."""
    keys = draw(st.lists(st.sampled_from(sorted(cli._SWEEP_AXES)), min_size=1,
                         max_size=2, unique=True))
    axes, room = {}, 8
    for key in keys:
        valid = _VALID_VALUES.get(key, _ATOMS)
        axes[key] = [draw(valid), *draw(st.lists(_mostly(valid, _ANY), max_size=room - 1))]
        room //= len(axes[key])
    return draw(_SWEEP_BASE_ANY), axes


def shape_error(base, axes) -> bool:
    """Whether a sweep spec of sweepable, nonempty list axes fails its shape
    check: a base that is not an object, an unknown key, or no n_atoms."""
    if not isinstance(base, dict):
        return True
    return bool(set(base) - set(CONFIG_FIELDS)) or "n_atoms" not in {**base, **axes}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=sweep_specs_any())
@example(spec=({"n_atoms": 20, "schedule": "type2", "truncation": {"atomic_k_max": 2}},
               {"stages": [1, 2]}))  # below the excitation reach
@example(spec=({"n_atoms": 2}, {"stages": [1, 2]}))  # headroom
@example(spec=({"n_atoms": 20}, {"p_w": [0.01, 2.0]}))  # out of range
@example(spec=({"n_atoms": 20, "truncation": {"fock_c_max": 0}},
               {"beta_w": [1.0, 0.5]}))  # beta < 1 without a loss mode
@example(spec=({"n_atoms": 20, "pw": 0.01}, {"p_w": [0.01]}))  # unknown key
def test_sweep_exit_code_contract(spec):
    """Any sweep of sweepable axes ends in exit code 0-3, with a message on
    stderr when it is not 0 and never a traceback; it exits 1 exactly when
    the spec's shape is wrong, a point's config error being its row; a sweep
    that ran (0 or 2) writes one row per grid point."""
    base, axes = spec
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.json"
        path.write_text(json.dumps({"base": base, "axes": axes}))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["sweep", "--config", str(path), "--out", tmp])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_PROTOCOL, EXIT_GUARD)
        assert (code == EXIT_CONFIG) == shape_error(base, axes), err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert (err.getvalue() != "") == (code != EXIT_OK)
        if code in (EXIT_OK, EXIT_PROTOCOL):
            _, rows = read_csv(Path(tmp) / "sweep.csv")
            assert len(rows) == math.prod(len(values) for values in axes.values())
