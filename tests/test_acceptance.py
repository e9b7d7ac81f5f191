"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each criterion prints a single PASS/FAIL line so the suite can be read as a
checklist (`pytest -s tests/test_acceptance.py`).
"""

import contextlib
import json
import time

import numpy as np
import pytest

from memamp.cli import main as cli_main
from memamp.dicke import LadderDirection, Schedule, ladder_coeff, weak_coherent_rows
from memamp.joint import EvolutionOrder, HeraldPattern, ModeTruncation
from memamp.oracle import build_dicke_full, collective_apply, project_to_dicke
from memamp.protocol import (
    ProtocolConfig,
    monte_carlo,
    run_schedule,
)
from reference import (
    evolve_stage, fidelity, heralded, p_success_numeric, pair_probability,
)


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    print(f"[criterion {number}] {name}: PASS")


def test_criterion_1_oracle_equivalence():
    with criterion(1, "oracle equivalence for N <= 12"):
        started = time.perf_counter()
        max_deviation = 0.0
        max_residual = 0.0
        for n_atoms in range(1, 13):
            for k in range(n_atoms + 1):
                source = build_dicke_full(k, n_atoms)
                for direction in LadderDirection:
                    raising = direction is LadderDirection.RAISE
                    image = collective_apply(source, n_atoms, raising)
                    coeffs, residual = project_to_dicke(image, n_atoms)
                    target_k = k + 1 if raising else k - 1
                    expected = ladder_coeff(direction, k, n_atoms)
                    if 0 <= target_k <= n_atoms:
                        observed = coeffs[target_k].real
                        coeffs[target_k] = 0.0
                    else:
                        observed = 0.0
                    deviation = max(
                        abs(observed - expected), float(np.max(np.abs(coeffs)))
                    )
                    max_deviation = max(max_deviation, deviation)
                    max_residual = max(max_residual, residual)
        elapsed = time.perf_counter() - started
        assert max_deviation < 1e-10
        assert max_residual < 1e-12
        assert elapsed < 30.0


def test_criterion_2_heralded_gain_eq14():
    with criterion(2, "heralded gain factor (k+1)(1-k/N)"):
        p = 1e-3
        for n_atoms in (3, 10, 100, 10**4):
            trunc = ModeTruncation(fock_a_max=3, fock_b_max=3, fock_c_max=0)
            config = ProtocolConfig(n_atoms, p_w=p, p_r=p, truncation=trunc)
            for k in range(0, min(5, n_atoms) + 1):
                atomic = np.eye(min(n_atoms, 7) + 1)[k]
                states, raw = heralded(evolve_stage(atomic, config), HeraldPattern(1, 1))
                factor = np.sqrt(raw[0]) / p
                expected = (k + 1) * (1.0 - k / n_atoms)
                assert abs(factor - expected) <= 1e-12
                if expected > 0:
                    level = np.eye(states.shape[1])[k]
                    assert fidelity(states[0], level) == pytest.approx(1.0, abs=1e-12)
                if k >= 1:
                    assert (factor > 1.0) == (n_atoms >= k + 2)


def test_criterion_3_eq15_single_stage():
    with criterion(3, "single-stage amplitude ratio 2*alpha*(1-1/N)"):
        alpha, n_atoms = 0.1, 1000
        trunc = ModeTruncation(fock_a_max=3, fock_b_max=3, fock_c_max=0)
        config = ProtocolConfig(n_atoms, p_w=1e-3, p_r=1e-3, truncation=trunc)
        evolved = evolve_stage(weak_coherent_rows([alpha], 2)[0], config)
        states, _ = heralded(evolved, HeraldPattern(1, 1))
        ratio = (states[0, 1] / states[0, 0]).real
        assert abs(ratio - 0.1998) <= 1e-12
        gain = ratio / alpha
        assert abs(gain - 2.0) / 2.0 <= 0.002


def test_criterion_4_gain_table(tmp_path):
    with criterion(4, "gain table reproduces the closed forms"):
        started = time.perf_counter()
        assert cli_main(
            ["gain", "--n-atoms", "100", "--n-max", "10", "--out", str(tmp_path)]
        ) == 0
        lines = (tmp_path / "gain.csv").read_text().strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        type1 = [float(row[1]) for row in rows]
        type2 = [float(row[2]) for row in rows]
        for n in range(11):
            assert type1[n] == (2.0 * (1.0 - 1.0 / 100)) ** n
            assert type2[n] == (n + 1) * (1.0 - n / 100)
        assert type1[1] == type2[1]
        for n in range(2, 11):
            assert type1[n] > type2[n]
        for n in range(10):
            assert abs(type1[n + 1] / type1[n] - 1.98) <= 1e-12
        assert time.perf_counter() - started < 1.0


def test_criterion_5_multistage_vs_closed_form():
    with criterion(5, "multi-stage gain matches the round formulas"):
        started = time.perf_counter()
        n_atoms, p = 100, 1e-3
        lossless = ModeTruncation(fock_a_max=3, fock_b_max=3, fock_c_max=0)
        exact_trunc = ModeTruncation(fock_a_max=4, fock_b_max=4, fock_c_max=0)
        cases = []
        for schedule in Schedule:
            for stages in (1, 3, 5):
                for alpha in (0.05, 0.1):
                    cases.append(
                        (schedule, stages, alpha, EvolutionOrder.FIRST_ORDER,
                         lossless)
                    )
        cases.append((Schedule.TYPE_I, 2, 0.1, EvolutionOrder.EXACT, exact_trunc))
        cases.append((Schedule.TYPE_II, 2, 0.1, EvolutionOrder.EXACT, exact_trunc))
        for schedule, stages, alpha, order, trunc in cases:
            config = ProtocolConfig(
                n_atoms=n_atoms,
                alpha=alpha,
                p_w=p,
                p_r=p,
                schedule=schedule,
                stages=stages,
                order=order,
                truncation=trunc,
            )
            report = run_schedule(config)
            assert report.succeeded
            tolerance = 5 * alpha**2 + 10 * stages * p
            relative = abs(report.final_gain - report.analytic_gain) / (
                report.analytic_gain
            )
            assert relative <= tolerance
        assert time.perf_counter() - started < 10.0


def test_criterion_6_success_probability_convergence():
    with criterion(6, "numeric success probability converges to the printed form"):
        errors = []
        for p in (1e-3, 1e-4, 1e-5):
            config = ProtocolConfig(n_atoms=100, alpha=0.0, p_w=p, p_r=p)
            numeric = p_success_numeric(config)
            analytic = pair_probability(p, p)
            relative = abs(numeric - analytic) / analytic
            assert relative <= 10 * p
            errors.append(relative)
        assert errors[0] > errors[1] > errors[2]


def test_criterion_7_monte_carlo_statistics():
    with criterion(7, "Monte Carlo frequency within 3 sigma, reproducible"):
        started = time.perf_counter()
        trials = 100_000
        config = ProtocolConfig(
            n_atoms=100, alpha=0.1, p_w=0.01, p_r=0.01, rng_seed=424242
        )
        report = monte_carlo(config, trials)
        p = report.numeric_success_probability
        sigma = np.sqrt(p * (1.0 - p) / trials)
        assert abs(report.success_frequency - p) <= 3 * sigma
        repeat = monte_carlo(config, trials)
        assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
            repeat.to_dict(), sort_keys=True
        )
        assert time.perf_counter() - started < 60.0


def test_criterion_8_quality_identity_and_fuzz():
    with criterion(8, "quality identity, beta=1 limit, probability ranges"):
        rng = np.random.default_rng(20250810)
        checked = 0
        lossless_mode = 0
        while checked < 1000:
            n_atoms = int(rng.integers(4, 400))
            stages = int(rng.integers(1, 4))
            alpha = complex(
                rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)
            )
            lossless = bool(rng.random() < 0.5)
            beta_w = 1.0 if lossless else float(rng.uniform(0.4, 1.0))
            beta_r = 1.0 if lossless else float(rng.uniform(0.4, 1.0))
            config = ProtocolConfig(
                n_atoms=n_atoms,
                alpha=alpha,
                p_w=float(10 ** rng.uniform(-5, -1.3)),
                p_r=float(10 ** rng.uniform(-5, -1.3)),
                beta_w=beta_w,
                beta_r=beta_r,
                schedule=Schedule.TYPE_I if rng.random() < 0.5 else Schedule.TYPE_II,
                stages=stages,
            )
            report = run_schedule(config)
            assert report.succeeded  # nonzero couplings herald with p > 0
            quality = report.quality
            values = {
                "p_suc": quality.p_suc,
                "p_mode": quality.p_mode,
                "p_spon": quality.p_spon,
                "p_amp": quality.p_amp,
                "q_amp": quality.q_amp,
                "fidelity": quality.fidelity,
            }
            for name, value in values.items():
                assert -1e-10 <= value <= 1.0 + 1e-10, (name, value, config)
            identity = quality.p_amp * (1 - quality.p_spon) * (1 - quality.p_mode)
            assert abs(quality.q_amp - identity) <= 1e-12
            if beta_w == 1.0 and beta_r == 1.0:
                lossless_mode += 1
                assert abs(quality.p_mode) < 1e-10
            checked += 1
        assert lossless_mode > 100


def test_criterion_9_first_order_vs_exact():
    with criterion(9, "first-order and exact heralds agree"):
        rng = np.random.default_rng(7)
        trunc = ModeTruncation(fock_a_max=5, fock_b_max=5, fock_c_max=0)
        for _ in range(100):
            n_atoms = int(rng.integers(3, 300))
            alpha = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            p_w = float(10 ** rng.uniform(-4, -2))
            p_r = float(10 ** rng.uniform(-4, -2))
            atomic = weak_coherent_rows([alpha], 2)[0]
            states = []
            for order in (EvolutionOrder.FIRST_ORDER, EvolutionOrder.EXACT):
                config = ProtocolConfig(n_atoms, p_w=p_w, p_r=p_r, order=order,
                                        truncation=trunc)
                rows, _ = heralded(evolve_stage(atomic, config), HeraldPattern(1, 1))
                states.append(rows[0])
            assert fidelity(*states) >= 1 - 10 * max(p_w, p_r)