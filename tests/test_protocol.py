"""Schedules, stage pipelines and Monte Carlo heralding statistics."""

import dataclasses
import itertools
import json
import math
import numbers
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy import stats

from memamp.dicke import Schedule, weak_coherent_rows
from memamp.errors import ConfigError, MemampError
from memamp.joint import EvolutionOrder, ModeTruncation, is_integer, is_real
from memamp.metrics import QualityReport
from memamp import protocol
from memamp.protocol import (
    ALPHA_FLOOR,
    GainConvention,
    ProtocolConfig,
    StageKind,
    batch_key,
    batch_rows,
    monte_carlo,
    run_batch,
    run_schedule,
)
from reference import (
    TrajectoryTreePerNode, configured_truncation, dense_schedule, evolve_stage,
    fidelity, gain_eigenvalues, heralded, monte_carlo_per_node, run_stage,
    six_slab_first_order_guards,
)

TOL = 1e-12
LOSSLESS = ModeTruncation(fock_a_max=3, fock_b_max=3, fock_c_max=0)


class TestProtocolConfig:
    def test_defaults(self):
        config = ProtocolConfig(n_atoms=100)
        assert config.schedule is Schedule.TYPE_I
        assert config.stages == 1
        assert config.order is EvolutionOrder.FIRST_ORDER
        assert config.beta_w == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_atoms": 0},
            {"n_atoms": 5, "stages": 5},
            {"n_atoms": 10, "p_w": 1.5},
            {"n_atoms": 10, "p_r": -0.1},
            {"n_atoms": 10, "beta_w": 0.0},
            {"n_atoms": 10, "beta_r": 1.5},
            {"n_atoms": 10, "rng_seed": -1},
            {"n_atoms": 10, "rng_seed": 2**64},
            {"n_atoms": 10, "alpha": float("nan")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ProtocolConfig(**kwargs)

    @pytest.mark.parametrize(
        "key, value",
        [("p_w", True), ("beta_r", True), ("alpha", True), ("p_r", "0.01"),
         ("beta_w", None), ("alpha", "0.1"), ("alpha", [0.1, 0.0])],
    )
    def test_non_number_rejected(self, key, value):
        """Bools are not numbers: p_w = True must not run as p_w = 1."""
        with pytest.raises(ConfigError) as info:
            ProtocolConfig(n_atoms=10, **{key: value})
        assert str(info.value) == f"{key}: expected a number, got {value!r}"

    @pytest.mark.parametrize("key, value, message", [
        ("schedule", "type1", "schedule must be of type Schedule, got 'type1'"),
        ("schedule", None, "schedule must be of type Schedule, got None"),
        ("order", "exact", "order must be of type EvolutionOrder, got 'exact'"),
        ("gain_convention", "exact",
         "gain_convention must be of type GainConvention, got 'exact'"),
        ("truncation", {}, "truncation must be of type ModeTruncation, got {}"),
    ])
    def test_non_member_rejected(self, key, value, message):
        """A string is not a member: schedule = "type1" must not run as type II."""
        with pytest.raises(ConfigError) as info:
            ProtocolConfig(n_atoms=100, stages=2, **{key: value})
        assert str(info.value) == message

    def test_numbers_stored_as_python_floats(self):
        config = ProtocolConfig(
            n_atoms=10, p_w=0, p_r=np.float32(0.5), beta_w=1, alpha=np.complex64(1j)
        )
        assert [type(v) for v in (config.p_w, config.p_r, config.beta_w)] == [float] * 3
        assert (config.p_w, config.p_r, config.beta_w) == (0.0, 0.5, 1.0)
        assert config.alpha == 1j and type(config.alpha) is complex

    @pytest.mark.parametrize("value, integer, real, number", [
        (3, True, True, True),
        (0.5, False, True, True),
        (True, False, False, False),
        (np.float64(0.5), False, True, True),
        (np.int64(3), True, True, True),
        (np.bool_(True), False, False, False),
        (Fraction(1, 2), False, True, True),
        (Decimal("0.5"), False, False, False),
    ], ids=["int", "float", "bool", "float64", "int64", "bool_", "Fraction", "Decimal"])
    def test_number_checks_by_type(self, value, integer, real, number):
        """The number checks accept what the numbers ABCs accept, bools
        rejected, numpy scalars accepted."""
        not_bool = not isinstance(value, bool)
        assert is_integer(value) is integer
        assert integer == (isinstance(value, numbers.Integral) and not_bool)
        assert is_real(value) is real
        assert real == (isinstance(value, numbers.Real) and not_bool)
        assert number == (isinstance(value, numbers.Complex) and not_bool)
        for key, accepted, message in [
            ("n_atoms", integer, f"n_atoms must be a positive integer, got {value}"),
            ("p_r", real, f"p_r: expected a number, got {value!r}"),
            ("alpha", number, f"alpha: expected a number, got {value!r}"),
        ]:
            try:
                ProtocolConfig(**dict({"n_atoms": 10}, **{key: value}))
                error = None
            except ConfigError as exc:
                error = str(exc)
            # an accepted type may still be out of range (p_r = 3)
            assert (error == message) is not accepted, (key, error)

    @pytest.mark.parametrize("derived", [False, True], ids=["built", "derived"])
    def test_headroom_message_names_both_numbers(self, derived):
        with pytest.raises(ConfigError) as error:
            if derived:
                ProtocolConfig.from_fields({"n_atoms": 5, "stages": 10})
            else:
                ProtocolConfig(n_atoms=5, stages=10)
        assert str(error.value) == (
            "stages+1 = 11 exceeds n_atoms = 5 (excitation headroom)"
        )

    def test_headroom_checked_at_run(self):
        config = ProtocolConfig(
            n_atoms=100, schedule=Schedule.TYPE_II, stages=8
        )  # default atomic_k_max = 8 < stages + 1
        with pytest.raises(ConfigError):
            run_schedule(config)


class TestAlphaFloor:
    """0 < |alpha| < ALPHA_FLOOR is a config error (`test_cli.TestTinyAlpha`):
    below it the stage's amplitudes, about |alpha| sqrt(p_w p_r), can turn
    subnormal. At the floor they stay normal down to the herald floor."""

    @pytest.mark.parametrize("alpha", [0.0, -0.0, 0j, ALPHA_FLOOR, -ALPHA_FLOOR * 1j,
                                       8e-151 + 8e-151j])  # each part below the floor
    def test_zero_and_the_floor_are_valid(self, alpha):
        assert ProtocolConfig(n_atoms=2, alpha=alpha).alpha == alpha

    @pytest.mark.parametrize("order", list(EvolutionOrder))
    @pytest.mark.parametrize("schedule, stages",
                             [(Schedule.TYPE_I, 1), (Schedule.TYPE_I, 3),
                              (Schedule.TYPE_II, 2)])
    def test_gain_exact_at_the_floor(self, order, schedule, stages):
        # p = 1e-139: the herald probability sits near ZERO_PROB_FLOOR, the
        # smallest sqrt(p_w p_r) that heralds
        config = ProtocolConfig(n_atoms=20, alpha=ALPHA_FLOOR, p_w=1e-139, p_r=1e-139,
                                schedule=schedule, stages=stages, order=order)
        report = run_schedule(config)
        assert report.final_gain == pytest.approx(report.analytic_gain, rel=1e-15)


class TestRunStage:
    def test_write_then_read_gain_step(self):
        config = ProtocolConfig(
            n_atoms=1000, alpha=0.1, p_w=1e-3, p_r=1e-3, truncation=LOSSLESS
        )
        report = run_stage(
            weak_coherent_rows([0.1], 9)[0],
            config,
            StageKind.WRITE_THEN_READ,
        )
        assert not report.failed
        assert report.gain_so_far == pytest.approx(1.998, abs=TOL)
        assert report.detect_a == 1 and report.detect_b == 1

    def test_write_only_on_ground(self):
        p_w, beta_w = 2e-3, 0.8
        config = ProtocolConfig(n_atoms=100, alpha=0.0, p_w=p_w, beta_w=beta_w)
        report = run_stage(np.eye(9)[0], config, StageKind.WRITE_ONLY)
        assert not report.failed
        assert fidelity(report.state, np.eye(9)[1]) == pytest.approx(
            1.0, abs=TOL
        )
        assert report.probability == pytest.approx(
            p_w * beta_w / (1 + p_w), rel=1e-12
        )

    def test_read_only_on_ground_fails(self):
        config = ProtocolConfig(n_atoms=100, alpha=0.0, p_r=1e-3)
        report = run_stage(np.eye(9)[0], config, StageKind.READ_ONLY)
        assert report.failed
        assert report.probability == 0.0
        assert report.state is None


class TestRunSchedule:
    @pytest.mark.parametrize("alpha", [ALPHA_FLOOR, 1e200, 1e308, 1.5e308 + 1.5e308j])
    def test_gain_finite_at_extreme_alpha(self, alpha):
        # N = 2, type2: the target gain is 1, so even |alpha| ~ 1e308 is allowed
        config = ProtocolConfig(n_atoms=2, alpha=alpha, schedule=Schedule.TYPE_II)
        report = run_schedule(config)
        assert report.final_gain == pytest.approx(1.0, rel=0.05)

    def test_overflowing_target_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
            ProtocolConfig(n_atoms=100, alpha=1e308)
        with pytest.raises(ConfigError, match="target gain"):
            ProtocolConfig(n_atoms=3000, stages=1100)

    def test_type1_three_stages(self):
        config = ProtocolConfig(
            n_atoms=100,
            alpha=0.05,
            p_w=1e-3,
            p_r=1e-3,
            schedule=Schedule.TYPE_I,
            stages=3,
            truncation=LOSSLESS,
        )
        report = run_schedule(config)
        assert report.succeeded
        assert report.analytic_gain == pytest.approx(7.762392, rel=1e-12)
        tolerance = 5 * 0.05**2 + 10 * 3 * 1e-3
        assert abs(report.final_gain - report.analytic_gain) <= (
            tolerance * report.analytic_gain
        )
        # first-order staging reproduces the closed form to precision
        assert report.discrepancy < 1e-9

    def test_type2_three_stages(self):
        config = ProtocolConfig(
            n_atoms=100,
            alpha=0.05,
            p_w=1e-3,
            p_r=1e-3,
            schedule=Schedule.TYPE_II,
            stages=3,
            truncation=LOSSLESS,
        )
        report = run_schedule(config)
        assert report.succeeded
        assert len(report.stages) == 6
        assert report.analytic_gain == pytest.approx(3.88, abs=TOL)
        assert report.discrepancy < 1e-9

    @pytest.mark.parametrize("order", list(EvolutionOrder))
    def test_type2_intermediate_gain_undefined(self, order):
        # between the first write and the last read the heralded state has no
        # k = 0 population; evolution must leave that amplitude exactly zero,
        # so gain_so_far is NaN at either order, not a quotient of noise
        config = ProtocolConfig(
            n_atoms=200,
            alpha=0.1,
            p_w=1e-2,
            p_r=5e-3,
            schedule=Schedule.TYPE_II,
            stages=2,
            order=order,
            truncation=ModeTruncation(6, 6, 0, 14),
        )
        report = run_schedule(config)
        assert report.succeeded
        *intermediate, last = report.stages
        for stage in intermediate:
            assert stage.state[0] == 0
            assert np.isnan(stage.gain_so_far)
        assert last.gain_so_far == pytest.approx(report.analytic_gain, rel=2e-2)

    def test_run_stage_chain_reproduces_schedule(self):
        config = ProtocolConfig(
            n_atoms=60, alpha=0.2, p_w=2e-3, p_r=1e-3, beta_w=0.7,
            schedule=Schedule.TYPE_II, stages=2,
        )
        report = run_schedule(config)
        state = weak_coherent_rows([config.alpha], 9)[0]
        cumulative = 1.0
        for index, expected in enumerate(report.stages):
            stage = run_stage(
                state, config, expected.kind,
                stage=index, cumulative_in=cumulative,
            )
            # json text compares NaN gains equal
            assert json.dumps(stage.to_row()) == json.dumps(expected.to_row())
            assert np.array_equal(stage.state, expected.state)
            state, cumulative = stage.state, stage.cumulative_probability

    def test_schedules_coincide_at_one_stage(self):
        common = dict(
            n_atoms=200, alpha=0.1, p_w=1e-3, p_r=2e-3, truncation=LOSSLESS
        )
        r1 = run_schedule(ProtocolConfig(schedule=Schedule.TYPE_I, **common))
        r2 = run_schedule(ProtocolConfig(schedule=Schedule.TYPE_II, **common))
        assert r1.analytic_gain == r2.analytic_gain
        assert abs(r1.final_gain - r2.final_gain) <= TOL
        assert fidelity(r1.final_state, r2.final_state) == pytest.approx(
            1.0, abs=TOL
        )
        # the operators coincide; the staged probabilities differ only at
        # the non-unitary O(p) bookkeeping of the first-order expansion
        assert r1.success_probability == pytest.approx(
            r2.success_probability, rel=10 * 2e-3
        )

    def test_cumulative_is_stage_product(self):
        config = ProtocolConfig(
            n_atoms=50,
            alpha=0.1,
            p_w=5e-3,
            p_r=5e-3,
            schedule=Schedule.TYPE_II,
            stages=2,
            truncation=LOSSLESS,
        )
        report = run_schedule(config)
        product = 1.0
        for stage in report.stages:
            product *= stage.probability
            assert stage.cumulative_probability == pytest.approx(product, abs=TOL)
        assert report.success_probability == pytest.approx(product, abs=TOL)

    def test_markov_factorization_one_shot(self):
        # exact evolution is unitary, so chaining unnormalized conditionals
        # accumulates exactly the joint probability of the herald sequence
        from memamp.protocol import STAGE_PATTERNS, stage_plan

        trunc = ModeTruncation(fock_a_max=4, fock_b_max=4, fock_c_max=0)
        config = ProtocolConfig(
            n_atoms=50,
            alpha=0.1,
            p_w=1e-3,
            p_r=1e-3,
            schedule=Schedule.TYPE_I,
            stages=3,
            order=EvolutionOrder.EXACT,
            truncation=trunc,
        )
        report = run_schedule(config)
        assert report.succeeded

        state = weak_coherent_rows([0.1], 9)[0]
        joint_probability = 1.0
        for kind in stage_plan(config):
            psi = evolve_stage(state, config, kind)
            conditional, raw = heralded(psi, STAGE_PATTERNS[kind])
            # carry the unnormalized conditional: its norm is the amplitude
            state = conditional[0] * np.sqrt(raw[0])
            joint_probability = raw[0]
        assert report.success_probability == pytest.approx(
            joint_probability, rel=1e-10
        )

    def test_pure_dicke_eigenvalue_ratios(self):
        # stage amplitudes on |k,N> reproduce the multi-round eigenvalues;
        # at first order a pure-level stage has total weight 1 + raw, so the
        # raw herald weight is prob / (1 - prob), and the chained raws carry
        # one factor of p per process times the squared operator eigenvalue
        n_atoms, p = 40, 1e-3
        config = ProtocolConfig(
            n_atoms=n_atoms,
            alpha=0.0,
            p_w=p,
            p_r=p,
            schedule=Schedule.TYPE_II,
            stages=2,
            truncation=LOSSLESS,
        )
        for k in (0, 1, 2):
            state = np.eye(6)[k]
            raw_product = 1.0
            for kind in [StageKind.WRITE_ONLY] * 2 + [StageKind.READ_ONLY] * 2:
                report = run_stage(state, config, kind)
                assert not report.failed
                raw_product *= report.probability / (1 - report.probability)
                state = report.state
            eigenvalue = np.sqrt(raw_product) / p**2
            expected = gain_eigenvalues(Schedule.TYPE_II, n_atoms, 2, k + 1)[k]
            assert eigenvalue == pytest.approx(expected, rel=1e-10)

    def test_gain_monotone_in_stage_count(self):
        gains = []
        for stages in range(1, 5):
            config = ProtocolConfig(
                n_atoms=100,
                alpha=0.05,
                p_w=1e-3,
                p_r=1e-3,
                stages=stages,
                truncation=LOSSLESS,
            )
            gains.append(run_schedule(config).final_gain)
        assert all(b > a for a, b in zip(gains, gains[1:]))

    def test_zero_probability_schedule_fails_cleanly(self):
        config = ProtocolConfig(n_atoms=100, alpha=0.1, p_w=0.0, p_r=1e-3)
        report = run_schedule(config)
        assert not report.succeeded
        assert report.success_probability == 0.0
        assert report.quality is None
        assert "stage 0" in report.failure_reason

    def test_quality_attached_on_success(self):
        config = ProtocolConfig(n_atoms=100, alpha=0.1, p_w=1e-3, p_r=1e-3)
        report = run_schedule(config)
        quality = report.quality
        assert quality is not None
        assert quality.p_suc == pytest.approx(report.success_probability, abs=TOL)
        assert abs(quality.p_mode) < 1e-10  # beta = 1
        assert quality.q_amp == pytest.approx(
            quality.p_amp * (1 - quality.p_spon) * (1 - quality.p_mode), abs=TOL
        )
        assert quality.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_large_n_convention_changes_target(self):
        base = dict(n_atoms=10, alpha=0.1, p_w=1e-3, p_r=1e-3)
        exact = run_schedule(
            ProtocolConfig(gain_convention=GainConvention.EXACT, **base)
        )
        large_n = run_schedule(
            ProtocolConfig(gain_convention=GainConvention.LARGE_N, **base)
        )
        # finite-N run measured against the 2-alpha target loses fidelity
        assert exact.quality.fidelity > large_n.quality.fidelity
        assert large_n.quality.fidelity < 1 - 1e-6

    def test_large_n_type2_target_is_stages_plus_one_alpha(self):
        alpha = 0.1
        config = ProtocolConfig(
            n_atoms=10, alpha=alpha, p_w=1e-3, p_r=1e-3, schedule=Schedule.TYPE_II,
            stages=2, gain_convention=GainConvention.LARGE_N,
        )
        report = run_schedule(config)
        target = np.zeros(len(report.final_state), dtype=complex)
        target[:2] = 1.0, 3 * alpha  # (stages + 1) alpha
        target /= np.linalg.norm(target)
        expected = abs(np.vdot(target, report.final_state)) ** 2
        assert report.quality.fidelity == pytest.approx(expected, rel=1e-12)
        assert expected < 1 - 1e-3  # the finite-N gain 2.4 misses the target 3


class TestMonteCarlo:
    def test_same_seed_identical_reports(self):
        config = ProtocolConfig(
            n_atoms=100, alpha=0.1, p_w=0.01, p_r=0.01, rng_seed=123
        )
        first = monte_carlo(config, 20_000)
        second = monte_carlo(config, 20_000)
        assert first == second
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )

    def test_different_seed_differs(self):
        config_a = ProtocolConfig(n_atoms=100, p_w=0.05, p_r=0.05, rng_seed=1)
        config_b = ProtocolConfig(n_atoms=100, p_w=0.05, p_r=0.05, rng_seed=2)
        a = monte_carlo(config_a, 50_000)
        b = monte_carlo(config_b, 50_000)
        assert a.first_stage_outcomes != b.first_stage_outcomes

    def test_zero_coupling_never_succeeds(self):
        config = ProtocolConfig(n_atoms=50, alpha=0.1, p_w=0.0, p_r=0.01)
        report = monte_carlo(config, 5_000)
        assert report.successes == 0
        assert np.isnan(report.mean_gain)

    def test_success_rate_within_three_sigma(self):
        config = ProtocolConfig(
            n_atoms=100, alpha=0.1, p_w=0.01, p_r=0.01, rng_seed=20240817
        )
        trials = 100_000
        report = monte_carlo(config, trials)
        p = report.numeric_success_probability
        sigma = np.sqrt(p * (1 - p) / trials)
        assert abs(report.success_frequency - p) <= 3 * sigma

    def test_mean_gain_matches_deterministic_run(self):
        config = ProtocolConfig(
            n_atoms=100, alpha=0.1, p_w=0.05, p_r=0.05, rng_seed=5
        )
        mc = monte_carlo(config, 200_000)
        deterministic = run_schedule(config)
        assert mc.successes > 0
        assert mc.mean_gain == pytest.approx(deterministic.final_gain, abs=1e-9)

    def test_first_stage_chi_square(self):
        config = ProtocolConfig(
            n_atoms=100, alpha=0.1, p_w=0.01, p_r=0.01, rng_seed=99
        )
        trials = 100_000
        report = monte_carlo(config, trials)
        psi = evolve_stage(weak_coherent_rows([0.1], 9)[0], config)[0]
        probs = np.sum(np.abs(psi) ** 2, axis=0) / np.sum(np.abs(psi) ** 2)
        observed, expected = [], []
        for n_a, n_b, n_c, count in report.first_stage_outcomes:
            observed.append(count)
            expected.append(probs[n_a, n_b, n_c] * trials)
        # every simulated-probability bin is represented in the sample
        hot = np.argwhere(probs * trials >= 1)
        assert len(observed) == len(hot)
        expected = np.array(expected) * (sum(observed) / sum(expected))
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.01

    def test_survival_is_monotone(self):
        config = ProtocolConfig(
            n_atoms=100,
            alpha=0.1,
            p_w=0.2,
            p_r=0.2,
            schedule=Schedule.TYPE_II,
            stages=2,
            rng_seed=11,
        )
        report = monte_carlo(config, 20_000)
        survival = report.stage_survival
        assert len(survival) == 4
        assert all(b <= a for a, b in zip(survival, survival[1:]))

    def test_lossy_trajectories_sample_undetected_mode(self):
        config = ProtocolConfig(
            n_atoms=100,
            alpha=0.1,
            p_w=0.1,
            p_r=0.1,
            beta_w=0.6,
            beta_r=0.6,
            rng_seed=3,
        )
        report = monte_carlo(config, 50_000)
        assert report.successes > 0
        assert np.isfinite(report.mean_gain)
        # undetected-mode occupations appear among first-stage outcomes
        assert any(row[2] > 0 for row in report.first_stage_outcomes)

    def test_lossy_type2_ten_billion_trials(self):
        """Counts split per tree node: 1e10 trials cost no per-trial memory."""
        config = ProtocolConfig(
            n_atoms=100,
            alpha=0.1,
            p_w=0.05,
            p_r=0.05,
            beta_w=0.8,
            beta_r=0.8,
            schedule=Schedule.TYPE_II,
            stages=2,
            rng_seed=7,
        )
        trials = 10**10
        report = monte_carlo(config, trials)
        first = report.first_stage_outcomes
        assert sum(row[3] for row in first) == trials
        # the first type-II stage is a write-only round, heralded on (1, 0)
        assert report.stage_survival[0] == sum(
            row[3] for row in first if (row[0], row[1]) == (1, 0)
        )
        survival = report.stage_survival
        assert all(b <= a for a, b in zip(survival, survival[1:]))
        p = run_schedule(config).success_probability
        sigma = np.sqrt(trials * p * (1 - p))
        assert abs(report.successes - trials * p) <= 5 * sigma

    def test_trials_validated(self):
        config = ProtocolConfig(n_atoms=10)
        with pytest.raises(ConfigError):
            monte_carlo(config, 0)

    @pytest.mark.parametrize("trials", [0, 2.9, True, 2**63])
    def test_trials_must_be_a_count(self, trials):
        """A trial count is an integer in [1, 2**63 - 1]: no float, no bool,
        nothing a multinomial cannot draw. `monte_carlo` is its only check."""
        config = ProtocolConfig(n_atoms=100, p_w=0.3, p_r=0.3)
        with pytest.raises(ConfigError, match=r"^trials must be in \[1, 2\*\*63 - 1\], got"):
            monte_carlo(config, trials)


@st.composite
def mc_configs(draw):
    """Both orders and schedules, 1-3 stages, lossy or lossless; exact-order
    truncations stay small (joint dimension <= 700)."""
    order = draw(st.sampled_from(list(EvolutionOrder)))
    lossy = draw(st.booleans())
    beta = st.floats(0.3, 0.99) if lossy else st.just(1.0)
    part = st.floats(-1.0, 1.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-50)
    kwargs = dict(
        n_atoms=draw(st.integers(4, 10**6)), alpha=complex(draw(part), draw(part)),
        p_w=draw(st.floats(1e-5, 0.05)), p_r=draw(st.floats(1e-5, 0.05)),
        beta_w=draw(beta), beta_r=draw(beta), schedule=draw(st.sampled_from(list(Schedule))),
        stages=draw(st.integers(1, 3)), order=order,
    )
    if order is EvolutionOrder.EXACT:
        kwargs["truncation"] = ModeTruncation(
            draw(st.integers(2, 4)), draw(st.integers(2, 4)),
            draw(st.integers(1 if lossy else 0, 3)), draw(st.integers(2, 6)))
    return kwargs


@settings(max_examples=100, deadline=None)
@given(kwargs=mc_configs())
def test_mc_success_probability_is_run_schedules(kwargs):
    """`mc`'s P_suc is `simulate`'s bit for bit: one stage loop, one product."""
    try:
        config = ProtocolConfig(**kwargs)
        expected = run_schedule(config).success_probability
    except (MemampError, ValueError):
        reject()
    assert monte_carlo(config, 1).numeric_success_probability == expected


class TestCollectiveEnhancement:
    """The paper's central claim at first order: the heralds multiply level k
    of the stored state by the collective factor eta(k) = (k+1)(N-k)/N
    (`dicke.ladder_eigenvalue`), which tends to k + 1 as N grows. Normalized,
    a type-I stage heralds eta(k) c_k; s type-II writes herald
    sqrt(prod_{j<s} eta(k+j)) c_k on level k + s, and the n reads bring it
    back to prod_{j<n} eta(k+j) c_k on level k. Every stage's heralded state
    is compared with this closed form, evaluated in 60-digit decimals from
    the stored amplitudes c, within the bound `STAGE_ULPS` derives."""

    #: The bound on each level's relative error, in units u = 2**-53, from
    #: the arithmetic of a stage. A coupling weight g sqrt(eta) rounds eta
    #: (N - k, times k + 1, over N: 3), its sqrt (1.5 + 1) and the product by
    #: g (1): 3.5, g itself being common to every level. Each heralded
    #: amplitude is its input times the weights of the stage's processes, one
    #: rounding per product: 4.5 for a write-only or read-only stage, 9 for a
    #: write-read one. Normalizing divides it by the rounded norm, one more
    #: rounding per level (1); the norm's own error, |a| (hypot, within one
    #: ulp: 2) squared (4 + 1) and summed over the two nonzero levels (1),
    #: square-rooted (3 + 1), is common to the levels, as are the weights' g.
    #: A level's own errors add up over the stages to R, while the common ones
    #: only rescale the state, whose computed norm is within 5 of 1; so each
    #: level is within 2R + 5 of the closed form, plus 1 for the second-order
    #: terms and the rounding of N above 2**53 (below k/N ulps).
    STAGE_ULPS = {StageKind.WRITE_THEN_READ: 10, StageKind.WRITE_ONLY: 5.5,
                  StageKind.READ_ONLY: 5.5}

    @staticmethod
    def closed_form(config, done, c):
        """The normalized state after ``done`` stages of ``config`` from the
        stored amplitudes c (levels 0 and 1), each level's (re, im) exact to
        60 digits; (0, 0) on the levels it leaves empty."""
        def eta(k):
            return Fraction((k + 1) * (config.n_atoms - k), config.n_atoms)

        def prod(levels):
            return math.prod(map(eta, levels), start=Fraction(1))

        n = config.stages
        if config.schedule is Schedule.TYPE_I:
            squared, shift = [eta(k) ** (2 * done) for k in (0, 1)], 0
        else:  # each write and each read multiplies by sqrt(eta)
            writes, reads = min(done, n), max(done - n, 0)
            squared = [prod(range(k, k + writes)) * prod(range(k + n - reads, k + n))
                       for k in (0, 1)]
            shift = writes - reads
        amps = [[(Decimal(f.numerator) / f.denominator).sqrt() * Decimal(part)
                 for part in (z.real, z.imag)] for f, z in zip(squared, c)]
        size = sum(re * re + im * im for re, im in amps).sqrt()
        state = [(Decimal(0), Decimal(0))] * (config.truncation.resolve(
            config.n_atoms).atomic_k_max + 1)
        for k, (re, im) in enumerate(amps):
            state[k + shift] = re / size, im / size
        return state

    @given(
        n_atoms=st.one_of(st.integers(8, 1000), st.integers(1000, 10**18)),
        alpha=st.tuples(*[st.floats(-2.0, 2.0).filter(
            lambda x: x == 0.0 or abs(x) >= 1e-50)] * 2),
        p=st.tuples(st.floats(1e-8, 0.1), st.floats(1e-8, 0.1)),
        beta=st.one_of(st.just((1.0, 1.0)),
                       st.tuples(st.floats(0.05, 0.99), st.floats(0.05, 0.99))),
        schedule=st.sampled_from(list(Schedule)),
        stages=st.integers(1, 3),
    )
    @example(n_atoms=10**18, alpha=(0.3, -0.2), p=(0.01, 0.01), beta=(0.5, 0.7),
             schedule=Schedule.TYPE_II, stages=3)
    @settings(max_examples=200, deadline=None)
    def test_every_stage_heralds_the_collective_factor(
        self, n_atoms, alpha, p, beta, schedule, stages
    ):
        config = ProtocolConfig(n_atoms=n_atoms, alpha=complex(*alpha), p_w=p[0],
                                p_r=p[1], beta_w=beta[0], beta_r=beta[1],
                                schedule=schedule, stages=stages)
        c = weak_coherent_rows(np.array([config.alpha]), 2)[0]
        ulps = 0.0
        with localcontext() as context:
            context.prec = 60
            for done, stage in enumerate(run_schedule(config).stages, start=1):
                ulps += self.STAGE_ULPS[stage.kind]
                tol = Decimal((2 * ulps + 6) * 2.0**-53)
                expected = self.closed_form(config, done, c)
                assert len(stage.state) == len(expected)
                for got, (re, im) in zip(stage.state.tolist(), expected):
                    error = (Decimal(got.real) - re) ** 2 + (Decimal(got.imag) - im) ** 2
                    assert error.sqrt() <= tol * (re * re + im * im).sqrt(), (done, got)


#: Lossy multi-stage trees: one success column per first-order stage, one per
#: undetected-mode count at exact order.
LOSSY_TREES = {
    "type1_first_order": dict(
        n_atoms=60, alpha=0.2, p_w=0.02, p_r=0.03, beta_w=0.7, beta_r=0.8,
        stages=3,
    ),
    "type2_first_order": dict(
        n_atoms=60, alpha=0.2, p_w=0.02, p_r=0.03, beta_w=0.7, beta_r=0.8,
        schedule=Schedule.TYPE_II, stages=3,
    ),
    "type1_exact": dict(
        n_atoms=40, alpha=0.15, p_w=0.002, p_r=0.002, beta_w=0.9, beta_r=0.8,
        stages=3, order=EvolutionOrder.EXACT, truncation=ModeTruncation(4, 4, 3, 14),
    ),
    "type2_exact": dict(
        n_atoms=40, alpha=0.15, p_w=0.002, p_r=0.002, beta_w=0.9, beta_r=0.8,
        schedule=Schedule.TYPE_II, stages=2, order=EvolutionOrder.EXACT,
        truncation=ModeTruncation(4, 4, 3, 14),
    ),
    # batch_rows 4: levels of 4 and 16 branches, several per chunk
    "type1_exact_chunked": dict(
        n_atoms=20, alpha=0.1, p_w=0.005, p_r=0.005, beta_w=0.8, beta_r=0.8,
        stages=2, order=EvolutionOrder.EXACT, truncation=ModeTruncation(4, 4, 3, 5),
    ),
}

#: Trees with one success column per stage: first order, or exact and lossless.
SINGLE_BRANCH = {
    "type1_first_order": dict(
        n_atoms=60, alpha=0.2, p_w=0.02, p_r=0.03, beta_w=0.7, beta_r=0.8,
        stages=3,
    ),
    "type2_first_order": dict(
        n_atoms=60, alpha=0.2, p_w=0.02, p_r=0.03, beta_w=0.7, beta_r=0.8,
        schedule=Schedule.TYPE_II, stages=2,
    ),
    "type1_exact": dict(
        n_atoms=50, alpha=0.2, p_w=0.005, p_r=0.01, stages=3,
        order=EvolutionOrder.EXACT, truncation=ModeTruncation(5, 5, 0, 12),
    ),
    "type2_exact": dict(
        n_atoms=200, alpha=0.1, p_w=0.01, p_r=0.005, schedule=Schedule.TYPE_II,
        stages=2, order=EvolutionOrder.EXACT, truncation=ModeTruncation(6, 6, 0, 14),
    ),
}


class TestTrajectoryTree:
    """`monte_carlo` samples each level of branches as the stage loop grows
    it; the per-node trajectory tree of the same branches is its reference."""

    def test_outcomes_sum_to_one_over_their_support(self):
        for kwargs in LOSSY_TREES.values():
            config = ProtocolConfig(**kwargs)
            tree = TrajectoryTreePerNode(config)
            # over the photon axes the tree evolves on
            shape = protocol.batch_key(config)[-1].shape()[1:]
            for probs in tree.outcomes.values():
                assert probs.shape == shape
                assert np.all(probs >= 0.0)
                assert probs[probs > 0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_children_are_normalized(self):
        for kwargs in LOSSY_TREES.values():
            tree = TrajectoryTreePerNode(ProtocolConfig(**kwargs))
            assert len(tree.states) > 1
            for path, state in tree.states.items():
                assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-14)
                if path:  # a child exists only for a nonzero success outcome
                    parent = tree.outcomes[path[:-1]]
                    counts = protocol.STAGE_PATTERNS[tree.plan[len(path) - 1]]
                    assert parent[(*counts, path[-1])] > 0

    @pytest.mark.parametrize("name", sorted(LOSSY_TREES))
    def test_matches_the_per_node_tree_to_the_bit(self, name):
        """P_suc is the stage loop's product, `run_schedule`'s to the bit; the
        per-node tree sums it from the leaves up, in another order."""
        config = ProtocolConfig(**LOSSY_TREES[name])
        p_suc = monte_carlo(config, 1).numeric_success_probability
        assert p_suc == run_schedule(config).success_probability
        reference = TrajectoryTreePerNode(config).success_probability()
        assert p_suc == pytest.approx(reference, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("name", sorted(LOSSY_TREES))
    def test_monte_carlo_matches_the_per_node_tree(self, name):
        """Every key of the report bit for bit but P_suc, whose summation
        order differs (see above)."""
        config = ProtocolConfig(rng_seed=31, **LOSSY_TREES[name])
        for trials in (1, 2**62):
            report = monte_carlo(config, trials).to_dict()
            expected = monte_carlo_per_node(config, trials).to_dict()
            p_suc = report.pop("numeric_success_probability")
            reference = expected.pop("numeric_success_probability")
            assert p_suc == pytest.approx(reference, rel=1e-15, abs=0.0)
            assert json.dumps(report) == json.dumps(expected)
        assert report["successes"] > 0  # of 2**62 trials

    @pytest.mark.parametrize("name", sorted(SINGLE_BRANCH))
    def test_success_leaf_matches_run_schedule(self, name):
        config = ProtocolConfig(**SINGLE_BRANCH[name])
        tree = TrajectoryTreePerNode(config)
        leaves = [p for p in tree.states if len(p) == len(tree.plan)]
        assert len(leaves) == 1
        report = run_schedule(config)
        # one herald makes the children of both
        assert tree.states[leaves[0]].tobytes() == report.final_state.tobytes()
        assert tree.success_probability() == pytest.approx(
            report.success_probability, rel=1e-15, abs=0.0
        )


#: Lossy exact-order runs of joint dimension <= 900, where every stage leaves
#: a mixture of undetected-mode branches.
MIXTURES = {
    "type1_one_stage": dict(n_atoms=20, beta_w=0.8, beta_r=0.8, stages=1),
    "type1_two_stages": dict(n_atoms=20, beta_w=0.8, beta_r=0.8, stages=2),
    "type2": dict(n_atoms=20, beta_w=0.8, beta_r=0.7, schedule=Schedule.TYPE_II,
                  stages=2),
    "type2_complex_alpha": dict(
        n_atoms=5, alpha=-0.1 + 0.2j, beta_w=0.8, beta_r=0.7,
        schedule=Schedule.TYPE_II, stages=2, truncation=ModeTruncation(4, 4, 3, 5),
    ),
}


class TestMixtures:
    """A lossy exact run's point is the weighted set of its branches: the
    heralded mixture that the density matrix gives."""

    @staticmethod
    def config(name):
        return ProtocolConfig(**{
            "alpha": 0.1, "p_w": 0.005, "p_r": 0.005, "order": EvolutionOrder.EXACT,
            "truncation": ModeTruncation(4, 4, 3, 8), **MIXTURES[name],
        })

    @pytest.mark.parametrize("name", sorted(MIXTURES))
    def test_run_schedule_matches_the_dense_reference(self, name):
        config = self.config(name)
        report = run_schedule(config)
        stages, quality = dense_schedule(config)
        assert report.succeeded and report.final_state is None
        assert len(report.stages) == len(stages)
        for stage, (probability, cumulative, gain) in zip(report.stages, stages):
            assert stage.state is None and not stage.failed
            assert stage.probability == pytest.approx(probability, rel=1e-12, abs=0)
            assert stage.cumulative_probability == pytest.approx(
                cumulative, rel=1e-12, abs=0)
            # type-II writes leave no k = 0 amplitude: rho_00 is exactly 0
            assert math.isnan(stage.gain_so_far) == math.isnan(gain)
            assert math.isnan(gain) or stage.gain_so_far == pytest.approx(
                gain, rel=1e-12, abs=0)
        for key, value in quality.items():
            assert getattr(report.quality, key) == pytest.approx(value, rel=1e-12, abs=0)
        assert report.final_gain == report.quality.gain == report.stages[-1].gain_so_far
        assert report.success_probability == report.quality.p_suc

    def test_one_branch_points_weigh_exactly_one(self):
        """First order and beta = 1 leave one branch per point, of share 1.0
        exactly: the mixture formulas reduce to the pure state's, bit for bit."""
        for kwargs in SINGLE_BRANCH.values():
            stages, _, _ = recorded_batch([ProtocolConfig(**kwargs)],
                                          batch_key(ProtocolConfig(**kwargs))[-1])[0]
            for _, _, (states, weights, _), lo, hi in stages:
                assert hi - lo == 1 and weights[lo] == 1.0

    @pytest.mark.parametrize("dead_first", [True, False], ids=["dead-first", "dead-last"])
    def test_dead_points_beside_a_mixture_keep_their_own_rows(self, dead_first):
        """Three points that fail their first herald (p_w = 0) and a point
        whose four branches enter the second stage: as many branches as
        points, but every branch evolves with its own point's processes and
        sums into its own point's metrics, as in its batch of one."""
        lossy = dataclasses.replace(self.config("type1_two_stages"),
                                    truncation=ModeTruncation(4, 4, 3, 5))
        dead = dataclasses.replace(lossy, p_w=0.0)
        batch = [dead] * 3 + [lossy] if dead_first else [lossy] + [dead] * 3
        truncation = batch_key(lossy)[-1]
        assert batch_rows(truncation) == len(batch)
        rows = recorded_batch(batch, truncation)
        for config, (stages, quality, error) in zip(batch, rows):
            alone, quality_alone, error_alone = recorded_batch([config], truncation)[0]
            assert (quality, repr(error)) == (quality_alone, repr(error_alone))
            assert len(stages) == len(alone)
            for (p, c, (states, weights, _), lo, hi), (p1, c1, (states1, weights1, _),
                                                        lo1, hi1) in zip(stages, alone):
                assert (p, c, hi - lo) == (p1, c1, hi1 - lo1)
                assert np.array_equal(states[lo:hi], states1[lo1:hi1])
                assert np.array_equal(weights[lo:hi], weights1[lo1:hi1])
        stages, quality, _ = rows[3 if dead_first else 0]
        assert [hi - lo for *_, lo, hi in stages] == [4, 16]
        assert quality == [*run_schedule(lossy).quality.to_dict().values()]

    def test_mean_gain_is_the_trajectory_average(self):
        """mc's mean gain averages c1/(c0 alpha) over the successful
        trajectories; the mixture's gain is Re(rho_10 / (rho_00 alpha))."""
        config = ProtocolConfig(
            n_atoms=20, alpha=0.1, p_w=0.02, p_r=0.02, beta_w=0.8, beta_r=0.8,
            order=EvolutionOrder.EXACT, truncation=ModeTruncation(5, 5, 5, 8),
        )
        tree = TrajectoryTreePerNode(config)
        hits = tree.outcomes[()][1, 1]
        gains = [protocol._gain_of(tree.states[(n_c,)], 0.1) for n_c in range(6)]
        trajectory = float(np.dot(hits, gains) / hits.sum())
        assert trajectory == pytest.approx(3.202, abs=1e-3)
        assert monte_carlo(config, 2**62).mean_gain == pytest.approx(trajectory, rel=1e-6)
        assert run_schedule(config).final_gain == pytest.approx(1.880, abs=1e-3)


def recorded_batch(configs, truncation):
    """`run_batch` of ``configs`` with the stage records its ``visit`` hands
    over: per point (records in stage order, quality, error)."""
    records = [[] for _ in configs]

    def visit(s, i, record):
        assert s == len(records[i])  # each stage of the point once, in order
        records[i].append(record)

    rows = run_batch(configs, truncation, visit)
    return [(records[i], *row) for i, row in enumerate(rows)]


def _rows_by_batch(configs, key, truncation_of):
    """Each point's `recorded_batch` row, the points grouped by ``key`` in order
    and run in chunks of `batch_rows` on ``truncation_of`` their first point. A
    point whose ``key`` raises ConfigError (the reach gate of `batch_key`) has
    no stages, no quality and that error, as a sweep writes it."""
    groups, rows = {}, {}
    for config in configs:
        try:
            groups.setdefault(key(config), []).append(config)
        except ConfigError as exc:
            rows[id(config)] = [], None, exc
    for members in groups.values():
        truncation = truncation_of(members[0])
        size = batch_rows(truncation)
        for i in range(0, len(members), size):
            chunk = members[i : i + size]
            for config, (stages, quality, error) in zip(
                    chunk, recorded_batch(chunk, truncation)):
                quality = None if quality is None else QualityReport(*quality)
                rows[id(config)] = stages, quality, error
    return [rows[id(config)] for config in configs]


def _close(a, b, rel=1e-15):
    """Elementwise |a - b| <= rel max(|a|, |b|), NaN matching NaN."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    both_nan = np.isnan(a) & np.isnan(b)
    return bool(np.all(both_nan | (np.abs(a - b) <= rel * np.maximum(abs(a), abs(b)))))


#: The reach gate of `batch_key`, and the read's atomic-k and mode-c guards.
GUARDS = ("excitation reach", "atomic k cutoff", "mode c cutoff")


class TestReachableBlock:
    """First order evolves only the photon block it can reach, n_a <= 1,
    n_b <= 1, n_c <= 2; every row matches the whole configured tensor."""

    GRID = [
        ProtocolConfig(
            n_atoms, alpha=0.3, p_w=p, p_r=p, beta_w=beta_w, beta_r=beta_r,
            schedule=schedule, stages=stages,
            truncation=ModeTruncation(fock_a, fock_b, fock_c, atomic_k_max),
        )
        for fock_a, fock_b, fock_c, beta_w, beta_r, p, schedule, n_atoms, stages,
        atomic_k_max in itertools.product(
            (1, 3), (1, 3), (1, 2, 4), (0.5, 1.0), (0.5, 1.0), (0.0, 0.01, 0.3, 1.0),
            (Schedule.TYPE_I, Schedule.TYPE_II), (3, 100), (1, 2), (2, None),
        )
    ]

    def test_evolved_truncation(self):
        first, exact = EvolutionOrder.FIRST_ORDER, EvolutionOrder.EXACT
        truncation = ModeTruncation(5, 4, 3, None)
        assert truncation.evolved(100, first) == ModeTruncation(1, 1, 2, 8)
        assert ModeTruncation(1, 3, 1).evolved(3, first) == ModeTruncation(1, 1, 1, 3)
        assert truncation.evolved(100, exact) == truncation.resolve(100)

    def test_rows_match_the_configured_shape(self):
        rows = _rows_by_batch(self.GRID, batch_key, lambda c: batch_key(c)[-1])
        expected = _rows_by_batch(
            self.GRID, lambda c: (*batch_key(c)[:-1], configured_truncation(c)),
            configured_truncation,
        )
        fired = set()
        for config, row, reference in zip(self.GRID, rows, expected):
            (stages, quality, error), (stages_ref, quality_ref, error_ref) = (
                row, reference
            )
            assert (type(error), str(error)) == (type(error_ref), str(error_ref))
            if error is not None:
                fired.add(next(g for g in GUARDS if g in str(error)))
            assert len(stages) == len(stages_ref)
            for record, record_ref in zip(stages, stages_ref):
                (p, cumulative, (states, weights, _), lo, hi) = record
                (p_ref, cumulative_ref, (states_ref, weights_ref, _), lo_ref,
                 hi_ref) = record_ref
                assert _close(p, p_ref) and _close(cumulative, cumulative_ref)
                assert hi - lo == hi_ref - lo_ref
                assert _close(states[lo:hi], states_ref[lo_ref:hi_ref])
                assert _close(weights[lo:hi], weights_ref[lo_ref:hi_ref])
            assert (quality is None) == (quality_ref is None)
            if quality is None:
                continue
            for name, value in quality.to_dict().items():
                if name != "q_amp":
                    assert _close(value, getattr(quality_ref, name)), (config, name)
            # q_amp = p_amp (1 - p_spon) (1 - p_mode): the 1e-15 relative
            # tolerance of its three factors, carried through the complements
            q, ref = quality, quality_ref
            spread = ref.p_amp * (ref.p_spon * (1.0 - ref.p_mode)
                                  + (1.0 - ref.p_spon) * ref.p_mode)
            assert abs(q.q_amp - ref.q_amp) <= 1e-15 * (abs(ref.q_amp) + spread)
        assert fired == set(GUARDS)


class TestFirstOrderGuards:
    """A first-order step guards only what it can push past a cutoff from the
    photon vacuum `_stage` starts it in. On every input that a grid of batched
    runs, and `_stage` on atomic states spread over every level, give it, its
    verdicts equal the rule that checks every cutoff slab."""

    #: The three first-order checks: (process, cutoff) as the message names them.
    CHECKS = {("write", "atomic k"), ("read", "mode c"), ("read", "atomic k")}

    GRID = [
        ProtocolConfig(
            n_atoms, alpha=0.3, p_w=p, p_r=p, beta_w=beta_w, beta_r=beta_r,
            schedule=schedule, stages=stages,
            truncation=ModeTruncation(1, 1, fock_c, atomic_k_max),
        )
        # fock_c_max 1 and above the reach; k_top < N and k_top = N
        for schedule, beta_w, beta_r, fock_c, (n_atoms, atomic_k_max, stages), p
        in itertools.product(
            (Schedule.TYPE_I, Schedule.TYPE_II), (0.5, 1.0), (0.5, 1.0), (1, 3),
            ((100, 3, 2), (3, None, 2), (100, 2, 1)), (0.0, 0.01, 0.3),
        )
    ]

    def test_verdicts_equal_the_six_slab_rule(self, monkeypatch):
        calls, fired = [], set()

        def spy(psi, proc, errors, weights):
            if proc.order is EvolutionOrder.FIRST_ORDER:
                expected, found = {}, {}
                six_slab_first_order_guards(psi, proc, expected, weights)
                apply_process(psi, proc, found, weights)
                assert {i: (type(e), str(e)) for i, e in found.items()} == {
                    i: (type(e), str(e)) for i, e in expected.items()}
                calls.append(len(found))
                fired.update((proc.name, re.search("at the (.*) cutoff", str(e))[1])
                             for e in found.values())
            return apply_process(psi, proc, errors, weights)

        apply_process = protocol.apply_process
        monkeypatch.setattr(protocol, "apply_process", spy)
        _rows_by_batch(self.GRID, batch_key, lambda c: batch_key(c)[-1])
        rng = np.random.default_rng(7)
        batches = {}
        for config in self.GRID:
            batches.setdefault(batch_key(config), []).append(config)
        for key, configs in batches.items():
            size = (len(configs), key[-1].atomic_k_max + 1)
            states = rng.normal(size=size) + 1j * rng.normal(size=size)
            states /= np.linalg.norm(states, axis=1, keepdims=True)
            level = states, rng.uniform(0.5, 1.0, len(configs)), np.arange(len(configs))
            for kind in StageKind:
                protocol._stage(protocol._processes(configs, key[-1]), level, kind)
        assert len(calls) > 40 and sum(calls) > 100  # the grid reaches the guards
        assert fired == self.CHECKS
