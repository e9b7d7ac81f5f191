"""Schedules, stage pipelines and Monte Carlo heralding statistics."""

import json

import numpy as np
import pytest
from scipy import stats

from memamp.dicke import Schedule, weak_coherent_rows
from memamp.errors import ConfigError
from memamp.joint import EvolutionOrder, ModeTruncation
from memamp import protocol
from memamp.protocol import (
    GainConvention,
    ProtocolConfig,
    StageKind,
    _TrajectoryTree,
    monte_carlo,
    run_schedule,
)
from reference import (
    TrajectoryTreePerNode, evolve_stage, fidelity, gain_eigenvalues, heralded,
    run_stage,
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

    def test_numbers_stored_as_python_floats(self):
        config = ProtocolConfig(
            n_atoms=10, p_w=0, p_r=np.float32(0.5), beta_w=1, alpha=np.complex64(1j)
        )
        assert [type(v) for v in (config.p_w, config.p_r, config.beta_w)] == [float] * 3
        assert (config.p_w, config.p_r, config.beta_w) == (0.0, 0.5, 1.0)
        assert config.alpha == 1j and type(config.alpha) is complex

    def test_headroom_checked_at_run(self):
        config = ProtocolConfig(
            n_atoms=100, schedule=Schedule.TYPE_II, stages=8
        )  # default atomic_k_max = 8 < stages + 1
        with pytest.raises(ConfigError):
            run_schedule(config)


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
        assert report.pattern.detect_a == 1 and report.pattern.detect_b == 1

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
    @pytest.mark.parametrize("alpha", [1e-310, 1e200, 1e308, 1.5e308 + 1.5e308j])
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
        assert len(report.stage_reports) == 6
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
        *intermediate, last = report.stage_reports
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
        for index, expected in enumerate(report.stage_reports):
            stage = run_stage(
                state, config, expected.kind,
                stage_index=index, cumulative_in=cumulative,
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
        for stage in report.stage_reports:
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
        with pytest.raises(ValueError):
            monte_carlo(config, 0)


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
    """The tree evolves each level's nodes as one batch."""

    def test_outcomes_sum_to_one_over_their_support(self):
        for kwargs in LOSSY_TREES.values():
            config = ProtocolConfig(**kwargs)
            tree = _TrajectoryTree(config)
            shape = config.truncation.resolve(config.n_atoms).shape()[1:]
            for probs in tree.outcomes.values():
                assert probs.shape == shape
                assert np.all(probs >= 0.0)
                assert probs[probs > 0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_children_are_normalized(self):
        for kwargs in LOSSY_TREES.values():
            tree = _TrajectoryTree(ProtocolConfig(**kwargs))
            assert len(tree.states) > 1
            for path, state in tree.states.items():
                assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-14)
                if path:  # a child exists only for a nonzero success outcome
                    parent = tree.outcomes[path[:-1]]
                    pattern = protocol.STAGE_PATTERNS[tree.plan[len(path) - 1]]
                    assert parent[pattern.detect_a, pattern.detect_b, path[-1]] > 0

    @pytest.mark.parametrize("name", sorted(LOSSY_TREES))
    def test_matches_the_per_node_tree_to_the_bit(self, name):
        config = ProtocolConfig(**LOSSY_TREES[name])
        tree, reference = _TrajectoryTree(config), TrajectoryTreePerNode(config)
        assert set(tree.outcomes) == set(reference.outcomes)
        assert set(tree.states) == set(reference.states)
        for path, probs in reference.outcomes.items():
            assert tree.outcomes[path].tobytes() == probs.tobytes(), path
        for path, state in reference.states.items():
            assert tree.states[path].tobytes() == state.tobytes(), path
        assert tree.success_probability() == reference.success_probability()

    @pytest.mark.parametrize("name", sorted(LOSSY_TREES))
    def test_monte_carlo_matches_the_per_node_tree(self, name, monkeypatch):
        config = ProtocolConfig(rng_seed=31, **LOSSY_TREES[name])
        report = monte_carlo(config, 2**62)
        monkeypatch.setattr(protocol, "_TrajectoryTree", TrajectoryTreePerNode)
        expected = monte_carlo(config, 2**62)
        assert report.successes > 0
        assert json.dumps(report.to_dict()) == json.dumps(expected.to_dict())

    @pytest.mark.parametrize("name", sorted(SINGLE_BRANCH))
    def test_success_leaf_matches_run_schedule(self, name):
        config = ProtocolConfig(**SINGLE_BRANCH[name])
        tree = _TrajectoryTree(config)
        leaves = [p for p in tree.states if len(p) == len(tree.plan)]
        assert len(leaves) == 1
        leaf = tree.states[leaves[0]].view(np.float64)
        report = run_schedule(config)
        final = report.final_state.view(np.float64)
        ulp = np.spacing(np.maximum(np.abs(leaf), np.abs(final)))
        assert np.all(np.abs(leaf - final) <= 2 * ulp)
        assert tree.success_probability() == pytest.approx(
            report.success_probability, rel=1e-15, abs=0.0
        )
