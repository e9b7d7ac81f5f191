"""Closed-form ladder algebra, gain formulas and state helpers."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memamp.dicke import (
    LadderDirection,
    Schedule,
    ladder_coeff,
    ladder_eigenvalue,
    relative_gain,
    weak_coherent_rows,
)
from memamp.errors import ConfigError, TruncationOverflowError
from memamp.joint import (
    EvolutionOrder, HeraldPattern, ModeTruncation, Process, herald_rows,
)
from memamp.oracle import collective_apply, project_to_dicke
from memamp.protocol import ProtocolConfig, StageKind, run_schedule
from reference import (
    build_dicke_full,
    evolve_stage,
    exact_eta,
    fidelity,
    gain_eigenvalues,
    ss_dagger_eigenvalues,
    weak_coherent_rows_per_row,
)

TOL = 1e-12


class TestLadderCoeff:
    @pytest.mark.parametrize("n_atoms", [1, 2, 5, 100, 10**6])
    def test_raise_from_ground_is_one(self, n_atoms):
        assert ladder_coeff(LadderDirection.RAISE, 0, n_atoms) == 1.0

    def test_lower_from_single_excitation_is_one(self):
        assert ladder_coeff(LadderDirection.LOWER, 1, 7) == 1.0

    def test_raise_k1_n10(self):
        # equals sqrt(2 * (1 - 1/10)) = sqrt(1.8); cross-checked against the
        # full 2^10 brute force in test_oracle
        value = ladder_coeff(LadderDirection.RAISE, 1, 10)
        assert value == pytest.approx(1.3416407864998738, abs=TOL)

    def test_top_state_annihilates_upward(self):
        assert ladder_coeff(LadderDirection.RAISE, 5, 5) == 0.0

    def test_ground_annihilates_downward(self):
        assert ladder_coeff(LadderDirection.LOWER, 0, 9) == 0.0

    @pytest.mark.parametrize("k,n_atoms", [(-1, 5), (6, 5)])
    def test_out_of_range_rejected(self, k, n_atoms):
        with pytest.raises(ValueError):
            ladder_coeff(LadderDirection.RAISE, k, n_atoms)

    @given(
        n_atoms=st.integers(min_value=1, max_value=10**9),
        k=st.integers(min_value=0, max_value=10**9),
    )
    @settings(max_examples=200)
    def test_adjointness(self, n_atoms, k):
        k = min(k, n_atoms - 1) if n_atoms > 0 else 0
        up = ladder_coeff(LadderDirection.RAISE, k, n_atoms)
        down = ladder_coeff(LadderDirection.LOWER, k + 1, n_atoms)
        assert abs(up - down) <= TOL


def ladder_image(k, n_atoms, raising):
    """The literal collective flip sum applied to the symmetric level k of the
    2^N oracle, projected back onto the levels: (coefficients, residual per
    level)."""
    image = collective_apply(build_dicke_full(k, n_atoms), n_atoms, raising)
    return project_to_dicke(image, n_atoms)


class TestApplyLadder:
    """The ladder's action on states: the literal per-atom flips of the oracle
    on small ensembles, and the write process on the truncated ladder."""

    def test_raise_ground(self):
        coeffs, residuals = ladder_image(0, 12, raising=True)
        assert coeffs[1] == pytest.approx(1.0, abs=TOL)
        assert np.sum(np.abs(coeffs)) == pytest.approx(1.0, abs=TOL)
        assert np.linalg.norm(residuals) < TOL

    def test_lower_ground_is_zero(self):
        image = collective_apply(build_dicke_full(0, 12), 12, raising=False)
        assert np.linalg.norm(image) == 0.0

    def test_raise_k1_n10(self):
        coeffs, _ = ladder_image(1, 10, raising=True)
        assert coeffs[2] == pytest.approx(1.3416407864998738, abs=TOL)

    def test_raise_overflow_guard(self):
        # amplitude on the top allocated level, still below k = N, would be
        # raised past the truncation
        trunc = ModeTruncation(fock_c_max=0, atomic_k_max=2)
        config = ProtocolConfig(10, p_w=1e-3, truncation=trunc)
        with pytest.raises(TruncationOverflowError):
            evolve_stage(np.ones(3) / np.sqrt(3), config, StageKind.WRITE_ONLY)

    def test_raise_at_physical_top_allowed(self):
        # k = N annihilates upward, so a populated top level is fine there
        config = ProtocolConfig(2, p_w=1e-3, truncation=ModeTruncation(fock_c_max=0))
        out = evolve_stage(np.array([0, 0, 1.0]), config, StageKind.WRITE_ONLY)[0]
        assert out[2, 0, 0, 0] == 1.0
        assert np.count_nonzero(out) == 1

    @given(
        n_atoms=st.integers(min_value=1, max_value=40),
        k=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=100)
    def test_raise_then_lower_is_diagonal(self, n_atoms, k):
        k = min(k, n_atoms)
        up = ladder_coeff(LadderDirection.RAISE, k, n_atoms)
        down = ladder_coeff(LadderDirection.LOWER, k + 1, n_atoms) if k < n_atoms else 0
        assert abs(up * down - ss_dagger_eigenvalues(n_atoms, k + 1)[k]) <= TOL


class TestLadderRoundedOnce:
    """Every form of eta = (k+1)(N-k)/N against exact rational arithmetic on
    all k < N < 400."""

    PAIRS = [(k, n) for n in range(1, 400) for k in range(n)]

    def test_eta_and_type2_gain_are_correctly_rounded(self):
        for k, n_atoms in self.PAIRS:
            exact = float(exact_eta(k, n_atoms))
            assert ladder_eigenvalue(k, n_atoms) == exact, (k, n_atoms)
            assert relative_gain(Schedule.TYPE_II, k, n_atoms) == exact, (k, n_atoms)

    def test_ladder_coeff_is_the_root_of_eta(self):
        for k, n_atoms in self.PAIRS:
            root = math.sqrt(float(exact_eta(k, n_atoms)))
            assert ladder_coeff(LadderDirection.RAISE, k, n_atoms) == root, (k, n_atoms)
            assert ladder_coeff(LadderDirection.LOWER, k + 1, n_atoms) == root, (
                k, n_atoms)

    def test_process_ladder_rows(self):
        # p = beta = 1: the detected weight at n_a = 0 is the ladder coefficient
        for n_atoms in range(1, 400):
            trunc = ModeTruncation(1, 1, 0, atomic_k_max=n_atoms)
            ones = np.ones(1)
            process = Process("write", trunc, EvolutionOrder.FIRST_ORDER,
                              np.array([float(n_atoms)]), ones, ones)
            roots = [math.sqrt(float(exact_eta(k, n_atoms))) for k in range(n_atoms)]
            assert process.weights[0][0, :, 0, 0, 0].tolist() == roots, n_atoms

    def test_type1_gain_within_n_plus_one_ulp(self):
        for n_rounds, n_atoms in self.PAIRS:
            exact = exact_eta(1, n_atoms) ** n_rounds
            gain = relative_gain(Schedule.TYPE_I, n_rounds, n_atoms)
            ulp = math.ulp(float(exact))
            assert abs(Fraction(gain) - exact) <= (n_rounds + 1) * Fraction(ulp), (
                n_rounds, n_atoms)

    def test_numpy_integers_do_not_wrap(self):
        # (k+1)(N-k) is about 1e19 here, beyond int64
        k, n_atoms = 10**4, 10**15
        big_k, big_n = np.int64(k), np.int64(n_atoms)
        exact = float(exact_eta(k, n_atoms))
        assert relative_gain(Schedule.TYPE_II, big_k, big_n) == exact
        assert relative_gain(Schedule.TYPE_I, 1, big_n) == float(exact_eta(1, n_atoms))
        assert ladder_coeff(LadderDirection.RAISE, big_k, big_n) == math.sqrt(exact)
        assert ladder_coeff(LadderDirection.LOWER, big_k + 1, big_n) == math.sqrt(exact)

    def test_huge_float_rows_stay_finite(self):
        # eta is k+1 once N - k rounds to N; (k+1)(N-k) alone would overflow
        trunc = ModeTruncation(1, 1, 0, atomic_k_max=8)
        n_atoms = np.array([1e308, float(2**1000), 2.0**1000 * 3])
        process = Process("write", trunc, EvolutionOrder.FIRST_ORDER, n_atoms,
                          np.ones(3), np.ones(3))
        expected = np.sqrt(np.arange(1.0, 9.0))
        assert np.array_equal(process.weights[0][:, :, 0, 0, 0], [expected] * 3)


class TestSSDagger:
    def test_ground_eigenvalue_one(self):
        assert ss_dagger_eigenvalues(33, 1)[0] == pytest.approx(1.0, abs=TOL)

    def test_k1_n100(self):
        assert ss_dagger_eigenvalues(100, 2)[1] == pytest.approx(1.98, abs=TOL)

    def test_k2_n4(self):
        assert ss_dagger_eigenvalues(4, 3)[2] == pytest.approx(1.5, abs=TOL)

    def test_matches_ladder_composition(self):
        # raise then lower by literal per-atom flips on a superposition of
        # every level of N = 12 atoms
        n_atoms = 12
        rng = np.random.default_rng(17)
        coeffs = rng.normal(size=n_atoms + 1) + 1j * rng.normal(size=n_atoms + 1)
        coeffs /= np.linalg.norm(coeffs)
        full = sum(c * build_dicke_full(k, n_atoms) for k, c in enumerate(coeffs))
        image = collective_apply(collective_apply(full, n_atoms, True), n_atoms, False)
        via_ladder, residuals = project_to_dicke(image, n_atoms)
        via_diag = ss_dagger_eigenvalues(n_atoms, n_atoms + 1) * coeffs
        assert np.allclose(via_diag, via_ladder, atol=TOL)
        assert np.linalg.norm(residuals) < TOL


class TestGainEigenvalue:
    def test_type1_k1_n100_three_rounds(self):
        value = gain_eigenvalues(Schedule.TYPE_I, 100, 3, 2)[1]
        assert value == pytest.approx(7.762392, rel=1e-12)

    def test_type1_cross_check_with_ss_dagger(self):
        state = np.eye(2)[1]
        for _ in range(3):
            state = ss_dagger_eigenvalues(100, 2) * state
        assert state[1] == pytest.approx(
            gain_eigenvalues(Schedule.TYPE_I, 100, 3, 2)[1], rel=1e-12
        )

    def test_type2_k0_n100_two_rounds(self):
        assert gain_eigenvalues(Schedule.TYPE_II, 100, 2, 1)[0] == pytest.approx(
            1.98, abs=TOL
        )

    def test_type2_cross_check_with_ladder_sequence(self):
        # two raises from the ground, then two lowerings back to it
        up = [ladder_coeff(LadderDirection.RAISE, k, 100) for k in (0, 1)]
        down = [ladder_coeff(LadderDirection.LOWER, k, 100) for k in (2, 1)]
        assert np.prod(up + down) == pytest.approx(1.98, abs=TOL)

    def test_ground_type1_always_one(self):
        assert gain_eigenvalues(Schedule.TYPE_I, 50, 7, 1)[0] == 1.0

    def test_zero_rounds_is_identity(self):
        for schedule in Schedule:
            assert gain_eigenvalues(schedule, 20, 0, 4)[3] == 1.0

    def test_type2_overreach_rejected(self):
        # type II at k = 1 needs n + 1 <= N excitations: a run refuses more
        # stages, and the eigenvalue of a level raised past N vanishes
        with pytest.raises(ConfigError):
            ProtocolConfig(5, schedule=Schedule.TYPE_II, stages=5)
        assert gain_eigenvalues(Schedule.TYPE_II, 5, 4, 3)[2] == 0.0


class TestRelativeGain:
    def test_type1_single_round_large_n(self):
        assert relative_gain(Schedule.TYPE_I, 1, 1000) == pytest.approx(
            1.998, abs=TOL
        )

    def test_type2_three_rounds(self):
        assert relative_gain(Schedule.TYPE_II, 3, 100) == pytest.approx(
            3.88, abs=TOL
        )

    def test_zero_rounds(self):
        assert relative_gain(Schedule.TYPE_II, 0, 10) == 1.0

    @given(
        n_atoms=st.integers(min_value=2, max_value=200),
        n_rounds=st.integers(min_value=0, max_value=30),
        schedule=st.sampled_from(list(Schedule)),
    )
    @settings(max_examples=200)
    def test_matches_eigenvalue_ratio(self, n_atoms, n_rounds, schedule):
        n_rounds = min(n_rounds, n_atoms - 1)
        eig = gain_eigenvalues(schedule, n_atoms, n_rounds, 2)
        ratio = eig[1] / eig[0]
        assert abs(relative_gain(schedule, n_rounds, n_atoms) - ratio) <= max(
            TOL, TOL * abs(ratio)
        )

    @given(n_atoms=st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=100)
    def test_types_agree_at_one_round(self, n_atoms):
        g1 = relative_gain(Schedule.TYPE_I, 1, n_atoms)
        g2 = relative_gain(Schedule.TYPE_II, 1, n_atoms)
        expected = 2.0 * (1.0 - 1.0 / n_atoms)
        assert abs(g1 - g2) <= TOL
        assert abs(g1 - expected) <= TOL

    @given(
        n_rounds=st.integers(min_value=2, max_value=20),
        slack=st.integers(min_value=1, max_value=1000),
    )
    @settings(max_examples=100)
    def test_type1_dominates_beyond_one_round(self, n_rounds, slack):
        n_atoms = 2 * n_rounds + slack
        assert relative_gain(Schedule.TYPE_I, n_rounds, n_atoms) > relative_gain(
            Schedule.TYPE_II, n_rounds, n_atoms
        )

    @given(
        k=st.integers(min_value=1, max_value=100),
        n_atoms=st.integers(min_value=2, max_value=10**4),
    )
    @settings(max_examples=200)
    @example(k=46, n_atoms=47)
    def test_gain_threshold(self, k, n_atoms):
        # eta(k) = (k+1)(N-k)/N is exactly 1 at N = k+1; a form that rounds
        # twice put it above 1 there (k = 46, N = 47)
        k = min(k, n_atoms)
        assert (relative_gain(Schedule.TYPE_II, k, n_atoms) > 1.0) == (n_atoms >= k + 2)

    def test_large_n_limit(self):
        n_atoms = 10**9
        for n_rounds in range(21):
            gain = relative_gain(Schedule.TYPE_I, n_rounds, n_atoms)
            assert abs(gain - 2.0**n_rounds) / 2.0**n_rounds < 1e-7


class TestWeakCoherentState:
    def test_zero_alpha_is_ground(self):
        state = weak_coherent_rows([0.0], 6)[0]
        assert state[0] == 1.0
        assert np.all(state[1:] == 0)

    def test_small_alpha_normalization(self):
        state = weak_coherent_rows([0.1], 17)[0]
        expected = 1.0 / np.sqrt(1.01)
        assert state[0] == pytest.approx(expected, abs=TOL)
        assert state[1] == pytest.approx(0.1 * expected, abs=TOL)

    def test_complex_alpha_ratio_preserved(self):
        alpha = 0.5j
        state = weak_coherent_rows([alpha], 4)[0]
        assert state[1] / state[0] == pytest.approx(alpha)
        assert np.sum(np.abs(state) ** 2) == pytest.approx(1.0, abs=TOL)

    @pytest.mark.parametrize("alpha", [0.0, 0.1, -0.3, 0.2 - 0.7j, 1.0, 1j])
    def test_unit_alpha_unchanged_to_the_bit(self, alpha):
        amps = np.array([1.0, alpha], dtype=complex)
        expected = amps / np.linalg.norm(amps)
        assert np.array_equal(weak_coherent_rows([alpha], 11)[0, :2], expected)

    @given(
        alpha=st.lists(
            st.one_of(
                st.complex_numbers(allow_nan=False, allow_infinity=False),
                st.sampled_from([0.0, 1e-320, -1e308, 1e308 + 1e308j, 0.2 - 0.7j]),
            ),
            min_size=1,
            max_size=8,
        ),
        size=st.integers(min_value=2, max_value=20),
    )
    @settings(max_examples=300)
    def test_rows_match_the_per_row_norm_to_the_bit(self, alpha, size):
        alpha = np.array(alpha, dtype=complex)
        expected = weak_coherent_rows_per_row(alpha, size)
        assert weak_coherent_rows(alpha, size).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("size", [1, 2, 9])
    @pytest.mark.parametrize("magnitude", [1e-320, 1e-310, 1e-160, 1e-8, 0.1, 1.0,
                                           7.5, 1e8, 1e160, 1e300])
    def test_level_pair_matches_the_per_row_norm_to_the_bit(self, magnitude, size):
        """Only levels 0 and 1 are scaled and normalized; the other levels
        stay +0.0. Subnormal |alpha| keeps its bits too."""
        phases = [1.0, -1.0, 1j, -0.6 + 0.8j, 0.28 - 0.96j, 0.1 + 3.0j]
        alpha = magnitude * np.array(phases)
        expected = weak_coherent_rows_per_row(alpha, size)
        assert weak_coherent_rows(alpha, size).tobytes() == expected.tobytes()
        real = alpha.real[:2]
        assert weak_coherent_rows(real, size).tobytes() == (
            weak_coherent_rows_per_row(real, size).tobytes()
        )

    @pytest.mark.parametrize("alpha", [1e154, 1e200, 1e308, 1e308 + 1e308j])
    def test_huge_alpha_normalizes(self, alpha):
        state = weak_coherent_rows([alpha], 11)[0]
        assert np.sum(np.abs(state) ** 2) == pytest.approx(1.0, abs=TOL)
        assert state[1] == pytest.approx(alpha / abs(alpha), abs=TOL)


class TestFidelity:
    """`reference.fidelity`, the overlap the tests compare states with."""

    def test_self_fidelity(self):
        state = weak_coherent_rows([0.2 - 0.1j], 17)[0]
        assert fidelity(state, state) == pytest.approx(1.0, abs=TOL)

    def test_orthogonal_levels(self):
        assert fidelity(np.eye(9)[0], np.eye(9)[1]) == 0.0

    def test_nearby_coherent_states(self):
        # direct inner-product evaluation:
        # (1 + 0.2*0.1998)^2 / ((1 + 0.04)(1 + 0.1998^2)) = 0.9999999630149079
        a, b = weak_coherent_rows([0.2, 0.1998], 17)
        assert fidelity(a, b) == pytest.approx(0.9999999630149079, abs=1e-15)

    def test_unnormalized_inputs(self):
        assert fidelity(np.array([2.0, 0.0]), np.array([0.5, 0.0])) == pytest.approx(
            1.0, abs=TOL
        )


class TestDickeVectorInvariants:
    """Heralded atomic states are plain arrays over the Dicke levels: finite,
    normalized and, in a report, read-only."""

    def test_nonfinite_rejected(self):
        config = ProtocolConfig(4, p_w=1e-3)
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            evolve_stage(np.array([np.nan, 0.0]), config, StageKind.WRITE_ONLY)

    def test_normalized_flag_checked(self):
        rng = np.random.default_rng(5)
        psi = rng.normal(size=(6, 5, 2, 2, 1)) + 1j * rng.normal(size=(6, 5, 2, 2, 1))
        psi *= np.logspace(-120, 3, 6).reshape(-1, 1, 1, 1, 1)
        prob, rows, _, _, states = herald_rows(psi, HeraldPattern(1, 1))
        assert np.all(prob > 0.0) and rows.tolist() == list(range(6))
        assert np.all(np.abs(np.linalg.norm(states, axis=1) - 1.0) <= TOL)

    def test_amplitudes_read_only(self):
        config = ProtocolConfig(50, p_w=2e-3, p_r=1e-3, schedule=Schedule.TYPE_II,
                                stages=2)
        report = run_schedule(config)
        states = [stage.state for stage in report.stage_reports]
        assert len(states) == 4
        for state in states + [report.final_state]:
            assert type(state) is np.ndarray and state.dtype == np.complex128
            assert not state.flags.writeable
            with pytest.raises(ValueError):
                state[0] = 1.0
        assert report.final_state is report.stage_reports[-1].state
