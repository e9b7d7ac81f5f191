"""Closed-form ladder algebra, gain formulas and state helpers."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memamp.dicke import (
    DickeVector,
    LadderDirection,
    Schedule,
    apply_ladder,
    apply_ss_dagger,
    basis_state,
    fidelity,
    gain_eigenvalue,
    ladder_coeff,
    relative_gain,
    weak_coherent_atomic_state,
    weak_coherent_rows,
)
from memamp.errors import TruncationOverflowError, ZeroNormError
from reference import weak_coherent_rows_per_row

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


class TestApplyLadder:
    def test_raise_ground(self):
        out = apply_ladder(LadderDirection.RAISE, basis_state(0, 12))
        assert out.amplitudes[1] == pytest.approx(1.0, abs=TOL)
        assert np.sum(np.abs(out.amplitudes)) == pytest.approx(1.0, abs=TOL)

    def test_lower_ground_is_zero(self):
        out = apply_ladder(LadderDirection.LOWER, basis_state(0, 12))
        assert out.norm() == 0.0

    def test_raise_k1_n10(self):
        out = apply_ladder(LadderDirection.RAISE, basis_state(1, 10))
        assert out.amplitudes[2] == pytest.approx(1.3416407864998738, abs=TOL)

    def test_raise_overflow_guard(self):
        state = DickeVector(10, np.ones(3) / np.sqrt(3), normalized=True)
        with pytest.raises(TruncationOverflowError):
            apply_ladder(LadderDirection.RAISE, state)

    def test_raise_at_physical_top_allowed(self):
        # k = N annihilates upward, so a populated top level is fine there
        state = DickeVector(2, np.array([0, 0, 1.0]), normalized=True)
        out = apply_ladder(LadderDirection.RAISE, state)
        assert out.norm() == 0.0

    @given(
        n_atoms=st.integers(min_value=1, max_value=40),
        k=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=100)
    def test_raise_then_lower_is_diagonal(self, n_atoms, k):
        k = min(k, n_atoms)
        state = basis_state(k, n_atoms, k_alloc=min(n_atoms, k + 1))
        round_trip = apply_ladder(
            LadderDirection.LOWER, apply_ladder(LadderDirection.RAISE, state)
        )
        expected = (k + 1) * (1.0 - k / n_atoms)
        assert abs(round_trip.amplitudes[k] - expected) <= TOL


class TestSSDagger:
    def test_ground_eigenvalue_one(self):
        out = apply_ss_dagger(basis_state(0, 33))
        assert out.amplitudes[0] == pytest.approx(1.0, abs=TOL)

    def test_k1_n100(self):
        out = apply_ss_dagger(basis_state(1, 100))
        assert out.amplitudes[1] == pytest.approx(1.98, abs=TOL)

    def test_k2_n4(self):
        out = apply_ss_dagger(basis_state(2, 4))
        assert out.amplitudes[2] == pytest.approx(1.5, abs=TOL)

    def test_matches_ladder_composition(self):
        state = weak_coherent_atomic_state(0.3 + 0.1j, 17)
        via_diag = apply_ss_dagger(state)
        via_ladder = apply_ladder(
            LadderDirection.LOWER, apply_ladder(LadderDirection.RAISE, state)
        )
        assert np.allclose(via_diag.amplitudes, via_ladder.amplitudes, atol=TOL)


class TestGainEigenvalue:
    def test_type1_k1_n100_three_rounds(self):
        value = gain_eigenvalue(Schedule.TYPE_I, 1, 100, 3)
        assert value == pytest.approx(7.762392, rel=1e-12)

    def test_type1_cross_check_with_ss_dagger(self):
        state = basis_state(1, 100)
        for _ in range(3):
            state = apply_ss_dagger(state)
        assert state.amplitudes[1] == pytest.approx(
            gain_eigenvalue(Schedule.TYPE_I, 1, 100, 3), rel=1e-12
        )

    def test_type2_k0_n100_two_rounds(self):
        assert gain_eigenvalue(Schedule.TYPE_II, 0, 100, 2) == pytest.approx(
            1.98, abs=TOL
        )

    def test_type2_cross_check_with_ladder_sequence(self):
        state = basis_state(0, 100, k_alloc=2)
        for _ in range(2):
            state = apply_ladder(LadderDirection.RAISE, state)
        for _ in range(2):
            state = apply_ladder(LadderDirection.LOWER, state)
        assert state.amplitudes[0] == pytest.approx(1.98, abs=TOL)

    def test_ground_type1_always_one(self):
        assert gain_eigenvalue(Schedule.TYPE_I, 0, 50, 7) == 1.0

    def test_zero_rounds_is_identity(self):
        for schedule in Schedule:
            assert gain_eigenvalue(schedule, 3, 20, 0) == 1.0

    def test_type2_overreach_rejected(self):
        with pytest.raises(ValueError):
            gain_eigenvalue(Schedule.TYPE_II, 2, 5, 4)


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
        ratio = gain_eigenvalue(schedule, 1, n_atoms, n_rounds) / gain_eigenvalue(
            schedule, 0, n_atoms, n_rounds
        )
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
        # eta = (k+1)(1 - k/N) > 1 in exact integers; the float form rounds
        # the boundary value 1 at N = k+1 up (k = 46, N = 47)
        k = min(k, n_atoms)
        assert ((k + 1) * (n_atoms - k) > n_atoms) == (n_atoms >= k + 2)

    def test_large_n_limit(self):
        n_atoms = 10**9
        for n_rounds in range(21):
            gain = relative_gain(Schedule.TYPE_I, n_rounds, n_atoms)
            assert abs(gain - 2.0**n_rounds) / 2.0**n_rounds < 1e-7


class TestWeakCoherentState:
    def test_zero_alpha_is_ground(self):
        state = weak_coherent_atomic_state(0.0, 5)
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0)

    def test_small_alpha_normalization(self):
        state = weak_coherent_atomic_state(0.1, 1000)
        expected = 1.0 / np.sqrt(1.01)
        assert state.amplitudes[0] == pytest.approx(expected, abs=TOL)
        assert state.amplitudes[1] == pytest.approx(0.1 * expected, abs=TOL)

    def test_complex_alpha_ratio_preserved(self):
        alpha = 0.5j
        state = weak_coherent_atomic_state(alpha, 3)
        assert state.amplitudes[1] / state.amplitudes[0] == pytest.approx(alpha)
        assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=TOL)

    @pytest.mark.parametrize("alpha", [0.0, 0.1, -0.3, 0.2 - 0.7j, 1.0, 1j])
    def test_unit_alpha_unchanged_to_the_bit(self, alpha):
        amps = np.array([1.0, alpha], dtype=complex)
        expected = amps / np.linalg.norm(amps)
        state = weak_coherent_atomic_state(alpha, 10)
        assert np.array_equal(state.amplitudes[:2], expected)

    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(
                    st.complex_numbers(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, 1e-320, -1e308, 1e308 + 1e308j, 0.2 - 0.7j]),
                ),
                st.integers(min_value=1, max_value=40),
            ),
            min_size=1,
            max_size=8,
        ),
        size=st.integers(min_value=2, max_value=20),
    )
    @settings(max_examples=300)
    def test_rows_match_the_per_row_norm_to_the_bit(self, rows, size):
        alpha = np.array([a for a, _ in rows], dtype=complex)
        n_atoms = [n for _, n in rows]
        expected = weak_coherent_rows_per_row(alpha, n_atoms, size)
        assert weak_coherent_rows(alpha, size).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("alpha", [1e154, 1e200, 1e308, 1e308 + 1e308j])
    def test_huge_alpha_normalizes(self, alpha):
        state = weak_coherent_atomic_state(alpha, 10)
        assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=TOL)
        assert state.amplitudes[1] == pytest.approx(alpha / abs(alpha), abs=TOL)


class TestFidelity:
    def test_self_fidelity(self):
        state = weak_coherent_atomic_state(0.2 - 0.1j, 50)
        assert fidelity(state, state) == pytest.approx(1.0, abs=TOL)

    def test_orthogonal_levels(self):
        assert fidelity(basis_state(0, 8), basis_state(1, 8)) == 0.0

    def test_nearby_coherent_states(self):
        # direct inner-product evaluation:
        # (1 + 0.2*0.1998)^2 / ((1 + 0.04)(1 + 0.1998^2)) = 0.9999999630149079
        a = weak_coherent_atomic_state(0.2, 1000)
        b = weak_coherent_atomic_state(0.1998, 1000)
        assert fidelity(a, b) == pytest.approx(0.9999999630149079, abs=1e-15)

    def test_unnormalized_inputs(self):
        a = DickeVector(6, np.array([2.0, 0.0]))
        b = DickeVector(6, np.array([0.5, 0.0]))
        assert fidelity(a, b) == pytest.approx(1.0, abs=TOL)

    def test_zero_norm_rejected(self):
        zero = DickeVector(6, np.zeros(2))
        with pytest.raises(ZeroNormError):
            fidelity(zero, basis_state(0, 6))

    def test_atom_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fidelity(basis_state(0, 6), basis_state(0, 7))


class TestDickeVectorInvariants:
    def test_allocation_beyond_n_rejected(self):
        with pytest.raises(ValueError):
            DickeVector(2, np.zeros(4))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            DickeVector(4, np.array([np.nan, 0.0]))

    def test_normalized_flag_checked(self):
        with pytest.raises(ValueError):
            DickeVector(4, np.array([2.0, 0.0]), normalized=True)

    def test_amplitudes_read_only(self):
        state = basis_state(1, 4)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0
