"""Brute-force full-space checks of the symmetric-subspace algebra."""

import numpy as np
import pytest

from memamp import oracle
from memamp.dicke import LadderDirection, ladder_coeff
from memamp.errors import ResourceGuardError
from memamp.oracle import (
    collective_apply,
    popcounts,
    project_to_dicke,
    verify_ladder,
)
from reference import build_dicke_full, verify_ladder_per_level

TOL = 1e-12


class TestKernels:
    """The NumPy bitmask kernels against literal per-bit loops."""

    def test_backend_is_numpy(self):
        import memamp

        assert memamp.KERNEL_BACKEND == "numpy"

    @pytest.mark.parametrize("n_atoms", [1, 2, 5, 10, 14])
    def test_popcounts_match_bit_loop(self, n_atoms):
        expected = [bin(m).count("1") for m in range(1 << n_atoms)]
        counts = popcounts(n_atoms)
        assert counts.dtype == np.uint8
        assert counts.tolist() == expected

    def test_popcounts_values(self):
        counts = popcounts(4)
        assert counts[0b0000] == 0
        assert counts[0b1011] == 3
        assert counts[0b1111] == 4

    def test_popcounts_table_shared_and_read_only(self):
        assert popcounts(6) is popcounts(6)
        with pytest.raises(ValueError):
            popcounts(6)[0] = 1

    @pytest.mark.parametrize("n_atoms", [1, 2, 5, 10])
    @pytest.mark.parametrize("raising", [True, False])
    def test_collective_apply_matches_flip_loop(self, n_atoms, raising):
        rng = np.random.default_rng(1234 + n_atoms)
        size = 1 << n_atoms
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        expected = np.zeros(size, dtype=complex)
        for mask in range(size):
            for atom in range(n_atoms):
                bit = 1 << atom
                if raising and not mask & bit:
                    expected[mask | bit] += amps[mask]
                elif not raising and mask & bit:
                    expected[mask & ~bit] += amps[mask]
        expected /= np.sqrt(n_atoms)
        out = collective_apply(amps, n_atoms, raising)
        assert np.max(np.abs(out - expected)) <= 1e-14

    def test_collective_apply_single_flip(self):
        # lowering |01> for two atoms gives |00> / sqrt(2)
        amps = np.zeros(4, dtype=complex)
        amps[0b01] = 1.0
        out = collective_apply(amps, 2, raising=False)
        assert out[0b00] == pytest.approx(1 / np.sqrt(2))
        assert np.count_nonzero(out) == 1

    def test_collective_apply_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            collective_apply(np.zeros(5, dtype=complex), 2, raising=True)


class TestBuildDickeFull:
    def test_ground_state(self):
        state = build_dicke_full(0, 3)
        assert state[0b000] == 1.0
        assert np.sum(np.abs(state)) == 1.0

    def test_single_excitation_equal_weights(self):
        state = build_dicke_full(1, 3)
        for mask in (0b001, 0b010, 0b100):
            assert state[mask] == pytest.approx(1 / np.sqrt(3), abs=TOL)
        assert state[0b011] == 0.0

    def test_two_of_four(self):
        state = build_dicke_full(2, 4)
        masks = [m for m in range(16) if bin(m).count("1") == 2]
        assert len(masks) == 6
        for mask in masks:
            assert state[mask] == pytest.approx(1 / np.sqrt(6), abs=TOL)

    @pytest.mark.parametrize("k,n_atoms", [(0, 1), (3, 7), (14, 14)])
    def test_normalized(self, k, n_atoms):
        state = build_dicke_full(k, n_atoms)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=TOL)

    def test_atom_cap(self):
        with pytest.raises(ResourceGuardError):
            build_dicke_full(0, 15)


class TestCollectiveApply:
    def test_lower_annihilates_ground(self):
        out = collective_apply(build_dicke_full(0, 6), 6, raising=False)
        assert np.linalg.norm(out) == 0.0

    def test_raise_ground_gives_single_excitation(self):
        out = collective_apply(build_dicke_full(0, 4), 4, raising=True)
        assert np.allclose(out, build_dicke_full(1, 4), atol=TOL)

    def test_raise_single_excitation_n10(self):
        out = collective_apply(build_dicke_full(1, 10), 10, raising=True)
        overlap = np.vdot(build_dicke_full(2, 10), out)
        assert overlap.real == pytest.approx(1.3416407864998738, abs=TOL)

    def test_subspace_closure(self):
        for n_atoms in range(2, 11):
            for k in range(n_atoms + 1):
                for raising in (True, False):
                    image = collective_apply(
                        build_dicke_full(k, n_atoms), n_atoms, raising
                    )
                    _, residuals = project_to_dicke(image, n_atoms)
                    assert np.linalg.norm(residuals) < TOL


class TestProjectToDicke:
    def test_pure_dicke_state(self):
        projected, residuals = project_to_dicke(build_dicke_full(2, 5), 5)
        assert projected[2] == pytest.approx(1.0, abs=TOL)
        others = np.delete(projected, 2)
        assert np.max(np.abs(others)) < TOL
        assert np.linalg.norm(residuals) < TOL

    def test_product_state_overlap_and_residual(self):
        # |sggg>: overlap 1/sqrt(4) with the symmetric single-excitation state,
        # the rest of the norm lies outside the subspace, all in sector 1
        amps = np.zeros(16, dtype=complex)
        amps[0b0001] = 1.0
        projected, residuals = project_to_dicke(amps, 4)
        assert projected[1] == pytest.approx(0.5, abs=TOL)
        assert residuals[1] == pytest.approx(np.sqrt(3) / 2, abs=TOL)
        assert np.count_nonzero(residuals) == 1

    def test_residuals_split_the_whole_residual(self):
        # the popcount sectors are orthogonal: the per-sector residuals add in
        # quadrature to the norm of everything outside the symmetric subspace
        n_atoms = 6
        rng = np.random.default_rng(7)
        amps = rng.normal(size=1 << n_atoms) + 1j * rng.normal(size=1 << n_atoms)
        projected, residuals = project_to_dicke(amps, n_atoms)
        inside = sum(c * build_dicke_full(k, n_atoms) for k, c in enumerate(projected))
        assert residuals.shape == (n_atoms + 1,)
        assert np.linalg.norm(residuals) == pytest.approx(
            np.linalg.norm(amps - inside), rel=TOL
        )

    def test_zero_vector(self):
        projected, residuals = project_to_dicke(np.zeros(8, dtype=complex), 3)
        assert np.all(projected == 0)
        assert np.all(residuals == 0.0)


class TestCoefficientEquivalence:
    @pytest.mark.parametrize("n_atoms", range(2, 13))
    def test_oracle_matches_closed_form(self, n_atoms):
        for k in range(n_atoms + 1):
            source = build_dicke_full(k, n_atoms)
            for direction in LadderDirection:
                raising = direction is LadderDirection.RAISE
                image = collective_apply(source, n_atoms, raising)
                projected, residuals = project_to_dicke(image, n_atoms)
                target_k = k + 1 if raising else k - 1
                expected = ladder_coeff(direction, k, n_atoms)
                observed = projected[target_k].real if 0 <= target_k <= n_atoms else 0.0
                assert abs(observed - expected) < TOL
                assert np.linalg.norm(residuals) < TOL


class TestPathCounting:
    def test_factor_two_degeneracy_n3(self):
        # raising the symmetric single excitation reaches each two-excitation
        # product state along two indistinguishable paths: the amplitude per
        # bitmask is twice the single-path value (1/sqrt(3) * 1/sqrt(3))
        out = collective_apply(build_dicke_full(1, 3), 3, raising=True)
        single_path = (1 / np.sqrt(3)) * (1 / np.sqrt(3))
        for mask in (0b011, 0b101, 0b110):
            assert out[mask].real == pytest.approx(
                2 * single_path, abs=TOL
            )

    def test_smallest_gain_ensemble(self):
        # N=3 is the smallest ensemble with (k+1)(N-k)/N > 1 at k=1
        report = verify_ladder(3)
        assert report.passed
        eig = ladder_coeff(LadderDirection.RAISE, 1, 3) * ladder_coeff(
            LadderDirection.LOWER, 2, 3
        )
        assert eig == pytest.approx(4.0 / 3.0, abs=TOL)
        assert eig > 1.0


class TestVerifyLadder:
    @pytest.mark.parametrize("n_atoms", [2, 7, 10])
    def test_passes(self, n_atoms):
        report = verify_ladder(n_atoms)
        assert report.passed
        assert report.max_deviation < TOL
        assert report.max_residual < TOL
        assert len(report.entries) == 2 * (n_atoms + 1)

    def test_bounds(self):
        with pytest.raises(ResourceGuardError):
            verify_ladder(15)
        with pytest.raises(ResourceGuardError):
            verify_ladder(1)

    def test_report_serializes(self):
        payload = verify_ladder(4).to_dict()
        assert payload["n_atoms"] == 4
        assert payload["passed"] is True
        assert len(payload["entries"]) == 10

    @pytest.mark.parametrize("n_atoms", range(2, oracle.MAX_FULL_ATOMS + 1))
    def test_equals_per_level_reference(self, n_atoms):
        # one flip pass per direction over every level gives each entry the
        # numbers of its own level's pass, bit for bit
        assert verify_ladder(n_atoms).to_dict() == verify_ladder_per_level(n_atoms)

    def test_two_flip_passes_per_ensemble(self, monkeypatch):
        calls = []

        def counted(amps, n_atoms, raising):
            calls.append(raising)
            return collective_apply(amps, n_atoms, raising)

        monkeypatch.setattr(oracle, "collective_apply", counted)
        for n_atoms in (2, 9, 14):
            calls.clear()
            assert verify_ladder(n_atoms).passed
            assert sorted(calls) == [False, True]


def _scaled(amps, n_atoms, raising):
    return collective_apply(amps, n_atoms, raising) * (1 + 1e-8)


def _two_flip_leak(amps, n_atoms, raising):
    # a small two-flip term: moves amplitude by two levels
    once = collective_apply(amps, n_atoms, raising)
    return once + 1e-6 * collective_apply(once, n_atoms, raising)


def _swapped(amps, n_atoms, raising):
    return collective_apply(amps, n_atoms, not raising)


def _atom0_doubled(amps, n_atoms, raising):
    # atom 0 flipped twice as strongly as the rest: no longer symmetric
    out = collective_apply(amps, n_atoms, raising)
    source, target = amps.reshape(-1, 2), out.reshape(-1, 2)
    if raising:
        target[:, 1] += source[:, 0] / np.sqrt(n_atoms)
    else:
        target[:, 0] += source[:, 1] / np.sqrt(n_atoms)
    return out


@pytest.mark.parametrize(
    "faulty", [_scaled, _two_flip_leak, _swapped, _atom0_doubled],
    ids=["scaled", "two_flip_leak", "swapped", "atom0_doubled"],
)
def test_faulty_flip_operator_fails(monkeypatch, faulty):
    monkeypatch.setattr(oracle, "collective_apply", faulty)
    for n_atoms in range(2, 11):
        assert not verify_ladder(n_atoms).passed, n_atoms
