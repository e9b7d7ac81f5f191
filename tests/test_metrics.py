"""Success probability, loss probabilities and the quality identity."""

from dataclasses import replace

import numpy as np
import pytest

from memamp.dicke import weak_coherent_rows
from memamp.errors import ConfigError, MetricRangeError, UndefinedMetricError
from memamp.joint import EvolutionOrder, HeraldPattern, ModeTruncation
from memamp.metrics import (
    QualityReport,
    checked_p_amp,
    checked_p_mode,
    checked_p_spon,
    quality,
    row_norms,
    sector_norms,
)
from memamp.protocol import STAGE_PATTERNS, ProtocolConfig
from reference import (
    evolve_stage, p_success_numeric, pair_probability, traced_density,
)

TOL = 1e-12


class TestPSuccessAnalytic:
    """`reference.pair_probability`, the closed form the numeric success
    probabilities converge to."""

    def test_zero_write_coupling(self):
        assert pair_probability(0.0, 0.5) == 0.0

    def test_symmetric_percent_couplings(self):
        assert pair_probability(0.01, 0.01) == pytest.approx(
            9.802960494069208e-05, rel=1e-14
        )

    def test_asymmetric_couplings(self):
        assert pair_probability(0.1, 0.05) == pytest.approx(
            0.004329004329004329, rel=1e-14
        )

    def test_range_validated(self):
        # a run takes couplings in [0, 1] only
        with pytest.raises(ConfigError, match="^p_w must be in"):
            ProtocolConfig(n_atoms=10, p_w=1.5, p_r=0.1)


class TestPSuccessNumeric:
    def test_zero_coupling(self):
        config = ProtocolConfig(n_atoms=50, alpha=0.0, p_w=0.0, p_r=1e-3)
        assert p_success_numeric(config) == 0.0

    def test_converges_to_analytic(self):
        errors = []
        for p in (1e-3, 1e-4, 1e-5):
            config = ProtocolConfig(n_atoms=100, alpha=0.0, p_w=p, p_r=p)
            numeric = p_success_numeric(config)
            analytic = pair_probability(p, p)
            errors.append(abs(numeric - analytic) / analytic)
            assert errors[-1] <= 10 * p
        assert errors[0] > errors[1] > errors[2]

    def test_state_dependence_is_alpha_squared(self):
        p, alpha = 1e-3, 0.1
        base = p_success_numeric(ProtocolConfig(n_atoms=100, alpha=0.0, p_w=p, p_r=p))
        with_state = p_success_numeric(
            ProtocolConfig(n_atoms=100, alpha=alpha, p_w=p, p_r=p)
        )
        relative = abs(with_state - base) / base
        assert alpha**2 / 5 <= relative <= 5 * alpha**2


class TestPMode:
    def test_lossless_first_order_vanishes(self):
        n_atoms, alpha, p = 100, 0.1, 1e-3
        config = ProtocolConfig(n_atoms, p_w=p, p_r=p)
        psi = evolve_stage(weak_coherent_rows([alpha], 9)[0], config)
        gain = 2 * (1 - 1 / n_atoms)
        t = weak_coherent_rows(np.array([gain * alpha]), 9)
        matched, _ = sector_norms(psi, t, 1, 1)
        value = checked_p_mode(row_norms(psi[:, :, 1, 1])[0], matched[0], 1, 1)
        assert abs(value) < 1e-10

    def test_orthogonal_atomic_mode_gives_one(self):
        psi = np.zeros((1, 2, 2, 2, 1), dtype=complex)
        psi[0, 1, 1, 1, 0] = 1.0  # photons present, atomic part orthogonal to |0>
        matched, _ = sector_norms(psi, np.eye(2)[[0]], 1, 1)
        value = checked_p_mode(row_norms(psi[:, :, 1, 1])[0], matched[0], 1, 1)
        assert value == pytest.approx(1.0, abs=TOL)

    def test_undefined_without_photons(self):
        psi = np.zeros((1, 2, 2, 2, 1), dtype=complex)
        psi[0, 0, 0, 0, 0] = 1.0
        matched, _ = sector_norms(psi, np.eye(2)[[0]], 1, 1)
        with pytest.raises(UndefinedMetricError):
            checked_p_mode(row_norms(psi[:, :, 1, 1])[0], matched[0], 1, 1)

    def test_lossy_exact_regression(self):
        # frozen after the first verified run of the loss-extended simulation
        trunc = ModeTruncation(fock_a_max=4, fock_b_max=4, fock_c_max=3,
                               atomic_k_max=8)
        config = ProtocolConfig(100, p_w=1e-3, p_r=1e-3, beta_w=0.7, beta_r=0.7,
                                order=EvolutionOrder.EXACT, truncation=trunc)
        psi = evolve_stage(weak_coherent_rows([0.1], 9)[0], config)
        t = weak_coherent_rows(np.array([0.1 * 1.98]), 9)
        matched, _ = sector_norms(psi, t, 1, 1)
        value = checked_p_mode(row_norms(psi[:, :, 1, 1])[0], matched[0], 1, 1)
        assert 0.0 < value < 1.0
        assert value == pytest.approx(0.0010932098140604696, rel=1e-9)


class TestPSpon:
    def test_pure_target_density_gives_zero(self):
        t = weak_coherent_rows(np.array([0.1998]), 9)
        psi = np.zeros((1,) + ModeTruncation().resolve(100).shape(), dtype=complex)
        psi[0, :, 1, 1, 0] = t[0]
        (matched,), (atomic,) = sector_norms(psi, t, 1, 1)
        assert abs(checked_p_spon(matched, atomic)) < TOL
        sector = row_norms(psi[:, :, 1, 1])[0]
        assert abs(checked_p_mode(sector, matched, 1, 1)) < TOL

    def test_tends_to_one_for_weak_coupling(self):
        n_atoms, alpha = 100, 0.1
        gain = 2 * (1 - 1 / n_atoms)
        t = weak_coherent_rows(np.array([gain * alpha]), 9)
        values = []
        for p in (1e-3, 1e-4, 1e-5):
            config = ProtocolConfig(n_atoms, p_w=p, p_r=p)
            psi = evolve_stage(weak_coherent_rows([alpha], 9)[0], config)
            (matched,), (atomic,) = sector_norms(psi, t, 1, 1)
            value = checked_p_spon(matched, atomic)
            assert value >= 1 - 10 * p
            values.append(value)
        assert values[0] < values[1] < values[2]

    def test_undefined_without_atomic_overlap(self):
        psi = np.zeros((1, 2, 2, 2, 1), dtype=complex)
        psi[0, 1, 0, 0, 0] = 1.0
        (matched,), (atomic,) = sector_norms(psi, np.eye(2)[[0]], 1, 1)
        with pytest.raises(UndefinedMetricError):
            checked_p_spon(matched, atomic)


#: no coupling: a stage leaves its atomic state in photon vacuum
VACUUM = ProtocolConfig(30, p_w=0.0, p_r=0.0)


class TestPAmp:
    def test_target_projector_gives_one(self):
        psi = evolve_stage(weak_coherent_rows([0.2], 9)[0], VACUUM)
        t = weak_coherent_rows(np.array([0.2]), 9)
        _, (atomic,) = sector_norms(psi, t, 1, 1)
        assert checked_p_amp(atomic, row_norms(psi)[0]) == pytest.approx(1.0, abs=TOL)

    def test_orthogonal_state_gives_zero(self):
        psi = evolve_stage(np.eye(4)[2], VACUUM)
        _, (atomic,) = sector_norms(psi, np.eye(9)[[0]], 1, 1)
        assert checked_p_amp(atomic, row_norms(psi)[0]) == pytest.approx(0.0, abs=TOL)

    def test_heralded_run_against_large_n_target(self):
        # conditional state (1, 0.1998) against the N >> 1 target (1, 0.2):
        # the deficit is the 2*alpha vs 2*alpha*(1 - 1/N) mismatch
        conditional = weak_coherent_rows([0.1998], 9)[0]
        psi = evolve_stage(conditional, replace(VACUUM, n_atoms=1000))
        t = weak_coherent_rows(np.array([0.2]), 9)
        _, (atomic,) = sector_norms(psi, t, 1, 1)
        value = checked_p_amp(atomic, row_norms(psi)[0])
        assert value == pytest.approx(0.9999999630149079, abs=1e-12)


def reference_metrics(psi, t, pattern):
    """p_mode, p_spon and p_amp of row 0 read from the traced density matrix."""
    rho, _ = traced_density(psi[0])
    t = t[0]
    n_a, n_b = pattern.detect_a, pattern.detect_b
    block = rho[:, n_a, n_b, :, n_a, n_b]
    matched = float(np.real(np.vdot(t, block @ t)))
    sector = float(np.trace(block).real)
    atomic = float(np.real(np.einsum("i,iabjab,j->", t.conj(), rho, t)))
    return {
        "p_mode": 1 - matched / sector,
        "p_spon": 1 - matched / atomic,
        "p_amp": atomic,
    }


def amplitude_metrics(psi, t, pattern):
    """p_mode, p_spon and p_amp of row 0 as `run_batch` scores them."""
    n_a, n_b = pattern.detect_a, pattern.detect_b
    (matched,), (atomic,) = sector_norms(psi, t, n_a, n_b)
    sector, total = row_norms(psi[:, :, n_a, n_b])[0], row_norms(psi)[0]
    return {
        "p_mode": checked_p_mode(sector, matched, n_a, n_b),
        "p_spon": checked_p_spon(matched, atomic),
        "p_amp": checked_p_amp(atomic, total),
    }


PATTERNS = [HeraldPattern(1, 1), HeraldPattern(1, 0), HeraldPattern(0, 1)]
KINDS = {pattern: kind for kind, pattern in STAGE_PATTERNS.items()}


def pattern_id(pattern):
    return f"{pattern.detect_a}{pattern.detect_b}"


class TestAgainstDensityMatrix:
    """The amplitude metrics equal the traced-density formulas they replace."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("pattern", PATTERNS, ids=pattern_id)
    def test_random_complex_tensors(self, seed, pattern):
        rng = np.random.default_rng(seed)
        trunc = ModeTruncation(
            fock_a_max=int(rng.integers(1, 4)),
            fock_b_max=int(rng.integers(1, 4)),
            fock_c_max=int(rng.integers(1, 4)),
            atomic_k_max=int(rng.integers(1, 6)),
        )
        shape = (1,) + trunc.shape()
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        psi *= float(rng.uniform(0.1, 3.0))
        k_alloc = int(rng.integers(0, shape[1]))
        t = np.zeros((1, shape[1]), dtype=complex)
        t[0, : k_alloc + 1] = rng.normal(size=k_alloc + 1)
        t[0, : k_alloc + 1] += 1j * rng.normal(size=k_alloc + 1)
        t /= np.linalg.norm(t)
        new = amplitude_metrics(psi, t, pattern)
        old = reference_metrics(psi, t, pattern)
        for key in old:
            assert abs(new[key] - old[key]) <= 1e-12, key

    @pytest.mark.parametrize("order", list(EvolutionOrder), ids=lambda o: o.value)
    @pytest.mark.parametrize("beta", [0.6, 1.0])
    @pytest.mark.parametrize("pattern", PATTERNS, ids=pattern_id)
    def test_evolved_states(self, order, beta, pattern):
        trunc = ModeTruncation(fock_a_max=4, fock_b_max=4, fock_c_max=3,
                               atomic_k_max=8)
        config = ProtocolConfig(40, p_w=2e-3, p_r=3e-3, beta_w=beta, beta_r=beta,
                                order=order, truncation=trunc)
        psi = evolve_stage(weak_coherent_rows([0.3], 9)[0], config, KINDS[pattern])
        t = weak_coherent_rows(np.array([0.3 * 1.95]), 9)
        new = amplitude_metrics(psi, t, pattern)
        old = reference_metrics(psi, t, pattern)
        for key in old:
            assert abs(new[key] - old[key]) <= 1e-12, key


class TestQuality:
    def test_perfect_amplifier(self):
        assert quality(1.0, 0.0, 0.0) == 1.0

    def test_mixed_case(self):
        assert quality(0.5, 0.3, 0.3) == pytest.approx(0.245, abs=TOL)

    def test_total_spontaneous_loss(self):
        assert quality(0.7, 1.0, 0.2) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(MetricRangeError):
            quality(1.2, 0.0, 0.0)


class TestQualityReport:
    def test_product_identity_holds(self):
        report = QualityReport.build(
            p_suc=1e-4,
            p_mode_value=0.1,
            p_spon_value=0.4,
            p_amp_value=0.9,
            gain=1.98,
            fidelity=0.99,
        )
        assert report.q_amp == pytest.approx(
            report.p_amp * (1 - report.p_spon) * (1 - report.p_mode), abs=TOL
        )

    def test_band_edges_accepted(self):
        report = QualityReport.build(
            p_suc=-1e-11,
            p_mode_value=0.0,
            p_spon_value=0.0,
            p_amp_value=1.0 + 1e-11,
            gain=2.0,
            fidelity=1.0,
        )
        assert report.p_amp > 1.0

    def test_out_of_band_rejected(self):
        with pytest.raises(MetricRangeError):
            QualityReport.build(
                p_suc=0.5,
                p_mode_value=-1e-3,
                p_spon_value=0.0,
                p_amp_value=1.0,
                gain=2.0,
                fidelity=1.0,
            )

    def test_broken_identity_rejected(self):
        with pytest.raises(ValueError):
            QualityReport(
                p_suc=0.5,
                p_mode=0.1,
                p_spon=0.1,
                p_amp=0.9,
                q_amp=0.5,
                gain=2.0,
                fidelity=1.0,
            )


def test_public_surface():
    """Every exported name resolves; the test references are not in the package."""
    import memamp
    from memamp import dicke, errors, joint, metrics, oracle

    assert [name for name in memamp.__all__ if not hasattr(memamp, name)] == []
    for name in ["DensityMatrix", "PSD_TOL", "p_success_numeric", "dump_amplitudes",
                 "reduced_conditional_density", "joint_density_traced", "_herald_slice",
                 "JointState", "build_joint", "apply_write", "apply_read", "herald",
                 "p_mode", "p_spon", "p_amp", "_apply_one", "_joint_norms",
                 "_atomic_target_vector"]:
        for module in (memamp, joint, metrics):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    # the atomic state is a plain array everywhere: no wrapper classes
    for name in ["DickeVector", "basis_state", "apply_ladder", "apply_ss_dagger",
                 "gain_eigenvalue", "weak_coherent_atomic_state", "inner", "fidelity",
                 "DEFAULT_K_MAX", "ALGEBRA_TOL", "FullStateVector",
                 "apply_collective_full", "p_success_analytic", "ZeroNormError"]:
        for module in (memamp, dicke, oracle, metrics, errors):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
