"""Success probability, loss probabilities and the quality identity."""

from dataclasses import replace

import numpy as np
import pytest

from memamp import metrics
from memamp.dicke import weak_coherent_rows
from memamp.errors import ConfigError, MetricRangeError, UndefinedMetricError
from memamp.joint import EvolutionOrder, HeraldPattern, ModeTruncation
from memamp.metrics import QualityReport, row_norms, sector_norms
from memamp.protocol import STAGE_PATTERNS, ProtocolConfig, run_schedule
from reference import (
    evolve_stage, p_success_numeric, pair_probability, traced_density,
)

TOL = 1e-12


def score(psi, t, n_a=1, n_b=1):
    """Row 0 of psi against the target row t, scored as `run_batch` scores it
    on the (n_a, n_b) photon sector."""
    (matched,), (atomic,) = sector_norms(psi, t, n_a, n_b)
    norms = row_norms(psi[:, :, n_a, n_b])[0], matched, atomic, row_norms(psi)[0]
    return QualityReport.from_norms(1.0, norms, (n_a, n_b), float("nan"), 1.0)


def crafted(sector, matched, atomic, total, p_suc=0.5, counts=(1, 1)):
    """A report scored from hand-picked squared norms."""
    return QualityReport.from_norms(p_suc, (sector, matched, atomic, total), counts,
                                    2.0, 1.0)


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
        assert abs(score(psi, t).p_mode) < 1e-10

    def test_orthogonal_atomic_mode_gives_one(self):
        psi = np.zeros((1, 2, 2, 2, 1), dtype=complex)
        psi[0, 1, 1, 1, 0] = 1.0  # photons present, atomic part orthogonal to |0>
        psi[0, 0, 0, 0, 0] = 1.0  # the target mode, outside the photon sector
        assert score(psi, np.eye(2)[[0]]).p_mode == pytest.approx(1.0, abs=TOL)

    def test_undefined_without_photons(self):
        psi = np.zeros((1, 2, 2, 2, 1), dtype=complex)
        psi[0, 0, 0, 0, 0] = 1.0
        with pytest.raises(UndefinedMetricError, match="p_mode undefined$"):
            score(psi, np.eye(2)[[0]])

    def test_lossy_exact_regression(self):
        # frozen after the first verified run of the loss-extended simulation
        trunc = ModeTruncation(fock_a_max=4, fock_b_max=4, fock_c_max=3,
                               atomic_k_max=8)
        config = ProtocolConfig(100, p_w=1e-3, p_r=1e-3, beta_w=0.7, beta_r=0.7,
                                order=EvolutionOrder.EXACT, truncation=trunc)
        psi = evolve_stage(weak_coherent_rows([0.1], 9)[0], config)
        t = weak_coherent_rows(np.array([0.1 * 1.98]), 9)
        value = score(psi, t).p_mode
        assert 0.0 < value < 1.0
        assert value == pytest.approx(0.0010932098140604696, rel=1e-9)


class TestPSpon:
    def test_pure_target_density_gives_zero(self):
        t = weak_coherent_rows(np.array([0.1998]), 9)
        psi = np.zeros((1,) + ModeTruncation().resolve(100).shape(), dtype=complex)
        psi[0, :, 1, 1, 0] = t[0]
        report = score(psi, t)
        assert abs(report.p_spon) < TOL
        assert abs(report.p_mode) < TOL

    def test_tends_to_one_for_weak_coupling(self):
        n_atoms, alpha = 100, 0.1
        gain = 2 * (1 - 1 / n_atoms)
        t = weak_coherent_rows(np.array([gain * alpha]), 9)
        values = []
        for p in (1e-3, 1e-4, 1e-5):
            config = ProtocolConfig(n_atoms, p_w=p, p_r=p)
            psi = evolve_stage(weak_coherent_rows([alpha], 9)[0], config)
            value = score(psi, t).p_spon
            assert value >= 1 - 10 * p
            values.append(value)
        assert values[0] < values[1] < values[2]

    def test_undefined_without_atomic_overlap(self):
        # photons heralded, so p_mode = 1 is defined; nothing on the target mode
        psi = np.zeros((1, 2, 2, 2, 1), dtype=complex)
        psi[0, 1, 1, 1, 0] = 1.0
        with pytest.raises(UndefinedMetricError, match="p_spon undefined$"):
            score(psi, np.eye(2)[[0]])


#: no coupling: a stage leaves its atomic state in photon vacuum
VACUUM = ProtocolConfig(30, p_w=0.0, p_r=0.0)


class TestPAmp:
    """Uncoupled stages leave every row in the (0, 0) photon sector."""

    def test_target_projector_gives_one(self):
        psi = evolve_stage(weak_coherent_rows([0.2], 9)[0], VACUUM)
        t = weak_coherent_rows(np.array([0.2]), 9)
        assert score(psi, t, 0, 0).p_amp == pytest.approx(1.0, abs=TOL)

    def test_orthogonal_state_gives_zero(self):
        near = np.eye(4)[2] + 1e-7 * np.eye(4)[0]
        psi = evolve_stage(near / np.linalg.norm(near), VACUUM)
        assert score(psi, np.eye(9)[[0]], 0, 0).p_amp == pytest.approx(0.0, abs=TOL)
        # exactly orthogonal, p_spon is 0/0 before p_amp is formed
        psi = evolve_stage(np.eye(4)[2], VACUUM)
        with pytest.raises(UndefinedMetricError, match="p_spon undefined$"):
            score(psi, np.eye(9)[[0]], 0, 0)

    def test_heralded_run_against_large_n_target(self):
        # conditional state (1, 0.1998) against the N >> 1 target (1, 0.2):
        # the deficit is the 2*alpha vs 2*alpha*(1 - 1/N) mismatch
        conditional = weak_coherent_rows([0.1998], 9)[0]
        psi = evolve_stage(conditional, replace(VACUUM, n_atoms=1000))
        t = weak_coherent_rows(np.array([0.2]), 9)
        value = score(psi, t, 0, 0).p_amp
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
    report = score(psi, t, pattern.detect_a, pattern.detect_b)
    return {"p_mode": report.p_mode, "p_spon": report.p_spon, "p_amp": report.p_amp}


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
    """q_amp = p_amp (1 - p_spon)(1 - p_mode), formed from crafted norms."""

    def test_perfect_amplifier(self):
        assert crafted(1.0, 1.0, 1.0, 1.0).q_amp == 1.0

    def test_mixed_case(self):
        report = crafted(1.0, 0.7, 1.0, 2.0)  # p_mode = p_spon = 0.3, p_amp = 0.5
        assert report.q_amp == pytest.approx(0.245, abs=TOL)

    def test_total_spontaneous_loss(self):
        assert crafted(1.0, 0.0, 0.7, 1.0).q_amp == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(MetricRangeError,
                           match=r"^p_amp = 1\.2 outside \[0, 1\] tolerance band$"):
            crafted(1.0, 1.0, 1.2, 1.0)


class TestQualityReport:
    def test_product_identity_holds(self):
        report = crafted(2.0, 1.8, 3.0, 10 / 3)  # p_mode 0.1, p_spon 0.4, p_amp 0.9
        assert report.q_amp == pytest.approx(
            report.p_amp * (1 - report.p_spon) * (1 - report.p_mode), abs=TOL
        )

    def test_band_edges_accepted(self):
        report = crafted(1.0, 1.0 + 1e-11, 1.0 + 1e-11, 1.0, p_suc=-1e-11)
        assert report.p_mode < 0.0
        assert report.p_amp > 1.0

    def test_out_of_band_rejected(self):
        with pytest.raises(MetricRangeError, match="^p_mode = "):
            crafted(1.0, 1.001, 1.001, 1.001)

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
                 "_atomic_target_vector", "checked_p_mode", "checked_p_spon",
                 "checked_p_amp", "quality"]:
        for module in (memamp, joint, metrics):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    # the atomic state is a plain array everywhere: no wrapper classes
    for name in ["DickeVector", "basis_state", "apply_ladder", "apply_ss_dagger",
                 "gain_eigenvalue", "weak_coherent_atomic_state", "inner", "fidelity",
                 "DEFAULT_K_MAX", "ALGEBRA_TOL", "FullStateVector",
                 "apply_collective_full", "p_success_analytic", "ZeroNormError",
                 "build_dicke_full"]:
        for module in (memamp, dicke, oracle, metrics, errors):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(QualityReport, "build")


#: (sector, matched, atomic, total), herald counts, and what scoring raises
FAILING_NORMS = {
    "p_mode_undefined": ((0.0, 0.0, 1.0, 1.0), (1, 0), UndefinedMetricError,
                         "no probability in photon sector (1, 0); p_mode undefined"),
    "p_spon_undefined": ((1.0, 0.0, 0.0, 1.0), (1, 1), UndefinedMetricError,
                         "no probability on the target atomic mode; p_spon undefined"),
    "p_amp_undefined": ((1.0, 0.5, 1.0, 0.0), (1, 1), UndefinedMetricError,
                        "zero joint state; p_amp undefined"),
    "p_mode_out_of_band": ((1.0, 1.001, 1.001, 1.001), (1, 1), MetricRangeError,
                           "p_mode = -0.0009999999999998899 outside [0, 1] "
                           "tolerance band"),
}


class TestScoring:
    @pytest.mark.parametrize("case", list(FAILING_NORMS))
    def test_failing_norms_raise(self, case):
        norms, counts, error, message = FAILING_NORMS[case]
        with pytest.raises(error) as info:
            crafted(*norms, counts=counts)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_one_range_check_per_probability(self, monkeypatch):
        checked = []

        def counting(name, value):
            checked.append(name)
            return original(name, value)

        original = metrics._checked_probability
        monkeypatch.setattr(metrics, "_checked_probability", counting)
        assert run_schedule(ProtocolConfig(20)).quality is not None
        assert checked == ["p_suc", "p_mode", "p_spon", "p_amp", "q_amp", "fidelity"]
