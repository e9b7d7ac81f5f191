"""Figures of merit for the heralded amplifier.

The loss probabilities compare a final density matrix against the intended
amplified state along two axes: photons detected but the wrong atomic mode
created (mode mismatch), and the right atomic mode created but the photons
undetected (spontaneous-emission loss). Their complements multiply the
amplification probability into a single quality number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dicke import DickeVector
from .errors import MetricRangeError, UndefinedMetricError

if TYPE_CHECKING:
    from .joint import HeraldPattern, JointState
    from .protocol import ProtocolConfig

#: Probabilities must land in [-PROB_BAND, 1 + PROB_BAND] without clamping.
PROB_BAND = 1e-10

#: Hermiticity / trace tolerance for density matrices.
MATRIX_TOL = 1e-12

#: Most-negative eigenvalue tolerated for positive semidefiniteness.
PSD_TOL = -1e-10


def _checked_probability(name: str, value: float) -> float:
    if not np.isfinite(value) or not -PROB_BAND <= value <= 1.0 + PROB_BAND:
        raise MetricRangeError(f"{name} = {value!r} outside [0, 1] tolerance band")
    return float(value)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian positive-semidefinite operator, optionally with tensor dims.

    ``dims`` records the axis sizes when the matrix lives on a flattened
    product space, e.g. (k, n_a, n_b) after tracing out the undetected mode.
    """

    matrix: np.ndarray
    normalized: bool = False
    dims: tuple[int, ...] | None = None

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.complex128).copy()
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        scale = max(1.0, float(np.abs(np.trace(mat))))
        if float(np.max(np.abs(mat - mat.conj().T))) > MATRIX_TOL * scale:
            raise ValueError("matrix is not Hermitian within tolerance")
        eigs = np.linalg.eigvalsh(mat)
        if eigs.size and float(eigs[0]) < PSD_TOL * scale:
            raise ValueError(f"matrix has negative eigenvalue {eigs[0]}")
        if self.normalized and abs(float(np.trace(mat).real) - 1.0) > MATRIX_TOL:
            raise ValueError("normalized flag set but trace != 1")
        if self.dims is not None and int(np.prod(self.dims)) != mat.shape[0]:
            raise ValueError(f"dims {self.dims} do not match dimension {mat.shape[0]}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def expectation(self, vector: np.ndarray) -> float:
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        if v.size != self.dim:
            raise ValueError(f"vector length {v.size} != dimension {self.dim}")
        return float(np.real(np.vdot(v, self.matrix @ v)))


def p_success_analytic(p_w: float, p_r: float) -> float:
    """Pair-detection probability to second order in the couplings:
    p_w p_r / (1 + p_w + p_r + p_w p_r)."""
    if not 0.0 <= p_w <= 1.0 or not 0.0 <= p_r <= 1.0:
        raise ValueError("couplings must be in [0, 1]")
    return p_w * p_r / (1.0 + p_w + p_r + p_w * p_r)


def p_success_numeric(config: "ProtocolConfig") -> float:
    """Simulated (1,1)-herald probability over the total outcome probability."""
    from . import joint as joint_mod
    from . import protocol
    from .dicke import weak_coherent_atomic_state

    atomic = weak_coherent_atomic_state(config.alpha, config.n_atoms)
    kind = protocol.StageKind.WRITE_THEN_READ
    state = protocol._evolve_stage(atomic, config, kind)
    outcomes = joint_mod.outcome_probabilities(state)
    detected = float(outcomes[1, 1, :].sum())
    total = state.total_probability()
    if total == 0.0:
        raise UndefinedMetricError("evolved state has zero norm")
    return _checked_probability("p_success_numeric", detected / total)


def _require_joint_dims(rho_f: DensityMatrix) -> tuple[int, int, int]:
    if rho_f.dims is None or len(rho_f.dims) != 3:
        raise ValueError("expected a density matrix with (k, n_a, n_b) dims")
    return rho_f.dims  # type: ignore[return-value]


def _target_photon_sector(target: "JointState") -> tuple[int, int, np.ndarray]:
    """Extract the single (n_a, n_b) sector a pure target state occupies."""
    amps = target.amplitudes
    if np.any(amps[:, :, :, 1:] != 0):
        raise ValueError("target state must keep the undetected mode in vacuum")
    block = amps[:, :, :, 0]
    pops = np.sum(np.abs(block) ** 2, axis=0)
    hot = np.argwhere(pops > 1e-24 * max(pops.max(), 1e-300))
    if hot.shape[0] != 1:
        raise ValueError("target state must occupy exactly one photon sector")
    n_a, n_b = (int(hot[0][0]), int(hot[0][1]))
    return n_a, n_b, block


def p_mode(rho_f: DensityMatrix, target: "JointState") -> float:
    """Probability that detected photons come without the matched atomic mode.

    1 - <target|rho|target> / P(photon sector of the target).
    """
    dims = _require_joint_dims(rho_f)
    n_a, n_b, block = _target_photon_sector(target)
    if block.shape != dims:
        raise ValueError(f"target dims {block.shape} != density dims {dims}")
    vec = block.reshape(-1)
    nrm = np.linalg.norm(vec)
    if nrm == 0.0:
        raise ValueError("target state has zero norm")
    numerator = rho_f.expectation(vec / nrm)
    rho6 = rho_f.matrix.reshape(dims + dims)
    denominator = float(np.trace(rho6[:, n_a, n_b, :, n_a, n_b]).real)
    if denominator <= 0.0:
        raise UndefinedMetricError(
            f"no probability in photon sector ({n_a}, {n_b}); p_mode undefined"
        )
    return _checked_probability("p_mode", 1.0 - numerator / denominator)


def _atomic_target_vector(target_atomic: DickeVector, k_dim: int) -> np.ndarray:
    t = np.zeros(k_dim, dtype=np.complex128)
    m = min(target_atomic.amplitudes.size, k_dim)
    if target_atomic.amplitudes.size > k_dim and np.any(
        target_atomic.amplitudes[k_dim:] != 0
    ):
        raise ValueError("atomic target populates levels beyond the density matrix")
    t[:m] = target_atomic.amplitudes[:m]
    nrm = np.linalg.norm(t)
    if nrm == 0.0:
        raise ValueError("atomic target has zero norm")
    return t / nrm


def _atomic_sector_probability(
    rho_f: DensityMatrix, target_atomic: DickeVector
) -> float:
    dims = _require_joint_dims(rho_f)
    t = _atomic_target_vector(target_atomic, dims[0])
    rho6 = rho_f.matrix.reshape(dims + dims)
    return float(
        np.real(np.einsum("i,iabjab,j->", t.conj(), rho6, t, optimize=True))
    )


def p_spon(
    rho_f: DensityMatrix,
    target_atomic: DickeVector,
    pattern: "HeraldPattern | None" = None,
) -> float:
    """Probability that the matched atomic mode comes without detected photons.

    1 - <target_full|rho|target_full> / P(atomic part matches the target),
    with the full target placing the atomic target in the ``pattern`` photon
    sector (one photon in each detected mode by default).
    """
    dims = _require_joint_dims(rho_f)
    n_a = 1 if pattern is None else pattern.detect_a
    n_b = 1 if pattern is None else pattern.detect_b
    if n_a >= dims[1] or n_b >= dims[2]:
        raise ValueError(f"pattern ({n_a},{n_b}) outside density dims {dims}")
    t = _atomic_target_vector(target_atomic, dims[0])
    full = np.zeros(dims, dtype=np.complex128)
    full[:, n_a, n_b] = t
    numerator = rho_f.expectation(full.reshape(-1))
    denominator = _atomic_sector_probability(rho_f, target_atomic)
    if denominator <= 0.0:
        raise UndefinedMetricError(
            "no probability on the target atomic mode; p_spon undefined"
        )
    return _checked_probability("p_spon", 1.0 - numerator / denominator)


def p_amp(rho_f: DensityMatrix, target_atomic: DickeVector) -> float:
    """Probability of finding the atomic part in the desired amplified state.

    Accepts either an atomic-space density matrix or a joint one with dims,
    in which case the photon sectors are summed over.
    """
    if rho_f.dims is None:
        t = _atomic_target_vector(target_atomic, rho_f.dim)
        return _checked_probability("p_amp", rho_f.expectation(t))
    return _checked_probability(
        "p_amp", _atomic_sector_probability(rho_f, target_atomic)
    )


def quality(p_amp_value: float, p_spon_value: float, p_mode_value: float) -> float:
    """Amplifier quality: P_amp (1 - P_spon)(1 - P_mode)."""
    for name, value in (
        ("p_amp", p_amp_value),
        ("p_spon", p_spon_value),
        ("p_mode", p_mode_value),
    ):
        _checked_probability(name, value)
    return p_amp_value * (1.0 - p_spon_value) * (1.0 - p_mode_value)


@dataclass(frozen=True)
class QualityReport:
    """Success probability, loss probabilities, gain and fidelity of one run."""

    p_suc: float
    p_mode: float
    p_spon: float
    p_amp: float
    q_amp: float
    gain: float
    fidelity: float

    def __post_init__(self):
        for name in ("p_suc", "p_mode", "p_spon", "p_amp", "q_amp", "fidelity"):
            _checked_probability(name, getattr(self, name))
        expected = self.p_amp * (1.0 - self.p_spon) * (1.0 - self.p_mode)
        if abs(self.q_amp - expected) > MATRIX_TOL:
            raise ValueError(
                f"q_amp {self.q_amp} breaks the product identity ({expected})"
            )
        # gain is NaN for alpha = 0 runs (no reference amplitude); allow it

    @classmethod
    def build(
        cls,
        p_suc: float,
        p_mode_value: float,
        p_spon_value: float,
        p_amp_value: float,
        gain: float,
        fidelity: float,
    ) -> "QualityReport":
        return cls(
            p_suc=p_suc,
            p_mode=p_mode_value,
            p_spon=p_spon_value,
            p_amp=p_amp_value,
            q_amp=quality(p_amp_value, p_spon_value, p_mode_value),
            gain=gain,
            fidelity=fidelity,
        )

    def to_dict(self) -> dict:
        return {
            "p_suc": self.p_suc,
            "p_mode": self.p_mode,
            "p_spon": self.p_spon,
            "p_amp": self.p_amp,
            "q_amp": self.q_amp,
            "gain": self.gain,
            "fidelity": self.fidelity,
        }
