"""Figures of merit for the heralded amplifier.

The loss probabilities compare the final joint amplitudes psi[k, n_a, n_b, n_c]
against the intended amplified atomic state t along two axes: photons
detected but the wrong atomic mode created (mode mismatch), and the right
atomic mode created but the photons undetected (spontaneous-emission loss).
Their complements multiply the amplification probability into a single
quality number. Each is a ratio of squared norms of psi and of its projection
o[n_a, n_b, n_c] = sum_k t_k^* psi[k, n_a, n_b, n_c]; no density matrix is
built. `sector_norms` gives ||o[n_a, n_b]||^2 and ||o||^2 for each row of a
batch, and `QualityReport.from_norms` forms the ratios and the quality of one
row, whose range the report checks once, on construction:

- p_mode = 1 - ||o[n_a, n_b]||^2 / ||psi[:, n_a, n_b]||^2;
- p_spon = 1 - ||o[n_a, n_b]||^2 / ||o||^2;
- p_amp = ||o||^2 / ||psi||^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import MetricRangeError, UndefinedMetricError

#: Probabilities must land in [-PROB_BAND, 1 + PROB_BAND] without clamping.
PROB_BAND = 1e-10

#: Largest departure of a `QualityReport`'s q_amp from its product identity.
MATRIX_TOL = 1e-12


def _checked_probability(name: str, value: float) -> None:
    if not math.isfinite(value) or not -PROB_BAND <= value <= 1.0 + PROB_BAND:
        raise MetricRangeError(f"{name} = {value!r} outside [0, 1] tolerance band")


def row_sums(x: np.ndarray) -> np.ndarray:
    """Sum of each row (leading axis) over its trailing axes, summed on its
    own in C order: no row's value depends on the other rows."""
    return x.reshape(len(x), math.prod(x.shape[1:])).sum(axis=1)


def norm(x: np.ndarray) -> float:
    """Euclidean norm of all of x's entries, from the float64 sums that
    `np.linalg.norm` forms, so bit for bit its value, without its wrapper."""
    flat = x.ravel(order="K")
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def row_norms(x: np.ndarray) -> np.ndarray:
    """Squared norm of each row over its trailing axes, as `row_sums` sums."""
    sq = np.abs(x)
    sq *= sq
    return row_sums(sq)


def sector_norms(psi: np.ndarray, t: np.ndarray, n_a: int, n_b: int) -> np.ndarray:
    """Rows ||o[n_a, n_b]||^2 and ||o||^2 of a batch psi[B, k, ...] and targets
    t[B, k], o = sum_k conj(t_k) psi_k."""
    # summed over k as psi.sum(axis=1) sums, without a temporary the size of psi
    t = t.conj().reshape(t.shape + (1, 1, 1))
    o = t[:, 0] * psi[:, 0]
    for k in range(1, psi.shape[1]):
        o += t[:, k] * psi[:, k]
    return np.stack([row_norms(o[:, n_a, n_b]), row_norms(o)])


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
        # every field but the gain (NaN when alpha = 0) is a probability
        for name in QUALITY_FIELDS:
            if name != "gain":
                _checked_probability(name, getattr(self, name))
        expected = self.p_amp * (1.0 - self.p_spon) * (1.0 - self.p_mode)
        if abs(self.q_amp - expected) > MATRIX_TOL:
            raise ValueError(
                f"q_amp {self.q_amp} breaks the product identity ({expected})"
            )

    @classmethod
    def from_norms(
        cls,
        p_suc: float,
        norms: tuple[float, float, float, float],
        counts: tuple[int, int],
        gain: float,
        fidelity: float,
    ) -> "QualityReport":
        """Score a row from its squared norms (sector, matched, atomic, total),
        ||psi[:, n_a, n_b]||^2, ||o[n_a, n_b]||^2, ||o||^2 and ||psi||^2, and
        its herald counts (n_a, n_b). A zero denominator raises, checked for
        p_mode, then p_spon, then p_amp; `__post_init__` checks the ranges."""
        sector, matched, atomic, total = norms
        if sector <= 0.0:
            n_a, n_b = counts
            raise UndefinedMetricError(
                f"no probability in photon sector ({n_a}, {n_b}); p_mode undefined"
            )
        if atomic <= 0.0:
            raise UndefinedMetricError(
                "no probability on the target atomic mode; p_spon undefined"
            )
        if total <= 0.0:
            raise UndefinedMetricError("zero joint state; p_amp undefined")
        p_mode = 1.0 - matched / sector
        p_spon = 1.0 - matched / atomic
        p_amp = atomic / total
        return cls(
            p_suc=p_suc,
            p_mode=p_mode,
            p_spon=p_spon,
            p_amp=p_amp,
            q_amp=p_amp * (1.0 - p_spon) * (1.0 - p_mode),
            gain=gain,
            fidelity=fidelity,
        )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in QUALITY_FIELDS}


#: Field names in declaration order, read once: report keys and sweep columns.
QUALITY_FIELDS = tuple(f.name for f in fields(QualityReport))
