"""Figures of merit for the heralded amplifier.

The loss probabilities compare the final joint amplitudes psi[k, n_a, n_b, n_c]
against the intended amplified atomic state t along two axes: photons
detected but the wrong atomic mode created (mode mismatch), and the right
atomic mode created but the photons undetected (spontaneous-emission loss).
Their complements multiply the amplification probability into a single
quality number. Each is a ratio of squared norms of psi and of its projection
o[n_a, n_b, n_c] = sum_k t_k^* psi[k, n_a, n_b, n_c]; no density matrix is
built. `sector_norms` gives ||o[n_a, n_b]||^2 and ||o||^2 for each row of a
batch, and `score_rows` forms the ratios and the quality of every row of a
batch at once, checking each row's denominators and ranges once:

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


def _out_of_band(probabilities: np.ndarray) -> np.ndarray:
    """Which probabilities of a table are not finite or outside the band."""
    return ~((probabilities >= -PROB_BAND) & (probabilities <= 1.0 + PROB_BAND))


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
    """Success probability, loss probabilities, gain and fidelity of one run,
    as `score_rows` formed and checked them."""

    p_suc: float
    p_mode: float
    p_spon: float
    p_amp: float
    q_amp: float
    gain: float
    fidelity: float

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in QUALITY_FIELDS}


#: Field names in declaration order, read once: report keys and sweep columns.
QUALITY_FIELDS = tuple(f.name for f in fields(QualityReport))
#: The rows of the probabilities in a table of the fields: all but the gain
#: (NaN when alpha = 0).
_PROBABILITY_ROWS = [i for i, name in enumerate(QUALITY_FIELDS) if name != "gain"]


def score_rows(
    p_suc: np.ndarray,
    norms: np.ndarray,
    counts: tuple[int, int],
    gain: np.ndarray,
    fidelity: np.ndarray,
) -> tuple[list, list]:
    """Score a batch from each row's squared norms (sector, matched, atomic,
    total), ||psi[:, n_a, n_b]||^2, ||o[n_a, n_b]||^2, ||o||^2 and
    ||psi||^2, and the herald counts (n_a, n_b). Returns each row's
    `QualityReport` fields as a list, and its error or None: the first
    failing check of a zero denominator for p_mode, then p_spon, then p_amp,
    then the range of each probability in field order. q_amp is formed by
    its product identity, which therefore holds."""
    sector, matched, atomic, total = norms
    n_a, n_b = counts
    messages = [f"no probability in photon sector ({n_a}, {n_b}); p_mode undefined",
                "no probability on the target atomic mode; p_spon undefined",
                "zero joint state; p_amp undefined"]
    with np.errstate(all="ignore"):  # the rows of a zero denominator fail first
        p_mode = 1.0 - matched / sector
        p_spon = 1.0 - matched / atomic
        p_amp = atomic / total
        q_amp = p_amp * (1.0 - p_spon) * (1.0 - p_mode)
        fields = {"p_suc": p_suc, "p_mode": p_mode, "p_spon": p_spon, "p_amp": p_amp,
                  "q_amp": q_amp, "gain": gain, "fidelity": fidelity}
        table = np.array([fields[name] for name in QUALITY_FIELDS])
        # a row's checks in order: the denominators of p_mode, p_spon and
        # p_amp, then the range of each probability in field order
        failing = np.concatenate(
            [norms[[0, 2, 3]] <= 0.0, _out_of_band(table.take(_PROBABILITY_ROWS, axis=0))]
        )
    errors = [None] * table.shape[1]
    for i in failing.any(axis=0).nonzero()[0].tolist():
        check = int(failing[:, i].argmax())  # the row's first failing check
        if check < len(messages):
            errors[i] = UndefinedMetricError(messages[check])
        else:
            field = _PROBABILITY_ROWS[check - len(messages)]
            value = table[field, i].item()
            errors[i] = MetricRangeError(
                f"{QUALITY_FIELDS[field]} = {value!r} outside [0, 1] tolerance band")
    return table.T.tolist(), errors
