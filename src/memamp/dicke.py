"""Closed forms of the permutation-symmetric subspace of N two-level atoms.

States with k excited atoms out of N form an (N+1)-dimensional ladder; the
collective raising/lowering operators act tridiagonally on it with closed-form
coefficients, valid for arbitrarily large N (no factorials are ever
evaluated). A state on the ladder is a plain complex array over the levels
k = 0..k_max, or a batch of them as rows.
"""

from __future__ import annotations

import enum

import numpy as np


class LadderDirection(enum.Enum):
    """Selects the collective raising or lowering operator."""

    RAISE = "raise"
    LOWER = "lower"


class Schedule(enum.Enum):
    """Multi-round amplification orderings.

    TYPE_I alternates raise/lower pairs n times; TYPE_II performs all n raises
    first, then all n lowerings.
    """

    TYPE_I = "type1"
    TYPE_II = "type2"


def ladder_coeff(direction: LadderDirection, k: int, n_atoms: int) -> float:
    """Matrix element of the collective ladder operator between neighbor levels.

    Raising from k gives sqrt((k+1)(1 - k/N)); lowering from k gives
    sqrt(k(1 - (k-1)/N)). Both vanish exactly at the physical boundaries
    (raising from k = N, lowering from k = 0).
    """
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    if not 0 <= k <= n_atoms:
        raise ValueError(f"k={k} outside 0..{n_atoms}")
    if direction is LadderDirection.RAISE:
        if k == n_atoms:
            return 0.0
        return float(np.sqrt((k + 1) * (1.0 - k / n_atoms)))
    if k == 0:
        return 0.0
    return float(np.sqrt(k * (1.0 - (k - 1) / n_atoms)))


def relative_gain(schedule: Schedule, n_rounds: int, n_atoms: int) -> float:
    """Amplitude gain of the single-excitation component after n rounds.

    TYPE_I: 2^n (1 - 1/N)^n, TYPE_II: (n+1)(1 - n/N); both equal the ratio of
    the k=1 and k=0 eigenvalues of the n-round operator, ((k+1)(1-k/N))^n for
    TYPE_I and prod_{h=k+1}^{k+n} h(1-(h-1)/N) for TYPE_II.
    """
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    if n_rounds < 0:
        raise ValueError(f"n_rounds must be >= 0, got {n_rounds}")
    if schedule is Schedule.TYPE_I:
        return float((2.0 * (1.0 - 1.0 / n_atoms)) ** n_rounds)
    return float((n_rounds + 1) * (1.0 - n_rounds / n_atoms))


def weak_coherent_rows(alpha: np.ndarray, size: int) -> np.ndarray:
    """The weak coherent state |G> + alpha|S> of each alpha, normalized, as rows
    of ``size`` levels: only levels 0 and 1 are nonzero, with c_1/c_0 = alpha."""
    amps = np.zeros((len(alpha), max(size, 2)), dtype=np.complex128)
    amps[:, 0] = 1.0
    amps[:, 1] = alpha
    # dividing by the largest real or imaginary part first keeps the norm of
    # a huge alpha from overflowing; for |alpha| <= 1 it divides by 1.0
    amps /= np.abs(amps.view(np.float64)).max(axis=1, keepdims=True)
    # only levels 0 and 1 are nonzero: np.linalg.norm's sum, in its order
    re, im = amps.real[:, :2] ** 2, amps.imag[:, :2] ** 2
    amps /= np.sqrt((re[:, 0] + re[:, 1]) + (im[:, 0] + im[:, 1]))[:, None]
    return amps[:, :size]
