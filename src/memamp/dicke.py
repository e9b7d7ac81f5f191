"""Closed forms of the permutation-symmetric subspace of N two-level atoms.

States with k excited atoms out of N form an (N+1)-dimensional ladder; the
collective raising/lowering operators act tridiagonally on it. Every
coefficient and gain derives from one closed form, the `ladder_eigenvalue`
eta = (k+1)(N-k)/N, valid for arbitrarily large N. A state on the ladder is a
plain complex array over the levels k = 0..k_max, or a batch of them as rows.
"""

from __future__ import annotations

import enum
import math

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


def ladder_eigenvalue(k, n_atoms):
    """eta = (k+1)(N-k)/N, the eigenvalue of raise-then-lower on level k: above
    1 exactly when N >= k + 2, 0 at k = N and k = -1. It rounds once, so it is
    correctly rounded on Python ints at any N (numpy ints would wrap) and on
    floats or arrays while (k+1)(N-k) is exact."""
    return (k + 1) * (n_atoms - k) / n_atoms


def ladder_coeff(direction: LadderDirection, k: int, n_atoms: int) -> float:
    """Matrix element of the collective ladder operator between neighbor
    levels: sqrt(eta(k)) raising from k and sqrt(eta(k-1)) lowering from k,
    eta the `ladder_eigenvalue`; so 0 raising from N and lowering from 0."""
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    if not 0 <= k <= n_atoms:
        raise ValueError(f"k={k} outside 0..{n_atoms}")
    below = k if direction is LadderDirection.RAISE else k - 1
    return math.sqrt(ladder_eigenvalue(int(below), int(n_atoms)))


def relative_gain(schedule: Schedule, n_rounds: int, n_atoms: int) -> float:
    """Amplitude gain of the single-excitation component after n rounds, the
    k=1 over k=0 eigenvalue of the n-round operator (eta the `ladder_eigenvalue`):
    eta(1)^n for TYPE_I, eta(1)...eta(n) / eta(0)...eta(n-1) = eta(n) for TYPE_II."""
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    if n_rounds < 0:
        raise ValueError(f"n_rounds must be >= 0, got {n_rounds}")
    if schedule is Schedule.TYPE_I:
        return ladder_eigenvalue(1, int(n_atoms)) ** int(n_rounds)
    return ladder_eigenvalue(int(n_rounds), int(n_atoms))


def weak_coherent_rows(alpha: np.ndarray, size: int) -> np.ndarray:
    """The weak coherent state |G> + alpha|S> of each alpha, normalized, as rows
    of ``size`` levels: only levels 0 and 1 are nonzero, with c_1/c_0 = alpha."""
    pair = np.empty((len(alpha), 2), dtype=np.complex128)
    pair[:, 0] = 1.0
    pair[:, 1] = alpha
    # dividing by the largest real or imaginary part first keeps the norm of
    # a huge alpha from overflowing; for |alpha| <= 1 it divides by 1.0
    parts = pair.view(np.float64)  # re0, im0, re1, im1
    pair /= np.abs(parts).max(axis=1, keepdims=True)
    # np.linalg.norm's sum, in its order, over the row's only nonzero levels
    sq = parts**2
    pair /= np.sqrt((sq[:, 0] + sq[:, 2]) + (sq[:, 1] + sq[:, 3]))[:, None]
    amps = np.zeros((len(alpha), max(size, 2)), dtype=np.complex128)
    amps[:, :2] = pair
    return amps[:, :size]
