"""Exact arithmetic in the permutation-symmetric subspace of N two-level atoms.

States with k excited atoms out of N form an (N+1)-dimensional ladder; the
collective raising/lowering operators act tridiagonally on it with closed-form
coefficients, so everything here is O(K) per operation and valid for
arbitrarily large N (no factorials are ever evaluated).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import TruncationOverflowError, ZeroNormError

#: Absolute tolerance for exact algebraic identities (normalization, adjointness).
ALGEBRA_TOL = 1e-12

#: Default number of excitation levels allocated for new states; the weak-state
#: regime populates only the first few.
DEFAULT_K_MAX = 16


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


@dataclass(frozen=True)
class DickeVector:
    """Complex amplitudes over excitation number k = 0..k_max, for N atoms.

    ``amplitudes[k]`` multiplies the symmetric k-excitation basis state. The
    array length is the allocation; operators never grow it implicitly.
    """

    n_atoms: int
    amplitudes: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128).copy()
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("amplitudes must be a nonempty 1-D array")
        if amps.size > self.n_atoms + 1:
            raise ValueError(
                f"k_max={amps.size - 1} exceeds atom count N={self.n_atoms}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        if self.normalized:
            total = float(np.sum(np.abs(amps) ** 2))
            if abs(total - 1.0) > ALGEBRA_TOL:
                raise ValueError(f"normalized flag set but sum |c_k|^2 = {total}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def k_max(self) -> int:
        return self.amplitudes.size - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalize(self) -> "DickeVector":
        n = self.norm()
        if n == 0.0:
            raise ZeroNormError("cannot normalize a zero Dicke vector")
        return DickeVector(self.n_atoms, self.amplitudes / n, normalized=True)

    def amplitude(self, k: int) -> complex:
        return complex(self.amplitudes[k])


def basis_state(k: int, n_atoms: int, k_alloc: int | None = None) -> DickeVector:
    """The k-excitation symmetric basis state, with room to raise.

    ``k_alloc`` controls the allocated top excitation level and defaults to
    ``min(n_atoms, DEFAULT_K_MAX)`` (never below ``k``).
    """
    if not 0 <= k <= n_atoms:
        raise ValueError(f"need 0 <= k <= N, got k={k}, N={n_atoms}")
    if k_alloc is None:
        k_alloc = min(n_atoms, max(DEFAULT_K_MAX, k))
    if k_alloc < k:
        raise ValueError(f"allocation k_alloc={k_alloc} cannot hold k={k}")
    amps = np.zeros(k_alloc + 1, dtype=np.complex128)
    amps[k] = 1.0
    return DickeVector(n_atoms, amps, normalized=True)


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


def apply_ladder(direction: LadderDirection, state: DickeVector) -> DickeVector:
    """Apply the collective raising/lowering operator; result is unnormalized.

    Raising requires headroom: if the top allocated level carries amplitude and
    is still below k = N, the image would fall outside the allocation and a
    TruncationOverflowError is raised.
    """
    n = state.n_atoms
    top = state.k_max
    out = np.zeros_like(state.amplitudes)
    if direction is LadderDirection.RAISE:
        if top < n and state.amplitudes[top] != 0.0:
            raise TruncationOverflowError(
                f"raising from allocated top k={top} (< N={n}) with nonzero amplitude"
            )
        coeffs = np.array([ladder_coeff(direction, k, n) for k in range(top)])
        out[1:] = coeffs * state.amplitudes[:-1]
    else:
        coeffs = np.array(
            [ladder_coeff(direction, k, n) for k in range(1, top + 1)]
        )
        out[:-1] = coeffs * state.amplitudes[1:]
    return DickeVector(n, out, normalized=False)


def apply_ss_dagger(state: DickeVector) -> DickeVector:
    """Multiply each level by its raise-then-lower eigenvalue (k+1)(1 - k/N)."""
    n = state.n_atoms
    k = np.arange(state.amplitudes.size)
    eig = (k + 1) * (1.0 - k / n)
    return DickeVector(n, eig * state.amplitudes, normalized=False)


def gain_eigenvalue(schedule: Schedule, k: int, n_atoms: int, n_rounds: int) -> float:
    """Eigenvalue of the n-round amplification operator on level k.

    TYPE_I: ((k+1)(1-k/N))^n. TYPE_II: prod_{h=k+1}^{k+n} h(1-(h-1)/N), which
    requires k + n <= N (the ladder tops out at N excitations).
    """
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    if not 0 <= k <= n_atoms:
        raise ValueError(f"k={k} outside 0..{n_atoms}")
    if n_rounds < 0:
        raise ValueError(f"n_rounds must be >= 0, got {n_rounds}")
    if n_rounds == 0:
        return 1.0
    if schedule is Schedule.TYPE_I:
        return float(((k + 1) * (1.0 - k / n_atoms)) ** n_rounds)
    if k + n_rounds > n_atoms:
        raise ValueError(
            f"TYPE_II needs k + n <= N, got k={k}, n={n_rounds}, N={n_atoms}"
        )
    result = 1.0
    for h in range(k + 1, k + n_rounds + 1):
        result *= h * (1.0 - (h - 1) / n_atoms)
    return result


def relative_gain(schedule: Schedule, n_rounds: int, n_atoms: int) -> float:
    """Amplitude gain of the single-excitation component after n rounds.

    TYPE_I: 2^n (1 - 1/N)^n, TYPE_II: (n+1)(1 - n/N); both equal the ratio of
    the k=1 and k=0 eigenvalues of `gain_eigenvalue`.
    """
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    if n_rounds < 0:
        raise ValueError(f"n_rounds must be >= 0, got {n_rounds}")
    if schedule is Schedule.TYPE_I:
        return float((2.0 * (1.0 - 1.0 / n_atoms)) ** n_rounds)
    return float((n_rounds + 1) * (1.0 - n_rounds / n_atoms))


def weak_coherent_rows(alpha: np.ndarray, size: int) -> np.ndarray:
    """`weak_coherent_atomic_state` of each alpha, as rows of ``size`` levels."""
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


def weak_coherent_atomic_state(alpha: complex, n_atoms: int) -> DickeVector:
    """Normalized superposition of the ground and single-excitation levels.

    The amplitude ratio c_1/c_0 equals ``alpha``; magnitudes well below one
    keep the state in the weak-excitation regime the gain formulas assume.
    """
    k_alloc = min(n_atoms, DEFAULT_K_MAX)
    if k_alloc < 1 and alpha != 0:
        raise ValueError("N=0-level allocation cannot carry alpha != 0")
    amps = weak_coherent_rows(np.array([alpha]), k_alloc + 1)[0]
    return DickeVector(n_atoms, amps, normalized=True)


def inner(a: DickeVector, b: DickeVector) -> complex:
    """<a|b> over the common support; states must share the atom count."""
    if a.n_atoms != b.n_atoms:
        raise ValueError(f"atom counts differ: {a.n_atoms} != {b.n_atoms}")
    m = min(a.amplitudes.size, b.amplitudes.size)
    return complex(np.vdot(a.amplitudes[:m], b.amplitudes[:m]))


def fidelity(a: DickeVector, b: DickeVector) -> float:
    """|<a|b>|^2 / (<a|a><b|b>), in [0, 1]."""
    na2 = float(np.sum(np.abs(a.amplitudes) ** 2))
    nb2 = float(np.sum(np.abs(b.amplitudes) ** 2))
    if na2 == 0.0 or nb2 == 0.0:
        raise ZeroNormError("fidelity of a zero vector is undefined")
    return abs(inner(a, b)) ** 2 / (na2 * nb2)
