"""Brute-force cross-check of the collective-ladder algebra in the full 2^N space.

Symmetric k-excitation states are built by explicit permutation sums over
bitmasks and the collective operators are applied as literal sums of
single-atom flips. A state is a complex array of 2^N amplitudes; index m is a
bitmask, little-endian: bit i set means atom i is excited. Everything the
closed forms in `dicke` claim can be re-derived here, at exponential cost, for
small atom counts.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .dicke import LadderDirection, ladder_coeff
from .errors import ResourceGuardError

#: Hard cap on the brute-force atom count; 2^14 amplitudes keeps every
#: operation well under a second. A guard, not a tunable.
MAX_FULL_ATOMS = 14

#: Deviation threshold for a verification entry to count as passed.
VERIFY_TOL = 1e-10

#: Residual outside the symmetric subspace must stay below this.
RESIDUAL_TOL = 1e-12


@functools.lru_cache(maxsize=16)
def popcounts(n_atoms: int) -> np.ndarray:
    """Number of set bits for every bitmask in 0..2^n_atoms - 1, as uint8.

    A pure function of the atom count; callers share one read-only array.
    """
    size = 1 << n_atoms
    bits = (np.arange(size, dtype=np.uint32)[:, None] >> np.arange(n_atoms)) & 1
    counts = bits.sum(axis=1).astype(np.uint8)
    counts.flags.writeable = False
    return counts


def collective_apply(amps: np.ndarray, n_atoms: int, raising: bool) -> np.ndarray:
    """Apply (1/sqrt(N)) * sum_i of single-atom flips to a 2^N state vector.

    ``raising=True`` flips one atom g->s per term (bit 0 -> 1), else s->g.
    Each atom's flip is a strided copy: splitting the index as
    (high, bit_i, low) turns the bitmask arithmetic into axis slicing.
    """
    size = 1 << n_atoms
    amps = np.asarray(amps, dtype=np.complex128)
    if amps.shape != (size,):
        raise ValueError(f"expected shape ({size},), got {amps.shape}")
    out = np.zeros(size, dtype=np.complex128)
    for i in range(n_atoms):
        shape = (1 << (n_atoms - 1 - i), 2, 1 << i)
        source = amps.reshape(shape)
        target = out.reshape(shape)
        if raising:
            target[:, 1, :] += source[:, 0, :]
        else:
            target[:, 0, :] += source[:, 1, :]
    out /= np.sqrt(n_atoms)
    return out


def _dicke_weight(k: int, n_atoms: int) -> float:
    # sqrt(k!(N-k)!/N!) = 1/sqrt(C(N,k)); N <= 14 so exact integer arithmetic.
    return 1.0 / math.sqrt(math.comb(n_atoms, k))


def build_dicke_full(k: int, n_atoms: int) -> np.ndarray:
    """Symmetric k-excitation state as an equal-weight sum over bitmasks: a
    2^N complex array, index m a bitmask as in the module docstring."""
    if not 0 <= k <= n_atoms:
        raise ValueError(f"need 0 <= k <= N, got k={k}, N={n_atoms}")
    if not 1 <= n_atoms <= MAX_FULL_ATOMS:
        raise ResourceGuardError(
            f"full-space oracle supports 1 <= N <= {MAX_FULL_ATOMS}, got {n_atoms}"
        )
    counts = popcounts(n_atoms)
    return np.where(counts == k, _dicke_weight(k, n_atoms), 0.0).astype(np.complex128)


def project_to_dicke(amps: np.ndarray, n_atoms: int) -> tuple[np.ndarray, float]:
    """Components of a 2^N state along every symmetric level, plus the
    leftover norm.

    Returns ``(coeffs, residual)`` with ``coeffs[k] = <k,N|amps>`` and
    ``residual`` the norm of the part orthogonal to all symmetric states.
    """
    counts = popcounts(n_atoms)
    sums_re = np.bincount(counts, weights=amps.real, minlength=n_atoms + 1)
    sums_im = np.bincount(counts, weights=amps.imag, minlength=n_atoms + 1)
    weights = np.array([_dicke_weight(k, n_atoms) for k in range(n_atoms + 1)])
    coeffs = weights * (sums_re + 1j * sums_im)
    # residual from the explicit out-of-subspace component; a norm-difference
    # formula would lose half the working precision to cancellation
    projection = (coeffs * weights)[counts]
    residual = float(np.linalg.norm(amps - projection))
    return coeffs, residual


@dataclass(frozen=True)
class VerificationEntry:
    """One (level, direction) comparison between brute force and closed form."""

    k: int
    direction: str
    expected: float
    observed: float
    deviation: float
    residual: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    """Ladder-coefficient verification across all levels of one ensemble."""

    n_atoms: int
    max_deviation: float
    max_residual: float
    passed: bool
    elapsed_seconds: float
    entries: list[VerificationEntry] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Data-file form; the timing goes to the run manifest instead."""
        out = {name: getattr(self, name) for name in _REPORT_FIELDS}
        out["entries"] = [
            {name: getattr(e, name) for name in _ENTRY_FIELDS} for e in self.entries
        ]
        return out


_ENTRY_FIELDS = tuple(f.name for f in fields(VerificationEntry))
_REPORT_FIELDS = tuple(
    f.name for f in fields(VerificationReport) if f.name != "elapsed_seconds"
)


def verify_ladder(n_atoms: int) -> VerificationReport:
    """Compare brute-force ladder action against the closed-form coefficients.

    For every level k and both directions, applies the literal atom-sum
    operator to the permutation-built state, projects back onto the symmetric
    subspace, and records the coefficient deviation and the residual leaking
    outside the subspace.
    """
    if not 2 <= n_atoms <= MAX_FULL_ATOMS:
        raise ResourceGuardError(
            f"verify_ladder needs 2 <= N <= {MAX_FULL_ATOMS}, got {n_atoms}"
        )
    started = time.perf_counter()
    entries = []
    for k in range(n_atoms + 1):
        source = build_dicke_full(k, n_atoms)
        for direction in (LadderDirection.RAISE, LadderDirection.LOWER):
            raising = direction is LadderDirection.RAISE
            image = collective_apply(source, n_atoms, raising)
            coeffs, residual = project_to_dicke(image, n_atoms)
            target_k = k + 1 if raising else k - 1
            expected = ladder_coeff(direction, k, n_atoms)
            if 0 <= target_k <= n_atoms:
                observed = float(coeffs[target_k].real)
                coeffs[target_k] = 0.0
            else:
                observed = 0.0
            # Everything off the target level must vanish too.
            stray = float(np.max(np.abs(coeffs)))
            deviation = max(abs(observed - expected), stray)
            entries.append(
                VerificationEntry(
                    k=k,
                    direction=direction.value,
                    expected=expected,
                    observed=observed,
                    deviation=deviation,
                    residual=residual,
                    passed=deviation < VERIFY_TOL and residual < RESIDUAL_TOL,
                )
            )
    max_dev = max(e.deviation for e in entries)
    max_res = max(e.residual for e in entries)
    return VerificationReport(
        n_atoms=n_atoms,
        max_deviation=max_dev,
        max_residual=max_res,
        passed=all(e.passed for e in entries),
        elapsed_seconds=time.perf_counter() - started,
        entries=entries,
    )
