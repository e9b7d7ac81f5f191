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

#: Hard cap on the brute-force atom count: a 2^14-amplitude state is 256 KiB
#: and every N up to it verifies in milliseconds. A guard, not a tunable.
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
    # the top bit doubles the table: the upper half is the lower half plus one
    counts = np.zeros(1, dtype=np.uint8)
    for _ in range(n_atoms):
        counts = np.concatenate((counts, counts + 1))
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


def _dicke_weights(n_atoms: int) -> np.ndarray:
    """Amplitude per bitmask of every normalized level |k,N>, k = 0..N:
    sqrt(k!(N-k)!/N!) = 1/sqrt(C(N,k)); N <= 14 so exact integer arithmetic."""
    return 1.0 / np.sqrt([math.comb(n_atoms, k) for k in range(n_atoms + 1)])


def project_to_dicke(amps: np.ndarray, n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """Components of a 2^N state along every symmetric level, plus what each
    popcount sector leaves outside it.

    Returns ``(coeffs, residuals)``, both of length N + 1: ``coeffs[k] =
    <k,N|amps>`` and ``residuals[k]`` the norm of the part of sector k (the
    bitmasks with k bits set) orthogonal to |k,N>.
    """
    counts = popcounts(n_atoms)
    sums_re = np.bincount(counts, weights=amps.real, minlength=n_atoms + 1)
    sums_im = np.bincount(counts, weights=amps.imag, minlength=n_atoms + 1)
    weights = _dicke_weights(n_atoms)
    coeffs = weights * (sums_re + 1j * sums_im)
    # residuals from the explicit out-of-subspace component; a norm-difference
    # formula would lose half the working precision to cancellation
    outside = amps - (coeffs * weights)[counts]
    squares = outside.real**2 + outside.imag**2
    residuals = np.sqrt(np.bincount(counts, weights=squares, minlength=n_atoms + 1))
    return coeffs, residuals


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

    The source is every normalized level at once: the levels live on disjoint
    popcount sectors and a flip moves a bitmask's popcount by exactly one, so
    sector k+1 (k-1) of one literal atom-sum pass per direction is level k's
    own image. Each (level, direction) entry records its target's coefficient
    deviation and the residual leaking outside the symmetric subspace; the
    level no source reaches (0 raising, N lowering) must stay empty, and its
    coefficient and residual go to the entry whose target is off the ladder.
    """
    if not 2 <= n_atoms <= MAX_FULL_ATOMS:
        raise ResourceGuardError(
            f"verify_ladder needs 2 <= N <= {MAX_FULL_ATOMS}, got {n_atoms}"
        )
    started = time.perf_counter()
    source = _dicke_weights(n_atoms).astype(np.complex128)[popcounts(n_atoms)]
    images = {
        direction: project_to_dicke(
            collective_apply(source, n_atoms, direction is LadderDirection.RAISE),
            n_atoms,
        )
        for direction in (LadderDirection.RAISE, LadderDirection.LOWER)
    }
    entries = []
    for k in range(n_atoms + 1):
        for direction, (coeffs, residuals) in images.items():
            raising = direction is LadderDirection.RAISE
            target_k = k + 1 if raising else k - 1
            expected = ladder_coeff(direction, k, n_atoms)
            if 0 <= target_k <= n_atoms:
                observed = float(coeffs[target_k].real)
                stray = 0.0
            else:
                # off the ladder: the level no source reaches must stay empty
                observed = 0.0
                target_k = 0 if raising else n_atoms
                stray = float(abs(coeffs[target_k]))
            residual = float(residuals[target_k])
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
