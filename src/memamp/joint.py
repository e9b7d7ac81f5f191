"""Joint simulation of the atomic ladder coupled to truncated photon modes.

The state lives on a four-axis tensor (k, n_a, n_b, n_c): atomic excitation
number, detected Stokes mode, detected anti-Stokes mode, and one lumped
undetected mode c that absorbs the fraction of emission amplitude not coupled
into the detected modes. The write process raises the atomic ladder while
creating a photon in a/c; the read process lowers it while creating a photon
in b/c. Both evolution orders apply one sparse ladder stencil, G psi: first
order is psi + G psi (non-unitary at order p), exact order is exp(G) psi on the
truncated space, summed as a Taylor series of stencil applications.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .dicke import ladder_eigenvalue
from .errors import (
    MemampError,
    ResourceGuardError,
    TruncationLeakageError,
    TruncationOverflowError,
)
from .metrics import norm, row_sums

#: Total tensor dimension cap for any joint state.
DIM_CAP = 2_000_000

#: Population allowed on a truncated top level (per axis) before the result
#: is considered untrustworthy.
LEAK_TOL = 1e-8

#: Norm drift allowed for the exact (unitary) evolution.
UNITARY_TOL = 1e-10

#: Exact evolution stops a Taylor series once a term falls below this
#: fraction of the partial sum (the float64 unit roundoff).
SERIES_TOL = 2.0**-53

#: Terms allowed per substep; the substeps bound ||G/s|| by 1, so about 20
#: terms reach SERIES_TOL and hitting the cap means the norm bound is wrong.
SERIES_TERM_CAP = 60

#: A heralded slice below this squared norm counts as a zero-probability event.
ZERO_PROB_FLOOR = 1e-280

#: Default atomic levels carried by the joint tensor when unspecified.
DEFAULT_ATOMIC_K_MAX = 8

#: Highest (n_a, n_b, n_c) a first-order stage reaches: it starts in photon
#: vacuum and applies the write and the read generator once each.
FIRST_ORDER_REACH = (1, 1, 2)


def is_integer(value) -> bool:
    """An integer count; bools (JSON true/false) are not counts."""
    # the exact type first: an ABC isinstance check is slow
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def is_real(value) -> bool:
    """A real number; bools (JSON true/false) are not numbers."""
    return type(value) in (float, int) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    )


class EvolutionOrder(enum.Enum):
    """First-order perturbative unitary vs exact matrix exponential."""

    FIRST_ORDER = "first_order"
    EXACT = "exact"


@dataclass(frozen=True)
class ModeTruncation:
    """Fock cutoffs for the photon modes and the atomic ladder.

    ``fock_c_max = 0`` removes the loss mode (its axis keeps only the vacuum).
    ``atomic_k_max = None`` resolves to ``min(N, 8)`` once the atom count is
    known; see `resolve`.
    """

    fock_a_max: int = 3
    fock_b_max: int = 3
    fock_c_max: int = 2
    atomic_k_max: int | None = None

    def __post_init__(self):
        for name in TRUNCATION_FIELDS:
            value = getattr(self, name)
            if not is_integer(value) and not (name == "atomic_k_max" and value is None):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.fock_a_max < 1 or self.fock_b_max < 1:
            raise ValueError("fock_a_max and fock_b_max must be >= 1")
        if self.fock_c_max < 0:
            raise ValueError("fock_c_max must be >= 0")
        if self.atomic_k_max is not None and self.atomic_k_max < 1:
            raise ValueError("atomic_k_max must be >= 1")

    @functools.lru_cache  # a sweep resolves a few truncations many times
    def resolve(self, n_atoms: int) -> "ModeTruncation":
        """Pin the atomic cutoff for a concrete ensemble size, at most N; the
        joint dimension cap applies to the result."""
        k_max = self.atomic_k_max
        if k_max is None:
            k_max = DEFAULT_ATOMIC_K_MAX
        resolved = replace(self, atomic_k_max=min(k_max, n_atoms))
        if resolved.total_dim() > DIM_CAP:
            raise ResourceGuardError(
                f"joint dimension {resolved.total_dim()} exceeds cap {DIM_CAP}"
            )
        return resolved

    @functools.lru_cache
    def evolved(self, n_atoms: int, order: EvolutionOrder) -> "ModeTruncation":
        """The truncation a run evolves on: `resolve`'s, with each photon axis
        cut to FIRST_ORDER_REACH at first order, where no amplitude lies beyond
        it. The dimension cap applies to the resolved cutoffs."""
        resolved = self.resolve(n_atoms)
        if order is EvolutionOrder.EXACT:
            return resolved
        a, b, c = FIRST_ORDER_REACH
        return replace(
            resolved,
            fock_a_max=min(resolved.fock_a_max, a),
            fock_b_max=min(resolved.fock_b_max, b),
            fock_c_max=min(resolved.fock_c_max, c),
        )

    def shape(self) -> tuple[int, int, int, int]:
        if self.atomic_k_max is None:
            raise ValueError("truncation not resolved against an atom count")
        return (
            self.atomic_k_max + 1,
            self.fock_a_max + 1,
            self.fock_b_max + 1,
            self.fock_c_max + 1,
        )

    def total_dim(self) -> int:
        s = self.shape()
        return s[0] * s[1] * s[2] * s[3]


#: Field names in declaration order, read once: the truncation schema.
TRUNCATION_FIELDS = tuple(f.name for f in fields(ModeTruncation))


@dataclass(frozen=True)
class HeraldPattern:
    """Exact photon counts required on the two detected modes."""

    detect_a: int = 1
    detect_b: int = 1

    def __post_init__(self):
        if self.detect_a < 0 or self.detect_b < 0:
            raise ValueError("photon counts must be >= 0")


class Process:
    """A write or read process over a batch: per row the ensemble size, the
    coupling p and the mode overlap beta, on one evolved truncation; and its
    ``weights``, built once here and sliced by `rows`: the detected- and
    loss-mode stencil weights (B, k_top, ...), ladder coefficient x photon
    sqrt(n) x coupling (no loss weights if lossless), and per row a bound on
    ||G||, G = C - C^dagger: 2 max(ladder) (sqrt(p beta n_det) +
    sqrt(p (1 - beta) n_c)) with the two cutoffs."""

    __slots__ = ("name", "truncation", "order", "n_atoms", "p", "beta", "weights")

    def __init__(self, name, truncation, order, n_atoms, p, beta):
        self.name, self.truncation, self.order = name, truncation, order
        self.n_atoms, self.p, self.beta = n_atoms, p, beta
        trunc, write = truncation, name == "write"
        k = np.arange(trunc.atomic_k_max)
        # ladder_coeff raising k; N capped where eta is k+1 so (k+1)(N-k) stays finite
        ladder = np.sqrt(ladder_eigenvalue(k, np.minimum(n_atoms, 2.0**1000)[:, None]))
        lad = ladder.reshape(ladder.shape + (1, 1, 1))
        n_det = trunc.fock_a_max if write else trunc.fock_b_max
        sq_det = np.sqrt(np.arange(1, n_det + 1))  # along n_a (write) or n_b (read)
        sq_det = sq_det.reshape((-1, 1, 1) if write else (-1, 1))
        g_det = np.sqrt(p * beta).reshape(-1, 1, 1, 1, 1)
        g_loss = np.sqrt(p * (1.0 - beta)).reshape(-1, 1, 1, 1, 1)
        sqc = np.sqrt(np.arange(1, trunc.fock_c_max + 1))
        w_loss = g_loss * lad * sqc if g_loss.any() else None
        bound = 2.0 * ladder.max(axis=1) * (
            g_det * np.sqrt(n_det) + g_loss * np.sqrt(trunc.fock_c_max)
        ).reshape(-1)
        self.weights = g_det * lad * sq_det, w_loss, bound

    def rows(self, index: np.ndarray) -> "Process":
        if np.array_equal(index, np.arange(len(self.p))):  # every row: no copy
            return self
        out = object.__new__(Process)
        out.name, out.truncation, out.order = self.name, self.truncation, self.order
        out.n_atoms, out.p, out.beta = self.n_atoms[index], self.p[index], self.beta[index]
        w_det, w_loss, bound = self.weights
        lossy = (out.p * (1.0 - out.beta)).any()  # as g_loss.any() in __init__
        out.weights = w_det[index], w_loss[index] if lossy else None, bound[index]
        return out


def _check_boundaries(
    psi: np.ndarray, proc: Process, errors: dict[int, Exception], exact: bool,
    weights: np.ndarray,
) -> None:
    """Flag rows whose population on a cutoff, times the row's weight, is over
    LEAK_TOL: before a first-order step, population that would flow past it;
    after an exact step, population on it."""
    trunc, k_top = proc.truncation, proc.truncation.atomic_k_max
    active = proc.p > 0.0
    below = active & (k_top < proc.n_atoms)
    if proc.name == "write":
        det = ("mode a", active, np.s_[:, :, trunc.fock_a_max])
    else:
        det = ("mode b", active, np.s_[:, :, :, trunc.fock_b_max])
    lossy = active & (trunc.fock_c_max > 0 if exact else proc.beta < 1.0)
    checks = [det, ("mode c", lossy, np.s_[..., trunc.fock_c_max])]
    split_k = not exact and proc.name == "read"
    if split_k:  # absorption raises k out of n_b >= 1, and out of n_c >= 1 if lossy
        checks.append(("atomic k", below, np.s_[:, k_top, :, 1:]))
    else:
        checks.insert(0, ("atomic k", below, np.s_[:, k_top]))
    error, message = (
        (TruncationLeakageError, "{}: exact evolution left population {:.3e} on the "
         f"{{}} cutoff (> {LEAK_TOL})") if exact else
        (TruncationOverflowError, "{}: population {:.3e} at the {} cutoff would "
         "overflow the truncation")
    )
    sq = np.abs(psi) ** 2  # summed per slab: `row_norms` of the slab, one abs for all
    for name, rows, slab in checks:
        if not rows.any():
            continue
        pops = row_sums(sq[slab])
        if split_k and name == "atomic k" and lossy.any():
            pops += np.where(lossy, row_sums(sq[:, k_top, :, 0, 1:]), 0.0)
        pops *= weights
        for i in (rows & (pops > LEAK_TOL)).nonzero()[0]:
            errors.setdefault(i, error(message.format(proc.name, pops[i], name)))


def _stencil(
    shape: tuple[int, ...],
    w_det: np.ndarray,
    w_loss: np.ndarray | None,
    process: str,
) -> list:
    """G's couplings on tensors of ``shape``, one per weight array given: its
    weights, the slice of lower entries (level k) they fill, and the distance
    from a lower entry to the upper one it couples to, in the flattened
    (C-contiguous) tensor. The four trailing axes are (k, n_a, n_b, n_c); any
    leading axes are batch axes, matched by the weights'."""
    _, a, b, c = shape[-4:]
    if process == "write":
        couplings = [(w_det, np.s_[..., :-1, :-1, :, :], (a + 1) * b * c),
                     (w_loss, np.s_[..., :-1, :, :, :-1], a * b * c + 1)]
    else:
        couplings = [(w_det, np.s_[..., :-1, :, 1:, :], a * b * c - c),
                     (w_loss, np.s_[..., :-1, :, :, 1:], a * b * c - 1)]
    return [coupling for coupling in couplings if coupling[0] is not None]


def _flat_stencil(
    shape: tuple[int, ...],
    w_det: np.ndarray,
    w_loss: np.ndarray | None,
    process: str,
) -> list:
    """`_stencil` with each coupling's weights broadcast once into a flat
    array over its lower entries, 0 where a cutoff breaks a pair, in place of
    the slice (None): for a series, which applies one stencil many times."""
    stencil = []
    for weights, lower, shift in _stencil(shape, w_det, w_loss, process):
        w = np.zeros(shape, dtype=np.complex128)
        w[lower] = weights
        stencil.append((w.reshape(-1)[: w.size - shift], None, shift))
    return stencil


def _add_generator(
    out: np.ndarray,
    psi: np.ndarray,
    stencil: list,
    scratch: np.ndarray,
    process: str,
) -> np.ndarray:
    """Add G psi into ``out``, G the process's anti-Hermitian ladder generator.

    Write couples (k, n_a, n_c) to (k+1, n_a+1, n_c) and (k+1, n_a, n_c+1);
    read couples (k, n_b, n_c) to (k-1, n_b+1, n_c) and (k-1, n_b, n_c+1).
    Entries no path reaches stay exactly zero. A coupled pair lies a fixed
    distance apart in the flattened arrays, so each term is a product of flat
    arrays, which numpy runs without buffers, into ``scratch``, an array like
    ``psi``. ``stencil`` is `_stencil`'s, whose weights are broadcast into
    ``scratch`` before each product (the product overwrites them), or
    `_flat_stencil`'s, whose flat weights are read as they are.
    """
    w, flat_psi, flat_out = scratch.reshape(-1), psi.reshape(-1), out.reshape(-1)
    for weights, lower, shift in stencil:
        n = w.size - shift
        src, dst = np.s_[:n], np.s_[shift:]  # raising: the upper entry gains first
        if process != "write":  # lowering: the lower entry (level k) gains first
            src, dst = dst, src
        broadcast = lower is not None
        if broadcast:
            w[:] = 0.0
        for frm, to, add in ((src, dst, np.add), (dst, src, np.subtract)):
            if broadcast:
                scratch[lower] = weights
            np.multiply(w[:n] if broadcast else weights, flat_psi[frm], out=w[:n])
            add(flat_out[to], w[:n], out=flat_out[to])
    return out


def _exact_apply(
    psi: np.ndarray,
    w_det: np.ndarray,
    w_loss: np.ndarray | None,
    bound: float,
    process: str,
) -> np.ndarray:
    """exp(G) psi as truncated Taylor series of the stencil, in substeps.

    ceil(bound) substeps of exp(G/s) keep ||G/s|| <= 1, so the terms
    G^j psi / (s^j j!) fall at least factorially; each substep sums them
    until one drops below SERIES_TOL of the partial sum (Al-Mohy & Higham,
    SIAM J. Sci. Comput. 33(2), 2011). The flat weights of G/s are built
    once, for every term of every substep. Norms are `metrics.norm`'s; the
    partial sum's is taken only once a term is small against ``reach``, an
    upper bound on it, since no larger term can pass the test.
    """
    steps = math.ceil(bound)
    w_det = w_det / steps
    w_loss = None if w_loss is None else w_loss / steps
    stencil = _flat_stencil(psi.shape, w_det, w_loss, process)
    scratch = np.empty_like(psi)
    terms = np.empty_like(psi), np.empty_like(psi)  # each term's, in turn
    before = size = norm(psi)
    total = psi
    for _ in range(steps):
        term = total
        total = total.copy()
        reach = size  # ||total|| <= the sum of its parts' norms
        for j in range(1, SERIES_TERM_CAP + 1):
            out = terms[j % 2]
            out.fill(0.0)
            term = _add_generator(out, term, stencil, scratch, process)
            term /= j
            total += term
            small = norm(term)
            reach += small
            if small <= 2.0 * SERIES_TOL * reach:  # 2: whatever the rounding
                size = norm(total)
                if small <= SERIES_TOL * size:
                    break
        else:
            raise MemampError(
                f"{process}: Taylor series did not converge in {SERIES_TERM_CAP} terms"
            )
    if abs(size - before) > UNITARY_TOL * max(1.0, before):
        raise MemampError(
            f"exact evolution drifted the norm by {abs(size - before):.3e}"
        )
    return total


def apply_process(
    psi: np.ndarray, proc: Process, errors: dict[int, Exception], weights: np.ndarray
) -> np.ndarray:
    """One process on a batch of joint tensors, shape (B, k, n_a, n_b, n_c),
    row i with ``proc``'s row i and its cutoff populations weighted by
    ``weights[i]``. A row that trips a guard gets its exception in ``errors``
    (an earlier one is kept). Rows with p = 0 stay unguarded."""
    active = proc.p > 0.0
    if not active.any():
        return psi
    w_det, w_loss, bound = proc.weights
    exact = proc.order is EvolutionOrder.EXACT
    if not exact:
        _check_boundaries(psi, proc, errors, exact, weights)
        stencil = _stencil(psi.shape, w_det, w_loss, proc.name)
        out = _add_generator(psi.copy(), psi, stencil, np.empty_like(psi), proc.name)
    else:
        out = psi.copy()
        for i in np.flatnonzero(active):
            try:
                loss = None if w_loss is None else w_loss[i]
                out[i] = _exact_apply(psi[i], w_det[i], loss, bound[i], proc.name)
            except MemampError as exc:
                errors.setdefault(i, exc)
        _check_boundaries(out, proc, errors, exact, weights)
    for i in (~np.isfinite(out).reshape(len(out), -1).all(axis=1)).nonzero()[0]:
        errors.setdefault(i, ValueError("amplitudes must be finite"))
    return out


def herald_rows(psi: np.ndarray, pattern: HeraldPattern) -> tuple[np.ndarray, ...]:
    """Condition each row of a batch on exact photon counts, one branch per
    undetected-mode count n_c whose column (the matching slice at n_c) has a
    squared norm above ZERO_PROB_FLOOR. Returns each row's raw probability,
    the squared norm of its matching slice, 0 for a row without a branch;
    and, in row-major (row, n_c) order, each branch's row, n_c, squared norm
    and atomic state, its column divided by the square root of its k-sum.
    First order or beta = 1 leaves one branch, at n_c = 0."""
    block = psi[:, :, pattern.detect_a, pattern.detect_b]  # (B, k, n_c)
    sq = np.abs(block) ** 2
    prob = row_sums(sq)  # row_norms(block)
    col_pop = sq.sum(axis=1)
    kept = col_pop > ZERO_PROB_FLOOR
    prob[~kept.any(axis=1)] = 0.0
    rows, n_c = kept.nonzero()
    pops = col_pop[rows, n_c]
    return prob, rows, n_c, pops, block[rows, :, n_c] / np.sqrt(pops)[:, None]
