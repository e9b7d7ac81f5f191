"""Reference code that only the tests use: a stage and a trajectory tree
built one state at a time from the package's stage primitives, the whole
configured tensor, the plain forms of vectorized package code, the density
matrices that the amplitude-only metrics and heralds replace, the closed
forms of the ladder algebra on plain arrays over the Dicke levels k, and the
2^N oracle's ladder check one level at a time."""

import math
from dataclasses import replace

import numpy as np

from memamp.dicke import LadderDirection, Schedule, ladder_coeff, weak_coherent_rows
from memamp.errors import MemampError, ResourceGuardError
from memamp.joint import (
    SERIES_TERM_CAP, SERIES_TOL, UNITARY_TOL, ZERO_PROB_FLOOR, herald_rows,
)
from memamp.metrics import row_norms
from memamp.oracle import (
    MAX_FULL_ATOMS, RESIDUAL_TOL, VERIFY_TOL, collective_apply, popcounts,
    project_to_dicke,
)
from memamp.protocol import (
    STAGE_PATTERNS, StageKind, _Points, _stage_report, _TrajectoryTree, batch_key,
    stage_plan,
)


def traced_density(psi):
    """Density over (k, n_a, n_b) of one joint tensor psi[k, n_a, n_b, n_c],
    undetected mode traced out, as an array (k, n_a, n_b, k, n_a, n_b) of
    trace 1; and the trace before normalizing."""
    rho = np.einsum("kabc,lxyc->kablxy", psi, psi.conj())
    trace = float(np.einsum("kabkab->", rho).real)
    return rho / trace, trace


def reduced_conditional_density(psi, pattern):
    """Atomic density matrix of trace 1 of one joint tensor psi[k, n_a, n_b,
    n_c] conditioned on the pattern, undetected mode traced out (zero if the
    pattern has no probability); and its probability."""
    block = psi[:, pattern.detect_a, pattern.detect_b, :]
    rho = block @ block.conj().T
    prob = float(np.trace(rho).real)
    if prob <= ZERO_PROB_FLOOR:
        return np.zeros_like(rho), 0.0
    return rho / prob, prob


def p_success_numeric(config):
    """Success probability of a one-stage write-read trajectory tree: the
    (1,1) herald, every undetected-mode count, over the total probability."""
    one_stage = replace(config, schedule=Schedule.TYPE_I, stages=1)
    return _TrajectoryTree(one_stage).success_probability()


def configured_truncation(config):
    """The truncation a config names, resolved against its atom count: the
    whole tensor, on which `protocol.run_batch` is the reference for the
    block a first-order run evolves on."""
    return config.truncation.resolve(config.n_atoms)


def evolve_stage(state, config, kind=StageKind.WRITE_THEN_READ):
    """``state``, an array over k, in fresh photon vacuum through the stage's
    process(es), as `protocol.run_batch` evolves a batch of one: the tensor
    psi[1, k, n_a, n_b, n_c] on the config's evolved truncation. Levels above
    the atomic cutoff are dropped; the row's first guard error raises."""
    points = _Points([config], batch_key(config)[-1])
    rows = np.zeros((1, points.truncation.atomic_k_max + 1), dtype=np.complex128)
    amps = state[: rows.shape[1]]
    rows[0, : amps.size] = amps
    errors = {}
    psi = points.evolve(rows, kind, errors)
    if errors:
        raise errors[0]
    return psi


def heralded(psi, pattern):
    """`joint.herald_rows` on a batch psi[B, k, n_a, n_b, n_c]: the conditional
    states (B, k) and probabilities (B,); the lowest failing row's error raises."""
    errors = {}
    states, prob = herald_rows(psi, pattern, errors)
    if errors:
        raise errors[min(errors)]
    return states, prob


def run_stage(state, config, kind, *, stage_index=0, cumulative_in=1.0):
    """One stage from ``state``, evolved and heralded as an iteration of
    `protocol.run_batch` does it; a zero-probability herald is a failed stage.
    Exact evolution with beta < 1 can leave the conditional state mixed, which
    raises MixedConditionalError."""
    psi = evolve_stage(state, config, kind)
    states, raw = heralded(psi, STAGE_PATTERNS[kind])
    p = float(raw[0] / row_norms(psi)[0])
    record = (p, cumulative_in * p, states[0] if raw[0] else None)
    return _stage_report(stage_index, kind, record, config)


def zero_padded(psi, shape):
    """``psi`` in the leading corner of a zero array of trailing ``shape``:
    an evolved block in the configured tensor."""
    out = np.zeros(psi.shape[: psi.ndim - len(shape)] + tuple(shape), psi.dtype)
    out[tuple(np.s_[:n] for n in psi.shape)] = psi
    return out


def weak_coherent_rows_per_row(alpha, size):
    """`dicke.weak_coherent_rows` as a loop: each row scaled by its largest
    real or imaginary part, then divided by its `np.linalg.norm`."""
    amps = np.zeros((len(alpha), max(size, 2)), dtype=np.complex128)
    amps[:, 0] = 1.0
    amps[:, 1] = alpha
    amps /= np.abs(amps.view(np.float64)).max(axis=1, keepdims=True)
    for row in amps:
        row /= np.linalg.norm(row)
    return amps[:, :size]


def ss_dagger_eigenvalues(n_atoms, levels):
    """Eigenvalue (k+1)(1 - k/N) of raise-then-lower on each level k < levels."""
    k = np.arange(levels)
    return (k + 1) * (1.0 - k / n_atoms)


def gain_eigenvalues(schedule, n_atoms, n_rounds, levels):
    """Eigenvalue of the n-round amplification operator on each level k <
    levels. TYPE_I: ((k+1)(1-k/N))^n. TYPE_II: prod_{h=k+1}^{k+n} h(1-(h-1)/N),
    zero where k + n > N (the ladder tops out at N excitations)."""
    if schedule is Schedule.TYPE_I:
        return ss_dagger_eigenvalues(n_atoms, levels) ** n_rounds
    k = np.arange(levels)
    result = np.ones(levels)
    for h in range(1, n_rounds + 1):
        result *= (k + h) * (1.0 - (k + h - 1) / n_atoms)
    return result


def pair_probability(p_w, p_r):
    """Pair-detection probability to second order in the couplings:
    p_w p_r / (1 + p_w + p_r + p_w p_r)."""
    return p_w * p_r / (1.0 + p_w + p_r + p_w * p_r)


def fidelity(a, b):
    """|<a|b>|^2 / (<a|a><b|b>) of two arrays over the same levels."""
    return abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real)


def build_dicke_full(k, n_atoms):
    """Symmetric k-excitation state as an equal-weight sum over bitmasks: a
    2^N complex array, index m a bitmask as in `memamp.oracle`."""
    if not 0 <= k <= n_atoms:
        raise ValueError(f"need 0 <= k <= N, got k={k}, N={n_atoms}")
    if not 1 <= n_atoms <= MAX_FULL_ATOMS:
        raise ResourceGuardError(
            f"full-space oracle supports 1 <= N <= {MAX_FULL_ATOMS}, got {n_atoms}"
        )
    weight = 1.0 / math.sqrt(math.comb(n_atoms, k))
    return np.where(popcounts(n_atoms) == k, weight, 0.0).astype(np.complex128)


def verify_ladder_per_level(n_atoms):
    """`oracle.verify_ladder(n_atoms).to_dict()` one level at a time: 2(N+1)
    literal flip passes, each on one level's own state. An entry's deviation
    also counts every coefficient off its target and its residual is the norm
    of its whole image outside the symmetric subspace."""
    weights = [1.0 / math.sqrt(math.comb(n_atoms, k)) for k in range(n_atoms + 1)]
    counts = popcounts(n_atoms)
    entries = []
    for k in range(n_atoms + 1):
        source = build_dicke_full(k, n_atoms)
        for direction in (LadderDirection.RAISE, LadderDirection.LOWER):
            raising = direction is LadderDirection.RAISE
            image = collective_apply(source, n_atoms, raising)
            coeffs, _ = project_to_dicke(image, n_atoms)
            projection = (coeffs * np.array(weights))[counts]
            residual = float(np.linalg.norm(image - projection))
            target_k = k + 1 if raising else k - 1
            expected = ladder_coeff(direction, k, n_atoms)
            if 0 <= target_k <= n_atoms:
                observed = float(coeffs[target_k].real)
                coeffs[target_k] = 0.0
            else:
                observed = 0.0
            deviation = max(abs(observed - expected), float(np.max(np.abs(coeffs))))
            entries.append({
                "k": k, "direction": direction.value, "expected": expected,
                "observed": observed, "deviation": deviation, "residual": residual,
                "passed": deviation < VERIFY_TOL and residual < RESIDUAL_TOL,
            })
    return {
        "n_atoms": n_atoms,
        "max_deviation": max(e["deviation"] for e in entries),
        "max_residual": max(e["residual"] for e in entries),
        "passed": all(e["passed"] for e in entries),
        "entries": entries,
    }


def add_generator_by_slices(out, psi, w_det, w_loss, process):
    """`joint._add_generator` as one shifted-slice update per coupling term."""
    if process == "write":
        out[..., 1:, 1:, :, :] += w_det * psi[..., :-1, :-1, :, :]
        out[..., :-1, :-1, :, :] -= w_det * psi[..., 1:, 1:, :, :]
        if w_loss is not None:
            out[..., 1:, :, :, 1:] += w_loss * psi[..., :-1, :, :, :-1]
            out[..., :-1, :, :, :-1] -= w_loss * psi[..., 1:, :, :, 1:]
    else:
        out[..., :-1, :, 1:, :] += w_det * psi[..., 1:, :, :-1, :]
        out[..., 1:, :, :-1, :] -= w_det * psi[..., :-1, :, 1:, :]
        if w_loss is not None:
            out[..., :-1, :, :, 1:] += w_loss * psi[..., 1:, :, :, :-1]
            out[..., 1:, :, :, :-1] -= w_loss * psi[..., :-1, :, :, 1:]
    return out


def exact_series_by_slices(psi, w_det, w_loss, bound, process):
    """`joint._exact_apply` with each term a fresh `add_generator_by_slices`
    on a zeroed buffer and `np.linalg.norm` in the stop test and the drift
    check: ceil(bound) substeps of exp(G/s), each summed until a term falls
    below SERIES_TOL of the partial sum."""
    steps = math.ceil(bound)
    w_det = w_det / steps
    w_loss = None if w_loss is None else w_loss / steps
    total = psi
    for _ in range(steps):
        term = total
        total = total.copy()
        for j in range(1, SERIES_TERM_CAP + 1):
            term = add_generator_by_slices(np.zeros_like(term), term, w_det, w_loss,
                                           process)
            term /= j
            total += term
            if np.linalg.norm(term) <= SERIES_TOL * np.linalg.norm(total):
                break
        else:
            raise MemampError(
                f"{process}: Taylor series did not converge in {SERIES_TERM_CAP} terms"
            )
    before, after = np.linalg.norm(psi), np.linalg.norm(total)
    if abs(after - before) > UNITARY_TOL * max(1.0, before):
        raise MemampError(
            f"exact evolution drifted the norm by {abs(after - before):.3e}"
        )
    return total


class TrajectoryTreePerNode:
    """`protocol._TrajectoryTree` evolved one node at a time, depth first:
    each node is its own `evolve_stage`, its outcome distribution the sum over
    k of its |psi|^2 over the total, and each child the node's success column
    for one undetected-mode count, divided by its norm."""

    def __init__(self, config):
        self.plan = stage_plan(config)
        self.states, self.outcomes = {}, {}
        k_dim = config.truncation.resolve(config.n_atoms).atomic_k_max + 1
        self._grow((), weak_coherent_rows([config.alpha], k_dim)[0], config)

    def _grow(self, path, state, config):
        self.states[path] = state
        if len(path) == len(self.plan):
            return
        psi = evolve_stage(state, config, self.plan[len(path)])[0]
        sq = np.abs(psi) ** 2
        weights = np.sum(sq, axis=0)
        weights[weights <= ZERO_PROB_FLOOR] = 0.0
        self.outcomes[path] = weights / float(np.sum(sq))
        pattern = STAGE_PATTERNS[self.plan[len(path)]]
        hits = self.outcomes[path][pattern.detect_a, pattern.detect_b]
        for n_c in np.flatnonzero(hits):
            column = psi[:, pattern.detect_a, pattern.detect_b, n_c]
            self._grow(path + (int(n_c),), column / np.linalg.norm(column), config)

    def success_probability(self, path=()):
        """Total probability of completing every remaining herald."""
        if len(path) == len(self.plan):
            return 1.0
        pattern = STAGE_PATTERNS[self.plan[len(path)]]
        hits = self.outcomes[path][pattern.detect_a, pattern.detect_b]
        total = 0.0
        for n_c in np.flatnonzero(hits):
            total += float(hits[n_c]) * self.success_probability(path + (int(n_c),))
        return total
