"""Reference code that only the tests use: a stage and a trajectory tree
built one state at a time from the package's stage primitives, the plain
forms of vectorized package code, and the density matrices that the
amplitude-only metrics and heralds replace."""

from dataclasses import replace

import numpy as np

from memamp.dicke import DEFAULT_K_MAX, DickeVector, Schedule, weak_coherent_atomic_state
from memamp.joint import ZERO_PROB_FLOOR, herald_rows
from memamp.metrics import row_norms
from memamp.protocol import (
    STAGE_PATTERNS, StageKind, _Points, _stage_report, _TrajectoryTree, stage_plan,
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


def evolve_stage(state, config, kind=StageKind.WRITE_THEN_READ):
    """``state``, a DickeVector, in fresh photon vacuum through the stage's
    process(es), as `protocol.run_batch` evolves a batch of one: the tensor
    psi[1, k, n_a, n_b, n_c]. Levels above the atomic cutoff are dropped; the
    row's first guard error raises."""
    points = _Points([config])
    rows = np.zeros((1, points.truncation.atomic_k_max + 1), dtype=np.complex128)
    amps = state.amplitudes[: rows.shape[1]]
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


def weak_coherent_rows_per_row(alpha, n_atoms, size):
    """`dicke.weak_coherent_rows` as a loop: each row scaled by its largest
    real or imaginary part, then divided by `np.linalg.norm` over the levels
    the state allocates for its own N."""
    amps = np.zeros((len(alpha), max(size, DEFAULT_K_MAX + 1)), dtype=np.complex128)
    amps[:, 0] = 1.0
    amps[:, 1] = alpha
    amps /= np.abs(amps.view(np.float64)).max(axis=1, keepdims=True)
    for row, n in zip(amps, n_atoms):
        row /= np.linalg.norm(row[: min(n, DEFAULT_K_MAX) + 1])
    return amps[:, :size]


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


class TrajectoryTreePerNode:
    """`protocol._TrajectoryTree` evolved one node at a time, depth first:
    each node is its own `evolve_stage`, its outcome distribution the sum over
    k of its |psi|^2 over the total, and each child the node's success column
    for one undetected-mode count, divided by its norm."""

    def __init__(self, config):
        self.plan = stage_plan(config)
        self.states, self.outcomes = {}, {}
        self._grow((), weak_coherent_atomic_state(config.alpha, config.n_atoms), config)

    def _grow(self, path, state, config):
        k_dim = config.truncation.resolve(config.n_atoms).atomic_k_max + 1
        self.states[path] = state.amplitudes[:k_dim]
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
            child = DickeVector(state.n_atoms, column / np.linalg.norm(column), True)
            self._grow(path + (int(n_c),), child, config)

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
