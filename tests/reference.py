"""Reference code that only the tests use: a stage built from the package's
stage primitives, and the plain forms of vectorized package code."""

import numpy as np

from memamp.dicke import DEFAULT_K_MAX
from memamp.joint import herald
from memamp.protocol import STAGE_PATTERNS, _evolve_stage, _Points, _stage_report


def run_stage(state, config, kind, *, stage_index=0, cumulative_in=1.0):
    """One stage from ``state``, evolved and heralded as an iteration of
    `protocol.run_batch` does it; a zero-probability herald is a failed stage.
    Exact evolution with beta < 1 can leave the conditional state mixed, which
    raises MixedConditionalError."""
    joint = _evolve_stage(state, _Points([config]), kind)
    conditional, raw = herald(joint, STAGE_PATTERNS[kind])
    p = raw / joint.total_probability()
    record = (p, cumulative_in * p, conditional.amplitudes if raw else None)
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
