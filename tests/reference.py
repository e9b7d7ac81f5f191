"""Reference code that only the tests use: a stage, a trajectory tree and its
Monte Carlo walk built one state at a time from the package's stage
primitives, the whole configured tensor, the plain forms of vectorized
package code, the density matrices that the amplitude-only metrics and
heralds replace, the closed forms of the ladder algebra on plain arrays over
the Dicke levels k, and the 2^N oracle's ladder check one level at a time."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import scipy.linalg

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
    STAGE_PATTERNS, MCReport, StageKind, _gain_of, _processes, _stage, _stage_report,
    _target_gain, _wilson_interval, batch_key, stage_plan,
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
    return TrajectoryTreePerNode(one_stage).success_probability()


def configured_truncation(config):
    """The truncation a config names, resolved against its atom count: the
    whole tensor, on which `protocol.run_batch` is the reference for the
    block a first-order run evolves on."""
    return config.truncation.resolve(config.n_atoms)


def evolve_stage(state, config, kind=StageKind.WRITE_THEN_READ, weight=1.0):
    """``state``, an array over k, in fresh photon vacuum through the stage's
    process(es), as `protocol.run_batch` evolves a batch of one: the tensor
    psi[1, k, n_a, n_b, n_c] on the config's evolved truncation. Levels above
    the atomic cutoff are dropped; the row's first guard error, its cutoff
    populations weighed by ``weight``, raises."""
    truncation = batch_key(config)[-1]
    rows = np.zeros((1, truncation.atomic_k_max + 1), dtype=np.complex128)
    amps = state[: rows.shape[1]]
    rows[0, : amps.size] = amps
    tensors = []
    level = rows, np.array([weight]), np.zeros(1, dtype=np.intp)
    errors = _stage(_processes([config], truncation), level, kind,
                    lambda lo, psi, _: tensors.append(psi))[2]
    if errors:
        raise errors[0]
    return tensors[0]


def heralded(psi, pattern):
    """`joint.herald_rows` on a batch psi[B, k, n_a, n_b, n_c] of rows with
    one branch at most: each row's conditional state (B, k), zero for a row
    without a branch, and the raw probabilities (B,)."""
    prob, rows, _, _, branches = herald_rows(psi, pattern)
    assert len(set(rows.tolist())) == len(rows), "a row has several branches"
    states = np.zeros(psi.shape[:2], dtype=np.complex128)
    states[rows] = branches
    return states, prob


def run_stage(state, config, kind, *, stage_index=0, cumulative_in=1.0):
    """One stage from ``state``, evolved and heralded as an iteration of
    `protocol.run_batch` does it for a point of one branch; a zero-probability
    herald is a failed stage. Exact evolution with beta < 1 can leave several
    branches: the report then holds their mixture's gain and no state."""
    psi = evolve_stage(state, config, kind)
    raw, _, _, pops, branches = herald_rows(psi, STAGE_PATTERNS[kind])
    total = row_norms(psi)[0]
    p = float(raw[0] / total)
    shares = pops / total
    record = (p, cumulative_in * p, (branches, shares / shares.sum(), None), 0,
              len(branches))
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


def exact_eta(k, n_atoms):
    """The ladder eigenvalue (k+1)(N-k)/N as an exact Fraction."""
    return Fraction((k + 1) * (n_atoms - k), n_atoms)


def ss_dagger_eigenvalues(n_atoms, levels):
    """Eigenvalue (k+1)(N-k)/N of raise-then-lower on each level k < levels,
    exact and rounded once."""
    return np.array([float(exact_eta(k, n_atoms)) for k in range(levels)])


def gain_eigenvalues(schedule, n_atoms, n_rounds, levels):
    """Eigenvalue of the n-round amplification operator on each level k <
    levels, exact and rounded once, with eta(h) = (h+1)(N-h)/N. TYPE_I:
    eta(k)^n. TYPE_II: prod_{h=k}^{k+n-1} eta(h), zero where k + n > N (the
    ladder tops out at N excitations, where eta(N) = 0)."""
    exact = []
    for k in range(levels):
        if schedule is Schedule.TYPE_I:
            exact.append(exact_eta(k, n_atoms) ** n_rounds)
        else:
            etas = [exact_eta(h, n_atoms) for h in range(k, k + n_rounds)]
            exact.append(math.prod(etas))
    return np.array([float(value) for value in exact])


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
    """Every success branch of a schedule, evolved one node at a time, level
    by level, keyed by the undetected-mode counts of its path: ``states`` maps
    a path to the atomic state entering stage len(path), ``outcomes`` a node's
    path to its stage's (n_a, n_b, n_c) distribution. Each node is its own
    `evolve_stage`, its outcome distribution the sum over k of its |psi|^2,
    0 at or below ZERO_PROB_FLOOR, over the total, and each child the node's
    success column for one undetected-mode count, divided by the square root
    of the column's sum over k of |psi|^2, as `joint.herald_rows` normalizes
    a branch. Its guards weigh a node's cutoff populations by its share of
    its level, the probability of its path over the level's sum, as
    `protocol._stage` weighs a branch's."""

    def __init__(self, config):
        self.plan = stage_plan(config)
        k_dim = config.truncation.resolve(config.n_atoms).atomic_k_max + 1
        self.states = {(): weak_coherent_rows([config.alpha], k_dim)[0]}
        self.outcomes, level = {}, {(): 1.0}
        for kind in self.plan:
            pattern, children = STAGE_PATTERNS[kind], {}
            for path, share in level.items():
                psi = evolve_stage(self.states[path], config, kind, share)[0]
                sq = np.abs(psi) ** 2
                column_pops = np.sum(sq, axis=0)
                weights = column_pops.copy()
                weights[weights <= ZERO_PROB_FLOOR] = 0.0
                self.outcomes[path] = weights / float(np.sum(sq))
                hits = self.outcomes[path][pattern.detect_a, pattern.detect_b]
                for n_c in np.flatnonzero(hits):
                    column = psi[:, pattern.detect_a, pattern.detect_b, n_c]
                    pop = column_pops[pattern.detect_a, pattern.detect_b, n_c]
                    self.states[path + (int(n_c),)] = column / np.sqrt(pop)
                    children[path + (int(n_c),)] = share * float(hits[n_c])
            total = sum(children.values())
            level = {path: p / total for path, p in children.items()}

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


def monte_carlo_per_node(config, trials):
    """`protocol.monte_carlo` as a walk over the finished `TrajectoryTreePerNode`:
    each stage draws one multinomial per path that trials reach, in path
    order, over its outcome support, and hands each child path its parent's
    count at the herald cell; P_suc is the tree's recursive sum."""
    tree = TrajectoryTreePerNode(config)
    rng = np.random.default_rng(config.rng_seed)
    alive, survival, first_stage_counts = {(): trials}, [], []
    for stage_index, kind in enumerate(tree.plan):
        pattern = STAGE_PATTERNS[kind]
        next_alive = {}
        for path, count in alive.items():
            probs = tree.outcomes[path]
            support = np.flatnonzero(probs)
            counts = np.zeros(probs.shape, dtype=np.int64)
            counts.flat[support] = rng.multinomial(count, probs.flat[support])
            if stage_index == 0:
                rows = np.column_stack((np.argwhere(counts), counts[counts > 0]))
                first_stage_counts = rows.tolist()
            hits = counts[pattern.detect_a, pattern.detect_b]
            for n_c in np.flatnonzero(hits):
                next_alive[path + (int(n_c),)] = int(hits[n_c])
        alive = next_alive
        survival.append(sum(alive.values()))
    successes = survival[-1]
    mean_gain = float("nan")
    if successes > 0:
        gain_sum = 0.0
        for path, count in alive.items():
            gain_sum += count * _gain_of(tree.states[path], config.alpha)
        mean_gain = gain_sum / successes
    ci_low, ci_high = _wilson_interval(successes, trials)
    return MCReport(
        trials=trials, successes=successes, success_frequency=successes / trials,
        ci_low=ci_low, ci_high=ci_high, mean_gain=mean_gain,
        numeric_success_probability=tree.success_probability(),
        rng_seed=config.rng_seed, stage_survival=survival,
        first_stage_outcomes=first_stage_counts,
    )


def dense_generator(config, truncation, process):
    """G = C - C^T of the write or read process on the whole joint space of
    ``truncation``, as a dense matrix built one term at a time from the model,
    with eta(k) = (k+1)(N-k)/N from `exact_eta`. The write's C takes
    |k, n_a, n_b, n_c> to sqrt(eta(k)) times sqrt(p beta (n_a+1)) |k+1, n_a+1,
    n_b, n_c> plus sqrt(p (1-beta) (n_c+1)) |k+1, n_a, n_b, n_c+1>; the read's
    takes |k+1, n_a, n_b, n_c> to sqrt(eta(k)) times sqrt(p beta (n_b+1))
    |k, n_a, n_b+1, n_c> plus sqrt(p (1-beta) (n_c+1)) |k, n_a, n_b, n_c+1>.
    Terms that would leave the truncation are dropped."""
    shape = truncation.shape()
    write = process == "write"
    p, beta = (config.p_w, config.beta_w) if write else (config.p_r, config.beta_r)
    detected, lost = math.sqrt(p * beta), math.sqrt(p * (1.0 - beta))
    g = np.zeros((math.prod(shape),) * 2)
    for k, a, b, c in itertools.product(*map(range, shape)):
        if k + 1 == shape[0]:
            continue
        ladder = math.sqrt(float(exact_eta(k, config.n_atoms)))
        source, level = ((k, a, b, c), k + 1) if write else ((k + 1, a, b, c), k)
        targets = [
            ((level, a + 1, b, c), detected * math.sqrt(a + 1)) if write
            else ((level, a, b + 1, c), detected * math.sqrt(b + 1)),
            ((level, a, b, c + 1), lost * math.sqrt(c + 1)),
        ]
        for target, amplitude in targets:
            if all(n < size for n, size in zip(target, shape)):
                i, j = (np.ravel_multi_index(x, shape) for x in (target, source))
                g[i, j] += ladder * amplitude
                g[j, i] -= ladder * amplitude
    return g


def dense_schedule(config):
    """An exact-order schedule on density matrices, independent of the stage
    loop: each stage embeds the atomic density rho in photon vacuum, evolves
    it as U rho U^dagger with U = scipy.linalg.expm of `dense_generator`,
    heralds the stage's pattern with mode c traced out, and renormalizes.
    Returns per stage (probability, cumulative probability, gain) and the
    quality metrics of the last stage's joint density against the target t:
    p_mode, p_spon and p_amp from <t|rho|t> on the photon sectors, fidelity
    <t|rho|t> of the heralded state, and gain Re(rho_10 / (rho_00 alpha))."""
    truncation = config.truncation.resolve(config.n_atoms)
    shape = truncation.shape()
    unitaries = {name: scipy.linalg.expm(dense_generator(config, truncation, name))
                 for name in ("write", "read")}
    state = np.zeros(shape[0], dtype=complex)
    state[:2] = 1.0, config.alpha
    rho = np.outer(state, state.conj()) / np.vdot(state, state).real
    vacuum = np.ravel_multi_index((np.arange(shape[0]), 0, 0, 0), shape)
    stages, cumulative = [], 1.0
    for kind in stage_plan(config):
        joint = np.zeros((math.prod(shape),) * 2, dtype=complex)
        joint[np.ix_(vacuum, vacuum)] = rho
        for name, skip in (("write", StageKind.READ_ONLY), ("read", StageKind.WRITE_ONLY)):
            if kind is not skip:
                joint = unitaries[name] @ joint @ unitaries[name].T
        pattern = STAGE_PATTERNS[kind]
        n_a, n_b = pattern.detect_a, pattern.detect_b
        blocks = joint.reshape(shape + shape)[:, n_a, n_b, :, :, n_a, n_b, :]
        heralded = np.einsum("kclc->kl", blocks)
        total, raw = np.trace(joint).real, np.trace(heralded).real
        cumulative *= raw / total
        rho = heralded / raw
        gain = (rho[1, 0] / (rho[0, 0] * config.alpha)).real if rho[0, 0] else math.nan
        stages.append((raw / total, cumulative, gain))
    t = np.zeros(shape[0], dtype=complex)
    t[:2] = 1.0, _target_gain(config) * config.alpha
    t /= np.linalg.norm(t)
    # <t| rho |t> over the atom, per photon state (n_a, n_b, n_c)
    overlap = np.einsum("k,kxly,l->xy", t.conj(), joint.reshape(
        (shape[0], -1, shape[0], math.prod(shape[1:]))), t).real
    photons = np.ravel_multi_index((n_a, n_b, np.arange(shape[3])), shape[1:])
    matched, atomic = overlap[photons, photons].sum(), np.trace(overlap)
    sector = np.einsum("kckc->", blocks).real
    p_mode, p_spon, p_amp = 1 - matched / sector, 1 - matched / atomic, atomic / total
    quality = {
        "p_suc": cumulative, "p_mode": p_mode, "p_spon": p_spon, "p_amp": p_amp,
        "q_amp": p_amp * (1 - p_spon) * (1 - p_mode),
        "gain": stages[-1][2], "fidelity": np.vdot(t, rho @ t).real,
    }
    return stages, quality
