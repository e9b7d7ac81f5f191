"""End-to-end amplification schedules and Monte Carlo sampling of heralds.

A stage embeds the current atomic state into fresh photon vacuum, runs the
write and/or read process, and conditions on the stage's photon pattern:
(1,1) for a combined write-read round, (1,0) for a write-only round, (0,1)
for a read-only round. Type-I repeats combined rounds; type-II performs all
write rounds first, then all read rounds. The deterministic pipeline keeps
every success branch, one per undetected-mode count, weighted by its
probability: the heralded mixture. `monte_carlo` samples the full outcome
distribution instead, terminating a trajectory on the first failed herald.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field, fields
from itertools import compress

import numpy as np

from .dicke import Schedule, relative_gain, weak_coherent_rows
from .errors import ConfigError
from .joint import (
    TRUNCATION_FIELDS,
    ZERO_PROB_FLOOR,
    EvolutionOrder,
    HeraldPattern,
    ModeTruncation,
    Process,
    apply_process,
    herald_rows,
    is_integer,
    is_real,
)
from .metrics import QualityReport, row_norms, score_rows, sector_norms


class StageKind(enum.Enum):
    WRITE_THEN_READ = "write_then_read"
    WRITE_ONLY = "write_only"
    READ_ONLY = "read_only"


STAGE_PATTERNS = {
    StageKind.WRITE_THEN_READ: HeraldPattern(1, 1),
    StageKind.WRITE_ONLY: HeraldPattern(1, 0),
    StageKind.READ_ONLY: HeraldPattern(0, 1),
}


class GainConvention(enum.Enum):
    """Target-state amplitude for the quality metrics.

    EXACT keeps the finite-N factors of the gain formulas; LARGE_N drops
    them (2^n alpha for type-I, (n+1) alpha for type-II).
    """

    EXACT = "exact"
    LARGE_N = "large_n"


def to_number(key: str, convert, value):
    """``convert(value)``; a JSON integer beyond the float range is a ConfigError."""
    try:
        return convert(value)
    except OverflowError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _finite_complex(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _real(key: str, value) -> float:
    if not is_real(value):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    return to_number(key, float, value)


def _complex(key: str, alpha):
    # the exact type first: an ABC isinstance check is slow
    if type(alpha) not in (complex, float, int) and (
        isinstance(alpha, bool) or not isinstance(alpha, numbers.Complex)
    ):
        raise ConfigError(f"{key}: expected a number, got {alpha!r}")
    return alpha


def _count(key: str, value) -> int:
    if not is_integer(value) or value < 1:
        raise ConfigError(f"{key} must be a positive integer, got {value}")
    return value


def _atoms(key: str, value) -> int:
    to_number(key, float, _count(key, value))  # a run holds N as a float
    return value


def _probability(key: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{key} must be in [0, 1], got {value}")
    return value


def _efficiency(key: str, value: float) -> float:
    if not 0.0 < value <= 1.0:
        raise ConfigError(f"{key} must be in (0, 1], got {value}")
    return value


#: The least nonzero |alpha|. Below it the amplitudes a stage derives from
#: alpha, about |alpha| sqrt(p_w p_r), can reach the subnormal range, where
#: they lose precision; the herald floor keeps sqrt(p_w p_r) above 1e-140.
ALPHA_FLOOR = 1e-150


def finite_alpha(key: str, value) -> complex:
    """``value``, a number or a JSON ``[re, im]`` pair, as a complex, finite and 0
    or at least ALPHA_FLOOR in modulus; a message shows ``value`` as given."""
    if isinstance(value, (list, tuple)):
        alpha = complex(*[to_number(key, float, part) for part in value])
    else:
        alpha = to_number(key, complex, value)
    if not _finite_complex(alpha):
        raise ConfigError(f"{key} must be finite, got {value}")
    if 0.0 < math.hypot(alpha.real, alpha.imag) < ALPHA_FLOOR:
        raise ConfigError(f"{key} must be 0 or at least {ALPHA_FLOOR} in modulus, "
                          f"got {value}")
    return alpha


def _seed(key: str, value) -> int:
    if not is_integer(value) or not 0 <= value < 2**64:
        raise ConfigError(f"{key} must be a u64, got {value}")
    return value


def _instance(key: str, value):
    kind = type(getattr(ProtocolConfig, key))  # the type of the field's default
    if not isinstance(value, kind):
        raise ConfigError(f"{key} must be of type {kind.__name__}, got {value!r}")
    return value


#: The checks of one field each, in the order `ProtocolConfig` runs them: the
#: types, the headroom check, then the ranges. A check takes a key and its
#: value and returns the value to store, or raises ConfigError.
_TYPE_CHECKS = {"p_w": _real, "p_r": _real, "beta_w": _real, "beta_r": _real,
                "alpha": _complex, "n_atoms": _atoms, "stages": _count}
_RANGE_CHECKS = {"p_w": _probability, "p_r": _probability, "beta_w": _efficiency,
                 "beta_r": _efficiency, "alpha": finite_alpha, "rng_seed": _seed,
                 "truncation": _instance, "schedule": _instance, "order": _instance,
                 "gain_convention": _instance}


def field_value(key: str, value):
    """``value`` as `ProtocolConfig` stores it in field ``key``, after that
    field's own checks only; a failing one raises ConfigError."""
    for checks in (_TYPE_CHECKS, _RANGE_CHECKS):
        if key in checks:
            value = checks[key](key, value)
    return value


@dataclass(frozen=True)
class ProtocolConfig:
    """All run parameters for a schedule, validated on construction."""

    n_atoms: int
    alpha: complex = 0.1
    p_w: float = 0.01
    p_r: float = 0.01
    beta_w: float = 1.0
    beta_r: float = 1.0
    schedule: Schedule = Schedule.TYPE_I
    stages: int = 1
    order: EvolutionOrder = EvolutionOrder.FIRST_ORDER
    truncation: ModeTruncation = ModeTruncation()
    gain_convention: GainConvention = GainConvention.EXACT
    rng_seed: int = 0

    def __post_init__(self):
        self._check_fields(_TYPE_CHECKS)
        self._check_headroom()
        self._check_fields(_RANGE_CHECKS)
        self._check_target()

    def _check_fields(self, checks: dict) -> None:
        for key, check in checks.items():
            object.__setattr__(self, key, check(key, getattr(self, key)))

    def _check_headroom(self) -> None:
        if self.stages + 1 > self.n_atoms:
            raise ConfigError(
                f"stages+1 = {self.stages + 1} exceeds n_atoms = {self.n_atoms} "
                "(excitation headroom)"
            )

    def _check_target(self) -> None:
        """The loss mode of beta < 1, and a finite target amplitude."""
        if min(self.beta_w, self.beta_r) < 1.0 and self.truncation.fock_c_max == 0:
            raise ConfigError("beta_w or beta_r < 1 needs a loss mode (fock_c_max >= 1)")
        try:
            target = _target_gain(self) * self.alpha
        except OverflowError as exc:
            raise ConfigError(f"the target gain overflows: {exc}") from exc
        if not _finite_complex(target):
            raise ConfigError(f"alpha = {[self.alpha.real, self.alpha.imag]}: the "
                              "target amplitude gain*alpha is not finite")

    def derive(self, changes: dict) -> "ProtocolConfig":
        """This config with ``changes``, each value checked by `field_value`,
        after only the cross-field checks: headroom, the loss mode of
        beta < 1 and the target gain. Equal to the full construction's
        config, or raising its message, since every field passed its own."""
        config = object.__new__(ProtocolConfig)
        for name in CONFIG_FIELDS:  # in declaration order, as __init__ sets them
            object.__setattr__(config, name, changes.get(name, getattr(self, name)))
        config._check_headroom()
        config._check_target()
        return config

    def to_dict(self) -> dict:
        """JSON form: enums by value, alpha as [re, im], truncation as an object."""
        out = {}
        for name in CONFIG_FIELDS:
            value = getattr(self, name)
            if isinstance(value, enum.Enum):
                value = value.value
            elif isinstance(value, complex):
                value = [value.real, value.imag]
            elif isinstance(value, ModeTruncation):
                value = {key: getattr(value, key) for key in TRUNCATION_FIELDS}
            out[name] = value
        return out


#: Field names in declaration order, read once: the run-config schema.
CONFIG_FIELDS = tuple(f.name for f in fields(ProtocolConfig))


@dataclass(frozen=True)
class StageReport:
    """Outcome of one heralded stage of the pipeline; ``state`` is the
    heralded atomic state, a read-only array over k, if the stage left one
    branch, and None for a mixture or a failed herald (probability 0)."""

    stage_index: int
    kind: StageKind
    pattern: HeraldPattern
    probability: float
    cumulative_probability: float
    state: np.ndarray | None
    gain_so_far: float
    failed: bool = False

    def to_row(self) -> dict:
        return {
            "stage": self.stage_index,
            "kind": self.kind.value,
            "detect_a": self.pattern.detect_a,
            "detect_b": self.pattern.detect_b,
            "probability": self.probability,
            "cumulative_probability": self.cumulative_probability,
            "gain_so_far": self.gain_so_far,
            "failed": self.failed,
        }


@dataclass(frozen=True)
class AmplificationReport:
    """Full pipeline result: per-stage records plus the end-to-end summary."""

    succeeded: bool
    stage_reports: list[StageReport]
    final_state: np.ndarray | None
    final_gain: float
    analytic_gain: float
    discrepancy: float
    success_probability: float
    quality: QualityReport | None
    failure_reason: str | None = None

    def to_dict(self) -> dict:
        final_amps = None
        if self.final_state is not None:
            final_amps = [[c.real, c.imag] for c in self.final_state.tolist()]
        return {
            "succeeded": self.succeeded,
            "stages": [r.to_row() for r in self.stage_reports],
            "final_state": final_amps,
            "final_gain": self.final_gain,
            # gain is an amplitude ratio; the intensity ratio is derived
            "final_gain_squared": self.final_gain**2,
            "analytic_gain": self.analytic_gain,
            "discrepancy": self.discrepancy,
            "success_probability": self.success_probability,
            "quality": None if self.quality is None else self.quality.to_dict(),
            "failure_reason": self.failure_reason,
        }


def stage_plan(config: ProtocolConfig) -> list[StageKind]:
    if config.schedule is Schedule.TYPE_I:
        return [StageKind.WRITE_THEN_READ] * config.stages
    return [StageKind.WRITE_ONLY] * config.stages + [
        StageKind.READ_ONLY
    ] * config.stages


def _gain_of(amps: np.ndarray, alpha: complex) -> float:
    c0 = amps[0]
    if alpha == 0 or c0 == 0:
        return float("nan")
    # c0 * alpha stays near 1 where c0 alone is tiny (|alpha| near overflow);
    # Python's complex division, unlike NumPy's, stays finite for subnormals
    return (complex(amps[1]) / complex(c0 * alpha)).real


def _mixture_gain(weights: np.ndarray, states: np.ndarray, alpha: complex) -> float:
    """Re(rho_10 / (rho_00 alpha)) of rho = sum_i w_i |s_i><s_i|: each
    branch's `_gain_of` weighted by its share of rho_00, w_i |c0_i|^2, with
    each |c0_i| scaled by the largest first, whose square would underflow
    where |alpha| is huge. NaN without a branch of nonzero c0, or at alpha 0."""
    if len(states) == 1:  # its share is 1
        return _gain_of(states[0], alpha)
    c0 = np.abs(states[:, 0])
    top = c0.max(initial=0.0)
    if top == 0.0:
        return float("nan")
    share = weights * (c0 / top) ** 2
    share /= share.sum()
    return sum(s * _gain_of(state, alpha) for s, state in zip(share.tolist(), states) if s)


#: Joint-state bytes per batch (23 points at the default shape, whose
#: first-order block is 9x2x2x3). A batch peaks at 3 state tensors plus
#: per-row temporaries; larger ones save little time and raise the heap.
BATCH_BYTES = 40 * 1024


def batch_rows(truncation: ModeTruncation) -> int:
    """Rows of a batch on an evolved truncation: BATCH_BYTES of state, or one."""
    return max(1, BATCH_BYTES // (16 * truncation.total_dim()))


def batch_key(config: ProtocolConfig) -> tuple:
    """Points with equal keys share a stage plan, an evolution order and the
    truncation they evolve on (`ModeTruncation.evolved`, last): they can run
    as one batch."""
    trunc = config.truncation.evolved(config.n_atoms, config.order)
    return config.schedule, config.stages, config.order, trunc


def _processes(configs: list[ProtocolConfig], truncation: ModeTruncation) -> tuple:
    """The write and read processes of points of one `batch_key`, one row per
    point, on ``truncation``, the key's last entry."""
    n_atoms = np.array([c.n_atoms for c in configs], dtype=float)
    return tuple(
        Process(name, truncation, configs[0].order, n_atoms,
                np.array([getattr(c, p) for c in configs]),
                np.array([getattr(c, beta) for c in configs]))
        for name, p, beta in [("write", "p_w", "beta_w"), ("read", "p_r", "beta_r")]
    )


def _stage(processes: tuple, level: tuple, kind: StageKind, visit=None) -> tuple:
    """One stage of a level of branches, the rows (states, weights, owners) of
    each branch's atomic state, its share of its point's probability and its
    point's row in ``processes``, grouped by point. The branches evolve in
    chunks of `batch_rows`, from fresh photon vacuum through the processes of
    their points, each guard weighing a branch's cutoff population by its
    share; ``visit(lo, psi, totals)`` sees each chunk's tensor and squared
    norms, rows lo on, in level order (`monte_carlo` draws its trials there).
    Returns each branch's raw herald probability and total, each failing
    point's first error in level order, the children as a level, and each
    child's parent and n_c: the branches of `joint.herald_rows`, in (parent,
    n_c) order, by which `monte_carlo` hands each child its parent's trials
    at the child's herald cell. A child's share is its parent's times its
    squared norm over its parent's total, normalized within its point as
    x / sum(x), so a point's only child weighs 1."""
    states, weights, owner = level
    truncation, count = processes[0].truncation, len(processes[0].p)
    size = batch_rows(truncation)
    errors, parts = {}, []
    for lo in range(0, max(len(states), 1), size):  # an empty level is one chunk
        rows, found = slice(lo, lo + size), {}
        atomic = states[rows]
        psi = np.zeros((len(atomic),) + truncation.shape(), np.complex128)
        psi[:, :, 0, 0, 0] = atomic
        for proc, skip in zip(processes, (StageKind.READ_ONLY, StageKind.WRITE_ONLY)):
            if kind is not skip:  # each input tensor is freed as its process returns
                psi = apply_process(psi, proc.rows(owner[rows]), found, weights[rows])
        for i in sorted(found):  # a point's first error in level order
            errors.setdefault(int(owner[lo + i]), found[i])
        totals = row_norms(psi)
        if visit is not None:
            visit(lo, psi, totals)
        raw, branch, n_c, pops, children = herald_rows(psi, STAGE_PATTERNS[kind])
        parts.append((raw, totals, branch + lo, n_c, pops, children))
    if len(parts) > 1:
        parts = [list(map(np.concatenate, zip(*parts)))]
    raw, totals, parent, n_c, pops, children = parts[0]
    share = weights[parent] * pops / totals[parent]
    owner = owner[parent]
    share /= np.bincount(owner, share, count)[owner]
    return raw, totals, errors, (children, share, owner), parent, n_c


def _stage_report(
    index: int, kind: StageKind, record: tuple, config: ProtocolConfig
) -> StageReport:
    """A `run_batch` stage record as a report: a read-only copy of the
    heralded state if the point has one branch, and the mixture's gain."""
    probability, cumulative, (states, weights, _), lo, hi = record
    state = None
    if hi - lo == 1:
        state = states[lo].copy()
        state.flags.writeable = False
    gain = _mixture_gain(weights[lo:hi], states[lo:hi], config.alpha)
    return StageReport(index, kind, STAGE_PATTERNS[kind], probability, cumulative,
                       state, gain, failed=probability == 0.0)


def _target_gain(config: ProtocolConfig) -> float:
    if config.gain_convention is GainConvention.EXACT:
        return relative_gain(config.schedule, config.stages, config.n_atoms)
    if config.schedule is Schedule.TYPE_I:
        return float(2.0**config.stages)
    return float(config.stages + 1)


def _headroom_error(config: ProtocolConfig, k_max: int) -> ConfigError | None:
    needed = config.stages + 1 if config.schedule is Schedule.TYPE_II else 2
    if k_max >= needed:
        return None
    return ConfigError(
        f"atomic_k_max = {k_max} below the schedule's "
        f"excitation reach {needed}; enlarge the truncation"
    )


def run_batch(
    configs: list[ProtocolConfig], truncation: ModeTruncation
) -> list[tuple]:
    """The stage loop: embed, evolve, herald and score points of one
    `batch_key` on ``truncation``, the key's last entry. The caller groups the
    points by key; they are not counted again here. A point is a weighted set
    of branches, one per undetected-mode count heralded (`_stage`), so its
    stage probability is the sum of w raw / total over its branches.
    Reductions stay within a row, so no point's values depend on the others.
    A point whose branch raises keeps the first such error in level order and
    leaves the batch, as does a failed herald. The points that heralded
    every stage are scored together (`metrics.score_rows`). Returns per point
    (stage records, the `QualityReport` fields as a list or None, error), a
    stage record being (probability, cumulative probability, the stage's
    children as a level, and the first and last + 1 of the point's children:
    none for a zero-probability herald)."""
    count = len(configs)
    stages: list[list[tuple]] = [[] for _ in range(count)]
    qualities: list[list | None] = [None] * count
    errors = [_headroom_error(c, truncation.atomic_k_max) for c in configs]
    processes = _processes(configs, truncation)
    k_dim = truncation.atomic_k_max + 1
    live = np.array([error is None for error in errors])
    states = weak_coherent_rows(np.array([c.alpha for c in configs]), k_dim)[live]
    level, cumulative = (states, np.ones(len(states)), np.flatnonzero(live)), np.ones(count)
    targets = np.array([_target_gain(c) * c.alpha for c in configs])
    targets = weak_coherent_rows(targets, k_dim)
    plan, norms = stage_plan(configs[0]), []
    for s, kind in enumerate(plan):
        _, weights, owner = level
        visit = None
        if s == len(plan) - 1:  # score the last stage's tensors as they evolve
            counts = STAGE_PATTERNS[kind].detect_a, STAGE_PATTERNS[kind].detect_b
            visit = lambda lo, psi, _: norms.append(
                sector_norms(psi, targets[owner[lo : lo + len(psi)]], *counts))
        raw, totals, stage_errors, children, _, _ = _stage(processes, level, kind, visit)
        probability = np.bincount(owner, weights * raw / totals, count)
        cumulative = cumulative * probability
        bounds = np.searchsorted(children[2], np.arange(count + 1)).tolist()
        probabilities, cumulatives = probability.tolist(), cumulative.tolist()
        entering, live = compress(range(count), live.tolist()), probability > 0.0
        for i in entering:
            if i in stage_errors:
                errors[i], live[i] = stage_errors[i], False
            else:
                record = probabilities[i], cumulatives[i], children, *bounds[i : i + 2]
                stages[i].append(record)
        kept = live[children[2]]  # the branches of the live points
        level = children if kept.all() else tuple(x[kept] for x in children)
    # score the points that heralded every stage: the norms of the last
    # stage's branches by their shares over their totals, fidelity and gain
    # of the leaves by their shares
    norms = np.stack([raw, *np.concatenate(norms, axis=1), totals])
    if not np.array_equal(owner, np.arange(count)):  # sum each point's branches
        share = weights / totals
        share /= np.bincount(owner, share, count)[owner]
        norms = np.stack([np.bincount(owner, share * norm, count) for norm in norms])
    leaves, weights, owner = children
    targets = targets[owner]
    overlap = np.abs((leaves.conj() * targets).sum(axis=1)) ** 2
    fidelity = overlap / (row_norms(leaves) * row_norms(targets))
    fidelity = np.bincount(owner, weights * fidelity, count)
    scored, gains = live.nonzero()[0], []
    for i in scored.tolist():
        lo, hi = bounds[i : i + 2]
        gains.append(_mixture_gain(weights[lo:hi], leaves[lo:hi], configs[i].alpha))
    rows, failures = score_rows(cumulative[scored], norms[:, scored], counts,
                                np.array(gains), fidelity[scored])
    for i, row, error in zip(scored.tolist(), rows, failures):
        qualities[i], errors[i] = (row, None) if error is None else (None, error)
    return list(zip(stages, qualities, errors))


def run_schedule(config: ProtocolConfig) -> AmplificationReport:
    """Deterministic post-selected pipeline over the configured schedule:
    `run_batch` on the batch of one, raising the point's error."""
    stages, row, error = run_batch([config], batch_key(config)[-1])[0]
    if error is not None:
        raise error
    quality = None if row is None else QualityReport(*row)
    plan = stage_plan(config)
    reports = [_stage_report(i, plan[i], r, config) for i, r in enumerate(stages)]
    analytic = relative_gain(config.schedule, config.stages, config.n_atoms)
    gain = float("nan") if quality is None else quality.gain
    return AmplificationReport(
        succeeded=quality is not None,
        stage_reports=reports,
        final_state=reports[-1].state,
        final_gain=gain,
        analytic_gain=analytic,
        discrepancy=abs(gain - analytic),
        success_probability=0.0 if quality is None else quality.p_suc,
        quality=quality,
        failure_reason=(
            None if quality is not None
            else f"zero-probability herald at stage {len(reports) - 1}"
        ),
    )


@dataclass(frozen=True)
class MCReport:
    """Empirical statistics of seeded heralding trajectories."""

    trials: int
    successes: int
    success_frequency: float
    ci_low: float
    ci_high: float
    mean_gain: float
    numeric_success_probability: float
    rng_seed: int
    stage_survival: list[int] = field(default_factory=list)
    #: observed (n_a, n_b, n_c, count) rows for the first stage, all trials
    first_stage_outcomes: list[list[int]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _MC_FIELDS}


_MC_FIELDS = tuple(f.name for f in fields(MCReport))


def _wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    # 95% score interval; exact-zero counts give [0, upper]
    z = 1.959963984540054
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


def monte_carlo(config: ProtocolConfig, trials: int) -> MCReport:
    """Sample heralding trajectories; failures terminate a trajectory.

    The stage loop's `_stage` grows each level of success branches, the config
    as one point, and the trials are drawn as it grows: one multinomial per
    branch that trials reach, in level order, over its full (n_a, n_b, n_c)
    outcome distribution (the conditional-binomial method). Every surviving
    trajectory carries a pure state, and memory grows with the widest level,
    not with `trials`. Every branch evolves, reached or not, so the headroom
    check and the guards raise as in `run_batch`. Reproducible for a fixed seed.
    """
    if not is_integer(trials) or not 1 <= trials < 2**63:
        raise ValueError(f"trials must be in [1, 2**63 - 1], got {trials}")
    trunc = batch_key(config)[-1]
    if error := _headroom_error(config, trunc.atomic_k_max):
        raise error
    processes = _processes([config], trunc)
    root = weak_coherent_rows(np.array([config.alpha]), trunc.atomic_k_max + 1)
    level, alive = (root, np.ones(1), np.zeros(1, dtype=np.intp)), np.array([trials])
    rng = np.random.default_rng(config.rng_seed)
    survival, first_stage_counts = [], []
    steps = []  # per stage: each child's parent and its parent's hit, the parents' count
    for kind in stage_plan(config):
        pattern = STAGE_PATTERNS[kind]
        cell, parts = (slice(None), pattern.detect_a, pattern.detect_b), []

        def visit(lo: int, psi: np.ndarray, totals: np.ndarray) -> None:
            probs = (np.abs(psi) ** 2).sum(axis=1)
            probs[probs <= ZERO_PROB_FLOOR] = 0.0
            probs /= totals[:, None, None, None]
            drawn = np.zeros(probs.shape, dtype=np.int64)
            # over the support only: multinomial puts its rounding remainder last
            for out, p, count in zip(drawn, probs, alive[lo : lo + len(psi)].tolist()):
                if count:
                    support = np.flatnonzero(p)
                    out.flat[support] = rng.multinomial(count, p.flat[support])
            if not steps:  # the root, the first stage's only branch
                rows = np.column_stack((np.argwhere(drawn[0]), drawn[0][drawn[0] > 0]))
                first_stage_counts.extend(rows.tolist())
            # copies: views would keep each chunk's whole outcome arrays alive
            parts.append((drawn[cell].copy(), probs[cell].copy()))

        *_, errors, level, parent, n_c = _stage(processes, level, kind, visit)
        if errors:
            raise errors[0]
        drawn, hits = map(np.concatenate, zip(*parts))
        alive = drawn[parent, n_c]
        steps.append((parent, hits[parent, n_c], len(hits)))
        survival.append(int(alive.sum()))
    # the probability of completing every remaining herald, leaves up: each
    # branch sums its children's in (parent, n_c) order, from 0.0
    below = np.ones(len(alive))
    for parent, hit, size in reversed(steps):
        below = np.bincount(parent, hit * below, size)
    gain_sum, successes = 0.0, survival[-1]
    for count, state in zip(alive.tolist(), level[0]):
        if count:  # not 0 * gain: an unreached branch's gain may be NaN
            gain_sum += count * _gain_of(state, config.alpha)
    mean_gain = gain_sum / successes if successes else float("nan")
    ci_low, ci_high = _wilson_interval(successes, trials)
    return MCReport(
        trials=trials,
        successes=successes,
        success_frequency=successes / trials,
        ci_low=ci_low,
        ci_high=ci_high,
        mean_gain=mean_gain,
        numeric_success_probability=float(below[0]),
        rng_seed=config.rng_seed,
        stage_survival=survival,
        first_stage_outcomes=first_stage_counts,
    )
