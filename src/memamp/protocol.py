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

import numpy as np

from .dicke import Schedule, relative_gain, weak_coherent_rows
from .errors import ConfigError
from .joint import (
    TRUNCATION_FIELDS,
    ZERO_PROB_FLOOR,
    EvolutionOrder,
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


#: Each stage kind's herald: the photon counts (n_a, n_b) on the detected
#: Stokes and anti-Stokes modes, one from each process the stage runs.
STAGE_PATTERNS = {
    StageKind.WRITE_THEN_READ: (1, 1),
    StageKind.WRITE_ONLY: (1, 0),
    StageKind.READ_ONLY: (0, 1),
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


def _count(key: str, value) -> int:
    if not is_integer(value) or value < 1:
        raise ConfigError(f"{key} must be a positive integer, got {value}")
    return value


def _atoms(key: str, value) -> int:
    to_number(key, float, _count(key, value))  # a run holds N as a float
    return value


def _probability(key: str, value) -> float:
    value = _real(key, value)
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{key} must be in [0, 1], got {value}")
    return value


def _efficiency(key: str, value) -> float:
    value = _real(key, value)
    if not 0.0 < value <= 1.0:
        raise ConfigError(f"{key} must be in (0, 1], got {value}")
    return value


#: The least nonzero |alpha|. Below it the amplitudes a stage derives from
#: alpha, about |alpha| sqrt(p_w p_r), can reach the subnormal range, where
#: they lose precision; the herald floor keeps sqrt(p_w p_r) above 1e-140.
ALPHA_FLOOR = 1e-150


def _finite_alpha(key: str, value) -> complex:
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


def _alpha(key: str, value) -> complex:
    if isinstance(value, bool) or not isinstance(value, numbers.Complex):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    return _finite_alpha(key, value)


def _alpha_json(key: str, value) -> complex:
    pair = isinstance(value, (list, tuple)) and len(value) == 2
    if is_real(value) or pair and all(map(is_real, value)):
        return _finite_alpha(key, value)
    raise ConfigError(f"{key}: expected a number or [re, im] pair, got {value!r}")


def _seed(key: str, value) -> int:
    if not is_integer(value) or not 0 <= value < 2**64:
        raise ConfigError(f"{key} must be a u64, got {value}")
    return value


def _instance(key: str, value):
    kind = type(getattr(ProtocolConfig, key))  # the type of the field's default
    if not isinstance(value, kind):
        raise ConfigError(f"{key} must be of type {kind.__name__}, got {value!r}")
    return value


def _member(key: str, value):
    """The member of the field's enum whose value is the JSON name ``value``."""
    kind = type(getattr(ProtocolConfig, key))
    for member in kind:
        if member.value == value:
            return member
    options = ", ".join(m.value for m in kind)
    raise ConfigError(f"{key}: expected one of {options}, got {value!r}")


def _truncation(key: str, value) -> ModeTruncation:
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected an object")
    unknown = set(value).difference(TRUNCATION_FIELDS)
    if unknown:
        raise ConfigError(f"unknown {key} key(s): {', '.join(sorted(unknown))}")
    try:
        return ModeTruncation(**value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


#: Each field's own checks, in declaration order: the check of a library
#: value, then of a JSON value, which decodes alpha's [re, im] pair, an enum's
#: name or the truncation object. A check returns the value to store.
_FIELD_CHECKS = {
    "n_atoms": (_atoms, _atoms), "alpha": (_alpha, _alpha_json),
    "p_w": (_probability, _probability), "p_r": (_probability, _probability),
    "beta_w": (_efficiency, _efficiency), "beta_r": (_efficiency, _efficiency),
    "schedule": (_instance, _member), "stages": (_count, _count),
    "order": (_instance, _member), "truncation": (_instance, _truncation),
    "gain_convention": (_instance, _member), "rng_seed": (_seed, _seed),
}


def field_value(key: str, value):
    """``value``, a JSON value of field ``key``, as `ProtocolConfig` stores it,
    after that field's own checks only; a failing one raises ConfigError."""
    return _FIELD_CHECKS[key][1](key, value)


@dataclass(frozen=True)
class ProtocolConfig:
    """All run parameters for a schedule, validated on construction: each
    field's own checks in declaration order, then the cross-field checks.
    Each default is the value a field stores."""

    n_atoms: int
    alpha: complex = 0.1 + 0j
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
        for key, (check, _) in _FIELD_CHECKS.items():
            object.__setattr__(self, key, check(key, getattr(self, key)))
        self._check_together()

    @classmethod
    def from_fields(cls, values: dict) -> "ProtocolConfig":
        """The config of ``values``, n_atoms among them, each one through its
        field's own checks (`field_value`), and the defaults of the fields
        they leave out; only the cross-field checks run."""
        config = object.__new__(cls)
        for name, default in _DEFAULTS.items():  # vars() would add a dict per config
            object.__setattr__(config, name, values.get(name, default))
        config._check_together()
        return config

    def _check_together(self) -> None:
        """The cross-field checks: headroom, beta < 1's loss mode, the target."""
        if self.stages + 1 > self.n_atoms:
            raise ConfigError(
                f"stages+1 = {self.stages + 1} exceeds n_atoms = {self.n_atoms} "
                "(excitation headroom)"
            )
        if min(self.beta_w, self.beta_r) < 1.0 and self.truncation.fock_c_max == 0:
            raise ConfigError("beta_w or beta_r < 1 needs a loss mode (fock_c_max >= 1)")
        try:
            target = _target_gain(self) * self.alpha
        except OverflowError as exc:
            raise ConfigError(f"the target gain overflows: {exc}") from exc
        if not _finite_complex(target):
            raise ConfigError(f"alpha = {[self.alpha.real, self.alpha.imag]}: the "
                              "target amplitude gain*alpha is not finite")

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
#: Each field's default, in declaration order; n_atoms, which has none, is None.
_DEFAULTS = {name: getattr(ProtocolConfig, name, None) for name in CONFIG_FIELDS}


@dataclass(frozen=True)
class StageReport:
    """Outcome of one heralded stage of the pipeline: its row, the fields but
    ``state`` (`STAGE_COLUMNS`), with the herald's photon counts in
    ``detect_a`` and ``detect_b``; and ``state``, the heralded atomic state,
    a read-only array over k, if the stage left one branch, else None."""

    stage: int
    kind: StageKind
    detect_a: int
    detect_b: int
    probability: float
    cumulative_probability: float
    gain_so_far: float
    failed: bool
    state: np.ndarray | None

    def to_row(self) -> dict:
        row = {name: getattr(self, name) for name in STAGE_COLUMNS}
        row["kind"] = self.kind.value
        return row


#: A stage row's keys in declaration order, read once: the `stages.csv` columns.
STAGE_COLUMNS = tuple(f.name for f in fields(StageReport) if f.name != "state")


@dataclass(frozen=True)
class AmplificationReport:
    """Full pipeline result: per-stage records plus the end-to-end summary.
    Its fields are the `report.json` keys."""

    succeeded: bool
    stages: list[StageReport]
    final_state: np.ndarray | None
    final_gain: float
    #: gain is an amplitude ratio; the intensity ratio is derived
    final_gain_squared: float
    analytic_gain: float
    discrepancy: float
    success_probability: float
    quality: QualityReport | None
    failure_reason: str | None = None

    def to_dict(self) -> dict:
        """JSON form: stages as rows, the final state as [re, im] pairs."""
        out = {name: getattr(self, name) for name in _REPORT_FIELDS}
        out["stages"] = [r.to_row() for r in self.stages]
        if self.final_state is not None:
            out["final_state"] = [[c.real, c.imag] for c in self.final_state.tolist()]
        if self.quality is not None:
            out["quality"] = self.quality.to_dict()
        return out


_REPORT_FIELDS = tuple(f.name for f in fields(AmplificationReport))


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


#: Bytes of state per batch. `_stage` evolves a level in chunks of this much
#: joint tensor (23 rows of the default first-order block, 9x2x2x3), each
#: peaking at 3 tensors plus per-row temporaries; a sweep batch of points that
#: cannot branch holds this much atomic state (284 points at k_dim 9). A batch
#: pays about 0.3 ms of set-up and scoring whatever its size, so larger
#: batches save time, while larger chunks raise the heap.
BATCH_BYTES = 40 * 1024


def batch_rows(truncation: ModeTruncation) -> int:
    """Joint tensors of BATCH_BYTES on an evolved truncation, or one."""
    return max(1, BATCH_BYTES // (16 * truncation.total_dim()))


def batch_key(config: ProtocolConfig) -> tuple:
    """Points with equal keys share a stage plan, an evolution order and the
    truncation they evolve on (`ModeTruncation.evolved`, last): they can run
    as one batch. A truncation over the dimension cap raises
    ResourceGuardError, and one whose atomic ladder is below the schedule's
    excitation reach (2 for type I, stages + 1 for type II) ConfigError."""
    trunc = config.truncation.evolved(config.n_atoms, config.order)
    needed = config.stages + 1 if config.schedule is Schedule.TYPE_II else 2
    if trunc.atomic_k_max < needed:
        raise ConfigError(f"atomic_k_max = {trunc.atomic_k_max} below the schedule's "
                          f"excitation reach {needed}; enlarge the truncation")
    return config.schedule, config.stages, config.order, trunc


def points_per_batch(key: tuple) -> int:
    """Points of one `batch_key` per `run_batch`, or one. A point that cannot
    branch, at first order or without a loss mode, holds one atomic state of
    k_dim amplitudes between stages: BATCH_BYTES of them. A lossy exact point
    can hold many branches, so it keeps a chunk's `batch_rows`, the cap that
    `_stage` evolves them in."""
    _, _, order, truncation = key
    if order is EvolutionOrder.EXACT and truncation.fock_c_max > 0:
        return batch_rows(truncation)
    return max(1, BATCH_BYTES // (16 * (truncation.atomic_k_max + 1)))


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
    chunks of `batch_rows`, from fresh photon vacuum through those processes
    of their points whose photons the stage heralds, each guard weighing a
    branch's cutoff population by its share; ``visit(lo, psi, totals)`` sees
    each chunk's tensor and squared norms, rows lo on, in level order
    (`monte_carlo` draws its trials there).
    Returns each branch's raw herald probability and total, each failing
    point's first error in level order, the children as a level, each
    child's parent and n_c: the branches of `joint.herald_rows`, in (parent,
    n_c) order, by which `monte_carlo` hands each child its parent's trials
    at the child's herald cell; and each point's stage probability, the sum
    of w raw / total over its branches. A child's share is its parent's times
    its squared norm over its parent's total, normalized within its point as
    x / sum(x), so a point's only child weighs 1."""
    states, weights, owner = level
    truncation, points = processes[0].truncation, len(processes[0].p)
    size = batch_rows(truncation)
    errors, parts = {}, []
    for lo in range(0, max(len(states), 1), size):  # an empty level is one chunk
        rows, found = slice(lo, lo + size), {}
        atomic = states[rows]
        psi = np.zeros((len(atomic),) + truncation.shape(), np.complex128)
        psi[:, :, 0, 0, 0] = atomic
        for proc, count in zip(processes, STAGE_PATTERNS[kind]):
            if count:  # each input tensor is freed as its process returns
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
    probability = np.bincount(owner, weights * raw / totals, points)
    share = weights[parent] * pops / totals[parent]
    owner = owner[parent]
    share /= np.bincount(owner, share)[owner]
    return raw, totals, errors, (children, share, owner), parent, n_c, probability


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
    return StageReport(index, kind, *STAGE_PATTERNS[kind], probability, cumulative,
                       gain, probability == 0.0, state)


def _target_gain(config: ProtocolConfig) -> float:
    if config.gain_convention is GainConvention.EXACT:
        return relative_gain(config.schedule, config.stages, config.n_atoms)
    if config.schedule is Schedule.TYPE_I:
        return float(2.0**config.stages)
    return float(config.stages + 1)


def run_batch(
    configs: list[ProtocolConfig], truncation: ModeTruncation, visit=None
) -> list[tuple]:
    """The stage loop: embed, evolve, herald and score points that passed
    `batch_key`, all of one key, on ``truncation``, the key's last entry. The
    caller groups the points by key, whose checks (dimension cap, excitation
    reach) are not repeated here. A point is a weighted set of branches, one
    per undetected-mode count heralded; `_stage` forms its stage probability.
    Reductions stay within a row, so no point's values depend on the others.
    A point whose branch raises keeps the first such error in level order and
    leaves the batch, as does a failed herald. The points that heralded every
    stage are scored together (`metrics.score_rows`). Returns per point (the
    `QualityReport` fields as a list or None, error). ``visit(s, i, record)``
    sees the record of stage s of each point i that entered it and raised no
    error there: (probability, cumulative probability, the stage's children
    as a level, and the first and last + 1 of the point's children: none for
    a zero-probability herald). The loop keeps no record, and no level past
    its stage."""
    count = len(configs)
    qualities: list[list | None] = [None] * count
    errors: list[Exception | None] = [None] * count
    processes = _processes(configs, truncation)
    k_dim = truncation.atomic_k_max + 1
    live = np.ones(count, dtype=bool)
    # the level alone holds the root states, so they are freed after stage 0
    alphas = np.array([c.alpha for c in configs])
    level = weak_coherent_rows(alphas, k_dim), np.ones(count), np.arange(count)
    cumulative = np.ones(count)
    targets = np.array([_target_gain(c) * c.alpha for c in configs])
    targets = weak_coherent_rows(targets, k_dim)
    plan, norms = stage_plan(configs[0]), []
    for s, kind in enumerate(plan):
        _, weights, owner = level
        score = None
        if s == len(plan) - 1:  # score the last stage's tensors as they evolve
            counts = STAGE_PATTERNS[kind]
            score = lambda lo, psi, _: norms.append(
                sector_norms(psi, targets[owner[lo : lo + len(psi)]], *counts))
        raw, totals, stage_errors, children, _, _, probability = _stage(
            processes, level, kind, score)
        cumulative = cumulative * probability
        bounds = np.searchsorted(children[2], np.arange(count + 1)).tolist()
        for i, error in stage_errors.items():
            errors[i], live[i] = error, False
        if visit is not None:
            probabilities, cumulatives = probability.tolist(), cumulative.tolist()
            for i in live.nonzero()[0].tolist():
                visit(s, i, (probabilities[i], cumulatives[i], children,
                             *bounds[i : i + 2]))
        live &= probability > 0.0
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
    return list(zip(qualities, errors))


def run_schedule(config: ProtocolConfig) -> AmplificationReport:
    """Deterministic post-selected pipeline over the configured schedule:
    `run_batch` on the batch of one, raising the point's error; each stage
    record becomes a `StageReport` as the loop hands it over."""
    plan, reports = stage_plan(config), []

    def visit(s: int, _: int, record: tuple) -> None:
        reports.append(_stage_report(s, plan[s], record, config))

    [(row, error)] = run_batch([config], batch_key(config)[-1], visit)
    if error is not None:
        raise error
    quality = None if row is None else QualityReport(*row)
    analytic = relative_gain(config.schedule, config.stages, config.n_atoms)
    gain = float("nan") if quality is None else quality.gain
    return AmplificationReport(
        succeeded=quality is not None,
        stages=reports,
        final_state=reports[-1].state,
        final_gain=gain,
        final_gain_squared=gain**2,
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
    not with `trials`. Every branch evolves, reached or not, so `batch_key`'s
    checks and the guards raise as for `run_batch`, and the success
    probability is its product of stage probabilities, bit for bit.
    Reproducible for a fixed seed.
    """
    if not is_integer(trials) or not 1 <= trials < 2**63:
        raise ConfigError(f"trials must be in [1, 2**63 - 1], got {trials}")
    trunc = batch_key(config)[-1]
    processes = _processes([config], trunc)
    root = weak_coherent_rows(np.array([config.alpha]), trunc.atomic_k_max + 1)
    level, alive = (root, np.ones(1), np.zeros(1, dtype=np.intp)), np.array([trials])
    rng = np.random.default_rng(config.rng_seed)
    survival, first_stage_counts, cumulative = [], [], np.ones(1)
    for kind in stage_plan(config):
        cell, parts = (slice(None), *STAGE_PATTERNS[kind]), []

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
            if not survival:  # the root, the first stage's only branch
                rows = np.column_stack((np.argwhere(drawn[0]), drawn[0][drawn[0] > 0]))
                first_stage_counts.extend(rows.tolist())
            # a copy: a view would keep each chunk's whole outcome array alive
            parts.append(drawn[cell].copy())

        _, _, errors, level, parent, n_c, probability = _stage(processes, level, kind, visit)
        if errors:
            raise errors[0]
        cumulative = cumulative * probability
        alive = np.concatenate(parts)[parent, n_c]
        survival.append(int(alive.sum()))
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
        numeric_success_probability=float(cumulative[0]),
        rng_seed=config.rng_seed,
        stage_survival=survival,
        first_stage_outcomes=first_stage_counts,
    )
