"""End-to-end amplification schedules and Monte Carlo sampling of heralds.

A stage embeds the current atomic state into fresh photon vacuum, runs the
write and/or read process, and conditions on the stage's photon pattern:
(1,1) for a combined write-read round, (1,0) for a write-only round, (0,1)
for a read-only round. Type-I repeats combined rounds; type-II performs all
write rounds first, then all read rounds. The deterministic pipeline always
takes the success branch; `monte_carlo` samples the full outcome
distribution instead, terminating a trajectory on the first failed herald.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .dicke import Schedule, relative_gain, weak_coherent_rows
from .errors import ConfigError, MemampError
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
from .metrics import (
    QualityReport,
    norm,
    row_norms,
    row_sums,
    sector_norms,
)


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
        for key in ("p_w", "p_r", "beta_w", "beta_r"):
            value = getattr(self, key)
            if not is_real(value):
                raise ConfigError(f"{key}: expected a number, got {value!r}")
            object.__setattr__(self, key, to_number(key, float, value))
        alpha = self.alpha  # the exact type first: an ABC isinstance check is slow
        if type(alpha) not in (complex, float, int) and (
            isinstance(alpha, bool) or not isinstance(alpha, numbers.Complex)
        ):
            raise ConfigError(f"alpha: expected a number, got {self.alpha!r}")
        if not is_integer(self.n_atoms) or self.n_atoms < 1:
            raise ConfigError(f"n_atoms must be a positive integer, got {self.n_atoms}")
        if not is_integer(self.stages) or self.stages < 1:
            raise ConfigError(f"stages must be a positive integer, got {self.stages}")
        if self.stages + 1 > self.n_atoms:
            raise ConfigError(
                f"stages+1 = {self.stages + 1} exceeds n_atoms = {self.n_atoms} "
                "(excitation headroom)"
            )
        for key in ("p_w", "p_r"):
            value = getattr(self, key)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{key} must be in [0, 1], got {value}")
        for key in ("beta_w", "beta_r"):
            value = getattr(self, key)
            if not 0.0 < value <= 1.0:
                raise ConfigError(f"{key} must be in (0, 1], got {value}")
        alpha = to_number("alpha", complex, self.alpha)
        if not np.isfinite(alpha):
            raise ConfigError(f"alpha must be finite, got {self.alpha}")
        object.__setattr__(self, "alpha", alpha)
        if not is_integer(self.rng_seed) or not 0 <= self.rng_seed < 2**64:
            raise ConfigError(f"rng_seed must be a u64, got {self.rng_seed}")
        if not isinstance(self.truncation, ModeTruncation):
            raise ConfigError("truncation must be a ModeTruncation")
        if min(self.beta_w, self.beta_r) < 1.0 and self.truncation.fock_c_max == 0:
            raise ConfigError("beta_w or beta_r < 1 needs a loss mode (fock_c_max >= 1)")
        try:
            target = _target_gain(self) * alpha
        except OverflowError as exc:
            raise ConfigError(f"the target gain overflows: {exc}") from exc
        if not np.isfinite(target):
            raise ConfigError(
                f"alpha = {alpha}: the target amplitude gain*alpha is not finite"
            )

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
    heralded atomic state, a read-only array over k, or None if it failed."""

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


def _gain_of(amps: np.ndarray | None, alpha: complex) -> float:
    if amps is None or alpha == 0 or amps.size < 2:
        return float("nan")
    c0 = amps[0]
    if c0 == 0:
        return float("nan")
    # c0 * alpha stays near 1 where c0 alone is tiny (|alpha| near overflow);
    # Python's complex division, unlike NumPy's, stays finite for subnormals
    return (complex(amps[1]) / complex(c0 * alpha)).real


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


class _Points:
    """The live rows of a batch on the truncation they evolve on: their write
    and read processes and, in the stage loop, their positions and cumulative
    success probabilities."""

    __slots__ = ("truncation", "write", "read", "index", "cumulative")

    def __init__(self, configs: list[ProtocolConfig], truncation: ModeTruncation):
        self.truncation = truncation
        n_atoms = np.array([c.n_atoms for c in configs], dtype=float)
        self.write, self.read = [
            Process(name, self.truncation, configs[0].order, n_atoms,
                    np.array([getattr(c, p) for c in configs]),
                    np.array([getattr(c, beta) for c in configs]))
            for name, p, beta in [("write", "p_w", "beta_w"), ("read", "p_r", "beta_r")]
        ]

    def keep(self, mask: np.ndarray) -> None:
        if not mask.all():
            self.write, self.read = self.write.rows(mask), self.read.rows(mask)
            self.index, self.cumulative = self.index[mask], self.cumulative[mask]

    def evolve(self, atomic: np.ndarray, kind: StageKind, errors: dict) -> np.ndarray:
        """Atomic states (B, k) in fresh photon vacuum, through the stage's
        process(es); each input tensor is freed as its process returns."""
        psi = np.zeros((len(atomic),) + self.truncation.shape(), dtype=np.complex128)
        psi[:, :, 0, 0, 0] = atomic
        if kind is not StageKind.READ_ONLY:
            psi = apply_process(psi, self.write, errors)
        if kind is not StageKind.WRITE_ONLY:
            psi = apply_process(psi, self.read, errors)
        return psi


def _stage_report(
    index: int, kind: StageKind, record: tuple, config: ProtocolConfig
) -> StageReport:
    """A `run_batch` stage record as a report, holding a read-only copy of the
    heralded amplitudes; no amplitudes is a failed herald."""
    probability, cumulative, amps = record
    if amps is not None:
        amps = amps.copy()
        amps.flags.writeable = False
    return StageReport(index, kind, STAGE_PATTERNS[kind], probability, cumulative,
                       amps, _gain_of(amps, config.alpha), failed=amps is None)


def _target_gain(config: ProtocolConfig) -> float:
    if config.gain_convention is GainConvention.EXACT:
        return relative_gain(config.schedule, config.stages, config.n_atoms)
    if config.schedule is Schedule.TYPE_I:
        return float(2.0**config.stages)
    return float(config.stages + 1)


def _check_headroom(config: ProtocolConfig, k_max: int) -> None:
    needed = config.stages + 1 if config.schedule is Schedule.TYPE_II else 2
    if k_max < needed:
        raise ConfigError(
            f"atomic_k_max = {k_max} below the schedule's "
            f"excitation reach {needed}; enlarge the truncation"
        )


def run_batch(
    configs: list[ProtocolConfig], truncation: ModeTruncation
) -> list[tuple]:
    """The stage loop: embed, evolve, herald and score points of one
    `batch_key` as the rows of one (B, k, n_a, n_b, n_c) tensor on
    ``truncation``, the key's last entry. The caller groups the points by key;
    they are not counted again here. Reductions stay within a row, so no row's
    values depend on the others. A row that raises keeps the error and leaves
    the batch, as does a failed herald. Returns per point (stage records,
    final amplitudes, QualityReport, error), a stage record being
    (probability, cumulative probability, heralded amplitudes or None for a
    zero-probability herald)."""
    count = len(configs)
    stages: list[list[tuple]] = [[] for _ in range(count)]
    finals: list[np.ndarray | None] = [None] * count
    qualities: list[QualityReport | None] = [None] * count
    errors: list[Exception | None] = [None] * count
    for i, config in enumerate(configs):
        try:
            _check_headroom(config, truncation.atomic_k_max)
        except ConfigError as exc:
            errors[i] = exc
    points = _Points(configs, truncation)
    points.index, points.cumulative = np.arange(count), np.ones(count)
    k_dim = points.truncation.atomic_k_max + 1
    alphas = np.array([c.alpha for c in configs])
    states = weak_coherent_rows(alphas, k_dim)
    live = np.array([error is None for error in errors])
    for kind in stage_plan(configs[0]):
        points.keep(live)
        states = states[live]
        stage_errors: dict[int, Exception] = {}
        psi = None  # only the last stage's tensor is scored: free the previous one
        psi = points.evolve(states, kind, stage_errors)
        states, raw = herald_rows(psi, STAGE_PATTERNS[kind], stage_errors)
        totals = row_norms(psi)
        probability = raw / totals
        points.cumulative = points.cumulative * probability
        live = probability > 0.0
        cumulative = points.cumulative.tolist()
        for pos, (i, p) in enumerate(zip(points.index.tolist(), probability.tolist())):
            if pos in stage_errors:
                errors[i], live[pos] = stage_errors[pos], False
            else:
                stages[i].append((p, cumulative[pos], states[pos] if p else None))
    # score the rows that heralded every stage
    points.keep(live)
    psi, states, index = psi[live], states[live], points.index.tolist()
    counts = STAGE_PATTERNS[kind].detect_a, STAGE_PATTERNS[kind].detect_b
    targets = np.array([_target_gain(configs[i]) * configs[i].alpha for i in index])
    targets = weak_coherent_rows(targets, k_dim)
    # the last herald's sector and total norms are those of the scored rows
    norms = np.stack([raw[live], *sector_norms(psi, targets, *counts), totals[live]])
    overlap = np.abs((states.conj() * targets).sum(axis=1)) ** 2
    fidelity = overlap / (row_norms(states) * row_norms(targets))
    for pos, (i, p_suc, fid, row) in enumerate(
        zip(index, points.cumulative.tolist(), fidelity.tolist(), norms.T.tolist())
    ):
        try:
            qualities[i] = QualityReport.from_norms(
                p_suc, row, counts, _gain_of(states[pos], configs[i].alpha), fid
            )
            finals[i] = states[pos]
        except (MemampError, ValueError) as exc:
            errors[i] = exc
    return list(zip(stages, finals, qualities, errors))


def run_schedule(config: ProtocolConfig) -> AmplificationReport:
    """Deterministic post-selected pipeline over the configured schedule:
    `run_batch` on the batch of one, raising the point's error."""
    stages, _, quality, error = run_batch([config], batch_key(config)[-1])[0]
    if error is not None:
        raise error
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


class _TrajectoryTree:
    """Post-herald states keyed by the undetected-mode counts observed at each
    successful stage (the success branch is unique up to that record), built
    one stage at a time: a level's nodes are evolved in batches of
    `batch_rows`, as `run_batch` evolves points, on the config's evolved
    truncation. ``states`` maps a path to the atomic state entering stage
    len(path), ``outcomes`` a node's path to its stage's (n_a, n_b, n_c)
    distribution over the evolved photon axes, 0 at or below ZERO_PROB_FLOOR.
    A truncation below the schedule's excitation reach is a ConfigError, as in
    `run_batch`; the first node in level order that trips a guard raises."""

    def __init__(self, config: ProtocolConfig):
        self.plan = stage_plan(config)
        self.truncation = trunc = batch_key(config)[-1]
        _check_headroom(config, trunc.atomic_k_max)
        root = weak_coherent_rows(np.array([config.alpha]), trunc.atomic_k_max + 1)
        self.states = {(): root[0]}
        self.outcomes: dict[tuple[int, ...], np.ndarray] = {}
        paths, size = [()], batch_rows(trunc)
        for kind in self.plan:  # a level with no node ends the tree
            chunks = [paths[i : i + size] for i in range(0, len(paths), size)]
            paths = [c for chunk in chunks for c in self._grow(config, kind, chunk)]

    def _grow(self, config: ProtocolConfig, kind: StageKind, paths: list) -> list:
        """Evolve the nodes at ``paths`` through a ``kind`` stage as one batch,
        keep their outcome distributions and their children's states, and
        return the children: the nonzero columns of each success slice."""
        errors: dict[int, Exception] = {}
        states = np.array([self.states[path] for path in paths])
        points = _Points([config] * len(paths), self.truncation)
        psi = points.evolve(states, kind, errors)
        if errors:
            raise errors[min(errors)]
        sq = np.abs(psi) ** 2
        probs = sq.sum(axis=1)
        probs[probs <= ZERO_PROB_FLOOR] = 0.0
        probs /= row_sums(sq)[:, None, None, None]
        self.outcomes.update(zip(paths, probs))
        n_a, n_b = STAGE_PATTERNS[kind].detect_a, STAGE_PATTERNS[kind].detect_b
        rows, n_c = probs[:, n_a, n_b].nonzero()
        children = [paths[r] + (c,) for r, c in zip(rows.tolist(), n_c.tolist())]
        for child, column in zip(children, psi[rows, :, n_a, n_b, n_c]):
            self.states[child] = column / norm(column)
        return children

    def success_probability(self, path: tuple[int, ...] = ()) -> float:
        """Total probability of completing every remaining herald."""
        if len(path) == len(self.plan):
            return 1.0
        pattern = STAGE_PATTERNS[self.plan[len(path)]]
        hits = self.outcomes[path][pattern.detect_a, pattern.detect_b]
        total = 0.0
        for n_c in np.flatnonzero(hits):
            total += float(hits[n_c]) * self.success_probability(path + (int(n_c),))
        return total


def monte_carlo(config: ProtocolConfig, trials: int) -> MCReport:
    """Sample heralding trajectories; failures terminate a trajectory.

    Photon counts are drawn per stage from the full (n_a, n_b, n_c) outcome
    distribution, so the undetected mode is resolved and every surviving
    trajectory carries a pure state. One multinomial draw per tree node splits
    the trials that reach it over its outcomes (the conditional-binomial method),
    so time and memory grow with the tree, not with `trials`. Reproducible for a
    fixed config seed.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    tree = _TrajectoryTree(config)
    rng = np.random.default_rng(config.rng_seed)
    alive: dict[tuple[int, ...], int] = {(): trials}
    survival: list[int] = []
    first_stage_counts: list[list[int]] = []
    for stage_index, kind in enumerate(tree.plan):
        pattern = STAGE_PATTERNS[kind]
        next_alive: dict[tuple[int, ...], int] = {}
        for path, count in alive.items():
            probs = tree.outcomes[path]
            # over the support only: multinomial puts its rounding remainder last
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
    if successes > 0:
        gain_sum = 0.0
        for path, count in alive.items():
            gain_sum += count * _gain_of(tree.states[path], config.alpha)
        mean_gain = gain_sum / successes
    else:
        mean_gain = float("nan")
    ci_low, ci_high = _wilson_interval(successes, trials)
    return MCReport(
        trials=trials,
        successes=successes,
        success_frequency=successes / trials,
        ci_low=ci_low,
        ci_high=ci_high,
        mean_gain=mean_gain,
        numeric_success_probability=tree.success_probability(),
        rng_seed=config.rng_seed,
        stage_survival=survival,
        first_stage_outcomes=first_stage_counts,
    )
