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

from .dicke import (
    DickeVector,
    Schedule,
    relative_gain,
    weak_coherent_atomic_state,
)
from .dicke import fidelity as dicke_fidelity
from .errors import ConfigError
from .joint import (
    TRUNCATION_FIELDS,
    ZERO_PROB_FLOOR,
    EvolutionOrder,
    HeraldPattern,
    JointState,
    ModeTruncation,
    apply_read,
    apply_write,
    build_joint,
    conditional_on_counts,
    herald,
    is_integer,
    is_real,
    outcome_probabilities,
)
from .metrics import QualityReport
from .metrics import p_amp as metric_p_amp
from .metrics import p_mode as metric_p_mode
from .metrics import p_spon as metric_p_spon


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
            object.__setattr__(self, key, float(value))
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Complex):
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
        alpha = complex(self.alpha)
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
    """Outcome of one heralded stage of the pipeline."""

    stage_index: int
    kind: StageKind
    pattern: HeraldPattern
    probability: float
    cumulative_probability: float
    state: DickeVector | None
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
    final_state: DickeVector | None
    final_gain: float
    analytic_gain: float
    discrepancy: float
    success_probability: float
    quality: QualityReport | None
    failure_reason: str | None = None

    def to_dict(self) -> dict:
        final_amps = None
        if self.final_state is not None:
            final_amps = [
                [c.real, c.imag] for c in self.final_state.amplitudes.tolist()
            ]
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


def _gain_of(state: DickeVector | None, alpha: complex) -> float:
    if state is None or alpha == 0 or state.amplitudes.size < 2:
        return float("nan")
    c0 = state.amplitudes[0]
    if c0 == 0:
        return float("nan")
    # c0 * alpha stays near 1 where c0 alone is tiny (|alpha| near overflow);
    # Python's complex division, unlike NumPy's, stays finite for subnormals
    return (complex(state.amplitudes[1]) / complex(c0 * alpha)).real


def _evolve_stage(
    state: DickeVector, config: ProtocolConfig, kind: StageKind
) -> JointState:
    """Fresh-vacuum embedding followed by the stage's process(es)."""
    trunc = config.truncation.resolve(config.n_atoms)
    jt = build_joint(state if state.normalized else state.normalize(), trunc)
    if kind in (StageKind.WRITE_THEN_READ, StageKind.WRITE_ONLY):
        jt = apply_write(jt, config.p_w, config.beta_w, config.order)
    if kind in (StageKind.WRITE_THEN_READ, StageKind.READ_ONLY):
        jt = apply_read(jt, config.p_r, config.beta_r, config.order)
    return jt


def _run_stage(
    state: DickeVector,
    config: ProtocolConfig,
    kind: StageKind,
    stage_index: int,
    cumulative_in: float,
) -> tuple[StageReport, JointState]:
    """One evolved and heralded stage, with the joint state it heralded."""
    jt = _evolve_stage(state, config, kind)
    pattern = STAGE_PATTERNS[kind]
    conditional, raw = herald(jt, pattern)
    if raw == 0.0:
        report = StageReport(
            stage_index=stage_index,
            kind=kind,
            pattern=pattern,
            probability=0.0,
            cumulative_probability=0.0,
            state=None,
            gain_so_far=float("nan"),
            failed=True,
        )
        return report, jt
    probability = raw / jt.total_probability()
    report = StageReport(
        stage_index=stage_index,
        kind=kind,
        pattern=pattern,
        probability=probability,
        cumulative_probability=cumulative_in * probability,
        state=conditional,
        gain_so_far=_gain_of(conditional, config.alpha),
    )
    return report, jt


def run_stage(
    state: DickeVector,
    config: ProtocolConfig,
    kind: StageKind,
    *,
    stage_index: int = 0,
    cumulative_in: float = 1.0,
) -> StageReport:
    """Evolve one stage and herald its pattern.

    A zero-probability herald is reported as a failed stage, not raised.
    Exact evolution with beta < 1 can leave the conditional state mixed;
    that case raises MixedConditionalError (use first-order evolution, or
    the density-matrix route, or `monte_carlo` which resolves the undetected
    mode).
    """
    return _run_stage(state, config, kind, stage_index, cumulative_in)[0]


def _target_gain(config: ProtocolConfig) -> float:
    if config.gain_convention is GainConvention.EXACT:
        return relative_gain(config.schedule, config.stages, config.n_atoms)
    if config.schedule is Schedule.TYPE_I:
        return float(2.0**config.stages)
    return float(config.stages + 1)


def _quality_report(
    config: ProtocolConfig,
    final_joint: JointState,
    final_state: DickeVector,
    final_pattern: HeraldPattern,
    cumulative: float,
) -> QualityReport:
    target_atomic = weak_coherent_atomic_state(
        _target_gain(config) * config.alpha, config.n_atoms
    )
    return QualityReport.build(
        p_suc=cumulative,
        p_mode_value=metric_p_mode(final_joint, target_atomic, final_pattern),
        p_spon_value=metric_p_spon(final_joint, target_atomic, final_pattern),
        p_amp_value=metric_p_amp(final_joint, target_atomic),
        gain=_gain_of(final_state, config.alpha),
        fidelity=dicke_fidelity(final_state, target_atomic),
    )


def _check_headroom(config: ProtocolConfig) -> None:
    trunc = config.truncation.resolve(config.n_atoms)
    needed = config.stages + 1 if config.schedule is Schedule.TYPE_II else 2
    needed = min(needed, config.n_atoms)
    assert trunc.atomic_k_max is not None
    if trunc.atomic_k_max < needed:
        raise ConfigError(
            f"atomic_k_max = {trunc.atomic_k_max} below the schedule's "
            f"excitation reach {needed}; enlarge the truncation"
        )


def run_schedule(config: ProtocolConfig) -> AmplificationReport:
    """Deterministic post-selected pipeline over the configured schedule."""
    _check_headroom(config)
    plan = stage_plan(config)
    state = weak_coherent_atomic_state(config.alpha, config.n_atoms)
    analytic = relative_gain(config.schedule, config.stages, config.n_atoms)
    reports: list[StageReport] = []
    cumulative = 1.0
    last_joint: JointState | None = None
    for index, kind in enumerate(plan):
        report, last_joint = _run_stage(state, config, kind, index, cumulative)
        reports.append(report)
        if report.failed:
            return AmplificationReport(
                succeeded=False,
                stage_reports=reports,
                final_state=None,
                final_gain=float("nan"),
                analytic_gain=analytic,
                discrepancy=float("nan"),
                success_probability=0.0,
                quality=None,
                failure_reason=f"zero-probability herald at stage {index}",
            )
        assert report.state is not None
        state = report.state
        cumulative = report.cumulative_probability
    assert last_joint is not None
    final_gain = _gain_of(state, config.alpha)
    quality = _quality_report(
        config, last_joint, state, STAGE_PATTERNS[plan[-1]], cumulative
    )
    return AmplificationReport(
        succeeded=True,
        stage_reports=reports,
        final_state=state,
        final_gain=final_gain,
        analytic_gain=analytic,
        discrepancy=abs(final_gain - analytic),
        success_probability=cumulative,
        quality=quality,
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
    """Lazily evolved tree of post-herald states, keyed by the undetected-mode
    counts observed at each successful stage (the success branch is unique up
    to that record)."""

    def __init__(self, config: ProtocolConfig):
        self.config = config
        self.plan = stage_plan(config)
        self.nodes: dict[tuple[int, ...], tuple[JointState, np.ndarray]] = {}

    def state_at(self, path: tuple[int, ...]) -> DickeVector:
        """Atomic state entering stage len(path), after the heralds on path."""
        if not path:
            return weak_coherent_atomic_state(self.config.alpha, self.config.n_atoms)
        joint, _ = self.node(path[:-1])
        pattern = STAGE_PATTERNS[self.plan[len(path) - 1]]
        state, _ = conditional_on_counts(
            joint, pattern.detect_a, pattern.detect_b, path[-1]
        )
        return state

    def node(self, path: tuple[int, ...]) -> tuple[JointState, np.ndarray]:
        """Evolved stage at path and its (n_a, n_b, n_c) distribution; outcomes at
        or below ZERO_PROB_FLOOR are 0: `conditional_on_counts` has no state there."""
        if path not in self.nodes:
            state = self.state_at(path)
            joint = _evolve_stage(state, self.config, self.plan[len(path)])
            weights = outcome_probabilities(joint)
            weights[weights <= ZERO_PROB_FLOOR] = 0.0
            self.nodes[path] = (joint, weights / joint.total_probability())
        return self.nodes[path]

    def success_probability(self, path: tuple[int, ...] = ()) -> float:
        """Total probability of completing every remaining herald."""
        if len(path) == len(self.plan):
            return 1.0
        pattern = STAGE_PATTERNS[self.plan[len(path)]]
        hits = self.node(path)[1][pattern.detect_a, pattern.detect_b]
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
            probs = tree.node(path)[1]
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
            gain_sum += count * _gain_of(tree.state_at(path), config.alpha)
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
