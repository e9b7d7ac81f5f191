"""Per-layer tracing of memamp from outside the package.

The tracer replaces each traced function with a wrapper under the name its
caller looks it up by (the modules import by name, so ``run_schedule`` is
wrapped in ``memamp.cli`` and ``apply_write`` in ``memamp.protocol``). Each
wrapped call records a span: name, start, end, parent span and iteration id.
Spans stay in memory until the run ends. A span's self time is its duration
minus the time its child spans cover, so the self times of one iteration sum
to the duration of its ``cli.main`` span.

Layer names are the package's modules; ``memamp._kernels`` is reported as
``kernels`` because metric names must start with a letter.
"""

from __future__ import annotations

import csv
import functools
import importlib
import math
import statistics
import time
from collections import defaultdict
from pathlib import Path

#: (metric name, layer, module the caller looks the name up in, attribute)
TARGETS = [
    ("cli.main", "cli", "memamp.cli", "main"),
    ("protocol.run_schedule", "protocol", "memamp.cli", "run_schedule"),
    ("protocol.monte_carlo", "protocol", "memamp.cli", "monte_carlo"),
    ("joint.build_joint", "joint", "memamp.protocol", "build_joint"),
    ("joint.apply_write", "joint", "memamp.protocol", "apply_write"),
    ("joint.apply_read", "joint", "memamp.protocol", "apply_read"),
    ("joint.herald", "joint", "memamp.protocol", "herald"),
    ("joint.conditional_on_counts", "joint", "memamp.protocol", "conditional_on_counts"),
    ("joint.outcome_probabilities", "joint", "memamp.protocol", "outcome_probabilities"),
    ("joint.target_joint_state", "joint", "memamp.protocol", "target_joint_state"),
    # the traced density matrix is built only for the quality metrics
    ("joint.joint_density_traced", "metrics", "memamp.protocol", "joint_density_traced"),
    ("metrics.DensityMatrix", "metrics", "memamp.joint", "DensityMatrix"),
    ("metrics.p_mode", "metrics", "memamp.protocol", "metric_p_mode"),
    ("metrics.p_spon", "metrics", "memamp.protocol", "metric_p_spon"),
    ("metrics.p_amp", "metrics", "memamp.protocol", "metric_p_amp"),
    ("oracle.verify_ladder", "oracle", "memamp.cli", "verify_ladder"),
    ("oracle.build_dicke_full", "oracle", "memamp.oracle", "build_dicke_full"),
    ("oracle.apply_collective_full", "oracle", "memamp.oracle", "apply_collective_full"),
    ("oracle.project_to_dicke", "oracle", "memamp.oracle", "project_to_dicke"),
    ("kernels.collective_apply", "kernels", "memamp._kernels", "collective_apply"),
    ("kernels.popcounts", "kernels", "memamp._kernels", "popcounts"),
    # dicke is reported as one aggregate
    ("dicke", "dicke", "memamp.protocol", "weak_coherent_atomic_state"),
    ("dicke", "dicke", "memamp.protocol", "relative_gain"),
    ("dicke", "dicke", "memamp.protocol", "dicke_fidelity"),
    ("dicke", "dicke", "memamp.cli", "relative_gain"),
    ("dicke", "dicke", "memamp.joint", "ladder_coeff"),
    ("dicke", "dicke", "memamp.oracle", "ladder_coeff"),
]

LAYERS = ["cli", "protocol", "joint", "metrics", "oracle", "kernels", "dicke"]
FUNCTIONS = list(dict.fromkeys(name for name, *_ in TARGETS))
#: layers with more than one traced function also report their total self time
TOTALLED = ["protocol", "joint", "metrics", "oracle", "kernels"]


def per_layer_metrics() -> list[dict]:
    """Every metric a traced run reports: name, unit and which way is better."""
    metrics = []
    for fn in FUNCTIONS:
        metrics += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s")]
    metrics += [(f"{layer}.self_s", "s") for layer in TOTALLED]
    metrics += [(f"{layer}.errors", "count") for layer in LAYERS]
    metrics += [
        ("protocol.run_schedule.p50_ms", "ms"),
        ("protocol.run_schedule.p90_ms", "ms"),
        ("protocol.monte_carlo.trials_per_s", "1/s", "higher"),
        ("protocol.monte_carlo.success_ratio", "ratio", "higher"),
        ("joint.computed_mb", "MB"),
        ("kernels.computed_mb", "MB"),
        ("cli.bytes_written", "bytes"),
        ("trace.iteration_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return [
        {"name": m[0], "unit": m[1], "better": m[2] if len(m) > 2 else "lower"}
        for m in metrics
    ]


def _nbytes(value) -> int:
    amps = getattr(value, "amplitudes", value)
    return int(getattr(amps, "nbytes", 0))


class Tracer:
    """Records spans of the wrapped functions between install and uninstall."""

    def __init__(self):
        from memamp.errors import MemampError

        self._error_type = MemampError
        self.spans: list[tuple] = []  # (id, name, start, end, parent, iteration)
        self.iteration = -1
        self.errors: dict[str, int] = defaultdict(int)
        self.computed_bytes: dict[str, int] = defaultdict(int)
        self.mc_trials = 0
        self.mc_successes = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._counted: set[tuple[str, int]] = set()
        self._raised: list[BaseException] = []  # keeps counted ids unique
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, layer, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue  # a layer removed from the package reads as zero
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, layer))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, layer: str):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except self._error_type as exc:
                self._count_error(layer, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.iteration))
            self._observe(name, args, result)
            return result

        # updated=() because fn may be a class (DensityMatrix)
        return functools.update_wrapper(traced, fn, updated=())

    def _count_error(self, layer: str, exc: BaseException) -> None:
        # an exception crossing several wrapped calls of one layer counts once
        key = (layer, id(exc))
        if key not in self._counted:
            self._counted.add(key)
            self._raised.append(exc)
            self.errors[layer] += 1

    def _observe(self, name: str, args: tuple, result) -> None:
        if name in ("joint.apply_write", "joint.apply_read"):
            self.computed_bytes["joint"] += _nbytes(args[0]) + _nbytes(result)
        elif name == "kernels.collective_apply":
            self.computed_bytes["kernels"] += _nbytes(args[0]) + _nbytes(result)
        elif name == "protocol.monte_carlo":
            self.mc_trials += result.trials
            self.mc_successes += result.successes

    def self_times(self) -> list[tuple[tuple, float]]:
        """Each span with its self time."""
        covered: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [(span, span[3] - span[2] - covered[span[0]]) for span in self.spans]

    def summary(self, iterations: int) -> dict[str, float]:
        """Per-iteration means of the span counts and self times."""
        names = {name: layer for name, layer, *_ in TARGETS}
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        layer_s: dict[str, float] = defaultdict(float)
        schedule_ms = []
        mc_seconds = 0.0
        for span, own in self.self_times():
            name = span[1]
            calls[name] += 1
            self_s[name] += own
            layer_s[names[name]] += own
            if name == "protocol.run_schedule":
                schedule_ms.append((span[3] - span[2]) * 1e3)
            elif name == "protocol.monte_carlo":
                mc_seconds += span[3] - span[2]
        out: dict[str, float] = {}
        for fn in FUNCTIONS:
            out[f"{fn}.calls"] = calls[fn] / iterations
            out[f"{fn}.self_s"] = self_s[fn] / iterations
        for layer in TOTALLED:
            out[f"{layer}.self_s"] = layer_s[layer] / iterations
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer] / iterations
        ranked = sorted(schedule_ms) or [0.0]
        out["protocol.run_schedule.p50_ms"] = statistics.median(ranked)
        out["protocol.run_schedule.p90_ms"] = ranked[math.ceil(0.9 * len(ranked)) - 1]
        out["protocol.monte_carlo.trials_per_s"] = (
            self.mc_trials / mc_seconds if mc_seconds else 0.0
        )
        out["protocol.monte_carlo.success_ratio"] = (
            self.mc_successes / self.mc_trials if self.mc_trials else 0.0
        )
        out["joint.computed_mb"] = self.computed_bytes["joint"] / 1e6 / iterations
        out["kernels.computed_mb"] = self.computed_bytes["kernels"] / 1e6 / iterations
        return out

    def write_spans(self, path: Path) -> None:
        """All spans as CSV, with self time; written once, after the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["id", "name", "start", "end", "parent", "iteration", "self_s"])
            for span, own in self.self_times():
                writer.writerow([*span, own])
