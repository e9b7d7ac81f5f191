"""Reference code that only the tests use, built from the package's stage
primitives."""

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
