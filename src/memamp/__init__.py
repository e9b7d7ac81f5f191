"""memamp: heralded amplification of weak coherent states stored in atom ensembles.

Simulates the write/read Raman processes that amplify a stored collective
excitation upon photon detection, with closed-form gain formulas, a
brute-force full-Hilbert-space oracle, amplifier quality metrics, multi-stage
schedules, and Monte Carlo sampling of heralding outcomes.
"""

from .dicke import LadderDirection, Schedule, ladder_coeff, relative_gain
from .joint import EvolutionOrder, HeraldPattern, ModeTruncation
from .metrics import QualityReport
from .oracle import project_to_dicke, verify_ladder
from .protocol import (
    AmplificationReport,
    GainConvention,
    MCReport,
    ProtocolConfig,
    StageKind,
    StageReport,
    monte_carlo,
    run_schedule,
)

__version__ = "0.1.0"

#: The oracle's bitmask kernels are NumPy; there is no compiled backend.
KERNEL_BACKEND = "numpy"

__all__ = [
    "AmplificationReport",
    "EvolutionOrder",
    "GainConvention",
    "HeraldPattern",
    "KERNEL_BACKEND",
    "LadderDirection",
    "MCReport",
    "ModeTruncation",
    "ProtocolConfig",
    "QualityReport",
    "Schedule",
    "StageKind",
    "StageReport",
    "ladder_coeff",
    "monte_carlo",
    "project_to_dicke",
    "relative_gain",
    "run_schedule",
    "verify_ladder",
]
