"""Three-qubit quantum thermal transistor in common thermal environments.

Steady states of the global master equation, heat currents, amplification
factors, dark-state heat modulation and the parameter sweeps behind them.
The independent references these numbers are tested against live in
qtransistor.oracles, which importing the package does not load.
"""

from .channels import DissipationChannel, channels_analytic
from .dynamics import (
    DegenerateControlError,
    DriveSpec,
    OverdeterminedError,
    SteadyStateError,
    UnderdeterminedError,
    apply_drive,
    bose_occupation,
    rate_matrix,
    steady_state,
)
from .experiments import (
    ConfigError,
    DarkStateError,
    LambdaScan,
    ModulationReport,
    PopulationCurves,
    SweepResult,
    SweepSpec,
    optimize_lambda,
    run_modulation,
    run_populations,
    run_sweep,
    write_sweep_csv,
)
from .model import (
    EigenSystem,
    MixingAngles,
    ParameterError,
    SecularReport,
    SystemParams,
    analytic_eigensystem,
    build_hamiltonian,
    mixing_angle,
    validate_secular,
)
from .observables import (
    AmplificationResult,
    HeatCurrentTriple,
    amplification_factor,
    heat_currents,
)

__version__ = "0.1.0"

__all__ = [
    "AmplificationResult",
    "ConfigError",
    "DarkStateError",
    "DegenerateControlError",
    "DissipationChannel",
    "DriveSpec",
    "EigenSystem",
    "HeatCurrentTriple",
    "LambdaScan",
    "MixingAngles",
    "ModulationReport",
    "OverdeterminedError",
    "ParameterError",
    "PopulationCurves",
    "SecularReport",
    "SteadyStateError",
    "SweepResult",
    "SweepSpec",
    "SystemParams",
    "UnderdeterminedError",
    "amplification_factor",
    "analytic_eigensystem",
    "apply_drive",
    "bose_occupation",
    "build_hamiltonian",
    "channels_analytic",
    "heat_currents",
    "mixing_angle",
    "optimize_lambda",
    "rate_matrix",
    "run_modulation",
    "run_populations",
    "run_sweep",
    "steady_state",
    "validate_secular",
    "write_sweep_csv",
]
