"""Design and simulation toolkit for actively controlled sound absorbers.

A current-driven loudspeaker in a sealed box is shaped, via two discrete
control filters acting on the front and cavity pressures, into a surface
presenting a prescribed acoustic impedance.  The package covers the whole
workflow: lumped plant modeling, controller synthesis and stability
analysis, robustness studies, parameter identification, a virtual
two-microphone impedance tube, and an exact sampled model of the closed
loop of the discrete realization.
"""

from .analysis import (
    MonteCarloConfig,
    QuartileBand,
    SensitivityTriple,
    absorption_coefficient,
    achieved_impedance,
    default_frequency_grid,
    monte_carlo_absorption,
    reflection_coefficient,
    sensitivities,
)
from .dsp import (
    LoopConfig,
    SosCascade,
    bilinear_discretize,
    closed_loop_sim,
    measure_impedance,
    sos_partition,
)
from .errors import (
    DiscretizationError,
    DivergenceError,
    EabsorbError,
    IdentificationError,
    InvalidParameterError,
    SingularDesignError,
    SynthesisError,
)
from .identify import (
    MeasuredSpectrum,
    ProbeGain,
    default_probe_gains,
    estimate_box_compliance,
    estimate_force_factor,
    fit_passive_params,
    identify_model,
    passive_spectrum,
    probe_front_spectrum,
    probe_rear_spectrum,
)
from .model import (
    AirProperties,
    CurrentSourceDesign,
    DEFAULT_AIR,
    DriverModel,
    RawDriverParams,
    REFERENCE_CURRENT_SOURCE,
    current_source_gains,
    derive_specific_model,
    opamp_current,
    passive_impedance,
    table_reference_model,
)
from .rational import RationalTransfer
from .synthesis import (
    ControllerPair,
    FeedbackSpec,
    Resonator,
    StabilityReport,
    TargetSpec,
    check_transfer_admissibility,
    feedback_filter,
    hurwitz_cubic_stable,
    stability_report,
    synthesize_controller,
    target_impedance,
)
from .vkundt import (
    REFERENCE_GEOMETRY,
    ReflectionResult,
    TwoMicMeasurement,
    WaveguideGeometry,
    add_measurement_noise,
    conditioning_report,
    recover_reflection,
    simulate_two_mic,
)

__version__ = "0.1.0"

# the public surface: every name imported above, module by module
__all__ = [
    "MonteCarloConfig", "QuartileBand", "SensitivityTriple",
    "absorption_coefficient", "achieved_impedance", "default_frequency_grid",
    "monte_carlo_absorption", "reflection_coefficient", "sensitivities",
    "LoopConfig", "SosCascade", "bilinear_discretize", "closed_loop_sim",
    "measure_impedance", "sos_partition",
    "DiscretizationError", "DivergenceError", "EabsorbError", "IdentificationError",
    "InvalidParameterError", "SingularDesignError", "SynthesisError",
    "MeasuredSpectrum", "ProbeGain", "default_probe_gains", "estimate_box_compliance",
    "estimate_force_factor", "fit_passive_params", "identify_model", "passive_spectrum",
    "probe_front_spectrum", "probe_rear_spectrum",
    "AirProperties", "CurrentSourceDesign", "DEFAULT_AIR", "DriverModel", "RawDriverParams",
    "REFERENCE_CURRENT_SOURCE", "current_source_gains", "derive_specific_model",
    "opamp_current", "passive_impedance", "table_reference_model",
    "RationalTransfer",
    "ControllerPair", "FeedbackSpec", "Resonator", "StabilityReport", "TargetSpec",
    "check_transfer_admissibility", "feedback_filter",
    "hurwitz_cubic_stable", "stability_report", "synthesize_controller", "target_impedance",
    "REFERENCE_GEOMETRY", "ReflectionResult", "TwoMicMeasurement", "WaveguideGeometry",
    "add_measurement_noise", "conditioning_report", "recover_reflection", "simulate_two_mic",
]
