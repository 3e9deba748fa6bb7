"""Single-atom transit simulation and trajectory reconstruction for a tilted
TEM10 cavity mode: forward transmission model, photon-counting simulator,
Poisson maximum-likelihood fitter and time-of-flight thermometry."""

from .config import CESIUM_MASS_KG, ConfigError, RunConfig
from .detector import DetectorConfig, TransitTrace, expected_trace, sample_counts
from .kinematics import (
    EnsembleRecord,
    FallConfig,
    Trajectory,
    arrival_from_initial,
    sample_ensemble,
    x_at,
)
from .modes import (
    LabPoint,
    ModeGeometry,
    ModeIndex,
    ModePoint,
    UnsupportedOrderError,
    effective_coupling,
    hermite,
    lab_to_mode,
    mode_amplitude,
    normalization_constant,
    relative_amplitude,
)
from .reconstruct import (
    DegeneracyReport,
    FitParams,
    FitResult,
    NoTransitError,
    degeneracy_scan,
    fit_transit,
    log_likelihood,
    x_resolution,
)
from .thermometry import TemperatureEstimate, estimate_temperature, v_shape_curve
from .transmission import (
    Detunings,
    Rates,
    SingularParameterError,
    SystemConfig,
    detuning_scan,
    local_maxima,
    local_minima,
    position_scan,
    transmission_at,
    transmission_vs_coupling,
)

__version__ = "0.1.0"
