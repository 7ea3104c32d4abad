"""Event-weighted score tests for periodicity in photon arrival times."""

from .auxmodel import (
    AuxDensityPair,
    DiskGeometry,
    FlatSpectrum,
    GaussianPsfAngle,
    PowerLawSpectrum,
    UniformDiscAngle,
    WeightFunction,
    WeightMoments,
    correlation_efficiency,
    cut_weight_fn,
    optimal_efficiency,
    optimal_no_spectrum_fn,
    optimal_weight,
    optimal_weight_fn,
    psf_gaussian_weight,
    psf_gaussian_weight_fn,
    unit_weight,
    weight_efficiency,
    weight_moments,
)
from .detector import (
    DetectionResult,
    detect,
    estimate_theta,
    fourier_coefficients,
    p_value,
    qt_statistic,
    score_at_tau,
    weighted_chi2_sf,
)
from .eventio import read_events, write_events
from .lightcurve import (
    HarmonicTemplate,
    LightCurveProfile,
    PhaseModel,
    estimate_profile_coeffs,
    eval_profile,
    phase_of,
    template_efficiency,
)
from .power import (
    PowerPrediction,
    mismatch_factor,
    null_moments,
    predicted_snr,
    threshold_theta,
)
from .scan import ScanResult, ScanSpec, scan
from .simulator import EventList, RateModel, expected_count, simulate

__version__ = "0.1.0"
