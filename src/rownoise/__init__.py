"""Supply-induced row noise: simulation, measurement, mitigation."""

from .physics import UNIFORM, AliasResult, alias_and_band_height, line_frequency
from .sensor import (
    Frame,
    PhaseMode,
    SensorConfig,
    SimScenario,
    SpatialNoiseConfig,
    SupplyNoiseConfig,
    TemporalNoiseConfig,
    simulate_frame,
    simulate_stack,
)
from .metric import (
    RowNoiseResult,
    band_height_measure,
    row_means,
    row_noise,
    row_noise_single,
)
from .imageio import read_image, write_image
from .sweep import (
    Absolute,
    BaselineSigma,
    CaptureSource,
    CharacterizationReport,
    SimulateSource,
    SweepConfig,
    SweepResult,
    analyze_report,
    run_sweep,
)
from .mitigation import (
    TuningMode,
    TuningRecommendation,
    dark_reference_correct,
    lowpass_offset_suppress,
    predict_filter_effect,
    recommend_tuning,
)

__version__ = "0.1.0"
