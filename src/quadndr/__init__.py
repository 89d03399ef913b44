"""Neural dead reckoning for quadrotors flying periodic trajectories."""

__version__ = "0.1.0"

from .ins import (
    DEFAULT_GRAVITY,
    GRAVITY,
    ImuSeries,
    NavState,
    dcm_to_yaw,
    euler_to_dcm,
    mechanize_series,
)
from .simulate import (
    GroundTruthSeries,
    ImuErrorModel,
    TrajectoryProfile,
    corrupt_imu,
    generate_periodic_trajectory,
    initial_nav_state,
    inverse_mechanize,
)
from .windows import NormStats, SampleSet, WindowSpec, normalize, window_series
from .network import (
    AdamState,
    NetConfig,
    TrainConfig,
    adam_step,
    init_params,
    load_model,
    mse_loss,
    save_model,
    train,
)
from .deadreckon import (
    EvalReport,
    improvement_pct,
    integrate_deltas,
    rmse,
    run_baseline,
)
