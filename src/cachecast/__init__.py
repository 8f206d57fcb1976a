"""Cache-aided content delivery over quasi-static Rayleigh fading:
scheduling simulation, Monte Carlo rate estimation, and closed-form
analysis of the TDM, XOR-multicast (MN) and aggregated (ACC) schemes."""

from .analysis import (
    ApproxResult,
    acc_over_mn_large_b,
    acc_over_mn_low_snr,
    acc_rate_exact_integral,
    acc_rate_large_b,
    acc_rate_low_snr,
    capacity_sum_cdf,
    exact_mn_rate,
    h_order_stat,
    mn_gain_exact,
    mn_rate_low_snr,
    psi,
)
from .errors import (
    CachecastError,
    NumericsError,
    ParameterError,
    UnboundedDelayError,
)
from .numerics import (
    exp_scaled_e1,
    gauss_hermite_rule,
    log_char_moment,
    second_moment_log1p,
)
from .rates import (
    GainEstimate,
    RateEstimate,
    SharedEstimate,
    effective_gain,
    mc_average_rate,
    mc_average_rates,
    trial_rates,
)
from .scheduling import (
    CacheState,
    DeliveryTimeline,
    SubfileId,
    acc_stage_timeline,
    enumerate_stages,
    full_session_delay,
    mn_stage_delay,
    needed_subfile,
    placement,
)
from .system import (
    Scheme,
    SeedSpec,
    SnrMatrix,
    SystemConfig,
    sample_snr,
    snr_cdf,
    snr_from_db,
    substream,
)

__version__ = "0.1.0"
