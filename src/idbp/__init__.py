"""Inverse-problem restoration with pluggable denoisers.

Public surface re-exported here: image grid helpers and metrics, the
degradation operators, denoiser construction, and the three solvers.
"""

from .grid import add_gaussian_noise, as_grid, bsnr, psnr, sigma_for_bsnr
from .pgm import PgmFormatError, load_pgm, save_pgm
from .rng import RngState
from .operators import (
    BlurOperator,
    InpaintingOperator,
    SCENARIO_NOISE_VARIANCE,
    generate_random_mask,
    generate_scenario_kernel,
)
from .denoisers import ExternalDenoiserError, build_denoiser
from .solvers import (
    IdbpConfig,
    IterationTrace,
    PnpConfig,
    TraceRecord,
    condition_ratio,
    idbp_auto_tuned,
    idbp_run,
    median_initialize,
    pnp_run,
)

__all__ = [
    "add_gaussian_noise",
    "as_grid",
    "bsnr",
    "psnr",
    "sigma_for_bsnr",
    "PgmFormatError",
    "load_pgm",
    "save_pgm",
    "RngState",
    "BlurOperator",
    "InpaintingOperator",
    "SCENARIO_NOISE_VARIANCE",
    "generate_random_mask",
    "generate_scenario_kernel",
    "ExternalDenoiserError",
    "build_denoiser",
    "IdbpConfig",
    "IterationTrace",
    "PnpConfig",
    "TraceRecord",
    "condition_ratio",
    "idbp_auto_tuned",
    "idbp_run",
    "median_initialize",
    "pnp_run",
]

__version__ = "0.1.0"
