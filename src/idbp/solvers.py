"""Restoration solvers built around pluggable denoisers.

Three algorithms:

* ``idbp_run``        -- alternate denoising with a backward projection onto
                         the affine set {H y_tilde = y}; the denoiser sees
                         noise level sigma_n + delta.
* ``idbp_auto_tuned`` -- deblurring variant that grows the inverse-filter
                         regularisation weight and restarts whenever the
                         feasibility margin drops below a threshold.
* ``pnp_run``         -- ADMM with the prior step replaced by the denoiser
                         (noise level sqrt(beta / lambda)).

Both solvers enforce the data through one call for every operator, the
backward projection H+ y + Q z: IDBP at the operator's own weight, PnP's
least-squares step at weight lambda * sigma_n^2.  Inpainting observations
are full grids whose unobserved entries are zero; at weight zero the mask
projection is an exact element copy, so IDBP keeps the measurement
constraint bitwise at every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import as_grid, psnr, require_same_shape
from .operators import BlurOperator, InpaintingOperator

# ---------------------------------------------------------------------------
# Configuration and traces
# ---------------------------------------------------------------------------

OUTPUT_MODES = ("last_x", "last_y")


@dataclass
class IdbpConfig:
    """Knobs for the denoise-and-project iteration.

    ``delta`` inflates the denoiser noise level above sigma_n.  ``epsilon``
    is the starting inverse-filter regularisation weight (deblurring only);
    ``condition_margin_tau`` and ``epsilon_increment`` drive the auto-tuned
    variant, whose defaults mirror the recommended settings delta=5,
    epsilon=1e-3, increment=1e-4, tau=3.
    """

    delta: float = 5.0
    iterations: int = 30
    output_mode: str = "last_x"
    epsilon: float = 1e-3
    condition_margin_tau: float = 3.0
    epsilon_increment: float = 1e-4
    restart_cap: int = 200

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if self.output_mode not in OUTPUT_MODES:
            raise ValueError(f"output_mode must be one of {OUTPUT_MODES}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.condition_margin_tau <= 1:
            raise ValueError("condition_margin_tau must exceed 1")
        if self.epsilon_increment <= 0:
            raise ValueError("epsilon_increment must be positive")
        if self.restart_cap < 0:
            raise ValueError("restart_cap must be nonnegative")


@dataclass
class PnpConfig:
    """ADMM parameters: prior weight beta, penalty lambda, iteration count.

    When sigma_n is zero the data term uses ``sigma_floor`` instead so the
    least-squares step stays well defined.
    """

    beta: float
    lam: float
    iterations: int
    sigma_floor: float = 0.001

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if self.sigma_floor <= 0:
            raise ValueError("sigma_floor must be positive")

    @property
    def denoiser_sigma(self) -> float:
        return float(np.sqrt(self.beta / self.lam))


@dataclass
class TraceRecord:
    """One completed iteration: quality, feasibility margin, tuning state."""

    iteration: int
    psnr_db: float
    condition_ratio: float
    epsilon: float
    restarts: int


@dataclass
class IterationTrace:
    records: list[TraceRecord] = field(default_factory=list)

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def restart_count(self) -> int:
        return self.records[-1].restarts if self.records else 0

    def final_pass(self) -> list[TraceRecord]:
        """Records of the last (accepted) pass, i.e. after the final restart."""
        last = self.restart_count
        return [r for r in self.records if r.restarts == last]


# ---------------------------------------------------------------------------
# Feasibility condition
# ---------------------------------------------------------------------------


def condition_ratio(operator, y, x_tilde, sigma_n: float, delta: float) -> float:
    """Feasibility margin of the current iterate.

    Ratio of the residual norm weighted by 1/sigma_n^2 to the
    pseudoinverse-mapped residual norm weighted by 1/(sigma_n + delta)^2.
    A value below 1 certifies that `delta` is too small; +inf when the
    mapped residual vanishes.
    """
    if sigma_n <= 0:
        raise ValueError("sigma_n must be positive")
    y = as_grid(y)
    residual = y - operator.forward(x_tilde)
    numerator = float(np.linalg.norm(residual)) / (sigma_n * sigma_n)
    sigma_total = sigma_n + delta
    denominator = float(np.linalg.norm(operator.pseudoinverse(residual))) / (sigma_total * sigma_total)
    if denominator == 0.0:
        return float("inf")
    return numerator / denominator


def _trace_ratio(operator, y, x_tilde, sigma_n: float, delta: float) -> float:
    return condition_ratio(operator, y, x_tilde, sigma_n, delta) if sigma_n > 0 else float("inf")


# ---------------------------------------------------------------------------
# IDBP
# ---------------------------------------------------------------------------


def _require_finite(arr: np.ndarray, what: str, iteration: int) -> None:
    if not np.all(np.isfinite(arr)):
        raise RuntimeError(f"non-finite {what} at iteration {iteration}")


def _idbp_pass(
    operator,
    y: np.ndarray,
    sigma_n: float,
    denoiser,
    config: IdbpConfig,
    x_first: np.ndarray,
    ground_truth,
    observer,
    trace: IterationTrace,
    restarts: int,
    margin_tau: float | None,
):
    """One uninterrupted IDBP pass, starting from x_first = D(init; sigma_n + delta).

    Appends one trace record per completed iteration.  If `margin_tau` is
    set, returns early with violated=True as soon as an iteration k > 1
    sees a condition ratio below the margin (the first iteration is never
    checked: it mostly reflects the initialization).
    Returns (x_tilde, y_tilde, violated).
    """
    sigma = sigma_n + config.delta
    pinv_y = operator.pseudoinverse(y)
    x_tilde = x_first
    for k in range(1, config.iterations + 1):
        if k > 1:
            x_tilde = denoiser(y_tilde, sigma)
        _require_finite(x_tilde, "denoiser output", k)
        y_tilde = pinv_y + operator.project_null(x_tilde)  # projection onto {H y_tilde = y}
        _require_finite(y_tilde, "projected iterate", k)
        ratio = _trace_ratio(operator, y, x_tilde, sigma_n, config.delta)
        quality = psnr(ground_truth, x_tilde) if ground_truth is not None else float("nan")
        trace.append(TraceRecord(k, quality, ratio, operator.epsilon, restarts))
        if observer is not None:
            observer(k, x_tilde, y_tilde)
        if margin_tau is not None and k > 1 and ratio < margin_tau:
            return x_tilde, y_tilde, True
    return x_tilde, y_tilde, False


def idbp_run(
    operator,
    y,
    sigma_n: float,
    denoiser,
    config: IdbpConfig,
    init,
    ground_truth=None,
    observer=None,
) -> tuple[np.ndarray, IterationTrace]:
    """Iterative denoising with backward projections.

    Alternates ``x_k = D(y_{k-1}; sigma_n + delta)`` with the projection of
    x_k onto {H y = observations} for the configured iteration count.
    Returns the last x (default) or the last projected y when
    ``output_mode == "last_y"`` -- the latter matches one final denoise at
    delta = 0 and suits noiseless inpainting.
    """
    if sigma_n < 0:
        raise ValueError("sigma_n must be nonnegative")
    if sigma_n + config.delta <= 0:
        raise ValueError("sigma_n + delta must be positive, otherwise the denoiser is a no-op")
    y = as_grid(y)
    init = as_grid(init)
    require_same_shape(y, init)
    trace = IterationTrace()
    x_first = denoiser(init, sigma_n + config.delta)
    x_tilde, y_tilde, _ = _idbp_pass(
        operator, y, sigma_n, denoiser, config, x_first, ground_truth, observer, trace, 0, None
    )
    estimate = y_tilde if config.output_mode == "last_y" else x_tilde
    return estimate, trace


def idbp_auto_tuned(
    operator: BlurOperator,
    y,
    sigma_n: float,
    denoiser,
    config: IdbpConfig,
    init,
    ground_truth=None,
    observer=None,
) -> tuple[np.ndarray, IterationTrace]:
    """Deblurring with automatic regularisation tuning.

    Runs IDBP starting from ``config.epsilon``; whenever an iteration k > 1
    sees condition_ratio below ``config.condition_margin_tau``, the weight
    grows by ``config.epsilon_increment``, the inverse filter is rebuilt,
    and the pass restarts from the initialization.  The returned trace
    keeps the aborted passes; indices restart at 1 after each restart.

    The first denoised iterate D(init; sigma_n + delta) does not depend on
    the weight, so it is computed once and every pass starts from its own
    copy: a run with r restarts makes r fewer denoiser calls than it has
    trace records.  This assumes a deterministic denoiser, which every
    native kind is.
    """
    if not isinstance(operator, BlurOperator):
        raise TypeError("auto-tuning applies to blur operators only")
    if sigma_n <= 0:
        raise ValueError("auto-tuning evaluates the feasibility condition, which needs sigma_n > 0")
    y = as_grid(y)
    init = as_grid(init)
    require_same_shape(y, init)
    trace = IterationTrace()
    epsilon = config.epsilon
    restarts = 0
    current = operator.with_epsilon(epsilon)
    x_first = denoiser(init, sigma_n + config.delta)
    while True:
        x_tilde, y_tilde, violated = _idbp_pass(
            current, y, sigma_n, denoiser, config, x_first.copy(), ground_truth, observer, trace, restarts,
            config.condition_margin_tau,
        )
        if not violated:
            break
        restarts += 1
        if restarts > config.restart_cap:
            raise RuntimeError(
                f"restart budget exhausted after {config.restart_cap} restarts: "
                f"margin {config.condition_margin_tau} unattainable (epsilon reached {epsilon:g})"
            )
        epsilon = config.epsilon + restarts * config.epsilon_increment
        current = current.with_epsilon(epsilon)
    estimate = y_tilde if config.output_mode == "last_y" else x_tilde
    return estimate, trace


# ---------------------------------------------------------------------------
# Plug-and-play ADMM
# ---------------------------------------------------------------------------


def pnp_run(
    operator,
    y,
    sigma_n: float,
    denoiser,
    config: PnpConfig,
    init,
    ground_truth=None,
    observer=None,
) -> tuple[np.ndarray, IterationTrace]:
    """ADMM with the prior handled by the denoiser.

    Per iteration: the least-squares solve (H^T H + w I)^-1 (H^T y + w z)
    with w = lam * sigma_n^2, which is the backward projection H+ y + Q z
    of the operator at epsilon = lam; a denoising step at noise level
    sqrt(beta / lambda); and the dual update.
    Returns the last least-squares iterate.
    """
    if sigma_n < 0:
        raise ValueError("sigma_n must be nonnegative")
    y = as_grid(y)
    init = as_grid(init)
    require_same_shape(y, init)
    sigma_eff = sigma_n if sigma_n > 0 else config.sigma_floor
    sigma_denoise = config.denoiser_sigma
    data_op = operator._with_regularisation(config.lam, sigma_eff)
    pinv_y = data_op.pseudoinverse(y)
    v = init.copy()
    u = np.zeros_like(init)
    x = init.copy()
    trace = IterationTrace()
    for k in range(1, config.iterations + 1):
        x = pinv_y + data_op.project_null(v - u)
        _require_finite(x, "least-squares iterate", k)
        v = denoiser(x + u, sigma_denoise)
        _require_finite(v, "denoiser output", k)
        u = u + (x - v)
        quality = psnr(ground_truth, x) if ground_truth is not None else float("nan")
        trace.append(TraceRecord(k, quality, float("nan"), 0.0, 0))
        if observer is not None:
            observer(k, x, v, u)
    return x, trace


# ---------------------------------------------------------------------------
# Initialization and analysis helpers
# ---------------------------------------------------------------------------


def median_initialize(operator: InpaintingOperator, y) -> np.ndarray:
    """Fill missing pixels by repeated raster sweeps of 3x3 neighbour medians.

    Each sweep visits pixels in row-major order and replaces a still-empty
    pixel with the median of its neighbours that are observed or were
    filled earlier (including earlier in the same sweep), so values
    propagate until the grid is full.
    """
    if not isinstance(operator, InpaintingOperator):
        raise TypeError("median initialization is defined for inpainting only")
    y = as_grid(y)
    require_same_shape(y, operator.mask)
    if operator.mask.all():
        return y.copy()
    height, width = y.shape
    values = y.tolist()
    filled = operator.mask.tolist()
    remaining = [(i, j) for i in range(height) for j in range(width) if not filled[i][j]]
    sweeps = 0
    while remaining:
        sweeps += 1
        if sweeps > height * width:
            raise RuntimeError("median initialization failed to converge")
        still_missing = []
        for i, j in remaining:
            neighbours = []
            for ni in range(max(i - 1, 0), min(i + 2, height)):
                row_vals = values[ni]
                row_filled = filled[ni]
                for nj in range(max(j - 1, 0), min(j + 2, width)):
                    if (ni != i or nj != j) and row_filled[nj]:
                        neighbours.append(row_vals[nj])
            if neighbours:
                neighbours.sort()
                count = len(neighbours)
                half = count // 2
                if count % 2:
                    values[i][j] = neighbours[half]
                else:
                    values[i][j] = 0.5 * (neighbours[half - 1] + neighbours[half])
                filled[i][j] = True
            else:
                still_missing.append((i, j))
        remaining = still_missing
    return np.array(values)


def improved_measurements(x_true, operator, noise) -> np.ndarray:
    """Best measurements the projection step could ever deliver: x + H+ e.

    This is the target the projected iterates approach when denoising is
    perfect; analysis/tests compare trajectories against it.
    """
    x_true = as_grid(x_true)
    return x_true + operator.pseudoinverse(noise)
