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

Both solvers enforce the data through the same backward projection
H+ y + Q z for every operator: IDBP at the operator's own weight, through
the operator's step bound to y, which also returns the residual norm its
feasibility monitor needs; PnP's least-squares step at weight
lambda * sigma_n^2, as pinv_y + project_null(z).  Inpainting observations
are full grids whose unobserved entries are zero; at weight zero the mask
projection is an exact element copy, so IDBP keeps the measurement
constraint bitwise at every iteration.
"""

from __future__ import annotations

import math
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


# Noise level PnP's data term uses when sigma_n is zero, so that its
# least-squares step stays well defined.
_SIGMA_FLOOR = 0.001


@dataclass
class PnpConfig:
    """ADMM parameters: prior weight beta, penalty lambda, iteration count.

    When sigma_n is zero the data term uses ``_SIGMA_FLOOR`` = 0.001 instead.
    """

    beta: float
    lam: float
    iterations: int

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")

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

    Ratio of the residual norm ||y - H x_tilde|| weighted by 1/sigma_n^2 to
    the mapped residual norm ||H+ (y - H x_tilde)|| weighted by
    1/(sigma_n + delta)^2; +inf when the mapped residual vanishes.  A value
    below 1 certifies that `delta` is too small.  Both norms come from the
    operator's backward projection, as in IDBP's own monitor, so the two
    agree bit for bit.
    """
    if sigma_n <= 0:
        raise ValueError("sigma_n must be positive")
    x_tilde = as_grid(x_tilde)
    y_tilde, residual_sq = operator._backward_projection(y)(x_tilde)
    return _feasibility_ratio(math.sqrt(residual_sq), float(np.linalg.norm(y_tilde - x_tilde)), sigma_n, delta)


def _feasibility_ratio(residual_norm: float, mapped_norm: float, sigma_n: float, delta: float) -> float:
    """(||r|| / sigma_n^2) / (||H+ r|| / (sigma_n + delta)^2) from the two norms; +inf if ||H+ r|| is 0."""
    numerator = residual_norm / (sigma_n * sigma_n)
    sigma_total = sigma_n + delta
    denominator = mapped_norm / (sigma_total * sigma_total)
    if denominator == 0.0:
        return float("inf")
    return numerator / denominator


# ---------------------------------------------------------------------------
# IDBP
# ---------------------------------------------------------------------------


def _require_finite(arr, what: str, iteration: int) -> np.ndarray:
    """arr as a float64 C-order array, after one scan for non-finite values."""
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise RuntimeError(f"non-finite {what} at iteration {iteration}")
    return arr


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

    Each iteration makes one call to the operator's backward projection
    bound to y, which returns y_tilde = x_tilde + H+ (y - H x_tilde) together
    with ||y - H x_tilde||^2: one real transform pair per blur iteration.
    Appends one trace record per completed iteration.  Its condition ratio
    (+inf when sigma_n = 0) takes that residual norm and the mapped residual
    H+ (y - H x_tilde) = y_tilde - x_tilde, so neither H nor H+ is applied
    again.  If `margin_tau` is set, returns early with violated=True as soon
    as an iteration k > 1 sees a condition ratio below the margin (the first
    iteration is never checked: it mostly reflects the initialization).
    Returns (x_tilde, y_tilde, violated).
    """
    sigma = sigma_n + config.delta
    project = operator._backward_projection(y)  # onto {H y_tilde = y}
    x_tilde = x_first
    for k in range(1, config.iterations + 1):
        if k > 1:
            x_tilde = denoiser(y_tilde, sigma)
        # the one finiteness scan of x_tilde: the bound step checks its shape only
        x_tilde = _require_finite(x_tilde, "denoiser output", k)
        y_tilde, residual_sq = project(x_tilde)
        _require_finite(y_tilde, "projected iterate", k)
        ratio = (_feasibility_ratio(math.sqrt(residual_sq), float(np.linalg.norm(y_tilde - x_tilde)),
                                    sigma_n, config.delta)
                 if sigma_n > 0 else float("inf"))
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
    sigma_eff = sigma_n if sigma_n > 0 else _SIGMA_FLOOR
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
    propagate until the grid is full.  Pixels with no filled neighbour wait
    for the next sweep.

    A sweep runs one anti-diagonal 2i + j at a time.  Of the 8 neighbours
    of (i, j), the four the raster order visits first, (i-1, j-1..j+1) and
    (i, j-1), lie on diagonals 2i + j - 3 .. 2i + j - 1; the four it
    visits later lie on 2i + j + 1 .. 2i + j + 3.  So stepping through the
    diagonals in increasing order shows each pixel exactly the state the
    raster sweep shows it, and no two pixels of one diagonal are
    neighbours, so a whole diagonal is filled in one vectorised step.  Each
    step gathers the neighbours in row-major order, stable-sorts them with
    empty ones as +inf, and takes the middle filled value or the mean
    0.5 * (a + b) of the middle two: bit for bit the sweep's own
    arithmetic, signed zeros included.
    """
    if not isinstance(operator, InpaintingOperator):
        raise TypeError("median initialization is defined for inpainting only")
    y = as_grid(y)
    require_same_shape(y, operator.mask)
    if operator.mask.all():
        return y.copy()
    height, width = y.shape
    # flat grids with a one-pixel border that is never filled, so every
    # pixel has 8 neighbour slots at fixed offsets
    stride = width + 2
    values = np.zeros((height + 2, stride))
    values[1:-1, 1:-1] = y
    filled = np.zeros((height + 2, stride), dtype=bool)
    filled[1:-1, 1:-1] = operator.mask
    values = values.reshape(-1)
    filled = filled.reshape(-1)
    offsets = np.array([-stride - 1, -stride, -stride + 1, -1, 1, stride - 1, stride, stride + 1])
    rows, cols = np.nonzero(~operator.mask)
    diagonal = 2 * rows + cols
    order = np.argsort(diagonal, kind="stable")
    diagonal = diagonal[order]
    pending = ((rows + 1) * stride + cols + 1)[order]
    slots = np.arange(min(height, (width + 1) // 2))  # one per pixel of the longest diagonal
    sweeps = 0
    while pending.size:
        sweeps += 1
        if sweeps > height * width:
            raise RuntimeError("median initialization failed to converge")
        cuts = (np.flatnonzero(diagonal[1:] != diagonal[:-1]) + 1).tolist()
        neighbours = pending[:, None] + offsets
        still_missing = np.zeros(pending.size, dtype=bool)
        for start, stop in zip([0] + cuts, cuts + [pending.size]):
            pixels = pending[start:stop]
            around = neighbours[start:stop]
            known = filled[around]
            count = known.sum(axis=1)
            ranked = np.where(known, values[around], np.inf)
            ranked.sort(axis=1, kind="stable")
            half = count // 2
            at = slots[:stop - start]
            upper = ranked[at, half]
            lower = ranked[at, half - 1]  # used only where count is even
            # a pixel with no filled neighbour gets inf, which no one reads
            # before a later sweep overwrites it
            values[pixels] = np.where(count % 2 == 1, upper, 0.5 * (lower + upper))
            filled[pixels] = count > 0
            still_missing[start:stop] = count == 0
        pending = pending[still_missing]
        diagonal = diagonal[still_missing]
    return values.reshape(height + 2, stride)[1:-1, 1:-1].copy()


def improved_measurements(x_true, operator, noise) -> np.ndarray:
    """Best measurements the projection step could ever deliver: x + H+ e.

    This is the target the projected iterates approach when denoising is
    perfect; analysis/tests compare trajectories against it.
    """
    x_true = as_grid(x_true)
    return x_true + operator.pseudoinverse(noise)
