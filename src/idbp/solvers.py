"""Restoration solvers built around pluggable denoisers.

Three algorithms:

* ``idbp_run``        -- alternate denoising with a backward projection onto
                         the affine set {H y_tilde = y}; the denoiser sees
                         noise level sigma_n + delta.
* ``idbp_auto_tuned`` -- deblurring variant that searches for the smallest
                         inverse-filter regularisation weight on its grid
                         whose feasibility margin stays above a threshold.
* ``pnp_run``         -- ADMM with the prior step replaced by the denoiser
                         (noise level sqrt(beta / lambda)).

Both solvers enforce the data through the operator's backward projection
bound to y and a weight w, x -> x + H+ (y - H x) = H+ y + Q x: IDBP at
w = epsilon * sigma_n^2 (epsilon 0 for masks), reading the residual norm
||y - H x||^2 the step returns alongside for its feasibility monitor; PnP's
least-squares step at w = lambda * sigma_n^2, ignoring that norm.
Inpainting observations are full grids whose unobserved entries are zero;
at weight zero the mask projection is an exact element copy, so IDBP keeps
the measurement constraint bitwise at every iteration.

Every solve allocates and frees one block of 8 times its grid's bytes,
at most just under 32 MiB (``_fit_malloc_thresholds``).  By glibc's
documented dynamic threshold (mallopt(3) NOTES) that raises the process's
mmap threshold to 8 grids and its trim threshold to 16, so the
image-sized temporaries each iteration frees keep their heap pages
instead of faulting in again.  The thresholds only rise, an environment
setting of M_TRIM_THRESHOLD, M_TOP_PAD, M_MMAP_THRESHOLD or M_MMAP_MAX
turns the rule off, and off glibc the block is an unused allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import as_grid, psnr_of_grids, require_same_shape, sum_of_squares
from .operators import BlurOperator, InpaintingOperator

# ---------------------------------------------------------------------------
# Configuration and traces
# ---------------------------------------------------------------------------

OUTPUT_MODES = ("last_x", "last_y")

# The recommended starting inverse-filter weight epsilon_0: IdbpConfig's
# default, and where auto-tuning starts unless a run sets epsilon.
EPSILON0 = 1e-3


@dataclass
class IdbpConfig:
    """Knobs for the denoise-and-project iteration.

    ``delta`` inflates the denoiser noise level above sigma_n.  ``epsilon``
    sets the blur step's weight epsilon * sigma_n^2 (the auto-tuned start);
    masks project at weight 0.  ``condition_margin_tau`` and
    ``epsilon_increment`` drive the auto-tuned variant.  The defaults are
    the auto-tuned deblurring protocol: delta=5, 30 iterations, last_x,
    epsilon_0=1e-3, tau=3, increment=1e-4.  Every other regime of
    ``bench`` states only how it differs from them.
    """

    delta: float = 5.0
    iterations: int = 30
    output_mode: str = "last_x"
    epsilon: float = EPSILON0
    condition_margin_tau: float = 3.0
    epsilon_increment: float = 1e-4

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta < math.inf:
            raise ValueError("delta must be finite and nonnegative")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if self.output_mode not in OUTPUT_MODES:
            raise ValueError(f"output_mode must be one of {OUTPUT_MODES}")
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and nonnegative")
        if not 1.0 < self.condition_margin_tau < math.inf:
            raise ValueError("condition_margin_tau must be finite and exceed 1")
        if not 0.0 < self.epsilon_increment < math.inf:
            raise ValueError("epsilon_increment must be finite and positive")


# Largest step index r of the auto-tuned weight epsilon_0 + r * increment.
_RESTART_CAP = 200

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
        if not 0.0 < self.beta < math.inf:
            raise ValueError("beta must be finite and positive")
        if not 0.0 < self.lam < math.inf:
            raise ValueError("lam must be finite and positive")
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


def condition_ratio(operator, y, x_tilde, sigma_n: float, delta: float, epsilon: float = 0.0) -> float:
    """Feasibility margin of the current iterate, with H+ at weight epsilon * sigma_n^2.

    The squared-l2 feasibility test of Tirer & Giryes ("Image Restoration by
    Iterative Denoising and Backward Projections", IEEE TIP 2019): the ratio
    of ||y - H x_tilde||^2 / sigma_n^2 to ||H+ (y - H x_tilde)||^2 /
    (sigma_n + delta)^2; +inf when the mapped residual vanishes.  A value
    below 1 certifies that `delta` is too small.  Both norms come from the
    operator's backward projection, as in IDBP's own monitor, so at the
    epsilon a pass ran at the two agree bit for bit.
    """
    if not 0.0 < sigma_n < math.inf:
        raise ValueError(f"sigma_n must be finite and positive, got {sigma_n!r}")
    if not 0.0 <= delta < math.inf:
        raise ValueError("delta must be finite and nonnegative")
    x_tilde = as_grid(x_tilde)
    y_tilde, residual_sq = operator.backward_projection(y, epsilon * sigma_n**2)(x_tilde)
    return _feasibility_ratio(math.sqrt(residual_sq), math.sqrt(sum_of_squares(y_tilde - x_tilde)),
                              sigma_n, delta)


def _feasibility_ratio(residual_norm: float, mapped_norm: float, sigma_n: float, delta: float) -> float:
    """(||r||^2 / sigma_n^2) / (||H+ r||^2 / (sigma_n + delta)^2) from the two norms; +inf if ||H+ r|| is 0."""
    numerator = residual_norm * residual_norm / (sigma_n * sigma_n)
    sigma_total = sigma_n + delta
    denominator = mapped_norm * mapped_norm / (sigma_total * sigma_total)
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


# The largest freed block that still raises glibc's mmap threshold: 32 MiB
# less the chunk header, which glibc rounds up to a page.
_DYNAMIC_THRESHOLD_MAX = 32 * 1024 * 1024 - 8192


def _fit_malloc_thresholds(grid_bytes: int) -> None:
    """Keep the heap pages of a solve on a grid of `grid_bytes` bytes.

    Each solver iteration frees two to four image-sized temporaries in a
    row (the step's spectra, a denoiser's pad, PnP's v - u).  At glibc's
    default thresholds the heap top then passes the trim threshold, glibc
    hands the pages back to the kernel, and the next iteration faults them
    in again: about 60k minor faults and a tenth of the wall time over the
    benchmark's cheap-denoiser deblurring at 256^2.  A denoiser helper
    forked later inherits the raised thresholds.
    """
    # mallopt(3) NOTES: freeing an mmapped block of at most 32 MiB raises the
    # mmap threshold to its size and the trim threshold to twice that
    np.empty(min(8 * grid_bytes, _DYNAMIC_THRESHOLD_MAX), dtype=np.uint8)


def _inputs(y, init, sigma_n: float, ground_truth):
    """A solver's checked inputs: y and init as grids of one shape, and x ->
    PSNR of a checked iterate x against the ground truth, which is scanned
    once here instead of on every iteration; NaN without one.  Rejects a
    sigma_n that is not finite and nonnegative.  Lifts glibc's malloc
    thresholds for the grid (``_fit_malloc_thresholds``)."""
    if not 0.0 <= sigma_n < math.inf:
        raise ValueError(f"sigma_n must be finite and nonnegative, got {sigma_n!r}")
    y, init = as_grid(y), as_grid(init)
    require_same_shape(y, init)
    _fit_malloc_thresholds(y.nbytes)
    if ground_truth is None:
        return y, init, lambda x: float("nan")
    truth = as_grid(ground_truth)
    require_same_shape(truth, y)
    return y, init, lambda x: psnr_of_grids(truth, x)


def _idbp(
    operator,
    y,
    sigma_n: float,
    denoiser,
    config: IdbpConfig,
    init,
    ground_truth,
    observer,
    margin_tau: float | None,
) -> tuple[np.ndarray, IterationTrace]:
    """IDBP passes from x_1 = D(init; sigma_n + delta) until one runs to the end.

    Pass r binds the operator's backward projection to y at weight
    epsilon * sigma_n^2, epsilon = ``config.epsilon`` + r *
    ``config.epsilon_increment`` for blur and 0 for masks.  Each iteration
    makes one call to it, which returns y_tilde = x_tilde + H+ (y - H
    x_tilde) with ||y - H x_tilde||^2: one real transform pair for blur.
    Appends one trace record per completed iteration, numbered from 1 in
    each pass and tagged with the number of passes run before it.  Its
    condition ratio (+inf when sigma_n = 0) takes that residual norm and the
    mapped residual H+ (y - H x_tilde) = y_tilde - x_tilde, so neither H nor
    H+ is applied again.  If `margin_tau` is set, a ratio below it at an
    iteration k > 1 (the first mostly reflects the initialization) aborts
    the pass, and the next pass runs from a copy of x_1 at a larger weight,
    as ``idbp_auto_tuned`` describes.  Returns the last x_tilde, or the
    last y_tilde when ``config.output_mode == "last_y"``, and the trace.
    """
    y, init, quality = _inputs(y, init, sigma_n, ground_truth)
    sigma = sigma_n + config.delta
    trace = IterationTrace()
    x_first = denoiser(init, sigma)
    passes = 0
    mask = isinstance(operator, InpaintingOperator)

    def run(r: int, iterations: int):
        """One pass at weight index r: (iteration it aborted at or None, last ratio, x_tilde, y_tilde)."""
        nonlocal passes
        epsilon = 0.0 if mask else float(config.epsilon + r * config.epsilon_increment)
        project = operator.backward_projection(y, epsilon * sigma_n**2)  # onto {H y_tilde = y}
        passes += 1
        x_tilde = x_first.copy()
        for k in range(1, iterations + 1):
            if k > 1:
                x_tilde = denoiser(y_tilde, sigma)
            # the one finiteness scan of x_tilde: the bound step checks its shape only
            x_tilde = _require_finite(x_tilde, "denoiser output", k)
            y_tilde, residual_sq = project(x_tilde)
            _require_finite(y_tilde, "projected iterate", k)
            ratio = (_feasibility_ratio(math.sqrt(residual_sq), math.sqrt(sum_of_squares(y_tilde - x_tilde)),
                                        sigma_n, config.delta)
                     if sigma_n > 0 else float("inf"))
            trace.append(TraceRecord(k, quality(x_tilde), ratio, epsilon, passes - 1))
            if observer is not None:
                observer(k, x_tilde, y_tilde)
            if margin_tau is not None and k > 1 and ratio < margin_tau:
                return k, ratio, x_tilde, y_tilde
        return None, ratio, x_tilde, y_tilde

    r = 0
    while True:
        aborted_at, ratio, x_tilde, y_tilde = run(r, config.iterations)
        if aborted_at is None:
            return (y_tilde if config.output_mode == "last_y" else x_tilde), trace
        if aborted_at == 2:
            # a 2-iteration probe pass at r reads the verdict of a full pass's
            # second iteration at r
            r = _first_clearing(r, ratio, lambda step: run(step, 2)[1], margin_tau)
        else:
            r = r + 1 if r < _RESTART_CAP else None
        if r is None:
            raise RuntimeError(
                f"no weight step r <= {_RESTART_CAP} keeps the margin {margin_tau}: {passes} passes run, "
                f"epsilon reached {config.epsilon + _RESTART_CAP * config.epsilon_increment:g}"
            )


def _first_clearing(lo: int, ratio_lo: float, probe, tau: float) -> int | None:
    """Smallest r in (lo, ``_RESTART_CAP``] with probe(r) >= tau, given
    probe(lo) = ratio_lo < tau and a probe that rises with r; None if
    probe(``_RESTART_CAP``) < tau.

    Brackets the crossing by extrapolating the secant through the two
    highest probes below tau, each step at least as long as the one before
    (twice as long where the ratio did not rise), then narrows the bracket
    by linear interpolation.  The ratio is close to linear in r, so the
    estimate rounded up usually lands on the crossing, and one more probe
    just below it closes the bracket.  Interpolation that keeps one end
    fixed can shrink the bracket slowly, so after three steps in a row that
    each left more than half of it, the next probe bisects.
    """
    below, ratio_below = None, None  # the probe before lo
    hi, ratio_hi = None, None
    slow_steps = 0
    while hi is None or hi - lo > 1:
        if hi is None:
            if below is None:
                guess = lo + 1
            elif ratio_lo > ratio_below:
                estimate = lo + (tau - ratio_lo) * (lo - below) / (ratio_lo - ratio_below)
                guess = max(math.ceil(min(estimate, _RESTART_CAP)), 2 * lo - below)
            else:
                guess = lo + 2 * (lo - below)
            guess = min(guess, _RESTART_CAP)
            if guess <= lo:
                return None
        elif slow_steps >= 3:
            guess = (lo + hi) // 2
        else:
            estimate = lo + (tau - ratio_lo) * (hi - lo) / (ratio_hi - ratio_lo)
            guess = min(max(math.ceil(estimate), lo + 1), hi - 1)
        width = None if hi is None else hi - lo
        ratio = probe(guess)
        if ratio >= tau:
            hi, ratio_hi = guess, ratio
        else:
            below, ratio_below, lo, ratio_lo = lo, ratio_lo, guess, ratio
        if width is not None:
            slow_steps = slow_steps + 1 if 2 * (hi - lo) > width else 0
    return hi


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
    x_k onto {H y = observations} for the configured iteration count.  Blur
    projects at weight ``config.epsilon`` * sigma_n^2, masks at 0.
    Returns the last x (default) or the last projected y when
    ``output_mode == "last_y"`` -- the latter matches one final denoise at
    delta = 0 and suits noiseless inpainting.
    """
    if sigma_n + config.delta <= 0:
        raise ValueError("sigma_n + delta must be positive, otherwise the denoiser is a no-op")
    return _idbp(operator, y, sigma_n, denoiser, config, init, ground_truth, observer, None)


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

    The weight runs over the grid epsilon_r * sigma_n^2 with epsilon_r =
    ``config.epsilon`` + r * ``config.epsilon_increment``, r = 0, 1, ...,
    ``_RESTART_CAP`` (200).
    The accepted pass is the first on that grid whose condition_ratio stays
    at or above ``config.condition_margin_tau`` at every iteration k > 1.
    A pass that falls below it aborts there and the next starts again from
    the initialization, as if r grew by one per pass; this gives the same
    accepted pass from far fewer passes:

    * The first pass runs at r = 0.  After an abort at k > 2, the next
      full pass runs at r + 1.
    * After an abort at k = 2, 2-iteration probe passes search for the
      smallest larger r whose second iteration clears tau (see
      ``_first_clearing``), and the next full pass runs there.  The search
      assumes that the ratio at k = 2 rises with the weight; were it not
      to, the accepted pass would still clear tau at every k > 1, but it
      might not be the first on the grid that does.

    The returned trace keeps every pass, probes included: indices restart
    at 1 in each pass, ``restarts`` counts the passes run before it, and
    ``epsilon`` is the epsilon_r it ran at.  ``final_pass()`` is the accepted
    pass.  RuntimeError is raised when no r up to ``_RESTART_CAP`` is
    accepted.

    The first denoised iterate D(init; sigma_n + delta) does not depend on
    the weight, so it is computed once and every pass starts from its own
    copy: a run of p passes makes p - 1 fewer denoiser calls than it has
    trace records.  This assumes a deterministic denoiser, which every
    native kind is.
    """
    if not isinstance(operator, BlurOperator):
        raise TypeError("auto-tuning applies to blur operators only")
    if sigma_n <= 0:
        raise ValueError("auto-tuning evaluates the feasibility condition, which needs sigma_n > 0")
    return _idbp(operator, y, sigma_n, denoiser, config, init, ground_truth, observer,
                 config.condition_margin_tau)


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
    at weight w, made by the operator's step bound to y and w once per run
    (the residual norm the step also returns goes unread); a denoising
    step at noise level sqrt(beta / lambda); and the dual update.
    Returns the last least-squares iterate.
    """
    y, init, quality = _inputs(y, init, sigma_n, ground_truth)
    sigma_eff = sigma_n if sigma_n > 0 else _SIGMA_FLOOR
    sigma_denoise = config.denoiser_sigma
    project = operator.backward_projection(y, config.lam * sigma_eff**2)
    v = init.copy()
    u = np.zeros_like(init)
    x = init.copy()
    trace = IterationTrace()
    for k in range(1, config.iterations + 1):
        x, _ = project(v - u)
        _require_finite(x, "least-squares iterate", k)
        v = denoiser(x + u, sigma_denoise)
        _require_finite(v, "denoiser output", k)
        u = u + (x - v)
        trace.append(TraceRecord(k, quality(x), float("nan"), 0.0, 0))
        if observer is not None:
            observer(k, x, v, u)
    return x, trace


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def median_initialize(operator: InpaintingOperator, y) -> np.ndarray:
    """Fill missing pixels by repeated raster sweeps of 3x3 neighbour medians.

    Each sweep visits pixels in row-major order and replaces a still-empty
    pixel with the median of its neighbours that are observed or were
    filled earlier (including earlier in the same sweep), so values
    propagate until the grid is full.  Pixels with no filled neighbour wait
    for the next sweep.  A grid with nothing missing comes back as a copy.

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
