"""Degradation operators: masking, circular blur, and their pseudoinverses.

Both operator families expose the same surface:

* ``forward(x)``                        -- the degradation H x
* ``backward_projection(y, weight=0)``  -- the one data step, bound to observations y
* ``pseudoinverse(y, weight=0)``        -- H+ y = (H^T H + w I)^-1 H^T y
* ``project_null(x, weight=0)``         -- Q x = x - H+ H x, the component invisible to H

An operator holds H alone.  The regularisation weight w >= 0 is an argument
of the step, chosen by the solver that makes it: IDBP binds at
epsilon * sigma_n^2, PnP at lambda * sigma_n^2.  A negative or NaN weight
raises ValueError.

The backward projection is each operator's one public data step.  Bound to
y and w once per IDBP pass or PnP run, it maps x to the projected iterate
x + H+ (y - H x) = H+ y + Q x and the squared residual norm ||y - H x||^2
together, since that form computes the residual IDBP's feasibility monitor
needs; PnP ignores the norm.  The step takes x as a finite float64 grid and
checks only its shape: the solver scans each denoiser output once, before
the step.  H+ and Q are derived from it, once for both families:
H+ y is the step bound to y applied to zeros, and Q x the step bound to
zeros applied to x, both at the weight they are given.  The derived forms
make the transforms the step makes.

Masks are elementwise: H+ y = y / (1 + w) on observed pixels.  At w = 0 the
divisions are by exactly 1, so their projection algebra (H H+ = I on
observations, Q idempotent, row/null orthogonality) holds bit-exactly.
Blur runs in the frequency domain with circular boundaries, so it is exact
only to rounding; its inverse filter conj(S) / (|S|^2 + w) is only
approximate.  The bound step transforms y once, then makes one real
transform pair (rfft2, irfft2) per call: it forms the residual spectrum,
reads its norm off the half spectrum by Parseval, and filters it back.

No operator changes once built.  A blur operator holds the half spectrum
it multiplies by, the kernel's rfft2; its step builds the inverse filter
each time it binds, at the weight it binds at, so a forward-only operator
needs no invertible spectrum.
"""

from __future__ import annotations

import numpy as np

from .grid import as_grid, sum_of_squares
from .rng import RngState

# ---------------------------------------------------------------------------
# Spectral engine
# ---------------------------------------------------------------------------


def kernel_spectrum(kernel: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Half spectrum (rfft2) of a small kernel zero-padded to `shape`, centred at (0, 0).

    The circular shift puts the kernel origin at the top-left corner so a
    delta kernel maps to the all-ones spectrum.
    """
    kh, kw = kernel.shape
    height, width = shape
    if kh > height or kw > width:
        raise ValueError(f"kernel {kernel.shape} larger than image {shape}")
    padded = np.zeros(shape)
    padded[:kh, :kw] = kernel
    padded = np.roll(padded, shift=(-(kh // 2), -(kw // 2)), axis=(0, 1))
    return np.fft.rfft2(padded)


# ---------------------------------------------------------------------------
# Projections derived from the data step
# ---------------------------------------------------------------------------


class _Projecting:
    """H+ and Q of an operator, derived from its ``backward_projection``,
    and the shape checks of its inputs."""

    def _grid(self, x) -> np.ndarray:
        """`x` as a finite float64 grid of the operator's shape."""
        return self._same_shape(as_grid(x))

    def _same_shape(self, x: np.ndarray) -> np.ndarray:
        if x.shape != self.shape:
            raise ValueError(f"shape mismatch: {x.shape} vs operator {self.shape}")
        return x

    def pseudoinverse(self, y, weight: float = 0.0) -> np.ndarray:
        """H+ y at `weight`: the step bound to y, applied to zeros."""
        return self.backward_projection(y, weight)(np.zeros(self.shape))[0]

    def project_null(self, x, weight: float = 0.0) -> np.ndarray:
        """Q x at `weight`: the step bound to zeros, applied to x.  A blur's
        Q x therefore rounds as x + irfft2(F (0 - S X)), not as
        x - irfft2(F S X)."""
        return self.backward_projection(np.zeros(self.shape), weight)(as_grid(x))[0]


def _check_weight(weight: float) -> float:
    if not weight >= 0:
        raise ValueError(f"regularisation weight must be nonnegative, got {weight!r}")
    return weight


# ---------------------------------------------------------------------------
# Inpainting
# ---------------------------------------------------------------------------


class InpaintingOperator(_Projecting):
    """Row selection of the identity: keeps the pixels where `mask` is True.

    Observations are carried as full grids with unobserved entries zero,
    which makes H^T (zero-padding transpose) and H coincide as maps on full
    grids.  At the default regularisation weight w = 0 every projection is
    an exact element copy.
    """

    def __init__(self, mask) -> None:
        mask = np.ascontiguousarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError(f"mask must be 2-D, got shape {mask.shape}")
        if not mask.any():
            raise ValueError("mask observes no pixels")
        self.mask = mask
        self.mask.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape

    def forward(self, x) -> np.ndarray:
        return np.where(self.mask, self._grid(x), 0.0)

    def backward_projection(self, y, weight: float = 0.0):
        """x -> (H+ y + Q x, ||y - H x||^2) for fixed observations `y` and weight w.

        The operator's one data step: H+ y = where(mask, y / (1 + w), 0),
        Q x = where(mask, x - x / (1 + w), x), the residual through
        ``forward``'s ``where``, and its squared norm by ``sum_of_squares``.
        ``pseudoinverse`` and ``project_null`` are this step with zeros for
        x or y, so they keep its arithmetic by construction.
        """
        scale = 1.0 + _check_weight(weight)
        y = self._grid(y)
        pinv_y = np.where(self.mask, y / scale, 0.0)

        def project(x):
            self._same_shape(x)
            residual = y - np.where(self.mask, x, 0.0)
            return pinv_y + np.where(self.mask, x - x / scale, x), sum_of_squares(residual)

        return project


def generate_random_mask(
    height: int, width: int, missing_fraction: float, rng: RngState
) -> InpaintingOperator:
    """Mask with exactly round(fraction * n) missing pixels, chosen by a
    seeded partial Fisher-Yates shuffle."""
    if not 0.0 <= missing_fraction < 1.0:
        raise ValueError("missing_fraction must lie in [0, 1)")
    n = height * width
    k = int(missing_fraction * n + 0.5)
    missing = rng.shuffled_prefix(n, k)
    mask = np.ones(n, dtype=bool)
    mask[missing] = False
    return InpaintingOperator(mask.reshape(height, width))


# ---------------------------------------------------------------------------
# Circular blur
# ---------------------------------------------------------------------------


class BlurOperator(_Projecting):
    """Circular shift-invariant blur on a fixed grid shape.

    ``spectrum`` is the half spectrum S from ``kernel_spectrum``, read-only.
    ``forward`` is irfft2(rfft2(x) * S, s=shape) (``s=`` keeps odd widths).
    ``backward_projection`` is the one data step; it builds the regularised
    inverse filter conj(S) / (|S|^2 + w) each time it binds, at the weight
    w it is given, so a forward-only operator needs no invertible spectrum.
    ``pseudoinverse`` and ``project_null`` are derived from the step, so
    each transforms its zero argument too and computes a residual norm no
    one reads.  The operator never changes.
    """

    def __init__(self, kernel, shape: tuple[int, int]) -> None:
        kernel = np.ascontiguousarray(kernel, dtype=np.float64)
        if kernel.ndim != 2:
            raise ValueError("kernel must be 2-D")
        if kernel.shape[0] % 2 == 0 or kernel.shape[1] % 2 == 0:
            raise ValueError(f"kernel dimensions must be odd, got {kernel.shape}")
        total = float(kernel.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"kernel must sum to 1, got {total!r}")
        self.kernel = kernel
        self.kernel.setflags(write=False)
        self.shape = (int(shape[0]), int(shape[1]))
        self.spectrum = kernel_spectrum(kernel, self.shape)
        self.spectrum.setflags(write=False)

    def forward(self, x) -> np.ndarray:
        return np.fft.irfft2(np.fft.rfft2(self._grid(x)) * self.spectrum, s=self.shape)

    def backward_projection(self, y, weight: float = 0.0):
        """x -> (x + H+ (y - H x), ||y - H x||^2) for fixed observations `y` and weight w.

        With Y = rfft2(y) kept, each call makes one transform pair: the
        residual spectrum R = Y - S rfft2(x) gives ||y - H x||^2 by Parseval
        on the half spectrum (weight 1 on column 0 and, for even widths,
        column W/2, weight 2 on the others, over H * W), and the projected
        iterate is x + irfft2(R F, s=shape) with F the inverse filter.
        """
        weight = _check_weight(weight)
        y_spectrum = np.fft.rfft2(self._grid(y))
        denom = np.abs(self.spectrum) ** 2 + weight
        if np.any(denom == 0.0):
            raise ValueError(
                "kernel spectrum has zeros and regularisation weight is zero; "
                "the inverse filter is undefined"
            )
        inverse = np.conj(self.spectrum) / denom
        size = self.shape[0] * self.shape[1]
        width = self.shape[1]
        edges = [0, width // 2] if width % 2 == 0 else [0]  # columns without a mirror image

        def project(x):
            spectrum = np.fft.rfft2(self._same_shape(x))
            spectrum *= self.spectrum
            np.subtract(y_spectrum, spectrum, out=spectrum)
            residual_sq = (2.0 * sum_of_squares(spectrum) - sum_of_squares(spectrum[:, edges])) / size
            spectrum *= inverse
            projected = np.fft.irfft2(spectrum, s=self.shape)
            projected += x
            return projected, residual_sq

        return project


# ---------------------------------------------------------------------------
# Benchmark blur scenarios
# ---------------------------------------------------------------------------

# Scenario id -> noise variance; None marks per-image calibration to BSNR 40 dB.
SCENARIO_NOISE_VARIANCE: dict[int, float | None] = {1: 2.0, 2: 8.0, 3: None, 4: 49.0}


def generate_scenario_kernel(scenario_id: int) -> np.ndarray:
    """Blur kernel for benchmark scenarios 1-4, normalised to unit sum.

    Scenarios 1-2 use 1 / (1 + x1^2 + x2^2) on the 15x15 grid x1, x2 in
    -7..7 (the benchmark-literature convention; the bare inverse square sum
    would be singular at the origin).  Scenario 3 is a 9x9 box, scenario 4
    the separable [1,4,6,4,1] outer product over 256.
    """
    if scenario_id in (1, 2):
        coords = np.arange(-7, 8, dtype=np.float64)
        x1, x2 = np.meshgrid(coords, coords, indexing="ij")
        kernel = 1.0 / (1.0 + x1**2 + x2**2)
    elif scenario_id == 3:
        kernel = np.ones((9, 9))
    elif scenario_id == 4:
        taps = np.array([1.0, 4.0, 6.0, 4.0, 1.0])
        kernel = np.outer(taps, taps) / 256.0
    else:
        raise ValueError(f"unknown scenario id {scenario_id} (expected 1-4)")
    return kernel / kernel.sum()
