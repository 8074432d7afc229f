"""Degradation operators: masking, circular blur, and their pseudoinverses.

Both operator families expose the same surface:

* ``forward(x)``        -- the degradation H x
* ``pseudoinverse(y)``  -- H+ y = (H^T H + w I)^-1 H^T y
* ``project_null(x)``   -- Q x = x - H+ H x, the component invisible to H

with regularisation weight w = ``epsilon * sigma_n**2``, zero by default, so
a backward projection H+ y + Q x is one call for both families.

IDBP iterates through the private ``_backward_projection(y)``, bound once
per pass to the observations: it maps x to the projected iterate
x + H+ (y - H x) and the squared residual norm ||y - H x||^2 together,
since that form computes the residual the feasibility monitor needs.
The step takes x as a finite float64 grid and checks only its shape: the
solver scans each denoiser output once, before the step.

Masks are elementwise: H+ y = y / (1 + w) on observed pixels.  At w = 0 the
divisions are by exactly 1, so their projection algebra (H H+ = I on
observations, Q idempotent, row/null orthogonality) holds bit-exactly; the
bound step keeps the H+ y + Q x arithmetic of the public methods.
Blur runs in the frequency domain with circular boundaries, one real
transform pair (rfft2, irfft2) per call, so it is exact only to rounding;
its inverse filter conj(S) / (|S|^2 + w) is only approximate.  The bound
step also makes one pair: it forms the residual spectrum, reads its norm
off the half spectrum by Parseval, and filters it back.
"""

from __future__ import annotations

import numpy as np

from .grid import as_grid, require_same_shape
from .rng import RngState

# ---------------------------------------------------------------------------
# Spectral engine
# ---------------------------------------------------------------------------


def kernel_spectrum(kernel: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """DFT of a small kernel zero-padded to `shape` and centred at index (0, 0).

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
    return np.fft.fft2(padded)


# ---------------------------------------------------------------------------
# Inpainting
# ---------------------------------------------------------------------------


class InpaintingOperator:
    """Row selection of the identity: keeps the pixels where `mask` is True.

    Observations are carried as full grids with unobserved entries zero,
    which makes H^T (zero-padding transpose) and H coincide as maps on full
    grids.  At the default regularisation weight w = 0 every projection is
    an exact element copy.
    """

    epsilon = 0.0
    sigma_n = 0.0

    def __init__(self, mask) -> None:
        mask = np.ascontiguousarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError(f"mask must be 2-D, got shape {mask.shape}")
        if not mask.any():
            raise ValueError("mask observes no pixels")
        self.mask = mask
        self.mask.setflags(write=False)

    def _with_regularisation(self, epsilon: float, sigma_n: float) -> "InpaintingOperator":
        """Same mask object, new (epsilon, sigma_n)."""
        _check_regularisation(epsilon, sigma_n)
        other = InpaintingOperator.__new__(InpaintingOperator)
        vars(other).update(vars(self), epsilon=float(epsilon), sigma_n=float(sigma_n))
        return other

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape

    def forward(self, x) -> np.ndarray:
        x = as_grid(x)
        require_same_shape(x, self.mask)
        return np.where(self.mask, x, 0.0)

    def pseudoinverse(self, y) -> np.ndarray:
        y = as_grid(y)
        require_same_shape(y, self.mask)
        return np.where(self.mask, y / (1.0 + self.epsilon * self.sigma_n**2), 0.0)

    def project_null(self, x) -> np.ndarray:
        x = as_grid(x)
        require_same_shape(x, self.mask)
        return np.where(self.mask, x - x / (1.0 + self.epsilon * self.sigma_n**2), x)

    def _backward_projection(self, y):
        """x -> (H+ y + Q x, ||y - H x||^2) for fixed observations `y`.

        The same ``where`` arithmetic as ``pseudoinverse``, ``project_null``
        and ``forward``, and the squared norm as ``np.linalg.norm`` sums it,
        so results match the public methods bit for bit.
        """
        y = as_grid(y)
        require_same_shape(y, self.mask)
        weight = 1.0 + self.epsilon * self.sigma_n**2
        pinv_y = np.where(self.mask, y / weight, 0.0)

        def project(x):
            require_same_shape(x, self.mask)
            residual = (y - np.where(self.mask, x, 0.0)).ravel()
            return pinv_y + np.where(self.mask, x - x / weight, x), float(residual.dot(residual))

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


class BlurOperator:
    """Circular shift-invariant blur on a fixed grid shape.

    The kernel spectrum S (a full ``fft2``) is precomputed at construction.
    Each apply is irfft2(rfft2(x) * F, s=shape), F on S's half spectrum
    (columns 0..W//2; ``s=`` keeps odd widths).  The regularised inverse
    filter conj(S) / (|S|^2 + epsilon * sigma_n^2) and the null filter
    (its product with S) are each built on first use, so a forward-only
    operator never requires an invertible spectrum and IDBP, which reads
    only the inverse filter, never holds the null filter; the lazy fills
    are idempotent and the instance is otherwise immutable.
    """

    def __init__(self, kernel, shape: tuple[int, int], epsilon: float = 0.0, sigma_n: float = 0.0) -> None:
        kernel = np.ascontiguousarray(kernel, dtype=np.float64)
        if kernel.ndim != 2:
            raise ValueError("kernel must be 2-D")
        if kernel.shape[0] % 2 == 0 or kernel.shape[1] % 2 == 0:
            raise ValueError(f"kernel dimensions must be odd, got {kernel.shape}")
        total = float(kernel.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"kernel must sum to 1, got {total!r}")
        _check_regularisation(epsilon, sigma_n)
        self.kernel = kernel
        self.kernel.setflags(write=False)
        self.shape = (int(shape[0]), int(shape[1]))
        self.epsilon = float(epsilon)
        self.sigma_n = float(sigma_n)
        self.spectrum = kernel_spectrum(kernel, self.shape)
        self.spectrum.setflags(write=False)
        self._half_spectrum = self.spectrum[:, : self.shape[1] // 2 + 1]
        self._inverse: np.ndarray | None = None
        self._null: np.ndarray | None = None

    def with_epsilon(self, epsilon: float) -> "BlurOperator":
        """Same blur with a different regularisation weight; shares this
        operator's kernel and spectrum and builds its own filters."""
        return self._with_regularisation(epsilon, self.sigma_n)

    def _with_regularisation(self, epsilon: float, sigma_n: float) -> "BlurOperator":
        """Same kernel and spectrum object, new (epsilon, sigma_n), empty filter cache."""
        _check_regularisation(epsilon, sigma_n)
        other = BlurOperator.__new__(BlurOperator)  # subclasses re-wrap the result themselves
        vars(other).update(vars(self), epsilon=float(epsilon), sigma_n=float(sigma_n), _inverse=None, _null=None)
        return other

    def _inverse_filter(self) -> np.ndarray:
        if self._inverse is None:
            denom = np.abs(self._half_spectrum) ** 2 + self.epsilon * self.sigma_n**2
            if np.any(denom == 0.0):
                raise ValueError(
                    "kernel spectrum has zeros and regularisation weight is zero; "
                    "the inverse filter is undefined"
                )
            inverse = np.conj(self._half_spectrum) / denom
            inverse.setflags(write=False)
            self._inverse = inverse
        return self._inverse

    def _null_filter(self) -> np.ndarray:
        if self._null is None:
            null = self._inverse_filter() * self._half_spectrum
            null.setflags(write=False)
            self._null = null
        return self._null

    def _check(self, x) -> np.ndarray:
        x = as_grid(x)
        if x.shape != self.shape:
            raise ValueError(f"shape mismatch: {x.shape} vs operator {self.shape}")
        return x

    def _filter(self, x: np.ndarray, half_filter: np.ndarray) -> np.ndarray:
        return np.fft.irfft2(np.fft.rfft2(x) * half_filter, s=self.shape)

    def forward(self, x) -> np.ndarray:
        return self._filter(self._check(x), self._half_spectrum)

    def pseudoinverse(self, y) -> np.ndarray:
        return self._filter(self._check(y), self._inverse_filter())

    def project_null(self, x) -> np.ndarray:
        x = self._check(x)
        return x - self._filter(x, self._null_filter())

    def _backward_projection(self, y):
        """x -> (x + H+ (y - H x), ||y - H x||^2) for fixed observations `y`.

        With Y = rfft2(y) kept, each call makes one transform pair: the
        residual spectrum R = Y - S rfft2(x) gives ||y - H x||^2 by Parseval
        on the half spectrum (weight 1 on column 0 and, for even widths,
        column W/2, weight 2 on the others, over H * W), and the projected
        iterate is x + irfft2(R F, s=shape) with F the inverse filter.
        """
        y_spectrum = np.fft.rfft2(self._check(y))
        inverse = self._inverse_filter()
        # products with the strided view take about twice as long; a copy
        # kept by every operator instead would add to each one's memory
        half_spectrum = np.ascontiguousarray(self._half_spectrum)
        size = self.shape[0] * self.shape[1]
        width = self.shape[1]
        edges = [0, width // 2] if width % 2 == 0 else [0]  # columns without a mirror image

        def project(x):
            if x.shape != self.shape:
                raise ValueError(f"shape mismatch: {x.shape} vs operator {self.shape}")
            spectrum = np.fft.rfft2(x)
            spectrum *= half_spectrum
            np.subtract(y_spectrum, spectrum, out=spectrum)
            unpaired = spectrum[:, edges]
            residual_sq = (2.0 * np.vdot(spectrum, spectrum).real - np.vdot(unpaired, unpaired).real) / size
            spectrum *= inverse
            projected = np.fft.irfft2(spectrum, s=self.shape)
            projected += x
            return projected, float(residual_sq)

        return project


def _check_regularisation(epsilon: float, sigma_n: float) -> None:
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if sigma_n < 0:
        raise ValueError("sigma_n must be nonnegative")


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
