"""Image grids, quality metrics, and noise synthesis.

An image grid is a plain 2-D float64 C-order numpy array of intensities on
the nominal 0-255 scale.  Values are deliberately left unclamped while
solvers iterate; clamping happens only when writing files.  ``as_grid``
normalises arbitrary array-likes into this form and is applied at every
public entry point.
"""

from __future__ import annotations

import numpy as np

from .rng import RngState

PEAK = 255.0


def as_grid(data) -> np.ndarray:
    """Coerce to a 2-D float64 C-order array and reject non-finite entries."""
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"image grid must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("image grid must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("image grid contains non-finite values")
    return arr


def require_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def sum_of_squares(a: np.ndarray) -> float:
    """||a||^2 of a real or complex array, a complex entry counting |z|^2.

    Summed by numpy's own loop, not by BLAS, whose summation order follows
    its thread count once an array passes about 16k entries: the same bits
    at any BLAS thread count.  The solvers' feasibility monitor and the
    operators' residual norms all take their squared norms here.
    """
    flat = np.ascontiguousarray(a).reshape(-1)
    if np.iscomplexobj(flat):
        flat = flat.view(np.float64)
    return float(np.einsum("i,i->", flat, flat))


def psnr(reference, estimate) -> float:
    """Peak signal-to-noise ratio in dB against a fixed peak of 255.

    Returns +inf when the two images are identical.
    """
    ref = as_grid(reference)
    est = as_grid(estimate)
    require_same_shape(ref, est)
    return psnr_of_grids(ref, est)


def psnr_of_grids(ref: np.ndarray, est: np.ndarray) -> float:
    """``psnr`` of two same-shape grids that the caller has already checked,
    without scanning them again: the solvers' per-iteration quality."""
    mse = float(np.mean((ref - est) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(PEAK * PEAK / mse)


def bsnr(blurred_clean, sigma_n: float) -> float:
    """Blurred SNR in dB: per-pixel variance of the clean blurred image over sigma_n**2.

    A constant image has zero variance and yields -inf.
    """
    b = as_grid(blurred_clean)
    if not 0.0 < sigma_n < np.inf:
        raise ValueError(f"sigma_n must be finite and positive, got {sigma_n!r}")
    variance = float(np.mean((b - b.mean()) ** 2))
    if variance == 0.0:
        return float("-inf")
    return 10.0 * np.log10(variance / (sigma_n * sigma_n))


def sigma_for_bsnr(blurred_clean, target_db: float) -> float:
    """Noise standard deviation that makes bsnr(blurred_clean, sigma) == target_db."""
    b = as_grid(blurred_clean)
    variance = float(np.mean((b - b.mean()) ** 2))
    if variance == 0.0:
        raise ValueError("constant image: BSNR is undefined for every sigma")
    return float(np.sqrt(variance) * 10.0 ** (-target_db / 20.0))


def add_gaussian_noise(x, sigma_n: float, rng: RngState) -> np.ndarray:
    """Add i.i.d. zero-mean Gaussian noise with standard deviation sigma_n.

    sigma_n == 0 returns the input unchanged without consuming randomness.
    """
    arr = as_grid(x)
    if not 0.0 <= sigma_n < np.inf:
        raise ValueError(f"sigma_n must be finite and nonnegative, got {sigma_n!r}")
    if sigma_n == 0:
        return arr.copy()
    noise = rng.gaussians(arr.size).reshape(arr.shape)
    return arr + sigma_n * noise
