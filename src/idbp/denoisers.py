"""Pluggable denoising operators D(z; sigma).

A denoiser is a callable mapping ``(z, sigma) -> denoised z`` for a 2-D
grid and a nonnegative noise level.  All native kinds are deterministic,
translation-equivariant in intensity, and return the input unchanged at
sigma == 0.  Two synthetic "oracle" kinds with known contraction and
boundedness constants exist purely to exercise the solver guarantees, and
an external-process bridge lets any loose executable act as the denoiser.
"""

from __future__ import annotations

import shlex
import subprocess
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import as_grid
from .rng import RngState

# ---------------------------------------------------------------------------
# Native denoisers
# ---------------------------------------------------------------------------


# Pixels per row strip of MedianDenoiser: a strip's temporaries stay in
# cache (32 rows at 256^2, 16 at 512^2).
_MEDIAN_STRIP_PIXELS = 8192


class MedianDenoiser:
    """3x3 median with edge-replicated borders.

    The edge-padded image is processed in row strips of about
    ``_MEDIAN_STRIP_PIXELS`` pixels, each read with its 2 halo rows, so
    every temporary is strip-sized and stays in cache.

    A strip takes the shared-column selection (Paeth, "Median finding on a
    3x3 grid", Graphics Gems, 1990): each vertical triple is sorted once
    into (low, mid, high), and that sort serves the three horizontally
    adjacent windows.  The median of a window is med3(max of its lows, med3
    of its mids, min of its highs): 18 strip-sized min/max in all.

    Selection only compares and copies, so the output is np.median's, bit
    for bit.
    """

    kind = "median"

    def __call__(self, z, sigma: float) -> np.ndarray:
        z = as_grid(z)
        if sigma == 0:
            return z.copy()
        height, width = z.shape
        padded = np.pad(z, 1, mode="edge")
        out = np.empty_like(z)
        rows = max(1, _MEDIAN_STRIP_PIXELS // width)
        for top in range(0, height, rows):
            bottom = min(top + rows, height)
            _median_of_3x3(padded[top : bottom + 2], out[top:bottom])
        # np.median averages its middle element, which maps -0.0 to +0.0
        out += 0.0
        return out


def _median_of_3x3(strip: np.ndarray, out: np.ndarray) -> None:
    """3x3 medians of a padded strip into out, by shared column sorts."""
    width = out.shape[1]
    a, b, c = strip[:-2], strip[1:-1], strip[2:]
    # sort each vertical triple: low, mid, high
    low = np.minimum(a, b)
    high = np.maximum(a, b)
    mid = np.minimum(high, c)
    np.maximum(high, c, out=high)
    np.maximum(low, mid, out=mid)
    np.minimum(low, c, out=low)
    # each window's three columns: max of the lows, min of the highs,
    # med3 of the mids
    left, centre, right = slice(0, width), slice(1, width + 1), slice(2, width + 2)
    lows = np.maximum(low[:, left], low[:, centre])
    np.maximum(lows, low[:, right], out=lows)
    highs = np.minimum(high[:, left], high[:, centre])
    np.minimum(highs, high[:, right], out=highs)
    mids = _med3(mid[:, left], mid[:, centre], mid[:, right])
    _med3(lows, mids, highs, out=out)


def _med3(a: np.ndarray, b: np.ndarray, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise median of three arrays: max(min(a, b), min(max(a, b), c))."""
    low = np.minimum(a, b, out=out)
    high = np.maximum(a, b)
    np.minimum(high, c, out=high)
    return np.maximum(low, high, out=low)


# Kernel std per unit of sigma.  A product with 1/20, not a division by 20:
# the two differ in the last bit for some sigma.
_WIDTH_FACTOR = 1.0 / 20.0


class GaussianDenoiser:
    """Separable Gaussian smoothing with kernel std sigma * ``_WIDTH_FACTOR``
    (sigma / 20), truncated at 3 std.

    Deliberately weak; useful as a cheap baseline.
    """

    kind = "gaussian"

    def __call__(self, z, sigma: float) -> np.ndarray:
        z = as_grid(z)
        if sigma == 0:
            return z.copy()
        std = sigma * _WIDTH_FACTOR
        radius = max(1, int(np.ceil(3.0 * std)))
        taps = np.exp(-0.5 * (np.arange(-radius, radius + 1) / std) ** 2)
        taps /= taps.sum()
        return _separable_convolve(z, taps)


def _separable_convolve(z: np.ndarray, taps: np.ndarray) -> np.ndarray:
    r = taps.size // 2
    padded = np.pad(z, ((r, r), (0, 0)), mode="reflect")
    z = sliding_window_view(padded, taps.size, axis=0) @ taps
    padded = np.pad(z, ((0, 0), (r, r)), mode="reflect")
    return sliding_window_view(padded, taps.size, axis=1) @ taps


# Patch rows per strip of DctDenoiser's horizontal pass: the fastest
# measured at both 256^2 and 512^2 with one BLAS thread.
_STRIP_ROWS = 4
# Patch rows per block of its vertical pass, a multiple of _STRIP_ROWS:
# blocks of 8 to 64 rows ran equally fast at 256^2, and 16 allocated
# the fewest fresh pages per call.
_BLOCK_ROWS = 16


class DctDenoiser:
    """Sliding-patch DCT hard thresholding with full-overlap uniform aggregation.

    Every patch is transformed by the orthonormal 2-D DCT, AC coefficients
    with magnitude below ``threshold_factor * sigma`` are zeroed (the DC
    term always survives, which preserves flat regions and intensity
    shifts), and overlapping reconstructions are averaged.
    """

    kind = "dct_threshold"

    def __init__(self, patch: int = 8, threshold_factor: float = 3.0) -> None:
        if patch < 2:
            raise ValueError("patch must be at least 2")
        if threshold_factor < 0:
            raise ValueError("threshold_factor must be nonnegative")
        self.patch = patch
        self.threshold_factor = threshold_factor
        self._basis = _dct_matrix(patch)

    def __call__(self, z, sigma: float) -> np.ndarray:
        z = as_grid(z)
        if sigma == 0:
            return z.copy()
        p = self.patch
        if z.shape[0] < p or z.shape[1] < p:
            raise ValueError(f"image {z.shape} smaller than patch {p}x{p}")
        basis = self._basis
        rows, cols = z.shape[0] - p + 1, z.shape[1] - p + 1
        threshold = self.threshold_factor * sigma
        # The 2-D patch DCT is separable.  A block of patch rows at a time:
        # transform its vertical windows, stored as (patch row, vertical
        # frequency, image column); finish the transform, threshold and
        # invert horizontally a strip of patch rows at a time so the
        # per-patch coefficients stay in cache; then invert vertically and
        # add the block's patches into the output.  Temporaries are
        # block-sized, never image-sized.  Blocks run bottom-up: each
        # output pixel then sums its patches in order of increasing row
        # offset, as one pass over all patch rows does.
        out = np.zeros_like(z)
        windows = sliding_window_view(z, p, axis=0)
        for block_top in reversed(range(0, rows, _BLOCK_ROWS)):
            block_bottom = min(block_top + _BLOCK_ROWS, rows)
            vertical = np.ascontiguousarray((windows[block_top:block_bottom] @ basis.T).transpose(0, 2, 1))
            column_sums = np.zeros((block_bottom - block_top, p, z.shape[1]))
            for top in range(0, block_bottom - block_top, _STRIP_ROWS):
                coeffs = sliding_window_view(vertical[top : top + _STRIP_ROWS], p, axis=2) @ basis.T
                keep = np.abs(coeffs) > threshold
                keep[:, 0, :, 0] = True
                coeffs *= keep
                recon = coeffs @ basis
                strip = column_sums[top : top + _STRIP_ROWS]
                for dj in range(p):
                    strip[:, :, dj : dj + cols] += recon[..., dj]
            recon = basis.T @ column_sums
            for di in range(p):
                out[block_top + di : block_bottom + di] += recon[:, di]
        # every pixel is covered by (row overlaps) x (column overlaps) patches
        ones = np.ones(p)
        return out / np.outer(np.convolve(np.ones(rows), ones), np.convolve(np.ones(cols), ones))


def _dct_matrix(size: int) -> np.ndarray:
    j = np.arange(size)
    basis = np.cos(np.pi * (2 * j[None, :] + 1) * j[:, None] / (2 * size)) * np.sqrt(2.0 / size)
    basis[0, :] = 1.0 / np.sqrt(size)
    return basis


class NlmDenoiser:
    """Non-local means: 7x7 patches compared over a 21x21 search window.

    Weights follow exp(-max(d2 - 2 sigma^2, 0) / h^2) with bandwidth
    h = 0.6 sigma, where d2 is the mean squared difference of reflect-padded
    patches.  Each search offset costs a separable box sum, linear in the
    patch size, and the number of offsets is quadratic in the search radius.
    """

    kind = "nlm"

    def __init__(self, patch: int = 7, search: int = 21, h_factor: float = 0.6) -> None:
        if patch % 2 == 0 or search % 2 == 0:
            raise ValueError("patch and search sizes must be odd")
        if h_factor <= 0:
            raise ValueError("h_factor must be positive")
        self.patch = patch
        self.search = search
        self.h_factor = h_factor

    def __call__(self, z, sigma: float) -> np.ndarray:
        z = as_grid(z)
        if sigma == 0:
            return z.copy()
        p = self.patch
        r = p // 2
        height, width = z.shape
        # patch sums stand in for patch means: the floor and the bandwidth
        # are scaled by the patch area instead
        area = float(p * p)
        noise_floor = 2.0 * sigma * sigma * area
        scale = -1.0 / ((self.h_factor * sigma) ** 2 * area)
        padded = np.pad(z, self.search // 2 + r, mode="reflect")
        z_padded = np.pad(z, r, mode="reflect")
        # Patch sums run over the squared difference reflect-padded by r.
        # Each offset differences whole slices of the two padded images, so
        # every pass streams contiguous rows; the 2r border rows and columns,
        # which hold the difference of unrelated pixels, are then overwritten
        # with the rows and columns they reflect.  Reflection is an index
        # map, so this matches np.pad even for images smaller than the patch.
        rows = np.pad(np.arange(height), r, mode="reflect")
        cols = np.pad(np.arange(width), r, mode="reflect")
        border_rows = np.r_[:r, r + height : height + 2 * r]
        border_cols = np.r_[:r, r + width : width + 2 * r]
        row_sources = r + rows[border_rows]
        col_sources = r + cols[border_cols]
        square = np.empty_like(z_padded)
        vertical = np.empty((height, width + 2 * r))
        w = np.empty_like(z)
        numerator = np.zeros_like(z)
        weight_sum = np.zeros_like(z)
        for di in range(self.search):
            for dj in range(self.search):
                np.subtract(z_padded, padded[di : di + height + 2 * r, dj : dj + width + 2 * r], out=square)
                square[border_rows] = square[row_sources]
                square[:, border_cols] = square[:, col_sources]
                np.square(square, out=square)
                np.copyto(vertical, square[:height])
                for k in range(1, p):
                    vertical += square[k : k + height]
                np.copyto(w, vertical[:, :width])
                for k in range(1, p):
                    w += vertical[:, k : k + width]
                w -= noise_floor
                np.maximum(w, 0.0, out=w)
                w *= scale
                np.exp(w, out=w)
                weight_sum += w
                w *= padded[di + r : di + r + height, dj + r : dj + r + width]
                numerator += w
        numerator /= weight_sum
        return numerator


class ShrinkDenoiser:
    """Linear shrink z / (1 + gamma * sigma^2): the proximal map of the
    quadratic prior (gamma / 2) ||x||^2.  Mainly a convex test oracle."""

    kind = "shrink"

    def __init__(self, gamma: float) -> None:
        if gamma < 0:
            raise ValueError("gamma must be nonnegative")
        self.gamma = gamma

    def __call__(self, z, sigma: float) -> np.ndarray:
        z = as_grid(z)
        if sigma == 0:
            return z.copy()
        return z / (1.0 + self.gamma * sigma * sigma)


# ---------------------------------------------------------------------------
# Oracle denoisers (ground truth in hand, constants known exactly)
# ---------------------------------------------------------------------------


class OracleLinearDenoiser:
    """Affine pull toward the known truth: alpha * truth + (1 - alpha) * z.

    Its null-space contraction constant is exactly 1 - alpha for every
    operator, which makes solver convergence rates predictable.
    """

    kind = "oracle_linear"

    def __init__(self, alpha: float, truth) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        self.alpha = alpha
        self.truth = as_grid(truth)

    def __call__(self, z, sigma: float) -> np.ndarray:
        z = as_grid(z)
        return self.alpha * self.truth + (1.0 - self.alpha) * z


class OracleBoundedDenoiser:
    """Step toward the truth with Euclidean length capped at sigma * bound.

    Satisfies the bounded-denoiser inequality ||D(z) - z|| <= sigma * bound
    by construction, including D(z; 0) = z.
    """

    kind = "oracle_bounded"

    def __init__(self, alpha: float, bound: float, truth) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        self.alpha = alpha
        self.bound = bound
        self.truth = as_grid(truth)

    def __call__(self, z, sigma: float) -> np.ndarray:
        z = as_grid(z)
        step = self.truth - z
        distance = float(np.linalg.norm(step))
        if distance == 0.0 or sigma == 0.0:
            return z.copy()
        scale = min(self.alpha, sigma * self.bound / distance)
        return z + scale * step


# ---------------------------------------------------------------------------
# External-process bridge
# ---------------------------------------------------------------------------


class ExternalDenoiserError(RuntimeError):
    """Spawn failure, timeout, or wire-protocol violation in the bridge."""


def _format_sigma(sigma: float) -> str:
    sigma = float(sigma)
    return str(int(sigma)) if sigma.is_integer() else repr(sigma)


def external_denoise(command, z, sigma: float, timeout: float = 300.0) -> np.ndarray:
    """Run one denoising pass in a child process.

    Wire protocol: the child receives the ASCII header line
    ``IDBP1 <height> <width> <sigma>\\n`` followed by height * width
    little-endian float32 pixels on stdin, and must answer with exactly
    height * width little-endian float32 pixels on stdout.
    """
    z = as_grid(z)
    height, width = z.shape
    argv = shlex.split(command) if isinstance(command, str) else list(command)
    if not argv:
        raise ExternalDenoiserError("empty external denoiser command")
    header = f"IDBP1 {height} {width} {_format_sigma(sigma)}\n".encode("ascii")
    payload = z.astype("<f4").tobytes()
    try:
        proc = subprocess.run(
            argv,
            input=header + payload,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=timeout,
        )
    except FileNotFoundError as exc:
        raise ExternalDenoiserError(f"cannot spawn {argv[0]!r}: {exc}") from exc
    except subprocess.TimeoutExpired as exc:
        raise ExternalDenoiserError(f"external denoiser timed out after {timeout} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.decode("utf-8", "replace")[-500:]
        raise ExternalDenoiserError(
            f"external denoiser exited with status {proc.returncode}: {tail}"
        )
    expected = height * width * 4
    if len(proc.stdout) != expected:
        raise ExternalDenoiserError(
            f"protocol violation: expected {expected} payload bytes, received {len(proc.stdout)}"
        )
    out = np.frombuffer(proc.stdout, dtype="<f4").astype(np.float64).reshape(height, width)
    if not np.all(np.isfinite(out)):
        raise ExternalDenoiserError("external denoiser returned non-finite values")
    return out


class ExternalDenoiser:
    """Denoiser backed by a child process speaking the IDBP1 wire protocol."""

    kind = "external"

    def __init__(self, command, timeout: float = 300.0) -> None:
        self.command = command
        self.timeout = timeout

    def __call__(self, z, sigma: float) -> np.ndarray:
        return external_denoise(self.command, z, sigma, timeout=self.timeout)


# ---------------------------------------------------------------------------
# Construction and diagnostics
# ---------------------------------------------------------------------------

_KINDS = {
    "median": MedianDenoiser,
    "gaussian": GaussianDenoiser,
    "nlm": NlmDenoiser,
    "dct_threshold": DctDenoiser,
    "shrink": ShrinkDenoiser,
    "oracle_linear": OracleLinearDenoiser,
    "oracle_bounded": OracleBoundedDenoiser,
    "external": ExternalDenoiser,
}


def build_denoiser(kind: str, **params):
    """Instantiate a denoiser by kind name; see _KINDS for the vocabulary."""
    try:
        cls = _KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown denoiser kind {kind!r}; choose from {sorted(_KINDS)}") from None
    return cls(**params)


@dataclass
class DenoiserDiagnostics:
    """Empirical lower bounds for the boundedness and contraction constants.

    ``bound_estimate_B`` is the largest observed ||D(z) - z|| / sigma;
    ``contraction_estimate_K`` the largest observed Lipschitz ratio of the
    null-space-projected denoiser.  True constants can only be larger.
    """

    bound_estimate_B: float
    contraction_estimate_K: float


def estimate_conditions(
    denoiser, operator, sample_images, sigma: float, rng: RngState
) -> DenoiserDiagnostics:
    """Probe a denoiser on sample images for its guarantee constants.

    Pairs combine the samples with each other and with null-space-only
    perturbations of themselves; the latter make the contraction estimate
    tight for denoisers whose Lipschitz worst case lies in the null space.
    """
    samples = [as_grid(s) for s in sample_images]
    if not samples:
        raise ValueError("need at least one sample image")
    if sigma <= 0:
        raise ValueError("sigma must be positive")

    denoised = [denoiser(s, sigma) for s in samples]
    bound = max(float(np.linalg.norm(d - s)) / sigma for s, d in zip(samples, denoised))

    pairs = [(i, j) for i in range(len(samples)) for j in range(i + 1, len(samples))]
    contraction = 0.0
    for i, j in pairs:
        gap = float(np.linalg.norm(samples[i] - samples[j]))
        if gap == 0.0:
            continue
        null_gap = float(
            np.linalg.norm(operator.project_null(denoised[i]) - operator.project_null(denoised[j]))
        )
        contraction = max(contraction, null_gap / gap)
    for base, base_denoised in zip(samples, denoised):
        bump = operator.project_null(sigma * rng.gaussians(base.size).reshape(base.shape))
        gap = float(np.linalg.norm(bump))
        if gap == 0.0:
            continue
        shifted = denoiser(base + bump, sigma)
        null_gap = float(
            np.linalg.norm(operator.project_null(shifted) - operator.project_null(base_denoised))
        )
        contraction = max(contraction, null_gap / gap)
    return DenoiserDiagnostics(bound_estimate_B=bound, contraction_estimate_K=contraction)
