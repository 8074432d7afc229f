"""Pluggable denoising operators D(z; sigma).

A denoiser is a callable mapping ``(z, sigma) -> denoised z`` for a 2-D
grid and a finite nonnegative noise level; every kind raises ValueError
for any other sigma.  All native kinds are deterministic,
translation-equivariant in intensity, and return the input unchanged at
sigma == 0; each is fixed by its kind alone, with no settings.  The DCT
and the NLM share their calls with one forked helper process when the
process has a second CPU to itself.  An external-process bridge lets any
loose executable act as the denoiser.
The denoisers that exist only to check the solver guarantees, a linear
shrink and an oracle with a known contraction constant, live with those
checks in ``idbp.verify``.
"""

from __future__ import annotations

import functools
import mmap
import os
import shlex
import signal
import subprocess
import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import as_grid

# ---------------------------------------------------------------------------
# Native denoisers
# ---------------------------------------------------------------------------


def _check_sigma(sigma) -> None:
    """Reject a noise level that is not finite and nonnegative, which no
    denoiser kind can use."""
    if not 0.0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma!r}")


class CheckedDenoiser:
    """A denoiser that keeps the input contract: its call checks sigma and
    z and returns a copy of z at sigma == 0, and the kind's ``_denoise``
    handles a positive sigma.  The native kinds and ``verify``'s shrink
    oracle derive from it."""

    def __call__(self, z, sigma: float) -> np.ndarray:
        _check_sigma(sigma)
        z = as_grid(z)
        return z.copy() if sigma == 0 else self._denoise(z, sigma)


# Pixels per row strip of MedianDenoiser: a strip's temporaries stay in
# cache (32 rows at 256^2, 16 at 512^2).
_MEDIAN_STRIP_PIXELS = 8192


class MedianDenoiser(CheckedDenoiser):
    """3x3 median with edge-replicated borders.

    The edge-padded image is processed in row strips of about
    ``_MEDIAN_STRIP_PIXELS`` pixels, each read with its 2 halo rows, so
    every temporary is strip-sized and stays in cache.

    A strip takes the shared-column selection (Paeth, "Median finding on a
    3x3 grid", Graphics Gems, 1990): each vertical triple is sorted once
    into (low, mid, high), and that sort serves the three horizontally
    adjacent windows.  The median of a window is med3(max of its lows, med3
    of its mids, min of its highs): 18 strip-sized min/max in all.  The 12
    that read a window's three columns run on flat rows of the padded
    pitch (width + 2), each one contiguous loop (see ``_median_of_3x3``).

    Selection only compares and copies, so the output is np.median's, bit
    for bit.
    """

    kind = "median"

    def _denoise(self, z: np.ndarray, sigma: float) -> np.ndarray:
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
    """3x3 medians of a padded strip into out, by shared column sorts.

    The sorted triples keep the strip's row pitch (width + 2), and the
    passes over a window's three columns run on their flat views, where
    window (i, j) starts at i * pitch + j.  The last two windows of each
    row run on into the next row: they are junk, which only the flat
    passes compute and the copy into out skips.  Each real window gets
    the same comparisons of the same values as in the 2-D layout.
    """
    rows, width = out.shape
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
    pitch = width + 2
    low, mid, high = low.reshape(-1), mid.reshape(-1), high.reshape(-1)
    windows = rows * pitch - 2
    left, centre, right = slice(0, windows), slice(1, windows + 1), slice(2, windows + 2)
    lows = np.maximum(low[left], low[centre])
    np.maximum(lows, low[right], out=lows)
    highs = np.minimum(high[left], high[centre])
    np.minimum(highs, high[right], out=highs)
    mids = _med3(mid[left], mid[centre], mid[right])
    medians = np.empty((rows, pitch))
    _med3(lows, mids, highs, out=medians.reshape(-1)[:windows])
    out[...] = medians[:, :width]


def _med3(a: np.ndarray, b: np.ndarray, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise median of three arrays: max(min(a, b), min(max(a, b), c))."""
    low = np.minimum(a, b, out=out)
    high = np.maximum(a, b)
    np.minimum(high, c, out=high)
    return np.maximum(low, high, out=low)


# Kernel std per unit of sigma.  A product with 1/20, not a division by 20:
# the two differ in the last bit for some sigma.
_WIDTH_FACTOR = 1.0 / 20.0


class GaussianDenoiser(CheckedDenoiser):
    """Separable Gaussian smoothing with kernel std sigma * ``_WIDTH_FACTOR``
    (sigma / 20), truncated at 3 std, with reflected borders.

    One pass serves both axes: a BLAS product of the taps with windows
    along the rows, written out transposed.  Run on the image and then on
    its own result, it smooths both axes and returns the image's layout.
    It is within 1e-12 of the two-pass convolution, not byte-equal to it.

    Each pass reflect-pads the transpose in C order (``_padded_transpose``),
    so each output row is the product of one contiguous taps x width
    block.  ``np.pad(z.T, ...)`` would keep the transpose's column order,
    and the same product on its column-major windows takes more than twice
    as long.  The row-major pad moved the outputs in their last bits,
    within the same 1e-12 bound.

    Deliberately weak; useful as a cheap baseline.
    """

    kind = "gaussian"

    def _denoise(self, z: np.ndarray, sigma: float) -> np.ndarray:
        std = sigma * _WIDTH_FACTOR
        radius = max(1, int(np.ceil(3.0 * std)))
        taps = np.exp(-0.5 * (np.arange(-radius, radius + 1) / std) ** 2)
        taps /= taps.sum()
        for _ in range(2):  # the rows, then the rows of the transpose: the columns
            padded = _padded_transpose(z, radius)
            z = sliding_window_view(padded, taps.size, axis=0) @ taps
        return z


def _padded_transpose(z: np.ndarray, radius: int) -> np.ndarray:
    """``np.pad(z.T, ((radius, radius), (0, 0)), mode="reflect")``, in C order.

    One copy of the transpose fills the middle rows, and each border row
    copies the row it mirrors.  np.pad of a C-order copy of z.T gives the
    same bytes, but copies the image twice.  np.pad reflects again once
    the radius reaches the side, so the mirror is periodic: row i of the
    side reflects to i mod 2 (side - 1), folded back past side - 1.  A
    side of one row reflects to itself.
    """
    side = z.shape[1]
    padded = np.empty((side + 2 * radius, z.shape[0]))
    padded[radius : radius + side] = z.T
    period = 2 * (side - 1) or 1
    for row in (*range(radius), *range(radius + side, side + 2 * radius)):
        offset = (row - radius) % period
        padded[row] = padded[radius + min(offset, period - offset)]
    return padded


def _dct_matrix(size: int) -> np.ndarray:
    j = np.arange(size)
    basis = np.cos(np.pi * (2 * j[None, :] + 1) * j[:, None] / (2 * size)) * np.sqrt(2.0 / size)
    basis[0, :] = 1.0 / np.sqrt(size)
    return basis


# DctDenoiser's patch side, its hard threshold per unit of sigma, and its
# orthonormal DCT basis.
_DCT_PATCH = 8
_DCT_THRESHOLD_FACTOR = 3.0
_DCT_BASIS = _dct_matrix(_DCT_PATCH)

# Patch rows per strip of DctDenoiser's horizontal pass.  Medians of
# interleaved calls at sigma 15 with one BLAS thread, on the prebuilt strip
# pass, in blocks of 16 rows, strips of 2, 4 and 8 rows, three runs of 60
# calls at 256^2 and 18 at 512^2: in-process 20.4/20.3/21.2,
# 22.3/21.8/22.1 and 25.3/24.0/24.7 ms at 256^2, 85.8/90.1/93.2,
# 97.1/98.1/99.6 and 109.6/108.5/117.5 ms at 512^2; with the helper
# 11.7/12.9/12.8, 13.7/13.7/12.9 and 15.8/15.1/14.2 ms at 256^2,
# 47.4/46.1/50.0, 53.8/52.1/53.3 and 59.1/58.4/62.1 ms at 512^2.  Strips of
# 2 against 4, three runs of 120 calls at 256^2 and 32 at 512^2: in-process
# 18.6/16.7/17.7 against 23.3/19.0/19.5 ms and 71.0/79.5/67.7 against
# 96.3/90.7/93.2 ms; with the helper 11.8/35.8/13.3 against 12.1/39.8/13.1
# ms (the host busy in the second run) and 51.1/48.6/64.9 against
# 56.8/56.1/74.8 ms.  Strips of 1 row held no gain over 2 (17.3/16.6/22.9
# against 21.4/15.9/21.4 ms in-process at 256^2, 75.1/87.1/75.0 against
# 73.4/70.2/69.3 ms at 512^2).
_STRIP_ROWS = 2
# Patch rows per block of its vertical pass, a multiple of _STRIP_ROWS and
# at least _DCT_PATCH - 1, so that a block's patches reach no further than
# the block below, as the hold-back of _share_rows needs.  Strips of 2 in
# blocks of 8, 16 and 32 rows, three runs as above: in-process
# 19.7/15.9/21.4, 21.4/15.9/21.4 and 20.1/16.9/21.7 ms at 256^2,
# 79.2/75.7/78.5, 73.4/70.2/69.3 and 84.0/75.0/77.4 ms at 512^2; with the
# helper 12.0/13.9/13.6, 11.8/12.2/13.0 and 12.7/13.4/12.4 ms at 256^2,
# 48.0/54.3/46.6, 50.0/56.1/50.6 and 48.4/52.3/50.5 ms at 512^2.  Blocks of
# 8 won only split at 512^2, and lost in-process there.
_BLOCK_ROWS = 16


class DctDenoiser(CheckedDenoiser):
    """Sliding-patch DCT hard thresholding with full-overlap uniform aggregation.

    Every 8x8 patch is transformed by the orthonormal 2-D DCT, AC
    coefficients with magnitude below 3 sigma are zeroed (the DC term always
    survives, which preserves flat regions and intensity shifts), and
    overlapping reconstructions are averaged.

    The separable strip pass orders its floating-point operations unlike a
    direct 2-D transform, so it agrees with one only to rounding, and a
    coefficient within rounding of the threshold may fall on either side
    of it; repeated calls give the same bytes.

    The patches are worked in blocks of ``_BLOCK_ROWS`` patch rows, and
    each block is a band of output rows for ``_share_rows``, from its first
    patch row to the next block's; the last band runs to the image's last
    row.  Each pixel sums its patches in the in-process order wherever the
    bands run, so the output is the same bytes.
    """

    kind = "dct_threshold"

    def _denoise(self, z: np.ndarray, sigma: float) -> np.ndarray:
        p = _DCT_PATCH
        if z.shape[0] < p or z.shape[1] < p:
            raise ValueError(f"image {z.shape} smaller than patch {p}x{p}")
        out = np.empty_like(z)
        bounds = [*range(0, z.shape[0] - p + 1, _BLOCK_ROWS), len(z)]
        _share_rows(z, out, bounds, _add_blocks, sigma, _STRIP_ROWS, _BLOCK_ROWS)
        return np.divide(out, _overlap_counts(z.shape), out=out)


@functools.lru_cache(maxsize=1)
def _overlap_counts(shape) -> np.ndarray:
    """The number of DCT patches that cover each pixel of an image of this
    shape, (row overlaps) x (column overlaps), read-only; kept for the last
    shape asked for."""
    p = _DCT_PATCH
    ones = np.ones(p)
    rows, cols = shape[0] - p + 1, shape[1] - p + 1
    counts = np.outer(np.convolve(np.ones(rows), ones), np.convolve(np.ones(cols), ones))
    counts.flags.writeable = False
    return counts


def _add_blocks(z, out, top, bottom, sigma, strip_rows, block_rows) -> list:
    """The DCT job: zero rows ``top`` to ``bottom`` of ``out``, an output
    grid whose row 0 is z's, then add the thresholded patches of the blocks
    of patch rows from ``top`` up to ``bottom``, bottom-up.

    Contributions to rows past the end of ``out`` are returned instead, as
    ``(row, rows)`` pairs in the order they were made.
    """
    p = _DCT_PATCH
    basis = _DCT_BASIS
    threshold = _DCT_THRESHOLD_FACTOR * sigma
    rows = z.shape[0] - p + 1
    # The 2-D patch DCT is separable.  A block of patch rows at a time:
    # transform its vertical windows into the workspace, stored as (patch
    # row, vertical frequency, image column); finish the transform,
    # threshold and invert horizontally a strip of patch rows at a time so
    # the per-patch coefficients stay in cache, adding each strip into the
    # block's column sums; then invert vertically and add the block's
    # patches into the output.  Every array and view a strip works on is
    # made once per layout and width (see ``_dct_workspace``).  Blocks run
    # bottom-up: each output pixel then sums its patches in order of
    # increasing row offset, as one pass over all patch rows does.
    products, vertical, column_sums, plans = _dct_workspace(strip_rows, block_rows, z.shape[1])
    held = []
    windows = sliding_window_view(z, p, axis=0)
    out[top:bottom] = 0.0
    for block_top in reversed(range(top, min(bottom, rows), block_rows)):
        block_bottom = min(block_top + block_rows, rows)
        n = block_bottom - block_top
        np.matmul(windows[block_top:block_bottom], basis.T, out=products[:n])
        np.copyto(vertical[:n], products[:n].transpose(0, 2, 1))
        column_sums[:n] = 0.0
        for strip_windows, copy, coeffs, coeffs_cols, magnitudes, keep, dc_keep, recon_cols, adds in plans[n]:
            # the forward product reads a contiguous copy of the windows,
            # held in the magnitudes until the threshold overwrites them
            np.copyto(copy, strip_windows)
            np.matmul(basis, copy, out=coeffs_cols)
            np.greater(np.abs(coeffs, out=magnitudes), threshold, out=keep)
            dc_keep[...] = True
            coeffs *= keep
            np.matmul(basis.T, coeffs_cols, out=recon_cols)
            for sums, recon in adds:
                sums += recon
        # a fresh array per block: the rows held back point into it
        block_recon = basis.T @ column_sums[:n]
        for di in range(p):
            target = out[block_top + di : block_bottom + di]
            target += block_recon[: len(target), di]
            if len(target) < n:
                held.append((block_top + di + len(target), block_recon[len(target) :, di]))
    return held


# Each thread's DCT workspace for _add_blocks, with the (strip rows, block
# rows, width) it was made for
_dct_workspaces = threading.local()


def _dct_workspace(strip_rows, block_rows, width) -> tuple:
    """The calling thread's ``_add_blocks`` workspace at this layout and
    width, reused by every block and call: a block's vertical products,
    its vertical coefficients and its column sums, and, for each block
    height from 1 to ``block_rows``, the argument tuples of its strips.

    A strip's coefficients are stored (patch row, vertical frequency,
    horizontal frequency, column), its magnitudes and keep flags alike, and
    its horizontal inverse (column offset, patch row, vertical frequency,
    column), all at the image's row pitch.  The products write only the
    first ``cols`` columns of each row and the threshold runs over whole
    rows, so the junk columns past ``cols`` keep the coefficients' and
    the inverse's starting zeros.  The overlap-add of column offset dj is
    then one flat add of the inverse into the strip's column sums, dj
    places on, where each row's junk lands on its own last columns or on
    the next row's first dj.  That changes no bit: a column sum starts at
    +0.0, a round-to-nearest sum that starts at +0.0 is never -0.0, and
    any other s + 0.0 is s.  Each coefficient is the same p-term sum as in
    a (column, frequency) layout, and the output the same bit for bit.

    A thread keeps one workspace, remade when the layout or the width
    changes.  The forked helper inherits the forking thread's and writes
    its own copy.
    """
    key = (strip_rows, block_rows, width)
    if getattr(_dct_workspaces, "key", None) != key:
        p = _DCT_PATCH
        cols = width - p + 1
        products = np.empty((block_rows, width, p))
        vertical = np.empty((block_rows, p, width))
        column_sums = np.empty_like(vertical)
        coeffs = np.zeros((strip_rows, p, p, width))
        magnitudes = np.empty_like(coeffs)
        keep = np.empty(coeffs.shape, dtype=bool)
        recon = np.zeros((p, strip_rows, p, width))
        # (patch row, vertical frequency, window element, patch column)
        block_windows = np.swapaxes(sliding_window_view(vertical, p, axis=2), -1, -2)

        @functools.cache
        def strip(start, stop):
            n = stop - start
            sums = column_sums[start:stop].reshape(-1)
            return (
                block_windows[start:stop],
                magnitudes[:n, ..., :cols],
                coeffs[:n],
                coeffs[:n, ..., :cols],
                magnitudes[:n],
                keep[:n],
                keep[:n, 0, 0],
                recon[:, :n, :, :cols].transpose(1, 2, 0, 3),
                [(sums[dj:], recon[dj, :n].reshape(-1)[: sums.size - dj]) for dj in range(p)],
            )

        # the strips of a block of each height, a partial last one included
        plans = [
            [strip(start, min(start + strip_rows, n)) for start in range(0, n, strip_rows)]
            for n in range(block_rows + 1)
        ]
        _dct_workspaces.arrays = (products, vertical, column_sums, plans)
        _dct_workspaces.key = key
    return _dct_workspaces.arrays


# NlmDenoiser's patch side, search window side, and bandwidth per unit of sigma
_NLM_PATCH = 7
_NLM_SEARCH = 21
_NLM_H_FACTOR = 0.6


class NlmDenoiser(CheckedDenoiser):
    """Non-local means: 7x7 patches compared over a 21x21 search window.

    Weights follow exp(-max(d2 - 2 sigma^2, 0) / h^2) with bandwidth
    h = 0.6 sigma, where d2 is the mean squared difference of reflect-padded
    patches.  Each search offset costs a separable box sum, linear in the
    patch size, and the number of offsets is quadratic in the search radius.
    The weights are continuous in the patch distance, so a reordered sum
    only moves each weight by a few ulps, and repeated calls give the same
    bytes.

    Output rows depend on no other output row.  An image at least 2 patches
    tall and 1 patch wide is two bands for ``_share_rows``, its top and
    bottom halves of rows; a smaller one is one band.  Each half is the same
    arithmetic on the same values as the whole image, so the output is the
    same bytes.
    """

    kind = "nlm"

    def _denoise(self, z: np.ndarray, sigma: float) -> np.ndarray:
        height, width = z.shape
        out = np.empty_like(z)
        halves = height >= 2 * _NLM_PATCH and width >= _NLM_PATCH
        _share_rows(z, out, (0, height // 2, height) if halves else (0, height), _nlm_rows, sigma)
        return out


def _nlm_rows(z, out, top, bottom, sigma) -> list:
    """The NLM job: non-local means of rows ``top`` to ``bottom`` of z, into
    those rows of out.  It adds to no other row, so it returns no additions.

    Every per-offset array has the row pitch of the padded slab (width +
    26) and is worked through its flat view, where element (i, j) sits at
    i * pitch + j.  Shifting by a search offset (di, dj) is then reading
    from flat di * pitch + dj, and each pass of an offset is one
    contiguous loop.  The columns past a row's width are junk: a shifted
    read there runs on into the next row.  No output pixel reads them: a
    row's box sums reach no further right than its padded width, and the
    division writes only the first ``width`` columns.  Like the real
    columns, they difference two image values, never a value and a zero,
    so a constant image squares to zeros there too, whatever its
    magnitude.  Every output pixel gets the operations of the 2-D pass
    over the two padded slabs, in the same order, so the output is the
    same bytes.
    """
    p = _NLM_PATCH
    r = p // 2
    s = _NLM_SEARCH // 2
    height, width = z.shape
    rows = bottom - top
    # patch sums stand in for patch means: the floor and the bandwidth
    # are scaled by the patch area instead
    area = float(p * p)
    noise_floor = 2.0 * sigma * sigma * area
    scale = -1.0 / ((_NLM_H_FACTOR * sigma) ** 2 * area)
    # the slab of the padded image that the rows read: the rows and 2r
    # halo rows, and the search window's rows around them
    padded = np.pad(z, s + r, mode="reflect")[top : bottom + 2 * (s + r)]
    pitch = padded.shape[1]
    flat = padded.reshape(-1)
    # Patch sums run over the squared difference reflect-padded by r.
    # Each offset differences z reflect-padded by r, the inner part of the
    # same slab, and the slab shifted by the offset, over the span that the
    # last row's padded width reaches.  The border positions, which hold
    # the difference of unrelated pixels, are then overwritten in one
    # gather with the positions they reflect, the ones whose source is
    # not themselves.  Reflection is an index map, so
    # this matches np.pad even for images smaller than the patch.  The
    # slab holds every border row's source: all rows of the image, or a
    # split call's half, whose source rows lie within 2r rows of it.
    source_rows = r + np.pad(np.arange(height), r, mode="reflect")[top : bottom + 2 * r] - top
    source_cols = r + np.pad(np.arange(width), r, mode="reflect")
    sources = source_rows[:, None] * pitch + source_cols
    targets = np.arange(rows + 2 * r)[:, None] * pitch + np.arange(width + 2 * r)
    border = sources != targets
    sources, targets = sources[border], targets[border]
    # zeros past the span, which the junk of the box sums reads
    squares = np.zeros((rows + 2 * r) * pitch)
    differences = squares[: (rows + 2 * r - 1) * pitch + width + 2 * r]
    z_padded = flat[s * pitch + s :][: differences.size]
    vertical = np.empty(rows * pitch)
    # the span the last row's width reaches, in the weights and the sums
    span = (rows - 1) * pitch + width
    w = np.empty(span)
    numerator = np.zeros((rows, pitch))
    weight_sum = np.zeros((rows, pitch))
    numerator_span = numerator.reshape(-1)[:span]
    weight_sum_span = weight_sum.reshape(-1)[:span]
    # the terms of the box sums: the squares k rows down, then the
    # vertical sums k columns right
    square_rows = [squares[k * pitch : k * pitch + vertical.size] for k in range(p)]
    vertical_cols = [vertical[k : k + span] for k in range(p)]
    for di in range(_NLM_SEARCH):
        for dj in range(_NLM_SEARCH):
            shift = di * pitch + dj
            np.subtract(z_padded, flat[shift : shift + differences.size], out=differences)
            squares[targets] = squares[sources]
            np.square(squares, out=squares)
            np.add(square_rows[0], square_rows[1], out=vertical)
            for term in square_rows[2:]:
                vertical += term
            np.add(vertical_cols[0], vertical_cols[1], out=w)
            for term in vertical_cols[2:]:
                w += term
            w -= noise_floor
            np.maximum(w, 0.0, out=w)
            w *= scale
            np.exp(w, out=w)
            weight_sum_span += w
            shift += r * pitch + r
            w *= flat[shift : shift + span]
            numerator_span += w
    np.divide(numerator[:, :width], weight_sum[:, :width], out=out[top:bottom])
    return []


# ---------------------------------------------------------------------------
# The helper process
# ---------------------------------------------------------------------------


def _may_split() -> bool:
    """Whether a denoiser call may share its work with the helper process:
    the platform can fork, the process may run on 2 CPUs or more, it runs
    no second Python thread, and none of its other threads is running.
    False where the platform cannot tell.

    A second Python thread could call a denoiser at the same time as this
    one, so its existence is enough.  The other threads are those of a
    multithreaded BLAS such as OpenBLAS, started when numpy loads it: idle,
    they sleep.  Workers that a threaded BLAS call wakes spin on CPUs of
    their own for a while after it, and a helper sharing their CPU ran
    slower than no helper, so a call made while one runs stays in-process.
    """
    try:
        if not hasattr(os, "fork") or len(os.sched_getaffinity(0)) < 2 or threading.active_count() > 1:
            return False
        caller = str(threading.get_native_id())
        for task in os.listdir("/proc/self/task"):
            if task != caller:
                with open(f"/proc/self/task/{task}/stat") as stat:
                    if stat.read().rpartition(")")[2].split()[0] == "R":
                        return False
        return True
    except (AttributeError, OSError):
        return False


def _share_rows(z, out, bounds, job, *args) -> None:
    """Work the bands of a denoiser call, the output rows between
    consecutive ``bounds``, into ``out``.

    ``job(image, grid, top, bottom, *args)``, a module-level function,
    writes rows ``top`` to ``bottom`` of ``grid``, whose row 0 is the
    image's, and returns the additions it made past the end of ``grid`` as
    ``(row, rows)`` pairs in their order.  With one band, or when not
    ``_may_split()``, the job runs once over all rows: the in-process pass.

    Otherwise the helper process claims bands from the bottom up into its
    own output grid while this process claims them from the top down,
    until they meet.  This process gives each band ``out[:bottom]`` and
    makes the additions it returns once the band below is added: after its
    next band, or after the helper's rows are copied in.  A pixel then gets
    its additions in the in-process order, provided that a band's reach no
    further than the band below.

    The helper is forked on the first call that splits and serves every
    later one in the process, of any kind; it is forked again only for a
    larger image.  Its memory is its own, in the process's
    ``RUSAGE_CHILDREN`` once it has exited (it exits with the process), not
    in its ``RUSAGE_SELF``; only the mapping that carries the pixels both
    ways is in both.
    """
    global _helper
    if len(bounds) < 3 or not _may_split():
        job(z, out, 0, len(z), *args)
        return
    if _helper is None or _helper.owner != os.getpid() or _helper.pixels < z.size:
        # a helper forked by another process is that process's to stop
        if _helper is not None and _helper.owner == os.getpid():
            _helper.stop()
        _helper = _Helper(z.size)
    helper = _helper
    image, helper_out = helper.grids(z.shape)
    held = []
    try:
        image[...] = z
        helper.claims[:] = (0, len(bounds) - 1)
        helper.connection.send((job, z.shape, bounds, args))
        while (band := helper.claim(from_top=True)) is not None:
            top, bottom = bounds[band], bounds[band + 1]
            above, held = held, job(z, out[:bottom], top, bottom, *args)
            _add_held(out, above)
        helper.connection.recv()
    except BaseException as exc:
        # the helper may have died, or may still owe this reply: never
        # reuse it, so no later call reads a stale reply
        _helper = None
        helper.stop()
        if isinstance(exc, (EOFError, OSError)):
            raise RuntimeError(f"the denoiser helper process {helper.process.pid} has died") from exc
        raise
    met = bounds[helper.claims[0]]
    out[met:] = helper_out[met:]
    _add_held(out, held)


def _add_held(out, held) -> None:
    """Make the additions a job held back, in their order."""
    for row, rows in held:
        out[row : row + len(rows)] += rows


class _Helper:
    """A forked process that runs denoiser jobs on request.

    The pixels pass through two grids of up to ``pixels`` float64 values in
    a memory mapping the two processes share, an image and an output grid,
    with the next band each side may claim, and each request and its reply
    through a pipe.  The helper closes its copy of this process's end of the
    pipe, so this process's death reaches it as end of file, and it exits.
    It is a daemon: multiprocessing stops and reaps it when this process
    exits.
    """

    def __init__(self, pixels: int) -> None:
        # imported here: only a call that splits its work pays for it
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self.owner = os.getpid()
        self.pixels = pixels
        shared = mmap.mmap(-1, 2 * pixels * 8 + 16)
        self.grid_values = np.frombuffer(shared, count=2 * pixels).reshape(2, pixels)
        # the first band the top side may claim, and one past the last the bottom side may
        self.claims = np.frombuffer(shared, dtype=np.int64, count=2, offset=2 * pixels * 8)
        self.lock = context.Lock()
        self.connection, helper_end = context.Pipe()
        self.process = context.Process(
            target=_serve, args=(self, helper_end), name="idbp-denoiser-helper", daemon=True
        )
        self.process.start()
        helper_end.close()

    def grids(self, shape) -> tuple[np.ndarray, np.ndarray]:
        """The shared image and output grid of a request."""
        size = shape[0] * shape[1]
        return self.grid_values[0, :size].reshape(shape), self.grid_values[1, :size].reshape(shape)

    def claim(self, from_top: bool) -> int | None:
        """The next unclaimed band from the top or the bottom, if any."""
        with self.lock:
            first, end = self.claims
            if first == end:
                return None
            if from_top:
                self.claims[0] = first + 1
                return int(first)
            self.claims[1] = end - 1
            return int(end - 1)

    def stop(self) -> None:
        """Kill the helper and reap it."""
        self.connection.close()
        self.process.kill()
        self.process.join()


# The process's one helper, forked on the first call that splits its work
_helper: _Helper | None = None


def _serve(helper: _Helper, connection) -> None:
    """The helper's loop: for each request, claim bands of the shared image
    from the bottom up and run the request's job on each into the shared
    output grid, reply when no band is left, and end at end of file."""
    helper.connection.close()
    # an interrupt from the terminal reaches the parent too, which stops the helper
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while True:
            job, shape, bounds, args = connection.recv()
            image, out = helper.grids(shape)
            while (band := helper.claim(from_top=False)) is not None:
                job(image, out, bounds[band], bounds[band + 1], *args)
            connection.send(None)
    except (EOFError, BrokenPipeError, ConnectionResetError):
        return


# ---------------------------------------------------------------------------
# External-process bridge
# ---------------------------------------------------------------------------


class ExternalDenoiserError(RuntimeError):
    """Spawn failure, timeout, or wire-protocol violation in the bridge."""


def _format_sigma(sigma: float) -> str:
    sigma = float(sigma)
    return str(int(sigma)) if sigma.is_integer() else repr(sigma)


# Seconds an external denoiser may take over one call.
_EXTERNAL_TIMEOUT_S = 300.0


class ExternalDenoiser:
    """Denoiser backed by a child process, one run per call.

    ``command`` is an argv list or a shell-style string.  Wire protocol: the
    child receives the ASCII header line ``IDBP1 <height> <width> <sigma>\\n``
    followed by height * width little-endian float32 pixels on stdin, and
    must answer with exactly height * width little-endian float32 pixels on
    stdout within ``_EXTERNAL_TIMEOUT_S`` seconds.
    """

    kind = "external"

    def __init__(self, command) -> None:
        self.command = command

    def __call__(self, z, sigma: float) -> np.ndarray:
        _check_sigma(sigma)
        z = as_grid(z)
        height, width = z.shape
        argv = shlex.split(self.command) if isinstance(self.command, str) else list(self.command)
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
                timeout=_EXTERNAL_TIMEOUT_S,
            )
        except OSError as exc:
            # a missing command, a directory, a file without the execute bit, ...
            raise ExternalDenoiserError(f"cannot spawn {argv[0]!r}: {exc}") from exc
        except subprocess.TimeoutExpired as exc:
            raise ExternalDenoiserError(f"external denoiser timed out after {_EXTERNAL_TIMEOUT_S} s") from exc
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


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

_KINDS = {
    cls.kind: cls for cls in (MedianDenoiser, GaussianDenoiser, NlmDenoiser, DctDenoiser, ExternalDenoiser)
}
# The kinds build_denoiser builds, and so the kinds an experiment can name:
# every denoiser this module defines.
DENOISERS = tuple(_KINDS)


def build_denoiser(kind: str, command=None):
    """The denoiser of a kind in DENOISERS.  Only ``external`` takes an
    argument, the ``command`` it runs; every other kind is fixed by its name."""
    try:
        cls = _KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown denoiser kind {kind!r}; choose from {DENOISERS}") from None
    return cls() if command is None else cls(command)
