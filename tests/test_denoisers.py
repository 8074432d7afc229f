import functools
import json
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from idbp import bench, denoisers
from idbp.denoisers import (
    DENOISERS,
    DctDenoiser,
    ExternalDenoiser,
    ExternalDenoiserError,
    GaussianDenoiser,
    MedianDenoiser,
    NlmDenoiser,
    build_denoiser,
)
from idbp.denoisers import _dct_matrix
from idbp.grid import add_gaussian_noise
from idbp.operators import generate_random_mask
from idbp.rng import RngState
from idbp.verify import DenoiserDiagnostics, OracleLinearDenoiser, ShrinkDenoiser, estimate_conditions

NATIVE = [MedianDenoiser(), GaussianDenoiser(), NlmDenoiser(), DctDenoiser(), ShrinkDenoiser(0.01)]


def _random_grid(seed, h, w, scale=40.0, offset=128.0):
    return RngState(seed).gaussians(h * w).reshape(h, w) * scale + offset


# ---------------------------------------------------------------------------
# shared denoiser contracts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("denoiser", NATIVE, ids=lambda d: d.kind)
def test_native_zero_sigma_is_identity(denoiser):
    z = _random_grid(1, 16, 16)
    out = denoiser(z, 0.0)
    assert np.max(np.abs(out - z)) <= 1e-12
    out[0, 0] = -1  # identity must be a copy, not the same buffer
    assert z[0, 0] != -1


@pytest.mark.parametrize("denoiser", NATIVE, ids=lambda d: d.kind)
def test_native_shape_and_determinism(denoiser):
    z = _random_grid(2, 20, 24)
    a = denoiser(z, 10.0)
    b = denoiser(z, 10.0)
    assert a.shape == z.shape
    assert np.array_equal(a, b)


# shrink pulls toward zero by design, so equivariance applies to the rest
@pytest.mark.parametrize("denoiser", NATIVE[:4], ids=lambda d: d.kind)
def test_native_translation_equivariance(denoiser):
    z = _random_grid(3, 20, 20)
    shift = 17.25
    a = denoiser(z + shift, 8.0)
    b = denoiser(z, 8.0) + shift
    assert np.max(np.abs(a - b)) < 1e-8


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("denoiser", NATIVE, ids=lambda d: d.kind)
def test_denoisers_reject_non_finite_input(denoiser, value):
    z = np.ones((16, 16))
    z[3, 3] = value
    with pytest.raises(ValueError, match="non-finite"):
        denoiser(z, 5.0)


@pytest.mark.parametrize("sigma", [np.nan, -1.0, np.inf], ids=["nan", "negative", "inf"])
@pytest.mark.parametrize("kind", [*DENOISERS, "shrink"])
def test_denoisers_reject_an_unusable_sigma_before_any_work(kind, sigma, monkeypatch):
    # NaN used to give an all-NaN NLM grid or a DC-only DCT blur, the median
    # ignored sigma, and every kind took a negative one (the shrink its
    # square); no image is read and no command spawned before the check
    def no_work(z):
        raise AssertionError("the image was read")

    monkeypatch.setattr(denoisers, "as_grid", no_work)
    if kind == "shrink":
        denoiser = ShrinkDenoiser(0.01)
    else:
        denoiser = build_denoiser(kind, "/definitely/not/a/real/binary" if kind == "external" else None)
    with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
        denoiser(np.zeros((32, 32)), sigma)


# ---------------------------------------------------------------------------
# individual behaviours
# ---------------------------------------------------------------------------


def test_median_constant_image_is_fixed_point():
    z = np.full((10, 10), 33.0)
    assert np.array_equal(MedianDenoiser()(z, 5.0), z)


def test_median_removes_isolated_outlier():
    z = np.full((9, 9), 50.0)
    z[4, 4] = 255.0
    out = MedianDenoiser()(z, 5.0)
    assert out[4, 4] == 50.0


def _reference_median(z):
    """The np.median-over-a-sliding-view MedianDenoiser, kept as the oracle."""
    padded = np.pad(z, 1, mode="edge")
    return np.median(sliding_window_view(padded, (3, 3)), axis=(2, 3))


def _median_inputs(seed, shape):
    size = shape[0] * shape[1]
    picks = RngState(seed).raw(size).reshape(shape) % 4
    return {
        "noise": _random_grid(seed, *shape),
        # a handful of integers: most windows hold ties
        "integers": np.round(_random_grid(seed, *shape, scale=1.5, offset=0.0)),
        "signed_zeros": np.array([-1.0, -0.0, 0.0, 1.0])[picks],
    }


_MEDIAN_SHAPES = [(1, 1), (1, 7), (7, 1), (2, 3), (37, 53), (64, 64), (70, 256), (300, 40), (513, 17), (3, 9000)]


def _assert_median_is_exact(z):
    # selection only compares and copies, so the result is exact, down to
    # the sign of zero, across strip seams
    out = MedianDenoiser()(z, 5.0)
    ref = _reference_median(z)
    assert np.array_equal(out, ref)
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("shape", _MEDIAN_SHAPES)
@pytest.mark.parametrize("strip_rows", [1, 3, 5, 7])
@pytest.mark.parametrize("kind", ["noise", "integers", "signed_zeros"])
def test_median_matches_reference(shape, strip_rows, kind, monkeypatch):
    # strips of a fixed height put seams into every shape, the last strip
    # partial wherever the height does not divide the rows
    monkeypatch.setattr(denoisers, "_MEDIAN_STRIP_PIXELS", strip_rows * shape[1])
    _assert_median_is_exact(_median_inputs(27, shape)[kind])


# at the default strip size the last four shapes span several row strips,
# the last of them partial; at 3 x 9000 every strip is one row wide
@pytest.mark.parametrize("shape", _MEDIAN_SHAPES)
@pytest.mark.parametrize("kind", ["noise", "integers", "signed_zeros"])
def test_median_matches_reference_in_default_strips(shape, kind):
    _assert_median_is_exact(_median_inputs(27, shape)[kind])


@pytest.mark.parametrize("limit_mib", [6.0, 2.0], ids=["3-6.0", "3-2.0"])
def test_median_allocates_no_stack_of_windows(limit_mib):
    # np.median over the 3 x 3 sliding view peaks at 10.6 MiB.  2 MiB is
    # four 256^2 images: row strips keep the selection's temporaries
    # strip-sized, where image-sized ones peaked at 4 MiB
    z = _random_grid(28, 256, 256)
    denoiser = MedianDenoiser()
    tracemalloc.start()
    try:
        denoiser(z, 5.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20


def _reference_gaussian(z, sigma):
    """GaussianDenoiser as one 2-D sum: the outer product of the normalised
    taps over z reflect-padded on both axes, kept as the oracle."""
    std = sigma / 20.0
    radius = max(1, int(np.ceil(3.0 * std)))
    taps = np.exp(-0.5 * (np.arange(-radius, radius + 1) / std) ** 2)
    taps /= taps.sum()
    padded = np.pad(z, radius, mode="reflect")
    out = np.zeros_like(z)
    for a, row_tap in enumerate(taps):
        for b, col_tap in enumerate(taps):
            out += row_tap * col_tap * padded[a : a + z.shape[0], b : b + z.shape[1]]
    return out


def _two_pass_gaussian(z, sigma):
    """GaussianDenoiser as two passes with products of their own: the
    columns by an ``axis=0`` window product, then the rows by an ``axis=1``
    product.  Kept as the oracle of the one pass that serves both axes."""
    std = sigma / 20.0
    radius = max(1, int(np.ceil(3.0 * std)))
    taps = np.exp(-0.5 * (np.arange(-radius, radius + 1) / std) ** 2)
    taps /= taps.sum()
    padded = np.pad(z, ((radius, radius), (0, 0)), mode="reflect")
    z = sliding_window_view(padded, taps.size, axis=0) @ taps
    padded = np.pad(z, ((0, 0), (radius, radius)), mode="reflect")
    return sliding_window_view(padded, taps.size, axis=1) @ taps


@pytest.mark.parametrize("shape", [(32, 32), (37, 53), (5, 40), (40, 3)])
@pytest.mark.parametrize("sigma", [5.0, 25.0, 60.0])
def test_gaussian_matches_reference(shape, sigma):
    # sigma 60 has a radius of 9 taps, more than the 5- and 3-pixel sides
    z = _random_grid(29, *shape)
    out = GaussianDenoiser()(z, sigma)
    assert out.shape == shape and out.flags.c_contiguous
    assert np.max(np.abs(out - _reference_gaussian(z, sigma))) <= 1e-12 * np.max(np.abs(z))
    assert np.max(np.abs(out - _two_pass_gaussian(z, sigma))) <= 1e-12 * np.max(np.abs(z))


def test_dct_suppresses_pure_noise():
    # Monte-Carlo noise-only oracle: thresholding at 3 sigma should kill
    # nearly all AC energy, leaving well under half the input deviation
    sigma = 25.0
    noise = add_gaussian_noise(np.zeros((128, 128)), sigma, RngState(4))
    out = DctDenoiser()(noise, sigma)
    assert float(out.std()) < 0.5 * sigma


def test_dct_preserves_strong_structure():
    z = np.zeros((32, 32))
    z[:, 16:] = 200.0
    out = DctDenoiser()(z, 5.0)
    assert abs(float(out[:, :8].mean())) < 2.0
    assert abs(float(out[:, 24:].mean()) - 200.0) < 2.0


def _reference_dct(z, sigma):
    """The 4-D einsum and 64-slice overlap-add DctDenoiser, kept as the oracle."""
    p = 8
    basis = _dct_matrix(p)
    patches = sliding_window_view(z, (p, p))
    coeffs = np.einsum("ab,ijbc,dc->ijad", basis, patches, basis, optimize=True)
    keep = np.abs(coeffs) > 3.0 * sigma
    keep[:, :, 0, 0] = True
    coeffs *= keep
    recon = np.einsum("ba,ijbc,cd->ijad", basis, coeffs, basis, optimize=True)
    out = np.zeros_like(z)
    weight = np.zeros_like(z)
    rows, cols = recon.shape[:2]
    for di in range(p):
        for dj in range(p):
            out[di : di + rows, dj : dj + cols] += recon[:, :, di, dj]
            weight[di : di + rows, dj : dj + cols] += 1.0
    return out / weight


# Noise levels and (strip rows, block rows) layouts of the DCT sweeps.  The
# ids keep the names of the patch sizes and threshold factors these tests
# once swept; "3.0-8" is the default layout at sigma 10, the former default
# denoiser.  Strips of 3 rows in blocks of 9 end partial at most heights.
_DCT_SIGMAS = [pytest.param(0.5, id="2"), pytest.param(25.0, id="5"), pytest.param(10.0, id="8")]
_DCT_LAYOUTS = [pytest.param((3, 9), id="0.0"), pytest.param((4, 16), id="3.0")]


def _use_dct_layout(monkeypatch, layout):
    strip_rows, block_rows = layout
    monkeypatch.setattr(denoisers, "_STRIP_ROWS", strip_rows)
    monkeypatch.setattr(denoisers, "_BLOCK_ROWS", block_rows)


@pytest.mark.parametrize("shape", [(64, 64), (37, 53), (8, 8), (8, 40), (40, 8)])
@pytest.mark.parametrize("sigma", _DCT_SIGMAS)
@pytest.mark.parametrize("layout", _DCT_LAYOUTS)
def test_dct_matches_reference(shape, sigma, layout, monkeypatch):
    # float operations are reordered, so agreement is bounded, not bit-exact
    _use_dct_layout(monkeypatch, layout)
    z = add_gaussian_noise(_random_grid(21, *shape), sigma, RngState(22))
    out = DctDenoiser()(z, sigma)
    ref = _reference_dct(z, sigma)
    assert np.max(np.abs(out - ref)) <= 1e-9


def _whole_image_dct(z, sigma, strip_rows):
    """DctDenoiser with image-sized stacks: all vertical windows transformed
    at once, strips of patch rows top-down into one (rows, p, W) column-sum
    stack, then one vertical inverse and row overlap-add; kept as the
    byte-equal oracle for the block-by-block pass.  Its horizontal products
    have the denoiser's orientation, basis @ windows^T and basis^T @ coeffs:
    on OpenBLAS's Haswell and Nehalem kernels, windows @ basis^T and
    coeffs @ basis round differently."""
    p = 8
    basis = _dct_matrix(p)
    rows, cols = z.shape[0] - p + 1, z.shape[1] - p + 1
    vertical = np.ascontiguousarray((sliding_window_view(z, p, axis=0) @ basis.T).transpose(0, 2, 1))
    column_sums = np.zeros((rows, p, z.shape[1]))
    for top in range(0, rows, strip_rows):
        # (patch row, vertical frequency, window element, patch column)
        windows = np.swapaxes(sliding_window_view(vertical[top : top + strip_rows], p, axis=2), -1, -2)
        coeffs = basis @ windows
        keep = np.abs(coeffs) > 3.0 * sigma
        keep[:, 0, 0, :] = True
        coeffs *= keep
        recon = basis.T @ coeffs
        strip = column_sums[top : top + strip_rows]
        for dj in range(p):
            strip[:, :, dj : dj + cols] += recon[:, :, dj]
    recon = basis.T @ column_sums
    out = np.zeros_like(z)
    for di in range(p):
        out[di : di + rows] += recon[:, di]
    ones = np.ones(p)
    return out / np.outer(np.convolve(np.ones(rows), ones), np.convolve(np.ones(cols), ones))


@pytest.mark.parametrize("shape", [(64, 64), (37, 53), (8, 8), (8, 40), (40, 8), (23, 17)])
@pytest.mark.parametrize("sigma", _DCT_SIGMAS)
@pytest.mark.parametrize("layout", _DCT_LAYOUTS)
def test_dct_strips_match_the_whole_image_pass_bytes(shape, sigma, layout, monkeypatch):
    # bottom-up blocks keep each pixel's sum over row offsets in increasing order
    _use_dct_layout(monkeypatch, layout)
    z = add_gaussian_noise(_random_grid(24, *shape), sigma, RngState(25))
    out = DctDenoiser()(z, sigma)
    assert out.tobytes() == _whole_image_dct(z, sigma, strip_rows=layout[0]).tobytes()


def test_dct_allocates_no_image_sized_stack(monkeypatch):
    # one (patch rows, patch, width) float64 stack: what the whole-image pass holds three of;
    # all blocks in this process, where tracemalloc sees them
    monkeypatch.setattr(denoisers, "_may_split", lambda: False)
    z = _random_grid(26, 256, 256)
    denoiser = DctDenoiser()
    stack_bytes = (256 - 7) * 8 * 256 * z.itemsize
    tracemalloc.start()
    try:
        denoiser(z, 10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes


def test_dct_allocates_no_four_dimensional_patch_tensor(monkeypatch):
    monkeypatch.setattr(denoisers, "_may_split", lambda: False)
    z = _random_grid(23, 128, 128)
    denoiser = DctDenoiser()
    patch_tensor_bytes = (128 - 7) ** 2 * 8 * 8 * z.itemsize
    tracemalloc.start()
    try:
        denoiser(z, 10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < patch_tensor_bytes


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the helper is forked")


@needs_fork
@pytest.mark.parametrize("shape", [(8, 8), (8, 40), (23, 17), (37, 53), (64, 64), (256, 256)])
@pytest.mark.parametrize("sigma", _DCT_SIGMAS)
@pytest.mark.parametrize("layout", _DCT_LAYOUTS)
def test_dct_split_with_the_helper_matches_the_in_process_pass_bytes(shape, sigma, layout, monkeypatch):
    _use_dct_layout(monkeypatch, layout)
    z = add_gaussian_noise(_random_grid(27, *shape), sigma, RngState(28))
    monkeypatch.setattr(denoisers, "_may_split", lambda: True)
    split = DctDenoiser()(z, sigma)
    monkeypatch.setattr(denoisers, "_may_split", lambda: False)
    assert split.tobytes() == DctDenoiser()(z, sigma).tobytes()


def _strided_add_blocks(z, out, top, bottom, sigma, strip_rows, block_rows):
    """``_add_blocks`` with each strip's coefficients and inverse at the
    pitch of the patch columns, fresh arrays per strip, and one 2-D
    overlap-add per column offset; kept as the byte-equal oracle of the
    row-pitch pass."""
    p = 8
    basis = _dct_matrix(p)
    threshold = 3.0 * sigma
    rows, cols = z.shape[0] - p + 1, z.shape[1] - p + 1
    held = []
    windows = sliding_window_view(z, p, axis=0)
    out[top:bottom] = 0.0
    for block_top in reversed(range(top, min(bottom, rows), block_rows)):
        block_bottom = min(block_top + block_rows, rows)
        vertical = np.ascontiguousarray((windows[block_top:block_bottom] @ basis.T).transpose(0, 2, 1))
        column_sums = np.zeros((block_bottom - block_top, p, z.shape[1]))
        for strip_top in range(0, block_bottom - block_top, strip_rows):
            strip_windows = sliding_window_view(vertical[strip_top : strip_top + strip_rows], p, axis=2)
            coeffs = basis @ np.swapaxes(strip_windows, -1, -2)
            keep = np.abs(coeffs) > threshold
            keep[:, 0, 0, :] = True
            coeffs *= keep
            recon = basis.T @ coeffs
            strip = column_sums[strip_top : strip_top + strip_rows]
            for dj in range(p):
                strip[:, :, dj : dj + cols] += recon[:, :, dj]
        recon = basis.T @ column_sums
        for di in range(p):
            target = out[block_top + di : block_bottom + di]
            target += recon[: len(target), di]
            if len(target) < block_bottom - block_top:
                held.append((block_top + di + len(target), recon[len(target) :, di]))
    return held


def _dct_inputs(shape, sigma):
    """A noisy image, an all-zero one, and one of half-integers of both
    signs, whose patch sums cancel exactly, by name."""
    return {
        "noisy": add_gaussian_noise(_random_grid(42, *shape), sigma, RngState(43)),
        "zeros": np.zeros(shape),
        "signs": np.round(_random_grid(41, *shape, scale=2.0, offset=0.0)) * 0.5,
    }


# widths of 1, 2 and 8 to 10 patch columns and one of 38; heights of one
# patch row, and of 23 and 34 rows, which end in a partial strip and block
# in both layouts
_ROW_PITCH_SHAPES = [(256, 256), (512, 512)] + [
    (height, width) for width in (8, 9, 15, 16, 17, 45) for height in (8, 30, 41)
]


@pytest.mark.parametrize("shape", _ROW_PITCH_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("sigma", _DCT_SIGMAS)
@pytest.mark.parametrize("layout", _DCT_LAYOUTS)
@pytest.mark.parametrize("split", [pytest.param(False, id="in-process"), pytest.param(True, id="split", marks=needs_fork)])
def test_dct_row_pitch_pass_matches_the_strided_pass_bytes(shape, sigma, layout, split, monkeypatch):
    # tobytes() also tells +0.0 from -0.0
    _use_dct_layout(monkeypatch, layout)
    inputs = _dct_inputs(shape, sigma)
    monkeypatch.setattr(denoisers, "_may_split", lambda: split)
    outputs = {kind: DctDenoiser()(z, sigma) for kind, z in inputs.items()}
    monkeypatch.setattr(denoisers, "_may_split", lambda: False)
    monkeypatch.setattr(denoisers, "_add_blocks", _strided_add_blocks)
    for kind, z in inputs.items():
        assert outputs[kind].tobytes() == DctDenoiser()(z, sigma).tobytes(), kind


def _row_pitch_add_blocks(z, out, top, bottom, sigma, strip_rows, block_rows):
    """``_add_blocks`` with the vertical coefficients and column sums fresh
    per block, a strip workspace fresh per call, each strip's views made as
    it runs, and its forward product on the overlapping window view; kept
    as the byte-equal oracle of the pass over prebuilt strip arguments."""
    p = 8
    basis = _dct_matrix(p)
    threshold = 3.0 * sigma
    rows, width = z.shape[0] - p + 1, z.shape[1]
    cols = width - p + 1
    coeffs = np.zeros((strip_rows, p, p, width))
    magnitudes = np.empty_like(coeffs)
    keep = np.empty(coeffs.shape, dtype=bool)
    recon = np.zeros((p, strip_rows, p, width))
    held = []
    windows = sliding_window_view(z, p, axis=0)
    out[top:bottom] = 0.0
    for block_top in reversed(range(top, min(bottom, rows), block_rows)):
        block_bottom = min(block_top + block_rows, rows)
        vertical = np.ascontiguousarray((windows[block_top:block_bottom] @ basis.T).transpose(0, 2, 1))
        block_windows = np.swapaxes(sliding_window_view(vertical, p, axis=2), -1, -2)
        column_sums = np.zeros((block_bottom - block_top, p, width))
        for strip_top in range(0, block_bottom - block_top, strip_rows):
            strip_windows = block_windows[strip_top : strip_top + strip_rows]
            n = len(strip_windows)
            strip_coeffs, strip_keep = coeffs[:n], keep[:n]
            np.matmul(basis, strip_windows, out=strip_coeffs[..., :cols])
            np.greater(np.abs(strip_coeffs, out=magnitudes[:n]), threshold, out=strip_keep)
            strip_keep[:, 0, 0] = True
            strip_coeffs *= strip_keep
            np.matmul(basis.T, strip_coeffs[..., :cols], out=recon[:, :n, :, :cols].transpose(1, 2, 0, 3))
            sums = column_sums[strip_top : strip_top + n].reshape(-1)
            for dj in range(p):
                sums[dj:] += recon[dj, :n].reshape(-1)[: sums.size - dj]
        block_recon = basis.T @ column_sums
        for di in range(p):
            target = out[block_top + di : block_bottom + di]
            target += block_recon[: len(target), di]
            if len(target) < block_bottom - block_top:
                held.append((block_top + di + len(target), block_recon[len(target) :, di]))
    return held


@pytest.mark.parametrize("shape", _ROW_PITCH_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("sigma", _DCT_SIGMAS)
@pytest.mark.parametrize("layout", _DCT_LAYOUTS)
@pytest.mark.parametrize("split", [pytest.param(False, id="in-process"), pytest.param(True, id="split", marks=needs_fork)])
def test_dct_prebuilt_strip_pass_matches_the_row_pitch_pass_bytes(shape, sigma, layout, split, monkeypatch):
    # the forward product now runs on a contiguous copy of the windows, and
    # a partial last strip or block takes its own prebuilt views
    _use_dct_layout(monkeypatch, layout)
    inputs = _dct_inputs(shape, sigma)
    monkeypatch.setattr(denoisers, "_may_split", lambda: split)
    outputs = {kind: DctDenoiser()(z, sigma) for kind, z in inputs.items()}
    monkeypatch.setattr(denoisers, "_may_split", lambda: False)
    monkeypatch.setattr(denoisers, "_add_blocks", _row_pitch_add_blocks)
    for kind, z in inputs.items():
        assert outputs[kind].tobytes() == DctDenoiser()(z, sigma).tobytes(), kind


def test_dct_workspace_is_remade_when_the_layout_or_the_width_changes(monkeypatch):
    # each step changes one of strip rows, block rows and width, and the
    # last goes back to the first: a workspace kept across a change of
    # block rows or width would be too small or too narrow
    monkeypatch.setattr(denoisers, "_may_split", lambda: False)
    steps = [((2, 8), 40), ((4, 8), 40), ((4, 16), 40), ((4, 16), 57), ((2, 8), 40)]
    made = []
    for (strip_rows, block_rows), width in steps:
        _use_dct_layout(monkeypatch, (strip_rows, block_rows))
        z = add_gaussian_noise(_random_grid(50, 45, width), 10.0, RngState(51))
        out = DctDenoiser()(z, 10.0)
        assert denoisers._dct_workspaces.key == (strip_rows, block_rows, width)
        made.append(denoisers._dct_workspaces.arrays)
        expected = np.empty_like(z)
        assert _row_pitch_add_blocks(z, expected, 0, len(z), 10.0, strip_rows, block_rows) == []
        assert out.tobytes() == (expected / denoisers._overlap_counts(z.shape)).tobytes()
    assert len({id(arrays) for arrays in made}) == len(steps)


def test_dct_calls_from_two_threads_match_their_single_threaded_bytes(fresh_helper, monkeypatch):
    # Both images have one width, so a strip workspace the threads shared
    # would mix their coefficients.  The barrier starts the calls together,
    # and a short switch interval interleaves them between numpy calls too.
    # Unpatched, a process that runs two Python threads forks no helper.
    denoiser = DctDenoiser()
    images = [add_gaussian_noise(_random_grid(44 + i, 96 + 32 * i, 128), 10.0, RngState(46 + i)) for i in range(2)]
    with monkeypatch.context() as patch:
        patch.setattr(denoisers, "_may_split", lambda: False)
        expected = [denoiser(z, 10.0).tobytes() for z in images]
    barrier = threading.Barrier(2)

    def calls(z):
        barrier.wait(timeout=10)
        return [denoiser(z, 10.0).tobytes() for _ in range(12)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            outputs = list(pool.map(calls, images, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for i, (own, single) in enumerate(zip(outputs, expected)):
        assert all(out == single for out in own), i
    assert denoisers._helper is None


@pytest.fixture
def fresh_helper():
    """No helper before the test, so the test forks its own with what it
    patched, and none left after it."""

    def stop():
        if denoisers._helper is not None:
            denoisers._helper.stop()
        denoisers._helper = None

    stop()
    yield
    stop()


@needs_fork
@pytest.mark.parametrize("slow", ["process", "helper"])
def test_dct_split_matches_the_in_process_pass_bytes_wherever_the_sides_meet(slow, fresh_helper, monkeypatch):
    # the side that sleeps before each of its blocks leaves the other all it can claim
    monkeypatch.setattr(denoisers, "_may_split", lambda: True)
    z = add_gaussian_noise(_random_grid(33, 64, 64), 10.0, RngState(34))
    blocks = len(range(0, 64 - 7, 16))
    process, add_blocks = os.getpid(), denoisers._add_blocks

    # wrapped: the helper is sent the job by its module and name
    @functools.wraps(add_blocks)
    def sleepy(*args):
        if (os.getpid() == process) == (slow == "process"):
            time.sleep(0.2)
        return add_blocks(*args)

    monkeypatch.setattr(denoisers, "_add_blocks", sleepy)
    split = DctDenoiser()(z, 10.0)
    met = int(denoisers._helper.claims[0])
    monkeypatch.setattr(denoisers, "_add_blocks", add_blocks)
    monkeypatch.setattr(denoisers, "_may_split", lambda: False)
    assert split.tobytes() == DctDenoiser()(z, 10.0).tobytes()
    assert met == 1 if slow == "process" else met >= blocks - 1


@needs_fork
def test_dct_split_claims_each_block_once_under_contention(monkeypatch):
    # small images in blocks of 9 rows: the two sides meet within microseconds
    # of each other, so a block claimed twice or never would change the bytes
    _use_dct_layout(monkeypatch, (3, 9))
    rng = RngState(35)
    deadline = time.monotonic() + 5.0
    calls = 0
    while time.monotonic() < deadline and calls < 300:
        height, width = 24 + calls % 40, 8 + (calls * 7) % 33
        z = rng.gaussians(height * width).reshape(height, width) * 40.0 + 128.0
        monkeypatch.setattr(denoisers, "_may_split", lambda: True)
        split = DctDenoiser()(z, 10.0)
        monkeypatch.setattr(denoisers, "_may_split", lambda: False)
        assert split.tobytes() == DctDenoiser()(z, 10.0).tobytes(), (height, width)
        calls += 1
    assert calls >= 50


def _running(pid):
    """Whether a process exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


# one 256^2 call of a denoiser kind with the helper engaged, then the
# helper's pid; at exit, after the handlers the call registers, whether the
# helper remains
_HELPER_PROBE = """
import atexit, os, time
from idbp import denoisers
from idbp.rng import RngState
atexit.register(lambda: print(os.path.exists(f"/proc/{{denoisers._helper.process.pid}}"), flush=True))
denoisers._may_split = lambda: True
denoisers.build_denoiser({kind!r})(RngState(29).gaussians(256 * 256).reshape(256, 256) * 40.0 + 128.0, 10.0)
print(denoisers._helper.process.pid, flush=True)
"""
# the denoiser kinds that split their calls with the helper
_SPLITTING = ["dct_threshold", "nlm"]
needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")


def _python(code, **kwargs):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-c", code], {**kwargs, "env": {**os.environ, "PYTHONPATH": path}}


@needs_fork
@needs_proc
@pytest.mark.parametrize("kind", _SPLITTING)
def test_helper_ends_with_its_process(kind):
    argv, kwargs = _python(_HELPER_PROBE.format(kind=kind), capture_output=True, text=True, timeout=60)
    proc = subprocess.run(argv, check=True, **kwargs)
    helper, remains_at_exit = proc.stdout.split()
    assert remains_at_exit == "False"
    assert not _running(int(helper))


@needs_fork
@needs_proc
@pytest.mark.parametrize("kind", _SPLITTING)
def test_helper_exits_when_its_process_is_killed(kind):
    argv, kwargs = _python(_HELPER_PROBE.format(kind=kind) + "time.sleep(60)\n", stdout=subprocess.PIPE, text=True)
    with subprocess.Popen(argv, **kwargs) as proc:
        try:
            helper = int(proc.stdout.readline())
        finally:
            proc.kill()
    assert proc.wait(timeout=5) == -signal.SIGKILL
    deadline = time.monotonic() + 5.0
    try:
        while _running(helper) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(helper)
    finally:
        if _running(helper):
            os.kill(helper, signal.SIGKILL)


@pytest.mark.parametrize("platform", ["one-cpu", "no-fork"])
def test_no_split_with_one_cpu_or_without_fork(platform, monkeypatch):
    if platform == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        monkeypatch.delattr(os, "fork", raising=False)
    assert denoisers._may_split() is False


# In a process with two BLAS threads: its task and CPU counts; after a
# rest, whether a 256^2 DCT call forked the helper and matched the
# in-process bytes; whether a call may split right after a threaded
# product, and again after another rest
_BLAS_PROBE = """
import json, os, time
import numpy as np
from idbp import denoisers
from idbp.rng import RngState
report = dict(tasks=len(os.listdir("/proc/self/task")), cpus=len(os.sched_getaffinity(0)))
z = RngState(29).gaussians(256 * 256).reshape(256, 256) * 40.0 + 128.0
time.sleep(0.5)
split = denoisers.DctDenoiser()(z, 10.0)
report.update(forked=denoisers._helper is not None)
a = np.ones((1000, 1000))
a @ a
report.update(after_product=denoisers._may_split())
time.sleep(1.0)
report.update(after_rest=denoisers._may_split())
denoisers._may_split = lambda: False
report.update(equal=split.tobytes() == denoisers.DctDenoiser()(z, 10.0).tobytes())
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def blas_threaded_child():
    """What ``_BLAS_PROBE`` reports; skips the test where the process has
    no second task or no second CPU."""
    argv, kwargs = _python(_BLAS_PROBE, capture_output=True, text=True, timeout=120)
    kwargs["env"].update(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    report = json.loads(subprocess.run(argv, check=True, **kwargs).stdout)
    if report["tasks"] < 2 or report["cpus"] < 2:
        pytest.skip(f"{report['tasks']} task(s) on {report['cpus']} CPU(s)")
    return report


@needs_fork
@needs_proc
def test_idle_blas_threads_leave_a_call_to_split_bytes_equal(blas_threaded_child):
    assert blas_threaded_child["forked"] and blas_threaded_child["equal"]


@needs_fork
@needs_proc
def test_no_split_right_after_a_threaded_blas_product_until_its_threads_rest(blas_threaded_child):
    assert not blas_threaded_child["after_product"] and blas_threaded_child["after_rest"]


@needs_fork
@pytest.mark.parametrize("kind", _SPLITTING)
def test_call_after_the_helper_dies_raises_and_the_next_forks_anew(kind, monkeypatch):
    monkeypatch.setattr(denoisers, "_may_split", lambda: True)
    denoiser = build_denoiser(kind)
    z = _random_grid(30, 64, 64)
    expected = denoiser(z, 10.0)
    os.kill(denoisers._helper.process.pid, signal.SIGKILL)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="helper process"):
        denoiser(z, 10.0)
    assert time.monotonic() - start < 5.0
    assert denoiser(z, 10.0).tobytes() == expected.tobytes()


class _Interrupted(Exception):
    pass


# each splitting kind's job
_ROWS_OF = {"dct_threshold": "_add_blocks", "nlm": "_nlm_rows"}


@needs_fork
@pytest.mark.parametrize("kind", _SPLITTING)
def test_call_after_an_aborted_exchange_reads_no_stale_reply(kind, fresh_helper, monkeypatch):
    # The helper, slowed down, answers the aborted request while this process
    # works the next call alone; a helper kept after the abort would owe one
    # reply more than the calls it serves, and the call after would take that
    # reply before the helper had added its rows.
    monkeypatch.setattr(denoisers, "_may_split", lambda: True)
    process, rows = os.getpid(), getattr(denoisers, _ROWS_OF[kind])
    aborted = False

    @functools.wraps(rows)
    def slow_helper(*args):
        if os.getpid() != process:
            time.sleep(0.2)
        elif aborted:
            raise _Interrupted
        return rows(*args)

    monkeypatch.setattr(denoisers, _ROWS_OF[kind], slow_helper)
    denoiser = build_denoiser(kind)
    first, later = _random_grid(31, 64, 64), [_random_grid(32 + i, 64, 64) for i in range(2)]
    denoiser(first, 10.0)
    aborted = True
    with pytest.raises(_Interrupted):
        denoiser(first, 10.0)
    aborted = False
    outputs = [denoiser(z, 10.0) for z in later]
    monkeypatch.setattr(denoisers, _ROWS_OF[kind], rows)
    monkeypatch.setattr(denoisers, "_may_split", lambda: False)
    for z, out in zip(later, outputs):
        assert out.tobytes() == denoiser(z, 10.0).tobytes()


@needs_fork
def test_dct_and_nlm_calls_share_one_helper(fresh_helper, monkeypatch):
    # the larger image first, so that no later call needs a larger helper
    monkeypatch.setattr(denoisers, "_may_split", lambda: True)
    calls = [(kind, _random_grid(38 + i, 64 - 8 * i, 48)) for i, kind in enumerate(_SPLITTING * 3)]
    outputs = []
    pids = set()
    for kind, z in calls:
        outputs.append(build_denoiser(kind)(z, 10.0))
        pids.add(denoisers._helper.process.pid)
    assert len(pids) == 1
    monkeypatch.setattr(denoisers, "_may_split", lambda: False)
    for (kind, z), out in zip(calls, outputs):
        assert out.tobytes() == build_denoiser(kind)(z, 10.0).tobytes(), kind


@needs_fork
@needs_proc
def test_a_larger_image_stops_the_helper_and_forks_one_anew(fresh_helper, monkeypatch):
    # the first helper's grids hold a 64^2 image; the 256^2 one needs more
    monkeypatch.setattr(denoisers, "_may_split", lambda: True)
    helper_class, forks = denoisers._Helper, []

    def counted(pixels):
        forks.append(pixels)
        return helper_class(pixels)

    monkeypatch.setattr(denoisers, "_Helper", counted)
    denoiser = DctDenoiser()
    small, large = _random_grid(47, 64, 64), _random_grid(48, 256, 256)
    denoiser(small, 10.0)
    first = denoisers._helper.process.pid
    split = denoiser(large, 10.0)
    second = denoisers._helper.process.pid
    assert forks == [64 * 64, 256 * 256] and second != first
    # stopped and reaped: not even a zombie is left
    assert not Path(f"/proc/{first}").exists()
    split_small = denoiser(small, 10.0)
    assert denoisers._helper.process.pid == second and len(forks) == 2
    monkeypatch.setattr(denoisers, "_may_split", lambda: False)
    assert split.tobytes() == denoiser(large, 10.0).tobytes()
    assert split_small.tobytes() == denoiser(small, 10.0).tobytes()


@pytest.mark.parametrize("kind, shape", [("dct_threshold", (16, 40)), ("nlm", (13, 40))])
def test_one_band_runs_its_job_once_over_all_rows_without_the_gate(kind, shape, monkeypatch):
    # a DCT image of one block of patch rows, an NLM image too short to halve
    def gate():
        raise AssertionError("a call of one band asked whether it may split")

    monkeypatch.setattr(denoisers, "_may_split", gate)
    job, bands = getattr(denoisers, _ROWS_OF[kind]), []

    def counted(z, out, top, bottom, *args):
        bands.append((top, bottom))
        return job(z, out, top, bottom, *args)

    monkeypatch.setattr(denoisers, _ROWS_OF[kind], counted)
    z = _random_grid(49, *shape)
    out = build_denoiser(kind)(z, 10.0)
    assert bands == [(0, shape[0])]
    monkeypatch.setattr(denoisers, _ROWS_OF[kind], job)
    assert out.tobytes() == build_denoiser(kind)(z, 10.0).tobytes()


@pytest.mark.parametrize("layout", [pytest.param(None, id="module"), *_DCT_LAYOUTS])
def test_dct_blocks_are_whole_strips_and_reach_no_further_than_the_block_below(layout):
    # a block's patches add to p - 1 rows past its last patch row: the split
    # holds those additions back only as far as the band below
    strip_rows, block_rows = layout or (denoisers._STRIP_ROWS, denoisers._BLOCK_ROWS)
    assert block_rows % strip_rows == 0
    assert block_rows >= denoisers._DCT_PATCH - 1


def test_dct_rejects_images_smaller_than_patch():
    with pytest.raises(ValueError, match="smaller than patch"):
        DctDenoiser()(np.zeros((4, 4)), 5.0)


def _box_mean(a, size):
    r = size // 2
    padded = np.pad(a, r, mode="reflect")
    return sliding_window_view(padded, (size, size)).mean(axis=(2, 3))


def _reference_nlm(z, sigma):
    """The sliding-view NlmDenoiser, one full patch mean per offset, kept as the oracle."""
    patch, radius = 7, 10
    h2 = (0.6 * sigma) ** 2
    noise_floor = 2.0 * sigma * sigma
    padded = np.pad(z, radius, mode="reflect")
    numerator = np.zeros_like(z)
    weight_sum = np.zeros_like(z)
    height, width = z.shape
    for di in range(-radius, radius + 1):
        for dj in range(-radius, radius + 1):
            shifted = padded[radius + di : radius + di + height, radius + dj : radius + dj + width]
            d2 = _box_mean((z - shifted) ** 2, patch)
            w = np.exp(-np.maximum(d2 - noise_floor, 0.0) / h2)
            numerator += w * shifted
            weight_sum += w
    return numerator / weight_sum


def _slab_nlm_rows(z, sigma, top, bottom, out):
    """The 2-D slab ``_nlm_rows``, every pass over strided rows of the padded
    slabs, kept as the byte-exact oracle of the pitch layout."""
    p = denoisers._NLM_PATCH
    r = p // 2
    height, width = z.shape
    rows = bottom - top
    area = float(p * p)
    noise_floor = 2.0 * sigma * sigma * area
    scale = -1.0 / ((denoisers._NLM_H_FACTOR * sigma) ** 2 * area)
    padded = np.pad(z, denoisers._NLM_SEARCH // 2 + r, mode="reflect")[top : bottom + denoisers._NLM_SEARCH - 1 + 2 * r]
    z_padded = np.pad(z, r, mode="reflect")[top : bottom + 2 * r]
    padded_rows = np.pad(np.arange(height), r, mode="reflect")
    cols = np.pad(np.arange(width), r, mode="reflect")
    border_rows = np.r_[:r, r + height : height + 2 * r]
    border_rows = border_rows[(border_rows >= top) & (border_rows < bottom + 2 * r)]
    border_cols = np.r_[:r, r + width : width + 2 * r]
    row_sources = r + padded_rows[border_rows] - top
    border_rows -= top
    col_sources = r + cols[border_cols]
    square = np.empty_like(z_padded)
    vertical = np.empty((rows, width + 2 * r))
    w = np.empty((rows, width))
    numerator = out[top:bottom]
    numerator.fill(0.0)
    weight_sum = np.zeros_like(numerator)
    for di in range(denoisers._NLM_SEARCH):
        for dj in range(denoisers._NLM_SEARCH):
            np.subtract(z_padded, padded[di : di + rows + 2 * r, dj : dj + width + 2 * r], out=square)
            square[border_rows] = square[row_sources]
            square[:, border_cols] = square[:, col_sources]
            np.square(square, out=square)
            np.copyto(vertical, square[:rows])
            for k in range(1, p):
                vertical += square[k : k + rows]
            np.copyto(w, vertical[:, :width])
            for k in range(1, p):
                w += vertical[:, k : k + width]
            w -= noise_floor
            np.maximum(w, 0.0, out=w)
            w *= scale
            np.exp(w, out=w)
            weight_sum += w
            w *= padded[di + r : di + r + rows, dj + r : dj + r + width]
            numerator += w
    numerator /= weight_sum


def _nlm_input(kind, shape):
    if kind == "noise":
        return _random_grid(24, *shape)
    if kind == "flat":  # every patch distance near the noise floor
        return np.full(shape, 100.0)
    return np.where(np.arange(shape[1]) < shape[1] // 2, 20.0, 220.0) * np.ones(shape)  # a step edge


# Images under the noise.  The ids keep the names of the (patch, search)
# sizes this test once swept; "7-21" is the noise input it always had.
# Against the 7x7 patches and the 21x21 search window, the shapes below
# 21 on a side fall inside the search window, and those below 7 inside the
# patch too.
_NLM_TINY_SHAPES = [(1, 20), (20, 1), (2, 2), (1, 1), (5, 5), (11, 11)]
_NLM_SHAPES = [(48, 48), (37, 53)] + _NLM_TINY_SHAPES
_NLM_KINDS = [pytest.param("noise", id="7-21"), pytest.param("flat", id="3-5"), pytest.param("edge", id="5-7")]
_NLM_SIGMAS = [2.0, 10.0, 50.0]


@pytest.mark.parametrize("shape", _NLM_SHAPES)
@pytest.mark.parametrize("kind", _NLM_KINDS)
@pytest.mark.parametrize("sigma", _NLM_SIGMAS)
def test_nlm_matches_reference(shape, kind, sigma):
    # float operations are reordered, so agreement is bounded, not bit-exact
    z = add_gaussian_noise(_nlm_input(kind, shape), sigma, RngState(25))
    out = NlmDenoiser()(z, sigma)
    ref = _reference_nlm(z, sigma)
    assert np.max(np.abs(out - ref)) <= 1e-9


@pytest.mark.parametrize("shape", _NLM_SHAPES + [(128, 128), (100, 256)])
@pytest.mark.parametrize("kind", _NLM_KINDS)
@pytest.mark.parametrize("sigma", _NLM_SIGMAS)
def test_nlm_rows_match_the_slab_pass_bytes(shape, kind, sigma):
    # the whole image and the two halves of a split call; a 1-row image
    # has no empty top half to work
    z = add_gaussian_noise(_nlm_input(kind, shape), sigma, RngState(25))
    height = shape[0]
    for top, bottom in [(0, height), (0, height // 2), (height // 2, height)]:
        if top == bottom:
            continue
        out, ref = np.zeros(shape), np.zeros(shape)
        denoisers._nlm_rows(z, out, top, bottom, sigma)
        _slab_nlm_rows(z, sigma, top, bottom, ref)
        assert out.tobytes() == ref.tobytes(), (top, bottom)


@pytest.mark.parametrize("value", [1e160, -1e160])
@pytest.mark.parametrize("split", [pytest.param(False, id="in-process"), pytest.param(True, id="split", marks=needs_fork)])
def test_nlm_junk_columns_raise_no_warning(value, split, fresh_helper, monkeypatch):
    # The columns past each row's width square differences of image values,
    # as the real ones do: zeros there would square to 1e320 and overflow.
    # The helper is forked under the error filter, so a warning in its half
    # kills it and fails the call.
    z = np.full((20, 23), value)
    monkeypatch.setattr(denoisers, "_may_split", lambda: split)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = NlmDenoiser()(z, 10.0)
    ref = np.empty_like(z)
    _slab_nlm_rows(z, 10.0, 0, 20, ref)
    assert out.tobytes() == ref.tobytes()


def test_nlm_allocates_no_batch_of_offsets(monkeypatch):
    # one float64 image per search row of offsets: what batching offsets
    # would hold; in-process, so that tracemalloc sees the whole call
    monkeypatch.setattr(denoisers, "_may_split", lambda: False)
    z = _random_grid(26, 128, 128)
    denoiser = NlmDenoiser()
    offset_batch_bytes = 21 * 128 * 128 * z.itemsize
    tracemalloc.start()
    try:
        denoiser(z, 20.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < offset_batch_bytes


@needs_fork
@pytest.mark.parametrize("shape", _NLM_SHAPES + [(128, 128), (256, 256)])
@pytest.mark.parametrize("kind", _NLM_KINDS)
@pytest.mark.parametrize("sigma", _NLM_SIGMAS)
def test_nlm_split_with_the_helper_matches_the_in_process_pass_bytes(shape, kind, sigma, monkeypatch):
    z = add_gaussian_noise(_nlm_input(kind, shape), sigma, RngState(25))
    tiny = shape in _NLM_TINY_SHAPES
    share_rows, splits = denoisers._share_rows, []

    def counted(z, out, bounds, *args):
        if len(bounds) == 3:
            splits.append(z.shape)
        share_rows(z, out, bounds, *args)

    monkeypatch.setattr(denoisers, "_share_rows", counted)
    if tiny:
        monkeypatch.setattr(denoisers, "_helper", None)
    monkeypatch.setattr(denoisers, "_may_split", lambda: True)
    split = NlmDenoiser()(z, sigma)
    assert splits == ([] if tiny else [shape])
    if tiny:
        assert denoisers._helper is None
    monkeypatch.setattr(denoisers, "_may_split", lambda: False)
    assert split.tobytes() == NlmDenoiser()(z, sigma).tobytes()


def test_nlm_averages_repeating_texture():
    # noisy constant image: plenty of similar patches, noise should shrink
    sigma = 20.0
    z = add_gaussian_noise(np.full((32, 32), 100.0), sigma, RngState(5))
    out = NlmDenoiser()(z, sigma)
    assert float((out - 100.0).std()) < 0.5 * float((z - 100.0).std())


def test_shrink_formula():
    z = _random_grid(6, 8, 8)
    out = ShrinkDenoiser(0.02)(z, 10.0)
    assert np.allclose(out, z / 3.0, atol=1e-12)


@pytest.mark.parametrize("gamma", [np.nan, -1.0, np.inf], ids=["nan", "negative", "inf"])
def test_shrink_rejects_an_unusable_gamma(gamma):
    # a NaN gamma gave an all-NaN grid and an infinite one zeros
    with pytest.raises(ValueError, match="gamma must be finite and nonnegative"):
        ShrinkDenoiser(gamma)


def test_oracle_linear_definition():
    truth = _random_grid(7, 8, 8)
    z = _random_grid(8, 8, 8)
    out = OracleLinearDenoiser(0.3, truth)(z, 5.0)
    assert np.array_equal(out, 0.3 * truth + 0.7 * z)


def test_build_denoiser_dispatch():
    assert isinstance(build_denoiser("median"), MedianDenoiser)
    with pytest.raises(TypeError):
        build_denoiser("median", "cat")  # a native kind runs no command
    assert build_denoiser("external", "cat").command == "cat"
    # shrink and the oracle need a gamma or a ground truth: they are built directly
    for kind in ("shrink", "oracle_linear", "bm3d"):
        with pytest.raises(ValueError, match=f"unknown denoiser kind '{kind}'"):
            build_denoiser(kind)


@pytest.mark.parametrize("kind", DENOISERS)
def test_experiment_spec_builds_every_kind(kind):
    assert bench.DENOISERS is DENOISERS
    command = "cat" if kind == "external" else None
    assert bench.ExperimentSpec(task="inpaint", denoiser=kind, external_cmd=command).build_denoiser().kind == kind


# ---------------------------------------------------------------------------
# pairwise distance inflation and condition estimation
# ---------------------------------------------------------------------------


def test_pairwise_distance_inflation_bounded_by_twice_sigma_bound():
    # ||D(z1) - D(z2)|| <= ||z1 - z2|| + 2 sigma B with B measured on z1, z2
    sigma = 10.0
    denoiser = DctDenoiser()
    rng = RngState(9)
    for _ in range(5):
        z1 = rng.gaussians(1024).reshape(32, 32) * 40 + 128
        z2 = rng.gaussians(1024).reshape(32, 32) * 40 + 128
        d1, d2 = denoiser(z1, sigma), denoiser(z2, sigma)
        bound = max(np.linalg.norm(d1 - z1), np.linalg.norm(d2 - z2)) / sigma
        lhs = float(np.linalg.norm(d1 - d2))
        rhs = float(np.linalg.norm(z1 - z2)) + 2 * sigma * bound
        assert lhs <= rhs + 1e-9


def test_estimate_conditions_oracle_linear_contraction():
    rng = RngState(10)
    truth = rng.gaussians(256).reshape(16, 16) * 30 + 120
    op = generate_random_mask(16, 16, 0.6, rng)
    samples = [rng.gaussians(256).reshape(16, 16) * 30 + 120 for _ in range(3)]
    for alpha in (0.25, 0.6, 0.9):
        diag = estimate_conditions(OracleLinearDenoiser(alpha, truth), op, samples, 5.0, RngState(11))
        assert isinstance(diag, DenoiserDiagnostics)
        assert diag.contraction_estimate_K == pytest.approx(1.0 - alpha, abs=1e-10)
        assert diag.bound_estimate_B >= 0.0


def test_oracle_linear_null_space_contraction_inequality_any_operator():
    # ||Q D(z1) - Q D(z2)|| <= (1 - alpha) ||z1 - z2|| must hold for masks
    # (exact projector) and for the regularised blur projector alike
    from idbp.operators import BlurOperator

    rng = RngState(30)
    truth = rng.gaussians(256).reshape(16, 16) * 30 + 120
    kernel = np.outer([0.2, 0.6, 0.2], [0.2, 0.6, 0.2])
    operators = [
        (generate_random_mask(16, 16, 0.7, rng), 0.0),
        (BlurOperator(kernel, (16, 16)), 1e-3 * 2.0**2),
    ]
    alpha = 0.35
    denoiser = OracleLinearDenoiser(alpha, truth)
    for op, weight in operators:
        for _ in range(10):
            z1 = rng.gaussians(256).reshape(16, 16) * 40 + 100
            z2 = rng.gaussians(256).reshape(16, 16) * 40 + 100
            lhs = float(np.linalg.norm(op.project_null(denoiser(z1, 5.0), weight)
                                       - op.project_null(denoiser(z2, 5.0), weight)))
            rhs = (1.0 - alpha) * float(np.linalg.norm(z1 - z2))
            assert lhs <= rhs + 1e-9


def test_estimate_conditions_identity_denoiser_has_zero_bound():
    class Identity:
        kind = "identity"

        def __call__(self, z, sigma):
            return np.array(z, dtype=float, copy=True)

    rng = RngState(12)
    op = generate_random_mask(16, 16, 0.5, rng)
    samples = [rng.gaussians(256).reshape(16, 16) for _ in range(2)]
    diag = estimate_conditions(Identity(), op, samples, 5.0, RngState(13))
    assert diag.bound_estimate_B == 0.0


def test_estimate_conditions_median_constant_contributes_zero_bound():
    rng = RngState(14)
    op = generate_random_mask(16, 16, 0.5, rng)
    diag = estimate_conditions(MedianDenoiser(), op, [np.full((16, 16), 9.0)], 5.0, RngState(15))
    assert diag.bound_estimate_B == 0.0


def test_estimate_conditions_requires_samples_and_positive_sigma():
    op = generate_random_mask(8, 8, 0.5, RngState(16))
    with pytest.raises(ValueError):
        estimate_conditions(MedianDenoiser(), op, [], 5.0, RngState(17))
    with pytest.raises(ValueError):
        estimate_conditions(MedianDenoiser(), op, [np.zeros((8, 8))], 0.0, RngState(18))


# ---------------------------------------------------------------------------
# external bridge
# ---------------------------------------------------------------------------

ECHO_CHILD = (
    "import sys;"
    "data = sys.stdin.buffer.read();"
    "nl = data.index(b'\\n');"
    "sys.stdout.buffer.write(data[nl + 1:])"
)


def _echo_command():
    return [sys.executable, "-c", ECHO_CHILD]


def test_external_echo_round_trip():
    z = _random_grid(20, 12, 9).astype("<f4").astype(np.float64)  # representable in float32
    out = ExternalDenoiser(_echo_command())(z, 10.0)
    assert np.array_equal(out, z)


def test_external_header_bytes_exact():
    child = (
        "import sys;"
        "data = sys.stdin.buffer.read();"
        "nl = data.index(b'\\n');"
        "header = data[:nl + 1];"
        "sys.exit(3) if header != sys.argv[1].encode() + b'\\n' else None;"
        "sys.stdout.buffer.write(data[nl + 1:])"
    )
    z = np.zeros((256, 256))
    denoiser = ExternalDenoiser([sys.executable, "-c", child, "IDBP1 256 256 10"])
    assert np.array_equal(denoiser(z, 10.0), z)
    with pytest.raises(ExternalDenoiserError, match="status 3"):
        denoiser(z, 10.5)


def test_external_fractional_sigma_header():
    child = (
        "import sys;"
        "data = sys.stdin.buffer.read();"
        "nl = data.index(b'\\n');"
        "sys.exit(3) if data[:nl] != b'IDBP1 4 6 2.5' else None;"
        "sys.stdout.buffer.write(data[nl + 1:])"
    )
    ExternalDenoiser([sys.executable, "-c", child])(np.zeros((4, 6)), 2.5)


def test_external_truncated_output_names_byte_counts():
    child = (
        "import sys;"
        "data = sys.stdin.buffer.read();"
        "nl = data.index(b'\\n');"
        "sys.stdout.buffer.write(data[nl + 1:-4])"
    )
    with pytest.raises(ExternalDenoiserError, match=r"expected 256 .*received 252"):
        ExternalDenoiser([sys.executable, "-c", child])(np.zeros((8, 8)), 1.0)


def test_external_spawn_failure():
    with pytest.raises(ExternalDenoiserError, match="cannot spawn"):
        ExternalDenoiser(["/definitely/not/a/real/binary"])(np.zeros((4, 4)), 1.0)


@pytest.mark.parametrize("target", ["directory", "file without the execute bit"])
def test_external_command_that_cannot_run_is_a_spawn_failure(target, tmp_path):
    command = tmp_path / "denoiser"
    if target == "directory":
        command.mkdir()
    else:
        command.write_text("#!/bin/sh\n")
        command.chmod(0o644)
    with pytest.raises(ExternalDenoiserError, match="cannot spawn"):
        ExternalDenoiser([str(command)])(np.zeros((4, 4)), 1.0)


def test_external_timeout(monkeypatch):
    monkeypatch.setattr(denoisers, "_EXTERNAL_TIMEOUT_S", 0.5)
    child = "import time,sys; sys.stdin.buffer.read(); time.sleep(10)"
    with pytest.raises(ExternalDenoiserError, match="timed out after 0.5 s"):
        ExternalDenoiser([sys.executable, "-c", child])(np.zeros((4, 4)), 1.0)


def test_external_command_as_string_is_shell_split():
    out = ExternalDenoiser(f"{sys.executable} -c \"{ECHO_CHILD}\"")(np.zeros((3, 3)), 1.0)
    assert np.array_equal(out, np.zeros((3, 3)))


def test_external_denoiser_object():
    den = ExternalDenoiser(_echo_command())
    assert den.kind == "external"
    z = np.full((5, 5), 7.0)
    assert np.array_equal(den(z, 3.0), z)
