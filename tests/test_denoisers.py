import sys
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from idbp import denoisers
from idbp.denoisers import (
    DctDenoiser,
    DenoiserDiagnostics,
    ExternalDenoiser,
    ExternalDenoiserError,
    GaussianDenoiser,
    MedianDenoiser,
    NlmDenoiser,
    OracleLinearDenoiser,
    ShrinkDenoiser,
    build_denoiser,
    estimate_conditions,
    external_denoise,
)
from idbp.denoisers import _dct_matrix
from idbp.grid import add_gaussian_noise
from idbp.operators import generate_random_mask
from idbp.rng import RngState

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


def test_denoisers_reject_non_finite_input():
    z = np.ones((16, 16))
    z[3, 3] = np.inf
    with pytest.raises(ValueError):
        DctDenoiser()(z, 5.0)


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


def _reference_dct(z, sigma, patch=8, threshold_factor=3.0):
    """The 4-D einsum and 64-slice overlap-add DctDenoiser, kept as the oracle."""
    p = patch
    basis = _dct_matrix(p)
    patches = sliding_window_view(z, (p, p))
    coeffs = np.einsum("ab,ijbc,dc->ijad", basis, patches, basis, optimize=True)
    keep = np.abs(coeffs) > threshold_factor * sigma
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


@pytest.mark.parametrize("shape", [(64, 64), (37, 53), (8, 8), (8, 40), (40, 8)])
@pytest.mark.parametrize("patch", [2, 5, 8])
@pytest.mark.parametrize("threshold_factor", [0.0, 3.0])
def test_dct_matches_reference(shape, patch, threshold_factor):
    # float operations are reordered, so agreement is bounded, not bit-exact
    sigma = 10.0
    z = add_gaussian_noise(_random_grid(21, *shape), sigma, RngState(22))
    out = DctDenoiser(patch, threshold_factor)(z, sigma)
    ref = _reference_dct(z, sigma, patch, threshold_factor)
    assert np.max(np.abs(out - ref)) <= 1e-9


def _whole_image_dct(z, sigma, patch=8, threshold_factor=3.0, strip_rows=4):
    """DctDenoiser with image-sized stacks: all vertical windows transformed
    at once, strips of patch rows top-down into one (rows, p, W) column-sum
    stack, then one vertical inverse and row overlap-add; kept as the
    byte-equal oracle for the block-by-block pass."""
    p = patch
    basis = _dct_matrix(p)
    rows, cols = z.shape[0] - p + 1, z.shape[1] - p + 1
    vertical = np.ascontiguousarray((sliding_window_view(z, p, axis=0) @ basis.T).transpose(0, 2, 1))
    column_sums = np.zeros((rows, p, z.shape[1]))
    for top in range(0, rows, strip_rows):
        coeffs = sliding_window_view(vertical[top : top + strip_rows], p, axis=2) @ basis.T
        keep = np.abs(coeffs) > threshold_factor * sigma
        keep[:, 0, :, 0] = True
        coeffs *= keep
        recon = coeffs @ basis
        strip = column_sums[top : top + strip_rows]
        for dj in range(p):
            strip[:, :, dj : dj + cols] += recon[..., dj]
    recon = basis.T @ column_sums
    out = np.zeros_like(z)
    for di in range(p):
        out[di : di + rows] += recon[:, di]
    ones = np.ones(p)
    return out / np.outer(np.convolve(np.ones(rows), ones), np.convolve(np.ones(cols), ones))


@pytest.mark.parametrize("shape", [(64, 64), (37, 53), (8, 8), (8, 40), (40, 8), (23, 17)])
@pytest.mark.parametrize("patch", [2, 5, 8])
@pytest.mark.parametrize("threshold_factor", [0.0, 3.0])
def test_dct_strips_match_the_whole_image_pass_bytes(shape, patch, threshold_factor):
    # bottom-up blocks keep each pixel's sum over row offsets in increasing order
    sigma = 10.0
    z = add_gaussian_noise(_random_grid(24, *shape), sigma, RngState(25))
    out = DctDenoiser(patch, threshold_factor)(z, sigma)
    assert out.tobytes() == _whole_image_dct(z, sigma, patch, threshold_factor).tobytes()


def test_dct_allocates_no_image_sized_stack():
    # one (patch rows, patch, width) float64 stack: what the whole-image pass holds three of
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


def test_dct_allocates_no_four_dimensional_patch_tensor():
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


def test_dct_rejects_images_smaller_than_patch():
    with pytest.raises(ValueError, match="smaller than patch"):
        DctDenoiser()(np.zeros((4, 4)), 5.0)


def _box_mean(a, size):
    r = size // 2
    padded = np.pad(a, r, mode="reflect")
    return sliding_window_view(padded, (size, size)).mean(axis=(2, 3))


def _reference_nlm(z, sigma, patch=7, search=21, h_factor=0.6):
    """The sliding-view NlmDenoiser, one full patch mean per offset, kept as the oracle."""
    radius = search // 2
    h2 = (h_factor * sigma) ** 2
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


# the small shapes fall below the search window, the patch, or both
@pytest.mark.parametrize(
    "shape", [(48, 48), (37, 53), (1, 20), (20, 1), (2, 2), (1, 1), (5, 5), (11, 11)]
)
@pytest.mark.parametrize("patch, search", [(7, 21), (3, 5), (5, 7)])
@pytest.mark.parametrize("sigma", [2.0, 10.0, 50.0])
def test_nlm_matches_reference(shape, patch, search, sigma):
    # float operations are reordered, so agreement is bounded, not bit-exact
    z = add_gaussian_noise(_random_grid(24, *shape), sigma, RngState(25))
    out = NlmDenoiser(patch, search)(z, sigma)
    ref = _reference_nlm(z, sigma, patch, search)
    assert np.max(np.abs(out - ref)) <= 1e-9


def test_nlm_allocates_no_batch_of_offsets():
    # one float64 image per search row of offsets: what batching offsets would hold
    z = _random_grid(26, 128, 128)
    denoiser = NlmDenoiser()
    offset_batch_bytes = denoiser.search * 128 * 128 * z.itemsize
    tracemalloc.start()
    try:
        denoiser(z, 20.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < offset_batch_bytes


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


def test_oracle_linear_definition():
    truth = _random_grid(7, 8, 8)
    z = _random_grid(8, 8, 8)
    out = OracleLinearDenoiser(0.3, truth)(z, 5.0)
    assert np.array_equal(out, 0.3 * truth + 0.7 * z)


def test_build_denoiser_dispatch():
    assert isinstance(build_denoiser("median"), MedianDenoiser)
    with pytest.raises(TypeError):
        build_denoiser("median", window=5)
    assert build_denoiser("shrink", gamma=0.1).gamma == 0.1
    with pytest.raises(ValueError, match="unknown denoiser kind"):
        build_denoiser("bm3d")


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
    out = external_denoise(_echo_command(), z, 10.0)
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
    out = external_denoise([sys.executable, "-c", child, "IDBP1 256 256 10"], z, 10.0)
    assert np.array_equal(out, z)
    with pytest.raises(ExternalDenoiserError, match="status 3"):
        external_denoise([sys.executable, "-c", child, "IDBP1 256 256 10"], z, 10.5)


def test_external_fractional_sigma_header():
    child = (
        "import sys;"
        "data = sys.stdin.buffer.read();"
        "nl = data.index(b'\\n');"
        "sys.exit(3) if data[:nl] != b'IDBP1 4 6 2.5' else None;"
        "sys.stdout.buffer.write(data[nl + 1:])"
    )
    external_denoise([sys.executable, "-c", child], np.zeros((4, 6)), 2.5)


def test_external_truncated_output_names_byte_counts():
    child = (
        "import sys;"
        "data = sys.stdin.buffer.read();"
        "nl = data.index(b'\\n');"
        "sys.stdout.buffer.write(data[nl + 1:-4])"
    )
    with pytest.raises(ExternalDenoiserError, match=r"expected 256 .*received 252"):
        external_denoise([sys.executable, "-c", child], np.zeros((8, 8)), 1.0)


def test_external_spawn_failure():
    with pytest.raises(ExternalDenoiserError, match="cannot spawn"):
        external_denoise(["/definitely/not/a/real/binary"], np.zeros((4, 4)), 1.0)


def test_external_timeout():
    child = "import time,sys; sys.stdin.buffer.read(); time.sleep(10)"
    with pytest.raises(ExternalDenoiserError, match="timed out"):
        external_denoise([sys.executable, "-c", child], np.zeros((4, 4)), 1.0, timeout=0.5)


def test_external_command_as_string_is_shell_split():
    out = external_denoise(f"{sys.executable} -c \"{ECHO_CHILD}\"", np.zeros((3, 3)), 1.0)
    assert np.array_equal(out, np.zeros((3, 3)))


def test_external_denoiser_object():
    den = ExternalDenoiser(_echo_command())
    assert den.kind == "external"
    z = np.full((5, 5), 7.0)
    assert np.array_equal(den(z, 3.0), z)
