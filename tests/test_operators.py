import tracemalloc
from collections import Counter

import numpy as np
import pytest

from idbp.bench import synthesize_deblurring
from idbp.grid import add_gaussian_noise, sum_of_squares
from idbp.operators import (
    SCENARIO_NOISE_VARIANCE,
    BlurOperator,
    InpaintingOperator,
    generate_random_mask,
    generate_scenario_kernel,
    kernel_spectrum,
)
from idbp.rng import RngState
from idbp.solvers import IdbpConfig, PnpConfig, idbp_run, pnp_run


def _random_grid(seed, h, w, scale=40.0, offset=128.0):
    return RngState(seed).gaussians(h * w).reshape(h, w) * scale + offset


def _delta_kernel(size=3):
    k = np.zeros((size, size))
    k[size // 2, size // 2] = 1.0
    return k


# ---------------------------------------------------------------------------
# Spectral engine vs a direct DFT oracle
# ---------------------------------------------------------------------------


def _complex_kernel_spectrum(kernel, shape):
    """The kernel's full spectrum by complex fft2: the oracle of
    ``kernel_spectrum``'s half spectrum and of the complex-transform
    references."""
    kh, kw = kernel.shape
    padded = np.zeros(shape)
    padded[:kh, :kw] = kernel
    return np.fft.fft2(np.roll(padded, shift=(-(kh // 2), -(kw // 2)), axis=(0, 1)))


def _direct_dft2(x):
    h, w = x.shape
    wh = np.exp(-2j * np.pi * np.outer(np.arange(h), np.arange(h)) / h)
    ww = np.exp(-2j * np.pi * np.outer(np.arange(w), np.arange(w)) / w)
    return wh @ x @ ww.T


@pytest.mark.parametrize("shape", [(8, 8), (15, 15), (12, 17), (32, 32)])
def test_fft2_matches_direct_dft(shape):
    x = _random_grid(1, *shape)
    got = np.fft.fft2(x)
    want = _direct_dft2(x)
    assert np.max(np.abs(got - want)) < 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("size", [15, 64, 100, 256])
def test_fft2_round_trip_and_parseval(size):
    x = _random_grid(2, size, size)
    spectrum = np.fft.fft2(x)
    back = np.fft.ifft2(spectrum)
    assert np.max(np.abs(back - x)) < 1e-10 * np.max(np.abs(x))
    space = float(np.sum(x * x))
    freq = float(np.sum(np.abs(spectrum) ** 2)) / x.size
    assert abs(space - freq) < 1e-9 * space


def test_constant_image_concentrates_in_dc_bin():
    spectrum = np.fft.fft2(np.full((16, 16), 7.0))
    dc = spectrum[0, 0]
    assert dc == pytest.approx(7.0 * 256)
    spectrum[0, 0] = 0
    assert np.max(np.abs(spectrum)) < 1e-10 * abs(dc)


def test_convolution_theorem_against_explicit_circular_sum():
    # direct O(n^2 k^2) circular convolution as the oracle
    x = _random_grid(3, 10, 13)
    kernel = generate_scenario_kernel(4)
    op = BlurOperator(kernel, x.shape)
    got = op.forward(x)
    h, w = x.shape
    kh, kw = kernel.shape
    want = np.zeros_like(x)
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for a in range(kh):
                for b in range(kw):
                    acc += kernel[a, b] * x[(i - (a - kh // 2)) % h, (j - (b - kw // 2)) % w]
            want[i, j] = acc
    assert np.max(np.abs(got - want)) < 1e-10
    # and in the frequency domain, on the half spectra: F{h * x} = F{h} . F{x}
    spectrum = np.fft.rfft2(x)
    kernel_dft = kernel_spectrum(kernel, x.shape)
    assert np.max(np.abs(np.fft.rfft2(got) - kernel_dft * spectrum)) < 1e-9 * np.max(np.abs(spectrum))


# ---------------------------------------------------------------------------
# Inpainting operator
# ---------------------------------------------------------------------------


def test_all_true_mask_is_identity_forward_and_zero_null():
    x = _random_grid(4, 8, 8)
    op = InpaintingOperator(np.ones((8, 8), dtype=bool))
    assert np.array_equal(op.forward(x), x)
    assert np.array_equal(op.project_null(x), np.zeros((8, 8)))


def test_pseudoinverse_zero_pads_missing_entries():
    mask = np.zeros((1, 4), dtype=bool)
    mask[0, 0] = mask[0, 2] = True
    op = InpaintingOperator(mask)
    y = np.array([[5.0, 0.0, 7.0, 0.0]])
    assert np.array_equal(op.pseudoinverse(y), np.array([[5.0, 0.0, 7.0, 0.0]]))


def test_projection_algebra_exact():
    rng = RngState(5)
    for _ in range(50):
        op = generate_random_mask(12, 12, float(rng.uniforms(1)[0] * 0.9), rng)
        x = rng.gaussians(144).reshape(12, 12) * 50 + 100
        y = op.forward(rng.gaussians(144).reshape(12, 12) * 50 + 100)
        assert np.array_equal(op.forward(op.pseudoinverse(y)), y)
        q = op.project_null(x)
        assert np.array_equal(op.project_null(q), q)
        assert float(np.vdot(op.forward(x), op.project_null(x))) == 0.0
        # norm identity behind the zero-delta choice
        residual = y - op.forward(x)
        assert float(np.linalg.norm(residual)) == float(np.linalg.norm(op.pseudoinverse(residual)))


def test_mask_generation_counts_and_determinism():
    op0 = generate_random_mask(10, 10, 0.0, RngState(1))
    assert int(op0.mask.sum()) == 100
    a = generate_random_mask(10, 10, 0.8, RngState(2))
    b = generate_random_mask(10, 10, 0.8, RngState(2))
    c = generate_random_mask(10, 10, 0.8, RngState(3))
    assert int(a.mask.sum()) == 20
    assert np.array_equal(a.mask, b.mask)
    assert not np.array_equal(a.mask, c.mask)


def test_mask_generation_with_nothing_missing_observes_every_pixel():
    rng = RngState(4, counter=3)
    op = generate_random_mask(7, 9, 0.0, rng)
    assert op.mask.all() and op.mask.shape == (7, 9)
    assert rng.counter == 3


def test_mask_generation_with_one_pixel_left_observes_the_oracles_pixel():
    # imported here: the heap-page fault probe of test_solvers imports this
    # module, and what it loads moves the probe's heap layout
    from test_rng import _reference_shuffle

    rng, ref = RngState(5), RngState(5)
    op = generate_random_mask(10, 10, 0.99, rng)
    kept = _reference_shuffle(ref, 100, 99)[99:]
    assert np.flatnonzero(op.mask).tolist() == kept.tolist()
    assert rng.counter == ref.counter == 99


def test_mask_generation_that_rounds_to_every_pixel_missing_is_rejected():
    with pytest.raises(ValueError, match="mask observes no pixels"):
        generate_random_mask(10, 10, 0.996, RngState(6))


def test_mask_generation_allocates_under_six_grids():
    # the swap loop on a list of Python ints peaked at 9.8 grids
    grid_bytes = 256 * 256 * 8
    tracemalloc.start()
    try:
        generate_random_mask(256, 256, 0.8, RngState(7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * grid_bytes


def test_mask_generation_rejects_bad_fraction():
    for frac in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            generate_random_mask(4, 4, frac, RngState(0))


def test_all_missing_mask_rejected():
    with pytest.raises(ValueError):
        InpaintingOperator(np.zeros((3, 3), dtype=bool))


# ---------------------------------------------------------------------------
# Blur operator
# ---------------------------------------------------------------------------


def test_delta_kernel_forward_is_identity():
    x = _random_grid(6, 16, 16)
    op = BlurOperator(_delta_kernel(), (16, 16))
    assert np.max(np.abs(op.forward(x) - x)) < 1e-10


def test_uniform_kernel_preserves_constants():
    op = BlurOperator(np.full((3, 3), 1.0 / 9.0), (8, 8))
    out = op.forward(np.full((8, 8), 100.0))
    assert np.max(np.abs(out - 100.0)) < 1e-10


def test_delta_kernel_regularised_inverse_scales():
    # denominator 1 + epsilon sigma^2 = 1.02 everywhere
    op = BlurOperator(_delta_kernel(), (8, 8))
    y = _random_grid(7, 8, 8)
    assert np.max(np.abs(op.pseudoinverse(y, 0.02 * 1.0**2) - y / 1.02)) < 1e-12


def test_unregularised_inverse_round_trip_on_invertible_kernel():
    # taps chosen so the 1-D spectrum 0.6 + 0.4 cos stays strictly positive
    taps = np.array([0.2, 0.6, 0.2])
    kernel = np.outer(taps, taps)
    x = _random_grid(8, 32, 32)
    op = BlurOperator(kernel, (32, 32))
    assert np.max(np.abs(op.pseudoinverse(op.forward(x)) - x)) < 1e-8


def test_tikhonov_damping_is_monotone_in_epsilon():
    kernel = generate_scenario_kernel(2)
    y = _random_grid(9, 32, 32)
    op = BlurOperator(kernel, (32, 32))
    norms = []
    for eps in (1e-4, 1e-3, 1e-2, 1e-1):
        norms.append(float(np.linalg.norm(op.pseudoinverse(y, eps * 2.0**2))))
    assert all(a >= b for a, b in zip(norms, norms[1:]))


def _asymmetric_kernel(seed, shape):
    # a lopsided kernel has a general complex spectrum, not |S| = 1 or real S
    kernel = RngState(seed).uniforms(shape[0] * shape[1]).reshape(shape) + 0.1
    return kernel / kernel.sum()


def _dense_matrix(op):
    n = op.shape[0] * op.shape[1]
    return np.stack([op.forward(e.reshape(op.shape)).ravel() for e in np.eye(n)], axis=1)


EPSILON, SIGMA_N = 0.01, 1.5
WEIGHT = EPSILON * SIGMA_N**2
_MASK = generate_random_mask(6, 8, 0.5, RngState(16))

# (operator, weight w of its pseudoinverse and null projector)
DENSE_CASES = {
    "1x20-row-kernel": (BlurOperator(np.array([[0.2, 0.5, 0.3]]), (1, 20)), WEIGHT),
    "20x1-column-kernel": (BlurOperator(np.array([[0.3], [0.5], [0.2]]), (20, 1)), WEIGHT),
    "9x9-box": (BlurOperator(generate_scenario_kernel(3), (9, 9)), WEIGHT),
    "15x15-scenario-1": (BlurOperator(generate_scenario_kernel(1), (15, 15)), WEIGHT),
    "6x8-random-3x5": (BlurOperator(_asymmetric_kernel(12, (3, 5)), (6, 8)), WEIGHT),
    "1x1": (BlurOperator(np.ones((1, 1)), (1, 1)), WEIGHT),
    "6x8-mask": (_MASK, WEIGHT),
    "6x8-mask-unregularised": (_MASK, 0.0),
}


@pytest.mark.parametrize("op, w", DENSE_CASES.values(), ids=list(DENSE_CASES))
def test_blur_filters_match_dense_regularised_solve(op, w):
    # H+ y = (H^T H + w I)^+ H^T y and Q x = x - (H^T H + w I)^+ H^T H x, with
    # H built column by column; (.)^+ is the inverse for w > 0 and the
    # Moore-Penrose pseudoinverse of the singular mask system at w = 0.
    # PnP's first least-squares iterate is the same solve at w = lam sigma_n^2
    shape = op.shape
    h = _dense_matrix(op)
    n = h.shape[1]

    def regularised_solve(weight, rhs):
        return (np.linalg.pinv(h.T @ h + weight * np.eye(n)) @ rhs).reshape(shape)

    def rel_dev(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    x = _random_grid(13, *shape)
    y = _random_grid(14, *shape)
    z = _random_grid(15, *shape)
    assert rel_dev(op.pseudoinverse(y, w), regularised_solve(w, h.T @ y.ravel())) < 1e-9
    assert rel_dev(op.project_null(x, w), x - regularised_solve(w, h.T @ h @ x.ravel())) < 1e-9

    config = PnpConfig(beta=1.0, lam=0.05, iterations=1)
    first, _ = pnp_run(op, y, SIGMA_N, lambda v, sigma: v, config, init=z)
    w_pnp = config.lam * SIGMA_N**2
    assert rel_dev(first, regularised_solve(w_pnp, h.T @ y.ravel() + w_pnp * z.ravel())) < 1e-9


_WEIGHTS = (1e-3 * 2.0**2, 0.5 * 2.0**2, 0.5 * 3.0**2, 0.0)


def test_one_blur_operator_steps_at_any_weight_as_a_fresh_one():
    # the weight is an argument of the step, so one operator serves every
    # weight, in any order, exactly as an operator built for that weight
    kernel = generate_scenario_kernel(1)
    op = BlurOperator(kernel, (16, 16))
    x = _random_grid(16, 16, 16)
    y = _random_grid(17, 16, 16)
    for weight in _WEIGHTS + _WEIGHTS[::-1]:
        fresh = BlurOperator(kernel, (16, 16))
        assert op.pseudoinverse(x, weight).tobytes() == fresh.pseudoinverse(x, weight).tobytes()
        assert op.project_null(x, weight).tobytes() == fresh.project_null(x, weight).tobytes()
        got, want = op.backward_projection(y, weight)(x), fresh.backward_projection(y, weight)(x)
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]


@pytest.mark.parametrize("shape", [(16, 16), (15, 16), (16, 15), (37, 53)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("kernel", ["scenario-1", "lopsided-3x5"])
def test_blur_spectrum_is_the_one_array_built_at_construction(shape, kernel):
    # the half spectrum every apply multiplies by, built once at
    # construction; steps at any weight read it and never replace it
    kernel = _ORACLE_KERNELS[kernel]
    op = BlurOperator(kernel, shape)
    spectrum = op.spectrum
    assert spectrum.flags.c_contiguous and not spectrum.flags.writeable
    assert spectrum.shape == (shape[0], shape[1] // 2 + 1)
    assert spectrum.tobytes() == kernel_spectrum(kernel, shape).tobytes()
    # rfft2 and fft2 round differently: a few ulps of |S| <= 1, as the kernel sums to 1
    want = _complex_kernel_spectrum(kernel, shape)[:, : shape[1] // 2 + 1]
    assert np.max(np.abs(spectrum - want)) <= 1e-15
    x = _random_grid(18, *shape)
    for weight in _WEIGHTS:
        op.forward(x)
        op.backward_projection(x, weight)(x)
        op.pseudoinverse(x, weight)
        op.project_null(x, weight)
    assert op.spectrum is spectrum
    assert spectrum.tobytes() == kernel_spectrum(kernel, shape).tobytes()


def test_operators_hold_no_regularisation_state():
    # the weight is an argument of the step, never operator state
    assert set(vars(BlurOperator(_delta_kernel(), (8, 8)))) == {"kernel", "shape", "spectrum"}
    assert set(vars(generate_random_mask(8, 8, 0.5, RngState(30)))) == {"mask"}


@pytest.mark.parametrize("weight", [-1e-3, -np.inf, float("nan")], ids=["negative", "-inf", "nan"])
@pytest.mark.parametrize(
    "op", [BlurOperator(_delta_kernel(), (8, 8)), InpaintingOperator(np.ones((8, 8), dtype=bool))], ids=["blur", "mask"]
)
def test_a_negative_or_nan_weight_is_rejected(op, weight):
    x = np.ones((8, 8))
    for step in (lambda: op.backward_projection(x, weight), lambda: op.pseudoinverse(x, weight),
                 lambda: op.project_null(x, weight)):
        with pytest.raises(ValueError, match="weight must be nonnegative"):
            step()


def _reference_blur(op, x, weight):
    """The complex-FFT path the blur operators took before real transforms,
    real(ifft2(fft2(x) * filter)) with full-spectrum filters, kept as the
    oracle.  Returns (forward, pseudoinverse, project_null) of x at `weight`."""
    spectrum = _complex_kernel_spectrum(op.kernel, op.shape)
    inverse = np.conj(spectrum) / (np.abs(spectrum) ** 2 + weight)

    def apply(spectral_filter):
        return np.real(np.fft.ifft2(np.fft.fft2(x) * spectral_filter))

    return apply(spectrum), apply(inverse), x - apply(inverse * spectrum)


_ORACLE_KERNELS = {
    "scenario-1": generate_scenario_kernel(1),
    "scenario-3": generate_scenario_kernel(3),
    "scenario-4": generate_scenario_kernel(4),
    "lopsided-3x5": _asymmetric_kernel(12, (3, 5)),
}
# w = 0 only where the spectrum stays away from zero: the box and binomial
# kernels have (near-)zeros on these grids, so they run regularised only
_ORACLE_WEIGHTS = {
    "w0": (0.0, ("scenario-1", "lopsided-3x5")),
    "w0.0225": (WEIGHT, tuple(_ORACLE_KERNELS)),
    "w0.002": (5e-4 * 2.0**2, tuple(_ORACLE_KERNELS)),
}
ORACLE_CASES = [
    pytest.param(shape, kernel, weight, id=f"{shape[0]}x{shape[1]}-{kernel}-{name}")
    for shape in ((16, 16), (15, 16), (16, 15), (37, 53))
    for name, (weight, kernels) in _ORACLE_WEIGHTS.items()
    for kernel in kernels
]


@pytest.mark.parametrize("shape, kernel, weight", ORACLE_CASES)
def test_real_transform_blur_matches_complex_reference(shape, kernel, weight):
    # odd widths need irfft2's s=: W//2 + 1 columns also fit a width of W - 1
    op = BlurOperator(_ORACLE_KERNELS[kernel], shape)
    x = _random_grid(20, *shape)
    got_all = (op.forward(x), op.pseudoinverse(x, weight), op.project_null(x, weight))
    for got, want in zip(got_all, _reference_blur(op, x, weight)):
        # relative to x as well: at w = 0 an invertible blur has Q = 0, so Q x is rounding noise
        assert got.shape == shape
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), np.max(np.abs(x)))


@pytest.mark.parametrize("kernel", ["scenario-1", "lopsided-3x5"])
@pytest.mark.parametrize("shape", [(64, 64), (37, 53), (16, 15)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_blur_backward_projection_matches_the_public_methods(shape, kernel):
    # the residual norm comes from the half spectrum: column 0, and W/2 for
    # even widths only, count once, every other column twice
    op = BlurOperator(_ORACLE_KERNELS[kernel], shape)
    x = _random_grid(22, *shape)
    y = _random_grid(23, *shape)
    y_tilde, residual_sq = op.backward_projection(y, WEIGHT)(x)
    want = float(np.sum((y - op.forward(x)) ** 2))
    assert abs(residual_sq - want) <= 1e-12 * want
    want = op.pseudoinverse(y, WEIGHT) + op.project_null(x, WEIGHT)
    assert y_tilde.shape == shape
    assert np.max(np.abs(y_tilde - want)) <= 1e-12 * np.max(np.abs(want))


def _reference_mask_projections(op, y, x, weight):
    """The closed forms the mask operator computed H+ y and Q x by before
    both were derived from its step, kept as the independent oracle."""
    scale = 1.0 + weight
    return np.where(op.mask, y / scale, 0.0), np.where(op.mask, x - x / scale, x)


@pytest.mark.parametrize("regularisation", [(0.0, 0.0), (EPSILON, SIGMA_N)])
def test_mask_backward_projection_is_the_public_arithmetic(regularisation):
    epsilon, sigma_n = regularisation
    weight = epsilon * sigma_n**2
    op = generate_random_mask(37, 53, 0.7, RngState(24))
    x = _random_grid(25, 37, 53)
    y = op.forward(_random_grid(26, 37, 53))
    # signed zeros on observed and unobserved pixels: the derived forms add
    # a zero term, which may turn -0.0 into +0.0 but changes no other value
    x[::5, ::7] = y[::5, ::7] = -0.0
    assert (np.signbit(y) & op.mask).any() and (np.signbit(x) & ~op.mask).any()
    pinv_y, null_x = _reference_mask_projections(op, y, x, weight)
    y_tilde, residual_sq = op.backward_projection(y, weight)(x)
    assert y_tilde.tobytes() == (pinv_y + null_x).tobytes()
    assert residual_sq == sum_of_squares(y - op.forward(x))
    assert np.array_equal(op.pseudoinverse(y, weight), pinv_y)
    assert np.array_equal(op.project_null(x, weight), null_x)


def _snapshot(op) -> dict:
    return {name: (value.dtype, value.shape, value.tobytes()) if isinstance(value, np.ndarray) else value
            for name, value in vars(op).items()}


@pytest.mark.parametrize("op", [
    BlurOperator(generate_scenario_kernel(1), (16, 15)),
    generate_random_mask(16, 15, 0.5, RngState(28)),
], ids=["blur", "mask"])
def test_using_an_operator_never_changes_it(op):
    before = _snapshot(op)
    x = _random_grid(29, 16, 15)
    y = op.forward(x)
    for weight in (WEIGHT, 0.0):
        op.backward_projection(y, weight)(x)
        op.pseudoinverse(y, weight)
        op.project_null(x, weight)
    assert _snapshot(op) == before


@pytest.mark.parametrize(
    "op", [BlurOperator(_delta_kernel(), (8, 8)), InpaintingOperator(np.ones((8, 8), dtype=bool))], ids=["blur", "mask"]
)
def test_backward_projection_rejects_a_mismatched_iterate(op):
    project = op.backward_projection(np.ones((8, 8)))
    with pytest.raises(ValueError, match="shape mismatch"):
        project(np.ones((1, 8)))


def _count_transforms(monkeypatch, names=("fft2", "rfft2")) -> list:
    """Record the name of each call to the named np.fft functions; by
    default the forward 2-D transforms, complex and real."""
    calls = []

    def counted(name, transform):
        return lambda *args, **kw: calls.append(name) or transform(*args, **kw)

    for name in names:
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    return calls


def test_deblur_synthesis_transforms_the_kernel_once(monkeypatch):
    x = _random_grid(18, 16, 16)
    expected_op = BlurOperator(generate_scenario_kernel(1), (16, 16))
    calls = _count_transforms(monkeypatch)
    operator, y, blurred, sigma_n = synthesize_deblurring(x, 1, 2.0, RngState(3))
    assert len(calls) == 2  # the kernel spectrum and the image it blurs
    assert type(operator) is BlurOperator and sigma_n == 2.0
    assert np.array_equal(operator.spectrum, expected_op.spectrum)
    assert np.array_equal(blurred, expected_op.forward(x))


def test_pnp_blur_run_reuses_the_operator_spectrum(monkeypatch):
    op = BlurOperator(generate_scenario_kernel(1), (16, 16))
    y = _random_grid(19, 16, 16)
    calls = _count_transforms(monkeypatch)
    pnp_run(op, y, 2.0, lambda z, sigma: z, PnpConfig(beta=0.85, lam=2.0 / 255.0, iterations=1), y)
    assert len(calls) == 2  # the bound step transforms y once, then the one iterate


@pytest.mark.parametrize("solver", ["idbp", "pnp"])
def test_blur_iterations_make_only_real_transforms(monkeypatch, solver):
    # a steady iteration makes one pair: the bound backward projection
    # x + H+ (y - H x), which also yields IDBP's monitor ||y - H x|| and
    # makes PnP's least-squares step.  Once per run, both transform y.
    op = BlurOperator(generate_scenario_kernel(1), (16, 16))
    y = _random_grid(21, 16, 16)
    calls = _count_transforms(monkeypatch, ("fft2", "ifft2", "rfft2", "irfft2"))
    counts = []
    for iterations in (2, 5):
        calls.clear()
        if solver == "idbp":
            idbp_run(op, y, 2.0, lambda z, sigma: z, IdbpConfig(iterations=iterations, epsilon=7e-3), y)
        else:
            pnp_run(op, y, 2.0, lambda z, sigma: z, PnpConfig(beta=0.85, lam=2.0 / 255.0, iterations=iterations), y)
        counts.append(Counter(calls))
    per_iteration = {name: (counts[1][name] - counts[0][name]) / 3 for name in ("fft2", "ifft2", "rfft2", "irfft2")}
    assert per_iteration == {"fft2": 0, "ifft2": 0, "rfft2": 1, "irfft2": 1}
    assert counts[0] == Counter(rfft2=2, irfft2=2) + Counter(rfft2=1)


def test_forward_only_operator_tolerates_spectral_zeros():
    # the 5-tap binomial kernel has an exact zero at Nyquist on even sizes
    op = BlurOperator(generate_scenario_kernel(4), (16, 16))
    x = np.ones((16, 16))
    op.forward(x)
    with pytest.raises(ValueError, match="undefined"):
        op.pseudoinverse(x)
    with pytest.raises(ValueError, match="undefined"):
        op.project_null(x)


def test_blur_operator_validates_kernel():
    with pytest.raises(ValueError, match="odd"):
        BlurOperator(np.full((2, 2), 0.25), (8, 8))
    with pytest.raises(ValueError, match="sum"):
        BlurOperator(np.full((3, 3), 1.0), (8, 8))


def test_kernel_spectrum_centres_delta_at_ones():
    spec = kernel_spectrum(_delta_kernel(5), (12, 12))
    assert spec.shape == (12, 12 // 2 + 1)
    assert np.all(spec == 1)


# ---------------------------------------------------------------------------
# Scenario kernels
# ---------------------------------------------------------------------------


def test_scenario_kernels_sum_to_one_and_are_symmetric():
    for sid in (1, 2, 3, 4):
        k = generate_scenario_kernel(sid)
        assert abs(k.sum() - 1.0) < 1e-12
        assert np.array_equal(k, k[::-1, ::-1])


def test_scenario_1_inverse_quadratic_profile():
    k = generate_scenario_kernel(1)
    assert k.shape == (15, 15)
    unnorm = k / k[7, 7]  # origin back to 1
    assert unnorm[7, 8] == pytest.approx(0.5, rel=1e-12)
    assert unnorm[8, 7] == pytest.approx(0.5, rel=1e-12)
    assert unnorm[0, 0] == pytest.approx(1.0 / 99.0, rel=1e-12)


def test_scenario_3_uniform():
    k = generate_scenario_kernel(3)
    assert k.shape == (9, 9)
    assert np.allclose(k, 1.0 / 81.0, atol=1e-15)


def test_scenario_4_binomial():
    k = generate_scenario_kernel(4)
    assert k.shape == (5, 5)
    assert k[2, 2] == pytest.approx(36.0 / 256.0, rel=0, abs=0)
    assert k[0, 0] == pytest.approx(1.0 / 256.0, rel=0, abs=0)


def test_scenario_noise_table():
    assert SCENARIO_NOISE_VARIANCE == {1: 2.0, 2: 8.0, 3: None, 4: 49.0}


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        generate_scenario_kernel(5)
