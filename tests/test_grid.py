import numpy as np
import pytest

from idbp.grid import add_gaussian_noise, as_grid, bsnr, psnr, sigma_for_bsnr
from idbp.pgm import PgmFormatError, load_pgm, save_pgm
from idbp.rng import RngState


def _random_grid(seed, shape, scale=50.0, offset=120.0):
    rng = RngState(seed)
    return rng.gaussians(shape[0] * shape[1]).reshape(shape) * scale + offset


# ---------------------------------------------------------------------------
# psnr
# ---------------------------------------------------------------------------


def test_psnr_identity_is_infinite():
    x = _random_grid(1, (8, 8))
    assert psnr(x, x) == float("inf")


def test_psnr_full_scale_difference_is_zero_db():
    zeros = np.zeros((4, 4))
    full = np.full((4, 4), 255.0)
    assert psnr(zeros, full) == pytest.approx(0.0, abs=1e-12)


def test_psnr_unit_mse():
    x = np.zeros((16, 16))
    y = np.ones((16, 16))  # MSE = 1
    assert psnr(x, y) == pytest.approx(20.0 * np.log10(255.0), rel=1e-12)


def test_psnr_symmetric_and_shift_invariant():
    rng = RngState(2)
    for _ in range(20):
        a = rng.gaussians(64).reshape(8, 8) * 30 + 100
        b = rng.gaussians(64).reshape(8, 8) * 30 + 100
        c = float(rng.uniforms(1)[0] * 40 - 20)
        assert psnr(a, b) == pytest.approx(psnr(b, a), rel=0, abs=0)
        assert psnr(a + c, b + c) == pytest.approx(psnr(a, b), rel=1e-12)


def test_psnr_dimension_mismatch():
    with pytest.raises(ValueError):
        psnr(np.zeros((4, 4)), np.zeros((4, 5)))


# ---------------------------------------------------------------------------
# bsnr / sigma_for_bsnr
# ---------------------------------------------------------------------------


def test_bsnr_constant_image_is_minus_infinity():
    assert bsnr(np.full((8, 8), 42.0), 3.0) == float("-inf")


def test_bsnr_unit_ratio_is_zero_db():
    x = _random_grid(4, (32, 32))
    sigma = float(np.sqrt(np.mean((x - x.mean()) ** 2)))
    assert bsnr(x, sigma) == pytest.approx(0.0, abs=1e-10)


def test_bsnr_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        bsnr(np.zeros((4, 4)), 0.0)


@pytest.mark.parametrize("sigma_n", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_bsnr_rejects_a_non_finite_sigma(sigma_n):
    # NaN used to give NaN dB, and +inf -inf dB with a RuntimeWarning
    with pytest.raises(ValueError, match="sigma_n must be finite and positive"):
        bsnr(_random_grid(4, (8, 8)), sigma_n)


def test_sigma_for_bsnr_inverts_bsnr():
    x = _random_grid(5, (64, 64))
    for target in (0.0, 17.5, 40.0):
        sigma = sigma_for_bsnr(x, target)
        assert bsnr(x, sigma) == pytest.approx(target, abs=1e-9)


def test_sigma_for_bsnr_forty_db_is_hundredth_of_rms_deviation():
    x = _random_grid(6, (64, 64))
    rms = float(np.sqrt(np.mean((x - x.mean()) ** 2)))
    assert sigma_for_bsnr(x, 40.0) == pytest.approx(rms * 1e-2, rel=1e-12)
    assert sigma_for_bsnr(x, 0.0) == pytest.approx(rms, rel=1e-12)


def test_sigma_for_bsnr_rejects_constant_input():
    with pytest.raises(ValueError):
        sigma_for_bsnr(np.ones((4, 4)), 40.0)


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------


def test_noise_zero_sigma_is_exact_identity():
    x = _random_grid(7, (16, 16))
    out = add_gaussian_noise(x, 0.0, RngState(1))
    assert np.array_equal(out, x)


def test_noise_deterministic_per_seed():
    x = np.zeros((32, 32))
    a = add_gaussian_noise(x, 10.0, RngState(5))
    b = add_gaussian_noise(x, 10.0, RngState(5))
    c = add_gaussian_noise(x, 10.0, RngState(6))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noise_empirical_standard_deviation():
    x = np.zeros((512, 512))
    noisy = add_gaussian_noise(x, 10.0, RngState(8))
    assert float((noisy - x).std()) == pytest.approx(10.0, abs=0.1)


def test_noise_rejects_negative_sigma():
    with pytest.raises(ValueError):
        add_gaussian_noise(np.zeros((4, 4)), -1.0, RngState(0))


@pytest.mark.parametrize("sigma_n", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_noise_rejects_a_non_finite_sigma(sigma_n):
    # NaN used to give an all-NaN grid, and +inf a grid with no finite pixel
    with pytest.raises(ValueError, match="sigma_n must be finite and nonnegative"):
        add_gaussian_noise(np.zeros((4, 4)), sigma_n, RngState(0))


def test_as_grid_rejects_non_finite():
    bad = np.ones((3, 3))
    bad[1, 1] = np.nan
    with pytest.raises(ValueError):
        as_grid(bad)


# ---------------------------------------------------------------------------
# PGM I/O
# ---------------------------------------------------------------------------


def test_pgm_round_trip_integer_image(tmp_path):
    rng = RngState(9)
    img = np.floor(rng.uniforms(300).reshape(15, 20) * 256.0)
    path = tmp_path / "img.pgm"
    save_pgm(img, path)
    again = load_pgm(path)
    assert np.array_equal(again, img)
    save_pgm(again, tmp_path / "img2.pgm")
    assert (tmp_path / "img.pgm").read_bytes() == (tmp_path / "img2.pgm").read_bytes()


@pytest.mark.parametrize(
    "value,expected",
    [(255.6, 255), (-3.0, 0), (0.5, 1), (127.49, 127), (127.5, 128)],
)
def test_pgm_save_clamps_and_rounds(tmp_path, value, expected):
    path = tmp_path / "v.pgm"
    save_pgm(np.full((2, 2), value), path)
    assert load_pgm(path)[0, 0] == expected


def test_pgm_load_handles_comment_headers(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + bytes(range(6)))
    img = load_pgm(path)
    assert img.shape == (2, 3)
    assert img[1, 2] == 5


def test_pgm_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(PgmFormatError):
        load_pgm(path)


def test_pgm_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
    with pytest.raises(PgmFormatError, match="truncated"):
        load_pgm(path)


def test_pgm_rejects_unsupported_maxval(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(PgmFormatError, match="maxval"):
        load_pgm(path)


@pytest.mark.parametrize("header, payload, error", [
    (b"P5\n4", b"", "truncated header"),
    (b"P5x\n2 1\n255\n", bytes([0, 1]), "P5 magic"),
    (b"P5\t3\r1\t255\r", bytes([0, 1, 2]), None),
    (b"P5 3 # width, then height\n1\n# maxval\n255\n", bytes([0, 1, 2]), None),
    (b"P5\n3 1\n255\n", bytes([35, 1, 2]), None),
    (b"P5\n3 1\n255\n", bytes([10, 1, 2]), None),
    (b"P5\n3 1\n255\n", bytes([32, 1, 2]), None),
], ids=["truncated-header", "magic-runs-on", "tab-and-cr", "comments-between-tokens", "payload-starts-with-hash",
        "payload-starts-with-newline", "payload-starts-with-space"])
def test_pgm_header_tokens(header, payload, error, tmp_path):
    # exactly one whitespace byte ends the header, so a payload may begin
    # with a byte the header scan would otherwise read as a comment or a
    # space; the magic is a whole token, not a prefix of one
    path = tmp_path / "h.pgm"
    path.write_bytes(header + payload)
    if error is not None:
        with pytest.raises(PgmFormatError, match=error):
            load_pgm(path)
    else:
        assert load_pgm(path).tolist() == [list(payload)]
