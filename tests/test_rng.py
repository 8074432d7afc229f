import numpy as np
import pytest

from idbp.rng import RngState


def test_same_seed_reproduces_bit_identically():
    a = RngState(1234).raw(1000)
    b = RngState(1234).raw(1000)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngState(1).raw(64)
    b = RngState(2).raw(64)
    assert not np.array_equal(a, b)


def test_counter_resume_matches_contiguous_stream():
    whole = RngState(7).uniforms(100)
    state = RngState(7)
    first = state.uniforms(60)
    resumed = RngState(7, counter=state.counter).uniforms(40)
    assert np.array_equal(np.concatenate([first, resumed]), whole)


def test_raw_matches_pure_python_reference():
    # independent big-int reimplementation of the mixer
    mask = (1 << 64) - 1

    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return (z ^ (z >> 31)) & mask

    seed = 987654321
    expected = [mix((seed + i * 0x9E3779B97F4A7C15) & mask) for i in range(1, 33)]
    got = RngState(seed).raw(32)
    assert [int(v) for v in got] == expected


def test_uniforms_range_and_coverage():
    u = RngState(5).uniforms(200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.001


def test_gaussians_sample_statistics():
    g = RngState(11).gaussians(400_000)
    assert abs(g.mean()) < 0.01
    assert abs(g.std() - 1.0) < 0.01
    # fourth moment of a standard normal is 3
    assert abs(np.mean(g**4) - 3.0) < 0.1


def test_gaussians_odd_count_prefix_of_even():
    odd = RngState(3).gaussians(7)
    even = RngState(3).gaussians(8)
    assert np.array_equal(odd, even[:7])


def test_shuffled_tail_is_a_permutation_tail():
    rng = RngState(9)
    pick = rng.shuffled_tail(100, 40)
    assert len(set(int(i) for i in pick)) == 60
    assert all(0 <= int(i) < 100 for i in pick)


def _reference_shuffle(rng, n, k):
    """range(n) after the first `k` Fisher-Yates swap steps, run one by one
    on a numpy int64 array with one numpy float64 draw per step: the oracle
    for the tail that ``shuffled_tail`` builds without swapping."""
    idx = np.arange(n, dtype=np.int64)
    u = rng.uniforms(k)
    for i in range(k):
        j = i + int(u[i] * (n - i))
        idx[i], idx[j] = idx[j], idx[i]
    return idx


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
@pytest.mark.parametrize(
    "n, k", [(65536, 52429), (262144, 209715), (100, 40), (10, 10), (1, 1), (100, 0), (100, 99)]
)
def test_shuffled_tail_matches_reference(n, k, seed):
    rng, ref = RngState(seed, counter=3), RngState(seed, counter=3)
    got = rng.shuffled_tail(n, k)
    want = _reference_shuffle(ref, n, k)[k:]
    assert got.dtype == want.dtype == np.int64 and got.shape == (n - k,)
    assert got.tobytes() == want.tobytes()
    assert rng.counter == ref.counter


def test_shuffled_tail_bounds():
    for n, k in [(10, 11), (10, -1)]:
        with pytest.raises(ValueError):
            RngState(0).shuffled_tail(n, k)
