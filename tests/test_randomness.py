import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpviewsim import randomness
from dpviewsim.dpnoise import joint_laplace
from dpviewsim.randomness import RawStream, ServerRandomness
from dpviewsim.sharing import RING_SIZE, RandomnessReuse, share_in_protocol


def _scalar_words(seed, n):
    """n scalar draws from each of the four substreams: noise 0/1, share 0/1."""
    children = np.random.SeedSequence(seed).spawn(4)
    rngs = [np.random.default_rng(c) for c in children]
    return [[int(rng.integers(RING_SIZE)) for _ in range(n)] for rng in rngs]


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_block_words_equal_scalar_draws_past_two_blocks(seed):
    n = 2 * randomness._BLOCK + 7
    rand = ServerRandomness(seed)
    noise, share = [], []
    for i in range(n):
        # Interleave the two kinds unevenly; their substreams are independent.
        noise.append(rand.noise_pair())
        if i % 3:
            share.append(rand.share_pair())
    while len(share) < n:
        share.append(rand.share_pair())
    n0, n1, s0, s1 = _scalar_words(seed, n)
    assert noise == list(zip(n0, n1))
    assert share == list(zip(s0, s1))
    assert all(type(z) is int for pair in noise + share for z in pair)


def test_joint_laplace_uses_the_noise_words():
    rand = ServerRandomness(4)
    n0, n1, _, _ = _scalar_words(4, 3)
    scale = 10 / 1.5
    assert [rand.joint_laplace(scale) for _ in range(3)] == [
        joint_laplace(a, b, scale) for a, b in zip(n0, n1)]


def test_reused_pair_still_raises_across_block_boundaries():
    rand = ServerRandomness(11)
    pairs = [rand.share_pair() for _ in range(randomness._BLOCK + 2)]
    for pair in pairs:
        share_in_protocol(0, *pair, seen=rand.seen_pairs)
    with pytest.raises(RandomnessReuse):
        share_in_protocol(0, *pairs[randomness._BLOCK], seen=rand.seen_pairs)


def test_words_equal_the_generator_block_draws_across_a_block_boundary():
    # Each refill is one random_raw(_BLOCK // 2) read as little-endian 32-bit
    # halves; the words are those of integers(RING_SIZE, size=_BLOCK).
    n = randomness._BLOCK
    rand = ServerRandomness(9)
    pairs = [rand.noise_pair() for _ in range(2 * n + 3)]
    for child, words in zip(np.random.SeedSequence(9).spawn(2), zip(*pairs)):
        rng = np.random.default_rng(child)
        want = [w for _ in range(3) for w in rng.integers(RING_SIZE, size=n).tolist()]
        assert list(words) == want[:2 * n + 3]


_LAMS = (0, 0.125, 0.25, 2.5, 5, 9.99, 10, 12.5, 50)
_HIGHS = (1, 2, 7, 1000, 2**31, 3 * 10**9)  # 3e9 rejects about 3 draws in 10
_CALLS = st.one_of(
    st.just(("random", (), {})),
    st.tuples(st.just("poisson"), st.tuples(st.sampled_from(_LAMS)), st.just({})),
    st.tuples(st.just("integers"), st.tuples(st.sampled_from(_HIGHS)),
              st.fixed_dictionaries({"size": st.none() | st.integers(1, 40)})))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), calls=st.lists(_CALLS, max_size=300))
def test_raw_stream_equals_the_generator_on_any_interleaving(seed, calls):
    # Doubles do not touch the kept high half that a later 32-bit draw takes,
    # and PTRS (lam >= 10) enters loggam on its slow acceptance test.
    seq = np.random.SeedSequence([seed, 7])
    rng, raw = np.random.default_rng(seq), RawStream(seq)
    for name, args, kwargs in calls:
        want = np.asarray(getattr(rng, name)(*args, **kwargs)).tolist()
        got = getattr(raw, name)(*args, **kwargs)
        assert got == want and type(got) is type(want), (name, args, kwargs)


@pytest.mark.parametrize("high", [7, 3 * 10**9 + 1])
@pytest.mark.parametrize("offset", [-1, 0])
def test_bounded_draw_is_redrawn_exactly_below_the_threshold(high, offset):
    # A low product word one below (2**32 - high) % high is redrawn, one at
    # it is kept: a draw that only sampling would meet once in 2**32 draws.
    # PCG64's kept high half is the next 32-bit draw, so both streams are
    # handed the half whose product has that low word.
    low = RING_SIZE % high + offset
    half = low * pow(high, -1, RING_SIZE) % RING_SIZE
    seq = np.random.SeedSequence(3)
    bitgen = np.random.PCG64(seq)
    bitgen.state = {**bitgen.state, "has_uint32": 1, "uinteger": half}
    raw = RawStream(seq)
    raw._high = half
    assert raw.integers(high, 3) == np.random.Generator(bitgen).integers(high, size=3).tolist()


def test_ptrs_draws_equal_numpy_across_interleaved_lams():
    # Back to lam = 10 after 12.5 and 50: a set-up kept under another lam
    # would draw from the wrong distribution.
    seq = np.random.SeedSequence([5, 7])
    rng, raw = np.random.default_rng(seq), RawStream(seq)
    for lam in (10, 12.5, 50, 10):
        assert [raw.poisson(lam) for _ in range(300)] == rng.poisson(lam, 300).tolist(), lam


def test_loggam_equals_lgamma():
    assert all(math.isclose(randomness._loggam(k), math.lgamma(k), rel_tol=1e-14, abs_tol=1e-14)
               for k in range(1, 301))
