import numpy as np
import pytest

from dpviewsim import randomness
from dpviewsim.dpnoise import NoiseScale, joint_laplace
from dpviewsim.randomness import ServerRandomness
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
    scale = NoiseScale(10, 1.5)
    assert [rand.joint_laplace(scale) for _ in range(3)] == [
        joint_laplace(a, b, scale) for a, b in zip(n0, n1)]


def test_reused_pair_still_raises_across_block_boundaries():
    rand = ServerRandomness(11)
    pairs = [rand.share_pair() for _ in range(randomness._BLOCK + 2)]
    for pair in pairs:
        share_in_protocol(0, *pair, seen=rand.seen_pairs)
    with pytest.raises(RandomnessReuse):
        share_in_protocol(0, *pairs[randomness._BLOCK], seen=rand.seen_pairs)
