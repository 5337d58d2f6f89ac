import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sabvi import rng

U64 = st.integers(0, 2**64 - 1)


@settings(max_examples=200, deadline=None)
@given(seed=U64, stream=U64,
       steps=st.lists(U64 | st.integers(0, 3), min_size=1, max_size=6, unique=True),
       data=st.data())
def test_noise_stream_blocks_match_fresh_generators(seed, stream, steps, data):
    # every step in order, then again shuffled: a block never depends on
    # the blocks drawn before it from the same live stream
    order = steps + data.draw(st.permutations(steps))
    noise = rng.NoiseStream(seed, stream)
    for step in order:
        k, d = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        block = noise.block(step, k, d)
        want = rng.generator(seed, stream, step).standard_normal((k, d))
        np.testing.assert_array_equal(block.epsilons, want)
        np.testing.assert_array_equal(rng.noise_block(seed, stream, step, k, d).epsilons, want)
