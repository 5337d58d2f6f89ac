import numpy as np
import pytest
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
        np.testing.assert_array_equal(block, want)
        np.testing.assert_array_equal(rng.noise_block(seed, stream, step, k, d), want)


def test_noise_blocks_are_read_only():
    for block in (rng.NoiseStream(3, 1).block(2, 4, 3), rng.noise_block(3, 1, 2, 4, 3)):
        assert not block.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 0.0
